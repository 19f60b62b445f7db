#include <gtest/gtest.h>

#include <algorithm>

#include "src/nn/model_zoo.h"
#include "src/nn/train_graph.h"

namespace oobp {
namespace {

TEST(TrainGraphTest, ConventionalOrderInterleaves) {
  const NnModel m = Ffnn(4, 8);
  const TrainGraph g(&m);
  const auto order = g.ConventionalBackprop();
  ASSERT_EQ(order.size(), 8u);  // 4 dO + 4 dW
  EXPECT_EQ(order[0], (TrainOp{TrainOpType::kOutputGrad, 3}));
  EXPECT_EQ(order[1], (TrainOp{TrainOpType::kWeightGrad, 3}));
  EXPECT_EQ(order[6], (TrainOp{TrainOpType::kOutputGrad, 0}));
  EXPECT_EQ(order[7], (TrainOp{TrainOpType::kWeightGrad, 0}));
  EXPECT_TRUE(g.ValidateBackpropOrder(order));
}

TEST(TrainGraphTest, FullyDeferredOrderValid) {
  const NnModel m = Ffnn(6, 8);
  const TrainGraph g(&m);
  const auto order = g.FullyDeferredBackprop();
  EXPECT_TRUE(g.ValidateBackpropOrder(order));
  // All dO come first.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(order[i].type, TrainOpType::kOutputGrad);
  }
  for (size_t i = 6; i < order.size(); ++i) {
    EXPECT_EQ(order[i].type, TrainOpType::kWeightGrad);
  }
}

TEST(TrainGraphTest, ForwardAscending) {
  const NnModel m = Ffnn(5, 8);
  const TrainGraph g(&m);
  const auto fwd = g.Forward();
  ASSERT_EQ(fwd.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fwd[i], (TrainOp{TrainOpType::kForward, i}));
  }
}

TEST(TrainGraphTest, ValidatorRejectsMissingDgrad) {
  const NnModel m = Ffnn(3, 8);
  const TrainGraph g(&m);
  auto order = g.ConventionalBackprop();
  order.erase(std::find(order.begin(), order.end(),
                        TrainOp{TrainOpType::kOutputGrad, 1}));
  EXPECT_FALSE(g.ValidateBackpropOrder(order));
}

TEST(TrainGraphTest, ValidatorRejectsDuplicates) {
  const NnModel m = Ffnn(3, 8);
  const TrainGraph g(&m);
  auto order = g.ConventionalBackprop();
  order.push_back({TrainOpType::kWeightGrad, 0});
  EXPECT_FALSE(g.ValidateBackpropOrder(order));
}

TEST(TrainGraphTest, ValidatorRejectsDgradOutOfChainOrder) {
  const NnModel m = Ffnn(3, 8);
  const TrainGraph g(&m);
  // dO must run in strictly descending layer order.
  std::vector<TrainOp> order = {
      {TrainOpType::kOutputGrad, 1}, {TrainOpType::kOutputGrad, 2},
      {TrainOpType::kOutputGrad, 0}, {TrainOpType::kWeightGrad, 2},
      {TrainOpType::kWeightGrad, 1}, {TrainOpType::kWeightGrad, 0}};
  EXPECT_FALSE(g.ValidateBackpropOrder(order));
}

TEST(TrainGraphTest, ValidatorRejectsWgradBeforeItsGradient) {
  const NnModel m = Ffnn(3, 8);
  const TrainGraph g(&m);
  // dW_0 before dO_1 (its producer) is illegal.
  std::vector<TrainOp> order = {
      {TrainOpType::kOutputGrad, 2}, {TrainOpType::kWeightGrad, 0},
      {TrainOpType::kOutputGrad, 1}, {TrainOpType::kOutputGrad, 0},
      {TrainOpType::kWeightGrad, 2}, {TrainOpType::kWeightGrad, 1}};
  EXPECT_FALSE(g.ValidateBackpropOrder(order));
}

TEST(TrainGraphTest, ValidatorAcceptsWgradOfTopLayerAnywhere) {
  const NnModel m = Ffnn(2, 8);
  const TrainGraph g(&m);
  // dW of the top layer depends only on the loss gradient.
  std::vector<TrainOp> order = {{TrainOpType::kOutputGrad, 1},
                                {TrainOpType::kOutputGrad, 0},
                                {TrainOpType::kWeightGrad, 0},
                                {TrainOpType::kWeightGrad, 1}};
  EXPECT_TRUE(g.ValidateBackpropOrder(order));
}

TEST(TrainGraphTest, ParamFreeLayersHaveNoWgrad) {
  const NnModel m = ResNet(50, 8);
  const TrainGraph g(&m);
  int wgrads = 0;
  for (const TrainOp& op : g.ConventionalBackprop()) {
    wgrads += op.type == TrainOpType::kWeightGrad ? 1 : 0;
  }
  int param_layers = 0;
  for (const Layer& l : m.layers) {
    param_layers += l.has_params() ? 1 : 0;
  }
  EXPECT_EQ(wgrads, param_layers);
  EXPECT_LT(param_layers, m.num_layers());  // pools have no params
}

// Property sweep: both canonical orders validate for every zoo model.
class GraphOrderTest : public ::testing::TestWithParam<NnModel> {};

TEST_P(GraphOrderTest, CanonicalOrdersValidate) {
  const NnModel m = GetParam();
  const TrainGraph g(&m);
  EXPECT_TRUE(g.ValidateBackpropOrder(g.ConventionalBackprop()));
  EXPECT_TRUE(g.ValidateBackpropOrder(g.FullyDeferredBackprop()));
  // Reversing the conventional order must be rejected.
  auto reversed = g.ConventionalBackprop();
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_FALSE(g.ValidateBackpropOrder(reversed));
}

INSTANTIATE_TEST_SUITE_P(AllModels, GraphOrderTest,
                         ::testing::Values(ResNet(50, 8),
                                           DenseNet(121, 32, 8),
                                           MobileNetV3Large(1.0, 8),
                                           Bert(12, 4), RnnModel(16, 16),
                                           Ffnn(16, 16)),
                         [](const ::testing::TestParamInfo<NnModel>& param_info) {
                           std::string name = param_info.param.name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace oobp
