#include <gtest/gtest.h>

#include "src/hw/gpu.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"

namespace oobp {
namespace {

int64_t ParamCount(const NnModel& model) {
  return model.TotalParamBytes() / kDtypeBytes;
}

TEST(ResNetTest, ParameterCountsNearPublished) {
  // Published counts: ResNet-50 25.6M, ResNet-101 44.5M, ResNet-152 60.2M.
  EXPECT_NEAR(ParamCount(ResNet(50, 32)) / 1e6, 25.6, 3.0);
  EXPECT_NEAR(ParamCount(ResNet(101, 32)) / 1e6, 44.5, 5.0);
  EXPECT_NEAR(ParamCount(ResNet(152, 32)) / 1e6, 60.2, 7.0);
}

TEST(ResNetTest, ForwardFlopsNearPublished) {
  // ResNet-50: ~4.1 GMACs = 8.2 GFLOPs per 224x224 image.
  const NnModel m = ResNet(50, 1);
  EXPECT_NEAR(m.TotalFwdFlops() / 1e9, 8.2, 2.0);
}

TEST(ResNetTest, DepthChangesLayerCount) {
  EXPECT_LT(ResNet(50, 32).num_layers(), ResNet(101, 32).num_layers());
  EXPECT_LT(ResNet(101, 32).num_layers(), ResNet(152, 32).num_layers());
}

TEST(DenseNetTest, ParameterCountNearPublished) {
  // DenseNet-121 (k=32): ~8.0M parameters.
  EXPECT_NEAR(ParamCount(DenseNet(121, 32, 32)) / 1e6, 8.0, 2.0);
  // DenseNet-169 is larger.
  EXPECT_GT(ParamCount(DenseNet(169, 32, 32)),
            ParamCount(DenseNet(121, 32, 32)));
}

TEST(DenseNetTest, GrowthRateScalesModel) {
  EXPECT_LT(ParamCount(DenseNet(121, 12, 32)),
            ParamCount(DenseNet(121, 24, 32)));
  EXPECT_LT(ParamCount(DenseNet(121, 24, 32)),
            ParamCount(DenseNet(121, 32, 32)));
}

TEST(DenseNetTest, HasFourDenseBlocks) {
  const NnModel m = DenseNet(121, 32, 32);
  int blocks = 0;
  for (const std::string& b : m.Blocks()) {
    blocks += b.starts_with("denseblock") ? 1 : 0;
  }
  EXPECT_EQ(blocks, 4);
}

TEST(DenseNetTest, Section82OccupancyAnecdote) {
  // Section 8.2: on a V100 (1,520 resident blocks), DenseBlock-4 weight-
  // gradient kernels run a few hundred thread blocks (heavily
  // underutilized), while DenseBlock-3 output-gradient kernels saturate.
  const NnModel m = DenseNet(121, 32, 32, /*image=*/224);
  const double capacity = GpuSpec::V100().slot_capacity();
  int db4_wgrad_low = 0, db4_wgrad_total = 0;
  int db3_dgrad_high = 0, db3_dgrad_total = 0;
  for (const Layer& l : m.layers) {
    if (l.block == "denseblock4" && l.has_params()) {
      ++db4_wgrad_total;
      db4_wgrad_low += l.wgrad_blocks < capacity ? 1 : 0;
    }
    if (l.block == "denseblock3") {
      ++db3_dgrad_total;
      db3_dgrad_high += l.dgrad_blocks >= capacity ? 1 : 0;
    }
  }
  EXPECT_GT(db4_wgrad_total, 0);
  EXPECT_GT(db3_dgrad_total, 0);
  // At least half the DenseBlock-4 dW kernels underutilize the SMs.
  EXPECT_GE(db4_wgrad_low * 2, db4_wgrad_total);
  // At least 30% of DenseBlock-3 main kernels saturate (paper: "more than
  // thirty percent").
  EXPECT_GE(db3_dgrad_high * 10, db3_dgrad_total * 3);
}

TEST(MobileNetTest, MultiplierScalesParameters) {
  const int64_t p025 = ParamCount(MobileNetV3Large(0.25, 32));
  const int64_t p050 = ParamCount(MobileNetV3Large(0.5, 32));
  const int64_t p100 = ParamCount(MobileNetV3Large(1.0, 32));
  EXPECT_LT(p025, p050);
  EXPECT_LT(p050, p100);
  // MobileNetV3-Large at alpha=1.0: ~5.4M parameters.
  EXPECT_NEAR(p100 / 1e6, 5.4, 2.0);
}

TEST(MobileNetTest, DepthwiseConvIsCheap) {
  const NnModel m = MobileNetV3Large(1.0, 32);
  // Find a depthwise layer and its sibling projection conv; the depthwise
  // should have far fewer FLOPs.
  const Layer* dw = nullptr;
  const Layer* proj = nullptr;
  for (const Layer& l : m.layers) {
    if (l.name.ends_with(".dw") && dw == nullptr) {
      dw = &l;
    }
    if (l.name.ends_with(".project") && dw != nullptr && proj == nullptr) {
      proj = &l;
    }
  }
  ASSERT_NE(dw, nullptr);
  ASSERT_NE(proj, nullptr);
  EXPECT_LT(dw->fwd_flops, proj->fwd_flops);
}

TEST(BertTest, SizesMatchPublished) {
  // BERT-Base: ~110M parameters; our encoder stack (tied LM head) should be
  // in that ballpark.
  EXPECT_NEAR(ParamCount(Bert(12, 8)) / 1e6, 110.0, 25.0);
  // BERT-24 uses the large width.
  EXPECT_NEAR(ParamCount(Bert(24, 8)) / 1e6, 335.0, 60.0);
  // BERT-48 roughly doubles the encoder parameters of BERT-24.
  EXPECT_GT(ParamCount(Bert(48, 8)), 1.6 * ParamCount(Bert(24, 8)) - 40e6);
}

TEST(BertTest, LayerStructure) {
  const NnModel m = Bert(12, 8);
  EXPECT_EQ(m.num_layers(), 1 + 12 + 1);  // embed + encoders + head
  EXPECT_EQ(m.layers.front().name, "embed");
  EXPECT_EQ(m.layers.back().name, "head.lm");
}

TEST(GptTest, MediumHas24Decoders) {
  const NnModel m = Gpt3Medium(4);
  EXPECT_EQ(m.num_layers(), 1 + 24 + 1);
  // GPT-3 Medium: ~350M parameters.
  EXPECT_NEAR(ParamCount(m) / 1e6, 350.0, 80.0);
}

TEST(RnnTest, SixteenCells) {
  const NnModel m = RnnModel(16, 1024);
  int cells = 0;
  for (const Layer& l : m.layers) {
    cells += l.name.starts_with("cell") ? 1 : 0;
  }
  EXPECT_EQ(cells, 16);
}

TEST(FfnnTest, UniformLayers) {
  const NnModel m = Ffnn(8, 64, 4096);
  EXPECT_EQ(m.num_layers(), 8);
  for (const Layer& l : m.layers) {
    EXPECT_EQ(l.fwd_flops, m.layers[0].fwd_flops);
    EXPECT_TRUE(l.has_params());
  }
}

// Property sweep: every zoo model is well-formed.
class ZooModelTest : public ::testing::TestWithParam<NnModel> {};

TEST_P(ZooModelTest, LayersAreWellFormed) {
  const NnModel& m = GetParam();
  ASSERT_GT(m.num_layers(), 0);
  EXPECT_GT(m.batch, 0);
  for (const Layer& l : m.layers) {
    EXPECT_FALSE(l.name.empty());
    EXPECT_FALSE(l.block.empty());
    EXPECT_GE(l.fwd_flops, 0);
    EXPECT_GT(l.fwd_blocks, 0.0);
    EXPECT_GT(l.dgrad_blocks, 0.0);
    EXPECT_GT(l.wgrad_blocks, 0.0);
    EXPECT_GE(l.output_bytes, 0);
    EXPECT_GE(l.param_bytes, 0);
    if (l.has_params()) {
      EXPECT_GT(l.wgrad_flops, 0) << l.name;
    }
  }
  EXPECT_GT(m.TotalFwdFlops(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooModelTest,
    ::testing::Values(ResNet(50, 32), ResNet(101, 32), ResNet(152, 16),
                      DenseNet(121, 12, 32, 32), DenseNet(121, 32, 32),
                      DenseNet(169, 32, 32), MobileNetV3Large(0.25, 32),
                      MobileNetV3Large(1.0, 32), Bert(12, 8), Bert(24, 8),
                      Bert(48, 4), Gpt3Medium(4), RnnModel(16, 64),
                      Ffnn(16, 64)),
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
