#include "src/search/candidate_cache.h"

#include <algorithm>

#include "src/common/check.h"

namespace oobp {

namespace {
// splitmix64 finalizer.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The gene's key word: slot << 1 | stream.
uint16_t PackGene(const WgradGene& gene) {
  OOBP_CHECK(gene.slot >= 0 && gene.slot < (1 << 15))
      << "gene slot " << gene.slot << " does not fit a cache key";
  OOBP_CHECK(gene.stream == 0 || gene.stream == 1)
      << "gene stream " << gene.stream << " does not fit a cache key";
  return static_cast<uint16_t>(gene.slot << 1 | gene.stream);
}
}  // namespace

uint64_t CandidateCache::Hash(const Genotype& genotype) {
  // Four key words per mix round, the last round zero-padded; the length
  // seeds the mix so padding cannot alias a longer genotype.
  uint64_t h = Mix(0x67656E6FULL ^ genotype.size());  // "geno"
  uint64_t word = 0;
  for (size_t i = 0; i < genotype.size(); ++i) {
    word |= static_cast<uint64_t>(PackGene(genotype[i])) << (16 * (i % 4));
    if (i % 4 == 3) {
      h = Mix(h ^ word);
      word = 0;
    }
  }
  return genotype.size() % 4 != 0 ? Mix(h ^ word) : h;
}

bool CandidateCache::Pack(const Genotype& genotype) {
  if (!layers_.has_value()) {
    layers_.emplace();
    layers_->reserve(genotype.size());
    for (const WgradGene& g : genotype) layers_->push_back(g.layer);
    key_.resize(genotype.size());
    entries_per_block_ = std::max<size_t>(
        1, kBlockBytes / sizeof(uint16_t) / std::max<size_t>(1, key_.size()));
  }
  if (genotype.size() != layers_->size()) return false;
  for (size_t i = 0; i < genotype.size(); ++i) {
    if (genotype[i].layer != (*layers_)[i]) return false;
    key_[i] = PackGene(genotype[i]);
  }
  return true;
}

uint16_t* CandidateCache::KeyAt(uint32_t entry) const {
  return blocks_[entry / entries_per_block_].keys.get() +
         entry % entries_per_block_ * key_.size();
}

CandidateCache::Score* CandidateCache::ScoreAt(uint32_t entry) const {
  return &blocks_[entry / entries_per_block_]
              .scores[entry % entries_per_block_];
}

size_t CandidateCache::Probe(uint64_t hash) const {
  const size_t mask = table_.size() - 1;
  size_t i = hash & mask;
  while (table_[i].entry != kEmpty &&
         !(table_[i].hash == hash &&
           std::equal(key_.begin(), key_.end(), KeyAt(table_[i].entry)))) {
    i = (i + 1) & mask;
  }
  return i;
}

const CandidateCache::Score* CandidateCache::Lookup(const Genotype& genotype) {
  return Lookup(genotype, Hash(genotype));
}

const CandidateCache::Score* CandidateCache::Lookup(const Genotype& genotype,
                                                    uint64_t hash) {
  if (Pack(genotype) && !table_.empty()) {
    const Cell& cell = table_[Probe(hash)];
    if (cell.entry != kEmpty) {
      ++hits_;
      return ScoreAt(cell.entry);
    }
  }
  ++misses_;
  return nullptr;
}

void CandidateCache::Insert(const Genotype& genotype, Score score) {
  Insert(genotype, score, Hash(genotype));
}

void CandidateCache::Insert(const Genotype& genotype, Score score,
                            uint64_t hash) {
  OOBP_CHECK(Pack(genotype)) << "genotype layer sequence differs from the "
                                "one the cache was keyed on";
  OOBP_CHECK_LT(size_, size_t{kEmpty});
  if (2 * (size_ + 1) > table_.size()) Grow();
  const size_t i = Probe(hash);
  OOBP_CHECK(table_[i].entry == kEmpty) << "genotype cached twice";
  const uint32_t entry = static_cast<uint32_t>(size_);
  if (entry % entries_per_block_ == 0) {
    blocks_.push_back(
        {std::make_unique<uint16_t[]>(entries_per_block_ * key_.size()),
         std::make_unique<Score[]>(entries_per_block_)});
  }
  std::copy(key_.begin(), key_.end(), KeyAt(entry));
  *ScoreAt(entry) = score;
  table_[i] = {hash, entry};
  ++size_;
}

void CandidateCache::Grow() {
  std::vector<Cell> old = std::move(table_);
  table_.assign(std::max<size_t>(16, 2 * old.size()), Cell{});
  const size_t mask = table_.size() - 1;
  for (const Cell& cell : old) {
    if (cell.entry == kEmpty) continue;
    size_t i = cell.hash & mask;
    while (table_[i].entry != kEmpty) i = (i + 1) & mask;
    table_[i] = cell;
  }
}

}  // namespace oobp
