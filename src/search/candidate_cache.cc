#include "src/search/candidate_cache.h"

#include <utility>

#include "src/common/check.h"

namespace oobp {

namespace {
// splitmix64 finalizer.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

uint64_t CandidateCache::Hash(const Genotype& genotype) {
  uint64_t h = 0x67656E6FULL;  // "geno"
  h = Mix(h ^ genotype.size());
  for (const WgradGene& g : genotype) {
    h = Mix(h ^ static_cast<uint64_t>(static_cast<uint32_t>(g.layer)));
    h = Mix(h ^ static_cast<uint64_t>(static_cast<uint32_t>(g.slot)));
    h = Mix(h ^ static_cast<uint64_t>(static_cast<uint32_t>(g.stream)));
  }
  return h;
}

const CandidateCache::Score* CandidateCache::Lookup(const Genotype& genotype) {
  return Lookup(genotype, Hash(genotype));
}

const CandidateCache::Score* CandidateCache::Lookup(const Genotype& genotype,
                                                    uint64_t hash) {
  const auto it = buckets_.find(hash);
  if (it != buckets_.end()) {
    for (const Entry& e : it->second) {
      if (e.genotype == genotype) {
        ++hits_;
        return &e.score;
      }
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
  std::vector<Entry>& bucket = buckets_[hash];
  for (const Entry& e : bucket) {
    OOBP_CHECK(!(e.genotype == genotype)) << "genotype cached twice";
  }
  bucket.push_back({genotype, score});
  ++size_;
}

}  // namespace oobp
