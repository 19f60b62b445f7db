// Content-addressed cache of analytic candidate scores (DESIGN.md §14).
//
// The local-search trajectories revisit genotypes constantly — greedy sweeps
// re-try the same moves every pass, and random walks frequently undo a step
// — so the search memoizes Tier-A results per genotype. The key is the
// full genotype content; a 64-bit mix of that content indexes the entries
// and an exact key comparison guards against collisions, so a hit is
// guaranteed to return the bit-identical score the cold evaluation
// produced. Rejections (memory cap) are cached too, as ScheduleEvaluator-
// style sentinel times, so a revisited infeasible candidate costs one
// lookup instead of a memory walk.
//
// Layout. Every genotype of one search has the same layer sequence, so the
// first genotype the cache sees fixes it, and a key stores only the
// variable part: one uint16_t word per gene, `slot << 1 | stream`. Packed
// keys and their scores are appended to fixed-size blocks (64 KiB of key
// words each) that are never reallocated, so the cache grows without ever
// holding two copies of itself and score pointers stay valid for its
// lifetime. An open-addressing table of {hash, entry} (linear probing,
// load <= 1/2) indexes the entries. For densenet121 (121 genes) an entry
// holds 242 B of key, 16 B of score and 32-64 B of table: 0.30-0.32 KB
// measured at 1k-10k entries, against 1.58 KB for a hash map of genotype
// vectors.
//
// The cache never evicts: a search trajectory touches at most
// budget + O(genes * sweeps) genotypes, and determinism is simpler to argue
// when a score, once computed, is the score forever. Each trajectory owns a
// private cache (no sharing across threads), which keeps the parallel
// portfolio byte-identical at any thread count.
//
// Every search uses the cache; whether a hit costs budget is
// SearchOptions::free_cache_hits.

#ifndef OOBP_SRC_SEARCH_CANDIDATE_CACHE_H_
#define OOBP_SRC_SEARCH_CANDIDATE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/time.h"
#include "src/search/search.h"

namespace oobp {

class CandidateCache {
 public:
  struct Score {
    TimeNs time = 0;       // analytic iteration time, or the reject sentinel
    int64_t peak = 0;      // activation-memory peak
  };

  // Returns the cached score or nullptr; counts a hit or a miss. The
  // pointer stays valid for the cache's lifetime. A genotype whose layer
  // sequence differs from the first one the cache saw is a miss. The
  // two-argument form takes the precomputed content hash so the miss path
  // can reuse it for Insert instead of rehashing the genotype.
  const Score* Lookup(const Genotype& genotype);
  const Score* Lookup(const Genotype& genotype, uint64_t hash);

  // Inserts a score for `genotype`; the genotype must have the cache's
  // layer sequence and must not already be cached (every miss is evaluated
  // exactly once). `hash` must equal Hash(genotype).
  void Insert(const Genotype& genotype, Score score);
  void Insert(const Genotype& genotype, Score score, uint64_t hash);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  size_t size() const { return size_; }

  // Deterministic 64-bit hash of a genotype's packed words (indexing only;
  // entries always compare the full key). Every gene must have a slot in
  // [0, 32768) and a stream in {0, 1}.
  static uint64_t Hash(const Genotype& genotype);

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kBlockBytes = 64 * 1024;

  // One table cell; entry == kEmpty marks a free cell.
  struct Cell {
    uint64_t hash = 0;
    uint32_t entry = kEmpty;
  };
  // Entries whose packed keys fill kBlockBytes of key words.
  struct Block {
    std::unique_ptr<uint16_t[]> keys;
    std::unique_ptr<Score[]> scores;
  };
  // Packs `genotype` into key_, fixing the layer sequence on first use;
  // false if the layer sequence differs.
  bool Pack(const Genotype& genotype);
  uint16_t* KeyAt(uint32_t entry) const;
  Score* ScoreAt(uint32_t entry) const;
  // The cell holding key_ under `hash`, or else the empty cell that ends
  // its probe sequence. The table must be non-empty.
  size_t Probe(uint64_t hash) const;
  // Doubles the table and re-indexes every entry by its stored hash.
  void Grow();

  std::optional<std::vector<int>> layers_;  // gene i's layer
  std::vector<uint16_t> key_;               // scratch: the packed key
  size_t entries_per_block_ = 0;
  std::vector<Block> blocks_;
  std::vector<Cell> table_;  // power-of-two size, or empty
  size_t size_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_CANDIDATE_CACHE_H_
