// On-disk layout of the oobp snapshot: a binary, versioned, checksummed,
// mmap-able store for the model zoo, cost-model points, precomputed ooo
// schedules, golden specs, and the perf baseline (ROADMAP "mmap snapshot
// store"; DESIGN.md §12).
//
// Layout (all little-endian, all offsets from byte 0 of the file):
//
//   +--------------------+  0
//   | SnapshotHeader     |  magic, format version, schema version,
//   |                    |  registry hash, section count, file size,
//   |                    |  table checksum
//   +--------------------+  sizeof(SnapshotHeader)
//   | SectionEntry[n]    |  kind, offset, length, payload checksum
//   +--------------------+  8-byte aligned
//   | section payloads   |  flat records + string pool, no pointers
//   |  ...               |
//   +--------------------+  header.file_size
//
// Every cross-record reference is an index or a (offset, length) pair into a
// sibling section, so the file is position-independent: one read-only
// mapping is shared by every --jobs worker with no fix-up pass. Records are
// standard-layout, explicitly padded, and 8-byte aligned so
// reinterpret_cast from an aligned mapping is well-defined (no misaligned
// loads under UBSan).
//
// Integrity story (validated in this order by SnapshotReader::Open):
//   1. size: file at least sizeof(SnapshotHeader), and == header.file_size
//      (catches truncation before any offset is trusted);
//   2. magic, then format version (a future version is reported as such,
//      not as corruption);
//   3. table checksum: XXH64 over the header (with the checksum field
//      zeroed) plus the section table — catches flipped header/table bytes;
//   4. per-section bounds and XXH64 payload checksums.
// Staleness (scenario registry changed since the build) is separate from
// corruption: the registry hash mismatching the running binary's is a clean
// "rebuild me" signal handled by ActivateSnapshot, not an Open failure.

#ifndef OOBP_SRC_STORE_FORMAT_H_
#define OOBP_SRC_STORE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <type_traits>

namespace oobp {

static_assert(std::endian::native == std::endian::little,
              "snapshot files are little-endian; big-endian hosts would need "
              "a byte-swapping reader");

// "OOBPSNP1" as a u64 (little-endian: 'O' is the lowest byte).
inline constexpr uint64_t kSnapshotMagic = 0x31504E5350424F4FULL;

// Bump when the file layout changes (header/table/record shapes). Readers
// reject any other value.
inline constexpr uint32_t kSnapshotFormatVersion = 1;

// Bump when the *meaning* of stored content changes without a layout change
// — e.g. a model-zoo builder starts producing different layer tables for
// the same cache key, or cost-model semantics shift. Folded into the
// registry hash, so a bump invalidates existing snapshots cleanly.
inline constexpr uint64_t kSnapshotSchemaVersion = 1;

enum class SectionKind : uint32_t {
  kStringPool = 1,    // raw bytes; all StrRefs point here
  kLayers = 2,        // LayerRecord[], shared pool indexed by models
  kModels = 3,        // ModelRecord[], sorted by cache key
  kCostModels = 4,    // CostModelRecord[], sorted by cache key
  kScheduleOps = 5,   // ScheduleOpRecord[], pool indexed by schedules
  kAssignedOps = 6,   // AssignedOpRecord[], pool indexed by schedules
  kSchedules = 7,     // ScheduleRecord[], sorted by key_hash
  kGoldenChecks = 8,  // GoldenCheckRecord[], pool indexed by goldens
  kGoldens = 9,       // GoldenRecord[], sorted by scenario name
  kPerfBaseline = 10, // raw bytes of bench/perf_baseline.json
};

const char* SectionKindName(SectionKind kind);

struct SnapshotHeader {
  uint64_t magic = kSnapshotMagic;
  uint32_t format_version = kSnapshotFormatVersion;
  uint32_t section_count = 0;
  // Identity of the producing binary's scenario registry + schema version;
  // see ComputeScenarioRegistryHash.
  uint64_t registry_hash = 0;
  uint64_t file_size = 0;
  // XXH64 over (header with this field zeroed) ++ section table.
  uint64_t table_checksum = 0;
};
static_assert(sizeof(SnapshotHeader) == 40);
static_assert(std::is_standard_layout_v<SnapshotHeader>);

struct SectionEntry {
  uint32_t kind = 0;  // SectionKind
  uint32_t reserved = 0;
  uint64_t offset = 0;  // from file start; 8-byte aligned
  uint64_t length = 0;  // bytes
  uint64_t checksum = 0;  // XXH64 of the payload
};
static_assert(sizeof(SectionEntry) == 32);
static_assert(std::is_standard_layout_v<SectionEntry>);

// Reference into the string-pool section. Not NUL-terminated.
struct StrRef {
  uint32_t offset = 0;
  uint32_t length = 0;
};
static_assert(sizeof(StrRef) == 8);

// One nn::Layer, doubles stored as raw bits so materialized models are
// bit-identical to the built-in-process originals.
struct LayerRecord {
  StrRef name;
  StrRef block;
  int64_t fwd_flops = 0;
  int64_t dgrad_flops = 0;
  int64_t wgrad_flops = 0;
  int64_t fwd_bytes = 0;
  int64_t dgrad_bytes = 0;
  int64_t wgrad_bytes = 0;
  double fwd_blocks = 1.0;
  double dgrad_blocks = 1.0;
  double wgrad_blocks = 1.0;
  int64_t param_bytes = 0;
  int64_t output_bytes = 0;
  int64_t stash_bytes = 0;
  int64_t workspace_bytes = 0;
  int32_t fused_ops = 1;
  int32_t pad = 0;
};
static_assert(sizeof(LayerRecord) == 128);
static_assert(std::is_standard_layout_v<LayerRecord>);

// One model-zoo entry: `key` is the model_cache cache key ("resnet:L50:B32"),
// layers are a contiguous run in the kLayers section. `content_hash` is
// ModelContentHash over every materially relevant field — the key by which
// schedules reference the model, so a zoo change orphans (never mis-serves)
// stored schedules.
struct ModelRecord {
  StrRef key;
  StrRef name;
  int32_t batch = 0;
  uint32_t layer_begin = 0;  // index into kLayers
  uint32_t layer_count = 0;
  uint32_t pad = 0;
  uint64_t content_hash = 0;
};
static_assert(sizeof(ModelRecord) == 40);
static_assert(std::is_standard_layout_v<ModelRecord>);

// One (GpuSpec, SystemProfile) cost-model point, keyed by the
// CostModelCacheKey string. Every field of both structs is stored so `oobp
// snapshot info` can print the point and tests can verify exact roundtrip.
struct CostModelRecord {
  StrRef key;
  // GpuSpec
  StrRef gpu_name;
  int32_t num_sms = 0;
  int32_t blocks_per_sm = 0;
  double fp32_tflops = 0.0;
  double mem_bandwidth_gbps = 0.0;
  int64_t mem_bytes = 0;
  int64_t kernel_exec_overhead = 0;
  // SystemProfile
  StrRef profile_name;
  double compute_efficiency = 0.0;
  double mem_efficiency = 0.0;
  int64_t issue_latency_per_op = 0;
  int64_t graph_launch_latency = 0;
  int32_t fused = 0;
  int32_t issue_queue_depth = 0;
  double allocator_overhead = 0.0;
};
static_assert(sizeof(CostModelRecord) == 112);
static_assert(std::is_standard_layout_v<CostModelRecord>);

// One ScheduledOp of an IterationSchedule.
struct ScheduleOpRecord {
  int32_t op_type = 0;  // TrainOpType
  int32_t layer = 0;
  int32_t stream = 0;
  int32_t wait_for_index = -1;
};
static_assert(sizeof(ScheduleOpRecord) == 16);

// One entry of JointScheduleResult::assigned_ops / assigned_region.
struct AssignedOpRecord {
  int32_t op_type = 0;
  int32_t layer = 0;
  int32_t region = 0;
  int32_t pad = 0;
};
static_assert(sizeof(AssignedOpRecord) == 16);

// One precomputed MakeOooSchedule output. `key_hash` is ScheduleKeyHash
// (model content hash + cost-model key + raw memory-cap factor), so a hit
// is only possible when model, hardware point, and cap all match exactly.
struct ScheduleRecord {
  uint64_t key_hash = 0;
  uint32_t op_begin = 0;  // index into kScheduleOps
  uint32_t op_count = 0;
  uint32_t assigned_begin = 0;  // index into kAssignedOps
  uint32_t assigned_count = 0;
  int32_t pre_scheduled_regions = 0;
  int32_t pad = 0;
  int64_t peak_memory = 0;
};
static_assert(sizeof(ScheduleRecord) == 40);

// Golden checks mirror runner::GoldenCheck (store cannot depend on runner;
// the runner converts). Doubles raw so comparisons are bit-equal to the
// JSON-parsed originals.
struct GoldenCheckRecord {
  StrRef key;
  uint32_t flags = 0;  // kGoldenHasExpect | kGoldenHasMin | kGoldenHasMax
  uint32_t pad = 0;
  double expect = 0.0;
  double rel_tol = 0.0;
  double abs_tol = 0.0;
  double min = 0.0;
  double max = 0.0;
};
static_assert(sizeof(GoldenCheckRecord) == 56);

inline constexpr uint32_t kGoldenHasExpect = 1u << 0;
inline constexpr uint32_t kGoldenHasMin = 1u << 1;
inline constexpr uint32_t kGoldenHasMax = 1u << 2;

struct GoldenRecord {
  StrRef scenario;
  uint32_t check_begin = 0;  // index into kGoldenChecks
  uint32_t check_count = 0;
};
static_assert(sizeof(GoldenRecord) == 16);

}  // namespace oobp

#endif  // OOBP_SRC_STORE_FORMAT_H_
