// The snapshot store is gone (DESIGN.md §12): every model, schedule, golden
// and perf baseline is built or read in process. This stub is kept only for
// perfbench/main.cc, which asserts that no snapshot is active before its
// untraced run; delete it together with that call.

#ifndef OOBP_SRC_STORE_SNAPSHOT_H_
#define OOBP_SRC_STORE_SNAPSHOT_H_

namespace oobp {

inline bool SnapshotActive() { return false; }

}  // namespace oobp

#endif  // OOBP_SRC_STORE_SNAPSHOT_H_
