// In-process replays of the workload's own inputs through each layer's
// public functions, for the traced run's per-layer numbers. They run after
// the timed window, against the live table, and never feed an end-to-end
// metric.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <vector>

#include "core/bounds.h"
#include "model.h"
#include "run.h"
#include "stack.h"

namespace perfbench {

/// Adds net.row_codec_mb_per_s, core.insert_batch_us,
/// core.memtablet_insert_ns_per_row, core.query_us,
/// core.tablet_scan_rows_per_s, core.merge_cursor_rows_per_s,
/// util.crc32c_mb_per_s and util.lzmini_{compress,decompress}_mb_per_s.
/// `bounds` are point queries the run issued over the wire.
void ReplayLayers(const Fleet& fleet, Stack* stack,
                  const std::vector<lt::QueryBounds>& bounds,
                  Accounting* acct, MetricMap* layer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
