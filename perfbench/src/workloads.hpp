// The three workloads of the repo benchmark. Each fills `res` with its
// correctness tally and metrics: end-to-end ones untraced, per-layer ones
// (from layer-by-layer replays of the same seeded inputs) when traced.
#pragma once

#include "common.hpp"
#include "stream.hpp"

namespace perfbench {

void run_edit_stream(const RunConfig& cfg, Result& res);
/// The fixed revisions both serving workloads time with the in-process
/// sharded route for sharded_ms_p50: the 100th and 200th revisions of
/// edit_stream's grid:side=31 stream on the reference seed. A 16x16 analog
/// grid solves in about 2.8 ms, in cache, and the host probe tracks its
/// drift poorly; the 31x31 revisions (about 20 ms) it tracks.
ShardedRevisions reference_revisions(const RunConfig& cfg);
void run_file_solve(const RunConfig& cfg, Result& res);
void run_analog_reprogram(const RunConfig& cfg, Result& res);

} // namespace perfbench
