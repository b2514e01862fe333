// The traced run: the workload's first statements, replayed in-process
// with a span around each call into a layer's public function. Gives
// the per-layer self times the served run cannot see, plus two
// accounting figures: the share of Session::Execute wall time no layer
// span covers, and the cost of tracing itself.
#ifndef SERVEBENCH_TRACED_H_
#define SERVEBENCH_TRACED_H_

#include <map>
#include <string>

#include "workloads.h"

namespace servebench {

/// Replays the first `statements` requests of connection 0's stream.
/// `scratch_dir` holds the durable workload's WAL directories; the
/// spans are written to `trace_json_path` as Chrome trace_event JSON.
/// Adds the per-layer metrics to `*metrics`. False on any failed call.
bool RunTraced(const Workload& workload, size_t statements,
               const std::string& scratch_dir,
               const std::string& trace_json_path,
               std::map<std::string, double>* metrics, std::string* error);

}  // namespace servebench

#endif  // SERVEBENCH_TRACED_H_
