// Per-layer metrics computed from the spans of a traced repetition.
//
// Everything here is simulated time.  Latency percentiles come from the
// durations of named spans (daos client ops, fabric flows, dfs ops, epoch
// commits, retry backoff).  The fdb.*_share metrics split the time of every
// top-level op span (`io`, and `pgen.read` for the serving fleet) over the
// child-span families it contains, matched per actor (node, process) by
// interval containment.  Each instant of an op goes to exactly one family,
// by priority retry > open/create > KV > Array, or to "uncovered".  So the
// five shares sum to 1.
#pragma once

#include <deque>
#include <map>
#include <string>

#include "obs/trace.h"

namespace nwsbench {

using SpanList = std::deque<nws::obs::TraceRecorder::SpanRecord>;

/// Span-derived metrics by name (units in README.md).  The share metrics are
/// present only when `shares` is set and the trace holds a top-level op span.
std::map<std::string, double> span_metrics(const SpanList& spans, bool shares);

}  // namespace nwsbench
