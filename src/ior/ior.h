// IOR benchmark clone, DAOS back-end, segments mode.
//
// Reproduces the configuration of paper Section 5.1: every client process
// performs, per repetition,
//
//   a) initial barrier, b) pre-I/O barrier, c) object create/open of
//   t*s bytes, d) a single transfer of t*s bytes, e) object close,
//   f) post-I/O barrier, g) post-I/O processing/logging, h) final barrier
//
// with -b == -t (block == transfer size), -s segments, -i repetitions and
// -F (file per process: each process owns its Array).  In this mode "each
// client process performs a single I/O operation, transferring its full
// data size" — the maximum-throughput pattern of a well-optimised parallel
// application.  The run implements access pattern A: a write phase, a full
// join, then a read phase by an equivalent process set.
//
// "I/O start" is equivalent to object-open start for IOR (Section 5.5), so
// per-iteration times include create/open and close.
#pragma once

#include <cstdint>

#include "daos/client.h"
#include "daos/cluster.h"
#include "obs/io_log.h"

namespace nws::ior {

/// How each process moves its data (paper 5.1):
///   single_shot — one transfer of the full t*s bytes, "a hypothetical
///                 parallel application designed to minimise the number of
///                 I/O operations" (the paper's segments-mode setup);
///   per_segment — one transfer per segment, "an equivalent, non-optimised
///                 application where processes issue a transfer operation
///                 for each data part".
enum class TransferScheme {
  single_shot,
  per_segment,
};

struct IorParams {
  Bytes transfer_size = 1_MiB;  // -t (and -b: block == transfer)
  std::uint32_t segments = 100;  // -s: object size = t * s
  std::uint32_t iterations = 1;  // -i
  std::size_t processes_per_node = 24;
  TransferScheme scheme = TransferScheme::single_shot;

  [[nodiscard]] Bytes object_size() const { return transfer_size * segments; }
};

struct IorResult {
  bench::IoLog write_log;
  bench::IoLog read_log;
  /// DAOS client counters summed over every process of both phases.
  daos::ClientStats client_stats;
  bool failed = false;
  std::string failure;
};

/// Runs the benchmark on `cluster` (all its client nodes), driving the
/// scheduler to completion.  One call = one access-pattern-A execution
/// (write phase then read phase) of `iterations` repetitions each.
IorResult run_ior(daos::Cluster& cluster, const IorParams& params);

}  // namespace nws::ior
