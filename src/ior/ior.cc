#include "ior/ior.h"

#include <memory>

#include "daos/client.h"
#include "obs/trace.h"
#include "sim/sync.h"

namespace nws::ior {

namespace {

struct RunState {
  explicit RunState(sim::Scheduler& sched, std::size_t procs)
      : initial(sched, procs), pre_io(sched, procs), post_io(sched, procs), finish(sched, procs) {}
  sim::Barrier initial;
  sim::Barrier pre_io;
  sim::Barrier post_io;
  sim::Barrier finish;
  daos::ClientStats client_stats;  // summed over processes as they finish
  bool failed = false;
  std::string failure;
};

daos::ObjectId object_for(std::uint32_t node, std::uint32_t proc, std::uint32_t iteration) {
  // File-per-process: every (node, proc, iteration) owns a distinct Array,
  // unstriped (S1), the object class of the paper's IOR runs.
  return daos::ObjectId::generate((node << 16) | proc, iteration + 1, daos::ObjectType::array,
                                  daos::ObjectClass::S1);
}

sim::Task<void> ior_process(daos::Cluster& cluster, const IorParams params, RunState& state,
                            bench::IoLog& log, std::uint32_t node, std::uint32_t proc, bool is_write) {
  daos::Client client(cluster, cluster.client_endpoint(node, proc),
                      (static_cast<std::uint64_t>(is_write) << 32) | (node << 16) | proc);
  // Trace attribution: pid = client node, tid = global rank (matching the
  // node/proc identifiers IoLog records, paper Section 5.5).
  const auto rank = static_cast<std::uint32_t>(node * params.processes_per_node + proc);
  const obs::Actor actor{node, rank};
  client.set_trace_actor(actor);
  daos::ContHandle cont = co_await client.main_cont_open();

  // a) initial barrier.
  co_await state.initial.arrive_and_wait();

  // Each I/O phase moves the object in `parts` transfers of `part_size`
  // bytes: one full-size transfer in single_shot, one per data part in
  // per_segment.
  const bool single_shot = params.scheme == TransferScheme::single_shot;
  const std::uint32_t parts = single_shot ? 1 : params.segments;
  const Bytes part_size = single_shot ? params.object_size() : params.transfer_size;

  auto fail = [&state](const std::string& why) {
    if (!state.failed) {
      state.failed = true;
      state.failure = why;
    }
  };

  for (std::uint32_t iter = 0; iter < params.iterations; ++iter) {
    // b) pre-I/O barrier: all processes start the I/O phase together.
    co_await state.pre_io.arrive_and_wait();
    const sim::TimePoint io_start = cluster.scheduler().now();
    // The "io" span covers steps c-e only (manual begin/end: the loop body's
    // scope would also include the post-I/O barriers).
    client.set_trace_iteration(iter);
    obs::TraceRecorder::Token io_span = 0;
    if (obs::TraceRecorder* tr = obs::current_trace()) {
      io_span = tr->begin("io", "io", actor, iter, static_cast<double>(params.object_size()));
    }

    // A failed run keeps every process flowing through the barriers so the
    // collective does not deadlock (as MPI-based IOR would abort together).
    bool ok = !state.failed;
    if (ok) {
      const daos::ObjectId oid = object_for(node, proc, iter);
      daos::ArrayHandle handle;
      if (is_write) {
        // c) create the object sized t*s.
        auto created = co_await client.array_create(cont, oid);
        if (created.is_ok()) {
          handle = created.value();
          // d) the transfer(s).
          for (std::uint32_t part = 0; part < parts && ok; ++part) {
            const Status written = co_await client.array_write(handle, part * part_size, nullptr, part_size);
            if (!written.is_ok()) {
              fail(written.to_string());
              ok = false;
            }
          }
        } else {
          fail(created.status().to_string());
          ok = false;
        }
      } else {
        auto opened = co_await client.array_open(cont, oid);
        if (opened.is_ok()) {
          handle = opened.value();
          for (std::uint32_t part = 0; part < parts && ok; ++part) {
            auto n = co_await client.array_read(handle, part * part_size, nullptr, part_size);
            if (!n.is_ok() || n.value() != part_size) {
              fail(n.is_ok() ? "short read" : n.status().to_string());
              ok = false;
            }
          }
        } else {
          fail(opened.status().to_string());
          ok = false;
        }
      }
      // e) close.
      if (handle.valid()) co_await client.array_close(handle);
    }
    const sim::TimePoint io_end = cluster.scheduler().now();
    if (obs::TraceRecorder* tr = obs::current_trace()) tr->end(io_span);

    // f) post-I/O barrier, g) logging.
    co_await state.post_io.arrive_and_wait();
    if (ok) log.record(node, proc, iter, io_start, io_end, params.object_size());
    // h) final barrier.
    co_await state.finish.arrive_and_wait();
  }
  state.client_stats += client.stats();
}

void run_phase(daos::Cluster& cluster, const IorParams& params, bench::IoLog& log, bool is_write,
               daos::ClientStats& client_stats, bool& failed, std::string& failure) {
  const std::size_t nodes = cluster.config().client_nodes;
  const std::size_t procs = nodes * params.processes_per_node;
  RunState state(cluster.scheduler(), procs);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    for (std::uint32_t p = 0; p < params.processes_per_node; ++p) {
      cluster.scheduler().spawn(ior_process(cluster, params, state, log, n, p, is_write));
    }
  }
  cluster.scheduler().run();
  client_stats += state.client_stats;
  if (state.failed) {
    failed = true;
    failure = state.failure;
  }
}

}  // namespace

IorResult run_ior(daos::Cluster& cluster, const IorParams& params) {
  IorResult result;
  // Access pattern A: write phase, full join (the scheduler run drains), then
  // an equivalent process set performs the read phase.
  run_phase(cluster, params, result.write_log, /*is_write=*/true, result.client_stats, result.failed,
            result.failure);
  if (!result.failed) {
    run_phase(cluster, params, result.read_log, /*is_write=*/false, result.client_stats, result.failed,
              result.failure);
  }
  return result;
}

}  // namespace nws::ior
