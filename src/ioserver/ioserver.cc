#include "ioserver/ioserver.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "common/table.h"

namespace nws::ioserver {

namespace {

/// One field being assembled on its I/O server: complete once every model
/// process has delivered its part.
struct PendingField {
  std::size_t parts_received = 0;
  Bytes bytes = 0;
};

/// Per-server inbox: model processes deliver parts; the server coroutine
/// stores the fields they complete.
struct ServerState {
  explicit ServerState(sim::Scheduler& sched) : wakeup(sched) {}
  std::deque<std::size_t> ready;  // complete fields, indices into PipelineState::fields
  sim::Gate wakeup;
  bool producers_done = false;
  std::size_t outstanding = 0;  // fields not yet stored
};

struct PipelineState {
  PipelineState(sim::Scheduler& sched, std::size_t servers, std::size_t producers)
      : producers_remaining(sched, producers), servers_remaining(sched, servers) {
    for (std::size_t i = 0; i < servers; ++i) {
      server_states.push_back(std::make_unique<ServerState>(sched));
    }
  }
  std::vector<std::unique_ptr<ServerState>> server_states;
  std::vector<PendingField> fields;  // indexed by step * fields_per_step + field
  std::vector<std::size_t> stored_per_step;  // commit_steps: fields landed per step
  sim::CountDownLatch producers_remaining;
  sim::CountDownLatch servers_remaining;
  PipelineResult result;
  sim::TimePoint start = 0;
  std::function<void()> on_done;
};

std::size_t server_for_field(std::uint32_t step, std::uint32_t field, std::size_t servers) {
  return (static_cast<std::size_t>(step) * 131 + field) % servers;
}

/// A model process: for every field of every step, sends its grid slice to
/// the field's designated I/O server over the fabric.  The first
/// `field_size % model_processes` ranks carry one byte more, so the parts
/// add up to the whole field.
sim::Task<void> model_process(daos::Cluster& cluster, const PipelineConfig cfg, PipelineState& state,
                              std::size_t rank) {
  // Model processes occupy client-node process slots above the I/O servers.
  const std::size_t nodes = cluster.config().client_nodes;
  const net::Endpoint self =
      cluster.client_endpoint((cfg.io_servers + rank) % nodes, (cfg.io_servers + rank) / nodes);
  const Bytes part = cfg.field_size / cfg.model_processes +
                     (rank < cfg.field_size % cfg.model_processes ? 1 : 0);

  for (std::uint32_t step = 0; step < cfg.steps; ++step) {
    for (std::uint32_t f = 0; f < cfg.fields_per_step; ++f) {
      const std::size_t server_index = server_for_field(step, f, cfg.io_servers);
      const net::Endpoint server =
          cluster.client_endpoint(server_index % nodes, server_index / nodes);
      // Low-latency interconnect transfer of this process's slice.
      auto path = cluster.topology().path(self, server);
      co_await cluster.flows().transfer(std::move(path), part,
                                        cluster.config().provider.stream_rate_cap(part));

      // Deliver the part into the server's inbox.
      ServerState& inbox = *state.server_states[server_index];
      const std::size_t slot = static_cast<std::size_t>(step) * cfg.fields_per_step + f;
      PendingField& pending = state.fields[slot];
      if (pending.parts_received++ == 0) ++inbox.outstanding;
      pending.bytes += part;
      ++state.result.parts_received;
      if (pending.parts_received == cfg.model_processes) {
        inbox.ready.push_back(slot);
        inbox.wakeup.open();
      }
    }
  }
  state.producers_remaining.count_down();
}

/// An I/O server: assembles fields, encodes them, stores them via FieldIo.
sim::Task<void> io_server(daos::Cluster& cluster, const PipelineConfig cfg, PipelineState& state,
                          std::size_t index) {
  const std::size_t nodes = cluster.config().client_nodes;
  daos::Client client(cluster, cluster.client_endpoint(index % nodes, index / nodes),
                      0x5000u + index);
  fdb::FieldIoConfig fcfg;
  fcfg.mode = cfg.mode;
  fcfg.array_class = cfg.array_class;
  fdb::FieldIo io(client, fcfg, static_cast<std::uint32_t>(0x5000u + index));
  (co_await io.init()).expect_ok("io server init");

  ServerState& inbox = *state.server_states[index];
  while (true) {
    if (inbox.ready.empty()) {
      if (inbox.producers_done && inbox.outstanding == 0) break;
      inbox.wakeup.close();
      co_await inbox.wakeup.wait();
      continue;
    }
    const std::size_t slot = inbox.ready.front();
    inbox.ready.pop_front();
    const auto step = static_cast<std::uint32_t>(slot / cfg.fields_per_step);
    const Bytes bytes = state.fields[slot].bytes;

    // GRIB encoding cost (CPU-bound on the server process).
    co_await cluster.scheduler().delay(
        sim::transfer_time(static_cast<double>(bytes), cfg.encode_rate));

    const sim::TimePoint t0 = cluster.scheduler().now();
    const fdb::FieldKey key =
        pipeline_key(step, static_cast<std::uint32_t>(slot % cfg.fields_per_step));
    const Status stored = co_await io.write(key, nullptr, bytes);
    if (!stored.is_ok()) {
      if (!state.result.failed) {
        state.result.failed = true;
        state.result.failure = stored.to_string();
      }
      --inbox.outstanding;
      continue;
    }
    state.result.store_log.record(0, static_cast<std::uint32_t>(index), step, t0,
                                  cluster.scheduler().now(), bytes);
    ++state.result.fields_stored;
    --inbox.outstanding;
    if (cfg.on_field_stored) cfg.on_field_stored(key, bytes);
    if (cfg.commit_steps && ++state.stored_per_step[step] == cfg.fields_per_step) {
      // This server stored the step's last field: publish the forecast so
      // consumers can pin everything up to and including this step.
      auto committed = co_await io.commit(key);
      if (!committed.is_ok()) {
        if (!state.result.failed) {
          state.result.failed = true;
          state.result.failure = "step commit failed: " + committed.status().to_string();
        }
      } else {
        ++state.result.steps_committed;
        if (cfg.on_step_committed) cfg.on_step_committed(step, committed.value());
      }
    }
  }
  state.result.client_stats += client.stats();
  state.result.field_stats += io.stats();
  state.servers_remaining.count_down();
}

/// Signals server shutdown once every model process has finished producing.
sim::Task<void> conductor(PipelineState& state) {
  co_await state.producers_remaining.wait();
  for (auto& server : state.server_states) {
    server->producers_done = true;
    server->wakeup.open();
  }
}

/// Joins the I/O servers: seals the result and fires the completion hook.
sim::Task<void> pipeline_watcher(daos::Cluster& cluster, PipelineState& state) {
  co_await state.servers_remaining.wait();
  state.result.makespan = cluster.scheduler().now() - state.start;
  if (state.on_done) state.on_done();
}

}  // namespace

fdb::FieldKey pipeline_key(std::uint32_t step, std::uint32_t field) {
  fdb::FieldKey key;
  key.set("class", "od").set("stream", "oper").set("date", "20260705").set("time", "0000");
  key.set("step", std::to_string(step));
  key.set("param", std::to_string(field));
  return key;
}

struct PipelineRun::Impl {
  Impl(daos::Cluster& run_cluster, PipelineConfig run_config)
      : cluster(run_cluster),
        config(std::move(run_config)),
        state(run_cluster.scheduler(), std::max<std::size_t>(1, config.io_servers),
              std::max<std::size_t>(1, config.model_processes)) {}
  daos::Cluster& cluster;
  PipelineConfig config;
  PipelineState state;
  bool spawned = false;
};

PipelineRun::PipelineRun(daos::Cluster& cluster, PipelineConfig config)
    : impl_(std::make_unique<Impl>(cluster, std::move(config))) {}

PipelineRun::~PipelineRun() = default;

Status PipelineRun::spawn(std::function<void()> on_done) {
  if (impl_->spawned) throw std::logic_error("PipelineRun::spawn called twice");
  const PipelineConfig& config = impl_->config;
  if (config.io_servers == 0 || config.model_processes == 0) {
    return Status::error(Errc::invalid,
                         "pipeline needs at least one model process and one I/O server");
  }
  if (config.field_size / config.model_processes == 0) {
    return Status::error(Errc::invalid, "field size smaller than one part per model process");
  }
  impl_->spawned = true;
  daos::Cluster& cluster = impl_->cluster;
  PipelineState& state = impl_->state;
  state.stored_per_step.assign(config.steps, 0);
  state.fields.assign(static_cast<std::size_t>(config.steps) * config.fields_per_step, {});
  state.on_done = std::move(on_done);
  state.start = cluster.scheduler().now();
  for (std::size_t s = 0; s < config.io_servers; ++s) {
    cluster.scheduler().spawn(io_server(cluster, config, state, s));
  }
  for (std::size_t m = 0; m < config.model_processes; ++m) {
    cluster.scheduler().spawn(model_process(cluster, config, state, m));
  }
  cluster.scheduler().spawn(conductor(state));
  cluster.scheduler().spawn(pipeline_watcher(cluster, state));
  return Status::ok();
}

PipelineResult& PipelineRun::result() { return impl_->state.result; }

PipelineResult run_pipeline(daos::Cluster& cluster, const PipelineConfig& config) {
  PipelineRun run(cluster, config);
  const Status spawned = run.spawn();
  if (!spawned.is_ok()) {
    PipelineResult bad;
    bad.failed = true;
    bad.failure = spawned.message();
    return bad;
  }
  cluster.scheduler().run();
  return std::move(run.result());
}

}  // namespace nws::ioserver
