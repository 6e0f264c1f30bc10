#include "pgen/serving.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "fdb/catalogue.h"
#include "obs/trace.h"
#include "sim/sync.h"

namespace nws::pgen {

namespace {

/// First per-node process slot the consumers occupy (kept clear of the
/// write pipeline's io-server and model-process slots).
constexpr std::size_t kProcessSlotBase = 256;
/// Client jitter-stream salt base (consumer idx is added).
constexpr std::uint64_t kClientSaltBase = 0x7000u;

/// One distinct expected field: its key, the key's canonical rendering (made
/// once; the fleet's lookup key and the node caches' key) and whether
/// discovery has announced it yet.
struct FieldRecord {
  fdb::FieldKey key;
  std::string canonical;
  bool announced = false;
};

/// One entry of the announce log: the released field's record, its stored
/// size and, with snapshot_reads, the publication epoch consumers pin while
/// reading it (kEpochLatest: live read).
struct Announcement {
  const FieldRecord* field = nullptr;
  Bytes size = 0;
  daos::Epoch epoch = daos::kEpochLatest;
};

/// Per-client-node shared serving state: one cache and one admission
/// controller for every consumer placed on that node.
struct NodeState {
  NodeState(sim::Scheduler& sched, const ServingConfig& cfg)
      : cache(sched, cfg.cache), admission(sched, cfg.admission, cfg.consumers) {}
  FieldCache cache;
  AdmissionController admission;
};

}  // namespace

struct ConsumerFleet::Impl {
  Impl(daos::Cluster& cluster_in, ServingConfig cfg_in, std::vector<fdb::FieldKey> expected)
      : cluster(cluster_in),
        cfg(std::move(cfg_in)),
        announce_gate(cluster.scheduler()),
        consumers_remaining(cluster.scheduler(), cfg.consumers) {
    fields.reserve(expected.size());  // never reallocates: the lookups below point into it
    for (fdb::FieldKey& key : expected) {
      std::string canonical = key.canonical();
      if (by_canonical.contains(canonical)) continue;
      FieldRecord& field = fields.emplace_back(FieldRecord{std::move(key), std::move(canonical)});
      by_canonical.emplace(field.canonical, &field);
      expected_by_forecast[field.key.most_significant()].emplace(field.key.least_significant(),
                                                                 &field);
    }
  }

  daos::Cluster& cluster;
  ServingConfig cfg;

  // The expected set: one record per distinct field, built above and never
  // grown afterwards.  Everything else refers to the records.
  std::vector<FieldRecord> fields;
  std::unordered_map<std::string_view, FieldRecord*> by_canonical;
  /// forecast (most-significant rendering) -> least-significant rendering
  /// -> record: what the catalogue poller matches listings against.
  std::map<std::string, std::map<std::string, FieldRecord*>> expected_by_forecast;

  // Discovery: each record is appended to `announced` exactly once (dedup
  // over the notification channel and the poller by its announced flag);
  // consumers walk the log with private cursors and park on the gate when
  // they catch up.
  std::vector<Announcement> announced;
  /// snapshot_reads: fields stored but not yet covered by a step commit —
  /// released to `announced` (stamped with the publication epoch) by
  /// notify_committed.
  std::vector<Announcement> pending_commit;
  sim::Gate announce_gate;
  bool discovery_closed = false;
  bool writer_done = false;
  bool poller_active = false;

  std::vector<std::unique_ptr<NodeState>> nodes;
  sim::CountDownLatch consumers_remaining;
  sim::TimePoint start = 0;
  bool spawned = false;
  bool done = false;
  std::function<void()> on_done;
  ServingResult result;
};

namespace {

using Impl = ConsumerFleet::Impl;

void note_failure(Impl& st, std::string why) {
  st.result.failed = true;
  if (st.result.failure.empty()) st.result.failure = std::move(why);
}

/// Ends discovery (normally or on failure) and releases parked consumers.
void close_discovery(Impl& st) {
  st.discovery_closed = true;
  st.announce_gate.open();
}

/// Releases a field to the consumers.  Closes discovery once the whole
/// expected set has been released.
void publish(Impl& st, Announcement entry) {
  st.announced.push_back(entry);
  st.announce_gate.open();
  if (st.announced.size() == st.fields.size()) close_discovery(st);
}

/// Records that an expected field landed; returns true when it was new.  In
/// snapshot_reads mode the field is held back until its step commits
/// (notify_committed publishes it); otherwise it is released immediately.
bool announce(Impl& st, FieldRecord& field, Bytes size) {
  if (st.discovery_closed || field.announced) return false;
  field.announced = true;
  if (st.cfg.snapshot_reads) {
    st.pending_commit.push_back(Announcement{&field, size});
  } else {
    publish(st, Announcement{&field, size});
  }
  return true;
}

/// The write path finished and no poller will arbitrate: any still-missing
/// field can no longer appear (notifications fire before producers_done), so
/// declare the shortfall instead of leaving consumers parked forever.
void close_without_poller(Impl& st) {
  if (st.discovery_closed) return;
  const std::size_t missing = st.fields.size() - st.announced.size();
  note_failure(st, "write pipeline finished but " + std::to_string(missing) +
                       " expected field(s) never landed");
  close_discovery(st);
}

/// Catalogue polling loop: discovers landed fields by listing the expected
/// forecasts every poll_interval.  Once the writer reports done, a pass that
/// finds nothing new is authoritative — remaining fields will never land.
sim::Task<void> poller(Impl& st) {
  sim::Scheduler& sched = st.cluster.scheduler();
  const std::size_t slot = kProcessSlotBase + st.cfg.consumers;
  daos::Client client(st.cluster, st.cluster.client_endpoint(0, slot),
                      kClientSaltBase + 0xFFFFu);
  client.set_trace_actor(obs::Actor{static_cast<std::uint32_t>(st.cluster.client_topology_node(0)),
                                    static_cast<std::uint32_t>(slot)});
  fdb::Catalogue catalogue(client, st.cfg.field_io);
  const Status init = co_await catalogue.init();
  if (!init.is_ok()) {
    st.poller_active = false;
    if (st.cfg.use_notifications) {
      // The notification channel carries discovery (e.g. no-index mode keeps
      // no catalogue); if the writer already finished, arbitrate now.
      if (st.writer_done) close_without_poller(st);
    } else {
      note_failure(st, "catalogue poller failed to initialise: " + init.to_string());
      close_discovery(st);
    }
    st.result.client_stats += client.stats();
    co_return;
  }
  while (!st.discovery_closed) {
    const bool writer_was_done = st.writer_done;
    co_await sched.delay(st.cfg.poll_interval);
    if (st.discovery_closed) break;
    ++st.result.polls;
    bool found_new = false;
    bool listing_failed = false;
    {
      const obs::Span span("pgen.poll", "pgen", client.trace_actor());
      for (const auto& [forecast, fields] : st.expected_by_forecast) {
        auto listed = co_await catalogue.list_fields(forecast);
        if (!listed.is_ok()) {
          if (listed.status().code() == Errc::not_found) continue;  // forecast not written yet
          note_failure(st, "catalogue poll failed: " + listed.status().to_string());
          listing_failed = true;
          break;
        }
        for (const fdb::FieldEntry& entry : listed.value()) {
          const auto match = fields.find(entry.field_key);
          if (match == fields.end()) continue;
          if (announce(st, *match->second, entry.size)) found_new = true;
        }
      }
    }
    if (listing_failed || st.discovery_closed) break;
    if (writer_was_done && !found_new) {
      const std::size_t missing = st.fields.size() - st.announced.size();
      note_failure(st, "write pipeline finished but " + std::to_string(missing) +
                           " expected field(s) never appeared in the catalogue");
      break;
    }
  }
  st.poller_active = false;
  if (!st.discovery_closed) close_discovery(st);
  st.result.client_stats += client.stats();
}

/// One consumer request: cache lookup with a single-flight, admission-gated
/// DAOS read as the miss path.
sim::Task<void> read_one(Impl& st, NodeState& local, fdb::FieldIo& io, daos::Client& client,
                         std::size_t idx, const FieldRecord& field, Bytes size,
                         daos::Epoch epoch) {
  sim::Scheduler& sched = st.cluster.scheduler();
  const obs::Span span("pgen.read", "pgen", client.trace_actor(), 0, static_cast<double>(size));
  const FieldCache::Outcome outcome = co_await local.cache.get_or_fetch(
      field.canonical, [&]() -> sim::Task<Result<Bytes>> {
        co_await local.admission.acquire(idx);
        const sim::TimePoint t0 = sched.now();
        const std::uint64_t retries_before = io.stats().retries;
        // Time-travel read: pin the field's publication epoch so the read
        // observes the committed snapshot, not in-flight writes.  A retired
        // pin (retention overtook the epoch) or disabled snapshots degrade
        // to a live read, counted as a fallback.
        bool pinned = false;
        if (st.cfg.snapshot_reads && epoch != daos::kEpochLatest) {
          auto pin = co_await io.pin_snapshot(field.key, epoch);
          if (pin.is_ok()) {
            pinned = true;
          } else if (pin.status().code() != Errc::not_found &&
                     pin.status().code() != Errc::unsupported) {
            local.admission.release();
            co_return pin.status();
          }
        }
        Result<Bytes> read = co_await io.read(field.key, nullptr, size);
        if (pinned) (co_await io.unpin_snapshot(field.key)).expect_ok("serving unpin");
        if (read.is_ok()) {
          st.result.read_log.record(client.trace_actor().node, static_cast<std::uint32_t>(idx), 0,
                                    t0, sched.now(), read.value(),
                                    static_cast<std::uint32_t>(io.stats().retries - retries_before));
          if (st.cfg.snapshot_reads) {
            if (pinned) {
              ++st.result.snapshot_reads;
            } else {
              ++st.result.snapshot_fallbacks;
            }
          }
        }
        local.admission.release();
        co_return read;
      });
  if (!outcome.status.is_ok()) {
    note_failure(st, "read of " + field.canonical + " failed: " + outcome.status.to_string());
    co_return;
  }
  {
    // Zero-duration marker spans: cache effectiveness is visible on the
    // timeline next to the enclosing pgen.read span.
    const bool served_without_read = outcome.source != FieldCache::Source::fetched;
    const obs::Span marker(served_without_read ? "cache.hit" : "cache.miss", "pgen",
                           client.trace_actor(), 0, static_cast<double>(outcome.size));
  }
  ++st.result.fields_served;
  st.result.bytes_served += outcome.size;
  ++st.result.reads_per_consumer[idx];
}

/// One product worker: follows the announced-field log, reading every field
/// once through the node-shared cache; parks on the gate when caught up.
sim::Task<void> consumer(Impl& st, std::size_t idx) {
  const std::size_t node = idx % st.cluster.config().client_nodes;
  const std::size_t slot = kProcessSlotBase + idx / st.cluster.config().client_nodes;
  daos::Client client(st.cluster, st.cluster.client_endpoint(node, slot),
                      kClientSaltBase + idx);
  client.set_trace_actor(
      obs::Actor{static_cast<std::uint32_t>(st.cluster.client_topology_node(node)),
                 static_cast<std::uint32_t>(kProcessSlotBase + idx)});
  fdb::FieldIo io(client, st.cfg.field_io,
                  static_cast<std::uint32_t>(kClientSaltBase + idx));
  const Status init = co_await io.init();
  if (!init.is_ok()) {
    note_failure(st, "consumer " + std::to_string(idx) +
                         " failed to initialise: " + init.to_string());
  } else {
    NodeState& local = *st.nodes[node];
    std::size_t cursor = 0;
    while (true) {
      if (cursor == st.announced.size()) {
        if (st.discovery_closed) break;
        // No co_await between the emptiness check and the wait, so no
        // announcement can slip past the closed gate.
        st.announce_gate.close();
        co_await st.announce_gate.wait();
        continue;
      }
      const Announcement entry = st.announced[cursor];  // copy: the log may reallocate
      ++cursor;
      co_await read_one(st, local, io, client, idx, *entry.field, entry.size, entry.epoch);
    }
  }
  st.result.client_stats += client.stats();
  st.result.field_stats += io.stats();
  st.consumers_remaining.count_down();
}

/// Folds the per-node cache/admission stats into the result once the last
/// consumer drains, then reports completion.
sim::Task<void> fleet_watcher(Impl& st) {
  co_await st.consumers_remaining.wait();
  for (const auto& node : st.nodes) {
    const CacheStats& c = node->cache.stats();
    st.result.cache.hits += c.hits;
    st.result.cache.misses += c.misses;
    st.result.cache.coalesced += c.coalesced;
    st.result.cache.evictions += c.evictions;
    st.result.cache.bytes_evicted += c.bytes_evicted;
    st.result.cache.resident_bytes += c.resident_bytes;
    st.result.cache.peak_resident_bytes =
        std::max(st.result.cache.peak_resident_bytes, c.peak_resident_bytes);
    const AdmissionStats& a = node->admission.stats();
    st.result.admission.admitted += a.admitted;
    st.result.admission.queued += a.queued;
    st.result.admission.peak_queued = std::max(st.result.admission.peak_queued, a.peak_queued);
    for (const double wait : a.wait_seconds.samples()) {
      st.result.admission.wait_seconds.add(wait);
    }
    const std::vector<std::uint64_t>& admitted = node->admission.admitted_per_consumer();
    for (std::size_t i = 0; i < admitted.size(); ++i) {
      st.result.admitted_per_consumer[i] += admitted[i];
    }
  }
  st.result.makespan = st.cluster.scheduler().now() - st.start;
  st.done = true;
  if (st.on_done) st.on_done();
}

}  // namespace

ConsumerFleet::ConsumerFleet(daos::Cluster& cluster, ServingConfig config,
                             std::vector<fdb::FieldKey> expected)
    : impl_(std::make_unique<Impl>(cluster, std::move(config), std::move(expected))) {}

ConsumerFleet::~ConsumerFleet() = default;

Status ConsumerFleet::spawn(std::function<void()> on_done) {
  Impl& st = *impl_;
  if (st.spawned) throw std::logic_error("ConsumerFleet::spawn called twice");
  if (st.cfg.poll_interval <= 0) {
    return Status::error(Errc::invalid, "serving poll interval must be positive");
  }
  if (st.cfg.field_io.mode == fdb::Mode::no_index && !st.cfg.use_notifications) {
    return Status::error(Errc::invalid,
                         "catalogue polling cannot discover fields in no-index mode; "
                         "enable notifications");
  }
  if (st.cfg.snapshot_reads && !st.cfg.use_notifications) {
    return Status::error(Errc::invalid,
                         "snapshot_reads needs the notification channel: step commits "
                         "(notify_committed) carry the publication epochs");
  }
  st.spawned = true;
  st.on_done = std::move(on_done);
  st.start = st.cluster.scheduler().now();
  st.result.reads_per_consumer.assign(st.cfg.consumers, 0);
  st.result.admitted_per_consumer.assign(st.cfg.consumers, 0);
  if (st.cfg.consumers == 0 || st.fields.empty()) {
    // Nothing to serve: complete immediately (the contention bench's
    // consumers=0 baseline rows take this path).
    st.discovery_closed = true;
    st.done = true;
    if (st.on_done) st.on_done();
    return Status::ok();
  }
  st.nodes.reserve(st.cluster.config().client_nodes);
  for (std::size_t n = 0; n < st.cluster.config().client_nodes; ++n) {
    st.nodes.push_back(std::make_unique<NodeState>(st.cluster.scheduler(), st.cfg));
  }
  sim::Scheduler& sched = st.cluster.scheduler();
  for (std::size_t idx = 0; idx < st.cfg.consumers; ++idx) {
    sched.spawn(consumer(st, idx));
  }
  st.poller_active = true;
  sched.spawn(poller(st));
  sched.spawn(fleet_watcher(st));
  return Status::ok();
}

void ConsumerFleet::notify(const fdb::FieldKey& key, Bytes size) {
  Impl& st = *impl_;
  if (!st.spawned || st.done || !st.cfg.use_notifications) return;
  const auto field = st.by_canonical.find(key.canonical());
  if (field == st.by_canonical.end()) return;  // not ours (chained hook)
  if (announce(st, *field->second, size)) ++st.result.notified_fields;
}

void ConsumerFleet::notify_committed(std::uint32_t step, daos::Epoch epoch) {
  Impl& st = *impl_;
  if (!st.spawned || st.done || !st.cfg.snapshot_reads) return;
  (void)step;  // informational: the commit covers everything stored before it
  ++st.result.steps_published;
  std::vector<Announcement> released = std::move(st.pending_commit);
  st.pending_commit.clear();
  for (Announcement& entry : released) {
    if (st.discovery_closed) break;
    entry.epoch = epoch;
    publish(st, entry);
  }
}

void ConsumerFleet::producers_done() {
  Impl& st = *impl_;
  st.writer_done = true;
  if (st.spawned && !st.poller_active) close_without_poller(st);
}

ServingResult& ConsumerFleet::result() { return impl_->result; }

obs::MetricsSnapshot serving_metrics(const ServingResult& serving) {
  obs::MetricsSnapshot m;
  m.counter("pgen.fields_served", static_cast<double>(serving.fields_served));
  m.counter("pgen.bytes_served", static_cast<double>(serving.bytes_served));
  m.counter("pgen.polls", static_cast<double>(serving.polls));
  m.counter("pgen.notified_fields", static_cast<double>(serving.notified_fields));
  if (serving.steps_published > 0 || serving.snapshot_reads > 0 || serving.snapshot_fallbacks > 0) {
    m.counter("pgen.steps_published", static_cast<double>(serving.steps_published));
    m.counter("pgen.snapshot_reads", static_cast<double>(serving.snapshot_reads));
    m.counter("pgen.snapshot_fallbacks", static_cast<double>(serving.snapshot_fallbacks));
  }
  m.counter("cache.hits", static_cast<double>(serving.cache.hits));
  m.counter("cache.misses", static_cast<double>(serving.cache.misses));
  m.counter("cache.coalesced", static_cast<double>(serving.cache.coalesced));
  m.counter("cache.evictions", static_cast<double>(serving.cache.evictions));
  m.counter("cache.bytes_evicted", static_cast<double>(serving.cache.bytes_evicted));
  m.gauge("cache.peak_resident_bytes", static_cast<double>(serving.cache.peak_resident_bytes));
  m.counter("admission.admitted", static_cast<double>(serving.admission.admitted));
  m.counter("admission.queued", static_cast<double>(serving.admission.queued));
  m.gauge("admission.peak_queued", static_cast<double>(serving.admission.peak_queued));
  if (!serving.admission.wait_seconds.empty()) {
    m.histogram("admission.wait_seconds", serving.admission.wait_seconds);
  }
  m.gauge("pgen.makespan_seconds", sim::to_seconds(serving.makespan));
  return m;
}

ContentionResult run_write_read_contention(daos::Cluster& cluster, ioserver::PipelineConfig write,
                                           const ServingConfig& serve) {
  ContentionResult out;
  std::vector<fdb::FieldKey> expected;
  expected.reserve(static_cast<std::size_t>(write.steps) * write.fields_per_step);
  for (std::uint32_t step = 0; step < write.steps; ++step) {
    for (std::uint32_t field = 0; field < write.fields_per_step; ++field) {
      expected.push_back(ioserver::pipeline_key(step, field));
    }
  }
  ConsumerFleet fleet(cluster, serve, std::move(expected));
  if (serve.use_notifications) {
    auto chained = std::move(write.on_field_stored);
    ConsumerFleet* fleet_ptr = &fleet;
    write.on_field_stored = [fleet_ptr, chained = std::move(chained)](const fdb::FieldKey& key,
                                                                     Bytes size) {
      if (chained) chained(key, size);
      fleet_ptr->notify(key, size);
    };
  }
  if (serve.snapshot_reads) {
    // Time-travel serving needs the write path to publish steps.
    write.commit_steps = true;
    auto chained = std::move(write.on_step_committed);
    ConsumerFleet* fleet_ptr = &fleet;
    write.on_step_committed = [fleet_ptr, chained = std::move(chained)](std::uint32_t step,
                                                                       daos::Epoch epoch) {
      if (chained) chained(step, epoch);
      fleet_ptr->notify_committed(step, epoch);
    };
  }
  ioserver::PipelineRun pipeline(cluster, std::move(write));
  const sim::TimePoint start = cluster.scheduler().now();
  ConsumerFleet* fleet_ptr = &fleet;
  const Status write_spawned = pipeline.spawn([fleet_ptr] { fleet_ptr->producers_done(); });
  if (!write_spawned.is_ok()) {
    // Nothing was registered on the scheduler; report and bail.
    out.pipeline.failed = true;
    out.pipeline.failure = write_spawned.message();
    return out;
  }
  const Status serve_spawned = fleet.spawn();
  if (!serve_spawned.is_ok()) {
    out.serving.failed = true;
    out.serving.failure = serve_spawned.message();
    // The pipeline is already registered — drive it to completion anyway so
    // no coroutine is left suspended (notify() on the unspawned fleet is a
    // no-op).
  }
  cluster.scheduler().run();
  out.makespan = cluster.scheduler().now() - start;
  out.pipeline = std::move(pipeline.result());
  if (serve_spawned.is_ok()) out.serving = std::move(fleet.result());
  return out;
}

bench::RunOutcome run_contention_once(daos::ClusterConfig cfg, ioserver::PipelineConfig write,
                                      ServingConfig serve, std::uint64_t seed) {
  cfg.seed = seed;
  sim::Scheduler sched;
  const obs::ScopedClock trace_clock(sched);
  daos::Cluster cluster(sched, cfg);
  const ContentionResult result = run_write_read_contention(cluster, std::move(write), serve);
  bench::RunOutcome outcome;
  outcome.failed = result.pipeline.failed || result.serving.failed;
  outcome.failure = result.pipeline.failed ? result.pipeline.failure : result.serving.failure;
  if (!outcome.failed) {
    outcome.write_bw = result.pipeline.store_log.empty()
                           ? 0.0
                           : to_gib_per_sec(result.pipeline.store_log.global_timing_bandwidth());
    outcome.read_bw = result.serving.read_log.empty()
                          ? 0.0
                          : to_gib_per_sec(result.serving.read_log.global_timing_bandwidth());
    daos::ClientStats clients = result.pipeline.client_stats;
    clients += result.serving.client_stats;
    fdb::FieldIoStats fields = result.pipeline.field_stats;
    fields += result.serving.field_stats;
    outcome.metrics = bench::snapshot_run_metrics(sched, cluster.flows().stats(),
                                                  result.pipeline.store_log,
                                                  result.serving.read_log, clients, &fields,
                                                  &cluster);
    outcome.metrics.fold(serving_metrics(result.serving));
  }
  return outcome;
}

}  // namespace nws::pgen
