// Tests for the metrics engine, the IOR clone, the field I/O benchmark
// patterns and the experiment runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/md5.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/field_bench.h"
#include "obs/io_log.h"
#include "harness/run_pool.h"
#include "ior/ior.h"
#include "mpibench/mpibench.h"
#include "obs/trace.h"
#include "sim/sync.h"

namespace nws::bench {
namespace {

using nws::operator""_MiB;

TEST(IoLogTest, GlobalTimingBandwidthMatchesEq2) {
  IoLog log;
  // Two processes, unsynchronised: 100 MiB each over a 2 s global window.
  log.record(0, 0, 0, sim::seconds(0.0), sim::seconds(1.5), 100_MiB);
  log.record(0, 1, 0, sim::seconds(0.5), sim::seconds(2.0), 100_MiB);
  EXPECT_EQ(log.operations(), 2u);
  EXPECT_EQ(log.total_bytes(), 200_MiB);
  EXPECT_DOUBLE_EQ(log.global_timing_bandwidth(), static_cast<double>(200_MiB) / 2.0);
  EXPECT_EQ(log.total_wall_clock(), sim::seconds(2.0));
}

TEST(IoLogTest, SynchronousBandwidthMatchesEq1) {
  IoLog log;
  // Iteration 0: both procs 1 MiB within [0, 1] -> 2 MiB/s.
  log.record(0, 0, 0, sim::seconds(0.0), sim::seconds(1.0), 1_MiB);
  log.record(0, 1, 0, sim::seconds(0.2), sim::seconds(1.0), 1_MiB);
  // Iteration 1: both within [2, 6] -> 0.5 MiB/s.
  log.record(0, 0, 1, sim::seconds(2.0), sim::seconds(6.0), 1_MiB);
  log.record(0, 1, 1, sim::seconds(2.0), sim::seconds(5.0), 1_MiB);
  // Mean of per-iteration bandwidths: (2 + 0.5) / 2 = 1.25 MiB/s.
  EXPECT_DOUBLE_EQ(log.synchronous_bandwidth(), 1.25 * static_cast<double>(1_MiB));
}

TEST(IoLogTest, GlobalLowerOrEqualSyncOnGappedWorkload) {
  // A pause between iterations hurts global timing bandwidth but not the
  // synchronous metric — the paper's motivation for reporting both.
  IoLog log;
  log.record(0, 0, 0, sim::seconds(0.0), sim::seconds(1.0), 10_MiB);
  log.record(0, 0, 1, sim::seconds(9.0), sim::seconds(10.0), 10_MiB);
  EXPECT_DOUBLE_EQ(log.synchronous_bandwidth(), static_cast<double>(10_MiB));
  EXPECT_DOUBLE_EQ(log.global_timing_bandwidth(), static_cast<double>(20_MiB) / 10.0);
  EXPECT_LT(log.global_timing_bandwidth(), log.synchronous_bandwidth());
}

TEST(IoLogTest, EmptyLogThrows) {
  IoLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_THROW((void)log.synchronous_bandwidth(), std::logic_error);
  EXPECT_THROW((void)log.global_timing_bandwidth(), std::logic_error);
}

TEST(IoLogTest, OpLatencyDistribution) {
  IoLog log;
  log.record(0, 0, 0, sim::seconds(0.0), sim::seconds(1.0), 1_MiB);
  log.record(0, 1, 0, sim::seconds(0.0), sim::seconds(2.0), 1_MiB);
  log.record(0, 2, 0, sim::seconds(0.0), sim::seconds(4.0), 1_MiB);
  EXPECT_EQ(log.op_latencies().count(), 3u);
  EXPECT_DOUBLE_EQ(log.op_latencies().min(), 1.0);
  EXPECT_DOUBLE_EQ(log.op_latencies().max(), 4.0);
  EXPECT_DOUBLE_EQ(log.op_latencies().median(), 2.0);
}

TEST(IoLogTest, ZeroDurationIterationsSkippedInEq1) {
  // Regression: an iteration whose ops all start and end on the same tick
  // (instant transfers, cache-hit models) used to contribute a 0/0 division
  // to the Eq. 1 mean.  Such iterations are now skipped, and a log with no
  // timed iteration reports zero bandwidth instead of NaN.
  IoLog log;
  log.record(0, 0, 0, sim::seconds(1.0), sim::seconds(1.0), 1_MiB);
  EXPECT_DOUBLE_EQ(log.synchronous_bandwidth(), 0.0);
  // A timed iteration alongside the degenerate one: only it counts.
  log.record(0, 0, 1, sim::seconds(2.0), sim::seconds(3.0), 2_MiB);
  EXPECT_DOUBLE_EQ(log.synchronous_bandwidth(), static_cast<double>(2_MiB));
}

TEST(IoLogTest, RejectsBackwardsInterval) {
  IoLog log;
  EXPECT_THROW(log.record(0, 0, 0, sim::seconds(2.0), sim::seconds(1.0), 1_MiB),
               std::invalid_argument);
}

TEST(IoLogTest, DetailBufferBounded) {
  IoLog log(2);
  for (int i = 0; i < 5; ++i) {
    log.record(0, 0, static_cast<std::uint32_t>(i), sim::seconds(i), sim::seconds(i + 1), 1_MiB);
  }
  EXPECT_EQ(log.detail().size(), 2u);
  EXPECT_EQ(log.operations(), 5u);
}

TEST(IorTest, SmallRunProducesConsistentLogs) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg = testbed_config(1, 1);
  daos::Cluster cluster(sched, cfg);
  ior::IorParams params;
  params.segments = 10;
  params.processes_per_node = 4;
  const ior::IorResult result = ior::run_ior(cluster, params);
  ASSERT_FALSE(result.failed) << result.failure;
  EXPECT_EQ(result.write_log.operations(), 4u);
  EXPECT_EQ(result.read_log.operations(), 4u);
  EXPECT_EQ(result.write_log.total_bytes(), 4u * 10_MiB);
  // Reads must start strictly after the write phase completed.
  EXPECT_GE(result.read_log.first_start(), result.write_log.last_end());
  EXPECT_GT(result.write_log.synchronous_bandwidth(), 0.0);
}

TEST(IorTest, ReadFasterThanWrite) {
  // First-generation Optane reads ~3x faster than writes; the paper's read
  // bandwidths consistently exceed write bandwidths.
  const RunOutcome out = run_ior_once(testbed_config(1, 2), ior::IorParams{}, 7);
  ASSERT_FALSE(out.failed);
  EXPECT_GT(out.read_bw, out.write_bw);
}

TEST(IorTest, MultipleIterationsLogged) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(1, 1));
  ior::IorParams params;
  params.segments = 5;
  params.iterations = 3;
  params.processes_per_node = 2;
  const ior::IorResult result = ior::run_ior(cluster, params);
  ASSERT_FALSE(result.failed);
  EXPECT_EQ(result.write_log.operations(), 6u);  // 2 procs x 3 iterations
}

TEST(FieldBenchTest, KeysEncodeContention) {
  FieldBenchParams low;
  low.shared_forecast_index = false;
  FieldBenchParams high;
  high.shared_forecast_index = true;
  // Low contention: distinct forecasts per process.
  EXPECT_NE(bench_field_key(low, 0, 0, false).most_significant(),
            bench_field_key(low, 1, 0, false).most_significant());
  // High contention: one shared forecast.
  EXPECT_EQ(bench_field_key(high, 0, 0, false).most_significant(),
            bench_field_key(high, 1, 0, false).most_significant());
  // Distinct fields per process and op either way.
  EXPECT_NE(bench_field_key(high, 0, 0, false).canonical(),
            bench_field_key(high, 1, 0, false).canonical());
  EXPECT_NE(bench_field_key(high, 0, 0, false).canonical(),
            bench_field_key(high, 0, 1, false).canonical());
  // Designated keys are stable across ops (pattern B re-writes).
  EXPECT_EQ(bench_field_key(high, 3, 0, true).canonical(),
            bench_field_key(high, 3, 9, true).canonical());
}

// ---- the tiled field payload -------------------------------------------------

constexpr Bytes kTile = 4096;

std::vector<std::uint8_t> payload_range(Bytes offset, Bytes n, const std::string& key) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n));
  fill_field_payload(out.data(), offset, n, key);
  return out;
}

TEST(PayloadTest, AnyRangeIsASliceOfTheWholePayload) {
  const std::string key = "od:oper:0001:20201224:t:3:0";
  const Bytes total = 6 * kTile + 100;
  const std::vector<std::uint8_t> whole = payload_range(0, total, key);
  EXPECT_EQ(whole, make_field_payload(key, total));
  std::vector<std::pair<Bytes, Bytes>> ranges = {
      {0, 1},        {0, 7},          {3, 2},           {5, 3},          {100, 1000},
      {kTile - 1, 2}, {kTile - 3, 11}, {kTile - 5, 2 * kTile + 9}, {2 * kTile, kTile},
      {8, 8},        {total - 1, 1},  {1, total - 1}};
  Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const Bytes offset = rng.next_below(total);
    ranges.emplace_back(offset, 1 + rng.next_below(total - offset));
  }
  for (const auto& [offset, n] : ranges) {
    const auto got = payload_range(offset, n, key);
    const auto begin = whole.begin() + static_cast<std::ptrdiff_t>(offset);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), begin, begin + static_cast<std::ptrdiff_t>(n)))
        << "fill at [" << offset << ", " << offset + n << ")";
    EXPECT_TRUE(verify_field_payload(whole.data() + offset, offset, n, key))
        << "verify at [" << offset << ", " << offset + n << ")";
  }
  // The size is not part of the seed: a short payload is a prefix of a long one.
  EXPECT_TRUE(verify_field_payload(whole.data(), 0, 1000, key));
  EXPECT_TRUE(verify_field_payload(nullptr, 17, 0, key));
}

TEST(PayloadTest, VerifyRejectsAnyFlippedByte) {
  const std::string key = "flip";
  const Bytes total = 3 * kTile;
  std::vector<std::uint8_t> bytes = payload_range(0, total, key);
  for (const Bytes pos : {Bytes{0}, Bytes{7}, Bytes{8}, kTile - 1, kTile, Bytes{5000}, total - 1}) {
    bytes[pos] ^= 0x01;
    EXPECT_FALSE(verify_field_payload(bytes.data(), 0, total, key)) << "flipped byte " << pos;
    // Unaligned ranges whose partial head or tail word holds the flip.
    const Bytes lo = pos >= 3 ? pos - 3 : 0;
    EXPECT_FALSE(verify_field_payload(bytes.data() + lo, lo, pos + 1 - lo, key)) << pos;
    EXPECT_FALSE(verify_field_payload(bytes.data() + pos, pos, std::min<Bytes>(5, total - pos), key))
        << pos;
    bytes[pos] ^= 0x01;
  }
  EXPECT_TRUE(verify_field_payload(bytes.data(), 0, total, key));
}

TEST(PayloadTest, VerifyRejectsSwappedTiles) {
  const std::string key = "tiles";
  const Bytes total = 4 * kTile;
  const std::vector<std::uint8_t> whole = payload_range(0, total, key);
  std::vector<std::uint8_t> swapped = whole;
  std::swap_ranges(swapped.begin() + kTile, swapped.begin() + 2 * kTile,
                   swapped.begin() + 2 * kTile);
  EXPECT_FALSE(verify_field_payload(swapped.data(), 0, total, key));
  // Each tile is valid only at its own position.
  EXPECT_TRUE(verify_field_payload(whole.data() + kTile, kTile, kTile, key));
  EXPECT_FALSE(verify_field_payload(whole.data() + kTile, 2 * kTile, kTile, key));
  EXPECT_FALSE(verify_field_payload(whole.data() + 2 * kTile, kTile, kTile, key));
}

TEST(PayloadTest, VerifyRejectsAPatchOneByteOff) {
  // fig_interfaces' meta scenario: the field's payload with the payload of
  // "<key>#patch" over [100, 1100), checked range by range.
  const std::string key = "fc0/f1";
  const std::string patch_key = key + "#patch";
  const Bytes size = 16000;
  const Bytes patch_offset = 100;
  const Bytes patch_len = 1000;
  const auto patched_ok = [&](const std::vector<std::uint8_t>& got) {
    const Bytes end = patch_offset + patch_len;
    return verify_field_payload(got.data(), 0, patch_offset, key) &&
           verify_field_payload(got.data() + patch_offset, 0, patch_len, patch_key) &&
           verify_field_payload(got.data() + end, end, size - end, key);
  };
  const std::vector<std::uint8_t> patch = payload_range(0, patch_len, patch_key);
  for (const Bytes at : {patch_offset, patch_offset + 1, patch_offset - 1}) {
    std::vector<std::uint8_t> file = payload_range(0, size, key);
    std::copy(patch.begin(), patch.end(), file.begin() + static_cast<std::ptrdiff_t>(at));
    EXPECT_EQ(patched_ok(file), at == patch_offset) << "patch applied at " << at;
  }
}

TEST(PayloadTest, VerifyRejectsAnotherKeysBytes) {
  const Bytes size = 2 * kTile + 13;
  const std::vector<std::uint8_t> other = payload_range(0, size, "fc0/f2");
  EXPECT_TRUE(verify_field_payload(other.data(), 0, size, "fc0/f2"));
  EXPECT_FALSE(verify_field_payload(other.data(), 0, size, "fc0/f1"));
  EXPECT_FALSE(verify_field_payload(other.data() + 9, 9, 20, "fc0/f1"));
  EXPECT_FALSE(verify_field_payload(other.data(), 0, 3, "fc0/f1"));
}

TEST(PayloadTest, VersionedPayloadNamesItsOwnVersion) {
  const std::string key = "od:designated";
  const Bytes size = kTile + 40;
  std::vector<std::uint8_t> v3(static_cast<std::size_t>(size));
  fill_versioned_payload(v3.data(), size, key, 3);
  EXPECT_EQ(versioned_payload_version(v3.data(), size, key), 3);
  // A header that names another version fails, in either direction.
  for (const std::uint64_t other : {std::uint64_t{2}, std::uint64_t{4}}) {
    std::vector<std::uint8_t> relabelled = v3;
    std::memcpy(relabelled.data(), &other, 8);
    EXPECT_EQ(versioned_payload_version(relabelled.data(), size, key), -1) << other;
  }
  // A torn read: version 3's header and head, version 4's tail.
  std::vector<std::uint8_t> v4(static_cast<std::size_t>(size));
  fill_versioned_payload(v4.data(), size, key, 4);
  std::vector<std::uint8_t> torn = v3;
  std::copy(v4.begin() + kTile, v4.end(), torn.begin() + kTile);
  EXPECT_EQ(versioned_payload_version(torn.data(), size, key), -1);
  EXPECT_EQ(versioned_payload_version(v3.data(), size, "od:other"), -1);
  EXPECT_EQ(versioned_payload_version(v3.data(), 7, key), -1);
}

TEST(PayloadTest, VerifiedReadCatchesAFlippedStoredByte) {
  sim::Scheduler sched;
  daos::ClusterConfig cfg = testbed_config(1, 1);
  cfg.payload_mode = daos::PayloadMode::full;
  daos::Cluster cluster(sched, cfg);
  daos::Client client(cluster, cluster.client_endpoint(0, 0), 0);
  fdb::FieldIoConfig io_cfg;
  io_cfg.mode = fdb::Mode::no_index;  // the key's md5 names the Array directly
  fdb::FieldIo io(client, io_cfg, 0);
  fdb::FieldKey key;
  key.set("class", "od").set("date", "20201224").set("step", "6");
  const Bytes size = 3 * kTile + 5;
  const Bytes flip_at = kTile + 21;
  bool intact_ok = false;
  bool corrupt_ok = true;
  auto body = [&]() -> sim::Task<void> {
    (co_await io.init()).expect_ok("init");
    std::vector<std::uint8_t> buf = payload_range(0, size, key.canonical());
    (co_await io.write(key, buf.data(), size)).expect_ok("write");
    std::fill(buf.begin(), buf.end(), 0);
    auto n = co_await io.read(key, buf.data(), size);
    intact_ok = n.is_ok() && n.value() == size && verify_field_payload(buf.data(), 0, size, key.canonical());

    // Flip one stored byte behind FieldIo's back.
    daos::Container& main = cluster.main_container();
    const daos::ObjectId oid = daos::ObjectId::from_digest(
        md5(key.canonical()), daos::ObjectType::array, io_cfg.array_class);
    daos::ArrayObject* arr = main.open_array(oid).value();
    std::uint8_t byte = 0;
    EXPECT_EQ(arr->read(flip_at, &byte, 1), 1u);
    byte ^= 0x80;
    arr->write(flip_at, &byte, 1, main.write_epoch(), main.retains_superseded());

    n = co_await io.read(key, buf.data(), size);
    corrupt_ok = n.is_ok() && n.value() == size && verify_field_payload(buf.data(), 0, size, key.canonical());
  };
  sched.spawn(body());
  sched.run();
  EXPECT_TRUE(intact_ok);
  EXPECT_FALSE(corrupt_ok);
}

class FieldPatternModes : public ::testing::TestWithParam<fdb::Mode> {};

TEST_P(FieldPatternModes, PatternACompletesAndBalances) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(1, 1));
  FieldBenchParams params;
  params.mode = GetParam();
  params.ops_per_process = 5;
  params.processes_per_node = 4;
  const FieldBenchResult result = run_field_pattern(cluster, params, 'A');
  ASSERT_FALSE(result.failed) << result.failure;
  EXPECT_EQ(result.write_log.operations(), 20u);
  EXPECT_EQ(result.read_log.operations(), 20u);
  // Phase separation: reads start after the last write ends.
  EXPECT_GE(result.read_log.first_start(), result.write_log.last_end());
}

TEST_P(FieldPatternModes, PatternBOverlapsWritersAndReaders) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(1, 2));
  FieldBenchParams params;
  params.mode = GetParam();
  params.ops_per_process = 6;
  params.processes_per_node = 4;
  const FieldBenchResult result = run_field_pattern(cluster, params, 'B');
  ASSERT_FALSE(result.failed) << result.failure;
  // Half the nodes write, half read: 4 writers, 4 readers.
  EXPECT_EQ(result.write_log.operations(), 24u);
  EXPECT_EQ(result.read_log.operations(), 24u);
  // The phases overlap in time (that is the point of pattern B).
  EXPECT_LT(result.read_log.first_start(), result.write_log.last_end());
  EXPECT_GT(result.aggregated_global_bandwidth(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, FieldPatternModes,
                         ::testing::Values(fdb::Mode::full, fdb::Mode::no_containers,
                                           fdb::Mode::no_index),
                         [](const auto& mode_info) {
                           switch (mode_info.param) {
                             case fdb::Mode::full: return "full";
                             case fdb::Mode::no_containers: return "no_containers";
                             case fdb::Mode::no_index: return "no_index";
                           }
                           return "unknown";
                         });

TEST(FieldBenchTest, PatternBUnderSharedForecastIndex) {
  // High contention in pattern B: every process (writers re-writing AND
  // readers racing them) goes through the one shared forecast index KV.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(1, 2));
  FieldBenchParams params;
  params.mode = fdb::Mode::full;
  params.shared_forecast_index = true;
  params.ops_per_process = 4;
  params.processes_per_node = 4;
  const FieldBenchResult result = run_field_pattern(cluster, params, 'B');
  ASSERT_FALSE(result.failed) << result.failure;
  EXPECT_EQ(result.write_log.operations(), 16u);
  EXPECT_EQ(result.read_log.operations(), 16u);
  EXPECT_LT(result.read_log.first_start(), result.write_log.last_end());  // phases overlap
  // All designated keys live in the same forecast (the contention point).
  EXPECT_EQ(bench_field_key(params, 0, 0, true).most_significant(),
            bench_field_key(params, 7, 0, true).most_significant());
}

TEST(SchedulerDeadlock, BenchmarkStyleRunReportsBlockedProcesses) {
  // A process that never releases a mutex starves another; run() must raise
  // DeadlockError naming the number of blocked processes, not hang or exit 0.
  sim::Scheduler sched;
  sim::Mutex mutex(sched);
  auto holder = [](sim::Scheduler& s, sim::Mutex& m) -> sim::Task<void> {
    co_await m.lock();
    co_await s.delay(sim::seconds(0.001));
    // Exits still holding the lock.
  };
  auto waiter = [](sim::Mutex& m) -> sim::Task<void> {
    co_await m.lock();  // never acquired
    m.unlock();
  };
  sched.spawn(holder(sched, mutex));
  sched.spawn(waiter(mutex));
  EXPECT_THROW(sched.run(), sim::DeadlockError);
  EXPECT_EQ(sched.live_processes(), 1u);  // the waiter is still parked
}

TEST(FieldBenchTest, SingleClientNodePatternBSplitsProcesses) {
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(1, 1));
  FieldBenchParams params;
  params.ops_per_process = 3;
  params.processes_per_node = 6;  // 3 writers + 3 readers
  const FieldBenchResult result = run_field_pattern(cluster, params, 'B');
  ASSERT_FALSE(result.failed) << result.failure;
  EXPECT_EQ(result.write_log.operations(), 9u);
  EXPECT_EQ(result.read_log.operations(), 9u);
}

TEST(ExperimentTest, RepeatCollectsAllRepetitions) {
  int calls = 0;
  const RepetitionSummary summary = repeat(4, 1, [&](std::uint64_t seed) {
    ++calls;
    RunOutcome out;
    out.write_bw = static_cast<double>(seed % 10);
    out.read_bw = 1.0;
    return out;
  });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(summary.write.count(), 4u);
  EXPECT_FALSE(summary.any_failed);
}

TEST(ExperimentTest, RepeatTracksFailures) {
  const RepetitionSummary summary = repeat(3, 1, [&](std::uint64_t) {
    RunOutcome out;
    out.failed = true;
    out.failure = "injected";
    return out;
  });
  EXPECT_TRUE(summary.any_failed);
  EXPECT_TRUE(summary.write.empty());
  EXPECT_EQ(summary.failure, "injected");
}

TEST(ExperimentTest, BestOverPpnPicksHighestAggregate) {
  const BestOfPpn best = best_over_ppn({8, 16, 32}, 2, 1, [](std::size_t ppn, std::uint64_t) {
    RunOutcome out;
    out.write_bw = ppn == 16 ? 10.0 : 1.0;  // 16 is the sweet spot
    return out;
  });
  EXPECT_EQ(best.ppn, 16u);
  EXPECT_DOUBLE_EQ(best.summary.write.mean(), 10.0);
}

TEST(ExperimentTest, TestbedConfigMatchesPaperDeployments) {
  const daos::ClusterConfig tcp = testbed_config(4, 8);
  EXPECT_EQ(tcp.engines_per_server, 2u);
  EXPECT_EQ(tcp.client_sockets_in_use, 2u);
  EXPECT_EQ(tcp.provider.name, "tcp");

  const daos::ClusterConfig psm2 = testbed_config(4, 8, "psm2");
  EXPECT_EQ(psm2.engines_per_server, 1u);  // PSM2: single rail (paper 6.1.1)
  EXPECT_EQ(psm2.client_sockets_in_use, 1u);
  EXPECT_TRUE(psm2.validate().is_ok());
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  ior::IorParams params;
  params.segments = 10;
  params.processes_per_node = 4;
  const RunOutcome a = run_ior_once(testbed_config(1, 1), params, 99);
  const RunOutcome b = run_ior_once(testbed_config(1, 1), params, 99);
  EXPECT_DOUBLE_EQ(a.write_bw, b.write_bw);
  EXPECT_DOUBLE_EQ(a.read_bw, b.read_bw);
  const RunOutcome c = run_ior_once(testbed_config(1, 1), params, 100);
  EXPECT_NE(a.write_bw, c.write_bw);  // different seed, different jitter
}

// ---- parallel run engine ----------------------------------------------------

TEST(RunPoolTest, ParallelMapReturnsResultsInIndexOrder) {
  const std::vector<std::size_t> out =
      parallel_map(std::size_t{100}, std::size_t{8}, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(RunPoolTest, EveryJobRunsExactlyOnce) {
  constexpr std::size_t kJobs = 257;  // not a multiple of the thread count
  std::vector<std::atomic<int>> hits(kJobs);
  run_indexed(kJobs, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1) << "job " << i;
}

/// A thread claims its next job only when it is free, so a job that blocks
/// never holds back the jobs behind it.  On 2 threads jobs 0-1 sleep, then
/// jobs 2 and 3 wait for each other: they meet only if they run on
/// different threads.  Dealing each thread a contiguous block, or popping
/// several jobs per claim, runs 2 and 3 one after the other on one thread.
TEST(RunPoolTest, QueuedJobRunsBesideABlockedOne) {
  if (hardware_jobs() < 2) GTEST_SKIP() << "needs at least 2 hardware threads";
  std::mutex mutex;
  std::condition_variable arrival;
  std::size_t arrived = 0;  // guarded by mutex
  const std::vector<int> met = parallel_map(std::size_t{4}, std::size_t{2}, [&](std::size_t i) {
    if (i < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return 1;
    }
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    arrival.notify_all();
    return arrival.wait_for(lock, std::chrono::seconds(5), [&] { return arrived == 2; }) ? 1 : 0;
  });
  EXPECT_EQ(met, (std::vector<int>{1, 1, 1, 1}));
}

TEST(RunPoolTest, LowestIndexedExceptionWinsAndSweepStillDrains) {
  std::vector<std::atomic<int>> hits(64);
  auto sweep = [&](std::size_t jobs) -> std::string {
    for (auto& h : hits) h.store(0);
    try {
      parallel_map(std::size_t{64}, jobs, [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i == 7 || i == 41) throw std::runtime_error("job " + std::to_string(i));
        return i;
      });
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  // Identical rethrow choice serial and parallel, and no job is skipped.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_EQ(sweep(jobs), "job 7") << jobs << " jobs";
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

TEST(RunPoolTest, NormalizeAndDefaultJobs) {
  EXPECT_GE(normalize_jobs(0), 1u);  // 0 -> hardware_concurrency, min 1
  EXPECT_EQ(normalize_jobs(3), 3u);
  const std::size_t saved = default_jobs();
  set_default_jobs(5);
  EXPECT_EQ(default_jobs(), 5u);
  set_default_jobs(saved);
}

TEST(RunPoolTest, ParallelSweepBitIdenticalToSerial) {
  // The PR's core determinism claim: a real simulation sweep — fresh
  // scheduler + cluster per seed — folded at --jobs 1 and --jobs 8 yields
  // bit-identical per-seed RunOutcomes, not merely close ones.
  const auto run_one = [](std::size_t i) {
    FieldBenchParams params;
    params.ops_per_process = 3;
    params.processes_per_node = 4;
    return run_field_once(testbed_config(1, 1), params, i % 2 == 0 ? 'A' : 'B',
                          1000 + 37 * static_cast<std::uint64_t>(i));
  };
  const std::vector<RunOutcome> serial = parallel_map(std::size_t{12}, std::size_t{1}, run_one);
  const std::vector<RunOutcome> parallel = parallel_map(std::size_t{12}, std::size_t{8}, run_one);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].failed, parallel[i].failed) << "seed index " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial[i].write_bw),
              std::bit_cast<std::uint64_t>(parallel[i].write_bw))
        << "seed index " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial[i].read_bw),
              std::bit_cast<std::uint64_t>(parallel[i].read_bw))
        << "seed index " << i;
  }
}

/// The fan-out must pay for itself on millisecond-scale repetitions: 16
/// short field runs through repeat() on min(4, hardware_jobs()) threads are
/// not slower than serially.  Serial and parallel takes interleave, so a
/// busy stretch of the host hits both sides, and each side keeps its best
/// of three.  The name stays outside RunPoolTest.* so the TSan stage does
/// not time it.
TEST(RunPoolSpeedTest, ParallelSweepNotSlowerThanSerial) {
#ifndef NDEBUG
  GTEST_SKIP() << "unoptimised build: wall time says nothing about the pool";
#endif
  const std::size_t jobs = std::min<std::size_t>(4, hardware_jobs());
  if (jobs < 2) GTEST_SKIP() << "needs at least 2 hardware threads";
  FieldBenchParams params;
  params.ops_per_process = 10;
  params.processes_per_node = 8;
  const auto sweep_seconds = [&params](std::size_t sweep_jobs) {
    // NWSLINT(allow:determinism): times the host running the sweep, not simulated time
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const RepetitionSummary summary = repeat(
        16, 1,
        [&params](std::uint64_t seed) {
          return run_field_once(testbed_config(1, 2), params, 'A', seed);
        },
        sweep_jobs);
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    EXPECT_FALSE(summary.any_failed) << summary.failure;
    return seconds;
  };
  double serial = std::numeric_limits<double>::infinity();
  double parallel = serial;
  for (int take = 0; take < 3; ++take) {
    serial = std::min(serial, sweep_seconds(1));
    parallel = std::min(parallel, sweep_seconds(jobs));
  }
  EXPECT_LE(parallel, serial) << "best serial sweep " << serial << " s, best on " << jobs
                              << " workers " << parallel << " s";
}

TEST(ExperimentTest, RepeatAndBestOverPpnIdenticalAtAnyJobCount) {
  ior::IorParams params;
  params.segments = 10;
  params.processes_per_node = 4;
  const auto run = [&](std::uint64_t seed) { return run_ior_once(testbed_config(1, 1), params, seed); };
  const RepetitionSummary serial = repeat(5, 42, run, 1);
  const RepetitionSummary parallel = repeat(5, 42, run, 8);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.write.mean()),
            std::bit_cast<std::uint64_t>(parallel.write.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.read.mean()),
            std::bit_cast<std::uint64_t>(parallel.read.mean()));

  const auto run_ppn = [&](std::size_t ppn, std::uint64_t seed) {
    ior::IorParams p = params;
    p.processes_per_node = ppn;
    return run_ior_once(testbed_config(1, 1), p, seed);
  };
  const BestOfPpn best_serial = best_over_ppn({2, 4, 8}, 2, 7, run_ppn, 1);
  const BestOfPpn best_parallel = best_over_ppn({2, 4, 8}, 2, 7, run_ppn, 8);
  EXPECT_EQ(best_serial.ppn, best_parallel.ppn);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(best_serial.summary.mean_aggregate()),
            std::bit_cast<std::uint64_t>(best_parallel.summary.mean_aggregate()));
}

TEST(ExperimentTest, MetricsSnapshotIdenticalAtAnyJobCount) {
  // The folded MetricsSnapshot inherits run_pool's determinism guarantee:
  // counters, gauges and histogram sample order must be bit-identical
  // whether the repetitions ran serially or on 8 workers.
  FieldBenchParams params;
  params.ops_per_process = 3;
  params.processes_per_node = 4;
  const auto run = [&](std::uint64_t seed) {
    return run_field_once(testbed_config(1, 1), params, 'A', seed);
  };
  const RepetitionSummary serial = repeat(4, 99, run, 1);
  const RepetitionSummary wide = repeat(4, 99, run, 8);
  ASSERT_FALSE(serial.any_failed);
  EXPECT_FALSE(serial.metrics.empty());
  EXPECT_TRUE(serial.metrics == wide.metrics);
  // Sanity-check one counter end to end: 4 procs x 3 ops x 4 repetitions.
  EXPECT_DOUBLE_EQ(serial.metrics.value("io.write.operations"), 48.0);
  EXPECT_DOUBLE_EQ(serial.metrics.value("fdb.fields_written"), 48.0);
}

TEST(FieldBenchTest, LayerCountersAggregatedIntoResult) {
  // Regression for the stats-flush bug: per-process FieldIo/Client counters
  // used to be dropped when worker coroutines finished, leaving the layer
  // totals of a run at zero.
  sim::Scheduler sched;
  daos::Cluster cluster(sched, testbed_config(1, 1));
  FieldBenchParams params;
  params.ops_per_process = 5;
  params.processes_per_node = 4;
  const FieldBenchResult result = run_field_pattern(cluster, params, 'A');
  ASSERT_FALSE(result.failed) << result.failure;
  EXPECT_EQ(result.field_stats.fields_written, 20u);
  EXPECT_EQ(result.field_stats.fields_read, 20u);
  EXPECT_EQ(result.field_stats.bytes_written, 20u * params.field_size);
  EXPECT_EQ(result.field_stats.bytes_read, 20u * params.field_size);
  EXPECT_GT(result.client_stats.kv_puts, 0u);        // index/catalogue traffic
  EXPECT_EQ(result.client_stats.array_writes, 20u);  // one array write per field
  EXPECT_GE(result.client_stats.bytes_written, result.field_stats.bytes_written);
}

TEST(StatsRaceTest, ConcurrentConstReadersAreRaceFree) {
  // Regression (run under TSan in scripts/check.sh): const order-statistic
  // accessors on an unsealed shared Summary must not mutate the cache.
  Summary shared;
  std::uint64_t v = 1;
  for (int i = 0; i < 1024; ++i) {
    v = v * 6364136223846793005ull + 1442695040888963407ull;
    shared.add(static_cast<double>(v >> 40));
  }
  const double expected_p95 = shared.percentile(95);
  const double expected_min = shared.min();
  const double expected_max = shared.max();
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (shared.percentile(95) != expected_p95 || shared.min() != expected_min ||
            shared.max() != expected_max) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(TraceIntegrationTest, FieldRunEmitsSpansForEveryLayer) {
  // One traced field run must yield closed spans from the harness ("io"),
  // the DAOS client ("daos") and the network ("net") on a single timeline.
  obs::TraceRecorder recorder;
  FieldBenchParams params;
  params.ops_per_process = 3;
  params.processes_per_node = 4;
  {
    obs::TraceSession session(recorder);
    const RunOutcome out = run_field_once(testbed_config(1, 1), params, 'A', 5);
    ASSERT_FALSE(out.failed);
  }
  ASSERT_GT(recorder.span_count(), 0u);
  std::size_t io_spans = 0;
  bool saw_daos = false;
  bool saw_net = false;
  for (const auto& span : recorder.spans()) {
    EXPECT_FALSE(span.open) << span.name;
    EXPECT_LE(span.start_ns, span.end_ns);
    const std::string cat = span.cat;
    if (cat == "io") ++io_spans;
    if (cat == "daos") saw_daos = true;
    if (cat == "net") saw_net = true;
  }
  // One "io" span per field op: 4 procs x 3 ops, write phase + read phase.
  EXPECT_EQ(io_spans, 24u);
  EXPECT_TRUE(saw_daos);
  EXPECT_TRUE(saw_net);
}

TEST(MpiBenchTest, Table2Shape) {
  // TCP: more pairs help up to ~8, then slightly degrade; PSM2 single pair
  // nearly saturates the adapter.
  const auto tcp1 = mpibench::sweep_transfer_sizes(net::tcp_provider(), 1);
  const auto tcp8 = mpibench::sweep_transfer_sizes(net::tcp_provider(), 8);
  const auto tcp16 = mpibench::sweep_transfer_sizes(net::tcp_provider(), 16);
  const auto psm2 = mpibench::sweep_transfer_sizes(net::psm2_provider(), 1);
  EXPECT_NEAR(to_gib_per_sec(tcp1.best_bandwidth), 3.1, 0.2);
  EXPECT_NEAR(to_gib_per_sec(tcp8.best_bandwidth), 9.5, 0.3);
  EXPECT_GT(tcp8.best_bandwidth, tcp16.best_bandwidth);
  EXPECT_NEAR(to_gib_per_sec(psm2.best_bandwidth), 12.1, 0.3);
}

// Paper-shape integration checks at reduced scale: the qualitative orderings
// the evaluation section reports must hold in the model.
TEST(PaperShapes, TwoServersBeatOne) {
  ior::IorParams params;
  params.segments = 20;
  params.processes_per_node = 24;
  const RunOutcome one = run_ior_once(testbed_config(1, 2), params, 5);
  const RunOutcome two = run_ior_once(testbed_config(2, 4), params, 5);
  ASSERT_FALSE(one.failed);
  ASSERT_FALSE(two.failed);
  EXPECT_GT(two.write_bw, one.write_bw * 1.5);
  EXPECT_GT(two.read_bw, one.read_bw * 1.2);
}

TEST(PaperShapes, NoIndexAtLeastAsFastAsFullUnderHighContention) {
  FieldBenchParams base;
  base.shared_forecast_index = true;
  base.ops_per_process = 10;
  base.processes_per_node = 16;
  FieldBenchParams full = base;
  full.mode = fdb::Mode::full;
  FieldBenchParams noindex = base;
  noindex.mode = fdb::Mode::no_index;
  const RunOutcome f = run_field_once(testbed_config(1, 2), full, 'A', 3);
  const RunOutcome n = run_field_once(testbed_config(1, 2), noindex, 'A', 3);
  ASSERT_FALSE(f.failed);
  ASSERT_FALSE(n.failed);
  EXPECT_GE(n.write_bw + n.read_bw, f.write_bw + f.read_bw);
}

TEST(PaperShapes, Psm2BeatsTcpAtEqualScale) {
  ior::IorParams params;
  params.segments = 20;
  params.processes_per_node = 8;
  const RunOutcome tcp = run_ior_once(testbed_config(2, 4, "tcp"), params, 11);
  const RunOutcome psm2 = run_ior_once(testbed_config(2, 4, "psm2"), params, 11);
  ASSERT_FALSE(tcp.failed);
  ASSERT_FALSE(psm2.failed);
  // Fig. 7: PSM2 above TCP (10-25% in the paper).  Note both run
  // single-engine servers for a fair comparison.
  const RunOutcome tcp_single = [&] {
    daos::ClusterConfig cfg = testbed_config(2, 4, "tcp");
    cfg.engines_per_server = 1;
    cfg.client_sockets_in_use = 1;
    return run_ior_once(cfg, params, 11);
  }();
  ASSERT_FALSE(tcp_single.failed);
  EXPECT_GT(psm2.write_bw, tcp_single.write_bw);
  EXPECT_GT(psm2.read_bw, tcp_single.read_bw);
}

TEST(PaperShapes, LargerFieldsFasterUnderContention) {
  // Fig. 6: 5 MiB fields beat 1 MiB fields in full mode, high contention.
  FieldBenchParams small;
  small.mode = fdb::Mode::full;
  small.shared_forecast_index = true;
  small.ops_per_process = 8;
  small.processes_per_node = 24;
  FieldBenchParams large = small;
  large.field_size = 5_MiB;
  const RunOutcome s = run_field_once(testbed_config(1, 2), small, 'A', 13);
  const RunOutcome l = run_field_once(testbed_config(1, 2), large, 'A', 13);
  ASSERT_FALSE(s.failed);
  ASSERT_FALSE(l.failed);
  EXPECT_GT(l.write_bw, s.write_bw * 1.3);
  EXPECT_GT(l.read_bw, s.read_bw * 1.3);
}

TEST(PaperShapes, PatternBAggregatedComparableToPatternA) {
  // Section 6.3.1: aggregated pattern-B bandwidth shows "no substantial
  // performance degradation" versus pattern A.
  FieldBenchParams params;
  params.mode = fdb::Mode::no_containers;
  params.shared_forecast_index = true;
  params.ops_per_process = 10;
  params.processes_per_node = 16;
  const RunOutcome a = run_field_once(testbed_config(1, 2), params, 'A', 17);
  const RunOutcome b = run_field_once(testbed_config(1, 2), params, 'B', 17);
  ASSERT_FALSE(a.failed);
  ASSERT_FALSE(b.failed);
  const double agg_a = a.write_bw + a.read_bw;
  const double agg_b = b.write_bw + b.read_bw;
  EXPECT_GT(agg_b, agg_a * 0.5);
}

}  // namespace
}  // namespace nws::bench
