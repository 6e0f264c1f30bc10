#include "obs/io_log.h"

#include <stdexcept>

namespace nws::bench {

void IoLog::record(std::uint32_t node, std::uint32_t proc, std::uint32_t iteration,
                   sim::TimePoint io_start, sim::TimePoint io_end, Bytes size,
                   std::uint32_t retries) {
  if (io_end < io_start) throw std::invalid_argument("IoLog: io_end before io_start");
  if (iteration >= iterations_.size()) iterations_.resize(iteration + 1);
  IterationAgg& agg = iterations_[iteration];
  if (io_start < agg.min_start) agg.min_start = io_start;
  if (io_end > agg.max_end) agg.max_end = io_end;
  agg.bytes += size;

  ++operations_;
  total_bytes_ += size;
  total_retries_ += retries;
  if (io_start < global_start_) global_start_ = io_start;
  if (io_end > global_end_) global_end_ = io_end;

  op_latencies_.add(sim::to_seconds(io_end - io_start));
  if (detail_.size() < detail_capacity_) {
    detail_.push_back(IoRecord{node, proc, iteration, io_start, io_end, size, retries});
  }
}

double IoLog::synchronous_bandwidth() const {
  if (empty()) throw std::logic_error("synchronous_bandwidth on empty log");
  double sum = 0.0;
  std::size_t counted = 0;
  for (const IterationAgg& agg : iterations_) {
    if (agg.bytes == 0) continue;
    const double wall = sim::to_seconds(agg.max_end - agg.min_start);
    // A zero-duration iteration is legitimate (all ops served from cache /
    // zero-latency fast paths): its bandwidth is undefined, not an error, so
    // it is skipped exactly like a zero-byte iteration.
    if (wall <= 0.0) continue;
    sum += static_cast<double>(agg.bytes) / wall;
    ++counted;
  }
  if (counted == 0) return 0.0;
  return sum / static_cast<double>(counted);
}

double IoLog::global_timing_bandwidth() const {
  if (empty()) throw std::logic_error("global_timing_bandwidth on empty log");
  const double wall = sim::to_seconds(global_end_ - global_start_);
  if (wall <= 0.0) throw std::logic_error("zero wall-clock in global_timing_bandwidth");
  return static_cast<double>(total_bytes_) / wall;
}

sim::Duration IoLog::total_wall_clock() const {
  if (empty()) return 0;
  return global_end_ - global_start_;
}

}  // namespace nws::bench
