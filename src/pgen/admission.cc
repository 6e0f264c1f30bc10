#include "pgen/admission.h"

#include <stdexcept>

namespace nws::pgen {

AdmissionController::AdmissionController(sim::Scheduler& sched, AdmissionConfig config,
                                         std::size_t consumers)
    : sched_(sched), config_(config), queues_(consumers), admitted_(consumers, 0) {}

sim::Task<void> AdmissionController::acquire(std::size_t consumer) {
  if (consumer >= queues_.size()) throw std::out_of_range("AdmissionController: bad consumer index");
  if (config_.max_in_flight == 0 || in_flight_ < config_.max_in_flight) {
    ++in_flight_;
  } else {
    ++stats_.queued;
    const sim::TimePoint queued_at = sched_.now();
    co_await wait_turn(consumer);
    // Resumed by release(): the slot was handed over directly (in_flight_
    // unchanged), so the budget never overshoots even if new acquirers race
    // the wakeup at the same timestamp.
    stats_.wait_seconds.add(sim::to_seconds(sched_.now() - queued_at));
  }
  ++stats_.admitted;
  ++admitted_[consumer];
}

void AdmissionController::release() {
  if (in_flight_ == 0) throw std::logic_error("AdmissionController::release without acquire");
  // Hand the slot to the next waiting consumer, round-robin across consumer
  // queues (each FIFO in itself): starvation-free under overload.
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    auto& queue = queues_[(cursor_ + i) % queues_.size()];
    if (queue.empty()) continue;
    cursor_ = (cursor_ + i + 1) % queues_.size();
    --waiting_;
    queue.wake_one(sched_);
    return;  // slot handed over: in_flight_ unchanged
  }
  --in_flight_;
}

}  // namespace nws::pgen
