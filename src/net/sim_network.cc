#include "net/sim_network.h"

namespace wedge {

Micros SimLink::DelayFor(size_t size_bytes) {
  Micros transmission = 0;
  if (config_.bandwidth_bytes_per_sec > 0) {
    transmission = static_cast<Micros>(
        (static_cast<double>(size_bytes) / config_.bandwidth_bytes_per_sec) *
        kMicrosPerSecond);
  }
  Micros jitter = 0;
  if (config_.jitter > 0) {
    jitter = static_cast<Micros>(rng_.Uniform(2 * config_.jitter + 1)) -
             config_.jitter;
  }
  Micros total = config_.base_latency + transmission + jitter;
  return total < 0 ? 0 : total;
}

bool SimLink::ShouldDrop() { return rng_.Bernoulli(config_.drop_probability); }

void MessageBus::RegisterEndpoint(const std::string& name, Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[name] = std::move(handler);
}

Result<Micros> MessageBus::Send(const std::string& from, const std::string& to,
                                Bytes payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sent_counter_ != nullptr) sent_counter_->Add(1);
  if (link_.ShouldDrop()) {
    if (dropped_counter_ != nullptr) dropped_counter_->Add(1);
    return Status::Unavailable("message dropped by the network");
  }
  Micros delay = link_.DelayFor(payload.size());
  if (delay_hist_ != nullptr) delay_hist_->Record(delay);
  Micros deliver_at = clock_->NowMicros() + delay;
  queue_.emplace(deliver_at,
                 InFlightMessage{from, to, std::move(payload)});
  return deliver_at;
}

int MessageBus::DeliverDue() {
  int delivered = 0;
  for (;;) {
    InFlightMessage msg;
    Handler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = queue_.begin();
      if (it == queue_.end() || it->first > clock_->NowMicros()) break;
      msg = std::move(it->second);
      queue_.erase(it);
      auto ep = endpoints_.find(msg.to);
      if (ep == endpoints_.end()) continue;  // Dead endpoint: drop.
      handler = ep->second;
    }
    handler(msg.from, msg.payload);
    if (delivered_counter_ != nullptr) delivered_counter_->Add(1);
    ++delivered;
  }
  return delivered;
}

bool MessageBus::Step() {
  Micros next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    next = queue_.begin()->first;
  }
  if (next > clock_->NowMicros()) {
    clock_->SetMicros(next);
  }
  DeliverDue();
  return true;
}

size_t MessageBus::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace wedge
