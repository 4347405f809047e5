#ifndef WEDGEBLOCK_NET_SIM_NETWORK_H_
#define WEDGEBLOCK_NET_SIM_NETWORK_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/random.h"
#include "telemetry/telemetry.h"

namespace wedge {

/// Link parameters for the simulated client <-> Offchain Node network.
/// The paper's prototype ran across two Chameleon Cloud machines; this
/// model reproduces the same asynchronous request/response behaviour with
/// configurable delay, jitter, bandwidth and message drops (the latter
/// drives the omission-attack liveness experiments, §4.7).
struct NetworkConfig {
  Micros base_latency = 200;               ///< One-way propagation delay.
  Micros jitter = 50;                      ///< Uniform +/- jitter.
  uint64_t bandwidth_bytes_per_sec = 1'000'000'000;  ///< 1 GB/s LAN.
  double drop_probability = 0.0;           ///< Per-message drop chance.
};

/// Computes message transmission delays for a link.
class SimLink {
 public:
  SimLink(const NetworkConfig& config, uint64_t rng_seed)
      : config_(config), rng_(rng_seed) {}

  /// One-way delivery delay for a message of `size_bytes`, or a NotFound
  /// style drop (empty optional semantics expressed via Result).
  Micros DelayFor(size_t size_bytes);

  /// True when this message is dropped by the (possibly malicious) link.
  bool ShouldDrop();

  const NetworkConfig& config() const { return config_; }

 private:
  NetworkConfig config_;
  Rng rng_;
};

/// A deterministic discrete-event message bus over the SimClock.
///
/// Endpoints register handlers by name; Send() schedules delivery at
/// now + link delay; DeliverDue() dispatches everything whose delivery
/// time has passed. Used by liveness/omission tests and the replication
/// model — the hot stage-1 path measures real compute and bypasses it.
class MessageBus {
 public:
  using Handler = std::function<void(const std::string& from, const Bytes&)>;

  /// With `telemetry`, the bus records a `wedge.net.delivery_delay_us`
  /// histogram plus msgs_sent / msgs_delivered / msgs_dropped counters.
  MessageBus(SimClock* clock, const NetworkConfig& config, uint64_t seed,
             Telemetry* telemetry = nullptr)
      : clock_(clock), link_(config, seed) {
    if (telemetry != nullptr) {
      sent_counter_ = telemetry->metrics.GetCounter("wedge.net.msgs_sent");
      delivered_counter_ =
          telemetry->metrics.GetCounter("wedge.net.msgs_delivered");
      dropped_counter_ =
          telemetry->metrics.GetCounter("wedge.net.msgs_dropped");
      delay_hist_ =
          telemetry->metrics.GetHistogram("wedge.net.delivery_delay_us");
    }
  }

  /// Registers (or replaces) the handler for endpoint `name`.
  void RegisterEndpoint(const std::string& name, Handler handler);

  /// Schedules delivery of `payload` to endpoint `to`. Returns the
  /// scheduled delivery time, or Unavailable when the (possibly
  /// malicious) link dropped the message.
  Result<Micros> Send(const std::string& from, const std::string& to,
                      Bytes payload);

  /// Delivers every message whose delivery time has passed on the clock.
  /// Returns the number of messages delivered.
  int DeliverDue();

  /// Advances the clock to the next scheduled delivery (if any) and
  /// delivers it. Returns false when no messages are in flight.
  bool Step();

  size_t InFlight() const;

 private:
  struct InFlightMessage {
    std::string from;
    std::string to;
    Bytes payload;
  };

  SimClock* clock_;
  SimLink link_;
  Counter* sent_counter_ = nullptr;
  Counter* delivered_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Histogram* delay_hist_ = nullptr;
  mutable std::mutex mu_;
  std::map<std::string, Handler> endpoints_;
  std::multimap<Micros, InFlightMessage> queue_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_NET_SIM_NETWORK_H_
