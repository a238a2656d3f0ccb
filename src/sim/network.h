#ifndef EASIA_SIM_NETWORK_H_
#define EASIA_SIM_NETWORK_H_

#include <map>
#include <string>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "sim/bandwidth.h"

namespace easia::sim {

/// A simulated host: a named machine with a post-processing throughput used
/// to model server-side operation execution cost.
struct HostSpec {
  std::string name;
  /// Rate at which this host can stream dataset bytes through a
  /// post-processing code (decimal MB/s).
  double processing_mb_per_sec = 50.0;
  /// Number of operations the host can run concurrently.
  int parallel_slots = 4;
};

/// Result of one simulated transfer.
struct TransferRecord {
  std::string from;
  std::string to;
  uint64_t bytes = 0;
  double start_epoch = 0;
  double duration_seconds = 0;
};

/// A directed-link network with time-of-day bandwidth schedules. All the
/// bandwidth arithmetic the paper's evaluation performs runs through this
/// class, which also meters total traffic per link — the quantity EASIA is
/// designed to minimise.
class Network {
 public:
  explicit Network(double start_epoch = 0.0) : clock_(start_epoch) {}

  void AddHost(const HostSpec& host);
  bool HasHost(const std::string& name) const;
  Result<HostSpec> GetHost(const std::string& name) const;

  /// Adds a directed link. Transfers between unlinked hosts fail.
  void AddLink(const std::string& from, const std::string& to,
               BandwidthSchedule schedule, double latency_seconds = 0.05);

  /// Adds links in both directions with the same schedule.
  void AddSymmetricLink(const std::string& a, const std::string& b,
                        BandwidthSchedule schedule,
                        double latency_seconds = 0.05);

  /// Duration of moving `bytes` from -> to starting at `start_epoch`,
  /// without mutating any state.
  Result<double> EstimateTransfer(const std::string& from,
                                  const std::string& to, uint64_t bytes,
                                  double start_epoch) const;

  /// Performs a transfer at the network's current simulated time, advances
  /// the clock by its duration and meters the traffic.
  Result<TransferRecord> Transfer(const std::string& from,
                                  const std::string& to, uint64_t bytes);

  /// Same but does not advance the shared clock (parallel flows modelled by
  /// the caller); still meters traffic.
  Result<TransferRecord> TransferAt(const std::string& from,
                                    const std::string& to, uint64_t bytes,
                                    double start_epoch);

  /// Time for `host` to run a post-processing code over `bytes` of data.
  Result<double> ProcessingTime(const std::string& host,
                                uint64_t bytes) const;

  ManualClock& clock() { return clock_; }
  double Now() const { return clock_.Now(); }

  // --- Link-fault knobs (replication shipping & fault harnesses) ---
  /// Marks the directed link from -> to administratively down (or back
  /// up). Transfers over a down link fail kUnavailable; EstimateTransfer
  /// stays pure capacity arithmetic and ignores faults.
  Status SetLinkDown(const std::string& from, const std::string& to,
                     bool down);
  /// Per-transfer loss probability in [0, 1] on the directed link: each
  /// Transfer/TransferAt rolls the network's seeded fault RNG and fails
  /// kUnavailable on a hit (the bytes are not metered — they never
  /// arrived). Deterministic for a fixed seed and call sequence.
  Status SetLinkLossProbability(const std::string& from,
                                const std::string& to, double probability);
  /// Reseeds the fault RNG (default seed 1) so crash/loss sweeps can vary
  /// the loss pattern per trial without rebuilding the topology.
  void SeedFaults(uint64_t seed) { fault_rng_ = Random(seed); }
  /// Transfers dropped by link-down or loss faults since construction.
  uint64_t transfers_dropped() const { return transfers_dropped_; }
  /// Completed transfers (local ones included) since the last ResetMeters.
  uint64_t transfers() const { return transfers_; }

  /// Total bytes metered over the link from -> to.
  uint64_t LinkTraffic(const std::string& from, const std::string& to) const;
  /// Total bytes metered over all links.
  uint64_t TotalTraffic() const;
  void ResetMeters();

 private:
  struct Link {
    BandwidthSchedule schedule;
    double latency_seconds;
    uint64_t bytes_moved = 0;
    bool down = false;
    double loss_probability = 0.0;
  };

  const Link* FindLink(const std::string& from, const std::string& to) const;
  Link* FindLink(const std::string& from, const std::string& to);

  ManualClock clock_;
  std::map<std::string, HostSpec> hosts_;
  std::map<std::pair<std::string, std::string>, Link> links_;
  Random fault_rng_{1};
  uint64_t transfers_dropped_ = 0;
  uint64_t transfers_ = 0;
};

}  // namespace easia::sim

#endif  // EASIA_SIM_NETWORK_H_
