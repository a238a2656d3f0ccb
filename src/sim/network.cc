#include "sim/network.h"

namespace easia::sim {

void Network::AddHost(const HostSpec& host) { hosts_[host.name] = host; }

bool Network::HasHost(const std::string& name) const {
  return hosts_.find(name) != hosts_.end();
}

Result<HostSpec> Network::GetHost(const std::string& name) const {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) {
    return Status::NotFound("sim: unknown host '" + name + "'");
  }
  return it->second;
}

void Network::AddLink(const std::string& from, const std::string& to,
                      BandwidthSchedule schedule, double latency_seconds) {
  links_[{from, to}] = Link{std::move(schedule), latency_seconds, 0};
}

void Network::AddSymmetricLink(const std::string& a, const std::string& b,
                               BandwidthSchedule schedule,
                               double latency_seconds) {
  AddLink(a, b, schedule, latency_seconds);
  AddLink(b, a, std::move(schedule), latency_seconds);
}

const Network::Link* Network::FindLink(const std::string& from,
                                       const std::string& to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : &it->second;
}

Network::Link* Network::FindLink(const std::string& from,
                                 const std::string& to) {
  auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : &it->second;
}

Result<double> Network::EstimateTransfer(const std::string& from,
                                         const std::string& to,
                                         uint64_t bytes,
                                         double start_epoch) const {
  if (from == to) return 0.0;  // local move, free
  const Link* link = FindLink(from, to);
  if (link == nullptr) {
    return Status::Unavailable("sim: no link " + from + " -> " + to);
  }
  return TransferDuration(link->schedule, bytes, start_epoch,
                          link->latency_seconds);
}

Result<TransferRecord> Network::Transfer(const std::string& from,
                                         const std::string& to,
                                         uint64_t bytes) {
  EASIA_ASSIGN_OR_RETURN(TransferRecord rec,
                         TransferAt(from, to, bytes, clock_.Now()));
  clock_.Advance(rec.duration_seconds);
  return rec;
}

Result<TransferRecord> Network::TransferAt(const std::string& from,
                                           const std::string& to,
                                           uint64_t bytes,
                                           double start_epoch) {
  if (!HasHost(from)) return Status::NotFound("sim: unknown host " + from);
  if (!HasHost(to)) return Status::NotFound("sim: unknown host " + to);
  TransferRecord rec;
  rec.from = from;
  rec.to = to;
  rec.bytes = bytes;
  rec.start_epoch = start_epoch;
  if (from == to) {
    rec.duration_seconds = 0;
    ++transfers_;
    return rec;
  }
  Link* link = FindLink(from, to);
  if (link == nullptr) {
    return Status::Unavailable("sim: no link " + from + " -> " + to);
  }
  if (link->down) {
    ++transfers_dropped_;
    return Status::Unavailable("sim: link " + from + " -> " + to +
                               " is down");
  }
  if (link->loss_probability > 0 &&
      fault_rng_.NextDouble() < link->loss_probability) {
    ++transfers_dropped_;
    return Status::Unavailable("sim: transfer lost on " + from + " -> " +
                               to);
  }
  EASIA_ASSIGN_OR_RETURN(
      rec.duration_seconds,
      TransferDuration(link->schedule, bytes, start_epoch,
                       link->latency_seconds));
  link->bytes_moved += bytes;
  ++transfers_;
  return rec;
}

Status Network::SetLinkDown(const std::string& from, const std::string& to,
                            bool down) {
  Link* link = FindLink(from, to);
  if (link == nullptr) {
    return Status::NotFound("sim: no link " + from + " -> " + to);
  }
  link->down = down;
  return Status::OK();
}

Status Network::SetLinkLossProbability(const std::string& from,
                                       const std::string& to,
                                       double probability) {
  if (probability < 0.0 || probability > 1.0) {
    return Status::InvalidArgument("sim: loss probability out of [0, 1]");
  }
  Link* link = FindLink(from, to);
  if (link == nullptr) {
    return Status::NotFound("sim: no link " + from + " -> " + to);
  }
  link->loss_probability = probability;
  return Status::OK();
}

Result<double> Network::ProcessingTime(const std::string& host,
                                       uint64_t bytes) const {
  EASIA_ASSIGN_OR_RETURN(HostSpec spec, GetHost(host));
  if (spec.processing_mb_per_sec <= 0) {
    return Status::FailedPrecondition("sim: host '" + host +
                                      "' has no processing capacity");
  }
  return static_cast<double>(bytes) /
         (spec.processing_mb_per_sec * static_cast<double>(kMegabyte));
}

uint64_t Network::LinkTraffic(const std::string& from,
                              const std::string& to) const {
  const Link* link = FindLink(from, to);
  return link == nullptr ? 0 : link->bytes_moved;
}

uint64_t Network::TotalTraffic() const {
  uint64_t total = 0;
  for (const auto& [key, link] : links_) total += link.bytes_moved;
  return total;
}

void Network::ResetMeters() {
  for (auto& [key, link] : links_) link.bytes_moved = 0;
  transfers_ = 0;
}

}  // namespace easia::sim
