#include "trace.hpp"

#include <stdexcept>

namespace perfbench {

void LayerTrace::charge_handler(std::string_view type, std::uint64_t self_ns) {
  auto it = handlers_.find(type);
  if (it == handlers_.end()) it = handlers_.emplace(std::string(type), HandlerStat{}).first;
  it->second.ns += self_ns;
  it->second.calls += 1;
}

std::uint64_t LayerTrace::encode_first(const dkg::sim::MessagePtr& msg) {
  auto [it, fresh] = seen_.try_emplace(msg.get(), msg);
  if (!fresh) {
    if (!it->second.expired()) return 0;
    it->second = msg;
  }
  Clock::time_point t0 = Clock::now();
  (void)msg->wire_size();
  std::uint64_t ns = ns_between(t0, Clock::now());
  encode_ns_ += ns;
  encodes_ += 1;
  return ns;
}

void TracingContext::send(dkg::sim::NodeId to, dkg::sim::MessagePtr msg) {
  Clock::time_point t0 = Clock::now();
  std::uint64_t enc = trace_.encode_first(msg);
  inner_.send(to, std::move(msg));
  std::uint64_t total = ns_between(t0, Clock::now());
  trace_.charge_send(total - enc);
  charged_ns_ += total;
}

void TracingContext::multicast(const std::vector<dkg::sim::NodeId>& to, dkg::sim::MessagePtr msg) {
  Clock::time_point t0 = Clock::now();
  std::uint64_t enc = trace_.encode_first(msg);
  inner_.multicast(to, std::move(msg));
  std::uint64_t total = ns_between(t0, Clock::now());
  trace_.charge_send(total - enc);
  charged_ns_ += total;
}

std::string layer_group(std::string_view type) {
  if (type == "vss.send" || type == "vss.echo" || type == "vss.ready") return std::string(type);
  if (type == "vss.help" || type == "vss.ccreq" || type == "vss.ccreply" ||
      type == "vss.rec-share" || type == kRecoverType) {
    return "vss.recovery";
  }
  if (type == "dkg.in.start") return "dkg.deal";
  if (type == "dkg.send" || type == "dkg.echo" || type == "dkg.ready") return "dkg.agree";
  if (type == "dkg.lead-ch" || type == "dkg.help" || type == "dkg.in.recover" ||
      type == kTimerType) {
    return "dkg.viewchange";
  }
  throw std::runtime_error("perfbench: no layer for message type " + std::string(type));
}

}  // namespace perfbench
