// Outside-in layer tracing for one DKG run.
//
// TracedNode<Base> wraps a protocol node (DkgNode or one of its Byzantine
// subclasses) without touching the library: it times every on_message /
// on_timer / on_recover call into the node, keyed by message type, and hands
// the node a TracingContext that times the calls the node makes back into
// the simulator (send / multicast) and, separately, the first wire_size() of
// each outgoing message (the wire encode). Because the wrapper still IS a
// DkgNode, DkgRunner::run_to_completion's dynamic_cast keeps working.
//
// Attribution: a handler's self time is its duration minus the send and
// encode time spent inside it. Self times, sim send time and encode time
// never overlap, so the event loop's own cost (queue, dispatch, crash and
// timer bookkeeping, the completion predicate) is the explicit remainder
//   loop = run wall - sum(handler self) - send - encode.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/node.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct HandlerStat {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Pseudo message types for the non-message callbacks.
inline constexpr std::string_view kTimerType = "dkg.timer";
inline constexpr std::string_view kRecoverType = "dkg.recover";

/// Accumulated spans of one traced DKG run.
class LayerTrace {
 public:
  void charge_handler(std::string_view type, std::uint64_t self_ns);
  /// Times the first wire_size() of `msg` (later calls hit the message's own
  /// memo and cost nothing); returns the nanoseconds spent, 0 on repeats.
  std::uint64_t encode_first(const dkg::sim::MessagePtr& msg);
  void charge_send(std::uint64_t ns) { send_ns_ += ns; }

  const std::map<std::string, HandlerStat, std::less<>>& handlers() const { return handlers_; }
  std::uint64_t send_ns() const { return send_ns_; }
  std::uint64_t encode_ns() const { return encode_ns_; }
  std::uint64_t encodes() const { return encodes_; }

 private:
  std::map<std::string, HandlerStat, std::less<>> handlers_;
  std::uint64_t send_ns_ = 0;
  std::uint64_t encode_ns_ = 0;
  std::uint64_t encodes_ = 0;
  // Address -> weak ref: an expired entry means the address was reused by a
  // new message, which then still counts as unseen.
  std::unordered_map<const dkg::sim::Message*, std::weak_ptr<const dkg::sim::Message>> seen_;
};

/// Forwarding Context that charges the node's calls into the simulator.
class TracingContext final : public dkg::sim::Context {
 public:
  TracingContext(dkg::sim::Context& inner, LayerTrace& trace) : inner_(inner), trace_(trace) {}

  dkg::sim::NodeId self() const override { return inner_.self(); }
  std::size_t node_count() const override { return inner_.node_count(); }
  dkg::sim::Time now() const override { return inner_.now(); }
  void send(dkg::sim::NodeId to, dkg::sim::MessagePtr msg) override;
  void multicast(const std::vector<dkg::sim::NodeId>& to, dkg::sim::MessagePtr msg) override;
  void start_timer(dkg::sim::TimerId id, dkg::sim::Time after) override {
    inner_.start_timer(id, after);
  }
  void stop_timer(dkg::sim::TimerId id) override { inner_.stop_timer(id); }
  dkg::crypto::Drbg& rng() override { return inner_.rng(); }

  /// Nanoseconds spent in send/multicast (encode included) so far.
  std::uint64_t charged_ns() const { return charged_ns_; }

 private:
  dkg::sim::Context& inner_;
  LayerTrace& trace_;
  std::uint64_t charged_ns_ = 0;
};

template <class Base>
class TracedNode final : public Base {
 public:
  template <class... Args>
  explicit TracedNode(LayerTrace& trace, Args&&... args)
      : Base(std::forward<Args>(args)...), trace_(trace) {}

  void on_message(dkg::sim::Context& ctx, dkg::sim::NodeId from,
                  const dkg::sim::MessagePtr& msg) override {
    timed(ctx, msg->type(), [&](dkg::sim::Context& c) { Base::on_message(c, from, msg); });
  }
  void on_timer(dkg::sim::Context& ctx, dkg::sim::TimerId id) override {
    timed(ctx, kTimerType, [&](dkg::sim::Context& c) { Base::on_timer(c, id); });
  }
  void on_recover(dkg::sim::Context& ctx) override {
    timed(ctx, kRecoverType, [&](dkg::sim::Context& c) { Base::on_recover(c); });
  }

 private:
  template <class Fn>
  void timed(dkg::sim::Context& ctx, std::string_view type, Fn&& fn) {
    TracingContext tctx(ctx, trace_);
    Clock::time_point t0 = Clock::now();
    fn(tctx);
    std::uint64_t total = ns_between(t0, Clock::now());
    trace_.charge_handler(type, total - tctx.charged_ns());
  }

  LayerTrace& trace_;
};

/// The layer a handled message type belongs to, with the metric group it
/// is reported under ("vss.echo", "dkg.agree", ...).
std::string layer_group(std::string_view type);

}  // namespace perfbench
