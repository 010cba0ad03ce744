// The DKG benchmark program. It drives HybridDKG through the library's public
// API only (core::DkgRunner, DkgNode, sim::Context, FaultPlan,
// ByzantineLeaderNode, SigVerifyStats, the crypto entry points) and prints
// one JSON line per DKG plus a summary line; perfbench/run.py turns those
// into the benchmark's metrics and checks them.
//
//   dkg_perfbench run      --workload W --seed S --seconds T --trace 0|1
//   dkg_perfbench setup    --workload W --seed S     (set-up time only)
//   dkg_perfbench record   --workload W              (deterministic counts per pool seed)
//   dkg_perfbench selftest                           (traced == untraced at n=7)
//
// A workload is a closed loop: one DKG at a time, each on a seed from the
// workload's fixed pool, visited from an offset derived from --seed. A run
// lasts at least --seconds and ends after a whole pass over the pool.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "crypto/sigverify.hpp"
#include "dkg/byzantine_leader.hpp"
#include "dkg/runner.hpp"
#include "engine/verify_pool.hpp"
#include "probe.hpp"
#include "sim/faultplan.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using dkg::core::ByzantineLeaderNode;
using dkg::core::DkgNode;
using dkg::core::LeaderFault;
using dkg::crypto::Group;
using dkg::vss::CommitmentMode;

const Clock::time_point kProcessStart = Clock::now();

struct Workload {
  const char* name;
  const Group& (*group)();
  CommitmentMode mode;
  std::size_t n, t, f;
  /// Node 1 is a mute Byzantine leader and FaultPlan::random places
  /// crash/recover windows among nodes 2..n.
  bool churn;
  std::uint64_t seed_base;
  std::size_t pool;  // DKG seeds seed_base .. seed_base + pool - 1
};

const Workload kWorkloads[] = {
    {"optimistic-full-ec256", &Group::ec256, CommitmentMode::Full, 19, 6, 0, false, 3100, 8},
    {"optimistic-hashed-tiny256", &Group::tiny256, CommitmentMode::Hashed, 28, 9, 0, false, 5000,
     4},
    {"pessimistic-churn-mod1024", &Group::mod1024, CommitmentMode::Hashed, 21, 6, 1, true, 3300, 7},
};

/// n=7 miniatures of the three workloads: the warm-up of each workload's
/// set-up and the cases of the self-test (both backends).
const Workload kMiniatures[] = {
    {"mini-full-ec256", &Group::ec256, CommitmentMode::Full, 7, 2, 0, false, 700, 1},
    {"mini-hashed-tiny256", &Group::tiny256, CommitmentMode::Hashed, 7, 2, 0, false, 710, 1},
    {"mini-churn-mod1024", &Group::mod1024, CommitmentMode::Hashed, 7, 1, 1, true, 720, 1},
};

// Timed DKGs run on one verify thread: on a shared 4-core host, the wall
// time of a DKG that forks onto pool workers also depends on when the other
// cores are free. On ec256 that spread 2-5x wider than single-threaded
// DKGs. The traced run adds a twin of each DKG on kPoolJobs verify threads
// (the caller plus 3 workers) for the engine layer's metrics.
constexpr unsigned kPoolJobs = 4;

// Churn shape: 4 windows, at most f down at once, all inside the VSS phase
// (an honest DKG completes by ~450 ticks; the mute leader's timeout is 6060).
constexpr std::size_t kChurnWindows = 4;
constexpr dkg::sim::Time kChurnHorizon = 1'200;
constexpr dkg::sim::Time kChurnMinOutage = 101;
constexpr dkg::sim::Time kChurnMaxOutage = 404;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct CryptoCounts {
  std::uint64_t sig_full = 0, sig_cached = 0, sig_batched = 0, point_full = 0, point_memo = 0;

  static CryptoCounts between(const dkg::crypto::SigVerifyStats& a,
                              const dkg::crypto::SigVerifyStats& b) {
    return {b.cache_misses - a.cache_misses, b.cache_hits - a.cache_hits,
            b.batch_items - a.batch_items, b.point_memo_misses - a.point_memo_misses,
            b.point_memo_hits - a.point_memo_hits};
  }
};

struct DkgResult {
  std::uint64_t seed = 0;
  bool traced = false;
  unsigned jobs = 1;
  bool completed = false;
  bool consistent = false;
  double wall_ms = 0;
  double cpu_ms = 0;
  /// Host-speed readings (calibrate.hpp): the mean of the bracket
  /// references just before and just after the DKG, the median tick
  /// reference inside it, and the time the tick handler took inside it.
  double ref_us = 0, tick_us = 0, ticked_ms = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t msgs = 0, bytes = 0, ticks = 0, dropped = 0, rejected = 0, final_view = 0;
  std::size_t crashes = 0;
  dkg::sim::Metrics::TypeMap by_type;
  CryptoCounts crypto;
  LayerTrace trace;

  /// The names of the fields that differ from `o`, comma-separated (empty
  /// when none does): everything that must not depend on tracing or timing.
  std::string differences(const DkgResult& o) const {
    std::string out;
    auto note = [&](bool same, const char* field) {
      if (!same) out += out.empty() ? field : std::string(",") + field;
    };
    bool same_types = by_type.size() == o.by_type.size();
    for (const auto& [type, s] : by_type) {
      auto it = o.by_type.find(type);
      same_types = same_types && it != o.by_type.end() && it->second.count == s.count &&
                   it->second.bytes == s.bytes;
    }
    note(completed == o.completed, "completed");
    note(consistent == o.consistent, "consistent");
    note(msgs == o.msgs, "msgs");
    note(bytes == o.bytes, "bytes");
    note(ticks == o.ticks, "ticks");
    note(same_types, "by_type");
    note(dropped == o.dropped, "dropped");
    note(rejected == o.rejected, "rejected");
    note(final_view == o.final_view, "final_view");
    note(crashes == o.crashes, "crashes");
    // With verify-pool workers, two threads can miss the signature cache on
    // the same signature at once, so only the number of lookups is fixed.
    if (jobs > 1 || o.jobs > 1) {
      note(crypto.sig_full + crypto.sig_cached == o.crypto.sig_full + o.crypto.sig_cached,
           "sig_lookups");
    } else {
      note(crypto.sig_full == o.crypto.sig_full, "sig_full");
      note(crypto.sig_cached == o.crypto.sig_cached, "sig_cached");
    }
    note(crypto.sig_batched == o.crypto.sig_batched, "sig_batched");
    note(crypto.point_full == o.crypto.point_full, "point_full");
    note(crypto.point_memo == o.crypto.point_memo, "point_memo");
    return out;
  }
};

/// Runs one DKG of workload `w` on `seed`. `on_ready` fires after set-up,
/// just before start_all(); with `setup_only` the DKG is not run. Bracket
/// references run just before and just after the timed interval.
/// Verification uses `jobs` threads.
DkgResult run_dkg(const Workload& w, std::uint64_t seed, bool traced,
                  const std::function<void()>& on_ready = {}, bool setup_only = false,
                  unsigned jobs = 1) {
  dkg::engine::ScopedVerifyJobs scoped_jobs(jobs);
  DkgResult r;
  r.seed = seed;
  r.traced = traced;
  r.jobs = jobs;
  const dkg::crypto::SigVerifyStats before = dkg::crypto::sig_verify_stats();
  {
    dkg::core::RunnerConfig cfg;
    cfg.grp = &w.group();
    cfg.n = w.n;
    cfg.t = w.t;
    cfg.f = w.f;
    cfg.seed = seed;
    cfg.mode = w.mode;
    cfg.delay_lo = 10;
    cfg.delay_hi = 100;
    dkg::core::DkgRunner runner(cfg);
    std::set<dkg::sim::NodeId> byzantine;
    std::size_t min_outputs = 0;  // all honest nodes
    if (w.churn) {
      if (traced) {
        runner.replace_node(1, std::make_unique<TracedNode<ByzantineLeaderNode>>(
                                   r.trace, runner.params(), 1, LeaderFault::Mute));
      } else {
        runner.replace_node(
            1, std::make_unique<ByzantineLeaderNode>(runner.params(), 1, LeaderFault::Mute));
      }
      byzantine.insert(1);
      std::vector<dkg::sim::NodeId> candidates;
      for (dkg::sim::NodeId i = 2; i <= w.n; ++i) candidates.push_back(i);
      dkg::crypto::Drbg rng(splitmix64(seed ^ 0x636875726eULL));  // "churn"
      dkg::sim::FaultPlan plan =
          dkg::sim::FaultPlan::random(candidates, w.f, kChurnWindows, kChurnHorizon,
                                      kChurnMinOutage, kChurnMaxOutage, rng);
      std::set<dkg::sim::NodeId> victims;
      for (const dkg::sim::CrashWindow& cw : plan.windows()) victims.insert(cw.node);
      runner.apply_faults(plan);
      r.crashes = plan.crash_count();
      // Completion quorum: the never-crashed honest nodes.
      min_outputs = (w.n - byzantine.size()) - victims.size();
    }
    if (traced) {
      for (dkg::sim::NodeId i = 1; i <= w.n; ++i) {
        if (byzantine.count(i) != 0) continue;
        runner.simulator().set_node(i, std::make_unique<TracedNode<DkgNode>>(
                                           r.trace, runner.params(), i));
      }
    }
    if (on_ready) on_ready();
    if (setup_only) return r;
    const double ref_before = reference_us();

    const double c0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    runner.start_all();
    r.completed = runner.run_to_completion(min_outputs);
    const Clock::time_point t1 = Clock::now();
    r.wall_ns = ns_between(t0, t1);
    r.cpu_ms = (cpu_seconds() - c0) * 1e3;
    r.wall_ms = static_cast<double>(r.wall_ns) * 1e-6;
    r.ref_us = (ref_before + reference_us()) / 2;
    const TickStats ticks = ticks_between(t0, t1);
    r.tick_us = ticks.median_us;
    r.ticked_ms = ticks.total_us * 1e-3;

    r.consistent = r.completed && runner.outputs_consistent();
    const dkg::sim::Metrics& m = runner.simulator().metrics();
    r.msgs = m.total_messages();
    r.bytes = m.total_bytes();
    r.dropped = m.dropped_messages();
    r.ticks = runner.simulator().now();
    r.by_type = m.by_type();
    for (dkg::sim::NodeId id : runner.honest_nodes()) r.rejected += runner.dkg_node(id).rejected();
    for (dkg::sim::NodeId id : runner.completed_nodes()) {
      r.final_view = std::max(r.final_view, runner.dkg_node(id).output().view);
    }
  }
  // After teardown: VSS instances fold their deferred checks into the engine
  // counters on destruction, so the deltas match at every verify-jobs.
  r.crypto = CryptoCounts::between(before, dkg::crypto::sig_verify_stats());
  return r;
}

// --- JSON output -----------------------------------------------------------

class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  Json& u64(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& str(const std::string& k, const std::string& v) { return raw(k, "\"" + v + "\""); }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.text()); }
  std::string text() const { return "{" + body_.str() + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    if (!first_) body_ << ",";
    first_ = false;
    body_ << "\"" << k << "\":" << v;
    return *this;
  }
  std::ostringstream body_;
  bool first_ = true;
};

/// Per-layer spans of a traced DKG, grouped as the benchmark reports them.
/// sim.loop + sim.send + wire.encode + vss.total + dkg.total is exactly the
/// run's wall time. Recovery and view change get call counts but no time of
/// their own: their time is the rest of vss.total and dkg.total, because a
/// separate metric would read exactly 0 on the workloads that never run them.
Json layer_json(const DkgResult& r) {
  std::map<std::string, HandlerStat> groups;
  for (const char* g : {"vss.send", "vss.echo", "vss.ready", "vss.recovery", "dkg.deal",
                        "dkg.agree", "dkg.viewchange"}) {
    groups[g] = HandlerStat{};
  }
  std::uint64_t vss_ns = 0, dkg_ns = 0, events = 0;
  for (const auto& [type, s] : r.trace.handlers()) {
    const std::string group = layer_group(type);
    HandlerStat& g = groups[group];
    g.ns += s.ns;
    g.calls += s.calls;
    (group.compare(0, 4, "vss.") == 0 ? vss_ns : dkg_ns) += s.ns;
    events += s.calls;
  }
  const std::uint64_t attributed = vss_ns + dkg_ns + r.trace.send_ns() + r.trace.encode_ns();
  // The loop remainder is exact up to clock reads, which keep it positive.
  const std::uint64_t loop_ns = r.wall_ns > attributed ? r.wall_ns - attributed : 0;
  auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; };
  Json j;
  j.u64("sim.events", events)
      .num("sim.loop_ms", ms(loop_ns))
      .num("sim.send_ms", ms(r.trace.send_ns()))
      .u64("sim.dropped", r.dropped)
      .num("wire.encode_ms", ms(r.trace.encode_ns()))
      .u64("wire.encodes", r.trace.encodes())
      .num("vss.total_ms", ms(vss_ns))
      .num("dkg.total_ms", ms(dkg_ns));
  for (const char* g : {"vss.send", "vss.echo", "vss.ready", "dkg.deal", "dkg.agree"}) {
    j.num(std::string(g) + "_ms", ms(groups[g].ns));
  }
  for (const auto& [name, s] : groups) j.u64(name + ".calls", s.calls);
  j.u64("dkg.rejected", r.rejected).num("trace.wall_ms", ms(r.wall_ns));
  return j;
}

std::string dkg_line(const Workload& w, const DkgResult& r) {
  Json crypto;
  crypto.u64("sig_full", r.crypto.sig_full)
      .u64("sig_cached", r.crypto.sig_cached)
      .u64("sig_batched", r.crypto.sig_batched)
      .u64("point_full", r.crypto.point_full)
      .u64("point_memo", r.crypto.point_memo);
  Json j;
  j.str("event", "dkg")
      .str("workload", w.name)
      .u64("seed", r.seed)
      .flag("traced", r.traced)
      .u64("jobs", r.jobs)
      .flag("completed", r.completed)
      .flag("consistent", r.consistent)
      .num("wall_ms", r.wall_ms)
      .num("cpu_ms", r.cpu_ms)
      .num("ref_us", r.ref_us)
      .num("tick_us", r.tick_us)
      .num("ticked_ms", r.ticked_ms)
      .u64("msgs", r.msgs)
      .u64("bytes", r.bytes)
      .u64("ticks", r.ticks)
      .u64("dropped", r.dropped)
      .u64("rejected", r.rejected)
      .u64("final_view", r.final_view)
      .u64("crashes", r.crashes)
      .obj("crypto", crypto);
  if (r.traced) j.obj("layers", layer_json(r));
  return j.text();
}

void emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// --- modes -----------------------------------------------------------------

/// Untraced and traced runs of the same seed must agree on every
/// deterministic number; the trace's layer times must sum to its wall time.
bool self_test_case(const Workload& w, std::uint64_t seed) {
  DkgResult plain = run_dkg(w, seed, false);
  DkgResult traced = run_dkg(w, seed, true);
  const std::string diff = plain.differences(traced);
  bool ok = plain.completed && plain.consistent && diff.empty();
  std::uint64_t handled = 0;
  for (const auto& [type, s] : traced.trace.handlers()) handled += s.ns;
  ok = ok && handled + traced.trace.send_ns() + traced.trace.encode_ns() <= traced.wall_ns;
  emit(Json()
           .str("event", "selftest")
           .str("case", w.name)
           .u64("seed", seed)
           .flag("ok", ok)
           .str("differs", diff)
           .u64("msgs", plain.msgs)
           .u64("bytes", plain.bytes)
           .u64("ticks", plain.ticks)
           .text());
  return ok;
}

bool self_test() {
  bool ok = true;
  for (const Workload& w : kMiniatures) ok = self_test_case(w, w.seed_base) && ok;
  return ok;
}

/// Process-level set-up shared by `setup` and `run`: start the verify pool
/// and run the n=7 miniature of the workload's shape once, which builds the
/// group singletons and fills the lazy global caches (fixed-base tables,
/// Montgomery contexts, decode cache).
void set_up(std::size_t idx) {
  dkg::engine::VerifyPool::instance().configure(kPoolJobs);
  DkgResult warm = run_dkg(kMiniatures[idx], kMiniatures[idx].seed_base, false);
  if (!warm.completed || !warm.consistent) throw std::runtime_error("warm-up DKG failed");
}

/// This process's set-up time and the host-speed readings for it: the
/// ticks during set-up and a bracket reference right after it.
struct SetupTime {
  double setup_s = 0, ref_us = 0, tick_us = 0, ticked_s = 0;

  /// Call at the end of set-up.
  void mark() {
    const Clock::time_point now = Clock::now();
    setup_s = std::chrono::duration<double>(now - kProcessStart).count();
    const TickStats ticks = ticks_between(kProcessStart, now);
    tick_us = ticks.median_us;
    ticked_s = ticks.total_us * 1e-6;
    ref_us = reference_us();
  }
  void add_to(Json& j) const {
    j.num("setup_s", setup_s)
        .num("setup_ref_us", ref_us)
        .num("setup_tick_us", tick_us)
        .num("setup_ticked_s", ticked_s);
  }
};

int mode_setup(const Workload& w, std::size_t idx, std::uint64_t seed) {
  set_up(idx);
  SetupTime setup;
  run_dkg(w, w.seed_base + splitmix64(seed) % w.pool, false, [&] { setup.mark(); },
          /*setup_only=*/true);
  Json j;
  j.str("event", "setup");
  setup.add_to(j);
  emit(j.text());
  return 0;
}

int mode_record(const Workload& w, std::size_t idx) {
  set_up(idx);
  for (std::size_t k = 0; k < w.pool; ++k) emit(dkg_line(w, run_dkg(w, w.seed_base + k, false)));
  return 0;
}

int mode_run(const Workload& w, std::size_t idx, std::uint64_t seed, double seconds, bool trace) {
  set_up(idx);
  SetupTime setup;
  const std::size_t start = splitmix64(seed) % w.pool;
  Clock::time_point t0{};
  for (std::size_t j = 0;; ++j) {
    const std::uint64_t dkg_seed = w.seed_base + (start + j) % w.pool;
    auto mark_setup = [&] {
      if (j != 0) return;
      setup.mark();
      t0 = Clock::now();
    };
    if (!trace) {
      emit(dkg_line(w, run_dkg(w, dkg_seed, false, mark_setup)));
    } else {
      // Pairs on one seed, alternating which side runs first, then the
      // pooled twin.
      bool traced_first = j % 2 == 1;
      DkgResult a = run_dkg(w, dkg_seed, traced_first, mark_setup);
      DkgResult b = run_dkg(w, dkg_seed, !traced_first);
      DkgResult pooled = run_dkg(w, dkg_seed, false, {}, false, kPoolJobs);
      const DkgResult& plain = traced_first ? b : a;
      const DkgResult& traced = traced_first ? a : b;
      emit(dkg_line(w, plain));
      emit(dkg_line(w, traced));
      emit(dkg_line(w, pooled));
      emit(Json()
               .str("event", "pair")
               .u64("seed", dkg_seed)
               .str("differs", plain.differences(traced))
               .str("pooled_differs", plain.differences(pooled))
               .text());
    }
    double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    // Whole passes over the pool only, so every run's medians cover the
    // same DKGs.
    if ((j + 1) % w.pool == 0 && elapsed >= seconds) break;
  }
  Json summary;
  summary.str("event", "summary").num("peak_rss_mb", peak_rss_mb());
  setup.add_to(summary);
  if (trace) {
    CryptoUnitCosts c = [&] {
      dkg::engine::ScopedVerifyJobs one_job(1);
      return probe_crypto(w.group(), w.n, w.t, splitmix64(seed), 1.5);
    }();
    summary.obj("probe", Json()
                             .num("crypto.verify_point_us", c.verify_point_us)
                             .num("crypto.verify_poly_us", c.verify_poly_us)
                             .num("crypto.schnorr_verify_us", c.schnorr_verify_us)
                             .num("crypto.commit_ms", c.commit_ms)
                             .num("crypto.decode_us", c.decode_us));
    summary.flag("selftest", self_test());
  }
  emit(summary.text());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: dkg_perfbench run|setup|record|selftest [--workload W] [--seed S]\n"
               "                     [--seconds T] [--trace 0|1]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else {
      return usage();
    }
  }
  if (mode == "selftest") return self_test() ? 0 : 1;
  for (std::size_t idx = 0; idx < std::size(kWorkloads); ++idx) {
    const Workload& w = kWorkloads[idx];
    if (workload != w.name) continue;
    if (mode == "run" || mode == "setup") start_ticks();
    if (mode == "run") return mode_run(w, idx, seed, seconds, trace);
    if (mode == "setup") return mode_setup(w, idx, seed);
    if (mode == "record") return mode_record(w, idx);
    return usage();
  }
  return usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dkg_perfbench: %s\n", e.what());
    return 1;
  }
}
