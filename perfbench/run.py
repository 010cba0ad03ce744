#!/usr/bin/env python3
"""DKG benchmark: builds perfbench/dkg_perfbench from the repo's sources,
runs one workload for --seconds, checks every DKG, and prints one JSON line.

    python3 perfbench/run.py --workload optimistic-full-ec256 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test          # traced == untraced at n=7, both backends
    python3 perfbench/run.py --record             # rewrite perfbench/expected.json

Run it from the repository root. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones (see perfbench/README.md). Times are reported at
a fixed reference speed of the host, measured next to every DKG.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dkg_perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = [
    "optimistic-full-ec256",
    "optimistic-hashed-tiny256",
    "pessimistic-churn-mod1024",
]
# Extra set-up-only processes per run; with the measured process's own
# set-up, setup_s is the median of seven.
SETUP_PROCESSES = 6
# Time metrics are stated at one fixed host speed (calibrate.hpp): a time t,
# less the tick handler's share of it, measured where the bracket reference
# took r us and the median tick reference k us, is reported as
# t / sqrt(r / REFERENCE_US * k / TICK_US). The constants only set the
# scale; they are about the median readings on the shared 4-core host of
# FIRST_NUMBERS.md.
REFERENCE_US = 10000.0
TICK_US = 85.0
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160

END_TO_END_UNITS = {
    "dkg_norm_ms": "ms",
    "dkg_cpu_norm_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "msgs_per_dkg": "count",
    "bytes_per_dkg": "bytes",
    "sim_latency_ticks": "ticks",
}
# Traced-run layer times that sum to trace.wall_ms, and the named parts of
# the vss and dkg totals (recovery and view change are the rest of each).
LAYER_TIMES = ["sim.loop_ms", "sim.send_ms", "wire.encode_ms", "vss.total_ms", "dkg.total_ms"]
LAYER_PARTS = ["vss.send_ms", "vss.echo_ms", "vss.ready_ms", "dkg.deal_ms", "dkg.agree_ms"]
LAYER_COUNTS = [
    "sim.events", "sim.dropped", "wire.encodes",
    "vss.send.calls", "vss.echo.calls", "vss.ready.calls", "vss.recovery.calls",
    "dkg.deal.calls", "dkg.agree.calls", "dkg.viewchange.calls", "dkg.rejected",
]
CRYPTO_COUNTS = ["sig_full", "sig_cached", "sig_batched", "point_full", "point_memo"]
PROBES = {
    "crypto.verify_point_us": "us",
    "crypto.verify_poly_us": "us",
    "crypto.schnorr_verify_us": "us",
    "crypto.commit_ms": "ms",
    "crypto.decode_us": "us",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds dkg_perfbench; False if either step fails."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"perfbench: build step failed: {exc}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def call_binary(*args):
    """Runs dkg_perfbench and returns its JSON lines; raises on any failure."""
    proc = subprocess.run([BINARY, *args], stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"dkg_perfbench {' '.join(args)} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def metric(value, unit):
    return {"value": value, "unit": unit}


def dkg_failures(rec, expected):
    """Why one DKG record fails the correctness check (empty if it passes)."""
    why = []
    if not rec["completed"]:
        why.append("did not complete within the event budget")
    if not rec["consistent"]:
        why.append("outputs_consistent() is false")
    want = expected.get(str(rec["seed"]))
    if want is None:
        why.append("no recorded counts for this seed")
    else:
        for key in ("msgs", "bytes", "ticks"):
            if rec[key] != want[key]:
                why.append(f"{key}={rec[key]} but {want[key]} recorded")
    if rec["traced"]:
        layers = rec["layers"]
        parts = sum(layers[name] for name in LAYER_TIMES)
        if abs(parts - layers["trace.wall_ms"]) > 1e-6 * max(1.0, layers["trace.wall_ms"]):
            why.append(f"layer times sum to {parts} ms, run wall is {layers['trace.wall_ms']} ms")
    return why


def mean(values):
    return sum(values) / len(values)


def at_reference_speed(value, ticked, ref_us, tick_us):
    return (value - ticked) / math.sqrt(ref_us / REFERENCE_US * tick_us / TICK_US)


def setup_time(rec):
    return at_reference_speed(rec["setup_s"], rec["setup_ticked_s"], rec["setup_ref_us"],
                              rec["setup_tick_us"])


def run_workload(args):
    if not build():
        return 1
    with open(EXPECTED) as f:
        expected = json.load(f)[args.workload]
    seed = str(args.seed)
    setups = [setup_time(call_binary("setup", "--workload", args.workload, "--seed", seed)[-1])
              for _ in range(SETUP_PROCESSES)]
    lines = call_binary("run", "--workload", args.workload, "--seed", seed,
                   "--seconds", str(args.seconds), "--trace", str(args.trace))
    summary = lines[-1]
    if summary.get("event") != "summary":
        raise RuntimeError("dkg_perfbench printed no summary")
    dkgs = [rec for rec in lines if rec["event"] == "dkg"]
    plain = [rec for rec in dkgs if not rec["traced"] and rec["jobs"] == 1]
    traced = [rec for rec in dkgs if rec["traced"]]
    pooled = [rec for rec in dkgs if rec["jobs"] > 1]

    failed = 0
    for rec in dkgs:
        why = dkg_failures(rec, expected)
        if why:
            failed += 1
            log(f"perfbench: FAILED DKG seed={rec['seed']} traced={rec['traced']}: "
                + "; ".join(why))
    correct = failed == 0 and bool(plain)
    for pair in (rec for rec in lines if rec["event"] == "pair"):
        for key, twin in (("differs", "traced"), ("pooled_differs", "pooled")):
            if pair[key]:
                correct = False
                log(f"perfbench: {twin} and plain runs of seed={pair['seed']} differ in "
                    + pair[key])
    if args.trace and not summary.get("selftest", False):
        correct = False
        log("perfbench: self-test failed")

    if not args.trace:
        metrics = {
            "dkg_norm_ms": statistics.median(
                at_reference_speed(r["wall_ms"], r["ticked_ms"], r["ref_us"], r["tick_us"])
                for r in plain),
            "dkg_cpu_norm_ms": statistics.median(
                at_reference_speed(r["cpu_ms"], r["ticked_ms"], r["ref_us"], r["tick_us"])
                for r in plain),
            "setup_s": statistics.median(setups + [setup_time(summary)]),
            "peak_rss_mb": summary["peak_rss_mb"],
            "msgs_per_dkg": statistics.median(r["msgs"] for r in plain),
            "bytes_per_dkg": statistics.median(r["bytes"] for r in plain),
            "sim_latency_ticks": statistics.median(r["ticks"] for r in plain),
        }
        out = {name: metric(v, END_TO_END_UNITS[name]) for name, v in metrics.items()}
    else:
        # Means over the traced DKGs keep the layer times additive.
        out = {}
        for name in LAYER_TIMES + LAYER_PARTS:
            out[name] = metric(mean([r["layers"][name] for r in traced]), "ms")
        for name in LAYER_COUNTS:
            out[name] = metric(mean([r["layers"][name] for r in traced]), "count")
        for name in CRYPTO_COUNTS:
            out["crypto." + name] = metric(mean([r["crypto"][name] for r in traced]), "count")
        for name, unit in PROBES.items():
            out[name] = metric(summary["probe"][name], unit)
        out["engine.cpu_per_wall"] = metric(
            statistics.median(r["cpu_ms"] / r["wall_ms"] for r in pooled), "ratio")
        out["engine.pool_speedup"] = metric(
            statistics.median(r["wall_ms"] for r in plain)
            / statistics.median(r["wall_ms"] for r in pooled), "ratio")
        out["trace.overhead_pct"] = metric(
            100.0 * (statistics.median(r["wall_ms"] for r in traced)
                     / statistics.median(r["wall_ms"] for r in plain) - 1.0), "%")
        out["trace.wall_ms"] = metric(mean([r["layers"]["trace.wall_ms"] for r in traced]), "ms")
        out["host.ref_us"] = metric(statistics.median(r["ref_us"] for r in dkgs), "us")
        out["host.tick_us"] = metric(statistics.median(r["tick_us"] for r in dkgs), "us")

    print(json.dumps({"correct": correct, "attempted": len(dkgs), "failed": failed,
                      "metrics": out}))
    return 0


def self_test():
    if not build():
        return 1
    lines = call_binary("selftest")
    for rec in lines:
        print(json.dumps(rec))
    return 0 if lines and all(rec["ok"] for rec in lines) else 1


def record():
    """Rewrites expected.json with each pool seed's msgs/bytes/ticks."""
    if not build():
        return 1
    expected = {}
    for name in WORKLOADS:
        recs = call_binary("record", "--workload", name)
        bad = [r["seed"] for r in recs if not (r["completed"] and r["consistent"])]
        if bad:
            log(f"perfbench: {name}: seeds {bad} failed; nothing recorded")
            return 1
        expected[name] = {str(r["seed"]): {k: r[k] for k in ("msgs", "bytes", "ticks")}
                          for r in recs}
        log(f"perfbench: recorded {len(recs)} seeds of {name}")
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
