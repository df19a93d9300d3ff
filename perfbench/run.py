#!/usr/bin/env python3
"""End-to-end benchmark of the ipv6view reproduction.

    python3 perfbench/run.py --workload client-mem --seed 7 --seconds 10 --trace 0

Builds the `perfbench` worker (this directory's Cargo package) against the
repository's sources, then runs one workload:

  server-100k   100k sites, 1 day: world generation, one crawl of the latest
                epoch, the server and cloud scenarios.
  client-mem    20k sites, 273 days: every flow-derived client scenario,
                in memory.
  client-spill  client-mem with flow streams spilled to sealed day-parts and
                replayed; its reports must equal client-mem's.
  all           the three above in turn (for people, not the gate).

Every measured pass is its own worker process, so peak RSS is per pass.
Workers run pinned to every CPU but the first, with one thread per CPU.
The end-to-end times are scaled to a reference machine speed, measured
while they run (see "Machine speed" below); the raw times are printed too.
`--trace 0` measures the end-to-end metrics with the telemetry plane off;
`--trace 1` runs one untraced pass and one traced pass and reports the
per-layer breakdown. A human-readable report goes to stdout; the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Correctness: every scenario must return a report (a panic or error counts
as failed), repeated passes must agree, the digests must match the pinned
ones in digests.json for the seeds listed there, and client-spill must
report exactly what client-mem reports for the same seed. Any failure makes
the exit code nonzero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-scratch"
DEFAULT_SEED = 0x1F6AD0B
WORKLOADS = ("server-100k", "client-mem", "client-spill")
# Session::new samples per run (the median is setup_s): at least
# SETUP_SAMPLES, and more while they add up to under SETUP_SECONDS.
SETUP_SAMPLES = 3
SETUP_SECONDS = 5.0
SETUP_MAX = 15
# Machine speed. On a shared host the same pass takes up to half as long
# again from one minute to the next, which no number of passes in one run
# averages out. So every pass and setup sample runs beside a sensor
# (src/speed.rs) that times a short fixed probe every 50 ms and reports the
# mean probe rate (1/s) while it ran; each time is scaled by REF_PROBE_S *
# that rate. The end-to-end times are so seconds on a host where the probe
# takes REF_PROBE_S, which is what it takes on a quiet 2-vCPU VM. The raw
# times are printed next to them.
REF_PROBE_S = 1.3e-4

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
]

SERVER_SCENARIOS = [
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig18",
    "table2", "table3", "ablation-firstparty", "ablation-policy",
]
CLIENT_SCENARIOS = [
    "table1", "fig1", "fig2", "fig3", "fig4", "fig13", "fig14", "fig15",
    "fig16", "fig17", "transition", "nat64-exhaustion", "cgn-sweep",
    "faults-sweep", "adoption-under-stress", "as-fractions", "million-subs",
]
# Timed calls, each reported as a share of the traced wall. The first
# group is timed inside the traced pass; the second are probes the worker
# runs after it (see src/probes.rs).
PASS_TIMERS = (
    ["worldgen.generate", "crawlsim.crawl", "experiments.streamed", "experiments.hourly"]
    + ["experiments." + s for s in SERVER_SCENARIOS + CLIENT_SCENARIOS]
)
PROBE_TIMERS = [
    "worldgen.web", "worldgen.clouds", "worldgen.clientsvc", "worldgen.longtail",
    "iputil.freeze", "core.hosted_fqdns", "core.influence", "core.pairwise",
    "core.heatmap", "core.class_counts", "trafficgen.residences",
    "trafficgen.hourly", "trafficgen.isp", "trafficgen.longtail",
    "trafficgen.subs", "core.as_agg", "mstl.decompose", "flowstore.write",
    "flowstore.replay",
]
COUNTS = [
    ("worldgen.zone_names", "count"),
    ("crawlsim.sites", "count"),
    ("crawlsim.failed_share", "share"),
    ("dnssim.queries", "count"),
    ("happyeyeballs.races", "count"),
    ("happyeyeballs.v4_win_share", "share"),
    ("trafficgen.flows", "count"),
    ("iputil.frozen_lookups", "count"),
    ("iputil.memo_hit_ratio", "share"),
    ("iputil.frozen_bytes", "bytes"),
    ("transition.gateway_offers", "count"),
    ("transition.rejected_share", "share"),
    ("flowstore.parts", "count"),
    ("flowstore.bytes_written", "bytes"),
    ("flowstore.bytes_per_row", "bytes"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot run here (missing sources, build failure)."""


def worker_cpus():
    """The CPUs a worker may run on: every CPU this process may use but the
    first, which is left to the OS and everything else on the machine, so a
    burst of other work does not stall a pass's threads. None where CPU
    affinity is not available."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[1:] or cpus)


WORKER_CPUS = worker_cpus()


def thread_count():
    """Worker threads: one per worker CPU, at most 8. Pinning the worker to
    these CPUs also caps the fan-outs that size themselves from the CPUs
    they see (the crawl), so no pass runs more threads than it has CPUs."""
    cpus = len(WORKER_CPUS) if WORKER_CPUS else os.cpu_count() or 1
    return max(1, min(cpus, 8))


def cpu_list():
    return ",".join(map(str, sorted(WORKER_CPUS))) if WORKER_CPUS else "any"


def pin_worker():
    if WORKER_CPUS:
        os.sched_setaffinity(0, WORKER_CPUS)


def build():
    """Build the worker; return its path."""
    for needed in ("Cargo.toml", "crates/experiments/Cargo.toml", "vendor/serde_json/Cargo.toml"):
        if not (ROOT / needed).is_file():
            raise Failure(f"{needed} not found: run from a full checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise Failure("building the perfbench worker failed")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        raise Failure(f"worker binary missing at {binary}")
    return binary


def worker(binary, mode, workload, seed, threads, *extra):
    """Run one worker process pinned to the worker CPUs; return its JSON line."""
    env = dict(os.environ, REPRO_LOG="off")
    done = subprocess.run(
        [str(binary), mode, workload, str(seed), str(threads), str(SCRATCH), *map(str, extra)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=pin_worker,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise Failure(f"worker `{mode} {workload}` exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += (Path(base) / name).stat().st_size
    return total


def spill_pass(binary, mode, workload, seed, threads):
    """A pass with a clean spill directory, measured and removed after."""
    spill = SCRATCH / "spill"
    shutil.rmtree(spill, ignore_errors=True)
    out = worker(binary, mode, workload, seed, threads)
    out["spill_bytes"] = dir_bytes(spill) if spill.exists() else 0
    shutil.rmtree(spill, ignore_errors=True)
    return out


def run_pass(binary, mode, workload, seed, threads):
    if workload == "client-spill":
        return spill_pass(binary, mode, workload, seed, threads)
    return worker(binary, mode, workload, seed, threads)


class Checker:
    """Counts scenario runs and every way one can fail."""

    def __init__(self, workload, seed):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        pins = json.loads((HERE / "digests.json").read_text())["seeds"].get(str(seed), {})
        # client-spill must answer exactly what client-mem answers.
        key = "client-mem" if workload == "client-spill" else workload
        self.pinned = pins.get(key)

    def fail(self, why):
        self.failed += 1
        self.problems.append(why)

    def digests(self, result, label):
        """Count one pass's scenarios; return its digest map."""
        out = {}
        for s in result["scenarios"]:
            self.attempted += 1
            if "error" in s:
                self.fail(f"{label}: {s['name']}: {s['error']}")
            else:
                out[s["name"]] = s["digest"]
        return out

    def agree(self, reference, other, label):
        """Count each scenario whose digest differs from the reference."""
        for name, digest in reference.items():
            if other.get(name, digest) != digest:
                self.fail(f"{label}: {name} digest {other[name]} != {digest}")

    def check_pinned(self, digests):
        if self.pinned is None:
            return
        for name, digest in self.pinned.items():
            if digests.get(name) not in (None, digest):
                self.fail(f"pinned: {name} digest {digests[name]} != {digest}")

    @property
    def correct(self):
        return self.failed == 0


def median(xs):
    return statistics.median(xs)


def scaled(secs, rate):
    """Seconds at the reference machine speed, from raw seconds and the
    probe rate measured while they ran."""
    return secs * REF_PROBE_S * rate


def summary(xs):
    """Median, highest sample and count, as printed for every timing."""
    return f"median {median(xs):.6g}  max {max(xs):.6g}  n={len(xs)}"


def measure(binary, workload, seed, seconds, threads, check):
    """The untraced runs: end-to-end metrics for one workload."""
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(binary, "pass", workload, seed, threads))
    # (raw seconds, probe rate) of every setup sample; a setup too short to
    # hold a probe takes the rate of the passes.
    usual = median([p["wall_rate"] for p in passes])
    setups = [(p["setup_s"], p["setup_rate"] or usual) for p in passes]
    raw = [p["setup_s"] for p in passes]
    more = max(SETUP_SAMPLES - len(raw),
               min(SETUP_MAX - len(raw), int((SETUP_SECONDS - sum(raw)) / median(raw)) + 1))
    if more > 0:
        block = worker(binary, "setup", workload, seed, threads, more)
        setups += [(s, r or usual) for s, r in zip(block["setup_s"], block["setup_rate"])]

    digests = [check.digests(p, f"pass {i}") for i, p in enumerate(passes)]
    for i, d in enumerate(digests[1:], 1):
        check.agree(digests[0], d, f"pass {i} vs pass 0")
    check.check_pinned(digests[0])

    raw_walls = [p["wall_s"] for p in passes]
    walls = [scaled(p["wall_s"], p["wall_rate"]) for p in passes]
    setup_ref = [scaled(s, r) for s, r in setups]
    rates = [p["items"] / (w - scaled(*setup)) for p, w, setup in zip(passes, walls, setups)]
    rss = [p["peak_rss_kib"] / 1024 for p in passes]
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setup_ref),
        "peak_rss_mb": median(rss),
        "items_per_s": median(rates),
    }
    print(f"== {workload}  seed {seed}  threads {threads}  cpus {cpu_list()}  passes {len(passes)}")
    speeds = [REF_PROBE_S * p["wall_rate"] for p in passes]
    print(f"machine speed: scale {summary(speeds)} over {sum(p['probes'] for p in passes)} probes; "
          f"times at {REF_PROBE_S} s per probe, raw times in brackets")
    print(f"wall_s       [s]    {summary(walls)}   [{summary(raw_walls)}]")
    print(f"setup_s      [s]    {summary(setup_ref)}   [{summary([s for s, _ in setups])}]")
    print(f"peak_rss_mb  [MB]   {summary(rss)}")
    item = "sites_per_s" if workload == "server-100k" else "flows_per_s"
    print(f"items_per_s  [1/s]  {summary(rates)}   ({item}: {passes[0]['items']} items per pass)")
    if workload == "client-spill":
        disk = [p["spill_bytes"] / 2**20 for p in passes]
        print(f"spill_disk_mb [MB]  {summary(disk)}")
        spill_ratio(binary, seed, threads, check, digests[0], median(walls))
    return metrics


def spill_ratio(binary, seed, threads, check, spill_digests, spill_wall):
    """Run the in-memory reference once: digests must match, ratio printed."""
    ref = worker(binary, "pass", "client-mem", seed, threads)
    ref_digests = check.digests(ref, "client-mem reference")
    check.agree(ref_digests, spill_digests, "client-spill vs client-mem")
    ref_wall = scaled(ref["wall_s"], ref["wall_rate"])
    print(f"spill ratio  client-spill.wall_s / client-mem.wall_s = "
          f"{spill_wall:.4f} s / {ref_wall:.4f} s = {spill_wall / ref_wall:.3f} "
          f"(at the reference speed; information only)")


def traced(binary, workload, seed, threads, check):
    """One untraced and one traced pass: the per-layer breakdown."""
    plain = run_pass(binary, "pass", workload, seed, threads)
    trace = run_pass(binary, "trace", workload, seed, threads)
    plain_digests = check.digests(plain, "untraced pass")
    traced_digests = check.digests(trace, "traced pass")
    check.agree(plain_digests, traced_digests, "traced vs untraced")
    check.check_pinned(plain_digests)
    if workload == "client-spill":
        spill_ratio(binary, seed, threads, check, plain_digests,
                    scaled(plain["wall_s"], plain["wall_rate"]))
        if trace["counts"].get("flowstore.probe_replay_ok") != 1.0:
            check.fail("flowstore probe: replay digest differs from the live stream")

    wall = trace["wall_s"]
    top, probes, counts = trace["top"], trace["probes"], trace["counts"]
    metrics = {"traced.wall_s": wall}
    for name in PASS_TIMERS:
        metrics[f"{name}_share"] = top.get(f"{name}_s", 0.0) / wall
    for name in PROBE_TIMERS:
        metrics[f"{name}_share"] = probes.get(f"{name}_s", 0.0) / wall
    metrics["experiments.unattributed_share"] = 1.0 - sum(top.values()) / wall
    metrics["obs.overhead_share"] = (wall - plain["wall_s"]) / plain["wall_s"]
    for name, _ in COUNTS:
        metrics[name] = counts.get(name, 0.0)

    print(f"== {workload}  seed {seed}  threads {threads}  cpus {cpu_list()}  traced")
    print(f"traced wall {wall:.4f} s; untraced wall {plain['wall_s']:.4f} s; "
          f"obs.overhead_share {metrics['obs.overhead_share']:+.4f} (base: untraced wall)")
    print("-- calls timed inside the traced pass (share base: traced wall)")
    for name, secs in top.items():
        print(f"   {name:<36} {secs:10.4f} s  {secs / wall:8.4f}")
    unattributed = metrics["experiments.unattributed_share"]
    print(f"   {'experiments.unattributed_share':<36} {'':>12}  {unattributed:8.6f}")
    print("-- layer probes after the pass (per call; share base: traced wall)")
    for name, secs in probes.items():
        print(f"   {name:<36} {secs:10.4f} s  {secs / wall:8.4f}")
    print("-- counts and ratios of the traced pass")
    for name, unit in COUNTS:
        print(f"   {name:<36} {metrics[name]:14.6g} {unit}")
    return metrics


def result_line(check, metrics, units):
    return json.dumps({
        "correct": check.correct,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def per_layer_units():
    units = {"traced.wall_s": "s", "experiments.unattributed_share": "share",
             "obs.overhead_share": "share"}
    for name in PASS_TIMERS + PROBE_TIMERS:
        units[f"{name}_share"] = "share"
    units.update(dict(COUNTS))
    return units


def run_workload(binary, workload, args, threads):
    check = Checker(workload, args.seed)
    if args.trace:
        metrics = traced(binary, workload, args.seed, threads, check)
        units = per_layer_units()
    else:
        metrics = measure(binary, workload, args.seed, args.seconds, threads, check)
        units = dict(END_TO_END)
    print(f"failed_share {check.failed}/{max(check.attempted, 1)} = "
          f"{check.failed / max(check.attempted, 1):.4f}")
    for why in check.problems:
        print(f"FAILED: {why}")
    return check, metrics, units


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        binary = build()
        threads = thread_count()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        SCRATCH.mkdir(parents=True, exist_ok=True)
        results = [(w, *run_workload(binary, w, args, threads)) for w in names]
    except Failure as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    if len(results) == 1:
        _, check, metrics, units = results[0]
        print(result_line(check, metrics, units))
        return 0 if check.correct else 1
    # `all`: one result line over every workload, metrics prefixed by name.
    combined = Checker("all", args.seed)
    metrics, units = {}, {}
    for w, check, m, u in results:
        combined.attempted += check.attempted
        combined.failed += check.failed
        metrics.update({f"{w}.{k}": v for k, v in m.items()})
        units.update({f"{w}.{k}": u[k] for k in m})
    print(result_line(combined, metrics, units))
    return 0 if combined.correct else 1


if __name__ == "__main__":
    sys.exit(main())
