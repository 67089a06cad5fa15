#!/usr/bin/env python3
"""vexsim benchmark: build the simulator from source, run one workload's legs
for a fixed time, check their outputs, print the metrics.

Run from the repository root:

  python3 vexbench/run.py --workload paper-fig14 --seed 1 --seconds 30 --trace 0

Workloads: paper-fig14, mem-hostile, warm-sweep (vexbench/README.md says
why each exists). --trace 0 reports the end-to-end metrics of untraced legs;
--trace 1 reports the per-layer metrics of traced legs, interleaved with
untraced ones to measure the tracing overhead. Each leg is its own process
(vexbench_leg), so every sweep starts cold. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

The build goes to $CARGO_TARGET_DIR, else .bench_build. So do the run's
scratch files, which are removed when it ends; warm-sweep's result cache,
which is kept for the next run of the same build; and a detail report
(vexbench-<workload>-seed<N>-trace<T>.json).
"""

import argparse
import filecmp
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

WORKLOADS = ("paper-fig14", "mem-hostile", "warm-sweep")
MAX_JOBS = 4          # workers of the untimed modes (fixture, checks, profile)
# Timed legs (untraced and traced) sweep on one worker. On a shared host a
# multi-worker sweep's wall time tracks how many cores the neighbours leave
# free, not the program; one worker keeps wall time close to CPU time.
TIMED_JOBS = 1
MIN_LEGS = 3          # untraced legs per --trace 0 run, whatever --seconds says
MIN_TRACED = 2        # traced and untraced legs each, per --trace 1 run
LAST_LEG_S = 120.0    # no timed leg starts later than this into the run
HARD_LIMIT_S = 170.0  # every leg process is stopped by then (runs end < 180 s)
GLUE_SPANS = ("leg", "profile", "point")

END_TO_END = {
    "sweep_cpu_s": "s",
    "sweep_wall_s": "s",
    "sim_mops_per_cpu_s": "Mops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fidelity_gap_pp": "pp",
}

# Span name -> per-layer metric holding the summed self time of those spans.
SPAN_METRICS = {
    "sim.run": "sim.run_s",
    "cc.build": "cc.compile_s",
    "harness.fingerprint": "harness.fingerprint_s",
    "harness.cache.open": "harness.cache.open_s",
    "harness.cache.load": "harness.cache.load_s",
    "harness.cache.store": "harness.cache.store_s",
    "stats.json_emit": "stats.json_emit_s",
}

COUNTERS = (
    "sim.cycles", "sim.ops_issued", "sim.merge.partial_selections",
    "sim.split_instructions", "mem.l1i.misses", "mem.l1d.accesses",
    "mem.l1d.misses", "mem.mshr.merges", "mem.mshr.full_stalls",
    "mem.l2.hits", "mem.l2.misses", "mem.dram.accesses", "cc.build_calls",
    "cc.programs_compiled", "cc.static_ops", "cc.copies_inserted",
    "harness.cache.probes", "harness.cache.hits", "harness.cache.stores",
    "harness.cache.index_records", "stats.json_bytes",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS.values()},
    **{name: "count" for name in COUNTERS},
    **{
        "stats.json_bytes": "B",
        "sim.steps": "count",
        "sim.ns_per_cycle": "ns",
        "sim.ff_skipped_cycles": "count",
        "sim.ff_skip_frac": "frac",
        "sim.ff_skip_frac_max": "frac",
        "sim.phase.commit_frac": "frac",
        "sim.phase.refill_frac": "frac",
        "sim.phase.select_frac": "frac",
        "sim.phase.complete_frac": "frac",
        "sim.phase.ff_frac": "frac",
        "sim.phase.overhead_frac": "frac",
        "mem.dram.row_hit_rate": "frac",
        "harness.cache.hit_ratio": "frac",
        "trace.overhead_frac": "frac",
        "trace.attributed_frac": "frac",
        "trace.spans": "count",
    },
}


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, jobs):
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "vexbench_leg",
                  "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "vexbench_leg")


class Legs:
    """Spawns vexbench_leg processes for one workload and seed."""

    def __init__(self, binary, args, run_dir, fixture_dir, jobs):
        self.binary = binary
        self.args = args
        self.run_dir = run_dir
        self.jobs = jobs
        self.start = time.monotonic()
        with open(binary, "rb") as f:
            build_key = hashlib.sha256(f.read()).hexdigest()[:16]
        self.fixture_args = ["--fixture", fixture_dir, "--fixture-key",
                             build_key]

    def elapsed(self):
        return time.monotonic() - self.start

    def call(self, mode, tag="0"):
        jobs = TIMED_JOBS if mode in ("leg", "traced") else self.jobs
        cmd = [self.binary, mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--dir", self.run_dir,
               "--jobs", str(jobs), "--tag", tag] + self.fixture_args
        if self.args.tiny:
            cmd.append("--tiny")
        timeout = max(5.0, HARD_LIMIT_S - self.elapsed())
        env = dict(os.environ)
        # Set-up time is measured from here, so process start counts.
        env["VEXBENCH_SPAWN_NS"] = str(time.monotonic_ns())
        try:
            p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": "%s leg timed out after %.0f s" % (mode, timeout)}
        if p.returncode != 0:
            return {"error": "%s leg exited %d: %s"
                             % (mode, p.returncode, p.stderr.strip()[-500:])}
        return json.loads(p.stdout)

    def path(self, name):
        return os.path.join(self.run_dir, name)


def restore_cache(legs, fixture):
    """Puts the warm-sweep cache back in this run's fixture state: the
    pristine index, and no records for the miss set (a leg stores them)."""
    if "miss_files" not in fixture:
        return
    cache = fixture["cache_dir"]
    shutil.copyfile(legs.path("cache.index.pristine"),
                    os.path.join(cache, "cache.index"))
    for name in fixture["miss_files"]:
        try:
            os.unlink(os.path.join(cache, name))
        except FileNotFoundError:
            pass


def return_held_records(fixture):
    """Moves the records this run held out of the warm-sweep cache back."""
    held = fixture.get("held_dir")
    if held:
        for name in os.listdir(held):
            os.replace(os.path.join(held, name),
                       os.path.join(fixture["cache_dir"], name))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def point_mismatches(reference, hashes):
    return sum(1 for label, h in reference.items() if hashes.get(label) != h)


def trajectory_mismatches(path_a, path_b):
    """Points whose trajectory entries differ (0 when byte-identical)."""
    if filecmp.cmp(path_a, path_b, shallow=False):
        return 0
    a, b = load_json(path_a)["points"], load_json(path_b)["points"]
    differing = sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))
    return max(differing, 1)


class Verdict:
    """Attempted and failed point evaluations, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)


def verify_leg(legs, res, reference, fixture, verdict, kind):
    """Checks one leg's outputs against the reference hashes (and, on
    warm-sweep, its trajectory against the cold one byte for byte)."""
    points = res.get("points") or fixture["points"]
    if "error" in res:
        verdict.add(points, points, res["error"])
        return
    verdict.add(points, res["failed"], "%s leg: failed points" % kind)
    hashes = load_json(legs.path("hashes-%s.json" % res["tag"]))
    if reference.get("hashes") is None:
        reference["hashes"] = hashes
        reference["digest"] = res["stats_digest"]
    bad = point_mismatches(reference["hashes"], hashes)
    verdict.add(0, bad, "%s leg %s: %d points differ from the reference "
                        "statistics" % (kind, res["tag"], bad))
    if "cold_trajectory" in fixture:
        bad = trajectory_mismatches(fixture["cold_trajectory"],
                                    legs.path(res["trajectory"]))
        verdict.add(0, bad, "%s leg %s: %d points differ from the cold "
                            "trajectory" % (kind, res["tag"], bad))


def verify_checks(checks, reference, verdict):
    for c in checks:
        ok = reference["hashes"].get(c["label"]) == c["hash"]
        verdict.add(1, 0 if ok else 1,
                    "%s check of %s: %s" % (c["kind"], c["label"], c["hash"]))


def source_sha256():
    """Content hash of the simulator sources (the checkout may have no git)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none (not a git checkout)"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() or "unknown"


def summarize(values):
    q1, med, q3 = m.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(untraced, fidelity_gap):
    per_leg = {
        "sweep_cpu_s": [r["cpu_s"] for r in untraced],
        "sweep_wall_s": [r["wall_s"] for r in untraced],
        "sim_mops_per_cpu_s": [r["simulated_ops"] / 1e6 / r["cpu_s"]
                               for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "fidelity_gap_pp": [fidelity_gap],
    }
    return {k: summarize(v) for k, v in per_leg.items()}


def per_layer(legs, untraced, traced, profile):
    span_sets = [load_json(legs.path(t["spans"])) for t in traced]
    by_name = [m.self_seconds_by_name(s) for s in span_sets]
    out = {}
    for span, name in SPAN_METRICS.items():
        out[name] = summarize([b.get(span, 0.0) for b in by_name])
    c = traced[0]["counters"]
    for name in COUNTERS:
        out[name] = summarize([c[name]])

    prof_self = m.self_seconds_by_name(load_json(legs.path(profile["spans"])))
    pc = profile["counters"]
    cycles, steps = pc["sim.cycles"], pc["sim.steps"]
    phases = profile["phase_s"]
    phase_total = sum(phases.values())
    sim_run = out["sim.run_s"]["median"]
    ratios = {
        "sim.steps": steps,
        "sim.ff_skipped_cycles": cycles - steps,
        "sim.ff_skip_frac": (cycles - steps) / cycles if cycles else 0.0,
        "sim.ff_skip_frac_max": pc["sim.ff_skip_frac_max"],
        "sim.phase.overhead_frac":
            prof_self.get("sim.run", 0.0) / sim_run - 1 if sim_run else 0.0,
        "mem.dram.row_hit_rate":
            c["mem.dram.row_hits"] / c["mem.dram.accesses"]
            if c["mem.dram.accesses"] else 0.0,
        "harness.cache.hit_ratio":
            c["harness.cache.hits"] / c["harness.cache.probes"]
            if c["harness.cache.probes"] else 0.0,
        "trace.spans": len(span_sets[0]),
    }
    for phase, secs in phases.items():
        ratios["sim.phase.%s_frac" % phase] = (
            secs / phase_total if phase_total else 0.0)
    for name, v in ratios.items():
        out[name] = summarize([v])
    out["sim.ns_per_cycle"] = summarize(
        [b.get("sim.run", 0.0) * 1e9 / c["sim.cycles"] if c["sim.cycles"]
         else 0.0 for b in by_name])
    out["trace.attributed_frac"] = summarize(
        [m.attributed_share(s, GLUE_SPANS) for s in span_sets])
    untraced_wall = m.median([r["wall_s"] for r in untraced])
    out["trace.overhead_frac"] = summarize(
        [m.median([t["wall_s"] for t in traced]) / untraced_wall - 1])
    return out


def measure(legs, args, fixture, verdict, reference):
    """Runs legs back to back for --seconds: after the minimum leg count, a
    leg starts only if at least half of one of the median length so far
    still fits, so the measured time ends as near --seconds as it can."""
    untraced, traced = [], []
    durations = []
    start = time.monotonic()
    i = 0
    while True:
        done = len(untraced) >= MIN_LEGS if not args.trace else (
            len(untraced) >= MIN_TRACED and len(traced) >= MIN_TRACED)
        if done and (time.monotonic() - start + m.median(durations) / 2
                     > args.seconds):
            break
        if legs.elapsed() > LAST_LEG_S:
            break
        kind = "traced" if args.trace and i % 2 == 1 else "leg"
        restore_cache(legs, fixture)
        t0 = time.monotonic()
        res = legs.call(kind, tag=str(i))
        durations.append(time.monotonic() - t0)
        res["tag"] = str(i)
        verify_leg(legs, res, reference, fixture, verdict, kind)
        if "error" not in res:
            (traced if kind == "traced" else untraced).append(res)
        i += 1
    return untraced, traced, time.monotonic() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (the benchmark's own tests)")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    nproc = len(os.sched_getaffinity(0))
    provenance = {
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "nproc": nproc,
        "jobs": max(1, min(MAX_JOBS, nproc)),
        "timed_jobs": TIMED_JOBS,
        "loadavg_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "python": platform.python_version(),
    }
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir, provenance["jobs"])

    # Scratch of runs that were cut short goes first.
    for name in os.listdir(build_dir):
        if name.startswith("run-"):
            shutil.rmtree(os.path.join(build_dir, name), ignore_errors=True)
    run_dir = os.path.join(build_dir, "run-%s-%d" % (args.workload, os.getpid()))
    fixture_dir = os.path.join(
        build_dir, "warm-fixture" + ("-tiny" if args.tiny else ""))
    legs = Legs(binary, args, run_dir, fixture_dir, provenance["jobs"])
    try:
        info = legs.call("info")
        if "error" in info:
            raise BenchError(info["error"])
        if info["build_type"] != "Release":
            log("vexbench: WARNING: %s build; timings are not comparable with "
                "a Release build" % info["build_type"])
        provenance["build_type"] = info["build_type"]
        provenance["compiler"] = info["compiler"]

        t0 = time.monotonic()
        fixture = legs.call("fixture")
        provenance["fixture_prep_s"] = time.monotonic() - t0
        if "error" in fixture:
            raise BenchError(fixture["error"])
        try:
            return bench(legs, args, build_dir, fixture, provenance)
        finally:
            return_held_records(fixture)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench(legs, args, build_dir, fixture, provenance):
    verdict = Verdict()
    reference = {}
    if "cold_digest" in fixture:
        reference["hashes"] = load_json(fixture["cold_hashes"])
        reference["digest"] = fixture["cold_digest"]
    untraced, traced, measured_s = measure(legs, args, fixture, verdict,
                                           reference)
    if not untraced or (args.trace and not traced):
        raise BenchError("no leg completed: " + "; ".join(verdict.problems))

    checks = legs.call("check")
    if "error" in checks:
        verdict.add(1, 1, checks["error"])
    else:
        verify_checks(checks["checks"], reference, verdict)

    if args.workload == "paper-fig14":
        fidelity = {"fidelity_gap_pp": untraced[0]["fidelity_gap_pp"]}
    else:
        fidelity = legs.call("fidelity")
        if "error" in fidelity:
            raise BenchError(fidelity["error"])

    profile = None
    if args.trace:
        restore_cache(legs, fixture)
        profile = legs.call("profile", tag="profile")
        if "error" in profile:
            raise BenchError(profile["error"])
        verdict.add(profile["counters"]["simulated_points"],
                    profile["failed"], "profile pass failures")
        results = per_layer(legs, untraced, traced, profile)
        units = PER_LAYER_UNITS
        shutil.copyfile(legs.path(traced[0]["spans"]), os.path.join(
            build_dir, "spans-%s.json" % args.workload))
    else:
        results = end_to_end(untraced, fidelity["fidelity_gap_pp"])
        units = END_TO_END

    provenance["measured_s"] = measured_s
    counters = {
        "stats_digest": reference.get("digest"),
        "points": fixture["points"],
        "untraced_legs": len(untraced),
        "traced_legs": len(traced),
        "simulated_points": untraced[0]["simulated_points"],
        "simulated_ops": untraced[0]["simulated_ops"],
        "simulated_cycles": untraced[0]["simulated_cycles"],
        "trajectory_bytes": untraced[0]["trajectory_bytes"],
        "fig14_digest": fidelity.get("fig14_digest", reference.get("digest")
                                     if args.workload == "paper-fig14"
                                     else None),
        "error_rate": verdict.failed / max(verdict.attempted, 1),
    }
    if "indexed_records" in fixture:
        counters["indexed_records"] = fixture["indexed_records"]

    print("vexbench %s seed=%d trace=%d  legs=%d+%d traced  digest=%s"
          % (args.workload, args.seed, args.trace, len(untraced), len(traced),
             counters["stats_digest"]))
    for name, s in results.items():
        print("  %-30s %14.6g %-7s [q1 %.6g, q3 %.6g] n=%d"
              % (name, s["median"], units[name], s["q1"], s["q3"], s["n"]))
    print("  counters: " + json.dumps(counters, sort_keys=True))
    print("  provenance: " + json.dumps(provenance, sort_keys=True))
    for p in verdict.problems:
        print("  FAILED: " + p)

    detail = {"provenance": provenance, "counters": counters,
              "metrics": results, "untraced": untraced, "traced": traced,
              "profile": profile, "problems": verdict.problems}
    with open(os.path.join(build_dir, "vexbench-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(detail, f, indent=1)

    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v["median"], "unit": units[k]}
                    for k, v in results.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("vexbench: " + str(e))
        sys.exit(1)
