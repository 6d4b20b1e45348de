"""percgame benchmark: one workload per run, timed end to end or per layer.

Run from the repository root:

    python3 bench/run.py --workload triangle --seed 0 --seconds 24 --trace 0

Workloads (see workloads.py): triangle, slab, chains, identities.  The
workload seed selects each workload's seed range; at seed 0 every output's
SHA-256 is also checked against bench/digests.json.

--trace 0 (end to end, tracing off): after set-up and one warm-up run, the
workload is repeated while the next run is expected to end within --seconds
of measured time (at least 3 runs).  Before the first timed run and after
each one, a fixed host probe (host_probe) runs 3 times.  Between the timed
runs, fresh interpreters measure set-up, spread over the whole window (at
least 11), each right after a probe of its own.

The shared host this was written on changes speed by up to 2x, for seconds
or for minutes at a time, while the probe's fastest time stays within a few
per cent.  Times are therefore reported at a reference host speed: raw
seconds x PROBE_REFERENCE_S / probe seconds.  A change to percgame moves the
raw time and not the probe, so it moves the metric by the same share.  The
raw figures are kept in the run record.
Metrics: wall_s (fastest timed run x PROBE_REFERENCE_S / fastest probe of
the run), sites_per_s (config site count / wall_s), setup_s (median over the
fresh interpreters of set-up x PROBE_REFERENCE_S / the probe just before it;
set-up runs from interpreter start to the end of the workload's set-up:
imports, family parsing, any torus built before timing), peak_rss_mb and
pass_frac (checks passed / attempted; the complement of the gate's failure
fraction, so that the metric is never 0).

--trace 1 (per layer): after the warm-up, rounds of one untraced and one
traced run (triangle: plus one untraced run at PERC_THREADS=1, whose output
must equal the nproc output byte for byte), while the next round is expected
to end within --seconds (at least one round).
Per-layer metrics are medians over the traced runs; trace.overhead_frac is
median traced wall / median untraced wall - 1.  Spans are written once at
the end to .bench_out/<workload>.spans.jsonl.gz.

The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The run record (machine, versions, base counts of every rate) goes to
.bench_out/<workload>.record.json and to the line before the result.

The benchmark's own tests:  python3 -m pytest -q bench
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11
MIN_RUNS = 3
PROBES = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("triangle", "slab", "chains", "identities"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    if not (ROOT / "src" / "percgame").is_dir():
        sys.exit(f"bench: no percgame sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports percgame
    return workloads


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make_workload(args):
    workloads = import_program()
    w = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload, nproc())
    w.setup()
    return workloads, w


def measure_setup(args) -> float:
    """Wall seconds of a fresh interpreter that imports and sets up the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed(fn, *a) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn(*a)
    return time.perf_counter() - t0


PROBE_WORDS = np.arange(1 << 16, dtype=np.uint64)
# about the probe's fastest time on the host the benchmark was written on
# (2 vCPUs of a shared x86-64 host)
PROBE_REFERENCE_S = 0.1


def host_probe() -> float:
    """Wall seconds of a fixed piece of work that mixes what percgame does:
    splitmix64-style rounds over a numpy array and a pure-Python loop over
    tuple keys.  It does not depend on percgame, so its time follows the
    speed of the host only."""
    t0 = time.perf_counter()
    x = PROBE_WORDS.copy()
    for _ in range(420):
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
    counts = {}
    for i in range(260000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + (key[0] ^ key[1])
    return time.perf_counter() - t0


def run_record(w, walls: list[float]) -> dict:
    caches = {}
    try:
        proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True)
        for line in proc.stdout.splitlines():
            key, _, value = line.partition(" ")
            if key.endswith("CACHE_SIZE") and value.strip():
                caches[key] = int(value)
    except (OSError, ValueError):
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            revision = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    import numpy as np
    return {
        "workload": w.name, "workload_seed": w.seed,
        "cpu_count": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_revision": revision, "src_sha256": src.hexdigest(),
        "threads": w.threads, "sites": w.sites, "run_walls_s": walls,
    }


def end_to_end(args, w, gate):
    t0 = time.perf_counter()
    w.run()
    w.check(gate)
    walls, setup, probes = [], [], [host_probe() for _ in range(PROBES)]
    while len(walls) < MIN_RUNS or sum(walls) + walls[-1] + sum(probes) <= args.seconds:
        walls.append(timed(w.run))
        w.check(gate)
        probes += [host_probe() for _ in range(PROBES)]
        # keep set-up samples in step with the share of the window measured
        while len(setup) < SETUP_SAMPLES * min(1.0, sum(walls) / args.seconds):
            setup.append((host_probe(), measure_setup(args)))
    while len(setup) < SETUP_SAMPLES:
        setup.append((host_probe(), measure_setup(args)))
    speed = PROBE_REFERENCE_S / min(probes)
    wall = min(walls) * speed
    metrics = {
        "wall_s": wall,
        "sites_per_s": w.sites / wall,
        "setup_s": statistics.median(t * PROBE_REFERENCE_S / probe for probe, t in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": 1.0 - gate.failed / gate.attempted,
    }
    record = run_record(w, walls)
    record.update(setup_samples_s=[t for _, t in setup],
                  setup_probe_s=[probe for probe, _ in setup],
                  probe_s=probes, reference_speed_factor=speed,
                  raw_wall_min_s=min(walls), raw_wall_median_s=statistics.median(walls),
                  raw_setup_median_s=statistics.median(t for _, t in setup),
                  warmup_and_runs_s=time.perf_counter() - t0)
    return metrics, record


def per_layer(args, w, gate):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    # the single-thread baseline also runs in the warm-up, so that no timed
    # run is the first one at its thread count
    single_baseline = w.name == "triangle"
    for threads in (w.threads, 1) if single_baseline else (w.threads,):
        w.run(threads)
        w.check(gate)
    plain, traced, single, layers = [], [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start) * (1 + 1 / len(traced)) <= args.seconds:
        plain.append(timed(w.run))
        w.check(gate)
        run_id = len(traced)
        tracer.install(run_id)
        try:
            wall = timed(w.run)
        finally:
            tracer.uninstall()
        traced.append(wall)
        w.check(gate)
        layers.append(layer_metrics(tracer, run_id, w.threads, w.useful_sites))
        if single_baseline:
            reference = w.outputs()
            single.append(timed(w.run, 1))
            w.check(gate)
            gate.check(w.outputs() == reference,
                       "triangle output at PERC_THREADS=1 differs from the nproc output")
    tracer.dump(OUT / f"{w.name}.spans.jsonl.gz")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["cli.parallel.speedup"] = (statistics.median(single) / statistics.median(plain)
                                       if single else 0.0)
    record = run_record(w, plain)
    record.update(traced_walls_s=traced, single_thread_walls_s=single, layers=metrics,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        make_workload(args)
        return 0
    workloads, w = make_workload(args)
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    gate = workloads.Gate()
    measure = per_layer if args.trace else end_to_end
    metrics, record = measure(args, w, gate)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"bench: metrics not computed: {missing}")
    record["failures"] = gate.failures
    (OUT / f"{w.name}.record.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(w.out_dir, ignore_errors=True)
    for reason in gate.failures:
        print(f"FAILED: {reason}", file=sys.stderr)
    print("run record: " + json.dumps(record))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
