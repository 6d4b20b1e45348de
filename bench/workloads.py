"""The benchmark's four workloads: their inputs, site counts and output checks.

Each workload drives percgame through ``cli.main`` or its public functions
only.  Its seeds come from the workload seed (``seed_range``), so the same
workload seed always gives the same inputs and outputs.

Why these four (each stresses a different layer; see the tables in
``tracer.py`` for the per-layer metrics):

    triangle    win-curve on z2 triangles: hash-bound (2-coordinate sites),
                the only workload that uses the CLI's thread pool
    slab        draw-scan on even(3): slab_sweep's gather and rules, hashing
                at 3-coordinate sites, SlabIndex rebuilds
    chains      Glauber chains on the even(3) 32x32 doubling torus: hashing
                with (t, i) tags and class_update
    identities  verify, couple-verify and pca-run: exact kernels, the
                site-by-site coupling oracle and lattice helpers; almost no
                array hashing, so a hash or sweep change should not move it
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

from percgame import cli, exact, glauber, lattice

# Digests in digests.json are recorded at this workload seed, from the code
# the benchmark was defined on.  They are committed data, not regenerated by
# the benchmark: a change meant to alter output bytes replaces them itself
# and says so.
DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).with_name("digests.json")


class Gate:
    """Counts output checks and keeps the reason of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def seed_range(workload_seed: int, count: int) -> int:
    """First seed of a run of ``count`` seeds: workload seed w owns the
    disjoint range [w * count, (w + 1) * count)."""
    if workload_seed < 0:
        raise ValueError("workload seed must be >= 0")
    return workload_seed * count


def run_cli(argv, threads: int) -> tuple[int, str]:
    """``cli.main(argv)`` at PERC_THREADS=threads, stdout captured."""
    old = os.environ.get("PERC_THREADS")
    os.environ["PERC_THREADS"] = str(threads)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([str(a) for a in argv])
    finally:
        if old is None:
            del os.environ["PERC_THREADS"]
        else:
            os.environ["PERC_THREADS"] = old
    return rc, buf.getvalue()


def check_digests(gate: Gate, workload: str, outputs: dict[str, bytes],
                  expected: dict[str, str]):
    """Every output's SHA-256 must match the recorded one, and the set of
    outputs must be the recorded set."""
    gate.check(sorted(outputs) == sorted(expected),
               f"{workload}: outputs {sorted(outputs)} != recorded {sorted(expected)}")
    for name, data in sorted(outputs.items()):
        if name in expected:
            gate.check(sha256(data) == expected[name],
                       f"{workload}: digest of {name} differs from the recorded one")


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


class Workload:
    """One benchmark workload.  ``setup`` is timed as set-up; ``run`` is
    the timed call; ``outputs`` and ``check`` run after the timing."""

    name = ""

    def __init__(self, workload_seed: int, out_dir: Path, threads: int):
        self.seed = workload_seed
        self.out_dir = Path(out_dir)
        self.threads = threads
        self.sites = 0
        # per-layer extras, fixed from the config: useful sites of slab_sweep
        self.useful_sites = 0

    def setup(self):
        raise NotImplementedError

    def run(self, threads: int | None = None):
        raise NotImplementedError

    def outputs(self) -> dict[str, bytes]:
        """Every file the last run wrote, by name."""
        return {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}

    def check_invariants(self, gate: Gate):
        raise NotImplementedError

    def check(self, gate: Gate):
        """Invariants at any seed; recorded digests at the default seed."""
        self.check_invariants(gate)
        if self.seed == DEFAULT_SEED:
            check_digests(gate, self.name, self.outputs(), load_digests()[self.name])

    def _fresh_out_dir(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)


class Triangle(Workload):
    name = "triangle"
    P_GRID = (0.2, 0.5)
    DEPTH = 400
    SEEDS = 1000

    def setup(self):
        self.seed0 = seed_range(self.seed, self.SEEDS)
        n = self.DEPTH
        self.sites = self.SEEDS * n * (n + 1) // 2 * len(self.P_GRID)

    def run(self, threads=None):
        self._fresh_out_dir()
        self.rc, _ = run_cli(
            ["win-curve", "--p-grid", ",".join(map(str, self.P_GRID)),
             "--depth", self.DEPTH, "--seeds", self.SEEDS, "--seed0", self.seed0,
             "--out", self.out_dir / "win.csv"], threads or self.threads)

    def check_invariants(self, gate):
        gate.check(self.rc == 0, f"win-curve exited {self.rc}")
        with open(self.out_dir / "win.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gate.check(len(rows) == len(self.P_GRID), "win-curve row count")
        for row in rows:
            p, emp, se = float(row["p"]), float(row["empirical"]), float(row["stderr"])
            gate.check(abs(emp - exact.win_probability(p)) <= 5 * se,
                       f"win-curve p={p}: {emp} is more than 5 stderr ({se}) "
                       f"from {exact.win_probability(p)}")


class Slab(Workload):
    name = "slab"
    FAMILY = "even(3)"
    P = 0.05
    DEPTH = 60
    SIZE = 32
    SEEDS = 100

    def setup(self):
        self.seed0 = seed_range(self.seed, self.SEEDS)
        fam = lattice.family_from_name(self.FAMILY)
        sizes = (self.SIZE,) * (fam.d - 1)
        q = fam.torus_classes
        class_size = [0] * q
        for t in lattice.torus_vertices(fam, sizes):
            class_size[lattice.torus_class(fam, t)] += 1

        def sweep_sites(depth):
            return sum(class_size[k % q] for k in range(depth)) * self.SEEDS

        # draw-scan sweeps the all-? boundary once per profile depth, then
        # the all-0 and all-1 boundaries once each per depth; the depths are
        # the default grid of draw_density_profile.
        step = max(1, self.DEPTH // 20)
        depths = sorted(set(range(fam.m, self.DEPTH + 1, step)) | {self.DEPTH})
        self.sites = 3 * sum(sweep_sites(k) for k in depths)
        # one sweep per boundary condition at the deepest depth
        self.useful_sites = 3 * sweep_sites(self.DEPTH)

    def run(self, threads=None):
        self._fresh_out_dir()
        self.rc, _ = run_cli(
            ["draw-scan", "--family", self.FAMILY, "--p", self.P, "--depth", self.DEPTH,
             "--size", self.SIZE, "--seeds", self.SEEDS, "--seed0", self.seed0,
             "--out", self.out_dir / "scan"], threads or self.threads)

    def check_invariants(self, gate):
        gate.check(self.rc == 0, f"draw-scan exited {self.rc}")
        profiles = sorted(self.out_dir.glob("*_profile.csv"))
        gate.check(len(profiles) == 1, f"draw-scan wrote {len(profiles)} profiles")
        for path in profiles:
            with open(path, newline="") as fh:
                rows = [(int(r["depth"]), float(r["q_fraction"])) for r in csv.DictReader(fh)]
            gate.check(len(rows) > 1 and all(a[0] < b[0] for a, b in zip(rows, rows[1:])),
                       f"{path.name}: depths not increasing")
            gate.check(all(b[1] <= a[1] for a, b in zip(rows, rows[1:])),
                       f"{path.name}: q_fraction increases with depth")
        gate.check((self.out_dir / "scan_sensitivity.csv").is_file(),
                   "draw-scan wrote no sensitivity table")


class Chains(Workload):
    name = "chains"
    FAMILY = "even(3)"
    SIZE = 32
    SEEDS = 50
    SWEEPS = 500
    RECORD_EVERY = 50
    LAMS = (5.0, 0.5)
    INITS = ("even", "odd")

    def setup(self):
        self.seed0 = seed_range(self.seed, self.SEEDS)
        self.seeds = np.arange(self.seed0, self.seed0 + self.SEEDS, dtype=np.int64)
        fam = lattice.family_from_name(self.FAMILY)
        self.torus = glauber.build_doubling_torus(fam, (self.SIZE,) * (fam.d - 1))
        self.sites = (self.SEEDS * self.torus.n_vertices * self.SWEEPS
                      * len(self.LAMS) * len(self.INITS))

    def run(self, threads=None):
        self.occ = {}
        for lam in self.LAMS:
            for init in self.INITS:
                _, occ = glauber.run_chains(self.torus, 1.0 / (1.0 + lam), "standard",
                                            self.SWEEPS, self.seeds, init,
                                            self.RECORD_EVERY)
                self.occ[(lam, init)] = occ

    def outputs(self):
        return {f"lam{lam:g}_{init}.occupation": np.ascontiguousarray(occ).tobytes()
                for (lam, init), occ in self.occ.items()}

    def check_invariants(self, gate):
        # ordered phase: at activity 5 the chain keeps the class it started in
        lam = self.LAMS[0]
        diff = glauber.staggered_difference(self.occ[(lam, "even")])
        gate.check((diff > 0).all(),
                   f"chains lam={lam} from even: staggered difference reached {diff.min()}")
        diff = glauber.staggered_difference(self.occ[(lam, "odd")])
        gate.check((diff < 0).all(),
                   f"chains lam={lam} from odd: staggered difference reached {diff.max()}")


class Identities(Workload):
    name = "identities"
    VERIFY_SEEDS = 5
    COUPLE = dict(family="subset(3)", size="9,9", depth=30, p=0.25, seeds=10)
    PCA = dict(kind="F", p=0.1, size=512, steps=2000)

    def setup(self):
        self.verify_seed0 = seed_range(self.seed, self.VERIFY_SEEDS)
        self.couple_seed0 = seed_range(self.seed, self.COUPLE["seeds"])
        self.pca_seed = seed_range(self.seed, 1)
        fam = lattice.family_from_name(self.COUPLE["family"])
        sizes = [int(s) for s in self.COUPLE["size"].split(",")]
        n_class = len(lattice.torus_vertices(fam, sizes)) // fam.torus_classes
        # site decisions of the coupling oracle plus PCA cell updates
        self.sites = (self.COUPLE["seeds"] * self.COUPLE["depth"] * n_class
                      + self.PCA["size"] * self.PCA["steps"])

    def run(self, threads=None):
        self._fresh_out_dir()
        threads = threads or self.threads
        self.verify_rc, _ = run_cli(["verify", "--seeds", self.VERIFY_SEEDS,
                                     "--seed0", self.verify_seed0], threads)
        c = self.COUPLE
        self.couple_rc, self.couple_stdout = run_cli(
            ["couple-verify", "--family", c["family"], "--size", c["size"],
             "--depth", c["depth"], "--p", c["p"], "--seeds", c["seeds"],
             "--seed0", self.couple_seed0], threads)
        k = self.PCA
        self.pca_rc, _ = run_cli(
            ["pca-run", "--kind", k["kind"], "--p", k["p"], "--size", k["size"],
             "--steps", k["steps"], "--seeds", 1, "--seed0", self.pca_seed,
             "--out", self.out_dir / "pca.csv"], threads)

    def check_invariants(self, gate):
        gate.check(self.verify_rc == 0, f"verify exited {self.verify_rc}")
        n = self.COUPLE["seeds"]
        gate.check(self.couple_rc == 0 and f"{n}/{n} exact" in self.couple_stdout,
                   f"couple-verify reported mismatches: {self.couple_stdout.strip()[-200:]}")
        gate.check(self.pca_rc == 0, f"pca-run exited {self.pca_rc}")
        with open(self.out_dir / "pca.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # envelope relaxation: the ?-density drains (README: < 0.05 by 2000)
        gate.check(len(rows) == self.PCA["steps"] + 1 and float(rows[-1]["densityQ"]) < 0.05,
                   "pca-run: ?-density did not drain below 0.05")


WORKLOADS = {w.name: w for w in (Triangle, Slab, Chains, Identities)}
