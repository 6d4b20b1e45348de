"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Statistical thresholds marked "calibrated" were fixed by pilot runs
recorded in README.md (section "Calibrated thresholds") and are not tuned
by the tests themselves.
"""

import hashlib
import runpy
import time
from pathlib import Path

import numpy as np
import pytest

from percgame import exact, glauber
from percgame import lattice as lat
from percgame import pca, solver
from percgame.symbols import LINEAR_RANK, ONE, QUES, ZERO

Z2 = lat.z2()
EVEN3 = lat.even_sublattice(3)
SUB3 = lat.subset_increment(3)
EXT3 = lat.even_sublattice_extended(3)

P_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_01_exact_stationarity():
    t0 = time.time()
    worst = max(exact.markov_pushforward_deviation("A", p, exact.matrix_P(p), 6)
                for p in P_GRID)
    dt = time.time() - t0
    report(1, worst <= 1e-12 and dt < 1.0,
           f"stationarity A_p mu_p = mu_p, words <= 6: max dev {worst:.2e} in {dt:.2f}s")


def test_02_P_equals_Q_squared():
    t0 = time.time()
    worst = max(float(np.abs(exact.matrix_Q(1 / p - 1).T @ exact.matrix_Q(1 / p - 1).T
                             - exact.matrix_P(p).T).max()) for p in P_GRID)
    ref = np.array([[0.763932, 0.236068], [0.618034, 0.381966]])
    at_half = float(np.abs(exact.matrix_P(0.5).T - ref).max())
    dt = time.time() - t0
    report(2, worst <= 1e-10 and at_half <= 1e-6 and dt < 1.0,
           f"P = Q^2: max dev {worst:.2e}; p=0.5 entries within {at_half:.2e}")


def test_03_win_probability_monte_carlo():
    t0 = time.time()
    seeds = np.arange(1000)
    details = []
    ok = True
    for p in (0.2, 0.5):
        origin = solver.triangle_sweep(400, solver.AllZero(), [p], seeds)
        emp = float((origin == ZERO).mean())
        theory = exact.win_probability(p)
        se = np.sqrt(emp * (1 - emp) / seeds.size)
        ok &= abs(emp - theory) <= 3 * se
        details.append(f"p={p}: {emp:.4f} vs {theory:.4f} ({abs(emp-theory)/se:.2f} SE)")
    dt = time.time() - t0
    report(3, ok and dt < 300, "; ".join(details) + f" [{dt:.0f}s]")


def test_04_conditional_win_properties():
    t0 = time.time()
    grid = np.arange(1, 10_000) * 1e-4
    vals = np.array([exact.conditional_win_probability(float(p)) for p in grid])
    window_ok = np.array_equal(vals > 0.5, grid < 1 / 3)
    argmax = float(grid[np.argmax(vals)])
    target = (2 - np.sqrt(3)) / 3
    dt = time.time() - t0
    report(4, window_ok and abs(argmax - target) < 1e-4 and dt < 1.0,
           f"window (0,1/3) exact; argmax {argmax:.6f} vs {target:.6f} [{dt:.2f}s]")


def test_05_composition_identities():
    t0 = time.time()
    worst = 0.0
    stav_ok = True
    for n in range(4, 9):
        for p in (0.25, 0.5, 0.75):
            worst = max(worst, pca.composition_check("F", n, p))
            worst = max(worst, pca.composition_check("G", n, p))
            stav_ok &= pca.stavskaya_identity_check(p, n)
    dt = time.time() - t0
    report(5, worst <= 1e-12 and stav_ok and dt < 30,
           f"F=R0oD, G=R1oD, B=flip o stavskaya on n=4..8: max dev {worst:.2e} [{dt:.0f}s]")


def test_06_weight_system():
    t0 = time.time()
    ok = True
    total = 0
    for n in range(5, 10):
        rep = exact.weight_identities_check(n)
        ok &= rep.passed
        total += rep.words_checked
    dt = time.time() - t0
    report(6, ok and dt < 120,
           f"weight identities + inequality + strictness, {total} ring words [{dt:.0f}s]")


def _lower_linear(rng, cells):
    out = cells.copy()
    out[(cells == ONE) & (rng.random(cells.shape) < 0.5)] = QUES
    out[(out == QUES) & (rng.random(cells.shape) < 0.5)] = ZERO
    return out


def test_07_monotone_couplings():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n, batch, steps = 24, 4000, 5  # 4000 pairs * 5 steps = 2e4 ... x5 batches
    viol_rev = viol_q = viol_env = 0
    checks = 0
    for rep_i in range(5):
        seeds = np.arange(rep_i * batch, (rep_i + 1) * batch)
        c2 = rng.choice([ZERO, ONE, QUES], size=(batch, n)).astype(np.int8)
        c1 = _lower_linear(rng, c2)
        c3 = c2.copy()
        c3[rng.random((batch, n)) < 0.4] = QUES
        b1 = rng.integers(0, 2, (batch, n)).astype(np.int8)
        b2 = rng.integers(0, 2, (batch, n)).astype(np.int8)
        q = np.full((batch, n), QUES, dtype=np.int8)
        for t in range(steps):
            o1 = pca.step("F", c1, 0.3, seeds, t)
            o2 = pca.step("F", c2, 0.3, seeds, t)
            o3 = pca.step("F", c3, 0.3, seeds, t)
            # order reversal: c1 <= c2 alternates, so compare pairwise per step
            viol_rev += int((LINEAR_RANK[o1] < LINEAR_RANK[o2]).any(axis=1).sum()) \
                if t % 2 == 0 else \
                int((LINEAR_RANK[o1] > LINEAR_RANK[o2]).any(axis=1).sum())
            viol_q += int((~((o3 == QUES) | (o2 == o3))).any(axis=1).sum())
            c1, c2, c3 = o1, o2, o3
            b1 = pca.step("F", b1, 0.3, seeds, t)
            b2 = pca.step("F", b2, 0.3, seeds, t)
            q = pca.step("F", q, 0.3, seeds, t)
            viol_env += int(((b1 != b2) & (q != QUES)).any(axis=1).sum())
            checks += batch
    dt = time.time() - t0
    report(7, viol_rev == viol_q == viol_env == 0 and checks >= 100_000 and dt < 60,
           f"{checks} coupled pair-steps per property: "
           f"reversal {viol_rev}, ques-order {viol_q}, envelope {viol_env} violations [{dt:.0f}s]")


def test_08_no_preimage_pattern():
    t0 = time.time()
    exhaustive_hits = sum(pca.pattern_101_reachable("F", n) for n in range(3, 9))
    rng = np.random.default_rng(99)
    hits = 0
    n, batch, steps = 32, 2000, 100  # 2000 rings x 100 steps x 5 = 1e6 steps
    for rep_i in range(5):
        seeds = np.arange(rep_i * batch, (rep_i + 1) * batch) + 10_000
        cells = rng.choice([ZERO, ONE, QUES], size=(batch, n)).astype(np.int8)
        for t in range(steps):
            cells = pca.step("F", cells, 0.2, seeds, t)
            hits += int(pca.has_pattern_101(cells))
    dt = time.time() - t0
    report(8, exhaustive_hits == 0 and hits == 0,
           f"1?1 never produced: exhaustive n<=8 and 1e6 random steps [{dt:.0f}s]")


def test_09_glauber_kernel_stationarity():
    t0 = time.time()
    graphs = {
        "C10": glauber.cycle_graph(10),
        "grid3x4": glauber.grid_graph(3, 4),
        "tri12": glauber.triangular_patch(3, 4),
    }
    worst = 0.0
    for name, (nbrs, classes) in graphs.items():
        assert len(nbrs) <= 14
        for lam in (0.5, 1.0, 3.0):
            worst = max(worst, exact.kernel_stationarity_check(nbrs, classes, lam))
        # the extended update is only defined for lam < 1 (activity 1 - p);
        # the lam grid restricted to that domain
        worst = max(worst, exact.kernel_stationarity_check(nbrs, classes, 0.5, "extended"))
    dt = time.time() - t0
    report(9, worst <= 1e-12 and dt < 120,
           f"class-update stationarity on C10/grid3x4/tri12: max |piK-pi| {worst:.2e} [{dt:.0f}s]")


def test_10_game_glauber_coupling():
    t0 = time.time()
    cases = [
        (Z2, (64,), 50, 0.3, None),
        (EVEN3, (16, 16), 30, 0.2, None),
        (SUB3, (9, 9), 30, 0.25, None),
        (EXT3, (16, 16), 30, 0.5, "extended"),
    ]
    bad = []
    for fam, sizes, K, p, variant in cases:
        for seed in range(100):
            rep = glauber.game_glauber_coupling_check(fam, K, sizes, p, seed, variant)
            if not rep.ok:
                bad.append((fam.name, seed, rep.mismatches))
    dt = time.time() - t0
    report(10, not bad and dt < 300,
           f"sigma_k(v) = gamma(f_k^-1(v)) exact, 100 seeds x 4 families [{dt:.0f}s]"
           + (f" failures: {bad[:3]}" if bad else ""))


def test_11_dimension_contrast():
    # calibrated: z2 ring 64; even(3) torus 32^2 (see README)
    t0 = time.time()
    seeds = np.arange(200)
    _, (r50, r400) = solver.draw_scan(solver.SlabIndex(Z2, (64,)), 0.1, seeds, [50, 400])
    s50, s400 = r50.fraction, r400.fraction
    decay_ok = s50 > 0 and s400 <= s50 / 3
    _, (r20, r60) = solver.draw_scan(solver.SlabIndex(EVEN3, (32, 32)), 0.05, seeds, [20, 60])
    s20, s60 = r20.fraction, r60.fraction
    plateau_ok = s60 >= 0.5 * s20 > 0
    dt = time.time() - t0
    report(11, decay_ok and plateau_ok and dt < 1800,
           f"z2 p=0.1: {s50:.3f}@K50 -> {s400:.3f}@K400 (factor>=3); "
           f"even(3) p=0.05: {s20:.3f}@K20 -> {s60:.3f}@K60 (plateau) [{dt:.0f}s]")


def test_12_symmetry_breaking_demo():
    # calibrated: persistence checked at every 100-sweep checkpoint; the
    # lam=0.5 collapse uses the time-averaged staggered difference over the
    # final half of the run (the instantaneous value fluctuates at the
    # ~0.04 level on a 32^2 torus)
    t0 = time.time()
    torus = glauber.build_doubling_torus(EVEN3, (32, 32))
    seeds = np.arange(50)
    persist = []
    for init, sign in (("even", 1), ("odd", -1)):
        _, occ = glauber.run_chains(torus, 1 / 6, "standard", 10_000, seeds,
                                    init, record_every=100)
        d = glauber.staggered_difference(occ) * sign
        persist.append((d > 0.2).all(axis=1))
    frac_persist = float((persist[0] & persist[1]).mean())
    collapse_ok = True
    for init in ("even", "odd"):
        _, occ = glauber.run_chains(torus, 1 / (1 + 0.5), "standard", 2000, seeds,
                                    init, record_every=100)
        d = glauber.staggered_difference(occ)
        tail = np.abs(d[:, d.shape[1] // 2:].mean(axis=1))
        collapse_ok &= bool((tail < 0.05).all())
    dt = time.time() - t0
    report(12, frac_persist >= 0.95 and collapse_ok and dt < 600,
           f"lam=5: opposite-sign |diff|>0.2 through 1e4 sweeps in {frac_persist:.0%} "
           f"of seeds; lam=0.5: tail-averaged |diff| < 0.05 [{dt:.0f}s]")


# SHA-256 of the stdout (UTF-8) of demos/exact_identities.py, recorded
# before the cylinder tables were folded into MarkovMeasure
EXACT_DEMO_STDOUT_SHA256 = "05b99d996f5f419460f8ffa65d504fddf6c6e03f6297f9c7f8dc9230510836eb"


def test_13_exact_demo_output(capsys):
    demo = Path(__file__).resolve().parent.parent / "demos" / "exact_identities.py"
    runpy.run_path(str(demo), run_name="__main__")
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    report(13, digest == EXACT_DEMO_STDOUT_SHA256,
           f"demos/exact_identities.py stdout SHA-256 {digest[:12]}... pinned")
