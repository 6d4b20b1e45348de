"""Command-line experiment runner.

Subcommands: solve2d, win-curve, draw-scan, glauber, couple-verify, verify,
pca-run.  Every run resolves its flags into a RunConfig (JSON-serializable;
written next to the outputs on request), and the outputs are a pure
function of that config: CSV tables with fixed headers and binary P6 PPM
images.  PERC_THREADS caps the worker threads used for seed-parallel runs.

CSV schemas (versioned, v1):

    win-curve    p,empirical,stderr,theory,seeds
    profile      depth,q_fraction,stderr,seeds
    sensitivity  family,p,depth,sensitivity,stderr,seeds
    glauber      sweep,class,occupation,staggered_diff
    pca-run      step,density0,densityQ,density1
    solve2d      seed,n,p,closed,win,loss,draw
    exact curve  p,win_probability,conditional_win_probability
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import exact, glauber, lattice, pca, solver
from .sitefield import COORD_LIMIT, SiteField
from .symbols import QUES

SCHEMA_VERSION = 1

HEADERS = {
    "win_curve": ["p", "empirical", "stderr", "theory", "seeds"],
    "profile": ["depth", "q_fraction", "stderr", "seeds"],
    "sensitivity": ["family", "p", "depth", "sensitivity", "stderr", "seeds"],
    "glauber": ["sweep", "class", "occupation", "staggered_diff"],
    "pca_run": ["step", "density0", "densityQ", "density1"],
    "solve2d": ["seed", "n", "p", "closed", "win", "loss", "draw"],
    "exact_curve": ["p", "win_probability", "conditional_win_probability"],
}


class UsageError(ValueError):
    """Bad input named on the command line; main reports it and exits 2."""


# the values of --variant, --kind and --init, also when a --config file sets them
CHOICES = {"variant": glauber.VARIANTS, "kind": pca.KINDS, "init": ("even", "odd", "empty")}


def worker_count() -> int:
    env = os.environ.get("PERC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"PERC_THREADS must be an integer, got {env!r}") from None
    return min(8, os.cpu_count() or 1)


def _parallel_seed_map(fn, seeds: np.ndarray):
    """Apply fn to chunks of the seed list, in parallel, preserving order."""
    workers = worker_count()
    chunks = np.array_split(seeds, min(workers, max(1, seeds.size)))
    chunks = [c for c in chunks if c.size]
    if len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


@dataclass
class RunConfig:
    subcommand: str
    family: str = "z2"
    p: float = 0.1
    p_grid: Optional[list[float]] = None
    depth: int = 100
    sizes: list[int] = dc_field(default_factory=lambda: [64])
    seeds: list[int] = dc_field(default_factory=lambda: [0])
    steps: int = 100
    variant: str = "standard"
    kind: str = "F"
    lam: Optional[float] = None
    init: str = "even"
    out: str = "out"
    fault_inject: bool = False
    weights_n: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


def _has_type(value, hint) -> bool:
    """isinstance for the type hints of RunConfig: Optional[X], list[X], and
    float, which takes ints too (JSON writes 1.0 as 1); a bool is no number."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return any(_has_type(value, a) for a in args)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_config(cfg: RunConfig) -> None:
    """Check every value of a RunConfig, whether a flag or a --config file
    set it: its type against its field's, and the choices of the flags
    --variant, --kind and --init."""
    hints = typing.get_type_hints(RunConfig)
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not _has_type(value, hints[f.name]):
            raise UsageError(f"{f.name} must be {f.type}, got {value!r}")
        if f.name in CHOICES and value not in CHOICES[f.name]:
            raise UsageError(f"{f.name} must be one of {', '.join(CHOICES[f.name])}, "
                             f"got {value!r}")
    if not cfg.seeds:
        raise UsageError("the seed list is empty")
    if not cfg.sizes:
        raise UsageError("the size list is empty")
    _at_least(min(cfg.seeds), 0, "every seed (--seed0)")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["" if v is None else _fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".10g")
    return v


def _family(name: str) -> lattice.GraphFamily:
    try:
        return lattice.family_from_name(name)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _families(names: str) -> list:
    """Comma-separated family names; commas inside parentheses belong to a
    name, as in binomial(4,1)."""
    return [_family(name) for name in re.split(r",(?![^(]*\))", names)]


def _sizes(cfg: RunConfig, fam: lattice.GraphFamily) -> tuple[int, ...]:
    """The torus sizes of --size for a family; one size stands for every
    transverse direction."""
    sizes = cfg.sizes if len(cfg.sizes) > 1 else cfg.sizes * (fam.d - 1)
    try:
        return lattice.validate_torus_sizes(fam, sizes)
    except ValueError as e:
        raise UsageError(f"--size: {e}") from None


def _layer_automorphism(fam: lattice.GraphFamily) -> None:
    """Boundary sensitivity and the game/Glauber coupling need (A2) or (A2')."""
    if not (fam.has_A2 or fam.has_A2_prime):
        raise UsageError(f"--family: {fam.name} does not satisfy the "
                         "layer-automorphism assumption")


def _probability(p: float, flag: str = "--p") -> float:
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"{flag} must be in [0, 1], got {p}")
    return p


def _number_list(text: str, kind, flag: str) -> list:
    """A comma-separated list of ints or floats named by ``flag``."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated {kind.__name__}s, got {text!r}") from None


def _at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")
    return value


def _depth(depth: int, top: int) -> None:
    """--depth, checked against the largest site coordinate it makes the
    solver hash, ``top`` (n on a triangle, depth + m - 1 on a slab)."""
    if depth < 0:
        raise UsageError(f"--depth must be >= 0, got {depth}")
    if top >= COORD_LIMIT:
        raise UsageError(f"--depth {depth} needs site coordinate {top}; "
                         f"the site hash takes coordinates below {COORD_LIMIT}")


def _ensure_outdir(path):
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)


# -- subcommands --------------------------------------------------------------


def cmd_solve2d(cfg: RunConfig) -> int:
    fam = _family(cfg.family)
    if fam.d != 2:
        print("solve2d requires a two-dimensional family", file=sys.stderr)
        return 2
    _probability(cfg.p)
    _depth(cfg.depth, cfg.depth)
    rows = []
    for seed in cfg.seeds:
        field = SiteField(int(seed), cfg.p, fam)
        region = solver.RegionSpec(solver.Triangle2D(cfg.depth), solver.AllQuestion())
        outcome = solver.solve_region(fam, region, field)
        img_path = f"{cfg.out}_seed{seed}.ppm"
        _ensure_outdir(img_path)
        solver.render_outcomes(outcome, img_path)
        c = outcome.counts()
        rows.append([seed, cfg.depth, cfg.p, c["closed"], c["win"], c["loss"], c["draw"]])
        print(f"wrote {img_path}  counts={c}")
    write_csv(f"{cfg.out}_counts.csv", HEADERS["solve2d"], rows)
    print(f"wrote {cfg.out}_counts.csv")
    return 0


def cmd_win_curve(cfg: RunConfig) -> int:
    if _family(cfg.family).name != "z2":
        raise UsageError(f"win-curve solves z2 triangles only, got --family {cfg.family}")
    grid = [_probability(p, "--p-grid") for p in cfg.p_grid or [0.2, 0.5]]
    _depth(cfg.depth, cfg.depth)
    seeds = np.asarray(cfg.seeds, dtype=np.int64)

    def chunk_fn(chunk):
        # one sweep per seed chunk over the whole grid: each diagonal is
        # hashed once and shared by every p
        origin, _ = solver.triangle_sweep(cfg.depth, solver.AllZero(), grid, chunk)
        return origin == 0

    wins_by_p = np.concatenate(_parallel_seed_map(chunk_fn, seeds), axis=1)
    rows = []
    for p, wins in zip(grid, wins_by_p):
        emp = float(wins.mean())
        se = float(np.sqrt(emp * (1 - emp) / wins.size)) if wins.size > 1 else 0.0
        rows.append([p, emp, se, exact.win_probability(p), wins.size])
        print(f"p={p}: empirical={emp:.5f} +- {se:.5f}, theory={exact.win_probability(p):.5f}")
    _ensure_outdir(cfg.out)
    write_csv(cfg.out, HEADERS["win_curve"], rows)
    exact_path = cfg.out + ".exact.csv"
    write_csv(exact_path, HEADERS["exact_curve"],
              exact.win_curve_rows(np.linspace(0.001, 0.999, 500)))
    print(f"wrote {cfg.out} and {exact_path}")
    return 0


def cmd_draw_scan(cfg: RunConfig) -> int:
    families = _families(cfg.family)
    if cfg.p_grid:
        grid = [_probability(p, "--p-grid") for p in cfg.p_grid]
    else:
        grid = [_probability(cfg.p)]
    # every family is checked before the first one writes its outputs
    torus_sizes = [_sizes(cfg, fam) for fam in families]
    for fam in families:
        _layer_automorphism(fam)
    _depth(cfg.depth, cfg.depth + max(fam.m for fam in families) - 1)
    seeds = np.asarray(cfg.seeds, dtype=np.int64)
    sens_rows = []
    for fam, sizes in zip(families, torus_sizes):
        index = solver.SlabIndex(fam, sizes)
        for p in grid:
            # every depth and boundary at this p reads one cache of closed bits
            closed = solver.ClosedLayers(index, p, seeds)
            prof = solver.draw_density_profile(fam, cfg.depth, sizes, p, seeds,
                                               closed=closed)
            prof_path = f"{cfg.out}_{fam.name.replace('(', '').replace(')', '').replace(',', 'x')}_p{p}_profile.csv"
            _ensure_outdir(prof_path)
            write_csv(prof_path, HEADERS["profile"], prof)
            depths = sorted({r[0] for r in prof})
            for K in depths:
                res = solver.boundary_sensitivity(fam, K, sizes, p, seeds, closed=closed)
                sens_rows.append([fam.name, p, K, res.fraction, res.stderr, seeds.size])
            print(f"{fam.name} p={p}: profile -> {prof_path}")
    write_csv(f"{cfg.out}_sensitivity.csv", HEADERS["sensitivity"], sens_rows)
    print(f"wrote {cfg.out}_sensitivity.csv")
    return 0


def cmd_glauber(cfg: RunConfig) -> int:
    fam = _family(cfg.family)
    sizes = _sizes(cfg, fam)
    if cfg.lam is not None:
        try:
            p = exact.p_from_activity(cfg.lam, cfg.variant)
        except ValueError as e:
            raise UsageError(f"--lam: {e}") from None
    else:
        p = _probability(cfg.p)
    _at_least(cfg.steps, 1, "--steps")
    try:
        torus = glauber.build_doubling_torus(fam, sizes)
    except lattice.UnsupportedFamilyError as e:
        raise UsageError(f"--family: {e}") from None
    field = SiteField(int(cfg.seeds[0]), p, fam)
    rows = glauber.sweep_chain(torus, p, cfg.variant, cfg.steps, field,
                               init=cfg.init, record_every=max(1, cfg.steps // 200))
    _ensure_outdir(cfg.out)
    write_csv(cfg.out, HEADERS["glauber"], rows)
    print(f"wrote {cfg.out} ({len(rows)} rows, p={p:.6g})")
    return 0


def cmd_couple_verify(cfg: RunConfig) -> int:
    fam = _family(cfg.family)
    sizes = _sizes(cfg, fam)
    _probability(cfg.p)
    _depth(cfg.depth, cfg.depth + fam.m - 1)
    _layer_automorphism(fam)
    variant = "extended" if fam.has_A2_prime else "standard"
    counts = glauber.coupling_mismatches(fam, cfg.depth, sizes, cfg.p, cfg.seeds, variant)
    for seed, n in zip(cfg.seeds, counts):
        print(f"seed {seed}: {'ok' if n == 0 else f'MISMATCH ({n} sites)'}")
    failures = int(np.count_nonzero(counts))
    print(f"couple-verify {fam.name}: {len(cfg.seeds) - failures}/{len(cfg.seeds)} exact")
    return 1 if failures else 0


def cmd_pca_run(cfg: RunConfig) -> int:
    n = _at_least(cfg.sizes[0], 3, "--size (the ring length)")
    _at_least(cfg.steps, 0, "--steps")
    field = SiteField(int(cfg.seeds[0]), _probability(cfg.p))
    initial = np.full(n, QUES if cfg.kind in ("F", "G", "D") else 0, dtype=np.int8)
    stats = pca.trajectory_stats(cfg.kind, initial, cfg.p, cfg.steps, field)
    _ensure_outdir(cfg.out)
    write_csv(cfg.out, HEADERS["pca_run"], pca.trajectory_csv_rows(stats))
    print(f"wrote {cfg.out} (final densities {stats[-1]})")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    """Exact-verification battery; nonzero exit on any failure."""
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as e:  # a battery must report, not crash
            ok, detail = False, f"error: {e}"
        checks.append((name, ok, detail))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    if cfg.weights_n is not None and cfg.weights_n < 5:
        print("ring too small: weight identities need n >= 5", file=sys.stderr)
        return 2

    def stationarity():
        worst = 0.0
        for p in (0.2, 0.5, 0.8):
            mm = exact.matrix_P(p)
            if cfg.fault_inject:
                T = mm.T.copy()
                T[0, 0] += 1e-3
                T[0, 1] -= 1e-3
                mm = exact.MarkovMeasure(T, exact.stationary_vector(T))
            worst = max(worst, exact.markov_pushforward_deviation("A", p, mm, 5))
        return worst <= 1e-12, f"max deviation {worst:.3e}"

    def p_equals_q2():
        worst = 0.0
        for p in np.arange(0.1, 0.95, 0.1):
            q = exact.matrix_Q(1.0 / p - 1.0)
            worst = max(worst, float(np.abs(q.T @ q.T - exact.matrix_P(p).T).max()))
        return worst <= 1e-10, f"max deviation {worst:.3e}"

    def compositions():
        worst = 0.0
        for n in (4, 5, 6):
            for p in (0.25, 0.5, 0.75):
                worst = max(worst, pca.composition_check("F", n, p))
                worst = max(worst, pca.composition_check("G", n, p))
                if not pca.stavskaya_identity_check(p, n):
                    return False, f"B != flip∘stavskaya at n={n}, p={p}"
        return worst <= 1e-12, f"max kernel deviation {worst:.3e}"

    def weights():
        ns = [cfg.weights_n] if cfg.weights_n else [5, 6]
        for n in ns:
            rep = exact.weight_identities_check(n)
            if not rep.passed:
                return False, rep.summary()
        return True, f"exact on rings n in {ns}"

    def kernel_stat():
        worst = 0.0
        for nbrs, classes in (glauber.cycle_graph(6), glauber.grid_graph(2, 3)):
            for lam in (0.5, 1.0, 3.0):
                worst = max(worst, exact.kernel_stationarity_check(nbrs, classes, lam))
            worst = max(worst, exact.kernel_stationarity_check(nbrs, classes, 0.7,
                                                               "extended"))
        return worst <= 1e-12, f"max |piK - pi| {worst:.3e}"

    def couplings():
        fams = [(lattice.z2(), (16,)), (lattice.even_sublattice(3), (8, 8)),
                (lattice.subset_increment(3), (6, 6)),
                (lattice.even_sublattice_extended(3), (8, 8))]
        seeds = cfg.seeds[:5] or [0]
        for fam, sizes in fams:
            counts = glauber.coupling_mismatches(fam, 12, sizes, 0.3, seeds)
            for seed, n in zip(seeds, counts):
                if n:
                    return False, f"{fam.name} seed {seed}: {n} mismatches"
        return True, "exact pathwise equality"

    check("stationarity A_p mu_p = mu_p", stationarity)
    check("P = Q^2", p_equals_q2)
    check("composition identities", compositions)
    check("weight identities", weights)
    check("Glauber kernel stationarity", kernel_stat)
    check("game<->Glauber coupling", couplings)
    failed = [name for name, ok, _ in checks if not ok]
    print(f"verify: {len(checks) - len(failed)}/{len(checks)} passed")
    return 1 if failed else 0


COMMANDS = {
    "solve2d": cmd_solve2d,
    "win-curve": cmd_win_curve,
    "draw-scan": cmd_draw_scan,
    "glauber": cmd_glauber,
    "couple-verify": cmd_couple_verify,
    "verify": cmd_verify,
    "pca-run": cmd_pca_run,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="percgame",
                                 description="percolation-game experiments")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON RunConfig; flags override")
        sp.add_argument("--family", default=None,
                        help="family name, e.g. z2, even(3), subset(3), binomial(4,1)")
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--p-grid", default=None,
                        help="comma-separated probabilities")
        sp.add_argument("--depth", type=int, default=None)
        sp.add_argument("--size", default=None,
                        help="comma-separated transverse sizes (or ring/torus size)")
        sp.add_argument("--seeds", type=int, default=None,
                        help="number of seeds (0..n-1)")
        sp.add_argument("--seed0", type=int, default=0, help="first seed")
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--variant", choices=CHOICES["variant"], default=None)
        sp.add_argument("--kind", choices=CHOICES["kind"], default=None)
        sp.add_argument("--lam", type=float, default=None, help="hard-core activity")
        sp.add_argument("--init", choices=CHOICES["init"], default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--fault-inject", action="store_true",
                        help="negative control: perturb the exact matrix")
        sp.add_argument("--weights-n", type=int, default=None)
        sp.add_argument("--save-config", action="store_true",
                        help="write the resolved RunConfig next to --out")
    return ap


def resolve_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = RunConfig.from_json(fh.read())
        except (OSError, ValueError, TypeError) as e:
            raise UsageError(f"--config: {e}") from None
        cfg.subcommand = args.subcommand
    else:
        cfg = RunConfig(subcommand=args.subcommand)
    if args.family is not None:
        cfg.family = args.family
    if args.p is not None:
        cfg.p = args.p
    if args.p_grid is not None:
        cfg.p_grid = _number_list(args.p_grid, float, "--p-grid")
    if args.depth is not None:
        cfg.depth = args.depth
    if args.size is not None:
        cfg.sizes = _number_list(args.size, int, "--size")
    if args.seeds is not None:
        _at_least(args.seeds, 1, "--seeds")
        cfg.seeds = list(range(args.seed0, args.seed0 + args.seeds))
    if args.steps is not None:
        cfg.steps = args.steps
    if args.variant is not None:
        cfg.variant = args.variant
    if args.kind is not None:
        cfg.kind = args.kind
    if args.lam is not None:
        cfg.lam = args.lam
    if args.init is not None:
        cfg.init = args.init
    if args.out is not None:
        cfg.out = args.out
    cfg.fault_inject = bool(getattr(args, "fault_inject", False))
    if args.weights_n is not None:
        cfg.weights_n = args.weights_n
    _check_config(cfg)
    if getattr(args, "save_config", False):
        path = cfg.out + ".config.json"
        _ensure_outdir(path)
        with open(path, "w") as fh:
            fh.write(cfg.to_json())
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.subcommand](resolve_config(args))
    except UsageError as e:
        print(f"percgame {args.subcommand}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
