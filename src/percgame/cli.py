"""Command-line experiment runner.

Subcommands: solve2d, win-curve, draw-scan, glauber, couple-verify, verify,
pca-run.  Every run resolves its flags into a RunConfig (JSON-serializable;
written next to the outputs on request), and the outputs are a pure
function of that config: CSV tables with fixed headers and binary P6 PPM
images.  PERC_THREADS caps the worker processes that seed-parallel runs
fork (win-curve; the fork start method, so Linux).

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
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import exact, glauber, lattice, pca, solver
from .sitefield import COORD_LIMIT
from .symbols import QUES

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


def worker_count() -> int:
    """The number of worker processes PERC_THREADS asks for (default: the
    CPU count, at most 8); a value below 1 is refused."""
    env = os.environ.get("PERC_THREADS")
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        workers = int(env)
    except ValueError:
        raise UsageError(f"PERC_THREADS must be an integer, got {env!r}") from None
    if workers < 1:
        raise UsageError(f"PERC_THREADS must be >= 1, got {workers}")
    return workers


# (fn, chunks) of the running _parallel_seed_map, set in each forked worker
_JOB = None


def _set_job(job) -> None:
    global _JOB
    _JOB = job


def _run_chunk(i: int):
    fn, chunks = _JOB
    return fn(chunks[i])


def _parallel_seed_map(fn, seeds: np.ndarray):
    """Apply fn to chunks of the seed list, in forked worker processes,
    preserving order.  At most one worker per CPU of this process's
    affinity mask and per seed is forked.  The workers inherit fn and the
    chunks through the fork (the pool's initializer arguments are not
    pickled under fork), so fn may be a closure; only chunk indices and
    fn's results cross the pipes."""
    workers = min(worker_count(), len(os.sched_getaffinity(0)), seeds.size)
    chunks = np.array_split(seeds, workers)
    if workers <= 1:
        return [fn(c) for c in chunks]
    import multiprocessing

    # fork, not spawn: fn may be a closure, which cannot be pickled, and a
    # spawned worker would import numpy and percgame again.  The pool forks
    # its workers before it starts its handler threads, and percgame starts
    # no thread of its own.
    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_set_job, initargs=((fn, chunks),)) as pool:
        results = pool.map(_run_chunk, range(workers))
        pool.close()
        pool.join()
    return results


def _probability(value, flag: str) -> None:
    """--p, or each value of --p-grid, lies in [0, 1]."""
    for p in value if isinstance(value, list) else [value]:
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"{flag} must be in [0, 1], got {p}")


def _at_least(value: int, flag: str, low: int = 0) -> int:
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")
    return value


def _size_list(sizes: list, flag: str) -> None:
    if not sizes:
        raise UsageError("the size list is empty")


def _seed_list(seeds: list, flag: Optional[str]) -> None:
    if not seeds:
        raise UsageError("the seed list is empty")
    _at_least(min(seeds), "every seed (--seed0)")


def _weight_ring(n: int, flag: str) -> None:
    if n not in exact.WEIGHT_RINGS:
        size = "small" if n < exact.WEIGHT_RINGS[0] else "large"
        raise UsageError(f"{flag} {n}: ring too {size} for the weight identities")


def _numbers(kind):
    """The parser of a comma-separated list of ints or floats; its name
    says what it takes, as int's and float's do."""
    def parse(text: str) -> list:
        return [kind(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}s"
    parse.kind = kind
    return parse


def _flag(option: Optional[str], default=None, parse=str, check=None, choices=None,
          help=None):
    """A RunConfig field, set by the flag ``option`` (None: by the
    hand-written --seeds and --seed0).  ``parse`` turns the flag's text into
    the value, so it names the type (``bool``: a switch); ``check(value,
    option)`` raises UsageError on a bad value from a flag or a --config file."""
    meta = dict(option=option, parse=parse, check=check, choices=choices, help=help)
    if isinstance(default, list):
        return dc_field(default_factory=default.copy, metadata=meta)
    return dc_field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """The input of a run.  Its fields but subcommand are the flag table."""
    subcommand: str
    family: str = _flag("--family", "z2",
                        help="family name, e.g. z2, even(3), subset(3), binomial(4,1)")
    p: float = _flag("--p", 0.1, float, _probability)
    p_grid: Optional[list[float]] = _flag("--p-grid", None, _numbers(float), _probability,
                                          help="comma-separated probabilities")
    depth: int = _flag("--depth", 100, int, _at_least)
    sizes: list[int] = _flag("--size", [64], _numbers(int), _size_list,
                             help="comma-separated transverse sizes (or ring/torus size)")
    seeds: list[int] = _flag(None, [0], _numbers(int), _seed_list)
    steps: int = _flag("--steps", 100, int)
    variant: str = _flag("--variant", "standard", choices=glauber.VARIANTS)
    kind: str = _flag("--kind", "F", choices=pca.KINDS)
    lam: Optional[float] = _flag("--lam", None, float, help="hard-core activity")
    init: str = _flag("--init", "even", choices=("even", "odd", "empty"))
    out: str = _flag("--out", "out")
    fault_inject: bool = _flag("--fault-inject", False, bool,
                               help="negative control: perturb the exact matrix")
    weights_n: Optional[int] = _flag("--weights-n", None, int, _weight_ring,
                                     help="ring length of the weight identities (default: 5, 6)")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


# the rows of the flag table, in field order
_FLAGS = [f for f in dataclasses.fields(RunConfig) if f.metadata]


def _has_type(value, parse) -> bool:
    """Whether a value has the type that ``parse`` makes of a flag's text: a
    list for a comma-separated parse, and a float takes ints too (JSON
    writes 1.0 as 1); a bool is no number."""
    if hasattr(parse, "kind"):
        return isinstance(value, list) and all(_has_type(v, parse.kind) for v in value)
    if isinstance(value, bool):
        return parse is bool
    return isinstance(value, (int, float) if parse is float else parse)


def _check_config(cfg: RunConfig) -> None:
    """Check every value of a RunConfig, whether a flag or a --config file
    set it: its type against its field's, then the choices and the check of
    its row.  A field whose default is None may be None."""
    for f in _FLAGS:
        value, row = getattr(cfg, f.name), f.metadata
        if value is None and f.default is None:
            continue
        if not _has_type(value, row["parse"]):
            raise UsageError(f"{f.name} must be {f.type}, got {value!r}")
        if row["choices"] and value not in row["choices"]:
            raise UsageError(f"{f.name} must be one of {', '.join(row['choices'])}, "
                             f"got {value!r}")
        if row["check"]:
            row["check"](value, row["option"])


def write_csv(path, header, rows):
    _ensure_outdir(path)
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
    if not fam.has_phi:
        raise UsageError(f"--family: {fam.name} does not satisfy the "
                         "layer-automorphism assumption")


def _depth(depth: int, top: int) -> None:
    """--depth, checked against the largest site coordinate it makes the
    solver hash, ``top`` (n on a triangle, depth + m - 1 on a slab)."""
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
        raise UsageError(f"--family: solve2d requires a two-dimensional family, "
                         f"got {fam.name}")
    _depth(cfg.depth, cfg.depth)
    rows = []
    for seed in cfg.seeds:
        outcome = solver.solve_triangle(cfg.depth, solver.AllQuestion(), cfg.p, int(seed))
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
    grid = cfg.p_grid or [cfg.p]
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
    write_csv(cfg.out, HEADERS["win_curve"], rows)
    exact_path = cfg.out + ".exact.csv"
    write_csv(exact_path, HEADERS["exact_curve"],
              exact.win_curve_rows(np.linspace(0.001, 0.999, 500)))
    print(f"wrote {cfg.out} and {exact_path}")
    return 0


def cmd_draw_scan(cfg: RunConfig) -> int:
    families = _families(cfg.family)
    grid = cfg.p_grid or [cfg.p]
    # every family is checked before the first one writes its outputs
    torus_sizes = [_sizes(cfg, fam) for fam in families]
    for fam in families:
        _layer_automorphism(fam)
    _depth(cfg.depth, cfg.depth + max(fam.m for fam in families) - 1)
    seeds = np.asarray(cfg.seeds, dtype=np.int64)
    sens_rows = []
    for fam, sizes in zip(families, torus_sizes):
        index = solver.SlabIndex(fam, sizes)
        depths = solver.profile_depths(fam.m, cfg.depth)
        for p in grid:
            prof, sens = solver.draw_scan(index, p, seeds, depths)
            prof_path = f"{cfg.out}_{fam.name.replace('(', '').replace(')', '').replace(',', 'x')}_p{p}_profile.csv"
            write_csv(prof_path, HEADERS["profile"], prof)
            for K, res in zip(depths, sens):
                sens_rows.append([fam.name, p, K, res.fraction, res.stderr, seeds.size])
            print(f"{fam.name} p={p}: profile -> {prof_path}")
    write_csv(f"{cfg.out}_sensitivity.csv", HEADERS["sensitivity"], sens_rows)
    print(f"wrote {cfg.out}_sensitivity.csv")
    return 0


def cmd_glauber(cfg: RunConfig) -> int:
    fam = _family(cfg.family)
    sizes = _sizes(cfg, fam)
    p = cfg.p
    if cfg.lam is not None:
        try:
            p = exact.p_from_activity(cfg.lam, cfg.variant)
        except ValueError as e:
            raise UsageError(f"--lam: {e}") from None
    _at_least(cfg.steps, "--steps", 1)
    try:
        torus = glauber.build_doubling_torus(fam, sizes)
    except lattice.UnsupportedFamilyError as e:
        raise UsageError(f"--family: {e}") from None
    rows = glauber.sweep_chain(torus, p, cfg.variant, cfg.steps, int(cfg.seeds[0]),
                               init=cfg.init, record_every=max(1, cfg.steps // 200))
    write_csv(cfg.out, HEADERS["glauber"], rows)
    print(f"wrote {cfg.out} ({len(rows)} rows, p={p:.6g})")
    return 0


def cmd_couple_verify(cfg: RunConfig) -> int:
    fam = _family(cfg.family)
    sizes = _sizes(cfg, fam)
    _depth(cfg.depth, cfg.depth + fam.m - 1)
    _layer_automorphism(fam)
    counts = glauber.coupling_mismatches(fam, cfg.depth, sizes, cfg.p, cfg.seeds)
    for seed, n in zip(cfg.seeds, counts):
        print(f"seed {seed}: {'ok' if n == 0 else f'MISMATCH ({n} sites)'}")
    failures = int(np.count_nonzero(counts))
    print(f"couple-verify {fam.name}: {len(cfg.seeds) - failures}/{len(cfg.seeds)} exact")
    return 1 if failures else 0


def cmd_pca_run(cfg: RunConfig) -> int:
    n = _at_least(cfg.sizes[0], "--size (the ring length)", 3)
    _at_least(cfg.steps, "--steps")
    initial = np.full(n, QUES if cfg.kind in ("F", "G", "D") else 0, dtype=np.int8)
    stats = pca.trajectory_stats(cfg.kind, initial, cfg.p, cfg.steps, int(cfg.seeds[0]))
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


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (an unknown flag, a missing value) as UsageError."""
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with the table's flags and the
    hand-written --config, --seeds, --seed0 and --save-config."""
    flags = _Parser(add_help=False)
    flags.add_argument("--config", help="JSON RunConfig; flags override")
    for f in _FLAGS:
        row = f.metadata
        if row["parse"] is bool:
            flags.add_argument(row["option"], dest=f.name, action="store_const", const=True,
                               help=row["help"])
        elif row["option"]:
            metavar = "{" + ",".join(row["choices"]) + "}" if row["choices"] else None
            flags.add_argument(row["option"], dest=f.name, metavar=metavar,
                               help=row["help"])
    flags.add_argument("--seeds", help="number of seeds (seed0, seed0 + 1, ...)")
    flags.add_argument("--seed0", help="first seed (default 0); alone, the one seed")
    flags.add_argument("--save-config", action="store_true",
                       help="write the resolved RunConfig next to --out")
    ap = _Parser(prog="percgame", description="percolation-game experiments")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[flags])
    return ap


def _parse(parse, option: str, text: str):
    try:
        return parse(text)
    except ValueError:
        raise UsageError(f"{option} takes {parse.__name__}, got {text!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The checked RunConfig of a run: a --config file or the defaults,
    overridden by every flag that was given."""
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = RunConfig.from_json(fh.read())
        except (OSError, ValueError, TypeError) as e:
            raise UsageError(f"--config: {e}") from None
        cfg.subcommand = args.subcommand
    else:
        cfg = RunConfig(subcommand=args.subcommand)
    for f in _FLAGS:
        row = f.metadata
        text = getattr(args, f.name) if row["option"] else None
        if text is not None:
            setattr(cfg, f.name, _parse(row["parse"], row["option"], text))
    if args.seeds is not None or args.seed0 is not None:
        start = 0 if args.seed0 is None else _parse(int, "--seed0", args.seed0)
        count = 1 if args.seeds is None else _parse(int, "--seeds", args.seeds)
        cfg.seeds = list(range(start, start + _at_least(count, "--seeds", 1)))
    _check_config(cfg)
    return cfg


def main(argv=None) -> int:
    prog = "percgame"
    try:
        args = build_parser().parse_args(argv)
        prog = f"percgame {args.subcommand}"
        cfg = resolve_config(args)
        code = COMMANDS[args.subcommand](cfg)
    except UsageError as e:
        print(f"{prog}: error: {e}", file=sys.stderr)
        return 2
    if args.save_config:
        path = cfg.out + ".config.json"
        _ensure_outdir(path)
        with open(path, "w") as fh:
            fh.write(cfg.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
