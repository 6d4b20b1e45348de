"""Span tracer that wraps percgame's public functions from outside ``src/``.

While installed, every traced function records one span per call: (id,
parent id, run id, name, start ns, end ns, counts).  Spans stay in memory,
packed as int64s; ``Tracer.dump`` writes them once, at the end of a
benchmark run.

Callers bind names at import (``solver``, ``glauber`` and ``pca`` each do
``from .sitefield import hash_uniforms``; ``glauber`` imports ``SlabIndex``
from ``solver``), so a wrapper replaces the function under every module
attribute that holds it, in every loaded ``percgame`` module, and in
``cli.COMMANDS``.  ``SlabIndex`` is traced through its ``__init__``.

Parent stacks are per thread.  A span opened on a worker thread (the CLI's
seed-parallel pool) with no open span of its own takes as parent the
innermost span open on the thread that installed the tracer, which is
blocked in the pool at that time.

A span's self time is its duration minus the part of it that its child
spans cover (the union of their intervals, since children on several
threads overlap).

Per-layer metrics and the end-to-end metric each should move:

    sitefield  hash_uniforms: sites_per_s on triangle (most), chains, slab;
               hash_uniform_scalar: wall_s on identities (coupling oracle)
    solver     rule and gather cost: wall_s on slab (most) and triangle;
               SlabIndex also wall_s on identities
    glauber    class_update: sites_per_s on chains; the coupling oracle
               (game_glauber_coupling_check self time): wall_s on identities
    lattice    per-site helpers: wall_s on identities; index builds on slab
    pca, exact wall_s on identities
    cli        subcommand self time and write cost everywhere; the parallel
               busy fraction and speed-up: wall_s on triangle only
"""

from __future__ import annotations

import functools
from array import array
import gzip
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from percgame import cli

# module -> traced public functions (SlabIndex: its constructor)
TRACED = {
    "sitefield": ("hash_uniforms", "hash_uniform_scalar"),
    "solver": ("triangle_sweep", "slab_sweep", "SlabIndex", "draw_density_profile",
               "boundary_sensitivity"),
    "glauber": ("class_update", "run_chains", "build_doubling_torus",
                "game_glauber_coupling_check"),
    "lattice": ("check_site", "is_member", "out_neighbors", "transverse_coord",
                "wrap_tcoord", "lift_site", "torus_vertices", "out_offset_table"),
    "pca": ("step", "ring_kernel", "compose_ring_kernels"),
    "exact": ("pushforward_cylinder", "weight_identities_check",
              "kernel_stationarity_check", "matrix_P"),
    "cli": ("write_csv",),
}


def _n_seeds(seeds) -> int:
    return int(np.atleast_1d(np.asarray(seeds)).size)


def _triangle_counts(a):
    n, s = a["n"], _n_seeds(a["seeds"])
    return {"sites": s * n * (n + 1) // 2, "batch_bytes": s * (n + 1) * 8}


def _slab_counts(a):
    index, depth = a["index"], a["depth"]
    return {"sites": _n_seeds(a["seeds"])
            * sum(index.class_size(k % index.q) for k in range(depth))}


def _class_update_counts(a):
    lead = np.asarray(a["values"]).shape[:-1]
    return {"vertex_updates": int(np.prod(lead, dtype=np.int64))
            * int(np.shape(a["uniforms"])[-1])}


# name -> counts(bound arguments, result), evaluated after the span ends
COUNTERS = {
    "sitefield.hash_uniforms": lambda a, r: {"uniforms": int(np.size(r))},
    "solver.triangle_sweep": lambda a, r: _triangle_counts(a),
    "solver.slab_sweep": lambda a, r: _slab_counts(a),
    "glauber.class_update": lambda a, r: _class_update_counts(a),
    "cli.write_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


SPAN_FIELDS = ("id", "parent", "run", "name", "start_ns", "end_ns", "counts")


class Tracer:
    def __init__(self):
        # six int64 per span: id, parent (-1: none), run, name code, start, end
        self._buf = array("q")
        self._counts: dict[int, dict] = {}
        self._names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patches: list[tuple] = []
        self.run_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        if name not in self._names:
            self._names.append(name)
        code = self._names.index(name)
        buf, ids, now = self._buf, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._root_stack[-1] if self._root_stack else -1)
            sid = next(ids)
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
            buf.extend((sid, parent, self.run_id, code, start, end))
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._counts[sid] = counter(bound.arguments, result)
            return result

        return traced

    def install(self, run_id: int):
        """Wrap every traced function; spans are tagged with run_id."""
        self.run_id = run_id
        self._root_stack = self._stack()
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "percgame" or k.startswith("percgame."))]
        for short, names in TRACED.items():
            module = sys.modules[f"percgame.{short}"]
            for attr in names:
                obj = getattr(module, attr)
                if isinstance(obj, type):
                    self._patch(obj, "__init__", self._wrap(f"{short}.{attr}", obj.__init__))
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            self._patch(mod, key, wrapper)
        for sub, fn in list(cli.COMMANDS.items()):
            self._patch(cli.COMMANDS, sub, self._wrap(f"cli.{sub}", fn))

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def spans(self, run_id=None):
        """Recorded spans, as SPAN_FIELDS tuples, of one run or of all."""
        names, counts = self._names, self._counts
        for sid, parent, run, code, start, end in zip(*[iter(self._buf)] * 6):
            if run_id is None or run == run_id:
                yield (sid, None if parent < 0 else parent, run, names[code],
                       start, end, counts.get(sid))

    def dump(self, path):
        """Write every span recorded, once, as gzipped JSON lines: a header
        line naming the fields, then one list per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans():
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _child_intervals(spans) -> dict[int, list]:
    children = defaultdict(list)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return children


def self_ns(start: int, end: int, child_intervals) -> int:
    """Self time of a span: its duration minus the union of its children's
    intervals, clipped to it."""
    covered, reach = 0, start
    for cs, ce in sorted(child_intervals):
        cs, ce = max(cs, reach), min(ce, end)
        if ce > cs:
            covered += ce - cs
            reach = ce
    return end - start - covered


def layer_metrics(tracer: Tracer, run_id: int, threads: int, useful_sites: int) -> dict:
    """Per-layer metrics of one traced run of a workload.  The spans are
    read twice from the tracer rather than copied, to keep memory small."""
    children = _child_intervals(tracer.spans(run_id))
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    batch_bytes = 0
    for sid, _, _, name, start, end, c in tracer.spans(run_id):
        calls[name] += 1
        self_s[name] += self_ns(start, end, children.pop(sid, ())) * 1e-9
        dur_s[name] += (end - start) * 1e-9
        for key, value in (c or {}).items():
            if key == "batch_bytes":
                batch_bytes = max(batch_bytes, value)
            else:
                counts[name][key] += value

    out = {}
    for short, names in TRACED.items():
        for attr in names:
            out[f"{short}.{attr}.calls"] = calls[f"{short}.{attr}"]
            out[f"{short}.{attr}.self_s"] = self_s[f"{short}.{attr}"]
    for sub in cli.COMMANDS:
        out[f"cli.{sub}.self_s"] = self_s[f"cli.{sub}"]

    hu = "sitefield.hash_uniforms"
    out[f"{hu}.uniforms"] = counts[hu]["uniforms"]
    out[f"{hu}.M_per_s"] = (counts[hu]["uniforms"] / self_s[hu] / 1e6) if self_s[hu] else 0.0
    # share of the traced busy time (all threads) spent hashing
    busy = sum(self_s.values())
    out[f"{hu}.share"] = self_s[hu] / busy if busy else 0.0
    out["solver.triangle_sweep.sites"] = counts["solver.triangle_sweep"]["sites"]
    out["solver.triangle_sweep.batch_bytes"] = batch_bytes
    swept = counts["solver.slab_sweep"]["sites"]
    out["solver.slab_sweep.sites"] = swept
    out["solver.slab_sweep.useful_sites"] = useful_sites if swept else 0
    out["solver.slab_sweep.useful_ratio"] = useful_sites / swept if swept else 0.0
    out["glauber.class_update.vertex_updates"] = counts["glauber.class_update"]["vertex_updates"]
    out["cli.write_csv.bytes"] = counts["cli.write_csv"]["bytes"]
    # time worker threads spend inside triangle_sweep, over the pool's capacity
    pool_s = threads * dur_s["cli.win-curve"]
    out["cli.parallel.busy_s"] = dur_s["solver.triangle_sweep"]
    out["cli.parallel.capacity_s"] = pool_s
    out["cli.parallel.busy_frac"] = dur_s["solver.triangle_sweep"] / pool_s if pool_s else 0.0
    return out
