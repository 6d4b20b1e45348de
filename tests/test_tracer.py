"""The benchmark tracer's counters read the parameters of the functions it
wraps by name: one call of each counted function, with its counts."""

import sys
from pathlib import Path

import numpy as np
import pytest

from percgame import cli, glauber, solver
from percgame import lattice as lat

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install(run_id=1)
    try:
        yield t
    finally:
        t.uninstall()


def test_every_counter_reads_its_call(traced, tmp_path):
    index = solver.SlabIndex(lat.even_sublattice(3), (4, 4))
    solver.triangle_sweep(5, solver.AllZero(), [0.2, 0.4], np.arange(3))
    solver.slab_sweep(index, 3, solver.AllQuestion(), 0.2, np.arange(2))
    values = np.zeros((2, index.n_vertices), dtype=np.int8)
    glauber.class_update(index, values, 1, 0.3, "standard",
                         np.full(index.class_size(1), 0.5))
    path = tmp_path / "rows.csv"
    cli.write_csv(str(path), ["a", "b"], [(1, 0.5), (2, None)])

    counts = {}
    for _, _, run, name, _, _, c in traced.spans():
        assert run == 1
        if c is not None:
            counts.setdefault(name, []).append(c)
    n_class = index.class_size(0)
    assert counts == {
        "solver.triangle_sweep": [{"sites": 3 * 5 * 6 // 2, "batch_bytes": 3 * 6 * 8}],
        "solver.slab_sweep": [{"sites": 2 * 3 * n_class}],
        # one hash call per slab layer, each (seeds, class vertices)
        "sitefield.hash_uniforms": [{"uniforms": 2 * n_class}] * 3,
        "glauber.class_update": [{"vertex_updates": 2 * index.class_size(1)}],
        "cli.write_csv": [{"bytes": path.stat().st_size}],
    }
