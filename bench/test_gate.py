"""Tests of the benchmark's correctness gate and tracer.

Run from the repository root:  python3 -m pytest -q bench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from percgame import lattice, sitefield, solver  # noqa: E402


@pytest.fixture
def identities(tmp_path):
    w = workloads.Identities(workloads.DEFAULT_SEED, tmp_path / "out", threads=1)
    w.setup()
    return w


def test_clean_outputs_pass_and_a_flipped_byte_fails(identities):
    identities.run()
    gate = workloads.Gate()
    identities.check(gate)
    assert gate.attempted > 0 and gate.failed == 0, gate.failures

    path = identities.out_dir / "pca.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    gate = workloads.Gate()
    identities.check(gate)
    assert gate.failed == 1
    assert "digest of pca.csv" in gate.failures[0]


def test_verify_fault_inject_counts_as_failure(identities, monkeypatch):
    run_cli = workloads.run_cli

    def faulty(argv, threads):
        if argv[0] == "verify":
            argv = list(argv) + ["--fault-inject"]
        return run_cli(argv, threads)

    monkeypatch.setattr(workloads, "run_cli", faulty)
    identities.run()
    gate = workloads.Gate()
    identities.check(gate)
    assert gate.failures == ["verify exited 1"]


def test_seed_ranges_are_disjoint_and_reproducible():
    assert workloads.seed_range(0, 100) == 0
    assert workloads.seed_range(3, 100) == 300
    with pytest.raises(ValueError):
        workloads.seed_range(-1, 100)


def test_tracer_patches_every_binding_and_restores_them():
    original = sitefield.hash_uniforms
    t = tracer.Tracer()
    t.install(run_id=7)
    try:
        assert solver.hash_uniforms is sitefield.hash_uniforms is not original
        index = solver.SlabIndex(lattice.even_sublattice(3), (4, 4))
        solver.slab_sweep(index, 3, solver.AllQuestion(), 0.2, np.arange(2))
    finally:
        t.uninstall()
    assert solver.hash_uniforms is sitefield.hash_uniforms is original

    spans = list(t.spans())
    by_id = {s[0]: s for s in spans}
    sweep = [s for s in spans if s[3] == "solver.slab_sweep"]
    hashes = [s for s in spans if s[3] == "sitefield.hash_uniforms"]
    assert len(sweep) == 1 and len(hashes) == 3
    assert all(by_id[h[1]][3] == "solver.slab_sweep" for h in hashes)
    assert sweep[0][6] == {"sites": 2 * 3 * 8}
    assert {s[2] for s in spans} == {7}
    assert any(s[3] == "solver.SlabIndex" for s in spans)


def test_self_time_subtracts_the_union_of_overlapping_children():
    assert tracer.self_ns(0, 100, [(30, 70), (10, 50)]) == 40
    assert tracer.self_ns(0, 100, [(90, 120)]) == 90
