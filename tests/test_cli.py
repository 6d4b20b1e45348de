"""CLI subcommands: smoke runs, schema pinning, reproducibility."""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from percgame import cli, glauber, lattice, pca, solver, workers


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_solve2d(tmp_path):
    out = str(tmp_path / "tri")
    assert run(["solve2d", "--p", "0.2", "--depth", "24", "--seeds", "2",
                "--out", out]) == 0
    rows = read_csv(out + "_counts.csv")
    assert rows[0] == cli.HEADERS["solve2d"]
    assert len(rows) == 3
    img = (tmp_path / "tri_seed0.ppm").read_bytes()
    assert img.startswith(b"P6\n25 25\n255\n")


def test_solve2d_reproducible(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        run(["solve2d", "--p", "0.15", "--depth", "20", "--seeds", "1", "--out", out])
    assert (tmp_path / "a_seed0.ppm").read_bytes() == (tmp_path / "b_seed0.ppm").read_bytes()
    assert (tmp_path / "a_counts.csv").read_text() == (tmp_path / "b_counts.csv").read_text()


def test_win_curve(tmp_path):
    out = str(tmp_path / "win.csv")
    assert run(["win-curve", "--p-grid", "0.3,0.6", "--depth", "60",
                "--seeds", "40", "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0] == cli.HEADERS["win_curve"]
    assert len(rows) == 3
    emp, se, theory = (float(rows[1][i]) for i in (1, 2, 3))
    assert abs(emp - theory) < 4 * se + 1e-9


def test_draw_scan(tmp_path):
    out = str(tmp_path / "scan")
    assert run(["draw-scan", "--family", "z2", "--p", "0.15", "--depth", "16",
                "--size", "16", "--seeds", "6", "--out", out]) == 0
    prof = [p for p in os.listdir(tmp_path) if p.endswith("_profile.csv")]
    assert prof
    rows = read_csv(str(tmp_path / prof[0]))
    assert rows[0] == cli.HEADERS["profile"]
    sens = read_csv(out + "_sensitivity.csv")
    assert sens[0] == cli.HEADERS["sensitivity"]


# SHA-256 of every file the two commands below write, recorded before the
# solver took one name per input: the triangle renders and counts, and the
# slab experiments (draw-density profiles and boundary sensitivity)
SOLVER_OUTPUT_SHA256 = {
    "tri_seed0.ppm": "338df2121d368e3f227828dd2e80d69281b185880ae197d7a70e575b2cf4486f",
    "tri_seed1.ppm": "fa5c4b4fb7b6026755f0a02ebbfbb041fd3ae52f2de082c1ab9b2ae25208daeb",
    "tri_counts.csv": "6d1b7d3a85e8bd3e3a9e20cb00e74e5b63a5ece99e46b74332231bccb7e13339",
    "scan_z2_p0.1_profile.csv":
        "64dba9750cd848cb6719294a838e07e601f950285faea6faa05e244b555e0cca",
    "scan_z2_p0.2_profile.csv":
        "c2843baf59558f4904f8751965c5c2a045a55d5d0e459bc73623420a8e19b197",
    "scan_binomial3x1_p0.1_profile.csv":
        "4d6010811c2644f9cfa4db2c50a85b31b8c5bc02c264571b006500c14ecac462",
    "scan_binomial3x1_p0.2_profile.csv":
        "9dc459cf4ad63149de66c317ba3fe88d8113b1eb130587c454412a96e6d6b74c",
    "scan_sensitivity.csv": "2213f97c07c9d9da6c8d99864bb749d933cebda8567404ea78840dc7016abc4a",
}


def test_solver_outputs_are_byte_identical(tmp_path):
    assert run(["solve2d", "--p", "0.2", "--depth", "24", "--seeds", "2",
                "--out", str(tmp_path / "tri")]) == 0
    assert run(["draw-scan", "--family", "z2,binomial(3,1)", "--p-grid", "0.1,0.2",
                "--depth", "12", "--size", "6", "--seeds", "8",
                "--out", str(tmp_path / "scan")]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == SOLVER_OUTPUT_SHA256


# SHA-256 of a win-curve over 21 p values, recorded from the int8 triangle
# sweeps: at two boundaries per p the early-stop rounds fill 42 lanes, more
# than one uint8 word holds
WIN_CURVE_SHA256 = {
    "win.csv": "7f2f26bd9d9326123e5b111caebd28a1410c658101dae2d5334b23ad82645ec6",
    "win.csv.exact.csv": "4e8afad753b7982fbf4e7127ceedc3ce221c754892106e6c2e8f77af70ee5e8e",
}


def test_a_multi_word_win_curve_is_byte_identical(tmp_path):
    grid = ",".join(str(round(0.05 * i, 2)) for i in range(21))
    assert run(["win-curve", "--depth", "60", "--seeds", "40", "--p-grid", grid,
                "--out", str(tmp_path / "win.csv")]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == WIN_CURVE_SHA256


# SHA-256 of the outputs of a draw-scan with 29 profile depths, more than
# one bit-sliced sweep takes, recorded from the per-depth slab sweeps
CHUNKED_DRAW_SCAN_SHA256 = {
    "scan_binomial4x2_p0.1_profile.csv":
        "da0a522a0d73490865334f4fb2dfe788b98b1de54abdb5a27769b808ee5074c8",
    "scan_sensitivity.csv": "30a5021fc8511621b404ffca7e1f30b3f9395bc2d64420379528522b704080c0",
}


def test_a_chunked_draw_scan_is_byte_identical(tmp_path):
    assert run(["draw-scan", "--family", "binomial(4,2)", "--size", "8", "--depth", "30",
                "--out", str(tmp_path / "scan")]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == CHUNKED_DRAW_SCAN_SHA256


# SHA-256 of two 70-seed draw-scans, recorded while the sliced sweep ran in
# blocks of 32 seeds (32 + 32 + 6): the bytes do not depend on the blocking
MULTI_BLOCK_DRAW_SCAN_SHA256 = {
    "even3": {
        "scan_even3_p0.05_profile.csv":
            "6a79131148cb9f8813b9c805acebdac983833f49bf82b37b5a457c2b8c6927b0",
        "scan_even3_p0.2_profile.csv":
            "7df567e2c832f29801d971ff67f8e3145109fc43c22f027b1baa7dad9222d1eb",
        "scan_sensitivity.csv": "1887fc95f69b444828e47a55b38e79927bfea8b61aadb460d3a61ad1fb1d02be",
    },
    "z2": {
        "scan_z2_p0.1_profile.csv":
            "1d6c4d6258e6acb2ed01b157316a3e2940bac1941ab284b148465f1b7c711fa0",
        "scan_sensitivity.csv": "b70ad94520335a6205733dd75417a9ed7ee385903d0dc1359fbd9b09e18f581f",
    },
}


@pytest.mark.parametrize("name,args", [
    ("even3", ["--family", "even(3)", "--size", "8", "--depth", "30", "--p-grid", "0.05,0.2"]),
    ("z2", ["--family", "z2", "--size", "64", "--depth", "100"])])
def test_a_multi_block_draw_scan_is_byte_identical(tmp_path, name, args):
    assert run(["draw-scan", *args, "--seeds", "70", "--out", str(tmp_path / "scan")]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == MULTI_BLOCK_DRAW_SCAN_SHA256[name]


# SHA-256 of the pca-run (one ternary and one binary kind) and glauber CSVs
# below, recorded before pca.step took its seeds directly
PCA_GLAUBER_OUTPUT_SHA256 = {
    "pca_F.csv": "9b54b2c978fcc234ec4cdaab6b4289c643c44ea05ec89c5d17f9b01d9073a692",
    "pca_A.csv": "311fd3b568395226f913f7e46a81d5fb7af42fe46153112d5dfab146de86d287",
    "chain.csv": "7d00fde6e615201946c93141b29eaab3de097601d89a5020438fc7d962663c1c",
}


def test_pca_and_glauber_outputs_are_byte_identical(tmp_path):
    for kind, p, size, steps, seed in (("F", "0.2", "64", "30", "2"),
                                       ("A", "0.3", "48", "25", "3")):
        assert run(["pca-run", "--kind", kind, "--p", p, "--size", size, "--steps", steps,
                    "--seed0", seed, "--seeds", "1",
                    "--out", str(tmp_path / f"pca_{kind}.csv")]) == 0
    assert run(["glauber", "--family", "even(3)", "--size", "8,8", "--lam", "2.0", "--steps", "40",
                "--seed0", "4", "--seeds", "1", "--init", "even",
                "--out", str(tmp_path / "chain.csv")]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == PCA_GLAUBER_OUTPUT_SHA256


def test_glauber_cmd(tmp_path):
    out = str(tmp_path / "chain.csv")
    assert run(["glauber", "--family", "even(3)", "--size", "8,8", "--lam", "2.0",
                "--steps", "40", "--seeds", "1", "--init", "even", "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0] == cli.HEADERS["glauber"]
    assert all(len(r) == 4 for r in rows[1:])


def test_pca_run(tmp_path):
    out = str(tmp_path / "pca.csv")
    assert run(["pca-run", "--kind", "F", "--p", "0.2", "--size", "64",
                "--steps", "30", "--seeds", "1", "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0] == cli.HEADERS["pca_run"]
    assert float(rows[1][2]) == 1.0  # starts from all-?


def test_couple_verify():
    assert run(["couple-verify", "--family", "even(3)", "--size", "8,8",
                "--depth", "10", "--p", "0.25", "--seeds", "3"]) == 0
    assert run(["couple-verify", "--family", "even_ext(3)", "--size", "8,8",
                "--depth", "10", "--p", "0.5", "--seeds", "2"]) == 0


def test_verify_passes(tmp_path):
    assert run(["verify", "--seeds", "2"]) == 0


def test_verify_fault_injection():
    assert run(["verify", "--seeds", "1", "--fault-inject"]) == 1


def test_verify_names_the_first_failing_ring_and_p(monkeypatch, capsys):
    kernel = pca.ring_kernel

    def moved(kind, n, p):  # flip's all-0 row moved at n >= 5, p >= 0.5
        rows, cols, probs = kernel(kind, n, p)
        if kind == "flip" and n >= 5:
            probs = probs.copy()
            probs[1:, 0] += 1e-9
        return rows, cols, probs

    monkeypatch.setattr(pca, "ring_kernel", moved)
    assert run(["verify", "--seeds", "1"]) == 1
    assert ("[FAIL] composition identities: B != flip∘stavskaya at n=5, p=0.5\n"
            in capsys.readouterr().out)


# SHA-256 of verify's stdout (UTF-8) and its exit code, recorded before the
# ring PCAs ran on the game rule's (zero, one) planes
VERIFY_STDOUT_SHA256 = {
    "battery": ("7d4aeef46a71b1dac37a14c4f09a07b6d96084e31e3bfa78dcf29e477c40a80b", 0),
    "fault-inject": ("7f105dfe056ceff733227fc4218418c0fb90effde87e6d2bf0e69ed7d5c7f4d2", 1),
}


@pytest.mark.parametrize("name", sorted(VERIFY_STDOUT_SHA256))
def test_verify_output_is_byte_identical(capsys, name):
    rc = run(["verify", "--seeds", "5"] + (["--fault-inject"] if name == "fault-inject" else []))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, rc) == VERIFY_STDOUT_SHA256[name]


def test_verify_rejects_small_weight_ring(capsys):
    assert run(["verify", "--weights-n", "4"]) == 2
    assert "ring too small" in capsys.readouterr().err


def test_runconfig_roundtrip(tmp_path):
    cfg = cli.RunConfig(subcommand="win-curve", p_grid=[0.2], depth=30,
                        seeds=[0, 1, 2], out=str(tmp_path / "x.csv"))
    cfg2 = cli.RunConfig.from_json(cfg.to_json())
    assert cfg2 == cfg


def test_config_file_drives_run(tmp_path):
    out = str(tmp_path / "from_config.csv")
    cfg = cli.RunConfig(subcommand="pca-run", kind="F", p=0.3,
                        sizes=[32], steps=10, seeds=[4], out=out)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(cfg.to_json())
    assert run(["pca-run", "--config", str(cfg_path)]) == 0
    assert os.path.exists(out)


def test_save_config(tmp_path):
    out = str(tmp_path / "t.csv")
    run(["pca-run", "--kind", "D", "--size", "16", "--steps", "2", "--seeds", "1",
         "--out", out, "--save-config"])
    saved = json.loads((tmp_path / "t.csv.config.json").read_text())
    assert saved["subcommand"] == "pca-run" and saved["kind"] == "D"


def test_perc_threads_env(monkeypatch):
    monkeypatch.setenv("PERC_THREADS", "3")
    assert workers.worker_count() == 3


def _outputs(directory):
    return {p: (directory / p).read_bytes() for p in sorted(os.listdir(directory))}


def test_seed_parallel_outputs_identical_across_threads(tmp_path, monkeypatch):
    # 150 seeds of a depth-300 triangle hash 6.8 M sites: two workers
    runs = {"win-curve": ["--p-grid", "0.3,0.6", "--depth", "300", "--seeds", "150",
                          "--out"],
            "draw-scan": ["--family", "even(3)", "--p", "0.1", "--depth", "8",
                          "--size", "8", "--seeds", "6", "--out"]}
    for sub, args in runs.items():
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PERC_THREADS", threads)
            d = tmp_path / f"{sub}_{threads}"
            d.mkdir()
            assert run([sub] + args + [str(d / "out")]) == 0
            outputs.append(_outputs(d))
        assert outputs[0] and outputs[0] == outputs[1]


def test_malformed_family_exits_2(capsys):
    for sub in ("solve2d", "draw-scan", "glauber", "couple-verify"):
        assert run([sub, "--family", "even(3", "--depth", "4", "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "cannot parse family" in err and err.count("\n") == 1


def test_glauber_lam_outside_variant_domain(tmp_path, capsys):
    out = str(tmp_path / "chain.csv")
    for variant, lam in (("extended", "2"), ("extended", "0"), ("standard", "-1")):
        assert run(["glauber", "--family", "even(3)", "--size", "8,8", "--variant",
                    variant, "--lam", lam, "--steps", "4", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--lam" in err and err.count("\n") == 1
    assert not os.path.exists(out)


def test_draw_scan_accepts_a_binomial_family_in_a_list(tmp_path):
    out = str(tmp_path / "scan")
    assert run(["draw-scan", "--family", "z2,binomial(3,1)", "--p", "0.2",
                "--depth", "4", "--size", "6", "--seeds", "2", "--out", out]) == 0
    assert len([p for p in os.listdir(tmp_path) if p.endswith("_profile.csv")]) == 2


def _assert_usage_error(capsys, argv, text, out_dir):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert text in err and err.count("\n") == 1
    assert not os.listdir(out_dir)


def test_p_outside_unit_interval_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    for argv in (["solve2d", "--p", "7", "--depth", "4"],
                 ["glauber", "--family", "even(3)", "--size", "8,8", "--p", "2"],
                 ["pca-run", "--p", "-0.5", "--size", "8", "--steps", "2"],
                 ["couple-verify", "--family", "z2", "--size", "8", "--p", "1.5",
                  "--depth", "4"],
                 ["draw-scan", "--family", "z2", "--size", "8", "--p", "7", "--depth", "4"]):
        _assert_usage_error(capsys, argv + ["--out", out], "--p must be in [0, 1]", tmp_path)
    for sub in ("win-curve", "draw-scan"):
        _assert_usage_error(capsys, [sub, "--p-grid", "0.3,-1", "--depth", "4",
                                     "--size", "8", "--out", out],
                            "--p-grid must be in [0, 1]", tmp_path)


def test_a_repeated_p_grid_value_exits_2(tmp_path, capsys):
    # a repeat would sweep its p twice: two profile writes and doubled rows
    out = str(tmp_path / "out")
    for sub, grid in (("win-curve", "0.1,0.1"), ("draw-scan", "0.1,0.3,0.1"),
                      ("draw-scan", "0,0.0")):
        _assert_usage_error(capsys, [sub, "--family", "z2", "--p-grid", grid, "--depth", "4",
                                     "--size", "8", "--out", out],
                            f"--p-grid repeats {float(grid.split(',')[-1])}", tmp_path)


def test_negative_depth_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    for sub in ("solve2d", "win-curve", "draw-scan", "couple-verify"):
        _assert_usage_error(capsys, [sub, "--depth", "-1", "--size", "8", "--out", out],
                            "--depth must be >= 0", tmp_path)


def test_depth_at_the_coordinate_limit_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    limit = 1 << 20
    # a triangle of depth n hashes coordinates up to n; a slab of depth K up
    # to the layer K + m - 1
    for argv in (["win-curve", "--depth", str(limit)],
                 ["solve2d", "--depth", str(limit)],
                 ["draw-scan", "--family", "even(3)", "--size", "8", "--depth", str(limit - 1)],
                 ["couple-verify", "--family", "subset(3)", "--size", "6",
                  "--depth", str(limit - 2)]):
        _assert_usage_error(capsys, argv + ["--out", out], "the site hash takes", tmp_path)
    cli._depth(limit - 1, limit - 1)  # the largest depth a triangle accepts


# every subcommand that forks reads PERC_THREADS, also below its fork bound
_FORKING_RUNS = (["win-curve", "--depth", "4", "--seeds", "3"],
                 ["draw-scan", "--family", "even(3)", "--size", "8", "--depth", "4",
                  "--seeds", "3"])


def test_non_integer_perc_threads_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERC_THREADS", "abc")
    for argv in _FORKING_RUNS:
        _assert_usage_error(capsys, argv + ["--out", str(tmp_path / "w.csv")],
                            "PERC_THREADS must be an integer", tmp_path)


def test_perc_threads_below_one_exits_2(tmp_path, capsys, monkeypatch):
    for value in ("0", "-3"):
        monkeypatch.setenv("PERC_THREADS", value)
        for argv in _FORKING_RUNS:
            _assert_usage_error(capsys, argv + ["--out", str(tmp_path / "w.csv")],
                                "PERC_THREADS must be >= 1", tmp_path)


@pytest.fixture
def fork_sizes(monkeypatch):
    """The worker count of each forked map, by a stand-in map that runs
    every chunk in this process, so that no process starts."""
    sizes = []

    def in_process_map(fn, chunks):
        sizes.append(len(chunks))
        return [fn(chunk) for chunk in chunks]

    monkeypatch.setattr(workers, "_fork_map", in_process_map)
    return sizes


def _real_forks(monkeypatch):
    """The worker count of each real forked map from now on, on two CPUs."""
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    sizes, fork_map = [], workers._fork_map

    def recording_map(fn, chunks):
        sizes.append(len(chunks))
        return fork_map(fn, chunks)

    monkeypatch.setattr(workers, "_fork_map", recording_map)
    return sizes


def _assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a triangle of depth n hashes seeds * n(n+1)/2 sites: at 30 seeds, 12.7 M
# (depth 920) and 7.4 M (depth 700); at 3 seeds, 9.4 M (depth 2510).  The
# grid holds p = 0, at which no seed is decided early, so every seed takes
# the full sweep
@pytest.mark.parametrize("threads,cpus,seeds,depth,forked", [
    ("100000", 4, 30, 920, 4), ("100000", 64, 3, 2510, 3), ("2", 64, 30, 920, 2),
    ("5", 1, 30, 920, None), ("100000", 64, 30, 700, 7), ("100000", 64, 30, 40, None)])
def test_forked_workers_are_bounded_by_cpus_and_seeds(tmp_path, monkeypatch, fork_sizes,
                                                      threads, cpus, seeds, depth, forked):
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setenv("PERC_THREADS", threads)
    assert workers.worker_count() == int(threads)
    words = seeds * depth * (depth + 1) // 2
    assert forked == (min(int(threads), cpus, seeds, words // workers.FORK_MIN_WORDS)
                      if forked else None)
    args = ["win-curve", "--p-grid", "0,0.6", "--depth", str(depth), "--seeds", str(seeds),
            "--out"]
    assert run(args + [str(tmp_path / "forked.csv")]) == 0
    assert fork_sizes == ([forked] if forked else [])
    monkeypatch.setenv("PERC_THREADS", "1")
    assert run(args + [str(tmp_path / "serial.csv")]) == 0
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


class _Deadline:
    """Raises TimeoutError in the main thread if the block outlasts it."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        def expire(signum, frame):
            raise TimeoutError(f"no result within {self.seconds} s")

        self.previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.seconds)

    def __exit__(self, *exc):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def test_win_curve_leaves_no_worker_process(tmp_path, monkeypatch):
    monkeypatch.setenv("PERC_THREADS", "2")
    sizes = _real_forks(monkeypatch)
    # at p = 0 no seed is decided early, so every seed takes the forked
    # depth-300 sweep: 150 * 300 * 301 / 2 = 6.8 M words, two workers
    with _Deadline(120):
        assert run(["win-curve", "--p", "0", "--depth", "300", "--seeds", "150",
                    "--out", str(tmp_path / "w.csv")]) == 0
    assert sizes == [2]
    _assert_no_child()


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setenv("PERC_THREADS", "2")
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    words = 2 * workers.FORK_MIN_WORDS

    def chunk_fn(chunk):
        if 3 in chunk:
            raise ValueError(f"bad chunk {chunk.tolist()}")
        return chunk * 2

    with _Deadline(120), pytest.raises(ValueError, match="bad chunk") as raised:
        workers.parallel_seed_map(chunk_fn, np.arange(6), words)
    # the worker's traceback comes along as the cause
    cause = str(raised.value.__cause__)
    assert "in the worker for the chunk from seed 3" in cause and "in chunk_fn" in cause
    _assert_no_child()
    with _Deadline(120):
        assert [c.tolist() for c in workers.parallel_seed_map(chunk_fn, np.arange(10, 14),
                                                              words)] \
            == [[20, 22], [24, 26]]
    _assert_no_child()


@pytest.mark.parametrize("death,status", [("exit", "wait status 768, exit code 3"),
                                          ("signal", "wait status 9, exit code -9")])
def test_a_worker_that_dies_without_a_result_raises_a_clear_error(monkeypatch, death, status):
    monkeypatch.setenv("PERC_THREADS", "2")
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    caller = os.getpid()

    def chunk_fn(chunk):
        if os.getpid() != caller:  # the forked worker, never this process
            if death == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk * 2

    with _Deadline(120), pytest.raises(ChildProcessError, match=(
            rf"chunk from seed 3 ended without a result \({status}\)")):
        workers.parallel_seed_map(chunk_fn, np.arange(6), 2 * workers.FORK_MIN_WORDS)
    _assert_no_child()


def test_an_error_in_the_callers_chunk_kills_and_reaps_every_worker(monkeypatch):
    monkeypatch.setenv("PERC_THREADS", "3")
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    caller = os.getpid()

    def chunk_fn(chunk):
        if os.getpid() == caller:
            raise ValueError(f"bad chunk from seed {chunk[0]}")
        time.sleep(60)  # the workers outlast the deadline unless killed
        return chunk

    with _Deadline(30), pytest.raises(ValueError, match="bad chunk from seed 0"):
        workers.parallel_seed_map(chunk_fn, np.arange(6), 3 * workers.FORK_MIN_WORDS)
    _assert_no_child()


# the even(3) 8x8 torus has 64 vertices: 130 seeds hash 8320 words a sweep
@pytest.mark.parametrize("threads,cpus,sweeps", [
    ("100000", 64, 5), ("100000", 64, 1200), ("2", 64, 1200), ("100000", 1, 1200)])
def test_forked_chains_are_bounded_by_threads_cpus_and_words(monkeypatch, fork_sizes, threads,
                                                             cpus, sweeps):
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    torus = glauber.build_doubling_torus(lattice.even_sublattice(3), (8, 8))
    seeds = np.arange(130)
    forked = min(int(threads), cpus, seeds.size,
                 sweeps * torus.n_vertices * seeds.size // workers.FORK_MIN_WORDS)
    monkeypatch.setenv("PERC_THREADS", threads)
    _, occ = glauber.run_chains(torus, 0.3, "standard", sweeps, seeds, "odd", 100)
    assert fork_sizes == ([forked] if forked > 1 else [])
    monkeypatch.setenv("PERC_THREADS", "1")
    _, serial = glauber.run_chains(torus, 0.3, "standard", sweeps, seeds, "odd", 100)
    assert occ.tobytes() == serial.tobytes()


def test_an_error_in_a_chains_chunk_reaches_the_caller(monkeypatch):
    monkeypatch.setenv("PERC_THREADS", "2")
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    torus = glauber.build_doubling_torus(lattice.even_sublattice(3), (32, 32))
    seeds = np.arange(50)
    assert 500 * torus.n_vertices * seeds.size >= 2 * workers.FORK_MIN_WORDS
    hash_prefix = glauber.hash_prefix

    def failing(chunk, coords):
        if 40 in chunk:
            raise ValueError(f"bad chunk from seed {chunk[0]}")
        return hash_prefix(chunk, coords)

    monkeypatch.setattr(glauber, "hash_prefix", failing)
    with _Deadline(120), pytest.raises(ValueError, match="bad chunk from seed 25"):
        glauber.run_chains(torus, 0.3, "standard", 500, seeds)
    _assert_no_child()


def _sliced_work(family, size, seeds, depth):
    """The work one sliced sweep of ``depth`` counts against its fork bound."""
    fam = lattice.family_from_name(family)
    index = solver.SlabIndex(fam, (size,) * (fam.d - 1))
    return (seeds * sum(index.class_size(k % index.q) for k in range(depth))
            - workers.SLICED_CALL_WORDS * depth)


# the 21 profile depths of each config take one sweep.  A class of the
# even(3) 32x32 torus has 512 sites, of the 128x128 one 8192, of the z2
# ring of 64 32: there 100 seeds hash 5.1 M words at depth 1600, less than
# the fixed cost of its layer calls, so it has no work to split
@pytest.mark.parametrize("threads,cpus,family,size,seeds,depth,forked", [
    ("100000", 4, "even(3)", 32, 100, 60, 4), ("100000", 64, "even(3)", 32, 100, 400, 34),
    ("2", 64, "even(3)", 32, 100, 400, 2), ("5", 1, "even(3)", 32, 100, 400, None),
    ("100000", 64, "even(3)", 128, 3, 200, 3), ("100000", 64, "even(3)", 32, 50, 60, 2),
    ("100000", 64, "even(3)", 32, 25, 60, None), ("100000", 64, "z2", 64, 100, 1600, None)])
def test_forked_draw_scan_is_bounded_by_threads_cpus_seeds_and_work(
        tmp_path, monkeypatch, fork_sizes, threads, cpus, family, size, seeds, depth, forked):
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setenv("PERC_THREADS", threads)
    work = _sliced_work(family, size, seeds, depth)
    assert (forked or 1) == max(1, min(int(threads), cpus, seeds,
                                       work // workers.SLICED_FORK_MIN_WORDS))
    args = ["draw-scan", "--family", family, "--size", str(size), "--p", "0.05",
            "--depth", str(depth), "--seeds", str(seeds), "--out"]
    assert run(args + [str(tmp_path / "forked")]) == 0
    assert fork_sizes == ([forked] if forked else [])
    monkeypatch.setenv("PERC_THREADS", "1")
    assert run(args + [str(tmp_path / "serial")]) == 0
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 4 and all((tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()
                                   for a, b in zip(files[:2], files[2:]))


# 101 seeds, two chunks of 51 and 50; each config is above the fork bound
@pytest.mark.parametrize("family,size,depth", [
    ("even(3)", 32, 60), ("z2", 512, 140), ("subset(3)", 48, 40), ("zd(3)", 48, 40),
    ("even_ext(3)", 32, 60)])
def test_forked_draw_scan_writes_the_serial_bytes(tmp_path, monkeypatch, family, size, depth):
    assert _sliced_work(family, size, 101, depth) >= 2 * workers.SLICED_FORK_MIN_WORDS
    sizes = _real_forks(monkeypatch)
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PERC_THREADS", threads)
        d = tmp_path / threads
        d.mkdir()
        with _Deadline(120):
            assert run(["draw-scan", "--family", family, "--size", str(size), "--p-grid",
                        "0.05,0.3", "--depth", str(depth), "--seeds", "101",
                        "--out", str(d / "scan")]) == 0
        outputs.append(_outputs(d))
    assert sizes == [2, 2]  # one forked map per p, at PERC_THREADS=2 only
    _assert_no_child()
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]


def test_a_forked_run_prints_each_line_once(tmp_path, monkeypatch, capsys):
    # the first p's line is printed before the second p's sweep forks: a
    # worker that flushed the stdio buffer it inherited would print it again.
    # Under capsys the buffer is pytest's; piped to a subprocess it is the
    # interpreter's own, block-buffered one
    argv = ["draw-scan", "--family", "even(3)", "--size", "32", "--p-grid", "0.05,0.3",
            "--depth", "60", "--seeds", "101", "--out", "scan"]
    assert _sliced_work("even(3)", 32, 101, 60) >= 2 * workers.SLICED_FORK_MIN_WORDS
    sizes = _real_forks(monkeypatch)
    outputs, stdouts = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("PERC_THREADS", threads)
        (tmp_path / threads).mkdir()
        monkeypatch.chdir(tmp_path / threads)
        with _Deadline(120):
            assert run(argv) == 0
        outputs.append(_outputs(tmp_path / threads))
        stdouts.append(capsys.readouterr().out)
    assert sizes == [2, 2]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    monkeypatch.setenv("PYTHONPATH", src)
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    monkeypatch.chdir(tmp_path / "2")
    piped = subprocess.run([sys.executable, "-m", "percgame"] + argv, stdout=subprocess.PIPE,
                           check=True, timeout=120).stdout.decode()
    _assert_no_child()
    lines = stdouts[0].splitlines()
    assert len(lines) == 3 and len(set(lines)) == 3
    assert stdouts == [stdouts[0]] * 2 and piped == stdouts[0]
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1] == _outputs(tmp_path / "2")


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_forked_sliced_sweep_returns_the_serial_words(monkeypatch, fork_sizes, cpus):
    # the words of every seed, in seed order: the CSVs' seed means alone
    # would not show chunks concatenated out of order
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    index = solver.SlabIndex(lattice.even_sublattice(3), (32, 32))
    seeds, depths = np.arange(-150, 151, 3), [2, 17, 90]
    assert _sliced_work("even(3)", 32, seeds.size, 90) >= 3 * workers.SLICED_FORK_MIN_WORDS
    words = []
    for threads in ("1", "100000"):
        monkeypatch.setenv("PERC_THREADS", threads)
        words.append(solver.sliced_sweep(index, 0.2, seeds, depths))
    assert fork_sizes == [cpus]
    assert all(np.array_equal(a, b) for a, b in zip(*words))


def test_more_forked_workers_than_cpus_write_their_own_rows(monkeypatch):
    # four real workers on the two CPUs of the host, each writing its rows of
    # the shared words: a row lost or written twice changes the words
    sizes = _real_forks(monkeypatch)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(4)))
    index = solver.SlabIndex(lattice.even_sublattice(3), (32, 32))
    seeds, depths = np.arange(1000, 1101), [5, 60, 120]
    assert _sliced_work("even(3)", 32, seeds.size, 120) >= 4 * workers.SLICED_FORK_MIN_WORDS
    words = []
    for threads in ("1", "4"):
        monkeypatch.setenv("PERC_THREADS", threads)
        with _Deadline(120):
            words.append(solver.sliced_sweep(index, 0.1, seeds, depths))
    assert sizes == [4]
    _assert_no_child()
    assert all(np.array_equal(a, b) for a, b in zip(*words))


def test_an_error_in_a_sliced_sweep_chunk_reaches_the_caller(monkeypatch):
    sizes = _real_forks(monkeypatch)
    monkeypatch.setenv("PERC_THREADS", "2")
    index = solver.SlabIndex(lattice.even_sublattice(3), (32, 32))
    seed_states = solver.LayerSites.seed_states

    def failing(seeds):
        if 70 in seeds:
            raise ValueError(f"bad block from seed {seeds[0]}")
        return seed_states(seeds)

    monkeypatch.setattr(solver.LayerSites, "seed_states", staticmethod(failing))
    with _Deadline(120), pytest.raises(ValueError, match="bad block from seed 50"):
        solver.sliced_sweep(index, 0.05, np.arange(100), [60])
    assert sizes == [2]
    _assert_no_child()


def test_win_curve_rejects_other_families(tmp_path, capsys):
    _assert_usage_error(capsys, ["win-curve", "--family", "even(3)", "--depth", "4",
                                 "--seeds", "3", "--out", str(tmp_path / "w.csv")],
                        "z2 triangles only", tmp_path)


def test_sizes_expand_and_are_checked_at_the_boundary(tmp_path, capsys):
    cfg = cli.RunConfig(subcommand="glauber", sizes=[4])
    assert cli._sizes(cfg, cli.lattice.even_sublattice(4)) == (4, 4, 4)
    assert cli._sizes(cfg, cli.lattice.z2()) == (4,)
    out = str(tmp_path / "out")
    for sub in ("draw-scan", "glauber", "couple-verify"):
        _assert_usage_error(capsys, [sub, "--family", "even(3)", "--size", "7",
                                     "--depth", "4", "--out", out],
                            "--size: even(3) torus sizes must be even", tmp_path)


def test_unparsable_number_lists_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    _assert_usage_error(capsys, ["win-curve", "--p-grid", "abc", "--depth", "4",
                                 "--out", out], "--p-grid takes comma-separated floats",
                        tmp_path)
    _assert_usage_error(capsys, ["win-curve", "--p-grid", "0.3,", "--depth", "4",
                                 "--out", out], "--p-grid takes", tmp_path)
    for sub in ("draw-scan", "glauber", "pca-run"):
        _assert_usage_error(capsys, [sub, "--size", "x", "--out", out],
                            "--size takes comma-separated ints", tmp_path)


def test_counts_below_their_minimum_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    for argv, text in (
            (["glauber", "--family", "z2", "--size", "8", "--steps", "-1"],
             "--steps must be >= 1, got -1"),
            (["glauber", "--family", "z2", "--size", "8", "--steps", "0"],
             "--steps must be >= 1, got 0"),
            (["pca-run", "--size", "8", "--steps", "-1"], "--steps must be >= 0"),
            (["pca-run", "--size", "0", "--steps", "2"], "ring length) must be >= 3"),
            (["pca-run", "--size", "2", "--steps", "2"], "ring length) must be >= 3"),
            (["win-curve", "--seeds", "0", "--depth", "3"], "--seeds must be >= 1"),
            (["draw-scan", "--seeds", "0", "--size", "8", "--depth", "3"],
             "--seeds must be >= 1"),
            (["pca-run", "--seeds", "1", "--seed0", "-5", "--size", "8"],
             "every seed (--seed0) must be >= 0, got -5")):
        _assert_usage_error(capsys, argv + ["--out", out], text, tmp_path)
    # the smallest accepted values still run
    assert run(["pca-run", "--size", "3", "--steps", "0", "--out", out]) == 0
    assert run(["glauber", "--family", "z2", "--size", "8", "--steps", "1",
                "--out", out]) == 0


def test_seeds_past_int64_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = str(out_dir / "w.csv")
    text = "every seed (--seed0, --seeds) must be <= 9223372036854775807, got 9223372036854775808"
    _assert_usage_error(capsys, ["win-curve", "--seed0", str(2 ** 63 - 1), "--seeds", "2",
                                 "--depth", "10", "--out", out], text, out_dir)
    _assert_usage_error(capsys, ["win-curve", "--seed0", str(2 ** 63), "--depth", "10",
                                 "--out", out], text, out_dir)
    cfg = tmp_path / "seeds.json"
    cfg.write_text(cli.RunConfig(subcommand="win-curve", depth=10, seeds=[0, 2 ** 63]).to_json())
    _assert_usage_error(capsys, ["win-curve", "--config", str(cfg), "--out", out], text, out_dir)
    # the largest int64 seed runs
    assert run(["win-curve", "--seed0", str(2 ** 63 - 1), "--depth", "10", "--out", out]) == 0


def test_sizes_past_the_coordinate_limit_exit_2(tmp_path, capsys, monkeypatch):
    def no_torus(*args):
        raise AssertionError("a torus was built")

    monkeypatch.setattr(lattice, "torus_vertices", no_torus)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = str(out_dir / "o")
    limit = 1 << 20
    for argv, size in ((["draw-scan", "--family", "z2", "--depth", "4"], limit + 2),
                       (["glauber", "--family", "z2"], limit + 2),
                       (["couple-verify", "--family", "z2", "--depth", "4"], limit + 2),
                       (["pca-run", "--steps", "1"], limit + 1),
                       (["draw-scan", "--family", "even(3)", "--depth", "4"], f"8,{limit + 2}")):
        _assert_usage_error(capsys, argv + ["--size", str(size), "--out", out],
                            f"a size is at most {limit}", out_dir)
    cfg = tmp_path / "sizes.json"
    cfg.write_text(cli.RunConfig(subcommand="pca-run", sizes=[limit + 1], steps=1).to_json())
    _assert_usage_error(capsys, ["pca-run", "--config", str(cfg), "--out", out],
                        f"--size {limit + 1}: the site hash takes coordinates below {limit}",
                        out_dir)
    cli._size_list([limit], "--size")  # coordinates 0 .. limit - 1 all hash


def test_glauber_refuses_more_than_one_seed(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = str(out_dir / "chain.csv")
    _assert_usage_error(capsys, ["glauber", "--family", "z2", "--size", "8", "--steps", "4",
                                 "--seeds", "3", "--out", out],
                        "--seeds: glauber runs one chain, got 3 seeds", out_dir)
    cfg = tmp_path / "seeds.json"
    cfg.write_text(cli.RunConfig(subcommand="glauber", family="z2", sizes=[8], steps=4,
                                 seeds=[5, 6]).to_json())
    _assert_usage_error(capsys, ["glauber", "--config", str(cfg), "--out", out],
                        "glauber runs one chain, got 2 seeds", out_dir)
    # one seed, by --seeds 1 or by --seed0 alone, still runs
    for argv in (["--seeds", "1"], ["--seed0", "7"]):
        assert run(["glauber", "--family", "z2", "--size", "8", "--steps", "4",
                    "--out", out] + argv) == 0


def test_pca_run_refuses_more_than_one_seed(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = str(out_dir / "pca.csv")
    _assert_usage_error(capsys, ["pca-run", "--size", "16", "--steps", "3", "--seeds", "3",
                                 "--out", out],
                        "--seeds: pca-run runs one trajectory, got 3 seeds", out_dir)
    cfg = tmp_path / "seeds.json"
    cfg.write_text(cli.RunConfig(subcommand="pca-run", sizes=[16], steps=3,
                                 seeds=[5, 6]).to_json())
    _assert_usage_error(capsys, ["pca-run", "--config", str(cfg), "--out", out],
                        "pca-run runs one trajectory, got 2 seeds", out_dir)
    for argv in (["--seeds", "1"], ["--seed0", "7"]):
        assert run(["pca-run", "--size", "16", "--steps", "3", "--out", out] + argv) == 0


def test_families_without_the_needed_structure_exit_2(tmp_path, capsys):
    # glauber and couple-verify run on the doubling torus, which needs phi
    out = str(tmp_path / "out")
    for sub in ("glauber", "couple-verify"):
        _assert_usage_error(capsys, [sub, "--family", "zd(3)", "--size", "3", "--depth", "3",
                                     "--out", out], "zd(3) has no layer automorphism", tmp_path)
    # every family of a list is checked before the first one writes its outputs
    _assert_usage_error(capsys, ["draw-scan", "--family", "z2,subset(3)", "--size", "8",
                                 "--depth", "3", "--out", out], "subset(3)", tmp_path)


def _csv_rows(rows):
    return [[str(cli._fmt(v)) for v in row] for row in rows]


def test_draw_scan_runs_zd_without_a_layer_automorphism(tmp_path):
    # the slab needs no phi: the rows of a zd(3) draw-scan are draw_scan's
    out = str(tmp_path / "scan")
    assert run(["draw-scan", "--family", "z2,zd(3)", "--size", "6", "--depth", "7",
                "--p", "0.1", "--seeds", "5", "--out", out]) == 0
    seeds, sens = np.arange(5), []
    for fam, tag in ((lattice.z2(), "z2"), (lattice.zd(3), "zd3")):
        depths = solver.profile_depths(fam.m, 7)
        prof, results = solver.draw_scan(solver.SlabIndex(fam, (6,) * (fam.d - 1)), 0.1,
                                         seeds, depths)
        assert read_csv(f"{out}_{tag}_p0.1_profile.csv")[1:] == _csv_rows(prof)
        sens += [[fam.name, 0.1, K, r.fraction, r.stderr, 5] for K, r in zip(depths, results)]
    assert read_csv(out + "_sensitivity.csv")[1:] == _csv_rows(sens)


def test_unreadable_config_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text('{"bogus": 1}')
    not_json = tmp_path / "not.json"
    not_json.write_text("nope")
    for path in (tmp_path / "missing.json", bad_key, not_json):
        _assert_usage_error(capsys, ["glauber", "--config", str(path),
                                     "--out", str(out_dir / "o")], "--config: ", out_dir)
    for seeds, text in (([], "the seed list is empty"), ([3, -1], "must be >= 0, got -1")):
        cfg = tmp_path / "seeds.json"
        cfg.write_text(cli.RunConfig(subcommand="win-curve", depth=4, seeds=seeds).to_json())
        _assert_usage_error(capsys, ["win-curve", "--config", str(cfg),
                                     "--out", str(out_dir / "w.csv")], text, out_dir)


def test_win_curve_grid_rows_equal_one_p_at_a_time(tmp_path):
    both = tmp_path / "both.csv"
    assert run(["win-curve", "--p-grid", "0.3,0.6", "--depth", "30", "--seeds", "25",
                "--out", str(both)]) == 0
    rows = read_csv(str(both))[1:]
    for i, p in enumerate(("0.3", "0.6")):
        one = tmp_path / f"p{p}.csv"
        assert run(["win-curve", "--p-grid", p, "--depth", "30", "--seeds", "25",
                    "--out", str(one)]) == 0
        assert read_csv(str(one))[1:] == [rows[i]]


def test_win_curve_without_a_grid_runs_its_p(tmp_path):
    # like draw-scan, win-curve runs --p unless --p-grid is given
    for p_flag, grid_flag in ((["--p", "0.3"], ["--p-grid", "0.3"]), ([], ["--p-grid", "0.1"])):
        one, ref = tmp_path / "one.csv", tmp_path / "ref.csv"
        for flags, out in ((p_flag, one), (grid_flag, ref)):
            assert run(["win-curve", *flags, "--depth", "30", "--seeds", "25",
                        "--out", str(out)]) == 0
        rows = read_csv(str(one))[1:]
        assert len(rows) == 1 and rows == read_csv(str(ref))[1:]
        assert float(rows[0][0]) == float(grid_flag[1])


def _config_usage_error(tmp_path, capsys, subcommand, values, text):
    """A --config file holding ``values`` over the defaults exits 2 with one
    stderr line containing ``text``, before writing anything."""
    settings = json.loads(cli.RunConfig(subcommand=subcommand, family="z2",
                                        sizes=[8]).to_json())
    settings.update(values)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(settings))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    _assert_usage_error(capsys, [subcommand, "--config", str(path),
                                 "--out", str(out_dir / "o.csv")], text, out_dir)


def test_config_empty_sizes_exits_2(tmp_path, capsys):
    _config_usage_error(tmp_path, capsys, "pca-run", {"sizes": []}, "the size list is empty")


def test_config_string_steps_exits_2(tmp_path, capsys):
    _config_usage_error(tmp_path, capsys, "glauber", {"steps": "3"},
                        "steps must be int, got '3'")


def test_config_string_depth_exits_2(tmp_path, capsys):
    _config_usage_error(tmp_path, capsys, "win-curve", {"depth": "4"},
                        "depth must be int, got '4'")


def test_config_unknown_init_exits_2(tmp_path, capsys):
    _config_usage_error(tmp_path, capsys, "glauber", {"init": "bogus"},
                        "init must be one of even, odd, empty, got 'bogus'")


def test_config_unknown_pca_kind_exits_2(tmp_path, capsys):
    _config_usage_error(tmp_path, capsys, "pca-run", {"kind": "Q"},
                        "kind must be one of A, B, F, G, D, R0, R1, stavskaya, flip, got 'Q'")


def test_config_unknown_variant_exits_2(tmp_path, capsys):
    _config_usage_error(tmp_path, capsys, "glauber", {"variant": "bogus"},
                        "variant must be one of standard, extended, got 'bogus'")


def test_config_file_fault_inject_makes_verify_fail(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(cli.RunConfig(subcommand="verify", seeds=[0],
                                  fault_inject=True).to_json())
    assert run(["verify", "--config", str(path)]) == 1


def test_seed0_alone_selects_one_seed(tmp_path):
    out = str(tmp_path / "pca.csv")
    assert run(["pca-run", "--seed0", "7", "--size", "8", "--steps", "2", "--out", out,
                "--save-config"]) == 0
    assert json.loads((tmp_path / "pca.csv.config.json").read_text())["seeds"] == [7]


def test_refused_run_saves_no_config(tmp_path, capsys):
    _assert_usage_error(capsys, ["pca-run", "--size", "2", "--save-config",
                                 "--out", str(tmp_path / "pca.csv")],
                        "ring length) must be >= 3", tmp_path)


def test_verify_rejects_large_weight_ring(tmp_path, capsys):
    _assert_usage_error(capsys, ["verify", "--weights-n", "11",
                                 "--out", str(tmp_path / "v")], "ring too large", tmp_path)


def test_solve2d_rejects_a_family_that_is_not_2d(tmp_path, capsys):
    _assert_usage_error(capsys, ["solve2d", "--family", "even(3)", "--depth", "4",
                                 "--out", str(tmp_path / "tri")],
                        "percgame solve2d: error: --family: solve2d requires a "
                        "two-dimensional family", tmp_path)


def test_p_is_checked_for_every_subcommand(tmp_path, capsys):
    for sub in cli.COMMANDS:
        _assert_usage_error(capsys, [sub, "--p", "2", "--out", str(tmp_path / "o")],
                            f"percgame {sub}: error: --p must be in [0, 1], got 2.0",
                            tmp_path)


def test_every_config_field_has_one_flag_in_every_subcommand():
    fields = [f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "subcommand"]
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(cli.COMMANDS)
    for sub, parser in subparsers.choices.items():
        dests = [a.dest for a in parser._actions]
        for name in fields:
            assert dests.count(name) == 1, (sub, name)


# every RunConfig field but subcommand at a legal value other than its
# default, and the flags that give the same values
ALL_FIELDS = {"family": "even(3)", "p": 0.3, "p_grid": [0.2, 0.4], "depth": 7,
              "sizes": [8, 8], "seeds": [3, 4], "steps": 5, "variant": "extended",
              "kind": "G", "lam": 0.5, "init": "odd", "out": "x", "fault_inject": True,
              "weights_n": 6}
ALL_FLAGS = ["--family", "even(3)", "--p", "0.3", "--p-grid", "0.2,0.4", "--depth", "7",
             "--size", "8,8", "--seeds", "2", "--seed0", "3", "--steps", "5",
             "--variant", "extended", "--kind", "G", "--lam", "0.5", "--init", "odd",
             "--out", "x", "--fault-inject", "--weights-n", "6"]


def test_config_file_and_flags_resolve_to_the_same_config(tmp_path):
    default = cli.RunConfig(subcommand="verify")
    assert set(ALL_FIELDS) == {f.name for f in dataclasses.fields(default)} - {"subcommand"}
    assert all(getattr(default, name) != value for name, value in ALL_FIELDS.items())
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"subcommand": "verify", **ALL_FIELDS}))
    parser = cli.build_parser()
    for sub in cli.COMMANDS:
        from_flags = cli.resolve_config(parser.parse_args([sub] + ALL_FLAGS))
        from_file = cli.resolve_config(parser.parse_args([sub, "--config", str(path)]))
        assert from_flags == from_file == cli.RunConfig(subcommand=sub, **ALL_FIELDS)


def test_bad_choice_and_seed_flags_exit_2_with_one_line(tmp_path, capsys):
    out = str(tmp_path / "o")
    for argv, text in (
            (["pca-run", "--kind", "Q"], "percgame pca-run: error: kind must be one of A, B"),
            (["glauber", "--variant", "bogus"], "variant must be one of standard, extended"),
            (["glauber", "--init", "bogus"], "init must be one of even, odd, empty"),
            (["pca-run", "--seeds", "abc"], "percgame pca-run: error: --seeds takes int, "
                                            "got 'abc'"),
            (["pca-run", "--seed0", "1.5"], "--seed0 takes int, got '1.5'")):
        _assert_usage_error(capsys, argv + ["--out", out], text, tmp_path)


def test_malformed_command_lines_exit_2_with_one_line(tmp_path, capsys):
    for argv, text in ((["pca-run", "--bogus", "1"], "unrecognized arguments: --bogus"),
                       (["pca-run", "--kind"], "argument --kind: expected one argument"),
                       (["nosuch"], "argument subcommand: invalid choice: 'nosuch'")):
        _assert_usage_error(capsys, argv, f"percgame: error: {text}", tmp_path)


def test_help_lists_the_choices_of_a_flag():
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert "--variant {standard,extended}" in subparsers.choices["glauber"].format_help()
