"""CLI subcommands: smoke runs, schema pinning, reproducibility."""

import argparse
import csv
import dataclasses
import hashlib
import json
import os

from percgame import cli


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
# slab experiments reading their closed bits from one cache per (family, p)
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
    assert cli.worker_count() == 3


def _outputs(directory):
    return {p: (directory / p).read_bytes() for p in sorted(os.listdir(directory))}


def test_seed_parallel_outputs_identical_across_threads(tmp_path, monkeypatch):
    runs = {"win-curve": ["--p-grid", "0.3,0.6", "--depth", "40", "--seeds", "30",
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


def test_non_integer_perc_threads_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERC_THREADS", "abc")
    _assert_usage_error(capsys, ["win-curve", "--depth", "4", "--seeds", "3",
                                 "--out", str(tmp_path / "w.csv")],
                        "PERC_THREADS must be an integer", tmp_path)


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


def test_families_without_the_needed_structure_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    _assert_usage_error(capsys, ["glauber", "--family", "zd(3)", "--size", "3",
                                 "--out", out], "zd(d>=3) has no doubling graph", tmp_path)
    for sub in ("couple-verify", "draw-scan"):
        _assert_usage_error(capsys, [sub, "--family", "zd(3)", "--size", "3", "--depth", "3",
                                     "--out", out],
                            "zd(3) does not satisfy the layer-automorphism", tmp_path)
    # checked before the first family of a list writes its outputs
    _assert_usage_error(capsys, ["draw-scan", "--family", "z2,zd(3)", "--size", "6",
                                 "--depth", "3", "--out", out], "zd(3)", tmp_path)


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
