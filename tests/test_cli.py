"""End-to-end CLI round trips through ``dyadic.cli:main``.

Each test drives a subcommand with CliRunner against files on disk and
checks the emitted JSON/CSV against values frozen from the library
tests, so the CLI layer cannot drift from the library.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from dyadic import (
    BranchingProfile,
    DeltaSet,
    branching_profile_of,
    counting_measure,
    gen_ap,
    load_family,
    load_set,
    product_measure,
    save_measure,
    save_profile,
    save_set,
)
from dyadic import grid
from dyadic.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


# ------------------------------------------------------------ generators


def test_gen_ap_round_trip(tmp_path, runner):
    dest = tmp_path / "ap.txt"
    res = invoke(runner, ["gen", "ap", "--n", "6", "--size", "8", str(dest)])
    assert "wrote 8 points at n=6" in res.output
    a = load_set(dest)
    assert a.n == 6 and list(a.indices) == list(range(0, 64, 8))


def test_gen_aligned(tmp_path, runner):
    paths = [str(tmp_path / name) for name in ("a.txt", "b.txt", "c.txt")]
    res = invoke(runner, ["gen", "aligned", "--n-param", "16", *paths])
    assert "wrote |A|=4 |B|=2 |C|=2" in res.output
    assert [len(load_set(p)) for p in paths] == [4, 2, 2]


def test_gen_tree_left_is_deterministic(tmp_path, runner):
    prof = tmp_path / "prof.json"
    save_profile(BranchingProfile(2, (2, 1, 2)), prof)
    dest = tmp_path / "tree.txt"
    invoke(runner, ["gen", "tree", "--profile", str(prof), str(dest)])
    assert list(load_set(dest).indices) == [0, 1, 16, 17]


def test_gen_tree_random_uses_seed(tmp_path, runner):
    prof = tmp_path / "prof.json"
    save_profile(BranchingProfile(2, (2, 1, 2)), prof)
    dest = tmp_path / "tree.txt"
    invoke(runner, ["--seed", "4", "gen", "tree", "--profile", str(prof),
                    "--placement", "random", str(dest)])
    assert list(load_set(dest).indices) == [6, 7, 24, 27]
    again = tmp_path / "tree2.txt"
    invoke(runner, ["--seed", "4", "gen", "tree", "--profile", str(prof),
                    "--placement", "random", str(again)])
    assert list(load_set(again).indices) == [6, 7, 24, 27]


def test_gen_random_seeded(tmp_path, runner):
    d1, d2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    invoke(runner, ["--seed", "9", "gen", "random", "--n", "8", "--size", "20", str(d1)])
    invoke(runner, ["--seed", "9", "gen", "random", "--n", "8", "--size", "20", str(d2)])
    a, b = load_set(d1), load_set(d2)
    assert np.array_equal(a.indices, b.indices) and len(a) == 20
    bad = runner.invoke(main, ["gen", "random", "--n", "3", "--size", "100",
                               str(tmp_path / "bad.txt")])
    assert bad.exit_code != 0


# ------------------------------------------------------------ analysis


def test_analyze_json(tmp_path, runner):
    dest = tmp_path / "ap.txt"
    invoke(runner, ["gen", "ap", "--n", "6", "--size", "8", str(dest)])
    res = invoke(runner, ["analyze", str(dest)])
    payload = json.loads(res.output)
    assert payload["n"] == 6 and payload["size"] == 8
    assert payload["covering_counts"]["0"] == 1
    assert payload["covering_counts"]["6"] == 8
    assert payload["frostman"]["passed"] is True
    assert payload["profile"] == [2, 2, 2, 1, 1, 1]


def test_analyze_csv(tmp_path, runner):
    dest = tmp_path / "ap.txt"
    invoke(runner, ["gen", "ap", "--n", "6", "--size", "8", str(dest)])
    res = invoke(runner, ["--format", "csv", "analyze", str(dest)])
    lines = res.output.strip().splitlines()
    assert lines[0] == "r_exp,count"
    assert len(lines) == 8  # depths 0..6


def test_uniformize(tmp_path, runner):
    src, dest = tmp_path / "in.txt", tmp_path / "out.txt"
    invoke(runner, ["--seed", "2", "gen", "random", "--n", "8", "--size", "37", str(src)])
    res = invoke(runner, ["uniformize", str(src), str(dest), "--m", "2", "--levels", "4"])
    payload = json.loads(res.output)
    sub = load_set(dest)
    assert payload["size_in"] == 37 and payload["size_out"] == len(sub)
    prof = branching_profile_of(sub, 2, 4)
    assert prof is not None and list(prof.r) == payload["profile"]
    assert payload["loss_bits"] >= 0


def test_prune_requires_uniform_input(tmp_path, runner):
    prof = tmp_path / "prof.json"
    save_profile(BranchingProfile(2, (4, 1, 4)), prof)
    tree, dest = tmp_path / "tree.txt", tmp_path / "pruned.txt"
    invoke(runner, ["gen", "tree", "--profile", str(prof), str(tree)])
    res = invoke(runner, ["prune", str(tree), str(dest), "--m", "2", "--levels", "3"])
    payload = json.loads(res.output)
    assert payload["profile_in"] == [4, 1, 4]
    assert payload["profile_out"] == [2, 1, 2]
    assert all(g >= 2 for g in payload["min_gaps"])

    ragged = tmp_path / "ragged.txt"
    invoke(runner, ["--seed", "3", "gen", "random", "--n", "6", "--size", "37",
                    str(ragged)])
    bad = runner.invoke(main, ["prune", str(ragged), str(dest), "--m", "2",
                               "--levels", "3"])
    assert bad.exit_code != 0 and "not uniform" in bad.output

    unwritten = tmp_path / "unwritten.txt"
    nocsv = runner.invoke(main, ["--format", "csv", "prune", str(tree), str(unwritten),
                                 "--m", "2", "--levels", "3"])
    assert nocsv.exit_code != 0 and "no tabular form" in nocsv.output
    assert not unwritten.exists()  # refused before anything is written


def test_extend_classifies_and_saves_family(tmp_path, runner):
    b_prof, a_prof = tmp_path / "b.json", tmp_path / "a.json"
    save_profile(BranchingProfile(1, (2, 2, 2, 2, 1, 1, 1, 1)), b_prof)
    save_profile(BranchingProfile(1, (2,) * 8), a_prof)
    fam_out = tmp_path / "family.json"
    res = invoke(runner, ["extend", str(b_prof), "--ell", "4", "--zeta", "1/4",
                          "--a-profile", str(a_prof), "--gamma-cap", "3/4",
                          "--family-out", str(fam_out)])
    payload = json.loads(res.output)
    assert payload["intervals"], "expected at least one interval"
    for row in payload["intervals"]:
        assert set(row) == {"lo", "hi", "tag"}
        assert row["tag"] in ("low", "high")
    fam = load_family(fam_out)
    assert [(iv.lo, iv.hi, iv.tag) for iv in fam] == [
        (row["lo"], row["hi"], row["tag"]) for row in payload["intervals"]
    ]


def test_extend_refuses_a_malformed_a_profile_without_a_trivial_run(tmp_path, runner):
    b_prof, bad = tmp_path / "b.json", tmp_path / "a.json"
    b_prof.write_text(json.dumps({"m": 2, "R": [2] * 8}))  # no trivial run at --ell 4
    bad.write_text(json.dumps({"m": 2}))
    res = runner.invoke(main, ["extend", str(b_prof), "--ell", "4", "--a-profile", str(bad)])
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ") and "'R'" in lines[0]


# ------------------------------------------------------------ measures


@pytest.fixture
def planar_measure(tmp_path):
    mu = product_measure(counting_measure(gen_ap(8, 16)),
                         counting_measure(gen_ap(8, 4)))
    path = tmp_path / "mu.json"
    save_measure(mu, path)
    return path


def test_entropy_chain_json_and_csv(tmp_path, runner, planar_measure):
    args = ["entropy", str(planar_measure), "--c", "1/4", "--c", "3/4",
            "--cuts", "0,4,8"]
    payload = json.loads(invoke(runner, args).output)
    assert payload["cuts"] == [0, 4, 8]
    assert len(payload["chains"]) == 2
    first = payload["chains"][0]
    assert first["c"] == "1/4"
    assert first["slack"] == pytest.approx(3.16992500144)
    assert first["lhs"] >= first["rhs"]

    res = invoke(runner, ["--format", "csv", *args])
    lines = res.output.strip().splitlines()
    assert lines[0] == "c,lhs,rhs,correction,slack"
    assert len(lines) == 3


def test_project_avg_l2(tmp_path, runner, planar_measure):
    nu_path = tmp_path / "nu.json"
    save_measure(counting_measure(gen_ap(8, 4)), nu_path)
    args = ["project-avg", str(planar_measure), str(nu_path),
            "--gamma-a", "1/2", "--gamma-b", "1/4", "--gamma", "1/4",
            "--xi", "1/2"]
    payload = json.loads(invoke(runner, args).output)
    assert payload["audit_failures"] == []
    assert payload["average"] == "113/8"
    assert payload["fitted"] == pytest.approx(0.0137939453125)

    res = invoke(runner, ["--format", "csv", *args])
    lines = res.output.strip().splitlines()
    assert lines[0] == "c,l2" and len(lines) == 5


def test_project_avg_entropy_mode(tmp_path, runner, planar_measure):
    nu_path = tmp_path / "nu.json"
    save_measure(counting_measure(gen_ap(8, 4)), nu_path)
    res = invoke(runner, ["project-avg", str(planar_measure), str(nu_path),
                          "--gamma-a", "1/2", "--gamma-b", "1/4",
                          "--gamma", "1/4", "--xi", "1/2", "--mode", "entropy"])
    payload = json.loads(res.output)
    assert payload["value"] == pytest.approx(4.24586464834)
    assert payload["value"] >= payload["rhs"]
    assert len(payload["per_c"]) == 4


# ------------------------------------------------------------ experiments


def test_ladder_cli(tmp_path, runner):
    dest = tmp_path / "ap.txt"
    invoke(runner, ["gen", "ap", "--n", "6", "--size", "8", str(dest)])
    payload = json.loads(invoke(runner, ["ladder", str(dest)]).output)
    assert payload["slow_step"] == 1
    assert [row["size"] for row in payload["sizes"]] == [8, 15, 29, 57, 113, 225, 449]


def test_greedy_cli(tmp_path, runner):
    b_path, c_path = tmp_path / "b.txt", tmp_path / "c.txt"
    invoke(runner, ["gen", "ap", "--n", "6", "--size", "8", str(b_path)])
    invoke(runner, ["gen", "ap", "--n", "6", "--size", "8", "--step", "8", str(c_path)])
    payload = json.loads(invoke(runner, ["greedy", str(b_path), str(c_path)]).output)
    assert payload["n_star"] == 1
    assert payload["sizes"] == [1, 8, 57, 106]
    assert payload["c_sequence"] == ["0", "1/8", "7/8", "7/8"]

    res = invoke(runner, ["--format", "csv", "greedy", str(b_path), str(c_path)])
    lines = res.output.strip().splitlines()
    assert lines[0] == "step,size,c" and len(lines) == 5


def test_sharpness_cli(runner):
    payload = json.loads(invoke(runner, ["sharpness"]).output)
    assert [row["n_param"] for row in payload["rows"]] == [16, 256, 4096]
    assert payload["rows"][0]["product_ratio"] == "7/4"


def test_sweep_cli(tmp_path, runner):
    cfg = {
        "alpha": "3/4", "beta": "1/2", "gamma": "3/4", "kappa": "1/2",
        "eta": "1/2", "zeta": "1/8", "ell": 32,
        "family": "aligned-triple",
        "scales": [[1, 8, 1], [1, 10, 1]],
        "gammas": ["1/4", "3/4"],
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payload = json.loads(invoke(runner, ["sweep", str(cfg_path)]).output)
    assert len(payload["records"]) == 4
    medians = [rec["median_exponent"] for rec in payload["records"]]
    assert medians == pytest.approx([0.0679, 0.2442, 0.0827, 0.2897], abs=5e-4)

    res = invoke(runner, ["--format", "csv", "sweep", str(cfg_path)])
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 + 4 + 64 + 4 + 256  # header + one row per slope

    override = json.loads(
        invoke(runner, ["--seed", "11", "sweep", str(cfg_path)]).output
    )
    assert override["config"]["seed"] == 11


def test_sweep_config_out_fallback(tmp_path, runner):
    out_path = tmp_path / "sweep.json"
    cfg = {
        "alpha": "3/4", "beta": "1/2", "gamma": "3/4", "zeta": "1/8", "ell": 32,
        "scales": [[1, 8, 1]], "gammas": ["1/2"], "seed": 5,
        "out": str(out_path),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = invoke(runner, ["sweep", str(cfg_path)])
    assert res.output == ""
    payload = json.loads(out_path.read_text())
    assert len(payload["records"]) == 1


def test_assemble_cli(tmp_path, runner):
    res = invoke(runner, ["--seed", "1", "assemble", "--pattern", "bt"])
    payload = json.loads(res.output)
    assert payload["intervals"] == [[0, 7, "low"]]
    assert payload["expanded"] is True and payload["achieved"] is True

    csv_res = invoke(runner, ["--seed", "1", "--format", "csv", "assemble",
                              "--pattern", "bt"])
    lines = csv_res.output.strip().splitlines()
    assert len(lines) == 2 and ",low," in lines[1]


def test_out_writes_file(tmp_path, runner):
    dest = tmp_path / "ap.txt"
    out = tmp_path / "report.json"
    invoke(runner, ["gen", "ap", "--n", "6", "--size", "8", str(dest)])
    res = invoke(runner, ["--out", str(out), "ladder", str(dest)])
    assert res.output == ""
    assert json.loads(out.read_text())["slow_step"] == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_holds_the_bytes_stdout_gets(tmp_path, runner, fmt):
    dest = tmp_path / "ap.txt"
    out = tmp_path / f"report.{fmt}"
    invoke(runner, ["gen", "ap", "--n", "6", "--size", "8", str(dest)])
    shown = invoke(runner, ["--format", fmt, "greedy", str(dest), str(dest)]).stdout_bytes
    written = invoke(runner, ["--format", fmt, "--out", str(out), "greedy", str(dest), str(dest)])
    assert written.output == ""
    assert out.read_bytes() == shown and len(shown.splitlines()) > 2


@pytest.mark.parametrize(
    "args, what, needed",
    [
        (["gen", "ap", "--n", "20", "--size", "1000"], "gen_ap", 9 * 1000),
        # below 2**20 // 50 points numpy's choice keeps the sample and a hash of it
        (["gen", "random", "--n", "20", "--size", "1000"], "gen random", 24 * 1000),
        # past 2**12 // 50 = 81 points it permutes all 4,096 indices
        (["gen", "random", "--n", "12", "--size", "100"], "gen random", 8 * 100 + 8 * 4096),
    ],
)
def test_gen_past_the_byte_budget_gives_one_line_error_before_allocating(
    tmp_path, runner, monkeypatch, args, what, needed
):
    dest = tmp_path / "set.txt"
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed - 1)
    res = runner.invoke(main, [*args, str(dest)])
    assert res.exit_code == 1 and not dest.exists()
    reason = f"{what} needs {needed} bytes of scratch memory, over the budget of {needed - 1}"
    assert res.output.splitlines() == [f"Error: {reason}"]
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed)
    invoke(runner, [*args, str(dest)])
    assert len(load_set(dest)) == int(args[-1])


def test_gen_tree_past_the_byte_budget_gives_one_line_error_before_allocating(
    tmp_path, runner, monkeypatch
):
    profile, dest = tmp_path / "profile.json", tmp_path / "tree.txt"
    profile.write_text(json.dumps({"m": 2, "R": [2, 2, 2]}))
    needed = 10 * 8 + 16 * 4  # 8 leaves under 4 last-level parents
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed - 1)
    res = runner.invoke(main, ["gen", "tree", "--profile", str(profile), str(dest)])
    assert res.exit_code == 1 and not dest.exists()
    reason = f"needs {needed} bytes of scratch memory, over the budget of {needed - 1}"
    assert res.output.splitlines() == [f"Error: gen_uniform_tree {reason}"]
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed)
    invoke(runner, ["gen", "tree", "--profile", str(profile), str(dest)])
    assert len(load_set(dest)) == 8


def test_help_lists_subcommands(runner):
    res = invoke(runner, ["--help"])
    for name in ("gen", "analyze", "uniformize", "prune", "extend", "entropy",
                 "project-avg", "ladder", "greedy", "sweep", "assemble"):
        assert name in res.output


# ------------------------------------------------------------ malformed input


def test_malformed_measure_file_gives_one_line_error(tmp_path, runner):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "n": 4, "atoms": [[[0, 1], "1/2"], [[3], "1/2"]]}\n')
    res = runner.invoke(main, ["entropy", str(path), "--c", "1/4", "--cuts", "0,4"])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    lines = res.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Error: ") and str(path) in lines[0]
    assert "atom 1" in lines[0] and "a list of length 2" in lines[0]


@pytest.mark.parametrize(
    "atoms, reason",
    [
        # the third atom repeats the second: loaded, it hid a total of 3/2
        ('[[[0], "1/2"], [[1], "1/2"], [[1], "1/2"]]', "atom 2: key [1] repeats atom 1"),
        ('[[[0], "1/2"], [[1.7], "1/2"]]', "atom 1: a key coordinate must be an integer, not 1.7"),
        ('[[[true], "1/2"], [[1], "1/2"]]',
         "atom 0: a key coordinate must be an integer, not true"),
        # a weight of true once loaded as weight 1
        ('[[[1], true]]', "atom 0: the weight must be a string or a number, not true"),
    ],
)
def test_repeated_or_non_integer_measure_key_gives_one_line_error(tmp_path, runner, atoms, reason):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"dim": 1, "n": 2, "atoms": {atoms}}}\n')
    res = runner.invoke(main, ["project-avg", str(path), str(path), "--gamma-a", "1/2",
                               "--gamma-b", "1/2", "--gamma", "1/2", "--xi", "1"])
    assert res.exit_code == 1
    assert res.output.strip().splitlines() == [f"Error: {path}: {reason}"]


@pytest.mark.parametrize(
    "header", ['"dim": 2.9, "n": 12.7', '"dim": 2, "n": "12"', '"dim": true, "n": 12',
               '"dim": 2, "n": 12.0']
)
def test_measure_header_of_non_integers_gives_one_line_error(tmp_path, runner, header):
    # "dim": 2.9, "n": 12.7 used to load as dim 2 and n 12
    path = tmp_path / "bad.json"
    path.write_text(f'{{{header}, "atoms": [[[0, 0], "1"]]}}\n')
    res = runner.invoke(main, ["entropy", str(path), "--c", "1/4", "--cuts", "0,12"])
    assert res.exit_code == 1
    key, value = next((k, v) for k, v in json.loads(f"{{{header}}}").items() if type(v) is not int)
    reason = f"'{key}' must be an integer, not {json.dumps(value)}"
    assert res.output.strip().splitlines() == [f"Error: {path}: {reason}"]


@pytest.mark.parametrize(
    "name, content, reason",
    [
        # a traceback, a usage error naming no file, and a silent read of m = 2
        ("deep.json", b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        ("ff.json", b'{"m": 1, "R": [2, 2]}\xff\n', "not UTF-8 text: invalid start byte"),
        ("twice.json", b'{"m": 1, "R": [2, 2], "m": 2}\n', "repeated key 'm'"),
        ("ff.txt", b"n=4 W=1\n0\n3\xff\n", "not UTF-8 text: invalid start byte"),
    ],
)
def test_file_the_parser_refuses_gives_one_line_error(tmp_path, runner, name, content, reason):
    path = tmp_path / name
    path.write_bytes(content)
    if name.endswith(".txt"):
        args = ["analyze", str(path)]
    else:
        args = ["gen", "tree", "--profile", str(path), str(tmp_path / "out.txt")]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Error: {path}: {reason}")


def test_set_file_without_width_gives_one_line_error(tmp_path, runner):
    path = tmp_path / "bad.txt"
    path.write_text("n=6\n0\n5\n")
    res = runner.invoke(main, ["analyze", str(path)])
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"Error: {path}:1: header must read 'n=<int> W=<int> N=<int>'")


@pytest.mark.parametrize(
    "text, line, reason",
    [
        ("n=1_0 W=1\n0\n5\n", 1, "header must read 'n=<int> W=<int> N=<int>', got 'n=1_0 W=1'"),
        ("n=+6 W=1\n0\n5\n", 1, "header must read 'n=<int> W=<int> N=<int>', got 'n=+6 W=1'"),
        ("n=6 W=\uff11\n0\n5\n", 1, "header must read 'n=<int> W=<int> N=<int>', got 'n=6 W=\uff11'"),
        ("n=12 W=1\n0\n1_000\n", 3, "not an index: '1_000'"),
        ("n=6 W=1\n0\n+5\n", 3, "not an index: '+5'"),
        ("n=6 W=1\n\uff15\n", 2, "not an index: '\uff15'"),
    ],
)
def test_set_file_integer_spellings_save_set_never_writes_give_one_line_error(
    tmp_path, runner, text, line, reason
):
    # int() reads "1_0" as 10, "+5" as 5 and a full-width digit as a digit
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    res = runner.invoke(main, ["analyze", str(path)])
    assert res.exit_code == 1
    assert res.output.strip().splitlines() == [f"Error: {path}:{line}: {reason}"]


@pytest.mark.parametrize(
    "drop, change, reason",
    [
        ("scales", {}, "missing key 'scales'"),
        (None, {"gamma": "1/2"}, "gamma must exceed (alpha - beta) / (1 - beta)"),
        ("ell", {}, "block length too short for the xi margin"),  # the default ell is 16
    ],
)
def test_malformed_sweep_config_gives_one_line_error(tmp_path, runner, drop, change, reason):
    cfg = {
        "alpha": "3/4", "beta": "1/2", "gamma": "3/4", "zeta": "1/8", "ell": 32,
        "scales": [[1, 8, 1]], "gammas": ["1/2"], **change,
    }
    cfg.pop(drop, None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["sweep", str(path)])
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert lines == [f"Error: {path}: {reason}"]


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"scales": [[1, 8]]}, "a scale row must be a list of length 3, not [1, 8]"),
        ({"alpha": None}, "'alpha' must be a string or a number, not null"),
        ({"gammas": [None]}, "a gamma must be a string or a number, not null"),
        ({"scales": 7}, "'scales' must be a list, not 7"),
        ({"out": 1}, "'out' must be a string, not 1"),  # open(1) is stdout
        # integers are read as JSON integers, never truncated or parsed from strings
        ({"ell": 32.9}, "'ell' must be an integer, not 32.9"),
        ({"ell": True}, "'ell' must be an integer, not true"),
        ({"seed": 3.7}, "'seed' must be an integer, not 3.7"),
        ({"seed": "5"}, "'seed' must be an integer, not \"5\""),
        ({"scales": [[1.9, 8.5, 1]]}, "a scale entry must be an integer, not 1.9"),
        ({"scales": [[1, "8", 1]]}, "a scale entry must be an integer, not \"8\""),
        # a mistyped key once ran with the default kappa 1/2 and seed 0
        ({"kapa": "1/4"}, "unknown key 'kapa'"),
        ({"seeds": 9}, "unknown key 'seeds'"),
    ],
)
def test_sweep_config_value_of_wrong_json_type_gives_one_line_error(
    tmp_path, runner, change, reason
):
    cfg = {
        "alpha": "3/4", "beta": "1/2", "gamma": "3/4", "zeta": "1/8", "ell": 32,
        "scales": [[1, 8, 1]], "gammas": ["1/2"], **change,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["sweep", str(path)])
    assert res.exit_code == 1
    assert res.output.strip().splitlines() == [f"Error: {path}: {reason}"]


def test_sumset_past_the_byte_budget_gives_one_line_error(tmp_path, runner):
    path = tmp_path / "wide.txt"
    rng = np.random.default_rng(40)
    save_set(DeltaSet(40, np.unique(rng.integers(0, 1 << 40, 1 << 14, dtype=np.int64))), path)
    res = runner.invoke(main, ["ladder", str(path), "--steps", "2"])
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Error: sumset needs ") and "over the budget of" in lines[0]


# Every fraction option, after the arguments its command needs.
FRACTION_OPTIONS = (
    (["entropy", "{mu}", "--cuts", "0,4,8"], ["--c"]),
    (["analyze", "{set}"], ["--kappa"]),
    (["project-avg", "{mu}", "{mu}"], ["--gamma-a", "--gamma-b", "--gamma", "--xi", "--big-c"]),
    (["extend", "{profile}", "--ell", "1"], ["--zeta", "--gamma-cap"]),
    (["greedy", "{set}", "{set}"], ["--eta"]),
    (["assemble"], ["--eta", "--zeta", "--xi", "--gamma-cap"]),
)


@pytest.mark.parametrize(
    "args, reason",
    [
        (["ladder", "{set}", "--steps", "1"], "need n_steps >= 2"),
        (["greedy", "{set}", "{set}", "--steps", "0"], "need n_steps >= 2"),
        (["entropy", "{mu}", "--c", "3", "--cuts", "0,4,8"], "|c| must be at most 1"),
        (["entropy", "{mu}", "--c", "1/4", "--cuts", "0,5"],
         "cuts must run 0 = j_0 < ... < j_h = n"),
        (["uniformize", "{set}", "{out}", "--m", "0", "--levels", "6"],
         "resolution does not match m * levels"),
        (["analyze", "{set}", "--m", "0"], "m must be >= 1"),
        (["extend", "{profile}", "--ell", "0"], "ell must be >= 1"),
        (["extend", "{profile}", "--ell", "-1"], "ell must be >= 1"),
        (["sharpness", "--n-param", "0"], "n_param must be a power of 16 (i.e. 2**(4t))"),
        (["sharpness", "--n-param", "3"], "n_param must be a power of 16 (i.e. 2**(4t))"),
        (["sharpness", "--n-param", "17", "--n-param", "256"],
         "n_param must be a power of 16 (i.e. 2**(4t))"),
        (["gen", "ap", "--n", "63", "--size", "1", "{out}"],
         "resolution exponent n=63 exceeds the 62-bit limit of int64 indices"),
        (["gen", "random", "--n", "63", "--size", "4", "{out}"],
         "resolution exponent n=63 exceeds the 62-bit limit of int64 indices"),
        *(
            (
                [*command, *(arg for opt in options for arg in (opt, "1/0" if opt == bad else "1/2"))],
                f"Invalid value for '{bad}': '1/0' is not a fraction",
            )
            for command, options in FRACTION_OPTIONS
            for bad in options
        ),
        # each once wrapped past 2**63 in int64, or overflowed numpy
        (["gen", "ap", "--n", "62", "--size", "3", "--step", "4611686018427387904", "{out}"],
         "progression indices 0 to 9223372036854775808 leave the int64 range [0, 2**63)"),
        (["gen", "ap", "--n", "8", "--size", "2", "--start", "9223372036854775807", "{out}"],
         "progression indices 9223372036854775807 to 9223372036854775935 leave the int64 range "
         "[0, 2**63)"),
        (["gen", "ap", "--n", "8", "--size", "2", "--start", "99999999999999999999", "{out}"],
         "progression indices 99999999999999999999 to 100000000000000000127 leave the int64 "
         "range [0, 2**63)"),
        # once an empty family, exit 0, where the profile has no trivial run
        (["extend", "{branching}", "--ell", "4", "--zeta", "0"], "zeta must lie in (0, 1]"),
    ],
)
def test_argument_outside_the_domain_gives_a_one_line_usage_error(tmp_path, runner, args, reason):
    files = {"set": tmp_path / "s.txt", "mu": tmp_path / "mu.json", "out": tmp_path / "out.txt",
             "profile": tmp_path / "b.json", "branching": tmp_path / "r.json"}
    save_set(gen_ap(6, 16), files["set"])
    save_profile(BranchingProfile(1, (2, 2, 1, 1)), files["profile"])
    save_profile(BranchingProfile(2, (2,) * 8), files["branching"])  # no trivial run at --ell 4
    mu = product_measure(counting_measure(gen_ap(8, 16)), counting_measure(gen_ap(8, 4)))
    save_measure(mu, files["mu"])
    res = runner.invoke(main, [arg.format(**files) for arg in args])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.strip().splitlines() == [f"Error: {reason}"]


def test_assemble_bad_params_give_a_usage_error(runner):
    res = runner.invoke(main, ["assemble", "--pattern", "bx"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Error: pattern must be big_n chars from {b, t}" in res.output
    assert "Traceback" not in res.output


def test_instance_generation_error_gives_one_line_error(runner):
    args = ["assemble", "--m", "4", "--ell", "6", "--big-n", "2", "--pattern", "tt"]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    lines = res.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Error: size: instance exceeds the 2**20 atom budget")


def test_failed_certificate_gives_one_line_error(runner, monkeypatch):
    from dyadic import experiments

    real = experiments._block_bits
    monkeypatch.setattr(
        experiments, "_block_bits", lambda prof, lo, hi: real(prof, lo, hi) + 40.0
    )
    res = runner.invoke(main, ["assemble", "--pattern", "bt"])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    lines = res.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("Error: certificate 'assembly-block-average' failed with slack -")
