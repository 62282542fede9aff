"""Byte-exact golden files for every report command, JSON and CSV.

Each case runs one ``dyadic`` subcommand on small fixed inputs and compares
its standard output, byte for byte, with ``tests/golden/<case>.<format>``.
The files pin the output rule (key order, 12 significant digits for floats,
``p/q`` for fractions, CSV line endings) so a change to the serialisers
shows up as a diff here.  After a deliberate change of output, rewrite
the files with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from dyadic import (
    BranchingProfile,
    DeltaSet,
    counting_measure,
    gen_ap,
    gen_uniform_tree,
    product_measure,
    run_final_assembly,
    save_measure,
    save_profile,
    save_set,
)
from dyadic.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEP_CONFIG = {
    "alpha": "3/4", "beta": "1/2", "gamma": "3/4", "kappa": "1/2",
    "eta": "1/2", "zeta": "1/8", "ell": 32,
    "family": "random-frostman",
    "scales": [[1, 8, 1]],
    "gammas": ["1/4", "1/2"],
    "seed": 5,
}

PROJECT = ["mu.json", "nu.json", "--gamma-a", "1/2", "--gamma-b", "1/4",
           "--gamma", "1/4", "--xi", "1/2"]

# case name -> (arguments after the global flags, formats pinned)
CASES = {
    "assemble": (["--seed", "1", "assemble", "--pattern", "bt"], ("json", "csv")),
    "greedy": (["greedy", "ap8.txt", "ap8-step8.txt"], ("json", "csv")),
    "sharpness": (["sharpness", "--n-param", "1", "--n-param", "16",
                   "--n-param", "256"], ("json", "csv")),
    "sweep": (["sweep", "sweep.json"], ("json", "csv")),
    "ladder": (["ladder", "ap8.txt"], ("json", "csv")),
    "entropy": (["entropy", "mu.json", "--c", "1/4", "--c", "3/4",
                 "--cuts", "0,4,8"], ("json", "csv")),
    "project-avg-l2": (["project-avg", *PROJECT, "--mode", "l2"], ("json", "csv")),
    "project-avg-entropy": (["project-avg", *PROJECT, "--mode", "entropy"],
                            ("json", "csv")),
    "analyze": (["analyze", "ap8.txt", "--m", "2"], ("json", "csv")),
    "extend": (["extend", "b-prof.json", "--ell", "4", "--zeta", "1/4",
                "--a-profile", "a-prof.json"], ("json", "csv")),
    "uniformize": (["uniformize", "scatter.txt", "out.txt", "--m", "2",
                    "--levels", "4"], ("json", "csv")),
    "prune": (["prune", "tree.txt", "out.txt", "--m", "2", "--levels", "3"],
              ("json",)),
}


def write_inputs(root: Path) -> None:
    """The fixed input files every case reads, built from exact index lists."""
    save_set(gen_ap(6, 8), root / "ap8.txt")
    save_set(gen_ap(6, 8, step=8), root / "ap8-step8.txt")
    scatter = sorted({(7 * i * i + 3 * i) % 256 for i in range(40)})
    save_set(DeltaSet(8, scatter), root / "scatter.txt")
    save_set(gen_uniform_tree(BranchingProfile(2, (2, 1, 2))), root / "tree.txt")
    mu = product_measure(counting_measure(gen_ap(8, 16)), counting_measure(gen_ap(8, 4)))
    save_measure(mu, root / "mu.json")
    save_measure(counting_measure(gen_ap(8, 4)), root / "nu.json")
    save_profile(BranchingProfile(1, (2, 2, 2, 2, 1, 1, 1, 1)), root / "b-prof.json")
    save_profile(BranchingProfile(1, (2,) * 8), root / "a-prof.json")
    (root / "sweep.json").write_text(json.dumps(SWEEP_CONFIG))


def run_case(name: str, fmt: str) -> bytes:
    """Standard output of one case, run in the directory holding the inputs."""
    args, _ = CASES[name]
    result = CliRunner().invoke(main, ["--format", fmt, *args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


def plain(x):
    """A report as JSON values: dataclasses as objects, fractions as
    ``"p/q"``; ``json`` writes a float as its ``repr``, which reads back
    exactly."""
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (tuple, list)):
        return [plain(v) for v in x]
    return x


def assembly_reports() -> bytes:
    """The criterion-12 ``AssemblyReport``s, seeds 0-19, as indented JSON."""
    reports = [plain(run_final_assembly(seed=seed)) for seed in range(20)]
    return (json.dumps(reports, indent=1) + "\n").encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(root)
    return root


@pytest.mark.parametrize(
    "name,fmt", [(name, fmt) for name, (_, fmts) in CASES.items() for fmt in fmts]
)
def test_report_matches_golden(inputs, monkeypatch, name, fmt):
    monkeypatch.chdir(inputs)
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert run_case(name, fmt) == expected


def test_assembly_reports_match_golden():
    assert assembly_reports() == (GOLDEN / "assembly-reports.json").read_bytes()


if __name__ == "__main__":
    import os
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "assembly-reports.json").write_bytes(assembly_reports())
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        for name, (_, fmts) in CASES.items():
            for fmt in fmts:
                (GOLDEN / f"{name}.{fmt}").write_bytes(run_case(name, fmt))
