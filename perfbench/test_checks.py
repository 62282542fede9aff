"""Each output checker must reject a corrupted result on a small hand case.

Run from the repository root: ``python3 -m pytest perfbench/test_checks.py``.
"""

import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from dyadic import (  # noqa: E402
    AssemblyParams,
    DeltaSet,
    ExperimentConfig,
    ParameterSet,
    ScaleSpec,
    iterated_sum,
    run_doubling_ladder,
    run_expansion_sweep,
    run_final_assembly,
    run_greedy_iterated_sum,
    sumset,
)

A = DeltaSet(6, np.array([0, 3, 5, 17, 40]))
B = DeltaSet(6, np.array([1, 2, 9, 33]))


def with_index(s: DeltaSet, extra: int) -> DeltaSet:
    return DeltaSet(s.n, np.unique(np.append(s.indices, extra)), s.width)


def test_convolve_support_is_the_sumset():
    got = checks.convolve_support(A.indices, B.indices)
    assert got.tolist() == checks.brute_sumset(A.indices.tolist(), Fraction(1), B.indices.tolist())


def test_sumset_checker_rejects_size_off_by_one():
    c = Fraction(3, 8)
    out = sumset(A, c, B)
    checks.check_sumset(out, A, c, B)
    with pytest.raises(checks.CheckError, match="size"):
        checks.check_sumset(with_index(out, int(out.indices[-1]) + 1), A, c, B)


def test_iterated_sum_checker_rejects_size_off_by_one():
    out = iterated_sum(B, 3)
    checks.check_iterated_sum(out, B, 3)
    with pytest.raises(checks.CheckError, match="size"):
        checks.check_iterated_sum(DeltaSet(out.n, out.indices[1:], out.width), B, 3)


def test_ladder_checker_rejects_swapped_sizes():
    k, table = run_doubling_ladder(B, 4)
    checks.check_ladder((k, table), B, 4)
    swapped = list(table)
    swapped[2], swapped[3] = (2, table[3][1]), (3, table[2][1])
    with pytest.raises(checks.CheckError, match="sizes"):
        checks.check_ladder((k, swapped), B, 4)
    with pytest.raises(checks.CheckError, match="slow step"):
        checks.check_ladder((k + 1, table), B, 4)


def test_assembly_checker_rejects_nudged_entropy():
    params = AssemblyParams(pattern="bt")
    rep = run_final_assembly(params, seed=1)
    checks.check_assembly(rep, params, 1)
    per_c = list(rep.per_c_entropy)
    per_c[5] += 1e-6
    with pytest.raises(checks.CheckError, match="recomputed"):
        checks.check_assembly(dataclasses.replace(rep, per_c_entropy=tuple(per_c)), params, 1)
    with pytest.raises(checks.CheckError, match="sizes"):
        checks.check_assembly(dataclasses.replace(rep, size_a=rep.size_a + 1), params, 1)


def test_sweep_checker_rejects_exponent_of_a_size_off_by_one():
    config = ExperimentConfig(
        params=ParameterSet(alpha=Fraction(1, 2), beta=Fraction(1, 4), gamma=Fraction(4, 5),
                            kappa=Fraction(1, 2), eta=Fraction(1, 2), zeta=Fraction(1, 8), ell=32),
        family="random-frostman", scales=(ScaleSpec(1, 8, 1),), gammas=(Fraction(1, 2),), seed=4,
    )
    (rec,) = run_expansion_sweep(config)
    every = list(range(rec.sample_size))
    checks.check_sweep_record(rec, config, every)
    a, b = checks.family_sets(rec.family, 8, 4, 2, config.seed)
    size = len(checks.brute_sumset(a, rec.cs[3], b))
    exps = list(rec.exponents)
    exps[3] = math.log2(size + 1) / 8 - rec.alpha_bar
    with pytest.raises(checks.CheckError, match="recomputed"):
        checks.check_sweep_record(dataclasses.replace(rec, exponents=tuple(exps)), config, every)


def test_greedy_checker_rejects_size_off_by_one():
    c = DeltaSet(6, np.array([3, 8, 21, 64]), width=2)
    rep = run_greedy_iterated_sum(B, c, 4, Fraction(1, 10))
    checks.check_greedy(rep, B, c)
    sizes = list(rep.sizes)
    sizes[2] += 1
    with pytest.raises(checks.CheckError, match="greedy sizes"):
        checks.check_greedy(dataclasses.replace(rep, sizes=tuple(sizes)), B, c)


def write_measure(path: Path) -> None:
    atoms = [[[0, 0], "1/8"], [[1, 2], "3/8"], [[5, 1], "1/4"], [[7, 6], "1/4"]]
    path.write_text(json.dumps({"dim": 2, "n": 3, "atoms": atoms}))


def test_cli_entropy_checker_rejects_nudged_lhs(tmp_path):
    write_measure(tmp_path / "mu.json")
    mu = checks.read_measure_file(tmp_path / "mu.json")
    lhs = checks.file_projected_entropy(mu, Fraction(1, 2))
    payload = {"chains": [{"c": "1/2", "lhs": lhs, "slack": 0.5}]}
    checks.check_cli_entropy(payload, "json", mu, ["1/2"])
    payload["chains"][0]["lhs"] = lhs + 1e-6
    with pytest.raises(checks.CheckError, match="recomputed"):
        checks.check_cli_entropy(payload, "json", mu, ["1/2"])


def test_cli_l2_checker_rejects_wrong_average(tmp_path):
    write_measure(tmp_path / "mu.json")
    (tmp_path / "nu.json").write_text(json.dumps({"dim": 1, "n": 1, "atoms": [[[1], "1/2"], [[2], "1/2"]]}))
    mu = checks.read_measure_file(tmp_path / "mu.json")
    nu = checks.read_measure_file(tmp_path / "nu.json")
    per_c = [(c, checks.file_projected_l2(mu, c)) for c in (Fraction(1, 2), Fraction(1))]
    average = (per_c[0][1] + per_c[1][1]) / 2
    payload = {"average": str(average), "per_c": [{"c": str(c), "l2": str(v)} for c, v in per_c]}
    checks.check_cli_l2(payload, "json", mu, nu)
    payload["average"] = str(average + Fraction(1, 64))
    with pytest.raises(checks.CheckError, match="l2 average"):
        checks.check_cli_l2(payload, "json", mu, nu)
