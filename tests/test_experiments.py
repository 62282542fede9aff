"""Experiment harness: frozen small-case oracles plus contract properties.

The alignment/ladder/greedy expected values below were computed by hand
from the generators' closed forms before the implementations existed;
sweep and assembly tests pin seeded outcomes and re-derive the exact
bookkeeping identities the reports must satisfy.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic import (
    AssemblyParams,
    DeltaSet,
    ExpansionRecord,
    ExperimentConfig,
    InstanceGenerationError,
    ParameterSet,
    ScaleSpec,
    build_polarised_instance,
    gen_ap,
    named_stream,
    run_alignment_sharpness,
    run_doubling_ladder,
    run_expansion_sweep,
    run_final_assembly,
    run_greedy_iterated_sum,
    sumset,
)
from dyadic.experiments import format_float, write_json, write_rows_csv


# ------------------------------------------------------------ named streams


def test_named_streams_are_reproducible_and_disjoint():
    a1 = named_stream(7, "x").integers(0, 1 << 30, size=4)
    a2 = named_stream(7, "x").integers(0, 1 << 30, size=4)
    b = named_stream(7, "y").integers(0, 1 << 30, size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# ------------------------------------------------------------ sharpness


def test_alignment_sharpness_frozen_values():
    rows = run_alignment_sharpness([1, 16, 256, 4096])
    degenerate = rows[0]
    assert degenerate.n_param == 1
    assert degenerate.product_slope is None and degenerate.best_c_slope is None

    by_n = {r.n_param: r for r in rows}
    # |A + BC| = 2 * 4**t - 1 and max_c |A + cB| = 2 * 4**t - 2**t, worked
    # out from the triple's lattice alignment
    assert (by_n[16].size_a, by_n[16].product_sum_size, by_n[16].best_c_size) == (4, 7, 6)
    assert (by_n[256].size_a, by_n[256].product_sum_size, by_n[256].best_c_size) == (16, 31, 28)
    assert (by_n[4096].size_a, by_n[4096].product_sum_size, by_n[4096].best_c_size) == (64, 127, 120)
    assert by_n[16].product_ratio == Fraction(7, 4)
    assert by_n[256].product_ratio == Fraction(31, 16)
    assert by_n[4096].product_ratio == Fraction(127, 64)
    assert by_n[16].best_c_ratio == Fraction(3, 2)
    assert by_n[256].best_c_ratio == Fraction(7, 4)
    assert by_n[4096].best_c_ratio == Fraction(15, 8)

    slopes = [by_n[k].product_slope for k in (16, 256, 4096)]
    assert slopes[0] > slopes[1] > slopes[2]
    c_slopes = [by_n[k].best_c_slope for k in (16, 256, 4096)]
    assert c_slopes[0] > c_slopes[1] > c_slopes[2]


def test_alignment_sharpness_guard():
    with pytest.raises(ValueError):
        run_alignment_sharpness([1 << 25])


# ------------------------------------------------------------ ladder


def test_ladder_singleton():
    k, table = run_doubling_ladder(DeltaSet(4, np.array([0])), 6)
    assert k == 1
    assert [size for _, size in table] == [1] * 7


def test_ladder_frozen_ap():
    k, table = run_doubling_ladder(gen_ap(6, 8), 6)
    assert k == 1
    assert [size for _, size in table] == [8, 15, 29, 57, 113, 225, 449]


def test_ladder_full_grid():
    k, table = run_doubling_ladder(gen_ap(4, 16, step=1), 4)
    assert k == 1
    assert [size for _, size in table] == [16, 31, 61, 121, 241]


def test_ladder_needs_two_steps():
    with pytest.raises(ValueError):
        run_doubling_ladder(gen_ap(4, 4), 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ladder_always_finds_slow_step(data):
    n = data.draw(st.integers(3, 8))
    size = data.draw(st.integers(1, 1 << n))
    idx = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size,
                 unique=True)
    )
    b = DeltaSet(n, np.sort(np.array(idx, dtype=np.int64)))
    k, _ = run_doubling_ladder(b, 6)  # internal assert is the property
    assert 1 <= k < 6


# ------------------------------------------------------------ greedy


def test_greedy_singleton_b():
    b = DeltaSet(4, np.array([0]))
    c = gen_ap(4, 4)
    rep = run_greedy_iterated_sum(b, c, 3, Fraction(1, 10))
    assert rep.sizes == (1, 1, 1)
    assert rep.exponent == 0.0
    assert rep.n_star == 1


def test_greedy_frozen_small_run():
    b = gen_ap(6, 8)
    c = gen_ap(6, 8, step=8)
    rep = run_greedy_iterated_sum(b, c, 4, Fraction(1, 10))
    assert rep.sizes == (1, 8, 57, 106)
    assert tuple(str(x) for x in rep.c_sequence) == ("0", "1/8", "7/8", "7/8")
    assert rep.n_star == 1
    assert rep.exponent == pytest.approx(math.log2(106) / 6)
    assert rep.target == pytest.approx(0.5 + 0.5 * 0.5 - 0.1)


def test_greedy_half_regular_tree_beats_beta():
    # beta = gamma = 1/2 at delta = 2**-16, eight greedy steps
    b = gen_ap(16, 256)
    rep = run_greedy_iterated_sum(b, b, 8, Fraction(1, 10))
    assert rep.beta == pytest.approx(0.5) and rep.gamma == pytest.approx(0.5)
    assert rep.exponent >= 0.5
    assert all(y >= x for x, y in zip(rep.sizes, rep.sizes[1:]))
    assert 1 <= rep.n_star < 8


def test_greedy_pigeonhole_exists_at_two_steps():
    b = gen_ap(5, 8)
    rep = run_greedy_iterated_sum(b, gen_ap(5, 4), 2, 0)
    assert rep.n_star == 1


def test_greedy_validation():
    b = gen_ap(4, 4)
    with pytest.raises(ValueError):
        run_greedy_iterated_sum(b, gen_ap(5, 4), 3, 0)  # resolution mismatch
    with pytest.raises(ValueError):
        run_greedy_iterated_sum(b, b, 1, 0)
    too_big = DeltaSet(4, np.array([0, 40]), width=4)  # slope 2.5 > 1
    with pytest.raises(ValueError):
        run_greedy_iterated_sum(b, too_big, 3, 0)


# ------------------------------------------------------------ sweep


def _config(**kw):
    defaults = dict(
        params=ParameterSet(
            alpha=Fraction(3, 4), beta=Fraction(1, 2), gamma=Fraction(3, 4),
            kappa=Fraction(1, 2), eta=Fraction(1, 2), zeta=Fraction(1, 8),
            ell=32,
        ),
        family="aligned-triple",
        scales=(ScaleSpec(1, 8, 1),),
        gammas=(Fraction(1, 4), Fraction(3, 4)),
        seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(family="nope")
    with pytest.raises(ValueError):
        _config(scales=())
    with pytest.raises(ValueError):
        _config(gammas=())
    with pytest.raises(ValueError):
        _config(gammas=(Fraction(3, 2),))
    with pytest.raises(ValueError):
        _config(nu="lebesgue")


def test_config_json_round_trip(tmp_path):
    cfg = _config()
    path = tmp_path / "cfg.json"
    write_json(cfg.to_dict(), path)
    again = ExperimentConfig.load(path)
    assert again.params == cfg.params
    assert again.scales == cfg.scales
    assert again.gammas == cfg.gammas
    assert again.family == cfg.family and again.seed == cfg.seed


def test_sweep_records_sorted_and_bounded():
    cfg = _config(scales=(ScaleSpec(1, 10, 1), ScaleSpec(1, 8, 1)))
    records = run_expansion_sweep(cfg)
    assert len(records) == 4
    keys = [(r.delta, r.gamma) for r in records]
    assert keys == sorted(keys)
    for rec in records:
        n = rec.delta_exponent
        assert rec.cs == tuple(sorted(rec.cs))
        assert all(-rec.alpha_bar <= e <= 1 - rec.alpha_bar + 1 / n + 1e-9
                   for e in rec.exponents)
        assert rec.best_exponent == max(rec.exponents)
        assert not rec.sampled and rec.sample_size == len(rec.cs)


def test_sweep_gamma_one_near_full_expansion():
    # beta near 1: a generic slope fills almost the whole interval
    params = ParameterSet(
        alpha=Fraction(7, 8), beta=Fraction(7, 8), gamma=Fraction(1),
        kappa=Fraction(1, 2), eta=Fraction(1, 2), zeta=Fraction(1, 8),
        ell=16,
    )
    cfg = _config(params=params, gammas=(Fraction(1),))
    (rec,) = run_expansion_sweep(cfg)
    assert rec.sample_size == 256
    assert rec.median_exponent == pytest.approx(1 - rec.alpha_bar, abs=0.08)
    assert rec.best_exponent <= 1 - rec.alpha_bar + 1 / 8 + 1e-9


def test_sweep_degenerate_b_no_expansion():
    # beta so small that B rounds to the single point {0}
    params = ParameterSet(
        alpha=Fraction(1, 2), beta=Fraction(1, 8), gamma=Fraction(1),
        kappa=Fraction(1, 2), eta=Fraction(1, 2), zeta=Fraction(1, 8),
        ell=14,
    )
    cfg = _config(params=params, scales=(ScaleSpec(1, 2, 1),), gammas=(Fraction(1),))
    (rec,) = run_expansion_sweep(cfg)
    assert rec.size_b == 1
    assert all(e == 0.0 for e in rec.exponents)


def test_sweep_sampling_disclosed():
    params = ParameterSet(
        alpha=Fraction(1, 4), beta=Fraction(1, 8), gamma=Fraction(1),
        kappa=Fraction(1, 2), eta=Fraction(1, 2), zeta=Fraction(1, 8),
        ell=12,
    )
    cfg = _config(params=params, scales=(ScaleSpec(1, 14, 1),), gammas=(Fraction(1),))
    (rec,) = run_expansion_sweep(cfg)
    assert rec.sampled and rec.sample_size == 10_000
    assert len(set(rec.cs)) == 10_000


def test_sweep_families_build():
    for family in ("uniform-tree", "random-frostman", "polarised-tree"):
        cfg = _config(family=family, gammas=(Fraction(1, 2),))
        (rec,) = run_expansion_sweep(cfg)
        assert rec.family == family
        assert rec.size_a == 1 << 6 and rec.size_b == 1 << 4  # 2**round(.75*8), 2**round(.5*8)


def test_sweep_translation_invariance_explicit():
    cfg = _config(gammas=(Fraction(1, 2),))
    (rec,) = run_expansion_sweep(cfg)
    n = rec.delta_exponent
    a = gen_ap(n, 1 << 6)
    b = gen_ap(n, 1 << 4)
    c = rec.cs[3]
    moved = DeltaSet(n, a.indices + (1 << n), width=2)
    assert len(sumset(a, c, b, max_width=4)) == len(sumset(moved, c, b, max_width=4))


def test_expansion_record_rejects_impossible_exponent():
    with pytest.raises(ValueError):
        ExpansionRecord(
            delta_exponent=8, gamma=Fraction(1, 2), family="aligned-triple",
            alpha_bar=0.5, size_a=16, size_b=4, cs=(Fraction(1, 2),),
            exponents=(0.9,), best_c=Fraction(1, 2), best_exponent=0.9,
            median_exponent=0.9, mean_exponent=0.9, sampled=False,
            sample_size=1,
        )


def test_expansion_record_rows_and_dict():
    cfg = _config(gammas=(Fraction(1, 2),))
    (rec,) = run_expansion_sweep(cfg)
    rows = rec.to_rows()
    assert len(rows) == len(rec.cs)
    assert rows[0]["gamma"] == "1/2" and rows[0]["delta_exponent"] == 8
    d = rec.to_dict()
    assert d["best_c"] == str(rec.best_c)
    assert len(d["exponents"]) == len(rec.cs)


# ------------------------------------------------------------ assembly


def test_assembly_params_validation():
    with pytest.raises(ValueError):
        AssemblyParams(m=1)  # eta * m < 1
    with pytest.raises(ValueError):
        AssemblyParams(zeta=Fraction(1, 8))  # ell * zeta < 1
    with pytest.raises(ValueError):
        AssemblyParams(pattern="bx")
    with pytest.raises(ValueError):
        AssemblyParams(pattern="b")  # wrong length
    with pytest.raises(ValueError):
        AssemblyParams(c_bits=0)
    with pytest.raises(ValueError):
        AssemblyParams(trivial_a_bits=2)  # must stay below m


def test_assembly_canonical_low_instance():
    rep = run_final_assembly(AssemblyParams(pattern="bt"), seed=1)
    assert rep.pattern == "bt" and rep.n == 16
    assert rep.intervals == ((0, 7, "low"),)
    assert rep.nonempty_low and rep.demoted == ()
    assert [(b.lo, b.hi, b.tag) for b in rep.blocks] == [(0, 7, "low")]
    assert rep.size_b == 16 and rep.size_b_collapsed == 4  # xi prefix keeps 2 levels
    assert rep.alpha_bar_bits == 7.0
    assert rep.best_entropy == pytest.approx(9.0)  # log2(|A'| * |B''|), full spread
    assert rep.expanded and rep.achieved
    # constant bookkeeping: gain xi*zeta*m*|J| = 1 bit, one low correction
    assert rep.gain_bits == pytest.approx(1.0)
    assert rep.low_const_bits == pytest.approx(math.log2(40) + 10.0)
    assert rep.useless_bits == 0.0
    assert rep.chain_bits == pytest.approx(math.log2(3))
    (audit,) = rep.cell_audits
    assert audit.failures == () and audit.avg_entropy >= audit.rhs


def test_assembly_demotion_path():
    rep = run_final_assembly(AssemblyParams(pattern="tb"), seed=1)
    assert rep.demoted == ((0, 3, "case_b"),)  # too short for the xi prefix rule
    assert not rep.nonempty_low
    assert [(b.lo, b.hi, b.tag) for b in rep.blocks] == [(0, 7, "useless")]
    assert rep.size_b_collapsed == rep.size_b  # collapse skipped entirely


def test_assembly_all_useless_degradation():
    for pattern, has_intervals in (("bb", False), ("tt", True)):
        rep = run_final_assembly(AssemblyParams(pattern=pattern), seed=1)
        assert not rep.nonempty_low
        assert bool(rep.intervals) == has_intervals
        # rhs collapses to log2|A'| minus the one-bit and chain corrections
        expected = rep.alpha_bar_bits - rep.useless_bits - rep.chain_bits
        assert rep.assembled_rhs == pytest.approx(expected)
        assert rep.nu_avg_entropy >= rep.assembled_rhs - 1e-9


def test_assembly_no_expansion_when_b_trivial():
    rep = run_final_assembly(AssemblyParams(pattern="tt"), seed=1)
    assert rep.size_b == 1
    assert rep.best_entropy == pytest.approx(rep.alpha_bar_bits)
    assert not rep.expanded


def test_assembly_hand_sized_one_low_interval():
    params = AssemblyParams(
        m=3, ell=4, big_n=4, eta=Fraction(1, 3), zeta=Fraction(1, 4),
        xi=Fraction(1, 4), gamma_cap=Fraction(3, 4), c_bits=6,
        pattern="ttbt", trivial_a_bits=0, branch_b_bits=2,
    )
    rep = run_final_assembly(params, seed=0)
    assert rep.n == 48
    assert rep.intervals == ((0, 7, "case_b"), (9, 15, "low"))
    assert [(b.lo, b.hi, b.tag) for b in rep.blocks] == [(0, 8, "useless"), (9, 15, "low")]
    assert rep.size_a == 256 and rep.size_b == 256 and rep.size_b_collapsed == 64
    assert rep.nonempty_low and rep.expanded and rep.achieved
    low_block = rep.blocks[1]
    assert low_block.branch_bits_a == pytest.approx(6.0)  # three polarised levels
    assert low_block.margin > 0
    assert len(rep.cell_audits) == 2
    assert all(a.failures == () for a in rep.cell_audits)


def test_assembly_seeded_run_is_deterministic():
    a = run_final_assembly(seed=3)
    b = run_final_assembly(seed=3)
    assert a == b


def test_assembly_size_guard():
    params = AssemblyParams(
        m=3, ell=4, big_n=4, pattern="tttt", trivial_a_bits=2,
        eta=Fraction(1, 3),
    )
    with pytest.raises(InstanceGenerationError) as exc:
        build_polarised_instance(params, named_stream(0, "t"), params.pattern)
    assert exc.value.hypothesis == "size"


def test_assembly_instance_spread_profiles():
    params = AssemblyParams()
    inst = build_polarised_instance(params, named_stream(0, "inst"), "bt")
    assert inst.pattern == "bt"
    assert all(r == 2 for r in inst.b_profile.r[:4])  # one forced bit per level
    assert all(r == 1 for r in inst.b_profile.r[4:])
    assert all(r == 2 for r in inst.a_profile.r[:4])  # polarised floor ceil(m/2)
    assert len(inst.a) == inst.a_profile.size()


def test_assembly_report_dict_is_json_ready(tmp_path):
    rep = run_final_assembly(AssemblyParams(pattern="bt"), seed=1)
    path = tmp_path / "rep.json"
    write_json(rep, path)
    loaded = json.loads(path.read_text())
    assert loaded["pattern"] == "bt"
    assert loaded["best_c"] == str(rep.best_c)
    assert len(loaded["per_c_entropy"]) == 64


# ------------------------------------------------------------ writers


def test_format_float_twelve_digits():
    assert format_float(1 / 3) == "0.333333333333"
    assert format_float(2.0) == "2"


def test_write_rows_csv(tmp_path):
    rows = [{"a": 1, "b": 0.5, "c": "x"}, {"a": 2, "b": 1 / 3, "c": "y"}]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[2] == "2,0.333333333333,y"
    with pytest.raises(ValueError):
        write_rows_csv([], tmp_path / "empty.csv")


def test_write_json_fractions(tmp_path):
    path = tmp_path / "obj.json"
    write_json({"x": Fraction(3, 4), "y": [Fraction(1, 2), 0.25]}, path)
    assert json.loads(path.read_text()) == {"x": "3/4", "y": ["1/2", 0.25]}
