"""Grid sets: covering numbers, sumsets, regularity checks.

Expected values in the oracle tests were computed by hand (or by the brute
force written inline) before the library code existed and are frozen here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic import (
    DeltaSet,
    as_dyadic,
    covering_counts,
    covering_number,
    frostman_check,
    gen_aligned_triple,
    gen_ap,
    iterated_sum,
    load_set,
    pow2_ge,
    pow2_le,
    save_set,
    sumset,
)


def dset(n, ks, width=None):
    return DeltaSet.from_indices(n, ks, width)


# ---------------------------------------------------------------- validation


def test_deltaset_rejects_bad_input():
    with pytest.raises(ValueError):
        DeltaSet(0, np.array([0]))
    with pytest.raises(ValueError):
        DeltaSet(4, np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        DeltaSet(4, np.array([3, 1]))
    with pytest.raises(ValueError):
        DeltaSet(4, np.array([0, 16]))  # needs width 2
    DeltaSet(4, np.array([0, 16]), width=2)


def test_deltaset_refuses_resolution_past_62_bits():
    DeltaSet(62, np.array([0, 5]))
    for n in (63, 70):
        with pytest.raises(ValueError, match="62-bit"):
            DeltaSet(n, np.array([0, 5]))


def test_point_one_lives_in_second_unit_cell():
    A = dset(4, [0, 16], width=2)
    assert covering_number(A, 0) == 2


def test_as_dyadic():
    assert as_dyadic(Fraction(3, 8)) == (3, 3)
    assert as_dyadic(0.5) == (1, 1)
    assert as_dyadic(1) == (1, 0)
    assert as_dyadic(-0.75) == (-3, 2)
    with pytest.raises(ValueError):
        as_dyadic(Fraction(1, 3))


def test_pow2_comparisons():
    # 2**1.5 = 2.828...
    assert pow2_le(Fraction(3, 2), 3)
    assert not pow2_le(Fraction(3, 2), 2)
    assert pow2_ge(Fraction(3, 2), 2)
    assert not pow2_ge(Fraction(3, 2), 3)
    assert pow2_le(Fraction(2), 4) and pow2_ge(Fraction(2), 4)  # equality
    assert pow2_le(Fraction(-1, 2), 1)  # 2**-0.5 < 1
    assert not pow2_ge(Fraction(-1, 2), 1)


# ------------------------------------------------------------------ covering


def test_covering_worked_example():
    # {0, 307/1024, 317/1024} at cell size 1/4: cells 0, 1, 1 -> 2 cells
    A = dset(10, [0, 307, 317])
    assert covering_number(A, 2) == 2


def test_covering_extremes():
    A = dset(6, [0, 1, 7, 33])
    assert covering_number(A, 6) == len(A)
    assert covering_number(A, 0) == 1
    assert covering_counts(A, [0, 6]) == {0: 1, 6: 4}


@st.composite
def small_sets(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    size = draw(st.integers(1, min(40, 1 << n)))
    ks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size, unique=True)
    )
    return dset(n, ks)


@given(small_sets())
def test_covering_doubling(A):
    counts = [covering_number(A, r) for r in range(A.n + 1)]
    assert counts[-1] == len(A)
    for coarse, fine in zip(counts, counts[1:]):
        assert coarse <= fine <= 2 * coarse


# ------------------------------------------------------------------- sumsets


def test_sumset_worked_example():
    A = dset(4, [0, 1, 2, 3])
    B = dset(4, [0, 2])
    out = sumset(A, Fraction(1, 2), B)
    assert out.indices.tolist() == [0, 1, 2, 3, 4]


def test_sumset_identity_and_zero():
    A = dset(5, [3, 17, 29])
    B = dset(5, [0])
    assert sumset(A, 1, B) == A
    C = dset(5, [1, 2, 31])
    assert sumset(A, 0, C) == A


def test_sumset_rejects_mismatch():
    with pytest.raises(ValueError):
        sumset(dset(4, [0]), 1, dset(5, [0]))
    with pytest.raises(ValueError):
        sumset(dset(4, [0]), Fraction(1, 32), dset(4, [0]))  # finer than grid
    with pytest.raises(ValueError):
        sumset(dset(4, [0, 3]), 2, dset(4, [1]))  # |c| > 1
    with pytest.raises(ValueError):
        # negative c would push below zero
        sumset(dset(4, [0, 3]), -1, dset(4, [1, 8]))


def test_sumset_negative_c_when_it_stays_nonnegative():
    A = dset(4, [8, 9])
    B = dset(4, [0, 4])
    out = sumset(A, Fraction(-1, 2), B)
    # shifts floor(-k/2): {0, -2}
    assert out.indices.tolist() == [6, 7, 8, 9]


@st.composite
def sumset_instances(draw):
    n = draw(st.integers(2, 8))
    A = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20, unique=True)
    )
    B = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20, unique=True)
    )
    q = draw(st.integers(0, n))
    p = draw(st.integers(0, 1 << q))
    return dset(n, A), Fraction(p, 1 << q), dset(n, B)


@given(sumset_instances())
@settings(max_examples=200)
def test_sumset_matches_rational_brute_force(args):
    A, c, B = args
    out = sumset(A, c, B)
    expect = set()
    for a in A.points():
        for b in B.points():
            expect.add(math.floor((a + c * b) * (1 << A.n)))
    assert set(out.indices.tolist()) == expect
    assert len(out) >= len(A)


@pytest.mark.parametrize("n", [31, 32, 40, 62])
def test_fine_slope_sumset_matches_fraction_brute_force(n):
    # p and the indices in [2**(n-1), 2**n): p * k passes 2**63 from n = 32 on
    rng = np.random.default_rng(n)
    lo, hi = 1 << (n - 1), 1 << n
    A = dset(n, rng.integers(lo, hi, size=16).tolist())
    B = dset(n, rng.integers(lo, hi, size=16).tolist())
    c = Fraction(int(rng.integers(lo, hi)) | 1, hi)
    out = sumset(A, c, B)
    expect = {math.floor((a + c * b) * hi) for a in A.points() for b in B.points()}
    assert out.indices.tolist() == sorted(expect)


def test_iterated_sum_full_grid():
    B = dset(4, range(16))
    out = iterated_sum(B, 2)
    assert out.indices.tolist() == list(range(31))
    assert out.width == 2


@given(small_sets(max_n=6), st.integers(1, 4))
@settings(max_examples=60)
def test_iterated_sum_size_bound(B, k):
    out = iterated_sum(B, k)
    assert len(out) <= k << B.n
    assert len(out) >= len(B)


# ---------------------------------------------------------------- regularity


def test_frostman_full_grid():
    A = dset(8, range(256))
    rep = frostman_check(A, 1, r_min_exp=8, r_max_exp=1)
    assert rep.worst_ratio <= 3
    assert rep.passed


def test_frostman_point_mass_floor():
    A = dset(6, [0, 21, 45])
    rep = frostman_check(A, Fraction(1, 2), r_min_exp=6, r_max_exp=0)
    # a single point inside the smallest ball already forces this much
    assert rep.worst_ratio >= 2.0 ** (6 * 0.5) / len(A) - 1e-9


def test_frostman_clustered_set_fails():
    # 32 points packed into one cell of size 2**-5: wildly irregular for kappa=1
    A = dset(10, range(32))
    rep = frostman_check(A, 1, r_min_exp=10, r_max_exp=2, bound=8.0)
    assert not rep.passed


# ---------------------------------------------------------------- generators


def test_gen_ap():
    A = gen_ap(4, 4)
    assert A.indices.tolist() == [0, 4, 8, 12]
    B = gen_ap(4, 3, step=2, start=1)
    assert B.indices.tolist() == [1, 3, 5]


def test_gen_aligned_triple_smallest():
    A, B, C = gen_aligned_triple(16)
    assert A.n == 2 and A.indices.tolist() == [1, 2, 3, 4]
    assert B.indices.tolist() == [2, 4]
    assert C is B


def test_gen_aligned_triple_rejects_non_power16():
    for bad in (15, 64, 100):
        with pytest.raises(ValueError):
            gen_aligned_triple(bad)


# ------------------------------------------------------------------------ io


def test_set_roundtrip(tmp_path):
    A = dset(7, [0, 5, 99, 128], width=2)
    path = tmp_path / "a.set"
    save_set(A, path)
    assert load_set(path) == A
    header = path.read_text().splitlines()[0]
    assert header == "n=7 W=2"
