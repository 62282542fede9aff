"""Grid sets: covering numbers, sumsets, regularity checks.

Expected values in the oracle tests were computed by hand (or by the brute
force written inline) before the library code existed and are frozen here.
"""

import functools
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyadic
from dyadic import grid
from dyadic import (
    BudgetError,
    DeltaSet,
    as_dyadic,
    covering_counts,
    covering_number,
    frostman_check,
    gen_aligned_triple,
    gen_ap,
    iterated_sum,
    load_set,
    run_doubling_ladder,
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


def test_deltaset_refuses_repeated_and_wrapping_indices():
    with pytest.raises(ValueError, match="strictly increasing"):
        DeltaSet(4, [1, 1])
    # a difference of int64 indices wraps here: -2**63 - 2**62 reads as 2**62
    with pytest.raises(ValueError, match="strictly increasing"):
        DeltaSet(62, np.array([1 << 62, -(1 << 63)]), width=2)


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


def test_as_dyadic_reads_numpy_integers_as_python_ints():
    for c, want in [(np.int64(1), (1, 0)), (np.int32(-3), (-3, 0)), (Fraction(-5, 16), (-5, 4)),
                    (7, (7, 0)), (True, (1, 0)), (np.float64(0.25), (1, 2))]:
        p, q = as_dyadic(c)
        assert (p, q) == want and type(p) is int and type(q) is int
    A = dset(4, [0, 3, 5])
    assert sumset(A, np.int64(1), A) == sumset(A, 1, A)
    mu = dyadic.product_measure(dyadic.counting_measure(A), dyadic.counting_measure(A))
    assert dyadic.project(mu, np.int64(1)) == dyadic.project(mu, 1)
    cuts = [0, 2, 4]
    assert dyadic.entropy_chain(mu, np.int64(1), cuts) == dyadic.entropy_chain(mu, 1, cuts)


def test_pow2_comparisons():
    # 2**1.5 = 2.828...
    assert pow2_le(Fraction(3, 2), 3)
    assert not pow2_le(Fraction(3, 2), 2)
    assert pow2_ge(Fraction(3, 2), 2)
    assert not pow2_ge(Fraction(3, 2), 3)
    assert pow2_le(Fraction(2), 4) and pow2_ge(Fraction(2), 4)  # equality
    assert pow2_le(Fraction(-1, 2), 1)  # 2**-0.5 < 1
    assert not pow2_ge(Fraction(-1, 2), 1)


def _fraction_pow2_sign(frac, value):
    """Sign of ``2**frac - value`` through Fraction powers: the reference."""
    frac, value = Fraction(frac), Fraction(value)
    if value <= 0:
        return 1
    lhs, rhs = Fraction(2) ** frac.numerator, value**frac.denominator
    return (lhs > rhs) - (lhs < rhs)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(-70, 70),
        st.builds(Fraction, st.integers(-70, 70), st.integers(1, 9)),
    ),
    st.one_of(
        st.integers(-3, 1 << 70),
        st.builds(Fraction, st.integers(-50, 1 << 40), st.integers(1, 1 << 20)),
        st.sampled_from([0.5, 0.75, 3.0, 2.0**-40, 1e30]),
    ),
)
@example(Fraction(-3, 2), 0)
@example(Fraction(-3, 2), Fraction(-1, 3))
@example(Fraction(3, 2), Fraction(2**3, 1))
@example(Fraction(-6, 3), Fraction(1, 4))  # equality at a negative exponent
def test_pow2_sign_matches_fraction_reference(frac, value):
    sign = grid._pow2_sign(frac, value)
    assert sign == _fraction_pow2_sign(frac, value)
    assert pow2_le(frac, value) == (sign <= 0)
    assert pow2_ge(frac, value) == (sign >= 0)


# ------------------------------------------------------------------ grouping

_NEAR_62 = st.one_of(
    st.integers(-4, 4),
    st.integers((1 << 62) - 3, (1 << 62) + 3),
    st.integers(-(1 << 62) - 3, -(1 << 62) + 3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_NEAR_62, max_size=30))
@example([])
@example([1 << 62])
def test_run_starts_and_distinct_match_np_unique_on_one_key(vals):
    s = np.sort(np.array(vals, dtype=np.int64))
    values, first = np.unique(s, return_index=True)
    assert grid._run_starts(s).tolist() == first.tolist()
    assert grid._distinct(s).tolist() == values.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_NEAR_62, st.integers(-2, 2)), max_size=30))
@example([])
@example([(0, 1)])
def test_run_starts_of_two_lexsorted_columns_match_np_unique_rows(rows):
    x = np.array([r[0] for r in rows], dtype=np.int64)
    y = np.array([r[1] for r in rows], dtype=np.int64)
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    if rows:
        first = np.sort(np.unique(np.stack([x, y], axis=1), axis=0, return_index=True)[1])
    else:
        first = np.zeros(0, dtype=np.int64)
    assert grid._run_starts(x, y).tolist() == first.tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 5), st.integers((1 << 63) - 2, (1 << 64) + 2)),
                max_size=20))
@example([])
@example([1 << 64])
def test_run_starts_on_object_counts_past_63_bits(vals):
    # the measure kernel's counts are Python ints once a denominator passes 2**63
    ordered = sorted(vals)
    s = np.array(ordered, dtype=object)
    expect = [i for i, v in enumerate(ordered) if i == 0 or v != ordered[i - 1]]
    assert grid._run_starts(s).tolist() == expect
    assert grid._distinct(s).tolist() == sorted(set(vals))


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


def test_covering_number_and_from_indices_at_n62():
    top = (1 << 62) - 1
    ks = [top, 0, top, 1 << 61, (1 << 61) - 1, 5, 0, 5]
    A = DeltaSet.from_indices(62, ks)
    assert A.indices.tolist() == sorted(set(ks)) and A.width == 1
    for r in (0, 1, 2, 31, 60, 61, 62):
        assert covering_number(A, r) == len({k >> (62 - r) for k in ks})
    # the largest int64 index lies in the second unit cell
    B = DeltaSet.from_indices(62, [(1 << 63) - 1, 1 << 62, 0])
    assert B.width == 2 and len(B) == 3
    assert covering_counts(B, [0, 1, 62]) == {0: 2, 1: 3, 62: 3}


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
    with pytest.raises(ValueError, match="int64"):
        sumset(dset(62, [0, 3 << 61], width=2), 1, dset(62, [(1 << 62) - 1]))


def test_sumset_refuses_a_wide_sum_before_the_kernel_runs(monkeypatch):
    monkeypatch.setattr(grid, "_sum_support", lambda *args: pytest.fail("the kernel ran"))
    with pytest.raises(ValueError, match="sumset width 3 exceeds limit 2"):
        sumset(dset(4, [0, 20], width=2), 1, dset(4, [15]), max_width=2)


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


def brute_sumset(A: DeltaSet, p: int, q: int, B: DeltaSet) -> list[int]:
    """Sorted distinct ``a + floor(p * b / 2**q)`` in Python integers."""
    return sorted({a + ((p * b) >> q) for a in A.indices.tolist() for b in B.indices.tolist()})


def assert_sumset_exact(A, p, q, B):
    out = sumset(A, Fraction(p, 1 << q), B)
    expect = brute_sumset(A, p, q, B)
    assert out.indices.dtype == np.int64
    assert out.indices.tolist() == expect
    assert out.n == A.n and out.width == (expect[-1] >> A.n) + 1


@st.composite
def wide_sumset_instances(draw):
    """B in the lower half of [0, 1), A in the upper half, so every slope
    with |c| <= 1 keeps the sums in [0, 2); both sets are intervals,
    random points in a window a few times their size, or spread over
    their whole half; the slope is 1, coarse or fine, of either sign."""
    n = draw(st.sampled_from([31, 32, 40, 62]))
    half = 1 << (n - 1)

    def points(lo, min_bits, max_bits):
        size = draw(st.integers(1, 1 << draw(st.integers(min_bits, max_bits))))
        kind = draw(st.sampled_from(["interval", "window", "window", "spread"]))
        span = {"interval": size, "window": size * draw(st.sampled_from([2, 8, 64])),
                "spread": half}[kind]
        start = lo + draw(st.integers(0, half - span))
        if kind == "interval":
            return DeltaSet(n, start + np.arange(size, dtype=np.int64))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return DeltaSet(n, start + np.unique(rng.integers(0, span, size, dtype=np.int64)))

    A, B = points(half, 4, 10), points(0, 3, 8)
    kind = draw(st.sampled_from(["one", "coarse", "fine"]))
    q = {"one": 0, "coarse": draw(st.integers(1, 8)), "fine": draw(st.integers(n - 8, n))}[kind]
    p = 1 if kind == "one" else draw(st.integers(0, 1 << q))
    return A, -p if draw(st.booleans()) else p, q, B


@given(wide_sumset_instances())
@example((gen_ap(62, 700, step=2, start=1 << 61), -3, 2, gen_ap(62, 300, step=1)))  # fft
@example((gen_ap(40, 900, step=1, start=1 << 39), 1, 0, gen_ap(40, 16, step=200)))  # scatter
@example((gen_ap(40, 2048, step=1, start=1 << 39), 1, 0, gen_ap(40, 64, step=64)))  # bitset
@example((gen_ap(62, 1500, step=3, start=1 << 61), -3, 2, gen_ap(62, 100, step=37)))  # bitset
@example((gen_ap(31, 4000, step=2, start=1 << 30), 5, 12, gen_ap(31, 100, step=50001)))  # bitset
@example((gen_ap(32, 3000, step=1, start=1 << 31), 1 - (1 << 32), 32, gen_ap(32, 100, step=67)))  # bitset
@settings(max_examples=150, deadline=None)
def test_sumset_matches_python_int_brute_force_over_the_domain(args):
    assert_sumset_exact(*args)


# Shapes (A offsets, B offsets) of growing size x along which the cheapest
# route changes once, from the first route named to the second.  The
# progressions of step 2, 3 and 16 miss as many indices as their spans
# hold, so the dense route refuses them.  Where the bitset ORs only its end
# shifts, it is priced below the FFT at any x, so the bitset-fft shape
# crosses at an x below 2m: A is the 256 multiples of 16 below 4,096.
CROSSOVERS = {
    "outer-scatter": lambda x: (np.arange(x), np.arange(8) * 64),
    "scatter-bitset": lambda x: (np.arange(x), np.arange(32) * 64),
    "bitset-fft": lambda x: (16 * np.arange(256), 16 * np.arange(x)),
    "outer-fft": lambda x: (3 * np.arange(x), 3 * np.arange(x)),
    "outer-dense": lambda x: (np.arange(x), np.arange(x)),
    "fft-dense": lambda x: (np.union1d(np.arange(0, 256, 2), np.arange(x)),) * 2,
}


def _route_of(a, b):
    if a.size < b.size:
        a, b = b, a
    return grid._plan(a.size, b.size, int(a[-1] + b[-1] - a[0] - b[0]) + 1, int(a[-1] - a[0]) + 1)


@pytest.mark.parametrize("n", [31, 32, 40, 62])
@pytest.mark.parametrize("crossing", sorted(CROSSOVERS))
def test_sumset_exact_on_both_sides_of_each_route_crossover(crossing, n, monkeypatch):
    below, above = crossing.split("-")
    shape = CROSSOVERS[crossing]
    x = next(x for x in range(2, 1 << 12) if _route_of(*shape(x)) == above)
    assert _route_of(*shape(x - 1)) == below
    taken = []
    plan = grid._plan
    monkeypatch.setattr(grid, "_plan", lambda *args: taken.append(plan(*args)) or taken[-1])
    rng = np.random.default_rng(n)
    for size in (x - 1, x):
        a, b = shape(size)
        A = DeltaSet(n, (1 << (n - 1)) + int(rng.integers(0, 1 << 20)) + a)
        B = DeltaSet(n, int(rng.integers(0, 1 << 20)) + b)
        assert_sumset_exact(A, 1, 0, B)
    assert taken == [below, above]


def holed(n, start, span, missing=()):
    """The interval ``[start, start + span)`` at resolution n less the
    offsets ``missing``."""
    return DeltaSet.from_indices(n, start + np.setdiff1d(np.arange(span), missing))


@st.composite
def nearly_full_instances(draw):
    """(A, p, q, B): two windows of up to 200 indices at n = 8 to 62, A in
    the upper half of [0, 2**n) and B in the lower, each less none, one,
    three, a quarter or all but one of its indices, and a slope of 0, 1,
    -1, a coarse or a fine dyadic."""
    n = draw(st.sampled_from([8, 16, 31, 40, 62]))
    half = 1 << (n - 1)

    def points(lo):
        span = draw(st.integers(1, min(200, half)))
        missing = min(draw(st.sampled_from([0, 1, 3, span // 4, span - 1])), span - 1)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keep = np.sort(rng.choice(span, span - missing, replace=False))
        return DeltaSet(n, lo + draw(st.integers(0, half - span)) + keep)

    A, B = points(half), points(0)
    q = draw(st.sampled_from([0, 0, 3, n]))
    p = draw(st.integers(0, 1 << q))
    return A, -p if draw(st.booleans()) else p, q, B


@given(nearly_full_instances())
@example((holed(8, 128, 40), 1, 0, holed(8, 0, 30)))  # h = 0: two intervals
@example((holed(8, 128, 40), 1, 0, holed(8, 0, 30, [7])))  # h = 1
@example((holed(8, 128, 11, [9]), 1, 0, holed(8, 0, 3, [1])))  # h = 2 < 3; 139 is no sum
@example((holed(8, 128, 11, [3, 5]), 1, 0, holed(8, 0, 3, [1])))  # h = 3: refused; 133 is no sum
@example((holed(8, 128, 40), 1, 0, holed(8, 5, 1)))  # a single-point operand
@example((holed(8, 128, 40, [9]), -1, 0, holed(8, 0, 30, [3])))  # c = -1
@example((holed(8, 128, 40), 0, 0, holed(8, 0, 30, [3])))  # c = 0
@example((holed(62, (1 << 62) - 300, 300, [17]), 1, 0, holed(62, 0, 200, [150])))  # about 2**62
@example((holed(62, (3 << 61) - 300, 300, [17]), 1, 0, holed(62, (1 << 61) - 199, 200, [50])))  # to 2**63 - 1
@settings(max_examples=150, deadline=None)
def test_sum_support_of_nearly_full_sets_matches_python_int_brute_force(args):
    A, p, q, B = args
    a, v = A.indices, grid._shifts(Fraction(p, 1 << q), B)
    expect = sorted({x + y for x in a.tolist() for y in v.tolist()})
    if a.size < v.size:
        a, v = v, a
    span, a_span = int(a[-1] + v[-1] - a[0] - v[0]) + 1, int(a[-1] - a[0]) + 1
    routes = [route for _, _, route in grid._fitting_routes(a.size, v.size, span, a_span)]
    holes = span + 1 - a.size - v.size
    assert ("dense" in routes) == (holes < min(a_span, span + 1 - a_span))
    for route in routes:  # the dense route wherever it is offered, cheapest or not
        with mock.patch.object(grid, "_plan", return_value=route):
            out = grid._sum_support(a, v)
        assert out.dtype == np.int64
        assert out.tolist() == expect


def _bitset_path(a, v, m):
    """``_sum_support(a, v)`` on the bitset route with m end shifts at each
    end, the number of shifts it ORed, and its path: ``ends`` (the end
    shifts settled every offset), ``checked`` (lookups settled the offsets
    they missed) or ``ored`` (the middle shifts were ORed after all).  An
    outer route priced at 1 ns, below any OR, is offered beside it: the
    bitset that ``_plan`` picks must still finish the sum."""
    routes = [(0.0, 0, "bitset"), (1.0, 0, "outer")]
    ors = []
    or_shifts = grid._or_shifts

    def traced_or(copies, y, out):
        ors.append(y.size)
        or_shifts(copies, y, out)

    with mock.patch.object(grid, "_fitting_routes", return_value=routes), \
            mock.patch.object(grid, "_end_shifts", return_value=m), \
            mock.patch.object(grid, "_or_shifts", side_effect=traced_or), \
            mock.patch.object(grid, "_witnessed", wraps=grid._witnessed) as witnessed:
        out = grid._sum_support(a, v)
    path = "ored" if len(ors) == 2 else "checked" if witnessed.called else "ends"
    return out, sum(ors), path


@st.composite
def bitset_instances(draw):
    """(A, p, q, B, m): A in the upper half of [0, 2**n) and B in the lower,
    each within a window of up to 300 indices, as random points at a
    density of 1/8 to 1, a progression of step 2 or 3, or the window less
    one residue mod 3; a slope of 1, -1 or a coarse dyadic; and m from 1 to 8."""
    n = draw(st.sampled_from([8, 16, 31, 40, 62]))
    half = 1 << (n - 1)

    def points(lo):
        span = draw(st.integers(1, min(300, half)))
        kind = draw(st.sampled_from(["random", "progression", "residues"]))
        if kind == "random":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            keep = np.flatnonzero(rng.random(span) < draw(st.sampled_from([1 / 8, 1 / 2, 7 / 8, 1])))
        elif kind == "progression":
            keep = np.arange(0, span, draw(st.sampled_from([2, 3])))
        else:
            keep = np.flatnonzero(np.arange(span) % 3 != draw(st.integers(0, 2)))
        if keep.size == 0:  # a density of 1/8 can keep no point of a short window
            keep = np.zeros(1, dtype=np.int64)
        return DeltaSet(n, lo + draw(st.integers(0, half - span)) + keep)

    A, B = points(half), points(0)
    q = draw(st.sampled_from([0, 0, 3]))
    p = draw(st.integers(-(1 << q), 1 << q)) if q else draw(st.sampled_from([1, -1]))
    return A, p, q, B, draw(st.integers(1, 8))


def _nearly_full(n, start, span, step=1, missing=()):
    return holed(n, start, span, [i for i in range(span) if i % step or i in missing])


@given(bitset_instances())
@example((_nearly_full(8, 128, 80, step=2), 1, 0, _nearly_full(8, 0, 60, step=2), 3))  # real holes
@example((_nearly_full(8, 128, 90, step=3), 1, 0, _nearly_full(8, 0, 50, step=3), 5))
@example((holed(8, 128, 90, range(2, 90, 3)), 1, 0, holed(8, 0, 60, range(0, 60, 3)), 2))
@example((holed(8, 128, 80, [9]), -1, 0, holed(8, 0, 30, [3, 4]), 4))  # c = -1
@example((holed(8, 128, 16), 1, 0, holed(8, 0, 8), 4))  # 2m == |v|
@example((holed(62, (1 << 62) - 300, 300, [17]), 1, 0, holed(62, 0, 200, range(0, 200, 2)), 6))  # about 2**62
@example((holed(62, (3 << 61) - 300, 300, [5]), 1, 0, holed(62, (1 << 61) - 199, 200, [50]), 1))  # to 2**63 - 1
@settings(max_examples=150, deadline=None)
def test_bitset_end_shifts_and_checked_middle_match_python_int_brute_force(args):
    A, p, q, B, m = args
    a, v = A.indices, grid._shifts(Fraction(p, 1 << q), B)
    expect = sorted({x + y for x in a.tolist() for y in v.tolist()})
    out, _, _ = _bitset_path(a, v, m)
    assert out.dtype == np.int64
    assert out.tolist() == expect


def _doubled(B: DeltaSet) -> DeltaSet:
    return DeltaSet(B.n, np.unique(np.add.outer(B.indices, B.indices)), 2)


_RANDOM_B = DeltaSet(10, np.sort(np.random.default_rng(29).choice(1 << 10, 128, replace=False)))

# Named shapes (A, B, m) and the path the bitset route takes on them.
BITSET_PATHS = {
    "step-2 progression": (gen_ap(8, 80, step=2, start=128), gen_ap(8, 60, step=2), 3, "ored"),
    "one residue mod 3 missing": (
        holed(8, 128, 90, range(2, 90, 3)), holed(8, 0, 60, range(2, 60, 3)), 2, "ends"),
    "2B + B": (_doubled(_RANDOM_B), _RANDOM_B, 3, "checked"),
    "2m == |v|": (holed(8, 128, 40, [5]), gen_ap(8, 8, step=3), 4, "ends"),
    "c = -1": (holed(8, 128, 80, [9]), holed(8, 0, 30, [3, 4]), 1, "checked"),
    "about 2**62": (
        gen_ap(62, 150, step=2, start=(1 << 62) - 300), gen_ap(62, 100, step=2), 2, "ored"),
    "to 2**63 - 1": (
        holed(62, (3 << 61) - 300, 300, range(3, 300, 7)), holed(62, (1 << 61) - 199, 200, [50]),
        1, "checked"),
}


@pytest.mark.parametrize("name", sorted(BITSET_PATHS))
def test_bitset_takes_each_path_and_matches_python_int_brute_force(name):
    A, B, m, path = BITSET_PATHS[name]
    c = -1 if name == "c = -1" else 1
    v = grid._shifts(c, B)
    expect = sorted({x + y for x in A.indices.tolist() for y in v.tolist()})
    out, ored, taken = _bitset_path(A.indices, v, m)
    assert (taken, out.tolist()) == (path, expect)
    assert ored == (min(2 * m, v.size) if path != "ored" else v.size)


def test_bitset_ors_at_most_2m_shifts_of_the_n16_self_sum():
    B = _workload_set(3, "iterated/16/3", 16, 4097)
    b = B.indices
    span, b_span = 2 * int(b[-1] - b[0]) + 1, int(b[-1] - b[0]) + 1
    m = grid._end_shifts(b.size, b_span, span)
    assert grid._plan(b.size, b.size, span, b_span) == "bitset" and 2 * m < b.size
    out, ored, path = _bitset_path(b, b, m)
    assert path in ("ends", "checked") and ored == 2 * m
    every, ored, _ = _bitset_path(b, b, b.size)  # m past |v| / 2: every shift ORed
    assert ored == b.size and np.array_equal(out, every)


def test_n40_random_sumset_within_the_byte_budget_is_exact():
    # the old bitmap branch allocated one byte per index below 2**41 here
    rng = np.random.default_rng(40)
    A = DeltaSet(40, np.unique(rng.integers(0, 1 << 40, 1 << 12, dtype=np.int64)))
    B = DeltaSet(40, np.unique(rng.integers(0, 1 << 40, 1 << 11, dtype=np.int64)))
    out = sumset(A, 1, B).indices
    hit = np.zeros(out.size, dtype=bool)
    for b in B.indices.tolist():  # every a + b is in out, and every point of out is one
        pos = np.minimum(np.searchsorted(out, A.indices + b), out.size - 1)
        assert np.array_equal(out[pos], A.indices + b)
        hit[pos] = True
    assert hit.all()


def test_sumset_past_the_byte_budget_raises_before_allocating():
    rng = np.random.default_rng(41)
    A = DeltaSet(40, np.unique(rng.integers(0, 1 << 40, 1 << 14, dtype=np.int64)))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            sumset(A, 1, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(info.value, ValueError)
    assert info.value.budget == dyadic.SUMSET_BYTE_BUDGET < info.value.needed
    assert peak < 1 << 20


def test_sumset_certificate_survives_python_O():
    # an FFT whose every entry is off by 0.3 must be refused, asserts or not;
    # every other index missing keeps the sum off the dense route
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from dyadic import CertificateError, gen_ap, sumset\n"
        "irfft = np.fft.irfft\n"
        "np.fft.irfft = lambda *args: irfft(*args) + 0.3\n"
        "A = gen_ap(12, 1024, step=2)\n"
        "try:\n"
        "    print(sys.flags.optimize, 'accepted', len(sumset(A, 1, A)))\n"
        "except CertificateError as exc:\n"
        "    print(sys.flags.optimize, exc.name, exc.slack)\n"
    )
    src = str(Path(dyadic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    optimize, name, slack = out.stdout.split()
    assert optimize == "1"
    assert name == "fft-rounding" and float(slack) < 0


def test_fft_self_sum_takes_one_transform_and_equal_sizes_take_two():
    # 256 random points of 2,048: the bitset ORs all of them, and costs more
    rng = np.random.default_rng(6)
    A, V = (DeltaSet(12, np.sort(rng.choice(2048, 256, replace=False))) for _ in range(2))
    assert _route_of(A.indices, V.indices) == _route_of(A.indices, A.indices) == "fft"
    for B, transforms in ((A, 1), (dset(12, A.indices.tolist()), 1), (V, 2)):
        with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
            out = sumset(A, 1, B)
        assert rfft.call_count == transforms
        assert out.indices.tolist() == brute_sumset(A, 1, 0, B)


def test_doubling_a_full_interval_gives_the_full_interval():
    # 2**15 points at n = 16: the per-shift bitmap loop took seconds here
    B = gen_ap(16, 1 << 15, step=1)
    assert iterated_sum(B, 2).indices.tolist() == list(range((1 << 16) - 1))
    _, table = run_doubling_ladder(B, 2)
    assert [size for _, size in table] == [1 << 15, (1 << 16) - 1, (1 << 17) - 3]


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


def brute_iterated(B: DeltaSet, k: int) -> list[int]:
    """The sorted k-fold sums of B in Python integers, B's offsets from its
    least point held as the bits of one int."""
    base = int(B.indices[0])
    offsets = (B.indices - base).tolist()
    mask = 1
    for _ in range(k):
        mask = functools.reduce(operator.or_, (mask << o for o in offsets))
    return [k * base + i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def _traced_iterated_sum(B, k):
    """``iterated_sum(B, k)``, the number of power-route and pairwise calls."""
    with mock.patch.object(grid, "_power_support", wraps=grid._power_support) as power, \
            mock.patch.object(grid, "sumset", wraps=grid.sumset) as pairwise:
        out = iterated_sum(B, k)
    return out, power.call_count, pairwise.call_count


@st.composite
def iterated_instances(draw):
    """(B, k, kind): an interval, random points in a window 2 to 64 times
    their size, or a window twice their size holding about as many points
    as ``_power_error_bound`` allows below 1/4 at k = 5 or 6.  (At k = 4,
    about 6,660 points, the pairwise steps' bitset ORs 64 shifts and is
    priced below the powered spectrum, so the bound never decides there.)"""
    kind = draw(st.sampled_from(["interval", "window", "window", "near-bound"]))
    if kind == "near-bound":
        k = draw(st.sampled_from([5, 6]))
        size = draw(st.integers(*{5: (880, 1010), 6: (250, 290)}[k]))
        span = 2 * size
    else:
        k = draw(st.integers(2, 5))
        size = draw(st.integers(1, 600))
        span = size if kind == "interval" else size * draw(st.sampled_from([2, 8, 64]))
    n = draw(st.integers(max(span.bit_length(), 1), 20))
    start = draw(st.integers(0, (1 << n) - span))
    if kind == "interval":
        return DeltaSet(n, start + np.arange(size, dtype=np.int64)), k, kind
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DeltaSet(n, start + np.sort(rng.choice(span, size, replace=False))), k, kind


@given(iterated_instances())
@example((gen_ap(14, 900, step=2), 5, "near-bound"))  # power route
@example((gen_ap(14, 1000, step=2), 5, "near-bound"))  # bound past 1/4: pairwise
@example((gen_ap(12, 1024, step=1), 3, "interval"))  # power route
@example((dset(6, [3]), 4, "interval"))  # one point: pairwise
@settings(max_examples=60, deadline=None)
def test_iterated_sum_matches_python_int_brute_force(args):
    B, k, kind = args
    out, power, pairwise = _traced_iterated_sum(B, k)
    expect = brute_iterated(B, k)
    assert out.indices.dtype == np.int64
    assert out.indices.tolist() == expect
    assert out.n == B.n and out.width == (expect[-1] >> B.n) + 1
    nfft = grid._power_nfft(B, k, 1 << 12)
    assert (power, pairwise) == ((1, 0) if nfft is not None else (0, k - 1))
    if kind == "near-bound":  # dense: the cost model prefers the power, the bound decides
        window = k * int(B.indices[-1] - B.indices[0]) + 1
        bound = grid._power_error_bound(len(B), k, grid._fft_length(window))
        assert (nfft is not None) == (bound < 0.25)


def _measured_rounding(monkeypatch) -> list[float]:
    """The ``max |conv - rint(conv)|`` of every FFT-route call from now on."""
    errors = []
    count_support = grid._count_support

    def measured(conv, pairs, lo):
        errors.append(float(np.abs(conv - np.rint(conv)).max()))
        return count_support(conv, pairs, lo)

    monkeypatch.setattr(grid, "_count_support", measured)
    return errors


def test_power_error_bound_covers_the_measured_rounding(monkeypatch):
    errors = _measured_rounding(monkeypatch)
    rng = np.random.default_rng(2003)
    checked = 0
    while checked < 50:
        k, size = int(rng.integers(3, 6)), int(rng.integers(2, 2000))
        span = size * int(rng.choice([1, 2, 8]))
        B = DeltaSet(max(span - 1, 1).bit_length(), np.sort(rng.choice(span, size, replace=False)))
        nfft = grid._power_nfft(B, k, 1 << 12)
        if nfft is None:
            continue
        errors.clear()
        iterated_sum(B, k)
        assert errors[0] <= grid._power_error_bound(size, k, nfft)
        checked += 1


@pytest.mark.parametrize("a", [8, 11])
def test_both_fft_routes_round_within_their_bounds_at_three_times_a_power_of_two(a, monkeypatch):
    errors = _measured_rounding(monkeypatch)
    share = {8: 2, 11: 16}[a]  # of the pairwise operands' points
    rng = np.random.default_rng(a)
    nfft = 3 << a

    def part_of(span, share):  # about a share of the points of [0, span), both ends included
        inner = 1 + rng.choice(span - 2, span // share, replace=False)
        return DeltaSet(a + 2, np.sort(np.concatenate([[0, span - 1], inner])))

    # pairwise: a window of 3 * 2**a - 1 indices, past 2**(a+1); at a = 11
    # operands as full as B would take the bitset, which ORs only 64 shifts
    A, V = part_of(3 << (a - 1), share), part_of(3 << (a - 1), share)
    assert _route_of(A.indices, V.indices) == "fft"
    assert grid._fft_length(2 * (3 << (a - 1)) - 1) == nfft
    assert sumset(A, 1, V).indices.tolist() == brute_sumset(A, 1, 0, V)
    assert 0 < errors[-1] <= grid._fft_error_bound(len(A) * len(V), nfft)
    # powered: 3B over a window of 3 * 2**a - 2 indices
    B = part_of(1 << a, 2)
    assert grid._power_nfft(B, 3, 1 << 12) == nfft
    assert iterated_sum(B, 3).indices.tolist() == brute_iterated(B, 3)
    assert 0 < errors[-1] <= grid._power_error_bound(len(B), 3, nfft)


def test_fft_growth_is_the_radix_2_count_at_powers_of_two_and_one_level_deeper_at_3_2a():
    eps = 2.0**-53

    def radix_2(nfft, transforms, products):  # the count of every power-of-two length
        k = nfft.bit_length()
        return math.expm1(
            transforms * k * math.log1p(eps)
            + (transforms * k + products) * math.log1p(eps * math.sqrt(5))
            + transforms * k * math.log1p(2 * eps)
        )

    for a in range(63):
        for transforms, products in ((0, 2), (1, 0), (3, 1), (2, 4)):
            assert grid._fft_growth(1 << a, transforms, products) == radix_2(1 << a, transforms, products)
            # 3 * 2**a counts as many levels as 2**(a+2): ceil(log2 N) + 1
            assert grid._fft_growth(3 << a, transforms, products) == radix_2(4 << a, transforms, products)


def test_fft_length_is_the_least_two_power_or_three_two_power_covering_the_window():
    lengths = sorted({1 << a for a in range(64)} | {3 << a for a in range(63)})
    for window in [*range(1, 300), 196_500, 196_609, (1 << 40) + 1, 3 << 50, (3 << 50) + 1]:
        assert grid._fft_length(window) == next(n for n in lengths if n >= window)


@pytest.mark.parametrize("size", [2, 65, 1024, 4097, 1 << 16])
@pytest.mark.parametrize("nfft", [1 << 4, 1 << 12, 1 << 20, 1 << 25])
def test_power_error_bound_lies_between_percival_and_a_coarser_form(size, nfft):
    eps = 2.0**-53
    eta = grid._fft_growth(nfft, 1, 0)
    m = size + math.sqrt(nfft * size) * eta
    # at k = 2 the power is one product: never tighter than Percival's convolution bound
    assert grid._power_error_bound(size, 2, nfft) >= grid._fft_error_bound(size * size, nfft)
    for k in range(2, 7):
        coarser = (1 + eta) * (
            k * m ** (k - 1) * math.sqrt(size) * eta
            + ((1 + math.sqrt(5) * eps) ** (k - 1) - 1) * m ** (k - 1) * math.sqrt(size) * (1 + eta)
        ) + size ** (k - 0.5) * eta
        assert min(grid._power_error_bound(size, k, nfft), 1.0) <= coarser  # inf past 1/4


@pytest.mark.parametrize(
    "B, k, max_width",
    [
        (gen_ap(10, 512, step=2), 4, 2),  # 3B is the first sum wider than 2
        (gen_ap(62, 64, step=1, start=(1 << 62) - 64), 3, 1 << 12),  # 3B passes 2**63
    ],
)
def test_iterated_sum_refuses_like_the_pairwise_steps(B, k, max_width):
    with pytest.raises(ValueError) as pairwise:
        out = B
        for _ in range(k - 1):
            out = sumset(out, 1, B, max_width=max_width)
    with pytest.raises(ValueError) as iterated:
        iterated_sum(B, k, max_width=max_width)
    assert str(iterated.value) == str(pairwise.value)
    assert k * int(B.indices[-1]) >= 1 << 63 or grid._power_nfft(B, k, 1 << 12) is not None


def test_iterated_sum_certificate_survives_python_O():
    # a powered spectrum whose every entry is off by 0.3 must be refused;
    # every other index missing keeps the pairwise steps off the dense route
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from dyadic import CertificateError, gen_ap, grid, iterated_sum\n"
        "irfft = np.fft.irfft\n"
        "np.fft.irfft = lambda *args: irfft(*args) + 0.3\n"
        "B = gen_ap(12, 1024, step=2)\n"
        "route = 'power' if grid._power_nfft(B, 3, 1 << 12) else 'pairwise'\n"
        "try:\n"
        "    print(sys.flags.optimize, route, 'accepted', len(iterated_sum(B, 3)))\n"
        "except CertificateError as exc:\n"
        "    print(sys.flags.optimize, route, exc.name, exc.slack)\n"
    )
    src = str(Path(dyadic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    optimize, route, name, slack = out.stdout.split()
    assert optimize == "1" and route == "power"
    assert name == "fft-rounding" and float(slack) < 0


# The doubling ladders and iterated sums of the ``ladder`` benchmark workload
# (perfbench/workloads.py): (n, log2|B|) with 6 steps, and (n, |B|, k) with
# the route iterated_sum takes: the bitset ORs few shifts of 4,097 random
# points at n = 16, so its pairwise steps cost less than the powered spectrum.
LADDER_WORKLOAD_SETS = ((5, 2), (5, 3), (6, 4), (6, 5), (7, 4), (7, 5), (7, 6), (8, 5), (8, 7))
ITERATED_WORKLOAD_ROUTES = {(12, 2049, 4): "power", (16, 4097, 3): "pairwise", (10, 65, 4): "power"}


def _workload_set(seed: int, purpose: str, n: int, size: int) -> DeltaSet:
    rng = np.random.default_rng([seed, *purpose.encode()])
    return DeltaSet(n, np.sort(rng.choice(1 << n, size=size, replace=False)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ladder_workload_outputs_equal_the_pairwise_loop(seed):
    for n, bits in LADDER_WORKLOAD_SETS:
        B = _workload_set(seed, f"ladder/{n}/{bits}", n, 1 << bits)
        _, table = run_doubling_ladder(B, 6)
        sizes, cur = [len(B)], B
        for _ in range(6):
            cur = dset(n, brute_iterated(cur, 2))
            sizes.append(len(cur))
        assert table == list(enumerate(sizes))
    for (n, size, k), route in ITERATED_WORKLOAD_ROUTES.items():
        B = _workload_set(seed, f"iterated/{n}/{k}", n, size)
        pairwise = B
        for _ in range(k - 1):
            pairwise = sumset(pairwise, 1, B)
        out, power, steps = _traced_iterated_sum(B, k)
        assert (power, steps) == ((1, 0) if route == "power" else (0, k - 1))
        assert out == pairwise


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


def test_gen_ap_refuses_past_the_byte_budget_before_allocating(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            gen_ap(40, 1 << 35)  # 2**35 indices: 288 GiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.what, info.value.needed) == ("gen_ap", 9 << 35) and peak < 1 << 20
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", 9 * 1000)
    assert len(gen_ap(20, 1000)) == 1000
    with pytest.raises(BudgetError, match="^gen_ap needs 9009 bytes of scratch memory"):
        gen_ap(20, 1001)


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
    assert header == "n=7 W=2 N=4"
