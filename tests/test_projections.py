"""Projection averages: two-path norms, hypothesis audits, tube geometry."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyadic
from dyadic import DeltaSet, counting_measure, gen_ap, product_measure
from dyadic.experiments import write_json
from dyadic.measures import DiscreteMeasure, discretize_density_l2, project
from dyadic.projections import (
    LowBlockShape,
    ProjectionParams,
    _far_mass,
    _near_mass,
    audit_hypotheses,
    averaged_l2,
    averaged_projection_entropy,
    l2_of_projection,
)


def planar(n, pairs):
    atoms = dict(pairs)
    return DiscreteMeasure(2, n, atoms, sum(atoms.values()))


def slope_measure(n, ks):
    atoms = {k: 1 for k in ks}
    return DiscreteMeasure(1, n, atoms, len(atoms))


# ------------------------------------------------------------ two-path norm


def test_l2_point_mass_is_inverse_delta():
    mu = planar(5, {(3, 17): 1})
    assert l2_of_projection(mu, Fraction(1, 2)) == 1 << 5


def test_l2_uniform_row_c_zero_is_one():
    n = 6
    mu = planar(n, {(kx, 0): 1 for kx in range(1 << n)})
    assert l2_of_projection(mu, 0) == 1


def test_l2_three_atom_frozen():
    # cells at c = 1/2: (0,0) -> 0, (1,2) -> 2, (5,3) -> 6; masses 1/4, 1/4, 1/2
    # value = 8 * (1/16 + 1/16 + 1/4) = 3
    mu = planar(3, {(0, 0): 1, (1, 2): 1, (5, 3): 2})
    assert l2_of_projection(mu, Fraction(1, 2)) == 3


def test_pair_routes_exact_past_the_old_size_limit():
    # 2**14 atoms, past the 10**4 where the pair scans used to stop: the near
    # mass is the product of the factors', (3m - 2) / m**2 for m consecutive cells
    m, n = 128, 10
    mu = product_measure(counting_measure(gen_ap(n, m, step=1)),
                         counting_measure(gen_ap(n, m, step=1, start=5)))
    assert mu.support_size() == 1 << 14
    assert _near_mass(mu) == Fraction(3 * m - 2, m * m) ** 2
    assert l2_of_projection(mu, 0) == (1 << n) // m  # m x-cells of mass 1/m


@st.composite
def planar_measures(draw):
    n = draw(st.integers(2, 6))
    count = draw(st.integers(1, min(20, 1 << n)))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    nums = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    return DiscreteMeasure(2, n, dict(zip(keys, nums)), sum(nums))


@given(planar_measures(), st.data())
@settings(max_examples=150)
def test_l2_two_paths_and_range(mu, data):
    q = data.draw(st.integers(0, mu.n))
    p = data.draw(st.integers(-(1 << q), 1 << q))
    value = l2_of_projection(mu, Fraction(p, 1 << q))
    density = Fraction(value, 1 << mu.n)  # sum of squared cell masses
    assert Fraction(1, len(mu.atoms)) <= density <= 1


# -------------------------------------------------------------------- audits


def brick(n, a_step, b_step):
    """Uniform product of two on-grid arithmetic progressions."""
    a = counting_measure(gen_ap(n, (1 << n) // a_step, a_step))
    b = counting_measure(gen_ap(n, (1 << n) // b_step, b_step))
    return product_measure(a, b)


def test_audit_accepts_compliant_instance():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)  # |A| = 2**6, |B| = 2, gap 2**11
    nu = slope_measure(9, range(1 << 9))  # uniform, one atom per 2**-9 window
    params = ProjectionParams.from_cardinalities(
        n, 1 << 6, 2, 1 << 9, xi=Fraction(1, 8)
    )
    assert audit_hypotheses(mu, nu, params) == []


def test_audit_flags_each_hypothesis():
    n = 12
    params = ProjectionParams.from_cardinalities(
        n, 1 << 6, 2, 1 << 9, xi=Fraction(1, 8)
    )
    nu = slope_measure(9, range(1 << 9))

    heavy = planar(n, {(0, 0): 63, (1, 1 << 11): 1})
    heavy_fails = audit_hypotheses(heavy, nu, params)
    assert "cell-mass" in heavy_fails

    crowded = brick(n, 1 << 6, 1 << 9)  # y-gap 2**9 < 2**10.5 + 1
    assert audit_hypotheses(crowded, nu, params) == ["separation"]

    mu = brick(n, 1 << 6, 1 << 11)
    lumpy_nu = DiscreteMeasure(1, 9, {0: 511, 5: 1}, 512)
    assert audit_hypotheses(mu, lumpy_nu, params) == ["nu-mass"]


def test_averaged_l2_singleton_fitted_constant_one():
    n = 8
    mu = planar(n, {(7, 3): 1})
    nu = slope_measure(n, [0, 1 << (n - 1), 1 << n])
    params = ProjectionParams(0, 0, Fraction(1, n), Fraction(1, n))
    rep = averaged_l2(mu, nu, params)
    assert rep.average == 1 << n
    assert rep.fitted == pytest.approx(1.0)
    assert rep.audit_failures == ()


def test_averaged_l2_strict_refuses_and_exploratory_reports():
    n = 12
    crowded = brick(n, 1 << 6, 1 << 9)
    nu = slope_measure(9, range(1 << 9))
    params = ProjectionParams.from_cardinalities(
        n, 1 << 6, 1 << 3, 1 << 9, xi=Fraction(1, 8)
    )
    with pytest.raises(ValueError, match="separation"):
        averaged_l2(crowded, nu, params)
    rep = averaged_l2(crowded, nu, params, strict=False)
    assert rep.audit_failures == ("separation",)


def test_averaged_l2_point_slope_matches_marginal():
    n = 8
    mu = brick(n, 1 << 4, 1 << 7)
    nu = DiscreteMeasure(1, n, {0: 1}, 1)  # point mass at c = 0
    params = ProjectionParams(
        Fraction(1, 2), Fraction(1, 8), Fraction(1, n), Fraction(1, n)
    )
    rep = averaged_l2(mu, nu, params, strict=False)
    marginal = project(mu, 0)
    assert rep.average == discretize_density_l2(marginal, n)


def test_averaged_l2_regular_family_fitted_budget():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)
    nu = slope_measure(9, range(1 << 9))
    params = ProjectionParams.from_cardinalities(
        n, 1 << 6, 2, 1 << 9, xi=Fraction(1, 8)
    )
    rep = averaged_l2(mu, nu, params)
    assert rep.fitted <= 2.0**10
    data = rep.to_dict()
    assert len(data["per_c"]) == 1 << 9
    assert data["audit_failures"] == []


def test_both_averages_share_one_read_of_the_slopes(monkeypatch):
    # 2**12 atoms and 8 slopes are 2**15 atom-slope rows: averaged_l2 reads
    # them in two kernel passes of 2**14 rows, and the entropy form that
    # follows reads the memo, with no pass at all
    from dyadic import measures

    mu = brick(12, 1 << 6, 1 << 6)
    nu = slope_measure(3, [-8, -5, -2, 0, 1, 3, 6, 8])
    params = ProjectionParams(0, 0, 1, 1)
    passes = []
    real = measures._cell_counts
    monkeypatch.setattr(measures, "_cell_counts", lambda *args: passes.append(1) or real(*args))
    rep = averaged_l2(mu, nu, params, strict=False)
    assert mu.support_size() == 1 << 12 and len(rep.per_c) == 8
    assert len(passes) == -(-8 // ((1 << 14) // (1 << 12))) == 2
    ent = averaged_projection_entropy(mu, nu, params, strict=False)
    assert len(passes) == 2
    assert list(rep.per_c) == [(c, v) for c, _, v in ent.per_c]


# ------------------------------------------------------------- entropy form


def test_entropy_average_trivial_point_masses():
    n = 6
    mu = planar(n, {(9, 33): 1})
    nu = DiscreteMeasure(1, n, {1 << (n - 1): 1}, 1)
    # a point mass in one slope window forces the constant C = Delta**-gamma
    params = ProjectionParams(0, 0, Fraction(1, n), Fraction(1, n), big_c=2)
    rep = averaged_projection_entropy(mu, nu, params)
    assert rep.value == 0.0
    assert rep.rhs <= 0.0
    assert rep.jensen_lhs >= rep.jensen_rhs - 1e-9


def test_entropy_average_shaped_instance_with_low_block():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)
    nu = slope_measure(9, range(1 << 9))
    params = ProjectionParams.from_cardinalities(
        n, 1 << 6, 2, 1 << 9, xi=Fraction(1, 8)
    )
    low = LowBlockShape(
        r_a=1 << 6,
        bits=n,
        xi=Fraction(1, 16),
        zeta=Fraction(1, 2),
        gamma=Fraction(3, 4),
        big_gamma=Fraction(1, 2),
    )
    rep = averaged_projection_entropy(mu, nu, params, low=low)
    assert rep.slack >= 0
    assert rep.slack_low is not None and rep.slack_low >= 0
    # the branching form reads off the block: log2(64) plus the gain term
    assert rep.rhs_low == pytest.approx(6 + 12 / 32 - math.log2(40) - 10)


def test_entropy_average_low_block_consistency_errors():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)
    nu = slope_measure(9, range(1 << 9))
    params = ProjectionParams.from_cardinalities(
        n, 1 << 6, 2, 1 << 9, xi=Fraction(1, 8)
    )
    wrong_xi = LowBlockShape(
        r_a=1 << 6,
        bits=n,
        xi=Fraction(1, 32),
        zeta=Fraction(1, 2),
        gamma=Fraction(3, 4),
        big_gamma=Fraction(1, 2),
    )
    with pytest.raises(ValueError, match="separation exponent"):
        averaged_projection_entropy(mu, nu, params, low=wrong_xi)
    wrong_r = LowBlockShape(
        r_a=1 << 5,
        bits=n,
        xi=Fraction(1, 16),
        zeta=Fraction(1, 2),
        gamma=Fraction(3, 4),
        big_gamma=Fraction(1, 2),
    )
    with pytest.raises(ValueError, match="branching count"):
        averaged_projection_entropy(mu, nu, params, low=wrong_r)


def test_entropy_report_roundtrips_to_json(tmp_path):
    n = 6
    mu = brick(n, 1 << 3, 1 << 5)
    nu = slope_measure(4, range(1 << 4))
    params = ProjectionParams.from_cardinalities(n, 1 << 3, 2, 1 << 4, Fraction(1, 8))
    rep = averaged_projection_entropy(mu, nu, params, strict=False)
    path = tmp_path / "report.json"
    write_json(rep, path)
    import json

    back = json.loads(path.read_text())
    assert back["slack"] == pytest.approx(rep.slack)
    assert len(back["per_c"]) == 1 << 4


# ---------------------------------------------------- near/far decomposition


def test_near_pair_mass_frozen():
    mu = planar(6, {(0, 0): 1, (1, 1): 1, (0, 2): 1, (20, 20): 1})
    # four diagonal pairs, and (1, 1) with each of (0, 0) and (0, 2) in both
    # orders; (0, 0) and (0, 2) are two cells apart
    assert _near_mass(mu) == Fraction(8, 16)


def test_near_pair_mass_budget_on_compliant_instance():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)
    # cell-mass hypothesis: each cell <= 2**-7, so 9 cells <= 9 * 2**-7
    assert _near_mass(mu) == Fraction(1, 1 << 7)  # no two atoms adjacent


def test_far_pair_masses_budget():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)
    nu = slope_measure(9, range(1 << 9))
    # g = 2**11: a window [c, c + 2**-10) holds one of nu's 2**9 equal atoms
    assert _far_mass(mu, nu) == Fraction(1, 1 << 9)
    # g = max(2, 1): windows [c, c + 1) hold 16 of the 33 slopes k / 16
    nu = slope_measure(4, range(-16, 17))
    assert _far_mass(planar(4, {(0, 0): 1, (5, 1): 1}), nu) == Fraction(16, 33)
    # one y-cell: no pair has |dy| >= 1, and no far pair shares a cell
    assert _far_mass(planar(4, {(0, 3): 1, (9, 3): 1}), nu) == 0


# -------------------------------------------------------------- tube geometry


def common_tube_c_set(p, q, n: int, lo: int = -1, hi: int = 1) -> list[Fraction]:
    """All dyadic slopes ``j / 2**n`` in [lo, hi] threading p and q through
    a common grid cell, by brute force in exact integers.  p and q are index
    pairs at resolution ``2**-n``."""
    (px, py), (qx, qy) = p, q
    return [Fraction(j, 1 << n) for j in range(lo << n, (hi << n) + 1)
            if ((px << n) + j * py) >> n == ((qx << n) + j * qy) >> n]


def test_common_tube_frozen_window():
    # floor(10) == floor(12 c) forces 12 c in [10, 11): c in {54..58}/64
    cs = common_tube_c_set((10, 0), (0, 12), 6, lo=0)
    assert cs == [Fraction(j, 64) for j in range(54, 59)]
    assert (cs[-1] - cs[0]) * 12 < 2  # inside an open interval of length 2/12


def test_common_tube_empty_for_horizontal_far_pair():
    assert common_tube_c_set((0, 7), (40, 7), 6) == []


GAPS = st.integers(-3, 3) | st.integers(-600, 600)  # the small gaps often


@given(st.integers(1, 8), st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
       st.tuples(GAPS, GAPS))
@settings(max_examples=300, deadline=None)
@example(6, (0, 12), (10, -12))
def test_far_lemma_by_brute_force(n, q, gap):
    # the two facts behind the far half of ``l2-near-far``, over every
    # dyadic slope j / 2**n in [-1, 1]
    (dx, dy), (qx, qy) = gap, q
    if abs(dx) <= 1 and abs(dy) <= 1:
        return  # a near pair
    cs = common_tube_c_set((qx + dx, qy + dy), q, n)
    if abs(dy) <= 1:
        assert cs == []
    else:  # within the open interval |dx + c*dy| < 1, of length 2/|dy|
        assert all(abs(dx + c * dy) < 1 for c in cs)
        assert not cs or (cs[-1] - cs[0]) * abs(dy) < 2


def scanned_separation_margin(n: int, radius_cells: int) -> float:
    """The least image-value gap, in cells, over every x-gap ``dx <= 2**n``
    and y-gap ``|dky| <= 1`` with ``dx**2 + dky**2 >= radius_cells**2``,
    against every slope ``j / 2**n`` in [-1, 1] (a ``2**n x 2**(n+1)``
    table per y-gap)."""
    scale = 1 << n
    js = np.arange(-scale, scale + 1, dtype=np.int64)
    worst = math.inf
    for dky in (-1, 0, 1):
        min_dx2 = radius_cells * radius_cells - dky * dky
        dx_lo = math.isqrt(min_dx2 - 1) + 1
        dxs = np.arange(dx_lo, scale + 1, dtype=np.int64)
        if dxs.size == 0:
            continue
        # |dx| and |j * dky| interact only through signs: the minimum of
        # |dx * 2**n + j * dky| over both signs of dx is attained with
        # opposite signs, so scanning positive dx suffices.
        gaps = np.abs(dxs[:, None] * scale - np.abs(js[None, :] * dky))
        worst = min(worst, float(gaps.min()) / scale)
    return worst


def test_vertical_separation_margin_exhaustive():
    # the first fact of the far half: a pair with |dy| <= 1 and |dx| >= 2 is
    # at least a cell apart at every slope, so it never shares a cell
    for n in range(1, 11):
        assert scanned_separation_margin(n, 2) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_vertical_separation_margin_closed_form_matches_the_scan(n):
    # the least admissible |dx| against the extreme slope leaves isqrt(r*r - 2) cells
    for r in range(2, 20):  # 2**n == r at (2, 4), (3, 8) and (4, 16)
        margin = math.inf if (1 << n) < r else math.isqrt(r * r - 2)
        assert scanned_separation_margin(n, r) == margin


# ------------------------------------------------------------ exact pair sums

# Numerators near 2**40 make the pair sums pass 2**63.
WIDE_PAIRS = {(0, 0): 1 << 40, (1, 0): (1 << 40) + 1, (0, 1): 3}


@pytest.mark.parametrize(
    "radius", [(1 << 31) - 1, 1 << 31, 1 << 44, (1 << 45) + 1, 1 << 62, 1 << 63, 1 << 64]
)
def test_near_pair_mass_exact_at_any_radius(radius):
    # atoms spread to this radius, clipped to the keys' limit: int64 gaps up
    # to 2**63 - 2 must not wrap, so only the three adjacent pairs are near
    r = min(radius, (1 << 62) - 1)
    atoms = {(0, 0): 1, (r, 0): 1, (r - 1, 1): 1, (-r, -r): 1, (1 - r, -r): 1,
             (r, r): 1, (r - 1, r): 1}
    near = sum(abs(px - qx) <= 1 and abs(py - qy) <= 1 for px, py in atoms for qx, qy in atoms)
    assert near == 7 + 2 * 3
    assert _near_mass(DiscreteMeasure(2, 62, atoms, 7)) == Fraction(near, 49)


def test_near_pair_mass_exact_at_the_key_limits():
    # gaps on both sides of 2**31 and past 2**44, and the widest pair the
    # keys allow (2**63 - 2): only the diagonal is near
    corner = (1 << 62) - 1
    atoms = {(0, 0): 1, (1 << 45, 0): 1, ((1 << 31) - 2, 1): 1, (-corner, -corner): 1,
             (corner, corner): 1, (corner - 1, corner): 1}
    mu = DiscreteMeasure(2, 62, atoms, 6)
    assert _near_mass(mu) == Fraction(6 + 2, 36)


def test_near_pair_mass_exact_past_int64_products():
    mu = DiscreteMeasure(2, 4, WIDE_PAIRS, sum(WIDE_PAIRS.values()))
    assert _near_mass(mu) == 1  # every pair lies in adjacent cells


def test_l2_pair_route_exact_past_int64_products():
    mu = DiscreteMeasure(2, 4, WIDE_PAIRS, sum(WIDE_PAIRS.values()))
    for c in (0, Fraction(1, 2), 1, -1):
        value = l2_of_projection(mu, c)  # routes agree, exactly
        cells: dict = {}
        for (kx, ky), w in WIDE_PAIRS.items():
            k = math.floor(kx + Fraction(c) * ky)
            cells[k] = cells.get(k, 0) + w
        expect = Fraction(sum(v * v for v in cells.values()) << 4, mu.denom**2)
        assert value == expect


def reference_pair_totals(mu, c):
    """Same-cell and near pair totals by the Fraction floor and a full N**2 scan."""
    atoms = list(mu.atoms.items())
    cells = [math.floor(kx + c * ky) for (kx, ky), _ in atoms]
    same = near = 0
    for ((xi, yi), wi), ci in zip(atoms, cells):
        for ((xj, yj), wj), cj in zip(atoms, cells):
            same += wi * wj if ci == cj else 0
            near += wi * wj if abs(xi - xj) <= 1 and abs(yi - yj) <= 1 else 0
    return same, near


@st.composite
def pair_scan_cases(draw):
    n = draw(st.integers(2, 10))
    width = draw(st.sampled_from([1, 2, 5, 1 << n]))  # width 1: one x, one cell at c = 0
    lo = draw(st.integers(-(1 << n), (1 << n) - width))
    coord = st.integers(lo, lo + width - 1)
    keys = draw(st.lists(st.tuples(coord, st.integers(-(1 << n), (1 << n) - 1)),
                         min_size=1, max_size=30, unique=True))
    wide = draw(st.booleans())  # numerators past 2**63: Python integers
    nums = draw(st.lists(st.integers(1, (1 << 70) if wide else 9),
                         min_size=len(keys), max_size=len(keys)))
    mu = DiscreteMeasure(2, n, dict(zip(keys, nums)), sum(nums))
    q = draw(st.sampled_from([0, 1, n, 70]))  # 70: the floor past int64
    c = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                              Fraction(draw(st.integers(-(1 << q), 1 << q)), 1 << q)]))
    return mu, c


@given(pair_scan_cases())
@settings(max_examples=200, deadline=None)
def test_windowed_pair_scans_match_the_full_scan(case):
    mu, c = case
    same, near = reference_pair_totals(mu, c)
    # the windowed same-cell total is certified equal to the bucket route
    assert l2_of_projection(mu, c) == Fraction(same << mu.n, mu.denom**2)
    assert _near_mass(mu) == Fraction(near, mu.denom**2)


def test_windowed_pair_scans_across_row_blocks():
    # 1,300 atoms: three row blocks whose windows overlap, and keys near
    # 2**61, where the projected floor takes Python integers
    rng = np.random.default_rng(11)
    for base in (0, 1 << 61):
        xs = base + rng.integers(0, 40, size=1300)
        ys = rng.integers(-40, 40, size=1300)
        atoms = dict(zip(zip(xs.tolist(), ys.tolist()), rng.integers(1, 9, size=1300).tolist()))
        mu = DiscreteMeasure(2, 62, atoms, sum(atoms.values()))
        xs, ys, ws = (np.array(v) for v in zip(*((x, y, w) for (x, y), w in atoms.items())))
        near = (abs(xs[:, None] - xs) <= 1) & (abs(ys[:, None] - ys) <= 1)
        assert _near_mass(mu) == Fraction(int(ws @ near @ ws), mu.denom**2)
        c = Fraction(-3, 8)
        cells = np.array([math.floor(x + c * y) for x, y in zip(xs.tolist(), ys.tolist())])
        same = int(ws @ (cells[:, None] == cells) @ ws)
        assert l2_of_projection(mu, c) == Fraction(same << mu.n, mu.denom**2)


def reference_near_far(mu, nu):
    """The nu-average of the projected L2 norms, and the near and far terms,
    by full scans over the atom pairs and nu's atoms in Fractions."""
    atoms = list(mu.atoms.items())
    slopes = sorted((Fraction(k, 1 << nu.n), Fraction(w, nu.denom)) for k, w in nu.atoms.items())
    average = near = Fraction(0)
    for (xi, yi), wi in atoms:
        for (xj, yj), wj in atoms:
            pair = Fraction(wi * wj, mu.denom**2)
            shared = sum(v for c, v in slopes if math.floor(xi + c * yi) == math.floor(xj + c * yj))
            average += pair * shared * (1 << mu.n)
            near += pair if abs(xi - xj) <= 1 and abs(yi - yj) <= 1 else 0
    ys = sorted({y for (_, y), _ in atoms})
    if len(ys) == 1:
        return average, near, Fraction(0)
    g = max(2, min(b - a for a, b in zip(ys, ys[1:])))
    far = max(sum(v for c, v in slopes if lo <= c < lo + Fraction(2, g)) for lo, _ in slopes)
    return average, near, far


@given(planar_measures(), st.data())
@settings(max_examples=100, deadline=None)
def test_l2_near_far_bound_against_the_full_scan(mu, data):
    m = data.draw(st.integers(1, 6))
    ks = data.draw(st.lists(st.integers(-(1 << m), 1 << m), min_size=1, max_size=12, unique=True))
    nums = data.draw(st.lists(st.integers(1, 5), min_size=len(ks), max_size=len(ks)))
    nu = DiscreteMeasure(1, m, dict(zip(ks, nums)), sum(nums))
    average, near, far = reference_near_far(mu, nu)
    assert (_near_mass(mu), _far_mass(mu, nu)) == (near, far)
    assert average <= (near + far) * (1 << mu.n)
    params = ProjectionParams(0, 0, 1, 1)
    # certified, audit failures or not
    assert averaged_l2(mu, nu, params, strict=False).average == average


def certificate_under_python_O(code: str) -> tuple[str, str, Fraction]:
    """Run ``code`` under ``python -O``; it prints the optimize flag, then
    the failed certificate's name and slack (or ``accepted 0``)."""
    src = str(Path(dyadic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    optimize, name, slack = out.stdout.split()
    return optimize, name, Fraction(slack)


def test_l2_dual_route_certifies_under_python_O():
    # the bucket route off by one unit of its squared-mass sum, 2**n / denom**2,
    # must fail the certificate, under -O too
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from dyadic import CertificateError, counting_measure, gen_ap, product_measure\n"
        "from dyadic import projections\n"
        "mu = product_measure(counting_measure(gen_ap(6, 8)), counting_measure(gen_ap(6, 4)))\n"
        "real = projections._slope_stats\n"
        "def off(*args):\n"
        "    return [(masses, hs, ssq + 1) for masses, hs, ssq in real(*args)]\n"
        "projections._slope_stats = off\n"
        "try:\n"
        "    projections.l2_of_projection(mu, Fraction(1, 4))\n"
        "    print(sys.flags.optimize, 'accepted', 0)\n"
        "except CertificateError as exc:\n"
        "    print(sys.flags.optimize, exc.name, exc.slack)\n"
    )
    assert certificate_under_python_O(code) == ("1", "l2-dual-route", -Fraction(1 << 6, 32**2))


def test_l2_near_far_certifies_under_python_O():
    # every slope's norm raised by 2**(n+1) puts the average past 2**n * (near + far),
    # since near and far are at most 1 each
    mu = product_measure(counting_measure(gen_ap(6, 8)), counting_measure(gen_ap(6, 4, step=3)))
    nu = slope_measure(3, [-8, -3, 0, 5])
    params = ProjectionParams(0, 0, 1, 1)
    average = averaged_l2(mu, nu, params, strict=False).average
    code = (
        "import sys\n"
        "from dyadic import CertificateError, ProjectionParams, counting_measure, gen_ap\n"
        "from dyadic import product_measure, projections\n"
        "from dyadic.measures import DiscreteMeasure\n"
        "a, b = counting_measure(gen_ap(6, 8)), counting_measure(gen_ap(6, 4, step=3))\n"
        "mu = product_measure(a, b)\n"
        "nu = DiscreteMeasure(1, 3, {-8: 1, -3: 1, 0: 1, 5: 1}, 4)\n"
        "real = projections.l2_of_projection\n"
        "projections.l2_of_projection = lambda mu, c: real(mu, c) + (2 << mu.n)\n"
        "try:\n"
        "    projections.averaged_l2(mu, nu, ProjectionParams(0, 0, 1, 1), strict=False)\n"
        "    print(sys.flags.optimize, 'accepted', 0)\n"
        "except CertificateError as exc:\n"
        "    print(sys.flags.optimize, exc.name, exc.slack)\n"
    )
    slack = (_near_mass(mu) + _far_mass(mu, nu)) * (1 << 6) - average - (2 << 6)
    assert slack < 0
    assert certificate_under_python_O(code) == ("1", "l2-near-far", slack)


def test_pair_routes_with_python_int_numerators():
    # a denominator past 2**63: numerators no longer fit int64 at all
    atoms = {(0, 0): (1 << 64) + 1, (1, 0): 5, (2, 1): 1 << 63}
    mu = DiscreteMeasure(2, 4, atoms, sum(atoms.values()))
    # every pair is near but (0, 0) with (2, 1), two cells apart in x
    far = 2 * atoms[0, 0] * atoms[2, 1]
    assert _near_mass(mu) == Fraction(mu.denom**2 - far, mu.denom**2)
    assert l2_of_projection(mu, 1) == Fraction(
        sum(w * w for w in atoms.values()) << 4, mu.denom**2
    )
