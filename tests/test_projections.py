"""Projection averages: two-path norms, hypothesis audits, tube geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic import DeltaSet, counting_measure, gen_ap, product_measure
from dyadic.experiments import write_json
from dyadic.measures import DiscreteMeasure, discretize_density_l2, project
from dyadic.projections import (
    LowBlockShape,
    ProjectionParams,
    audit_hypotheses,
    averaged_l2,
    averaged_projection_entropy,
    common_tube_c_set,
    far_pair_nu_masses,
    l2_of_projection,
    near_pair_mass,
    tube_diameter_ok,
    vertical_separation_margin,
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
    assert l2_of_projection(mu, Fraction(1, 2), check=True) == 1 << 5


def test_l2_uniform_row_c_zero_is_one():
    n = 6
    mu = planar(n, {(kx, 0): 1 for kx in range(1 << n)})
    assert l2_of_projection(mu, 0, check=True) == 1


def test_l2_three_atom_frozen():
    # cells at c = 1/2: (0,0) -> 0, (1,2) -> 2, (5,3) -> 6; masses 1/4, 1/4, 1/2
    # value = 8 * (1/16 + 1/16 + 1/4) = 3
    mu = planar(3, {(0, 0): 1, (1, 2): 1, (5, 3): 2})
    assert l2_of_projection(mu, Fraction(1, 2), check=True) == 3


def test_l2_pair_path_guard():
    n = 14
    mu = planar(n, {(k, 0): 1 for k in range(10_001)})
    with pytest.raises(ValueError):
        l2_of_projection(mu, 0, check=True)
    assert l2_of_projection(mu, 0) > 0  # auto mode skips the quadratic scan


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
    value = l2_of_projection(mu, Fraction(p, 1 << q), check=True)
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
    rep = averaged_l2(mu, nu, params, check=True)
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
    rep = averaged_l2(crowded, nu, params, strict=False, check=False)
    assert rep.audit_failures == ("separation",)


def test_averaged_l2_point_slope_matches_marginal():
    n = 8
    mu = brick(n, 1 << 4, 1 << 7)
    nu = DiscreteMeasure(1, n, {0: 1}, 1)  # point mass at c = 0
    params = ProjectionParams(
        Fraction(1, 2), Fraction(1, 8), Fraction(1, n), Fraction(1, n)
    )
    rep = averaged_l2(mu, nu, params, strict=False, check=True)
    marginal = project(mu, 0)
    assert rep.average == discretize_density_l2(marginal, n)


def test_averaged_l2_regular_family_fitted_budget():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)
    nu = slope_measure(9, range(1 << 9))
    params = ProjectionParams.from_cardinalities(
        n, 1 << 6, 2, 1 << 9, xi=Fraction(1, 8)
    )
    rep = averaged_l2(mu, nu, params, check=False)
    assert rep.fitted <= 2.0**10
    data = rep.to_dict()
    assert len(data["per_c"]) == 1 << 9
    assert data["audit_failures"] == []


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
    mu = planar(6, {(0, 0): 1, (0, 5): 1, (20, 20): 1})
    # near pairs: three diagonal plus (0,0)-(0,5) in both orders
    assert near_pair_mass(mu) == Fraction(5, 9)


def test_near_pair_mass_budget_on_compliant_instance():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)
    mass = near_pair_mass(mu)
    # cell-mass hypothesis: <= Delta**(gamma_a + gamma_b) * 441 < 2**9 * Delta**...
    assert mass <= Fraction(1, 1 << 7) * (1 << 9)


def test_far_pair_masses_budget():
    n = 12
    mu = brick(n, 1 << 6, 1 << 11)
    nu = slope_measure(9, range(1 << 9))
    masses = far_pair_nu_masses(mu, nu, xi=Fraction(1, 8), sample=300, rng=7)
    assert masses, "sampling found no far pairs on a spread-out instance"
    gamma, xi = Fraction(3, 4), Fraction(1, 8)
    budget = Fraction(1 << 9) * Fraction(2) ** (-int(n * (gamma - xi)))
    assert all(m <= budget for m in masses)


# -------------------------------------------------------------- tube geometry


def test_common_tube_frozen_window():
    # floor(10) == floor(12 c) forces 12 c in [10, 11): c in {54..58}/64
    cs = common_tube_c_set((10, 0), (0, 12), 6, lo=0)
    assert cs == [Fraction(j, 64) for j in range(54, 59)]
    assert tube_diameter_ok((10, 0), (0, 12), 6)


def test_common_tube_empty_for_horizontal_far_pair():
    assert common_tube_c_set((0, 7), (40, 7), 6) == []


def test_tube_diameter_brute_force_before_freezing():
    rng = np.random.default_rng(2)
    for n in (6, 8, 10):
        scale = 1 << n
        hits = 0
        for _ in range(200):
            p = (int(rng.integers(scale)), int(rng.integers(scale)))
            q = (int(rng.integers(scale)), int(rng.integers(scale)))
            dx, dy = p[0] - q[0], p[1] - q[1]
            if dx * dx + dy * dy < 100 or abs(dy) < 2:
                continue
            hits += bool(common_tube_c_set(p, q, n))
            assert tube_diameter_ok(p, q, n)
        assert hits, "no sampled far pair admitted a tube; audit was vacuous"


def test_vertical_separation_margin_exhaustive():
    for n in (4, 6, 8):
        margin = vertical_separation_margin(n)
        assert margin >= 1.0
    # at n = 8 the minimum is dx = 10 against the extreme slope: 10 - 1
    assert vertical_separation_margin(8) == pytest.approx(9.0)
