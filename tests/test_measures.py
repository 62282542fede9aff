"""Measures and entropy: exact identities and their frozen oracles."""

import json
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
from dyadic import DeltaSet, gen_ap, gen_uniform_tree, grid, BranchingProfile
from dyadic.grid import BudgetError, FormatError
from dyadic.measures import (
    ChainReport,
    DiscreteMeasure,
    LOG2_3,
    coarsen,
    conditional_entropy,
    counting_measure,
    discretize_density_l2,
    entropy,
    entropy_chain,
    load_measure,
    product_measure,
    project,
    renormalize_cell,
    save_measure,
    uniform_fiber_entropy_bound,
)
from dyadic.grid import dyadic_slope, sumset
from dyadic.measures import _chain_reports, _slope_stats

TOL = 2.0**-40


def measure1(n, pairs):
    atoms = dict(pairs)
    return DiscreteMeasure(1, n, atoms, sum(atoms.values()))


# ---------------------------------------------------------------- validation


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(1, 4, {0: 1, 1: 1}, 3)  # weights don't sum to 1
    with pytest.raises(ValueError):
        DiscreteMeasure(1, 4, {}, 1)
    with pytest.raises(ValueError):
        DiscreteMeasure(3, 4, {0: 1}, 1)
    with pytest.raises(ValueError):
        DiscreteMeasure(1, 4, {0: 0}, 0)


def test_from_weights_exact():
    mu = DiscreteMeasure.from_weights(1, 4, {0: Fraction(1, 3), 5: Fraction(2, 3)})
    assert mu.denom == 3
    assert mu.weight(5) == Fraction(2, 3)
    with pytest.raises(ValueError):
        DiscreteMeasure.from_weights(1, 4, {0: Fraction(1, 2), 1: Fraction(1, 3)})


# ----------------------------------------------------------------- entropies


def test_entropy_frozen_values():
    mu = measure1(2, {0: 2, 1: 1, 2: 1})
    assert abs(entropy(mu, 2) - 1.5) < TOL
    assert entropy(mu, 0) == 0.0
    uniform8 = measure1(3, {k: 1 for k in range(8)})
    assert abs(entropy(uniform8, 3) - 3.0) < TOL
    assert abs(entropy(uniform8, 1) - 1.0) < TOL


@st.composite
def measures(draw, dim=1, max_n=8, max_atoms=24, signed=False):
    n = draw(st.integers(2, max_n))
    count = draw(st.integers(1, min(max_atoms, 1 << n)))
    lo = -(1 << n) if signed else 0
    if dim == 1:
        keys = draw(
            st.lists(
                st.integers(lo, (1 << n) - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    else:
        keys = draw(
            st.lists(
                st.tuples(
                    st.integers(lo, (1 << n) - 1), st.integers(lo, (1 << n) - 1)
                ),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    nums = draw(
        st.lists(st.integers(1, 50), min_size=count, max_size=count)
    )
    atoms = dict(zip(keys, nums))
    return DiscreteMeasure(dim, n, atoms, sum(atoms.values()))


@given(measures(), st.data())
@settings(max_examples=200)
def test_conditional_entropy_dual_route(mu, data):
    coarse = data.draw(st.integers(0, mu.n))
    fine = data.draw(st.integers(coarse, mu.n))
    direct = conditional_entropy(mu, fine, coarse)
    chain = entropy(mu, fine) - entropy(mu, coarse)
    assert abs(direct - chain) <= TOL
    assert direct >= -TOL


@given(measures(dim=2, max_n=6), st.data())
@settings(max_examples=120)
def test_conditional_entropy_dual_route_planar(mu, data):
    coarse = data.draw(st.integers(0, mu.n))
    fine = data.draw(st.integers(coarse, mu.n))
    direct = conditional_entropy(mu, fine, coarse)
    chain = entropy(mu, fine) - entropy(mu, coarse)
    assert abs(direct - chain) <= TOL


@given(measures())
@settings(max_examples=100)
def test_entropy_monotone_in_level(mu):
    values = [entropy(mu, j) for j in range(mu.n + 1)]
    for a, b in zip(values, values[1:]):
        assert a <= b + TOL
    assert values[-1] <= math.log2(len(mu.atoms)) + TOL


# --------------------------------------------------- coarsen / renormalize


def test_coarsen_and_renormalize():
    mu = measure1(2, {0: 1, 1: 1, 2: 2})
    co = coarsen(mu, 1)
    assert co.atoms == {0: 2, 1: 2}
    re = renormalize_cell(mu, 0, 1)
    assert re.n == 1 and re.atoms == {0: 1, 1: 1}
    with pytest.raises(ValueError):
        renormalize_cell(mu, 3, 1)  # empty cell


def test_l2_density_frozen():
    mu = measure1(4, {0: 1, 8: 1})
    # atoms in distinct cells at every level: 2**j * 2 * (1/2)**2 = 2**(j-1)
    for j in (1, 2, 3):
        assert discretize_density_l2(mu, j) == Fraction(1 << j, 2)
    point = measure1(4, {5: 1})
    assert discretize_density_l2(point, 4) == 16


def test_l2_density_separates_atoms_vs_collisions():
    together = measure1(3, {0: 1, 1: 1})
    apart = measure1(3, {0: 1, 4: 1})
    assert discretize_density_l2(together, 1) > discretize_density_l2(apart, 1)


# --------------------------------------------------------------- projection


def test_project_frozen_example():
    grid = counting_measure(DeltaSet.from_indices(1, [0, 1]))
    mu = product_measure(grid, grid)
    out = project(mu, 1)
    assert out.atoms == {0: 1, 1: 2, 2: 1}
    assert out.denom == 4


def test_product_measure_refuses_past_the_byte_budget_before_allocating(monkeypatch):
    a, b = counting_measure(gen_ap(8, 16)), counting_measure(gen_ap(8, 8))
    needed = 32 * 16 * 8  # 32 bytes an atom pair
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed - 1)
    with pytest.raises(BudgetError, match=f"^product_measure needs {needed} bytes"):
        product_measure(a, b)
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed)
    assert product_measure(a, b).support_size() == 16 * 8


def test_product_measure_charges_python_int_weights_by_their_digits(monkeypatch):
    # denominators 3 * 2**40 and 5 * 2**30 multiply to 15 * 2**70, 74 bits: the
    # weights are Python ints, 24 bytes and three 30-bit digits of 4 bytes each
    a = DiscreteMeasure.from_weights(1, 8, {k: Fraction(k + 1, 3 << 40) for k in range(16)}
                                     | {200: 1 - Fraction(136, 3 << 40)})
    b = DiscreteMeasure.from_weights(1, 8, {k: Fraction(1, 5 << 30) for k in range(8)}
                                     | {100: 1 - Fraction(8, 5 << 30)})
    assert a.denom * b.denom >= 1 << 63 and (a.denom * b.denom).bit_length() == 74
    needed = (32 + 24 + 4 * 3) * 17 * 9
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed - 1)
    with pytest.raises(BudgetError, match=f"^product_measure needs {needed} bytes"):
        product_measure(a, b)
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed)
    mu = product_measure(a, b)
    assert mu.support_size() == 17 * 9 and mu.denom == a.denom * b.denom


def test_project_negative_c():
    grid = counting_measure(DeltaSet.from_indices(2, [0, 3]))
    mu = product_measure(grid, grid)
    out = project(mu, -1)
    assert out.atoms == {-3: 1, 0: 2, 3: 1}


@given(measures(dim=2, max_n=6), st.data())
@settings(max_examples=100)
def test_project_preserves_mass_and_caps_entropy(mu, data):
    q = data.draw(st.integers(0, mu.n))
    p = data.draw(st.integers(-(1 << q), 1 << q))
    c = Fraction(p, 1 << q)
    out = project(mu, c)
    assert out.denom == mu.denom
    assert sum(out.atoms.values()) == mu.denom
    assert entropy(out, out.n) <= entropy(mu, mu.n) + TOL


# ------------------------------------------------------------ entropy chain


def tree_measure(profile, placement="left", rng=None):
    return counting_measure(gen_uniform_tree(profile, rng=rng, placement=placement))


def test_chain_trivial_single_block():
    a = tree_measure(BranchingProfile(1, (2, 2, 1, 2)))
    b = tree_measure(BranchingProfile(1, (1, 2, 1, 1)))
    mu = product_measure(a, b)
    rep = entropy_chain(mu, Fraction(1, 2), [0, 4])
    assert rep.slack >= LOG2_3 - 1e-9  # single block: lhs equals the term


def test_chain_blocks_decompose_conditionally():
    # with c = 1 and aligned cuts the block terms reproduce the chain rule
    a = tree_measure(BranchingProfile(2, (4, 2)))
    b = tree_measure(BranchingProfile(2, (2, 1)), placement="spread")
    mu = product_measure(a, b)
    rep = entropy_chain(mu, 1, [0, 2, 4])
    assert rep.lhs >= rep.rhs - rep.correction - 1e-12


@st.composite
def chain_instances(draw):
    n = draw(st.integers(3, 6))
    atoms = draw(st.integers(2, 12))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
            min_size=atoms,
            max_size=atoms,
            unique=True,
        )
    )
    nums = draw(st.lists(st.integers(1, 9), min_size=atoms, max_size=atoms))
    mu = DiscreteMeasure(2, n, dict(zip(keys, nums)), sum(nums))
    q = draw(st.integers(0, n))
    p = draw(st.integers(0, 1 << q))
    cut_count = draw(st.integers(0, n - 1))
    interior = draw(
        st.lists(
            st.integers(1, n - 1),
            min_size=cut_count,
            max_size=cut_count,
            unique=True,
        )
    )
    cuts = [0] + sorted(interior) + [n]
    return mu, Fraction(p, 1 << q), cuts


@given(chain_instances())
@settings(max_examples=250, deadline=None)
def test_chain_holds_on_random_instances(args):
    mu, c, cuts = args
    rep = entropy_chain(mu, c, cuts)  # violation would assert inside
    assert rep.slack >= -2.0**-30


def test_chain_stress_misaligned_rescaling():
    """Adversarial hunt for the rescaling defect: fine-denominator c, short
    blocks, atoms straddling cell corners.  The per-block budget log2(3)
    must survive; a failure here means the correction constant is wrong and
    needs re-derivation, not loosening."""
    import numpy as np

    rng = np.random.default_rng(20240817)
    n = 6
    worst = math.inf
    for _ in range(400):
        atoms = {}
        for _k in range(rng.integers(2, 10)):
            # bias atoms toward cell corners at several scales
            scale = int(rng.integers(1, n))
            base = int(rng.integers(0, 1 << scale)) << (n - scale)
            jitter = int(rng.integers(-1, 2))
            kx = min(max(base + jitter, 0), (1 << n) - 1)
            ky = min(max(int(rng.integers(0, 1 << n)), 0), (1 << n) - 1)
            atoms[(kx, ky)] = atoms.get((kx, ky), 0) + int(rng.integers(1, 4))
        mu = DiscreteMeasure(2, n, atoms, sum(atoms.values()))
        p = int(rng.integers(0, (1 << n) // 2)) * 2 + 1  # odd: q stays maximal
        c = Fraction(p, 1 << n)
        interior = sorted(
            set(int(x) for x in rng.choice(np.arange(1, n), size=3, replace=False))
        )
        cuts = [0] + interior + [n]
        rep = entropy_chain(mu, c, cuts)
        worst = min(worst, rep.slack)
    assert worst >= -2.0**-30


# ---------------------------------------------------------------- fiber bound


def test_fiber_bound_full_product():
    a = tree_measure(BranchingProfile(1, (2, 2)))
    b = tree_measure(BranchingProfile(1, (2, 1)))  # leaves {0, 2}
    mu = product_measure(a, b)
    worst, bound = uniform_fiber_entropy_bound(mu, 1, 0, 2, math.log2(4))
    assert bound == 1.0
    assert worst >= bound - TOL


def test_fiber_bound_conditioned_blocks():
    pa = BranchingProfile(2, (4, 2, 4))
    pb = BranchingProfile(2, (2, 1, 2))
    mu = product_measure(
        tree_measure(pa), tree_measure(pb, placement="spread")
    )
    # condition on depth-1 squares (2 bits), look 4 bits further: the
    # A-branching over levels 1..2 is 2*4 = 8
    worst, bound = uniform_fiber_entropy_bound(
        mu, Fraction(3, 4), 2, 4, math.log2(8)
    )
    assert worst >= bound - TOL


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fiber_bound_random_tree_products(data):
    import numpy as np

    m = data.draw(st.integers(1, 2))
    levels = data.draw(st.integers(2, 4))
    ra = tuple(
        data.draw(st.integers(1, 1 << m)) for _ in range(levels)
    )
    rb = tuple(
        data.draw(st.integers(1, max(1, (1 << m) // 2))) for _ in range(levels)
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mu = product_measure(
        tree_measure(BranchingProfile(m, ra), rng=rng, placement="random"),
        tree_measure(BranchingProfile(m, rb), rng=rng, placement="spread-random"),
    )
    lo = data.draw(st.integers(0, levels - 1))
    hi = data.draw(st.integers(lo, levels - 1))
    q = data.draw(st.integers(0, m * levels))
    c = Fraction(data.draw(st.integers(0, 1 << q)), 1 << q)
    log2_ra = sum(math.log2(r) for r in ra[lo : hi + 1])
    worst, bound = uniform_fiber_entropy_bound(
        mu, c, m * lo, m * (hi - lo + 1), log2_ra
    )
    assert worst >= bound - TOL


# ------------------------------------------------------------------------ io


def test_measure_roundtrip_exact_thirds(tmp_path):
    mu = DiscreteMeasure.from_weights(
        1, 5, {0: Fraction(1, 3), 9: Fraction(1, 3), 31: Fraction(1, 3)}
    )
    path = tmp_path / "m.json"
    save_measure(mu, path)
    back = load_measure(path)
    assert back.atoms == mu.atoms and back.denom == mu.denom
    assert '"1/3"' in path.read_text()


def test_measure_roundtrip_planar(tmp_path):
    grid = counting_measure(DeltaSet.from_indices(2, [0, 3]))
    mu = product_measure(grid, grid)
    path = tmp_path / "m2.json"
    save_measure(mu, path)
    back = load_measure(path)
    assert back.dim == 2 and back.atoms == mu.atoms


# ------------------------------------------------- loader against Fraction


def reference_load(path):
    """The loader as a Fraction per atom and the Fraction-valued
    renormalisation of ``from_weights``; returns the measure or the reason
    of its refusal."""
    data = json.loads(Path(path).read_text())
    dim, n = data["dim"], data["n"]
    fracs = {}
    for i, (ks, w) in enumerate(data["atoms"]):
        if type(w) not in (str, int, float):  # null, a list, an object or a bool
            return f"atom {i}: the weight must be a string or a number, not {json.dumps(w)}"
        try:
            fracs[ks[0] if dim == 1 else tuple(ks)] = Fraction(w)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            return f"atom {i}: {exc}"
    total = sum(fracs.values())
    if total <= 0:
        return "total weight must be positive"
    if total != 1 and abs(total - 1) > Fraction(1, 1 << 40):
        return "weights must sum to 1 (within 2**-40)"
    scaled = {k: f / total for k, f in fracs.items()}
    den = math.lcm(*(f.denominator for f in scaled.values()))
    atoms = {k: f.numerator * (den // f.denominator) for k, f in scaled.items()}
    try:
        return DiscreteMeasure(dim, n, atoms, den)
    except ValueError as exc:
        return str(exc)


def reference_save(mu):
    """The bytes ``save_measure`` wrote from the atom dict, one Fraction per atom."""
    entries = []
    for key, num in sorted(mu.atoms.items()):
        w = Fraction(num, mu.denom)
        entries.append([[key] if mu.dim == 1 else list(key), f"{w.numerator}/{w.denominator}"])
    return json.dumps({"dim": mu.dim, "n": mu.n, "atoms": entries}) + "\n"


def weight_forms(draw, f):
    """One JSON form of the weight ``f`` that ``Fraction`` reads as ``f``."""
    p, q = f.numerator, f.denominator
    k = draw(st.integers(1, 4))  # unreduced when k > 1
    forms = [f"{p * k}/{q * k}", f"+{p * k}/{q * k}" if p >= 0 else f"{p}/{q}"]
    if q == 1:
        forms += [str(p), p]
    if q & (q - 1) == 0 and abs(p) < 1 << 53:
        forms.append(float(f))  # a JSON number, exact in binary
    digits = q.bit_length()  # 2**a * 5**b divides 10**digits when it is q
    if 10**digits % q == 0:
        scaled = abs(p) * 10**digits // q
        forms.append(f"{'-' if p < 0 else ''}{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}")
    return draw(st.sampled_from(forms))


# refused by Fraction (JSON Infinity with an OverflowError), or by type (null
# and a list), except the last four, which it reads as 1/2, 1/2, 10/3, 1/2
ODD_WEIGHTS = ["1/-2", "1/+2", "1/0", " 1 / 2", "--1/2", "+-1/2", "0/0", "1//2", "", "abc",
               None, [1], math.inf, " 1/2", "1/2\n", "1_0/3", "\u0661/\u0662"]
DEFECTS = [0, Fraction(1, 1 << 41), -Fraction(1, 3 << 40), Fraction(1, 1 << 40),
           -Fraction(1, 1 << 40), Fraction((1 << 10) + 1, 1 << 50), Fraction(1, 1 << 39),
           Fraction(1, 3), -Fraction(1, 7)]


@st.composite
def measure_files(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 8))
    count = draw(st.integers(1, 10))
    coord = st.integers(-(1 << n), (1 << n) - 1)
    keys = draw(st.lists(st.tuples(*[coord] * dim), min_size=count, max_size=count, unique=True))
    parts = draw(st.lists(st.one_of(st.integers(1, 9), st.integers(1, 1 << 70)),
                          min_size=count, max_size=count))
    weights = [Fraction(a, sum(parts)) for a in parts]  # past 2**63 with a wide part
    weights[-1] += draw(st.sampled_from(DEFECTS))
    forms = [weight_forms(draw, w) for w in weights]
    if draw(st.booleans()):
        forms[draw(st.integers(0, count - 1))] = draw(st.sampled_from(ODD_WEIGHTS))
    return {"dim": dim, "n": n, "atoms": [[list(k), w] for k, w in zip(keys, forms)]}


@given(measure_files())
@example({"dim": 2, "n": 3, "atoms": [[[-8, 5], f"{1 << 64}/{(1 << 64) + 3}"],
                                      [[2, -1], f"3/{(1 << 64) + 3}"]]})
@example({"dim": 1, "n": 2, "atoms": [[[-3], "0.25"], [[1], 0.5], [[2], "1/4"]]})
@settings(max_examples=300, deadline=None)
def test_integer_loader_matches_the_fraction_route(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("load") / "mu.json"
    path.write_text(json.dumps(data))
    ref = reference_load(path)
    if isinstance(ref, str):
        with pytest.raises(FormatError) as refused:
            load_measure(path)
        assert refused.value.reason == ref
        return
    mu = load_measure(path)
    assert mu == ref
    save_measure(mu, path)
    assert path.read_text() == reference_save(ref)  # columns, then Python-int gcd
    assert load_measure(path) == mu


def test_loading_builds_no_atom_dict(tmp_path, monkeypatch):
    from functools import cached_property

    built = []
    real_view = DiscreteMeasure.atoms.func
    view = cached_property(lambda mu: built.append(mu) or real_view(mu))
    view.__set_name__(DiscreteMeasure, "atoms")
    monkeypatch.setattr(DiscreteMeasure, "atoms", view)
    line = DiscreteMeasure.from_weights(1, 4, {-3: "1/3", 5: Fraction(1, 6), 9: 0.5})
    path = tmp_path / "mu.json"
    save_measure(product_measure(line, line), path)
    mu = load_measure(path)
    assert mu.support_size() == 9 and built == []
    assert mu.atoms and built == [mu]  # the counter sees a read


# ------------------------------------------- kernel against a dict reference


def reference_cells(mu, c, cell_level, bucket_level):
    """Per cell: mass and entropy of its rescaled projection, from dicts.

    Each level-``cell_level`` cell (the whole measure for None) is moved to
    the unit cell, projected with exact Fraction floors and bucketed at
    ``bucket_level``; the entropy formula is the one the library states.
    """
    c = Fraction(c)
    shift = mu.n - (cell_level or 0)
    cells: dict = {}
    for (kx, ky), w in mu.atoms.items():
        if cell_level is None:
            cell, lx, ly = None, kx, ky
        else:
            cell = (kx >> shift, ky >> shift)
            lx, ly = kx - (cell[0] << shift), ky - (cell[1] << shift)
        b = math.floor(lx + c * ly) >> (mu.n - bucket_level)
        sub = cells.setdefault(cell, {})
        sub[b] = sub.get(b, 0) + w
    out = []
    for sub in cells.values():
        m = sum(sub.values())
        s = math.fsum(b * math.log2(b) for b in sub.values() if b > 1)
        out.append((m, math.log2(m) - s / m))
    return out


def reference_chain(mu, c, cuts):
    ((_, lhs),) = reference_cells(mu, c, None, mu.n)
    terms = [
        math.fsum(m * h for m, h in reference_cells(mu, c, j, j_next)) / mu.denom
        for j, j_next in zip(cuts, cuts[1:])
    ]
    return lhs, terms


@st.composite
def weighted_chain_instances(draw):
    n = draw(st.integers(2, 8))
    count = draw(st.integers(1, 40))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    nums = draw(st.lists(st.integers(1, 1 << 20), min_size=count, max_size=count))
    mu = DiscreteMeasure(2, n, dict(zip(keys, nums)), sum(nums))
    interior = draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True))
    cuts = [0] + sorted(interior) + [n]
    q = draw(st.integers(0, n + 2))
    slopes = draw(
        st.lists(st.integers(-(1 << q), 1 << q), min_size=1, max_size=4, unique=True)
    )
    return mu, cuts, [Fraction(p, 1 << q) for p in slopes]


@given(weighted_chain_instances())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_dict_reference_bit_for_bit(args):
    from dyadic import ProjectionParams, averaged_projection_entropy

    mu, cuts, slopes = args
    for c in slopes:
        rep = entropy_chain(mu, c, cuts)
        lhs, terms = reference_chain(mu, c, cuts)
        assert rep.lhs == lhs
        assert list(rep.block_terms) == terms
        for j, j_next in zip(cuts, cuts[1:]):
            worst, _ = uniform_fiber_entropy_bound(mu, c, j, j_next - j, 0.0)
            assert worst == min(h for _, h in reference_cells(mu, c, j, j_next))
    ks = {int(c * (1 << mu.n)) for c in slopes if c * (1 << mu.n) % 1 == 0}
    if ks:
        nu = DiscreteMeasure(1, mu.n, {k: 1 for k in ks}, len(ks))
        half = Fraction(1, 2)
        report = averaged_projection_entropy(
            mu, nu, ProjectionParams(half, half, half, half), c0_bits=4.0 * mu.n, strict=False
        )
        for c, h, _ in report.per_c:
            assert h == reference_cells(mu, c, None, mu.n)[0][1]


@st.composite
def memo_instances(draw):
    """A measure, chain cuts and slopes with one repeated, whose keys may be
    negative and whose numerators may be Python integers (a denominator
    past 2**63)."""
    n = draw(st.integers(4, 10))
    count = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.choice(1 << (2 * n), size=count, replace=False)
    offset = (1 << (n - 1)) if draw(st.booleans()) else 0  # negative keys
    keys = zip((flat >> n).tolist(), ((flat & ((1 << n) - 1)) - offset).tolist())
    nums = rng.integers(1, 1 << 20, size=count).tolist()
    nums[0] += (1 << 64) if draw(st.booleans()) else 0
    mu = DiscreteMeasure(2, n, dict(zip(keys, nums)), sum(nums))
    q = draw(st.integers(0, n))
    ps = rng.integers(-(1 << q), (1 << q) + 1, size=draw(st.integers(1, 6))).tolist()
    cuts = [0] + sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) + [n]
    return mu, cuts, [Fraction(p, 1 << q) for p in ps + ps[:1]]


@given(memo_instances())
@settings(max_examples=40, deadline=None)
def test_batched_chain_reports_match_one_slope_entropy_chain(args):
    mu, cuts, slopes = args
    slopes = slopes + [float(slopes[0]), str(slopes[-1]), np.int64(slopes[0] >= 0)]
    reports, stats = _chain_reports(mu, slopes, cuts)
    pairs = list(zip(cuts, cuts[1:]))
    for c, rep, (_, *blocks) in zip(slopes, reports, stats):
        fresh = DiscreteMeasure(2, mu.n, mu.atoms, mu.denom)  # no memo shared
        assert rep == entropy_chain(fresh, c, cuts)
        assert type(rep.c.numerator) is int and type(rep.c.denominator) is int
        for (j, j_next), (_, hs, _) in zip(pairs, blocks):
            assert min(hs) == uniform_fiber_entropy_bound(fresh, c, j, j_next - j, 0.0)[0]


@given(memo_instances())
@settings(max_examples=40, deadline=None)
def test_memoised_results_match_fresh_passes(args):
    mu, cuts, slopes = args
    assert (mu._columns[1].dtype == object) == (mu.denom >= 1 << 63)
    assert mu._unit_keys == all(ky >= 0 for _, ky in mu.atoms)
    pairs = list(zip(cuts, cuts[1:]))
    for c in slopes:  # fill the memo; the repeated slope reads it back
        entropy_chain(mu, c, cuts)
        for j, j_next in pairs:
            uniform_fiber_entropy_bound(mu, c, j, j_next - j, 0.0)
        _slope_stats(mu, [dyadic_slope(c)], None, mu.n)
    for c in slopes:
        fresh = DiscreteMeasure(2, mu.n, mu.atoms, mu.denom)
        assert entropy_chain(mu, c, cuts) == entropy_chain(fresh, c, cuts)
        for j, j_next in pairs:
            assert uniform_fiber_entropy_bound(mu, c, j, j_next - j, 0.0) == (
                uniform_fiber_entropy_bound(fresh, c, j, j_next - j, 0.0)
            )
        assert _slope_stats(mu, [dyadic_slope(c)], None, mu.n) == (
            _slope_stats(fresh, [dyadic_slope(c)], None, mu.n)
        )
    # a negative key splits level 0 into several cells: the dict reference
    # groups them, so the whole-measure alias must not have fired
    rep = entropy_chain(mu, slopes[0], cuts)
    assert (rep.lhs, list(rep.block_terms)) == reference_chain(mu, slopes[0], cuts)


# ------------------------------------- batched kernel against one slope at a time


def reference_stats(mu, slope, cell_level, bucket_level):
    """The stats of one slope, one pass: each cell's mass numerator and
    entropy, and the sum of the squared bucket masses, from dicts, with
    each cell's ``sum b log2 b`` taken by ``fsum`` over its buckets.

    Cells come in key order; ``cell_level=None`` is the whole measure,
    unshifted; ``slope`` is ``(p, q)`` for ``c = p / 2**q``, or None.
    """
    cells: dict = {}
    for key, w in mu.atoms.items():
        key = key if mu.dim == 2 else (key,)
        cell, low = (), key
        if cell_level is not None:
            shift = mu.n - cell_level
            cell = tuple(k >> shift for k in key)
            low = tuple(k - (q << shift) for k, q in zip(key, cell))
        if slope is not None:
            p, q = slope
            low = (low[0] + ((p * low[1]) >> q),)
        bucket = tuple(k >> (mu.n - bucket_level) for k in low)
        sub = cells.setdefault(cell, {})
        sub[bucket] = sub.get(bucket, 0) + w
    masses, hs, ssq = [], [], 0
    for cell in sorted(cells):
        counts = list(cells[cell].values())
        m = sum(counts)
        masses.append(m)
        hs.append(math.log2(m) - math.fsum([b * math.log2(b) for b in counts]) / m)
        ssq += sum(b * b for b in counts)
    return masses, hs, ssq


@st.composite
def slope_batches(draw):
    """A fresh measure, a slope list and a level pair for ``_slope_stats``.

    1-d measures take the slope list ``[None]``; planar ones up to 70 slopes
    (repeats, None, both signs, mixed dyadic denominators, some past 63
    bits), so that a few hundred atoms cross the batch limit of 2**14
    atom-slope rows.  Keys may be negative, and range up to 2**62 so that
    the sort leaves the value route; numerators mix 1 with 2**40, so that
    some group sums pass 2**53, or a denominator passes 2**63.
    """
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.one_of(st.integers(2, 12), st.integers(40, 62)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 1 << n, size=(draw(st.integers(1, 400)), dim)).tolist()
    keys = list(dict.fromkeys(map(tuple, rows)))
    if draw(st.booleans()):  # negative keys: several level-0 cells
        keys = [(*k[:-1], k[-1] - (1 << (n - 1))) for k in keys]
    nums = [int(rng.integers(1, 1 << int(rng.integers(1, 41)))) for _ in keys]
    nums[0] += (1 << 64) if draw(st.booleans()) else 0
    atoms = dict(zip(keys if dim == 2 else [k for (k,) in keys], nums))
    mu = DiscreteMeasure(dim, n, atoms, sum(nums))
    slopes = [None]
    if dim == 2:
        slopes = []
        for _ in range(draw(st.integers(1, 70))):
            q = draw(st.one_of(st.integers(0, n + 2), st.just(70)))
            slopes.append(dyadic_slope(Fraction(draw(st.integers(-(1 << q), 1 << q)), 1 << q)))
        slopes += slopes[:1] + ([None] if draw(st.booleans()) else [])
    cell_level = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return mu, slopes, cell_level, draw(st.integers(cell_level or 0, n))


def _past_2_53(big, cell_level):
    # one count ``big`` among a thousand counts 1 to 3 in one group: the sum
    # of b log2 b in units of 2**-51 passes 2**53 by far, so the kernel takes
    # the exact route; 2**64 also makes the numerators Python ints
    atoms = {(x, x % 5): 1 + x % 3 for x in range(1, 1000)}
    atoms[0, 0] = big
    mu = DiscreteMeasure(2, 10, atoms, sum(atoms.values()))
    return mu, [None, (1, 1), (-3, 2), (1, 0)], cell_level, 10


@given(slope_batches())
@example(_past_2_53(1 << 40, None))
@example(_past_2_53(1 << 64, 1))
@settings(max_examples=60, deadline=None)
def test_batched_slope_stats_match_one_slope_at_a_time(case):
    mu, slopes, cell_level, bucket_level = case
    want = [reference_stats(mu, s, cell_level, bucket_level) for s in slopes]
    assert _slope_stats(mu, slopes, cell_level, bucket_level) == want
    assert _slope_stats(mu, slopes[::-1], cell_level, bucket_level) == want[::-1]  # memo reads


@st.composite
def slope_sumsets(draw):
    """Two sets of up to 60 points at n from 2 to 11 and a dyadic slope with
    |c| <= 1; A sits in [1, 2), so A + cB stays at or above 0 for c < 0."""
    n = draw(st.integers(2, 11))
    points = st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=60, unique=True)
    A = DeltaSet.from_indices(n, [(1 << n) + k for k in draw(points)])
    B = DeltaSet.from_indices(n, draw(points))
    q = draw(st.integers(0, n))
    return A, Fraction(draw(st.integers(-(1 << q), 1 << q)), 1 << q), B


@given(slope_sumsets())
@settings(max_examples=100, deadline=None)
def test_sumset_size_is_the_support_of_the_projected_product(args):
    # the sumset kernel of grid (five routes) against the sort-based measure kernel
    A, c, B = args
    pushed = project(product_measure(counting_measure(A), counting_measure(B)), c)
    assert len(sumset(A, c, B)) == pushed.support_size()


@given(slope_batches())
@settings(max_examples=30, deadline=None)
def test_project_and_coarsen_columns_match_the_sorted_dict_reference(case):
    # the columns come out in key order, as from the one-slope sort; an image
    # key past the 62-bit limit is refused, as the constructors refuse it
    mu, slopes, _, level = case
    level = max(level, 1)
    pushes = [None] + ([s for s in slopes[:3] if s] if mu.dim == 2 else [])
    for slope in pushes:
        ref: dict = {}
        for key, w in mu.atoms.items():
            key = key if mu.dim == 2 else (key,)
            if slope:
                key = (key[0] + ((slope[0] * key[1]) >> slope[1]),)
            else:
                key = tuple(k >> (mu.n - level) for k in key)
            ref[key] = ref.get(key, 0) + w
        image = (lambda: coarsen(mu, level)) if slope is None else (
            lambda: project(mu, Fraction(slope[0], 1 << slope[1]))
        )
        if any(abs(k) >= 1 << 62 for key in ref for k in key):
            with pytest.raises(ValueError, match="62-bit limit"):
                image()
            continue
        keys, nums = image()._columns
        assert [k.tolist() for k in keys] == [list(col) for col in zip(*sorted(ref))]
        assert nums.tolist() == [ref[k] for k in sorted(ref)]


# ------------------------------------------- the kernel against a plain sort


def reference_counts(mu, slopes, cell_level, bucket_level):
    """``_cell_counts`` by a plain sort: one row per (slope, atom) in Python
    integers, sorted by (slope, cell, bucket), then a sum per bucket.
    Returns the bucket masses, the first bucket of each (slope, cell) group
    and the bucket key columns."""
    keys, nums = mu._columns
    rows = []
    for i, slope in enumerate(slopes):
        for *key, num in zip(*(k.tolist() for k in keys), nums.tolist()):
            cell = ()
            if cell_level is not None:
                shift = mu.n - cell_level
                cell = tuple(k >> shift for k in key)
                key = [k - (q << shift) for k, q in zip(key, cell)]
            if slope is not None:
                key = [key[0] + ((slope[0] * key[1]) >> slope[1])]
            rows.append(((i, cell), tuple(k >> (mu.n - bucket_level) for k in key), num))
    rows.sort()
    counts, starts, buckets = [], [], []
    for j, (group, bucket, num) in enumerate(rows):
        if j and rows[j - 1][:2] == (group, bucket):
            counts[-1] += num
            continue
        if not j or rows[j - 1][0] != group:
            starts.append(len(counts))
        counts.append(num)
        buckets.append(bucket)
    return counts, starts, [list(col) for col in zip(*buckets)]


def _kernel_case(dim, n, keys, nums, slopes, cell_level, bucket_level):
    atoms = dict(zip(keys if dim == 2 else [k for k, _ in keys], nums))
    return DiscreteMeasure(dim, n, atoms, sum(atoms.values())), slopes, cell_level, bucket_level


def _grid_keys(count, spread, offset=0):
    return [((7 * i * spread) % (64 * spread) - offset, (i * i * spread) % (32 * spread) - offset)
            for i in range(count)]


# named cases, each forcing one route of the kernel: (case, packed key dtype,
# or None for the row-index route; payload bits; distinct counts by table)
KERNEL_CASES = {
    # equal numerators, several cells and slopes, an int32 key
    "equal-int32": (_kernel_case(2, 6, _grid_keys(40, 1), [1] * 40,
                                 [(1, 1), (-3, 2), (1, 0)], 2, 5), np.int32, 0, True),
    # unequal numerators, the least 3; a 1-d key of 40 bits, one count of 2**20
    "unequal-int64": (_kernel_case(1, 40, _grid_keys(30, 1 << 33), [3 + i for i in range(29)]
                                   + [1 << 20], [None], None, 40), np.int64, 20, False),
    # negative keys, a batch of five slopes over level-3 cells, numerators 1 to 3
    "negative-batch": (_kernel_case(2, 10, _grid_keys(60, 16, 512), [1 + i % 3 for i in range(60)],
                                    [(1, 2), (-1, 0), (5, 3), (-7, 4), (0, 0)], 3, 8),
                       np.int32, 2, True),
    # key plus one payload bit exactly at 31 bits, and one value past it
    "edge-int32": (_kernel_case(1, 30, [(0, 0), ((1 << 30) - 1, 0), (5, 0)], [1, 2, 2],
                                [None], None, 30), np.int32, 1, True),
    "edge-int64": (_kernel_case(1, 31, [(0, 0), (1 << 30, 0), (5, 0)], [1, 2, 2],
                                [None], None, 31), np.int64, 1, True),
    # key ranges of 2**31 and 2**32: a radix of exactly 2**63 takes the row-index route
    "radix-2**63": (_kernel_case(2, 62, [(0, 0), ((1 << 31) - 1, (1 << 32) - 1), (7, 1 << 20)],
                                 [1, 1, 1], [None], None, 62), None, None, True),
    # two 62-bit columns: key plus payload past 63 bits takes the row-index route
    "past-63-bits": (_kernel_case(2, 62, _grid_keys(20, 1 << 55, 1 << 61), range(1, 21),
                                  [None], None, 62), None, None, True),
    # a denominator past 2**63: Python-int numerators, level-0 cells split by
    # negative keys
    "python-ints": (_kernel_case(2, 8, _grid_keys(25, 4, 64), [1] * 24 + [1 << 64],
                                 [(1, 2), (-3, 3)], 0, 8), None, None, False),
}


@st.composite
def kernel_cases(draw):
    """A fresh measure, slopes, a cell level and a bucket level for one
    ``_cell_counts`` call: keys of up to 12 or of 40 to 62 bits, possibly
    negative; numerators all equal, small, up to 2**40 or past 2**63."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.one_of(st.integers(2, 12), st.integers(40, 62)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 60))
    keys = list(dict.fromkeys(map(tuple, rng.integers(0, 1 << n, size=(count, 2)).tolist())))
    if draw(st.booleans()):
        keys = [(x, y - (1 << (n - 1))) for x, y in keys]
    top = draw(st.sampled_from([1, 4, 1 << 40]))
    nums = rng.integers(1, top + 1, size=len(keys)).tolist()
    nums[0] += (1 << 64) if draw(st.booleans()) else 0
    slopes = [None]
    if dim == 2 and draw(st.booleans()):
        slopes = []
        for _ in range(draw(st.integers(1, 5))):
            q = draw(st.one_of(st.integers(0, n + 2), st.just(70)))
            slopes.append(dyadic_slope(Fraction(draw(st.integers(-(1 << q), 1 << q)), 1 << q)))
    cell_level = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    bucket_level = draw(st.integers(cell_level or 0, n))
    return _kernel_case(dim, n, keys, nums, slopes, cell_level, bucket_level)


@given(kernel_cases())
@example(KERNEL_CASES["equal-int32"][0])
@example(KERNEL_CASES["unequal-int64"][0])
@example(KERNEL_CASES["negative-batch"][0])
@example(KERNEL_CASES["edge-int32"][0])
@example(KERNEL_CASES["edge-int64"][0])
@example(KERNEL_CASES["radix-2**63"][0])
@example(KERNEL_CASES["past-63-bits"][0])
@example(KERNEL_CASES["python-ints"][0])
@settings(max_examples=150, deadline=None)
def test_cell_counts_match_a_plain_sort_and_sum(case):
    from dyadic.measures import _cell_counts, _cell_entropies

    mu, slopes, cell_level, bucket_level = case
    counts, starts, keys = _cell_counts(mu, slopes, cell_level, bucket_level)
    want_counts, want_starts, want_keys = reference_counts(*case)
    assert counts.tolist() == want_counts
    assert starts.tolist() == want_starts
    assert [k.tolist() for k in keys()] == want_keys
    groups = [want_counts[a:b] for a, b in zip(want_starts, want_starts[1:] + [None])]
    masses = [sum(g) for g in groups]
    hs = [math.log2(m) - math.fsum([b * math.log2(b) for b in g]) / m for m, g in zip(masses, groups)]
    assert _cell_entropies(counts, starts) == (masses, hs)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernel_examples_take_their_routes(name, monkeypatch):
    from dyadic import measures

    (mu, slopes, cell_level, bucket_level), dtype, bits, by_table = KERNEL_CASES[name]
    mu._cells(cell_level)  # the memoised cell grouping sorts rows of its own
    packs = []
    real = measures._pack
    monkeypatch.setattr(
        measures, "_pack", lambda cols, low, b: packs.append((real(cols, low, b), b)) or packs[-1][0]
    )
    counts, _, _ = measures._cell_counts(mu, slopes, cell_level, bucket_level)
    if dtype is None:  # Python-int numerators, or no packing: the row-index route
        assert mu._columns[1].dtype == object or packs[0][0] is None
    else:
        (packed, _), payload = packs[0]
        assert len(packs) == 1 and packed.dtype == dtype and payload == bits
    assert (counts.dtype != object and int(counts.max()) <= 4 * counts.size) == by_table


# ------------------------------------------------------- the kernel's domain


def test_measure_refuses_resolution_and_keys_past_62_bits():
    with pytest.raises(ValueError, match="62-bit"):
        DiscreteMeasure(1, 63, {0: 1}, 1)
    with pytest.raises(ValueError, match="62-bit"):
        DiscreteMeasure(1, 8, {1 << 70: 1}, 1)
    with pytest.raises(ValueError, match="62-bit"):
        DiscreteMeasure(2, 8, {(0, -(1 << 62)): 1}, 1)
    edge = DiscreteMeasure(2, 62, {((1 << 62) - 1, -((1 << 62) - 1)): 1}, 1)
    assert edge.support_size() == 1


def test_n62_fine_slope_takes_the_python_int_product():
    # p * ky reaches 2**123: the int64 product would wrap
    rng = np.random.default_rng(62)
    atoms = {
        (int(rng.integers(0, 1 << 40)), int(rng.integers(1 << 61, 1 << 62))): int(
            rng.integers(1, 100)
        )
        for _ in range(12)
    }
    mu = DiscreteMeasure(2, 62, atoms, sum(atoms.values()))
    c = Fraction(int(rng.integers(1 << 60, 1 << 61)) | 1, 1 << 62)
    pushed = project(mu, c)
    expect: dict = {}
    for (kx, ky), w in atoms.items():
        k = math.floor(kx + c * ky)
        expect[k] = expect.get(k, 0) + w
    assert pushed.atoms == expect
    cuts = [0, 20, 41, 62]
    rep = entropy_chain(mu, c, cuts)
    assert (rep.lhs, list(rep.block_terms)) == reference_chain(mu, c, cuts)


@pytest.mark.parametrize("top", [(1 << 62) + 3, (1 << 64) + 1])
def test_denominators_past_62_bits_run_exactly(top):
    atoms = {(0, 0): top, (3, 1): 1 << 40, (1, 2): 7, (2, 2): 7}
    mu = DiscreteMeasure(2, 4, atoms, sum(atoms.values()))
    assert mu.denom >= 1 << 62
    c = Fraction(-3, 4)
    expect: dict = {}
    for (kx, ky), w in atoms.items():
        k = math.floor(kx + c * ky)
        expect[k] = expect.get(k, 0) + w
    assert project(mu, c).atoms == expect
    assert coarsen(mu, 3).atoms == {(0, 0): top, (1, 0): 1 << 40, (0, 1): 7, (1, 1): 7}
    ssq = top * top + (1 << 80) + 49 + 49
    assert discretize_density_l2(mu, 4) == Fraction(ssq << 8, mu.denom**2)
    rep = entropy_chain(mu, c, [0, 2, 4])
    assert (rep.lhs, list(rep.block_terms)) == reference_chain(mu, c, [0, 2, 4])
    # each atom has a cell of its own in the plane, and a column of its own
    ((_, h),) = reference_cells(mu, 0, None, 4)
    assert entropy(mu, 4) == h


# ------------------------------------- column constructors against dicts


def assert_columns_match(got, dim, n, ref, denom):
    """``got`` equals the measure the dict ``ref`` describes: same atoms,
    and the same columns (int64 keys, numerators int64 below 2**63 and
    Python ints past it) as the mapping constructor stores."""
    assert (got.dim, got.n, got.denom) == (dim, n, denom)
    assert got.atoms == ref
    want = DiscreteMeasure(dim, n, ref, denom)
    assert all(k.dtype == np.int64 for k in got._columns[0])
    assert got._columns[1].dtype == (object if denom >= 1 << 63 else np.int64)
    for a, b in zip(got._sorted_columns(), want._sorted_columns()):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


_NUMS = st.one_of(st.integers(1, 50), st.integers(1 << 30, 1 << 40), st.integers(1 << 62, 1 << 66))


@st.composite
def line_measures(draw, n):
    signed = st.integers(-(1 << n), (1 << n) - 1)
    keys = draw(st.lists(signed, min_size=1, max_size=12, unique=True))
    nums = draw(st.lists(_NUMS, min_size=len(keys), max_size=len(keys)))
    return DiscreteMeasure(1, n, dict(zip(keys, nums)), sum(nums))


@st.composite
def column_cases(draw):
    """A grid set, two line measures, a cell level, an atom index (taken
    modulo the product's size) and a slope, all at one resolution."""
    n = draw(st.integers(2, 10))
    ks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True))
    q = draw(st.integers(0, n))
    c = Fraction(draw(st.integers(-(1 << q), 1 << q)), 1 << q)
    return (
        DeltaSet.from_indices(n, ks),
        draw(line_measures(n)),
        draw(line_measures(n)),
        draw(st.integers(1, n - 1)),
        draw(st.integers(0, 143)),
        c,
    )


# a wide measure (denominator past 2**63) whose cell (0, 0) at level 2 is
# narrow, and two int64-denominator factors whose product would wrap int64
_WIDE = DiscreteMeasure(1, 4, {-3: 1 << 64, 2: 5, 3: 7}, (1 << 64) + 12)
_NARROW = DiscreteMeasure(1, 4, {-16: (1 << 40) + 1, 5: 1 << 41}, (1 << 40) + 1 + (1 << 41))


@given(column_cases())
@example((DeltaSet.from_indices(4, [1, 9]), _WIDE, _WIDE, 2, 4, Fraction(-3, 4)))
@example((DeltaSet.from_indices(4, [0]), _NARROW, _NARROW, 1, 3, Fraction(1)))
@settings(max_examples=150, deadline=None)
def test_column_constructors_match_dict_references(case):
    A, mu, nu, j, i, c = case
    n = A.n
    assert_columns_match(counting_measure(A), 1, n, {k: 1 for k in A.indices.tolist()}, len(A))

    plane = product_measure(mu, nu)
    ref = {(ka, kb): wa * wb for ka, wa in mu.atoms.items() for kb, wb in nu.atoms.items()}
    assert_columns_match(plane, 2, n, ref, mu.denom * nu.denom)

    shift = n - j
    kx, ky = list(plane.atoms)[i % plane.support_size()]
    qx, qy = kx >> shift, ky >> shift
    cell = {
        (x - (qx << shift), y - (qy << shift)): w
        for (x, y), w in plane.atoms.items()
        if (x >> shift, y >> shift) == (qx, qy)
    }
    assert_columns_match(renormalize_cell(plane, (qx, qy), j), 2, shift, cell, sum(cell.values()))

    for measure in (mu, plane):
        coarse: dict = {}
        for key, w in measure.atoms.items():
            key = key >> shift if measure.dim == 1 else (key[0] >> shift, key[1] >> shift)
            coarse[key] = coarse.get(key, 0) + w
        assert_columns_match(coarsen(measure, j), measure.dim, j, coarse, measure.denom)

    image: dict = {}
    for (x, y), w in plane.atoms.items():
        k = math.floor(x + c * y)
        image[k] = image.get(k, 0) + w
    assert_columns_match(project(plane, c), 1, n, image, plane.denom)


def test_wide_product_and_narrow_cell_examples_reach_their_edge():
    assert _WIDE.denom >= 1 << 63 and _NARROW.denom < 1 << 63 <= _NARROW.denom**2
    cell = renormalize_cell(product_measure(_WIDE, _WIDE), (0, 0), 2)
    assert cell.denom == 25 + 35 + 35 + 49 and cell._columns[1].dtype == np.int64


@pytest.mark.parametrize(
    "atoms, denom, reason",
    [
        ({0: 1, 1: 0}, 1, "atom weights must be positive"),
        ({(3, 1 << 62): 1}, 1, "62-bit limit"),
        ({(-(1 << 62), 0): 1}, 1, "62-bit limit"),
        ({(0, 0): 1, (1, 1): 1}, 3, "weights must sum to exactly 1"),
        ({(0, 0): 1 << 64, (1, 1): 1}, 1 << 64, "weights must sum to exactly 1"),
    ],
)
def test_column_constructor_refuses_as_the_mapping_one(atoms, denom, reason):
    dim = 1 if isinstance(next(iter(atoms)), int) else 2
    with pytest.raises(ValueError, match=reason) as by_mapping:
        DiscreteMeasure(dim, 8, atoms, denom)
    keys = np.array(list(atoms), dtype=np.int64).reshape(len(atoms), dim).T
    nums = np.array(list(atoms.values()), dtype=object if denom >= 1 << 63 else np.int64)
    with pytest.raises(ValueError) as by_columns:
        DiscreteMeasure._from_columns(dim, 8, tuple(keys), nums, denom)
    assert str(by_columns.value) == str(by_mapping.value)


def test_column_built_and_mapping_built_measures_are_equal_in_any_order(tmp_path):
    line = DiscreteMeasure(1, 3, {0: 1, 5: 2, -2: 4}, 7)
    plane = product_measure(line, counting_measure(DeltaSet.from_indices(3, [1, 6])))
    shuffled = dict(reversed(list(plane.atoms.items())))
    assert DiscreteMeasure(2, 3, shuffled, plane.denom) == plane
    assert plane != DiscreteMeasure(2, 4, shuffled, plane.denom)
    weights = list(shuffled.values())
    swapped = dict(zip(shuffled, weights[1:] + weights[:1]))
    assert plane != DiscreteMeasure(2, 3, swapped, plane.denom)
    path = tmp_path / "plane.json"
    save_measure(plane, path)
    assert load_measure(path) == plane


# -------------------------------------------------------------- certificates


def test_certificates_survive_python_O():
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from dyadic import CertificateError, counting_measure, entropy_chain, gen_ap, product_measure\n"
        "from dyadic import measures\n"
        "mu = product_measure(counting_measure(gen_ap(8, 16)), counting_measure(gen_ap(8, 4)))\n"
        "measures.LOG2_3 = -100.0  # a chain charged -100 bits a block must fail\n"
        "try:\n"
        "    rep = entropy_chain(mu, Fraction(1, 4), [0, 4, 8])\n"
        "    print(sys.flags.optimize, 'accepted', rep.slack)\n"
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
    assert name == "entropy-chain" and float(slack) < -199
