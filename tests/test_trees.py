"""Branching profiles and tree surgeries.

Frozen expected values were worked out on paper first; the hypothesis
properties restate the operations' cardinality and separation contracts.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadic import (
    BranchingProfile,
    DeltaSet,
    Interval,
    IntervalFamily,
    branching_profile_of,
    classify_low_high,
    collapse,
    collapse_suffixes,
    extend_intervals,
    find_low_level,
    gen_uniform_tree,
    level_min_gaps,
    lift_intervals,
    load_family,
    load_profile,
    polarisation_check,
    pow2_ge,
    pow2_le,
    prune_adjacent,
    save_family,
    save_profile,
    trivial_intervals,
    uniformize,
)
from dyadic import grid
from dyadic.grid import BudgetError, CertificateError, FormatError, _distinct, _run_starts, certify


@st.composite
def profiles(draw, max_m=3, max_levels=5):
    m = draw(st.integers(1, max_m))
    levels = draw(st.integers(1, max_levels))
    r = draw(
        st.lists(st.integers(1, 1 << m), min_size=levels, max_size=levels)
    )
    return BranchingProfile(m, tuple(r))


# ------------------------------------------------------------------ profiles


def test_profile_validation():
    with pytest.raises(ValueError):
        BranchingProfile(2, (5,))
    with pytest.raises(ValueError):
        BranchingProfile(2, ())
    p = BranchingProfile(2, (4, 1, 2))
    assert p.size() == 8
    assert p.block_product(1, 2) == 2


def test_coarsen():
    p = BranchingProfile(1, (2, 1, 2, 2))
    c = p.coarsen(2)
    assert c.m == 2 and c.r == (2, 4)
    with pytest.raises(ValueError):
        p.coarsen(3)


def test_uniformity_detection():
    # {0, 1/4, 3/4} branches unevenly at the bottom level
    A = DeltaSet.from_indices(2, [0, 1, 3])
    assert branching_profile_of(A, 1, 2) is None
    B = DeltaSet.from_indices(2, [0, 1])
    assert branching_profile_of(B, 1, 2) == BranchingProfile(1, (1, 2))


@given(profiles(), st.sampled_from(["left", "spread", "random", "spread-random"]))
@settings(max_examples=120)
def test_gen_tree_has_requested_profile(profile, placement):
    if placement.startswith("spread") and any(
        r > (1 << profile.m) // 2 for r in profile.r
    ):
        return
    rng = np.random.default_rng(7)
    A = gen_uniform_tree(profile, rng=rng, placement=placement)
    assert len(A) == profile.size()
    assert branching_profile_of(A, profile.m, profile.levels) == profile
    if placement.startswith("spread"):
        assert all(g >= 2 for g in level_min_gaps(A, profile.m, profile.levels))


@pytest.mark.parametrize("placement, slots", [("left", 0), ("spread", 0), ("random", 16)])
def test_gen_tree_refuses_past_the_byte_budget_before_allocating(monkeypatch, placement, slots):
    # 8 leaves under 4 last-level parents of 4 slots: 10 bytes a leaf, 16 a
    # parent and, for a random placement, 16 a slot
    profile = BranchingProfile(2, (2, 2, 2))
    needed = 10 * 8 + 16 * 4 + 16 * slots
    rng = np.random.default_rng(7)
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed - 1)
    with pytest.raises(BudgetError, match=f"^gen_uniform_tree needs {needed} bytes"):
        gen_uniform_tree(profile, rng, placement)
    monkeypatch.setattr(grid, "SUMSET_BYTE_BUDGET", needed)
    assert len(gen_uniform_tree(profile, rng, placement)) == 8


# ---------------------------------------------------------------- uniformize


def test_uniformize_frozen_small_case():
    # Full grid at n=3 minus its last point; bottom-up greedy keeps {0..3}.
    A = DeltaSet.from_indices(3, range(7))
    out, profile = uniformize(A, 1, 3)
    assert out.indices.tolist() == [0, 1, 2, 3]
    assert profile == BranchingProfile(1, (1, 2, 2))


def test_uniformize_guarantee_full_grid_minus_point():
    for n in (4, 6, 8):
        A = DeltaSet.from_indices(n, range((1 << n) - 1))
        out, _ = uniformize(A, 1, n)
        assert len(out) * 2**n >= len(A)


@st.composite
def rough_sets(draw):
    m = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 4))
    n = m * levels
    ks = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=50, unique=True)
    )
    return DeltaSet.from_indices(n, ks), m, levels


@given(rough_sets())
@settings(max_examples=150)
def test_uniformize_output_is_uniform_subset(args):
    A, m, levels = args
    out, profile = uniformize(A, m, levels)
    assert branching_profile_of(out, m, levels) == profile
    assert set(out.indices.tolist()) <= set(A.indices.tolist())
    assert len(out) * (2 * m) ** levels >= len(A)


# ------------------------------------------------------------------ collapse


def test_collapse_frozen_example():
    profile = BranchingProfile(2, (4, 2, 4))
    A = gen_uniform_tree(profile)
    assert len(A) == 32
    out, new_profile = collapse(A, profile, {1})
    assert len(out) == 16
    assert new_profile.r == (4, 1, 4)


def test_collapse_refuses_a_point_count_the_profile_does_not_divide():
    profile = BranchingProfile(2, (4, 2, 4))
    A = gen_uniform_tree(BranchingProfile(2, (3, 1, 3)))  # 9 points, r[0] = 4
    with pytest.raises(ValueError, match="not uniform with the given profile"):
        collapse(A, profile, {0})


@given(profiles(), st.data())
@settings(max_examples=120)
def test_collapse_exact_cardinality(profile, data):
    S = data.draw(st.sets(st.integers(0, profile.levels - 1)))
    rng = np.random.default_rng(3)
    A = gen_uniform_tree(profile, rng=rng, placement="random")
    out, new_profile = collapse(A, profile, S)
    drop = 1
    for s in S:
        drop *= profile.r[s]
    assert len(out) * drop == len(A)
    assert all(new_profile.r[s] == 1 for s in S)


# ------------------------------------------------------------------- pruning


def test_prune_adjacent_frozen_full_tree():
    profile = BranchingProfile(2, (4, 4))
    B = gen_uniform_tree(profile)
    out, new_profile = prune_adjacent(B, profile)
    assert out.indices.tolist() == [0, 2, 8, 10]
    assert new_profile.r == (2, 2)


def test_prune_adjacent_keeps_separated_set():
    profile = BranchingProfile(2, (2, 2))
    B = gen_uniform_tree(profile, placement="spread")
    out, new_profile = prune_adjacent(B, profile)
    assert out == B
    assert new_profile == profile


@given(profiles())
@settings(max_examples=120)
def test_prune_adjacent_contracts(profile):
    rng = np.random.default_rng(11)
    B = gen_uniform_tree(profile, rng=rng, placement="random")
    out, new_profile = prune_adjacent(B, profile)
    assert set(out.indices.tolist()) <= set(B.indices.tolist())
    assert all(g >= 2 for g in level_min_gaps(out, profile.m, profile.levels))
    assert len(out) << profile.levels >= len(B)
    for r_old, r_new in zip(profile.r, new_profile.r):
        assert r_new >= max(1, r_old // 2)


# The per-depth versions that the one-table grouping of ``_tree_levels``
# replaced, one depth and one parent at a time: the reference below.


def reference_depth_cells(idx, n, m, depth):
    cells = _distinct(idx >> (n - m * depth))
    return cells, _run_starts(cells >> m)


def reference_points_in(idx, shift, kept):
    keys = idx >> shift
    at = np.minimum(np.searchsorted(kept, keys), kept.size - 1)
    return idx[kept[at] == keys]


def reference_branching_profile_of(A, m, levels):
    out = []
    for depth in range(1, levels + 1):
        cells, starts = reference_depth_cells(A.indices, A.n, m, depth)
        counts = np.diff(starts, append=cells.size)
        r = int(counts[0])
        if not np.all(counts == r):
            return None
        out.append(r)
    return BranchingProfile(m, tuple(out))


def reference_level_min_gaps(B, m, levels):
    out = []
    for depth in range(1, levels + 1):
        cells, _ = reference_depth_cells(B.indices, B.n, m, depth)
        out.append(int(np.diff(cells).min()) if cells.size > 1 else 1 << (m * levels))
    return out


def reference_prune_adjacent(B, profile):
    m, n = profile.m, profile.n
    idx = B.indices
    kept_counts = []
    for depth in range(1, profile.levels + 1):
        cells, starts = reference_depth_cells(idx, n, m, depth)
        kept_per_parent = []
        for group in np.split(cells, starts[1:]):
            kept = [group[0]]
            for cell in group[1:].tolist():
                if cell >= kept[-1] + 2:
                    kept.append(cell)
            kept_per_parent.append(kept)
        take = min(len(k) for k in kept_per_parent)
        r = profile.r[depth - 1]
        certify("prune-kept-half", min(2 * take - r, r - take))
        kept = np.array([c for k in kept_per_parent for c in k[:take]], dtype=np.int64)
        idx = reference_points_in(idx, n - m * depth, kept)
        kept_counts.append(take)
    out = DeltaSet(n, idx, width=1)
    certify("prune-size", (len(out) << profile.levels) - len(B))
    new_profile = BranchingProfile(m, tuple(kept_counts))
    certify(
        "prune-profile",
        -int(reference_branching_profile_of(out, m, profile.levels) != new_profile),
    )
    certify("prune-gaps", min(reference_level_min_gaps(out, m, profile.levels)) - 2)
    return out, new_profile


def reference_collapse(A, profile, S):
    idx = A.indices
    for s in sorted(set(S)):
        cells, starts = reference_depth_cells(idx, profile.n, profile.m, s + 1)
        idx = reference_points_in(idx, profile.n - profile.m * (s + 1), cells[starts])
    return idx


def outcome(fn, *args):
    """What a call returns, or the certificate it fails."""
    try:
        return fn(*args)
    except CertificateError as exc:
        return "refused", exc.name


@st.composite
def placed_trees(draw):
    """A tree of any placement, m 1-3 and 1-6 levels, with a few points
    dropped now and then so that it need not be uniform."""
    placement = draw(st.sampled_from(["left", "random", "spread-random"]))
    m = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 6))
    top = 1 << (m - 1 if placement == "spread-random" else m)
    r = tuple(draw(st.lists(st.integers(1, top), min_size=levels, max_size=levels)))
    profile = BranchingProfile(m, r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = gen_uniform_tree(profile, rng=rng, placement=placement)
    drop = draw(st.sampled_from([0, 0, 1, 3]))
    if drop and len(B) > drop:
        keep = np.sort(rng.choice(len(B), len(B) - drop, replace=False))
        B = DeltaSet(B.n, B.indices[keep], width=1)
    return B, profile


@given(placed_trees())
@settings(max_examples=300, deadline=None)
@example((gen_uniform_tree(BranchingProfile(2, (4, 4))), BranchingProfile(2, (4, 4))))
@example((DeltaSet(4, [0, 1, 2, 5, 6, 7, 9]), BranchingProfile(2, (2, 3))))
def test_table_grouping_matches_the_per_depth_reference(tree):
    B, profile = tree
    m, levels = profile.m, profile.levels
    assert branching_profile_of(B, m, levels) == reference_branching_profile_of(B, m, levels)
    assert level_min_gaps(B, m, levels) == reference_level_min_gaps(B, m, levels)
    got, want = outcome(prune_adjacent, B, profile), outcome(reference_prune_adjacent, B, profile)
    assert got == want
    if reference_branching_profile_of(B, m, levels) == profile:
        S = [s for s in range(levels) if B.indices[-1] >> s & 1]  # levels the tree picks
        out, _ = collapse(B, profile, S)
        assert out.indices.tolist() == reference_collapse(B, profile, S).tolist()


def test_prune_adjacent_refuses_a_resolution_or_width_mismatch():
    with pytest.raises(ValueError, match="resolution does not match m \\* levels"):
        prune_adjacent(DeltaSet(4, [0, 3, 8, 11]), BranchingProfile(2, (2, 2, 2)))
    with pytest.raises(ValueError, match="uniformity is defined for sets inside"):
        prune_adjacent(DeltaSet(4, [0, 3, 16, 19], width=2), BranchingProfile(2, (2, 2)))
    with pytest.raises(ValueError, match="resolution does not match m \\* levels"):
        uniformize(DeltaSet(4, [0, 3, 8, 11]), 2, 3)
    with pytest.raises(ValueError, match="uniformity is defined for sets inside"):
        uniformize(DeltaSet(4, [0, 3, 16, 19], width=2), 2, 2)


# ---------------------------------------------------------- level intervals


def test_trivial_intervals_frozen():
    p = BranchingProfile(2, (4, 1, 1, 4, 1))
    fam = trivial_intervals(p)
    assert [(iv.lo, iv.hi) for iv in fam] == [(1, 2), (4, 4)]
    assert all(iv.tag == "trivial" for iv in fam)
    assert trivial_intervals(BranchingProfile(2, (4, 4))).intervals == ()


def test_lift_intervals():
    fam = IntervalFamily((Interval(0, 0, "trivial"), Interval(2, 3, "trivial")))
    lifted = lift_intervals(fam, 3)
    assert [(iv.lo, iv.hi) for iv in lifted] == [(0, 2), (6, 11)]


def test_family_rejects_overlap():
    with pytest.raises(ValueError):
        IntervalFamily((Interval(0, 2, "trivial"), Interval(2, 3, "trivial")))


# ----------------------------------------------------------------- extension


def test_extend_two_separate_case_a():
    # fine profile (2,2,1,1,2,2,1,1), zeta=1/2, ell=2: both runs extend to
    # length 4 with product 4 = 2**(zeta*1*4), stopping exactly at case (a)
    p = BranchingProfile(1, (2, 2, 1, 1, 2, 2, 1, 1))
    lifted = lift_intervals(trivial_intervals(p.coarsen(2)), 2)
    out = extend_intervals(p, lifted, Fraction(1, 2), ell=2)
    assert [(iv.lo, iv.hi, iv.tag) for iv in out] == [
        (0, 3, "case_a"),
        (4, 7, "case_a"),
    ]


def test_extend_case_b_at_zero():
    p = BranchingProfile(1, (2, 2, 1, 1, 1, 1, 2, 2))
    lifted = lift_intervals(trivial_intervals(p.coarsen(2)), 2)
    out = extend_intervals(p, lifted, Fraction(1, 2), ell=2)
    assert [(iv.lo, iv.hi, iv.tag) for iv in out] == [(0, 5, "case_b")]


def test_extend_mixed_cases():
    p = BranchingProfile(1, (1, 1, 2, 2, 1, 1, 2, 2))
    lifted = lift_intervals(trivial_intervals(p.coarsen(2)), 2)
    out = extend_intervals(p, lifted, Fraction(1, 2), ell=2)
    assert [(iv.lo, iv.hi, iv.tag) for iv in out] == [
        (0, 1, "case_b"),
        (2, 5, "case_a"),
    ]


def test_extend_swallows_entered_interval():
    # walking left from {3} passes through {1}; one output covers both
    p = BranchingProfile(1, (2, 1, 2, 1))
    lifted = IntervalFamily((Interval(1, 1, "trivial"), Interval(3, 3, "trivial")))
    out = extend_intervals(p, lifted, Fraction(1), ell=1)
    assert [(iv.lo, iv.hi, iv.tag) for iv in out] == [(0, 3, "case_b")]


def test_extend_rejects_bad_inputs():
    p = BranchingProfile(1, (2, 1, 1, 2))
    fam = IntervalFamily((Interval(1, 2, "trivial"),))
    with pytest.raises(ValueError):
        extend_intervals(p, fam, Fraction(1, 4), ell=2)  # ell*zeta < 1
    with pytest.raises(ValueError):
        extend_intervals(
            p, IntervalFamily((Interval(0, 1, "trivial"),)), Fraction(1, 2), ell=2
        )  # levels not trivial


@st.composite
def polarised_instances(draw):
    """Profile pairs with >= 1 trivial coarse block, plus (eta, zeta, ell)."""
    m = draw(st.integers(1, 3))
    ell = draw(st.integers(2, 4))
    blocks = draw(st.integers(2, 4))
    zeta = Fraction(1, draw(st.integers(1, ell)))
    eta = Fraction(draw(st.integers(1, 3)), 4)
    pattern = draw(
        st.lists(st.booleans(), min_size=blocks, max_size=blocks).filter(
            lambda bs: not all(bs)
        )
    )
    rb, ra = [], []
    for branching in pattern:
        for _ in range(ell):
            if branching:
                rb.append(draw(st.integers(2, 1 << m)))
                # polarised: A branches near-fully where B branches
                lo = 1
                while not pow2_le((1 - eta) * m, lo):
                    lo += 1
                ra.append(draw(st.integers(lo, 1 << m)))
            else:
                rb.append(1)
                ra.append(draw(st.integers(1, 1 << m)))
    return (
        BranchingProfile(m, tuple(ra)),
        BranchingProfile(m, tuple(rb)),
        eta,
        zeta,
        ell,
    )


@given(polarised_instances())
@settings(max_examples=150)
def test_extension_sandwich_property(args):
    profile_a, profile_b, eta, zeta, ell = args
    assert polarisation_check(profile_a, profile_b, eta) == []
    coarse = profile_b.coarsen(ell)
    lifted = lift_intervals(trivial_intervals(coarse), ell)
    out = extend_intervals(profile_b, lifted, zeta, ell)
    m = profile_b.m
    for iv in out:
        prod = profile_b.block_product(iv.lo, iv.hi)
        if iv.tag == "case_a":
            # the shortest-extension sandwich
            assert pow2_le(zeta * m * len(iv), prod)
            assert pow2_ge(2 * zeta * m * len(iv), prod)
        else:
            assert iv.lo == 0
            assert not pow2_le(zeta * m * len(iv), prod)
    # every input interval is covered by exactly one output interval
    for src in lifted:
        hits = [iv for iv in out if iv.lo <= src.lo and src.hi <= iv.hi]
        assert len(hits) == 1


# ------------------------------------------------------------ classification


def test_classify_low_high_frozen():
    fam = IntervalFamily((Interval(0, 7, "case_a"),))
    high_a = BranchingProfile(2, (4, 4, 4, 4, 2, 1, 1, 1))
    low_a = BranchingProfile(2, (4, 4, 4, 4, 1, 1, 1, 1))
    assert classify_low_high(fam, high_a, Fraction(1, 2)).intervals[0].tag == "high"
    assert classify_low_high(fam, low_a, Fraction(1, 2)).intervals[0].tag == "low"


def test_classify_passes_case_b_through():
    fam = IntervalFamily((Interval(0, 3, "case_b"),))
    p = BranchingProfile(1, (2, 2, 2, 2))
    out = classify_low_high(fam, p, Fraction(1, 2))
    assert out.intervals[0].tag == "case_b"


# ------------------------------------------------------- suffix collapsing


def test_collapse_suffixes_worked_instance():
    profile = BranchingProfile(2, (2, 2, 2, 2, 1, 1, 1, 1))
    B = gen_uniform_tree(profile, placement="spread")
    fam = IntervalFamily((Interval(0, 7, "low"),))
    out, new_profile, prefix = collapse_suffixes(B, profile, fam, Fraction(1, 4))
    assert prefix == {(0, 7): 2}
    assert new_profile.r == (2, 2, 1, 1, 1, 1, 1, 1)
    assert len(out) == 4
    # survivors inside the interval's top cell stay far apart: the set no
    # longer branches below depth 2, so leaf gaps are >= one depth-2 cell
    gaps = level_min_gaps(out, 2, 8)
    assert gaps[-1] >= (1 << 12) + 1


def test_collapse_suffixes_rejects_short_interval():
    profile = BranchingProfile(2, (2, 1, 1, 1))
    B = gen_uniform_tree(profile, placement="spread")
    fam = IntervalFamily((Interval(0, 3, "case_b"),))
    with pytest.raises(ValueError):
        collapse_suffixes(B, profile, fam, Fraction(1, 4))


# ------------------------------------------------------------- polarisation


def test_polarisation_check_flags_violation():
    pa = BranchingProfile(2, (2, 1, 4))
    pb = BranchingProfile(2, (4, 1, 2))
    # eta=1/2 requires R_A >= 2 wherever R_B > 1: satisfied
    assert polarisation_check(pa, pb, Fraction(1, 2)) == []
    # eta=1/4 requires R_A >= 2**1.5, i.e. >= 3: level 0 fails
    assert polarisation_check(pa, pb, Fraction(1, 4)) == [0]


def test_find_low_level():
    pa = BranchingProfile(2, (4, 2, 1))
    pb = BranchingProfile(2, (4, 1, 1))
    assert find_low_level(pa, pb, Fraction(1, 2)) == 1
    assert find_low_level(pa, pb, Fraction(1, 4)) == 2
    pb_full = BranchingProfile(2, (4, 4, 4))
    assert find_low_level(pa, pb_full, Fraction(1, 2)) is None


# ------------------------------------------------------------------------ io


def test_profile_roundtrip(tmp_path):
    p = BranchingProfile(3, (8, 1, 5))
    path = tmp_path / "p.json"
    save_profile(p, path)
    assert load_profile(path) == p


@pytest.mark.parametrize(
    "text",
    [
        '{"m": 2.9, "R": [1.7, "3", true]}',  # once read as m=2, R=(1, 3, 1)
        '{"m": 2, "R": [1, "3"]}',
        '{"m": true, "R": [1]}',
        '{"m": 2, "R": "12"}',
    ],
)
def test_load_profile_refuses_values_that_are_not_json_integers(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(FormatError, match="must be (an integer|a list), not ") as refused:
        load_profile(path)
    assert len(str(refused.value).splitlines()) == 1


@pytest.mark.parametrize(
    "interval",
    [
        '{"lo": 0.9, "hi": "5", "tag": "low"}',  # once read as Interval(0, 5, "low")
        '{"lo": 0, "hi": 5.0, "tag": "low"}',
        '{"lo": false, "hi": 2, "tag": "N_B"}',
    ],
)
def test_load_family_refuses_values_that_are_not_json_integers(tmp_path, interval):
    path = tmp_path / "f.json"
    path.write_text('{"intervals": [%s]}' % interval)
    with pytest.raises(FormatError, match="must be an integer, not ") as refused:
        load_family(path)
    assert len(str(refused.value).splitlines()) == 1


def test_family_roundtrip_uses_wire_tags(tmp_path):
    fam = IntervalFamily(
        (Interval(0, 1, "trivial"), Interval(2, 4, "case_a"), Interval(5, 5, "low"))
    )
    path = tmp_path / "f.json"
    save_family(fam, path)
    text = path.read_text()
    assert "N_B" in text and "N_plus_case_a" in text
    assert load_family(path) == fam
