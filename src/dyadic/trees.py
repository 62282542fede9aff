"""Branching structure of dyadic-grid sets and the surgeries on it.

A set at resolution ``2**-(m*L)`` is viewed as the leaves of a ``2**m``-ary
tree with ``L`` levels.  A set is *uniform* when, at every level, each
occupied cell has the same number of occupied children; the per-level child
counts form its branching profile.  The operations here extract uniform
subsets, collapse chosen levels to single children, thin children until
siblings are separated by at least one empty cell, and manipulate the level
intervals on which a profile is trivial (child count 1).

Every depth is grouped at once by ``_tree_levels``, from one table of the
points' cells at all the depths asked for.  The surgeries' cardinality
and branching claims are exact integer certificates (``grid.certify``,
kept by ``python -O``); thresholds ``2**(rational)`` are compared in
integers, never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, prod
from typing import Iterable

import numpy as np

from .grid import DeltaSet, FormatError, certify, load_json, pow2_ge, pow2_le, reserve
from .grid import _echo, _read, _read_list, _read_object, _save_json
from .grid import _pow2_cmp, _ratio, _run_heads, _run_lengths

__all__ = [
    "BranchingProfile",
    "Interval",
    "IntervalFamily",
    "branching_profile_of",
    "gen_uniform_tree",
    "uniformize",
    "collapse",
    "prune_adjacent",
    "level_min_gaps",
    "trivial_intervals",
    "lift_intervals",
    "extend_intervals",
    "classify_low_high",
    "collapse_suffixes",
    "polarisation_check",
    "find_low_level",
    "save_profile",
    "load_profile",
    "save_family",
    "load_family",
]

TAGS = ("trivial", "case_a", "case_b", "low", "high", "useless")

# Wire tokens for the interval-family file format (fixed interop contract).
_TAG_TO_WIRE = {
    "trivial": "N_B",
    "case_a": "N_plus_case_a",
    "case_b": "N_plus_case_b",
    "low": "low",
    "high": "high",
    "useless": "useless",
}
_WIRE_TO_TAG = {v: k for k, v in _TAG_TO_WIRE.items()}


@dataclass(frozen=True)
class BranchingProfile:
    """Per-level child counts of a uniform tree: ``r[s]`` children under each
    occupied cell at depth ``s``, with ``1 <= r[s] <= 2**m``."""

    m: int
    r: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        object.__setattr__(self, "r", tuple(int(x) for x in self.r))
        if not self.r:
            raise ValueError("profile needs at least one level")
        if any(not 1 <= x <= (1 << self.m) for x in self.r):
            raise ValueError("child counts must lie in [1, 2**m]")

    @property
    def levels(self) -> int:
        return len(self.r)

    @property
    def n(self) -> int:
        return self.m * len(self.r)

    def size(self) -> int:
        """Leaf count of any tree with this profile."""
        return prod(self.r)

    def block_product(self, lo: int, hi: int) -> int:
        """Product of child counts over levels ``lo..hi`` inclusive."""
        if not 0 <= lo <= hi < len(self.r):
            raise ValueError("block out of range")
        return prod(self.r[lo : hi + 1])

    def coarsen(self, ell: int) -> "BranchingProfile":
        """Profile of the same tree read ``ell`` levels at a time."""
        if ell < 1 or len(self.r) % ell:
            raise ValueError("ell must divide the number of levels")
        grouped = tuple(
            prod(self.r[i : i + ell]) for i in range(0, len(self.r), ell)
        )
        return BranchingProfile(self.m * ell, grouped)


@dataclass(frozen=True)
class Interval:
    """An inclusive range ``lo..hi`` of tree levels with a classification tag."""

    lo: int
    hi: int
    tag: str

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("need 0 <= lo <= hi")
        if self.tag not in TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")

    def __len__(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class IntervalFamily:
    """Pairwise-disjoint level intervals, kept sorted by left endpoint."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivs = tuple(sorted(self.intervals, key=lambda iv: iv.lo))
        object.__setattr__(self, "intervals", ivs)
        for a, b in zip(ivs, ivs[1:]):
            if b.lo <= a.hi:
                raise ValueError("intervals must be pairwise disjoint")

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)


def _tree_levels(
    idx: np.ndarray, n: int, m: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The occupied cells of sorted indices at every depth ``lo..hi``, in one pass.

    The table ``idx >> (n - m * d)``, one row per depth ``d = lo - 1..hi``,
    holds each point's cell.  A point opens a cell where its row changes,
    and opens a parent where the row one depth up changes.  Returns, over
    the occupied cells of depth ``lo``, then ``lo + 1`` and so on, each
    depth sorted: the ``cells``; ``opens``, whether a cell is its parent's
    first child; ``bounds``, the index of each depth's first cell and the
    total; and ``ids``, one row per depth ``lo..hi``, each point's index
    into ``cells``.
    """
    shifts = n - m * np.arange(lo - 1, hi + 1)
    table = idx >> shifts[:, None]
    new = _run_heads(table)
    first, parent = new[1:], new[:-1]
    ids = np.cumsum(first).reshape(first.shape) - 1
    bounds = np.concatenate(([0], ids[:, -1] + 1))
    return table[1:][first], parent[first], bounds, ids


def _check_tree(A: DeltaSet, m: int, levels: int) -> None:
    if A.n != m * levels:
        raise ValueError("resolution does not match m * levels")
    if A.width != 1:
        raise ValueError("uniformity is defined for sets inside [0, 1)")


def branching_profile_of(A: DeltaSet, m: int, levels: int) -> BranchingProfile | None:
    """The branching profile of A, or None when A is not uniform.

    Requires ``A.n == m * levels`` and A inside [0, 1).
    """
    _check_tree(A, m, levels)
    _, opens, bounds, _ = _tree_levels(A.indices, A.n, m, 1, levels)
    firsts = np.flatnonzero(opens)
    counts = _run_lengths(firsts, opens.size)  # children per parent, depth by depth
    per_depth = np.searchsorted(firsts, bounds)  # each depth's first parent, and the total
    r = counts[per_depth[:-1]]
    if not np.array_equal(counts, np.repeat(r, np.diff(per_depth))):
        return None
    return BranchingProfile(m, tuple(r.tolist()))


def _choose_offsets(
    r: int, m: int, parents: int, placement: str, rng: np.random.Generator | None
) -> np.ndarray:
    """(parents, r) array of child offsets, each row strictly increasing."""
    full = 1 << m
    if placement == "left":
        return np.broadcast_to(np.arange(r, dtype=np.int64), (parents, r))
    if placement == "spread":
        if r > full // 2:
            raise ValueError("spread placement needs r <= 2**(m-1)")
        return np.broadcast_to(2 * np.arange(r, dtype=np.int64), (parents, r))
    if placement in ("random", "spread-random"):
        if rng is None:
            raise ValueError("random placement needs an rng")
        slots = full if placement == "random" else full // 2
        if r > slots:
            raise ValueError("not enough slots for this placement")
        picks = np.argsort(rng.random((parents, slots)), axis=1)[:, :r]
        picks.sort(axis=1)
        offs = picks.astype(np.int64)
        return 2 * offs if placement == "spread-random" else offs
    raise ValueError(f"unknown placement {placement!r}")


def gen_uniform_tree(
    profile: BranchingProfile,
    rng: np.random.Generator | None = None,
    placement: str = "left",
) -> DeltaSet:
    """A set in [0, 1) whose branching profile is exactly ``profile``.

    ``placement`` controls where children sit inside each parent: ``left``
    packs them at the low end, ``spread`` uses even offsets only (so siblings
    are separated by an empty cell), and the ``random`` variants draw the
    positions per parent from ``rng``.
    """
    m = profile.m
    parents = profile.size() // profile.r[-1]  # the last level's, the most of any level
    slots = parents << m if placement in ("random", "spread-random") else 0
    # 10 bytes a leaf, 16 a last-level parent and 16 a slot of a random placement
    reserve(10 * profile.size() + 16 * (parents + slots), "gen_uniform_tree")
    cells = np.zeros(1, dtype=np.int64)
    for r in profile.r:
        offs = _choose_offsets(r, m, cells.size, placement, rng)
        cells = ((cells[:, None] << m) + offs).ravel()
    return DeltaSet(profile.n, cells, width=1)


def uniformize(A: DeltaSet, m: int, levels: int) -> tuple[DeltaSet, BranchingProfile]:
    """Extract a uniform subset keeping at least ``|A| / (2m)**levels`` points.

    Levels are processed bottom-up.  At each level the occupied parents are
    bucketed by the dyadic size class ``ceil(log2(child count))`` of their
    child counts; the bucket maximizing (#parents) * (min child count in the
    bucket) survives, and each surviving parent is truncated, leftmost
    first, to that minimum.  Bottom-up order matters: once deeper levels are
    uniform, every child of a surviving parent carries equal point mass, so
    the cell-count objective is the point-mass objective and each stage
    keeps at least a ``1/(2m)`` fraction (the size classes satisfy
    ``sum_k 2**k / f_k <= 2m``).
    """
    _check_tree(A, m, levels)
    original = len(A)
    idx = A.indices
    chosen = [0] * levels
    for depth in range(levels, 0, -1):
        cells, opens, _, ids = _tree_levels(idx, A.n, m, depth, depth)
        starts = np.flatnonzero(opens)
        counts = _run_lengths(starts, cells.size)
        # counts <= 2**m << 2**53, so float log2 + ceil is exact here
        buckets = np.where(counts == 1, 0, np.ceil(np.log2(counts)).astype(np.int64))
        best_k, best_score, best_take = -1, -1, 0
        for k in sorted(set(buckets.tolist())):
            sel = buckets == k
            take = int(counts[sel].min())
            score = int(sel.sum()) * take
            if score > best_score:
                best_k, best_score, best_take = int(k), score, take
        kept = np.zeros(cells.size, dtype=bool)
        kept[(starts[buckets == best_k][:, None] + np.arange(best_take)).ravel()] = True
        idx = idx[kept[ids[0]]]
        chosen[depth - 1] = best_take
    profile = BranchingProfile(m, tuple(chosen))
    out = DeltaSet(A.n, idx, width=1)
    certify("uniformize-size", len(out) * (2 * m) ** levels - original)
    certify("uniformize-profile", -int(branching_profile_of(out, m, levels) != profile))
    return out, profile


def collapse(
    A: DeltaSet, profile: BranchingProfile, S: Iterable[int]
) -> tuple[DeltaSet, BranchingProfile]:
    """Keep only the leftmost child at every level in S.

    A must be uniform with the given profile; the result is uniform with the
    collapsed levels' counts replaced by 1 and has exactly
    ``|A| / prod(r[s] for s in S)`` points.  A point count those counts do
    not divide cannot be uniform and raises ValueError before any level is
    collapsed.
    """
    m, n = profile.m, profile.n
    S = sorted(set(int(s) for s in S))
    if S and not 0 <= S[0] <= S[-1] < profile.levels:
        raise ValueError("collapse levels out of range")
    expected = len(A)
    for s in S:
        expected, rem = divmod(expected, profile.r[s])
        if rem:
            raise ValueError(f"input was not uniform with the given profile at level {s}")
    idx = A.indices
    if S:  # a point stays when its cell is the first child at every level of S
        _, opens, _, ids = _tree_levels(idx, n, m, S[0] + 1, S[-1] + 1)
        idx = idx[opens[ids[[s - S[0] for s in S]]].all(axis=0)]
    collapsed = set(S)
    new_r = tuple(1 if s in collapsed else r for s, r in enumerate(profile.r))
    out = DeltaSet(n, idx, width=1)
    certify("collapse-size", -abs(len(out) - expected))
    return out, BranchingProfile(m, new_r)


def prune_adjacent(
    B: DeltaSet, profile: BranchingProfile
) -> tuple[DeltaSet, BranchingProfile]:
    """Thin each level until occupied sibling cells are >= 1 empty cell apart.

    Within every parent, children are kept greedily left to right (a child
    survives when its cell index exceeds the last survivor's by at least 2);
    all parents are then truncated, leftmost first, to the minimum number
    kept anywhere on that level, preserving uniformity.  At least every
    other child survives the greedy pass, so the result keeps at least
    ``ceil(r[s]/2)`` children per level and ``|B| / 2**levels`` points
    overall.  Separation propagates downward on its own: parents two cells
    apart put their children ``2**m + 2`` child-cells apart.

    The greedy pass keeps every other cell of each run of adjacent
    siblings, from the run's first, so it runs on all depths at once; a
    parent that survives keeps all its children, so only the minimum over
    the surviving parents is taken depth by depth.  B must sit at ``n = m *
    levels`` inside [0, 1).
    """
    m, n, levels = profile.m, profile.n, profile.levels
    _check_tree(B, m, levels)
    cells, opens, _, ids = _tree_levels(B.indices, n, m, 1, levels)
    rows = np.arange(cells.size)
    touching = ~opens  # a cell right after a sibling one cell to its left
    touching[1:] &= cells[1:] == cells[:-1] + 1
    run_start = np.maximum.accumulate(np.where(touching, 0, rows))
    keep = (rows - run_start) % 2 == 0
    kept_before = np.cumsum(keep)
    firsts = np.flatnonzero(opens)
    parent = np.cumsum(opens) - 1
    rank = kept_before - (kept_before - keep)[firsts][parent]  # 1-based among kept siblings
    kept = np.add.reduceat(keep, firsts)[parent]  # kept children of each cell's parent
    alive = np.ones(len(B), dtype=bool)
    kept_counts = []
    for depth, r in enumerate(profile.r):
        row = ids[depth]
        take = int(kept[row[alive]].min())
        certify("prune-kept-half", min(2 * take - r, r - take))
        alive &= keep[row] & (rank[row] <= take)
        kept_counts.append(take)
    out = DeltaSet(n, B.indices[alive], width=1)
    certify("prune-size", (len(out) << levels) - len(B))
    new_profile = BranchingProfile(m, tuple(kept_counts))
    certify("prune-profile", -int(branching_profile_of(out, m, levels) != new_profile))
    certify("prune-gaps", min(level_min_gaps(out, m, levels)) - 2)
    return out, new_profile


def level_min_gaps(B: DeltaSet, m: int, levels: int) -> list[int]:
    """Minimum index gap between occupied cells at each depth 1..levels.

    A gap of ``g`` at depth ``s`` means the cells, as intervals, are
    ``(g-1) * 2**(-m*s)`` apart; ``g >= 2`` everywhere is the one-empty-cell
    separation property.  Depths with a single occupied cell report a
    sentinel gap of ``2**(m*levels)``.
    """
    if B.n != m * levels:
        raise ValueError("resolution does not match m * levels")
    cells, _, bounds, _ = _tree_levels(B.indices, B.n, m, 1, levels)
    gaps = np.append(np.diff(cells), 1 << (m * levels))
    gaps[bounds[1:-1] - 1] = gaps[-1]  # a depth's last cell has no right neighbour there
    return np.minimum.reduceat(gaps, bounds[:-1]).tolist()


def trivial_intervals(profile: BranchingProfile) -> IntervalFamily:
    """Maximal runs of levels with child count 1, tagged ``trivial``."""
    ivs = []
    s = 0
    while s < profile.levels:
        if profile.r[s] == 1:
            t = s
            while t + 1 < profile.levels and profile.r[t + 1] == 1:
                t += 1
            ivs.append(Interval(s, t, "trivial"))
            s = t + 1
        else:
            s += 1
    return IntervalFamily(tuple(ivs))


def lift_intervals(family: IntervalFamily, ell: int) -> IntervalFamily:
    """Reindex coarse-level intervals to fine levels: ``lo..hi`` becomes
    ``ell*lo .. ell*(hi+1)-1``."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return IntervalFamily(
        tuple(Interval(ell * iv.lo, ell * (iv.hi + 1) - 1, iv.tag) for iv in family)
    )


def extend_intervals(
    profile: BranchingProfile,
    lifted: IntervalFamily,
    zeta,
    ell: int,
) -> IntervalFamily:
    """Grow each trivial interval leftward until it captures enough branching.

    Working right to left, the interval ``lo..hi`` absorbs levels on its
    left until either (a) the child-count product over it reaches
    ``2**(zeta * m * length)`` or (b) it hits level 0.  Any other trivial
    interval the left end moves into is swallowed (its levels contribute
    factor-1 counts and it produces no separate output); a trivial interval
    that is merely adjacent is left alone.  Because moving through trivial
    levels keeps the product fixed while the threshold grows, condition (a)
    can only trigger on a branching level, so the outputs are disjoint and
    each input interval lies inside exactly one output.

    For case (a) this stops at the *shortest* sufficient extension, which
    pins the product into the sandwich
    ``2**(zeta*m*len) <= product < 2**(zeta*m*len + m) <= 2**(2*zeta*m*len)``
    (the last step needs ``ell * zeta >= 1`` and every input length >= ell).
    """
    zeta = Fraction(zeta)
    if not 0 < zeta <= 1:
        raise ValueError("zeta must lie in (0, 1]")
    if ell * zeta < 1:
        raise ValueError("need ell * zeta >= 1")
    m = profile.m
    todo = sorted(lifted, key=lambda iv: iv.lo)
    for iv in todo:
        if iv.hi >= profile.levels:
            raise ValueError("interval exceeds the profile")
        if profile.block_product(iv.lo, iv.hi) != 1:
            raise ValueError("input intervals must sit on trivial levels")
        if len(iv) < ell:
            raise ValueError("lifted intervals must have length >= ell")
    out = []
    j = len(todo) - 1
    while j >= 0:
        lo, hi = todo[j].lo, todo[j].hi
        j -= 1
        product = 1
        while True:
            if pow2_le(zeta * m * (hi - lo + 1), product):
                out.append(Interval(lo, hi, "case_a"))
                break
            if lo == 0:
                out.append(Interval(lo, hi, "case_b"))
                break
            lo -= 1
            product *= profile.r[lo]
            if j >= 0 and todo[j].hi >= lo:
                j -= 1  # swallowed: its levels are all trivial, factor 1
    return IntervalFamily(tuple(reversed(out)))


def classify_low_high(
    family: IntervalFamily, profile_a: BranchingProfile, gamma_cap
) -> IntervalFamily:
    """Split case-(a) intervals by the companion tree's branching density.

    An interval J is ``low`` when the A-side child-count product over J is
    at most ``2**(gamma_cap * m * |J|)``, ``high`` otherwise.  Case-(b)
    intervals pass through unchanged.
    """
    gamma_cap = Fraction(gamma_cap)
    m = profile_a.m
    out = []
    for iv in family:
        if iv.tag == "case_a":
            ra = profile_a.block_product(iv.lo, iv.hi)
            tag = "low" if pow2_ge(gamma_cap * m * len(iv), ra) else "high"
            out.append(Interval(iv.lo, iv.hi, tag))
        elif iv.tag == "case_b":
            out.append(iv)
        else:
            raise ValueError(f"expected extended intervals, got {iv.tag!r}")
    return IntervalFamily(tuple(out))


def collapse_suffixes(
    B: DeltaSet,
    profile: BranchingProfile,
    family: IntervalFamily,
    xi,
) -> tuple[DeltaSet, BranchingProfile, dict[tuple[int, int], int]]:
    """Collapse all but a short prefix of every extended interval.

    For each interval J = lo..hi the prefix of ``g = ceil(xi * |J|)`` levels
    is kept and the remaining ``|J| - g`` levels are collapsed to leftmost
    children.  Requires ``xi * (|J| - 1) >= 1`` for every J, which makes
    ``xi*|J| <= g <= 2*xi*|J|``: enough branching survives in the prefix
    (for case (a), any length-g prefix of a shortest sufficient extension
    carries child-count product >= ``2**(zeta*m*g)``), while surviving
    cells under one coarse cell of J stay at least
    ``2**(-m*lo) * (2**(-m)) ** (2*xi*|J|)`` apart, since below depth
    ``lo + g`` the set no longer branches inside J.

    Returns the pruned set, its profile, and the kept-prefix length per
    interval keyed by ``(lo, hi)``.
    """
    xi = Fraction(xi)
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    S: list[int] = []
    prefix: dict[tuple[int, int], int] = {}
    for iv in family:
        if iv.tag not in ("case_a", "case_b", "low", "high"):
            raise ValueError("collapse_suffixes expects extended intervals")
        r = len(iv) - 1
        if xi * r < 1:
            raise ValueError(f"interval {iv.lo}..{iv.hi} too short: xi*r < 1")
        g = ceil(xi * len(iv))
        certify("collapse-prefix", min(g - xi * len(iv), 2 * xi * len(iv) - g))
        prefix[(iv.lo, iv.hi)] = g
        S.extend(range(iv.lo + g, iv.hi + 1))
    pruned, new_profile = collapse(B, profile, S)
    return pruned, new_profile, prefix


def polarisation_check(
    profile_a: BranchingProfile, profile_b: BranchingProfile, eta
) -> list[int]:
    """Levels where B branches but A branches below ``2**((1-eta)*m)``.

    An empty list means the pair is polarised: wherever B splits at all,
    A splits nearly fully.
    """
    eta = Fraction(eta)
    if profile_a.m != profile_b.m or profile_a.levels != profile_b.levels:
        raise ValueError("profiles must share geometry")
    floor = (1 - eta) * profile_a.m
    return [
        s
        for s in range(profile_a.levels)
        if profile_b.r[s] > 1 and not pow2_le(floor, profile_a.r[s])
    ]


def find_low_level(
    profile_a: BranchingProfile, profile_b: BranchingProfile, gamma_cap
) -> int | None:
    """First level where B is trivial and A branches at most ``2**(gamma_cap*m)``.

    With ``gamma_cap = num/den`` that is ``r <= 2**(num*m/den)``, decided
    in integers by ``_pow2_cmp``.
    """
    if profile_a.m != profile_b.m or profile_a.levels != profile_b.levels:
        raise ValueError("profiles must share geometry")
    if not isinstance(gamma_cap, (int, float, Fraction)):
        gamma_cap = Fraction(gamma_cap)  # a string, or another rational type
    num, den = _ratio(gamma_cap)
    exp = num * profile_a.m
    for s, (r_a, r_b) in enumerate(zip(profile_a.r, profile_b.r)):
        if r_b == 1 and _pow2_cmp(exp, den, r_a, 1) >= 0:
            return s
    return None


def save_profile(profile: BranchingProfile, path) -> None:
    _save_json({"m": profile.m, "R": list(profile.r)}, path)


def load_profile(path) -> BranchingProfile:
    """Read the JSON of ``save_profile``; a malformed file raises FormatError."""
    data = load_json(path)
    try:
        data = _read_object(data, "a branching profile", ("m", "R"))
        m, r = _read(data["m"], int, "'m'"), _read_list(data["R"], "'R'")
        return BranchingProfile(m, tuple(_read(x, int, "an entry of 'R'") for x in r))
    except ValueError as exc:
        raise FormatError(path, None, str(exc)) from None


def save_family(family: IntervalFamily, path) -> None:
    intervals = [{"lo": iv.lo, "hi": iv.hi, "tag": _TAG_TO_WIRE[iv.tag]} for iv in family]
    _save_json({"intervals": intervals}, path)


def load_family(path) -> IntervalFamily:
    """Read the JSON of ``save_family``; a malformed file raises FormatError."""
    data = load_json(path)
    try:
        data = _read_object(data, "an interval family", ("intervals",))
        ivs = []
        for d in _read_list(data["intervals"], "'intervals'"):
            d = _read_object(d, "an interval", ("lo", "hi", "tag"))
            lo, hi, tag = _read(d["lo"], int, "'lo'"), _read(d["hi"], int, "'hi'"), d["tag"]
            if _read(tag, str, "'tag'") not in _WIRE_TO_TAG:
                raise ValueError(f"unknown tag {_echo(repr(tag))}")
            ivs.append(Interval(lo, hi, _WIRE_TO_TAG[tag]))
        return IntervalFamily(tuple(ivs))
    except ValueError as exc:
        raise FormatError(path, None, str(exc)) from None
