"""Discrete measures with exact rational weights, and their entropies.

A measure lives on the index grid at resolution ``2**-n`` in dimension 1 or
2: atoms map cell indices (possibly negative, as images at negative slopes)
to weights.  Weights are stored as integer numerators over one common
integer denominator, so restriction, products and pushforwards are integer
arithmetic and every stated identity can be checked exactly; floats
enter only in the final ``log2`` of an entropy.

Entropies are base 2.  ``entropy(mu, j)`` is the Shannon entropy of the
pushforward to the level-``j`` dyadic partition; ``conditional_entropy``
evaluates the fiberwise definition directly, which the chain rule says must
equal the difference of the two plain entropies -- the test suite holds the
two routes to within ``2**-40``.

A measure is stored as columns: one int64 key column per coordinate, and
the numerators as int64 while the denominator is below ``2**63`` (every
partial sum then fits) and as Python integers past that.  The counting
measure, the product measure, cell restriction, coarsening and projection
build their columns directly; ``atoms`` is a read-only dict view of the
columns, built only when something reads it.  Both constructors, the public
one from a mapping and the private ``_from_columns``, go through one
vectorised validation.

Bucketing, projection and the per-cell entropies of the chain run on the
columns.  One kernel, ``_cell_counts``, groups the atoms into cells, pushes
each rescaled cell by every slope of a batch and sorts the (slope, cell,
bucket) keys of all rows at once, packed into one integer that carries the
row's numerator, less the least one, in its low bits; exact integer masses
are read off the sorted keys, with no permutation and no gather.  Keys are
therefore bounded: ``n <= 62`` and ``|k| < 2**62``, so a projected key
``kx + floor(c * ky)`` fits int64; a slope product ``p * ky`` past 63 bits
falls back to Python integers.  Each ``b * log2(b)`` is taken once per
distinct count, and a cell's sum of them is rounded once from its exact
value: the float the correctly rounded ``fsum`` returns, in any bucket order.

``_slope_stats`` is what the entropies, the chain, the fiber bound and the
projected L2 norms read.  Per (cell level, bucket level, slope) it keeps
each cell's mass and entropy and the sum of squared bucket masses in a
memo on the measure, for the life of the measure (the bucket counts are
not kept).  It takes a whole slope list at once, so a level pair costs
one pass per 2**14 atom-slope rows: ``_chain_reports`` builds and
certifies the chain of every slope from one read (the final assembly and
the ``entropy`` command; the assembly's fiber bounds read the block
statistics the chain holds), and both projection averages read all their
slopes in one call (``projections._slope_reads``).  Level-0 cells are
the whole measure when every key lies in ``[0, 2**n)``, so a chain's left
side, a single block term and that block's fiber bound share one pass;
with a negative key the level-0 cells are several and the alias does not
apply.

The inequalities checked at run time raise ``CertificateError`` through
``certify``, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import fsum, gcd
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .grid import (
    CertificateError,
    DeltaSet,
    FormatError,
    _distinct,
    _run_lengths,
    _run_starts,
    certify,
    dyadic_slope,
    load_json,
    reserve,
    slope_floor,
)
from .grid import _read, _read_list, _read_object, _read_ratio, _save_json

__all__ = [
    "CertificateError",
    "certify",
    "DiscreteMeasure",
    "counting_measure",
    "product_measure",
    "entropy",
    "conditional_entropy",
    "coarsen",
    "renormalize_cell",
    "discretize_density_l2",
    "project",
    "entropy_chain",
    "ChainReport",
    "uniform_fiber_entropy_bound",
    "save_measure",
    "load_measure",
    "LOG2_3",
]

LOG2_3 = math.log2(3.0)
_IDENTITY_TOL = 2.0**-30
_MAX_N = 62
_KEY_LIMIT = 1 << 62
_INT64_LIMIT = 1 << 63
_KEY_ERROR = "atom keys must lie strictly within the 62-bit limit +-2**62"
# atom-slope rows per kernel pass: a limit of 2**16 rows made the assemblies
# of 2**14-atom measures about 1.5 times slower, 2**13 changed nothing
_BATCH_ROWS = 1 << 14


def _exact_sum(nums: np.ndarray) -> int:
    """The exact sum of a numerator column of positive values."""
    if nums.dtype == object:
        return int(nums.sum())
    # below 2**31 values, the sums of the high and low 32-bit halves fit int64
    return (int((nums >> 32).sum()) << 32) + int((nums & 0xFFFFFFFF).sum())


def _key_columns(keys: list, dim: int) -> tuple[np.ndarray, ...]:
    """One int64 column per coordinate of a list of keys (ints in dimension
    1, int pairs in dimension 2)."""
    try:  # one row per key; numpy cannot infer the width of no rows
        cols = np.array(keys, dtype=np.int64).reshape(len(keys), -1 if keys else dim).T
    except OverflowError:
        raise ValueError(_KEY_ERROR) from None
    return tuple(np.ascontiguousarray(k) for k in cols)


def _num_column(nums: list) -> np.ndarray:
    """A numerator column: int64, or Python integers past 63 bits."""
    try:
        return np.array(nums, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in nums], dtype=object)


class DiscreteMeasure:
    """A probability measure on grid cells, exact by construction.

    ``atoms`` maps cell keys (an int in dimension 1, an ``(x, y)`` index
    pair in dimension 2) to positive integer numerators that sum to
    ``denom`` exactly.  ``n`` is at most 62 and every key coordinate lies
    strictly between ``-2**62`` and ``2**62``.  The stored form is the
    columns ``_columns = (keys, nums)``; ``atoms`` is a read-only view of
    them, built on first read.
    """

    def __init__(self, dim: int, n: int, atoms: Mapping, denom: int):
        keys, nums = _key_columns(list(atoms), dim), _num_column(list(atoms.values()))
        self.__dict__.update(dim=dim, n=n, denom=denom, _columns=(keys, nums))
        self.__post_init__()

    @classmethod
    def _from_columns(
        cls, dim: int, n: int, keys: tuple[np.ndarray, ...], nums: np.ndarray, denom: int
    ) -> "DiscreteMeasure":
        """Build from int64 key columns with distinct rows and a numerator
        column, validated as the public constructor validates a mapping."""
        mu = cls.__new__(cls)
        mu.__dict__.update(dim=dim, n=n, denom=denom, _columns=(keys, nums))
        mu.__post_init__()
        return mu

    def __post_init__(self) -> None:
        """The one validation of both constructors; it also settles the
        numerator dtype by the denominator."""
        dim, n, denom, (keys, nums) = self.dim, self.n, self.denom, self._columns
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if n < 1:
            raise ValueError("resolution exponent n must be >= 1")
        if n > _MAX_N:
            raise ValueError(f"resolution exponent n={n} exceeds the 62-bit limit of int64 keys")
        if denom < 1:
            raise ValueError("denominator must be positive")
        if len(keys) != dim:
            raise ValueError(f"atom keys must have {dim} coordinates")
        if nums.size == 0:
            raise ValueError("a measure needs at least one atom")
        if nums.min() <= 0:
            raise ValueError("atom weights must be positive")
        if any(int(k.min()) <= -_KEY_LIMIT or int(k.max()) >= _KEY_LIMIT for k in keys):
            raise ValueError(_KEY_ERROR)
        if _exact_sum(nums) != denom:
            raise ValueError("weights must sum to exactly 1")
        wide = denom >= _INT64_LIMIT
        if nums.dtype != (object if wide else np.int64):
            nums = nums.astype(object if wide else np.int64)
        self.__dict__.update(denom=int(denom), _columns=(keys, nums))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (self.dim, self.n, self.denom) == (other.dim, other.n, other.denom) and all(
            map(np.array_equal, self._sorted_columns(), other._sorted_columns())
        )

    def __repr__(self) -> str:
        size = self.support_size()
        return f"DiscreteMeasure(dim={self.dim}, n={self.n}, atoms=<{size}>, denom={self.denom})"

    def _sorted_columns(self) -> list[np.ndarray]:
        keys, nums = self._columns
        order = np.lexsort(keys[::-1])
        return [k[order] for k in keys] + [nums[order]]

    @cached_property
    def atoms(self) -> Mapping:
        """The atoms as a read-only dict, in column order, built on first read."""
        keys, nums = self._columns
        cols = [k.tolist() for k in keys]
        return MappingProxyType(dict(zip(cols[0] if self.dim == 1 else zip(*cols), nums.tolist())))

    @classmethod
    def from_weights(cls, dim: int, n: int, weights: Mapping) -> "DiscreteMeasure":
        """Build from rational weights, in any form ``Fraction`` accepts; they
        must sum to 1 exactly (a defect below 2**-40 is repaired by exact
        renormalization), in the integer arithmetic of ``_from_ratios``."""
        ratios = [Fraction(w).as_integer_ratio() for w in weights.values()]
        return cls._from_ratios(dim, n, list(weights), ratios)

    @classmethod
    def _from_ratios(
        cls, dim: int, n: int, keys: list, ratios: list[tuple[int, int]]
    ) -> "DiscreteMeasure":
        """The measure with weight ``p / q`` at each key, divided by the total.

        Over ``L``, the lcm of the ``q``, the weights are ``nums = p * L // q``
        with total ``S``; a total more than ``2**-40`` from 1 (``|S - L| > L /
        2**40``) is refused.  The lcm of the reduced ``nums_i / S`` is ``S /
        gcd(S, nums...)``, so dividing by that gcd gives the least denominator.
        """
        dens = {q for _, q in ratios}
        big = math.lcm(*dens)
        scale = {q: big // q for q in dens}
        nums = [p * scale[q] for p, q in ratios]
        total = sum(nums)
        if total <= 0:
            raise ValueError("total weight must be positive")
        if abs(total - big) << 40 > big:
            raise ValueError("weights must sum to 1 (within 2**-40)")
        g = gcd(total, *nums)
        nums = _num_column([v // g for v in nums] if g > 1 else nums)
        return cls._from_columns(dim, n, _key_columns(keys, dim), nums, total // g)

    def weight(self, key) -> Fraction:
        return Fraction(self.atoms.get(key, 0), self.denom)

    def support_size(self) -> int:
        return self._columns[1].size

    @cached_property
    def _cell_memo(self) -> dict:
        return {}

    @cached_property
    def _unit_keys(self) -> bool:
        """Whether every key lies in ``[0, 2**n)``."""
        return all(int(k.min()) >= 0 and int(k.max()) >> self.n == 0 for k in self._columns[0])

    def _cells(self, level: int | None) -> tuple[np.ndarray | None, tuple[np.ndarray, ...]]:
        """The level-``level`` cell grouping, shared by every slope.

        Returns a dense cell index per atom and the key columns relative to
        each atom's cell corner (the cell rescaled to the unit cell).
        ``level=None`` takes the whole measure as one cell, unshifted.
        """
        memo = self._cell_memo
        if level not in memo:
            cols = self._columns[0]
            if level is None:
                memo[level] = None, cols
            else:
                shift = self.n - level
                order, starts = _sort_groups([k >> shift for k in cols])
                ids = np.empty(order.size, dtype=np.int64)
                ids[order] = np.repeat(np.arange(starts.size), _run_lengths(starts, order.size))
                mask = (1 << shift) - 1
                memo[level] = ids, tuple(k & mask for k in cols)
        return memo[level]


def counting_measure(A: DeltaSet) -> DiscreteMeasure:
    """Uniform weights on the points of a grid set."""
    ones = np.ones(len(A), dtype=np.int64)
    return DiscreteMeasure._from_columns(1, A.n, (A.indices,), ones, len(A))


def product_measure(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    if mu.dim != 1 or nu.dim != 1 or mu.n != nu.n:
        raise ValueError("product needs two 1-d measures at one resolution")
    ((ka,), na), ((kb,), nb) = mu._columns, nu._columns
    denom = mu.denom * nu.denom
    wide = denom >= _INT64_LIMIT
    # three int64 columns and a temporary, 32 bytes a pair; past int64 also one
    # int object a pair, no larger than denom: 24 bytes and 4 per 30-bit digit
    digits = -(-denom.bit_length() // 30)
    reserve((56 + 4 * digits if wide else 32) * ka.size * kb.size, "product_measure")
    if wide:  # Python ints before multiplying: int64 would wrap
        na, nb = na.astype(object), nb.astype(object)
    keys = np.repeat(ka, kb.size), np.tile(kb, ka.size)
    return DiscreteMeasure._from_columns(2, mu.n, keys, np.multiply.outer(na, nb).ravel(), denom)


def _coarse_key(dim: int, key, shift: int):
    if shift == 0:
        return key
    if dim == 1:
        return key >> shift
    return key[0] >> shift, key[1] >> shift


def _pack(
    cols: list[np.ndarray], low: np.ndarray | None, bits: int
) -> tuple[np.ndarray, list[tuple[int, int]]] | None:
    """The rows of int64 key columns as one sorted key; None when the key
    with its payload bits reaches ``2**63``.

    Each column is offset by its least value and weighted by the product of
    the value ranges after it, so the key sorts as the rows do.  The last
    column sets the rows; the others may be any shape that broadcasts to it.
    ``low`` (values below ``2**bits``, one per row of a block of ``low.size``
    rows, the blocks repeating) rides in the ``bits`` low bits.  The key is
    sorted as int32 when it fits 31 bits.  Returns the sorted key and each
    column's ``(least, greatest)``.
    """
    spans = [(int(c.min()), int(c.max())) for c in cols]
    radix = math.prod(hi - lo + 1 for lo, hi in spans)
    if radix << bits >= _INT64_LIMIT:  # numpy refuses to unravel a radix of 2**63
        return None
    packed = cols[-1] - spans[-1][0]
    weight = spans[-1][1] - spans[-1][0] + 1
    for c, (lo, hi) in zip(cols[-2::-1], spans[-2::-1]):
        packed += (c - lo) * weight  # each partial sum is below the radix
        weight *= hi - lo + 1
    packed = packed.reshape(-1)
    if bits:
        packed <<= bits
        blocks = packed.reshape(-1, low.size)
        blocks |= low
    if radix << bits <= 1 << 31:
        packed = packed.astype(np.int32)
    packed.sort()
    return packed, spans


def _sort_groups(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of int64 key columns lexicographically.

    Returns the sorting order and the start of each run of equal rows.  The
    row index rides in the low bits of the packed key (``_pack``) and is read
    back from them; past 63 bits the columns are sorted with ``lexsort``.
    """
    bits = (cols[0].size - 1).bit_length()
    packed = _pack(cols, np.arange(cols[0].size), bits)
    if packed is None:
        order = np.lexsort(cols[::-1])
        return order, _run_starts(*(c[order] for c in cols))
    packed, _ = packed
    order = packed & ((1 << bits) - 1)
    return order, _run_starts(packed >> bits)


def _pushed(
    low: tuple[np.ndarray, np.ndarray], slopes: list[tuple[int, int]], shift: int
) -> np.ndarray:
    """``(x + floor(c * y)) >> shift`` of every key, one row per slope: one
    int64 outer product over the largest ``q`` of ``c = p / 2**q`` while
    ``p * y`` fits 63 bits, ``slope_floor`` per slope past that."""
    x, y = low
    q_max = max(q for _, q in slopes)
    ps = [p << (q_max - q) for p, q in slopes]
    y_max = max(-int(y.min()), int(y.max()))
    if max(map(abs, ps)).bit_length() + y_max.bit_length() > 63:
        out = np.array([x + slope_floor(p, q, y) for p, q in slopes])
    else:  # in place: every fresh scratch column of 2**14 rows can cost page faults
        out = np.multiply.outer(np.array(ps, dtype=np.int64), y)
        out >>= min(q_max, 63)
        out += x
    out >>= shift
    return out


def _cell_counts(
    mu: DiscreteMeasure, slopes: list, cell_level: int | None, bucket_level: int
) -> tuple[np.ndarray, np.ndarray, Callable[[], list[np.ndarray]]]:
    """The measure kernel: exact bucket masses within each cell, for a batch
    of slopes in one sort over (slope, cell, bucket).

    Each level-``cell_level`` cell is rescaled to the unit cell (as
    ``renormalize_cell`` does), pushed by ``(x, y) -> x + c*y`` for every
    slope of ``slopes``, given as ``(p, q)`` for ``c = p / 2**q`` (planar
    measures), or by nothing when ``slopes`` is ``[None]``, and bucketed at
    level ``bucket_level - cell_level`` of the rescaled grid, i.e. by the
    key shifted right ``n - bucket_level`` bits.  ``cell_level=None`` takes
    the whole measure as one cell without rescaling.

    Each row's numerator, less the least one, rides in the low bits of its
    packed key (``_pack``), so a bucket's mass is the least numerator times
    its rows plus the sum of those bits, with no row order and no gather.
    Past 63 bits, or with Python-int numerators, ``_sort_groups`` sorts.

    Returns ``(counts, starts, keys)``: the numerator mass of every occupied
    bucket, grouped slope by slope and within a slope cell by cell; the
    index of each (slope, cell) group's first bucket, every slope having one
    group per occupied cell; and a function that unpacks the bucket key
    columns (``coarsen`` and ``project`` read them, the statistics do not).
    """
    cell, low = mu._cells(cell_level)
    shift = mu.n - bucket_level
    size, batch = mu.support_size(), len(slopes)
    buckets = [k >> shift for k in low] if slopes == [None] else [_pushed(low, slopes, shift)]
    dims = len(buckets)
    group = [] if batch == 1 else [np.arange(batch)[:, None]]  # the slope index of each row
    if cell is not None:
        group.append(cell)
    cols, nums, packed = group + buckets, mu._columns[1], None
    if nums.dtype != object:
        least = int(nums.min())
        bits = (int(nums.max()) - least).bit_length()
        packed = _pack(cols, nums - least if bits else None, bits)
    if packed is None:  # the row-index route: a permutation and a gather
        cols = [np.broadcast_to(c, (batch, size)).ravel() for c in cols]
        order, heads = _sort_groups(cols)
        counts = np.add.reduceat(np.tile(nums, batch)[order], heads)
        rows = [c[order[heads]] for c in cols]
        group, keys = rows[:-dims], lambda: rows[-dims:]
    else:
        packed, spans = packed
        key = packed >> bits if bits else packed
        heads = _run_starts(key)
        counts = _run_lengths(heads, key.size)
        counts *= least
        if bits:
            counts += np.add.reduceat(packed & ((1 << bits) - 1), heads, dtype=np.int64)
        key, widths = key[heads].astype(np.int64), [hi - lo + 1 for lo, hi in spans]
        if group:  # the (slope, cell) part of each bucket's key
            group = [key // math.prod(widths[-dims:])]
        keys = lambda: [c + lo for c, (lo, _) in zip(np.unravel_index(key, widths), spans)][-dims:]
    starts = _run_starts(*group) if group else np.zeros(1, dtype=np.int64)
    return counts, starts, keys


def _cell_entropies(counts: np.ndarray, starts: np.ndarray) -> tuple[list[int], list[float]]:
    """Mass numerator and entropy (bits) of every group of bucket counts.

    ``H = log2(M) - S / M`` with exact integers inside the logs, where ``S``
    sums ``t = b * log2(b)`` over the group's buckets, each ``t`` evaluated
    once per distinct count.  The distinct counts are read off a presence
    table indexed by count while the largest count is at most 4 times the
    number of buckets (tables of at most 36 bytes a bucket), and off the
    sorted counts past that.  ``S`` is rounded once from its exact value,
    which is what the correctly rounded ``fsum`` of the ``t`` returns, in any
    bucket order.  Every ``t`` is a multiple of ``2**-k`` (``k`` set by the
    least positive one); scaled by ``2**(k - L)`` it splits into a whole
    part and a fraction that is a multiple of ``2**-L``, ``L = frac_bits``
    keeping ``2**L`` times the most buckets of a group below ``2**53``.
    While the whole parts of a group also sum below ``2**53`` (bounded
    through ``S <= M log2 M``), both float64 sums are exact and their one
    addition rounds ``S``; past that, ``S * 2**k`` is summed as a Python
    integer and divided once.
    """
    masses = np.add.reduceat(counts, starts).tolist()
    most = int(counts.max())
    if counts.dtype != object and most <= 4 * counts.size:
        present = np.zeros(most + 1, dtype=bool)
        present[counts] = True
        distinct = np.flatnonzero(present)
        rank = np.empty(most + 1, dtype=np.intp)  # each present count's rank, an index
        rank[distinct] = np.arange(distinct.size)
        index = rank[counts]
    else:
        distinct = _distinct(np.sort(counts))
        index = np.searchsorted(distinct, counts)
    table = [b * math.log2(b) for b in distinct.tolist()]
    least = next((t for t in table if t), 0.0)  # t grows with b: the least positive t
    k = max(53 - math.frexp(least)[1], 0) if least else 0
    frac_bits = 53 - int(_run_lengths(starts, counts.size).max()).bit_length()
    top = max(masses).bit_length()
    if k - frac_bits + top + top.bit_length() <= 53:
        scaled = np.array(table) * 2.0 ** (k - frac_bits)
        whole = np.floor(scaled)  # split once per distinct count, read per bucket
        frac = scaled - whole
        sums = np.add.reduceat(whole[index], starts) + np.add.reduceat(frac[index], starts)
        sums = (sums * 2.0 ** (frac_bits - k)).tolist()
    else:
        exact = np.array([int(math.ldexp(t, k)) for t in table], dtype=object)[index]
        sums = [s / (1 << k) for s in np.add.reduceat(exact, starts).tolist()]
    return masses, [math.log2(m) - s / m for m, s in zip(masses, sums)]


def _sum_squares(counts: np.ndarray, bounds: np.ndarray, denom: int) -> list[int]:
    """The sum of the squared counts of each run that starts at ``bounds``."""
    # each run's squares sum to at most denom**2: int64 below 2**63, else Python ints
    if denom * denom >= _INT64_LIMIT:
        counts = counts.astype(object)
    return np.add.reduceat(counts * counts, bounds).tolist()


def _slope_stats(
    mu: DiscreteMeasure, slopes: list, cell_level: int | None, bucket_level: int
) -> list[tuple[list[int], list[float], int]]:
    """Every cell's mass numerator and entropy, and the sum of the squared
    bucket masses, of the kernel pass at each slope of ``slopes``: ``(p, q)``
    pairs, or None, which pushes nothing.

    Memoised on ``mu`` per (cell level, bucket level, slope), for the life
    of the measure; the bucket counts are not kept.  Missing slopes go
    through the kernel in batches of at most ``_BATCH_ROWS`` atom-slope rows
    (or one slope).  When every key lies in ``[0, 2**n)`` the one level-0
    cell is the whole measure, so level 0 shares the ``cell_level=None`` entries.
    """
    if cell_level == 0 and mu._unit_keys:
        cell_level = None
    memo = mu._cell_memo
    try:
        return [memo[cell_level, bucket_level, s] for s in slopes]
    except KeyError:  # run the missing slopes through the kernel
        missing = [s for s in dict.fromkeys(slopes) if (cell_level, bucket_level, s) not in memo]
    pushed = [s for s in missing if s is not None]
    per = max(1, _BATCH_ROWS // mu.support_size())
    batches = [pushed[i : i + per] for i in range(0, len(pushed), per)]
    for batch in batches + ([[None]] if None in missing else []):
        counts, starts, _ = _cell_counts(mu, batch, cell_level, bucket_level)
        masses, hs = _cell_entropies(counts, starts)
        cells = len(starts) // len(batch)
        ssqs = _sum_squares(counts, starts[::cells], mu.denom)
        for i, s in enumerate(batch):
            part = slice(i * cells, (i + 1) * cells)
            memo[cell_level, bucket_level, s] = masses[part], hs[part], ssqs[i]
    return [memo[cell_level, bucket_level, s] for s in slopes]


def _check_level(mu: DiscreteMeasure, j: int) -> None:
    if not 0 <= j <= mu.n:
        raise ValueError("level out of range")


def entropy(mu: DiscreteMeasure, j: int) -> float:
    """Shannon entropy (bits) of mu pushed to the level-j dyadic partition."""
    _check_level(mu, j)
    return _slope_stats(mu, [None], None, j)[0][1][0]


def conditional_entropy(mu: DiscreteMeasure, fine: int, coarse: int) -> float:
    """H(level-``fine`` cell | level-``coarse`` cell), evaluated fiberwise.

    This is the direct definition ``sum_E mu(E) H(mu_E)`` over coarse cells
    E, not the difference of entropies; the chain-rule identity
    ``H(fine) - H(coarse)`` is what the tests compare it against.
    """
    if not 0 <= coarse <= fine <= mu.n:
        raise ValueError("need 0 <= coarse <= fine <= n")
    groups: dict = {}
    shift_c = mu.n - coarse
    shift_f = mu.n - fine
    for key, num in mu.atoms.items():
        ck = _coarse_key(mu.dim, key, shift_c)
        fk = _coarse_key(mu.dim, key, shift_f)
        groups.setdefault(ck, {})
        groups[ck][fk] = groups[ck].get(fk, 0) + num
    parts = []
    for sub in groups.values():
        m_e = sum(sub.values())
        inner = fsum(b * math.log2(b) for b in sub.values() if b > 1)
        parts.append(m_e * math.log2(m_e) - inner)
    return fsum(parts) / mu.denom


def coarsen(mu: DiscreteMeasure, j: int) -> DiscreteMeasure:
    """Pushforward to resolution ``2**-j`` (j >= 1)."""
    if j < 1:
        raise ValueError("coarsen to j >= 1")
    _check_level(mu, j)
    counts, _, keys = _cell_counts(mu, [None], None, j)
    return DiscreteMeasure._from_columns(mu.dim, j, tuple(keys()), counts, mu.denom)


def renormalize_cell(mu: DiscreteMeasure, q_key, j: int) -> DiscreteMeasure:
    """Restrict to one level-j cell and rescale it to the unit cell.

    The result lives at resolution ``n - j``; its denominator is the
    restricted mass numerator, so the operation is exact.  Raises on cells
    of zero mass.
    """
    if not 1 <= j < mu.n:
        raise ValueError("need 1 <= j < n")
    corner = np.array(q_key, dtype=np.int64).reshape(-1).tolist()
    if len(corner) != mu.dim:
        raise ValueError(f"the cell key needs {mu.dim} coordinates")
    shift = mu.n - j
    keys, nums = mu._columns
    inside = np.logical_and.reduce([k >> shift == q for k, q in zip(keys, corner)])
    if not inside.any():
        raise ValueError("cell has zero mass")
    low = tuple(k[inside] - (q << shift) for k, q in zip(keys, corner))
    sub = nums[inside]
    return DiscreteMeasure._from_columns(mu.dim, shift, low, sub, _exact_sum(sub))


def discretize_density_l2(mu: DiscreteMeasure, j: int) -> Fraction:
    """Squared L2 norm of the level-j density: ``2**(dim*j) * sum mu(Q)**2``."""
    _check_level(mu, j)
    ssq = _slope_stats(mu, [None], None, j)[0][2]
    return Fraction(ssq << (mu.dim * j), mu.denom * mu.denom)


def project(mu: DiscreteMeasure, c) -> DiscreteMeasure:
    """Pushforward of a planar measure under ``(x, y) -> x + c*y``.

    ``c`` must be a dyadic rational with ``|c| <= 1``; the image of an atom
    is the grid cell containing its exact image value, i.e. index
    ``kx + floor(c * ky)`` at the same resolution.
    """
    if mu.dim != 2:
        raise ValueError("project expects a planar measure")
    counts, _, keys = _cell_counts(mu, [dyadic_slope(c)], None, mu.n)
    return DiscreteMeasure._from_columns(1, mu.n, tuple(keys()), counts, mu.denom)


@dataclass(frozen=True)
class ChainReport:
    """Outcome of one entropy-chain evaluation."""

    c: Fraction
    cuts: tuple[int, ...]
    lhs: float
    block_terms: tuple[float, ...]
    correction: float

    @property
    def rhs(self) -> float:
        return fsum(self.block_terms)

    @property
    def slack(self) -> float:
        return self.lhs - (self.rhs - self.correction)


def _chain_reports(
    mu: DiscreteMeasure, cs: Iterable, cuts: Iterable[int]
) -> tuple[list[ChainReport], list]:
    """The certified ``entropy_chain`` report of every slope of ``cs``, from
    one read of the chain statistics for all of them (each level pair takes
    one kernel pass per batch of slopes).  Also returns, per slope, the
    ``_slope_stats`` of the left side and of each block, for bounds that
    read the same cells (``_fiber_bound``)."""
    if mu.dim != 2:
        raise ValueError("entropy_chain expects a planar measure")
    cuts = tuple(map(int, cuts))
    if cuts[0] != 0 or cuts[-1] != mu.n or any(
        b <= a for a, b in zip(cuts, cuts[1:])
    ):
        raise ValueError("cuts must run 0 = j_0 < ... < j_h = n")
    cs = list(cs)
    slopes = list(map(dyadic_slope, cs))
    levels = [(None, mu.n), *zip(cuts, cuts[1:])]
    stats = list(zip(*[_slope_stats(mu, slopes, lo, hi) for lo, hi in levels]))
    correction = (len(cuts) - 1) * LOG2_3
    reports = []
    for c, (p, q), (left, *blocks) in zip(cs, slopes, stats):
        terms = [fsum([m * h for m, h in zip(masses, hs)]) / mu.denom for masses, hs, _ in blocks]
        report = ChainReport(
            c=c if type(c) is Fraction else Fraction(p, 1 << q),
            cuts=cuts,
            lhs=left[1][0],
            block_terms=tuple(terms),
            correction=correction,
        )
        certify("entropy-chain", report.slack, _IDENTITY_TOL)
        reports.append(report)
    return reports, stats


def entropy_chain(mu: DiscreteMeasure, c, cuts: Iterable[int]) -> ChainReport:
    """Compare a projection's entropy against its blockwise lower bound.

    ``cuts`` are the full block boundaries ``0 = j_0 < ... < j_h = n``.  The
    left side is ``H(pi_c mu, level n)``; each block term is
    ``sum_Q mu(Q) * H(pi_c mu^Q, level j_{i+1}-j_i)`` over level-``j_i``
    cells Q with ``mu^Q`` rescaled to the unit square.  Rescaling costs at
    most log2 3 per block (a level-``j_i`` square projects into at most 3
    coarse cells), which the certificate charges for every one of the ``h``
    blocks.
    """
    return _chain_reports(mu, [c], cuts)[0][0]


def uniform_fiber_entropy_bound(
    mu: DiscreteMeasure,
    c,
    lo_bits: int,
    block_bits: int,
    log2_branching: float,
) -> tuple[float, float]:
    """Worst-cell projected entropy against the branching of the first factor.

    For a product of uniform-tree measures, conditioning on any occupied
    level-``lo_bits`` square and projecting, the entropy at ``block_bits``
    further bits is at least ``log2_branching`` (the first factor's
    child-count product over the block, in bits) minus one bit: the fibers
    are translates of one uniform measure, and a translate costs at most
    one bit of grid alignment.

    Returns ``(min over occupied squares, the certified lower bound)``.
    """
    if mu.dim != 2:
        raise ValueError("expected a planar measure")
    if block_bits < 1 or lo_bits < 0 or lo_bits + block_bits > mu.n:
        raise ValueError("block exceeds the resolution")
    hs = _slope_stats(mu, [dyadic_slope(c)], lo_bits, lo_bits + block_bits)[0][1]
    return _fiber_bound(hs, log2_branching)


def _fiber_bound(entropies: list[float], log2_branching: float) -> tuple[float, float]:
    """The least of a block's per-cell projected entropies, certified at or
    above ``log2_branching - 1`` (``uniform_fiber_entropy_bound``)."""
    worst = min(entropies)
    bound = log2_branching - 1.0
    certify("uniform-fiber", worst - bound, _IDENTITY_TOL)
    return worst, bound


def save_measure(mu: DiscreteMeasure, path) -> None:
    """JSON with exact rational weights (strings "num/den"), keys ascending."""
    *keys, nums = mu._sorted_columns()
    denom, entries = mu.denom, []
    for key, num in zip(zip(*(k.tolist() for k in keys)), nums.tolist()):
        g = gcd(num, denom)
        entries.append([list(key), f"{num // g}/{denom // g}"])
    _save_json({"dim": mu.dim, "n": mu.n, "atoms": entries}, path)


def load_measure(path) -> DiscreteMeasure:
    """Read the JSON of ``save_measure``; a malformed file raises FormatError.

    A key is ``dim`` JSON integers, repeated by no other atom; the weights
    go through ``grid._read_ratio`` and the integer core of ``from_weights``.
    """
    data, i = load_json(path), None  # i: the atom being read, None outside the loop
    try:
        data = _read_object(data, "a measure", ("dim", "n", "atoms"))
        dim, n = _read(data["dim"], int, "'dim'"), _read(data["n"], int, "'n'")
        ratios, first = [], {}  # first: the atom of each key, in file order
        for i, entry in enumerate(_read_list(data["atoms"], "'atoms'")):
            ks, w = _read_list(entry, "the atom", 2)
            for k in _read_list(ks, "the key", dim):
                _read(k, int, "a key coordinate")
            j = first.setdefault(tuple(ks), i)
            if j != i:
                raise ValueError(f"key {ks!r} repeats atom {j}")
            ratios.append(_read_ratio(w, "the weight"))
        i = None
        return DiscreteMeasure._from_ratios(dim, n, list(first), ratios)
    except ValueError as exc:
        raise FormatError(path, None, str(exc) if i is None else f"atom {i}: {exc}") from None
