"""Finite subsets of the line at dyadic resolution.

A set at resolution ``delta = 2**-n`` is stored as the sorted integer indices
``k`` of the grid points ``k * delta`` it contains.  All set operations
(covering counts, sumsets with a dyadic dilation, iterated sums) are exact
integer arithmetic on these indices; nothing is ever rounded through floats.

Cells are half-open: the cell of ``x`` at scale ``2**-r`` is
``[k*2**-r, (k+1)*2**-r)`` with ``k = floor(x * 2**r)``.  The point 1.0 is
index ``2**n`` and lives in the cell starting at 1.0, so sets touching 1.0
simply have ``width = 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DeltaSet",
    "ScaleSpec",
    "ParameterSet",
    "FrostmanReport",
    "as_dyadic",
    "pow2_le",
    "pow2_ge",
    "covering_number",
    "covering_counts",
    "sumset",
    "iterated_sum",
    "frostman_check",
    "gen_ap",
    "gen_aligned_triple",
    "save_set",
    "load_set",
]


def as_dyadic(c) -> tuple[int, int]:
    """Return ``(p, q)`` with ``c == p / 2**q``, q >= 0 minimal.

    Raises ValueError for values that are not dyadic rationals; binary floats
    are accepted because they are dyadic by construction.
    """
    f = Fraction(c)
    den = f.denominator
    q = den.bit_length() - 1
    if den != 1 << q:
        raise ValueError(f"{c!r} is not a dyadic rational")
    return f.numerator, q


def pow2_le(frac: Fraction, value) -> bool:
    """Exact test of ``2**frac <= value`` for rational frac and rational value."""
    value = Fraction(value)
    if value <= 0:
        return False
    frac = Fraction(frac)
    num, den = frac.numerator, frac.denominator
    # 2**(num/den) <= value  <=>  2**num <= value**den, both exact rationals.
    if num >= 0:
        return (1 << num) <= value**den
    return 1 <= value**den * (1 << -num)


def pow2_ge(frac: Fraction, value) -> bool:
    """Exact test of ``2**frac >= value``."""
    value = Fraction(value)
    if value <= 0:
        return True
    frac = Fraction(frac)
    num, den = frac.numerator, frac.denominator
    if num >= 0:
        return (1 << num) >= value**den
    return 1 >= value**den * (1 << -num)


@dataclass(frozen=True)
class DeltaSet:
    """A finite set of dyadic grid points at resolution ``2**-n``.

    ``indices`` is a strictly increasing int64 array with values in
    ``[0, width * 2**n)``; point values are ``indices * 2**-n``.  Treat the
    array as immutable.  ``n`` is at most 62, so indices fit int64.
    """

    n: int
    indices: np.ndarray
    width: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("resolution exponent n must be >= 1")
        if self.n > 62:
            raise ValueError(
                f"resolution exponent n={self.n} exceeds the 62-bit limit of int64 indices"
            )
        if self.width < 1:
            raise ValueError("width must be >= 1")
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if idx.size == 0:
            raise ValueError("empty sets are not represented")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= (self.width << self.n):
            raise ValueError("indices out of [0, width * 2**n)")

    @classmethod
    def from_indices(cls, n: int, ks: Iterable[int], width: int | None = None) -> "DeltaSet":
        idx = np.unique(np.asarray(list(ks), dtype=np.int64))
        if width is None:
            width = max(1, -(-int(idx[-1] + 1) >> n)) if idx.size else 1
        return cls(n, idx, width)

    @property
    def delta(self) -> Fraction:
        return Fraction(1, 1 << self.n)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaSet):
            return NotImplemented
        return (
            self.n == other.n
            and self.width == other.width
            and self.indices.size == other.indices.size
            and bool(np.all(self.indices == other.indices))
        )

    def values(self) -> np.ndarray:
        """Point values as floats (display/plotting only; indices are the truth)."""
        return self.indices * (2.0**-self.n)

    def points(self) -> list[Fraction]:
        d = self.delta
        return [k * d for k in self.indices.tolist()]


@dataclass(frozen=True)
class ScaleSpec:
    """Multiscale geometry: ``m`` bits per level, ``ell`` fine levels per
    coarse block, ``big_n`` coarse blocks.  Total resolution ``2**-n`` with
    ``n = ell * m * big_n``."""

    m: int
    ell: int
    big_n: int

    def __post_init__(self):
        if self.m < 1 or self.ell < 1 or self.big_n < 1:
            raise ValueError("all scale parameters must be >= 1")

    @property
    def n(self) -> int:
        return self.ell * self.m * self.big_n

    @property
    def fine_levels(self) -> int:
        return self.ell * self.big_n


@dataclass(frozen=True)
class ParameterSet:
    """Exponent bookkeeping for the expansion analysis.

    All exponents are exact rationals in (0, 1].  ``gamma_cap`` and ``xi``
    are derived; the constraints mirror what the multiscale argument needs:
    ``beta <= alpha < 1``, ``gamma > (alpha - beta) / (1 - beta)``, and the
    block length ``ell`` large enough that both ``ell * zeta >= 1`` and
    ``ell >= 4 / (gamma - gamma_cap)`` hold.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    kappa: Fraction
    eta: Fraction
    zeta: Fraction
    ell: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "kappa", "eta", "zeta"):
            v = Fraction(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (0 < v <= 1):
                raise ValueError(f"{name} must lie in (0, 1]")
        if not (self.beta <= self.alpha < 1):
            raise ValueError("need beta <= alpha < 1")
        if self.gamma <= (self.alpha - self.beta) / (1 - self.beta):
            raise ValueError("gamma must exceed (alpha - beta) / (1 - beta)")
        if self.gamma <= self.gamma_cap:
            raise ValueError("derived gamma_cap leaves no room; enlarge gamma")
        if self.ell * self.zeta < 1:
            raise ValueError("block length too short: need ell * zeta >= 1")
        if self.ell * (self.gamma - self.gamma_cap) < 4:
            raise ValueError("block length too short for the xi margin")

    @property
    def gamma_cap(self) -> Fraction:
        """Branching threshold separating low from high intervals."""
        return (self.alpha - self.beta) / (2 * (1 - self.beta)) + self.gamma / 2

    @property
    def xi(self) -> Fraction:
        return (self.gamma - self.gamma_cap) / 4


@dataclass(frozen=True)
class FrostmanReport:
    """Worst observed ball-mass ratio ``|A & B(x, r)| / (r**kappa * |A|)``.

    ``witness`` is ``(center_index, r_exp)`` for the maximizing pair; centers
    range over the set's own points and radii over dyadic ``2**-r_exp``.
    A set passed as kappa-regular should come in under a small constant
    (point-mass at the smallest radius forces at least ``r_min**-kappa/|A|``).
    """

    kappa: Fraction
    worst_ratio: float
    witness: tuple[int, int]
    passed: bool
    bound: float


def covering_number(A: DeltaSet, r_exp: int) -> int:
    """Number of dyadic cells of size ``2**-r_exp`` meeting A.

    ``r_exp`` may be 0 (unit cells) up to ``A.n`` (each point its own cell).
    """
    if not 0 <= r_exp <= A.n:
        raise ValueError("r_exp out of range")
    return int(np.unique(A.indices >> (A.n - r_exp)).size)


def covering_counts(A: DeltaSet, r_exps: Sequence[int] | None = None) -> dict[int, int]:
    """Covering numbers at several scales at once (analysis/CLI helper)."""
    if r_exps is None:
        r_exps = range(A.n + 1)
    return {int(r): covering_number(A, int(r)) for r in r_exps}


def _shifts(c, B: DeltaSet) -> np.ndarray:
    """Distinct values of floor(c * b / delta) over b in B, as int64."""
    p, q = as_dyadic(c)
    if abs(Fraction(c)) > 1:
        raise ValueError("|c| must be at most 1")
    if q > B.n:
        raise ValueError("c is finer than the grid resolution")
    if abs(p).bit_length() + int(B.indices[-1]).bit_length() > 63:
        # p * k may pass 2**63 in int64; Python integers keep it exact, and
        # the shifted value fits int64 again because |c| <= 1.
        shifted = [(p * k) >> q for k in B.indices.tolist()]
        return np.unique(np.array(shifted, dtype=np.int64))
    # Arithmetic right shift floors for negative p as well.
    return np.unique((p * B.indices) >> q)


def sumset(A: DeltaSet, c, B: DeltaSet, max_width: int = 1 << 12) -> DeltaSet:
    """The set ``{a + c*b}`` snapped to A's grid, exactly.

    ``c`` must be a dyadic rational with ``|c| <= 1`` representable at the
    grid resolution.  Snapping means each real sum lands in its half-open
    grid cell: index ``k_a + floor(c * k_b)``.  The result keeps resolution
    ``n`` and grows ``width`` as needed.
    """
    if A.n != B.n:
        raise ValueError("operands must share one grid resolution")
    v = _shifts(c, B)
    lo = int(A.indices[0] + v[0])
    hi = int(A.indices[-1] + v[-1])
    if lo < 0:
        raise ValueError("negative c pushes the sumset below 0")
    width = (hi >> A.n) + 1
    if width > max_width:
        raise ValueError(f"sumset width {width} exceeds limit {max_width}")
    if A.indices.size * v.size <= (1 << 22):
        out = np.unique(A.indices[:, None] + v[None, :])
    else:
        seen = np.zeros(hi + 1, dtype=bool)
        for s in v.tolist():
            seen[A.indices + s] = True
        out = np.flatnonzero(seen).astype(np.int64)
    return DeltaSet(A.n, out, width)


def iterated_sum(B: DeltaSet, k: int, max_width: int = 1 << 12) -> DeltaSet:
    """k-fold sumset ``B + B + ... + B`` on the grid.

    With ``c = 1`` every partial sum is already a grid point, so repeated
    pairwise sumsets compute the k-fold sum exactly.  ``|kB| <= k * 2**n``
    always (the result sits inside ``[0, k)``).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    out = B
    for _ in range(k - 1):
        out = sumset(out, 1, B, max_width=max_width)
    assert len(out) <= k << B.n
    return out


def frostman_check(
    A: DeltaSet,
    kappa,
    r_min_exp: int,
    r_max_exp: int,
    bound: float = 8.0,
) -> FrostmanReport:
    """Measure how far A is from kappa-regularity.

    For every point x of A and every dyadic radius ``r = 2**-j`` with
    ``r_max <= r <= r_min`` (``r_max_exp <= j <= r_min_exp``), counts the
    points of A in the closed ball ``B(x, r)`` and reports the worst ratio
    against ``r**kappa * |A|``.  ``passed`` compares against ``bound``,
    which allows the factor-3 slack inherent in checking only dyadic radii
    at the set's own points.
    """
    kappa = Fraction(kappa)
    if not (0 < kappa <= 1):
        raise ValueError("kappa must lie in (0, 1]")
    if not 0 <= r_max_exp <= r_min_exp <= A.n:
        raise ValueError("need 0 <= r_max_exp <= r_min_exp <= n")
    idx = A.indices
    total = idx.size
    worst = -math.inf
    witness = (int(idx[0]), r_min_exp)
    for j in range(r_max_exp, r_min_exp + 1):
        w = 1 << (A.n - j)  # ball radius in index units
        counts = np.searchsorted(idx, idx + w, side="right") - np.searchsorted(
            idx, idx - w, side="left"
        )
        i = int(np.argmax(counts))
        # ratio = count / (2**(-j kappa) * total); compare in log2 to avoid
        # huge floats, exponent j*kappa is exact as a Fraction.
        ratio = math.log2(int(counts[i])) + j * float(kappa) - math.log2(total)
        if ratio > worst:
            worst = ratio
            witness = (int(idx[i]), j)
    worst_ratio = 2.0**worst
    return FrostmanReport(
        kappa=kappa,
        worst_ratio=worst_ratio,
        witness=witness,
        passed=worst_ratio <= bound,
        bound=bound,
    )


def gen_ap(n: int, size: int, step: int | None = None, start: int = 0) -> DeltaSet:
    """Arithmetic progression of ``size`` grid points.

    Default step spreads the progression across [0, 1): ``max(1, 2**n //
    size)``.  Power-of-two sizes give a progression aligned with the dyadic
    tree (full branching on the top levels, leftmost child below).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if step is None:
        step = max(1, (1 << n) // size)
    if step < 1:
        raise ValueError("step must be >= 1")
    idx = start + step * np.arange(size, dtype=np.int64)
    width = (int(idx[-1]) >> n) + 1
    return DeltaSet(n, idx, width)


def gen_aligned_triple(n_param: int) -> tuple[DeltaSet, DeltaSet, DeltaSet]:
    """The lattice-aligned triple showing sumset growth can be slow.

    ``A = {i/sqrt(n) : 1 <= i <= sqrt(n)}`` and ``B = C = {j/n**(1/4) :
    1 <= j <= n**(1/4)}``; every product b*c lands exactly on A's lattice,
    so ``A + B*C`` stays inside a progression barely longer than A.
    ``n_param`` must be ``2**(4t)`` so the steps are exact dyadic rationals;
    all three sets share resolution ``2**-2t``.
    """
    if n_param < 16:
        raise ValueError("need n_param >= 16")
    t4 = n_param.bit_length() - 1
    if (1 << t4) != n_param or t4 % 4:
        raise ValueError("n_param must be a power of 16 (i.e. 2**(4t))")
    t = t4 // 4
    n = 2 * t  # grid exponent: 1/sqrt(n_param) = 2**-n exactly
    root = 1 << (2 * t)  # sqrt(n_param)
    quarter = 1 << t  # n_param ** (1/4)
    A = DeltaSet(n, np.arange(1, root + 1, dtype=np.int64), width=2)
    bc = np.arange(1, quarter + 1, dtype=np.int64) << t
    B = DeltaSet(n, bc, width=2)
    return A, B, B


def save_set(A: DeltaSet, path) -> None:
    """Write the one-index-per-line text format with an ``n=.. W=..`` header."""
    with open(path, "w") as fh:
        fh.write(f"n={A.n} W={A.width}\n")
        for k in A.indices.tolist():
            fh.write(f"{k}\n")


def load_set(path) -> DeltaSet:
    with open(path) as fh:
        header = fh.readline().split()
        fields = dict(part.split("=") for part in header)
        n, width = int(fields["n"]), int(fields["W"])
        idx = [int(line) for line in fh if line.strip()]
    return DeltaSet(n, np.asarray(idx, dtype=np.int64), width)
