"""Averaged L2 norms of projected measures and the entropy bound they imply.

For a planar measure mu at resolution Delta = 2**-n and a slope c, the
pushforward under (x, y) -> x + c*y has a discretised L2 norm that is exact
rational arithmetic on the grid.  Averaging that norm over an atomic slope
measure nu admits an upper bound of the shape

    C * max(Delta**(gamma_a + gamma_b - 1), Delta**(gamma - 1 - xi))

under three hypotheses, each of which is audited here with exact integer
comparisons before anything is evaluated:

  * every grid cell carries mu-mass at most C * Delta**(gamma_a + gamma_b),
  * every length-Delta window carries nu-mass at most C * Delta**gamma,
  * distinct occupied y-cells of mu are at distance at least Delta**xi.

The mechanism behind the bound splits mass pairs into near pairs (in
adjacent cells, controlled by the cell-mass hypothesis) and far pairs (the
slopes threading both points through one cell form a short window,
controlled by the nu-mass and separation hypotheses).  averaged_l2
certifies that split on every call (``l2-near-far``).  Its near term and
l2_of_projection's second route are exact pair totals at every size, each
one sort of the atoms.  Both averages open with one prologue, the audit and
one read of every slope's statistics, which averaged_l2's norms reuse.

Implied constants are never silently trusted: reports carry a fitted
constant (measured average divided by the bound's max term) and the test
suite freezes budgets for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .grid import _distinct, _run_starts, dyadic_slope, pow2_ge, pow2_le
from .measures import DiscreteMeasure, _slope_stats, certify

__all__ = [
    "ProjectionParams",
    "LowBlockShape",
    "ProjectionAverageReport",
    "EntropyAverageReport",
    "audit_hypotheses",
    "l2_of_projection",
    "averaged_l2",
    "averaged_projection_entropy",
]

_TOL = 1e-9


@dataclass(frozen=True)
class ProjectionParams:
    """Exponent knobs for the averaged projection bound.

    All four exponents are exact rationals; ``big_c`` is the hypothesis
    constant C (usually 1 for uniform instances).
    """

    gamma_a: Fraction
    gamma_b: Fraction
    gamma: Fraction
    xi: Fraction
    big_c: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("gamma_a", "gamma_b", "gamma", "xi", "big_c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.gamma_a < 0 or self.gamma_b < 0:
            raise ValueError("marginal exponents must be nonnegative")
        if not (0 < self.gamma <= 1) or not (0 < self.xi <= 1):
            raise ValueError("gamma and xi must lie in (0, 1]")
        if self.big_c < 1:
            raise ValueError("the hypothesis constant is at least 1")

    @classmethod
    def from_cardinalities(
        cls, n: int, card_a: int, card_b: int, card_nu: int, xi, big_c=1
    ) -> "ProjectionParams":
        """Exponents of a uniform instance: gamma_a = log2(card_a) / n etc.

        Power-of-two cardinalities only, so the exponents stay rational and
        every audit comparison stays exact.
        """

        def bits(card):
            if card < 1 or card & (card - 1):
                raise ValueError("cardinality must be a power of two")
            return card.bit_length() - 1

        return cls(
            Fraction(bits(card_a), n),
            Fraction(bits(card_b), n),
            Fraction(bits(card_nu), n),
            Fraction(xi),
            Fraction(big_c),
        )


@dataclass(frozen=True)
class LowBlockShape:
    """Shape data of a branching-poor block: A branches ``r_a`` times over
    ``bits`` resolution bits while B's branching rate stays above xi * zeta.

    ``gamma`` and ``big_gamma`` are the slope-measure exponent and the
    low/high threshold; the usable xi satisfies 4 * xi <= gamma - big_gamma.
    """

    r_a: int
    bits: int
    xi: Fraction
    zeta: Fraction
    gamma: Fraction
    big_gamma: Fraction

    def __post_init__(self):
        for name in ("xi", "zeta", "gamma", "big_gamma"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.r_a < 1 or self.bits < 1:
            raise ValueError("branching count and bit length must be >= 1")
        if 4 * self.xi > self.gamma - self.big_gamma:
            raise ValueError("need 4 * xi <= gamma - big_gamma")


def _mass_le(mass: Fraction, big_c: Fraction, exponent: Fraction) -> bool:
    # mass <= C * 2**-exponent  <=>  2**exponent <= C / mass, all exact
    if mass == 0:
        return True
    return pow2_le(exponent, big_c / mass)


def audit_hypotheses(
    mu: DiscreteMeasure, nu: DiscreteMeasure, params: ProjectionParams
) -> list[str]:
    """Names of the bound's hypotheses that ``(mu, nu)`` violates.

    Empty list means all three hold (exact comparisons throughout):
    ``cell-mass`` is the per-cell bound on mu, ``nu-mass`` the per-window
    bound on nu at mu's resolution, ``separation`` the gap condition on
    the occupied y-cells.
    """
    if mu.dim != 2 or nu.dim != 1:
        raise ValueError("expected a planar mu and a one-dimensional nu")
    n = mu.n
    failures = []

    worst = Fraction(int(mu._columns[1].max()), mu.denom)
    if not _mass_le(worst, params.big_c, n * (params.gamma_a + params.gamma_b)):
        failures.append("cell-mass")

    windows: dict[int, int] = {}
    (ks,), nu_nums = nu._columns
    for k, num in zip(ks.tolist(), nu_nums.tolist()):
        cell = (k << n) >> nu.n  # floor(c * 2**n), exact for either sign
        windows[cell] = windows.get(cell, 0) + num
    heaviest = Fraction(max(windows.values()), nu.denom)
    if not _mass_le(heaviest, params.big_c, n * params.gamma):
        failures.append("nu-mass")

    gap = _least_y_gap(mu)
    # dist of cells k and k + gap is (gap - 1) * Delta >= Delta**xi
    if gap is not None and not pow2_le(n * (1 - params.xi), gap - 1):
        failures.append("separation")
    return failures


def _least_y_gap(mu: DiscreteMeasure) -> int | None:
    """The least index gap between distinct occupied y-cells of ``mu``;
    None when it occupies one y-cell only."""
    ys = _distinct(np.sort(mu._columns[0][1]))
    return int(np.diff(ys).min()) if ys.size > 1 else None


def _projected_cells(mu: DiscreteMeasure, c: Fraction) -> np.ndarray:
    """Each atom's image cell ``(kx * q + p * ky) // q`` for ``c = p / q``,
    independent of ``project()``; in int64 while ``max|k| * 2q`` (``|p| <=
    q``) stays below 2**63, else in Python integers."""
    p, q = c.numerator, c.denominator
    xs, ys = mu._columns[0]
    k_max = max(int(np.abs(xs).max()), int(np.abs(ys).max()))
    if k_max.bit_length() + q.bit_length() + 1 < 64:
        return (xs * q + p * ys) // q
    return np.array([(kx * q + p * ky) // q for kx, ky in zip(xs.tolist(), ys.tolist())])


def l2_of_projection(mu: DiscreteMeasure, c) -> Fraction:
    """Exact squared L2 norm of the Delta-discretised pushforward.

    The value is ``2**n * sum_I nu(I)**2`` where nu is the pushforward of
    ``mu`` under ``(x, y) -> x + c*y`` and I runs over grid cells.  Every
    call certifies it (``l2-dual-route``) by two evaluation routes, at
    every size: the pushforward route (bit-shift projection, then
    bucket-and-square) and a pair-counting route that floors each image
    value by integer division and adds the weighted same-cell pairs.
    """
    if mu.dim != 2:
        raise ValueError("l2_of_projection expects a planar measure")
    c = Fraction(c)
    ssq = _slope_stats(mu, [dyadic_slope(c)], None, mu.n)[0][2]
    value = Fraction(ssq << mu.n, mu.denom * mu.denom)
    # the same-cell pairs weigh the squared weight sums of the runs of
    # equal cells; a run sum is at most denom, so its square may pass int64
    cells = _projected_cells(mu, c)
    order = np.argsort(cells)
    sums = np.add.reduceat(mu._columns[1][order], _run_starts(cells[order]))
    if mu.denom * mu.denom >= 1 << 63:
        sums = sums.astype(object)
    pair_value = Fraction(int(sums @ sums) << mu.n, mu.denom**2)
    # the two exact routes must agree: any difference is a negative slack
    certify("l2-dual-route", -abs(pair_value - value))
    return value


def _neighbour_ranks(col: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """The number of distinct values of ``col``, and for d = -1, 0, 1 the
    rank among them of each value plus d, -1 where that value is absent."""
    distinct = _distinct(np.sort(col))
    rank = np.searchsorted(distinct, col)
    step = np.diff(distinct) == 1  # gaps of distinct keys within +-2**62 fit int64
    down = np.where(np.concatenate(([False], step))[rank], rank - 1, -1)
    up = np.where(np.concatenate((step, [False]))[rank], rank + 1, -1)
    return distinct.size, [down, rank, up]


def _near_mass(mu: DiscreteMeasure) -> Fraction:
    """The (mu x mu)-mass of the near pairs, ``|dx| <= 1`` and ``|dy| <= 1``
    (the diagonal included), exactly.  Each atom is keyed by the ranks of
    its coordinates among the distinct ones, ``rank_x * ny + rank_y``,
    below N**2 for N atoms, so int64 for any coordinates; the neighbour at
    each of the nine offsets is looked up in the sorted keys.  An offset's
    weight products add up to at most ``denom**2``: int64 below 2**63,
    Python integers past it."""
    (xs, ys), wts = mu._columns
    _, x_near = _neighbour_ranks(xs)
    ny, y_near = _neighbour_ranks(ys)
    key = x_near[1] * ny + y_near[1]
    order = np.argsort(key)
    key = key[order]
    if mu.denom * mu.denom >= 1 << 63:
        wts = wts.astype(object)
    near = wts[order]
    total = 0
    for rx in x_near:
        for ry in y_near:
            q = np.where((rx >= 0) & (ry >= 0), rx * ny + ry, -1)
            j = np.minimum(np.searchsorted(key, q), key.size - 1)
            total += int(wts @ np.where(key[j] == q, near[j], 0))
    return Fraction(total, mu.denom**2)


def _far_mass(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Fraction:
    """The largest nu-mass of a slope window ``[c, c + 2/g)`` over nu's
    atoms c, where ``g = max(2, least gap between mu's y-cells)``; 0 when
    mu occupies one y-cell.  Exact: in nu's indices ``k``, the window of
    ``k_i`` holds the ``k_j >= k_i`` with ``(k_j - k_i) * g < 2**(nu.n + 1)``,
    that is ``k_j < k_i + ceil(2**(nu.n + 1) / g)``.  The slopes satisfy
    ``|k| <= 2**nu.n`` and lie within +-2**62, so that sum fits int64."""
    gap = _least_y_gap(mu)
    if gap is None:
        return Fraction(0)
    (ks,), nums = nu._columns
    order = np.argsort(ks)
    ks = ks[order]
    cum = np.concatenate(([0], np.cumsum(nums[order])))
    ends = np.searchsorted(ks, ks + -(-(2 << nu.n) // max(2, gap)), "left")
    return Fraction(int((cum[ends] - cum[:-1]).max()), nu.denom)


def _slope_reads(
    mu: DiscreteMeasure, nu: DiscreteMeasure, params: ProjectionParams, strict: bool
) -> tuple[list[str], list[tuple[Fraction, int]], list]:
    """The audit failures (refused in strict mode), nu's atoms as (slope, numerator over
    ``nu.denom``) by ascending slope, and every slope's level-n ``_slope_stats`` of mu."""
    failures = audit_hypotheses(mu, nu, params)
    if failures and strict:
        raise ValueError("hypothesis audit failed: " + ", ".join(failures))
    scale = 1 << nu.n
    (ks,), nums = nu._columns
    order = np.argsort(ks)
    slopes = [(Fraction(k, scale), num) for k, num in zip(ks[order].tolist(), nums[order].tolist())]
    return failures, slopes, _slope_stats(mu, [dyadic_slope(c) for c, _ in slopes], None, mu.n)


@dataclass(frozen=True)
class ProjectionAverageReport:
    n: int
    params: ProjectionParams
    per_c: tuple  # ((c, l2 value) pairs, both exact)
    average: Fraction
    bound: float
    fitted: float
    audit_failures: tuple

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "params": self.params,
            "per_c": [
                {"c": str(c), "l2": str(v), "l2_float": float(v)}
                for c, v in self.per_c
            ],
            "average": str(self.average),
            "average_float": float(self.average),
            "bound": self.bound,
            "fitted": self.fitted,
            "audit_failures": list(self.audit_failures),
        }


def averaged_l2(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    params: ProjectionParams,
    strict: bool = True,
) -> ProjectionAverageReport:
    """nu-average of the projected L2 norms, with the bound it should obey.

    The three hypotheses are audited first; in strict mode a violation
    raises, otherwise the evaluation proceeds and the report records which
    hypothesis failed (exploratory use).  ``fitted`` is the measured
    average divided by the bound's max term, so the hypothesis constant C
    and any implied constant are folded into one observable number.

    Every call also certifies the near/far split behind the bound,
    ``average <= 2**n * (near + far)`` (``l2-near-far``, exact), with
    ``near`` from _near_mass and ``far`` from _far_mass, both exact at
    every size, as each norm is by l2_of_projection's ``l2-dual-route``.  The
    average is exactly ``2**n * sum_{p,q} mu(p) mu(q) nu(W(p, q))`` over
    atom pairs, where ``W(p, q)`` holds the slopes that put p and q in one
    image cell; for gaps ``dx, dy`` in cells that needs ``|dx + c*dy| <
    1``.  A near pair has ``nu(W) <= 1``.
    Every other pair is far:

      * with ``|dy| <= 1`` it has ``|dx| >= 2``, so ``|dx + c*dy| >= 1``
        for every ``|c| <= 1``, and ``W`` is empty;
      * otherwise ``|dy| >= g``, and ``W`` lies in the open interval of
        slopes of length ``2/|dy| <= 2/g`` where ``|dx + c*dy| < 1``.  The
        nu-atoms of an open interval of length at most ``2/g`` lie in
        ``[c, c + 2/g)`` for the least of them, c, so ``nu(W) <= far``.

    The far pairs weigh at most 1 in all, hence the bound.  It needs none
    of the three audited hypotheses, so it holds under ``strict=False``
    too.  It certifies the mechanism, not a tight constant: on a spread
    4,096-atom product with 8 slopes the bound is about 1,900 times the
    average.
    """
    failures, slopes, _ = _slope_reads(mu, nu, params, strict)
    per_c = []
    average = Fraction(0)
    for c, num in slopes:  # each norm reads the prologue's memoised statistics
        value = l2_of_projection(mu, c)
        per_c.append((c, value))
        average += Fraction(num, nu.denom) * value

    n = mu.n
    certify("l2-near-far", (_near_mass(mu) + _far_mass(mu, nu)) * (1 << n) - average)
    exp_near = float(params.gamma_a + params.gamma_b - 1)
    exp_far = float(params.gamma - 1 - params.xi)
    max_term = max(2.0 ** (-n * exp_near), 2.0 ** (-n * exp_far))
    bound = float(params.big_c) * max_term
    return ProjectionAverageReport(
        n=n,
        params=params,
        per_c=tuple(per_c),
        average=average,
        bound=bound,
        fitted=float(average) / max_term,
        audit_failures=tuple(failures),
    )


@dataclass(frozen=True)
class EntropyAverageReport:
    n: int
    value: float
    rhs: float
    jensen_lhs: float
    jensen_rhs: float
    rhs_low: float | None = None
    per_c: tuple = field(default=())

    @property
    def slack(self) -> float:
        return self.value - self.rhs

    @property
    def slack_low(self) -> float | None:
        if self.rhs_low is None:
            return None
        return self.value - self.rhs_low

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "value": self.value,
            "rhs": self.rhs,
            "slack": self.slack,
            "jensen_lhs": self.jensen_lhs,
            "jensen_rhs": self.jensen_rhs,
            "per_c": [
                {"c": str(c), "entropy": h, "l2": str(v)} for c, h, v in self.per_c
            ],
        }
        if self.rhs_low is not None:
            out["rhs_low"] = self.rhs_low
            out["slack_low"] = self.slack_low
        return out


def averaged_projection_entropy(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    params: ProjectionParams,
    low: LowBlockShape | None = None,
    c0_bits: float = 10.0,
    strict: bool = True,
) -> EntropyAverageReport:
    """nu-average of the projected entropies at full resolution.

    Combines the L2 average with two per-instance certificates, checked on
    every call: entropy against L2 (``H >= n - log2 ||.||_2^2`` for each
    slope) and Jensen's inequality for the log of the average.  The
    resulting lower bound is

        n * min(gamma_a + gamma_b, gamma - xi) - log2(C) - c0_bits,

    where ``c0_bits`` is the budget for the implied constant (matching the
    fitted-constant budget used by averaged_l2).

    When ``low`` describes a branching-poor block, the bound is restated in
    branching form: log2(r_a) + xi * zeta * bits - log2(40) - c0_bits.  The
    exponent collapse behind that form (min of the two exponents is the
    gamma_a + xi * zeta branch) is verified exactly on the given rationals,
    as are the consistency conditions tying ``low`` to ``params``.
    """
    _, slopes, stats = _slope_reads(mu, nu, params, strict)
    n = mu.n
    per_c = []
    value = 0.0
    ssq_sum = 0  # nu.denom * mu.denom**2 / 2**n times the nu-average of the squared L2 norms
    log_sum = 0.0
    l2_denom = mu.denom * mu.denom
    for (c, num), (_, (h,), ssq) in zip(slopes, stats):
        l2 = Fraction(ssq << n, l2_denom)
        certify("entropy-l2", h - (n - math.log2(l2)), _TOL)
        per_c.append((c, h, l2))
        weight = num / nu.denom  # float(Fraction(num, nu.denom)), bit for bit
        value += weight * h
        ssq_sum += num * ssq
        log_sum += weight * math.log2(l2)

    jensen_lhs = -log_sum
    jensen_rhs = -math.log2(Fraction(ssq_sum << n, nu.denom * l2_denom))
    certify("jensen", jensen_lhs - jensen_rhs, _TOL)

    rhs = (
        n * min(float(params.gamma_a + params.gamma_b), float(params.gamma - params.xi))
        - math.log2(float(params.big_c))
        - c0_bits
    )
    rhs_low = None
    if low is not None:
        if mu.n != low.bits:
            raise ValueError("block bit length must match the measure resolution")
        if params.xi != 2 * low.xi:
            raise ValueError("the block's audit runs at separation exponent 2 * xi")
        if not (pow2_le(n * params.gamma_a, low.r_a) and pow2_ge(n * params.gamma_a, low.r_a)):
            raise ValueError("gamma_a must encode the block's branching count")
        if params.gamma_b < low.xi * low.zeta:
            raise ValueError("the block's B-branching rate must be at least xi * zeta")
        if params.gamma_a > low.big_gamma:
            raise ValueError("a branching-poor block needs gamma_a <= big_gamma")
        # exponent collapse, exact on the rationals:
        lo_exp = min(
            params.gamma_a + params.gamma_b, low.gamma - 2 * low.xi
        )
        certify("exponent-collapse", lo_exp - (params.gamma_a + low.xi * low.zeta))
        rhs_low = (
            math.log2(low.r_a)
            + float(low.xi * low.zeta) * low.bits
            - math.log2(40.0)
            - c0_bits
        )

    report = EntropyAverageReport(
        n=n,
        value=value,
        rhs=rhs,
        jensen_lhs=jensen_lhs,
        jensen_rhs=jensen_rhs,
        rhs_low=rhs_low,
        per_c=tuple(per_c),
    )
    certify("averaged-entropy", report.slack, _TOL)
    if rhs_low is not None:
        certify("branching-form", report.slack_low, _TOL)
    return report
