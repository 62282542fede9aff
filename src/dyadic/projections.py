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

The mechanism behind the bound splits mass pairs into near pairs (within
10*Delta of each other, controlled by the cell-mass hypothesis) and far
pairs (the slopes threading both points through one tube form a short
window, controlled by the nu-mass and separation hypotheses).  Both halves
of that argument are independently checkable on concrete instances, and
the helpers near_pair_mass, far_pair_nu_masses, common_tube_c_set and
vertical_separation_margin expose exactly those checks.

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

from .grid import pow2_ge, pow2_le
from .measures import (
    DiscreteMeasure,
    discretize_density_l2,
    entropy,
    project,
)

__all__ = [
    "ProjectionParams",
    "LowBlockShape",
    "ProjectionAverageReport",
    "EntropyAverageReport",
    "audit_hypotheses",
    "l2_of_projection",
    "averaged_l2",
    "averaged_projection_entropy",
    "near_pair_mass",
    "far_pair_nu_masses",
    "common_tube_c_set",
    "tube_diameter_ok",
    "vertical_separation_margin",
]

PAIR_PATH_LIMIT = 10_000
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

    worst = Fraction(max(mu.atoms.values()), mu.denom)
    if not _mass_le(worst, params.big_c, n * (params.gamma_a + params.gamma_b)):
        failures.append("cell-mass")

    windows: dict[int, int] = {}
    for k, num in nu.atoms.items():
        cell = (k << n) >> nu.n  # floor(c * 2**n), exact for either sign
        windows[cell] = windows.get(cell, 0) + num
    heaviest = Fraction(max(windows.values()), nu.denom)
    if not _mass_le(heaviest, params.big_c, n * params.gamma):
        failures.append("nu-mass")

    ys = sorted({ky for _, ky in mu.atoms})
    if len(ys) > 1:
        gap = min(b - a for a, b in zip(ys, ys[1:]))
        # dist of cells k and k + gap is (gap - 1) * Delta >= Delta**xi
        if not pow2_le(n * (1 - params.xi), gap - 1):
            failures.append("separation")
    return failures


def _projected_cells(mu: DiscreteMeasure, c: Fraction) -> list[int]:
    # independent of project(): exact rational floor of the image value
    return [math.floor(kx + c * ky) for kx, ky in mu.atoms]


def l2_of_projection(mu: DiscreteMeasure, c, check="auto") -> Fraction:
    """Exact squared L2 norm of the Delta-discretised pushforward.

    The value is ``2**n * sum_I nu(I)**2`` where nu is the pushforward of
    ``mu`` under ``(x, y) -> x + c*y`` and I runs over grid cells.  Two
    evaluation routes are compared when ``check`` permits: the pushforward
    route (bit-shift projection, then bucket-and-square) and a pair-counting
    route that floors each image value with Fraction arithmetic and counts
    weighted same-cell pairs with a quadratic scan.  ``check="auto"`` runs
    the second route up to 10**4 support atoms; ``check=True`` insists and
    raises beyond the limit; ``check=False`` skips it.
    """
    if mu.dim != 2:
        raise ValueError("l2_of_projection expects a planar measure")
    c = Fraction(c)
    pushed = project(mu, c)
    value = discretize_density_l2(pushed, mu.n)

    size = len(mu.atoms)
    if check == "auto":
        check = size <= PAIR_PATH_LIMIT
    elif check and size > PAIR_PATH_LIMIT:
        raise ValueError(f"pair-counting path refused above {PAIR_PATH_LIMIT} atoms")
    if check:
        cells = np.array(_projected_cells(mu, c), dtype=np.int64)
        wts = np.array(list(mu.atoms.values()), dtype=np.int64)
        pair_total = 0
        for lo in range(0, size, 512):
            block = cells[lo : lo + 512, None] == cells[None, :]
            pair_total += int(wts[lo : lo + 512] @ block @ wts)
        pair_value = Fraction(pair_total << mu.n, mu.denom**2)
        assert pair_value == value, "projection L2 paths disagree"
    return value


def _nu_atoms_as_slopes(nu: DiscreteMeasure) -> list[tuple[Fraction, Fraction]]:
    scale = 1 << nu.n
    return [
        (Fraction(k, scale), Fraction(num, nu.denom))
        for k, num in sorted(nu.atoms.items())
    ]


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
            "params": {
                "gamma_a": str(self.params.gamma_a),
                "gamma_b": str(self.params.gamma_b),
                "gamma": str(self.params.gamma),
                "xi": str(self.params.xi),
                "big_c": str(self.params.big_c),
            },
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
    check="auto",
) -> ProjectionAverageReport:
    """nu-average of the projected L2 norms, with the bound it should obey.

    The three hypotheses are audited first; in strict mode a violation
    raises, otherwise the evaluation proceeds and the report records which
    hypothesis failed (exploratory use).  ``fitted`` is the measured
    average divided by the bound's max term, so the hypothesis constant C
    and any implied constant are folded into one observable number.
    """
    failures = audit_hypotheses(mu, nu, params)
    if failures and strict:
        raise ValueError("hypothesis audit failed: " + ", ".join(failures))

    per_c = []
    average = Fraction(0)
    for c, weight in _nu_atoms_as_slopes(nu):
        value = l2_of_projection(mu, c, check=check)
        per_c.append((c, value))
        average += weight * value

    n = mu.n
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

    Combines the L2 average with two per-instance certificates, asserted on
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
    failures = audit_hypotheses(mu, nu, params)
    if failures and strict:
        raise ValueError("hypothesis audit failed: " + ", ".join(failures))

    n = mu.n
    per_c = []
    value = 0.0
    avg_l2 = Fraction(0)
    log_sum = 0.0
    for c, weight in _nu_atoms_as_slopes(nu):
        l2 = l2_of_projection(mu, c, check=False)
        h = entropy(project(mu, c), n)
        assert h >= n - math.log2(l2) - _TOL, "entropy fell below the L2 certificate"
        per_c.append((c, h, l2))
        value += float(weight) * h
        avg_l2 += weight * l2
        log_sum += float(weight) * math.log2(l2)

    jensen_lhs = -log_sum
    jensen_rhs = -math.log2(avg_l2)
    assert jensen_lhs >= jensen_rhs - _TOL, "Jensen step failed numerically"

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
        assert lo_exp >= params.gamma_a + low.xi * low.zeta, "exponent collapse failed"
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
    assert report.slack >= -_TOL, "averaged entropy fell below its lower bound"
    if rhs_low is not None:
        assert report.slack_low >= -_TOL, "branching-form lower bound failed"
    return report


def near_pair_mass(mu: DiscreteMeasure, radius_cells: int = 10) -> Fraction:
    """(mu x mu)-mass of pairs within ``radius_cells`` grid cells.

    The diagonal is included.  Under the cell-mass hypothesis this is at
    most C * Delta**(gamma_a + gamma_b) times the ball's cell count, which
    for the default radius is 441 < 2**9.
    """
    if mu.dim != 2:
        raise ValueError("near_pair_mass expects a planar measure")
    if len(mu.atoms) > PAIR_PATH_LIMIT:
        raise ValueError(f"quadratic scan refused above {PAIR_PATH_LIMIT} atoms")
    keys = list(mu.atoms)
    xs = np.array([k[0] for k in keys], dtype=np.int64)
    ys = np.array([k[1] for k in keys], dtype=np.int64)
    wts = np.array([mu.atoms[k] for k in keys], dtype=np.int64)
    r2 = radius_cells * radius_cells
    total = 0
    for lo in range(0, len(keys), 512):
        dx = xs[lo : lo + 512, None] - xs[None, :]
        dy = ys[lo : lo + 512, None] - ys[None, :]
        near = dx * dx + dy * dy < r2
        total += int(wts[lo : lo + 512] @ near @ wts)
    return Fraction(total, mu.denom**2)


def _common_window(px, py, qx, qy, k, shift) -> bool:
    # both image values in one cell, for slope k / 2**shift; exact integers
    return ((px << shift) + k * py) >> shift == ((qx << shift) + k * qy) >> shift


def far_pair_nu_masses(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    xi,
    sample: int = 256,
    rng=None,
) -> list[Fraction]:
    """Per-pair nu-mass of the slope window, for sampled far support pairs.

    A pair is far when its distance is at least Delta**xi (exact integer
    comparison); its slope window is the set of nu-atoms c threading both
    points through a common cell.  Under the nu-mass and separation
    hypotheses each returned mass is small: the window is short, so it
    meets few length-Delta cells.
    """
    if mu.dim != 2:
        raise ValueError("far_pair_nu_masses expects a planar measure")
    xi = Fraction(xi)
    rng = np.random.default_rng(rng)
    keys = list(mu.atoms)
    if len(keys) < 2:
        return []
    n = mu.n
    out = []
    slope_atoms = sorted(nu.atoms.items())
    for _ in range(sample):
        i, j = rng.integers(0, len(keys), size=2)
        if i == j:
            continue
        (px, py), (qx, qy) = keys[i], keys[j]
        dist2 = (px - qx) ** 2 + (py - qy) ** 2
        if not pow2_le(2 * n * (1 - xi), dist2):
            continue  # not a far pair
        num = sum(
            w for k, w in slope_atoms if _common_window(px, py, qx, qy, k, nu.n)
        )
        out.append(Fraction(num, nu.denom))
    return out


def common_tube_c_set(p, q, n: int, lo: int = -1, hi: int = 1) -> list[Fraction]:
    """All dyadic slopes ``j / 2**n`` in [lo, hi] threading p and q through
    a common grid cell.  p and q are index pairs at resolution ``2**-n``."""
    (px, py), (qx, qy) = p, q
    out = []
    for j in range((lo << n), (hi << n) + 1):
        if _common_window(px, py, qx, qy, j, n):
            out.append(Fraction(j, 1 << n))
    return out


def tube_diameter_ok(p, q, n: int) -> bool:
    """Whether the slope window of (p, q) has diameter <= 4 * Delta / |p_y - q_y|.

    Vacuously true when fewer than two slopes qualify; exact integers
    otherwise.  Pairs with equal y-cells pass only with an empty or
    singleton window (their window cannot be short).
    """
    cs = common_tube_c_set(p, q, n)
    if len(cs) < 2:
        return True
    dky = abs(p[1] - q[1])
    if dky == 0:
        return False
    spread = cs[-1] - cs[0]
    # spread <= 4 * Delta / (dky * Delta)  <=>  spread * dky <= 4
    return spread * dky <= 4


def vertical_separation_margin(n: int, radius_cells: int = 10) -> float:
    """Minimal image-value gap (in cells) over all nearly-horizontal far pairs.

    Scans the difference space exhaustively: x-gap dx and y-gap dky with
    dx**2 + dky**2 >= radius_cells**2 and |dky| <= 1, against every dyadic
    slope j / 2**n in [-1, 1].  The image values of such a pair differ by
    |dx + j * dky / 2**n| cells; a margin >= 1 certifies, for every actual
    position pair with those gaps, that no common cell exists, hence a far
    pair threading a common tube must have |y-gap| >= 2 cells.  Covering
    all (dx, dky, j) covers all position pairs, so this is stronger than
    enumerating positions.
    """
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
