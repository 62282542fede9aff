"""Experiment harness: expansion exponents measured end to end.

Everything here drives the library toward one question: how much larger
than ``A`` is ``A + cB`` at resolution delta, for typical slopes ``c``
drawn from a structured set ``C``?  The module provides

* closed-form alignment examples where the growth is provably slow
  (``run_alignment_sharpness``),
* the doubling ladder and the greedy iterated-sum algorithm, whose
  pigeonhole steps are certified on every run,
* a seeded sweep measuring expansion exponents across slope-set
  densities (``run_expansion_sweep``),
* a synthetic multiscale assembly (``run_final_assembly``) that builds a
  polarised instance by construction, runs every surgery (pruning,
  interval extension, classification, suffix collapse), and verifies the
  averaged entropy chain against per-block lower bounds.

All randomness flows from one 64-bit seed through named substreams, so
every emitted table is bit-reproducible.  Sweep points are evaluated
with vectorised kernels and gathered in a deterministic order before
emission.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from math import fsum
from typing import Iterable

import numpy as np

from .grid import DeltaSet, ParameterSet, ScaleSpec, aligned_exponent, certify, gen_ap
from .grid import FormatError, InstanceGenerationError, _distinct, _shifts
from .grid import _read, _read_list, _read_object, _read_ratio, _sum_support, _sum_width
from .grid import csv_text, format_float, json_text, load_json, sumset, write_json, write_rows_csv
from .measures import (
    _chain_reports,
    _fiber_bound,
    _sort_groups,
    counting_measure,
    coarsen,
    product_measure,
    renormalize_cell,
)
from .projections import (
    ProjectionParams,
    audit_hypotheses,
    averaged_projection_entropy,
)
from .trees import (
    BranchingProfile,
    Interval,
    IntervalFamily,
    classify_low_high,
    collapse_suffixes,
    extend_intervals,
    gen_uniform_tree,
    lift_intervals,
    polarisation_check,
    prune_adjacent,
    trivial_intervals,
)

__all__ = [
    "InstanceGenerationError",
    "SharpnessRow",
    "GreedyReport",
    "ExperimentConfig",
    "ExpansionRecord",
    "AssemblyParams",
    "AssemblyInstance",
    "BlockReport",
    "CellAuditReport",
    "AssemblyReport",
    "named_stream",
    "run_alignment_sharpness",
    "run_doubling_ladder",
    "run_greedy_iterated_sum",
    "run_expansion_sweep",
    "build_polarised_instance",
    "run_final_assembly",
    "format_float",
    "json_text",
    "csv_text",
    "write_rows_csv",
    "write_json",
]

_TOL = 2.0**-20
_C_SCAN_CAP = 10_000

FAMILIES = ("aligned-triple", "uniform-tree", "random-frostman", "polarised-tree")


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named component of one experiment.

    The name is hashed into the spawn key, so streams neither collide nor
    depend on the order in which components ask for them.
    """
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


# ---------------------------------------------------------------------------
# alignment sharpness


@dataclass(frozen=True)
class SharpnessRow:
    """Measured growth of one lattice-aligned instance.

    ``product_ratio`` is ``|A + B*C| / |A|`` and ``best_c_ratio`` is
    ``max_c |A + cB| / |A|``; the slopes are their logs measured against
    ``log(n_param)``, the exponent a power trend would show.
    """

    n_param: int
    size_a: int
    product_sum_size: int
    product_ratio: Fraction
    product_slope: float | None
    best_c: Fraction
    best_c_size: int
    best_c_ratio: Fraction
    best_c_slope: float | None


def _aligned_triple_sizes(t: int) -> tuple[int, int, int, Fraction]:
    """(|A|, |A + BC|, best-c size, best c) for the aligned triple of
    ``n_param = 16**t``."""
    root, quarter = 1 << (2 * t), 1 << t
    a_idx = np.arange(1, root + 1, dtype=np.int64)
    j = np.arange(1, quarter + 1, dtype=np.int64)
    # b*c = (j/2**t)(k/2**t) lands exactly on A's 2**-2t lattice: index j*k
    prods = _distinct(np.sort(np.multiply.outer(j, j), axis=None))
    sum_size = int(_sum_support(a_idx, prods).size)
    best_k, best_size = 1, -1
    for k in range(1, quarter + 1):
        # c = k/2**t applied to B's indices j*2**t shifts by exactly j*k
        size = int(_sum_support(a_idx, k * j).size)
        if size > best_size:
            best_k, best_size = k, size
    return root, sum_size, best_size, Fraction(best_k, quarter)


def run_alignment_sharpness(n_params: Iterable[int]) -> list[SharpnessRow]:
    """Growth ratios of the aligned triples, with their power-trend slopes.

    Sizes are found by full enumeration of the outcome values.  Across the
    given parameters (ascending) the slopes must strictly decrease: the
    growth is genuinely subpolynomial, not a power law.  Parameters must be
    1 or powers of 16, at most ``2**24`` (the enumeration guard).
    """
    rows = []
    for n_param in sorted(set(int(x) for x in n_params)):
        if n_param > (1 << 24):
            raise ValueError("n_param exceeds the enumeration guard 2**24")
        t = aligned_exponent(n_param)
        if t == 0:
            one = Fraction(1)
            rows.append(SharpnessRow(1, 1, 1, one, None, one, 1, one, None))
            continue
        size_a, sum_size, best_size, best_c = _aligned_triple_sizes(t)
        ratio = Fraction(sum_size, size_a)
        ratio_c = Fraction(best_size, size_a)
        logn = math.log(n_param)
        rows.append(
            SharpnessRow(
                n_param,
                size_a,
                sum_size,
                ratio,
                math.log(ratio) / logn,
                best_c,
                best_size,
                ratio_c,
                math.log(ratio_c) / logn,
            )
        )
    for name in ("product_slope", "best_c_slope"):
        slopes = [getattr(r, name) for r in rows if getattr(r, name) is not None]
        # strictly decreasing: a tolerance of minus the least float demands drop > 0
        drop = min((a - b for a, b in zip(slopes, slopes[1:])), default=1.0)
        certify(f"sharpness-{name}-trend", drop, -math.ulp(0.0))
    return rows


# ---------------------------------------------------------------------------
# doubling ladder


def run_doubling_ladder(B: DeltaSet, n_steps: int = 6) -> tuple[int, list[tuple[int, int]]]:
    """Sizes of the repeated doublings ``B, 2B, 4B, ...`` and the slow step.

    Returns the first ``k in 1..n_steps-1`` whose doubling is slow,
    ``|2^(k+1)B|**s <= 2**s * 2**n * |2^k B|**s`` with ``s = n_steps``
    (the exact-integer form of one-step growth at most ``2 * delta**(-1/s)``),
    plus the table ``[(k, |2^k B|)]``.  Such a step always exists: were
    every ratio larger, the sizes would outgrow the width bound
    ``|2^s B| <= 2^s / delta``.  A missing step is therefore a bug, and
    raises CertificateError.
    """
    if n_steps < 2:
        raise ValueError("need n_steps >= 2")
    if len(B) == 0:
        raise ValueError("B must be nonempty")
    sizes = [len(B)]
    cur = B
    for _ in range(n_steps):
        cur = sumset(cur, 1, cur, max_width=(1 << n_steps) + 1)
        sizes.append(len(cur))
    # sizes[1:] starts at |2B|, so its step k is the doubling of 2^k B
    found = _slow_step(sizes[1:], n_steps, B.n, "ladder-pigeonhole")
    return found, list(enumerate(sizes))


def _slow_step(sizes: list[int], s: int, n: int, name: str) -> int:
    """The first ``k >= 1`` with ``sizes[k]**s <= 2**(s+n) * sizes[k-1]**s``.

    The pigeonhole argument guarantees one, so the certificate ``name``
    checks the largest margin ``2**(s+n) * sizes[k-1]**s - sizes[k]**s``.
    """
    margins = [(1 << (s + n)) * a**s - b**s for a, b in zip(sizes, sizes[1:])]
    certify(name, max(margins))
    return next(k for k, m in enumerate(margins, start=1) if m >= 0)


# ---------------------------------------------------------------------------
# greedy iterated sum


@dataclass(frozen=True)
class GreedyReport:
    """Ladder of the greedy iterated-sum algorithm.

    ``sizes[i]`` is ``|H_(i+1)|``; ``n_star`` is the first pigeonhole step
    whose growth factor drops to ``2 * delta**(-1/(N-1))`` (exact integer
    comparison).  ``exponent`` is ``log2 |H_N| / n`` measured against
    ``target = beta + gamma*(1 - beta) - eta`` computed from the counting
    exponents of B and C.
    """

    n_star: int
    sizes: tuple[int, ...]
    c_sequence: tuple[Fraction, ...]
    delta_exponent: int
    exponent: float
    beta: float
    gamma: float
    eta: float
    target: float


def run_greedy_iterated_sum(B: DeltaSet, C: DeltaSet, n_steps: int, eta) -> GreedyReport:
    """Grow ``H_1 = c_1 B``, ``H_(k+1) = H_k + c_(k+1) B`` greedily.

    ``c_1`` is the smallest slope; afterwards each step takes the slope in C
    maximising ``|H_k + cB|`` at the grid resolution, ties to the smallest.
    ``H_k`` always sits inside ``[0, k)`` (slopes are at most 1 and B sits
    in the unit interval), which is what makes the pigeonhole step certain;
    the sumset width guard enforces exactly that accounting.  Each step
    builds ``H_k + cB`` for every slope with the sumset kernel
    ``_sum_support`` over the shifts of c precomputed once, and keeps the
    first largest as ``H_(k+1)``; sums past 2**63 or wider than
    ``n_steps + 1`` raise ValueError, as ``sumset`` does.
    """
    if len(B) == 0 or len(C) == 0:
        raise ValueError("B and C must be nonempty")
    if B.n != C.n:
        raise ValueError("B and C must share one grid resolution")
    if n_steps < 2:
        raise ValueError("need n_steps >= 2")
    if int(C.indices[-1]) > (1 << C.n):
        raise ValueError("slopes must lie in [0, 1]")
    n = B.n
    cs = [Fraction(int(k), 1 << n) for k in C.indices.tolist()]
    shift_table = [_shifts(c, B) for c in cs]
    top = max(int(shifts[-1]) for shifts in shift_table)
    h = sumset(DeltaSet(n, np.zeros(1, dtype=np.int64)), cs[0], B)
    sizes = [len(h)]
    chosen = [cs[0]]
    for _ in range(1, n_steps):
        if int(h.indices[-1]) + top >= 1 << 63:
            raise ValueError("sumset indices pass the int64 range")
        best_i, best = 0, None
        for i, shifts in enumerate(shift_table):
            support = _sum_support(h.indices, shifts)
            if best is None or support.size > best.size:  # ties keep the smallest c
                best_i, best = i, support
        h = DeltaSet(n, best, _sum_width(n, int(best[-1]), n_steps + 1))
        sizes.append(len(h))
        chosen.append(cs[best_i])
    certify("greedy-monotone", min(b - a for a, b in zip(sizes, sizes[1:])))
    n_star = _slow_step(sizes, n_steps - 1, n, "greedy-pigeonhole")
    beta = math.log2(len(B)) / n
    gamma = math.log2(len(C)) / n
    return GreedyReport(
        n_star=n_star,
        sizes=tuple(sizes),
        c_sequence=tuple(chosen),
        delta_exponent=n,
        exponent=math.log2(sizes[-1]) / n,
        beta=beta,
        gamma=gamma,
        eta=float(eta),
        target=beta + gamma * (1 - beta) - float(eta),
    )


# ---------------------------------------------------------------------------
# expansion sweep


# A sweep config's required keys, its exponents, and the defaults of the rest
_CONFIG_KEYS = ("alpha", "beta", "gamma", "scales", "gammas")
_CONFIG_EXPONENTS = ("alpha", "beta", "gamma", "kappa", "eta", "zeta")
_CONFIG_DEFAULTS = {"kappa": "1/2", "eta": "1/2", "zeta": "1/16", "ell": 16,
                    "family": "aligned-triple", "nu": "counting", "seed": 0, "out": None}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep specification: instance family, scales, slope densities.

    ``params`` carries the exponent bookkeeping (``alpha`` sizes A,
    ``beta`` sizes B); ``gammas`` are the slope-set densities to scan,
    deliberately free to range below and above the threshold
    ``(alpha - beta)/(1 - beta)`` that ``params.gamma`` itself must clear.
    Resolutions come as multiscale specs, so every delta has the form
    ``2**-(ell*m*N)``.
    """

    params: ParameterSet
    family: str = "aligned-triple"
    scales: tuple[ScaleSpec, ...] = ()
    gammas: tuple[Fraction, ...] = ()
    nu: str = "counting"
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        scales = tuple(self.scales)
        if not scales or not all(isinstance(s, ScaleSpec) for s in scales):
            raise ValueError("scales must be a nonempty tuple of ScaleSpec")
        gammas = tuple(Fraction(g) for g in self.gammas)
        if not gammas or not all(0 < g <= 1 for g in gammas):
            raise ValueError("gammas must be nonempty, each in (0, 1]")
        if self.nu != "counting":
            raise ValueError("only the counting slope measure is implemented")
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            **{key: str(getattr(self.params, key)) for key in _CONFIG_EXPONENTS},
            "ell": self.params.ell,
            "scales": [[s.m, s.ell, s.big_n] for s in self.scales],
            "gammas": [str(g) for g in self.gammas],
            "nu": self.nu,
            "seed": self.seed,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Read a parsed sweep config, the keys of ``to_dict`` with those of
        ``_CONFIG_DEFAULTS`` optional; a missing or unknown key, or a value
        of the wrong JSON type, raises ValueError naming it."""
        data = _read_object(data, "a sweep config", _CONFIG_KEYS, _CONFIG_DEFAULTS)
        ratios = {key: Fraction(*_read_ratio(data[key], repr(key))) for key in _CONFIG_EXPONENTS}
        params = ParameterSet(**ratios, ell=_read(data["ell"], int, "'ell'"))
        scales = tuple(
            ScaleSpec(*(_read(v, int, "a scale entry") for v in _read_list(row, "a scale row", 3)))
            for row in _read_list(data["scales"], "'scales'")
        )
        gammas = _read_list(data["gammas"], "'gammas'")
        return cls(
            params=params,
            family=_read(data["family"], str, "'family'"),
            scales=scales,
            gammas=tuple(Fraction(*_read_ratio(g, "a gamma")) for g in gammas),
            nu=_read(data["nu"], str, "'nu'"),
            seed=_read(data["seed"], int, "'seed'"),
            out=None if data["out"] is None else _read(data["out"], str, "'out'"),
        )

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """Read a sweep config JSON; a malformed one raises FormatError."""
        data = load_json(path)
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise FormatError(path, None, str(exc)) from None


@dataclass(frozen=True)
class ExpansionRecord:
    """Per-slope expansion exponents at one (delta, gamma) sweep point.

    ``exponents[i] = log2 |A + cs[i] B| / n - alpha_bar``; each must land in
    ``[-alpha_bar, 1 - alpha_bar + 1/n]`` (the sum sits in ``[0, 2)``, so
    the extra width contributes one bit).  ``sampled`` discloses whether
    the slope scan was exhaustive or a seeded sample.  The per-slope lists
    come last, so the JSON gives the summary first.
    """

    delta_exponent: int
    gamma: Fraction
    family: str
    alpha_bar: float
    size_a: int
    size_b: int
    best_c: Fraction
    best_exponent: float
    median_exponent: float
    mean_exponent: float
    sampled: bool
    sample_size: int
    cs: tuple[Fraction, ...]
    exponents: tuple[float, ...]

    def __post_init__(self):
        if len(self.cs) != len(self.exponents) or not self.cs:
            raise ValueError("need one exponent per slope")
        n = self.delta_exponent
        lo, hi = -self.alpha_bar - _TOL, 1 - self.alpha_bar + 1 / n + _TOL
        if not all(lo <= e <= hi for e in self.exponents):
            raise ValueError("expansion exponent outside its provable range")

    @property
    def delta(self) -> float:
        return 2.0 ** -self.delta_exponent

    def to_rows(self) -> list[dict]:
        return [
            {
                "delta_exponent": self.delta_exponent,
                "gamma": str(self.gamma),
                "family": self.family,
                "alpha_bar": self.alpha_bar,
                "c": str(c),
                "exponent": e,
                "sampled": int(self.sampled),
            }
            for c, e in zip(self.cs, self.exponents)
        ]


def _level_profile(n: int, levels) -> BranchingProfile:
    """The binary profile of ``n`` levels that branches at ``levels`` only."""
    return BranchingProfile(1, tuple(2 if s in levels else 1 for s in range(n)))


def _build_sweep_sets(
    family: str, n: int, a_bits: int, b_bits: int, rng: np.random.Generator
) -> tuple[DeltaSet, DeltaSet]:
    if family == "aligned-triple":
        # maximal arithmetic structure: the conjecturally worst case
        return gen_ap(n, 1 << a_bits), gen_ap(n, 1 << b_bits)
    if family == "uniform-tree":
        a_levels = set(rng.choice(n, size=a_bits, replace=False).tolist())
        b_levels = set(rng.choice(n, size=b_bits, replace=False).tolist())
        pa, pb = _level_profile(n, a_levels), _level_profile(n, b_levels)
        return gen_uniform_tree(pa), gen_uniform_tree(pb)
    if family == "random-frostman":
        a_idx = np.sort(rng.choice(1 << n, size=1 << a_bits, replace=False))
        b_idx = np.sort(rng.choice(1 << n, size=1 << b_bits, replace=False))
        return DeltaSet(n, a_idx), DeltaSet(n, b_idx)
    if family == "polarised-tree":
        if a_bits < b_bits:
            raise InstanceGenerationError(
                "polarisation", "A needs at least as many branching levels as B"
            )
        b_levels = set(rng.choice(n, size=b_bits, replace=False).tolist())
        rest, k = [s for s in range(n) if s not in b_levels], a_bits - b_bits
        extra = np.asarray(rest)[rng.choice(len(rest), size=k, replace=False)].tolist() if k else []
        pa, pb = _level_profile(n, b_levels.union(extra)), _level_profile(n, b_levels)
        certify("sweep-polarisation", -len(polarisation_check(pa, pb, Fraction(1, 2))))
        return gen_uniform_tree(pa), gen_uniform_tree(pb)
    raise ValueError(f"unknown family {family!r}")


def run_expansion_sweep(config: ExperimentConfig) -> list[ExpansionRecord]:
    """Measure ``log2 |A + cB| / n - alpha_bar`` across the configured grid.

    For each scale and each slope density gamma, the slope set is the full
    dyadic grid ``{k / 2**round(gamma*n)}``; it is scanned exhaustively up
    to 10^4 slopes and by a seeded sample of 10^4 beyond that (``sampled``
    on the record discloses which).  Each size is counted by the sumset
    kernel ``_sum_support``, at every n <= 62 and within its byte budget.
    Exactness spot check on each sweep point: moving A down by a whole unit
    cell keeps the size of its sumset with the first two slopes.
    Records are gathered and sorted by (delta, gamma) with slopes ascending
    inside each record, so emitted files are order-deterministic.
    """
    alpha, beta = config.params.alpha, config.params.beta
    records = []
    for scale in config.scales:
        n = scale.n
        a_bits = int(round(alpha * n))
        b_bits = int(round(beta * n))
        rng = named_stream(config.seed, f"sweep/{config.family}/n={n}/sets")
        A, B = _build_sweep_sets(config.family, n, a_bits, b_bits, rng)
        alpha_bar = math.log2(len(A)) / n
        a_idx = A.indices
        moved = a_idx - (1 << n)  # A one unit cell down: its sums stay inside int64 at n = 62
        for gamma in config.gammas:
            g = min(max(int(round(gamma * n)), 1), n)
            total = 1 << g
            if total > _C_SCAN_CAP:
                pick = named_stream(config.seed, f"sweep/c-sample/n={n}/gamma={gamma}")
                ks = np.sort(pick.choice(total, size=_C_SCAN_CAP, replace=False)) + 1
                sampled = True
            else:
                ks = np.arange(1, total + 1)  # slopes k/2**g in (0, 1]
                sampled = False
            cs = [Fraction(int(k), total) for k in ks.tolist()]
            sizes = [int(_sum_support(a_idx, _shifts(c, B)).size) for c in cs]
            exps = [math.log2(size) / n - alpha_bar for size in sizes]
            for c, size in zip(cs[:2], sizes):  # exactness spot checks
                certify("sweep-translation", -abs(size - _sum_support(moved, _shifts(c, B)).size))
            best = int(np.argmax(exps))  # first max: smallest slope wins ties
            records.append(
                ExpansionRecord(
                    delta_exponent=n,
                    gamma=gamma,
                    family=config.family,
                    alpha_bar=alpha_bar,
                    size_a=len(A),
                    size_b=len(B),
                    cs=tuple(cs),
                    exponents=tuple(exps),
                    best_c=cs[best],
                    best_exponent=exps[best],
                    median_exponent=float(np.median(exps)),
                    mean_exponent=float(np.mean(exps)),
                    sampled=sampled,
                    sample_size=len(cs),
                )
            )
    records.sort(key=lambda r: (r.delta, r.gamma))
    return records


# ---------------------------------------------------------------------------
# final assembly


@dataclass(frozen=True)
class AssemblyParams:
    """Free knobs of the synthetic assembly instance.

    The geometry is ``big_n`` coarse blocks of ``ell`` fine levels, ``m``
    bits each.  ``eta`` is the polarisation strength (B branching forces A
    to branch at ``ceil((1-eta)*m)`` bits), ``zeta`` the extension
    threshold rate, ``xi`` the kept-prefix rate of the suffix collapse,
    ``gamma_cap`` the low/high classification cap.  The slope set is the
    dyadic grid with ``c_bits`` bits; ``c0_bits`` is the frozen constant
    budget charged to every low block's projection bound.  ``pattern``
    optionally pins which coarse blocks branch ('b') or stay trivial
    ('t'); None draws it from the seed.
    """

    m: int = 2
    ell: int = 4
    big_n: int = 2
    eta: Fraction = Fraction(1, 2)
    zeta: Fraction = Fraction(1, 4)
    xi: Fraction = Fraction(1, 4)
    gamma_cap: Fraction = Fraction(3, 4)
    c_bits: int = 6
    c0_bits: float = 10.0
    pattern: str | None = None
    trivial_a_bits: int | None = None
    branch_b_bits: int | None = None

    def __post_init__(self):
        for name in ("eta", "zeta", "xi", "gamma_cap"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.m < 2 or self.ell < 1 or self.big_n < 1:
            raise ValueError("need m >= 2 and positive block counts")
        if not (0 < self.eta <= 1 and 0 < self.zeta <= 1 and 0 < self.gamma_cap <= 1):
            raise ValueError("eta, zeta, gamma_cap must lie in (0, 1]")
        if not 0 < self.xi < 1:
            raise ValueError("xi must lie in (0, 1)")
        if self.ell * self.zeta < 1:
            raise ValueError("extension needs ell * zeta >= 1")
        if self.eta * self.m < 1:
            # polarised branching must fit below 2**(m-1) so sibling cells
            # stay separated and adjacency pruning keeps the tree intact
            raise ValueError("need eta * m >= 1")
        if self.scale.n > 60:
            raise ValueError("resolution guard: ell * m * big_n <= 60")
        if not 1 <= self.c_bits <= self.scale.n:
            raise ValueError("c_bits must lie in 1..n")
        if self.c0_bits < 0:
            raise ValueError("c0_bits must be nonnegative")
        if self.pattern is not None:
            if len(self.pattern) != self.big_n or set(self.pattern) - set("bt"):
                raise ValueError("pattern must be big_n chars from {b, t}")
        if self.trivial_a_bits is not None and not 0 <= self.trivial_a_bits < self.m:
            raise ValueError("trivial_a_bits must lie in 0..m-1")
        if self.branch_b_bits is not None and not 1 <= self.branch_b_bits < self.m:
            raise ValueError("branch_b_bits must lie in 1..m-1")

    @property
    def scale(self) -> ScaleSpec:
        return ScaleSpec(self.m, self.ell, self.big_n)


@dataclass(frozen=True)
class AssemblyInstance:
    """A generated polarised pair with its exact branching profiles."""

    a: DeltaSet
    a_profile: BranchingProfile
    b: DeltaSet
    b_profile: BranchingProfile
    pattern: str


def build_polarised_instance(
    params: AssemblyParams, rng: np.random.Generator, pattern: str | None = None
) -> AssemblyInstance:
    """Draw a polarised pair satisfying every surgery hypothesis upfront.

    Coarse blocks marked 'b' branch on the B side (1..m-1 bits per level,
    forcing A to its polarised floor there); blocks marked 't' leave B
    trivial and let A branch freely at 0..m-1 bits.  ``trivial_a_bits`` and
    ``branch_b_bits`` pin those draws for hand-sized instances.  All
    placements are spread, so sibling cells are separated by an empty cell
    and adjacency pruning is lossless.  The polarisation audit runs before
    returning.
    """
    if pattern is None:
        pattern = "".join("bt"[int(rng.integers(0, 2))] for _ in range(params.big_n))
    if len(pattern) != params.big_n or set(pattern) - set("bt"):
        raise InstanceGenerationError("pattern", f"bad coarse pattern {pattern!r}")
    m, eta = params.m, params.eta
    floor_bits = math.ceil((1 - eta) * m)
    a_r, b_r = [], []
    for char in pattern:
        for _ in range(params.ell):
            if char == "b":
                b_bits = (
                    params.branch_b_bits
                    if params.branch_b_bits is not None
                    else int(rng.integers(1, m))
                )
                a_bits = floor_bits
            else:
                b_bits = 0
                a_bits = (
                    params.trivial_a_bits
                    if params.trivial_a_bits is not None
                    else int(rng.integers(0, m))
                )
            b_r.append(1 << b_bits)
            a_r.append(1 << a_bits)
    a_profile = BranchingProfile(m, tuple(a_r))
    b_profile = BranchingProfile(m, tuple(b_r))
    if a_profile.size() * b_profile.size() > 1 << 20:
        raise InstanceGenerationError(
            "size", "instance exceeds the 2**20 atom budget for exact chains"
        )
    a = gen_uniform_tree(a_profile, rng, placement="spread")
    b = gen_uniform_tree(b_profile, rng, placement="spread")
    violations = polarisation_check(a_profile, b_profile, eta)
    if violations:
        raise InstanceGenerationError(
            "polarisation", f"B branches but A stays flat at levels {violations}"
        )
    return AssemblyInstance(a, a_profile, b, b_profile, pattern)


@dataclass(frozen=True)
class BlockReport:
    """One partition block's verified lower bound on its chain term."""

    lo: int
    hi: int
    tag: str
    branch_bits_a: float
    branch_bits_b: float
    bound: float
    nu_avg_term: float
    margin: float


@dataclass(frozen=True)
class CellAuditReport:
    """Averaged projection bound re-verified on one conditioned cell.

    ``failures`` lists the bound's hypotheses the conditioned measure did
    not satisfy (the bound is only asserted when it is empty).
    """

    block: tuple[int, int]
    cell: tuple[int, int]
    failures: tuple[str, ...]
    rhs: float | None
    avg_entropy: float | None
    slack: float | None


@dataclass(frozen=True)
class AssemblyReport:
    """Outcome of one full multiscale assembly run.

    The headline inequality: the slope-averaged projected entropy is at
    least ``alpha_bar_bits + gain_bits - low_const_bits - useless_bits -
    chain_bits`` (``assembled_rhs``).  ``expanded`` records whether the
    best slope's entropy strictly exceeded ``alpha_bar_bits = log2|A'|``,
    i.e. whether the instance visibly expanded.
    """

    seed: int
    pattern: str
    n: int
    size_a: int
    size_b: int
    size_b_collapsed: int
    alpha_bar_bits: float
    intervals: tuple[tuple[int, int, str], ...]
    demoted: tuple[tuple[int, int, str], ...]
    blocks: tuple[BlockReport, ...]
    cs: tuple[Fraction, ...]
    per_c_entropy: tuple[float, ...]
    nu_avg_entropy: float
    best_c: Fraction
    best_entropy: float
    gain_bits: float
    low_const_bits: float
    useless_bits: float
    chain_bits: float
    assembled_rhs: float
    achieved: bool
    expanded: bool
    nonempty_low: bool
    cell_audits: tuple[CellAuditReport, ...]


def _block_bits(profile: BranchingProfile, lo: int, hi: int) -> float:
    return math.log2(profile.block_product(lo, hi))


def _conditioned_block_measure(mu, lo_bits: int, block_bits: int, q_key):
    """mu restricted to cell ``q_key`` at depth lo_bits, at block resolution."""
    sub = renormalize_cell(mu, q_key, lo_bits) if lo_bits else mu
    return coarsen(sub, block_bits) if sub.n > block_bits else sub


def run_final_assembly(params: AssemblyParams | None = None, seed: int = 0) -> AssemblyReport:
    """Build one instance, run every surgery, verify the assembled bound.

    Pipeline: generate a polarised pair; adjacency-prune A; find B's
    trivial coarse runs, lift, extend (threshold ``zeta``), classify
    against ``gamma_cap``; collapse suffixes of every extended interval
    long enough for the ``xi`` prefix rule (shorter ones are demoted to
    the complement); partition the levels into the retained low intervals
    and the maximal complementary runs.  For every slope of the dyadic
    ``c_bits`` grid the entropy chain is evaluated at the partition cuts,
    and every complementary block is checked against the branching floor
    ``log2 R_A - 1``.  Slope-averaged, each low block must clear
    ``log2 R_A + xi*zeta*(block bits) - log2(40) - c0_bits``; the averaged
    total must clear the sum of the block bounds minus the chain
    correction.  A capped number of conditioned cells inside low blocks
    re-verify the averaged projection bound end to end.
    """
    if params is None:
        params = AssemblyParams()
    rng = named_stream(seed, "assembly/instance")
    inst = build_polarised_instance(params, rng, params.pattern)
    m, ell, xi, zeta = params.m, params.ell, params.xi, params.zeta
    levels = ell * params.big_n
    n = params.scale.n

    try:
        a1, a_prof = prune_adjacent(inst.a, inst.a_profile)
        lifted = lift_intervals(trivial_intervals(inst.b_profile.coarsen(ell)), ell)
        extended = extend_intervals(inst.b_profile, lifted, zeta, ell)
        classified = classify_low_high(extended, a_prof, params.gamma_cap)
        retained = tuple(iv for iv in classified if xi * (len(iv) - 1) >= 1)
        demoted = tuple(iv for iv in classified if xi * (len(iv) - 1) < 1)
        b2, b_prof, _prefixes = collapse_suffixes(
            inst.b, inst.b_profile, IntervalFamily(retained), xi
        )
    except ValueError as exc:
        raise InstanceGenerationError("surgery", str(exc)) from exc

    low_ivs = [iv for iv in retained if iv.tag == "low"]
    blocks: list[Interval] = []
    pos = 0
    for iv in low_ivs:
        if iv.lo > pos:
            blocks.append(Interval(pos, iv.lo - 1, "useless"))
        blocks.append(iv)
        pos = iv.hi + 1
    if pos < levels:
        blocks.append(Interval(pos, levels - 1, "useless"))
    cuts = [0] + [m * (blk.hi + 1) for blk in blocks]
    h = len(blocks)

    mu = product_measure(counting_measure(a1), counting_measure(b2))
    alpha_bar_bits = math.log2(len(a1))
    cs = [Fraction(k, 1 << params.c_bits) for k in range(1, (1 << params.c_bits) + 1)]

    chains, stats = _chain_reports(mu, cs, cuts)  # certifies every slope's chain
    per_c_lhs = [rep.lhs for rep in chains]
    per_block_terms = list(zip(*[rep.block_terms for rep in chains]))

    gain_rate = float(xi * zeta)
    block_reports = []
    low_len = 0
    for j, blk in enumerate(blocks):
        bits_a = _block_bits(a_prof, blk.lo, blk.hi)
        bits_b = _block_bits(b_prof, blk.lo, blk.hi)
        avg = fsum(per_block_terms[j]) / len(cs)
        if blk.tag == "low":
            low_len += len(blk)
            bound = bits_a + gain_rate * m * len(blk) - math.log2(40) - params.c0_bits
        else:
            bound = bits_a - 1.0
            for term, (_, *block_stats) in zip(per_block_terms[j], stats):
                # block j's cells are the fiber bound's: worst >= bits_a - 1 is certified
                _fiber_bound(block_stats[j][1], bits_a)
                certify("assembly-block-term", term - bound, _TOL)
        certify("assembly-block-average", avg - bound, _TOL)
        block_reports.append(
            BlockReport(
                lo=blk.lo,
                hi=blk.hi,
                tag="low" if blk.tag == "low" else "useless",
                branch_bits_a=bits_a,
                branch_bits_b=bits_b,
                bound=bound,
                nu_avg_term=avg,
                margin=avg - bound,
            )
        )

    n_low = len(low_ivs)
    n_useless = h - n_low
    gain_bits = gain_rate * m * low_len
    low_const_bits = n_low * (math.log2(40) + params.c0_bits)
    useless_bits = float(n_useless)
    chain_bits = h * math.log2(3)
    assembled_rhs = (
        fsum(r.branch_bits_a for r in block_reports)
        + gain_bits
        - low_const_bits
        - useless_bits
        - chain_bits
    )
    nu_avg = fsum(per_c_lhs) / len(cs)
    certify("assembly-assembled", nu_avg - assembled_rhs, _TOL)
    best_idx = int(np.argmax(per_c_lhs))  # first max: smallest slope wins ties

    nu = counting_measure(DeltaSet(params.c_bits, np.arange(1, len(cs) + 1), width=2))
    audits = []
    for blk in low_ivs[:1]:
        lo_bits, block_bits = m * blk.lo, m * len(blk)
        if lo_bits:
            xs, ys = (k >> (n - lo_bits) for k in mu._columns[0])
            order, starts = _sort_groups([xs, ys])
            q_keys = [(int(xs[i]), int(ys[i])) for i in order[starts[:2]]]
        else:
            q_keys = [(0, 0)]
        card_a = a_prof.block_product(blk.lo, blk.hi)
        card_b = b_prof.block_product(blk.lo, blk.hi)
        if card_a & (card_a - 1) or card_b & (card_b - 1):
            continue  # exact rational exponents need power-of-two branching
        xi_audit = 2 * xi + Fraction(1, block_bits)
        if xi_audit > 1 or params.c_bits > block_bits:
            continue
        proj_params = ProjectionParams.from_cardinalities(
            block_bits, card_a, card_b, len(cs), xi_audit
        )
        for q_key in q_keys:
            mu_q = _conditioned_block_measure(mu, lo_bits, block_bits, q_key)
            failures = tuple(audit_hypotheses(mu_q, nu, proj_params))
            if failures:
                audits.append(CellAuditReport((blk.lo, blk.hi), q_key, failures, None, None, None))
                continue
            rep = averaged_projection_entropy(mu_q, nu, proj_params, c0_bits=params.c0_bits)
            audits.append(
                CellAuditReport((blk.lo, blk.hi), q_key, (), rep.rhs, rep.value, rep.slack)
            )

    return AssemblyReport(
        seed=seed,
        pattern=inst.pattern,
        n=n,
        size_a=len(a1),
        size_b=len(inst.b),
        size_b_collapsed=len(b2),
        alpha_bar_bits=alpha_bar_bits,
        intervals=tuple((iv.lo, iv.hi, iv.tag) for iv in classified),
        demoted=tuple((iv.lo, iv.hi, iv.tag) for iv in demoted),
        blocks=tuple(block_reports),
        cs=tuple(cs),
        per_c_entropy=tuple(per_c_lhs),
        nu_avg_entropy=nu_avg,
        best_c=cs[best_idx],
        best_entropy=per_c_lhs[best_idx],
        gain_bits=gain_bits,
        low_const_bits=low_const_bits,
        useless_bits=useless_bits,
        chain_bits=chain_bits,
        assembled_rhs=assembled_rhs,
        achieved=per_c_lhs[best_idx] >= assembled_rhs - _TOL,
        expanded=per_c_lhs[best_idx] > alpha_bar_bits + _TOL,
        nonempty_low=n_low > 0,
        cell_audits=tuple(audits),
    )
