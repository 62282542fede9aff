"""Experiment harness: expansion exponents measured end to end.

Everything here drives the library toward one question: how much larger
than ``A`` is ``A + cB`` at resolution delta, for typical slopes ``c``
drawn from a structured set ``C``?  The module provides

* closed-form alignment examples where the growth is provably slow
  (``run_alignment_sharpness``),
* the doubling ladder and the greedy iterated-sum algorithm, whose
  pigeonhole steps are asserted on every run,
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

import csv
import io
import json
import math
import zlib
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import fsum
from typing import Iterable, Sequence

import numpy as np

from .grid import DeltaSet, ParameterSet, ScaleSpec, _shifts, gen_ap, sumset
from .measures import (
    counting_measure,
    coarsen,
    entropy_chain,
    product_measure,
    renormalize_cell,
    uniform_fiber_entropy_bound,
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


class InstanceGenerationError(ValueError):
    """Instance construction violated one of the hypotheses it must satisfy.

    ``hypothesis`` names the failed requirement (e.g. ``"polarisation"``).
    """

    def __init__(self, hypothesis: str, detail: str):
        super().__init__(f"{hypothesis}: {detail}")
        self.hypothesis = hypothesis


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named component of one experiment.

    The name is hashed into the spawn key, so streams neither collide nor
    depend on the order in which components ask for them.
    """
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


# ---------------------------------------------------------------------------
# output plumbing


def format_float(x: float) -> str:
    return f"{x:.12g}"


def _jsonable(obj):
    """JSON-ready form of a report: an object's own ``to_dict`` wins, other
    dataclasses serialise their fields in declaration order."""
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return float(format_float(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def json_text(obj) -> str:
    """Indented JSON of a report; floats at 12 significant digits, fractions as p/q."""
    return json.dumps(_jsonable(obj), indent=1) + "\n"


def csv_text(rows: Sequence[dict]) -> str:
    """One CSV from homogeneous row dicts; floats at 12 significant digits."""
    if not rows:
        raise ValueError("no rows to write")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {k: format_float(v) if isinstance(v, float) else v for k, v in row.items()}
        )
    return buf.getvalue()


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(obj))


def write_rows_csv(rows: Sequence[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(rows))


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


def _aligned_triple_sizes(n_param: int) -> tuple[int, int, int, Fraction]:
    """(|A|, |A + BC|, best-c size, best c) for the aligned triple."""
    t4 = n_param.bit_length() - 1
    t = t4 // 4
    root, quarter = 1 << (2 * t), 1 << t
    a_idx = np.arange(1, root + 1, dtype=np.int64)
    j = np.arange(1, quarter + 1, dtype=np.int64)
    # b*c = (j/2**t)(k/2**t) lands exactly on A's 2**-2t lattice: index j*k
    prods = np.unique(np.multiply.outer(j, j))
    sum_size = int(np.unique(a_idx[:, None] + prods[None, :]).size)
    best_k, best_size = 1, -1
    for k in range(1, quarter + 1):
        # c = k/2**t applied to B's indices j*2**t shifts by exactly j*k
        size = int(np.unique(a_idx[:, None] + (k * j)[None, :]).size)
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
        if n_param == 1:
            one = Fraction(1)
            rows.append(SharpnessRow(1, 1, 1, one, None, one, 1, one, None))
            continue
        size_a, sum_size, best_size, best_c = _aligned_triple_sizes(n_param)
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
    slopes = [r.product_slope for r in rows if r.product_slope is not None]
    assert all(a > b for a, b in zip(slopes, slopes[1:])), (
        "alignment growth slope failed to decrease"
    )
    c_slopes = [r.best_c_slope for r in rows if r.best_c_slope is not None]
    assert all(a > b for a, b in zip(c_slopes, c_slopes[1:]))
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
    ``|2^s B| <= 2^s / delta``.  A missing step is therefore a bug, and is
    asserted.
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
    s = n_steps
    found = None
    for k in range(1, n_steps):
        if sizes[k + 1] ** s <= (1 << (s + B.n)) * sizes[k] ** s:
            found = k
            break
    assert found is not None, "no slow doubling step; pigeonhole violated"
    return found, list(enumerate(sizes))


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
    the sumset width guard enforces exactly that accounting.
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
    h = sumset(DeltaSet(n, np.zeros(1, dtype=np.int64)), cs[0], B)
    sizes = [len(h)]
    chosen = [cs[0]]
    buf = np.zeros((n_steps + 1) << n, dtype=bool)
    for _ in range(1, n_steps):
        hbool = np.zeros(int(h.indices[-1]) + 1, dtype=bool)
        hbool[h.indices] = True
        best_i, best_size = 0, -1
        for i, shifts in enumerate(shift_table):  # ascending: ties keep smallest c
            w, hi = hbool.size, hbool.size + int(shifts[-1])
            buf[:hi] = False
            for s in shifts.tolist():
                np.logical_or(buf[s : s + w], hbool, out=buf[s : s + w])
            size = int(np.count_nonzero(buf[:hi]))
            if size > best_size:
                best_i, best_size = i, size
        h = sumset(h, cs[best_i], B, max_width=n_steps + 1)
        assert len(h) == best_size  # scan kernel agrees with the reference
        sizes.append(len(h))
        chosen.append(cs[best_i])
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    s = n_steps - 1
    n_star = None
    for step in range(1, n_steps):
        if sizes[step] ** s <= (1 << (s + n)) * sizes[step - 1] ** s:
            n_star = step
            break
    assert n_star is not None, "no pigeonhole step; the ladder bound failed"
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
            "alpha": str(self.params.alpha),
            "beta": str(self.params.beta),
            "gamma": str(self.params.gamma),
            "kappa": str(self.params.kappa),
            "eta": str(self.params.eta),
            "zeta": str(self.params.zeta),
            "ell": self.params.ell,
            "scales": [[s.m, s.ell, s.big_n] for s in self.scales],
            "gammas": [str(g) for g in self.gammas],
            "nu": self.nu,
            "seed": self.seed,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        params = ParameterSet(
            alpha=Fraction(data["alpha"]),
            beta=Fraction(data["beta"]),
            gamma=Fraction(data["gamma"]),
            kappa=Fraction(data.get("kappa", "1/2")),
            eta=Fraction(data.get("eta", "1/2")),
            zeta=Fraction(data.get("zeta", "1/16")),
            ell=int(data.get("ell", 16)),
        )
        return cls(
            params=params,
            family=data.get("family", "aligned-triple"),
            scales=tuple(ScaleSpec(*map(int, row)) for row in data["scales"]),
            gammas=tuple(Fraction(g) for g in data["gammas"]),
            nu=data.get("nu", "counting"),
            seed=int(data.get("seed", 0)),
            out=data.get("out"),
        )

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class ExpansionRecord:
    """Per-slope expansion exponents at one (delta, gamma) sweep point.

    ``exponents[i] = log2 |A + cs[i] B| / n - alpha_bar``; each must land in
    ``[-alpha_bar, 1 - alpha_bar + 1/n]`` (the sum sits in ``[0, 2)``, so
    the extra width contributes one bit).  ``sampled`` discloses whether
    the slope scan was exhaustive or a seeded sample.
    """

    delta_exponent: int
    gamma: Fraction
    family: str
    alpha_bar: float
    size_a: int
    size_b: int
    cs: tuple[Fraction, ...]
    exponents: tuple[float, ...]
    best_c: Fraction
    best_exponent: float
    median_exponent: float
    mean_exponent: float
    sampled: bool
    sample_size: int

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

    def to_dict(self) -> dict:
        return {
            "delta_exponent": self.delta_exponent,
            "gamma": str(self.gamma),
            "family": self.family,
            "alpha_bar": self.alpha_bar,
            "size_a": self.size_a,
            "size_b": self.size_b,
            "best_c": str(self.best_c),
            "best_exponent": self.best_exponent,
            "median_exponent": self.median_exponent,
            "mean_exponent": self.mean_exponent,
            "sampled": self.sampled,
            "sample_size": self.sample_size,
            "cs": [str(c) for c in self.cs],
            "exponents": list(self.exponents),
        }


def _build_sweep_sets(
    family: str, n: int, a_bits: int, b_bits: int, rng: np.random.Generator
) -> tuple[DeltaSet, DeltaSet]:
    if family == "aligned-triple":
        # maximal arithmetic structure: the conjecturally worst case
        return gen_ap(n, 1 << a_bits), gen_ap(n, 1 << b_bits)
    if family == "uniform-tree":
        a_levels = set(rng.choice(n, size=a_bits, replace=False).tolist())
        b_levels = set(rng.choice(n, size=b_bits, replace=False).tolist())
        pa = BranchingProfile(1, tuple(2 if s in a_levels else 1 for s in range(n)))
        pb = BranchingProfile(1, tuple(2 if s in b_levels else 1 for s in range(n)))
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
        rest = [s for s in range(n) if s not in b_levels]
        extra = set(
            np.asarray(rest)[
                rng.choice(len(rest), size=a_bits - b_bits, replace=False)
            ].tolist()
        ) if a_bits > b_bits else set()
        a_levels = b_levels | extra
        pa = BranchingProfile(1, tuple(2 if s in a_levels else 1 for s in range(n)))
        pb = BranchingProfile(1, tuple(2 if s in b_levels else 1 for s in range(n)))
        assert polarisation_check(pa, pb, Fraction(1, 2)) == []
        return gen_uniform_tree(pa), gen_uniform_tree(pb)
    raise ValueError(f"unknown family {family!r}")


def _scatter_size(a_idx: np.ndarray, shifts: np.ndarray, buf: np.ndarray) -> int:
    hi = int(a_idx[-1] + shifts[-1]) + 1
    buf[:hi] = False
    for s in shifts.tolist():
        buf[a_idx + s] = True
    return int(np.count_nonzero(buf[:hi]))


def run_expansion_sweep(config: ExperimentConfig) -> list[ExpansionRecord]:
    """Measure ``log2 |A + cB| / n - alpha_bar`` across the configured grid.

    For each scale and each slope density gamma, the slope set is the full
    dyadic grid ``{k / 2**round(gamma*n)}``; it is scanned exhaustively up
    to 10^4 slopes and by a seeded sample of 10^4 beyond that (``sampled``
    on the record discloses which).  Exactness spot checks on each sweep
    point: translation of A by a whole unit cell never changes a sumset
    size, and the fast scatter kernel agrees with the reference sumset.
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
        buf = np.zeros(int(a_idx[-1]) + (1 << n) + 2, dtype=bool)
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
            cs, exps = [], []
            for k in ks.tolist():
                c = Fraction(int(k), total)
                shifts = _shifts(c, B)
                size = _scatter_size(a_idx, shifts, buf)
                cs.append(c)
                exps.append(math.log2(size) / n - alpha_bar)
            for c in cs[:2]:  # exactness spot checks
                shifts = _shifts(c, B)
                plain = _scatter_size(a_idx, shifts, buf)
                assert plain == len(sumset(A, c, B, max_width=4))
                moved = np.zeros(int(a_idx[-1]) + (2 << n) + 2, dtype=bool)
                assert plain == _scatter_size(a_idx + (1 << n), shifts, moved)
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
        coarse_runs = trivial_intervals(inst.b_profile.coarsen(ell))
        if len(coarse_runs):
            lifted = lift_intervals(coarse_runs, ell)
            extended = extend_intervals(inst.b_profile, lifted, zeta, ell)
            classified = classify_low_high(extended, a_prof, params.gamma_cap)
        else:
            classified = IntervalFamily(())
        retained = tuple(iv for iv in classified if xi * (len(iv) - 1) >= 1)
        demoted = tuple(iv for iv in classified if xi * (len(iv) - 1) < 1)
        if retained:
            b2, b_prof, _prefixes = collapse_suffixes(
                inst.b, inst.b_profile, IntervalFamily(retained), xi
            )
        else:
            b2, b_prof = inst.b, inst.b_profile
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

    per_c_lhs: list[float] = []
    per_block_terms: list[list[float]] = [[] for _ in blocks]
    for c in cs:
        rep = entropy_chain(mu, c, cuts)  # asserts its own chain inequality
        per_c_lhs.append(rep.lhs)
        for j, term in enumerate(rep.block_terms):
            per_block_terms[j].append(term)
        for j, blk in enumerate(blocks):
            if blk.tag != "useless":
                continue
            bits_a = _block_bits(a_prof, blk.lo, blk.hi)
            worst, bound = uniform_fiber_entropy_bound(
                mu, c, m * blk.lo, m * len(blk), bits_a
            )  # asserts worst >= bits_a - 1
            assert rep.block_terms[j] >= bound - _TOL

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
        assert avg >= bound - _TOL, f"block {blk.lo}..{blk.hi} fell under its bound"
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
    assert nu_avg >= assembled_rhs - _TOL, "assembled lower bound failed"
    best_idx = int(np.argmax(per_c_lhs))  # first max: smallest slope wins ties

    nu = counting_measure(DeltaSet(params.c_bits, np.arange(1, len(cs) + 1), width=2))
    audits = []
    for blk in low_ivs[:1]:
        lo_bits, block_bits = m * blk.lo, m * len(blk)
        shift = n - lo_bits
        q_keys = sorted({(kx >> shift, ky >> shift) for kx, ky in mu.atoms})[:2] if shift < n else [None]
        bits_a = a_prof.block_product(blk.lo, blk.hi)
        bits_b = b_prof.block_product(blk.lo, blk.hi)
        if bits_a & (bits_a - 1) or bits_b & (bits_b - 1):
            continue  # exact rational exponents need power-of-two branching
        xi_audit = 2 * xi + Fraction(1, block_bits)
        if xi_audit > 1 or params.c_bits > block_bits:
            continue
        proj_params = ProjectionParams(
            gamma_a=Fraction(bits_a.bit_length() - 1, block_bits),
            gamma_b=Fraction(bits_b.bit_length() - 1, block_bits),
            gamma=Fraction(min(params.c_bits, block_bits), block_bits),
            xi=xi_audit,
        )
        for q_key in q_keys:
            mu_q = _conditioned_block_measure(
                mu, lo_bits, block_bits, q_key if q_key is not None else (0, 0)
            )
            failures = tuple(audit_hypotheses(mu_q, nu, proj_params))
            if failures:
                audits.append(
                    CellAuditReport((blk.lo, blk.hi), q_key or (0, 0), failures, None, None, None)
                )
                continue
            rep = averaged_projection_entropy(
                mu_q, nu, proj_params, c0_bits=params.c0_bits
            )
            audits.append(
                CellAuditReport(
                    (blk.lo, blk.hi),
                    q_key or (0, 0),
                    (),
                    rep.rhs,
                    rep.value,
                    rep.slack,
                )
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
