"""Finite subsets of the line at dyadic resolution.

A set at resolution ``delta = 2**-n`` is stored as the sorted integer indices
``k`` of the grid points ``k * delta`` it contains.  All set operations
(covering counts, sumsets with a dyadic dilation, iterated sums) are exact
on these indices; the one float step, the FFT route of sumsets below, is
certified exact on every call.

Cells are half-open: the cell of ``x`` at scale ``2**-r`` is
``[k*2**-r, (k+1)*2**-r)`` with ``k = floor(x * 2**r)``.  The point 1.0 is
index ``2**n`` and lives in the cell starting at 1.0, so sets touching 1.0
simply have ``width = 2``.

One grouping primitive, ``_run_heads`` (whether a row opens a run of
equal rows in sorted keys, along the last axis), gives distinct values,
covering numbers, measure cells and every tree level at once; one integer
sign, ``_pow2_sign``, decides every threshold ``2**frac`` against a
rational in ``pow2_le`` and ``pow2_ge``.

Files and errors.  ``load_json``, the field readers of all five loaders,
the set format and the report writers (``json_text``, ``csv_text``,
``write_json``, ``write_rows_csv``) live here, with the four error types
the command line reports in one line: ``FormatError``, ``BudgetError``,
``CertificateError`` and ``InstanceGenerationError``.

Sumsets.  ``sumset(A, c, B)`` turns every slope into the integer sumset
``A + V`` with ``V = {floor(c * b)}`` (B's own indices for ``c = 1``, so a
unit slope takes no floor or dedup pass) and hands it to one kernel,
``_sum_support``, which also counts every size of the expansion sweep,
of greedy's slope scan and of the sharpness scan.  The kernel takes the
cheapest of five routes under a cost model fitted on a 2-core x86-64 VM
with numpy 2.4:

* outer sums, sorted, duplicates dropped: small products, and windows too
  wide for the others (sparse sets at n >= 32);
* a scatter into a bitmap over the window, one pass per point of the
  smaller operand: a sparse operand of tens to hundreds of points against
  up to a few hundred shifts;
* a packed-bitset OR: the operand with more points packed once into
  uint64 words with its 64 bit-shifted copies (``_packed_copies``), one OR
  of a copy per shift of the other (``_or_shifts``), at first only for its
  m lowest and m highest shifts (``_end_shifts``, proved exact at
  ``_sum_support``).  Those settle both ends of the sum; an offset of the
  middle that they miss is looked up against the middle shifts, and where
  the misses are too many to look up (real holes, as a progression has),
  the middle shifts are ORed: an operand dense in its span against tens to
  thousands of shifts;
* an FFT convolution of the two 0/1 indicators over the window
  ``[a0 + v0, a_max + v_max]``, in float64 ``numpy.fft`` at the shortest
  length ``2**a`` or ``3 * 2**a`` covering it (``_fft_length``), then
  ``rint``: both operands dense in one window;
* the window less what its two ends miss (``dense``, proved exact at
  ``_sum_support``): operands nearly full in their spans, as the doubling
  ladder's are after two or three steps.

Crossovers of the model, with times measured there (medians of 20 to 41
alternating runs): ``A + A`` on an interval leaves the outer sums for the
dense route at 43 points (149 us and 21 us at 128), and on a progression
of step 3, which the dense route refuses, for the FFT at 73 points (172
us and 73 us at 128); with A the even indices below 256 plus the interval
below x, ``A + A`` leaves the FFT for the dense route at x = 186 (65 us
and 36 us at 240); an interval plus 8 shifts 64 apart leaves the outer
sums for the scatter at 256 points (39 us and 37 us); an interval plus 32
shifts 64 apart leaves the scatter for the bitset at 511 points (206 us
and 122 us at 1,024).  The bitset is priced at no more than 2m shifts, so
it leaves for the FFT only where it ORs every shift: the 256 multiples of
16 below 4,096 plus the first x multiples of 16 leave it at x = 192 (the
bitset 695 us and the FFT 761 us at 191, the FFT's price running about
twice its time).  Two random 2,048-point sets at n = 16 take the bitset,
which ORs 2 x 372 of the shifts: 1.9 ms, against 3.2 ms ORing all 2,048
and 8.2 ms for their FFT (medians of 21 alternating runs, each after
``gc.collect()``).

The FFT route is exact.  It is taken only where Percival's a-priori bound
on the error of every convolution entry (``_fft_error_bound``, about
``17 log2(N) * sqrt(|A| |V|) * 2**-53`` at length N) is below 1/4, and
every call certifies through ``certify`` that each entry lies within 1/4
of an integer and that the rounded counts add up to ``|A| |V|``.  The
support of the rounded counts is then the sumset.  ``certify`` raises
``CertificateError``, which ``python -O`` keeps.  A self-sum ``A + A``
(the doubling ladder's steps) transforms its indicator once and squares
the spectrum, and is priced at those two transforms.  The other four
routes are integer logic and need no certificate.

Iterated sums.  ``iterated_sum(B, k)`` takes ``kB`` as the support of
``irfft(rfft(1_B, N)**k)`` with N the ``_fft_length`` of the window
``k (b_max - b_min) + 1``: two transforms in place of three per pairwise
step.  The power is taken by k - 1 complex multiplies, and Percival's
argument carried through them bounds every entry's error
(``_power_error_bound``, derived there).  Its leading term is
``eta |B|**(k - 1/2)``, with ``eta`` about ``5.2 (ceil(log2 N) + 1) 2**-53``
the growth of one transform: 1.2e-5 for 4,097 points at k = 3 and
``N = 3 * 2**16``.  The route runs where that bound is below
1/4, its ``40 N`` bytes fit the budget, ``k b_max < 2**63`` and the cost
model above prices it below the pairwise steps; each call certifies as the
FFT route does, with ``|B|**k`` pairs.  Elsewhere the k - 1 pairwise
sumsets run.  At n = 16, 4,097 random points, ``3B`` takes them: ``B +
B`` ORs 2 x 183 of the shifts, 1.4 ms against 5.3 ms ORing them all, and
``2B + B``, nearly full, 64, 2.6 ms against 8.7 ms; ``3B`` takes 4.4 ms
against 10.9 ms for the powered spectrum.

Memory.  Each route's scratch is estimated before anything is allocated:
17 bytes per pair for the outer sums, 40 per FFT point; for the scatter
one per window index plus 16 per point of the larger operand and 16 per
point of the result; for the bitset 576 per word of the packed operand
(its 64 copies and their build, or the unpacked operand its lookups
read), two per window index and 16 per point of the result, its lookups
taken one missed offset at a time; for the dense route eight per window
index and 17 per pair of its two end sums.  A route past
``SUMSET_BYTE_BUDGET`` (1 GiB) is not taken, and when none fits,
``BudgetError`` (a ValueError) is raised before allocating.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BudgetError",
    "CertificateError",
    "FormatError",
    "InstanceGenerationError",
    "SUMSET_BYTE_BUDGET",
    "certify",
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
    "format_float",
    "json_text",
    "csv_text",
    "write_json",
    "write_rows_csv",
]


class FormatError(ValueError):
    """A malformed input file: its ``path``, the 1-based ``line`` at fault
    (None where the format has no line to name) and the ``reason``."""

    def __init__(self, path, line: int | None, reason: str):
        where = f"{path}:{line}" if line is not None else f"{path}"
        super().__init__(f"{where}: {reason}")
        self.path, self.line, self.reason = str(path), line, reason


class CertificateError(AssertionError):
    """An inequality of the argument failed on a concrete instance:
    ``name`` says which, ``slack`` by how much (negative)."""

    def __init__(self, name: str, slack):
        super().__init__(f"certificate {name!r} failed with slack {slack}")
        self.name = name
        self.slack = slack


def certify(name: str, slack, tol=0.0) -> None:
    """Raise CertificateError unless ``slack >= -tol`` (NaN fails too)."""
    if not slack >= -tol:
        raise CertificateError(name, slack)


SUMSET_BYTE_BUDGET = 1 << 30
"""Scratch memory, in bytes, that one ``sumset`` may allocate."""


class BudgetError(ValueError):
    """``what`` (a sumset, every route of which, unless named otherwise)
    needs ``needed`` bytes of scratch or more, past the ``budget`` of
    ``SUMSET_BYTE_BUDGET``; nothing was allocated."""

    def __init__(self, needed: int, budget: int, what: str = "sumset"):
        super().__init__(
            f"{what} needs {needed} bytes of scratch memory, over the budget of {budget}"
        )
        self.needed, self.budget, self.what = needed, budget, what


class InstanceGenerationError(ValueError):
    """Instance construction violated one of the hypotheses it must satisfy.

    ``hypothesis`` names the failed requirement (e.g. ``"polarisation"``).
    """

    def __init__(self, hypothesis: str, detail: str):
        super().__init__(f"{hypothesis}: {detail}")
        self.hypothesis = hypothesis


def reserve(nbytes: int, what: str) -> None:
    """Raise BudgetError naming ``what`` where ``nbytes`` of scratch would
    pass ``SUMSET_BYTE_BUDGET``; call it before allocating them."""
    if nbytes > SUMSET_BYTE_BUDGET:
        raise BudgetError(nbytes, SUMSET_BYTE_BUDGET, what)


@contextmanager
def _utf8(path):
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 raises FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(path, None, f"not UTF-8 text: {exc.reason}") from None


def _echo(text: str) -> str:
    """``text`` as an error message quotes it: whole up to 60 characters,
    else its first 60 and its length, so one bad value gives a short line."""
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} chars)"


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; a key repeated within it raises ValueError."""
    if len(obj := dict(pairs)) < len(pairs):
        seen = set()  # the first key met twice (``seen.add`` returns None)
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"repeated key {_echo(repr(key))}")
    return obj


def load_json(path):
    """Parse a UTF-8 JSON file.  A syntax error becomes a FormatError at its
    line; a byte that is not UTF-8, a repeated key, nesting past the
    parser's depth and any other value it refuses, one naming the file."""
    with _utf8(path) as fh:
        text = fh.read()
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.lineno, exc.msg) from None
    except (RecursionError, ValueError) as exc:  # too deep, a repeated key, 4,301 digits
        raise FormatError(path, None, str(exc)) from None


def _save_json(payload, path) -> None:
    """Write ``payload`` as one line of JSON and a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


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


# The field readers of the JSON loaders: each returns the value it reads,
# and raises ValueError naming the field (``what``) on any other.
_JSON_TYPES = {int: "an integer", str: "a string", dict: "an object"}


def _read(value, kind: type, what: str):
    """``value``, of JSON type ``kind`` exactly: a bool is not an integer."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, not {_echo(json.dumps(value))}")
    return value


def _read_list(value, what: str, size: int | None = None) -> list:
    """``value``, a JSON list, of ``size`` entries where that is given."""
    if type(value) is not list or size is not None and len(value) != size:
        shape = "a list" if size is None else f"a list of length {size}"
        raise ValueError(f"{what} must be {shape}, not {_echo(json.dumps(value))}")
    return value


def _read_object(value, what: str, keys: Sequence[str], defaults: dict | None = None) -> dict:
    """``value``, a JSON object with every key of ``keys``, any of
    ``defaults`` (its default where missing) and no other key."""
    data, defaults = _read(value, dict, what), defaults or {}
    for key in (*keys, *data):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
        if key not in keys and key not in defaults:
            raise ValueError(f"unknown key {_echo(repr(key))}")
    return {**defaults, **data}


def _read_ratio(value, what: str) -> tuple[int, int]:
    """``(p, q)`` with ``value == p / q`` and ``q > 0``, for a JSON number
    or string: a ``"p/q"`` string of digits (a sign before p only) by
    ``int``, any other by ``Fraction``, which also refuses what it does not
    read (``"1/-2"``, ``"1/0"``, Infinity).  A bool is not read as 0 or 1."""
    if type(value) is str:
        num, _, den = value.partition("/")
        if den.isdecimal() and (num.isdecimal() or num[:1] in ("+", "-") and num[1:].isdecimal()):
            if q := int(den):
                return int(num), q
    elif type(value) is not int and type(value) is not float:
        raise ValueError(f"{what} must be a string or a number, not {_echo(json.dumps(value))}")
    try:
        return Fraction(value).as_integer_ratio()
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(str(exc)) from None


def as_dyadic(c) -> tuple[int, int]:
    """Return ``(p, q)`` with ``c == p / 2**q``, q >= 0 minimal.

    Raises ValueError for values that are not dyadic rationals; binary floats
    are accepted because they are dyadic by construction.  An ``int``, a
    ``Fraction`` or a numpy integer is read without building a ``Fraction``;
    both entries are Python ints.
    """
    if not isinstance(c, numbers.Rational):
        c = Fraction(c)
    num, den = int(c.numerator), int(c.denominator)
    q = den.bit_length() - 1
    if den != 1 << q:
        raise ValueError(f"{c!r} is not a dyadic rational")
    return num, q


def dyadic_slope(c) -> tuple[int, int]:
    """``as_dyadic(c)`` for a slope, which must satisfy ``|c| <= 1``."""
    p, q = as_dyadic(c)
    if abs(p) > 1 << q:
        raise ValueError("|c| must be at most 1")
    return p, q


def _ratio(x) -> tuple[int, int]:
    """``(p, q)`` with ``x == p / q`` and ``q > 0``, for ints, Fractions and floats."""
    return x.as_integer_ratio() if isinstance(x, float) else (x.numerator, x.denominator)


def _pow2_sign(frac, value) -> int:
    """The sign of ``2**frac - value``, exactly (``_pow2_cmp``)."""
    return _pow2_cmp(*_ratio(frac), *_ratio(value))


def _pow2_cmp(num: int, den: int, p: int, q: int) -> int:
    """The sign of ``2**(num/den) - p/q`` for ``den, q > 0``, exactly: for
    ``p > 0`` that of ``2**num * q**den - p**den``; +1 for ``p <= 0``."""
    if p <= 0:
        return 1
    lhs, rhs = q**den << max(num, 0), p**den << max(-num, 0)
    return (lhs > rhs) - (lhs < rhs)


def pow2_le(frac: Fraction, value) -> bool:
    """Exact test of ``2**frac <= value`` for rational frac and rational value."""
    return _pow2_sign(frac, value) <= 0


def pow2_ge(frac: Fraction, value) -> bool:
    """Exact test of ``2**frac >= value``."""
    return _pow2_sign(frac, value) >= 0


def check_resolution(n: int) -> None:
    """Refuse a resolution exponent outside ``1 <= n <= 62``."""
    if n < 1:
        raise ValueError("resolution exponent n must be >= 1")
    if n > 62:
        raise ValueError(f"resolution exponent n={n} exceeds the 62-bit limit of int64 indices")


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
        check_resolution(self.n)
        if self.width < 1:
            raise ValueError("width must be >= 1")
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if idx.size == 0:
            raise ValueError("empty sets are not represented")
        if not (idx[1:] > idx[:-1]).all():
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= (self.width << self.n):
            raise ValueError("indices out of [0, width * 2**n)")

    @classmethod
    def from_indices(cls, n: int, ks: Iterable[int], width: int | None = None) -> "DeltaSet":
        idx = _distinct(np.sort(np.asarray(list(ks), dtype=np.int64)))
        if width is None:
            width = max(1, -(-(int(idx[-1]) + 1) >> n)) if idx.size else 1
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
    return int(_run_starts(A.indices >> (A.n - r_exp)).size)


def covering_counts(A: DeltaSet, r_exps: Sequence[int] | None = None) -> dict[int, int]:
    """Covering numbers at several scales at once (analysis/CLI helper)."""
    if r_exps is None:
        r_exps = range(A.n + 1)
    return {int(r): covering_number(A, int(r)) for r in r_exps}


def slope_floor(p: int, q: int, ks: np.ndarray) -> np.ndarray:
    """``floor(p * k / 2**q)`` for every k of an int64 array, exactly.

    The product is taken in int64 while ``|p| * max|k| < 2**63`` and as
    Python integers past that; the result fits int64 again whenever
    ``|p| <= 2**q``.
    """
    k_max = max(-int(ks.min()), int(ks.max()))
    if abs(p).bit_length() + k_max.bit_length() > 63:
        return np.array([(p * k) >> q for k in ks.tolist()], dtype=np.int64)
    # Arithmetic right shift floors for negative products as well; past 63
    # bits every |p * k| < 2**63 shifts to 0 or -1 alike.
    return (p * ks) >> min(q, 63)


def _run_heads(*cols: np.ndarray) -> np.ndarray:
    """Whether each row opens a run of equal rows, for columns sorted
    together (one sorted key, or several ordered by ``lexsort``).  Runs are
    taken along the last axis, so each row of a 2-d table groups apart."""
    head, *rest = cols
    new = np.empty(head.shape, dtype=bool)
    new[..., :1] = True
    np.not_equal(head[..., 1:], head[..., :-1], out=new[..., 1:])
    for col in rest:
        new[..., 1:] |= col[..., 1:] != col[..., :-1]
    return new


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """The index of the first row of each run of equal rows (``_run_heads``)."""
    return np.flatnonzero(_run_heads(*cols))


def _run_lengths(starts: np.ndarray, size: int) -> np.ndarray:
    """The length of each run of ``size`` rows that starts at ``starts``, as
    ``np.diff(starts, append=size)`` gives it, without that call's copies."""
    out = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=out[:-1])
    out[-1:] = size - starts[-1:]
    return out


def _distinct(s: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order."""
    return s[_run_starts(s)]


def _shifts(c, B: DeltaSet) -> np.ndarray:
    """Distinct values of floor(c * b / delta) over b in B, as int64."""
    p, q = dyadic_slope(c)
    if q > B.n:
        raise ValueError("c is finer than the grid resolution")
    if q == 0:  # c in {-1, 0, 1}: B's own indices, already distinct
        return B.indices if p == 1 else -B.indices[::-1] if p else np.zeros(1, dtype=np.int64)
    v = slope_floor(p, q, B.indices)  # monotone in b: ascending, or descending for p < 0
    return _distinct(v[::-1] if p < 0 else v)


# Route costs of _sum_support in nanoseconds, fitted on a 2-core x86-64 VM
# with numpy 2.4: sorting the outer sums takes about 1 ns per pair per bit
# of log2(pairs); the FFT route about 40 us plus 3.5 ns * N * log2(N) for
# its three N-point transforms, a self-sum's two priced at two thirds of
# that; the scatter about 2.5 ns per write, 1 us per shift and 2 ns per
# window byte; the bitset OR 40 us per call, 2 us per shift ORed (at most 2m,
# _end_shifts), 0.6 ns per word ORed, 1.2 ns per word of the 64 shifted
# copies and 2 ns per window bit unpacked, and for each offset its end
# shifts miss 2 us plus 0.6 ns per lookup (_witnessed); the dense route
# 20 us per call, 1.5 ns per window index and 5 ns per pair of each end
# sum (an outer add, a compare and a masked scatter).
# The powered spectrum of iterated_sum measured 1.0 to 1.2 ns per
# N * (log2(N) + k - 2) at N <= 49,152 and 2.2 ns at N = 196,608 (its two
# transforms pass the caches there), and is priced at 1.6 ns.
# The scratch bytes per pair, per FFT point, per packed word and per window
# byte bound what tracemalloc read.
_OUTER_NS, _FFT_NS, _SCATTER_NS, _SHIFT_NS, _WINDOW_NS = 1.0, 3.5, 2.5, 2000.0, 2.0
_FFT_CALL_NS, _POWER_NS = 50_000.0, 1.6
_BITSET_CALL_NS, _BITSET_SHIFT_NS, _WORD_NS, _COPY_NS, _BIT_NS = 40_000.0, 2000.0, 0.6, 1.2, 2.0
_MISS_NS, _LOOKUP_NS = 2000.0, 0.6
_DENSE_CALL_NS, _DENSE_NS, _END_NS = 20_000.0, 1.5, 5.0
_OUTER_BYTES, _FFT_BYTES, _WORD_BYTES = 17, 40, 8 * 72
_EPS = 2.0**-53  # unit roundoff of float64


def _fft_length(window: int) -> int:
    """The shortest transform length of the form ``2**a`` or ``3 * 2**a``
    at or above ``window``."""
    return min(1 << (window - 1).bit_length(), 3 << ((window + 2) // 3 - 1).bit_length())


def _fft_growth(nfft: int, transforms: int, products: int) -> float:
    """Percival's relative error growth, minus one, of ``transforms``
    radix-2 transforms of length ``nfft`` and ``products`` complex
    multiplies per entry, in arithmetic of unit roundoff eps:
    ``(1+eps)**tk (1+eps*sqrt5)**(tk+p) (1+beta)**tk - 1`` with ``t``
    transforms of ``k`` levels and ``p`` products (Percival, Math. Comp. 72,
    2003; a complex product is within ``sqrt5 eps`` of the exact one).
    numpy's real transforms are not literally that complex radix-2 FFT, so
    ``k`` is taken one level deeper, ``ceil(log2 N) + 1``, and the twiddle
    error beta as 2 eps; every call of the FFT routes is also checked after
    the fact.  At ``N = 2**a`` that is ``a + 1`` levels.  At ``N = 3 * 2**a``
    it is ``a + 3``: the a radix-2 levels, the radix-3 pass counted as two
    (one such pass does about ``log2 3 = 1.58`` levels' arithmetic), and the
    same one level of hedge.
    """
    k = (nfft - 1).bit_length() + 1
    return math.expm1(
        transforms * k * math.log1p(_EPS)
        + (transforms * k + products) * math.log1p(_EPS * math.sqrt(5))
        + transforms * k * math.log1p(2 * _EPS)
    )


def _fft_error_bound(pairs: int, nfft: int) -> float:
    """A-priori bound on ``max |conv - exact|`` of the FFT route.

    Percival: a cyclic convolution of x and y through two forward
    transforms, one product and one inverse transform is off by less than
    ``|x| |y| _fft_growth(nfft, 3, 1)`` in every entry, with Euclidean
    norms; for 0/1 indicators ``|x| |y| = sqrt(|a| |v|)``.
    """
    return math.sqrt(pairs) * _fft_growth(nfft, 3, 1)


def _power_error_bound(size: int, k: int, nfft: int) -> float:
    """A-priori bound on ``max |z~ - z|`` of the powered-spectrum route,
    ``z~ = irfft(rfft(x)**k)`` for the 0/1 indicator x of ``size = |B|``
    points and the k-fold self-convolution ``z``, k >= 2:

        |B| M**(k-2) (k eta + (k-1) eta**2 + d (1+eta)**2)
            + eta (1+eta) (1+d) M**(k-1) sqrt|B|

    with ``eta = _fft_growth(nfft, 1, 0)`` the growth of one transform,
    ``d = _fft_growth(nfft, 0, k-1)`` that of the k-1 complex multiplies,
    and ``M = |B| + sqrt(N |B|) eta``.

    Derivation, for the unnormalised DFT F of length N and ``X = F x``:
    Parseval gives ``|X|_2 = sqrt(N |B|)``, and every ``|X_i| <= |B|``.
    The computed spectrum X~ has ``|X~ - X|_2 <= eta sqrt(N |B|)``, hence
    ``|X~|_2 <= (1+eta) sqrt(N |B|)`` and ``|X~_i| <= M``.  The computed
    power is ``P~_i = X~_i**k (1 + d_i)`` with ``|d_i| <= d``.  Then
    ``|X~_i**k - X_i**k| <= |X~_i - X_i| M**(k-2) ((k-1)|X~_i| + |X_i|)``
    (each term of the difference quotient), so by Cauchy-Schwarz
    ``|X~**k - X**k|_1 <= N |B| M**(k-2) eta (k + (k-1) eta)``, and
    ``|X~**k d|_1 <= d M**(k-2) |X~|_2**2``.  An inverse transform maps a
    spectrum error E to an entry error of at most ``|E|_1 / N``: the first
    term.  Its own rounding is at most ``eta |F^-1 P~|_2 = eta |P~|_2 /
    sqrt N``, and ``|P~|_2 <= (1+d) M**(k-1) |X~|_2``: the second term.
    """
    eta = _fft_growth(nfft, 1, 0)
    d = _fft_growth(nfft, 0, k - 1)
    m = size + math.sqrt(nfft * size) * eta
    if (k - 1) * math.log2(m) > 60:
        return math.inf  # eta > 2**-51: the second term alone is past 1/4
    propagated = size * m ** (k - 2) * (k * eta + (k - 1) * eta**2 + d * (1 + eta) ** 2)
    return propagated + eta * (1 + eta) * (1 + d) * m ** (k - 1) * math.sqrt(size)


def _end_shifts(na: int, a_span: int, span: int) -> int:
    """The m of the bitset route: it first ORs the m lowest and m highest
    shifts.  Were the ``na`` points random in their ``a_span``, at density
    p, m shifts would miss a given offset with chance ``(1 - p)**m``, which
    this m keeps below ``1 / span``; at least 32, so that an operand whose
    holes gather at its ends is still settled by the ends.  m decides the
    speed of the route, never its result."""
    if na == a_span:
        return 32
    return max(32, math.ceil(math.log(span) / -math.log1p(-na / a_span)))


def _fitting_routes(
    na: int, nv: int, span: int, a_span: int, transforms: int = 3
) -> list[tuple[float, int, str]]:
    """``(ns, bytes, route)`` of each route of ``_sum_support`` for ``na`` by
    ``nv`` points (nv <= na) whose sums fill a window of ``span`` indices,
    the ``na`` points spanning ``a_span``, where the scratch fits the byte
    budget; BudgetError where none does.  The FFT route takes ``transforms``
    transforms: three, or two for a self-sum."""
    pairs = na * nv
    nfft = _fft_length(span)
    words = ((a_span - 1) >> 6) + 2  # _packed_copies: a's words and one spare
    m = _end_shifts(na, a_span, span)
    middle = max(nv - 2 * m, 0)  # shifts checked by lookups into the misses of the 2m ORed
    misses = span * (1 - na / a_span) ** m
    routes = [
        (_OUTER_NS * pairs * pairs.bit_length(), _OUTER_BYTES * pairs, "outer"),
        (
            _SCATTER_NS * pairs + _SHIFT_NS * nv + _WINDOW_NS * span,
            span + 16 * na + 16 * min(span, pairs),
            "scatter",
        ),
        (
            _BITSET_CALL_NS
            + (_BITSET_SHIFT_NS + _WORD_NS * words) * (nv - middle)
            + (_MISS_NS + _LOOKUP_NS * middle) * misses
            + _COPY_NS * 64 * words
            + _BIT_NS * span,
            _WORD_BYTES * words + 2 * span + 16 * min(span, pairs),
            "bitset",
        ),
    ]
    if _fft_error_bound(pairs, nfft) < 0.25:
        fft_ns = _FFT_CALL_NS + _FFT_NS * nfft * nfft.bit_length() * transforms / 3
        routes.append((fft_ns, _FFT_BYTES * nfft, "fft"))
    holes = span + 1 - na - nv  # the indices of the two operands' spans that they miss
    if holes < min(a_span, span + 1 - a_span):
        ends = min(holes, na) * min(holes, nv)  # pairs of the outer sums at each end
        dense_ns = _DENSE_CALL_NS + _DENSE_NS * span + 2 * _END_NS * ends
        routes.append((dense_ns, 8 * span + 2 * _OUTER_BYTES * ends, "dense"))
    fits = [r for r in routes if r[1] <= SUMSET_BYTE_BUDGET]
    if not fits:
        raise BudgetError(min(r[1] for r in routes), SUMSET_BYTE_BUDGET)
    return fits


def _plan(na: int, nv: int, span: int, a_span: int, transforms: int = 3) -> str:
    """The cheapest route for a sumset of ``na`` by ``nv`` points (nv <= na)
    whose sums fill a window of ``span`` indices, the ``na`` points spanning
    ``a_span``, within the byte budget (``_fitting_routes``)."""
    return min(_fitting_routes(na, nv, span, a_span, transforms))[2]


def _indicator_spectrum(s: np.ndarray, nfft: int) -> np.ndarray:
    """``rfft`` at length ``nfft`` of the 0/1 indicator of ``s - s[0]``."""
    ind = np.zeros(int(s[-1] - s[0]) + 1)
    ind[s - s[0]] = 1.0
    return np.fft.rfft(ind, nfft)


def _count_support(conv: np.ndarray, pairs: int, lo: int) -> np.ndarray:
    """``lo`` plus the offsets of the nonzero counts of ``conv``, a float
    convolution of 0/1 indicators with ``pairs`` pairs in all (overwritten)."""
    counts = np.rint(conv)
    conv -= counts
    # every count is within 1/4 of its integer, and the counts add up to the
    # number of pairs: the support of the rounded counts is the sumset
    certify("fft-rounding", np.nextafter(0.25, 0.0) - float(np.abs(conv, out=conv).max()))
    certify("fft-pair-count", -abs(int(counts.sum(dtype=np.int64)) - pairs))
    out = np.flatnonzero(counts != 0)  # a bool mask scans faster than the floats
    out += lo
    return out


def _packed_copies(x: np.ndarray) -> np.ndarray:
    """The ascending offsets ``x`` (from 0) as a bitset of little-endian
    uint64 words (offset i is bit ``i & 63`` of word ``i >> 6``), with its
    64 copies shifted up by 0 to 63 bits: a (64, words) array whose last
    word, spare, takes the bits shifted out."""
    words = (int(x[-1]) >> 6) + 2
    bits = np.zeros(words << 6, dtype=bool)
    bits[x] = True
    packed = np.packbits(bits, bitorder="little").view("<u8")
    del bits
    # copies[k, r] is the copy shifted by 8k + r bits: r by word shifts, then k whole bytes
    copies = np.zeros((8, 8, words << 3), dtype=np.uint8)
    low = copies[0].view("<u8")
    low[0] = packed
    r = np.arange(1, 8, dtype=np.uint64)[:, None]
    np.left_shift(packed, r, out=low[1:])
    low[1:, 1:] |= packed[:-1] >> (64 - r)
    for k in range(1, 8):
        copies[k, :, k:] = copies[0, :, :-k]
    return copies.reshape(64, words << 3).view("<u8")


def _or_shifts(copies: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """OR into the bitset ``out`` the bitset of ``copies`` (``_packed_copies``)
    shifted up by each offset s of ``y``: copy ``s & 63`` at word ``s >> 6``."""
    words = copies.shape[1]
    for s in y.tolist():
        out[s >> 6 : (s >> 6) + words] |= copies[s & 63]


def _witnessed(copies: np.ndarray, t: np.ndarray, y: np.ndarray, first, last) -> list[bool]:
    """Whether each offset of ``t`` is ``i + s`` for an offset i of the
    bitset of ``copies`` and an offset s of ``y[first:last]``, the span of
    ``y`` that keeps i within the bitset, given per offset."""
    bits = np.unpackbits(copies[0].view(np.uint8), bitorder="little").view(bool)
    return [bits[u - y[i:j]].any() for u, i, j in zip(t.tolist(), first.tolist(), last.tolist())]


def _bitset_support(x: np.ndarray, y: np.ndarray, span: int) -> np.ndarray:
    """The sorted distinct values of ``x + y`` for ascending offsets ``x``
    and ``y`` from 0 whose sums fill ``span`` indices, through the packed
    bitset of ``x``: the 2m end shifts of ``y`` ORed, the middle shifts
    checked against what they miss (``_sum_support`` proves it exact).
    Where the misses cost more to check than ORing the middle shifts,
    those shifts are ORed."""
    copies = _packed_copies(x)
    words, top = copies.shape[1], int(x[-1])
    out = np.zeros((int(y[-1]) >> 6) + words, dtype="<u8")
    m = _end_shifts(x.size, top + 1, span)
    middle = y[m:-m] if 2 * m < y.size else y[:0]
    _or_shifts(copies, y if middle.size == 0 else np.concatenate((y[:m], y[-m:])), out)
    seen = np.unpackbits(out.view(np.uint8), count=span, bitorder="little").view(bool)
    if middle.size:
        mid = seen[middle[0] : top + int(middle[-1]) + 1]
        missed = mid.size - np.count_nonzero(mid)
        ored_ns = middle.size * (_BITSET_SHIFT_NS + _WORD_NS * words)  # to OR the middle shifts
        if missed and missed * _MISS_NS <= ored_ns:
            misses = np.flatnonzero(~mid) + middle[0]
            first = np.searchsorted(middle, misses - top)
            last = np.searchsorted(middle, misses, side="right")
            if missed * _MISS_NS + _LOOKUP_NS * int((last - first).sum()) <= ored_ns:
                seen[misses] = _witnessed(copies, misses, middle, first, last)
                missed = 0
        if missed:  # real holes, as a progression has: OR the middle shifts after all
            _or_shifts(copies, middle, out)
            seen = np.unpackbits(out.view(np.uint8), count=span, bitorder="little").view(bool)
    return np.flatnonzero(seen)


def _end_sums(x: np.ndarray, y: np.ndarray, holes: int) -> np.ndarray:
    """The distinct sums below ``holes`` of the nonnegative offsets ``x``
    and ``y``, ascending."""
    s = np.add.outer(x, y).ravel()
    seen = np.zeros(holes, dtype=bool)
    seen[s[s < holes]] = True
    return np.flatnonzero(seen)


def _sum_support(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a + v`` for sorted distinct int64
    arrays whose sums fit int64, by the cheapest route of ``_plan``.

    The dense route is exact where the ``h`` indices of the two spans that
    ``a`` and ``v`` miss are fewer than either span.  An offset t of the
    window at least h from both of its ends splits as x + y, with x and y
    inside the two spans, in at least h + 1 ways; each missing index spoils
    at most one of them, so t is a sum.  An offset below h splits only
    into offsets below h, so the outer sums of the at most h lowest points
    of each operand give the low end, and those of the highest the top.

    The bitset route is exact for any m.  Take ``x = a - a[0]``, of span A,
    and ``y = v - v[0]``, with 2m < |y|.  A sum ``t = x_i + y_j`` below
    ``y[m]`` has ``y_j <= t < y[m]``, so j < m; one above ``(A - 1) +
    y[-m-1]`` has ``y_j >= t - (A - 1) > y[-m-1]``, so j is among the m
    highest.  So the ORs of the m lowest and m highest shifts give the sum
    exactly outside the middle ``[y[m], (A - 1) + y[-m-1]]``.  Inside it,
    every offset they set is a sum, and an offset t they miss has no split
    with an end shift: it is a sum exactly when ``t - y_j`` is in x for
    some middle shift ``y_j``, and ``_witnessed`` looks that up for the
    ``y_j`` in ``[t - (A - 1), t]``.  Where the misses would cost more to
    look up than to OR the middle shifts, those are ORed.  Either way the
    bitset finishes every sum that ``_plan`` gives it.
    """
    if a.size < v.size:
        a, v = v, a
    lo = int(a[0]) + int(v[0])
    span = int(a[-1]) + int(v[-1]) - lo + 1
    a_span = int(a[-1]) - int(a[0]) + 1
    # a self-sum (the doubling ladder's steps) squares one spectrum on the FFT route
    transforms = 2 if a is v or np.array_equal(a, v) else 3
    route = _plan(a.size, v.size, span, a_span, transforms)
    if route == "bitset":
        out = _bitset_support(a - a[0], v - v[0], span)
        out += lo
        return out
    if route == "outer":
        s = (a[:, None] + v).ravel()
        s.sort()
        return _distinct(s)
    if route == "scatter":
        seen = np.zeros(span, dtype=bool)
        base = a - lo
        for s in v.tolist():
            seen[base + s] = True
        out = np.flatnonzero(seen)
        out += lo
        return out
    if route == "dense":
        holes = span + 1 - a.size - v.size
        low = _end_sums(a[:holes] - a[0], v[:holes] - v[0], holes)
        top = _end_sums(a[-1] - a[::-1][:holes], v[-1] - v[::-1][:holes], holes)
        # every offset from holes to span - 1 - holes is a sum; low and top give the ends
        k, hi = low.size, lo + span - 1
        out = np.arange(lo + holes - k, hi + 1 - holes + top.size, dtype=np.int64)
        out[:k] = low + lo
        out[out.size - top.size :] = hi - top[::-1]
        return out
    nfft = _fft_length(span)
    spectrum = _indicator_spectrum(a, nfft)
    spectrum *= spectrum if transforms == 2 else _indicator_spectrum(v, nfft)
    conv = np.fft.irfft(spectrum, nfft)[:span]
    del spectrum
    return _count_support(conv, a.size * v.size, lo)


def _power_nfft(B: DeltaSet, k: int, max_width: int) -> int | None:
    """The transform length N of the powered-spectrum route to ``kB`` (k >=
    2), or None where the pairwise steps run instead.

    N is ``_fft_length`` of the window ``k (b_max - b_min) + 1``: the least
    ``2**a`` or ``3 * 2**a`` at or above it.  The route is taken where
    ``k b_max < 2**63``, kB is no wider than ``max_width``, the
    ``_FFT_BYTES * N`` scratch fits the byte budget, ``_power_error_bound``
    is below 1/4, and the cost model prices it below the pairwise steps.  It
    is priced as ``log2 N`` butterfly passes of its two transforms plus one
    per further complex multiply, at ``_POWER_NS`` per point.  Each
    pairwise step ``(j-1)B + B`` is priced at its cheapest route, the
    bitset's and the dense route's included, with ``|(j-1)B|`` at its least
    possible size ``(j-1)(|B|-1) + 1``.  That prices every other route at
    its cheapest and the dense route at its most holes, so a ``(j-1)B``
    fuller than that can make the pairwise steps cheaper than priced.
    """
    b = B.indices
    size, lo, hi = b.size, int(b[0]), int(b[-1])
    nfft = _fft_length(k * (hi - lo) + 1)
    if (
        k * hi >= 1 << 63
        or ((k * hi) >> B.n) + 1 > max_width
        or _FFT_BYTES * nfft > SUMSET_BYTE_BUDGET
        or not _power_error_bound(size, k, nfft) < 0.25
    ):
        return None
    price = _FFT_CALL_NS + _POWER_NS * nfft * (nfft.bit_length() + k - 2)
    pairwise = 0.0
    for j in range(2, k + 1):
        step = ((j - 1) * (size - 1) + 1, size, j * (hi - lo) + 1, (j - 1) * (hi - lo) + 1)
        pairwise += min(_fitting_routes(*step, 2 if j == 2 else 3))[0]
        if pairwise > price:
            return nfft
    return None


def _power_support(b: np.ndarray, k: int, nfft: int) -> np.ndarray:
    """The sorted distinct values of the k-fold sum of ``b`` (k >= 2), as the
    support of ``irfft(rfft(1_b)**k)``; the power is taken by k - 1 complex
    multiplies, the rounding ``_power_error_bound`` counts."""
    spectrum = _indicator_spectrum(b, nfft)
    power = spectrum * spectrum
    for _ in range(k - 2):
        power *= spectrum
    del spectrum
    conv = np.fft.irfft(power, nfft)[: k * int(b[-1] - b[0]) + 1]
    del power
    return _count_support(conv, b.size**k, k * int(b[0]))


def sumset(A: DeltaSet, c, B: DeltaSet, max_width: int = 1 << 12) -> DeltaSet:
    """The set ``{a + c*b}`` snapped to A's grid, exactly.

    ``c`` must be a dyadic rational with ``|c| <= 1`` representable at the
    grid resolution.  Snapping means each real sum lands in its half-open
    grid cell: index ``k_a + floor(c * k_b)``.  The result keeps resolution
    ``n`` and grows ``width`` as needed.  A sum whose every route needs more
    than ``SUMSET_BYTE_BUDGET`` bytes of scratch raises BudgetError.
    """
    if A.n != B.n:
        raise ValueError("operands must share one grid resolution")
    v = _shifts(c, B)
    lo = int(A.indices[0]) + int(v[0])
    hi = int(A.indices[-1]) + int(v[-1])
    if lo < 0:
        raise ValueError("negative c pushes the sumset below 0")
    if hi >= 1 << 63:
        raise ValueError("sumset indices pass the int64 range")
    width = _sum_width(A.n, hi, max_width)
    return DeltaSet(A.n, _sum_support(A.indices, v), width)


def _sum_width(n: int, hi: int, max_width: int) -> int:
    """The width of a sum at resolution 2**-n whose top index is ``hi``;
    a width past ``max_width`` raises ValueError."""
    width = (hi >> n) + 1
    if width > max_width:
        raise ValueError(f"sumset width {width} exceeds limit {max_width}")
    return width


def iterated_sum(B: DeltaSet, k: int, max_width: int = 1 << 12) -> DeltaSet:
    """k-fold sumset ``B + B + ... + B`` on the grid.

    With ``c = 1`` every partial sum is already a grid point, so the k-fold
    sum is exact.  Where ``_power_nfft`` allows, it is the support of
    ``irfft(rfft(1_B, N)**k)``: two transforms in place of three per
    pairwise step, certified like the FFT route of ``sumset`` (every entry
    within 1/4 of an integer, the counts adding up to ``|B|**k``) under the
    a-priori bound of ``_power_error_bound``.  Elsewhere it is k - 1
    pairwise sumsets, whose first step past ``max_width`` raises.
    ``|kB| <= k * 2**n`` always (the result sits inside ``[0, k)``).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    nfft = _power_nfft(B, k, max_width) if k > 1 else None
    if nfft is None:
        out = B
        for _ in range(k - 1):
            out = sumset(out, 1, B, max_width=max_width)
    else:
        width = ((k * int(B.indices[-1])) >> B.n) + 1
        out = DeltaSet(B.n, _power_support(B.indices, k, nfft), width)
    certify("iterated-sum-size", (k << B.n) - len(out))
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
    check_resolution(n)
    if size < 1:
        raise ValueError("size must be >= 1")
    if step is None:
        step = max(1, (1 << n) // size)
    if step < 1:
        raise ValueError("step must be >= 1")
    last = start + step * (size - 1)  # in Python ints: int64 would wrap past 2**63
    if start < 0 or last >= 1 << 63:
        raise ValueError(f"progression indices {start} to {last} leave the int64 range [0, 2**63)")
    reserve(9 * size, "gen_ap")  # the indices and DeltaSet's order check, one byte each
    idx = np.arange(size, dtype=np.int64)
    idx *= step
    idx += start
    return DeltaSet(n, idx, (last >> n) + 1)


def aligned_exponent(n_param: int) -> int:
    """The t with ``n_param == 16**t``; ValueError for any other n_param."""
    t4 = n_param.bit_length() - 1
    if n_param < 1 or n_param != 1 << t4 or t4 % 4:
        raise ValueError("n_param must be a power of 16 (i.e. 2**(4t))")
    return t4 // 4


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
    t = aligned_exponent(n_param)
    n = 2 * t  # grid exponent: 1/sqrt(n_param) = 2**-n exactly
    root = 1 << (2 * t)  # sqrt(n_param)
    quarter = 1 << t  # n_param ** (1/4)
    A = DeltaSet(n, np.arange(1, root + 1, dtype=np.int64), width=2)
    bc = np.arange(1, quarter + 1, dtype=np.int64) << t
    B = DeltaSet(n, bc, width=2)
    return A, B, B


def save_set(A: DeltaSet, path) -> None:
    """Write the one-index-per-line text format with an ``n=.. W=.. N=..``
    header, N the number of index lines."""
    with open(path, "w") as fh:
        fh.write(f"n={A.n} W={A.width} N={len(A)}\n")
        for k in A.indices.tolist():
            fh.write(f"{k}\n")


_DECIMAL = re.compile("-?[0-9]+")
_HEADER = re.compile(
    rf"n=({_DECIMAL.pattern})\s+W=({_DECIMAL.pattern})(?:\s+N=({_DECIMAL.pattern}))?"
)
_CUT = "no newline ends the file: it may be cut short"


def _decimal(text: str) -> int:
    """An integer spelled as ``save_set`` writes one: ASCII digits after an
    optional minus, with no ``+``, ``_`` or other digit forms."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def load_set(path) -> DeltaSet:
    """Read the text format of ``save_set``; a malformed file raises
    FormatError.  The header is ``n=<int> W=<int> N=<int>`` and nothing
    else, and every line must end in a newline, as ``save_set`` writes
    them, so a file cut inside a line is refused, and one cut at a line end
    holds fewer index lines than N.  A header without ``N``, as files
    written before the count was added have, is read with no count check."""
    with _utf8(path) as fh:
        header = fh.readline()
        if not (head := _HEADER.fullmatch(header.strip())):
            got = _echo(repr(header.strip()))
            raise FormatError(path, 1, f"header must read 'n=<int> W=<int> N=<int>', got {got}")
        if not header.endswith("\n"):
            raise FormatError(path, 1, _CUT)
        n, width = int(head[1]), int(head[2])
        idx = []
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                try:
                    idx.append(_decimal(line.strip()))
                except ValueError:
                    bad = _echo(repr(line.strip()))
                    raise FormatError(path, lineno, f"not an index: {bad}") from None
                if not line.endswith("\n"):
                    raise FormatError(path, lineno, _CUT)
    if head[3] is not None and int(head[3]) != len(idx):
        raise FormatError(path, 1, f"header says N={head[3]}, the file holds {len(idx)} points")
    try:
        return DeltaSet(n, np.asarray(idx, dtype=np.int64), width)
    except ValueError as exc:
        raise FormatError(path, None, str(exc)) from None
