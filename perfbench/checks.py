"""Output checks that do not trust the code they check.

Each checker recomputes a result by a route of its own (Python integers,
exact integer convolution, ``np.unique`` counts on integer indices), or
tests a property the method must have, and raises ``CheckError`` on the
first disagreement.  Nothing here imports ``dyadic.measures``; the
assembly check rebuilds its sets only through the public generators and
surgeries, whose sizes it then holds against the report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import zlib
from fractions import Fraction
from math import fsum

import numpy as np

ENTROPY_TOL = 1e-9
EXPONENT_TOL = 1e-12
SLOPE_SCAN_CAP = 10_000  # the sweep samples slopes beyond this many


class CheckError(AssertionError):
    """A result disagreed with its independent recomputation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def dyadic_parts(c: Fraction) -> tuple[int, int]:
    """``(p, q)`` with ``c == p / 2**q``."""
    c = Fraction(c)
    q = c.denominator.bit_length() - 1
    require(c.denominator == 1 << q, f"slope {c} is not dyadic")
    return c.numerator, q


def entropy_of_counts(counts, total: int) -> float:
    """Base-2 entropy of integer masses ``counts`` summing to ``total``."""
    return math.log2(total) - fsum(b * math.log2(b) for b in counts if b > 1) / total


# ---------------------------------------------------------------- sumsets


def brute_sumset(a: list[int], c: Fraction, b: list[int]) -> list[int]:
    """Sorted ``{a + floor(c * b)}`` in Python integers."""
    p, q = dyadic_parts(c)
    shifts = {(p * k) >> q for k in b}
    return sorted({x + s for x in a for s in shifts})


def _coeff_dtype(max_count: int) -> str:
    for dtype in ("<u2", "<u4", "<u8"):
        if max_count < 1 << (8 * int(dtype[-1]) - 1):
            return dtype
    raise CheckError("convolution counts too large")


def convolve_support(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sorted support of the indicator convolution of ``s`` and ``t``.

    Both indicator vectors are packed into Python integers with one
    fixed-width coefficient per index, so one exact big-integer product
    is their convolution; no coefficient can carry into the next.
    """
    dtype = _coeff_dtype(min(len(s), len(t)))
    width = int(dtype[-1])

    def pack(idx):
        vec = np.zeros(int(idx[-1]) + 1, dtype=dtype)
        vec[idx] = 1
        return int.from_bytes(vec.tobytes(), "little")

    prod = pack(s) * pack(t)
    n_coeff = int(s[-1]) + int(t[-1]) + 1
    coeffs = np.frombuffer(prod.to_bytes(n_coeff * width, "little"), dtype=dtype)
    return np.flatnonzero(coeffs)


def check_sumset(out, a, c, b) -> None:
    """``out`` must equal ``a + c*b`` element by element.

    For c = 1 the reference is the exact convolution; otherwise a Python
    integer brute force over all pairs.
    """
    if Fraction(c) == 1:
        expected = convolve_support(a.indices, b.indices).tolist()
    else:
        expected = brute_sumset(a.indices.tolist(), Fraction(c), b.indices.tolist())
    got = out.indices.tolist()
    require(len(got) == len(expected), f"sumset size {len(got)} != {len(expected)}")
    require(got == expected, "sumset elements differ from the brute force")
    require(out.n == a.n and (expected[-1] >> a.n) < out.width, "sumset grid or width wrong")


def check_iterated_sum(out, b, k: int) -> None:
    """``out`` must equal the k-fold sum of ``b``, by exact convolution."""
    support = b.indices
    for _ in range(k - 1):
        support = convolve_support(support, b.indices)
    require(len(out) == support.size, f"iterated sum size {len(out)} != {support.size}")
    require(np.array_equal(out.indices, support), "iterated sum elements differ")


def doubling_sizes(indices: np.ndarray, steps: int) -> list[int]:
    """|B|, |2B|, |4B|, ... by repeated exact self-convolution."""
    sizes = [int(indices.size)]
    cur = indices
    for _ in range(steps):
        cur = convolve_support(cur, cur)
        sizes.append(int(cur.size))
    return sizes


def slow_step(sizes: list[int], n: int, s: int) -> int | None:
    """First k in 1..s-1 with ``|2^(k+1)B|**s <= 2**(s+n) * |2^k B|**s``."""
    for k in range(1, s):
        if sizes[k + 1] ** s <= (1 << (s + n)) * sizes[k] ** s:
            return k
    return None


def check_ladder(result, b, steps: int) -> None:
    """Sizes of ``B, 2B, 4B, ...`` by convolution; slow step re-derived."""
    k, table = result
    sizes = doubling_sizes(b.indices, steps)
    require([i for i, _ in table] == list(range(steps + 1)), "ladder steps mislabelled")
    require([sz for _, sz in table] == sizes, f"ladder sizes {table} != {sizes}")
    require(k == slow_step(sizes, b.n, steps), "slow step differs from its re-derivation")


# ---------------------------------------------------------------- assembly


def rebuild_assembly_sets(params, seed: int):
    """(B, A', B'') rebuilt with the public generators and surgeries."""
    from dyadic import (
        IntervalFamily,
        build_polarised_instance,
        classify_low_high,
        collapse_suffixes,
        extend_intervals,
        lift_intervals,
        named_stream,
        prune_adjacent,
        trivial_intervals,
    )

    inst = build_polarised_instance(params, named_stream(seed, "assembly/instance"), params.pattern)
    a1, a_prof = prune_adjacent(inst.a, inst.a_profile)
    runs = trivial_intervals(inst.b_profile.coarsen(params.ell))
    if len(runs):
        lifted = lift_intervals(runs, params.ell)
        extended = extend_intervals(inst.b_profile, lifted, params.zeta, params.ell)
        family = classify_low_high(extended, a_prof, params.gamma_cap)
    else:
        family = IntervalFamily(())
    retained = tuple(iv for iv in family if params.xi * (len(iv) - 1) >= 1)
    b2 = inst.b
    if retained:
        b2 = collapse_suffixes(inst.b, inst.b_profile, IntervalFamily(retained), params.xi)[0]
    return inst.b, a1, b2


def projected_entropy(x: np.ndarray, y: np.ndarray, c: Fraction) -> float:
    """H of the uniform measure on x * y pushed by (kx, ky) -> kx + floor(c ky)."""
    p, q = dyadic_parts(c)
    require(int(y[-1]) * abs(p) < 1 << 62 and int(x[-1]) < 1 << 61, "indices too wide for int64")
    cells = (x[:, None] + ((y * p) >> q)[None, :]).ravel()
    counts = np.unique(cells, return_counts=True)[1]
    return entropy_of_counts(counts.tolist(), x.size * y.size)


def check_assembly(report, params, seed: int) -> None:
    b, a1, b2 = rebuild_assembly_sets(params, seed)
    require(
        (report.size_a, report.size_b, report.size_b_collapsed) == (len(a1), len(b), len(b2)),
        "assembly set sizes differ from the rebuilt sets",
    )
    k = 1 << params.c_bits
    require(list(report.cs) == [Fraction(i, k) for i in range(1, k + 1)], "slope grid differs")
    require(len(report.per_c_entropy) == k, "one entropy per slope expected")
    require(abs(report.alpha_bar_bits - math.log2(len(a1))) <= EXPONENT_TOL, "alpha_bar_bits wrong")
    top = math.log2(len(a1) * len(b2))
    for c, h in zip(report.cs, report.per_c_entropy):
        ref = projected_entropy(a1.indices, b2.indices, c)
        require(abs(ref - h) <= ENTROPY_TOL, f"H(pi_{c} mu) = {h}, recomputed {ref}")
        require(
            report.alpha_bar_bits - ENTROPY_TOL <= h <= top + ENTROPY_TOL,
            f"H(pi_{c} mu) = {h} outside [log2|A'|, log2|A'||B''|]",
        )
    mean = fsum(report.per_c_entropy) / k
    require(abs(report.nu_avg_entropy - mean) <= ENTROPY_TOL, "nu_avg_entropy is not the mean")
    require(report.nu_avg_entropy >= report.assembled_rhs - ENTROPY_TOL, "assembled bound fails")


def assembly_work(report) -> int:
    """Atom-slope evaluations: support atoms of A' x B'' times slopes."""
    return report.size_a * report.size_b_collapsed * len(report.cs)


# ---------------------------------------------------------------- sweep


def family_stream(seed: int, name: str) -> np.random.Generator:
    """The generator the experiments draw for stream ``name`` of ``seed``."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _tree(levels: set[int], n: int) -> list[int]:
    # m = 1 uniform tree, children packed leftmost: 2 children on branching levels
    cells = [0]
    for s in range(n):
        cells = [2 * c + o for c in cells for o in range(2 if s in levels else 1)]
    return cells


def family_sets(family: str, n: int, a_bits: int, b_bits: int, seed: int) -> tuple[list[int], list[int]]:
    """The sweep's (A, B) rebuilt from each family's definition."""
    if family == "aligned-triple":
        a_size, b_size = 1 << a_bits, 1 << b_bits
        return (
            [i * max(1, (1 << n) // a_size) for i in range(a_size)],
            [i * max(1, (1 << n) // b_size) for i in range(b_size)],
        )
    rng = family_stream(seed, f"sweep/{family}/n={n}/sets")
    if family == "uniform-tree":
        a_levels = set(rng.choice(n, size=a_bits, replace=False).tolist())
        b_levels = set(rng.choice(n, size=b_bits, replace=False).tolist())
        return _tree(a_levels, n), _tree(b_levels, n)
    if family == "random-frostman":
        a = sorted(rng.choice(1 << n, size=1 << a_bits, replace=False).tolist())
        b = sorted(rng.choice(1 << n, size=1 << b_bits, replace=False).tolist())
        return a, b
    if family == "polarised-tree":
        b_levels = set(rng.choice(n, size=b_bits, replace=False).tolist())
        rest = [s for s in range(n) if s not in b_levels]
        extra = set()
        if a_bits > b_bits:
            extra = {rest[i] for i in rng.choice(len(rest), size=a_bits - b_bits, replace=False).tolist()}
        return _tree(b_levels | extra, n), _tree(b_levels, n)
    raise CheckError(f"unknown family {family!r}")


def check_sweep_record(rec, config, sample: list[int]) -> None:
    """One record against its rebuilt sets; ``sample`` picks the slopes recomputed."""
    n = rec.delta_exponent
    a_bits = int(round(config.params.alpha * n))
    b_bits = int(round(config.params.beta * n))
    a, b = family_sets(rec.family, n, a_bits, b_bits, config.seed)
    require((rec.size_a, rec.size_b) == (len(a), len(b)), "sweep set sizes differ")
    require(abs(rec.alpha_bar - math.log2(len(a)) / n) <= EXPONENT_TOL, "alpha_bar wrong")
    g = min(max(int(round(rec.gamma * n)), 1), n)
    total = 1 << g
    cs = list(rec.cs)
    if total > SLOPE_SCAN_CAP:
        require(rec.sampled and len(cs) == SLOPE_SCAN_CAP, "large slope set must be sampled")
        require(all(c.denominator <= total and 0 < c <= 1 for c in cs), "sampled slope off grid")
        require(all(x < y for x, y in zip(cs, cs[1:])), "sampled slopes not ascending")
    else:
        require(not rec.sampled and cs == [Fraction(k, total) for k in range(1, total + 1)],
                "exhaustive slope set differs")
    require(rec.sample_size == len(cs) == len(rec.exponents), "slope counts differ")
    top = math.log2(len(b)) / n
    require(
        all(-EXPONENT_TOL <= e <= top + EXPONENT_TOL for e in rec.exponents),
        "exponent outside [0, log2|B|/n]",
    )
    for i in sample:
        size = len(brute_sumset(a, cs[i], b))
        ref = math.log2(size) / n - rec.alpha_bar
        require(abs(ref - rec.exponents[i]) <= EXPONENT_TOL,
                f"exponent at c={cs[i]} is {rec.exponents[i]}, recomputed {ref}")
    best = max(range(len(cs)), key=lambda i: (rec.exponents[i], -i))
    require(rec.best_c == cs[best] and rec.best_exponent == rec.exponents[best], "best slope wrong")
    require(abs(rec.median_exponent - statistics.median(rec.exponents)) <= EXPONENT_TOL,
            "median exponent wrong")


def sweep_work(records) -> int:
    """Point pairs |A|*|B| per scanned slope."""
    return sum(r.size_a * r.size_b * r.sample_size for r in records)


def check_greedy(rep, b, c) -> None:
    """Greedy sizes recomputed along the chosen slopes in Python integers."""
    n = b.n
    bs = b.indices.tolist()
    slopes = {Fraction(k, 1 << n) for k in c.indices.tolist()}
    require(all(s in slopes for s in rep.c_sequence), "greedy chose a slope outside C")
    require(rep.c_sequence[0] == min(slopes), "greedy must start at the smallest slope")
    h = brute_sumset([0], rep.c_sequence[0], bs)
    sizes = [len(h)]
    for s in rep.c_sequence[1:]:
        h = brute_sumset(h, s, bs)
        sizes.append(len(h))
    require(list(rep.sizes) == sizes, f"greedy sizes {list(rep.sizes)} != {sizes}")
    steps = len(sizes)
    star = next(
        (k for k in range(1, steps)
         if sizes[k] ** (steps - 1) <= (1 << (steps - 1 + n)) * sizes[k - 1] ** (steps - 1)),
        None,
    )
    require(rep.n_star == star, "pigeonhole step differs from its re-derivation")


def greedy_work(rep, b, c) -> int:
    """Pairs |H_k|*|B| for every slope scanned at every greedy step."""
    return sum(size * len(b) * len(c) for size in rep.sizes[:-1])


# ---------------------------------------------------------------- cli


def read_measure_file(path) -> tuple[int, int, list, list[int], int]:
    """(dim, n, keys, integer masses, total) of a measure file, exactly."""
    with open(path) as fh:
        data = json.load(fh)
    weights = [Fraction(w) for _, w in data["atoms"]]
    den = math.lcm(*(w.denominator for w in weights))
    masses = [w.numerator * (den // w.denominator) for w in weights]
    require(sum(masses) == den, "measure file weights do not sum to 1")
    keys = [tuple(k) for k, _ in data["atoms"]]
    return int(data["dim"]), int(data["n"]), keys, masses, den


def projected_counts(keys, masses, c: Fraction) -> list[int]:
    p, q = dyadic_parts(c)
    cells: dict[int, int] = {}
    for (kx, ky), w in zip(keys, masses):
        k = kx + ((p * ky) >> q)
        cells[k] = cells.get(k, 0) + w
    return list(cells.values())


def file_projected_entropy(measure, c: Fraction) -> float:
    _, _, keys, masses, den = measure
    return entropy_of_counts(projected_counts(keys, masses, c), den)


def file_projected_l2(measure, c: Fraction) -> Fraction:
    """``2**n * sum_I pi_c mu(I)**2`` exactly."""
    _, n, keys, masses, den = measure
    return Fraction(sum(v * v for v in projected_counts(keys, masses, c)) << n, den * den)


def parse_csv(text: str, header: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    require(reader.fieldnames == header, f"csv header {reader.fieldnames} != {header}")
    rows = list(reader)
    require(len(rows) > 0, "csv output has no rows")
    return rows


def check_cli_entropy(payload_or_rows, fmt: str, measure, slopes: list[str]) -> None:
    """Left-hand sides H(pi_c mu) of ``dyadic entropy``, recomputed from the file."""
    if fmt == "json":
        got = [(ch["c"], ch["lhs"]) for ch in payload_or_rows["chains"]]
        require(all(ch["slack"] >= -ENTROPY_TOL for ch in payload_or_rows["chains"]),
                "entropy chain slack negative")
    else:
        got = [(row["c"], float(row["lhs"])) for row in payload_or_rows]
    require([c for c, _ in got] == slopes, "entropy slopes differ from the request")
    for c, lhs in got:
        ref = file_projected_entropy(measure, Fraction(c))
        require(abs(ref - lhs) <= ENTROPY_TOL * max(1.0, abs(ref)),
                f"entropy lhs at c={c} is {lhs}, recomputed {ref}")


def nu_slopes(nu_measure) -> list[tuple[Fraction, Fraction]]:
    _, n, keys, masses, den = nu_measure
    return sorted((Fraction(k[0], 1 << n), Fraction(w, den)) for k, w in zip(keys, masses))


def check_cli_l2(payload_or_rows, fmt: str, measure, nu_measure) -> None:
    """``project-avg --mode l2``: the exact nu-average of the projected L2 norms."""
    per_c = [(c, file_projected_l2(measure, c)) for c, _ in nu_slopes(nu_measure)]
    if fmt == "json":
        average = sum((w * v for (c, w), (_, v) in zip(nu_slopes(nu_measure), per_c)), Fraction(0))
        require(Fraction(payload_or_rows["average"]) == average,
                f"l2 average {payload_or_rows['average']} != {average}")
        got = [(Fraction(row["c"]), Fraction(row["l2"])) for row in payload_or_rows["per_c"]]
        require(got == per_c, "per-slope l2 values differ")
    else:
        got = [(Fraction(row["c"]), float(row["l2"])) for row in payload_or_rows]
        require([c for c, _ in got] == [c for c, _ in per_c], "l2 slopes differ")
        for (c, v), (_, ref) in zip(got, per_c):
            require(abs(v - float(ref)) <= ENTROPY_TOL * float(ref), f"l2 at c={c} differs")


def check_cli_projected_entropies(payload_or_rows, fmt: str, measure, nu_measure) -> None:
    """``project-avg --mode entropy``: per-slope H(pi_c mu) and their nu-average."""
    slopes = nu_slopes(nu_measure)
    refs = [file_projected_entropy(measure, c) for c, _ in slopes]
    if fmt == "json":
        got = [(Fraction(row["c"]), row["entropy"]) for row in payload_or_rows["per_c"]]
        avg = fsum(float(w) * h for (_, w), h in zip(slopes, refs))
        require(abs(payload_or_rows["value"] - avg) <= ENTROPY_TOL * max(1.0, avg),
                "averaged projected entropy differs")
        require(payload_or_rows["slack"] >= -ENTROPY_TOL, "entropy average under its bound")
    else:
        got = [(Fraction(row["c"]), float(row["entropy"])) for row in payload_or_rows]
    require([c for c, _ in got] == [c for c, _ in slopes], "entropy slopes differ")
    for (c, h), ref in zip(got, refs):
        require(abs(h - ref) <= ENTROPY_TOL * max(1.0, ref), f"H(pi_{c} mu) differs")
