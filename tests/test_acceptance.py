"""Acceptance gate: thirteen end-to-end checks, one pass/fail line each.

Every check exercises the library at desk scale with exact arithmetic
wherever the quantity is rational, and prints a single summary line; a
failure prints FAIL before the traceback.  Seeds are fixed so every run
audits the same instances.
"""

import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from dyadic import (
    AssemblyParams,
    BranchingProfile,
    DeltaSet,
    DiscreteMeasure,
    ExperimentConfig,
    IntervalFamily,
    ParameterSet,
    ProjectionParams,
    ScaleSpec,
    averaged_l2,
    collapse,
    collapse_suffixes,
    conditional_entropy,
    counting_measure,
    discretize_density_l2,
    entropy,
    entropy_chain,
    extend_intervals,
    find_low_level,
    gen_ap,
    gen_uniform_tree,
    l2_of_projection,
    lift_intervals,
    named_stream,
    polarisation_check,
    pow2_ge,
    pow2_le,
    product_measure,
    prune_adjacent,
    run_alignment_sharpness,
    run_doubling_ladder,
    run_expansion_sweep,
    run_final_assembly,
    trivial_intervals,
)

TOL = 2.0**-40


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException:
                print(f"[criterion {num:02d}] FAIL {name}", flush=True)
                raise
            dt = time.monotonic() - start
            print(f"[criterion {num:02d}] PASS {name} ({detail}{dt:.1f}s)", flush=True)

        return wrapper

    return deco


def _random_measure(rng, dim, n, max_atoms):
    hi = 1 << (dim * n)
    size = min(int(rng.integers(1, max_atoms + 1)), hi)
    if hi <= 1 << 16:
        raw = rng.choice(hi, size=size, replace=False)
    else:
        raw = np.unique(rng.integers(0, hi, size=size))
    weights = rng.integers(1, 64, size=raw.size)
    if dim == 1:
        atoms = {int(k): int(w) for k, w in zip(raw, weights)}
    else:
        mask = (1 << n) - 1
        atoms = {(int(k) >> n, int(k) & mask): int(w) for k, w in zip(raw, weights)}
    return DiscreteMeasure(dim, n, atoms, int(weights.sum()))


def _random_dyadic(rng, n):
    q = int(rng.integers(0, n + 1))
    return Fraction(int(rng.integers(0, (1 << q) + 1)), 1 << q)


def _random_profile(rng, max_size=2048):
    m = int(rng.integers(1, 4))
    levels = int(rng.integers(2, 6))
    r, size = [], 1
    for _ in range(levels):
        cap = max(1, min(1 << m, max_size // size))
        r.append(int(rng.integers(1, cap + 1)))
        size *= r[-1]
    return BranchingProfile(m, tuple(r))


@criterion(1, "entropy refinement dual evaluation")
def test_criterion_01():
    rng = named_stream(2026, "acceptance/1")
    start = time.monotonic()
    worst = 0.0
    for i in range(1000):
        dim = 1 if i % 2 else 2
        n = int(rng.integers(2, 13))
        mu = _random_measure(rng, dim, n, 120)
        coarse = int(rng.integers(0, n))
        fine = int(rng.integers(coarse + 1, n + 1))
        direct = conditional_entropy(mu, fine, coarse)
        chained = entropy(mu, fine) - entropy(mu, coarse)
        worst = max(worst, abs(direct - chained))
    elapsed = time.monotonic() - start
    assert worst <= TOL, worst
    assert elapsed < 5.0, elapsed
    return f"1000 measures, worst gap {worst:.2e}, "


@criterion(2, "collision entropy lower bound")
def test_criterion_02():
    rng = named_stream(2026, "acceptance/2")
    for i in range(1000):
        dim = 1 if i % 2 else 2
        n = int(rng.integers(1, 13))
        mu = _random_measure(rng, dim, n, 120)
        h = entropy(mu, n)
        rhs = dim * n - math.log2(float(discretize_density_l2(mu, n)))
        assert h >= rhs - 1e-9, (h, rhs)
    return "1000 measures, zero violations, "


@criterion(3, "multiscale chain inequality")
def test_criterion_03():
    rng = named_stream(2026, "acceptance/3")
    start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(4, 17))
        mu = product_measure(
            _random_measure(rng, 1, n, 40), _random_measure(rng, 1, n, 40)
        )
        inner = int(rng.integers(1, min(n, 5)))
        mids = sorted(int(j) for j in rng.choice(n - 1, size=inner, replace=False) + 1)
        cuts = [0, *mids, n]
        rep = entropy_chain(mu, _random_dyadic(rng, n), cuts)
        assert rep.slack >= -1e-9, (cuts, rep.slack)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    return "100 product measures, zero violations, "


@criterion(4, "projection L2 two-path equality")
def test_criterion_04():
    rng = named_stream(2026, "acceptance/4")
    for _ in range(500):
        n = int(rng.integers(6, 11))
        mu = _random_measure(rng, 2, n, 1000)
        c = _random_dyadic(rng, n)
        value = l2_of_projection(mu, c)  # pair path asserted inside
        diagonal = Fraction(sum(w * w for w in mu.atoms.values()) << n, mu.denom**2)
        assert value >= diagonal  # off-diagonal pairs only ever add mass
    return "500 instances <= 10**3 atoms, "


@criterion(5, "collapse cardinality identity")
def test_criterion_05():
    rng = named_stream(2026, "acceptance/5")
    for _ in range(500):
        profile = _random_profile(rng)
        tree = gen_uniform_tree(profile, rng, placement="random")
        k = int(rng.integers(1, profile.levels + 1))
        levels = [int(s) for s in rng.choice(profile.levels, size=k, replace=False)]
        out, new_profile = collapse(tree, profile, levels)
        scale = 1
        for s in levels:
            scale *= profile.r[s]
        assert len(out) * scale == len(tree)
        assert all(new_profile.r[s] == 1 for s in levels)
    return "500 (profile, S) pairs, exact, "


@criterion(6, "separation pruning audits")
def test_criterion_06():
    rng = named_stream(2026, "acceptance/6")
    # stage one: adjacent-sibling pruning, brute-force pairwise gaps
    for _ in range(200):
        profile = _random_profile(rng)
        tree = gen_uniform_tree(profile, rng, placement="random")
        pruned, _ = prune_adjacent(tree, profile)
        assert len(pruned) << profile.levels >= len(tree)
        idx, m, n = pruned.indices, profile.m, profile.n
        for depth in range(1, profile.levels + 1):
            cells = np.unique(idx >> (n - m * depth))
            parents = cells >> m
            same = parents[1:] == parents[:-1]
            assert np.all(cells[1:][same] - cells[:-1][same] >= 2)

    # stage two: suffix collapsing keeps blocks branching and far apart
    audited = 0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        ell = 5 if m == 2 else 6
        zeta = xi = Fraction(1, 2 * m)
        blocks = int(rng.integers(1, 3)) if m == 2 else 1
        r, size = [], 1
        for _ in range(blocks * ell):
            cap = max(3, min(1 << m, 6000 // size))
            r.append(int(rng.integers(3, cap + 1)))
            size *= r[-1]
        r.extend([1] * ell)
        profile = BranchingProfile(m, tuple(r))
        tree = gen_uniform_tree(profile, rng, placement="random")
        pruned, pprof = prune_adjacent(tree, profile)
        runs = trivial_intervals(pprof.coarsen(ell))
        fam = extend_intervals(pprof, lift_intervals(runs, ell), zeta, ell)
        case_a = IntervalFamily(tuple(iv for iv in fam if iv.tag == "case_a"))
        assert len(case_a) >= 1
        out, nprof, _ = collapse_suffixes(pruned, pprof, case_a, xi)
        for iv in case_a:
            audited += 1
            # branching floor of the retained prefix
            assert pow2_le(xi * zeta * m * len(iv), nprof.block_product(iv.lo, iv.hi))
            # survivors inside one top cell stay (fine/coarse)**(2*xi) apart
            shift = nprof.n - m * (iv.hi + 1)
            cells = np.unique(out.indices >> shift)
            tops = cells >> (m * (iv.hi + 1 - iv.lo))
            for t in np.unique(tops):
                mine = cells[tops == t]
                if mine.size >= 2:
                    gap = int(np.diff(mine).min())
                    assert pow2_le((1 - 2 * xi) * m * len(iv), gap)
    return f"200 + 100 trees, {audited} collapsed intervals, "


@criterion(7, "extension threshold sandwich")
def test_criterion_07():
    rng = named_stream(2026, "acceptance/7")
    audited = 0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        ell = int(rng.integers(2, 5))
        blocks = int(rng.integers(2, 5))
        zeta = Fraction(1, int(rng.integers(1, ell + 1)))  # ell * zeta >= 1
        eta = Fraction(int(rng.integers(1, 4)), 4)
        lo_a = 1
        while not pow2_le((1 - eta) * m, lo_a):
            lo_a += 1
        pattern = rng.integers(0, 2, size=blocks)
        if pattern.all():
            pattern[int(rng.integers(0, blocks))] = 0
        ra, rb = [], []
        for branching in pattern:
            for _ in range(ell):
                if branching:
                    rb.append(int(rng.integers(2, (1 << m) + 1)))
                    ra.append(int(rng.integers(lo_a, (1 << m) + 1)))
                else:
                    rb.append(1)
                    ra.append(int(rng.integers(1, (1 << m) + 1)))
        profile_a = BranchingProfile(m, tuple(ra))
        profile_b = BranchingProfile(m, tuple(rb))
        assert polarisation_check(profile_a, profile_b, eta) == []
        lifted = lift_intervals(trivial_intervals(profile_b.coarsen(ell)), ell)
        fam = extend_intervals(profile_b, lifted, zeta, ell)
        for iv in fam:
            if iv.tag != "case_a":
                continue
            audited += 1
            prod = profile_b.block_product(iv.lo, iv.hi)
            assert pow2_le(zeta * m * len(iv), prod)
            assert pow2_ge(2 * zeta * m * len(iv), prod)
    assert audited > 0
    return f"100 profiles, {audited} case-(a) intervals, "


@criterion(8, "branching numerology brute force")
def test_criterion_08():
    start = time.monotonic()
    pairs = checks = 0
    gammas = [Fraction(g, 8) for g in range(1, 9)]
    for m in (1, 2, 3):
        full = 1 << m
        for big_n in range(1, 7):
            for t_mask in range(1 << big_n):  # levels where B branches fully
                free = [s for s in range(big_n) if not (t_mask >> s) & 1]
                if not free:
                    continue  # B full everywhere: no trivial level to find
                n_free = len(free)
                for vals in itertools.product(range(1, full + 1), repeat=n_free):
                    pairs += 1
                    r_a, r_b = [full] * big_n, [full] * big_n
                    for s, v in zip(free, vals):
                        r_a[s] = v
                        r_b[s] = 1
                    pa = BranchingProfile(m, tuple(r_a))
                    pb = BranchingProfile(m, tuple(r_b))
                    prod8 = 1
                    for v in vals:
                        prod8 *= v
                    prod8 **= 8
                    for g in range(1, 9):
                        # hypothesis g/8 > (log2|A| - log2|B|)/(mN - log2|B|),
                        # exact in integers
                        if (1 << (g * m * n_free)) > prod8:
                            checks += 1
                            s = find_low_level(pa, pb, gammas[g - 1])
                            assert s is not None, (m, big_n, t_mask, vals, g)
                            assert r_b[s] == 1
                            assert r_a[s] ** 8 <= 1 << (g * m)
    elapsed = time.monotonic() - start
    assert pairs == 618_474 and checks == 2_112_538
    assert elapsed < 120.0, elapsed
    return f"{pairs} profile pairs, {checks} thresholds, zero exceptions, "


@criterion(9, "doubling ladder slow step")
def test_criterion_09():
    rng = named_stream(2026, "acceptance/9")
    for _ in range(100):
        n = int(rng.integers(3, 10))
        size = int(rng.integers(1, (1 << n) + 1))
        idx = np.sort(rng.choice(1 << n, size=size, replace=False))
        k, _ = run_doubling_ladder(DeltaSet(n, idx), 6)
        assert 1 <= k < 6
    return "100 sets, k always found, "


@criterion(10, "alignment sharpness trend")
def test_criterion_10():
    start = time.monotonic()
    rows = run_alignment_sharpness([16, 256, 4096])
    slopes = [row.product_slope for row in rows]
    best = [row.best_c_slope for row in rows]
    assert slopes[0] > slopes[1] > slopes[2]
    assert best[0] > best[1] > best[2]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    return f"slopes {slopes[0]:.3f} > {slopes[1]:.3f} > {slopes[2]:.3f}, "


@criterion(11, "expansion sweep monotonicity")
def test_criterion_11():
    start = time.monotonic()
    config = ExperimentConfig(
        params=ParameterSet(
            alpha=Fraction(7, 10), beta=Fraction(2, 5), gamma=Fraction(4, 5),
            kappa=Fraction(1, 2), eta=Fraction(1, 2), zeta=Fraction(1, 8),
            ell=32,
        ),
        family="aligned-triple",
        scales=(ScaleSpec(1, 18, 1),),
        gammas=(Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
        seed=7,
    )
    records = {rec.gamma: rec for rec in run_expansion_sweep(config)}
    lo = records[Fraction(1, 5)].median_exponent
    hi = records[Fraction(4, 5)].median_exponent
    assert hi - lo >= 0.02, (lo, hi)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, elapsed
    return f"medians {lo:.4f} -> {hi:.4f}, gap {hi - lo:.4f}, "


@criterion(12, "final assembly bounds")
def test_criterion_12():
    witnesses = 0
    for seed in range(20):
        rep = run_final_assembly(seed=seed)  # every bound asserted inside
        assert rep.n == 16
        assert rep.nu_avg_entropy >= rep.assembled_rhs - 1e-9
        if rep.nonempty_low and rep.expanded:
            witnesses += 1
            assert rep.best_entropy > rep.alpha_bar_bits
    assert witnesses >= 1
    return f"20 seeded instances, {witnesses} expanded with low intervals, "


@criterion(13, "averaged projection budget")
def test_criterion_13():
    budget = 2.0**10
    n = 12
    mu = product_measure(
        counting_measure(gen_ap(n, 1 << round(0.7 * n))),
        counting_measure(gen_ap(n, 1 << round(0.4 * n))),
    )
    fitted = []
    for g in (2, 6, 10):
        nu = counting_measure(gen_ap(n, 1 << g))
        params = ProjectionParams.from_cardinalities(
            n, 1 << round(0.7 * n), 1 << round(0.4 * n), 1 << g, Fraction(1, 2)
        )
        rep = averaged_l2(mu, nu, params, strict=True)
        assert rep.audit_failures == ()
        assert rep.fitted <= budget
        fitted.append(rep.fitted)
        if g == 2:
            for c, value in rep.per_c:
                if c in (Fraction(1, 4), Fraction(3, 4)):
                    assert l2_of_projection(mu, c) == value
    assert fitted == sorted(fitted)
    return f"fitted {max(fitted):.2e} within 2**10, "
