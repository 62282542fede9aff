"""The four benchmark workloads, built from the benchmark's seed.

``build(workload, seed, workdir, spawn)`` returns one round: a list of
``Op``s that the runner times, checks and repeats.  The library only ever
sees the inputs generated here.  Work units per operation:

* ``assembly``: atom-slope evaluations, |A'| * |B''| * slopes
* ``sweep``: point pairs |A| * |B| per scanned slope
* ``ladder``: pair sums, |X| * |Y| for every sumset X + Y formed
* ``cli``: calls
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import dyadic
from dyadic import AssemblyParams, DeltaSet, ExperimentConfig, ParameterSet, ScaleSpec

# Operations call the library as ``dyadic.<name>`` at run time, so a traced
# run sees the wrappers that tracing.Tracer.install put on the package.


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` and ``work`` are not.

    ``known_fault`` marks an operation that fails on every run through a
    fault of the library named in the README; its failure is counted, not
    treated as a wrong result.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    work: Callable[[Any], int]
    known_fault: bool = False


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng([seed, *purpose.encode()])


# ---------------------------------------------------------------- assembly

# Criterion-12 seeds at default parameters, without 9, 12, 17 and 18: those
# draw the "bb" pattern (2**16 atoms, 14-24 s each, and unsteady).
CRITERION_12_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16, 19)

_HAND = dict(m=3, ell=4, eta=Fraction(1, 3), zeta=Fraction(1, 4), xi=Fraction(1, 4),
             gamma_cap=Fraction(3, 4), trivial_a_bits=0)
# Hand-sized instances with every size knob pinned, so their cost does not
# move with the seed.  n24-bt and n48-ttbt have a low interval (cell audits).
HAND_SIZED = {
    "n24-tb": AssemblyParams(big_n=2, pattern="tb", branch_b_bits=1, c_bits=6, **_HAND),  # 2**12 atoms
    "n24-bt": AssemblyParams(big_n=2, pattern="bt", branch_b_bits=2, c_bits=4, **_HAND),  # 2**14 atoms
    "n48-ttbt": AssemblyParams(big_n=4, pattern="ttbt", branch_b_bits=2, c_bits=4, **_HAND),  # 2**14 atoms
}


def _assembly_op(name: str, params: AssemblyParams, lib_seed: int) -> Op:
    return Op(
        name,
        lambda: dyadic.run_final_assembly(params, seed=lib_seed),
        lambda rep: checks.check_assembly(rep, params, lib_seed),
        checks.assembly_work,
    )


def assembly_ops(seed: int) -> list[Op]:
    ops = [_assembly_op(f"c12-seed{s}", AssemblyParams(), s) for s in CRITERION_12_SEEDS]
    ops += [_assembly_op(name, p, seed) for name, p in HAND_SIZED.items()]
    return ops


# ---------------------------------------------------------------- sweep

# (family, n, alpha, beta, gamma): one sweep record each.  Slope sets of
# 2**round(gamma*n) > 10**4 slopes are sampled (10**4), the rest exhaustive.
# The sampled points sit at n <= 18 so that their cost is set by |A| and |B|
# rather than by where the seed puts the sets; the middle operation by cost,
# aligned-triple at gamma = 5/8, does not depend on the seed at all.
_AB = (Fraction(1, 2), Fraction(1, 4))
SWEEP_POINTS = (
    ("aligned-triple", 16, *_AB, Fraction(1, 4)),
    ("aligned-triple", 16, *_AB, Fraction(1, 2)),
    ("aligned-triple", 16, *_AB, Fraction(5, 8)),
    ("aligned-triple", 16, *_AB, Fraction(7, 8)),
    ("uniform-tree", 18, *_AB, Fraction(2, 3)),
    ("uniform-tree", 18, *_AB, Fraction(4, 5)),
    ("random-frostman", 17, *_AB, Fraction(2, 3)),
    ("random-frostman", 17, *_AB, Fraction(4, 5)),
    ("polarised-tree", 20, Fraction(2, 5), Fraction(1, 5), Fraction(1, 4)),
    ("polarised-tree", 16, *_AB, Fraction(7, 8)),
)
# Greedy cost moves with the slopes it picks, so it is kept small and far
# below the middle operation.
GREEDY_POINTS = ((12, 16, 32), (13, 16, 32), (14, 16, 32))  # (n, |B|, |C|)
SWEEP_CHECKED_SLOPES = 6


def _sweep_op(family, n, alpha, beta, gamma, seed: int) -> Op:
    config = ExperimentConfig(
        params=ParameterSet(alpha=alpha, beta=beta, gamma=Fraction(4, 5), kappa=Fraction(1, 2),
                            eta=Fraction(1, 2), zeta=Fraction(1, 8), ell=32),
        family=family,
        scales=(ScaleSpec(1, n, 1),),
        gammas=(gamma,),
        seed=seed,
    )
    pick = _rng(seed, f"check/{family}/{n}/{gamma}")

    def check(records):
        checks.require(len(records) == 1, "one record per sweep point expected")
        rec = records[0]
        sample = pick.choice(rec.sample_size, size=min(SWEEP_CHECKED_SLOPES, rec.sample_size),
                             replace=False).tolist()
        checks.check_sweep_record(rec, config, sample)

    return Op(f"sweep-{family}-n{n}-g{gamma}", lambda: dyadic.run_expansion_sweep(config), check,
              checks.sweep_work)


def _greedy_op(n: int, b_size: int, c_size: int, seed: int) -> Op:
    rng = _rng(seed, f"greedy/{n}")
    b = DeltaSet(n, np.sort(rng.choice(1 << n, size=b_size, replace=False)))
    c = DeltaSet(n, np.sort(rng.choice(1 << n, size=c_size, replace=False)) + 1, width=2)
    return Op(
        f"greedy-n{n}",
        lambda: dyadic.run_greedy_iterated_sum(b, c, 4, Fraction(1, 10)),
        lambda rep: checks.check_greedy(rep, b, c),
        lambda rep: checks.greedy_work(rep, b, c),
    )


def sweep_ops(seed: int) -> list[Op]:
    ops = [_sweep_op(*point, seed) for point in SWEEP_POINTS]
    ops += [_greedy_op(*point, seed) for point in GREEDY_POINTS]
    return ops


# ---------------------------------------------------------------- ladder

# (n, log2|B|)
LADDER_SETS = ((5, 2), (5, 3), (6, 4), (6, 5), (7, 4), (7, 5), (7, 6), (8, 5), (8, 7))
LADDER_STEPS = 6
ITERATED = ((12, 2049, 4), (16, 4097, 3), (10, 65, 4))  # (n, |B|, k)
FINE_SUMSET_N = (31, 32, 40, 62)
# Inputs of the n >= 32 fine-slope sumsets do not depend on the seed: with
# p and the indices in [2**(n-1), 2**n), int64 products p * k overflow in
# grid.sumset, so these operations fail on every run.
FIXED_INPUT_SEED = 20211006


def _ladder_op(n: int, bits: int, seed: int) -> Op:
    rng = _rng(seed, f"ladder/{n}/{bits}")
    b = DeltaSet(n, np.sort(rng.choice(1 << n, size=1 << bits, replace=False)))

    def work(result):
        return sum(size * size for _, size in result[1][:-1])

    return Op(f"ladder-n{n}-b{bits}", lambda: dyadic.run_doubling_ladder(b, LADDER_STEPS),
              lambda r: checks.check_ladder(r, b, LADDER_STEPS), work)


def _iterated_op(n: int, size: int, k: int, seed: int) -> Op:
    rng = _rng(seed, f"iterated/{n}/{k}")
    b = DeltaSet(n, np.sort(rng.choice(1 << n, size=size, replace=False)))
    pairs = []

    def work(out):
        # |jB| * |B| for j = 1..k-1, with |jB| from the exact convolution
        if not pairs:
            cur = b.indices
            for _ in range(k - 1):
                pairs.append(cur.size * size)
                cur = checks.convolve_support(cur, b.indices)
        return sum(pairs)

    return Op(f"iterated-n{n}-k{k}", lambda: dyadic.iterated_sum(b, k),
              lambda out: checks.check_iterated_sum(out, b, k), work)


def _fine_sumset_op(n: int, seed: int) -> Op:
    rng = _rng(FIXED_INPUT_SEED if n >= 32 else seed, f"fine/{n}")
    lo, hi = 1 << (n - 1), 1 << n
    a = DeltaSet(n, np.unique(rng.integers(lo, hi, size=64, dtype=np.int64)))
    b = DeltaSet(n, np.unique(rng.integers(lo, hi, size=64, dtype=np.int64)))
    c = Fraction(int(rng.integers(lo, hi, dtype=np.int64)) | 1, hi)
    return Op(f"fine-sumset-n{n}", lambda: dyadic.sumset(a, c, b),
              lambda out: checks.check_sumset(out, a, c, b),
              lambda out: len(a) * len(b), known_fault=n >= 32)


def _coarse_sumset_op(n: int, a_size: int, b_size: int, seed: int) -> Op:
    rng = _rng(seed, f"coarse/{n}/{a_size}")
    a = DeltaSet(n, np.sort(rng.choice(1 << n, size=a_size, replace=False)))
    b = DeltaSet(n, np.sort(rng.choice(1 << n, size=b_size, replace=False)))
    c = Fraction(int(rng.integers(1, 1 << 8)), 1 << 8)
    return Op(f"sumset-n{n}-{a_size}x{b_size}", lambda: dyadic.sumset(a, c, b),
              lambda out: checks.check_sumset(out, a, c, b), lambda out: a_size * b_size)


def _largest_outer_sumset_op(seed: int) -> Op:
    """A + B with |A| * |B| = 2**22: the largest product grid.sumset sums by outer + unique."""
    rng = _rng(seed, "outer/16")
    a = DeltaSet(16, np.sort(rng.choice(1 << 16, size=2048, replace=False)))
    b = DeltaSet(16, np.sort(rng.choice(1 << 16, size=2048, replace=False)))
    return Op("sumset-n16-2048x2048", lambda: dyadic.sumset(a, 1, b),
              lambda out: checks.check_sumset(out, a, 1, b), lambda out: 1 << 22)


def ladder_ops(seed: int) -> list[Op]:
    ops = [_ladder_op(n, bits, seed) for n, bits in LADDER_SETS]
    ops += [_iterated_op(n, size, k, seed) for n, size, k in ITERATED]
    ops += [_fine_sumset_op(n, seed) for n in FINE_SUMSET_N]
    ops += [_coarse_sumset_op(16, 1024, 256, seed), _coarse_sumset_op(14, 256, 64, seed)]
    ops.append(_largest_outer_sumset_op(seed))
    return ops


# ---------------------------------------------------------------- cli


@dataclass
class CliResult:
    command: str
    returncode: int
    stdout: str
    stderr: str
    bytes_read: int
    bytes_written: int
    child_trace: dict | None = field(default=None)


def _write_set(path: Path, n: int, idx, width: int = 1) -> None:
    path.write_text(f"n={n} W={width}\n" + "".join(f"{int(k)}\n" for k in idx))


def _write_planar(path: Path, n: int, xs, ys, rng) -> None:
    keys = [(int(x), int(y)) for x in xs for y in ys]
    w = rng.integers(1, 10, size=len(keys)).tolist()
    total = sum(w)
    atoms = [[list(k), f"{v}/{total}"] for k, v in zip(keys, w)]
    path.write_text(json.dumps({"dim": 2, "n": n, "atoms": atoms}) + "\n")


def _spread(rng, n: int, count: int, gap: int = 1) -> np.ndarray:
    """``count`` sorted grid indices in [0, 2**n), pairwise at least ``gap`` apart."""
    return np.sort(rng.choice((1 << n) // gap, size=count, replace=False)) * gap


def _tree_points(rng, m: int, r: list[int]) -> list[int]:
    cells = [0]
    for children in r:
        cells = [(c << m) + int(o) for c in cells
                 for o in np.sort(rng.choice(1 << m, size=children, replace=False))]
    return cells


def write_cli_inputs(seed: int, workdir: Path) -> dict[str, Path]:
    """Every input file of the cli workload, written from the seed."""
    rng = _rng(seed, "cli-inputs")
    f = {name: workdir / name for name in (
        "mu1k.json", "mu4k.json", "mu16k.json", "nu.json", "analyze.txt", "uniformize.txt",
        "tree.txt", "bprof.json", "aprof.json", "ladder.txt", "greedy_b.txt", "greedy_c.txt")}
    _write_planar(f["mu1k.json"], 10, _spread(rng, 10, 32), _spread(rng, 10, 32), rng)
    # y-cells at least 2 apart: the separation hypothesis at xi = 1
    _write_planar(f["mu4k.json"], 12, _spread(rng, 12, 64), _spread(rng, 12, 64, gap=2), rng)
    _write_planar(f["mu16k.json"], 14, _spread(rng, 14, 128), _spread(rng, 14, 128), rng)
    nu_atoms = [[[k], "1/8"] for k in range(1, 9)]  # slopes 1/8, 2/8, ..., 1
    f["nu.json"].write_text(json.dumps({"dim": 1, "n": 3, "atoms": nu_atoms}) + "\n")
    _write_set(f["analyze.txt"], 14, _spread(rng, 14, 3000))
    _write_set(f["uniformize.txt"], 12, _spread(rng, 12, 1500))
    _write_set(f["tree.txt"], 12, _tree_points(rng, 2, [3, 2, 4, 3, 2, 3]))
    f["bprof.json"].write_text(json.dumps({"m": 2, "R": [2] * 4 + [1] * 8 + [2] * 4}) + "\n")
    f["aprof.json"].write_text(json.dumps({"m": 2, "R": [2] * 16}) + "\n")
    # |2^k B| <= 2**(k+7): every doubling stays far below the 2**22 pairs where
    # grid.sumset changes branch, so peak memory does not move with the seed
    _write_set(f["ladder.txt"], 7, _spread(rng, 7, 16))
    _write_set(f["greedy_b.txt"], 12, _spread(rng, 12, 64))
    _write_set(f["greedy_c.txt"], 12, _spread(rng, 12, 32) + 1, width=2)
    return f


# Exponents under which mu4k.json and nu.json pass the hypothesis audit.
PROJECT_PARAMS = ["--gamma-a", "5/12", "--gamma-b", "5/12", "--gamma", "1/4", "--xi", "1"]
CSV_HEADERS = {
    "entropy": ["c", "lhs", "rhs", "correction", "slack"],
    "project-avg-l2": ["c", "l2"],
    "project-avg-entropy": ["c", "entropy"],
    "analyze": ["r_exp", "count"],
    "uniformize": ["size_in", "size_out", "profile", "loss_bits"],
    "extend": ["lo", "hi", "tag"],
    "ladder": ["k", "size"],
    "greedy": ["step", "size", "c"],
    "assemble": ["lo", "hi", "tag", "branch_bits_a", "branch_bits_b", "bound", "nu_avg_term",
                 "margin"],
}


def _cli_calls(seed: int, f: dict[str, Path], workdir: Path):
    """(command, args, input files, output files, kind, content check) per call."""
    measures = {}

    def measure(name):
        if name not in measures:
            measures[name] = checks.read_measure_file(f[name])
        return measures[name]

    def entropy_check(name, slopes):
        return lambda out, fmt: checks.check_cli_entropy(out, fmt, measure(name), slopes)

    def l2_check(out, fmt):
        checks.check_cli_l2(out, fmt, measure("mu4k.json"), measure("nu.json"))

    def pe_check(out, fmt):
        checks.check_cli_projected_entropies(out, fmt, measure("mu4k.json"), measure("nu.json"))

    def ladder_check(out, fmt):
        rows = out["sizes"] if fmt == "json" else out
        sizes = [int(row["size"]) for row in rows]
        ref = checks.doubling_sizes(_read_indices(f["ladder.txt"]), 4)
        checks.require(sizes == ref, f"cli ladder sizes {sizes} != {ref}")

    def assemble_check(out, fmt):
        if fmt == "json":
            checks.require(out["nu_avg_entropy"] >= out["assembled_rhs"] - 1e-9,
                           "assembled bound fails")

    slopes_1k = ["1/4", "3/4", "5/8"]
    slopes_16k = ["1/4", "3/4"]
    uni_out, prune_out = workdir / "uniformized.txt", workdir / "pruned.txt"
    calls = [
        ("entropy", ["entropy", f["mu1k.json"], *_slope_args(slopes_1k), "--cuts", "0,5,10"],
         [f["mu1k.json"]], [], "entropy", entropy_check("mu1k.json", slopes_1k)),
        ("entropy", ["entropy", f["mu16k.json"], *_slope_args(slopes_16k), "--cuts", "0,7,14"],
         [f["mu16k.json"]], [], "entropy", entropy_check("mu16k.json", slopes_16k)),
        ("project-avg", ["project-avg", f["mu4k.json"], f["nu.json"], *PROJECT_PARAMS,
                         "--mode", "l2"],
         [f["mu4k.json"], f["nu.json"]], [], "project-avg-l2", l2_check),
        ("project-avg", ["project-avg", f["mu4k.json"], f["nu.json"], *PROJECT_PARAMS,
                         "--mode", "entropy"],
         [f["mu4k.json"], f["nu.json"]], [], "project-avg-entropy", pe_check),
        ("analyze", ["analyze", f["analyze.txt"]], [f["analyze.txt"]], [], "analyze", None),
        ("uniformize", ["uniformize", f["uniformize.txt"], uni_out, "--m", "2", "--levels", "6"],
         [f["uniformize.txt"]], [uni_out], "uniformize", None),
        ("extend", ["extend", f["bprof.json"], "--ell", "4", "--zeta", "1/4", "--a-profile",
                    f["aprof.json"]],
         [f["bprof.json"], f["aprof.json"]], [], "extend", None),
        ("ladder", ["ladder", f["ladder.txt"], "--steps", "4"], [f["ladder.txt"]], [], "ladder",
         ladder_check),
        ("greedy", ["greedy", f["greedy_b.txt"], f["greedy_c.txt"], "--steps", "4"],
         [f["greedy_b.txt"], f["greedy_c.txt"]], [], "greedy", None),
        # every size knob pinned: 2**12 atoms whatever the seed
        ("assemble", ["--seed", str(seed), "assemble", "--pattern", "bb", "--ell", "3",
                      "--zeta", "1/3", "--c-bits", "4"], [], [], "assemble", assemble_check),
    ]
    out = []
    for fmt in ("json", "csv"):
        for cmd, args, ins, outs, kind, content in calls:
            out.append((cmd, fmt, ["--format", fmt, *map(str, args)], ins, outs, kind, content))
    # prune has no tabular form: JSON only
    out.append(("prune", "json",
                ["--format", "json", "prune", str(f["tree.txt"]), str(prune_out), "--m", "2",
                 "--levels", "6"], [f["tree.txt"]], [prune_out], "prune", None))
    return out


def _slope_args(slopes):
    return [tok for c in slopes for tok in ("--c", c)]


def _read_indices(path: Path) -> np.ndarray:
    # the text set format, read without dyadic.grid.load_set
    lines = path.read_text().split("\n")[1:]
    return np.asarray([int(line) for line in lines if line.strip()], dtype=np.int64)


def _check_cli(result: CliResult, fmt: str, kind: str, content) -> None:
    checks.require(result.returncode == 0,
                   f"{kind} exited {result.returncode}: {result.stderr.strip()[-300:]}")
    if fmt == "json":
        parsed = json.loads(result.stdout)
    else:
        parsed = checks.parse_csv(result.stdout, CSV_HEADERS[kind])
    if content is not None:
        content(parsed, fmt)


def cli_ops(seed: int, workdir: Path, spawn) -> list[Op]:
    """``spawn(command, args) -> (returncode, stdout, stderr, child trace)`` runs one call."""
    files = write_cli_inputs(seed, workdir)
    ops = []
    for cmd, fmt, args, ins, outs, kind, content in _cli_calls(seed, files, workdir):
        def run(cmd=cmd, args=args, ins=ins, outs=outs):
            code, stdout, stderr, child = spawn(cmd, args)
            read = sum(p.stat().st_size for p in ins)
            written = len(stdout.encode()) + sum(p.stat().st_size for p in outs if p.exists())
            return CliResult(cmd, code, stdout, stderr, read, written, child)

        label = f"{kind}-{ins[0].stem}" if ins else kind
        ops.append(Op(f"cli-{label}-{fmt}", run,
                      lambda r, fmt=fmt, kind=kind, content=content: _check_cli(r, fmt, kind, content),
                      lambda r: 1))
    return ops


def plain_spawn(root: Path, env: dict):
    """Run ``python -m dyadic.cli`` with ``src`` on the path, one process at a time."""

    def spawn(cmd, args):
        proc = subprocess.run([sys.executable, "-m", "dyadic.cli", *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr, None

    return spawn


def build(workload: str, seed: int, workdir: Path, spawn=None) -> list[Op]:
    if workload == "assembly":
        return assembly_ops(seed)
    if workload == "sweep":
        return sweep_ops(seed)
    if workload == "ladder":
        return ladder_ops(seed)
    if workload == "cli":
        return cli_ops(seed, workdir, spawn)
    raise ValueError(f"unknown workload {workload!r}")
