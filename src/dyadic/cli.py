"""Command line driver: ``dyadic <subcommand>``.

Every subcommand reads and writes the package's plain file formats (text
sets, JSON measures/profiles/families) and emits either JSON (default)
or CSV via ``--format``.  All floating output is printed with 12
significant digits; exact rationals are printed as ``p/q`` strings.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import click
import numpy as np

from .experiments import (
    AssemblyParams,
    ExperimentConfig,
    csv_text,
    json_text,
    named_stream,
    run_alignment_sharpness,
    run_doubling_ladder,
    run_expansion_sweep,
    run_final_assembly,
    run_greedy_iterated_sum,
)
from .grid import (
    DeltaSet,
    covering_counts,
    frostman_check,
    gen_aligned_triple,
    gen_ap,
    load_set,
    save_set,
)
from .measures import entropy_chain, load_measure
from .projections import (
    ProjectionParams,
    averaged_l2,
    averaged_projection_entropy,
)
from .trees import (
    IntervalFamily,
    branching_profile_of,
    classify_low_high,
    extend_intervals,
    gen_uniform_tree,
    level_min_gaps,
    lift_intervals,
    load_profile,
    prune_adjacent,
    save_family,
    save_profile,
    trivial_intervals,
    uniformize,
)


def _emit(ctx, payload, rows=None) -> None:
    """Write the JSON payload or CSV rows to --out (stdout by default)."""
    fmt, out = ctx.obj["fmt"], ctx.obj["out"]
    if fmt == "csv":
        if rows is None:
            raise click.UsageError("this command has no tabular form; use --format json")
        text = csv_text(rows)
    else:
        text = json_text(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _seed(ctx) -> int:
    return ctx.obj["seed"] if ctx.obj["seed"] is not None else 0


@click.group()
@click.option("--seed", type=int, default=None, help="Master seed for all randomness.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the result here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True, help="Output format for reports.")
@click.pass_context
def main(ctx, seed, out, fmt):
    """Exact dyadic-grid toolkit: set generators, tree surgeries, entropy
    chains, projection bounds, and the expansion experiment harness."""
    ctx.obj = {"seed": seed, "out": out, "fmt": fmt}


# ---------------------------------------------------------------------------
# generators


@main.group()
def gen():
    """Generate sets in the text format (``n=.. W=..`` header + indices)."""


@gen.command("ap")
@click.option("--n", type=int, required=True, help="Resolution exponent.")
@click.option("--size", type=int, required=True, help="Number of points.")
@click.option("--step", type=int, default=None, help="Index step (default 2**n/size).")
@click.option("--start", type=int, default=0, show_default=True)
@click.argument("dest", type=click.Path(dir_okay=False))
def gen_ap_cmd(n, size, step, start, dest):
    """Arithmetic progression on the index grid."""
    save_set(gen_ap(n, size, step=step, start=start), dest)
    click.echo(f"wrote {size} points at n={n} to {dest}")


@gen.command("aligned")
@click.option("--n-param", type=int, required=True,
              help="Instance size parameter; 1 or a power of 16.")
@click.argument("dest_a", type=click.Path(dir_okay=False))
@click.argument("dest_b", type=click.Path(dir_okay=False))
@click.argument("dest_c", type=click.Path(dir_okay=False))
def gen_aligned_cmd(n_param, dest_a, dest_b, dest_c):
    """The lattice-aligned slow-growth triple (A, B, C)."""
    a, b, c = gen_aligned_triple(n_param)
    save_set(a, dest_a)
    save_set(b, dest_b)
    save_set(c, dest_c)
    click.echo(f"wrote |A|={len(a)} |B|={len(b)} |C|={len(c)}")


@gen.command("tree")
@click.option("--profile", "profile_path", type=click.Path(exists=True), required=True,
              help="Branching profile JSON.")
@click.option("--placement", type=click.Choice(["left", "spread", "random"]),
              default="left", show_default=True)
@click.argument("dest", type=click.Path(dir_okay=False))
@click.pass_context
def gen_tree_cmd(ctx, profile_path, placement, dest):
    """Uniform tree set realizing a branching profile."""
    profile = load_profile(profile_path)
    rng = named_stream(_seed(ctx), "cli/gen-tree") if placement == "random" else None
    save_set(gen_uniform_tree(profile, rng, placement=placement), dest)
    click.echo(f"wrote {profile.size()} points at n={profile.n} to {dest}")


@gen.command("random")
@click.option("--n", type=int, required=True)
@click.option("--size", type=int, required=True)
@click.argument("dest", type=click.Path(dir_okay=False))
@click.pass_context
def gen_random_cmd(ctx, n, size, dest):
    """Uniformly random size-point subset of the index grid."""
    if not 1 <= size <= 1 << n:
        raise click.UsageError("need 1 <= size <= 2**n")
    rng = named_stream(_seed(ctx), "cli/gen-random")
    idx = np.sort(rng.choice(1 << n, size=size, replace=False))
    save_set(DeltaSet(n, idx), dest)
    click.echo(f"wrote {size} points at n={n} to {dest}")


# ---------------------------------------------------------------------------
# analysis and surgeries


@main.command()
@click.argument("set_path", type=click.Path(exists=True))
@click.option("--kappa", default="1/2", show_default=True,
              help="Frostman exponent to audit (a fraction).")
@click.option("--m", type=int, default=1, show_default=True,
              help="Bits per level for profile detection.")
@click.pass_context
def analyze(ctx, set_path, kappa, m):
    """Covering counts, Frostman audit, and branching profile of a set."""
    a = load_set(set_path)
    counts = covering_counts(a)
    report = frostman_check(a, Fraction(kappa), r_min_exp=a.n, r_max_exp=1)
    levels = a.n // m
    profile = branching_profile_of(a, m, levels) if levels * m == a.n else None
    payload = {
        "n": a.n,
        "width": a.width,
        "size": len(a),
        "covering_counts": {str(k): v for k, v in counts.items()},
        "frostman": {
            "kappa": str(report.kappa),
            "worst_ratio": report.worst_ratio,
            "witness": list(report.witness),
            "passed": report.passed,
        },
        "profile": list(profile.r) if profile is not None else None,
    }
    rows = [{"r_exp": k, "count": v} for k, v in counts.items()]
    _emit(ctx, payload, rows)


@main.command("uniformize")
@click.argument("set_path", type=click.Path(exists=True))
@click.argument("dest", type=click.Path(dir_okay=False))
@click.option("--m", type=int, required=True, help="Bits per level.")
@click.option("--levels", type=int, required=True)
@click.pass_context
def uniformize_cmd(ctx, set_path, dest, m, levels):
    """Extract a uniform-tree subset and report the cost."""
    a = load_set(set_path)
    sub, profile = uniformize(a, m, levels)
    save_set(sub, dest)
    payload = {
        "size_in": len(a),
        "size_out": len(sub),
        "profile": list(profile.r),
        "loss_bits": float(np.log2(len(a) / len(sub))),
    }
    _emit(ctx, payload, [payload])


@main.command("prune")
@click.argument("set_path", type=click.Path(exists=True))
@click.argument("dest", type=click.Path(dir_okay=False))
@click.option("--m", type=int, required=True)
@click.option("--levels", type=int, required=True)
@click.pass_context
def prune_cmd(ctx, set_path, dest, m, levels):
    """Thin a uniform set until sibling cells sit >= 1 empty cell apart."""
    a = load_set(set_path)
    profile = branching_profile_of(a, m, levels)
    if profile is None:
        raise click.UsageError("input set is not uniform at this (m, levels)")
    pruned, new_profile = prune_adjacent(a, profile)
    save_set(pruned, dest)
    payload = {
        "size_in": len(a),
        "size_out": len(pruned),
        "profile_in": list(profile.r),
        "profile_out": list(new_profile.r),
        "min_gaps": level_min_gaps(pruned, m, levels),
    }
    _emit(ctx, payload, None)


@main.command("extend")
@click.argument("b_profile_path", type=click.Path(exists=True))
@click.option("--ell", type=int, required=True, help="Fine levels per coarse block.")
@click.option("--zeta", default="1/4", show_default=True,
              help="Extension threshold rate (a fraction).")
@click.option("--a-profile", "a_profile_path", type=click.Path(exists=True),
              default=None, help="Classify low/high against this profile.")
@click.option("--gamma-cap", default="3/4", show_default=True)
@click.option("--family-out", type=click.Path(dir_okay=False), default=None,
              help="Also write the family JSON here.")
@click.pass_context
def extend_cmd(ctx, b_profile_path, ell, zeta, a_profile_path, gamma_cap, family_out):
    """Trivial runs -> lifted -> extended intervals (optionally classified)."""
    profile = load_profile(b_profile_path)
    if profile.levels % ell:
        raise click.UsageError("profile length must be a multiple of --ell")
    runs = trivial_intervals(profile.coarsen(ell))
    if len(runs):
        family = extend_intervals(profile, lift_intervals(runs, ell), Fraction(zeta), ell)
        if a_profile_path is not None:
            family = classify_low_high(family, load_profile(a_profile_path),
                                       Fraction(gamma_cap))
    else:
        family = IntervalFamily(())
    if family_out:
        save_family(family, family_out)
    rows = [{"lo": iv.lo, "hi": iv.hi, "tag": iv.tag} for iv in family]
    _emit(ctx, {"intervals": rows}, rows or [{"lo": "", "hi": "", "tag": ""}])


@main.command("entropy")
@click.argument("measure_path", type=click.Path(exists=True))
@click.option("--c", "c_values", multiple=True, required=True,
              help="Slope (a fraction); repeatable.")
@click.option("--cuts", required=True,
              help="Comma-separated block boundaries 0,..,n.")
@click.pass_context
def entropy_cmd(ctx, measure_path, c_values, cuts):
    """Entropy chain of a planar measure at the given cuts, per slope."""
    mu = load_measure(measure_path)
    cut_list = [int(tok) for tok in cuts.split(",")]
    rows, reports = [], []
    for c_str in c_values:
        rep = entropy_chain(mu, Fraction(c_str), cut_list)
        reports.append(
            {
                "c": c_str,
                "cuts": cut_list,
                "lhs": rep.lhs,
                "block_terms": list(rep.block_terms),
                "correction": rep.correction,
                "rhs": rep.rhs,
                "slack": rep.slack,
            }
        )
        rows.append(
            {
                "c": c_str,
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "correction": rep.correction,
                "slack": rep.slack,
            }
        )
    _emit(ctx, {"cuts": cut_list, "chains": reports}, rows)


@main.command("project-avg")
@click.argument("mu_path", type=click.Path(exists=True))
@click.argument("nu_path", type=click.Path(exists=True))
@click.option("--gamma-a", required=True, help="Cell-mass exponent of mu's x part.")
@click.option("--gamma-b", required=True, help="Cell-mass exponent of mu's y part.")
@click.option("--gamma", required=True, help="Window-mass exponent of nu.")
@click.option("--xi", required=True, help="Window/separation exponent.")
@click.option("--big-c", default="1", show_default=True)
@click.option("--mode", type=click.Choice(["l2", "entropy"]), default="l2",
              show_default=True)
@click.option("--strict/--no-strict", default=True, show_default=True,
              help="Fail when a hypothesis audit fails.")
@click.option("--c0-bits", type=float, default=10.0, show_default=True)
@click.pass_context
def project_avg_cmd(ctx, mu_path, nu_path, gamma_a, gamma_b, gamma, xi, big_c,
                    mode, strict, c0_bits):
    """Slope-averaged projection bound (L2 form or entropy form)."""
    mu = load_measure(mu_path)
    nu = load_measure(nu_path)
    params = ProjectionParams(Fraction(gamma_a), Fraction(gamma_b),
                              Fraction(gamma), Fraction(xi), Fraction(big_c))
    if mode == "l2":
        rep = averaged_l2(mu, nu, params, strict=strict, check="auto")
        rows = [{"c": str(c), "l2": float(v)} for c, v in rep.per_c]
    else:
        rep = averaged_projection_entropy(mu, nu, params, c0_bits=c0_bits,
                                          strict=strict)
        rows = [{"c": str(c), "entropy": h} for c, h, _ in rep.per_c]
    _emit(ctx, rep, rows)


# ---------------------------------------------------------------------------
# experiments


@main.command("ladder")
@click.argument("set_path", type=click.Path(exists=True))
@click.option("--steps", type=int, default=6, show_default=True)
@click.pass_context
def ladder_cmd(ctx, set_path, steps):
    """Doubling ladder of a set; reports the slow step."""
    k, table = run_doubling_ladder(load_set(set_path), steps)
    rows = [{"k": step, "size": size} for step, size in table]
    _emit(ctx, {"slow_step": k, "sizes": rows}, rows)


@main.command("greedy")
@click.argument("b_path", type=click.Path(exists=True))
@click.argument("c_path", type=click.Path(exists=True))
@click.option("--steps", type=int, default=4, show_default=True)
@click.option("--eta", default="1/10", show_default=True,
              help="Slack subtracted from the target exponent (a fraction).")
@click.pass_context
def greedy_cmd(ctx, b_path, c_path, steps, eta):
    """Greedy iterated-sum ladder with per-step best slopes."""
    rep = run_greedy_iterated_sum(load_set(b_path), load_set(c_path), steps,
                                  Fraction(eta))
    rows = [
        {"step": i + 1, "size": size, "c": str(c)}
        for i, (size, c) in enumerate(zip(rep.sizes, rep.c_sequence))
    ]
    _emit(ctx, rep, rows)


@main.command("sharpness")
@click.option("--n-param", "n_params", type=int, multiple=True,
              default=(16, 256, 4096), show_default=True)
@click.pass_context
def sharpness_cmd(ctx, n_params):
    """Growth ratios and slopes of the aligned slow-growth triples."""
    reps = run_alignment_sharpness(n_params)
    _emit(ctx, {"rows": reps}, [dataclasses.asdict(r) for r in reps])


@main.command("sweep")
@click.argument("config_path", type=click.Path(exists=True))
@click.pass_context
def sweep_cmd(ctx, config_path):
    """Expansion-exponent sweep from an ExperimentConfig JSON file."""
    config = ExperimentConfig.load(config_path)
    if ctx.obj["seed"] is not None:
        config = dataclasses.replace(config, seed=ctx.obj["seed"])
    if ctx.obj["out"] is None and config.out:
        ctx.obj["out"] = config.out
    records = run_expansion_sweep(config)
    rows = [row for rec in records for row in rec.to_rows()]
    _emit(ctx, {"config": config, "records": records}, rows)


@main.command("assemble")
@click.option("--m", type=int, default=2, show_default=True)
@click.option("--ell", type=int, default=4, show_default=True)
@click.option("--big-n", type=int, default=2, show_default=True)
@click.option("--eta", default="1/2", show_default=True)
@click.option("--zeta", default="1/4", show_default=True)
@click.option("--xi", default="1/4", show_default=True)
@click.option("--gamma-cap", default="3/4", show_default=True)
@click.option("--c-bits", type=int, default=6, show_default=True)
@click.option("--c0-bits", type=float, default=10.0, show_default=True)
@click.option("--pattern", default=None,
              help="Coarse-block pattern like 'bt'; default drawn from the seed.")
@click.pass_context
def assemble_cmd(ctx, m, ell, big_n, eta, zeta, xi, gamma_cap, c_bits, c0_bits,
                 pattern):
    """One full multiscale assembly run with every bound verified."""
    params = AssemblyParams(
        m=m, ell=ell, big_n=big_n, eta=Fraction(eta), zeta=Fraction(zeta),
        xi=Fraction(xi), gamma_cap=Fraction(gamma_cap), c_bits=c_bits,
        c0_bits=c0_bits, pattern=pattern,
    )
    rep = run_final_assembly(params, seed=_seed(ctx))
    _emit(ctx, rep, [dataclasses.asdict(b) for b in rep.blocks])


if __name__ == "__main__":
    main(prog_name="dyadic")
