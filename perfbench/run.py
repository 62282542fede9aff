"""Benchmark of the dyadic package: four workloads, checked outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload assembly --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and reports the end-to-end metrics
(``setup_s``, ``work_per_s``, ``op_p50_ms``, ``peak_rss_mb``); ``--trace 1``
runs it with the per-layer wrappers installed and reports the per-layer
metrics instead.  Every operation's output is checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads: one thread per pool
    os.environ[_var] = "1"

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
WORKLOADS = ("assembly", "sweep", "ladder", "cli")
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="Set up (import, generate and write inputs) and exit; used to time set-up.")
    return ap.parse_args(argv)


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def machine_info(root: Path) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
    }


def digest(result) -> bytes:
    """Bytes of one output for the informational payload digest."""
    if hasattr(result, "indices"):
        return result.indices.tobytes()
    if hasattr(result, "stdout"):
        return result.stdout.encode()
    return repr(result).encode()


def setup_timer(args, src: Path, root: Path):
    """Time one fresh process that only sets the workload up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]

    def time_one() -> float:
        # Captured output makes run() wait on the pipes, not in the polling
        # loop of Popen.wait(timeout), whose 50 ms sleeps would round the time.
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, env=child_env(src), check=True, timeout=170,
                       capture_output=True)
        return time.perf_counter() - t0

    return time_one


def traced_spawn(root: Path, env: dict, tracer, workdir: Path):
    """Run a CLI call through the tracing launcher and adopt its spans."""
    def spawn(cmd, cli_args):
        spans_out = workdir / "child-spans.json"
        child_env_ = dict(env, PERFBENCH_SPAWN_TIME=repr(time.time()))
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_out),
                               *cli_args], cwd=root, env=child_env_, capture_output=True,
                              text=True, timeout=170)
        child = None
        if spans_out.exists():
            child = json.loads(spans_out.read_text())
            spans_out.unlink()
            tracer.merge_child(child, parent=tracer.current())
        return proc.returncode, proc.stdout, proc.stderr, child

    return spawn


def run_rounds(ops, seconds: float, tracer, between_rounds):
    """Whole rounds of ``ops`` until ``seconds`` have passed; every output checked.

    ``between_rounds`` runs after each round, outside the measured time.
    """
    samples = []  # (op name, seconds, work units, failed)
    cli_calls = []
    errors = []
    payload = hashlib.sha256()
    correct = True
    rounds = 0
    wall = last_round = 0.0
    # whole rounds, stopping where the total lands nearest to ``seconds``
    while rounds == 0 or wall + last_round / 2 < seconds:
        start = time.perf_counter()
        for op in ops:
            gc.collect()
            span = tracer.begin("op") if tracer else None
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end(span)
                tracer.active = False
            if error is None:
                try:
                    op.check(result)
                except Exception as exc:  # a malformed output fails its check too
                    error = exc
            failed = error is not None
            if failed and not op.known_fault:
                correct = False
                errors.append(f"{op.name}: {type(error).__name__}: {error}"[:500])
            work = op.work(result) if not failed or op.known_fault else 0
            if tracer:
                tracer.active = True
            if rounds == 0:
                payload.update(digest(result))
            if getattr(result, "child_trace", None) is not None:
                cli_calls.append({"command": result.command, "wall_s": elapsed,
                                  "import_s": result.child_trace["import_s"],
                                  "bytes_read": result.bytes_read,
                                  "bytes_written": result.bytes_written})
            samples.append((op.name, elapsed, work, failed))
        last_round = time.perf_counter() - start
        wall += last_round
        rounds += 1
        between_rounds()
    return samples, rounds, wall, correct, errors, payload.hexdigest(), cli_calls


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(tracer, tracing, rounds: int, wall: float, cli_children) -> dict:
    calls, busy, self_s = tracer.summary()
    values = {}
    for layer in tracing.LAYERS:
        names = [f"{layer}.{fn}" for fn in tracing.WRAPPED.get(layer, ())]
        if layer == "cli":
            names.append(tracing.CLI_MAIN)
        values[f"{layer}.self_s"] = sum(self_s.get(n, 0.0) for n in names) / rounds
    for layer, fns in tracing.WRAPPED.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            values[f"{name}.calls"] = calls.get(name, 0) / rounds
            values[f"{name}.busy_s"] = busy.get(name, 0.0) / rounds
            values[f"{name}.self_s"] = self_s.get(name, 0.0) / rounds
    for name in tracing.COUNTERS:
        values[name] = tracer.counts.get(name, 0) / rounds
    imports = [c["import_s"] for c in cli_children]
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    values["cli.bytes_read"] = sum(c["bytes_read"] for c in cli_children) / rounds
    values["cli.bytes_written"] = sum(c["bytes_written"] for c in cli_children) / rounds
    for cmd in tracing.CLI_COMMANDS:
        walls = [c["wall_s"] for c in cli_children if c["command"] == cmd]
        values[f"cli.{cmd}.wall_ms"] = statistics.median(walls) * 1000 if walls else 0.0
    values["trace.round_s"] = wall / rounds
    assert list(values) == tracing.metric_names(), "per-layer metric list drifted"
    return {k: {"value": v, "unit": tracing.metric_unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not __debug__ or sys.flags.optimize:
        return fail("refusing to run with asserts stripped (-O or PYTHONOPTIMIZE): "
                    "the library's certificates are part of a correct run", 3)
    root = Path.cwd()
    src = root / "src"
    if not (src / "dyadic" / "__init__.py").is_file():
        return fail(f"no dyadic sources under {src}; run from the repository root", 2)
    sys.path.insert(0, str(src))
    import dyadic

    if Path(dyadic.__file__).resolve().parent != (src / "dyadic").resolve():
        return fail(f"imported dyadic from {dyadic.__file__}, not from {src}", 2)

    import tracing
    import workloads

    env = child_env(src)
    work_root = BENCH_DIR / "work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, workdir, workloads.plain_spawn(root, env))
            return 0
        # Set-up is timed in fresh processes, one before the first round and
        # one after each round, so the median spans the whole run.
        time_setup = setup_timer(args, src, root)
        setup_times = [] if args.trace else [time_setup()]

        def between_rounds():
            if 0 < len(setup_times) < SETUP_REPEATS:
                setup_times.append(time_setup())

        tracer = tracing.Tracer() if args.trace else None
        spawn = (traced_spawn(root, env, tracer, workdir) if tracer
                 else workloads.plain_spawn(root, env))
        ops = workloads.build(args.workload, args.seed, workdir, spawn)
        if tracer:
            tracer.install()
        samples, rounds, wall, correct, errors, payload, cli_calls = run_rounds(
            ops, args.seconds, tracer, between_rounds)
        while 0 < len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(samples)
    failed = sum(1 for s in samples if s[3])
    op_seconds = [s[1] for s in samples]
    per_op: dict[str, list[float]] = {}
    for name, sec, _, _ in samples:
        per_op.setdefault(name, []).append(sec)
    if args.trace:
        metrics = layer_metrics(tracer, tracing, rounds, wall, cli_calls)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "work_per_s": sum(s[2] for s in samples) / sum(op_seconds),
            # the median operation, each timed by its mean over the run
            "op_p50_ms": statistics.median(statistics.fmean(v) for v in per_op.values()) * 1000,
            "peak_rss_mb": peak_rss_mb(args.workload == "cli"),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **line,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "timed_wall_s": wall,
        "op_time_s": sum(op_seconds),
        "op_times_s": per_op,
        "setup_times_s": setup_times,
        "errors": errors[:20],
        "payload_sha256": payload,  # for information only; never a pass/fail check
        "machine": machine_info(root),
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(results / f"{stem}.spans.jsonl")
    for err in errors[:5]:
        print(f"perfbench: wrong result: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
