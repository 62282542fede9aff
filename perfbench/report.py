"""Reference figures: one timed and one traced run of every workload.

Run from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 40

Prints two Markdown tables: the end-to-end metrics of the timed runs, and
each layer's share of the traced operation time with the tracing overhead
(traced minus timed operation time per round; checks are outside both).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("assembly", "sweep", "ladder", "cli")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   check=True, stdout=subprocess.DEVNULL)
    path = BENCH_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()
    timed, traced = {}, {}
    for w in WORKLOADS:
        timed[w] = run(w, args.seed, args.seconds, 0)
        traced[w] = run(w, args.seed, args.seconds, 1)

    print("| workload | setup_s | work_per_s | op_p50_ms | peak_rss_mb | attempted | failed |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w, rec in timed.items():
        m = {k: v["value"] for k, v in rec["metrics"].items()}
        print(f"| {w} | {m['setup_s']:.3f} | {m['work_per_s']:.4g} | {m['op_p50_ms']:.1f} "
              f"| {m['peak_rss_mb']:.1f} | {rec['attempted']} | {rec['failed']} |")
    print()
    layers = tracing.LAYERS
    print("| workload | " + " | ".join(layers) + " | other | op time per round, timed | traced | overhead |")
    print("| --- " * (len(layers) + 5) + "|")
    for w, rec in traced.items():
        m = {k: v["value"] for k, v in rec["metrics"].items()}
        op_traced = rec["op_time_s"] / rec["rounds"]
        op_timed = timed[w]["op_time_s"] / timed[w]["rounds"]
        shares = [m[f"{layer}.self_s"] / op_traced for layer in layers]
        cells = " | ".join(f"{s:.1%}" for s in shares)
        print(f"| {w} | {cells} | {1 - sum(shares):.1%} | {op_timed:.2f} s | {op_traced:.2f} s "
              f"| {(op_traced - op_timed) / op_timed:+.1%} |")


if __name__ == "__main__":
    main()
