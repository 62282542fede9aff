"""Per-layer tracing of the dyadic package from outside it.

``Tracer.install`` replaces each public function named in ``WRAPPED`` by a
wrapper, both in the module that defines it and in every ``dyadic`` module
that imported it by name.  A wrapper records one span per call (name,
parent span, start, end) and a few size counters.  Spans stay in memory
and are summarised, or written out, when the run ends.

Busy time of a function is the summed duration of its spans; self time is
busy time minus the part covered by its direct child spans.  Only the
traced run installs the wrappers: timed runs never carry them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "measures", "trees", "projections", "experiments", "cli")

WRAPPED = {
    "measures": (
        "entropy_chain",
        "uniform_fiber_entropy_bound",
        "project",
        "entropy",
        "product_measure",
        "renormalize_cell",
        "coarsen",
        "load_measure",
    ),
    "grid": ("sumset", "iterated_sum", "covering_counts", "frostman_check", "load_set"),
    "experiments": (
        "run_expansion_sweep",
        "run_greedy_iterated_sum",
        "run_doubling_ladder",
        "run_final_assembly",
    ),
    "projections": (
        "l2_of_projection",
        "averaged_l2",
        "audit_hypotheses",
        "averaged_projection_entropy",
    ),
    "trees": (
        "gen_uniform_tree",
        "prune_adjacent",
        "extend_intervals",
        "collapse_suffixes",
        "uniformize",
    ),
}

COUNTERS = (
    "measures.entropy_chain.atom_slopes",
    "measures.measures_built",
    "grid.sumset.pairs",
    "grid.sumset.out_points",
    "experiments.run_expansion_sweep.slopes",
)

CLI_COMMANDS = (
    "entropy",
    "project-avg",
    "analyze",
    "uniformize",
    "prune",
    "extend",
    "ladder",
    "greedy",
    "assemble",
)

# The cli layer's own span: the whole of dyadic.cli.main in a child process.
CLI_MAIN = "cli.main"


def _count_chain(counts, args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    counts["measures.entropy_chain.atom_slopes"] += len(mu.atoms)


def _count_sumset(counts, args, kwargs, result):
    a = args[0] if args else kwargs["A"]
    b = args[2] if len(args) > 2 else kwargs["B"]
    counts["grid.sumset.pairs"] += len(a) * len(b)
    counts["grid.sumset.out_points"] += len(result)


def _count_sweep(counts, args, kwargs, result):
    counts["experiments.run_expansion_sweep.slopes"] += sum(r.sample_size for r in result)


_AFTER = {
    "measures.entropy_chain": _count_chain,
    "grid.sumset": _count_sumset,
    "experiments.run_expansion_sweep": _count_sweep,
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    for layer, fns in WRAPPED.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.busy_s", f"{layer}.{fn}.self_s"]
    names += list(COUNTERS)
    names += ["cli.import_s", "cli.bytes_read", "cli.bytes_written"]
    names += [f"cli.{cmd}.wall_ms" for cmd in CLI_COMMANDS]
    names.append("trace.round_s")
    return names


def metric_unit(name: str) -> str:
    if name.endswith((".busy_s", ".self_s", "import_s", "round_s")):
        return "s"
    if name.endswith(".wall_ms"):
        return "ms"
    if name.startswith("cli.bytes_"):
        return "bytes"
    return "count"


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float]] = []  # name id, parent, t0, t1
        self.counts: Counter = Counter()
        self.active = True
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self._name_id(name), parent, time.perf_counter(), 0.0))
        self._stack.append(idx)
        return idx

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def end(self, idx: int) -> None:
        t1 = time.perf_counter()
        nid, parent, t0, _ = self.spans[idx]
        self.spans[idx] = (nid, parent, t0, t1)
        self._stack.pop()

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function of ``WRAPPED`` wherever dyadic bound it."""
        import dyadic.cli  # noqa: F401  (loads every module whose names get wrapped)
        from dyadic.measures import DiscreteMeasure

        modules = [m for k, m in sys.modules.items() if k == "dyadic" or k.startswith("dyadic.")]
        for layer, fns in WRAPPED.items():
            home = sys.modules[f"dyadic.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

        post_init = DiscreteMeasure.__post_init__
        tracer = self

        def counted_post_init(obj):
            if tracer.active:
                tracer.counts["measures.measures_built"] += 1
            post_init(obj)

        DiscreteMeasure.__post_init__ = counted_post_init

    def merge_child(self, data: dict, parent: int) -> None:
        """Adopt the spans and counters a child process wrote, under ``parent``."""
        base = len(self.spans)
        for name, par, t0, t1 in data["spans"]:
            self.spans.append((self._name_id(name), parent if par < 0 else base + par, t0, t1))
        self.counts.update(data["counts"])

    def export(self) -> dict:
        return {
            "spans": [[self.names[n], p, t0, t1] for n, p, t0, t1 in self.spans],
            "counts": dict(self.counts),
        }

    def summary(self) -> tuple[dict, dict, dict]:
        """Per span name: (calls, busy seconds, self seconds)."""
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for nid, parent, t0, t1 in self.spans:
            name = self.names[nid]
            calls[name] += 1
            busy[name] += t1 - t0
            self_s[name] += t1 - t0
            if parent >= 0:
                self_s[self.names[self.spans[parent][0]]] -= t1 - t0
        return calls, busy, self_s

    def write(self, path) -> None:
        """Spans as JSON lines: name, parent index, start and end seconds."""
        with open(path, "w") as fh:
            for nid, parent, t0, t1 in self.spans:
                fh.write(json.dumps([self.names[nid], parent, t0, t1]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
