"""Span tracing for the traced run, and the per-layer report built from it.

Wrappers around the public functions of each layer record one span per
call: name, start, end, parent span and op id.  They are installed where
each function is looked up (every ``syzstab`` module global bound to it,
the CLI's handler and renderer tables, and ``Poly.__call__``), so calls
between layers are seen as well as calls from the CLI.  Spans stay in
flat arrays in memory and are written out once, at the end of the run.

A layer's self time is its span duration minus the durations of its
child spans; on one thread children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute) of every traced function.  "Poly.__call__" is a method.
TRACED = (
    ("cli", "main"), ("cli", "build_parser"),
    ("cli", "_cmd_bound"), ("cli", "_cmd_check"), ("cli", "_cmd_twist"),
    ("cli", "_cmd_catalog"), ("cli", "_cmd_verify"),
    ("cli", "render_json"), ("cli", "render_table"), ("cli", "render_csv"),
    ("varieties", "parse_problem"), ("varieties", "catalog_lookup"), ("varieties", "make_variety"),
    ("exactnum", "genbinom"), ("exactnum", "format_rational"), ("exactnum", "parse_rational"),
    ("bounds", "sections_bound"), ("bounds", "bound_high"), ("bounds", "bound_low"),
    ("bounds", "rank_one_bound"), ("bounds", "restriction_sum"),
    ("stability", "check_stability"),
    ("twist", "Poly.__call__"), ("twist", "build_condition_polys"), ("twist", "cauchy_bound"),
    ("twist", "minimal_stable_twist"),
    ("verify", "run_suite"),
)

NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# Ratios measured where the work happens: (metric, child, parent, unit).
# The value is the number of child spans directly under a parent span,
# per parent call.
RATIOS = (
    ("bounds.restriction_sum.cells_per_call", "bounds.rank_one_bound", "bounds.restriction_sum",
     "calls/call"),
    ("twist.minimal_stable_twist.evals_per_cert", "twist.Poly.__call__", "twist.minimal_stable_twist",
     "evals/cert"),
)


class Tracer:
    def __init__(self):
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_op = -1
        self._undo = []

    def _wrap(self, index: int, fn):
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack, clock, tracer = self.stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(index)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "syzstab" or n.startswith("syzstab."))]
        cli = sys.modules["syzstab.cli"]
        tables = [cli._HANDLERS, cli._RENDERERS]
        for index, (mod, attr) in enumerate(TRACED):
            module = sys.modules[f"syzstab.{mod}"]
            if attr == "Poly.__call__":
                poly = module.Poly
                old = poly.__call__
                self._undo.append((poly, "__call__", old))
                poly.__call__ = self._wrap(index, old)
                continue
            old = getattr(module, attr)
            new = self._wrap(index, old)
            for ns in [vars(m) for m in modules] + tables:
                for key, value in list(ns.items()):
                    if value is old:
                        self._undo.append((ns, key, old))
                        ns[key] = new

    def uninstall(self) -> None:
        for target, key, old in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)
        self._undo.clear()

    def write(self, path: str, header: dict) -> None:
        header = dict(header, names=list(NAMES), count=len(self.start))
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def read(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for _ in range(5):
            arr = array("q")
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return header, arrays


def analyze(header: dict, arrays) -> dict:
    """Per-layer metrics, per traced op: {metric: (value, unit)}."""
    names = header["names"]
    name, parent, _, start, end = arrays
    count = len(start)
    dur = [end[i] - start[i] for i in range(count)]
    child = [0] * count
    calls = [0] * len(names)
    total = [0] * len(names)
    pairs: dict = {}
    for i in range(count):
        p = parent[i]
        calls[name[i]] += 1
        total[name[i]] += dur[i]
        if p >= 0:
            child[p] += dur[i]
            key = (name[i], name[p])
            pairs[key] = pairs.get(key, 0) + 1
    self_ns = [0] * len(names)
    for i in range(count):
        self_ns[name[i]] += dur[i] - child[i]
    ops = header["ops"]
    out = {}
    for j, label in enumerate(names):
        out[f"{label}.calls"] = (calls[j] / ops, "calls/op")
        out[f"{label}.total_ms"] = (total[j] / ops / 1e6, "ms/op")
        out[f"{label}.self_ms"] = (self_ns[j] / ops / 1e6, "ms/op")
    index = {label: j for j, label in enumerate(names)}
    for metric, kid, par, unit in RATIOS:
        n_par = calls[index[par]]
        n_kid = pairs.get((index[kid], index[par]), 0)
        out[metric] = (n_kid / n_par if n_par else 0.0, unit)
    out["exactnum.genbinom.calls_per_op"] = (calls[index["exactnum.genbinom"]] / ops, "calls/op")
    out["cli.output_bytes_per_op"] = (header["output_bytes"] / ops, "B/op")
    return out


def print_table(header: dict, metrics: dict) -> None:
    print(f"per-layer, {header['workload']} seed {header['seed']}: {header['ops']} traced ops, "
          f"{header['count']} spans (figures per op)")
    print(f"  {'layer':40s} {'calls':>12s} {'total_ms':>11s} {'self_ms':>11s}")
    for label in sorted(NAMES, key=lambda n: -metrics[f"{n}.self_ms"][0]):
        calls = metrics[f"{label}.calls"][0]
        if calls:
            print(f"  {label:40s} {calls:12.2f} {metrics[f'{label}.total_ms'][0]:11.4f} "
                  f"{metrics[f'{label}.self_ms'][0]:11.4f}")
    triples = {f"{n}.{part}" for n in NAMES for part in ("calls", "total_ms", "self_ms")}
    for metric, (value, unit) in metrics.items():
        if metric not in triples:
            print(f"  {metric:40s} {value:12.2f} {unit}")
