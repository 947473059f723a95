"""syzstab benchmark: closed loop, one client, in-process CLI calls.

Run from the repository root:

    python3 perfbench/run.py --workload requests --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload bulk --trace 1        # per-layer run

Each op is one ``syzstab.cli.main(argv)`` call on inputs generated from
the seed and the pass number (see workloads.py), written before the pass
starts.  Passes of fresh ops run until --seconds have elapsed (at least
one; another starts only if half of the last pass's time still fits).
Within a pass every op runs once, timed, with stdout and stderr going to
files as a shell user's would.  A separate process (checks.py) then runs
every op of the pass again, compares the outputs byte for byte and checks
every answer, alongside the next pass; the checks and the captured output
thus stay out of this process's memory, and the machine-speed scaling
below sees the same load as the ops.  Before every op, each functools
cache of the program that a cold `catalog show P3` leaves empty is
cleared, so no op reuses work of an earlier op, as in a fresh CLI
process; the catalog, which that cold start loads, stays loaded.

An op's latency is the CPU time of this thread during the call
(time.thread_time), so time in which other processes hold the CPU does
not count; the program under test is single-threaded and does not block.
It is scaled to a nominal machine speed measured next to it (speed.py),
because other tenants of a shared machine can change its speed by up to
2x for seconds at a time.  Unscaled wall-clock figures are printed beside
the metrics.

--trace 0 prints the end-to-end metrics, over every timed run:
  ops_per_s    timed ops / sum of their latencies
  op_p50_ms    median op latency
  op_tail_ms   p99 (requests) or p90 (bulk, twist-scan), with the number
               of ops beyond it
  fail_ratio   failed / attempted (also in the result's attempted and failed)
  setup_s      median wall time of cold `python -m syzstab catalog show P3`
               subprocesses, run one at a time
  peak_rss_mb  peak resident memory of this process up to the end of the
               passes (before it the harness allocates nothing that grows
               with the run)
--trace 1 runs every op of a pass a second time, traced: it prints
per-layer metrics per op (tracing.py) and the tracing overhead, the
difference between the traced and the untraced runs of the same ops.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 1 if any answer was wrong.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import checks
import speed
import tracing
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "checks.py")
TAIL = {"requests": 0.99, "bulk": 0.90, "twist-scan": 0.90}
SETUP_PROBES = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Samples:
    """Start, CPU time and wall time of timed calls, in flat arrays."""

    def __init__(self):
        self.starts, self.cpu, self.wall = array("d"), array("d"), array("d")

    def add(self, start: float, cpu: float, wall: float) -> None:
        self.starts.append(start)
        self.cpu.append(cpu)
        self.wall.append(wall)

    def scaled(self, machine: speed.Speed) -> list[float]:
        """CPU times scaled to nominal machine speed: the op latencies."""
        return machine.scale(self.starts, self.cpu)


class SetupProbe:
    """Cold CLI processes, launched one at a time and spread over the run,
    each timed between two machine-speed readings."""

    ARGV = [sys.executable, "-m", "syzstab", "catalog", "show", "P3"]

    def __init__(self, count: int, seconds: float, machine: speed.Speed):
        self.count, self.every, self.machine = count, seconds / count, machine
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.problems: list[str] = []
        self.due = time.perf_counter()

    def run_once(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        self.machine.measure()
        t0 = time.perf_counter()
        proc = subprocess.run(self.ARGV, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)
        self.machine.measure()
        op = workloads.Op(self.ARGV[3:], 0, "catalog-show", dict(name="P3"))
        reason = checks.check(op, proc.returncode, proc.stdout, proc.stderr)
        if reason:
            self.problems.append(f"setup probe: {reason}")
        self.due += self.every

    def maybe(self) -> None:
        if len(self.starts) < self.count and time.perf_counter() >= self.due:
            self.run_once()

    def finish(self) -> float:
        while len(self.starts) < self.count:
            self.run_once()
        return statistics.median(self.machine.scale(self.starts, self.seconds))


def call(main, argv, out, err):
    """(start, CPU seconds, wall seconds, exit code or "raised ...") of one call."""
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    raised = None
    t0, c0 = time.perf_counter(), time.thread_time()
    try:
        outcome = main(argv)
    except (Exception, SystemExit) as exc:
        raised = exc
    finally:
        c1, t1 = time.thread_time(), time.perf_counter()
        sys.stdout, sys.stderr = saved
    if raised is not None:
        outcome = f"raised {type(raised).__name__}: {raised}"
    return t0, c1 - c0, t1 - t0, outcome


def find_op_caches(main) -> list:
    """cache_clear of every functools cache in a syzstab module (or one of
    its classes) that a cold `catalog show P3` leaves empty."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "syzstab" or name.startswith("syzstab.")):
            continue
        for obj in list(vars(module).values()):
            inner = vars(obj).values() if isinstance(obj, type) and obj.__module__ == name else ()
            for fn in (obj, *inner):
                if hasattr(fn, "cache_clear") and hasattr(fn, "cache_info") and fn not in found:
                    found.append(fn)
    for fn in found:
        fn.cache_clear()
    call(main, SetupProbe.ARGV[3:], io.StringIO(), io.StringIO())
    return [fn.cache_clear for fn in found if fn.cache_info().currsize == 0]


class Workload:
    """One workload's passes: generation, the timed run of each op, and the
    out-of-process check."""

    def __init__(self, args, workdir: str, cli):
        self.name, self.seed, self.workdir, self.cli = args.workload, args.seed, workdir, cli
        self.between = ()             # hooks called before every run of an op
        self.resets = find_op_caches(cli.main)

    def _before(self) -> None:
        for hook in self.between:
            hook()
        for reset in self.resets:
            reset()

    def run_pass(self, pass_no: int, timed: Samples | None = None,
                 traced: Samples | None = None, tracer: tracing.Tracer | None = None):
        """Run every op of one pass once, timed into `timed`, with stdout and
        stderr going to the pass's files; with a tracer, run them all again
        traced, timed into `traced`.  Returns (pass dir, ops, stdout bytes,
        recurring)."""
        pass_dir = os.path.join(self.workdir, f"pass{pass_no}")
        os.makedirs(pass_dir)
        ops, recurring = workloads.generate(self.name, self.seed, pass_no, pass_dir)
        records = []
        with open(os.path.join(pass_dir, "out.txt"), "w", encoding="utf-8") as out, \
             open(os.path.join(pass_dir, "err.txt"), "w", encoding="utf-8") as err:
            for op in ops:
                self._before()
                o0, e0 = out.tell(), err.tell()
                t0, cpu, wall, outcome = call(self.cli.main, op.argv, out, err)
                records.append([outcome, o0, out.tell(), e0, err.tell()])
                if timed is not None:
                    timed.add(t0, cpu, wall)
        if tracer is not None:
            tracer.install()
            try:
                with open(os.devnull, "w", encoding="utf-8") as sink:
                    for op in ops:
                        self._before()
                        tracer.current_op += 1
                        traced.add(*call(self.cli.main, op.argv, sink, sink)[:3])
            finally:
                tracer.uninstall()
        with open(os.path.join(pass_dir, "records.json"), "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        return pass_dir, len(ops), records[-1][2] if records else 0, recurring

    def start_check(self, pass_no: int, pass_dir: str, count: int):
        """Check a pass in a process of its own (checks.py), which runs
        alongside the next pass."""
        proc = subprocess.Popen(
            [sys.executable, CHECKER, self.name, str(self.seed), str(pass_no), pass_dir],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        return proc, pass_no, pass_dir, count

    @staticmethod
    def finish_check(proc, pass_no: int, pass_dir: str, count: int) -> list:
        """Wait for a check; its failures as (op index, reason)."""
        try:
            stdout, stderr = proc.communicate(timeout=600)
        finally:
            if proc.poll() is None:   # timed out, or this process is being stopped
                proc.kill()
                proc.wait()
        shutil.rmtree(pass_dir)
        try:
            result = json.loads(stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = {"checked": 0}
        if proc.returncode != 0 or result["checked"] != count:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            return [(i, f"pass {pass_no} could not be checked: {tail[0]}") for i in range(count)]
        return result["failed"]


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def probe_defects(main) -> list[str]:
    """Outcome of each malformed --input case that raised at the seed."""
    lines = []
    workdir = os.path.join(ROOT, ".perfbench-work", f"defects-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for label, op in workloads.input_defect_ops(workdir):
            outcome = call(main, op.argv, io.StringIO(), io.StringIO())[3]
            text = outcome if isinstance(outcome, str) else f"exit {outcome}"
            lines.append(f"{label}: {text.split(':')[0]}"
                         f"{'' if outcome == op.expect else ' (documented: exit 1)'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return lines


def run_workload(args) -> int:
    parent = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(parent, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:               # another run is still using it
            pass


def _run(args, workdir) -> int:
    problems: list[str] = []
    sys.path.insert(0, SRC)
    from syzstab import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"syzstab was imported from {cli.__file__}, not from {SRC}")

    machine = speed.Speed()
    probe = SetupProbe(SETUP_PROBES, args.seconds, machine)
    hooks = (machine.maybe,) if args.trace else (probe.maybe, machine.maybe)
    work = Workload(args, workdir, cli)
    warm_dir, warm, _, _ = work.run_pass(workloads.WARMUP)
    problems += [f"warm-up: {reason}" for _, reason in
                 work.finish_check(*work.start_check(workloads.WARMUP, warm_dir, warm))]
    work.between = hooks
    rss_start = peak_rss_mb()

    timed, traced = Samples(), Samples()
    tracer = tracing.Tracer() if args.trace else None
    failures: list = []
    passes = attempted = out_bytes = recurring = 0
    pending = None
    last = 0.0
    deadline = time.perf_counter() + args.seconds
    try:
        while passes == 0 or time.perf_counter() + last / 2 < deadline:
            t0 = time.perf_counter()
            pass_dir, n, nbytes, reused = work.run_pass(
                passes, timed, traced if args.trace else None, tracer)
            attempted += n
            out_bytes += nbytes
            recurring += reused
            if pending:
                failures += work.finish_check(*pending)
            pending = work.start_check(passes, pass_dir, n)
            passes += 1
            last = time.perf_counter() - t0
        rss_end = peak_rss_mb()
        machine.measure()
    finally:
        if pending:
            failures += work.finish_check(*pending)
    if not args.trace:
        setup_s = probe.finish()
        problems += probe.problems

    defects = probe_defects(cli.main)
    failed = len(failures)
    correct = failed == 0 and not problems
    w = args.workload
    print(f"workload {w}, seed {args.seed}: {passes} passes, {attempted} timed ops "
          f"({recurring} reuse an input of an earlier pass; {warm} warm-up ops excluded), "
          "closed loop, 1 client")
    for _, reason in failures[:10]:
        print(f"  FAILED {reason}")
    for line in problems[:10]:
        print(f"  FAILED {line}")
    print("  still raising on malformed --input (documented: exit 1): "
          f"{sum('raised' in d for d in defects)} of {len(defects)}")
    for line in defects:
        print(f"    {line}")
    print(f"  peak RSS {rss_start:.2f} MB before the first timed op, {rss_end:.2f} MB after "
          "the last")

    if not args.trace:
        lat = sorted(timed.scaled(machine))
        raw = sorted(timed.wall)
        tail, beyond = percentile(lat, TAIL[w])
        metrics = {
            "ops_per_s": (len(lat) / sum(lat), "op/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_end, "MB"),
        }
        notes = {"ops_per_s": f"wall, unscaled {len(raw) / sum(raw):.4f}",
                 "op_p50_ms": f"wall, unscaled {statistics.median(raw) * 1e3:.4f}",
                 "op_tail_ms": f"p{TAIL[w] * 100:g}, {beyond} of {len(lat)} ops beyond; "
                               f"wall, unscaled {percentile(raw, TAIL[w])[0] * 1e3:.4f}",
                 "setup_s": f"median of {SETUP_PROBES} cold starts"}
        print(f"  machine speed: reference routine {statistics.median(machine.times) * 1e3:.4f} ms "
              f"(median of {len(machine.times)}), nominal {speed.REFERENCE_S * 1e3:g} ms")
        print(f"  {'metric':12s} {'value':>14s}  unit")
        for name, (value, unit) in metrics.items():
            print(f"  {name:12s} {value:14.4f}  {unit:16s} {notes.get(name, '')}")
        print(f"  {'fail_ratio':12s} {failed / attempted:14.4f}  failed/attempted "
              f"{failed} of {attempted}")
    else:
        path = os.path.join(workdir, "spans.bin")
        header = dict(workload=w, seed=args.seed, ops=len(traced.starts), output_bytes=out_bytes)
        tracer.write(path, header)
        del tracer                    # free the in-memory spans before reading them back
        header, arrays = tracing.read(path)
        metrics = dict(tracing.analyze(header, arrays))
        plain = statistics.fmean(timed.scaled(machine))
        spanned = statistics.fmean(traced.scaled(machine))
        metrics["trace.overhead_pct"] = (100 * (spanned / plain - 1), "%")
        tracing.print_table(header, metrics)
        print(f"  tracing overhead: {(spanned - plain) * 1e3:+.4f} ms/op "
              f"({metrics['trace.overhead_pct'][0]:+.1f}%), traced repeats against the "
              f"untraced runs of the same {attempted} ops")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another; the last
    line joins their results, with metrics named <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        code = code or proc.returncode
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "syzstab", "cli.py")):
        print(f"error: no syzstab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
