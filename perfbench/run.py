"""Fixed-work benchmark for dcex.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload from perfbench/README.md, or ``all`` for the four in turn
in this one process.  The run builds its inputs from ``--seed``, times the
set-up, then repeats the workload's fixed work (one pass) for about
``--seconds`` and checks every output.  Times are corrected for the host's
speed by a reference loop timed around each call (see hostspeed.py).  With ``--trace 1`` it instead runs a
pass untraced, the same pass traced, a ``jobs=2`` pass where the workload
has a null phase, and the layer probes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Exit code 2 means the dcex sources or data were not found next to this
directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from hostspeed import HostClock
from spans import Recorder, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 2  # the second pass also checks that outputs repeat byte for byte
SETUP_MIN = 3
SETUP_SECONDS = 1.0
SETUP_BATCH_S = 0.2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label, op, out, reference=None):
        self.attempted += 1
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            problems = op.check(out[1])
            if reference is not None and (isinstance(reference, Exception)
                                          or out[0] != reference[0]):
                problems.append("output bytes differ from the first run "
                                "with the same seed")
        if problems:
            self.failed += 1
            self.problems += [f"{label} {op.id}: {p}" for p in problems]


def run_pass(ops, recorder=None, clock=None, op_times=None):
    """Run every operation once; returns (wall seconds, id -> output).

    With a ``HostClock``, each operation is bracketed by the reference loop
    and its ``(wall, corrected)`` seconds are appended to ``op_times[op.id]``;
    the pass's wall time then includes the reference loops.
    """
    outs = {}
    t0 = time.perf_counter()
    for op in ops:
        if recorder is not None:
            recorder.op = op.id
        if clock is None:
            try:
                outs[op.id] = op.run()
            except Exception as exc:  # counted as a failed operation
                outs[op.id] = exc
        else:
            outs[op.id], wall, fixed = clock.time(op.run)
            op_times.setdefault(op.id, []).append((wall, fixed))
        if isinstance(outs[op.id], Exception):
            traceback.print_exception(outs[op.id], file=sys.stderr)
    return time.perf_counter() - t0, outs


def record_pass(tally, label, ops, outs, reference=None):
    for op in ops:
        tally.record(label, op, outs[op.id],
                     None if reference is None else reference[op.id])


def timed_setup(wl, clock) -> list[tuple[float, float]]:
    """``(wall, corrected)`` seconds of each of several set-ups.

    A set-up much shorter than the reference loop is timed in a batch of
    repeats, so the reference loops bracket at least SETUP_BATCH_S of it.
    """
    out, first, _ = clock.time(wl.setup)
    if isinstance(out, Exception):
        raise out
    batch = max(1, math.ceil(SETUP_BATCH_S / max(first, 1e-6)))

    def setups():
        for _ in range(batch):
            wl.setup()

    times: list[tuple[float, float]] = []
    spent = 0.0
    while len(times) < SETUP_MIN or spent < SETUP_SECONDS:
        out, wall, fixed = clock.time(setups)
        if isinstance(out, Exception):
            raise out
        spent += wall
        times.append((wall / batch, fixed / batch))
    return times


def end_to_end(wl, seconds, tally):
    """Set up several times, then repeat passes for about ``seconds``.

    ``setup_s`` and ``run_s`` are in host-corrected seconds (see
    hostspeed.py); their wall-clock counterparts are in ``detail``.
    """
    clock = HostClock()
    setup = timed_setup(wl, clock)
    ops = wl.ops()
    passes: list[float] = []
    op_times: dict[str, list[tuple[float, float]]] = {}
    first = None
    start = time.perf_counter()
    while True:
        dt, outs = run_pass(ops, clock=clock, op_times=op_times)
        passes.append(dt)
        record_pass(tally, f"pass {len(passes)}", ops, outs, first)
        first = first or outs
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + median(passes) > seconds:
            break
    metrics = {
        "setup_s": (median(f for _, f in setup), "s"),
        "run_s": (sum(median(f for _, f in ts) for ts in op_times.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    detail = {
        "wall_setup_s": summarize([w for w, _ in setup]),
        "wall_run_s": sum(median(w for w, _ in ts) for ts in op_times.values()),
        "reference_s": summarize(clock.refs),
        "passes_s": [round(t, 4) for t in passes],
        "ops_per_pass": len(ops),
    }
    if not any(isinstance(o, Exception) for o in first.values()):
        detail["quality"] = wl.quality({k: v[1] for k, v in first.items()})
    return metrics, detail


def per_layer(wl, tally):
    """Per-layer metrics from one traced pass, a jobs=2 pass and probes."""
    from traced import null_phase_s, probes, span_metrics, tracing

    rec = Recorder()
    with tracing(rec):
        rec.op = "setup"
        wl.setup()
    ops = wl.ops()
    untraced_s, reference = run_pass(ops)
    record_pass(tally, "untraced", ops, reference)
    with tracing(rec):
        traced_s, outs = run_pass(ops, rec)
    record_pass(tally, "traced", ops, outs, reference)

    metrics = span_metrics(rec.spans, traced_s)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    fanout = fanout_null = 0.0
    if wl.has_null_phase:
        rec2 = Recorder()
        ops2 = wl.ops(jobs=2)
        with tracing(rec2):
            _, outs2 = run_pass(ops2, rec2)
        record_pass(tally, "jobs=2", ops2, outs2, reference)
        fanout_null = null_phase_s(rec2.spans)
        if fanout_null > 0:
            fanout = metrics["extraction.null_phase_s"][0] / fanout_null
    metrics["extraction.fanout_speedup"] = (fanout, "ratio")
    metrics["extraction.fanout_null_phase_s"] = (fanout_null, "s")
    metrics.update(probes(*wl.probe_target(), wl.seed))
    return metrics, {}


def run_workload(wl_cls, args, tally, tmp):
    wl = wl_cls(args.seed, tmp)
    before = tally.failed, tally.attempted
    if args.trace:
        metrics, detail = per_layer(wl, tally)
    else:
        metrics, detail = end_to_end(wl, args.seconds, tally)
    failed = tally.failed - before[0]
    attempted = tally.attempted - before[1]
    print(f"== {wl.name}  seed {args.seed}  trace {args.trace} ==")
    print(f"   inputs: {json.dumps(wl.properties())}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:40s} {value:>14.6g} {unit}")
    if not args.trace:
        frac = failed / attempted if attempted else 0.0
        print(f"   {'failed_frac':40s} {frac:>14.6g} ratio"
              f"  ({failed} of {attempted} operations)")
        for name, (value, unit) in detail.pop("quality", {}).items():
            print(f"   {name:40s} {value:>14.6g} {unit}")
    if detail:
        print(f"   detail: {json.dumps(detail)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dcex" / "__init__.py").is_file():
        print(f"error: dcex sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dcex

    if Path(dcex.__file__).resolve().parent != SRC / "dcex":
        print(f"error: imported dcex from {dcex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import FIGURE1, FIGURE1_TRUTH, WORKLOADS

    for path in (FIGURE1, FIGURE1_TRUTH):
        if not path.is_file():
            print(f"error: missing input {path}", file=sys.stderr)
            return 2
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    tally = Tally()
    metrics = {}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / f"{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for wl_cls in chosen:
            found = run_workload(wl_cls, args, tally, tmp)
            prefix = "" if len(chosen) == 1 else f"{wl_cls.name}."
            metrics.update({prefix + k: v for k, v in found.items()})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    for problem in tally.problems:
        print(f"   FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
