"""Command-line entry point: extract, benchmark, sweep, and scaling runs.

Every command is deterministic under a fixed ``--seed`` (wall-clock timings
excluded); each output file is accompanied by a ``<name>.manifest.json``
sidecar echoing the command, parameters, seed, tool version, and per-phase
timings.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import DmmConfig, run_dmm, run_uce
from .benchmark import BenchmarkSpec, generate
from .criterion import CriterionDomainError, CriterionParams
from .evaluation import best_pair_adjusted_jaccard, save_membership
from .extraction import (
    NULL_DEGREE_PRESERVING,
    NULL_SAME_EDGE_COUNT,
    ExtractionConfig,
    extract_all,
    map_jobs,
)
from .graph import load_edge_list, save_edge_list
from .sampler import ChainConfig, run_chain, write_trace_csv
from .seeding import derive_seed

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

SWEEP_COLUMNS = [
    "seed",
    "method",
    "rho",
    "n",
    "p1",
    "p2",
    "adjusted_jaccard",
    "runtime_ms",
    "error",
]
SCALING_COLUMNS = [
    "size",
    "replicates",
    "mean_runtime_ms",
    "min_runtime_ms",
    "max_runtime_ms",
    "mean_steps",
    "proposals_per_s",
    "mean_best_size",
]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # unexpected: runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcex",
        description="Local community extraction in directed networks.",
    )
    parser.add_argument("--version", action="version", version=f"dcex {__version__}")
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("extract", help="extract communities from an edge-list file")
    p.add_argument("--graph", required=True, help="edge-list file (src dst [weight])")
    p.add_argument("--method", choices=["dce", "uce", "dmm"], default="dce")
    p.add_argument("--undirected", action="store_true",
                   help="treat input lines as undirected edges")
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--n", type=float, default=5.0)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-communities", type=int, default=10)
    p.add_argument("--null-model", choices=[NULL_SAME_EDGE_COUNT, NULL_DEGREE_PRESERVING],
                   default=NULL_SAME_EDGE_COUNT)
    p.add_argument("--null-replicates", type=int, default=100,
                   help="0 disables the significance stop rule")
    p.add_argument("--significance-quantile", type=float, default=0.95)
    p.add_argument("--parts", type=int, default=3, help="dmm: number of parts")
    p.add_argument("--refinement-passes", type=int, default=10)
    p.add_argument("--trace", default=None,
                   help="write a step,W,accepted,size CSV of round 0's first "
                        "restart chain as the run ran it; header only when no "
                        "restart ran (dce and uce only)")
    _add_chain_options(p, c=1.0)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("benchmark", help="generate planted benchmark graphs")
    p.add_argument("--n1", type=int, default=40, help="sink community size")
    p.add_argument("--n2", type=int, default=50, help="source community size")
    p.add_argument("--n0", type=int, default=410, help="background size")
    p.add_argument("--p1", type=float, default=0.7)
    p.add_argument("--p2", type=float, default=0.05)
    p.add_argument("--figure1", action="store_true",
                   help="use the illustration-figure layout (source group first)")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("sweep", help="generate/extract/evaluate over a parameter grid")
    p.add_argument("--rho", default="0.8", help="comma-separated values")
    p.add_argument("--n", default="5", help="comma-separated values")
    p.add_argument("--p1", default="0.7", help="comma-separated values")
    p.add_argument("--p2", default="0.05", help="comma-separated values")
    p.add_argument("--n1", type=int, default=40)
    p.add_argument("--n2", type=int, default=50)
    p.add_argument("--n0", type=int, default=410)
    p.add_argument("--methods", default="dce,uce,dmm")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--parts", type=int, default=3)
    _add_chain_options(p, c=0.05)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("scaling", help="time one-community extraction vs network size")
    p.add_argument("--sizes", default="2000,4000,6000,8000,10000")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--n", type=float, default=5.0)
    _add_chain_options(p, c=0.05)
    p.set_defaults(func=_cmd_scaling)

    return parser


def _add_chain_options(p, c: float) -> None:
    """Declare the options of a command that runs chains, ``c`` the default
    inverse temperature.  Each command declares its own actions: a parser
    shared through ``parents=`` shares them, defaults included."""
    p.add_argument("--c", type=float, default=c)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", required=True)


def _chain_config(args) -> ChainConfig:
    return ChainConfig(c=args.c, max_steps=args.max_steps,
                       patience=args.patience, seed=args.seed)


def _write_manifest(out_path, command: str, params: dict, seed: int, timings: dict):
    manifest = {
        "command": command,
        "params": params,
        "master_seed": seed,
        "version": __version__,
        "timings": timings,
    }
    path = Path(str(out_path) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- extract ---------------------------------------------------------------


def _cmd_extract(args) -> int:
    t0 = time.perf_counter()
    if args.trace and args.method == "dmm":
        raise ValueError("--trace needs --method dce or uce: dmm runs no chain")
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    # Every option is checked, whatever the method, before the graph loads.
    dmm = DmmConfig(args.parts, args.refinement_passes)
    config = ExtractionConfig(
        criterion=CriterionParams(rho=args.rho, n=args.n),
        chain=_chain_config(args),
        restarts=args.restarts,
        max_communities=args.max_communities,
        null_replicates=args.null_replicates,
        null_model=args.null_model,
        significance_quantile=args.significance_quantile,
    )
    g = load_edge_list(args.graph, directed=not args.undirected)
    if g.edge_count == 0:
        raise ValueError(f"{args.graph}: no edges")
    t_load = time.perf_counter() - t0

    timings = {"load_s": t_load}
    t1 = time.perf_counter()
    if args.method == "dmm":
        labels = run_dmm(g, dmm)
        assignments = {g.label_of(u): cid for u, cid in labels.assignments.items()}
        save_membership(assignments, args.out)
    else:
        events = []

        def first_restart(round_idx, restart):
            if round_idx == restart == 0:
                return lambda event, state: events.append(event)
            return None

        run = extract_all if args.method == "dce" else run_uce
        try:
            report = run(g, config, jobs=args.jobs,
                         chain_observer=first_restart if args.trace else None)
        except CriterionDomainError as exc:  # W may overflow on these weights
            raise CriterionDomainError(f"{args.graph}: {exc}") from None
        report.save_json(args.out)
        if args.trace:
            write_trace_csv(events, args.trace)
    timings["run_s"] = time.perf_counter() - t1

    _write_manifest(args.out, "extract", _echo_args(args), args.seed, timings)
    return EXIT_OK


def _echo_args(args) -> dict:
    return {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }


# -- benchmark -------------------------------------------------------------


def _cmd_benchmark(args) -> int:
    t0 = time.perf_counter()
    spec_base = BenchmarkSpec(
        n1=args.n1, n2=args.n2, n0=args.n0, p1=args.p1, p2=args.p2, seed=args.seed
    )
    if args.replicates < 0:
        raise ValueError("replicates must be >= 0")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for r in range(args.replicates):
        spec = replace(spec_base, seed=derive_seed(args.seed, r))
        graph, truth = generate(spec, figure1_variant=args.figure1)
        save_edge_list(graph, out_dir / f"bench_{r:04d}.edgelist")
        truth.to_file(out_dir / f"bench_{r:04d}.truth")
    timings = {"total_s": time.perf_counter() - t0}
    _write_manifest(out_dir / "benchmark", "benchmark", _echo_args(args), args.seed,
                    timings)
    return EXIT_OK


# -- sweep -----------------------------------------------------------------


def _parse_floats(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None
    if not vals:
        raise ValueError("empty value list")
    return vals


def _sweep_task(task) -> list[dict]:
    """One (cell, replicate) unit: generate, run every method, score. Picklable.

    ``task`` is ``(spec, config, methods, dmm)``; each chain method runs
    ``config`` with its own chain seed derived from ``spec.seed``, and dmm
    runs the :class:`DmmConfig` ``dmm``.
    """
    spec, config, methods, dmm = task
    graph, truth = generate(spec)
    truth_pair = (truth.s1, truth.s2)
    rows = []
    for mi, method in enumerate(methods):
        row = {
            "seed": spec.seed,
            "method": method,
            "rho": config.criterion.rho,
            "n": config.criterion.n,
            "p1": spec.p1,
            "p2": spec.p2,
            "adjusted_jaccard": "",
            "runtime_ms": "",
            "error": "",
        }
        t0 = time.perf_counter()
        try:
            if method == "dmm":
                found = run_dmm(graph, dmm).as_sets()
            else:
                chain = replace(config.chain, seed=derive_seed(spec.seed, 100 + mi))
                run = extract_all if method == "dce" else run_uce
                found = run(graph, replace(config, chain=chain)).member_sets()
            aj, _ = best_pair_adjusted_jaccard(truth_pair, found)
            row["adjusted_jaccard"] = f"{aj:.6f}"
        except Exception as exc:
            row["error"] = str(exc).replace("\n", " ")
        row["runtime_ms"] = f"{(time.perf_counter() - t0) * 1e3:.3f}"
        rows.append(row)
    return rows


def _cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    rhos = _parse_floats(args.rho)
    ns = _parse_floats(args.n)
    p1s = _parse_floats(args.p1)
    p2s = _parse_floats(args.p2)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("dce", "uce", "dmm"):
            raise ValueError(f"unknown method {m!r}")
    if args.replicates < 0:
        raise ValueError("replicates must be >= 0")
    # Every row scores against both planted communities.
    if min(args.n1, args.n2) < 1:
        raise ValueError("--n1 and --n2 must be >= 1")

    dmm = DmmConfig(target_parts=args.parts)
    chain = _chain_config(args)
    tasks = []
    for ci, (rho, n, p1, p2) in enumerate(product(rhos, ns, p1s, p2s)):
        # Both are built, and so validated, even when there are no replicates.
        spec = BenchmarkSpec(n1=args.n1, n2=args.n2, n0=args.n0, p1=p1, p2=p2)
        config = ExtractionConfig(
            criterion=CriterionParams(rho=rho, n=n),
            chain=chain,
            restarts=args.restarts,
            max_communities=2,
            null_replicates=0,
        )
        for rep in range(args.replicates):
            tasks.append((replace(spec, seed=derive_seed(args.seed, ci, rep)),
                          config, methods, dmm))
    all_rows = list(map_jobs(_sweep_task, tasks, args.jobs))

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for rows in all_rows:
            for row in rows:
                writer.writerow(row)
    timings = {"total_s": time.perf_counter() - t0}
    _write_manifest(args.out, "sweep", _echo_args(args), args.seed, timings)
    failed = sum(bool(row["error"]) for rows in all_rows for row in rows)
    if failed:
        total = sum(len(rows) for rows in all_rows)
        print(f"error: {failed} of {total} rows failed; see the error column of "
              f"{args.out}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# -- scaling ---------------------------------------------------------------


def _scaling_task(task) -> tuple[float, int, int]:
    """Time one chain search ``(spec, params, chain)``: (runtime in ms,
    steps, size of the best set).

    The run times the community search itself (no significance chains).
    """
    spec, params, chain = task
    graph, _ = generate(spec)
    t0 = time.perf_counter()
    result = run_chain(graph, params, chain)
    return (time.perf_counter() - t0) * 1e3, result.steps_run, result.best_state.size


def _cmd_scaling(args) -> int:
    t0 = time.perf_counter()
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated sizes, got {args.sizes!r}") from None
    if not sizes:
        raise ValueError("empty size list")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"duplicate scaling sizes in {args.sizes!r}")
    if min(sizes) < 100:
        raise ValueError("scaling sizes must be >= 100")
    if args.replicates < 1:
        raise ValueError("replicates must be >= 1")

    params = CriterionParams(rho=args.rho, n=args.n)
    chain = _chain_config(args)
    tasks = []
    for si, size in enumerate(sizes):
        for rep in range(args.replicates):
            # Background density 10/N keeps the expected degree flat.
            spec = BenchmarkSpec(n1=40, n2=50, n0=size - 90, p1=0.7,
                                 p2=min(1.0, 10.0 / size),
                                 seed=derive_seed(args.seed, si, rep, 0))
            tasks.append(
                (spec, params, replace(chain, seed=derive_seed(args.seed, si, rep, 1)))
            )
    results = list(map_jobs(_scaling_task, tasks, args.jobs))

    rows = []
    fit_points = []
    for si, size in enumerate(sizes):
        runtimes, steps, best_sizes = zip(
            *results[si * args.replicates:(si + 1) * args.replicates]
        )
        mean_rt = sum(runtimes) / len(runtimes)
        rows.append(
            {
                "size": size,
                "replicates": len(runtimes),
                "mean_runtime_ms": f"{mean_rt:.3f}",
                "min_runtime_ms": f"{min(runtimes):.3f}",
                "max_runtime_ms": f"{max(runtimes):.3f}",
                "mean_steps": f"{sum(steps) / len(steps):.1f}",
                "proposals_per_s": f"{sum(steps) / (sum(runtimes) / 1e3):.0f}",
                "mean_best_size": f"{sum(best_sizes) / len(best_sizes):.1f}",
            }
        )
        fit_points.append((size, mean_rt))

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SCALING_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    timings = {"total_s": time.perf_counter() - t0}
    if len(fit_points) >= 2:
        timings["fitted_exponent"] = fit_runtime_exponent(fit_points)
    _write_manifest(args.out, "scaling", _echo_args(args), args.seed, timings)
    return EXIT_OK


def fit_runtime_exponent(points) -> float:
    """Least-squares slope of log(runtime) against log(size)."""
    xs = np.log([float(p[0]) for p in points])
    ys = np.log([max(float(p[1]), 1e-9) for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


if __name__ == "__main__":
    sys.exit(main())
