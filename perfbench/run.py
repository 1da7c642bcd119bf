"""rmtlab benchmark: real `rmt` runs and library calls, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-spectra --seed 1 --seconds 40 --trace 0

A run repeats whole rounds of its workload's operations for about
``--seconds``.  Every operation runs in a fresh interpreter (``op.py``), one
at a time, so rmtlab's process-wide caches start cold as they do for a user.
Every output is checked against a reference computed in ``checks.py``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  See README.md for the workloads,
the metric map and the reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread per operation, recorded in every result: operations run
# one at a time, and one thread does the same eigensolve work on any core count.
BLAS_THREADS = 1
# Stop starting operations after this many seconds, so that a run always
# ends well inside the three minutes it is allowed.
DEADLINE_S = 150.0

SCAN_GRAPH = "v=4;e=0->1,1->0,2->3,3->2"
QUARTIC_GRAPH = "v=2;e=0->1,0->1"
# Metropolis settings of acceptance criterion 09.
QUARTIC_METROPOLIS = {"steps": 3, "step_size": 1.0, "burn_in": 120}
# The damped scan always reads `violating` (graphs.classify_bound requires
# the last scaled value to fall below a tenth of the first, which 4/N over
# N = 32..128 cannot).  Its input is fixed, so it fails identically on
# every run and counts in `failed` until that fault is mended.
DAMPED_SEED = 1


@dataclass
class Op:
    name: str        # per-operation time in the result file is "<name>_s"
    label: str
    kind: str        # "cli", "wick" or "trace_moment"
    params: dict
    check: object    # (op, result, out_dir) -> (problems, known_failure)


# -- checks applied to one operation's outputs --------------------------------------


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def _cli_ok(result) -> list[str]:
    code = result["exit_code"]
    return [] if code == 0 else [f"exit code {code}"]


def check_sample(op, result, out):
    cfg = op.params["config"]
    files = {n: _read(out / f"spectra_N{n}.csv") for n in cfg["n_grid"]}
    return _cli_ok(result) + checks.check_spectra(files, cfg["samples_per_n"],
                                                  max(cfg["n_grid"])), False


def check_moments(op, result, out):
    cfg = op.params["config"]
    return _cli_ok(result) + checks.check_gue_moments(
        _read(out / "moments.csv"), cfg["n_grid"], cfg["moment_orders"]), False


def check_quartic(op, result, out):
    return _cli_ok(result) + checks.check_quartic(_read(out / "moments.csv"),
                                                  _read(out / "metadata.json")), False


def check_scan(op, result, out):
    cfg = op.params["config"]
    problems, verdict = checks.check_scan(_read(out / "scan.csv"), cfg["ensemble"]["kind"],
                                          cfg["n_grid"])
    problems = _cli_ok(result) + problems
    want = op.params["verdict"]
    if verdict != want:
        if op.params.get("known_fault") and not problems and verdict == "violating":
            return [f"verdict {verdict}, want {want} (graphs.classify_bound)"], True
        problems.append(f"verdict {verdict}, want {want}")
    return problems, False


def check_flow(op, result, out):
    return checks.check_flow(result["exit_code"], result["stdout"], _read(out / "resolvent.txt"),
                             _read(out / "bounds.txt"), op.params["order"],
                             Fraction(op.params["sigma"])), False


def check_wick(op, result, out):
    flags = result["wick_equals_flow"]
    return ([] if flags and all(flags) else [f"wick_oracle != integrate_flow: {flags}"]), False


def check_trace_moment(op, result, out):
    problems = []
    for (n, k), value in zip(op.params["cases"], result["values"]):
        problems += checks.check_trace_moment(value, n, k, Fraction(op.params["sigma_sq"]))
    return problems, False


# -- workloads ------------------------------------------------------------------


def _config(seed: int, ensemble: dict, n_grid, samples: int, **extra) -> dict:
    return {"schema_version": 1, "ensemble": ensemble, "n_grid": list(n_grid),
            "samples_per_n": samples, "seed": seed, **extra}


def _cli(name, label, command, config, check, **params) -> Op:
    return Op(name, label, "cli", {"command": command, "config": config, **params}, check)


def mc_spectra(rng: random.Random) -> list[Op]:
    grid = [32, 128, 512]
    return [
        _cli("sample", "rmt sample (wigner/rademacher)", "sample",
             _config(rng.randrange(2**31), {"kind": "wigner", "entry_dist": "rademacher"},
                     grid, 40), check_sample),
        _cli("moments", "rmt moments (gue)", "moments",
             _config(rng.randrange(2**31), {"kind": "gue"}, grid, 40,
                     moment_orders=[2, 3, 4, 6]), check_moments),
        _cli("quartic_moments", "rmt moments (quartic_invariant g=0.1)", "moments",
             _config(rng.randrange(2**31),
                     {"kind": "quartic_invariant", "quartic_g": 0.1,
                      "metropolis": QUARTIC_METROPOLIS}, [32], 64, moment_orders=[2, 4]),
             check_quartic),
    ]


def mc_scan(rng: random.Random) -> list[Op]:
    grid = [32, 64, 128]
    cases = [("scan_common_factor", {"kind": "common_factor"}, rng.randrange(2**31),
              "violating"),
             ("scan_damped", {"kind": "damped_common_factor", "damping_alpha": 1.0},
              DAMPED_SEED, "consistent_vanishing"),
             ("scan_gue", {"kind": "gue"}, rng.randrange(2**31), "consistent_vanishing")]
    return [_cli(name, f"rmt cumulant-scan ({ens['kind']})", "cumulant-scan",
                 _config(seed, ens, grid, 1500, graphs_to_scan=[SCAN_GRAPH]), check_scan,
                 verdict=verdict, known_fault=ens["kind"] == "damped_common_factor")
            for name, ens, seed, verdict in cases]


def exact(rng: random.Random) -> list[Op]:
    small = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)]
    sigma, coeff = rng.choice(small), rng.choice(small)
    sigma_sq = rng.choice(small)
    return [
        Op("flow", "rmt rg-flow --order 7 (quartic perturbation)", "cli",
           {"order": 7, "sigma": str(sigma),
            "argv": ["rg-flow", "--order", "7", "--sigma", str(sigma),
                     "--pert-graph", QUARTIC_GRAPH, "--pert-coeff", str(coeff)]},
           check_flow),
        Op("wick", "wick_oracle (gaussian t^3, perturbed t^2)", "wick",
           {"sigma_sq": str(sigma_sq), "pert_graph": QUARTIC_GRAPH, "pert_coeff": str(coeff),
            "gaussian_order": 3, "perturbed_order": 2}, check_wick),
        Op("trace_moment", "trace_moment_expectation (3,6) and (6,4)", "trace_moment",
           {"sigma_sq": str(sigma_sq), "cases": [[3, 6], [6, 4]]}, check_trace_moment),
    ]


WORKLOADS = {"mc-spectra": mc_spectra, "mc-scan": mc_scan, "exact": exact}


# -- running one operation --------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_op(op: Op, op_dir: Path, trace: bool, timeout: float) -> dict:
    """Run ``op`` in a fresh interpreter; returns its record with ``problems``."""
    op_dir.mkdir(parents=True)
    params = dict(op.params)
    out = op_dir / "out"
    if op.kind == "cli" and "config" in params:
        cfg_path = op_dir / "config.json"
        cfg_path.write_text(json.dumps(params["config"]))
        params["argv"] = [params["command"], "--config", str(cfg_path), "--out", str(out)]
    elif op.kind == "cli":
        params["argv"] = params["argv"] + ["--out", str(out)]
    record = {"name": op.name, "label": op.label, "traced": trace}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), repr(spawned), "1" if trace else "0",
             str(op_dir), op.kind, json.dumps(params)],
            env=child_env(), cwd=str(op_dir), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record["problems"] = [f"timed out after {timeout:.0f} s"]
        return record
    if proc.returncode != 0:
        record["problems"] = [f"op.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
        return record
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record["problems"] = [f"op.py printed no result: {proc.stdout[-2000:]!r}"]
        return record
    if Path(result["source"]) != SRC / "rmtlab":
        record["problems"] = [f"imported rmtlab from {result['source']}, not {SRC}"]
        return record
    problems, known = op.check(op, result, out)
    record.update(elapsed_s=result["elapsed_s"], setup_s=result["setup_s"],
                  peak_rss_mib=result["peak_rss_mib"], problems=problems, known_failure=known)
    if trace:
        record["trace"] = result["trace"]
    return record


# -- metrics ------------------------------------------------------------------------


def end_to_end(records: list[dict], rounds: int) -> dict:
    """setup_s: median over operations; peak_rss_mib: largest operation;
    round_s: the operations' own times summed over the run, per round."""
    done = [r for r in records if "elapsed_s" in r]
    if not done:
        return {}
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "peak_rss_mib": (max(r["peak_rss_mib"] for r in done), "MiB"),
        "round_s": (sum(r["elapsed_s"] for r in done) / rounds, "s"),
    }


# per-layer metric -> (source, key, unit); "span_calls"/"span_s"/"span_self" read the
# span table, "count" the counters, "leaf" the leaf time of a layer.
LAYER_METRICS = {
    "linalg.eigenvalues_hermitian.calls": ("span_calls", "linalg.eigenvalues_hermitian", "count"),
    "linalg.eigenvalues_hermitian.s": ("span_s", "linalg.eigenvalues_hermitian", "s"),
    "linalg.RngHandle.draws": ("count", "linalg.RngHandle.draws", "count"),
    "linalg.RngHandle.substreams": ("count", "linalg.RngHandle.substreams", "count"),
    "linalg.RngHandle.s": ("leaf", "linalg.RngHandle", "s"),
    "linalg.HermitianMatrix.from_upper.calls": ("count", "linalg.HermitianMatrix.from_upper",
                                                "count"),
    "linalg.HermitianMatrix.from_upper.s": ("leaf", "linalg.HermitianMatrix.from_upper", "s"),
    "ensembles.sample.calls": ("span_calls", "ensembles.sample", "count"),
    "ensembles.sample.self_s": ("span_self", "ensembles.sample", "s"),
    "ensembles.EnsembleSpec.builds": ("count", "ensembles.EnsembleSpec.builds", "count"),
    "ensembles.QuarticChain.sweeps": ("count", "ensembles.QuarticChain.sweeps", "count"),
    "ensembles.QuarticChain.run_sweeps.s": ("span_s", "ensembles.QuarticChain.run_sweeps", "s"),
    "ensembles.QuarticChain.acceptance": ("acceptance", None, "ratio"),
    "spectral.scale_spectrum.s": ("leaf", "spectral.scale_spectrum", "s"),
    "spectral.esd_moment.calls": ("count", "spectral.esd_moment", "count"),
    "spectral.esd_moment.s": ("leaf", "spectral.esd_moment", "s"),
    "spectral.convergence_scan.self_s": ("span_self", "spectral.convergence_scan", "s"),
    "cumulant_scan.estimate_entry_cumulant.self_s": (
        "span_self", "cumulant_scan.estimate_entry_cumulant", "s"),
    "partitions.cumulants_from_moments.calls": ("span_calls", "partitions.cumulants_from_moments",
                                                "count"),
    "partitions.cumulants_from_moments.s": ("span_s", "partitions.cumulants_from_moments", "s"),
    "partitions.set_partitions.calls": ("count", "partitions.set_partitions", "count"),
    "partitions.set_partitions.s": ("leaf", "partitions.set_partitions", "s"),
    "partitions.moments_from_cumulants.calls": ("span_calls", "partitions.moments_from_cumulants",
                                                "count"),
    "partitions.moments_from_cumulants.s": ("span_s", "partitions.moments_from_cumulants", "s"),
    "partitions.trace_moment_expectation.self_s": (
        "span_self", "partitions.trace_moment_expectation", "s"),
    "graphs.canonical_graph.calls": ("count", "graphs.canonical_graph", "count"),
    "graphs.canonical_graph.s": ("leaf", "graphs.canonical_graph", "s"),
    "ring.RingElement.builds": ("count", "ring.RingElement.builds", "count"),
    "ring.RingElement.ops": ("count", "ring.RingElement.ops", "count"),
    "ring.RingElement.s": ("leaf", "ring.RingElement", "s"),
    "replica_rg.integrate_flow.self_s": ("span_self", "replica_rg.integrate_flow", "s"),
    "replica_rg.check_bounds_flow.self_s": ("span_self", "replica_rg.check_bounds_flow", "s"),
    "replica_rg.basis.s": ("basis", None, "s"),
    "replica_rg.wick_oracle.self_s": ("span_self", "replica_rg.wick_oracle", "s"),
    "replica_rg.flow.graphs": ("count", "replica_rg.flow.graphs", "count"),
    "replica_rg.flow.truncation_events": ("count", "replica_rg.flow.truncation_events", "count"),
    "cli.self_s": ("cli_self", None, "s"),
    "cli.bytes_written": ("count", "cli.bytes_written", "B"),
}


def merge_traces(traces: list[dict]) -> dict:
    spans, leaf, counts = {}, {}, {}
    for t in traces:
        for name, (calls, total, self_s) in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in t["leaf_s"].items():
            leaf[name] = leaf.get(name, 0.0) + value
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "leaf_s": leaf, "counts": counts}


def per_layer(records: list[dict], rounds: int) -> dict:
    """Per-layer totals per round, plus the tracing overhead on each end-to-end metric."""
    t = merge_traces([r["trace"] for r in records if r["traced"] and "trace" in r])
    spans, leaf, counts = t["spans"], t["leaf_s"], t["counts"]

    def span(name, field):
        return spans.get(name, [0, 0.0, 0.0])[field]

    metrics = {}
    for metric, (source, key, unit) in LAYER_METRICS.items():
        if source == "span_calls":
            value = span(key, 0)
        elif source == "span_s":
            value = span(key, 1)
        elif source == "span_self":
            value = span(key, 2)
        elif source == "count":
            value = counts.get(key, 0)
        elif source == "leaf":
            value = leaf.get(key, 0.0)
        elif source == "basis":
            value = span("replica_rg.to_free_basis", 1) + span("replica_rg.to_distinct_basis", 1)
        elif source == "cli_self":
            value = sum(v[2] for name, v in spans.items() if name.startswith("cli.cmd_"))
        else:  # acceptance: mean rate over retained (non-adaptive) sweeps
            n = counts.get("ensembles.QuarticChain.acceptance_n", 0)
            metrics[metric] = (counts["ensembles.QuarticChain.acceptance_sum"] / n if n else 0.0,
                               unit)
            continue
        metrics[metric] = (value / rounds, unit)
    plain = end_to_end([r for r in records if not r["traced"]], rounds)
    traced = end_to_end([r for r in records if r["traced"]], rounds)
    for name, (value, _) in plain.items():
        if name in traced:
            metrics[f"trace_overhead.{name}"] = (100.0 * (traced[name][0] - value) / value,
                                                 "%")
    return metrics


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rmtlab" / "__init__.py").is_file():
        print(f"error: no rmtlab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    ops = WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = OUT / f"run-{tag}-{os.getpid()}"
    trace_dir = OUT / f"trace-{tag}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    records: list[dict] = []
    rounds = 0
    stop = False
    try:
        while not stop:
            for i, op in enumerate(ops):
                for traced in ((False, True) if args.trace else (False,)):
                    op_dir = scratch / f"r{rounds}-{i}-{'t' if traced else 'p'}"
                    remaining = DEADLINE_S - (time.monotonic() - started)
                    record = run_op(op, op_dir, traced, max(remaining, 1.0))
                    record["round"] = rounds
                    records.append(record)
                    if traced and (op_dir / "spans.json").exists():
                        trace_dir.mkdir(parents=True, exist_ok=True)
                        (op_dir / "spans.json").replace(trace_dir / f"r{rounds}-{op.name}.json")
                    shutil.rmtree(op_dir)
                    if record["problems"] and not record.get("known_failure"):
                        stop = True
            rounds += 1
            # Start another round only if it would end at most half a round
            # past --seconds, so a run lasts --seconds on average.
            elapsed = time.monotonic() - started
            stop = stop or elapsed + elapsed / rounds / 2 > args.seconds
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    correct = all(r.get("known_failure") for r in failed)
    metrics = per_layer(records, rounds) if args.trace else end_to_end(records, rounds)
    for op in ops:
        times = [r["elapsed_s"] for r in records if r["name"] == op.name and "elapsed_s" in r
                 and not r["traced"]]
        print(f"{op.name}_s [{op.label}]: " + " ".join(f"{t:.3f}" for t in times))
    for r in failed:
        print(f"{'known fault' if r.get('known_failure') else 'FAILED'}: round {r['round']} "
              f"{r['label']}: {'; '.join(r['problems'])}")
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "rounds": rounds, "blas_threads": BLAS_THREADS,
               "wall_s": time.monotonic() - started,
               "ops": [{k: v for k, v in r.items() if k != "trace"} for r in records]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
