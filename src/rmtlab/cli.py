"""Command-line interface: reproducible experiments with file outputs.

Every command is a pure function of (config, seed): reruns produce
byte-identical files.  Exit codes: 0 success, 2 validation, 3 capacity,
4 numerical or invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import fcntl
import io
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .cumulant_scan import MIN_JACKKNIFE_SAMPLES, scan_graph
from .ensembles import ParameterError
from .graphs import (MIN_TREND_SIZES, CapacityError, CumulantGraph, GraphParseError,
                     scaling_exponent)
from .linalg import RngHandle
from .partitions import MAX_CUMULANT_ENTRIES
from .replica_rg import (MAX_FLOW_ORDER, TADPOLE, CumulantSpec,
                         FlowInvariantError, check_bounds_flow, extract_resolvent,
                         initial_potential, integrate_flow)
from .ring import RingElement
from .semicircle import SemicircleParams
from .spectral import convergence_scan, histogram, spectra
from .svgplot import render_histogram_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4


class OutputLock:
    """One command invocation owns an output directory at a time.

    The owner holds an exclusive ``flock`` on ``.lock`` for the whole run and
    writes its pid there.  A lock that can be flocked and whose pid names no
    running process is left over from a killed run: it is taken over in
    place, under the flock, so two runs cannot both take over one stale lock.
    A flocked, empty, unparsable or live lock refuses the run.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self.fd = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(3):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR)
            except FileExistsError:
                try:
                    fd = os.open(self.path, os.O_RDWR)
                except FileNotFoundError:
                    continue  # the owner removed it meanwhile
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    os.close(fd)
                    break  # held by a running command
                if not self._is_path(fd):
                    os.close(fd)
                    continue
                if not self._stale(fd):
                    os.close(fd)
                    break
                os.ftruncate(fd, 0)
            else:
                # a run that finds the new, still empty file only reads it
                # under the flock and then lets go, so this wait is short
                fcntl.flock(fd, fcntl.LOCK_EX)
            os.pwrite(fd, str(os.getpid()).encode(), 0)
            self.fd = fd
            return self
        raise ConfigError(f"output directory is locked by another run: {self.path}")

    def _is_path(self, fd: int) -> bool:
        """Whether ``fd`` is still the file at ``self.path``."""
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return False
        own = os.fstat(fd)
        return (own.st_dev, own.st_ino) == (st.st_dev, st.st_ino)

    @staticmethod
    def _stale(fd: int) -> bool:
        try:
            pid = int(os.pread(fd, 32, 0))
        except ValueError:
            return False
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:  # alive, owned by another user
            pass
        return False

    def __exit__(self, *exc):
        if self.fd is not None:
            if self._is_path(self.fd):
                self.path.unlink()
            os.close(self.fd)
            self.fd = None
        return False


def _write_text(path: Path, text: str):
    """Replace ``path`` with ``text`` atomically: write a temp file in the
    same directory, then rename it over ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_metadata(out_dir: Path, config: ExperimentConfig, command: str, extra: dict):
    doc = {
        "command": command,
        "config_sha256": config.digest(),
        "config": config.to_json(),
        "seed": config.seed,
        "versions": {"rmtlab": __version__, "numpy": np.__version__},
    }
    doc.update(extra)
    _write_text(out_dir / "metadata.json", json.dumps(doc, sort_keys=True, indent=1) + "\n")


def cmd_sample(config: ExperimentConfig, out_dir: Path) -> int:
    """Write per-sample scaled spectra, one CSV per matrix size."""
    warnings: dict[str, list[str]] = {}
    with OutputLock(out_dir):
        for n_index, n in enumerate(config.n_grid):
            eigs = spectra(config.ensemble, n, config.samples_per_n,
                           RngHandle(config.seed, 0).substream(n_index), warnings)
            # joined per spectrum: a string per eigenvalue would hold count * N objects
            rows = ["sample_index,eig_index,lambda_scaled\n"]
            for s_idx, row in enumerate(eigs):
                rows.append("".join(f"{s_idx},{e_idx},{lam!r}\n"
                                    for e_idx, lam in enumerate(row.tolist())))
            _write_text(out_dir / f"spectra_N{n}.csv", "".join(rows))
        _write_metadata(out_dir, config, "sample", {"warnings": warnings})
    return EXIT_OK


def cmd_moments(config: ExperimentConfig, out_dir: Path) -> int:
    """Scaled-moment table with standard errors and the semicircle gap."""
    warnings: dict[str, list[str]] = {}
    with OutputLock(out_dir):
        rng = RngHandle(config.seed, 0)
        rows = convergence_scan(config.ensemble, config.n_grid, config.moment_orders,
                                config.samples_per_n, rng, warnings)
        lines = ["N,k,mean,stderr,gap"]
        for row in rows:
            lines.append(f"{row.n},{row.k},{row.mean!r},{row.stderr!r},{row.gap!r}")
        _write_text(out_dir / "moments.csv", "\n".join(lines) + "\n")
        _write_metadata(out_dir, config, "moments", {"warnings": warnings})
    return EXIT_OK


def cmd_cumulant_scan(config: ExperimentConfig, out_dir: Path) -> int:
    """Scaled cumulant estimates per graph and N, with bound verdicts."""
    graphs = config.parsed_graphs()
    if not graphs:
        raise ConfigError("graphs_to_scan: required for cumulant-scan")
    for g in graphs:
        if g.num_edges > MAX_CUMULANT_ENTRIES:
            raise CapacityError(f"graphs_to_scan: {g.to_text()} has {g.num_edges} edges, past "
                                f"the cumulant inversion's limit of {MAX_CUMULANT_ENTRIES}")
        # n_grid ascends, so its first size is the smallest
        if config.n_grid[0] < g.num_vertices:
            raise ConfigError(f"n_grid: size {config.n_grid[0]} is too small for the "
                              f"{g.num_vertices}-vertex graph {g.to_text()}")
    if config.samples_per_n < MIN_JACKKNIFE_SAMPLES:
        raise ConfigError(f"samples_per_n: cumulant-scan needs at least {MIN_JACKKNIFE_SAMPLES} "
                          "for a jackknife error")
    if len(config.n_grid) < MIN_TREND_SIZES:
        raise ConfigError(f"n_grid: cumulant-scan needs at least {MIN_TREND_SIZES} sizes to "
                          "classify a trend")
    with OutputLock(out_dir):
        rng = RngHandle(config.seed, 0)
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["N", "graph", "scaled_estimate", "stderr", "verdict"])
        for g_index, graph in enumerate(graphs):
            result = scan_graph(config.ensemble, graph, config.n_grid,
                                config.samples_per_n, rng.substream(g_index))
            expo = float(scaling_exponent(graph))
            for est in result.estimates:
                writer.writerow([est.n, graph.to_text(), repr(est.estimate * est.n ** expo),
                                 repr(est.stderr * est.n ** expo), result.verdict.value])
        _write_text(out_dir / "scan.csv", text.getvalue())
        _write_metadata(out_dir, config, "cumulant-scan", {})
    return EXIT_OK


def cmd_rg_flow(order: int, sigma: Fraction, pert_graph: str | None = None,
                pert_coeff: Fraction | None = None, pert_nhalf: int | None = None,
                out_dir: Path | None = None, stream=None) -> int:
    """Run the exact flow, print the resolvent series, check the bounds.

    Only the light cone of the tadpole is flown: the resolvent reads the
    tadpole alone, and the bounds cover every graph inside its cone.  A
    spec that breaks the bounds may make the resolvent diverge: then no
    series is printed or written, the first divergent t-order is named, and
    the state and the bounds are still written.
    """
    stream = stream or sys.stdout
    if order < 1 or order > MAX_FLOW_ORDER:
        raise CapacityError(f"flow order must be in [1, {MAX_FLOW_ORDER}]")
    if pert_graph is None and (pert_coeff is not None or pert_nhalf is not None):
        raise ConfigError("--pert-coeff and --pert-nhalf need --pert-graph")
    if sigma <= 0:
        raise ConfigError("--sigma must be positive")
    spec = CumulantSpec.gaussian_spec(sigma * sigma)
    if pert_graph is not None:
        graph = CumulantGraph.from_text(pert_graph)
        value = RingElement({(0, pert_nhalf or 0):
                             Fraction(pert_coeff if pert_coeff is not None else 1)})
        spec = spec.with_perturbation(graph, value)
    state = integrate_flow(initial_potential(spec), order, TADPOLE.num_edges)
    try:
        coeffs, divergence = extract_resolvent(state, order), None
    except FlowInvariantError as exc:
        coeffs, divergence = None, exc
    report = check_bounds_flow(state, spec)
    if divergence is not None and report.all_ok:
        raise divergence
    if coeffs is not None:
        print(", ".join(str(c) for c in coeffs), file=stream)
    if out_dir is not None:
        with OutputLock(out_dir):
            _write_text(out_dir / "flow_state.json", state.dumps() + "\n")
            if coeffs is None:
                # a resolvent left by an earlier run would not match this flow
                (out_dir / "resolvent.txt").unlink(missing_ok=True)
            else:
                _write_text(out_dir / "resolvent.txt",
                            "\n".join(str(c) for c in coeffs) + "\n")
            _write_text(out_dir / "bounds.txt", "\n".join(
                f"{e.graph} t^{e.t_order} {e.part} grade={e.half_grade} ok={e.ok}"
                for e in report.entries) + "\n")
    if not report.all_ok:
        print("scaling-bound violation in the n^0 grade", file=sys.stderr)
        if divergence is not None:
            k = divergence.t_order
            print(f"divergent input: the tadpole has a positive N grade at t^{k}, so the "
                  f"resolvent has no large-N limit from 1/z^{k + 2} on", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_plot(spectra_files: list[Path], sigma: float, bins: int,
             value_range: tuple[float, float], out_file: Path) -> int:
    """SVG histogram of pooled spectra with the semicircle curve overlaid."""
    eigs = []
    for path in spectra_files:
        if not path.exists():
            raise ConfigError(f"spectra file not found: {path}")
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "sample_index,eig_index,lambda_scaled":
                raise ConfigError(f"unexpected spectra header in {path}: {header!r}")
            for line in fh:
                eigs.append(float(line.rsplit(",", 1)[1]))
    if not eigs:
        raise ConfigError("no eigenvalues found in the given spectra files")
    bars = histogram(eigs, bins, value_range)
    svg = render_histogram_svg(bars, sigma)
    _write_text(out_file, svg)
    return EXIT_OK


def cmd_verify(suite: str, stream=None) -> int:
    """Run a suite; each check's wall time goes to stderr, its verdict to ``stream``."""
    from .acceptance import CHECKS, suite_checks
    stream = stream or sys.stdout
    failed = False
    for name in suite_checks(suite):
        t0 = time.perf_counter()
        res = CHECKS[name]()
        print(f"{name}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}", file=stream)
        failed = failed or not res.passed
    return EXIT_NUMERICAL if failed else EXIT_OK


def _fraction(text: str) -> Fraction:
    """argparse type for an exact rational; argparse itself turns only
    ValueError and TypeError into a usage error, not ZeroDivisionError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmt",
                                     description="random-matrix laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", required=True, help="output directory")

    with_config(sub.add_parser("sample", help="write per-sample scaled spectra"))
    with_config(sub.add_parser("moments", help="write the moment convergence table"))
    with_config(sub.add_parser("cumulant-scan", help="scan entry cumulants over N"))

    flow = sub.add_parser("rg-flow", help="exact flow and resolvent series")
    flow.add_argument("--order", type=int, required=True)
    flow.add_argument("--sigma", type=_fraction, default=Fraction(1))
    flow.add_argument("--pert-graph", default=None, help="graph text form")
    flow.add_argument("--pert-coeff", type=_fraction, default=None)
    flow.add_argument("--pert-nhalf", type=int, default=None,
                      help="N grade of the perturbation, in units of N^(1/2) (default 0)")
    flow.add_argument("--out", default=None)

    plot = sub.add_parser("plot", help="SVG histogram with semicircle overlay")
    plot.add_argument("--spectra", nargs="+", required=True)
    plot.add_argument("--sigma", type=float, default=1.0)
    plot.add_argument("--bins", type=int, default=50)
    plot.add_argument("--range", type=float, nargs=2, default=(-3.0, 3.0))
    plot.add_argument("--out", required=True)

    verify = sub.add_parser("verify", help="run an acceptance suite")
    verify.add_argument("--suite", default="all")
    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sample":
            return cmd_sample(_load_config(args), Path(args.out))
        if args.command == "moments":
            return cmd_moments(_load_config(args), Path(args.out))
        if args.command == "cumulant-scan":
            return cmd_cumulant_scan(_load_config(args), Path(args.out))
        if args.command == "rg-flow":
            return cmd_rg_flow(args.order, args.sigma, args.pert_graph, args.pert_coeff,
                               args.pert_nhalf, Path(args.out) if args.out else None)
        if args.command == "plot":
            return cmd_plot([Path(p) for p in args.spectra], args.sigma, args.bins,
                            tuple(args.range), Path(args.out))
        if args.command == "verify":
            return cmd_verify(args.suite)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (FlowInvariantError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
