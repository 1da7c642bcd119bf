"""Acceptance checks: each desk-scale criterion as a callable check.

Both ``rmt verify --suite <name>`` and the pytest acceptance module run
these; every check pins its tolerance here, nothing is deferred.
"""

from __future__ import annotations

import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .cumulant_scan import scan_graph
from .ensembles import EnsembleSpec, MetropolisParams
from .graphs import BoundVerdict, CumulantGraph, enumerate_graphs, is_eulerian
from .linalg import HermitianMatrix, RngHandle, eigenvalues_hermitian, standard_complex_normals
from .partitions import catalan, extrapolate_limit, gaussian_cumulant_function, set_partitions, trace_moment_expectation
from .replica_rg import CumulantSpec, initial_potential, integrate_flow, wick_oracle
from .ring import RingElement
from .spectral import esd_moment, ks_distance_to_semicircle, sampled_moments, spectra

TWO_TWO_CYCLES = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# -- 1: exact resolvent series through the CLI ------------------------------


def check_rg_flow_catalan() -> CheckResult:
    import time

    from .cli import cmd_rg_flow
    buf = io.StringIO()
    t0 = time.time()
    code = cmd_rg_flow(order=7, sigma=Fraction(1), stream=buf)
    elapsed = time.time() - t0
    printed = buf.getvalue().strip()
    expected = "1, 0, 1, 0, 2, 0, 5"
    ok = printed == expected and code == 0 and elapsed < 60.0
    return _result("rg-flow order 7 prints the Catalan series",
                   ok, f"printed {printed!r} in {elapsed:.2f}s (exit {code})")


# -- 2: flow equals the Wick oracle -----------------------------------------


def check_flow_wick_equivalence() -> CheckResult:
    gauss = CumulantSpec.gaussian_spec(Fraction(1))
    pert = gauss.with_perturbation(CumulantGraph(2, ((0, 1), (0, 1))), RingElement.one())
    oks = []
    for label, spec in (("gaussian", gauss), ("gaussian+quartic", pert)):
        flow = integrate_flow(initial_potential(spec), 3)
        wick = wick_oracle(spec, 3)
        oks.append((label, flow == wick and not flow.truncated and not wick.truncated))
    ok = all(flag for _, flag in oks)
    return _result("integrate_flow equals wick_oracle at t<=3 (exact)",
                   ok, ", ".join(f"{lbl}={flag}" for lbl, flag in oks))


# -- 3: exact finite-N trace moments -----------------------------------------


def check_finite_n_moments() -> CheckResult:
    failures = []
    for sigma_sq in (Fraction(1), Fraction(4)):
        c = gaussian_cumulant_function(sigma_sq)
        for n in range(2, 7):
            got = trace_moment_expectation(n, 4, c)
            want = (2 + Fraction(1, n * n)) * sigma_sq**2
            if got != want:
                failures.append(f"N={n} sigma^2={sigma_sq}: {got} != {want}")
        seq = [(n, trace_moment_expectation(n, 4, c)) for n in (2, 4, 8)]
        limit = extrapolate_limit(seq)
        if abs(Fraction(limit.value) - 2 * sigma_sq**2) > Fraction(1, 10**9):
            failures.append(f"extrapolation sigma^2={sigma_sq}: {limit.value}")
    return _result("finite-N 4th trace moment equals (2 + 1/N^2) sigma^4 exactly",
                   not failures, "; ".join(failures) or "N=2..6 exact, Richardson -> 2 sigma^4")


# -- 4: Monte Carlo universality ---------------------------------------------


def _moment_stats(spec: EnsembleSpec, n: int, count: int, seed: int):
    eigs = spectra(spec, n, count, RngHandle(seed, 0))
    m2, m3, m4 = (esd_moment(eigs, k).mean() for k in (2, 3, 4))
    ks = ks_distance_to_semicircle(eigs, spec.sigma)
    return m2, m3, m4, ks


def check_universality() -> CheckResult:
    ensembles = [
        ("gue", EnsembleSpec("gue")),
        ("wigner/rademacher", EnsembleSpec("wigner", entry_dist="rademacher")),
        ("wigner/centered-exp", EnsembleSpec("wigner", entry_dist="centered_exponential")),
    ]
    failures = []
    details = []
    for idx, (label, spec) in enumerate(ensembles):
        m2, m3, m4, ks = _moment_stats(spec, 512, 24, seed=410 + idx)
        details.append(f"{label}: m2={m2:.4f} m3={m3:+.4f} m4={m4:.4f} ks={ks:.4f}")
        if abs(m2 - 1.0) > 0.03:
            failures.append(f"{label} m2")
        if abs(m3) > 0.05:
            failures.append(f"{label} m3")
        if abs(m4 - 2.0) > 0.1:
            failures.append(f"{label} m4")
        if ks > 0.03:
            failures.append(f"{label} ks")
    return _result("universality at N=512 for gue, rademacher, centered-exponential",
                   not failures, "; ".join(details + (["FAIL: " + ", ".join(failures)]
                                                      if failures else [])))


# -- 5: violation detection ---------------------------------------------------


def check_violation_detection() -> CheckResult:
    """m4 near 2.5 at N = 32..128 (``sampled_moments``, no eigensolve), a
    KS distance of at least 0.02 at N = 512 (eigenvalues, ``spectra``), and
    a two-two-cycle scan that reads violating."""
    spec = EnsembleSpec("common_factor")  # default two-point law, E[g^4] = 5/4
    failures = []
    details = []

    for idx, n in enumerate((32, 64, 128)):
        mean = float(sampled_moments(spec, n, 6400, RngHandle(50 + idx, 0), (4,)).mean())
        details.append(f"m4(N={n})={mean:.3f}")
        if abs(mean - 2.5) > 0.1:
            failures.append(f"m4 at N={n} not near 2.5")
        if abs(mean - 2.0) <= 0.3:
            failures.append(f"m4 at N={n} indistinguishable from 2")

    ks = ks_distance_to_semicircle(spectra(spec, 512, 20, RngHandle(55, 0)), 1.0)
    details.append(f"ks(N=512)={ks:.4f}")
    if ks < 0.02:
        failures.append("KS below 0.02")

    result = scan_graph(spec, TWO_TWO_CYCLES, (32, 64, 128), 8000, RngHandle(56, 0))
    for est in result.estimates:
        details.append(f"scan(N={est.n})={est.estimate:.4f}+-{est.stderr:.4f}")
        if abs(est.estimate - 0.25) > 5 * est.stderr:
            failures.append(f"scan estimate at N={est.n} off 0.25 sigma^4")
    if result.verdict is not BoundVerdict.VIOLATING:
        failures.append(f"verdict {result.verdict.value} != violating")
    return _result("common-factor ensemble violates the Eulerian bound",
                   not failures, "; ".join(details + (["FAIL: " + ", ".join(failures)]
                                                      if failures else [])))


# -- 6: dependent entries that still satisfy the bounds -----------------------


def check_damped_positive_direction() -> CheckResult:
    """A two-two-cycle scan that reads consistent-vanishing, and m4 within
    0.1 of 2 at N = 512 (``sampled_moments``, no eigensolve)."""
    spec = EnsembleSpec("damped_common_factor", damping_alpha=1.0)
    failures = []
    details = []

    result = scan_graph(spec, TWO_TWO_CYCLES, (8, 32, 128), 8000, RngHandle(60, 0))
    for est in result.estimates:
        details.append(f"scan(N={est.n})={est.estimate:.4f}+-{est.stderr:.4f}")
    if result.verdict is not BoundVerdict.CONSISTENT_VANISHING:
        failures.append(f"verdict {result.verdict.value} != consistent_vanishing")

    mean = float(sampled_moments(spec, 512, 500, RngHandle(61, 0), (4,)).mean())
    details.append(f"m4(N=512)={mean:.4f}")
    if abs(mean - 2.0) > 0.1:
        failures.append("m4 at N=512 not within 0.1 of 2")
    return _result("damped common factor: dependent entries, semicircle holds",
                   not failures, "; ".join(details + (["FAIL: " + ", ".join(failures)]
                                                      if failures else [])))


# -- 7: combinatorial ground truth --------------------------------------------


def _eulerian_by_cycle_decomposition(g: CumulantGraph) -> bool:
    """Independent oracle: peel edge-disjoint directed cycles covering all edges.

    A directed multigraph decomposes this way iff it is balanced, which is
    the property the production predicate tests through vertex degrees.
    """

    def peel(remaining: tuple) -> bool:
        if not remaining:
            return True
        start, first_target = remaining[0]

        def walk(current: int, used: frozenset) -> frozenset | None:
            if current == start:
                return used
            for idx, (s, t) in enumerate(remaining):
                if idx not in used and s == current:
                    found = walk(t, used | {idx})
                    if found is not None:
                        return found
            return None

        cycle = walk(first_target, frozenset({0}))
        if cycle is None:
            return False
        return peel(tuple(e for i, e in enumerate(remaining) if i not in cycle))

    return peel(tuple(g.edges))


def check_combinatorial_ground_truth() -> CheckResult:
    failures = []
    classes = enumerate_graphs(4)
    for g in classes:
        if is_eulerian(g) != _eulerian_by_cycle_decomposition(g):
            failures.append(f"eulerian mismatch on {g.to_text()}")
    bells = [len(set_partitions(k)) for k in range(1, 9)]
    if bells != [1, 2, 5, 15, 52, 203, 877, 4140]:
        failures.append(f"bell numbers {bells}")
    cats = [catalan(l) for l in range(11)]
    if cats != [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]:
        failures.append(f"catalan numbers {cats}")
    return _result("eulerian test, Bell numbers, Catalan numbers",
                   not failures,
                   "; ".join(failures) or f"{len(classes)} classes <=4 edges agree; B1..B8, C0..C10 exact")


# -- 8: numerical linear algebra ----------------------------------------------


def check_eigensolver() -> CheckResult:
    rng = RngHandle(80, 0)
    failures = []
    worst = 0.0
    for i in range(100):
        n = max(2, int(round(2.0 ** (1.0 + 8.0 * i / 99.0))))
        sub = rng.substream(i)
        upper = standard_complex_normals(sub, (n, n))
        h = HermitianMatrix.from_upper(upper)
        lam = eigenvalues_hermitian(h)
        _, vecs = np.linalg.eigh(h.data)
        resid = np.linalg.norm(h.data @ vecs - vecs * lam[None, :], axis=0)
        scale = n * h.maxabs()
        worst = max(worst, float(resid.max() / scale))
        if resid.max() > 1e-10 * scale:
            failures.append(f"residual at n={n}")
        if abs(lam.sum() - h.trace()) > 1e-9 * scale:
            failures.append(f"trace identity at n={n}")
        if abs((lam**2).sum() - h.trace_square()) > 1e-8 * n * h.maxabs() ** 2:
            failures.append(f"trace-square identity at n={n}")
    return _result("eigensolver residual and trace identities on 100 matrices",
                   not failures, "; ".join(failures) or f"max scaled residual {worst:.2e}")


# -- 9: unitary-invariant quartic deviation -----------------------------------


def check_quartic_deviation() -> CheckResult:
    """m4 / m2^2 per sample (``sampled_moments``, no eigensolve) departs
    from the Gaussian 2 by more than 5 standard errors, with no chain warning."""
    spec = EnsembleSpec("quartic_invariant", quartic_g=0.1,
                        metropolis=MetropolisParams(steps=3, step_size=1.0, burn_in=120))
    warn: dict[str, list[str]] = {}
    m2, m4 = sampled_moments(spec, 64, 24, RngHandle(90, 0), (2, 4), warn).T
    arr = m4 / m2 ** 2
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr)))
    deviation = abs(mean - 2.0)
    ok = deviation > 5 * stderr and not warn
    return _result("quartic ensemble kurtosis ratio departs from 2 by > 5 stderr",
                   ok, f"m4/m2^2 = {mean:.4f} +- {stderr:.4f} "
                       f"(|dev| = {deviation:.3f}, warnings={warn!r})")


# -- 10: byte-identical reruns -------------------------------------------------


def _run_twice(runner) -> tuple[bool, str]:
    dirs = [Path(tempfile.mkdtemp(prefix="rmtlab-accept-")) for _ in range(2)]
    try:
        for d in dirs:
            runner(d)
        files0 = sorted(p.name for p in dirs[0].iterdir())
        files1 = sorted(p.name for p in dirs[1].iterdir())
        if files0 != files1:
            return False, f"file sets differ: {files0} vs {files1}"
        for name in files0:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                return False, f"bytes differ in {name}"
        return True, f"{len(files0)} files identical"
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)


def check_reproducibility() -> CheckResult:
    from .cli import cmd_moments, cmd_rg_flow, cmd_sample

    gue_doc = {"schema_version": 1, "ensemble": {"kind": "gue", "sigma": 1.0},
               "n_grid": [8, 16], "samples_per_n": 3, "seed": 7}
    quartic_doc = {"schema_version": 1,
                   "ensemble": {"kind": "quartic_invariant", "sigma": 1.0,
                                "quartic_g": 0.1,
                                "metropolis": {"steps": 2, "step_size": 1.0, "burn_in": 10}},
                   "n_grid": [8], "samples_per_n": 2, "seed": 11}
    checks = [
        ("sample/gue", lambda d: cmd_sample(ExperimentConfig.from_json(gue_doc), d)),
        ("sample/quartic", lambda d: cmd_sample(ExperimentConfig.from_json(quartic_doc), d)),
        ("moments", lambda d: cmd_moments(ExperimentConfig.from_json(gue_doc), d)),
        ("rg-flow", lambda d: cmd_rg_flow(order=5, sigma=Fraction(1), out_dir=d,
                                          stream=io.StringIO())),
    ]
    failures = []
    for label, runner in checks:
        same, detail = _run_twice(runner)
        if not same:
            failures.append(f"{label}: {detail}")
    return _result("reruns with identical config and seed are byte-identical",
                   not failures, "; ".join(failures) or "sample, moments, rg-flow reruns identical")


# -- suites --------------------------------------------------------------------

CHECKS = {
    "catalan": check_rg_flow_catalan,
    "wick": check_flow_wick_equivalence,
    "finite-n": check_finite_n_moments,
    "universality": check_universality,
    "violation": check_violation_detection,
    "damped": check_damped_positive_direction,
    "combinatorics": check_combinatorial_ground_truth,
    "eigensolver": check_eigensolver,
    "quartic": check_quartic_deviation,
    "reproducibility": check_reproducibility,
}

SUITES = {
    "exact": ["catalan", "wick", "finite-n", "combinatorics"],
    "montecarlo": ["universality", "violation", "damped", "quartic"],
    "infrastructure": ["eigensolver", "reproducibility"],
    "all": list(CHECKS),
}


def suite_checks(name: str) -> list[str]:
    """The check names a suite (or a single check's name) runs, in order."""
    if name in CHECKS:
        return [name]
    if name in SUITES:
        return SUITES[name]
    raise ValueError(f"unknown suite {name!r}; choose from "
                     f"{sorted(SUITES) + sorted(CHECKS)}")
