"""Correctness checks for benchmark outputs, computed apart from rmtlab.

Every reference here is a closed form or an exact recursion written out in
this file; nothing imports rmtlab and nothing compares against a saved
copy of earlier output.  Each checker returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

KS_LIMIT = 0.03
MOMENT_SIGMAS = 5.0
SCAN_SIGMAS = 5.0
QUARTIC_SIGMAS = 3.0


# -- closed forms --------------------------------------------------------------


def semicircle_cdf(x, sigma: float = 1.0) -> np.ndarray:
    """CDF of the density sqrt(4 s^2 - x^2) / (2 pi s^2) on [-2s, 2s]."""
    x = np.clip(np.asarray(x, dtype=float), -2.0 * sigma, 2.0 * sigma)
    s2 = sigma * sigma
    return 0.5 + x * np.sqrt(4.0 * s2 - x * x) / (4.0 * math.pi * s2) \
        + np.arcsin(x / (2.0 * sigma)) / math.pi


def ks_to_semicircle(values, sigma: float = 1.0) -> float:
    """sup |empirical CDF - semicircle CDF|, evaluated on both sides of each jump."""
    v = np.sort(np.asarray(values, dtype=float))
    ref = semicircle_cdf(v, sigma)
    m = v.size
    upper = np.arange(1, m + 1) / m
    lower = np.arange(0, m) / m
    return float(max(np.max(np.abs(upper - ref)), np.max(np.abs(ref - lower))))


def gue_scaled_moment(k: int, n: int) -> Fraction:
    """Exact E[(1/N) Tr (M/sqrt N)^k] for GUE with unit variance (Harer-Zagier).

    Odd orders vanish; <m2> = 1, <m4> = 2 + 1/N^2, <m6> = 5 + 10/N^2.
    """
    table = {2: (1, 0), 4: (2, 1), 6: (5, 10)}
    if k % 2:
        return Fraction(0)
    lead, sub = table[k]
    return lead + Fraction(sub, n * n)


def catalan_numbers(count: int) -> list[int]:
    """C_0 .. C_{count-1} by the convolution recursion C_{j+1} = sum C_i C_{j-i}."""
    out = [1]
    while len(out) < count:
        j = len(out) - 1
        out.append(sum(out[i] * out[j - i] for i in range(j + 1)))
    return out[:count]


def resolvent_series(order: int, sigma: Fraction) -> list[Fraction]:
    """Coefficients of 1/z .. 1/z^order of the semicircle resolvent."""
    cat = catalan_numbers(order)
    return [Fraction(cat[i // 2]) * sigma ** i if i % 2 == 0 else Fraction(0)
            for i in range(order)]


def scan_reference(kind: str, n: int) -> Fraction:
    """Exact kappa(M12, M21, M34, M43) for the scanned ensembles at sigma = 1.

    common_factor (M = g W, E g^4 = 5/4): Var(g^2) = 1/4.  damped
    (g = 1 + xi N^(-alpha/2), alpha = 1): Var(g^2) = 4/N.  gue: 0.
    """
    if kind == "common_factor":
        return Fraction(1, 4)
    if kind == "damped_common_factor":
        return Fraction(4, n)
    if kind == "gue":
        return Fraction(0)
    raise ValueError(f"no reference for {kind!r}")


# -- output checkers -----------------------------------------------------------


def _rows(text: str, header: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[0] if lines else ''!r} != {header!r}")
    return list(csv.DictReader(io.StringIO(text)))


def check_spectra(files: dict[int, str], samples: int, ks_n: int) -> list[str]:
    """Each spectrum: N ascending finite values; pooled KS at ``ks_n`` <= KS_LIMIT."""
    problems = []
    for n, text in files.items():
        lines = text.splitlines()
        if not lines or lines[0] != "sample_index,eig_index,lambda_scaled":
            problems.append(f"N={n}: bad header")
            continue
        try:
            data = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        except ValueError as exc:
            problems.append(f"N={n}: unparsable row ({exc})")
            continue
        if data.shape != (samples * n, 3):
            problems.append(f"N={n}: {data.shape[0]} rows, want {samples * n}")
            continue
        want_idx = np.stack([np.repeat(np.arange(samples), n), np.tile(np.arange(n), samples)], 1)
        if not np.array_equal(data[:, :2], want_idx):
            problems.append(f"N={n}: sample/eig indices out of order")
        eigs = data[:, 2].reshape(samples, n)
        if not np.all(np.isfinite(eigs)):
            problems.append(f"N={n}: non-finite eigenvalue")
        elif np.any(np.diff(eigs, axis=1) < 0):
            problems.append(f"N={n}: spectrum not ascending")
        if n == ks_n:
            ks = ks_to_semicircle(eigs.ravel())
            if not ks <= KS_LIMIT:
                problems.append(f"N={n}: KS distance {ks:.4f} > {KS_LIMIT}")
    if ks_n not in files:
        problems.append(f"no spectra file for N={ks_n}")
    return problems


def check_gue_moments(text: str, n_grid, orders) -> list[str]:
    """Every (N, k) row within MOMENT_SIGMAS stderr of the exact finite-N value."""
    try:
        rows = _rows(text, "N,k,mean,stderr,gap")
    except ValueError as exc:
        return [str(exc)]
    problems = []
    seen = set()
    for row in rows:
        n, k = int(row["N"]), int(row["k"])
        mean, err = float(row["mean"]), float(row["stderr"])
        seen.add((n, k))
        want = float(gue_scaled_moment(k, n))
        if not (err > 0 and abs(mean - want) <= MOMENT_SIGMAS * err):
            problems.append(f"N={n} k={k}: {mean} vs {want} (stderr {err})")
    missing = {(n, k) for n in n_grid for k in orders} - seen
    if missing:
        problems.append(f"missing rows {sorted(missing)}")
    return problems


def check_quartic(text: str, metadata: str) -> list[str]:
    """<m4>/<m2>^2 below 2 by more than QUARTIC_SIGMAS of its stderr; no warnings.

    The ratio's stderr comes from the delta method with the m2/m4
    covariance dropped; both moments rise together, so this overstates it.
    """
    try:
        rows = _rows(text, "N,k,mean,stderr,gap")
    except ValueError as exc:
        return [str(exc)]
    by_k = {int(r["k"]): (float(r["mean"]), float(r["stderr"])) for r in rows}
    if 2 not in by_k or 4 not in by_k:
        return ["moments.csv lacks k=2 or k=4"]
    (m2, e2), (m4, e4) = by_k[2], by_k[4]
    ratio = m4 / (m2 * m2)
    err = ratio * math.hypot(e4 / m4, 2.0 * e2 / m2)
    problems = []
    if not 2.0 - ratio > QUARTIC_SIGMAS * err:
        problems.append(f"m4/m2^2 = {ratio:.4f} +- {err:.4f} not below 2")
    try:
        meta = json.loads(metadata)
    except ValueError as exc:
        return problems + [f"metadata.json: {exc}"]
    warnings = meta.get("warnings", {})
    if any(warnings.values()):
        problems.append(f"sampler warnings: {warnings}")
    return problems


def _scan_rows(text: str) -> list[tuple[int, str, float, float, str]]:
    """Rows of scan.csv, split from both ends: the graph text holds commas."""
    lines = text.splitlines()
    header = "N,graph,scaled_estimate,stderr,verdict"
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[0] if lines else ''!r} != {header!r}")
    rows = []
    for line in lines[1:]:
        first, rest = line.split(",", 1)
        graph, est, err, verdict = rest.rsplit(",", 3)
        rows.append((int(first), graph, float(est), float(err), verdict))
    return rows


def check_scan(text: str, kind: str, n_grid) -> tuple[list[str], str | None]:
    """(estimate problems, verdict read); estimates within SCAN_SIGMAS of the closed form."""
    try:
        rows = _scan_rows(text)
    except ValueError as exc:
        return [f"scan.csv: {exc}"], None
    problems = []
    ns = [n for n, *_ in rows]
    if ns != list(n_grid):
        problems.append(f"N column {ns} != {list(n_grid)}")
    for n, _, est, err, _ in rows:
        want = float(scan_reference(kind, n))
        if not (err > 0 and abs(est - want) <= SCAN_SIGMAS * err):
            problems.append(f"{kind} N={n}: {est} vs {want} (stderr {err})")
    verdicts = {row[4] for row in rows}
    if len(verdicts) != 1:
        problems.append(f"verdicts differ between rows: {sorted(verdicts)}")
        return problems, None
    return problems, verdicts.pop()


def check_flow(exit_code: int, printed: str, resolvent: str, bounds: str,
               order: int, sigma: Fraction) -> list[str]:
    """Exit 0, printed series and resolvent.txt equal the Catalan series, bounds ok."""
    want = resolvent_series(order, sigma)
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        got_printed = [Fraction(x) for x in printed.strip().split(", ")]
        got_file = [Fraction(x) for x in resolvent.split()]
    except ValueError as exc:
        return problems + [f"unparsable series: {exc}"]
    if got_printed != want:
        problems.append(f"printed {printed.strip()!r}, want {want}")
    if got_file != want:
        problems.append(f"resolvent.txt {got_file}, want {want}")
    lines = bounds.splitlines()
    if not lines or not all(line.endswith(" ok=True") for line in lines):
        problems.append("bounds.txt has a line without ok=True")
    return problems


def check_trace_moment(value: str, n: int, k: int, sigma_sq: Fraction) -> list[str]:
    """Exact equality with sigma^k <m_k>(N) as a Fraction."""
    want = gue_scaled_moment(k, n) * sigma_sq ** (k // 2)
    try:
        got = Fraction(value)
    except ValueError:
        return [f"trace moment {value!r} is not a rational"]
    return [] if got == want else [f"(N={n}, k={k}): {got} != {want}"]
