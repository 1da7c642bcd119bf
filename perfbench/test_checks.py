"""Tests of the benchmark's own checkers, run without a workload:

    python3 -m pytest perfbench

Each checker accepts output built from the closed-form reference and
rejects a deliberately wrong output.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

import checks
from tracer import Tracer


def semicircle_quantiles(count: int) -> np.ndarray:
    grid = np.linspace(-2.0, 2.0, 200001)
    return np.interp((np.arange(count) + 0.5) / count, checks.semicircle_cdf(grid), grid)


def spectra_csv(eigs: np.ndarray) -> str:
    lines = ["sample_index,eig_index,lambda_scaled"]
    for s, row in enumerate(eigs):
        lines += [f"{s},{e},{float(x)!r}" for e, x in enumerate(row)]
    return "\n".join(lines) + "\n"


def moments_csv(rows) -> str:
    return "N,k,mean,stderr,gap\n" + "".join(f"{n},{k},{m!r},{e!r},0.0\n" for n, k, m, e in rows)


def scan_csv(values, stderr, verdict) -> str:
    graph = "v=4;e=0->1,1->0,2->3,3->2"
    return "N,graph,scaled_estimate,stderr,verdict\n" + "".join(
        f"{n},{graph},{v!r},{stderr!r},{verdict}\n" for n, v in values)


# -- closed forms ----------------------------------------------------------------


def test_semicircle_cdf_closed_form():
    assert checks.semicircle_cdf(-2.0) == pytest.approx(0.0)
    assert checks.semicircle_cdf(0.0) == pytest.approx(0.5)
    assert checks.semicircle_cdf(2.0) == pytest.approx(1.0)
    x, h = 0.7, 1e-6
    slope = (checks.semicircle_cdf(x + h) - checks.semicircle_cdf(x - h)) / (2 * h)
    assert slope == pytest.approx(np.sqrt(4 - x * x) / (2 * np.pi), rel=1e-6)


def test_catalan_numbers_and_series():
    assert checks.catalan_numbers(8) == [1, 1, 2, 5, 14, 42, 132, 429]
    assert checks.resolvent_series(7, Fraction(1)) == [1, 0, 1, 0, 2, 0, 5]
    assert checks.resolvent_series(5, Fraction(1, 2)) == [1, 0, Fraction(1, 4), 0,
                                                          Fraction(2, 16)]


# -- flow --------------------------------------------------------------------------


def test_flow_accepts_catalan_and_rejects_one_coefficient_off():
    sigma = Fraction(3, 2)
    series = checks.resolvent_series(7, sigma)
    printed = ", ".join(str(c) for c in series) + "\n"
    resolvent = "\n".join(str(c) for c in series) + "\n"
    bounds = "v=1;e=0->0 t^0 gaussian grade=-1 ok=True\n"
    assert checks.check_flow(0, printed, resolvent, bounds, 7, sigma) == []
    wrong = list(series)
    wrong[4] += 1
    bad = ", ".join(str(c) for c in wrong)
    assert checks.check_flow(0, bad, resolvent, bounds, 7, sigma)
    assert checks.check_flow(0, printed, "\n".join(str(c) for c in wrong), bounds, 7, sigma)
    assert checks.check_flow(0, printed, resolvent, bounds.replace("True", "False"), 7, sigma)
    assert checks.check_flow(4, printed, resolvent, bounds, 7, sigma)


# -- moments -----------------------------------------------------------------------


def gue_rows(err=0.01):
    return [(n, k, float(checks.gue_scaled_moment(k, n)), err)
            for n in (32, 128, 512) for k in (2, 3, 4, 6)]


def test_gue_moments_accepts_exact_and_rejects_m4_moved_by_10_stderr():
    rows = gue_rows()
    assert checks.check_gue_moments(moments_csv(rows), [32, 128, 512], [2, 3, 4, 6]) == []
    moved = [(n, k, m + 10 * e if (n, k) == (128, 4) else m, e) for n, k, m, e in rows]
    problems = checks.check_gue_moments(moments_csv(moved), [32, 128, 512], [2, 3, 4, 6])
    assert len(problems) == 1 and "N=128 k=4" in problems[0]
    missing = [r for r in rows if r[:2] != (512, 6)]
    assert checks.check_gue_moments(moments_csv(missing), [32, 128, 512], [2, 3, 4, 6])


def test_gue_moment_closed_forms():
    assert checks.gue_scaled_moment(4, 3) == 2 + Fraction(1, 9)
    assert checks.gue_scaled_moment(6, 2) == 5 + Fraction(10, 4)
    assert checks.gue_scaled_moment(3, 7) == 0


def test_quartic_accepts_flat_kurtosis_and_rejects_gaussian_or_warnings():
    ok = moments_csv([(32, 2, 0.67, 0.004), (32, 4, 0.83, 0.01)])
    assert checks.check_quartic(ok, json.dumps({"warnings": {}})) == []
    assert checks.check_quartic(ok, "{}") == []
    gaussian = moments_csv([(32, 2, 1.0, 0.004), (32, 4, 2.0, 0.01)])
    assert checks.check_quartic(gaussian, "{}")
    warned = json.dumps({"warnings": {"32": ["metropolis acceptance rate 0.05 outside"]}})
    assert checks.check_quartic(ok, warned)


# -- scan --------------------------------------------------------------------------


def test_damped_scan_accepts_4_over_n_and_rejects_a_quarter_at_every_n():
    grid = [32, 64, 128]
    good = scan_csv([(n, 4 / n) for n in grid], 0.005, "consistent_vanishing")
    assert checks.check_scan(good, "damped_common_factor", grid) == ([], "consistent_vanishing")
    flat = scan_csv([(n, 0.25) for n in grid], 0.005, "violating")
    problems, verdict = checks.check_scan(flat, "damped_common_factor", grid)
    assert len(problems) == 3 and verdict == "violating"


def test_scan_references_for_common_factor_and_gue():
    grid = [32, 64, 128]
    assert checks.check_scan(scan_csv([(n, 0.25) for n in grid], 0.01, "violating"),
                             "common_factor", grid) == ([], "violating")
    assert checks.check_scan(scan_csv([(n, 0.0) for n in grid], 0.01, "consistent_vanishing"),
                             "gue", grid) == ([], "consistent_vanishing")
    assert checks.check_scan(scan_csv([(n, 0.25) for n in grid], 0.01, "violating"),
                             "gue", grid)[0]


# -- spectra -----------------------------------------------------------------------


def test_spectra_accepts_semicircle_and_rejects_disorder_or_shift():
    eigs = {n: np.tile(semicircle_quantiles(n), (3, 1)) for n in (8, 64)}
    files = {n: spectra_csv(e) for n, e in eigs.items()}
    assert checks.check_spectra(files, 3, 64) == []
    unsorted = eigs[8].copy()
    unsorted[1, [2, 3]] = unsorted[1, [3, 2]]
    assert checks.check_spectra({**files, 8: spectra_csv(unsorted)}, 3, 64)
    shifted = {**files, 64: spectra_csv(eigs[64] + 0.2)}
    problems = checks.check_spectra(shifted, 3, 64)
    assert len(problems) == 1 and "KS" in problems[0]
    assert checks.check_spectra({8: files[8]}, 3, 64)


# -- exact trace moments -------------------------------------------------------------


def test_trace_moment_exact_fraction():
    assert checks.check_trace_moment("55/9", 3, 6, Fraction(1)) == []
    assert checks.check_trace_moment(str((2 + Fraction(1, 36)) * 4), 6, 4, Fraction(2)) == []
    assert checks.check_trace_moment(str(2 + Fraction(1, 36) + Fraction(1, 216)), 6, 4,
                                     Fraction(1))
    assert checks.check_trace_moment("2.0277", 6, 4, Fraction(1))


# -- tracer ------------------------------------------------------------------------


def test_tracer_self_time_excludes_children_and_leaves():
    tracer = Tracer()
    leaf = tracer._leaf("toy.leaf", "toy.leaf", lambda: time.sleep(0.02))
    child = tracer._span("toy.child", lambda: time.sleep(0.03))

    def parent_body():
        time.sleep(0.01)
        child()
        leaf()

    tracer._span("toy.parent", parent_body)()
    summary = tracer.summary()
    calls, total, self_s = summary["spans"]["toy.parent"]
    assert calls == 1 and total >= 0.06
    assert self_s == pytest.approx(0.01, abs=0.008)
    assert summary["spans"]["toy.child"][2] == pytest.approx(summary["spans"]["toy.child"][1])
    assert summary["counts"]["toy.leaf"] == 1 and summary["leaf_s"]["toy.leaf"] >= 0.02
