import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rmtlab import cli, ensembles
from rmtlab.cli import OutputLock, main
from rmtlab.config import ConfigError
from rmtlab.linalg import MAX_MATRIX_SIZE
from rmtlab.replica_rg import FlowInvariantError

GUE_DOC = {"schema_version": 1, "ensemble": {"kind": "gue", "sigma": 1.0},
           "n_grid": [8], "samples_per_n": 2, "seed": 1}


def write_config(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "rmtlab.cli", *args],
                          capture_output=True, text=True, **kw)


def test_sample_row_count_and_header(tmp_path):
    cfg = write_config(tmp_path, GUE_DOC)
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "spectra_N8.csv").read_text().splitlines()
    assert lines[0] == "sample_index,eig_index,lambda_scaled"
    assert len(lines) == 1 + 16
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["seed"] == 1
    assert meta["config"]["ensemble"]["kind"] == "gue"


def test_sample_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, GUE_DOC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["sample", "--config", str(cfg), "--out", str(out1)])
    main(["sample", "--config", str(cfg), "--out", str(out2)])
    for name in ("spectra_N8.csv", "metadata.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, GUE_DOC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["sample", "--config", str(cfg), "--out", str(out1)])
    main(["sample", "--config", str(cfg), "--seed", "2", "--out", str(out2)])
    assert (out1 / "spectra_N8.csv").read_bytes() != (out2 / "spectra_N8.csv").read_bytes()


def test_invalid_kind_exits_2_naming_field(tmp_path):
    doc = dict(GUE_DOC, ensemble={"kind": "lognormal"})
    cfg = write_config(tmp_path, doc)
    result = run_cli(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.returncode == 2
    assert "kind" in result.stderr


def test_unknown_field_rejected(tmp_path):
    doc = dict(GUE_DOC, turbo=True)
    cfg = write_config(tmp_path, doc)
    result = run_cli(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.returncode == 2
    assert "turbo" in result.stderr


@pytest.mark.parametrize("command", ["sample", "moments", "cumulant-scan"])
@pytest.mark.parametrize("change, named", [
    ({"histogram_bins": 50}, "histogram_bins"),
    ({"histogram_range": [-3.0, 3.0]}, "histogram_range"),
    ({"ensemble": {"kind": "gue", "entry_dist": "uniform"}}, 'kind "wigner"'),
], ids=["histogram_bins", "histogram_range", "gue_uniform"])
def test_unread_or_overridden_setting_exits_2_before_making_the_output_directory(
        tmp_path, capsys, command, change, named):
    # no command reads the histogram fields (rmt plot takes --bins and
    # --range), and gue entries are Gaussian whatever entry_dist would say
    doc = dict(GUE_DOC, n_grid=[4, 6, 8], samples_per_n=3,
               graphs_to_scan=["v=2;e=0->1,1->0"], **change)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "moments", "cumulant-scan"])
@pytest.mark.parametrize("change, named", [
    # factor_dist weights default to (1/2, 1/2), which three squares do not match
    ({"ensemble": {"kind": "common_factor", "factor_dist": {"squares": ["1/4", "1/2", "9/4"]}}},
     "factor_dist"),
    ({"ensemble": {"kind": "common_factor", "factor_dist": {"squares": [0.5, 1.5],
                                                            "weights": ["1/2", "1/2"]}}},
     "ensemble.factor_dist.squares[0]"),
    ({"ensemble": {"kind": "quartic_invariant", "metropolis": 5}}, "ensemble.metropolis"),
    ({"ensemble": {"kind": "gue", "sigma": True}}, "ensemble.sigma"),
    ({"n_grid": 5}, "n_grid"),
    ({"n_grid": [8.9, "16"]}, "n_grid[0]"),
    ({"samples_per_n": 3.5}, "samples_per_n"),
    ({"samples_per_n": True}, "samples_per_n"),
    ({"seed": None}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"moment_orders": None}, "moment_orders"),
    ({"graphs_to_scan": "v=2;e=0->1,1->0"}, "graphs_to_scan"),
], ids=["factor_dist_without_weights", "factor_dist_float", "metropolis_number",
        "sigma_true", "n_grid_number", "n_grid_float_and_string", "samples_per_n_float",
        "samples_per_n_true", "seed_null", "seed_string", "moment_orders_null",
        "graphs_to_scan_string"])
def test_value_of_the_wrong_json_type_exits_2_before_making_the_output_directory(
        tmp_path, capsys, command, change, named):
    doc = {**GUE_DOC, "n_grid": [4, 6, 8], "samples_per_n": 3,
           "graphs_to_scan": ["v=2;e=0->1,1->0"], **change}
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_empty_n_grid_rejected(tmp_path):
    for n_grid in ([], [8, 8]):  # empty, and a repeated size
        cfg = write_config(tmp_path, dict(GUE_DOC, n_grid=n_grid))
        result = run_cli(["moments", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.returncode == 2
        assert "n_grid" in result.stderr
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [2 ** 53, 2 ** 53 + 1, 2 ** 64])
@pytest.mark.parametrize("command", ["sample", "moments", "cumulant-scan"])
def test_seed_at_or_above_2_pow_53_exits_2_before_making_the_output_directory(
        tmp_path, capsys, command, seed):
    # such seeds would share Philox keys: 2**53 and 2**53 + 1 on half of the
    # substreams, 0 and 2**64 on all of them
    doc = dict(GUE_DOC, n_grid=[4, 6, 8], samples_per_n=3, graphs_to_scan=["v=2;e=0->1,1->0"])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 2
    assert "seed: must be below 2**53" in capsys.readouterr().err
    assert not out.exists()
    # the largest seed accepted still runs
    assert main([command, "--config", str(cfg), "--seed", str(2 ** 53 - 1),
                 "--out", str(out)]) == 0


def test_moments_csv(tmp_path):
    doc = dict(GUE_DOC, n_grid=[16], samples_per_n=4, moment_orders=[2, 3, 4])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["moments", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "N,k,mean,stderr,gap"
    assert len(lines) == 4
    # odd k compares against a zero semicircle reference: gap equals |mean|
    row3 = dict(zip(("N", "k", "mean", "stderr", "gap"), lines[2].split(",")))
    assert row3["k"] == "3"
    assert abs(float(row3["mean"])) == float(row3["gap"])


def test_moments_make_no_eigensolve(tmp_path, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("rmt moments ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    doc = dict(GUE_DOC, n_grid=[8, 600], samples_per_n=2, moment_orders=[2, 3, 4, 6])
    out = tmp_path / "out"
    assert main(["moments", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 0
    assert len((out / "moments.csv").read_text().splitlines()) == 1 + 2 * 4


def test_cumulant_scan_csv(tmp_path):
    doc = dict(GUE_DOC, n_grid=[8, 16, 32], samples_per_n=400,
               graphs_to_scan=["v=2;e=0->1,1->0"])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["cumulant-scan", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "N,graph,scaled_estimate,stderr,verdict"
    assert len(lines) == 4
    assert all("v=2;e=0->1,1->0" in line for line in lines[1:])


def test_cumulant_scan_csv_quotes_graph_text(tmp_path):
    doc = dict(GUE_DOC, n_grid=[8, 12, 16], samples_per_n=20,
               graphs_to_scan=["v=4;e=0->1,1->0,2->3,3->2"])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["cumulant-scan", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "graph", "scaled_estimate", "stderr", "verdict"]
    assert len(rows) == 4
    assert all(len(row) == 5 for row in rows)
    assert [row[0] for row in rows[1:]] == ["8", "12", "16"]
    assert all(row[1] == "v=4;e=0->1,1->0,2->3,3->2" for row in rows[1:])


def test_moments_metadata_lists_sampler_warnings(tmp_path):
    # `rmt sample` lists the same warnings as `rmt moments`
    for command in ("moments", "sample"):
        doc = dict(GUE_DOC, n_grid=[4, 8], samples_per_n=2, moment_orders=[2],
                   ensemble={"kind": "quartic_invariant", "quartic_g": 0.1,
                             "metropolis": {"steps": 1, "step_size": 1e6, "burn_in": 0}})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        warnings = json.loads((out / "metadata.json").read_text())["warnings"]
        assert sorted(warnings) == ["4", "8"]
        assert all(len(w) == 2 and "acceptance" in w[0] for w in warnings.values())


def test_moments_metadata_warnings_empty_without_sampler_trouble(tmp_path):
    for command in ("moments", "sample"):
        cfg = write_config(tmp_path, dict(GUE_DOC, moment_orders=[2]))
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "metadata.json").read_text())["warnings"] == {}


@pytest.mark.parametrize("order", [13, -1])
def test_moment_order_out_of_range_exits_2_before_writing(tmp_path, order):
    cfg = write_config(tmp_path, dict(GUE_DOC, moment_orders=[2, order]))
    out = tmp_path / "out"
    result = run_cli(["moments", "--config", str(cfg), "--out", str(out)])
    assert result.returncode == 2
    assert "moment_orders" in result.stderr
    assert not (out / "moments.csv").exists()


def test_failed_write_keeps_existing_output(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, GUE_DOC)
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_replace(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        main(["sample", "--config", str(cfg), "--seed", "2", "--out", str(out)])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("fields, message", [
    ({"samples_per_n": 2}, "samples_per_n: cumulant-scan needs at least 3"),
    ({"n_grid": [8, 16]}, "n_grid: cumulant-scan needs at least 3 sizes"),
    ({"n_grid": [3, 8, 16]}, "n_grid: size 3 is too small for the 4-vertex graph"),
    # the first graph would be scanned in full before the second is refused
    ({"n_grid": [3, 8, 16], "graphs_to_scan": ["v=2;e=0->1,1->0", "v=4;e=0->1,1->0,2->3,3->2"]},
     "n_grid: size 3 is too small for the 4-vertex graph")],
    ids=["two_samples", "short_grid", "small_n", "small_n_for_the_second_graph"])
def test_cumulant_scan_refused_input_exits_2_before_making_the_output_directory(
        tmp_path, capsys, monkeypatch, fields, message):
    def no_scan(*args):
        raise AssertionError("a graph was scanned")

    monkeypatch.setattr(cli, "scan_graph", no_scan)
    doc = {**GUE_DOC, "n_grid": [4, 8, 16], "samples_per_n": 20,
           "graphs_to_scan": ["v=4;e=0->1,1->0,2->3,3->2"], **fields}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["cumulant-scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_scan_rejects_big_graph(tmp_path, capsys):
    # the scan takes up to partitions.MAX_CUMULANT_ENTRIES = 6 edges
    doc = dict(GUE_DOC, n_grid=[4, 6, 8], samples_per_n=3)
    five = "v=2;e=0->1,0->1,0->1,1->0,1->0"
    cfg = write_config(tmp_path, dict(doc, graphs_to_scan=[five]))
    out = tmp_path / "five"
    assert main(["cumulant-scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "scan.csv").read_text().splitlines()[1].startswith(f'4,"{five}",')
    seven = "v=2;e=0->1,1->0,0->1,1->0,0->1,1->0,0->1"
    cfg = write_config(tmp_path, dict(doc, graphs_to_scan=[seven]))
    out = tmp_path / "seven"
    assert main(["cumulant-scan", "--config", str(cfg), "--out", str(out)]) == 3
    assert "has 7 edges, past the cumulant inversion's limit of 6" in capsys.readouterr().err
    assert not out.exists()


def test_rg_flow_stdout_and_exit():
    result = run_cli(["rg-flow", "--order", "7", "--sigma", "1"])
    assert result.returncode == 0
    assert result.stdout.strip() == "1, 0, 1, 0, 2, 0, 5"


def test_rg_flow_capacity_exit():
    result = run_cli(["rg-flow", "--order", "20", "--sigma", "1"])
    assert result.returncode == 3


def test_rg_flow_writes_state(tmp_path):
    out = tmp_path / "flow"
    result = run_cli(["rg-flow", "--order", "3", "--sigma", "1", "--out", str(out)])
    assert result.returncode == 0
    doc = json.loads((out / "flow_state.json").read_text())
    assert doc["order"] == 3
    assert (out / "resolvent.txt").read_text().splitlines() == ["1", "0", "1"]


def test_rg_flow_has_no_edge_cap_option(tmp_path):
    out = tmp_path / "out"
    result = run_cli(["rg-flow", "--order", "3", "--max-edges", "6", "--out", str(out)])
    assert result.returncode == 2
    assert "unrecognized arguments: --max-edges" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag, extra", [
    ("--sigma", []),
    ("--pert-coeff", ["--pert-graph", "v=2;e=0->1,0->1"]),
])
def test_rg_flow_zero_denominator_is_a_usage_error(tmp_path, flag, extra):
    out = tmp_path / "out"
    result = run_cli(["rg-flow", "--order", "3", *extra, flag, "1/0", "--out", str(out)])
    assert result.returncode == 2
    assert f"argument {flag}: invalid fraction '1/0'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_rg_flow_four_edge_perturbation_drops_nothing(tmp_path):
    # the tadpole's cone builds graphs of up to 7 edges for this spec
    out = tmp_path / "flow"
    result = run_cli(["rg-flow", "--order", "7", "--pert-graph", "v=3;e=0->1,0->2,1->0,2->0",
                      "--pert-coeff", "1/4", "--out", str(out)])
    assert result.returncode == 4
    assert result.stdout.strip() == "1, 0, 1, 0, 5/2, 0, 8"
    assert (out / "resolvent.txt").read_text().split() == ["1", "0", "1", "0", "5/2", "0", "8"]
    lines = (out / "bounds.txt").read_text().splitlines()
    assert len(lines) == 194
    assert sum(line.endswith(" ok=False") for line in lines) == 42
    doc = json.loads((out / "flow_state.json").read_text())
    assert doc["truncated"] is False and doc["truncation_events"] == []


def test_rg_flow_rational_sigma():
    result = run_cli(["rg-flow", "--order", "3", "--sigma", "1/2"])
    assert result.returncode == 0
    assert result.stdout.strip() == "1, 0, 1/4"


def test_rg_flow_with_perturbation_runs():
    result = run_cli(["rg-flow", "--order", "2", "--sigma", "1",
                      "--pert-graph", "v=4;e=0->1,1->0,2->3,3->2",
                      "--pert-coeff", "1", "--pert-nhalf", "-1"])
    assert result.returncode == 0
    assert result.stdout.strip().startswith("1, 0")


def test_rg_flow_rejects_non_positive_sigma(tmp_path, capsys):
    out = tmp_path / "flow"
    for sigma in ("0", "-2"):
        code = main(["rg-flow", "--order", "3", "--sigma", sigma, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--sigma" in captured.err
        assert not out.exists()


def test_rg_flow_rejects_unused_perturbation_flags():
    for flags in (["--pert-coeff", "5"], ["--pert-nhalf", "2"], ["--pert-nhalf", "0"]):
        result = run_cli(["rg-flow", "--order", "3", *flags])
        assert result.returncode == 2
        assert "--pert-graph" in result.stderr
        assert result.stdout == ""


def test_rg_flow_bounds_cover_the_tadpole_cone(tmp_path):
    out = tmp_path / "flow"
    result = run_cli(["rg-flow", "--order", "7", "--out", str(out),
                      "--pert-graph", "v=2;e=0->1,0->1", "--pert-coeff", "1/2"])
    assert result.returncode == 0
    lines = (out / "bounds.txt").read_text().splitlines()
    assert len(lines) == 223
    line_form = re.compile(r"\S+ t\^\d (gaussian|perturbation) grade=\S+ ok=True")
    assert all(line_form.fullmatch(line) for line in lines)
    # every line stays inside the tadpole's cone: e edges at t^k with e <= 8 - k
    assert all(line.split()[0].count("->") <= 8 - int(line.split()[1][2:])
               for line in lines if line.split()[1] != "t^0")
    doc = json.loads((out / "flow_state.json").read_text())
    assert doc["cone_edges"] == 1
    assert "max_edges" not in doc
    assert doc["graphs"]["v=1;e=0->0"] and len(doc["graphs"]["v=1;e=0->0"]) == 8


def test_rg_flow_bound_violation_exits_4():
    # an Eulerian perturbation with a non-decaying coefficient breaks the
    # strict negativity requirement already at t^0
    result = run_cli(["rg-flow", "--order", "1", "--sigma", "1",
                      "--pert-graph", "v=4;e=0->1,1->0,2->3,3->2",
                      "--pert-coeff", "1", "--pert-nhalf", "0"])
    assert result.returncode == 4
    assert "violation" in result.stderr


def test_rg_flow_divergent_input_names_its_order_and_writes_the_bounds(tmp_path):
    # the one-edge perturbation at N^(1/2) breaks its bound, and the tadpole it
    # feeds keeps a positive N grade from t^3 on
    out = tmp_path / "flow"
    out.mkdir()
    (out / "resolvent.txt").write_text("left by an earlier run\n")
    result = run_cli(["rg-flow", "--order", "5", "--pert-graph", "v=2;e=0->1",
                      "--pert-nhalf", "1", "--out", str(out)])
    assert result.returncode == 4
    assert result.stdout == ""
    assert "scaling-bound violation" in result.stderr
    assert "positive N grade at t^3" in result.stderr
    assert "numerical error" not in result.stderr
    assert json.loads((out / "flow_state.json").read_text())["order"] == 5
    lines = (out / "bounds.txt").read_text().splitlines()
    assert "v=1;e=0->0 t^3 perturbation grade=3 ok=False" in lines
    assert not (out / "resolvent.txt").exists()


def test_rg_flow_positive_grade_within_the_bounds_stays_an_invariant_error(
        tmp_path, capsys, monkeypatch):
    def diverging(state, order):
        raise FlowInvariantError("tadpole t^1: positive N grade has no large-N limit", 1)

    monkeypatch.setattr(cli, "extract_resolvent", diverging)
    out = tmp_path / "flow"
    assert main(["rg-flow", "--order", "3", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical error: tadpole t^1" in captured.err
    assert not out.exists()


def test_plot_deterministic_and_wellformed(tmp_path):
    doc = dict(GUE_DOC, n_grid=[32], samples_per_n=4)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    main(["sample", "--config", str(cfg), "--out", str(out)])
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (svg1, svg2):
        code = main(["plot", "--spectra", str(out / "spectra_N32.csv"),
                     "--sigma", "1", "--bins", "20", "--out", str(target)])
        assert code == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    text = svg1.read_text()
    assert text.startswith("<svg ")
    assert 'width="800" height="500"' in text
    assert "polyline" in text and "rect" in text


def test_plot_missing_file_exits_2(tmp_path):
    result = run_cli(["plot", "--spectra", str(tmp_path / "nope.csv"),
                      "--out", str(tmp_path / "x.svg")])
    assert result.returncode == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_plot_rejects_non_finite_spectra(tmp_path, capsys, bad):
    spectra = tmp_path / "spectra_N2.csv"
    spectra.write_text("sample_index,eig_index,lambda_scaled\n"
                       f"0,0,-0.5\n0,1,0.5\n1,0,0.25\n1,1,{bad}\n")
    target = tmp_path / "x.svg"
    code = main(["plot", "--spectra", str(spectra), "--out", str(target)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not target.exists()



@pytest.mark.parametrize("field", ["quartic_g", "damping_alpha", "diagonal_variance",
                                   "sigma", "step_size"])
def test_moments_rejects_non_finite_ensemble_parameters(tmp_path, capsys, field):
    ensemble = {"kind": "quartic_invariant", "quartic_g": 0.1,
                "metropolis": {"steps": 1, "burn_in": 2}}
    if field == "step_size":
        ensemble["metropolis"]["step_size"] = float("nan")
    else:
        ensemble[field] = float("inf") if field == "sigma" else float("nan")
    cfg = write_config(tmp_path, dict(GUE_DOC, ensemble=ensemble))
    out = tmp_path / "out"
    assert main(["moments", "--config", str(cfg), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "moments"])
def test_quartic_oversized_matrix_exits_2_before_the_chain_starts(tmp_path, monkeypatch, command):
    def no_start(*args, **kwargs):
        raise AssertionError("the chain drew its Gaussian start")

    monkeypatch.setattr(ensembles, "sample", no_start)
    ensemble = {"kind": "quartic_invariant", "quartic_g": 0.1}
    cfg = write_config(tmp_path, dict(GUE_DOC, ensemble=ensemble, n_grid=[MAX_MATRIX_SIZE + 1]))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("big", [MAX_MATRIX_SIZE + 1, 4096])
@pytest.mark.parametrize("command", ["sample", "moments", "cumulant-scan"])
def test_oversized_n_grid_exits_2_before_making_the_output_directory(tmp_path, capsys, command,
                                                                     big):
    doc = dict(GUE_DOC, n_grid=[256, big], graphs_to_scan=["v=2;e=0->1,1->0"])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"n_grid: sizes must be in [1, {MAX_MATRIX_SIZE}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_plot_rejects_non_finite_sigma(tmp_path, capsys, sigma):
    spectra = tmp_path / "spectra_N2.csv"
    spectra.write_text("sample_index,eig_index,lambda_scaled\n0,0,-0.5\n0,1,0.5\n")
    target = tmp_path / "x.svg"
    code = main(["plot", "--spectra", str(spectra), "--sigma", sigma, "--out", str(target)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not target.exists()

def test_verify_combinatorics_suite():
    result = run_cli(["verify", "--suite", "combinatorics"])
    assert result.returncode == 0
    assert result.stdout.startswith("PASS")
    # the check's wall time goes to stderr, never into the verdict lines
    name, seconds = result.stderr.strip().split(": ")
    assert name == "combinatorics" and float(seconds.removesuffix("s")) >= 0


def test_verify_unknown_suite():
    result = run_cli(["verify", "--suite", "bogus"])
    assert result.returncode == 2


def test_output_lock(tmp_path):
    cfg = write_config(tmp_path, GUE_DOC)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").touch()
    result = run_cli(["sample", "--config", str(cfg), "--out", str(out)])
    assert result.returncode == 2
    assert "lock" in result.stderr


def test_output_lock_of_exited_process_is_taken_over(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    cfg = write_config(tmp_path, GUE_DOC)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(str(child.pid))
    result = run_cli(["sample", "--config", str(cfg), "--out", str(out)])
    assert result.returncode == 0, result.stderr
    assert (out / "spectra_N8.csv").exists()
    assert not (out / ".lock").exists()


def test_output_lock_of_live_process_refuses(tmp_path):
    cfg = write_config(tmp_path, GUE_DOC)
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(str(os.getpid()))
    result = run_cli(["sample", "--config", str(cfg), "--out", str(out)])
    assert result.returncode == 2
    assert "lock" in result.stderr
    assert (out / ".lock").read_text() == str(os.getpid())


def exited_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_output_lock_stale_lock_is_taken_over_once(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".lock"
    dead = str(exited_pid())
    lock.write_text(dead)
    first = OutputLock(out).__enter__()
    assert lock.read_text() == str(os.getpid())
    # a second run that read the dead pid before the takeover sees it still
    with open(lock, "r+") as fh:
        fh.write(dead)
        fh.truncate()
    with pytest.raises(ConfigError, match="locked"):
        OutputLock(out).__enter__()
    assert lock.read_text() == dead
    first.__exit__(None, None, None)
    assert not lock.exists()


def test_output_lock_exit_leaves_another_runs_lock(tmp_path):
    out = tmp_path / "out"
    first = OutputLock(out).__enter__()
    (out / ".lock").unlink()
    second = OutputLock(out).__enter__()
    first.__exit__(None, None, None)
    assert (out / ".lock").read_text() == str(os.getpid())
    second.__exit__(None, None, None)
    assert not (out / ".lock").exists()


RACE_CHILD = """
import sys, time
from pathlib import Path
from rmtlab.cli import OutputLock
from rmtlab.config import ConfigError
out, start, log = Path(sys.argv[1]), float(sys.argv[2]), Path(sys.argv[3])
time.sleep(max(0.0, start - time.time()))
try:
    with OutputLock(out):
        held_from = time.time()
        time.sleep(0.3)
        log.write_text(f"{held_from} {time.time()}")
except ConfigError:
    pass
"""


def test_output_lock_runs_racing_over_stale_lock_never_overlap(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(str(exited_pid()))
    start = time.time() + 1.0
    logs = [tmp_path / f"held{i}" for i in range(4)]
    children = [subprocess.Popen([sys.executable, "-c", RACE_CHILD, str(out), str(start),
                                  str(log)]) for log in logs]
    assert all(child.wait(timeout=60) == 0 for child in children)
    held = sorted(tuple(map(float, log.read_text().split())) for log in logs if log.exists())
    assert held
    assert all(a[1] <= b[0] for a, b in zip(held, held[1:]))
    assert not (out / ".lock").exists()
