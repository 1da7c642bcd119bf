"""The benchmark's tracer wraps rmtlab names by string; a rename must fail here."""

import types
from pathlib import Path

from rmtlab import spectral
from rmtlab.ensembles import EnsembleSpec, MetropolisParams
from rmtlab.linalg import RngHandle

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    # compiled from source, so nothing is cached next to the file
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), vars(module))
    return module


def test_tracer_installs_and_counts_the_spectral_layer():
    tracer = load_tracer().Tracer()
    originals = (spectral.scale_spectrum, spectral.esd_moment, spectral.spectra)
    tracer.install()
    try:
        spectral.convergence_scan(EnsembleSpec("gue"), (8,), (2, 4), 3, RngHandle(5, 0))
    finally:
        tracer.uninstall()
    assert (spectral.scale_spectrum, spectral.esd_moment, spectral.spectra) == originals
    counts = tracer.summary()["counts"]
    # one scaling per sampled matrix, one moment call per order
    assert counts["spectral.scale_spectrum"] == 3
    assert counts["spectral.esd_moment"] == 2


def test_tracer_counts_quartic_sweeps_and_acceptance():
    burn_in, steps, count = 7, 3, 4
    spec = EnsembleSpec("quartic_invariant", quartic_g=0.1,
                        metropolis=MetropolisParams(steps=steps, burn_in=burn_in))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        spectral.convergence_scan(spec, (8,), (2, 4), count, RngHandle(5, 0))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    counts = summary["counts"]
    assert counts["ensembles.QuarticChain.sweeps"] == burn_in + count * steps
    # one acceptance reading per retained sample, each a rate in [0, 1]
    assert counts["ensembles.QuarticChain.acceptance_n"] == count
    assert 0.0 <= counts["ensembles.QuarticChain.acceptance_sum"] <= count
    assert summary["spans"]["ensembles.QuarticChain.run_sweeps"][0] == 1 + count
