"""The benchmark's tracer wraps rmtlab names by string; a rename must fail here."""

import types
from pathlib import Path

from rmtlab import spectral
from rmtlab.ensembles import EnsembleSpec
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
