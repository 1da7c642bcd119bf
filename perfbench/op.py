"""One benchmark operation in a fresh interpreter, as a user's ``rmt`` run is.

Usage: python3 op.py <spawn-monotonic> <trace 0|1> <op-dir> <kind> <op-json>

``kind`` is ``cli`` (an ``rmt`` command), ``wick`` or ``trace_moment``
(library calls).

``spawn-monotonic`` is the parent's ``time.monotonic()`` just before it
started this process; CLOCK_MONOTONIC is shared by all processes, so the
difference at the end of ``import rmtlab`` is the set-up time a user waits
for.  Prints one JSON line with the timings, the values the parent checks,
and with tracing on a summary of the spans (the raw spans go to
``<op-dir>/spans.json``).
"""

import sys
import time

SPAWNED = float(sys.argv[1])
KIND = sys.argv[4]

if KIND == "cli":
    import rmtlab.cli  # the `rmt` entry point imports exactly this
else:
    import rmtlab
SETUP_S = time.monotonic() - SPAWNED

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402


def run_cli(op):
    from rmtlab.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = main(op["argv"])
        elapsed = time.perf_counter() - t0
    return elapsed, {"exit_code": code, "stdout": out.getvalue()}


def _wick_specs(op):
    from rmtlab import CumulantGraph, CumulantSpec, RingElement
    gauss = CumulantSpec.gaussian_spec(Fraction(op["sigma_sq"]))
    pert = gauss.with_perturbation(CumulantGraph.from_text(op["pert_graph"]),
                                   RingElement.scalar(Fraction(op["pert_coeff"])))
    return [(gauss, op["gaussian_order"]), (pert, op["perturbed_order"])]


def run_wick(op):
    """Times only the oracle calls; the flow comparison runs after tracing stops."""
    from rmtlab import wick_oracle
    elapsed = 0.0
    states = []
    for spec, order in _wick_specs(op):
        t0 = time.perf_counter()
        states.append(wick_oracle(spec, order))
        elapsed += time.perf_counter() - t0
    return elapsed, states


def check_wick(op, states):
    from rmtlab import initial_potential, integrate_flow
    equal = []
    for (spec, order), wick in zip(_wick_specs(op), states):
        flow = integrate_flow(initial_potential(spec), order)
        equal.append(flow == wick and not wick.truncated)
    return {"wick_equals_flow": equal}


def run_trace_moment(op):
    from rmtlab import trace_moment_expectation
    from rmtlab.partitions import gaussian_cumulant_function
    c = gaussian_cumulant_function(Fraction(op["sigma_sq"]))
    elapsed = 0.0
    values = []
    for n, k in op["cases"]:
        t0 = time.perf_counter()
        values.append(str(trace_moment_expectation(n, k, c)))
        elapsed += time.perf_counter() - t0
    return elapsed, {"values": values}


def main():
    trace = sys.argv[2] == "1"
    op_dir = Path(sys.argv[3])
    op = json.loads(sys.argv[5])
    source = Path(rmtlab.__file__).resolve().parent
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        elapsed, payload = {"cli": run_cli, "wick": run_wick,
                            "trace_moment": run_trace_moment}[KIND](op)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if KIND == "wick":
        payload = check_wick(op, payload)
    result = {"elapsed_s": elapsed, "setup_s": SETUP_S, "source": str(source),
              "peak_rss_mib": peak_rss_mib, **payload}
    if tracer is not None:
        result["trace"] = tracer.summary()
        (op_dir / "spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
