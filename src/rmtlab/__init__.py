"""rmtlab: random-matrix ensembles, spectral statistics, and an exact
replica renormalisation-group flow for the semicircle resolvent.

The package root exports the exact side only: cumulant graphs, the
moment-cumulant calculus and trace moments, the coefficient ring, the
replica RG flow with its Wick oracle, and the semicircle law.  None of
these modules imports numpy, so ``import rmtlab`` loads none.  The Monte
Carlo names come from their own modules, ``rmtlab.linalg``,
``rmtlab.ensembles`` and ``rmtlab.spectral``, and the ``rmt`` CLI
(``rmtlab.cli``) imports numpy.
"""

# The order only sets the heap layout the CLI's numpy import lands on; this
# one gave the lowest peak RSS of `rmt rg-flow` and `rmt cumulant-scan`
# (BENCH_exact_import.json).
from .semicircle import SemicircleParams, density, moment, resolvent, solve_schwinger_dyson, stieltjes_invert
from .graphs import (BoundVerdict, CumulantGraph, aut_order, canonical_form,
                     classify_bound, enumerate_graphs, graph_from_monomial,
                     is_eulerian, scaling_exponent)
from .partitions import (CumulantFunction, SetPartition, catalan, cumulants_from_moments,
                         extrapolate_limit, gaussian_cumulant_function,
                         moments_from_cumulants, set_partitions, trace_moment_expectation)
from .ring import RingElement
from .replica_rg import (CumulantSpec, FlowState, check_bounds_flow, extract_resolvent,
                         initial_potential, integrate_flow, rg_derivative, wick_oracle)

__version__ = "0.1.0"
