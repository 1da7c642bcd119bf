"""rmtlab: random-matrix ensembles, spectral statistics, and an exact
replica renormalisation-group flow for the semicircle resolvent."""

from .graphs import (BoundVerdict, CumulantGraph, aut_order, canonical_form,
                     classify_bound, enumerate_graphs, graph_from_monomial,
                     is_eulerian, scaling_exponent)
from .linalg import HermitianMatrix, RngHandle, eigenvalues_hermitian, gaussian_complex
from .ensembles import EnsembleSpec, FactorDistribution, MetropolisParams, entry_cumulant_oracle, sample
from .partitions import (CumulantFunction, SetPartition, catalan, cumulants_from_moments,
                         extrapolate_limit, gaussian_cumulant_function,
                         moments_from_cumulants, set_partitions, trace_moment_expectation)
from .ring import RingElement
from .replica_rg import (CumulantSpec, FlowState, check_bounds_flow, extract_resolvent,
                         initial_potential, integrate_flow, rg_derivative, wick_oracle)
from .semicircle import SemicircleParams, density, moment, resolvent, solve_schwinger_dyson, stieltjes_invert
from .spectral import (convergence_scan, esd_moment, histogram, ks_distance_to_semicircle,
                       scale_spectrum, spectra)

__version__ = "0.1.0"
