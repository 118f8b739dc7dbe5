"""Numerical engine for attracting slow manifolds of fast-slow systems.

Computes invariant-graph parameterizations and reduction maps as fixed points
of variation-of-constants contraction maps, certifies the contraction
constants behind them, and stress-tests the quantitative conclusions
(contraction factors, exponential attraction rates, invariance residuals,
semiconjugacy) on exactly solvable and discretized function-space systems.
"""

from .certify import (ConstantsCertificate, assemble_certificate, delta_budget,
                      estimate_lipschitz, estimate_process_bound,
                      frozen_coefficient_window, rho_budget, slow_drift_budget,
                      spectral_gap_check, straightened_constants)
from .core import FastSlowSystem, GridDomain, GridFunction, localize
from .errors import (CapabilityError, ContractionError, ConvergenceError,
                     InfeasibleBudgetError, NoDecayError, NumericError,
                     PreconditionError, SchemaError, SlowfastError,
                     UnderdeterminedError)
from .harness import ScenarioSpec, run_scenario
from .integrate import (ContractionReport, IntegratorConfig, OrbitPath,
                        bounded_solution_batch, flow, process_apply, variational_flow)
from .manifold import (d2h_solve, dh_solve, eqv_residual, fd_derivative_error,
                       invariance_residual, lp_map, lp_map_batch, lp_solve)
from .reduction import (ReductionResult, attraction_rate_fit, decompose_orbit, dp_point,
                        fit_exponential, q_along_orbit, semiconjugacy_residual,
                        straighten)
from .systems import EXAMPLES, ExampleSystem, get_example

__version__ = "0.1.0"
