"""Transport-metric diagnostics for the continuity equation.

Atomic signed measures ride a characteristic flow; a saturating concave
transport cost measures how fast two discretizations of the same datum can
drift apart.  The subpackages split along that pipeline: measures, velocity
fields, flow integration, costs, optimal transport, diagnostics, and the
scenario runner behind the ``charflow`` command.
"""

from .costs import ConcaveCost, reference_cost, saturation_integral, tail_modify
from .diagnostics import (CostEstimate, CutoffFamily, MollifierSpec,
                          Schedule, build_cutoff, build_mu_nu,
                          costestimate_bound, D_functional, mollify,
                          parameter_schedule, weak_solution_residual)
from .errors import (CharflowError, ComparisonBoundError, ConfigError,
                     CostRangeError, CutoffError, EnvelopeViolation,
                     FieldError, FlowError, MeasureError, MollifierError,
                     QuadratureError, ScheduleError, TransportError)
from .fields import (FIELD_CATALOG, GrowthEnvelope, Modulus, VectorFieldSpec,
                     constant_field, evaluate, evaluate_batch,
                     growth_affine, growth_constant, linear_field,
                     modulus_linear, modulus_log, modulus_loglog,
                     modulus_loglog_squared, nonosgood_plane_field,
                     osgood_1d_field, osgood_plane_field,
                     plateau_bump, rotation_field, smooth_step,
                     smooth_step_derivative)
from .flow import (FlowOptions, Trajectory, flow_endpoints, flow_map,
                   flow_push, integrate_flow, osgood_envelope)
from .measures import (AtomicSignedMeasure, BalancedPair,
                       balance_with_reservoir, cancel_colocated_pair,
                       empty_measure, jordan_decompose, make_measure,
                       measure_from_arrays, total_variation)
from .scenarios import (ScenarioConfig, ScenarioResult, StudyResult,
                        builtin_config, builtin_names, convergence_study,
                        density_from_config, load_config, quantize_density,
                        run_scenario, selftest)
from .transport import (DIAMOND, DualPotential, TransportPlan,
                        brute_force_ot, c_transform_extend, comparison_bound,
                        firstterm_estimate, reference_W, solve_ot)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
