"""Numerical thermodynamic formalism for countable-Markov expanding interval
maps: Gurevich pressure by increasing compact subsystems, Bowen-equation
dimensions, conditional-variational Birkhoff/Lyapunov spectra, and orbit
Monte-Carlo cross-checks, including the closed forms and the spectrum
discontinuity of the built-in dissipative SV family.
"""

__version__ = "0.1.0"

from .errors import (BoundaryError, ConfigError, ConvergenceError, DegenerateError,
                     DomainError, InsufficientSampleError, MarkovDimError, MixingError,
                     UnboundedError, WorkLimitError)
from .markov import (BranchSpec, MarkovMapModel, TruncatedSubsystem, build_custom_map,
                     build_sv_map, is_primitive, load_map_config, make_branch, truncate,
                     validate_custom_branches)
from .potentials import (TablePotential, builtin_log_derivative, builtin_tail_potential,
                         combine, constant_potential, potential_from_config)
from .pressure import (PressureResult, closed_form_pressure_sv, gurevich_pressure,
                       orbit_sum_pressure, perron_pressure, sv_critical_exponent)
from .spectrum import (SpectrumCurve, SpectrumPoint, alpha_bounds, bowen_dimension,
                       curve_to_csv, full_birkhoff_spectrum_sv, inf_pressure_over_q,
                       lyapunov_closed_form, lyapunov_spectrum_curve, sv_alpha_bounds,
                       sv_alpha_of_t, sv_hyperbolic_dimension, variational_dimension)
from .empirics import (BoxCountResult, EscapeStats, OrbitRecord, box_count_level_set,
                       escape_statistics, orbit_rng, simulate_batch, simulate_orbit)

__all__ = [name for name in dir() if not name.startswith("_")]
