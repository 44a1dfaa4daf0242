"""Numerical laboratory for collision-kernel reconstruction from boundary
data of the stationary nonlinear Boltzmann equation."""

__version__ = "0.1.0"

from .errors import (BoltzlabError, ConfigurationError, ConvergenceError,
                     DependencyError, DomainError, PreconditionError)
from .geometry import Domain, exit_times
from .collision import KernelSpec, QuadratureRule, kernel_eval, post_collision
from .solver import (BoundarySource, PhaseField, PhaseGrid, PicardOptions,
                     boundary_trace, picard_solve)
from .linearize import (second_order_source, w_finite_difference,
                        w_quadrature)
from .reconstruct import (Probe, closed_form_both, exponent_experiment,
                          mollified_S, monotonicity_certificate,
                          monotonicity_P, recover_omega_independent_B)
from .config import ExperimentConfig, load_config, save_config

__all__ = [
    "BoltzlabError", "ConfigurationError", "ConvergenceError",
    "DependencyError", "DomainError", "PreconditionError",
    "Domain", "exit_times",
    "KernelSpec", "QuadratureRule", "kernel_eval", "post_collision",
    "BoundarySource", "PhaseField", "PhaseGrid", "PicardOptions",
    "boundary_trace", "picard_solve",
    "second_order_source", "w_finite_difference", "w_quadrature",
    "Probe", "closed_form_both", "exponent_experiment", "mollified_S",
    "monotonicity_certificate", "monotonicity_P",
    "recover_omega_independent_B",
    "ExperimentConfig", "load_config", "save_config",
    "__version__",
]
