"""Normalized solitary waves of the 3-coupled nonlinear Schroedinger system.

Computes constrained minimizers of the conserved energy under three
independent per-component mass constraints, verifies their structural
properties (negative energy, positive multipliers, constant phase,
subadditivity), and stress-tests orbital stability with split-step spectral
time integration.
"""

__version__ = "0.1.0"

from .spectral import (Field, Grid, RealField, h1_inner, integrate,
                       make_grid, mass, rearrange, spectral_derivative,
                       translate)
from .model import (CouplingModel, MassTriple, Multipliers, PhaseDiagnostics,
                    State, apply_symmetry, el_residual, energy,
                    energy_gradient, gn_ratio, gn_sharp_constant,
                    lagrange_multipliers, phase_diagnostics,
                    random_smooth_state, sech_profile, two_component_profile)
from .ground_state import (ConcentrationProfile, ConvergenceError,
                           DivergenceError, GroundState, SolverConfig,
                           StepCollapseError, SubadditivityResult,
                           concentration, minimize, refine_fixed_point,
                           subadditivity_check, two_component_min)
from .evolution import BlowUpError, EvolutionTrace, evolve, step
from .stability import (PERTURBATION_KINDS, StabilityReport, orbital_distance,
                        perturb, stability_experiment)
from .tolerances import DEFAULT as TOLERANCES, Tolerances

__all__ = [
    "Field", "Grid", "RealField", "h1_inner", "integrate",
    "make_grid", "mass", "rearrange", "spectral_derivative", "translate",
    "CouplingModel", "MassTriple", "Multipliers", "PhaseDiagnostics", "State",
    "apply_symmetry", "el_residual", "energy", "energy_gradient", "gn_ratio",
    "gn_sharp_constant", "lagrange_multipliers", "phase_diagnostics",
    "random_smooth_state", "sech_profile", "two_component_profile",
    "ConcentrationProfile", "ConvergenceError", "DivergenceError",
    "GroundState", "SolverConfig", "StepCollapseError", "SubadditivityResult",
    "concentration", "minimize", "refine_fixed_point", "subadditivity_check",
    "two_component_min",
    "BlowUpError", "EvolutionTrace", "evolve", "step",
    "PERTURBATION_KINDS", "StabilityReport", "orbital_distance", "perturb",
    "stability_experiment",
    "TOLERANCES", "Tolerances",
]
