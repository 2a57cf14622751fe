"""Normalized solitary waves of the 3-coupled nonlinear Schroedinger system.

Computes constrained minimizers of the conserved energy under three
independent per-component mass constraints, measures their subadditivity
margins, and stress-tests orbital stability with split-step spectral time
integration.  The checks of the paper's proof steps (rearrangement,
interpolation ratio, symmetry group, constant phase, concentration) live
with the tests, in tests/oracles.py.
"""

__version__ = "0.1.0"

from .spectral import Field, Grid, make_grid
from .model import (CouplingModel, MassTriple, Multipliers, State, el_residual,
                    energy, lagrange_multipliers, random_smooth_state,
                    sech_profile)
from .ground_state import (ConvergenceError, DivergenceError, GroundState,
                           SolverConfig, StepCollapseError, SubadditivityResult,
                           minimize, refine_fixed_point, subadditivity_check)
from .evolution import BlowUpError, EvolutionTrace, evolve, step
from .stability import (PERTURBATION_KINDS, StabilityReport, orbital_distance,
                        perturb, stability_experiment)
from .tolerances import DEFAULT as TOLERANCES, Tolerances

__all__ = [
    "Field", "Grid", "make_grid",
    "CouplingModel", "MassTriple", "Multipliers", "State", "el_residual",
    "energy", "lagrange_multipliers", "random_smooth_state", "sech_profile",
    "ConvergenceError", "DivergenceError", "GroundState", "SolverConfig",
    "StepCollapseError", "SubadditivityResult", "minimize",
    "refine_fixed_point", "subadditivity_check",
    "BlowUpError", "EvolutionTrace", "evolve", "step",
    "PERTURBATION_KINDS", "StabilityReport", "orbital_distance", "perturb",
    "stability_experiment",
    "TOLERANCES", "Tolerances",
]
