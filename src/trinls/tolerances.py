"""Named numerical tolerances, collected in one record.

Every acceptance threshold and grid-error allowance used by the library and
its test suite lives here, so there is a single source of truth.  Values are
in the dimensionless units of the model (x, t, u all dimensionless).

Grid-error allowances of the form ``C * h`` (h = grid spacing) appear where a
continuum inequality is only reproduced up to discretization error, e.g. the
kinetic-energy decrease under symmetric decreasing rearrangement.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # transforms / quadrature
    parseval_rel: float = 1e-12          # FFT round-trip, relative
    quadrature_sech: float = 1e-12       # sech-family integrals on adequate boxes
    derivative_commute_rel: float = 1e-12  # derivative vs whole-grid-step translation

    # variational structure
    gradient_fd_rel: float = 1e-6        # finite-difference vs analytic gradient
    closed_form_residual: float = 1e-10  # Euler-Lagrange residual of explicit solutions
    gn_margin_rel: float = 1e-6          # slack over the sharp interpolation constant

    # solver contracts
    projection_rel: float = 1e-12        # achieved mass vs requested, relative
    energy_monotone_slack: float = 1e-11  # energy rise allowed per flow iteration,
    energy_monotone_rel: float = 64 * 2.0 ** -52  # or this times |H| if larger
    lambda_rel: float = 1e-5             # minimum-energy value vs closed form
    omega_abs: float = 1e-6              # multiplier vs closed form
    profile_max_err: float = 1e-5        # aligned profile vs closed form, max norm
    residual_converged: float = 1e-8     # acceptance bound on converged residual
    phase_constancy: float = 1e-6        # max phase deviation over the support
    translation_class_ynorm: float = 1e-5

    # symmetry / invariance
    symmetry_energy_rel: float = 1e-12   # energy under phases / grid-step shifts
    equimeasure_rel: float = 1e-13       # power sums under rearrangement, relative

    # rearrangement inequalities (grid-error allowances, scaled by h)
    polya_szego_grid_const: float = 5.0  # ||(f*)'||^2 <= ||f'||^2 + C*h
    hardy_littlewood_grid_const: float = 5.0
    rearrange_energy_slack: float = 1e-6  # H(rearranged) <= H(original) + slack
    three_quarter_min_tol: float = 1e-3  # two-bump kinetic decrease inequality

    # time integration
    mass_drift: float = 1e-11            # relative, per trajectory
    energy_drift: float = 1e-8           # relative, per trajectory
    splitting_order_lo: float = 1.8
    splitting_order_hi: float = 2.2
    reversal_ynorm: float = 1e-7         # forward-then-backward return error
    standing_wave_ynorm: float = 2.5e-6  # vs exact phase rotation, T=1, dt=1e-3

    # stability experiments
    orbit_zero: float = 1e-12            # distance of a state to its own orbit
    orbit_symmetry: float = 1e-10        # distance after grid-step shift + phases
    orbit_pseudometric: float = 1e-9     # invariance under joint transformations
    stability_distance_factor: float = 10.0  # sup distance <= factor * delta
    stability_control: float = 1e-6      # delta = 0 control bound

    # subadditivity / concentration
    subadd_margin_abs: float = 2e-4      # closed-form split margin accuracy
    gamma_proxy_min: float = 0.999       # compactness signature at eta = 10


DEFAULT = Tolerances()
