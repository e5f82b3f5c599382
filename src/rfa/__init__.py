"""Calculus and dynamics on fuzzy numbers linearly correlated with an
asymmetric basis number.

The package splits into three layers plus a command-line front end:

- ``rfa.core``: the basis number, the element type (a coefficient pair
  backed by a Python ``complex``), norms, polar form, alpha-cuts and the
  sup metric.
- ``rfa.analytic``: elementary mappings (exp, log, powers, polynomials),
  finite-difference Cauchy-Riemann derivatives and contour integration.
- ``rfa.dynamics``: fuzzy curves, closed-form linear flows under the field
  product and the 1-level cross product, realification to ordinary real
  systems, fixed-step Runge-Kutta integration, the oscillator and
  predator-prey applications with their conserved quantities, and phase
  portraits.
- ``rfa.cli``: fuzzy literals, an expression evaluator, CSV/JSON/SVG
  exports, figure presets and the ``rfa`` command.
"""

from .analytic import (
    CrReport,
    Path,
    check_chain_rule,
    contour_integral,
    derivative_cr,
    exp_rfa,
    log_rfa,
    poly_eval,
    pow_real,
    solve_linear_mapping_ode,
)
from .core import (
    AlphaBand,
    BasisNumber,
    LcNumber,
    LcSpace,
    PolarForm,
    alpha_cut,
    conjugate,
    d_infty,
    from_polar,
    is_asymmetric,
    norm_phi,
    nth_root,
    pow_int,
    to_polar,
)
from .dynamics import (
    FuzzyCurve,
    IntegrationAbort,
    LinearParams,
    LvParams,
    OscillatorParams,
    Trajectory,
    cross_product_psi,
    curve_derivative,
    curve_integral,
    linearized_lv,
    lv_conserved,
    lv_equilibria,
    oscillator_invariant,
    phase_portrait,
    realify_linear,
    realify_linear_psi,
    realify_lotka_volterra,
    rk4_integrate,
    simulate_system,
    solve_linear_analytic,
    solve_linear_psi_analytic,
)

__version__ = "0.1.0"
