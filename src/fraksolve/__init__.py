"""Solver and verification toolkit for the singular fractional clamped
boundary value problem D^alpha u = f(t, u) on (0, 1), alpha in (3, 4],
with u(0) = u(1) = u'(0) = u'(1) = 0 and f singular at t = 0.
"""

from .exprparse import EvalDomainError, Expression, ParseError, evaluate, parse
from .fcontraction import (
    CATALOG_IDS,
    ControlFunction,
    control_catalog,
    verify_control_class,
    verify_wardowski,
)
from .kernel import (
    GreenParams,
    green_eval,
    green_weight_integral,
    green_weight_integral_max,
    origin_continuity_bound,
)
from .quadrature import QuadRule, integrate_green, jacobi_rule, legendre_rule
from .solver import (
    CertificateError,
    ConeViolationError,
    ContractionCertificate,
    NonConvergenceError,
    PositivityReport,
    ProblemSpec,
    ResidualProfile,
    SolutionGrid,
    SolveResult,
    SolverError,
    apply_green_operator,
    catalog_g,
    certify_contraction,
    chebyshev_lobatto_nodes,
    check_positivity,
    grunwald_letnikov_residual,
    solve,
)
from .specfun import beta, gamma

__version__ = "0.1.0"
