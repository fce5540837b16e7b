"""Translating solitons of graphical mean curvature flow with a
prescribed gradient image, in Minkowski or Euclidean ambient space.

The package discretizes the scalar evolution u_t = G(Du, D2u) with the
oblique boundary condition h(Du) = 0 on uniformly convex domains,
advances it by adaptive implicit Euler / Newton stepping, extracts the
translator (u_inf, C_inf), and audits the flow against its a priori
estimates (rate bounds, strict obliqueness, Hessian bounds, convexity
cone preservation, the mean curvature evolution identity).
"""

from .domains import ConvexDomain, defining_jet, inward_normal
from .errors import (
    BoundaryMembershipError,
    ConfigError,
    ConvexityError,
    GaussFlowError,
    NonConvergenceError,
    OracleFailureError,
    SpacelikeViolationError,
    StepFailureError,
)
from .flow import (
    FlowState,
    SolitonResult,
    StepControls,
    initialize,
    run_to_translator,
    step_explicit,
    step_implicit,
    translator_residual,
)
from .geometry import (
    EUCLIDEAN,
    MINKOWSKI,
    NodalJets,
    graph_geometry,
    laplace_beltrami,
)
from .grids import LineGrid, MappedDiskGrid
from .monitors import MonitorRecord, RunMonitor
from .operators import (
    g_derivatives,
    g_dual,
    g_value,
    legendre_transform,
    structure_report,
)
from .oracles import (
    RadialProfile,
    fd_check_derivatives,
    translator_1d_closed_form,
    translator_radial_shooting,
)

__version__ = "0.1.0"
