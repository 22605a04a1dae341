"""Numerical solver for prescribed curvature-quotient equations on star-shaped
hypersurfaces, with homotopy continuation from the unit sphere and runtime
admissibility monitors."""

from .errors import (
    BadAnnulus,
    ConeViolation,
    ConfigError,
    ContinuationStalled,
    DegenerateJet,
    EvalError,
    HessquotError,
    MonitorViolation,
    NoConvergence,
    NonpositiveF,
    ParseError,
    SizeMismatch,
    TooCoarse,
    UnknownIdentifier,
)
from .symfun import QuotientParams
from .radial_geometry import geometry_batch
from .sphere_grid import (
    AxisymGrid,
    SphereGrid2D,
    build_axisym_grid,
    build_s2_grid,
    jet_arrays,
)
from .fspec import (
    AssumptionReport,
    HomotopyTarget,
    eval_f,
    eval_homotopy,
    make_homotopy,
    parse_f,
    to_source,
    validate_assumptions,
)
from .continuation_solver import (
    SolutionField,
    SolverConfig,
    assemble_jacobian,
    continuation_solve,
    newton_solve,
    residual_vector,
)
from .estimates_monitor import BoundsSnapshot, check_c0, check_positivity, snapshot_bounds

__version__ = "0.1.0"
