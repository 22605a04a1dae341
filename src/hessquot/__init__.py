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
    SamplingExhausted,
    SizeMismatch,
    TooCoarse,
    UnknownIdentifier,
)
from .symfun import (
    ConeReport,
    QuotientParams,
    elementary_symmetric,
    elementary_symmetric_excluding,
    f_tensor,
    grad_G,
    in_gamma_k,
    newton_maclaurin_slack,
    offdiag_second_G,
    quotient_G,
    sample_gamma_k,
)
from .radial_geometry import (
    PointGeometry,
    PointJet,
    assemble_point_geometry,
    geometry_batch,
    sphere_closed_form,
)
from .sphere_grid import (
    AxisymGrid,
    SphereGrid2D,
    build_axisym_grid,
    build_s2_grid,
    field_norms,
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
