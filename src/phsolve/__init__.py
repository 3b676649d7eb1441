"""Periodic solutions of coupled one-dimensional transport systems with
integral boundary conditions, via characteristic integral equations and
dense spectral diagnostics."""

from .expr import differentiate, evaluate, parse, to_string
from .fredholm import (
    CapacityError,
    FredholmReport,
    LevyReport,
    OperatorMatrix,
    SpectrumError,
    assemble,
    check_levy,
    convergence_study,
    residual,
    singular_spectrum,
    solve_alternative,
)
from .grid import Grid, GridFunction, RangeError, sample_exprs, sup_norm
from .characteristics import (
    CharacteristicCurve,
    TraceError,
    invert_time,
    invert_time_derivative,
    time_partial_t,
    time_partial_x,
    trace,
)
from .operators import (
    CurveCache,
    Stencil,
    apply_B,
    apply_F,
    apply_G,
    apply_H,
    apply_K,
    apply_R,
    stencil_row,
)
from .problem import ProblemSpec, ValidationError
from .problems import BUILTINS, get_builtin, kernel_pair, list_builtins

__version__ = "0.1.0"
