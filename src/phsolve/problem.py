"""Problem definition: coefficients of the periodic hyperbolic system.

A problem couples n unknowns u_1..u_n on the strip [0,1] x R, each advected
with its own speed and time-periodic with period 2*pi.  The boundary
condition for component j is imposed at x = 0 for j <= m and at x = 1 for
j > m, as an integral of the full state against boundary kernels.
Coefficients are expression trees in the variables x and t.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .grid import TWO_PI

SPEED_FLOOR = 1e-10  # |speed| below this counts as degenerate while tracing
PERIOD_TOL = 1e-10

# sample sites for numeric validation; odd counts avoid hitting only
# special points of common trig coefficients
_VAL_X = np.linspace(0.0, 1.0, 31)[:, None]
_VAL_T = np.linspace(0.0, TWO_PI, 37, endpoint=False)[None, :]


class ValidationError(ValueError):
    """Problem data rejected; carries the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key


def _parse_entry(src, key):
    if isinstance(src, ex.Expr):
        return src
    if not isinstance(src, str):
        raise ValidationError(f"expected an expression string, got {type(src).__name__}", key)
    try:
        return ex.parse(src)
    except (ex.LexError, ex.ParseError) as err:
        raise ValidationError(str(err), key) from err


def _parse_vector(src, n, key):
    # a string has a length too: "00" would read as two entries
    if not isinstance(src, list):
        raise ValidationError(f"expected a list, got {type(src).__name__}", key)
    if len(src) != n:
        raise ValidationError(f"expected {n} entries, got {len(src)}", key)
    return [_parse_entry(e, f"{key}[{j + 1}]") for j, e in enumerate(src)]


def _parse_matrix(src, n, key):
    if not isinstance(src, list):
        raise ValidationError(f"expected a list of rows, got {type(src).__name__}", key)
    if len(src) != n:
        raise ValidationError(f"expected {n} rows, got {len(src)}", key)
    out = []
    for j, row in enumerate(src):
        if not isinstance(row, list):
            raise ValidationError(f"expected a list, got {type(row).__name__}", f"{key}[{j + 1}]")
        if len(row) != n:
            raise ValidationError(f"expected {n} entries, got {len(row)}", f"{key}[{j + 1}]")
        out.append([_parse_entry(e, f"{key}[{j + 1}][{k + 1}]") for k, e in enumerate(row)])
    return out


def _check_periodic(e, key):
    try:
        now = ex.evaluate(e, _VAL_X, _VAL_T)
        shifted = ex.evaluate(e, _VAL_X, _VAL_T + TWO_PI)
    except ex.EvalError as err:
        raise ValidationError(f"not evaluable on the domain: {err}", key) from err
    scale = max(1.0, float(np.max(np.abs(now))))
    gap = float(np.max(np.abs(np.asarray(now) - np.asarray(shifted))))
    if gap > PERIOD_TOL * scale:
        raise ValidationError(f"not 2*pi-periodic in t (gap {gap:.3e})", key)


@dataclass
class ProblemSpec:
    """Validated coefficient set.

    speeds[j]            advection speed of component j+1 (nonvanishing, one sign)
    coupling[j][k]       zero-order coupling of u_{k+1} into equation j+1
    volterra_kernels     kernels of the inner space integral
    boundary_inputs      coefficients of the opposite-endpoint traces
    boundary_kernels     kernels of the integral boundary conditions
    forcing[j]           inhomogeneity of equation j+1
    volterra             True keeps the inner integral on [0, x-position],
                         False extends it over the whole interval
    """

    n: int
    m: int
    speeds: list
    coupling: list
    volterra_kernels: list
    boundary_inputs: list
    boundary_kernels: list
    forcing: list
    volterra: bool = True
    description: str = ""
    _d_speeds: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("must be a positive integer", "n")
        if not 0 <= self.m <= self.n:
            raise ValidationError(f"must lie in 0..{self.n}", "m")
        for key, vec in (("a", self.speeds), ("f", self.forcing)):
            if len(vec) != self.n:
                raise ValidationError(f"expected {self.n} entries", key)
        for key, mat in (
            ("b", self.coupling),
            ("g", self.volterra_kernels),
            ("h", self.boundary_inputs),
            ("r", self.boundary_kernels),
        ):
            if len(mat) != self.n or any(len(row) != self.n for row in mat):
                raise ValidationError(f"expected an {self.n}x{self.n} matrix", key)
        for j, e in enumerate(self.speeds):
            key = f"a[{j + 1}]"
            _check_periodic(e, key)
            vals = np.broadcast_to(ex.evaluate(e, _VAL_X, _VAL_T), (31, 37))
            if float(np.abs(vals).min()) <= 0.0:
                raise ValidationError("speed vanishes on the sample grid", key)
            if float(vals.min()) < 0.0 < float(vals.max()):
                raise ValidationError("speed changes sign on the sample grid", key)
        for j, e in enumerate(self.forcing):
            _check_periodic(e, f"f[{j + 1}]")
        for key, mat in (
            ("b", self.coupling),
            ("g", self.volterra_kernels),
            ("h", self.boundary_inputs),
            ("r", self.boundary_kernels),
        ):
            for j, row in enumerate(mat):
                for k, e in enumerate(row):
                    _check_periodic(e, f"{key}[{j + 1}][{k + 1}]")

    def bc_side(self, j):
        """Boundary position (0.0 or 1.0) where the condition for component
        j (numbered from 1) is imposed; integrals along characteristics
        start there."""
        return 0.0 if j <= self.m else 1.0

    def opposite_side(self, k):
        """The endpoint whose trace of u_k feeds the other equations."""
        return 1.0 - self.bc_side(k)

    def speed_dt(self, j):
        """Symbolic t-derivative of speed j (cached)."""
        key = ("t", j)
        if key not in self._d_speeds:
            self._d_speeds[key] = ex.differentiate(self.speeds[j - 1], "t")
        return self._d_speeds[key]


def from_dict(data):
    """Build a ProblemSpec from the JSON problem-file layout.

    Required keys: n, m, a, b, g, h, r, f.  Optional: volterra (default
    true), description.  Matrix entries are expression strings.
    """
    if not isinstance(data, dict):
        raise ValidationError("problem file must contain a JSON object")
    known = {"n", "m", "a", "b", "g", "h", "r", "f", "volterra", "description"}
    for key in data:
        if key not in known:
            raise ValidationError("unknown key", key)
    for key in ("n", "m", "a", "b", "g", "h", "r", "f"):
        if key not in data:
            raise ValidationError("missing required key", key)
    n = data["n"]
    m = data["m"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError("must be an integer", "n")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValidationError("must be an integer", "m")
    if n < 1:
        raise ValidationError("must be a positive integer", "n")
    volterra = data.get("volterra", True)
    if not isinstance(volterra, bool):
        raise ValidationError("must be a boolean", "volterra")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ValidationError("must be a string", "description")
    return ProblemSpec(
        n=n,
        m=m,
        speeds=_parse_vector(data["a"], n, "a"),
        coupling=_parse_matrix(data["b"], n, "b"),
        volterra_kernels=_parse_matrix(data["g"], n, "g"),
        boundary_inputs=_parse_matrix(data["h"], n, "h"),
        boundary_kernels=_parse_matrix(data["r"], n, "r"),
        forcing=_parse_vector(data["f"], n, "f"),
        volterra=volterra,
        description=description,
    )


def from_json(path):
    """Load a problem file; JSON errors surface as ValidationError."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValidationError(f"malformed JSON in {path}: {err}") from err
    return from_dict(data)


def to_dict(p):
    """Problem-file dict with expression strings (round-trips from_dict)."""
    return {
        "n": p.n,
        "m": p.m,
        "a": [ex.to_string(e) for e in p.speeds],
        "b": [[ex.to_string(e) for e in row] for row in p.coupling],
        "g": [[ex.to_string(e) for e in row] for row in p.volterra_kernels],
        "h": [[ex.to_string(e) for e in row] for row in p.boundary_inputs],
        "r": [[ex.to_string(e) for e in row] for row in p.boundary_kernels],
        "f": [ex.to_string(e) for e in p.forcing],
        "volterra": p.volterra,
        "description": p.description,
    }
