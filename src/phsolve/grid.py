"""Space-time grid and grid functions.

Space nodes x_i = i/(nx-1) include both endpoints of [0, 1]; time nodes
t_q = 2*pi*q/nt cover one period without duplicating the seam.  A grid
function stores one (nx, nt) array per component; its flat layout is
values.reshape(-1): component-major, then x, then t.  Off-grid values come
from two interpolation stencils, which the operators read as weights on
grid nodes: linear in x over the two ends of a cell (locate_x gives the
cell and the offset in it) and a periodic four-node cubic in t
(cubic_t_stencil gives the nodes and their weights).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import evaluate

TWO_PI = 2.0 * math.pi


class RangeError(ValueError):
    """Query or index outside the admissible range."""


@dataclass
class Grid:
    nx: int
    nt: int
    xs: np.ndarray = field(init=False, repr=False)
    ts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nx < 3:
            raise ValueError(f"nx must be at least 3, got {self.nx}")
        if self.nt < 4:
            raise ValueError(f"nt must be at least 4, got {self.nt}")
        self.xs = np.arange(self.nx) / (self.nx - 1)
        self.ts = TWO_PI * np.arange(self.nt) / self.nt

    @property
    def dx(self):
        return 1.0 / (self.nx - 1)

    @property
    def dt(self):
        return TWO_PI / self.nt

    @functools.cached_property
    def csv_places(self):
        """The fields "i,q,x,t," of each node's `dump_csv` row, in flat
        order; formatted once per grid, since the kernel command writes a
        file per basis vector."""
        ts = list(enumerate(self.ts.tolist()))
        return [f"{i},{q},{x!r},{t!r}," for i, x in enumerate(self.xs.tolist()) for q, t in ts]


@dataclass
class GridFunction:
    grid: Grid
    values: np.ndarray  # shape (n, nx, nt)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[1:] != (self.grid.nx, self.grid.nt):
            raise ValueError(
                f"values must have shape (n, {self.grid.nx}, {self.grid.nt}), "
                f"got {self.values.shape}"
            )

    @property
    def n(self):
        return self.values.shape[0]

    def copy(self):
        return GridFunction(self.grid, self.values.copy())


def zeros(grid, n):
    return GridFunction(grid, np.zeros((n, grid.nx, grid.nt)))


def sample_exprs(exprs, grid):
    """Sample a list of expression trees into an n-component grid function."""
    x = grid.xs[:, None]
    t = grid.ts[None, :]
    vals = np.empty((len(exprs), grid.nx, grid.nt))
    for k, e in enumerate(exprs):
        vals[k] = evaluate(e, x, t)
    return GridFunction(grid, vals)


def locate_x(grid, xq):
    """Cell index and fractional offset for x-queries (array in, array out).
    Queries are accepted up to 1e-12 outside [0, 1] and clamped; node hits
    snap to exact offsets 0 or 1 so node queries reproduce stored values."""
    xq = np.asarray(xq, dtype=float)
    if np.any(xq < -1e-12) or np.any(xq > 1.0 + 1e-12):
        worst = xq.flat[int(np.argmax(np.abs(xq - 0.5)))]
        raise RangeError(f"x-query {worst!r} outside [0, 1]")
    xc = np.clip(xq, 0.0, 1.0)
    s = xc * (grid.nx - 1)
    i0 = np.clip(np.floor(s).astype(np.int64), 0, grid.nx - 2)
    theta = s - i0
    theta = np.where(xc == grid.xs[i0], 0.0, theta)
    theta = np.where(xc == grid.xs[i0 + 1], 1.0, theta)
    return i0, theta


def cubic_t_stencil(grid, tq):
    """Four-node periodic cubic Lagrange stencil in t.

    Returns (nodes, weights), both of shape (4,) + tq.shape: nodes holds
    the wrapped time nodes q0-1, q0, q0+1, q0+2 around each query, where
    q0 is the periodic cell the query falls in, and weights the Lagrange
    weights on them.  Exact at nodes (the weight vector degenerates to a
    unit vector there) and exactly 2pi-periodic.
    """
    tq = np.asarray(tq, dtype=float)
    nt = grid.nt
    tr = np.mod(tq, TWO_PI)
    s = tr / grid.dt
    q0 = np.clip(np.floor(s).astype(np.int64), 0, nt - 1)
    nodes = (q0 + np.arange(-1, 3).reshape((4,) + (1,) * tq.ndim)) % nt
    th = s - q0
    # node hits snap to exact offsets: tr / dt may round to just above the
    # node's index (offset 0) or to just below it, into the cell below
    # (offset 1); tr never equals t_0 in the last cell, where q0 + 1 wraps
    th = np.where(tr == grid.ts[q0], 0.0, th)
    th = np.where(tr == grid.ts[nodes[2]], 1.0, th)
    weights = np.empty((4,) + tq.shape)
    weights[0] = -th * (th - 1.0) * (th - 2.0) / 6.0
    weights[1] = (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0
    weights[2] = -(th + 1.0) * th * (th - 2.0) / 2.0
    weights[3] = (th + 1.0) * th * (th - 1.0) / 6.0
    return nodes, weights


def sup_norm(g):
    """Max of |values| over all components and nodes."""
    return float(np.max(np.abs(g.values)))


def dump_csv(g, path):
    """Write rows (j,i,q,x,t,value) in flat order with a header line."""
    places = g.grid.csv_places
    with open(path, "w") as fh:
        fh.write("j,i,q,x,t,value\n")
        for j, values in enumerate(g.values.reshape(g.n, -1).tolist(), start=1):
            rows = zip(itertools.repeat(f"{j},"), places, map(repr, values))
            fh.write("\n".join(map("".join, rows)))
            fh.write("\n")
