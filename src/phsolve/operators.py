"""Discrete integral operators on periodic grid functions.

Every operator integrates along characteristic curves anchored at grid
nodes.  A shared CurveCache traces all x-nodes and time nodes of a
component in one batched sweep, the first time any of its blocks is asked
for; quadrature is composite trapezoid on the curve samples, with linear
(x) and periodic cubic (t) interpolation supplying off-grid values of the
argument function.

The quadrature of each piece of K = R + B + G + H is written once, as a
function of one block (component j, x-node i) that yields the block's
weights in parts (cols, weights): equal-shaped arrays whose leading axis
is the time-node row q, with weights[q, ...] acting on the flattened node
indices cols[q, ...].  One pass over a block (_block_parts) fetches its
curve once and yields the parts of all four pieces.  Forcing gives one
constant per row.  The parts have two uses.  apply_K contracts them
against concrete grid values one part at a time, so applying K never
stores it.  stencil_block concatenates them into explicit weights, which
assembly scatters into the dense matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .characteristics import DEFAULT_SUBSTEPS, trace_arrays
from .grid import cubic_t_stencil, locate_x, zeros


@dataclass
class BlockCurve:
    """Curves of one component through one x-node, all time nodes at once.

    xi has shape (S,); times, gain, weight have shape (nt, S) with rows
    indexed by the anchor time node.  trap holds signed trapezoid weights
    realizing the integral from the boundary side of the component back to
    the anchor position.
    """

    xi: np.ndarray
    times: np.ndarray
    gain: np.ndarray
    weight: np.ndarray
    trap: np.ndarray


def _trap_weights(xi):
    w = np.zeros(len(xi))
    if len(xi) >= 2:
        d = np.diff(xi)
        w[:-1] += 0.5 * d
        w[1:] += 0.5 * d
    # stored order runs anchor -> boundary side; the operators integrate
    # boundary side -> anchor, so flip the sign
    return -w


def x_trapezoid(grid):
    """Composite trapezoid weights over the full x-grid."""
    w = np.full(grid.nx, grid.dx)
    w[0] = w[-1] = 0.5 * grid.dx
    return w


class CurveCache:
    """Memoized characteristic data per (component, x-node index).  A miss
    traces every x-node of the component toward its boundary side in one
    batched sweep and keeps all of them; each block's arrays are views into
    the sweep's buffers."""

    def __init__(self, p, grid):
        self.p = p
        self.grid = grid
        self._curves = {}
        self._inner = {}

    def curve(self, j, i):
        got = self._curves.get((j, i))
        if got is None:
            sweep = trace_arrays(
                self.p,
                j,
                self.grid.xs,
                self.grid.ts,
                self.p.bc_side(j),
                self.grid.nx - 1,
                DEFAULT_SUBSTEPS,
            )
            for k, (xi, *arrays) in enumerate(zip(*sweep)):
                self._curves[(j, k)] = BlockCurve(xi, *arrays, _trap_weights(xi))
            got = self._curves[(j, i)]
        return got

    def inner_weights(self, j, i):
        """Weights W[s, p] realizing the inner spatial integral at each
        curve sample s from x-grid values: over [0, xi_s] in the Volterra
        case (partial last cell by sub-cell trapezoid), over [0, 1] in the
        Fredholm variant."""
        key = (j, i)
        got = self._inner.get(key)
        if got is None:
            xi = self.curve(j, i).xi
            nx = self.grid.nx
            if not self.p.volterra:
                got = np.broadcast_to(x_trapezoid(self.grid), (len(xi), nx))
            else:
                hx = self.grid.dx
                i0, th = locate_x(self.grid, xi)
                # every cell wholly below xi_s adds half its width at each
                # end; the cell i0 holding xi_s adds the trapezoid of the
                # linear interpolant over [x_i0, xi_s]
                whole = 0.5 * hx * (np.arange(nx - 1)[None, :] < i0[:, None])
                got = np.zeros((len(xi), nx))
                got[:, :-1] += whole
                got[:, 1:] += whole
                rows = np.arange(len(xi))
                delta = th * hx
                got[rows, i0] += 0.5 * delta * (2.0 - th)
                got[rows, i0 + 1] += 0.5 * delta * th
            self._inner[key] = got
        return got


def _eval_on(node, xq, tq, shape):
    return np.broadcast_to(np.asarray(ex.evaluate(node, xq, tq), dtype=float), shape)


def _boundary_column(p, grid, k):
    # component k is prescribed at its own side; the operator reads the
    # opposite end of the interval
    return grid.nx - 1 if p.opposite_side(k) == 1.0 else 0


def _live(row, skip=None):
    """Components k (from 1) whose coefficient in row is not zero."""
    return [k for k in range(1, len(row) + 1) if k != skip and not ex.is_zero(row[k - 1])]


def _r_parts(p, grid, j, cur):
    """R: the boundary kernels integrated over x against u at the curve's
    exit time, transported along the curve by its gain.  Parts (nt, nx)."""
    row = p.boundary_kernels[j - 1]
    live = _live(row)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    om = cur.times[:, -1]
    nodes, weights = cubic_t_stencil(grid, om)
    scale = cur.gain[:, -1][:, None] * x_trapezoid(grid)[None, :]
    for k in live:
        coeff = scale * _eval_on(row[k - 1], grid.xs[None, :], om[:, None], (nt, nx))
        base = (k - 1) * nx * nt + np.arange(nx)[None, :] * nt
        for qn, wn in zip(nodes, weights):
            yield base + qn[:, None], coeff * wn[:, None]


def _b_parts(p, grid, j, cur, cw, t_stencil):
    """B: off-diagonal zero-order coupling integrated along the curve.
    Parts (nt, S), one per x-neighbour and t-node of each sample."""
    row = p.coupling[j - 1]
    live = _live(row, skip=j)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    i0, thx = locate_x(grid, cur.xi)
    nodes, weights = t_stencil()
    wx0 = (1.0 - thx)[None, :]
    wx1 = thx[None, :]
    for k in live:
        C = -cw * _eval_on(row[k - 1], cur.xi[None, :], cur.times, cur.times.shape)
        base = (k - 1) * nx * nt
        c0 = base + i0[None, :] * nt
        c1 = base + (i0 + 1)[None, :] * nt
        for qn, wn in zip(nodes, weights):
            yield c0 + qn, C * wx0 * wn
            yield c1 + qn, C * wx1 * wn


def _h_parts(p, grid, j, cur, cw, t_stencil):
    """H: each component's value at the end opposite to its prescribed
    side, integrated along the curve.  Parts (nt, S)."""
    row = p.boundary_inputs[j - 1]
    live = _live(row)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    nodes, weights = t_stencil()
    for k in live:
        C = cw * _eval_on(row[k - 1], cur.xi[None, :], cur.times, cur.times.shape)
        base = (k - 1) * nx * nt + _boundary_column(p, grid, k) * nt
        for qn, wn in zip(nodes, weights):
            yield base + qn, C * wn


def _g_parts(p, grid, caches, j, i, cur, cw, t_stencil):
    """G: the spatial integral (Volterra over [0, xi] or full-range) at
    each curve sample, integrated along the curve.  Parts (nt, nx, nt),
    one per component k: the weight on u_k(x_p, t_r), summed over the
    curve samples that read it (by one matrix product with the cubic
    t-interpolation).  Per t-node, the unsummed weights would take
    (nt, S, nx), with each column repeated along the curve."""
    row = p.volterra_kernels[j - 1]
    live = _live(row)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    samples = len(cur.xi)
    nodes, weights = t_stencil()
    # interp[q, s, r]: weight of t-node r at sample time (q, s); the four
    # nodes of one sample are distinct since nt >= 4
    interp = np.zeros((nt, samples, nt))
    np.put_along_axis(interp, np.moveaxis(nodes, 0, -1), np.moveaxis(weights, 0, -1), axis=2)
    wi = caches.inner_weights(j, i)
    cols = np.broadcast_to(np.arange(nx * nt).reshape(1, nx, nt), (nt, nx, nt))
    for k in live:
        gv = _eval_on(row[k - 1], grid.xs[None, None, :], cur.times[:, :, None], (nt, samples, nx))
        W3 = (-cw)[:, :, None] * wi[None, :, :] * gv
        yield (k - 1) * nx * nt + cols, np.swapaxes(W3, 1, 2) @ interp


def _block_parts(p, grid, caches, j, i):
    """The parts of K on block (j, i), in the order R, B, H, G in which
    assembly sums a matrix entry's terms.  A single-point curve (the node
    lies on its own boundary side) stops after R: every integral along it
    vanishes.  Otherwise B, H and G share the quadrature weights cw[q, s]
    (signed trapezoid times integrating factor) and the cubic t-stencil
    of the curve samples, computed on first use and kept only while the
    block is processed: kept per block, the stencils would take 8 arrays
    the size of the curve times each."""
    cur = caches.curve(j, i)
    yield from _r_parts(p, grid, j, cur)
    if len(cur.xi) < 2:
        return
    cw = cur.trap[None, :] * cur.weight
    t_stencil = functools.cache(lambda: cubic_t_stencil(grid, cur.times))
    yield from _b_parts(p, grid, j, cur, cw, t_stencil)
    yield from _h_parts(p, grid, j, cur, cw, t_stencil)
    yield from _g_parts(p, grid, caches, j, i, cur, cw, t_stencil)


def _forcing(p, grid, caches, j, i):
    """F: the forcing integrated along the curve, one constant per row."""
    fj = p.forcing[j - 1]
    if ex.is_zero(fj):
        return np.zeros(grid.nt)
    cur = caches.curve(j, i)
    if len(cur.xi) < 2:
        return np.zeros(grid.nt)
    fv = _eval_on(fj, cur.xi[None, :], cur.times, cur.times.shape)
    return np.einsum("qs,qs->q", cur.trap[None, :] * cur.weight, fv)


def apply_K(p, grid, u, caches=None):
    """K = R + B + G + H applied to u, one block's parts at a time."""
    caches = caches if caches is not None else CurveCache(p, grid)
    out = zeros(grid, p.n)
    flat = u.values.reshape(-1)
    for j in range(1, p.n + 1):
        for i in range(grid.nx):
            for cols, w in _block_parts(p, grid, caches, j, i):
                out.values[j - 1, i] += (w * flat[cols]).reshape(grid.nt, -1).sum(1)
    return out


def apply_F(p, grid, caches=None):
    """Forcing integrated along the curve (the affine part of the fixed
    point equation)."""
    caches = caches if caches is not None else CurveCache(p, grid)
    out = zeros(grid, p.n)
    for j in range(1, p.n + 1):
        for i in range(grid.nx):
            out.values[j - 1, i] = _forcing(p, grid, caches, j, i)
    return out


def stencil_block(p, grid, caches, j, i):
    """All time-node rows of the linear map u -> (Ku)_j(x_i, .) as weights
    on flattened node indices, plus the forcing constants for those rows.

    Returns (cols, weights, const): cols and weights have shape (nt, M)
    with row q holding the terms of (Ku)_j(x_i, t_q); a column may repeat
    within a row, and its weights add.  const has shape (nt,).
    """
    nt = grid.nt
    cols = [np.zeros((nt, 0), dtype=np.int64)]
    weights = [np.zeros((nt, 0))]
    for c, w in _block_parts(p, grid, caches, j, i):
        cols.append(c.reshape(nt, -1))
        weights.append(w.reshape(nt, -1))
    const = _forcing(p, grid, caches, j, i)
    return np.concatenate(cols, axis=1), np.concatenate(weights, axis=1), const
