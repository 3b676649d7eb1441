"""Discrete integral operators on periodic grid functions.

Every operator integrates along characteristic curves anchored at grid
nodes.  A shared CurveCache traces all x-nodes of a component in one
batched sweep, the first time any of its blocks is asked for;
quadrature is composite trapezoid on the curve samples, with linear (x)
and periodic cubic (t) interpolation supplying off-grid values of the
argument function.

When no speed or coefficient of K mentions t (the forcing may), K
commutes with shifts by one time step: the curve from (x_i, t_q) is the
curve from (x_i, 0) moved by t_q, and the row of t_q is the row of t = 0
with every t-index moved by q (`period` is nt).  The cache then traces
only the t = 0 anchors.  Otherwise (`period` 1) it traces every time
node.

The quadrature of each piece of K = R + B + G + H is written once, as a
function of one block (component j, x-node i) that yields the block's
weights in parts (cols, weights): equal-shaped arrays whose leading axis
is the traced time-node row q, with weights[q, ...] acting on the
flattened node indices cols[q, ...].  One pass over a block
(_block_parts) fetches its curve once and yields the parts of all four
pieces.  stencil_block concatenates them into explicit weights, which
assembly scatters into block-row 0 of A.  apply_K applies them to
concrete grid values without storing K: with every row traced it
contracts one part at a time; with row 0 alone it sums the block's row
into one dense weight row and correlates it with u circularly in t
through the rfft.  apply_F integrates the forcing, one constant per time
node, also for period nt, where it is integrated along the shifted row-0
curves; assembly stores it as the right-hand side.  Neither needs an
assembled matrix, so the residual of a candidate solution also runs on
grids past the dense cap.
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

    xi has shape (S,); times, gain, weight have shape (rows, S) with rows
    indexed by the anchor time node: all nt of them, or only t = 0 when
    the problem's period is nt.  trap holds signed trapezoid weights
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


def period(p, grid):
    """Length of the DFT over t that splits A = I - K into blocks: nt when
    no speed or coefficient of K mentions t (the forcing may), since K then
    commutes with shifts by one time step; otherwise 1."""
    entries = [*p.speeds]
    for mat in (p.coupling, p.volterra_kernels, p.boundary_inputs, p.boundary_kernels):
        entries.extend(e for row in mat for e in row)
    return 1 if any(ex.mentions(e, "t") for e in entries) else grid.nt


class CurveCache:
    """Memoized characteristic data per (component, x-node index).  A miss
    traces every x-node of the component toward its boundary side in one
    batched sweep and keeps all of them; each block's arrays are views into
    the sweep's buffers.  The anchor times are every time node, or only
    t = 0 when the problem's period is nt."""

    def __init__(self, p, grid):
        self.p = p
        self.grid = grid
        self.period = period(p, grid)
        self._curves = {}
        self._inner = {}

    def curve(self, j, i):
        got = self._curves.get((j, i))
        if got is None:
            # every time node for period 1, t = 0 alone for period nt
            sweep = trace_arrays(
                self.p,
                j,
                self.grid.xs,
                self.grid.ts[: self.grid.nt // self.period],
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


def _boundary_column(p, grid, k):
    # component k is prescribed at its own side; the operator reads the
    # opposite end of the interval
    return grid.nx - 1 if p.opposite_side(k) == 1.0 else 0


def _live(row, skip=None):
    """Components k (from 1) whose coefficient in row is not zero."""
    return [k for k in range(1, len(row) + 1) if k != skip and not ex.is_zero(row[k - 1])]


def _r_parts(p, grid, j, cur):
    """R: the boundary kernels integrated over x against u at the curve's
    exit time, transported along the curve by its gain.  Parts (rows, nx)."""
    row = p.boundary_kernels[j - 1]
    live = _live(row)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    om = cur.times[:, -1]
    nodes, weights = cubic_t_stencil(grid, om)
    scale = cur.gain[:, -1][:, None] * x_trapezoid(grid)[None, :]
    for k in live:
        coeff = scale * ex.evaluate(row[k - 1], grid.xs[None, :], om[:, None])
        base = (k - 1) * nx * nt + np.arange(nx)[None, :] * nt
        for qn, wn in zip(nodes, weights):
            yield base + qn[:, None], coeff * wn[:, None]


def _b_parts(p, grid, j, cur, cw, t_stencil):
    """B: off-diagonal zero-order coupling integrated along the curve.
    Parts (rows, S), one per x-neighbour and t-node of each sample."""
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
        C = -cw * ex.evaluate(row[k - 1], cur.xi[None, :], cur.times)
        base = (k - 1) * nx * nt
        c0 = base + i0[None, :] * nt
        c1 = base + (i0 + 1)[None, :] * nt
        for qn, wn in zip(nodes, weights):
            yield c0 + qn, C * wx0 * wn
            yield c1 + qn, C * wx1 * wn


def _h_parts(p, grid, j, cur, cw, t_stencil):
    """H: each component's value at the end opposite to its prescribed
    side, integrated along the curve.  Parts (rows, S)."""
    row = p.boundary_inputs[j - 1]
    live = _live(row)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    nodes, weights = t_stencil()
    for k in live:
        C = cw * ex.evaluate(row[k - 1], cur.xi[None, :], cur.times)
        base = (k - 1) * nx * nt + _boundary_column(p, grid, k) * nt
        for qn, wn in zip(nodes, weights):
            yield base + qn, C * wn


def _g_parts(p, grid, caches, j, i, cur, cw, t_stencil):
    """G: the spatial integral (Volterra over [0, xi] or full-range) at
    each curve sample, integrated along the curve.  Parts (rows, nx, nt),
    one per component k: the weight on u_k(x_p, t_r), summed over the
    curve samples that read it (by one matrix product with the cubic
    t-interpolation).  Per t-node, the unsummed weights would take
    (rows, S, nx), with each column repeated along the curve."""
    row = p.volterra_kernels[j - 1]
    live = _live(row)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    rows, samples = cur.times.shape
    nodes, weights = t_stencil()
    # interp[q, s, r]: weight of t-node r at sample time (q, s); the four
    # nodes of one sample are distinct since nt >= 4
    interp = np.zeros((rows, samples, nt))
    np.put_along_axis(interp, np.moveaxis(nodes, 0, -1), np.moveaxis(weights, 0, -1), axis=2)
    wi = caches.inner_weights(j, i)
    cols = np.broadcast_to(np.arange(nx * nt).reshape(1, nx, nt), (rows, nx, nt))
    for k in live:
        gv = ex.evaluate(row[k - 1], grid.xs[None, None, :], cur.times[:, :, None])
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
    """F: the forcing integrated along the curve, one constant per time
    node.  With only row 0 traced, the curve of time node q is row 0's
    moved by t_q, with the same weights."""
    fj = p.forcing[j - 1]
    if ex.is_zero(fj):
        return np.zeros(grid.nt)
    cur = caches.curve(j, i)
    if len(cur.xi) < 2:
        return np.zeros(grid.nt)
    times = cur.times
    if caches.period != 1:
        times = times + grid.ts[:, None]
    cw = np.broadcast_to(cur.trap[None, :] * cur.weight, times.shape)
    fv = ex.evaluate(fj, cur.xi[None, :], times)
    return np.einsum("qs,qs->q", cw, fv)


def apply_K(p, grid, u, caches=None):
    """K = R + B + G + H applied to u, walking the parts one block at a
    time.  With every time node traced (period 1), each part is contracted
    against u by a gather.  With row 0 alone (period nt), row q of a block
    is row 0 with its t-indices moved by q, so (Ku)_j(x_i, t_q) is
    sum_{c, r} W[c, r] u[c, r + q] for the block's row-0 weights W of shape
    (n * nx, nt): a circular correlation in t, which the rfft turns into one
    product per frequency, sum_c conj(W_hat[c]) u_hat[c]."""
    caches = caches if caches is not None else CurveCache(p, grid)
    out = zeros(grid, p.n)
    nt = grid.nt
    if caches.period == 1:
        flat = u.values.reshape(-1)
        for j in range(1, p.n + 1):
            for i in range(grid.nx):
                for cols, w in _block_parts(p, grid, caches, j, i):
                    out.values[j - 1, i] += (w * flat[cols]).reshape(nt, -1).sum(1)
        return out
    u_hat = np.fft.rfft(u.values.reshape(-1, nt), axis=-1)
    out_hat = np.zeros((p.n, grid.nx, u_hat.shape[1]), dtype=complex)
    for j in range(1, p.n + 1):
        for i in range(grid.nx):
            (cols,), (weights,) = stencil_block(p, grid, caches, j, i)
            row = np.bincount(cols, weights, minlength=u.values.size).reshape(-1, nt)
            out_hat[j - 1, i] = np.einsum("ck,ck->k", np.fft.rfft(row, axis=-1).conj(), u_hat)
    out.values[:] = np.fft.irfft(out_hat, n=nt, axis=-1)
    return out


def apply_F(p, grid, caches=None):
    """Forcing integrated along the curve (the affine part of the fixed
    point equation), block by block."""
    caches = caches if caches is not None else CurveCache(p, grid)
    out = zeros(grid, p.n)
    for j in range(1, p.n + 1):
        for i in range(grid.nx):
            out.values[j - 1, i] = _forcing(p, grid, caches, j, i)
    return out


def stencil_block(p, grid, caches, j, i):
    """The traced time-node rows of the linear map u -> (Ku)_j(x_i, .) as
    weights on flattened node indices.

    Returns (cols, weights) of shape (rows, M), the parts of the block
    concatenated, with row q holding the terms of (Ku)_j(x_i, t_q); a
    column may repeat within a row, and its weights add.  rows is nt, or 1
    when the period is nt: row q is then row 0 with its t-indices moved
    by q.
    """
    rows = grid.nt // caches.period
    cols = [np.zeros((rows, 0), dtype=np.int64)]
    weights = [np.zeros((rows, 0))]
    for c, w in _block_parts(p, grid, caches, j, i):
        cols.append(c.reshape(rows, -1))
        weights.append(w.reshape(rows, -1))
    return np.concatenate(cols, axis=1), np.concatenate(weights, axis=1)
