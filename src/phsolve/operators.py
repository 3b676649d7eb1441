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

The quadrature of each piece of K = R + B + G + H is written once, over
a run of consecutive x-nodes of one component (CurveCache.runs): the
run's curve samples are concatenated (CurveCache.run_curve, a RunCurve
held only while its run is processed), so the x- and t-stencils and
each coefficient take one evaluation for the whole run.  One pass over a
run (_run_parts) yields the weights of R, B and H on the run's blocks
(component j, x-node i) in sparse parts (cols, weights, bounds):
equal-shaped arrays whose leading axis is the traced time-node row q,
with weights[q, ...] acting on the flattened node indices cols[q, ...],
and columns bounds[b]:bounds[b + 1] belonging to the run's b-th block.
G reads every node of u_k from every curve sample, so its weights are
dense, nx * nt per row and component; the pass gives them block by
block instead, formed only as each block is reached (_g_parts), and
they do not count towards a run's length.
apply_K applies them to concrete grid values without storing K.  With
every row traced it contracts each sparse part against u by a gather
and sums each block's columns, then adds each block's G weights against
u_k.  With row 0 alone it takes each block's weights from
stencil_block, sums them into dense weight rows, one per (component,
x-node) the block reads, and correlates those with u circularly in t
through the rfft.  stencil_block cuts each block's columns out of the
sparse parts and concatenates them into explicit weights, with the
block's G weights alongside; assembly sums both into block-row 0 of A.
apply_F integrates the forcing over the same runs, one constant per
time node, also for period nt, where it is integrated along the shifted
row-0 curves; assembly stores it as the right-hand side, integrating K
and F along each run's curves as it builds them.  Neither needs an
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

# A run's curves hold at most this many (traced row, sample) pairs; a node
# whose curves alone hold more is a run of its own.  Each part of a run
# takes an array of this size, and a longer run saves few numpy calls more:
# at 129 x 128 on example13 one run per component raised the peak RSS of
# the `residual` command by 12 MiB (19%), runs of 4096 samples by 0.9 MiB,
# and runs no longer than one curve left it flat but took about a third
# longer.
RUN_SAMPLES = 4096


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

    def runs(self, j):
        """The x-nodes of component j cut into runs, ranges of consecutive
        nodes that tile 0 .. nx - 1 in order: each run's curves hold at
        most RUN_SAMPLES (row, sample) pairs, or it is one node.  Only the
        curve samples count, which the parts of R, B and H and the forcing
        take: G's weights, nx * nt per traced row whatever the curve's
        length, are formed one block at a time (see `_g_parts`)."""
        nx, rows = self.grid.nx, self.grid.nt // self.period
        out, start, held = [], 0, 0
        for i in range(nx):
            size = rows * len(self.curve(j, i).xi)
            if i > start and held + size > RUN_SAMPLES:
                out.append(range(start, i))
                start, held = i, 0
            held += size
        out.append(range(start, nx))
        return out

    def run_curve(self, j, nodes):
        """The RunCurve of the run nodes of component j (see `runs`), built
        afresh on each call: its caller holds it only while it processes
        the run, and hands it to every quadrature along the run."""
        curves = [self.curve(j, i) for i in nodes]
        along = [cur for cur in curves if len(cur.xi) >= 2]
        sizes = [len(cur.xi) if len(cur.xi) >= 2 else 0 for cur in curves]
        # the empty leading arrays give a run of single-point curves no samples
        empty = np.empty((self.grid.nt // self.period, 0))
        trap = np.concatenate([empty[0], *(cur.trap for cur in along)])
        return RunCurve(
            j,
            nodes,
            curves,
            np.cumsum([0, *sizes]),
            np.concatenate([empty[0], *(cur.xi for cur in along)]),
            np.concatenate([empty, *(cur.times for cur in along)], axis=1),
            trap[None, :] * np.concatenate([empty, *(cur.weight for cur in along)], axis=1),
        )

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


@dataclass
class RunCurve:
    """The curves of a run's blocks, (component j, x-node i) for i in
    nodes, concatenated for quadrature along them.  Samples
    bounds[b]:bounds[b + 1] belong to the run's b-th block; xi has shape
    (S,) and times and cw, the signed trapezoid weight times the
    integrating factor, (rows, S).  A single-point curve (the node lies on
    its own boundary side) has no samples here: every integral along it
    vanishes."""

    j: int
    nodes: range
    curves: list  # the BlockCurve of each node
    bounds: np.ndarray
    xi: np.ndarray
    times: np.ndarray
    cw: np.ndarray


def _boundary_column(p, grid, k):
    # component k is prescribed at its own side; the operator reads the
    # opposite end of the interval
    return grid.nx - 1 if p.opposite_side(k) == 1.0 else 0


def _live(row, skip=None):
    """Components k (from 1) whose coefficient in row is not zero."""
    return [k for k in range(1, len(row) + 1) if k != skip and not ex.is_zero(row[k - 1])]


def _r_parts(p, grid, j, curves):
    """R: the boundary kernels integrated over x against u at each curve's
    exit time, transported along the curve by its gain.  Parts (rows,
    blocks * nx), nx columns per block."""
    row = p.boundary_kernels[j - 1]
    live = _live(row)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    om = np.stack([cur.times[:, -1] for cur in curves], axis=1)[:, :, None]
    gain = np.stack([cur.gain[:, -1] for cur in curves], axis=1)[:, :, None]
    rows = om.shape[0]
    bounds = np.arange(len(curves) + 1) * nx
    nodes, weights = cubic_t_stencil(grid, om)
    scale = gain * x_trapezoid(grid)
    for k in live:
        coeff = scale * ex.evaluate(row[k - 1], grid.xs, om)
        base = (k - 1) * nx * nt + np.arange(nx) * nt
        for qn, wn in zip(nodes, weights):
            yield (base + qn).reshape(rows, -1), (coeff * wn).reshape(rows, -1), bounds


def _b_parts(p, grid, j, run, t_stencil):
    """B: off-diagonal zero-order coupling integrated along the curves.
    Parts (rows, S), one per x-neighbour and t-node of each sample."""
    row = p.coupling[j - 1]
    live = _live(row, skip=j)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    i0, thx = locate_x(grid, run.xi)
    nodes, weights = t_stencil()
    wx0 = (1.0 - thx)[None, :]
    wx1 = thx[None, :]
    for k in live:
        C = -run.cw * ex.evaluate(row[k - 1], run.xi[None, :], run.times)
        base = (k - 1) * nx * nt
        c0 = base + i0[None, :] * nt
        c1 = base + (i0 + 1)[None, :] * nt
        for qn, wn in zip(nodes, weights):
            yield c0 + qn, C * wx0 * wn, run.bounds
            yield c1 + qn, C * wx1 * wn, run.bounds


def _h_parts(p, grid, j, run, t_stencil):
    """H: each component's value at the end opposite to its prescribed
    side, integrated along the curves.  Parts (rows, S)."""
    row = p.boundary_inputs[j - 1]
    live = _live(row)
    if not live:
        return
    nt, nx = grid.nt, grid.nx
    nodes, weights = t_stencil()
    for k in live:
        C = run.cw * ex.evaluate(row[k - 1], run.xi[None, :], run.times)
        base = (k - 1) * nx * nt + _boundary_column(p, grid, k) * nt
        for qn, wn in zip(nodes, weights):
            yield base + qn, C * wn, run.bounds


def _g_parts(p, grid, caches, run, t_stencil):
    """G: the spatial integral (Volterra over [0, xi] or full-range) at
    each curve sample, integrated along the curve.  One iterable per block
    of the run, yielding (k, W) for each live component k: W of shape
    (rows, nx * nt) is the weight on u_k(x_p, t_r), flattened as (p, r),
    summed over the curve samples that read it (by one matrix product with
    the cubic t-interpolation).  Dense, so it is kept out of the sparse
    parts: a block's weights are formed as it is iterated, and no run
    holds them.  Per t-node, the unsummed weights would take (rows, S,
    nx), with each column repeated along the curve.  With no live
    component the iterables are empty and hold nothing of the run."""
    row = p.volterra_kernels[run.j - 1]
    live = _live(row)
    if not live:
        return [()] * len(run.nodes)
    nt = grid.nt
    rows = run.times.shape[0]

    @functools.cache
    def interp():
        # interp[q, s, r]: weight of t-node r at sample time (q, s), for
        # the whole run; the four nodes of one sample are distinct since
        # nt >= 4
        t_nodes, t_weights = t_stencil()
        out = np.zeros((rows, len(run.xi), nt))
        np.put_along_axis(
            out, np.moveaxis(t_nodes, 0, -1), np.moveaxis(t_weights, 0, -1), axis=2
        )
        return out

    def block(b, i):
        lo, hi = run.bounds[b], run.bounds[b + 1]
        if lo == hi:
            return
        times = run.times[:, lo:hi]
        # the same for every k: (-cw) wi, then times each k's gv
        scaled = (-run.cw[:, lo:hi])[:, :, None] * caches.inner_weights(run.j, i)[None, :, :]
        for k in live:
            gv = ex.evaluate(row[k - 1], grid.xs[None, None, :], times[:, :, None])
            weights = np.swapaxes(scaled * gv, 1, 2) @ interp()[:, lo:hi]
            yield k, weights.reshape(rows, -1)

    return [block(b, i) for b, i in enumerate(run.nodes)]


def _run_parts(p, grid, caches, run):
    """The parts of K on the blocks of a run (see `RunCurve`): the sparse
    parts of R, B and H, in the order in which assembly sums a matrix
    entry's terms, and G's dense weights, one iterable per block (see
    `_g_parts`), whose terms come after them.  B, H and G share the run's
    quadrature weights and the cubic t-stencil of its samples, computed on
    first use and kept only while the run is processed."""
    t_stencil = functools.cache(lambda: cubic_t_stencil(grid, run.times))

    def sparse():
        yield from _r_parts(p, grid, run.j, run.curves)
        if len(run.xi):
            yield from _b_parts(p, grid, run.j, run, t_stencil)
            yield from _h_parts(p, grid, run.j, run, t_stencil)

    return sparse(), _g_parts(p, grid, caches, run, t_stencil)


def _run_forcing(p, grid, caches, run):
    """F on the blocks of a run (see `RunCurve`): the forcing integrated
    along each curve, one constant per time node; shape (len(run.nodes),
    nt).  With only row 0 traced, the curve of time node q is row 0's
    moved by t_q, with the same weights."""
    out = np.zeros((len(run.nodes), grid.nt))
    fj = p.forcing[run.j - 1]
    if ex.is_zero(fj) or not len(run.xi):
        return out
    times = run.times
    if caches.period != 1:
        times = times + grid.ts[:, None]
    cw = np.broadcast_to(run.cw, times.shape)
    fv = ex.evaluate(fj, run.xi[None, :], times)
    for b, (lo, hi) in enumerate(zip(run.bounds[:-1], run.bounds[1:])):
        if lo < hi:
            out[b] = np.einsum("qs,qs->q", cw[:, lo:hi], fv[:, lo:hi])
    return out


def apply_K(p, grid, u, caches=None):
    """K = R + B + G + H applied to u, one run of blocks at a time.  With
    every time node traced (period 1), each sparse part of a run is
    contracted against u by a gather and summed over each block's
    columns, and each block's G weights against u_k.  With row 0 alone
    (period nt), row q of a block is row 0 with its t-indices moved by q,
    so (Ku)_j(x_i, t_q) is sum_{c, r} W[c, r] u[c, r + q] for the block's
    row-0 weights W of shape (n * nx, nt): a circular correlation in t,
    which the rfft turns into one product per frequency, sum_c
    conj(W_hat[c]) u_hat[c].  Only the rows c the block reads are
    transformed; the others are zero."""
    caches = caches if caches is not None else CurveCache(p, grid)
    out = zeros(grid, p.n)
    nt, width = grid.nt, grid.nx * grid.nt
    if caches.period == 1:
        flat = u.values.reshape(-1)
        for j in range(1, p.n + 1):
            for nodes in caches.runs(j):
                parts, dense = _run_parts(p, grid, caches, caches.run_curve(j, nodes))
                for cols, weights, bounds in parts:
                    terms = weights * flat[cols]
                    for i, lo, hi in zip(nodes, bounds[:-1], bounds[1:]):
                        if lo < hi:
                            out.values[j - 1, i] += terms[:, lo:hi].sum(1)
                for i, g in zip(nodes, dense):
                    for k, weights in g:
                        out.values[j - 1, i] += (weights * flat[(k - 1) * width : k * width]).sum(1)
        return out
    u_hat = np.fft.rfft(u.values.reshape(-1, nt), axis=-1)
    out_hat = np.zeros((p.n, grid.nx, u_hat.shape[1]), dtype=complex)
    # where[c]: the position of row c among the rows a block reads
    where = np.zeros(len(u_hat), dtype=np.int64)
    for j in range(1, p.n + 1):
        for nodes in caches.runs(j):
            for i, ((cols,), (weights,), dense) in zip(
                nodes, stencil_block(p, grid, caches, j, nodes)
            ):
                # G's weights read every row of u_k, (component k, x-node)
                dense = [(np.arange((k - 1) * grid.nx, k * grid.nx), g) for k, g in dense]
                read = cols // nt
                hits = np.bincount(read, minlength=len(u_hat))
                for c, _ in dense:
                    hits[c] += 1
                touched = np.flatnonzero(hits)
                where[touched] = np.arange(len(touched))
                keys = where[read] * nt + cols % nt
                row = np.bincount(keys, weights, minlength=len(touched) * nt).reshape(-1, nt)
                row = row.astype(float, copy=False)  # with no keys, bincount counts in ints
                for c, g in dense:
                    row[where[c]] += g.reshape(-1, nt)
                w_hat = np.fft.rfft(row, axis=-1).conj()
                out_hat[j - 1, i] = np.einsum("ck,ck->k", w_hat, u_hat[touched])
    out.values[:] = np.fft.irfft(out_hat, n=nt, axis=-1)
    return out


def apply_F(p, grid, caches=None, run=None):
    """Forcing integrated along the curve (the affine part of the fixed
    point equation), one run of blocks at a time.  Given one run's curves
    (see `CurveCache.run_curve`), only on that run's blocks, an array of
    shape (len(run.nodes), nt): assembly integrates K and F along a run's
    curves as it builds them."""
    caches = caches if caches is not None else CurveCache(p, grid)
    if run is not None:
        return _run_forcing(p, grid, caches, run)
    out = zeros(grid, p.n)
    for j in range(1, p.n + 1):
        for nodes in caches.runs(j):
            run = caches.run_curve(j, nodes)
            out.values[j - 1, nodes.start : nodes.stop] = _run_forcing(p, grid, caches, run)
    return out


def stencil_block(p, grid, caches, j, nodes, run=None):
    """The traced time-node rows of the linear maps u -> (Ku)_j(x_i, .),
    for each x-node i of the run nodes (see CurveCache.runs), as weights on
    flattened node indices.  run is the run's curves, from
    CurveCache.run_curve(j, nodes), which are built here when not given.

    Returns one (cols, weights, dense) per node.  cols and weights, each
    of shape (rows, M), are the block's columns of the run's sparse parts
    (R, B and H), concatenated part by part, with row q holding the terms
    of (Ku)_j(x_i, t_q); a column may repeat within a row, and its
    weights add.  dense yields the block's G weights, (k, W) with W of
    shape (rows, nx * nt) on the nodes of u_k (see `_g_parts`), whose
    terms come after the sparse ones; it forms them as it is iterated,
    once.  rows is nt, or 1 when the period is nt: row q is then row 0
    with its t-indices moved by q.
    """
    rows = grid.nt // caches.period
    if run is None:
        run = caches.run_curve(j, nodes)
    parts, dense = _run_parts(p, grid, caches, run)
    parts = list(parts)
    out = []
    for b in range(len(nodes)):
        cols = [np.zeros((rows, 0), dtype=np.int64)]
        weights = [np.zeros((rows, 0))]
        for c, w, bounds in parts:
            cols.append(c[:, bounds[b] : bounds[b + 1]])
            weights.append(w[:, bounds[b] : bounds[b + 1]])
        out.append((np.concatenate(cols, axis=1), np.concatenate(weights, axis=1), dense[b]))
    return out
