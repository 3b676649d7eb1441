"""Characteristic curves of the hyperbolic system.

The curve of component j through the anchor (x, t) assigns to every space
position xi the crossing time omega(xi), solving

    d omega / d xi = 1 / speed_j(xi, omega),   omega(x) = t.

Along the curve two weights accumulate: the gain

    c(xi) = exp( integral_x^xi  diag_coupling_j / speed_j ),

which transports boundary data, and the integrand weight d = c / speed_j
used by every quadrature along the curve.  Tracing is classical RK4 with a
fixed step tied to the target grid resolution; the gain exponent is
integrated with the same stages.  One function, trace_arrays, does all
tracing: it advances a batch of anchor positions and times together, one
expression evaluation per stage for the whole batch, while each position
keeps the steps it would take alone.  The operators trace every node of a
component in one call; trace, the time partials and the inversions call
it with a single position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .grid import RangeError
from .problem import SPEED_FLOOR

DEFAULT_CELLS = 128
DEFAULT_SUBSTEPS = 4


class TraceError(ArithmeticError):
    """Speed degenerated (|speed| < 1e-10) or changed sign along the curve,
    or the curve gain overflowed."""


@dataclass
class CharacteristicCurve:
    """Sampled curve: arrays xi, times, gain, weight share one length and
    run from the anchor x toward the requested end position."""

    j: int
    x: float
    t: float
    xi: np.ndarray
    times: np.ndarray
    gain: np.ndarray
    weight: np.ndarray


def _speed_at(p, j, xi, om, sign=None):
    """Speed of component j at (xi, om), where om has the full shape of the
    stage.  With sign (the speed's sign at each anchor) a stage must keep
    that sign, not just stay off zero; the error names the position of the
    first element that does not."""
    val = ex.evaluate(p.speeds[j - 1], xi, om)
    margin = np.abs(val) if sign is None else val * sign
    if np.min(margin) < SPEED_FLOOR:
        bad = (margin < SPEED_FLOOR).argmax()
        raise TraceError(
            f"speed of component {j} vanishes or changes sign near "
            f"xi={float(np.broadcast_to(xi, om.shape).flat[bad]):.6g}"
        )
    return val


def _step_count(span, cells):
    if span <= 0.0:
        return 0
    return max(1, int(math.ceil(span * cells - 1e-9)))


def trace_arrays(p, j, x, t, xi_end, cells, substeps):
    """Vectorized RK4 trace of a batch of anchors toward the position xi_end.

    x holds P anchor positions and t, shape (Q,), the anchor times shared by
    all of them (scalars count as one).  Returns lists (xi, times, gain,
    weight) over the positions: xi[k] has shape (S_k+1,) and the rest
    (Q, S_k+1), with sample 0 at the anchor.  Each position keeps the step
    count, step and lattice of a trace of its own, so its samples do not
    depend on the batch.  The positions step together, longest first, and
    each RK4 stage is one evaluation over the positions still stepping.
    The arrays are views into exact-size node-major buffers; without a
    diagonal coupling the gain is a read-only broadcast of 1.0.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nq = t.shape[0]
    totals = np.array([substeps * _step_count(abs(xi_end - v), cells) for v in xs])
    lengths = totals + 1
    start = np.concatenate([[0], np.cumsum(lengths)])
    h = (xi_end - xs) / np.maximum(totals, 1)
    xi_all = np.empty(start[-1])
    for k, v in enumerate(xs):
        xi_k = xi_all[start[k] : start[k + 1]]
        xi_k[:] = v + h[k] * np.arange(lengths[k])
        xi_k[-1] = xi_end
    diag = p.coupling[j - 1][j - 1]
    with_gain = not ex.is_zero(diag)
    # sample s of anchor (k, q) sits at nq*start[k] + q*lengths[k] + s; the
    # rows below are in stepping order, so the positions still stepping
    # are always a prefix
    order = np.argsort(-totals, kind="stable")
    steps = totals[order]
    first = start[:-1][order]
    hs = h[order][:, None]
    rows = (nq * first)[:, None] + np.arange(nq)[None, :] * lengths[order][:, None]
    times = np.empty(nq * start[-1])
    avals = np.empty_like(times)
    logc = np.empty_like(times) if with_gain else None
    om = np.broadcast_to(t, rows.shape)
    a1 = _speed_at(p, j, xs[order][:, None], om)
    sign = np.sign(a1)
    times[rows] = om
    avals[rows] = a1
    lg = np.zeros(om.shape)
    if with_gain:
        logc[rows] = 0.0
    # a constant speed that passed the anchors' check passes every stage's:
    # every slope of every step is the anchors' 1 / a1
    speed = p.speeds[j - 1]
    varying = ex.mentions(speed, "x") or ex.mentions(speed, "t")
    # stepping[s]: the positions that take step s, a prefix since the steps
    # are in descending order
    stepping = np.searchsorted(-steps, -np.arange(steps[0]), side="left")
    for s, a in enumerate(stepping.tolist()):
        om, lg, a1, sign, hh = om[:a], lg[:a], a1[:a], sign[:a], hs[:a]
        x0 = xi_all[first[:a] + s][:, None]
        x1 = xi_all[first[:a] + s + 1][:, None]
        xm = x0 + 0.5 * hh
        k1 = k2 = k3 = k4 = 1.0 / a1
        if varying:
            k2 = 1.0 / _speed_at(p, j, xm, om + 0.5 * hh * k1, sign)
            k3 = 1.0 / _speed_at(p, j, xm, om + 0.5 * hh * k2, sign)
            k4 = 1.0 / _speed_at(p, j, x1, om + hh * k3, sign)
        if with_gain:
            l1 = ex.evaluate(diag, x0, om) * k1
            l2 = ex.evaluate(diag, xm, om + 0.5 * hh * k1) * k2
            l3 = ex.evaluate(diag, xm, om + 0.5 * hh * k2) * k3
            l4 = ex.evaluate(diag, x1, om + hh * k3) * k4
            lg = lg + (hh / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        om = om + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if varying:
            # first stage of the next step, or the speed at the end sample
            a1 = _speed_at(p, j, x1, om, sign)
        at = rows[:a] + (s + 1)
        times[at] = om
        avals[at] = a1
        if with_gain:
            logc[at] = lg
    if with_gain:
        with np.errstate(over="ignore"):
            gain = np.exp(logc, out=logc)
            weight = np.divide(gain, avals, out=avals)
        # a gain that is not finite leaves its weight not finite
        if not np.all(np.isfinite(weight)):
            raise TraceError(f"gain of component {j} overflows along its curves")
    else:
        weight = np.divide(1.0, avals, out=avals)
    out = ([], [], [], [])
    for k, n in enumerate(lengths):
        block = slice(nq * start[k], nq * start[k + 1])
        unit = np.broadcast_to(1.0, (nq, n))
        out[0].append(xi_all[start[k] : start[k + 1]])
        out[1].append(times[block].reshape(nq, n))
        out[2].append(gain[block].reshape(nq, n) if with_gain else unit)
        out[3].append(weight[block].reshape(nq, n))
    return out


def trace(p, j, x, t, xi_end, cells=DEFAULT_CELLS):
    """Trace the curve of component j (numbered from 1) from anchor (x, t)
    to the position xi_end.  Both positions must lie in [0, 1]."""
    for name, v in (("x", x), ("xi_end", xi_end)):
        if not -1e-12 <= v <= 1.0 + 1e-12:
            raise RangeError(f"{name}={v!r} outside [0, 1]")
    xi, times, gain, weight = trace_arrays(p, j, x, float(t), xi_end, cells, DEFAULT_SUBSTEPS)
    return CharacteristicCurve(
        j, float(x), float(t), xi[0], times[0][0], gain[0][0], weight[0][0]
    )


def _merged_span(p, j, x, t, cells):
    """Samples of the full curve across [0, 1] through (x, t), ordered by
    ascending xi.  Returns (xi, times) flat arrays."""
    (xi_l,), (tm_l,), _, _ = trace_arrays(p, j, x, t, 0.0, cells, DEFAULT_SUBSTEPS)
    (xi_r,), (tm_r,), _, _ = trace_arrays(p, j, x, t, 1.0, cells, DEFAULT_SUBSTEPS)
    xi = np.concatenate([xi_l[::-1], xi_r[1:]])
    tm = np.concatenate([tm_l[0, ::-1], tm_r[0, 1:]])
    return xi, tm


def _directed_trapezoid(values, nodes):
    """Trapezoid sum along the stored sample order (signed increments)."""
    if len(nodes) < 2:
        return 0.0
    dx = np.diff(nodes)
    return float(np.sum(0.5 * (values[..., 1:] + values[..., :-1]) * dx, axis=-1))


def _crossing_exponent(p, j, curve):
    """exp of integral from the curve end back to the anchor of
    (dt speed) / speed^2 along the samples."""
    integrand = ex.evaluate(p.speed_dt(j), curve.xi, curve.times) / np.square(
        ex.evaluate(p.speeds[j - 1], curve.xi, curve.times)
    )
    # stored order integrates from x toward xi; the identity wants xi -> x
    return math.exp(-_directed_trapezoid(integrand, curve.xi))


def time_partial_t(p, j, xi, x, t, cells=DEFAULT_CELLS):
    """Sensitivity of the crossing time at xi to the anchor time t:
    exp( integral_xi^x (dt speed)/speed^2 along the curve )."""
    curve = trace(p, j, x, t, xi, cells)
    return _crossing_exponent(p, j, curve)


def time_partial_x(p, j, xi, x, t, cells=DEFAULT_CELLS):
    """Sensitivity of the crossing time at xi to the anchor position x;
    equals -time_partial_t / speed(x, t)."""
    curve = trace(p, j, x, t, xi, cells)
    return -_crossing_exponent(p, j, curve) / ex.evaluate(p.speeds[j - 1], x, t)


def _invert_on_samples(p, j, xi, tm, z, target=1e-12):
    """Position where the sampled curve crosses time z (bracketed Newton)."""
    increasing = tm[-1] >= tm[0]
    lo_t, hi_t = (tm[0], tm[-1]) if increasing else (tm[-1], tm[0])
    slack = 1e-10 * (1.0 + abs(hi_t - lo_t))
    if z < lo_t - slack or z > hi_t + slack:
        raise RangeError(
            f"time {z!r} outside the curve range [{float(lo_t)!r}, {float(hi_t)!r}]"
        )
    zc = min(max(z, lo_t), hi_t)
    key = tm if increasing else -tm
    idx = int(np.searchsorted(key, zc if increasing else -zc))
    idx = min(max(idx, 1), len(tm) - 1)
    lo, hi = xi[idx - 1], xi[idx]
    t_lo, t_hi = tm[idx - 1], tm[idx]
    if t_hi == t_lo:
        return float(lo)
    cur = lo + (zc - t_lo) / (t_hi - t_lo) * (hi - lo)
    best = cur
    best_res = math.inf
    for _ in range(80):
        near = int(np.searchsorted(xi, cur))
        near = min(max(near, 0), len(xi) - 1)
        if near > 0 and abs(xi[near - 1] - cur) < abs(xi[near] - cur):
            near -= 1
        # continue the curve from the nearest sample by one RK4 step of two
        # substeps (one cell spans any distance within [0, 1])
        om = float(trace_arrays(p, j, xi[near], tm[near], cur, 1, 2)[1][0][0, -1])
        res = om - zc
        if abs(res) < abs(best_res):
            best, best_res = cur, res
        if abs(res) <= target:
            return float(cur)
        if increasing == (res > 0):
            hi = cur
        else:
            lo = cur
        speed = ex.evaluate(p.speeds[j - 1], cur, om)
        nxt = cur - res * speed
        if not (min(lo, hi) <= nxt <= max(lo, hi)):
            nxt = 0.5 * (lo + hi)
        if nxt == cur:
            break
        cur = nxt
    if abs(best_res) <= 1e-11:
        return float(best)
    raise ArithmeticError(
        f"time inversion stalled at residual {best_res:.3e} for z={z!r}"
    )


def invert_time(p, j, z, x, t, cells=DEFAULT_CELLS):
    """Position xi at which the curve through (x, t) has crossing time z.
    z must lie between the crossing times of the two endpoints."""
    xi, tm = _merged_span(p, j, x, float(t), cells)
    pos = _invert_on_samples(p, j, xi, tm, float(z))
    return float(min(max(pos, 0.0), 1.0))


def invert_time_derivative(p, k, tau, x, t, cells=DEFAULT_CELLS):
    """Derivative of invert_time with respect to the time argument: the
    speed at the inverse point, since the curve moves in x at speed a_k.
    Carries the sign of the speed."""
    pos = invert_time(p, k, tau, x, t, cells)
    return ex.evaluate(p.speeds[k - 1], pos, float(tau))
