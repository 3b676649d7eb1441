import math
import re

import numpy as np
import pytest

from phsolve import characteristics as ch
from phsolve import expr as ex
from phsolve import problem as pb
from phsolve.grid import Grid, RangeError
from phsolve.operators import CurveCache

TWO_PI = 2.0 * math.pi


def one_component(a, b="0"):
    return pb.from_dict(
        {
            "n": 1,
            "m": 1,
            "a": [a],
            "b": [[b]],
            "g": [["0"]],
            "h": [["0"]],
            "r": [["0"]],
            "f": ["0"],
        }
    )


@pytest.fixture(scope="module")
def wavy():
    return one_component("2+0.3*sin(x+t)")


# --- exact cases ------------------------------------------------------------


def test_constant_speed_crossing_times(resonant_problem):
    a = 2.0 / math.pi
    curve = ch.trace(resonant_problem, 1, 0.7, 1.0, 0.2, cells=16)
    want = 1.0 + (curve.xi - 0.7) / a
    assert np.max(np.abs(curve.times - want)) <= 1e-12
    assert curve.xi[0] == 0.7 and curve.xi[-1] == 0.2
    assert curve.times[0] == 1.0


def test_constant_speed_weights_exact(resonant_problem):
    curve = ch.trace(resonant_problem, 2, 0.1, 0.5, 1.0, cells=16)
    assert np.max(np.abs(curve.gain - 1.0)) == 0.0
    assert np.max(np.abs(curve.weight - math.pi / 2.0)) <= 1e-12


def test_constant_speed_inversion_exact(resonant_problem):
    a = 2.0 / math.pi
    x, t = 0.25, 2.0
    for xi in (0.0, 0.4, 1.0):
        z = t + (xi - x) / a
        got = ch.invert_time(resonant_problem, 1, z, x, t)
        assert abs(got - xi) <= 1e-12


def test_constant_speed_inverse_derivative_exact(resonant_problem):
    got = ch.invert_time_derivative(resonant_problem, 1, 2.5, 0.25, 2.0)
    assert abs(got - 2.0 / math.pi) <= 1e-12


def test_constant_negative_speed():
    p = one_component("-1", b="0")
    curve = ch.trace(p, 1, 0.2, 0.0, 0.9, cells=8)
    want = 0.0 + (curve.xi - 0.2) / (-1.0)
    assert np.max(np.abs(curve.times - want)) <= 1e-12
    assert abs(ch.invert_time_derivative(p, 1, -0.3, 0.2, 0.0) - (-1.0)) <= 1e-12


def test_constant_diagonal_gain():
    # with unit speed and unit diagonal coupling the weight accumulates
    # to exp(xi - x)
    p = one_component("1", b="1")
    curve = ch.trace(p, 1, 0.8, 0.3, 0.1, cells=16)
    want = np.exp(curve.xi - 0.8)
    assert np.max(np.abs(curve.gain - want)) <= 1e-12
    assert np.max(np.abs(curve.weight - want)) <= 1e-12
    assert np.all(curve.gain > 0.0)


@pytest.mark.parametrize("a, b", [("2/pi", "0"), ("-1/3", "0.5*sin(t)")])
def test_constant_speed_is_evaluated_once_per_trace(monkeypatch, a, b):
    # a speed that mentions neither x nor t is evaluated at the anchors
    # only; the curves equal those of a twin that mentions x, whose speed
    # is evaluated at every RK4 stage
    p, twin = one_component(a, b), one_component(f"{a}+0*x", b)
    calls = []
    evaluate = ex.evaluate

    def counted(node, *args):
        calls.append(node)
        return evaluate(node, *args)

    monkeypatch.setattr(ex, "evaluate", counted)
    grid = Grid(17, 16)
    side = 0.0 if a.startswith("-") else 1.0
    got = ch.trace_arrays(p, 1, grid.xs, grid.ts, side, grid.nx - 1, ch.DEFAULT_SUBSTEPS)
    assert calls.count(p.speeds[0]) == 1
    want = ch.trace_arrays(twin, 1, grid.xs, grid.ts, side, grid.nx - 1, ch.DEFAULT_SUBSTEPS)
    assert calls.count(twin.speeds[0]) > 4 * (grid.nx - 1)
    for got_arrays, want_arrays in zip(got, want):
        for g, w in zip(got_arrays, want_arrays):
            assert np.array_equal(g, w)


def test_space_dependent_speed_quadratic_oracle():
    # speed 1/(1+x) gives dt/dxi = 1+xi, so the crossing time is the
    # quadratic t + (xi-x) + (xi^2-x^2)/2 and the weight is 1+xi
    p = one_component("1/(1+x)")
    x, t = 0.15, 0.8
    curve = ch.trace(p, 1, x, t, 1.0, cells=32)
    want = t + (curve.xi - x) + (curve.xi**2 - x**2) / 2.0
    assert np.max(np.abs(curve.times - want)) <= 1e-10
    assert np.max(np.abs(curve.weight - (1.0 + curve.xi))) <= 1e-10
    assert np.max(np.abs(curve.gain - 1.0)) == 0.0


def test_zero_span_curve(resonant_problem):
    curve = ch.trace(resonant_problem, 1, 0.5, 1.0, 0.5)
    assert curve.xi.shape == (1,)
    assert curve.times[0] == 1.0
    assert curve.gain[0] == 1.0
    assert curve.weight[0] == pytest.approx(math.pi / 2.0, abs=1e-15)


# --- structural properties --------------------------------------------------


def test_weight_is_gain_over_speed(wavy):
    curve = ch.trace(wavy, 1, 0.9, 2.5, 0.05, cells=32)
    speeds = ex.evaluate(wavy.speeds[0], curve.xi, curve.times)
    assert np.array_equal(curve.weight, curve.gain / speeds)


def test_semigroup_property(wavy):
    x, t = 0.1, 0.4
    mid, end = 0.55, 0.95
    direct = ch.trace(wavy, 1, x, t, end, cells=64).times[-1]
    stage = ch.trace(wavy, 1, x, t, mid, cells=64)
    relay = ch.trace(wavy, 1, mid, float(stage.times[-1]), end, cells=64).times[-1]
    assert abs(direct - relay) <= 1e-9


def test_time_periodicity(wavy):
    base = ch.trace(wavy, 1, 0.3, 1.1, 0.9, cells=32)
    shifted = ch.trace(wavy, 1, 0.3, 1.1 + TWO_PI, 0.9, cells=32)
    assert np.max(np.abs(shifted.times - base.times - TWO_PI)) <= 1e-10
    assert np.max(np.abs(shifted.gain - base.gain)) <= 1e-12


def test_trace_rejects_positions_outside_unit_interval(resonant_problem):
    with pytest.raises(RangeError):
        ch.trace(resonant_problem, 1, -0.2, 0.0, 0.5)
    with pytest.raises(RangeError):
        ch.trace(resonant_problem, 1, 0.2, 0.0, 1.5)


def test_trace_error_on_degenerate_speed():
    p = one_component("1/100000000000")
    with pytest.raises(ch.TraceError):
        ch.trace(p, 1, 0.0, 0.0, 1.0, cells=4)


def test_trace_error_on_speed_changing_sign_between_samples():
    # positive at every validation sample, negative on (0.51, 0.52); no
    # stage lands within the floor of a zero, so only the sign tells
    p = one_component("(x-0.51)*(x-0.52)")
    for x, xi_end in ((0.0, 1.0), (1.0, 0.0), (0.515, 1.0)):
        with pytest.raises(ch.TraceError, match="changes sign"):
            ch.trace_arrays(p, 1, x, np.array([0.0, 3.0]), xi_end, 128, 4)
    # a sweep over all x-nodes names where the check failed, not where the
    # first anchor of the batch happens to be
    with pytest.raises(ch.TraceError, match="changes sign") as err:
        CurveCache(p, Grid(17, 16)).curve(1, 0)
    assert 0.50 <= float(re.search(r"xi=(\S+)", str(err.value)).group(1)) <= 0.53


def test_invert_time_round_trip(wavy):
    x, t = 0.2, 1.0
    curve = ch.trace(wavy, 1, x, t, 0.9, cells=64)
    z = float(curve.times[-1])
    assert abs(ch.invert_time(wavy, 1, z, x, t) - 0.9) <= 1e-10
    assert ch.invert_time(wavy, 1, t, x, t) == pytest.approx(x, abs=1e-10)


def test_invert_time_out_of_range(wavy):
    with pytest.raises(RangeError):
        ch.invert_time(wavy, 1, 100.0, 0.5, 0.0)


# --- derivative identities vs finite differences ----------------------------

FD = 1e-5


def crossing_time(p, xi, x, t):
    return float(ch.trace(p, 1, x, t, xi, cells=64).times[-1])


def test_partial_t_matches_fd(wavy):
    for xi, x, t in [(0.9, 0.2, 1.0), (0.1, 0.7, 4.0)]:
        fd = (crossing_time(wavy, xi, x, t + FD) - crossing_time(wavy, xi, x, t - FD)) / (2 * FD)
        got = ch.time_partial_t(wavy, 1, xi, x, t, cells=64)
        assert abs(got - fd) / abs(fd) <= 1e-6


def test_partial_x_matches_fd(wavy):
    for xi, x, t in [(0.9, 0.2, 1.0), (0.1, 0.7, 4.0)]:
        fd = (crossing_time(wavy, xi, x + FD, t) - crossing_time(wavy, xi, x - FD, t)) / (2 * FD)
        got = ch.time_partial_x(wavy, 1, xi, x, t, cells=64)
        assert abs(got - fd) / abs(fd) <= 1e-6


def test_inverse_derivative_matches_fd(wavy):
    x, t = 0.3, 1.5
    z = crossing_time(wavy, 0.8, x, t)
    fd = (
        ch.invert_time(wavy, 1, z + FD, x, t, cells=64)
        - ch.invert_time(wavy, 1, z - FD, x, t, cells=64)
    ) / (2 * FD)
    got = ch.invert_time_derivative(wavy, 1, z, x, t, cells=64)
    assert abs(got - fd) / abs(fd) <= 1e-6


def test_inverse_derivative_carries_speed_sign():
    p = one_component("-1-x/2")
    x, t = 0.4, 0.7
    z = float(ch.trace(p, 1, x, t, 0.9, cells=32).times[-1])
    got = ch.invert_time_derivative(p, 1, z, x, t)
    assert got < 0.0
