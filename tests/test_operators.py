import dataclasses
import math

import numpy as np
import pytest

from phsolve import characteristics as ch
from phsolve import expr as ex
from phsolve import grid as gr
from phsolve import operators as op
from phsolve import problem as pb
from phsolve import problems

TWO_PI = 2.0 * math.pi


def build(n=1, m=1, **parts):
    data = {
        "n": n,
        "m": m,
        "a": parts.get("a", ["1"] * n),
        "b": parts.get("b", [["0"] * n for _ in range(n)]),
        "g": parts.get("g", [["0"] * n for _ in range(n)]),
        "h": parts.get("h", [["0"] * n for _ in range(n)]),
        "r": parts.get("r", [["0"] * n for _ in range(n)]),
        "f": parts.get("f", ["0"] * n),
    }
    if "volterra" in parts:
        data["volterra"] = parts["volterra"]
    return pb.from_dict(data)


def sample_pair(grid, sources):
    nodes = [ex.parse(s) for s in sources]
    return gr.sample_exprs(nodes, grid)


def rand_gf(grid, n, seed):
    rng = np.random.default_rng(seed)
    return gr.GridFunction(grid, rng.standard_normal((n, grid.nx, grid.nt)))


# --- zero cases and anchoring -----------------------------------------------


def test_operators_vanish_without_coefficients(resonant_problem):
    grid = gr.Grid(9, 8)
    u = rand_gf(grid, 2, 0)
    assert gr.sup_norm(op.apply_R(resonant_problem, grid, u)) == 0.0
    assert gr.sup_norm(op.apply_G(resonant_problem, grid, u)) == 0.0
    assert gr.sup_norm(op.apply_H(resonant_problem, grid, u)) == 0.0
    assert gr.sup_norm(op.apply_F(resonant_problem, grid)) == 0.0


def test_b_skips_diagonal():
    p = build(n=2, m=1, a=["1", "-1"], b=[["5", "0"], ["0", "-3*sin(t)"]])
    grid = gr.Grid(9, 8)
    assert gr.sup_norm(op.apply_B(p, grid, rand_gf(grid, 2, 1))) == 0.0


def test_b_empty_for_single_component():
    p = build(b=[["7"]])
    grid = gr.Grid(9, 8)
    assert gr.sup_norm(op.apply_B(p, grid, rand_gf(grid, 1, 2))) == 0.0


def test_anchoring_at_own_boundary(full_problem):
    grid = gr.Grid(17, 16)
    u = rand_gf(grid, 2, 3)
    for apply in (op.apply_B, op.apply_G, op.apply_H):
        out = apply(full_problem, grid, u)
        assert np.all(out.values[0, 0, :] == 0.0)
        assert np.all(out.values[1, -1, :] == 0.0)
    ff = op.apply_F(full_problem, grid)
    assert np.all(ff.values[0, 0, :] == 0.0)
    assert np.all(ff.values[1, -1, :] == 0.0)


# --- analytic oracles -------------------------------------------------------


def test_r_integrates_constant_boundary_kernel():
    p = build(r=[["1"]])
    grid = gr.Grid(17, 16)
    u = gr.GridFunction(grid, np.ones((1, grid.nx, grid.nt)))
    out = op.apply_R(p, grid, u)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-13


def test_r_weighs_kernel_against_state():
    # r(y,t) = y against u = y gives the integral of y^2 over [0,1];
    # composite trapezoid on nx nodes has the classical h^2/6 defect
    p = build(r=[["x"]])
    grid = gr.Grid(33, 8)
    u = gr.GridFunction(grid, np.broadcast_to(grid.xs[None, :, None], (1, grid.nx, grid.nt)).copy())
    out = op.apply_R(p, grid, u)
    h = grid.dx
    want = 1.0 / 3.0 + h * h / 6.0
    assert np.max(np.abs(out.values - want)) <= 1e-12


def test_g_volterra_double_integral():
    p = build(g=[["1"]])
    grid = gr.Grid(33, 8)
    u = gr.GridFunction(grid, np.ones((1, grid.nx, grid.nt)))
    out = op.apply_G(p, grid, u)
    want = -(grid.xs**2) / 2.0
    assert np.max(np.abs(out.values - want[None, :, None])) <= 1e-10


def test_g_fredholm_variant_integrates_full_interval():
    p = build(g=[["1"]], volterra=False)
    grid = gr.Grid(33, 8)
    u = gr.GridFunction(grid, np.ones((1, grid.nx, grid.nt)))
    out = op.apply_G(p, grid, u)
    want = -grid.xs
    assert np.max(np.abs(out.values - want[None, :, None])) <= 1e-10


@pytest.mark.parametrize("nx", [9, 24, 26])
def test_inner_weights_integrate_up_to_each_sample(full_problem, nx):
    # x_i * (nx-1) rounds off i at nx = 24 and 26, so node hits must still
    # close the last whole cell
    grid = gr.Grid(nx, 8)
    for volterra in (True, False):
        caches = op.CurveCache(dataclasses.replace(full_problem, volterra=volterra), grid)
        for j in (1, 2):
            for i in range(nx):
                xi = caches.curve(j, i).xi
                wi = caches.inner_weights(j, i)
                if not volterra:
                    assert np.array_equal(wi, np.broadcast_to(op.x_trapezoid(grid), wi.shape))
                    continue
                assert np.max(np.abs(wi.sum(1) - xi)) <= 1e-14
                assert np.max(np.abs(wi @ grid.xs - xi**2 / 2.0)) <= 1e-14


def test_h_transports_boundary_trace():
    p = build(h=[["1"]])
    grid = gr.Grid(33, 32)
    u = sample_pair(grid, ["x*sin(t)"])  # trace u(1,t) = sin(t)
    out = op.apply_H(p, grid, u)
    xg = grid.xs[:, None]
    tg = grid.ts[None, :]
    want = np.cos(tg - xg) - np.cos(tg)
    assert np.max(np.abs(out.values[0] - want)) <= 1e-4


def test_f_constant_forcing_exact():
    p = build(f=["1"])
    grid = gr.Grid(9, 8)
    out = op.apply_F(p, grid)
    assert np.max(np.abs(out.values[0] - grid.xs[:, None])) <= 1e-12


def test_f_with_diagonal_decay():
    p = build(b=[["1"]], f=["1"])
    grid = gr.Grid(33, 8)
    out = op.apply_F(p, grid)
    want = 1.0 - np.exp(-grid.xs)
    assert np.max(np.abs(out.values[0] - want[None, :, None].squeeze(0))) <= 1e-4


def test_b_reproduces_resonant_modes(resonant_problem):
    # along the equal-speed characteristics the mode phase is constant,
    # so B maps each explicit pair back to itself up to quadrature error
    grid = gr.Grid(33, 32)
    u = sample_pair(grid, problems.kernel_pair(1))
    out = op.apply_B(resonant_problem, grid, u)
    assert np.max(np.abs(out.values - u.values)) <= 5e-3


def test_b_matches_dense_quadrature_oracle(resonant_problem):
    # direct high-resolution trapezoid along the exact characteristic at
    # two probe nodes, including the far corner (x=1, t=0)
    grid = gr.Grid(33, 32)
    u = sample_pair(grid, problems.kernel_pair(2))
    out = op.apply_B(resonant_problem, grid, u)
    u1, u2 = [ex.parse(s) for s in problems.kernel_pair(2)]
    a = 2.0 / math.pi
    for j, i, q in [(1, grid.nx - 1, 0), (1, 20, 5), (2, 7, 11)]:
        x = float(grid.xs[i])
        t = float(grid.ts[q])
        xi = np.linspace(0.0 if j == 1 else 1.0, x, 100_000)
        omega = t + (xi - x) / a
        if j == 1:
            integrand = (1.0 / a) * (-1.0) * ex.evaluate(u2, xi, omega)
        else:
            integrand = (1.0 / a) * (+1.0) * ex.evaluate(u1, xi, omega)
        want = -np.trapezoid(integrand, xi)
        assert abs(out.values[j - 1, i, q] - want) <= 2e-3


# --- structural properties --------------------------------------------------


def test_linearity(full_problem):
    grid = gr.Grid(9, 8)
    caches = op.CurveCache(full_problem, grid)
    u = rand_gf(grid, 2, 10)
    v = rand_gf(grid, 2, 11)
    alpha, beta = 0.7, -1.3
    mix = gr.GridFunction(grid, alpha * u.values + beta * v.values)
    got = op.apply_K(full_problem, grid, mix, caches)
    want = alpha * op.apply_K(full_problem, grid, u, caches).values
    want += beta * op.apply_K(full_problem, grid, v, caches).values
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got.values - want)) <= 1e-12 * scale


def test_apply_is_deterministic(full_problem):
    grid = gr.Grid(9, 8)
    u = rand_gf(grid, 2, 12)
    first = op.apply_K(full_problem, grid, u)
    second = op.apply_K(full_problem, grid, u)
    assert np.array_equal(first.values, second.values)


def test_shift_equivariance_for_autonomous_coefficients():
    # time-independent coefficients: advancing the state by one time cell
    # and applying the operators must agree with applying then advancing
    p = build(
        n=2,
        m=1,
        a=["1/(1+x)", "-2"],
        b=[["0.2", "0.4"], ["-0.3", "0.1"]],
        g=[["0.3", "0"], ["0.1", "0.2"]],
        h=[["0.1", "0.3"], ["0.2", "0.1"]],
        r=[["0.5", "0"], ["0.25", "0.1"]],
    )
    grid = gr.Grid(9, 16)
    u = gr.GridFunction(
        grid,
        np.stack(
            [
                np.sin(grid.xs[:, None] + grid.ts[None, :]),
                np.cos(2.0 * grid.ts[None, :]) * (1.0 - grid.xs[:, None]),
            ]
        ),
    )
    caches = op.CurveCache(p, grid)
    shifted = gr.GridFunction(grid, np.roll(u.values, -1, axis=2))
    lhs = op.apply_K(p, grid, shifted, caches)
    rhs = np.roll(op.apply_K(p, grid, u, caches).values, -1, axis=2)
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-10


# --- stencils ---------------------------------------------------------------


def test_stencil_empty_for_zero_problem():
    p = build()
    grid = gr.Grid(9, 8)
    caches = op.CurveCache(p, grid)
    st = op.stencil_row(p, grid, caches, 1, 4, 3)
    assert st.indices.size == 0
    assert st.constant == 0.0


def test_stencil_matches_apply_on_random_functions(full_problem):
    grid = gr.Grid(9, 8)
    caches = op.CurveCache(full_problem, grid)
    nodes = [(1, 0, 0), (1, 4, 3), (1, 8, 7), (2, 0, 5), (2, 4, 0), (2, 8, 2)]
    stencils = {node: op.stencil_row(full_problem, grid, caches, *node) for node in nodes}
    for seed in range(20):
        u = rand_gf(grid, 2, 100 + seed)
        flat = u.values.reshape(-1)
        ku = op.apply_K(full_problem, grid, u, caches)
        for (j, i, q), st in stencils.items():
            want = ku.values[j - 1, i, q]
            got = st.dot(flat)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_stencil_constant_carries_forcing(full_problem):
    grid = gr.Grid(9, 8)
    caches = op.CurveCache(full_problem, grid)
    ff = op.apply_F(full_problem, grid, caches)
    st = op.stencil_row(full_problem, grid, caches, 2, 6, 1)
    assert st.constant == pytest.approx(ff.values[1, 6, 1], abs=1e-13)


def test_stencil_indices_are_valid_and_unique(full_problem):
    grid = gr.Grid(9, 8)
    caches = op.CurveCache(full_problem, grid)
    st = op.stencil_row(full_problem, grid, caches, 1, 5, 2)
    assert st.indices.size > 0
    assert len(np.unique(st.indices)) == st.indices.size
    assert np.all(st.indices >= 0) and np.all(st.indices < 2 * grid.nx * grid.nt)
    assert np.all(np.isfinite(st.weights))


def test_curve_cache_is_shared(full_problem):
    grid = gr.Grid(9, 8)
    caches = op.CurveCache(full_problem, grid)
    assert caches.curve(1, 5) is caches.curve(1, 5)
    assert caches.inner_weights(2, 3) is caches.inner_weights(2, 3)


@pytest.mark.parametrize(
    "case", [*problems.BUILTINS, "all-pieces-volterra", "all-pieces-fredholm"]
)
def test_cache_sweep_matches_single_curve_trace(case, full_problem):
    # the cache traces a whole component at once; every block must equal
    # the curve traced on its own from each anchor, bit for bit
    if case in problems.BUILTINS:
        p = problems.get_builtin(case)
    else:
        p = dataclasses.replace(full_problem, volterra=case.endswith("-volterra"))
    grid = gr.Grid(17, 16)
    caches = op.CurveCache(p, grid)
    for j in range(1, p.n + 1):
        for i, x in enumerate(grid.xs):
            cur = caches.curve(j, i)
            for q, t in enumerate(grid.ts):
                one = ch.trace(p, j, x, t, p.bc_side(j), cells=grid.nx - 1)
                assert np.array_equal(cur.xi, one.xi)
                assert np.array_equal(cur.times[q], one.times)
                assert np.array_equal(cur.gain[q], one.gain)
                assert np.array_equal(cur.weight[q], one.weight)


def test_unit_gain_is_not_stored(full_problem):
    grid = gr.Grid(9, 8)
    plain = op.CurveCache(problems.example13(), grid).curve(1, 4)
    assert plain.gain.strides == (0, 0) and np.all(plain.gain == 1.0)
    live = op.CurveCache(full_problem, grid).curve(1, 4)
    assert live.gain.strides != (0, 0)
    assert live.gain.shape == live.times.shape and np.any(live.gain != 1.0)
