"""End-to-end acceptance checks, one test per criterion.

Run with -v to get a pass/fail line per criterion; each test also prints
the measured numbers it judged.  The decompositions on the three grids
are shared through module fixtures: the resonant demo's full spectrum
comes from its Fourier blocks in t, the well-posed problem's edges from
LU factors of its dense matrix.
"""

import math
import time

import numpy as np
import pytest

from phsolve import characteristics as ch
from phsolve import expr as ex
from phsolve import fredholm as fr
from phsolve import grid as gr
from phsolve import operators as op
from phsolve import problem as pb
from phsolve import problems

from corpus import CORPUS, box_of, diff_ok

GRIDS = [(17, 16), (33, 32), (65, 64)]


@pytest.fixture(scope="module")
def resonant_sigma(resonant_problem):
    out = {}
    for nx, nt in GRIDS:
        matrix = fr.assemble(resonant_problem, gr.Grid(nx, nt))
        out[(nx, nt)] = fr.singular_spectrum(matrix)
    return out


@pytest.fixture(scope="module")
def manufactured_reports(manufactured_problem):
    out = {}
    for nx, nt in GRIDS:
        matrix = fr.assemble(manufactured_problem, gr.Grid(nx, nt))
        out[(nx, nt)] = fr.solve_alternative(matrix)
    return out


def observed_orders(values):
    return [math.log2(a / b) for a, b in zip(values, values[1:])]


def test_criterion_01_explicit_modes_have_converging_residuals(resonant_problem):
    started = time.perf_counter()
    finest = []
    all_orders = []
    for l in (1, 2, 3):
        nodes = [ex.parse(s) for s in problems.kernel_pair(l)]
        values = []
        for nx, nt in GRIDS:
            grid = gr.Grid(nx, nt)
            u = gr.sample_exprs(nodes, grid)
            values.append(fr.residual(resonant_problem, grid, u))
        orders = observed_orders(values)
        print(
            f"criterion 1 l={l}: residuals "
            + " ".join(f"{v:.3e}" for v in values)
            + " orders "
            + " ".join(f"{o:.2f}" for o in orders)
        )
        finest.append(values[-1])
        all_orders.extend(orders)
    elapsed = time.perf_counter() - started
    print(
        "criterion 1: finest residuals "
        + " ".join(f"{v:.3e}" for v in finest)
        + f" wall {elapsed:.1f}s"
    )
    assert all(o >= 1.8 for o in all_orders)
    assert all(v <= 5e-3 for v in finest)
    assert elapsed <= 60.0


def test_criterion_02_resonance_signature(resonant_sigma, manufactured_reports):
    res_min = [float(resonant_sigma[key][-1]) for key in GRIDS]
    man_min = [manufactured_reports[key].sigma_min for key in GRIDS]
    spread = (max(man_min) - min(man_min)) / max(man_min)
    print(
        "criterion 2: resonant sigma_min "
        + " ".join(f"{v:.3e}" for v in res_min)
        + " | well-posed sigma_min "
        + " ".join(f"{v:.3e}" for v in man_min)
        + f" spread {100 * spread:.1f}%"
    )
    assert res_min[0] > res_min[1] > res_min[2]
    assert res_min[-1] <= 1e-2
    assert spread <= 0.20
    assert min(man_min) >= 1e-2


def test_criterion_03_manufactured_convergence(manufactured_reports):
    nodes = [ex.parse(s) for s in problems.MANUFACTURED_EXACT]
    errors = []
    for nx, nt in GRIDS:
        report = manufactured_reports[(nx, nt)]
        target = gr.sample_exprs(nodes, report.solution.grid)
        gap = gr.GridFunction(report.solution.grid, report.solution.values - target.values)
        errors.append(gr.sup_norm(gap))
        assert report.unique is True
    orders = observed_orders(errors)
    print(
        "criterion 3: sup errors "
        + " ".join(f"{v:.3e}" for v in errors)
        + " orders "
        + " ".join(f"{o:.2f}" for o in orders)
    )
    assert all(o >= 1.8 for o in orders)
    assert errors[-1] <= 1e-3


def test_criterion_04_characteristic_exactness(resonant_problem):
    worst = 0.0
    a = 2.0 / math.pi
    for x, t, xi_end in [(0.7, 1.0, 0.0), (0.0, 4.4, 1.0), (0.3, 0.1, 0.8)]:
        curve = ch.trace(resonant_problem, 1, x, t, xi_end)
        worst = max(worst, float(np.max(np.abs(curve.times - (t + (curve.xi - x) / a)))))
        worst = max(worst, float(np.max(np.abs(curve.gain - 1.0))))
        worst = max(worst, float(np.max(np.abs(curve.weight - 1.0 / a))))
        for xi in (0.0, 0.45, 1.0):
            z = t + (xi - x) / a
            worst = max(worst, abs(ch.invert_time(resonant_problem, 1, z, x, t) - xi))
        worst = max(
            worst, abs(ch.invert_time_derivative(resonant_problem, 1, t, x, t) - a)
        )
    decaying = pb.from_dict(
        {
            "n": 1, "m": 1, "a": ["1"], "b": [["1"]], "g": [["0"]],
            "h": [["0"]], "r": [["0"]], "f": ["0"],
        }
    )
    curve = ch.trace(decaying, 1, 0.9, 0.2, 0.1)
    worst = max(worst, float(np.max(np.abs(curve.gain - np.exp(curve.xi - 0.9)))))
    worst = max(worst, float(np.max(np.abs(curve.weight - np.exp(curve.xi - 0.9)))))
    print(f"criterion 4: constant-speed worst deviation {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_05_derivative_identities():
    wavy = pb.from_dict(
        {
            "n": 1, "m": 1, "a": ["2+0.3*sin(x+t)"], "b": [["0"]], "g": [["0"]],
            "h": [["0"]], "r": [["0"]], "f": ["0"],
        }
    )
    h = 1e-5

    def omega(xi, x, t):
        return float(ch.trace(wavy, 1, x, t, xi).times[-1])

    worst = 0.0
    for xi, x, t in [(0.9, 0.2, 1.0), (0.1, 0.7, 4.0), (1.0, 0.05, 2.5)]:
        fd_t = (omega(xi, x, t + h) - omega(xi, x, t - h)) / (2 * h)
        got_t = ch.time_partial_t(wavy, 1, xi, x, t)
        worst = max(worst, abs(got_t - fd_t) / abs(fd_t))
        fd_x = (omega(xi, x + h, t) - omega(xi, x - h, t)) / (2 * h)
        got_x = ch.time_partial_x(wavy, 1, xi, x, t)
        worst = max(worst, abs(got_x - fd_x) / abs(fd_x))
    for x, t, xi in [(0.3, 1.5, 0.8), (0.6, 5.0, 0.2)]:
        z = omega(xi, x, t)
        fd_z = (
            ch.invert_time(wavy, 1, z + h, x, t) - ch.invert_time(wavy, 1, z - h, x, t)
        ) / (2 * h)
        got_z = ch.invert_time_derivative(wavy, 1, z, x, t)
        worst = max(worst, abs(got_z - fd_z) / abs(fd_z))
    print(f"criterion 5: worst relative gap vs finite differences {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_06_coupling_screen(resonant_problem):
    grid = gr.Grid(17, 16)
    resonant = fr.check_levy(resonant_problem, grid)
    failing = {(pr.j, pr.k) for pr in resonant.pairs if not pr.passed}
    clean = fr.check_levy(problems.get_builtin("levy-pass"), grid)
    diag_only = []
    for name, _ in problems.list_builtins():
        p = problems.get_builtin(name)
        off = [
            p.coupling[j][k]
            for j in range(p.n)
            for k in range(p.n)
            if j != k
        ]
        if all(ex.is_zero(e) for e in off):
            diag_only.append((name, fr.check_levy(p, grid).passed))
    print(
        f"criterion 6: resonant failing pairs {sorted(failing)}, "
        f"gap-scaled demo passed {clean.passed}, diagonal-only builtins {diag_only}"
    )
    assert failing == {(1, 2), (2, 1)}
    assert resonant.passed is False
    assert clean.passed is True
    assert diag_only and all(passed for _, passed in diag_only)


def test_criterion_07_linear_algebra_consistency(resonant_problem, manufactured_reports):
    grid = gr.Grid(33, 32)
    caches = op.CurveCache(resonant_problem, grid)
    nodes = [(1, grid.nx - 1, 0), (1, 7, 9), (2, 0, 3), (2, 20, 30)]
    blocks = {
        (j, i): op.stencil_block(resonant_problem, grid, caches, j, range(i, i + 1))[0]
        for j, i, _ in nodes
    }
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        u = gr.GridFunction(grid, rng.standard_normal((2, grid.nx, grid.nt)))
        ku = op.apply_K(resonant_problem, grid, u, caches)
        flat = u.values.reshape(-1)
        for j, i, q in nodes:
            # the autonomous demo's blocks hold row 0; row q reads its
            # t-indices moved by q.  It has no G, whose weights come apart
            (cols,), (weights,), _ = blocks[(j, i)]
            moved = cols - cols % grid.nt + (cols + q) % grid.nt
            want = ku.values[j - 1, i, q]
            worst = max(worst, abs(weights @ flat[moved] - want) / max(1.0, abs(want)))
    report = manufactured_reports[(33, 32)]
    norm_a = float(np.max(np.sum(np.abs(report.matrix.A), axis=1)))
    bound = 1e-10 * (1.0 + norm_a) * gr.sup_norm(report.solution)
    print(
        f"criterion 7: stencil/apply worst gap {worst:.3e}, "
        f"unique residual {report.residual:.3e} vs bound {bound:.3e}"
    )
    assert worst <= 1e-12
    assert report.unique is True
    assert report.residual <= bound
    # report.residual reads K back from A; the walked K on the solved u
    # must meet the same bound
    assert fr.residual(report.matrix.problem, report.matrix.grid, report.solution) <= bound


def test_criterion_08_parser_suite():
    assert len(CORPUS) == 50
    rng = np.random.default_rng(99)
    worst_fd = 0.0
    for entry in CORPUS:
        source, _ = entry
        x0, x1, t0, t1 = box_of(entry)
        tree = ex.parse(source)
        again = ex.parse(ex.to_string(tree))
        for _ in range(100):
            x = float(rng.uniform(x0, x1))
            t = float(rng.uniform(t0, t1))
            assert ex.evaluate(tree, x, t) == ex.evaluate(again, x, t)
        if not diff_ok(source):
            continue
        for var in ("x", "t"):
            deriv = ex.differentiate(tree, var)
            for _ in range(3):
                x = float(rng.uniform(x0, x1))
                t = float(rng.uniform(t0, t1))
                sym = ex.evaluate(deriv, x, t)
                if var == "x":
                    fd = (ex.evaluate(tree, x + 1e-6, t) - ex.evaluate(tree, x - 1e-6, t)) / 2e-6
                else:
                    fd = (ex.evaluate(tree, x, t + 1e-6) - ex.evaluate(tree, x, t - 1e-6)) / 2e-6
                worst_fd = max(worst_fd, abs(sym - fd) / max(1.0, abs(sym), abs(fd)))
    print(f"criterion 8: 50 round-trips exact, worst derivative gap {worst_fd:.3e}")
    assert worst_fd <= 1e-7
