import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, svdvals

from phsolve import expr as ex
from phsolve import fredholm as fr
from phsolve import grid as gr
from phsolve import operators as op
from phsolve import problem as pb
from phsolve import problems


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
    return pb.from_dict(data)


@pytest.fixture(scope="module")
def resonant_report(resonant_problem):
    """Shared full decomposition of the resonant demo on a moderate grid
    with a tolerance wide enough to expose the near-kernel cluster."""
    grid = gr.Grid(33, 32)
    matrix = fr.assemble(resonant_problem, grid)
    report = fr.solve_alternative(resonant_problem, grid, tau=1e-2, matrix=matrix)
    return grid, matrix, report


# --- assembly ---------------------------------------------------------------


def test_zero_problem_assembles_identity():
    p = build()
    grid = gr.Grid(9, 8)
    matrix = fr.assemble(p, grid)
    assert matrix.size == grid.nx * grid.nt
    assert np.array_equal(matrix.A, np.eye(matrix.size))
    assert np.array_equal(matrix.rhs, np.zeros(matrix.size))
    sigma = fr.singular_spectrum(matrix)
    assert np.max(np.abs(sigma - 1.0)) <= 1e-14


@pytest.mark.parametrize(
    "case", [*problems.BUILTINS, "all-pieces-volterra", "all-pieces-fredholm"]
)
def test_assembled_matrix_realizes_operator(case, full_problem):
    # the all-pieces problem is the only one with live R and G terms
    if case in problems.BUILTINS:
        p = problems.get_builtin(case)
    else:
        p = dataclasses.replace(full_problem, volterra=case.endswith("-volterra"))
    grid = gr.Grid(9, 8)
    matrix = fr.assemble(p, grid)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = gr.GridFunction(grid, rng.standard_normal((p.n, grid.nx, grid.nt)))
        flat = u.values.reshape(-1)
        ku = op.apply_K(p, grid, u, matrix.caches)
        want = flat - ku.values.reshape(-1)
        assert np.max(np.abs(matrix.A @ flat - want)) <= 1e-12


def test_assembled_rhs_is_transported_forcing(manufactured_problem):
    grid = gr.Grid(9, 8)
    matrix = fr.assemble(manufactured_problem, grid)
    ff = op.apply_F(manufactured_problem, grid, matrix.caches)
    assert np.array_equal(matrix.rhs, ff.values.reshape(-1))


def test_assembly_is_deterministic(manufactured_problem):
    grid = gr.Grid(9, 8)
    first = fr.assemble(manufactured_problem, grid)
    second = fr.assemble(manufactured_problem, grid)
    assert np.array_equal(first.A, second.A)
    assert np.array_equal(first.rhs, second.rhs)


def test_capacity_guard(manufactured_problem):
    with pytest.raises(fr.CapacityError):
        fr.assemble(manufactured_problem, gr.Grid(81, 128))
    with pytest.raises(fr.CapacityError):
        fr.assemble(manufactured_problem, gr.Grid(9, 8), limit=10)


def test_singular_spectrum_descending(manufactured_problem):
    grid = gr.Grid(9, 8)
    sigma = fr.singular_spectrum(fr.assemble(manufactured_problem, grid))
    assert sigma.shape == (2 * 9 * 8,)
    assert np.all(np.diff(sigma) <= 0.0)


def test_spectrum_invariant_under_component_relabeling():
    # swapping two components whose conditions sit on the same side is a
    # permutation similarity of the assembled matrix
    base = dict(
        a=["1", "-1", "-2"],
        b=[["0.1", "0.2", "0.3*sin(t)"], ["0.4", "0", "0.5"], ["0.6*cos(t)", "0.7", "0.2"]],
        g=[["0.1", "0", "0.2"], ["0", "0.3", "0"], ["0.1*sin(x)", "0", "0"]],
        h=[["0", "0.1", "0.2"], ["0.3", "0", "0"], ["0", "0.2", "0.1"]],
        r=[["0.1", "0", "0"], ["0", "0.2", "0.1"], ["0", "0", "0.3"]],
        f=["sin(t)", "cos(t)", "1"],
    )
    perm = [0, 2, 1]
    swapped = dict(
        a=[base["a"][i] for i in perm],
        f=[base["f"][i] for i in perm],
    )
    for key in ("b", "g", "h", "r"):
        swapped[key] = [[base[key][i][j] for j in perm] for i in perm]
    grid = gr.Grid(9, 8)
    s1 = fr.singular_spectrum(fr.assemble(build(n=3, m=1, **base), grid))
    s2 = fr.singular_spectrum(fr.assemble(build(n=3, m=1, **swapped), grid))
    assert np.max(np.abs(s1 - s2)) <= 1e-10 * s1[0]


@pytest.mark.parametrize("name", [name for name, _ in problems.list_builtins()])
def test_decision_edges_match_full_spectrum(name):
    p = problems.get_builtin(name)
    grid = gr.Grid(17, 16)
    matrix = fr.assemble(p, grid)
    full = svdvals(matrix.A)
    tau = fr.default_tolerance(full, matrix.size)
    unique = bool(full[-1] > tau)
    report = fr.solve_alternative(p, grid, matrix=matrix)
    assert report.sigma.shape == ((2,) if unique else full.shape)
    assert report.sigma[0] == pytest.approx(full[0], rel=1e-10)
    assert report.sigma_min == pytest.approx(full[-1], rel=1e-10)
    assert report.unique is unique
    assert report.kernel_dim == (0 if unique else int(np.count_nonzero(full < tau)))


def test_default_tolerance_formula():
    sigma = np.array([2.0, 1.0, 0.5])
    assert fr.default_tolerance(sigma, 300) == 100.0 * 300 * np.finfo(float).eps * 2.0


# --- the alternative, unique branch -----------------------------------------


def test_unique_solve_reproduces_transport_solution(transport_problem):
    grid = gr.Grid(9, 8)
    report = fr.solve_alternative(transport_problem, grid)
    assert report.unique is True
    assert report.kernel_dim == 0
    assert report.defect is None
    assert report.kernel_basis.shape == (72, 0)
    want = np.broadcast_to(grid.xs[None, :, None], (1, grid.nx, grid.nt))
    assert np.max(np.abs(report.solution.values - want)) <= 1e-12
    assert report.residual <= 1e-12


def test_unique_solve_residual_scales(manufactured_problem):
    grid = gr.Grid(17, 16)
    report = fr.solve_alternative(manufactured_problem, grid)
    norm_a = np.max(np.sum(np.abs(report.matrix.A), axis=1))
    bound = 1e-10 * (1.0 + norm_a) * gr.sup_norm(report.solution)
    assert report.unique is True
    assert report.residual <= bound


def test_solver_accepts_prebuilt_matrix(transport_problem):
    grid = gr.Grid(9, 8)
    matrix = fr.assemble(transport_problem, grid)
    report = fr.solve_alternative(transport_problem, grid, matrix=matrix)
    assert report.matrix is matrix


# --- the alternative, resonant branch ---------------------------------------


def test_resonant_branch_under_wide_tolerance(resonant_report):
    _, _, report = resonant_report
    assert report.unique is False
    assert report.kernel_dim >= 2
    assert report.kernel_basis.shape[1] == report.kernel_dim
    assert report.cokernel_basis.shape[1] == report.kernel_dim
    assert report.tau == 1e-2


def test_resonant_kernel_vectors_are_near_null(resonant_report):
    _, matrix, report = resonant_report
    for col in range(report.kernel_dim):
        vec = report.kernel_basis[:, col]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(matrix.A @ vec) <= report.tau * 1.001
    for col in range(report.kernel_dim):
        w = report.cokernel_basis[:, col]
        assert np.linalg.norm(matrix.A.T @ w) <= report.tau * 1.001


def test_resonant_zero_forcing_has_zero_defect(resonant_report):
    _, _, report = resonant_report
    assert report.defect == 0.0
    assert gr.sup_norm(report.solution) == 0.0


def test_dichotomy_depends_on_tolerance(resonant_problem, resonant_report):
    grid, matrix, _ = resonant_report
    strict = fr.solve_alternative(resonant_problem, grid, tau=1e-8, matrix=matrix)
    assert strict.unique is True
    assert strict.kernel_dim == 0


def test_exactly_singular_matrix_takes_resonant_branch():
    # r = 1 makes every constant a fixed point: A has an exact zero pivot
    p = build(r=[["1"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        report = fr.solve_alternative(p, gr.Grid(9, 8))
    assert report.unique is False
    assert report.kernel_dim == 1
    assert report.sigma.shape == (72,)
    assert report.sigma_min <= report.tau
    assert report.defect == 0.0


@pytest.mark.parametrize("tau", [-1.0, -1e-300, math.nan])
def test_tau_below_zero_or_nan_rejected_before_factoring(monkeypatch, tau):
    # with tau = -1 the exactly singular problem above used to take the
    # unique branch and return a NaN solution
    p = build(r=[["1"]], f=["1"])
    grid = gr.Grid(9, 8)
    matrix = fr.assemble(p, grid)
    monkeypatch.setattr(fr, "factor", lambda _: pytest.fail("factored A"))
    with pytest.raises(ValueError, match="tau must be >= 0"):
        fr.solve_alternative(p, grid, tau=tau, matrix=matrix)


def test_sigma_min_property(resonant_report):
    _, _, report = resonant_report
    assert report.sigma_min == float(report.sigma[-1])
    assert report.sigma_min <= 1e-2


# --- residual ---------------------------------------------------------------


def test_residual_of_discrete_solution_is_tiny(transport_problem):
    grid = gr.Grid(9, 8)
    report = fr.solve_alternative(transport_problem, grid)
    assert fr.residual(transport_problem, grid, report.solution) <= 1e-12


def test_residual_of_explicit_modes(resonant_problem):
    grid = gr.Grid(33, 32)
    u = gr.sample_exprs([ex.parse(s) for s in problems.kernel_pair(1)], grid)
    assert fr.residual(resonant_problem, grid, u) <= 1e-2


def test_residual_detects_perturbation(transport_problem):
    grid = gr.Grid(9, 8)
    report = fr.solve_alternative(transport_problem, grid)
    bumped = report.solution.copy()
    bumped.values[0, 4, 2] += 0.5
    assert fr.residual(transport_problem, grid, bumped) >= 0.25


# --- coupling/speed-gap screen ----------------------------------------------


def test_levy_screen_fails_resonant_demo(resonant_problem):
    grid = gr.Grid(17, 16)
    report = fr.check_levy(resonant_problem, grid)
    assert report.passed is False
    failing = {(pr.j, pr.k) for pr in report.pairs if not pr.passed}
    assert failing == {(1, 2), (2, 1)}
    for pr in report.pairs:
        assert pr.passed is (pr.witness is None)
        if pr.witness is not None:
            x, t = pr.witness
            assert 0.0 <= x <= 1.0 and 0.0 <= t < 2 * math.pi


def test_levy_screen_passes_gap_scaled_coupling():
    grid = gr.Grid(17, 16)
    report = fr.check_levy(problems.get_builtin("levy-pass"), grid)
    assert report.passed is True
    assert all(pr.witness is None for pr in report.pairs)


def test_levy_screen_trivial_for_single_component(transport_problem):
    report = fr.check_levy(transport_problem, gr.Grid(9, 8))
    assert report.passed is True
    assert report.pairs == []


def test_levy_screen_passes_manufactured(manufactured_problem):
    report = fr.check_levy(manufactured_problem, gr.Grid(17, 16))
    assert report.passed is True


def test_levy_delta_default_scales_with_speed():
    p = build(n=2, m=1, a=["4", "-4"], b=[["0", "1"], ["1", "0"]])
    report = fr.check_levy(p, gr.Grid(9, 8))
    assert report.delta == pytest.approx(4e-6)


# --- convergence tables -----------------------------------------------------


def test_convergence_exact_branch(transport_problem):
    rows = fr.convergence_study(transport_problem, [(9, 8), (17, 16)], exact=["x"])
    assert [row.note for row in rows] == ["exact", "exact"]
    assert all(row.order is None for row in rows)
    assert all(row.value <= 1e-12 for row in rows)


def test_convergence_error_branch(manufactured_problem):
    rows = fr.convergence_study(
        manufactured_problem, [(9, 8), (17, 16)], exact=list(problems.MANUFACTURED_EXACT)
    )
    assert rows[0].order is None
    assert rows[1].order is not None
    assert rows[1].value < rows[0].value


def test_convergence_sigma_branch(resonant_problem):
    rows = fr.convergence_study(resonant_problem, [(9, 8), (17, 16)])
    assert rows[1].value < rows[0].value
    assert rows[1].order is not None and rows[1].order > 0.0


def test_convergence_rejects_non_refining_grids(transport_problem):
    with pytest.raises(ValueError):
        fr.convergence_study(transport_problem, [(9, 8), (17, 12)])
    with pytest.raises(ValueError):
        fr.convergence_study(transport_problem, [(9, 8), (33, 16)])
