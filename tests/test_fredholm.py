import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, lu_factor, subspace_angles, svd, svdvals

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
    report = fr.solve_alternative(matrix, tau=1e-2)
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
    # a fresh cache traces its own curves, apart from the assembly's
    caches = op.CurveCache(p, grid)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = gr.GridFunction(grid, rng.standard_normal((p.n, grid.nx, grid.nt)))
        flat = u.values.reshape(-1)
        ku = op.apply_K(p, grid, u, caches)
        want = flat - ku.values.reshape(-1)
        assert np.max(np.abs(matrix.A @ flat - want)) <= 1e-12


def test_assembled_rhs_is_transported_forcing(manufactured_problem, full_problem):
    # pure-forcing and t-free-volterra are autonomous: their forcing is
    # integrated along the shifted row-0 curves
    grid = gr.Grid(9, 8)
    for p in (
        manufactured_problem,
        full_problem,
        problems.pure_forcing(),
        autonomous_case("t-free-volterra"),
    ):
        matrix = fr.assemble(p, grid)
        ff = op.apply_F(p, grid, op.CurveCache(p, grid))
        assert np.array_equal(matrix.rhs, ff.values.reshape(-1))


@pytest.mark.parametrize("shape", [(17, 16), (13, 11)])
@pytest.mark.parametrize(
    "case",
    [
        *problems.BUILTINS,
        "all-pieces-volterra",
        "all-pieces-fredholm",
        "t-free-volterra",
        "t-free-fredholm",
    ],
)
def test_assembled_matrix_applies_what_the_walk_applies(case, shape, full_problem):
    # given the matrix, the residual is sup|Au - rhs| from its blocks, for
    # either period; a fresh walk of K and F gives the same value
    if case.startswith("all-pieces"):
        p = dataclasses.replace(full_problem, volterra=case.endswith("-volterra"))
    else:
        p = autonomous_case(case)
    grid = gr.Grid(*shape)
    matrix = fr.assemble(p, grid)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u = gr.GridFunction(grid, rng.standard_normal((p.n, grid.nx, grid.nt)))
        want = fr.residual(p, grid, u)
        assert abs(fr.residual(p, grid, u, matrix=matrix) - want) <= 1e-12 * want


def forced_example13():
    data = pb.to_dict(problems.example13())
    data["f"] = ["sin(t)", "cos(x)"]
    return pb.from_dict(data)


def test_assembly_concatenates_each_run_of_curves_once(monkeypatch, manufactured_problem):
    # K and F are integrated along one RunCurve per run, built when the run
    # is reached and dropped with it
    built = []
    run_curve = op.CurveCache.run_curve

    def counted(caches, j, nodes):
        built.append((j, tuple(nodes)))
        return run_curve(caches, j, nodes)

    monkeypatch.setattr(op.CurveCache, "run_curve", counted)
    grid = gr.Grid(9, 8)
    for limit in (op.RUN_SAMPLES, 64):
        monkeypatch.setattr(op, "RUN_SAMPLES", limit)
        for p in (manufactured_problem, problems.pure_forcing(), forced_example13()):
            built.clear()
            fr.assemble(p, grid)
            caches = op.CurveCache(p, grid)
            runs = [(j, tuple(nodes)) for j in range(1, p.n + 1) for nodes in caches.runs(j)]
            assert built == runs
            assert (len(runs) > p.n) is (limit == 64)


def test_solve_walks_no_block_of_an_assembled_matrix(monkeypatch, manufactured_problem):
    # assembly walks each component's x-nodes once for K and once for F,
    # in runs that tile them; the solve's residual applies A from its
    # blocks and reads rhs, so neither is walked again, for period 1
    # (manufactured) or nt.  A limit of 64 samples cuts every component
    # into several runs
    walked = []
    for name in ("_run_parts", "_run_forcing"):
        walk = getattr(op, name)

        def counted(p, grid, caches, run, walk=walk, name=name):
            walked.append((name, run.j, tuple(run.nodes)))
            return walk(p, grid, caches, run)

        monkeypatch.setattr(op, name, counted)

    def assert_tiled(calls, p, grid):
        for name in ("_run_parts", "_run_forcing"):
            for j in range(1, p.n + 1):
                runs = [nodes for walk, c, nodes in calls if (walk, c) == (name, j)]
                assert sum(runs, ()) == tuple(range(grid.nx))

    grid = gr.Grid(9, 8)
    for limit in (op.RUN_SAMPLES, 64):
        monkeypatch.setattr(op, "RUN_SAMPLES", limit)
        for p, period in (
            (manufactured_problem, 1),
            (problems.pure_forcing(), grid.nt),
            (forced_example13(), grid.nt),
        ):
            walked.clear()
            matrix = fr.assemble(p, grid)
            assert matrix.period == period
            assembled = list(walked)
            assert_tiled(assembled, p, grid)
            assert (len(assembled) > 2 * p.n) is (limit == 64)
            report = fr.solve_alternative(matrix)
            assert walked == assembled
            assert report.residual <= 1e-12
            walked_residual = fr.residual(p, grid, report.solution)
            assert_tiled(walked[len(assembled) :], p, grid)
            scale = 1.0 + gr.sup_norm(report.solution)
            assert abs(report.residual - walked_residual) <= 1e-13 * scale


def test_assembly_is_deterministic(manufactured_problem):
    grid = gr.Grid(9, 8)
    first = fr.assemble(manufactured_problem, grid)
    second = fr.assemble(manufactured_problem, grid)
    assert np.array_equal(first.A, second.A)
    assert np.array_equal(first.rhs, second.rhs)


def test_capacity_guard(manufactured_problem):
    with pytest.raises(fr.CapacityError):
        fr.assemble(manufactured_problem, gr.Grid(81, 128))


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
    report = fr.solve_alternative(matrix)
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
    report = fr.solve_alternative(fr.assemble(transport_problem, grid))
    assert report.unique is True
    assert report.kernel_dim == 0
    assert report.defect is None
    assert report.kernel_basis.shape == (72, 0)
    want = np.broadcast_to(grid.xs[None, :, None], (1, grid.nx, grid.nt))
    assert np.max(np.abs(report.solution.values - want)) <= 1e-12
    assert report.residual <= 1e-12


def test_unique_solve_residual_scales(manufactured_problem):
    grid = gr.Grid(17, 16)
    report = fr.solve_alternative(fr.assemble(manufactured_problem, grid))
    norm_a = np.max(np.sum(np.abs(report.matrix.A), axis=1))
    bound = 1e-10 * (1.0 + norm_a) * gr.sup_norm(report.solution)
    assert report.unique is True
    assert report.residual <= bound
    # report.residual reads K back from A; the walked K must agree
    assert fr.residual(manufactured_problem, grid, report.solution) <= bound


@pytest.mark.parametrize("case", ["pure-forcing", "t-free-volterra"])
def test_autonomous_unique_solve_residual_scales(case):
    # an autonomous report.residual is the block solves' backward error;
    # the walked K and F on the solved u must meet the same bound
    p = autonomous_case(case)
    grid = gr.Grid(17, 16)
    report = fr.solve_alternative(fr.assemble(p, grid))
    assert report.matrix.period == grid.nt
    norm_a = np.max(np.sum(np.abs(report.matrix.A), axis=1))
    bound = 1e-10 * (1.0 + norm_a) * gr.sup_norm(report.solution)
    assert report.unique is True
    assert report.residual <= bound
    assert fr.residual(p, grid, report.solution) <= bound


def test_solver_accepts_prebuilt_matrix(transport_problem):
    grid = gr.Grid(9, 8)
    matrix = fr.assemble(transport_problem, grid)
    report = fr.solve_alternative(matrix)
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
    strict = fr.solve_alternative(matrix, tau=1e-8)
    assert strict.unique is True
    assert strict.kernel_dim == 0


@pytest.mark.parametrize("speed", ["1", "1+0*t"])
def test_exactly_singular_matrix_takes_resonant_branch(speed):
    # r = 1 makes every constant a fixed point.  The speed 1+0*t mentions
    # t, so A is its own one block, its LU has an exact zero pivot, and that
    # pivot decides sigma_min = 0.  With speed 1 the Fourier blocks decide,
    # from their pooled singular values; the steady block's smallest is
    # 1.7e-18.  That A is never factored: expanded from its block-row 0, its
    # LU ends in a pivot of about 1e-15, not an exact zero
    p = build(a=[speed], r=[["1"]])
    grid = gr.Grid(9, 8)
    matrix = fr.assemble(p, grid)
    assert matrix.period == (1 if "t" in speed else grid.nt)
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        report = fr.solve_alternative(matrix)
        if matrix.period == 1:
            assert fr.singular_spectrum(matrix, edges=True)[-1] == 0.0
        else:
            assert fr.singular_spectrum(matrix)[-1] <= 1e-16
    assert report.unique is False
    assert report.kernel_dim == 1
    assert report.sigma.shape == (72,)
    assert report.sigma_min <= report.tau
    assert report.defect == 0.0


@pytest.mark.parametrize(
    "make, shape, tau, kernel_dim",
    [
        # A = I: every value equals tau = 1, so every value counts as zero
        pytest.param(problems.pure_forcing, (5, 4), 1.0, 20, id="identity-tau-1"),
        # the exact zero pivot decides sigma_min = 0 <= tau = 0; the SVD of
        # A puts its smallest value at about 5e-19, and that pair still
        # counts as zero, as the decision saw it
        pytest.param(
            lambda: build(a=["1+0*t"], r=[["1"]], f=["1"]), (9, 8), 0.0, 1, id="zero-pivot-tau-0"
        ),
        # its autonomous twin: the Fourier blocks put sigma_min at about
        # 1.7e-18, above tau = 0 but under the round-off floor
        # N * eps * sigma_max that tau is raised to
        pytest.param(lambda: build(r=[["1"]], f=["1"]), (9, 8), 0.0, 1, id="autonomous-tau-0"),
    ],
)
def test_values_at_tau_count_as_zero(make, shape, tau, kernel_dim):
    report = fr.solve_alternative(fr.assemble(make(), gr.Grid(*shape)), tau=tau)
    assert report.tau >= tau
    assert report.unique is False
    assert report.unique is (report.kernel_dim == 0)
    assert report.kernel_dim == kernel_dim
    assert report.kernel_basis.shape[1] == report.cokernel_basis.shape[1] == kernel_dim
    assert np.all(np.isfinite(report.solution.values))
    assert gr.sup_norm(report.solution) <= 10.0


@pytest.mark.parametrize("tau, decomposed", [(None, 0), (1e-2, 3)])
def test_only_blocks_with_a_zero_are_decomposed(monkeypatch, tau, decomposed):
    # example13 at 17 x 16 has 9 Fourier blocks; under tau = 1e-2 three of
    # them hold values at or below tau.  The decision takes the values of
    # each block once, and only those three take an SVD
    calls = {"svd": 0, "svdvals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fr, "svd", counted("svd", fr.svd))
    monkeypatch.setattr(fr, "svdvals", counted("svdvals", fr.svdvals))
    report = fr.solve_alternative(fr.assemble(problems.example13(), gr.Grid(17, 16)), tau=tau)
    assert calls == {"svd": decomposed, "svdvals": 9}
    assert report.unique is (decomposed == 0)


@pytest.mark.parametrize("tau", [-1.0, -1e-300, math.nan, math.inf])
def test_tau_below_zero_or_nan_rejected_before_factoring(monkeypatch, tau):
    # with tau = -1 the exactly singular problem above used to take the
    # unique branch and return a NaN solution; tau = inf counted every
    # singular value as zero
    p = build(r=[["1"]], f=["1"])
    grid = gr.Grid(9, 8)
    matrix = fr.assemble(p, grid)
    monkeypatch.setattr(fr, "factor", lambda _: pytest.fail("factored A"))
    monkeypatch.setattr(fr, "singular_spectrum", lambda *_: pytest.fail("decided"))
    with pytest.raises(ValueError, match="tau must be >= 0"):
        fr.solve_alternative(matrix, tau=tau)


def test_sigma_min_property(resonant_report):
    _, _, report = resonant_report
    assert report.sigma_min == float(report.sigma[-1])
    assert report.sigma_min <= 1e-2


# --- the blocks of A: Fourier blocks, or A itself ---------------------------

# every piece of K live and free of t; only the forcing depends on t
T_FREE = {
    "n": 2,
    "m": 1,
    "a": ["1", "-1-x/2"],
    "b": [["0.1", "0.3*sin(x)"], ["0.2", "-0.1*cos(x)"]],
    "g": [["0.5", "0.1*cos(x)"], ["0.2*sin(x)", "0.3"]],
    "h": [["0.1", "0.2"], ["0.05*x", "0.1"]],
    "r": [["0.2", "0.1*x"], ["0", "0.3"]],
    "f": ["sin(t)", "x*cos(t)"],
}
AUTONOMOUS = ["example13", "pure-forcing", "t-free-volterra", "t-free-fredholm"]

# example13 with a coupling that breathes in t: A is one block, resonant
# under a tau inside its spectrum
C13 = "(1+0.5*cos(4*t))"
BREATHING_13 = {
    "n": 2,
    "m": 1,
    "a": ["2/pi", "2/pi"],
    "b": [["0", f"-{C13}"], [C13, "0"]],
    "g": [["0", "0"], ["0", "0"]],
    "h": [["0", "0"], ["0", "0"]],
    "r": [["0", "0"], ["0", "0"]],
    "f": ["0", "x*cos(t)"],
}


def autonomous_case(case):
    if case in problems.BUILTINS:
        return problems.get_builtin(case)
    return pb.from_dict({**T_FREE, "volterra": case.endswith("-volterra")})


def traced_twin(p):
    """p with 0*t added to its first speed: the same K, but its period is
    1, so every anchor row is traced on its own and A is assembled whole."""
    data = pb.to_dict(p)
    data["a"] = [f"({data['a'][0]})+0*t", *data["a"][1:]]
    return pb.from_dict(data)


def tau_in_gap(s):
    """A tau inside the spectrum: the geometric middle of the widest
    relative gap in its smaller half, or above all of it when that half
    has no gap."""
    lower = s[len(s) // 2 :]
    ratios = lower[:-1] / lower[1:]
    i = int(np.argmax(ratios))
    if ratios[i] < 1.01:
        return 2.0 * float(s[0])
    return float(np.sqrt(lower[i] * lower[i + 1]))


SHAPES = [(17, 16), (33, 32), (13, 11)]
# a one-block case stays off 33 x 32, where one SVD of A takes about 3 s on
# two cores
ORACLE_CASES = [(case, i) for case in AUTONOMOUS for i in (0, 1, 2)] + [
    (case, i) for case in ("breathing-example13", "all-pieces") for i in (0, 2)
]


@pytest.mark.parametrize(
    "case, shape",
    [pytest.param(case, SHAPES[i], id=f"{case}-shape{i}") for case, i in ORACLE_CASES],
)
def test_fourier_path_matches_dense_oracle(case, shape, full_problem):
    # the t-dependent cases check the one-block path against the same oracle
    if case == "breathing-example13":
        p = pb.from_dict(BREATHING_13)
    elif case == "all-pieces":
        p = full_problem
    else:
        p = autonomous_case(case)
    grid = gr.Grid(*shape)
    matrix = fr.assemble(p, grid)
    left, s, right_t = svd(matrix.A)
    assert np.max(np.abs(fr.singular_spectrum(matrix) - s)) <= 1e-12 * s[0]
    for tau in (None, tau_in_gap(s)):
        report = fr.solve_alternative(matrix, tau=tau)
        small = s < (fr.default_tolerance(s, matrix.size) if tau is None else tau)
        keep = ~small
        assert report.unique is not small.any()
        assert report.unique is (report.kernel_dim == 0)
        assert report.kernel_dim == int(np.count_nonzero(small))
        want = right_t[keep].T @ ((left[:, keep].T @ matrix.rhs) / s[keep])
        got = report.solution.values.reshape(-1)
        assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))
        if report.unique:
            assert np.max(np.abs(report.sigma - s[[0, -1]])) <= 1e-12 * s[0]
            assert report.defect is None
            continue
        assert np.max(np.abs(report.sigma - s)) <= 1e-12 * s[0]
        cokernel = left[:, small]
        pairs = ((report.kernel_basis, right_t[small].T), (report.cokernel_basis, cokernel))
        for basis, oracle in pairs:
            assert basis.dtype == np.float64
            assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-12
            assert np.max(subspace_angles(basis, oracle)) <= 1e-10
        want_defect = np.linalg.norm(cokernel.T @ matrix.rhs)
        assert report.defect == pytest.approx(want_defect, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("shape", [(13, 11), (17, 16)])
@pytest.mark.parametrize("case", [*problems.BUILTINS, "t-free-volterra"])
def test_apply_and_solve_match_dense_A(case, shape):
    # each case on both periods: an autonomous one through its Fourier
    # blocks and its traced twin as one block, a t-dependent one as itself
    grid = gr.Grid(*shape)
    p = autonomous_case(case)
    rng = np.random.default_rng(7)
    periods = set()
    for q in (p, traced_twin(p)):
        matrix = fr.assemble(q, grid)
        periods.add(matrix.period)
        a = matrix.A
        inverse = np.linalg.inv(a)
        v = rng.standard_normal(matrix.size)
        for transpose, op_a, op_inv in ((False, a, inverse), (True, a.T, inverse.T)):
            for got, want in (
                (fr.apply(matrix, v, transpose=transpose), op_a @ v),
                (fr.solve(matrix, v, transpose=transpose), op_inv @ v),
            ):
                assert got.shape == want.shape and got.dtype == np.float64
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert periods == ({1, grid.nt} if case in AUTONOMOUS else {1})


@pytest.mark.parametrize("trans", [0, 1, 2])
@pytest.mark.parametrize("dtype", [float, complex])
def test_gemv_takes_operands_with_no_entries(trans, dtype):
    # a decomposed block that keeps no singular pair multiplies by a
    # factor with no columns, and then by one with no rows
    rng = np.random.default_rng(1)
    for shape in ((5, 0), (0, 5), (5, 3)):
        a = rng.standard_normal(shape).astype(dtype)
        a_op = (a, a.T, a.conj().T)[trans]
        v = rng.standard_normal(a_op.shape[1]) + 1j
        np.testing.assert_allclose(fr._gemv(a, v, trans), a_op @ v, rtol=1e-14)
        np.testing.assert_allclose(fr._gemv(np.asfortranarray(a), v, trans), a_op @ v, rtol=1e-14)


@pytest.mark.parametrize("tau", [None, 1e-2])
def test_alternative_leaves_numpy_linear_algebra_alone(monkeypatch, tau):
    # from the LU onwards the alternative's solves and decompositions are
    # scipy's, in the one BLAS library scipy links
    def refuse(*_args, **_kwargs):
        pytest.fail("numpy's linear algebra was called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for case in problems.BUILTINS:
        report = fr.solve_alternative(fr.assemble(problems.get_builtin(case), gr.Grid(13, 11)), tau)
        assert report.unique is (report.kernel_dim == 0)


@pytest.mark.parametrize("shape", [(33, 32), (13, 11)])
@pytest.mark.parametrize("case", AUTONOMOUS)
def test_autonomous_matrix_is_block_circulant(case, shape):
    # the twin traces every anchor row on its own: its A is block-circulant,
    # and the A expanded from block-row 0 equals it, the forcing too
    p = autonomous_case(case)
    grid = gr.Grid(*shape)
    matrix = fr.assemble(p, grid)
    twin = fr.assemble(traced_twin(p), grid)
    assert (matrix.period, twin.period) == (grid.nt, 1)
    a = twin.A
    m = a.shape[0] // grid.nt
    row0 = a.reshape(m, grid.nt, m, grid.nt)[:, 0]
    rebuilt = np.stack([np.roll(row0, q, axis=-1) for q in range(grid.nt)], axis=1)
    assert np.max(np.abs(a - rebuilt.reshape(a.shape))) <= 1e-13 * np.max(np.abs(a))
    assert np.max(np.abs(matrix.A - a)) <= 1e-13 * np.max(np.abs(a))
    assert np.max(np.abs(matrix.rhs - twin.rhs)) <= 1e-13 * np.max(np.abs(twin.rhs))


@pytest.mark.parametrize("shape", [(13, 11), (17, 16)])
@pytest.mark.parametrize("case", AUTONOMOUS)
def test_autonomous_apply_is_row0_moved_in_t(case, shape):
    # apply_K correlates each block's row-0 weights with u through the
    # rfft; row q of the stencils is row 0 with its t-indices moved by q.
    # The traced twin contracts every row it traced by the gather
    p = autonomous_case(case)
    grid = gr.Grid(*shape)
    nt = grid.nt
    caches = op.CurveCache(p, grid)
    u = gr.GridFunction(grid, np.random.default_rng(7).standard_normal((p.n, grid.nx, nt)))
    got = op.apply_K(p, grid, u, caches).values
    flat = u.values.reshape(-1)
    want = np.empty_like(got)
    for j in range(1, p.n + 1):
        for i in range(grid.nx):
            (((cols,), (weights,)),) = op.stencil_block(p, grid, caches, j, range(i, i + 1))
            for q in range(nt):
                want[j - 1, i, q] = weights @ flat[cols - cols % nt + (cols + q) % nt]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    traced = op.apply_K(traced_twin(p), grid, u).values
    assert np.max(np.abs(got - traced)) <= 1e-12 * np.max(np.abs(traced))


RUN_CASES = [*problems.BUILTINS, "all-pieces-volterra", "all-pieces-fredholm", "t-free-fredholm"]


def run_case(case, full_problem):
    if case.startswith("all-pieces"):
        return dataclasses.replace(full_problem, volterra=case.endswith("-volterra"))
    return autonomous_case(case)


def one_node_runs(p, grid, caches, j):
    return [op.stencil_block(p, grid, caches, j, range(i, i + 1))[0] for i in range(grid.nx)]


@pytest.mark.parametrize("shape", [(17, 16), (13, 11)])
@pytest.mark.parametrize("case", RUN_CASES)
def test_run_stencils_are_one_node_stencils(case, shape, full_problem):
    # a block's stencil is its slice of the run's quadrature: the same
    # columns and weights, in the same order, whichever run holds it.  The
    # runs tried are the cache's own, the whole component, and a cut after
    # node 2, which leaves the node on its own boundary side, whose curve
    # is a single point, inside a run
    p = run_case(case, full_problem)
    grid = gr.Grid(*shape)
    caches = op.CurveCache(p, grid)
    for j in range(1, p.n + 1):
        alone = one_node_runs(p, grid, caches, j)
        cuts = [caches.runs(j), [range(grid.nx)], [range(3), range(3, grid.nx)]]
        for runs in cuts:
            assert [i for nodes in runs for i in nodes] == list(range(grid.nx))
            for nodes in runs:
                got = op.stencil_block(p, grid, caches, j, nodes)
                assert len(got) == len(nodes)
                for i, (cols, weights) in zip(nodes, got):
                    assert np.array_equal(cols, alone[i][0])
                    assert np.array_equal(weights, alone[i][1])


@pytest.mark.parametrize("shape", [(17, 16), (13, 11)])
@pytest.mark.parametrize("case", RUN_CASES)
def test_assembly_does_not_depend_on_run_length(case, shape, full_problem, monkeypatch):
    # row0 (its CSR data, indices and indptr) and rhs from one-node runs
    # and from one run per component are those of the default runs, bit
    # for bit
    p = run_case(case, full_problem)
    grid = gr.Grid(*shape)
    matrix = fr.assemble(p, grid)
    for limit, count in ((0, grid.nx), (10**9, 1)):
        monkeypatch.setattr(op, "RUN_SAMPLES", limit)
        caches = op.CurveCache(p, grid)
        assert all(len(caches.runs(j)) == count for j in range(1, p.n + 1))
        other = fr.assemble(p, grid)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(other.row0, part), getattr(matrix.row0, part))
        assert np.array_equal(other.rhs, matrix.rhs)


@pytest.mark.parametrize("shape", [(17, 16), (13, 11)])
@pytest.mark.parametrize("case", AUTONOMOUS)
def test_autonomous_apply_matches_dense_rows(case, shape):
    # apply_K transforms only the rows a block reads; the reference sums
    # each block's row 0 into a dense row over all n * nx rows and
    # correlates every one of them with u.  The t-free problems have R
    # live, so component 1's node 0, whose curve is a single point, still
    # reads u
    p = autonomous_case(case)
    grid = gr.Grid(*shape)
    nt = grid.nt
    caches = op.CurveCache(p, grid)
    assert caches.period == nt
    u = gr.GridFunction(grid, np.random.default_rng(8).standard_normal((p.n, grid.nx, nt)))
    u_hat = np.fft.rfft(u.values.reshape(-1, nt), axis=-1)
    want_hat = np.zeros((p.n, grid.nx, u_hat.shape[1]), dtype=complex)
    for j in range(1, p.n + 1):
        for i, ((cols,), (weights,)) in enumerate(one_node_runs(p, grid, caches, j)):
            row = np.bincount(cols, weights, minlength=u.values.size).reshape(-1, nt)
            want_hat[j - 1, i] = np.einsum("ck,ck->k", np.fft.rfft(row, axis=-1).conj(), u_hat)
    want = np.fft.irfft(want_hat, n=nt, axis=-1)
    assert np.array_equal(op.apply_K(p, grid, u, caches).values, want)
    if case.startswith("t-free"):
        assert len(caches.curve(1, 0).xi) == 1
        assert np.any(want[0, 0] != 0.0)


def test_one_block_solve_holds_one_dense_copy_of_A():
    # A is stored sparse, and its LU factors overwrite the one dense
    # scatter that the decision's Gram products read: assembly and a
    # one-block solve hold one dense N x N at a time, near 8 N^2 bytes,
    # where A and its LU copy took twice that
    p = problems.get_builtin("manufactured-wellposed")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = fr.solve_alternative(fr.assemble(p, gr.Grid(33, 32)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.matrix.period == 1
    assert peak <= 1.5 * 8 * report.matrix.size**2


def test_autonomous_problem_passes_the_dense_cap():
    # only block-row 0 is stored, N * N / nt entries: example13 at 101 x 100
    # has N = 20200 > DENSE_LIMIT and is decided and solved from its blocks
    p = problems.example13()
    grid = gr.Grid(101, 100)
    matrix = fr.assemble(p, grid)
    assert matrix.size > fr.DENSE_LIMIT
    assert matrix.row0.shape == (matrix.size // grid.nt, matrix.size)
    report = fr.solve_alternative(matrix, tau=1e-2)
    # the steady block holds one kernel vector, each low frequency a pair
    assert report.kernel_dim % 2 == 1
    assert report.defect <= 1e-10
    caches = op.CurveCache(p, grid)
    for vec in report.kernel_basis[:, :3].T:
        u = gr.GridFunction(grid, vec.reshape(p.n, grid.nx, grid.nt))
        ku = op.apply_K(p, grid, u, caches).values
        assert np.linalg.norm(vec - ku.reshape(-1)) <= report.tau * 1.001
    with pytest.raises(fr.CapacityError):
        matrix.A
    # block-row 0 has its own budget: N * M entries against DENSE_LIMIT**2
    with pytest.raises(fr.CapacityError):
        fr.assemble(p, gr.Grid(1001, 128))


class FactoredA(Exception):
    pass


def _refuse_lu(*_args, **_kwargs):
    raise FactoredA


def _refuse_lu_of_A(matrix):
    # the LU of A itself, N x N, is refused; a Fourier block's, M x M, is
    # taken for the block's solve
    def lu_of_a_block(a, *args, **kwargs):
        if len(a) == matrix.size:
            raise FactoredA
        return lu_factor(a, *args, **kwargs)

    return lu_of_a_block


def test_autonomous_problems_never_factor_A(monkeypatch):
    grid = gr.Grid(9, 8)
    for case in AUTONOMOUS:
        for tau in (None, 1e-2):
            matrix = fr.assemble(autonomous_case(case), grid)
            monkeypatch.setattr(fr, "lu_factor", _refuse_lu_of_A(matrix))
            fr.solve_alternative(matrix, tau=tau)
    # the sigma_min table decides each grid and factors nothing
    monkeypatch.setattr(fr, "lu_factor", _refuse_lu)
    rows = fr.convergence_study(problems.example13(), [(5, 4), (9, 8)])
    assert rows[1].value < rows[0].value


def test_one_solve_builds_the_fourier_blocks_once(monkeypatch):
    # the decision and the branch share OperatorMatrix.blocks: one rfft of
    # block-row 0 (a 3-d array) per solve, besides the 2-d one of rhs
    ndims = []
    rfft = np.fft.rfft

    def counted(a, *args, **kwargs):
        ndims.append(np.ndim(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    matrix = fr.assemble(problems.example13(), gr.Grid(17, 16))
    fr.solve_alternative(matrix)
    assert ndims.count(3) == 1
    assert matrix.blocks is matrix.blocks


@pytest.mark.parametrize(
    "key, index, entry, dense",
    [
        ("a", (0,), "1+0.5*cos(t)", True),
        ("b", (0, 0), "0.1*cos(t)", True),
        ("b", (0, 1), "0.3*sin(t)", True),
        ("g", (1, 0), "0.2*sin(t)", True),
        ("h", (1, 0), "0.05*cos(t)", True),
        ("r", (0, 1), "0.1*sin(t)", True),
        ("f", (0,), "cos(2*t)+x", False),
    ],
)
def test_t_in_one_coefficient_of_K_selects_dense_path(monkeypatch, key, index, entry, dense):
    data = copy.deepcopy(T_FREE)
    *outer, last = index
    target = data[key]
    for i in outer:
        target = target[i]
    target[last] = entry
    p = pb.from_dict(data)
    matrix = fr.assemble(p, gr.Grid(9, 8))
    monkeypatch.setattr(fr, "lu_factor", _refuse_lu_of_A(matrix))
    if dense:
        with pytest.raises(FactoredA):
            fr.solve_alternative(matrix)
    else:
        assert fr.solve_alternative(matrix).unique is True


# --- residual ---------------------------------------------------------------


def test_residual_of_discrete_solution_is_tiny(transport_problem):
    grid = gr.Grid(9, 8)
    report = fr.solve_alternative(fr.assemble(transport_problem, grid))
    assert fr.residual(transport_problem, grid, report.solution) <= 1e-12


def test_residual_of_explicit_modes(resonant_problem):
    grid = gr.Grid(33, 32)
    u = gr.sample_exprs([ex.parse(s) for s in problems.kernel_pair(1)], grid)
    assert fr.residual(resonant_problem, grid, u) <= 1e-2


def test_residual_detects_perturbation(transport_problem):
    grid = gr.Grid(9, 8)
    report = fr.solve_alternative(fr.assemble(transport_problem, grid))
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


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
def test_levy_refuses_degenerate_delta(resonant_problem, delta):
    # a zero or negative floor divides by zero gaps and turned this failing
    # screen into "pass bound=inf"; an infinite or NaN floor leaves no node
    # in the quotient bound
    with pytest.raises(ValueError, match="delta"):
        fr.check_levy(resonant_problem, gr.Grid(9, 8), delta=delta)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_levy_refuses_degenerate_tol(resonant_problem, tol):
    # a NaN or infinite slack passed this failing screen
    with pytest.raises(ValueError, match="tol"):
        fr.check_levy(resonant_problem, gr.Grid(9, 8), tol=tol)


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


def test_convergence_of_shifted_forcing():
    # autonomous, so the forcing of time node q is integrated along the
    # t = 0 curve moved by t_q: u_t + u_x = cos t, u(0, t) = 0 has the
    # solution sin t - sin(t - x); the errors equal those of tracing each
    # anchor row on its own
    p = build(f=["cos(t)"])
    rows = fr.convergence_study(p, [(9, 8), (17, 16), (33, 32)], exact=["sin(t)-sin(t-x)"])
    want = [7.487631605751499e-05, 1.939575990139719e-05, 4.857650146794512e-06]
    assert [row.value for row in rows] == pytest.approx(want, rel=1e-12)


def test_convergence_sigma_branch_refuses_tau(resonant_problem):
    # the sigma_min table does not read tau; it refuses one rather than
    # print the same table
    with pytest.raises(ValueError, match="tau"):
        fr.convergence_study(resonant_problem, [(5, 4), (9, 8)], tau=1e-2)


def test_convergence_rejects_non_refining_grids(transport_problem):
    with pytest.raises(ValueError):
        fr.convergence_study(transport_problem, [(9, 8), (17, 12)])
    with pytest.raises(ValueError):
        fr.convergence_study(transport_problem, [(9, 8), (33, 16)])
