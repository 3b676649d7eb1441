"""Dense discretization of the fixed-point system and its diagnostics.

The periodic problem is equivalent to u = Ku + Ff with K the sum of the
four integral operators; collocating on the grid nodes gives a dense
linear system A u = rhs with A = I - K.  The decision reads sigma_min
against a threshold tau: a clearly positive smallest singular value
means the discrete problem is uniquely solvable, while singular values
at discretization scale signal resonance.

The decision needs only the two edges of the spectrum, sigma_min and
sigma_max (which scales the default tau), so it takes them from the LU
factors of A by two Lanczos runs, and the unique branch solves with the
same factors.  Only the resonant branch pays for a full SVD: its report
carries (numerical) kernel and cokernel bases, a truncated
least-squares solution, and the solvability defect of the forcing.

Also here: the screening test for the coupling/speed-gap compatibility
condition that separates the two regimes, and grid-refinement studies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, svd, svdvals

from . import expr as ex
from .grid import Grid, GridFunction, sample_exprs, sup_norm
from .operators import CurveCache, apply_F, apply_K, stencil_block

DENSE_LIMIT = 20000


class CapacityError(ValueError):
    """Requested discretization exceeds the dense-matrix size cap."""


class SpectrumError(ArithmeticError):
    """The SVD or Lanczos backend failed to converge."""


@dataclass
class OperatorMatrix:
    """Dense A = I - K with the discretized forcing, plus provenance."""

    A: np.ndarray
    rhs: np.ndarray
    grid: Grid
    problem: object
    caches: CurveCache = field(repr=False, default=None)

    @property
    def size(self):
        return self.rhs.shape[0]


def assemble(p, grid, caches=None, limit=DENSE_LIMIT):
    """Collocate I - K on the grid nodes.

    Each block (component j, x-node i) fills its nt rows: one bincount
    over the keys q * N + col sums the weights from stencil_block into
    place.
    """
    n = p.n
    size = n * grid.nx * grid.nt
    if size > limit:
        raise CapacityError(
            f"dense system of size {size} exceeds the cap {limit}; coarsen the grid"
        )
    if caches is None:
        caches = CurveCache(p, grid)
    nt = grid.nt
    A = np.zeros((size, size))
    rhs = np.zeros(size)
    row_keys = np.arange(nt)[:, None] * size
    for j in range(1, n + 1):
        for i in range(grid.nx):
            cols, weights, const = stencil_block(p, grid, caches, j, i)
            base = ((j - 1) * grid.nx + i) * nt
            # summing the negated weights gives -K bit for bit
            minus_k = np.bincount((row_keys + cols).ravel(), -weights.ravel(), minlength=nt * size)
            A[base : base + nt, :] = minus_k.reshape(nt, size)
            rhs[base : base + nt] = const
    A[np.diag_indices(size)] += 1.0
    return OperatorMatrix(A, rhs, grid, p, caches)


def factor(matrix):
    """LU factors of A, for singular_spectrum and lu_solve.

    An exactly singular A leaves a zero on the diagonal of U, which
    singular_spectrum reads as sigma_min = 0; scipy's warning about that
    pivot is silenced here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return lu_factor(matrix.A)


def singular_spectrum(matrix, lu=None):
    """Singular values of A, descending.

    Without `lu`: all N values, from a dense SVD.  With the LU factors of
    A (see `factor`): only the edges [sigma_max, sigma_min], each from one
    implicitly restarted Lanczos run for the largest eigenvalue, of A^T A
    through dense products and of (A^T A)^-1 = A^-1 A^-T through the
    factors.  A zero pivot gives sigma_min = 0 without a run.
    """
    try:
        if lu is None:
            return svdvals(matrix.A)
        return _edge_singular_values(matrix.A, lu)
    except Exception as err:
        raise SpectrumError(f"singular value computation failed: {err}") from err


def _largest_eigenvalue(size, matvec):
    # imported on first use: scipy.sparse adds about 0.08 s to the start of
    # every process, and only the decision needs it
    from scipy.sparse.linalg import LinearOperator, eigsh

    # a fixed start vector keeps reports reproducible; unlike all-ones, a
    # seeded random one is not orthogonal to the wanted eigenvector when
    # the problem has a symmetry
    start = np.random.default_rng(0).standard_normal(size)
    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    return float(eigsh(op, k=1, v0=start, tol=1e-12, return_eigenvectors=False)[0])


def _edge_singular_values(a, lu):
    size = a.shape[0]
    sigma_max = math.sqrt(_largest_eigenvalue(size, lambda v: a.T @ (a @ v)))
    if np.any(np.diagonal(lu[0]) == 0.0):
        return np.array([sigma_max, 0.0])

    def inverse_gram(v):
        w = lu_solve(lu, v, trans=1, check_finite=False)
        return lu_solve(lu, w, check_finite=False)

    sigma_min = 1.0 / math.sqrt(_largest_eigenvalue(size, inverse_gram))
    return np.array([sigma_max, sigma_min])


def default_tolerance(sigma, size):
    return 100.0 * size * np.finfo(float).eps * float(sigma[0])


@dataclass
class FredholmReport:
    """Outcome of the discrete alternative for one problem and grid."""

    sigma: np.ndarray  # descending: the two edges (unique) or all N values
    tau: float
    unique: bool
    kernel_dim: int
    solution: GridFunction
    residual: float
    defect: float | None
    kernel_basis: np.ndarray
    cokernel_basis: np.ndarray
    matrix: OperatorMatrix = field(repr=False, default=None)

    @property
    def sigma_min(self):
        return float(self.sigma[-1])


def solve_alternative(p, grid, tau=None, matrix=None):
    """Solve A u = rhs or, when A is numerically rank-deficient, report
    the kernel data and a truncated least-squares solution.

    tau, when given, must be a number >= 0: singular values below it count
    as zero.  A negative tau would let an exactly singular A through to
    the solve.
    """
    if tau is not None and not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    if matrix is None:
        matrix = assemble(p, grid)
    size = matrix.size
    lu = factor(matrix)
    sigma = singular_spectrum(matrix, lu)
    if tau is None:
        tau = default_tolerance(sigma, size)
    if float(sigma[-1]) > tau:
        flat = lu_solve(lu, matrix.rhs)
        solution = GridFunction(grid, flat.reshape(p.n, grid.nx, grid.nt))
        res = residual(p, grid, solution, caches=matrix.caches)
        empty = np.zeros((size, 0))
        return FredholmReport(
            sigma, float(tau), True, 0, solution, res, None, empty, empty, matrix
        )
    del lu  # an N x N copy the full SVD below can use
    try:
        left, s, right_t = svd(matrix.A)
    except Exception as err:
        raise SpectrumError(f"full decomposition failed: {err}") from err
    small = s < tau
    kdim = int(np.count_nonzero(small))
    kernel = right_t[small].T.copy()
    cokernel = left[:, small].copy()
    keep = ~small
    coeffs = (left[:, keep].T @ matrix.rhs) / s[keep]
    flat = right_t[keep].T @ coeffs
    solution = GridFunction(grid, flat.reshape(p.n, grid.nx, grid.nt))
    res = residual(p, grid, solution, caches=matrix.caches)
    defect = float(np.linalg.norm(cokernel.T @ matrix.rhs))
    return FredholmReport(
        s, float(tau), False, kdim, solution, res, defect, kernel, cokernel, matrix
    )


def residual(p, grid, u, caches=None):
    """Sup norm of u - (Ku + Ff) over the grid nodes: how far u is from
    satisfying the integral form of the problem.  Raises ArithmeticError
    when it is not finite, as when a curve's gain overflows."""
    if caches is None:
        caches = CurveCache(p, grid)
    total = apply_K(p, grid, u, caches)
    total.values += apply_F(p, grid, caches).values
    value = sup_norm(GridFunction(grid, u.values - total.values))
    if not math.isfinite(value):
        raise ArithmeticError(f"residual is {value}: the operator overflows on this grid")
    return value


@dataclass
class LevyPair:
    j: int
    k: int
    bound: float
    passed: bool
    witness: tuple | None


@dataclass
class LevyReport:
    """Necessary-condition screen: does each off-diagonal coupling vanish
    at least as fast as the corresponding speed gap?  A pass is evidence,
    not proof, that the coupling factors through the gap with a bounded
    quotient; a fail exhibits a witness node."""

    pairs: list
    passed: bool
    delta: float
    tol: float


def check_levy(p, grid, delta=None, tol=1e-8):
    shape = (grid.nx, grid.nt)
    xg = grid.xs[:, None]
    tg = grid.ts[None, :]
    speeds = [
        np.broadcast_to(np.asarray(ex.evaluate(a, xg, tg), float), shape)
        for a in p.speeds
    ]
    if delta is None:
        delta = 1e-6 * max(float(np.max(np.abs(a))) for a in speeds)
    pairs = []
    for j in range(1, p.n + 1):
        for k in range(1, p.n + 1):
            if k == j:
                continue
            bv = np.broadcast_to(
                np.asarray(ex.evaluate(p.coupling[j - 1][k - 1], xg, tg), float),
                shape,
            )
            gap = speeds[k - 1] - speeds[j - 1]
            mask = np.abs(gap) >= delta
            bound = float(np.max(np.abs(bv[mask] / gap[mask]))) if np.any(mask) else 0.0
            excess = np.abs(bv) - ((bound + 1.0) * np.abs(gap) + tol)
            worst = np.unravel_index(int(np.argmax(excess)), shape)
            if excess[worst] > 0.0:
                witness = (float(grid.xs[worst[0]]), float(grid.ts[worst[1]]))
                pairs.append(LevyPair(j, k, bound, False, witness))
            else:
                pairs.append(LevyPair(j, k, bound, True, None))
    return LevyReport(pairs, all(pr.passed for pr in pairs), float(delta), float(tol))


@dataclass
class ConvergenceRow:
    nx: int
    nt: int
    value: float
    order: float | None
    note: str = ""


def _check_refining(grids):
    for (nx0, nt0), (nx1, nt1) in zip(grids, grids[1:]):
        if nt1 != 2 * nt0:
            raise ValueError(f"nt must double between refinements, got {nt0}->{nt1}")
        ratio = (nx1 - 1) / (nx0 - 1)
        if not 1.5 <= ratio <= 2.5:
            raise ValueError(
                f"nx-1 must roughly double between refinements, got {nx0}->{nx1}"
            )


def convergence_study(p, grids, exact=None, tau=None):
    """Refinement table: sup-norm error against an exact solution when
    one is supplied, otherwise the smallest singular value per grid."""
    _check_refining(list(grids))
    nodes = None
    if exact is not None:
        nodes = [ex.parse(e) if isinstance(e, str) else e for e in exact]
    rows = []
    prev = None
    for nx, nt in grids:
        grid = Grid(nx, nt)
        if nodes is not None:
            report = solve_alternative(p, grid, tau=tau)
            target = sample_exprs(nodes, grid)
            value = sup_norm(GridFunction(grid, report.solution.values - target.values))
            exact_level = value <= 1e-12 * (1.0 + sup_norm(target))
        else:
            matrix = assemble(p, grid)
            value = float(singular_spectrum(matrix, factor(matrix))[-1])
            exact_level = False
        order = None
        note = ""
        if exact_level:
            note = "exact"
        elif prev is not None and prev > 0.0 and value > 0.0:
            order = math.log2(prev / value)
        rows.append(ConvergenceRow(nx, nt, value, order, note))
        prev = None if exact_level else value
    return rows
