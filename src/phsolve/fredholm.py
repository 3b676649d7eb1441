"""Discretization of the fixed-point system and its diagnostics.

The periodic problem is equivalent to u = Ku + Ff with K the sum of the
four integral operators; collocating on the grid nodes gives a linear
system A u = rhs with A = I - K.  The decision reads sigma_min against
a threshold tau: a clearly positive smallest singular value means the
discrete problem is uniquely solvable, while singular values at
discretization scale signal resonance.

The alternative runs over the diagonal blocks of A in a DFT over t.
When no speed or coefficient of K mentions t (the forcing may), K
commutes with shifts by one time step, so A is block-circulant in t and
the DFT splits it into nt blocks of size n * nx, conjugate in pairs.
Any other A is its own one block.  Assembly stores only block-row 0 of
A, the rows at t-node 0, which is all of A in the one-block case and
1 / nt of it otherwise, so an autonomous problem can pass the size at
which the whole of A would no longer fit; it is held sparse (CSR), as
A is a few percent nonzero.  `OperatorMatrix.blocks` derives the blocks
from it once per assembled matrix, and `OperatorMatrix.block_sigma`
their singular values, for the decision and the branch alike; A itself
is expanded only when read.  The nt // 2 + 1 distinct Fourier blocks
are decided from their pooled singular values; the one block from
sigma_max (which scales the default tau) and sigma_min, by two Lanczos
runs: on A scattered dense, then on the LU factors that overwrite it,
which are from then on the one dense N x N held.  A value at or below
tau counts as zero, and tau is never below N * eps * sigma_max, numpy's
`matrix_rank` tolerance, under which a value is round-off.  After the
decision one pass handles every block by the values the decision saw of
it: a block with none of them zero is solved through its LU factors
(`OperatorMatrix.factors`), and only a block with a zero is decomposed
by one SVD into real (numerical) kernel and cokernel bases, a truncated
least-squares solution, and the solvability defect of the forcing.  The
residual of that solution is sup|Au - rhs|, with Au the one block's
sparse product, or taken block by block through the same rfft over t
as the solve, so no part of K is walked after assembly.  From the LU
onwards each product and solve is one scipy call per block (`apply`,
`solve`, `_gemv`): numpy links a separate OpenBLAS, and switching to it
between scipy calls left each library's threads spinning on the cores
the other needed.

Also here: the screening test for the coupling/speed-gap compatibility
condition that separates the two regimes, and grid-refinement studies.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, get_blas_funcs, lu_factor, lu_solve, svd, svdvals

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
    """A = I - K with the discretized forcing, plus provenance.

    A is stored as its block-row 0, row0, a scipy CSR array of shape
    (N // period, N), where period is `operators.period` of the problem:
    with period nt row0 holds the rows (component, x-node) at t-node 0,
    and row (m, q) of A is row m with every t-index moved by q; with
    period 1, row0 is A, scattered dense afresh for each LAPACK call.
    """

    row0: object  # scipy.sparse.csr_array
    rhs: np.ndarray
    grid: Grid
    problem: object
    period: int
    # the LU factors of blocks, by index in `blocks`: see `factor`
    factors: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def size(self):
        return self.rhs.shape[0]

    @functools.cached_property
    def A(self):
        """The whole N x N matrix, expanded from row0 on first read.
        Raises CapacityError past DENSE_LIMIT."""
        if self.size > DENSE_LIMIT:
            raise CapacityError(
                f"dense matrix of size {self.size} exceeds the cap {DENSE_LIMIT}; "
                "read its blocks instead"
            )
        nt = self.period
        if nt == 1:
            return self.row0.toarray()
        m = self.row0.shape[0]
        row0 = self.row0.toarray().reshape(m, m, nt)
        a = np.empty((m, nt, m, nt))
        for q in range(nt):
            # A[(m, q), (c, r)] = row0[m, c, (r - q) mod nt]
            a[:, q, :, q:] = row0[:, :, : nt - q]
            a[:, q, :, :q] = row0[:, :, nt - q :]
        return a.reshape(self.size, self.size)

    @functools.cached_property
    def blocks(self):
        """The diagonal blocks of A in the DFT over t (see `period`), and how
        often each block's singular values occur in A's spectrum; the
        multiplicities sum to the period.  Built once, on first use, and
        shared by the decision and the branch, which only read them.

        With period nt, the unknowns, ordered (component, x-node, t-node)
        with t fastest, make A.reshape(M, nt, M, nt)[:, q, :, r] with
        M = n * nx depend only on (r - q) mod nt.  From block-row q = 0,
        S_s = row0.reshape(M, M, nt)[:, :, s], the block acting on the k-th
        rfft coefficient of u is sum_s S_s exp(2 pi i k s / nt) for
        k = 0 .. nt // 2.  Blocks k and nt - k are conjugate, so these occur
        twice; blocks k = 0 and k = nt / 2 are real, occur once, and are
        returned as real arrays, so their SVDs give real vectors.  With
        period 1, A is returned as it is stored, sparse.
        """
        nt = self.period
        if nt == 1:
            return [self.row0], [1]
        m = self.row0.shape[0]
        hat = np.fft.rfft(self.row0.toarray().reshape(m, m, nt), axis=-1)
        hat = np.moveaxis(np.conjugate(hat, out=hat), -1, 0)
        multiplicity = [1 if k == 0 or 2 * k == nt else 2 for k in range(nt // 2 + 1)]
        return [b.real if mult == 1 else b for b, mult in zip(hat, multiplicity)], multiplicity

    @functools.cached_property
    def block_sigma(self):
        """The singular values of each block in `blocks`, descending,
        computed once, on first use."""
        if self.period == 1:
            return [svdvals(self.row0.toarray(order="F"), overwrite_a=True)]
        return [svdvals(b) for b in self.blocks[0]]


def assemble(p, grid):
    """Collocate I - K on the grid nodes, storing block-row 0 of A (see
    `OperatorMatrix`) and the forcing at every node.

    Each block (component j, x-node i) fills its rows of row0, all nt of
    them with period 1 and its t = 0 row with period nt: one bincount over
    the keys q * N + col sums the weights from stencil_block, which
    computes them a run of x-nodes at a time, into place in a dense row0,
    which is kept as CSR.  The forcing is apply_F's, on each run's curves
    as built for stencil_block.

    The dense entries count against DENSE_LIMIT**2: with period 1, N * N,
    first the dense row0 here, then the LU factors; with period nt, the
    N * M of row0 expanded for its rfft and the nt // 2 + 1 complex M x M
    blocks derived from it, three times over, since a block that
    `solve_alternative` solves keeps its LU factors, and one that it
    decomposes two SVD factors.
    """
    from scipy.sparse import csr_array  # see _largest_eigenvalue

    caches = CurveCache(p, grid)
    nt, period = grid.nt, caches.period
    size = p.n * grid.nx * nt
    height = size // period
    held = size * size
    if period != 1:
        held = height * size + 3 * 2 * (nt // 2 + 1) * height * height
    if held > DENSE_LIMIT**2:
        raise CapacityError(
            f"dense system of size {size} takes {held} entries, over the cap "
            f"of {DENSE_LIMIT}**2; coarsen the grid"
        )
    rows = nt // period  # the traced rows of one block
    row0 = np.zeros((height, size))
    row_keys = np.arange(rows)[:, None] * size
    rhs = np.empty((p.n, grid.nx, nt))
    for j in range(1, p.n + 1):
        for nodes in caches.runs(j):
            run = caches.run_curve(j, nodes)
            for i, (cols, weights) in zip(nodes, stencil_block(p, grid, caches, j, nodes, run)):
                block = (j - 1) * grid.nx + i
                # summing the negated weights gives -K bit for bit
                keys = (row_keys + cols).ravel()
                minus_k = np.bincount(keys, -weights.ravel(), minlength=rows * size)
                row0[block * rows : (block + 1) * rows] = minus_k.reshape(rows, size)
            rhs[j - 1, nodes.start : nodes.stop] = apply_F(p, grid, caches, run)
    # the identity: stored row m is A's row m * period, so its unit sits
    # in column m * period
    row0[np.arange(height), np.arange(height) * period] += 1.0
    # kept by a mask: scipy's own conversion, csr_array(row0), scans the
    # dense values more slowly (37 against 12 ms at N = 2112, two cores)
    nonzero = np.flatnonzero(row0 != 0.0)
    indptr = np.searchsorted(nonzero, np.arange(height + 1) * size).astype(np.int32)
    indices = (nonzero % size).astype(np.int32)
    row0 = csr_array((row0.ravel()[nonzero], indices, indptr), shape=(height, size))
    return OperatorMatrix(row0, rhs.reshape(-1), grid, p, period)


def factor(matrix, k=0, a=None):
    """LU factors of block k of A (see `OperatorMatrix.blocks`), for
    singular_spectrum and solve: scipy's lu_factor, taken on first use and
    kept in `OperatorMatrix.factors`.  With period 1 they overwrite `a`,
    A scattered dense in Fortran order, by default afresh from row0.

    An exactly singular block leaves a zero on the diagonal of U, which
    singular_spectrum reads as sigma_min = 0; scipy's warning about that
    pivot is silenced here.
    """
    lu = matrix.factors.get(k)
    if lu is None:
        if matrix.period == 1 and a is None:
            a = matrix.row0.toarray(order="F")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            block = matrix.blocks[0][k] if a is None else a
            lu = matrix.factors[k] = lu_factor(block, overwrite_a=a is not None)
    return lu


def singular_spectrum(matrix, edges=False):
    """Singular values of A, descending.

    All N values, pooled from the blocks of A (see `block_sigma`); or,
    with `edges` and a one-block A, only [sigma_max, sigma_min], each from
    one implicitly restarted Lanczos run for the largest eigenvalue: of
    A^T A, by gemv on A scattered dense in Fortran order, and of
    (A^T A)^-1 = A^-1 A^-T, through the LU factors `factor` then takes of
    that same array in place.  A zero pivot gives sigma_min = 0 without a
    run.  A failed factorization raises as itself, a failed Lanczos run or
    SVD as SpectrumError.
    """
    if not edges:
        try:
            return _pooled(matrix.block_sigma, matrix.blocks[1])
        except Exception as err:
            raise SpectrumError(f"singular value computation failed: {err}") from err
    a = matrix.row0.toarray(order="F")
    sigma_max = math.sqrt(_largest_eigenvalue(matrix.size, lambda v: _gemv(a, _gemv(a, v), 1)))
    if np.any(np.diagonal(factor(matrix, a=a)[0]) == 0.0):
        return np.array([sigma_max, 0.0])

    def inverse_gram(v):
        return solve(matrix, solve(matrix, v, transpose=True))

    sigma_min = 1.0 / math.sqrt(_largest_eigenvalue(matrix.size, inverse_gram))
    return np.array([sigma_max, sigma_min])


def _pooled(per_block, multiplicity):
    """A's singular values, descending, from those of its blocks."""
    return np.sort(np.repeat(np.stack(per_block), multiplicity, axis=0).ravel())[::-1]


def _decide(matrix):
    """The spectrum the alternative reads: when A is its own one block,
    the edges, and A is factored; otherwise every value, pooled from the
    Fourier blocks, and A is not factored."""
    return singular_spectrum(matrix, edges=matrix.period == 1)


def _largest_eigenvalue(size, matvec):
    # imported on first use: scipy.sparse and its linalg add about 0.025 s
    # to the start of a process after phsolve's own imports
    from scipy.sparse.linalg import LinearOperator, eigsh

    # a fixed start vector keeps reports reproducible; unlike all-ones, a
    # seeded random one is not orthogonal to the wanted eigenvector when
    # the problem has a symmetry
    start = np.random.default_rng(0).standard_normal(size)
    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    try:
        return float(eigsh(op, k=1, v0=start, tol=1e-12, return_eigenvectors=False)[0])
    except Exception as err:
        raise SpectrumError(f"singular value computation failed: {err}") from err


def _gemv(a, v, trans=0):
    """op(a) @ v in scipy's BLAS, with op the identity (trans 0), the
    transpose (1) or the conjugate transpose (2).  gemv reads a in Fortran
    order: an a not so ordered is handed over as its view a.T, which for a
    C-ordered a is not copied, unless a complex a is conjugated.  BLAS
    refuses an operand with no entries, so its product is made here."""
    if a.size == 0:
        return np.zeros(a.shape[1 if trans else 0], np.result_type(a, v))
    gemv = get_blas_funcs("gemv", (a, v))
    if not a.flags.f_contiguous and (trans < 2 or not np.iscomplexobj(a)):
        return gemv(1.0, a.T, v, trans=1 - min(trans, 1))
    return gemv(1.0, a, v, trans=trans)


def apply(matrix, u, transpose=False):
    """A u, or A^T u, for a flat grid vector u: the sparse product with a
    one-block A, or one gemv per block of A (see `OperatorMatrix.blocks`)
    on u's rfft coefficients over the period.  A real A's transpose acts
    on them through each block's conjugate transpose."""
    period, trans = matrix.period, 2 if transpose else 0
    if period == 1:
        return (matrix.row0.T if transpose else matrix.row0) @ u
    u_hat = _to_blocks(u, period)
    return _from_blocks([_gemv(b, r, trans) for b, r in zip(matrix.blocks[0], u_hat)], period)


def solve(matrix, rhs, transpose=False):
    """A^-1 rhs, or A^-T rhs, for a flat grid vector rhs: one lu_solve per
    block of A on rhs's rfft coefficients over the period, through the
    block's LU factors (see `factor`), as `apply` takes its products."""
    period, trans = matrix.period, 2 if transpose else 0
    rhs_hat = _to_blocks(rhs, period)
    u_hat = [lu_solve(factor(matrix, k), r, trans=trans) for k, r in enumerate(rhs_hat)]
    return _from_blocks(u_hat, period)


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


def solve_alternative(matrix, tau=None):
    """Solve A u = rhs of an assembled `matrix` or, when A is numerically
    rank-deficient, report the kernel data and a truncated least-squares
    solution.

    tau, when given, must be a finite number >= 0: singular values at or
    below it count as zero.  A negative tau would let an exactly singular
    A through to the solve; an infinite one would count every value as
    zero.  A tau under the round-off floor N * eps * sigma_max is raised
    to it, since a smaller value does not tell an exact zero from its
    rounding, and the report records the tau applied.

    Each block (see `OperatorMatrix.blocks`) is judged by the values the
    decision saw of it, and works on the rfft coefficients of rhs over
    the period.  A block with none of them zero is solved through its LU
    factors (see `factor`), which the one block shares with the decision.
    A block with a zero takes one SVD, whose values replace those the
    decision saw; it gives up at least its smallest pair, since the
    decision saw that one at or below tau.  A is unique when no block is
    decomposed.  A complex singular pair (v, w) of a block that occurs
    twice, spread over t as v exp(2 pi i k r / nt) / sqrt(nt), gives two
    real ones, its real and imaginary parts scaled by sqrt(2); a real
    block gives one.
    """
    if tau is not None and not (tau >= 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be >= 0 and finite, got {tau!r}")
    sigma = _decide(matrix)
    floor = matrix.size * np.finfo(float).eps * float(sigma[0])
    tau = default_tolerance(sigma, matrix.size) if tau is None else max(tau, floor)
    blocks, multiplicity = matrix.blocks
    period = matrix.period
    # the values the decision saw: the one block's edges, or every value
    # of each Fourier block; a decomposed block's SVD replaces them
    seen = [sigma] if period == 1 else list(matrix.block_sigma)
    zero = [s[-1] <= tau for s in seen]
    unique = not any(zero)
    rhs_hat = _to_blocks(matrix.rhs, period)
    u_hat, kernel, cokernel, order = [], [], [], []
    for k, (b, z, mult) in enumerate(zip(blocks, zero, multiplicity)):
        r = rhs_hat[k]
        if not z:
            u_hat.append(lu_solve(factor(matrix, k), r))
            continue
        # a one-block A drops its LU, and its SVD overwrites a fresh scatter
        matrix.factors.pop(k, None)
        if period == 1:
            b = b.toarray(order="F")
        try:
            left, s, right_h = svd(b, overwrite_a=period == 1)
        except Exception as err:
            raise SpectrumError(f"decomposition failed: {err}") from err
        seen[k] = s
        keep = s > tau
        keep[-1] = False  # the decision saw this one at or below tau
        coeffs = _gemv(left[:, keep], r, 2) / s[keep]
        u_hat.append(_gemv(right_h[keep], coeffs, 2))
        wave = np.exp(2j * np.pi * k * np.arange(period) / period) / math.sqrt(period)
        if mult == 1:
            wave = wave.real
        for vecs, out in ((right_h[~keep].conj(), kernel), (left[:, ~keep].T, cokernel)):
            full = (vecs[:, :, None] * wave).reshape(len(vecs), matrix.size)
            if mult == 1:
                out.extend(full)
            else:
                root2 = math.sqrt(2.0)
                out.extend(root2 * v for pair in zip(full.real, full.imag) for v in pair)
        order.extend(np.repeat(s[~keep], mult))
    # columns by descending singular value, as a dense SVD orders them
    rank = np.argsort(-np.asarray(order), kind="stable")
    kernel = np.array(kernel).reshape(-1, matrix.size)[rank].T
    cokernel = np.array(cokernel).reshape(-1, matrix.size)[rank].T
    if unique:
        sigma, defect = sigma[[0, -1]], None
    else:
        sigma = _pooled(seen, multiplicity)
        defect = float(np.linalg.norm(_gemv(cokernel, matrix.rhs, 1)))
    p, grid = matrix.problem, matrix.grid
    solution = GridFunction(grid, _from_blocks(u_hat, period).reshape(p.n, grid.nx, grid.nt))
    res = residual(p, grid, solution, matrix=matrix)
    return FredholmReport(
        sigma, float(tau), unique, kernel.shape[1], solution, res, defect, kernel, cokernel, matrix
    )


def _to_blocks(flat, period):
    """The rfft coefficients over t of a flat grid vector, one per block."""
    if period == 1:
        return [flat]
    return np.fft.rfft(flat.reshape(-1, period), axis=-1).T


def _from_blocks(u_hat, period):
    """The real flat grid vector with rfft coefficients u_hat over t."""
    if period == 1:
        return u_hat[0]
    return np.fft.irfft(np.array(u_hat).T, n=period, axis=-1).reshape(-1)


def residual(p, grid, u, matrix=None):
    """Sup norm of u - (Ku + Ff) over the grid nodes: how far u is from
    satisfying the integral form of the problem.  Raises ArithmeticError
    when it is not finite, as when a curve's gain overflows.

    Given the problem's assembled matrix on this grid, it is sup|Au - rhs|,
    with Au from `apply`.  Without one, K and F are walked afresh, which
    needs no assembly and runs on grids past the dense cap."""
    if matrix is None:
        caches = CurveCache(p, grid)
        total = apply_K(p, grid, u, caches)
        total.values += apply_F(p, grid, caches).values
        gap = u.values - total.values
    else:
        gap = apply(matrix, u.values.reshape(-1)) - matrix.rhs
    value = float(np.max(np.abs(gap)))
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
    """Screen each off-diagonal coupling against its speed gap on the grid
    nodes.  delta, when given, must be finite and > 0: it is the gap below
    which a node does not enter the quotient bound.  tol must be finite
    and >= 0: it is the absolute slack on the comparison.  Either outside
    its range would turn a failing screen into a pass."""
    if delta is not None and not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    xg = grid.xs[:, None]
    tg = grid.ts[None, :]
    speeds = [ex.evaluate(a, xg, tg) for a in p.speeds]
    if delta is None:
        delta = 1e-6 * max(float(np.max(np.abs(a))) for a in speeds)
    pairs = []
    for j in range(1, p.n + 1):
        for k in range(1, p.n + 1):
            if k == j:
                continue
            bv = ex.evaluate(p.coupling[j - 1][k - 1], xg, tg)
            gap = speeds[k - 1] - speeds[j - 1]
            mask = np.abs(gap) >= delta
            bound = float(np.max(np.abs(bv[mask] / gap[mask]))) if np.any(mask) else 0.0
            excess = np.abs(bv) - ((bound + 1.0) * np.abs(gap) + tol)
            worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
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
    one is supplied, otherwise the smallest singular value per grid.
    tau is read by the solves of the error table only; the sigma_min
    table refuses it rather than ignore it."""
    if tau is not None and exact is None:
        raise ValueError("tau is read only with an exact solution (--exact)")
    _check_refining(list(grids))
    nodes = None
    if exact is not None:
        nodes = [ex.parse(e) if isinstance(e, str) else e for e in exact]
    rows = []
    prev = None
    for nx, nt in grids:
        grid = Grid(nx, nt)
        matrix = assemble(p, grid)
        if nodes is not None:
            report = solve_alternative(matrix, tau=tau)
            target = sample_exprs(nodes, grid)
            value = sup_norm(GridFunction(grid, report.solution.values - target.values))
            exact_level = value <= 1e-12 * (1.0 + sup_norm(target))
        else:
            value = float(_decide(matrix)[-1])
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
