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
which the whole of A would no longer fit; it is assembled straight into
sparse (CSR) storage, with no dense copy, as A is a few percent
nonzero.  `OperatorMatrix.blocks` derives the blocks from it once per
assembled matrix, and `OperatorMatrix.block_sigma` their singular
values, for the decision and the branch alike; A itself is expanded
only when read.  The nt // 2 + 1 distinct Fourier blocks are decided
from their pooled singular values; the one block from sigma_max (which
scales the default tau) and sigma_min, by one Lanczos run on the Gram
A^T A through the stored sparse A, for both its largest and its
smallest eigenvalue.  As K is compact, A^T A is the identity less a
compact operator, and for a well-posed A its smallest eigenvalue sits
apart from the cluster at 1: there the run certifies sigma_min, and A
is not factored to decide.  Where a Ritz value shows certification out
of reach, or the run's budget is spent, it stops looking for sigma_min,
which then comes from a second run, on the LU factors, from the
smallest Ritz vector.  The Gram products read the CSR: a one-block A is
dense only inside a LAPACK call, scattered once for that call, which
overwrites the scatter (the LU, taken by the decision or else for the
solve, or the resonant SVD), so one dense N x N is held at a time.  The
certificate bounds the condition number of A by 21.2, so a certified A
is solved on the LU of a float32 scatter, half the size of a float64
one, refined to float64 accuracy against the CSR (see `_refined`).  A
value at or below tau counts as zero, and tau is never below
N * eps * sigma_max, numpy's `matrix_rank` tolerance, under which a
value is round-off.  After the decision one pass handles every block by
the values the decision saw of it: a block with none of them zero is
solved (the one block through its LU factors), and only a block with a
zero is decomposed by one SVD into real (numerical) kernel and cokernel
bases, a truncated least-squares solution, and the solvability defect
of the forcing.  The residual of that solution is sup|Au - rhs|, with
Au the one block's sparse product, or taken block by block through the
same rfft over t as the solve, so no part of K is walked after
assembly.

From the decision on, each path keeps its dense linear algebra in one
of the two OpenBLAS libraries that numpy and scipy link: switching
between them left each library's threads spinning on the cores the
other needed.  The Fourier blocks are small and kept, so every SVD,
solve and product on them is numpy's (`np.linalg`, `@`), and an
autonomous problem never loads scipy.linalg.  The one block is
scattered for LAPACK to overwrite, which numpy's routines cannot do in
place, so its LU, its solves, its SVD, the products with its SVD
factors and its Lanczos basis are scipy's (`lu_factor`, `lu_solve`,
`svd`, `_gemv`, `eigh_tridiagonal`).

Also here: the screening test for the coupling/speed-gap compatibility
condition that separates the two regimes, and grid-refinement studies.

scipy is imported on first use, inside the functions that call it, so
importing phsolve loads numpy and phsolve alone, and the commands that
factor nothing (`residual`, `check-levy`, `list-builtins`) and those on
an autonomous problem never load scipy.linalg, which is about half of a
bare process's start.  `svd`, `svdvals`, `lu_factor` and `lu_solve` are
this module's own names for the routines it calls, called through the
module so that they can be patched or traced here: `svd` and `svdvals`
are numpy's, or scipy.linalg's when the caller hands its array over
with `overwrite_a=True`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .grid import Grid, GridFunction, sample_exprs, sup_norm
from .operators import CurveCache, apply_F, apply_K, stencil_block

DENSE_LIMIT = 20000
# Gram products the one-block decision spends looking for sigma_min:
# wellposed is certified in 34, 41 and 47 of them at 17 x 16, 33 x 32 and
# 65 x 64, the coupling problem in 49-51 at 21 x 20, and levy-pass, whose
# sigma_min sits in a cluster, in 68 at 17 x 16 (105 at 33 x 32, past the
# budget, which then takes the LU)
SMALLEST_BUDGET = 80
# LAPACK dsgesv's cap on refinement steps of a float32 solve
REFINE_STEPS = 30


# numpy's LAPACK copies its operand; only scipy's can overwrite a scatter
# made for the call, which is what a one-block A hands over
def svd(a, overwrite_a=False):
    if not overwrite_a:
        return np.linalg.svd(a)
    from scipy.linalg import svd

    return svd(a, overwrite_a=True)


def svdvals(a, overwrite_a=False):
    if not overwrite_a:
        return np.linalg.svd(a, compute_uv=False)
    from scipy.linalg import svdvals

    return svdvals(a, overwrite_a=True)


def lu_factor(*args, **options):
    from scipy.linalg import lu_factor

    return lu_factor(*args, **options)


def lu_solve(*args, **options):
    from scipy.linalg import lu_solve

    return lu_solve(*args, **options)


class CapacityError(ValueError):
    """Requested discretization exceeds the dense-matrix size cap."""


class SpectrumError(ArithmeticError):
    """The SVD or Lanczos backend failed to converge."""


@dataclass
class OperatorMatrix:
    """A = I - K with the discretized forcing, plus provenance.

    A is stored as its block-row 0, row0, a scipy CSR array of shape
    (N // period, N), where period is `operators.period` of the problem,
    built by `assemble` without a dense copy: with period nt row0 holds
    the rows (component, x-node) at t-node 0, and row (m, q) of A is row
    m with every t-index moved by q; with period 1, row0 is A, dense only
    inside a LAPACK call, which overwrites a scatter made for it (see
    `_dense`).
    """

    row0: object  # scipy.sparse.csr_array
    rhs: np.ndarray
    grid: Grid
    problem: object
    period: int
    # the LU factors of a one-block A: see `factor`
    lu: tuple | None = field(default=None, init=False, repr=False)
    # whether the decision certified sigma_min of a one-block A: see
    # `_solve_block`
    certified: bool = field(default=False, init=False, repr=False)

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
    def row0_t(self):
        """The transpose of row0, a CSC view of its arrays, built once for
        every product with A^T."""
        return self.row0.T

    @functools.cached_property
    def block_sigma(self):
        """The singular values of each block in `blocks`, descending,
        computed once, on first use: one `svdvals` call per block, on a
        scatter of the one block that it overwrites (see `_dense`)."""
        if self.period == 1:
            return [svdvals(_dense(self), overwrite_a=True)]
        return [svdvals(b) for b in self.blocks[0]]


def assemble(p, grid):
    """Collocate I - K on the grid nodes, storing block-row 0 of A (see
    `OperatorMatrix`) and the forcing at every node.

    Each block (component j, x-node i) has its rows of row0, all nt of
    them with period 1 and its t = 0 row with period nt.  stencil_block
    computes the weights a run of x-nodes at a time: np.add.at sums the
    block's sparse weights (R, B, H) into one slab of those rows, reused
    by every block, and its dense G weights on each component k are then
    subtracted from the slab's columns of u_k as they are formed, one
    block at a time, which adds every term in the order of one add.at
    over all of them.  The identity added, the slab's nonzeros are kept
    as the block's CSR rows.  The forcing is apply_F's, on each run's
    curves as built for stencil_block.

    The dense entries the alternative holds count against DENSE_LIMIT**2:
    with period 1, the N * N of A scattered for its LU (see `_dense`),
    in 8 N^2 bytes, or 4 N^2 where the decision certified A;
    with period nt, the N * M of row0 expanded for its rfft and the
    nt // 2 + 1 complex M x M blocks derived from it, three times over,
    which leaves room for the two SVD factors of every block that
    `solve_alternative` decomposes.
    """
    from scipy.sparse import csr_array

    caches = CurveCache(p, grid)
    nt, period = grid.nt, caches.period
    size = p.n * grid.nx * nt
    height = size // period
    held = size * size if period == 1 else height * size + 3 * 2 * (nt // 2 + 1) * height**2
    if held > DENSE_LIMIT**2:
        raise CapacityError(
            f"dense system of size {size} takes {held} entries, over the cap "
            f"of {DENSE_LIMIT}**2; coarsen the grid"
        )
    rows = nt // period  # the traced rows of one block
    width = grid.nx * nt  # the columns of one component
    slab = np.zeros(rows * size)  # one block's rows of row0, flat
    view = slab.reshape(rows, size)
    row_keys = np.arange(rows)[:, None] * size
    # stored row m is A's row m * period: its unit sits in column m * period
    unit_keys = np.arange(rows) * (size + period)
    counts, indices, data = np.zeros(height + 1, np.int32), [], []
    rhs = np.empty((p.n, grid.nx, nt))
    for j in range(1, p.n + 1):
        for nodes in caches.runs(j):
            run = caches.run_curve(j, nodes)
            # not bound to a name, so the run's stencils are freed with the
            # loop, before the next run's are built
            for i, (cols, weights, dense) in zip(
                nodes, stencil_block(p, grid, caches, j, nodes, run)
            ):
                first = ((j - 1) * grid.nx + i) * rows  # the block's first stored row
                # summing the negated weights, then subtracting G's on the
                # columns of u_k, gives -K bit for bit
                np.add.at(slab, (row_keys + cols).ravel(), -weights.ravel())
                for k, g in dense:
                    view[:, (k - 1) * width : k * width] -= g
                slab[unit_keys + first * period] += 1.0
                kept = np.flatnonzero(slab != 0.0)  # by a mask: faster than on the floats
                counts[first + 1 : first + rows + 1] = np.bincount(kept // size, minlength=rows)
                indices.append((kept % size).astype(np.int32))
                data.append(slab[kept])
                slab[kept] = 0.0  # zeroed for the next block
            rhs[j - 1, nodes.start : nodes.stop] = apply_F(p, grid, caches, run)
    indptr = np.cumsum(counts, dtype=np.int32)
    row0 = csr_array((np.concatenate(data), np.concatenate(indices), indptr), shape=(height, size))
    return OperatorMatrix(row0, rhs.reshape(-1), grid, p, period)


def factor(matrix):
    """LU factors of a one-block A in float64, for solve and
    singular_spectrum: scipy's lu_factor, taken on first use and kept in
    `OperatorMatrix.lu`.  They overwrite a scatter of A made for this
    call (see `_dense`), the one dense copy of A the alternative makes
    unless it decomposes A or solves a certified A in float32 (see
    `_refined`).  A is checked finite on its stored values alone, as
    LAPACK would check the scatter: the others are exact zeros.

    An exactly singular A leaves a zero on the diagonal of U, which
    singular_spectrum reads as sigma_min = 0.
    """
    if matrix.lu is None:
        if not np.isfinite(matrix.row0.data).all():
            raise ValueError("A has entries that are not finite")
        matrix.lu = _lu(_dense(matrix))
    return matrix.lu


def _lu(a):
    """lu_factor of a scatter a, which it overwrites; scipy's warning
    about an exactly zero pivot is silenced."""
    from scipy.linalg import LinAlgWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return lu_factor(a, overwrite_a=True, check_finite=False)


def _dense(matrix, dtype=float):
    """A one-block A scattered afresh into a dense Fortran-ordered array of
    dtype, float64 or float32, for the LAPACK call its caller makes next
    to overwrite.  It is written from row0's arrays, which hold each entry
    once; scipy's `toarray` would fill a Fortran-ordered array through a
    CSC copy of them."""
    row0 = matrix.row0
    a = np.zeros(row0.shape, dtype, order="F")
    rows = np.repeat(np.arange(row0.shape[0], dtype=row0.indices.dtype), np.diff(row0.indptr))
    a[rows, row0.indices] = row0.data
    return a


def singular_spectrum(matrix, edges=False):
    """Singular values of A, descending.

    All N values, pooled from the blocks of A (see `block_sigma`); or,
    with `edges`, only [sigma_max, sigma_min]: the ends of those values
    for Fourier blocks, and for a one-block A the roots of the ends of
    one Lanczos run on the Gram A^T A (see `_lanczos`), by two sparse
    products with the stored A (`apply`) a step.  sigma_max is the root
    of its largest Ritz value, at tol 1e-8.  sigma_min is the root of its
    smallest where the run certifies it (see `_certified`), which also
    marks A `certified` for its solve, and A is not factored.  Otherwise
    it comes from a second run, for the largest eigenvalue of
    (A^T A)^-1 = A^-1 A^-T at tol 1e-12, through the LU factors `factor`
    takes, from the Ritz vector of the first run's smallest value; a zero
    pivot gives sigma_min = 0.  Whatever its density, A is dense here
    only inside the LU call, which overwrites the scatter made for it.  A
    failed factorization raises as itself, a failed Lanczos run or SVD as
    SpectrumError.
    """
    if not edges or matrix.period > 1:
        try:
            sigma = _pooled(matrix.block_sigma, matrix.blocks[1])
        except Exception as err:
            raise SpectrumError(f"singular value computation failed: {err}") from err
        return sigma[[0, -1]] if edges else sigma

    def gram(v):
        return apply(matrix, apply(matrix, v), transpose=True)

    def inverse_gram(v):
        return solve(matrix, solve(matrix, v, transpose=True))

    # a fixed start vector keeps reports reproducible; unlike all-ones, a
    # seeded random one is not orthogonal to the wanted eigenvector when
    # the problem has a symmetry
    start = np.random.default_rng(0).standard_normal(matrix.size)
    # sigma_max only scales tau and its round-off floor: at tol 1e-8 it
    # agrees with tol 1e-12's to 8e-16
    largest, smallest, start = _lanczos(
        gram, start, 1e-8, budget=SMALLEST_BUDGET, floor=np.finfo(float).eps / 1e-13
    )
    sigma_max = math.sqrt(largest)
    matrix.certified = bool(_certified(smallest, sigma_max))
    if matrix.certified:
        return np.array([sigma_max, math.sqrt(smallest)])
    if np.any(np.diagonal(factor(matrix)[0]) == 0.0):
        return np.array([sigma_max, 0.0])
    largest = _lanczos(inverse_gram, start, 1e-12)[0]
    return np.array([sigma_max, 1.0 / math.sqrt(largest)])


def _pooled(per_block, multiplicity):
    """A's singular values, descending, from those of its blocks."""
    return np.sort(np.repeat(np.stack(per_block), multiplicity, axis=0).ravel())[::-1]


def _lanczos(product, start, tol, budget=0, floor=0.0):
    """Extremal eigenvalues of the symmetric positive semidefinite operator
    `product`, by a Lanczos run from start with full reorthogonalization,
    done twice, on its Krylov basis in scipy's BLAS, and the Ritz pairs of
    its tridiagonal T_k (Parlett, The Symmetric Eigenvalue Problem, ch. 13).

    A Ritz value theta with eigenvector s of T_k lies within
    beta_k |s_k| of an eigenvalue, the bound ARPACK tests.  The run goes
    on until the largest value's bound is at most tol theta_max and, for
    its first `budget` products, the smallest value's at most
    1e-13 theta_min, or until theta_min < floor theta_max: a Ritz value
    bounds the smallest eigenvalue from above and theta_max the largest
    from below, so from then on no theta_min to come is certified (see
    `_certified`), and the run goes on for theta_max alone.  beta_k at
    most eps theta_max, or a basis of every direction, ends the run as an
    exact invariant subspace: with a start vector not orthogonal to any
    eigenvector, its Ritz values are all the distinct eigenvalues.

    Returns theta_max, theta_min where its bound was met and else nan,
    and the Ritz vector of theta_min.  A product that is not finite (a
    finite A's Gram can overflow) raises SpectrumError."""
    from scipy.linalg import eigh_tridiagonal, get_blas_funcs

    def ritz(i):
        """The i-th smallest eigenvalue of T_k and its unit eigenvector."""
        value, vector = eigh_tridiagonal(
            alpha, beta, select="i", select_range=(i, i), check_finite=False
        )
        return value[0], vector[:, 0]

    gemv, nrm2 = get_blas_funcs(("gemv", "nrm2"), (start,))
    n = start.size
    # the Lanczos vectors, as rows: room for the budget, doubled when the
    # run goes on for theta_max past it
    basis = np.empty((min(n, max(budget, 32)), n))
    basis[0] = start / nrm2(start)
    alpha, beta = [], []
    eps = np.finfo(float).eps
    top_done, low_live = False, budget > 0
    while True:
        k = len(alpha) + 1
        w = product(basis[k - 1])
        if not np.isfinite(w).all():
            raise SpectrumError(
                "singular value computation failed: "
                "a Lanczos product with A^T A or its inverse is not finite"
            )
        # w less its projection on the basis, twice; basis[:k].T is the
        # Fortran-ordered n x k matrix with the vectors as columns
        a = 0.0
        for _ in range(2):
            h = gemv(1.0, basis[:k].T, w, trans=1)
            w = gemv(-1.0, basis[:k].T, h, 1.0, w, overwrite_y=True)
            a += h[-1]
        alpha.append(a)
        b = nrm2(w)
        # theta_max only grows with k, so once within tol it stays there
        if not top_done:
            top, s = ritz(k - 1)
        exact = k == n or b <= eps * top
        bound = 0.0 if exact else b
        top_done = top_done or bound * abs(s[-1]) <= tol * top
        if low_live:
            low, s = ritz(0)
            met = bound * abs(s[-1]) <= 1e-13 * low
            low_live = not (met or low < floor * top or k >= budget)
        if exact or (top_done and not low_live):
            break
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(n, 2 * k) - k, n))])
        basis[k] = w / b
        beta.append(b)
    top = ritz(k - 1)[0]
    if budget == 0:
        return top, math.nan, None
    low, s = ritz(0)
    met = bound * abs(s[-1]) <= 1e-13 * low
    return top, low if met else math.nan, _gemv(basis[:k], s, 1)


def _certified(smallest, sigma_max):
    """Whether sqrt(smallest), from `_lanczos`, is sigma_min to 1e-13
    relative.  The residual bound |theta - lambda| <= |r| (Parlett, The
    Symmetric Eigenvalue Problem, ch. 4) and the run's tol put smallest
    within 1e-13 smallest of an eigenvalue of the Gram as applied, and
    rounding in the products moves that eigenvalue by about
    eps sigma_max^2 more; the root halves the sum of the two relative
    errors.  A run that did not converge (nan), or a smallest at
    round-off (zero or negative), is not certified."""
    return np.finfo(float).eps * sigma_max**2 <= 1e-13 * smallest


def _gemv(a, v, trans=0):
    """op(a) @ v in scipy's BLAS for a real a, with op the identity
    (trans 0) or the transpose (1).  gemv reads a in Fortran order: an a
    not so ordered is handed over as its view a.T, which for a C-ordered a
    is not copied.  BLAS refuses an operand with no entries, so its
    product is made here."""
    if a.size == 0:
        return np.zeros(a.shape[1 if trans else 0], np.result_type(a, v))
    from scipy.linalg import get_blas_funcs

    gemv = get_blas_funcs("gemv", (a, v))
    if not a.flags.f_contiguous:
        return gemv(1.0, a.T, v, trans=1 - trans)
    return gemv(1.0, a, v, trans=trans)


def _adjoint(b, transpose):
    """A Fourier block, or its conjugate transpose: how a real A's
    transpose acts on the rfft coefficients of a vector."""
    return b.conj().T if transpose else b


def apply(matrix, u, transpose=False):
    """A u, or A^T u, for a flat grid vector u: the sparse product with a
    one-block A, or one product per block of A (see
    `OperatorMatrix.blocks`) on u's rfft coefficients over the period."""
    period = matrix.period
    if period == 1:
        return (matrix.row0_t if transpose else matrix.row0) @ u
    u_hat = _to_blocks(u, period)
    au_hat = [_adjoint(b, transpose) @ r for b, r in zip(matrix.blocks[0], u_hat)]
    return _from_blocks(au_hat, period)


def solve(matrix, rhs, transpose=False):
    """A^-1 rhs, or A^-T rhs, for a flat grid vector rhs: one solve per
    block of A (see `_solve_block`) on rhs's rfft coefficients over the
    period, as `apply` takes its products."""
    period = matrix.period
    rhs_hat = _to_blocks(rhs, period)
    u_hat = [_solve_block(matrix, b, r, transpose) for b, r in zip(matrix.blocks[0], rhs_hat)]
    return _from_blocks(u_hat, period)


def _solve_block(matrix, b, r, transpose=False):
    """b^-1 r, or b^-H r, for a block b of A: numpy's solve of a Fourier
    block, which keeps no factors; for a one-block A, scipy's lu_solve
    through its float64 LU factors (see `factor`) or, where its decision
    certified sigma_min and took no LU, the float32 solve refined to
    float64 of `_refined`, falling back to the float64 LU where that one
    fails."""
    if matrix.period > 1:
        return np.linalg.solve(_adjoint(b, transpose), r)
    if matrix.certified and matrix.lu is None:
        u = _refined(matrix, r, transpose)
        if u is not None:
            return u
    return lu_solve(factor(matrix), r, trans=int(transpose))


def _refined(matrix, r, transpose=False):
    """A^-1 r, or A^-T r, for a one-block A whose decision certified
    sigma_min, by LAPACK's dsgesv scheme (Langou et al., SC 2006; Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 12) on scipy's
    routines: A is factored in float32, on a scatter half the size of a
    float64 one, and the solution is refined in float64 against the CSR.
    Each step solves for the residual r - A u scaled by its sup norm, so
    that its float32 cast neither overflows nor flushes its largest
    entries to zero, until |r - A u|_inf <= sqrt(N) eps |A|_inf |u|_inf,
    dsgesv's test, within REFINE_STEPS steps.  The certificate bounds the
    condition number of A by sqrt(1e-13 / eps) = 21.2, under which 2 steps
    meet it.

    None where an entry of A is out of float32's range, or the test is not
    met, as where the float32 factors overflowed: the caller then takes
    the float64 LU, whose scatter is made once the float32 factors are
    freed."""
    if not (np.abs(matrix.row0.data) <= np.finfo(np.float32).max).all():
        return None
    a_norm = np.max(abs(matrix.row0_t if transpose else matrix.row0) @ np.ones(matrix.size))
    bound = math.sqrt(matrix.size) * np.finfo(float).eps * a_norm
    lu = _lu(_dense(matrix, np.float32))
    u, gap = np.zeros(matrix.size), r
    # factors that overflowed in float32 give a gap that is not finite,
    # which ends the loop without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(REFINE_STEPS + 2):
            scale = np.max(np.abs(gap))
            if scale <= bound * np.max(np.abs(u)):
                return u
            if step > REFINE_STEPS or not np.isfinite(scale):
                return None
            # the solve, then each refinement step
            step_32 = lu_solve(
                lu, (gap / scale).astype(np.float32), trans=int(transpose), check_finite=False
            )
            u += scale * step_32.astype(float)
            gap = r - apply(matrix, u, transpose)


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
    the period.  A block with none of them zero is solved (see
    `_solve_block`), the one block through the LU factors it shares with
    the decision when the decision took them.
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
    sigma = singular_spectrum(matrix, edges=True)
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
            u_hat.append(_solve_block(matrix, b, r))
            continue
        if period == 1:
            # a one-block A drops its LU, and its SVD overwrites a scatter of it
            matrix.lu = None
            b = _dense(matrix)
        try:
            left, s, right_h = svd(b, overwrite_a=period == 1)
        except Exception as err:
            raise SpectrumError(f"decomposition failed: {err}") from err
        seen[k] = s
        keep = s > tau
        keep[-1] = False  # the decision saw this one at or below tau
        if period == 1:
            coeffs = _gemv(left[:, keep], r, 1) / s[keep]
            u_hat.append(_gemv(right_h[keep], coeffs, 1))
        else:
            coeffs = left[:, keep].conj().T @ r / s[keep]
            u_hat.append(right_h[keep].conj().T @ coeffs)
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
        defect = None
    else:
        sigma = _pooled(seen, multiplicity)
        defect = _defect(cokernel, matrix.rhs, one_block=period == 1)
    p, grid = matrix.problem, matrix.grid
    solution = GridFunction(grid, _from_blocks(u_hat, period).reshape(p.n, grid.nx, grid.nt))
    res = residual(p, grid, solution, matrix=matrix)
    return FredholmReport(
        sigma, float(tau), unique, kernel.shape[1], solution, res, defect, kernel, cokernel, matrix
    )


def _defect(cokernel, rhs, one_block):
    """|cokernel^T rhs|, the solvability defect of the forcing: in scipy's
    BLAS for a one-block A, in numpy's otherwise."""
    if not one_block:
        return float(np.linalg.norm(cokernel.T @ rhs))
    from scipy.linalg import get_blas_funcs

    projection = _gemv(cokernel, rhs, 1)
    return float(get_blas_funcs("nrm2", (projection,))(projection))


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
            value = float(singular_spectrum(matrix, edges=True)[-1])
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
