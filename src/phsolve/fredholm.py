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
scales the default tau) and sigma_min, by Lanczos runs on the Gram
A^T A through the stored sparse A, for its largest and its smallest
eigenvalue.  As K is compact, A^T A is the identity less a compact
operator, and for a well-posed A its smallest eigenvalue sits apart
from the cluster at 1: there the run certifies sigma_min, and A is not
factored to decide.  An uncertified sigma_min comes from a third run,
on the LU factors, from the eigenvector the second gave.  The Gram
products read the CSR: a one-block A is dense only inside a LAPACK
call, scattered once for that call, which overwrites the scatter (the
LU, taken by the decision or else for the solve, or the resonant SVD),
so one dense N x N is held at a time.  A value at or
below tau counts as zero, and tau is never below
N * eps * sigma_max, numpy's `matrix_rank` tolerance, under which a
value is round-off.  After the decision one pass handles every block by
the values the decision saw of it: a block with none of them zero is
solved (the one block through its LU factors, `OperatorMatrix.lu`), and
only a block with a zero is decomposed by one SVD into real (numerical)
kernel and cokernel bases, a truncated least-squares solution, and the
solvability defect of the forcing.  The residual of that solution is
sup|Au - rhs|, with Au the one block's sparse product, or taken block
by block through the same rfft over t as the solve, so no part of K is
walked after assembly.

From the decision on, each path keeps its dense linear algebra in one
of the two OpenBLAS libraries that numpy and scipy link: switching
between them left each library's threads spinning on the cores the
other needed.  The Fourier blocks are small and kept, so every SVD,
solve and product on them is numpy's (`np.linalg`, `@`), and an
autonomous problem never loads scipy.linalg.  The one block is
scattered for LAPACK to overwrite, which numpy's routines cannot do in
place, so its LU, its solves, its SVD and the products with its SVD
factors are scipy's (`lu_factor`, `lu_solve`, `svd`, `_gemv`).

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
    with period 1, the N * N of A scattered for its LU (see `_dense`);
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
    """LU factors of a one-block A, for solve and singular_spectrum:
    scipy's lu_factor, taken on first use and kept in `OperatorMatrix.lu`.
    They overwrite a scatter of A made for this call (see `_dense`), the
    one dense copy of A the alternative makes unless it decomposes A.  A
    is checked finite on its stored values alone, as LAPACK would check
    the scatter: the others are exact zeros.

    An exactly singular A leaves a zero on the diagonal of U, which
    singular_spectrum reads as sigma_min = 0; scipy's warning about that
    pivot is silenced here.
    """
    from scipy.linalg import LinAlgWarning

    if matrix.lu is None:
        if not np.isfinite(matrix.row0.data).all():
            raise ValueError("A has entries that are not finite")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            matrix.lu = lu_factor(_dense(matrix), overwrite_a=True, check_finite=False)
    return matrix.lu


def _dense(matrix):
    """A one-block A scattered afresh into a dense Fortran-ordered array,
    for the LAPACK call its caller makes next to overwrite.  It is written
    from row0's arrays, which hold each entry once; scipy's `toarray` would
    fill a Fortran-ordered array through a CSC copy of them."""
    row0 = matrix.row0
    a = np.zeros(row0.shape, order="F")
    rows = np.repeat(np.arange(row0.shape[0], dtype=row0.indices.dtype), np.diff(row0.indptr))
    a[rows, row0.indices] = row0.data
    return a


def singular_spectrum(matrix, edges=False):
    """Singular values of A, descending.

    All N values, pooled from the blocks of A (see `block_sigma`); or,
    with `edges`, only [sigma_max, sigma_min]: the ends of those values
    for Fourier blocks, and for a one-block A the results of
    implicitly restarted Lanczos runs (ARPACK) on the Gram A^T A, by two
    sparse products with the stored A (`apply`).  sigma_max is the root of
    its largest eigenvalue, at tol 1e-8.  sigma_min is the root of its
    smallest (see `_smallest_eigenpair`) where that run certifies it (see
    `_certified`), and A is not factored.  Otherwise it comes from a
    third run, for the largest eigenvalue of (A^T A)^-1 = A^-1 A^-T at tol
    1e-12, through the LU factors `factor` takes, from the eigenvector
    the smallest run gave or else from its start; a zero pivot gives
    sigma_min = 0.  Whatever its density, A is dense here only inside the
    LU call, which overwrites the scatter made for it.  A failed
    factorization raises as itself, a failed Lanczos run or SVD as
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
    # agrees with tol 1e-12's to 8e-16, in 10 fewer Gram products
    sigma_max = math.sqrt(_eigsh(gram, start, return_eigenvectors=False, tol=1e-8)[0])
    smallest, start = _smallest_eigenpair(gram, start)
    if _certified(smallest, sigma_max):
        return np.array([sigma_max, math.sqrt(smallest)])
    if np.any(np.diagonal(factor(matrix)[0]) == 0.0):
        return np.array([sigma_max, 0.0])
    # from a close start, 8 Lanczos vectors before the first restart take
    # fewer LU solves than ARPACK's default 20; fewer than 8 stall on a
    # cluster at sigma_min, as levy-pass has
    largest = _eigsh(inverse_gram, start, return_eigenvectors=False, tol=1e-12, ncv=8)[0]
    return np.array([sigma_max, 1.0 / math.sqrt(largest)])


def _pooled(per_block, multiplicity):
    """A's singular values, descending, from those of its blocks."""
    return np.sort(np.repeat(np.stack(per_block), multiplicity, axis=0).ravel())[::-1]


def _eigsh(matvec, start, **options):
    """scipy's eigsh (ARPACK) for one eigenpair of the symmetric operator
    matvec, from start.  A product that is not finite (a finite A's Gram
    can overflow) stops the run before ARPACK's LAPACK calls read it and
    print to the terminal.  Any failure raises SpectrumError, from
    ArpackNoConvergence when the run did not converge."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    def checked(v):
        out = matvec(v)
        if not np.isfinite(out).all():
            raise FloatingPointError("a Lanczos product with A^T A or its inverse is not finite")
        return out

    op = LinearOperator((start.size, start.size), matvec=checked, dtype=float)
    try:
        return eigsh(op, k=1, v0=start, **options)
    except Exception as err:
        raise SpectrumError(f"singular value computation failed: {err}") from err


def _smallest_eigenpair(gram, start):
    """The smallest eigenvalue of gram and its eigenvector, from a Lanczos
    run from start at tol 1e-13 on a capped budget, or (nan, start) when
    the run does not converge within it."""
    from scipy.sparse.linalg import ArpackNoConvergence

    # at most 73 Gram products, 37 and then 12 a restart: wellposed is
    # certified in 37, 49 and 61 of them at 17 x 16, 33 x 32 and 65 x 64,
    # which leaves a restart to spare where ARPACK builds count apart;
    # levy-pass, whose sigma_min sits in a cluster, and breathing
    # example13, too small against sigma_max to certify, spend them all
    options = dict(which="SA", tol=1e-13, maxiter=4, ncv=min(24, start.size))
    try:
        values, vectors = _eigsh(gram, start, **options)
    except SpectrumError as err:
        if not isinstance(err.__cause__, ArpackNoConvergence):
            raise
        return math.nan, start
    return float(values[0]), vectors[:, 0]


def _certified(smallest, sigma_max):
    """Whether sqrt(smallest), from `_smallest_eigenpair`, is sigma_min to
    1e-13 relative.  The residual bound |theta - lambda| <= |r| (Parlett,
    The Symmetric Eigenvalue Problem, ch. 4) and the run's tol put
    smallest within 1e-13 smallest of an eigenvalue of the Gram as
    applied, and rounding in the products moves that eigenvalue by about
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
    """b^-1 r, or b^-H r, for a block b of A: scipy's lu_solve through the
    LU factors of a one-block A (see `factor`), numpy's solve of a Fourier
    block, which keeps no factors."""
    if matrix.period == 1:
        return lu_solve(factor(matrix), r, trans=int(transpose))
    return np.linalg.solve(_adjoint(b, transpose), r)


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
