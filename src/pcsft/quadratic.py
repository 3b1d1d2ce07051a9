"""Quadratic-form observables and their analytic / Monte Carlo statistics.

A classical observable is f_A(phi) = <A phi, phi> for a self-adjoint A,
read off one component of the bi-signal.  The cross-component pairing
used throughout conjugates the second component: the correlation of
interest is

    cov(f_{A1}(phi1), f_{A2}(conj(phi2)))
        = Tr[A1 D12 conj(A2) D12†],

which is independent of the background level and, whenever D12 is the
coefficient matrix of a state, equals the tensor average
<A1 (x) A2 Ψ, Ψ>.  So every evaluator reads side-1 forms off phi1 and
side-2 forms off conj(phi2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .covariance import BlockCovariance
from .errors import DimensionError, RealityError, SelfAdjointnessError
from .hilbert import as_real, require_selfadjoint
from .sampler import _BLOCK_ROWS, PRNG_ID, draw_chunks


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Observable f_A(phi) = <A phi, phi> on signal component ``side``."""

    operator: np.ndarray
    side: int

    def __post_init__(self):
        op = require_selfadjoint(self.operator, name="operator")
        op = op.copy()
        op.setflags(write=False)
        if self.side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {self.side!r}")
        object.__setattr__(self, "operator", op)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    n: int
    analytic: float | None = None
    seed: int | None = None
    prng_id: str | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2 samples, got {self.n}")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")

    def within(self, sigmas: float = 5.0) -> bool:
        """Whether the estimate lies within ``sigmas`` standard errors of
        its analytic value (requires ``analytic`` to be set)."""
        if self.analytic is None:
            raise ValueError("no analytic value attached")
        return abs(self.value - self.analytic) <= sigmas * self.std_error


class _Rows:
    """Rows of one component, read by one thread, and their (rows, 2d)
    float64 view, re and im interleaved.  ``phi`` is a column slice of a
    sampler block, so its last axis has the unit stride the view needs.
    Intensities |phi|^2 are computed on first use and shared by every
    diagonal form read off them.  (No functools.cached_property: before
    Python 3.12 it takes one lock for all instances, which would
    serialize the sampler's workers.)"""

    def __init__(self, phi: np.ndarray):
        self.phi = phi
        self.values = phi.view(np.float64)
        self._intensity = None

    @property
    def intensity(self) -> np.ndarray:
        if self._intensity is None:
            self._intensity = self.phi.real**2 + self.phi.imag**2
        return self._intensity


def _form_kernel(operator: np.ndarray, conjugate: bool) -> Callable[[_Rows], np.ndarray]:
    """Evaluator ``rows -> values`` of f_A on a component, or on its
    conjugate (the side-2 pairing), in real arithmetic on the rows' view v.

    For psi = x + iy and A = S + iK, f_A(psi) = x·Sx + y·Sy - 2x·Ky, and
    conjugation negates K.  A diagonal A reads the shared intensities; any
    other takes the real symmetric 2d×2d matrix M of this form on v,
    v·(v @ M) per row.  A non-self-adjoint A raises RealityError: its
    values would not be real.
    """
    try:
        require_selfadjoint(operator)
    except SelfAdjointnessError as exc:
        raise RealityError(f"quadratic form would not be real: {exc}") from None
    diag = np.diagonal(operator)
    if np.array_equal(operator, np.diag(diag)):
        weights = diag.real.copy()
        return lambda rows: rows.intensity @ weights
    hermitian = 0.5 * (operator + operator.conj().T)
    k = -hermitian.imag if conjugate else hermitian.imag
    m = np.empty((2 * len(diag), 2 * len(diag)))
    m[0::2, 0::2] = m[1::2, 1::2] = hermitian.real
    m[0::2, 1::2] = -k
    m[1::2, 0::2] = k
    return lambda rows: np.einsum("na,na->n", rows.values @ m, rows.values)


def _shift_map(delta: np.ndarray) -> np.ndarray:
    """The matrix L with L [1, d, d²] = [1, d + delta, (d + delta)²]."""
    k = delta.shape[0]
    shift = np.eye(1 + 2 * k)
    j = np.arange(k)
    shift[1 + j, 0] = delta
    shift[1 + k + j, 0] = delta**2
    shift[1 + k + j, 1 + j] = 2.0 * delta
    return shift


class Moments:
    """Count, means and central moments up to order four of k value
    columns, accumulated in one pass over index-ordered blocks of rows.

    ``add(index, columns)`` takes block ``index`` of a fixed tiling of the
    rows (blocks 0, 1, 2, ... in row order), one vector per column.  Per
    block it keeps its mean m_b and the Gram matrix of the rows
    [1, d, d²], d = value - m_b: one (1 + 2k)² matrix product.  Blocks are
    folded into one total in index order, each first moved onto the mean
    of block 0 by the exact linear map d -> d + (m_b - m_0); a block that
    arrives before its predecessors waits for them.  So the result never
    depends on which thread added which block, or when, and memory does
    not grow with the row count.  Centring on block means first keeps the
    sums stable when the values sit far from zero.  The estimates move
    the total onto the global mean the same way and read off it in closed
    form; they equal the two-pass formulas up to rounding.  Thread-safe.
    """

    def __init__(self, k: int, seed: int | None = None, prng_id: str | None = None):
        self.k = k
        self.seed = seed
        self.prng_id = prng_id
        self.count = 0
        self._gram = np.zeros((1 + 2 * k, 1 + 2 * k))
        self._pivot = None
        self._next = 0
        self._pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def add(self, index: int, columns: Sequence[np.ndarray]):
        """Add block ``index``: ``columns[j]`` holds column j on its rows."""
        k = self.k
        rows = np.empty((1 + 2 * k, columns[0].shape[0]))
        rows[0] = 1.0
        d = rows[1 : 1 + k]
        for j, column in enumerate(columns):
            d[j] = column
        mean = d.mean(axis=1)
        d -= mean[:, None]
        np.square(d, out=rows[1 + k :])
        gram = rows @ rows.T
        with self._lock:
            self._pending[index] = (mean, gram)
            while self._next in self._pending:
                block_mean, block_gram = self._pending.pop(self._next)
                if self._pivot is None:
                    self._pivot = block_mean
                shift = _shift_map(block_mean - self._pivot)
                self._gram += shift @ block_gram @ shift.T
                self.count += int(block_gram[0, 0])
                self._next += 1

    def _centred(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(n, means, Gram matrix of [1, d, d²] with d = value - mean)."""
        if self._pending:
            raise ValueError(
                f"blocks {sorted(self._pending)} wait for block {self._next}"
            )
        n = self.count
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
        # Sums of d about the pivot, so the means are pivot + offset.
        offset = self._gram[0, 1 : 1 + self.k] / n
        shift = _shift_map(-offset)
        return n, self._pivot + offset, shift @ self._gram @ shift.T

    def _estimate(self, value, variance, n, analytic) -> Estimate:
        return Estimate(
            value=float(value),
            std_error=float(np.sqrt(max(variance, 0.0) / n)),
            n=n,
            analytic=analytic,
            seed=self.seed,
            prng_id=self.prng_id,
        )

    def mean(self, i: int, analytic: float | None = None) -> Estimate:
        """Sample mean of column i; the standard error is the
        Bessel-corrected standard deviation over sqrt(n)."""
        n, means, gram = self._centred()
        return self._estimate(means[i], gram[1 + i, 1 + i] / (n - 1), n, analytic)

    def cov(self, i: int, j: int, analytic: float | None = None) -> Estimate:
        """Sample covariance of columns i and j, with standard error.

        Both columns are centred on their means; the value is the sum of
        the centred products over n - 1 and the standard error is the
        plug-in one (Bessel-corrected standard deviation of the centred
        products over sqrt(n)).  Quadratic forms of Gaussians have finite
        fourth moments, so the CLT applies.
        """
        n, _, gram = self._centred()
        k = self.k
        products = gram[1 + i, 1 + j]
        squares = gram[1 + k + i, 1 + k + j]
        variance = (squares - products * products / n) / (n - 1)
        return self._estimate(products / (n - 1), variance, n, analytic)


def form_moments(
    cov: BlockCovariance,
    seed: int,
    count: int,
    forms: Sequence[QuadraticForm],
    workers: int | None = None,
) -> Moments:
    """Moments of the forms' values on ``count`` fresh samples, drawn,
    evaluated and accumulated in one pass.

    Column j of the moments is form j on the samples ``draw_chunks`` draws
    for (cov, seed, count): side-1 forms on phi1, side-2 forms on
    conj(phi2), the pairing of analytic_cov.  Each form is evaluated once
    per block inside the sampler's workers and folded into the moments
    there, so memory is O(workers * block) whatever ``count`` is.
    Diagonal forms on one side share that side's intensities, computed
    once per block.  Pass each distinct form once; the result is
    bit-identical for any worker count.
    """
    for form in forms:
        size = cov.d1 if form.side == 1 else cov.d2
        if form.dim != size:
            raise DimensionError(
                f"component has dimension {size}, operator needs {form.dim}"
            )
    moments = Moments(len(forms), seed=int(seed), prng_id=PRNG_ID)
    kernels = [_form_kernel(form.operator, form.side == 2) for form in forms]

    def consume(start: int, phi: np.ndarray):
        sides = {1: _Rows(phi[:, : cov.d1]), 2: _Rows(phi[:, cov.d1 :])}
        moments.add(
            start // _BLOCK_ROWS,
            [kernel(sides[form.side]) for form, kernel in zip(forms, kernels)],
        )

    draw_chunks(cov, seed, count, consume, workers)
    return moments


def analytic_mean(cov: BlockCovariance, form: QuadraticForm) -> float:
    """E f_A(phi_side): Tr[D11 A] on side 1, Tr[D22 conj(A)] on side 2."""
    if form.side == 1:
        if form.dim != cov.d1:
            raise DimensionError(f"operator dim {form.dim} != d1 = {cov.d1}")
        return as_real(np.trace(cov.d11 @ form.operator))
    if form.dim != cov.d2:
        raise DimensionError(f"operator dim {form.dim} != d2 = {cov.d2}")
    return as_real(np.trace(cov.d22 @ np.conj(form.operator)))


def renormalized_mean(cov: BlockCovariance, form: QuadraticForm) -> float:
    """Classical mean with the background contribution subtracted.

    analytic_mean minus epsilon * Tr A; for covariances built from a
    state this reproduces the corresponding marginal average exactly.
    """
    trace = complex(np.trace(form.operator))
    if form.side == 2:
        trace = np.conj(trace)
    return analytic_mean(cov, form) - cov.epsilon * as_real(trace)


def analytic_cov(
    cov: BlockCovariance, f1: QuadraticForm, f2: QuadraticForm
) -> float:
    """Covariance of f1 on component 1 and f2 on the conjugated component 2.

    Wick evaluation under circularity gives Tr[A1 D12 conj(A2) D12†];
    only the off-diagonal block enters, so the value is independent of
    the background level.
    """
    if f1.side != 1 or f2.side != 2:
        raise ValueError("analytic_cov expects f1 on side 1 and f2 on side 2")
    if f1.dim != cov.d1 or f2.dim != cov.d2:
        raise DimensionError(
            f"operator dims ({f1.dim}, {f2.dim}) do not match blocks "
            f"({cov.d1}, {cov.d2})"
        )
    value = np.trace(
        f1.operator @ cov.d12 @ np.conj(f2.operator) @ cov.d12.conj().T
    )
    return as_real(value)
