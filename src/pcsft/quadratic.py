"""Quadratic-form observables and their analytic / Monte Carlo statistics.

A classical observable is f_A(phi) = <A phi, phi> for a self-adjoint A,
read off one component of the bi-signal.  The cross-component pairing
used throughout conjugates the second component: the correlation of
interest is

    cov(f_{A1}(phi1), f_{A2}(conj(phi2)))
        = Tr[A1 D12 conj(A2) D12†],

which is independent of the background level and, whenever D12 is the
coefficient matrix of a state, equals the tensor average
<A1 (x) A2 Ψ, Ψ>.  The unconjugated pairing exists behind a flag for
diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .covariance import BlockCovariance
from .errors import DimensionError, RealityError
from .hilbert import as_real, require_selfadjoint
from .sampler import BiSignalSample, SampleBatch, draw_chunks, require_count


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


def eval_form(form: QuadraticForm, sample: BiSignalSample) -> float:
    """Evaluate f_A on one sample, asserting the result is real."""
    phi = sample.phi1 if form.side == 1 else sample.phi2
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (form.dim,):
        raise DimensionError(
            f"sample component has shape {phi.shape}, operator needs ({form.dim},)"
        )
    return as_real(np.vdot(phi, form.operator @ phi))


def _component(batch: SampleBatch, side: int) -> np.ndarray:
    return batch.phi1 if side == 1 else batch.phi2


class _Rows:
    """Rows of one component, read by one thread; their intensities
    |phi|^2 are computed on first use and shared by every diagonal form
    read off them.  (No functools.cached_property: before Python 3.12 it
    takes one lock for all instances, which would serialize the sampler's
    workers.)"""

    def __init__(self, phi: np.ndarray):
        self.phi = phi
        self._intensity = None

    @property
    def intensity(self) -> np.ndarray:
        if self._intensity is None:
            self._intensity = self.phi.real**2 + self.phi.imag**2
        return self._intensity


def _dense_values(
    phi: np.ndarray, operator_t: np.ndarray, conjugate: bool
) -> np.ndarray:
    """<A psi_n, psi_n> over the rows, psi = conj(phi) if ``conjugate``
    else phi, given A^T; the result must be real up to rounding."""
    psi = np.conj(phi) if conjugate else phi
    values = np.einsum("nk,nk->n", psi @ operator_t, np.conj(psi))
    worst = float(np.max(np.abs(values.imag)))
    scale = max(1.0, float(np.max(np.abs(values.real))))
    if worst > 1e-10 * scale:
        raise RealityError(
            f"quadratic form returned imaginary part {worst:.3e}; operator corrupt?"
        )
    return values.real


def _form_kernel(operator: np.ndarray) -> Callable[[_Rows, bool], np.ndarray]:
    """Evaluator ``(rows, conjugate) -> values`` for one operator.

    A diagonal operator A = diag(weights) takes the intensity branch,
    ``rows.intensity @ weights``, which conjugation does not change; any
    other operator takes the dense row-dot branch.
    """
    diag = np.diagonal(operator)
    if np.array_equal(operator, np.diag(diag)):
        weights = diag.real.copy()
        return lambda rows, conjugate: rows.intensity @ weights
    operator_t = operator.T.copy()
    return lambda rows, conjugate: _dense_values(rows.phi, operator_t, conjugate)


def eval_form_batch(
    form: QuadraticForm, batch: SampleBatch, conjugate: bool = False
) -> np.ndarray:
    """Vectorized f_A over a batch; optionally on conjugated samples."""
    phi = _component(batch, form.side)
    if phi.shape[1] != form.dim:
        raise DimensionError(
            f"batch component has dimension {phi.shape[1]}, operator needs {form.dim}"
        )
    return _form_kernel(form.operator)(_Rows(phi), conjugate)


def sample_forms(
    cov: BlockCovariance,
    seed: int,
    count: int,
    forms: Sequence[QuadraticForm],
    workers: int | None = None,
) -> np.ndarray:
    """Values of each form on ``count`` fresh samples, drawn and evaluated
    in one pass.

    Returns a (count, len(forms)) float64 matrix whose column j holds
    form j on the same samples ``draw(cov, seed, count)`` would return:
    side-1 forms on phi1, side-2 forms on conj(phi2), the pairing of
    analytic_cov.  Each form is evaluated once per chunk inside the
    sampler's workers, and no complex batch of all samples is kept, so
    memory is O(count * len(forms)) floats.  Diagonal forms on one side
    share that side's intensities, computed once per chunk.  Pass each
    distinct form once; the result is bit-identical for any worker count.
    """
    for form in forms:
        size = cov.d1 if form.side == 1 else cov.d2
        if form.dim != size:
            raise DimensionError(f"operator dim {form.dim} != d{form.side} = {size}")
    kernels = [_form_kernel(form.operator) for form in forms]
    # Columns are rows of a (k, count) array, so each estimator reads a
    # contiguous vector, exactly as it would from eval_form_batch.
    values = np.empty((len(forms), require_count(count)))

    def evaluate(start: int, phi: np.ndarray):
        sides = {1: _Rows(phi[:, : cov.d1]), 2: _Rows(phi[:, cov.d1 :])}
        stop = start + phi.shape[0]
        for row, form, kernel in zip(values, forms, kernels):
            row[start:stop] = kernel(sides[form.side], form.side == 2)

    draw_chunks(cov, seed, count, evaluate, workers)
    return values.T


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


def cov_estimate(
    x: np.ndarray,
    y: np.ndarray,
    analytic: float | None = None,
    seed: int | None = None,
    prng_id: str | None = None,
) -> Estimate:
    """Sample covariance of two paired value vectors, with standard error.

    Both vectors are centred on their global means; the value is the sum
    of the centred products over n - 1 and the standard error is the
    plug-in one (Bessel-corrected standard deviation of the centred
    products over sqrt(n)).  Quadratic forms of Gaussians have finite
    fourth moments, so the CLT applies.
    """
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    products = (x - x.mean()) * (y - y.mean())
    return Estimate(
        value=float(products.sum() / (n - 1)),
        std_error=float(products.std(ddof=1) / np.sqrt(n)),
        n=n,
        analytic=analytic,
        seed=seed,
        prng_id=prng_id,
    )


def mc_cov(
    batch: SampleBatch,
    f1: QuadraticForm,
    f2: QuadraticForm,
    conjugate_second: bool = True,
    analytic: float | None = None,
) -> Estimate:
    """Sample covariance of the two quadratic forms over a batch.

    The second form is evaluated on conjugated samples by default,
    matching the pairing of analytic_cov; pass conjugate_second=False
    only for diagnostics.  See cov_estimate for the estimator.
    """
    if f1.side != 1 or f2.side != 2:
        raise ValueError("mc_cov expects f1 on side 1 and f2 on side 2")
    x = eval_form_batch(f1, batch)
    y = eval_form_batch(f2, batch, conjugate=conjugate_second)
    return cov_estimate(x, y, analytic, batch.seed, batch.prng_id)


def mc_mean(
    batch: SampleBatch,
    form: QuadraticForm,
    analytic: float | None = None,
    conjugate: bool | None = None,
) -> Estimate:
    """Sample mean of a quadratic form over a batch, with standard error.

    By default side-2 forms are evaluated on conjugated samples, the same
    pairing analytic_mean uses (its side-2 value is Tr[D22 conj(A)]).
    """
    if batch.count < 2:
        raise ValueError(f"need at least 2 samples, got {batch.count}")
    if conjugate is None:
        conjugate = form.side == 2
    values = eval_form_batch(form, batch, conjugate=conjugate)
    return Estimate(
        value=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(values.shape[0])),
        n=values.shape[0],
        analytic=analytic,
        seed=batch.seed,
        prng_id=batch.prng_id,
    )
