"""Quadratic-form observables and their analytic / Monte Carlo statistics.

A classical observable is f_A(phi) = <A phi, phi> for a self-adjoint A,
read off one component of the bi-signal: side-1 forms read phi1, side-2
forms conj(phi2).  Every form is weighted intensities: a diagonal A's of
phi's own modes, any other A's of phi in A's eigenbasis, planned once
when the form is built.  The readout R stacks every form's rows, and
each form reads only its own rows of y = R phi.

The sampler hands over seeded standard complex normals w, and nothing
else; this module turns them into the field.  For the covariance's
factor F, F F† = D, phi = F w / sqrt(2) is circularly-symmetric complex
Gaussian: zero mean, covariance E[phi phi†] = D, and vanishing
pseudo-covariance E[phi phiᵀ] = 0.  Circularity is a model choice: only
the covariance itself is prescribed by the encoding of a state, and the
zero-pseudo-covariance completion is the one under which the
correlation identities below hold.  A worker applies the one transform
R F to each block, so its rows are y = w (R F)ᵀ / sqrt(2) = R phi, and
this module makes every BLAS call of the sample loop: that product and
the Gram of the moments.

For circular phi of covariance D, y is circular of covariance
C = R D R†, and Isserlis gives every analytic value from C:

    E f = Σ_r w_r C_rr,    cov(f, g) = Σ_rs w_r w_s |C_rs|²,

r over f's rows and s over g's, forms on any sides.  A cross pair reads
only D12, so it is independent of the background level, and equals
<A1 (x) A2 Ψ, Ψ> when D12 is a state's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .covariance import BlockCovariance, factor_covariance
from .errors import DimensionError, SchemaError
from .hilbert import _store, require_selfadjoint
from .sampler import draw_chunks


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Observable f_A(phi) = <A phi, phi> on signal component ``side``.

    Planned once, on construction, from ``operator``, the exactly Hermitian
    matrix require_selfadjoint returns: f_A is ``weights`` applied to the
    intensities of ``basis`` · phi_side, both read-only.  A diagonal A
    weights its side's own modes (identity rows) by its diagonal.  Any
    other A = QΛQ† weights those of Q†psi by Λ; on side 2, psi =
    conj(phi2) and |Q† conj(phi2)| = |Qᵀ phi2|, so the basis is Q† on
    side 1 and Qᵀ on side 2.  Only rows of nonzero weight are kept.
    """

    operator: np.ndarray
    side: int
    basis: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        op = require_selfadjoint(self.operator, name="operator")
        if self.side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {self.side!r}")
        diag = np.diagonal(op)
        if np.array_equal(op, np.diag(diag)):
            weights, basis = diag.real, np.eye(len(diag), dtype=complex)
        else:
            weights, q = np.linalg.eigh(op)
            basis = q.conj().T if self.side == 1 else q.T
        keep = weights != 0.0
        _store(self, operator=op, basis=basis[keep], weights=weights[keep])

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


# Acceptance band for a Monte Carlo estimate against its analytic value,
# in standard errors.
SE_BAND = 5.0

# Fewest samples a command gates on SE_BAND: below it the plug-in standard
# error is too noisy to judge a miss by.  Even at it, a correct run fails
# its gate for about 5e-4 to 7.5e-4 of seeds (README, "Command line").
MIN_SAMPLES = 1000

# Sample count of an experiment or a verify-identity run unless one is given.
DEFAULT_SAMPLES = 200_000

# A draw's admissible range.  The standard errors read fourth moments of the
# form values, about n (entry × epsilon)⁴ × c over n samples for a form's
# largest entry modulus, c about 9 d⁴ for a dense d × d form (at most 3.6e4
# measured up to 8 × 8).  At MAX_SAMPLES (1.2e21), MAX_OPERATOR_ENTRY and
# MAX_EPSILON that is 1.2e301 × c, finite up to about 36 × 36; entries from
# 1e75, or epsilon from 1e21, overflow.  Entries down to 1/MAX_OPERATOR_ENTRY
# stay in the normal range; from about 1e-80 they underflow, and a correct
# draw fails its gate at a standard error of 0.  A zero form is admitted.
MAX_EPSILON = 1e20
MAX_OPERATOR_ENTRY = 1e50


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    n: int
    analytic: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2 samples, got {self.n}")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")

    def within(self) -> bool:
        """Whether the estimate lies within SE_BAND standard errors of its
        analytic value (requires ``analytic`` to be set)."""
        if self.analytic is None:
            raise ValueError("no analytic value attached")
        return abs(self.value - self.analytic) <= SE_BAND * self.std_error


def _readout(
    forms: Sequence[QuadraticForm], d1: int, d2: int
) -> tuple[np.ndarray, list[tuple[slice, np.ndarray]]]:
    """The readout R, every form's basis rows zero-padded to d1 + d2
    columns and stacked in form order, and each form's (columns, weights):
    its values are the weights applied to the intensities of those
    columns of R phi.  A form must fit its side's modes."""
    readout = np.zeros((sum(len(form.weights) for form in forms), d1 + d2), dtype=complex)
    plans, start = [], 0
    for form in forms:
        first, dim = (0, d1) if form.side == 1 else (d1, d2)
        if form.dim != dim:
            raise DimensionError(f"operator dim {form.dim} != d{form.side} = {dim}")
        rows = slice(start, start + len(form.weights))
        readout[rows, first : first + dim] = form.basis
        plans.append((rows, form.weights))
        start = rows.stop
    return readout, plans


def _readout_covariance(
    cov: BlockCovariance, forms: Sequence[QuadraticForm]
) -> tuple[np.ndarray, list[tuple[slice, np.ndarray]], np.ndarray]:
    """The forms' readout R and plans, and C = R D R†, the covariance of
    the rows y = R phi that every analytic value is read off."""
    readout, plans = _readout(forms, cov.d1, cov.d2)
    return readout, plans, readout @ cov.assembled() @ readout.conj().T


def _cov(c: np.ndarray, f: tuple[slice, np.ndarray], g: tuple[slice, np.ndarray]) -> float:
    """cov(f, g) = Σ_rs w_r w_s |C_rs|² over f's rows r and g's rows s."""
    (rows_f, weights_f), (rows_g, weights_g) = f, g
    return float(weights_f @ np.abs(c[rows_f, rows_g]) ** 2 @ weights_g)


def _product_rows(ft: np.ndarray) -> int:
    """Rows of one block product call by an (n, m) ``ft``: the largest
    multiple of 192 that keeps rows × m × n below 65536, and at least 192.
    OpenBLAS keeps a complex product on the calling thread below that bound,
    so transforms up to 18 × 18 start no BLAS thread; wider ones may.  Such
    slices equal the whole-block product bit for bit on every kernel tested
    (units of 64, 128, 256 and 320 rows do not); a 1-row rest joins the last
    slice, as numpy rounds a lone row differently."""
    return max(1, 65535 // (192 * max(ft.size, 1))) * 192


class _Workspace:
    """One sampler worker's scratch for form_moments, allocated once when
    the worker starts and reused for every block: y, the block's rows of
    R phi (rows × m for the (m, n) transform R F), and the moment rows,
    (1 + 2k) × rows.  Form j's values, in row 1 + j, are its weights
    times the intensities |·|² of its own columns of y, summed term by
    term in column order, each term after the first built in row
    1 + k + j, which the fold overwrites.  They take no BLAS call: given
    y, they depend neither on the BLAS kernel nor on the other forms; the
    product and the fold's Gram are the BLAS calls.  A block reshapes a
    prefix of the flat buffer, so a short last block gets the layout a
    fresh array would have, and the same values bit for bit.
    """

    def __init__(self, transform: np.ndarray, plans: Sequence, block_rows: int):
        self._ft = transform.T * np.sqrt(0.5)
        self._y = np.empty((block_rows, len(transform)), dtype=complex)
        self._plans = plans
        self._height = 1 + 2 * len(plans)
        self._rows = np.empty(self._height * block_rows)

    def product(self, w: np.ndarray) -> np.ndarray:
        """y = w (R F)ᵀ / sqrt(2) of the normals ``w``, in the workspace's
        buffer, in row slices of ``_product_rows`` that OpenBLAS keeps on
        the worker's thread."""
        n, step, y = len(w), _product_rows(self._ft), self._y[: len(w)]
        for lo in range(0, max(n - 1, 1), step):
            hi = n if n - lo <= step + 1 else lo + step
            np.matmul(w[lo:hi], self._ft, out=y[lo:hi])
        return y

    def rows(self, y: np.ndarray) -> np.ndarray:
        """The moment rows of the block ``y`` of R phi, form j's values in
        row 1 + j.  Squares y's float64 view in place."""
        n = y.shape[0]
        k = len(self._plans)
        rows = self._rows[: self._height * n].reshape(self._height, n)
        v = y.view(np.float64)
        np.square(v, out=v)
        for j, (columns, weights) in enumerate(self._plans):
            values, term = rows[1 + j], rows[1 + k + j]
            if not len(weights):  # a zero operator has no rows
                values.fill(0.0)
                continue
            c = columns.start
            np.add(v[:, 2 * c], v[:, 2 * c + 1], out=values)
            values *= weights[0]
            for c, weight in zip(range(c + 1, columns.stop), weights[1:]):
                np.add(v[:, 2 * c], v[:, 2 * c + 1], out=term)
                term *= weight
                values += term
        return rows

    def gram(self, w: np.ndarray, centre: np.ndarray) -> np.ndarray:
        """The Gram matrix of [1, d, d²], d = value - centre, on the block
        of normals ``w``, built in the moment rows: row 0 becomes ones, the
        values their deviations d, and rows 1 + k on the squares d²."""
        k = len(self._plans)
        rows = self.rows(self.product(w))
        rows[0] = 1.0
        d = rows[1 : 1 + k]
        for column, c in zip(d, centre):  # row by row: no broadcast buffer
            column -= c
        np.square(d, out=rows[1 + k :])
        return rows @ rows.T


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
    columns, read off ``gram``, the Gram matrix of [1, d, d²] summed over
    the rows, d = value - ``centre`` (k values).  Plain arithmetic on one
    matrix, with no lock: the sampler sums the per-block Grams in block
    order.  The constructor moves the Gram onto the sample means once, by
    the exact linear map d -> d - (mean - centre), and raises ValueError
    below 2 samples; every estimate reads that one centred Gram.  They are
    the sample statistics (the two-pass formulas) whatever the centre,
    which moves only their rounding, least when it is near the means, as
    the analytic means are.
    """

    def __init__(self, centre, gram: np.ndarray):
        self.centre = np.array(centre, dtype=float)
        self.k = len(self.centre)
        self.count = n = int(gram[0, 0])
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
        # Sums of d about the centre, so the means are centre + offset.
        offset = gram[0, 1 : 1 + self.k] / n
        shift = _shift_map(-offset)
        self._means = self.centre + offset
        self._gram = shift @ gram @ shift.T

    def _estimate(self, value, variance, analytic) -> Estimate:
        n = self.count
        return Estimate(
            value=float(value),
            std_error=float(np.sqrt(max(variance, 0.0) / n)),
            n=n,
            analytic=analytic,
        )

    def mean(self, i: int, analytic: float | None = None) -> Estimate:
        """Sample mean of column i; the standard error is the
        Bessel-corrected standard deviation over sqrt(n)."""
        variance = self._gram[1 + i, 1 + i] / (self.count - 1)
        return self._estimate(self._means[i], variance, analytic)

    def cov(self, i: int, j: int, analytic: float | None = None) -> Estimate:
        """Sample covariance of columns i and j, with standard error.

        Both columns are centred on their means; the value is the sum of
        the centred products over n - 1 and the standard error is the
        plug-in one (Bessel-corrected standard deviation of the centred
        products over sqrt(n)).  Quadratic forms of Gaussians have finite
        fourth moments, so the CLT applies.
        """
        n, gram, k = self.count, self._gram, self.k
        products = gram[1 + i, 1 + j]
        squares = gram[1 + k + i, 1 + k + j]
        variance = (squares - products * products / n) / (n - 1)
        return self._estimate(products / (n - 1), variance, analytic)


def _draw_moments(
    cov: BlockCovariance, seed: int, count: int, forms: Sequence[QuadraticForm]
) -> tuple[Moments, list[tuple[slice, np.ndarray]], np.ndarray]:
    """form_moments, with the plans and C = R D R† it read the centres off."""
    for form in forms:
        peak = np.max(np.abs(form.operator))
        if peak and not 1 / MAX_OPERATOR_ENTRY <= peak <= MAX_OPERATOR_ENTRY:
            bounds = f"[{1 / MAX_OPERATOR_ENTRY:.0e}, {MAX_OPERATOR_ENTRY:.0e}]"
            raise SchemaError(f"a{form.side}", f"expected the largest entry modulus in {bounds}, "
                                               f"got {peak:.3g}")
    if cov.epsilon > MAX_EPSILON:
        raise SchemaError("epsilon", f"a draw takes at most MAX_EPSILON = {MAX_EPSILON:g}, "
                                     f"got {cov.epsilon!r}")
    factor = factor_covariance(cov)
    readout, plans, c = _readout_covariance(cov, forms)
    transform = readout @ factor
    centre = np.array([weights @ c.diagonal()[rows].real for rows, weights in plans])

    def make_consumer(block_rows):
        workspace = _Workspace(transform, plans, block_rows)
        return lambda index, w: workspace.gram(w, centre)

    gram = draw_chunks(transform.shape[1], seed, count, make_consumer)
    return Moments(centre, gram), plans, c


def form_moments(
    cov: BlockCovariance,
    seed: int,
    count: int,
    forms: Sequence[QuadraticForm],
) -> Moments:
    """Moments of the forms' values on ``count`` fresh samples, drawn,
    evaluated and accumulated in one pass, centred on the forms' analytic
    means Σ_r w_r Re C_rr, C = R D R† for the forms' readout R.

    Column j of the moments is form j on y = R phi, phi = F w / sqrt(2)
    for the normals w ``draw_chunks`` draws for (seed, count) and F the
    factor of ``cov``.  The admissible range is checked first, before F
    is formed (SchemaError naming a1 or a2 by the form's side, or
    epsilon); the readout then checks every form's dimension before the
    draw.  Each sampler
    worker makes one consumer for its blocks of ``block_rows`` rows of
    normals, with a _Workspace it allocates once: memory is
    O(workers × (m + 1 + 2k) × block_rows) for m readout rows and k
    forms, whatever ``count`` is.  The consumer applies R F to the block,
    evaluates every form once, from its own rows, and returns the block's
    Gram about the centre; the sampler sums the Grams in block-index
    order.  Pass each distinct form once; the result is bit-identical for
    any worker count.
    """
    return _draw_moments(cov, seed, count, forms)[0]


def cross_estimates(
    cov: BlockCovariance, left: Sequence[QuadraticForm], right: Sequence[QuadraticForm],
    seed: int, count: int,
) -> list[list[Estimate]]:
    """Entry [i][j]: the covariance of left[i] and right[j] on ``count``
    fresh samples of one form_moments draw, which checks the admissible range
    and every dimension first, with its analytic value Σ_rs w_r w_s |C_rs|²
    attached, every pair read off the C the centres were read off."""
    moments, plans, c = _draw_moments(cov, seed, count, [*left, *right])
    k = len(left)
    return [[moments.cov(i, k + j, _cov(c, plans[i], plans[k + j])) for j in range(len(right))]
            for i in range(k)]


def renormalized_mean(cov: BlockCovariance, form: QuadraticForm) -> float:
    """Classical mean with the background subtracted, Σ_r w_r (Re C_rr -
    epsilon) = E f - epsilon Tr A: for covariances built from a state,
    the marginal average."""
    _, [(rows, weights)], c = _readout_covariance(cov, [form])
    return float(weights @ (c.diagonal()[rows].real - cov.epsilon))


def analytic_cov(cov: BlockCovariance, f: QuadraticForm, g: QuadraticForm) -> float:
    """Covariance of the forms f and g, on any sides: Σ_rs w_r w_s |C_rs|².
    A cross pair reads only D12, so it does not depend on the background
    level; a same-side pair reads its side's diagonal block, which does."""
    _, plans, c = _readout_covariance(cov, [f, g])
    return _cov(c, *plans)
