"""Seeded sampling of complex Gaussian bi-signals.

Samples are circularly-symmetric complex Gaussians: zero mean, covariance
E[z z†] equal to the assembled block covariance, and vanishing
pseudo-covariance E[z zᵀ] = 0.  Circularity is a model choice: only the
covariance itself is prescribed by the encoding of a state, and the
zero-pseudo-covariance completion is the one under which the quadratic
form correlation identities of :mod:`pcsft.quadratic` hold.

Determinism contract
--------------------
All randomness flows through SFC64, one generator per fixed-size chunk:
chunk ``c`` of a draw with seed ``s`` uses the substream
``SFC64(SeedSequence([s, c]))``, with s below 2**64 and c below 2**56.
numpy's ziggurat sampler (``Generator.standard_normal``) turns the
substream's words into standard normals, written straight into a complex
buffer: row k holds the real and imaginary parts of sample k's modes,
interleaved, so the buffer read as complex is the standard complex draw
w.  A worker fills a chunk block by block, ``_BLOCK_ROWS`` rows at a
time, from the chunk's one generator; the ziggurat consumes the words in
order, so the blocks of a chunk are the same stream as one fill of the
whole chunk.  Hence a chunk never depends on the worker count and a
shorter draw is a prefix of a longer one.  Samples are
``w @ F^T / sqrt(2)`` with F the unique positive semi-definite square
root of the covariance, which, unlike an eigenvector factor, does not
depend on the basis LAPACK picks inside a repeated eigenvalue.
Regenerating with the same (covariance, seed, count) is therefore
bit-identical for any worker count.  The generator identity is recorded
on every estimate and report as ``prng_id``.  numpy does not promise that
``Generator`` streams stay the same across versions (NEP 19), so the
tests pin known-answer values of the stream.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .covariance import BlockCovariance
from .errors import NotPositiveError, PcsftError

PRNG_ID = "sfc64:ziggurat:v3"

# Samples per substream chunk.  Part of the determinism contract: changing
# it changes every draw.
CHUNK_SIZE = 16384

# Rows a worker fills and transforms at a time.  It divides CHUNK_SIZE, so
# the blocks tile every draw at multiples of _BLOCK_ROWS; it changes no
# value, only how much scratch memory a worker holds.
_BLOCK_ROWS = 4096


def resolve_workers(workers: int | None = None) -> int:
    """Worker count for chunk-parallel generation.

    Explicit argument wins; otherwise the PCSFT_THREADS environment
    variable, capped at the CPU count, and by default the CPU count.
    Results never depend on the resolved value.
    """
    if workers is not None:
        return max(1, int(workers))
    cpus = max(1, os.cpu_count() or 1)
    env = os.environ.get("PCSFT_THREADS")
    if env is None:
        return cpus
    try:
        requested = int(env)
    except ValueError:
        raise PcsftError(
            f"environment variable 'PCSFT_THREADS': expected an integer, got {env!r}"
        ) from None
    return min(max(1, requested), cpus)


def _substream(seed: int, chunk: int) -> np.random.SFC64:
    # SeedSequence would take any nonnegative integers: check the range.
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if chunk >= 2**56:
        raise ValueError("chunk index out of range")
    return np.random.SFC64(np.random.SeedSequence([seed, chunk]))


def factor_covariance(cov: BlockCovariance) -> np.ndarray:
    """The positive semi-definite square root F = V sqrt(L) V† of the
    assembled covariance, so F F† equals it.

    Built from ``cov.spectrum``, whose eigenvalues validation bounded
    below by -PSD_TOL; those below zero (exact zero modes at epsilon =
    epsilon_min) are clipped to zero.  The root is unique, so it does not
    depend on the eigenvector basis chosen inside a repeated eigenvalue.
    """
    evals, evecs = cov.spectrum
    evals = np.clip(evals, 0.0, None)
    f = (evecs * np.sqrt(evals)[None, :]) @ evecs.conj().T
    residual = float(np.max(np.abs(f @ f.conj().T - cov.assembled())))
    if residual > 1e-8:
        raise NotPositiveError(f"factorization residual {residual:.3e} exceeds 1e-8")
    return f


def draw_chunks(
    cov: BlockCovariance,
    seed: int,
    count: int,
    consume: Callable[[int, np.ndarray], None],
    workers: int | None = None,
) -> None:
    """Draw ``count`` samples block by block and hand each block over.

    Each worker takes the next ``CHUNK_SIZE`` chunk until none is left and
    fills it in blocks of ``_BLOCK_ROWS`` rows, in two buffers it reuses:
    the normals w, then the joint samples ``phi = w @ F^T`` (shape
    (rows, d1 + d2), components side by side).  It calls
    ``consume(start, phi)`` per block, where ``start`` is the index of the
    block's first sample, a multiple of ``_BLOCK_ROWS``; ``phi`` is
    overwritten after the call returns.  Calls may run concurrently on
    disjoint blocks; the values a block carries never depend on the
    worker count.  Memory is two buffers per worker, whatever ``count``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    f = factor_covariance(cov)
    dim = f.shape[0]
    ft = f.T * np.sqrt(0.5)
    nchunks = -(-count // CHUNK_SIZE)
    taken = 0  # chunks handed out so far
    lock = threading.Lock()
    failed = threading.Event()

    def next_chunk() -> int | None:
        nonlocal taken
        with lock:
            if taken == nchunks or failed.is_set():
                return None
            taken += 1
            return taken - 1

    def work():
        rows = min(_BLOCK_ROWS, count)
        w = np.empty((rows, dim), dtype=complex)
        phi = np.empty((rows, dim), dtype=complex)
        try:
            while (chunk := next_chunk()) is not None:
                gen = np.random.Generator(_substream(seed, chunk))
                start = chunk * CHUNK_SIZE
                size = min(CHUNK_SIZE, count - start)
                for offset in range(0, size, _BLOCK_ROWS):
                    rows = min(_BLOCK_ROWS, size - offset)
                    gen.standard_normal(out=w[:rows].view(np.float64))
                    np.matmul(w[:rows], ft, out=phi[:rows])
                    consume(start + offset, phi[:rows])
        except BaseException:
            failed.set()  # the other workers stop at their next chunk
            raise

    nworkers = min(resolve_workers(workers), nchunks)
    if nworkers > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            futures = [pool.submit(work) for _ in range(nworkers)]
        for future in futures:
            future.result()
    else:
        work()

