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
on every batch as ``prng_id``.  numpy does not promise that
``Generator`` streams stay the same across versions (NEP 19), so the
tests pin known-answer values of the stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .covariance import BlockCovariance
from .errors import DimensionError, NotPositiveError, PcsftError, SchemaError

PRNG_ID = "sfc64:ziggurat:v3"

# Samples per substream chunk.  Part of the determinism contract: changing
# it changes every batch.
CHUNK_SIZE = 16384

# Rows a worker fills and transforms at a time.  It divides CHUNK_SIZE, so
# the blocks tile every draw at multiples of _BLOCK_ROWS; it changes no
# value, only how much scratch memory a worker holds.
_BLOCK_ROWS = 4096

_MAGIC = b"PCSFTBATCH1\n"


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


class SampleBatch:
    """Ordered batch of bi-signal realizations plus its provenance.

    phi1 has shape (count, d1) and phi2 (count, d2); row k is sample k.
    The arrays are copied unless ``copy`` is false, which hands over
    complex arrays that nothing else will write to (``draw``'s own, or
    the read-only payload ``load_batch`` read).
    """

    def __init__(
        self,
        phi1: np.ndarray,
        phi2: np.ndarray,
        seed: int,
        prng_id: str = PRNG_ID,
        copy: bool = True,
    ):
        convert = np.array if copy else np.asarray
        phi1 = convert(phi1, dtype=complex)
        phi2 = convert(phi2, dtype=complex)
        if phi1.ndim != 2 or phi2.ndim != 2 or phi1.shape[0] != phi2.shape[0]:
            raise DimensionError(
                f"component arrays disagree: {phi1.shape} vs {phi2.shape}"
            )
        phi1.setflags(write=False)
        phi2.setflags(write=False)
        self.phi1 = phi1
        self.phi2 = phi2
        self.seed = int(seed)
        self.prng_id = prng_id

    @property
    def count(self) -> int:
        return self.phi1.shape[0]

    @property
    def d1(self) -> int:
        return self.phi1.shape[1]

    @property
    def d2(self) -> int:
        return self.phi2.shape[1]

    def __len__(self) -> int:
        return self.count


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


def require_count(count: int) -> int:
    """Validate a sample count (at least one) and return it."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return count


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
    require_count(count)
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


def draw(
    cov: BlockCovariance, seed: int, count: int, workers: int | None = None
) -> SampleBatch:
    """Draw ``count`` iid bi-signal samples with the given covariance.

    Deterministic in (cov, seed, count): chunk substreams are indexed by
    position, so any worker split merges back to the same batch.
    """
    out = np.empty((require_count(count), cov.d1 + cov.d2), dtype=complex)

    def store(start: int, phi: np.ndarray):
        out[start : start + phi.shape[0]] = phi

    draw_chunks(cov, seed, count, store, workers)
    return SampleBatch(phi1=out[:, : cov.d1], phi2=out[:, cov.d1 :], seed=seed, copy=False)


def covariance_hash(cov: BlockCovariance) -> str:
    """SHA-256 over a canonical little-endian byte encoding of the blocks."""
    h = hashlib.sha256()
    h.update(struct.pack("<qqd", cov.d1, cov.d2, cov.epsilon))
    for block in (cov.d11, cov.d12, cov.d21, cov.d22):
        h.update(np.ascontiguousarray(block, dtype="<c16").tobytes())
    return h.hexdigest()


def save_batch(batch: SampleBatch, path, covariance: BlockCovariance | None = None):
    """Binary dump: header line, then little-endian float64 payload.

    Payload layout is [count][d1][d2] followed by re,im interleaved per
    mode per sample (phi1 modes first, then phi2, row by row).
    """
    header = {
        "format": "pcsft-batch",
        "version": 1,
        "seed": batch.seed,
        "prng_id": batch.prng_id,
        "covariance_hash": covariance_hash(covariance) if covariance is not None else None,
    }
    joint = np.hstack([batch.phi1, batch.phi2])
    flat = np.empty((batch.count, 2 * joint.shape[1]), dtype="<f8")
    flat[:, 0::2] = joint.real
    flat[:, 1::2] = joint.imag
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(
            np.array([batch.count, batch.d1, batch.d2], dtype="<f8").tobytes()
        )
        fh.write(flat.tobytes())


def _batch_header(line: bytes) -> dict:
    """The parsed header line of a batch file, checked."""
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise SchemaError("field 'header': not a JSON line") from None
    if not isinstance(header, dict):
        raise SchemaError("field 'header': expected a JSON object")
    fmt = header.get("format")
    if fmt != "pcsft-batch":
        raise SchemaError(f"field 'format': expected 'pcsft-batch', got {fmt!r}")
    version = header.get("version")
    if not isinstance(version, int) or isinstance(version, bool) or version != 1:
        raise SchemaError(f"field 'version': expected 1, got {version!r}")
    seed = header.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise SchemaError(
            f"field 'seed': expected a 64-bit unsigned integer, got {seed!r}"
        )
    if not isinstance(header.get("prng_id", PRNG_ID), str):
        raise SchemaError("field 'prng_id': expected a string")
    return header


def load_batch(path) -> tuple[SampleBatch, dict]:
    """Read a batch written by save_batch; returns (batch, header).

    A file that does not follow save_batch's layout raises SchemaError
    naming the first field at fault; ``payload`` for a payload that is
    not exactly count * 2 * (d1 + d2) float64 values.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise SchemaError("field 'magic': not a pcsft batch file")
        header = _batch_header(fh.readline())
        meta = fh.read(24)
        payload = fh.read()
    names = ("count", "d1", "d2")
    if len(meta) < 24:
        raise SchemaError(f"field '{names[len(meta) // 8]}': missing")
    sizes = []
    for name, value in zip(names, struct.unpack("<3d", meta)):
        if not (np.isfinite(value) and value >= 1 and value == int(value)):
            raise SchemaError(
                f"field '{name}': expected a positive integer, got {value!r}"
            )
        sizes.append(int(value))
    count, d1, d2 = sizes
    dim = d1 + d2
    if len(payload) != count * 2 * dim * 8:
        raise SchemaError(
            f"field 'payload': expected {count * 2 * dim * 8} bytes for "
            f"count={count}, d1={d1}, d2={d2}, got {len(payload)}"
        )
    # re, im interleaved per mode is the layout of little-endian complex128;
    # the array reads the immutable payload, so the batch can keep it.
    joint = np.frombuffer(payload, dtype="<c16").reshape(count, dim)
    batch = SampleBatch(
        phi1=joint[:, :d1],
        phi2=joint[:, d1:],
        seed=header.get("seed", 0),
        prng_id=header.get("prng_id", PRNG_ID),
        copy=False,
    )
    return batch, header
