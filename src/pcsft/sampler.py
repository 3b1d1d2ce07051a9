"""Seeded standard complex normals, drawn block by block.

The sampler is exactly the stream ``PRNG_ID`` names: it hands each block
consumer the seeded standard complex normals w (rows × modes), and
nothing else.  What a consumer makes of them, such as the circular
Gaussian field :mod:`pcsft.quadratic` builds by applying R F, is the
consumer's.

Determinism contract
--------------------
All randomness flows through SFC64, one generator per fixed-size chunk:
chunk ``c`` of a draw with seed ``s`` uses the substream
``SFC64(SeedSequence([s, c]))``, with s below 2**64 and c below 2**56,
so a draw has at most ``MAX_SAMPLES`` samples.
numpy's ziggurat sampler (``Generator.standard_normal``) turns the
substream's words into standard normals, written straight into a complex
buffer: row k holds the real and imaginary parts of sample k's modes,
interleaved, so the buffer read as complex is the standard complex draw
w.  A worker fills a chunk block by block, ``_BLOCK_ROWS`` rows at a
time, from the chunk's one generator; the ziggurat consumes the words in
order, so the blocks of a chunk are the same stream as one fill of the
whole chunk.  Hence a chunk never depends on the worker count and a
shorter draw is a prefix of a longer one.  Regenerating with the same
(modes, seed, count) is therefore bit-identical for any worker count,
and on any BLAS kernel: no BLAS call touches the normals.  Each
worker also builds its own block consumer once, for blocks of a given
row count, so a consumer can keep per-worker scratch, and hands it each
block with its index; the sampler sums what the consumers return in
block-index order, so the tiling and the order of that sum stay inside
it.  The generator identity is recorded on every report as ``prng_id``.
numpy does not promise that ``Generator`` streams stay the same across
versions (NEP 19), so the tests pin known-answer values of the stream.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable

import numpy as np

from .errors import PcsftError

PRNG_ID = "sfc64:ziggurat:v3"

# Seeds are below this bound: SeedSequence would take any nonnegative integer.
SEED_BOUND = 2**64

# Samples per substream chunk.  Part of the determinism contract: changing
# it changes every draw.
CHUNK_SIZE = 16384

# Largest sample count: the stream is defined for chunk indices below 2**56.
MAX_SAMPLES = CHUNK_SIZE * 2**56

# Rows a worker fills at a time.  It divides CHUNK_SIZE, so the blocks
# tile every draw at multiples of _BLOCK_ROWS.  It moves no sample, but
# draw_chunks sums one Gram matrix per block for form_moments, so the
# tiling sets the rounding of every estimate, and the report bytes.
_BLOCK_ROWS = 4096


def resolve_workers() -> int:
    """Worker count for chunk-parallel generation: the PCSFT_THREADS
    environment variable, capped at the CPUs this process may run on (its
    affinity set where the OS reports one, else the CPU count), and by
    default that number.  Results never depend on it.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
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
    return np.random.SFC64(np.random.SeedSequence([seed, chunk]))


def draw_chunks(
    modes: int,
    seed: int,
    count: int,
    make_consumer: Callable[[int], Callable[[int, np.ndarray], Any]],
) -> Any:
    """Draw ``count`` samples of ``modes`` standard complex normals block
    by block, hand each block over, and return the sum of what the
    consumers return, in block-index order.

    Each worker calls ``make_consumer(block_rows)`` once when it starts,
    with ``block_rows = min(_BLOCK_ROWS, count)``, so a consumer can own
    scratch buffers for every block it is handed.  The worker then takes
    the next ``CHUNK_SIZE`` chunk until none is left and fills it in
    blocks of ``block_rows`` rows with the standard complex normals w,
    shape (rows, modes), in one buffer it reuses.  It calls
    ``consume(index, w)`` for block ``index``, which starts at sample
    ``index * block_rows`` (only the last block may be shorter); the
    consumer may overwrite ``w``, and the worker overwrites it after the
    call returns.  Calls of different workers run concurrently on
    disjoint blocks; the values a block carries never depend on the
    worker count.  A consumer returns its block's part of
    the total (a float or an array; None adds nothing).  The total starts
    at 0.0 and adds each part, under the lock that hands out the chunks,
    once every earlier block's part is in; an early part waits, so the
    total is the serial in-order sum, bit for bit.  Memory is one buffer
    per worker, whatever ``count``, plus the consumers' and the waiting
    parts.  If a worker raises, the others stop at their next chunk and
    the first worker's exception, in worker order, is re-raised.  The
    count and the seed are checked before any worker starts.
    """
    if not 1 <= count <= MAX_SAMPLES:
        raise ValueError(f"count must be in [1, {MAX_SAMPLES}], got {count}")
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    nchunks = -(-count // CHUNK_SIZE)
    taken = 0  # chunks handed out so far
    total, summed, early = 0.0, 0, {}  # the sum of blocks [0, summed), parts waiting
    lock = threading.Lock()

    def next_chunk() -> int | None:
        nonlocal taken
        with lock:
            if taken == nchunks:
                return None
            taken += 1
            return taken - 1

    def add(index: int, part):
        nonlocal total, summed
        with lock:
            early[index] = part
            while summed in early:
                part = early.pop(summed)
                if part is not None:
                    total += part
                summed += 1

    def work(slot: int):
        nonlocal taken
        w = np.empty((min(_BLOCK_ROWS, count), modes), dtype=complex)
        try:
            consume = make_consumer(len(w))
            while (chunk := next_chunk()) is not None:
                gen = np.random.Generator(_substream(seed, chunk))
                start = chunk * CHUNK_SIZE
                for lo in range(start, min(start + CHUNK_SIZE, count), _BLOCK_ROWS):
                    block = w[: min(_BLOCK_ROWS, count - lo)]
                    gen.standard_normal(out=block.view(np.float64))
                    add(lo // _BLOCK_ROWS, consume(lo // _BLOCK_ROWS, block))
        except BaseException as exc:  # re-raised below, after every join
            with lock:
                taken = nchunks  # the other workers stop at their next chunk
            errors[slot] = exc

    # Worker 0 runs on the calling thread, the others on their own.
    nworkers = min(resolve_workers(), nchunks)
    errors: list[BaseException | None] = [None] * nworkers
    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(1, nworkers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    return total
