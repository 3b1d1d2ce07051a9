"""Seeded Gaussian sampling: factorization, moments, determinism."""

import hashlib
import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pcsft.hilbert import BipartiteState
from pcsft.covariance import BlockCovariance, build_covariance, epsilon_min, factor_covariance
from pcsft.sampler import (
    _BLOCK_ROWS,
    CHUNK_SIZE,
    MAX_SAMPLES,
    _product_rows,
    _substream,
    draw_chunks,
)
from pcsft.quadratic import QuadraticForm, form_moments
from pcsft.channels import UnitaryChannel, apply_to_state
from pcsft.experiments import beamsplitter_unitary
from conftest import draw_samples, rand_selfadjoint, rand_state

C = 1.0 / np.sqrt(2.0)
BELL_SINGLET = BipartiteState(np.array([[0.0, C], [-C, 0.0]]))


def experiment_cov(statistics: str, spin: str) -> BlockCovariance:
    """The covariance run_beamsplitter samples for epsilon='auto'."""
    from pcsft.experiments import _experiment_input

    psi, internal_dim = _experiment_input(statistics, spin)
    u = np.kron(beamsplitter_unitary(), np.eye(internal_dim))
    out = apply_to_state(UnitaryChannel(u1=u, u2=u), psi)
    return build_covariance(out, "auto")


def identity_cov(d1: int, d2: int) -> BlockCovariance:
    return BlockCovariance(d12=np.zeros((d1, d2)), epsilon=1.0)


# Background levels above epsilon_min: the singular boundary, near it, the
# "auto" margin and far from it.
EPSILON_SHIFTS = (0.0, 1e-3, 0.05, 1.0)


class TestFactorCovariance:
    def test_identity(self):
        f = factor_covariance(identity_cov(2, 2))
        np.testing.assert_allclose(f @ f.conj().T, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        # Random states in Schmidt form: Ψ̂ is diagonal, so the covariance is
        # a sum of 2 x 2 blocks plus an unpaired mode.
        rng = np.random.default_rng(39)
        for _ in range(20):
            s = rng.uniform(0.0, 1.0, size=2)
            psi = np.zeros((2, 3))
            psi[[0, 1], [0, 1]] = s / np.linalg.norm(s)
            state = BipartiteState(psi)
            for shift in EPSILON_SHIFTS:
                cov = build_covariance(state, epsilon_min(state) + shift)
                f = factor_covariance(cov)
                np.testing.assert_allclose(f @ f.conj().T, cov.assembled(), atol=1e-12)

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            state = rand_state(rng, 3, 2)
            for shift in EPSILON_SHIFTS:
                cov = build_covariance(state, epsilon_min(state) + shift)
                f = factor_covariance(cov)
                assert np.max(np.abs(f @ f.conj().T - cov.assembled())) <= 1e-8

    def test_boundary_zero_mode(self):
        cov = build_covariance(BELL_SINGLET, epsilon_min(BELL_SINGLET))
        f = factor_covariance(cov)
        assert np.max(np.abs(f @ f.conj().T - cov.assembled())) <= 1e-8

    @pytest.mark.parametrize("statistics, spin", [("fermion", "0"), ("boson", "half")])
    def test_unique_psd_root(self, statistics, spin):
        # Both covariances have repeated eigenvalues; the Hermitian PSD
        # root is the same whichever eigenvector basis eigh returns.
        cov = experiment_cov(statistics, spin)
        f = factor_covariance(cov)
        np.testing.assert_allclose(f, f.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(f).min() >= -1e-12
        np.testing.assert_allclose(f @ f, cov.assembled(), atol=1e-12)


class TestDrawMoments:
    def test_zero_mean(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        joint = draw_samples(cov, seed=41, count=100_000)
        sigma = np.sqrt(np.diagonal(cov.assembled()).real)
        bound = 5.0 * sigma / np.sqrt(len(joint))
        mean = joint.mean(axis=0)
        assert np.all(np.abs(mean.real) <= bound)
        assert np.all(np.abs(mean.imag) <= bound)

    def test_covariance_matches(self):
        rng = np.random.default_rng(42)
        state = rand_state(rng, 2, 3)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        n = 200_000
        joint = draw_samples(cov, seed=43, count=n)
        emp = joint.conj().T @ joint / n
        emp = emp.T  # E[z z†]
        c = cov.assembled()
        d = np.diagonal(c).real
        se = np.sqrt(np.outer(d, d) / n)
        assert np.all(np.abs(emp - c) <= 5.0 * se)

    def test_pseudo_covariance_vanishes(self):
        rng = np.random.default_rng(44)
        state = rand_state(rng, 2, 2)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        n = 200_000
        joint = draw_samples(cov, seed=45, count=n)
        pseudo = joint.T @ joint / n
        c = cov.assembled()
        d = np.diagonal(c).real
        se = np.sqrt((np.outer(d, d) + np.abs(c) ** 2) / n)
        assert np.all(np.abs(pseudo) <= 5.0 * se)

    def test_count_validation(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        with pytest.raises(ValueError):
            draw_chunks(factor_covariance(cov), 0, 0, lambda block_rows: lambda index, phi: None)


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        a = draw_samples(cov, seed=46, count=40_000)
        b = draw_samples(cov, seed=46, count=40_000)
        assert np.array_equal(a, b)

    def test_worker_split_equals_single_worker(self, set_workers):
        cov = build_covariance(BELL_SINGLET, 0.3)
        set_workers(1)
        single = draw_samples(cov, seed=47, count=50_000)
        set_workers(4)
        split = draw_samples(cov, seed=47, count=50_000)
        assert np.array_equal(single, split)

    def test_seed_changes_stream(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        a = draw_samples(cov, seed=48, count=1_000)
        b = draw_samples(cov, seed=49, count=1_000)
        assert not np.allclose(a[:, :2], b[:, :2])  # phi1

    def test_prefix_stability(self):
        # Chunked substreams: a longer draw starts with the shorter one.
        cov = build_covariance(BELL_SINGLET, 0.3)
        short = draw_samples(cov, seed=50, count=10_000)
        long = draw_samples(cov, seed=50, count=30_000)
        assert np.array_equal(long[:10_000], short)

    def test_batch_indexing(self):
        # Sample i is row i % CHUNK_SIZE of chunk i // CHUNK_SIZE: the
        # normals of substream (seed, chunk), taken as complex pairs, times
        # F^T / sqrt(2); phi1 fills the first d1 columns, phi2 the last d2.
        rng = np.random.default_rng(51)
        cov = build_covariance(rand_state(rng, 2, 3), 0.4)
        joint = draw_samples(cov, seed=51, count=CHUNK_SIZE + 10)
        assert joint.shape == (CHUNK_SIZE + 10, cov.d1 + cov.d2)
        ft = factor_covariance(cov).T * np.sqrt(0.5)
        for chunk, start in ((0, 0), (1, CHUNK_SIZE)):
            gen = np.random.Generator(_substream(51, chunk))
            w = gen.standard_normal((10, 2 * (cov.d1 + cov.d2))).view(complex)
            np.testing.assert_allclose(
                joint[start + 3 : start + 5], (w @ ft)[3:5], rtol=1e-13, atol=1e-15
            )
        moments = form_moments(
            cov, seed=51, count=10, forms=[QuadraticForm(np.eye(2), side=1)]
        )
        assert moments.count == 10


class TestKnownAnswers:
    """Pinned values of stream v3.  numpy does not promise that
    Generator streams stay the same across versions (NEP 19); if one of
    these fails, the stream moved and PRNG_ID needs a new version."""

    def test_first_normals_of_substream(self):
        normals = np.random.Generator(_substream(0, 0)).standard_normal(8)
        expected = [
            -0.5423652285985597, -0.7332765023069422, -0.29930851727893054,
            0.6866133223417257, 0.13997342329966622, -1.805147413216547,
            -0.7386236164354572, -0.9747702608265898,
        ]
        assert normals.tolist() == expected

    @pytest.mark.parametrize(
        "statistics, spin, seed, digest",
        [
            ("fermion", "0", 0, "a164299320a2ef0e28a12be3f8aa62607b8a2d9f3fe8b74aa5d873db04b74318"),
            ("fermion", "0", 7, "352085e4a9cb523b957d420595efa6e0a0c97441aa0756f82c237fb537f699cc"),
            ("boson", "half", 0, "88797604a3cb9c75e021bbf7683671c926ea252f058ade7ce77ee62e724c8a81"),
            ("boson", "half", 7, "102dc41da7997a46d5995a9f91ff966a595bb05a3433175dbfbf64eb73c399f6"),
        ],
    )
    def test_first_chunk_digest(self, statistics, spin, seed, digest):
        samples = draw_samples(experiment_cov(statistics, spin), seed, CHUNK_SIZE)
        joint = samples.astype("<c16")
        assert hashlib.sha256(joint.tobytes()).hexdigest() == digest


class TestSubstreamKey:
    # SeedSequence accepts any nonnegative integers, so the key's range
    # must be checked by the sampler itself, once per draw, before any
    # worker starts.
    @pytest.mark.parametrize("seed, chunk", [(-1, 0), (2**64, 0)])
    def test_rejects_key_out_of_range(self, seed, chunk):
        cov = build_covariance(BELL_SINGLET, 0.3)
        made = []
        with pytest.raises(ValueError, match="seed"):
            draw_chunks(factor_covariance(cov), seed, CHUNK_SIZE * (chunk + 1), made.append)
        assert made == []

    def test_accepts_the_largest_key(self):
        assert isinstance(_substream(2**64 - 1, 2**56 - 1), np.random.SFC64)


def order_sensitive_part(index: int) -> float:
    """Block ``index``'s part of a sum that depends on the order of
    addition: 1e16, 1, -1e16, 1, 1, repeating every 5 blocks, so whole
    chunks of 4 blocks added out of order change it too."""
    return (1e16, 1.0, -1e16, 1.0, 1.0)[index % 5]


class TestDrawChunks:
    def test_blocks_tile_the_draw(self, set_workers):
        # Every worker's consumer is made for blocks of min(_BLOCK_ROWS,
        # count) rows, and block i holds the rows from i times that on.
        cov = build_covariance(BELL_SINGLET, 0.3)
        set_workers(2)
        for count in (2 * CHUNK_SIZE + _BLOCK_ROWS + 7, _BLOCK_ROWS - 5):
            block_rows = min(_BLOCK_ROWS, count)
            made, blocks = [], []

            def make_consumer(rows):
                made.append(rows)
                return lambda index, phi: blocks.append((index, len(phi)))

            draw_chunks(factor_covariance(cov), 0, count, make_consumer)
            assert made == [block_rows] * min(2, -(-count // CHUNK_SIZE))
            assert sorted(blocks) == [
                (index, min(block_rows, count - index * block_rows))
                for index in range(-(-count // block_rows))
            ]

    def test_parts_are_summed_in_block_order(self, set_workers):
        # Chunk 0's blocks return last, so every other part arrives early
        # and waits: the total is still the serial in-order sum, bit for
        # bit, for 1, 2 and 3 workers.
        cov = build_covariance(BELL_SINGLET, 0.3)
        count = 8 * CHUNK_SIZE + _BLOCK_ROWS + 7  # 9 chunks, 34 blocks
        nblocks = -(-count // _BLOCK_ROWS)
        others = nblocks - CHUNK_SIZE // _BLOCK_ROWS
        serial = 0.0
        for index in range(nblocks):
            serial += order_sensitive_part(index)
        for workers in (1, 2, 3):
            set_workers(workers)
            returned, rest_done = [], threading.Event()

            def consume(index, phi):
                if index == 0 and workers > 1:
                    assert rest_done.wait(timeout=60)
                returned.append(index)
                if len(returned) >= others:
                    rest_done.set()
                return order_sensitive_part(index)

            total = draw_chunks(factor_covariance(cov), 0, count, lambda rows: consume)
            assert sorted(returned) == list(range(nblocks))
            assert returned.index(0) == (0 if workers == 1 else others)
            assert total == serial, workers

    def test_concurrent_parts_lose_no_block(self, set_workers):
        # More workers than cores, switching often: the array total counts
        # every block once and equals the serial in-order sum bit for bit.
        cov = build_covariance(BELL_SINGLET, 0.3)
        count = 8 * CHUNK_SIZE + 3 * _BLOCK_ROWS + 5  # 9 chunks, 36 blocks
        nblocks = -(-count // _BLOCK_ROWS)
        serial = 0.0
        for index in range(nblocks):
            serial += np.array([1.0, order_sensitive_part(index)])

        def consume(index, phi):
            return np.array([1.0, order_sensitive_part(index)])

        totals = []
        set_workers(3)
        runner = threading.Thread(target=lambda: totals.extend(
            draw_chunks(factor_covariance(cov), 0, count, lambda rows: consume)
            for _ in range(3)
        ))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(totals) == 3
        for total in totals:
            assert total[0] == nblocks
            assert total.tobytes() == serial.tobytes()

    def test_parts_are_added_under_the_lock(self, monkeypatch, set_workers):
        # Every lock records the thread that holds it, and every part checks
        # that the thread adding it to the total holds one, so an addition
        # outside draw_chunks' lock fails at once, however the threads run.
        allocate, locks = threading.Lock, []

        class OwnedLock:
            def __init__(self):
                self._lock, self.owner = allocate(), None
                locks.append(self)

            def acquire(self, blocking=True, timeout=-1):
                acquired = self._lock.acquire(blocking, timeout)
                if acquired:
                    self.owner = threading.get_ident()
                return acquired

            def release(self):
                self.owner = None
                self._lock.release()

            __enter__ = acquire

            def __exit__(self, *exc):
                self.release()

        class Part:
            def __init__(self, blocks):
                self.blocks = blocks

            def __add__(self, other):
                assert any(lock.owner == threading.get_ident() for lock in locks)
                return Part(self.blocks + getattr(other, "blocks", []))

            __radd__ = __add__

        monkeypatch.setattr("pcsft.sampler.threading.Lock", OwnedLock)
        cov = build_covariance(BELL_SINGLET, 0.3)
        count = 2 * CHUNK_SIZE + _BLOCK_ROWS + 5  # 3 chunks, 10 blocks
        for workers in (2, 3):
            set_workers(workers)
            total = draw_chunks(
                factor_covariance(cov), 0, count, lambda rows: lambda i, phi: Part([i])
            )
            assert total.blocks == list(range(-(-count // _BLOCK_ROWS)))

    def test_rejects_a_count_past_the_last_chunk(self):
        # The stream is defined for chunk indices below 2**56, so a longer
        # draw is refused before any worker starts.
        cov = build_covariance(BELL_SINGLET, 0.3)
        made = []
        with pytest.raises(ValueError, match="count"):
            draw_chunks(factor_covariance(cov), 0, MAX_SAMPLES + 1, made.append)
        assert made == []
        assert -(-MAX_SAMPLES // CHUNK_SIZE) == 2**56

    def test_failure_stops_the_other_workers(self, set_workers):
        cov = build_covariance(BELL_SINGLET, 0.3)
        seen = []

        def consume(index, phi):
            seen.append(index)
            if index == CHUNK_SIZE // _BLOCK_ROWS:  # the first block of chunk 1
                raise RuntimeError("consumer failed")

        set_workers(2)
        with pytest.raises(RuntimeError, match="consumer failed"):
            draw_chunks(factor_covariance(cov), 0, 16 * CHUNK_SIZE, lambda rows: consume)
        assert len(seen) < 16 * CHUNK_SIZE // _BLOCK_ROWS


class TestProductRows:
    # Each block product runs in slices of the largest multiple of 384
    # rows that keeps rows × m × n below 65536, OpenBLAS's single-thread
    # bound, and of never fewer than 384 rows.
    @pytest.mark.parametrize("modes", range(2, 14))
    def test_slices_stay_below_the_single_thread_bound(self, modes):
        rows = _product_rows(np.empty((modes, modes)))
        assert rows % 384 == 0
        assert rows * modes * modes < 65536 <= (rows + 384) * modes * modes

    def test_eight_modes_keep_768_rows_and_wider_transforms_384(self):
        assert _product_rows(np.empty((8, 8))) == 768
        for modes in (14, 15, 20, 64):
            assert _product_rows(np.empty((modes, modes))) == 384

    def test_draw_multiplies_in_slices_and_joins_a_1_row_rest(self, monkeypatch, set_workers):
        # 10 modes: 384-row slices.  A full block ends on a 256-row slice;
        # a 769-row block on 385 rows, not on a lone row.
        set_workers(1)
        calls, matmul = [], np.matmul

        def spy(a, b, out):
            calls.append(len(a))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        draw_chunks(np.eye(10), 0, _BLOCK_ROWS + 769, lambda rows: lambda index, phi: None)
        assert calls == [384] * 10 + [256] + [384, 385]


class TestBatchMemory:
    def test_draw_hands_over_its_arrays(self, set_workers):
        # 200k spin-1/2 samples stored into one 25.6 MB array: draw_chunks
        # hands its blocks over, so the only other allocations are each
        # worker's two block buffers (1 MB).
        cov = experiment_cov("boson", "half")
        for workers in (1, 2):
            set_workers(workers)
            tracemalloc.start()
            try:
                joint = draw_samples(cov, seed=0, count=200_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * joint.nbytes, workers
            del joint

    def test_caller_arrays_are_copied(self):
        # The sampler reads Ψ̂ as it was when the covariance was built:
        # BlockCovariance copies the caller's array and freezes its own.
        psi = np.array(BELL_SINGLET.amplitudes)
        cov = BlockCovariance(d12=psi, epsilon=0.3)
        before = draw_samples(cov, seed=0, count=100)
        psi[0, 0] = 5.0
        assert cov.d12[0, 0] == 0.0
        assert not cov.d12.flags.writeable
        assert np.array_equal(draw_samples(cov, seed=0, count=100), before)


class TestWickFourthMoment:
    def test_product_of_forms_matches_wick(self):
        # E[f_A1(phi1) f_A2(conj phi2)] = Tr[D11 A1] Tr[D22 Ā2]
        #                               + Tr[A1 D12 Ā2 D12†]
        rng = np.random.default_rng(55)
        state = rand_state(rng, 2, 2)
        eps = epsilon_min(state) + 0.1
        cov = build_covariance(state, eps)
        a1 = rand_selfadjoint(rng, 2)
        a2 = rand_selfadjoint(rng, 2)
        n = 200_000
        joint = draw_samples(cov, seed=56, count=n)
        phi1, phi2 = joint[:, :2], joint[:, 2:]
        x = np.einsum("kl,nl,nk->n", a1, phi1, phi1.conj()).real
        y = np.einsum(
            "kl,nl,nk->n", a2, phi2.conj(), phi2
        ).real  # form on conjugated samples
        prod = x * y
        expected = (
            np.trace(cov.d11 @ a1) * np.trace(cov.d22 @ np.conj(a2))
            + np.trace(a1 @ cov.d12 @ np.conj(a2) @ cov.d12.conj().T)
        ).real
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean() - expected) <= 5.0 * se


class TestWorkerResolution:
    def test_env_variable_caps_workers(self, monkeypatch):
        from pcsft.sampler import os, resolve_workers

        # The value is capped at the CPU count, the cap of an OS without
        # affinity sets; fix it so the test does not depend on the host.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("PCSFT_THREADS", "2")
        assert resolve_workers() == 2
        monkeypatch.delenv("PCSFT_THREADS")
        assert resolve_workers() >= 1

    def test_env_variable_is_the_only_setting(self, set_workers):
        # No function takes a worker count: PCSFT_THREADS alone sets how
        # many workers a draw runs, each making its one consumer.
        from pcsft.sampler import resolve_workers

        for function in (resolve_workers, draw_chunks, form_moments):
            assert "workers" not in inspect.signature(function).parameters
        cov = build_covariance(BELL_SINGLET, 0.3)
        for workers in (1, 2, 3):
            set_workers(workers)
            made = []
            draw_chunks(
                factor_covariance(cov), 0, 4 * CHUNK_SIZE,
                lambda rows: made.append(rows) or (lambda index, phi: None),
            )
            assert made == [_BLOCK_ROWS] * workers

    def test_non_integer_env_names_variable(self, monkeypatch):
        from pcsft.errors import PcsftError
        from pcsft.sampler import resolve_workers

        monkeypatch.setenv("PCSFT_THREADS", "abc")
        with pytest.raises(PcsftError, match="PCSFT_THREADS"):
            resolve_workers()

    def test_env_capped_at_cpu_count(self, monkeypatch):
        # Only resolves the count; no thread is started.
        from pcsft import sampler

        monkeypatch.delattr(sampler.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("PCSFT_THREADS", "100000")
        assert sampler.resolve_workers() == 3
        monkeypatch.setenv("PCSFT_THREADS", "-4")
        assert sampler.resolve_workers() == 1
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: None)
        monkeypatch.setenv("PCSFT_THREADS", "8")
        assert sampler.resolve_workers() == 1

    def test_capped_at_affinity_set(self, monkeypatch):
        # A process pinned to one CPU gets one worker, however many the
        # machine has.  Only resolves the count; no thread is started.
        from pcsft import sampler

        monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: 8)
        monkeypatch.delenv("PCSFT_THREADS", raising=False)
        assert sampler.resolve_workers() == 1
        monkeypatch.setenv("PCSFT_THREADS", "2")
        assert sampler.resolve_workers() == 1

    def test_env_split_matches_serial(self, set_workers):
        cov = build_covariance(BELL_SINGLET, 0.3)
        set_workers(1)
        serial = draw_samples(cov, seed=60, count=40_000)
        set_workers(4)
        split = draw_samples(cov, seed=60, count=40_000)
        assert np.array_equal(serial, split)

