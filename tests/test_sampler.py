"""Seeded Gaussian sampling: factorization, moments, determinism."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from pcsft import (
    CHUNK_SIZE,
    BlockCovariance,
    QuadraticForm,
    UnitaryChannel,
    apply_to_state,
    beamsplitter_unitary,
    build_covariance,
    epsilon_min,
    factor_covariance,
    form_moments,
    matricize,
)
from pcsft.sampler import _BLOCK_ROWS, _substream, draw_chunks
from conftest import draw_samples, rand_psd, rand_selfadjoint, rand_state

C = 1.0 / np.sqrt(2.0)
BELL_SINGLET = matricize(np.array([[0.0, C], [-C, 0.0]]))


def experiment_cov(statistics: str, spin: str) -> BlockCovariance:
    """The covariance run_beamsplitter samples for epsilon='auto'."""
    from pcsft.experiments import AUTO_EPSILON_MARGIN, _experiment_input

    psi, layout = _experiment_input(statistics, spin)
    u = np.kron(beamsplitter_unitary(), np.eye(layout.internal_dim))
    out = apply_to_state(UnitaryChannel(u1=u, u2=u), psi)
    return build_covariance(out, epsilon_min(out) + AUTO_EPSILON_MARGIN)


def identity_cov(d1: int, d2: int) -> BlockCovariance:
    return BlockCovariance(
        d11=np.eye(d1),
        d12=np.zeros((d1, d2)),
        d21=np.zeros((d2, d1)),
        d22=np.eye(d2),
        epsilon=1.0,
    )


class TestFactorCovariance:
    def test_identity(self):
        f = factor_covariance(identity_cov(2, 2))
        np.testing.assert_allclose(f @ f.conj().T, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        cov = BlockCovariance(
            d11=np.diag([4.0, 1.0]),
            d12=np.zeros((2, 2)),
            d21=np.zeros((2, 2)),
            d22=np.diag([9.0, 0.25]),
            epsilon=0.0,
        )
        f = factor_covariance(cov)
        np.testing.assert_allclose(f @ f.conj().T, cov.assembled(), atol=1e-12)

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            d1, d2 = 3, 2
            full = rand_psd(rng, d1 + d2)
            cov = BlockCovariance(
                d11=full[:d1, :d1],
                d12=full[:d1, d1:],
                d21=full[d1:, :d1],
                d22=full[d1:, d1:],
                epsilon=0.0,
            )
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
            draw_chunks(cov, 0, 0, lambda start, phi: None)


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        a = draw_samples(cov, seed=46, count=40_000)
        b = draw_samples(cov, seed=46, count=40_000)
        assert np.array_equal(a, b)

    def test_worker_split_equals_single_worker(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        single = draw_samples(cov, seed=47, count=50_000, workers=1)
        split = draw_samples(cov, seed=47, count=50_000, workers=4)
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
        assert (moments.count, moments.seed) == (10, 51)


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
    # must be checked by the sampler itself.
    @pytest.mark.parametrize("seed, chunk", [(-1, 0), (2**64, 0), (0, 2**56)])
    def test_rejects_key_out_of_range(self, seed, chunk):
        with pytest.raises(ValueError):
            _substream(seed, chunk)

    def test_accepts_the_largest_key(self):
        assert isinstance(_substream(2**64 - 1, 2**56 - 1), np.random.SFC64)


class TestDrawChunks:
    def test_blocks_tile_the_draw(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        count = 2 * CHUNK_SIZE + _BLOCK_ROWS + 7
        starts = []
        draw_chunks(
            cov, 0, count, lambda start, phi: starts.append((start, len(phi))), 2
        )
        assert sorted(starts) == [
            (start, min(_BLOCK_ROWS, count - start))
            for start in range(0, count, _BLOCK_ROWS)
        ]

    def test_failure_stops_the_other_workers(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        seen = []

        def consume(start, phi):
            seen.append(start)
            if start == CHUNK_SIZE:
                raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed"):
            draw_chunks(cov, 0, 16 * CHUNK_SIZE, consume, workers=2)
        assert len(seen) < 16 * CHUNK_SIZE // _BLOCK_ROWS


class TestBatchMemory:
    def test_draw_hands_over_its_arrays(self):
        # 200k spin-1/2 samples stored into one 25.6 MB array: draw_chunks
        # hands its blocks over, so the only other allocations are each
        # worker's two block buffers (1 MB).
        cov = experiment_cov("boson", "half")
        for workers in (1, 2):
            tracemalloc.start()
            try:
                joint = draw_samples(cov, seed=0, count=200_000, workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * joint.nbytes, workers
            del joint

    def test_caller_arrays_are_copied(self):
        # The sampler reads the blocks as they were when the covariance was
        # built: BlockCovariance copies the caller's arrays and freezes its own.
        d11 = np.eye(2, dtype=complex)
        cov = BlockCovariance(
            d11=d11, d12=np.zeros((2, 3)), d21=np.zeros((3, 2)), d22=np.eye(3), epsilon=1.0
        )
        before = draw_samples(cov, seed=0, count=100)
        d11[0, 0] = 5.0
        assert cov.d11[0, 0] == 1.0
        assert not cov.d11.flags.writeable
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


class TestScaledFieldMoments:
    def test_empirical_second_moments_track_scaling(self):
        from pcsft import scale_field

        rng = np.random.default_rng(58)
        state = rand_state(rng, 2, 2)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        factor = 1.7
        scaled = scale_field(cov, factor)
        n = 200_000
        joint = draw_samples(scaled, seed=59, count=n)
        emp = (joint.conj().T @ joint / n).T
        expected = factor**2 * cov.assembled()
        d = np.diagonal(expected).real
        se = np.sqrt(np.outer(d, d) / n)
        assert np.all(np.abs(emp - expected) <= 5.0 * se)


class TestWorkerResolution:
    def test_env_variable_caps_workers(self, monkeypatch):
        from pcsft.sampler import os, resolve_workers

        # The value is capped at the CPU count; fix it so the test does not
        # depend on the host.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("PCSFT_THREADS", "2")
        assert resolve_workers() == 2
        monkeypatch.delenv("PCSFT_THREADS")
        assert resolve_workers() >= 1

    def test_explicit_argument_wins(self, monkeypatch):
        from pcsft.sampler import resolve_workers

        monkeypatch.setenv("PCSFT_THREADS", "8")
        assert resolve_workers(3) == 3

    def test_non_integer_env_names_variable(self, monkeypatch):
        from pcsft import PcsftError
        from pcsft.sampler import resolve_workers

        monkeypatch.setenv("PCSFT_THREADS", "abc")
        with pytest.raises(PcsftError, match="PCSFT_THREADS"):
            resolve_workers()

    def test_env_capped_at_cpu_count(self, monkeypatch):
        # Only resolves the count; no thread is started.
        from pcsft import sampler

        monkeypatch.setattr(sampler.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("PCSFT_THREADS", "100000")
        assert sampler.resolve_workers() == 3
        monkeypatch.setenv("PCSFT_THREADS", "-4")
        assert sampler.resolve_workers() == 1
        monkeypatch.setattr(sampler.os, "cpu_count", lambda: None)
        monkeypatch.setenv("PCSFT_THREADS", "8")
        assert sampler.resolve_workers() == 1

    def test_env_split_matches_serial(self, monkeypatch):
        cov = build_covariance(BELL_SINGLET, 0.3)
        serial = draw_samples(cov, seed=60, count=40_000, workers=1)
        monkeypatch.setenv("PCSFT_THREADS", "4")
        split = draw_samples(cov, seed=60, count=40_000)
        assert np.array_equal(serial, split)

