"""Seeded Gaussian sampling: factorization, moments, determinism."""

import numpy as np
import pytest

from pcsft import (
    BlockCovariance,
    NotPositiveError,
    build_covariance,
    covariance_hash,
    draw,
    draw_background,
    epsilon_min,
    factor_covariance,
    load_batch,
    matricize,
    save_batch,
)
from conftest import rand_psd, rand_selfadjoint, rand_state

C = 1.0 / np.sqrt(2.0)
BELL_SINGLET = matricize(np.array([[0.0, C], [-C, 0.0]]))


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


class TestDrawMoments:
    def test_zero_mean(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        batch = draw(cov, seed=41, count=100_000)
        joint = np.hstack([batch.phi1, batch.phi2])
        sigma = np.sqrt(np.diagonal(cov.assembled()).real)
        bound = 5.0 * sigma / np.sqrt(batch.count)
        mean = joint.mean(axis=0)
        assert np.all(np.abs(mean.real) <= bound)
        assert np.all(np.abs(mean.imag) <= bound)

    def test_covariance_matches(self):
        rng = np.random.default_rng(42)
        state = rand_state(rng, 2, 3)
        cov = build_covariance(state, epsilon_min(state) + 0.1)
        n = 200_000
        batch = draw(cov, seed=43, count=n)
        joint = np.hstack([batch.phi1, batch.phi2])
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
        batch = draw(cov, seed=45, count=n)
        joint = np.hstack([batch.phi1, batch.phi2])
        pseudo = joint.T @ joint / n
        c = cov.assembled()
        d = np.diagonal(c).real
        se = np.sqrt((np.outer(d, d) + np.abs(c) ** 2) / n)
        assert np.all(np.abs(pseudo) <= 5.0 * se)

    def test_count_validation(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        with pytest.raises(ValueError):
            draw(cov, seed=0, count=0)


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        a = draw(cov, seed=46, count=40_000)
        b = draw(cov, seed=46, count=40_000)
        assert np.array_equal(a.phi1, b.phi1)
        assert np.array_equal(a.phi2, b.phi2)

    def test_worker_split_equals_single_worker(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        single = draw(cov, seed=47, count=50_000, workers=1)
        split = draw(cov, seed=47, count=50_000, workers=4)
        assert np.array_equal(single.phi1, split.phi1)
        assert np.array_equal(single.phi2, split.phi2)

    def test_seed_changes_stream(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        a = draw(cov, seed=48, count=1_000)
        b = draw(cov, seed=49, count=1_000)
        assert not np.allclose(a.phi1, b.phi1)

    def test_prefix_stability(self):
        # Chunked substreams: a longer draw starts with the shorter one.
        cov = build_covariance(BELL_SINGLET, 0.3)
        short = draw(cov, seed=50, count=10_000)
        long = draw(cov, seed=50, count=30_000)
        assert np.array_equal(long.phi1[:10_000], short.phi1)

    def test_batch_indexing(self):
        cov = build_covariance(BELL_SINGLET, 0.3)
        batch = draw(cov, seed=51, count=10)
        sample = batch[3]
        np.testing.assert_array_equal(sample.phi1, batch.phi1[3])
        assert len(batch) == 10
        assert batch.seed == 51


class TestBackground:
    def test_zero_epsilon_gives_zeros(self):
        batch = draw_background(3, 0.0, seed=52, count=100)
        assert np.all(batch.samples == 0)

    def test_unit_epsilon_variance(self):
        n = 100_000
        batch = draw_background(4, 1.0, seed=53, count=n)
        var = np.mean(np.abs(batch.samples) ** 2, axis=0)
        # per-mode |w|^2 has variance 1 for a unit circular Gaussian
        assert np.all(np.abs(var - 1.0) <= 5.0 / np.sqrt(n))

    def test_modes_uncorrelated(self):
        n = 100_000
        batch = draw_background(3, 1.0, seed=54, count=n)
        z = batch.samples
        cross = z.conj().T @ z / n
        off = cross - np.diag(np.diagonal(cross))
        assert np.all(np.abs(off) <= 5.0 / np.sqrt(n))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(NotPositiveError):
            draw_background(2, -1.0, seed=0, count=10)


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
        batch = draw(cov, seed=56, count=n)
        x = np.einsum("kl,nl,nk->n", a1, batch.phi1, batch.phi1.conj()).real
        y = np.einsum(
            "kl,nl,nk->n", a2, batch.phi2.conj(), batch.phi2
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
        batch = draw(scaled, seed=59, count=n)
        joint = np.hstack([batch.phi1, batch.phi2])
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
        serial = draw(cov, seed=60, count=40_000, workers=1)
        monkeypatch.setenv("PCSFT_THREADS", "4")
        split = draw(cov, seed=60, count=40_000)
        assert np.array_equal(serial.phi1, split.phi1)


class TestBinaryDump:
    def test_roundtrip(self, tmp_path):
        cov = build_covariance(BELL_SINGLET, 0.3)
        batch = draw(cov, seed=57, count=1_000)
        path = tmp_path / "batch.bin"
        save_batch(batch, path, covariance=cov)
        loaded, header = load_batch(path)
        assert np.array_equal(loaded.phi1, batch.phi1)
        assert np.array_equal(loaded.phi2, batch.phi2)
        assert loaded.seed == batch.seed
        assert header["prng_id"] == batch.prng_id
        assert header["covariance_hash"] == covariance_hash(cov)

    def test_hash_sensitive_to_epsilon(self):
        a = build_covariance(BELL_SINGLET, 0.3)
        b = build_covariance(BELL_SINGLET, 0.4)
        assert covariance_hash(a) != covariance_hash(b)
