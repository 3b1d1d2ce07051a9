"""Seeded Gaussian sampling: factorization, moments, determinism."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcsft import (
    CHUNK_SIZE,
    BlockCovariance,
    SampleBatch,
    SchemaError,
    UnitaryChannel,
    apply_to_state,
    beamsplitter_unitary,
    build_covariance,
    covariance_hash,
    draw,
    epsilon_min,
    factor_covariance,
    load_batch,
    matricize,
    save_batch,
)
from pcsft.sampler import _BLOCK_ROWS, _substream, draw_chunks
from conftest import rand_psd, rand_selfadjoint, rand_state

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
        assert len(batch) == 10
        assert batch.seed == 51
        rows = SampleBatch(batch.phi1[3:5], batch.phi2[3:5], seed=batch.seed)
        assert len(rows) == 2
        assert (rows.d1, rows.d2) == (batch.d1, batch.d2)
        np.testing.assert_array_equal(rows.phi1[0], batch.phi1[3])
        np.testing.assert_array_equal(rows.phi2[1], batch.phi2[4])


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
        batch = draw(experiment_cov(statistics, spin), seed=seed, count=CHUNK_SIZE)
        joint = np.hstack([batch.phi1, batch.phi2]).astype("<c16")
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
        # 200k spin-1/2 samples: a 25.6 MB batch.  The only other
        # allocations are each worker's two block buffers (1 MB).
        cov = experiment_cov("boson", "half")
        for workers in (1, 2):
            tracemalloc.start()
            try:
                batch = draw(cov, seed=0, count=200_000, workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * (batch.phi1.nbytes + batch.phi2.nbytes), workers
            del batch

    def test_caller_arrays_are_copied(self):
        phi1 = np.ones((3, 2), dtype=complex)
        phi2 = np.ones((3, 2), dtype=complex)
        batch = SampleBatch(phi1, phi2, seed=0)
        phi1[0, 0] = 5.0
        assert batch.phi1[0, 0] == 1.0
        assert not batch.phi1.flags.writeable


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


def saved_batch_bytes(tmp_path, count=3) -> bytes:
    cov = build_covariance(BELL_SINGLET, 0.3)
    path = tmp_path / "batch.bin"
    save_batch(draw(cov, seed=58, count=count), path, covariance=cov)
    return path.read_bytes()


def rewrite_header(data: bytes, **changes) -> bytes:
    magic, header, rest = data.split(b"\n", 2)
    fields = json.loads(header)
    fields.update(changes)
    return magic + b"\n" + json.dumps(fields).encode() + b"\n" + rest


def header_end(data: bytes) -> int:
    return data.index(b"\n", data.index(b"\n") + 1) + 1


class TestLoadBatchValidation:
    def load(self, tmp_path, data: bytes):
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        return load_batch(path)

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"format": "other"}, "format"),
            ({"version": 2}, "version"),
            ({"version": True}, "version"),
            ({"version": 1.0}, "version"),
            ({"seed": "7"}, "seed"),
            ({"seed": -1}, "seed"),
            ({"prng_id": 3}, "prng_id"),
        ],
    )
    def test_header_fields(self, tmp_path, changes, field):
        data = rewrite_header(saved_batch_bytes(tmp_path), **changes)
        with pytest.raises(SchemaError, match=f"field '{field}'"):
            self.load(tmp_path, data)

    def test_header_not_an_object(self, tmp_path):
        data = saved_batch_bytes(tmp_path)
        magic, _, rest = data.split(b"\n", 2)
        with pytest.raises(SchemaError, match="field 'header'"):
            self.load(tmp_path, magic + b"\n[1, 2]\n" + rest)

    @pytest.mark.parametrize("slot, field", [(0, "count"), (1, "d1"), (2, "d2")])
    @pytest.mark.parametrize("value", [0.0, -2.0, 2.5, float("nan"), float("inf")])
    def test_sizes_must_be_positive_integers(self, tmp_path, slot, field, value):
        data = bytearray(saved_batch_bytes(tmp_path))
        at = header_end(bytes(data)) + 8 * slot
        data[at : at + 8] = np.array([value], dtype="<f8").tobytes()
        with pytest.raises(SchemaError, match=f"field '{field}'"):
            self.load(tmp_path, bytes(data))

    def test_trailing_bytes(self, tmp_path):
        data = saved_batch_bytes(tmp_path) + b"\0" * 8
        with pytest.raises(SchemaError, match="field 'payload'"):
            self.load(tmp_path, data)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(min_value=0))
    def test_truncated_file_names_its_field(self, tmp_path, cut):
        data = saved_batch_bytes(tmp_path)
        cut %= len(data)
        with pytest.raises(SchemaError, match="field '[a-z0-9_]+'"):
            self.load(tmp_path, data[:cut])
