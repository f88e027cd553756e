import math

import numpy as np
import pytest

from helpers import random_complex, random_unitary, well_conditioned

from hapsim.kernels import first_stream_quadforms
from hapsim.zfcore import (
    CONDITION_LIMIT,
    SingularChannelError,
    StreamSnr,
    projection_complement,
    zf_all_streams,
    zf_stream_snr,
)


def pinv_projection(h_tilde: np.ndarray) -> np.ndarray:
    n = h_tilde.shape[0]
    return np.eye(n, dtype=complex) - h_tilde @ np.linalg.pinv(h_tilde)


def inverse_diag_snr(h: np.ndarray, k: int, scale: float) -> float:
    gram_inv = np.linalg.inv(h.conj().T @ h)
    return scale / gram_inv[k, k].real


class TestProjectionComplement:
    def test_basis_column(self):
        h_tilde = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        np.testing.assert_allclose(projection_complement(h_tilde),
                                   np.diag([0.0, 1.0, 1.0]), atol=1e-15)

    def test_empty_columns_gives_identity(self):
        out = projection_complement(np.zeros((4, 0), dtype=complex))
        np.testing.assert_array_equal(out, np.eye(4, dtype=complex))

    def test_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h_tilde = well_conditioned(rng, 4, 2)
            p = projection_complement(h_tilde)
            ref = pinv_projection(h_tilde)
            assert np.linalg.norm(p - ref) <= 1e-9

    def test_hermitian_idempotent_annihilating(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            rows = int(rng.integers(2, 9))
            cols = int(rng.integers(1, min(rows, 6) + 1))
            h_tilde = well_conditioned(rng, rows, cols)
            p = projection_complement(h_tilde)
            assert np.linalg.norm(p - p.conj().T) <= 1e-10
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p @ h_tilde) <= 1e-10

    def test_rank_deficient_raises_with_condition(self):
        col = random_complex(np.random.default_rng(33), 4, 1)
        h_tilde = np.hstack([col, col])
        with pytest.raises(SingularChannelError) as err:
            projection_complement(h_tilde)
        assert err.value.condition_number >= CONDITION_LIMIT

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            projection_complement(np.ones(3, dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            projection_complement(np.array([[np.inf + 0j], [0j]]))


class TestZfStreamSnr:
    def test_identity_channel(self):
        out = zf_stream_snr(np.eye(2, dtype=complex), 0, 1.0)
        assert out == StreamSnr(0, 1.0)

    def test_orthogonal_columns(self):
        c = 3.5
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = c
        h[1, 1] = c
        for k in range(2):
            snr = zf_stream_snr(h, k, 2.0).snr_linear
            assert snr == pytest.approx(2.0 * c * c, rel=1e-12)

    def test_matches_full_inverse_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            h = well_conditioned(rng, 4, 3)
            for k in range(3):
                got = zf_stream_snr(h, k, 1.7).snr_linear
                ref = inverse_diag_snr(h, k, 1.7)
                assert math.isclose(got, ref, rel_tol=1e-9)

    def test_linear_in_scale(self):
        rng = np.random.default_rng(35)
        h = well_conditioned(rng, 5, 3)
        one = zf_stream_snr(h, 1, 1.25).snr_linear
        two = zf_stream_snr(h, 1, 2.5).snr_linear
        assert math.isclose(two, 2.0 * one, rel_tol=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            h = well_conditioned(rng, 5, 3)
            u = random_unitary(rng, 5)
            for k in range(3):
                a = zf_stream_snr(h, k, 1.0).snr_linear
                b = zf_stream_snr(u @ h, k, 1.0).snr_linear
                assert math.isclose(a, b, rel_tol=1e-9)

    def test_stream_index_range(self):
        h = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="stream_index"):
            zf_stream_snr(h, 3, 1.0)
        with pytest.raises(ValueError, match="stream_index"):
            zf_stream_snr(h, -1, 1.0)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError, match="snr_scale"):
            zf_stream_snr(np.eye(2, dtype=complex), 0, 0.0)

    def test_nearly_collinear_raises(self):
        col = random_complex(np.random.default_rng(37), 6, 1)
        h = np.hstack([col, col * (1.0 + 1e-9)])
        with pytest.raises(SingularChannelError):
            zf_stream_snr(h, 0, 1.0)


class TestZfAllStreams:
    def test_identity_channel(self):
        out = zf_all_streams(np.eye(3, dtype=complex), 2.0)
        assert [s.stream_index for s in out] == [0, 1, 2]
        assert [s.snr_linear for s in out] == [2.0, 2.0, 2.0]

    def test_rank_one_raises(self):
        a = np.exp(1j * np.linspace(0.0, 2.0, 4))
        b = np.exp(1j * np.linspace(0.0, 1.0, 3))
        with pytest.raises(SingularChannelError):
            zf_all_streams(np.outer(a, b), 1.0)

    def test_matches_inverse_diagonal(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            h = well_conditioned(rng, 5, 3)
            out = zf_all_streams(h, 0.8)
            for k, s in enumerate(out):
                assert math.isclose(s.snr_linear, inverse_diag_snr(h, k, 0.8),
                                    rel_tol=1e-9)

    def test_single_column(self):
        h = np.array([[3.0], [4.0]], dtype=complex)
        out = zf_all_streams(h, 1.0)
        assert len(out) == 1
        assert out[0].snr_linear == pytest.approx(25.0, rel=1e-12)


class TestStreamSnr:
    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError, match="snr_linear"):
            StreamSnr(0, -1e-9)


class TestSingularityAgreement:
    def test_scalar_api_raises_exactly_where_kernel_flags(self):
        # cond(H^H H) = s**-2 straddles the 1e12 limit by about 0.2%, where
        # two differently computed condition numbers can disagree.
        rng = np.random.default_rng(0)
        count = 1000
        hs = np.stack([
            random_unitary(rng, 4)
            @ np.diag([1.0, 0.7, 0.3, 1e-6 * (1.0 + rng.uniform(-1e-3, 1e-3))])
            @ random_unitary(rng, 4).conj().T
            for _ in range(count)])
        _, flags = first_stream_quadforms(np.zeros((1, 4, 4)), hs[:, None],
                                          np.zeros(1), np.ones(1))
        raised = []
        for h in hs:
            try:
                zf_stream_snr(h, 0, 1.0)
            except SingularChannelError:
                raised.append(True)
            else:
                raised.append(False)
        assert 0 < flags.sum() < count
        np.testing.assert_array_equal(np.array(raised), flags[:, 0])
