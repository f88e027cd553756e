"""Zero-forcing SNR identities, checked on the kernels' quadratic forms.

Stream k's zero-forcing SNR is scale * q_k, where the kernels compute
q_k = h_k^H (I - P) h_k = 1 / [(H^H H)^{-1}]_kk and P projects onto the
other columns.  Each matrix goes in as a trial of its own
(helpers.kernel_inputs), so the kernel's H is exactly that matrix.
"""

import math

import numpy as np
import pytest

import oracles
from helpers import gram_condition, kernel_inputs, random_complex, well_conditioned

from hapsim.kernels import (
    CONDITION_LIMIT,
    all_stream_quadforms,
    first_stream_quadforms,
    is_singular,
)


def quadforms(hs) -> tuple[np.ndarray, np.ndarray]:
    """Every column's q and the singular flag of each matrix in hs."""
    q, singular = all_stream_quadforms(*kernel_inputs(hs))
    return q[:, 0], singular[:, 0]


class TestProjectionComplement:
    def test_basis_column(self):
        # The other column is e_1: zero forcing removes the first entry only.
        h = np.array([[2.0, 1.0], [3.0, 0.0], [4.0j, 0.0]], dtype=complex)
        q, singular = quadforms([h])
        assert not singular.any()
        assert q[0, 0] == pytest.approx(9.0 + 16.0, rel=1e-15)

    def test_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(31)
        hs = np.stack([well_conditioned(rng, 4, 3) for _ in range(50)])
        q, _ = quadforms(hs)
        for h, got in zip(hs, q[:, 0]):
            rest = h[:, 1:]
            resid = h[:, 0] - rest @ (np.linalg.pinv(rest) @ h[:, 0])
            assert math.isclose(got, np.vdot(resid, resid).real, rel_tol=1e-9)

    def test_rank_deficient_raises_with_condition(self):
        col = random_complex(np.random.default_rng(33), 4, 1)
        h_tilde = np.hstack([col, col])
        cond = gram_condition(h_tilde)
        assert cond >= CONDITION_LIMIT
        assert is_singular(cond)
        other = random_complex(np.random.default_rng(34), 4, 1)
        _, singular = first_stream_quadforms(
            *kernel_inputs([np.hstack([other, h_tilde])]))
        assert singular.all()


class TestZfAllStreams:
    def test_identity_channel(self):
        q, singular = quadforms([np.eye(3)])
        assert not singular.any()
        assert (2.0 * q[0]).tolist() == [2.0, 2.0, 2.0]

    def test_rank_one_raises(self):
        a = np.exp(1j * np.linspace(0.0, 2.0, 4))
        b = np.exp(1j * np.linspace(0.0, 1.0, 3))
        _, singular = quadforms([np.outer(a, b)])
        assert singular.all()

    def test_matches_inverse_diagonal(self):
        rng = np.random.default_rng(38)
        hs = np.stack([well_conditioned(rng, 5, 3) for _ in range(50)])
        q, _ = quadforms(hs)
        for h, row in zip(hs, q):
            for k in range(3):
                assert math.isclose(0.8 * row[k], oracles.zf_snr(h, k, 0.8),
                                    rel_tol=1e-9)

    def test_single_column(self):
        h = np.array([[3.0], [4.0]], dtype=complex)
        q, _ = quadforms([h])
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(25.0, rel=1e-12)
