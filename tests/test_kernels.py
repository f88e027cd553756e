import numpy as np
import pytest

from helpers import random_complex

from hapsim.kernels import (
    CONDITION_LIMIT,
    all_stream_quadforms,
    first_stream_quadforms,
    gram_condition,
    is_singular,
)


def reference_quadforms(los, nlos, a, b, all_streams):
    """Least-squares residual route, independent of the kernels."""
    n_trials, n_links, _, c = nlos.shape
    width = c if all_streams else 1
    q = np.zeros((n_trials, n_links, width))
    singular = np.zeros((n_trials, n_links), dtype=bool)
    for t in range(n_trials):
        for l in range(n_links):
            h = a[l] * los[l] + b[l] * nlos[t, l]
            s = np.linalg.svd(h, compute_uv=False)
            if s[-1] <= 0.0 or (s[0] / s[-1]) ** 2 >= CONDITION_LIMIT:
                singular[t, l] = True
                continue
            for k in range(width):
                h1 = h[:, k]
                rest = np.delete(h, k, axis=1)
                if rest.shape[1] == 0:
                    q[t, l, k] = np.vdot(h1, h1).real
                    continue
                z = np.linalg.lstsq(rest, h1, rcond=None)[0]
                resid = h1 - rest @ z
                q[t, l, k] = np.vdot(resid, resid).real
    return (q if all_streams else q[:, :, 0]), singular


def workload(seed=7, trials=40, links=3, rows=4, cols=4):
    rng = np.random.default_rng(seed)
    los = np.empty((links, rows, cols), dtype=np.complex128)
    for l in range(links):
        v = np.exp(2j * np.pi * rng.uniform(size=rows))
        w = np.exp(2j * np.pi * rng.uniform(size=cols))
        los[l] = np.outer(v, w)
    nlos = np.stack([
        np.stack([random_complex(rng, rows, cols) for _ in range(links)])
        for _ in range(trials)])
    kappa = np.array([1.0, 5.0, 10.0][:links])
    a = np.sqrt(kappa / (1.0 + kappa))
    b = np.sqrt(1.0 / (1.0 + kappa))
    return los, nlos, a, b


# The "numpy" id keeps these test names stable for runs compared by name.
@pytest.mark.parametrize("backend", ["numpy"])
class TestBackendParity:
    def test_first_stream_matches_reference(self, backend):
        los, nlos, a, b = workload()
        q, singular = first_stream_quadforms(los, nlos, a, b)
        ref_q, ref_s = reference_quadforms(los, nlos, a, b, all_streams=False)
        assert q.shape == (40, 3)
        np.testing.assert_array_equal(singular, ref_s)
        np.testing.assert_allclose(q[~singular], ref_q[~singular],
                                   rtol=1e-9, atol=1e-12)

    def test_all_streams_matches_reference(self, backend):
        los, nlos, a, b = workload(seed=8, trials=25)
        q, singular = all_stream_quadforms(los, nlos, a, b)
        ref_q, ref_s = reference_quadforms(los, nlos, a, b, all_streams=True)
        assert q.shape == (25, 3, 4)
        np.testing.assert_array_equal(singular, ref_s)
        np.testing.assert_allclose(q[~singular], ref_q[~singular],
                                   rtol=1e-9, atol=1e-12)

    def test_single_column_is_plain_norm(self, backend):
        los, nlos, a, b = workload(seed=9, trials=10, links=2, cols=1)
        q, singular = first_stream_quadforms(los, nlos, a, b)
        assert not singular.any()
        h = a[None, :, None, None] * los + b[None, :, None, None] * nlos
        norms = np.einsum("tlrc,tlrc->tl", h.conj(), h).real
        np.testing.assert_allclose(q, norms, rtol=1e-12)

    def test_rank_deficient_link_is_flagged(self, backend):
        los, nlos, _, _ = workload(seed=10, trials=15, links=2)
        # Pure line-of-sight on link 0: rank one, always flagged.
        a = np.array([1.0, 0.8])
        b = np.array([0.0, 0.6])
        q, singular = first_stream_quadforms(los, nlos, a, b)
        assert singular[:, 0].all()
        assert not singular[:, 1].any()
        assert (q[:, 0] == 0.0).all()

    def test_repeat_call_is_bitwise_identical(self, backend):
        los, nlos, a, b = workload(seed=11, trials=30)
        q1, s1 = first_stream_quadforms(los, nlos, a, b)
        q2, s2 = first_stream_quadforms(los, nlos, a, b)
        assert np.array_equal(q1, q2)
        assert np.array_equal(s1, s2)


class TestConditionTest:
    def test_gram_condition_matches_singular_values(self):
        rng = np.random.default_rng(13)
        h = np.stack([random_complex(rng, 5, 3) for _ in range(20)])
        s = np.linalg.svd(h, compute_uv=False)
        np.testing.assert_allclose(gram_condition(h), (s[:, 0] / s[:, -1]) ** 2,
                                   rtol=1e-9)

    def test_limit_is_inclusive_and_nan_is_singular(self):
        cond = np.array([1.0, np.nextafter(CONDITION_LIMIT, 0.0),
                         CONDITION_LIMIT, np.inf, np.nan])
        np.testing.assert_array_equal(is_singular(cond),
                                      [False, False, True, True, True])


class TestInputValidation:
    def test_wrong_rank_rejected(self):
        los, nlos, a, b = workload(trials=2)
        with pytest.raises(ValueError, match=r"\(T, L, r, c\)"):
            first_stream_quadforms(los, nlos[0], a, b)

    def test_shape_mismatch_rejected(self):
        los, nlos, a, b = workload(trials=2)
        with pytest.raises(ValueError, match="does not match"):
            first_stream_quadforms(los[:2], nlos, a, b)

    def test_weight_shape_rejected(self):
        los, nlos, a, b = workload(trials=2)
        with pytest.raises(ValueError, match="mixing weights"):
            all_stream_quadforms(los, nlos, a[:2], b)
