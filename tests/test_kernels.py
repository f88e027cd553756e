import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from helpers import (
    gram_condition,
    kernel_inputs,
    random_complex,
    random_unitary,
    well_conditioned,
)

from hapsim import kernels
from hapsim.kernels import (
    CONDITION_LIMIT,
    all_stream_quadforms,
    first_stream_quadforms,
    is_singular,
)
from hapsim.scenario import load_scenario
from hapsim.simulator import TrialEnsemble

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EPS = np.finfo(float).eps


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


class TestBackendParity:
    """The kernels against the least-squares residual reference."""

    def test_first_stream_matches_reference(self):
        los, nlos, a, b = workload()
        q, singular = first_stream_quadforms(los, nlos, a, b)
        ref_q, ref_s = reference_quadforms(los, nlos, a, b, all_streams=False)
        assert q.shape == (40, 3)
        np.testing.assert_array_equal(singular, ref_s)
        np.testing.assert_allclose(q[~singular], ref_q[~singular],
                                   rtol=1e-9, atol=1e-12)

    def test_all_streams_matches_reference(self):
        los, nlos, a, b = workload(seed=8, trials=25)
        q, singular = all_stream_quadforms(los, nlos, a, b)
        ref_q, ref_s = reference_quadforms(los, nlos, a, b, all_streams=True)
        assert q.shape == (25, 3, 4)
        np.testing.assert_array_equal(singular, ref_s)
        np.testing.assert_allclose(q[~singular], ref_q[~singular],
                                   rtol=1e-9, atol=1e-12)

    def test_single_column_is_plain_norm(self):
        los, nlos, a, b = workload(seed=9, trials=10, links=2, cols=1)
        q, singular = first_stream_quadforms(los, nlos, a, b)
        assert not singular.any()
        h = a[None, :, None, None] * los + b[None, :, None, None] * nlos
        norms = np.einsum("tlrc,tlrc->tl", h.conj(), h).real
        np.testing.assert_allclose(q, norms, rtol=1e-12)

    def test_rank_deficient_link_is_flagged(self):
        los, nlos, _, _ = workload(seed=10, trials=15, links=2)
        # Pure line-of-sight on link 0: rank one, always flagged.
        a = np.array([1.0, 0.8])
        b = np.array([0.0, 0.6])
        q, singular = first_stream_quadforms(los, nlos, a, b)
        assert singular[:, 0].all()
        assert not singular[:, 1].any()
        assert (q[:, 0] == 0.0).all()

    def test_repeat_call_is_bitwise_identical(self):
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


def stream_forms(hs):
    """Every column's q, the first-stream q_0 and the flag of each matrix."""
    q, singular = all_stream_quadforms(*kernel_inputs(hs))
    q0, singular0 = first_stream_quadforms(*kernel_inputs(hs))
    np.testing.assert_array_equal(singular0, singular)
    return q[:, 0], q0[:, 0], singular[:, 0]


class TestZeroForcingIdentities:
    """Zero-forcing SNR identities of the forms, scale * q_k, on each kernel."""

    def test_identity_channel(self):
        q, singular = first_stream_quadforms(*kernel_inputs([np.eye(2)]))
        assert not singular.any()
        assert q[0, 0] == 1.0

    def test_orthogonal_columns(self):
        c = 3.5
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = c
        h[1, 1] = c
        q, q0, singular = stream_forms([h])
        assert not singular.any()
        for k in range(2):
            assert 2.0 * q[0, k] == pytest.approx(2.0 * c * c, rel=1e-12)
        assert 2.0 * q0[0] == pytest.approx(2.0 * c * c, rel=1e-12)

    def test_matches_full_inverse_oracle(self):
        rng = np.random.default_rng(34)
        hs = np.stack([well_conditioned(rng, 4, 3) for _ in range(200)])
        q, q0, singular = stream_forms(hs)
        assert not singular.any()
        for h, row, first in zip(hs, q, q0):
            for k in range(3):
                assert math.isclose(1.7 * row[k], oracles.zf_snr(h, k, 1.7),
                                    rel_tol=1e-9)
            assert math.isclose(1.7 * first, oracles.zf_snr(h, 0, 1.7),
                                rel_tol=1e-9)

    def test_linear_in_scale(self):
        # The ensemble applies power as an amplitude factor on H: scaling H
        # by sqrt(2) must double every stream's SNR.
        rng = np.random.default_rng(35)
        h = well_conditioned(rng, 5, 3)
        q, q0, _ = stream_forms([h, math.sqrt(2.0) * h])
        np.testing.assert_allclose(q[1], 2.0 * q[0], rtol=1e-12)
        np.testing.assert_allclose(q0[1], 2.0 * q0[0], rtol=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(36)
        hs, rotated = [], []
        for _ in range(25):
            h = well_conditioned(rng, 5, 3)
            hs.append(h)
            rotated.append(random_unitary(rng, 5) @ h)
        q, q0, _ = stream_forms(hs)
        q_rot, q0_rot, _ = stream_forms(rotated)
        np.testing.assert_allclose(q_rot, q, rtol=1e-9)
        np.testing.assert_allclose(q0_rot, q0, rtol=1e-9)

    def test_nearly_collinear_is_flagged(self):
        col = random_complex(np.random.default_rng(37), 6, 1)
        h = np.hstack([col, col * (1.0 + 1e-9)])
        q, singular = first_stream_quadforms(*kernel_inputs([h]))
        assert singular.all()
        assert q[0, 0] == 0.0


def all_forms(hs) -> tuple[np.ndarray, np.ndarray]:
    """Every column's q and the singular flag of each matrix in hs."""
    q, singular = all_stream_quadforms(*kernel_inputs(hs))
    return q[:, 0], singular[:, 0]


class TestProjectionResidual:
    """q_0 = h_0^H (I - P) h_0: the energy of column 0 off the span of the
    other columns, and a flag where those columns leave no such residual."""

    def test_basis_column(self):
        # The other column is e_1: zero forcing removes the first entry only.
        h = np.array([[2.0, 1.0], [3.0, 0.0], [4.0j, 0.0]], dtype=complex)
        q, singular = all_forms([h])
        assert not singular.any()
        assert q[0, 0] == pytest.approx(9.0 + 16.0, rel=1e-15)

    def test_matches_pseudo_inverse_oracle(self):
        rng = np.random.default_rng(31)
        hs = np.stack([well_conditioned(rng, 4, 3) for _ in range(50)])
        q, _ = all_forms(hs)
        for h, got in zip(hs, q[:, 0]):
            rest = h[:, 1:]
            resid = h[:, 0] - rest @ (np.linalg.pinv(rest) @ h[:, 0])
            assert math.isclose(got, np.vdot(resid, resid).real, rel_tol=1e-9)

    def test_rank_deficient_is_flagged(self):
        col = random_complex(np.random.default_rng(33), 4, 1)
        h_tilde = np.hstack([col, col])
        cond = gram_condition(h_tilde)
        assert cond >= CONDITION_LIMIT
        assert is_singular(cond)
        other = random_complex(np.random.default_rng(34), 4, 1)
        _, singular = first_stream_quadforms(
            *kernel_inputs([np.hstack([other, h_tilde])]))
        assert singular.all()


class TestAllStreamForms:
    """Every column's q from the all-stream kernel: 1 / [(H^H H)^{-1}]_kk."""

    def test_identity_channel(self):
        q, singular = all_forms([np.eye(3)])
        assert not singular.any()
        assert (2.0 * q[0]).tolist() == [2.0, 2.0, 2.0]

    def test_rank_one_is_flagged(self):
        a = np.exp(1j * np.linspace(0.0, 2.0, 4))
        b = np.exp(1j * np.linspace(0.0, 1.0, 3))
        _, singular = all_forms([np.outer(a, b)])
        assert singular.all()

    def test_matches_inverse_diagonal(self):
        rng = np.random.default_rng(38)
        hs = np.stack([well_conditioned(rng, 5, 3) for _ in range(50)])
        q, _ = all_forms(hs)
        for h, row in zip(hs, q):
            for k in range(3):
                assert math.isclose(0.8 * row[k], oracles.zf_snr(h, k, 0.8),
                                    rel_tol=1e-9)

    def test_single_column(self):
        h = np.array([[3.0], [4.0]], dtype=complex)
        q, _ = all_forms([h])
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(25.0, rel=1e-12)


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


def rician(rng, rows, cols, kappa_db):
    """Rank-one line of sight plus CN(0, 1) scattering at Rician factor kappa."""
    los = np.outer(np.exp(2j * np.pi * rng.uniform(size=rows)),
                   np.exp(2j * np.pi * rng.uniform(size=cols)))
    k = 10.0 ** (kappa_db / 10.0)
    return (np.sqrt(k / (1.0 + k)) * los
            + np.sqrt(1.0 / (1.0 + k)) * random_complex(rng, rows, cols))


def plain_gate(hs):
    """The unscreened gate: eigenvalues of every Gram matrix."""
    return is_singular(gram_condition(hs))


@st.composite
def mixed_chunks(draw):
    """Same-shape matrices: regular, near-singular and rank-deficient."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hs = []
    for _ in range(draw(st.integers(1, 8))):
        h = rician(rng, rows, cols, draw(st.floats(0.0, 400.0)))
        kind = draw(st.sampled_from(["regular", "near", "duplicate", "zero"]))
        i, j = rng.choice(cols, size=2, replace=cols == 1)
        if kind == "near":
            h[:, j] = h[:, i] * (1.0 + 10.0 ** -draw(st.floats(2.0, 12.0)))
        elif kind == "duplicate":
            h[:, j] = h[:, i]
        elif kind == "zero":
            h[:, j] = 0.0
        hs.append(h)
    return np.stack(hs)


class TestScreenedGate:
    """The kernels skip eigenvalues where the Cholesky factor clears G."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_chunks())
    # A zero 1x1 Gram: a factor that wrote into the kernel's own Gram stack
    # would hand the eigenvalue test a pivot replaced by one.
    @example(np.array([[[0.9 - 0.3j]], [[0.0]]]))
    def test_flags_equal_the_plain_gate(self, hs):
        q, singular = all_stream_quadforms(*kernel_inputs(hs))
        np.testing.assert_array_equal(singular[:, 0], plain_gate(hs))
        assert (q[singular] == 0.0).all()
        assert (np.isfinite(q[~singular]) & (q[~singular] > 0.0)).all()
        q0, singular0 = first_stream_quadforms(*kernel_inputs(hs))
        np.testing.assert_array_equal(singular0, singular)
        assert (q0[singular0] == 0.0).all()
        # q0 is the last pivot, not column 0 of the inverse: it rounds
        # differently, so check it against the 50-digit reference.  Forming
        # G alone rounds a lone column's squared norm by up to rows * eps.
        cond = gram_condition(hs)
        for h, got, flag, cond_h in zip(hs, q0[:, 0], singular0[:, 0], cond):
            if not flag:
                ref = mp_quadforms(h)[0]
                assert abs(got - ref) / ref <= (cond_h + h.shape[0]) * EPS

    @settings(max_examples=300, deadline=None)
    @given(mixed_chunks())
    def test_comparison_bound_exceeds_the_condition_number(self, hs):
        # tr(G) c ||M(L)^{-1} e||_inf^2 >= cond(G) wherever every pivot is
        # positive, up to rounding: four ulps, and cond(G) capped at the
        # limit, because eigvalsh returns lmin <= 0, an infinite cond, for
        # exactly singular G whose pivots all round positive.
        gram = np.conj(hs).swapaxes(-1, -2) @ hs
        g, trace, positive, _ = kernels._factor(
            gram, np.roll(np.arange(gram.shape[-1]), -1))
        bound = kernels._comparison_bound(g, trace)[:len(hs)]
        cond = np.minimum(gram_condition(hs), CONDITION_LIMIT)
        positive = positive[:len(hs)]
        assert (bound[positive] >= cond[positive] * (1.0 - 4.0 * EPS)).all()

    def test_duplicate_column_inside_regular_chunk(self):
        # Exactly rank-deficient: a pivot rounds to a tiny value of either
        # sign, and the matrix goes to the eigenvalue test.
        rng = np.random.default_rng(33)
        hs = np.stack([random_complex(rng, 4, 3) for _ in range(6)])
        hs[2, :, 2] = hs[2, :, 1]
        q, singular = all_stream_quadforms(*kernel_inputs(hs))
        np.testing.assert_array_equal(singular[:, 0], plain_gate(hs))
        assert singular[:, 0].tolist() == [False, False, True, False, False,
                                           False]
        assert (q[2] == 0.0).all()

    @pytest.mark.parametrize("garbage_diag", [[1.0, 1.0], [3.0, 3.0]])
    def test_garbage_inverse_of_singular_gram_is_not_cleared(
            self, garbage_diag):
        # Two equal columns of squared norm g give the exactly singular
        # G = g [[1, 1], [1, 1]] with diagonal garbage_diag.  Its second
        # Cholesky pivot in float64, g - (g / sqrt(g))**2, is exactly zero
        # at g = 1 and -4.4e-16 at g = 3.  With that pivot replaced by one,
        # the garbage inverse factor is [[1/sqrt(g), 0], [-1, 1]], and its
        # trace bound 2 + 4g would clear G: only the pivot test catches it,
        # alone or beside a regular G.
        g = garbage_diag[0]
        assert g - (g / math.sqrt(g)) ** 2 <= 0.0
        assert 2.0 + 4.0 * g < kernels._SCREEN_LIMIT
        col = (np.arange(3) < g).astype(complex)
        h = np.stack([col, col], axis=1)
        assert np.diagonal(h.conj().T @ h).real.tolist() == garbage_diag
        regular = well_conditioned(np.random.default_rng(36), 3, 2)
        for hs, flags in (([h], [True]), ([regular, h], [False, True])):
            q, singular = all_stream_quadforms(*kernel_inputs(hs))
            assert singular[:, 0].tolist() == flags
            assert (q[-1] == 0.0).all()
            q0, singular0 = first_stream_quadforms(*kernel_inputs(hs))
            assert singular0[:, 0].tolist() == flags
            assert q0[-1, 0] == 0.0

    def test_zero_column_falls_back_for_the_whole_chunk(self):
        # An exactly zero pivot, on which LAPACK's LU inverse raises; the
        # Cholesky factor passes the matrix to the eigenvalue test alone.
        rng = np.random.default_rng(35)
        hs = np.stack([random_complex(rng, 5, 3) for _ in range(6)])
        hs[3, :, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(hs.conj().swapaxes(-1, -2) @ hs)
        q, singular = all_stream_quadforms(*kernel_inputs(hs))
        np.testing.assert_array_equal(singular[:, 0], plain_gate(hs))
        assert singular[:, 0].tolist() == [False, False, False, True, False,
                                           False]
        assert (q[3] == 0.0).all()
        for t in (0, 1, 2, 4, 5):
            for k in range(3):
                assert q[t, 0, k] == pytest.approx(
                    oracles.zf_snr(hs[t], k, 1.0), rel=1e-9)

    @pytest.mark.parametrize("name", ["altitude_sweep",
                                      "altitude_sweep_symmetric", "snr_sweep"])
    def test_shipped_scenarios_need_no_eigenvalues(self, name, monkeypatch):
        # The screens clear every matrix of the shipped scenarios' draws, so
        # no chunk pays for eigvalsh; a bound that lost this share would
        # lose the first-stream kernel's speed.
        rows = []
        condition = kernels._condition

        def counted(gram):
            rows.append(len(gram))
            return condition(gram)

        monkeypatch.setattr(kernels, "_condition", counted)
        scenario = load_scenario(str(SCENARIOS / f"{name}.yaml"))
        TrialEnsemble(scenario.network, 1000, 12345,
                      include_baseline=scenario.include_baseline)
        assert sum(rows) == 0
        # The count sees a matrix the screen does not clear.
        first_stream_quadforms(*kernel_inputs([np.ones((2, 2))]))
        assert sum(rows) == 1


class TestBatchSplits:
    """A matrix's q and flag are the same bits in any batch, alone included."""

    @pytest.mark.parametrize("cols", [1, 2, 4])
    def test_zero_trials_give_empty_forms(self, cols):
        los, nlos, a, b = workload(trials=1, cols=cols)
        q0, singular0 = first_stream_quadforms(los, nlos[:0], a, b)
        q, singular = all_stream_quadforms(los, nlos[:0], a, b)
        assert q0.shape == singular0.shape == singular.shape == (0, 3)
        assert q.shape == (0, 3, cols)
        assert q0.dtype == q.dtype == np.float64
        assert singular0.dtype == singular.dtype == np.bool_

    @pytest.mark.parametrize("extra_rows", [0, 2], ids=["square", "tall"])
    @pytest.mark.parametrize("cols", range(1, 10))
    def test_slices_equal_the_whole_batch(self, cols, extra_rows):
        # Five matrices past the most an ensemble chunk hands one call
        # (2**16 complex entries); slices are taken from the start and the
        # end.  Every fifth matrix repeats a column and is singular.
        per_call = max(1, 2**16 // cols**2)
        n = per_call + 5
        rng = np.random.default_rng(10 * cols + extra_rows)
        hs = random_complex(rng, n * (cols + extra_rows), cols).reshape(
            n, cols + extra_rows, cols)
        if cols > 1:
            hs[::5, :, -1] = hs[::5, :, 0]
        for kernel in (all_stream_quadforms, first_stream_quadforms):
            q, singular = kernel(*kernel_inputs(hs))
            assert (singular[::5].all() == (cols > 1)
                    and not singular[1::5].any())
            for size in (1, 2, 3, 7, 64):
                for start, stop in ((0, 70), (per_call - 35, n)):
                    for lo in range(start, stop, size):
                        hi = min(lo + size, stop)
                        q_s, singular_s = kernel(*kernel_inputs(hs[lo:hi]))
                        assert q_s.tobytes() == q[lo:hi].tobytes(), (
                            kernel.__name__, size, lo)
                        assert (singular_s.tobytes()
                                == singular[lo:hi].tobytes())


def mp_quadforms(h):
    """1 / [(H^H H)^{-1}]_kk of the float64 matrix h at 50 digits."""
    with mpmath.workdps(50):
        hm = mpmath.matrix(h.tolist())
        inv = mpmath.inverse(hm.H * hm)
        return [1.0 / float(mpmath.re(inv[k, k])) for k in range(h.shape[1])]


class TestIllConditionedAccuracy:
    """Error in q grows no faster than cond(G) * eps on strong line of sight."""

    @pytest.mark.parametrize("kappa_db", [15.0, 30.0, 45.0, 60.0, 75.0])
    def test_relative_error_within_condition_times_eps(self, kappa_db):
        rng = np.random.default_rng(int(kappa_db))
        hs = np.stack([rician(rng, 4, 4, kappa_db) for _ in range(40)])
        s = np.linalg.svd(hs, compute_uv=False)
        cond = (s[:, 0] / s[:, -1]) ** 2
        ref = np.array([mp_quadforms(h) for h in hs])
        q, singular = all_stream_quadforms(*kernel_inputs(hs))
        q0, singular0 = first_stream_quadforms(*kernel_inputs(hs))
        assert not singular.any() and not singular0.any()
        for got, want in ((q[:, 0], ref), (q0, ref[:, :1])):
            err = np.abs(got - want) / want
            assert (err <= cond[:, None] * 2.2e-16).all()
