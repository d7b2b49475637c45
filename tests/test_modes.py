import numpy as np
import pytest

from risfeed.geometry import _layout, make_center_feed, make_end_feed
from risfeed.cli import mode_report
from risfeed.coupling import _T_stack, build_T
from risfeed.modes import (BeamVector, svd_modes, mode_metrics,
                           isotropic_loss_db, _svd_stack)
from risfeed.sweep import _beam_for

from oracles import feeder_beam, one_sided_jacobi_svd


def modes_for(n_a, n_p, f, feed="center", tilted=False):
    if feed == "center":
        sc = make_center_feed(n_a, n_p, f)
    else:
        sc = make_end_feed(n_a, n_p, f, tilted)
    T = build_T(sc)
    return sc, T, svd_modes(T)


class TestSvdModes:
    def test_table_row_2_sigma(self):
        _, _, m = modes_for(4, 8, 8)
        got = 10 * np.log10(m.sigma**2)
        # fourth value follows from the row's printed condition number
        assert got == pytest.approx([-10.34, -12.53, -19.73, -34.38],
                                    abs=0.05)

    def test_single_column_is_rank_one(self):
        _, T, m = modes_for(1, 8, 8)
        assert m.sigma[0] == pytest.approx(np.linalg.norm(T.entries),
                                           rel=1e-12)
        assert m.right_vectors[0, 0] == pytest.approx(1.0)

    # (N_a, N_p, f, feed): ill-conditioned, wide (N_p < N_a) and tilted T
    @pytest.mark.parametrize("n_a,n_p,f,feed", [
        (4, 8, 120, "center"), (4, 8, 400, "center"), (4, 8, 2000, "center"),
        (4, 4, 4000, "center"), (16, 64, 120, "center"),
        (16, 8, 120, "center"), (4, 2, 8, "center"), (4, 128, 110, "end")])
    def test_matches_one_sided_jacobi_oracle(self, n_a, n_p, f, feed):
        sc, T, m = modes_for(n_a, n_p, f, feed=feed, tilted=feed == "end")
        _, s, _ = one_sided_jacobi_svd(T.entries)
        assert np.max(np.abs(m.sigma - s)) <= 1e-13 * s[0]
        if (n_a, n_p) == (4, 8):
            # up to cond 2.7e8 every sigma keeps full relative accuracy
            assert np.all(np.abs(m.sigma - s) <= 1e-9 * s)
        if n_p >= n_a:
            (mm,) = mode_metrics(m.sigma[None], [sc.f], sc.n_p)
            assert np.isfinite(mm.cond)

    def test_phase_convention(self):
        _, _, m = modes_for(4, 32, 16, feed="end", tilted=True)
        for i in range(4):
            v = m.right_vectors[:, i]
            k = int(np.argmax(np.abs(v)))
            assert v[k].imag == 0.0
            assert v[k].real > 0

    def test_frobenius_identity(self):
        _, T, m = modes_for(4, 16, 16)
        assert np.sum(m.sigma**2) == pytest.approx(
            np.linalg.norm(T.entries)**2, rel=1e-12)

    def test_right_vectors_orthonormal(self):
        _, _, m = modes_for(4, 32, 32)
        gram = m.right_vectors.conj().T @ m.right_vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_action_norm_matches_sigma(self):
        _, T, m = modes_for(4, 16, 8)
        for i in range(4):
            got = np.linalg.norm(T.entries @ m.right_vectors[:, i])
            assert got == pytest.approx(m.sigma[i], rel=1e-10)

    def test_reconstruction(self):
        _, T, m = modes_for(4, 16, 16)
        approx = sum(m.sigma[i] * np.outer(m.left_vectors[:, i],
                                           m.right_vectors[:, i].conj())
                     for i in range(4))
        err = np.linalg.norm(T.entries - approx) / np.linalg.norm(T.entries)
        assert err < 1e-10

    # sigma down to 6e-12 sigma_1, a wide T with exact zeros, and tall
    # ones on each side of zgesdd's QR threshold
    @pytest.mark.parametrize("n_a,n_p,f", [(16, 64, 120), (16, 8, 120),
                                           (16, 29, 40), (64, 120, 40)])
    def test_left_vectors_orthonormal(self, n_a, n_p, f):
        _, T, m = modes_for(n_a, n_p, f)
        live = m.sigma > 0
        L = m.left_vectors[:, live]
        assert np.max(np.abs(L.conj().T @ L - np.eye(L.shape[1]))) < 1e-12
        assert np.all(m.left_vectors[:, ~live] == 0)
        approx = (m.left_vectors * m.sigma) @ m.right_vectors.conj().T
        err = np.linalg.norm(T.entries - approx) / np.linalg.norm(T.entries)
        assert err < 1e-14

    def test_sigma_descending(self):
        _, _, m = modes_for(4, 32, 80)
        assert np.all(np.diff(m.sigma) <= 0)


def assert_plain_svd_bits(M):
    """_svd_stack's sigma and V^H have the bytes of one np.linalg.svd per
    matrix, a wide one padded with zero rows to N_a x N_a."""
    n_a = M.shape[2]
    parts = [np.linalg.svd(np.vstack([m, np.zeros((n_a - len(m), n_a))])
                           if len(m) < n_a else m, full_matrices=False)
             for m in M]
    sigma, Vh = _svd_stack(M)
    assert sigma.tobytes() == np.array([s for _, s, _ in parts]).tobytes()
    assert Vh.tobytes() == np.array([v for _, _, v in parts]).tobytes()


class TestSvdStack:
    """_svd_stack takes sigma and V of a tall stack, N_p >= 17 N_a // 9,
    from the SVD of its R factor, with the bits of one plain SVD of each
    matrix."""

    F = np.array([0.7, 4.0, 40.0, 120.0, 1e6])

    # each side of the threshold (7, 30 and 120), a wide stack, N_a = 1
    @pytest.mark.parametrize("n_a, n_p", [
        (4, 6), (4, 7), (4, 8), (16, 29), (16, 30), (16, 31), (64, 119),
        (64, 120), (16, 8), (1, 1), (1, 8), (1, 128)])
    @pytest.mark.parametrize("feed, tilted", [("center", False),
                                              ("end", False),
                                              ("end", True)])
    def test_bits_match_plain_svd(self, n_a, n_p, feed, tilted):
        z = _layout(n_a, n_p, self.F, feed, tilted)[2][..., 1]
        f = self.F[(z > 0).all(axis=1)]
        assert_plain_svd_bits(_T_stack(*_layout(n_a, n_p, f, feed, tilted),
                                       f))

    @pytest.mark.parametrize("f", [1e-140, 1e140])
    def test_bits_match_plain_svd_where_lapack_scales(self, f):
        # the largest entry leaves zgesdd's unscaled range, where R's SVD
        # would not give its bits: the stack is analyzed whole
        f = np.array([8.0, f])
        assert_plain_svd_bits(_T_stack(*_layout(4, 64, f, "center", False),
                                       f))

    @pytest.mark.parametrize("n_a, n_p, qr_calls", [
        (4, 6, 0), (4, 7, 1), (16, 29, 0), (16, 30, 1), (16, 8, 0)])
    def test_r_factor_only_for_tall_stacks(self, n_a, n_p, qr_calls,
                                           monkeypatch):
        calls = []

        def spy(M, mode):
            calls.append(mode)
            return qr(M, mode=mode)
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", spy)
        f = np.array([4.0, 40.0])
        _svd_stack(_T_stack(*_layout(n_a, n_p, f, "center", False), f))
        assert calls == ["r"] * qr_calls


class TestPowerTransfer:
    def test_pem_equals_sigma1_table_row_1(self):
        _, T, m = modes_for(4, 8, 4)
        p = np.linalg.norm(T.apply(feeder_beam(m, "pem").weights)) ** 2
        assert 10 * np.log10(p) == pytest.approx(-7.32, abs=0.05)

    def test_mode_2_gives_sigma2_squared(self):
        _, T, m = modes_for(4, 16, 16)
        b = BeamVector(m.right_vectors[:, 1])
        p = np.linalg.norm(T.apply(b.weights)) ** 2
        assert p == pytest.approx(m.sigma[1]**2, rel=1e-10)

    def test_nonpem_below_pem_at_end_feed(self):
        _, T, m = modes_for(4, 128, 110, feed="end", tilted=True)
        b = feeder_beam(m, "nonpem")
        p_nonpem = np.linalg.norm(T.apply(b.weights)) ** 2
        assert p_nonpem <= m.sigma[0]**2
        # frozen regression values for this artifact
        assert 10 * np.log10(p_nonpem) == pytest.approx(-22.9258, abs=1e-3)
        assert 10 * np.log10(m.sigma[0]**2) == pytest.approx(-22.4268,
                                                             abs=1e-3)

    def test_dimension_mismatch(self):
        _, T, _ = modes_for(4, 8, 8)
        with pytest.raises(ValueError, match="beam length 2 != feeder size 4"):
            T.apply(BeamVector(np.array([1.0, 0.0])).weights)

    def test_variational_bound_random_vectors(self):
        _, T, m = modes_for(4, 16, 16)
        rng = np.random.default_rng(11)
        bound = m.sigma[0]**2 * (1 + 1e-10)
        for _ in range(1000):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = BeamVector(w / np.linalg.norm(w))
            assert np.linalg.norm(T.apply(b.weights)) ** 2 <= bound


class TestNonpemVector:
    """The non-PEM rule of _beam_for: element magnitudes of v_1."""

    def test_real_positive_unchanged(self):
        v = np.array([0.6, 0.8], dtype=complex)
        assert np.allclose(_beam_for(v, "nonpem"), [0.6, 0.8])

    def test_unit_magnitude_phases_stripped(self):
        v = np.array([1.0, np.exp(1j * np.pi / 3)]) / np.sqrt(2)
        out = _beam_for(v, "nonpem")
        assert not np.iscomplexobj(out)
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = BeamVector(w / np.linalg.norm(w)).weights
            assert np.linalg.norm(_beam_for(v, "nonpem")) == \
                pytest.approx(1.0, abs=1e-12)

    def test_beam_vector_must_be_unit(self):
        with pytest.raises(ValueError):
            BeamVector(np.array([1.0, 1.0]))


class TestScalarHelpers:
    @pytest.mark.parametrize("f,expected", [(4, -28.0), (8, -34.03),
                                            (16, -40.05), (32, -46.07)])
    def test_isotropic_loss(self, f, expected):
        assert isotropic_loss_db(f) == pytest.approx(expected, abs=0.01)

    def test_isotropic_loss_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            isotropic_loss_db(0)

    @pytest.mark.parametrize("f", [1.0, 120.0, 1e150])
    def test_isotropic_loss_numpy_float_keeps_bits(self, f):
        got = isotropic_loss_db(np.float64(f))
        assert got == isotropic_loss_db(f)
        # the value a numpy float gave when squared in numpy
        assert got == -10.0 * np.log10((2.0 * np.pi * np.float64(f)) ** 2)

    def test_isotropic_loss_overflow_names_numpy_float(self):
        with pytest.raises(ValueError,
                           match="isotropic loss overflows at f=3e\\+153"):
            isotropic_loss_db(np.float64(3e153))


class TestModeMetrics:
    def test_table_row_3_sum(self):
        sc, _, m = modes_for(4, 8, 40)
        mm = mode_metrics(m.sigma[None], [sc.f], sc.n_p)[0]
        assert mm.sum_db == pytest.approx(-20.97, abs=0.05)
        # printed table condition number is inconsistent with the row's
        # own sigma values; the consistent value is asserted here
        assert mm.cond == pytest.approx(
            10 ** ((mm.sigma_sq_db[0] - mm.sigma_sq_db[3]) / 20), rel=1e-12)
        assert mm.cond == pytest.approx(2113.19, rel=1e-3)

    def test_table_row_12(self):
        sc, _, m = modes_for(4, 32, 16)
        mm = mode_metrics(m.sigma[None], [sc.f], sc.n_p)[0]
        assert mm.sigma_sq_db[0] == pytest.approx(-13.25, abs=0.05)
        assert mm.sigma_sq_db[3] == pytest.approx(-24.33, abs=0.05)
        assert mm.cond == pytest.approx(3.58, rel=0.005)
        assert mm.f_over_d == pytest.approx(0.5)

    def test_cond_identity(self):
        sc, _, m = modes_for(4, 16, 40)
        mm = mode_metrics(m.sigma[None], [sc.f], sc.n_p)[0]
        assert mm.cond == pytest.approx(
            10 ** ((mm.sigma_sq_db[0] - mm.sigma_sq_db[-1]) / 20), rel=1e-12)

    def test_sum_at_least_sigma1(self):
        sc, _, m = modes_for(4, 8, 80)
        mm = mode_metrics(m.sigma[None], [sc.f], sc.n_p)[0]
        assert mm.sum_db >= mm.sigma_sq_db[0]


class TestStructuralProperties:
    def test_center_feed_palindromic_vectors(self):
        _, _, m = modes_for(4, 16, 8)
        v1 = np.abs(m.right_vectors[:, 0])
        u1 = np.abs(m.left_vectors[:, 0])
        assert np.allclose(v1, v1[::-1], atol=1e-9)
        assert np.allclose(u1, u1[::-1], atol=1e-9)

    def test_scale_covariance(self):
        from risfeed.coupling import PropagationMatrix
        # asymmetric scenario: no magnitude ties in the singular vectors
        sc = make_end_feed(4, 16, 16, tilted=True)
        T = build_T(sc)
        m = svd_modes(T)
        scaled = PropagationMatrix(entries=3.5 * T.entries)
        ms = svd_modes(scaled)
        assert np.allclose(ms.sigma, 3.5 * m.sigma, rtol=1e-12)
        assert np.allclose(ms.right_vectors, m.right_vectors, atol=1e-10)
        mm_s, mm = mode_metrics(np.array([ms.sigma, m.sigma]), [sc.f] * 2,
                                sc.n_p)
        assert mm_s.cond == pytest.approx(mm.cond, rel=1e-12)

    def test_sigma1_decreasing_in_f_on_table_grid(self):
        for n_p, f_list in [(8, [4, 8, 40, 80, 120]),
                            (16, [8, 16, 40, 80, 120]),
                            (32, [8, 16, 32, 40, 80, 120])]:
            s1 = []
            for f in f_list:
                _, _, m = modes_for(4, n_p, f)
                s1.append(m.sigma[0])
            assert np.all(np.diff(s1) < 0)

    def test_degenerate_sigma_subspace_projector(self):
        # a matrix with a repeated singular value: compare projectors,
        # not raw vectors
        A = np.diag([2.0, 1.0, 1.0]).astype(complex)
        from risfeed.coupling import PropagationMatrix
        m = svd_modes(PropagationMatrix(entries=A))
        V = m.right_vectors[:, 1:]
        proj = V @ V.conj().T
        expected = np.diag([0.0, 1.0, 1.0])
        assert np.allclose(proj, expected, atol=1e-10)


class TestModeReport:
    def test_report_round_trips(self):
        sc, _, m = modes_for(4, 8, 8)
        (mm,) = mode_metrics(m.sigma[None], [sc.f], sc.n_p)
        rep = mode_report(m, mm, sc)
        assert rep["scenario"]["n_p"] == 8
        assert len(rep["sigma_sq_db"]) == 4
        v1 = np.array(rep["v1_re"]) + 1j * np.array(rep["v1_im"])
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
