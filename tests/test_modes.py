import numpy as np
import pytest

from risfeed.geometry import make_center_feed, make_end_feed
from risfeed.coupling import build_T
from risfeed.modes import (BeamVector, svd_modes, power_transfer,
                           mode_metrics, nonpem_vector, isotropic_loss_db,
                           mode_report)

from oracles import one_sided_jacobi_svd


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
            assert np.isfinite(mode_metrics(m, sc).cond)

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

    # sigma down to 6e-12 sigma_1, and a wide T with exact zeros
    @pytest.mark.parametrize("n_a,n_p,f", [(16, 64, 120), (16, 8, 120)])
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


class TestPowerTransfer:
    def test_pem_equals_sigma1_table_row_1(self):
        _, T, m = modes_for(4, 8, 4)
        p = power_transfer(T, m.beam(0))
        assert 10 * np.log10(p) == pytest.approx(-7.32, abs=0.05)

    def test_mode_2_gives_sigma2_squared(self):
        _, T, m = modes_for(4, 16, 16)
        p = power_transfer(T, m.beam(1))
        assert p == pytest.approx(m.sigma[1]**2, rel=1e-10)

    def test_nonpem_below_pem_at_end_feed(self):
        _, T, m = modes_for(4, 128, 110, feed="end", tilted=True)
        p_nonpem = power_transfer(T, nonpem_vector(m.beam(0)))
        assert p_nonpem <= m.sigma[0]**2
        # frozen regression values for this artifact
        assert 10 * np.log10(p_nonpem) == pytest.approx(-22.9258, abs=1e-3)
        assert 10 * np.log10(m.sigma[0]**2) == pytest.approx(-22.4268,
                                                             abs=1e-3)

    def test_dimension_mismatch(self):
        _, T, _ = modes_for(4, 8, 8)
        with pytest.raises(ValueError, match="beam length 2 != feeder size 4"):
            power_transfer(T, BeamVector(np.array([1.0, 0.0])))

    def test_variational_bound_random_vectors(self):
        _, T, m = modes_for(4, 16, 16)
        rng = np.random.default_rng(11)
        bound = m.sigma[0]**2 * (1 + 1e-10)
        for _ in range(1000):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = BeamVector(w / np.linalg.norm(w))
            assert power_transfer(T, b) <= bound


class TestNonpemVector:
    def test_real_positive_unchanged(self):
        v = BeamVector(np.array([0.6, 0.8], dtype=complex))
        assert np.allclose(nonpem_vector(v).weights, [0.6, 0.8])

    def test_unit_magnitude_phases_stripped(self):
        v = BeamVector(np.array([1.0, np.exp(1j * np.pi / 3)]) / np.sqrt(2))
        out = nonpem_vector(v)
        assert np.allclose(out.weights, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = BeamVector(w / np.linalg.norm(w))
            assert np.linalg.norm(nonpem_vector(v).weights) == \
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


class TestModeMetrics:
    def test_table_row_3_sum(self):
        sc, _, m = modes_for(4, 8, 40)
        mm = mode_metrics(m, sc)
        assert mm.sum_db == pytest.approx(-20.97, abs=0.05)
        # printed table condition number is inconsistent with the row's
        # own sigma values; the consistent value is asserted here
        assert mm.cond == pytest.approx(
            10 ** ((mm.sigma_sq_db[0] - mm.sigma_sq_db[3]) / 20), rel=1e-12)
        assert mm.cond == pytest.approx(2113.19, rel=1e-3)

    def test_table_row_12(self):
        sc, _, m = modes_for(4, 32, 16)
        mm = mode_metrics(m, sc)
        assert mm.sigma_sq_db[0] == pytest.approx(-13.25, abs=0.05)
        assert mm.sigma_sq_db[3] == pytest.approx(-24.33, abs=0.05)
        assert mm.cond == pytest.approx(3.58, rel=0.005)
        assert mm.f_over_d == pytest.approx(0.5)

    def test_cond_identity(self):
        sc, _, m = modes_for(4, 16, 40)
        mm = mode_metrics(m, sc)
        assert mm.cond == pytest.approx(
            10 ** ((mm.sigma_sq_db[0] - mm.sigma_sq_db[-1]) / 20), rel=1e-12)

    def test_sum_at_least_sigma1(self):
        sc, _, m = modes_for(4, 8, 80)
        mm = mode_metrics(m, sc)
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
        assert mode_metrics(ms, sc).cond == pytest.approx(
            mode_metrics(m, sc).cond, rel=1e-12)

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
        rep = mode_report(m, mode_metrics(m, sc), sc)
        assert rep["scenario"]["n_p"] == 8
        assert len(rep["sigma_sq_db"]) == 4
        v1 = np.array(rep["v1_re"]) + 1j * np.array(rep["v1_im"])
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
