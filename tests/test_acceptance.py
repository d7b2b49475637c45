"""Acceptance suite: one test per published-value criterion, each printing
a single PASS/FAIL line. Sub-checks are collected so a failing criterion
reports every offending quantity at once."""

import numpy as np
import pytest

from risfeed.geometry import _layout, make_center_feed, make_end_feed
from risfeed.coupling import PropagationMatrix, _T_stack, build_T
from risfeed.modes import BeamVector, svd_modes, isotropic_loss_db
from risfeed.patterns import (amaf_pattern, ris_pattern, sidelobe_level,
                              default_grid)
from risfeed.sweep import analyze_point, run_grid

from oracles import brute_force_sidelobe, feeder_beam, one_sided_jacobi_svd

REFERENCE_TABLE = [
    # sl, n_p, f, sigma1..4 (dB), sum (dB), cond
    (1, 8, 4, (-7.32, -8.28, -10.91, -18.31), -3.67, 3.54),
    (2, 8, 8, (-10.34, -12.53, -19.73, -34.98), -7.98, 15.92),
    (3, 8, 40, (-21.14, -35.13, -58.03, -87.63), -20.97, 236.27),
    (4, 8, 80, (-26.99, -46.95, -76.0, -111.64), -26.99, 17079.0),
    (5, 8, 120, (-30.48, -53.96, -86.55, -125.71), -30.46, 57756.0),
    (6, 16, 8, (-10.26, -11.21, -13.78, -21.32), -6.59, 3.57),
    (7, 16, 16, (-13.31, -15.42, -22.48, -36.96), -10.90, 15.22),
    (8, 16, 40, (-18.71, -26.84, -43.1, -66.18), -18.07, 236.27),
    (9, 16, 80, (-24.14, -38.08, -60.77, -89.9), -23.98, 1940.1),
    (10, 16, 120, (-27.54, -44.98, -71.27, -103.92), -27.45, 6587.2),
    (11, 32, 8, (-10.25, -11.17, -13.08, -17.69), -6.25, 2.36),
    (12, 32, 16, (-13.25, -14.2, -16.76, -24.33), -9.58, 3.58),
    (13, 32, 32, (-16.31, -18.4, -25.43, -39.87), -13.89, 15.07),
    (14, 32, 40, (-17.4, -20.57, -29.8, -46.48), -15.53, 28.42),
    (15, 32, 80, (-21.72, -29.83, -46.05, -69.03), -21.08, 231.98),
    (16, 32, 120, (-24.81, -36.29, -56.32, -82.83), -24.56, 796.34),
]
SMALL_COND_ROWS = {1, 2, 3, 6, 7, 8, 11, 12, 13, 14}
TABLE_DB_TOL = 0.05


def table_cond_tol(sl):
    """Relative tolerance on a row's condition number."""
    return 0.005 if sl in SMALL_COND_ROWS else 0.01


# Two published cells contradict the other cells of their own row. The 14
# other rows satisfy cond = 10^((sigma1^2 - sigma4^2)/20) to within 0.21%;
# these two are off by 7% and 793%. REFERENCE_TABLE keeps the published
# value, and criterion 1 checks the cell against the value derived here from
# the same row's published cells.
ERRATA = [
    # (row, cell, published, derivation from (sigmas, cond), reason)
    (2, "sigma4", -34.98, lambda s, cond: s[0] - 20 * np.log10(cond),
     "sigma1^2 is not the misprint: sigma4^2 + 20 log10(cond) = -10.94 "
     "would make the row sum -8.32, not the published -7.98"),
    (3, "cond", 236.27, lambda s, cond: 10 ** ((s[0] - s[3]) / 20),
     "236.27 is row 8's cond, and cond grows about as f^3 along rows 1-5 "
     "(x8.1 from row 3 to row 4 at 2x f), not x72"),
]

# Checks that fail against published values, kept visible at their stated
# tolerances because nothing in the repository shows whether the model or
# the published value is at fault.
KNOWN_FAILURES = [
    {"criterion": 2, "quantity": "(2,2,8) sigma1^2", "published": -16.51,
     "computed": -16.1056,
     "alternatives": "spacing 1.5: sigma1^2 -16.40, sigma2^2 -29.39; "
                     "spacing 2: -17.01, -24.76",
     "reason": "published sigma1^2 -16.51 with sum -16.06 implies sigma2^2 "
               "-26.1 dB; the model at lambda/2 spacing gives -36.21, and no "
               "stated spacing reproduces the pair"},
    {"criterion": 5, "quantity": "(32,16) sigma1^2", "published": -13.9,
     "computed": -14.4484,
     "alternatives": "untilted end feed: sigma1^2 -14.044, sum -12.049",
     "reason": "the untilted feed meets this anchor but gives (128,80) end "
               "cond 20.47 against ~15; no one feed convention meets every "
               "criterion-5 anchor"},
]


def finish(name, failures):
    notes = []
    for failure in failures:
        for known in KNOWN_FAILURES:
            if failure.startswith(known["quantity"] + " "):
                notes.append(f"{failure} [known failure: {known['reason']}]")
                break
        else:
            notes.append(failure)
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] {name}" + ("" if not failures
                                  else ": " + "; ".join(notes)))
    assert not failures, f"{name}: " + "; ".join(notes)


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def corrected_table(failures):
    """REFERENCE_TABLE with each erratum replaced by its derived value.

    An erratum whose published value no longer matches the table, or which
    would pass its own check against the derived value, is reported as a
    failure: the record must never hide a miss the table does not contain.
    """
    rows = [list(row) for row in REFERENCE_TABLE]
    for sl, cell, published, derive, reason in ERRATA:
        row = rows[sl - 1]
        sigmas, cond = row[3], row[5]
        derived = derive(sigmas, cond)
        if cell == "cond":
            table_value = cond
            consistent = (abs(published - derived) / derived
                          <= table_cond_tol(sl))
            row[5] = derived
        else:
            i = int(cell[-1]) - 1
            table_value = sigmas[i]
            consistent = abs(published - derived) <= TABLE_DB_TOL
            row[3] = sigmas[:i] + (derived,) + sigmas[i + 1:]
        check(failures, table_value == published,
              f"erratum row {sl} {cell}: table holds {table_value}, "
              f"record holds {published}")
        check(failures, not consistent,
              f"erratum row {sl} {cell}: published {published} agrees with "
              f"its row ({derived:.6g})")
        print(f"NOTE row {sl} {cell}: published {published}, checked "
              f"against {derived:.6g} derived from its row ({reason})")
    return [tuple(row) for row in rows]


def test_criterion_1_table_reproduction():
    failures = []
    for sl, n_p, f, sigmas, total, cond in corrected_table(failures):
        _, _, _, mm = analyze_point(4, n_p, f, "center")
        for i, expected in enumerate(sigmas):
            got = mm.sigma_sq_db[i]
            check(failures, abs(got - expected) <= TABLE_DB_TOL,
                  f"row {sl} sigma{i + 1}^2 {got:.3f} vs {expected:.6g}")
        check(failures, abs(mm.sum_db - total) <= TABLE_DB_TOL,
              f"row {sl} sum {mm.sum_db:.3f} vs {total}")
        check(failures, abs(mm.cond - cond) / cond <= table_cond_tol(sl),
              f"row {sl} cond {mm.cond:.2f} vs {cond:.6g}")
    finish("criterion 1: reference table reproduction (16 rows)", failures)


def test_criterion_2_small_array_anchors():
    failures = []
    _, _, _, m1 = analyze_point(1, 1, 8, "center")
    closed_form = 10 * np.log10(1 / (16 * np.pi**2))
    check(failures, abs(m1.sigma_sq_db[0] + 21.99) <= 0.01,
          f"(1,1,8) sigma1^2 {m1.sigma_sq_db[0]:.4f} vs -21.99")
    check(failures, abs(m1.sigma_sq_db[0] - closed_form) <= 1e-9,
          "(1,1,8) closed form mismatch")
    _, _, _, m2 = analyze_point(2, 2, 8, "center")
    check(failures, abs(m2.sigma_sq_db[0] + 16.51) <= 0.05,
          f"(2,2,8) sigma1^2 {m2.sigma_sq_db[0]:.4f} vs -16.51")
    check(failures, abs(m2.sum_db + 16.06) <= 0.05,
          f"(2,2,8) sum {m2.sum_db:.4f} vs -16.06")
    _, _, _, m4 = analyze_point(4, 4, 8, "center")
    check(failures, abs(m4.sigma_sq_db[0] + 11.26) <= 0.05,
          f"(4,4,8) sigma1^2 {m4.sigma_sq_db[0]:.4f} vs -11.26")
    check(failures, abs(m4.sigma_sq_db[1] + 17.96) <= 0.05,
          f"(4,4,8) sigma2^2 {m4.sigma_sq_db[1]:.4f} vs -17.96")
    check(failures, abs(m4.sum_db + 10.40) <= 0.05,
          f"(4,4,8) sum {m4.sum_db:.4f} vs -10.40")
    finish("criterion 2: single/double-element anchors", failures)


def test_criterion_3_isotropic_loss():
    failures = []
    for f, expected in [(4, -28.0), (8, -34.03), (16, -40.05), (32, -46.07)]:
        got = isotropic_loss_db(f)
        check(failures, abs(got - expected) <= 0.01,
              f"f={f}: {got:.4f} vs {expected}")
    finish("criterion 3: isotropic loss values", failures)


def test_criterion_4_convergence_with_surface_size():
    failures = []
    expected = {16: -6.6, 32: -6.3, 64: -6.22, 128: -6.22}
    for rec in run_grid(4, list(expected), [8.0], "center"):
        sum_db = rec.metrics.sum_db
        check(failures, abs(sum_db - expected[rec.n_p]) <= 0.05,
              f"N_p={rec.n_p}: {sum_db:.4f} vs {expected[rec.n_p]}")
    finish("criterion 4: convergence study", failures)


def test_criterion_5_end_feed_comparisons():
    failures = []
    _, _, _, m = analyze_point(4, 32, 16, "end", tilted=True)
    check(failures, abs(m.sigma_sq_db[0] + 13.9) <= 0.2,
          f"(32,16) sigma1^2 {m.sigma_sq_db[0]:.4f} vs -13.9")
    check(failures, abs(m.sum_db + 11.9) <= 0.2,
          f"(32,16) sum {m.sum_db:.4f} vs -11.9")
    _, _, _, m_end = analyze_point(4, 128, 80, "end", tilted=True)
    _, _, _, m_ctr = analyze_point(4, 128, 80, "center")
    check(failures, abs(m_end.sigma_sq_db[0] + 21.1) <= 0.2,
          f"(128,80) end sigma1^2 {m_end.sigma_sq_db[0]:.4f} vs -21.1")
    check(failures, abs(m_ctr.sigma_sq_db[0] + 20.2) <= 0.2,
          f"(128,80) center sigma1^2 {m_ctr.sigma_sq_db[0]:.4f} vs -20.2")
    check(failures, abs(m_end.cond - 15) / 15 <= 0.2,
          f"(128,80) end cond {m_end.cond:.2f} vs ~15")
    check(failures, abs(m_ctr.cond - 5) / 5 <= 0.2,
          f"(128,80) center cond {m_ctr.cond:.2f} vs ~5")
    _, _, _, m110 = analyze_point(4, 128, 110, "end", tilted=True)
    check(failures, abs(m110.sigma_sq_db[0] + 22.6) <= 0.2,
          f"(128,110) sigma1^2 {m110.sigma_sq_db[0]:.4f} vs -22.6")
    finish("criterion 5: end-feed comparisons", failures)


def test_criterion_6_pattern_anchors():
    failures = []
    sc = make_end_feed(4, 128, 110, tilted=False)
    modes = svd_modes(build_T(sc))
    b = feeder_beam(modes, "nonpem")
    curve = amaf_pattern(b)
    af_db = 10 * np.log10(abs(np.sum(b.weights.real)) ** 2)
    check(failures, abs(curve.power_dbi.max() - 11.95) <= 0.05,
          f"non-PEM peak {curve.power_dbi.max():.4f} vs 11.95")
    check(failures, abs(af_db - 5.93) <= 0.05,
          f"array factor {af_db:.4f} vs 5.93")
    check(failures, abs(10 * np.log10(4) - 6.02) <= 0.05,
          "element factor vs 6.02")
    flat = amaf_pattern(feeder_beam(modes, "pem"))
    pem_flat = flat.angles_deg[flat.power_dbi.argmax()]
    sc_tilt = make_end_feed(4, 128, 110, tilted=True)
    tilt = amaf_pattern(feeder_beam(svd_modes(build_T(sc_tilt)), "pem"))
    pem_tilt = tilt.angles_deg[tilt.power_dbi.argmax()]
    # surface center lies on the positive-angle side of the feeder axis
    check(failures, pem_flat > 0,
          f"untilted PEM peak {pem_flat:.2f} not toward surface center")
    check(failures, pem_tilt < 0,
          f"tilted PEM peak {pem_tilt:.2f} not on opposite side")
    finish("criterion 6: pattern anchors", failures)


def test_criterion_7_property_suite():
    failures = []
    sc = make_center_feed(4, 32, 16)
    T = build_T(sc)
    m = svd_modes(T)

    frob = abs(np.sum(m.sigma**2) - np.linalg.norm(T.entries)**2)
    check(failures, frob <= 1e-12 * np.linalg.norm(T.entries)**2,
          "Frobenius identity")
    gram = m.right_vectors.conj().T @ m.right_vectors
    check(failures, np.max(np.abs(gram - np.eye(4))) < 1e-10,
          "right-vector orthonormality")
    approx = sum(m.sigma[i] * np.outer(m.left_vectors[:, i],
                                       m.right_vectors[:, i].conj())
                 for i in range(4))
    rec = np.linalg.norm(T.entries - approx) / np.linalg.norm(T.entries)
    check(failures, rec < 1e-10, "SVD reconstruction")

    rng = np.random.default_rng(17)
    bound = m.sigma[0]**2 * (1 + 1e-10)
    ok = True
    for _ in range(1000):
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = BeamVector(w / np.linalg.norm(w))
        ok &= np.linalg.norm(T.apply(b.weights)) ** 2 <= bound
    check(failures, ok, "variational bound (1000 random vectors)")

    check(failures, np.array_equal(T.entries, T.entries[::-1, ::-1]),
          "center-feed mirror symmetry of T")
    v1 = np.abs(m.right_vectors[:, 0])
    check(failures, np.allclose(v1, v1[::-1], atol=1e-9), "palindromic |v1|")

    # the feeder as the surface and the surface as the feeder
    surface, up, feeders, down = _layout(4, 32, np.array([16.0]), "center",
                                         False)
    swapped = _T_stack(feeders[0], down[0], surface[None], up[None], [16.0])
    s_swap = svd_modes(PropagationMatrix(swapped[0])).sigma[:4]
    check(failures, np.allclose(m.sigma, s_swap, rtol=1e-12),
          "reciprocity under array-role swap")

    worst = 0.0
    for _ in range(100):
        n_a = int(rng.integers(1, 5))
        n_p = int(rng.integers(max(n_a, 4), 33))
        f = float(rng.uniform(0.25, 1.5)) * n_p
        feed = rng.choice(["center", "end"])
        tilted = bool(rng.integers(0, 2)) and feed == "end"
        sc_r = (make_center_feed(n_a, n_p, f) if feed == "center"
                else make_end_feed(n_a, n_p, f, tilted))
        T_r = build_T(sc_r)
        sig = svd_modes(T_r).sigma
        _, sig_oracle, _ = one_sided_jacobi_svd(T_r.entries)
        worst = max(worst, float(np.max(np.abs(sig - sig_oracle)
                                        / sig_oracle)))
    check(failures, worst < 1e-9,
          f"LAPACK SVD vs one-sided oracle ({worst:.2e})")
    finish("criterion 7: property suite", failures)


def test_criterion_8_sidelobe_behavior():
    failures = []
    uniform = BeamVector(np.ones(128, dtype=complex) / np.sqrt(128))
    curve = amaf_pattern(uniform)
    sll = sidelobe_level(curve.power_norm_db)
    ref = brute_force_sidelobe(curve.angles_deg, curve.power_dbi)
    check(failures, abs(sll - (-13.26)) <= 0.1,
          f"uniform-aperture sidelobe {sll:.3f} vs -13.26")
    check(failures, abs(sll - ref) <= 1e-9, "scan oracle disagreement")

    grid = default_grid(0.05)
    sc = make_center_feed(4, 128, 80)
    T = build_T(sc)
    center_sll = sidelobe_level(
        ris_pattern(T, feeder_beam(svd_modes(T), "pem"), grid).power_norm_db)
    for f in range(80, 141, 10):
        sc_e = make_end_feed(4, 128, float(f), tilted=True)
        T_e = build_T(sc_e)
        m_e = svd_modes(T_e)
        for label, beam in (("pem", feeder_beam(m_e, "pem")),
                            ("nonpem", feeder_beam(m_e, "nonpem"))):
            end_sll = sidelobe_level(
                ris_pattern(T_e, beam, grid).power_norm_db)
            check(failures, center_sll < end_sll,
                  f"end f={f} {label} sidelobe {end_sll:.2f} not above "
                  f"center {center_sll:.2f}")
    finish("criterion 8: sidelobe behavior", failures)


F_OVER_D = (0.05, 0.1, 0.2, 0.5, 1, 2, 5, 20)


def friis_excess_db(n_a, n_p, feed, tilted, f_over_d):
    """Delta = sigma_1^2 - l_iso(f) - 10 log10(16 N_a N_p) dB at each f/D:
    the principal mode's power over its far-field Friis value."""
    records = run_grid(n_a, [n_p], [q * n_p for q in f_over_d], feed, tilted)
    return np.array([rec.metrics.sigma_sq_db[0] - rec.metrics.l_iso_db
                     for rec in records]) - 10 * np.log10(16 * n_a * n_p)


def center_feed_law_db(f_over_d):
    """The N_p -> infinity limit of a one-element center feed's Delta:
    10 log10(2 (f/D) F(D/2f)), F(a) = a/(4(1+a^2)^2) + 3a/(8(1+a^2))
    + (3/8) arctan(a)."""
    q = np.asarray(f_over_d, dtype=float)
    a = 1 / (2 * q)
    F = (a / (4 * (1 + a * a) ** 2) + 3 * a / (8 * (1 + a * a))
         + 3 / 8 * np.arctan(a))
    return 10 * np.log10(2 * q * F)


def test_criterion_9_abstract_claims():
    """The abstract's claims: the power transfer departs from the
    inverse-square law at f/D < 1 (the aperture taper), depends more on
    f/D than on the surface size, and is larger with the center feed.

    (a) At N_a = 1, sigma_1^2 is an exact sum over the surface that needs
        neither T nor an SVD: tests/test_coupling.py::TestSingleFeederOracle.
    (b) At N_a = 1 the center feed's Delta is a law of f/D alone,
        center_feed_law_db: 0 (Friis) as f/D grows, 10 dB per decade below
        f/D ~ 1. Its error is 1.68e-2 dB at N_p 32, so the check covers
        N_p >= 128.
    (c) At N_a = 4 the center feed's Delta is below 0 and rises with f/D;
        at f/D >= 0.2 its spread over N_p 32..1024 stays within the
        table's tolerance; and on N_p 32..512 x f/D 0.1..1 its sigma_1^2
        beats the flat and the tilted end feeds'. The grid starts at
        f/D 0.1 because at f/D 0.05, N_p 32 (f = 1.6) the tilted end feed
        beats the center feed by 8.30 dB.

    Every other bound is the measured envelope.
    """
    failures = []
    # measured: at most 3.36e-5 dB at N_p 128 and 5.25e-7 dB at 1024
    for n_p, bound in ((128, 3.4e-5), (1024, 5.3e-7)):
        err = np.abs(friis_excess_db(1, n_p, "center", False, F_OVER_D)
                     - center_feed_law_db(F_OVER_D)).max()
        check(failures, err <= bound,
              f"N_a=1 N_p={n_p} Delta off the f/D law by {err:.3g} dB")
    sizes = (32, 64, 128, 256, 512, 1024)
    center = {n_p: friis_excess_db(4, n_p, "center", False, F_OVER_D)
              for n_p in sizes}
    for n_p, delta in center.items():
        check(failures, delta.max() < 0 and np.all(np.diff(delta) > 0),
              f"N_a=4 N_p={n_p} center Delta {np.round(delta, 3)} not "
              f"negative and rising with f/D")
    # measured: 0.034 dB at f/D 0.2, 0.129 dB at 0.1
    spread = np.ptp(list(center.values()), axis=0)
    for q, s in zip(F_OVER_D, spread):
        check(failures, q < 0.2 or s <= TABLE_DB_TOL,
              f"f/D={q} Delta spread {s:.3f} dB over N_p 32..1024")
    near = F_OVER_D[1:5]
    # measured minima: 0.3605 dB over the flat end feed, 0.6794 over the
    # tilted one, both at N_p 32
    for tilted, bound in ((False, 0.360), (True, 0.679)):
        margin = min(np.min(center[n_p][1:5]
                            - friis_excess_db(4, n_p, "end", tilted, near))
                     for n_p in sizes[:-1])
        check(failures, margin >= bound,
              f"center over {'tilted' if tilted else 'flat'} end feed by "
              f"{margin:.4f} dB, under {bound}")
    finish("criterion 9: abstract claims", failures)
