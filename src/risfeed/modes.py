"""Eigenmode analysis of the propagation matrix.

The SVD is one LAPACK call on T itself, which avoids squaring the
condition number as an eigensolve of the Gram matrix T^H T would.
Global phase of each right vector is fixed so its largest-magnitude
entry is real and positive (lowest index on ties), which makes every
downstream file reproducible bit for bit; its left vector, the U column
of the same call, takes the same phase.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Scenario
from .coupling import PropagationMatrix


@dataclass(frozen=True)
class BeamVector:
    """Unit-norm feeder excitation."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        object.__setattr__(self, "weights", w)
        if abs(np.linalg.norm(w) - 1.0) > 1e-12:
            raise ValueError("beam vector must be unit norm")


@dataclass(frozen=True)
class ModeAnalysis:
    """Full SVD of the propagation matrix.

    sigma:         (N_a,) singular values, descending.
    right_vectors: (N_a, N_a), column i is v_i.
    left_vectors:  (N_p, N_a), column i is u_i = T v_i / sigma_i
                   (orthonormal; zero where sigma_i = 0).
    """

    sigma: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def beam(self, i=0) -> BeamVector:
        """The i-th eigenmode as a feeder excitation (0 = principal)."""
        return BeamVector(self.right_vectors[:, i].copy())


@dataclass(frozen=True)
class ModeMetrics:
    """Scalar summary of one mode analysis."""

    sigma_sq_db: tuple
    sum_db: float
    cond: float
    l_iso_db: float
    f_over_d: float


def _fix_phase(v):
    """v rotated so its largest entry is real positive, and the factor."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    factor = pivot.conjugate() / abs(pivot) if pivot != 0 else 1.0
    v = v * factor
    v[k] = abs(v[k])    # force exactly real positive
    return v, factor


def svd_modes(T: PropagationMatrix) -> ModeAnalysis:
    """Singular values and vectors of T from one LAPACK SVD."""
    M = T.entries
    if M.size == 0:
        raise ValueError("empty propagation matrix")
    n_p, n_a = M.shape
    # zero rows keep V^H at N_a x N_a when the surface is the smaller
    # array, without the N_p x N_p U that full_matrices=True would build
    padded = np.vstack([M, np.zeros((n_a - n_p, n_a))]) if n_p < n_a else M
    U, sigma, Vh = np.linalg.svd(padded, full_matrices=False)
    right = np.empty((n_a, n_a), dtype=complex)
    left = np.zeros((n_p, n_a), dtype=complex)
    for i in range(n_a):
        right[:, i], factor = _fix_phase(Vh[i].conj())
        if sigma[i] > 0:
            left[:, i] = U[:n_p, i] * factor
    return ModeAnalysis(sigma=sigma, right_vectors=right, left_vectors=left)


def power_transfer(T: PropagationMatrix, b: BeamVector) -> float:
    """Power delivered to the surface by a unit-power feeder excitation."""
    return float(np.linalg.norm(T.apply(b.weights)) ** 2)


def nonpem_vector(v1: BeamVector) -> BeamVector:
    """Element-wise magnitudes of a beam: phases removed, norm preserved."""
    return BeamVector(np.abs(v1.weights).astype(complex))


def isotropic_loss_db(f) -> float:
    """Free-space spreading loss between isotropic points at distance f."""
    if f <= 0:
        raise ValueError("f must be positive")
    return -10.0 * np.log10((2.0 * np.pi * f) ** 2)


def mode_metrics(modes: ModeAnalysis, scenario: Scenario) -> ModeMetrics:
    """dB powers, their sum, condition number, and geometry ratios."""
    sig_sq = modes.sigma ** 2
    with np.errstate(divide="ignore"):
        sig_db = tuple(10.0 * np.log10(sig_sq))
    sum_db = 10.0 * np.log10(sig_sq.sum())
    smallest = modes.sigma[-1]
    cond = float(modes.sigma[0] / smallest) if smallest > 0 else float("inf")
    return ModeMetrics(sigma_sq_db=sig_db,
                       sum_db=float(sum_db),
                       cond=cond,
                       l_iso_db=isotropic_loss_db(scenario.f),
                       f_over_d=scenario.f_over_d)


def _finite_or_none(x):
    return x if math.isfinite(x) else None


def mode_report(modes: ModeAnalysis, metrics: ModeMetrics,
                scenario: Scenario) -> dict:
    """JSON-ready report of one scenario's mode analysis; an undefined
    value (the dB of a zero sigma, the cond of a rank-deficient T) is
    None, so the file is strict JSON."""
    v1 = modes.right_vectors[:, 0]
    return {
        "scenario": {
            "n_a": scenario.n_a,
            "n_p": scenario.n_p,
            "f": scenario.f,
            "feed": scenario.feed_style,
            "tilted": scenario.tilted,
        },
        "sigma_sq_db": [_finite_or_none(x) for x in metrics.sigma_sq_db],
        "sum_db": metrics.sum_db,
        "cond": _finite_or_none(metrics.cond),
        "l_iso_db": metrics.l_iso_db,
        "f_over_d": metrics.f_over_d,
        "v1_re": v1.real.tolist(),
        "v1_im": v1.imag.tolist(),
    }


def write_mode_report(report: dict, path):
    text = json.dumps(report, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
