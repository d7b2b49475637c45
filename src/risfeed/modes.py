"""Eigenmode analysis of the propagation matrix.

The SVD is one LAPACK call on T itself, which avoids squaring the
condition number as an eigensolve of the Gram matrix T^H T would.
Global phase of each right vector is fixed so its largest-magnitude
entry is real and positive (lowest index on ties), which makes every
downstream file reproducible bit for bit; its left vector, the U column
of the same call, takes the same phase.

A sweep analyzes a stack of matrices in one call, and each keeps the
bits of its own svd_modes. So the rule divides by the pivot's magnitude
from np.hypot of its parts, which rounds as Python's abs of one entry
does: np.abs over a complex array takes a SIMD path that may differ in
the last bit (0.5201632027331892 against ...891 for v_1 at center feed
(4, 2, 8)). The pivot is still found by np.abs of each column.
"""

from dataclasses import dataclass

import numpy as np

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
    f_over_d: float     # f over the surface size D = N_p lambda/2


def _fix_phase(Vh):
    """Right vectors from an (F, N_a, N_a) stack of V^H, and their
    (F, N_a) phase factors.

    Column i of each result is conj(Vh[f, i, :]) times factor[f, i],
    the unit factor that makes its largest-magnitude entry real
    positive (lowest index on ties).
    """
    V = Vh.conj().transpose(0, 2, 1)
    n_f, n_a = V.shape[:2]
    at = (np.arange(n_f)[:, None], np.argmax(np.abs(V), axis=1),
          np.arange(n_a))
    pivot = V[at]
    # a column of a unitary V has an entry of magnitude >= 1/sqrt(N_a)
    factor = pivot.conj() / np.hypot(pivot.real, pivot.imag)
    V = V * factor[:, None, :]
    pivot = V[at]
    V[at] = np.hypot(pivot.real, pivot.imag)
    return V, factor


def _svd_stack(M):
    """(sigma, right, U, factor) of each matrix of an (F, N_p, N_a) stack:
    sigma and right as ModeAnalysis holds them, shaped (F, N_a) and
    (F, N_a, N_a); LAPACK's U, (F, max(N_p, N_a), N_a); and the (F, N_a)
    phase factors _fix_phase put on the right vectors, which svd_modes
    puts on U's columns to form the left vectors."""
    n_f, n_p, n_a = M.shape
    # zero rows keep V^H at N_a x N_a when the surface is the smaller
    # array, without the N_p x N_p U that full_matrices=True would build
    if n_p < n_a:
        M = np.concatenate([M, np.zeros((n_f, n_a - n_p, n_a))], axis=1)
    U, sigma, Vh = np.linalg.svd(M, full_matrices=False)
    right, factor = _fix_phase(Vh)
    return sigma, right, U, factor


def svd_modes(T: PropagationMatrix) -> ModeAnalysis:
    """Singular values and vectors of T from one LAPACK SVD."""
    if T.entries.size == 0:
        raise ValueError("empty propagation matrix")
    sigma, right, U, factor = _svd_stack(T.entries[None])
    left = np.where(sigma[0] > 0, U[0, :T.entries.shape[0]] * factor[0], 0)
    return ModeAnalysis(sigma=sigma[0], right_vectors=right[0],
                        left_vectors=left)


def isotropic_loss_db(f) -> float:
    """Free-space spreading loss between isotropic points at distance f."""
    if f <= 0:
        raise ValueError("f must be positive")
    # a Python float's (2 pi f)^2 raises where numpy's gives inf and warns
    f = float(f)
    try:
        return -10.0 * np.log10((2.0 * np.pi * f) ** 2)
    except OverflowError:
        raise ValueError(f"isotropic loss overflows at f={f!r}") from None


def mode_metrics(sigma, f, n_p) -> ModeMetrics:
    """dB powers of the descending singular values sigma, their sum and
    condition number, and the geometry ratios at f over n_p elements."""
    sig_sq = sigma ** 2
    with np.errstate(divide="ignore"):
        sig_db = tuple(10.0 * np.log10(sig_sq))
    sum_db = 10.0 * np.log10(sig_sq.sum())
    smallest = sigma[-1]
    cond = float(sigma[0] / smallest) if smallest > 0 else float("inf")
    return ModeMetrics(sigma_sq_db=sig_db,
                       sum_db=float(sum_db),
                       cond=cond,
                       l_iso_db=isotropic_loss_db(f),
                       f_over_d=f / n_p)
