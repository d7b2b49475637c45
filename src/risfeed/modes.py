"""Eigenmode analysis of the propagation matrix.

The SVD is one LAPACK call on T itself, or, for a stack of tall T, on
the R factor of each T = QR, the one zgesdd would form. Neither squares
the condition number as an eigensolve of the Gram matrix T^H T would.
Global phase of each right vector read is fixed so its largest-magnitude
entry is real and positive (lowest index on ties), which makes every
downstream file reproducible bit for bit; a table reads sigma only.
Only svd_modes forms left vectors: its U columns take the same phase.

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

# zgesdd scales a matrix whose largest entry magnitude lies outside
# [_SMALL, _BIG] before it factors it
_SMALL = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_BIG = 1.0 / _SMALL


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


@dataclass(frozen=True)
class ModeMetrics:
    """Scalar summary of one mode analysis."""

    sigma_sq_db: tuple
    sum_db: float
    cond: float
    l_iso_db: float
    f_over_d: float     # f over the surface size D = N_p lambda/2


def _fix_phase(Vh):
    """Right vectors from an (F, k, N_a) stack of the first k rows of
    V^H, and their (F, k) phase factors.

    Column i of each result is conj(Vh[f, i, :]) times factor[f, i],
    the unit factor that makes its largest-magnitude entry real
    positive (lowest index on ties); each column is ruled on its own,
    so k = 1 gives v_1 alone with the bits of the full rule.
    """
    V = Vh.conj().transpose(0, 2, 1)
    n_f, _, k = V.shape
    at = (np.arange(n_f)[:, None], np.argmax(np.abs(V), axis=1),
          np.arange(k))
    pivot = V[at]
    # a column of a unitary V has an entry of magnitude >= 1/sqrt(N_a)
    factor = pivot.conj() / np.hypot(pivot.real, pivot.imag)
    V = V * factor[:, None, :]
    pivot = V[at]
    V[at] = np.hypot(pivot.real, pivot.imag)
    return V, factor


def _padded(M):
    """An (F, N_p, N_a) stack with zero rows up to N_a: they keep V^H at
    N_a x N_a when the surface is the smaller array, without the
    N_p x N_p U that full_matrices=True would build."""
    n_f, n_p, n_a = M.shape
    if n_p < n_a:
        M = np.concatenate([M, np.zeros((n_f, n_a - n_p, n_a))], axis=1)
    return M


def _svd_stack(M):
    """(sigma, Vh) of each matrix of an (F, N_p, N_a) stack, shaped
    (F, N_a) and (F, N_a, N_a), V^H as LAPACK gives it: only a caller
    that reads right vectors pays _fix_phase. No U is formed.

    zgesdd factors a tall matrix, N_p >= floor(17 N_a / 9) (its MNTHR1),
    as QR first and takes the SVD of R (Chan's R-SVD), so the SVD of
    numpy's R gives the same bits, unless zgesdd scales M or R: it does
    where the largest entry lies outside [_SMALL, _BIG]. The largest
    entries of M and R lie in [sigma_1 / sqrt(N_p N_a), sigma_1], so a
    stack with a sigma_1 outside [2 _SMALL sqrt(N_p N_a), _BIG / 2] is
    analyzed whole instead.
    """
    _, n_p, n_a = M.shape
    if n_p >= 17 * n_a // 9:
        _, sigma, Vh = np.linalg.svd(np.linalg.qr(M, mode="r"),
                                     full_matrices=False)
        sigma_1 = sigma[:, 0]
        if (np.all(2 * _SMALL * np.sqrt(n_p * n_a) <= sigma_1)
                and np.all(sigma_1 <= _BIG / 2)):
            return sigma, Vh
    _, sigma, Vh = np.linalg.svd(_padded(M), full_matrices=False)
    return sigma, Vh


def svd_modes(T: PropagationMatrix) -> ModeAnalysis:
    """Singular values and vectors of T from one LAPACK SVD."""
    if T.entries.size == 0:
        raise ValueError("empty propagation matrix")
    U, sigma, Vh = np.linalg.svd(_padded(T.entries[None]),
                                 full_matrices=False)
    right, factor = _fix_phase(Vh)
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


def mode_metrics(sigma, f, n_p):
    """One ModeMetrics per row of the (F, N_a) stack sigma, each row
    descending, at its distance in the F-long f over n_p elements: dB
    powers of the singular values, their sum and condition number, and
    the geometry ratios."""
    sig_sq = sigma ** 2
    with np.errstate(divide="ignore"):
        sig_db = 10.0 * np.log10(sig_sq)
    sum_db = 10.0 * np.log10(sig_sq.sum(axis=1))
    cond = [float(top / least) if least > 0 else float("inf")
            for top, least in zip(sigma[:, 0], sigma[:, -1])]
    return [ModeMetrics(sigma_sq_db=tuple(s), sum_db=float(total),
                        cond=c, l_iso_db=isotropic_loss_db(x),
                        f_over_d=x / n_p)
            for s, total, c, x in zip(sig_db, sum_db, cond, f, strict=True)]
