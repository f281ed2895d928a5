"""Dense tensor primitives and a restarted-Arnoldi eigensolver.

Tensors are plain ``numpy.ndarray`` objects stored row-major over the
declared index order; every function in this package states the index
order of its arguments explicitly.  Real inputs give float64 results, with
sign fixes for phase fixes, complex ones complex128.  All operations here
are pure: inputs are never mutated.  They need numpy alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class DecompositionError(RuntimeError):
    """A matrix factorization failed to converge."""


class RankDeficiencyWarning(UserWarning):
    """A decomposition hit a (numerically) rank-deficient input."""


def _float_array(m) -> np.ndarray:
    """`m` as float64, or complex128 when it is complex."""
    m = np.asarray(m)
    return m.astype(complex if m.dtype.kind == "c" else float, copy=False)


def qr_positive(m: np.ndarray):
    """Thin QR decomposition with real positive diagonal of R.

    The sign/phase convention makes the factorization unique, so repeated
    decompositions of the same matrix are bit-stable.

    Parameters
    ----------
    m : np.ndarray
        Matrix with at least as many rows as columns.

    Returns
    -------
    (Q, R) : Q isometric (Q^dag Q = 1), R upper triangular with strictly
    positive real diagonal.
    """
    m = _float_array(m)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError(f"qr_positive needs rows >= cols, got {m.shape}")
    return _phased_qr(m, "QR")


def _phased_qr(m, kind: str):
    """numpy's QR of `m` with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(m)
    phase = _diagonal_phase(r, m, kind)
    return q * phase[np.newaxis, :], r * np.conj(phase)[:, np.newaxis]


def _diagonal_phase(r, m, kind: str):
    """Phases of the diagonal of the triangular factor `r` of `m`; entries
    below 1e-14 |m| are warned about and given phase 1."""
    d = np.diagonal(r).copy()
    small = np.abs(d) <= 1e-14 * np.linalg.norm(m)
    if np.any(small):
        warnings.warn(
            f"rank-deficient {kind} input: {int(small.sum())} diagonal(s) "
            f"below 1e-14*|m|", RankDeficiencyWarning)
        d[small] = 1.0
    return d / np.abs(d)


def rq_positive(m: np.ndarray):
    """Thin RQ decomposition, R upper triangular with positive real diagonal.

    `m` must have at least as many columns as rows; returns (R, Q) with
    m = R Q and Q Q^dag = 1.  It is the positive QR mirrored, in numpy
    only: with m[::-1]^dag = Q' R', R is R'^dag reversed along both axes
    and Q is Q'^dag with its rows reversed.
    """
    m = _float_array(m)
    if m.ndim != 2 or m.shape[1] < m.shape[0]:
        raise ValueError(f"rq_positive needs cols >= rows, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("rq_positive: non-finite entries in the input")
    q, r = _phased_qr(m[::-1].conj().T, "RQ")
    return (np.ascontiguousarray(r.conj().T[::-1, ::-1]),
            np.ascontiguousarray(q.conj().T[::-1]))


def svd(m: np.ndarray):
    """Thin SVD, singular values descending.

    Returns (U, S, Vh) with m = U @ diag(S) @ Vh, U and Vh isometric.
    A LAPACK convergence failure raises DecompositionError, chained to
    numpy's LinAlgError.
    """
    m = _float_array(m)
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed for shape {m.shape}") from exc


def polar(m: np.ndarray):
    """Unitary factor W of the polar decomposition of `m`: W = U Vh from
    its SVD.

    W is isometric (W^dag W = 1, m = W P with P = W^dag m Hermitian
    positive semidefinite) when `m` has at least as many rows as columns,
    and co-isometric (W W^dag = 1, m = P W) otherwise.
    """
    u, _, vh = svd(m)
    return u @ vh


@dataclass(frozen=True)
class EigResult:
    """Leading eigenpair: value, unit-norm vector, true residual |Av - lv|;
    `converged` means ``residual <= tol * |value|``."""

    value: complex
    vector: np.ndarray
    residual: float
    converged: bool
    degenerate: bool
    iterations: int


_SUBSPACE = 20  # the largest Krylov subspace; the iteration restarts there
# Krylov sizes at which the dominant Ritz pair may be tested before the
# subspace is full; at size 1 the estimate is the start vector's own
# residual, so a guess that is already an eigenvector costs two matvecs.
# A later size costs an eig and is skipped while the cycle's estimates,
# extrapolated geometrically, stay above _SKIP_SLACK times the target
# there (Ritz residuals often fall faster than geometrically).
_CHECKPOINTS = (1, 4, 8, 12, 16)
_SKIP_SLACK = 300.0


def leading_eig(matvec, guess: np.ndarray, tol: float = 1e-12,
                max_iter: int = 4000) -> EigResult:
    """Leading (largest |value|) eigenpair of the linear map `matvec` on
    flat vectors of the size of `guess`, via restarted Arnoldi iteration.

    Grows a Krylov subspace of up to ``_SUBSPACE`` vectors from the current
    vector, orthogonalized by two-pass block classical Gram-Schmidt
    (CGS2).  It tests the Ritz residual estimate ``|h[k, k-1] y[k-1]|`` of
    the dominant Ritz pair at Krylov sizes 1 and 4, and at 8, 12 and 16
    when this cycle's estimates, extrapolated geometrically, could reach
    ``tol * |value|`` there; when that passes, or the subspace is full,
    one matvec gives the pair's true residual ``|A x - value x|``.  The
    pair is accepted when the true residual is at most ``tol * |value|``;
    otherwise the iteration restarts from the Ritz vector, whose image
    that matvec gave, until the matvec budget `max_iter` is spent or the
    Krylov space is (numerically) invariant.  The lowest-residual pair seen is
    returned, with ``iterations`` the number of matvecs applied.
    Deterministic for a fixed guess.  The basis is real while the guess and
    images are, and turns complex at a non-real dominant Ritz value; a real
    basis is its own conjugate, so only a complex one is kept twice.  A
    relative gap below `tol` between the top two Ritz magnitudes (``gap <
    tol * |value|``; so a complex-conjugate pair) is reported through the
    `degenerate` flag; a pair accepted at Krylov size 1 has no second Ritz
    value and is never flagged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = _float_array(guess).reshape(-1).copy()
    n = v.size
    nv = np.linalg.norm(v)
    if nv == 0 or not np.isfinite(nv):
        raise ValueError("guess must be a nonzero finite vector")
    v /= nv

    m = min(_SUBSPACE, n)
    nmv = 0
    best = None  # (value, vector, residual, converged, degenerate)
    ax = None  # the image of the last vector mapped
    # the basis and its conjugate, each row written as the vector is added
    q = np.empty((m + 1, n), dtype=v.dtype)
    q_h = q if q.dtype == float else np.empty_like(q)

    while True:
        h = np.zeros((m + 1, m), dtype=q.dtype)
        tested = []  # (Krylov size, Ritz residual estimate) this cycle
        for j in range(m):
            if j or ax is None:  # a restart has its vector's image
                ax = np.asarray(matvec(q[j] if j else v)).reshape(n)
                nmv += 1
            w = ax
            if w.dtype != q.dtype:  # complex images of a real basis
                q, q_h, h = (t.astype(w.dtype) for t in (q, q_h, h))
            if j == 0:
                q[0] = v
                if q_h is not q:
                    q_h[0] = v.conj()
            w_norm = math.sqrt(np.vdot(w, w).real)
            # block classical Gram-Schmidt, two passes (CGS2); h's column
            # starts at 0, so writing the passes' summed coefficients once
            # equals adding each pass's in turn
            c = q_h[:j + 1] @ w
            w -= c @ q[:j + 1]
            dc = q_h[:j + 1] @ w
            w -= dc @ q[:j + 1]
            h[:j + 1, j] = c + dc
            beta = math.sqrt(np.vdot(w, w).real)
            h[j + 1, j] = beta
            k = j + 1
            invariant = beta <= 1e-14 * w_norm
            if not invariant:
                np.divide(w, beta, out=q[k])
                if q_h is not q:
                    np.conjugate(q[k], out=q_h[k])
            full = invariant or k == m
            if not full:
                if k not in _CHECKPOINTS:
                    continue
                if len(tested) >= 2:
                    (k0, r0), (k1, r1) = tested[-2:]
                    rate = min(r1 / r0, 1.0) ** (1.0 / (k1 - k0))
                    if r1 * rate ** (k - k1) > _SKIP_SLACK * tol * abs(lam):
                        continue
            # geev gives a 1x1 matrix's entry and the vector [1]
            # exactly, unless LAPACK rescales a tiny or huge entry
            if k == 1 and 1e-100 < abs(h[0, 0]) < 1e100:
                theta, y = h[0, :1], np.ones((1, 1), dtype=h.dtype)
            else:
                theta, y = np.linalg.eig(h[:k, :k])
            order = np.argsort(-np.abs(theta))
            lam = theta[order[0]]
            estimate = abs(beta * y[k - 1, order[0]])
            if full or estimate <= tol * abs(lam):
                break
            tested.append((k, estimate))

        if lam.imag == 0 and q.dtype == float:  # a real pair stays real
            lam, y = lam.real, y.real
        x = y[:, order[0]] @ q[:k]
        x /= np.linalg.norm(x)
        ax = np.asarray(matvec(x)).reshape(n)
        nmv += 1
        residual = float(np.linalg.norm(ax - lam * x))
        converged = residual <= tol * abs(lam)
        gap = (np.abs(lam) - np.abs(theta[order[1]]) if k >= 2 else np.inf)

        if best is None or residual < best[2]:
            best = (lam, x, residual, converged, bool(gap < tol * np.abs(lam)))
        # an invariant Krylov space admits no further progress
        if converged or nmv >= max_iter or invariant:
            return EigResult(best[0].item(), *best[1:], iterations=nmv)
        v = x
