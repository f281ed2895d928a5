"""Non-variational comparison methods: local Schmidt-value truncation and
direct truncation of an MPO-MPS product through the full product-bond
canonicalization.  These are the standard local approaches the
variational optimizer is benchmarked against; their cost in the MPO case
carries extra powers of the MPO bond dimension."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .tensor import LinearMap, leading_eig, svd
from .umps import (
    MPO,
    UniformMPS,
    _rotate_bonds,
    mixed_canonical,
)


class MemoryGuardError(MemoryError):
    """Refusing an MPO-MPS product whose dense work would exceed the guard."""


class DegenerateCutWarning(UserWarning):
    """A truncation cut through a (numerically) degenerate Schmidt pair."""


def schmidt_truncate(state: UniformMPS, new_chi):
    """Cut every bond to `new_chi` by discarding the smallest Schmidt values.

    SVDs each bond matrix, keeps the largest singular values (descending
    order with index tie-break; a degenerate cut is warned about),
    projects the neighboring gauge tensors with the truncated isometries,
    and re-canonicalizes.  Returns ``(state, discarded_weight)`` where the
    weight is the total of dropped squared singular values.  Targets at or
    above the current bond dimensions reduce to the identity operation.
    """
    L = state.unit_cell
    targets = ([new_chi] * L if isinstance(new_chi, int)
               else [int(c) for c in new_chi])
    if len(targets) != L:
        raise ValueError(f"need {L} per-bond targets")

    # us[k]/vs[k]: truncated bond-k isometries from the svd of c[k-1]
    us, vs = [None] * L, [None] * L
    s_kept = [None] * L
    discarded = 0.0
    for n in range(L):
        bond = (n + 1) % L
        u, s, vh = svd(state.c[n])
        k = min(targets[bond], len(s))
        if k < len(s):
            if s[k - 1] - s[k] < 1e-12 * s[0]:
                warnings.warn(
                    f"cut through degenerate Schmidt values on bond {bond} "
                    f"({s[k - 1]:.3e} vs {s[k]:.3e}); keeping first {k} in "
                    "descending order", DegenerateCutWarning)
            discarded += float(np.sum(s[k:] ** 2))
        us[bond] = u[:, :k]
        vs[bond] = vh[:k, :].conj().T
        s_kept[n] = s[:k]

    if all(len(s_kept[n]) == state.c[n].shape[0] for n in range(L)):
        return state, 0.0

    al = [_rotate_bonds(us[n].conj().T, state.al[n], us[(n + 1) % L])
          for n in range(L)]
    truncated = mixed_canonical(al)
    return truncated, discarded


def _product_site(o: np.ndarray, a: np.ndarray) -> np.ndarray:
    """MPO x MPS site tensor with grouped (mpo, state) product bonds."""
    t = np.tensordot(o, a, axes=((2,), (1,)))   # (m, p, m', al, ar)
    t = t.transpose(0, 3, 1, 2, 4)              # (m, al, p, m', ar)
    dm, chi_l, d, dmr, chi_r = t.shape
    return t.reshape(dm * chi_l, d, dmr * chi_r)


def _left_apply(v, o, a):
    """v(M,A,m,a) -> v'(M',B,m',b): one site of the product-state left
    transfer, bra layer conjugated."""
    oc, ac = np.conj(o), np.conj(a)
    t = np.tensordot(v, a, axes=((3,), (0,)))        # (M, A, m, q, b)
    t = np.tensordot(t, o, axes=((2, 3), (0, 2)))    # (M, A, b, p, m')
    t = np.tensordot(t, oc, axes=((0, 3), (0, 1)))   # (A, b, m', Q, M')
    t = np.tensordot(t, ac, axes=((0, 3), (0, 1)))   # (b, m', M', B)
    return t.transpose(2, 3, 1, 0)


def _right_apply(v, o, a):
    """v(M,B,m,b) at the right bond -> v'(M',A,m',a) one site leftward."""
    oc, ac = np.conj(o), np.conj(a)
    t = np.tensordot(a, v, axes=((2,), (3,)))        # (al, q, M, B, m)
    t = np.tensordot(t, o, axes=((1, 4), (2, 3)))    # (al, M, B, ml, p)
    t = np.tensordot(t, oc, axes=((1, 4), (3, 1)))   # (al, B, ml, Ml, Q)
    t = np.tensordot(t, ac, axes=((1, 4), (2, 1)))   # (al, ml, Ml, Al)
    return t.transpose(2, 3, 1, 0)


def product_transfer_map(mpo: MPO, state: UniformMPS, side: str) -> LinearMap:
    """Unit-cell transfer matrix of the MPO-MPS product, matrix-free.

    This is the costly object of the local-truncation approach: vectors
    live on the squared product bond (mpo x state, bra and ket), so memory
    scales as the square of the product bond dimension.
    """
    L = math.lcm(state.unit_cell, mpo.unit_cell)
    st = state.extended(L // state.unit_cell)
    op = mpo.extended(L // mpo.unit_cell)
    dm, chi = op.o[0].shape[0], st.al[0].shape[0]
    shape = (dm, chi, dm, chi)
    dim = int(np.prod(shape))
    sites = list(range(L)) if side == "left" else list(reversed(range(L)))
    apply_site = _left_apply if side == "left" else _right_apply

    def matvec(vec):
        v = vec.reshape(shape)
        for n in sites:
            v = apply_site(v, op.o[n], st.al[n])
        return v.reshape(dim)

    return LinearMap(dim=dim, matvec=matvec)


def _hermitian_fixed_point(vec, dm, chi):
    g = vec.reshape(dm * chi, dm * chi)
    tr = np.trace(g)
    if abs(tr) > 1e-12 * np.linalg.norm(g):
        g = g * (np.conj(tr) / abs(tr))
    g = 0.5 * (g + g.conj().T)
    if np.trace(g).real < 0:
        g = -g
    return g


def mpo_mps_local_truncate(m: UniformMPS, mpo: MPO, new_chi,
                           tol: float = 1e-13,
                           mem_limit_bytes: int = 4 * 2**30) -> UniformMPS:
    """Truncate an MPO-MPS product by local Schmidt values.

    Forms the product-bond site tensors, canonicalizes them through the
    fixed points of the product transfer matrix (the expensive
    contraction), and cuts the bonds with :func:`schmidt_truncate`.  The
    dense work is guarded: above `mem_limit_bytes` the call refuses with
    the memory estimate, which scales as O(chi^2 d D^2).
    """
    L = math.lcm(m.unit_cell, mpo.unit_cell)
    st = m.extended(L // m.unit_cell)
    op = mpo.extended(L // mpo.unit_cell)
    for n in range(L):
        if op.o[n].shape[2] != st.al[n].shape[1]:
            raise ValueError(f"mpo phys_in does not match state at site {n}")

    chi = max(st.bond_dims[:L])
    dm = max(op.bond_dims[:L])
    d = max(st.phys_dims)
    estimate = 16 * (chi * dm) ** 2 * (d + 34)  # fixed points + Krylov basis
    if estimate > mem_limit_bytes:
        raise MemoryGuardError(
            f"product truncation needs ~{estimate / 2**20:.0f} MiB "
            f"(O(chi^2 d D^2) with chi={chi}, d={d}, D={dm}); "
            f"guard is {mem_limit_bytes / 2**20:.0f} MiB")

    left = leading_eig(product_transfer_map(op, st, "left"),
                       _product_guess(dm, chi), tol=tol, max_iter=20_000)
    right = leading_eig(product_transfer_map(op, st, "right"),
                        _product_guess(dm, chi), tol=tol, max_iter=20_000)
    lam_cell = abs(left.value)
    if lam_cell < 1e-300:
        raise ValueError("product state has zero norm")
    lam_site = lam_cell ** (1.0 / L)

    # per-bond fixed points by propagation, product tensors normalized
    b = [_product_site(op.o[n], st.al[n]) / math.sqrt(lam_site)
         for n in range(L)]
    l_fp = [None] * L
    r_fp = [None] * L
    l_fp[0] = _hermitian_fixed_point(left.vector, dm, chi)
    for n in range(1, L):
        prev = b[n - 1]
        t = np.tensordot(l_fp[n - 1], prev, axes=((1,), (0,)))
        l_fp[n] = np.tensordot(np.conj(prev), t, axes=((0, 1), (0, 1)))
        l_fp[n] = 0.5 * (l_fp[n] + l_fp[n].conj().T)
    r_fp[L - 1] = _hermitian_fixed_point(right.vector, dm, chi)
    for n in reversed(range(L - 1)):
        nxt = b[n + 1]
        t = np.tensordot(nxt, r_fp[n + 1], axes=((2,), (0,)))
        r_fp[n] = np.tensordot(t, np.conj(nxt), axes=((1, 2), (1, 2)))
        r_fp[n] = 0.5 * (r_fp[n] + r_fp[n].conj().T)

    # gauge: al_b[n] = x[n] b[n] pinv(x[n+1]), rank-revealing in the
    # fixed-point spectra so exactly compressible products shrink for free.
    # l_fp[k] sits on bond k, r_fp[n] on bond n+1.
    xs, xinvs, ys = [], [], []
    for k in range(L):
        w, e = np.linalg.eigh(l_fp[k])
        wr, er = np.linalg.eigh(r_fp[(k - 1) % L])
        rank = min(int(np.sum(w > max(w.max(), 0.0) * 1e-14)),
                   int(np.sum(wr > max(wr.max(), 0.0) * 1e-14)))
        sel = np.argsort(w)[-rank:]
        sw = np.sqrt(np.abs(w[sel]))
        xs.append(sw[:, None] * e[:, sel].conj().T)
        xinvs.append(e[:, sel] / sw[None, :])
        selr = np.argsort(wr)[-rank:]
        ys.append(er[:, selr] * np.sqrt(np.abs(wr[selr]))[None, :])
    al_b = []
    for n in range(L):
        t = np.tensordot(xs[n], b[n], axes=((1,), (0,)))
        al_b.append(np.tensordot(t, xinvs[(n + 1) % L], axes=((2,), (0,))))

    right_seed = [x @ y for x, y in zip(xs, ys)]
    canonical = mixed_canonical(al_b, tol=max(tol, 1e-14),
                                right_seed=right_seed)
    truncated, _ = schmidt_truncate(canonical, new_chi)
    return truncated


def _product_guess(dm: int, chi: int) -> np.ndarray:
    rng = np.random.default_rng(0x5EED)
    g = np.eye(dm * chi, dtype=complex).reshape(dm, chi, dm, chi)
    g = g + 1e-3 * (rng.standard_normal(g.shape)
                    + 1j * rng.standard_normal(g.shape))
    return g.reshape(-1)
