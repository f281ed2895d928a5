"""Non-variational comparison methods: local Schmidt-value truncation and
direct truncation of an MPO-MPS product through the full product-bond
canonicalization.  These are the standard local approaches the
variational optimizer is benchmarked against; their cost in the MPO case
carries extra powers of the MPO bond dimension.  The product's transfer
matrix runs on the package's one transfer kernel: it is the state's own
transfer through the MPO O^dag O, fused from the two layers."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .tensor import leading_eig, svd
from .umps import (
    MPO,
    UniformMPS,
    _apply_left_site,
    _apply_right_site,
    _cell_transfer,
    _fitting_guess,
    _normalize_targets,
    _rotate_bonds,
    _stacked_layers,
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
    targets = _normalize_targets(new_chi, L)

    # us[k]: truncated bond-k isometry from the svd of c[k-1]
    us = [None] * L
    s_kept = [None] * L
    discarded = 0.0
    for n in range(L):
        bond = (n + 1) % L
        u, s, _ = svd(state.c[n])
        k = min(targets[bond], len(s))
        if k < len(s):
            if s[k - 1] - s[k] < 1e-12 * s[0]:
                warnings.warn(
                    f"cut through degenerate Schmidt values on bond {bond} "
                    f"({s[k - 1]:.3e} vs {s[k]:.3e}); keeping first {k} in "
                    "descending order", DegenerateCutWarning)
            discarded += float(np.sum(s[k:] ** 2))
        us[bond] = u[:, :k]
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


def _hermitian_fixed_point(vec, dm, chi):
    """Bond-0 fixed point of the O^dag O channel, axes (state, (dagger mpo,
    mpo), state), as a Hermitian matrix over (mpo, state) product bonds."""
    g = vec.reshape(chi, dm, dm, chi).transpose(1, 0, 2, 3)
    g = g.reshape(dm * chi, dm * chi)
    tr = np.trace(g)
    if abs(tr) > 1e-12 * np.linalg.norm(g):
        g = g * (np.conj(tr) / abs(tr))
    g = 0.5 * (g + g.conj().T)
    if np.trace(g).real < 0:
        g = -g
    return g


def mpo_mps_local_truncate(m: UniformMPS, mpo: MPO, new_chi,
                           mem_limit_bytes: int = 4 * 2**30) -> UniformMPS:
    """Truncate an MPO-MPS product by local Schmidt values.

    Forms the product-bond site tensors, canonicalizes them through the
    fixed points of the product transfer matrix (the expensive
    contraction; its vectors live on the bond-0 space (state, (dagger mpo,
    mpo), state)), and cuts the bonds with :func:`schmidt_truncate`.  The
    dense work is guarded: above `mem_limit_bytes` the call refuses with
    the memory estimate, which scales as O(chi^2 d D^2).  The fixed points
    and the canonical form are solved to 1e-13.
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
            f"product truncation needs ~{estimate / 2**20:.3g} MiB "
            f"(O(chi^2 d D^2) with chi={chi}, d={d}, D={dm}); "
            f"guard is {mem_limit_bytes / 2**20:.3g} MiB")

    # the product's own transfer is the state's transfer through O^dag O,
    # both MPO layers fused into one with bonds grouped (dagger, plain)
    dagger = MPO(o=[np.conj(t).transpose(0, 2, 1, 3) for t in op.o])
    fused = _stacked_layers(dagger, op).o
    dm0, chi0 = op.o[0].shape[0], st.al[0].shape[0]
    guess = _fitting_guess(None, st.al, st.al, fused)
    left, right = (leading_eig(_cell_transfer(st.al, st.al, side, fused),
                               guess, tol=1e-13, max_iter=20_000)
                   for side in ("left", "right"))
    lam_cell = abs(left.value)
    if lam_cell < 1e-300:
        raise ValueError("product state has zero norm")
    lam_site = lam_cell ** (1.0 / L)

    # per-bond fixed points (bra, ket) by propagation, product tensors
    # normalized
    b = [_product_site(op.o[n], st.al[n]) / math.sqrt(lam_site)
         for n in range(L)]
    l_fp = [None] * L
    r_fp = [None] * L
    # the kernels carry a plain channel's unit mpo bond as the middle axis
    l_fp[0] = _hermitian_fixed_point(left.vector, dm0, chi0)
    for n in range(1, L):
        g = _apply_left_site(l_fp[n - 1][:, None], np.conj(b[n - 1]),
                             b[n - 1])[:, 0]
        l_fp[n] = 0.5 * (g + g.conj().T)
    r_fp[L - 1] = _hermitian_fixed_point(right.vector, dm0, chi0)
    for n in reversed(range(L - 1)):
        g = _apply_right_site(r_fp[n + 1][:, None], np.conj(b[n + 1]),
                              b[n + 1])[:, 0]
        r_fp[n] = 0.5 * (g + g.conj().T)

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
    canonical = mixed_canonical(al_b, tol=1e-13, right_seed=right_seed)
    truncated, _ = schmidt_truncate(canonical, new_chi)
    return truncated

