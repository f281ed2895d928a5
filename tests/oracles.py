"""Independent dense oracles and reference builders for the test suite.

The dense oracles materialize full matrices with numpy only — no code
paths are shared with the matrix-free implementations under test beyond
the documented index conventions.  The builders at the end construct test
states and run reference algorithms on the package's own types.
"""

import functools
import math

import numpy as np

from vomps.models import ising_magnetization_mpo, ising_mpo
from vomps.tensor import svd
from vomps.umps import (
    MPO,
    UniformMPS,
    _cell_tensors,
    _cell_transfer,
    environments,
    mixed_canonical,
    random_uniform_mps,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def identity_mpo(phys_dims) -> MPO:
    """Identity operator as an MPO with trivial bonds."""
    if isinstance(phys_dims, int):
        phys_dims = [phys_dims]
    return MPO(o=[np.eye(d).reshape(1, d, d, 1) for d in phys_dims])


def materialize(matvec, dim) -> np.ndarray:
    """Dense matrix of the linear map `matvec` on vectors of length `dim`;
    only sensible for small dims."""
    eye = np.eye(dim, dtype=complex)
    return np.column_stack([matvec(eye[:, k]) for k in range(dim)])


def _site_operator(op, bot):
    """`op`, or for a plain channel the identity with unit mpo bonds."""
    d = bot.shape[1]
    return np.eye(d).reshape(1, d, d, 1) if op is None else op


def dense_site_matrix(top, bot, op=None, side="left"):
    """One site of the mixed transfer as a dense matrix on flattened
    (top bond, mpo bond, bottom bond) vectors; mpo bond 1 without `op`."""
    op = _site_operator(op, bot)
    m = np.einsum("apb,mpqx,cqd->bxdamc", np.conj(top), op, bot)
    m = m.reshape(top.shape[2] * op.shape[3] * bot.shape[2],
                  top.shape[0] * op.shape[0] * bot.shape[0])
    return m if side == "left" else m.T


def site_transfer(v, top, bot, op=None, side="left"):
    """One site of the mixed transfer applied to a bond tensor `v` with
    axes (top bond, mpo bond, bottom bond) by a single einsum; the top
    layer is conjugated here and the mpo bond is 1 without `op`."""
    spec = ("amc,apb,mpqn,cqd->bnd" if side == "left"
            else "bnd,apb,mpqn,cqd->amc")
    return np.einsum(spec, v, np.conj(top), _site_operator(op, bot), bot)


def dense_cell_matrix(top_state, bot_state, mpo=None, side="left"):
    """Unit-cell mixed transfer matrix (dense), unit cells pre-extended."""
    import math

    L = math.lcm(top_state.unit_cell, bot_state.unit_cell,
                 mpo.unit_cell if mpo is not None else 1)
    top = top_state.extended(L // top_state.unit_cell)
    bot = bot_state.extended(L // bot_state.unit_cell)
    ops = (mpo.extended(L // mpo.unit_cell).o if mpo is not None
           else [None] * L)
    tops = top.al if side == "left" else top.ar
    bots = bot.al if side == "left" else bot.ar
    mats = [dense_site_matrix(tops[n], bots[n], ops[n], side)
            for n in range(L)]
    full = np.eye(mats[0].shape[1], dtype=complex)
    order = mats if side == "left" else list(reversed(mats))
    for m in order:
        full = m @ full
    return full


def dense_leading_eig(mat):
    """Largest-|value| eigenpair of a dense matrix."""
    vals, vecs = np.linalg.eig(mat)
    k = int(np.argmax(np.abs(vals)))
    return vals[k], vecs[:, k]


def dense_fidelity(a, b):
    import math

    lam, _ = dense_leading_eig(dense_cell_matrix(a, b))
    L = math.lcm(a.unit_cell, b.unit_cell)
    return abs(lam) ** (1.0 / L)


def dense_local_expectation(state, op, site=0):
    """<op> at `site` via dense transfer fixed points of the state itself."""
    tm = dense_cell_matrix(state, state)
    lam_l, gl = dense_leading_eig(tm)
    lam_r, gr = dense_leading_eig(tm.T)
    chi_l = state.al[site].shape[0]
    chi_r = state.al[site].shape[2]
    # rotate gl so the state really sits at `site`
    for n in range(site):
        gl = dense_site_matrix(state.al[n], state.al[n]) @ gl
        gl = gl / lam_l ** (1.0 / state.unit_cell)
    for n in range(state.unit_cell - 1, site, -1):
        gr = dense_site_matrix(state.al[n], state.al[n], side="right") @ gr
        gr = gr / lam_l ** (1.0 / state.unit_cell)
    glm = gl.reshape(chi_l, chi_l)
    grm = gr.reshape(chi_r, chi_r)
    a = state.al[site]

    # gl/gr are paired as (bra bond, ket bond)
    def closed(obs):
        return np.einsum("ac,apb,pq,cqd,bd->", glm, np.conj(a), obs, a, grm)

    num = closed(np.asarray(op, dtype=complex))
    den = closed(np.eye(a.shape[1], dtype=complex))
    return num / den


def dense_environment_eigenvalue(top, bot, mpo=None):
    import math

    lam, _ = dense_leading_eig(dense_cell_matrix(top, bot, mpo))
    L = math.lcm(top.unit_cell, bot.unit_cell,
                 mpo.unit_cell if mpo is not None else 1)
    return complex(lam) ** (1.0 / L)


def _dense_phase_reference(g):
    k = min(g.shape[0], g.shape[2])
    z = sum(g[i, :, i].sum() for i in range(k))
    if abs(z) < 1e-12 * np.linalg.norm(g):
        z = g.flat[int(np.argmax(np.abs(g)))]
    return complex(z)


def dense_environments(top, bottom, mpo=None):
    """Fixed-point environments with the package's documented conventions,
    computed from fully materialized transfer matrices; a plain channel is
    the identity MPO's."""
    if mpo is None:
        mpo = identity_mpo(bottom.phys_dims)
    L = math.lcm(top.unit_cell, bottom.unit_cell, mpo.unit_cell)
    topx = top.extended(L // top.unit_cell)
    botx = bottom.extended(L // bottom.unit_cell)
    ops = mpo.extended(L // mpo.unit_cell).o

    lam_cell, gl_vec = dense_leading_eig(dense_cell_matrix(top, bottom, mpo,
                                                           "left"))
    _, gr_vec = dense_leading_eig(dense_cell_matrix(top, bottom, mpo,
                                                    "right"))
    lam = complex(lam_cell) ** (1.0 / L)

    def shape_at(n):
        return (topx.bond_dims[n % L], ops[n % L].shape[0],
                botx.bond_dims[n % L])

    gl = [None] * L
    gr = [None] * L
    gl[0] = gl_vec.reshape(shape_at(0))
    z = _dense_phase_reference(gl[0])
    gl[0] = gl[0] * (np.conj(z) / abs(z))
    for n in range(1, L):
        mat = dense_site_matrix(topx.al[n - 1], botx.al[n - 1], ops[n - 1],
                                "left")
        gl[n] = (mat @ gl[n - 1].reshape(-1)).reshape(shape_at(n)) / lam
    gr[L - 1] = gr_vec.reshape(shape_at(0))
    for n in reversed(range(L - 1)):
        mat = dense_site_matrix(topx.ar[n + 1], botx.ar[n + 1], ops[n + 1],
                                "right")
        gr[n] = (mat @ gr[n + 1].reshape(-1)).reshape(shape_at(n + 1)) / lam

    for n in range(L):
        ct = np.conj(topx.c[(n - 1) % L])
        cb = botx.c[(n - 1) % L]
        g, h = gl[n], gr[(n - 1) % L]
        s = np.einsum("amc,ab,cd,bmd->", g, ct, cb, h)
        gr[(n - 1) % L] = h / s
    return gl, gr, lam


def dense_centers(top, bottom, mpo=None):
    """Unit-normalized updated center tensors from dense environments."""
    if mpo is None:
        mpo = identity_mpo(bottom.phys_dims)
    L = math.lcm(top.unit_cell, bottom.unit_cell, mpo.unit_cell)
    botx = bottom.extended(L // bottom.unit_cell)
    ops = mpo.extended(L // mpo.unit_cell).o
    gl, gr, lam = dense_environments(top, bottom, mpo)
    acp, cp = [], []
    for n in range(L):
        mc = botx.ac(n)
        cm = botx.c[n]
        raw_ac = np.einsum("amx,mpqn,xqy,bny->apb", gl[n], ops[n], mc,
                           gr[n]) / lam
        raw_c = np.einsum("amx,xy,bmy->ab", gl[(n + 1) % L], cm, gr[n])
        acp.append(raw_ac / np.linalg.norm(raw_ac))
        cp.append(raw_c / np.linalg.norm(raw_c))
    return acp, cp


def matrix_modulus(m):
    """|m| = sqrt(m^dag m), from the eigendecomposition of m^dag m (no SVD)."""
    m = np.asarray(m, dtype=complex)
    vals, vecs = np.linalg.eigh(m.conj().T @ m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def procrustes_optimum(acp, cp):
    """min |acp - W cp| over isometries W, in closed form: the orthogonal
    Procrustes optimum W = polar(acp cp^dag) (Schoenemann 1966) gives
    sqrt(|acp|^2 + |cp|^2 - 2 |acp cp^dag|_*), with the trace norm taken
    from :func:`matrix_modulus` (no SVD)."""
    target = acp.reshape(-1, acp.shape[2])
    trace_norm = np.trace(matrix_modulus(target @ cp.conj().T)).real
    square = (np.linalg.norm(target) ** 2 + np.linalg.norm(cp) ** 2
              - 2.0 * trace_norm)
    return np.sqrt(max(square, 0.0))


def trapezoid_onsager_free_energy(beta, n=256):
    """Onsager free energy per site from the double integral on an n x n
    periodic trapezoid grid (spectrally accurate away from beta_c)."""
    theta = 2.0 * np.pi * np.arange(n) / n
    t1, t2 = np.meshgrid(theta, theta, indexing="ij")
    integrand = np.log(np.cosh(2 * beta) ** 2
                       - np.sinh(2 * beta) * (np.cos(t1) + np.cos(t2)))
    return -(np.log(2.0) + np.mean(integrand) / 2.0) / beta


def dense_ising_row_transfer(beta, coupling, n_sites):
    """Row-to-row transfer matrix of the square-lattice Ising model with
    coupling J = `coupling` on a periodic row of `n_sites`, from the
    Boltzmann weights exp(beta J s s'): entry (s', s) carries the vertical
    bonds between the rows s' and s and the horizontal bonds of the row s.
    Basis index 0 of a site is spin +1; site 0 is the most significant."""
    bits = np.arange(2 ** n_sites)[:, None] >> np.arange(n_sites)[::-1]
    spins = 1 - 2 * (bits & 1)
    vertical = spins @ spins.T
    horizontal = np.sum(spins * np.roll(spins, -1, axis=1), axis=1)
    return np.exp(beta * coupling * (vertical + horizontal[None, :]))


def dense_mpo_operator(mpo, n_sites):
    """The (out, in) matrix a one-site MPO applies to a periodic chain of
    `n_sites`, with site 0 the most significant."""
    o = mpo.o[0]
    D, d = o.shape[0], o.shape[1]
    t = np.eye(D).reshape(D, 1, 1, D)              # (left, out, in, right)
    for _ in range(n_sites):
        t = np.einsum("lpqm,mabr->lpaqbr", t, o)
        t = t.reshape(D, t.shape[1] * d, t.shape[3] * d, D)
    return np.einsum("lpql->pq", t)


def dense_neel_quench_offsets(n_sites, delta, times):
    """1 - <(1+Z_0)/2> after evolving the Neel state |up down ...> on a
    periodic XXZ chain, by dense matrix exponentials of the full
    Hamiltonian built from Kronecker products."""
    import scipy.linalg

    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2

    def site_op(op, i):
        out = np.eye(1)
        for k in range(n_sites):
            out = np.kron(out, op if k == i else np.eye(2))
        return out

    h = sum(site_op(a, i) @ site_op(a, (i + 1) % n_sites) * w
            for i in range(n_sites)
            for a, w in ((sx, 1.0), (sy, 1.0), (sz, delta)))
    psi0 = np.ones(1)
    for k in range(n_sites):
        psi0 = np.kron(psi0, [1.0, 0.0] if k % 2 == 0 else [0.0, 1.0])
    up0 = (np.eye(2 ** n_sites) + 2 * site_op(sz, 0)) / 2
    offsets = []
    for t in times:
        psi = scipy.linalg.expm(-1j * t * h) @ psi0
        offsets.append(1.0 - np.real(np.vdot(psi, up0 @ psi)))
    return np.array(offsets)


def sparse_neel_quench_offsets(n_sites, delta, times):
    """The Neel quench offsets of :func:`dense_neel_quench_offsets` on the
    state's S^z = 0 sector only, propagated by scipy's `expm_multiply`
    from each requested time to the next (in sorted order), for chains too
    long for the dense oracle."""
    import scipy.sparse
    import scipy.sparse.linalg

    states = np.arange(1 << n_sites, dtype=np.int64)
    down = sum((states >> i) & 1 for i in range(n_sites))
    sector = states[down == n_sites // 2]
    dim = len(sector)
    diag, rows, cols = np.zeros(dim), [np.arange(dim)], [np.arange(dim)]
    for i in range(n_sites):
        j = (i + 1) % n_sites
        z_i, z_j = (1.0 - 2.0 * ((sector >> k) & 1) for k in (i, j))
        diag += 0.25 * delta * z_i * z_j
        src = np.flatnonzero(z_i != z_j)
        rows.append(np.searchsorted(sector, sector[src] ^ (1 << i | 1 << j)))
        cols.append(src)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.concatenate([diag, np.full(len(rows) - dim, 0.5)])
    h = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    neel_bits = sum(1 << i for i in range(1, n_sites, 2))
    psi = (sector == neel_bits).astype(complex)
    up0 = 1.0 - (sector & 1)

    times = np.asarray(list(times), dtype=float)
    offsets = np.empty_like(times)
    t_cur = 0.0
    for idx in np.argsort(times):
        if times[idx] > t_cur:
            psi = scipy.sparse.linalg.expm_multiply(
                -1j * (times[idx] - t_cur) * h, psi)
            t_cur = times[idx]
        offsets[idx] = 1.0 - float(np.real(np.vdot(psi, up0 * psi)))
    return offsets


def dense_product_spectrum(state, mpo):
    """Norm per site and bond-0 Schmidt values of the product ``mpo @
    state``, from the dense transfer matrix of the product with itself
    (the O^dag O channel): the per-site norm is the 2L-th root of its
    leading eigenvalue, and the squared Schmidt values are the spectrum of
    the left fixed point times the right one, normalized to unit sum."""
    L = math.lcm(state.unit_cell, mpo.unit_cell)
    st = state.extended(L // state.unit_cell)
    ops = mpo.extended(L // mpo.unit_cell).o
    b = []
    for o, a in zip(ops, st.al):
        t = np.einsum("mpqn,aqb->mapnb", o, a)
        b.append(t.reshape(o.shape[0] * a.shape[0], o.shape[1],
                           o.shape[3] * a.shape[2]))
    left = np.eye(b[0].shape[0] ** 2, dtype=complex)
    right = left.copy()
    for n in range(L):
        left = dense_site_matrix(b[n], b[n]) @ left
        right = dense_site_matrix(b[L - 1 - n], b[L - 1 - n], side="right") \
            @ right
    lam, gl = dense_leading_eig(left)
    _, gr = dense_leading_eig(right)
    dim = b[0].shape[0]
    s2 = np.linalg.eigvals(gl.reshape(dim, dim).T @ gr.reshape(dim, dim))
    s2 = np.sort(np.abs(s2))[::-1]
    return abs(lam) ** (1.0 / (2 * L)), np.sqrt(s2 / s2.sum())


def state_with_spectrum(spectrum, seed: int = 0) -> UniformMPS:
    """A chi-state uniform MPS (d = 2) whose Schmidt spectrum is exactly
    the given values (normalized, descending).

    Construction: one diagonal and one weighted-cyclic-shift physical
    block; column orthonormality is automatic and the squared spectrum is
    an exact transfer fixed point by a telescoping weight choice.
    """
    s = np.sort(np.asarray(spectrum, dtype=float))[::-1]
    if np.any(s <= 0):
        raise ValueError("spectrum entries must be positive")
    s = s / np.linalg.norm(s)
    chi = len(s)
    if chi == 1:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((1, 2, 1)) + 1j * rng.standard_normal((1, 2, 1))
        return mixed_canonical([a])
    d2 = s ** 2
    t = 0.5 * d2.min()
    beta = t / np.roll(d2, -1)          # weight of the shift block
    alpha = 1.0 - np.roll(beta, 1)      # of the diagonal block
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * math.pi * rng.random(2 * chi))
    idx = np.arange(chi)
    al = np.zeros((chi, 2, chi), dtype=complex)
    al[idx, 0, idx] = np.sqrt(alpha) * phase[:chi]
    al[idx, 1, (idx + 1) % chi] = np.sqrt(beta) * phase[chi:]
    # the squared spectrum is an exact transfer fixed point, so the right
    # gauge is available in closed form: ar = c^-1 al c with c = diag(s)
    ar = np.zeros_like(al)
    ar[idx, 0, idx] = al[idx, 0, idx]
    ar[idx, 1, (idx + 1) % chi] = al[idx, 1, (idx + 1) % chi] * \
        np.roll(s, -1) / s
    return UniformMPS(al=[al], ar=[ar], c=[np.diag(s).astype(complex)])


def reflection_residual(state) -> float:
    """Distance of a one-site state from its left-right mirror: the least
    ``|AR - D AL^T D|`` over diagonal sign matrices D, in the Schmidt frame
    (C diagonal), where a real mirror-symmetric state has AR = D AL^T D."""
    u, s, vh = np.linalg.svd(state.c[0])
    al = np.einsum("ia,isj,jb->asb", u.conj(), state.al[0], u)
    ar = np.einsum("ai,isj,bj->asb", vh, state.ar[0], vh.conj())
    mirrored = al.transpose(2, 1, 0)
    best = math.inf
    for bits in range(2 ** (len(s) - 1)):
        d = np.array([1.0] + [(-1.0) ** (bits >> k & 1)
                              for k in range(len(s) - 1)])
        best = min(best, np.linalg.norm(
            ar - d[:, None, None] * mirrored * d[None, None, :]))
    return float(best)


def schmidt_values(state, bond: int) -> np.ndarray:
    """Singular values of the bond matrix on bond `bond` of `state`
    (descending); bond n is left of site n."""
    return svd(state.c[(bond - 1) % state.unit_cell])[1]


@functools.cache
def correlated_random_state(chi: int, d: int = 2, decay: float = 0.35,
                            seed: int = 0) -> UniformMPS:
    """Random injective state with a slowly decaying entanglement spectrum.

    Tilts the left-canonical tensor of a generic random state by
    exp(-decay * k) bond weights and re-canonicalizes.  The resulting
    spectrum follows the tilt only approximately, which is all the
    truncation benchmarks need; the transfer gap stays generic, unlike an
    exactly engineered spectrum.  Cached: each argument is built once per
    session, and every caller receives the same immutable state.
    """
    target = np.exp(-decay * np.arange(chi))
    target /= np.linalg.norm(target)
    state = random_uniform_mps(chi, d, seed=seed)
    for _ in range(6):
        current = schmidt_values(state, 0)
        # half-step in log space: the spectrum responds superlinearly to
        # bond tilts, so a full correction overshoots
        correction = np.clip(target / current, 1e-4, 1e4) ** 0.5
        state = mixed_canonical([state.al[0] @ np.diag(correction)])
    return state


def layer_targets(state, layer, chi_max):
    """The bonds of `layer @ state` truncated to `chi_max`: min(chi_max,
    chi * D) per bond of the common cell, then each bond clamped to its
    neighbors' bonds times the physical dimension between them until
    none changes.  The reference for the cap of ``umps._bond_targets``
    on MPO channels."""
    L = math.lcm(state.unit_cell, layer.unit_cell)
    ext = layer.extended(L // layer.unit_cell)
    chis = state.extended(L // state.unit_cell).bond_dims[:L]
    phys = ext.phys_dims_out
    targets = [min(chi_max, c * d) for c, d in zip(chis, ext.bond_dims)]
    changed = True
    while changed:
        changed = False
        for k in range(L):
            cap = min(targets[(k - 1) % L] * phys[(k - 1) % L],
                      targets[(k + 1) % L] * phys[k])
            if targets[k] > cap:
                targets[k] = cap
                changed = True
    return targets


def transfer_map(top, bottom, side, mpo=None):
    """The package's matrix-free unit-cell mixed transfer map of `top`
    over `bottom` (through `mpo` if given), on bond-0 vectors (top bond,
    mpo bond, bottom bond): left-canonical tensors for ``side == "left"``,
    right-canonical ones for ``"right"``, both states extended to the
    channel's common unit cell."""
    top, bottom, ops = _cell_tensors(top, bottom, mpo)
    if side == "left":
        return _cell_transfer(top.al, bottom.al, side, ops)
    return _cell_transfer(top.ar, bottom.ar, side, ops)


# ---------------------------------------------------------------------------
# the package's contractions written with np.tensordot: the package builds
# the one matrix product each of these computes, so they agree bit for bit


def tensordot_ac(state, n):
    """Center tensor al[n] c[n] of :meth:`UniformMPS.ac`."""
    return np.tensordot(state.al[n], state.c[n], axes=((2,), (0,)))


def tensordot_check(state):
    """The largest canonical-form residual of :meth:`UniformMPS.check`."""
    L = state.unit_cell
    worst = 0.0
    for n in range(L):
        chi_l, d, chi_r = state.al[n].shape
        ml = state.al[n].reshape(chi_l * d, chi_r)
        worst = max(worst, np.linalg.norm(ml.conj().T @ ml - np.eye(chi_r)))
        mr = state.ar[n].reshape(chi_l, d * chi_r)
        worst = max(worst, np.linalg.norm(mr @ mr.conj().T - np.eye(chi_l)))
        gauge = np.tensordot(state.c[(n - 1) % L], state.ar[n],
                             axes=((1,), (0,)))
        worst = max(worst, np.linalg.norm(tensordot_ac(state, n) - gauge))
        worst = max(worst, abs(np.linalg.norm(state.c[n]) - 1.0))
    return worst


def tensordot_stacked_layers(upper, lower):
    """Fused site tensors of :func:`vomps.umps._stacked_layers`."""
    tensors = []
    for a, b in zip(upper.o, lower.o):
        t = np.tensordot(a, b, axes=((2,), (1,))).transpose(0, 3, 1, 4, 2, 5)
        tensors.append(t.reshape(a.shape[0] * b.shape[0], a.shape[1],
                                 b.shape[2], a.shape[3] * b.shape[3]))
    return tensors


def tensordot_bond_pairing(gl, gr, c_top, c_bot):
    """gl closed against gr through the bond matrices, as
    :func:`vomps.umps._bond_pairing`."""
    t = np.tensordot(np.conj(c_top), gl, axes=((0,), (0,)))
    t = np.tensordot(t, c_bot, axes=((2,), (0,)))
    return np.tensordot(t, gr, axes=((0, 1, 2), (0, 1, 2))).item()


def tensordot_raw_centers(env, source, mpo):
    """Unnormalized centers of :func:`vomps.truncation._raw_centers`."""
    L = len(env.gl)
    ops = (mpo.extended(L // mpo.unit_cell).o if mpo is not None
           else [np.eye(d).reshape(1, d, d, 1) for d in source.phys_dims])
    out = []
    for n in range(L):
        t = np.tensordot(env.gl[n], tensordot_ac(source, n),
                         axes=((2,), (0,)))
        t = np.tensordot(t, ops[n], axes=((1, 2), (0, 2)))
        out.append(np.tensordot(t, env.gr[n], axes=((1, 3), (2, 1)))
                   / env.lam)
    return out


def tensordot_centers(env, source, mpo):
    """``(acp, cp)`` of :func:`vomps.truncation.compute_centers`."""
    L = len(env.gl)
    source = source.extended(L // source.unit_cell)
    acp, cp = [], []
    for n, raw_ac in enumerate(tensordot_raw_centers(env, source, mpo)):
        t = np.tensordot(env.gl[(n + 1) % L], source.c[n], axes=((2,), (0,)))
        raw_c = np.tensordot(t, env.gr[n], axes=((1, 2), (1, 2)))
        acp.append(raw_ac / np.linalg.norm(raw_ac))
        cp.append(raw_c / np.linalg.norm(raw_c))
    return acp, cp


def tensordot_fidelity_gradient(env, source, mpo, a):
    """Euclidean gradient of :func:`vomps.truncation._fidelity_gradient`
    before its tangent projection."""
    raw = tensordot_raw_centers(env, source, mpo)
    return [-np.tensordot(t, c.conj(), axes=((2,), (1,))) / a.unit_cell
            for t, c in zip(raw, a.c)]


def tensordot_error_epsilon(cp, al):
    """Fixed-point residual of :func:`vomps.truncation.error_epsilon`."""
    eps = 0.0
    for n in range(len(cp.acp)):
        recomposed = np.tensordot(al[n], cp.cp[n], axes=((2,), (0,)))
        eps = max(eps, float(np.linalg.norm(cp.acp[n] - recomposed)))
    return eps


def tensordot_magnetization(state, beta):
    """The magnetization of :func:`vomps.models.ising_magnetization`, each
    channel closed by its own four tensordots rather than through the raw
    centers of the truncation."""
    mpo = ising_mpo(beta)
    env = environments(state, state, mpo, tol=1e-12)
    ac = state.ac(0)

    def channel(op):
        t = np.tensordot(env.gl[0], ac, axes=((2,), (0,)))
        t = np.tensordot(t, op, axes=((1, 2), (0, 2)))
        t = np.tensordot(t, np.conj(ac), axes=((0, 2), (0, 1)))
        return complex(np.tensordot(
            t, env.gr[0], axes=((0, 1, 2), (2, 1, 0))))

    imp = channel(ising_magnetization_mpo(beta).o[0])
    return float(np.real(imp / channel(mpo.o[0])))
