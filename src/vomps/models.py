"""Problem builders and independent oracles.

XXZ spin-chain Trotter machinery, the Neel product state, the 2D
classical Ising row-to-row transfer MPO with its Onsager references, and an
exact-evolution oracle for small periodic chains: one real Chebyshev sweep
in the Neel state's S^z = 0 sector, with numpy alone.

Only the ferromagnet has a transfer MPO: on an even row the
antiferromagnet's transfer matrix is ``F_even T F_odd``, with ``T`` the
ferromagnet's and ``F_r`` the flip of the spins on the sites of parity r,
so its fixed point is the ferromagnet's with every other spin flipped,
with the same eigenvalue per site and the same |m|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import svd
from .truncation import VompsConfig, _center_maps, _regauge, vomps_truncate
from .umps import MPO, UniformMPS, _stacked_layers, environments

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

BETA_C = math.log(1.0 + math.sqrt(2.0)) / 2.0


# ---------------------------------------------------------------------------
# XXZ quench ingredients


def xxz_two_site_hamiltonian(delta: float) -> np.ndarray:
    """Two-site XXZ term Sx Sx + Sy Sy + delta Sz Sz (spin-1/2), as a 4x4
    matrix over the (s1 s2) product basis."""
    sx, sy, sz = PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2
    return (np.kron(sx, sx) + np.kron(sy, sy)
            + delta * np.kron(sz, sz)).astype(complex)


def xxz_gate(delta: float, dt: float) -> np.ndarray:
    """Two-site evolution gate exp(-i h dt) as a 4x4 unitary."""
    h = xxz_two_site_hamiltonian(delta)
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def trotter_layer_mpo(gate: np.ndarray, parity: str) -> MPO:
    """One parity layer of two-site gates as a two-site unit cell MPO.

    The gate is split across its bond by SVD (internal dimension at most
    d^2, trimmed at relative 1e-14 so the identity gate collapses to a
    trivial bond).  Parity "even" places gates on bonds (0,1), (2,3), ...;
    "odd" on (1,2), (3,4), ...
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    d = int(round(math.sqrt(gate.shape[0])))
    g = gate.reshape(d, d, d, d)           # (p1, p2, q1, q2)
    m = g.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    u, s, vh = svd(m)
    keep = int(np.sum(s > 1e-14 * s[0]))
    left = (u[:, :keep] * np.sqrt(s[:keep])).reshape(d, d, keep)
    right = (np.sqrt(s[:keep])[:, None] * vh[:keep]).reshape(keep, d, d)
    o_left = left[np.newaxis]            # (1, p1, q1, k)
    o_right = right[..., np.newaxis]     # (k, p2, q2, 1)
    if parity == "even":
        return MPO(o=[o_left, o_right])
    return MPO(o=[o_right, o_left])


def neel_state() -> UniformMPS:
    """|up down up down ...> as a two-site unit cell product state."""
    up = np.zeros((1, 2, 1), dtype=complex)
    up[0, 0, 0] = 1.0
    dn = np.zeros((1, 2, 1), dtype=complex)
    dn[0, 1, 0] = 1.0
    one = np.eye(1, dtype=complex)
    return UniformMPS(al=[up, dn], ar=[up, dn], c=[one, one])


def staggered_offset(state: UniformMPS, gate: np.ndarray) -> float:
    """Offset of the (1+Z)/2 occupation at site 0 from its maximal value
    1 once the two-site `gate` acts on sites (0, 1): the expectation of
    G^dag (P x 1) G on the state's center of those two sites, exact for a
    layer of such gates on the bonds (0, 1), (2, 3), ..."""
    theta = np.tensordot(state.ac(0), state.ar[1 % state.unit_cell],
                         axes=((2,), (0,)))                # (l, p1, p2, r)
    d = theta.shape[1]
    theta = gate @ theta.transpose(1, 2, 0, 3).reshape(d * d, -1)
    up = theta[:d]                                         # rows with p1 up
    return float(1.0 - np.vdot(up, up).real)


@dataclass
class EvolutionRecord:
    """One Trotter step: the offset of the state at `time`, and the
    residual `epsilon` and loss `infidelity` of the step's truncation,
    1 - |lambda|^2 with lambda the per-site overlap of its result with the
    image it approximates (the last step's also cover the closing half
    layer)."""

    time: float
    offset: float
    epsilon: float
    infidelity: float
    chi: int
    converged: bool


def apply_layer(state: UniformMPS, layer: MPO, chi_max: int, guess,
                eta: float, seed: int):
    """Variationally truncate `layer @ state` to at most `chi_max` in at
    most 200 iterations, initialized with the untouched state and with
    `guess` (bond-0 environment vectors, or None) for the first solve.
    `chi_max` is an upper bound: each bond is capped at the bond the
    product can hold, the state's times the layer's (see
    :func:`vomps_truncate`).  The result is mixed-canonical to `eta` only."""
    cfg = VompsConfig(target_chi=chi_max, eta=eta, max_iter=200, seed=seed)
    return vomps_truncate(state, cfg, mpo=layer, guess=guess)


def _truncation_loss(new, state, layer, report) -> float:
    """1 - |lambda|^2 of the truncation of `layer @ state` to `new`."""
    lam = report.final_lambda
    if report.converged and len(report.iterations) == 1:
        # a loop that stopped at its first update reports the lambda of
        # its start (the state before the layer), not its result's
        lam = environments(new, state, layer, tol=1e-13).lam
    return 1.0 - abs(lam) ** 2


def trotter_steps(dt: float, t_max: float) -> int:
    """The number of Trotter steps `dt` to `t_max`; ValueError unless `dt`
    is positive and `t_max` a non-negative whole number of steps, to 1e-9
    relative."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    steps = round(t_max / dt)
    if abs(t_max / dt - steps) > 1e-9 * t_max / dt:
        raise ValueError(f"t_max {t_max} is not a whole number of steps "
                         f"dt {dt}")
    return steps


def trotter_evolve(delta: float, dt: float, t_max: float, chi_max: int,
                   eta: float = 1e-10, seed: int = 0):
    """Evolve the Neel state under the XXZ Hamiltonian with second-order
    Trotter steps E_h O E_h (E_h the half-step even layer, O the full odd
    one), one variational truncation per step.

    N steps are applied as E_h (O E)^(N-1) O E_h, with E = E_h E_h the
    full even layer: step 1 truncates O E_h applied to the Neel state and
    every later step O E applied to the previous step's state phi_k, each
    warm-started from the previous step's environments.  Row k's offset is
    that of E_h phi_k, evaluated exactly on the gate's two sites, and one
    closing truncation of E_h phi_N gives the returned state, regauged
    exactly once.

    `t_max` must be a whole number of steps `dt` (see
    :func:`trotter_steps`).
    Returns that state and one :class:`EvolutionRecord` per step
    (including the t=0 row); a record's `converged` is true when its
    step's truncation converged, and the last record's epsilon, loss and
    `converged` cover the closing truncation too.
    """
    steps = trotter_steps(dt, t_max)
    half_gate = xxz_gate(delta, dt / 2)
    full_gate = xxz_gate(delta, dt)
    half_even = trotter_layer_mpo(half_gate, "even")
    odd = trotter_layer_mpo(full_gate, "odd")
    first = _stacked_layers(odd, half_even)
    later = _stacked_layers(odd, trotter_layer_mpo(full_gate, "even"))

    state = neel_state()
    records = [EvolutionRecord(time=0.0, offset=staggered_offset(
        state, np.eye(4)), epsilon=0.0, infidelity=0.0, chi=1,
        converged=True)]
    guess = None
    for k in range(steps):
        layer = first if k == 0 else later
        new, report = apply_layer(state, layer, chi_max, guess, eta=eta,
                                  seed=seed)
        loss = _truncation_loss(new, state, layer, report)
        state, guess = new, report.env_guess
        records.append(EvolutionRecord(
            time=(k + 1) * dt, offset=staggered_offset(state, half_gate),
            epsilon=report.final_epsilon, infidelity=loss,
            chi=max(state.bond_dims), converged=report.converged))
    if steps:
        new, report = apply_layer(state, half_even, chi_max, None, eta=eta,
                                  seed=seed)
        last = records[-1]
        last.epsilon = max(last.epsilon, report.final_epsilon)
        last.infidelity += _truncation_loss(new, state, half_even, report)
        last.chi = max(new.bond_dims)
        last.converged = last.converged and report.converged
        state = new
    return _regauge(state), records


# ---------------------------------------------------------------------------
# 2D classical Ising transfer matrix


def _ising_site_mpo(beta: float, spin_weight: np.ndarray) -> MPO:
    """One-site transfer MPO that sums over the site spin t with weight
    ``spin_weight[t]`` and half-weights on every leg.

    The bond weight matrix w(s, s') = exp(beta s s') has the eigenvectors
    (1, +-1)/sqrt(2) with eigenvalues 2 cosh(beta) and 2 sinh(beta); the
    vertical legs carry its symmetric square root r (r @ r = w), the
    horizontal ones the eigen-split f (f @ f.T = w).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    e = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    f = e @ np.diag([math.sqrt(math.exp(beta) + math.exp(-beta)),
                     math.sqrt(math.exp(beta) - math.exp(-beta))])
    r = f @ e.T
    o = np.einsum("pt,t,tq,tl,tr->lpqr", r, spin_weight, r, f, f)
    return MPO(o=[o])


def ising_mpo(beta: float) -> MPO:
    """Row-to-row transfer MPO of the square-lattice Ising ferromagnet at
    inverse temperature `beta` (D = 2).

    Physical legs live in the spin basis.  The site tensor sums over the
    site spin with half-weights on every leg, so the MPO is real and its
    own left-right mirror, as :func:`~vomps.truncation.power_method` needs.
    The antiferromagnet needs no MPO of its own (see the module docstring).
    """
    return _ising_site_mpo(beta, np.ones(2))


def ising_magnetization_mpo(beta: float) -> MPO:
    """Transfer MPO with the site spin inserted (impurity tensor)."""
    return _ising_site_mpo(beta, np.array([1.0, -1.0]))


def ising_magnetization(state: UniformMPS, beta: float) -> float:
    """Local magnetization of the 2D ferromagnet at the boundary-MPS fixed
    point `state`.

    Measured at site 0 as the ratio of the transfer channel with and
    without the spin impurity inserted, which is exact up to the bond
    truncation of the state.  The fixed point is its own image under the
    transfer MPO, so it is both the bra and the ket layer: each channel is
    the raw center of :func:`~vomps.truncation.compute_centers` (the shared
    gl -- AC -- O -- gr contraction) closed against AC.  At the
    antiferromagnet's fixed point, |m| is the same.
    """
    mpo = ising_mpo(beta)
    env = environments(state, state, mpo, tol=1e-12)
    ac = state.ac(0)
    imp, reg = (np.vdot(ac, _center_maps(env, o)[0][0](ac))
                for o in (ising_magnetization_mpo(beta), mpo))
    return float(np.real(imp / reg))


def ising_free_energy(lam_per_site: complex, beta: float) -> float:
    """Free energy per site from a per-site transfer eigenvalue."""
    return -math.log(abs(lam_per_site)) / beta


# ---------------------------------------------------------------------------
# Onsager references


def onsager_free_energy(beta: float) -> float:
    """Free energy per site of the square-lattice ferromagnet.

    Onsager's double integral ``(1/8pi^2) int int ln(a - s cos t1 - s cos
    t2)``, with ``a = cosh(2 beta)^2`` and ``s = sinh(2 beta)``, reduced to
    one angle by ``(1/2pi) int ln(x - s cos t) dt = ln((x + sqrt(x^2 -
    s^2)) / 2)``.  Near beta_c the remaining integrand's branch points
    close in on theta = 0, so the integral over [0, pi] runs through
    16-point Gauss-Legendre rules on the panels [0, pi 2^-40] and
    [pi 2^-k-1, pi 2^-k], k < 40, which hold it to rounding at and
    around beta_c.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    s = math.sinh(2.0 * beta)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.concatenate([[0.0], math.pi * 2.0 ** -np.arange(40.0, -1, -1)])
    lo, hi = edges[:-1, None], edges[1:, None]
    theta = (lo + hi) / 2 + (hi - lo) / 2 * nodes
    # x = a - s cos(theta); x - s, which vanishes at theta = 0 when
    # beta = beta_c, is formed without cancellation
    x_minus_s = (s - 1.0) ** 2 + 2.0 * s * np.sin(theta / 2.0) ** 2
    x = x_minus_s + s
    inner = np.log((x + np.sqrt(x_minus_s * (x + s))) / 2.0)
    integral = float(np.sum((hi - lo) / 2 * weights * inner))
    return -(math.log(2.0) + integral / (2.0 * math.pi)) / beta


def onsager_magnetization(beta: float) -> float:
    """Spontaneous magnetization (1 - sinh(2 beta)^-4)^(1/8), zero above
    the critical temperature."""
    if beta <= BETA_C:
        return 0.0
    return (1.0 - math.sinh(2.0 * beta) ** -4) ** 0.125


# ---------------------------------------------------------------------------
# exact diagonalization oracle

_ED_MAX_SITES = 20  # the longest chain the exact oracle evolves


def check_ed_chain(n_sites: int) -> None:
    """Raise ValueError unless :func:`ed_evolve` can run the Neel quench
    on a chain of `n_sites`."""
    if n_sites < 2 or n_sites % 2 != 0 or n_sites > _ED_MAX_SITES:
        raise ValueError("exact evolution of the Neel state needs an even "
                         f"chain of 2 to {_ED_MAX_SITES} sites, got {n_sites}")


def ed_evolve(n_sites: int, delta: float, times):
    """Staggered-offset trace of the Neel quench on a periodic chain, at
    finite non-negative `times`: offsets of the (1+Z)/2 occupation at site 0.

    The Hamiltonian Sx Sx + Sy Sy + delta Sz Sz on every bond (bit i of a
    basis state set when site i is down) is built on the Neel state's
    S^z = 0 sector only.  One real Chebyshev recurrence in H, mapped onto
    [-1, 1] by its Gershgorin bounds b - a and b + a, serves every time
    (Tal-Ezer and Kosloff 1984); it stops past a t_max where every time's
    coefficient (2 - delta_k0) (-i)^k J_k(a t) is below its rounding floor.
    """
    check_ed_chain(n_sites)
    times = np.asarray(list(times), dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError("exact evolution needs finite non-negative times")
    states = np.arange(1 << n_sites, dtype=np.int64)
    down = sum((states >> i) & 1 for i in range(n_sites))
    sector = states[down == n_sites // 2]
    dim = len(sector)
    diag, rows, cols = np.zeros(dim), [], []
    for i in range(n_sites):
        j = (i + 1) % n_sites
        z_i, z_j = (1.0 - 2.0 * ((sector >> k) & 1) for k in (i, j))
        diag += 0.25 * delta * z_i * z_j
        src = np.flatnonzero(z_i != z_j)
        rows.append(np.searchsorted(sector, sector[src] ^ (1 << i | 1 << j)))
        cols.append(src)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    radius = 0.5 * np.bincount(rows, minlength=dim)  # flip entries are 0.5
    lo, hi = np.min(diag - radius), np.max(diag + radius)
    half, shifted = (hi - lo) / 2, diag - (hi + lo) / 2
    # c_k(x) = (2 - delta_k0) / m sum_j exp(-i x cos theta_j) cos(k theta_j)
    # on theta_j = pi (j + 1/2) / m is exact up to c_{2m-k}; k theta_j is
    # taken mod 2 pi before its cosine
    x = half * times
    m = 2 * math.ceil(x.max(initial=0.0)) + 40
    k = np.arange(m)
    dct = np.cos(np.pi * ((2 * k[:, None] + 1) * k % (4 * m)) / (2 * m))
    coeffs = np.exp(-1j * np.outer(x, dct[:, 1])) @ dct * (2 - (k == 0)) / m
    coeffs[x == 0.0] = k == 0                      # exp(0) is T_0 exactly
    settled = np.all(np.abs(coeffs) <= 1e-15 * (1.0 + x[:, None]), axis=0)
    coeffs = coeffs[:, :np.argmax(settled & (k > x.max(initial=0.0)))]
    # site-0-up weights: quadratic forms in the Gram matrix of T_k psi there
    up = np.flatnonzero((sector & 1) == 0)
    neel = sum(1 << i for i in range(1, n_sites, 2))
    prev, cur = np.zeros(dim), (sector == neel).astype(float)
    basis = np.empty((coeffs.shape[1], len(up)))
    basis[0] = cur[up]
    for deg in range(1, len(basis)):
        h_cur = shifted * cur + 0.5 * np.bincount(rows, cur[cols], dim)
        prev, cur = cur, (1.0 + (deg > 1)) / half * h_cur - prev
        basis[deg] = cur[up]
    return 1.0 - np.sum((coeffs.conj() @ (basis @ basis.T)) * coeffs, 1).real
