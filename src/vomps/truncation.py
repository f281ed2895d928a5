"""Variational truncation of uniform MPS by per-site fidelity optimization.

The driver :func:`vomps_truncate` approximates a given state (optionally
with an MPO applied to it) by a state of smaller bond dimension.  Each
iteration is one tangent-space update, :func:`_update` (which
:func:`epsilon_measure` takes once): it solves the mixed-transfer
fixed-point equations for the trial state, forms updated center tensors
from the environments, extracts isometric gauge tensors through polar
decompositions, and measures the residual of the center fixed-point
relation.  The polar extraction is exact at a fixed point ``AC = AL C``
and otherwise leaves a residual within sqrt(2) of the best isometry (see
:func:`extract_gauges`).  The fixed points of this iteration are exactly
the variationally optimal truncations.  Where the iteration crawls or
cycles instead, a Riemannian L-BFGS ascent of the fidelity over the left
isometries takes over (:class:`_Ascent`).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .baseline import schmidt_truncate
from .tensor import polar, svd
from .umps import (
    MPO,
    MixedEnvironment,
    OrthogonalStatesError,
    UniformMPS,
    _bond_targets,
    _dot_last,
    _normalize_targets,
    _right_gauge_from_left,
    _stacked_layers,
    environments,
    fidelity_per_site,
    mpo_eigenvalue_per_site,
)


@dataclass(frozen=True)
class VompsConfig:
    """Knobs of the variational truncation loop.

    `target_chi` is a single bond dimension or one per bond of the working
    unit cell, an upper bound: each bond is capped at the bond the channel
    can hold (the source's bond times the MPO's), so a target above it
    asks for no truncation there.  `eta` is the convergence threshold on
    the fixed-point residual (in :func:`power_method`, the first step's
    threshold and the floor of the later steps'); `init` is the starting
    state, None for the input state itself.  A start whose bonds differ
    from the targets is fitted to them by :func:`fit_state_to_bonds` with
    `seed`.
    """

    target_chi: int | Sequence[int]
    eta: float = 1e-10
    max_iter: int = 500
    init: UniformMPS | None = None
    seed: int = 0

    def __post_init__(self):
        if self.init is not None and not isinstance(self.init, UniformMPS):
            raise ValueError(f"init must be a UniformMPS or None, "
                             f"got {self.init!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        _normalize_targets(self.target_chi, None)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class CenterPair:
    """Updated center tensors, one per site, each of unit Frobenius norm.

    ``acp[n]`` has indices (left, phys, right) and ``cp[n]`` (row, col) on
    the bond right of site n, matching the state layout.
    """

    acp: tuple
    cp: tuple

    def __init__(self, acp, cp):
        object.__setattr__(self, "acp", tuple(np.asarray(t) for t in acp))
        object.__setattr__(self, "cp", tuple(np.asarray(m) for m in cp))
        for t in self.acp + self.cp:
            if abs(np.linalg.norm(t) - 1.0) > 1e-8:
                raise ValueError("center tensors must be unit-normalized")


@dataclass
class IterationRecord:
    """One outer iteration: fixed-point residual, step residual, |lambda|,
    wall time, the matvecs of its environment solves, their relative
    tolerance and whether they converged to it.  Both residuals are
    ``|AC' - AL C'|`` of the updated centers: `epsilon` with AL the
    update's own left gauge, `step` with AL the left gauge of the iterate
    whose environments were solved, so that `step` measures how far the
    update moved it (at a fixed point both vanish).  Once the ascent has
    taken over, each trial of its line search is one iteration."""

    iteration: int
    epsilon: float
    step: float
    abs_lambda: float
    wall_ms: float
    matvecs: int
    tol_inner: float
    solves_converged: bool


@dataclass
class TruncationReport:
    """Per-iteration trace of the truncation loop.

    `final_lambda` is the per-site eigenvalue of the last iteration's
    environment solve, that is of the state before the loop's final
    update: the fidelity is stationary at the optimum, so near it this
    matches the returned state's to second order in that update.
    `env_guess` holds that solve's bond-0 vectors ``(left, right)``, the
    right one carried into the bond matrices of a regauged result, which
    can warm-start a related truncation.
    """

    iterations: list = field(default_factory=list)
    converged: bool = False
    final_lambda: complex = 0.0
    orthogonal: bool = False
    degenerate: bool = False
    singular_completion: bool = False
    env_guess: tuple | None = None

    @property
    def final_epsilon(self) -> float:
        return self.iterations[-1].epsilon if self.iterations else math.inf

    @property
    def matvecs(self) -> int:
        """Matvecs of every environment solve of the truncation."""
        return sum(r.matvecs for r in self.iterations)


# ---------------------------------------------------------------------------
# one iteration's ingredients


def compute_centers(env: MixedEnvironment, source: UniformMPS,
                    mpo: MPO | None = None) -> CenterPair:
    """Updated center tensors from converged environments.

    ``acp[n]`` contracts gl[n] -- center tensor of the source through the
    MPO tensor (skipped for a plain source) -- gr[n], divided by the
    per-site eigenvalue, in the one contraction that
    :func:`~vomps.models.ising_magnetization` also reads; ``cp[n]``
    contracts gl[n+1] -- source bond matrix -- gr[n], with MPO bonds
    passed straight through.  Both are returned unit-normalized.
    """
    L = len(env.gl)
    source = source.extended(L // source.unit_cell)
    acp, cp = [], []
    for n, raw_ac in enumerate(_raw_centers(env, source, mpo)):
        gl, gr = env.gl[(n + 1) % L], env.gr[n]  # both on bond n+1
        raw_c = np.dot(_dot_last(gl, source.c[n]).reshape(len(gl), -1),
                       gr.transpose(1, 2, 0).reshape(-1, len(gr)))

        scale = max(np.linalg.norm(env.gl[n]) * np.linalg.norm(env.gr[n]), 1.0)
        if (np.linalg.norm(raw_ac) < 1e-14 * scale
                or np.linalg.norm(raw_c) < 1e-14 * scale):
            raise OrthogonalStatesError(
                f"zero-norm center tensor at site {n}: states are orthogonal")
        acp.append(raw_ac / np.linalg.norm(raw_ac))
        cp.append(raw_c / np.linalg.norm(raw_c))
    return CenterPair(acp=acp, cp=cp)


def _raw_centers(env: MixedEnvironment, source: UniformMPS,
                 mpo: MPO | None):
    """Per site, gl[n] -- source center tensor through the MPO tensor --
    gr[n] divided by the per-site eigenvalue, not normalized (`source`
    already spans the environments' cell).  A plain channel (`mpo` None,
    mpo bonds 1) skips the operator product."""
    L = len(env.gl)
    ops = mpo.extended(L // mpo.unit_cell).o if mpo is not None else None
    for n in range(L):
        ac = source.ac(n)
        (a, m, _), (_, p, r), b = env.gl[n].shape, ac.shape, len(env.gr[n])
        t = _dot_last(env.gl[n], ac.reshape(-1, p * r))  # (a, m, pr)
        if ops is not None:
            _, q, _, k = ops[n].shape
            t = np.dot(t.reshape(a, m, p, r).transpose(0, 3, 1, 2)
                       .reshape(a * r, m * p),
                       ops[n].transpose(0, 2, 1, 3).reshape(m * p, q * k))
            # (a, q, r, k): the operator's output leg is the physical one
            t, p = t.reshape(a, r, q, k).transpose(0, 2, 1, 3), q
        t = np.dot(t.reshape(a * p, -1),
                   env.gr[n].transpose(2, 1, 0).reshape(-1, b))
        yield t.reshape(a, p, b) / env.lam


def extract_gauges(cp: CenterPair):
    """Isometric gauge tensors from updated centers via polar factors.

    Per site, with ``AC = U_A |AC|`` (grouped (left*phys, right)) and
    ``C = U_C |C|`` the left polar decompositions, the left gauge is
    ``AL = U_A U_C^dag``; the right gauge mirrors this with right polar
    decompositions and the bond matrix on the other side.

    At a consistent pair ``AC = AL C`` this recovers AL exactly.  In
    general the residual is ``|AC - AL C| = | |AC| - |C| |`` (Frobenius),
    which lies between the minimum of ``|AC - W C|`` over isometries W
    and sqrt(2) times it; the right gauge obeys the mirrored bound with
    ``|AC^dag|`` and ``|C^dag|``.  The exact minimizer, the orthogonal
    Procrustes solution ``polar(AC C^dag)``, is not used: where C is
    numerically rank-deficient (early Trotter layers from a product
    state), ``AC C^dag`` erases those directions, AL is set by rounding
    noise there and the outer iteration stalls above its threshold.

    Returns ``(al, ar, completed)`` where `completed` reports whether a
    numerically singular bond matrix forced the SVD to complete the
    unitary factor.  The bond matrices are square, so the left and right
    polar factors of each are the same ``U Vh`` of a single SVD.
    """
    w_c = []
    completed = False
    for c in cp.cp:
        u, s, vh = svd(c)
        w_c.append(u @ vh)
        completed |= bool(s[-1] < 1e-14 * s[0])
    al, ar = [], []
    for n, ac in enumerate(cp.acp):
        chi_l, d, chi_r = ac.shape
        w_ac_l = polar(ac.reshape(chi_l * d, chi_r))
        al.append((w_ac_l @ w_c[n].conj().T).reshape(chi_l, d, chi_r))
        w_ac_r = polar(ac.reshape(chi_l, d * chi_r))
        ar.append((w_c[n - 1].conj().T @ w_ac_r).reshape(chi_l, d, chi_r))
    return al, ar, completed


def error_epsilon(cp: CenterPair, al) -> float:
    """Fixed-point residual |acp - al cp| on unit-normalized centers,
    maximized over the unit cell."""
    eps = 0.0
    for n in range(len(cp.acp)):
        recomposed = _dot_last(al[n], cp.cp[n])
        eps = max(eps, float(np.linalg.norm(cp.acp[n] - recomposed)))
    return eps


def _update(a: UniformMPS, source: UniformMPS, mpo: MPO | None,
            tol: float, guess):
    """One tangent-space update of the trial `a` towards `source` (through
    `mpo`): environments solved to `tol` from `guess`, the centers AC' and
    C', and the gauges AL' and AR' they give.  Returns ``(env, updated
    state, completed, epsilon, step)``, with `completed` as in
    :func:`extract_gauges` and the residuals ``|AC' - AL C'|`` for the
    update's AL (`epsilon`) and the trial's (`step`)."""
    env = environments(a, source, mpo, tol=tol, guess=guess)
    cp = compute_centers(env, source, mpo)
    al, ar, completed = extract_gauges(cp)
    step = error_epsilon(cp, a.extended(len(al) // a.unit_cell).al)
    return (env, UniformMPS(al=al, ar=ar, c=cp.cp), completed,
            error_epsilon(cp, al), step)


# ---------------------------------------------------------------------------
# initialization helpers


def fit_state_to_bonds(state: UniformMPS, targets,
                       seed: int = 0) -> UniformMPS:
    """Deform a state to prescribed per-bond dimensions.

    Bonds above target are cut by discarding the smallest Schmidt values.
    Bonds below target grow exactly, in the canonical frame: each AL is
    embedded in the larger bonds and completed by orthonormal columns
    from the null space of its grouped matrix (drawn at random with
    `seed`, real for a real state), each AR mirrors this, and each C
    gains a zero block, so ``AL' C' = C' AR'`` holds by construction and
    the grown state is the input state.
    """
    L = state.unit_cell
    targets = _normalize_targets(targets, L)
    cut = [min(t, c) for t, c in zip(targets, state.bond_dims[:L])]
    if cut != state.bond_dims[:L]:
        state, _ = schmidt_truncate(state, cut)
    if targets == state.bond_dims[:L]:
        return state
    rng = np.random.default_rng(seed)
    al, ar, c = [], [], []
    for n in range(L):
        chi_l, chi_r = targets[n], targets[(n + 1) % L]
        al.append(_grown_isometry(state.al[n], chi_l, chi_r, rng))
        # AR mirrored, (right, phys, left), is a left isometry
        ar.append(_grown_isometry(state.ar[n].transpose(2, 1, 0), chi_r,
                                  chi_l, rng).transpose(2, 1, 0))
        c.append(np.pad(state.c[n], (0, chi_r - state.c[n].shape[0])))
    return UniformMPS(al=al, ar=ar, c=c)


def _grown_isometry(a, chi_l: int, chi_r: int, rng) -> np.ndarray:
    """Left isometry `a` embedded in bonds (chi_l, chi_r): its columns
    padded with zero rows, then completed by random orthonormal columns
    orthogonal to them (two projection passes keep that to rounding)."""
    l, d, r = a.shape
    m = np.pad(a, ((0, chi_l - l), (0, 0), (0, 0))).reshape(chi_l * d, r)
    extra = rng.standard_normal((chi_l * d, chi_r - r))
    if np.iscomplexobj(a):
        extra = extra + 1j * rng.standard_normal(extra.shape)
    for _ in range(2):
        extra, _ = np.linalg.qr(extra - m @ (m.conj().T @ extra))
    return np.hstack([m, extra]).reshape(chi_l, d, chi_r)


def _initial_state(m: UniformMPS, cfg: VompsConfig, targets, phys_dims,
                   work_cell: int) -> UniformMPS:
    """`cfg.init` (else `m`) over the working cell, fitted to `targets`."""
    a0 = m if cfg.init is None else cfg.init
    if work_cell % a0.unit_cell != 0:
        raise ValueError("init state unit cell incompatible with problem")
    a0 = a0.extended(work_cell // a0.unit_cell)
    if a0.phys_dims != phys_dims:
        raise ValueError("init state physical dims do not match")
    if a0.bond_dims[:work_cell] != targets:
        a0 = fit_state_to_bonds(a0, targets, seed=cfg.seed)
    return a0


def _regauge(state: UniformMPS) -> UniformMPS:
    """Exact mixed-canonical form of a state with isometric AL, which it
    keeps; the state's C seeds the right-gauge iteration (c[n] sits on
    bond n+1, while the gauge list is indexed by bond).
    """
    L = state.unit_cell
    seed = [state.c[(k - 1) % L] for k in range(L)]
    ar, rs = _right_gauge_from_left(list(state.al), seed)
    c = [rs[(n + 1) % L] for n in range(L)]
    c = [m / np.linalg.norm(m) for m in c]
    return UniformMPS(al=state.al, ar=ar, c=c)


# ---------------------------------------------------------------------------
# ascent for a stalled loop


# the loop hands over to :class:`_Ascent` when its residual fell less than
# tenfold over this many iterations: the update crawls or cycles (cold
# starts that converge fall more than a hundredfold over as many)
_STALL_WINDOW = 30
# curvature pairs the ascent keeps
_MEMORY = 8
# halvings of a step before the line search takes it as it is
_MAX_HALVINGS = 20


def _tangent(al, z) -> list:
    """`z` projected on the tangent space of the left isometries `al`,
    grouped (left*phys, right): ``z - al sym(al^dag z)``."""
    out = []
    for a, x in zip(al, z):
        am = a.reshape(-1, a.shape[2])
        b = am.conj().T @ x.reshape(am.shape)
        out.append(x - (am @ (b + b.conj().T) / 2).reshape(a.shape))
    return out


def _dot(x, y) -> float:
    return sum(float(np.vdot(u, v).real) for u, v in zip(x, y))


def _fidelity_gradient(env: MixedEnvironment, source: UniformMPS,
                       mpo: MPO | None, a: UniformMPS) -> list:
    """Gradient of ``-log|lambda|`` (per site) over the left isometries of
    the canonical trial `a` that `env` was solved for: the tangent part of
    ``-AC' C^dag / L``, with AC' the center before normalization.  Up to
    that normalization its tangent part is ``-(AC' - AL C') C^dag / L``,
    the loop's residual read as a gradient (Hauru, Van Damme, Haegeman,
    arXiv:2007.03638)."""
    L = a.unit_cell
    raw = _raw_centers(env, source, mpo)
    return _tangent(a.al, [-_dot_last(t, c.conj().T) / L
                           for t, c in zip(raw, a.c)])


def _retract(a: UniformMPS, d, t: float) -> UniformMPS:
    """The canonical state whose left isometries are the polar factors of
    ``al + t d`` (the right gauge seeded by the bond matrices of `a`)."""
    al = [polar((x + t * v).reshape(-1, x.shape[2])).reshape(x.shape)
          for x, v in zip(a.al, d)]
    return _regauge(UniformMPS(al=al, ar=a.ar, c=a.c))


class _Ascent:
    """Riemannian L-BFGS for ``f = -log|lambda|`` over the left isometries.

    The loop's update is a fixed-point map whose fixed points are the
    stationary points of f; where that map crawls or cycles, this descends
    f directly.  Tangent vectors move to a new point by projection, and a
    step of length t along d retracts to the polar factor of ``al + t d``.
    The line search halves t from 1 until f falls by Armijo's margin (to
    within rounding of f), at most `_MAX_HALVINGS` times.
    :meth:`next_trial` takes the canonical trial the loop evaluated last,
    with its f and gradient, and returns the next trial to evaluate.
    """

    def __init__(self):
        self.pairs = []
        self.base = None

    def next_trial(self, a: UniformMPS, f: float, g) -> UniformMPS:
        if self.base is not None:
            b, f0, g0, d, slope, t = self.base
            noise = 1e-14 * max(abs(f0), 1.0)
            if f > f0 + 1e-4 * t * slope + noise and \
                    t > 0.5 ** _MAX_HALVINGS:
                self.base = (b, f0, g0, d, slope, t / 2)
                return _retract(b, d, t / 2)
            # the step is taken: keep its curvature pair, at the new point
            s = _tangent(a.al, [t * x for x in d])
            y = [u - v for u, v in zip(g, _tangent(a.al, g0))]
            self.pairs = [(_tangent(a.al, p), _tangent(a.al, q))
                          for p, q in self.pairs]
            if _dot(s, y) > 0:
                self.pairs = (self.pairs + [(s, y)])[-_MEMORY:]
        d = self._direction(g)
        if _dot(g, d) >= 0:
            # transported pairs can lose positive curvature
            self.pairs = []
            d = self._direction(g)
        self.base = (a, f, g, d, _dot(g, d), 1.0)
        return _retract(a, d, 1.0)

    def _direction(self, g) -> list:
        """The two-loop recursion's ``-H g``; without pairs, a step of
        length at most 0.1 against the gradient."""
        q, alphas = g, []
        for s, y in reversed(self.pairs):
            alphas.append(_dot(s, q) / _dot(y, s))
            q = [u - alphas[-1] * v for u, v in zip(q, y)]
        if self.pairs:
            s, y = self.pairs[-1]
            gamma = _dot(s, y) / _dot(y, y)
        else:
            gamma = min(1.0, 0.1 / math.sqrt(_dot(g, g)))
        r = [gamma * u for u in q]
        for (s, y), alpha in zip(self.pairs, reversed(alphas)):
            beta = _dot(y, r) / _dot(y, s)
            r = [u + (alpha - beta) * v for u, v in zip(r, s)]
        return [-u for u in r]


# ---------------------------------------------------------------------------
# the main loop


def vomps_truncate(m: UniformMPS, cfg: VompsConfig,
                   mpo: MPO | None = None, guess=None):
    """Variationally approximate `m` (or `mpo` applied to `m`) at the
    target bond dimensions, each capped at the channel's bond (the bond of
    `m` times that of `mpo`) and at the ranks isometric tensors can carry
    (see :func:`~vomps.umps._bond_targets`).

    Returns ``(state, report)``.  The loop repeats :func:`_update` until
    the fixed-point residual drops below ``cfg.eta`` over converged
    environment solves; each solve starts from the previous iteration's
    solution.  If the residual falls less than tenfold over
    `_STALL_WINDOW` iterations, the trials come from :class:`_Ascent`
    instead, starting at the update regauged.
    `guess` may carry bond-0 environment vectors ``(left, right)`` for the
    first solve, such as the ``report.env_guess`` of a truncation of a
    nearby problem.  The loop solves no environments after it stops:
    ``report.final_lambda`` and ``report.env_guess`` come from its last
    recorded solve (see :class:`TruncationReport`).  A converged result is
    the loop's last iterate if that passes :meth:`UniformMPS.check` at
    ``cfg.eta`` (the residual bounds ``AL' C'`` only), else, like an
    unconverged one, it is regauged exactly, keeping AL'.  Non-convergence
    returns the last iterate, flagged in the report; a collapsing fidelity
    flags orthogonality instead of looping forever.
    """
    work_cell = math.lcm(m.unit_cell, mpo.unit_cell if mpo else 1)
    m_ext = m.extended(work_cell // m.unit_cell)
    ranks, phys_dims = m_ext.bond_dims[:work_cell], m_ext.phys_dims
    if mpo is not None:
        mpo_ext = mpo.extended(work_cell // mpo.unit_cell)
        ranks = [c * d for c, d in zip(ranks, mpo_ext.bond_dims)]
        phys_dims = mpo_ext.phys_dims_out
    targets = _bond_targets(cfg.target_chi, ranks, phys_dims)

    a = _initial_state(m_ext, cfg, targets, phys_dims, work_cell)
    report = TruncationReport()
    eps = eps_prev = 1e-2
    lam_first = None
    env = None
    ascent = None

    # each record's wall time runs from the previous one's, so that it
    # includes the ascent's retraction to its trial
    t0 = time.perf_counter()
    for it in range(cfg.max_iter):
        # near a fixed point the residual falls faster than linearly (about
        # quadratically), so solve for the one the last ratio predicts
        eps_next = eps * min(1.0, eps / eps_prev)
        # and keep the inner eigensolves (relative to the eigenvalue) about
        # two digits ahead of it, but no tighter than eta / 10
        tol_inner = max(min(1e-5, eps_next / 100.0), cfg.eta / 10, 1e-14)
        try:
            env, update, completed, residual, step = _update(
                a, m_ext, mpo, tol_inner, guess)
        except OrthogonalStatesError:
            report.orthogonal = True
            break
        report.singular_completion |= completed
        report.degenerate |= env.degenerate
        eps_prev, eps = eps, residual
        trial, a = a, update
        guess = (env.gl[0].reshape(-1), env.gr[-1].reshape(-1))
        report.iterations.append(IterationRecord(
            it, eps, step, abs(env.lam), 1e3 * (time.perf_counter() - t0),
            env.matvecs, tol_inner, env.converged))
        t0 = time.perf_counter()

        if lam_first is None:
            lam_first = max(abs(env.lam), 1e-300)
        collapse = (abs(env.lam) < 1e-8 if mpo is None
                    else abs(env.lam) < 1e-8 * lam_first)
        if collapse:
            report.orthogonal = True
            break
        if eps < cfg.eta and env.converged:
            report.converged = True
            break
        if ascent is not None:
            a = ascent.next_trial(
                trial, -math.log(abs(env.lam)),
                _fidelity_gradient(env, m_ext, mpo, trial))
        elif it >= _STALL_WINDOW and \
                eps > report.iterations[-1 - _STALL_WINDOW].epsilon / 10:
            ascent = _Ascent()
            a = _regauge(a)

    if report.orthogonal:
        report.final_lambda = env.lam if env is not None else 0.0
        return a, report

    report.final_lambda = env.lam
    if report.converged and a.check(math.inf) <= cfg.eta:
        report.env_guess = guess
        return a, report
    result = _regauge(a)
    # _regauge keeps AL but turns each bond matrix C' into C' u: carry the
    # bra leg of the bond-0 right environment through the same unitary
    u0 = polar(a.c[-1].conj().T @ result.c[-1])
    gr = np.dot(u0.T, env.gr[-1].reshape(u0.shape[0], -1))
    report.env_guess = (env.gl[0].reshape(-1), gr.reshape(-1))
    return result, report


def epsilon_measure(candidate: UniformMPS,
                    m: UniformMPS) -> tuple[float, float]:
    """Fixed-point residual of an arbitrary candidate state against a
    target, evaluated by a single :func:`_update` (both extend the unit
    cells to their least common multiple).

    Returns ``(epsilon, abs_lambda)``: the residual and the per-site |λ| of
    the environment solve, the candidate's
    :func:`~vomps.umps.fidelity_per_site` with `m`.
    """
    env, _, _, eps, _ = _update(candidate, m, None, 1e-13, None)
    return eps, float(abs(env.lam))


# ---------------------------------------------------------------------------
# power method


# the longest oscillation period the power method looks for
_PERIOD_MAX = 4
# a power step after the first truncates to this fraction of the distance
# the previous step moved the state, sqrt(step infidelity)
_STEP_FRACTION = 1e-2


@dataclass(frozen=True)
class PowerStop:
    """Stopping rule for the MPO power method: converged when a step
    moves the state by an infidelity below `tol`."""

    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class PowerRecord:
    """One power step: its infidelity with the previous step, the step
    residual of its truncation's first update, and the |lambda|, residual
    and environment-solve matvecs of its truncation.  `infidelity` is the
    exact ``1 - fidelity_per_site(new, previous)`` on the steps where
    :func:`power_method` solved it, else the estimate ``step**2 / 2``."""

    iteration: int
    infidelity: float
    step: float
    abs_lambda: float
    epsilon: float
    wall_ms: float
    matvecs: int


@dataclass
class PowerReport:
    """The power steps, whether an exactly solved step infidelity fell
    below the stop's `tol`, how many of the steps' truncations ended
    unconverged, the period of the last iterates (1 for a converged loop,
    searched for an unconverged one) and the MPO's per-site eigenvalue."""

    iterations: list = field(default_factory=list)
    converged: bool = False
    unconverged_truncations: int = 0
    period: int = 1
    final_lambda: complex = 0.0


def power_method(mpo: MPO, init: UniformMPS, cfg: VompsConfig,
                 stop: PowerStop = PowerStop()):
    """Repeated MPO application with variational truncation.

    Each step truncates `mpo` applied to the state and measures how far
    that moved it, one minus the per-site fidelity between the new state
    and the previous one (the record's ``infidelity``: the fixed point of a
    one-site cell is its own translation).  The truncation starts from the
    previous state, so the step residual of its first update, ``|AC' - AL
    C'|`` with the previous state's AL (the record's ``step``), is the
    tangent-space size of the move, and ``step**2 / 2`` estimates the
    infidelity to second order.  That estimate sizes the next step's
    threshold.  Only a step whose estimate lies below ``stop.tol`` solves
    the exact fidelity, which replaces the estimate in its record, and
    the loop stops when that exact value is below ``stop.tol``.

    The first step is truncated to ``cfg.eta``, started from `init`: there
    is no previous step to size it against, and an `init` that is already
    the fixed point then stops after one step.  Step k >= 1 is truncated to
    ``max(cfg.eta, _STEP_FRACTION * sqrt(infidelity of step k-1))``, a
    residual matched to how far the steps still move the state, and starts
    from the previous state.  At a fixed point of the power map one
    truncation update returns the fixed point itself, so the loop
    converges to the same state as one that truncates every step to
    ``cfg.eta``.  ``report.unconverged_truncations`` counts the steps
    whose truncation missed its threshold.

    A converged loop has shown period 1 through its last exact solve.  An
    unconverged one searches ``report.period``, the smallest p up to
    ``_PERIOD_MAX`` for which the last iterate matches the one p steps
    earlier (0 if none).  ``report.final_lambda`` is the per-site
    eigenvalue of the MPO: the square root of that of two stacked layers
    with the state in both, a sharper variational estimate than the
    one-layer value.  Each step's environment solves start from the
    previous step's solutions.  Steps hand on states canonical to their
    truncation's eta; the returned state is regauged exactly.  A step whose
    truncation collapses as orthogonal is not recorded: the loop stops
    unconverged at the previous state, so a collapse reads as
    ``report.converged`` False with fewer records than ``stop.max_iter``.

    `init` should be ordered, as ``vomps fixedpoint``'s is: the loop has no
    defence against a random real start.  At beta = 1.01 beta_c, chi 8 and
    eta 1e-9 a step's regauge raises CanonicalizationError from the draws
    ``default_rng(s).standard_normal((8, 2, 8))``, up slice doubled, s = 2, 3.
    """
    if mpo.phys_dims_out != mpo.phys_dims_in:
        raise ValueError("power method needs a square MPO")
    state = init
    step_cfg = replace(cfg, init=state)
    report = PowerReport()
    recent = deque([state], maxlen=_PERIOD_MAX + 1)
    env_guess = None
    for it in range(stop.max_iter):
        t0 = time.perf_counter()
        new_state, step = vomps_truncate(state, step_cfg, mpo=mpo,
                                         guess=env_guess)
        if step.orthogonal:
            break
        env_guess = step.env_guess
        residual = step.iterations[0].step
        infidelity = residual ** 2 / 2
        exact = infidelity < stop.tol
        if exact:
            infidelity = max(1.0 - fidelity_per_site(new_state, state), 0.0)
        wall_ms = 1e3 * (time.perf_counter() - t0)
        report.iterations.append(PowerRecord(
            it, infidelity, residual, abs(step.final_lambda),
            step.final_epsilon, wall_ms, step.matvecs))
        report.unconverged_truncations += not step.converged
        recent.append(new_state)
        state = new_state
        if exact and infidelity < stop.tol:
            report.converged = True
            break
        step_cfg = replace(cfg, init=state, eta=max(
            cfg.eta, _STEP_FRACTION * math.sqrt(infidelity)))

    state = _regauge(state)
    if not report.converged:
        report.period = 0
        for p in range(1, len(recent)):
            if 1.0 - fidelity_per_site(recent[-1], recent[-1 - p]) < \
                    10 * max(stop.tol, 1e-12):
                report.period = p
                break
    report.final_lambda = complex(
        mpo_eigenvalue_per_site(state, _stacked_layers(mpo, mpo))) ** 0.5
    return state, report
