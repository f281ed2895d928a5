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
isometries takes over (:class:`_Ascent`).  :func:`power_method` updates
with no source, in the gauge AR = AL^T: one environment solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .baseline import schmidt_truncate
from .tensor import leading_eig, polar, svd
from .umps import (
    MPO,
    MixedEnvironment,
    OrthogonalStatesError,
    UniformMPS,
    _bond_targets,
    _dot_last,
    _normalize_targets,
    _right_gauge_from_left,
    environments,
    left_orthonormalize,
    mpo_eigenvalue_per_site,
)


@dataclass(frozen=True)
class VompsConfig:
    """Knobs of the variational truncation loop and of the fixed-point
    solve :func:`power_method`.

    `target_chi` is a single bond dimension or one per bond of the working
    unit cell, an upper bound: each bond is capped at the bond the channel
    can hold (the source's bond times the MPO's), so a target above it
    asks for no truncation there (the fixed-point solve takes the targets
    as they are).  `eta` is the convergence threshold on the fixed-point
    residual and `max_iter` the iteration budget, of either loop; `init`
    is the truncation's starting state, None for the input state itself
    (:func:`power_method` takes its start as an argument, and cuts it).  A
    start whose bonds differ from the targets is fitted to them by
    :func:`fit_state_to_bonds` with `seed`.
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
    wall time, the matvecs of its eigensolves (both environments; in
    :func:`power_method` one for both and the centers), their relative
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
    """Per-iteration trace of the truncation loop (or of the fixed-point
    solve, whose `final_lambda` is that of its result, see
    :func:`power_method`).

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
    regauged: bool = False

    @property
    def final_epsilon(self) -> float:
        return self.iterations[-1].epsilon if self.iterations else math.inf

    @property
    def matvecs(self) -> int:
        """Matvecs of every eigensolve of the iterations."""
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
    passed straight through (the maps of :func:`_center_maps`, applied
    once).  Both are returned unit-normalized.
    """
    L = len(env.gl)
    source = source.extended(L // source.unit_cell)
    acp, cp = [], []
    for n, (h_ac, h_c) in enumerate(_center_maps(env, mpo)):
        raw_ac, raw_c = h_ac(source.ac(n)), h_c(source.c[n])
        scale = max(np.linalg.norm(env.gl[n]) * np.linalg.norm(env.gr[n]), 1.0)
        if (np.linalg.norm(raw_ac) < 1e-14 * scale
                or np.linalg.norm(raw_c) < 1e-14 * scale):
            raise OrthogonalStatesError(
                f"zero-norm center tensor at site {n}: states are orthogonal")
        acp.append(raw_ac / np.linalg.norm(raw_ac))
        cp.append(raw_c / np.linalg.norm(raw_c))
    return CenterPair(acp=acp, cp=cp)


def _center_maps(env: MixedEnvironment, mpo: MPO | None) -> list:
    """Per site n of the environments' cell, the map of a center tensor
    (left, phys, right) to gl[n] -- it through the MPO tensor -- gr[n]
    divided by the per-site eigenvalue, and the map of a bond matrix to
    gl[n+1] -- it -- gr[n].  A plain channel (`mpo` None, mpo bonds 1)
    skips the operator product."""
    L = len(env.gl)
    ops = (mpo.extended(L // mpo.unit_cell).o if mpo is not None
           else (None,) * L)
    return [(_ac_map(env.gl[n], ops[n], env.gr[n], env.lam),
             _c_map(env.gl[(n + 1) % L], env.gr[n])) for n in range(L)]


def _ac_map(gl, op, gr, lam):
    (a, m, _), b = gl.shape, len(gr)
    grm = gr.transpose(2, 1, 0).reshape(-1, b)
    if op is not None:
        _, q, _, k = op.shape
        opm = op.transpose(0, 2, 1, 3).reshape(-1, q * k)

    def apply(ac):
        p, r = ac.shape[1:]
        t = _dot_last(gl, ac.reshape(-1, p * r))  # (a, m, pr)
        if op is not None:
            t = np.dot(t.reshape(a, m, p, r).transpose(0, 3, 1, 2)
                       .reshape(a * r, m * p), opm)
            # (a, q, r, k): the operator's output leg is the physical one
            t, p = t.reshape(a, r, q, k).transpose(0, 2, 1, 3), q
        t = np.dot(t.reshape(a * p, -1), grm)
        return t.reshape(a, p, b) / lam

    return apply


def _c_map(gl, gr):
    grm = gr.transpose(1, 2, 0).reshape(-1, len(gr))
    return lambda c: np.dot(_dot_last(gl, c).reshape(len(gl), -1), grm)


def _leading_centers(env: MixedEnvironment, a: UniformMPS, mpo: MPO,
                     tol: float):
    """The leading eigenvectors of the one-site maps of :func:`_center_maps`,
    solved to `tol` from the centers of `a`, symmetrized (``.T`` mirrors
    AC) and phased.  Returns ``(pair, matvecs, converged)``."""
    found, matvecs, converged = [], 0, True
    for h, x in zip(_center_maps(env, mpo)[0], (a.ac(0), a.c[0])):
        res = leading_eig(lambda v: h(v.reshape(x.shape)).reshape(-1),
                          x.reshape(-1), tol=tol, max_iter=10_000)
        v = res.vector.reshape(x.shape)
        v = (v + v.T) / np.linalg.norm(v + v.T)
        z = np.vdot(v, x)
        found.append([v * (z / abs(z)) if z else v])
        matvecs += res.iterations
        converged &= bool(res.converged)
    return CenterPair(*found), matvecs, converged


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


class _Update(NamedTuple):
    """One :func:`_update`: its environments, the updated state, whether a
    singular bond matrix forced :func:`extract_gauges` to complete a
    factor, the residuals ``|AC' - AL C'|`` for the update's AL
    (`epsilon`) and the trial's (`step`), and the matvecs of all its
    eigensolves and whether each converged to its tolerance."""

    env: MixedEnvironment
    state: UniformMPS
    completed: bool
    epsilon: float
    step: float
    matvecs: int
    converged: bool

    @property
    def guess(self) -> tuple:
        """The environments' bond-0 vectors ``(left, right)``."""
        return self.env.gl[0].reshape(-1), self.env.gr[-1].reshape(-1)

    def record(self, report: TruncationReport, it: int, tol: float,
               t0: float):
        """Append this update as iteration `it` to `report`, which it
        flags as the update was flagged; `tol` is its solves' tolerance and
        its wall time runs from `t0`."""
        report.singular_completion |= self.completed
        report.degenerate |= self.env.degenerate
        report.iterations.append(IterationRecord(
            it, self.epsilon, self.step, abs(self.env.lam),
            1e3 * (time.perf_counter() - t0), self.matvecs, tol,
            self.converged))


def _update(a: UniformMPS, source: UniformMPS | None, mpo: MPO | None,
            tol: float, guess) -> _Update:
    """One tangent-space update of the trial `a` towards `source` (through
    `mpo`): environments solved to `tol` from `guess`, the centers AC' and
    C', and the gauges AL' and AR' they give.  With `source` None it is
    the fixed-point solve's: the environments of `a` with itself, of which
    :func:`environments` solves one for `a` in the gauge AR = AL^T, and as
    AC' and C' the symmetrized leading eigenvectors of the maps
    :func:`compute_centers` applies once (:func:`_leading_centers`),
    solved to `tol` from the centers of `a`; AR' is AL'^T exactly."""
    env = environments(a, a if source is None else source, mpo, tol=tol,
                       guess=guess)
    if source is None:
        cp, more, solved = _leading_centers(env, a, mpo, tol)
    else:
        cp, more, solved = compute_centers(env, source, mpo), 0, True
    matvecs, converged = env.matvecs + more, env.converged and solved
    al, ar, completed = extract_gauges(cp)
    ar = [al[0].T] if source is None else ar
    step = error_epsilon(cp, a.extended(len(al) // a.unit_cell).al)
    return _Update(env, UniformMPS(al=al, ar=ar, c=cp.cp), completed,
                   error_epsilon(cp, al), step, matvecs, converged)


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
    raw = [h_ac(source.ac(n)) for n, (h_ac, _) in
           enumerate(_center_maps(env, mpo))]
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
    unconverged one, it is regauged exactly, keeping AL'
    (``report.regauged``).  Non-convergence returns the last iterate,
    flagged in the report; a collapsing fidelity flags orthogonality.
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
    eps = math.inf
    lam_first = None
    env = None
    ascent = None

    # each record's wall time runs from the previous one's, so that it
    # includes the ascent's retraction to its trial
    t0 = time.perf_counter()
    for it in range(cfg.max_iter):
        tol_inner = _inner_tol(eps, cfg.eta)
        try:
            u = _update(a, m_ext, mpo, tol_inner, guess)
        except OrthogonalStatesError:
            report.orthogonal = True
            break
        u.record(report, it, tol_inner, t0)
        t0 = time.perf_counter()
        env, eps, guess = u.env, u.epsilon, u.guess
        trial, a = a, u.state

        if lam_first is None:
            lam_first = max(abs(env.lam), 1e-300)
        collapse = (abs(env.lam) < 1e-8 if mpo is None
                    else abs(env.lam) < 1e-8 * lam_first)
        if collapse:
            report.orthogonal = True
            break
        if eps < cfg.eta and u.converged:
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
    result, report.regauged = _regauge(a), True
    # _regauge keeps AL but turns each bond matrix C' into C' u: carry the
    # bra leg of the bond-0 right environment through the same unitary
    u0 = polar(a.c[-1].conj().T @ result.c[-1])
    gr = np.dot(u0.T, env.gr[-1].reshape(u0.shape[0], -1))
    report.env_guess = (guess[0], gr.reshape(-1))
    return result, report


def epsilon_measure(candidate: UniformMPS, m: UniformMPS) -> tuple:
    """Fixed-point residual of an arbitrary candidate state against a
    target, evaluated by a single :func:`_update` (both extend the unit
    cells to their least common multiple).

    Returns ``(epsilon, abs_lambda, guess, update)``: the residual, the
    per-site |λ| of the environment solve, the candidate's
    :func:`~vomps.umps.fidelity_per_site` with `m`, that solve's bond-0
    vectors ``(left, right)`` and the updated state.  A
    :func:`vomps_truncate` of `m` can start from that update, with those
    vectors as its `guess`: its own first update from `candidate` would
    solve the same pair again.
    """
    u = _update(candidate, m, None, 1e-13, None)
    return u.epsilon, float(abs(u.env.lam)), u.guess, u.state


def _inner_tol(eps: float, eta: float) -> float:
    """Relative tolerance of an iteration's eigensolves after an iteration
    of residual `eps` (inf before the first): a digit ahead of it, but at
    most 1e-5 and no tighter than ``eta / 10``."""
    return max(min(1e-5, eps / 10), eta / 10, 1e-14)


# ---------------------------------------------------------------------------
# the fixed point of a transfer MPO


def _mirror_start(a: UniformMPS) -> UniformMPS:
    """The one-site `a` made its own mirror, in the mirror-symmetric gauge:
    ``X = s^-1/2 AC s^-1/2`` in the Schmidt frame has ``X^T = Q^dag X Q``
    if `a` is its own mirror, Q the phases (signs if real) of the leading
    eigenvector of ``sum_s X_s^dag X_s^T``.  A = (X + Q X^T Q^dag)/2 is
    then X; with AL = l A l^-1 left canonical, C = l Q l^T, AR = AL^T."""
    u, s, vh = svd(a.c[0])
    x = np.einsum("i,ai,asb,jb,j->isj", s ** -0.5, u.conj(), a.ac(0),
                  vh.conj(), s ** -0.5)
    v = np.linalg.eigh(np.einsum("isj,jsi->ij", x.conj(), x))[1][:, -1]
    q = (v / v[np.argmax(abs(v))] / abs(v)).conj()
    (al,), (l,) = left_orthonormalize([(x + q[:, None, None] * x.T
                                        * q.conj()) / 2])
    c = (l * q) @ l.T
    return UniformMPS(al=[al], ar=[al.T], c=[c / np.linalg.norm(c)])


def power_method(mpo: MPO, init: UniformMPS, cfg: VompsConfig):
    """The fixed point of the square transfer MPO `mpo`, which must be its
    own mirror (:attr:`~vomps.umps.MPO.is_own_mirror`), at the bonds
    ``cfg.target_chi``, solved directly from the one-site `init` cut to
    those bonds (the name is that of the power iteration it replaced).

    Each iteration is one :func:`_update` with no source (VUMPS:
    Zauner-Stauber et al., arXiv:1701.07035; Fishman et al.,
    arXiv:1711.05881) in the mirror-symmetric gauge AR = AL^T from
    :func:`_mirror_start`: one eigensolve for both MPO environments of the
    state with itself, AC' and C' as the symmetrized leading eigenvectors
    of the maps that :func:`compute_centers` applies once, started from
    the state's own, and the gauges they give.  Its eigensolves run at the
    tolerance :func:`vomps_truncate` uses, its environment solves start
    from the previous iteration's.  The solve stops when the residual
    falls below ``cfg.eta`` over converged solves, after ``cfg.max_iter``
    iterations, or when the environments collapse (``report.orthogonal``).

    Returns ``(state, report)``: the last iterate, regauged exactly once,
    and a :class:`TruncationReport` with one :class:`IterationRecord` per
    iteration; ``report.final_lambda`` is the MPO's per-site eigenvalue in
    the returned state (:func:`~vomps.umps.mpo_eigenvalue_per_site`).
    `init` should be ordered, as ``vomps fixedpoint``'s is: a random real
    start approaches the non-injective superposition of the two ordered
    states.
    """
    if (mpo.phys_dims_out != mpo.phys_dims_in or not mpo.is_own_mirror
            or init.unit_cell != 1
            or init.bond_dims[0] < _normalize_targets(cfg.target_chi, 1)[0]):
        raise ValueError("power method needs a square self-mirror one-site "
                         "MPO and a one-site start at least target_chi wide")
    a = _mirror_start(fit_state_to_bonds(init, cfg.target_chi))
    report = TruncationReport()
    eps, guess = math.inf, None
    t0 = time.perf_counter()
    for it in range(cfg.max_iter):
        tol_inner = _inner_tol(eps, cfg.eta)
        try:
            u = _update(a, None, mpo, tol_inner, guess)
        except OrthogonalStatesError:
            report.orthogonal = True
            break
        u.record(report, it, tol_inner, t0)
        t0 = time.perf_counter()
        a, eps, guess = u.state, u.epsilon, u.guess
        if eps < cfg.eta and u.converged:
            report.converged = True
            break
    state = _regauge(a)
    report.final_lambda = mpo_eigenvalue_per_site(state, mpo)
    return state, report
