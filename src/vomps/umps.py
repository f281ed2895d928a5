"""Uniform MPS / MPO data model, gauge fixing, and mixed transfer machinery.

Conventions used throughout the package
---------------------------------------
* Site tensors carry indices ``(left bond, physical, right bond)``.
* MPO tensors carry indices ``(left bond, phys_out, phys_in, right bond)``.
* For a unit cell of ``L`` sites, bond ``k`` sits to the *left* of site
  ``k`` (cyclic, so bond ``L == 0``); the bond matrix ``c[n]`` lives on the
  bond to the *right* of site ``n``, i.e. bond ``(n+1) % L``, with indices
  ``(row, col)`` read left to right.
* Left environments ``gl[n]`` live on bond ``n`` with indices
  ``(bra bond, mpo bond, ket bond)``; right environments ``gr[n]`` live
  on bond ``(n+1) % L`` with the same ordering.  The bra layer is the
  conjugated one.  A channel without an MPO has an MPO bond of dimension
  1, so every bond vector has these three axes.
* Tensors are float64 when real, else complex128; a real channel runs in
  real arithmetic, with sign fixes and a real per-site eigenvalue.

All objects are immutable value types: arrays are frozen after
construction and every operation returns new values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    _float_array,
    leading_eig,
    qr_positive,
    rq_positive,
    svd,
)


class GaugeError(ValueError):
    """A state violates its canonical-form invariants."""


class OrthogonalStatesError(RuntimeError):
    """Mixed transfer eigenvalue vanished: the states are orthogonal."""


class CanonicalizationError(RuntimeError):
    """Gauge-fixing iteration failed to converge."""


def _freeze(a) -> np.ndarray:
    a = np.ascontiguousarray(_float_array(a))
    a.flags.writeable = False
    return a


def _dot_last(t, m) -> np.ndarray:
    """`t` contracted over its last axis with the rows of the matrix `m`,
    as ``np.tensordot(t, m, 1)`` computes it: one matrix product."""
    return np.dot(t.reshape(-1, t.shape[-1]), m).reshape(
        t.shape[:-1] + m.shape[1:])


def _check_finite(arrays, what: str):
    for i, a in enumerate(arrays):
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite entries in {what}[{i}]")


@dataclass(frozen=True)
class UniformMPS:
    """Translation-invariant MPS over an L-site unit cell in mixed gauge.

    ``al[n]`` / ``ar[n]`` are the left/right canonical site tensors,
    ``c[n]`` the bond matrix right of site ``n``.  Invariants (all to a
    gauge tolerance, see :meth:`check`): al isometric from the left, ar
    from the right, ``al[n] c[n] == c[n-1] ar[n]``, and ``|c[n]|_F == 1``.
    """

    al: tuple
    ar: tuple
    c: tuple

    def __init__(self, al, ar, c):
        object.__setattr__(self, "al", tuple(_freeze(a) for a in al))
        object.__setattr__(self, "ar", tuple(_freeze(a) for a in ar))
        object.__setattr__(self, "c", tuple(_freeze(m) for m in c))
        if not (len(self.al) == len(self.ar) == len(self.c)):
            raise ValueError("al, ar, c must have equal unit-cell length")
        _check_finite(self.al, "al")
        _check_finite(self.ar, "ar")
        _check_finite(self.c, "c")
        L = len(self.al)
        for n in range(L):
            if self.al[n].shape != self.ar[n].shape:
                raise ValueError(f"al/ar shape mismatch at site {n}")
            if self.al[n].shape[2] != self.al[(n + 1) % L].shape[0]:
                raise ValueError(f"cyclic bond mismatch at bond {(n + 1) % L}")
            if self.c[n].shape != (self.al[n].shape[2],) * 2:
                raise ValueError(f"c[{n}] shape {self.c[n].shape} does not "
                                 f"match bond dim {self.al[n].shape[2]}")

    @property
    def unit_cell(self) -> int:
        return len(self.al)

    @property
    def bond_dims(self):
        """Bond dimensions, length L+1 cyclic (last equals first)."""
        dims = [a.shape[0] for a in self.al]
        return dims + [dims[0]]

    @property
    def phys_dims(self):
        return [a.shape[1] for a in self.al]

    def ac(self, n: int) -> np.ndarray:
        """Center tensor al[n] @ c[n], indices (left, phys, right)."""
        return _dot_last(self.al[n], self.c[n])

    def extended(self, reps: int) -> "UniformMPS":
        """Unit cell repeated `reps` times (the same physical state)."""
        return self if reps == 1 else UniformMPS(
            al=self.al * reps, ar=self.ar * reps, c=self.c * reps)

    def check(self, tol: float = 1e-10) -> float:
        """Largest canonical-form residual; raises GaugeError above `tol`."""
        L = self.unit_cell
        worst = 0.0
        for n in range(L):
            chi_l, d, chi_r = self.al[n].shape
            ml = self.al[n].reshape(chi_l * d, chi_r)
            worst = max(worst, np.linalg.norm(
                ml.conj().T @ ml - np.eye(chi_r)))
            mr = self.ar[n].reshape(chi_l, d * chi_r)
            worst = max(worst, np.linalg.norm(
                mr @ mr.conj().T - np.eye(chi_l)))
            gauge = np.dot(self.c[(n - 1) % L], mr).reshape(chi_l, d, chi_r)
            worst = max(worst, np.linalg.norm(self.ac(n) - gauge))
            worst = max(worst, abs(np.linalg.norm(self.c[n]) - 1.0))
        if worst > tol:
            raise GaugeError(f"canonical residual {worst:.3e} exceeds {tol:.1e}")
        return worst


@dataclass(frozen=True)
class MPO:
    """Uniform matrix product operator over an L-site unit cell."""

    o: tuple

    def __init__(self, o):
        object.__setattr__(self, "o", tuple(_freeze(t) for t in o))
        _check_finite(self.o, "o")
        L = len(self.o)
        for n in range(L):
            if self.o[n].ndim != 4:
                raise ValueError(f"mpo tensor {n} must have 4 indices")
            if self.o[n].shape[3] != self.o[(n + 1) % L].shape[0]:
                raise ValueError(f"cyclic mpo bond mismatch at bond {(n + 1) % L}")

    @property
    def unit_cell(self) -> int:
        return len(self.o)

    @property
    def bond_dims(self):
        dims = [t.shape[0] for t in self.o]
        return dims + [dims[0]]

    @property
    def phys_dims_out(self):
        return [t.shape[1] for t in self.o]

    @property
    def phys_dims_in(self):
        return [t.shape[2] for t in self.o]

    def extended(self, reps: int) -> "MPO":
        return self if reps == 1 else MPO(o=self.o * reps)


def _stacked_layers(upper: MPO, lower: MPO) -> MPO:
    """`upper` applied after `lower` (equal unit cells), fused site by site
    into one MPO whose bonds are grouped (upper, lower)."""
    tensors = []
    for a, b in zip(upper.o, lower.o):
        (la, p, s, ra), (lb, _, q, rb) = a.shape, b.shape
        t = np.dot(a.transpose(0, 1, 3, 2).reshape(la * p * ra, s),
                   b.transpose(1, 0, 2, 3).reshape(s, lb * q * rb))
        t = t.reshape(la, p, ra, lb, q, rb).transpose(0, 3, 1, 4, 2, 5)
        tensors.append(t.reshape(la * lb, p, q, ra * rb))
    return MPO(o=tensors)


def _normalize_targets(target_chi, L: int | None):
    """Per-bond (or per-site) dimensions of an L-site cell from one
    dimension or L (any number when L is None).  A dimension is an integer
    >= 1, numpy integers included: a bool, a float or a string raises
    ValueError."""
    targets = ([target_chi] * (L or 1) if np.ndim(target_chi) == 0
               else list(target_chi))
    if any(isinstance(t, (bool, np.bool_)) or not hasattr(t, "__index__")
           or t < 1 for t in targets):
        raise ValueError(f"dimensions must be integers >= 1: {target_chi!r}")
    if L is not None and len(targets) != L:
        raise ValueError(f"need {L} per-bond targets, got {len(targets)}")
    return [operator.index(t) for t in targets]


def _check_isometric_targets(targets, phys_dims) -> None:
    """Raise ValueError unless bonds `targets` admit isometric tensors:
    on every site n, neither bond exceeds the other times phys_dims[n]."""
    L = len(targets)
    for n in range(L):
        nxt = (n + 1) % L
        if targets[nxt] > targets[n] * phys_dims[n] or \
                targets[n] > targets[nxt] * phys_dims[n]:
            raise ValueError(f"targets {targets} admit no isometric tensors "
                             f"at bond {nxt} (physical dims {phys_dims})")


def _bond_targets(requested, ranks, phys_dims):
    """The bonds that a truncation to `requested` (one dimension or one
    per bond) keeps, on a channel whose bonds hold at most `ranks` over
    sites of physical dimensions `phys_dims`.

    A target is an upper bound: each requested bond is capped at its rank,
    after the ranks are lowered to the ranks that isometric tensors can
    carry (a bond exceeds neither neighbor times the physical dimension
    between them).  Raises ValueError when the capped targets admit no
    isometric tensors."""
    L = len(ranks)
    ranks = list(ranks)
    changed = True
    while changed:
        changed = False
        for k in range(L):
            cap = min(ranks[(k - 1) % L] * phys_dims[(k - 1) % L],
                      ranks[(k + 1) % L] * phys_dims[k])
            if ranks[k] > cap:
                ranks[k] = cap
                changed = True
    targets = [min(t, r) for t, r in
               zip(_normalize_targets(requested, L), ranks)]
    _check_isometric_targets(targets, phys_dims)
    return targets


def random_uniform_mps(chi: int, d: int | Sequence[int], unit_cell: int = 1,
                       seed: int | np.random.Generator = 0) -> UniformMPS:
    """Random injective uniform MPS in mixed canonical form; `d` is one
    physical dimension or one per site."""
    rng = np.random.default_rng(seed)
    a = [rng.standard_normal((chi, dn, chi))
         + 1j * rng.standard_normal((chi, dn, chi))
         for dn in _normalize_targets(d, unit_cell)]
    return mixed_canonical(a)


# ---------------------------------------------------------------------------
# gauge fixing

# Sweep-to-sweep change, relative to the gauge, that ends a gauge iteration
_GAUGE_TOL = 1e-14
# Relative accuracy of the Arnoldi refresh in the gauge iterations: enough
# to seed the sweeps, and within reach of rounding (the refresh residuals
# of random states at bond dimensions 8-64 come out 4e-16 to 7e-15).
_REFRESH_TOL = 1e-13
# Sweep-to-sweep change, relative to the gauge, accepted when the sweeps
# make no progress even after a refresh (the default accuracy of
# UniformMPS.check).  Positive QR/RQ fixes the basis of directions whose
# Schmidt values lie below ~1e-14 only up to rounding, so on bonds larger
# than the state needs the sweeps settle into a cycle whose changes reach
# 4e-12 to 3e-11 at bond dimensions 32-48 (Trotter states soon after a
# product state).
_STALL_TOL = 1e-10
# The sweeps crawl when a change below _CRAWL_GAIN of the gauge shrinks
# less than 1 / _CRAWL_GAIN-fold per _REFRESH_EVERY sweeps (a refresh is
# solved on the current sweep's tensors and lands about as far off as the
# square of their error, so it cannot help a larger change): judged on
# every sweep against the change _CRAWL_SPAN sweeps earlier until the
# first refresh, then every _REFRESH_EVERY sweeps.
_CRAWL_GAIN = 0.05
_CRAWL_SPAN = 2
_REFRESH_EVERY = 4
# A refresh brings no progress when the change that called for it is not
# below half the smallest one at the earlier refreshes (no settling gauge
# of the tests and workloads had one); past this many, the sweeps cycle.
_IDLE_REFRESHES = 8
_MAX_SWEEPS = 10_000  # sweep budget of a gauge iteration


def _settle_gauge(sweep_once, gauges, fixed_point):
    """Repeat `sweep_once` until the bond-0 gauge ``gauges[0]`` settles.

    Converged when one sweep moves it by at most `_GAUGE_TOL` relative to
    its norm.  A crawl (see `_CRAWL_GAIN`) means progress is gap-limited or
    at the rounding floor: a change below the refresh's accuracy
    ``_REFRESH_TOL`` (below ``_STALL_TOL`` if the previous checkpoint
    refreshed) is accepted, and otherwise ``gauges[0]`` jumps to
    ``fixed_point()``, an Arnoldi solve of its fixed-point equation to
    ``_REFRESH_TOL``, phase-fixed and kept at the current norm.  The first
    refresh thus comes as soon as the sweeps crawl.
    Raises CanonicalizationError, naming the last change, after
    `_MAX_SWEEPS` sweeps or more than `_IDLE_REFRESHES` refreshes without
    progress.
    """
    changes, span, step = [], _CRAWL_SPAN, 1
    refreshed, best, idle = False, math.inf, 0
    for _ in range(_MAX_SWEEPS):
        old = gauges[0]
        sweep_once()
        scale = np.linalg.norm(gauges[0])
        residual = np.linalg.norm(gauges[0] - old)
        if residual <= _GAUGE_TOL * scale:
            return
        changes.append(residual)
        if len(changes) <= span or (len(changes) - 1) % step:
            continue
        gain = _CRAWL_GAIN ** (span / _REFRESH_EVERY)
        stalled = (gain * changes[-1 - span] < residual
                   < _CRAWL_GAIN * scale)
        floor = _STALL_TOL if refreshed else _REFRESH_TOL
        if stalled and residual <= floor * scale:
            return
        if stalled:
            idle += residual > best / 2
            if idle > _IDLE_REFRESHES:
                break
            best = min(best, residual)
            g = fixed_point()
            phase = _phase_reference(g)
            gauges[0] = g * (np.conj(phase) / abs(phase)
                             * scale / np.linalg.norm(g))
            changes, span, step = [residual], _REFRESH_EVERY, _REFRESH_EVERY
        refreshed = stalled
    raise CanonicalizationError(
        f"gauge iteration stalled (residual {residual:.2e}); the input may "
        "be non-injective")


def left_orthonormalize(a):
    """Gauge a unit cell of site tensors into left canonical form.

    Repeats positive-QR decompositions of (gauge @ a[n]) around the cell
    until the bond-0 gauge matrix moves by at most `_GAUGE_TOL` relative to
    its norm (see :func:`_settle_gauge`), which fixes the gauge to machine
    precision.  As soon as the sweeps crawl, the bond-0 gauge is refreshed
    by an Arnoldi solve of its fixed-point equation, which keeps
    convergence fast for states with small transfer gaps.
    Returns ``(al, gauges)`` with ``gauges[k]`` the (unit-RMS normalized)
    transform on bond ``k`` relating the input to ``al``.  Raises
    CanonicalizationError for (near-)non-injective inputs on which the
    iteration stalls (see :func:`_settle_gauge`).
    """
    a = [_float_array(t) for t in a]
    L = len(a)
    gauges = [np.eye(t.shape[0], dtype=t.dtype) for t in a]
    al = [None] * L

    def sweep_once():
        for n in range(L):
            chi_l, d, chi_r = a[n].shape
            m = gauges[n] @ a[n].reshape(chi_l, d * chi_r)
            q, r = qr_positive(m.reshape(-1, chi_r))
            al[n] = q.reshape(gauges[n].shape[0], d, chi_r)
            # unit-RMS normalization keeps the identity gauge at identity
            gauges[(n + 1) % L] = r / (np.linalg.norm(r)
                                       / math.sqrt(r.shape[0]))

    def fixed_point():
        # the leading left fixed point of the mixed transfer between the
        # current isometric estimate and the input
        op = _cell_transfer(al, a, "left", (None,) * L)
        res = leading_eig(op, gauges[0].reshape(-1), tol=_REFRESH_TOL,
                          max_iter=600)
        return res.vector.reshape(gauges[0].shape)

    _settle_gauge(sweep_once, gauges, fixed_point)
    return al, gauges


def _right_gauge_from_left(al, seed):
    """Right-canonical tensors and bond gauges for a left-isometric cell.

    Input must already be left canonical (unit transfer eigenvalue); the
    un-normalized RQ iteration from the bond gauges `seed` (None: the
    normalized identity) then converges to bond gauges ``r[k]`` with
    ``al[n] r[n+1] = r[n] ar[n]`` holding exactly at the fixed point.  The
    stopping rule and refreshes are those of :func:`left_orthonormalize`.
    """
    L = len(al)
    if seed is None:
        rs = [np.eye(t.shape[0], dtype=t.dtype) / math.sqrt(t.shape[0])
              for t in al]
    else:
        rs = list(seed)
    ar = [None] * L

    def sweep_once():
        for n in reversed(range(L)):
            chi_l, d, chi_r = al[n].shape
            m = al[n].reshape(chi_l * d, chi_r) @ rs[(n + 1) % L]
            r, q = rq_positive(m.reshape(chi_l, -1))
            ar[n] = q.reshape(chi_l, d, -1)
            rs[n] = r

    def fixed_point():
        # rs[0]^T is the leading fixed point of the right mixed transfer
        # between the current ar estimate and the input
        op = _cell_transfer(ar, al, "right", (None,) * L)
        res = leading_eig(op, rs[0].T.reshape(-1), tol=_REFRESH_TOL,
                          max_iter=600)
        return res.vector.reshape(rs[0].T.shape).T

    _settle_gauge(sweep_once, rs, fixed_point)
    return ar, rs


def mixed_canonical(a) -> UniformMPS:
    """Bring a unit cell of site tensors into mixed canonical form.

    Left-orthonormalizes, derives the right gauge from the resulting
    isometric family, and rotates every bond so the bond matrices are
    diagonal with descending Schmidt values.
    """
    al, _ = left_orthonormalize(a)
    return _schmidt_frame(al, None)


def _schmidt_frame(al, seed) -> UniformMPS:
    """Mixed canonical form of a left-isometric cell `al` in its Schmidt
    basis: the right gauge iteration, started from `seed` (the identity
    when None; see :func:`_right_gauge_from_left`), then every bond
    rotated so the bond matrices are diagonal with descending Schmidt
    values."""
    ar, rs = _right_gauge_from_left(al, seed)
    L = len(al)
    us, vs, c = [None] * L, [None] * L, [None] * L
    for n in range(L):
        # the bond matrix right of site n, on bond n+1
        u, s, vh = svd(rs[(n + 1) % L])
        us[(n + 1) % L] = u
        vs[(n + 1) % L] = vh.conj().T
        c[n] = np.diag(s).astype(al[n].dtype)
    al = [_rotate_bonds(us[n].conj().T, al[n], us[(n + 1) % L])
          for n in range(L)]
    ar = [_rotate_bonds(vs[n].conj().T, ar[n], vs[(n + 1) % L])
          for n in range(L)]
    c = [m / np.linalg.norm(m) for m in c]
    return UniformMPS(al=al, ar=ar, c=c)


def _rotate_bonds(x, a, y):
    """Site tensor with both bonds transformed, ``x @ a @ y`` over the
    (left, phys, right) axes of `a`: two matmuls on reshaped views."""
    chi_l, d, chi_r = a.shape
    t = (x @ a.reshape(chi_l, d * chi_r)).reshape(-1, chi_r) @ y
    return t.reshape(x.shape[0], d, y.shape[1])


# ---------------------------------------------------------------------------
# mixed transfer matrices and their fixed points


def _apply_left_site(v, topc, bot, op):
    """One site of the left mixed transfer: v has axes (bra, mpo, ket).

    `topc` is the conjugated top tensor, so that callers conjugate once per
    map rather than once per application.  A plain channel (`op` None, mpo
    bond 1) skips the operator contraction.
    """
    a, p, b = topc.shape
    c, q, d = bot.shape
    if op is None:
        t = (v.reshape(a, c).T @ topc.reshape(a, p * b)).reshape(c * p, b)
        return (t.T @ bot.reshape(c * p, d)).reshape(b, 1, d)
    m, n = op.shape[0], op.shape[3]
    t = v.reshape(a, m * c).T @ topc.reshape(a, p * b)       # (m c, p b)
    t = t.reshape(m, c, p, b).transpose(1, 3, 0, 2).reshape(c * b, m * p)
    t = t @ op.reshape(m * p, q * n)                           # (c b, q n)
    t = t.reshape(c, b, q, n).transpose(1, 3, 0, 2).reshape(b * n, c * q)
    return (t @ bot.reshape(c * q, d)).reshape(b, n, d)


def _apply_right_site(v, topc, bot, op):
    """One site of the right mixed transfer: v has axes (bra, mpo, ket),
    `topc` and `op` as in :func:`_apply_left_site`."""
    a, p, b = topc.shape
    c, q, d = bot.shape
    if op is None:
        t = (bot.reshape(c * p, d) @ v.reshape(b, d).T).reshape(c, p * b)
        return (topc.reshape(a, p * b) @ t.T).reshape(a, 1, c)
    m, n = op.shape[0], op.shape[3]
    t = bot.reshape(c * q, d) @ v.reshape(b * n, d).T          # (c q, b n)
    t = t.reshape(c, q, b, n).transpose(0, 2, 1, 3).reshape(c * b, q * n)
    t = t @ op.reshape(m * p, q * n).T                         # (c b, m p)
    t = t.reshape(c, b, m, p).transpose(3, 1, 2, 0).reshape(p * b, m * c)
    return (topc.reshape(a, p * b) @ t).reshape(a, m, c)


def _cell_tensors(top: UniformMPS, bottom: UniformMPS, mpo: MPO | None):
    """`top`, `bottom` and the per-site MPO tensors, all over the channel's
    common unit cell; a plain channel (`mpo` None) has None at every site."""
    reps = math.lcm(top.unit_cell, bottom.unit_cell,
                    mpo.unit_cell if mpo is not None else 1)
    top = top.extended(reps // top.unit_cell)
    bottom = bottom.extended(reps // bottom.unit_cell)
    ops = (mpo.extended(reps // mpo.unit_cell).o if mpo is not None
           else (None,) * reps)
    for n, (t, b, op) in enumerate(zip(top.al, bottom.al, ops)):
        dims = op.shape[1:3] if op is not None else (b.shape[1],) * 2
        if dims != (t.shape[1], b.shape[1]):
            raise ValueError(
                f"physical dims at site {n}: states ({t.shape[1]}, "
                f"{b.shape[1]}), channel {dims}")
    return top, bottom, ops


def _bond_shape(tops, bots, ops):
    """Axes (bra, mpo, ket) of a bond-0 vector of the channel through the
    per-site tensors; a plain channel (None operators) has mpo bond 1."""
    return (tops[0].shape[0], 1 if ops[0] is None else ops[0].shape[0],
            bots[0].shape[0])


def _cell_transfer(tops, bots, side, ops):
    """Mixed transfer through the given per-site tensors (`ops` None at
    every site of a plain channel), as a matvec on flat bond-0 vectors
    (top bond, mpo bond, bottom bond); bond 0 is both left of site 0 and,
    cyclically, right of the last site.  The top tensors are conjugated
    once here, not on every application."""
    shape = _bond_shape(tops, bots, ops)
    dim = math.prod(shape)
    order = range(len(tops)) if side == "left" else reversed(range(len(tops)))
    apply_site = _apply_left_site if side == "left" else _apply_right_site
    layers = [(np.conj(tops[n]), bots[n], ops[n]) for n in order]

    def matvec(vec):
        v = vec.reshape(shape)
        for topc, bot, op in layers:
            v = apply_site(v, topc, bot, op)
        return v.reshape(dim)

    return matvec


@dataclass(frozen=True)
class MixedEnvironment:
    """Left/right fixed points of a mixed transfer matrix.

    ``gl[n]`` sits on bond ``n``, ``gr[n]`` on bond ``(n+1) % L``, both
    with axes (bra, mpo, ket) and mpo bond 1 for a plain channel; ``lam``
    is the per-site eigenvalue (principal L-th root of the unit-cell
    eigenvalue, with the phase of gl[0] fixed so its generalized trace is
    real positive; a real root of the cell eigenvalue's sign for a real
    channel).  Normalization: closing gl[n] against gr[n-1] through
    the two bond matrices gives exactly 1.
    """

    gl: tuple
    gr: tuple
    lam: complex
    degenerate: bool
    converged: bool
    matvecs: int

    def __init__(self, gl, gr, lam, degenerate, converged, matvecs):
        object.__setattr__(self, "gl", tuple(_freeze(g) for g in gl))
        object.__setattr__(self, "gr", tuple(_freeze(g) for g in gr))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "degenerate", bool(degenerate))
        object.__setattr__(self, "converged", bool(converged))
        object.__setattr__(self, "matvecs", int(matvecs))


def _phase_reference(g: np.ndarray):
    """Deterministic phase reference of a bond vector (bra, mpo, ket) or a
    gauge matrix (read as mpo bond 1): generalized trace, else max entry."""
    g3 = g.reshape(g.shape[0], -1, g.shape[-1])
    z = sum(g3[i, :, i].sum() for i in range(min(g3.shape[0], g3.shape[2])))
    if abs(z) < 1e-12 * np.linalg.norm(g):
        z = g.flat[np.argmax(np.abs(g))]
    return z.item()


def _bond_pairing(gl, gr, c_top, c_bot):
    """Close gl (bond k) against gr (same bond) through the bond matrices."""
    a, m, c = gl.shape
    t = np.dot(np.conj(c_top).T, gl.reshape(a, m * c))  # (bra', m ket)
    t = np.dot(t.reshape(-1, c), c_bot)                  # (bra' m, ket')
    return np.dot(t.reshape(1, -1), gr.reshape(-1, 1)).item()


def _fitting_guess(guess, tops, bots, ops) -> np.ndarray:
    """`guess` when it is a bond-0 vector of the channel through the
    per-site tensors, else a deterministic, generic eigensolver guess: the
    identity on every mpo index, slightly perturbed (the real part of that
    for a real channel)."""
    shape = _bond_shape(tops, bots, ops)
    if guess is not None and np.size(guess) == math.prod(shape):
        return guess
    rng = np.random.default_rng(0x5EED)
    g = np.eye(shape[0], shape[2])[:, None, :] + 1e-3 * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    real = not any(map(np.iscomplexobj, (tops[0], bots[0], ops[0])))
    return g.reshape(-1).real if real else g.reshape(-1)


def environments(top: UniformMPS, bottom: UniformMPS, mpo: MPO | None = None,
                 tol: float = 1e-12, guess=None) -> MixedEnvironment:
    """Fixed-point environments of the mixed (optionally MPO-dressed)
    transfer matrix, with the package's normalization conventions applied.

    Only the bond-0 eigenproblems are solved; interior environments follow
    by single-site transfer application divided by the per-site eigenvalue.
    `guess` may carry ``(left_vector, right_vector)`` to warm-start the
    eigensolves; an entry that is None or does not fit the bond-0 shape
    falls back to the default guess.  Raises OrthogonalStatesError when the
    eigenvalue collapses to zero.  `degenerate` also flags a right solve
    that found the conjugate of the left eigenvalue (nearer it by more than
    ``tol`` relative), whose eigenvector does not pair with the left one.
    """
    top, bottom, ops = _cell_tensors(top, bottom, mpo)
    shape = _bond_shape(top.al, bottom.al, ops)
    L = len(ops)

    gl_guess, gr_guess = guess if guess is not None else (None, None)
    left = leading_eig(_cell_transfer(top.al, bottom.al, "left", ops),
                       _fitting_guess(gl_guess, top.al, bottom.al, ops),
                       tol=tol, max_iter=10_000)
    right = leading_eig(_cell_transfer(top.ar, bottom.ar, "right", ops),
                        _fitting_guess(gr_guess, top.al, bottom.al, ops),
                        tol=tol, max_iter=10_000)

    lam_cell = left.value
    mispaired = (abs(right.value - lam_cell)
                 - abs(right.value - np.conj(lam_cell)) > tol * abs(lam_cell))
    # a real eigenvalue gets the real root of its sign (pairings fix phase)
    lam = (lam_cell ** (1.0 / L) if isinstance(lam_cell, complex)
           else math.copysign(abs(lam_cell) ** (1.0 / L), lam_cell))
    if abs(lam) < 1e-12:
        raise OrthogonalStatesError(
            f"mixed transfer eigenvalue collapsed to {lam_cell:.3e}: "
            "the states are (numerically) orthogonal")

    gl = [None] * L
    gr = [None] * L
    gl[0] = left.vector.reshape(shape)
    phase = _phase_reference(gl[0])
    gl[0] = gl[0] * (np.conj(phase) / abs(phase))
    for n in range(1, L):
        gl[n] = _apply_left_site(gl[n - 1], np.conj(top.al[n - 1]),
                                 bottom.al[n - 1], ops[n - 1]) / lam

    gr[L - 1] = right.vector.reshape(shape)
    for n in reversed(range(L - 1)):
        gr[n] = _apply_right_site(gr[n + 1], np.conj(top.ar[n + 1]),
                                  bottom.ar[n + 1], ops[n + 1]) / lam

    # normalization: close gl[n] against gr[n-1] through the bond matrices
    for n in range(L):
        s = _bond_pairing(gl[n], gr[(n - 1) % L],
                          top.c[(n - 1) % L], bottom.c[(n - 1) % L])
        if abs(s) < 1e-14:
            raise OrthogonalStatesError(
                f"environment pairing vanished on bond {n}")
        gr[(n - 1) % L] = gr[(n - 1) % L] / s

    return MixedEnvironment(
        gl=gl, gr=gr, lam=lam,
        degenerate=left.degenerate or right.degenerate or mispaired,
        converged=left.converged and right.converged,
        matvecs=left.iterations + right.iterations)


# ---------------------------------------------------------------------------
# scalar quantities


def _leading_per_site(top: UniformMPS, bottom: UniformMPS,
                      mpo: MPO | None, tol: float, guess):
    """Leading eigenpair of the left unit-cell channel, started from
    `guess` (a left bond-0 vector of the channel; None, or one that does
    not fit, falls back to the default guess), and the channel's unit-cell
    length."""
    top, bottom, ops = _cell_tensors(top, bottom, mpo)
    res = leading_eig(_cell_transfer(top.al, bottom.al, "left", ops),
                      _fitting_guess(guess, top.al, bottom.al, ops),
                      tol=tol, max_iter=20_000)
    return res, len(ops)


def _fidelity_from(a: UniformMPS, b: UniformMPS, guess) -> float:
    """:func:`fidelity_per_site` with its eigensolve started from `guess`,
    as :func:`_leading_per_site` takes it."""
    res, L = _leading_per_site(a, b, None, 1e-13, guess)
    return float(abs(res.value) ** (1.0 / L))


def fidelity_per_site(a: UniformMPS, b: UniformMPS) -> float:
    """Per-site overlap magnitude |lambda| of two normalized states.

    This is the modulus of the leading mixed-transfer eigenvalue; it lies
    in [0, 1] for canonical states and equals 1 exactly when the states
    agree up to gauge.  The eigensolve starts cold, from the default guess.
    """
    return _fidelity_from(a, b, None)


def mpo_eigenvalue_per_site(state: UniformMPS, mpo: MPO) -> complex:
    """Per-site leading eigenvalue of the MPO channel with the state in
    both layers (principal branch of the unit-cell root)."""
    res, L = _leading_per_site(state, state, mpo, 1e-12, None)
    return complex(res.value) ** (1.0 / L)
