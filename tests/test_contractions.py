"""The package's contractions against the np.tensordot forms they replace.

Each contraction is written as the one matrix product tensordot builds
(the same transposes and reshapes, then one ``np.dot``), so it must agree
with the tensordot form bit for bit: real and complex, over a one- and a
two-site cell, through a plain and an MPO channel.  The magnetization
closes the truncation's raw centers instead of its own four tensordots,
which reorders the sums, so it agrees to rounding."""

import numpy as np
import pytest

from vomps.cli import _ordered_initial_state
from vomps.models import BETA_C, ising_magnetization, ising_mpo
from vomps.truncation import (
    CenterPair,
    VompsConfig,
    _fidelity_gradient,
    _tangent,
    compute_centers,
    error_epsilon,
    power_method,
)
from vomps.umps import (
    MPO,
    MixedEnvironment,
    _bond_pairing,
    _stacked_layers,
    mixed_canonical,
)

from oracles import (
    random_complex,
    tensordot_ac,
    tensordot_bond_pairing,
    tensordot_centers,
    tensordot_check,
    tensordot_error_epsilon,
    tensordot_fidelity_gradient,
    tensordot_magnetization,
    tensordot_stacked_layers,
)

DTYPES = [float, complex]
# bond dimensions of the source and the smaller trial state per cell size
BONDS = {1: ([9], [7]), 2: ([6, 8], [5, 6])}


def random_array(rng, dtype, *shape):
    return (random_complex(rng, *shape) if dtype is complex
            else rng.standard_normal(shape))


def random_state(rng, dtype, bonds, d=2):
    L = len(bonds)
    return mixed_canonical([random_array(rng, dtype, bonds[n], d,
                                         bonds[(n + 1) % L])
                            for n in range(L)])


def random_environment(rng, dtype, top, bottom, w):
    """Random bond vectors (bra, mpo, ket) on every bond of the channel."""
    L = len(top)
    gl = [random_array(rng, dtype, top[n], w, bottom[n]) for n in range(L)]
    gr = [random_array(rng, dtype, top[(n + 1) % L], w,
                       bottom[(n + 1) % L]) for n in range(L)]
    lam = 0.8 if dtype is float else 0.8 * np.exp(0.3j)
    return MixedEnvironment(gl=gl, gr=gr, lam=lam, degenerate=False,
                            converged=True, matvecs=0)


def channel(dtype, cell, with_mpo, seed=0):
    """A source state, a trial state, an MPO (or None) and random
    environments of the channel between them."""
    rng = np.random.default_rng(seed)
    bottom, top = BONDS[cell]
    source = random_state(rng, dtype, bottom)
    trial = random_state(rng, dtype, top)
    mpo = MPO(o=[random_array(rng, dtype, 2, 2, 2, 2)]) if with_mpo else None
    env = random_environment(rng, dtype, top, bottom, 2 if with_mpo else 1)
    return source, trial, mpo, env


CHANNELS = pytest.mark.parametrize(
    "dtype, cell, with_mpo",
    [(dtype, cell, with_mpo) for dtype in DTYPES for cell in (1, 2)
     for with_mpo in (False, True)])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cell", [1, 2])
def test_center_tensor_and_check(dtype, cell):
    state = random_state(np.random.default_rng(1), dtype, BONDS[cell][0])
    for n in range(cell):
        assert np.array_equal(state.ac(n), tensordot_ac(state, n))
    assert state.check(np.inf) == tensordot_check(state)


@CHANNELS
def test_compute_centers(dtype, cell, with_mpo):
    source, _, mpo, env = channel(dtype, cell, with_mpo)
    cp = compute_centers(env, source, mpo)
    acp, c = tensordot_centers(env, source, mpo)
    assert all(map(np.array_equal, cp.acp, acp))
    assert all(map(np.array_equal, cp.cp, c))


@CHANNELS
def test_fidelity_gradient(dtype, cell, with_mpo):
    source, trial, mpo, env = channel(dtype, cell, with_mpo)
    expected = _tangent(trial.al, tensordot_fidelity_gradient(
        env, source, mpo, trial))
    got = _fidelity_gradient(env, source, mpo, trial)
    assert all(map(np.array_equal, got, expected))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cell", [1, 2])
def test_error_epsilon(dtype, cell):
    rng = np.random.default_rng(2)
    state = random_state(rng, dtype, BONDS[cell][0])
    cp = CenterPair(
        acp=[t / np.linalg.norm(t) for t in (random_array(rng, dtype, *a.shape)
                                             for a in state.al)],
        cp=[m / np.linalg.norm(m) for m in (random_array(rng, dtype, *c.shape)
                                            for c in state.c)])
    assert error_epsilon(cp, state.al) == tensordot_error_epsilon(
        cp, state.al)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("w", [1, 2])
def test_bond_pairing(dtype, w):
    rng = np.random.default_rng(3)
    gl = random_array(rng, dtype, 7, w, 9)
    gr = random_array(rng, dtype, 7, w, 9)
    c_top = random_array(rng, dtype, 7, 7)
    c_bot = random_array(rng, dtype, 9, 9)
    assert (_bond_pairing(gl, gr, c_top, c_bot)
            == tensordot_bond_pairing(gl, gr, c_top, c_bot))


@pytest.mark.parametrize("dtype", DTYPES)
def test_stacked_layers(dtype):
    rng = np.random.default_rng(4)
    upper = MPO(o=[random_array(rng, dtype, 2, 2, 3, 3),
                   random_array(rng, dtype, 3, 2, 3, 2)])
    lower = MPO(o=[random_array(rng, dtype, 1, 3, 2, 2),
                   random_array(rng, dtype, 2, 3, 2, 1)])
    fused = _stacked_layers(upper, lower).o
    assert all(map(np.array_equal, fused,
                   tensordot_stacked_layers(upper, lower)))


@pytest.mark.parametrize("beta_rel", [1.01, 1.05])
def test_ising_magnetization(beta_rel):
    # the real fixed point at chi 8, as `vomps fixedpoint` computes it
    beta = beta_rel * BETA_C
    state, report = power_method(
        ising_mpo(beta), _ordered_initial_state(8, 0),
        VompsConfig(target_chi=8, eta=1e-9))
    assert report.converged
    assert all(t.dtype == np.float64 for t in state.al + state.c)
    m = ising_magnetization(state, beta)
    assert abs(m - tensordot_magnetization(state, beta)) <= 1e-14 * abs(m)
