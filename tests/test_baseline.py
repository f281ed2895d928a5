import functools

import numpy as np
import pytest

from vomps.baseline import schmidt_truncate
from vomps.models import (
    BETA_C,
    IsingParams,
    _layer_targets,
    ising_mpo,
    trotter_evolve,
    trotter_layer_mpo,
    xxz_gate,
)
from vomps.truncation import VompsConfig, vomps_truncate
from vomps.umps import MPO, environments

from oracles import (
    correlated_random_state,
    dense_product_spectrum,
    random_complex,
)

ISING = ising_mpo(IsingParams(beta=1.01 * BETA_C))
_rng = np.random.default_rng(3)
# name -> (mpo, state bond dimension, whether the mpo is unitary); the dense
# oracle works on the squared bond-0 product dimension, so the odd layer,
# whose bond 0 carries the MPO bond 4, runs at a smaller state bond
PRODUCTS = {
    "complex": (MPO(o=[random_complex(_rng, 1, 2, 2, 3),
                       random_complex(_rng, 3, 2, 2, 1)]), 4, False),
    "ising": (ISING, 8, False),
    "trotter_even": (trotter_layer_mpo(xxz_gate(0.5, 0.05), "even"), 8, True),
    "trotter_odd": (trotter_layer_mpo(xxz_gate(0.5, 0.05), "odd"), 4, True),
}


def full_product(m, mpo):
    """The product ``mpo @ m`` in canonical form at its full bonds chi*D
    (clamped to representable ranks): VOMPS without truncation."""
    chi_max = max(m.bond_dims) * max(mpo.bond_dims)
    full = _layer_targets(m, mpo, chi_max)
    product, report = vomps_truncate(
        m, VompsConfig(target_chi=full, eta=1e-12), mpo=mpo)
    assert report.converged
    return product


@functools.lru_cache(maxsize=None)
def untruncated(name):
    """(state, mpo, full product, dense norm per site, dense bond-0
    Schmidt values) of one product."""
    mpo, chi, _ = PRODUCTS[name]
    m = correlated_random_state(chi, seed=1)
    return (m, mpo, full_product(m, mpo), *dense_product_spectrum(m, mpo))


@pytest.mark.parametrize("name", sorted(PRODUCTS))
class TestMpoMpsLocalTruncate:
    """Untruncated products against the dense O^dag O channel.  The even
    Trotter layer has MPO bonds (1, 4) and the complex one (1, 3), so
    their bond 0 is not the largest one."""

    def test_overlap_is_the_product_norm(self, name):
        m, mpo, result, norm, _ = untruncated(name)
        lam = abs(environments(result, m, mpo, tol=1e-13).lam)
        assert abs(lam - norm) < 1e-13 * norm
        if PRODUCTS[name][2]:
            # a unitary layer preserves the norm
            assert abs(lam - 1.0) < 1e-13

    def test_bond0_schmidt_values_match_product_spectrum(self, name):
        *_, result, _, want = untruncated(name)
        got = result.schmidt_values(0)
        assert np.max(np.abs(got - want[:len(got)])) < 1e-11
        assert np.linalg.norm(want[len(got):]) < 1e-6


def test_vomps_overlap_at_least_local():
    m = correlated_random_state(8, seed=1)
    product = full_product(m, ISING)
    for new_chi in (8, 6, 4):
        local, _ = schmidt_truncate(product, new_chi)
        result, report = vomps_truncate(m, VompsConfig(target_chi=new_chi),
                                        mpo=ISING)
        assert report.converged
        lam_local = abs(environments(local, m, ISING, tol=1e-13).lam)
        lam_vomps = abs(environments(result, m, ISING, tol=1e-13).lam)
        assert lam_vomps >= lam_local - 1e-12 * lam_local


def test_rank_deficient_product_keeps_its_fidelity():
    # a Trotter state with Schmidt values down to 4.2e-8 times the odd
    # layer: the product is rank deficient at its full bonds, so a gauge
    # built from the separate top eigenvectors of its two fixed points
    # does not pair them up; a cut at or above its numerical rank must
    # lose nothing
    state, _ = trotter_evolve(0.5, 0.05, 1.0, 16)
    odd = trotter_layer_mpo(xxz_gate(0.5, 0.05), "odd")
    product = full_product(state, odd)

    def infidelity(new):
        return 1.0 - abs(environments(new, state, odd, tol=1e-13).lam) ** 2

    for new_chi in (16, 12):
        assert infidelity(schmidt_truncate(product, new_chi)[0]) <= 1e-12
    local = infidelity(schmidt_truncate(product, 8)[0])
    result, report = vomps_truncate(state, VompsConfig(target_chi=8),
                                    mpo=odd)
    assert report.converged
    assert infidelity(result) <= local + 1e-12
