import functools

import numpy as np
import pytest

from vomps.baseline import MemoryGuardError, mpo_mps_local_truncate
from vomps.models import (
    BETA_C,
    IsingParams,
    ising_mpo,
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


@functools.lru_cache(maxsize=None)
def untruncated(name):
    """(state, mpo, local truncation above the product rank, dense norm per
    site, dense bond-0 Schmidt values) of one product."""
    mpo, chi, _ = PRODUCTS[name]
    m = correlated_random_state(chi, seed=1)
    return (m, mpo, mpo_mps_local_truncate(m, mpo, 64),
            *dense_product_spectrum(m, mpo))


@pytest.mark.parametrize("name", sorted(PRODUCTS))
class TestMpoMpsLocalTruncate:
    """Untruncated products (`new_chi` above the product rank) against the
    dense O^dag O channel.  The even Trotter layer has MPO bonds (1, 4) and
    the complex one (1, 3), so their bond 0 is not the largest one."""

    def test_overlap_is_the_product_norm(self, name):
        m, mpo, result, norm, _ = untruncated(name)
        lam = abs(environments(result, m, mpo, tol=1e-13).lam)
        assert abs(lam - norm) < 1e-10 * norm
        if PRODUCTS[name][2]:
            # a unitary layer preserves the norm
            assert abs(lam - 1.0) < 1e-10

    def test_bond0_schmidt_values_match_product_spectrum(self, name):
        *_, result, _, want = untruncated(name)
        got = result.schmidt_values(0)
        assert np.max(np.abs(got - want[:len(got)])) < 1e-10
        assert np.linalg.norm(want[len(got):]) < 1e-6


def test_vomps_overlap_at_least_local():
    m = correlated_random_state(8, seed=1)
    local = mpo_mps_local_truncate(m, ISING, 8)
    result, report = vomps_truncate(m, VompsConfig(target_chi=8), mpo=ISING)
    assert report.converged
    lam_local = abs(environments(local, m, ISING, tol=1e-13).lam)
    lam_vomps = abs(environments(result, m, ISING, tol=1e-13).lam)
    assert lam_vomps >= lam_local - 1e-12 * lam_local


def test_memory_guard_refuses_with_estimate_and_guard():
    # chi 8, d 2, D 2: the fixed points and Krylov basis of the product
    # transfer take 16 (chi D)^2 (d + 34) bytes, about 0.141 MiB
    m = correlated_random_state(8, seed=1)
    with pytest.raises(MemoryGuardError) as info:
        mpo_mps_local_truncate(m, ISING, 4, mem_limit_bytes=1024)
    message = str(info.value)
    assert f"~{16 * 16**2 * 36 / 2**20:.3g} MiB" in message
    assert "chi=8, d=2, D=2" in message
    assert f"guard is {1024 / 2**20:.3g} MiB" in message
