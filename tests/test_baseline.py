import functools

import numpy as np
import pytest

from vomps.baseline import schmidt_truncate
from vomps.models import (
    BETA_C,
    ising_mpo,
    trotter_evolve,
    trotter_layer_mpo,
    xxz_gate,
)
from vomps.tensor import svd
from vomps.truncation import VompsConfig, vomps_truncate
from vomps.umps import (
    MPO,
    environments,
    fidelity_per_site,
    mixed_canonical,
    random_uniform_mps,
)

from oracles import (
    correlated_random_state,
    dense_product_spectrum,
    random_complex,
    schmidt_values,
    state_with_spectrum,
)

ISING = ising_mpo(1.01 * BETA_C)
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
    (capped at representable ranks): VOMPS without truncation."""
    chi_max = max(m.bond_dims) * max(mpo.bond_dims)
    product, report = vomps_truncate(
        m, VompsConfig(target_chi=chi_max, eta=1e-12), mpo=mpo)
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
        got = schmidt_values(result, 0)
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


def test_cut_without_isometric_tensors_is_rejected():
    # site 0 would map bond 5 into 2 * 2 = 4 dimensions; the cut and the
    # variational truncation reject such targets by the same rule, before
    # any gauge sweep fails on them
    state = random_uniform_mps(6, [2, 3], unit_cell=2, seed=0)
    message = r"targets \[5, 2\] admit no isometric tensors at bond 1 "
    with pytest.raises(ValueError, match=message):
        schmidt_truncate(state, [5, 2])
    with pytest.raises(ValueError, match=message):
        vomps_truncate(state, VompsConfig(target_chi=[5, 2]))
    # a target above the current bond asks for no cut there
    with pytest.raises(ValueError, match=r"targets \[6, 2\] .* at bond 1 "):
        schmidt_truncate(state, [9, 2])


def rotated_cut(state, targets):
    """The tensors a Schmidt cut canonicalizes: every AL projected on the
    kept left singular vectors of the bond matrices on either side."""
    L = state.unit_cell
    us = [None] * L
    for n in range(L):
        us[(n + 1) % L] = svd(state.c[n])[0][:, :targets[(n + 1) % L]]
    return [np.einsum("xa,apb,by->xpy", us[n].conj().T, state.al[n],
                      us[(n + 1) % L]) for n in range(L)]


class TestSeededCut:
    """The cut's re-canonicalization starts its right gauge iteration from
    the kept Schmidt values; it must land where the identity start of
    `mixed_canonical` lands on injective inputs, and on the cut's own
    fixed point where the transfer spectrum is degenerate to rounding."""

    @pytest.mark.parametrize("state, targets", [
        (random_uniform_mps(8, 2, seed=1), [5]),
        (random_uniform_mps(6, 2, unit_cell=2, seed=2), [3, 5]),
        (correlated_random_state(8, seed=3), [4]),
        (correlated_random_state(8, seed=4).extended(2), [3, 5]),
        (random_uniform_mps(6, [2, 3], unit_cell=2, seed=5), [4, 2]),
    ], ids=["random-1", "random-2", "correlated-1", "correlated-2",
            "mixed-dims-2"])
    def test_matches_the_identity_start_on_injective_inputs(self, state,
                                                            targets):
        got, _ = schmidt_truncate(state, targets)
        want = mixed_canonical(rotated_cut(state, targets))
        assert abs(1.0 - fidelity_per_site(got, want)) <= 1e-14
        for bond in range(state.unit_cell):
            assert np.max(np.abs(schmidt_values(got, bond)
                                 - schmidt_values(want, bond))) <= 1e-13
        got.check(1e-12)

    @pytest.mark.parametrize("spectrum, seed, chi", [
        ([1, .3, .1, .01, 1e-12, 1e-13], 1, 4),
        ([1, .6, .3, .1, 1e-8], 0, 3)])
    def test_near_degenerate_cut_keeps_its_schmidt_values(self, spectrum,
                                                          seed, chi):
        # AL is diagonal up to shift weights of ~1e-16, so the cut state
        # has the kept values as its Schmidt values; from the identity the
        # right gauge iteration settled on another fixed point (off by
        # 0.49 and 0.33) while the canonical-form check still passed
        state = state_with_spectrum(spectrum, seed=seed)
        got, _ = schmidt_truncate(state, chi)
        kept = np.sort(spectrum)[::-1][:chi]
        kept = kept / np.linalg.norm(kept)
        assert np.max(np.abs(schmidt_values(got, 0) - kept)) <= 1e-12
        got.check(1e-12)
