import math

import numpy as np
import pytest

from vomps.cli import _ordered_initial_state
from vomps.models import (
    BETA_C,
    IsingParams,
    ed_evolve,
    ising_magnetization,
    ising_mpo,
    onsager_free_energy,
    onsager_magnetization,
    staggered_offset,
    trotter_layer_mpo,
    xxz_gate,
)
from vomps.truncation import PowerStop, VompsConfig, power_method
from vomps.umps import UniformMPS, random_uniform_mps

from oracles import (
    dense_local_expectation,
    dense_neel_quench_offsets,
    trapezoid_onsager_free_energy,
)

CATALAN = 0.915965594177219015054603514932384110774


class TestOnsagerFreeEnergy:
    @pytest.mark.parametrize("beta_rel", [0.5, 0.8, 1.2, 2.0])
    def test_matches_trapezoid_oracle(self, beta_rel):
        beta = beta_rel * BETA_C
        assert abs(onsager_free_energy(beta)
                   - trapezoid_onsager_free_energy(beta)) < 1e-12

    def test_closed_form_at_beta_c(self):
        # -beta_c f = ln(2)/2 + 2G/pi, G Catalan's constant; the double
        # integrand's logarithm vanishes at one point there
        exact = -(math.log(2.0) / 2.0 + 2.0 * CATALAN / math.pi) / BETA_C
        assert abs(onsager_free_energy(BETA_C) - exact) < 1e-14

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError, match="positive"):
            onsager_free_energy(0.0)


class TestEdEvolve:
    def test_matches_dense_expm(self):
        times = [0.7, 0.0, 0.25, 1.0, 0.25]
        offsets = ed_evolve(8, 0.5, times)
        dense = dense_neel_quench_offsets(8, 0.5, times)
        assert offsets[1] == 0.0
        np.testing.assert_allclose(offsets, dense, rtol=0, atol=1e-12)

    def test_rejects_odd_chain(self):
        with pytest.raises(ValueError, match="even"):
            ed_evolve(7, 0.5, [0.1])


class TestIsingMagnetization:
    def test_afm_matches_fm_and_onsager(self):
        # away from beta_c the chi-4 fixed points hold m to ~2e-6; the afm
        # one is the fm one with every other spin flipped, so the two
        # magnetizations agree to the power method's accuracy.  1e-8 holds
        # while the afm start is the sublattice flip of the fm one (2.6e-9);
        # afm starts with noise of their own gave 4e-8 to 1.1e-7
        beta = 1.2 * BETA_C
        cfg = VompsConfig(target_chi=4, eta=1e-9, max_iter=100)
        m = {}
        for coupling in (1, -1):
            params = IsingParams(beta=beta, coupling=coupling)
            state, report = power_method(
                ising_mpo(params), _ordered_initial_state(4, coupling, 0), cfg,
                PowerStop())
            assert report.converged
            m[coupling] = abs(ising_magnetization(state, params))
        assert abs(m[1] - m[-1]) < 1e-8
        for value in m.values():
            assert abs(value - onsager_magnetization(beta)) < 1e-5


class TestStaggeredOffset:
    @pytest.mark.parametrize("seed", range(2))
    def test_gate_layer_matches_dense_expectation(self, seed):
        # the two-site formula against the state with the whole even layer
        # applied site by site (bonds grown by the layer's, no canonical
        # form), its occupation taken from dense transfer fixed points
        state = random_uniform_mps(3, 2, unit_cell=2, seed=seed)
        gate = xxz_gate(0.7, 0.3)
        layer = trotter_layer_mpo(gate, "even")
        dressed = []
        for a, o in zip(state.al, layer.o):
            t = np.einsum("aqb,mpqn->ampbn", a, o)
            dressed.append(t.reshape(a.shape[0] * o.shape[0], a.shape[1],
                                     a.shape[2] * o.shape[3]))
        bonds = [np.eye(t.shape[2]) for t in dressed]
        exact = dense_local_expectation(
            UniformMPS(al=dressed, ar=dressed, c=bonds), np.diag([1.0, 0.0]))
        assert abs(staggered_offset(state, gate) - (1.0 - exact.real)) < 1e-12
        # the identity gate leaves the plain occupation
        plain = dense_local_expectation(state, np.diag([1.0, 0.0]))
        assert abs(staggered_offset(state, np.eye(4))
                   - (1.0 - plain.real)) < 1e-12
