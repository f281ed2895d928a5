import math

import numpy as np
import pytest

import vomps.models as models
from vomps.models import (
    BETA_C,
    apply_layer,
    ed_evolve,
    ising_mpo,
    onsager_free_energy,
    staggered_offset,
    trotter_evolve,
    trotter_layer_mpo,
    xxz_gate,
)
from vomps.umps import UniformMPS, random_uniform_mps

from oracles import (
    correlated_random_state,
    dense_environment_eigenvalue,
    dense_ising_row_transfer,
    dense_local_expectation,
    dense_mpo_operator,
    dense_neel_quench_offsets,
    sparse_neel_quench_offsets,
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
    # Delta away from 0.5 pins the ZZ diagonal; on the two-site ring both
    # bonds join sites 0 and 1, so their flip entries must be summed; t 10
    # takes the Chebyshev expansion far past its degree on evolve's grid
    @pytest.mark.parametrize("n_sites, delta",
                             [(8, 0.5), (8, -0.7), (8, 2.0), (2, 0.5)])
    def test_matches_dense_expm(self, n_sites, delta):
        times = [0.7, 0.0, 0.25, 1.0, 0.25, 10.0, 4.5]
        offsets = ed_evolve(n_sites, delta, times)
        dense = dense_neel_quench_offsets(n_sites, delta, times)
        assert offsets[1] == 0.0
        np.testing.assert_allclose(offsets, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_sites", [12, 16])
    @pytest.mark.parametrize("delta", [0.5, -0.7, 2.0])
    def test_matches_sparse_propagation_on_the_evolve_grid(self, n_sites,
                                                           delta):
        # the times `evolve --t-max 1.0` asks for, dt 0.05
        times = [0.0] + [(k + 1) * 0.05 for k in range(20)]
        np.testing.assert_allclose(
            ed_evolve(n_sites, delta, times),
            sparse_neel_quench_offsets(n_sites, delta, times),
            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_sites", [7, 0, 22])
    def test_rejects_odd_chain(self, n_sites):
        with pytest.raises(ValueError, match="even"):
            ed_evolve(n_sites, 0.5, [0.1])

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_times(self, bad):
        with pytest.raises(ValueError, match="finite non-negative"):
            ed_evolve(8, 0.5, [bad, 0.5])


class TestIsingTransfer:
    @pytest.mark.parametrize("n_sites", [3, 4])
    def test_mpo_has_the_dense_transfer_spectrum(self, n_sites):
        # the MPO splits each weight into half-weights on its legs, a
        # similarity transform of the oracle's matrix
        beta = 1.1 * BETA_C
        mpo = dense_mpo_operator(ising_mpo(beta), n_sites)
        oracle = np.sort(np.linalg.eigvals(
            dense_ising_row_transfer(beta, 1, n_sites)).real)
        np.testing.assert_allclose(np.linalg.eigvalsh(mpo), oracle, rtol=0,
                                   atol=1e-12 * oracle[-1])

    @pytest.mark.parametrize("n_sites", [4, 6])
    def test_antiferromagnet_is_the_flipped_ferromagnet(self, n_sites):
        # every bond joins sites of opposite parity, so flipping one parity
        # in each row turns J into -J; this is why fixedpoint runs the
        # ferromagnet for both couplings
        beta = 1.1 * BETA_C

        def flip(parity):
            out = np.eye(1)
            for k in range(n_sites):
                out = np.kron(out, np.eye(2)[::-1] if k % 2 == parity
                              else np.eye(2))
            return out

        fm = dense_ising_row_transfer(beta, 1, n_sites)
        afm = dense_ising_row_transfer(beta, -1, n_sites)
        np.testing.assert_array_equal(afm, flip(0) @ fm @ flip(1))


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


def _dense_loss(new, state, layer):
    return 1.0 - abs(dense_environment_eigenvalue(new, state, layer)) ** 2


class TestTruncationLoss:
    # a loop that stops at its first update holds the lambda of its start,
    # so the loss of its result comes from one more environment solve; on
    # a bond of dimension 1 every loop stops there

    def test_chi1_evolution_losses_match_the_dense_eigenvalue(
            self, monkeypatch):
        calls = []

        def recording(state, layer, *args, **kwargs):
            new, report = apply_layer(state, layer, *args, **kwargs)
            calls.append((new, state, layer, report))
            return new, report

        monkeypatch.setattr(models, "apply_layer", recording)
        _, records = trotter_evolve(0.5, 0.05, 0.2, 1)
        assert len(calls) == 5 and len(records) == 5
        assert all(report.converged and len(report.iterations) == 1
                   for *_, report in calls)
        losses = [_dense_loss(*call[:3]) for call in calls]
        # the last record also carries the closing half layer's loss
        want = [0.0] + losses[:3] + [losses[3] + losses[4]]
        got = [rec.infidelity for rec in records]
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12

    @pytest.mark.parametrize("seed", range(2))
    def test_first_update_stop_is_scored_on_its_result(self, seed):
        state = correlated_random_state(4, seed=seed)
        layer = trotter_layer_mpo(xxz_gate(0.5, 0.05), "odd")
        new, report = apply_layer(state, layer, 1, None, eta=1e-10, seed=0)
        assert report.converged and len(report.iterations) == 1
        want = _dense_loss(new, state, layer)
        # the start's lambda is off by more than the tolerance
        assert abs(1.0 - abs(report.final_lambda) ** 2 - want) > 1e-6
        assert abs(models._truncation_loss(new, state, layer, report)
                   - want) < 1e-12
