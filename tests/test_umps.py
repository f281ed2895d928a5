import numpy as np
import pytest

from vomps.baseline import schmidt_truncate
from vomps.tensor import qr_positive, svd
from vomps.umps import (
    MPO,
    OrthogonalStatesError,
    UniformMPS,
    _apply_left_site,
    _apply_right_site,
    _rotate_bonds,
    _schmidt_frame,
    environments,
    fidelity_per_site,
    left_orthonormalize,
    mixed_canonical,
    mpo_eigenvalue_per_site,
    random_uniform_mps,
)

from oracles import (
    correlated_random_state,
    dense_cell_matrix,
    dense_environment_eigenvalue,
    dense_fidelity,
    dense_leading_eig,
    identity_mpo,
    materialize,
    random_complex,
    schmidt_values,
    site_transfer,
    transfer_map,
)


def neel():
    up = np.zeros((1, 2, 1), dtype=complex)
    up[0, 0, 0] = 1.0
    dn = np.zeros((1, 2, 1), dtype=complex)
    dn[0, 1, 0] = 1.0
    one = np.eye(1, dtype=complex)
    return UniformMPS(al=[up, dn], ar=[up, dn], c=[one, one])


def flipped_neel():
    """|down up down up ...>, orthogonal to :func:`neel`."""
    state = neel()
    return UniformMPS(al=state.al[::-1], ar=state.ar[::-1], c=state.c[::-1])


def random_mpo(rng, dm, d, unit_cell=1, scale=1.0):
    return MPO(o=[scale * random_complex(rng, dm, d, d, dm)
                  for _ in range(unit_cell)])


def gauge_rotated(state, rng):
    """Same physical state in rotated bond bases."""
    L = state.unit_cell
    us = [qr_positive(random_complex(rng, c, c))[0]
          for c in state.bond_dims[:L]]
    vs = [qr_positive(random_complex(rng, c, c))[0]
          for c in state.bond_dims[:L]]
    al = [np.einsum("xa,apb,by->xpy", us[n].conj().T, state.al[n],
                    us[(n + 1) % L]) for n in range(L)]
    ar = [np.einsum("xa,apb,by->xpy", vs[n].conj().T, state.ar[n],
                    vs[(n + 1) % L]) for n in range(L)]
    c = [us[(n + 1) % L].conj().T @ state.c[n] @ vs[(n + 1) % L]
         for n in range(L)]
    return UniformMPS(al=al, ar=ar, c=c)


class TestOrthonormalize:
    def test_trivial_bond(self):
        a = np.array([[1.0], [1.0]]).reshape(1, 2, 1) / np.sqrt(2)
        al, gauges = left_orthonormalize([a])
        np.testing.assert_allclose(al[0], a, atol=1e-12)
        np.testing.assert_allclose(gauges[0], [[1.0]], atol=1e-12)

    def test_already_canonical_unchanged(self):
        state = random_uniform_mps(4, 2, seed=3)
        al, gauges = left_orthonormalize([state.al[0]])
        np.testing.assert_allclose(al[0], state.al[0], atol=1e-12)
        np.testing.assert_allclose(gauges[0], np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_isometry_residual(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 4, 2, 4)
        al, _ = left_orthonormalize([a])
        m = al[0].reshape(8, 4)
        assert np.linalg.norm(m.conj().T @ m - np.eye(4)) < 1e-12


class TestMixedCanonical:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 1, 2, 1)
        state = mixed_canonical([a])
        np.testing.assert_allclose(np.abs(state.c[0]), [[1.0]], atol=1e-12)
        state.check(1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_state_invariants(self, seed):
        state = random_uniform_mps(4, 2, seed=seed)
        assert state.check(1e-10) < 1e-10

    def test_two_site_unit_cell(self):
        state = random_uniform_mps(3, 2, unit_cell=2, seed=5)
        assert state.check(1e-10) < 1e-10

    def test_neel_cell(self):
        up = np.zeros((1, 2, 1), dtype=complex)
        up[0, 0, 0] = 1.0
        dn = np.zeros((1, 2, 1), dtype=complex)
        dn[0, 1, 0] = 1.0
        state = mixed_canonical([up, dn])
        state.check(1e-12)
        assert abs(abs(state.al[0][0, 0, 0]) - 1.0) < 1e-12
        assert abs(state.al[0][0, 1, 0]) < 1e-12
        np.testing.assert_allclose(np.abs(state.c[0]), [[1.0]], atol=1e-12)

    def test_gauge_refreshes_reach_their_tolerance(self, monkeypatch):
        import vomps.umps as umps

        solve = umps.leading_eig
        refreshes = []

        def recording(*args, **kwargs):
            res = solve(*args, **kwargs)
            refreshes.append(res.converged)
            return res

        monkeypatch.setattr(umps, "leading_eig", recording)
        for seed in range(3):
            random_uniform_mps(8, 2, seed=seed).check(1e-12)
        assert refreshes and all(refreshes)

    def test_cycling_gauge_fails_fast(self, monkeypatch):
        # this chi-4 state padded to chi 32 with complex noise of relative
        # scale 1e-3 leaves a right-gauge iteration that cycles between
        # gauges ~5e-3 apart, refresh after refresh: it must raise after
        # its idle refreshes (51 sweeps), not spend the whole sweep budget
        # (10 000 sweeps, 10 s)
        import vomps.umps as umps

        a = correlated_random_state(4, seed=0).al[0]
        rng = np.random.default_rng(0)
        shape = (32, 2, 32)
        padded = 1e-3 * np.mean(np.abs(a)) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        padded[:4, :, :4] += a
        rq, sweeps = umps.rq_positive, []

        def counting(m):
            sweeps.append(1)  # one RQ per sweep on a one-site cell
            return rq(m)

        monkeypatch.setattr(umps, "rq_positive", counting)
        with pytest.raises(umps.CanonicalizationError, match="stalled"):
            mixed_canonical([padded])
        assert len(sweeps) <= 100

    def test_diagonal_descending_bond_matrices(self):
        state = random_uniform_mps(5, 2, seed=11)
        for c in state.c:
            off = c - np.diag(np.diagonal(c))
            assert np.linalg.norm(off) < 1e-12
            d = np.diagonal(c).real
            assert np.all(np.diff(d) <= 1e-12)


class TestSiteTransfer:
    """Single-site kernels against the einsum oracle on rectangular shapes:
    top bond != bottom bond, left bond != right bond, mpo bond m != m'."""

    @pytest.mark.parametrize("with_mpo", [False, True])
    def test_left_site_matches_einsum(self, with_mpo):
        rng = np.random.default_rng(11)
        top = random_complex(rng, 3, 2, 4)
        if with_mpo:
            op = random_complex(rng, 2, 2, 3, 5)
            bot = random_complex(rng, 6, 3, 7)
            v = random_complex(rng, 3, 2, 6)
        else:
            op = None
            bot = random_complex(rng, 6, 2, 7)
            v = random_complex(rng, 3, 1, 6)
        got = _apply_left_site(v, np.conj(top), bot, op)
        want = site_transfer(v, top, bot, op, side="left")
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("with_mpo", [False, True])
    def test_right_site_matches_einsum(self, with_mpo):
        rng = np.random.default_rng(12)
        top = random_complex(rng, 3, 2, 4)
        if with_mpo:
            op = random_complex(rng, 2, 2, 3, 5)
            bot = random_complex(rng, 6, 3, 7)
            v = random_complex(rng, 4, 5, 7)
        else:
            op = None
            bot = random_complex(rng, 6, 2, 7)
            v = random_complex(rng, 4, 1, 7)
        got = _apply_right_site(v, np.conj(top), bot, op)
        want = site_transfer(v, top, bot, op, side="right")
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


class TestBondRotation:
    """The two-matmul bond rotation used by mixed_canonical and
    schmidt_truncate reproduces the three-operand einsum it replaced."""

    def test_matches_einsum(self):
        state = random_uniform_mps(16, 2, seed=13)
        rng = np.random.default_rng(13)
        x = random_complex(rng, 10, 16)
        y = random_complex(rng, 16, 12)
        got = _rotate_bonds(x, state.al[0], y)
        want = np.einsum("xa,apb,by->xpy", x, state.al[0], y)
        assert got.shape == (10, 2, 12)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_schmidt_truncate_matches_einsum(self):
        state = random_uniform_mps(16, 2, seed=14)
        got, _ = schmidt_truncate(state, 8)
        u, s, _ = svd(state.c[0])
        u = u[:, :8]
        # the cut's re-canonicalization: its right gauge iteration starts
        # from the kept Schmidt values carried through the left gauge
        al, gauges = left_orthonormalize([np.einsum(
            "xa,apb,by->xpy", u.conj().T, state.al[0], u)])
        want = _schmidt_frame(al, [gauges[0] @ np.diag(s[:8])])
        for name in ("al", "ar", "c"):
            diff = np.abs(getattr(got, name)[0] - getattr(want, name)[0])
            assert np.max(diff) < 1e-13


class TestTransferMap:
    def test_canonical_identity_fixed_point(self):
        state = random_uniform_mps(4, 2, seed=1)
        op = transfer_map(state, state, "left")
        v = np.eye(4, dtype=complex).reshape(-1)
        np.testing.assert_allclose(op(v), v, atol=1e-12)
        opr = transfer_map(state, state, "right")
        np.testing.assert_allclose(opr(v), v, atol=1e-12)

    def test_matches_dense_materialization(self):
        top = random_uniform_mps(2, 2, seed=2)
        bot = random_uniform_mps(2, 2, seed=3)
        for side in ("left", "right"):
            want = dense_cell_matrix(top, bot, side=side)
            got = materialize(transfer_map(top, bot, side), len(want))
            assert np.max(np.abs(got - want)) < 1e-13

    def test_matches_dense_with_mpo(self):
        rng = np.random.default_rng(4)
        top = random_uniform_mps(2, 2, seed=5)
        bot = random_uniform_mps(3, 2, seed=6)
        mpo = random_mpo(rng, 2, 2)
        for side in ("left", "right"):
            want = dense_cell_matrix(top, bot, mpo, side=side)
            got = materialize(transfer_map(top, bot, side, mpo), len(want))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_identity_mpo_equals_plain(self):
        top = random_uniform_mps(3, 2, seed=7)
        bot = random_uniform_mps(2, 2, seed=8)
        plain = materialize(transfer_map(top, bot, "left"), 3 * 2)
        dressed = materialize(transfer_map(top, bot, "left",
                                           identity_mpo(2)), 3 * 2)
        assert np.max(np.abs(plain - dressed)) < 1e-13
        # a plain channel's bond vectors are the identity MPO's, unit mpo
        # bond included
        plain = environments(top, bot, tol=1e-13)
        dressed = environments(top, bot, identity_mpo(2), tol=1e-13)
        assert abs(plain.lam - dressed.lam) < 1e-12
        for name in ("gl", "gr"):
            for g, h in zip(getattr(plain, name), getattr(dressed, name)):
                assert g.shape == h.shape == (3, 1, 2)
                assert np.max(np.abs(g - h)) < 1e-12

    def test_unit_cell_lcm_extension(self):
        a = random_uniform_mps(2, 2, unit_cell=1, seed=9)
        b = random_uniform_mps(2, 2, unit_cell=2, seed=10)
        want = dense_cell_matrix(a, b)
        got = materialize(transfer_map(a, b, "left"), len(want))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_dimension_mismatch(self):
        a = random_uniform_mps(2, 2, seed=1)
        b = random_uniform_mps(2, 3, seed=1)
        with pytest.raises(ValueError, match="physical"):
            transfer_map(a, b, "left")


class TestEnvironments:
    def test_self_environment(self):
        state = random_uniform_mps(4, 2, seed=12)
        env = environments(state, state, tol=1e-13)
        assert abs(env.lam - 1.0) < 1e-11
        gl = env.gl[0]
        # identity is the canonical left fixed point
        assert np.linalg.norm(gl / gl[0, 0, 0] - np.eye(4)[:, None]) < 1e-9
        assert env.converged

    def test_orthogonal_product_states_flagged(self):
        with pytest.raises(OrthogonalStatesError):
            environments(neel(), flipped_neel(), tol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_eigenvalue_matches_dense(self, seed):
        top = random_uniform_mps(3, 2, seed=2 * seed)
        bot = random_uniform_mps(3, 2, seed=2 * seed + 1)
        env = environments(top, bot, tol=1e-13)
        lam_dense = dense_environment_eigenvalue(top, bot)
        assert abs(abs(env.lam) - abs(lam_dense)) < 1e-10

    def test_eigenvalue_matches_dense_with_mpo(self):
        rng = np.random.default_rng(20)
        top = random_uniform_mps(2, 2, seed=21)
        bot = random_uniform_mps(2, 2, seed=22)
        mpo = random_mpo(rng, 2, 2)
        env = environments(top, bot, mpo, tol=1e-13)
        lam_dense = dense_environment_eigenvalue(top, bot, mpo)
        assert abs(abs(env.lam) - abs(lam_dense)) < 1e-10

    def test_normalization_pairing(self):
        top = random_uniform_mps(3, 2, seed=30)
        bot = random_uniform_mps(2, 2, seed=31)
        env = environments(top, bot, tol=1e-13)
        from vomps.umps import _bond_pairing
        for n in range(1):
            s = _bond_pairing(env.gl[n], env.gr[n - 1],
                              top.c[n - 1], bot.c[n - 1])
            assert abs(s - 1.0) < 1e-10

    def test_phase_reference_falls_back_to_largest_entry(self):
        from vomps.umps import _phase_reference
        # a gauge matrix and a bond vector whose generalized traces vanish
        gauge = np.array([[1.0, 0.5], [3j, -1.0]])
        assert _phase_reference(gauge) == 3j
        bond = np.zeros((2, 2, 3), dtype=complex)
        bond[0, 0, 0], bond[1, 0, 1] = 1.0, -1.0
        bond[0, 1, 0], bond[1, 1, 1] = 2.0, -2.0
        bond[1, 0, 2] = -5j
        assert _phase_reference(bond) == -5j

    def test_right_solve_on_the_conjugate_is_flagged(self, monkeypatch):
        # on a channel whose top magnitude is a pair lambda, conj(lambda)
        # the right solve may land on the other one of the pair
        import dataclasses
        import vomps.umps as umps

        top = random_uniform_mps(3, 2, seed=35)
        bot = random_uniform_mps(3, 2, seed=36)
        env = environments(top, bot, tol=1e-13)
        assert abs(env.lam.imag) > 1e-3 * abs(env.lam)
        assert not env.degenerate
        solve, calls = umps.leading_eig, []

        def conjugating_right(*args, **kwargs):
            res = solve(*args, **kwargs)
            calls.append(res)
            if len(calls) % 2 == 0:  # environments solves left, then right
                res = dataclasses.replace(res, value=np.conj(res.value))
            return res

        monkeypatch.setattr(umps, "leading_eig", conjugating_right)
        assert environments(top, bot, tol=1e-13).degenerate
        assert len(calls) == 2

    def test_unit_cell_environments(self):
        top = random_uniform_mps(2, 2, unit_cell=2, seed=33)
        bot = random_uniform_mps(2, 2, unit_cell=2, seed=34)
        env = environments(top, bot, tol=1e-13)
        lam_dense = dense_environment_eigenvalue(top, bot)
        assert abs(abs(env.lam) - abs(lam_dense)) < 1e-10
        assert len(env.gl) == 2 and len(env.gr) == 2


class TestFidelity:
    def test_self_fidelity(self):
        state = random_uniform_mps(4, 2, seed=40)
        assert abs(fidelity_per_site(state, state) - 1.0) < 1e-12

    def test_orthogonal_product_states(self):
        assert fidelity_per_site(neel(), flipped_neel()) < 1e-12

    def test_symmetry(self):
        a = random_uniform_mps(3, 2, seed=41)
        b = random_uniform_mps(4, 2, seed=42)
        f_ab = fidelity_per_site(a, b)
        f_ba = fidelity_per_site(b, a)
        assert abs(f_ab - f_ba) < 1e-12
        assert f_ab <= 1 + 1e-12

    def test_matches_dense_oracle(self):
        a = random_uniform_mps(4, 2, seed=43)
        b = random_uniform_mps(2, 2, seed=44)
        assert abs(fidelity_per_site(a, b) - dense_fidelity(a, b)) < 1e-10

    def test_gauge_invariance(self):
        rng = np.random.default_rng(45)
        state = random_uniform_mps(3, 2, seed=46)
        rotated = gauge_rotated(state, rng)
        rotated.check(1e-10)
        assert abs(fidelity_per_site(state, rotated) - 1.0) < 1e-10


class TestMpoEigenvalue:
    def test_identity_mpo(self):
        state = random_uniform_mps(3, 2, seed=70)
        lam = mpo_eigenvalue_per_site(state, identity_mpo(2))
        assert abs(lam - 1.0) < 1e-11

    def test_random_mpo_matches_dense(self):
        rng = np.random.default_rng(71)
        state = random_uniform_mps(2, 2, seed=72)
        mpo = random_mpo(rng, 2, 2)
        lam = mpo_eigenvalue_per_site(state, mpo)
        lam_dense = dense_environment_eigenvalue(state, state, mpo)
        assert abs(abs(lam) - abs(lam_dense)) < 1e-10


class TestStateBasics:
    def test_schmidt_values_descending_unit_norm(self):
        state = random_uniform_mps(5, 2, seed=80)
        s = schmidt_values(state, 0)
        assert np.all(np.diff(s) <= 1e-14)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_constructor_rejects_bond_mismatch(self):
        up = np.zeros((1, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match="bond"):
            UniformMPS(al=[up], ar=[up], c=[np.eye(2)])
