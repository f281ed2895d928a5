import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vomps.tensor
from vomps.tensor import (
    DecompositionError,
    EigResult,
    leading_eig,
    polar,
    qr_positive,
    rq_positive,
    svd,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestQRPositive:
    def test_identity(self):
        q, r = qr_positive(np.eye(4))
        np.testing.assert_allclose(q, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(r, np.eye(4), atol=1e-14)

    def test_sign_convention_forces_positive_diagonal(self):
        m = np.diag([-2.0, 3.0])
        q, r = qr_positive(m)
        np.testing.assert_allclose(q, np.diag([-1.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(r, np.diag([2.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tall_matrix(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, 8, 4)
        q, r = qr_positive(m)
        assert np.linalg.norm(q @ r - m) < 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(q.conj().T @ q - np.eye(4)) < 1e-12
        assert np.all(np.abs(np.diagonal(r).imag) < 1e-14)
        assert np.all(np.diagonal(r).real > 0)

    def test_rq_positive(self):
        rng = np.random.default_rng(11)
        m = random_complex(rng, 4, 8)
        r, q = rq_positive(m)
        assert np.linalg.norm(r @ q - m) < 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(q @ q.conj().T - np.eye(4)) < 1e-12
        assert np.all(np.diagonal(r).real > 0)


def scipy_rq_positive(m):
    """scipy's economic RQ with the phases of R's diagonal moved into Q."""
    import scipy.linalg

    r, q = scipy.linalg.rq(m, mode="economic")
    phase = np.diagonal(r) / np.abs(np.diagonal(r))
    return r * np.conj(phase)[np.newaxis, :], q * phase[:, np.newaxis]


class TestRQPositive:
    @pytest.mark.parametrize("shape", [(4, 8), (8, 16), (6, 6)])
    def test_matches_scipy(self, shape):
        rng = np.random.default_rng(shape[1])
        m = random_complex(rng, *shape)
        r, q = rq_positive(m)
        r_ref, q_ref = scipy_rq_positive(m)
        assert np.all(np.tril(r, -1) == 0)
        assert np.linalg.norm(r - r_ref) <= 1e-13 * np.linalg.norm(r_ref)
        assert np.linalg.norm(q - q_ref) <= 1e-13 * np.linalg.norm(q_ref)

    def test_rank_deficient_input_still_factors(self):
        # the null direction's diagonal entry gets phase 1
        m = np.zeros((2, 3), dtype=complex)
        m[1, 2] = 1.0
        r, q = rq_positive(m)
        np.testing.assert_allclose(r @ q, m, atol=1e-15)
        np.testing.assert_allclose(q @ q.conj().T, np.eye(2), atol=1e-14)

    def test_non_finite_input_raises(self):
        m = np.ones((2, 3), dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(ValueError):
            rq_positive(m)


class TestSVD:
    def test_diagonal(self):
        u, s, vh = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0])

    def test_rank_one(self):
        u = np.array([1.0, 2.0], dtype=complex)
        v = np.array([0.5, -1.0, 2.0], dtype=complex)
        m = np.outer(u, v.conj())
        _, s, _ = svd(m)
        np.testing.assert_allclose(
            s, [np.linalg.norm(u) * np.linalg.norm(v), 0.0], atol=1e-14)

    def test_random_matches_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, 6, 6)
        _, s, _ = svd(m)
        gram = np.linalg.eigvalsh(m.conj().T @ m)
        oracle = np.sqrt(np.clip(gram[::-1], 0, None))
        assert np.max(np.abs(s - oracle)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_and_isometry(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, 5, 7)
        u, s, vh = svd(m)
        assert np.linalg.norm(u @ np.diag(s) @ vh - m) < 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-12
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(5)) < 1e-12
        assert np.all(np.diff(s) <= 1e-14)

    def test_lapack_failure_raises_decomposition_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(DecompositionError) as info:
            svd(np.eye(3))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestPolar:
    # polar returns the unitary factor only; P is formed here as W^dag m
    # (tall m) or m W^dag (wide m)
    def test_unitary_input(self):
        rng = np.random.default_rng(5)
        q, _ = qr_positive(random_complex(rng, 4, 4))
        w = polar(q)
        np.testing.assert_allclose(w, q, atol=1e-12)
        np.testing.assert_allclose(w.conj().T @ q, np.eye(4), atol=1e-12)

    def test_scaled_identity(self):
        m = 2.0 * np.eye(3)
        w = polar(m)
        np.testing.assert_allclose(w, np.eye(3), atol=1e-13)
        np.testing.assert_allclose(w.conj().T @ m, m, atol=1e-13)
        w2 = polar(m)
        np.testing.assert_allclose(w2, np.eye(3), atol=1e-13)
        np.testing.assert_allclose(m @ w2.conj().T, m, atol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tall(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, 8, 4)
        w = polar(m)
        p = w.conj().T @ m
        assert np.linalg.norm(w @ p - m) < 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(w.conj().T @ w - np.eye(4)) < 1e-12
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert np.min(np.linalg.eigvalsh(p)) > -1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_random_wide(self, seed):
        rng = np.random.default_rng(seed + 10)
        m = random_complex(rng, 4, 8)
        w = polar(m)
        p = m @ w.conj().T
        assert np.linalg.norm(p @ w - m) < 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(w @ w.conj().T - np.eye(4)) < 1e-12
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert np.min(np.linalg.eigvalsh(p)) > -1e-13


def dense_map(m):
    m = np.asarray(m, dtype=complex)
    return lambda v: m @ v


def counting_map(m):
    """Dense map plus a list whose length is the number of matvecs applied."""
    m = np.asarray(m, dtype=complex)
    calls = []

    def matvec(v):
        calls.append(1)
        return m @ v

    return matvec, calls


class TestLeadingEig:
    def test_diag_2_1(self):
        res = leading_eig(dense_map(np.diag([2.0, 1.0])),
                          guess=np.array([1.0, 1.0]))
        assert abs(res.value - 2.0) < 1e-12
        assert abs(abs(res.vector[0]) - 1.0) < 1e-10
        assert res.converged

    def test_identity_map_returns_guess(self):
        guess = np.array([3.0, 4.0], dtype=complex)
        res = leading_eig(dense_map(np.eye(2)), guess=guess)
        assert abs(res.value - 1.0) < 1e-12
        overlap = abs(np.vdot(res.vector, guess / np.linalg.norm(guess)))
        assert abs(overlap - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        res = leading_eig(dense_map(m), guess=random_complex(rng, 16),
                          tol=1e-12)
        evals = np.linalg.eigvals(m)
        lam_oracle = evals[np.argmax(np.abs(evals))]
        assert abs(abs(res.value) - abs(lam_oracle)) < 1e-10
        assert res.residual <= 1e-12

    def test_hermitian_map_real_eigenvalue(self):
        rng = np.random.default_rng(2)
        m = random_complex(rng, 12, 12)
        m = m + m.conj().T
        res = leading_eig(dense_map(m), guess=random_complex(rng, 12))
        assert abs(res.value.imag) < 1e-12

    def test_guess_invariance_with_gap(self):
        rng = np.random.default_rng(9)
        m = np.diag(np.linspace(1.0, 3.0, 8)) + 0.01 * rng.standard_normal((8, 8))
        tol = 1e-11
        r1 = leading_eig(dense_map(m), guess=random_complex(rng, 8), tol=tol)
        r2 = leading_eig(dense_map(m), guess=random_complex(rng, 8), tol=tol)
        assert abs(r1.value - r2.value) < 10 * tol

    def test_degenerate_magnitudes_flagged(self):
        res = leading_eig(dense_map(np.diag([1.0, -1.0, 0.3])),
                          guess=np.array([1.0, 1.0, 1.0]), tol=1e-10)
        assert res.degenerate

    def test_degenerate_gap_is_relative_at_large_scale(self):
        # absolute gap 1e-5 is above tol, relative gap 1e-11 is below it
        res = leading_eig(dense_map(np.diag([1e6, 1e6 - 1e-5, 0.3])),
                          guess=np.array([1.0, 1.0, 1.0]), tol=1e-10)
        assert res.degenerate

    def test_distinct_small_scale_spectrum_not_degenerate(self):
        # absolute gap 5e-13 is below tol, relative gap 0.5 is not
        res = leading_eig(dense_map(np.diag([1e-12, 0.5e-12, 0.1e-12])),
                          guess=np.array([1.0, 1.0, 1.0]), tol=1e-10)
        assert not res.degenerate
        assert abs(res.value - 1e-12) < 1e-24

    def test_restarts_on_clustered_non_normal_map(self, monkeypatch):
        monkeypatch.setattr(vomps.tensor, "_SUBSPACE", 8)
        rng = np.random.default_rng(7)
        n = 200
        lam = 0.5 + 0.05 * random_complex(rng, n)
        lam[:4] = [1.0, 0.95, 0.94 + 0.01j, 0.93 - 0.01j]
        s = np.eye(n) + 0.3 * random_complex(rng, n, n) / np.sqrt(n)
        m = s @ np.diag(lam) @ np.linalg.inv(s)
        tol = 1e-10
        res = leading_eig(dense_map(m), guess=random_complex(rng, n),
                          tol=tol)
        assert res.iterations > 3 * (8 + 1)  # several restart cycles
        assert res.converged and res.residual <= tol
        evals = np.linalg.eigvals(m)
        assert abs(res.value - evals[np.argmax(np.abs(evals))]) < 1e-8
        assert np.linalg.norm(m @ res.vector - res.value * res.vector) <= tol

    def test_real_map_keeps_a_real_basis(self, monkeypatch):
        monkeypatch.setattr(vomps.tensor, "_SUBSPACE", 6)
        rng = np.random.default_rng(31)
        m = rng.random((30, 30))  # Perron: a real, positive leading value
        seen = []

        def matvec(v):
            seen.append(v.dtype)
            return m @ v

        res = leading_eig(matvec, guess=rng.random(30), tol=1e-12)
        assert set(seen) == {np.dtype(float)} and len(seen) > 7
        assert isinstance(res.value, float)
        assert res.vector.dtype == np.float64 and res.converged
        evals = np.linalg.eigvals(m)
        assert abs(res.value - evals[np.argmax(np.abs(evals))]) < 1e-10

    def test_complex_pair_of_a_real_map_is_found_and_flagged(self):
        # a real map whose leading eigenvalues are 0.8 exp(+-0.7i): the
        # real start's first Ritz value is non-real, the basis turns complex
        # and converges to one of the pair
        rng = np.random.default_rng(32)
        n = 24
        d = np.diag(0.5 * rng.uniform(-1, 1, n))
        d[:2, :2] = 0.8 * np.array([[np.cos(0.7), -np.sin(0.7)],
                                    [np.sin(0.7), np.cos(0.7)]])
        s = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        m = s @ d @ np.linalg.inv(s)
        res = leading_eig(lambda v: m @ v, guess=rng.standard_normal(n),
                          tol=1e-10)
        pair = 0.8 * np.exp(0.7j)
        assert min(abs(res.value - pair), abs(res.value - np.conj(pair))) \
            < 1e-9
        assert res.degenerate and res.converged
        assert res.vector.dtype == np.complex128
        assert np.linalg.norm(m @ res.vector - res.value * res.vector) \
            <= 1e-10 * abs(res.value)

    def test_restart_reuses_its_start_vectors_image(self, monkeypatch):
        monkeypatch.setattr(vomps.tensor, "_SUBSPACE", 4)
        # the residual's matvec of a restart vector is the first column of
        # the next cycle, so no vector is mapped twice in a row
        rng = np.random.default_rng(33)
        m = random_complex(rng, 60, 60)
        inputs = []

        def matvec(v):
            inputs.append(v.copy())
            return m @ v

        res = leading_eig(matvec, guess=random_complex(rng, 60), tol=1e-11)
        assert res.converged and res.iterations == len(inputs) > 10
        assert not any(np.array_equal(a, b)
                       for a, b in zip(inputs, inputs[1:]))

    def test_unconverged_flag(self, monkeypatch):
        monkeypatch.setattr(vomps.tensor, "_SUBSPACE", 4)
        rng = np.random.default_rng(1)
        m = random_complex(rng, 40, 40)
        res = leading_eig(dense_map(m), guess=random_complex(rng, 40),
                          tol=1e-30, max_iter=8)
        assert not res.converged
        assert res.residual > 0

    @pytest.mark.parametrize("guess, tol, message", [
        (np.ones(3), 0.0, "tol must be positive"),
        (np.ones(3), -1e-12, "tol must be positive"),
        (np.zeros(3), 1e-12, "guess must be a nonzero finite vector"),
        (np.array([1.0, np.nan, 0.0]), 1e-12,
         "guess must be a nonzero finite vector"),
    ], ids=["zero-tol", "negative-tol", "zero-guess", "non-finite-guess"])
    def test_rejects_bad_arguments(self, guess, tol, message):
        with pytest.raises(ValueError, match=message):
            leading_eig(dense_map(np.eye(3)), guess=guess, tol=tol)

    def test_dimension_one(self):
        res = leading_eig(dense_map(np.array([[0.5]])), guess=np.array([1.0]))
        assert abs(res.value - 0.5) < 1e-14
        res0 = leading_eig(dense_map(np.array([[0.0]])), guess=np.array([1.0]))
        assert abs(res0.value) < 1e-14

    def test_linearity_probe(self):
        rng = np.random.default_rng(4)
        m = random_complex(rng, 10, 10)
        op = dense_map(m)
        x = random_complex(rng, 10)
        y = random_complex(rng, 10)
        lhs = op(0.7 * x + 2j * y)
        rhs = 0.7 * op(x) + 2j * op(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (
            np.linalg.norm(x) + np.linalg.norm(y)) * np.linalg.norm(m)

    def test_result_type(self):
        res = leading_eig(dense_map(np.eye(3)), guess=np.ones(3))
        assert isinstance(res, EigResult)
        assert abs(np.linalg.norm(res.vector) - 1.0) < 1e-12

    def test_exact_eigenvector_guess_stops_at_size_one(self):
        rng = np.random.default_rng(21)
        n = 40
        s = random_complex(rng, n, n)
        lam = 0.5 * random_complex(rng, n) / np.sqrt(2)
        lam[0] = 2.0
        m = s @ np.diag(lam) @ np.linalg.inv(s)
        op, calls = counting_map(m)
        # off by 1e-12: accepted at size 1, not an invariant Krylov space
        guess = s[:, 0] + 1e-12 * random_complex(rng, n)
        res = leading_eig(op, guess=guess, tol=1e-10)
        assert res.converged
        assert res.iterations <= 2
        assert len(calls) == res.iterations
        assert abs(res.value - 2.0) < 1e-9
        assert leading_eig(op, guess=s[:, 0], tol=1e-10).iterations <= 2

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_eigenvector_guess_at_any_scale(self, scale):
        # the size-1 checkpoint reads the Rayleigh quotient directly only
        # between 1e-100 and 1e100; outside, LAPACK's rescaling runs
        op, calls = counting_map(np.diag([scale, 0.5 * scale, 0.1 * scale]))
        res = leading_eig(op, guess=np.array([1.0, 0.0, 0.0]), tol=1e-10)
        assert res.converged
        assert res.iterations == len(calls) == 2
        assert abs(res.value - scale) <= 1e-14 * scale
        np.testing.assert_allclose(np.abs(res.vector), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("subspace", [4, 20])
    def test_iterations_count_every_matvec(self, monkeypatch, subspace):
        monkeypatch.setattr(vomps.tensor, "_SUBSPACE", subspace)
        rng = np.random.default_rng(22)
        m = random_complex(rng, 60, 60)
        op, calls = counting_map(m)
        res = leading_eig(op, guess=random_complex(rng, 60), tol=1e-11)
        assert res.iterations == len(calls)
        assert res.converged

    def test_large_scale_map_converges_relative(self):
        # residual 1.2e-10 is above tol in absolute terms, far below
        # tol * |value| = 1e-4
        op, calls = counting_map(np.diag([1e6, 1e6 - 1e-5, 0.3]))
        res = leading_eig(op, guess=np.array([1.0, 1.0, 1.0]), tol=1e-10)
        assert res.converged
        assert res.residual <= 1e-10 * abs(res.value)
        assert len(calls) < 200

    def test_small_norm_map_not_accepted_from_guess(self):
        # the guess's residual 3e-13 is below tol, not below tol * |value|
        op, calls = counting_map(np.diag([1e-12, 0.5e-12, 0.1e-12]))
        res = leading_eig(op, guess=np.array([1.0, 1.0, 1.0]), tol=1e-10)
        assert res.converged
        assert abs(res.value - 1e-12) < 1e-24
        assert len(calls) > 2

    @pytest.mark.parametrize("seed", range(3))
    def test_checkpoints_that_cannot_pass_skip_the_eig(self, seed,
                                                       eig_sizes):
        # a gap of 0.1 over a disk of eigenvalues: tol 1e-13 takes several
        # full 20-vector cycles, whose sizes-8..16 estimates cannot pass
        rng = np.random.default_rng(seed)
        n = 80
        s = np.eye(n) + 0.3 * random_complex(rng, n, n) / np.sqrt(n)
        lam = 0.9 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, n))
        lam[0] = 1.0
        m = s @ np.diag(lam) @ np.linalg.inv(s)
        op, calls = counting_map(m)
        res = leading_eig(op, guess=random_complex(rng, n), tol=1e-13)
        # a cycle of k Arnoldi steps costs k matvecs (its start vector's
        # image came with the last cycle's residual, the first cycle's
        # costs one more) and crosses the checkpoints 4, 8, 12 and 16 up to
        # k, and k itself when full
        full, last = divmod(res.iterations - 1, 20)
        crossed = 5 * full + sum(c < last for c in (4, 8, 12, 16))
        assert full >= 3
        assert len(eig_sizes) < 0.7 * crossed
        assert res.converged and res.iterations == len(calls)
        evals = np.linalg.eigvals(m)
        assert abs(res.value - evals[np.argmax(np.abs(evals))]) < 1e-12
        assert np.linalg.norm(m @ res.vector - res.value * res.vector) \
            <= 1e-13 * abs(res.value)

    @pytest.mark.parametrize("noise, sizes", [(1e-7, [4]), (1e-6, [4, 8])])
    def test_well_separated_map_stops_at_first_passing_checkpoint(
            self, noise, sizes, eig_sizes):
        # eigenvalues 2 and a disk of radius 0.05: from a guess this close
        # to the eigenvector the size-4 (or size-8) checkpoint passes, and
        # no eig runs at a size that is not tested
        rng = np.random.default_rng(23)
        n = 40
        s = np.eye(n) + 0.3 * random_complex(rng, n, n) / np.sqrt(n)
        lam = 0.05 * random_complex(rng, n) / np.sqrt(2)
        lam[0] = 2.0
        m = s @ np.diag(lam) @ np.linalg.inv(s)
        op, calls = counting_map(m)
        guess = s[:, 0] + noise * np.linalg.norm(s[:, 0]) * random_complex(
            rng, n)
        res = leading_eig(op, guess=guess, tol=1e-10)
        assert res.converged
        assert eig_sizes == sizes
        assert res.iterations == len(calls) == sizes[-1] + 1
        assert abs(res.value - 2.0) < 1e-9


@pytest.fixture
def eig_sizes(monkeypatch):
    """Sizes of the Hessenberg matrices `leading_eig` hands to
    ``np.linalg.eig``, one entry per call."""
    import vomps.tensor

    sizes = []
    eig = vomps.tensor.np.linalg.eig

    def counting(a):
        sizes.append(a.shape[0])
        return eig(a)

    monkeypatch.setattr(vomps.tensor.np.linalg, "eig", counting)
    return sizes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       tol_exp=st.integers(-12, -6))
def test_leading_eig_property_on_diagonalizable_maps(seed, n, tol_exp):
    rng = np.random.default_rng(seed)
    s = np.eye(n) + 0.3 * random_complex(rng, n, n) / np.sqrt(n)
    lam = random_complex(rng, n) / np.sqrt(2)
    lam[0] = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi))  # clear top
    m = s @ np.diag(lam) @ np.linalg.inv(s)
    tol = 10.0 ** tol_exp
    res = leading_eig(dense_map(m), guess=random_complex(rng, n), tol=tol)
    recomputed = np.linalg.norm(m @ res.vector - res.value * res.vector)
    assert abs(res.residual - recomputed) <= 1e-13 * np.linalg.norm(m)
    assert res.converged == (res.residual <= tol * abs(res.value))
    assert res.converged
    evals = np.linalg.eigvals(m)
    top = evals[np.argmax(np.abs(evals))]
    assert abs(res.value - top) <= 10 * tol * abs(top) * np.linalg.cond(s)
