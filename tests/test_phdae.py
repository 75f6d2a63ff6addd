"""Port-Hamiltonian structure verification, T/S constructions, dissipation."""

from dataclasses import replace

import numpy as np
import pytest

from daepencil import (
    MatrixPencil,
    NanorodParams,
    PhPencil,
    Trajectory,
    build_nanorod,
    decompose,
    dissipation_trace,
    hamiltonian,
    make_S,
    make_T,
    normalize,
    ph_index_bound_check,
    random_ph_pencil,
    semigroup_condition_check,
    spectral_norm,
    verify_ph_structure,
)
from daepencil.errors import NoSpectralGap, SingularQ


def _trivial_ph(n=2):
    return PhPencil(np.eye(n), -np.eye(n), np.eye(n))


#: 5e-9 is kept above RANK_TOL = 1e-10 and 1e-11 cut, but only 500 times apart, not SPECTRAL_GAP = 1e3
_NO_GAP = np.diag([1.0, 5e-9, 1e-11])


class TestPhPencil:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            PhPencil(np.eye(2), np.eye(3), np.eye(2))

    def test_pencil_is_e_aq(self):
        ph = PhPencil(np.eye(2), -np.eye(2), np.diag([2.0, 3.0]))
        assert np.allclose(ph.pencil.A, np.diag([-2.0, -3.0]))
        assert ph.pencil is ph.pencil  # formed once, so a QZ cached on it is shared


class TestVerifyStructure:
    def test_trivial_all_pass(self):
        rep = verify_ph_structure(_trivial_ph())
        assert rep.structure_ok
        assert rep.symmetry_ok and rep.psd_ok and rep.dissipativity_ok and rep.q_ok
        assert rep.real_index.index == 0
        assert rep.complex_index.index == 0
        assert rep.subspace_conditions == (True, True)
        assert rep.failures == ()

    def test_nanorod_residuals(self):
        ph = build_nanorod(NanorodParams(n_grid=8))
        rep = verify_ph_structure(ph)
        scale = spectral_norm(ph.E) * spectral_norm(ph.Q)
        assert rep.symmetry_residual <= 1e-10 * scale
        assert rep.psd_min_eig >= -1e-10 * scale
        assert rep.dissipativity_max_eig <= 1e-10 * spectral_norm(ph.A)
        assert rep.structure_ok

    def test_negated_q_fails_psd(self):
        ph = build_nanorod(NanorodParams(n_grid=8))
        rep = verify_ph_structure(PhPencil(ph.E, ph.A, -ph.Q))
        assert not rep.psd_ok
        assert not rep.structure_ok

    def test_reuses_given_decomposition_and_estimates(self):
        ph = build_nanorod(NanorodParams(n_grid=4))
        full = verify_ph_structure(ph)
        reused = verify_ph_structure(
            ph, decomp=decompose(ph.pencil), estimates=(full.real_index, full.complex_index)
        )
        assert replace(reused, T=None, S=None) == replace(full, T=None, S=None)

    def test_random_ph_subspace_conditions_computed(self):
        # their index-1 N blocks are rounding noise, which decompose once refused
        for n in (4, 5, 6):
            for seed in range(6):
                rep = verify_ph_structure(random_ph_pencil(n, seed=seed))
                assert not any(f.startswith("subspace conditions") for f in rep.failures)
                assert rep.subspace_conditions is not None

    def test_structural_failure_does_not_raise(self):
        # non-symmetric E*Q: flags off, report still produced
        rep = verify_ph_structure(PhPencil(np.array([[1.0, 1.0], [0.0, 1.0]]), -np.eye(2), np.eye(2)))
        assert not rep.symmetry_ok


class TestNormalize:
    def test_identity_q(self):
        ph = PhPencil(np.diag([1.0, 0.0]), -np.eye(2), np.eye(2))
        out = normalize(ph)
        assert np.allclose(out.E, ph.E) and np.allclose(out.A, ph.A)

    def test_diagonal(self):
        ph = PhPencil(np.diag([1.0, 0.0]), -np.eye(2), np.diag([2.0, 1.0]))
        assert np.allclose(normalize(ph).E, np.diag([0.5, 0.0]))

    def test_singular_q(self):
        with pytest.raises(SingularQ):
            normalize(PhPencil(np.eye(2), -np.eye(2), np.diag([1.0, 0.0])))

    def test_normalized_is_hermitian_psd(self):
        ph = random_ph_pencil(6, seed=1)
        B = normalize(ph).E
        assert spectral_norm(B - B.conj().T) <= 1e-8 * spectral_norm(B)
        assert np.min(np.linalg.eigvalsh(0.5 * (B + B.conj().T))) >= -1e-10 * spectral_norm(B)


class TestMakeT:
    def test_identity(self):
        T, c = make_T(np.eye(2))
        assert np.allclose(T, np.eye(2)) and c == 1.0

    def test_diagonal_with_kernel(self):
        T, c = make_T(np.diag([2.0, 0.0]))
        assert np.allclose(T, np.diag([0.5, 1.0]))
        assert c == pytest.approx(0.5)

    def test_rank_one_projector(self):
        v = np.array([1.0, 2.0, 2.0])
        B = np.outer(v, v) / np.dot(v, v)
        T, c = make_T(B)
        assert np.allclose(T, np.eye(3), atol=1e-12)
        assert c == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            make_T(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            make_T(np.diag([1.0, -1.0]))

    def test_btb_and_norm_equivalence_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            X = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            B = X @ X.conj().T  # PSD, rank 3
            T, c = make_T(B)
            scale = spectral_norm(B)
            assert spectral_norm(B @ T @ B - B) <= 1e-10 * scale
            tnorm = spectral_norm(T)
            for _ in range(5):
                x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                quad = float(np.vdot(x, T @ x).real)
                nx2 = float(np.vdot(x, x).real)
                assert c * nx2 <= quad * (1.0 + 1e-10)
                assert quad <= tnorm * nx2 * (1.0 + 1e-10)

    def test_no_spectral_gap(self):
        with pytest.raises(NoSpectralGap, match=r"^eigenvalue split 5\.000e-09 vs 1\.000e-11 is below the required "
                           r"gap factor 1e\+03$"):
            make_T(_NO_GAP)


class TestMakeS:
    def test_identity(self):
        S, c = make_S(_trivial_ph())
        assert np.allclose(S, np.eye(2)) and c == 1.0

    def test_diagonal(self):
        ph = PhPencil(np.diag([1.0, 0.0]), -np.eye(2), np.diag([2.0, 1.0]))
        S, c = make_S(ph)
        assert np.allclose(S, np.diag([0.5, 1.0]))
        assert c == pytest.approx(0.5)

    def test_no_spectral_gap(self):
        with pytest.raises(NoSpectralGap, match=r"^singular-value split 5\.000e-09 vs 1\.000e-11 of E is below "
                           r"the required gap factor 1e\+03$"):
            make_S(PhPencil(_NO_GAP, -np.eye(3), np.eye(3)))

    def test_verify_reports_both_gap_failures(self):
        failures = verify_ph_structure(PhPencil(_NO_GAP, -np.eye(3), np.eye(3))).failures
        assert "make_T: eigenvalue split 5.000e-09 vs 1.000e-11 is below the required gap factor 1e+03" in failures
        assert (
            "make_S: singular-value split 5.000e-09 vs 1.000e-11 of E is below the required gap factor 1e+03"
            in failures
        )

    def test_identity_residual_randomized(self):
        for seed in range(5):
            ph = random_ph_pencil(6, seed=seed)
            S, _ = make_S(ph)
            B = normalize(ph).E
            resid = spectral_norm(ph.E @ S @ ph.E.conj().T - B)
            assert resid <= 1e-8 * max(spectral_norm(B), 1.0)


class TestHamiltonian:
    def test_zero_state(self):
        assert hamiltonian(_trivial_ph(), np.zeros(2)) == 0.0

    def test_norm_squared(self):
        assert hamiltonian(_trivial_ph(), np.array([1.0, 2.0])) == pytest.approx(5.0)

    def test_negative_energy_rejected(self):
        ph = PhPencil(np.eye(1), -np.eye(1), -np.eye(1))
        with pytest.raises(ValueError):
            hamiltonian(ph, np.array([1.0]))


class TestDissipationTrace:
    def test_zero_trajectory(self):
        traj = Trajectory(np.linspace(0, 1, 11), np.zeros((11, 2)))
        out = dissipation_trace(_trivial_ph(), traj)
        assert np.all(out.H == 0.0) and out.max_increase == 0.0

    def test_scalar_exponential(self):
        ph = PhPencil(np.eye(1), -np.eye(1), np.eye(1))
        times = np.linspace(0.0, 1.0, 201)
        traj = Trajectory(times, np.exp(-times)[:, None].astype(complex))
        out = dissipation_trace(ph, traj)
        assert np.allclose(out.H, np.exp(-2.0 * times), atol=1e-12)
        assert out.max_increase < 0.0
        # midpoint rule matches dH/dt = -2 e^{-2t} to O(dt^2)
        assert out.identity_gap <= 1e-4


class TestIndexBounds:
    def test_trivial(self):
        assert ph_index_bound_check(_trivial_ph()) == (True, True)

    def test_random_ph_pencils(self):
        for seed in range(5):
            ph = random_ph_pencil(8, seed=seed)
            assert ph_index_bound_check(ph) == (True, True)


class TestSemigroupConditions:
    def test_identity_q_aligned(self):
        # a DAE, then d1 = 0 (E = 0) and d2 = 0 (E = I)
        for E in (np.diag([1.0, 0.0]), np.zeros((3, 3)), np.eye(3)):
            ph = PhPencil(E, -np.eye(len(E)), np.eye(len(E)))
            d = decompose(ph.pencil)
            assert semigroup_condition_check(ph, d) == (True, True)

    def test_generic_q_misaligned(self):
        # a generic non-unitary Q tilts Q(X1) away from Z1
        A = np.array([[0.12573022, -0.13210486], [0.64042265, 0.10490012]])
        Q = np.array([[-0.53566937, 0.36159505], [1.30400005, 0.94708096]])
        ph = PhPencil(np.diag([1.0, 0.0]), A, Q)
        d = decompose(ph.pencil)
        flags = semigroup_condition_check(ph, d)
        assert not (flags[0] and flags[1])


class TestAdjointDissipativity:
    def test_pointwise_on_random_states(self):
        rng = np.random.default_rng(3)
        for seed in range(3):
            ph = random_ph_pencil(6, seed=seed)
            T, _ = make_T(normalize(ph).E)
            for _ in range(10):
                z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                w = T @ z
                val = float(np.vdot(w, ph.A.conj().T @ w).real)
                assert val <= 1e-10 * float(np.vdot(w, w).real) * spectral_norm(ph.A)


class TestRandomGenerator:
    def test_structure_by_construction(self):
        ph = random_ph_pencil(8, seed=0, rank_deficiency=2)
        G = ph.E.conj().T @ ph.Q
        assert spectral_norm(G - G.conj().T) <= 1e-10 * spectral_norm(G)
        sigma = np.linalg.svd(ph.E, compute_uv=False)
        assert np.count_nonzero(sigma > 1e-10 * sigma[0]) == 6
        herm = 0.5 * (ph.A + ph.A.conj().T)
        assert np.max(np.linalg.eigvalsh(herm)) <= 1e-12 * spectral_norm(ph.A)

    def test_deterministic(self):
        a = random_ph_pencil(5, seed=7)
        b = random_ph_pencil(5, seed=7)
        assert np.array_equal(a.E, b.E) and np.array_equal(a.A, b.A) and np.array_equal(a.Q, b.Q)

    def test_rank_deficiency_validated(self):
        with pytest.raises(ValueError):
            random_ph_pencil(4, rank_deficiency=4)


class TestNormalizeInvariant:
    def test_eq_inverse_identity(self):
        # E*Q = Q*E implies E Q^{-1} = Q^{-*} E*
        for seed in range(3):
            ph = random_ph_pencil(6, seed=seed)
            lhs = ph.E @ np.linalg.inv(ph.Q)
            rhs = np.linalg.inv(ph.Q.conj().T) @ ph.E.conj().T
            assert spectral_norm(lhs - rhs) <= 1e-8 * max(spectral_norm(lhs), 1.0)
