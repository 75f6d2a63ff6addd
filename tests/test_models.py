"""Assembled example systems and their closed-form oracles."""

import numpy as np
import pytest
import scipy.linalg

from daepencil import (
    L2ExampleParams,
    MatrixPencil,
    NanorodParams,
    build_l2_example,
    build_nanorod,
    decompose,
    dissipation_trace,
    estimate_resolvent_index_real,
    hamiltonian,
    m_k_resolvent,
    resolvent,
    spectral_norm,
    verify_ph_structure,
    verify_radiality,
    weierstrass_solve,
)
from daepencil.errors import InvalidParams, PoleHit


class TestParams:
    def test_nanorod_positive(self):
        with pytest.raises(InvalidParams):
            NanorodParams(rho=0.0)
        with pytest.raises(InvalidParams):
            NanorodParams(tau_d=-1.0)

    def test_nanorod_grid(self):
        with pytest.raises(InvalidParams):
            NanorodParams(n_grid=3)

    def test_l2_truncation(self):
        with pytest.raises(InvalidParams):
            L2ExampleParams(K=1)


class TestNanorod:
    def test_symmetry_residual_exactly_zero(self):
        ph = build_nanorod(NanorodParams(n_grid=8))
        EsQ = ph.E.conj().T @ ph.Q
        assert spectral_norm(EsQ - EsQ.conj().T) == 0.0

    def test_dissipativity_to_rounding(self):
        ph = build_nanorod(NanorodParams(n_grid=12))
        herm = 0.5 * (ph.A + ph.A.conj().T)
        assert np.max(np.linalg.eigvalsh(herm)) <= 1e-10

    def test_dissipation_identity_on_random_states(self):
        # Re<Az, z> = -b2*||z2||^2 - (C*D*tau_d + mu*b2)*||z3||^2 exactly:
        # the centered-difference couplings cancel by antisymmetry
        params = NanorodParams(n_grid=10, b2=1.5, tau_d=2.0)
        ph = build_nanorod(params)
        n = params.n_grid
        damp3 = params.C_mod * params.D * params.tau_d + params.mu_nl * params.b2
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.standard_normal(5 * n) + 1j * rng.standard_normal(5 * n)
            lhs = float(np.vdot(z, ph.A @ z).real)
            z2 = z[n : 2 * n]
            z3 = z[2 * n : 3 * n]
            rhs = -params.b2 * float(np.vdot(z2, z2).real) - damp3 * float(np.vdot(z3, z3).real)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_passes_structure_verification(self):
        rep = verify_ph_structure(build_nanorod(NanorodParams(n_grid=8)))
        assert rep.structure_ok

    def test_hamiltonian_nonincreasing_along_solution(self):
        ph = build_nanorod(NanorodParams(n_grid=8))
        d = decompose(ph.pencil)
        rng = np.random.default_rng(1)
        x0 = d.P @ rng.standard_normal(ph.n)
        times = np.linspace(0.0, 1.0, 101)
        traj = weierstrass_solve(d, x0, times)
        out = dissipation_trace(ph, traj)
        h0 = hamiltonian(ph, x0)
        assert out.max_increase <= 1e-8 * h0

    def test_radiality_supported_at_one(self):
        # the assembled full-space pencil has nilpotency index 2, so sampling
        # supports radiality order 1 (order 0 lives on a constrained subspace
        # that the discretized pencil does not impose)
        ph = build_nanorod(NanorodParams(n_grid=10))
        ev = verify_radiality(ph.pencil, 1, omega=1.0, box_radius=100.0, decomp=decompose(ph.pencil), num_samples=150)
        assert ev.verdict == "supported"


class TestL2Example:
    def test_dimension(self):
        assert build_l2_example(L2ExampleParams(K=2)).n == 8

    def test_block_layout(self):
        p = build_l2_example(L2ExampleParams(K=2))
        s1 = np.sqrt(2.0)
        assert np.allclose(p.A[:2, :2], [[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(p.A[2:4, 2:4], [[0.0, s1], [-s1, -2.0]])
        assert np.allclose(p.E[:2, :2], np.diag([1.0, 0.0]))
        assert np.allclose(p.E[6:, 6:], 0.0)
        # feedback column: B entries (0,1,0,1,0,2^1.25)
        assert np.allclose(p.A[:6, 6], [0.0, 1.0, 0.0, 1.0, 0.0, 2.0**1.25])
        assert p.A[6, 7] == 1.0 and p.A[7, 6] == -1.0

    def test_inverse_matches_block_formula(self):
        K = 3
        p = build_l2_example(L2ExampleParams(K=K))
        m = 2 * (K + 1)
        lam = 1.7 + 0.3j
        M = scipy.linalg.block_diag(*[m_k_resolvent(k, lam) for k in range(K + 1)])
        B = p.A[:m, m]
        expected = np.zeros((m + 2, m + 2), dtype=complex)
        expected[:m, :m] = M
        expected[:m, m + 1] = M @ B
        expected[m, m + 1] = 1.0
        expected[m + 1, :m] = B.conj() @ M
        expected[m + 1, m] = -1.0
        expected[m + 1, m + 1] = B.conj() @ M @ B
        direct = np.linalg.inv(p.shifted(lam))
        assert spectral_norm(direct - expected) <= 1e-10 * spectral_norm(direct)

    def test_pseudo_resolvent_sparsity(self):
        p = build_l2_example(L2ExampleParams(K=3))
        R = np.linalg.solve(p.shifted(2.0 + 1.0j), p.E)
        assert np.all(R[:, -2:] == 0.0)

    def test_growth_anatomy(self):
        # the k = 0 block grows linearly; the damped blocks decay like 1/lam
        lams = np.geomspace(10.0, 1e3, 12)
        for lam in lams:
            n0 = spectral_norm(m_k_resolvent(0, lam))
            assert abs(n0 / lam - 1.0) <= 0.1
            worst = max(spectral_norm(m_k_resolvent(k, lam)) * lam for k in range(1, 41))
            assert worst <= 3.0

    def test_product_decay(self):
        p = build_l2_example(L2ExampleParams(K=8))
        for lam in np.geomspace(1.0, 1e3, 8):
            for mu in np.geomspace(1.0, 1e3, 8):
                R1 = np.linalg.solve(p.shifted(lam), p.E)
                R2 = np.linalg.solve(p.shifted(mu), p.E)
                assert spectral_norm(R1 @ R2) * lam * mu <= 100.0

    def test_truncation_consistent_index(self):
        indices = []
        for K in (8, 16):
            p = build_l2_example(L2ExampleParams(K=K))
            est = estimate_resolvent_index_real(p, 1.0, 5.0 * K**2, num_points=48)
            indices.append(est.index)
        assert indices[0] == indices[1]


class TestMkOracle:
    def test_k0_value(self):
        assert np.allclose(m_k_resolvent(0, 3.0), [[0.0, -1.0], [1.0, 3.0]])

    def test_k1_value(self):
        s = np.sqrt(2.0)
        expected = np.array([[3.0, s], [-s, 1.0]]) / 5.0
        assert np.allclose(m_k_resolvent(1, 1.0), expected, atol=1e-14)

    def test_matches_assembled_blocks(self):
        rng = np.random.default_rng(2)
        s0 = np.sqrt(2.0)
        for _ in range(20):
            k = int(rng.integers(0, 12))
            lam = complex(rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0))
            if k == 0:
                E_k = np.diag([1.0, 0.0])
                A_k = np.array([[0.0, -1.0], [1.0, 0.0]])
            else:
                s = np.sqrt(k**4 + 1.0)
                E_k = np.eye(2)
                A_k = np.array([[0.0, s], [-s, -2.0]])
            direct = resolvent(MatrixPencil(E_k, A_k), lam)
            assert spectral_norm(direct - m_k_resolvent(k, lam)) <= 1e-12 * spectral_norm(direct)

    def test_pole_hit(self):
        with pytest.raises(PoleHit):
            m_k_resolvent(1, -1.0 + 1.0j)  # root of lam(lam+2) + 2

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidParams):
            m_k_resolvent(-1, 1.0)
