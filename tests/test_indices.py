"""Resolvent-growth index estimation, radiality sampling, integrated semigroups."""

import numpy as np
import pytest
import scipy.linalg
from conftest import random_well_conditioned

from daepencil import (
    MatrixPencil,
    NanorodParams,
    build_nanorod,
    build_zero_dynamics,
    decompose,
    estimate_resolvent_index_complex,
    estimate_resolvent_index_real,
    index_relations_check,
    integrated_semigroup_order,
    integrated_semigroup_sample,
    verify_radiality,
)
from daepencil.errors import ShiftOutsideResolventSet
from daepencil.indices import _max_radiality_ratio

N2 = np.array([[0.0, 0.0], [1.0, 0.0]])


class TestRealIndex:
    def test_scalar_contraction(self):
        est = estimate_resolvent_index_real(MatrixPencil(np.eye(1), [[-1.0]]), 0.1, 1e3)
        assert est.slope == pytest.approx(-1.0, abs=0.05)
        assert est.index == 0
        assert not est.slope_warning

    def test_nilpotent_growth(self):
        est = estimate_resolvent_index_real(MatrixPencil(N2, np.eye(2)), 0.1, 1e3)
        assert est.slope == pytest.approx(1.0, abs=0.05)
        assert est.index == 2

    def test_singular_grid_point_raises(self):
        # the geometric grid 0.5 * 4^(k/8) hits the spectrum point 1 at k = 4
        with pytest.raises(ShiftOutsideResolventSet):
            estimate_resolvent_index_real(MatrixPencil(np.eye(1), [[1.0]]), 0.5, 2.0, num_points=8)

    def test_num_points_validated(self):
        with pytest.raises(ValueError):
            estimate_resolvent_index_real(MatrixPencil(np.eye(1), [[-1.0]]), 0.1, 10.0, num_points=4)


class TestComplexIndex:
    def test_scalar_contraction(self):
        est = estimate_resolvent_index_complex(MatrixPencil(np.eye(1), [[-1.0]]), 0.5, 1e3)
        assert est.index == 0

    def test_nilpotent_growth(self):
        est = estimate_resolvent_index_complex(MatrixPencil(N2, np.eye(2)), 0.5, 1e3)
        assert est.index == 2


class TestRadiality:
    def test_scalar_contraction_supported(self):
        ev = verify_radiality(MatrixPencil(np.eye(1), [[-1.0]]), 0, omega=1e-6, box_radius=10.0)
        assert ev.verdict == "supported"
        assert ev.empirical_constant == pytest.approx(1.0, abs=0.1)

    def test_zero_dynamics_orders(self):
        model = build_zero_dynamics(np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0])
        # the sampling box must extend past the saturation scale of the
        # empirical constant, otherwise genuine growth of the ratio is still
        # visible for the supported order
        lo = verify_radiality(model.pencil, 0, omega=0.5, box_radius=100.0, num_samples=200)
        hi = verify_radiality(model.pencil, 1, omega=0.5, box_radius=100.0, num_samples=200)
        assert lo.verdict == "falsified"
        assert hi.verdict == "supported"

    def test_weierstrass_dissipative_supported(self):
        # dissipative finite block plus nilpotent block of degree <= p+1
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 3))
        A1 = 0.5 * (W - W.T) - np.eye(3)
        E = scipy.linalg.block_diag(np.eye(3), np.triu(np.ones((2, 2)), 1))
        A = scipy.linalg.block_diag(A1, np.eye(2))
        ev = verify_radiality(MatrixPencil(E, A), 1, omega=0.5, box_radius=100.0, num_samples=200)
        assert ev.verdict == "supported"

    def test_deterministic_given_seed(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        a = verify_radiality(p, 0, omega=0.5, box_radius=5.0, num_samples=50, seed=3)
        b = verify_radiality(p, 0, omega=0.5, box_radius=5.0, num_samples=50, seed=3)
        assert a.max_ratio == b.max_ratio


def _dense_radiality_ratio(pencil, p, omega, box_radius, n_max, num_samples, rng):
    """Reference: dense solves and inverses of lambda*E - A at every shift."""
    E = pencil.E
    worst = 0.0
    for _ in range(num_samples):
        lams = omega + box_radius * rng.uniform(size=p + 1)
        n = int(rng.integers(1, n_max + 1))
        right = np.eye(pencil.n, dtype=complex)
        left = np.eye(pencil.n, dtype=complex)
        for lam in lams:
            shifted = pencil.shifted(lam)
            right = right @ np.linalg.solve(shifted, E)
            left = left @ (E @ np.linalg.inv(shifted))
        weight = float(np.prod(np.abs(lams - omega)) ** n)
        norm = max(
            np.linalg.norm(np.linalg.matrix_power(right, n), 2),
            np.linalg.norm(np.linalg.matrix_power(left, n), 2),
        )
        worst = max(worst, norm * weight)
    return worst


class TestRadialityRatio:
    @pytest.mark.parametrize(
        "pencil, p",
        [
            (build_nanorod(NanorodParams(n_grid=4)).pencil, 1),
            (build_zero_dynamics(np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0]).pencil, 0),
            (MatrixPencil(scipy.linalg.block_diag(np.eye(3), N2), scipy.linalg.block_diag(-np.eye(3), np.eye(2))), 2),
        ],
        ids=["nanorod", "zero-dyn", "nilpotent"],
    )
    @pytest.mark.parametrize("box_radius", [10.0, 1e3])
    def test_matches_dense_reference(self, pencil, p, box_radius):
        args = (pencil, p, 0.5, box_radius, 3, 40)
        fast = _max_radiality_ratio(*args, np.random.default_rng(7))
        ref = _dense_radiality_ratio(*args, np.random.default_rng(7))
        assert fast == pytest.approx(ref, rel=1e-10)


class TestIndexRelations:
    def test_ode_case_chain_fails(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        d = decompose(p)
        est = estimate_resolvent_index_real(p, 0.1, 1e3)
        rad = verify_radiality(p, 0, omega=0.5, box_radius=10.0, num_samples=100)
        rep = index_relations_check(d, est, rad)
        assert rep["p_nilp"] == 0 and rep["p_res"] == 0 and rep["p_rad"] == 0
        assert not rep["chain_holds"]  # 0+1 != 0 in the index-0 ODE case
        assert rep["nilp_le_rad_plus_1"]
        assert rep["res_eq_nilp"]

    def test_zero_dynamics_chain_holds(self):
        model = build_zero_dynamics(np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0])
        d = decompose(model.pencil)
        est = estimate_resolvent_index_real(model.pencil, 0.5, 1e3)
        rad = verify_radiality(model.pencil, 1, omega=0.5, box_radius=100.0, num_samples=200)
        rep = index_relations_check(d, est, rad)
        assert rep["p_nilp"] == 2 and rep["p_res"] == 2 and rep["p_rad"] == 1
        assert rep["chain_holds"]

    def test_pure_nilpotent(self):
        p = MatrixPencil(N2, np.eye(2))
        d = decompose(p)
        est = estimate_resolvent_index_real(p, 0.1, 1e3)
        rad = verify_radiality(p, 1, omega=0.5, box_radius=100.0, num_samples=100)
        rep = index_relations_check(d, est, rad)
        assert rep["p_nilp"] == 2
        assert rep["res_eq_nilp"]


class TestEstimateInvariance:
    def test_index_stable_under_equivalence(self):
        rng = np.random.default_rng(1)
        E0 = scipy.linalg.block_diag(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        A0 = scipy.linalg.block_diag(np.diag([-1.0, -2.0]), np.eye(2))
        base = MatrixPencil(E0, A0)
        ref = estimate_resolvent_index_real(base, 0.5, 1e3).index
        for _ in range(3):
            G = random_well_conditioned(rng, 4)
            H = random_well_conditioned(rng, 4)
            p = MatrixPencil(G @ base.E @ H, G @ base.A @ H)
            assert estimate_resolvent_index_real(p, 0.5, 1e3).index == ref


class TestIntegratedSemigroup:
    def test_order_formula(self):
        assert integrated_semigroup_order(0) == 2
        assert integrated_semigroup_order(1) == 3
        assert integrated_semigroup_order(3) == 5

    def test_once_integrated_zero_operator(self):
        # S(t) = t*I for the 1-times integrated semigroup of the zero operator
        out = integrated_semigroup_sample(np.zeros((1, 1)), 2, 1.0, np.array([1.0]))
        assert out[0].real == pytest.approx(1.0, abs=1e-6)

    def test_matches_matrix_exponential(self):
        out = integrated_semigroup_sample(np.array([[-1.0]]), 1, 1.0, np.array([1.0]))
        assert out[0].real == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_integral_of_exponential(self):
        out = integrated_semigroup_sample(np.array([[-1.0]]), 2, 1.0, np.array([1.0]))
        assert out[0].real == pytest.approx(1.0 - np.exp(-1.0), abs=1e-6)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            integrated_semigroup_sample(np.array([[-1.0]]), 0, 1.0, np.array([1.0]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_laplace_identity(self, n):
        # (lam I - A)^{-1} x = lam^{n-1} * integral of exp(-lam t) S(t) x
        from daepencil import QuadratureConfig

        A1 = np.array([[-1.0, 0.5], [0.0, -2.0]])
        x = np.array([1.0, -1.0])
        lam = 1.0 + 1.0  # omega + 1 with omega = max(Re spec, 0) + 1 = 1
        quad = QuadratureConfig(tolerance=1e-7)
        # composite Gauss-Legendre in t: spectral accuracy with few samples
        gx, gw = np.polynomial.legendre.leggauss(6)
        edges = np.linspace(0.0, 9.0, 13)
        integral = np.zeros(2, dtype=complex)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xi, wi in zip(gx, gw):
                t = mid + half * xi
                integral += half * wi * np.exp(-lam * t) * integrated_semigroup_sample(
                    A1, n, t, x, quad=quad
                )
        lhs = np.linalg.solve(lam * np.eye(2) - A1, x)
        rhs = lam ** (n - 1) * integral
        assert np.linalg.norm(lhs - rhs) <= 1e-4 * np.linalg.norm(lhs)
