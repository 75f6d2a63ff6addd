"""Contour-integral and decoupled IVP solvers, admissibility, mild residuals."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from conftest import random_complex, random_regular_pencil

import daepencil.core
import daepencil.solver
from daepencil import (
    L2ExampleParams,
    MatrixPencil,
    QuadratureConfig,
    SolveConfig,
    Trajectory,
    admissible_initial_state,
    bromwich_integral,
    build_l2_example,
    build_zero_dynamics,
    contour_solve,
    decompose,
    matrix_exponential,
    mild_solution_residual,
    weierstrass_solve,
)
from daepencil.errors import InconsistentInitialState, OverflowRisk, ShiftOutsideResolventSet, SingularShift
from daepencil.solver import MAX_TAIL_TERMS, NODES_PER_PANEL


def _scalar_config(p=3, mu=1.0, omega=0.5):
    return SolveConfig(mu=mu, omega=omega, p=p)


class TestConfigs:
    def test_quadrature_validated(self):
        with pytest.raises(ValueError):
            QuadratureConfig(tolerance=-1.0)

    def test_solve_config_validated(self):
        with pytest.raises(ValueError):
            SolveConfig(mu=0.2, omega=0.5, p=3)  # Re mu <= omega
        with pytest.raises(ValueError):
            SolveConfig(mu=1.0, omega=0.5, p=0)

    def test_trajectory_validated(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)))


def _pole(a: complex, order: int):
    """The Laplace transform 1/(lambda - a)^order of t^(order-1) e^(a t) / (order-1)!."""
    return lambda lams: (1.0 / (lams - a) ** order)[:, None]


class TestBromwichIntegral:
    A = -1.0 + 0.5j

    @pytest.mark.parametrize("omega", [0.7, 1.0, 3.3])
    @pytest.mark.parametrize("times", [[0.5, 0.6, 1.0], [1.0]], ids=["nonuniform", "single"])
    def test_closed_form(self, omega, times):
        times = np.array(times)
        quad = QuadratureConfig()
        values, record = bromwich_integral(_pole(self.A, 2), omega, times, quad)
        assert np.max(np.abs(values[:, 0] - times * np.exp(self.A * times))) <= quad.tolerance
        assert record["last_difference"] <= quad.tolerance

    @pytest.mark.parametrize(
        "times",
        [np.linspace(0, 1, 101), np.linspace(0, 5, 101), np.array([0, 0.1, 0.15, 0.4, 0.41, 1])],
        ids=["uniform", "long", "nonuniform"],
    )
    def test_phase_recurrence_matches_exp(self, times):
        # the same sum over the final nodes, with every phase from np.exp
        omega, f = 1.0, _pole(self.A, 3)
        values, record = bromwich_integral(f, omega, times, QuadratureConfig())
        K = round(record["half_length"] / (2.0 * omega))
        x, w = np.polynomial.legendre.leggauss(record["nodes_per_panel"])
        mids = (np.arange(-K, K) + 0.5) * 2.0 * omega  # panels of length 2 omega
        lams = (omega + 1j * (mids[:, None] + omega * x)).ravel()
        ws = np.tile(omega * w, 2 * K)
        chunks = [slice(start, start + 8192) for start in range(0, len(lams), 8192)]
        ref = sum((np.exp(np.outer(times, lams[c])) * ws[c]) @ f(lams[c]) for c in chunks) / (2 * np.pi)
        assert np.max(np.abs(values - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_truncation_evaluates_each_node_once(self):
        seen = []

        def f(lams):
            seen.append(lams)
            return _pole(self.A, 3)(lams)

        _, record = bromwich_integral(f, 1.0, np.linspace(0.0, 1.0, 11), QuadratureConfig())
        nodes = np.concatenate(seen)
        assert record["nodes_evaluated"] == len(nodes)
        # phase 1 covers [-T, T] once at the initial density, phase 2 once per doubling
        per_pass = 2 * record["half_length"] / (2.0 * 1.0) * NODES_PER_PANEL
        doublings = record["density_refinements"]
        assert len(nodes) == per_pass * (1 + sum(2**j for j in range(1, doublings + 1)))
        first = nodes[: int(per_pass)]
        assert len(np.unique(first)) == len(first)


class TestAdmissibility:
    def test_zero_state(self):
        p = MatrixPencil(np.eye(2), -np.eye(2))
        member, z0, residual = admissible_initial_state(p, 1.0, 3, np.zeros(2))
        assert member and residual == 0.0
        assert np.all(z0 == 0)

    def test_scalar_sign_convention(self):
        # E=I, A=[a], p=2, mu=1: R(mu) = 1/(mu-a) so z0 = -(mu-a)^2 x0
        a = -2.0
        p = MatrixPencil(np.eye(1), [[a]])
        member, z0, _ = admissible_initial_state(p, 1.0, 2, np.array([1.0]))
        assert member
        assert z0[0, 0] == pytest.approx(-(1.0 - a) ** 2, rel=1e-10)

    def test_nilpotent_component_not_member(self):
        p = MatrixPencil(np.diag([1.0, 0.0]), np.eye(2))
        member, _, residual = admissible_initial_state(p, 2.0, 2, np.array([1.0, 1.0]))
        assert not member
        assert residual > 1e-3

    def test_singular_G_refused_typed(self):
        # with P = I, G = R(mu) + I - P is R(mu) itself, singular with E: its LU is refused by the one
        # rule as a typed error, naming mu and the condition estimate, not as a LinAlgWarning
        p = random_regular_pencil(np.random.default_rng(5), 3, 2, stable=True)
        decomp = dataclasses.replace(decompose(p), P=np.eye(p.n))
        x0 = random_complex(np.random.default_rng(6), p.n)
        message = r"^G = R\(mu\) \+ I - P is singular at mu = 2\.0: 1-norm condition estimate \d\.\d{3}e\+\d+, limit "
        with pytest.raises(SingularShift, match=message):
            admissible_initial_state(p, 2.0, 2, x0, decomp)


class TestContourSolve:
    def test_zero_initial_state(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        traj = contour_solve(p, np.zeros(1), _scalar_config(), np.linspace(0.0, 1.0, 11))
        assert np.max(np.abs(traj.states)) <= 1e-8

    def test_scalar_exponential(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        cfg = _scalar_config()
        member, z0, _ = admissible_initial_state(p, cfg.mu, cfg.p, np.array([1.0]))
        assert member
        times = np.linspace(0.0, 2.0, 21)
        traj = contour_solve(p, z0, cfg, times)
        assert np.max(np.abs(traj.states[:, 0] - np.exp(-times))) <= 1e-6

    def test_initial_value_recovery(self):
        p = MatrixPencil(np.eye(2), np.diag([-1.0, -3.0]))
        cfg = _scalar_config()
        x0 = np.array([1.0, -0.5])
        member, z0, _ = admissible_initial_state(p, cfg.mu, cfg.p, x0)
        assert member
        traj = contour_solve(p, z0, cfg, np.linspace(0.0, 0.5, 6))
        assert np.linalg.norm(traj.states[0] - x0) <= 10.0 * cfg.quad.tolerance

    def test_agrees_with_weierstrass_on_zero_dynamics(self):
        model = build_zero_dynamics(
            np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0]
        )
        d = decompose(model.pencil)
        # project a generic vector onto the solvable subspace
        x0 = d.P @ np.array([1.0, -1.0, 0.5, 0.25, 0.0])
        cfg = SolveConfig(mu=1.5, omega=0.5, p=max(3, d.nilpotency_index + 1))
        member, z0, _ = admissible_initial_state(model.pencil, cfg.mu, cfg.p, x0)
        assert member
        times = np.linspace(0.0, 1.0, 11)
        a = contour_solve(model.pencil, z0, cfg, times)
        b = weierstrass_solve(d, x0, times)
        scale = np.max(np.linalg.norm(b.states, axis=1))
        assert np.max(np.linalg.norm(a.states - b.states, axis=1)) <= 1e-5 * scale

    def test_uniqueness_across_representations(self):
        p = MatrixPencil(np.eye(2), np.diag([-1.0, -2.0]))
        x0 = np.array([1.0, 1.0])
        times = np.linspace(0.0, 1.0, 11)
        runs = []
        for mu, pp in ((1.0, 3), (2.0, 4)):
            cfg = SolveConfig(mu=mu, omega=0.5, p=pp)
            member, z0, _ = admissible_initial_state(p, mu, pp, x0)
            assert member
            runs.append(contour_solve(p, z0, cfg, times).states)
        assert np.max(np.abs(runs[0] - runs[1])) <= 1e-5

    def test_omega_checked_on_the_qz_form(self, monkeypatch):
        # the abscissa is checked by resolvent_norms on the cached QZ form: no dense SVD per solve
        p = MatrixPencil(np.eye(2), np.diag([-1.0, -3.0]))
        cfg = _scalar_config()
        _, z0, _ = admissible_initial_state(p, cfg.mu, cfg.p, np.array([1.0, -0.5]))
        calls = []
        svd_check = daepencil.core.resolvent_norm
        monkeypatch.setattr(daepencil.core, "resolvent_norm", lambda *args: calls.append(args) or svd_check(*args))
        contour_solve(p, z0, cfg, np.linspace(0.0, 0.5, 6))
        assert calls == [] and not hasattr(daepencil.solver, "resolvent_norm")

    def test_omega_at_an_eigenvalue_refused(self):
        p = MatrixPencil(np.eye(2), np.diag([0.5, -1.0]))
        with pytest.raises(ShiftOutsideResolventSet, match="abscissa omega = 0.5"):
            contour_solve(p, np.ones(2), SolveConfig(mu=1.5, omega=0.5, p=2), np.linspace(0.0, 1.0, 3))

    def test_tail_held_at_zero_for_large_preimage(self):
        # (1, -100) at mu = 2: ||z0|| = 102^2 ~ 1e4, and the next preimage ~ 1e6 would lose
        # eps * 1e6 ~ 2e-10 > tolerance / 100 to rounding, so no tail term is subtracted
        p = MatrixPencil(np.eye(1), [[-100.0]])
        cfg = SolveConfig(mu=2.0, omega=1.0, p=2)
        _, chain, _ = admissible_initial_state(p, cfg.mu, cfg.p, np.array([1.0]))
        assert chain.shape == (MAX_TAIL_TERMS + 1, 1)
        times = np.linspace(0.0, 0.1, 3)
        tailed = contour_solve(p, chain, cfg, times)
        assert tailed.quadrature["tail_terms"] == 0
        assert np.array_equal(tailed.states, contour_solve(p, chain[0], cfg, times).states)
        assert np.max(np.abs(tailed.states[:, 0] - np.exp(-100.0 * times))) <= 1e-9


class TestWeierstrassSolve:
    def test_ode_reduces_to_exponential(self):
        A = np.diag([-1.0, -2.0])
        d = decompose(MatrixPencil(np.eye(2), A))
        times = np.linspace(0.0, 1.0, 5)
        traj = weierstrass_solve(d, np.array([1.0, 1.0]), times)
        expected = np.exp(np.outer(times, np.diag(A)))
        assert np.allclose(traj.states, expected, atol=1e-12)

    def test_dae_block_closed_form(self):
        d = decompose(MatrixPencil(np.diag([1.0, 0.0]), np.eye(2)))
        times = np.linspace(0.0, 1.0, 5)
        traj = weierstrass_solve(d, np.array([1.0, 0.0]), times)
        assert np.allclose(traj.states[:, 0], np.exp(times), atol=1e-10)
        assert np.allclose(traj.states[:, 1], 0.0, atol=1e-10)

    def test_one_exponential_per_distinct_step(self, monkeypatch):
        A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 1.0], [0.0, 0.5, -3.0]])
        d = decompose(MatrixPencil(np.eye(3), A))
        steps = []
        original = daepencil.solver.matrix_exponential

        def counted(M, t=1.0):
            steps.append(t)
            return original(M, t)

        monkeypatch.setattr(daepencil.solver, "matrix_exponential", counted)
        times = np.linspace(0.0, 1.0, 101)
        x0 = np.array([1.0, -0.5, 0.25])
        traj = weierstrass_solve(d, x0, times)
        assert len(steps) == len(np.unique(np.diff(times, prepend=0.0))) == 9
        expected = np.array([scipy.linalg.expm(A * t) @ x0 for t in times])
        assert np.max(np.abs(traj.states - expected)) <= 1e-13

    def test_overflow_of_the_stepped_state_raises(self):
        # every step's exp(1 * 8) is finite, but the state reaches e^800 by t = 800
        d = decompose(MatrixPencil(np.eye(1), [[1.0]]))
        with pytest.raises(OverflowRisk):
            weierstrass_solve(d, np.array([1.0]), np.linspace(0.0, 800.0, 101))

    def test_inconsistent_state_raises(self):
        d = decompose(MatrixPencil(np.diag([1.0, 0.0]), np.eye(2)))
        with pytest.raises(InconsistentInitialState):
            weierstrass_solve(d, np.array([1.0, 1.0]), np.linspace(0.0, 1.0, 5))


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exponential(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        out = matrix_exponential(np.diag([-1.0, -2.0]))
        assert np.allclose(out, np.diag(np.exp([-1.0, -2.0])), rtol=1e-12)

    def test_nilpotent_series_terminates(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(matrix_exponential(N), np.eye(2) + N, atol=1e-14)

    def test_overflow_risk(self):
        with pytest.raises(OverflowRisk):
            matrix_exponential(np.array([[800.0]]))

    def test_empty_block(self):
        assert matrix_exponential(np.zeros((0, 0))).shape == (0, 0)

    def test_large_rotation_no_overflow(self):
        # ||M|| = 1000 but exp(M t) is unitary
        out = matrix_exponential(np.array([[0.0, 1000.0], [-1000.0, 0.0]]))
        c, s = np.cos(1000.0), np.sin(1000.0)
        assert np.allclose(out, [[c, s], [-s, c]], atol=1e-9)

    def test_l2_finite_block_no_overflow(self):
        # A1 of l2 K=40 is stable, but ||A1|| ~ 4e5 and its logarithmic norm
        # ~ 2e5 after the ill-conditioned Weierstrass transforms
        pencil = build_l2_example(L2ExampleParams(K=40))
        d = decompose(pencil)
        z = np.random.default_rng(1).standard_normal(pencil.n)
        x0 = np.linalg.matrix_power(np.linalg.solve(3.0 * pencil.E - pencil.A, pencil.E), 4) @ z
        traj = weierstrass_solve(d, x0 / np.max(np.abs(x0)), np.linspace(0.0, 1.0, 11))
        assert np.all(np.isfinite(traj.states))
        assert np.max(np.abs(traj.states)) <= 10.0


class TestMildResidual:
    def test_zero_trajectory(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        traj = Trajectory(np.linspace(0.0, 1.0, 11), np.zeros((11, 1)))
        assert mild_solution_residual(p, traj) == 0.0

    def test_contour_output_small(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        cfg = _scalar_config()
        _, z0, _ = admissible_initial_state(p, cfg.mu, cfg.p, np.array([1.0]))
        traj = contour_solve(p, z0, cfg, np.linspace(0.0, 1.0, 101))
        assert mild_solution_residual(p, traj) <= 1e-6

    def test_corruption_detected(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        times = np.linspace(0.0, 1.0, 101)
        states = np.exp(-times)[:, None].astype(complex)
        states[50, 0] += 0.1
        assert mild_solution_residual(p, Trajectory(times, states)) >= 1e-3

    @pytest.mark.parametrize("nt", [5, 6, 101])
    def test_integral_is_scipy_cumulative_simpson(self, nt):
        from scipy.integrate import cumulative_simpson

        rng = np.random.default_rng(nt)
        p = MatrixPencil(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        times = np.sort(rng.uniform(0.0, 2.0, nt))
        x = rng.standard_normal((nt, 3)) + 1j * rng.standard_normal((nt, 3))
        integral = cumulative_simpson(x.real, x=times, axis=0, initial=0.0) + 1j * cumulative_simpson(
            x.imag, x=times, axis=0, initial=0.0
        )
        Ex = x @ p.E.T
        deviation = np.max(np.linalg.norm(Ex - Ex[0] - integral @ p.A.T, axis=1))
        assert mild_solution_residual(p, Trajectory(times, x)) == deviation / (1.0 + np.linalg.norm(Ex[0]))

    def test_too_few_samples(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        with pytest.raises(ValueError):
            mild_solution_residual(p, Trajectory(np.linspace(0, 1, 3), np.zeros((3, 1))))
