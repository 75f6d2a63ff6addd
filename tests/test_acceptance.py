"""Acceptance gate: one printed pass/fail line per criterion.

Each test prints its verdict directly to the terminal (bypassing capture)
and then asserts it, so a plain pytest run shows the full scoreboard.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    random_complex,
    random_nilpotent,
    random_regular_pencil,
    random_stable,
)

from daepencil import (
    L2ExampleParams,
    MatrixPencil,
    NanorodParams,
    SolveConfig,
    admissible_initial_state,
    build_l2_example,
    build_nanorod,
    build_zero_dynamics,
    contour_solve,
    decompose,
    dissipation_trace,
    estimate_resolvent_index_complex,
    estimate_resolvent_index_real,
    hamiltonian,
    integrated_semigroup_sample,
    m_k_resolvent,
    make_T,
    matrix_exponential,
    mild_solution_residual,
    ph_index_bound_check,
    random_ph_pencil,
    reconstruct,
    resolvent,
    right_pseudo_resolvent,
    spectral_norm,
    verify_radiality,
    weierstrass_solve,
)


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def l2_pencil():
    return build_l2_example(L2ExampleParams(K=40))


@pytest.fixture(scope="module")
def zero_dyn_model():
    return build_zero_dynamics(
        np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0]
    )


def test_criterion_1_real_axis_growth(capsys, l2_pencil):
    start = time.time()
    est = estimate_resolvent_index_real(l2_pencil, 1.0, 1e3, num_points=64)
    elapsed = time.time() - start
    ok = 0.8 <= est.slope <= 1.2 and est.index == 2 and elapsed <= 60.0
    _verdict(
        capsys,
        "criterion 1 (sequence-space real-axis growth)",
        ok,
        f"slope {est.slope:.3f} in [0.8, 1.2], index {est.index} == 2, {elapsed:.1f}s <= 60s",
    )


def test_criterion_1_complex_growth(capsys, l2_pencil):
    # the vertical-line estimator at any finite truncation K sees the same
    # near-linear growth as the real axis (the extra power only emerges in
    # the infinite-dimensional limit), so the target slope window is not
    # reachable and this check fails honestly
    start = time.time()
    est = estimate_resolvent_index_complex(l2_pencil, 1.0, 5 * 40**2, 4, 64)
    elapsed = time.time() - start
    ok = 1.7 <= est.slope <= 2.3 and est.index == 3 and elapsed <= 60.0
    _verdict(
        capsys,
        "criterion 1 (sequence-space complex growth)",
        ok,
        f"slope {est.slope:.3f} vs target [1.7, 2.3], index {est.index} vs 3, {elapsed:.1f}s",
    )


def test_criterion_2_l2_radiality(capsys, l2_pencil):
    start = time.time()
    hi = verify_radiality(l2_pencil, 1, omega=0.5, box_radius=8e3, d1=80, nilpotency=2, num_samples=500, n_max=3)
    lo = verify_radiality(l2_pencil, 0, omega=0.5, box_radius=8e3, d1=80, nilpotency=2, num_samples=500, n_max=3)
    elapsed = time.time() - start
    ok = hi.verdict == "supported" and lo.verdict == "falsified" and elapsed <= 60.0
    _verdict(
        capsys,
        "criterion 2 (sequence-space radiality order)",
        ok,
        f"p=1 {hi.verdict}, p=0 {lo.verdict}, {elapsed:.1f}s <= 60s",
    )


def test_criterion_3_zero_dynamics(capsys, zero_dyn_model):
    start = time.time()
    model = zero_dyn_model
    m = 4
    d = decompose(model.pencil)
    N = np.array([[0.0, 0.0], [1.0, 0.0]])
    E_expect = scipy.linalg.block_diag(np.eye(m - 1), N)
    block_resid = spectral_norm(model.E_tilde - E_expect)
    A_tl = model.A_tilde[: m - 1, : m - 1]
    A_expect = scipy.linalg.block_diag(A_tl, np.eye(2))
    block_resid = max(block_resid, spectral_norm(model.A_tilde - A_expect))
    hi = verify_radiality(model.pencil, 1, omega=0.5, box_radius=100.0, d1=m - 1, nilpotency=d.nilpotency_index,
                           num_samples=200)
    lo = verify_radiality(model.pencil, 0, omega=0.5, box_radius=100.0, d1=m - 1, nilpotency=d.nilpotency_index,
                           num_samples=200)
    elapsed = time.time() - start
    ok = (
        d.nilpotency_index == 2
        and block_resid <= 1e-10
        and hi.verdict == "supported"
        and lo.verdict == "falsified"
        and elapsed <= 10.0
    )
    _verdict(
        capsys,
        "criterion 3 (rank-one coupling model)",
        ok,
        f"nilpotency {d.nilpotency_index} == 2, block residual {block_resid:.1e} <= 1e-10, "
        f"p=1 {hi.verdict}, p=0 {lo.verdict}, {elapsed:.1f}s <= 10s",
    )


def test_criterion_4_nanorod(capsys):
    start = time.time()
    ph = build_nanorod(NanorodParams(n_grid=50))
    EsQ = ph.E.conj().T @ ph.Q
    sym = spectral_norm(EsQ - EsQ.conj().T)
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (EsQ + EsQ.conj().T))))
    max_diss = float(np.max(np.linalg.eigvalsh(0.5 * (ph.A + ph.A.conj().T))))
    d = decompose(ph.pencil)
    rng = np.random.default_rng(0)
    x0 = d.P @ rng.standard_normal(ph.n)
    traj = weierstrass_solve(d, x0, np.linspace(0.0, 1.0, 101))
    trace = dissipation_trace(ph, traj)
    h0 = hamiltonian(ph, x0)
    elapsed = time.time() - start
    ok = (
        sym <= 1e-10
        and min_eig >= -1e-10
        and max_diss <= 1e-10
        and trace.max_increase <= 1e-8 * h0
        and elapsed <= 30.0
    )
    _verdict(
        capsys,
        "criterion 4 (nanorod energy structure)",
        ok,
        f"symmetry {sym:.1e}, min eig {min_eig:.1e}, dissipativity {max_diss:.1e}, "
        f"max energy increase {trace.max_increase:.1e} <= {1e-8 * h0:.1e}, {elapsed:.1f}s <= 30s",
    )


def test_criterion_5_ph_index_bounds(capsys):
    start = time.time()
    verdicts = [ph_index_bound_check(random_ph_pencil(8, seed=s)) for s in range(50)]
    elapsed = time.time() - start
    ok = all(v == (True, True) for v in verdicts) and elapsed <= 120.0
    _verdict(
        capsys,
        "criterion 5 (energy-structured index bounds)",
        ok,
        f"{sum(v == (True, True) for v in verdicts)}/50 pencils within (real <= 2, complex <= 3), "
        f"{elapsed:.1f}s <= 120s",
    )


def test_criterion_6_solver_equivalence(capsys, zero_dyn_model):
    start = time.time()
    times = np.linspace(0.0, 1.0, 11)
    worst = 0.0

    scalar = MatrixPencil(np.eye(1), [[-1.0]])
    cfg = SolveConfig(mu=1.0, omega=0.5, p=3)
    member, z0, _ = admissible_initial_state(scalar, cfg.mu, cfg.p, np.array([1.0]))
    assert member
    traj_c = contour_solve(scalar, z0, cfg, times)
    traj_w = weierstrass_solve(decompose(scalar), np.array([1.0]), times)
    worst = max(worst, float(np.max(np.abs(traj_c.states - traj_w.states))))
    recovery = float(np.abs(traj_c.states[0, 0] - 1.0))

    model = zero_dyn_model
    d = decompose(model.pencil)
    x0 = d.P @ np.array([1.0, -1.0, 0.5, 0.25, 0.0])
    cfg = SolveConfig(mu=1.5, omega=0.5, p=3)
    member, z0, _ = admissible_initial_state(model.pencil, cfg.mu, cfg.p, x0)
    assert member
    a = contour_solve(model.pencil, z0, cfg, times)
    b = weierstrass_solve(d, x0, times)
    scale = float(np.max(np.linalg.norm(b.states, axis=1)))
    worst = max(worst, float(np.max(np.linalg.norm(a.states - b.states, axis=1))) / scale)
    recovery = max(recovery, float(np.linalg.norm(a.states[0] - x0)))

    zero = contour_solve(scalar, np.zeros(1), cfg_scalar := SolveConfig(mu=1.0, omega=0.5, p=3), times)
    zero_max = float(np.max(np.abs(zero.states)))
    elapsed = time.time() - start
    ok = (
        worst <= 1e-5
        and zero_max <= 1e-8
        and recovery <= 10.0 * cfg_scalar.quad.tolerance
        and elapsed <= 30.0
    )
    _verdict(
        capsys,
        "criterion 6 (solver equivalence and uniqueness)",
        ok,
        f"contour vs decoupled {worst:.1e} <= 1e-5, zero-state {zero_max:.1e} <= 1e-8, "
        f"x(0) recovery {recovery:.1e} <= {10.0 * cfg_scalar.quad.tolerance:.0e}, {elapsed:.1f}s <= 30s",
    )


def test_criterion_7_mild_solution_contract(capsys, zero_dyn_model):
    times = np.linspace(0.0, 1.0, 101)
    residuals = []

    scalar = MatrixPencil(np.eye(1), [[-1.0]])
    cfg = SolveConfig(mu=1.0, omega=0.5, p=3)
    _, z0, _ = admissible_initial_state(scalar, cfg.mu, cfg.p, np.array([1.0]))
    residuals.append(mild_solution_residual(scalar, contour_solve(scalar, z0, cfg, times)))

    model = zero_dyn_model
    d = decompose(model.pencil)
    x0 = d.P @ np.array([1.0, -1.0, 0.5, 0.25, 0.0])
    cfg = SolveConfig(mu=1.5, omega=0.5, p=3)
    _, z0, _ = admissible_initial_state(model.pencil, cfg.mu, cfg.p, x0)
    residuals.append(mild_solution_residual(model.pencil, contour_solve(model.pencil, z0, cfg, times)))
    residuals.append(mild_solution_residual(model.pencil, weierstrass_solve(d, x0, times)))

    ph = build_nanorod(NanorodParams(n_grid=20))
    dn = decompose(ph.pencil)
    xn = dn.P @ np.random.default_rng(0).standard_normal(ph.n)
    residuals.append(mild_solution_residual(ph.pencil, weierstrass_solve(dn, xn, times)))

    worst = max(residuals)
    ok = worst <= 1e-6
    _verdict(
        capsys,
        "criterion 7 (mild-solution contract)",
        ok,
        f"worst residual over {len(residuals)} emitted trajectories {worst:.1e} <= 1e-6",
    )


def _integrated_semigroup_closed(A: np.ndarray, n: int, t: float, x: np.ndarray) -> np.ndarray:
    """(n-1)-times integrated semigroup of an invertible generator, in closed form."""
    S = matrix_exponential(A, t)
    if n == 1:
        return S @ x
    poly = sum(np.linalg.matrix_power(t * A, k) / math.factorial(k) for k in range(n - 1))
    return np.linalg.solve(np.linalg.matrix_power(A, n - 1), (S - poly) @ x)


def test_criterion_8_property_suites(capsys):
    start = time.time()
    worsts: dict[str, float] = {}

    # pseudo-resolvent identity and derivative identity: 100 instances each
    w_res, w_der = 0.0, 0.0
    for s in range(100):
        rng = np.random.default_rng(s)
        p = random_regular_pencil(rng, 3, 2, stable=True)
        scale = spectral_norm(p.E) + spectral_norm(p.A)
        lam = 1.0 + rng.uniform() + 1j * rng.uniform(-1.0, 1.0)
        mu = 2.5 + rng.uniform() + 1j * rng.uniform(-1.0, 1.0)
        Rl = right_pseudo_resolvent(p, lam)
        Rm = right_pseudo_resolvent(p, mu)
        w_res = max(w_res, spectral_norm(Rl - Rm - (mu - lam) * (Rl @ Rm)) / scale)
        h = 1e-5
        fd = (right_pseudo_resolvent(p, lam + h) - right_pseudo_resolvent(p, lam - h)) / (2.0 * h)
        w_der = max(w_der, spectral_norm(fd + Rl @ Rl) / max(spectral_norm(fd), 1e-12))
    worsts["pseudo-resolvent <= 1e-8"] = w_res
    assert w_res <= 1e-8
    worsts["derivative <= 1e-4"] = w_der
    assert w_der <= 1e-4

    # decomposition: projector identities and reconstruction, 100 instances
    w_proj, w_rec = 0.0, 0.0
    for s in range(100):
        rng = np.random.default_rng(200 + s)
        p = random_regular_pencil(rng, 3, 2)
        scale = spectral_norm(p.E) + spectral_norm(p.A)
        d = decompose(p)
        w_proj = max(
            w_proj,
            spectral_norm(d.P @ d.P - d.P) / max(spectral_norm(d.P), 1.0),
            spectral_norm(p.E @ d.P - d.R @ p.E) / scale,
            spectral_norm(p.A @ d.P - d.R @ p.A) / scale,
        )
        rec = reconstruct(d)
        w_rec = max(
            w_rec, (spectral_norm(rec.E - p.E) + spectral_norm(rec.A - p.A)) / scale
        )
    worsts["projector identities <= 1e-8"] = w_proj
    assert w_proj <= 1e-8
    worsts["reconstruction <= 1e-8"] = w_rec
    assert w_rec <= 1e-8

    # Neumann series for the nilpotent block, 100 instances
    w_neu = 0.0
    for s in range(100):
        rng = np.random.default_rng(400 + s)
        d2 = int(rng.integers(2, 5))
        N = random_nilpotent(rng, d2)
        N /= max(spectral_norm(N), 1e-12)
        lam = random_complex(rng)
        direct = np.linalg.inv(lam * N - np.eye(d2))
        series = -sum(np.linalg.matrix_power(lam * N, l) for l in range(d2))
        w_neu = max(w_neu, spectral_norm(direct - series) / max(spectral_norm(direct), 1.0))
    worsts["Neumann identity <= 1e-12"] = w_neu
    assert w_neu <= 1e-12

    # pseudo-inverse construction on random PSD matrices, 100 instances
    w_btb, w_floor = 0.0, 0.0
    for s in range(100):
        rng = np.random.default_rng(600 + s)
        X = random_complex(rng, 5, 3)
        B = X @ X.conj().T
        T, c = make_T(B)
        w_btb = max(w_btb, spectral_norm(B @ T @ B - B) / spectral_norm(B))
        min_gap = float(np.min(np.linalg.eigvalsh(0.5 * (T + T.conj().T) - c * np.eye(5))))
        w_floor = max(w_floor, -min_gap)
    worsts["BTB = B <= 1e-10"] = w_btb
    assert w_btb <= 1e-10
    worsts["T >= c_T I"] = w_floor
    assert w_floor <= 1e-10

    # closed-form block resolvents of the sequence-space model, 100 instances
    w_mk = 0.0
    for s in range(100):
        rng = np.random.default_rng(800 + s)
        k = int(rng.integers(0, 20))
        lam = complex(rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0))
        if k == 0:
            block = MatrixPencil(np.diag([1.0, 0.0]), [[0.0, -1.0], [1.0, 0.0]])
        else:
            sk = np.sqrt(k**4 + 1.0)
            block = MatrixPencil(np.eye(2), [[0.0, sk], [-sk, -2.0]])
        direct = resolvent(block, lam)
        w_mk = max(w_mk, spectral_norm(direct - m_k_resolvent(k, lam)) / spectral_norm(direct))
    worsts["block resolvent oracle <= 1e-12"] = w_mk
    assert w_mk <= 1e-12

    # integrated-semigroup Laplace identity, 100 instances; the transform
    # integral uses the closed-form sample (invertible stable generators),
    # and the package's sampler, one augmented expm, is cross-checked
    # against that closed form on every instance
    w_lap, w_samp = 0.0, 0.0
    gx, gw = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 30.0, 21)
    for s in range(100):
        rng = np.random.default_rng(1000 + s)
        A = random_stable(rng, 2, margin=0.5)
        x = random_complex(rng, 2)
        n = 1 + s % 3
        lam = 1.5
        integral = np.zeros(2, dtype=complex)
        for a_, b_ in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a_ + b_), 0.5 * (b_ - a_)
            for xi, wi in zip(gx, gw):
                t = mid + half * xi
                integral += half * wi * np.exp(-lam * t) * _integrated_semigroup_closed(A, n, t, x)
        lhs = np.linalg.solve(lam * np.eye(2) - A, x)
        rhs = lam ** (n - 1) * integral
        w_lap = max(w_lap, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)))
        t = 0.3 + rng.uniform()
        a_cl = _integrated_semigroup_closed(A, n, t, x)
        a_pk = integrated_semigroup_sample(A, n, t, x)
        w_samp = max(w_samp, float(np.linalg.norm(a_cl - a_pk) / max(np.linalg.norm(a_cl), 1e-12)))
    worsts["Laplace identity <= 1e-4"] = w_lap
    assert w_lap <= 1e-4
    worsts["expm sampler cross-check <= 1e-10"] = w_samp
    assert w_samp <= 1e-10

    elapsed = time.time() - start
    ok = elapsed <= 300.0
    detail = ", ".join(f"{k}: {v:.1e}" for k, v in worsts.items())
    _verdict(
        capsys,
        "criterion 8 (property suites, 100 instances each)",
        ok,
        f"{detail}, {elapsed:.0f}s <= 300s",
    )
