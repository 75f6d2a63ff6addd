"""Pencils of index 2 and 3 end to end: the default abscissa and the contour preimage.

QZ computes the infinite eigenvalues of an index-k block with a relative
|beta| of order eps^{1/k}, so these pencils, unlike the model pencils, do
not have exact infinite eigenvalues.
"""

import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_regular_pencil
from daepencil import (
    QuadratureConfig,
    SolveConfig,
    admissible_initial_state,
    contour_solve,
    decompose,
    weierstrass_solve,
)
from daepencil.cli import main
from daepencil.errors import InconsistentInitialState, QuadratureNotConverged
from daepencil.phdae import _default_omega
from daepencil.serialize import save_pencil
from daepencil.solver import MAX_TAIL_TERMS

QUAD_TOL = QuadratureConfig().tolerance


def _index_two_pencil():
    return random_regular_pencil(np.random.default_rng(0), 5, 2, stable=True)


def _admissible_x0(decomp, seed):
    x0 = decomp.P @ np.random.default_rng(seed).standard_normal(decomp.n)
    return x0 / np.max(np.abs(x0))


def test_default_omega_index_two():
    pencil = _index_two_pencil()
    d = decompose(pencil)
    assert d.nilpotency_index == 2
    assert _default_omega(pencil, d.d1) == 1.0  # max Re eig(A1) < 0


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_preimage_in_finite_subspace(p):
    pencil = _index_two_pencil()
    d = decompose(pencil)
    x0 = _admissible_x0(d, 1)
    member, chain, _ = admissible_initial_state(pencil, 2.0, p, x0)
    assert member
    z0 = chain[0]
    assert np.linalg.norm(z0 - d.P @ z0) <= 1e-10 * np.linalg.norm(z0)
    Rp = np.linalg.matrix_power(np.linalg.solve(2.0 * pencil.E - pencil.A, pencil.E), p)
    assert np.linalg.norm((-1.0) ** (p - 1) * (Rp @ z0) - x0) <= 1e-8 * np.linalg.norm(x0)


def _range_of_square_not_finite():
    """An index-3 pencil and x0 = -R(mu)^2 z: in ran R(mu)^2, but not in ran P = ran R(mu)^3."""
    pencil = random_regular_pencil(np.random.default_rng(0), 3, 3, stable=True)
    d = decompose(pencil)
    mu = _default_omega(pencil, d.d1) + 1.0
    R = np.linalg.solve(mu * pencil.E - pencil.A, pencil.E)
    return pencil, d, mu, -(R @ R @ np.random.default_rng(1).standard_normal(pencil.n))


def test_range_of_lower_power_not_admissible():
    pencil, d, mu, x0 = _range_of_square_not_finite()
    assert d.nilpotency_index == 3
    member, _, residual = admissible_initial_state(pencil, mu, 2, x0, d)
    assert not member
    assert residual == pytest.approx(np.linalg.norm(x0 - d.P @ x0))
    assert residual > 0.1 * np.linalg.norm(x0)


def test_simulate_refuses_range_of_lower_power(tmp_path):
    pencil, _, _, x0 = _range_of_square_not_finite()
    out = str(tmp_path)
    save_pencil(os.path.join(out, "pencil.json"), pencil)
    with open(os.path.join(out, "x0.json"), "w") as fh:
        json.dump([[v.real, v.imag] for v in x0], fh)
    code = main(
        ["simulate", os.path.join(out, "pencil.json"), "--x0-file", os.path.join(out, "x0.json"),
         "--p", "2", "--output-dir", out]
    )
    assert code == 1
    with open(os.path.join(out, "simulate.json")) as fh:
        report = json.load(fh)
    assert report["admissible"] is False
    assert not os.path.exists(os.path.join(out, "trajectory.csv"))


@given(
    seed=st.integers(0, 2**16),
    d1=st.integers(1, 5),
    d2=st.sampled_from([2, 3, 4]),
    t=st.sampled_from([0.0, 1e-6, 1.0]),
)
def test_solvers_share_one_consistency_rule(seed, d1, d2, t):
    rng = np.random.default_rng(seed)
    pencil = random_regular_pencil(rng, d1, d2, stable=True)
    d = decompose(pencil)
    z, w = rng.standard_normal(d.n), rng.standard_normal(d.n)
    x0 = d.P @ z + t * (w - d.P @ w)
    member, _, _ = admissible_initial_state(pencil, 2.0, 2, x0, d)
    try:
        weierstrass_solve(d, x0, np.linspace(0.0, 1.0, 5))
    except InconsistentInitialState:
        assert not member
    else:
        assert member


def test_contour_solve_converges_at_omega_one():
    pencil = _index_two_pencil()
    d = decompose(pencil)
    x0 = _admissible_x0(d, 1)
    config = SolveConfig(mu=2.0, omega=1.0, p=2)
    member, z0, _ = admissible_initial_state(pencil, config.mu, config.p, x0, d)
    assert member
    times = np.linspace(0.0, 1.0, 21)
    a = contour_solve(pencil, z0, config, times).states
    b = weierstrass_solve(d, x0, times).states
    assert np.max(np.abs(a - b)) <= 10.0 * QUAD_TOL * np.max(np.abs(b))


def test_tail_chain_preimages():
    pencil = _index_two_pencil()
    d = decompose(pencil)
    x0 = _admissible_x0(d, 1)
    _, chain, _ = admissible_initial_state(pencil, 2.0, 2, x0, d)
    assert chain.shape == (MAX_TAIL_TERMS + 1, pencil.n)
    R = np.linalg.solve(2.0 * pencil.E - pencil.A, pencil.E)
    for j, z in enumerate(chain):
        x = (-1.0) ** (2 + j - 1) * (np.linalg.matrix_power(R, 2 + j) @ z)
        assert np.linalg.norm(x - x0) <= 1e-8 * np.linalg.norm(x0)


@pytest.mark.parametrize("J", [1, 2, 3])
def test_tail_of_either_sign(J):
    # a chain cut after z_J caps the tail at J terms; odd J subtracts with the other sign
    pencil = _index_two_pencil()
    d = decompose(pencil)
    x0 = _admissible_x0(d, 1)
    config = SolveConfig(mu=2.0, omega=1.0, p=2)
    _, chain, _ = admissible_initial_state(pencil, config.mu, config.p, x0, d)
    times = np.linspace(0.0, 1.0, 21)
    traj = contour_solve(pencil, chain[: J + 1], config, times)
    assert traj.quadrature["tail_terms"] == J
    b = weierstrass_solve(d, x0, times).states
    assert np.max(np.abs(traj.states - b)) <= 1e-9 * np.max(np.abs(b))
    assert np.max(np.abs(traj.states[0] - x0)) <= 10.0 * QUAD_TOL


@given(seed=st.integers(0, 2**16), d1=st.integers(1, 5), d2=st.sampled_from([2, 3, 4]))
@example(seed=1, d1=3, d2=4)  # index 4, tail of 5 terms
@example(seed=0, d1=5, d2=4)  # index 4, a tail of 2 terms would take 28,672 nodes to the plain 24,576
@example(seed=4, d1=5, d2=4)  # index 4, a tail of 1 term would take 57,344 nodes to the plain 49,152
def test_tail_keeps_solution_in_fewer_nodes(seed, d1, d2):
    rng = np.random.default_rng(seed)
    pencil = random_regular_pencil(rng, d1, d2, stable=True)
    d = decompose(pencil)
    x0 = _admissible_x0(d, seed)
    config = SolveConfig(mu=2.0, omega=1.0, p=max(2, d.nilpotency_index))
    _, chain, _ = admissible_initial_state(pencil, config.mu, config.p, x0, d)
    times = np.linspace(0.0, 1.0, 11)
    tailed = contour_solve(pencil, chain, config, times)
    plain = contour_solve(pencil, chain[0], config, times)
    exact = weierstrass_solve(d, x0, times).states
    scale = np.max(np.abs(exact))
    # QZ puts the infinite eigenvalues of an index-4 block near eps^(1/4), and on a few such
    # pencils even the plain contour solve is ~1e-9 from the Weierstrass one: the tail adds <= 1e-9
    plain_error = np.max(np.abs(plain.states - exact)) / scale
    assert np.max(np.abs(tailed.states - exact)) / scale <= 1e-9 + plain_error
    assert np.max(np.abs(tailed.states[0] - x0)) <= 10.0 * QUAD_TOL
    assert tailed.quadrature["nodes_evaluated"] <= plain.quadrature["nodes_evaluated"]


def test_contour_solve_gives_up_early_outside_finite_subspace():
    # the minimum-norm preimage has a component in the infinite deflating subspace, so the
    # integrand decays like |lambda|^-2: the outer panels only halve per doubling, and the
    # truncation budget (12 doublings from half-length 32) cannot bring them below the tolerance
    pencil = _index_two_pencil()
    d = decompose(pencil)
    R = np.linalg.solve(2.0 * pencil.E - pencil.A, pencil.E)
    z0 = np.linalg.lstsq(-(R @ R), _admissible_x0(d, 1), rcond=None)[0]
    assert np.linalg.norm(z0 - d.P @ z0) > 1.0
    start = time.perf_counter()
    with pytest.raises(QuadratureNotConverged, match=r"decaying like \|lambda\|\^-2$"):
        contour_solve(pencil, z0, SolveConfig(mu=2.0, omega=1.0, p=2), np.linspace(0.0, 1.0, 21))
    assert time.perf_counter() - start < 0.5


@given(
    seed=st.integers(0, 2**16),
    d1=st.integers(1, 5),
    d2=st.sampled_from([2, 3, 4]),
    stable=st.booleans(),
)
def test_default_omega_from_finite_block(seed, d1, d2, stable):
    pencil = random_regular_pencil(np.random.default_rng(seed), d1, d2, stable=stable)
    d = decompose(pencil)
    expected = max(float(np.max(np.linalg.eigvals(d.A1).real)), 0.0) + 1.0
    assert abs(_default_omega(pencil, d.d1) - expected) <= 1e-6 * expected


@given(seed=st.integers(0, 2**16), d1=st.integers(1, 5), d2=st.sampled_from([2, 3]))
def test_indices_at_default_omega(seed, d1, d2):
    pencil = random_regular_pencil(np.random.default_rng(seed), d1, d2, stable=True)
    with tempfile.TemporaryDirectory() as out:
        save_pencil(os.path.join(out, "pencil.json"), pencil)
        args = ["--output-dir", out, "--num-samples", "20"]
        assert main(["indices", os.path.join(out, "pencil.json"), *args]) == 0
        with open(os.path.join(out, "indices.json")) as fh:
            report = json.load(fh)
    assert report["config"]["omega"] == 1.0


@given(seed=st.integers(0, 2**16), d1=st.integers(1, 5), d2=st.sampled_from([2, 3]))
def test_analyze_at_default_omega(seed, d1, d2):
    pencil = random_regular_pencil(np.random.default_rng(seed), d1, d2, stable=True)
    with tempfile.TemporaryDirectory() as out:
        save_pencil(os.path.join(out, "pencil.json"), pencil)
        args = ["--output-dir", out, "--num-samples", "20"]
        assert main(["analyze", os.path.join(out, "pencil.json"), *args]) == 0
        with open(os.path.join(out, "analyze.json")) as fh:
            report = json.load(fh)
    assert report["indices"]["config"]["omega"] == 1.0
    assert report["decomposition"]["nilpotency_index"] == d2


@given(seed=st.integers(0, 2**16), d1=st.integers(1, 5), d2=st.sampled_from([2, 3, 4]))
def test_simulate_admissible_state(seed, d1, d2):
    pencil = random_regular_pencil(np.random.default_rng(seed), d1, d2, stable=True)
    x0 = _admissible_x0(decompose(pencil), seed)
    with tempfile.TemporaryDirectory() as out:
        save_pencil(os.path.join(out, "pencil.json"), pencil)
        with open(os.path.join(out, "x0.json"), "w") as fh:
            json.dump([[v.real, v.imag] for v in x0], fh)
        code = main(
            ["simulate", os.path.join(out, "pencil.json"), "--x0-file", os.path.join(out, "x0.json"),
             "--output-dir", out]
        )
        assert code == 0
        with open(os.path.join(out, "simulate.json")) as fh:
            report = json.load(fh)
    assert report["config"]["omega"] == 1.0
    assert report["solver_agreement"] <= 10.0 * report["config"]["quad_tol"]
    assert report["quadrature"]["last_difference"] <= report["config"]["quad_tol"]
