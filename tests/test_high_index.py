"""Pencils of index 2 and 3 end to end: the default abscissa and the contour preimage.

QZ computes the infinite eigenvalues of an index-k block with a relative
|beta| of order eps^{1/k}, so these pencils, unlike the model pencils, do
not have exact infinite eigenvalues.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import given
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
from daepencil.phdae import _default_omega
from daepencil.serialize import save_pencil

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


def test_preimage_in_finite_subspace():
    pencil = _index_two_pencil()
    d = decompose(pencil)
    x0 = _admissible_x0(d, 1)
    member, z0, _ = admissible_initial_state(pencil, 2.0, 2, x0)
    assert member
    assert np.linalg.norm(z0 - d.P @ z0) <= 1e-10 * np.linalg.norm(z0)
    R = np.linalg.solve(2.0 * pencil.E - pencil.A, pencil.E)
    assert np.linalg.norm(-(R @ R @ z0) - x0) <= 1e-8 * np.linalg.norm(x0)


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


@given(
    seed=st.integers(0, 2**16),
    d1=st.integers(1, 5),
    d2=st.sampled_from([2, 3]),
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


@given(seed=st.integers(0, 2**16), d1=st.integers(1, 5), d2=st.sampled_from([2, 3]))
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
