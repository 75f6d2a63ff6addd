"""Resolvent-growth index estimation, radiality sampling, integrated semigroups."""

import functools
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    random_complex,
    random_regular_pencil,
    random_stable,
    random_weierstrass_blocks,
    random_well_conditioned,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daepencil import (
    L2ExampleParams,
    MatrixPencil,
    NanorodParams,
    build_l2_example,
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
from daepencil import core, indices
from daepencil.cli import main
from daepencil.core import _golub_kahan
from daepencil.errors import IllConditionedTransform, OverflowRisk, ShiftOutsideResolventSet
from daepencil.indices import _max_radiality_ratio, _radiality_form
from daepencil.phdae import _default_omega

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
        pencil = MatrixPencil(np.eye(1), [[-1.0]])
        ev = verify_radiality(pencil, 0, omega=1e-6, box_radius=10.0, decomp=decompose(pencil))
        assert ev.verdict == "supported"
        assert ev.C == pytest.approx(1.0, abs=0.1)

    def test_zero_dynamics_orders(self):
        model = build_zero_dynamics(np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0])
        # the sampling box must extend past the saturation scale of the
        # empirical constant, otherwise genuine growth of the ratio is still
        # visible for the supported order
        decomp = decompose(model.pencil)
        lo = verify_radiality(model.pencil, 0, omega=0.5, box_radius=100.0, decomp=decomp, num_samples=200)
        hi = verify_radiality(model.pencil, 1, omega=0.5, box_radius=100.0, decomp=decomp, num_samples=200)
        assert lo.verdict == "falsified"
        assert hi.verdict == "supported"

    def test_weierstrass_dissipative_supported(self):
        # dissipative finite block plus nilpotent block of degree <= p+1
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 3))
        A1 = 0.5 * (W - W.T) - np.eye(3)
        E = scipy.linalg.block_diag(np.eye(3), np.triu(np.ones((2, 2)), 1))
        A = scipy.linalg.block_diag(A1, np.eye(2))
        pencil = MatrixPencil(E, A)
        ev = verify_radiality(pencil, 1, omega=0.5, box_radius=100.0, decomp=decompose(pencil), num_samples=200)
        assert ev.verdict == "supported"

    def test_deterministic_given_seed(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        a = verify_radiality(p, 0, omega=0.5, box_radius=5.0, decomp=decompose(p), num_samples=50, seed=3)
        b = verify_radiality(p, 0, omega=0.5, box_radius=5.0, decomp=decompose(p), num_samples=50, seed=3)
        assert a.C == b.C

    def test_one_real_qz_for_both_boxes(self, monkeypatch):
        calls, qz = [], scipy.linalg.qz

        def counted(*args, **kwargs):
            calls.append(kwargs["output"])
            return qz(*args, **kwargs)

        pencil = build_nanorod(NanorodParams(n_grid=4)).pencil
        decomp = decompose(pencil)
        monkeypatch.setattr(core.scipy.linalg, "qz", counted)
        verify_radiality(pencil, 1, omega=1.0, box_radius=10.0, decomp=decomp, num_samples=5)
        assert calls == ["real"]

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("E", [np.zeros((2, 2)), np.diag([1.0, 0.0])], ids=["zero", "diag-1-0"])
    def test_irregular_pencil_typed_error(self, E):
        # every shift is singular: a zero LU pivot, never an untyped LinAlgError or a NaN
        with pytest.raises(ShiftOutsideResolventSet, match="radiality shift 0.5 has a zero LU pivot"):
            _sampled_ratio(_whole_form(MatrixPencil(E, np.zeros((2, 2)))), 1, 0.5, 10.0, 3, 500)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_product_typed_error(self):
        # x*E overflows for this E at x > 1.8: the inverses are not finite and must not reach the norms; at omega = 0,
        # K = omega S - T = -I passes the omega rule, so the shifts' own check raises
        pencil = MatrixPencil([[0.0, 1e308], [0.0, 0.0]], np.eye(2))
        with pytest.raises(ShiftOutsideResolventSet, match=r"^inverse at radiality shift \S+ is not finite"):
            _sampled_ratio(_whole_form(pencil), 0, 0.0, 10.0, 3, 500)


def _whole_form(pencil):
    """(S, T, I, I, chunk): the pencil's whole Schur form, unreordered, with identity outer factors, in the layout of
    indices._radiality_form.  indices._max_radiality_ratio on it samples the products of the whole pencil, including
    the infinite block's rounded eigenvalues: a reference for the finite block, and a way to reach its shift checks on
    pencils that verify_radiality decides without a shift."""
    S, T = pencil.schur[:2]
    identity = np.eye(len(S), dtype=S.dtype)
    return S, T, identity, identity, max(1, 2**22 // S.nbytes)


def _whole_form_ratios(pencil, p, omega, box_radius, num_samples):
    """(C, max_ratio_wide) of the whole form on verify_radiality's draws at seed 0 and n_max 3: the box, then ten
    times it, from one generator."""
    rng = np.random.default_rng(0)
    return tuple(_max_radiality_ratio(*_whole_form(pencil), p, omega, r, 3, num_samples, rng)[0]
                 for r in (box_radius, 10.0 * box_radius))


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


def _block_radiality_ratio(blocks, p, omega, box_radius, n_max, num_samples, rng):
    """Reference from the blocks of G (blkdiag(I, N), blkdiag(A1, I)) H: both pseudo-resolvents
    are similar (by H and by G^{-1}) to blkdiag((lambda - A1)^{-1}, -(sum_k (lambda N)^k) N)."""
    A1, N, G, H = blocks
    d1, d2 = len(A1), len(N)
    worst = 0.0
    for _ in range(num_samples):
        lams = omega + box_radius * rng.uniform(size=p + 1)
        n = int(rng.integers(1, n_max + 1))
        F = np.eye(d1 + d2, dtype=complex)
        for lam in lams:
            nilpotent = -sum(np.linalg.matrix_power(lam * N, k) for k in range(d2)) @ N
            F = F @ scipy.linalg.block_diag(np.linalg.inv(lam * np.eye(d1) - A1), nilpotent)
        F = np.linalg.matrix_power(F, n)
        weight = float(np.prod(np.abs(lams - omega)) ** n)
        norm = max(np.linalg.norm(np.linalg.solve(H, F @ H), 2), np.linalg.norm(G @ F @ np.linalg.inv(G), 2))
        worst = max(worst, norm * weight)
    return worst


def _sampled_ratio(form, *args, seed=7):
    """(C, most Lanczos steps, SVD fallbacks) of indices._max_radiality_ratio on the radiality ``form``
    (S, T, B, L, chunk), with args = (p, omega, box_radius, n_max, num_samples): the one call of that private
    signature.  A form of the finite block holds the pencil's products only where p + 1 >= the nilpotency index."""
    return _max_radiality_ratio(*form, *args, np.random.default_rng(seed))


def _form(pencil, d1):
    """_radiality_form at decompose's split, which has d1 finite eigenvalues, or _whole_form at d1 = 0."""
    if not d1:
        return _whole_form(pencil)
    decomp = decompose(pencil)
    assert decomp.d1 == d1
    return _radiality_form(pencil, decomp)


class TestRadialityRatio:
    @pytest.mark.parametrize(
        "pencil, d1, p, rel",
        [
            (build_nanorod(NanorodParams(n_grid=4)).pencil, 12, 1, 1e-10),
            # p + 1 < 2, the nilpotency index: the infinite block's products do not vanish, so the whole form
            (build_zero_dynamics(np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0]).pencil, 0, 0, 1e-10),
            (MatrixPencil(scipy.linalg.block_diag(np.eye(3), N2), scipy.linalg.block_diag(-np.eye(3), np.eye(2))), 3, 2,
             1e-10),
            # n > LANCZOS_STEPS: the Krylov space does not span C^n, so the stop rule decides
            (build_nanorod(NanorodParams(n_grid=10)).pencil, 30, 1, 1e-12),
            (build_l2_example(L2ExampleParams(K=40)), 80, 1, 1e-12),
        ],
        ids=["nanorod", "zero-dyn", "nilpotent", "nanorod-n50", "l2-n84"],
    )
    @pytest.mark.parametrize("box_radius", [10.0, 1e3])
    def test_matches_dense_reference(self, pencil, d1, p, rel, box_radius):
        args = (p, 0.5, box_radius, 3, 40)
        fast, steps, fallbacks = _sampled_ratio(_form(pencil, d1), *args)
        ref = _dense_radiality_ratio(pencil, *args, np.random.default_rng(7))
        assert fast == pytest.approx(ref, rel=rel)
        assert fallbacks == 0 and 1 <= steps <= min(pencil.n, 30)

    def test_several_stacks_match_dense_reference(self):
        # at n = 84 a stack of at most about 8 MB holds the products of 74 samples: 150 samples are
        # three Lanczos runs, the last one on the products of 2 samples
        pencil = build_l2_example(L2ExampleParams(K=40))
        args = (1, 0.5, 1e3, 3, 150)
        fast, _, fallbacks = _sampled_ratio(_form(pencil, 80), *args)
        assert fallbacks == 0
        assert fast == pytest.approx(_dense_radiality_ratio(pencil, *args, np.random.default_rng(7)), rel=1e-12)

    def test_step_cap_falls_back_to_svd(self, monkeypatch):
        pencil = build_nanorod(NanorodParams(n_grid=4)).pencil
        decomp = decompose(pencil)
        lanczos = verify_radiality(pencil, 1, omega=0.5, box_radius=10.0, decomp=decomp, num_samples=10)
        monkeypatch.setattr(core, "LANCZOS_STEPS", 2)
        capped = verify_radiality(pencil, 1, omega=0.5, box_radius=10.0, decomp=decomp, num_samples=10)
        assert (lanczos.lanczos_steps, lanczos.svd_fallbacks, lanczos.sampled_dimension) == (7, 0, 12)
        assert (capped.lanczos_steps, capped.svd_fallbacks) == (2, 40)  # 2 products, 10 samples, 2 boxes
        assert capped.C == pytest.approx(lanczos.C, rel=1e-13)
        assert capped.max_ratio_wide == pytest.approx(lanczos.max_ratio_wide, rel=1e-13)

    @pytest.mark.parametrize("d2", [2, 3])
    @pytest.mark.parametrize("box_radius, rel", [(10.0, 1e-10), (1e3, 1e-8)])
    def test_complex_pencil_matches_block_reference(self, d2, box_radius, rel):
        # at box 1e3 the index-3 block's factors grow like lambda^2 while their products vanish:
        # dense solves of lambda*E - A (the dense reference) then err by orders of magnitude, the QZ form's
        # finite block by 9.2e-14 here, and the block reference agrees with a 50-digit evaluation to 6e-15
        blocks = random_weierstrass_blocks(np.random.default_rng(1), 4, d2)
        pencil = random_regular_pencil(np.random.default_rng(1), 4, d2)
        args = (d2 - 1, 0.5, box_radius, 3, 40)
        fast = _sampled_ratio(_form(pencil, 4), *args)[0]
        ref = _block_radiality_ratio(blocks, *args, np.random.default_rng(7))
        assert fast == pytest.approx(ref, rel=rel)

    @pytest.mark.parametrize(
        "pencil, d1, dtype",
        [
            (build_nanorod(NanorodParams(n_grid=4)).pencil, 12, np.float64),
            (random_regular_pencil(np.random.default_rng(0), 4, 2), 4, np.complex128),
        ],
        ids=["real", "complex"],
    )
    def test_factorises_in_pencil_dtype(self, monkeypatch, pencil, d1, dtype):
        seen = []

        def recording_get_lapack_funcs(names, arrays):
            funcs = scipy.linalg.get_lapack_funcs(names, arrays)
            return [lambda M, *a, f=f, **k: seen.append(M.dtype) or f(M, *a, **k) for f in funcs]

        form = _form(pencil, d1)  # before recording: dtgsen's first argument is an int32 selection
        monkeypatch.setattr(indices, "get_lapack_funcs", recording_get_lapack_funcs)
        _sampled_ratio(form, 1, 0.5, 10.0, 3, 5)
        assert seen and set(seen) == {np.dtype(dtype)}

    def test_one_triangular_inverse_per_shift(self, monkeypatch):
        # the design: per shift one trtri on the eliminated finite block of the QZ form, one more per box call for
        # K^{-1}, K = omega S - T, then only matrix products and Lanczos on the stacked products; no LU, no getri,
        # no triangular solves with n right-hand sides, no SVD and no symmetric eigensolve
        calls = []

        def counting_get_lapack_funcs(names, arrays):
            calls.append(tuple(names))
            funcs = scipy.linalg.get_lapack_funcs(names, arrays)
            return [lambda M, *a, f=f, **k: calls.append(M.shape) or f(M, *a, **k) for f in funcs]

        def forbidden(*args, **kwargs):
            raise AssertionError("radiality sampling must not call this")

        pencil = build_nanorod(NanorodParams(n_grid=4)).pencil
        form = _form(pencil, 12)  # finite eigenvalues in a 12 x 12 block, infinite ones in an 8 x 8 block
        monkeypatch.setattr(indices, "get_lapack_funcs", counting_get_lapack_funcs)
        for module, name in [(scipy.linalg, "lu_factor"), (scipy.linalg, "lu_solve"), (scipy.linalg, "svd"),
                             (scipy.linalg, "svdvals"), (np.linalg, "svd"), (np.linalg, "inv"),
                             (scipy.linalg, "eigh"), (np.linalg, "eigh"), (indices, "resolvent_norms")]:
            monkeypatch.setattr(module, name, forbidden)
        _sampled_ratio(form, 1, 0.5, 10.0, 3, 7)
        # K^{-1} of the finite block, then 7 samples of 2 shifts on it: the 8 x 8 infinite block is never inverted
        assert calls == [("trtri",), (12, 12)] + [(12, 12)] * 2 * 7
        assert not any(hasattr(indices, name) for name in ("lu_factor", "lu_solve", "eigh"))

    @pytest.mark.parametrize(
        "pencil, p, box_radius",
        [
            (build_nanorod(NanorodParams(n_grid=10)).pencil, 1, 1e3),
            (build_l2_example(L2ExampleParams(K=40)), 1, 8e3),
            (random_regular_pencil(np.random.default_rng(1), 3, 3, stable=True), 2, 1e3),
            (random_regular_pencil(np.random.default_rng(0), 20, 2), 1, 1e3),
        ],
        ids=["nanorod-10", "l2-40", "random-index-3", "complex-d1-20"],
    )
    def test_ratios_equal_lu_getri_reference(self, monkeypatch, pencil, p, box_radius):
        # the elimination step pivots and scales as getrf does, and trtri is getri's own first step;
        # U can differ in a last bit where getrf fuses a multiply-add, yet on these pencils every
        # ratio equals, bit for bit, the one from an LU and getri of x S - T at each shift
        decomp = decompose(pencil)
        fast = verify_radiality(pencil, p, 0.5, box_radius, decomp, num_samples=60)

        def lu_getri_inverse(S, T, ks, x, trtri):
            getri = scipy.linalg.get_lapack_funcs("getri", (S,))
            X, info = getri(*scipy.linalg.lu_factor(x * S - T))
            assert info == 0
            return X

        monkeypatch.setattr(indices, "_shift_inverse", lu_getri_inverse)
        ref = verify_radiality(pencil, p, 0.5, box_radius, decomp, num_samples=60)
        assert (fast.C, fast.max_ratio_wide) == (ref.C, ref.max_ratio_wide)

    def test_shift_inverse_of_every_block_pivot(self):
        # a real QZ form with 2x2 blocks whose subdiagonal entry is the pivot at some shifts and not at others:
        # the unreordered one, as dtgsen's reordering of it has no such block
        pencil = build_nanorod(NanorodParams(n_grid=4)).pencil
        S, T = _whole_form(pencil)[:2]
        (trtri,), ks = scipy.linalg.get_lapack_funcs(("trtri",), (S,)), np.flatnonzero(np.diagonal(T, -1))
        assert len(ks) and not np.tril(S, -1).any() and not np.tril(T, -2).any()
        swaps = set()
        for x in np.geomspace(1e-3, 1e4, 30):
            swaps.add(bool(np.any(np.abs(T[ks + 1, ks]) > np.abs(x * S[ks, ks] - T[ks, ks]))))
            X = indices._shift_inverse(S, T, ks, x, trtri)
            assert np.linalg.norm(X @ (x * S - T) - np.eye(len(S)), 1) <= 1e-12 * np.linalg.cond(x * S - T, 1)
        assert swaps == {True, False}

    @pytest.mark.parametrize(
        "pencil, d1, p, box_radius",
        [
            (build_nanorod(NanorodParams(n_grid=4)).pencil, 12, 1, 1e3),  # a real QZ form with 2x2 blocks
            (build_l2_example(L2ExampleParams(K=40)), 80, 1, 1e3),  # real too: E and A have no imaginary part
            (random_regular_pencil(np.random.default_rng(1), 3, 3, stable=True), 3, 2, 10.0),  # complex, index 3
        ],
        ids=["nanorod", "l2-n84", "random-index-3"],
    )
    def test_left_products_by_similarity(self, pencil, d1, p, box_radius):
        # K (x S - T)^{-1} S = S (x S - T)^{-1} K for K = omega S - T, so L^n = K R^n K^{-1}: it matches the
        # left product formed explicitly from the factors (I + T X) / x, X = (x S - T)^{-1}
        S, T = _form(pencil, d1)[:2]
        (trtri,), ks = scipy.linalg.get_lapack_funcs(("trtri",), (S,)), np.flatnonzero(np.diagonal(T, -1))
        omega, rng, identity = 0.5, np.random.default_rng(7), np.eye(len(S))
        K, K_inv = omega * S - T, indices._shift_inverse(S, T, ks, omega, trtri)
        for _ in range(20):
            lams = omega + box_radius * rng.uniform(size=p + 1)
            n = int(rng.integers(1, 4))
            inverses = [indices._shift_inverse(S, T, ks, x, trtri) for x in lams]
            right, left = (functools.reduce(np.matmul, factors) for factors in zip(
                *[((identity + X @ T) / x, (identity + T @ X) / x) for X, x in zip(inverses, lams)]))
            left_n = np.linalg.matrix_power(left, n)
            similar = K @ np.linalg.matrix_power(right, n) @ K_inv
            assert np.linalg.norm(similar - left_n, 2) <= 1e-12 * np.linalg.norm(left_n, 2)

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1.0j], ids=["real", "complex"])
    def test_omega_at_an_eigenvalue_refused(self, scale):
        # omega = 0.5 is an eigenvalue: the QZ form's pivot there is rounding, K = omega S - T fails core._lu's
        # rule, and the left norms through K^{-1} would be noise; an exact zero pivot is refused as in
        # test_irregular_pencil_typed_error
        rng = np.random.default_rng(0)
        G, H = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
        pencil = MatrixPencil(scale * G @ H, scale * G @ np.diag([0.5, -1.0, -2.0, -3.0]) @ H)
        with pytest.raises(ShiftOutsideResolventSet, match=r"omega = 0\.5 .* 1-norm condition \d\.\d+e\+1[5-7], "):
            verify_radiality(pencil, 1, omega=0.5, box_radius=10.0, decomp=decompose(pencil), num_samples=10)

    @pytest.mark.parametrize(
        "pencil, d1, p, box_radius, rel",
        [
            pytest.param(build_nanorod(NanorodParams(n_grid=4)).pencil, 12, 1, 1e3, 1e-13, id="1000.0"),
            pytest.param(build_nanorod(NanorodParams(n_grid=4)).pencil, 12, 1, 1e4, 1e-13, id="10000.0"),
            # the tolerance of test_complex_pencil_matches_block_reference at box 10; at box 1e3 the finite block
            # reads 3.43248, the exact block structure's value, against the stored pencil's 3.43800 in 50 digits
            # (the whole form 3.40117): rounding of the stored pencil moves its index-3 products, so 1e-8 cannot
            # hold there
            pytest.param(random_regular_pencil(np.random.default_rng(1), 3, 3, stable=True), 3, 2, 10.0, 1e-10,
                         id="random-index-3-10.0"),
        ],
    )
    def test_nanorod_matches_50_digit_reference(self, pencil, d1, p, box_radius, rel):
        mpmath = pytest.importorskip("mpmath")
        args = (p, 1.0, box_radius, 3, 12)
        fast = _sampled_ratio(_form(pencil, d1), *args, seed=0)[0]
        ref = _mp_radiality_ratio(mpmath, pencil, *args, np.random.default_rng(0))
        assert fast == pytest.approx(ref, rel=rel)


def _mp_radiality_ratio(mpmath, pencil, p, omega, box_radius, n_max, num_samples, rng):
    """50-digit reference: the products (x E - A)^{-1} E and E (x E - A)^{-1}, their powers and weights
    in mpmath, and each norm by power iteration on the Gram matrix, started from the double-precision
    top right singular vector."""
    worst = 0
    with mpmath.workdps(50):
        E, A = mpmath.matrix(pencil.E.tolist()), mpmath.matrix(pencil.A.tolist())
        for _ in range(num_samples):
            lams = [mpmath.mpf(x) for x in omega + box_radius * rng.uniform(size=p + 1)]
            n = int(rng.integers(1, n_max + 1))
            inverses = [mpmath.inverse(x * E - A) for x in lams]
            right, left = inverses[0] * E, E * inverses[0]
            for X in inverses[1:]:
                right, left = right * (X * E), left * (E * X)
            weight = mpmath.fprod(abs(x - omega) for x in lams) ** n
            for M in (right**n, left**n):
                v = mpmath.matrix(np.linalg.svd(np.array(M.tolist(), dtype=complex))[2][0].conj().tolist())
                for _ in range(3):
                    v = M.H * (M * v)
                    v /= mpmath.norm(v)
                worst = max(worst, mpmath.norm(M * v) * weight)
    return float(worst)


def _real_weierstrass_pencil(seed, d1, nilpotency, chains, cond_max=10.0):
    """(pencil, blocks): the real pencil G (blkdiag(I, N), blkdiag(A1, I)) H with A1 stable, N with ``chains`` Jordan
    chains of length ``nilpotency``, cond(G), cond(H) <= cond_max, and its blocks (A1, N, G, H)."""
    rng = np.random.default_rng(seed)
    A1 = rng.standard_normal((d1, d1))
    A1 -= (np.linalg.eigvals(A1).real.max() + 0.5) * np.eye(d1)
    d2 = nilpotency * chains
    N = np.diag(rng.uniform(0.5, 2.0, d2 - 1) * (np.arange(1, d2) % nilpotency != 0), 1)

    def well_conditioned():
        U, V = (np.linalg.qr(rng.standard_normal((d1 + d2, d1 + d2)))[0] for _ in range(2))
        return (U * np.exp(rng.uniform(0.0, np.log(cond_max), d1 + d2))) @ V.T

    G, H = well_conditioned(), well_conditioned()
    E, A = G @ scipy.linalg.block_diag(np.eye(d1), N) @ H, G @ scipy.linalg.block_diag(A1, np.eye(d2)) @ H
    return MatrixPencil(E, A), (A1, N, G, H)


def _weierstrass_oracle(blocks):
    """The exact structure of the pencil G (blkdiag(I, N), blkdiag(A1, I)) H of ``blocks`` (A1, N, G, H), as
    verify_radiality reads a decomposition: d1, nilpotency_index and the projectors P = H^{-1} J H and R = G J G^{-1},
    J = blkdiag(I, 0).  It stands in for decompose, which may refuse or misjudge such a pencil."""
    A1, N, G, H = blocks
    J = scipy.linalg.block_diag(np.eye(len(A1)), np.zeros_like(N))
    k = next(j for j in itertools.count(1) if not np.linalg.matrix_power(N, j).any())
    return SimpleNamespace(d1=len(A1), nilpotency_index=k, P=np.linalg.solve(H, J @ H), R=G @ J @ np.linalg.inv(G))


class TestRadialitySplit:
    @pytest.mark.parametrize("n_grid", [4, 10])
    def test_nanorod_splits_off_its_infinite_eigenvalues(self, n_grid):
        # 3 n_grid finite eigenvalues make the sampled block, the 2 n_grid infinite ones (beta = 0) are split off, and
        # at p = 1, where their products vanish, both boxes match the whole-form ratio on the unreordered real QZ form
        pencil = build_nanorod(NanorodParams(n_grid=n_grid)).pencil
        d1 = 3 * n_grid
        S, T, B, L, _ = form = _form(pencil, d1)
        assert S.shape == T.shape == B.shape == L.shape == (d1, d1)
        assert not np.triu(B, 1).any() and not np.triu(L, 1).any()
        assert min(np.linalg.svd(F, compute_uv=False).min() for F in (B, L)) >= 1.0 - 1e-12  # B B^T, L L^T >= I
        (Sc, Tc), finite = pencil.qz[:2], pencil.finite(d1)  # the block holds the d1 finite eigenvalues
        ref = np.diag(Tc)[finite] / np.diag(Sc)[finite]
        assert np.abs(scipy.linalg.eigvals(T, S)[:, None] - ref).min(axis=1).max() <= 1e-10 * np.abs(ref).max()
        for box_radius in (1e3, 1e4):
            split, steps, fallbacks = _sampled_ratio(form, 1, 1.0, box_radius, 3, 40)
            one_block = _sampled_ratio(_whole_form(pencil), 1, 1.0, box_radius, 3, 40)[0]
            assert split == pytest.approx(one_block, rel=1e-12)
            assert fallbacks == 0

    @pytest.mark.parametrize(
        "pencil",
        [build_l2_example(L2ExampleParams(K=40)), random_regular_pencil(np.random.default_rng(0), 20, 2)],
        ids=["l2-40", "complex-d1-20"],
    )
    def test_one_block_where_there_is_no_split(self, pencil):
        # at p = 0 < k - 1 the infinite block's products do not vanish: the structure reads "falsified" and nothing is
        # sampled, and the whole Schur form, sampled at the default box, reads the same
        ev = verify_radiality(pencil, 0, 0.5, 1e3, decompose(pencil), num_samples=5)
        assert (ev.verdict, ev.C, ev.max_ratio_wide) == ("falsified", np.inf, np.inf)
        assert (ev.sampled_dimension, ev.lanczos_steps, ev.svd_fallbacks) == (0, 0, 0)
        whole, whole_wide = _whole_form_ratios(pencil, 0, 0.5, 1e3, 5)
        assert whole_wide > indices.DIVERGENCE_FACTOR * whole

    def test_l2_samples_its_finite_block(self):
        # at the CLI defaults, p = 1 = k - 1: the 80 x 80 finite block, with outer factors from decompose's
        # projectors, reads the whole form's C and verdict
        pencil = build_l2_example(L2ExampleParams(K=40))
        decomp = decompose(pencil)
        omega = _default_omega(pencil, decomp.d1)
        split = verify_radiality(pencil, 1, omega, 1e3, decomp, num_samples=200)
        whole, whole_wide = _whole_form_ratios(pencil, 1, omega, 1e3, 200)
        assert split.sampled_dimension == 80
        assert split.C == pytest.approx(whole, rel=1e-12)
        assert split.verdict == ("falsified" if whole_wide > indices.DIVERGENCE_FACTOR * whole else "supported")

    @pytest.mark.parametrize(
        "pencil",
        [build_nanorod(NanorodParams(n_grid=4)).pencil, random_regular_pencil(np.random.default_rng(1), 3, 3)],
        ids=["real", "complex"],
    )
    def test_reorder_leaves_the_schur_form_unmodified(self, pencil):
        schur = pencil.schur
        before = [M.copy() for M in schur]
        assert len(_radiality_form(pencil, decompose(pencil))[0]) < pencil.n
        assert pencil.schur is schur
        assert all(np.array_equal(M, M0) for M, M0 in zip(schur, before))

    @settings(max_examples=12)
    @given(d1=st.integers(2, 40), nilpotency=st.integers(1, 3), chains=st.integers(1, 2), seed=st.integers(0, 2**16))
    @example(d1=23, nilpotency=2, chains=1, seed=89)  # split into 23 + 2
    @example(d1=10, nilpotency=2, chains=2, seed=0)  # split into 10 + 4, see test_split_at_the_construction_d1
    @example(d1=3, nilpotency=3, chains=1, seed=0)  # index 3, where the whole form reads C = 5.89 against 2.46
    def test_split_matches_block_reference(self, d1, nilpotency, chains, seed):
        # at p = k - 1 the finite block alone carries the products of the exact Weierstrass structure
        pencil, blocks = _real_weierstrass_pencil(seed, d1, nilpotency, chains)
        form = _radiality_form(pencil, _weierstrass_oracle(blocks))
        args = (max(nilpotency - 1, 0), 1.0, 1e3, 3, 10)
        split, ref = _sampled_ratio(form, *args)[0], _block_radiality_ratio(blocks, *args, np.random.default_rng(7))
        assert len(form[0]) == d1
        assert split == pytest.approx(ref, rel=1e-10)

    def test_split_at_the_construction_d1(self):
        # 10 finite eigenvalues and two index-2 chains: the largest gap of log |s|/(|s| + |t|) lies among the 4
        # infinite ones, and a cut there kept one 14 x 14 block; the split at the caller's d1 = 10 is taken
        pencil, blocks = _real_weierstrass_pencil(0, 10, 2, 2)
        S, T, B, L, _ = _radiality_form(pencil, _weierstrass_oracle(blocks))
        assert S.shape == T.shape == B.shape == L.shape == (10, 10)

    @pytest.mark.parametrize("seed", range(12))
    def test_index_3_verdicts_of_the_block_reference(self, seed):
        # p = 2 = k - 1 on real index-3 pencils: the whole form read its infinite block's rounding as growth, 5 of
        # these 12 "falsified" with C up to 10x off; the finite block gives the exact structure's verdict and C
        pencil, blocks = _real_weierstrass_pencil(seed, 3, 3, 1)
        ev = verify_radiality(pencil, 2, 1.0, 1e3, _weierstrass_oracle(blocks), num_samples=200, seed=0)
        rng = np.random.default_rng(0)
        ref, ref_wide = (_block_radiality_ratio(blocks, 2, 1.0, r, 3, 200, rng) for r in (1e3, 1e4))
        assert ev.sampled_dimension == 3
        assert ev.verdict == ("falsified" if ref_wide > indices.DIVERGENCE_FACTOR * ref else "supported")
        assert ev.C == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("seed", range(12))
    def test_complex_index_3_verdicts_of_the_block_reference(self, seed):
        # the same on complex index-3 pencils, through decompose: the whole form read 8 of these 12 "falsified"
        blocks = random_weierstrass_blocks(np.random.default_rng(seed), 3, 3, stable=True)
        pencil = random_regular_pencil(np.random.default_rng(seed), 3, 3, stable=True)
        ev = verify_radiality(pencil, 2, 1.0, 1e3, decompose(pencil), num_samples=200, seed=0)
        rng = np.random.default_rng(0)
        ref, ref_wide = (_block_radiality_ratio(blocks, 2, 1.0, r, 3, 200, rng) for r in (1e3, 1e4))
        assert ev.sampled_dimension == 3
        assert ev.verdict == ("falsified" if ref_wide > indices.DIVERGENCE_FACTOR * ref else "supported")
        assert ev.C == pytest.approx(ref, rel=1e-10)


class TestRadialityStructure:
    """Where the nilpotency index k alone decides the radiality verdict, and the finite block's reorder."""

    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("seed", range(12))
    def test_index_3_below_k_falsified_by_structure(self, monkeypatch, seed, kind, p):
        # p + 1 < k = 3: a product of p + 1 infinite-block factors is a multiple of N^(p + 1) != 0, unbounded in
        # lambda, so no product is sampled; the exact block structure grows across the tenfold box as well
        if kind == "real":
            pencil, blocks = _real_weierstrass_pencil(seed, 3, 3, 1)
            decomp = _weierstrass_oracle(blocks)
        else:
            blocks = random_weierstrass_blocks(np.random.default_rng(seed), 3, 3, stable=True)
            pencil = random_regular_pencil(np.random.default_rng(seed), 3, 3, stable=True)
            decomp = decompose(pencil)
        assert decomp.nilpotency_index == 3
        calls = []
        monkeypatch.setattr(indices, "_max_radiality_ratio", lambda *args: calls.append(args))
        ev = verify_radiality(pencil, p, 1.0, 1e3, decomp, num_samples=200, seed=0)
        assert not calls
        assert (ev.verdict, ev.C, ev.max_ratio_wide) == ("falsified", np.inf, np.inf)
        assert (ev.sampled_dimension, ev.lanczos_steps, ev.svd_fallbacks) == (0, 0, 0)
        rng = np.random.default_rng(0)
        ref, ref_wide = (_block_radiality_ratio(blocks, p, 1.0, r, 3, 200, rng) for r in (1e3, 1e4))
        assert ref_wide > indices.DIVERGENCE_FACTOR * ref

    def test_no_finite_block_supported_with_c_0(self):
        # d1 = 0 and p + 1 = k = 2: every product is N^2 = 0, the value the whole Schur form samples
        pencil = MatrixPencil(N2, np.eye(2))
        decomp = decompose(pencil)
        assert (decomp.d1, decomp.nilpotency_index) == (0, 2)
        ev = verify_radiality(pencil, 1, 0.5, 100.0, decomp, num_samples=100)
        assert (ev.verdict, ev.C, ev.max_ratio_wide) == ("supported", 0.0, 0.0)
        assert (ev.sampled_dimension, ev.lanczos_steps, ev.svd_fallbacks) == (0, 0, 0)
        assert _sampled_ratio(_whole_form(pencil), 1, 0.5, 100.0, 3, 100)[0] == 0.0

    @pytest.mark.parametrize("output, value", [(-1, 1), (-5, 11)], ids=["info", "m"])
    def test_failed_reorder_refused(self, monkeypatch, output, value):
        # a tgsen that reports an error, or moves 11 eigenvalues in place of the d1 = 12 finite ones, leaves no finite
        # block to sample: a typed refusal, not a verdict about another block
        def failing_get_lapack_funcs(names, arrays):
            (tgsen,) = scipy.linalg.get_lapack_funcs(names, arrays)

            def failing(*args, **kwargs):
                out = list(tgsen(*args, **kwargs))
                out[output] = value
                return tuple(out)

            return [failing]

        pencil = build_nanorod(NanorodParams(n_grid=4)).pencil
        decomp = decompose(pencil)
        monkeypatch.setattr(indices, "get_lapack_funcs", failing_get_lapack_funcs)
        with pytest.raises(IllConditionedTransform, match="^tgsen reordering the Schur form at d1 = 12: moved "):
            verify_radiality(pencil, 1, 1.0, 10.0, decomp, num_samples=5)

    def test_complex_pencil_without_infinite_block(self):
        # d1 = n and k = 0: tgsen moves all n eigenvalues, and B and L are the identity to rounding, as P = R = I;
        # C is the whole Schur form's, which is the ratio sampled with identity outer factors
        pencil = random_regular_pencil(np.random.default_rng(0), 4, 0, stable=True)
        decomp = decompose(pencil)
        assert (decomp.d1, decomp.nilpotency_index) == (4, 0)
        ev = verify_radiality(pencil, 0, 1.0, 1e3, decomp, num_samples=200)
        whole, whole_wide = _whole_form_ratios(pencil, 0, 1.0, 1e3, 200)
        assert ev.sampled_dimension == 4
        assert ev.C == pytest.approx(whole, rel=1e-13)
        assert ev.max_ratio_wide == pytest.approx(whole_wide, rel=1e-13)

    def test_omega_not_judged_below_k(self):
        # omega = 0.5 is the finite eigenvalue: at p = 0 < k - 1 no shift is formed, so omega is not judged; at p = 1
        # the finite block is sampled, and omega is refused there
        pencil = MatrixPencil(scipy.linalg.block_diag(1.0, N2), scipy.linalg.block_diag(0.5, np.eye(2)))
        decomp = decompose(pencil)
        assert (decomp.d1, decomp.nilpotency_index) == (1, 2)
        assert verify_radiality(pencil, 0, 0.5, 10.0, decomp, num_samples=10).verdict == "falsified"
        with pytest.raises(ShiftOutsideResolventSet, match=r"^radiality (shift |omega = )0\.5 "):
            verify_radiality(pencil, 1, 0.5, 10.0, decomp, num_samples=10)

    def test_cli_below_k(self, tmp_path, nanorod_file):
        # indices --radiality-p 0 on nanorod (k = 2): "falsified" with C = inf, which the report writes as JSON's
        # Infinity; json.load reads it back, and a rerun writes the same bytes
        paths = [tmp_path / run / "indices.json" for run in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            assert main(["indices", nanorod_file, "--output-dir", str(path.parent), "--radiality-p", "0"]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b'"C": Infinity' in paths[0].read_bytes()
        with open(paths[0]) as fh:
            report = json.load(fh)
        rad = report["radiality"]
        assert (rad["p"], rad["verdict"], rad["C"], rad["max_ratio_wide"]) == (0, "falsified", np.inf, np.inf)
        assert (rad["sampled_dimension"], rad["lanczos_steps"], rad["svd_fallbacks"]) == (0, 0, 0)
        assert report["relations"]["p_rad"] is None


_KINDS = ["dense", "quasi-triangular", "rank-1", "zero"]


@settings(max_examples=40)
@given(
    n=st.integers(1, 40),
    kind=st.sampled_from(_KINDS),
    is_complex=st.booleans(),
    scale=st.sampled_from([1.0, 1e200, 1e-200]),
    seed=st.integers(0, 2**16),
)
@example(n=1, kind="dense", is_complex=False, scale=1.0, seed=0)
@example(n=40, kind="zero", is_complex=True, scale=1.0, seed=0)
@example(n=40, kind="quasi-triangular", is_complex=False, scale=1e200, seed=1)
@example(n=40, kind="rank-1", is_complex=True, scale=1e-200, seed=2)
def test_sigma_max_matches_svd_norm(n, kind, is_complex, scale, seed):
    M = _test_matrix(np.random.default_rng(seed), n, kind, is_complex) * scale
    ref = np.linalg.norm(M, 2)
    sigma, _, settled = _stack_sigma_max(M[None])
    assert settled[0] and abs(sigma[0] - ref) <= 1e-13 * ref


def _test_matrix(rng, n, kind, is_complex=False):
    M = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if is_complex else 0.0)
    if kind == "quasi-triangular":  # upper triangular plus 2x2 diagonal blocks, as in a real QZ form
        M = np.triu(M) + np.diag(np.diag(M, -1) * (np.arange(n - 1) % 2 == 0), -1)
    elif kind == "rank-1":
        M = np.outer(M[:, 0], M[0])
    elif kind == "zero":
        M = np.zeros_like(M)
    elif kind == "clustered":  # sigma_2 = (1 - 1e-8) sigma_1 = 1 - 1e-8, the rest in [0, 0.9]
        U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        M = (U * np.r_[1.0, 1.0 - 1e-8, rng.uniform(0.0, 0.9, n - 2)]) @ V.T
    return M


def _stack_sigma_max(stack):
    """``_golub_kahan`` on each matrix of a stack (m, n, n) by batched GEMVs, as radiality sampling runs it."""
    return _golub_kahan(
        lambda V: np.matmul(stack, V.T[:, :, None])[..., 0].T,
        lambda U: np.matmul(stack.transpose(0, 2, 1), U.T.conj()[:, :, None])[..., 0].T.conj(),
        np.random.default_rng(0).standard_normal(stack.shape[1]).astype(stack.dtype), len(stack))


@pytest.mark.parametrize("n", [10, 30, 40, 60])
@pytest.mark.parametrize("seed", [0, 1])
def test_sigma_max_of_a_clustered_top_pair(n, seed):
    # sigma_2 = (1 - 1e-8) sigma_1: the Ritz value first converges to a weighted mean of the pair and
    # stays there for several steps, which the stop rule takes for convergence.  What holds is that
    # it settles inside the pair, so its error is at most the pair's relative gap, 1e-8.
    M = _test_matrix(np.random.default_rng(seed), n, "clustered")
    sig = np.linalg.svd(M, compute_uv=False)
    sigma, _, settled = _stack_sigma_max(M[None])
    assert settled[0] and sig[1] * (1 - 1e-13) <= sigma[0] <= sig[0] * (1 + 1e-13)


def test_sigma_max_of_a_mixed_batch():
    # members settle at different steps; a settled member keeps its value while the others go on
    rng = np.random.default_rng(3)
    kinds = ["dense", "zero", "rank-1", "quasi-triangular"]
    stack = np.array([_test_matrix(rng, 40, kind) for kind in kinds])
    sigma, steps, settled = _stack_sigma_max(stack)
    assert settled.all() and steps[1] == 1 and steps[2] <= 3 < steps.max()
    for s, M in zip(sigma, stack):
        assert abs(s - np.linalg.norm(M, 2)) <= 1e-13 * np.linalg.norm(M, 2)


def test_sigma_max_not_settled_at_the_step_cap(monkeypatch):
    # a member that needs more than LANCZOS_STEPS steps is reported as not settled, the rest are not held up
    monkeypatch.setattr(core, "LANCZOS_STEPS", 3)
    rng = np.random.default_rng(4)
    stack = np.array([_test_matrix(rng, 40, "zero"), _test_matrix(rng, 40, "dense")])
    sigma, steps, settled = _stack_sigma_max(stack)
    assert settled.tolist() == [True, False] and steps.tolist() == [1, 3] and sigma[0] == 0.0


@pytest.fixture(scope="module")
def nanorod_file(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("nanorod"))
    assert main(["example", "nanorod", "--n-grid", "4", "--output-dir", out]) == 0
    return f"{out}/nanorod.json"


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--num-samples", "0", "num_samples"),
            ("--box-radius", "-10", "box_radius"),
            ("--radiality-p", "-1", "p"),
            ("--n-max", "0", "n_max"),
            ("--lambda-span", "0.5", "lambda_max"),
            ("--lambda-span", "1", "lambda_max"),
            ("--lambda-span", "-3", "lambda_max"),
            ("--omega", "-1", "omega"),
            ("--num-lines", "0", "num_lines"),
        ],
    )
    def test_cli_exit_2_naming_the_argument(self, tmp_path, capsys, nanorod_file, flag, value, name):
        args = ["indices", nanorod_file, "--output-dir", str(tmp_path), "--num-samples", "5", flag, value]
        code = main(args)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and err["message"].startswith(f"{name} must be ")
        assert not (tmp_path / "indices.json").exists()

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"omega": float("nan")}, "omega"),
            ({"omega": float("inf")}, "omega"),
            ({"box_radius": float("inf")}, "box_radius"),
            # counts are integers that are not bools, checked before any work
            ({"p": 1.5}, "p"),
            ({"p": True}, "p"),
            ({"n_max": 2.5}, "n_max"),
            ({"num_samples": 10.5}, "num_samples"),
            ({"seed": 1.5}, "seed"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_radiality_nonfinite_rejected(self, kwargs, name):
        pencil = MatrixPencil(np.eye(1), [[-1.0]])
        args = {"p": 0, "omega": 0.5, "box_radius": 10.0, "decomp": decompose(pencil)} | kwargs
        with pytest.raises(ValueError, match=f"^{name} must be"):
            verify_radiality(pencil, **args)

    @pytest.mark.parametrize("estimate", [estimate_resolvent_index_real, estimate_resolvent_index_complex])
    @pytest.mark.parametrize(
        "omega, lambda_max, name",
        [
            (float("nan"), 10.0, "omega"),
            (0.0, 10.0, "omega"),
            (0.5, float("inf"), "lambda_max|imag_max"),
        ],
    )
    def test_growth_grid_rejected(self, estimate, omega, lambda_max, name):
        with pytest.raises(ValueError, match=f"^({name}) must be"):
            estimate(MatrixPencil(np.eye(1), [[-1.0]]), omega, lambda_max)

    @pytest.mark.parametrize(
        "estimate, kwargs, name",
        [
            (estimate_resolvent_index_real, {"num_points": 10.5}, "num_points"),
            (estimate_resolvent_index_real, {"num_points": np.float64(64.0)}, "num_points"),
            (estimate_resolvent_index_complex, {"num_lines": 2.5}, "num_lines"),
            (estimate_resolvent_index_complex, {"num_lines": True}, "num_lines"),
            (estimate_resolvent_index_complex, {"num_points": 10.5}, "num_points"),
        ],
    )
    def test_growth_counts_rejected(self, estimate, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            estimate(MatrixPencil(np.eye(1), [[-1.0]]), 0.5, 10.0, **kwargs)

    def test_complex_grid_needs_imag_max_above_1(self):
        with pytest.raises(ValueError, match="^imag_max must be finite and > 1.0, got 0.9"):
            estimate_resolvent_index_complex(MatrixPencil(np.eye(1), [[-1.0]]), 0.1, 0.9)


class TestIndexRelations:
    def test_ode_case_chain_fails(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        d = decompose(p)
        est = estimate_resolvent_index_real(p, 0.1, 1e3)
        rad = verify_radiality(p, 0, omega=0.5, box_radius=10.0, decomp=d, num_samples=100)
        rep = index_relations_check(d, est, rad)
        assert rep["p_nilp"] == 0 and rep["p_res"] == 0 and rep["p_rad"] == 0
        assert not rep["chain_holds"]  # 0+1 != 0 in the index-0 ODE case
        assert rep["nilp_le_rad_plus_1"]
        assert rep["res_eq_nilp"]

    def test_zero_dynamics_chain_holds(self):
        model = build_zero_dynamics(np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0])
        d = decompose(model.pencil)
        est = estimate_resolvent_index_real(model.pencil, 0.5, 1e3)
        rad = verify_radiality(model.pencil, 1, omega=0.5, box_radius=100.0, decomp=d, num_samples=200)
        rep = index_relations_check(d, est, rad)
        assert rep["p_nilp"] == 2 and rep["p_res"] == 2 and rep["p_rad"] == 1
        assert rep["chain_holds"]

    def test_pure_nilpotent(self):
        p = MatrixPencil(N2, np.eye(2))
        d = decompose(p)
        est = estimate_resolvent_index_real(p, 0.1, 1e3)
        rad = verify_radiality(p, 1, omega=0.5, box_radius=100.0, decomp=d, num_samples=100)
        rep = index_relations_check(d, est, rad)
        assert rep["p_nilp"] == 2
        assert rep["res_eq_nilp"]


    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_chain_holds_on_stable_complex_pencils(self, seed, k):
        # at the CLI defaults: omega from _default_omega, p = k - 1, a box of 1e3 and 200 samples
        pencil = random_regular_pencil(np.random.default_rng([k, seed]), 2 + seed % 10, k, stable=True)
        d = decompose(pencil)
        omega = _default_omega(pencil, d.d1)
        est = estimate_resolvent_index_real(pencil, omega, 1e3 * omega)
        rad = verify_radiality(pencil, k - 1, omega, 1e3, d, num_samples=200)
        assert index_relations_check(d, est, rad)["chain_holds"]


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


JORDAN_0 = np.array([[0.0, 1.0], [0.0, 0.0]])  # singular: no closed form through A1^{-1}
NON_NORMAL = np.array([[-1.0, 1e3], [0.0, -1.0]])


def _mp_integrated_semigroup(mpmath, A1, n, t, x):
    """S(t)x from a 40-digit mpmath ``expm`` of the augmented matrix W = [[A1, x e_1^T], [0, J_{n-1}]]."""
    m, k = len(A1), n - 1
    with mpmath.workdps(40):
        W = mpmath.zeros(m + k, m + k)
        for i in range(m):
            for j in range(m):
                W[i, j] = mpmath.mpc(complex(A1[i, j]))
            if k:
                W[i, m] = mpmath.mpc(complex(x[i]))
        for i in range(m, m + k - 1):
            W[i, i + 1] = 1
        X = mpmath.expm(mpmath.mpf(t) * W)
        if k:
            return np.array([complex(X[i, m + k - 1]) for i in range(m)])
        return np.array([complex(mpmath.fsum(X[i, j] * mpmath.mpc(complex(x[j])) for j in range(m))) for i in range(m)])


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

    @pytest.mark.parametrize("n", [-1, 1.5, 2.0, True, "2"])
    def test_n_is_an_integer(self, n):
        with pytest.raises(ValueError, match="integer n >= 1"):
            integrated_semigroup_sample(np.array([[-1.0]]), n, 1.0, np.array([1.0]))

    @pytest.mark.parametrize("A1, x", [
        ([[np.nan]], [1.0]), ([[np.inf]], [1.0]), ([[-1.0]], [np.nan]), ([[-1.0]], [-np.inf]),
        ([[-1.0, 0.0]], [1.0]), ([-1.0], [1.0]), ([[-1.0]], [1.0, 2.0]),
    ])
    def test_operands_validated(self, A1, x):
        with pytest.raises(ValueError):
            integrated_semigroup_sample(A1, 2, 1.0, x)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_t_validated(self, t):
        with pytest.raises(ValueError, match="finite t"):
            integrated_semigroup_sample(np.array([[-1.0]]), 2, t, np.array([1.0]))

    @pytest.mark.parametrize("n", [1, 3])
    def test_overflow_refused(self, n):
        with pytest.raises(OverflowRisk):
            integrated_semigroup_sample(np.array([[800.0]]), n, 1.0, np.array([1.0]))

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        worst = 0.0
        for A1 in (JORDAN_0, NON_NORMAL, random_stable(rng, 3)):
            # S(t)x is linear in x; a large x must not cost accuracy
            for x in (random_complex(rng, len(A1)), 1e15 * random_complex(rng, len(A1))):
                for n, t in itertools.product(range(1, 5), (0.3, 1.0, 2.5)):
                    ref = _mp_integrated_semigroup(mpmath, A1, n, t, x)
                    out = integrated_semigroup_sample(A1, n, t, x)
                    worst = max(worst, float(np.linalg.norm(out - ref) / np.linalg.norm(ref)))
        assert worst <= 1e-13

    def test_integrates_the_previous_order(self):
        # S_{k+1}(t) = integral over [0, t] of S_k: (k+1)-times integrated from k-times integrated
        rng = np.random.default_rng(4)
        nodes, weights = np.polynomial.legendre.leggauss(40)
        worst = 0.0
        for A1 in (np.zeros((2, 2)), JORDAN_0, NON_NORMAL, rng.standard_normal((5, 5))):
            x = random_complex(rng, len(A1))
            for n in range(1, 5):
                for t in (0.5, 2.0):
                    integral = sum(0.5 * t * w * integrated_semigroup_sample(A1, n, 0.5 * t * (s + 1.0), x)
                                   for s, w in zip(nodes, weights))
                    out = integrated_semigroup_sample(A1, n + 1, t, x)
                    worst = max(worst, float(np.linalg.norm(out - integral) / np.linalg.norm(out)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_laplace_identity(self, n):
        # (lam I - A)^{-1} x = lam^{n-1} * integral of exp(-lam t) S(t) x
        A1 = np.array([[-1.0, 0.5], [0.0, -2.0]])
        x = np.array([1.0, -1.0])
        lam = 1.0 + 1.0  # omega + 1 with omega = max(Re spec, 0) + 1 = 1
        # composite Gauss-Legendre in t: spectral accuracy with few samples; the cut at t = 9 sets the floor
        gx, gw = np.polynomial.legendre.leggauss(6)
        edges = np.linspace(0.0, 9.0, 13)
        integral = np.zeros(2, dtype=complex)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xi, wi in zip(gx, gw):
                t = mid + half * xi
                integral += half * wi * np.exp(-lam * t) * integrated_semigroup_sample(A1, n, t, x)
        lhs = np.linalg.solve(lam * np.eye(2) - A1, x)
        rhs = lam ** (n - 1) * integral
        assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(lhs)

    def test_indices_binds_no_solver_name(self):
        # the sampler needs no quadrature: indices imports nothing from the solver module
        from daepencil import solver

        assert not [name for name, obj in vars(indices).items()
                    if obj is solver or getattr(obj, "__module__", None) == solver.__name__]
