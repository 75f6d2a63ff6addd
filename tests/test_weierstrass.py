"""Weierstrass decomposition, spectral projectors and the feedback-loop model."""

import collections
import itertools
import re

import numpy as np
import pytest
import scipy.linalg
from conftest import random_complex, random_regular_pencil, random_well_conditioned

from daepencil import (
    L2ExampleParams,
    MatrixPencil,
    NanorodParams,
    build_l2_example,
    build_nanorod,
    build_zero_dynamics,
    decompose,
    random_ph_pencil,
    reconstruct,
    resolvent_norm,
    spectral_norm,
    spectral_projectors,
)
from daepencil import weierstrass
from daepencil.errors import (
    DegeneratePairing, IllConditionedTransform, IrregularPencil, NoConvergence, PencilError, SingularShift,
)
from daepencil.serialize import result_fields


def _reconstruction_residual(pencil, decomp):
    rec = reconstruct(decomp)
    return spectral_norm(rec.E - pencil.E) + spectral_norm(rec.A - pencil.A)


class TestDecompose:
    def test_ode_case(self):
        A = np.diag([-1.0, -2.0])
        p = MatrixPencil(np.eye(2), A)
        d = decompose(p)
        assert d.d2 == 0 and d.nilpotency_index == 0
        assert np.allclose(sorted(np.linalg.eigvals(d.A1).real), [-2.0, -1.0], atol=1e-10)
        assert d.T_R.tobytes() == np.eye(2, dtype=complex).tobytes()
        assert d.T_L.tobytes() == np.linalg.inv(p.E).tobytes()

    def test_no_finite_block_left_basis_is_inv_A(self):
        # with d1 = 0 T_R is N's unitary kernel-flag basis W, and T_L is W* inv(A) bit for bit
        p = random_regular_pencil(np.random.default_rng(0), 0, 3)
        d = decompose(p)
        assert (d.d1, d.d2) == (0, 3)
        assert np.allclose(d.T_R.conj().T @ d.T_R, np.eye(3), atol=1e-12)
        assert d.T_L.tobytes() == (d.T_R.conj().T @ np.linalg.inv(p.A)).tobytes()

    def test_already_weierstrass(self):
        d = decompose(MatrixPencil(np.diag([1.0, 0.0]), np.eye(2)))
        assert d.d1 == d.d2 == 1
        assert d.nilpotency_index == 1
        assert np.allclose(d.N, [[0.0]], atol=1e-12)
        assert np.allclose(d.A1, [[1.0]], atol=1e-12)

    def test_zero_dynamics_nilpotency(self):
        model = build_zero_dynamics(np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0])
        d = decompose(model.pencil)
        assert d.nilpotency_index == 2
        assert d.d2 == 2

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_index_one_with_rounding_noise_N(self, n):
        # the N block of these pencils comes out with ||N|| ~ 1e-17
        for seed in range(6):
            p = random_ph_pencil(n, seed=seed).pencil
            d = decompose(p)
            assert d.nilpotency_index == 1
            assert _reconstruction_residual(p, d) <= 1e-8 * (spectral_norm(p.E) + spectral_norm(p.A))

    def test_invariants_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_regular_pencil(rng, 3, 3)
            d = decompose(p)
            scale = spectral_norm(p.E) + spectral_norm(p.A)
            assert _reconstruction_residual(p, d) <= 1e-8 * scale
            # block forms
            Et = d.T_L @ p.E @ d.T_R
            At = d.T_L @ p.A @ d.T_R
            assert spectral_norm(Et[: d.d1, : d.d1] - np.eye(d.d1)) <= 1e-8
            assert spectral_norm(At[d.d1 :, d.d1 :] - np.eye(d.d2)) <= 1e-8
            assert spectral_norm(Et[: d.d1, d.d1 :]) + spectral_norm(Et[d.d1 :, : d.d1]) <= 1e-8
            assert spectral_norm(At[: d.d1, d.d1 :]) + spectral_norm(At[d.d1 :, : d.d1]) <= 1e-8
            # projector identities
            assert spectral_norm(d.P @ d.P - d.P) <= 1e-8
            assert spectral_norm(d.R @ d.R - d.R) <= 1e-8
            assert spectral_norm(p.E @ d.P - d.R @ p.E) <= 1e-8 * max(spectral_norm(p.E), 1.0)
            assert spectral_norm(p.A @ d.P - d.R @ p.A) <= 1e-8 * max(spectral_norm(p.A), 1.0)
            assert round(np.trace(d.P).real) == d.d1

    def test_records_accepted_residual(self):
        rng = np.random.default_rng(3)
        p = random_regular_pencil(rng, 3, 2)
        d = decompose(p)
        assert d.reconstruction_residual == _reconstruction_residual(p, d)
        assert d.reconstruction_residual <= 1e-8 * (spectral_norm(p.E) + spectral_norm(p.A))

    @pytest.mark.parametrize(
        "pencil",
        [random_regular_pencil(np.random.default_rng(3), 3, 2), build_nanorod(NanorodParams(n_grid=10)).pencil,
         build_l2_example(L2ExampleParams(K=8)), build_zero_dynamics(-np.eye(3), np.ones(3), np.ones(3)).pencil],
        ids=["random", "nanorod", "l2", "zero-dyn"],
    )
    def test_records_its_deciding_quantities(self, pencil):
        # the condition numbers checked against 1e12 are those of the returned transforms, and the
        # shift's condition estimate is LAPACK's, as decompose ranked the draws by it
        d = decompose(pencil)
        assert d.cond_T_L == pytest.approx(np.linalg.cond(d.T_L), rel=1e-8)
        assert d.cond_T_R == pytest.approx(np.linalg.cond(d.T_R), rel=1e-8)
        M = d.mu * pencil.E - pencil.A
        getrf, gecon = scipy.linalg.get_lapack_funcs(("getrf", "gecon"), (M,))
        rcond = gecon(getrf(M)[0], np.linalg.norm(M, 1), norm="1")[0]
        assert d.mu_condition_estimate == 1.0 / rcond
        assert abs(d.mu) <= 4 * (spectral_norm(pencil.E) + spectral_norm(pencil.A))
        keys = {"mu", "mu_condition_estimate", "cond_T_L", "cond_T_R"}
        assert keys <= set(result_fields(d)) and all(result_fields(d)[k] is not None for k in keys)

    @pytest.mark.parametrize("d1", [0, 1])
    def test_index_six_split_from_rank_profile(self, d1):
        # QZ puts the infinite eigenvalues of a degree-6 block near eps^(1/6),
        # far above any eigenvalue tolerance; the ranks of R(mu)^j settle at d1
        for s in range(10):
            p = random_regular_pencil(np.random.default_rng([s, d1, 6]), d1, 6, stable=d1 > 0)
            d = decompose(p)
            assert (d.d1, d.d2, d.nilpotency_index) == (d1, 6, 6), s
            assert d.reconstruction_residual <= 1e-8 * (spectral_norm(p.E) + spectral_norm(p.A))

    @pytest.mark.parametrize(
        "d1, k, s",
        [
            (0, 6, 3), (0, 6, 4), (0, 6, 10), (0, 6, 17), (1, 6, 1), (1, 6, 11), (1, 6, 19), (1, 8, 5),
            (1, 5, 2), (1, 5, 7), (1, 6, 17), (1, 8, 1), (1, 8, 9), (4, 4, 0), (4, 5, 2),
        ],
    )
    def test_ill_conditioned_high_index(self, d1, k, s):
        # at condition 1e3 the singular values of N spread over many orders, so
        # the flag must cut at relative gaps, and the index must be the flag's
        # length: a floor on ||N^j|| cannot see the last step.  The last seven
        # need T_L from the right bases: a second power split of E (mu E - A)^{-1}
        # finds no gap at rank d1 = 1, and the E11/A22 inverses miss the gate at d1 = 4
        p = random_regular_pencil(np.random.default_rng([s, d1, k]), d1, k, stable=d1 > 0, cond_max=1e3)
        d = decompose(p)
        assert (d.d1, d.nilpotency_index) == (d1, k)
        assert d.reconstruction_residual <= 1e-8 * (spectral_norm(p.E) + spectral_norm(p.A))

    def test_stress_table(self, capsys):
        # 720 pencils of index 2 to 8 with transforms of condition up to 1e3:
        # enough of them solved, none wrong, every refusal typed; prints the
        # solved count per cell and the refusals by reason
        ks = (2, 3, 4, 5, 6, 8)
        solved, reasons, wrong = collections.Counter(), collections.Counter(), []
        for c, d1, k, s in itertools.product((10.0, 1e3), (0, 1, 4), ks, range(20)):
            p = random_regular_pencil(np.random.default_rng([s, d1, k]), d1, k, stable=d1 > 0, cond_max=c)
            try:
                d = decompose(p)
            except PencilError as exc:
                # the reason is the message after the shift and d1, up to its first number
                reasons[re.split(r"\s*[\d(]", str(exc).split(": ", 1)[-1], maxsplit=1)[0]] += 1
                continue
            if (d.d1, d.nilpotency_index) == (d1, k):
                solved[c, d1, k] += 1
            else:
                wrong.append((c, d1, k, s, d.d1, d.nilpotency_index))
        with capsys.disabled():
            print(f"\nstress table: {solved.total()}/720 solved, {len(wrong)} wrong; of 20 per k = {ks}:")
            for c, d1 in itertools.product((10.0, 1e3), (0, 1, 4)):
                print(f"  c = {c:g}, d1 = {d1}: " + " ".join(f"{solved[c, d1, k]:2d}" for k in ks))
            for reason, count in reasons.most_common():
                print(f"  {count:3d} refused: {reason}")
        assert wrong == []
        assert solved.total() >= 570

    def test_rank_profile_nanorod(self):
        # n = 20, d1 = 12, and N has rank 4 with N^2 = 0: R(mu) has rank d1 + 4 and its powers rank
        # d1, so the ranks settle at power 2, the nilpotency index
        d = decompose(build_nanorod(NanorodParams(n_grid=4)).pencil)
        assert d.rank_profile == (16, 12, 12) and d.nilpotency_index == 2
        assert result_fields(d)["rank_profile"] == (16, 12, 12)

    def test_rank_profile_jordan_block(self):
        # (blkdiag(I_6, J_3), blkdiag(A1, I_3)) under transforms of condition 10: R(mu)^j has rank
        # d1 + rank J_3^j, so the ranks fall by one a power to d1 and settle at the block size
        rng = np.random.default_rng(5)
        A1 = random_complex(rng, 6, 6) / np.sqrt(12.0)
        E0, A0 = scipy.linalg.block_diag(np.eye(6), np.eye(3, k=1)), scipy.linalg.block_diag(A1, np.eye(3))
        G, H = random_well_conditioned(rng, 9), random_well_conditioned(rng, 9)
        d = decompose(MatrixPencil(G @ E0 @ H, G @ A0 @ H))
        assert (d.d1, d.nilpotency_index, d.rank_profile) == (6, 3, (8, 7, 6, 6))

    def test_index_cross_check_refuses_mismatch(self, monkeypatch):
        flag = weierstrass._kernel_flag_basis

        def one_step_short(N):
            W, k = flag(N)
            return W, k - 1

        monkeypatch.setattr(weierstrass, "_kernel_flag_basis", one_step_short)
        p = random_regular_pencil(np.random.default_rng(3), 3, 2)
        with pytest.raises(IllConditionedTransform, match=r"has 1 steps, but the ranks of R\(mu\)\^j settle at power 2"):
            decompose(p)

    def test_kernel_flag_refusals_name_the_cut(self):
        # N^2 = 1e-9 I falls only 1e-9 below N, so it reads full rank after rank 1
        with pytest.raises(
            IllConditionedTransform,
            match=r"^kernel flag of N at step 2: rank 2 \(sigma_1 = 1\.000e-09\) adds 0 kernel directions, "
            r"not -1; ranks of N\^0\.\.N\^1 \[2, 1\]$",
        ):
            weierstrass._kernel_flag_basis(np.array([[0.0, 1.0], [1e-9, 0.0]]))
        with pytest.raises(
            IllConditionedTransform,
            match=r"^N is not nilpotent: rank 2 at step 2 \(sigma_1 = 1\.000e\+00\), ranks \[2, 2, 2\]$",
        ):
            weierstrass._kernel_flag_basis(np.eye(2))

    def test_refusal_names_shift_and_split(self):
        p = random_regular_pencil(np.random.default_rng([0, 4, 6]), 4, 6, stable=True, cond_max=1e3)
        with pytest.raises(IllConditionedTransform, match=r"shift mu = \S+ with d1 = \d+: "):
            decompose(p)

    def test_irregular_raises(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(IrregularPencil):
            decompose(MatrixPencil(N, N))

    def test_irregular_refusal_names_the_draws(self):
        with pytest.raises(
            IrregularPencil,
            match=r"singular for all probed shifts \(16 shifts drawn with seed 12345 from \|mu\| <= 0, "
            r"best condition estimate inf\)$",
        ):
            decompose(MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))))

    def test_one_svd_with_vectors_per_call(self, monkeypatch):
        # the shift screen ranks draws by LU condition estimates, and the power split takes the
        # ranks from the SVDs that normalise the powers: only the returned power needs vectors
        calls, svd = [], np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append((a.shape, kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        p = random_regular_pencil(np.random.default_rng(7), 20, 3)
        assert list(weierstrass._invertible_shifts(p, 16, 12345)) and calls == []
        d = decompose(p)
        assert (d.d1, d.nilpotency_index) == (20, 3)
        assert calls.count(((23, 23), True)) == 1

    def test_four_inverses_and_no_block_diag_per_call(self, monkeypatch):
        # T_L = [E T_R1, A T_R2]^{-1} and T_R^{-1} for P, then reconstruct's own two; T_L^{-1} is
        # [E T_R1, A T_R2 W], and the kernel flag rotates the infinite blocks in place
        p, calls, inv = random_regular_pencil(np.random.default_rng(3), 3, 2), [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        monkeypatch.setattr(scipy.linalg, "block_diag", lambda *a: pytest.fail("block_diag called"))
        d = decompose(p)
        assert (d.d1, d.nilpotency_index) == (3, 2)
        assert calls == [(5, 5)] * 4

    def test_condition_refusal_inverts_nothing(self, monkeypatch):
        # a stress-table pencil whose split reads d1 = n: M = E is singular, which cond(M) shows
        # before any inverse, and the message names the condition of both transforms
        calls, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
        p = random_regular_pencil(np.random.default_rng([10, 0, 8]), 0, 8, stable=False, cond_max=10.0)
        with pytest.raises(IllConditionedTransform) as info:
            decompose(p)
        found = re.search(r"equivalence transformations have condition (\S+) > 1e12 \(T_L (\S+), T_R (\S+)\)$",
                          str(info.value))
        assert found and float(found[1]) == max(float(found[2]), float(found[3])) > 1e12
        assert calls == []

    @pytest.mark.parametrize(
        "pencil",
        [
            build_nanorod(NanorodParams(n_grid=4)).pencil,
            build_l2_example(L2ExampleParams(K=40)),
            build_zero_dynamics(np.diag(-np.arange(1.0, 5.0)), np.eye(4)[:, 0], np.eye(4)[:, 0]).pencil,
        ],
        ids=["nanorod", "l2", "zero-dyn"],
    )
    def test_model_shift_is_the_best_2_norm_conditioned(self, monkeypatch, pencil):
        # the 1-norm estimate must pick the shift of smallest exact 2-norm condition among the
        # same 16 draws, so the model reports keep their shift
        rng = np.random.default_rng(12345)
        radius = 2.0 * (spectral_norm(pencil.E) + spectral_norm(pencil.A))
        draws = [radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(16)]
        mu = min(draws, key=lambda lam: np.linalg.cond(pencil.shifted(lam)))
        seen, split = [], weierstrass._power_split
        monkeypatch.setattr(weierstrass, "_power_split", lambda M: seen.append(M) or split(M))
        decompose(pencil)
        errors = [spectral_norm(seen[0] - np.linalg.solve(pencil.shifted(lam), pencil.E)) for lam in draws]
        assert draws[int(np.argmin(errors))] == mu

    def test_nilpotency_invariant_under_equivalence(self):
        rng = np.random.default_rng(1)
        base = random_regular_pencil(rng, 3, 2)
        ref = decompose(base).nilpotency_index
        for _ in range(5):
            G = random_well_conditioned(rng, 5)
            H = random_well_conditioned(rng, 5)
            p = MatrixPencil(G @ base.E @ H, G @ base.A @ H)
            assert decompose(p).nilpotency_index == ref

    def test_neumann_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_regular_pencil(rng, 2, 3)
            d = decompose(p)
            lam = 2.0 + rng.uniform()
            k = max(d.nilpotency_index, 1)
            series = -sum(
                np.linalg.matrix_power(lam * d.N, l) for l in range(k)
            )
            inv = np.linalg.inv(lam * d.N - np.eye(d.d2))
            assert spectral_norm(inv - series) <= 1e-12 * max(spectral_norm(inv), 1.0)

    def test_resolvent_set_matches_A1(self):
        rng = np.random.default_rng(3)
        p = random_regular_pencil(rng, 3, 2)
        d = decompose(p)
        eigs = np.linalg.eigvals(d.A1)
        inside = complex(eigs[0])  # spectrum point: not in rho
        outside = complex(np.max(eigs.real) + 1.0, 0.3)
        assert not resolvent_norm(p, inside).in_resolvent_set
        assert resolvent_norm(p, outside).in_resolvent_set


class TestSpectralProjectors:
    def test_ode_case(self):
        P, R = spectral_projectors(MatrixPencil(np.eye(2), np.diag([-1.0, -3.0])), p=0)
        assert np.allclose(P, np.eye(2), atol=1e-7)
        assert np.allclose(R, np.eye(2), atol=1e-7)

    def test_diagonal_dae(self):
        P, R = spectral_projectors(MatrixPencil(np.diag([1.0, 0.0]), -np.eye(2)), p=0)
        assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-7)
        assert np.allclose(R, np.diag([1.0, 0.0]), atol=1e-7)

    def test_matches_decompose(self):
        # for p >= 1 the limit formula has a double-precision rounding floor
        # of order eps * lambda^{p+2}, so the cross-check runs at a relaxed
        # Cauchy tolerance and matches to 1e-5 rather than machine level
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = random_regular_pencil(rng, 3, 2, stable=True)
            d = decompose(p)
            P, R = spectral_projectors(p, p=max(d.nilpotency_index - 1, 0), tol=1e-4)
            assert spectral_norm(P - d.P) <= 1e-5
            assert spectral_norm(R - d.R) <= 1e-5

    def test_one_lu_per_shift(self, monkeypatch, getrf_calls):
        # both pseudo-resolvents of a shift come from its one LU, the left one by a transposed solve
        for name in ("solve", "inv"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name: pytest.fail(f"np.linalg.{name} called"))
        P, R = spectral_projectors(MatrixPencil(np.diag([1.0, 0.0]), -np.eye(2)), p=0)
        assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-7) and np.allclose(R, P, atol=1e-7)
        assert getrf_calls == [(2, 2)] * 12

    def test_singular_shift_raises_typed(self):
        # lam0 = 10 (1 + ||A|| / ||E||) = 20 and 20 E - A = diag(20, 0): the LU's zero pivot refuses the
        # shift before any solve, with no LinAlgWarning (tier-1 turns that warning into an error)
        pencil = MatrixPencil(np.diag([1.0, 1 / 20]), np.diag([0.0, 1.0]))
        with pytest.raises(SingularShift, match=r"^lambda = 20 is outside the resolvent set: pivot 2 of its LU is 0$"):
            spectral_projectors(pencil, 1)

    def test_strict_tolerance_unreachable_for_higher_index(self):
        # documents the rounding floor: at the default 1e-8 Cauchy tolerance
        # the p = 1 limit cannot converge in double precision
        rng = np.random.default_rng(8)
        p = random_regular_pencil(rng, 3, 2, stable=True)
        with pytest.raises(NoConvergence):
            spectral_projectors(p, p=1)


class TestZeroDynamics:
    def test_assembly(self):
        A0 = np.diag([-1.0, -2.0, -3.0, -4.0])
        b = c = np.eye(4)[:, 0]
        model = build_zero_dynamics(A0, b, c)
        assert np.allclose(model.E, scipy.linalg.block_diag(np.eye(4), 0.0))
        assert np.allclose(model.A[:4, :4], A0)
        assert np.allclose(model.A[:4, 4], b)
        assert np.allclose(model.A[4, :4], c.conj())

    def test_qb_annihilates_b(self):
        rng = np.random.default_rng(5)
        A0 = random_complex(rng, 3, 3)
        b, c = random_complex(rng, 3), random_complex(rng, 3)
        model = build_zero_dynamics(A0, b, c)
        Qb = lambda z: z - (np.vdot(c, z) / np.vdot(c, b)) * b
        assert np.linalg.norm(Qb(b)) <= 1e-12 * np.linalg.norm(b)

    def test_transform_blocks(self):
        A0 = np.diag([-1.0, -2.0, -3.0, -4.0])
        b = c = np.eye(4)[:, 0]
        model = build_zero_dynamics(A0, b, c)
        Et = model.U @ model.E @ model.V
        At = model.U @ model.A @ model.V
        m = A0.shape[0]
        # E block: blkdiag(I_{m-1}, N) with N strictly lower 2x2
        assert np.allclose(Et[: m - 1, : m - 1], np.eye(m - 1), atol=1e-10)
        assert np.allclose(Et[m - 1 :, m - 1 :] - np.tril(Et[m - 1 :, m - 1 :], -1), 0.0, atol=1e-10)
        # A block: blkdiag(*, I_2)
        assert np.allclose(At[m - 1 :, m - 1 :], np.eye(2), atol=1e-10)
        assert np.allclose(At[: m - 1, m - 1 :], 0.0, atol=1e-10)
        assert np.allclose(At[m - 1 :, : m - 1], 0.0, atol=1e-10)

    def test_cross_validates_with_decompose(self):
        rng = np.random.default_rng(6)
        A0 = random_complex(rng, 4, 4) - 3.0 * np.eye(4)
        b, c = random_complex(rng, 4), random_complex(rng, 4)
        model = build_zero_dynamics(A0, b, c)
        d = decompose(model.pencil)
        assert d.nilpotency_index == 2
        assert d.d2 == 2
        At = model.U @ model.A @ model.V
        m = 4
        ours = np.sort_complex(np.linalg.eigvals(At[: m - 1, : m - 1]))
        theirs = np.sort_complex(np.linalg.eigvals(d.A1))
        assert np.allclose(ours, theirs, atol=1e-6)

    def test_degenerate_pairing(self):
        with pytest.raises(DegeneratePairing):
            build_zero_dynamics(np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_inverse_residual_typed_error(self, monkeypatch):
        # a residual check that fails is a PencilError naming the matrix, so the CLI reports it as JSON
        monkeypatch.setattr(weierstrass, "spectral_norm", lambda M: 1.0)
        with pytest.raises(IllConditionedTransform, match=r"^U inverse residual \|\|U U\^-1 - I\|\| 1\.000e\+00 > 1\.000e-12$"):
            build_zero_dynamics(np.diag([-1.0, -2.0]), np.ones(2), np.ones(2))


class TestReconstruct:
    def test_trivial_roundtrip(self):
        p = MatrixPencil(np.eye(2), np.diag([-1.0, -2.0]))
        rec = reconstruct(decompose(p))
        assert np.allclose(rec.E, p.E, atol=1e-12)
        assert np.allclose(rec.A, p.A, atol=1e-12)

    def test_zero_dynamics_roundtrip(self):
        model = build_zero_dynamics(np.diag([-1.0, -2.0, -3.0, -4.0]), np.eye(4)[:, 0], np.eye(4)[:, 0])
        d = decompose(model.pencil)
        assert _reconstruction_residual(model.pencil, d) <= 1e-8

    def test_random_roundtrip(self):
        rng = np.random.default_rng(7)
        p = random_regular_pencil(rng, 4, 2)
        d = decompose(p)
        scale = spectral_norm(p.E) + spectral_norm(p.A)
        assert _reconstruction_residual(p, d) <= 1e-8 * scale
