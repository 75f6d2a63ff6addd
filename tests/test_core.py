"""Pencil construction, regularity probing, resolvents and pseudo-resolvents."""

import numpy as np
import pytest
import scipy.linalg
from conftest import random_complex, random_regular_pencil

import daepencil.core

from daepencil import (
    L2ExampleParams,
    MatrixPencil,
    NanorodParams,
    build_l2_example,
    build_nanorod,
    build_zero_dynamics,
    estimate_resolvent_index_complex,
    estimate_resolvent_index_real,
    left_pseudo_resolvent,
    probe_regularity,
    resolvent,
    resolvent_norm,
    right_pseudo_resolvent,
    spectral_norm,
)
from daepencil.core import _invertible_shifts, kappa_max, resolvent_apply, resolvent_norms
from daepencil.errors import SingularShift


class TestMatrixPencil:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            MatrixPencil(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            MatrixPencil(np.ones((2, 3)), np.ones((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            MatrixPencil(np.array([[np.nan]]), np.eye(1))

    def test_inputs_not_aliased(self):
        E = np.eye(2)
        p = MatrixPencil(E, np.zeros((2, 2)))
        E[0, 0] = 7.0
        assert p.E[0, 0] == 1.0

    def test_shifted(self):
        p = MatrixPencil(np.eye(2), np.diag([1.0, 2.0]))
        assert np.allclose(p.shifted(3.0), np.diag([2.0, 1.0]))


class TestProbeRegularity:
    def test_identity_pencil_regular(self):
        assert probe_regularity(MatrixPencil(np.eye(2), np.zeros((2, 2))))

    def test_zero_pencil_irregular(self):
        assert not probe_regularity(MatrixPencil(np.zeros((2, 2)), np.zeros((2, 2))))

    def test_singular_E_and_A_regular(self):
        # det(lambda*E - A) = -lambda, not identically zero
        p = MatrixPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert probe_regularity(p)

    def test_identically_singular_rank_deficient(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not probe_regularity(MatrixPencil(N, N))

    def test_deterministic_given_seed(self):
        p = MatrixPencil(np.eye(3), np.zeros((3, 3)))
        assert probe_regularity(p, seed=5) == probe_regularity(p, seed=5)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            probe_regularity(MatrixPencil(np.eye(3), np.eye(3)), trials=2)

    def test_shift_sampler_draws(self):
        # the disk sampler shared by probe_regularity and decompose
        p = MatrixPencil(np.eye(3), np.diag([1.0, 2.0, 3.0]))
        radius = 2.0 * (spectral_norm(p.E) + spectral_norm(p.A))
        rng = np.random.default_rng(12345)
        expected = [
            radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(8)
        ]
        assert [lam for lam, *_ in _invertible_shifts(p, 8, seed=12345)] == expected


class TestResolvent:
    def test_scalar(self):
        M = resolvent(MatrixPencil([[1.0]], [[0.0]]), 2.0)
        assert np.allclose(M, [[0.5]])

    def test_l2_block_value(self):
        s = np.sqrt(2.0)
        A1 = np.array([[0.0, s], [-s, -2.0]])
        M = resolvent(MatrixPencil(np.eye(2), A1), 1.0)
        assert np.allclose(M, np.array([[3.0, s], [-s, 1.0]]) / 5.0, atol=1e-12)

    def test_multiply_back_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = MatrixPencil(random_complex(rng, 3, 3), random_complex(rng, 3, 3))
            lam = 1.0 + 1.0j
            M = resolvent(p, lam)
            assert spectral_norm(p.shifted(lam) @ M - np.eye(3)) <= 1e-10

    def test_singular_shift_raises(self):
        p = MatrixPencil(np.eye(2), np.diag([1.0, 2.0]))
        with pytest.raises(SingularShift):
            resolvent(p, 1.0)

    def test_resolvent_norm_flags(self):
        p = MatrixPencil(np.eye(2), np.diag([1.0, 2.0]))
        assert not resolvent_norm(p, 1.0 + 0.0j).in_resolvent_set
        s = resolvent_norm(p, 3.0 + 0.0j)
        assert s.in_resolvent_set
        assert s.norm == pytest.approx(1.0, rel=1e-12)  # 1/sigma_min of diag(2,1)


class TestPseudoResolvents:
    def test_scalar(self):
        p = MatrixPencil([[1.0]], [[-1.0]])
        assert np.allclose(right_pseudo_resolvent(p, 1.0), [[0.5]])
        assert np.allclose(left_pseudo_resolvent(p, 1.0), [[0.5]])

    def test_rank_deficient(self):
        p = MatrixPencil(np.diag([1.0, 0.0]), -np.eye(2))
        expected = np.array([[0.5, 0.0], [0.0, 0.0]])
        assert np.allclose(right_pseudo_resolvent(p, 1.0), expected)
        assert np.allclose(left_pseudo_resolvent(p, 1.0), expected)

    def test_weierstrass_form_left_equals_right(self):
        p = MatrixPencil(np.diag([1.0, 0.0]), np.diag([-2.0, 1.0]))
        lam = 1.5
        R = right_pseudo_resolvent(p, lam)
        assert np.allclose(R, np.diag([1.0 / (lam + 2.0), 0.0]))
        assert np.allclose(R, left_pseudo_resolvent(p, lam), atol=1e-12)

    def test_pseudo_resolvent_identity_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_regular_pencil(rng, 3, 2)
            lam, mu = 2.0 + rng.uniform(), 5.0 + rng.uniform()
            Rl, Rm = right_pseudo_resolvent(p, lam), right_pseudo_resolvent(p, mu)
            resid = spectral_norm(Rl - Rm - (mu - lam) * Rl @ Rm)
            assert resid <= 1e-8 * max(spectral_norm(Rl) * spectral_norm(Rm), 1.0)

    def test_resolvent_inverts_on_random_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_regular_pencil(rng, 3, 1)
            lam = 3.0 + 1.0j
            M = resolvent(p, lam)
            v = random_complex(rng, 4)
            w = M @ (p.shifted(lam) @ v)
            assert np.linalg.norm(w - v) <= 1e-10 * np.linalg.norm(v)

    def test_derivative_identity(self):
        rng = np.random.default_rng(3)
        p = random_regular_pencil(rng, 3, 2)
        z = random_complex(rng, 5)
        lam = 4.0
        h = 1e-5 * abs(lam)
        for n in (1, 2, 3):
            def f(x):
                return np.linalg.matrix_power(right_pseudo_resolvent(p, x), n) @ z

            fd = (f(lam + h) - f(lam - h)) / (2.0 * h)
            exact = -n * np.linalg.matrix_power(right_pseudo_resolvent(p, lam), n + 1) @ z
            assert np.linalg.norm(fd - exact) <= 1e-4 * max(np.linalg.norm(exact), 1e-12)


def _resolvent_cases():
    """The pencils and shifts of TestResolvent and TestPseudoResolvents."""
    s, cases = np.sqrt(2.0), []
    rng = np.random.default_rng(0)
    cases += [(MatrixPencil(random_complex(rng, 3, 3), random_complex(rng, 3, 3)), 1.0 + 1.0j) for _ in range(3)]
    rng = np.random.default_rng(1)
    cases += [(random_regular_pencil(rng, 3, 2), 2.0 + rng.uniform()) for _ in range(3)]
    rng = np.random.default_rng(2)
    cases += [(random_regular_pencil(rng, 3, 1), 3.0 + 1.0j) for _ in range(3)]
    return cases + [
        (MatrixPencil([[1.0]], [[0.0]]), 2.0),
        (MatrixPencil(np.eye(2), [[0.0, s], [-s, -2.0]]), 1.0),
        (MatrixPencil([[1.0]], [[-1.0]]), 1.0),
        (MatrixPencil(np.diag([1.0, 0.0]), -np.eye(2)), 1.0),
        (MatrixPencil(np.diag([1.0, 0.0]), np.diag([-2.0, 1.0])), 1.5),
        (random_regular_pencil(np.random.default_rng(3), 3, 2), 4.0),
    ]


class TestOneLuPerShift:
    def test_one_getrf_and_no_svd_per_call(self, monkeypatch, getrf_calls):
        # each call factorises its shift once, judges it by the LU's condition estimate and solves on
        # the same LU; the references are the dense inverse and solve the evaluators used before
        cases, refs = _resolvent_cases(), []
        for p, lam in cases:
            inv = np.linalg.inv(p.shifted(lam))
            refs.append((inv, np.linalg.solve(p.shifted(lam), p.E), p.E @ inv))
        for module, name in [(np.linalg, "svd"), (np.linalg, "inv"), (np.linalg, "solve"), (scipy.linalg, "lu_factor")]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
        for (p, lam), expected in zip(cases, refs):
            for evaluate, ref in zip((resolvent, right_pseudo_resolvent, left_pseudo_resolvent), expected):
                getrf_calls.clear()
                got = evaluate(p, lam)
                assert getrf_calls == [(p.n, p.n)]
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("tiny", [5e-12, 5e-13], ids=["estimate-2e11-accepted", "estimate-2e12-refused"])
    def test_one_rule_on_both_sides_of_its_limit(self, tiny):
        # lambda E - A = diag(1, ..., 1, tiny) at lambda = 0 has 1-norm 1, so the limit is 1e12 and
        # gecon's estimate 1/tiny; the norm samples' 2-norm rule, kappa_max(10) = 1e11, plays no part
        p, accepted = MatrixPencil(np.eye(10), -np.diag([1.0] * 9 + [tiny])), tiny > 1e-12
        [(lam, cond, lu)] = _invertible_shifts(p, 1, seed=0, scale=0.0)
        assert lam == 0 and cond == pytest.approx(1.0 / tiny, rel=1e-12) and (lu is not None) == accepted
        expected = np.diag([1.0] * 9 + [1.0 / tiny])
        for evaluate in (resolvent, right_pseudo_resolvent, left_pseudo_resolvent):
            if accepted:
                assert np.allclose(evaluate(p, 0.0), expected, rtol=1e-14, atol=0.0)
                continue
            with pytest.raises(SingularShift) as refusal:
                evaluate(p, 0.0)
            assert str(refusal.value) == (
                "lambda = 0.0 is outside the resolvent set: 1-norm condition estimate 2.000e+12, limit 1.000e+12"
            )


def _dense_solves(pencil, lams, b):
    """Reference: one dense LU solve of lambda*E - A per shift."""
    rhs = np.broadcast_to(b, (len(lams), pencil.n))[..., None]
    return np.linalg.solve(lams[:, None, None] * pencil.E - pencil.A, rhs)[..., 0]


def _shifts(omega):
    """A vertical line Re = omega and a real ray, both reaching |lambda| = 1e4."""
    ys = np.geomspace(1e-2, 1e4, 17)
    return np.concatenate([omega + 1j * np.concatenate([-ys, [0.0], ys]), omega * np.geomspace(1.0, 1e4, 9)])


def _relative_errors(x, ref):
    return np.linalg.norm(x - ref, axis=1) / np.linalg.norm(ref, axis=1)


class TestQz:
    def test_factors(self):
        # a complex pencil, and real ones whose real Schur forms have 2x2 blocks, made triangular by rotations
        rng = np.random.default_rng(4)
        pencils = [random_regular_pencil(rng, 4, 3), build_nanorod(NanorodParams(n_grid=4)).pencil,
                   MatrixPencil(rng.standard_normal((9, 9)), rng.standard_normal((9, 9)))]
        for p, blocks in zip(pencils, [0, 4, 3]):
            assert np.count_nonzero(np.diagonal(p.schur[1], -1)) == blocks
            S, T, Q, Z = p.qz
            assert not np.tril(S, -1).any() and not np.tril(T, -1).any()
            for U in (Q, Z):
                assert spectral_norm(U.conj().T @ U - np.eye(p.n)) <= 1e-13
            assert spectral_norm(Q @ S @ Z.conj().T - p.E) <= 1e-12 * spectral_norm(p.E)
            assert spectral_norm(Q @ T @ Z.conj().T - p.A) <= 1e-12 * spectral_norm(p.A)

    def test_finite_mask_in_both_forms(self):
        # nanorod n_grid=4 has 12 finite eigenvalues, complex pairs among them, and 8 infinite ones: the mask marks a
        # 2x2 block's pair together, and each marked place holds the same eigenvalue (or its conjugate) in both forms
        p = build_nanorod(NanorodParams(n_grid=4)).pencil
        (S, T), (Sc, Tc), finite = p.schur[:2], p.qz[:2], p.finite(12)
        ks = np.flatnonzero(np.diagonal(T, -1))
        with np.errstate(divide="ignore", invalid="ignore"):
            real_form = (np.diag(T) / np.diag(S)).astype(complex)
        for k in ks:
            real_form[k : k + 2] = scipy.linalg.eigvals(T[k : k + 2, k : k + 2], S[k : k + 2, k : k + 2])
        view, real_form = np.diag(Tc)[finite] / np.diag(Sc)[finite], real_form[finite]
        assert np.count_nonzero(finite) == 12 and len(ks) and np.array_equal(finite[ks], finite[ks + 1])
        assert np.all(np.minimum(abs(view - real_form), abs(view - real_form.conj())) <= 1e-10 * abs(real_form))

    def test_computed_once(self):
        p = MatrixPencil(np.eye(2), np.diag([1.0, 2.0]))
        assert p.qz is p.qz


class TestResolventApply:
    @pytest.mark.parametrize(
        "pencil",
        [
            build_nanorod(NanorodParams(n_grid=4)).pencil,
            build_l2_example(L2ExampleParams(K=40)),
            build_zero_dynamics(np.diag(-np.arange(1.0, 5.0)), np.eye(4)[:, 0], np.eye(4)[:, 0]).pencil,
        ],
        ids=["nanorod", "l2", "zero-dyn"],
    )
    def test_models_match_dense(self, pencil):
        rng = np.random.default_rng(0)
        b = random_complex(rng, pencil.n)
        lams = _shifts(1.0)  # the models' finite spectra lie in Re <= 0
        assert np.max(_relative_errors(resolvent_apply(pencil, lams, b), _dense_solves(pencil, lams, b))) <= 1e-12

    @pytest.mark.parametrize("d2", [1, 2, 3])
    def test_random_pencils_match_dense(self, d2):
        # a random strictly upper triangular N of size d2 has index d2
        rng = np.random.default_rng(d2)
        for _ in range(3):
            p = random_regular_pencil(rng, 5, d2, stable=True)
            b = random_complex(rng, p.n)
            lams = _shifts(1.0)
            x = resolvent_apply(p, lams, b)
            for lam, xi in zip(lams, x):
                M = lam * p.E - p.A
                backward = spectral_norm((M @ xi - b)[:, None]) / (spectral_norm(M) * np.linalg.norm(xi))
                assert backward <= 1e-14
            # both solves are backward stable, so they differ by up to
            # eps * cond(lambda E - A), which reaches 1e14 at index 3
            cond = np.array([np.linalg.cond(lam * p.E - p.A) for lam in lams])
            assert np.all(_relative_errors(x, _dense_solves(p, lams, b)) <= np.maximum(1e-12, 1e-14 * cond))

    def test_shape_and_scalar_case(self):
        p = MatrixPencil(np.eye(1), [[-1.0]])
        lams = np.array([1.0, 2.0 + 3.0j])
        assert np.allclose(resolvent_apply(p, lams, np.array([2.0])), (2.0 / (lams + 1.0))[:, None])


def _mp_sigma_min(pencil, lam):
    """sigma_min(lam E - A) for the stored doubles: the inverse by Gauss-Jordan in 50-digit
    arithmetic (zero entries skipped), rounded to double; the largest singular value of that
    rounding is within a few eps of the exact one, whatever the condition of lam E - A."""
    mpmath = pytest.importorskip("mpmath")
    n = pencil.n
    with mpmath.workdps(50):
        rows = [
            [mpmath.mpc(lam) * mpmath.mpc(e) - mpmath.mpc(a) for e, a in zip(er, ar)]
            + [mpmath.mpc(i == j) for j in range(n)]
            for i, (er, ar) in enumerate(zip(pencil.E.tolist(), pencil.A.tolist()))
        ]
        for j in range(n):
            p = max(range(j, n), key=lambda i: abs(rows[i][j]))
            rows[j], rows[p] = rows[p], rows[j]
            rows[j] = [x / rows[j][j] if x else x for x in rows[j]]
            for i in range(n):
                f = rows[i][j]
                if i != j and f:
                    rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[j])]
        inverse = np.array([[complex(x) for x in row[n:]] for row in rows])
    return 1.0 / spectral_norm(inverse)


class TestResolventNorms:
    @pytest.mark.parametrize(
        "pencil",
        [
            build_nanorod(NanorodParams(n_grid=4)).pencil,
            build_l2_example(L2ExampleParams(K=40)),
            random_regular_pencil(np.random.default_rng(0), 5, 2, stable=True),
            random_regular_pencil(np.random.default_rng(1), 5, 3, stable=True),
        ],
        ids=["nanorod", "l2", "index-2", "index-3"],
    )
    def test_matches_50_digit_reference(self, pencil):
        # per shift, the error is at most 10x the dense SVD's or 10 eps kappa
        lams = np.array([2.0, 1.0 + 30.0j, 1e3, 1.0 + 1e3j, 700.0 + 700.0j])
        samples, steps, fallbacks = resolvent_norms(pencil, lams)
        assert fallbacks == 0 and 1 <= steps <= min(pencil.n, 30)
        for lam, sample in zip(lams, samples):
            exact = _mp_sigma_min(pencil, lam)
            sig = np.linalg.svd(lam * pencil.E - pencil.A, compute_uv=False)
            error = abs(1.0 / sample.norm - exact) / exact
            assert sample.in_resolvent_set and sample.lam == lam
            assert error <= max(10.0 * abs(sig[-1] - exact) / exact, 10.0 * np.finfo(float).eps * sig[0] / exact)

    def test_step_cap_falls_back_to_svd(self, monkeypatch):
        monkeypatch.setattr(daepencil.core, "LANCZOS_STEPS", 1)
        pencil = random_regular_pencil(np.random.default_rng(2), 5, 2, stable=True)
        lams = np.array([2.0, 1.0 + 30.0j, 1e3])
        samples, steps, fallbacks = resolvent_norms(pencil, lams)
        assert (steps, fallbacks) == (1, 3)
        assert samples == [resolvent_norm(pencil, lam) for lam in lams]

    def test_steps_do_not_depend_on_the_qz_route(self):
        # the seeded start vector is drawn in the pencil's coordinates, so the Lanczos runs on the rotated real QZ
        # form and on a complex QZ form of the same pencil are one run in exact arithmetic
        rotated = build_nanorod(NanorodParams(n_grid=10)).pencil
        injected = MatrixPencil(rotated.E, rotated.A)
        T, S, Q, Z = scipy.linalg.qz(rotated.A, rotated.E, output="complex")
        injected.__dict__["qz"] = (S, T, Q, Z)
        runs = [(estimate_resolvent_index_real(p, 1.0, 1e3), estimate_resolvent_index_complex(p, 1.0, 1e3))
                for p in (rotated, injected)]
        assert np.count_nonzero(np.diagonal(rotated.schur[1], -1)) and not np.iscomplexobj(rotated.schur[0])
        assert [e.lanczos_steps for e in runs[0]] == [e.lanczos_steps for e in runs[1]]
        for a, b in zip(*runs):
            assert a.slope == pytest.approx(b.slope, rel=1e-12)

    def test_singular_shift_not_in_resolvent_set(self):
        pencil = MatrixPencil(np.eye(2), np.diag([1.0, 2.0]))
        samples, _, fallbacks = resolvent_norms(pencil, np.array([1.0, 3.0]))
        assert fallbacks == 1
        assert not samples[0].in_resolvent_set and samples[0].norm == np.inf
        assert samples[1].in_resolvent_set and samples[1].norm == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_threshold_decided_by_svd(self, factor):
        # lam E - A = diag(1, 1, delta): kappa = 1/delta, and ||.||_F = sqrt(2) brackets
        # sigma_max in [sqrt(2/3), sqrt(2)], across kappa_max(3) either way
        delta = 1.0 / (factor * kappa_max(3))
        pencil = MatrixPencil(np.eye(3), -np.diag([1.0, 1.0, delta]))
        samples, _, fallbacks = resolvent_norms(pencil, np.array([0.0]))
        assert fallbacks == 1
        assert samples == [resolvent_norm(pencil, 0.0)]
        assert samples[0].in_resolvent_set == (factor < 1.0)
