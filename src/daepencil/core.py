"""Dense complex matrix pencils, resolvents and pseudo-resolvents.

A pencil is the family ``lambda*E - A`` for a square pair ``(E, A)``, stored
as complex matrices; norms are spectral norms.  ``MatrixPencil.schur`` is the
pencil's one QZ form, real when E and A are, and ``MatrixPencil.finite`` the
one rule for which of its eigenvalues are finite.  Every routine here is
pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import SingularShift

__all__ = [
    "MatrixPencil",
    "ResolventSample",
    "as_complex_matrix",
    "spectral_norm",
    "kappa_max",
    "probe_regularity",
    "resolvent",
    "resolvent_norm",
    "resolvent_norms",
    "resolvent_apply",
    "right_pseudo_resolvent",
    "left_pseudo_resolvent",
]


def as_complex_matrix(M) -> np.ndarray:
    """Validate and return a finite, 2-D complex matrix."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains NaN or Inf entries")
    return M


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value."""
    M = np.atleast_2d(M)
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


#: Golub-Kahan-Lanczos steps after which a column is not settled, and its caller falls back to an SVD
LANCZOS_STEPS = 30


def kappa_max(n: int) -> float:
    """2-norm condition above which a norm sample is outside the resolvent set; ``_lu`` judges an LU."""
    return 1.0 / (1e-12 * n)


@dataclass(frozen=True)
class MatrixPencil:
    """Square pencil ``lambda*E - A`` on C^n."""

    E: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        E, A = as_complex_matrix(self.E), as_complex_matrix(self.A)
        if E.shape != A.shape or E.shape[0] != E.shape[1]:
            raise ValueError(f"E and A must be square with equal shape, got {E.shape} and {A.shape}")
        E.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.E.shape[0]

    def shifted(self, lam: complex) -> np.ndarray:
        return lam * self.E - self.A

    @cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(S, T, Q, Z): the pencil's one QZ form E = Q S Z*, A = Q T Z*, in its own field: real, S upper and T
        quasi-upper triangular (a 2x2 block per complex pair), when E and A are real, else complex triangular."""
        A, E = (self.A, self.E) if self.E.imag.any() or self.A.imag.any() else (self.A.real, self.E.real)
        T, S, Q, Z = scipy.linalg.qz(A, E, output="complex" if np.iscomplexobj(A) else "real")
        return S, T, Q, Z

    @cached_property
    def qz(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(S, T, Q, Z): complex QZ form, S and T upper triangular: ``schur``'s own arrays, or a real one's with each
        2x2 block made triangular by a pair of 2x2 unitary rotations (Golub & Van Loan, Matrix Computations, 7.7)."""
        S, T, Q, Z = (M.astype(complex, copy=False) for M in self.schur)
        rows = np.flatnonzero(np.diagonal(T, -1))[:, None] + [0, 1]  # of the 2x2 blocks, none in a complex form
        Sb, Tb = (M[rows[:, :, None], rows[:, None, :]] for M in (S, T))  # LAPACK leaves each Sb diagonal, positive
        M = Tb - np.linalg.eigvals(Tb / Sb.diagonal(0, 1, 2)[:, :, None])[:, 1, None, None] * Sb  # lam: Im lam < 0
        v = M[np.arange(len(M)), np.argmax(np.linalg.norm(M, axis=2), axis=1)][:, ::-1] * [1, -1]  # M v = 0
        u, v = (w / np.linalg.norm(w, axis=1, keepdims=True) for w in (np.einsum("bij,bj->bi", Sb, v), v))
        Qb, Zb = (np.stack((w, np.stack((-w[:, 1].conj(), w[:, 0].conj()), axis=1)), axis=2) for w in (u, v))  # unitary
        S[rows], T[rows] = Qb.conj().transpose(0, 2, 1) @ np.stack((S[rows], T[rows]))  # Sb v is parallel to Tb v
        for M, R in ((S, Zb), (T, Zb), (Q, Qb), (Z, Zb)):
            M[:, rows] = np.einsum("nbj,bjk->nbk", M[:, rows], R)
        S[rows[:, 1], rows[:, 0]] = T[rows[:, 1], rows[:, 0]] = 0.0
        return S, T, Q, Z

    def finite(self, d1: int) -> np.ndarray:
        """Mask of the d1 finite eigenvalues on the diagonal of ``qz``, and so of ``schur``: the d1 largest
        |s|/(|s| + |t|).  QZ puts an index-k block's infinite eigenvalues at eps^(1/k) there, above any fixed cut."""
        s, t = (np.abs(np.diagonal(M)) for M in self.qz[:2])
        return np.isin(np.arange(self.n), np.argsort(t / (s + t), kind="stable")[:d1])


@dataclass(frozen=True)
class ResolventSample:
    """Norm of the resolvent at one shift, with an invertibility flag."""

    lam: complex
    norm: float
    in_resolvent_set: bool


def _lu(M: np.ndarray, refusal: str | None = None):
    """(LU, estimate, invertible) of square M: getrf's factors, gecon's 1-norm condition estimate (inf on a zero
    pivot), and the one rule for a factorised shift, rcond > 1e-12 max(1, 1/||M||_1), that is an estimate below
    1e12 min(1, ||M||_1) (Higham, ch. 15).  Given ``refusal``, M that fails the rule raises SingularShift."""
    getrf, gecon = scipy.linalg.get_lapack_funcs(("getrf", "gecon"), (M,))
    (lu, piv, info), anorm = getrf(M), np.linalg.norm(M, 1)
    rcond = gecon(lu, anorm, norm="1")[0] if info == 0 else 0.0
    cond, ok = 1.0 / rcond if rcond > 0 else np.inf, rcond * anorm > 1e-12 * max(anorm, 1.0)
    if refusal is not None and not ok:
        raise SingularShift(f"{refusal}: 1-norm condition estimate {cond:.3e}, limit {1e12 * min(1.0, anorm):.3e}")
    return (lu, piv), cond, ok


def _invertible_shifts(pencil: MatrixPencil, trials: int, seed: int, scale: float | None = None):
    """Draw ``trials`` shifts uniformly from the disk of radius 2*``scale`` (default ||E|| + ||A||) and
    yield ``(lam, cond, lu)`` for each: ``_lu``'s estimate for lam E - A, and its LU if it passes, else None."""
    rng = np.random.default_rng(seed)
    radius = 2.0 * (spectral_norm(pencil.E) + spectral_norm(pencil.A) if scale is None else scale)
    for _ in range(trials):
        lam = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        lu, cond, ok = _lu(pencil.shifted(lam))
        yield lam, cond, lu if ok else None


def probe_regularity(pencil: MatrixPencil, trials: int | None = None, seed: int = 0) -> bool:
    """Pseudo-random check that det(lambda*E - A) is not identically zero.

    Draws ``trials`` shifts (default max(16, n+1): the determinant is a
    polynomial of degree at most n, so n+1 samples cannot all be roots)
    and returns True as soon as one of them is numerically invertible.
    """
    n, trials = pencil.n, max(16, pencil.n + 1) if trials is None else trials
    if trials < n + 1:
        raise ValueError(f"trials must be at least n+1 = {n + 1}")
    return any(lu is not None for *_, lu in _invertible_shifts(pencil, trials, seed))


def _shift_lu(pencil: MatrixPencil, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    return _lu(pencil.shifted(lam), f"lambda = {lam} is outside the resolvent set")[0]


def resolvent(pencil: MatrixPencil, lam: complex) -> np.ndarray:
    """(lambda*E - A)^{-1}, refused by ``_lu``'s rule with SingularShift."""
    return scipy.linalg.lu_solve(_shift_lu(pencil, lam), np.eye(pencil.n))


def resolvent_norm(pencil: MatrixPencil, lam: complex) -> ResolventSample:
    """Spectral norm of the resolvent, 1/sigma_min of the shifted pencil."""
    sig = np.linalg.svd(pencil.shifted(lam), compute_uv=False)
    ok = sig[-1] > 0.0 and sig[0] / sig[-1] <= kappa_max(pencil.n)
    return ResolventSample(lam, float(1.0 / sig[-1]) if sig[-1] > 0.0 else np.inf, bool(ok))


def _back_substitute(S: np.ndarray, T: np.ndarray, lams: np.ndarray, c: np.ndarray, pivots=None) -> np.ndarray:
    """(lambda*S - T)^{-1} c, S and T upper triangular, a column per shift; c is (n,) or (n, m).  ``pivots``, if
    given, holds row i's lams * S[i, i] - T[i, i], the same expression, so the result is the same bits."""
    y = np.empty((len(c), len(lams)), dtype=complex)
    for i in range(len(c) - 1, -1, -1):
        rest = y[i + 1 :]
        pivot = lams * S[i, i] - T[i, i] if pivots is None else pivots[i]
        y[i] = (c[i] - lams * (S[i, i + 1 :] @ rest) + T[i, i + 1 :] @ rest) / pivot
    return y


def resolvent_apply(pencil: MatrixPencil, lams: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(lambda*E - A)^{-1} b for each shift in ``lams`` as rows, by back-substitution on
    the QZ form lambda*S - T vectorised over the shifts: O(m n^2) flops, O(m n) memory."""
    S, T, Q, Z = pencil.qz
    return (Z @ _back_substitute(S, T, lams, Q.conj().T @ b)).T


def _orthonormalise(x: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column of x (n, m) made orthogonal to basis[:, :, column], twice, then normalised."""
    for _ in range(2):
        x = x - np.einsum("jim,jm->im", basis, np.einsum("jim,im->jm", basis, x.conj()).conj())
    scale = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=0, initial=0.0))[1])  # a power of 2, so exact
    norm = np.linalg.norm(x / scale, axis=0) * scale  # without over- or underflow
    return x / norm, norm


def _golub_kahan(apply, adjoint, start: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(top Ritz value, steps, settled) of m operators by fully reorthogonalised Golub-Kahan-Lanczos in lockstep
    from ``start`` (n,), ``apply`` and ``adjoint`` taking column i of (n, m) by operator i: settled when the Ritz
    value moves <= 1e-14 relative in a step or the Krylov space is invariant, within min(n, LANCZOS_STEPS)."""
    n, k = len(start), min(len(start), LANCZOS_STEPS)
    U, V = np.zeros((k, n, m), dtype=start.dtype), np.zeros((k + 1, n, m), dtype=start.dtype)
    V[0], bidiag, beta = start[:, None] / np.linalg.norm(start), np.zeros((m, k, k)), 0.0
    sigma, steps, ok = np.zeros(m), np.zeros(m, dtype=int), np.ones(m, dtype=bool)
    for j in range(k):
        with np.errstate(all="ignore"):  # a zero pivot or an overflow leaves its column not settled
            U[j], alpha = _orthonormalise(apply(V[j]) - beta * U[j - 1], U[:j])
            bidiag[:, j - 1, j], bidiag[:, j, j] = beta, alpha  # U[-1] is still 0 at j = 0
            V[j + 1], beta = _orthonormalise(adjoint(U[j]) - alpha * V[j], V[: j + 1])
        ok &= np.isfinite(alpha)
        live = np.flatnonzero(ok & (steps == 0))  # Ritz values only where they can still change
        old, sigma[live] = sigma[live], np.linalg.norm(bidiag[live, : j + 1, : j + 1], 2, (1, 2))
        invariant = (j + 1 == n) | (alpha[live] == 0) | (beta[live] == 0)
        steps[live[(abs(sigma[live] - old) <= 1e-14 * sigma[live]) | invariant]] = j + 1
        if steps.all():
            break
    return sigma, np.where(steps > 0, steps, k), steps > 0


def resolvent_norms(pencil: MatrixPencil, lams) -> tuple[list[ResolventSample], int, int]:
    """(``resolvent_norm`` at each shift in ``lams``, most Lanczos steps, SVD fallbacks), from ``_golub_kahan`` on
    (lambda*S - T)^{-1} of the QZ form by back-substitution, 64 shifts a run.  ||M||_F / sqrt(n) <= sigma_max(M)
    <= ||M||_F, M = lambda*S - T, decides kappa <= kappa_max(n); an unsettled or straddling shift gets the SVD."""
    S, T, Q = pencil.qz[:3]
    Sa, Ta = (np.ascontiguousarray(M.conj().T[::-1, ::-1]) for M in (S, T))  # adjoint, upper triangular
    n, lams, rng = pencil.n, np.asarray(lams, dtype=complex).ravel(), np.random.default_rng(0)
    start = Q.conj().T @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))  # seeded in the pencil's coordinates
    sigma, steps, settled = (np.concatenate(column) for column in zip(*[  # the basis stays O(k n 64)
        _golub_kahan(lambda V, z=z, d=d: _back_substitute(S, T, z, V, d),
                     lambda U, z=z, d=d: _back_substitute(Sa, Ta, z.conj(), U[::-1], d.conj()[::-1])[::-1],
                     start, len(z))  # d: the pivots of the run's 64 shifts, once
        for z in np.split(lams, range(64, len(lams), 64)) for d in [z * np.diag(S)[:, None] - np.diag(T)[:, None]]]))
    fro2 = abs(lams) ** 2 * np.vdot(S, S).real - 2 * (lams * np.vdot(T, S)).real + np.vdot(T, T).real
    kappa, kmax = np.sqrt(np.maximum(fro2, 0.0)) * sigma, kappa_max(n)  # ||M||_F ||M^{-1}||
    decided = settled & ((kappa <= kmax) | (kappa > np.sqrt(n) * kmax))
    return [
        ResolventSample(lam, float(s), bool(kap <= kmax)) if known else resolvent_norm(pencil, lam)
        for lam, s, kap, known in zip(lams.tolist(), sigma, kappa, decided)
    ], int(steps.max(initial=0)), int(np.count_nonzero(~decided))


def right_pseudo_resolvent(pencil: MatrixPencil, lam: complex) -> np.ndarray:
    """(lambda*E - A)^{-1} E, refused as ``resolvent``."""
    return scipy.linalg.lu_solve(_shift_lu(pencil, lam), pencil.E)


def left_pseudo_resolvent(pencil: MatrixPencil, lam: complex) -> np.ndarray:
    """E (lambda*E - A)^{-1}, by a transposed solve on the LU of ``resolvent``."""
    return scipy.linalg.lu_solve(_shift_lu(pencil, lam), pencil.E.T, trans=1).T
