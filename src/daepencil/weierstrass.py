"""Weierstrass-form decomposition of regular pencils.

``decompose`` brings ``(E, A)`` to the equivalent pair
``(blkdiag(I, N), blkdiag(A1, I))`` with nilpotent ``N``.  The finite and
infinite right deflating subspaces are the range and kernel of a power of the
right pseudo-resolvent at a shift in the resolvent set; E and A map them onto
the left pair, which fixes T_L, and a kernel-flag basis makes ``N`` strictly
upper triangular.  ``spectral_projectors`` recovers the same splitting
through the large-shift limit of powers of the scaled pseudo-resolvent, as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .core import (
    MatrixPencil, _invertible_shifts, _lu, as_complex_matrix, probe_regularity, spectral_norm,
)
from .errors import DegeneratePairing, IllConditionedTransform, IrregularPencil, NoConvergence, SingularShift

__all__ = [
    "WeierstrassDecomposition",
    "ZeroDynModel",
    "decompose",
    "reconstruct",
    "spectral_projectors",
    "build_zero_dynamics",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class WeierstrassDecomposition:
    """T_L E T_R = blkdiag(I, N), T_L A T_R = blkdiag(A1, I)."""

    T_L: np.ndarray
    T_R: np.ndarray
    A1: np.ndarray
    N: np.ndarray
    d1: int
    d2: int
    P: np.ndarray
    R: np.ndarray
    nilpotency_index: int
    cond_T_L: float  # 2-norm condition numbers, checked against 1e12 before any inverse
    cond_T_R: float
    #: set by ``decompose``: ||E_rec - E|| + ||A_rec - A||, the shift mu and its ``gecon`` estimate
    reconstruction_residual: float | None = None
    mu: complex | None = None
    mu_condition_estimate: float | None = None
    rank_profile: tuple[int, ...] | None = None  # the ranks ``_gap_rank`` read for R(mu), R(mu)^2, ...

    @property
    def n(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class ZeroDynModel:
    """Single-input/single-output coupling of a generator A0 with b, c.

    Assembles the (m+1)-dimensional pencil E = blkdiag(I_m, 0),
    A = [[A0, b], [c*, 0]] together with the explicit equivalence
    transformations U, V that expose the nilpotent block.
    """

    A0: np.ndarray
    b: np.ndarray
    c: np.ndarray
    E: np.ndarray
    A: np.ndarray
    U: np.ndarray
    V: np.ndarray
    U_inv: np.ndarray
    V_inv: np.ndarray
    # coordinates: (m-1) kernel-of-c* directions, the b direction, the scalar input
    E_tilde: np.ndarray
    A_tilde: np.ndarray

    @property
    def pencil(self) -> MatrixPencil:
        return MatrixPencil(self.E, self.A)


def decompose(pencil: MatrixPencil) -> WeierstrassDecomposition:
    """Weierstrass form from the rank profile of pseudo-resolvent powers at one shift.

    At a shift mu in the resolvent set the powers of R(mu) = (mu E - A)^{-1} E
    lose rank up to the nilpotency index and keep rank d1 from there on (the
    Wong sequences); the range of that power is the finite-eigenvalue
    deflating subspace and its kernel the infinite one.  E maps the first and
    A the second onto the codomain pair, so those right bases V1, V2 fix
    T_L = [E V1, A V2]^{-1}.  mu is the best of 16 shifts drawn with a fixed
    seed by LAPACK's 1-norm condition estimate on their LUs, and its LU gives
    R(mu).  ``_gap_rank`` reads every rank from singular values, so no
    eigenvalue is classified (QZ puts those of a degree-k nilpotent block at
    eps^{1/k}), and N's kernel flag must take as many steps, the nilpotency
    index, as the ranks of R(mu)^j take to settle.  One reconstruction check accepts the split:
    ||E_rec - E|| + ||A_rec - A|| <= 1e-8 (||E|| + ||A||).  Every refusal is
    an ``IllConditionedTransform`` naming mu, the d1 found and the quantity
    that failed.  Finding a shift already proves regularity; only when none
    is found is the pencil probed further, and the refusal names the draws.
    """
    scale = spectral_norm(pencil.E) + spectral_norm(pencil.A)
    # min streams the draws and keeps only the best so far with its LU; invertible ones rank first
    mu, cond, lu = min(_invertible_shifts(pencil, 16, 12345, scale), key=lambda s: (s[2] is None, s[1]))
    if lu is None:
        tried = f"16 shifts drawn with seed 12345 from |mu| <= {2 * scale:.6g}, best condition estimate {cond:.3e}"
        if not probe_regularity(pencil):
            raise IrregularPencil(f"pencil is numerically singular for all probed shifts ({tried})")
        raise IllConditionedTransform(f"no drawn shift is numerically invertible ({tried})")
    d1 = None
    try:
        ran, ker, settle, profile = _power_split(scipy.linalg.lu_solve(lu, pencil.E, check_finite=False))
        d1 = ran.shape[1]
        decomp = _decompose_at(pencil, ran, ker)
        if decomp.nilpotency_index != settle:
            raise IllConditionedTransform(
                f"kernel flag of N has {decomp.nilpotency_index} steps, "
                f"but the ranks of R(mu)^j settle at power {settle}"
            )
        rec = reconstruct(decomp)
        residual = spectral_norm(rec.E - pencil.E) + spectral_norm(rec.A - pencil.A)
        bound = 1e-8 * max(scale, 1e-300)
        if residual > bound:
            raise IllConditionedTransform(f"reconstruction residual {residual:.3e} > {bound:.3e}")
    except (IllConditionedTransform, np.linalg.LinAlgError) as exc:
        raise IllConditionedTransform(f"split at shift mu = {mu:.6g} with d1 = {d1}: {exc}") from exc
    return replace(decomp, reconstruction_residual=residual, mu=mu, mu_condition_estimate=cond, rank_profile=profile)


def _gap_rank(sigma: np.ndarray, drop: float) -> int:
    """The one rank rule of ``decompose``: the first i with sigma_i <= 1e-4 sigma_{i-1} and
    sigma_i <= 1e-8 sigma_0, else full rank; 0 when sigma_0 = 0 or ``drop`` (sigma_0 over the
    previous power's) is at most 1e-10."""
    if sigma[0] == 0.0 or drop <= 1e-10:
        return 0
    gaps = np.flatnonzero((sigma[1:] <= 1e-4 * sigma[:-1]) & (sigma[1:] <= 1e-8 * sigma[0]))
    return int(gaps[0]) + 1 if len(gaps) else len(sigma)


def _power_split(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, tuple[int, ...]]:
    """Bases of ran M^k and ker M^k for the first power k whose rank the next power repeats, k, and the ranks.

    Each power is normalised to unit norm by the values-only SVD of the unnormalised product, and
    ``_gap_rank`` reads its rank from the same singular values, with the last step ||X_{j-1} M||
    over ||M|| as the drop; only the returned power takes an SVD with vectors.  The ranks are those
    read for M, M^2, ... up to the repeat.  A rank of 0 returns at once with k the power reached, a
    rank of n with k = 0, each with the identity.
    """
    n = M.shape[0]
    sigma = np.linalg.svd(M, compute_uv=False)
    base = M / max(sigma[0], 1e-300)
    X, step, ranks, last = base, 1.0, [], None
    for j in range(1, n + 1):
        r = _gap_rank(sigma / max(sigma[0], 1e-300), step)
        ranks.append(r)
        if j > 1 and r == ranks[-2]:
            U, _, Vh = np.linalg.svd(last)
            return U[:, :r], Vh[r:, :].conj().T, j - 1, tuple(ranks)
        if r in (0, n):
            return (*np.hsplit(np.eye(n, dtype=complex), [r]), j if r == 0 else 0, tuple(ranks))
        last, X = X, X @ base
        sigma = np.linalg.svd(X, compute_uv=False)
        X, step = X / max(sigma[0], 1e-300), sigma[0]
    raise IllConditionedTransform(f"pseudo-resolvent powers never settle at a rank gap (ranks {ranks})")


def _kernel_flag_basis(N: np.ndarray) -> tuple[np.ndarray, int]:
    """Unitary basis adapted to ker N <= ker N^2 <= ... for nilpotent N, and its number of steps.

    In this basis N is strictly upper triangular up to rounding, because N
    maps ker N^j into ker N^{j-1}.  Unlike a Schur form this costs no
    accuracy: a perturbed nilpotent matrix of degree k has spurious
    eigenvalues of order eps^{1/k}, while ``_gap_rank`` reads its kernel
    flag to working precision from the powers (N/||N||)^j.  The number of
    steps to the whole space is the nilpotency index.
    """
    d = N.shape[0]
    scale = spectral_norm(N)
    if scale <= 1e-10:  # N is rounding noise next to A's identity block: N^1 = 0
        return np.eye(d, dtype=complex), 1
    M, top, basis, ranks = np.eye(d, dtype=complex), 1.0, np.zeros((d, 0), dtype=complex), [d]
    for j in range(1, d + 1):
        M = M @ (N / scale)
        _, sv, Vh = np.linalg.svd(M)
        rank = _gap_rank(sv, sv[0] / top)
        top = sv[0]
        cut = ", ".join(f"sigma_{i} = {sv[i]:.3e}" for i in range(max(rank - 1, 0), min(rank + 1, d)))
        kernel = Vh[rank:, :].conj().T
        U, sigma, _ = np.linalg.svd(kernel - basis @ (basis.conj().T @ kernel), full_matrices=False)
        fresh = U[:, sigma > 0.5]
        if fresh.shape[1] != ranks[-1] - rank:
            raise IllConditionedTransform(
                f"kernel flag of N at step {j}: rank {rank} ({cut}) adds {fresh.shape[1]} kernel "
                f"directions, not {ranks[-1] - rank}; ranks of N^0..N^{j - 1} {ranks}"
            )
        basis = np.hstack([basis, fresh])
        ranks.append(rank)
        if rank == 0:
            return basis, j
    raise IllConditionedTransform(f"N is not nilpotent: rank {rank} at step {d} ({cut}), ranks {ranks}")


def _decompose_at(pencil: MatrixPencil, ran_r: np.ndarray, ker_r: np.ndarray) -> WeierstrassDecomposition:
    """The block form from the right split (ran_r, ker_r) of R(mu)'s settled power.

    T_R = [ran_r, ker_r] fixes T_L = M^{-1}, M = [E T_R1, A T_R2]: E maps the finite right deflating
    subspace, and A the infinite one, onto the matching left subspaces.  N's unitary kernel flag W
    rotates only the infinite blocks, so cond(M) and cond(T_R) are checked before any inverse, and
    T_L^{-1} = [E T_R1, A T_R2 W] gives R from its first block.
    """
    E, A = pencil.E, pencil.A
    d1, d2 = ran_r.shape[1], ker_r.shape[1]
    T_R = np.hstack([ran_r, ker_r])
    M = np.hstack([E @ ran_r, A @ ker_r])
    cond_L, cond_R = np.linalg.cond(M), np.linalg.cond(T_R)
    if not max(cond_L, cond_R) <= _COND_LIMIT:
        cond = f"{max(cond_L, cond_R):.3e} > 1e12 (T_L {cond_L:.3e}, T_R {cond_R:.3e})"
        raise IllConditionedTransform(f"equivalence transformations have condition {cond}")
    T_L = np.linalg.inv(M)
    A1 = T_L[:d1] @ A @ ran_r
    N = T_L[d1:] @ E @ ker_r

    k = 0
    if d2 > 0:
        # rotate the infinite block so N is strictly upper triangular
        W, k = _kernel_flag_basis(N)
        N = np.triu(W.conj().T @ N @ W, 1)
        T_R[:, d1:] = ker_r @ W
        T_L[d1:] = W.conj().T @ T_L[d1:]

    P = ran_r @ np.linalg.inv(T_R)[:d1]
    R = M[:, :d1] @ T_L[:d1]
    return WeierstrassDecomposition(
        T_L=T_L, T_R=T_R, A1=A1, N=N, d1=d1, d2=d2, P=P, R=R, nilpotency_index=k, cond_T_L=cond_L, cond_T_R=cond_R
    )


def reconstruct(decomp: WeierstrassDecomposition) -> MatrixPencil:
    """Map the block form back: (T_L^-1 blkdiag(I,N) T_R^-1, T_L^-1 blkdiag(A1,I) T_R^-1), by blocks."""
    d1, T_L_inv, T_R_inv = decomp.d1, np.linalg.inv(decomp.T_L), np.linalg.inv(decomp.T_R)
    L1, L2, R1, R2 = T_L_inv[:, :d1], T_L_inv[:, d1:], T_R_inv[:d1], T_R_inv[d1:]
    return MatrixPencil(L1 @ R1 + L2 @ decomp.N @ R2, L1 @ decomp.A1 @ R1 + L2 @ R2)


def spectral_projectors(pencil: MatrixPencil, p: int, tol: float = 1e-8):
    """Limit projectors P, R from powers of the scaled pseudo-resolvents.

    P = lim (lambda (lambda E - A)^{-1} E)^{p+1} and
    R = lim (lambda E (lambda E - A)^{-1})^{p+1}, approximated on 12 geometric
    shifts, each factorised once, with one Richardson extrapolation level.
    Raises SingularShift when a shift's LU has a zero pivot, and NoConvergence
    when the extrapolated approximants are not Cauchy.
    """
    E, A = pencil.E, pencil.A
    lam0 = 10.0 * (1.0 + spectral_norm(A) / max(spectral_norm(E), 1e-300))
    Ps, Rs = [], []
    for lam in lam0 * 2.0 ** np.arange(12):
        lu = _lu(pencil.shifted(lam))[0]
        zero = np.flatnonzero(np.diagonal(lu[0]) == 0) + 1  # LAPACK numbers the pivots from 1
        # a zero pivot refuses, not _lu's rule: cond(lambda E - A) grows like lambda^index, and the extrapolation
        # needs shifts past the rule's limit (it refuses the last 4-5 of 12 at index 3, 6 on l2 K=40)
        if zero.size:
            raise SingularShift(f"lambda = {lam:.17g} is outside the resolvent set: pivot {zero[0]} of its LU is 0")
        Ps.append(np.linalg.matrix_power(lam * scipy.linalg.lu_solve(lu, E), p + 1))
        Rs.append(np.linalg.matrix_power(lam * scipy.linalg.lu_solve(lu, E.T, trans=1).T, p + 1))

    def extrapolate(seq):
        # error expands in powers of 1/lambda; ratio-2 Richardson cancels the
        # first two orders
        ex1 = [2.0 * seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        ex = [(4.0 * ex1[i + 1] - ex1[i]) / 3.0 for i in range(len(ex1) - 1)]
        diffs = [spectral_norm(ex[i + 1] - ex[i]) for i in range(len(ex) - 1)]
        # for p >= 1 the shifted solves carry a rounding floor of order
        # eps * lambda^{p+2}, so the smallest successive difference along the
        # sequence is the right acceptance point, not the last one
        best = int(np.argmin(diffs))
        if diffs[best] <= tol:
            return ex[best + 1]
        raise NoConvergence(
            f"projector approximants not Cauchy at tolerance {tol:g} (best diff {diffs[best]:.3e})"
        )

    return extrapolate(Ps), extrapolate(Rs)


def build_zero_dynamics(A0, b, c) -> ZeroDynModel:
    """Assemble the rank-one coupled pencil and its explicit block transformation.

    Requires <b, c> != 0.  The transformed pair is blkdiag(I_{m-1}, N) vs
    blkdiag(Y, I_2) where N is the strictly lower 2x2 nilpotent block and Y
    is the compression of (I - b c*/<c,b>) A0 onto ker c*.
    """
    A0 = as_complex_matrix(A0)
    m = A0.shape[0]
    b = np.asarray(b, dtype=complex).reshape(m)
    c = np.asarray(c, dtype=complex).reshape(m)
    pairing = np.vdot(c, b)  # <c, b> = c* b
    if abs(pairing) < 1e-12 * np.linalg.norm(b) * np.linalg.norm(c):
        raise DegeneratePairing("<c, b> is numerically zero")

    E = np.zeros((m + 1, m + 1), dtype=complex)
    E[:m, :m] = np.eye(m)
    A = np.zeros((m + 1, m + 1), dtype=complex)
    A[:m, :m] = A0
    A[:m, m] = b
    A[m, :m] = c.conj()

    Qb = np.eye(m) - np.outer(b, c.conj()) / pairing
    Ctil = c.conj()[None, :] / pairing          # 1 x m
    Btil = (b / pairing)[:, None]               # m x 1
    K = Ctil @ A0                               # 1 x m

    # orthonormal basis of ker c* = ran Qb
    _, _, vh = np.linalg.svd(c.conj()[None, :])
    W1 = vh[1:, :].conj().T                     # m x (m-1)

    U = np.zeros((m + 1, m + 1), dtype=complex)
    U[: m - 1, :m] = W1.conj().T @ Qb
    U[: m - 1, m] = -(W1.conj().T @ Qb @ A0 @ Btil)[:, 0]
    U[m - 1, m] = 1.0 / pairing                 # b-coefficient of Btil*u
    U[m, :m] = Ctil[0]
    U[m, m] = -(K @ Btil)[0, 0]

    U_inv = np.zeros((m + 1, m + 1), dtype=complex)
    U_inv[:m, : m - 1] = W1
    U_inv[:m, m - 1] = A0 @ b
    U_inv[:m, m] = b
    U_inv[m, m - 1] = pairing                   # c*(y2 b) = y2 <c,b>

    V = np.zeros((m + 1, m + 1), dtype=complex)
    V[:m, : m - 1] = W1
    V[:m, m - 1] = b
    V[m, : m - 1] = -(K @ W1)[0]
    V[m, m] = 1.0

    V_inv = np.zeros((m + 1, m + 1), dtype=complex)
    V_inv[: m - 1, :m] = W1.conj().T @ Qb
    V_inv[m - 1, :m] = Ctil[0]
    V_inv[m, :m] = (K @ Qb)[0]
    V_inv[m, m] = 1.0

    for M, Minv, name in ((U, U_inv, "U"), (V, V_inv, "V")):
        resid, limit = spectral_norm(M @ Minv - np.eye(m + 1)), 1e-12 * max(spectral_norm(M) * spectral_norm(Minv), 1)
        if resid > limit:
            raise IllConditionedTransform(f"{name} inverse residual ||{name} {name}^-1 - I|| {resid:.3e} > {limit:.3e}")

    E_tilde = U @ E @ V
    A_tilde = U @ A @ V
    return ZeroDynModel(
        A0=A0, b=b, c=c, E=E, A=A, U=U, V=V, U_inv=U_inv, V_inv=V_inv,
        E_tilde=E_tilde, A_tilde=A_tilde,
    )
