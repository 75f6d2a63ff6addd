"""Resolvent-growth and radiality index estimation.

The real (complex) resolvent index is the smallest integer p such that
``||(lambda E - A)^{-1}|| <= C |lambda|^{p-1}`` on a real ray (right
half-plane).  We estimate it by fitting the log-log growth of sampled
resolvent norms; the radiality bound is decided by the nilpotency index k of the caller's Weierstrass decomposition
where p + 1 < k, and else probed by sampling right pseudo-resolvent products at real shifts, one explicit inverse per
shift on the finite block of the pencil's Schur form, MatrixPencil.schur, reordered at the decomposition's d1, with
outer factors from its projectors.  The left products follow by similarity with omega S - T, and the norms of both by
Golub-Kahan-Lanczos on a stack of products in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from numbers import Integral

import numpy as np
from scipy.linalg import expm, get_lapack_funcs

from .core import MatrixPencil, _golub_kahan, as_complex_matrix, resolvent_norms, spectral_norm
from .errors import IllConditionedTransform, OverflowRisk, ShiftOutsideResolventSet

__all__ = [
    "GrowthEstimate",
    "RadialityEvidence",
    "estimate_resolvent_index_real",
    "estimate_resolvent_index_complex",
    "verify_radiality",
    "index_relations_check",
    "integrated_semigroup_order",
    "integrated_semigroup_sample",
]

SLOPE_TOLERANCE = 0.25
#: growth factor of the sampled radiality ratio, across a tenfold box
#: enlargement, above which the bound is declared falsified.  A pencil
#: exceeding its radiality order by one power shows a factor near 10, a
#: radial one a factor near 1; 3 is the geometric midpoint.
DIVERGENCE_FACTOR = 3.0


@dataclass(frozen=True)
class GrowthEstimate:
    """Fitted growth exponent of the resolvent norm and the derived index."""

    omega: float
    slope: float
    index: int
    fit_residual: float
    slope_warning: bool
    lanczos_steps: int  # most steps any shift took, see core.resolvent_norms
    svd_fallbacks: int


@dataclass(frozen=True)
class RadialityEvidence:
    """Sampling evidence for/against the order-p radiality bound."""

    p: int
    omega: float
    n_max: int
    num_samples: int
    C: float  # the empirical radiality constant, the largest weighted product norm in the box; inf where p + 1 < k
    max_ratio_wide: float
    verdict: str  # "supported" | "falsified"
    sampled_dimension: int  # d1, the finite Weierstrass block's size, or 0 where nothing was sampled
    lanczos_steps: int  # most steps any product took, over both boxes
    svd_fallbacks: int


def _require_above(**bounds: tuple) -> None:
    """Raise a ValueError naming the first argument, given as name=(low, value[, Integral]), not in (low, inf) or no
    integer (a bool is none) where Integral is given."""
    for name, (low, value, *kind) in bounds.items():
        if kind and (isinstance(value, bool) or not isinstance(value, kind[0])):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not low < value < np.inf:
            raise ValueError(f"{name} must be finite and > {low!r}, got {value!r}")


def _index_from_slope(slope: float) -> tuple[int, bool]:
    index = max(0, round(slope) + 1)
    return index, abs(slope - round(slope)) > SLOPE_TOLERANCE


def _fit_upper_half(log_abs: np.ndarray, log_norm: np.ndarray) -> tuple[float, float]:
    """Least-squares slope over the upper half of the (sorted) grid."""
    order = np.argsort(log_abs)
    la, ln = log_abs[order], log_norm[order]
    half = len(la) // 2
    coeffs, res = np.polyfit(la[half:], ln[half:], 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / (len(la) - half))) if len(res) else 0.0
    return float(coeffs[0]), rms


def _grid_estimate(pencil: MatrixPencil, omega: float, lams, log_growth) -> GrowthEstimate:
    """Resolvent norms on the grid ``lams`` in one evaluator call, and the index from the fitted
    slope of ``log_growth(samples)``, a pair of arrays (log |lambda|, log norm)."""
    samples, steps, fallbacks = resolvent_norms(pencil, lams)
    for s in samples:
        if not s.in_resolvent_set:
            raise ShiftOutsideResolventSet(f"grid point lambda = {s.lam} is numerically singular")
    slope, rms = _fit_upper_half(*log_growth(samples))
    index, warn = _index_from_slope(slope)
    return GrowthEstimate(
        omega=omega, slope=slope, index=index, fit_residual=rms, slope_warning=warn,
        lanczos_steps=steps, svd_fallbacks=fallbacks,
    )


def estimate_resolvent_index_real(
    pencil: MatrixPencil,
    omega: float,
    lambda_max: float,
    num_points: int = 64,
) -> GrowthEstimate:
    """Fit the resolvent-norm growth exponent on a geometric ray (omega, lambda_max]."""
    _require_above(omega=(0.0, omega), lambda_max=(omega, lambda_max), num_points=(7, num_points, Integral))
    lams = np.geomspace(omega, lambda_max, num_points + 1)[1:]
    return _grid_estimate(pencil, omega, lams, lambda ss: (np.log(lams), np.log([s.norm for s in ss])))


def estimate_resolvent_index_complex(
    pencil: MatrixPencil,
    omega: float,
    imag_max: float,
    num_lines: int = 4,
    num_points: int = 64,
) -> GrowthEstimate:
    """Growth exponent of the half-plane supremum of resolvent norms.

    Samples lambda = omega' + i*y on ``num_lines`` vertical lines with
    geometric y-grids, bins the norms by |lambda| within 5% and fits the
    growth of the per-bin supremum.
    """
    _require_above(omega=(0.0, omega), imag_max=(1.0, imag_max),  # the y-grid starts at 1
                   num_lines=(0, num_lines, Integral), num_points=(7, num_points, Integral))
    line_res = [omega * (1.0 + j) for j in range(num_lines)]
    ys = np.geomspace(1.0, imag_max, num_points + 1)[1:]
    log_ratio = np.log(1.05)

    def binned(samples):
        bins: dict[int, float] = {}
        for s in samples:
            b = round(np.log(abs(s.lam)) / log_ratio)
            bins[b] = max(bins.get(b, 0.0), s.norm)
        keys = sorted(bins)
        return np.array([k * log_ratio for k in keys]), np.log([bins[k] for k in keys])

    return _grid_estimate(pencil, omega, [complex(wp, y) for wp in line_res for y in ys], binned)


def _radiality_form(pencil: MatrixPencil, decomp) -> tuple:
    """(S11, T11, B, L, chunk): the finite block to sample, its outer factors and the samples per Lanczos run, about
    4 MB of the whole form's products.  tgsen reorders MatrixPencil.schur with the d1 > 0 eigenvalues of
    MatrixPencil.finite first and accumulates Q and Z, whose first d1 columns Q1 and Z1 span the finite left and right
    deflating subspaces; B B^H = Z1^H P P^H Z1 and L L^H = Q1^H R R^H Q1 come from the decomposition's projectors P
    and R, their real parts on a real form, and both are >= I.  A reorder that fails or moves m != d1 eigenvalues
    raises IllConditionedTransform."""
    (S, T, Q, Z), d1 = pencil.schur, decomp.d1
    (tgsen,) = get_lapack_funcs(("tgsen",), (S, T))
    T2, S2, *_, Q2, Z2, m, _, _, _, info = tgsen(pencil.finite(d1).astype(np.int32), T, S, Q, Z, ijob=0)
    if info or m != d1:
        raise IllConditionedTransform(f"tgsen reordering the Schur form at d1 = {d1}: moved {m}, info {info}")
    P, R = (M if np.iscomplexobj(S) else M.real for M in (decomp.P, decomp.R))
    B, L = (np.linalg.cholesky(F @ F.conj().T) for F in (Z2[:, :d1].conj().T @ P, Q2[:, :d1].conj().T @ R))
    return S2[:d1, :d1], T2[:d1, :d1], B, L, max(1, 2**22 // S.nbytes)


def _shift_inverse(S: np.ndarray, T: np.ndarray, ks: np.ndarray, x: float, trtri) -> np.ndarray:
    """(x S - T)^{-1} for S upper and T quasi-upper triangular with its 2x2 blocks at rows ks, ks + 1:
    one elimination step on the block entries, with getrf's partial pivoting and reciprocal scaling,
    gives x S - T = P L U; LAPACK trtri inverts U, and X = U^{-1} L^{-1} P^T by column operations."""
    M = x * S - T
    if len(ks):  # a complex QZ form has no blocks
        swap = np.abs(M[ks + 1, ks]) > np.abs(M[ks, ks])
        top, bottom = ks + swap, ks + ~swap  # the pivot rows, then the rows they eliminate
        mult, upper = M[bottom, ks] * (1.0 / M[top, ks]), M[top]  # the pivot is at least |T[k + 1, k]| > 0
        M[ks], M[ks + 1] = upper, M[bottom] - mult[:, None] * upper
        M[ks + 1, ks] = 0.0
    if not np.diagonal(M).all():
        raise ShiftOutsideResolventSet(f"radiality shift {x!r} has a zero LU pivot")
    X, info = trtri(M, overwrite_c=True)
    if info or not np.isfinite(X).all():
        raise ShiftOutsideResolventSet(f"inverse at radiality shift {x!r} is not finite (trtri info {info})")
    if len(ks):
        carried = X[:, ks + 1]
        X[:, top], X[:, bottom] = X[:, ks] - carried * mult, carried
    return X


def _max_radiality_ratio(
    S: np.ndarray, T: np.ndarray, B, L, chunk: int, p: int, omega: float, box_radius: float, n_max: int,
    num_samples: int, rng: np.random.Generator,
) -> tuple[float, int, int]:
    # With (S, T, B, L, chunk) = _radiality_form(pencil, decomp), G = (x S - T)^{-1} gives the right factor
    # G S = (I + G T) / x, whose exact I keeps large x and index-3 products accurate.  As T G S = S G T, K = omega S - T
    # has K G S = S G K, so the left product is K R K^{-1} for the right one R.  Lanczos takes the norms of R^n B and
    # K R^n K^{-1} L: those of the pencil's products, as verify_radiality samples only where p + 1 >= k, so that the
    # infinite block's vanish.  A right product F of the reordered form is then F P, and P's range is Z1's, so
    # F = Z [[R^n Z1^H P], [0]] has the norm of R^n B; the left one, by Q1 and R, that of K R^n K^{-1} L.
    def operators(V, m, adjoint):  # V[:, i] by right operator i < m, V[:, m + i] by left operator i, or by the adjoints
        M, V = (stack[:m].transpose(0, 2, 1), V.conj()) if adjoint else (stack[:m], V)  # the stack is never conjugated
        first = (V[:, :m], K.T @ V[:, m:]) if adjoint else (B @ V[:, :m], W @ V[:, m:])
        both = np.matmul(M, np.stack([F.T for F in first], 2))
        right, left = both[..., 0].T, both[..., 1].T  # M[i] B v and M[i] K^{-1} L v, or M[i]^T v and M[i]^T K^T v
        return np.hstack((B.T @ right, W.T @ left)).conj() if adjoint else np.hstack((right, K @ left))
    (trtri,), ks = get_lapack_funcs(("trtri",), (S, T)), np.flatnonzero(np.diagonal(T, -1))
    K, K_inv = omega * S - T, _shift_inverse(S, T, ks, omega, trtri)
    norm = float(np.linalg.norm(K, 1))
    cond, limit = norm * float(np.linalg.norm(K_inv, 1)), 1e12 * min(1.0, norm)
    if not cond < limit:  # core._lu's rule, rcond > 1e-12 max(1, 1/||K||_1), on the exact 1-norm condition
        raise ShiftOutsideResolventSet(f"radiality omega = {omega!r} is outside the resolvent set: omega S - T has "
                                       f"1-norm condition {cond:.3e}, not finite or above {limit:.3e}")
    W = K_inv @ L
    worst, steps, fallbacks = 0.0, 0, 0
    stack, weights = np.empty((chunk, *S.shape), dtype=S.dtype), np.empty(chunk)
    for sample in range(num_samples):
        lams = omega + box_radius * rng.uniform(size=p + 1)
        n, i = int(rng.integers(1, n_max + 1)), sample % chunk
        factors = [_shift_inverse(S, T, ks, x, trtri) @ T for x in lams]
        for G, x in zip(factors, lams):
            G.ravel()[:: len(G) + 1] += 1.0
            G /= x
        stack[i] = np.linalg.matrix_power(reduce(np.matmul, factors), n)
        if not np.isfinite(stack[i]).all():
            raise ShiftOutsideResolventSet(f"radiality product at shifts {lams.tolist()} is not finite")
        weights[i] = float(np.prod(np.abs(lams - omega)) ** n)
        if i + 1 == chunk or sample + 1 == num_samples:  # the norms of R^n B and K R^n W by batched GEMVs
            m = i + 1
            sigma, most, settled = _golub_kahan(
                lambda V: operators(V, m, False), lambda U: operators(U, m, True),
                np.random.default_rng(0).standard_normal(len(S)).astype(S.dtype), 2 * m)
            for j in np.flatnonzero(~settled):  # an SVD, of the operator formed explicitly
                sigma[j] = spectral_norm(K @ stack[j - m] @ W if j >= m else stack[j] @ B)
            worst = max(worst, float(np.max(sigma.reshape(2, -1).max(axis=0) * weights[:m])))
            steps, fallbacks = max(steps, int(most.max())), fallbacks + int(np.count_nonzero(~settled))
    return worst, steps, fallbacks


def verify_radiality(
    pencil: MatrixPencil,
    p: int,
    omega: float,
    box_radius: float,
    decomp,
    n_max: int = 3,
    num_samples: int = 500,
    seed: int = 0,
) -> RadialityEvidence:
    """Monte-Carlo support/falsification of the order-p radiality bound.

    Draws shift tuples from (omega, omega + box_radius) and powers up to n_max, records the largest
    weighted product norm, then repeats at ten times the box radius.  A ratio growth beyond
    DIVERGENCE_FACTOR falsifies the bound; otherwise it is supported with empirical constant C.
    "supported" is evidence, not proof.  decomp is the caller's Weierstrass decomposition (the CLI passes decompose's),
    of which d1, nilpotency_index k and the projectors P and R are read.  In the Weierstrass form a product of p + 1
    factors on the infinite block is a multiple of N^(p + 1), so k decides two cases without a shift, omega unjudged
    and sampled_dimension 0: where p + 1 < k that multiple grows without bound in lambda, and the verdict is
    "falsified" with C = max_ratio_wide = inf; where p + 1 >= k and d1 = 0 every product is 0, and it is "supported"
    with C = 0.  Else the finite block of the Schur form is sampled, d1 x d1, with outer factors from P and R (see
    _radiality_form), so C carries the accuracy of P and R.  The left products come by similarity with omega S - T on
    that block, so an omega at which that fails core._lu's rule raises ShiftOutsideResolventSet."""
    _require_above(p=(-1, p, Integral), n_max=(0, n_max, Integral), num_samples=(0, num_samples, Integral),
                   seed=(-1, seed, Integral), omega=(-np.inf, omega), box_radius=(0.0, box_radius))
    unbounded = p + 1 < decomp.nilpotency_index
    sampled_dimension, runs = 0 if unbounded else decomp.d1, [(np.inf if unbounded else 0.0, 0, 0)] * 2
    if sampled_dimension:
        form, rng = _radiality_form(pencil, decomp), np.random.default_rng(seed)
        runs = [_max_radiality_ratio(*form, p, omega, r, n_max, num_samples, rng)
                for r in (box_radius, 10.0 * box_radius)]
    (ratio, steps, fallbacks), (ratio_wide, steps_wide, fallbacks_wide) = runs  # the box, then ten times it
    return RadialityEvidence(
        p=p, omega=omega, n_max=n_max, num_samples=num_samples, C=ratio, max_ratio_wide=ratio_wide,
        verdict="falsified" if unbounded or ratio_wide > DIVERGENCE_FACTOR * ratio else "supported",
        sampled_dimension=sampled_dimension, lanczos_steps=max(steps, steps_wide),
        svd_fallbacks=fallbacks + fallbacks_wide,
    )


def index_relations_check(decomp, real_estimate: GrowthEstimate, radiality: RadialityEvidence) -> dict:
    """Report how the nilpotency, resolvent and radiality orders relate.

    Expected chain (when the ODE block generates a C0-semigroup): p_rad + 1 = p_res = p_nilp; also p_nilp <= p_rad + 1
    one-sidedly, which holds by construction wherever the verdict is "supported", as verify_radiality reads "falsified"
    where p + 1 < p_nilp.  Mismatches are findings, never errors; the index-0 ODE case violates the chain by
    construction (p_rad = -1 would be required).
    """
    p_nilp = decomp.nilpotency_index
    p_res = real_estimate.index
    p_rad = radiality.p if radiality.verdict == "supported" else None
    return {
        "p_nilp": p_nilp,
        "p_res": p_res,
        "p_rad": p_rad,
        "chain_holds": p_rad is not None and p_rad + 1 == p_res == p_nilp,
        "nilp_le_rad_plus_1": p_rad is not None and p_nilp <= p_rad + 1,
        "res_eq_nilp": p_res == p_nilp,
    }


def integrated_semigroup_order(p_c_res: int) -> int:
    """Order of the integrated semigroup generated by the ODE block."""
    return p_c_res + 2


def integrated_semigroup_sample(A1: np.ndarray, n: int, t: float, x: np.ndarray) -> np.ndarray:
    """The (n-1)-times integrated semigroup of A1: S(t)x = t^k phi_k(t A1) x, k = n - 1, and exp(t A1) x at n = 1.
    It is the last column of the top-right block of exp(t W), W = [[A1, x e_1^T], [0, J_k]] with J_k the k x k
    upper shift (Van Loan, IEEE Trans. Automat. Control 23, 1978): no inverse of A1, so A1 may be singular."""
    A1 = as_complex_matrix(A1)
    m = len(A1)
    if A1.shape != (m, m) or isinstance(n, bool) or not isinstance(n, Integral) or n < 1 or not np.isfinite(t):
        raise ValueError(f"need a square A1, an integer n >= 1 and a finite t, got {A1.shape}, {n!r} and {t!r}")
    x = as_complex_matrix(np.reshape(x, (m, 1)))
    scale = np.linalg.norm(x) or 1.0  # S(t)x is linear in x; a unit x keeps W's norm that of A1 and J_k
    W = np.zeros((m + n - 1, m + n - 1), dtype=complex)
    W[:m, :m], W[:m, m:m + 1], W[m:, m:] = A1, x / scale, np.eye(n - 1, k=1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, as solver.matrix_exponential does
        X = expm(t * W)
        Sx = X[:m, :m] @ x[:, 0] if n == 1 else scale * X[:m, -1]
    if not np.isfinite(Sx).all():
        raise OverflowRisk(f"S(t)x at t = {t!r} overflowed double precision")
    return Sx
