"""Resolvent-growth and radiality index estimation.

The real (complex) resolvent index is the smallest integer p such that
``||(lambda E - A)^{-1}|| <= C |lambda|^{p-1}`` on a real ray (right
half-plane).  We estimate it by fitting the log-log growth of sampled
resolvent norms; the radiality bound is probed by sampling pseudo-resolvent
products at real shifts, one explicit inverse per shift of the QZ form in the
pencil's dtype, and their norms by Golub-Kahan-Lanczos on a stack of products in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from numbers import Integral

import numpy as np
from scipy.linalg import expm, get_lapack_funcs, qz

from .core import MatrixPencil, _golub_kahan, as_complex_matrix, resolvent_norms, spectral_norm
from .errors import OverflowRisk, ShiftOutsideResolventSet

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
    C: float  # the empirical radiality constant: the largest weighted product norm in the box
    max_ratio_wide: float
    verdict: str  # "supported" | "falsified"
    lanczos_steps: int  # most steps any product took, over both boxes
    svd_fallbacks: int


def _require_above(**bounds: tuple[float, float]) -> None:
    """Raise a ValueError naming the first argument, given as name=(low, value), not in (low, inf)."""
    for name, (low, value) in bounds.items():
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
    _require_above(omega=(0.0, omega), lambda_max=(omega, lambda_max), num_points=(7, num_points))
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
                   num_lines=(0, num_lines), num_points=(7, num_points))
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


def _radiality_form(pencil: MatrixPencil) -> tuple[np.ndarray, np.ndarray]:
    """(S, T) of E = Q S Z*, A = Q T Z*: a real QZ (T quasi-triangular) unless E or A is complex."""
    if pencil.E.imag.any() or pencil.A.imag.any():
        return pencil.qz[:2]
    T, S = qz(pencil.A.real, pencil.E.real, output="real")[:2]
    return S, T


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
    S: np.ndarray, T: np.ndarray, p: int, omega: float, box_radius: float, n_max: int,
    num_samples: int, rng: np.random.Generator,
) -> tuple[float, int, int]:
    # With (S, T) = _radiality_form(pencil), the inverse X = (x S - T)^{-1} at each shift x gives
    # (I + X T) / x = (x S - T)^{-1} S and (I + T X) / x = S (x S - T)^{-1} by matrix products, the I and
    # the 1/x applied in place: the exact I keeps large x accurate, and unlike x E - A, index-3 products too.
    (trtri,), ks = get_lapack_funcs(("trtri",), (S, T)), np.flatnonzero(np.diagonal(T, -1))
    worst, steps, fallbacks = 0.0, 0, 0
    chunk = max(1, 2**22 // S.nbytes)  # samples whose 2 products fill a stack of at most about 8 MB
    stack, weights = np.empty((2 * chunk, *S.shape), dtype=S.dtype), np.empty(chunk)
    for sample in range(num_samples):
        lams = omega + box_radius * rng.uniform(size=p + 1)
        n = int(rng.integers(1, n_max + 1))
        factors = [(X @ T, T @ X) for X in (_shift_inverse(S, T, ks, x, trtri) for x in lams)]
        for pair, x in zip(factors, lams):
            for G in pair:
                G.ravel()[:: len(S) + 1] += 1.0
                G /= x
        right, left = (reduce(np.matmul, products) for products in zip(*factors))
        i = sample % chunk
        stack[2 * i], stack[2 * i + 1] = (np.linalg.matrix_power(M, n) for M in (right, left))
        if not np.isfinite(stack[2 * i : 2 * i + 2]).all():
            raise ShiftOutsideResolventSet(f"radiality product at shifts {lams.tolist()} is not finite")
        weights[i] = float(np.prod(np.abs(lams - omega)) ** n)
        if i + 1 == chunk or sample + 1 == num_samples:  # the stack's norms by batched GEMVs
            M = stack[: 2 * i + 2]
            sigma, most, settled = _golub_kahan(
                lambda V: np.matmul(M, V.T[:, :, None])[..., 0].T,
                lambda U: np.matmul(M.transpose(0, 2, 1), U.T.conj()[:, :, None])[..., 0].T.conj(),  # M^H U
                np.random.default_rng(0).standard_normal(len(S)).astype(S.dtype), len(M))
            sigma[~settled] = [spectral_norm(X) for X in M[~settled]]
            worst = max(worst, float(np.max(sigma.reshape(-1, 2).max(axis=1) * weights[: i + 1])))
            steps, fallbacks = max(steps, int(most.max())), fallbacks + int(np.count_nonzero(~settled))
    return worst, steps, fallbacks


def verify_radiality(
    pencil: MatrixPencil,
    p: int,
    omega: float,
    box_radius: float,
    n_max: int = 3,
    num_samples: int = 500,
    seed: int = 0,
) -> RadialityEvidence:
    """Monte-Carlo support/falsification of the order-p radiality bound.

    Draws shift tuples from (omega, omega + box_radius) and powers up to
    n_max, records the largest weighted product norm, then repeats at ten
    times the box radius.  A ratio growth beyond DIVERGENCE_FACTOR falsifies
    the bound; otherwise it is supported with empirical constant C.
    "supported" is evidence, not proof.

    The verdict is about the pencil as stored.  Rounding E and A moves the
    infinite eigenvalues of an index-3 block to |lambda| of order eps^(-1/3),
    so at the CLI's default box (1e3, and 1e4 for the wide box) a double-
    precision index-3 pencil no longer behaves as index 3: p = 2 is
    "falsified" on 4 of 6 random stable ones, as a 60-digit evaluation of
    the stored pencils confirms.
    """
    _require_above(p=(-1, p), n_max=(0, n_max), num_samples=(0, num_samples),
                   omega=(-np.inf, omega), box_radius=(0.0, box_radius))
    rng, (S, T) = np.random.default_rng(seed), _radiality_form(pencil)
    (ratio, steps, fallbacks), (ratio_wide, steps_wide, fallbacks_wide) = (  # the box, then ten times it
        _max_radiality_ratio(S, T, p, omega, r, n_max, num_samples, rng) for r in (box_radius, 10.0 * box_radius))
    return RadialityEvidence(
        p=p, omega=omega, n_max=n_max, num_samples=num_samples, C=ratio, max_ratio_wide=ratio_wide,
        verdict="falsified" if ratio_wide > DIVERGENCE_FACTOR * ratio else "supported",
        lanczos_steps=max(steps, steps_wide), svd_fallbacks=fallbacks + fallbacks_wide,
    )


def index_relations_check(decomp, real_estimate: GrowthEstimate, radiality: RadialityEvidence) -> dict:
    """Report how the nilpotency, resolvent and radiality orders relate.

    Expected chain (when the ODE block generates a C0-semigroup):
    p_rad + 1 = p_res = p_nilp; also p_nilp <= p_rad + 1 one-sidedly.
    Mismatches are findings, never errors; the index-0 ODE case violates
    the chain by construction (p_rad = -1 would be required).
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
