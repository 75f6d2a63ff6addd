"""Resolvent-growth and radiality index estimation.

The real (complex) resolvent index is the smallest integer p such that
``||(lambda E - A)^{-1}|| <= C |lambda|^{p-1}`` on a real ray (right
half-plane).  We estimate it by fitting the log-log growth of sampled
resolvent norms; the radiality bound is probed by sampling pseudo-resolvent
products at real shifts, one LU per shift of the QZ form in the pencil's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import lu_factor, lu_solve, qz

from .core import MatrixPencil, ResolventSample, resolvent_apply, resolvent_norm, spectral_norm
from .errors import ShiftOutsideResolventSet
from .solver import QuadratureConfig, bromwich_integral

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
    samples: tuple[ResolventSample, ...]
    fit_residual: float
    slope_warning: bool

    def as_dict(self) -> dict:
        return {
            "omega": self.omega,
            "slope": self.slope,
            "index": self.index,
            "fit_residual": self.fit_residual,
            "slope_warning": self.slope_warning,
        }


@dataclass(frozen=True)
class RadialityEvidence:
    """Sampling evidence for/against the order-p radiality bound."""

    p: int
    omega: float
    n_max: int
    num_samples: int
    max_ratio: float
    max_ratio_wide: float
    verdict: str  # "supported" | "falsified"

    @property
    def empirical_constant(self) -> float:
        return self.max_ratio

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "omega": self.omega,
            "n_max": self.n_max,
            "num_samples": self.num_samples,
            "C": self.max_ratio,
            "max_ratio_wide": self.max_ratio_wide,
            "verdict": self.verdict,
        }


def _index_from_slope(slope: float) -> tuple[int, bool]:
    index = max(0, round(slope) + 1)
    return index, abs(slope - round(slope)) > SLOPE_TOLERANCE


def _sample_norms(pencil: MatrixPencil, lams) -> list[ResolventSample]:
    out = []
    for lam in lams:
        s = resolvent_norm(pencil, complex(lam))
        if not s.in_resolvent_set:
            raise ShiftOutsideResolventSet(f"grid point lambda = {lam} is numerically singular")
        out.append(s)
    return out


def _fit_upper_half(log_abs: np.ndarray, log_norm: np.ndarray) -> tuple[float, float]:
    """Least-squares slope over the upper half of the (sorted) grid."""
    order = np.argsort(log_abs)
    la, ln = log_abs[order], log_norm[order]
    half = len(la) // 2
    coeffs, res = np.polyfit(la[half:], ln[half:], 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / (len(la) - half))) if len(res) else 0.0
    return float(coeffs[0]), rms


def estimate_resolvent_index_real(
    pencil: MatrixPencil,
    omega: float,
    lambda_max: float,
    num_points: int = 64,
) -> GrowthEstimate:
    """Fit the resolvent-norm growth exponent on a geometric ray (omega, lambda_max]."""
    if num_points < 8:
        raise ValueError("num_points must be at least 8")
    lams = np.geomspace(omega, lambda_max, num_points + 1)[1:]
    samples = _sample_norms(pencil, lams)
    slope, rms = _fit_upper_half(
        np.log(lams), np.log([s.norm for s in samples])
    )
    index, warn = _index_from_slope(slope)
    return GrowthEstimate(
        omega=omega, slope=slope, index=index,
        samples=tuple(samples), fit_residual=rms, slope_warning=warn,
    )


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
    if num_points < 8:
        raise ValueError("num_points must be at least 8")
    line_res = [omega * (1.0 + j) for j in range(num_lines)]
    ys = np.geomspace(1.0, imag_max, num_points + 1)[1:]
    bins: dict[int, float] = {}
    all_samples: list[ResolventSample] = []
    log_ratio = np.log(1.05)
    for wp in line_res:
        for y in ys:
            lam = complex(wp, y)
            s = resolvent_norm(pencil, lam)
            if not s.in_resolvent_set:
                raise ShiftOutsideResolventSet(f"half-plane point lambda = {lam} is singular")
            all_samples.append(s)
            b = round(np.log(abs(lam)) / log_ratio)
            bins[b] = max(bins.get(b, 0.0), s.norm)
    keys = sorted(bins)
    log_abs = np.array([k * log_ratio for k in keys])
    log_norm = np.log([bins[k] for k in keys])
    slope, rms = _fit_upper_half(log_abs, log_norm)
    index, warn = _index_from_slope(slope)
    return GrowthEstimate(
        omega=omega, slope=slope, index=index,
        samples=tuple(all_samples), fit_residual=rms, slope_warning=warn,
    )


def _max_radiality_ratio(
    pencil: MatrixPencil,
    p: int,
    omega: float,
    box_radius: float,
    n_max: int,
    num_samples: int,
    rng: np.random.Generator,
) -> float:
    # In the QZ form E = Q S Z*, A = Q T Z* of the pencil's dtype (real, T quasi-triangular, unless E
    # or A is complex), one LU of x S - T per shift x gives (I + (x S - T)^{-1} T) / x = (x S - T)^{-1} S
    # and S (x S - T)^{-1}: the exact I keeps large x accurate, and unlike x E - A, index-3 products too.
    if pencil.E.imag.any() or pencil.A.imag.any():
        S, T = pencil.qz[:2]
    else:
        T, S = qz(pencil.A.real, pencil.E.real, output="real")[:2]
    eye, worst = np.eye(pencil.n), 0.0
    for _ in range(num_samples):
        lams = omega + box_radius * rng.uniform(size=p + 1)
        n = int(rng.integers(1, n_max + 1))
        lus = [lu_factor(x * S - T, check_finite=False) for x in lams]
        if not all(np.diagonal(lu).all() for lu, _ in lus):
            raise ShiftOutsideResolventSet(f"a radiality shift in {lams.tolist()} has a zero LU pivot")
        right = reduce(np.matmul, [(eye + lu_solve(lu, T)) / x for lu, x in zip(lus, lams)])
        left = reduce(np.matmul, [(eye + lu_solve(lu, T.T, trans=1).T) / x for lu, x in zip(lus, lams)])
        powers = [np.linalg.matrix_power(M, n) for M in (right, left)]
        if not all(np.isfinite(M).all() for M in powers):
            raise ShiftOutsideResolventSet(f"radiality product at shifts {lams.tolist()} is not finite")
        weight = float(np.prod(np.abs(lams - omega)) ** n)
        worst = max(worst, max(map(spectral_norm, powers)) * weight)
    return worst


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
    the bound; otherwise it is supported with empirical constant max_ratio.
    "supported" is evidence, not proof.
    """
    rng = np.random.default_rng(seed)
    ratio = _max_radiality_ratio(pencil, p, omega, box_radius, n_max, num_samples, rng)
    ratio_wide = _max_radiality_ratio(
        pencil, p, omega, 10.0 * box_radius, n_max, num_samples, rng
    )
    falsified = ratio_wide > DIVERGENCE_FACTOR * ratio
    return RadialityEvidence(
        p=p, omega=omega, n_max=n_max, num_samples=num_samples,
        max_ratio=ratio, max_ratio_wide=ratio_wide,
        verdict="falsified" if falsified else "supported",
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
    report = {
        "p_nilp": p_nilp,
        "p_res": p_res,
        "p_rad": p_rad,
        "chain_holds": p_rad is not None and p_rad + 1 == p_res == p_nilp,
        "nilp_le_rad_plus_1": p_rad is not None and p_nilp <= p_rad + 1,
        "res_eq_nilp": p_res == p_nilp,
    }
    return report


def integrated_semigroup_order(p_c_res: int) -> int:
    """Order of the integrated semigroup generated by the ODE block."""
    return p_c_res + 2


def integrated_semigroup_sample(
    A1: np.ndarray,
    n: int,
    t: float,
    x: np.ndarray,
    quad: QuadratureConfig | None = None,
    omega: float | None = None,
) -> np.ndarray:
    """Evaluate the (n-1)-times integrated semigroup S(t)x of A1.

    Inverts the Laplace transform lambda^{-(n-1)} (lambda I - A1)^{-1} x
    along a vertical line right of the spectrum.  The integrand's decay is
    boosted by splitting off the leading terms of the Neumann expansion,
    whose inverse transforms are monomials in t.
    """
    A1 = np.asarray(A1, dtype=complex)
    x = np.asarray(x, dtype=complex).reshape(A1.shape[0])
    if n < 1:
        raise ValueError("n must be a positive integer")
    if quad is None:
        quad = QuadratureConfig()
    if omega is None:
        omega = max(float(np.max(np.linalg.eigvals(A1).real)), 0.0) + 1.0

    # (lam - A)^{-1} = sum_{j<J} A^j lam^{-j-1} + lam^{-J} A^J (lam - A)^{-1};
    # inverse transform of lam^{-m} is t^{m-1}/(m-1)!.
    J = max(0, 4 - n)
    result = np.zeros_like(x)
    Ajx = x.copy()
    from math import factorial

    for j in range(J):
        m = n + j
        result = result + (t ** (m - 1) / factorial(m - 1)) * Ajx
        Ajx = A1 @ Ajx
    pencil = MatrixPencil(np.eye(A1.shape[0]), A1)

    def integrand(lams: np.ndarray) -> np.ndarray:
        return (lams ** (-(n - 1) - J))[:, None] * resolvent_apply(pencil, lams, Ajx)

    tail = bromwich_integral(integrand, omega, np.array([t]), quad)[0][0]
    return result + tail
