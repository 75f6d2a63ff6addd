"""Port-Hamiltonian pencils d/dt Ex = AQx: structure checks and energy.

A triple (E, A, Q) is port-Hamiltonian when Q is invertible, E*Q = Q*E is
positive semidefinite and A is dissipative.  This module verifies those
properties numerically, builds the auxiliary operators T (with BTB = B for
B = EQ^{-1}) and S (with ESE* = EQ^{-1}), evaluates the Hamiltonian
H(x) = Re<Ex, Qx>, traces its dissipation along trajectories, and checks
the resolvent-index bounds and semigroup subspace conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import MatrixPencil, as_complex_matrix, probe_regularity, spectral_norm
from .errors import NoSpectralGap, SingularQ
from .indices import GrowthEstimate, estimate_resolvent_index_complex, estimate_resolvent_index_real
from .solver import Trajectory
from .weierstrass import WeierstrassDecomposition, decompose

__all__ = [
    "PhPencil",
    "PhReport",
    "DissipationTrace",
    "verify_ph_structure",
    "normalize",
    "make_T",
    "make_S",
    "hamiltonian",
    "dissipation_trace",
    "ph_index_bound_check",
    "semigroup_condition_check",
    "random_ph_pencil",
]

#: relative tolerances for the structural checks (symmetry of E*Q,
#: positivity of its Hermitian part, dissipativity of A)
TAU_SYM = 1e-10
TAU_PSD = 1e-10
TAU_DIS = 1e-10
#: largest acceptable condition number for Q
Q_COND_MAX = 1e12
#: required ratio between retained and discarded eigen- or singular values in make_T and make_S
SPECTRAL_GAP = 1e3
#: relative rank threshold for subspace comparisons
RANK_TOL = 1e-10


@dataclass(frozen=True)
class PhPencil:
    """Candidate port-Hamiltonian triple (E, A, Q), all n x n."""

    E: np.ndarray
    A: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        E, A, Q = mats = [as_complex_matrix(M) for M in (self.E, self.A, self.Q)]
        if not (E.shape == A.shape == Q.shape) or E.shape[0] != E.shape[1]:
            raise ValueError(f"E, A, Q must be square with equal shape, got {E.shape}, {A.shape}, {Q.shape}")
        for name, M in zip("EAQ", mats):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @cached_property
    def pencil(self) -> MatrixPencil:
        """The dynamics pencil lambda*E - A@Q, formed once, so its cached QZ is shared."""
        return MatrixPencil(self.E, self.A @ self.Q)


@dataclass(frozen=True)
class DissipationTrace:
    """Hamiltonian samples along a trajectory with monotonicity diagnostics."""

    H: np.ndarray
    max_increase: float
    identity_gap: float  # max |dH/dt - 2 Re<Qx, AQx>| at interval midpoints


@dataclass(frozen=True)
class PhReport:
    """Structural residuals, auxiliary operators and index estimates."""

    symmetry_residual: float
    psd_min_eig: float
    dissipativity_max_eig: float
    q_condition: float
    e_rank: int
    symmetry_ok: bool
    psd_ok: bool
    dissipativity_ok: bool
    q_ok: bool
    structure_ok: bool
    T: np.ndarray | None
    c_T: float | None
    S: np.ndarray | None
    c_S: float | None
    real_index: GrowthEstimate | None
    complex_index: GrowthEstimate | None
    subspace_conditions: tuple[bool, bool] | None
    failures: tuple[str, ...]


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().T)


def _numerical_rank(sigma: np.ndarray) -> int:
    if len(sigma) == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))


def _gap_keep(values: np.ndarray, scale: float, split: str) -> np.ndarray:
    """Mask of the values above RANK_TOL * scale.  Raises NoSpectralGap when some are kept and some
    cut, and the smallest kept is below SPECTRAL_GAP times the largest cut, if that one is positive."""
    keep = values > RANK_TOL * scale
    if np.any(keep) and np.any(~keep):
        kept, cut = float(np.min(values[keep])), float(np.max(values[~keep]))
        if cut > 0.0 and kept < SPECTRAL_GAP * cut:
            gap = f" is below the required gap factor {SPECTRAL_GAP:.0e}"
            raise NoSpectralGap(split.format(kept, cut) + gap)
    return keep


def normalize(ph: PhPencil) -> MatrixPencil:
    """Absorb Q into the state: the pencil (E Q^{-1}, A) of z = Qx."""
    sq = np.linalg.svd(ph.Q, compute_uv=False)
    if sq[-1] == 0.0 or sq[0] / sq[-1] > Q_COND_MAX:
        raise SingularQ(f"cond(Q) = {sq[0] / max(sq[-1], 1e-300):.3e} exceeds {Q_COND_MAX:.0e}")
    return MatrixPencil(ph.E @ np.linalg.inv(ph.Q), ph.A)


def make_T(B: np.ndarray) -> tuple[np.ndarray, float]:
    """Positive-definite T with BTB = B for Hermitian PSD B.

    T inverts B on its range and acts as the identity on its kernel;
    the returned c = min(1, 1/lambda_max(B)) satisfies T >= c*I.  The
    range/kernel split must be unambiguous: the smallest retained
    eigenvalue has to exceed SPECTRAL_GAP times the largest discarded one.
    """
    B = as_complex_matrix(B)
    herm_resid = spectral_norm(B - B.conj().T)
    scale = max(spectral_norm(B), 1e-300)
    if herm_resid > 1e-10 * scale:
        raise ValueError(f"B is not Hermitian (residual {herm_resid:.3e})")
    lam, U = np.linalg.eigh(_hermitian_part(B))
    if lam[0] < -1e-10 * scale:
        raise ValueError(f"B is not positive semidefinite (min eigenvalue {lam[0]:.3e})")
    lam = np.maximum(lam, 0.0)
    keep = _gap_keep(lam, scale, "eigenvalue split {:.3e} vs {:.3e}")
    diag = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 1.0)
    T = (U * diag) @ U.conj().T
    c = min(1.0, 1.0 / float(lam[-1])) if np.any(keep) else 1.0
    btb_resid = spectral_norm(B @ T @ B - B)
    if btb_resid > 1e-10 * scale:
        raise ArithmeticError(f"BTB = B failed with residual {btb_resid:.3e}")
    return T, c


def make_S(ph: PhPencil) -> tuple[np.ndarray, float]:
    """Positive-definite S with E S E* = E Q^{-1}.

    Built in the singular basis of E: with E = U diag(Sigma_r, 0) V* and
    B = E Q^{-1}, the range block is Sigma_r^{-1} (U_1* B U_1) Sigma_r^{-1}
    and S acts as the identity on the cokernel of E.
    """
    B = normalize(ph).E  # E Q^{-1}, Hermitian PSD for a pH triple
    U, sigma, Vh = np.linalg.svd(ph.E)
    keep = _gap_keep(sigma, np.max(sigma, initial=0.0), "singular-value split {:.3e} vs {:.3e} of E")
    r = int(np.count_nonzero(keep))
    B_hat = U.conj().T @ B @ U
    inv_sig = 1.0 / sigma[:r]
    core = _hermitian_part((inv_sig[:, None] * B_hat[:r, :r]) * inv_sig[None, :])
    n = ph.n
    blocks = np.eye(n, dtype=complex)
    blocks[:r, :r] = core
    V = Vh.conj().T
    S = V @ blocks @ V.conj().T
    c = min(1.0, float(np.min(np.linalg.eigvalsh(core)))) if r else 1.0
    resid = spectral_norm(ph.E @ S @ ph.E.conj().T - B)
    if resid > 1e-8 * max(spectral_norm(B), 1.0):
        raise ArithmeticError(f"E S E* = E Q^{{-1}} failed with residual {resid:.3e}")
    return S, c


def hamiltonian(ph: PhPencil, x: np.ndarray) -> float:
    """H(x) = Re<Ex, Qx>; real and nonnegative for a pH triple."""
    x = np.asarray(x, dtype=complex).reshape(ph.n)
    val = np.vdot(ph.E @ x, ph.Q @ x)
    H = float(val.real)
    if abs(val.imag) > 1e-10 * (1.0 + abs(H)):
        raise ValueError(f"Hamiltonian has imaginary part {val.imag:.3e}; E*Q is not Hermitian")
    nx2 = float(np.vdot(x, x).real)
    if H < -1e-10 * nx2:
        raise ValueError(f"Hamiltonian {H:.3e} is negative; E*Q is not positive semidefinite")
    return H


def dissipation_trace(ph: PhPencil, traj: Trajectory) -> DissipationTrace:
    """Hamiltonian along a trajectory, its largest discrete increase, and
    the midpoint deviation from dH/dt = 2 Re<Qx, AQx>."""
    H = np.array([hamiltonian(ph, x) for x in traj.states])
    diffs = np.diff(H)
    max_increase = float(np.max(diffs)) if len(diffs) else 0.0
    gap = 0.0
    AQ = ph.A @ ph.Q
    for j in range(len(diffs)):
        dt = traj.times[j + 1] - traj.times[j]
        xm = 0.5 * (traj.states[j] + traj.states[j + 1])
        rate = 2.0 * float(np.vdot(ph.Q @ xm, AQ @ xm).real)
        gap = max(gap, abs(diffs[j] / dt - rate))
    return DissipationTrace(H=H, max_increase=max_increase, identity_gap=gap)


def _default_omega(pencil: MatrixPencil, d1: int) -> float:
    beta, alpha = (np.diag(M)[pencil.finite(d1)] for M in pencil.qz[:2])
    return float(np.max((alpha / beta).real, initial=0.0)) + 1.0


def _index_estimates(pencil: MatrixPencil, omega: float) -> tuple[GrowthEstimate, GrowthEstimate]:
    """(real, complex) resolvent-index estimates of ``pencil`` on (omega, 1e3 * omega]."""
    return (
        estimate_resolvent_index_real(pencil, omega, omega * 1e3),
        estimate_resolvent_index_complex(pencil, omega, omega * 1e3),
    )


def ph_index_bound_check(ph: PhPencil) -> tuple[bool, bool]:
    """(real index <= 2, complex index <= 3) for the pencil (E, AQ) at the default omega."""
    pencil = ph.pencil
    real, cplx = _index_estimates(pencil, _default_omega(pencil, decompose(pencil).d1))
    return real.index <= 2, cplx.index <= 3


def _same_column_space(M: np.ndarray, basis: np.ndarray) -> bool:
    """Whether the columns of M, orthonormalised by QR with no rank decision, span ran ``basis``."""
    stacked = np.hstack([np.linalg.qr(M)[0], basis])
    return _numerical_rank(np.linalg.svd(stacked, compute_uv=False)) == basis.shape[1]


def semigroup_condition_check(
    ph: PhPencil, decomp: WeierstrassDecomposition
) -> tuple[bool, bool]:
    """Subspace alignment tests for the two semigroup-generation conditions.

    From the decomposition of (E, AQ), X1 = ran P is spanned by T_R[:, :d1]
    and Z1 = ran R by E X1, the first d1 columns of T_L^{-1}; every basis is
    orthonormalised by QR.  First flag is Q*(Z1) = X1, second is Q(X1) = Z1.
    """
    X1 = np.linalg.qr(decomp.T_R[:, : decomp.d1])[0]
    Z1 = np.linalg.qr(ph.E @ X1)[0]
    return _same_column_space(ph.Q.conj().T @ Z1, X1), _same_column_space(ph.Q @ X1, Z1)


def verify_ph_structure(
    ph: PhPencil,
    omega: float | None = None,
    decomp: WeierstrassDecomposition | None = None,
    estimates: tuple[GrowthEstimate, GrowthEstimate] | None = None,
) -> PhReport:
    """Full structural audit: residuals, T and S, index estimates, subspaces.

    ``decomp`` and the (real, complex) ``estimates`` of (E, AQ) are computed
    here unless given, the estimates on (omega, 1e3 * omega].  Failures never
    raise; a quantity that cannot be computed is None, with a failure message.
    """
    # the raw numbers behind the pass/fail flags; ||E|| ||Q|| from the singular values of E and Q
    EsQ = ph.E.conj().T @ ph.Q
    sym = spectral_norm(EsQ - EsQ.conj().T)
    psd_min = float(np.min(np.linalg.eigvalsh(_hermitian_part(EsQ)))) if ph.n else 0.0
    dis_max = float(np.max(np.linalg.eigvalsh(_hermitian_part(ph.A)))) if ph.n else 0.0
    sq = np.linalg.svd(ph.Q, compute_uv=False)
    cond_q = float(sq[0] / sq[-1]) if sq[-1] > 0.0 else np.inf
    se = np.linalg.svd(ph.E, compute_uv=False)
    scale_eq = max(float(se[0] * sq[0]), 1e-300)
    scale_a = max(spectral_norm(ph.A), 1e-300)
    symmetry_ok = sym <= TAU_SYM * scale_eq
    psd_ok = psd_min >= -TAU_PSD * scale_eq
    dissipativity_ok = dis_max <= TAU_DIS * scale_a
    q_ok = cond_q <= Q_COND_MAX
    structure_ok = symmetry_ok and psd_ok and dissipativity_ok and q_ok

    failures: list[str] = []
    T = c_T = S = c_S = None
    real_index, complex_index = estimates or (None, None)
    subspace = None
    if q_ok:
        try:
            T, c_T = make_T(normalize(ph).E)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            failures.append(f"make_T: {exc}")
        try:
            S, c_S = make_S(ph)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"make_S: {exc}")
    else:
        failures.append(f"Q condition number {cond_q:.3e} exceeds {Q_COND_MAX:.0e}")
    try:
        decomp = decomp if decomp is not None else decompose(ph.pencil)
        subspace = semigroup_condition_check(ph, decomp)
    except Exception as exc:  # noqa: BLE001
        failures.append(f"subspace conditions: {exc}")
    if estimates is None and omega is None and decomp is None:
        failures.append("index estimation: the default omega needs the decomposition")
    elif estimates is None:
        try:
            pencil = ph.pencil
            w = _default_omega(pencil, decomp.d1) if omega is None else omega
            real_index, complex_index = _index_estimates(pencil, w)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"index estimation: {exc}")

    return PhReport(
        symmetry_residual=sym, psd_min_eig=psd_min, dissipativity_max_eig=dis_max, q_condition=cond_q,
        e_rank=_numerical_rank(se), symmetry_ok=symmetry_ok, psd_ok=psd_ok, dissipativity_ok=dissipativity_ok,
        q_ok=q_ok, structure_ok=structure_ok, T=T, c_T=c_T, S=S, c_S=c_S, real_index=real_index,
        complex_index=complex_index, subspace_conditions=subspace, failures=tuple(failures),
    )


def random_ph_pencil(
    n: int, seed: int = 0, rank_deficiency: int = 2, max_tries: int = 32
) -> PhPencil:
    """Seeded random port-Hamiltonian triple with a genuinely singular E.

    Draws a Hermitian PSD G of rank n - rank_deficiency, an invertible Q,
    and sets E = Q^{-*} G so that E*Q = G.  A = W - V V* with W
    skew-Hermitian is dissipative by construction.  Resamples until the
    dynamics pencil (E, AQ) is regular.
    """
    if not 0 <= rank_deficiency < n:
        raise ValueError("rank_deficiency must lie in [0, n)")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        X = rng.standard_normal((n, n - rank_deficiency)) + 1j * rng.standard_normal(
            (n, n - rank_deficiency)
        )
        G = X @ X.conj().T
        Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sq = np.linalg.svd(Q, compute_uv=False)
        if sq[-1] < 1e-3 * sq[0]:
            continue
        E = np.linalg.solve(Q.conj().T, G)
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        W = 0.5 * (W - W.conj().T)
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = W - V @ V.conj().T
        ph = PhPencil(E, A, Q)
        if probe_regularity(ph.pencil):
            return ph
    raise ArithmeticError(f"no regular pH pencil found in {max_tries} draws")
