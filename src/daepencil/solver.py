"""Initial-value solvers for d/dt Ex = Ax.

Two routes, which accept the same initial states, those in ran P: the contour-integral
representation of the solution along a vertical (Bromwich) line, less tail terms that
integrate to 0, and exact block decoupling through the Weierstrass form.  The sign
convention is fixed against the scalar oracle:

    x0 = (-1)^{p-1} R(mu)^p z0,
    x(t) = -(1/2 pi i) * integral e^{lambda t} R(lambda) z0 / (lambda-mu)^p,

with R(lambda) = (lambda E - A)^{-1} E; then x(0) = x0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import MatrixPencil, _lu, resolvent_apply, resolvent_norms, right_pseudo_resolvent
from .errors import (
    InconsistentInitialState,
    OverflowRisk,
    QuadratureNotConverged,
    ShiftOutsideResolventSet,
)
from .weierstrass import WeierstrassDecomposition, decompose

__all__ = [
    "QuadratureConfig",
    "SolveConfig",
    "Trajectory",
    "bromwich_integral",
    "admissible_initial_state",
    "contour_solve",
    "weierstrass_solve",
    "matrix_exponential",
    "mild_solution_residual",
]


#: ``bromwich_integral``'s first half-length, nodes per panel and doublings per phase, and the
#: most tail terms ``contour_solve`` subtracts
INITIAL_HALF_LENGTH = 32.0
NODES_PER_PANEL = 16
MAX_REFINEMENTS = 12
MAX_TAIL_TERMS = 6


@dataclass(frozen=True)
class QuadratureConfig:
    """Adaptive truncated-line quadrature parameters."""

    tolerance: float = 1e-8

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class SolveConfig:
    """Contour-solver parameters: shift mu, abscissa omega, power p."""

    mu: complex
    omega: float
    p: int
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if complex(self.mu).real <= self.omega:
            raise ValueError("Re(mu) must exceed omega")
        if self.p < 1:
            raise ValueError("p must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with optional Hamiltonian trace and quadrature record."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    hamiltonian: np.ndarray | None = None
    quadrature: dict | None = None  # the contour quadrature's record, see bromwich_integral

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim != 1 or states.shape[0] != len(times):
            raise ValueError("times and states must align")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.hamiltonian is not None and len(self.hamiltonian) != len(times):
            raise ValueError("hamiltonian trace must align with times")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


def bromwich_integral(
    integrand, omega: float, times: np.ndarray, quad: QuadratureConfig
) -> tuple[np.ndarray, dict]:
    """(1/2 pi i) * integral over Re(lambda) = omega of e^{lambda t} f(lambda), and its record.

    ``integrand(lams)`` must return an array of shape (len(lams), dim).  The
    line is cut into panels [j L, (j+1) L], L = 2 omega, -K <= j < K.  Phase 1
    doubles K, evaluating only the new outer panels, until their sum is below
    quad.tolerance / 2; phase 2 doubles the nodes per panel until two
    successive sums agree within quad.tolerance (max norm).
    """
    times = np.asarray(times, dtype=float)
    L = 2.0 * omega
    # e^{lambda t_k} = e^{lambda t_{k-1}} e^{lambda (t_k - t_{k-1})}: one exp per distinct step
    steps, step_of = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    rec = {"nodes_evaluated": 0}
    # one (nt, 8192) phase matrix for every chunk; take(mode="clip") fills it without a temporary
    buf = np.empty((len(times), 8192), dtype=complex)

    def evaluate(panels, nodes: int) -> np.ndarray:
        """Gauss-Legendre sum over the panels [j L, (j+1) L], j in ``panels``."""
        x, w = np.polynomial.legendre.leggauss(nodes)
        panels, total = np.asarray(panels, dtype=float), 0.0
        for start in range(0, len(panels) * nodes, 8192):
            q = np.arange(start, min(start + 8192, len(panels) * nodes))
            panel, node = panels[q // nodes], q % nodes
            lams = omega + 1j * ((panel + 0.5 + 0.5 * x[node]) * L)
            rec["nodes_evaluated"] += len(lams)
            P = buf[:, : len(lams)]
            np.take(np.exp(np.outer(steps, lams)), step_of, axis=0, out=P, mode="clip")
            for k in range(1, len(times)):
                P[k] *= P[k - 1]
            total = total + P @ ((0.5 * L * w[node])[:, None] * integrand(lams))
        return total / (2.0 * np.pi)  # d(lambda) = i dy

    K, nodes = max(1, int(np.ceil(INITIAL_HALF_LENGTH / L))), NODES_PER_PANEL
    prev, sizes = evaluate(range(-K, K), nodes), []
    # phase 1: extend the truncation by outer panels until their sum is negligible
    for i in range(1, MAX_REFINEMENTS + 1):
        outer = evaluate([*range(-2 * K, -K), *range(K, 2 * K)], nodes)
        prev, K = prev + outer, 2 * K
        sizes.append(float(np.max(np.abs(outer))))
        if sizes[-1] <= 0.5 * quad.tolerance:
            break
        # a tail ~ |lambda|^-q shrinks the sum by 2^(1-q) < 1 per doubling: stop when even the
        # fastest shrink factor so far, of three or more, cannot reach the tolerance in the budget
        rate = min((a / b for a, b in zip(sizes[1:], sizes[:-1])), default=0.0)
        left = MAX_REFINEMENTS - i
        if len(sizes) >= 4 and left and rate < 1.0 and sizes[-1] * rate**left > 0.5 * quad.tolerance:
            raise QuadratureNotConverged(
                f"contour truncation cannot converge in {MAX_REFINEMENTS} doublings: at half-length "
                f"{K * L:g} the outer panels sum to {sizes[-1]:.3e}, and each doubling kept at least "
                f"{rate:.3g} of that sum, as for an integrand decaying like "
                f"|lambda|^-{1.0 - np.log2(rate):.3g}"
            )
    else:
        raise QuadratureNotConverged(f"contour truncation did not converge up to half-length {K * L:g}")
    rec.update(half_length=K * L, truncation_refinements=i)
    # phase 2: refine node density at fixed truncation
    for j in range(1, MAX_REFINEMENTS + 1):
        nodes *= 2
        cur = evaluate(range(-K, K), nodes)
        diff = float(np.max(np.abs(cur - prev)))
        if diff <= quad.tolerance:
            rec.update(nodes_per_panel=nodes, density_refinements=j, last_difference=diff)
            return cur, rec
        prev = cur
    raise QuadratureNotConverged(f"contour nodes: {nodes} per panel still differ by {diff:.3e}")


def _off_finite_subspace(decomp: WeierstrassDecomposition, x0: np.ndarray) -> tuple[float, bool]:
    """||x0 - P x0|| and whether it is at most 1e-8 ||x0||: both solvers' test of x0 in ran P."""
    residual = float(np.linalg.norm(x0 - decomp.P @ x0))
    return residual, bool(residual <= 1e-8 * np.linalg.norm(x0))


def admissible_initial_state(
    pencil: MatrixPencil, mu: complex, p: int, x0: np.ndarray,
    decomp: WeierstrassDecomposition | None = None,
) -> tuple[bool, np.ndarray, float]:
    """Test x0 in ran P (P of ``decomp``, decomposed here if not given) and return its preimages.

    R(mu) is nilpotent on ker P, so G = R(mu) + I - P is invertible and acts as R(mu) on
    ran P: p steps v -> -G^{-1} v with one LU of G, from -P x0, give z_0 in ran P with
    x0 = (-1)^{p-1} R(mu)^p z_0, and each further step, z_j = -G^{-1} z_{j-1}, the preimage
    at power p + j, for the tail ``contour_solve`` subtracts (rows j <= MAX_TAIL_TERMS).  G
    uses only R(mu) and P, never A1 or T_R, so the contour solve stays an independent check
    on ``weierstrass_solve``.  R(mu) and G are each refused by ``core._lu``'s rule with
    SingularShift, naming mu and the condition estimate.
    """
    x0 = np.asarray(x0, dtype=complex).reshape(pencil.n)
    decomp = decomp if decomp is not None else decompose(pencil)
    residual, member = _off_finite_subspace(decomp, x0)
    G = right_pseudo_resolvent(pencil, mu) + np.eye(pencil.n) - decomp.P
    lu, chain = _lu(G, f"G = R(mu) + I - P is singular at mu = {mu}")[0], [-(decomp.P @ x0)]
    for _ in range(p + MAX_TAIL_TERMS):
        chain.append(-scipy.linalg.lu_solve(lu, chain[-1]))
    return member, np.array(chain[p:]), residual


def contour_solve(
    pencil: MatrixPencil, z0: np.ndarray, config: SolveConfig, times: np.ndarray
) -> Trajectory:
    """Solve the IVP by quadrature of the Bromwich representation.

    The initial state represented is x0 = (-1)^{p-1} R(mu)^p z_0; the
    returned x(0) matches it to within ten times the quadrature tolerance.
    Given the chain z_0..z_m of ``admissible_initial_state``, not z_0 alone, it subtracts J
    tail terms: with s = lambda - mu and y_j = (-1)^j z_j, R(lambda) z_0 = sum_{j<J} (-1)^j
    s^{-j-1} y_j + (-1)^J s^{-J} R(lambda) y_J; the sum has poles only at mu, right of the line,
    so it integrates to 0 for t >= 0 and leaves the integrand at power p + J, applied to z_J.  J
    stops before the first z_j that rounds by eps ||z_j|| / (Re mu - omega)^{p+j+1} > tol / 100, and
    is dropped below p - 1, where its larger integrand near the line costs more nodes than it saves.
    """
    chain = np.asarray(z0, dtype=complex).reshape(-1 if np.ndim(z0) == 2 else 1, pencil.n)
    mu, omega, tol = complex(config.mu), config.omega, config.quad.tolerance
    scale = tol / 100 * (mu.real - omega) ** (config.p + 2 + np.arange(len(chain) - 1))
    held = np.finfo(float).eps * np.linalg.norm(chain[1:], axis=1) <= scale
    J = int(np.cumprod(held).sum())
    J = J if J >= config.p - 1 else 0
    z0, p = chain[J], config.p + J
    if not resolvent_norms(pencil, [omega])[0][0].in_resolvent_set:  # on the QZ form the integrand uses
        raise ShiftOutsideResolventSet(f"abscissa omega = {omega} is not in the resolvent set")

    def integrand(lams: np.ndarray) -> np.ndarray:
        return -resolvent_apply(pencil, lams, pencil.E @ z0) / ((lams - mu) ** p)[:, None]

    states, record = bromwich_integral(integrand, omega, times, config.quad)
    return Trajectory(times=times, states=states, quadrature={**record, "tail_terms": J})


def matrix_exponential(M: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(M t) by scaling and squaring (Pade approximant)."""
    M = np.asarray(M, dtype=complex)
    if M.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    # checked after the fact: norm bounds refuse stable generators far from normal
    with np.errstate(over="ignore", invalid="ignore"):
        X = scipy.linalg.expm(M * t)
    if not np.all(np.abs(X) <= np.exp(700.0)):
        raise OverflowRisk("exp(M t) has entries beyond e^700 or overflowed double precision")
    return X


def weierstrass_solve(decomp, x0: np.ndarray, times: np.ndarray) -> Trajectory:
    """Exact solution through the decoupled blocks.

    The homogeneous nilpotent block forces the algebraic component to zero,
    so x0 must lie in ran P by the test of ``admissible_initial_state``.
    """
    times = np.asarray(times, dtype=float)
    x0 = np.asarray(x0, dtype=complex).reshape(decomp.n)
    residual, member = _off_finite_subspace(decomp, x0)
    if not member:
        raise InconsistentInitialState(
            f"x0 is {residual:.3e} from ran P, above 1e-8 ||x0||; state is not solvable"
        )
    y1 = scipy.linalg.solve(decomp.T_R, x0)[: decomp.d1]
    # e^{A1 t_k} = e^{A1 (t_k - t_{k-1})} e^{A1 t_{k-1}}: one exp per distinct step
    steps, step_of = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    factors = [matrix_exponential(decomp.A1, h) for h in steps]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, as in matrix_exponential
        ys = np.array([y1 := factors[i] @ y1 for i in step_of]).reshape(len(times), decomp.d1)
    if not np.all(np.abs(ys) <= np.exp(700.0)):  # the product can overflow where no factor does
        raise OverflowRisk("e^{A1 t} y1 has entries beyond e^700 or overflowed double precision")
    return Trajectory(times=times, states=ys @ decomp.T_R[:, : decomp.d1].T)


def mild_solution_residual(pencil: MatrixPencil, traj: Trajectory) -> float:
    """Deviation from Ex(t) - Ex(0) = A * integral_0^t x(s) ds, integrated by the rule of
    ``scipy.integrate.cumulative_simpson``, a package slower to import than a simulate is to run."""
    if len(traj.times) < 5:
        raise ValueError("trajectory needs at least 5 samples for Simpson quadrature")

    def parabolas(y, h):  # over each step h[k], the parabola through y[k], y[k+1], y[k+2]
        a, b = h[:-1, None], h[1:, None]
        r, q = a / (a + b), a / (a + b) * (a / b)
        return a / 6 * ((3 - r) * y[:-2] + (3 + q + r) * y[1:-1] - q * y[2:])

    x, h = traj.states, np.diff(traj.times)  # (nt, n), (nt - 1,)
    behind = parabolas(x[::-1], h[::-1])[::-1]  # over step k + 1, through y[k], y[k+1], y[k+2]
    steps = np.concatenate([np.zeros_like(x[:1]), parabolas(x, h), behind[-1:]])
    steps[2::2] = behind[::2]  # odd steps, and the last, take the parabola behind them
    Ex = x @ pencil.E.T
    rhs = np.cumsum(steps, axis=0) @ pencil.A.T
    return float(np.max(np.linalg.norm(Ex - Ex[0] - rhs, axis=1)) / (1.0 + np.linalg.norm(Ex[0])))
