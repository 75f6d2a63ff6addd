"""Initial-value solvers for d/dt Ex = Ax.

Two routes: the contour-integral representation of the solution along a
vertical (Bromwich) line, valid for initial states in the range of a high
enough pseudo-resolvent power, and exact block decoupling through the
Weierstrass form.  The sign convention is fixed against the scalar oracle:

    x0 = (-1)^{p-1} R(mu)^p z0,
    x(t) = -(1/2 pi i) * integral e^{lambda t} R(lambda) z0 / (lambda-mu)^p,

with R(lambda) = (lambda E - A)^{-1} E; then x(0) = x0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import MatrixPencil, resolvent_apply, resolvent_norm, right_pseudo_resolvent
from .errors import (
    InconsistentInitialState,
    OverflowRisk,
    QuadratureNotConverged,
    ShiftOutsideResolventSet,
)

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Adaptive truncated-line quadrature parameters."""

    initial_half_length: float = 32.0
    nodes_per_panel: int = 16
    tolerance: float = 1e-8
    max_refinements: int = 12

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")


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
    """Sampled solution with optional Hamiltonian trace and diagnostics."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    hamiltonian: np.ndarray | None = None
    mild_residual: float | None = None

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

    def with_hamiltonian(self, h: np.ndarray) -> "Trajectory":
        return Trajectory(self.times, self.states, np.asarray(h, float), self.mild_residual)

    def with_mild_residual(self, r: float) -> "Trajectory":
        return Trajectory(self.times, self.states, self.hamiltonian, r)


def _gauss_panels(omega: float, half_length: float, panel_length: float, nodes: int):
    """Gauss-Legendre nodes/weights on [omega - iT, omega + iT]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    num_panels = max(2, int(np.ceil(2.0 * half_length / panel_length)))
    edges = np.linspace(-half_length, half_length, num_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    ys = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
    ws = (halves[:, None] * w[None, :]).ravel()
    return omega + 1j * ys, 1j * ws  # d(lambda) = i dy


def bromwich_integral(integrand, omega: float, times: np.ndarray, quad: QuadratureConfig) -> np.ndarray:
    """(1/2 pi i) * integral over Re(lambda) = omega of e^{lambda t} f(lambda).

    ``integrand(lams)`` must return an array of shape (len(lams), dim).
    Truncation length and node density are doubled adaptively until two
    successive evaluations agree within quad.tolerance in the max norm.
    """
    times = np.asarray(times, dtype=float)
    panel_length = 2.0 * omega

    def evaluate(half_length: float, nodes: int) -> np.ndarray:
        lams, ws = _gauss_panels(omega, half_length, panel_length, nodes)
        # chunk over nodes to keep the (nt, m) phase matrix bounded in memory
        chunks = [slice(start, start + 8192) for start in range(0, len(lams), 8192)]
        total = sum((np.exp(np.outer(times, lams[c])) * ws[c]) @ integrand(lams[c]) for c in chunks)
        return total / (2j * np.pi)

    T = quad.initial_half_length
    nodes = quad.nodes_per_panel
    prev = evaluate(T, nodes)
    # phase 1: extend the truncation until the tail is negligible
    converged = False
    for _ in range(quad.max_refinements):
        cur = evaluate(2.0 * T, nodes)
        if np.max(np.abs(cur - prev)) <= 0.5 * quad.tolerance:
            prev = cur
            converged = True
            break
        T *= 2.0
        prev = cur
    if not converged:
        raise QuadratureNotConverged("contour truncation did not converge")
    T *= 2.0
    # phase 2: refine node density at fixed truncation
    for _ in range(quad.max_refinements):
        nodes *= 2
        cur = evaluate(T, nodes)
        if np.max(np.abs(cur - prev)) <= quad.tolerance:
            return cur
        prev = cur
    raise QuadratureNotConverged("contour node refinement did not converge")


def admissible_initial_state(
    pencil: MatrixPencil, mu: complex, p: int, x0: np.ndarray
) -> tuple[bool, np.ndarray, float]:
    """Test x0 in ran R(mu)^p and return the preimage z0.

    Solves R(mu)^p z = (-1)^{p-1} x0 in least squares; membership requires
    the back-substituted residual to stay below 1e-8 * ||x0||.
    """
    x0 = np.asarray(x0, dtype=complex).reshape(pencil.n)
    R = right_pseudo_resolvent(pencil, mu)
    Rp = np.linalg.matrix_power(R, p)
    sign = (-1.0) ** (p - 1)
    z0, *_ = np.linalg.lstsq(Rp, sign * x0, rcond=None)
    residual = float(np.linalg.norm(sign * (Rp @ z0) - x0))
    member = residual <= 1e-8 * max(np.linalg.norm(x0), 1e-300)
    if np.linalg.norm(x0) == 0.0:
        member, z0, residual = True, np.zeros_like(x0), 0.0
    return member, z0, residual


def contour_solve(
    pencil: MatrixPencil, z0: np.ndarray, config: SolveConfig, times: np.ndarray
) -> Trajectory:
    """Solve the IVP by quadrature of the Bromwich representation.

    The initial state represented is x0 = (-1)^{p-1} R(mu)^p z0; the
    returned x(0) matches it to within ten times the quadrature tolerance.
    """
    z0 = np.asarray(z0, dtype=complex).reshape(pencil.n)
    mu, omega, p = complex(config.mu), config.omega, config.p
    if not resolvent_norm(pencil, complex(omega, 0.0)).in_resolvent_set:
        raise ShiftOutsideResolventSet(f"abscissa omega = {omega} is not in the resolvent set")

    def integrand(lams: np.ndarray) -> np.ndarray:
        return -resolvent_apply(pencil, lams, pencil.E @ z0) / ((lams - mu) ** p)[:, None]

    states = bromwich_integral(integrand, omega, times, config.quad)
    return Trajectory(times=times, states=states)


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
    so x0 must have a negligible component there (relative 1e-8).
    """
    times = np.asarray(times, dtype=float)
    x0 = np.asarray(x0, dtype=complex).reshape(decomp.n)
    y = np.linalg.solve(decomp.T_R, x0)
    y1, y2 = y[: decomp.d1], y[decomp.d1 :]
    if np.linalg.norm(y2) > 1e-8 * max(np.linalg.norm(x0), 1e-300):
        raise InconsistentInitialState(
            f"nilpotent component has norm {np.linalg.norm(y2):.3e}; state is not solvable"
        )
    T1 = decomp.T_R[:, : decomp.d1]
    states = [T1 @ (matrix_exponential(decomp.A1, t) @ y1) for t in times]
    return Trajectory(times=times, states=np.array(states).reshape(len(times), decomp.n))


def mild_solution_residual(pencil: MatrixPencil, traj: Trajectory) -> float:
    """Deviation from Ex(t) - Ex(0) = A * integral_0^t x(s) ds (Simpson)."""
    from scipy.integrate import cumulative_simpson

    if len(traj.times) < 5:
        raise ValueError("trajectory needs at least 5 samples for Simpson quadrature")
    x = traj.states  # (nt, n)
    integral = cumulative_simpson(x.real, x=traj.times, axis=0, initial=0.0) + 1j * cumulative_simpson(
        x.imag, x=traj.times, axis=0, initial=0.0
    )
    Ex = x @ pencil.E.T
    lhs = Ex - Ex[0]
    rhs = integral @ pencil.A.T
    denom = 1.0 + np.linalg.norm(Ex[0])
    return float(np.max(np.linalg.norm(lhs - rhs, axis=1)) / denom)
