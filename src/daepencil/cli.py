"""Command-line interface: analyze, decompose, indices, simulate, verify-ph, example.

Exit codes: 0 success, 1 a verification failed (structural check or
admissibility), 2 input error.  Each error, a usage error too, is emitted
as one JSON object on standard error.  Option precedence: command-line
flags > config file (JSON object keyed by option name) > built-in defaults.
Every report embeds the seed; the indices, analyze and simulate reports
embed the effective configuration, with the BLAS thread counts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .core import MatrixPencil
from .errors import InvalidParams, IrregularPencil, OverflowRisk, PencilError
from .indices import (
    GrowthEstimate,
    _require_above,
    estimate_resolvent_index_complex,
    estimate_resolvent_index_real,
    index_relations_check,
    verify_radiality,
)
from .models import L2ExampleParams, NanorodParams, build_l2_example, build_nanorod
from .phdae import PhPencil, _default_omega, dissipation_trace, verify_ph_structure
from .serialize import load_pencil, matrix_from_json, result_fields, save_json, save_pencil, save_trajectory_csv
from .solver import (
    QuadratureConfig,
    SolveConfig,
    admissible_initial_state,
    contour_solve,
    mild_solution_residual,
    weierstrass_solve,
)
from .weierstrass import build_zero_dynamics, decompose

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _blas_threads() -> dict:
    """The BLAS thread counts this process was given, None where unset: reports differ across them."""
    return {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _dynamics_pencil(obj) -> MatrixPencil:
    return obj.pencil if isinstance(obj, PhPencil) else obj


def _index_report(args, pencil: MatrixPencil, decomp) -> tuple[dict, GrowthEstimate, GrowthEstimate]:
    """The index report and the real and complex growth estimates in it."""
    omega = args.omega if args.omega is not None else _default_omega(pencil, decomp.d1)
    lambda_max = omega * args.lambda_span
    p_rad = args.radiality_p if args.radiality_p is not None else max(0, decomp.nilpotency_index - 1)
    # the estimators' own checks, in their order, before the first of them runs
    _require_above(
        omega=(0.0, omega), lambda_max=(omega, lambda_max), num_points=(7, args.num_points),
        imag_max=(1.0, lambda_max), num_lines=(0, args.num_lines), p=(-1, p_rad),
        n_max=(0, args.n_max), num_samples=(0, args.num_samples), box_radius=(0.0, args.box_radius),
    )
    real = estimate_resolvent_index_real(pencil, omega, lambda_max, args.num_points)
    cplx = estimate_resolvent_index_complex(pencil, omega, lambda_max, args.num_lines, args.num_points)
    rad = verify_radiality(pencil, p_rad, omega, args.box_radius, decomp.d1, decomp.nilpotency_index, n_max=args.n_max,
                           num_samples=args.num_samples, seed=args.seed)
    report = {
        "nilpotency": decomp.nilpotency_index,
        "real": real,
        "complex": cplx,
        "radiality": rad,
        "relations": index_relations_check(decomp, real, rad),
        "seed": args.seed,
        "config": {
            "omega": omega,
            "lambda_max": lambda_max,
            "num_points": args.num_points,
            "num_lines": args.num_lines,
            "blas_threads": _blas_threads(),
        },
    }
    return report, real, cplx


def _cmd_decompose(args) -> int:
    obj = load_pencil(args.input)
    report = {**result_fields(decompose(_dynamics_pencil(obj))), "seed": args.seed}
    save_json(os.path.join(args.output_dir, "decompose.json"), report)
    return EXIT_OK


def _cmd_indices(args) -> int:
    obj = load_pencil(args.input)
    pencil = _dynamics_pencil(obj)
    report = _index_report(args, pencil, decompose(pencil))[0]
    save_json(os.path.join(args.output_dir, "indices.json"), report)
    return EXIT_OK


def _cmd_verify_ph(args) -> int:
    obj = load_pencil(args.input)
    if not isinstance(obj, PhPencil):
        raise ValueError("verify-ph requires a pencil file with a Q matrix")
    report = verify_ph_structure(obj, omega=args.omega)
    save_json(os.path.join(args.output_dir, "ph_report.json"), {**result_fields(report), "seed": args.seed})
    return EXIT_OK if report.structure_ok else EXIT_VERIFICATION_FAILED


def _cmd_analyze(args) -> int:
    obj = load_pencil(args.input)
    pencil = _dynamics_pencil(obj)
    try:
        decomp = decompose(pencil)  # finding a shift proves regularity
    except IrregularPencil:
        save_json(os.path.join(args.output_dir, "analyze.json"), {"seed": args.seed, "regular": False})
        raise
    report: dict = {"seed": args.seed, "regular": True}
    status = EXIT_OK
    report["decomposition"] = decomp
    report["indices"], real, cplx = _index_report(args, pencil, decomp)
    if isinstance(obj, PhPencil):
        ph_report = verify_ph_structure(obj, decomp=decomp, estimates=(real, cplx))
        report["ph"] = ph_report
        if not ph_report.structure_ok:
            status = EXIT_VERIFICATION_FAILED
            _emit_error("PhStructureFailed", "; ".join(ph_report.failures) or "structural check failed")
    save_json(os.path.join(args.output_dir, "analyze.json"), report)
    return status


def _parse_x0(args, n: int) -> np.ndarray:
    if args.x0 is not None:
        vals = []
        for tok in map(str.strip, args.x0.split(",")):
            try:  # a trailing i is the imaginary unit; the i of inf is not
                vals.append(complex(tok[:-1] + "j" if tok.endswith("i") else tok))
            except ValueError:
                raise ValueError(f"--x0 entry {tok!r} is not a complex number") from None
    elif args.x0_file is not None:
        with open(args.x0_file) as fh:
            data = json.load(fh)
        try:
            vals = list(matrix_from_json([data])[0])
        except ValueError:
            raise ValueError(f"--x0-file {args.x0_file} must hold a list of [re, im] pairs of numbers") from None
    else:
        raise ValueError("simulate requires --x0 or --x0-file")
    if len(vals) != n:
        raise ValueError(f"x0 has length {len(vals)}, expected {n}")
    x0 = np.array(vals, dtype=complex)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 contains NaN or Inf entries")
    return x0


def _cmd_simulate(args) -> int:
    obj = load_pencil(args.input)
    pencil = _dynamics_pencil(obj)
    x0 = _parse_x0(args, pencil.n)
    decomp = decompose(pencil)
    omega = args.omega if args.omega is not None else _default_omega(pencil, decomp.d1)
    # p >= 2 makes the contour integrand decay like |lambda|^-3; contour_solve adds its tail terms
    p = args.p if args.p is not None else max(2, decomp.nilpotency_index)
    mu = args.mu if args.mu is not None else omega + 1.0
    config = SolveConfig(mu=mu, omega=omega, p=p, quad=QuadratureConfig(tolerance=args.quad_tol))
    times = np.linspace(0.0, args.t_final, args.num_steps + 1)

    member, z0, adm_residual = admissible_initial_state(pencil, mu, p, x0, decomp)
    report = {
        "seed": args.seed,
        "config": {
            "mu": mu,
            "omega": omega,
            "p": p,
            "quad_tol": args.quad_tol,
            "t_final": args.t_final,
            "num_steps": args.num_steps,
            "blas_threads": _blas_threads(),
        },
        "admissible": member,
        "admissibility_residual": adm_residual,
    }
    if not member:
        report["failure"] = "InconsistentInitialState"
        save_json(os.path.join(args.output_dir, "simulate.json"), report)
        _emit_error(
            "InconsistentInitialState",
            f"x0 is not in the admissible range (residual {adm_residual:.3e})",
        )
        return EXIT_VERIFICATION_FAILED

    traj = contour_solve(pencil, z0, config, times)
    report["mild_residual"] = mild_solution_residual(pencil, traj)
    report["quadrature"] = traj.quadrature
    try:
        traj_w = weierstrass_solve(decomp, x0, times)
        scale = max(float(np.max(np.abs(traj_w.states))), 1e-300)
        report["solver_agreement"] = float(np.max(np.abs(traj.states - traj_w.states)) / scale)
    except OverflowRisk as exc:  # admission already passed the same ran P test
        report["solver_agreement"] = None
        report["weierstrass_note"] = str(exc)
    if isinstance(obj, PhPencil):
        try:
            trace = dissipation_trace(obj, traj)
        except ValueError as exc:
            report["failure"] = "HamiltonianFailed"
            report["hamiltonian_note"] = str(exc)
            _emit_error("HamiltonianFailed", str(exc))
        else:
            traj = replace(traj, hamiltonian=trace.H)
            report["hamiltonian_max_increase"] = trace.max_increase
    save_trajectory_csv(os.path.join(args.output_dir, "trajectory.csv"), traj)
    save_json(os.path.join(args.output_dir, "simulate.json"), report)
    return EXIT_VERIFICATION_FAILED if "failure" in report else EXIT_OK


def _cmd_example(args) -> int:
    if args.model == "nanorod":
        params = NanorodParams(
            l=args.l, n_grid=args.n_grid, rho=args.rho, D=args.D, C_mod=args.C_mod,
            mu_nl=args.mu_nl, tau_d=args.tau_d, a2=args.a2, b2=args.b2,
        )
        obj = build_nanorod(params)
        provenance = {"model": "nanorod", **{k: getattr(params, k) for k in params.__dataclass_fields__}}
        name = "nanorod.json"
    elif args.model == "l2":
        params = L2ExampleParams(K=args.K)
        obj = build_l2_example(params)
        provenance = {"model": "l2", "K": params.K}
        name = "l2.json"
    else:  # zero-dyn; argparse restricts the choices
        m = args.m
        if m < 2:
            raise ValueError("m must be at least 2")
        model = build_zero_dynamics(np.diag(-np.arange(1.0, m + 1.0)), np.eye(m)[:, 0], np.eye(m)[:, 0])
        obj = model.pencil
        provenance = {"model": "zero-dyn", "m": m}
        name = "zero_dyn.json"
    provenance["seed"] = args.seed
    save_pencil(os.path.join(args.output_dir, name), obj, provenance)
    return EXIT_OK


def _option(sub, config: dict, flag: str, type_, default=None) -> None:
    """Add ``flag``; its config value, when set, is parsed by ``type_`` as if given on the command line."""
    key = flag[2:].replace("-", "_")
    value = config.get(key)
    if value is not None:
        try:
            default = type_(value if isinstance(value, str) else json.dumps(value))
        except ValueError:
            raise ValueError(f"config key '{key}' is {json.dumps(value)}, not {type_.__name__}") from None
    sub.add_argument(flag, type=type_, default=default)


def _add_common(sub, config):
    _option(sub, config, "--output-dir", str, ".")
    _option(sub, config, "--seed", int, 0)


def _add_estimator_opts(sub, config):
    _option(sub, config, "--omega", float)
    _option(sub, config, "--lambda-span", float, 1e3)
    _option(sub, config, "--num-points", int, 64)
    _option(sub, config, "--num-lines", int, 4)
    _option(sub, config, "--radiality-p", int)
    _option(sub, config, "--box-radius", float, 1e3)
    _option(sub, config, "--n-max", int, 3)
    _option(sub, config, "--num-samples", int, 200)


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subparsers too, whose usage errors raise ValueError for ``main`` to emit."""

    def error(self, message: str):
        flag = re.match(r"argument (--[\w-]+): expected one argument", message)
        if flag:  # argparse reads a value that starts with '-', as in --x0 -1,0, as an option
            message += f"; a value that starts with '-' is given as {flag[1]}=..."
        raise ValueError(f"{self.prog}: {message}")


def build_parser(config: dict) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="daepencil",
        description="Analyze and solve linear DAE pencils d/dt Ex = Ax (optionally d/dt Ex = AQx).",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, func, needs_est in (
        ("analyze", _cmd_analyze, True),
        ("decompose", _cmd_decompose, False),
        ("indices", _cmd_indices, True),
        ("verify-ph", _cmd_verify_ph, False),
    ):
        sub = subs.add_parser(name)
        sub.add_argument("input")
        _add_common(sub, config)
        if needs_est:
            _add_estimator_opts(sub, config)
        elif name == "verify-ph":
            _option(sub, config, "--omega", float)
        sub.set_defaults(func=func)

    sim = subs.add_parser("simulate")
    sim.add_argument("input")
    _add_common(sim, config)
    sim.add_argument("--x0", help="comma-separated complex entries, e.g. '1, 0.5+2j'")
    sim.add_argument("--x0-file", help="JSON file with a list of [re, im] pairs")
    _option(sim, config, "--mu", float)
    _option(sim, config, "--omega", float)
    _option(sim, config, "--p", int)
    _option(sim, config, "--quad-tol", float, 1e-8)
    _option(sim, config, "--t-final", float, 1.0)
    _option(sim, config, "--num-steps", int, 100)
    sim.set_defaults(func=_cmd_simulate)

    ex = subs.add_parser("example")
    ex.add_argument("model", choices=["nanorod", "l2", "zero-dyn"])
    _add_common(ex, config)
    _option(ex, config, "--n-grid", int, 50)
    for flag in ("--l", "--rho", "--D", "--C-mod", "--mu-nl", "--tau-d", "--a2", "--b2"):
        _option(ex, config, flag, float, 1.0)
    _option(ex, config, "--K", int, 40)
    _option(ex, config, "--m", int, 4)
    ex.set_defaults(func=_cmd_example)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = _Parser(prog="daepencil", add_help=False)
    pre.add_argument("--config")
    config: dict = {}
    try:
        known, _ = pre.parse_known_args(argv)
        if known.config is not None:
            with open(known.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("config file must contain a JSON object")
        parser = build_parser(config)
    except (OSError, ValueError) as exc:
        _emit_error("ConfigError", str(exc))
        return EXIT_INPUT_ERROR

    try:
        args = parser.parse_args(argv)  # only --help exits; usage errors raise ValueError
        os.makedirs(args.output_dir, exist_ok=True)
        return args.func(args)
    except SystemExit:  # --help
        return EXIT_OK
    except InvalidParams as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_INPUT_ERROR
    except PencilError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_VERIFICATION_FAILED
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
