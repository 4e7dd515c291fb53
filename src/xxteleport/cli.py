"""Command-line interface.

Subcommands: concurrence, fidelity, critical, table1, sweep, verify.  Every
command emits one machine-readable document (json, csv, or plain text).
Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 no-solution regime, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .entanglement import concurrence, thermal_concurrence
from .model import ModelParams, gibbs_state
from .phase import (TABLE1_REFERENCE, TABLE1_TOLERANCE, NoClassicalAdvantageError,
                    critical_temperature, reproduce_table1, sweep, table1_deviations)
from .teleport import (PureQubit, apply_channel_stack, average_fidelity,
                       mc_average_fidelity, output_fidelity, protocol_oracle_stack)
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_NO_SOLUTION = 3
EXIT_IO_FAILURE = 4

# Fixed Bloch angles for the --verify channel/protocol cross-check.
_ORACLE_THETAS = (0.4, 1.2, 2.2)
_ORACLE_PHIS = (0.0, 2.1, 5.0)


@dataclass
class OutputEnvelope:
    metadata: dict
    result: object  # dict for single records, list of dicts for tables
    exit_code: int = EXIT_OK


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _render(env: OutputEnvelope, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"metadata": env.metadata, "result": env.result}, indent=2)
    rows = env.result if isinstance(env.result, list) else [env.result]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(_fmt(v) for v in row.values())
        return buf.getvalue().rstrip("\n")
    # plain
    params = " ".join(f"{k}={_fmt(v)}" for k, v in env.metadata["parameters"].items())
    lines = [f"# xxteleport {env.metadata['version']} {env.metadata['command']} {params}".rstrip()]
    if isinstance(env.result, list):
        if rows:
            keys = list(rows[0].keys())
            table = [keys] + [[_fmt(row[k]) for k in keys] for row in rows]
            widths = [max(len(r[i]) for r in table) for i in range(len(keys))]
            for r in table:
                lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    else:
        for k, v in env.result.items():
            lines.append(f"{k} = {_fmt(v)}")
    return "\n".join(lines)


def _metadata(command: str, parameters: dict, seed: int | None = None) -> dict:
    meta = {"tool": "xxteleport", "version": __version__,
            "command": command, "parameters": parameters}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _params_from_args(args) -> ModelParams:
    if args.eta is not None:
        b_m = args.eta * args.j
    elif args.bm is not None:
        b_m = args.bm
    else:
        b_m = 0.0
    t = args.t if args.t is not None else args.t_over_j * args.j
    return ModelParams(j=args.j, b_m=b_m, t=t)


def _cmd_concurrence(args) -> OutputEnvelope:
    p = _params_from_args(args)
    result = {"j": p.j, "b_m": p.b_m, "t": p.t, "concurrence": thermal_concurrence(p)}
    if args.verify:
        general = concurrence(gibbs_state(p).rho).value
        result["general_concurrence"] = general
        result["abs_difference"] = abs(result["concurrence"] - general)
    meta = _metadata("concurrence", {"j": p.j, "b_m": p.b_m, "t": p.t})
    return OutputEnvelope(meta, result)


def _cmd_fidelity(args) -> OutputEnvelope:
    p = _params_from_args(args)
    rep = average_fidelity(p)
    result = {"j": p.j, "b_m": p.b_m, "t": p.t,
              "avg_fidelity": rep.average,
              "beats_classical": rep.average > 2.0 / 3.0}
    if args.theta is not None:
        result["theta"] = args.theta
        result["pointwise_fidelity"] = output_fidelity(p, args.theta)
    seed = None
    if args.mc_samples is not None:
        seed = args.seed
        mc = mc_average_fidelity(gibbs_state(p).rho, args.mc_samples, seed=seed)
        result["mc_estimate"] = mc.average
        result["mc_stderr"] = mc.stderr
        result["mc_samples"] = mc.samples
    if args.verify:
        psis = [PureQubit(theta=theta, phi=phi) for theta in _ORACLE_THETAS for phi in _ORACLE_PHIS]
        rhos = np.broadcast_to(gibbs_state(p).rho, (len(psis), 4, 4))
        result["oracle_max_deviation"] = float(np.abs(
            protocol_oracle_stack(rhos, psis)[0] - apply_channel_stack(rhos, psis)).max())
    meta = _metadata("fidelity", {"j": p.j, "b_m": p.b_m, "t": p.t}, seed=seed)
    return OutputEnvelope(meta, result)


def _cmd_critical(args) -> OutputEnvelope:
    point = critical_temperature(args.eta, args.j)
    result = {"eta": point.eta,
              "t_critical_over_j": point.t_critical_over_j,
              "t_critical": point.t_critical_over_j * args.j,
              "residual_concurrence": point.residual_concurrence,
              "solver_residual": point.solver_residual}
    meta = _metadata("critical", {"eta": args.eta, "j": args.j})
    return OutputEnvelope(meta, result)


def _cmd_table1(args) -> OutputEnvelope:
    points = reproduce_table1()
    rows = [{"eta": eta,
             "t_critical_over_j": point.t_critical_over_j,
             "residual_concurrence": point.residual_concurrence,
             "reference_t_over_j": t_ref,
             "reference_c_r": cr_ref,
             "status": "pass" if deviation <= TABLE1_TOLERANCE else "fail"}
            for point, (eta, t_ref, cr_ref), deviation
            in zip(points, TABLE1_REFERENCE, table1_deviations(points))]
    meta = _metadata("table1", {"tolerance": TABLE1_TOLERANCE})
    return OutputEnvelope(meta, rows)


def _cmd_sweep(args) -> OutputEnvelope:
    eta_steps, t_steps = args.steps
    if eta_steps < 1 or t_steps < 1:
        raise ValueError(f"step counts must be positive, got {args.steps}")
    etas = np.linspace(args.eta_range[0], args.eta_range[1], eta_steps)
    ts = np.linspace(args.t_range[0], args.t_range[1], t_steps)
    columns = sweep(args.j, etas, ts)
    # .tolist() yields Python scalars: _fmt prints an np.bool_ as True, json.dumps rejects it.
    rows = [dict(zip(columns, values))
            for values in zip(*(column.tolist() for column in columns.values()))]
    meta = _metadata("sweep", {"j": args.j,
                               "eta_range": list(args.eta_range),
                               "t_range": list(args.t_range),
                               "steps": list(args.steps)})
    return OutputEnvelope(meta, rows)


def _cmd_verify(args) -> OutputEnvelope:
    results = run_verification(seed=args.seed, grid_size=args.grid_size)
    rows = [{"check": r.name,
             "max_deviation": r.max_deviation,
             "tolerance": r.tolerance,
             "status": "pass" if r.passed else "fail"}
            for r in results]
    failed = [r.name for r in results if not r.passed]
    meta = _metadata("verify", {"grid_size": args.grid_size}, seed=args.seed)
    return OutputEnvelope(meta, rows,
                          exit_code=EXIT_VERIFY_FAILED if failed else EXIT_OK)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"), default="plain",
                        help="output format (default: plain)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for stochastic operations (default: 0)")

    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--j", type=float, default=1.0, help="coupling (default: 1)")
    field = point.add_mutually_exclusive_group()
    field.add_argument("--bm", type=float, default=None, help="field B_m (raw units)")
    field.add_argument("--eta", type=float, default=None, help="field as B_m/J")
    temp = point.add_mutually_exclusive_group(required=True)
    temp.add_argument("--t", type=float, default=None, help="temperature (raw units)")
    temp.add_argument("--t-over-j", dest="t_over_j", type=float, default=None,
                      help="temperature as T/J")

    parser = argparse.ArgumentParser(
        prog="xxteleport",
        description="Thermal entanglement and teleportation fidelity of the two-qubit XX chain")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("concurrence", parents=[common, point],
                       help="thermal concurrence at a parameter point")
    s.add_argument("--verify", action="store_true",
                   help="also run the general spin-flip algorithm and report the difference")
    s.set_defaults(handler=_cmd_concurrence)

    s = sub.add_parser("fidelity", parents=[common, point],
                       help="average teleportation fidelity at a parameter point")
    s.add_argument("--theta", type=float, default=None,
                   help="also report the pointwise fidelity for this polar angle")
    s.add_argument("--mc-samples", dest="mc_samples", type=int, default=None,
                   help="also report a Monte Carlo estimate with this many samples")
    s.add_argument("--verify", action="store_true",
                   help="also cross-check the channel against the three-qubit protocol")
    s.set_defaults(handler=_cmd_fidelity)

    s = sub.add_parser("critical", parents=[common],
                       help="classical-beating boundary temperature for eta = B_m/J")
    s.add_argument("--eta", type=float, required=True)
    s.add_argument("--j", type=float, default=1.0)
    s.set_defaults(handler=_cmd_critical)

    s = sub.add_parser("table1", parents=[common],
                       help="boundary table for eta = 0.1..0.9 with golden-value check")
    s.set_defaults(handler=_cmd_table1)

    s = sub.add_parser("sweep", parents=[common],
                       help="grid sweep of concurrence, fidelity and threshold")
    s.add_argument("--j", type=float, default=1.0)
    s.add_argument("--eta-range", dest="eta_range", nargs=2, type=float,
                   default=(0.1, 0.9), metavar=("LO", "HI"))
    s.add_argument("--t-range", dest="t_range", nargs=2, type=float,
                   default=(0.1, 1.2), metavar=("LO", "HI"))
    s.add_argument("--steps", nargs=2, type=int, default=(9, 12),
                   metavar=("N_ETA", "N_T"), help="grid points per axis")
    s.set_defaults(handler=_cmd_sweep)

    s = sub.add_parser("verify", parents=[common],
                       help="run the full cross-module consistency suite")
    s.add_argument("--grid-size", dest="grid_size", type=int, default=1000)
    s.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        env = args.handler(args)
    except NoClassicalAdvantageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    text = _render(env, args.format)
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE
    return env.exit_code


if __name__ == "__main__":
    sys.exit(main())
