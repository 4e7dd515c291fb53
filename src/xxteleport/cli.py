"""Command-line interface.

Subcommands: concurrence, fidelity, critical, table1, sweep, verify.  Every
command emits one machine-readable document (json, csv, or plain text).
Exit codes: 0 success, 1 verification failure, 2 invalid parameters,
3 no-solution regime, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .entanglement import concurrence, thermal_concurrence
from .model import ModelParams, gibbs_state
from .phase import (TABLE1_REFERENCE, TABLE1_TOLERANCE, NoClassicalAdvantageError,
                    better_than_classical, critical_temperature, reproduce_table1, sweep,
                    table1_deviations)
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _cells(column, fmt: str) -> list[str]:
    """Each value as `json.dumps` or `_fmt` prints it; an ndarray is formatted by dtype."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":  # format each distinct bit pattern once: -0.0 and 0.0 stay apart
        keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
        values = keys.view(np.float64)
        if fmt != "json":
            cells = [format(v, ".12g") for v in values.tolist()]
        elif np.isfinite(values).all():
            cells = list(map(float.__repr__, values.tolist()))
        else:
            cells = list(map(json.dumps, values.tolist()))  # Infinity and NaN keep json's spelling
        return np.array(cells, dtype=object)[inverse].tolist()
    values = column.tolist() if kind else column
    if kind == "b":
        return ["true" if v else "false" for v in values]
    return list(map(json.dumps if fmt == "json" else _fmt, values))


def _render(meta: dict, columns: dict, record: bool, fmt: str) -> str:
    """The document `json.dumps(indent=2)` or `csv.writer` would write, built from columns.

    A record is a table of one row, written as json's object and plain's
    `k = v` lines.  Rows fill a %-template; column names are identifiers and no
    cell holds a comma, quote or newline, so csv quotes none.
    """
    cells = [_cells(column, fmt) for column in columns.values()]
    if fmt == "json":
        indent = "  " if record else "    "
        fields = ",\n".join(f"{indent}  {json.dumps(name)}: %s" for name in columns)
        objects = list(map(f"{{\n{fields}\n{indent}}}".__mod__, zip(*cells)))
        result = objects[0] if record else "[\n    " + ",\n    ".join(objects) + "\n  ]"
        header = json.dumps(meta, indent=2).replace("\n", "\n  ")
        return f'{{\n  "metadata": {header},\n  "result": {result}\n}}'
    table = [tuple(columns), *zip(*cells)]
    if fmt == "csv":
        return "\n".join(map(",".join, table))
    params = " ".join(f"{k}={_fmt(v)}" for k, v in meta["parameters"].items())
    lines = [f"# xxteleport {meta['version']} {meta['command']} {params}".rstrip()]
    if record:
        lines += [f"{name} = {c[0]}" for name, c in zip(columns, cells)]
    else:
        template = "  ".join(f"%-{max(len(name), *map(len, c))}s" for name, c in zip(columns, cells))
        lines += [(template % row).rstrip() for row in table]
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


def _one_row(fields: dict) -> dict:
    return {name: [value] for name, value in fields.items()}


def _cmd_concurrence(args) -> tuple[dict, dict, int]:
    p = _params_from_args(args)
    result = {"j": p.j, "b_m": p.b_m, "t": p.t, "concurrence": thermal_concurrence(p)}
    if args.verify:
        general = concurrence(gibbs_state(p).rho).value
        result["general_concurrence"] = general
        result["abs_difference"] = abs(result["concurrence"] - general)
    meta = _metadata("concurrence", {"j": p.j, "b_m": p.b_m, "t": p.t})
    return meta, _one_row(result), EXIT_OK


def _cmd_fidelity(args) -> tuple[dict, dict, int]:
    p = _params_from_args(args)
    result = {"j": p.j, "b_m": p.b_m, "t": p.t,
              "avg_fidelity": average_fidelity(p).average,
              "beats_classical": better_than_classical(p)}
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
            protocol_oracle_stack(rhos, psis) - apply_channel_stack(rhos, psis)).max())
    meta = _metadata("fidelity", {"j": p.j, "b_m": p.b_m, "t": p.t}, seed=seed)
    return meta, _one_row(result), EXIT_OK


def _cmd_critical(args) -> tuple[dict, dict, int]:
    if not math.isfinite(args.j):
        raise ValueError(f"j must be finite, got {args.j}")
    if args.j <= 0.0:
        raise ValueError(f"j must be positive, got {args.j}")
    point = critical_temperature(args.eta)
    result = {"eta": point.eta,
              "t_critical_over_j": point.t_critical_over_j,
              "t_critical": point.t_critical_over_j * args.j,
              "residual_concurrence": point.residual_concurrence,
              "solver_residual": point.solver_residual}
    meta = _metadata("critical", {"eta": args.eta, "j": args.j})
    return meta, _one_row(result), EXIT_OK


def _cmd_table1(args) -> tuple[dict, dict, int]:
    points = reproduce_table1()
    etas, t_refs, cr_refs = zip(*TABLE1_REFERENCE)
    columns = {"eta": etas,
               "t_critical_over_j": [point.t_critical_over_j for point in points],
               "residual_concurrence": [point.residual_concurrence for point in points],
               "reference_t_over_j": t_refs,
               "reference_c_r": cr_refs,
               "status": ["pass" if deviation <= TABLE1_TOLERANCE else "fail"
                          for deviation in table1_deviations(points)]}
    meta = _metadata("table1", {"tolerance": TABLE1_TOLERANCE})
    return meta, columns, EXIT_OK


def _cmd_sweep(args) -> tuple[dict, dict, int]:
    if min(args.steps) < 1:
        raise ValueError(f"step counts must be positive, got {args.steps}")
    etas = np.linspace(*args.eta_range, args.steps[0])
    ts = np.linspace(*args.t_range, args.steps[1])
    meta = _metadata("sweep", {"j": args.j,
                               "eta_range": list(args.eta_range),
                               "t_range": list(args.t_range),
                               "steps": list(args.steps)})
    return meta, sweep(args.j, etas, ts), EXIT_OK


def _cmd_verify(args) -> tuple[dict, dict, int]:
    results = run_verification(seed=args.seed, grid_size=args.grid_size)
    columns = {"check": [r.name for r in results],
               "max_deviation": [r.max_deviation for r in results],
               "tolerance": [r.tolerance for r in results],
               "status": ["pass" if r.passed else "fail" for r in results]}
    meta = _metadata("verify", {"grid_size": args.grid_size}, seed=args.seed)
    return meta, columns, EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


@functools.cache  # built on first use, then reused: parse_args leaves it unchanged
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
    s.set_defaults(handler=_cmd_concurrence, record=True)

    s = sub.add_parser("fidelity", parents=[common, point],
                       help="average teleportation fidelity at a parameter point")
    s.add_argument("--theta", type=float, default=None,
                   help="also report the pointwise fidelity for this polar angle")
    s.add_argument("--mc-samples", dest="mc_samples", type=int, default=None,
                   help="also report a Monte Carlo estimate with this many samples")
    s.add_argument("--verify", action="store_true",
                   help="also cross-check the channel against the three-qubit protocol")
    s.set_defaults(handler=_cmd_fidelity, record=True)

    s = sub.add_parser("critical", parents=[common],
                       help="classical-beating boundary temperature for eta = B_m/J")
    s.add_argument("--eta", type=float, required=True)
    s.add_argument("--j", type=float, default=1.0)
    s.set_defaults(handler=_cmd_critical, record=True)

    s = sub.add_parser("table1", parents=[common],
                       help="boundary table for eta = 0.1..0.9 with golden-value check")
    s.set_defaults(handler=_cmd_table1, record=False)

    s = sub.add_parser("sweep", parents=[common],
                       help="grid sweep of concurrence, fidelity and threshold")
    s.add_argument("--j", type=float, default=1.0)
    s.add_argument("--eta-range", dest="eta_range", nargs=2, type=float,
                   default=(0.1, 0.9), metavar=("LO", "HI"))
    s.add_argument("--t-range", dest="t_range", nargs=2, type=float,
                   default=(0.1, 1.2), metavar=("LO", "HI"))
    s.add_argument("--steps", nargs=2, type=int, default=(9, 12),
                   metavar=("N_ETA", "N_T"), help="grid points per axis")
    s.set_defaults(handler=_cmd_sweep, record=False)

    s = sub.add_parser("verify", parents=[common],
                       help="run the full cross-module consistency suite")
    s.add_argument("--grid-size", dest="grid_size", type=int, default=1000)
    s.set_defaults(handler=_cmd_verify, record=False)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        meta, columns, exit_code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION if isinstance(exc, NoClassicalAdvantageError) else EXIT_BAD_PARAMS
    text = _render(meta, columns, args.record, args.format)
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        target = "stdout" if args.out is None else args.out
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
