"""Command-line interface: batch computations and verification suites.

Exit codes: 0 success, 2 validation/configuration error, 3 accuracy
failure (an invariant beyond tolerance), 64 usage error.  Result
documents are emitted once on stdout, deterministically serialized
(sorted keys, floats at 17 significant digits).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import constants
from .errors import AccuracyFailure, FiberquantError, InvalidArgument, ValidationError
from .fiberq import exact_monomial_norms_sq, prequant_matrix, quantize_transition
from .gauge import connection_rep
from .numerics import spectral_norm
from .orbit import moment_hamiltonian
from .scenario import DEFAULT_TOLERANCES, Fiber, Scenario, default_scenario, load_scenario
from .su2 import su2_exp
from .transport import transport, wilson_loop
from .verify import run_suite

USAGE = """usage: fiberquant COMMAND [options]

commands:
  gram        monomial Gram matrix and closed-form deviation
  prequant    operator matrix of a moment Hamiltonian
  transition  quantized transition matrix of an SU(2) element
  connection  connection value at a base point and tangent
  transport   path-ordered transport along a named path
  wilson      holonomy matrix and trace around a named loop
  verify      run a verification suite (orbit|fiber|gauge|transport|all)

common options: --config FILE --spin TWO_J --hamiltonian a1,a2,a3
  --point q1,q2 --tangent dq1,dq2 --chart NAME --axis x,y,z --angle t
  --path NAME --source rep|quad --steps N --tol X --output json|table

  --steps N  RK4 steps per unit path parameter, N >= 1
  --tol X    set every tolerance key to X > 0; the min-mode witness
             floors of verify are not tolerances and stay fixed
"""

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ACCURACY = 3
EXIT_USAGE = 64


def _serialize(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            parts.append(f'{pad}  "{key}": {_serialize(obj[key], indent + 2).lstrip()}')
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(_serialize(item, indent + 2).lstrip() for item in obj)
        return "[" + inner + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise InvalidArgument(f"cannot serialize {type(obj)}")


def matrix_payload(m: np.ndarray) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in m]


def make_document(command: str, scenario: Scenario | None, payload: dict) -> dict:
    return {
        "version": constants.VERSION,
        "command": command,
        "scenario": scenario.echo() if scenario is not None else None,
        "conventions": constants.conventions_record(),
        "payload": payload,
    }


def render_table(doc: dict) -> str:
    lines = [f"fiberquant {doc['version']} :: {doc['command']}"]
    payload = doc["payload"]
    if "checks" in payload:
        lines.append(f"{'check':<42} {'value':>12} {'tolerance':>12}  status")
        for row in payload["checks"]:
            bound = "≥" if row["mode"] == "min" else "≤"
            status = "pass" if row["pass"] else "FAIL"
            lines.append(f"{row['name']:<42} {row['value']:>12.3e} {bound}{row['tolerance']:>11.1e}  {status}")
    for key, value in sorted(payload.items()):
        if key == "checks":
            continue
        if isinstance(value, list):
            lines.append(f"{key}:")
            for row in value:
                lines.append("  " + _serialize(row).replace("\n", " "))
        else:
            lines.append(f"{key}: {_serialize(value)}")
    return "\n".join(lines)


def _parse_vector(text: str, length: int, flag: str) -> np.ndarray:
    try:
        parts = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"{flag}: cannot parse vector {text!r}") from exc
    if len(parts) != length:
        raise ValidationError(f"{flag}: expected {length} components, got {len(parts)} in {text!r}")
    if not all(map(math.isfinite, parts)):
        raise ValidationError(f"{flag}: components must be finite, got {text!r}")
    return np.array(parts)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # stray arguments, flag prefixes: raised, not written to stderr
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fiberquant", add_help=False, allow_abbrev=False)  # a flag is only its full name
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("suite", nargs="?", default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--spin", type=int, default=None)
    parser.add_argument("--hamiltonian", default=None)
    parser.add_argument("--point", default=None)
    parser.add_argument("--tangent", default=None)
    parser.add_argument("--chart", default=None)
    parser.add_argument("--path", dest="path_name", default=None)
    parser.add_argument("--source", choices=("rep", "quad"), default="rep")
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--output", choices=("json", "table"), default=None)
    parser.add_argument("--axis", default=None)
    parser.add_argument("--angle", type=float, default=None)
    return parser


def _scenario_from_args(args) -> Scenario:
    if args.config:
        scenario = load_scenario(args.config)
    else:
        scenario = default_scenario(two_j=args.spin if args.spin is not None else 1)
    if args.spin is not None and args.config:
        raise ValidationError("--spin conflicts with --config; set orbit.two_j in the file")
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValidationError(f"--tol must be a finite positive real, got {args.tol}")
        scenario.tolerances = dict.fromkeys(DEFAULT_TOLERANCES, args.tol)
    if args.steps is not None and args.steps < 1:
        raise ValidationError(f"--steps must be a positive integer, got {args.steps}")
    return scenario


def _bounded(scenario: Scenario, key: str, value: float) -> dict:
    """The "tolerance" and "pass" fields of a payload whose value is bounded by ``key``."""
    tolerance = scenario.tolerance(key)
    return {"tolerance": tolerance, "pass": value <= tolerance}


def _cmd_gram(args, scenario: Scenario) -> dict:
    spec = scenario.spec()
    basis = Fiber(scenario.two_j)["basis"]
    exact = exact_monomial_norms_sq(spec)
    rel = float(np.max(np.abs(basis.norms**2 - exact) / exact))
    return {
        "two_j": spec.two_j,
        "gram": matrix_payload(basis.gram),
        "closed_form_relative_error": rel,
        **_bounded(scenario, "gram", rel),
    }


def _cmd_prequant(args, scenario: Scenario) -> dict:
    if args.hamiltonian is None:
        raise ValidationError("prequant requires --hamiltonian a1,a2,a3")
    a = _parse_vector(args.hamiltonian, 3, "--hamiltonian")
    spec = scenario.spec()
    op = prequant_matrix(Fiber(scenario.two_j)["basis"], moment_hamiltonian(spec, a))
    herm = spectral_norm(op - op.conj().T)
    return {
        "two_j": spec.two_j,
        "direction": [float(x) for x in a],
        "matrix": matrix_payload(op),
        "hermiticity_deviation": herm,
        **_bounded(scenario, "hermiticity", herm),
    }


def _cmd_transition(args, scenario: Scenario) -> dict:
    if args.axis is None or args.angle is None:
        raise ValidationError("transition requires --axis x,y,z and --angle t")
    axis = _parse_vector(args.axis, 3, "--axis")
    scale = np.max(np.abs(axis))
    if scale == 0:
        raise ValidationError("--axis must be nonzero")
    axis = axis / scale  # so that the squares in the norm neither overflow nor underflow
    norm = np.linalg.norm(axis)
    if not math.isfinite(args.angle):
        raise ValidationError(f"--angle must be finite, got {args.angle}")
    g = su2_exp(axis / norm * args.angle)
    spec = scenario.spec()
    trans = quantize_transition(Fiber(scenario.two_j)["basis"], g)
    dev = spectral_norm(trans.conj().T @ trans - np.eye(spec.dim))
    return {
        "two_j": spec.two_j,
        "group_element": matrix_payload(g),
        "matrix": matrix_payload(trans),
        "unitarity_deviation": dev,
        **_bounded(scenario, "unitarity", dev),
    }


def _cmd_connection(args, scenario: Scenario) -> dict:
    if args.point is None or args.tangent is None:
        raise ValidationError("connection requires --point and --tangent")
    q = _parse_vector(args.point, 2, "--point")
    dq = _parse_vector(args.tangent, 2, "--tangent")
    ctx = scenario.build_context()
    model = ctx["model"]
    chart = args.chart or next(iter(model.charts))
    a_val = connection_rep(model, ctx[args.source], chart, q, dq)
    anti = spectral_norm(a_val + a_val.conj().T)
    return {
        "source": args.source,
        "chart": chart,
        "matrix": matrix_payload(a_val),
        "anti_hermiticity_deviation": anti,
        **_bounded(scenario, "anti_hermiticity", anti),
    }


def _cmd_transport(args, scenario: Scenario) -> dict:
    if args.path_name is None:
        raise ValidationError("transport requires --path NAME")
    ctx = scenario.build_context()
    path = scenario.path(args.path_name)
    result = transport(ctx["model"], ctx["basis"], path, rep=ctx[args.source], steps=args.steps)
    return {
        "path": args.path_name,
        "source": args.source,
        "steps": result.steps,
        "unitary": matrix_payload(result.unitary),
        "alpha_phase": float(result.alpha_phase),
        "unitarity_deviation": result.unitarity_deviation,
        **_bounded(scenario, "transport_unitarity", result.unitarity_deviation),
        "chart_log": [[float(t), name] for t, name in result.chart_log],
    }


def _cmd_wilson(args, scenario: Scenario) -> dict:
    if args.path_name is None:
        raise ValidationError("wilson requires --path NAME")
    ctx = scenario.build_context()
    loop = scenario.path(args.path_name)
    hol, trace = wilson_loop(ctx["model"], ctx["basis"], loop, rep=ctx[args.source], steps=args.steps)
    dev = spectral_norm(hol.conj().T @ hol - np.eye(hol.shape[0]))
    return {
        "path": args.path_name,
        "holonomy": matrix_payload(hol),
        "trace": [float(trace.real), float(trace.imag)],
        "diagonal_phases": [[float(x.real), float(x.imag)] for x in np.diag(hol)],
        "unitarity_deviation": dev,
        **_bounded(scenario, "transport_unitarity", dev),
    }


def _cmd_verify(args, scenario: Scenario) -> dict:
    suite = args.suite or "all"
    checks = run_suite(suite, scenario)
    rows = [{**dataclasses.asdict(c), "pass": c.passed} for c in checks]
    return {"suite": suite, "checks": rows, "all_pass": all(c.passed for c in checks)}


# Every command and its handler, in the order USAGE lists them.  A handler
# returns the payload; "pass" or "all_pass" false in it exits 3.
_HANDLERS = {
    "gram": _cmd_gram,
    "prequant": _cmd_prequant,
    "transition": _cmd_transition,
    "connection": _cmd_connection,
    "transport": _cmd_transport,
    "wilson": _cmd_wilson,
    "verify": _cmd_verify,
}
_COMMANDS = tuple(_HANDLERS)


@np.errstate(over="ignore", invalid="ignore")
def run_command(argv) -> tuple[int, str]:
    """Execute a CLI invocation; returns (exit_code, rendered output).  Non-finite values are left to the guards."""
    if not argv or argv[0] in ("-h", "--help", "help"):
        return (EXIT_OK if argv and argv[0] in ("-h", "--help", "help") else EXIT_USAGE, USAGE)
    if argv[0] not in _COMMANDS:
        return EXIT_USAGE, USAGE

    try:
        args = _build_parser().parse_args(argv)
    except argparse.ArgumentError:
        return EXIT_USAGE, USAGE
    if args.suite is not None and args.command != "verify":
        return EXIT_USAGE, USAGE  # only verify takes a positional

    try:
        scenario = _scenario_from_args(args)
        payload = _HANDLERS[args.command](args, scenario)
        failed = payload.get("pass") is False or payload.get("all_pass") is False
        exit_code = EXIT_ACCURACY if failed else EXIT_OK
        doc = make_document(args.command, scenario, payload)
        rendered = render_table(doc) if args.output == "table" else _serialize(doc)
        return exit_code, rendered
    except AccuracyFailure as exc:
        return EXIT_ACCURACY, f"accuracy failure: {exc}"
    except FiberquantError as exc:
        return EXIT_INVALID, f"error: {exc}"


def main(argv=None) -> int:
    code, output = run_command(sys.argv[1:] if argv is None else list(argv))
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # The reader closed stdout: the output is dropped, the exit code stays the command's, and stdout
        # goes to the null device so that the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
