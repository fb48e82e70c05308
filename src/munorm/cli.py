"""Command-line front-end: load JSON inputs, dispatch, emit JSON reports.

Exit codes: 0 success, 1 a verify suite found violations, 2 invalid
input (bad JSON, bad fields, failed preconditions), 3 a resource cap was
exceeded.  Reports are byte-identical across runs for the same inputs,
options, and seed.

Each command imports the layers it runs when it runs, so a process
loads and compiles only those; see "CLI start-up" in the README.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DEFAULT_TERM_CAP, CapExceeded

SCHEMA = "mu-norm-lab/1"


def _digest(path: str, data: bytes) -> dict:
    import hashlib

    return {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _check(name: str, value: float, tolerance: float) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance,
            "passed": bool(value <= tolerance)}


def _load_space(args):
    from . import io as mio

    return mio.space_from_obj(mio.load_json(args.space))


def _cmd_mu_norm(args):
    from . import io as mio
    from .norm import m_chi, mu_norm_sq
    from .spaces import finest_partition

    space = _load_space(args)
    op = mio.operator_from_obj(mio.load_json(args.op), space)
    value = mu_norm_sq(op)
    tol = args.tol if args.tol is not None else 1e-10
    gap = abs(value - m_chi(op, finest_partition(space)))
    results = {"mu_norm_sq": value, "mu_norm": math.sqrt(value)}
    diagnostics = {"checks": [_check("matches-finest-partition", gap, tol)]}
    return {"space": args.space, "op": args.op}, results, diagnostics


def _cmd_m_chi(args):
    from . import io as mio
    from .norm import m_chi, mu_norm_sq

    space = _load_space(args)
    op = mio.operator_from_obj(mio.load_json(args.op), space)
    chi = mio.partition_from_obj(mio.load_json(args.partition), space.size)
    value = m_chi(op, chi)
    lower = mu_norm_sq(op)
    tol = args.tol if args.tol is not None else 1e-10
    results = {"m_chi": value, "mu_norm_sq": lower}
    diagnostics = {"checks": [_check("dominates-mu-norm", lower - value, tol)]}
    return {"space": args.space, "op": args.op, "partition": args.partition}, results, diagnostics


def _cmd_mu_dim(args):
    from . import io as mio
    from .norm import mu_dim

    space = _load_space(args)
    vectors = mio.matrix_from_obj(mio.load_json(args.basis), "basis")
    value = mu_dim(space, list(vectors), orthonormalize=args.orthonormalize)
    tol = args.tol if args.tol is not None else 1e-10
    results = {"mu_dim": value}
    diagnostics = {"checks": [_check("within-unit-interval",
                                     max(-value, value - 1.0), tol)]}
    return {"space": args.space, "basis": args.basis}, results, diagnostics


def _cmd_entropy(args):
    from . import io as mio
    from .entropy import quantum_entropy_rate

    space = _load_space(args)
    op = mio.operator_from_obj(mio.load_json(args.op), space)
    chi = mio.partition_from_obj(mio.load_json(args.partition), space.size)
    report = quantum_entropy_rate(op, chi, args.N, term_cap=args.cap)
    results = report.to_dict(args.log_base)
    diagnostics = {"term_cap": args.cap,
                   "paths_at_longest_horizon": len(chi.blocks) ** (args.N + 1)}
    return {"space": args.space, "op": args.op, "partition": args.partition}, results, diagnostics


def _cmd_ks_entropy(args):
    from . import io as mio
    from .entropy import ks_entropy_rate

    space = _load_space(args)
    endo = mio.endomorphism_from_obj(mio.load_json(args.endo), space)
    chi = mio.partition_from_obj(mio.load_json(args.partition), space.size)
    results = ks_entropy_rate(endo, chi, args.N, term_cap=args.cap).to_dict(args.log_base)
    diagnostics = {"term_cap": args.cap,
                   "paths_at_longest_horizon": len(chi.blocks) ** (args.N + 1)}
    return {"space": args.space, "endo": args.endo, "partition": args.partition}, results, diagnostics


def _cmd_markov_rate(args):
    from . import io as mio
    from .entropy import log_unit, markov_entropy_rate

    p = mio.matrix_from_obj(mio.load_json(args.p), "transition matrix")
    if np.max(np.abs(p.imag)) > 0:
        raise ValueError("transition matrix must be real")
    nu = mio.distribution_from_obj(mio.load_json(args.dist))
    conv, unit = log_unit(args.log_base)
    results = {"entropy_rate": markov_entropy_rate(p.real, nu) * conv, "unit": unit}
    return {"p": args.p, "dist": args.dist}, results, {}


def _cmd_rho(args):
    from . import io as mio
    from .circle import rho, rho_window_max

    seq = mio.seq_from_obj(mio.load_json(args.seq))
    value = rho(seq)
    window = 10**4
    brute = rho_window_max(seq, window)
    tol = args.tol if args.tol is not None else 1e-2
    results = {"rho": value, "left_mean": seq.left_mean, "right_mean": seq.right_mean}
    diagnostics = {"window_length": window,
                   "checks": [_check("window-oracle-agrees", abs(value - brute), tol)]}
    return {"seq": args.seq}, results, diagnostics


def _cmd_conv(args):
    from . import io as mio
    from .circle import conv_norm, rho

    seq = mio.seq_from_obj(mio.load_json(args.seq))
    results = {
        "conv_norm": conv_norm(seq),
        "mu_norm_sq": rho(seq),
        "rho": rho(seq),
        "left_mean": seq.left_mean,
        "right_mean": seq.right_mean,
    }
    return {"seq": args.seq}, results, {}


def _cmd_dt_norm(args):
    from . import io as mio
    from .circle import dt_norm

    op = mio.bandop_from_obj(mio.load_json(args.op))
    return {"op": args.op}, {"dt_norm": dt_norm(op)}, {}


def _cmd_dt_mu_norm(args):
    from . import io as mio
    from .circle import dt_mu_norm_sq

    op = mio.bandop_from_obj(mio.load_json(args.op))
    res = dt_mu_norm_sq(op, quad_points=args.quad)
    tol = args.tol if args.tol is not None else 1e-10
    results = {"quadrature": res.quadrature, "closed_form": res.closed_form}
    diagnostics = {"checks": [_check("quadrature-matches-closed-form",
                                     abs(res.quadrature - res.closed_form), tol)]}
    return {"op": args.op}, results, diagnostics


def _cmd_avg_trace(args):
    from . import io as mio
    from .circle import avg_trace, avg_trace_window

    op = mio.bandop_from_obj(mio.load_json(args.op))
    value = avg_trace(op)
    window = 1024
    finite = avg_trace_window(op, 0, window - 1)
    results = {"avg_trace": value}
    diagnostics = {"window_length": window, "window_average": finite}
    return {"op": args.op}, results, diagnostics


def _cmd_verify(args):
    from . import verify

    checks = verify.run_suite(args.suite, args.trials, args.seed)
    if args.tol is not None:
        for c in checks:
            c.tolerance = args.tol
    results = {
        "suite": args.suite,
        "properties": [c.to_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    return {}, results, {"trials": args.trials, "seed": args.seed}


#: Keyword arguments of each flag a command may take.
_FLAGS = {
    "--space": dict(required=True, help="space JSON file"),
    "--op": dict(required=True, help="operator JSON file"),
    "--partition": dict(required=True, help="partition JSON file"),
    "--seq": dict(required=True, help="sequence JSON file"),
    "--endo": dict(required=True, help="endomorphism JSON file"),
    "--basis": dict(required=True, help="JSON matrix whose rows are basis vectors"),
    "--dist": dict(required=True, help="distribution JSON file"),
    "--p": dict(required=True, help="transition matrix JSON file"),
    "--N": dict(type=int, required=True, help="largest horizon"),
    "--quad": dict(type=int, default=None, help="quadrature points"),
    "--cap": dict(type=int, default=DEFAULT_TERM_CAP, help="enumeration term cap"),
    "--log-base": dict(dest="log_base", choices=("e", "2"), default="e",
                       help="report entropies in nats (e) or bits (2)"),
    "--orthonormalize": dict(action="store_true",
                             help="orthonormalize the given spanning set first"),
    "--tol": dict(type=float, default=None, help="override check tolerance"),
}

#: Command name -> (handler, help line, flags from ``_FLAGS``).
_COMMANDS = {
    "mu-norm": (_cmd_mu_norm, "squared partition norm of an operator",
                ("--space", "--op", "--tol")),
    "m-chi": (_cmd_m_chi, "partition functional at a given partition",
              ("--space", "--op", "--partition", "--tol")),
    "mu-dim": (_cmd_mu_dim, "dimension of a subspace in the partition norm",
               ("--space", "--basis", "--orthonormalize", "--tol")),
    "entropy": (_cmd_entropy, "operator path entropy per horizon",
                ("--space", "--op", "--partition", "--N", "--cap", "--log-base")),
    "ks-entropy": (_cmd_ks_entropy, "measure entropy of a map per horizon",
                   ("--space", "--endo", "--partition", "--N", "--cap", "--log-base")),
    "markov-rate": (_cmd_markov_rate, "entropy rate of a Markov chain",
                    ("--p", "--dist", "--log-base")),
    "rho": (_cmd_rho, "window density of a sequence", ("--seq", "--tol")),
    "conv": (_cmd_conv, "convolution operator norms of a sequence", ("--seq",)),
    "dt-norm": (_cmd_dt_norm, "diagonal-type algebra norm", ("--op",)),
    "dt-mu-norm": (_cmd_dt_mu_norm, "squared partition norm of a band operator",
                   ("--op", "--quad", "--tol")),
    "avg-trace": (_cmd_avg_trace, "average trace of a band operator", ("--op",)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; given a command name, with only that command's subparser.

    A call dispatches one command, so building only its subparser halves
    the cost of the parser.  The usage line names every command either
    way, and without a known command all are built, so help and error
    output do not depend on the filter.
    """
    parser = argparse.ArgumentParser(
        prog="munorm",
        description="Partition-norm calculator for operators on finite spaces and the circle.",
    )
    names = [*_COMMANDS, "verify"]
    only = command in names
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(names) + "}" if only else None)
    for name in [command] if only else names:
        if name == "verify":
            pv = sub.add_parser("verify", help="run a seeded property suite")
            pv.add_argument("--suite", required=True,
                            help="suite name; see README or pass an unknown name to list them")
            pv.add_argument("--trials", type=int, default=100)
            pv.add_argument("--seed", type=int, default=0)
            pv.add_argument("--tol", type=float, default=None, help="override every tolerance")
            pv.add_argument("--out", default=None)
            continue
        _, help_, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _recording_inputs(command: str):
    """Context yielding the bytes of every input file the command parses, by path."""
    if command == "verify":  # reads no file, so need not load io
        return contextlib.nullcontext({})
    from . import io as mio

    return mio.recording_inputs()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    handler = _cmd_verify if args.command == "verify" else _COMMANDS[args.command][0]
    try:
        with _recording_inputs(args.command) as inputs:
            input_paths, results, diagnostics = handler(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    options = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "out") and k not in input_paths and v is not None
    }
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": {name: _digest(path, inputs[str(path)]) for name, path in input_paths.items()},
        "options": options,
        "results": results,
        "diagnostics": diagnostics,
    }
    _emit(report, args.out)
    if args.command == "verify" and not results["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
