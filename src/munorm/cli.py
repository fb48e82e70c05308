"""Command-line front-end: load JSON inputs, dispatch, emit JSON reports.

Exit codes: 0 success, 1 a verify suite found violations, 2 invalid
input (bad JSON, bad fields, failed preconditions), a result that
overflows a double, or a report that cannot be written, 3 a resource
cap was exceeded.  Reports are byte-identical across runs for the same
inputs, options, and seed.

Each command imports the layers it runs when it runs, so a process
loads and compiles only those.  A plain command line (a known command,
its own flags spelled in full, each once, with a value that does not
start with ``-``) is read from the command table; argparse is imported
only to answer help requests and every other command line, so it stays
the one source of usage and error text.  See "CLI start-up" in the
README.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

# Loaded with the CLI, not by its first command: perfbench reads numpy's
# import time from that of this module.
import numpy as np

from . import DEFAULT_TERM_CAP, CapExceeded

SCHEMA = "mu-norm-lab/1"


def _digest(path: str, data: bytes) -> dict:
    import hashlib

    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _check(name: str, value: float, tolerance: float) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance,
            "passed": bool(value <= tolerance)}


def _property(check) -> dict:
    """Record of a ``verify.PropertyCheck``; it names the worst instance only on a failure."""
    record = {"name": check.name, "trials": check.trials, "tolerance": check.tolerance,
              "max_violation": check.max_violation, "passed": check.passed}
    if check.worst is not None and not check.passed:
        record["worst"] = check.worst
    return record


#: ``--log-base`` -> factor that takes a value in nats to that base, and the unit's name.
_UNITS = {"e": (1.0, "nats"), "2": (1.0 / math.log(2.0), "bits")}


#: File flag -> builder of its input from the ``io`` module, the parsed JSON
#: and the inputs built before it, in the order the command lists its flags.
#: ``--op`` is a finite operator beside ``--space`` and a band operator alone.
_BUILDERS = {
    "space": lambda mio, obj, built: mio.space_from_obj(obj),
    "op": lambda mio, obj, built: (mio.operator_from_obj(obj, built["space"])
                                   if "space" in built else mio.bandop_from_obj(obj)),
    "partition": lambda mio, obj, built: mio.partition_from_obj(obj, built["space"].size),
    "endo": lambda mio, obj, built: mio.endomorphism_from_obj(obj, built["space"]),
    "basis": lambda mio, obj, built: mio.matrix_from_obj(obj, "basis"),
    "p": lambda mio, obj, built: mio.matrix_from_obj(obj, "transition matrix"),
    "dist": lambda mio, obj, built: mio.distribution_from_obj(obj),
    "seq": lambda mio, obj, built: mio.seq_from_obj(obj),
}


def _mu_norm(args, inputs):
    from .norm import m_chi, mu_norm_sq
    from .spaces import finest_partition

    op = inputs["op"]
    value = mu_norm_sq(op)
    gap = abs(value - m_chi(op, finest_partition(inputs["space"])))
    results = {"mu_norm_sq": value, "mu_norm": math.sqrt(value)}
    return results, {"checks": [_check("matches-finest-partition", gap,
                                       1e-10 * max(1.0, value))]}


def _m_chi(args, inputs):
    from .norm import m_chi, mu_norm_sq

    value = m_chi(inputs["op"], inputs["partition"])
    lower = mu_norm_sq(inputs["op"])
    results = {"m_chi": value, "mu_norm_sq": lower}
    return results, {"checks": [_check("dominates-mu-norm", lower - value,
                                       1e-10 * max(1.0, value))]}


def _mu_dim(args, inputs):
    from .norm import mu_dim

    value = mu_dim(inputs["space"], inputs["basis"], orthonormalize=args.orthonormalize)
    check = _check("within-unit-interval", max(-value, value - 1.0), 1e-10)
    return {"mu_dim": value}, {"checks": [check]}


def _entropy(args, inputs):
    from .entropy import ks_entropy_rate, quantum_entropy_rate

    chi = inputs["partition"]
    if "endo" in inputs:
        report = ks_entropy_rate(inputs["endo"], chi, args.N, term_cap=args.cap)
    else:
        report = quantum_entropy_rate(inputs["op"], chi, args.N, term_cap=args.cap)
    conv, unit = _UNITS[args.log_base]
    closed = report.closed_form
    results = {"lengths": list(report.lengths), "unit": unit,
               "values": [v * conv for v in report.values],
               "rates": [r * conv for r in report.rates],
               "differences": [d * conv for d in report.differences],
               "closed_form": None if closed is None else closed * conv}
    return results, {"term_cap": args.cap,
                     "paths_at_longest_horizon": len(chi.blocks) ** (args.N + 1)}


def _markov_rate(args, inputs):
    from .entropy import markov_entropy_rate

    conv, unit = _UNITS[args.log_base]
    rate = markov_entropy_rate(inputs["p"], inputs["dist"]) * conv
    return {"entropy_rate": rate, "unit": unit}, {}


def _trace_and_check(op) -> tuple[float, tuple[float, float], dict]:
    """Average trace, tail means and the diagnostics of the sliding-window check."""
    from .circle import ORACLE_WINDOW, _window_gap, avg_trace, tail_masses

    gap, bound = _window_gap(op)
    return avg_trace(op), tail_masses(op), {
        "window_length": ORACLE_WINDOW, "checks": [_check("window-oracle-agrees", gap, bound)]}


def _rho(args, inputs):
    value, (left, right), diagnostics = _trace_and_check(inputs["seq"])
    return {"rho": value, "left_mean": left, "right_mean": right}, diagnostics


def _conv(args, inputs):
    from .circle import dt_norm

    value, (left, right), diagnostics = _trace_and_check(inputs["seq"])
    return {"conv_norm": dt_norm(inputs["seq"]), "mu_norm_sq": value, "rho": value,
            "left_mean": left, "right_mean": right}, diagnostics


def _dt_norm(args, inputs):
    from .circle import dt_norm

    return {"dt_norm": dt_norm(inputs["op"])}, {}


def _dt_mu_norm(args, inputs):
    from .circle import dt_mu_norm_sq

    res = dt_mu_norm_sq(inputs["op"])
    results = {"quadrature": res.quadrature, "closed_form": res.closed_form}
    return results, {"checks": [_check("quadrature-matches-closed-form",
                                       abs(res.quadrature - res.closed_form),
                                       1e-10 * max(1.0, abs(res.quadrature)))]}


def _avg_trace(args, inputs):
    value, _, diagnostics = _trace_and_check(inputs["op"])
    return {"avg_trace": value}, diagnostics


def _verify(args, inputs):
    from . import verify

    checks = verify.run_suite(args.suite, args.trials, args.seed)
    results = {"suite": args.suite, "properties": [_property(c) for c in checks],
               "all_passed": all(c.passed for c in checks)}
    return results, {"trials": args.trials, "seed": args.seed}


#: Keyword arguments of each flag a command may take; every command takes ``--out``.
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
    "--cap": dict(type=int, default=DEFAULT_TERM_CAP, help="enumeration term cap"),
    "--log-base": dict(dest="log_base", choices=("e", "2"), default="e",
                       help="report entropies in nats (e) or bits (2)"),
    "--orthonormalize": dict(action="store_true", default=False,
                             help="orthonormalize the given spanning set first"),
    "--suite": dict(required=True,
                    help="suite name; see README or pass an unknown name to list them"),
    "--trials": dict(type=int, default=100),
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None, help="write the JSON report here"),
}

#: Command name -> (handler, help line, flags from ``_FLAGS``).  A handler
#: takes the parsed arguments and the built inputs by file flag, and
#: returns the report's results and diagnostics; each check it reports
#: carries its own tolerance, which no option sets.
_COMMANDS = {
    "mu-norm": (_mu_norm, "squared partition norm of an operator", ("--space", "--op")),
    "m-chi": (_m_chi, "partition functional at a given partition",
              ("--space", "--op", "--partition")),
    "mu-dim": (_mu_dim, "dimension of a subspace in the partition norm",
               ("--space", "--basis", "--orthonormalize")),
    "entropy": (_entropy, "operator path entropy per horizon",
                ("--space", "--op", "--partition", "--N", "--cap", "--log-base")),
    "ks-entropy": (_entropy, "measure entropy of a map per horizon",
                   ("--space", "--endo", "--partition", "--N", "--cap", "--log-base")),
    "markov-rate": (_markov_rate, "entropy rate of a Markov chain",
                    ("--p", "--dist", "--log-base")),
    "rho": (_rho, "window density of a sequence", ("--seq",)),
    "conv": (_conv, "convolution operator norms of a sequence", ("--seq",)),
    "dt-norm": (_dt_norm, "diagonal-type algebra norm", ("--op",)),
    "dt-mu-norm": (_dt_mu_norm, "squared partition norm of a band operator", ("--op",)),
    "avg-trace": (_avg_trace, "average trace of a band operator", ("--op",)),
    "verify": (_verify, "run a seeded property suite", ("--suite", "--trials", "--seed")),
}


def build_parser():
    """The argument parser of every command.

    It answers help requests and the command lines that ``_read_plain``
    does not take, and imports argparse (with ``gettext`` and, for its
    first message, ``locale``) when called, so a plain command line
    loads none of them.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="munorm",
        description="Partition-norm calculator for operators on finite spaces and the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag in (*flags, "--out"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Run one command; returns the exit code.

    With no ``argv`` this is the process's entry point (the ``munorm``
    script, ``python -m munorm.cli``): it reads ``sys.argv`` and calls
    ``gc.freeze()`` before the command and again on the way out, even
    through ``SystemExit``.  So the collections during the command skip
    the objects of numpy's import, and those of interpreter shutdown
    skip every object then alive; frozen objects are never collected,
    so a program that calls ``main()`` and carries on keeps them.  A
    caller that passes ``argv`` freezes nothing.
    """
    if argv is not None:
        return _run(argv)
    gc.freeze()
    try:
        return _run(sys.argv[1:])
    finally:
        gc.freeze()


def _read_plain(argv: list[str]):
    """The parsed arguments of a plain command line, as ``build_parser`` gives them; else None.

    Plain: a known command, then flags of that command or ``--out``, each
    spelled in full and given once, each value present, not starting
    with ``-``, of the flag's type and among its choices, and every
    required flag given.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = {f: _FLAGS[f] for f in (*_COMMANDS[argv[0]][2], "--out")}
    given, words = {}, iter(argv[1:])
    for flag in words:
        kw = flags.get(flag)
        if kw is None or flag in given:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
    if any(kw.get("required") and f not in given for f, kw in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], **{
        kw.get("dest", f[2:]): given.get(f, kw.get("default")) for f, kw in flags.items()})


def _run(argv: list[str]) -> int:
    args = _read_plain(argv) or build_parser().parse_args(argv)
    handler, _, flags = _COMMANDS[args.command]
    paths = {f[2:]: str(getattr(args, f[2:])) for f in flags if f[2:] in _BUILDERS}
    raw, inputs = {}, {}
    try:
        if paths:  # a command that reads no file need not load io
            from . import io as mio

            # a sum that overflows while an input is checked reads inf, and the check refuses it
            with mio.recording_inputs() as raw, np.errstate(over="ignore"):
                for name, path in paths.items():
                    inputs[name] = _BUILDERS[name](mio, mio.load_json(path), inputs)
        # a result that overflows a double is refused, and so is inf or NaN in the report
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            results, diagnostics = handler(args, inputs)
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "inputs": {name: _digest(path, raw[path]) for name, path in paths.items()},
            "options": {k: v for k, v in vars(args).items()
                        if k not in ("command", "out", *paths) and v is not None},
            "results": results,
            "diagnostics": diagnostics,
        }
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, ArithmeticError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify" and not results["all_passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
