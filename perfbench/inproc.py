"""In-process execution of a job list, untraced and traced.

    python perfbench/inproc.py JOBS.json SECONDS RESULT.json

Run with the work directory as the current directory.  Each round runs
every job once untraced and once with every public function of the
munorm layers wrapped in a span, then derives the per-layer metrics
from the spans.  Rounds repeat while another one is expected to end
within SECONDS.  Spans are kept in memory and written to ``spans.tsv``
when the run ends; the metrics of every round go to RESULT.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import traceback
from time import perf_counter

from munorm import cli

import libcalls

LAYERS = ("cli", "io", "spaces", "operators", "norm", "entropy", "circle", "verify")


def _terms(chi, horizons) -> int:
    k = len(chi.blocks)
    return sum(k ** (n + 1) for n in horizons)


#: Work done by one call, keyed by function name and computed from the
#: request alone, so a faster implementation cannot change the count.
#: Entropy terms are summed over the horizons asked of the call.
WORK = {
    "quantum_entropy_rate": lambda u, chi, n_max, *a, **k: _terms(chi, range(n_max + 1)),
    "quantum_entropy_at": lambda u, chi, n, *a, **k: _terms(chi, [n]),
    "path_mass_table": lambda u, chi, n, *a, **k: _terms(chi, [n]),
    "path_mass_total": lambda u, chi, n, *a, **k: _terms(chi, [n]),
    "ks_entropy_at": lambda endo, chi, n, *a, **k: _terms(chi, [n]),
    "ks_path_measure_table": lambda endo, chi, n, *a, **k: _terms(chi, [n]),
    # Named by ROADMAP item 2, which replaces the per-horizon CLI loop.
    "ks_entropy_rate": lambda endo, chi, n_max, *a, **k: _terms(chi, range(n_max + 1)),
    "m_chi": lambda w, chi: len(chi.blocks),
    "finite_section": lambda op, rows: len(rows) ** 2,
    "load_json": lambda path: os.path.getsize(path),
    "run_suite": lambda name, trials, seed: trials,
}
QUANTUM = {"quantum_entropy_rate", "quantum_entropy_at", "path_mass_table", "path_mass_total"}
KS = {"ks_entropy_at", "ks_path_measure_table", "ks_entropy_rate"}


def public_functions(module):
    """Functions a module exports: its ``__all__``, else its public names.

    Classes are left alone: rebinding a class would break isinstance
    checks, so the time of their methods counts to the calling function.
    """
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Wraps the layers' public functions and records one span per call.

    A span is ``[function id, start, end, parent span, job, failed, work]``.
    """

    def __init__(self):
        self.functions: list[tuple[str, str]] = []
        self.spans: list[list] = []
        self.job = -1
        self._open: list[int] = []
        self._wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"munorm.{layer}")
            for name, fn in public_functions(module):
                self._wrappers[fn] = self._wrap(fn, layer, name)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        fid = len(self.functions)
        self.functions.append((layer, name))
        work = WORK.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, 0.0, 0.0, open_[-1] if open_ else -1, self.job, False,
                    work(*args, **kwargs) if work else 0]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                open_.pop()
        return traced

    def install(self) -> None:
        """Rebind every wrapped function in every munorm namespace that binds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "munorm" and not modname.startswith("munorm."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def metrics(self, first: int, wall: float) -> dict:
        """Per-layer metrics of the spans recorded from index ``first`` on."""
        spans = self.spans
        layer_of = [self.functions[s[0]][0] for s in spans]
        name_of = [self.functions[s[0]][1] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        in_entropy = [False] * len(spans)
        for i in range(first, len(spans)):
            p = spans[i][3]
            if p >= 0:
                child[p] += dur[i]
                in_entropy[i] = in_entropy[p] or layer_of[p] == "entropy"
        out = {f"{layer}.{key}": 0.0 if key == "self_s" else 0
               for layer in LAYERS for key in ("calls", "self_s", "failed")}
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        work: dict[str, float] = {}
        for i in range(first, len(spans)):
            layer, name, p = layer_of[i], name_of[i], spans[i][3]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur[i] - child[i]
            if spans[i][5] and (p < 0 or layer_of[p] != layer):
                out[f"{layer}.failed"] += 1
            if name in QUANTUM or name in KS:
                if in_entropy[i]:
                    continue
                name = "quantum" if name in QUANTUM else "ks"
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            work[name] = work.get(name, 0) + spans[i][6]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        for family in ("quantum", "ks"):
            out[f"entropy.{family}.terms"] = work.get(family, 0)
            out[f"entropy.{family}.terms_per_s"] = rate(work.get(family, 0), total.get(family, 0.0))
        out["norm.m_chi.s"] = total.get("m_chi", 0.0)
        out["norm.m_chi.blocks"] = work.get("m_chi", 0)
        out["norm.m_chi.blocks_per_s"] = rate(work.get("m_chi", 0), total.get("m_chi", 0.0))
        out["operators.operator_norm.s"] = total.get("operator_norm", 0.0)
        out["operators.operator_norm.calls"] = calls.get("operator_norm", 0)
        out["circle.dt_mu_norm.s"] = total.get("dt_mu_norm_sq", 0.0)
        out["circle.dt_compose.s"] = total.get("dt_compose", 0.0)
        out["circle.finite_section.s"] = total.get("finite_section", 0.0)
        out["circle.finite_section.entries"] = work.get("finite_section", 0)
        out["circle.finite_section.entries_per_s"] = rate(work.get("finite_section", 0),
                                                          total.get("finite_section", 0.0))
        out["io.input_mb"] = work.get("load_json", 0) / 1e6
        out["io.mb_per_s"] = rate(out["io.input_mb"], out["io.self_s"])
        out["verify.trials"] = work.get("run_suite", 0)
        out["verify.trials_per_s"] = rate(work.get("run_suite", 0), total.get("run_suite", 0.0))
        out["trace.wall_s"] = wall
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("job\tfunction\tstart\tend\tparent\tfailed\n")
            for fid, start, end, parent, job, failed, _ in self.spans:
                layer, name = self.functions[fid]
                f.write(f"{job}\t{layer}.{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{int(failed)}\n")


def run_job(job: dict) -> tuple[int, str]:
    """Run one job in this process; returns the exit code and stdout."""
    entry = cli.main if job["kind"] == "cli" else libcalls.main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is reported as a failed job, not a failed run
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    return code, out.getvalue()


def main(argv: list[str]) -> int:
    jobs_path, seconds, result_path = argv[0], float(argv[1]), argv[2]
    with open(jobs_path, encoding="utf-8") as f:
        jobs = json.load(f)
    tracer = Tracer()
    rounds, outputs = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for i, job in enumerate(jobs):
            outputs.append([i, *run_job(job)])
        untraced = perf_counter() - t0

        first = len(tracer.spans)
        tracer.install()
        t0 = perf_counter()
        for i, job in enumerate(jobs):
            tracer.job = i
            outputs.append([i, *run_job(job)])
        traced = perf_counter() - t0
        tracer.uninstall()

        m = tracer.metrics(first, traced)
        m["trace.overhead_frac"] = traced / untraced - 1.0
        rounds.append(m)
        elapsed = perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    tracer.write_spans("spans.tsv")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"rounds": rounds, "outputs": outputs}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
