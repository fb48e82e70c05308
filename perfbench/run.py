"""End-to-end benchmark of the munorm CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the library is used from
``src/``.  Set-up draws the workload's inputs from the seed, writes them
as JSON under ``.perfbench_work/`` and makes one warm-up CLI call; it is
repeated and its median scaled time reported as ``setup_s``.

``--trace 0`` sends the workload's fixed job list through a closed loop
with one client: each job is a fresh interpreter, started only after the
previous one ended.  The list is cycled for about S seconds, and the
whole-list figures sum each job's median scaled time: its time divided
by that of a start-up probe run just before it, times a fixed nominal
probe time (see ``scaled``).  ``--trace 1`` runs the same jobs in one
process, untraced and then with every layer function wrapped in a span,
and reports per-layer metrics (see ``inproc.py``).  Set-up and jobs run
with one BLAS thread.

Every output is checked against an independent route (``jobs.py``).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any
check failed.  Machine facts and the input digest are printed on the
line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # set before numpy loads, for set-up and every job

import numpy as np  # noqa: E402

from jobs import WORKLOADS, Job  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CLI_ENTRY = "import sys; from munorm.cli import main; sys.exit(main())"
WARMUP = ["verify", "--suite", "closed-entropy", "--trials", "1", "--seed", "0"]
#: A bare interpreter importing numpy: fixed work that imports nothing of
#: munorm, run right before each job and before each set-up to gauge how
#: fast the host runs fresh processes at that moment.
STARTUP_PROBE = "import numpy"
#: The probe time the timed figures are scaled to (about its median on a
#: quiet 2-core x86-64 VM).
NOMINAL_PROBE_S = 0.2
SETUP_REPEATS = 5
PROBE_REPEATS = 5
JOB_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def command(job: Job) -> list[str]:
    if job.kind == "cli":
        return [sys.executable, "-c", CLI_ENTRY, *job.argv]
    return [sys.executable, str(BENCH_DIR / "libcalls.py"), *job.argv]


def spawn(argv: list[str], cwd: Path, env: dict) -> dict:
    """Run one process to completion; wall time, CPU time, peak RSS, exit code, stdout.

    A process still running after ``JOB_TIMEOUT_S`` is killed, and its
    exit code then fails the job's check.
    """
    out_path, err_path = cwd / "job.out", cwd / "job.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "out": out_path.read_text(encoding="utf-8", errors="replace")}


def setup(workload: str, seed: int, smoke: bool, env: dict) -> tuple[Path, list[Job]]:
    """Generate the inputs, write them and make one warm-up CLI call."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    jobs = WORKLOADS[workload](rng, work, smoke)
    (work / "jobs.json").write_text(
        json.dumps([{"name": j.name, "kind": j.kind, "argv": j.argv} for j in jobs]),
        encoding="utf-8")
    warm = spawn([sys.executable, "-c", CLI_ENTRY, *WARMUP], work, env)
    if warm["code"] != 0:
        raise SystemExit(f"warm-up CLI call failed with exit code {warm['code']}")
    return work, jobs


def input_digest(work: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(work.glob("*.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def startup_probe(work: Path, env: dict) -> dict:
    return spawn([sys.executable, "-c", STARTUP_PROBE], work, env)


def scaled(run: dict, key: str) -> float:
    """A time scaled to a host on which the start-up probe takes ``NOMINAL_PROBE_S``.

    The host's load can change the speed of fresh processes more than
    twofold within minutes, and the probe run just before the job moves
    with it.
    """
    return run[key] * NOMINAL_PROBE_S / run["probe_" + key]


def closed_loop(work: Path, jobs: list[Job], seconds: float, env: dict) -> list[list[dict]]:
    """Cycle through the job list, one job at a time, for about ``seconds``.

    Each job runs right after a start-up probe.  Every job runs at least
    once.  After that a job starts only if its previous duration and probe
    still fit, so the run ends near ``seconds``.  Returns the runs of each job.
    """
    runs: list[list[dict]] = [[] for _ in jobs]
    start = perf_counter()
    for i in itertools.cycle(range(len(jobs))):
        if runs[i] and (perf_counter() - start + runs[i][-1]["wall"]
                        + runs[i][-1]["probe_wall"] > seconds):
            return runs
        probe = startup_probe(work, env)
        run = spawn(command(jobs[i]), work, env)
        run["probe_wall"], run["probe_cpu"] = probe["wall"], probe["cpu"]
        runs[i].append(run)


def end_to_end(runs: list[list[dict]], setup_times: list[float]) -> dict:
    """Whole-list figures as sums over jobs of each job's median scaled time."""
    def per_job(key):
        return [statistics.median(scaled(r, key) for r in job_runs) for job_runs in runs]
    return {
        "wall_s": sum(per_job("wall")),
        "cpu_s": sum(per_job("cpu")),
        "job_p50_s": statistics.median(per_job("wall")),
        "peak_rss_mb": max(r["rss_mb"] for job_runs in runs for r in job_runs),
        "setup_s": statistics.median(setup_times),
    }


def import_times(stderr: str) -> tuple[float, float]:
    """Cumulative import time of munorm.cli and of numpy, from ``-X importtime``."""
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative["munorm.cli"], cumulative["numpy"]


def cli_probes(work: Path, env: dict) -> dict:
    """Median no-op CLI start-up and median import time of munorm.cli."""
    startup = [spawn([sys.executable, "-c", CLI_ENTRY, "--help"], work, env)["wall"]
               for _ in range(PROBE_REPEATS)]
    imports = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import munorm.cli"],
                              cwd=work, env=env, capture_output=True, text=True, check=True)
        imports.append(import_times(proc.stderr))
    return {"cli.startup_s": statistics.median(startup),
            "cli.import_s": statistics.median(m for m, _ in imports),
            "cli.import_numpy_s": statistics.median(n for _, n in imports)}


def traced(work: Path, seconds: float, env: dict):
    """Per-layer metrics from the in-process rounds, as medians over rounds."""
    result_path = work / "inproc.json"
    subprocess.run([sys.executable, str(BENCH_DIR / "inproc.py"), "jobs.json", str(seconds),
                    str(result_path)], cwd=work, env=env, check=True)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    rounds = result["rounds"]
    metrics = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        metrics[key] = statistics.median_low(values) if exact else statistics.median(values)
    return metrics, [tuple(o) for o in result["outputs"]]


LAYER_UNITS = {"calls": "count", "self_s": "s", "failed": "count", "terms": "count",
               "terms_per_s": "1/s", "blocks": "count", "blocks_per_s": "1/s", "s": "s",
               "entries": "count", "entries_per_s": "1/s", "startup_s": "s", "import_s": "s",
               "import_numpy_s": "s", "input_mb": "MB", "mb_per_s": "MB/s", "trials": "count",
               "trials_per_s": "1/s", "overhead_frac": "ratio", "wall_s": "s"}


def unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[1]]


def check_outputs(jobs: list[Job], outputs) -> list[str]:
    """One entry per failed job run; identical outputs are checked once."""
    verdicts: dict = {}
    failures = []
    for i, code, out in outputs:
        key = (i, code, out)
        if key not in verdicts:
            verdicts[key] = jobs[i].check(code, out)
        if verdicts[key] is not None:
            failures.append(f"{jobs[i].name}: {verdicts[key]}")
    return failures


def machine_facts(args, digest: str) -> dict:
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{config['name']} {config['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "munorm").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)), "git_commit": commit,
        "source_sha256": source.hexdigest(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "inputs_sha256": digest,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args()
    if not (SRC / "munorm" / "cli.py").is_file():
        print(f"error: no munorm sources under {SRC}", file=sys.stderr)
        return 2

    env = job_env()
    WORK.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        probe = startup_probe(WORK, env)
        t0 = perf_counter()
        work, jobs = setup(args.workload, args.seed, args.smoke, env)
        setup_times.append(scaled({"wall": perf_counter() - t0, "probe_wall": probe["wall"]},
                                  "wall"))
    digest = input_digest(work)

    start = perf_counter()
    if args.trace:
        metrics = cli_probes(work, env)
        layer_metrics, outputs = traced(work, args.seconds - (perf_counter() - start), env)
        metrics.update(layer_metrics)
    else:
        runs = closed_loop(work, jobs, args.seconds, env)
        for job, job_runs in zip(jobs, runs):
            print(f"  {job.name}: {len(job_runs)} runs, median wall "
                  f"{statistics.median(r['wall'] for r in job_runs):.4f} s, median start-up "
                  f"probe {statistics.median(r['probe_wall'] for r in job_runs):.4f} s, max RSS "
                  f"{max(r['rss_mb'] for r in job_runs):.1f} MB")
        (work / "runs.json").write_text(json.dumps(
            [{"name": job.name, "runs": [{k: v for k, v in r.items() if k != "out"}
                                         for r in job_runs]}
             for job, job_runs in zip(jobs, runs)]), encoding="utf-8")
        outputs = [(i, r["code"], r["out"]) for i, job_runs in enumerate(runs) for r in job_runs]
        metrics = end_to_end(runs, setup_times)
    failures = check_outputs(jobs, outputs)

    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(outputs)} jobs, {len(failures)} failed "
          f"(failed_frac {len(failures) / len(outputs):.4f})")
    print(json.dumps({"facts": machine_facts(args, digest)}, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": len(outputs), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
