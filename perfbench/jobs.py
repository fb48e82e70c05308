"""Workload inputs, job lists and output checks for the munorm benchmark.

Each workload function draws its inputs from a seeded generator, writes
them as JSON files into a work directory and returns the job list.  A
job is one ``munorm`` CLI call or one direct library call
(``libcalls.py``), run with the work directory as its current directory.
Every job carries a check that recomputes the reported numbers by an
independent route inside the benchmark, from the same doubles that were
written to the input files (Python's float repr round-trips exactly).

Inputs deliberately avoid what open ROADMAP items will change on
purpose: ``--quad`` (the quadrature floor), ``--trials 0``, booleans
given as numbers, the ``parseval-bridge``/``trace-bound`` suites and
``--suite all``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Tolerance the CLI reports state for their own checks.
REPORT_TOL = 1e-10
#: Tolerance for the entropy identities, summed over up to K^(N+1) paths.
ENTROPY_TOL = 1e-9


@dataclass
class Job:
    """One closed-loop request: a CLI call (``kind="cli"``) or a library call (``kind="lib"``)."""

    name: str
    kind: str
    argv: list[str]
    #: ``check(exit_code, stdout)`` returns None when the output is right,
    #: else a one-line reason.
    check: Callable[[int, str], str | None]


# ---------------------------------------------------------------------------
# Checks


def _close(got, want, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _report(code: int, out: str) -> dict:
    if code != 0:
        raise _Mismatch(f"exit code {code}, expected 0")
    return json.loads(out)


class _Mismatch(Exception):
    pass


def _checked(fn: Callable[[int, str], None]) -> Callable[[int, str], str | None]:
    """Turn a raising check into one that returns the reason."""
    def check(code: int, out: str) -> str | None:
        try:
            fn(code, out)
        except _Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        return None
    return check


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise _Mismatch(what)


def _expect_close(name: str, got, want, tol: float) -> None:
    _expect(_close(got, want, tol), f"{name}: got {got!r}, expected {want!r} (tol {tol:g})")


def _expect_checks_pass(report: dict) -> None:
    for c in report["diagnostics"].get("checks", []):
        _expect(c["passed"], f"report check {c['name']} failed")


def expect_exit(want_code: int) -> Callable[[int, str], str | None]:
    """A rejection job: only the exit code is specified."""
    def fn(code, out):
        _expect(code == want_code, f"exit code {code}, expected {want_code}")
    return _checked(fn)


# ---------------------------------------------------------------------------
# Independent reference routes


def ref_row_mass(mu: np.ndarray, w: np.ndarray) -> float:
    """Squared norm as the row-weighted entry mass."""
    return float(mu @ np.sum(np.abs(w) ** 2, axis=1))


def ref_m_chi(mu: np.ndarray, w: np.ndarray, blocks) -> float:
    """Partition functional from the weighted column submatrix of each block."""
    s = np.sqrt(mu)
    total = 0.0
    for y in blocks:
        sub = s[:, None] * w[:, y] / s[None, y]
        total += float(mu[y].sum()) * float(np.linalg.norm(sub, 2)) ** 2
    return total


def ref_path_entropies(u: np.ndarray, mu: np.ndarray, blocks, n_max: int) -> list[float]:
    """Path entropies for horizons 0..n_max by sub-block enumeration.

    A path prefix is kept as its ``|X_last| x |X_first|`` block instead of a
    dense ``J x J`` product, and every horizon is collected in one pass.
    """
    h = [0.0] * (n_max + 1)
    stack = [(0, b, np.eye(len(blocks[b]))) for b in range(len(blocks))]
    while stack:
        n, last, m = stack.pop()
        mass = float(mu[blocks[last]] @ np.sum(np.abs(m) ** 2, axis=1))
        if mass > 0.0:
            h[n] -= mass * math.log(mass)
        if n < n_max:
            for b in range(len(blocks)):
                stack.append((n + 1, b, u[np.ix_(blocks[b], blocks[last])] @ m))
    return h


def ref_unitary_rate(u: np.ndarray) -> float:
    """One-step rate ``-(1/J) sum |U|^2 log |U|^2`` of a unitary on a uniform space."""
    p = np.abs(u) ** 2
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)) / u.shape[0])


def ref_itinerary_entropies(table: np.ndarray, labels: np.ndarray, k: int,
                            n_max: int) -> list[float]:
    """Measure entropies on a uniform space by counting itinerary codes."""
    j = table.size
    code = np.zeros(j, dtype=np.int64)
    point = np.arange(j)
    out = []
    for n in range(n_max + 1):
        code = code * k + labels[point]
        point = table[point]
        _, counts = np.unique(code, return_counts=True)
        p = counts / j
        out.append(float(-np.sum(p * np.log(p))))
    return out


def ref_subspace_dim(mu: np.ndarray, vectors: np.ndarray) -> float:
    """mu-dimension of the span: ``sum_j mu_j |Q_j|^2`` for an orthonormal Q of D^(1/2) V."""
    q, _ = np.linalg.qr(np.sqrt(mu)[:, None] * vectors.T)
    return float(mu @ np.sum(np.abs(q) ** 2, axis=1))


def _shannon(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def ref_markov_rate(p: np.ndarray, nu: np.ndarray) -> float:
    """Entropy rate by the chain rule ``H(X0, X1) - H(X0)``."""
    return _shannon((nu[:, None] * p).ravel()) - _shannon(nu)


@dataclass
class Band:
    """A perturbed periodic band operator as plain arrays."""

    tau: int
    band: int
    coeffs: np.ndarray
    pert: list

    def to_obj(self) -> dict:
        return {"tau": self.tau, "band": self.band,
                "coeffs": [[[z.real, z.imag] for z in row] for row in self.coeffs.tolist()],
                "perturbation": [[r, c, [v.real, v.imag]] for r, c, v in self.pert]}

    @classmethod
    def from_obj(cls, obj: dict) -> "Band":
        coeffs = np.array([[complex(*z) for z in row] for row in obj["coeffs"]])
        pert = [(r, c, complex(*v)) for r, c, v in obj["perturbation"]]
        return cls(obj["tau"], obj["band"], coeffs, pert)

    def dense(self, rows: range, cols: range) -> np.ndarray:
        """Entries over ``rows x cols``, perturbations included."""
        r = np.arange(rows.start, rows.stop)[:, None]
        c = np.arange(cols.start, cols.stop)[None, :]
        d = np.broadcast_to(c - r, (r.size, c.size))
        inside = np.abs(d) <= self.band
        out = np.zeros(d.shape, dtype=complex)
        rr = np.broadcast_to(r % self.tau, d.shape)
        out[inside] = self.coeffs[rr[inside], d[inside] + self.band]
        for i, j, v in self.pert:
            if i in rows and j in cols:
                out[i - rows.start, j - cols.start] += v
        return out

    def dt_norm(self) -> float:
        """Sum over diagonals of the largest entry modulus on each."""
        sup = {-d: float(np.max(np.abs(self.coeffs[:, d + self.band])))
               for d in range(-self.band, self.band + 1)}
        for i, j, _ in self.pert:
            value = abs(complex(self.dense(range(i, i + 1), range(j, j + 1))[0, 0]))
            sup[i - j] = max(sup.get(i - j, 0.0), value)
        return sum(sup.values())

    def parseval(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2)) / self.tau


def section_digest(section: np.ndarray) -> dict:
    """Frobenius mass and a position-weighted sum of a square section."""
    n = section.shape[0]
    weights = np.outer(np.cos(0.37 * np.arange(n)), np.sin(0.71 * np.arange(n) + 0.3))
    z = complex(np.sum(section * weights))
    return {"rows": n, "fro2": float(np.sum(np.abs(section) ** 2)), "moment": [z.real, z.imag]}


# ---------------------------------------------------------------------------
# Input generation


def _write(directory: Path, name: str, obj) -> str:
    (directory / name).write_text(json.dumps(obj), encoding="utf-8")
    return name


def _matrix_obj(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _weights(rng, j: int) -> np.ndarray:
    raw = rng.uniform(0.5, 1.0, j)
    return raw / raw.sum()


def _gaussian(rng, shape, scale: float) -> np.ndarray:
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _unitary(rng, j: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (j, j), 1.0))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :].conj()


def _equal_blocks(rng, j: int, k: int) -> list[list[int]]:
    return [sorted(b.tolist()) for b in np.split(rng.permutation(j), k)]


def _band(rng, tau: int, band: int, perturbations: int) -> Band:
    coeffs = _gaussian(rng, (tau, 2 * band + 1), 1.0 / math.sqrt(2 * band + 1))
    pert = []
    for _ in range(perturbations):
        r = int(rng.integers(-12, 13))
        c = int(rng.integers(r - band - 2, r + band + 3))
        pert.append((r, c, complex(_gaussian(rng, 1, 0.5)[0])))
    return Band(tau, band, coeffs, pert)


def _seq(rng, period: int, k0: int) -> dict:
    left = _gaussian(rng, int(rng.integers(1, period + 1)), 1.0)
    right = _gaussian(rng, int(rng.integers(1, period + 1)), 1.0)
    middle = {str(k): [z.real, z.imag]
              for k, z in zip(range(1 - k0, k0), _gaussian(rng, 2 * k0 - 1, 1.0))}
    return {"left": [[z.real, z.imag] for z in left], "right": [[z.real, z.imag] for z in right],
            "middle": middle, "k0": k0}


def _mu_norm_job(rng, d: Path, tag: str, j: int) -> Job:
    mu, w = _weights(rng, j), _gaussian(rng, (j, j), 1.0 / math.sqrt(j))
    space = _write(d, f"space-{tag}.json", {"weights": mu.tolist()})
    op = _write(d, f"op-{tag}.json", _matrix_obj(w))

    def fn(code, out):
        rep = _report(code, out)
        _expect_checks_pass(rep)
        _expect_close("mu_norm_sq", rep["results"]["mu_norm_sq"], ref_row_mass(mu, w), REPORT_TOL)
    return Job(f"mu-norm-J{j}", "cli", ["mu-norm", "--space", space, "--op", op], _checked(fn))


def _m_chi_job(rng, d: Path, j: int, k: int) -> Job:
    mu, w = _weights(rng, j), _gaussian(rng, (j, j), 1.0 / math.sqrt(j))
    blocks = _equal_blocks(rng, j, k)
    space = _write(d, "space-mchi.json", {"weights": mu.tolist()})
    op = _write(d, "op-mchi.json", _matrix_obj(w))
    chi = _write(d, "chi-mchi.json", {"blocks": [[i + 1 for i in b] for b in blocks]})

    def fn(code, out):
        rep = _report(code, out)
        _expect_checks_pass(rep)
        res = rep["results"]
        _expect_close("m_chi", res["m_chi"], ref_m_chi(mu, w, blocks), REPORT_TOL)
        _expect_close("mu_norm_sq", res["mu_norm_sq"], ref_row_mass(mu, w), REPORT_TOL)
    return Job(f"m-chi-J{j}-K{k}", "cli",
               ["m-chi", "--space", space, "--op", op, "--partition", chi], _checked(fn))


def _entropy_files(rng, d: Path, tag: str, j: int, blocks) -> tuple[np.ndarray, list[str]]:
    u = _unitary(rng, j)
    space = _write(d, f"space-{tag}.json", {"weights": [1.0 / j] * j})
    op = _write(d, f"op-{tag}.json", _matrix_obj(u))
    chi = _write(d, f"chi-{tag}.json", {"blocks": [[i + 1 for i in b] for b in blocks]})
    return u, ["--space", space, "--op", op, "--partition", chi]


def _expect_entropy(rep: dict, want: list[float], rate: float) -> None:
    got = rep["results"]["values"]
    _expect(len(got) == len(want), f"{len(got)} horizons reported, expected {len(want)}")
    for n, (g, w) in enumerate(zip(got, want)):
        _expect_close(f"entropy value at horizon {n}", g, w, ENTROPY_TOL)
    _expect_close("closed_form", rep["results"]["closed_form"], rate, ENTROPY_TOL)


def finite_large(rng, d: Path, smoke: bool) -> list[Job]:
    """Few long CLI jobs on multi-MB inputs: the finite-space kernels."""
    j_mid, j_big, j_ent, j_fine, j_ks = (8, 12, 8, 3, 64) if smoke else (128, 256, 64, 8, 4096)
    n_ent, n_fine, n_ks = (3, 3, 4) if smoke else (6, 4, 7)
    jobs = [_mu_norm_job(rng, d, "mid", j_mid), _mu_norm_job(rng, d, "big", j_big),
            _m_chi_job(rng, d, j_big, 4 if smoke else 8)]

    blocks = _equal_blocks(rng, j_ent, 4)
    u, files = _entropy_files(rng, d, "coarse", j_ent, blocks)
    mu = np.full(j_ent, 1.0 / j_ent)

    def coarse(code, out, u=u, blocks=blocks):
        _expect_entropy(_report(code, out), ref_path_entropies(u, mu, blocks, n_ent),
                        ref_unitary_rate(u))
    jobs.append(Job(f"entropy-J{j_ent}-K4-N{n_ent}", "cli",
                    ["entropy", *files, "--N", str(n_ent)], _checked(coarse)))

    u8, files8 = _entropy_files(rng, d, "finest", j_fine, [[i] for i in range(j_fine)])

    def finest(code, out, u=u8):
        h = ref_unitary_rate(u)
        _expect_entropy(_report(code, out), [math.log(j_fine) + n * h for n in range(n_fine + 1)],
                        h)
    jobs.append(Job(f"entropy-finest-J{j_fine}-N{n_fine}", "cli",
                    ["entropy", *files8, "--N", str(n_fine)], _checked(finest)))
    jobs.append(Job("entropy-cap-exceeded", "cli",
                    ["entropy", *files8, "--N", str(n_fine),
                     "--cap", str(j_fine ** (n_fine + 1) - 1)], expect_exit(3)))

    table = rng.permutation(j_ks)
    labels = rng.integers(0, 4, j_ks)
    labels[:4] = np.arange(4)  # every block nonempty
    space = _write(d, "space-ks.json", {"weights": [1.0 / j_ks] * j_ks})
    endo = _write(d, "endo-ks.json", {"map": (table + 1).tolist()})
    chi = _write(d, "chi-ks.json",
                 {"blocks": [(np.nonzero(labels == b)[0] + 1).tolist() for b in range(4)]})

    def ks(code, out):
        got = _report(code, out)["results"]["values"]
        want = ref_itinerary_entropies(table, labels, 4, n_ks)
        _expect(len(got) == len(want), "wrong number of horizons")
        for n, (g, w) in enumerate(zip(got, want)):
            _expect_close(f"ks value at horizon {n}", g, w, REPORT_TOL)
    jobs.append(Job(f"ks-entropy-J{j_ks}-K4-N{n_ks}", "cli",
                    ["ks-entropy", "--space", space, "--endo", endo, "--partition", chi,
                     "--N", str(n_ks)], _checked(ks)))

    mu_d = _weights(rng, j_big)
    vectors = _gaussian(rng, (j_big // 4, j_big), 1.0)
    space = _write(d, "space-dim.json", {"weights": mu_d.tolist()})
    basis = _write(d, "basis-dim.json", _matrix_obj(vectors))

    def dim(code, out):
        rep = _report(code, out)
        _expect_checks_pass(rep)
        _expect_close("mu_dim", rep["results"]["mu_dim"], ref_subspace_dim(mu_d, vectors),
                      REPORT_TOL)
    jobs.append(Job(f"mu-dim-J{j_big}", "cli",
                    ["mu-dim", "--space", space, "--basis", basis, "--orthonormalize"],
                    _checked(dim)))

    p = rng.uniform(0.0, 1.0, (j_big, j_big))
    p /= p.sum(axis=1, keepdims=True)
    nu = _weights(rng, j_big)
    pfile = _write(d, "p-markov.json", {"re": p.tolist()})
    dist = _write(d, "dist-markov.json", {"weights": nu.tolist()})

    def markov(code, out):
        _expect_close("entropy_rate", _report(code, out)["results"]["entropy_rate"],
                      ref_markov_rate(p, nu), REPORT_TOL)
    jobs.append(Job(f"markov-rate-J{j_big}", "cli",
                    ["markov-rate", "--p", pfile, "--dist", dist], _checked(markov)))
    return jobs


def _band_jobs(d: Path, tag: str, op: Band, commands) -> list[Job]:
    path = _write(d, f"band-{tag}.json", op.to_obj())

    def dt_norm(code, out):
        _expect_close("dt_norm", _report(code, out)["results"]["dt_norm"], op.dt_norm(),
                      REPORT_TOL)

    def avg_trace(code, out):
        _expect_close("avg_trace", _report(code, out)["results"]["avg_trace"], op.parseval(),
                      REPORT_TOL)

    def mu_norm(code, out):
        rep = _report(code, out)
        _expect_checks_pass(rep)
        for key in ("quadrature", "closed_form"):
            _expect_close(key, rep["results"][key], op.parseval(), REPORT_TOL)

    checks = {"dt-norm": dt_norm, "avg-trace": avg_trace, "dt-mu-norm": mu_norm}
    return [Job(f"{cmd}-{tag}", "cli", [cmd, "--op", path], _checked(checks[cmd]))
            for cmd in commands]


def _seq_jobs(rng, d: Path, tag: str, period: int, k0: int) -> list[Job]:
    obj = _seq(rng, period, k0)
    path = _write(d, f"seq-{tag}.json", obj)

    def tail_mean(key):
        return float(np.mean([abs(complex(*z)) ** 2 for z in obj[key]]))

    rho = max(tail_mean("left"), tail_mean("right"))
    sup = max(abs(complex(*z)) for z in obj["left"] + obj["right"] + list(obj["middle"].values()))

    def rho_check(code, out):
        rep = _report(code, out)
        _expect_checks_pass(rep)
        _expect_close("rho", rep["results"]["rho"], rho, REPORT_TOL)

    def conv_check(code, out):
        res = _report(code, out)["results"]
        for key in ("rho", "mu_norm_sq"):
            _expect_close(key, res[key], rho, REPORT_TOL)
        _expect_close("conv_norm", res["conv_norm"], sup, REPORT_TOL)
    return [Job(f"rho-{tag}", "cli", ["rho", "--seq", path], _checked(rho_check)),
            Job(f"conv-{tag}", "cli", ["conv", "--seq", path], _checked(conv_check))]


def _verify_job(suite: str, trials: int, seed: int) -> Job:
    def fn(code, out):
        rep = _report(code, out)
        _expect(rep["results"]["all_passed"] is True, f"suite {suite} reported a violation")
        _expect(all(p["trials"] > 0 for p in rep["results"]["properties"]),
                f"suite {suite} ran a property on no instance")
    return Job(f"verify-{suite}", "cli",
               ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed)],
               _checked(fn))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def circle_band(rng, d: Path, smoke: bool) -> list[Job]:
    """The circle layer and the CLI floor: short band/sequence jobs plus heavy library jobs."""
    shapes = [(8, 8), (32, 32), (16, 64), (128, 128)]
    if smoke:
        shapes = [(2, 2), (3, 3), (2, 4), (4, 4)]
    ops = [_band(rng, tau, band, 4) for tau, band in shapes]
    jobs = _band_jobs(d, "a", ops[0], ["dt-norm", "dt-mu-norm"])
    jobs += _band_jobs(d, "b", ops[1], ["avg-trace", "dt-mu-norm"])
    jobs += _band_jobs(d, "c", ops[2], ["dt-mu-norm"])
    # The largest operator stays out of dt-mu-norm: its quadrature grid alone would need ~600 MB.
    jobs += _band_jobs(d, "d", ops[3], ["dt-norm", "avg-trace"])
    jobs += _seq_jobs(rng, d, "short", 4, 3) + _seq_jobs(rng, d, "long", 16, 8)

    trials = {"dt-star-algebra": 150, "norm-chain": 100, "trace-invariance": 200,
              "rho-oracle": 100, "w-symbol-bound": 500, "rho-la-continuity": 400}
    for suite, t in trials.items():
        jobs.append(_verify_job(suite, 2 if smoke else t, _seed(rng)))

    half, product_band = (2, 4) if smoke else (32, 64)
    a = _band(rng, 8 if not smoke else 2, half, 6)
    b = _band(rng, 16 if not smoke else 3, product_band - half, 6)
    rows = 16 if smoke else 1024
    fa, fb = _write(d, "band-left.json", a.to_obj()), _write(d, "band-right.json", b.to_obj())

    def product(code, out):
        rep = _report(code, out)
        c = Band.from_obj(rep["product"])
        _expect(c.band == product_band, f"product band {c.band}, expected {product_band}")
        reach = a.band + 2  # perturbations sit at most two diagonals outside the band
        window, wide = range(-80, 81), range(-80 - reach, 81 + reach)
        want = a.dense(window, wide) @ b.dense(wide, window)
        err = float(np.max(np.abs(c.dense(window, window) - want)))
        _expect(err <= REPORT_TOL, f"product entries off by {err:.3e}")
        ref = section_digest(c.dense(range(-rows // 2, rows // 2), range(-rows // 2, rows // 2)))
        got = rep["section"]
        _expect(got["rows"] == rows, "wrong section size")
        _expect_close("section fro2", got["fro2"], ref["fro2"], REPORT_TOL)
        for g, w in zip(got["moment"], ref["moment"]):
            _expect_close("section moment", g, w, REPORT_TOL)
    jobs.append(Job("lib-band-product", "lib", ["band-product", fa, fb, str(rows)],
                    _checked(product)))

    big = _band(rng, 2 if smoke else 64, 4 if smoke else 128, 4)
    fbig = _write(d, "band-big.json", big.to_obj())

    def big_norm(code, out):
        rep = _report(code, out)
        for key in ("quadrature", "closed_form"):
            _expect_close(key, rep[key], big.parseval(), REPORT_TOL)
    jobs.append(Job("lib-band-mu-norm", "lib", ["band-mu-norm", fbig], _checked(big_norm)))

    (d / "band-malformed.json").write_text('{"tau": 1, "band": 1, "coeffs": [[', encoding="utf-8")
    jobs.append(Job("dt-norm-malformed", "cli", ["dt-norm", "--op", "band-malformed.json"],
                    expect_exit(2)))
    return jobs


#: Finite-space suites of verify-small with trial counts of about half a
#: second each on one core.
VERIFY_SMALL_TRIALS = {
    "invariance-battery": 250, "finest-formula": 300, "partition-monotone": 600,
    "projector-product": 1200, "operator-identities": 600, "koopman-bridge": 600,
    "entropy-normalization": 100, "closed-entropy": 1000, "cyclic-dimension": 1200,
}


def verify_small(rng, d: Path, smoke: bool) -> list[Job]:
    """Thousands of small-J calls into norm, operators and entropy; no input files."""
    return [_verify_job(suite, (12 if suite == "cyclic-dimension" else 2) if smoke else t,
                        _seed(rng))
            for suite, t in VERIFY_SMALL_TRIALS.items()]


WORKLOADS = {"finite-large": finite_large, "circle-band": circle_band,
             "verify-small": verify_small}
