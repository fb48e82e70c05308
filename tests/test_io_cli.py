import enum
import gc
import itertools
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import munorm
from munorm import (
    Endomorphism,
    FiniteMeasureSpace,
    Partition,
    PeriodicBandOperator,
    dt_from_seq,
)
from munorm import io as mio
from munorm.cli import _BUILDERS, _COMMANDS, _FLAGS, _read_plain, build_parser, main
from munorm.verify import SUITES, run_suite, suite_names


# --------------------------------------------------------------------------
# readers and the band writer


def test_bandop_round_trip():
    op = PeriodicBandOperator(2, 1, [[1, 2j, 0], [0, 1, -1]], [(3, 4, 0.5j)])
    obj = mio.bandop_to_obj(op)
    assert "left" not in obj  # one tail writes the band form unchanged
    back = mio.bandop_from_obj(obj)
    np.testing.assert_array_equal(back.coeffs, op.coeffs)
    assert back.perturbation == op.perturbation and len(back.tails) == 1
    two = PeriodicBandOperator(2, 1, op.coeffs, op.perturbation, left=(1, [[0.5, 0, 1j]]))
    obj = mio.bandop_to_obj(two)
    assert obj["left"] == {"tau": 1, "coeffs": [[[0.5, 0.0], [0.0, 0.0], [0.0, 1.0]]]}
    back = mio.bandop_from_obj(json.loads(json.dumps(obj)))
    assert back.left[0] == 1 and back.left[1].tobytes() == two.left[1].tobytes()
    np.testing.assert_array_equal(finite_section_of(back), finite_section_of(two))
    # a left pattern equal to the right one keeps one tail
    assert "left" not in mio.bandop_to_obj(mio.bandop_from_obj({**obj, "left": {
        "tau": 2, "coeffs": obj["coeffs"]}}))


def finite_section_of(op):
    return munorm.finite_section(op, range(-6, 7))


def test_bandop_array_path_matches_per_entry_path():
    # band coefficients and sequence tails read pairs, bare reals and a mix
    # of the two into the same bytes, signed zeros included
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    coeffs[rng.random((3, 5)) < 0.4] = rng.standard_normal()  # some real entries
    coeffs[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    coeffs[1, 0] = -0.0
    pairs = [[[z.real, z.imag] for z in row] for row in coeffs.tolist()]
    mixed = [[z.real if z.imag == 0 and math.copysign(1.0, z.imag) > 0 else [z.real, z.imag]
              for z in row] for row in coeffs.tolist()]
    reals = coeffs.real.tolist()
    real_pairs = [[[x, 0.0] for x in row] for row in reals]
    mixed_reals = [[x if j % 2 else [x, 0.0] for j, x in enumerate(row)] for row in reals]
    readers = [
        lambda t: mio.bandop_from_obj({"tau": 3, "band": 2, "coeffs": t}).coeffs,
        lambda t: mio.seq_from_obj({"left": sum(t, [])[:1], "right": sum(t, [])}).coeffs[:, 0],
    ]
    for read in readers:
        assert read(pairs).tobytes() == read(mixed).tobytes() == coeffs.tobytes()
        tables = [read(t).tobytes() for t in (reals, real_pairs, mixed_reals)]
        assert tables[0] == tables[1] == tables[2] == coeffs.real.astype(complex).tobytes()


def test_large_mixed_table_reads_as_its_pairs():
    # a 128 x 257 table (band 128, the caps) of bare reals, pairs and signed
    # zeros reads to the bytes of its all-pairs form in one pass
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((128, 257)) + 1j * rng.standard_normal((128, 257))
    real = rng.random(coeffs.shape) < 0.5
    coeffs[real] = coeffs[real].real
    zero = rng.random(coeffs.shape) < 0.1
    signed = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j])
    coeffs[zero] = signed[rng.integers(0, 4, zero.sum())]
    pairs = [[[z.real, z.imag] for z in row] for row in coeffs.tolist()]
    mixed = [[z.real if math.copysign(1.0, z.imag) > 0 and z.imag == 0 else [z.real, z.imag]
              for z in row] for row in coeffs.tolist()]
    assert 0.4 < sum(isinstance(z, float) for row in mixed for z in row) / coeffs.size < 0.6
    band = [mio.bandop_from_obj({"tau": 128, "band": 128, "coeffs": t}).coeffs.tobytes()
            for t in (pairs, mixed)]
    assert band[0] == band[1] == coeffs.tobytes()
    # a sequence's period is capped at 128 entries: read the table by columns
    for j in range(0, 257, 16):
        col = [[row[j] for row in t] for t in (pairs, mixed)]
        seq = [mio.seq_from_obj({"left": c[:1], "right": c}).coeffs.tobytes() for c in col]
        assert seq[0] == seq[1] == coeffs[:, j].tobytes()


def test_library_reads_tuple_pairs():
    # pairs given as Python tuples read as list pairs do, alone or mixed
    coeffs = [[(1.0, 2.0), 3.0, (0.0, -0.0)], [(-0.0, 1.0), [4.0, 5.0], (6, 7)]]
    want = np.array([[1 + 2j, 3, complex(0.0, -0.0)], [complex(-0.0, 1.0), 4 + 5j, 6 + 7j]])
    op = mio.bandop_from_obj({"tau": 2, "band": 1, "coeffs": coeffs})
    assert op.coeffs.tobytes() == want.tobytes()
    only = mio.bandop_from_obj({"tau": 1, "band": 0, "coeffs": [[(0.5, -0.5)]]})
    assert only.coeffs.tolist() == [[0.5 - 0.5j]]
    seq = mio.seq_from_obj({"left": [(1.0, 2.0)], "right": [(1.0, 2.0), 0.5]})
    assert seq.coeffs[:, 0].tolist() == [1 + 2j, 0.5] and seq.left[1][:, 0].tolist() == [1 + 2j]


def test_large_table_names_its_first_bad_entry():
    # the type check covers the whole table; the first bad entry is named by its repr
    rows = np.ones((128, 257)).tolist()
    pair_rows = [[[x, 0.0] for x in row] for row in rows]
    for table, bad in ((rows, True), (rows, "1.0"), (pair_rows, [1.0, None]),
                       (pair_rows, [1.0, 2.0, 3.0]), (pair_rows, 0.5j)):
        table = [row[:] for row in table]
        table[-1][-1] = bad
        with pytest.raises(ValueError, match="^band operator.coeffs: expected a number or an "
                           f"\\[re, im\\] pair, got {re.escape(repr(bad))}$"):
            mio.bandop_from_obj({"tau": 128, "band": 128, "coeffs": table})
    table = [row[:] for row in pair_rows]
    table[-1][-2:] = [(1.0,), {}]
    with pytest.raises(ValueError, match=r"got \(1\.0,\)$"):
        mio.bandop_from_obj({"tau": 128, "band": 128, "coeffs": table})
    right = [[0.5, 0.5]] * 127 + ["x"]
    with pytest.raises(ValueError, match="^seq.right: .* got 'x'$"):
        mio.seq_from_obj({"left": [1.0], "right": right})


def test_tables_reject_booleans_and_strings():
    for bad in ({"re": [[True]]}, {"re": [[1.0]], "im": [[False]]}, {"re": [["1.0"]]}):
        with pytest.raises(ValueError, match="table of numbers"):
            mio.matrix_from_obj(bad)
    for weights in ([True], [0.5, False], ["1.0"]):
        with pytest.raises(ValueError, match="table of numbers"):
            mio.distribution_from_obj({"weights": weights})
    for coeffs in ([[True]], [[[1.0, False]]], [["1.0"]], [[1.0, [True, 0.0], 0.0]]):
        with pytest.raises(ValueError, match="number or an \\[re, im\\] pair"):
            mio.bandop_from_obj({"tau": 1, "band": len(coeffs[0]) // 2, "coeffs": coeffs})


def test_field_errors_name_the_field():
    with pytest.raises(ValueError, match="'weights'"):
        mio.space_from_obj({})
    with pytest.raises(ValueError, match="'blocks'"):
        mio.partition_from_obj({"block": []}, 2)
    with pytest.raises(ValueError, match="re, im"):
        mio.seq_from_obj({"left": ["x"], "right": [1]})


def test_builders_take_number_subclasses_entry_by_entry():
    # numpy floats are floats, and int subclasses other than bool are ints
    sp = mio.space_from_obj({"weights": list(np.full(2, 0.5))})
    assert sp == FiniteMeasureSpace([0.5, 0.5])
    one, two = enum.IntEnum("Atom", "one two")
    assert mio.endomorphism_from_obj({"map": [two, one]}, sp).table.tolist() == [1, 0]
    assert mio.partition_from_obj({"blocks": [[two], [one]]}, 2).blocks == ((0,), (1,))
    with pytest.raises(ValueError, match="list of numbers"):
        mio.space_from_obj({"weights": [np.float64(0.5), True]})
    with pytest.raises(ValueError, match="list of integers"):
        mio.partition_from_obj({"blocks": [[1, 2], 3]}, 3)
    with pytest.raises(ValueError, match="list of integers"):
        mio.partition_from_obj({"blocks": [[1, [2]]]}, 2)
    with pytest.raises(ValueError, match="list of integers"):
        mio.endomorphism_from_obj({"map": [2, 1.0]}, sp)

    # every table builder takes numpy floats and refuses True and numpy booleans
    half = np.float64(0.5)
    np.testing.assert_array_equal(mio.distribution_from_obj({"weights": [half, half]}),
                                  [0.5, 0.5])
    np.testing.assert_array_equal(mio.matrix_from_obj({"re": [[half]], "im": [[half]]}),
                                  [[0.5 + 0.5j]])
    for coeffs in ([[half]], [[[half, half]]], [[half, 0.5, [half, 0.0]]]):
        op = mio.bandop_from_obj({"tau": 1, "band": len(coeffs[0]) // 2, "coeffs": coeffs})
        assert op.coeffs[0, 0] == (0.5 + 0.5j if isinstance(coeffs[0][0], list) else 0.5)
    seq = mio.seq_from_obj({"left": [half, [half, half]], "right": [half], "k0": 1})
    # row l < 0 reads left[(-1 - l) % 2]: rows -2, -1 read 0.5 + 0.5j, 0.5
    assert seq.left[1][:, 0].tolist() == [0.5 + 0.5j, 0.5] and seq.coeffs.tolist() == [[0.5]]
    for bad in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="table of numbers"):
            mio.distribution_from_obj({"weights": [bad, 0.5]})
        with pytest.raises(ValueError, match="table of numbers"):
            mio.matrix_from_obj({"re": [[1.0]], "im": [[bad]]})
        for coeffs in ([[bad]], [[[0.5, bad]]]):
            with pytest.raises(ValueError, match="number or an \\[re, im\\] pair"):
                mio.bandop_from_obj({"tau": 1, "band": 0, "coeffs": coeffs})
        for left in ([bad], [[bad, 0.5]]):
            with pytest.raises(ValueError, match="number or an \\[re, im\\] pair"):
                mio.seq_from_obj({"left": left, "right": [1.0], "k0": 1})


def _integer_sites():
    # (site, a valid integer value); each site calls the library with one value
    sp = FiniteMeasureSpace([0.5, 0.5])
    swap = Endomorphism(sp, [1, 0])
    action = munorm.CyclicAction(swap, 2)
    seq = dt_from_seq([1.0], [2.0], {1: 3.0}, 2)
    op = PeriodicBandOperator(1, 1, np.ones((1, 3)), [(1, 2, 0.5)])
    u, chi = munorm.koopman(swap), munorm.finest_partition(sp)
    return {
        "seq k0": (lambda k: dt_from_seq([1.0], [2.0], None, k), 1),
        "seq middle key": (lambda k: dt_from_seq([1.0], [2.0], {k: 3.0}, 2), 1),
        "rho_window_max window": (lambda k: munorm.rho_window_max(seq, k), 1),
        "tau": (lambda k: PeriodicBandOperator(k, 0, np.ones((1, 1))), 1),
        "band": (lambda k: PeriodicBandOperator(1, k, np.ones((1, 3))), 1),
        "perturbation row": (lambda k: PeriodicBandOperator(1, 0, [[1.0]], [(k, 0, 1.0)]), 1),
        "perturbation col": (lambda k: PeriodicBandOperator(1, 0, [[1.0]], [(0, k, 1.0)]), 1),
        "entry row": (lambda k: op.entry(k, 2), 1),
        "entry col": (lambda k: op.entry(1, k), 1),
        "dt_from_multiplier key": (lambda k: munorm.dt_from_multiplier({k: 1.0}), 1),
        "w_l": (lambda k: munorm.w_l(op, k, 0.3), 1),
        "partition size": (lambda k: Partition(k, [[0]]), 1),
        "partition block": (lambda k: Partition(2, [[k], [0]]), 1),
        "validate_subset": (lambda k: sp.validate_subset([k]), 1),
        "projector": (lambda k: munorm.projector(sp, [k]), 1),
        "endomorphism table": (lambda k: Endomorphism(sp, [k, 0]), 1),
        "cyclic order": (lambda k: munorm.CyclicAction(swap, k), 2),
        "cyclic_projector n": (lambda k: munorm.cyclic_projector(action, k), 1),
        "map call": (swap, 1),
        "iterate count": (swap.iterate, 1),
        "base_entry row": (lambda k: op.base_entry(k, 2), 1),
        "base_entry col": (lambda k: op.base_entry(1, k), 1),
        "path_mass_table horizon": (lambda k: munorm.path_mass_table(u, chi, k), 1),
        "quantum_entropy_at horizon": (lambda k: munorm.quantum_entropy_at(u, chi, k), 1),
        "quantum_entropy_rate horizon": (lambda k: munorm.quantum_entropy_rate(u, chi, k), 2),
        "ks_entropy_at horizon": (lambda k: munorm.ks_entropy_at(swap, chi, k), 1),
        "ks_entropy_rate horizon": (lambda k: munorm.ks_entropy_rate(swap, chi, k), 2),
        "ks_path_measure_table horizon": (
            lambda k: munorm.ks_path_measure_table(swap, chi, k), 1),
        "term_cap": (lambda k: munorm.path_mass_table(u, chi, 1, term_cap=k), 100),
        "rate term_cap": (lambda k: munorm.ks_entropy_rate(swap, chi, 2, term_cap=k), 100),
    }


@pytest.mark.parametrize("site", list(_integer_sites()))
def test_integer_arguments_refuse_non_integral_values(site):
    # no library function truncates a value that is not an integer
    call, good = _integer_sites()[site]
    for bad in (2.5, float(good)):
        with pytest.raises(TypeError):
            call(bad)
    call(np.int64(good))
    if good == 1:
        call(True)


def _library_refusals():
    # name -> (call, exception type, message fragment); each call meets one refusal
    sp = FiniteMeasureSpace([0.5, 0.5])
    swap = Endomorphism(sp, [1, 0])
    u4 = FiniteMeasureSpace([0.25] * 4)
    shift = Endomorphism(u4, [1, 2, 3, 0])
    u = munorm.koopman(swap)
    op = PeriodicBandOperator(1, 0, [[1.0]])
    nan = float("nan")
    return {
        "seq period values": (lambda: dt_from_seq([nan], [1.0]),
                              ValueError, "period values must be finite"),
        "seq middle values": (lambda: dt_from_seq([1.0], [1.0], {1: nan}, 2),
                              ValueError, "middle values must be finite"),
        "rho window": (lambda: munorm.rho_window_max(op, 0),
                       ValueError, "window length must be positive"),
        "band tau": (lambda: PeriodicBandOperator(0, 0, np.ones((0, 1))),
                     ValueError, "period tau must be >= 1"),
        "band radius": (lambda: PeriodicBandOperator(1, -1, [[]]),
                        ValueError, "band radius must be >= 0"),
        "band tau cap": (lambda: PeriodicBandOperator(129, 0, np.ones((129, 1))),
                         munorm.CapExceeded, "period 129 exceeds the cap 128"),
        "band coeffs": (lambda: PeriodicBandOperator(1, 0, [[nan]]),
                        ValueError, "coefficients must be finite"),
        "band perturbation": (lambda: PeriodicBandOperator(1, 0, [[1.0]], [(0, 0, nan)]),
                              ValueError, "perturbation values must be finite"),
        "product period cap": (lambda: munorm.dt_compose(PeriodicBandOperator(
            127, 0, np.ones((127, 1))), PeriodicBandOperator(2, 0, np.ones((2, 1)))),
                               munorm.CapExceeded, "product period 254 exceeds the cap 128"),
        "entropy partition size": (  # the one check m_chi and the entropies share
            lambda: munorm.path_mass_table(u, Partition(3, [[0, 1, 2]]), 1),
            ValueError, "partition over 3 atoms does not match a space with 2"),
        "markov distribution length": (lambda: munorm.markov_entropy_rate(np.eye(2), [1.0]),
                                       ValueError, "distribution length does not match"),
        "basis length": (lambda: munorm.mu_dim(sp, [[1.0, 0.0, 0.0]]),
                         ValueError, "basis vector length does not match the space"),
        "cyclic order": (lambda: munorm.CyclicAction(swap, 0),
                         ValueError, "group order must be >= 1"),
        "operator entries": (lambda: munorm.OperatorMatrix(sp, [[nan, 0.0], [0.0, 1.0]]),
                             ValueError, "operator entries must be finite"),
        "apply length": (lambda: u.apply([1.0, 2.0, 3.0]),
                         ValueError, "vector length does not match the space"),
        "map table range": (lambda: Endomorphism(sp, [2, 0]),
                            ValueError, "map table sends atom 0 to atom 2, out of range"),
        "iterate count": (lambda: swap.iterate(-1),
                          ValueError, "iteration count must be nonnegative"),
        "map call negative": (lambda: shift(-1),
                              ValueError, "atom index -1 out of range for a space with 4 atoms"),
        "map call past the end": (lambda: shift(4),
                                  ValueError, "atom index 4 out of range for a space with 4 atoms"),
        "inner length": (lambda: munorm.inner(u4, [1, 2, 3, 4], [1]),
                         ValueError, "vector length does not match the space"),
        "vector_norm length": (lambda: munorm.vector_norm(u4, [2]),
                               ValueError, "vector length does not match the space"),
        "vector_norm nested": (lambda: munorm.vector_norm(u4, [[1, 2, 3, 4]]),
                               ValueError, "vector length does not match the space"),
        "weights shape": (lambda: FiniteMeasureSpace([]),
                          ValueError, "weights must be a nonempty one-dimensional sequence"),
        "weights finite": (lambda: FiniteMeasureSpace([nan, 0.5]),
                           ValueError, "weights must be finite"),
        "partition universe": (lambda: Partition(0, []),
                               ValueError, "partition universe must be nonempty"),
        "partition block range": (lambda: Partition(2, [[0, 2]]),
                                  ValueError, "atom 2 out of range for universe of size 2"),
    }


@pytest.mark.parametrize("site", list(_library_refusals()))
def test_every_library_refusal_can_fire(site):
    call, kind, fragment = _library_refusals()[site]
    with pytest.raises(kind) as got:
        call()
    assert fragment in str(got.value)


def test_load_json_decodes_as_text_mode(tmp_path):
    # error positions count \r\n and \r as one newline, as text mode reads them
    for raw in (b'{"a": 1,\r\n "b": [1,\r\n 2,]}', b'{"a":\r 1,\r "b": }'):
        path = tmp_path / "newlines.json"
        path.write_bytes(raw)
        with pytest.raises(json.JSONDecodeError) as got:
            mio.load_json(path)
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(path.read_text(encoding="utf-8"))
        assert (got.value.lineno, got.value.colno, got.value.pos) == \
            (want.value.lineno, want.value.colno, want.value.pos)
        assert got.value.msg == f"{path}: {want.value.msg}"
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(ValueError) as got:
        mio.load_json(path)
    with pytest.raises(UnicodeDecodeError) as want:
        path.read_text(encoding="utf-8")
    assert str(got.value) == f"{path}: {want.value}"


# --------------------------------------------------------------------------
# CLI


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return tmp_path, write


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_cli_mu_norm_projector(files, capsys):
    tmp, write = files
    space = write("u4.json", {"weights": [0.25, 0.25, 0.25, 0.25]})
    proj = write("proj13.json", {"re": np.diag([1.0, 0.0, 1.0, 0.0]).tolist()})
    code, rep = run_cli(capsys, ["mu-norm", "--space", space, "--op", proj])
    assert code == 0
    assert rep["schema"] == "mu-norm-lab/1"
    assert rep["results"]["mu_norm_sq"] == pytest.approx(0.5, abs=1e-12)
    check = rep["diagnostics"]["checks"][0]
    assert check["passed"] and "tolerance" in check


def test_cli_m_chi_and_mu_dim(files, capsys):
    tmp, write = files
    space = write("s.json", {"weights": [0.2, 0.3, 0.5]})
    op = write("p.json", {"re": np.diag([1.0, 0.0, 0.0]).tolist()})
    part = write("chi.json", {"blocks": [[1], [2, 3]]})
    code, rep = run_cli(capsys, ["m-chi", "--space", space, "--op", op,
                                 "--partition", part])
    assert code == 0
    assert rep["results"]["m_chi"] == pytest.approx(0.2, abs=1e-12)

    basis = write("basis.json", {"re": [[1 / math.sqrt(0.2), 0.0, 0.0]]})
    code, rep = run_cli(capsys, ["mu-dim", "--space", space, "--basis", basis])
    assert code == 0
    assert rep["results"]["mu_dim"] == pytest.approx(0.2, abs=1e-10)


def test_cli_entropy_reports(files, capsys):
    tmp, write = files
    space = write("u2.json", {"weights": [0.5, 0.5]})
    h = 1 / math.sqrt(2)
    op = write("h.json", {"re": [[h, h], [h, -h]]})
    part = write("chi.json", {"blocks": [[1], [2]]})
    code, rep = run_cli(capsys, ["entropy", "--space", space, "--op", op,
                                 "--partition", part, "--N", "3"])
    assert code == 0
    assert rep["results"]["closed_form"] == pytest.approx(math.log(2), abs=1e-12)
    assert rep["results"]["differences"][-1] == pytest.approx(math.log(2), abs=1e-10)

    code, rep2 = run_cli(capsys, ["entropy", "--space", space, "--op", op,
                                  "--partition", part, "--N", "3", "--log-base", "2"])
    assert rep2["results"]["closed_form"] == pytest.approx(1.0, abs=1e-12)
    assert rep2["results"]["unit"] == "bits"


@pytest.mark.parametrize("argv", [
    ["entropy", "--space", "U2", "--op", "H", "--partition", "CHI2", "--N", "3"],
    ["ks-entropy", "--space", "U3", "--endo", "CYCLE", "--partition", "CHI3", "--N", "3"],
    ["markov-rate", "--p", "P", "--dist", "PI"],
])
def test_cli_log_base_2_scales_every_value_exactly(files, capsys, argv):
    tmp, write = files
    h = 1 / math.sqrt(2)
    paths = {"U2": write("u2.json", {"weights": [0.5, 0.5]}),
             "H": write("h.json", {"re": [[h, h], [h, -h]]}),
             "CHI2": write("chi2.json", {"blocks": [[1], [2]]}),
             "U3": write("u3.json", {"weights": [1 / 3, 1 / 3, 1 / 3]}),
             "CYCLE": write("cycle.json", {"map": [2, 3, 1]}),
             "CHI3": write("chi3.json", {"blocks": [[1, 2], [3]]}),
             "P": write("p.json", {"re": [[0.9, 0.1], [0.3, 0.7]]}),
             "PI": write("pi.json", {"weights": [0.75, 0.25]})}
    argv = [paths.get(a, a) for a in argv]
    reports = [run_cli(capsys, [*argv, "--log-base", base]) for base in ("e", "2")]
    assert [code for code, _ in reports] == [0, 0]
    nats, bits = (rep["results"] for _, rep in reports)
    assert (nats.pop("unit"), bits.pop("unit")) == ("nats", "bits")
    assert nats.pop("lengths", None) == bits.pop("lengths", None)
    conv = 1.0 / math.log(2.0)
    assert bits.keys() == nats.keys()
    for key, v in nats.items():
        if isinstance(v, list):
            assert bits[key] == [x * conv for x in v], key
        else:
            assert bits[key] == (None if v is None else v * conv), key


def test_cli_ks_entropy_and_markov(files, capsys):
    tmp, write = files
    space = write("u3.json", {"weights": [1 / 3, 1 / 3, 1 / 3]})
    endo = write("f.json", {"map": [2, 3, 1]})
    part = write("chi.json", {"blocks": [[1], [2], [3]]})
    code, rep = run_cli(capsys, ["ks-entropy", "--space", space, "--endo", endo,
                                 "--partition", part, "--N", "2"])
    assert code == 0
    assert rep["results"]["values"][-1] == pytest.approx(math.log(3), abs=1e-12)

    p = write("p.json", {"re": [[0.5, 0.5], [0.5, 0.5]]})
    dist = write("nu.json", {"weights": [0.5, 0.5]})
    code, rep = run_cli(capsys, ["markov-rate", "--p", p, "--dist", dist])
    assert code == 0
    assert rep["results"]["entropy_rate"] == pytest.approx(math.log(2), abs=1e-12)


def test_cli_rho_and_conv(files, capsys):
    tmp, write = files
    seq = write("seq.json", {"left": [[0.0, 0.0]], "right": [[1.0, 0.0], [0.0, 0.0]],
                             "middle": {}, "k0": 1})
    code, rep = run_cli(capsys, ["rho", "--seq", seq])
    assert code == 0
    assert rep["results"]["rho"] == pytest.approx(0.5, abs=1e-15)
    assert rep["results"]["left_mean"] == 0.0
    assert rep["diagnostics"]["checks"][0]["passed"]

    code, rep = run_cli(capsys, ["conv", "--seq", seq])
    assert rep["results"]["conv_norm"] == 1.0
    assert rep["results"]["mu_norm_sq"] == 0.5


def test_cli_dt_commands(files, capsys):
    tmp, write = files
    cos2 = write("cos.json", {
        "tau": 1, "band": 1,
        "coeffs": [[[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        "perturbation": [],
    })
    code, rep = run_cli(capsys, ["dt-mu-norm", "--op", cos2])
    assert code == 0
    assert rep["results"]["quadrature"] == pytest.approx(2.0, abs=1e-12)
    assert rep["results"]["closed_form"] == pytest.approx(2.0, abs=1e-12)

    code, rep = run_cli(capsys, ["dt-norm", "--op", cos2])
    assert rep["results"]["dt_norm"] == pytest.approx(2.0, abs=1e-15)

    code, rep = run_cli(capsys, ["avg-trace", "--op", cos2])
    assert rep["results"]["avg_trace"] == pytest.approx(2.0, abs=1e-15)
    assert rep["diagnostics"]["window_length"] == 10**4
    assert rep["diagnostics"]["checks"][0]["passed"]


#: Each command on small inputs, with the keys of its report's ``inputs``,
#: ``options``, ``results`` and ``diagnostics``.
REPORT_KEYS = [
    (["mu-norm", "--space", "U2", "--op", "ID2"],
     {"space", "op"}, set(), {"mu_norm_sq", "mu_norm"}, {"checks"}),
    (["m-chi", "--space", "U2", "--op", "ID2", "--partition", "CHI"],
     {"space", "op", "partition"}, set(), {"m_chi", "mu_norm_sq"}, {"checks"}),
    (["mu-dim", "--space", "U2", "--basis", "BASIS", "--orthonormalize"],
     {"space", "basis"}, {"orthonormalize"}, {"mu_dim"}, {"checks"}),
    (["entropy", "--space", "U2", "--op", "ID2", "--partition", "CHI", "--N", "2"],
     {"space", "op", "partition"}, {"N", "cap", "log_base"},
     {"lengths", "values", "rates", "differences", "closed_form", "unit"},
     {"term_cap", "paths_at_longest_horizon"}),
    (["ks-entropy", "--space", "U2", "--endo", "SWAP", "--partition", "CHI", "--N", "2"],
     {"space", "endo", "partition"}, {"N", "cap", "log_base"},
     {"lengths", "values", "rates", "differences", "closed_form", "unit"},
     {"term_cap", "paths_at_longest_horizon"}),
    (["markov-rate", "--p", "P", "--dist", "U2"],
     {"p", "dist"}, {"log_base"}, {"entropy_rate", "unit"}, set()),
    (["rho", "--seq", "SEQ"],
     {"seq"}, set(), {"rho", "left_mean", "right_mean"}, {"window_length", "checks"}),
    (["conv", "--seq", "SEQ"],
     {"seq"}, set(), {"conv_norm", "mu_norm_sq", "rho", "left_mean", "right_mean"},
     {"window_length", "checks"}),
    (["dt-norm", "--op", "BAND"], {"op"}, set(), {"dt_norm"}, set()),
    (["dt-mu-norm", "--op", "BAND"],
     {"op"}, set(), {"quadrature", "closed_form"}, {"checks"}),
    (["avg-trace", "--op", "BAND"],
     {"op"}, set(), {"avg_trace"}, {"window_length", "checks"}),
    (["verify", "--suite", "triangle", "--trials", "2"],
     set(), {"suite", "trials", "seed"}, {"suite", "properties", "all_passed"},
     {"trials", "seed"}),
]


def test_report_keys_cover_every_command():
    assert [argv[0] for argv, *_ in REPORT_KEYS] == list(_COMMANDS)


@pytest.mark.parametrize("argv", [argv for argv, *_ in REPORT_KEYS],
                         ids=[argv[0] for argv, *_ in REPORT_KEYS])
def test_cli_takes_no_tuning_options(argv, capsys):
    # no tolerance or quadrature size is settable: each check keeps its own
    for extra in (["--tol", "1"], ["--quad", "17"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_readme_synopsis_matches_the_command_table():
    # every command is in the README's CLI synopsis, and each flag shown there is
    # one of _FLAGS that its command takes, so a removed option cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("munorm ")]
    assert [words[1] for words in lines] == list(_COMMANDS)
    for _, command, *words in lines:
        shown = {w.strip("[]") for w in words if w.startswith(("--", "[--"))}
        assert shown <= set(_FLAGS) & set(_COMMANDS[command][2]), command


def test_readme_suite_list_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = readme.split("### Verify suites", 1)[1].split("Suites:", 1)[1]
    listing = listing.split("Each member of a group", 1)[0]
    assert sorted(re.findall(r"`([a-z0-9-]+)`", listing)) == suite_names()


@pytest.mark.parametrize("argv, inputs, options, results, diagnostics", REPORT_KEYS,
                         ids=[argv[0] for argv, *_ in REPORT_KEYS])
def test_cli_report_keys_per_command(files, capsys, argv, inputs, options, results,
                                     diagnostics):
    tmp, write = files
    paths = {"U2": write("u2.json", {"weights": [0.5, 0.5]}),
             "ID2": write("id2.json", {"re": [[1.0, 0.0], [0.0, 1.0]]}),
             "CHI": write("chi.json", {"blocks": [[1], [2]]}),
             "BASIS": write("basis.json", {"re": [[1.0, 0.0]]}),
             "SWAP": write("swap.json", {"map": [2, 1]}),
             "P": write("p.json", {"re": [[0.5, 0.5], [0.5, 0.5]]}),
             "SEQ": write("seq.json", {"left": [1.0], "right": [2.0], "k0": 1}),
             "BAND": write("band.json", {"tau": 1, "band": 1, "coeffs": [[1.0, 0.0, 1.0]]})}
    code, rep = run_cli(capsys, [paths.get(a, a) for a in argv])
    assert code == 0
    assert {k: set(rep[k]) for k in ("inputs", "options", "results", "diagnostics")} == \
        {"inputs": inputs, "options": options, "results": results, "diagnostics": diagnostics}
    assert {name: d["path"] for name, d in rep["inputs"].items()} == \
        {name: paths[argv[argv.index(f"--{name}") + 1]] for name in inputs}


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["verify", "--suite", "triangle", "--trials", "2", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write report: ") and captured.err.count("\n") == 1


#: Help requests and malformed command lines: ``main`` must answer each
#: as ``build_parser`` does.
PARSER_ARGV = [
    [], ["-h"], ["--help"], ["bogus"], ["--", "mu-norm"], ["-x", "mu-norm"],
    *([name, "--help"] for name in _COMMANDS),
    *([name] for name in _COMMANDS),
    ["mu-norm", "--space", "a"], ["mu-norm", "--space", "a", "--op", "b", "--bogus"],
    ["mu-norm", "--spa", "a", "--op", "b", "--tol", "x"], ["mu-norm", "--space=a", "--op=b", "--tol=x"],
    ["mu-norm", "--space", "a", "--op", "b", "extra"], ["mu-norm", "--", "--space", "a"],
    ["entropy", "--space", "s", "--op", "u", "--partition", "c", "--N", "x"],
    ["entropy", "--space", "s", "--op", "u", "--partition", "c", "--N", "2", "--log-base", "10"],
    ["ks-entropy", "--space", "s", "--endo", "f", "--partition", "c"],
    ["ks-entropy", "--space", "s", "--endo", "f", "--partition", "c", "--N", "3", "--cap", "2.0"],
    ["markov-rate", "--p", "p", "--dist", "d", "--tol", "1"],
    ["mu-dim", "--space", "s", "--basis", "b", "--orthonormalize=1"],
    ["dt-mu-norm", "--op", "b", "--quad", "-"], ["rho", "--seq"], ["dt-norm", "--op", "a", "--out"],
    ["avg-trace", "--op", "a", "-h"], ["verify", "--suite"], ["verify", "--suite", "x", "--trials", "1.5"],
    ["verify", "--suite", "x", "--seed=abc"], ["verify", "--suite", "a", "mu-norm"],
    ["mu-dim", "--space", "s", "--basis", "b", "--orthonormalize", "yes"],
    ["dt-norm", "--op", "--out", "r"], ["verify", "--suite", "-x"],
    ["entropy", "--space", "s", "--op", "u", "--partition", "c", "--N", "2", "--log-base", "-1"],
    ["verify", "--suite", "x", "--trials", "_10"], ["verify", "--suite", "x", "--seed", "0x10"],
]


@pytest.mark.parametrize("argv", PARSER_ARGV)
def test_dispatched_parser_answers_as_the_full_parser(argv, capsys):
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as dispatched:
        main(argv)
    assert dispatched.value.code == full.value.code
    assert capsys.readouterr() == want


#: Spellings of an int that argparse's ``type=int`` takes.
INT_SPELLINGS = ("7", "+7", "1_0")


def plain_lines(command):
    """Each plain command line of ``command``: every order of its required flags with every
    choice of its optional ones and ``--out``; the ints take the INT_SPELLINGS in turn."""
    flags = (*_COMMANDS[command][2], "--out")
    required = [f for f in flags if _FLAGS[f].get("required")]
    optional = [f for f in flags if f not in required]
    ints = itertools.cycle(INT_SPELLINGS)
    for k in range(len(optional) + 1):
        for chosen in itertools.combinations(optional, k):
            for order in itertools.permutations(required + list(chosen)):
                argv = [command]
                for flag in order:
                    kw = _FLAGS[flag]
                    argv.append(flag)
                    if "type" in kw:
                        argv.append(next(ints))
                    elif "choices" in kw:
                        argv.append(kw["choices"][len(argv) % len(kw["choices"])])
                    elif kw.get("action") != "store_true":
                        argv.append(f"{flag[2:]}.json")
                yield argv


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_plain_command_lines_read_as_the_full_parser_parses_them(command):
    parser = build_parser()
    lines = list(plain_lines(command))
    for argv in lines:
        plain = _read_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == vars(parser.parse_args(argv)), argv
    if any("type" in _FLAGS[f] for f in _COMMANDS[command][2]):
        assert set(INT_SPELLINGS) <= {word for argv in lines for word in argv}


#: Command lines that argparse accepts but the reader hands to it: repeated
#: flags, and values that start with ``-``.  Those that argparse refuses are
#: in PARSER_ARGV.
HANDED_OFF = [
    ["dt-norm", "--op", "a", "--op", "b"], ["dt-norm", "--op", "a", "--out", "r", "--out", "s"],
    ["mu-dim", "--space", "s", "--basis", "b", "--orthonormalize", "--orthonormalize"],
    ["dt-norm", "--op", "-"], ["dt-norm", "--op", "a", "--out", "-"],
    ["verify", "--suite", "x", "--seed", "-1"], ["verify", "--suite", "x", "--trials", "-0"],
    ["verify", "--suite", "x", "--seed", "-1", "--seed", "2"],
    ["entropy", "--space", "s", "--op", "u", "--partition", "c", "--N", "-1"],
]


@pytest.mark.parametrize("argv", HANDED_OFF)
def test_dispatched_parser_reads_what_the_reader_hands_over(argv):
    assert _read_plain(argv) is None


def test_cli_digests_the_bytes_it_parsed(files, capsys, monkeypatch):
    tmp, write = files
    space = write("u2.json", {"weights": [0.5, 0.5]})
    op = write("id.json", {"re": [[1.0, 0.0], [0.0, 1.0]]})
    parsed = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
              for name, path in (("space", space), ("op", op))}
    build = mio.space_from_obj

    def rewrite_then_build(obj):
        Path(space).write_text(json.dumps({"weights": [0.25, 0.75]}), encoding="utf-8")
        return build(obj)

    monkeypatch.setattr(mio, "space_from_obj", rewrite_then_build)
    code, rep = run_cli(capsys, ["mu-norm", "--space", space, "--op", op])
    assert code == 0
    assert {name: d["sha256"] for name, d in rep["inputs"].items()} == parsed
    assert rep["inputs"]["space"]["path"] == space


# --------------------------------------------------------------------------
# import footprint: each check runs in a fresh interpreter and reads sys.modules

SRC = os.path.dirname(os.path.dirname(os.path.abspath(munorm.__file__)))
LAYERS = {"spaces", "operators", "norm", "entropy", "circle",
          "verify", "verify_finite", "verify_circle"}
FINITE = {"spaces", "operators", "norm", "entropy", "verify_finite"}


def loaded_after(code, cwd=None):
    """The munorm submodules, and ``hashlib`` and ``numpy.ma`` if loaded, of a fresh
    interpreter after ``code``."""
    probe = code + ("\nimport sys; print(' '.join(m for m in sys.modules"
                    " if m.startswith('munorm.') or m in ('hashlib', 'numpy.ma')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=60)
    return {m.removeprefix("munorm.") for m in out.stdout.split()}


def loaded_by_cli(argv, cwd):
    """Modules loaded by one CLI call; the report goes to a file, the exit code must be 0."""
    return loaded_after(f"from munorm.cli import main\nassert main({argv!r}) == 0", cwd)


def test_cli_import_leaves_verify_unloaded():
    assert loaded_after("import munorm.cli") & (LAYERS | {"io", "hashlib"}) == set()


def test_circle_commands_leave_finite_layers_unloaded(files):
    tmp, write = files
    band = write("band.json", {"tau": 1, "band": 1, "coeffs": [[1.0, 0.0, 1.0]]})
    seq = write("seq.json", {"left": [1.0], "right": [2.0], "k0": 1})
    for argv in (["dt-norm", "--op", band], ["rho", "--seq", seq]):
        loaded = loaded_by_cli(argv + ["--out", "r.json"], tmp)
        assert {"circle", "io", "hashlib"} <= loaded
        assert loaded & FINITE == set(), argv


def test_finite_commands_leave_circle_unloaded(files):
    tmp, write = files
    space = write("u2.json", {"weights": [0.5, 0.5]})
    op = write("id.json", {"re": [[1.0, 0.0], [0.0, 1.0]]})
    part = write("chi.json", {"blocks": [[1], [2]]})
    for argv in (["mu-norm", "--space", space, "--op", op],
                 ["entropy", "--space", space, "--op", op, "--partition", part, "--N", "2"]):
        loaded = loaded_by_cli(argv + ["--out", "r.json"], tmp)
        assert "norm" in loaded or "entropy" in loaded
        assert "circle" not in loaded, argv


def test_norm_commands_leave_numpy_ma_unloaded(files):
    if "numpy.ma" in loaded_after("import numpy"):
        pytest.skip("import numpy alone loads numpy.ma")
    tmp, write = files
    band = write("cos-sin.json", {"tau": 1, "band": 1, "coeffs": [[[0, -1], 0, [0, 1]]],
                                  "left": {"tau": 1, "coeffs": [[1, 0, 1]]}})
    space = write("w3.json", {"weights": [0.2, 0.3, 0.5]})
    op = write("op.json", {"re": [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [4.0, 0.0, 1.0]]})
    part = write("chi.json", {"blocks": [[1], [2, 3]]})
    for argv in (["dt-mu-norm", "--op", band], ["mu-norm", "--space", space, "--op", op],
                 ["m-chi", "--space", space, "--op", op, "--partition", part]):
        assert "numpy.ma" not in loaded_by_cli(argv + ["--out", "r.json"], tmp), argv


def test_markov_rate_loads_io_and_entropy_only(files):
    tmp, write = files
    p = write("p.json", {"re": [[0.5, 0.5], [0.2, 0.8]]})
    dist = write("d.json", {"weights": [0.3, 0.7]})
    loaded = loaded_by_cli(["markov-rate", "--p", p, "--dist", dist, "--out", "r.json"], tmp)
    assert loaded & (LAYERS | {"io"}) == {"io", "entropy"}


def test_circle_suite_leaves_finite_layers_unloaded(tmp_path):
    argv = ["verify", "--suite", "trace-invariance", "--trials", "2", "--out", "r.json"]
    loaded = loaded_by_cli(argv, tmp_path)
    assert {"verify", "verify_circle", "circle"} <= loaded
    assert loaded & FINITE == set()
    assert "io" not in loaded  # verify reads no file


def test_star_import_binds_every_exported_name():
    code = ("import munorm\nns = {}\nexec('from munorm import *', ns)\n"
            "assert [n for n in munorm.__all__ if n not in ns] == []\n"
            "assert ns['dt_norm'] is munorm.circle.dt_norm\n"
            "assert ns['DEFAULT_TERM_CAP'] == munorm.DEFAULT_TERM_CAP == 10**6")
    assert {"spaces", "operators", "norm", "entropy", "circle"} <= loaded_after(code)
    # and every public function and class a layer defines is in the table, so that a
    # tracer of each layer's __all__ sees it
    for layer, names in munorm._LAYERS.items():
        module = getattr(munorm, layer)
        defined = {name for name, value in vars(module).items() if not name.startswith("_")
                   and (inspect.isfunction(value) or inspect.isclass(value))
                   and value.__module__ == module.__name__}
        assert defined - set(names) == set(), layer


# --------------------------------------------------------------------------
# the process entry: main() with no arguments, as the installed script runs it

CLI_ENTRY = "import sys; from munorm.cli import main; sys.exit(main())"


def run_entry(argv, cwd, entry=CLI_ENTRY, **env):
    return subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": SRC, **env}, timeout=60)


#: Input files of the entry cases, by name; the cases run in their directory.
ENTRY_FILES = {
    "u2.json": '{"weights": [0.5, 0.5]}',
    "swap.json": '{"re": [[0.0, 1.0], [1.0, 0.0]]}',
    "chi.json": '{"blocks": [[1], [2]]}',
    "band.json": '{"tau": 1, "band": 1, "coeffs": [[1.0, 0.0, 1.0]]}',
    "bad.json": '{"re": [[0.5, 0.5], [0.5 0.5]]}',
}
#: Case -> (argv, exit code).
ENTRY_CASES = {
    "finite": (["mu-norm", "--space", "u2.json", "--op", "swap.json"], 0),
    "circle": (["dt-norm", "--op", "band.json"], 0),
    "verify": (["verify", "--suite", "norm-chain", "--trials", "5", "--seed", "3"], 0),
    "malformed JSON": (["markov-rate", "--p", "bad.json", "--dist", "u2.json"], 2),
    "over the cap": (["entropy", "--space", "u2.json", "--op", "swap.json",
                      "--partition", "chi.json", "--N", "15000"], 3),
}


@pytest.mark.parametrize("case", list(ENTRY_CASES))
def test_process_entry_answers_as_main_argv(tmp_path, capsys, monkeypatch, case):
    for name, text in ENTRY_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv, want = ENTRY_CASES[case]
    frozen = gc.get_freeze_count()
    code = main(argv)
    assert gc.get_freeze_count() == frozen  # a caller that passes argv keeps its heap
    got = capsys.readouterr()
    proc = run_entry(argv, tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, got.out, got.err)
    assert code == want


@pytest.mark.parametrize("argv", [["verify", "--suite", "norm-chain", "--trials", "5"],
                                  ["--help"]])
def test_process_entry_freezes_the_heap(tmp_path, argv):
    # the exit handler runs after main() has returned, or raised SystemExit on --help
    entry = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
             + CLI_ENTRY)
    proc = run_entry(argv, tmp_path, entry)
    assert proc.returncode == 0 and proc.stdout
    frozen = re.fullmatch(r"frozen (\d+)\n", proc.stderr)
    assert frozen and int(frozen.group(1)) > 0, proc.stderr


@pytest.mark.parametrize("argv, loaded", [
    (["dt-norm", "--op", "band.json"], ""),
    (["verify", "--suite", "norm-chain", "--trials", "2"], ""),
    (["dt-norm", "--op", "band.json", "--op", "band.json"], "argparse gettext locale"),
    (["dt-norm", "--help"], "argparse gettext locale"),
], ids=["dt-norm", "verify", "repeated flag", "help"])
def test_process_entry_loads_argparse_only_for_what_it_hands_over(tmp_path, argv, loaded):
    (tmp_path / "band.json").write_text(ENTRY_FILES["band.json"], encoding="utf-8")
    entry = ("import atexit, sys\n"
             "atexit.register(lambda: print(*[m for m in ('argparse', 'gettext', 'locale')"
             " if m in sys.modules], file=sys.stderr))\n" + CLI_ENTRY)
    proc = run_entry(argv, tmp_path, entry)
    assert (proc.returncode, proc.stderr) == (0, loaded + "\n")
    assert proc.stdout


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "finest-markov-route", "--trials", "20", "--seed", "0"],
    ["entropy", "--space", "s8.json", "--op", "u8.json", "--partition", "fine8.json", "--N", "5"],
], ids=["verify", "entropy"])
def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # walks of up to 8^6 paths: a BLAS dot product that long sums in parts, one per thread
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    inputs = {"s8.json": {"weights": [0.125] * 8},
              "u8.json": {"re": u.real.tolist(), "im": u.imag.tolist()},
              "fine8.json": {"blocks": [[i] for i in range(1, 9)]}}
    for name, obj in inputs.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    one, two = (run_entry(argv, tmp_path, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert (one.returncode, one.stdout) == (two.returncode, two.stdout)
    assert one.returncode == 0


def test_cli_verify_suite(files, capsys):
    code, rep = run_cli(capsys, ["verify", "--suite", "triangle",
                                 "--trials", "50", "--seed", "7"])
    assert code == 0
    props = rep["results"]["properties"]
    assert props[0]["trials"] == 50 and props[0]["passed"]
    assert rep["results"]["all_passed"]


@pytest.mark.parametrize("suite", list(SUITES))
def test_every_registered_suite_passes(suite):
    checks = run_suite(suite, 3, 0)
    assert checks and all(c.passed and c.trials >= 1 for c in checks), \
        checks


def test_every_suite_function_is_registered_under_its_name():
    # a suite is a function of (rng, trials); one the registry does not name never runs
    import inspect

    from munorm import verify_circle, verify_finite

    for module in (verify_finite, verify_circle):
        functions = {name for name, f in vars(module).items() if inspect.isfunction(f)
                     and list(inspect.signature(f).parameters) == ["rng", "trials"]}
        short = module.__name__.rsplit(".", 1)[1]
        assert functions == {s.replace("-", "_") for s, m in SUITES.items() if m == short}


def test_cli_verify_fails_with_exit_1_and_names_the_worst_trial(capsys, monkeypatch):
    from munorm import circle

    seam = circle._seam  # a product's seam reads b's rows within b's band of row 0, not a's
    monkeypatch.setattr(circle, "_seam", lambda op, width: seam(op, op.band))
    code, rep = run_cli(capsys, ["verify", "--suite", "two-tail-section",
                                 "--trials", "20", "--seed", "0"])
    assert code == 1 and rep["results"]["all_passed"] is False
    failed = [p for p in rep["results"]["properties"] if not p["passed"]]
    assert [p["name"] for p in failed] == ["two-tail-product-matches-section-product"]
    assert isinstance(failed[0]["worst"]["trial"], int)


def test_cli_verify_refuses_a_nan_and_fails_a_check_with_no_instance(capsys, monkeypatch):
    from munorm import circle, verify_circle
    from munorm.verify import _per_trial

    argv = ["verify", "--suite", "rho-oracle", "--trials", "3"]
    with monkeypatch.context() as m:
        # inf - inf in both routes: the report would hold a NaN, which JSON refuses
        m.setattr(circle, "_window_gap", lambda op: (math.inf - math.inf,) * 2)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("invalid input:")
    monkeypatch.setattr(verify_circle, "rho_oracle",
                        _per_trial(("never-checked", 1e-12))(lambda rng: ({}, [])))
    code, rep = run_cli(capsys, argv)
    assert code == 1 and rep["results"]["all_passed"] is False
    assert rep["results"]["properties"] == [{"name": "never-checked", "trials": 0,
                                             "tolerance": 1e-12, "max_violation": 0.0,
                                             "passed": False}]


def test_cli_verify_unknown_suite(files, capsys):
    code = main(["verify", "--suite", "nope", "--trials", "1", "--seed", "0"])
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err


def test_cli_rejects_counts_below_minimum(files, capsys):
    tmp, write = files
    space = write("u3.json", {"weights": [1 / 3, 1 / 3, 1 / 3]})
    endo = write("f.json", {"map": [2, 3, 1]})
    part = write("chi.json", {"blocks": [[1], [2], [3]]})
    for n in ("-1", "1"):
        code = main(["ks-entropy", "--space", space, "--endo", endo, "--partition", part,
                     "--N", n])
        assert code == 2
        assert "at least 2" in capsys.readouterr().err
    for trials in ("0", "-3"):
        code = main(["verify", "--suite", "triangle", "--trials", trials, "--seed", "0"])
        assert code == 2
        assert "trials must be at least 1" in capsys.readouterr().err


def test_cli_ks_entropy_report_keys_match_entropy(files, capsys):
    tmp, write = files
    space = write("u2.json", {"weights": [0.5, 0.5]})
    endo = write("f.json", {"map": [2, 1]})
    op = write("swap.json", {"re": [[0.0, 1.0], [1.0, 0.0]]})
    part = write("chi.json", {"blocks": [[1], [2]]})
    code, ks = run_cli(capsys, ["ks-entropy", "--space", space, "--endo", endo,
                                "--partition", part, "--N", "2"])
    assert code == 0
    code, q = run_cli(capsys, ["entropy", "--space", space, "--op", op,
                               "--partition", part, "--N", "2"])
    assert code == 0
    assert set(ks["results"]) == set(q["results"])
    assert ks["results"]["closed_form"] is None
    assert ks["results"]["values"] == pytest.approx(q["results"]["values"], abs=1e-12)


@pytest.mark.parametrize("argv, bad", [
    (["mu-norm", "--space", "BAD", "--op", "ONE"], {"weights": [True]}),
    (["m-chi", "--space", "U2", "--op", "ID2", "--partition", "BAD"], {"blocks": [[True], [2]]}),
    (["rho", "--seq", "BAD"], {"left": [True], "right": [1.0]}),
    (["rho", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "k0": False}),
    (["mu-norm", "--space", "U2", "--op", "BAD"], {"re": [[True, 0.0], [0.0, 1.0]]}),
    (["mu-dim", "--space", "U2", "--basis", "BAD", "--orthonormalize"],
     {"re": [[1.0, 0.0]], "im": [[False, 0.0]]}),
    (["markov-rate", "--p", "BAD", "--dist", "U2"], {"re": [[True, 0.0], [0.0, True]]}),
    (["markov-rate", "--p", "ID2", "--dist", "BAD"], {"weights": [True, False]}),
    (["dt-norm", "--op", "BAD"], {"tau": 1, "band": 0, "coeffs": [[True]]}),
])
def test_cli_rejects_json_booleans_as_numbers(files, capsys, argv, bad):
    tmp, write = files
    paths = {"BAD": write("bad.json", bad),
             "ONE": write("one.json", {"re": [[1.0]]}),
             "U2": write("u2.json", {"weights": [0.5, 0.5]}),
             "ID2": write("id2.json", {"re": [[1.0, 0.0], [0.0, 1.0]]})}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad", [
    (["mu-norm", "--space", "BAD", "--op", "ID2"], {"weights": [10**400, 0.5]}),
    (["dt-norm", "--op", "BAD"], {"tau": 1, "band": 0, "coeffs": [[10**400]]}),
])
def test_cli_rejects_integers_too_large_for_a_float(files, capsys, argv, bad):
    tmp, write = files
    paths = {"BAD": write("bad.json", bad),
             "ID2": write("id2.json", {"re": [[1.0, 0.0], [0.0, 1.0]]})}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert "invalid input" in capsys.readouterr().err


#: A minimal valid input for each file flag, with ``X`` for the number the
#: refusal sweep replaces; ``--op`` is a band operator on a command without
#: ``--space``.
SWEEP_INPUTS = {
    "space": ('{"weights": [X, 0.5]}', "0.5"),
    "op": ('{"re": [[X, 0.0], [0.0, 1.0]]}', "1.0"),
    "band op": ('{"tau": 1, "band": 0, "coeffs": [[X]]}', "1.0"),
    "partition": ('{"blocks": [[X], [2]]}', "1"),
    "endo": ('{"map": [X, 1]}', "2"),
    "basis": ('{"re": [[X, 0.0]]}', "1.0"),
    "p": ('{"re": [[X, 0.5], [0.5, 0.5]]}', "0.5"),
    "dist": ('{"weights": [X, 0.5]}', "0.5"),
    "seq": ('{"left": [X], "right": [1.0]}', "1.0"),
}
SWEEP_FLAGS = {"--N": ["2"], "--orthonormalize": []}
SWEEP_BAD = ["NaN", "Infinity", "-Infinity", "1e999", "true", '"1"', "[" * 10**5 + "]" * 10**5]
SWEEP = [(name, flag) for name, (_, _, flags) in _COMMANDS.items()
         for flag in flags if flag[2:] in _BUILDERS]


def _sweep_key(flag, flags):
    return "band op" if flag == "--op" and "--space" not in flags else flag[2:]


def _sweep_run(tmp_path, capsys, command, target, bad=None, inputs=SWEEP_INPUTS):
    """Run ``command`` on the sweep's inputs, ``bad`` in place of ``X`` in the
    ``target`` file: exit code, stdout, stderr and the warnings raised."""
    flags = _COMMANDS[command][2]
    argv = [command]
    for flag in flags:
        if flag[2:] in _BUILDERS:
            template, good = inputs[_sweep_key(flag, flags)]
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(template.replace("X", bad if bad and flag == target else good))
            argv += [flag, str(path)]
        elif flag in SWEEP_FLAGS:
            argv += [flag, *SWEEP_FLAGS[flag]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, [str(w.message) for w in caught]


def _assert_refused(code, out, err, caught, bad):
    assert (code, out, caught) == (2, "", []), (bad, code, out, caught)
    assert err.startswith("invalid input: ") and err.count("\n") == 1, (bad, err)
    assert "Traceback" not in err and "RuntimeWarning" not in err, (bad, err)


@pytest.mark.parametrize("command, target", SWEEP, ids=[f"{c}{f}" for c, f in SWEEP])
def test_cli_refuses_every_non_number_alike(tmp_path, capsys, command, target):
    # one number of one input file becomes a non-finite or non-number literal;
    # every command refuses it with exit 2 and one line, and no warning
    assert _sweep_run(tmp_path, capsys, command, target)[0] == 0
    for bad in SWEEP_BAD:
        _assert_refused(*_sweep_run(tmp_path, capsys, command, target, bad), bad)


#: The sweep's inputs with the sequence's huge number off index 0, which both
#: tails cover, so that it reaches the command instead of failing that match.
HUGE_INPUTS = {**SWEEP_INPUTS, "seq": ('{"left": [1.0], "right": [1.0, X]}', "1.0")}


def _no_constant(name):
    raise AssertionError(f"report holds {name}")


@pytest.mark.parametrize("huge", ["1e200", "1e308"])
@pytest.mark.parametrize("command, target", SWEEP, ids=[f"{c}{f}" for c, f in SWEEP])
def test_cli_refuses_every_overflowing_result_alike(tmp_path, capsys, command, target, huge):
    # one number of one input file becomes a huge finite one; a command either
    # reports finite numbers or refuses with exit 2 and one line, and never warns
    code, out, err, caught = _sweep_run(tmp_path, capsys, command, target, huge, HUGE_INPUTS)
    if code == 0:
        assert (err, caught) == ("", []), (err, caught)
        json.loads(out, parse_constant=_no_constant)
    else:
        _assert_refused(code, out, err, caught, huge)


#: The sweep's inputs with both weights of a space or a distribution in place of ``X``.
PAIR_INPUTS = {**SWEEP_INPUTS, "space": ('{"weights": [X, X]}', "0.5"),
               "dist": ('{"weights": [X, X]}', "0.5")}
WEIGHT_SUM_REFUSALS = {
    "--space": "invalid input: space: weights must sum to 1 within 1e-09; deviation is inf\n",
    "--dist": "invalid input: distribution: entries must be nonnegative and sum to 1\n",
}
WEIGHT_SUM_SWEEP = [(c, f) for c, f in SWEEP if f in WEIGHT_SUM_REFUSALS]


@pytest.mark.parametrize("command, target", WEIGHT_SUM_SWEEP,
                         ids=[f"{c}{f}" for c, f in WEIGHT_SUM_SWEEP])
def test_cli_refuses_weights_whose_sum_overflows_in_one_line(tmp_path, capsys, command, target):
    # 1e308 + 1e308 overflows while the input is checked: the check reads inf and
    # refuses it in its own words, with no numpy warning before it
    assert _sweep_run(tmp_path, capsys, command, target, None, PAIR_INPUTS)[0] == 0
    code, out, err, caught = _sweep_run(tmp_path, capsys, command, target, "1e308", PAIR_INPUTS)
    _assert_refused(code, out, err, caught, "1e308")
    assert err == WEIGHT_SUM_REFUSALS[target]


@pytest.mark.parametrize("argv, bad", [
    (["avg-trace", "--op", "BAD"], {"tau": 1, "band": 1, "coeffs": [[1e200, 1e200, 1e200]]}),
    (["dt-mu-norm", "--op", "BAD"], {"tau": 1, "band": 1, "coeffs": [[1e200, 1e200, 1e200]]}),
    (["rho", "--seq", "BAD"], {"left": [1e200], "right": [1e200]}),
    (["conv", "--seq", "BAD"], {"left": [1e200], "right": [1e200]}),
    # the middle's change from the tail, 1e308 - (-1e308), overflows while it is built
    (["rho", "--seq", "BAD"], {"left": [1.0], "right": [-1e308], "k0": 1, "middle": {"0": 1e308}}),
    (["entropy", "--space", "U2", "--op", "BAD", "--partition", "CHI", "--N", "2"],
     {"re": [[0, 1e200], [1, 0]]}),
    # each sup is finite and only their Python sum overflows, so no numpy call warns
    (["dt-norm", "--op", "BAD"], {"tau": 1, "band": 1, "coeffs": [[1e308, 1e308, 1e308]]}),
    (["mu-norm", "--space", "U2", "--op", "BAD"], {"re": [[1e200, 0], [0, 1]]}),
    (["m-chi", "--space", "U2", "--op", "BAD", "--partition", "CHI"], {"re": [[1e200, 0], [0, 1]]}),
])
def test_cli_refuses_a_result_that_overflows_a_double(files, capsys, argv, bad):
    tmp, write = files
    paths = {"BAD": write("bad.json", bad), "U2": write("u2.json", {"weights": [0.5, 0.5]}),
             "CHI": write("chi.json", {"blocks": [[1], [2]]})}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([paths.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    _assert_refused(code, out, err, [str(w.message) for w in caught], bad)
    assert "Numerical result out of range" not in err  # a Python float's overflow


def test_cli_orthonormalize_does_not_call_a_huge_vector_dependent(files, capsys):
    # its squared norm overflowed to inf, and inf <= 1e-12 * inf dropped it
    tmp, write = files
    argv = ["mu-dim", "--space", write("u2.json", {"weights": [0.5, 0.5]}),
            "--basis", write("b.json", {"re": [[1e200, 0.0]]}), "--orthonormalize"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: overflow") and "independent" not in err, err


def test_cli_dt_norm_reports_a_huge_coefficient(files, capsys):
    tmp, write = files
    code, rep = run_cli(capsys, ["dt-norm", "--op", write(
        "big.json", {"tau": 1, "band": 0, "coeffs": [[1e200]]})])
    assert (code, rep["results"]["dt_norm"]) == (0, 1e200)


@pytest.mark.parametrize("argv, bad, field", [
    (["rho", "--seq", "BAD"], {"left": 3, "right": [1.0]}, "seq.left"),
    (["rho", "--seq", "BAD"], {"left": [1.0], "right": {"0": 1.0}}, "seq.right"),
    (["dt-norm", "--op", "BAD"], {"tau": 2, "band": 0, "coeffs": [[1.0], [1.0, 2.0]]},
     "band operator.coeffs"),
    (["dt-norm", "--op", "BAD"], {"tau": 1, "band": 0, "coeffs": [1.0]}, "band operator.coeffs"),
    (["dt-norm", "--op", "BAD"], {"tau": 1, "band": 0, "coeffs": [[1.0]], "perturbation": 5},
     "band operator"),
    (["markov-rate", "--p", "BAD", "--dist", "U2"], {"re": [[]]}, "transition matrix"),
    # refusals of the library's constructors, prefixed with the input they came from
    (["mu-norm", "--space", "U2", "--op", "BAD"], {"re": [[1.0, 2.0]]}, "operator: entries"),
    (["ks-entropy", "--space", "U2", "--endo", "BAD", "--partition", "P2", "--N", "2"],
     {"map": [1, 2, 2]}, "endomorphism: map"),
    (["dt-norm", "--op", "BAD"], {"tau": 2, "band": 1, "coeffs": [[1, 2, 3]]},
     "band operator: coeffs shape"),
    (["m-chi", "--space", "U2", "--op", "I2", "--partition", "BAD"], {"blocks": [[1], [1]]},
     "partition: blocks"),
    (["mu-norm", "--space", "BAD", "--op", "I2"], {"weights": [0.5, -0.5, 1.0]},
     "space: nonpositive weight -0.5 at atom 2"),
    (["rho", "--seq", "BAD"], {"left": [1.0], "right": [2.0]},
     "seq: with k0 = 0 both tails cover index 0"),
    (["rho", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "k0": -1},
     "seq: cutoff index k0 must be nonnegative"),
    # middle keys name their index one way only
    (["conv", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "middle": {"1": 2.0, "01": 3.0},
                                "k0": 2}, "seq.middle: key '01'"),
    (["conv", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "middle": {"1_0": 3.0}, "k0": 20},
     "seq.middle: key '1_0'"),
    (["conv", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "middle": {"+1": 3.0}, "k0": 2},
     "seq.middle: key '+1'"),
    (["conv", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "middle": {"-0": 3.0}, "k0": 2},
     "seq.middle: key '-0'"),
    # ragged real tables name their field, not numpy's "inhomogeneous shape"
    (["mu-norm", "--space", "U2", "--op", "BAD"], {"re": [[1.0], [1.0, 2.0]]}, "operator: 're'"),
    (["markov-rate", "--p", "I2", "--dist", "BAD"], {"weights": [[0.5], [0.25, 0.25]]},
     "distribution: 'weights'"),
    # middle keys that are no integer at all
    (["conv", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "middle": {"x": 3.0}, "k0": 2},
     "seq.middle: key 'x' is not an integer in canonical form"),
    (["conv", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "middle": {"1.5": 3.0}, "k0": 2},
     "seq.middle: key '1.5' is not an integer in canonical form"),
    # a refusal numbers atoms as the file does, from 1; the library counts from 0
    (["m-chi", "--space", "U2", "--op", "I2", "--partition", "BAD"], {"blocks": [[1, 2], [2]]},
     "partition: blocks are not disjoint: atom 2 appears more than once"),
    (["m-chi", "--space", "U2", "--op", "I2", "--partition", "BAD"], {"blocks": [[0, 1], [2]]},
     "partition: atom 0 out of range for universe of size 2"),
    (["m-chi", "--space", "U2", "--op", "I2", "--partition", "BAD"], {"blocks": [[1]]},
     "partition: blocks do not cover the space: atom 2 is missing"),
    (["ks-entropy", "--space", "U2", "--endo", "BAD", "--partition", "P2", "--N", "2"],
     {"map": [2, 2]}, "endomorphism: map is not measure-preserving: atom 1 has weight 0.5"),
    (["ks-entropy", "--space", "U2", "--endo", "BAD", "--partition", "P2", "--N", "2"],
     {"map": [1, 3]}, "endomorphism: map table sends atom 2 to atom 3, out of range"),
    (["mu-norm", "--space", "BAD", "--op", "I2"], {"weights": [0.5, 0, 0.5]},
     "space: nonpositive weight 0.0 at atom 2;"),
])
def test_cli_names_the_field_of_malformed_structure(files, capsys, argv, bad, field):
    # a table of the wrong shape is refused as a bad number is: exit 2 and
    # one line that names the field, not Python's or numpy's own message
    tmp, write = files
    paths = {"BAD": write("bad.json", bad), "U2": write("u2.json", {"weights": [0.5, 0.5]}),
             "I2": write("i2.json", {"re": [[1.0, 0.0], [0.0, 1.0]]}),
             "P2": write("p2.json", {"blocks": [[1], [2]]})}
    code = main([paths.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: {field}") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, text, field", [
    # json.loads alone keeps the last of two equal keys and exits 0
    (["mu-norm", "--space", "BAD", "--op", "I2"],
     '{"weights": [0.5, 0.5], "weights": [0.25, 0.75]}', "duplicate key 'weights'"),
    (["markov-rate", "--p", "I2", "--dist", "BAD"],
     '{"weights": [0.5, 0.5], "weights": [0.5, 0.5]}', "duplicate key 'weights'"),
    (["conv", "--seq", "BAD"],
     '{"left": [1.0], "right": [1.0], "middle": {"1": 2.0, "1": 3.0}, "k0": 2}',
     "duplicate key '1'"),
])
def test_cli_refuses_a_key_repeated_in_an_object(files, capsys, argv, text, field):
    tmp, write = files
    bad = tmp / "bad.json"
    bad.write_text(text, encoding="utf-8")
    paths = {"BAD": str(bad), "I2": write("i2.json", {"re": [[1.0, 0.0], [0.0, 1.0]]})}
    code = main([paths.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"invalid input: {bad}: {field}\n"


@pytest.mark.parametrize("raw, field", [
    (b'{"weights": [0.5, 0.5]', "Expecting ',' delimiter: line 1 column 23 (char 22)"),
    (b'{"weights": [0.5, 0.5]}\xff',
     "'utf-8' codec can't decode byte 0xff in position 23: invalid start byte"),
])
def test_cli_refusal_of_an_unreadable_file_names_it(tmp_path, capsys, raw, field):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code = main(["markov-rate", "--p", str(bad), "--dist", str(bad)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"invalid input: {bad}: {field}\n"


@pytest.mark.parametrize("argv, bad, field", [
    (["markov-rate", "--p", "BAD", "--dist", "U2"], {"re": [[1.0, 0.0], [0.0, 1.0]],
                                                     "im": [[0.5, 0.0], [0.0, 0.0]]},
     "transition matrix must be real"),
    (["markov-rate", "--p", "I2", "--dist", "BAD"], {"weights": []},
     "distribution: 'weights' must be a nonempty list"),
    (["markov-rate", "--p", "I2", "--dist", "BAD"], {"weights": [0.7, 0.7]},
     "distribution: entries must be nonnegative and sum to 1"),
    (["m-chi", "--space", "U2", "--op", "I2", "--partition", "BAD"], {"blocks": 3},
     "partition: field 'blocks' must be a list of lists"),
    (["mu-norm", "--space", "U2", "--op", "BAD"], {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0]]},
     "operator: 're' and 'im' must be equal-shape 2-d tables"),
    (["rho", "--seq", "BAD"], {"left": [1.0], "right": [1.0], "middle": [2.0], "k0": 2},
     "seq: field 'middle' must be an object keyed by index"),
    (["dt-norm", "--op", "BAD"], {"tau": "1", "band": 0, "coeffs": [[1.0]]},
     "band operator: 'tau' and 'band' must be integers"),
    (["dt-norm", "--op", "BAD"], {"tau": 1, "band": 0, "coeffs": 1.0},
     "band operator: 'coeffs' must be a list of rows"),
    (["dt-norm", "--op", "BAD"],
     {"tau": 1, "band": 0, "coeffs": [[1.0]], "perturbation": [[0, 0]]},
     "band operator: each perturbation item must be [row, col, value]"),
    (["verify", "--suite", "triangle", "--trials", "1", "--seed", "-1"], {},
     "seed must be nonnegative, got -1"),
    (["dt-norm", "--op", "BAD"], {"tau": 1, "band": 0, "coeffs": [[1.0]],
                                  "left": {"tau": 1.0, "coeffs": [[2.0]]}},
     "band operator.left: 'tau' must be an integer"),
    (["dt-norm", "--op", "BAD"], {"tau": 1, "band": 0, "coeffs": [[1.0]],
                                  "left": {"tau": 2, "coeffs": [[2.0]]}},
     "band operator: left coeffs shape (1, 1) does not match tau=2, band=0 (expected (2, 1))"),
    (["ks-entropy", "--space", "U2", "--endo", "SWAP", "--partition", "CHI", "--N", "2",
      "--cap", "-5"], {}, "term cap must be at least 1, got -5"),
])
def test_every_cli_refusal_can_fire(files, capsys, argv, bad, field):
    tmp, write = files
    paths = {"BAD": write("bad.json", bad),
             "U2": write("u2.json", {"weights": [0.5, 0.5]}),
             "I2": write("i2.json", {"re": [[1.0, 0.0], [0.0, 1.0]]}),
             "SWAP": write("swap.json", {"map": [2, 1]}),
             "CHI": write("chi.json", {"blocks": [[1], [2]]})}
    code = main([paths.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"invalid input: {field}\n"


def test_cli_exit_codes(files, capsys):
    tmp, write = files
    bad = tmp / "bad.json"
    bad.write_text('{"weights": [0.5,]}', encoding="utf-8")
    proj = write("p.json", {"re": [[1.0]]})
    code = main(["mu-norm", "--space", str(bad), "--op", proj])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err  # malformed JSON reports position

    negative = write("neg.json", {"weights": [1.5, -0.5]})
    code = main(["mu-norm", "--space", negative, "--op", proj])
    assert code == 2

    # term cap exceeded is a distinct exit code
    space = write("u2.json", {"weights": [0.5, 0.5]})
    op = write("id.json", {"re": [[1.0, 0.0], [0.0, 1.0]]})
    part = write("chi.json", {"blocks": [[1], [2]]})
    code = main(["entropy", "--space", space, "--op", op, "--partition", part,
                 "--N", "4", "--cap", "8"])
    assert code == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_cli_refuses_a_perturbation_window_past_the_cell_cap(files, capsys):
    tmp, write = files
    op = write("far.json", {"tau": 1, "band": 0, "coeffs": [[1.0]],
                            "perturbation": [[0, 0, 1.0], [10**7, 10**7, 1.0]]})
    code = main(["dt-norm", "--op", op])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded: perturbation window of 10000001 rows x 1 offsets")


def test_cli_avg_trace_refuses_a_window_scan_past_the_cap(files, capsys):
    # dt-norm reads the one-cell window; avg-trace's check would scan 2 * 10^9 rows
    tmp, write = files
    op = write("far.json", {"tau": 1, "band": 0, "coeffs": [[1.0]],
                            "perturbation": [[10**9, 10**9, 1.0]]})
    assert run_cli(capsys, ["dt-norm", "--op", op])[0] == 0
    code = main(["avg-trace", "--op", op])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded: window scan of 2000040003 rows") and err.count("\n") == 1


def test_cli_band_128_reads_only_the_cells_of_a_far_perturbation_window(files, capsys):
    # rows 0 and 10^6 make a window of 10^6 + 1 rows by one offset, under the cap;
    # the band-128 rows beneath it (257 offsets each, about 4 GB) are never built
    import tracemalloc

    tmp, write = files
    op = write("far128.json", {"tau": 1, "band": 128, "coeffs": [[1.0] * 257],
                               "perturbation": [[0, 0, 1.0], [10**6, 10**6, 2.0]]})
    tracemalloc.start()
    try:
        norm = run_cli(capsys, ["dt-norm", "--op", op])
        trace = run_cli(capsys, ["avg-trace", "--op", op])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm[0] == 0 and norm[1]["results"]["dt_norm"] == 256.0 + 3.0
    assert trace[0] == 0 and trace[1]["results"]["avg_trace"] == 257.0
    assert trace[1]["diagnostics"]["checks"][0]["passed"]
    assert peak < 2**27, peak


@pytest.mark.parametrize("command", ["entropy", "ks-entropy"])
def test_cli_cap_exceeded_past_the_int_string_limit(files, capsys, command):
    # 2^15001 has more digits than Python converts to a string by default; a list of
    # 10^12 + 1 horizons would not fit in memory, nor one of 10^20 + 1 in an index
    tmp, write = files
    space = write("u2.json", {"weights": [0.5, 0.5]})
    part = write("chi.json", {"blocks": [[1], [2]]})
    given = (["--op", write("u.json", {"re": [[0.0, 1.0], [1.0, 0.0]]})] if command == "entropy"
             else ["--endo", write("f.json", {"map": [2, 1]})])
    for horizon in (15000, 10**12, 10**20):
        code = main([command, "--space", space, *given, "--partition", part, "--N", str(horizon)])
        out, err = capsys.readouterr()
        assert (code, out) == (3, ""), horizon
        assert err == (f"cap exceeded: enumeration needs 2^{horizon + 1} multiindex terms "
                       f"(2 blocks, horizon {horizon}); cap is 1000000\n")


def test_cli_dt_mu_norm_of_two_tails(files, capsys):
    # rows l < 0 multiply by 2 cos x, rows l >= 0 by 2 sin x
    tmp, write = files
    op = write("two.json", {"tau": 1, "band": 1, "coeffs": [[[0, -1], 0, [0, 1]]],
                            "left": {"tau": 1, "coeffs": [[1, 0, 1]]}})
    code, rep = run_cli(capsys, ["dt-mu-norm", "--op", op])
    assert code == 0 and rep["diagnostics"]["checks"][0]["passed"]
    for route in ("closed_form", "quadrature"):
        assert abs(rep["results"][route] - 4 * (0.5 + 1 / math.pi)) <= 1e-14
    code, rep = run_cli(capsys, ["avg-trace", "--op", op])
    assert rep["results"]["avg_trace"] == 2.0


def _large_value_cases(write):
    # command -> (flags, module and name of the check's second route, a move
    # of that route's value that the check must catch)
    u64 = write("u64.json", {"weights": [1 / 64] * 64})
    w64 = write("w64.json", {"re": (np.random.default_rng(0).standard_normal((64, 64))
                                    * 1e4).tolist()})
    rng = np.random.default_rng(1)
    u16 = write("u16.json", {"weights": [1 / 16] * 16})
    w16 = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) * 1e4
    w16 = write("w16.json", {"re": w16.real.tolist(), "im": w16.imag.tolist()})
    singletons = write("chi.json", {"blocks": [[k] for k in range(1, 17)]})
    rng = np.random.default_rng(0)
    band = (rng.standard_normal((8, 17)) + 1j * rng.standard_normal((8, 17))) * 1e4
    band = write("band.json", mio.bandop_to_obj(PeriodicBandOperator(8, 8, band)))
    seq = write("seq.json", {"left": [0], "right": [100, 0, 0], "k0": 1})

    def relative(eps):
        return lambda v: v * (1.0 + eps)

    def closed_form(r):
        return r._replace(closed_form=r.closed_form * (1.0 + 1e-8))

    return {
        "mu-norm": (["--space", u64, "--op", w64], "norm", "m_chi", relative(1e-8)),
        "m-chi": (["--space", u16, "--op", w16, "--partition", singletons],
                  "norm", "mu_norm_sq", relative(1e-8)),
        "dt-mu-norm": (["--op", band], "circle", "dt_mu_norm_sq", closed_form),
        # the window bound is 10 * 10^4 / 10^4 = 10, 3e-3 of rho = 10^4 / 3
        "rho": (["--seq", seq], "circle", "rho_window_max", relative(1e-2)),
        "conv": (["--seq", seq], "circle", "rho_window_max", relative(1e-2)),
        # 10 * m / 10^4 for the mass m of 8 rows is 8e-3 of the average trace m / 8
        "avg-trace": (["--op", band], "circle", "rho_window_max", relative(1e-2)),
    }


LARGE_VALUE_COMMANDS = ["mu-norm", "m-chi", "dt-mu-norm", "rho", "conv", "avg-trace"]


@pytest.mark.parametrize("command", LARGE_VALUE_COMMANDS)
def test_cli_checks_pass_on_large_values(files, capsys, command):
    # entries near 1e4: the second routes differ by rounding (up to about
    # 1e-6, and 0.67 for the window of rho), far above an absolute 1e-10
    flags = _large_value_cases(files[1])[command][0]
    code, rep = run_cli(capsys, [command, *flags])
    assert code == 0
    [check] = rep["diagnostics"]["checks"]
    assert check["passed"], check


@pytest.mark.parametrize("command", LARGE_VALUE_COMMANDS)
def test_cli_checks_fail_when_the_second_route_moves(files, capsys, monkeypatch, command):
    flags, module, name, move = _large_value_cases(files[1])[command]
    layer = getattr(munorm, module)
    route = getattr(layer, name)
    monkeypatch.setattr(layer, name, lambda *args: move(route(*args)))
    code, rep = run_cli(capsys, [command, *flags])
    assert code == 0
    [check] = rep["diagnostics"]["checks"]
    assert not check["passed"], check


#: Two tails, 9 per row on rows l < 0 and 1 on rows l >= 0: the average trace is 9,
#: and rows l >= 0 alone average 1.  The sequence is the same operator with row 0 zero.
HEAVY_LEFT = {"tau": 1, "band": 0, "coeffs": [[1.0]], "left": {"tau": 1, "coeffs": [[3.0]]}}
HEAVY_LEFT_SEQ = {"left": [3.0], "right": [1.0], "k0": 1}


def test_avg_trace_window_check_reads_the_left_tail(files, capsys):
    code, rep = run_cli(capsys, ["avg-trace", "--op", files[1]("op.json", HEAVY_LEFT)])
    assert code == 0 and rep["results"] == {"avg_trace": 9.0}
    [check] = rep["diagnostics"]["checks"]
    assert check["name"] == "window-oracle-agrees" and check["passed"], check


def test_conv_reports_the_window_check_of_rho(files, capsys):
    seq = files[1]("seq.json", HEAVY_LEFT_SEQ)
    rho, conv = (run_cli(capsys, [command, "--seq", seq]) for command in ("rho", "conv"))
    assert rho[0] == conv[0] == 0
    assert conv[1]["diagnostics"] == rho[1]["diagnostics"]
    assert conv[1]["results"]["rho"] == rho[1]["results"]["rho"] == 9.0
    assert rho[1]["diagnostics"]["checks"][0]["passed"]


def test_window_check_fails_when_the_oracle_skips_negative_rows(files, capsys, monkeypatch):
    from munorm import circle

    def rows_from_zero(op, window):
        """The best window average over rows ``0..4*window - 1``, perturbations left out."""
        masses = circle._tail_run(op, 0, 4 * window, lambda c: np.sum(np.abs(c) ** 2, axis=1))
        csum = np.concatenate(([0.0], np.cumsum(masses)))
        return float(np.max(csum[window:] - csum[:-window]) / window)

    monkeypatch.setattr(circle, "rho_window_max", rows_from_zero)
    write = files[1]
    for argv in (["avg-trace", "--op", write("op.json", HEAVY_LEFT)],
                 ["rho", "--seq", write("seq.json", HEAVY_LEFT_SEQ)]):
        code, rep = run_cli(capsys, argv)
        [check] = rep["diagnostics"]["checks"]
        assert code == 0 and check["value"] == 8.0 and not check["passed"], (argv, check)


def test_cli_reports_are_deterministic(files, capsys, tmp_path):
    tmp, write = files
    space = write("u2.json", {"weights": [0.5, 0.5]})
    op = write("w.json", {"re": [[1.0, 2.0], [0.0, 1.0]], "im": [[0.0, 1.0], [0.0, 0.0]]})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["mu-norm", "--space", space, "--op", op, "--out", str(out1)]) == 0
    assert main(["mu-norm", "--space", space, "--op", op, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    v1 = main(["verify", "--suite", "homogeneity", "--trials", "20", "--seed", "3",
               "--out", str(out1)])
    v2 = main(["verify", "--suite", "homogeneity", "--trials", "20", "--seed", "3",
               "--out", str(out2)])
    assert v1 == v2 == 0
    assert out1.read_bytes() == out2.read_bytes()
