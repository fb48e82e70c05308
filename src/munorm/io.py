"""JSON readers for spaces, operators, sequences and band matrices, and a band writer.

Conventions: atom indices are 1-based in files (0-based in the library);
complex numbers are ``[re, im]`` pairs, with bare reals accepted on
input; matrices use separate ``re``/``im`` tables where ``im`` may be
omitted.  Every number must be finite.  All angles are radians.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

# The builders import their layer when called, so reading a band operator
# does not load the finite layers, nor reading a space the circle layer.
if TYPE_CHECKING:
    from .circle import PeriodicBandOperator
    from .operators import Endomorphism, OperatorMatrix
    from .spaces import FiniteMeasureSpace, Partition

__all__ = [
    "load_json",
    "space_from_obj",
    "distribution_from_obj",
    "partition_from_obj",
    "matrix_from_obj",
    "operator_from_obj",
    "endomorphism_from_obj",
    "seq_from_obj",
    "bandop_from_obj",
    "bandop_to_obj",
]


#: The bytes of each file ``load_json`` parses, keyed by path, while a
#: ``recording_inputs`` block is active.
_inputs: ContextVar[dict[str, bytes] | None] = ContextVar("munorm_io_inputs", default=None)


@contextmanager
def recording_inputs() -> Iterator[dict[str, bytes]]:
    """Collect the bytes every ``load_json`` in the block parses, keyed by path.

    The CLI digests these for its report, so a report names exactly the
    bytes it was computed from, and each input is read once.
    """
    token = _inputs.set({})
    try:
        yield _inputs.get()
    finally:
        _inputs.reset(token)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object from its pairs, refusing a key that appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_json(path: str | Path) -> Any:
    """Parse a UTF-8 JSON file; syntax errors keep their line/column context.

    Newlines are translated as in text mode, so error positions count
    ``\\r\\n`` as one character.  A key repeated in one object is refused.
    """
    data = Path(path).read_bytes()
    inputs = _inputs.get()
    if inputs is not None:
        inputs[str(path)] = data
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _require(obj: Any, field: str, where: str) -> Any:
    if not isinstance(obj, dict) or field not in obj:
        raise ValueError(f"{where}: missing field '{field}'")
    return obj[field]


def _numeric(types: set[type], kind: type | tuple[type, ...] = (int, float)) -> bool:
    """Whether entries of these types are numbers of ``kind``.

    Subclasses count (numpy floats, ``IntEnum``); booleans, which JSON
    ``true``/``false`` load as, never do.
    """
    return all(issubclass(t, kind) and not issubclass(t, bool) for t in types)


def _finite(values: np.ndarray, where: str) -> np.ndarray:
    """``values`` if every number in it is finite: JSON ``NaN``, ``Infinity``
    and literals that overflow a float, such as ``1e999``, are refused."""
    if not np.isfinite(values).all():
        raise ValueError(f"{where}: numbers must be finite")
    return values


def _flatten(table: Any) -> tuple[list, list[int], set[type]]:
    """The entries of a nested JSON array, its shape and the entries' types.

    Lists are unpacked level by level while the entries of a level are lists
    of one length, so a ragged table, or bare reals mixed with pairs, reports
    ``list`` among its types.  JSON booleans report ``bool``, not ``int``.
    """
    entries, shape, types = [table], [], {type(table)}
    while types == {list} and len(lengths := set(map(len, entries))) == 1:
        shape.append(lengths.pop())
        entries = list(chain.from_iterable(entries))
        types = set(map(type, entries))
    return entries, shape, types


def _number_table(table: Any, where: str) -> np.ndarray:
    """A nested JSON array of finite numbers, with rows of one length, as a float array."""
    entries, shape, types = _flatten(table)
    if not _numeric(types):
        raise ValueError(f"{where}: expected a table of numbers")
    return _finite(np.array(entries, dtype=float).reshape(shape), where)


def _complex_in(value: Any, where: str) -> complex:
    if _numeric({type(value)}):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 \
            and _numeric(set(map(type, value))):
        return complex(value[0], value[1])
    raise ValueError(f"{where}: expected a number or an [re, im] pair, got {value!r}")


def _complex_list(values: Any, depth: int, where: str) -> np.ndarray:
    """A ``depth``-dimensional table of finite complex numbers, each a bare
    real or an ``[re, im]`` pair, as an array (float if all are bare reals).

    Among pairs, a bare real ``x`` reads as ``[x, 0.0]``.  A bad entry is
    named; a value that is not a list, or rows of unequal length, name the table.
    """
    entries, shape, types = _flatten(values)
    if len(shape) < depth and entries:
        kind = "a list" if depth == 1 else "rows of one length"
        raise ValueError(f"{where}: expected {kind} of numbers or [re, im] pairs")
    if len(shape) == depth and not _numeric(types):  # tuple pairs, or pairs among bare reals
        pairs = [v if isinstance(v, (list, tuple)) else (v, 0.0) for v in entries]
        if set(map(len, pairs)) == {2}:
            entries = list(chain.from_iterable(pairs))
            shape, types = [*shape, 2], set(map(type, entries))
    if shape[depth:] not in ([], [2]) or not _numeric(types):
        for value in values if depth == 1 else chain.from_iterable(values):
            _complex_in(value, where)  # raises at the first bad entry
    table = np.array(entries, dtype=float).reshape(shape)
    return _finite(table.view(complex)[..., 0] if len(shape) > depth else table, where)


def _built(where: str, make, *args):
    """``make(*args)``, its refusal prefixed with the input it was read from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _complex_out(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def space_from_obj(obj: Any) -> FiniteMeasureSpace:
    from .spaces import FiniteMeasureSpace

    weights = _require(obj, "weights", "space")
    if not isinstance(weights, list) or not _numeric(set(map(type, weights))):
        raise ValueError("space: field 'weights' must be a list of numbers")
    return _built("space", FiniteMeasureSpace,
                  _finite(np.asarray(weights, dtype=float), "space: 'weights'"))


def distribution_from_obj(obj: Any) -> np.ndarray:
    """A probability vector; unlike a space, zero entries are allowed."""
    v = _number_table(_require(obj, "weights", "distribution"), "distribution: 'weights'")
    if v.ndim != 1 or v.size == 0:
        raise ValueError("distribution: 'weights' must be a nonempty list")
    if np.any(v < 0) or abs(float(v.sum()) - 1.0) > 1e-9:
        raise ValueError("distribution: entries must be nonnegative and sum to 1")
    return v


def partition_from_obj(obj: Any, size: int) -> Partition:
    from .spaces import Partition

    blocks = _require(obj, "blocks", "partition")
    if not isinstance(blocks, list):
        raise ValueError("partition: field 'blocks' must be a list of lists")
    if not all(isinstance(b, list) for b in blocks) \
            or not _numeric(set(map(type, chain.from_iterable(blocks))), int):
        raise ValueError("partition: each block must be a list of integers")
    return _built("partition", Partition, size, [[j - 1 for j in b] for b in blocks])  # 1-based


def matrix_from_obj(obj: Any, where: str = "matrix") -> np.ndarray:
    re = _number_table(_require(obj, "re", where), f"{where}: 're'")
    im_raw = obj.get("im")
    im = np.zeros_like(re) if im_raw is None else _number_table(im_raw, f"{where}: 'im'")
    if re.ndim != 2 or re.shape != im.shape:
        raise ValueError(f"{where}: 're' and 'im' must be equal-shape 2-d tables")
    return re + 1j * im


def operator_from_obj(obj: Any, space: FiniteMeasureSpace) -> OperatorMatrix:
    from .operators import OperatorMatrix

    return _built("operator", OperatorMatrix, space, matrix_from_obj(obj, "operator"))


def endomorphism_from_obj(obj: Any, space: FiniteMeasureSpace) -> Endomorphism:
    from .operators import Endomorphism

    table = _require(obj, "map", "endomorphism")
    if not isinstance(table, list) or not _numeric(set(map(type, table)), int):
        raise ValueError("endomorphism: field 'map' must be a list of integers")
    return _built("endomorphism", Endomorphism, space, [j - 1 for j in table])


def seq_from_obj(obj: Any) -> PeriodicBandOperator:
    """An eventually periodic sequence, as the band-0 operator of its convolution."""
    from .circle import dt_from_seq

    left = _complex_list(_require(obj, "left", "seq"), 1, "seq.left")
    right = _complex_list(_require(obj, "right", "seq"), 1, "seq.right")
    k0 = obj.get("k0", 0)
    if not _numeric({type(k0)}, int):
        raise ValueError("seq: field 'k0' must be an integer")
    middle_raw = obj.get("middle", {})
    if not isinstance(middle_raw, dict):
        raise ValueError("seq: field 'middle' must be an object keyed by index")
    middle = {}
    for key, val in middle_raw.items():
        try:
            k = int(key)
        except ValueError:
            k = None
        if k is None or str(k) != key:  # one spelling per index: no "01", "+1" or "1_0"
            raise ValueError(f"seq.middle: key {key!r} is not an integer in canonical form")
        middle[k] = _complex_in(val, f"seq.middle[{key}]")
    _finite(np.array(list(middle.values()), dtype=complex), "seq.middle")
    return _built("seq", dt_from_seq, left, right, middle, k0)


def _coeff_rows(obj: Any, where: str) -> np.ndarray:
    rows = _require(obj, "coeffs", where)
    if not isinstance(rows, list):
        raise ValueError(f"{where}: 'coeffs' must be a list of rows")
    return _complex_list(rows, 2, f"{where}.coeffs")


def bandop_from_obj(obj: Any) -> PeriodicBandOperator:
    """A band operator; an optional ``left`` ``{"tau", "coeffs"}`` patterns rows ``l < 0``."""
    from .circle import PeriodicBandOperator

    tau = _require(obj, "tau", "band operator")
    band = _require(obj, "band", "band operator")
    if not _numeric({type(tau), type(band)}, int):
        raise ValueError("band operator: 'tau' and 'band' must be integers")
    coeffs = _coeff_rows(obj, "band operator")
    left = obj.get("left")
    if left is not None:
        tau_left = _require(left, "tau", "band operator.left")
        if not _numeric({type(tau_left)}, int):
            raise ValueError("band operator.left: 'tau' must be an integer")
        left = (tau_left, _coeff_rows(left, "band operator.left"))
    items = obj.get("perturbation", [])
    if not isinstance(items, list):
        raise ValueError("band operator: 'perturbation' must be a list of [row, col, value]")
    pert = []
    for item in items:
        if not (isinstance(item, list) and len(item) == 3
                and _numeric({type(item[0]), type(item[1])}, int)):
            raise ValueError(
                "band operator: each perturbation item must be [row, col, value]"
            )
        pert.append((item[0], item[1], _complex_in(item[2], "band operator.perturbation")))
    _finite(np.array([z for _, _, z in pert], dtype=complex), "band operator.perturbation")
    return _built("band operator", PeriodicBandOperator, tau, band, coeffs, pert, left)


def bandop_to_obj(op: PeriodicBandOperator) -> dict:
    """The JSON form of ``op``; the ``left`` field only when the tails differ."""
    obj = {"tau": op.tau, "band": op.band,
           "coeffs": [list(map(_complex_out, row)) for row in op.coeffs],
           "perturbation": [[r, c, _complex_out(v)] for r, c, v in op.perturbation]}
    if len(op.tails) > 1:
        tau, coeffs = op.left
        obj["left"] = {"tau": tau, "coeffs": [list(map(_complex_out, row)) for row in coeffs]}
    return obj
