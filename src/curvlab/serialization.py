"""File formats: tensor JSON and trace CSV.

Writers emit floating-point values with 17 significant digits so that a
write/read cycle reproduces IEEE doubles bit for bit.

Tensors are written as ``{"n": n, "operator": [...]}``, the upper triangle
of a tensor's operator M[(i<j), (k<l)] = R_ijkl row by row, pairs in
lexicographic order, and read back as the tensor of the symmetric M: bit
for bit for every tensor curvlab builds, without the asymmetry of one that
is not exactly symmetric.  The n^4 row-major ``{"n": n, "components":
[...]}`` is still read, as raw components (``CurvatureTensor``).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .flow import TRACE_COLUMNS, FlowTrace, TraceRow
from .tensors import CurvatureTensor

__all__ = [
    "fmt17",
    "dumps_json",
    "tensor_to_json",
    "tensor_from_json",
    "write_tensor",
    "read_tensor",
    "trace_to_csv",
    "trace_from_csv",
    "write_trace",
    "read_trace",
]


def fmt17(x: float) -> str:
    """A float at 17 significant digits (lossless double round trip)."""
    return format(float(x), ".17g")


_INDENT = 2


def dumps_json(obj) -> str:
    """json.dumps with floats emitted at 17 significant digits, keys sorted,
    indented by two spaces."""
    return _emit(obj, 0) + "\n"


def _emit(obj, level: int) -> str:
    pad = " " * (_INDENT * level)
    inner = " " * (_INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}{json.dumps(str(k))}: {_emit(v, level + 1)}' for k, v in sorted(obj.items()))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{_emit(v, level + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError("cannot serialize non-finite float")
        return fmt17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Tensors


def tensor_to_json(r: CurvatureTensor) -> str:
    upper = r.operator[np.triu_indices(r.n * (r.n - 1) // 2)].tolist()
    # fmt17 writes -0.0 as "-0", which JSON reads as the integer 0
    values = ", ".join("-0.0" if x == 0.0 and math.copysign(1.0, x) < 0.0 else fmt17(x) for x in upper)
    return f'{{"n": {r.n}, "operator": [{values}]}}\n'


def tensor_from_json(text: str) -> CurvatureTensor:
    data = json.loads(text)
    if not isinstance(data, dict) or set(data) not in ({"n", "components"}, {"n", "operator"}):
        raise ValueError('tensor JSON must be an object with keys "n" and "components", or "n" and "operator"')
    key = "operator" if "operator" in data else "components"
    n, values = data["n"], data[key]
    if not isinstance(n, int) or not isinstance(values, list):
        raise ValueError("tensor JSON has wrong field types")
    # one vectorized conversion: ragged nesting raises, and any entry that
    # is not a number leaves a string or object dtype
    try:
        arr = np.asarray(values)
    except ValueError:
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ValueError(f"tensor JSON {key} must be a flat list of numbers")
    if key == "components":
        return CurvatureTensor(n=n, comps=arr)
    big = n * (n - 1) // 2
    if arr.size != big * (big + 1) // 2:
        raise ValueError(f"expected {big * (big + 1) // 2} operator entries for n={n}, got {arr.size}")
    m = np.empty((big, big))
    upper = np.triu_indices(big)
    m[upper] = m.T[upper] = arr
    return CurvatureTensor.from_operator(n, m)


def write_tensor(path: str, r: CurvatureTensor) -> None:
    with open(path, "w") as fh:
        fh.write(tensor_to_json(r))


def read_tensor(path: str) -> CurvatureTensor:
    with open(path) as fh:
        return tensor_from_json(fh.read())


# ---------------------------------------------------------------------------
# Traces


def trace_to_csv(trace: FlowTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for row in trace.rows:
        writer.writerow([fmt17(x) for x in row.astuple()])
    return buf.getvalue()


def trace_from_csv(text: str) -> FlowTrace:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty trace CSV") from None
    if tuple(header) != TRACE_COLUMNS:
        raise ValueError(f"trace CSV header must be {','.join(TRACE_COLUMNS)}")
    rows = []
    for line in reader:
        if not line:
            continue
        if len(line) != len(TRACE_COLUMNS):
            raise ValueError(f"trace CSV row has {len(line)} fields, expected {len(TRACE_COLUMNS)}")
        vals = [float(x) for x in line]
        rows.append(TraceRow(*vals))
    return FlowTrace(rows=tuple(rows))


def write_trace(path: str, trace: FlowTrace) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_csv(trace))


def read_trace(path: str) -> FlowTrace:
    with open(path) as fh:
        return trace_from_csv(fh.read())
