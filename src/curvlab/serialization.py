"""File formats: tensor JSON and trace CSV.

The standard ``json`` and ``csv`` modules write every float as its repr,
the shortest string that reads back to the same double, so a write/read
cycle reproduces IEEE doubles bit for bit, and an integral float reads
back as a float.

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

import numpy as np

from .flow import TRACE_COLUMNS, FlowTrace, TraceRow
from .tensors import CurvatureTensor

__all__ = [
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


def dumps_json(obj) -> str:
    """A report as JSON: keys sorted, indented by two spaces, NaN and
    infinity refused (ValueError)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Tensors


def tensor_to_json(r: CurvatureTensor) -> str:
    upper = r.operator[np.triu_indices(r.n * (r.n - 1) // 2)].tolist()
    return json.dumps({"n": r.n, "operator": upper}) + "\n"


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
    writer.writerows(trace.rows)
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
