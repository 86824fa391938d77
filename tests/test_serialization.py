import json

import numpy as np
import pytest

from curvlab.flow import FlowTrace, TraceRow
from curvlab.serialization import (
    dumps_json,
    fmt17,
    read_tensor,
    read_trace,
    tensor_from_json,
    tensor_to_json,
    trace_from_csv,
    trace_to_csv,
    write_tensor,
    write_trace,
)
from curvlab.tensors import random_tensor, sphere


def test_fmt17_round_trips_doubles():
    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(200))
    values += [0.0, -0.0, 1e-300, -1e300, 1.0 / 3.0, np.pi, 2.0**-1074]
    for x in values:
        assert float(fmt17(float(x))) == float(x)


def test_tensor_round_trip_bit_for_bit(tmp_path):
    for seed, n in ((0, 4), (1, 5), (2, 6)):
        r = random_tensor(seed, n)
        path = tmp_path / f"t{n}.json"
        write_tensor(str(path), r)
        back = read_tensor(str(path))
        assert back.n == r.n
        assert np.array_equal(back.comps, r.comps)


def test_tensor_json_is_plain_json():
    r = sphere(4, 1.0 / 3.0)
    data = json.loads(tensor_to_json(r))
    assert data["n"] == 4
    assert len(data["components"]) == 256
    assert data["components"][1 * 64 + 0 * 16 + 1 * 4 + 0] == pytest.approx(1.0 / 3.0, abs=0)
    assert data["components"][0 * 64 + 1 * 16 + 1 * 4 + 0] == pytest.approx(-1.0 / 3.0, abs=0)


def test_tensor_json_rejects_malformed():
    with pytest.raises(ValueError):
        tensor_from_json('{"n": 4}')
    with pytest.raises(ValueError):
        tensor_from_json('{"n": "4", "components": []}')
    with pytest.raises(ValueError):
        tensor_from_json('[1, 2, 3]')
    with pytest.raises(ValueError):
        tensor_from_json('{"n": 4, "components": [1.0, 2.0]}')
    with pytest.raises(json.JSONDecodeError):
        tensor_from_json("not json")
    with pytest.raises(ValueError, match="numbers"):
        tensor_from_json('{"n": 2, "components": [{}' + ", 1" * 15 + "]}")
    with pytest.raises(ValueError, match="numbers"):
        tensor_from_json('{"n": 2, "components": [[1, 2], [3]]}')
    with pytest.raises(ValueError, match="flat"):
        tensor_from_json('{"n": 2, "components": [[' + ", ".join(["0"] * 16) + "]]}")
    with pytest.raises(ValueError, match="numbers"):
        tensor_from_json('{"n": 2, "components": [' + ", ".join(['"0"'] * 16) + "]}")


def test_trace_round_trip(tmp_path):
    rows = (
        TraceRow(t=0.0, kmin=1.0, kmax=1.0, min_iso=4.0, min_pic2=0.0, scalar=12.0, dt=0.0, err_est=0.0),
        TraceRow(t=0.01, kmin=1.0 / 3.0, kmax=1.5, min_iso=4.1, min_pic2=-1e-17, scalar=12.3, dt=0.01, err_est=2e-11),
    )
    trace = FlowTrace(rows=rows)
    path = tmp_path / "trace.csv"
    write_trace(str(path), trace)
    back = read_trace(str(path))
    assert len(back.rows) == 2
    for got, expect in zip(back.rows, rows):
        assert got.astuple() == expect.astuple()
    assert back.final is None and back.q_evals is None and back.halvings is None


def test_trace_csv_header_and_shape_errors():
    with pytest.raises(ValueError, match="header"):
        trace_from_csv("a,b\n1,2\n")
    with pytest.raises(ValueError, match="empty"):
        trace_from_csv("")
    good = trace_to_csv(FlowTrace(rows=(TraceRow(0, 1, 1, 4, 0, 12, 0, 0),)))
    header = good.splitlines()[0]
    assert header == "t,kmin,kmax,min_iso,min_pic2,scalar,dt,err_est"
    with pytest.raises(ValueError, match="fields"):
        trace_from_csv(header + "\n1,2,3\n")


def test_dumps_json_is_sorted_and_17_digits():
    text = dumps_json({"b": 1.0 / 3.0, "a": True, "c": [1, 2.5], "d": None, "e": "x"})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.33333333333333331" in text
    parsed = json.loads(text)
    assert parsed["b"] == 1.0 / 3.0
    with pytest.raises(ValueError):
        dumps_json({"x": float("nan")})
    with pytest.raises(TypeError):
        dumps_json({"x": object()})
