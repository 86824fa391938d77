import json

import numpy as np
import pytest

from curvlab.flow import FlowTrace, TraceRow
from curvlab.serialization import (
    dumps_json,
    read_tensor,
    read_trace,
    tensor_from_json,
    tensor_to_json,
    trace_from_csv,
    trace_to_csv,
    write_tensor,
    write_trace,
)
from curvlab.flow import quadratic_reaction
from curvlab.tensors import (
    CurvatureTensor,
    combine,
    fubini_study,
    pad_euclidean,
    product,
    random_tensor,
    sphere,
)


def _bits(r):
    return r.comps.view(np.uint64)


def _components_json(r):
    # the components-form writer as it was before the operator form, frozen
    comps = ", ".join(format(x, ".17g") for x in r.comps)
    return f'{{"n": {r.n}, "components": [{comps}]}}\n'


def _operator_json_17g(r):
    # the operator-form writer as it was with 17-digit floats, frozen: 1.0
    # was written "1", and a negative zero "-0.0"
    upper = r.operator[np.triu_indices(r.n * (r.n - 1) // 2)].tolist()
    values = ", ".join("-0.0" if x == 0.0 and np.signbit(x) else format(x, ".17g") for x in upper)
    return f'{{"n": {r.n}, "operator": [{values}]}}\n'


def _same_double(got, expect):
    return type(got) is float and np.float64(got).view(np.uint64) == np.float64(expect).view(np.uint64)


def test_writers_round_trip_doubles():
    rng = np.random.default_rng(0)
    values = [float(x) for x in rng.standard_normal(200)]
    values += [0.0, -0.0, 1.0, 4.0, 1e-300, -1e300, 1.0 / 3.0, np.pi, 2.0**-1074]
    # reports: every value a float again, -0.0 with its sign
    back = json.loads(dumps_json({"values": values}))["values"]
    assert all(_same_double(got, x) for got, x in zip(back, values, strict=True))
    # traces: each value once in every column
    rows = tuple(TraceRow(*([float(i)] + [x] * 7)) for i, x in enumerate(values))
    back = trace_from_csv(trace_to_csv(FlowTrace(rows=rows)))
    for got, expect in zip(back.rows, rows, strict=True):
        assert all(_same_double(a, b) for a, b in zip(tuple(got), tuple(expect), strict=True))
    # tensor files: the values on the diagonal of a 10 x 10 operator, whose
    # off-diagonal zeros hold no Lambda^4 part
    m = np.zeros((10, 10))
    for start in range(0, len(values), 10):
        chunk = values[start:start + 10]
        np.fill_diagonal(m, chunk + [0.0] * (10 - len(chunk)))
        text = tensor_to_json(CurvatureTensor.from_operator(5, m))
        assert all(type(x) is float for x in json.loads(text)["operator"])
        assert np.array_equal(tensor_from_json(text).operator.view(np.uint64), m.view(np.uint64))
    for text in (dumps_json([-0.0]), trace_to_csv(FlowTrace(rows=(TraceRow(*[-0.0] * 8),)))):
        assert "-0.0" in text


def test_tensor_round_trip_bit_for_bit(tmp_path):
    for seed, n in ((0, 4), (1, 5), (2, 6)):
        r = random_tensor(seed, n)
        path = tmp_path / f"t{n}.json"
        write_tensor(str(path), r)
        back = read_tensor(str(path))
        assert back.n == r.n
        assert np.array_equal(back.comps, r.comps)


def test_operator_form_round_trips_every_built_tensor_bit_for_bit():
    s4, cp2 = sphere(4, 1.0), fubini_study(2, 4.0)
    built = [
        s4, sphere(5, -0.5), sphere(3, 0.0), sphere(2, -2.0), cp2, fubini_study(3, -1.5),
        product(sphere(2, 1.0), sphere(3, -1.0)), product(fubini_study(2, -4.0), random_tensor(1, 3)),
        pad_euclidean(s4, 2), pad_euclidean(sphere(3, -1.0), 1),
        combine(1.0, s4, 0.3, cp2), combine(-1.0, sphere(4, -1.0), 0.0, s4),
    ]
    built += [random_tensor([3, n], n) for n in range(2, 17)]
    built += [quadratic_reaction(r) for r in built[:14]]
    assert any(np.signbit(r.comps[r.comps == 0.0]).any() for r in built)  # signed zeros are covered
    for r in built:
        back = tensor_from_json(tensor_to_json(r))
        assert back.n == r.n
        assert np.array_equal(_bits(back), _bits(r))


def test_components_form_reads_as_before(tmp_path):
    g = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 5)))[0]
    rotated = np.einsum("ia,jb,kc,ld,abcd->ijkl", g, g, g, g, random_tensor(2, 5).array, optimize=True)
    cases = [sphere(4, 1.0), fubini_study(2, 4.0), random_tensor(5, 6), CurvatureTensor(n=5, comps=rotated.reshape(-1))]
    for r in cases:
        path = tmp_path / "old.json"
        path.write_text(_components_json(r))
        assert np.array_equal(_bits(read_tensor(str(path))), _bits(r))
    # the operator form drops the round-off asymmetry of the rotated tensor
    back = tensor_from_json(tensor_to_json(cases[-1]))
    assert not np.array_equal(back.comps, cases[-1].comps)
    assert np.max(np.abs(back.comps - cases[-1].comps)) < 1e-14


def test_17_digit_operator_files_read_bit_for_bit(tmp_path):
    zoo = [sphere(4, 1.0), sphere(5, -0.5), fubini_study(2, 4.0), fubini_study(3, -1.5),
           product(sphere(2, 1.0), sphere(3, -1.0))]
    cases = zoo + [random_tensor(7, 6), pad_euclidean(random_tensor(3, 4), 2)]
    assert '"operator": [1, ' in _operator_json_17g(cases[0])  # 1.0 written as an integer
    assert any(np.signbit(r.operator[r.operator == 0.0]).any() for r in cases)  # and -0.0 covered
    path = tmp_path / "old.json"
    for r in cases:
        path.write_text(_operator_json_17g(r))
        back = read_tensor(str(path))
        assert back.n == r.n
        assert np.array_equal(back.operator.view(np.uint64), r.operator.view(np.uint64))


def test_operator_form_rejects_malformed():
    ok = tensor_to_json(sphere(3, 1.0))
    assert tensor_from_json(ok).n == 3
    six = ", ".join(["0"] * 6)
    with pytest.raises(ValueError, match="6 operator entries for n=3, got 5"):
        tensor_from_json('{"n": 3, "operator": [' + ", ".join(["0"] * 5) + "]}")
    with pytest.raises(ValueError, match="operator entries"):
        tensor_from_json('{"n": 4, "operator": [' + six + "]}")
    with pytest.raises(ValueError, match="flat"):
        tensor_from_json('{"n": 3, "operator": [[' + six + "]]}")
    with pytest.raises(ValueError, match="numbers"):
        tensor_from_json('{"n": 3, "operator": [[1, 2], [3]]}')
    with pytest.raises(ValueError, match="numbers"):
        tensor_from_json('{"n": 3, "operator": [' + ", ".join(['"0"'] * 6) + "]}")
    with pytest.raises(ValueError, match="numbers"):
        tensor_from_json('{"n": 3, "operator": [null' + ", 0" * 5 + "]}")
    with pytest.raises(ValueError, match="field types"):
        tensor_from_json('{"n": 3, "operator": {"0": 1}}')
    with pytest.raises(ValueError, match="dimension"):
        tensor_from_json('{"n": 1, "operator": []}')
    with pytest.raises(ValueError, match="keys"):
        tensor_from_json('{"n": 3, "operator": [' + six + '], "components": []}')
    with pytest.raises(ValueError, match="keys"):
        tensor_from_json('{"n": 3, "operator": [' + six + '], "kappa": 1}')
    with pytest.raises(ValueError, match="keys"):
        tensor_from_json('{"n": 3, "matrix": [' + six + "]}")
    with pytest.raises(ValueError, match="finite"):
        tensor_from_json('{"n": 2, "operator": [NaN]}')


def test_operator_form_rejects_broken_symmetries():
    # the only entry M[(12),(34)] = M[(34),(12)] = 1 at n = 4 is a pure
    # Lambda^4 part: its Bianchi cyclic sum is 1
    upper = [0.0] * 21
    upper[5] = 1.0
    with pytest.raises(ValueError, match="symmetry violation.*bianchi=1.000e"):
        tensor_from_json(json.dumps({"n": 4, "operator": upper}))
    # the operator form is symmetric by construction; an M passed whole can
    # break the pair exchange
    m = sphere(4, 1.0).operator.copy()
    m[0, 1] = 2e-9
    with pytest.raises(ValueError, match="symmetry violation.*pair=2.000e-09"):
        CurvatureTensor.from_operator(4, m)
    m[0, 1] = 5e-10  # within the tolerance, and kept
    assert CurvatureTensor.from_operator(4, m).operator[0, 1] == 5e-10


def test_tensor_json_is_plain_json():
    r = sphere(4, 1.0 / 3.0)
    data = json.loads(tensor_to_json(r))
    assert data["n"] == 4
    assert set(data) == {"n", "operator"}
    # M's upper triangle for N = 6 pairs: row p starts at 6 p - p (p - 1) / 2
    assert len(data["operator"]) == 21
    assert data["operator"][0] == pytest.approx(1.0 / 3.0, abs=0)  # R_0101
    assert data["operator"][6] == pytest.approx(1.0 / 3.0, abs=0)  # R_0202
    assert data["operator"][1] == pytest.approx(0.0, abs=0)  # R_0102


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
        assert tuple(got) == tuple(expect)
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


def test_dumps_json_is_sorted_and_shortest_repr():
    text = dumps_json({"b": 1.0 / 3.0, "a": True, "c": [1, 2.5], "d": None, "e": "x"})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"b": 0.3333333333333333,' in text
    parsed = json.loads(text)
    assert parsed["b"] == 1.0 / 3.0
    with pytest.raises(ValueError):
        dumps_json({"x": float("nan")})
    with pytest.raises(TypeError):
        dumps_json({"x": object()})
