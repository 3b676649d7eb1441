import json

import numpy as np
import pytest

from phsolve import expr as ex
from phsolve import problem as pb


def minimal_data(**overrides):
    data = {
        "n": 2,
        "m": 1,
        "a": ["1", "-1"],
        "b": [["0", "0"], ["0", "0"]],
        "g": [["0", "0"], ["0", "0"]],
        "h": [["0", "0"], ["0", "0"]],
        "r": [["0", "0"], ["0", "0"]],
        "f": ["0", "0"],
    }
    data.update(overrides)
    return data


def test_from_dict_accepts_minimal():
    p = pb.from_dict(minimal_data())
    assert p.n == 2 and p.m == 1
    assert p.volterra is True
    assert p.description == ""


def test_round_trip_through_dict():
    p = pb.from_dict(minimal_data(description="round trip", volterra=False))
    q = pb.from_dict(pb.to_dict(p))
    assert pb.to_dict(q) == pb.to_dict(p)
    assert q.volterra is False


@pytest.mark.parametrize("key", ["n", "m", "a", "b", "g", "h", "r", "f"])
def test_missing_required_key(key):
    data = minimal_data()
    del data[key]
    with pytest.raises(pb.ValidationError):
        pb.from_dict(data)


def test_unknown_key_rejected():
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(extra="1"))


def test_not_a_dict_rejected():
    with pytest.raises(pb.ValidationError):
        pb.from_dict(["not", "a", "problem"])


@pytest.mark.parametrize("n", ["2", 2.0, True, 0, -1])
def test_bad_n(n):
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(n=n))


@pytest.mark.parametrize("m", [-1, 3, "1"])
def test_bad_m(m):
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(m=m))


def test_wrong_vector_length():
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(a=["1"]))


def test_wrong_matrix_shape():
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(b=[["0", "0"]]))
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(b=[["0"], ["0", "0"]]))


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("a", 5, "a"),
        ("a", "22", "a"),
        ("f", "00", "f"),
        ("b", "00", "b"),
        ("b", [5, 5], "b[1]"),
        ("g", [["0", "0"], "00"], "g[2]"),
        ("r", [["0", "0"], {"0": "0"}], "r[2]"),
    ],
)
def test_vector_and_matrix_must_be_lists(key, value, where):
    # a string has a length and items too: "00" used to read as two zeros
    with pytest.raises(pb.ValidationError) as info:
        pb.from_dict(minimal_data(**{key: value}))
    assert info.value.key == where
    assert str(info.value).startswith(f"{where}: expected a list")


def test_unparsable_entry_names_the_key():
    with pytest.raises(pb.ValidationError) as info:
        pb.from_dict(minimal_data(b=[["0", "1+"], ["0", "0"]]))
    assert "b[1][2]" in str(info.value)


def test_non_string_entry_rejected():
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(f=[1.0, "0"]))


def test_vanishing_speed_rejected():
    with pytest.raises(pb.ValidationError) as info:
        pb.from_dict(minimal_data(a=["x-1/2", "1"]))
    assert "a[1]" in str(info.value)


def test_sign_changing_speed_rejected():
    # x - 0.51 misses every sample node, so only its sign gives it away
    with pytest.raises(pb.ValidationError) as info:
        pb.from_dict(minimal_data(a=["1", "x-0.51"]))
    assert "a[2]" in str(info.value) and "sign" in str(info.value)


def test_nonperiodic_coefficient_rejected():
    with pytest.raises(pb.ValidationError) as info:
        pb.from_dict(minimal_data(f=["t", "0"]))
    assert "f[1]" in str(info.value)


def test_nonperiodic_speed_rejected():
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(a=["2+sin(t/2)", "1"]))


def test_bad_volterra_flag():
    with pytest.raises(pb.ValidationError):
        pb.from_dict(minimal_data(volterra="yes"))


def test_sides():
    p = pb.from_dict(minimal_data())
    assert p.bc_side(1) == 0.0
    assert p.bc_side(2) == 1.0
    assert p.opposite_side(1) == 1.0
    assert p.opposite_side(2) == 0.0


def test_all_components_on_one_side():
    p = pb.from_dict(minimal_data(m=0, a=["-1", "-2"]))
    assert p.bc_side(1) == 1.0 and p.bc_side(2) == 1.0
    p = pb.from_dict(minimal_data(m=2))
    assert p.bc_side(1) == 0.0 and p.bc_side(2) == 0.0


def test_speed_derivatives_match_symbolic():
    p = pb.from_dict(minimal_data(a=["2+0.3*sin(x+t)", "1"]))
    want_t = ex.differentiate(p.speeds[0], "t")
    for x, t in [(0.0, 0.0), (0.5, 1.3), (1.0, 6.0)]:
        assert ex.evaluate(p.speed_dt(1), x, t) == ex.evaluate(want_t, x, t)
    assert p.speed_dt(1) is p.speed_dt(1)


def test_from_json_round_trip(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(minimal_data(description="from file")))
    p = pb.from_json(path)
    assert p.description == "from file"


def test_from_json_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(pb.ValidationError):
        pb.from_json(path)


def test_from_json_missing_file(tmp_path):
    with pytest.raises(OSError):
        pb.from_json(tmp_path / "nope.json")


def test_expr_trees_accepted_directly():
    data = minimal_data()
    data["a"] = [ex.parse("1"), ex.parse("-1")]
    p = pb.from_dict(data)
    assert ex.evaluate(p.speeds[0], 0.0, 0.0) == 1.0
