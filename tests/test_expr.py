import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phsolve import expr as ex
from phsolve import problems
from phsolve.problem import to_dict

from corpus import CORPUS, box_of, diff_ok

FD_STEP = 1e-6


def fd_partial(node, var, x, t, h=FD_STEP):
    if var == "x":
        return (ex.evaluate(node, x + h, t) - ex.evaluate(node, x - h, t)) / (2 * h)
    return (ex.evaluate(node, x, t + h) - ex.evaluate(node, x, t - h)) / (2 * h)


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


# --- tokenizer --------------------------------------------------------------


def test_tokenize_simple():
    toks = ex.tokenize("2/pi")
    assert [tok.kind for tok in toks] == ["number", "op", "ident"]
    assert [tok.lexeme for tok in toks] == ["2", "/", "pi"]


def test_tokenize_call():
    toks = ex.tokenize("sin(t - (pi/2)*x)")
    assert len(toks) == 12
    assert toks[-1].kind == "paren" and toks[-1].lexeme == ")"


def test_tokenize_malformed_number():
    with pytest.raises(ex.LexError) as info:
        ex.tokenize("2..5")
    assert info.value.offset == 1


def test_tokenize_number_out_of_range():
    # 1e400 reads as inf, and x/inf = 0 raises no floating-point flag
    with pytest.raises(ex.LexError, match="number out of range") as info:
        ex.tokenize("2+x/1e400")
    assert info.value.offset == 4


def test_tokenize_rejects_unknown_characters():
    with pytest.raises(ex.LexError):
        ex.tokenize("x @ t")


@pytest.mark.parametrize(
    "source, where, offset",
    [
        ("1.5.3", "before", 3),
        ("1e5.", "before", 3),
        ("1.", "after", 1),
        ("1.e5", "after", 1),
        # the '.' is refused before the 400 digits are found out of range
        ("9" * 400 + ".", "after", 400),
    ],
)
def test_tokenize_refuses_a_dot_without_digits(source, where, offset):
    with pytest.raises(ex.LexError, match=f"expected digit {where} '.'") as info:
        ex.tokenize(source)
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "source, offset",
    # a superscript two passed str.isdigit and then failed float(); an
    # Arabic-Indic three was read as 3; a non-ASCII letter began an identifier
    [("x^\u00b2", 2), ("\u0663*x", 0), ("2*\u00e9", 2)],
)
def test_tokenize_refuses_non_ascii_digits_and_letters(source, offset):
    with pytest.raises(ex.LexError, match="unexpected character") as info:
        ex.tokenize(source)
    assert info.value.offset == offset


def test_tab_and_no_break_space_separate_tokens():
    toks = ex.tokenize("sin\t(x)\u00a0^2")
    assert [tok.lexeme for tok in toks] == ["sin", "(", "x", ")", "^", "2"]
    assert [tok.pos for tok in toks] == [0, 4, 5, 6, 8, 9]
    assert [tok.kind for tok in ex.tokenize("1\u00a02\t3")] == ["number"] * 3


@pytest.mark.parametrize("source", [entry[0] for entry in CORPUS])
def test_tokenize_lexemes_reconstruct_source(source):
    toks = ex.tokenize(source)
    assert "".join(tok.lexeme for tok in toks) == "".join(source.split())
    positions = [tok.pos for tok in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


# --- parser -----------------------------------------------------------------


def test_parse_precedence():
    assert ex.evaluate(ex.parse("1+2*3"), 0.0, 0.0) == 7.0


def test_parse_unary_minus_binds_looser_than_power():
    assert ex.evaluate(ex.parse("-x^2"), 3.0, 0.0) == -9.0


def test_parse_power_right_associative():
    assert ex.evaluate(ex.parse("2^3^2"), 0.0, 0.0) == 512.0


def test_parse_pi_is_constant():
    assert ex.evaluate(ex.parse("pi"), 0.0, 0.0) == math.pi


def test_parse_unclosed_paren():
    with pytest.raises(ex.ParseError):
        ex.parse("sin(x")


def test_parse_unknown_identifier():
    with pytest.raises(ex.ParseError):
        ex.parse("x + y")


def test_parse_trailing_garbage():
    with pytest.raises(ex.ParseError):
        ex.parse("1 2")


def test_parse_empty_source():
    with pytest.raises(ex.ParseError):
        ex.parse("")


@pytest.mark.parametrize("source", [entry[0] for entry in CORPUS])
def test_parse_deterministic(source):
    assert ex.parse(source) == ex.parse(source)


@pytest.mark.parametrize(
    "source",
    [
        pytest.param("(" * 300 + "1" + ")" * 300, id="parens"),
        pytest.param("-" * 3000 + "1", id="unary-minus"),
        pytest.param("^".join(["x"] * 500), id="power"),
        pytest.param("sin(" * 150 + "x" + ")" * 150, id="calls"),
    ],
)
def test_parse_refuses_deep_nesting(source):
    # the parser recursed about five frames a level and overflowed Python's
    # stack near 199 levels, with a raw RecursionError
    with pytest.raises(ex.ParseError, match="nested deeper") as err:
        ex.parse(source)
    assert 0 < err.value.offset < len(source)


def test_parse_accepts_nesting_up_to_the_limit():
    depth = ex.MAX_DEPTH - 1
    assert ex.evaluate(ex.parse("(" * depth + "x" + ")" * depth), 2.0, 0.0) == 2.0
    assert ex.evaluate(ex.parse("-" * depth + "x"), 2.0, 0.0) == -2.0
    with pytest.raises(ex.ParseError, match="nested deeper"):
        ex.parse("(" * (depth + 1) + "x" + ")" * (depth + 1))


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_chain_deeper_than_the_limit_is_refused_at_its_operator(op):
    # a flat chain, parsed in a loop, still builds a tree one level deeper
    # a term, and the tree walkers recurse on it: 1500 x's joined by +
    # ended in a raw RecursionError from _eval.  A chain of MAX_DEPTH terms
    # is MAX_DEPTH deep; the operator that adds the next term is refused
    depth = ex.MAX_DEPTH
    ex.parse(op.join(["t"] * depth))
    for terms in (depth + 1, 1500):
        with pytest.raises(ex.ParseError, match="nested deeper") as err:
            ex.parse(op.join(["t"] * terms))
        assert err.value.offset == 2 * depth - 1


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
def test_walkers_fit_a_chain_at_the_limit(op):
    # every walker recurses once a level; a derivative of a chain of
    # divisions or powers in t is about three times as deep as the chain
    node = ex.parse(op.join(["t"] * ex.MAX_DEPTH))
    assert ex.parse(ex.to_string(node)) == node
    derivative = ex.differentiate(node, "t")
    assert ex.to_string(derivative)
    moved = ex.substitute(derivative, "t", ex.parse("x+1"))
    t = np.array([1.1, 1.3])
    np.testing.assert_array_equal(ex.evaluate(moved, t - 1.0, 0.0), ex.evaluate(derivative, 0.0, t))


@pytest.mark.parametrize("name", sorted(problems.BUILTINS))
def test_builtin_expressions_parse(name):
    data = to_dict(problems.get_builtin(name))
    for key in "abghrf":
        for entry in np.ravel(np.array(data[key], dtype=object)):
            ex.parse(entry)


# --- evaluation -------------------------------------------------------------


def test_evaluate_two_over_pi():
    assert ex.evaluate(ex.parse("2/pi"), 0.5, 1.0) == 0.6366197723675814


def test_evaluate_phase_zero():
    assert ex.evaluate(ex.parse("sin(t-(pi/2)*x)"), 1.0, math.pi / 2) == 0.0


def test_evaluate_returns_scalar_float():
    out = ex.evaluate(ex.parse("x+t"), 1.0, 2.0)
    assert isinstance(out, float) and out == 3.0


def test_evaluate_broadcasts_arrays():
    node = ex.parse("x*sin(t)")
    xs = np.linspace(0.0, 1.0, 7)[:, None]
    ts = np.linspace(0.0, 2.0, 5)[None, :]
    out = ex.evaluate(node, xs, ts)
    assert out.shape == (7, 5)
    assert out[3, 2] == ex.evaluate(node, float(xs[3, 0]), float(ts[0, 2]))
    const = ex.evaluate(ex.parse("2"), xs, ts)
    assert const.shape == (7, 5) and const.dtype == float and np.all(const == 2.0)
    assert type(ex.evaluate(ex.parse("2"), 0.5, 1)) is float
    assert type(ex.evaluate(node, np.float64(0.5), 1.0)) is float


# (source, the subexpression whose value is not finite at x = 0.3)
DOMAIN_VIOLATIONS = [
    ("1/(x-x)", "1/(x-x)"),
    ("log(0*x)", "log(0*x)"),
    ("sqrt(0-1-x^2)", "sqrt(0-1-x^2)"),
    # the non-finite value is gone from the result: a check of the result
    # alone passes these
    ("exp(-1/(x-0.3)^2)", "-1/(x-0.3)^2"),
    ("1/exp(1000+x)", "exp(1000+x)"),
]

# x = 0.3 alone and among 66 other points, so that both the scalar path and
# the vector loops of numpy's ufuncs see the violation
_DOMAIN_PROBE = """
import json, sys
import numpy as np
from phsolve import expr as ex

xs = np.linspace(0.0, 1.0, 67)
xs[20] = 0.3
culprits = {}
for source in json.loads(sys.argv[1]):
    for x in (0.3, xs):
        try:
            ex.evaluate(ex.parse(source), x, 0.7)
            culprits.setdefault(source, []).append(None)
        except ex.EvalError as err:
            culprits.setdefault(source, []).append(ex.to_string(err.node))
print(json.dumps(culprits))
"""


@pytest.mark.parametrize(
    "source, culprit", DOMAIN_VIOLATIONS, ids=[source for source, _ in DOMAIN_VIOLATIONS]
)
def test_evaluate_domain_violation(source, culprit):
    for x in (0.3, np.array([0.1, 0.3, 0.9])):
        with pytest.raises(ex.EvalError) as info:
            ex.evaluate(ex.parse(source), x, 0.7)
        assert info.value.node == ex.parse(culprit)
        assert str(info.value) == f"non-finite value from {ex.to_string(ex.parse(culprit))!r}"


def test_domain_violations_flagged_by_numpy_baseline_loops():
    # the evaluator relies on numpy raising its floating-point flags; rerun
    # the cases above with every dispatched CPU feature switched off
    from numpy._core._multiarray_umath import __cpu_dispatch__

    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    check = [
        sys.executable, "-c",
        "from numpy._core._multiarray_umath import __cpu_dispatch__ as d, "
        "__cpu_features__ as f; print(sum(bool(f.get(k)) for k in d))",
    ]
    probe = subprocess.run(check, env=env, capture_output=True, text=True)
    if probe.returncode != 0:
        reason = (probe.stderr.strip().splitlines() or ["no message"])[-1]
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES: {reason}")
    assert probe.stdout.strip() == "0", "dispatched CPU features still active"
    sources = [source for source, _ in DOMAIN_VIOLATIONS]
    run = subprocess.run(
        [sys.executable, "-c", _DOMAIN_PROBE, json.dumps(sources)],
        env=env, capture_output=True, text=True, check=True,
    )
    want = {s: [ex.to_string(ex.parse(c))] * 2 for s, c in DOMAIN_VIOLATIONS}
    assert json.loads(run.stdout) == want


# --- differentiation --------------------------------------------------------


def test_differentiate_chain_rule():
    node = ex.parse("sin(t-(pi/2)*x)")
    want = ex.parse("cos(t-(pi/2)*x)")
    got = ex.differentiate(node, "t")
    for x, t in [(0.0, 0.0), (0.3, 1.1), (1.0, 5.0)]:
        assert ex.evaluate(got, x, t) == pytest.approx(ex.evaluate(want, x, t), abs=1e-15)


def test_differentiate_constant_is_zero():
    node = ex.differentiate(ex.parse("2/pi"), "x")
    assert ex.evaluate(node, 0.9, 0.1) == 0.0


def test_differentiate_product_exp():
    node = ex.parse("t*exp(x*t)")
    sym = ex.evaluate(ex.differentiate(node, "t"), 1.0, 0.5)
    fd = fd_partial(node, "t", 1.0, 0.5)
    assert abs(sym - fd) / abs(fd) <= 1e-8


def test_differentiate_rejects_abs():
    with pytest.raises(ex.DiffError):
        ex.differentiate(ex.parse("abs(x)"), "x")


def test_differentiate_rejects_unknown_variable():
    with pytest.raises(ValueError):
        ex.differentiate(ex.parse("x"), "z")


@pytest.mark.parametrize("entry", [e for e in CORPUS if diff_ok(e[0])], ids=lambda e: e[0].strip())
def test_derivatives_match_finite_differences(entry):
    source, _ = entry
    x0, x1, t0, t1 = box_of(entry)
    node = ex.parse(source)
    rng = np.random.default_rng(abs(hash(source)) % 2**32)
    for var in ("x", "t"):
        deriv = ex.differentiate(node, var)
        for _ in range(3):
            x = float(rng.uniform(x0, x1))
            t = float(rng.uniform(t0, t1))
            sym = ex.evaluate(deriv, x, t)
            fd = fd_partial(node, var, x, t)
            assert rel_gap(sym, fd) <= 1e-7, (source, var, x, t, sym, fd)


# --- substitution and printing ----------------------------------------------


def test_substitute_variable():
    node = ex.substitute(ex.parse("x^2+t"), "x", ex.parse("sin(t)"))
    for t in (0.0, 0.4, 2.0):
        assert ex.evaluate(node, 9.9, t) == pytest.approx(math.sin(t) ** 2 + t, abs=1e-15)


def test_substitute_leaves_other_variable_alone():
    node = ex.substitute(ex.parse("x+t"), "t", ex.const(0.0))
    assert ex.evaluate(node, 0.25, 123.0) == 0.25


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e[0].strip())
def test_round_trip_evaluates_identically(entry):
    source, _ = entry
    x0, x1, t0, t1 = box_of(entry)
    first = ex.parse(source)
    second = ex.parse(ex.to_string(first))
    rng = np.random.default_rng(7)
    xs = rng.uniform(x0, x1, size=100)
    ts = rng.uniform(t0, t1, size=100)
    for x, t in zip(xs, ts):
        assert ex.evaluate(first, float(x), float(t)) == ex.evaluate(second, float(x), float(t))


# --- randomized trees -------------------------------------------------------

_leaves = st.one_of(
    st.sampled_from([ex.Var("x"), ex.Var("t")]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(ex.const),
)


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(ex.neg),
        pairs.map(lambda ab: ex.add(*ab)),
        pairs.map(lambda ab: ex.sub(*ab)),
        pairs.map(lambda ab: ex.mul(*ab)),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(lambda fc: ex.call(*fc)),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=12)


@given(_trees, st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))
def test_printed_tree_reparses_to_same_values(tree, x, t):
    reparsed = ex.parse(ex.to_string(tree))
    assert ex.evaluate(reparsed, x, t) == ex.evaluate(tree, x, t)


@given(_trees)
def test_printed_tree_tokenizes(tree):
    text = ex.to_string(tree)
    toks = ex.tokenize(text)
    assert "".join(tok.lexeme for tok in toks) == "".join(text.split())


# a source over the token alphabet, with characters no token takes
_lexemes = st.sampled_from(
    ["x", "t", "pi", "e", "E", "sin", "exp", "_", "1", "25", "3.5", "1e3", "2E-1"]
    + list("+-*/^(),. \t\u00a0@\u00b2\u00e9")
)


@given(st.lists(_lexemes, max_size=24).map("".join))
def test_parse_returns_a_printable_tree_or_a_placed_error(source):
    # no ValueError, IndexError or RecursionError escapes: those fail here
    try:
        tree = ex.parse(source)
    except (ex.LexError, ex.ParseError) as err:
        assert 0 <= err.offset <= len(source)
    else:
        assert ex.parse(ex.to_string(tree)) == tree
