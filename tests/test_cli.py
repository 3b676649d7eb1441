import csv
import importlib
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phsolve import expr as ex
from phsolve.cli import HANDLERS, main
from phsolve.problem import to_dict
from phsolve import problems


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_json(tmp_path, name):
    with open(tmp_path / name) as fh:
        return json.load(fh)


def read_csv(tmp_path, name):
    with open(tmp_path / name) as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


# --- solve ------------------------------------------------------------------


def test_solve_unique_exit_zero(tmp_path, capsys):
    code = run(tmp_path, "solve", "--builtin", "pure-forcing", "--nx", "9", "--nt", "8")
    assert code == 0
    assert "unique solve" in capsys.readouterr().out
    report = read_json(tmp_path, "report.json")
    assert report["unique"] is True
    assert report["kernel_dim"] == 0
    assert report["defect"] is None
    assert report["nx"] == 9 and report["nt"] == 8 and report["size"] == 72
    assert report["sigma_min"] > report["tau"]
    assert report["spectrum"] == [report["sigma_max"], report["sigma_min"]]
    assert set(report["timings"]) == {"assemble_s", "solve_s"}
    header, rows = read_csv(tmp_path, "solution.csv")
    assert header == ["j", "i", "q", "x", "t", "value"]
    assert len(rows) == 72
    for row in rows[::11]:
        assert float(row[5]) == pytest.approx(float(row[3]), abs=1e-12)


def test_solve_resonant_exit_two(tmp_path, capsys):
    code = run(
        tmp_path,
        "solve", "--builtin", "example13",
        "--nx", "17", "--nt", "16", "--tau", "1e-2",
    )
    assert code == 2
    assert "resonant branch" in capsys.readouterr().out
    report = read_json(tmp_path, "report.json")
    assert report["unique"] is False
    assert report["kernel_dim"] >= 2
    assert report["defect"] == 0.0


def test_solve_from_problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(to_dict(problems.pure_forcing())))
    code = run(tmp_path, "solve", "--problem", str(path), "--nx", "9", "--nt", "8")
    assert code == 0


def test_solve_creates_missing_out_dir(tmp_path):
    out = tmp_path / "deep" / "er"
    code = main(
        ["solve", "--builtin", "pure-forcing", "--nx", "9", "--nt", "8", "--out", str(out)]
    )
    assert code == 0
    assert (out / "report.json").exists()


def test_solve_reports_are_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(
            ["solve", "--builtin", "manufactured-wellposed", "--nx", "9", "--nt", "8",
             "--out", str(out)]
        )
        assert code == 0
    ra = read_json(a, "report.json")
    rb = read_json(b, "report.json")
    ra.pop("timings")
    rb.pop("timings")
    assert ra == rb
    assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()


def test_solve_and_spectrum_agree_on_the_edges(tmp_path):
    argv = ("--builtin", "manufactured-wellposed", "--nx", "17", "--nt", "16")
    assert run(tmp_path, "solve", *argv) == 0
    assert run(tmp_path, "spectrum", *argv) == 0
    report = read_json(tmp_path, "report.json")
    values = [float(row[1]) for row in read_csv(tmp_path, "spectrum.csv")[1]]
    assert report["sigma_max"] == pytest.approx(values[0], rel=1e-10)
    assert report["sigma_min"] == pytest.approx(values[-1], rel=1e-10)


# --- failure paths ----------------------------------------------------------


def test_unknown_builtin_exits_one(tmp_path, capsys):
    code = run(tmp_path, "solve", "--builtin", "nope")
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_problem_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    code = run(tmp_path, "solve", "--problem", str(path))
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "JSON" in err


def test_missing_problem_file_exits_one(tmp_path, capsys):
    code = run(tmp_path, "solve", "--problem", str(tmp_path / "absent.json"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_problem_data_exits_one(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    data = to_dict(problems.pure_forcing())
    data["a"] = ["1+"]
    path.write_text(json.dumps(data))
    code = run(tmp_path, "solve", "--problem", str(path))
    assert code == 1
    assert "a[1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("a", 5),
        ("b", [5, 5]),
        ("b", ["00", "00"]),
        ("a", ["(" * 300 + "1" + ")" * 300]),
        ("f", ["+".join(["x"] * 1500), "0"]),
    ],
)
def test_non_list_problem_data_exits_one(tmp_path, capsys, key, value):
    # a number raised a TypeError traceback; strings of zeros read as a zero
    # matrix and the solve exited 0; 300 nested parentheses overflowed the
    # parser's recursion, and a chain of 1500 terms the evaluator's
    path = tmp_path / "not_lists.json"
    data = to_dict(problems.example13())
    data[key] = value
    path.write_text(json.dumps(data))
    code = run(tmp_path, "solve", "--problem", str(path), "--nx", "5", "--nt", "4")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# MAX_DEPTH levels deep, one under the refused depth: a speed that divides
# by functions of t, whose t-derivative is about three times as deep, and
# a sum of x's
DEEP_SPEED = "2+" + "/".join(["sin(t)"] + ["(2+cos(t))"] * (ex.MAX_DEPTH - 5))
DEEP_SUM = "+".join(["x"] * ex.MAX_DEPTH)


def test_expressions_at_the_depth_limit_run(tmp_path, capsys):
    for source, next_term in ((DEEP_SPEED, "/(2+cos(t))"), (DEEP_SUM, "+x")):
        ex.parse(source)
        with pytest.raises(ex.ParseError, match="nested deeper"):
            ex.parse(source + next_term)
    path = tmp_path / "deep.json"
    data = to_dict(problems.pure_forcing())
    data["a"], data["f"] = [DEEP_SPEED], [DEEP_SUM]
    path.write_text(json.dumps(data))
    assert run(tmp_path, "solve", "--problem", str(path), "--nx", "5", "--nt", "4") == 0
    assert read_json(tmp_path, "report.json")["unique"] is True
    residual = ["residual", "--builtin", "pure-forcing", "--nx", "5", "--nt", "4"]
    assert run(tmp_path, *residual, "--exact", DEEP_SUM) == 0
    assert capsys.readouterr().err == ""
    assert run(tmp_path, *residual, "--exact", DEEP_SUM + "+x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested deeper" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "speed",
    [
        "x-0.51",  # changes sign between validation samples
        "(x-0.25)^2",  # touches zero off the samples; the tracer hits it
        "(x-0.51)*(x-0.52)",  # negative between samples; the tracer's sign check
    ],
)
def test_degenerate_speed_exits_one(tmp_path, capsys, speed):
    path = tmp_path / "degenerate.json"
    data = to_dict(problems.pure_forcing())
    data["a"] = [speed]
    data["f"] = ["1"]
    path.write_text(json.dumps(data))
    code = run(tmp_path, "solve", "--problem", str(path), "--nx", "17", "--nt", "16")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


def test_overflowing_gain_exits_one(tmp_path, capsys):
    # the curve gain exp(1000 x) overflows; refused in the tracer, before
    # an inf can reach the matrix
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_OVERFLOW))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(
            ["solve", "--problem", str(path), "--nx", "9", "--nt", "8", "--out", str(out)]
        )
    assert code == 1
    assert [str(w.message) for w in seen] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "gain of component 1" in err
    assert not out.exists() or not any(out.iterdir())


def test_overflowing_literal_exits_one(tmp_path, capsys):
    # 1e400 read as an infinite speed: the solve leaked a RuntimeWarning,
    # exited 0 and wrote an all-zero solution
    path = tmp_path / "literal.json"
    data = to_dict(problems.pure_forcing())
    data["a"] = ["1e400"]
    path.write_text(json.dumps(data))
    code = run(tmp_path, "solve", "--problem", str(path), "--nx", "9", "--nt", "8")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a[1]") and err.count("\n") == 1
    assert "number out of range" in err
    assert not (tmp_path / "report.json").exists()


def test_infinite_tau_exits_one(tmp_path, capsys):
    # tau = inf counted every singular value as zero, exited 2 and wrote
    # "tau": Infinity, which is not JSON, into report.json
    code = run(
        tmp_path, "solve", "--builtin", "pure-forcing", "--nx", "5", "--nt", "4", "--tau", "inf"
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "tau" in err
    assert not (tmp_path / "report.json").exists()


def test_negative_tau_exits_one(tmp_path, capsys):
    # exactly singular (every constant is a fixed point): a negative tau
    # used to send it to the LU solve and write a NaN solution
    path = tmp_path / "singular.json"
    data = to_dict(problems.pure_forcing())
    data["r"] = [["1"]]
    data["f"] = ["1"]
    path.write_text(json.dumps(data))
    code = run(
        tmp_path, "solve", "--problem", str(path), "--nx", "9", "--nt", "8", "--tau", "-1"
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "tau" in err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "solution.csv").exists()


def test_capacity_error_exits_one(tmp_path, capsys):
    # a t-dependent problem stores all of A; an autonomous one, such as
    # example13, only its block-row 0 and passes this grid
    code = run(
        tmp_path, "solve", "--builtin", "manufactured-wellposed", "--nx", "81", "--nt", "128"
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


# caps the address space, then runs the command line in argv[1:]
_UNDER_MEMORY_CAP = """
import resource, sys
cap = 3 * 2**30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from phsolve.cli import main
sys.exit(main(sys.argv[1:]))
"""


def src_env():
    """The environment for a fresh interpreter that imports this checkout's
    phsolve."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_out_of_memory_exits_one(tmp_path):
    # the residual command has no dense cap: sampling a 20001 x 20000
    # candidate asks for 6.4 GB, which a 3 GiB address space refuses
    pytest.importorskip("resource")
    argv = [
        "residual", "--builtin", "example13", "--nx", "20001", "--nt", "20000",
        "--exact", "0,0", "--out", str(tmp_path),
    ]
    run = subprocess.run(
        [sys.executable, "-c", _UNDER_MEMORY_CAP, *argv],
        env=src_env(), capture_output=True, text=True,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "residual.json").exists()


def test_overflowing_gram_exits_one(tmp_path):
    # A is finite, but r = exp(709 x) puts entries near 1e308 in it, so its
    # Gram products overflow; ARPACK's LAPACK calls printed "DLASCL" from
    # Fortran when handed them, so the noise is looked for in a subprocess
    path = tmp_path / "gram.json"
    data = to_dict(problems.pure_forcing())
    data["a"] = ["1+0*t"]
    data["r"] = [["exp(709*x)"]]
    data["f"] = ["1"]
    path.write_text(json.dumps(data))
    argv = ["solve", "--problem", str(path), "--nx", "9", "--nt", "8", "--out", str(tmp_path)]
    run = subprocess.run(
        [sys.executable, "-m", "phsolve", *argv], env=src_env(), capture_output=True, text=True
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error:") and run.stderr.count("\n") == 1
    assert "not finite" in run.stderr
    assert "DLASCL" not in run.stdout + run.stderr
    assert not (tmp_path / "report.json").exists()


def test_residual_without_exact_exits_one(tmp_path, capsys):
    code = run(tmp_path, "residual", "--builtin", "pure-forcing")
    assert code == 1
    assert "--exact" in capsys.readouterr().err


def test_exact_arity_mismatch_exits_one(tmp_path, capsys):
    code = run(
        tmp_path, "residual", "--builtin", "manufactured-wellposed", "--exact", "x",
        "--nx", "9", "--nt", "8",
    )
    assert code == 1
    assert "2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, exact, position",
    [("residual", "0,,0", 2), ("converge", ",0,0,", 1), ("converge", "0,0,", 3)],
)
def test_exact_empty_entry_exits_one(tmp_path, capsys, command, exact, position):
    # n = 2: dropping the empty entries would leave two expressions
    argv = [command, "--builtin", "example13", "--nx", "5", "--nt", "4", "--exact", exact]
    code = run(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"entry {position} " in err[0]


def test_exact_parse_error_names_its_entry(tmp_path, capsys):
    # the offset counts from the stripped entry, so the entry is named too
    argv = ["residual", "--builtin", "example13", "--nx", "5", "--nt", "4", "--exact", "sin(x),y+1"]
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --exact[2]: unknown identifier 'y' (offset 0)"]
    assert not (tmp_path / "residual.json").exists()


def test_non_ascii_digit_in_problem_file_exits_one(tmp_path, capsys):
    # '²' passed str.isdigit and then failed float() with a bare ValueError
    path = tmp_path / "digit.json"
    data = to_dict(problems.pure_forcing())
    data["f"] = ["x^\u00b2"]
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = run(out, "solve", "--problem", str(path), "--nx", "9", "--nt", "8")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: f[1]: unexpected character '\u00b2' (offset 2)"]
    assert not out.exists() or not any(out.iterdir())


def test_non_ascii_digit_in_exact_exits_one(tmp_path, capsys):
    # an Arabic-Indic three was read as 3, and the residual of 3*x reported
    argv = ["residual", "--builtin", "pure-forcing", "--nx", "9", "--nt", "8"]
    assert run(tmp_path, *argv, "--exact", "\u0663*x") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --exact[1]: unexpected character '\u0663' (offset 0)"]
    assert not (tmp_path / "residual.json").exists()


def test_usage_error_exits_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["solve"])  # neither --problem nor --builtin
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["spectrum", "check-levy", "residual"])
def test_tau_refused_where_it_is_not_read(tmp_path, command):
    # only solve, kernel and converge decide the alternative against tau
    argv = [command, "--builtin", "pure-forcing", "--nx", "5", "--nt", "4"]
    if command == "residual":
        argv += ["--exact", "x"]
    assert run(tmp_path, *argv) == 0
    with pytest.raises(SystemExit) as info:
        run(tmp_path, *argv, "--tau", "1e-2")
    assert info.value.code == 2


# --- other commands ---------------------------------------------------------

def test_spectrum_writes_descending_csv(tmp_path):
    code = run(tmp_path, "spectrum", "--builtin", "example13", "--nx", "9", "--nt", "8")
    assert code == 0
    header, rows = read_csv(tmp_path, "spectrum.csv")
    assert header == ["index", "sigma"]
    assert len(rows) == 2 * 9 * 8
    values = [float(row[1]) for row in rows]
    assert values == sorted(values, reverse=True)
    assert [int(row[0]) for row in rows] == list(range(len(rows)))


def test_kernel_dumps_basis_columns(tmp_path):
    code = run(
        tmp_path,
        "kernel", "--builtin", "example13",
        "--nx", "17", "--nt", "16", "--tau", "1e-2",
    )
    assert code == 0
    payload = read_json(tmp_path, "kernel.json")
    assert payload["kernel_dim"] >= 2
    for col in range(1, payload["kernel_dim"] + 1):
        header, rows = read_csv(tmp_path, f"kernel_{col}.csv")
        assert header == ["j", "i", "q", "x", "t", "value"]
        assert len(rows) == 2 * 17 * 16
    vec = np.array([float(row[5]) for row in read_csv(tmp_path, "kernel_1.csv")[1]])
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)


def test_check_levy_reports_failing_pairs(tmp_path, capsys):
    code = run(tmp_path, "check-levy", "--builtin", "example13", "--nx", "9", "--nt", "8")
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" in out
    payload = read_json(tmp_path, "check-levy.json")
    assert payload["passed"] is False
    failing = {(pr["j"], pr["k"]) for pr in payload["pairs"] if not pr["passed"]}
    assert failing == {(1, 2), (2, 1)}
    for pr in payload["pairs"]:
        if not pr["passed"]:
            assert len(pr["witness"]) == 2


def test_check_levy_refuses_zero_delta(tmp_path, capsys):
    code = run(
        tmp_path, "check-levy", "--builtin", "example13", "--nx", "9", "--nt", "8", "--delta", "0"
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "check-levy.json").exists()


def test_check_levy_passes_clean_problem(tmp_path):
    code = run(tmp_path, "check-levy", "--builtin", "levy-pass", "--nx", "9", "--nt", "8")
    assert code == 0
    assert read_json(tmp_path, "check-levy.json")["passed"] is True


def test_converge_exact_table(tmp_path, capsys):
    code = run(
        tmp_path,
        "converge", "--builtin", "pure-forcing",
        "--nx", "9", "--nt", "8", "--exact", "x",
    )
    assert code == 0
    header, rows = read_csv(tmp_path, "converge.csv")
    assert header == ["nx", "nt", "error", "order", "note"]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(9, 8), (17, 16), (33, 32)]
    assert all(r[4] == "exact" for r in rows)


def test_converge_sigma_table(tmp_path):
    code = run(tmp_path, "converge", "--builtin", "example13", "--nx", "5", "--nt", "4")
    assert code == 0
    header, rows = read_csv(tmp_path, "converge.csv")
    assert header == ["nx", "nt", "sigma_min", "order", "note"]
    values = [float(r[2]) for r in rows]
    assert values[2] < values[0]


def test_converge_refuses_tau_without_exact(tmp_path, capsys):
    argv = ["converge", "--builtin", "example13", "--nx", "5", "--nt", "4", "--tau", "5"]
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tau" in err and "--exact" in err
    assert not (tmp_path / "converge.csv").exists()


def test_residual_of_exact_candidate(tmp_path):
    code = run(
        tmp_path,
        "residual", "--builtin", "manufactured-wellposed",
        "--nx", "17", "--nt", "16",
        "--exact", ",".join(problems.MANUFACTURED_EXACT),
    )
    assert code == 0
    payload = read_json(tmp_path, "residual.json")
    assert 0.0 < payload["residual"] < 1e-2


def test_list_builtins(capsys):
    code = main(["list-builtins"])
    assert code == 0
    out = capsys.readouterr().out
    for name, _ in problems.list_builtins():
        assert name in out
    assert "example13:" in out


# --- property: any problem ends in an exit code and finite artifacts --------

# speeds include near-degenerate ones: tiny, vanishing at an endpoint or
# just inside, changing sign between validation samples, touching zero
_SPEEDS = ["1", "-1", "-1-x/2", "2+sin(t)", "1e-3", "-1e-3", "x", "1-x", "x+1e-3",
           "x-0.51", "(x-0.25)^2", "(x-0.26)^2"]
_COEFFS = ["0", "1", "-1", "0.5*sin(t)", "x*cos(t)", "10"]


@st.composite
def _problems(draw):
    n = draw(st.sampled_from([1, 2]))
    entry = st.sampled_from(_COEFFS)
    return {
        "n": n,
        "m": draw(st.integers(0, n)),
        "a": draw(st.lists(st.sampled_from(_SPEEDS), min_size=n, max_size=n)),
        **{
            key: draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
            for key in "bghr"
        },
        "f": draw(st.lists(entry, min_size=n, max_size=n)),
        "volterra": draw(st.booleans()),
    }


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON value {name}")


def _assert_finite_artifacts(out):
    for path in out.iterdir():
        if path.suffix == ".json":  # json writes NaN and inf as bare constants
            json.loads(path.read_text(), parse_constant=_reject_constant)
        elif path.suffix == ".csv":
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert np.all(np.isfinite(values)), path.name


_SINGULAR = {"n": 1, "m": 1, "a": ["1"], "b": [["0"]], "g": [["0"]], "h": [["0"]],
             "r": [["1"]], "f": ["1"]}  # every constant is a fixed point
_OVERFLOW = {**_SINGULAR, "a": ["1e-3"], "b": [["-1"]], "r": [["0"]]}  # gain e^1000


@given(
    problem=_problems(),
    command=st.sampled_from(["solve", "kernel", "residual"]),
    tau=st.sampled_from([None, "0", "1e-3", "-1"]),
    nx=st.sampled_from([3, 5]),
    nt=st.sampled_from([4, 8]),
)
@example(problem=_SINGULAR, command="solve", tau="-1", nx=9, nt=8)
@example(problem=_OVERFLOW, command="residual", tau=None, nx=5, nt=4)
def test_any_problem_exits_cleanly_with_finite_artifacts(problem, command, tau, nx, nt):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        path = out / "problem.json"
        path.write_text(json.dumps(problem))
        argv = [command, "--problem", str(path), "--nx", str(nx), "--nt", str(nt)]
        if tau is not None and command != "residual":
            argv += ["--tau", tau]
        if command == "residual":
            argv += ["--exact", ",".join(["x*sin(t)"] * problem["n"])]
        code = main([*argv, "--out", str(out / "run")])
        assert code in (0, 1, 2)
        if (out / "run").exists():
            _assert_finite_artifacts(out / "run")


# --- imports: scipy on first use -------------------------------------------
# each check runs in a fresh interpreter, since pytest's warning filter on
# scipy.linalg.LinAlgWarning loads scipy.linalg into this one

_LOADED_SCIPY = """
import sys
loaded = lambda: [m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules]
import phsolve
print(loaded())
import phsolve.cli
print(loaded())
"""


def test_importing_phsolve_loads_no_scipy_linalg_or_sparse():
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_SCIPY], env=src_env(), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[]"]


# refuses to import scipy.linalg, then runs the command line in argv[1:]
_WITHOUT_SCIPY_LINALG = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg" or name.startswith("scipy.linalg."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, Refuse())
from phsolve.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_without_scipy_linalg(argv):
    return subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY_LINALG, *argv],
        env=src_env(), capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["residual", "--builtin", "example13", "--nx", "17", "--nt", "16",
         "--exact", ",".join(problems.kernel_pair(1))],
        ["check-levy", "--builtin", "example13", "--nx", "17", "--nt", "16"],
        ["list-builtins"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_that_factors_nothing_runs_without_scipy_linalg(tmp_path, capsys, argv):
    # residual applies K and F alone; check-levy and list-builtins read the
    # problem only: none needs scipy.linalg, and each prints and writes what
    # it does with scipy.linalg at hand
    without, within = tmp_path / "without", tmp_path / "with"

    def with_out(out):
        out.mkdir()
        return argv if argv[0] == "list-builtins" else [*argv, "--out", str(out)]

    run = run_without_scipy_linalg(with_out(without))
    assert (run.returncode, run.stderr) == (0, "")
    assert main(with_out(within)) == 0
    assert run.stdout == capsys.readouterr().out != ""
    files = [{f.name: f.read_bytes() for f in out.iterdir()} for out in (without, within)]
    assert files[0] == files[1]
    assert argv[0] == "list-builtins" or files[0]


def untimed(name, data):
    """An artifact's bytes, less report.json's wall-clock timings."""
    if name != "report.json":
        return data
    report = json.loads(data)
    assert set(report.pop("timings")) == {"assemble_s", "solve_s"}
    return report


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--builtin", "example13", "--nx", "17", "--nt", "16", "--tau", "1e-2"],
        ["solve", "--builtin", "example13"],
        ["spectrum", "--builtin", "example13"],
    ],
    ids=lambda argv: argv[0],
)
def test_autonomous_command_runs_without_scipy_linalg(tmp_path, capsys, argv):
    # an autonomous problem's Fourier blocks are decided, solved and
    # decomposed in numpy alone; each command prints and writes what it
    # does with scipy.linalg at hand, but for the times it measures
    without, within = tmp_path / "without", tmp_path / "with"
    for out in (without, within):
        out.mkdir()
    run = run_without_scipy_linalg([*argv, "--out", str(without)])
    assert (run.returncode, run.stderr) == (0, "")
    assert main([*argv, "--out", str(within)]) == 0
    elapsed = re.compile(r"\(\d+\.\ds\)$", re.MULTILINE)
    assert elapsed.sub("", run.stdout) == elapsed.sub("", capsys.readouterr().out) != ""
    files = [
        {f.name: untimed(f.name, f.read_bytes()) for f in out.iterdir()} for out in (without, within)
    ]
    assert files[0] == files[1] != {}


def test_solve_needs_scipy_linalg(tmp_path):
    # the refusal above is live: a command that factors a one-block A
    # fails under it
    run = run_without_scipy_linalg(
        ["solve", "--builtin", "manufactured-wellposed", "--nx", "5", "--nt", "4",
         "--out", str(tmp_path)]
    )
    assert run.returncode != 0
    assert "scipy.linalg is refused" in run.stderr


# --- README -----------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines():
    """Each `phsolve ...` line of README's "Command line" and "Experiments"
    sections, once, in order."""
    lines = []
    section = None
    for line in README.read_text().splitlines():
        if line.startswith("## "):
            section = line[3:].strip()
        elif section in ("Command line", "Experiments") and line.startswith("    phsolve "):
            lines.append(line.strip())
    return list(dict.fromkeys(lines))


def test_readme_shows_every_command():
    shown = {shlex.split(line)[1] for line in readme_command_lines()}
    assert shown == set(HANDLERS)


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_runs(tmp_path, monkeypatch, line):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    monkeypatch.chdir(tmp_path)  # commands without --out write to "."
    resonant = argv[0] == "solve" and "example13" in argv
    assert main(argv) == (2 if resonant else 0)


# --- benchmark hooks --------------------------------------------------------

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_hooks_resolve():
    # the benchmark's tracer wraps these names in place; a rename or move in
    # phsolve would otherwise surface only when a traced run installs them
    hooks = runpy.run_path(str(TRACING))["HOOKS"]
    assert hooks
    for _, module, attr in hooks:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
