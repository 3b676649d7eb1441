import csv
import json
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    code = run(tmp_path, "solve", "--builtin", "example13", "--nx", "81", "--nt", "128")
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_usage_error_exits_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["solve"])  # neither --problem nor --builtin
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
        if tau is not None:
            argv += ["--tau", tau]
        if command == "residual":
            argv += ["--exact", ",".join(["x*sin(t)"] * problem["n"])]
        code = main([*argv, "--out", str(out / "run")])
        assert code in (0, 1, 2)
        if (out / "run").exists():
            _assert_finite_artifacts(out / "run")


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
