import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table(out):
    """Header columns and numeric rows of a script's whitespace table."""
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    header = lines[0].split()
    rows = [line.split()[: len(header)] for line in lines[1:]]
    return header, [[float(v) if v != "-" else None for v in row] for row in rows]


@pytest.mark.parametrize("extra", [[], ["--tau", "1e-2"]])
def test_resonance_study_prints_a_table(capsys, extra):
    code = load("resonance_study").main(["--nx", "9", "--nt", "8", "--levels", "2", *extra])
    assert code == 0
    header, rows = table(capsys.readouterr().out)
    assert header[:4] == ["nx", "nt", "size", "sigma_min"]
    assert header[-1] == ("kernel_dim" if extra else "sigma_s")
    assert [row[:3] for row in rows] == [[9, 8, 144], [17, 16, 544]]
    assert all(len(row) == len(header) for row in rows)


def test_manufactured_convergence_prints_a_table(capsys):
    code = load("manufactured_convergence").main(["--levels", "2"])
    assert code == 0
    header, rows = table(capsys.readouterr().out)
    assert header == ["nx", "nt", "sup_error", "order", "residual", "sigma_min", "wall_s"]
    assert [row[:2] for row in rows] == [[9, 8], [17, 16]]
    assert rows[0][3] is None and rows[1][3] > 1.0
