"""The four benchmark workloads: their command lines, their inputs and the
checks that read each call's artifacts.

Each workload loads a different stage of phsolve (see README.md).  The
checks compare against closed-form answers computed here with numpy alone,
never with phsolve's own evaluator, so a wrong program cannot pass them by
agreeing with itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial import Polynomial


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    grid: tuple  # (nx, nt) of the measured calls
    smoke_grid: tuple  # (nx, nt) of the self-test
    spans: frozenset  # traced spans that must fire on every call
    flags: tuple = ()
    expect: dict = field(default_factory=dict)
    smoke_expect: dict = field(default_factory=dict)


_COMMON_SPANS = {
    "problem.load",
    "expr.evaluate",
    "characteristics.trace",
    "operators.curve",
    "operators.apply",
    "fredholm.residual",
    "cli.dump_csv",
}
_ASSEMBLED = _COMMON_SPANS | {
    "operators.stencil",
    "fredholm.assemble",
    "fredholm.decide",
    "fredholm.solve_alternative",
}
_LU = {"fredholm.lu_factor", "fredholm.lu_solve"}

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="wellposed",
            command="solve",
            grid=(33, 32),
            smoke_grid=(17, 16),
            spans=frozenset(_ASSEMBLED | _LU),
            expect={"exit": 0, "max_error": 1e-3},
        ),
        Workload(
            name="resonant",
            command="kernel",
            grid=(33, 32),
            smoke_grid=(17, 16),
            spans=frozenset(_ASSEMBLED | {"fredholm.svd"}),
            flags=("--tau", "1e-2"),
            expect={"exit": 0, "kernel_dim": 9},
            smoke_expect={"kernel_dim": 5},
        ),
        Workload(
            name="integral-coupling",
            command="solve",
            grid=(21, 20),
            smoke_grid=(9, 8),
            spans=frozenset(_ASSEMBLED | _LU | {"operators.inner_weights"}),
            expect={"exit": 0, "max_error": 1e-3},
            smoke_expect={"max_error": 1e-2},
        ),
        Workload(
            name="residual-fine",
            command="residual",
            grid=(129, 128),
            smoke_grid=(17, 16),
            spans=frozenset(_COMMON_SPANS - {"cli.dump_csv"}),
            expect={"exit": 0, "max_residual": 5e-3},
        ),
    )
}


# --- inputs ------------------------------------------------------------------

# exact solution of the integral-coupling problem: u_k = p_k(x) * S(t)
_S = "(sin(t)+0.5*cos(2*t))"
_DS = "(cos(t)-sin(2*t))"
# relative jitter of the seeded amplitudes; phases move by up to _JITTER * pi
_JITTER = 0.05


def _time_factor(t):
    return np.sin(t) + 0.5 * np.cos(2.0 * t)


def _poly_str(poly):
    return "(" + "+".join(f"({float(c)!r})*x^{d}" for d, c in enumerate(poly.coef)) + ")"


def coupling_problem(seed):
    """A three-component problem (m = 2) with variable speeds, a diagonal
    curve gain and live b, g (Volterra), h and r entries in every row,
    together with its exact periodic solution.

    The term shapes and a nominal problem are fixed; the seed only jitters
    its amplitudes and phases, within ranges small enough that I - K stays
    well conditioned (sigma_min about 0.75) and the discretization error
    moves by a few percent between seeds.  Speeds keep
    the sign their boundary side needs and a magnitude of at least 0.5.
    The forcing is derived from the exact solution, and the constants of
    the exact solution are solved for so that the integral boundary
    conditions hold exactly.

    Returns (problem dict, list of numpy Polynomials p_k).
    """
    centre = np.random.default_rng(0)  # the same nominal problem on every seed
    rng = np.random.default_rng(seed)
    n, m = 3, 2
    sides = [0.0 if j < m else 1.0 for j in range(n)]

    def amp(lo, hi):
        return float(centre.uniform(lo, hi) * rng.uniform(1.0 - _JITTER, 1.0 + _JITTER))

    def phase():
        return float(centre.uniform(0.0, 2.0 * math.pi) + rng.uniform(-_JITTER, _JITTER) * math.pi)

    # |a| >= base - 0.2 * 1.1 - 0.2 >= 0.58
    speeds = []
    for j, (base, slope) in enumerate(((1.0, 0.2), (1.5, -0.2), (1.25, 0.2))):
        body = f"{base!r}+{amp(0.1, 0.2)!r}*sin(t+{phase()!r})+{slope!r}*x"
        speeds.append(f"({body})" if sides[j] == 0.0 else f"-({body})")
    b = [
        [
            f"{amp(0.2, 0.3)!r}*(1+0.5*cos(t+{phase()!r}))"
            if j == k
            else f"{amp(0.05, 0.1)!r}*sin(t+{phase()!r})"
            for k in range(n)
        ]
        for j in range(n)
    ]
    g_amp = [[amp(0.05, 0.1) for _ in range(n)] for _ in range(n)]
    g_phase = [[phase() for _ in range(n)] for _ in range(n)]
    h = [[f"{amp(0.03, 0.06)!r}*sin(t+{phase()!r})" for _ in range(n)] for _ in range(n)]
    rho = np.array([[amp(0.04, 0.08) for _ in range(n)] for _ in range(n)])

    weight = Polynomial([1.0, 1.0])  # the (1 + x) factor of g and r
    shapes = [Polynomial([0.0, 1.0]), Polynomial([0.0, 0.0, 1.0]), Polynomial([0.0, 1.0, -1.0])]
    w = np.array([(weight * q).integ()(1.0) for q in shapes])
    q_side = np.array([q(s) for q, s in zip(shapes, sides)])
    # p_j(side_j) = sum_k rho_jk * int_0^1 (1 + y) p_k(y) dy
    c = np.linalg.solve(np.eye(n) - 1.5 * rho, rho @ w - q_side)
    polys = [q + ck for q, ck in zip(shapes, c)]
    prims = [(weight * p).integ() for p in polys]  # int_0^x (1 + y) p_k(y) dy

    forcing = []
    for j in range(n):
        terms = [
            f"{_poly_str(polys[j])}*{_DS}",
            f"({speeds[j]})*{_poly_str(polys[j].deriv())}*{_S}",
        ]
        for k in range(n):
            terms.append(f"({b[j][k]})*{_poly_str(polys[k])}*{_S}")
            terms.append(
                f"{g_amp[j][k]!r}*cos(t+{g_phase[j][k]!r})*{_poly_str(prims[k])}*{_S}"
            )
            edge = float(polys[k](1.0 - sides[k]))
            terms.append(f"-({h[j][k]})*({edge!r})*{_S}")
        forcing.append("+".join(terms))

    problem = {
        "n": n,
        "m": m,
        "a": speeds,
        "b": b,
        "g": [
            [f"{g_amp[j][k]!r}*(1+x)*cos(t+{g_phase[j][k]!r})" for k in range(n)]
            for j in range(n)
        ],
        "h": h,
        "r": [[f"{float(rho[j, k])!r}*(1+x)" for k in range(n)] for j in range(n)],
        "f": forcing,
        "volterra": True,
        "description": f"benchmark integral-coupling problem, seed {seed}",
    }
    return problem, polys


def prepare(wl, seed, workdir, smoke=False):
    """Write the workload's input files into workdir and return
    (argv without --out, expectation dict, exact data for the check)."""
    nx, nt = wl.smoke_grid if smoke else wl.grid
    expect = {**wl.expect, **(wl.smoke_expect if smoke else {})}
    exact = None
    if wl.name == "wellposed":
        source = ["--builtin", "manufactured-wellposed"]
    elif wl.name == "resonant":
        source = ["--builtin", "example13"]
    elif wl.name == "integral-coupling":
        problem, exact = coupling_problem(seed)
        path = Path(workdir) / "problem.json"
        path.write_text(json.dumps(problem, indent=1) + "\n")
        source = ["--problem", str(path)]
    else:
        from phsolve.problems import kernel_pair

        source = ["--builtin", "example13", "--exact", ",".join(kernel_pair(1))]
    argv = [wl.command, *source, "--nx", str(nx), "--nt", str(nt), *wl.flags]
    return argv, expect, exact


# --- checks ------------------------------------------------------------------


def _read_csv(path):
    """Columns j, i, q, x, t, value of a grid-function CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _solution_error(out, exact_fn):
    rows = _read_csv(out / "solution.csv")
    comp = rows[:, 0].astype(int) - 1
    values = np.stack([fn(rows[:, 3], rows[:, 4]) for fn in exact_fn])
    exact = values[comp, np.arange(len(rows))]
    return float(np.max(np.abs(rows[:, 5] - exact))), float(np.max(np.abs(rows[:, 5])))


def _check_wellposed(out, expect, _exact):
    report = _read_json(out / "report.json")
    err, _ = _solution_error(
        out, (lambda x, t: x * np.sin(t), lambda x, t: (1.0 - x) * np.cos(t))
    )
    return report["unique"] is True and err <= expect["max_error"], err


def _resonant_modes(x, t, kdim):
    """The kdim exact homogeneous modes of example13 with the lowest
    frequencies: l = 0 once, then sine and cosine phases for l >= 1."""
    modes = [np.concatenate([np.sin(0.5 * np.pi * x), np.cos(0.5 * np.pi * x)])]
    for l in range(1, (kdim - 1) // 2 + 1):
        for wave in (np.sin, np.cos):
            phase = wave(l * (t - 0.5 * np.pi * x))
            modes.append(
                np.concatenate(
                    [np.sin(0.5 * np.pi * x) * phase, np.cos(0.5 * np.pi * x) * phase]
                )
            )
    return np.array(modes).T


def _check_resonant(out, expect, _exact):
    """Kernel dimension, defect and unit-norm bases; the error is the sine of
    the largest principal angle between the computed kernel and the span of
    the exact modes."""
    meta = _read_json(out / "kernel.json")
    kdim = meta["kernel_dim"]
    files = sorted(out.glob("kernel_*.csv"))
    ok = (
        kdim == expect["kernel_dim"]
        and kdim % 2 == 1
        and meta["defect"] is not None
        and meta["defect"] <= 1e-10
        and len(files) == kdim
    )
    if not ok:
        return False, math.nan
    basis = []
    for col in range(1, kdim + 1):
        rows = _read_csv(out / f"kernel_{col}.csv")
        basis.append(rows[:, 5])
        ok = ok and abs(float(np.linalg.norm(rows[:, 5])) - 1.0) <= 1e-8
    half = len(rows) // 2
    x, t = rows[:half, 3], rows[:half, 4]
    q, _ = np.linalg.qr(_resonant_modes(x, t, kdim))
    basis = np.array(basis).T
    err = float(np.linalg.norm(basis - q @ (q.T @ basis), 2))
    return ok, err


def _check_coupling(out, expect, polys):
    report = _read_json(out / "report.json")
    err, sup_u = _solution_error(
        out, [lambda x, t, p=p: p(x) * _time_factor(t) for p in polys]
    )
    ok = (
        report["unique"] is True
        and report["residual"] <= 1e-10 * (1.0 + report["sigma_max"]) * sup_u
        and err <= expect["max_error"]
    )
    return ok, err


def _check_residual(out, expect, _exact):
    value = _read_json(out / "residual.json")["residual"]
    return value <= expect["max_residual"], float(value)


_CHECKS = {
    "wellposed": _check_wellposed,
    "resonant": _check_resonant,
    "integral-coupling": _check_coupling,
    "residual-fine": _check_residual,
}


def check(wl, code, out, expect, exact):
    """(passed, discretization error) of one call from its exit code and the
    artifacts in out.  Missing or malformed artifacts fail the check."""
    if code != expect["exit"]:
        return False, math.nan
    try:
        return _CHECKS[wl.name](Path(out), expect, exact)
    except (OSError, KeyError, ValueError, TypeError) as err:
        print(f"check error on {wl.name}: {err!r}", flush=True)
        return False, math.nan
