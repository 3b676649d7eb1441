"""Command-line front end.

Commands mirror the library surface: solve a problem, dump the singular
spectrum, extract kernel bases, screen the coupling condition, run a
refinement study, or evaluate the residual of a candidate solution.
Problems come from JSON files (--problem) or the built-in registry
(--builtin).  Outputs are machine-readable JSON/CSV in --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import expr as ex
from . import fredholm, operators, problems
from .grid import Grid, GridFunction, dump_csv, sample_exprs
from .problem import ValidationError
from .problem import from_json as load_problem_file


def _add_common(sub, with_exact=False):
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", metavar="PATH", help="problem JSON file")
    src.add_argument("--builtin", metavar="NAME", help="built-in problem name")
    sub.add_argument("--nx", type=int, default=33, help="space nodes (default 33)")
    sub.add_argument("--nt", type=int, default=32, help="time nodes (default 32)")
    sub.add_argument("--out", metavar="DIR", default=".", help="output directory")
    if with_exact:
        sub.add_argument(
            "--exact",
            metavar="EXPR,...",
            default=None,
            help="comma-separated exact/candidate expressions, one per component",
        )


@functools.cache
def build_parser():
    """The command-line parser, built once per process: main may run many
    times in one process, and building the parser (about 2 ms) is a
    noticeable share of a small grid's run."""
    parser = argparse.ArgumentParser(
        prog="phsolve",
        description="periodic solutions of coupled transport systems with "
        "integral boundary conditions",
    )
    cmds = parser.add_subparsers(dest="command", required=True)
    solve = cmds.add_parser("solve", help="solve or report the resonant branch")
    _add_common(solve)
    _add_common(cmds.add_parser("spectrum", help="singular values of the system"))
    kernel = cmds.add_parser("kernel", help="numerical kernel basis")
    _add_common(kernel)
    levy = cmds.add_parser("check-levy", help="screen coupling vs speed gaps")
    _add_common(levy)
    levy.add_argument("--delta", type=float, default=None, help="speed-gap floor")
    levy.add_argument("--tol", type=float, default=1e-8, help="absolute slack")
    converge = cmds.add_parser("converge", help="three-grid refinement study")
    _add_common(converge, with_exact=True)
    _add_common(
        cmds.add_parser("residual", help="residual of a candidate solution"),
        with_exact=True,
    )
    cmds.add_parser("list-builtins", help="list built-in problems")
    # only the commands that decide the alternative read a tolerance
    for sub in (solve, kernel, converge):
        sub.add_argument("--tau", type=float, default=None, help="kernel tolerance override")
    return parser


def _load_problem(args):
    if args.builtin is not None:
        return problems.get_builtin(args.builtin)
    return load_problem_file(args.problem)


def _grid(args):
    return Grid(args.nx, args.nt)


def _outdir(args):
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_exact(arg, n):
    if arg is None:
        return None
    parts = [s.strip() for s in arg.split(",")]
    for position, part in enumerate(parts, start=1):
        if not part:
            raise ValidationError(f"--exact entry {position} of {len(parts)} is empty")
    if len(parts) != n:
        raise ValidationError(
            f"--exact needs {n} comma-separated expressions, got {len(parts)}"
        )
    nodes = []
    for position, part in enumerate(parts, start=1):
        try:
            nodes.append(ex.parse(part))
        except (ex.LexError, ex.ParseError) as err:
            raise ValidationError(str(err), f"--exact[{position}]") from err
    return nodes


def _write_json(outdir, name, payload):
    path = Path(outdir) / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _report_payload(p, grid, report, timings):
    return {
        "description": p.description,
        "nx": grid.nx,
        "nt": grid.nt,
        "size": report.matrix.size,
        "period": report.matrix.period,
        "tau": report.tau,
        "unique": report.unique,
        "kernel_dim": report.kernel_dim,
        "sigma_min": report.sigma_min,
        "sigma_max": float(report.sigma[0]),
        "defect": report.defect,
        "residual": report.residual,
        "spectrum": [float(s) for s in report.sigma],
        "timings": timings,
    }


def cmd_solve(args):
    p = _load_problem(args)
    grid = _grid(args)
    t0 = time.perf_counter()
    matrix = fredholm.assemble(p, grid)
    t1 = time.perf_counter()
    report = fredholm.solve_alternative(matrix, tau=args.tau)
    t2 = time.perf_counter()
    timings = {"assemble_s": t1 - t0, "solve_s": t2 - t1}
    out = _outdir(args)
    _write_json(out, "report.json", _report_payload(p, grid, report, timings))
    dump_csv(report.solution, out / "solution.csv")
    if report.unique:
        print(f"unique solve: sigma_min={report.sigma_min:.3e} residual={report.residual:.3e}")
        return 0
    print(
        f"resonant branch: kernel_dim={report.kernel_dim} "
        f"defect={report.defect:.3e} sigma_min={report.sigma_min:.3e}"
    )
    return 2


def cmd_spectrum(args):
    p = _load_problem(args)
    grid = _grid(args)
    t0 = time.perf_counter()
    matrix = fredholm.assemble(p, grid)
    sigma = fredholm.singular_spectrum(matrix)
    elapsed = time.perf_counter() - t0
    path = _outdir(args) / "spectrum.csv"
    with open(path, "w") as fh:
        fh.write("index,sigma\n")
        for idx, val in enumerate(sigma):
            fh.write(f"{idx},{float(val)!r}\n")
    print(f"{len(sigma)} singular values in [{sigma[-1]:.3e}, {sigma[0]:.3e}] ({elapsed:.1f}s)")
    return 0


def cmd_kernel(args):
    p = _load_problem(args)
    grid = _grid(args)
    report = fredholm.solve_alternative(fredholm.assemble(p, grid), tau=args.tau)
    payload = {
        "nx": grid.nx,
        "nt": grid.nt,
        "period": report.matrix.period,
        "tau": report.tau,
        "kernel_dim": report.kernel_dim,
        "sigma_min": report.sigma_min,
        "defect": report.defect,
    }
    out = _outdir(args)
    _write_json(out, "kernel.json", payload)
    for col in range(report.kernel_dim):
        vec = report.kernel_basis[:, col].reshape(p.n, grid.nx, grid.nt)
        dump_csv(GridFunction(grid, vec), out / f"kernel_{col + 1}.csv")
    print(f"kernel_dim={report.kernel_dim} tau={report.tau:.3e}")
    return 0


def cmd_check_levy(args):
    p = _load_problem(args)
    grid = _grid(args)
    report = fredholm.check_levy(p, grid, delta=args.delta, tol=args.tol)
    payload = {
        "passed": report.passed,
        "delta": report.delta,
        "tol": report.tol,
        "pairs": [
            {
                "j": pr.j,
                "k": pr.k,
                "bound": pr.bound,
                "passed": pr.passed,
                "witness": list(pr.witness) if pr.witness else None,
            }
            for pr in report.pairs
        ],
    }
    _write_json(_outdir(args), "check-levy.json", payload)
    for pr in report.pairs:
        state = "pass" if pr.passed else "FAIL"
        print(f"pair ({pr.j},{pr.k}): {state} bound={pr.bound:.3g}")
    return 0


def _study_grids(nx, nt):
    return [(nx, nt), (2 * (nx - 1) + 1, 2 * nt), (4 * (nx - 1) + 1, 4 * nt)]


def cmd_converge(args):
    p = _load_problem(args)
    exact = _parse_exact(args.exact, p.n)
    rows = fredholm.convergence_study(
        p, _study_grids(args.nx, args.nt), exact=exact, tau=args.tau
    )
    path = _outdir(args) / "converge.csv"
    label = "error" if exact is not None else "sigma_min"
    with open(path, "w") as fh:
        fh.write(f"nx,nt,{label},order,note\n")
        for row in rows:
            order = "" if row.order is None else repr(row.order)
            fh.write(f"{row.nx},{row.nt},{row.value!r},{order},{row.note}\n")
    for row in rows:
        order = "---" if row.order is None else f"{row.order:.2f}"
        print(f"nx={row.nx:4d} nt={row.nt:4d} {label}={row.value:.6e} order={order} {row.note}")
    return 0


def cmd_residual(args):
    p = _load_problem(args)
    if args.exact is None:
        raise ValidationError("residual requires --exact with one expression per component")
    grid = _grid(args)
    nodes = _parse_exact(args.exact, p.n)
    candidate = sample_exprs(nodes, grid)
    value = fredholm.residual(p, grid, candidate)
    period = operators.period(p, grid)
    payload = {"nx": grid.nx, "nt": grid.nt, "period": period, "residual": value}
    _write_json(_outdir(args), "residual.json", payload)
    print(f"residual={value:.6e}")
    return 0


def cmd_list_builtins(_args):
    for name, description in problems.list_builtins():
        print(f"{name}: {description}")
    return 0


HANDLERS = {
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "kernel": cmd_kernel,
    "check-levy": cmd_check_levy,
    "converge": cmd_converge,
    "residual": cmd_residual,
    "list-builtins": cmd_list_builtins,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    # ArithmeticError: evaluation, tracing, time inversion and spectrum
    # failures; KeyError: a problem file without a required field; OSError:
    # a file that cannot be read or written; ValueError: invalid problem data
    # or JSON, expressions that do not lex or parse, and grids past the cap;
    # MemoryError: a grid under the cap whose arrays do not fit in memory
    except (ArithmeticError, KeyError, OSError, ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
