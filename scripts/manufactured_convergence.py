"""Convergence study against the known closed-form solution of the
manufactured-wellposed builtin: solve on a refinement ladder, report sup
errors and observed orders.  Expect second order from the trapezoid and
bilinear-interpolation pieces.

Example:
    python3 scripts/manufactured_convergence.py --levels 3
"""

import argparse
import math
import sys
import time

from phsolve import expr, fredholm, grid, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nx", type=int, default=9, help="coarsest x nodes")
    ap.add_argument("--nt", type=int, default=8, help="coarsest t samples")
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args(argv)

    p = problems.get_builtin("manufactured-wellposed")
    nodes = [expr.parse(s) for s in problems.MANUFACTURED_EXACT]
    print("nx nt sup_error order residual sigma_min wall_s")
    nx, nt = args.nx, args.nt
    prev = None
    for _ in range(args.levels):
        g = grid.Grid(nx, nt)
        t0 = time.perf_counter()
        report = fredholm.solve_alternative(p, g)
        wall = time.perf_counter() - t0
        if not report.unique:
            print(f"{nx} {nt} resonant at tau={report.tau:.3e}, stopping")
            return 1
        target = grid.sample_exprs(nodes, g)
        err = grid.sup_norm(
            grid.GridFunction(g, report.solution.values - target.values)
        )
        order = f"{math.log2(prev / err):.2f}" if prev else "-"
        print(
            f"{nx} {nt} {err:.6e} {order} {report.residual:.2e} "
            f"{report.sigma_min:.4f} {wall:.1f}"
        )
        prev = err
        nx, nt = 2 * nx - 1, 2 * nt
    return 0


if __name__ == "__main__":
    sys.exit(main())
