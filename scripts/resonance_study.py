"""Track sigma_min of the discretized solvability operator under grid
refinement, to separate problems with a genuine kernel (sigma_min falls
with the grid) from well-conditioned ones (sigma_min levels off).

Example:
    python3 scripts/resonance_study.py --builtin example13 --levels 3
    python3 scripts/resonance_study.py --builtin example13 --tau 1e-2 --levels 2
"""

import argparse
import sys
import time

from phsolve import fredholm, grid, problem, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--builtin", default="example13")
    src.add_argument("--problem", help="path to a problem JSON file")
    ap.add_argument("--nx", type=int, default=17, help="coarsest x nodes")
    ap.add_argument("--nt", type=int, default=16, help="coarsest t samples")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--tau", type=float, default=None,
                    help="also report kernel dimension at this threshold")
    args = ap.parse_args(argv)

    if args.problem:
        p = problem.from_json(args.problem)
    else:
        p = problems.get_builtin(args.builtin)

    print(f"# {p.description or 'problem'}  n={p.n}")
    header = "nx nt size sigma_min sigma_max assemble_s sigma_s"
    if args.tau is not None:
        header += " kernel_dim"
    print(header)
    nx, nt = args.nx, args.nt
    prev = None
    for _ in range(args.levels):
        g = grid.Grid(nx, nt)
        t0 = time.perf_counter()
        matrix = fredholm.assemble(p, g)
        t1 = time.perf_counter()
        if args.tau is None:
            sigma = fredholm.singular_spectrum(matrix, fredholm.factor(matrix))
        else:  # counting the values under tau takes all of them
            sigma = fredholm.singular_spectrum(matrix)
        t2 = time.perf_counter()
        line = (
            f"{nx} {nt} {matrix.size} {sigma[-1]:.6e} {sigma[0]:.6e} "
            f"{t1 - t0:.1f} {t2 - t1:.1f}"
        )
        if args.tau is not None:
            line += f" {int((sigma <= args.tau).sum())}"
        if prev is not None and sigma[-1] > 0:
            line += f"   ratio {prev / sigma[-1]:.2f}"
        print(line)
        prev = sigma[-1]
        nx, nt = 2 * nx - 1, 2 * nt
    return 0


if __name__ == "__main__":
    sys.exit(main())
