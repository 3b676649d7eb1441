import csv
import math

import numpy as np
import pytest

from phsolve import expr as ex
from phsolve import grid as gr

TWO_PI = 2.0 * math.pi


def make_gf(nx=9, nt=8, fns=(lambda x, t: np.sin(x + t),)):
    grid = gr.Grid(nx, nt)
    vals = np.stack([fn(grid.xs[:, None], grid.ts[None, :]) for fn in fns])
    return gr.GridFunction(grid, vals)


def test_grid_nodes():
    grid = gr.Grid(5, 4)
    assert np.allclose(grid.xs, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.xs[0] == 0.0 and grid.xs[-1] == 1.0
    assert np.allclose(grid.ts, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert grid.dx == 0.25
    assert grid.dt == math.pi / 2


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        gr.Grid(2, 8)
    with pytest.raises(ValueError):
        gr.Grid(9, 3)


def test_gridfunction_shape_checked():
    grid = gr.Grid(5, 4)
    with pytest.raises(ValueError):
        gr.GridFunction(grid, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        gr.GridFunction(grid, np.zeros((1, 4, 5)))


def test_sample_exprs_matches_pointwise_eval():
    grid = gr.Grid(7, 8)
    nodes = [ex.parse("x*sin(t)"), ex.parse("cos(x+t)")]
    g = gr.sample_exprs(nodes, grid)
    assert g.n == 2
    for j, node in enumerate(nodes):
        for i in (0, 3, 6):
            for q in (0, 5):
                want = ex.evaluate(node, float(grid.xs[i]), float(grid.ts[q]))
                assert g.values[j, i, q] == want


def test_locate_x_snaps_node_hits():
    # x_i * (nx-1) rounds to just below i at nx = 24 (i = 13) and just
    # above it at nx = 26 (i = 7, 14)
    for nx in (9, 24, 26):
        grid = gr.Grid(nx, 8)
        i0, theta = gr.locate_x(grid, grid.xs)
        assert set(theta.tolist()) <= {0.0, 1.0}
        assert np.array_equal(i0 + theta, np.arange(grid.nx))


def test_locate_x_reproduces_linear_functions():
    grid = gr.Grid(9, 8)
    vals = 2.0 * grid.xs - 1.0
    xq = np.array([0.1, 0.37, 0.925])
    i0, theta = gr.locate_x(grid, xq)
    got = (1.0 - theta) * vals[i0] + theta * vals[i0 + 1]
    assert np.max(np.abs(got - (2.0 * xq - 1.0))) <= 1e-14


def test_locate_x_out_of_range():
    grid = gr.Grid(9, 8)
    for xq in (1.001, -0.001, [0.5, 1.001]):
        with pytest.raises(gr.RangeError):
            gr.locate_x(grid, xq)


def test_locate_x_accepts_slightly_out_of_range():
    grid = gr.Grid(9, 8)
    i0, theta = gr.locate_x(grid, np.array([1.0 + 5e-13, -5e-13]))
    assert i0.tolist() == [grid.nx - 2, 0]
    assert theta.tolist() == [1.0, 0.0]


def test_cubic_t_stencil_wraps_in_time():
    grid = gr.Grid(9, 8)
    tq = np.array([0.3, 2.0, 6.2])
    nodes, weights = gr.cubic_t_stencil(grid, tq)
    for shift in (TWO_PI, -TWO_PI):
        got_nodes, got_weights = gr.cubic_t_stencil(grid, tq + shift)
        assert np.array_equal(got_nodes, nodes)
        assert np.max(np.abs(got_weights - weights)) <= 1e-12


def test_cubic_t_stencil_is_exact_at_nodes():
    # at nt = 16, t_q / dt rounds to just above q at q = 13 and to just
    # below it, into the cell below, at q = 11 and 15
    for nt in (8, 16):
        grid = gr.Grid(5, nt)
        for q in range(grid.nt):
            nodes, weights = gr.cubic_t_stencil(grid, np.array(grid.ts[q]))
            assert np.count_nonzero(weights) == 1
            hit = int(np.argmax(np.abs(weights)))
            assert weights[hit] == 1.0
            assert nodes[hit] == q
    grid = gr.Grid(5, 8)
    tq = np.array(0.3 * grid.dt + grid.ts[2])
    _, weights = gr.cubic_t_stencil(grid, tq)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)


def test_cubic_t_interpolation_reproduces_local_cubic():
    # sample a polynomial that is cubic in t near the query cell; the
    # 4-node stencil must reproduce it to rounding there
    grid = gr.Grid(5, 16)
    tc = grid.ts[5]
    vals = (grid.ts - tc) ** 3 - 2.0 * (grid.ts - tc) ** 2 + 0.5
    for frac in (0.1, 0.5, 0.9):
        tq = grid.ts[5] + frac * grid.dt
        nodes, weights = gr.cubic_t_stencil(grid, np.array(tq))
        got = np.sum(weights * vals[nodes])
        want = (tq - tc) ** 3 - 2.0 * (tq - tc) ** 2 + 0.5
        assert float(got) == pytest.approx(want, abs=1e-12)


def test_sup_norm():
    g = make_gf(5, 4, fns=(lambda x, t: x - 2.0 + 0.0 * t,))
    assert gr.sup_norm(g) == 2.0


def test_zeros():
    grid = gr.Grid(5, 4)
    g = gr.zeros(grid, 3)
    assert g.n == 3 and gr.sup_norm(g) == 0.0


def test_dump_csv_writes_each_value_by_its_repr(tmp_path):
    g = make_gf(3, 4, fns=(lambda x, t: x * np.cos(t), lambda x, t: np.sin(x + t) * 1e-300))
    g.values[0, 0, 0] = -0.0
    g.values[1, 2, 3] = 0.1
    path = tmp_path / "solution.csv"
    gr.dump_csv(g, path)
    want = ["j,i,q,x,t,value\n"]
    for j in range(1, 3):
        for i in range(3):
            for q in range(4):
                x, t, v = (float(a) for a in (g.grid.xs[i], g.grid.ts[q], g.values[j - 1, i, q]))
                want.append(f"{j},{i},{q},{x!r},{t!r},{v!r}\n")
    data = path.read_bytes()
    assert data == "".join(want).encode()
    assert b"\n1,0,0,0.0,0.0,-0.0\n" in data
    assert data.endswith(b"\n2,2,3,1.0,4.71238898038469,0.1\n")


def _row_by_row_csv(g):
    # the reference writer: one f-string per row, formatted afresh per file
    ts = list(enumerate(g.grid.ts.tolist()))
    places = [f"{i},{q},{x!r},{t!r}," for i, x in enumerate(g.grid.xs.tolist()) for q, t in ts]
    lines = ["j,i,q,x,t,value\n"]
    for j, values in enumerate(g.values.reshape(g.n, -1).tolist(), start=1):
        lines.extend(f"{j},{place}{v!r}\n" for place, v in zip(places, values))
    return "".join(lines).encode()


def test_dump_csv_matches_the_row_by_row_writer_on_an_odd_grid(tmp_path):
    # files of one and of three components on one grid of odd nx and nt
    # share its formatted node fields
    grid = gr.Grid(7, 5)
    rng = np.random.default_rng(3)
    special = [-0.0, 1e-300, 1.0 / 3.0, -1e300, 5e-324, 0.1]
    for n in (1, 3, 1):
        values = rng.standard_normal((n, grid.nx, grid.nt)) * 10.0 ** rng.integers(-20, 20)
        values.flat[: len(special)] = special
        g = gr.GridFunction(grid, values)
        path = tmp_path / f"u{n}.csv"
        gr.dump_csv(g, path)
        assert path.read_bytes() == _row_by_row_csv(g)
    assert b"\n1,0,0,0.0,0.0,-0.0\n" in path.read_bytes()
    assert grid.csv_places is grid.csv_places


def test_dump_csv_round_trips_values(tmp_path):
    g = make_gf(5, 4, fns=(lambda x, t: np.sin(x) * np.cos(t), lambda x, t: x + 0.0 * t))
    path = tmp_path / "solution.csv"
    gr.dump_csv(g, path)
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["j", "i", "q", "x", "t", "value"]
    assert len(rows) == 2 * 5 * 4
    for row in rows[:: 7]:
        j, i, q = int(row[0]), int(row[1]), int(row[2])
        assert float(row[3]) == g.grid.xs[i]
        assert float(row[4]) == g.grid.ts[q]
        assert float(row[5]) == g.values[j - 1, i, q]
