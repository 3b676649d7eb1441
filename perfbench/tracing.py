"""Spans around phsolve's layer functions, installed from outside the
package.

Each wrapper replaces a function in the namespace its callers look it up
in (fredholm binds stencil_block, apply_K, svd, ... by name; operators
binds trace_arrays; cli binds dump_csv and from_json), so every call made
by phsolve.cli.main passes through it.  A span is (name, start, end,
parent); spans stay in memory until the run ends.  Self time is a span's
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

ROOT_SPAN = "answer"

# (span name, module, attribute): one entry per place a caller looks a name up
HOOKS = (
    ("expr.evaluate", "phsolve.expr", "evaluate"),
    ("expr.evaluate", "phsolve.grid", "evaluate"),
    ("problem.load", "phsolve.problems", "get_builtin"),
    ("problem.load", "phsolve.cli", "load_problem_file"),
    ("characteristics.trace", "phsolve.operators", "trace_arrays"),
    ("operators.curve", "phsolve.operators", "CurveCache.curve"),
    ("operators.inner_weights", "phsolve.operators", "CurveCache.inner_weights"),
    ("operators.stencil", "phsolve.fredholm", "stencil_block"),
    ("operators.apply", "phsolve.fredholm", "apply_K"),
    ("operators.apply", "phsolve.fredholm", "apply_F"),
    ("fredholm.assemble", "phsolve.fredholm", "assemble"),
    ("fredholm.decide", "phsolve.fredholm", "singular_spectrum"),
    ("fredholm.solve_alternative", "phsolve.fredholm", "solve_alternative"),
    ("fredholm.svd", "phsolve.fredholm", "svd"),
    ("fredholm.lu_factor", "phsolve.fredholm", "lu_factor"),
    ("fredholm.lu_solve", "phsolve.fredholm", "lu_solve"),
    ("fredholm.residual", "phsolve.fredholm", "residual"),
    ("cli.dump_csv", "phsolve.cli", "dump_csv"),
)

# the branch taken after the decision: LU solve, or full SVD plus bases
_BRANCH = ("fredholm.solve_alternative", "fredholm.svd", "fredholm.lu_factor", "fredholm.lu_solve")


class SpanError(RuntimeError):
    """A layer the workload runs left no span, or the spans miss too much
    of the call: the wrappers no longer sit where phsolve does its work."""


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN]
        for name, _, _ in HOOKS:
            if name not in self.names:
                self.names.append(name)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.spans = []  # (name id, start, end, parent index); parent -1 is none
        self._stack = []  # [span index, seconds covered by child spans]
        self._self_s = [0.0] * len(self.names)
        self._calls = [0] * len(self.names)
        self._rk4_steps = 0
        self._matrix = None
        self._root = None
        self._saved = []

    # --- installation -----------------------------------------------------

    def install(self):
        after = {
            "characteristics.trace": self._count_steps,
            "fredholm.assemble": self._keep_matrix,
        }
        for name, module, attr in HOOKS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)  # AttributeError: the function moved
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(self._ids[name], original, after.get(name)))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _count_steps(self, out):
        self._rk4_steps += len(out[0]) - 1

    def _keep_matrix(self, out):
        self._matrix = out

    def _wrap(self, nid, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self_s, calls = self._self_s, self._calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
                took = end - start
                self_s[nid] += took - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += took
            if after is not None:
                after(out)
            return out

        return traced

    # --- one traced call ----------------------------------------------------

    def call(self, fn, *args):
        """Run fn(*args) as the root span; returns (fn's result, seconds)."""
        self._self_s[:] = [0.0] * len(self.names)
        self._calls[:] = [0] * len(self.names)
        self._rk4_steps = 0
        self._matrix = None
        self._root = len(self.spans)
        out = self._wrap(0, fn)(*args)
        _, start, end, _ = self.spans[self._root]
        return out, end - start

    def layer_metrics(self, expected):
        """Per-layer metrics of the last call.  Raises SpanError when a span
        in expected never fired or the layers cover under 90% of the call."""
        missing = sorted(name for name in expected if self._calls[self._ids[name]] == 0)
        if missing:
            raise SpanError(f"expected spans never fired: {', '.join(missing)}")
        _, start, end, _ = self.spans[self._root]
        total = end - start
        coverage = 1.0 - self._self_s[0] / total
        if coverage < 0.9:
            raise SpanError(f"layer self times cover only {coverage:.1%} of the call")

        def s(name):
            return self._self_s[self._ids[name]]

        def n(name):
            return self._calls[self._ids[name]]

        requests, curves = n("operators.curve"), n("characteristics.trace")
        m, self._matrix = self._matrix, None
        return {
            "expr.evaluate_calls": n("expr.evaluate"),
            "expr.evaluate_s": s("expr.evaluate"),
            "problem.load_s": s("problem.load"),
            "characteristics.trace_s": s("characteristics.trace"),
            "characteristics.curves": curves,
            "characteristics.rk4_steps": self._rk4_steps,
            "operators.curve_requests": requests,
            # every trace runs inside a curve request that missed the cache
            "operators.curve_hit_ratio": 1.0 - curves / requests if requests else 0.0,
            "operators.inner_weights_s": s("operators.inner_weights"),
            "operators.stencil_s": s("operators.stencil"),
            "operators.stencil_calls": n("operators.stencil"),
            "operators.apply_s": s("operators.apply"),
            "fredholm.decide_s": s("fredholm.decide"),
            "fredholm.branch_s": sum(s(name) for name in _BRANCH),
            "fredholm.assemble_s": s("fredholm.assemble"),
            "fredholm.residual_s": s("fredholm.residual"),
            "fredholm.matrix_n": 0 if m is None else m.A.shape[0],
            "fredholm.matrix_nnz": 0 if m is None else int(np.count_nonzero(m.A)),
            "fredholm.matrix_mb": 0.0 if m is None else (m.A.nbytes + m.rhs.nbytes) / 2**20,
            "cli.write_s": s("cli.dump_csv"),
            "trace_coverage": coverage,
        }

    def write(self, path):
        """Save every span recorded so far as arrays in an .npz file."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=rows[:, 0].astype(np.int32),
            start=rows[:, 1],
            end=rows[:, 2],
            parent=rows[:, 3].astype(np.int64),
        )
