"""Per-layer tracing from outside the program.

Each layer boundary is wrapped at the attribute its caller looks up, so a
call is seen exactly where it crosses from one module into another:

* ``predictor`` imports ``mbar_closed`` and ``de_diagonals`` by name, so the
  cocycle closed forms it uses are wrapped on ``predictor``, not ``cocycle``;
* ``KNum.__mul__`` and ``KNum.__rmul__`` are separate class bindings and
  both feed ``exactnum.mul``;
* ``ffpoly._is_squarefree`` is reached from ``moments`` and, through the
  module globals, from ``FqPoly.is_squarefree``; one wrapper sees both.

Spans are not stored one per call: some boundaries are crossed over a
million times per call of the CLI.  Each boundary feeds per-name counters
(calls, total and self nanoseconds) instead, and a stack of open spans
makes self time exact: a span's self time is its duration minus the
durations of the spans opened inside it.  The bookkeeping hooks run outside
the span they describe; what runs after a call (for example collecting
distinct L-polynomials) is charged to no layer.
"""

from __future__ import annotations

import inspect
import time


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[int]] = []
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.distinct_l: set[tuple[int, ...]] = set()

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        stack = self.stack
        stat = self.spans.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, kwargs, result)
                if stack:
                    stack[-1][0] += clock() - end
            return result

        return traced

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["lfunc.distinct"] = len(self.distinct_l)
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": counts}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported package."""
    from qlmoments import cli, cocycle, exactnum, ffpoly, kacmoody, lfunc
    from qlmoments import moments, predictor

    def after_l_coefficients(args, kwargs, result):
        tracer.distinct_l.add(tuple(result))

    def after_moment(args, kwargs, result):
        tracer.add("moments.d_enumerated", result.q ** result.D)
        tracer.add("moments.d_squarefree", result.count)

    def grid_points(profile):
        signature = inspect.signature(profile)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            n = bound.arguments["quad"].n_points
            tracer.add("predictor.grid_points", n ** bound.arguments["r"])

        return before

    def after_roots(args, kwargs, result):
        tracer.add("kacmoody.roots", len(result))

    boundaries = [
        (ffpoly, "_is_squarefree", "ffpoly.squarefree", None, None),
        (ffpoly, "symbol_raw", "ffpoly.symbol_raw", None, None),
        (ffpoly, "build_sieve", "ffpoly.build_sieve", None, None),
        (lfunc, "l_coefficients", "lfunc.l_coefficients", None,
         after_l_coefficients),
        (lfunc, "character_row_sums", "lfunc.character_row_sums", None, None),
        (lfunc, "_reflect_coefficients", "lfunc.reflect", None, None),
        (moments, "moment", "moments.moment", None, after_moment),
        (predictor, "q1_coefficient", "predictor.q1_coefficient", None, None),
        (predictor, "q2_coefficient", "predictor.q2_coefficient", None, None),
        (predictor, "q1_profile", "predictor.q1_profile",
         grid_points(predictor.q1_profile), None),
        (predictor, "q2_term_profile", "predictor.q2_term_profile",
         grid_points(predictor.q2_term_profile), None),
        (predictor, "euler_product_level_one", "predictor.euler_level_one",
         None, None),
        (predictor, "euler_product_regularized", "predictor.euler_regularized",
         None, None),
        (predictor, "secondary_weight_functions", "predictor.weights",
         None, None),
        (predictor, "level_one_tail_estimate", "predictor.tail", None, None),
        (predictor, "regularized_tail_estimate", "predictor.tail", None, None),
        (predictor, "mbar_closed", "cocycle.mbar_closed", None, None),
        (predictor, "de_diagonals", "cocycle.de_diagonals", None, None),
        (cocycle, "gamma_factor_exact", "cocycle.gamma_factor_exact",
         None, None),
        (cocycle, "cocycle_matrix", "cocycle.cocycle_matrix", None, None),
        (cocycle, "local_residue_factor", "cocycle.local_residue_factor",
         None, None),
        (exactnum.KNum, "__mul__", "exactnum.mul", None, None),
        (exactnum.KNum, "__rmul__", "exactnum.mul", None, None),
        (exactnum.KNum, "inv", "exactnum.inv", None, None),
        (kacmoody, "positive_real_roots_at_level", "kacmoody.roots_at_level",
         None, after_roots),
        (kacmoody, "reduction_word", "kacmoody.reduction_word", None, None),
        (cli, "main", "cli", None, None),
    ]
    for owner, attr, name, before, after in boundaries:
        setattr(owner, attr,
                tracer.wrap(name, getattr(owner, attr), before, after))
