"""Span tracing around the public functions of each maxvar layer.

The package's modules import one another with ``from .x import y``, so a
wrapper installed only in the defining module would miss most calls: a
:class:`Tracer` replaces the binding in every loaded ``maxvar`` module that
holds the original function (``maxvar.search.ball_average`` as well as
``maxvar.averages.ball_average``), and puts every original back when the
``with`` block ends.

Spans (name, start, end, parent, operation id) and the layer counters stay
in memory; :meth:`Tracer.save` writes the spans once, at the end.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from maxvar.identities import NEAR_ZERO_REL

# layer -> public functions wrapped; "Class.method" names a method
TRACED = {
    "core": ("RadialProfile.value",),
    "geometry": ("cap_area", "cap_first_moment"),
    "quadrature": ("integrate_adaptive",),
    "averages": ("ball_average", "sphere_average", "gradient_axial_component",
                 "gradient_radial_moment", "batch_objective"),
    "search": ("search", "maximal_profile", "derivative_by_formula"),
    "variation": ("variation_report", "lq_norm_derivative"),
    "identities": ("check_divergence", "check_affine_family", "check_annulus_average"),
}


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.search_results: list[tuple] = []   # (profile, params, result)
        self.rel_residuals: list[float] = []
        self._searched_keys: set = set()
        self._after = self._hooks()

    # -- spans ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(math.nan)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one top-level benchmark operation, with a new id."""
        self._op += 1
        self._searched_keys = set()
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    # -- installation ---------------------------------------------------

    def __enter__(self):
        pkg = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "maxvar" or name.startswith("maxvar."))]
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"maxvar.{layer}")
            for func in funcs:
                span = f"{layer}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(span, original, f"{layer}.{func}"))
                    continue
                original = getattr(home, func)
                for mod in pkg:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._restore.append((mod, attr, original))
                            binding = f"{mod.__name__.removeprefix('maxvar.')}.{attr}"
                            setattr(mod, attr, self._wrap(span, original, binding))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, span: str, fn, binding: str):
        name_id = self._name_id(span)
        counts = self.counts
        after = self._after.get(span)
        quadrature = span == "quadrature.integrate_adaptive"
        calls_key = f"{span}.calls"
        via_key = f"via.{binding}"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            counts[via_key] += 1
            if quadrature:
                args = (self._counting_integrand(args[0]),) + args[1:]
            i = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{span}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(i)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counting_integrand(self, fun):
        counts = self.counts

        def integrand(t):
            counts["quadrature.integrate_adaptive.integrand_nodes"] += int(np.size(t))
            return fun(t)

        return integrand

    # -- counters -------------------------------------------------------

    def _hooks(self):
        counts = self.counts

        def nodes(key):
            def hook(args, out):
                counts[key] += int(np.size(args[0]))
            return hook

        def value_nodes(args, out):
            # args[0] is the profile: the method is wrapped on the class
            counts["core.RadialProfile.value.nodes"] += int(np.size(args[1]))

        def batch(args, out):
            counts["averages.batch_objective.balls"] += int(np.size(args[1]))

        def searched(args, out):
            profile, s, params = args[0], float(args[1]), args[2]
            counts["search.search.objective_evals"] += out.objective_evals
            counts["search.search.converged"] += bool(out.converged)
            counts["search.search.tie_candidates"] += out.tie_candidates
            key = (profile.knots_t.tobytes(), profile.knots_v.tobytes(),
                   params.n, params.beta, s)
            if key in self._searched_keys:
                counts["search.search.repeats"] += 1
            self._searched_keys.add(key)
            self.search_results.append((profile, params, out))

        def residual(args, out):
            # near-zero pairs pass on an absolute floor; their relative
            # residual means nothing
            floor = NEAR_ZERO_REL * args[0].max_value
            if out.applicable and max(abs(out.lhs), abs(out.rhs)) > floor:
                self.rel_residuals.append(out.rel_residual)

        return {
            "core.RadialProfile.value": value_nodes,
            "geometry.cap_area": nodes("geometry.cap_area.nodes"),
            "geometry.cap_first_moment": nodes("geometry.cap_first_moment.nodes"),
            "averages.batch_objective": batch,
            "search.search": searched,
            "identities.check_divergence": residual,
            "identities.check_affine_family": residual,
        }

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        if not self.span_start:
            return {}
        start = np.asarray(self.span_start)
        dur = np.asarray(self.span_end) - start
        parent = np.asarray(self.span_parent)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        per_name = np.bincount(np.asarray(self.span_name), weights=dur - child,
                               minlength=len(self.names))
        return {name: float(per_name[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span, with its name table, to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names),
                 name=np.asarray(self.span_name, dtype=np.int32),
                 start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end),
                 parent=np.asarray(self.span_parent, dtype=np.int64),
                 op=np.asarray(self.span_op, dtype=np.int32))
