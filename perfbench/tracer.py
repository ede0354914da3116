"""Spans around eucren's public functions, recorded from outside the package.

``install`` replaces each traced function by a wrapper wherever the
function is looked up: the attribute of every eucren module that holds
it (``from .quadrature import ball_rule`` in ``tordered`` binds a second
name that has to be patched too), ``sympy.lambdify`` for the compilations
that ``expr`` makes, and the class attributes ``Propagator.__call__`` and
``Report.render``.  Integrand evaluations are read from the ``infodict``
that ``quad`` returns under ``full_output``; integrands are not wrapped.

Each call records a span (name, start, end, parent span, job id) in flat
arrays kept in memory; ``Tracer.write`` stores them when the run ends and
``Tracer.metrics`` reduces them to per-module counts and self times.  A
span's self time is its duration minus the durations of the spans it
called directly.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute, what the work count measures)
# The work count is None when only calls are counted.
TARGETS = (
    ("tordered.product", "eucren.tordered", "product_expansion", None),
    ("tordered.E_n", "eucren.tordered", "E_n", None),
    ("tordered.star_E", "eucren.tordered", "star_E", None),
    ("tordered.block_product", "eucren.tordered", "block_product", None),
    ("propagator.kernel", "eucren.propagator", "Propagator.__call__", "size"),
    ("propagator.pair", "eucren.propagator", "pair", None),
    ("propagator.pair_extension", "eucren.propagator", "pair_extension", None),
    ("bessel.besselk", "eucren.bessel", "besselk", "size"),
    ("expr.lambdify", "sympy", "lambdify", None),
    ("quadrature.quad", "eucren.quadrature", "quad", "neval"),
    ("quadrature.correlation_profile", "eucren.quadrature", "correlation_profile", None),
    ("quadrature.ball_rule", "eucren.quadrature", "ball_rule", "nodes"),
    ("triple.grid_field", "eucren.triple", "grid_field", None),
    ("triple.triple_pairing", "eucren.triple", "triple_pairing", None),
    ("triple.pair_three", "eucren.triple", "pair_three", None),
    ("renorm.recursive_renormalize", "eucren.renorm", "recursive_renormalize", None),
    ("renorm.scaling_degree_numeric", "eucren.renorm", "scaling_degree_numeric", None),
    ("functionals.evaluate", "eucren.functionals", "evaluate", None),
    ("functionals.derivative_kernel", "eucren.functionals", "derivative_kernel", None),
    ("functionals.additivity_check", "eucren.functionals", "additivity_check", None),
    ("graphs.expansion_terms", "eucren.graphs", "expansion_terms", None),
    ("cli.parse_config", "eucren.cli", "parse_config", None),
    ("cli.render", "eucren.cli", "Report.render", None),
)

# per-layer metrics: name -> (unit, how it is reduced from the spans)
METRICS = {
    "tordered.self_s": ("s", ("self", "tordered.")),
    "tordered.product_calls": ("count", ("calls", "tordered.product")),
    "propagator.kernel_calls": ("count", ("calls", "propagator.kernel")),
    "propagator.kernel_evals": ("count", ("work", "propagator.kernel")),
    "propagator.kernel_s": ("s", ("self", "propagator.kernel")),
    "propagator.pair_calls": ("count", ("calls", "propagator.pair")),
    "propagator.pair_s": ("s", ("self", "propagator.pair")),
    "propagator.pair_extension_calls": ("count", ("calls", "propagator.pair_extension")),
    "propagator.pair_extension_s": ("s", ("self", "propagator.pair_extension")),
    "bessel.besselk_calls": ("count", ("calls", "bessel.besselk")),
    "bessel.besselk_points": ("count", ("work", "bessel.besselk")),
    "bessel.besselk_s": ("s", ("self", "bessel.besselk")),
    "expr.lambdify_calls": ("count", ("calls", "expr.lambdify")),
    "expr.lambdify_s": ("s", ("self", "expr.lambdify")),
    "quadrature.quad_calls": ("count", ("calls", "quadrature.quad")),
    "quadrature.quad_s": ("s", ("self", "quadrature.quad")),
    "quadrature.integrand_evals": ("count", ("work", "quadrature.quad")),
    "quadrature.correlation_profile_calls": ("count", ("calls", "quadrature.correlation_profile")),
    "quadrature.correlation_profile_s": ("s", ("self", "quadrature.correlation_profile")),
    "quadrature.ball_rule_calls": ("count", ("calls", "quadrature.ball_rule")),
    "quadrature.ball_rule_nodes": ("count", ("work", "quadrature.ball_rule")),
    "triple.grid_field_s": ("s", ("self", "triple.grid_field")),
    "triple.triple_pairing_s": ("s", ("self", "triple.triple_pairing")),
    "triple.pair_three_s": ("s", ("self", "triple.pair_three")),
    "renorm.recursive_renormalize_s": ("s", ("self", "renorm.recursive_renormalize")),
    "renorm.scaling_degree_numeric_s": ("s", ("self", "renorm.scaling_degree_numeric")),
    "functionals.evaluate_calls": ("count", ("calls", "functionals.evaluate")),
    "functionals.derivative_kernel_calls": ("count", ("calls", "functionals.derivative_kernel")),
    "functionals.additivity_check_s": ("s", ("self", "functionals.additivity_check")),
    "graphs.expansion_terms_calls": ("count", ("calls", "graphs.expansion_terms")),
    "graphs.expansion_terms_s": ("s", ("self", "graphs.expansion_terms")),
    "cli.parse_config_s": ("s", ("self", "cli.parse_config")),
    "cli.render_s": ("s", ("self", "cli.render")),
}


def _work(kind, args, out):
    """The work count of one call: the size of the second argument (the
    radii of ``Propagator.__call__``, the points of ``besselk``), the
    number of nodes a ball rule returns, or QUADPACK's ``neval``."""
    if kind == "size":
        return int(np.size(args[1]))
    if kind == "nodes":
        return int(len(out[1]))
    if isinstance(out, tuple) and len(out) > 2 and isinstance(out[2], dict):
        return int(out[2].get("neval", 0))
    return 0


class Tracer:
    """Flat in-memory span store; one instance per traced process."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.job_id = -1
        self._stack = [-1]

    def _wrap(self, index, fn, kind):
        name_id, parent, job = self.name_id, self.parent, self.job
        start, end, work, stack = self.start, self.end, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(index)
            parent.append(stack[-1])
            job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            work.append(0)
            stack.append(span)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if kind is not None:
                work[span] = _work(kind, args, out)
            return out

        return traced

    def install(self):
        """Patch every name under which a traced function is looked up."""
        import eucren
        for info in pkgutil.iter_modules(eucren.__path__):
            importlib.import_module(f"eucren.{info.name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.split(".")[0] == "eucren" and m is not None]
        for index, (_, module_name, attr, kind) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(index, cls.__dict__[method], kind))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(index, fn, kind)
            if module_name == "sympy":
                module.lambdify = wrapper
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return names, parents, start, end

    def metrics(self):
        names, parents, start, end = self.arrays()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        self_time = duration - child
        work = np.frombuffer(self.work, dtype=np.int64)
        out = {}
        for metric, (unit, (how, prefix)) in METRICS.items():
            if prefix.endswith("."):
                ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
            else:
                ids = [self.names.index(prefix)]
            sel = np.isin(names, ids)
            if how == "self":
                value = float(np.sum(self_time[sel]))
            elif how == "calls":
                value = int(np.count_nonzero(sel))
            else:
                value = int(np.sum(work[sel]))
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Store the spans as arrays in an ``.npz`` file; ``names[name]``
        labels a span, ``parent`` is the index of its caller's span (-1
        at the top) and ``job`` the index of the job it ran in."""
        names, parents, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=names, parent=parents,
            job=np.frombuffer(self.job, dtype=np.int32), start=start, end=end,
            work=np.frombuffer(self.work, dtype=np.int64))
