"""The memo idiom: every cache in eucren is a functools.lru_cache keyed
by its function's arguments, or, for the messages that products compute
in batches, a memo with the same introspection; only caches keyed by
small integers alone may grow without bound."""

import importlib
import pkgutil

import eucren
from helpers import fresh_run

# keyed only by small integers (orders, dimensions) or by nothing
UNBOUNDED = {"quadrature.gauss_legendre", "expr.coords", "expr._u_symbol",
             "functionals._multi_indices", "functionals.balanced_basis"}


def _caches():
    """{module.qualname: cache} of every lru_cache defined in eucren, at
    module level or on a class, and of every memo object at module level
    (named by its attribute)."""
    found = {}
    for info in pkgutil.iter_modules(eucren.__path__):
        module = importlib.import_module(f"eucren.{info.name}")
        objects = list(vars(module).items())
        objects += [(name, getattr(v, "__func__", v)) for _, cls in objects
                    if isinstance(cls, type) for name, v in vars(cls).items()]
        for name, obj in objects:
            if (hasattr(obj, "cache_info") and not isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                qualname = getattr(obj, "__qualname__", name)
                found[f"{info.name}.{qualname}"] = obj
    return found


def test_every_cache_is_bounded():
    caches = _caches()
    assert {"tordered._message_memo", "tordered._weights",
            "quadrature._ball_rule"} <= set(caches)
    unbounded = {name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None}
    assert unbounded <= UNBOUNDED


def test_import_builds_no_rule():
    # a fresh interpreter that imports the command line has built no
    # quadrature rule: rules are built lazily, on first use
    code = ("import eucren.cli, eucren.quadrature as q; print(*("
            "f.cache_info().currsize for f in (q.bump_gauss, q._bump_rule, "
            "q._ball_rule, q.gauss_legendre)))")
    assert fresh_run(code).split() == ["0", "0", "0", "0"]


def test_import_loads_no_quadpack():
    # every integral runs on the package's own rules, so the command
    # line never loads scipy.integrate
    code = "import sys, eucren.cli; print('scipy.integrate' in sys.modules)"
    assert fresh_run(code).strip() == "False"
