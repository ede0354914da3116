"""The memo idiom: every cache in eucren is a functools.lru_cache keyed
by its function's arguments, or, for the messages that products compute
in batches, a memo with the same introspection; only caches keyed by
small integers alone may grow without bound."""

import importlib
import pkgutil

import eucren
from helpers import fresh_run

# keyed only by small integers (orders, dimensions) or by nothing
UNBOUNDED = {"quadrature.gauss_legendre", "functionals._multi_indices",
             "functionals.balanced_basis"}


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


def test_runs_load_no_sympy_or_interpolate(tmp_path):
    # the command line imports neither sympy nor scipy.interpolate nor
    # scipy.optimize, and no job loads them later: a lazy import would
    # only move their cost from start-up into the run
    jobs = {
        "verify": "command=verify d=2 m=1 seed=3\n",
        "product": ("command=product d=1 order=1\nbackground = 0.9 + 0.1*x1\n"
                    "[functional F]\ncenter=0\nradius=0.9\npower=2\n"
                    "[functional G]\ncenter=3\nradius=0.9\npower=2\n"),
        # overlapping tests pair through a correlation profile spline
        "renormalize": ("command=renormalize d=3 m=1 factors=0-1:3\n"
                        "[functional f]\ncenter=0,0,0\nradius=0.8\n"
                        "[functional g]\ncenter=0.5,0,0\nradius=0.8\n"),
    }
    for name, text in jobs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    code = (
        "import sys, eucren.cli as cli\n"
        "heavy = ('sympy', 'scipy.interpolate', 'scipy.optimize')\n"
        "print(*(m in sys.modules for m in heavy))\n"
        f"for name in {list(jobs)!r}:\n"
        f"    stem = {str(tmp_path)!r} + '/' + name\n"
        "    print(cli.main(['--config', stem + '.cfg', '--out', stem + '.txt']))\n"
        "print(*(m in sys.modules for m in heavy))\n")
    lines = fresh_run(code).splitlines()
    assert lines == ["False False False", "0", "0", "0", "False False False"]
