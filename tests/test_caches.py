"""The memo idiom: every cache in eucren is a functools.lru_cache keyed
by its function's arguments, and only caches keyed by small integers
alone may grow without bound.  A product's messages live in a dict for
the length of its call, not in a cache.  The set of caches is fixed
here, so that adding one changes this test."""

import importlib
import pkgutil

import eucren
from helpers import fresh_run

# keyed only by small integers (orders, dimensions) or by nothing
UNBOUNDED = {"quadrature.gauss_legendre"}
BOUNDED = {"cli._parser", "functionals.derivative_kernel",
           "propagator._correlation", "quadrature._ball_rule",
           "quadrature._bump_rule", "quadrature.bump_gauss",
           "tordered._weights", "triple.grid_field"}


def _caches():
    """{module.qualname: cache} of every object with ``cache_info``
    defined in eucren, at module level or on a class (named by its
    attribute when it has no qualified name)."""
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
    assert set(caches) == BOUNDED | UNBOUNDED
    unbounded = {name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None}
    assert unbounded == UNBOUNDED


def test_every_exported_name_resolves():
    # a stale entry of __all__ would make ``from module import *`` raise
    for info in pkgutil.iter_modules(eucren.__path__):
        module = importlib.import_module(f"eucren.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], info.name


def test_import_builds_no_rule():
    # a fresh interpreter that imports the command line has built no
    # quadrature rule: rules are built lazily, on first use
    code = ("import eucren.cli, eucren.quadrature as q; print(*("
            "f.cache_info().currsize for f in (q.bump_gauss, q._bump_rule, "
            "q._ball_rule, q.gauss_legendre)))")
    assert fresh_run(code).split() == ["0", "0", "0", "0"]


def test_runs_import_no_scipy(tmp_path):
    # the command line and its jobs run without scipy: in an interpreter
    # where importing it raises, the jobs of every route that once used
    # it (K_0, distances, the spline solve, QUADPACK) exit 0 and load no
    # scipy module, and d = 3 bumps on the x1 axis take the ring route.
    # Nor do the jobs load a numpy submodule: numpy loads fft, random and
    # polynomial on first use, which scipy's import used to do up front
    jobs = {
        "verify-d2": "command=verify d=2 m=1 seed=3\n",
        "verify-d3": "command=verify d=3 m=1 seed=3\n",
        "product-d3": ("command=product d=3 m=1 order=1\n"
                       "background = 0.9 + 0.1*x1\n"
                       "[functional F]\ncenter=0,0,0\nradius=0.9\npower=2\n"
                       "[functional G]\ncenter=2.5,0,0\nradius=0.9\npower=2\n"),
        # P^3 in d = 2 goes through K_0
        "renormalize-d2": ("command=renormalize d=2 m=1 factors=0-1:3\n"
                           "[functional f]\ncenter=0,0\nradius=1\n"
                           "[functional g]\ncenter=0.7,0\nradius=0.9\n"),
        # overlapping tests pair through a correlation profile spline
        "renormalize-d3": ("command=renormalize d=3 m=1 factors=0-1:3\n"
                           "[functional f]\ncenter=0,0,0\nradius=0.8\n"
                           "[functional g]\ncenter=0.5,0,0\nradius=0.8\n"),
    }
    for name, text in jobs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    code = (
        "import sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(name)\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "import eucren.cli as cli, eucren.tordered as tordered\n"
        "loaded = set(sys.modules)\n"
        "rings = []\n"
        "ring_pass = tordered.ring_pass\n"
        "tordered.ring_pass = lambda *a: rings.append(1) or ring_pass(*a)\n"
        f"for name in {list(jobs)!r}:\n"
        f"    stem = {str(tmp_path)!r} + '/' + name\n"
        "    print(cli.main(['--config', stem + '.cfg', '--out', stem + '.txt']))\n"
        "print(len(rings) > 0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in set(sys.modules) - loaded\n"
        "             if m.split('.')[0] == 'numpy'))\n")
    lines = fresh_run(code).splitlines()
    assert lines == ["0"] * len(jobs) + ["True", "[]", "[]"]


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
