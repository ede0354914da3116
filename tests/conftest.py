"""Suite-wide settings.

Every property test draws its examples from one ``hypothesis`` profile:
no per-example deadline (some examples run quadratures), no example
database, and derandomized generation, so each run of the suite draws
the same examples and its result does not depend on the run.
"""

from hypothesis import settings

settings.register_profile("eucren", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("eucren")
