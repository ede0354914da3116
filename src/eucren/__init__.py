"""Symbolic-numeric engine for Euclidean perturbative renormalization
of scalar field theories on flat R^d.  Its only runtime dependency is
numpy.

Modules, bottom up:

- ``errors``: shared failure taxonomy and CLI exit-code table.
- ``expr``: the one closed-form bump (its profile, partials and cutoff
  steps) and field maps: a background expression tree plus bump terms.
- ``quadrature``: 1d and ball rules, contraction passes, scheme record.
- ``bessel``: K_nu for the kernels at integer and half-integer orders:
  series and fitted rational forms of K_0 and K_1, elementary closed
  forms at half-integer orders, upward recurrence above.
- ``kernels``: translation-invariant kernel data (propagator powers,
  delta kernels, cutoffs, extension specs).
- ``propagator``: closed-form P(r), pairings, extensions of two-point
  kernels, fundamental-solution verification.
- ``triple``: the reduced three-point pairing in d = 3.
- ``functionals``: local functionals on ``SmoothMap`` fields, additivity.
- ``graphs``: labelled multigraph expansion terms with exact weights.
- ``tordered``: the partial product star_E, E_n series, causal
  factorization.
- ``renorm``: scaling degrees, extension recursion, power counting.
- ``cli``: batch front-end with deterministic reports.
"""

__version__ = "0.1.0"
