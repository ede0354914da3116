"""Reference values for the benchmark's jobs, computed apart from eucren.

Nothing here imports eucren: the bump, the plateau cutoff and the
propagator P(r) are written out from their definitions, and the
integrals are Monte Carlo estimates or SciPy quadratures of at most two
dimensions.  A Monte Carlo check passes when the reported value lies
within ``Z_LIMIT`` standard errors of the estimate; the sample counts
keep the standard error near 0.1 % of the value, so that a 1 % error in
a reported value is rejected.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, interpolate, special

# a check fails a correct value with probability 7e-6; in 22 runs of
# every workload (about 220 Monte Carlo checks) that adds up to 1.5e-3
Z_LIMIT = 4.5
CHUNK = 200_000


def _core(t):
    """exp(-1/t) for t > 0, glued to 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)


def bump(points, center, radius, amplitude=1.0):
    """A*exp(-1/(1 - |x-c|^2/r^2)) inside the ball B(c, r), 0 outside."""
    diff = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    return amplitude * _core(1.0 - np.sum(diff * diff, axis=-1) / radius ** 2)


def cutoff(rho, radius, plateau_fraction=0.5):
    """Smooth radial step: 1 for rho <= plateau_fraction*radius, 0 for
    rho >= radius."""
    rho = np.asarray(rho, dtype=float)
    a2 = (plateau_fraction * radius) ** 2
    s = (rho * rho - a2) / (radius ** 2 - a2)
    lo, hi = _core(1.0 - s), _core(s)
    return lo / (lo + hi)


def propagator(d, m, r):
    """Decaying fundamental solution of (-Lap + m^2), m > 0, in closed form."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        if d == 2:
            return special.k0(m * r) / (2.0 * np.pi)
        if d == 3:
            return np.exp(-m * r) / (4.0 * np.pi * r)
    raise ValueError(f"no closed form kept for d={d}")


def ball_volume(d, radius):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius ** d


def sphere_area(d):
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def sample_sphere(rng, d, n):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sample_ball(rng, d, center, radius, n):
    """Uniform points in the ball."""
    r = radius * rng.random(n) ** (1.0 / d)
    return np.asarray(center, dtype=float) + sample_sphere(rng, d, n) * r[:, None]


def bump_integral(d, radius, amplitude=1.0):
    """int over R^d of the bump, by a 1-d quadrature in the radius."""
    val, _ = integrate.quad(
        lambda t: t ** (d - 1) * math.exp(-1.0 / (1.0 - t * t)),
        0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return amplitude * radius ** d * sphere_area(d) * val


def sample_bump(rng, d, test, n):
    """n points with density proportional to the bump ``test``, by
    rejection from uniform samples of its ball."""
    center, radius, _ = test
    out = []
    have = 0
    while have < n:
        x = sample_ball(rng, d, center, radius, 3 * (n - have) + 64)
        keep = x[rng.random(len(x)) * math.exp(-1.0) < bump(x, center, radius)]
        out.append(keep[:n - have])
        have += len(out[-1])
    return np.concatenate(out)


def sample_radius(rng, rate, r_max, n):
    """Radii on [0, r_max] with density proportional to exp(-rate*r);
    returns (r, 1/density)."""
    mass = -math.expm1(-rate * r_max) / rate
    r = -np.log1p(-rng.random(n) * -math.expm1(-rate * r_max)) / rate
    return r, mass * np.exp(rate * r)


class Estimate:
    """Running mean and standard error of chunked samples."""

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.squares = 0.0

    def add(self, values):
        self.n += values.size
        self.total += float(np.sum(values))
        self.squares += float(np.sum(values * values))

    def result(self, scale=1.0):
        mean = self.total / self.n
        var = max(self.squares / self.n - mean * mean, 0.0)
        return scale * mean, scale * math.sqrt(var / self.n)


def _chunks(n):
    done = 0
    while done < n:
        size = min(CHUNK, n - done)
        yield size
        done += size


def product_coefficients(d, m, f, g, background, powers, orders, n, seed):
    """Monte Carlo estimates of the coefficients of the product of
    F = int f phi^p and G = int g phi^q on disjoint balls.

    The order-k coefficient is (1/k!) p!/(p-k)! q!/(q-k)! times
    int int f(x) phi(x)^(p-k) P(|x-y|)^k g(y) phi(y)^(q-k) dx dy,
    estimated from uniform samples of the two balls.  ``f`` and ``g``
    are (center, radius, amplitude); ``background`` is (c, s) for
    phi = c + s*x1.  Returns {order: (estimate, stderr)}.
    """
    rng = np.random.default_rng(seed)
    p, q = powers
    c, s = background
    stats = {k: Estimate() for k in orders}
    for size in _chunks(n):
        x = sample_ball(rng, d, f[0], f[1], size)
        y = sample_ball(rng, d, g[0], g[1], size)
        fx = bump(x, *f)
        gy = bump(y, *g)
        px = c + s * x[:, 0]
        py = c + s * y[:, 0]
        prop = propagator(d, m, np.linalg.norm(x - y, axis=1))
        for k in orders:
            weight = math.perm(p, k) * math.perm(q, k) / math.factorial(k)
            stats[k].add(weight * fx * px ** (p - k) * prop ** k
                         * gy * py ** (q - k))
    scale = ball_volume(d, f[1]) * ball_volume(d, g[1])
    return {k: stats[k].result(scale) for k in orders}


def _radial_leg(rng, d, m, power, x, far, r_max, cut_radius=None):
    """Samples of int dz P(|z|)^power [far(x - z) - w(|z|) far(x)] for
    given points x, with z = r*omega and r drawn with density
    proportional to exp(-power*m*r).

    The weight r^(d-1) P(r)^power stays bounded where uniform sampling
    of the far point would give infinite variance.  Averaging the pair
    (omega, -omega) cancels the first-order Taylor term of the
    subtraction pointwise.
    """
    r, inv_density = sample_radius(rng, power * m, r_max, len(x))
    z = r[:, None] * sample_sphere(rng, d, len(x))
    vals = 0.5 * (bump(x - z, *far) + bump(x + z, *far))
    if cut_radius is not None:
        vals = vals - cutoff(r, cut_radius) * bump(x, *far)
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = sphere_area(d) * inv_density * r ** (d - 1) * propagator(d, m, r) ** power
    return np.where(r > 0.0, weight * vals, 0.0)


def radial_pairing(d, m, power, f, g, n, seed, cut_radius=None):
    """Monte Carlo estimate of <P^power, f x g> on overlapping balls,
    or with ``cut_radius`` of the extension that subtracts
    w(|x-y|) (fg)(x) with the plateau cutoff w of that radius (no
    counterterm).  x is drawn with density proportional to f, the
    separation along the radial direction."""
    rng = np.random.default_rng(seed)
    sep = float(np.linalg.norm(np.subtract(f[0], g[0])))
    r_max = max(sep + f[1] + g[1], cut_radius or 0.0)
    stats = Estimate()
    for size in _chunks(n):
        x = sample_bump(rng, d, f, size)
        stats.add(_radial_leg(rng, d, m, power, x, g, r_max, cut_radius))
    return stats.result(bump_integral(d, f[1], f[2]))


def _shell(m, power, t, rho):
    """int_{-1}^{1} P(|x - y|)^power dmu in d = 3 for |x| = t, |y| = rho
    and mu the cosine between them, in closed form."""
    if t == 0.0 or rho == 0.0:
        r = max(t, rho)
        return 2.0 * (math.exp(-m * r) / (4.0 * math.pi * r)) ** power
    a, b = abs(t - rho), t + rho
    if power == 1:
        return (math.exp(-m * b) * math.expm1(m * (b - a))
                / (4.0 * math.pi * m * t * rho))
    if power == 2:
        return ((special.exp1(2.0 * m * a) - special.exp1(2.0 * m * b))
                / (16.0 * math.pi ** 2 * t * rho))
    raise ValueError(f"no closed form kept for power {power}")


def leg_profile(m, power, test, lo, hi, samples=600):
    """rho -> int P(|x - y|)^power test(y) d^3y for |x - c| = rho on
    [lo, hi], tabulated by a 1-d quadrature per sample and interpolated
    by a cubic spline."""
    radius, amplitude = test[1], test[2]

    def leg(rho):
        def integrand(t):
            return (t * t * amplitude * math.exp(-1.0 / (1.0 - t * t / radius ** 2))
                    * _shell(m, power, t, rho))
        val, _ = integrate.quad(integrand, 0.0, radius, epsabs=0.0,
                                epsrel=1e-11, limit=200,
                                points=[rho] if 0.0 < rho < radius else None)
        return 2.0 * math.pi * val

    grid = np.linspace(lo, hi, samples)
    return interpolate.CubicSpline(grid, [leg(float(r)) for r in grid])


def path_pairing(m, tests, n, seed):
    """Estimate of int f0(x0) f1(x1) f2(x2) P(|x0-x1|)^2 P(|x1-x2|) d^9x
    in d = 3, for f0, f1 disjoint and f1, f2 overlapping.

    Both legs depend on the pivot x1 only through its distance to the
    far test's center; each is a 1-d quadrature of a closed-form angular
    integral, and the pivot integral is a Monte Carlo estimate with x1
    drawn with density proportional to f1.
    """
    rng = np.random.default_rng(seed)
    f0, f1, f2 = tests
    c0, c1, c2 = (np.asarray(t[0], dtype=float) for t in tests)
    s0 = float(np.linalg.norm(c1 - c0))
    s2 = float(np.linalg.norm(c1 - c2))
    near = leg_profile(m, 2, f0, s0 - f1[1], s0 + f1[1])
    far = leg_profile(m, 1, f2, 0.0, s2 + f1[1])
    stats = Estimate()
    for size in _chunks(n):
        x1 = sample_bump(rng, 3, f1, size)
        stats.add(near(np.linalg.norm(x1 - c0, axis=1))
                  * far(np.linalg.norm(x1 - c2, axis=1)))
    return stats.result(bump_integral(3, f1[1], f1[2]))


def overlap_integral(f, g):
    """int f g over R^3 by nested quadrature about the center of f."""
    s = float(np.linalg.norm(np.subtract(f[0], g[0])))
    rf, rg = f[1], g[1]

    def shell(r):
        if s == 0.0:
            return 4.0 * math.pi * float(bump([r, 0.0, 0.0], (0.0, 0.0, 0.0), rg, g[2]))
        lo = (r * r + s * s - rg * rg) / (2.0 * r * s)
        if lo >= 1.0:
            return 0.0
        val, _ = integrate.quad(
            lambda mu: float(bump([r * mu - s, r * math.sqrt(max(1.0 - mu * mu, 0.0)), 0.0],
                                  (0.0, 0.0, 0.0), rg, g[2])),
            max(lo, -1.0), 1.0, epsabs=0.0, epsrel=1e-11, limit=200)
        return 2.0 * math.pi * val

    val, _ = integrate.quad(
        lambda r: r * r * float(bump([r, 0.0, 0.0], (0.0, 0.0, 0.0), rf, f[2])) * shell(r),
        max(s - rg, 0.0), rf, epsabs=0.0, epsrel=1e-10, limit=200)
    return val


def _p3(m, r):
    return (math.exp(-m * r) / (4.0 * math.pi * r)) ** 3


def pair_cutoff_shift(m, old_radius, new_radius):
    """C_0 shift that keeps the extension of P^3 in d = 3 fixed when its
    cutoff radius changes: int P^3 (w_new - w_old) d^3z."""
    lo = 0.5 * min(old_radius, new_radius)
    hi = max(old_radius, new_radius)
    val, _ = integrate.quad(
        lambda r: r * r * _p3(m, r) * float(cutoff(r, new_radius) - cutoff(r, old_radius)),
        lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
    return 4.0 * math.pi * val


def triangle_overall_shift(m, pair_radius, pair_c0, old_radius, new_radius):
    """C_0 shift of the overall extension of P^3(z1) P^2(z2) P(z1 - z2)
    in d = 3 for a change of the overall cutoff W(|(z1, z2)|).

    It is the pairing of the kernel, with its z1 locus extended by the
    cutoff ``pair_radius`` and counterterm ``pair_c0``, against
    dW = W_new - W_old:  int P^3(z1) [psi(z1) - w(z1) psi(0)] + c psi(0),
    psi(z1) = int P^2(z2) P(z1 - z2) dW d^3z2.  The angular integral of
    P(z1 - z2) is done in closed form, which leaves psi a 1-d integral.
    """
    joint_lo = 0.5 * min(old_radius, new_radius)
    joint_hi = max(old_radius, new_radius)

    def dW(rho):
        return float(cutoff(rho, new_radius) - cutoff(rho, old_radius))

    def psi(r1):
        def integrand(r2):
            if r1 == 0.0:
                angular = math.exp(-m * r2) / (2.0 * math.pi * r2)
            else:
                angular = (math.exp(-m * (r1 + r2)) * math.expm1(2.0 * m * min(r1, r2))
                           / (4.0 * math.pi * m * r1 * r2))
            p2 = (math.exp(-m * r2) / (4.0 * math.pi * r2)) ** 2
            return r2 * r2 * p2 * angular * dW(math.hypot(r1, r2))
        lo = math.sqrt(max(joint_lo ** 2 - r1 * r1, 0.0))
        hi = math.sqrt(max(joint_hi ** 2 - r1 * r1, 0.0))
        if hi <= lo:
            return 0.0
        pts = [p for p in (r1,) if lo < p < hi]
        val, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-9,
                                limit=200, points=pts or None)
        return 2.0 * math.pi * val

    psi0 = psi(0.0)
    hi = max(joint_hi, pair_radius)
    val, _ = integrate.quad(
        lambda r1: r1 * r1 * _p3(m, r1) * (psi(r1) - float(cutoff(r1, pair_radius)) * psi0),
        0.0, hi, epsabs=0.0, epsrel=1e-7, limit=200,
        points=[pair_radius / 2.0, pair_radius, joint_lo, joint_hi])
    return 4.0 * math.pi * val + pair_c0 * psi0
