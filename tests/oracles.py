"""Closed-form two-body flows: a reference for the integrator in tests.

For n = 2 unit masses the centre of mass X = (x_1 + x_2)/2 moves freely,
and the relative coordinate r = x_1 - x_2 obeys r'' = -2 grad V(r).  For
three shipped families that motion has a closed form in any dimension d.
It stays in the plane of r and u = r', so it is written with Lagrange's
coefficients:

    r(t) = f r + g u,    u(t) = f' r + g' u.

* free: f = 1, g = t.
* harmonic, V = k |r|^2 / 2: an oscillator of frequency w = sqrt(2 k).
* repulsive_power with exponent 1, V = k / |r|: repulsive Coulomb motion
  r'' = K r / |r|^3 with K = 2 k (Landau & Lifshitz, Mechanics, sections
  15 and 18).  With E = |u|^2 / 2 + K / |r| and a = K / (2 E), the orbit
  is |r| = a (e cosh F + 1), and its time law is the hyperbolic Kepler
  equation e sinh F + F = n (t - t_p), with n = sqrt(K / a^3).

The Coulomb coefficients are written in the increment D = F(t) - F(0) of
the anomaly and in p = e exp(F(0)) / 2 and q = e exp(-F(0)) / 2, taken
from the start as sums of terms >= 0.  So a pair far out on its way in
(q tiny) or out (p tiny) keeps its digits, and neither e nor the
angular momentum is divided by: head-on rows (u parallel to r, e = 1,
and every row in d = 1) take the same formulas as the rest.
"""

import numpy as np

# safeguarded Newton steps allowed for the Kepler equation; a solve that
# has not converged by then raises
KEPLER_ITERATIONS = 100


def exact_pair_flow(x, v, potential, t: float):
    """The time-t flow of (N, 2, d) positions and velocities under a free,
    harmonic or Coulomb (repulsive_power, exponent 1) pair potential;
    returns (x_t, v_t).  Time runs backward for t < 0."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 3 or x.shape[1] != 2:
        raise ValueError(f"the exact flow is for pairs, shape (N, 2, d), got {x.shape}")
    drift = 0.5 * (v[:, 0] + v[:, 1])
    centre = 0.5 * (x[:, 0] + x[:, 1]) + t * drift
    r = x[:, 0] - x[:, 1]
    u = v[:, 0] - v[:, 1]
    f, g, fd, gd = (c[:, None] for c in _coefficients(r, u, potential, t))
    rt = f * r + g * u
    ut = fd * r + gd * u
    return (
        np.stack([centre + 0.5 * rt, centre - 0.5 * rt], axis=1),
        np.stack([drift + 0.5 * ut, drift - 0.5 * ut], axis=1),
    )


def _coefficients(r, u, potential, t):
    """Lagrange's f, g, f' and g' of every row at time t."""
    ones = np.ones(r.shape[0])
    if potential.kind == "free":
        return ones, t * ones, np.zeros_like(ones), ones
    if potential.kind == "harmonic":
        w = np.sqrt(2.0 * potential.strength)
        c, s = np.cos(w * t) * ones, np.sin(w * t) * ones
        return c, s / w, -w * s, c
    if potential.kind == "repulsive_power" and potential.exponent == 1.0:
        return _coulomb(r, u, 2.0 * potential.strength, t)
    raise ValueError(f"no exact pair flow for {potential.describe()}")


def _coulomb(r, u, K, t):
    """Lagrange's coefficients of r'' = K r / |r|^3 at time t."""
    rad = np.sqrt(np.sum(r * r, axis=1))
    speed = np.sqrt(np.sum(u * u, axis=1))
    # w = sqrt(2 E); a = K / w^2, sqrt(K a) = K / w and n = w^3 / K
    w = np.sqrt(speed * speed + 2.0 * K / rad)
    a = K / (w * w)
    # p, q = (c +- s) / 2 as sums of terms >= 0: (w - |u|) / (w + |u|) plus
    # |r| w |u| (1 +- cos) / K, with |u|^2 (1 +- cos) = | |u| r/|r| +- u |^2 / 2
    base = 2.0 * K / rad / (w + speed) ** 2
    along = speed[:, None] * r / rad[:, None]
    scale = np.divide(rad * w / K, speed, out=np.zeros_like(speed), where=speed > 0.0)
    p = 0.5 * (base + scale * 0.5 * np.sum((along + u) ** 2, axis=1))
    q = 0.5 * (base + scale * 0.5 * np.sum((along - u) ** 2, axis=1))
    D = _kepler_increment(p, q, w**3 / K * t)
    # cosh D - 1 without cancellation
    ch1 = 2.0 * np.sinh(0.5 * D) ** 2
    sh = np.sinh(D)
    rt = a * (1.0 + p * np.exp(D) + q * np.exp(-D))
    f = 1.0 + a / rad * ch1
    g = t + (sh - D) * K / w**3
    return f, g, K / w * sh / (rad * rt), 1.0 + a / rt * ch1


def _kepler_increment(p, q, mean):
    """The root D of p (e^D - 1) - q (e^-D - 1) + D = mean, row by row.

    Both exponential terms have the sign of D and the slope is
    |r(D)| / a >= 2, so the root lies within mean / 2 of 0 and, for
    mean > 0, below log1p(mean / p) (above -log1p(-mean / q) for
    mean < 0).  Newton's step is kept inside that bracket, which narrows
    with every evaluation.
    """
    size = np.abs(mean)
    lo = np.where(mean < 0.0, -np.minimum(0.5 * size, np.log1p(size / q)), 0.0)
    hi = np.where(mean > 0.0, np.minimum(0.5 * size, np.log1p(size / p)), 0.0)
    D = np.clip(mean / (1.0 + p + q), lo, hi)
    for _ in range(KEPLER_ITERATIONS):
        up = p * np.expm1(D)
        down = -q * np.expm1(-D)
        G = up + down + D - mean
        slope = p * np.exp(D) + q * np.exp(-D) + 1.0
        lo = np.where(G < 0.0, D, lo)
        hi = np.where(G > 0.0, D, hi)
        step = D - G / slope
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        # converged once the step is within the rounding of G's terms
        rounding = np.abs(up) + np.abs(down) + np.abs(D) + np.abs(mean)
        done = np.abs(step - D) * slope <= 8.0 * np.finfo(float).eps * rounding
        D = step
        if done.all():
            return D
    raise ArithmeticError(f"Kepler equation unsolved after {KEPLER_ITERATIONS} steps")
