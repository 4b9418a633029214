"""Smooth compactly supported profiles used throughout the package.

The basic object is the standard bump

    b(u) = exp(1 - 1/(1 - u^2))   for |u| < 1,   b(u) = 0 otherwise,

which is C^infty, equals 1 at u = 0 and vanishes with all derivatives at
|u| = 1.  Test functions, initial data, and the energy cutoff are all
built from b and from the decreasing smooth step derived from it.
"""

from __future__ import annotations

import numpy as np

# mass of the bump on [-1, 1]; see tests for the quadrature cross-check
BUMP_MASS = 1.2069003224378765

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def bump(u):
    """Evaluate b(u) elementwise; zero outside (-1, 1)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    w = u[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - w * w))
    return out


def bump_prime(u):
    """Derivative b'(u) = -2u / (1 - u^2)^2 * b(u), elementwise."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    w = u[m]
    s = 1.0 - w * w
    out[m] = -2.0 * w / (s * s) * np.exp(1.0 - 1.0 / s)
    return out


def bump_incomplete(w):
    """Integral of b over [-1, w], elementwise, via fixed Gauss-Legendre."""
    w = np.asarray(w, dtype=float)
    wc = np.clip(w, -1.0, 1.0)
    half = (wc + 1.0) / 2.0
    # map the 64 reference nodes into [-1, w] for every entry at once
    u = -1.0 + half[..., None] * (_GL_NODES + 1.0)
    return half * np.sum(_GL_WEIGHTS * bump(u), axis=-1)


def smooth_step_down(s):
    """C^infty decreasing step: 1 on (-inf, 1], 0 on [2, inf).

    Defined by integrating a bump supported on [1, 2] and normalizing,
    so the transition is monotone and all derivatives vanish at both ends.
    """
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    out[s >= 2.0] = 0.0
    m = (s > 1.0) & (s < 2.0)
    if np.any(m):
        # b is even, so the mass right of w equals the mass left of -w.
        # Integrating only over [-1, -|w|] keeps the quadrature on the short
        # side: 1 - F(w)/M with w near 1 would subtract two nearly equal
        # numbers and leave O(1e-12) negative or non-monotone values.
        w = 2.0 * s[m] - 3.0
        near = bump_incomplete(-np.abs(w)) / BUMP_MASS
        out[m] = np.where(w > 0.0, near, 1.0 - near)
    return out


def smooth_step_down_prime(s):
    """Derivative of smooth_step_down, elementwise."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = (s > 1.0) & (s < 2.0)
    if np.any(m):
        out[m] = -2.0 * bump(2.0 * s[m] - 3.0) / BUMP_MASS
    return out
