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


def _bump(u, slope: bool):
    """b(u), or (b(u), b'(u)) when slope, elementwise: b(w) = exp(1 - 1/s)
    and b'(w) = -2w / s^2 * b(w), s = 1 - w^2, evaluated in place on every
    entry w, then set to zero on the entries not inside |w| < 1 (NaN is
    not inside).  Off the support the formulas overflow, divide by zero
    or read NaN without a warning; a block with every entry inside, as
    the callers on supp phi pass, is never masked.  A 0-d u gives 0-d
    results."""
    u = np.asarray(u, dtype=float)
    # ufuncs on the 1-d view return arrays, which the in-place steps need
    w = u.reshape(-1)
    with np.errstate(all="ignore"):
        s = np.multiply(w, w)
        np.subtract(1.0, s, out=s)
        b = np.divide(1.0, s)
        np.exp(np.subtract(1.0, b, out=b), out=b)
        if slope:
            db = np.multiply(w, -2.0)
            np.divide(db, np.multiply(s, s, out=s), out=db)
            np.multiply(db, b, out=db)
    out = (b, db) if slope else (b,)
    inside = np.abs(w) < 1.0
    if not inside.all():
        outside = np.logical_not(inside, out=inside)
        for r in out:
            np.copyto(r, 0.0, where=outside)
    out = tuple(r.reshape(u.shape) for r in out)
    return out if slope else out[0]


def bump(u):
    """Evaluate b(u) elementwise; zero outside (-1, 1)."""
    return _bump(u, slope=False)


def bump_pair(u):
    """(b(u), b'(u)) elementwise from one exponential, with
    b'(u) = -2u / (1 - u^2)^2 * b(u); the values are bitwise bump(u)."""
    return _bump(u, slope=True)


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
