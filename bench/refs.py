"""Independent references for the benchmark's output checks.

Nothing here calls into eqlines: overlaps, polynomial evaluation,
determinants and spectra are recomputed from their definitions with
Fractions, mpmath and numpy, so a defect in the library cannot also
hide in its own check.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np


def wh_overlap_sq(v, a, b):
    """|<v, V^a U^b v>|^2 / |v|^4 with (V^a U^b v)_k = w^(b(a+k)) v_(a+k mod d)
    and w = exp(2 pi i / d), at the current mpmath precision."""
    d = len(v)
    w = mpmath.expjpi(mpmath.mpf(2) / d)
    shifted = [w ** ((b * (a + k)) % d) * v[(a + k) % d] for k in range(d)]
    ip = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(v, shifted))
    norm2 = mpmath.fsum(abs(x) ** 2 for x in v)
    return abs(ip) ** 2 / norm2 ** 2


def embed(coeff):
    """A Fraction, or a cyclotomic number given by its conductor ``n`` and
    power-basis ``coeffs``, as an mpmath complex number."""
    if hasattr(coeff, "coeffs"):
        z = mpmath.expjpi(mpmath.mpf(2) / coeff.n)
        return mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * z ** k
            for k, c in enumerate(coeff.coeffs)
        )
    q = Fraction(coeff)
    return mpmath.mpc(mpmath.mpf(q.numerator) / q.denominator)


def eval_terms(terms, point):
    """(value, scale) of a polynomial given as (exponents, coefficient)
    terms at ``point``; scale is the sum of the term magnitudes, the
    yardstick for rounding error."""
    value = mpmath.mpc(0)
    scale = mpmath.mpf(0)
    for mono, coeff in terms:
        t = embed(coeff)
        for x, e in zip(point, mono):
            if e:
                t *= x ** e
        value += t
        scale += abs(t)
    return value, scale


def frac_det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def frac_inverse(rows):
    """Exact inverse of a square integer or rational matrix."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k])
        m[k], m[p] = m[p], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def seidel_admissible(signs, d, cluster=1e-6):
    """Admissible angles of a sign pattern from its spectrum.

    det(I + alpha*S) = prod(1 + alpha*lambda_i), so every eigenvalue
    lambda < -1 of S gives the root alpha = -1/lambda in (0, 1) with the
    eigenvalue's multiplicity; it is admissible when that multiplicity
    is at least N - d. Returns sorted (alpha, multiplicity) pairs.
    """
    s = np.array(signs, dtype=float)
    n = s.shape[0]
    evals = np.sort(np.linalg.eigvalsh(s))
    groups = []
    for x in evals:
        if groups and x - groups[-1][-1] <= cluster:
            groups[-1].append(x)
        else:
            groups.append([x])
    out = []
    for g in groups:
        lam = float(np.mean(g))
        if lam < -1 and len(g) >= n - d:
            out.append((-1.0 / lam, len(g)))
    return sorted(out)
