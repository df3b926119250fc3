"""Numeric solving of zero-dimensional lex systems at high precision.

``solve_triangular`` first takes the radical of the ideal of a reduced
lex basis, once. When the basis element in x_{n-1} alone has a
square-free part of degree qdim, the ideal has qdim points and is
radical. Otherwise the minimal polynomial of each x_i modulo the ideal
comes from eliminating the normal forms of 1, x_i, x_i^2, ... over the
field, and the square-free parts of those with a repeated factor join
the ideal in one Buchberger run; by Seidenberg's lemma (A. Seidenberg,
"Constructions in algebra", Trans. AMS 197, 1974; Kreuzer and
Robbiano, Computational Commutative Algebra 1, Cor. 3.7.16) the result
is radical, with the same zeros.

The descent then walks the basis from the last variable forward. At
each level every element that only involves the remaining variables is
specialized at the partial point, and each root of the lowest degree
nonzero univariate spawns a branch. For each x_i the basis holds a
monic x_i^k plus terms of lower x_i-degree in x_i..x_{n-1}, so no level
runs out of polynomials; elements that vanish at a point are skipped.
By the Gianni-Kalkbrener theorem (P. Gianni, "Properties of Groebner
bases under specializations"; M. Kalkbrener, "Solving systems of
algebraic equations by using Groebner bases"; both EUROCAL '87, LNCS
378) that univariate is, up to a scalar, the gcd of the level's
specializations, and it is square-free, since every fibre of a radical
ideal is radical. So root finding (mpmath's polyroots) meets no
multiple root on exact input and the descent makes one candidate per
point; a root within tol.cluster of one already taken at its level,
which only rounding can make, spawns no branch, and root finding that
does not converge raises a SolverError naming the degree and the
precision asked for.
The descent is a loop over an explicit stack of (level, partial point)
pairs, each level pushing its kept roots in reverse, so branches run
depth first, first root first; it builds no reference cycle, so
reference counting frees all a solve allocates when it returns. Every
candidate must reproduce the original system to the residual
tolerance, so the numeric filtering can only lose solutions, never
invent them; every returned point is tagged coordinate-wise real or
not.

Classification of fiducial solutions adds sign pairs v/-v with a
canonical representative, Weyl-Heisenberg orbits up to a global phase,
and, for d=4, matches against the four closed-form fiducial vectors
built from the golden ratio constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
import math

import mpmath

from .exact import _upoly_exquo, as_int, upoly_deriv, upoly_gcd, upoly_sub
from .groebner import buchberger, quotient_dimension
from .polyring import Poly, eval_terms, reduce_poly
from .sicgen import apply_weyl, fiducial_from_coords

__all__ = [
    "Tolerances",
    "SolutionPoint",
    "SolutionSet",
    "SolverError",
    "NotZeroDimensionalError",
    "solve_triangular",
    "classify",
    "match_zauner",
    "zauner_vectors",
]


# the fewest bits a solve runs at and a solutions file records; at 16
# bits or fewer the trim cut reaches the largest coefficient of every
# specialization, and the descent finds no point
_MIN_PRECISION = 53

# the bits the descent works above the precision asked for
_GUARD_BITS = 48


class SolverError(ValueError):
    """The solver cannot solve its input; the CLI exits 2 on it."""


class NotZeroDimensionalError(SolverError):
    pass


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds; residual and cluster are absolute, realness
    is relative per coordinate, match bounds phase-aligned distances.
    cluster bounds the distance between two roots at one level of the
    descent that are taken as copies of one multiple root."""

    residual: float = 1e-10
    cluster: float = 1e-25
    realness: float = 1e-20
    match: float = 1e-10

    def __post_init__(self):
        for name, v in asdict(self).items():
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(
                    f"tolerance {name} must be positive and finite, not {v!r}"
                )

    def to_json(self):
        return {k: repr(v) for k, v in asdict(self).items()}

    @classmethod
    def from_json(cls, obj):
        for k, v in obj.items():
            if isinstance(v, bool):
                raise TypeError(f"tolerance {k} is a bool, not a number")
        return cls(**{k: float(v) for k, v in obj.items()})


@dataclass
class SolutionPoint:
    coords: tuple
    residual: object
    tags: dict = field(default_factory=dict)


@dataclass
class SolutionSet:
    points: list
    precision: int
    tolerances: Tolerances

    def counts(self):
        """Summary recomputed from the point tags on every call."""
        total = len(self.points)
        real_pts = [p for p in self.points if p.tags.get("real")]
        out = {
            "total": total,
            "real": len(real_pts),
            "real_up_to_sign": sum(
                1 for p in real_pts if p.tags.get("sign_canonical")
            ),
        }
        orbit_ids = {
            p.tags["orbit_id"]
            for p in self.points
            if p.tags.get("orbit_id") is not None
        }
        has_orbit_info = any("orbit_id" in p.tags for p in self.points)
        out["orbits"] = len(orbit_ids) if has_orbit_info else None
        has_zauner_info = any("zauner_match" in p.tags for p in self.points)
        out["zauner"] = (
            sum(1 for p in self.points if p.tags.get("zauner_match"))
            if has_zauner_info
            else None
        )
        return out

    def to_json(self):
        dps = _dps(self.precision)
        pts = []
        for p in self.points:
            coords = [
                [mpmath.nstr(c.real, dps), mpmath.nstr(c.imag, dps)]
                for c in p.coords
            ]
            pts.append(
                {
                    "coords": coords,
                    "residual": mpmath.nstr(p.residual, 8),
                    "tags": dict(p.tags),
                }
            )
        return {
            "format": "solutions",
            "precision": self.precision,
            "tolerances": self.tolerances.to_json(),
            "points": pts,
            "counts": self.counts(),
        }

    @classmethod
    def from_json(cls, obj):
        if obj.get("format") != "solutions":
            raise ValueError("not a solutions file")
        precision = as_int(obj["precision"])
        if precision < _MIN_PRECISION:
            raise ValueError(
                f"recorded precision {precision} is below {_MIN_PRECISION} bits"
            )
        with mpmath.workprec(precision):
            points = []
            for p in obj["points"]:
                coords = tuple(
                    mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
                    for re, im in p["coords"]
                )
                points.append(
                    SolutionPoint(
                        coords, mpmath.mpf(p["residual"]), dict(p["tags"])
                    )
                )
        return cls(points, precision, Tolerances.from_json(obj["tolerances"]))


def _dps(prec):
    return int(prec * 0.30103) + 6


# ---------------------------------------------------------------------------
# numeric polynomial plumbing
# ---------------------------------------------------------------------------

def _embedded_terms(poly, precision):
    embed = poly.ring.field.embed
    return [(m, embed(c, precision)) for m, c in zip(poly.monos, poly.coeffs)]


def _roots_numeric(coeffs, precision, guard=_GUARD_BITS):
    """All roots, to precision + guard bits, of a numeric coefficient
    list (leading first) of degree at least 1; a failure names the
    precision asked for."""
    deg = len(coeffs) - 1
    work = precision + guard
    try:
        with mpmath.workprec(work + 32):
            roots = mpmath.polyroots(
                coeffs, maxsteps=100 + work // 2, extraprec=work // 2
            )
    except mpmath.libmp.libhyper.NoConvergence as exc:
        raise SolverError(
            f"root finding did not converge on a degree {deg} polynomial "
            f"at {precision} bits"
        ) from exc
    with mpmath.workprec(work):
        return [mpmath.mpc(r) for r in roots]


def _univ_coeffs(f, i):
    """Little-endian exact coefficients of f, a polynomial in x_i alone."""
    cs = [f.ring.field.zero()] * (f.total_degree() + 1)
    for m, c in zip(f.monos, f.coeffs):
        cs[m[i]] = c
    return cs


def _squarefree(f):
    """The monic square-free part f / gcd(f, f') of a nonzero
    little-endian coefficient list."""
    return _upoly_exquo(f, upoly_gcd(f, upoly_deriv(f)))


def _minimal_polynomial(gb, i):
    """Little-endian monic minimal polynomial of x_i modulo the ideal of
    gb: the normal forms of 1, x_i, x_i^2, ... are eliminated over the
    field, in order, until one is a combination of those before it."""
    x = Poly.variable(gb.ring, i)
    rows = []  # (pivot monomial, eliminated monic normal form, combination)
    nf = reduce_poly(Poly.one(gb.ring), gb.basis, "lex")
    while True:
        vec, comb = nf, [0] * len(rows) + [1]
        for pivot, row, rcomb in rows:
            c = dict(zip(vec.monos, vec.coeffs)).get(pivot)
            if c:
                vec = vec - c * row
                comb = upoly_sub(comb, [c * r for r in rcomb])
        if not vec:
            return comb
        inv = 1 / vec.coeffs[0]
        rows.append((vec.monos[0], inv * vec, [inv * r for r in comb]))
        nf = reduce_poly(nf * x, gb.basis, "lex")


def _radical(gb, qdim):
    """The reduced lex basis of the radical of gb's ideal, gb itself when
    that ideal is radical; see the module docstring."""
    n = gb.ring.arity
    # the element with the least leading monomial lies in x_{n-1} alone
    last = _univ_coeffs(min(gb.basis, key=lambda p: p.monos[0]), n - 1)
    if len(_squarefree(last)) - 1 == qdim:
        return gb
    parts = []
    for i in range(n):
        f = last if i == n - 1 else _minimal_polynomial(gb, i)
        part = _squarefree(f)
        if len(part) < len(f):
            x = Poly.variable(gb.ring, i)
            parts.append(sum(c * x ** k for k, c in enumerate(part)))
    return buchberger([*gb.basis, *parts], "lex") if parts else gb


# ---------------------------------------------------------------------------
# triangular back-substitution
# ---------------------------------------------------------------------------

def _specialize(terms, i, tail):
    """Coefficient list, leading first, of the univariate in x_i that
    the embedded terms become at the partial point tail = x_{i+1}.."""
    deg = max(m[i] for m, _ in terms)
    coeffs = [mpmath.mpc(0)] * (deg + 1)
    for m, c in terms:
        acc = c
        for e, x in zip(m[i + 1:], tail):
            if e:
                acc = acc * x ** e
        coeffs[deg - m[i]] += acc
    return coeffs


def _trim(coeffs, precision):
    """coeffs without the leading entries lost in rounding next to the
    largest one, or None when all of them are."""
    mx = max(abs(c) for c in coeffs)
    if mx <= mpmath.ldexp(1, -(precision + 16)):
        return None
    cut = mpmath.ldexp(mx, -(precision - 16))
    k = 0
    while k < len(coeffs) - 1 and abs(coeffs[k]) <= cut:
        k += 1
    return coeffs[k:]


def _sort_key(coords, precision):
    """The real and imaginary part of each coordinate in turn, each
    rounded to a multiple of 2^-(precision-16), so that rounding noise
    next to a value cannot decide the order of two points."""
    return tuple(int(mpmath.nint(mpmath.ldexp(x, precision - 16)))
                 for c in coords for x in (c.real, c.imag))


def solve_triangular(gb, system_equations, precision=256, tol=None):
    """Numerically solve the zero-dimensional ideal of a lex basis.

    gb is a GroebnerBasis, hence reduced; one under another order
    raises ValueError, and so does a precision below 53 bits.
    system_equations is the original generating system, with at least
    one nonzero equation; every returned point is validated against it,
    not just against the basis, and tagged ``real`` when every
    coordinate is real to tol.realness. The descent runs on the basis
    of the radical of gb's ideal, so each point comes back once, and at
    most one Buchberger run builds it.
    """
    tol = tol or Tolerances()
    if precision < _MIN_PRECISION:
        raise ValueError(
            f"precision {precision} is below {_MIN_PRECISION} bits"
        )
    if gb.order != "lex":
        raise ValueError("solve_triangular needs a lex basis")
    if any(q.ring.arity != gb.ring.arity for q in system_equations):
        raise ValueError(
            "system and basis disagree on the number of variables"
        )
    if not any(system_equations):
        raise ValueError(
            "the system has no nonzero equation to validate points against"
        )
    qdim = quotient_dimension(gb)
    if qdim == math.inf:
        raise NotZeroDimensionalError("ideal is not zero-dimensional")
    gb = _radical(gb, qdim)
    arity = gb.ring.arity
    by_level = [[] for _ in range(arity)]
    for p in gb.basis:
        sup = p.support()
        if sup:
            by_level[min(sup)].append(p)

    work = precision + _GUARD_BITS
    with mpmath.workprec(work):
        level_terms = [
            [_embedded_terms(p, work) for p in polys] for polys in by_level
        ]
        sys_terms = [_embedded_terms(q, work) for q in system_equations]

        raw_points = []
        # depth first, first root first: each level's kept roots are
        # pushed in reverse; a partial point holds x_{i+1}..x_{n-1}
        stack = [(arity - 1, ())]
        while stack:
            i, tail = stack.pop()
            if i < 0:
                raw_points.append(tail)
                continue
            specs = [
                _trim(_specialize(terms, i, tail), precision)
                for terms in level_terms[i]
            ]
            best = min((c for c in specs if c is not None and len(c) > 1),
                       key=len, default=None)
            if best is None:
                # the basis is {1} and the variety empty; with the monic
                # element at this level, only rounding can get here
                continue
            taken = []
            for r in _roots_numeric(best, precision):
                # copies of a multiple root make one branch
                if not any(abs(r - t) <= tol.cluster for t in taken):
                    taken.append(r)
            stack.extend((i - 1, (r, *tail)) for r in reversed(taken))

        # residuals against the original system
        survivors = []
        for pt in raw_points:
            res = mpmath.mpf(0)
            for terms in sys_terms:
                res = max(res, abs(eval_terms(terms, pt, mpmath.mpc(0))))
            if res <= tol.residual:
                survivors.append(SolutionPoint(pt, res))

        # order deterministically; ties keep the depth-first order
        survivors.sort(key=lambda p: _sort_key(p.coords, precision))
    with mpmath.workprec(precision):
        for p in survivors:
            p.tags["real"] = _is_real_point(p.coords, tol.realness)
    return SolutionSet(survivors, precision, tol)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _is_real_point(coords, realness):
    return all(
        abs(c.imag) <= realness * max(1, abs(c)) for c in coords
    )


def _sign_canonical(coords, thresh):
    for c in coords:
        if abs(c.real) > thresh:
            return c.real > 0
    return True


def _phase_distance(v, w):
    """min over unit phases of max|v - phase*w|; assumes unit vectors."""
    ip = mpmath.mpc(0)
    for x, y in zip(v, w):
        ip += x * mpmath.conj(y)
    mag = abs(ip)
    if mag == 0:
        return mpmath.mpf(2)
    phase = ip / mag
    return max(abs(x - phase * y) for x, y in zip(v, w))


def classify(solset, d):
    """Tag realness, sign pairs, and Weyl-Heisenberg orbits in place,
    and for d=4 the closed-form fiducials (match_zauner).

    Orbit grouping applies to coordinate-wise real points of a
    fiducial system: two points share an orbit when some displacement
    maps one fiducial vector to the other up to a global phase.
    """
    tol = solset.tolerances
    reps = []
    with mpmath.workprec(solset.precision):
        for p in solset.points:
            real = _is_real_point(p.coords, tol.realness)
            p.tags["real"] = real
            p.tags["sign_canonical"] = (
                real and _sign_canonical(p.coords, tol.match))
            p.tags["orbit_id"] = None
            if not real:
                continue
            v = fiducial_from_coords(p.coords)
            # the first orbit with a displacement of its representative
            # that is v up to a global phase, or a new orbit
            orbit = next((
                k for k, vr in enumerate(reps)
                if any(_phase_distance(v, apply_weyl(vr, (a, b))) <= tol.match
                       for a in range(d) for b in range(d))
            ), len(reps))
            if orbit == len(reps):
                reps.append(v)
            p.tags["orbit_id"] = orbit
    if d == 4:
        match_zauner(solset)
    return solset


def zauner_vectors(precision=256):
    """The four closed-form d=4 fiducial vectors.

    With X = sqrt(3 - 3/sqrt(5))/2, Y = sqrt(1 + 3/sqrt(5))/2 and the
    orthonormal pair
    psi_a = (w+1, i, w-1, i)/sqrt(6), psi_b = (0, 1, 0, -1)/sqrt(2),
    w = exp(i*pi/4), the vectors are
    exp(-i*pi/8) * (X*psi_a + w^k * Y*psi_b) for k in {1, 3, 5, 7}.
    """
    with mpmath.workprec(precision + 32):
        s5 = mpmath.sqrt(5)
        X = mpmath.sqrt(3 - 3 / s5) / 2
        Y = mpmath.sqrt(1 + 3 / s5) / 2
        w = mpmath.expjpi(mpmath.mpf(1) / 4)
        iu = mpmath.mpc(0, 1)
        r6 = mpmath.sqrt(6)
        r2 = mpmath.sqrt(2)
        psi_a = [(w + 1) / r6, iu / r6, (w - 1) / r6, iu / r6]
        psi_b = [mpmath.mpc(0), 1 / r2, mpmath.mpc(0), -1 / r2]
        pref = mpmath.expjpi(mpmath.mpf(-1) / 8)
        vecs = []
        for k in (1, 3, 5, 7):
            wk = w ** k
            vecs.append(
                [pref * (X * pa + wk * Y * pb) for pa, pb in zip(psi_a, psi_b)]
            )
        return vecs


def match_zauner(solset):
    """Tag solutions matching a closed-form d=4 fiducial up to phase.

    Only the canonical representative of each sign pair is tagged, so
    the tag count equals the number of matched fiducials up to sign.
    """
    tol = solset.tolerances
    if any(len(p.coords) != 8 for p in solset.points):
        raise ValueError("zauner matching applies to d=4 solutions")
    targets = zauner_vectors(solset.precision)
    with mpmath.workprec(solset.precision):
        for p in solset.points:
            hit = False
            if (_is_real_point(p.coords, tol.realness)
                    and _sign_canonical(p.coords, tol.match)):
                v = fiducial_from_coords(p.coords)
                hit = any(
                    _phase_distance(v, vk) <= tol.match for vk in targets
                )
            p.tags["zauner_match"] = hit
    return solset
