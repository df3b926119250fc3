"""Numeric solving of zero-dimensional lex systems at high precision.

``solve_triangular`` walks a reduced lex basis from the last variable
forward: at each level every basis element that only involves the
remaining variables is specialized at the partial point, the lowest
degree nonzero univariate is solved, and every root spawns a branch.
A reduced zero-dimensional lex basis holds, for each variable x_i, a
monic x_i^k plus terms of lower x_i-degree in x_i..x_{n-1}; it sits at
level i and specializes to a monic univariate, so no level ever runs
out of polynomials. Other elements at a level may vanish at a partial
point and are then skipped.
Branches that fail the remaining specialized equations are pruned, and
every surviving point must reproduce the original system to the
residual tolerance, so the numeric filtering can only lose solutions,
never invent them. Basis elements in a single variable are replaced by
their exact square-free parts first, so root finding, simultaneous
iteration on all roots (mpmath's polyroots), never meets an exact
repeated root; a repeated root that only appears after numeric
specialization makes it fail with a SolverError. Every returned point
is tagged as coordinate-wise real or not.

Classification of fiducial solutions adds sign pairs v/-v with a
canonical representative, Weyl-Heisenberg orbits up to a global phase,
and, for d=4, matches against the four closed-form fiducial vectors
built from the golden ratio constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
import math
import operator

import mpmath

from .exact import upoly_mul, upoly_squarefree
from .groebner import quotient_dimension
from .polyring import Poly
from .sicgen import apply_weyl, fiducial_from_coords

__all__ = [
    "Tolerances",
    "SolutionPoint",
    "SolutionSet",
    "SolverError",
    "NotZeroDimensionalError",
    "BranchCapExceeded",
    "univariate_roots",
    "solve_triangular",
    "classify",
    "match_zauner",
    "zauner_vectors",
]


class SolverError(RuntimeError):
    pass


class NotZeroDimensionalError(SolverError):
    pass


class BranchCapExceeded(SolverError):
    pass


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds; residual and cluster are absolute, realness
    is relative per coordinate, match bounds phase-aligned distances."""

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
                    "tags": dict(sorted(p.tags.items())),
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
        precision = operator.index(obj["precision"])
        if precision < 53:
            raise ValueError(f"recorded precision {precision} is below 53 bits")
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
    return [(m, embed(c, precision)) for m, c in poly.terms]


def eval_embedded(terms, point):
    total = mpmath.mpc(0)
    for m, c in terms:
        acc = c
        for i, e in enumerate(m):
            if e:
                acc = acc * point[i] ** e
        total += acc
    return total


def _roots_numeric(coeffs, precision):
    """All roots of a numeric coefficient list (leading first)."""
    deg = len(coeffs) - 1
    if deg < 1:
        return []
    try:
        with mpmath.workprec(precision + 32):
            roots = mpmath.polyroots(
                coeffs, maxsteps=100 + precision // 2, extraprec=precision // 2
            )
    except mpmath.libmp.libhyper.NoConvergence as exc:
        raise SolverError(
            f"root finding did not converge on a degree {deg} polynomial "
            f"at {precision} bits"
        ) from exc
    with mpmath.workprec(precision):
        roots = [mpmath.mpc(r) for r in roots]
        roots.sort(key=lambda z: (z.real, z.imag))
        return roots


def _univ_coeffs(f, i):
    """Little-endian exact coefficients of f, a polynomial in x_i alone."""
    cs = [f.ring.field.zero()] * (f.total_degree() + 1)
    for m, c in f.terms:
        cs[m[i]] = c
    return cs


def univariate_roots(f, precision=256):
    """All complex roots of a univariate exact polynomial, with
    multiplicity, sorted by real part then imaginary part.

    Multiple roots are pulled out by exact squarefree decomposition so
    the numeric iteration only ever sees simple roots."""
    if f.ring.arity != 1:
        raise ValueError("univariate_roots needs a one-variable polynomial")
    if f.is_zero():
        raise ValueError("zero polynomial")
    embed = f.ring.field.embed
    roots = []
    for g, mult in upoly_squarefree(_univ_coeffs(f, 0)):
        with mpmath.workprec(precision + 32):
            coeffs = [embed(c, precision + 32) for c in reversed(g)]
        for r in _roots_numeric(coeffs, precision):
            roots.extend([r] * mult)
    with mpmath.workprec(precision):
        roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def _squarefree_part(p):
    """p itself, or, when p lies in one variable and has a repeated
    factor, the product of its square-free factors."""
    sup = p.support()
    if len(sup) != 1:
        return p
    (i,) = sup
    factors = upoly_squarefree(_univ_coeffs(p, i))
    if all(mult == 1 for _, mult in factors):
        return p
    part = [p.ring.field.one()]
    for g, _ in factors:
        part = upoly_mul(part, g)
    zero = (0,) * p.ring.arity
    return Poly(p.ring, [(zero[:i] + (k,) + zero[i + 1:], c)
                         for k, c in enumerate(part)])


# ---------------------------------------------------------------------------
# triangular back-substitution
# ---------------------------------------------------------------------------

def solve_triangular(gb, system_equations, precision=256, tol=None, max_points=None):
    """Numerically solve a zero-dimensional reduced lex basis.

    system_equations is the original generating system, with at least
    one nonzero equation; every returned point is validated against it,
    not just against the basis, and tagged ``real`` when every
    coordinate is real to tol.realness. Any other basis, the unreduced
    partial basis of an exhausted pair budget among them, raises
    ValueError.
    """
    tol = tol or Tolerances()
    if gb.order != "lex" or not gb.reduced:
        raise ValueError("solve_triangular needs a reduced lex basis")
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
    if qdim == 0:
        return SolutionSet([], precision, tol)
    cap = max_points if max_points is not None else max(10 * qdim, 16)
    arity = gb.ring.arity

    # an element in one variable has the same zeros as its square-free
    # part, which gives polyroots simple roots only
    by_level = [[] for _ in range(arity)]
    for p in gb.basis:
        sup = p.support()
        if sup:
            by_level[min(sup)].append(_squarefree_part(p))

    work = precision + 48
    with mpmath.workprec(work):
        level_terms = [
            [_embedded_terms(p, work) for p in polys] for polys in by_level
        ]
        sys_terms = [_embedded_terms(q, work) for q in system_equations]
        zero_floor = mpmath.mpf(2) ** (-(precision + 16))
        branch_rel = mpmath.mpf("1e-6")

        raw_points = []

        def specialize(terms, i, tail):
            # coefficient list of the univariate in x_i, leading first
            deg = max(m[i] for m, _ in terms)
            coeffs = [mpmath.mpc(0)] * (deg + 1)
            for m, c in terms:
                acc = c
                for j in range(i + 1, arity):
                    e = m[j]
                    if e:
                        acc = acc * tail[j] ** e
                coeffs[deg - m[i]] += acc
            return coeffs

        def trim(coeffs):
            mx = max(abs(c) for c in coeffs)
            if mx <= zero_floor:
                return None
            cut = mx * mpmath.mpf(2) ** (-(precision - 16))
            k = 0
            while k < len(coeffs) - 1 and abs(coeffs[k]) <= cut:
                k += 1
            return coeffs[k:]

        def descend(i, tail):
            if i < 0:
                if len(raw_points) >= cap:
                    raise BranchCapExceeded(
                        f"more than {cap} candidate points"
                    )
                raw_points.append(tuple(tail))
                return
            specs = [
                trim(specialize(terms, i, tail)) for terms in level_terms[i]
            ]
            best = None
            for coeffs in specs:
                if coeffs is None or len(coeffs) < 2:
                    continue
                if best is None or len(coeffs) < len(best):
                    best = coeffs
            if best is None:
                # only nonzero constants survive; the monic element rules
                # this out exactly, so only rounding can get here
                return
            for r in _roots_numeric(best, work):
                ok = True
                for coeffs in specs:
                    if coeffs is None or coeffs is best:
                        continue
                    val = mpmath.mpc(0)
                    scale = mpmath.mpf(0)
                    for c in coeffs:
                        val = val * r + c
                        scale = scale * abs(r) + abs(c)
                    if abs(val) > branch_rel * (scale + 1):
                        ok = False
                        break
                if ok:
                    tail[i] = r
                    descend(i - 1, tail)
                    tail[i] = mpmath.mpc(0)

        descend(arity - 1, [mpmath.mpc(0)] * arity)

        # residuals against the original system
        survivors = []
        for pt in raw_points:
            res = mpmath.mpf(0)
            for terms in sys_terms:
                res = max(res, abs(eval_embedded(terms, pt)))
            if res <= tol.residual:
                survivors.append(SolutionPoint(pt, res))

        # cluster within tol.cluster and order deterministically
        survivors.sort(
            key=lambda p: tuple(x for c in p.coords for x in (c.real, c.imag))
        )
        clustered = []
        for p in survivors:
            if clustered and _point_dist(clustered[-1].coords, p.coords) <= tol.cluster:
                continue
            clustered.append(p)
    with mpmath.workprec(precision):
        for p in clustered:
            p.tags["real"] = _is_real_point(p.coords, tol.realness)
    return SolutionSet(clustered, precision, tol)


def _point_dist(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


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
    with mpmath.workprec(solset.precision):
        pts = solset.points
        for p in pts:
            p.tags["real"] = _is_real_point(p.coords, tol.realness)
            p.tags["sign_canonical"] = (
                _sign_canonical(p.coords, tol.match) if p.tags["real"] else False
            )
            p.tags["orbit_id"] = None
        reps = []
        for p in pts:
            if not p.tags["real"]:
                continue
            v = fiducial_from_coords(p.coords)
            assigned = None
            for orbit_id, vr in reps:
                for a in range(d):
                    if assigned is not None:
                        break
                    for b in range(d):
                        w = apply_weyl(vr, (a, b))
                        if _phase_distance(v, w) <= tol.match:
                            assigned = orbit_id
                            break
                if assigned is not None:
                    break
            if assigned is None:
                assigned = len(reps)
                reps.append((assigned, v))
            p.tags["orbit_id"] = assigned
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
