"""Polynomial systems whose real solutions are equiangular line sets.

Three families are generated, all with exact coefficients.

complex_full
    d*d unit vectors in C^d written as A_jk + i*B_jk, one equation
    |<u_j, u_l>|^2 = 1/(d+1) per unordered pair plus norm equations,
    in 2*d^3 real variables. Huge, but fully general.

wh_fiducial
    A single fiducial vector v = (x_0 + i*x_d, ..., x_(d-1) + i*x_(2d-1))
    whose Weyl-Heisenberg orbit is required to be equiangular. The
    displacement V^a U^b acts by (V^a U^b v)_k = w^(b(a+k)) v_(a+k mod d)
    with w = exp(2*pi*i/d). The overlap of v with V^a U^b v, its
    conjugate and its squared modulus are

        o_ab       = <V^a U^b v, v> = sum_k w^(b(a+k)) v_(a+k) conj(v_k),
        conj(o_ab) = sum_k w^(-b(a+k)) conj(v_(a+k)) v_k,
        p_ab       = o_ab * conj(o_ab),

    with conj(v_k) = x_k - i*x_(d+k) and indices mod d. Both i and w are
    powers of zeta_lcm(4,d), so each p_ab is an exact polynomial in the
    real variables x_0, ..., x_(2d-1).

    Equations: p_00 = 1, p_ab = 1/(d+1) otherwise. Coefficients live in
    Q(zeta_lcm(4,d)) and are moved down to Q when they are all rational.
    Coinciding equations are merged and the classes recorded. The phase
    fix appends the polynomial x_d (the imaginary part of v_0), pinning
    the global phase so the first coordinate of v is real.

real_lines
    N unit vectors in R^d with |<u_j, u_l>| = alpha: equations
    C_jl^2 = alpha^2 off the diagonal and C_jl^2 = 1 on it, where
    C_jl = sum_k u_jk u_lk. With a sign matrix, checked as a SeidelSpec
    (symmetric, zero diagonal, +-1 off it), the stronger linear variant
    C_jl = s_jl * alpha is emitted instead. A symbolic alpha becomes the
    last ring variable. The sign patterns of the hexagon and the
    icosahedron are built in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .exact import QQ, CycloField, as_int, cyclo_root_of_unity
from .polyring import Poly, Ring, rehome

__all__ = [
    "SYSTEM_KINDS",
    "PolySystem",
    "gen_complex_full",
    "gen_wh_system",
    "gen_real_system",
    "apply_weyl",
    "fiducial_from_coords",
    "SeidelSpec",
    "seidel_hexagon",
    "seidel_icosahedron",
]

# the kind of every system a generator here makes, which a system or
# solutions file records
SYSTEM_KINDS = ("wh_fiducial", "complex_full", "real_lines")


@dataclass(frozen=True)
class PolySystem:
    kind: str
    d: int
    n_lines: int
    ring: Ring
    equations: tuple
    labels: tuple
    rhs: dict
    merged: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.equations) != len(self.labels):
            raise ValueError("labels and equations must align")

    def to_json(self):
        meta = {
            "rhs": dict(self.rhs),
            "merged_classes": {k: [list(ab) for ab in v] for k, v in self.merged.items()},
        }
        meta.update(self.extra)
        return {
            "format": "polysystem",
            "kind": self.kind,
            "d": self.d,
            "n_lines": self.n_lines,
            **self.ring.to_json(),
            "labels": list(self.labels),
            "equations": [eq.terms_to_json() for eq in self.equations],
            "metadata": meta,
        }

    @classmethod
    def from_json(cls, obj):
        if obj.get("format") != "polysystem":
            raise ValueError("not a polysystem file")
        ring = Ring.from_json(obj)
        eqs = tuple(
            Poly.terms_from_json(t, ring) for t in obj["equations"]
        )
        meta = dict(obj.get("metadata", {}))
        rhs = meta.pop("rhs", {})
        merged = {
            k: tuple(tuple(ab) for ab in v)
            for k, v in meta.pop("merged_classes", {}).items()
        }
        kind = obj["kind"]
        d, n = as_int(obj["d"]), as_int(obj["n_lines"])
        if d < 1 or n < 1:
            raise ValueError("d and n_lines must be positive")
        if kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {kind!r}")
        # (variables, lines) of each kind; a symbolic alpha is the last
        # variable of a real system
        shapes = {
            "wh_fiducial": (2 * d, d * d),
            "complex_full": (2 * d ** 3, d * d),
            "real_lines": (n * d + (ring.vars[-1:] == ("alpha",)), n),
        }
        if (ring.arity, n) != shapes[kind]:
            raise ValueError(
                f"a {kind} system in d={d} has {shapes[kind][0]} variables "
                f"and {shapes[kind][1]} lines, not {ring.arity} and {n}"
            )
        return cls(
            kind=kind,
            d=d,
            n_lines=n,
            ring=ring,
            equations=eqs,
            labels=tuple(obj["labels"]),
            rhs=rhs,
            merged=merged,
            extra=meta,
        )


def _pair_system(kind, d, n, ring, equation, extra):
    """The system of one equation per pair j <= l of n lines, labelled
    p_j_l, where equation(j, l) gives the polynomial and its rhs text."""
    pairs = [(j, l) for j in range(1, n + 1) for l in range(j, n + 1)]
    labels = tuple(f"p_{j}_{l}" for j, l in pairs)
    equations, texts = zip(*(equation(j, l) for j, l in pairs))
    return PolySystem(kind=kind, d=d, n_lines=n, ring=ring,
                      equations=equations, labels=labels,
                      rhs=dict(zip(labels, texts)), extra=extra)


# ---------------------------------------------------------------------------
# complex, all lines at once
# ---------------------------------------------------------------------------

def gen_complex_full(d):
    """Defining system for d^2 equiangular unit vectors in C^d."""
    if d < 1:
        raise ValueError("d must be positive")
    nvec = d * d
    names = [f"A_{j}_{k}" for j in range(1, nvec + 1) for k in range(1, d + 1)]
    names += [f"B_{j}_{k}" for j in range(1, nvec + 1) for k in range(1, d + 1)]
    ring = Ring(tuple(names), QQ)

    def A(j, k):
        return Poly.variable(ring, (j - 1) * d + (k - 1))

    def B(j, k):
        return Poly.variable(ring, nvec * d + (j - 1) * d + (k - 1))

    offdiag = Fraction(1, d + 1)

    def equation(j, l):
        C = D = Poly.zero(ring)
        for k in range(1, d + 1):
            C = C + A(j, k) * A(l, k) + B(j, k) * B(l, k)
            D = D + B(j, k) * A(l, k) - A(j, k) * B(l, k)
        target = 1 if j == l else offdiag
        return C * C + D * D - target, str(target)

    return _pair_system("complex_full", d, nvec, ring, equation, {})


# ---------------------------------------------------------------------------
# Weyl-Heisenberg covariant case
# ---------------------------------------------------------------------------

def gen_wh_system(d, phase_fix=True):
    """Fiducial vector system for a Weyl-Heisenberg covariant line set."""
    if d < 1:
        raise ValueError("d must be positive")
    n = lcm(4, d)
    cyclo = CycloField(n)
    ring = Ring(tuple(f"x{i}" for i in range(2 * d)), cyclo)
    x = [Poly.variable(ring, j) for j in range(2 * d)]
    i = cyclo_root_of_unity(n, n // 4)
    w = [cyclo_root_of_unity(n, (n // d) * e) for e in range(d)]
    v = [x[k] + x[d + k] * i for k in range(d)]
    vbar = [x[k] - x[d + k] * i for k in range(d)]

    pairs = [(a, b) for a in range(d) for b in range(d)]
    offdiag = Fraction(1, d + 1)

    def overlaps():
        """p_ab - rhs for each pair in turn, built only when asked for."""
        for a, b in pairs:
            o = obar = Poly.zero(ring)
            for k in range(d):
                j = (a + k) % d
                o = o + v[j] * vbar[k] * w[b * j % d]
                obar = obar + vbar[j] * v[k] * w[-b * j % d]
            yield o * obar - (1 if (a, b) == (0, 0) else offdiag)

    # each product shares its coefficients as soon as it is built; each
    # distinct equation maps to the pairs whose overlap it is, in order,
    # and is labelled by the first of them
    classes = {}
    for ab, eq in zip(pairs, rehome(overlaps(), ring)):
        classes.setdefault(eq, []).append(ab)
    merged = {"p_{}_{}".format(*cls[0]): tuple(cls) for cls in classes.values()}
    rhs = {"phase": "0"} if phase_fix else {}
    for label, cls in merged.items():
        rhs[label] = "1" if cls[0] == (0, 0) else str(offdiag)
    equations = [Poly.variable(ring, d)] if phase_fix else []
    equations += classes

    # a fresh ring, over Q when it can be, whose monomial table holds
    # only the equations' monomials, and one instance per coefficient
    # value across the equations: d=5 has 20 values among 1639 terms
    target = cyclo
    if all(isinstance(c, Fraction) for q in equations for c in q.coeffs):
        target = QQ
    out = Ring(ring.vars, target)
    return PolySystem(
        kind="wh_fiducial",
        d=d,
        n_lines=d * d,
        ring=out,
        equations=tuple(rehome(equations, out)),
        labels=tuple(rhs),
        rhs=rhs,
        merged=merged,
        extra={"phase_fix": bool(phase_fix)},
    )


def apply_weyl(v, ab):
    """Numeric displacement V^a U^b of a vector, at current mp precision.

    ``ab`` is the pair (a, b) of integers, taken mod d; entries of v may
    be any complex type mpmath understands.
    """
    import mpmath

    a, b = ab
    d = len(v)
    a %= d
    b %= d
    out = []
    for k in range(d):
        e = (b * (a + k)) % d
        phase = mpmath.expjpi(mpmath.mpf(2 * e) / d) if e else mpmath.mpf(1)
        out.append(phase * v[(a + k) % d])
    return out


def fiducial_from_coords(coords):
    """Coordinate vector (x_0..x_(2d-1)) -> complex vector in C^d."""
    import mpmath

    if len(coords) % 2:
        raise ValueError("need an even number of coordinates")
    d = len(coords) // 2
    return [
        mpmath.mpc(coords[j]) + mpmath.mpc(0, 1) * mpmath.mpc(coords[d + j])
        for j in range(d)
    ]


# ---------------------------------------------------------------------------
# real equiangular lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeidelSpec:
    """Sign pattern of a real equiangular line set.

    signs is symmetric with zero diagonal and +-1 off the diagonal;
    the Gram matrix of the lines at angle alpha is I + alpha*signs.
    """

    N: int
    signs: tuple

    def __init__(self, signs):
        rows = tuple(tuple(map(as_int, row)) for row in signs)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("sign matrix must be N x N")
        for j in range(n):
            if rows[j][j] != 0:
                raise ValueError("sign matrix diagonal must be zero")
            for l in range(n):
                if j != l and rows[j][l] not in (1, -1):
                    raise ValueError("off-diagonal signs must be +1 or -1")
                if rows[j][l] != rows[l][j]:
                    raise ValueError("sign matrix must be symmetric")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "signs", rows)

    def to_json(self):
        return {"signs": [list(r) for r in self.signs]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["signs"])


def seidel_hexagon():
    """Sign pattern of three coplanar lines at sixty degrees."""
    return SeidelSpec([
        [0, 1, 1],
        [1, 0, -1],
        [1, -1, 0],
    ])


def seidel_icosahedron():
    """Sign pattern of the six diagonals of a regular icosahedron."""
    m = [[0] * 6 for _ in range(6)]
    neg = {(1, 6), (2, 3), (2, 4), (2, 6), (4, 5), (4, 6)}
    for j in range(6):
        for l in range(j + 1, 6):
            s = -1 if (j + 1, l + 1) in neg else 1
            m[j][l] = s
            m[l][j] = s
    return SeidelSpec(m)


def gen_real_system(d, N, alpha=None, signs=None):
    """System for N unit vectors in R^d pairwise at angle arccos(alpha).

    alpha may be a Fraction (fixed common angle) or None, in which case
    a variable named alpha is appended to the ring. With ``signs``, an
    N x N sign matrix checked as a SeidelSpec, the sign-resolved linear
    variant replaces the squared equations.
    """
    if d < 1 or N < 1:
        raise ValueError("d and N must be positive")
    if signs is not None:
        signs = SeidelSpec(signs).signs
        if len(signs) != N:
            raise ValueError("sign matrix must be N x N")
    names = [f"u_{j}_{k}" for j in range(1, N + 1) for k in range(1, d + 1)]
    symbolic = alpha is None
    if symbolic:
        names.append("alpha")
    else:
        alpha = Fraction(alpha)
    ring = Ring(tuple(names), QQ)

    def u(j, k):
        return Poly.variable(ring, (j - 1) * d + (k - 1))

    a = Poly.variable(ring, N * d) if symbolic else alpha

    def equation(j, l):
        C = Poly.zero(ring)
        for k in range(1, d + 1):
            C = C + u(j, k) * u(l, k)
        # C*C = alpha^2, or C = s*alpha for the sign s; 1 on the diagonal
        if j == l:
            target, text = 1, "1"
        elif signs is None:
            target = a * a
            text = "alpha^2" if symbolic else str(target)
        else:
            s = signs[j - 1][l - 1]
            target = s * a
            text = f"{s}*alpha" if symbolic else str(target)
        return (C * C if signs is None else C) - target, text

    extra = {"variant": "squared" if signs is None else "sign_resolved"}
    if not symbolic:
        extra["alpha"] = str(alpha)
    return _pair_system("real_lines", d, N, ring, equation, extra)
