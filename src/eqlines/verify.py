"""Verification suite for equiangular line candidates.

Complex side: overlap extraction against the Weyl-Heisenberg orbit,
the squared-modulus pattern check for fiducials, and algebraic-unit
certification of overlap minimal polynomials (monic integer and
reciprocal, or x +- 1).

Real side: exact symbolic analysis of the Gram matrix I + alpha*S of a
sign pattern S. The determinant comes from the characteristic polynomial
of S, so root multiplicities come from exact gcd computations, not
numerics; numerics enter only when locating the real roots of each
squarefree factor. Spectral reconstruction then rebuilds explicit unit
vectors from a float Gram matrix by pivoted Cholesky factorization and
confirms the round trip; spectral_checks runs it on I + alpha*S for
each admissible alpha.

Everything here is pure Python on mpmath and the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math
import operator
import statistics

import mpmath

from .exact import QQ, upoly_squarefree, upoly_trim
from .polyring import Poly, Ring
from .sicgen import apply_weyl
from .solver import _dps, _roots_numeric, _univ_coeffs

__all__ = [
    "OverlapReport",
    "VerificationError",
    "SpectralError",
    "verify_fiducial",
    "unit_certify",
    "gram_analysis",
    "spectral_reconstruct",
    "spectral_checks",
    "verify_equiangular_real",
    "hexagon_lines",
    "icosahedron_lines",
]

# default tolerance of the numeric fiducial, Gram and equiangularity checks
DEFAULT_TOL = 1e-10


class VerificationError(ValueError):
    pass


class SpectralError(VerificationError):
    pass


@dataclass
class OverlapReport:
    """Normalized overlaps sqrt(d+1)*<v_ab, v> for (a,b) != (0,0).

    Each entry records the overlap, how far its modulus sits from 1,
    and its phase theta in (-pi, pi].
    """

    d: int
    entries: dict

    def to_json(self):
        dps = 40
        out = {}
        for (a, b), e in self.entries.items():
            out[f"{a},{b}"] = {
                "overlap": [
                    mpmath.nstr(e["overlap"].real, dps),
                    mpmath.nstr(e["overlap"].imag, dps),
                ],
                "modulus_error": mpmath.nstr(e["modulus_error"], 8),
                "theta": mpmath.nstr(e["theta"], dps),
            }
        return {"d": self.d, "entries": out}


# ---------------------------------------------------------------------------
# complex side
# ---------------------------------------------------------------------------

def _as_mpc_vector(v):
    w = [mpmath.mpc(x) for x in v]
    if not all(mpmath.isfinite(x) for x in w):
        raise VerificationError("non-finite coordinate")
    return w


def verify_fiducial(v, tol=DEFAULT_TOL, precision=128):
    """Check the constant-angle condition on the orbit of v.

    Normalizes v, forms every v_ab for (a,b) != (0,0), and tests
    |<v_ab, v>|^2 = 1/(d+1). Returns ok, the worst deviation, and an
    OverlapReport with all d^2 - 1 normalized overlaps.
    """
    with mpmath.workprec(precision):
        w = _as_mpc_vector(v)
        nrm = mpmath.sqrt(sum(abs(x) ** 2 for x in w))
        if nrm == 0:
            raise VerificationError("zero vector")
        w = [x / nrm for x in w]
        d = len(w)
        root = mpmath.sqrt(d + 1)
        target = mpmath.mpf(1) / (d + 1)
        entries = {}
        max_dev = mpmath.mpf(0)
        for a in range(d):
            for b in range(d):
                if a == 0 and b == 0:
                    continue
                vab = apply_weyl(w, (a, b))
                ip = sum(x * mpmath.conj(y) for x, y in zip(vab, w))
                overlap = root * ip
                mod_err = abs(abs(overlap) - 1)
                entries[(a, b)] = {
                    "overlap": overlap,
                    "modulus_error": mod_err,
                    "theta": mpmath.arg(overlap),
                }
                max_dev = max(max_dev, abs(abs(ip) ** 2 - target))
        report = OverlapReport(d, entries)
        return {"ok": max_dev <= tol, "max_dev": max_dev, "report": report}


def unit_certify(f):
    """Certify that a unit-circle root of f is an algebraic unit.

    Accepts f over Q that is monic with integer coefficients and either
    x +- 1 or reciprocal. The certificate is conditional on f being
    the root's minimal polynomial; irreducibility is not tested here.
    """
    if f.ring.field != QQ:
        raise VerificationError("unit certification needs a polynomial over Q")
    if f.ring.arity != 1:
        raise VerificationError("univariate polynomial required")
    if f.is_zero():
        raise VerificationError("zero polynomial")
    cs = _univ_coeffs(f, 0)
    reasons = []
    if cs[-1] != 1:
        reasons.append("not monic")
    if any(c.denominator != 1 for c in cs):
        reasons.append("non-integer coefficients")
    linear_unit = cs in ([Fraction(1), Fraction(1)], [Fraction(-1), Fraction(1)])
    if not linear_unit and cs != cs[::-1]:
        reasons.append("not reciprocal and not x +- 1")
    return {"unit": not reasons, "reasons": reasons}


# ---------------------------------------------------------------------------
# real side
# ---------------------------------------------------------------------------

def _charpoly(a):
    """Little-endian coefficients of det(x*I - A) for a square matrix A,
    by Berkowitz's division-free algorithm (S. J. Berkowitz, On computing
    the determinant in small parallel time using a small number of
    processors, Inf. Process. Lett. 18, 1984). Integer entries stay
    integers throughout."""
    p = [1]  # big-endian characteristic polynomial of the leading block M
    for r in range(len(a)):
        # extend the r x r block M by the column S above a_rr and the row R
        # left of it
        R, v = a[r][:r], [a[i][r] for i in range(r)]
        col = [1, -a[r][r]]
        for _ in range(r):  # v runs through S, M S, M^2 S, ...
            col.append(-sum(x * y for x, y in zip(R, v)))
            v = [sum(x * y for x, y in zip(a[i][:r], v)) for i in range(r)]
        # multiply by the lower triangular Toeplitz matrix with first column col
        p = [
            sum(col[i - j] * p[j] for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
    return [Fraction(c) for c in reversed(p)]


def gram_analysis(spec, d, precision=128):
    """Symbolic rank analysis of G(alpha) = I + alpha*signs.

    det_poly is exact over Q[alpha], read off the characteristic
    polynomial of the symmetric sign matrix, so its roots are real. A
    root alpha is admissible when 0 < alpha < 1 and its multiplicity is
    at least N - d, the rank deficiency of N lines in R^d. For each
    admissible root, odd_integer_flags holds whether 1/alpha is an odd
    integer when N > 2d, and None otherwise. Then the square-free factor
    has multiplicity above N/2, so it is linear and the flag is exact:
    k = nint(1/alpha) is odd and 1/k is the factor's root.
    """
    if spec.N <= d:
        raise VerificationError("need more lines than dimensions")
    n = spec.N
    # with chi_S = sum c_j x^j: det(I + alpha*S) = sum (-1)^k c_(n-k) alpha^k
    chi = _charpoly(spec.signs)
    det = upoly_trim([-chi[n - k] if k % 2 else chi[n - k] for k in range(n + 1)])
    ring = Ring(("alpha",), QQ)
    det_poly = Poly.from_dict(ring, {(k,): c for k, c in enumerate(det)})

    need = n - d
    rows = []  # (alpha, multiplicity, odd integer flag)
    with mpmath.workprec(precision):
        eps = mpmath.mpf(10) ** (-_dps(precision) // 2)
        for factor, mult in upoly_squarefree(det):
            if mult < need:
                continue
            coeffs = [QQ.embed(c, precision) for c in reversed(factor)]
            for r in _roots_numeric(coeffs, precision, guard=0):
                a = r.real
                if a <= eps or a >= 1 - eps:
                    continue
                flag = None
                if n > 2 * d:
                    k = int(mpmath.nint(1 / a))
                    flag = k % 2 == 1 and not sum(
                        c * Fraction(1, k) ** j for j, c in enumerate(factor))
                rows.append((a, mult, flag))
        rows.sort(key=lambda row: row[0])
    return {
        "det_poly": det_poly,
        "admissible_alphas": [a for a, _, _ in rows],
        "multiplicities": [m for _, m, _ in rows],
        "odd_integer_flags": [f for _, _, f in rows],
    }


def spectral_reconstruct(gram, d, tol=DEFAULT_TOL):
    """Rebuild N unit vectors in R^d from an N x N Gram matrix.

    Factors G = L L^T by Cholesky with diagonal pivoting (N. J. Higham,
    Analysis of the Cholesky decomposition of a semi-definite matrix,
    1990): each step pivots on the largest diagonal entry left in the
    Schur complement, and the factorization stops once that entry is at
    most tol. The number of steps is the numeric rank, and vector i is
    row i of L padded with zeros to length d. recon_error is the largest
    entry of |V V^T - G| over the returned vectors. Fails on an entry
    that is not finite, on asymmetry above tol, if a diagonal entry left
    over lies below -tol (not positive semi-definite), if the rank
    exceeds d, or if recon_error exceeds tol. O(N^2 d) float operations
    once the rank is at most d.
    """
    try:
        g = [[float(x) for x in row] for row in gram]
        if len({len(row) for row in g}) > 1:
            raise ValueError
    except (TypeError, ValueError):
        raise VerificationError(
            "gram matrix must be a rectangular array of numbers"
        ) from None
    n = len(g)
    if not n or len(g[0]) != n:
        raise VerificationError("gram matrix must be square")
    if not all(math.isfinite(x) for row in g for x in row):
        raise VerificationError("gram matrix has a non-finite entry")
    # entries are finite, so no difference is NaN
    if any(abs(g[i][j] - g[j][i]) > tol for i in range(n) for j in range(i)):
        raise VerificationError("gram matrix must be symmetric")
    rows = [[] for _ in range(n)]  # row i of L, without its trailing zeros
    diag = [g[i][i] for i in range(n)]  # diagonal of the Schur complement
    rest = list(range(n))  # indices not yet pivoted on
    while rest:
        p = max(rest, key=diag.__getitem__)
        if not diag[p] > tol:  # a NaN pivot stops too
            break
        rest.remove(p)
        lp, s = rows[p], math.sqrt(diag[p])
        for i in rest:
            x = (g[i][p] - sum(map(operator.mul, rows[i], lp))) / s
            rows[i].append(x)
            diag[i] -= x * x
        lp.append(s)
    worst = min((diag[i] for i in rest), default=0.0)
    if not worst >= -tol:
        raise SpectralError(f"not positive semi-definite: {worst:.3e}")
    rank = n - len(rest)
    if rank > d:
        raise SpectralError(f"numeric rank {rank} exceeds dimension {d}")
    # zip stops at the shorter row, and the rows are zero past their ends
    errs = [abs(sum(map(operator.mul, u, w)) - x)
            for u, grow in zip(rows, g) for w, x in zip(rows, grow)]
    recon_error = math.nan if any(map(math.isnan, errs)) else max(errs)
    if not recon_error <= tol:
        raise SpectralError(
            f"reconstruction error {recon_error:.3e} exceeds tolerance"
        )
    return {"vectors": [row + [0.0] * (d - len(row)) for row in rows],
            "recon_error": recon_error}


def spectral_checks(spec, alphas, d, tol=DEFAULT_TOL):
    """Run spectral_reconstruct on the float Gram matrix I + alpha*S of
    the sign pattern ``spec`` for each alpha.

    ``tol`` is floored at 1e-9, since the factorization works in
    doubles.
    Returns one report entry per alpha: {"ok": True, "recon_error":
    repr of the error} or {"ok": False, "error": message}.
    """
    out = []
    for a in alphas:
        g = [[float(i == j) + float(a) * s for j, s in enumerate(row)]
             for i, row in enumerate(spec.signs)]
        try:
            sr = spectral_reconstruct(g, d, tol=max(tol, 1e-9))
        except VerificationError as exc:
            out.append({"ok": False, "error": str(exc)})
        else:
            out.append({"ok": True, "recon_error": repr(sr["recon_error"])})
    return out


def verify_equiangular_real(vectors, tol=DEFAULT_TOL):
    """Unit-norm and constant-|inner product| check on real vectors.

    The common angle is estimated as the median off-diagonal magnitude,
    so a single corrupted pair shows up as a deviation rather than
    skewing the estimate. Inner products are correctly rounded sums
    (math.fsum).
    """
    if len(vectors) < 2:
        raise VerificationError("need at least two vectors")
    vs = [[float(x) for x in v] for v in vectors]
    if any(len(v) != len(vs[0]) for v in vs):
        raise VerificationError("vectors must all have the same dimension")
    if not all(math.isfinite(x) for v in vs for x in v):
        raise VerificationError("non-finite coordinate")
    try:
        norms = [math.fsum(x * x for x in v) for v in vs]
        mags = [
            abs(math.fsum(x * y for x, y in zip(u, w)))
            for j, u in enumerate(vs) for w in vs[j + 1:]
        ]
    except (OverflowError, ValueError):  # fsum of inf-inf raises ValueError
        raise VerificationError("inner product overflows a float") from None
    alpha_est = statistics.median(mags)
    max_dev = max(
        [abs(s - 1.0) for s in norms] + [abs(m - alpha_est) for m in mags]
    )
    return {"ok": max_dev <= tol, "alpha_est": alpha_est, "max_dev": max_dev}


# ---------------------------------------------------------------------------
# reference configurations
# ---------------------------------------------------------------------------

def hexagon_lines():
    """Three unit vectors in the plane with pairwise angle sixty
    degrees; inner products +-1/2 matching sicgen.seidel_hexagon."""
    r = math.sqrt(3) / 2
    return [(1.0, 0.0), (0.5, r), (0.5, -r)]


def icosahedron_lines():
    """Six unit vectors along icosahedron diagonals; inner products
    +-1/sqrt(5) matching sicgen.seidel_icosahedron."""
    a = math.sqrt((5 - math.sqrt(5)) / 10)
    b = math.sqrt((5 + math.sqrt(5)) / 10)
    return [
        (0.0, a, b),
        (0.0, -a, b),
        (a, b, 0.0),
        (-a, b, 0.0),
        (b, 0.0, a),
        (b, 0.0, -a),
    ]
