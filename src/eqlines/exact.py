"""Exact scalars: arbitrary-precision rationals and cyclotomic numbers.

A rational value is a stdlib ``fractions.Fraction`` in every field, Q
being the prime field of each. A :class:`CycloNum` is an irrational
element of the cyclotomic field Q(zeta_n) on the power basis
1, z, ..., z^(phi(n)-1), stored as phi(n) integer numerators over one
positive denominator in lowest terms, so two elements are equal iff
their numerators and denominators are identical. Products and
conjugates are reduced by integer division by the monic n-th
cyclotomic polynomial Phi_n; the only per-conductor state is the cached
Phi_n and the cached numeric powers of zeta_n.

The field descriptors ``QQ`` and :class:`CycloField` own their scalars:
``coerce``, ``zero``, ``one``, ``render``, ``parse`` and ``to_json``, and
``embed``, the only approximate operation, which maps a scalar into an
mpmath complex number at a caller chosen binary precision. polyring,
groebner and solver reach scalars only through a descriptor and name
neither scalar type. All other arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math
import operator

__all__ = [
    "CycloNum",
    "QQ",
    "CycloField",
    "field_from_json",
    "cyclotomic_poly",
    "cyclo_root_of_unity",
    "cyclo_embed",
    "upoly_trim",
    "upoly_sub",
    "upoly_mul",
    "upoly_divmod",
    "upoly_deriv",
    "upoly_gcd",
    "upoly_monic",
    "upoly_squarefree",
    "power",
    "signed_sum",
]


# ---------------------------------------------------------------------------
# univariate polynomials over Q or Q(zeta_n), as coefficient lists (low
# degree first); rational results are Fraction and the others CycloNum,
# as everywhere
# ---------------------------------------------------------------------------

def upoly_trim(cs):
    """Drop trailing zero coefficients."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def upoly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return upoly_trim(out)


def upoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return upoly_trim(out)


def upoly_divmod(a, b):
    """Quotient and remainder of a by b. b must be nonzero."""
    b = upoly_trim(b)
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    a = upoly_trim(a)
    inv = Fraction(1) / b[-1]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] * inv
        q[k] = c
        for i, cb in enumerate(b):
            a[k + i] -= c * cb
        a = upoly_trim(a)
    # entries below the last quotient term are still as the caller gave them
    return upoly_trim(q), [Fraction(c) if isinstance(c, int) else c for c in a]


def upoly_deriv(a):
    return upoly_trim([Fraction(i) * c for i, c in enumerate(a)][1:])


def upoly_monic(a):
    a = upoly_trim(a)
    if not a:
        return a
    inv = Fraction(1) / a[-1]
    return [c * inv for c in a]


def upoly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm.

    Each remainder is made monic, which curbs the growth of the Fraction
    coefficients along the remainder sequence over Q."""
    a = upoly_trim(a)
    b = upoly_trim(b)
    while b:
        _, r = upoly_divmod(a, b)
        a, b = b, upoly_monic(r)
    return upoly_monic(a)


def _upoly_exquo(a, b):
    q, r = upoly_divmod(a, b)
    if r:
        raise ArithmeticError("non-exact division in square-free decomposition")
    return q


def upoly_squarefree(f):
    """Yun decomposition of a nonzero coefficient list.

    Returns (factor, multiplicity) pairs with each factor monic,
    square-free and of positive degree, the factors pairwise coprime,
    so that f = lc * prod factor^multiplicity. Constants give [].
    """
    f = upoly_trim(f)
    if len(f) <= 1:
        return []
    f = upoly_monic(f)
    df = upoly_deriv(f)
    g = upoly_gcd(f, df)
    w = _upoly_exquo(f, g)
    z = upoly_sub(_upoly_exquo(df, g), upoly_deriv(w))
    out = []
    i = 1
    while len(w) > 1:
        gi = upoly_gcd(w, z)
        if len(gi) > 1:
            out.append((gi, i))
        w = _upoly_exquo(w, gi)
        z = upoly_sub(_upoly_exquo(z, gi), upoly_deriv(w))
        i += 1
    return out


def _upoly_ext_gcd(a, b):
    # returns (g, u) with u*a = g mod b, g monic; a must be nonzero
    r0, r1 = upoly_trim(a), upoly_trim(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = upoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, upoly_sub(s0, upoly_mul(q, s1))
    inv = Fraction(1) / r0[-1]
    return [c * inv for c in r0], [c * inv for c in s0]


def power(x, k, one):
    """x ** k for an int k >= 0 by repeated squaring; ``one`` is the
    product of no factors."""
    result = one
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _zpoly_divmod(num, den):
    """Quotient and remainder of the integer coefficient list ``num`` by
    the monic integer ``den``; the remainder has exactly deg(den) entries.

    Synthetic division from the top: each entry at or above deg(den) is
    final once reached and is the quotient's, and only the nonzero
    coefficients of den below its leading one are subtracted."""
    d = len(den) - 1
    tail = [(i - d, c) for i, c in enumerate(den[:d]) if c]
    num = list(num)
    num += [0] * (d - len(num))
    for e in range(len(num) - 1, d - 1, -1):
        c = num[e]
        if c:
            for i, cd in tail:
                num[e + i] -= c * cd
    return num[d:], num[:d]


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("cyclotomic_poly needs n >= 1")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, r = _zpoly_divmod(num, cyclotomic_poly(d))
            if any(r):
                raise ArithmeticError("non-exact division in cyclotomic construction")
    return tuple(num)


@lru_cache(maxsize=None)
def _zeta_powers(n, precision):
    import mpmath

    phi = len(cyclotomic_poly(n)) - 1
    with mpmath.workprec(precision + 16):
        zeta = mpmath.expjpi(mpmath.mpf(2) / n)
        return tuple(zeta ** k for k in range(phi))


class CycloNum:
    """An irrational element of Q(zeta_n) on the reduced power basis.

    The value is sum(num[k] * z^k) / den: ``num`` is a tuple of phi(n)
    ints and ``den`` a positive int with gcd(den, *num) == 1, so equal
    elements have equal fields. ``coeffs`` gives the same value as a
    tuple of Fractions. A rational value is always a ``Fraction``: the
    constructor and every operator return one, so a CycloNum is never
    rational, in particular never zero. Mixed arithmetic with ``int`` and
    ``Fraction`` is supported; two CycloNum operands must share the same
    conductor.
    """

    __slots__ = ("n", "num", "den")

    def __new__(cls, n, coeffs):
        phi = len(cyclotomic_poly(n)) - 1
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(
                f"Q(zeta_{n}) elements need {phi} coefficients, got {len(coeffs)}"
            )
        den = math.lcm(*(c.denominator for c in coeffs))
        num = tuple([c.numerator * (den // c.denominator) for c in coeffs])
        return cls._new(n, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    @classmethod
    def _new(cls, n, num, den):
        # internal results: num is a tuple of phi(n) ints and den > 0;
        # a rational value becomes a Fraction, any other is divided by
        # the common factor of num and den
        if not any(num[1:]):
            return Fraction(num[0], den)
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
        x = object.__new__(cls)
        object.__setattr__(x, "n", n)
        object.__setattr__(x, "num", num)
        object.__setattr__(x, "den", den)
        return x

    @property
    def coeffs(self):
        """The power basis coefficients as a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- structure ---------------------------------------------------------

    def conjugate(self):
        """Complex conjugation, z -> z^(n-1)."""
        n = self.n
        long = [0] * n
        for k, c in enumerate(self.num):
            long[(n - k) % n] = c
        _, r = _zpoly_divmod(long, cyclotomic_poly(n))
        return CycloNum._new(n, tuple(r), self.den)

    def is_real(self):
        return self == self.conjugate()

    # -- arithmetic ---------------------------------------------------------

    def _parts(self, other):
        # (numerators, denominator) of other on this power basis, or None
        if isinstance(other, CycloNum):
            if other.n != self.n:
                raise ValueError(
                    f"conductor mismatch: {self.n} vs {other.n}"
                )
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return (other.numerator,) + (0,) * (len(self.num) - 1), other.denominator
        return None

    def _add_sub(self, other, op):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        num, b = parts
        a = self.den
        if a == b:
            return CycloNum._new(self.n, tuple(map(op, self.num, num)), a)
        return CycloNum._new(
            self.n, tuple([op(x * b, y * a) for x, y in zip(self.num, num)]), a * b
        )

    def __add__(self, other):
        return self._add_sub(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum._new(self.n, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        return self._add_sub(other, operator.sub)

    def __rsub__(self, other):
        return self._add_sub(other, lambda x, y: y - x)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = other.numerator
            return CycloNum._new(
                self.n, tuple([c * q for c in self.num]), self.den * other.denominator
            )
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        num, den = parts
        m = len(num)
        long = [0] * (2 * m - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(num):
                    if b:
                        long[i + j] += a * b
        _, r = _zpoly_divmod(long, cyclotomic_poly(self.n))
        return CycloNum._new(self.n, tuple(r), self.den * den)

    __rmul__ = __mul__

    def inverse(self):
        minpoly = cyclotomic_poly(self.n)
        g, u = _upoly_ext_gcd(list(self.num), list(minpoly))
        # Phi_n is irreducible over Q, so the gcd with any nonzero
        # reduced element is 1
        if g != [1]:
            raise ArithmeticError("cyclotomic inverse failed")
        # u * num = 1 with deg u < phi(n), so den * u is the inverse of
        # num / den on the reduced basis
        u = [c * self.den for c in u]
        return CycloNum(self.n, u + [0] * (len(minpoly) - 1 - len(u)))

    def __truediv__(self, other):
        if isinstance(other, CycloNum):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return power(self.inverse() if k < 0 else self, abs(k), Fraction(1))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloNum):
            return self.n == other.n and self.den == other.den and self.num == other.num
        # a CycloNum is never rational
        return False if isinstance(other, (int, Fraction)) else NotImplemented

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __repr__(self):
        return f"CycloNum({self.n}, {list(self.coeffs)})"

    def __str__(self):
        return cyclo_to_str(self)


def cyclo_root_of_unity(n, k):
    """zeta_n^k (k may be any integer); a Fraction when it is +-1."""
    _, r = _zpoly_divmod([0] * (k % n) + [1], cyclotomic_poly(n))
    return CycloNum._new(n, tuple(r), 1)


def cyclo_embed(x, precision=53):
    """Numeric value of a CycloNum, Fraction or int as an mpmath mpc.

    The result carries roughly ``precision`` correct bits; computation
    runs with 16 guard bits.
    """
    import mpmath

    if not isinstance(x, CycloNum):
        return QQ.embed(x, precision + 16)
    with mpmath.workprec(precision + 16):
        powers = _zeta_powers(x.n, precision)
        acc = mpmath.mpc(0)
        for c, p in zip(x.coeffs, powers):
            if c:
                acc += (mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)) * p
        return mpmath.mpc(acc)


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def signed_sum(parts):
    """Join (negative, text) pairs into ``a - b + c``: the first sign is
    a bare "-" or nothing, each later one " - " or " + "; "0" for none."""
    s = "".join((" - " if neg else " + ") + text for neg, text in parts)
    if not s:
        return "0"
    return s[3:] if s.startswith(" + ") else "-" + s[3:]


def cyclo_to_str(x):
    """Render a CycloNum like ``(1/2)*z^2 - 1 @ n=12``; parsed back by
    cyclo_from_str."""
    parts = []
    coeffs = x.coeffs
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            zpow = "z" if k == 1 else f"z^{k}"
            body = zpow if mag == 1 else f"({mag})*{zpow}"
        parts.append((c < 0, body))
    return f"{signed_sum(parts)} @ n={x.n}"


def _split_conductor(s):
    """The polynomial text of ``s`` and the conductor of its ``@ n=<digits>``
    annotation; nothing about the field is computed."""
    import re

    text, _, tail = s.rpartition("@")
    m = re.fullmatch(r"n=(\d+)", tail.strip())
    if not m:
        raise ValueError(f"missing conductor annotation in {s!r}")
    return text.strip(), int(m.group(1))


def cyclo_from_str(s):
    import re

    text, n = _split_conductor(s)
    phi = len(cyclotomic_poly(n)) - 1
    coeffs = [Fraction(0)] * phi
    if text == "0":
        return CycloNum(n, coeffs)
    # normalize separators, keep a possible leading minus attached
    text = text.replace(" - ", " + -")
    term_re = re.compile(
        r"^(-)?(?:\((-?\d+(?:/\d+)?)\)\*|(-?\d+(?:/\d+)?)(?=$))?(z(?:\^(\d+))?)?$"
    )
    for raw in text.split(" + "):
        raw = raw.strip()
        m = term_re.fullmatch(raw)
        if not m or (m.group(3) is None and m.group(4) is None):
            raise ValueError(f"bad cyclotomic term {raw!r} in {s!r}")
        sign = -1 if m.group(1) else 1
        if m.group(4):
            coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            power = int(m.group(5)) if m.group(5) else 1
        else:
            coeff = Fraction(m.group(3))
            power = 0
        if power >= phi:
            raise ValueError(f"power {power} not reduced for n={n}")
        coeffs[power] += sign * coeff
    return CycloNum(n, coeffs)


# ---------------------------------------------------------------------------
# coefficient field descriptors
# ---------------------------------------------------------------------------

class _RationalField:
    """The field Q; scalars are Fraction."""

    name = "Q"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def render(self, x):
        return str(x)

    def parse(self, s):
        return Fraction(s)

    def to_json(self):
        return "Q"

    def embed(self, x, precision=53):
        """x as an mpmath mpc at ``precision`` bits."""
        import mpmath

        x = self.coerce(x)
        with mpmath.workprec(precision):
            return mpmath.mpc(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, _RationalField)

    def __hash__(self):
        return hash("QQ")


class CycloField:
    """The field Q(zeta_n); its scalars are Fractions for rational values
    and CycloNums with conductor n for the others."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("conductor must be >= 1")
        self.n = n

    @property
    def name(self):
        return f"Q(zeta_{self.n})"

    def coerce(self, x):
        if isinstance(x, CycloNum):
            if x.n != self.n:
                raise ValueError(f"conductor mismatch: {x.n} vs {self.n}")
            return x
        if isinstance(x, (int, Fraction)):
            return QQ.coerce(x)
        raise TypeError(f"cannot coerce {x!r} into Q(zeta_{self.n})")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def render(self, x):
        if isinstance(x, CycloNum):
            return cyclo_to_str(x)
        return f"{x} @ n={self.n}"

    def parse(self, s):
        n = _split_conductor(s)[1]
        if n != self.n:
            raise ValueError(f"conductor mismatch: {n} vs {self.n}")
        return cyclo_from_str(s)

    def to_json(self):
        return {"cyclotomic": self.n}

    def embed(self, x, precision=53):
        """x as an mpmath mpc; see cyclo_embed."""
        return cyclo_embed(self.coerce(x), precision)

    def __repr__(self):
        return f"CycloField({self.n})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.n == self.n

    def __hash__(self):
        return hash(("cyclo", self.n))


QQ = _RationalField()


def field_from_json(tag):
    if tag == "Q":
        return QQ
    if isinstance(tag, dict) and set(tag) == {"cyclotomic"}:
        return CycloField(operator.index(tag["cyclotomic"]))
    raise ValueError(f"unknown field tag {tag!r}")
