"""Multivariate polynomials over Q or Q(zeta_n) with exact coefficients.

Monomials are dense exponent tuples, and each ``Ring`` hands out one
shared tuple per distinct monomial: every polynomial built in the ring
refers to the same tuple object for the same monomial, except an
S-polynomial and its unchanged remainder or monic multiple. The table
keeps every monomial it has handed out, so a run that makes many
throwaway polynomials works in a scratch ring and moves its result back
with ``rehome``. A polynomial keeps its terms as two parallel tuples,
``monos`` strictly decreasing in lex order and ``coeffs`` nonzero, with
no object per term; this is a canonical form: two polynomials are equal
iff their rings and both tuples are equal. ``terms``, the tuple of
(monomial, coefficient) pairs, is a view built on each read.
Supported term orders are "lex" and "grevlex"; both refine total degree
comparisons the usual way, with variable 0 largest.

Remainders come from ``reduce_poly``, the one multivariate division
loop: at each step the current leading term is reduced against the
first divisor (in list order) whose leading term divides it, otherwise
it moves to the remainder. No remainder term is divisible by any
divisor leading term.

The division runs on packed monomials (Bachmann and Schoenemann, ISSAC
1998; Monagan and Pearce, CASC 2007). Each monomial becomes one int
key, additive under multiplication and ordered like the term order,
with a field of ``width`` bits per variable whose top bit is a guard;
the pending terms sit in a sorted list of keys. The width starts at 16
bits, or more when an input exponent needs it, and every exponent must
stay below 2**(width - 1). A divisor tail or a product that breaks
this bound restarts the division at twice the width. The packed form
lives only inside one ``reduce_poly`` call.
"""

from __future__ import annotations

import dataclasses
import operator
from bisect import insort

from .exact import field_from_json, power, signed_sum

__all__ = [
    "monomial_key",
    "mono_mul",
    "mono_div",
    "mono_lcm",
    "mono_divides",
    "Ring",
    "Poly",
    "eval_terms",
    "reduce_poly",
    "s_polynomial",
    "rehome",
]

# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b; caller must ensure b divides a."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ArithmeticError(f"monomial {b} does not divide {a}")
    return out


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_divides(b, a):
    """True when b divides a, component-wise."""
    return all(x <= y for x, y in zip(b, a))


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def monomial_key(order):
    """Sort key; larger monomials under the order get larger keys."""
    if order == "lex":
        return lambda m: m
    if order == "grevlex":
        return _grevlex_key
    raise ValueError(f"unknown order {order!r}")


def _canonical_terms(ring, acc):
    """The nonzero terms of a monomial -> coefficient dict as the two
    tuples of a Poly: the ring's shared monomials, strictly decreasing in
    lex order, and their coefficients."""
    monos = sorted((m for m, c in acc.items() if c), reverse=True)
    intern = ring._monos.setdefault
    return tuple(map(intern, monos, monos)), tuple(map(acc.__getitem__, monos))


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Ring:
    """A named variable list over a coefficient field descriptor.

    A ring also keeps the table of its monomials, which maps each
    exponent tuple that a polynomial of the ring has used, also one long
    gone, to its one shared instance; S-polynomials do not fill it.
    Hence a run keeps its intermediates in a scratch ``Ring(vars,
    field)``. The table is no part of the ring's value: it takes no part
    in ``==``, ``hash``, ``repr`` or ``to_json``.
    """

    __slots__ = ("vars", "field", "_monos")

    vars: tuple
    field: object

    def __post_init__(self):
        vars = tuple(self.vars)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_monos", {})

    def __reduce__(self):  # a copy starts its own monomial table
        return Ring, (self.vars, self.field)

    @property
    def arity(self):
        return len(self.vars)

    def index(self, name):
        if name not in self.vars:
            raise ValueError(f"unknown variable {name!r}")
        return self.vars.index(name)

    def to_json(self):
        """The ring header {"vars", "field"} of every file that stores
        polynomials."""
        return {"vars": list(self.vars), "field": self.field.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(obj["vars"]), field_from_json(obj["field"]))


@dataclasses.dataclass(frozen=True, init=False, repr=False)
class Poly:
    """Immutable multivariate polynomial with canonical lex term order.

    Its value is its ring and two parallel tuples: ``monos``, the ring's
    exponent tuples strictly decreasing in lex order, and ``coeffs``,
    their nonzero coefficients. ``Poly(ring, terms)`` takes any iterable
    of (monomial, coefficient) pairs and sums repeated monomials. The
    index of the grevlex leading term is cached on first use and takes
    no part in ``==`` or ``hash``."""

    __slots__ = ("ring", "monos", "coeffs", "_grevlex_lead")

    ring: Ring
    monos: tuple
    coeffs: tuple

    def __init__(self, ring, terms):
        acc = {}
        for mono, coeff in terms:
            mono = tuple(map(operator.index, mono))
            if len(mono) != ring.arity or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono}")
            c = ring.field.coerce(coeff)
            acc[mono] = acc[mono] + c if mono in acc else c
        Poly._fill(self, ring, *_canonical_terms(ring, acc))

    @staticmethod
    def _fill(p, ring, monos, coeffs, lead=None):
        """Set the fields of a new Poly p and return it."""
        setattr_ = object.__setattr__
        setattr_(p, "ring", ring)
        setattr_(p, "monos", monos)
        setattr_(p, "coeffs", coeffs)
        setattr_(p, "_grevlex_lead", lead)
        return p

    @classmethod
    def _raw(cls, ring, monos, coeffs, lead=None):
        """The polynomial of two tuples already in canonical form, with
        ``lead`` the grevlex leading index when it is known."""
        return cls._fill(object.__new__(cls), ring, monos, coeffs, lead)

    def __reduce__(self):
        return Poly._raw, (self.ring, self.monos, self.coeffs)

    @property
    def terms(self):
        """The (monomial, coefficient) pairs, strictly decreasing in lex
        order: a new tuple on each read."""
        return tuple(zip(self.monos, self.coeffs))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls._raw(ring, (), ())

    @classmethod
    def constant(cls, ring, c):
        c = ring.field.coerce(c)
        if not c:
            return cls.zero(ring)
        return cls(ring, (((0,) * ring.arity, c),))

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring, which):
        """The variable with index or name ``which``."""
        if not isinstance(which, int):
            i = ring.index(which)
        elif 0 <= which < ring.arity:
            i = which
        else:
            raise ValueError(
                f"variable index {which} is outside range({ring.arity})")
        mono = tuple(1 if j == i else 0 for j in range(ring.arity))
        return cls(ring, ((mono, ring.field.one()),))

    @classmethod
    def from_dict(cls, ring, d):
        return cls(ring, list(d.items()))

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.monos

    def is_constant(self):
        return not self.monos or (
            len(self.monos) == 1 and not any(self.monos[0])
        )

    def constant_value(self):
        if not self.monos:
            return self.ring.field.zero()
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.coeffs[0]

    def total_degree(self):
        return max(map(sum, self.monos), default=-1)

    def support(self):
        """Indices of variables that actually occur."""
        return {i for m in self.monos for i, e in enumerate(m) if e}

    def _lead(self, order):
        """Index of the leading term under ``order``."""
        if not self.monos:
            raise ValueError("zero polynomial has no leading term")
        if order == "lex":
            return 0
        key = monomial_key(order)  # grevlex, or a ValueError
        if self._grevlex_lead is None:
            i = self.monos.index(max(self.monos, key=key))
            object.__setattr__(self, "_grevlex_lead", i)
        return self._grevlex_lead

    def leading_term(self, order="lex"):
        i = self._lead(order)
        return self.monos[i], self.coeffs[i]

    def leading_monomial(self, order="lex"):
        return self.monos[self._lead(order)]

    def leading_coeff(self, order="lex"):
        return self.coeffs[self._lead(order)]

    def _scaled(self, k):
        """k times self for a nonzero scalar k: the same monomials."""
        coeffs = tuple([c * k for c in self.coeffs])
        return Poly._raw(self.ring, self.monos, coeffs, self._grevlex_lead)

    def monic(self, order="lex"):
        if not self.monos:
            return self
        lc = self.leading_coeff(order)
        if lc == 1:
            return self
        return self._scaled(self.ring.field.one() / lc)

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.ring, other)
        self._check_ring(other)
        acc = dict(zip(self.monos, self.coeffs))
        for m, c in zip(other.monos, other.coeffs):
            acc[m] = acc[m] + c if m in acc else c
        return Poly._raw(self.ring, *_canonical_terms(self.ring, acc))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        coeffs = tuple(map(operator.neg, self.coeffs))
        return Poly._raw(self.ring, self.monos, coeffs, self._grevlex_lead)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.ring, other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.ring.field.coerce(other)
            if not c:
                return Poly.zero(self.ring)
            return self._scaled(c)
        self._check_ring(other)
        acc = {}
        for m1, c1 in zip(self.monos, self.coeffs):
            for m2, c2 in zip(other.monos, other.coeffs):
                m = mono_mul(m1, m2)
                acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
        return Poly._raw(self.ring, *_canonical_terms(self.ring, acc))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers need a non-negative int")
        return power(self, k, Poly.one(self.ring))

    # -- evaluation -----------------------------------------------------------

    def eval_exact(self, point):
        """Exact evaluation; point entries may live in a larger field."""
        if len(point) != self.ring.arity:
            raise ValueError("point arity mismatch")
        return eval_terms(zip(self.monos, self.coeffs), point,
                          self.ring.field.zero())

    def __bool__(self):
        return bool(self.monos)

    # -- rendering --------------------------------------------------------------

    def __str__(self):
        field = self.ring.field
        parts = []
        for m, c in zip(self.monos, self.coeffs):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.ring.vars[i])
                elif e > 1:
                    factors.append(f"{self.ring.vars[i]}^{e}")
            body = "*".join(factors)
            cs = field.render(c)
            # a sign in front of a sum belongs to its first term only
            neg = cs.startswith("-") and " + " not in cs and " - " not in cs
            if neg:
                cs = cs[1:]
            if body:
                text = body if cs == "1" else f"({cs})*{body}"
            else:
                text = cs if ("/" not in cs and "@" not in cs) else f"({cs})"
            parts.append((neg, text))
        return signed_sum(parts)

    def __repr__(self):
        return f"Poly({self})"

    # -- serialization ------------------------------------------------------------

    def terms_to_json(self):
        """Just the term list; ring data comes from the enclosing object."""
        return [
            {"c": self.ring.field.render(c), "e": list(m)}
            for m, c in zip(self.monos, self.coeffs)
        ]

    @classmethod
    def terms_from_json(cls, term_list, ring):
        terms = [(tuple(t["e"]), ring.field.parse(t["c"])) for t in term_list]
        return cls(ring, terms)

    def with_field(self, field):
        """Coerce every coefficient into another coefficient field."""
        return next(rehome([self], Ring(self.ring.vars, field)))


def eval_terms(terms, point, start):
    """start plus the sum of c * prod(point[i] ** m[i]) over the (m, c)
    pairs of terms: exact coefficients in Poly.eval_exact, embedded ones
    in the solver's residual check."""
    total = start
    for m, c in terms:
        for x, e in zip(point, m):
            if e:
                c = c * x ** e
        total = total + c
    return total


# ---------------------------------------------------------------------------
# division and S-polynomials
# ---------------------------------------------------------------------------

_MIN_WIDTH = 16


def _field_shifts(arity, order, width):
    """Bit offset of each variable's field in a packed word: x_0 on top
    for lex, x_{n-1} on top for grevlex."""
    if order == "lex":
        return [width * (arity - 1 - i) for i in range(arity)]
    return [width * i for i in range(arity)]


def _key_weights(arity, order, width):
    """Weights w whose dot product with an exponent vector is its packed
    key K: additive under multiplication and ordered like
    ``monomial_key(order)`` while every exponent is below 2**(width - 1).

    lex: K is the word of the exponents, x_0 on top. grevlex:
    K = (deg << arity * width) - W_rev, where W_rev is the word with
    x_{n-1} on top, so a larger K means a larger degree, or the same
    degree and smaller trailing exponents.
    """
    shifts = _field_shifts(arity, order, width)
    if order == "lex":
        return [1 << s for s in shifts]
    top = 1 << width * arity
    return [top - (1 << s) for s in shifts]


def _divisibility_word(key, order, arity, width):
    """The exponents of a packed key as one word of ``width``-bit fields:
    K itself for lex, (-K) mod 2**(arity * width) for grevlex. With H
    the guard bits of all fields, b divides a iff
    ((W_a | H) - W_b) & H == H."""
    return key if order == "lex" else -key & ((1 << width * arity) - 1)


def _guard_bits(arity, width):
    """The top bit of every field."""
    return sum(1 << width * i + width - 1 for i in range(arity))


def _top_exponent(ring, monos):
    """The largest exponent in the ring's monomials monos, 0 for none."""
    return max(map(max, monos), default=0) if ring.arity else 0


def reduce_poly(f, divisors, order="lex"):
    """Remainder of f on division by the nonzero divisors, by the rule in
    the module docstring; f itself when no leading term divides a term."""
    divisors = [g for g in divisors if not g.is_zero()]
    if any(g.ring != f.ring for g in divisors):
        raise ValueError("ring mismatch in division")
    if not divisors:
        return f
    leads = [g._lead(order) for g in divisors]
    heads = [g.monos[j] for g, j in zip(divisors, leads)]
    top = _top_exponent(f.ring, (*f.monos, *heads))
    width = max(_MIN_WIDTH, top.bit_length() + 1)
    while True:
        rem = _divide(f, divisors, leads, order, width)
        if rem is not None:
            return rem
        width *= 2


def _divide(f, divisors, leads, order, width):
    """reduce_poly on packed keys of ``width``-bit fields, or None when
    a divisor tail or a leading term reaches the bound 2**(width - 1).
    f and the divisors' leading terms, at index ``leads``, must be within
    the bound."""
    ring = f.ring
    n = ring.arity
    lex = order == "lex"
    weights = _key_weights(n, order, width)
    guard = _guard_bits(n, width)
    full = (1 << width * n) - 1
    half = 1 << width - 1
    mul = operator.mul

    def pack(m):
        return sum(map(mul, m, weights))

    hs = []  # (divisibility word, key, coefficient) of each head
    for g, j in zip(divisors, leads):
        k = pack(g.monos[j])
        hs.append((_divisibility_word(k, order, n, width), k, g.coeffs[j]))
    tails = {}  # divisor index -> keys and coefficients of its tail
    # pending terms: key -> coefficient, plus an ascending list that holds
    # each pending key once (every new key is below the popped one, so a
    # popped key never comes back); a cancelled key keeps a zero until
    # the list yields it. A sorted list rather than heapq: bisect comes
    # loaded with random, while loading the _heapq extension adds about
    # 0.1 MB of resident memory, and the list was measured no slower.
    p = dict(zip(map(pack, f.monos), f.coeffs))
    pending = sorted(p)
    rem_words, rem_coeffs = [], []
    while pending:
        k = pending.pop()
        c = p.pop(k)
        if not c:
            continue
        w = k if lex else -k & full
        if w & guard:
            return None
        wg = w | guard
        for i, (hw, hk, hc) in enumerate(hs):
            if (wg - hw) & guard == guard:
                break
        else:
            rem_words.append(w)
            rem_coeffs.append(c)
            continue
        tail = tails.get(i)
        if tail is None:
            g, j = divisors[i], leads[i]
            monos = g.monos[:j] + g.monos[j + 1:]
            if _top_exponent(ring, monos) >= half:
                return None
            tail = tails[i] = (
                list(map(pack, monos)), g.coeffs[:j] + g.coeffs[j + 1:])
        qk = k - hk
        nq = -c / hc
        for tk, tc in zip(*tail):
            mk = qk + tk
            s = p.get(mk)
            if s is None:
                p[mk] = nq * tc
                insort(pending, mk)
            else:
                p[mk] = s + nq * tc
    if not tails:  # no term was divisible
        return f
    shifts = _field_shifts(n, order, width)
    mask = (1 << width) - 1
    acc = {tuple(w >> s & mask for s in shifts): c
           for w, c in zip(rem_words, rem_coeffs)}
    return Poly._raw(ring, *_canonical_terms(ring, acc))


def s_polynomial(p, q, order="lex"):
    """S(p, q) = (L/LT(p)) p - (L/LT(q)) q with L = lcm of the leading
    monomials: a throwaway whose monomials stay out of the ring's table."""
    if p.ring != q.ring:
        raise ValueError("ring mismatch in s_polynomial")
    if p.is_zero() or q.is_zero():
        raise ValueError("s_polynomial of a zero polynomial")
    pm, pc = p.leading_term(order)
    qm, qc = q.leading_term(order)
    L = mono_lcm(pm, qm)
    one = p.ring.field.one()
    acc = {}
    for g, gm, k in ((p, pm, one / pc), (q, qm, -one / qc)):
        u = mono_div(L, gm)
        for m, c in zip(g.monos, g.coeffs):
            m = mono_mul(m, u)
            acc[m] = acc[m] + c * k if m in acc else c * k
    monos = sorted((m for m, c in acc.items() if c), reverse=True)
    return Poly._raw(p.ring, tuple(monos), tuple(map(acc.__getitem__, monos)))


def rehome(polys, ring):
    """Yield each of polys rebuilt in ``ring``, with the same variables:
    coefficients through ``ring.field.coerce`` (zeros drop out), one
    instance per value across all of polys, and the ring's monomials."""
    intern = ring._monos.setdefault
    share = {}.setdefault
    coerce = ring.field.coerce
    for p in polys:
        if p.ring.vars != ring.vars:
            raise ValueError("variable mismatch")
        monos, coeffs = [], []
        for m, c in zip(p.monos, map(coerce, p.coeffs)):
            if c:
                monos.append(intern(m, m))
                coeffs.append(share(c, c))
        yield Poly._raw(ring, tuple(monos), tuple(coeffs))
