"""Multivariate polynomials over Q or Q(zeta_n) with exact coefficients.

Monomials are dense exponent tuples, and each ``Ring`` hands out one
shared tuple per distinct monomial: every polynomial built in the ring
refers to the same tuple object for the same monomial. The table keeps
every monomial the ring's polynomials have used, so a run that makes
many throwaway polynomials works in a scratch ring and moves its result
back with ``rehome``. A polynomial
keeps its terms as a tuple sorted strictly decreasing in lex order,
which makes the term list a canonical form: two polynomials are equal
iff their ring and term tuples are equal. Supported term orders are
"lex" and "grevlex"; both refine total degree comparisons the usual
way, with variable 0 largest.

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

import operator
from bisect import insort

from .exact import field_from_json

__all__ = [
    "monomial_key",
    "mono_mul",
    "mono_div",
    "mono_lcm",
    "mono_divides",
    "mono_degree",
    "Ring",
    "Poly",
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


def mono_degree(a):
    return sum(a)


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
    """The nonzero terms of a monomial -> coefficient dict, strictly
    decreasing in lex order, with the ring's shared monomials: the term
    tuple of a Poly."""
    intern = ring._monos.setdefault
    return tuple(
        (intern(m, m), acc[m]) for m in sorted(acc, reverse=True) if acc[m]
    )


def _check_mono(ring, mono):
    """mono as a tuple of ints; ValueError unless it is an exponent
    vector of the ring."""
    mono = tuple(map(operator.index, mono))
    if len(mono) != ring.arity or any(e < 0 for e in mono):
        raise ValueError(f"bad exponent vector {mono}")
    return mono


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

class Ring:
    """A named variable list over a coefficient field descriptor.

    A ring also keeps the table of its monomials, which maps each
    exponent tuple that a polynomial of the ring has used, also one long
    gone, to its one shared instance; hence a run keeps its
    intermediates in a scratch ``Ring(vars, field)``. The table is no
    part of the ring's value: it takes no part in ``==``, ``hash`` or
    ``to_json``.
    """

    __slots__ = ("vars", "field", "_monos")

    def __init__(self, vars, field):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_monos", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

    @property
    def arity(self):
        return len(self.vars)

    def index(self, name):
        return self.vars.index(name)

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.vars == other.vars
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.vars, self.field))

    def __repr__(self):
        return f"Ring({list(self.vars)}, {self.field!r})"

    def to_json(self):
        """The ring header {"vars", "field"} of every file that stores
        polynomials."""
        return {"vars": list(self.vars), "field": self.field.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(obj["vars"]), field_from_json(obj["field"]))


class Poly:
    """Immutable multivariate polynomial with canonical lex term order."""

    __slots__ = ("ring", "terms", "_lt_cache")

    def __init__(self, ring, terms, _canonical=False):
        object.__setattr__(self, "ring", ring)
        if _canonical:
            object.__setattr__(self, "terms", terms)
        else:
            acc = {}
            for mono, coeff in terms:
                mono = _check_mono(ring, mono)
                c = ring.field.coerce(coeff)
                acc[mono] = acc[mono] + c if mono in acc else c
            object.__setattr__(self, "terms", _canonical_terms(ring, acc))
        object.__setattr__(self, "_lt_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, (), _canonical=True)

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
        i = which if isinstance(which, int) else ring.index(which)
        mono = tuple(1 if j == i else 0 for j in range(ring.arity))
        return cls(ring, ((mono, ring.field.one()),))

    @classmethod
    def from_dict(cls, ring, d):
        return cls(ring, list(d.items()))

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (
            len(self.terms) == 1 and not any(self.terms[0][0])
        )

    def constant_value(self):
        if not self.terms:
            return self.ring.field.zero()
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[0][1]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(mono_degree(m) for m, _ in self.terms)

    def support(self):
        """Indices of variables that actually occur."""
        seen = set()
        for m, _ in self.terms:
            for i, e in enumerate(m):
                if e:
                    seen.add(i)
        return seen

    def leading_term(self, order="lex"):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        cached = self._lt_cache.get(order)
        if cached is None:
            if order == "lex":
                cached = self.terms[0]
            else:
                key = monomial_key(order)
                cached = max(self.terms, key=lambda t: key(t[0]))
            self._lt_cache[order] = cached
        return cached

    def leading_monomial(self, order="lex"):
        return self.leading_term(order)[0]

    def leading_coeff(self, order="lex"):
        return self.leading_term(order)[1]

    def monic(self, order="lex"):
        if not self.terms:
            return self
        lc = self.leading_coeff(order)
        if lc == 1:
            return self
        inv = self.ring.field.one() / lc
        return Poly(
            self.ring,
            tuple((m, c * inv) for m, c in self.terms),
            _canonical=True,
        )

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.ring, other)
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc[m] + c if m in acc else c
        return Poly(self.ring, _canonical_terms(self.ring, acc), _canonical=True)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Poly(
            self.ring, tuple((m, -c) for m, c in self.terms), _canonical=True
        )

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
            return Poly(
                self.ring,
                tuple((m, k * c) for m, k in self.terms),
                _canonical=True,
            )
        self._check_ring(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc[m] + c1 * c2 if m in acc else c1 * c2
        return Poly(self.ring, _canonical_terms(self.ring, acc), _canonical=True)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers need a non-negative int")
        result = Poly.one(self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def mul_term(self, mono, coeff):
        """Multiply by a single term; used by the S-polynomials."""
        mono = _check_mono(self.ring, mono)
        coeff = self.ring.field.coerce(coeff)
        if not coeff:
            return Poly.zero(self.ring)
        intern = self.ring._monos.setdefault
        terms = []
        for m, c in self.terms:
            m = mono_mul(m, mono)
            terms.append((intern(m, m), c * coeff))
        return Poly(self.ring, tuple(terms), _canonical=True)

    # -- evaluation -----------------------------------------------------------

    def eval_exact(self, point):
        """Exact evaluation; point entries may live in a larger field."""
        if len(point) != self.ring.arity:
            raise ValueError("point arity mismatch")
        total = self.ring.field.zero()
        for m, c in self.terms:
            acc = c
            for i, e in enumerate(m):
                if e:
                    acc = acc * point[i] ** e
            total = total + acc
        return total

    # -- comparisons and hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- rendering --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        parts = []
        for m, c in self.terms:
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.ring.vars[i])
                elif e > 1:
                    factors.append(f"{self.ring.vars[i]}^{e}")
            body = "*".join(factors)
            cs = field.render(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if body:
                if cs == "1" and "@" not in cs:
                    text = body
                else:
                    text = f"({cs})*{body}"
            else:
                text = cs if ("/" not in cs and "@" not in cs) else f"({cs})"
            if not parts:
                parts.append(("-" if neg else "") + text)
            else:
                parts.append((" - " if neg else " + ") + text)
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"

    # -- serialization ------------------------------------------------------------

    def terms_to_json(self):
        """Just the term list; ring data comes from the enclosing object."""
        return [
            {"c": self.ring.field.render(c), "e": list(m)}
            for m, c in self.terms
        ]

    @classmethod
    def terms_from_json(cls, term_list, ring):
        terms = [(tuple(t["e"]), ring.field.parse(t["c"])) for t in term_list]
        return cls(ring, terms)

    def with_field(self, field):
        """Coerce every coefficient into another coefficient field."""
        return next(rehome([self], Ring(self.ring.vars, field)))


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
    the module docstring."""
    divisors = [g for g in divisors if not g.is_zero()]
    if any(g.ring != f.ring for g in divisors):
        raise ValueError("ring mismatch in division")
    if not divisors:
        return f
    heads = [g.leading_term(order) for g in divisors]
    top = _top_exponent(f.ring, (m for m, _ in (*f.terms, *heads)))
    width = max(_MIN_WIDTH, top.bit_length() + 1)
    while True:
        rem = _divide(f, divisors, heads, order, width)
        if rem is not None:
            return rem
        width *= 2


def _divide(f, divisors, heads, order, width):
    """reduce_poly on packed keys of ``width``-bit fields, or None when
    a divisor tail or a leading term reaches the bound 2**(width - 1).
    f and the heads must be within the bound."""
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
    for m, c in heads:
        k = pack(m)
        hs.append((_divisibility_word(k, order, n, width), k, c))
    tails = {}  # divisor index -> its packed tail, built on first use
    # pending terms: key -> coefficient, plus an ascending list that holds
    # each pending key once (every new key is below the popped one, so a
    # popped key never comes back); a cancelled key keeps a zero until
    # the list yields it. A sorted list rather than heapq: bisect comes
    # loaded with random, while loading the _heapq extension adds about
    # 0.1 MB of resident memory, and the list was measured no slower.
    p = {pack(m): c for m, c in f.terms}
    pending = sorted(p)
    rem = []
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
            rem.append((w, c))
            continue
        tail = tails.get(i)
        if tail is None:
            gm = heads[i][0]
            tail = [(m, tc) for m, tc in divisors[i].terms if m is not gm]
            if _top_exponent(ring, (m for m, _ in tail)) >= half:
                return None
            tail = tails[i] = [(pack(m), tc) for m, tc in tail]
        qk = k - hk
        nq = -c / hc
        for tk, tc in tail:
            mk = qk + tk
            s = p.get(mk)
            if s is None:
                p[mk] = nq * tc
                insort(pending, mk)
            else:
                p[mk] = s + nq * tc
    shifts = _field_shifts(n, order, width)
    mask = (1 << width) - 1
    acc = {tuple(w >> s & mask for s in shifts): c for w, c in rem}
    return Poly(ring, _canonical_terms(ring, acc), _canonical=True)


def s_polynomial(p, q, order="lex"):
    """S(p, q) = (L/LT(p)) p - (L/LT(q)) q with L = lcm of the leading monomials."""
    if p.ring != q.ring:
        raise ValueError("ring mismatch in s_polynomial")
    if p.is_zero() or q.is_zero():
        raise ValueError("s_polynomial of a zero polynomial")
    pm, pc = p.leading_term(order)
    qm, qc = q.leading_term(order)
    L = mono_lcm(pm, qm)
    one = p.ring.field.one()
    left = p.mul_term(mono_div(L, pm), one / pc)
    right = q.mul_term(mono_div(L, qm), one / qc)
    return left - right


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
        terms = ((m, coerce(c)) for m, c in p.terms)
        yield Poly(ring, tuple(
            (intern(m, m), share(c, c)) for m, c in terms if c
        ), _canonical=True)
