"""Forward-mode derivative propagation with truncated Taylor scalars.

A :class:`Jet` is a multivariate Taylor expansion truncated at a fixed total
order.  Coefficients are stored sparsely in a dict keyed by packed integer
monomials: bits 0..4 hold the total degree, and variable ``v`` occupies the
3-bit field starting at bit ``5 + 3 v``.  Multiplying monomials is then a
single integer addition.  A 3-bit field holds exponents up to 7, so a Jet
of order above 7 is refused (exponent 8 would carry into the next variable's
field).  Coefficients are stored in the *normalized* (Taylor) convention —
the coefficient on a monomial is the partial derivative divided by the
monomial's multiplicity factorial — so multiplication is a plain convolution.

Jet arithmetic has one order rule, that of truncated Taylor arithmetic
(Griewank and Walther, *Evaluating Derivatives*, 2nd ed., ch. 13): a sum,
difference or product of two Jets has the lower of their orders, above which
nothing is determined, and stores no key of degree above it.  A sum filters
only the higher operand.  A product keeps a pair of terms only when their
degrees sum to at most the order, so it never scans the pairs it would drop:
each term of the shorter operand, of degree d, visits only the longer
operand's terms of degree <= order - d, listed once per product for each
such bound.

The class works over any scalar ring with ``+ - * /`` (the tests run
Fractions, floats and complex numbers), which is what lets the exact paths
share code with the float paths.  Every reciprocal 1/a is taken in the ring
of a, as `ring_unit(a) / a` (an int is the Fraction it is): a scalar
divisor's, and those of the one binomial series behind 1/(a0 + h) and
sqrt(a0 + h).  `Jet.variable` refuses a Jet value.  No
operation changes a coefficient's type, and none multiplies by 1: a term of
the shorter factor equal to the exact unit `Fraction(1)` (a seed's) passes
its Fraction partners through unmultiplied, `partial` multiplies by exponent
counts above 1 only, and `a - b` subtracts into one copy of a's dict.
`jet_sum` is the one way to sum many Jets: one dict, truncated at the order
it is given, with the int weights 1 and -1 applied without a multiply.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat

_DEG_MASK = 31
_VAR_SHIFT = 5
_VAR_BITS = 3
_MAX_ORDER = (1 << _VAR_BITS) - 1


def var_key(v: int) -> int:
    """Packed monomial for the first power of variable v."""
    return 1 + (1 << (_VAR_SHIFT + _VAR_BITS * v))


def key_from_vars(vars) -> int:
    k = 0
    for v in vars:
        k += var_key(v)
    return k


def key_multiplicity(vars) -> int:
    """Product of factorials of repetition counts in a variable list."""
    mult = 1
    seen: dict = {}
    for v in vars:
        c = seen.get(v, 0) + 1
        seen[v] = c
        mult *= c
    return mult


class Jet:
    """Truncated multivariate Taylor scalar (forward-mode AD value)."""

    __slots__ = ("order", "coef")

    def __init__(self, order: int, coef: dict | None = None):
        if order > _MAX_ORDER:
            raise ValueError(f"jet order {order} exceeds the packed-key limit {_MAX_ORDER}")
        self.order = order
        self.coef = coef if coef is not None else {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def constant(value, order: int) -> "Jet":
        return Jet(order, {0: value} if value != 0 else {})

    @staticmethod
    def variable(var: int, value, order: int, one=1) -> "Jet":
        if isinstance(value, Jet):
            raise TypeError("a Jet variable takes a scalar value, not a Jet")
        c = {var_key(var): one}
        if value != 0:
            c[0] = value
        return Jet(order, c)

    # -- readers ----------------------------------------------------------

    @property
    def value(self):
        return self.coef.get(0, 0)

    def deriv(self, *vars: int):
        """Partial derivative w.r.t. the listed variables (with repetition)."""
        if len(vars) > self.order:
            raise ValueError(f"jet truncated at order {self.order}, asked {vars}")
        key = len(vars)                     # key_from_vars(vars), inline
        for v in vars:
            key += 1 << (_VAR_SHIFT + _VAR_BITS * v)
        c = self.coef.get(key, 0)
        if c == 0:
            return c
        return c * key_multiplicity(vars)

    def partial(self, var: int) -> "Jet":
        """Formal partial derivative as a jet of one order lower."""
        shift = _VAR_SHIFT + _VAR_BITS * var
        dec = (1 << shift) + 1
        out: dict = {}
        for key, c in self.coef.items():
            cnt = (key >> shift) & 7
            if not cnt:
                continue
            nk = key - dec
            nc = c if cnt == 1 else c * cnt
            acc = out.get(nk)
            out[nk] = nc if acc is None else acc + nc
        return Jet(self.order - 1, out)

    def without(self, ids) -> "Jet":
        """Drop all terms involving the variables `ids`."""
        mask = 0
        for v in ids:
            mask |= 7 << (_VAR_SHIFT + _VAR_BITS * v)
        return Jet(self.order, {k: c for k, c in self.coef.items()
                                if not k & mask})

    def truncated(self, order: int) -> "Jet":
        return Jet(order, {k: c for k, c in self.coef.items()
                           if (k & _DEG_MASK) <= order})

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float, complex, Fraction)) or hasattr(other, "__mul__"):
            return Jet.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        out = dict(self.coef) if self.order == order else self.truncated(order).coef
        for k, c in (o.coef if o.order == order else o.truncated(order).coef).items():
            acc = out.get(k)
            s = c if acc is None else acc + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return Jet(order, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, {k: -c for k, c in self.coef.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        out = dict(self.coef) if self.order == order else self.truncated(order).coef
        for k, c in (o.coef if o.order == order else o.truncated(order).coef).items():
            acc = out.get(k)
            s = -c if acc is None else acc - c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return Jet(order, out)

    def __rsub__(self, other):
        return Jet.constant(other, self.order) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if isinstance(other, (int, float, complex, Fraction)):
                if other == 0:
                    return Jet(self.order, {})
                return Jet(self.order, {k: c * other for k, c in self.coef.items()})
            return NotImplemented
        cap = min(self.order, other.order)
        a, b = self.coef, other.coef
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        # partners[r]: the terms of b of degree <= r, in b's order, built
        # once per product for each r that some term of a needs
        partners = [None] * (cap + 1)
        for k1, c1 in a.items():
            r = cap - (k1 & _DEG_MASK)
            if r < 0:
                continue
            part = partners[r]
            if part is None:
                part = partners[r] = [kc for kc in b.items()
                                      if kc[0] & _DEG_MASK <= r]
            if type(c1) is Fraction and c1 == 1:
                # the exact unit: c2 itself, but an int c2 still comes out a Fraction
                for k2, c2 in part:
                    key = k1 + k2
                    p = c2 if type(c2) is Fraction else c1 * c2
                    acc = get(key)
                    out[key] = p if acc is None else acc + p
                continue
            for k2, c2 in part:
                key = k1 + k2
                p = c1 * c2
                acc = get(key)
                out[key] = p if acc is None else acc + p
        if len(out) > 2 * (len(a) + len(b)):
            return Jet(cap, {k: c for k, c in out.items() if c != 0})
        return Jet(cap, out)

    __rmul__ = __mul__

    def _binomial(self, alpha: Fraction, s0) -> "Jet":
        """(a0 + h)^alpha = s0 sum_k C(alpha, k) (h/a0)^k for the nilpotent
        part h, given s0 = a0^alpha, with 1/a0 and the weights
        C(alpha, k)/C(alpha, k-1) taken in the ring of a0."""
        a0 = self.value
        one = ring_unit(a0)
        u = Jet(self.order, {k: c for k, c in self.coef.items() if k}) * (one / a0)
        acc = term = Jet.constant(s0, self.order)
        for k in range(1, self.order + 1):
            w = (alpha - (k - 1)) / k
            term = term * u * (one * w.numerator / w.denominator)
            if not term.coef:
                break
            acc = acc + term
        return acc

    def _inverse(self):
        a0 = self.value
        if a0 == 0:
            raise ZeroDivisionError("jet with zero value part")
        return self._binomial(Fraction(-1), ring_unit(a0) / a0)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._inverse()
        if isinstance(other, (int, float, complex, Fraction)):
            return self * (ring_unit(other) / other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        out = Jet.constant(1, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt(self):
        return self._binomial(Fraction(1, 2), ring_sqrt(self.value))

    def __abs__(self):
        return self if self.value >= 0 else -self

    def __repr__(self):
        items = ", ".join(f"{k:#x}:{c}" for k, c in list(self.coef.items())[:8])
        return f"Jet(order={self.order}, {{{items}}})"


def ring_sqrt(x):
    """Square root in the ring of x: a Jet's binomial series, the exact root
    of an int or a Fraction (`ValueError` when it has none), `math.sqrt`
    otherwise."""
    if isinstance(x, Jet):
        return x.sqrt()
    if isinstance(x, (int, Fraction)):
        rn = math.isqrt(x.numerator)
        rd = math.isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
        raise ValueError(f"no exact rational square root of {x}")
    return math.sqrt(x)


def ring_unit(v):
    """1 in the ring of the scalars of v, a scalar or a Jet: `Fraction(1)`
    for int and Fraction scalars, 1.0 otherwise.  The ring rule: 1/a is
    `ring_unit(a) / a`, and a weight `ring_unit(v) / 2` keeps float data off
    `Fraction`'s reverse operators and exact data (ints too) exact.  A zero
    Jet gives `Fraction(1)`, correct in every ring."""
    if isinstance(v, Jet):
        v = next(iter(v.coef.values()), 0)
    return Fraction(1) if isinstance(v, (int, Fraction)) else 1.0


def jet_sum(order: int, terms, weights=None) -> Jet:
    """sum_t w_t terms[t] as one Jet of `order`, summed in one dict, without
    the terms above `order` or the sums that cancel to 0.  The weights
    default to 1; an int weight 1 or -1 adds or subtracts each coefficient,
    any other is applied as `term * w`.  A term that is not a Jet is a
    constant."""
    out: dict = {}
    get = out.get
    for term, w in zip(terms, repeat(1) if weights is None else weights):
        neg = type(w) is int and w == -1
        if not neg and not (type(w) is int and w == 1):
            term = term * w
        for k, c in (term.coef if isinstance(term, Jet) else {0: term}).items():
            acc = get(k)
            if neg:
                out[k] = -c if acc is None else acc - c
            else:
                out[k] = c if acc is None else acc + c
    return Jet(order, {k: c for k, c in out.items()
                       if c != 0 and k & _DEG_MASK <= order})


def value_of(x):
    return x.value if isinstance(x, Jet) else x
