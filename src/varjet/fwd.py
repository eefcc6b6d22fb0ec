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
share code with the float paths.  The ring rule: a Jet with a `Fraction`
coefficient reads a Fraction for every term it stores, a stored zero
included (a term it does not store reads int 0, as in every ring), and
every other Jet is computed as the plain ring operations give it.  A Fraction-bearing Jet stores
integer numerators `num` over one positive denominator `den`, with no common
factor of `den` and all numerators: the fraction-free form of `linalg`
(Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992).  A
product convolves the integers over den1 den2, a sum scales each operand by
lcm/den, and each result is divided once by the gcd of its `den` and
numerators, so no `Fraction` is formed per pair of terms; `coef`, `deriv`
and `value` form one per read.  Every other Jet has `den` None and stores its
coefficients in `num`.  A Jet of ints that meets an exact Jet or a Fraction
scalar joins the integer form (over 1); an exact Jet that meets any other
ring is read as Fractions, and the plain operation runs.

Every reciprocal 1/a is taken in the ring of a, as `ring_unit(a) / a` (an int
is the Fraction it is): a scalar divisor's, and those of the one binomial
series behind 1/(a0 + h) and sqrt(a0 + h).  `Jet.variable` refuses a Jet
value.  `partial` multiplies by exponent counts above 1 only, and `a - b`
subtracts into one copy of a's terms.  `jet_sum` is the one way to sum many
Jets: one dict, truncated at the order it is given; exact terms are summed
as integers with their weights folded into their scales, and in the plain
path the int weights 1 and -1 are applied without a multiply.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import repeat

from .linalg import integer_scaled

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


class _Quotients(Mapping):
    """Read view of an exact Jet's coefficients: num[k] / den, one `Fraction`
    per read."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num, self._den = num, den

    def __getitem__(self, key):
        return _quotient(self._num[key], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __repr__(self):
        return repr(dict(self))


class Jet:
    """Truncated multivariate Taylor scalar (forward-mode AD value).

    `num` and `den` are its storage (see the module docstring); its
    coefficients are read through `coef`, `deriv` and `value`."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coef=None):
        """`coef` maps packed keys to coefficients; int and Fraction values
        with a Fraction among them are stored over their lcm denominator."""
        if order > _MAX_ORDER:
            raise ValueError(f"jet order {order} exceeds the packed-key limit {_MAX_ORDER}")
        self.order = order
        self.num, self.den = _storage({} if coef is None else coef)

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
    def coef(self):
        """The coefficients by packed key: the stored dict, or for an exact
        Jet a read view that forms each Fraction when it is read."""
        return self.num if self.den is None else _Quotients(self.num, self.den)

    @property
    def value(self):
        if self.den is None:
            return self.num.get(0, 0)
        c = self.num.get(0)
        return 0 if c is None else _quotient(c, self.den)

    def deriv(self, *vars: int):
        """Partial derivative w.r.t. the listed variables (with repetition)."""
        if len(vars) > self.order:
            raise ValueError(f"jet truncated at order {self.order}, asked {vars}")
        key = len(vars)                     # key_from_vars(vars), inline
        for v in vars:
            key += 1 << (_VAR_SHIFT + _VAR_BITS * v)
        if self.den is not None:
            c = self.num.get(key)
            return 0 if c is None else _quotient(c * key_multiplicity(vars), self.den)
        c = self.num.get(key, 0)
        if c == 0:
            return c
        return c * key_multiplicity(vars)

    @property
    def exact(self) -> bool:
        """Every coefficient is an int or a Fraction."""
        return self.den is not None or all(isinstance(c, (int, Fraction))
                                           for c in self.num.values())

    def partial(self, var: int) -> "Jet":
        """Formal partial derivative as a jet of one order lower."""
        shift = _VAR_SHIFT + _VAR_BITS * var
        dec = (1 << shift) + 1
        out: dict = {}
        for key, c in self.num.items():
            cnt = (key >> shift) & 7
            if not cnt:
                continue
            nk = key - dec
            nc = c if cnt == 1 else c * cnt
            acc = out.get(nk)
            out[nk] = nc if acc is None else acc + nc
        return _jet(self.order - 1, out, self.den)

    def without(self, ids) -> "Jet":
        """Drop all terms involving the variables `ids`."""
        mask = 0
        for v in ids:
            mask |= 7 << (_VAR_SHIFT + _VAR_BITS * v)
        return _jet(self.order, {k: c for k, c in self.num.items() if not k & mask},
                    self.den)

    def truncated(self, order: int) -> "Jet":
        return _jet(order, _below(self.num, order), self.den)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float, complex, Fraction)) or hasattr(other, "__mul__"):
            return Jet.constant(other, self.order)
        return None

    def _combine(self, other, sub: bool):
        """self + other, or self - other when `sub`."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        if self.den is None and o.den is None:
            a, da, b, db = self.num, None, o.num, None
        else:
            a, da, b, db = _operands(self, o)
        out = dict(a) if self.order == order else _below(a, order)
        if o.order != order:
            b = _below(b, order)
        if da != db:
            den = math.lcm(da, db)
            if den != da:
                out = {k: n * (den // da) for k, n in out.items()}
            if den != db:
                b = {k: n * (den // db) for k, n in b.items()}
            da = den
        get = out.get
        if sub:
            for k, c in b.items():
                acc = get(k)
                s = -c if acc is None else acc - c
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        else:
            for k, c in b.items():
                acc = get(k)
                s = c if acc is None else acc + c
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return _jet(order, out, da)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.order, {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return Jet.constant(other, self.order) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if not isinstance(other, (int, float, complex, Fraction)):
                return NotImplemented
            if self.den is None and type(other) is not Fraction:
                if other == 0:
                    return _jet(self.order, {}, None)
                return _jet(self.order, {k: c * other for k, c in self.num.items()}, None)
            return self._scaled(other)
        cap = min(self.order, other.order)
        if self.den is None and other.den is None:
            a, da, b, db = self.num, None, other.num, None
        else:
            a, da, b, db = _operands(self, other)
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
            for k2, c2 in part:
                key = k1 + k2
                p = c1 * c2
                acc = get(key)
                out[key] = p if acc is None else acc + p
        if len(out) > 2 * (len(a) + len(b)):
            out = {k: c for k, c in out.items() if c != 0}
        return _jet(cap, out, da if da is None else da * db)

    __rmul__ = __mul__

    def _scaled(self, s):
        """self * s for a scalar s when self is exact or s a Fraction: in
        the integer form when both are rational, else coefficient by
        coefficient on self's Fractions."""
        ints = _integers(self) if isinstance(s, (int, Fraction)) else None
        if ints is not None:
            p = s.numerator
            return _jet(self.order, {k: n * p for k, n in ints[0].items()} if p else {},
                        ints[1] * s.denominator)
        if s == 0:
            return _jet(self.order, {}, None)
        return _jet(self.order, {k: c * s for k, c in _coefficients(self).items()}, None)

    def _binomial(self, alpha: Fraction, s0) -> "Jet":
        """(a0 + h)^alpha = s0 sum_k C(alpha, k) (h/a0)^k for the nilpotent
        part h, given s0 = a0^alpha, with 1/a0 and the weights
        C(alpha, k)/C(alpha, k-1) taken in the ring of a0."""
        a0 = self.value
        one = ring_unit(a0)
        u = _jet(self.order, {k: c for k, c in self.num.items() if k}, self.den) * (one / a0)
        acc = term = Jet.constant(s0, self.order)
        for k in range(1, self.order + 1):
            w = (alpha - (k - 1)) / k
            term = term * u * (one * w.numerator / w.denominator)
            if not term.num:
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


_new = object.__new__


def _quotient(n: int, den: int) -> Fraction:
    """n / den as a Fraction (den > 0); over 1 without the gcd."""
    return Fraction(n) if den == 1 else Fraction(n, den)


def _jet(order: int, num: dict, den) -> Jet:
    """A Jet of the storage (num, den), without the type scan: an exact one
    divided by the gcd of den and its numerators."""
    if den is not None and den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {k: n // g for k, n in num.items()}
            den //= g
    j = _new(Jet)
    j.order = order
    j.num = num
    j.den = den
    return j


def _storage(coef) -> tuple:
    """(num, den) for the coefficients `coef`: their `integer_scaled`
    numerators and lcm denominator when a Fraction is among them and every
    one is an int or a Fraction, else `coef` itself and None."""
    if isinstance(coef, _Quotients):
        return coef._num, coef._den
    scaled = (integer_scaled(coef.values())
              if any(type(c) is Fraction for c in coef.values()) else None)
    if scaled is None:
        return coef, None
    return dict(zip(coef, scaled[0])), scaled[1]


def _below(terms: dict, order: int) -> dict:
    return {k: c for k, c in terms.items() if (k & _DEG_MASK) <= order}


def _integers(j: Jet):
    """(numerators, den) of j when it is exact or holds ints only, else None."""
    if j.den is not None:
        return j.num, j.den
    for c in j.num.values():
        if type(c) is not int:
            return None
    return j.num, 1


def _coefficients(j: Jet) -> dict:
    return j.num if j.den is None else {k: _quotient(n, j.den) for k, n in j.num.items()}


def _operands(x: Jet, y: Jet) -> tuple:
    """(x terms, x den, y terms, y den) in one storage, for x and y of which
    one is exact: the integer form when both are rational, else the
    coefficients (the exact operand's as Fractions) with dens None."""
    if x.den is not None and y.den is not None:
        return x.num, x.den, y.num, y.den
    ix, iy = _integers(x), _integers(y)
    if ix is None or iy is None:
        return _coefficients(x), None, _coefficients(y), None
    return ix + iy


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
        if v.den is not None:
            return Fraction(1)
        v = next(iter(v.num.values()), 0)
    return Fraction(1) if isinstance(v, (int, Fraction)) else 1.0


def jet_sum(order: int, terms, weights=None) -> Jet:
    """sum_t w_t terms[t] as one Jet of `order`, summed in one dict, without
    the terms above `order` or the sums that cancel to 0.  The weights
    default to 1.  A term that is not a Jet is a constant.  When a term is
    exact, every term rational and every weight an int or a Fraction, the
    sum runs over integers: each term's numerators times its weight's,
    over the lcm of the products of their dens.  Otherwise an int weight 1
    or -1 adds or subtracts each coefficient, and any other is applied as
    `term * w`."""
    terms = [t if isinstance(t, Jet) else Jet.constant(t, order) for t in terms]
    weights = [1] * len(terms) if weights is None else list(weights)
    out: dict = {}
    get = out.get
    den = None
    if any(t.den is not None for t in terms):
        ints = [_integers(t) for t in terms]
        if all(ints) and all(type(w) is int or type(w) is Fraction for w in weights):
            dens = [d * w.denominator for (_, d), w in zip(ints, weights)]
            den = math.lcm(*dens)
            for (num, _), w, d in zip(ints, weights, dens):
                scale = w.numerator * (den // d)
                for k, c in num.items():
                    acc = get(k)
                    out[k] = c * scale if acc is None else acc + c * scale
    if den is None:
        for term, w in zip(terms, weights):
            neg = type(w) is int and w == -1
            if not neg and not (type(w) is int and w == 1):
                term = term * w
            if neg:
                for k, c in _coefficients(term).items():
                    acc = get(k)
                    out[k] = -c if acc is None else acc - c
            else:
                for k, c in _coefficients(term).items():
                    acc = get(k)
                    out[k] = c if acc is None else acc + c
    return _jet(order, {k: c for k, c in out.items() if c != 0 and k & _DEG_MASK <= order},
                den)


def value_of(x):
    return x.value if isinstance(x, Jet) else x
