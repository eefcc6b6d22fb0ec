"""Forward-mode derivative propagation with truncated Taylor scalars.

A :class:`Jet` is a multivariate Taylor expansion truncated at a fixed total
order.  Coefficients are stored sparsely in a dict keyed by packed integer
monomials: bits 0..4 hold the total degree, and variable ``v`` occupies the
3-bit field starting at bit ``5 + 3 v``.  Multiplying monomials is then a
single integer addition, and the truncation test is ``(k1 + k2) & 31 <= order``.
A 3-bit field holds exponents up to 7, so a Jet of order above 7 is refused
(exponent 8 would carry into the next variable's field).
Coefficients are stored in the *normalized* (Taylor) convention — the
coefficient on a monomial is the partial derivative divided by the monomial's
multiplicity factorial — so multiplication is a plain convolution.

The class works over any coefficient ring with ``+ - * /`` (floats,
Fractions, complex, Gaussian rationals, even other Jets), which is what lets
the exact-arithmetic paths share code with the float paths.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
        c = self.coef.get(key_from_vars(vars), 0)
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
            nc = c * cnt
            acc = out.get(nk)
            out[nk] = nc if acc is None else acc + nc
        return Jet(self.order - 1, out)

    def restricted(self, keep) -> "Jet":
        """Drop all terms involving variables outside `keep`."""
        mask = _DEG_MASK
        for v in keep:
            mask |= 7 << (_VAR_SHIFT + _VAR_BITS * v)
        return Jet(self.order, {k: c for k, c in self.coef.items()
                                if k & mask == k})

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
        out = dict(self.coef)
        for k, c in o.coef.items():
            acc = out.get(k)
            s = c if acc is None else acc + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return Jet(self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, {k: -c for k, c in self.coef.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if isinstance(other, (int, float, complex, Fraction)):
                if other == 0:
                    return Jet(self.order, {})
                return Jet(self.order, {k: c * other for k, c in self.coef.items()})
            return NotImplemented
        cap = self.order
        a, b = self.coef, other.coef
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        bi = list(b.items())
        for k1, c1 in a.items():
            r = cap - (k1 & _DEG_MASK)
            for k2, c2 in bi:
                if (k2 & _DEG_MASK) > r:
                    continue
                key = k1 + k2
                p = c1 * c2
                acc = get(key)
                out[key] = p if acc is None else acc + p
        if len(out) > 2 * (len(a) + len(b)):
            return Jet(cap, {k: c for k, c in out.items() if c != 0})
        return Jet(cap, out)

    __rmul__ = __mul__

    def _inverse(self):
        a0 = self.value
        if a0 == 0:
            raise ZeroDivisionError("jet with zero value part")
        inv0 = Fraction(1, a0) if isinstance(a0, int) else 1 / a0
        # 1/(a0 + h) as a geometric series in the nilpotent part h
        h = Jet(self.order, {k: c for k, c in self.coef.items() if k})
        u = h * inv0
        acc = Jet.constant(inv0, self.order)
        term = Jet.constant(inv0, self.order)
        for _ in range(self.order):
            term = -(term * u)
            if not term.coef:
                break
            acc = acc + term
        return acc

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._inverse()
        if isinstance(other, (int, float, complex, Fraction)):
            if isinstance(other, int):
                other = Fraction(other)
            return self * (1 / other)
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
        a0 = self.value
        s0 = ring_sqrt(a0)
        h = Jet(self.order, {k: c for k, c in self.coef.items() if k})
        u = h * (Fraction(1, a0) if isinstance(a0, int) else 1 / a0)
        # sqrt(a0) * (1 + u)^{1/2}, binomial series
        acc = Jet.constant(s0, self.order)
        term = Jet.constant(s0, self.order)
        for k in range(1, self.order + 1):
            c = Fraction(1, 2) - (k - 1)            # C(1/2,k) = C(1/2,k-1)*c/k
            term = term * u * Fraction(c.numerator, c.denominator * k)
            if not term.coef:
                break
            acc = acc + term
        return acc

    def __abs__(self):
        v = self.value
        return self if v >= 0 else -self

    def __repr__(self):
        items = ", ".join(f"{k:#x}:{c}" for k, c in list(self.coef.items())[:8])
        return f"Jet(order={self.order}, {{{items}}})"


def ring_sqrt(x):
    """Square root dispatch across the coefficient rings in use."""
    if isinstance(x, Jet):
        return x.sqrt()
    if isinstance(x, Fraction):
        rn = math.isqrt(x.numerator)
        rd = math.isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
        raise ValueError(f"no exact rational square root of {x}")
    return math.sqrt(x)


def ring_one(sample):
    """A multiplicative unit matching the ring of `sample` (exact for
    int/Fraction inputs, float otherwise)."""
    if isinstance(sample, (int, Fraction)):
        return Fraction(1)
    return 1.0


def value_of(x):
    return x.value if isinstance(x, Jet) else x
