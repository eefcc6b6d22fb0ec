"""Multivariate polynomials with exact coefficients.

Terms are stored sparsely as ``{exponent tuple: coefficient}`` over a fixed
number of variables.  Coefficients are Fractions (or floats when a caller
insists); evaluation is ring-generic, so a polynomial can be evaluated on
floats, Fractions, or :class:`~varjet.fwd.Jet` scalars alike.

A small ``ast``-based parser turns expression strings like
``"2*x1^2*x2 - 1/3"`` into polynomials.
"""

from __future__ import annotations

import ast
from fractions import Fraction


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        c = _ratio(c)
        return Poly(nvars, {(0,) * nvars: c} if c != 0 else {})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): Fraction(1)})

    # -- algebra -----------------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other):
        o = self._wrap(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._wrap(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff(self, i: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return Poly(self.nvars, out)

    def diff_multi(self, exponents) -> "Poly":
        p = self
        for i, k in enumerate(exponents):
            for _ in range(k):
                p = p.diff(i)
        return p

    def eval(self, point):
        """Evaluate at a point whose entries live in any ring."""
        total = 0
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * point[i]
            total = term + total
        return total

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def map_coeff(self, f) -> "Poly":
        return Poly(self.nvars, {e: f(c) for e, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"v{i}^{k}" if k > 1 else f"v{i}"
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _ratio(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class PolyParseError(ValueError):
    """Expression rejected by the polynomial parser."""


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_poly(text: str, names: dict[str, int], nvars: int) -> Poly:
    """Parse an arithmetic expression over named variables into a Poly.

    Only +, -, *, /, integer powers, integer and decimal literals and the
    given variable names are accepted.  Division is only allowed by nonzero
    constants.  `^` is accepted as a power synonym.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise PolyParseError(f"syntax error in {text!r}: {exc.msg}") from exc

    def build(node) -> Poly:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return Poly.constant(nvars, Fraction(node.value))
            if isinstance(node.value, float):
                return Poly.constant(nvars, Fraction(str(node.value)))
            raise PolyParseError(f"literal {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise PolyParseError(f"unknown variable {node.id!r}")
            return Poly.variable(nvars, names[node.id])
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return -build(node.operand)
            if isinstance(node.op, ast.UAdd):
                return build(node.operand)
            raise PolyParseError("unary operator not allowed")
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            if isinstance(node.op, ast.Pow):
                if not (isinstance(node.right, ast.Constant)
                        and isinstance(node.right.value, int)
                        and node.right.value >= 0):
                    raise PolyParseError("power must be a non-negative integer")
                return build(node.left) ** node.right.value
            left, right = build(node.left), build(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            # Div
            if right.degree() > 0 or right.is_zero():
                raise PolyParseError("division only by nonzero constants")
            c = next(iter(right.terms.values()))
            return left.map_coeff(lambda a: a / c)
        raise PolyParseError(f"construct {ast.dump(node)[:40]}... not allowed")

    return build(tree)
