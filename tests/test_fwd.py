"""Sanity of the forward-mode Taylor scalars against analytic derivatives."""

from fractions import Fraction
import math
import operator
import random

import pytest

from varjet.fwd import (Jet, jet_sum, key_from_vars, key_multiplicity, ring_sqrt,
                        ring_unit, var_key)


def test_product_rule_second_order():
    x = Jet.variable(0, 2.0, 2)
    y = Jet.variable(1, 3.0, 2)
    f = x * x * y + y
    assert f.value == 15.0
    assert f.deriv(0) == 12.0
    assert f.deriv(1) == 5.0
    assert f.deriv(0, 0) == 6.0
    assert f.deriv(0, 1) == 4.0
    assert f.deriv(1, 1) == 0.0


def test_division_and_sqrt_float():
    random.seed(3)
    for _ in range(20):
        a, b = random.uniform(0.5, 2.0), random.uniform(0.5, 2.0)
        x = Jet.variable(0, a, 3)
        y = Jet.variable(1, b, 3)
        f = (x * x + y).sqrt() / y
        g = lambda u, v: math.sqrt(u * u + v) / v
        h = 1e-5
        fd_x = (g(a + h, b) - g(a - h, b)) / (2 * h)
        fd_xx = (g(a + h, b) - 2 * g(a, b) + g(a - h, b)) / h**2
        assert abs(f.value - g(a, b)) < 1e-14
        assert abs(f.deriv(0) - fd_x) < 1e-8
        assert abs(f.deriv(0, 0) - fd_xx) < 1e-5


def test_exact_rational_third_order():
    x = Jet.variable(0, Fraction(2), 3)
    f = 1 / (1 + x)          # derivatives: -1/9, 2/27, -6/81 at x=2
    assert f.value == Fraction(1, 3)
    assert f.deriv(0) == Fraction(-1, 9)
    assert f.deriv(0, 0) == Fraction(2, 27)
    assert f.deriv(0, 0, 0) == Fraction(-6, 81)


def test_sqrt_exact_at_one():
    x = Jet.variable(0, Fraction(1), 3)
    f = x.sqrt()
    assert f.value == 1
    assert f.deriv(0) == Fraction(1, 2)
    assert f.deriv(0, 0) == Fraction(-1, 4)
    assert f.deriv(0, 0, 0) == Fraction(3, 8)


def _scalar_types(v):
    return {type(c) for c in v.coef.values()}


def test_sqrt_coefficients_stay_in_the_ring_of_the_value(monkeypatch):
    """The binomial coefficients of sqrt are taken in the ring of the
    scalars: float Jets never reach Fraction's reverse operators and stay
    bit-identical to multiplying by the Fraction C(1/2, k) (int/int division
    and float(Fraction) round alike), exact Jets stay exact, and a Jet of
    Jets cannot be built."""
    def by_fractions(a):
        # the binomial series with Fraction coefficients
        a0 = a.value
        u = Jet(a.order, {k: c for k, c in a.coef.items() if k}) * (1 / a0)
        acc = term = Jet.constant(ring_sqrt(a0), a.order)
        for k in range(1, a.order + 1):
            c = Fraction(1, 2) - (k - 1)
            term = term * u * Fraction(c.numerator, c.denominator * k)
            acc = acc + term
        return acc

    x, y = Jet.variable(0, 1.7, 3), Jet.variable(1, -0.3, 3)
    f = x * x + y * x + 0.9
    fallbacks = []
    rmul = Fraction.__rmul__
    monkeypatch.setattr(Fraction, "__rmul__",
                        lambda b, a: fallbacks.append(a) or rmul(b, a))
    assert _scalar_types(f.sqrt()) == {float} and fallbacks == []
    monkeypatch.undo()
    assert f.sqrt().coef == by_fractions(f).coef
    with pytest.raises(TypeError):
        Jet.variable(2, f, 2, 1.0)
    xq = Jet.variable(0, Fraction(9, 4), 3)
    g = xq * xq + Jet.variable(1, Fraction(0), 3)
    assert _scalar_types(g.sqrt()) == {Fraction}
    square = g.sqrt() * g.sqrt()
    assert {k: c for k, c in square.coef.items() if c} == g.coef


def test_partial_jet():
    x = Jet.variable(0, 1.5, 3)
    y = Jet.variable(1, -0.5, 3)
    f = x * x * y
    fx = f.partial(0)
    assert fx.value == 2 * 1.5 * -0.5
    assert fx.deriv(0) == 2 * -0.5
    assert fx.deriv(1) == 2 * 1.5


def test_power_and_abs():
    x = Jet.variable(0, -2.0, 2)
    f = abs(x) ** 3
    assert f.value == 8.0
    assert f.deriv(0) == -12.0     # d|x|^3/dx = 3x^2 sign(x)


def test_ring_sqrt_rational():
    assert ring_sqrt(Fraction(9, 4)) == Fraction(3, 2)


def test_ring_sqrt_takes_an_int_as_the_fraction_it_is():
    root = ring_sqrt(4)
    assert root == 2 and type(root) is Fraction
    with pytest.raises(ValueError):
        ring_sqrt(2)
    # so a Jet with an int value part has an exact root and reciprocal
    x = Jet.variable(0, 4, 3, 1)
    assert _scalar_types(x.sqrt()) == {Fraction} == _scalar_types(1 / x)
    square = x.sqrt() * x.sqrt()
    assert {k: c for k, c in square.coef.items() if c} == {0: 4, var_key(0): 1}
    assert _scalar_types(x / 3) == {Fraction}


def test_float_reciprocal_is_the_geometric_series():
    """The binomial series at exponent -1 is the geometric series
    sum_k (-u)^k / a0, u = h / a0, bit for bit: its weight -1 is an exact
    sign flip."""
    x, y = Jet.variable(0, 1.7, 3), Jet.variable(1, -0.3, 3)
    f = x * x + y * x + 0.9
    inv0 = 1 / f.value
    u = Jet(f.order, {k: c for k, c in f.coef.items() if k}) * inv0
    acc = term = Jet.constant(inv0, f.order)
    for _ in range(f.order):
        term = -(term * u)
        acc = acc + term
    assert (1 / f).coef == acc.coef


def test_order_above_packed_key_limit_is_refused():
    # Each variable has a 3-bit exponent field: at order 8, x0**8 would carry
    # into x1's field, so (x0**8).partial(1) came out nonzero and
    # .without([1]) dropped the term.  Such jets must not be built.
    with pytest.raises(ValueError):
        Jet.variable(0, 0.0, 8)
    with pytest.raises(ValueError):
        Jet.constant(1.0, 8)
    # order 7 is the largest that packs faithfully
    f = Jet.variable(0, 0.0, 7) ** 7
    assert f.deriv(*[0] * 7) == math.factorial(7)
    assert f.partial(1).coef == {}
    assert f.without([1]).coef == f.coef



# -- the product kernel against an all-pairs reference -----------------------

def _all_pairs_product(x, y, prune=True):
    """Truncated convolution scanning every pair of terms: the result has
    the lower order of x and y, pairs whose degrees sum above it are dropped,
    and zeros are pruned once the result outgrows twice the operands."""
    cap = min(x.order, y.order)
    a, b = x.coef, y.coef
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if (k1 & 31) + (k2 & 31) > cap:
                continue
            key = k1 + k2
            out[key] = c1 * c2 if key not in out else out[key] + c1 * c2
    if prune and len(out) > 2 * (len(a) + len(b)):
        out = {k: c for k, c in out.items() if c != 0}
    return out


def _random_jet(rng, order, ring, nterms):
    """Sparse jet over 4 variables with some terms above its own order and
    small coefficients, so that products cancel now and then."""
    coef = {}
    for _ in range(nterms):
        vars_ = [rng.randrange(4) for _ in range(rng.randrange(min(order + 2, 7) + 1))]
        coef[key_from_vars(vars_)] = ring(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 4)))
    return Jet(order, coef)


def _dyadic(p, q):
    return p / q


@pytest.mark.parametrize("ring", [Fraction, _dyadic])
def test_mul_matches_all_pairs_reference(ring):
    rng = random.Random(11)
    # (1 + x0 + ... + x6)(1 - x0 + x1 + ... + x6) cancels its x0 and x0 x_j
    # terms and has more than twice as many terms as its factors: it is pruned
    one = ring(1, 1)
    plus = {0: one, **{key_from_vars([v]): one for v in range(7)}}
    pairs = [(Jet(2, plus), Jet(3, {**plus, key_from_vars([0]): -one}))]
    for _ in range(300):
        pairs.append((_random_jet(rng, rng.randrange(5), ring, rng.randrange(25)),
                      _random_jet(rng, rng.randrange(5), ring,
                                  rng.choice((0, 1, rng.randrange(25))))))
    orders = set()
    pruned = 0
    for x, y in pairs:
        for left, right in ((x, y), (y, x)):
            got = left * right
            assert got.order == min(left.order, right.order)
            # same coefficients, and even the same key order
            assert list(got.coef.items()) == list(_all_pairs_product(left, right).items())
            orders.add((left.order > right.order, len(left.coef) > len(right.coef)))
            pruned += len(got.coef) < len(_all_pairs_product(left, right, prune=False))
    assert orders == {(False, False), (False, True), (True, False), (True, True)}
    assert pruned
    # scalar and empty operands
    x = _random_jet(rng, 2, ring, 12)
    c = ring(3, 2)
    assert (x * c).coef == (c * x).coef == {k: v * c for k, v in x.coef.items()}
    assert (x * Jet.constant(c, 2)).coef == _all_pairs_product(x, Jet.constant(c, 2))
    for empty in (x * 0, x * Jet(5, {}), Jet(5, {}) * x):
        assert empty.coef == {}
    assert (x * Jet(5, {})).order == (Jet(5, {}) * x).order == 2


def test_mul_over_jet_coefficients_matches_all_pairs_reference():
    def inner(p, q):            # an order-1 jet in a variable of its own
        return Jet(1, {0: Fraction(p, q), key_from_vars([0]): Fraction(q, p)})

    rng = random.Random(7)
    for _ in range(40):
        x = _random_jet(rng, rng.randrange(4), inner, rng.randrange(12))
        y = _random_jet(rng, rng.randrange(4), inner, rng.randrange(12))
        got = [(k, c.coef) for k, c in (x * y).coef.items()]
        assert got == [(k, c.coef) for k, c in _all_pairs_product(x, y).items()]


def test_deriv_reads_the_packed_key_with_multiplicity():
    rng = random.Random(5)
    x = _random_jet(rng, 4, Fraction, 40)
    for _ in range(200):
        vars_ = [rng.randrange(4) for _ in range(rng.randrange(5))]
        want = x.coef.get(key_from_vars(vars_), 0) * key_multiplicity(vars_)
        assert x.deriv(*vars_) == want
    f = (Jet.variable(0, 1.0, 4) + Jet.variable(2, 0.0, 4)) ** 4   # (1 + x0 + x2)^4
    assert f.deriv(0, 2, 0, 2) == f.deriv(2, 2, 0, 0) == 24.0
    assert f.deriv(0, 0, 2) == 24.0 and f.deriv(1) == 0


# -- the fast paths and the k-ary sum against plain references ---------------

_RINGS = {"int": lambda p, q: p,
          "Fraction": Fraction,
          "float": lambda p, q: p / q,
          "complex": lambda p, q: complex(p / q, q)}


def _same_coefficients(got, want: dict):
    """Equal keys and values, and each coefficient of the same type."""
    assert got.coef == want
    assert {k: type(c) for k, c in got.coef.items()} == {k: type(c) for k, c in want.items()}


@pytest.mark.parametrize("ring", sorted(_RINGS))
def test_fast_paths_keep_each_coefficient_type(ring):
    """Unit products, partials with exponent 1 and direct subtraction give
    the coefficients, and the coefficient types, of the plain operations:
    the all-pairs product, c * count on every term, and negate-then-add."""
    rng = random.Random(17)
    mk = _RINGS[ring]
    for _ in range(60):
        order = rng.randrange(1, 5)
        x = _random_jet(rng, order, mk, rng.randrange(1, 20))
        y = _random_jet(rng, order, mk, rng.randrange(20))
        # seeds with the unit coefficient of their ring, and the exact unit
        # against a Jet of int coefficients (an int times Fraction(1) is a
        # Fraction, with or without the fast path)
        for value in (mk(3, 2), mk(0, 1)):
            for one in (ring_unit(value), Fraction(1)):
                seed = Jet.variable(rng.randrange(4), value, order, one)
                for left, right in ((seed, x), (x, seed)):
                    _same_coefficients(left * right, _all_pairs_product(left, right))
        v = rng.randrange(4)
        shift = 5 + 3 * v
        want = {}
        for k, c in x.coef.items():
            cnt = (k >> shift) & 7
            if cnt:
                nk = k - (1 << shift) - 1
                want[nk] = want[nk] + c * cnt if nk in want else c * cnt
        _same_coefficients(x.partial(v), want)
        _same_coefficients(x - y, (x + (-y)).coef)
        for c in (mk(5, 4), 0, 2):
            _same_coefficients(c - x, ((-x) + c).coef)
            _same_coefficients(x - c, (x + (-c)).coef)
    # a difference that cancels drops its keys, as the sum does
    assert (x - x).coef == {}


@pytest.mark.parametrize("ring", ["Fraction", "float", "complex"])
def test_jet_sum_equals_repeated_addition_truncated(ring):
    """Within a ring, one k-ary sum equals repeated `+` of the `t * w`, each
    relabelled at the sum's order, then truncated at it: the same keys,
    values and types.  So `jet_sum` adds every stored coefficient of a term,
    whatever the term's order."""
    rng = random.Random(23)
    mk = _RINGS[ring]
    for _ in range(60):
        order = rng.randrange(5)
        terms = [_random_jet(rng, rng.randrange(5), mk, rng.randrange(12))
                 for _ in range(rng.randrange(6))]
        terms += [-t for t in terms[:2]]              # whole terms cancel
        weights = [rng.choice((1, -1, 2, mk(3, 2), mk(1, 1))) for _ in terms]
        for ws in (None, [rng.choice((1, -1)) for _ in terms], weights):
            ref = Jet(order, {})
            for t, w in zip(terms, ws or [1] * len(terms)):
                ref = ref + Jet(order, (t * w).coef)
            want = {k: c for k, c in ref.coef.items() if k & 31 <= order and c != 0}
            got = jet_sum(order, terms, ws)
            assert got.order == order
            _same_coefficients(got, want)
    assert jet_sum(3, []).coef == {} and jet_sum(3, []).order == 3
    x = Jet.variable(0, mk(1, 2), 2, ring_unit(mk(1, 2)))
    # a scalar term is a constant; x^2 is dropped at order 1
    assert jet_sum(1, [x * x, mk(1, 3)], [-1, 1]).coef == {0: mk(1, 3) - mk(1, 2) * mk(1, 2),
                                                          key_from_vars([0]): -2 * mk(1, 2)}
    assert jet_sum(2, [x, -x]).coef == {}
    # only the int weights 1 and -1 skip the multiply: any other unit still
    # moves int coefficients into its own ring
    ints = Jet(2, {0: 3, key_from_vars([1]): -2})
    for w in (Fraction(1), Fraction(-1), 1.0, -1.0, mk(1, 1)):
        _same_coefficients(jet_sum(2, [ints], [w]), (ints * w).coef)


# -- one order rule: a sum, difference or product has the lower order ---------

def _determined_jet(rng, order, ring, nterms):
    """A sparse random jet that stores no key above its order."""
    return _random_jet(rng, order, ring, nterms).truncated(order)


@pytest.mark.parametrize("ring", ["Fraction", "float", "complex"])
def test_mixed_orders_give_the_lower_order_either_way_round(ring):
    """For operands of different orders, a * b and b * a, and a + b and
    b + a, have the order min(a.order, b.order) and the same coefficients
    (dyadic data, so float sums are exact in any order), and a - b is
    a + (-b), whichever operand is the higher."""
    rng = random.Random(29)
    mk = _RINGS[ring]
    for _ in range(150):
        oa, ob = rng.sample(range(5), 2)
        a = _determined_jet(rng, oa, mk, rng.randrange(20))
        b = _determined_jet(rng, ob, mk, rng.randrange(20))
        for op in (operator.mul, operator.add):
            ab, ba = op(a, b), op(b, a)
            assert ab.order == ba.order == min(oa, ob)
            _same_coefficients(ab, ba.coef)
        for x, y in ((a, b), (b, a)):
            assert (x - y).order == min(oa, ob)
            _same_coefficients(x - y, (x + (-y)).coef)


@pytest.mark.parametrize("ring", ["Fraction", "float", "complex"])
def test_no_result_stores_a_key_above_its_order(ring):
    """Sums, differences and products of determined jets, with Jet or
    scalar partners on either side, store only keys of degree <= their
    order."""
    rng = random.Random(37)
    mk = _RINGS[ring]
    for _ in range(150):
        a = _determined_jet(rng, rng.randrange(5), mk, rng.randrange(20))
        b = _determined_jet(rng, rng.randrange(5), mk, rng.randrange(20))
        c = mk(3, 2)
        for got in (a + b, b + a, a - b, b - a, a * b, b * a, a + c, c - a, a * c):
            assert all(k & 31 <= got.order for k in got.coef), got
    # the right operand's terms above the left operand's order are dropped
    f = Jet.variable(0, 1.0, 1) + Jet.variable(1, 2.0, 3) ** 3
    assert f.order == 1
    assert f.coef == {0: 9.0, key_from_vars([0]): 1, key_from_vars([1]): 12.0}


@pytest.mark.parametrize("ring", ["Fraction", "float", "complex"])
def test_jet_sum_equals_the_fold_of_addition(ring):
    """When no term is below the sum's order, `jet_sum(order, terms, ws)`
    is the fold of `+` of `t * w` from `Jet(order, {})`: the same order,
    keys, values and types."""
    rng = random.Random(41)
    mk = _RINGS[ring]
    for _ in range(60):
        order = rng.randrange(5)
        terms = [_determined_jet(rng, rng.randrange(order, 5), mk, rng.randrange(12))
                 for _ in range(rng.randrange(6))]
        terms += [-t for t in terms[:2]]              # whole terms cancel
        weights = [rng.choice((1, -1, 2, mk(3, 2), mk(1, 1))) for _ in terms]
        for ws in (None, [rng.choice((1, -1)) for _ in terms], weights):
            fold = Jet(order, {})
            for t, w in zip(terms, ws or [1] * len(terms)):
                fold = fold + t * w
            got = jet_sum(order, terms, ws)
            assert got.order == fold.order == order
            _same_coefficients(got, fold.coef)


# -- ring laws over Fractions ----------------------------------------------

def _terms(j, order):
    """j's nonzero terms of degree <= order."""
    return {k: c for k, c in j.coef.items() if c != 0 and k & 31 <= order}


def test_ring_laws_hold_exactly_over_fractions():
    """Seeded sparse Jets in four variables at mixed orders obey, exactly
    and at the order of each result, associativity and distributivity,
    (1/a) a == 1, and sqrt(a)^2 == a where a's value has a rational root;
    every coefficient stays a Fraction."""
    rng = random.Random(53)
    checked = 0
    for _ in range(120):
        a, b, c = (_determined_jet(rng, rng.randrange(5), Fraction, rng.randrange(1, 15))
                   for _ in range(3))
        order = min(a.order, b.order, c.order)
        for left, right in (((a * b) * c, a * (b * c)), (a * (b + c), a * b + a * c),
                            ((b + c) * a, b * a + c * a)):
            assert left.order == right.order == order
            assert _terms(left, order) == _terms(right, order)
            assert all(type(v) is Fraction for v in left.coef.values())
        root0 = Fraction(rng.randrange(1, 6), rng.randrange(1, 5))
        unit = Jet(a.order, {**a.coef, 0: root0 * root0})
        for got in ((1 / unit) * unit, unit * (Fraction(1) / unit)):
            assert got.order == a.order and _terms(got, a.order) == {0: 1}
        root = unit.sqrt()
        assert root.value == root0 and all(type(v) is Fraction for v in root.coef.values())
        assert _terms(root * root, a.order) == _terms(unit, a.order)
        checked += len(unit.coef) > 1
    assert checked > 60


# -- the integer storage of exact Jets --------------------------------------

def _unlike_jet(rng, order, nterms):
    """A determined sparse Fraction Jet with denominators drawn from 1, 2,
    3, 5, 7, 14 and 15, so two such Jets rarely share a den."""
    coef = {}
    for _ in range(nterms):
        vars_ = [rng.randrange(4) for _ in range(rng.randrange(order + 1))]
        coef[key_from_vars(vars_)] = Fraction(rng.choice((-7, -2, 1, 3, 5, 6)),
                                              rng.choice((1, 2, 3, 5, 7, 14, 15)))
    return Jet(order, coef)


def _assert_normalized(j):
    """den > 0, no common factor of den and the numerators, no key above
    the order."""
    assert type(j.den) is int and j.den > 0, j.den
    assert math.gcd(j.den, *j.num.values()) == 1, (j.den, j.num)
    assert all(type(n) is int for n in j.num.values())
    assert all(k & 31 <= j.order for k in j.num), j


def test_exact_storage_is_normalized_after_every_operation():
    """Every operation on exact Jets, with unlike denominators (1/3 against
    1/14, so the lcm path runs) and mixed orders, gives integer numerators
    over a positive den that shares no factor with them, and no key above
    the order; sums and products have the values of Fraction arithmetic on
    the coefficients."""
    rng = random.Random(61)
    lcm_runs = 0
    for _ in range(80):
        a = _unlike_jet(rng, rng.randrange(1, 5), rng.randrange(1, 12))
        b = _unlike_jet(rng, rng.randrange(1, 5), rng.randrange(1, 12))
        lcm_runs += math.lcm(a.den, b.den) not in (a.den, b.den)
        unit = Jet(a.order, {**a.coef, 0: Fraction(9, 49)})
        c = Fraction(rng.choice((-3, 2, 5)), rng.choice((3, 14)))
        v = rng.randrange(4)
        order = min(a.order, b.order)
        for got in (a + b, b + a, a - b, b - a, a * b, b * a, -a, a * c, c * a, a / c,
                    a + c, c - a, a + 1, a * 6, a * 0, a - a, a.partial(v),
                    a.without([v]), a.truncated(a.order - 1), 1 / unit, unit.sqrt(),
                    unit ** 3, unit ** -2,
                    jet_sum(order, [a, b, c, 2], [Fraction(1, 3), -1, 1, c])):
            _assert_normalized(got)
        total = dict(a.coef)
        for k, x in b.coef.items():
            total[k] = total.get(k, 0) + x
        assert _terms(a + b, order) == _terms(Jet(order, total), order)
        assert _terms(a * b, order) == _terms(Jet(order, _all_pairs_product(a, b)), order)
    assert lcm_runs > 20


def _merged(x, y):
    """x + y as the plain ring operations give it: y's coefficients added
    into a copy of x's, sums that cancel dropped."""
    out = dict(x.coef)
    for k, c in y.coef.items():
        s = out[k] + c if k in out else c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def test_exact_jets_against_other_rings_give_the_plain_results():
    """An exact Jet times or plus a float or complex Jet or scalar is the
    plain operation on its Fractions, value for value and type for type, and
    is not exact; times or plus a Jet of ints or an int scalar it stays
    exact, with the values of the plain operation, read as Fractions."""
    rng = random.Random(67)
    for _ in range(40):
        order = rng.randrange(1, 4)
        x = Jet(order, {**_unlike_jet(rng, order, rng.randrange(1, 10)).coef,
                        0: Fraction(2, 9)})
        for ring in ("float", "complex"):
            y = _determined_jet(rng, order, _RINGS[ring], rng.randrange(1, 10))
            y = y + _RINGS[ring](3, 4)          # not empty, so not taken for ints
            for left, right in ((x, y), (y, x)):
                for got, want in ((left * right, _all_pairs_product(left, right)),
                                  (left + right, _merged(left, right))):
                    _same_coefficients(got, want)
                    assert got.den is None
        for s in (2.5, 0.5j):
            _same_coefficients(x * s, {k: c * s for k, c in x.coef.items()})
            _same_coefficients(x + s, _merged(x, Jet.constant(s, order)))
        ints = _determined_jet(rng, order, _RINGS["int"], rng.randrange(1, 10))
        for got, want in ((x * ints, _all_pairs_product(x, ints)),
                          (ints * x, _all_pairs_product(ints, x)),
                          (x + ints, _merged(x, ints)), (ints - x, _merged(ints, -x)),
                          (x + 1, _merged(x, Jet.constant(1, order))),
                          (x * 3, {k: c * 3 for k, c in x.coef.items()})):
            assert got.den is not None and got.coef == want
            assert all(type(c) is Fraction for c in got.coef.values())


def test_every_stored_term_of_an_exact_jet_reads_as_a_fraction():
    """value, deriv and coef of a Fraction-bearing Jet give a Fraction for
    every term it stores, a stored zero included (a product too small to
    prune keeps the terms that cancel, and a dict may hold one); a term it
    does not store reads int 0, as in the plain ring."""
    x = Jet.variable(0, Fraction(1, 3), 3, Fraction(1))
    y = Jet.variable(1, Fraction(-2, 7), 3, Fraction(1))
    f = x * x * y + Fraction(5, 14) * y
    u = Jet.variable(0, 0, 2, Fraction(1))
    cancel = (1 + u) * (1 - u)                      # 1 + 0 x0 - x0^2
    stored = Jet(2, {0: Fraction(0), var_key(1): Fraction(3, 4)})
    for j in (f, x, y, cancel, stored, f.partial(0), f * Fraction(3, 2), f + 1,
              jet_sum(2, [f, stored], [Fraction(2, 3), -1])):
        assert j.den is not None
        assert all(type(c) is Fraction for c in j.coef.values())
        for vars_ in ((), (0,), (1,), (2,), (0, 1), (0, 0), (1, 1), (0, 0, 1)):
            if len(vars_) <= j.order:
                got = j.deriv(*vars_)
                kind = Fraction if key_from_vars(vars_) in j.coef else int
                assert type(got) is kind and (kind is Fraction or got == 0), (j, vars_)
        assert type(j.value) is (Fraction if 0 in j.coef else int)
    assert cancel.deriv(0) == 0 and type(cancel.deriv(0)) is Fraction
    assert stored.value == 0 and type(stored.value) is Fraction
    assert f.deriv(0, 0, 1) == 2 and f.deriv(1) == Fraction(1, 9) + Fraction(5, 14)
    for zero in (f - f, f * 0, 0 * f, jet_sum(3, [f, f], [1, -1])):
        assert not zero.coef and zero.value == 0 and zero.den is not None
        assert type(ring_unit(zero)) is Fraction
