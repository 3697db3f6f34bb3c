import pytest
from hypothesis import given, settings, strategies as st

from adjoint_quadrics import IntegersMod, IntegerRing, PolynomialRing, ring_from_name


def _poly_from_spec(ring, spec):
    # spec: dict mapping (sorted var-id tuple) -> coefficient
    p = ring.zero
    vars_ = [ring.variable(f"x{i}") for i in range(4)]
    for mono, c in spec.items():
        term = ring.from_int(c)
        for vid in mono:
            term = term * vars_[vid]
        p = p + term
    return p


monomials = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda t: tuple(sorted(t)))
poly_specs = st.dictionaries(monomials, st.integers(-9, 9), max_size=5)


@given(poly_specs, poly_specs)
@settings(max_examples=60, deadline=None)
def test_poly_add_commutes(s1, s2):
    ring = PolynomialRing()
    a, b = _poly_from_spec(ring, s1), _poly_from_spec(ring, s2)
    assert a + b == b + a


@given(poly_specs, poly_specs)
@settings(max_examples=60, deadline=None)
def test_poly_mul_commutes(s1, s2):
    ring = PolynomialRing()
    a, b = _poly_from_spec(ring, s1), _poly_from_spec(ring, s2)
    assert a * b == b * a


@given(poly_specs, poly_specs, poly_specs)
@settings(max_examples=60, deadline=None)
def test_poly_distributes(s1, s2, s3):
    ring = PolynomialRing()
    a = _poly_from_spec(ring, s1)
    b = _poly_from_spec(ring, s2)
    c = _poly_from_spec(ring, s3)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(poly_specs, poly_specs, poly_specs)
@settings(max_examples=40, deadline=None)
def test_poly_mul_associates(s1, s2, s3):
    ring = PolynomialRing()
    a = _poly_from_spec(ring, s1)
    b = _poly_from_spec(ring, s2)
    c = _poly_from_spec(ring, s3)
    assert (a * b) * c == a * (b * c)


@given(poly_specs)
@settings(max_examples=60, deadline=None)
def test_poly_additive_inverse(s1):
    ring = PolynomialRing()
    a = _poly_from_spec(ring, s1)
    assert (a + (-a)).is_zero()
    assert a - a == ring.zero
    # Truthiness is the zero test, as for the integers of the other rings.
    assert not (a - a) and bool(a) == (not a.is_zero())


def test_poly_powers_and_str():
    ring = PolynomialRing()
    x = ring.variable("x")
    y = ring.variable("y")
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert x**0 == ring.one
    assert str(ring.zero) == "0"
    assert "x" in str(p) and "y" in str(p)
    with pytest.raises(ValueError):
        x ** (-1)


def test_poly_int_coercion():
    ring = PolynomialRing()
    x = ring.variable("x")
    assert 2 + x == x + ring.from_int(2)
    assert 3 * x - x == 2 * x
    assert ring.from_int(0).is_zero()


def test_poly_cross_ring_mix_rejected():
    r1, r2 = PolynomialRing(), PolynomialRing()
    with pytest.raises(ValueError):
        r1.variable("x") + r2.variable("x")


@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(2, 30))
@settings(max_examples=80, deadline=None)
def test_zmod_from_int_is_a_ring_map(a, b, m):
    ring = IntegersMod(m)
    assert ring.from_int(a + b) == ring.add(ring.from_int(a), ring.from_int(b))
    assert ring.from_int(a * b) == ring.mul(ring.from_int(a), ring.from_int(b))
    assert ring.from_int(-a) == ring.neg(ring.from_int(a))


def test_zmod_composite_has_zero_divisors():
    ring = IntegersMod(4)
    assert ring.mul(2, 2) == 0
    assert ring.from_int(6) == 2


def test_zmod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        IntegersMod(1)


def test_ring_names_and_parse():
    assert ring_from_name("int").name == "int"
    assert ring_from_name("zmod:7").modulus == 7
    assert ring_from_name("poly").name == "poly"
    with pytest.raises(ValueError):
        ring_from_name("rationals")
    r = ring_from_name("zmod:5")
    assert r.parse("12") == 2
    assert r.format(3) == "3"
    assert IntegerRing().parse("-4") == -4


def test_ring_equality():
    assert IntegerRing() == IntegerRing()
    assert IntegersMod(6) == IntegersMod(6)
    assert IntegersMod(6) != IntegersMod(7)
    assert IntegerRing() != IntegersMod(6)
