import random

import pytest

from graphlink.errors import DomainError
from graphlink.laurent import (
    LaurentPoly,
    loop_factor,
    loop_factor_pow,
    mono,
    one,
    span,
    unit_normalize,
    zero,
)


def test_mono_and_add_example():
    assert mono(1, 2) + mono(1, -2) == LaurentPoly(((2, 1), (-2, 1)))


def test_mul_units_cancel():
    assert mono(-1, 3) * mono(-1, -3) == one()


def test_loop_factor():
    assert loop_factor() == LaurentPoly(((2, -1), (-2, -1)))
    assert loop_factor_pow(1) == loop_factor()


def test_loop_factor_pow_small():
    assert loop_factor_pow(0) == one()
    assert loop_factor_pow(2) == LaurentPoly(((4, 1), (0, 2), (-4, 1)))


def test_loop_factor_pow_recurrence():
    for k in range(1, 11):
        assert loop_factor_pow(k) == loop_factor_pow(k - 1) * loop_factor_pow(1)


def test_loop_factor_pow_negative():
    with pytest.raises(DomainError):
        loop_factor_pow(-1)


def test_span_examples():
    assert span(mono(5, 3)) == 0
    assert span(loop_factor()) == 4
    with pytest.raises(DomainError):
        span(zero())


def test_unit_normalize_examples():
    assert unit_normalize(mono(-1, -3), -1) == one()
    p = LaurentPoly(((7, 3), (-1, -2)))
    assert unit_normalize(p, 0) == p
    assert unit_normalize(one(), 1) == mono(-1, -3)


def random_poly(rng):
    return LaurentPoly.from_terms(
        (rng.randint(-8, 8), rng.randint(-5, 5)) for _ in range(rng.randint(0, 6))
    )


def test_ring_axioms():
    rng = random.Random(7)
    for _ in range(300):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + zero() == p
        assert p * one() == p


def test_span_is_unit_invariant():
    rng = random.Random(8)
    for _ in range(200):
        p = random_poly(rng)
        if p.is_zero():
            continue
        c = rng.choice((1, -1, 3))
        e = rng.randint(-9, 9)
        assert span(p * mono(c, e)) == span(p)


def test_render_goldens():
    assert zero().render() == "0"
    assert one().render() == "1"
    assert mono(-1, -3).render() == "-a^-3"
    assert loop_factor().render() == "-a^2 - a^-2"
    assert loop_factor_pow(2).render() == "a^4 + 2 + a^-4"
    assert (mono(-1, -3) + mono(2, -1)).render() == "2a^-1 - a^-3"
    assert mono(2, 1).render() == "2a"
    assert mono(-7, 0).render() == "-7"


def test_render_orders_terms_by_decreasing_exponent():
    p = LaurentPoly.from_terms([(-2, 1), (5, 2), (0, -3)])
    assert p.render() == "2a^5 - 3 + a^-2"


def test_json_rendering():
    p = mono(-1, -3) + mono(2, -1)
    assert p.to_json_obj() == [{"exp": -1, "coef": 2}, {"exp": -3, "coef": -1}]


def test_normalization_drops_zero_coefficients():
    p = LaurentPoly.from_terms([(3, 5), (3, -5), (0, 1)])
    assert p == one()
    assert (p - p).is_zero()


def test_pow():
    p = mono(1, 1) + one()
    assert p ** 0 == one()
    assert p ** 3 == p * p * p
