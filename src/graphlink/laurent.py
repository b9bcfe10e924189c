"""Exact Laurent polynomials in one variable ``a`` over the integers.

Coefficients are Python integers, so arithmetic is exact at any size and
never overflows.  Values are immutable; addition is a commutative monoid,
which lets state sums be reduced in any partition order with bit-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError


def _normalize(items: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for e, c in items:
        if c:
            v = acc.get(e, 0) + c
            if v:
                acc[e] = v
            elif e in acc:
                del acc[e]
    return tuple(sorted(acc.items(), reverse=True))


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial: ``terms`` maps held as (exp, coef) pairs
    in decreasing exponent order with no zero coefficients."""

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_terms(cls, items: Iterable[tuple[int, int]]) -> "LaurentPoly":
        return cls(_normalize(items))

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "LaurentPoly":
        return cls.from_terms(d.items())

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise DomainError("zero polynomial has no degree")
        return self.terms[0][0]

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise DomainError("zero polynomial has no degree")
        return self.terms[-1][0]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(_normalize(self.terms + other.terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(acc)

    def scale(self, coef: int, exp: int = 0) -> "LaurentPoly":
        """Multiply by the monomial coef * a**exp."""
        if coef == 0:
            return LaurentPoly()
        return LaurentPoly(tuple((e + exp, c * coef) for e, c in self.terms))

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise DomainError("negative powers of a polynomial are not defined")
        result = one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def render(self) -> str:
        """Canonical text form, e.g. ``-a^-3 + 2a^-1``; the zero polynomial
        renders as ``0`` and a^0 as the bare coefficient."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for idx, (e, c) in enumerate(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "a" if e == 1 else f"a^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if idx == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def to_json_obj(self) -> list[dict[str, int]]:
        return [{"exp": e, "coef": c} for e, c in self.terms]


def zero() -> LaurentPoly:
    return LaurentPoly()


def one() -> LaurentPoly:
    return LaurentPoly(((0, 1),))


def mono(coef: int, exp: int) -> LaurentPoly:
    """The monomial coef * a**exp."""
    if coef == 0:
        return LaurentPoly()
    return LaurentPoly(((exp, coef),))


def loop_factor() -> LaurentPoly:
    """The extra-circle factor -a^2 - a^-2."""
    return LaurentPoly(((2, -1), (-2, -1)))


def loop_factor_pow(k: int) -> LaurentPoly:
    """(-a^2 - a^-2)**k with k >= 0; k = 0 gives 1."""
    if k < 0:
        raise DomainError("loop factor exponent must be non-negative")
    return loop_factor() ** k


def span(p: LaurentPoly) -> int:
    """Leading exponent minus lowest exponent of a nonzero polynomial."""
    if p.is_zero():
        raise DomainError("span of the zero polynomial is undefined")
    return p.max_exp - p.min_exp


def unit_normalize(p: LaurentPoly, w: int) -> LaurentPoly:
    """Multiply by (-a)^(-3w), i.e. by (-1)^w * a^(-3w)."""
    return p.scale(-1 if w % 2 else 1, -3 * w)
