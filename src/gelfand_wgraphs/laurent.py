"""
Sparse integer Laurent polynomials in one variable x.

Coefficients are Python ints, so all arithmetic is exact at any size.
A polynomial is stored as a dict mapping exponent -> nonzero coefficient;
zero coefficients are never kept.
"""

from __future__ import annotations


class LaurentPoly:
    __slots__ = ("_t", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            self._t = {}
        else:
            self._t = {e: c for e, c in terms.items() if c != 0}
        self._hash = None

    @classmethod
    def from_nonzero(cls, terms: dict) -> "LaurentPoly":
        """
        The polynomial on `terms`, a dict from exponent to coefficient whose
        coefficients are all nonzero: the dict is taken over, not copied or
        checked.
        """
        p = cls.__new__(cls)
        p._t = terms
        p._hash = None
        return p

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        """Monomial coeff * x**exp."""
        return cls.from_nonzero({exp: coeff} if coeff != 0 else {})

    def items(self):
        return self._t.items()

    def coeff(self, exp: int) -> int:
        return self._t.get(exp, 0)

    def in_neg_span(self) -> bool:
        """True iff every exponent is <= -1 (vacuously true for 0)."""
        return all(e <= -1 for e in self._t)

    def bar(self) -> "LaurentPoly":
        """The involution x -> x**-1, i.e. negate every exponent."""
        return LaurentPoly.from_nonzero({-e: c for e, c in self._t.items()})

    def eval_one(self) -> int:
        """Evaluate at x = 1 (a ring homomorphism to the integers)."""
        return sum(self._t.values())

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = dict(self._t)
        for e, c in other._t.items():
            v = t.get(e, 0) + c
            if v:
                t[e] = v
            elif e in t:
                del t[e]
        return LaurentPoly.from_nonzero(t)

    def __neg__(self):
        return LaurentPoly.from_nonzero({e: -c for e, c in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = dict(self._t)
        for e, c in other._t.items():
            v = t.get(e, 0) - c
            if v:
                t[e] = v
            elif e in t:
                del t[e]
        return LaurentPoly.from_nonzero(t)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return LaurentPoly.from_nonzero({e: c * other for e, c in self._t.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = {}
        for e1, c1 in self._t.items():
            for e2, c2 in other._t.items():
                e = e1 + e2
                v = t.get(e, 0) + c1 * c2
                if v:
                    t[e] = v
                elif e in t:
                    del t[e]
        return LaurentPoly.from_nonzero(t)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._t.items()))
        return self._hash

    def __bool__(self):
        return bool(self._t)

    def to_pairs(self):
        """Canonical serialized form: [exponent, coefficient] pairs, ascending exponent."""
        return [[e, self._t[e]] for e in sorted(self._t)]

    def __repr__(self):
        if not self._t:
            return "0"
        bits = []
        for e in sorted(self._t, reverse=True):
            c = self._t[e]
            if e == 0:
                bits.append(f"{c}")
            else:
                xe = "x" if e == 1 else f"x^{e}"
                if c == 1:
                    bits.append(xe)
                elif c == -1:
                    bits.append(f"-{xe}")
                else:
                    bits.append(f"{c}*{xe}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out


ZERO = LaurentPoly.term(0)
ONE = LaurentPoly.term(1)
X = LaurentPoly.term(1, 1)
X_INV = LaurentPoly.term(1, -1)
# x - x^-1, the constant in the quadratic relation of the Hecke algebra
X_MINUS_XINV = X - X_INV
