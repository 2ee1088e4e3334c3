from hypothesis import given, strategies as st

from gelfand_wgraphs.laurent import (
    ONE,
    X,
    X_INV,
    X_MINUS_XINV,
    ZERO,
    LaurentPoly,
)


def sum_pairs(pairs):
    """The sum of the terms c·x^e over the (e, c) pairs; an exponent may repeat."""
    t = {}
    for e, c in pairs:
        t[e] = t.get(e, 0) + c
    return LaurentPoly(t)


def lp(*pairs):
    return sum_pairs(pairs)


def test_arith_examples():
    assert X + X_INV == lp((1, 1), (-1, 1))
    assert X_MINUS_XINV * X == lp((2, 1), (0, -1))
    assert lp((3, 2), (0, 5)) * ZERO == ZERO
    assert X - X == ZERO


def test_bar_examples():
    assert X.bar() == X_INV
    assert lp((0, 3), (2, 2)).bar() == lp((0, 3), (-2, 2))
    assert ZERO.bar() == ZERO


def test_coeff_examples():
    p = lp((-1, 1), (0, 2))
    assert p.coeff(-1) == 1
    assert p.coeff(0) == 2
    assert ZERO.coeff(5) == 0


def test_in_neg_span_examples():
    assert X_INV.in_neg_span()
    assert not lp((0, 1), (-2, 1)).in_neg_span()
    assert ZERO.in_neg_span()


def test_zero_normalization():
    assert lp((3, 1), (3, -1)) == ZERO
    assert not lp((3, 1), (3, -1))
    assert LaurentPoly({2: 0}) == ZERO


def test_repr_readable():
    assert repr(lp((1, 1), (-1, -1))) == "x - x^-1"
    assert repr(ZERO) == "0"


def test_serialized_form_sorted():
    assert lp((2, 5), (-1, 3)).to_pairs() == [[-1, 3], [2, 5]]


polys = st.builds(
    sum_pairs,
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=6),
)


@given(polys)
def test_bar_involutive(p):
    assert p.bar().bar() == p


@given(polys, polys)
def test_bar_ring_morphism(p, q):
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


@given(polys)
def test_neg_span_bar_invariance_only_zero(p):
    # nothing nonzero supported on exponents <= -1 can be bar-fixed
    if p and p.in_neg_span():
        assert p.bar() != p


@given(polys, polys)
def test_eval_one_is_ring_map(p, q):
    assert (p + q).eval_one() == p.eval_one() + q.eval_one()
    assert (p * q).eval_one() == p.eval_one() * q.eval_one()


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


def test_big_coefficients_exact():
    p = LaurentPoly.term(10**30, 5)
    assert (p * p).coeff(10) == 10**60
