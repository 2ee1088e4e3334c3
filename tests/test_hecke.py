import re
from itertools import permutations

import pytest

from gelfand_wgraphs.hecke import (
    HeckeElement,
    h_bar,
    h_s_mul,
    kl_basis,
    kl_cells,
    kl_table,
    kl_wgraph,
    reduced_word,
)
from gelfand_wgraphs.laurent import ONE, X, X_INV, X_MINUS_XINV
from gelfand_wgraphs.perm import Permutation, word_length
from gelfand_wgraphs.tableau import pq_rs


def H(word):
    return HeckeElement.basis(tuple(word))


def test_h_s_mul_examples():
    assert h_s_mul(1, H([1, 2, 3])) == H([2, 1, 3])
    assert h_s_mul(1, H([2, 1, 3])) == H([1, 2, 3]) + H([2, 1, 3]).scale(X_MINUS_XINV)
    assert h_s_mul(1, H([3, 1, 2])) == H([3, 2, 1])
    with pytest.raises(ValueError):
        h_s_mul(3, H([2, 1, 3]))


@pytest.mark.parametrize("h,bad", [
    (H([1, 2]) + H([1, 2, 3]), "(1, 2, 3)"),  # terms of two degrees
    (H([2, 3]), "(2, 3)"),                    # not a permutation of [1..2]
])
def test_words_outside_the_degree_are_refused(h, bad):
    msg = "^" + re.escape(f"{bad} is not a permutation of [1..2]") + "$"
    with pytest.raises(ValueError, match=msg):
        h_s_mul(1, h)
    with pytest.raises(ValueError, match=msg):
        h_bar(h)


def test_permutation_keys_are_keyed_by_their_words():
    w = Permutation((2, 1, 3))
    h = HeckeElement({w: X})
    assert h.coeff(w) == X
    assert h.coeff((2, 1, 3)) == X
    assert h == HeckeElement.basis(w).scale(X)
    assert repr(h) == "(x)*H[2, 1, 3]"
    assert h_s_mul(1, h) == H([1, 2, 3]).scale(X) + h.scale(X_MINUS_XINV)
    assert h_bar(h) == h_bar(H([2, 1, 3])).scale(X_INV)


def test_h_s_mul_is_linear():
    e = H([1, 2, 3]).scale(X) + H([2, 1, 3]).scale(X_INV)
    assert h_s_mul(2, e) == h_s_mul(2, H([1, 2, 3])).scale(X) + h_s_mul(2, H([2, 1, 3])).scale(X_INV)


def test_reduced_words():
    assert reduced_word((1, 2, 3)) == ()
    assert reduced_word((2, 1, 3)) == (1,)
    assert reduced_word((3, 2, 1)) == (1, 2, 1)
    for w in permutations(range(1, 6)):
        rw = reduced_word(w)
        assert len(rw) == word_length(w)
        acc = Permutation.identity(5)
        for i in rw:
            acc = acc * Permutation.transposition(5, i, i + 1)
        # product in word order: s_{i1} ... s_{ik} applied to the identity
        prod = Permutation.identity(5)
        for i in reversed(rw):
            prod = Permutation.transposition(5, i, i + 1) * prod
        assert prod == Permutation(w)


def test_h_bar_examples():
    assert h_bar(H([1, 2])) == H([1, 2])
    assert h_bar(H([2, 1])) == H([2, 1]) - H([1, 2]).scale(X_MINUS_XINV)
    assert h_bar(H([1, 2]).scale(X)) == H([1, 2]).scale(X_INV)


def test_h_bar_involution_and_twist():
    for w in permutations(range(1, 5)):
        e = H(w)
        assert h_bar(h_bar(e)) == e
        for i in range(1, 4):
            lhs = h_bar(h_s_mul(i, e))
            rhs = h_s_mul(i, h_bar(e)) - h_bar(e).scale(X_MINUS_XINV)
            assert lhs == rhs


def test_kl_basis_examples():
    kb = kl_basis(3)
    assert kb[(1, 2, 3)] == H([1, 2, 3])
    assert kb[(2, 1, 3)] == H([2, 1, 3]) + H([1, 2, 3]).scale(X_INV)
    # full n=3 table, frozen from the bar-invariance + triangularity oracle
    w0 = kb[(3, 2, 1)]
    assert w0.coeff((3, 2, 1)) == ONE
    assert w0.coeff((2, 3, 1)).to_pairs() == [[-1, 1]]
    assert w0.coeff((3, 1, 2)).to_pairs() == [[-1, 1]]
    assert w0.coeff((1, 3, 2)).to_pairs() == [[-2, 1]]
    assert w0.coeff((2, 1, 3)).to_pairs() == [[-2, 1]]
    assert w0.coeff((1, 2, 3)).to_pairs() == [[-3, 1]]


def test_kl_basis_bound():
    with pytest.raises(ValueError):
        kl_basis(7)


def test_kl_basis_bar_invariant_and_unitriangular():
    for n in (2, 3, 4, 5):
        kb = kl_basis(n)
        for w, el in kb.items():
            assert h_bar(el) == el
            assert el.coeff(w) == ONE
            for y, c in el.terms.items():
                assert all(v >= 0 for _, v in c.items())
                if y != w:
                    assert word_length(y) < word_length(w)
                    assert c.in_neg_span()


def test_kl_unique_given_triangularity():
    # perturbing any lower coefficient of a KL element breaks bar-invariance
    kb = kl_basis(3)
    el = kb[(2, 3, 1)]
    bumped = el + H([1, 2, 3]).scale(X_INV)
    assert h_bar(bumped) != bumped


def test_mu_is_length_graded():
    _, _, mu = kl_table(4)
    for (y, w), m in mu.items():
        assert m != 0
        assert word_length(y) < word_length(w)


def rs_fibers(n, which):
    fibers = {}
    for p in permutations(range(1, n + 1)):
        fibers.setdefault(pq_rs(p)[which].rows, []).append(p)
    return sorted(sorted(v) for v in fibers.values())


def test_kl_cells_examples():
    assert kl_cells(2, "left") == [[(1, 2)], [(2, 1)]]
    cells3 = kl_cells(3, "left")
    assert sorted(len(c) for c in cells3) == [1, 1, 2, 2]
    assert len(kl_cells(4, "left")) == 10


def test_kl_cells_are_rs_fibers():
    for n in (2, 3, 4, 5):
        assert sorted(sorted(c) for c in kl_cells(n, "left")) == rs_fibers(n, 1)
        assert sorted(sorted(c) for c in kl_cells(n, "right")) == rs_fibers(n, 0)


def test_kl_wgraph_satisfies_axioms():
    from gelfand_wgraphs.wgraph import verify_axioms

    for n in (2, 3, 4):
        for side in ("left", "right"):
            for reduced in (True, False):
                assert verify_axioms(kl_wgraph(n, side, reduced=reduced)).ok
