from itertools import permutations

import pytest

from gelfand_wgraphs.hecke import (
    _left_ascent,
    _regular,
    h_bar,
    kl_cells,
    kl_table,
    kl_wgraph,
)
from gelfand_wgraphs.laurent import ONE, X, X_INV, X_MINUS_XINV
from gelfand_wgraphs.perm import Permutation, _s_mul_word, reduced_word, word_length
from gelfand_wgraphs.tableau import pq_rs

from column_ops import add, scale, to_pairs, vertex_index


def H(word, c=ONE):
    """c·H_w as a column of the regular table of S_n, n = len(word)."""
    return {vertex_index(_regular(len(word)))[tuple(word)]: c}


def kl_columns(n):
    """The KL basis from kl_table, each column keyed by index in _regular(n)."""
    index = vertex_index(_regular(n))
    _, columns, _ = kl_table(n)
    return {w: {index[y]: c for y, c in col.items()} for w, col in columns.items()}


def test_h_s_mul_examples():
    R = _regular(3)
    assert R.h_col(1, H([1, 2, 3])) == H([2, 1, 3])
    assert R.h_col(1, H([2, 1, 3])) == add(H([1, 2, 3]), H([2, 1, 3], X_MINUS_XINV))
    assert R.h_col(1, H([3, 1, 2])) == H([3, 2, 1])
    with pytest.raises(ValueError):
        R.h_col(3, H([2, 1, 3]))


def test_h_s_mul_is_linear():
    R = _regular(3)
    e = add(H([1, 2, 3], X), H([2, 1, 3], X_INV))
    want = add(scale(R.h_col(2, H([1, 2, 3])), X), scale(R.h_col(2, H([2, 1, 3])), X_INV))
    assert R.h_col(2, e) == want


def test_regular_cnj_is_left_multiplication_by_s_i():
    for n in range(1, 6):
        R = _regular(n)
        index = vertex_index(R)
        for i, cnj_i in R.cnj.items():
            assert cnj_i == [index[_s_mul_word(i, w)] for w in R.words], (n, i)


def test_derived_tau_is_the_left_ascent_set():
    for n in range(1, 7):
        R = _regular(n)
        want = [frozenset(i for i in range(1, n) if _left_ascent(w, i)) for w in R.words]
        assert R.tau == want, n


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
    R = _regular(2)
    assert R.bar_col(H([1, 2])) == H([1, 2])
    assert R.bar_col(H([2, 1])) == add(H([2, 1]), H([1, 2], -X_MINUS_XINV))
    assert R.bar_col(H([1, 2], X)) == H([1, 2], X_INV)
    assert h_bar(2, H([2, 1])) == R.bar_col(H([2, 1]))


def test_h_bar_involution_and_twist():
    R = _regular(4)
    for w in permutations(range(1, 5)):
        e = H(w)
        be = R.bar_col(e)
        assert R.bar_col(be) == e
        for i in range(1, 4):
            lhs = R.bar_col(R.h_col(i, e))
            rhs = add(R.h_col(i, be), scale(be, -X_MINUS_XINV))
            assert lhs == rhs


def test_kl_basis_examples():
    _, kb, _ = kl_table(3)
    assert kb[(1, 2, 3)] == {(1, 2, 3): ONE}
    assert kb[(2, 1, 3)] == {(2, 1, 3): ONE, (1, 2, 3): X_INV}
    # full n=3 table, frozen from the bar-invariance + triangularity oracle
    w0 = kb[(3, 2, 1)]
    assert w0[(3, 2, 1)] == ONE
    assert to_pairs(w0[(2, 3, 1)]) == [[-1, 1]]
    assert to_pairs(w0[(3, 1, 2)]) == [[-1, 1]]
    assert to_pairs(w0[(1, 3, 2)]) == [[-2, 1]]
    assert to_pairs(w0[(2, 1, 3)]) == [[-2, 1]]
    assert to_pairs(w0[(1, 2, 3)]) == [[-3, 1]]
    assert len(w0) == 6


def test_kl_basis_bar_invariant_and_unitriangular():
    for n in (2, 3, 4, 5):
        R = _regular(n)
        index = vertex_index(R)
        for w, col in kl_columns(n).items():
            assert R.bar_col(col) == col
            assert col[index[w]] == ONE
            for y, c in col.items():
                assert all(v >= 0 for _, v in c.items())
                if R.words[y] != w:
                    assert word_length(R.words[y]) < word_length(w)
                    assert c.in_neg_span()


def test_kl_unique_given_triangularity():
    # perturbing any lower coefficient of a KL element breaks bar-invariance
    el = kl_columns(3)[(2, 3, 1)]
    bumped = add(el, H([1, 2, 3], X_INV))
    assert _regular(3).bar_col(bumped) != bumped


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


def test_kl_left_cells_at_n_7_are_recording_tableau_classes():
    # above the CLI's n <= 6 cap, which the library does not apply
    assert sorted(sorted(c) for c in kl_cells(7, "left")) == rs_fibers(7, 1)


def test_kl_wgraph_satisfies_axioms():
    from gelfand_wgraphs.wgraph import verify_axioms

    for n in (2, 3, 4):
        for side in ("left", "right"):
            for reduced in (True, False):
                assert verify_axioms(kl_wgraph(n, side, reduced=reduced)).ok
