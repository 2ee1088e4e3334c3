import pytest

from gelfand_wgraphs.perm import (
    Involution,
    Permutation,
    conj_by_s,
    conj_compare,
    cycle_type,
    cycles_sorted,
    enumerate_involutions,
    involution_count,
    knuth_move,
    length,
    involution_words,
    parse_involution,
    word_conj_s,
    word_length,
)


def P(word):
    return Permutation(word)


def test_length_examples():
    assert length(P([1, 2, 3])) == 0
    assert length(P([4, 2, 3, 1])) == 5
    assert length(P([2, 1, 4, 3])) == 2


def test_length_matches_pair_count():
    # brute-force the definition for every element of S_4
    from itertools import permutations

    for w in permutations(range(1, 5)):
        expect = sum(
            1 for i in range(4) for j in range(i + 1, 4) if w[i] > w[j]
        )
        assert length(P(w)) == expect


def quadratic_length(word):
    return sum(1 for i, a in enumerate(word) for b in word[i + 1:] if a > b)


def test_word_length_matches_the_quadratic_count():
    # every word of S_7, and the n=8 vertex words of both Gelfand embeddings
    from itertools import permutations

    from gelfand_wgraphs.gelfand import embed_word

    for w in permutations(range(1, 8)):
        assert word_length(w) == quadratic_length(w), w
    for mode in ("asc", "des"):
        for w in involution_words(8):
            wd = embed_word(w, mode)
            assert word_length(wd) == quadratic_length(wd), wd
    assert word_length(()) == 0


def test_conj_by_s_examples():
    assert conj_by_s(P([1, 2, 3]), 1) == P([1, 2, 3])
    assert conj_by_s(P([4, 2, 3, 1]), 3) == P([3, 2, 1, 4])
    assert conj_by_s(P([2, 1, 4, 3]), 2) == P([3, 4, 1, 2])
    assert isinstance(conj_by_s(Involution([2, 1]), 1), Involution)


def test_conj_by_s_of_involutions_matches_the_validated_product():
    for n in range(2, 8):
        for y in enumerate_involutions(n):
            for i in range(1, n):
                s = Permutation.transposition(n, i, i + 1)
                z = conj_by_s(y, i)
                assert isinstance(z, Involution) and z == Involution(s * y * s)


def positions_only(word, i):
    """A faulty word_conj_s that skips the value swap: y * s_i, not s_i * y * s_i."""
    w = list(word)
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def pairs_i(word, i):
    """A faulty word_conj_s that also makes (i, i+1) a cycle, so it breaks only at y(i), y(i+1)."""
    w = list(word_conj_s(word, i))
    w[i - 1], w[i] = i + 1, i
    return tuple(w)


@pytest.mark.parametrize("faulty", [positions_only, pairs_i])
def test_conj_by_s_check_fires_as_the_full_check(monkeypatch, faulty):
    from gelfand_wgraphs import perm

    def word_or_error(make):
        try:
            return make().word
        except ValueError as exc:
            return str(exc)

    monkeypatch.setattr(perm, "word_conj_s", faulty)
    fired = 0
    for n in range(2, 8):
        for y in enumerate_involutions(n):
            for i in range(1, n):
                got = word_or_error(lambda: conj_by_s(y, i))
                assert got == word_or_error(lambda: Involution(Permutation(faulty(y.word, i))))
                fired += isinstance(got, str)
    assert fired


@pytest.mark.parametrize("word", [[2.0, 1.0, 3], [True, 2], [2, True], [1, 2.0, 3]])
def test_entries_that_are_not_ints_are_refused(word):
    # each sorts to 1..n by ==, as 2.0 == 2 and True == 1
    for build in (Permutation, Involution):
        with pytest.raises(ValueError, match="has an entry that is not an int"):
            build(word)
    assert Permutation(word, validate=False).word == tuple(word)  # unchecked by request


def test_conj_by_s_out_of_range():
    with pytest.raises(ValueError):
        conj_by_s(P([2, 1]), 2)


def test_cycles_sorted_examples():
    assert cycles_sorted(Involution([4, 2, 3, 1])) == [(2, 2), (3, 3), (1, 4)]
    assert cycles_sorted(Involution([1, 2, 3])) == [(1, 1), (2, 2), (3, 3)]
    assert cycles_sorted(Involution([2, 1, 4, 3])) == [(1, 2), (3, 4)]
    # cycle_type, on the same involutions and on words that are not involutions
    for y in enumerate_involutions(5):
        assert sorted(cycle_type(y.word)) == sorted(2 - (a == b) for a, b in cycles_sorted(y))
    assert cycle_type((4, 2, 3, 1)) == [2, 1, 1]
    assert cycle_type((2, 3, 1, 5, 4, 6)) == [3, 2, 1]
    assert cycle_type(()) == []


def test_knuth_move_examples():
    assert knuth_move(P([2, 5, 4, 3, 1]), 2) == P([5, 2, 4, 3, 1])
    assert knuth_move(P([5, 2, 4, 3, 1]), 3) == P([5, 4, 2, 3, 1])
    assert knuth_move(P([4, 3, 2, 5, 1]), 4, dual=True) == P([5, 3, 2, 4, 1])
    assert knuth_move(P([1, 2, 3, 4, 5]), 3) == P([1, 2, 3, 4, 5])


def test_knuth_move_index_range():
    with pytest.raises(ValueError):
        knuth_move(P([2, 1, 3]), 1)
    with pytest.raises(ValueError):
        knuth_move(P([2, 1, 3]), 3)


def test_knuth_move_is_involution_exhaustive():
    from itertools import permutations

    for n in range(3, 7):
        for w in permutations(range(1, n + 1)):
            v = P(w)
            for i in range(2, n):
                for dual in (False, True):
                    assert knuth_move(knuth_move(v, i, dual), i, dual) == v


def test_conj_by_s_is_involution():
    from itertools import permutations

    for w in permutations(range(1, 6)):
        v = P(w)
        for i in range(1, 5):
            assert conj_by_s(conj_by_s(v, i), i) == v


def test_enumerate_involutions_counts():
    # I_n = I_{n-1} + (n-1) I_{n-2}
    counts = [sum(1 for _ in enumerate_involutions(n)) for n in range(11)]
    assert counts[0] == counts[1] == 1
    for n in range(2, 11):
        assert counts[n] == counts[n - 1] + (n - 1) * counts[n - 2]
    assert counts[4] == 10
    assert counts[10] == 9496
    assert [involution_count(n) for n in range(11)] == counts


def test_enumerate_involutions_lex_and_distinct():
    for n in (4, 5, 6):
        words = [y.word for y in enumerate_involutions(n)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)
        assert all(Involution(w) for w in words)


def test_conj_compare_examples():
    assert conj_compare(Involution([2, 1, 4, 3]), 1) == "equal"
    assert conj_compare(Involution([2, 1, 4, 3]), 2) == "higher"
    assert conj_compare(Involution([3, 4, 1, 2]), 2) == "lower"
    with pytest.raises(ValueError):
        conj_compare(Involution([2, 1]), 2)


def test_conj_compare_matches_length_jump():
    for n in (3, 4, 5, 6):
        for z in enumerate_involutions(n):
            for i in range(1, n):
                diff = length(conj_by_s(z, i)) - length(z)
                assert diff in (-2, 0, 2)
                expect = {2: "higher", 0: "equal", -2: "lower"}[diff]
                assert conj_compare(z, i) == expect


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Involution([2, 3, 1])
    with pytest.raises(ValueError):
        Involution(Permutation([2, 3, 1]))
    # the trusted path skips the checks and builds the same value
    trusted = Involution((3, 2, 1), validate=False)
    assert trusted == Involution([3, 2, 1]) and trusted.word == (3, 2, 1)
    assert hash(trusted) == hash(Involution([3, 2, 1]))


def test_an_involution_is_a_permutation_that_equals_only_involutions():
    w = [3, 2, 1, 4]
    y = Involution(w)
    assert isinstance(y, Permutation)
    assert y != Permutation(w) and Permutation(w) != y
    assert not (y == Permutation(w)) and not (Permutation(w) == y)
    assert hash(y) == hash(tuple(w))
    assert Involution(y) == y and Involution(Permutation(w)) == y
    assert not hasattr(y, "__dict__")


def test_permutations_are_not_ordered():
    # an order on the word would rank Permutation(w) against Involution(w),
    # which are unequal; no caller sorts permutations, so there is none
    w = [3, 2, 1, 4]
    for a, b in ((Permutation(w), Involution(w)), (Involution(w), Permutation(w)),
                 (P([1, 2]), P([2, 1]))):
        for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
            with pytest.raises(TypeError):
                compare()


def test_composition_and_inverse():
    u, v = P([2, 3, 1]), P([3, 1, 2])
    assert u * v == P([1, 2, 3])
    assert u.inverse() == v


def test_parse_involution():
    assert parse_involution("4231").word == (4, 2, 3, 1)
    assert parse_involution("4,2,3,1").word == (4, 2, 3, 1)
    assert parse_involution("(1,4)(2,3)", 4).word == (4, 3, 2, 1)
    assert parse_involution("(1,4)", 4).word == (4, 2, 3, 1)
    with pytest.raises(ValueError):
        parse_involution("(1,4)")  # cycle form needs n
    with pytest.raises(ValueError):
        parse_involution("(1,4", 4)


def test_cycle_string():
    assert Involution([4, 3, 2, 1]).cycle_string() == "(1,4)(2,3)"
    assert Involution.identity(3).cycle_string() == "()"
