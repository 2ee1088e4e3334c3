import random
from itertools import permutations

import pytest

from gelfand_wgraphs.perm import Permutation
from gelfand_wgraphs.tableau import (
    EMPTY,
    BumpingPath,
    Tableau,
    dual_equiv,
    odd_lines,
    pq_rs,
    reading_word,
    restrict,
    rs_insert,
    rs_uninsert,
    standard_tableaux,
    transpose,
)


def T(rows):
    return Tableau(rows)


def oracle_standard_tableaux(shape):
    """Independent SYT enumeration: place 1..n into cells in all column/row
    valid ways by direct recursive filling of the fixed shape."""
    n = sum(shape)
    grid = [[0] * p for p in shape]

    def cells_open():
        out = []
        for r, row in enumerate(grid):
            for c, v in enumerate(row):
                if v == 0:
                    if (r == 0 or grid[r - 1][c] != 0) and (c == 0 or row[c - 1] != 0):
                        out.append((r, c))
        return out

    def rec(k):
        if k > n:
            yield Tableau([list(r) for r in grid])
            return
        for r, c in cells_open():
            grid[r][c] = k
            yield from rec(k + 1)
            grid[r][c] = 0

    yield from rec(1)


def partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    largest = largest or n
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def all_syt_oracle(n):
    for shape in partitions(n):
        yield from oracle_standard_tableaux(shape)


def test_validation():
    with pytest.raises(ValueError):
        Tableau([[1, 1]])
    with pytest.raises(ValueError):
        Tableau([[2, 1]])
    with pytest.raises(ValueError):
        Tableau([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        Tableau([[3], [1, 2]])
    with pytest.raises(ValueError):
        Tableau([[1], []])
    assert Tableau.filling([[2, 1]]).rows == ((2, 1),)
    assert not Tableau.filling([[2, 1]]).is_partially_standard()
    F = Tableau.filling
    assert T([[1, 2], [3, 4]]).is_standard() and F([[1, 2], [3, 4]]).is_standard()
    assert EMPTY.is_standard()
    assert not F([[1, 3]]).is_standard()  # entries not 1..n
    # entries 1..n in a partition shape, but a row or a column decreases
    for bad in ([[2, 1]], [[1, 2], [4, 3]], [[1, 4], [3, 2]],
                [[2], [1]], [[1, 3, 4], [2], [6], [5]]):
        assert not F(bad).is_standard()
        assert not transpose(F(bad)).is_standard()


@pytest.mark.parametrize("rows, increase, message", [
    ([[1, 2], []], True, "empty rows are not allowed"),
    ([[1], [2, 3]], False, "row lengths must weakly decrease, got [1, 2]"),
    ([[1, 0]], False, "entries must be positive integers, got 0"),
    ([[1, "2"]], True, "entries must be positive integers, got '2'"),
    ([[1, 2], [2]], False, "duplicate entry 2"),
    ([[2, 1]], True, "row 1 is not strictly increasing: [2, 1]"),
    ([[1, 2], [4, 3]], True, "row 2 is not strictly increasing: [4, 3]"),
    ([[2, 3], [1]], True, "column 1 is not strictly increasing"),
    ([[3, 1], [2]], True, "row 1 is not strictly increasing: [3, 1]"),  # the first of two faults
])
def test_validation_messages(rows, increase, message):
    build = Tableau if increase else Tableau.filling
    with pytest.raises(ValueError) as err:
        build(rows)
    assert str(err.value) == message
    if increase and "increasing" in message:
        assert Tableau.filling(rows).rows == tuple(map(tuple, rows))


def test_rs_insert_examples():
    out, path = rs_insert(T([[1, 5], [3, 6], [4]]), 2)
    assert out == T([[1, 2], [3, 5], [4, 6]])
    assert path.cells == ((1, 2), (2, 2), (3, 2))
    assert path.inserted_values == (2, 5, 6)
    assert rs_insert(T([[1, 3], [4]]), 2)[0] == T([[1, 2], [3], [4]])
    assert rs_insert(EMPTY, 5)[0] == T([[5]])
    with pytest.raises(ValueError):
        rs_insert(T([[1, 3]]), 3)
    for bad in (0, -4, 2.5):
        with pytest.raises(ValueError, match="entries must be positive integers"):
            rs_insert(T([[1]]), bad)


def test_rs_uninsert_examples():
    assert rs_uninsert(T([[1, 2], [3, 5], [4, 6]]), (3, 2)) == (T([[1, 5], [3, 6], [4]]), 2)
    assert rs_uninsert(T([[5]]), (1, 1)) == (EMPTY, 5)
    assert rs_uninsert(T([[1, 2], [3], [4]]), (3, 1)) == (T([[1, 3], [4]]), 2)
    with pytest.raises(ValueError):
        rs_uninsert(T([[1, 2], [3]]), (1, 1))


def test_insert_uninsert_round_trip():
    for U in all_syt_oracle(5):
        scaled = Tableau([[2 * v for v in row] for row in U.rows])
        for a in (1, 3, 11):
            out, path = rs_insert(scaled, a)
            back, x = rs_uninsert(out, path.cells[-1])
            assert back == scaled and x == a
        for corner in scaled.corners():
            small, x = rs_uninsert(scaled, corner)
            out, path = rs_insert(small, x)
            assert out == scaled and path.cells[-1] == corner


def test_pq_rs_examples():
    assert pq_rs(Permutation([3, 1, 4, 2, 5])) == (T([[1, 2, 5], [3, 4]]), T([[1, 3, 5], [2, 4]]))
    assert pq_rs(Permutation([2, 4, 1, 3, 5])) == (T([[1, 3, 5], [2, 4]]), T([[1, 2, 5], [3, 4]]))
    assert pq_rs(Permutation([1, 2, 3])) == (T([[1, 2, 3]]), T([[1, 2, 3]]))


def test_reading_word_examples():
    assert reading_word(T([[1, 2, 5], [3, 4]])) == (3, 4, 1, 2, 5)
    assert reading_word(T([[1, 2, 3]])) == (1, 2, 3)
    assert reading_word(T([[1], [2], [3]])) == (3, 2, 1)
    assert reading_word(EMPTY) == ()


def test_p_of_reading_word_is_identity():
    for n in range(8):
        for U in all_syt_oracle(n):
            assert pq_rs(reading_word(U))[0] == U


def test_pq_of_inverse_swaps():
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            p, q = pq_rs(Permutation(w))
            pi, qi = pq_rs(Permutation(w).inverse())
            assert (pi, qi) == (q, p)


def test_dual_equiv_examples():
    assert dual_equiv(T([[1, 3, 5], [2, 4]]), 4) == T([[1, 3, 4], [2, 5]])
    assert dual_equiv(T([[1, 3, 4], [2, 5]]), 3) == T([[1, 3, 4], [2, 5]])
    assert dual_equiv(T([[1, 2, 5], [3, 4]]), 2) == T([[1, 3, 5], [2, 4]])
    with pytest.raises(ValueError):
        dual_equiv(T([[1, 2, 5], [3, 4]]), 5)


def dual_equiv_by_reading_word(U, i):
    """D_i read off the reading word directly, as a reference."""
    entries = U.entries()
    for v in (i - 1, i, i + 1):
        if v not in entries:
            raise ValueError(f"entry {v} is missing; D_{i} needs i-1, i, i+1 present")
    word = reading_word(U)
    middle = sorted((i - 1, i, i + 1), key=word.index)[1]
    if middle == i:
        return U
    a, b = (i, i + 1) if middle == i - 1 else (i - 1, i)
    swap = {a: b, b: a}
    return Tableau([[swap.get(v, v) for v in row] for row in U.rows])


def test_dual_equiv_matches_reading_word_reference():
    for n in range(3, 8):
        for U in standard_tableaux(n):
            for i in range(2, n):
                assert dual_equiv(U, i) == dual_equiv_by_reading_word(U, i)
    # on fillings the two agree on the result or on the error, message included
    rng = random.Random(4)
    for _ in range(2000):
        shape = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))), reverse=True)
        values = rng.sample(range(1, sum(shape) + 1 + rng.randint(0, 1)), sum(shape))
        rest = iter(values)
        F = Tableau.filling([[next(rest) for _ in range(m)] for m in shape])
        i = rng.randint(2, max(2, sum(shape) - 1))
        got, want = [], []
        for f, out in ((dual_equiv, got), (dual_equiv_by_reading_word, want)):
            try:
                out.append(f(F, i).rows)
            except ValueError as exc:
                out.append(str(exc))
        assert got == want, (F, i)


def test_tableau_is_immutable():
    U = T([[1, 2], [3]])
    for name in ("rows", "_checked", "other"):
        with pytest.raises(AttributeError):
            setattr(U, name, ((1,),))
    with pytest.raises(AttributeError):
        del U.rows
    assert U.rows == ((1, 2), (3,)) and U.is_standard()


def test_checked_tableaux_are_not_validated_again(monkeypatch):
    from gelfand_wgraphs import tableau

    checked = T([[1, 2, 5], [3, 4]])
    gap = T([[1, 2, 6], [3, 4]])  # partially standard, but not on 1..n
    unchecked = Tableau([[1, 2, 5], [3, 4]], validate=False)

    def fail(rows, increase):
        raise AssertionError("validated again")

    monkeypatch.setattr(tableau, "_validate", fail)
    assert checked.is_partially_standard() and checked.is_standard()
    assert gap.is_partially_standard() and not gap.is_standard()
    with pytest.raises(AssertionError):
        unchecked.is_standard()


def test_dual_equiv_involution_on_syt():
    for n in range(3, 8):
        for U in all_syt_oracle(n):
            for i in range(2, n):
                moved = dual_equiv(U, i)
                assert moved.is_standard()
                assert dual_equiv(moved, i) == U


def checked_syt(max_n):
    """Every standard tableau with 3..max_n cells, built through the full check."""
    return [Tableau(U.rows) for n in range(3, max_n + 1) for U in standard_tableaux(n)]


def test_dual_equiv_checks_only_the_moved_cells(monkeypatch):
    from gelfand_wgraphs import tableau

    cases = [(U, i) for U in checked_syt(7) for i in range(2, U.size)]
    want = [dual_equiv_by_reading_word(U, i) for U, i in cases]
    calls = []
    real = tableau._validate
    monkeypatch.setattr(tableau, "_validate",
                        lambda rows, increase: calls.append(rows) or real(rows, increase))
    got = [dual_equiv(U, i) for U, i in cases]
    assert got == want and all(t._checked for t in got)
    assert calls == []
    # an unchecked input is still checked in full, once
    U = Tableau([[1, 2, 5], [3, 4]], validate=False)
    moved = dual_equiv(U, 2)
    assert len(calls) == 1 and moved._checked
    assert moved.rows == ((1, 3, 5), (2, 4))


def test_dual_equiv_local_check_fires_as_the_full_check(monkeypatch):
    from gelfand_wgraphs import tableau

    real_swap = tableau._swap
    case = {}

    def faulty_swap(U, p, q):
        # trade i-1 and i+1, whichever pair D_i picked
        case["swapped"] = True
        return real_swap(U, case["cell"][case["i"] - 1], case["cell"][case["i"] + 1])

    monkeypatch.setattr(tableau, "_swap", faulty_swap)
    fired = passed = 0
    for U in checked_syt(7):
        for i in range(2, U.size):
            swap = {i - 1: i + 1, i + 1: i - 1}
            try:
                want = Tableau([[swap.get(v, v) for v in row] for row in U.rows]).rows
            except ValueError as exc:
                want = str(exc)
            case.update(i=i, swapped=False,
                        cell={v: (r, row.index(v)) for r, row in enumerate(U.rows) for v in row})
            try:
                got = dual_equiv(U, i).rows
            except ValueError as exc:
                got = str(exc)
            if case["swapped"]:
                assert got == want, (U, i)
                fired += isinstance(got, str)
                passed += not isinstance(got, str)
    assert fired and passed


def test_knuth_moves_match_dual_equiv():
    # Knuth move at i keeps P and applies D_i to Q; dually with inverse words
    from gelfand_wgraphs.perm import knuth_move

    for n in range(3, 7):
        for word in permutations(range(1, n + 1)):
            v = Permutation(word)
            pv, qv = pq_rs(v)
            for i in range(2, n):
                w = knuth_move(v, i)
                pw, qw = pq_rs(w)
                assert pv == pw
                assert qv == dual_equiv(qw, i)
                wd = knuth_move(v, i, dual=True)
                pd, qd = pq_rs(wd)
                assert qv == qd
                assert pv == dual_equiv(pd, i)


def test_transpose_examples():
    assert transpose(T([[1, 2], [3]])) == T([[1, 3], [2]])
    assert transpose(EMPTY) == EMPTY
    assert transpose(T([[1, 2, 3], [4]])) == T([[1, 4], [2], [3]])
    for U in all_syt_oracle(6):
        assert transpose(transpose(U)) == U


def transpose_by_cells(U):
    """The columns of U read cell by cell, as a reference."""
    width = len(U.rows[0]) if U.rows else 0
    return [[row[c] for row in U.rows if len(row) > c] for c in range(width)]


def test_transpose_of_fillings_matches_reference():
    rng = random.Random(11)
    for _ in range(500):
        shape = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 6))), reverse=True)
        values = rng.sample(range(1, 3 * sum(shape) + 2), sum(shape))
        rest = iter(values)
        F = Tableau.filling([[next(rest) for _ in range(m)] for m in shape])
        got = transpose(F)
        assert got.rows == tuple(map(tuple, transpose_by_cells(F))) and not got._checked


def test_restrict_examples():
    assert restrict(T([[1, 2, 9], [3, 5]]), {1, 2, 3}) == T([[1, 2], [3]])
    U = T([[1, 2], [3, 4]])
    assert restrict(U, U.entries()) == U
    assert restrict(U, {1, 2}) == T([[1, 2]])
    with pytest.raises(ValueError):
        restrict(T([[1, 2], [3, 4]]), {1, 4})  # kept cells not a shape
    with pytest.raises(ValueError):
        restrict(T([[1, 3], [2, 5]]), {1, 2, 5})  # lengths would increase


def test_odd_lines_examples():
    assert odd_lines(T([[1, 2, 3, 4], [5, 7], [6]]), "columns") == 3
    assert odd_lines(T([[1, 2, 3], [4, 5], [6], [7]]), "rows") == 3
    assert odd_lines(EMPTY, "rows") == 0
    with pytest.raises(ValueError):
        odd_lines(EMPTY, "diagonals")


def test_bumping_path_shape_invariants():
    for U in all_syt_oracle(6):
        scaled = Tableau([[2 * v for v in row] for row in U.rows])
        for a in (1, 5, 7, 13):
            _, path = rs_insert(scaled, a)
            rows = [r for r, _ in path.cells]
            cols = [c for _, c in path.cells]
            assert rows == list(range(1, len(rows) + 1))
            assert all(c1 >= c2 for c1, c2 in zip(cols, cols[1:]))
            vals = path.inserted_values
            assert list(vals) == sorted(vals) and len(set(vals)) == len(vals)
            assert path.inserted_values[0] == a
            assert path.col(1) == path.cells[0][1]


def test_bumping_paths_move_right_for_larger_values():
    # inserting a then a' with a < a': the second path stays strictly right
    for U in all_syt_oracle(5):
        scaled = Tableau([[3 * v for v in row] for row in U.rows])
        free = [v for v in range(1, 3 * scaled.size + 4) if v % 3 != 0]
        for a, a2 in [(free[0], free[1]), (free[2], free[-1]), (free[1], free[4])]:
            if a >= a2:
                continue
            mid, first = rs_insert(scaled, a)
            _, second = rs_insert(mid, a2)
            overlap = min(len(first.cells), len(second.cells))
            for j in range(1, overlap + 1):
                assert second.col(j) > first.col(j)


def test_standard_tableaux_matches_oracle():
    for n in range(8):
        ours = sorted(t.rows for t in standard_tableaux(n))
        oracle = sorted(t.rows for t in all_syt_oracle(n))
        assert ours == oracle
