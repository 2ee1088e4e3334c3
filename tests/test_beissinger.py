import hashlib
import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from gelfand_wgraphs import beissinger
from gelfand_wgraphs.beissinger import (
    PsiStats,
    cbs_insert,
    p_cbs,
    p_cbs_inverse,
    p_rbs,
    p_rbs_inverse,
    psi,
    psi_cycle_stats,
    psi_orbit,
    rbs_insert,
    simcbs_partner,
    simrbs_partner,
)
from gelfand_wgraphs.perm import (
    Involution,
    Permutation,
    _conjugate_involution,
    conj_by_s,
    cycles_sorted,
    enumerate_involutions,
)
from gelfand_wgraphs.tableau import (
    EMPTY,
    Tableau,
    bump,
    dual_equiv,
    odd_lines,
    pq_rs,
    standard_tableaux,
    transpose,
    unbump,
)


def T(rows):
    return Tableau(rows)


def inv(word):
    return Involution(word)


def test_rbs_insert_examples():
    assert rbs_insert(T([[2, 4], [3]]), 5, 5) == T([[2, 4, 5], [3]])
    assert rbs_insert(T([[1, 3], [4]]), 2, 5) == T([[1, 2], [3], [4], [5]])
    assert rbs_insert(T([[1, 4], [3]]), 2, 5) == T([[1, 2], [3, 4], [5]])
    assert rbs_insert(T([[1, 4, 6], [3]]), 2, 5) == T([[1, 2, 6], [3, 4], [5]])
    assert rbs_insert(T([[1, 2, 3], [4]]), 5, 5) == T([[1, 2, 3, 5], [4]])
    # fixed-point case appends to row 1 whatever is there already
    assert rbs_insert(T([[2, 3], [4]]), 5, 5) == T([[2, 3, 5], [4]])


def test_cbs_insert_examples():
    assert cbs_insert(T([[2, 3], [4]]), 5, 5) == T([[2, 3], [4], [5]])
    assert cbs_insert(T([[1, 4], [3]]), 2, 5) == T([[1, 2, 5], [3, 4]])
    assert cbs_insert(T([[1, 2, 3], [4]]), 5, 5) == T([[1, 2, 3], [4], [5]])
    # arbitrary pairs can leave a non-standard filling, exactly as defined
    out = cbs_insert(T([[1, 4, 6], [3]]), 2, 5)
    assert out.rows == ((1, 2, 6), (3, 4, 5))
    assert not out.is_partially_standard()


def test_insert_error_cases():
    with pytest.raises(ValueError):
        rbs_insert(T([[1, 2]]), 2, 5)
    with pytest.raises(ValueError):
        cbs_insert(T([[1, 2]]), 5, 3)
    with pytest.raises(ValueError):
        cbs_insert(T([[1, 2]]), 3, 5, "sideways")


def test_filling_input_errors():
    # fillings on which the placement of b or the column bumping has no
    # valid cell; the messages were recorded before the one placement step
    F = Tableau.filling
    with pytest.raises(ValueError, match="appending to column 4 would not give a tableau"):
        cbs_insert(F([[5, 4], [3, 2]]), 1, 7)
    # the transposed variant is the standard one on the transpose, whose
    # column target check passes here and leaves rows the filling rejects
    with pytest.raises(ValueError, match=r"row lengths must weakly decrease, got \[3, 1, 2\]"):
        cbs_insert(F([[2, 7, 3], [6]]), 1, 4, "transposed")
    with pytest.raises(ValueError, match=r"row lengths must weakly decrease, got \[3, 1, 2\]"):
        cbs_insert(F([[3, 7], [4], [1]]), 2, 5)


def test_p_maps_reject_a_corrupted_bump(monkeypatch):
    # the p-maps validate only the finished tableau; a kernel that appends to
    # row 1 without bumping must still be caught, not returned
    y = Involution.from_cycles(4, [(2, 3), (1, 4)])
    assert p_rbs(y) == T([[1], [2], [3], [4]]) and p_cbs(y) == T([[1, 3], [2, 4]])

    def misplace(rows, x):
        if not rows:
            rows.append([])
        rows[0].append(x)
        return 1, len(rows[0])

    monkeypatch.setattr(beissinger, "bump", misplace)
    with pytest.raises(ValueError):
        p_rbs(y)
    with pytest.raises(ValueError):
        p_cbs(y)


def test_transposed_variant_folds_to_the_transposed_p_cbs():
    # the transposed variant along the p-map insertion order builds the
    # transpose of p_cbs(y), which the p-map reaches through _insert_pair
    for n in range(1, 8):
        for y in enumerate_involutions(n):
            U = EMPTY
            for a, b in cycles_sorted(y):
                U = cbs_insert(U, a, b, "transposed")
            assert U == transpose(p_cbs(y))


def transposed_outcomes():
    """
    One line per case: the transposed variant on every standard tableau of
    size s <= 6, relabelled through each increasing map into 1..s+3, with
    every pair a <= b of the three free labels, in that nesting order.  A
    line is repr of the result's rows or "ValueError: " and the message.
    """
    for s in range(7):
        for U in standard_tableaux(s):
            for image in combinations(range(1, s + 4), s):
                V = Tableau([[image[v - 1] for v in row] for row in U.rows])
                free = sorted(set(range(1, s + 4)) - set(image))
                for a, b in combinations_with_replacement(free, 2):
                    try:
                        yield repr(cbs_insert(V, a, b, "transposed").rows) + "\n"
                    except ValueError as exc:
                        yield f"ValueError: {exc}\n"


def test_transposed_variant_outcomes_digest():
    # recorded while the transposed variant ran a column-bumping kernel of
    # its own, before it became the standard variant conjugated by transpose
    h = hashlib.sha256()
    count = 0
    for line in transposed_outcomes():
        h.update(line.encode())
        count += 1
    assert count == 49770
    assert h.hexdigest() == "3e8ffaa09d0388e58839305d0d97343519854c29de360467aa217ecdc02f302a"


def insertion_outcomes():
    """
    One line per y in I_n, n <= 8: repr(y), its cycle string, the rows of
    p_rbs(y) and p_cbs(y), both inverses of those tableaux, psi(y), then
    simrbs_partner, simcbs_partner (1 < i < n) and conj_by_s (1 <= i < n)
    at every i.
    """
    for n in range(1, 9):
        for y in enumerate_involutions(n):
            P, Q = p_rbs(y), p_cbs(y)
            parts = [repr(y), y.cycle_string(), repr(P.rows), repr(Q.rows),
                     repr(p_rbs_inverse(P)), repr(p_cbs_inverse(Q)), repr(psi(y))]
            parts += [repr(simrbs_partner(y, i)) for i in range(2, n)]
            parts += [repr(simcbs_partner(y, i)) for i in range(2, n)]
            parts += [repr(conj_by_s(y, i)) for i in range(1, n)]
            yield " ".join(parts) + "\n"


def test_insertion_outcomes_digest():
    # recorded while an Involution held its Permutation in a slot of its own
    h = hashlib.sha256()
    count = 0
    for line in insertion_outcomes():
        h.update(line.encode())
        count += 1
    assert count == 1115
    assert h.hexdigest() == "c16fdebc9b012ca46cbe0edc76f6b3a70f4a990d8fe6ed7c825ac1e02e2a5921"


def test_p_rbs_examples():
    assert p_rbs(inv([4, 2, 3, 1])) == T([[1, 3], [2], [4]])
    assert p_rbs(inv([1])) == T([[1]])
    assert p_rbs(inv([2, 1])) == T([[1], [2]])


def test_p_cbs_examples():
    assert p_cbs(inv([4, 2, 3, 1])) == T([[1, 4], [2], [3]])
    assert p_cbs(inv([1, 2, 3])) == T([[1], [2], [3]])
    assert p_cbs(inv([2, 1, 4, 3])) == T([[1, 2, 3, 4]])
    assert p_cbs(inv([4, 3, 2, 1])) == T([[1, 3], [2, 4]])


def test_p_cbs_inverse_examples():
    assert p_cbs_inverse(T([[1, 4], [2], [3]])) == inv([4, 2, 3, 1])
    assert p_cbs_inverse(T([[1], [2], [3]])) == inv([1, 2, 3])
    assert p_cbs_inverse(T([[1, 2, 3], [4]])).cycle_string() == "(2,3)"
    with pytest.raises(ValueError):
        p_cbs_inverse(T([[2, 3], [4]]))


def test_p_rbs_inverse_examples():
    assert p_rbs_inverse(T([[1, 3], [2], [4]])) == inv([4, 2, 3, 1])
    assert p_rbs_inverse(T([[1]])) == inv([1])
    assert p_rbs_inverse(T([[1, 2], [3, 4]])) == inv([3, 4, 1, 2])
    with pytest.raises(ValueError):
        p_rbs_inverse(T([[2, 3], [4]]))


def test_inverses_reject_a_non_increasing_filling():
    # entries 1..n in a partition shape are not enough: peeling such a
    # filling gives an involution whose p-map is another tableau (the
    # identity for [[2, 1]], whose p_rbs is [[1, 2]])
    for rows in ([[2, 1]], [[1, 2], [4, 3]], [[2], [1]], [[1, 3], [4], [2]]):
        for inverse in (p_rbs_inverse, p_cbs_inverse):
            with pytest.raises(ValueError, match="input must be a standard tableau"):
                inverse(Tableau.filling(rows))


def test_p_rbs_equals_rs_tableau():
    for n in range(1, 9):
        for y in enumerate_involutions(n):
            assert p_rbs(y) == pq_rs(y)[0]


def test_bijections_with_parity_refinement():
    for n in range(1, 9):
        syt = {t.rows for t in standard_tableaux(n)}
        seen_r, seen_c = set(), set()
        for y in enumerate_involutions(n):
            k = len(y.fixed_points())
            tr, tc = p_rbs(y), p_cbs(y)
            seen_r.add(tr.rows)
            seen_c.add(tc.rows)
            assert odd_lines(tr, "columns") == k
            assert odd_lines(tc, "rows") == k
        assert seen_r == syt
        assert seen_c == syt


def test_round_trips():
    for n in range(1, 9):
        for y in enumerate_involutions(n):
            assert p_rbs_inverse(p_rbs(y)) == y
            assert p_cbs_inverse(p_cbs(y)) == y


def test_psi_examples():
    assert psi(Involution.from_cycles(4, [(1, 3)])) == Involution.from_cycles(4, [(2, 3)])
    assert psi(Involution.from_cycles(4, [(1, 2), (3, 4)])) == Involution.from_cycles(4, [(1, 3), (2, 4)])
    assert psi(Involution.identity(4)) == Involution.identity(4)
    orbit = psi_orbit(Involution.from_cycles(4, [(1, 4)]))
    assert [z.cycle_string() for z in orbit] == ["(1,4)", "(2,4)", "(3,4)"]
    orbit2 = psi_orbit(Involution.from_cycles(4, [(1, 2), (3, 4)]))
    assert [z.cycle_string() for z in orbit2] == ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]


def test_psi_matches_the_transposed_tableau_peel():
    # psi peels the rows of transpose(p_rbs(y)); build them cell by cell here
    for n in range(9):
        for y in enumerate_involutions(n):
            rows = p_rbs(y).rows
            width = len(rows[0]) if rows else 0
            cols = [[row[c] for row in rows if len(row) > c] for c in range(width)]
            assert Tableau(cols) == transpose(p_rbs(y))
            assert psi(y) == beissinger._peel(cols, False)  # consumes cols


def test_psi_orbit_is_bounded(monkeypatch):
    # a psi that never returns to y (here it sends everything to the
    # identity) stops after |I_4| = 10 steps instead of growing the orbit
    monkeypatch.setattr(beissinger, "psi", lambda z: Involution.identity(4))
    with pytest.raises(RuntimeError, match=r"does not return within \|I_4\| = 10 steps"):
        psi_orbit(Involution.from_cycles(4, [(1, 4)]))
    assert psi_orbit(Involution.identity(4)) == [Involution.identity(4)]


def test_psi_cycle_stats_examples():
    st = psi_cycle_stats(5)
    assert st.longest_cycle == 12
    assert [f.word for f in st.fixed_points] == [(1, 2, 3, 4, 5), (2, 1, 3, 4, 5)]
    assert psi_cycle_stats(1) == PsiStats(1, (Involution.identity(1),), (1,))
    assert psi_cycle_stats(6).longest_cycle == 15


def test_psi_preserves_fixed_point_count():
    for n in range(1, 9):
        for y in enumerate_involutions(n):
            assert len(psi(y).fixed_points()) == len(y.fixed_points())


def test_psi_commutes_with_inclusion():
    for n in range(1, 7):
        for y in enumerate_involutions(n):
            bigger = Involution(y.word + (n + 1,))
            assert psi(bigger) == Involution(psi(y).word + (n + 1,))


def test_simrbs_partner_examples():
    assert simrbs_partner(inv([4, 2, 3, 1]), 3) == inv([3, 2, 1, 4])
    assert simrbs_partner(inv([4, 2, 3, 1]), 2) == inv([1, 4, 3, 2])
    assert simrbs_partner(inv([1, 2, 3]), 2) == inv([1, 2, 3])
    with pytest.raises(ValueError):
        simrbs_partner(inv([1, 2, 3]), 1)


def test_simcbs_partner_examples():
    assert simcbs_partner(inv([4, 2, 3, 1]), 2) == inv([4, 2, 3, 1])
    assert simcbs_partner(inv([4, 2, 3, 1]), 3) == inv([3, 2, 1, 4])
    assert simcbs_partner(inv([1, 2, 3]), 2) == inv([1, 2, 3])
    assert p_cbs(inv([3, 2, 1, 4])) == T([[1, 3], [2], [4]])
    assert dual_equiv(T([[1, 3], [2], [4]]), 3) == T([[1, 4], [2], [3]])
    with pytest.raises(ValueError):
        simcbs_partner(inv([1, 2, 3]), 3)


def test_conj_by_transposition_matches_the_validated_product():
    for n in range(2, 8):
        for y in enumerate_involutions(n):
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    t = Permutation.transposition(n, a, b)
                    z = beissinger._conj_by_transposition(y, a, b)
                    assert isinstance(z, Involution) and z == Involution(t * y * t)


def word_or_error(make):
    try:
        return make().word
    except ValueError as exc:
        return str(exc)


def test_conjugate_check_fires_as_the_full_check():
    # y * t in place of t * y * t: the positions a, b swapped, the values not
    fired = 0
    for n in range(2, 7):
        for y in enumerate_involutions(n):
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    w = list(y.word)
                    w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
                    got = word_or_error(lambda: _conjugate_involution(y, tuple(w), a, b))
                    assert got == word_or_error(lambda: Involution(Permutation(w)))
                    fired += isinstance(got, str)
    assert fired


def partner_by_search(tabs, i, y):
    target = tabs[y]
    found = [z for z, t in tabs.items() if dual_equiv(t, i) == target]
    assert len(found) == 1
    return found[0]


def test_partner_formulas_match_search():
    for n in range(3, 7):
        invs = list(enumerate_involutions(n))
        rt = {y: p_rbs(y) for y in invs}
        ct = {y: p_cbs(y) for y in invs}
        for y in invs:
            for i in range(2, n):
                zr = simrbs_partner(y, i)
                assert zr == partner_by_search(rt, i, y)
                assert simrbs_partner(zr, i) == y
                zc = simcbs_partner(y, i)
                assert zc == partner_by_search(ct, i, y)
                assert simcbs_partner(zc, i) == y


# -- properties at sizes past exhaustive enumeration ---------------------------


@st.composite
def involutions(draw, min_n=1, max_n=25):
    """A random involution: the first 2k points of a shuffled [n], paired off."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    return Involution.from_cycles(n, [(order[2 * j], order[2 * j + 1]) for j in range(k)])


@settings(max_examples=100)
@given(involutions())
def test_round_trips_random(y):
    assert p_rbs_inverse(p_rbs(y)) == y
    assert p_cbs_inverse(p_cbs(y)) == y


@settings(max_examples=100)
@given(involutions())
def test_psi_preserves_fixed_point_count_random(y):
    assert len(psi(y).fixed_points()) == len(y.fixed_points())


@settings(max_examples=100)
@given(involutions(min_n=3), st.data())
def test_partners_match_dual_equiv_random(y, data):
    i = data.draw(st.integers(2, y.n - 1), label="i")
    assert p_rbs(simrbs_partner(y, i)) == dual_equiv(p_rbs(y), i)
    assert p_cbs(simcbs_partner(y, i)) == dual_equiv(p_cbs(y), i)


# -- the kernels at the sizes of the benchmark --------------------------------


def peel_reference(T, row):
    """
    The inverse p-maps by the direct method, as a reference: each step takes
    the largest row end by a keyed max and counts the rows that reach column c.
    """
    if not T.is_standard():
        raise ValueError("input must be a standard tableau")
    rows = [list(r) for r in T.rows]
    pairs = []
    while rows:
        r = max(range(len(rows)), key=lambda k: rows[k][-1])
        b = rows[r].pop()
        c = len(rows[r])
        if not rows[r]:
            del rows[r]
        if (r if row else c) == 0:
            pairs.append((b, b))
        else:
            start = r if row else sum(1 for x in rows if len(x) >= c)
            pairs.append((unbump(rows, start), b))
    return Involution.from_cycles(T.size, pairs)


def seeded_involutions(seed, sizes):
    """One involution per size: a shuffled [n] whose first 2k points pair off."""
    rng = random.Random(seed)
    for n in sizes:
        points = list(range(1, n + 1))
        rng.shuffle(points)
        k = rng.randint(0, n // 2)
        yield Involution.from_cycles(n, [(points[2 * j], points[2 * j + 1]) for j in range(k)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernels_at_benchmark_sizes(seed):
    for y in seeded_involutions(seed, range(20, 81)):
        P, Q = p_rbs(y), p_cbs(y)
        assert P == pq_rs(y)[0]
        assert p_rbs_inverse(P) == y == peel_reference(P, True)
        assert p_cbs_inverse(Q) == y == peel_reference(Q, False)
        z = psi(y)
        assert z == peel_reference(transpose(P), False)
        assert p_cbs(z) == transpose(P)
        assert len(z.fixed_points()) == len(y.fixed_points())
        # the peels also agree on tableaux that neither p-map produced for y
        for U in (transpose(P), transpose(Q)):
            assert p_rbs_inverse(U) == peel_reference(U, True)
            assert p_cbs_inverse(U) == peel_reference(U, False)


def insert_by_counting(T, a, b):
    """cbs_insert with the column target found by counting the rows longer than c."""
    rows = [list(r) for r in T.rows]
    r, c = bump(rows, a) if a < b else (0, 0)
    target = sum(1 for x in rows if len(x) > c)
    if (len(rows[target]) if target < len(rows) else 0) != c:
        raise ValueError(f"appending to column {c + 1} would not give a tableau")
    if target < len(rows):
        rows[target].append(b)
    else:
        rows.append([b])
    return Tableau.filling(rows)


def outcome(f, *args):
    try:
        return f(*args).rows
    except ValueError as exc:
        return str(exc)


def test_cbs_insert_on_random_fillings_matches_counting_target():
    # on a filling the bump can end below a row shorter than its new box, so
    # the scan for the column target must pass rows of any length <= c
    rng = random.Random(9)
    kinds = set()
    for _ in range(3000):
        shape = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 5))), reverse=True)
        values = rng.sample(range(1, 2 * sum(shape) + 3), sum(shape) + 2)
        a, b = sorted(values[-2:]) if rng.random() < 0.8 else (values[-1], values[-1])
        rest = iter(values[:-2])
        F = Tableau.filling([[next(rest) for _ in range(m)] for m in shape])
        want = outcome(insert_by_counting, F, a, b)
        assert outcome(cbs_insert, F, a, b) == want, (F, a, b)
        kinds.add(want if isinstance(want, str) else "filling")
    assert "filling" in kinds and len(kinds) >= 3


# -- the peel: an exhaustive oracle and fault detection -----------------------


@pytest.mark.parametrize("n", range(9))
def test_inverses_match_reference_on_every_syt(n):
    for U in standard_tableaux(n):
        y, z = p_rbs_inverse(U), p_cbs_inverse(U)
        assert y == peel_reference(U, True)
        assert z == peel_reference(U, False)
        assert p_rbs(y) == U and p_cbs(z) == U


@pytest.mark.parametrize("peel", [
    lambda y: p_rbs_inverse(p_rbs(y)),
    lambda y: p_cbs_inverse(p_cbs(y)),
    psi,
], ids=["rbs", "cbs", "psi"])
def test_peel_raises_when_unbump_returns_a_paired_value(monkeypatch, peel):
    # every later unbump returns the partner found by the first one
    real, first = beissinger.unbump, []

    def faulty(rows, r, where=None):
        first.append(real(rows, r, where))
        return first[0]

    monkeypatch.setattr(beissinger, "unbump", faulty)
    with pytest.raises(RuntimeError, match="already paired"):
        peel(inv([3, 4, 1, 2]))


@pytest.mark.parametrize("bad", [
    [[2, 1]], [[1, 2], [4, 3]], [[1, 4], [3, 2]], [[2], [1]], [[1, 3, 4], [2], [6], [5]],
])
def test_unchecked_non_increasing_tableaux_are_rejected(bad):
    from gelfand_wgraphs.gelfand import iota_line

    for U in (Tableau(bad, validate=False), Tableau.filling(bad),
              transpose(Tableau.filling(bad))):
        assert not U.is_standard()
        for f in (p_rbs_inverse, p_cbs_inverse,
                  lambda t: iota_line(t, "row"), lambda t: iota_line(t, "col")):
            with pytest.raises(ValueError, match="standard tableau"):
                f(U)
