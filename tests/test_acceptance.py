"""
Acceptance criteria, one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison below is equality; the only
tolerances are the per-criterion wall-clock budgets, asserted as stated.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from functools import lru_cache
from itertools import permutations

from gelfand_wgraphs.beissinger import (
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
from gelfand_wgraphs.gelfand import (
    descent_data,
    embed,
    hat_p,
    iota_line,
    lambda_shape,
    transfer_points,
)
from gelfand_wgraphs.hecke import _regular, kl_cells, kl_table
from gelfand_wgraphs.laurent import ONE
from gelfand_wgraphs.perm import (
    Involution,
    Permutation,
    cycles_sorted,
    enumerate_involutions,
    knuth_move,
    word_length,
)
from gelfand_wgraphs.tableau import (
    EMPTY,
    Tableau,
    dual_equiv,
    odd_lines,
    pq_rs,
    reading_word,
    rs_insert,
    standard_tableaux,
    transpose,
)
from gelfand_wgraphs.wgraph import (
    build_gamma,
    cells,
    character_check,
    classify,
    molecules,
    verify_axioms,
)


class _Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and took < self.seconds else "FAIL"
        print(f"[{status}] {self.name} ({took:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert took < self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


@lru_cache(maxsize=None)
def _psi_stats(n):
    return psi_cycle_stats(n)


def T(rows):
    return Tableau(rows)


def inv(word):
    return Involution(word)


def test_criterion_1_psi_longest_cycles():
    with _Budget("criterion 1: psi longest cycles n=1..10", 60):
        got = [_psi_stats(n).longest_cycle for n in range(1, 11)]
        assert got == [1, 1, 2, 3, 12, 15, 46, 131, 630, 1814]


def test_criterion_2_psi_fixed_points():
    with _Budget("criterion 2: psi fixed points n=2..10", 60):
        for n in range(2, 11):
            fixed = {z.word for z in _psi_stats(n).fixed_points}
            ident = tuple(range(1, n + 1))
            s1 = (2, 1) + tuple(range(3, n + 1))
            assert fixed == {ident, s1}, n


def test_criterion_3_worked_examples():
    with _Budget("criterion 3: worked examples", 1):
        # Schensted insertion and the two-tableau correspondence
        assert rs_insert(T([[1, 5], [3, 6], [4]]), 2)[0] == T([[1, 2], [3, 5], [4, 6]])
        assert rs_insert(T([[1, 3], [4]]), 2)[0] == T([[1, 2], [3], [4]])
        assert pq_rs(Permutation([3, 1, 4, 2, 5])) == (
            T([[1, 2, 5], [3, 4]]), T([[1, 3, 5], [2, 4]]))
        assert pq_rs(Permutation([2, 4, 1, 3, 5])) == (
            T([[1, 3, 5], [2, 4]]), T([[1, 2, 5], [3, 4]]))
        assert reading_word(T([[1, 2, 5], [3, 4]])) == (3, 4, 1, 2, 5)

        # dual equivalence chain and Knuth moves
        assert dual_equiv(T([[1, 2, 5], [3, 4]]), 2) == T([[1, 3, 5], [2, 4]])
        assert dual_equiv(T([[1, 3, 5], [2, 4]]), 4) == T([[1, 3, 4], [2, 5]])
        assert dual_equiv(T([[1, 3, 4], [2, 5]]), 3) == T([[1, 3, 4], [2, 5]])
        assert knuth_move(Permutation([2, 5, 4, 3, 1]), 2) == Permutation([5, 2, 4, 3, 1])
        assert knuth_move(Permutation([5, 2, 4, 3, 1]), 3) == Permutation([5, 4, 2, 3, 1])
        assert knuth_move(Permutation([4, 3, 2, 5, 1]), 4, dual=True) == Permutation([5, 3, 2, 4, 1])
        assert knuth_move(Permutation([5, 3, 2, 4, 1]), 3, dual=True) == Permutation([5, 4, 2, 3, 1])

        # row and column Beissinger insertion; a (5,5) fixed-point pair
        # appends 5 to the first row (rbs) or first column (cbs)
        assert rbs_insert(T([[2, 4], [3]]), 5, 5) == T([[2, 4, 5], [3]])
        assert rbs_insert(T([[1, 3], [4]]), 2, 5) == T([[1, 2], [3], [4], [5]])
        assert rbs_insert(T([[1, 4], [3]]), 2, 5) == T([[1, 2], [3, 4], [5]])
        assert rbs_insert(T([[1, 2, 3], [4]]), 5, 5) == T([[1, 2, 3, 5], [4]])
        assert rbs_insert(T([[1, 4, 6], [3]]), 2, 5) == T([[1, 2, 6], [3, 4], [5]])
        assert cbs_insert(T([[2, 3], [4]]), 5, 5) == T([[2, 3], [4], [5]])
        assert cbs_insert(T([[1, 4], [3]]), 2, 5) == T([[1, 2, 5], [3, 4]])
        assert cbs_insert(T([[1, 2, 3], [4]]), 5, 5) == T([[1, 2, 3], [4], [5]])
        assert cbs_insert(T([[1, 4, 6], [3]]), 2, 5).rows == ((1, 2, 6), (3, 4, 5))

        # the P maps on 4231 = (1,4) with 2, 3 fixed
        y = inv([4, 2, 3, 1])
        assert cycles_sorted(y) == [(2, 2), (3, 3), (1, 4)]
        assert p_rbs(y) == T([[1, 3], [2], [4]])
        assert p_cbs(y) == T([[1, 4], [2], [3]])
        assert p_rbs_inverse(T([[1, 3], [2], [4]])) == y
        assert p_cbs_inverse(T([[1, 4], [2], [3]])) == y

        # psi orbits listed for n=4, and its two fixed points
        assert psi(Involution.identity(4)) == Involution.identity(4)
        assert psi(inv([2, 1, 3, 4])) == inv([2, 1, 3, 4])
        assert [z.cycle_string() for z in psi_orbit(Involution.from_cycles(4, [(1, 3)]))] == [
            "(1,3)", "(2,3)"]
        assert [z.cycle_string() for z in psi_orbit(Involution.from_cycles(4, [(1, 4)]))] == [
            "(1,4)", "(2,4)", "(3,4)"]
        assert [z.cycle_string() for z in psi_orbit(Involution.from_cycles(4, [(1, 2), (3, 4)]))] == [
            "(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]

        # embeddings of (1,3) in S_4 and the displayed one-line words
        y13 = Involution.from_cycles(4, [(1, 3)])
        assert embed(y13, "asc").word == (3, 5, 1, 6, 2, 4, 8, 7)
        assert embed(y13, "des").word == (3, 6, 1, 5, 4, 2, 8, 7)
        assert embed(inv([2, 1, 3, 4]), "asc").word == (2, 1, 5, 6, 3, 4, 8, 7)
        assert embed(inv([4, 2, 3, 1]), "asc").word == (4, 5, 6, 1, 2, 3, 8, 7)
        assert embed(inv([2, 1, 3, 4]), "des").word == (2, 1, 6, 5, 4, 3, 8, 7)
        assert embed(inv([4, 2, 3, 1]), "des").word == (4, 6, 5, 1, 3, 2, 8, 7)

        # restricted insertion tableaux of those six vertices
        assert hat_p(embed(inv([2, 1, 3, 4]), "asc")) == T([[1, 3, 4], [2]])
        assert hat_p(embed(inv([3, 2, 1, 4]), "asc")) == T([[1, 2, 4], [3]])
        assert hat_p(embed(inv([4, 2, 3, 1]), "asc")) == T([[1, 2, 3], [4]])
        assert hat_p(embed(inv([2, 1, 3, 4]), "des")) == T([[1, 2, 3], [4]])
        assert hat_p(embed(inv([3, 2, 1, 4]), "des")) == T([[1, 2, 4], [3]])
        assert hat_p(embed(inv([4, 2, 3, 1]), "des")) == T([[1, 2], [3], [4]])

        # the two displayed doubling maps
        assert iota_line(T([[1, 2, 3, 4], [5, 7], [6]]), "row") == T(
            [[1, 2, 3, 4, 11, 13], [5, 7, 9, 10, 12, 14], [6], [8]])
        assert iota_line(T([[1, 2, 3], [4, 5], [6], [7]]), "col") == T(
            [[1, 2, 3, 8, 11, 12, 13, 14], [4, 5], [6, 9], [7, 10]])


def test_criterion_4_bijection_counts():
    with _Budget("criterion 4: Beissinger bijections with parity refinement, n<=8", 30):
        for n in range(1, 9):
            syt = list(standard_tableaux(n))
            by_odd_cols, by_odd_rows = {}, {}
            for t in syt:
                by_odd_cols.setdefault(odd_lines(t, "columns"), set()).add(t.rows)
                by_odd_rows.setdefault(odd_lines(t, "rows"), set()).add(t.rows)
            img_r, img_c = {}, {}
            for y in enumerate_involutions(n):
                k = len(y.fixed_points())
                img_r.setdefault(k, set()).add(p_rbs(y).rows)
                img_c.setdefault(k, set()).add(p_cbs(y).rows)
            assert img_r == by_odd_cols, n
            assert img_c == by_odd_rows, n


def test_criterion_5_partner_formulas():
    with _Budget("criterion 5: partner formulas vs exhaustive search, n<=7", 300):
        for n in range(3, 8):
            invs = list(enumerate_involutions(n))
            for tabs, partner in (
                ({y: p_rbs(y) for y in invs}, simrbs_partner),
                ({y: p_cbs(y) for y in invs}, simcbs_partner),
            ):
                for i in range(2, n):
                    lookup = {}
                    for z in invs:
                        key = dual_equiv(tabs[z], i).rows
                        assert key not in lookup, "partner is not unique"
                        lookup[key] = z
                    for y in invs:
                        expect = lookup[tabs[y].rows]
                        got = partner(y, i)
                        assert got == expect, (n, i, y.word)
                        assert partner(got, i) == y


def test_criterion_6_wgraph_axioms():
    with _Budget("criterion 6: W-graph defining relations, n<=5", 120):
        for n in range(1, 6):
            for variant in ("row", "col"):
                for reduced in (True, False):
                    rep = verify_axioms(build_gamma(n, variant, reduced))
                    assert rep.ok, (n, variant, reduced, rep.violations)


def test_criterion_7_molecule_classification():
    with _Budget("criterion 7: molecules = shape fibers (n<=6), edges (n<=5)", 600):
        for n in range(1, 7):
            for variant in ("row", "col"):
                rep = classify(n, variant)
                assert rep.molecules_match_fibers, (n, variant, rep.counterexamples)
                if n <= 5:
                    assert rep.edges_match, (n, variant, rep.counterexamples)


def test_criterion_8_cells_equal_molecules():
    with _Budget("criterion 8: cells = molecules, n<=6 plus the n=7 run", 600):
        for n in range(1, 8):
            for variant in ("row", "col"):
                g = build_gamma(n, variant)
                parts, _ = cells(g)
                assert parts == molecules(g), (n, variant)


def _conjugacy_representatives(n):
    seen, reps = set(), []
    for p in permutations(range(1, n + 1)):
        marks, ctype = [False] * n, []
        for i in range(n):
            if not marks[i]:
                j, size = i, 0
                while not marks[j]:
                    marks[j] = True
                    j = p[j] - 1
                    size += 1
                ctype.append(size)
        key = tuple(sorted(ctype))
        if key not in seen:
            seen.add(key)
            reps.append(Permutation(p))
    return reps


def test_criterion_9_character_identity():
    with _Budget("criterion 9: x=1 character counts square roots, n<=5", 300):
        for n in range(1, 6):
            reps = _conjugacy_representatives(n)
            for variant in ("row", "col"):
                g = build_gamma(n, variant)
                for w in reps:
                    assert character_check(g, w), (n, variant, w.word)


def test_criterion_10_kl_cross_validation():
    with _Budget("criterion 10: KL basis and cells cross-validation, n<=5", 300):
        for n in range(1, 6):
            table = _regular(n)
            _, kb, _ = kl_table(n)
            for w, el in kb.items():
                col = {table.index[y]: c for y, c in el.items()}
                assert table.bar_col(col) == col, (n, w)
                assert el[w] == ONE
                for y, c in el.items():
                    assert all(v >= 0 for _, v in c.items()), (n, w, y)
                    if y != w:
                        assert word_length(y) < word_length(w)
                        assert c.in_neg_span()
            for side, which in (("left", 1), ("right", 0)):
                fibers = {}
                for p in permutations(range(1, n + 1)):
                    fibers.setdefault(pq_rs(p)[which].rows, []).append(p)
                want = sorted(sorted(v) for v in fibers.values())
                got = sorted(sorted(c) for c in kl_cells(n, side))
                assert got == want, (n, side)


def test_criterion_11_embedding_identities():
    with _Budget("criterion 11: embedding and reconstruction identities", 120):
        for n in range(1, 9):
            for y in enumerate_involutions(n):
                za, zd = embed(y, "asc"), embed(y, "des")
                k = len(y.fixed_points())
                assert za.length() + k * (k - 1) == zd.length()
                assert descent_data(za) == descent_data(zd)
        for n in range(1, 8):
            for y in enumerate_involutions(n):
                za, zd = embed(y, "asc"), embed(y, "des")
                assert iota_line(hat_p(za), "row") == p_rbs(za.involution)
                assert iota_line(hat_p(zd), "col") == p_cbs(zd.involution)
