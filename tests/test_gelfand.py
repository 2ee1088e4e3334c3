import io
import json
import random
import sys
import tracemalloc
from array import array
from itertools import permutations

import pytest

from gelfand_wgraphs import gelfand, hecke, tableau
from gelfand_wgraphs.action import PackedAction, relation_violations
from gelfand_wgraphs.beissinger import p_cbs, p_rbs
from gelfand_wgraphs.gelfand import (
    ASC_LT,
    DES_LT,
    ColumnStore,
    DescentData,
    GelfandVertex,
    Model,
    ModuleTable,
    _model,
    canonical_basis,
    descent_data,
    embed,
    hat_p,
    in_asc_image,
    inverse_embed,
    iota_line,
    lambda_shape,
    tables_json,
    tau,
    transfer_points,
)
from gelfand_wgraphs.laurent import ONE, X, X_INV, X_MINUS_XINV, LaurentPoly
from gelfand_wgraphs.perm import Involution, Permutation, enumerate_involutions, word_conj_s
from gelfand_wgraphs.tableau import Tableau, odd_lines, standard_tableaux
from gelfand_wgraphs.wgraph import build_gamma, classify, graph_action, symmetrize_mu

from column_ops import add, scale


def inv(word):
    return Involution(word)


def T(rows):
    return Tableau(rows)


def E(z, c=ONE):
    """c·T_z as a column of the model of z: a dict from index to LaurentPoly."""
    return {_model(z.n, z.variant).index[z.word]: c}


def tables_text(n, variant):
    """What tables_json writes, as one string."""
    fh = io.StringIO()
    tables_json(n, variant, fh)
    return fh.getvalue()


def tables_reference(n, variant):
    """
    The tables document built whole as nested lists from the canonical_columns
    view: the layout tables_json wrote through json.dumps before it streamed.
    """
    m = _model(n, "asc" if variant == "M" else "des")
    return {
        "variant": variant,
        "n": n,
        "vertices": [list(w) for w in m.words],
        "columns": {
            str(z): [[y, col[y].to_pairs()] for y in sorted(col)]
            for z, col in enumerate(m.canonical_columns())
        },
        "mu": sorted([y, z, v] for (y, z), v in m.mu_entries().items()),
    }


def fpf_words(m):
    """All fixed-point-free involution words on [m], by direct matching."""
    word = [0] * m

    def rec(free):
        if not free:
            yield tuple(word)
            return
        i = free[0]
        for j in free[1:]:
            word[i - 1], word[j - 1] = j, i
            yield from rec([k for k in free if k not in (i, j)])

    yield from rec(list(range(1, m + 1)))


def test_embed_examples():
    y = Involution.from_cycles(4, [(1, 3)])
    assert embed(y, "asc").word == (3, 5, 1, 6, 2, 4, 8, 7)
    assert embed(y, "des").word == (3, 6, 1, 5, 4, 2, 8, 7)
    assert embed(Involution.from_cycles(2, [(1, 2)]), "asc").word == (2, 1, 4, 3)
    assert embed(inv([2, 1, 3, 4]), "asc").word == (2, 1, 5, 6, 3, 4, 8, 7)
    assert embed(inv([2, 1, 3, 4]), "des").word == (2, 1, 6, 5, 4, 3, 8, 7)
    assert embed(inv([4, 2, 3, 1]), "des").word == (4, 6, 5, 1, 3, 2, 8, 7)


def test_vertex_validation():
    GelfandVertex((2, 1, 4, 3), 2, "asc")
    with pytest.raises(ValueError):
        GelfandVertex((2, 1, 4, 3), 2, "rows")
    with pytest.raises(ValueError):
        GelfandVertex((1, 2, 4, 3), 2, "asc")  # has fixed points
    with pytest.raises(ValueError):
        GelfandVertex((4, 3, 2, 1), 2, "asc")  # lies only in the des image
    assert GelfandVertex((4, 3, 2, 1), 2, "des").word == (4, 3, 2, 1)


def test_inverse_embed_round_trip():
    for n in range(1, 7):
        for w in enumerate_involutions(n):
            for mode in ("asc", "des"):
                assert inverse_embed(embed(w, mode).word, n) == w


def test_membership_via_visible_descents():
    # ascending image = fixed-point-free involutions with no visible descent
    # beyond n, swept over all matchings of [2n]
    for n in range(1, 8):
        image = {embed(w, "asc").word for w in enumerate_involutions(n)}
        for word in fpf_words(2 * n):
            assert (word in image) == in_asc_image(word, n)


def test_descent_data_examples():
    z = embed(inv([2, 1, 3, 4]), "asc")
    assert descent_data(z) == DescentData(
        des_eq=frozenset({1}), asc_eq=frozenset({3}),
        des_lt=frozenset(), asc_lt=frozenset({2}),
    )
    z2 = embed(Involution.identity(2), "asc")
    assert z2.word == (3, 4, 1, 2)
    assert descent_data(z2) == DescentData(
        des_eq=frozenset(), asc_eq=frozenset({1}),
        des_lt=frozenset(), asc_lt=frozenset(),
    )
    z3 = embed(Involution.from_cycles(2, [(1, 2)]), "asc")
    assert descent_data(z3).des_eq == {1}


def test_descent_data_partitions_indices():
    for n in (2, 3, 4, 5):
        for w in enumerate_involutions(n):
            for mode in ("asc", "des"):
                d = descent_data(embed(w, mode))
                union = d.des_eq | d.asc_eq | d.des_lt | d.asc_lt
                assert union == set(range(1, n))
                assert sum(map(len, (d.des_eq, d.asc_eq, d.des_lt, d.asc_lt))) == n - 1


def test_h_action_examples():
    z = embed(Involution.identity(2), "asc")
    assert _model(2, "asc").h_col(1, E(z)) == E(z, -X_INV)
    zf = embed(Involution.from_cycles(2, [(1, 2)]), "asc")
    assert _model(2, "asc").h_col(1, E(zf)) == E(zf, X)
    zd = embed(inv([2, 1, 3, 4]), "des")
    assert zd.word == (2, 1, 6, 5, 4, 3, 8, 7)
    out = _model(4, "des").h_col(2, E(zd))
    assert out == E(GelfandVertex(word_conj_s(zd.word, 2), 4, "des"))
    # weak cases swap signs between the two variants
    zdes_id = embed(Involution.identity(2), "des")
    assert _model(2, "des").h_col(1, E(zdes_id)) == E(zdes_id, X)
    with pytest.raises(ValueError):
        _model(4, "des").h_col(4, E(zd))
    assert gelfand.h_action(_model(4, "des"), 2, E(zd)) == out


def test_quadratic_and_braid_relations():
    for n in (2, 3, 4, 5):
        for mode in ("asc", "des"):
            m = _model(n, mode)
            for k in range(len(m.words)):
                e = {k: ONE}
                for i in range(1, n):
                    hi = m.h_col(i, e)
                    assert m.h_col(i, hi) == add(e, scale(hi, X_MINUS_XINV))
                    for j in range(i + 1, n):
                        ij = m.h_col(i, m.h_col(j, e))
                        ji = m.h_col(j, m.h_col(i, e))
                        if j == i + 1:
                            assert m.h_col(j, ij) == m.h_col(i, ji)
                        else:
                            assert ij == ji


def test_relation_violations_of_true_action():
    for n in range(1, 9):
        for mode in ("asc", "des"):
            m = _model(n, mode)
            assert relation_violations(m.action()) == [], (n, mode)


def doubled_at(terms, i):
    """The action terms with H_{s_i} doubled."""
    terms = dict(terms)
    terms[i] = [tuple((u, d, 2 * a) for u, d, a in tv) for tv in terms[i]]
    return terms


def test_relation_violations_catch_doubled_generator():
    m = _model(4, "asc")
    act = PackedAction(4, len(m.words), doubled_at(m.action_terms(), 2))
    assert relation_violations(act) == [
        "quadratic relation fails for s_2",
        "braid relation fails for s_1, s_2",
        "braid relation fails for s_2, s_3",
    ]


def test_packed_key_field_bound():
    m = _model(4, "asc")
    act = m.action()  # reach 1: the least field with bias > 3
    assert (act.shift, act.bias, act.reach) == (3, 4, 1)
    v = len(m.words) // 2
    # keys move by addition, so x^bias·T_v would take the key of x^-bias·T_{v+1}
    assert (v << act.shift) + act.bias + act.bias == (v + 1) << act.shift
    # h_col and bar_col take exponents far outside the key field
    for i in (1, 2, 3):
        for e in (40, -40, 1000):
            col = {v: LaurentPoly.term(3, e)}
            want = {u: c * LaurentPoly.term(1, e) for u, c in m.h_col(i, {v: ONE}).items()}
            assert m.h_col(i, col) == {u: c * 3 for u, c in want.items()}
    # bar(x^e·T_v) = x^-e·bar(T_v)
    for e in (40, -1000):
        want = {u: c * LaurentPoly.term(1, -e) for u, c in m.bar_col({v: ONE}).items()}
        assert m.bar_col({v: LaurentPoly.term(1, e)}) == want


def test_bar_module_examples():
    z = embed(Involution.identity(2), "asc")  # no strict descents
    m = _model(2, "asc")
    assert m.bar_col(E(z)) == E(z)
    assert m.bar_col(E(z, X)) == E(z, X_INV)
    assert gelfand.bar_module(m, E(z, X)) == E(z, X_INV)


def test_bar_module_involutive_and_compatible():
    for n in (2, 3, 4, 5):
        for mode in ("asc", "des"):
            m = _model(n, mode)
            for k in range(len(m.words)):
                e = {k: ONE}
                be = m.bar_col(e)
                assert m.bar_col(be) == e
                for i in range(1, n):
                    want = add(m.h_col(i, be), scale(be, -X_MINUS_XINV))
                    assert m.bar_col(m.h_col(i, e)) == want


def test_canonical_basis_small_cases():
    cols, mu = canonical_basis(2, "M")
    assert len(cols) == 2 and not mu.entries
    for z, e in cols.items():
        assert e == {z: ONE}
    cols1, mu1 = canonical_basis(1, "M")
    assert len(cols1) == 1 and not mu1.entries
    with pytest.raises(ValueError):
        canonical_basis(2, "Q")


def test_canonical_basis_shares_one_vertex_object_per_vertex():
    cols, mu = canonical_basis(4, "N")
    verts = {z.word: z for z in cols}
    assert all(y is verts[y.word] for e in cols.values() for y in e)
    assert all(y is verts[y.word] and z is verts[z.word] for y, z in mu.entries)


def test_canonical_basis_verified_and_triangular():
    # bar-invariance is checked inside for n <= 6; unitriangularity asserted here
    for n in (3, 4, 5, 6):
        for variant in ("M", "N"):
            cols, mu = canonical_basis(n, variant)
            for z, e in cols.items():
                assert e[z] == ONE
                for y, c in e.items():
                    if y != z:
                        assert y.length() < z.length()
                        assert c.in_neg_span()
            for (y, z), m in mu.entries.items():
                assert m != 0 and y.length() < z.length()


def test_canonical_basis_pivot_choice_independent():
    for n in (3, 4, 5):
        for variant in ("M", "N"):
            lo, _ = canonical_basis(n, variant, check_bar=False, pick="min")
            hi, _ = canonical_basis(n, variant, check_bar=False, pick="max")
            assert lo == hi
    # every rule stores the same terms in each column and finds the same mu
    for n in range(1, 7):
        for variant in ("asc", "des"):
            runs = {}
            for pick in ("cost", "min", "max"):
                m = Model(n, variant, pick=pick)
                store = m.column_store()
                cols = [sorted(zip(*store.column(z))) for z in range(len(m.words))]
                runs[pick] = (cols, m.mu_entries())
            assert runs["cost"] == runs["min"] == runs["max"], (n, variant)
    with pytest.raises(ValueError, match="pick must be one of"):
        Model(3, "asc", pick="first")


def test_cost_pivot_reads_fewer_terms():
    for variant in ("asc", "des"):
        reads = {}
        for pick in ("cost", "min"):
            m = Model(8, variant, pick=pick)
            m.column_store()
            reads[pick] = m.term_reads
        assert reads["cost"] < reads["min"], (variant, reads)


def test_store_self_check_catches_swapped_weak_scalars():
    # the unitriangularity checks run on the integer store as it is filled,
    # before any LaurentPoly column exists
    for n in (3, 4, 5):
        m = Model(n, "asc")
        m.weak_asc, m.weak_des = m.weak_des, m.weak_asc
        with pytest.raises(RuntimeError, match="has a bad term"):
            m.mu_entries()


class UnitArray(array):
    """An array whose typecode "b" holds only -1, 0 and 1."""

    def fromlist(self, values):
        if self.typecode == "b" and any(abs(c) > 1 for c in values):
            raise OverflowError("forced narrow coefficient type")
        super().fromlist(values)


@pytest.mark.parametrize("variant", ["M", "N"])
def test_store_widens_a_narrow_coefficient_type(monkeypatch, variant):
    # n=7 has coefficients 2 and 3 (M) or 2 (N): past the forced range of "b"
    text, mu = tables_text(7, variant), _model(7, "asc" if variant == "M" else "des").mu_entries()
    _model.cache_clear()
    monkeypatch.setattr(gelfand, "array", UnitArray)
    try:
        assert tables_text(7, variant) == text
        m = _model(7, "asc" if variant == "M" else "des")
        assert m.mu_entries() == mu and list(m.mu_entries()) == list(mu)
        assert m.column_store().coefs.typecode == "h"
    finally:
        _model.cache_clear()


def test_store_raises_when_no_coefficient_type_fits(monkeypatch):
    monkeypatch.setattr(gelfand, "array", UnitArray)
    monkeypatch.setattr(ColumnStore, "coef_codes", "b")
    with pytest.raises(RuntimeError, match=r"column \(.*\) has a coefficient beyond 64 bits"):
        Model(7, "asc").mu_entries()


@pytest.mark.parametrize("bits", [2, 3, 8])
def test_store_key_layout(bits):
    # room for one step H_s + x^-1 or H_s - x (an exponent moves by one)
    # from the deepest storable term and from the diagonal; key order is
    # (vertex, exponent) order
    store = ColumnStore(6, bits)
    assert (store.shift, store.bias) == (bits + 1, 2**bits)
    low = -(2**bits - 2)
    for v in range(6):
        for e in (low, 0):
            key = store.key(v, e)
            assert (key - 1) >> store.shift == v == (key + 1) >> store.shift
    terms = [(v, e) for v in range(6) for e in range(low, 1)]
    shuffled = random.Random(bits).sample(terms, len(terms))
    assert sorted(shuffled, key=lambda t: store.key(*t)) == terms
    store.append([store.key(v, e) for v, e in shuffled], [1] * len(terms))
    assert store.terms(0) == [(v, e, 1) for v, e in shuffled]


def test_action_field_holds_three_generators():
    # relation_violations applies up to three generators, or one and x^±1,
    # to a basis vector, so the field needs bias > 3·max(reach, 1)
    for reach in (0, 1, 5):
        terms = {1: [((0, reach, 1), (1, 0, 1)), ((1, -reach, 2),)]}
        act = PackedAction(2, 2, terms)
        assert act.reach == reach and act.bias == 1 << act.shift - 1
        assert 3 * max(reach, 1) < act.bias <= 6 * max(reach, 1), reach
    tables = [Model(n, v) for n in range(1, 8) for v in ("asc", "des")]
    for m in tables + [hecke._regular(n) for n in range(1, 6)]:
        act = m.action()
        assert (act.shift, act.bias, act.reach) == (3, 4, 1 if m.n > 1 else 0), m.n
    act = graph_action(build_gamma(5, "row"))  # a W-graph's action: reach 1 too
    assert (act.shift, act.bias, act.reach) == (3, 4, 1)


def test_long_vertex_keeps_the_8_bit_field():
    # T_w0 = H_1·T_e for w0 of S_24: bar(T_w0) reaches x^±1 only, and the
    # length 276 of w0, past the 255 an 8-bit field holds, widens nothing
    e, w0 = tuple(range(1, 25)), tuple(range(24, 0, -1))
    m = ModuleTable(
        2, [w0, e],
        lambda wd, i: ASC_LT if wd == e else DES_LT,
        lambda wd, i: w0 if wd == e else e,
        lambda wd: frozenset({1}) if wd == e else frozenset(),
    )
    assert m.length == [0, 276] and m.exp_bits == 8
    store = m.column_store()
    assert (store.shift, store.bias) == (9, 256)
    assert m.canonical_columns()[1] == {1: ONE, 0: X_INV}
    assert m.bar_col({1: ONE}) == {1: ONE, 0: -X_MINUS_XINV}
    col = {0: LaurentPoly({5: 1, -300: 3}), 1: LaurentPoly({700: -2})}
    assert m.bar_col(col) == {
        0: LaurentPoly({-5: 1, 300: 3}) + LaurentPoly({-700: -2}) * -X_MINUS_XINV,
        1: LaurentPoly({-700: -2}),
    }
    assert m.bar_col(m.bar_col(col)) == col


def test_store_exponent_field_bounds():
    # n=5 M reaches x^-6: a 3-bit field holds exponents down to -6, 2 bits only to -2
    m = Model(5, "asc")
    m.exp_bits = 3
    assert m.mu_entries() == _model(5, "asc").mu_entries()
    assert m.canonical_columns() == _model(5, "asc").canonical_columns()
    m = Model(5, "asc")
    m.exp_bits = 2
    with pytest.raises(RuntimeError, match=r"column \(.*\) has a term at .* below the 2-bit key field"):
        m.mu_entries()


@pytest.mark.parametrize("variant", ["asc", "des"])
def test_store_takes_at_most_8_bytes_per_term(variant):
    store = _model(7, variant).column_store()
    size = sum(sys.getsizeof(a) for a in (store.keys, store.coefs, store.ends))
    assert size <= 8 * len(store.keys)


def test_graph_path_reads_the_store(monkeypatch):
    def refuse(self):
        raise AssertionError("the LaurentPoly view was built")

    _model.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(ModuleTable, "canonical_columns", refuse)
            g = build_gamma(5, "row", reduced=False)
            doc = json.loads(tables_text(5, "M"))
        m = _model(5, "asc")
        assert g.omega == symmetrize_mu(m.mu_entries())
        view = m.canonical_columns()
        assert doc["columns"] == {
            str(z): [[y, col[y].to_pairs()] for y in sorted(col)]
            for z, col in enumerate(view)
        }
    finally:
        _model.cache_clear()


def test_omega_symmetric():
    for n in (3, 4, 5):
        for variant in ("M", "N"):
            _, mu = canonical_basis(n, variant, check_bar=False)
            om = symmetrize_mu(mu.entries)
            for (y, z), v in om.items():
                assert om[(z, y)] == v and v != 0


def test_tau_examples():
    assert tau(embed(Involution.identity(2), "asc")) == {1}
    assert tau(embed(Involution.from_cycles(2, [(1, 2)]), "asc")) == frozenset()
    assert tau(GelfandVertex((2, 1, 4, 3), 2, "des")) == {1}


def test_tau_matches_length_characterization():
    # asc: strictly longer conjugate; des: weakly longer conjugate
    from gelfand_wgraphs.perm import conj_compare

    for n in (2, 3, 4, 5):
        for w in enumerate_involutions(n):
            za, zd = embed(w, "asc"), embed(w, "des")
            assert tau(za) == {
                i for i in range(1, n) if conj_compare(za.involution, i) == "higher"
            }
            assert tau(zd) == {
                i for i in range(1, n)
                if conj_compare(zd.involution, i) in ("higher", "equal")
            }


def test_transfer_points_examples():
    assert transfer_points(embed(inv([2, 1, 3, 4]), "asc")) == {3, 4}
    assert transfer_points(embed(Involution.from_cycles(2, [(1, 2)]), "asc")) == frozenset()
    assert transfer_points(embed(inv([4, 2, 3, 1]), "des")) == {2, 3}


def test_hat_p_examples():
    assert hat_p(embed(inv([2, 1, 3, 4]), "asc")) == T([[1, 3, 4], [2]])
    assert hat_p(embed(inv([3, 2, 1, 4]), "asc")) == T([[1, 2, 4], [3]])
    assert hat_p(embed(inv([4, 2, 3, 1]), "asc")) == T([[1, 2, 3], [4]])
    assert hat_p(embed(inv([2, 1, 3, 4]), "des")) == T([[1, 2, 3], [4]])
    assert hat_p(embed(inv([3, 2, 1, 4]), "des")) == T([[1, 2, 4], [3]])
    assert hat_p(embed(inv([4, 2, 3, 1]), "des")) == T([[1, 2], [3], [4]])


def test_lambda_shape_examples():
    assert lambda_shape(embed(inv([2, 1, 3, 4]), "asc")) == (3, 1)
    assert lambda_shape(embed(Involution.identity(2), "asc")) == (2,)
    assert lambda_shape(embed(inv([4, 2, 3, 1]), "des")) == (2, 1, 1)


def test_iota_line_examples():
    assert iota_line(T([[1, 2, 3, 4], [5, 7], [6]]), "row") == T(
        [[1, 2, 3, 4, 11, 13], [5, 7, 9, 10, 12, 14], [6], [8]]
    )
    assert iota_line(T([[1, 2, 3], [4, 5], [6], [7]]), "col") == T(
        [[1, 2, 3, 8, 11, 12, 13, 14], [4, 5], [6, 9], [7, 10]]
    )
    assert iota_line(T([[1]]), "row") == T([[1], [2]])
    assert iota_line(T([[1]]), "col") == T([[1, 2]])
    with pytest.raises(ValueError):
        iota_line(T([[2]]), "row")
    with pytest.raises(ValueError):
        iota_line(T([[1]]), "diag")
    # entries 1..n in a partition shape whose rows or columns do not increase
    for rows in ([[2, 1]], [[1, 2], [4, 3]], [[2], [1]]):
        for direction in ("row", "col"):
            with pytest.raises(ValueError, match="input must be a standard tableau"):
                iota_line(Tableau.filling(rows), direction)


def test_iota_line_parity_postconditions():
    for n in range(1, 8):
        for U in standard_tableaux(n):
            doubled_r = iota_line(U, "row")
            doubled_c = iota_line(U, "col")
            assert doubled_r.size == doubled_c.size == 2 * n
            assert doubled_r.is_standard() and doubled_c.is_standard()
            assert odd_lines(doubled_r, "columns") == 0
            assert odd_lines(doubled_c, "rows") == 0


def test_reconstruction_from_hat_p():
    for n in range(1, 8):
        for w in enumerate_involutions(n):
            za, zd = embed(w, "asc"), embed(w, "des")
            assert iota_line(hat_p(za), "row") == p_rbs(za.involution)
            assert iota_line(hat_p(zd), "col") == p_cbs(zd.involution)


def test_hat_p_bijective_with_refinement():
    for n in range(1, 8):
        syt = {t.rows for t in standard_tableaux(n)}
        for mode, odd_dir in (("asc", "columns"), ("des", "rows")):
            images = {}
            for w in enumerate_involutions(n):
                z = embed(w, mode)
                img = hat_p(z)
                images[img.rows] = z
                assert odd_lines(img, odd_dir) == len(transfer_points(z))
            assert set(images) == syt


def test_embedding_length_and_descent_identities():
    for n in range(1, 9):
        for w in enumerate_involutions(n):
            za, zd = embed(w, "asc"), embed(w, "des")
            k = len(w.fixed_points())
            assert za.length() + k * (k - 1) == zd.length()
            assert descent_data(za) == descent_data(zd)


def test_tables_json_schema():
    doc = json.loads(tables_text(3, "M"))
    assert doc["variant"] == "M" and doc["n"] == 3
    assert len(doc["vertices"]) == 4
    assert set(doc["columns"]) == {"0", "1", "2", "3"}
    for z, col in doc["columns"].items():
        assert any(y == int(z) and pairs == [[0, 1]] for y, pairs in col)
    for y, z, m in doc["mu"]:
        assert isinstance(m, int) and m != 0 and y < z


@pytest.mark.parametrize("variant", ["M", "N"])
def test_tables_json_streams_the_reference_text(variant):
    for n in range(1, 7):
        assert tables_text(n, variant) == json.dumps(tables_reference(n, variant)) + "\n"


class CountingSink:
    """A text file that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


@pytest.mark.parametrize("variant", ["M", "N"])
def test_tables_json_memory_stays_below_text_size(variant):
    # with the model built first, writing the tables holds at most a column
    # and the small vertex and mu lists (building the document whole as
    # lists and dumping it peaks at 28-29 times the text at n=7)
    _model(7, "asc" if variant == "M" else "des").mu_entries()
    sink = CountingSink()
    tracemalloc.start()
    try:
        tables_json(7, variant, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == len(tables_text(7, variant))
    assert peak < 5 * sink.chars


def test_classify_validates_each_shape_tableau_once(monkeypatch):
    # the p-map validates its tableau; hat_p restricts it without a second check
    calls = []
    validate = tableau._validate
    monkeypatch.setattr(tableau, "_validate", lambda *a, **k: calls.append(1) or validate(*a, **k))
    try:
        report = classify(9, "row")
    finally:
        _model.cache_clear()  # release the n=9 models
    assert report.ok
    assert len(calls) == 2620  # |I_9|: one per vertex


def tables_store_reference(m):
    """The tables document of a model, built whole from its store's terms."""
    store = m.column_store()
    columns = {}
    for z in range(len(m.words)):
        by_vertex = {}
        for y, e, c in store.terms(z):
            by_vertex.setdefault(y, []).append([e, c])
        columns[str(z)] = [[y, sorted(by_vertex[y])] for y in sorted(by_vertex)]
    return {
        "variant": "M" if m.variant == "asc" else "N",
        "n": m.n,
        "vertices": [list(w) for w in m.words],
        "columns": columns,
        "mu": sorted([y, z, v] for (y, z), v in m.mu_entries().items()),
    }


def test_tables_json_on_a_hand_made_store(monkeypatch):
    # terms no canonical basis at n <= 6 has: coefficients below -1 and
    # above 127 (the array widens to "h"), exponents from -1 down to -254
    # (the deepest a key field of exp_bits = 8 stores), a vertex with many
    # exponents in one column, and terms appended out of order
    import random

    rng = random.Random(12)
    m = Model(4, "asc")
    V = len(m.words)
    store = ColumnStore(V, m.exp_bits)
    mu_by_col = []
    for z in range(V):
        terms = {(z, 0): 1}
        for y in range(z):
            for e in rng.sample(range(-254, 0), rng.choice((1, 1, 2, 5))):
                terms[y, e] = rng.choice((-1, 1, 2, -3, 127, -128, 128, -300, 1000))
        if z == V - 1:
            terms.update({(0, e): -e - 128 for e in range(-254, 0)})
            terms.pop((0, -128))  # coefficient 0 is never stored
        items = list(terms.items())
        rng.shuffle(items)
        store.append([store.key(y, e) for (y, e), _ in items], [c for _, c in items])
        mu_by_col.append({y: c for (y, e), c in terms.items() if e == -1})
    assert store.coefs.typecode == "h" and min(store.coefs) == -300
    assert min(e for z in range(V) for _, e, _ in store.terms(z)) == -254
    m._store, m._mu_by_col = store, mu_by_col
    monkeypatch.setattr(gelfand, "_model", lambda n, variant: m)
    fh = io.StringIO()
    tables_json(4, "M", fh)
    assert fh.getvalue() == json.dumps(tables_store_reference(m)) + "\n"


def vertex_index_table(n, variant):
    """
    The index table of Model(n, variant) built as it was before Model
    worked on bare words: a GelfandVertex per embedded involution, with its
    descent data, conjugates and ascent set.  The embedding, the length and
    the ascent set (by the length characterization) are spelled out here
    rather than taken from the model's word-level functions.
    """
    from gelfand_wgraphs.perm import conj_compare

    up = ("higher",) if variant == "asc" else ("higher", "equal")
    verts = []
    for w in enumerate_involutions(n):
        word = list(range(1, 2 * n + 1))
        for i in range(1, n + 1):
            if w(i) != i:
                word[i - 1] = w(i)
        fixed = w.fixed_points()
        q = len(fixed)
        for k, c in enumerate(fixed, 1):
            partner = n + k if variant == "asc" else n + q + 1 - k
            word[c - 1], word[partner - 1] = partner, c
        for i in range(n + q + 1, 2 * n + 1):
            word[i - 1] = i + 1 if i % 2 else i - 1
        verts.append(GelfandVertex(word, n, variant))  # validated
    keyed = sorted(
        (sum(1 for i in range(2 * n) for j in range(i + 1, 2 * n) if z.word[i] > z.word[j]),
         z.word, z)
        for z in verts
    )
    words = [wd for _, wd, _ in keyed]
    index = {wd: k for k, wd in enumerate(words)}
    cls, cnj = {}, {}
    data = [descent_data(z) for _, _, z in keyed]
    for i in range(1, n):
        cls[i] = [
            gelfand.DES_EQ if i in d.des_eq else gelfand.ASC_EQ if i in d.asc_eq
            else gelfand.DES_LT if i in d.des_lt else gelfand.ASC_LT
            for d in data
        ]
        cnj[i] = [
            index[word_conj_s(z.word, i)] if i in d.des_lt | d.asc_lt else k
            for k, ((_, _, z), d) in enumerate(zip(keyed, data))
        ]
    return {
        "words": words,
        "length": [ln for ln, _, _ in keyed],
        "cls": cls,
        "cnj": cnj,
        "strict_descents": [sorted(d.des_lt) for d in data],
        "tau": [
            frozenset(i for i in range(1, n) if conj_compare(z.involution, i) in up)
            for _, _, z in keyed
        ],
    }


@pytest.mark.parametrize("variant", ["asc", "des"])
def test_word_index_table_matches_vertex_construction(variant):
    for n in range(1, 8):
        m = Model(n, variant)
        want = vertex_index_table(n, variant)
        assert {k: getattr(m, k) for k in want} == want


@pytest.mark.parametrize("variant", ["asc", "des"])
def test_cnj_takes_one_act_call_per_strict_pair(monkeypatch, variant):
    calls = []

    def counted(word, i):
        calls.append(i)
        return word_conj_s(word, i)

    monkeypatch.setattr(gelfand, "word_conj_s", counted)
    m = Model(9, variant)
    strict = sum(c in (ASC_LT, DES_LT) for cls_i in m.cls.values() for c in cls_i)
    assert len(calls) == 8624 and 2 * len(calls) == strict
