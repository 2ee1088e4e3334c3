"""
The two runs of the one canonical-basis recursion (ModuleTable._recursion):
the truncated run, which mu_columns() takes while no column store has been
asked for, and the full run, which column_store() takes.  The truncated mu
table against the full one, the kept columns against the full columns cut
at their depth, the full run computing each column once in vertex order,
the cross-check column_store() makes between the two, mu_columns() served
by a store made first, and a hand-built table whose weak scalar moves an
exponent by two.
"""

import re
from itertools import permutations

import pytest

from gelfand_wgraphs import hecke
from gelfand_wgraphs.gelfand import ASC_EQ, ASC_LT, DES_EQ, DES_LT, Model, ModuleTable
from gelfand_wgraphs.laurent import X_INV, LaurentPoly

from column_ops import vertex_index


def fresh(kind, n):
    """A new table, not the cached one: model M, model N or the regular representation."""
    if kind == "regular":
        return hecke._regular.__wrapped__(n)
    return Model(n, "asc" if kind == "M" else "des")


def truncated_then_full(table):
    """The table's mu from the truncated recursion, then from the full one."""
    mu = [dict(col) for col in table.mu_columns()]
    assert table.mu_counts is not None and table._store is None
    table.column_store()  # runs the cross-check
    return mu, list(table.mu_columns())


@pytest.mark.parametrize("pick", ModuleTable.picks)
@pytest.mark.parametrize("variant", ["asc", "des"])
def test_truncated_mu_is_the_full_mu(variant, pick):
    for n in range(1, 9):
        truncated, full = truncated_then_full(Model(n, variant, pick=pick))
        assert truncated == full, (n, variant, pick)


@pytest.mark.parametrize("n", range(1, 7))
def test_truncated_mu_is_the_full_mu_on_the_regular_table(n):
    truncated, full = truncated_then_full(fresh("regular", n))
    assert truncated == full


@pytest.mark.parametrize("kind", ["M", "N", "regular"])
def test_kept_columns_are_the_full_columns_cut_at_their_depth(kind):
    for n in range(1, 8 if kind != "regular" else 6):
        t = fresh(kind, n)
        kept, depth = t._recursion(full=False)
        full = fresh(kind, n).column_store()
        for z in range(len(t.words)):
            want = sorted(term for term in full.terms(z) if term[1] >= -depth[z])
            assert sorted(kept.terms(z)) == want, (kind, n, z)
            assert depth[z] >= 1
        assert t.mu_counts[1] == sum(len(kept.terms(z)) for z in range(len(t.words)))


def test_a_column_is_computed_again_deeper():
    # at n=7 M, 9 columns are read deeper than when they were first computed
    m = Model(7, "asc")
    kept, _ = m._recursion(full=False)
    reads, terms, computed = m.mu_counts
    assert computed == len(m.words) + 9
    assert len(kept.ends) == computed and len(kept.keys) > terms  # the older copies stay


@pytest.mark.parametrize("kind", ["M", "N", "regular"])
def test_the_full_run_computes_each_column_once_in_vertex_order(kind):
    for n in range(1, 8 if kind != "regular" else 6):
        t = fresh(kind, n)
        store, depth = t._recursion(full=True)
        V = len(t.words)
        assert len(store.ends) == V and list(store.at) == list(range(V)), (kind, n)
        assert depth == [float("inf")] * V and t.mu_counts is None


def test_a_store_made_first_serves_the_mu_table():
    # graph build --tables makes the store before the graph reads mu
    m = Model(7, "des")
    store = m.column_store()
    mu = m.mu_columns()
    assert m.mu_counts is None and mu is m._mu_by_col and m.column_store() is store
    assert mu == fresh("N", 7).mu_columns()


def test_the_store_cross_checks_the_truncated_mu():
    m = Model(6, "asc")
    mu = m.mu_columns()
    z = max(v for v, col in enumerate(mu) if col)
    y = min(mu[z])
    mu[z][y] += 1  # the table's own dict, as a faulty recursion would leave it
    msg = f"column {m.words[z]} has other mu entries in the full recursion than in the truncated one"
    with pytest.raises(RuntimeError, match=re.escape(msg)):
        m.column_store()
    ref = Model(6, "asc")
    ref.column_store()
    assert m.mu_columns() == ref.mu_columns() and m.mu_columns()[z][y] == mu[z][y] - 1


def s3_and_one_more():
    """
    The regular representation of S_3 on generators 1 and 2, with a third
    generator s_3: strict only between w0 = 321 and one more vertex z of
    length 4, weak at every other vertex, with scalar x^2 at the identity
    (a weak descent) and -x^-1 elsewhere.  C_s3 = H_s3 + x^-1 then moves
    x^-3·T_e in C_w0 to x^-1·T_e in C_z, so C_w0 is read to depth 3.
    """
    s3 = [p + (4,) for p in permutations((1, 2, 3))]
    e, w0, z = (1, 2, 3, 4), (3, 2, 1, 4), (3, 2, 4, 1)

    def classify(wd, i):
        if i == 3:
            return {e: DES_EQ, w0: ASC_LT, z: DES_LT}.get(wd, ASC_EQ)
        if wd == z:
            return ASC_EQ
        return ASC_LT if hecke._left_ascent(wd, i) else DES_LT

    def act(wd, i):
        if i == 3:
            return z if wd == w0 else w0
        return hecke._s_mul_word(i, wd[:3]) + (4,)

    return ModuleTable(4, s3 + [z], classify, act, (-X_INV, LaurentPoly({2: 1}))), e, w0, z


def test_a_weak_scalar_x2_reads_its_column_two_deeper():
    t, e, w0, z = s3_and_one_more()
    assert max(d for terms in t._step_terms(1).values() for _, d in terms) == 2
    kept, depth = t._recursion(full=False)
    index = vertex_index(t)
    iw0, iz, ie = index[w0], index[z], index[e]
    assert depth[iz] == 1 and depth[iw0] == 3 and (ie, -3, 1) in kept.terms(iw0)
    truncated, full = truncated_then_full(s3_and_one_more()[0])
    assert truncated == full and full[iz] == {iw0: 1, ie: 1}
