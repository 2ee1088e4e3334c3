"""
The truncated recursion (ModuleTable._mu_driver), which mu_columns() runs
while no column store has been asked for: its mu table against the full
recursion's, its kept columns against the full columns cut at their depth,
the cross-check column_store() makes between the two, and a hand-built
table whose weak scalar moves an exponent by two.
"""

import re
from itertools import permutations

import pytest

from gelfand_wgraphs import hecke
from gelfand_wgraphs.gelfand import ASC_EQ, ASC_LT, DES_EQ, DES_LT, Model, ModuleTable
from gelfand_wgraphs.laurent import X_INV, LaurentPoly


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
        kept, depth = t._mu_driver()
        full = fresh(kind, n).column_store()
        for z in range(len(t.words)):
            want = sorted(term for term in full.terms(z) if term[1] >= -depth[z])
            assert sorted(kept.terms(z)) == want, (kind, n, z)
            assert depth[z] >= 1
        assert t.mu_counts[1] == sum(len(kept.terms(z)) for z in range(len(t.words)))


def test_a_column_is_computed_again_deeper():
    # at n=7 M, 9 columns are read deeper than when they were first computed
    m = Model(7, "asc")
    kept, _ = m._mu_driver()
    reads, terms, computed = m.mu_counts
    assert computed == len(m.words) + 9
    assert len(kept.ends) == computed and len(kept.keys) > terms  # the older copies stay


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
    kept, depth = t._mu_driver()
    iw0, iz, ie = t.index[w0], t.index[z], t.index[e]
    assert depth[iz] == 1 and depth[iw0] == 3 and (ie, -3, 1) in kept.terms(iw0)
    truncated, full = truncated_then_full(s3_and_one_more()[0])
    assert truncated == full and full[iz] == {iw0: 1, ie: 1}
