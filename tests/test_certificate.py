"""
The W-graph certificate, ModuleTable.check_intertwining: it holds on every
canonical basis, names the column at fault when the store, the mu table or
tau is corrupted, and gives the same verdict at n <= 5 as the quadratic
bar-invariance comparison it replaced, which is kept here as the oracle.
"""

import ast
import copy
import random
import re

import pytest

from gelfand_wgraphs import hecke
from gelfand_wgraphs.gelfand import ColumnStore, Model, ModuleTable, canonical_basis

from column_ops import vertex_index


def table_of(kind, n):
    """A table with its columns computed: corruptions are made after the build."""
    t = hecke._regular(n) if kind == "regular" else Model(n, "asc" if kind == "M" else "des")
    t.column_store()
    return t


def corrupted(table, z, y, e, delta):
    """
    A copy of `table` whose column z has delta added to its x^e coefficient
    at vertex y, as if the recursion had computed it: the x^-1 coefficients
    stay its mu entries.  The table itself is left as it is.
    """
    store = table.column_store()
    new = ColumnStore(len(table.words), table.exp_bits)
    for v in range(len(table.words)):
        terms = {(u, f): c for u, f, c in store.terms(v)}
        if v == z:
            terms[y, e] = terms.get((y, e), 0) + delta
        items = [(new.key(u, f), c) for (u, f), c in terms.items() if c]
        new.append([k for k, _ in items], [c for _, c in items])
    t = copy.copy(table)
    t._store = new
    t._mu_by_col = [dict(ml) for ml in table._mu_by_col]
    if e == -1:
        mu = t._mu_by_col[z]
        mu[y] = mu.get(y, 0) + delta
        if not mu[y]:
            del mu[y]
    return t


def verdict(table):
    """The certificate's message, or None if it holds."""
    try:
        table.check_intertwining()
    except RuntimeError as exc:
        return str(exc)
    return None


def bar_invariant(table):
    """The quadratic oracle: bar(C_z) == C_z for every canonical column."""
    return all(table.bar_col(col) == col for col in table.canonical_columns())


def failure_at(table, z):
    """The pattern of the certificate's message for column z."""
    return re.escape(f"column {table.words[z]} fails the W-graph action of s_") + r"\d+$"


def assert_named(kind, table, bad, z):
    """
    The certificate rejects `bad`, a copy of `table` with column z changed,
    at z itself or, in M only, at a W-graph neighbour of z.  In N and in the
    regular representation H_s - x kills no T_y, so the descent identities of
    z, which read only C_z and run first, see any change in C_z.  In M it
    kills T_y where s is a weak descent of y, and then the ascent identity
    of a neighbour, which reads C_z, fails instead.
    """
    msg = verdict(bad)
    assert msg is not None
    word = re.fullmatch(r"column (\(.*?\)) fails the W-graph action of s_\d+", msg)
    v = vertex_index(table)[ast.literal_eval(word.group(1))]
    mu = table._mu_by_col
    assert v == z or kind == "M" and (z in mu[v] or v in mu[z]), msg


def test_certificate_holds_and_builds_no_laurent_view(monkeypatch):
    def refuse(self):
        raise AssertionError("the LaurentPoly view was built")

    monkeypatch.setattr(ModuleTable, "canonical_columns", refuse)
    for n in range(1, 8):
        for kind in ("M", "N") + (("regular",) if n <= 5 else ()):
            t = table_of(kind, n)
            assert verdict(t) is None, (kind, n)  # it read the packed store only


def test_canonical_basis_check_bar_runs_the_certificate(monkeypatch):
    calls = []
    monkeypatch.setattr(Model, "check_intertwining", lambda self: calls.append(self.n))
    canonical_basis(4, "M", check_bar=True)
    assert calls == [4]
    canonical_basis(4, "M", check_bar=False)
    canonical_basis(4, "N", check_bar=False)
    assert calls == [4]


@pytest.mark.parametrize("kind,n", [("M", 6), ("N", 6), ("regular", 5)])
def test_corrupted_deeper_coefficient_is_named(kind, n):
    t = table_of(kind, n)
    e, z, y = min((e, z, y) for z in range(len(t.words))
                  for y, e, _ in t.column_store().terms(z))
    assert e <= -2
    assert_named(kind, t, corrupted(t, z, y, e, 1), z)
    assert verdict(t) is None  # the corruption went to a copy


@pytest.mark.parametrize("kind,n", [("M", 6), ("N", 6), ("regular", 5)])
def test_corrupted_mu_entry_is_named(kind, n):
    t = table_of(kind, n)
    z = max(range(len(t.words)), key=lambda v: len(t._mu_by_col[v]))
    y = min(t._mu_by_col[z])
    # the store's x^-1 coefficient and the mu table changed together
    assert_named(kind, t, corrupted(t, z, y, -1, 1), z)
    # the mu table alone: what build_gamma reads no longer matches the store
    bad = copy.copy(t)
    bad._mu_by_col = list(t._mu_by_col)
    bad._mu_by_col[z] = {**t._mu_by_col[z], y: t._mu_by_col[z][y] + 1}
    with pytest.raises(RuntimeError, match=re.escape(
            f"column {t.words[z]} disagrees with its mu entries")):
        bad.check_intertwining()


@pytest.mark.parametrize("kind,n", [("M", 5), ("N", 5), ("regular", 4)])
def test_corrupted_tau_bit_is_named(kind, n):
    t = table_of(kind, n)
    for v in range(len(t.words)):
        for i in range(1, n):
            bad = copy.copy(t)
            bad.tau = list(t.tau)
            bad.tau[v] = t.tau[v] ^ {i}
            msg = verdict(bad)
            assert msg is not None, (v, i)
            if i in t.tau[v]:  # a lost ascent fails v's own descent identity
                assert msg == f"column {t.words[v]} fails the W-graph action of s_{i}"


@pytest.mark.parametrize("kind,n,sample", [
    ("M", 4, None), ("N", 4, None), ("regular", 4, None),
    ("M", 5, None), ("N", 5, None), ("regular", 5, 4),
])
def test_certificate_agrees_with_bar_oracle(kind, n, sample):
    # a unitriangular family is bar-invariant only if it is the canonical
    # basis, so every one-coefficient change must fail both checks
    t = table_of(kind, n)
    assert verdict(t) is None and bar_invariant(t)
    store = t.column_store()
    changes = [(z, y, e) for z in range(len(t.words))
               for y, e, _ in store.terms(z) if y != z]
    if sample is not None:
        changes = random.Random(n).sample(changes, sample)
    for z, y, e in changes:
        bad = corrupted(t, z, y, e, 1)
        assert_named(kind, t, bad, z)
        assert not bar_invariant(bad), (z, y, e)


def test_bumped_kl_element_fails_both_checks():
    # the KL element of 231 plus x^-1·H_123, as in
    # test_hecke.py::test_kl_unique_given_triangularity
    t = hecke._regular(3)
    index = vertex_index(t)
    z, y = index[(2, 3, 1)], index[(1, 2, 3)]
    assert (y, -1) not in {(u, e) for u, e, _ in t.column_store().terms(z)}
    bad = corrupted(t, z, y, -1, 1)
    assert not bar_invariant(bad)
    with pytest.raises(RuntimeError, match=failure_at(t, z)):
        bad.check_intertwining()
