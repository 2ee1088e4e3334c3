"""
The canonical-basis engine's two inner loops: the step kernel
(ModuleTable._stepper) against the LaurentPoly rule of `h_col`, on the Gelfand
models, the regular representation and hand-built tables whose weak scalars
M and N never have; and the column self-check (ModuleTable._check_column) on
crafted faulty columns, against the per-term check it replaced, which is
kept here as the oracle of its messages and their order.
"""

import random
from itertools import combinations

import pytest

from gelfand_wgraphs import hecke
from gelfand_wgraphs.gelfand import (
    ASC_EQ,
    ASC_LT,
    DES_EQ,
    DES_LT,
    ColumnStore,
    Model,
    ModuleTable,
)
from gelfand_wgraphs.laurent import X_INV, LaurentPoly

from column_ops import to_pairs


def decode(store, out):
    """A step's packed output as a dict from (vertex, exponent) to nonzero coefficient."""
    field = (1 << store.shift) - 1
    return {(k >> store.shift, (k & field) - store.bias): c for k, c in out.items() if c}


def oracle(table, i, sign, col):
    """
    C·col by h_col's sums, as decode gives it: C = H_s + x^-1 for sign 1
    and H_s - x for sign -1, col a column of LaurentPolys.
    """
    out = {(y, e): c for y, t in table._h_sums(i, col).items() for e, c in t.items()}
    for y, p in col.items():  # plus sign·x^-sign·col
        for e, c in p.items():
            out[y, e - sign] = out.get((y, e - sign), 0) + sign * c
    return {k: c for k, c in out.items() if c}


def assert_steps_match(table):
    """Every column and generator, both signs: the step equals its oracle."""
    store = table.column_store()
    step = table._stepper(store)
    for v, col in enumerate(table.canonical_columns()):
        for i in range(1, table.n):
            for sign in (1, -1):
                assert decode(store, step(i, sign, v)) == oracle(table, i, sign, col), (v, i, sign)


@pytest.mark.parametrize("kind", ["M", "N", "regular"])
@pytest.mark.parametrize("n", range(1, 7))
def test_step_matches_h_col(kind, n):
    if kind == "regular":
        table = hecke._regular(n)
    else:
        table = Model(n, "asc" if kind == "M" else "des")
    assert_steps_match(table)


def test_step_subtracts_the_lower_columns():
    # step(i, 1, w, lower) is C·C_w minus m·C_y over the (y, m) with i not in tau(y)
    table = Model(5, "asc")
    store = table.column_store()
    step = table._stepper(store)
    cols = table.canonical_columns()
    rng = random.Random(5)
    for w in range(len(cols)):
        i = rng.randrange(1, table.n)
        lower = [(y, rng.choice([1, -2, 3])) for y in rng.sample(range(len(cols)), 3)]
        want = oracle(table, i, 1, cols[w])
        for y, m in lower:
            if i not in table.tau[y]:
                for u, p in cols[y].items():
                    for e, c in p.items():
                        want[u, e] = want.get((u, e), 0) - m * c
        want = {k: c for k, c in want.items() if c}
        assert decode(store, step(i, 1, w, lower)) == want


def two_vertex_table(weak_asc, weak_des):
    """
    Vertices a = 123 and b = 132 for n = 3: s_2 moves a to b, and s_1 is a
    weak ascent of a and a weak descent of b, with the given scalars.  The
    recursion only steps by s_2, so any scalars give a store; the steps by
    s_1 then read the move table of those scalars.
    """
    a, b = (1, 2, 3), (1, 3, 2)
    return ModuleTable(
        3, [b, a],
        lambda wd, i: (ASC_EQ, DES_EQ)[wd == b] if i == 1 else (ASC_LT, DES_LT)[wd == b],
        lambda wd, i: b if wd == a else a,
        (weak_asc, weak_des),
    )


@pytest.mark.parametrize("weak_asc, weak_des, sizes", [
    # the weak scalar plus x^-1 has one term at the ascent and three at the descent
    (LaurentPoly({-1: 2}), LaurentPoly({2: 1, 0: 5}), (1, 3)),
    # two terms whose multipliers are not 1, and a scalar that cancels to none
    (LaurentPoly({-2: 3}), -X_INV, (2, 0)),
    # three terms at both
    (LaurentPoly({1: 1, 3: -2}), LaurentPoly({4: 1, -3: 7}), (3, 3)),
])
def test_step_on_hand_built_weak_scalars(weak_asc, weak_des, sizes):
    table = two_vertex_table(weak_asc, weak_des)
    assert tuple(len(to_pairs(p + X_INV)) for p in (weak_asc, weak_des)) == sizes
    assert table.tau == [frozenset({1, 2}), frozenset({1})]  # none of the scalars is x
    assert table.canonical_columns() == [{0: LaurentPoly({0: 1})},
                                         {1: LaurentPoly({0: 1}), 0: X_INV}]
    assert_steps_match(table)


# -- the column self-check ----------------------------------------------------


def check_column_per_term(table, z, col, store):
    """
    The per-term self-check that _check_column replaced: its verdict, with
    the message it raised, or the mu entries it returned.
    """
    lz, length = table.length[z], table.length
    shift, bias = store.shift, store.bias
    field = (1 << shift) - 1
    diagonal = 0
    bad = deep = None
    keys, coefs = [], []
    mu = {}
    for key, c in col.items():
        if not c:
            continue
        keys.append(key)
        coefs.append(c)
        y, f = key >> shift, key & field
        if y == z:
            diagonal += 1
        elif f == bias - 1:
            mu[y] = c
            if length[y] >= lz and bad is None:
                bad = y
        elif f < 2:
            deep = y, f - bias
        elif (f >= bias or length[y] >= lz) and bad is None:
            bad = y
    if diagonal != 1 or col.get(store.key(z, 0)) != 1:
        return f"column {table.words[z]} is not unitriangular"
    if deep is not None:
        return (f"column {table.words[z]} has a term at {table.words[deep[0]]} with exponent "
                f"{deep[1]}, below the {table.exp_bits}-bit key field")
    if bad is not None:
        c = LaurentPoly({
            k - store.key(bad, 0): c for k, c in zip(keys, coefs) if k >> shift == bad
        })
        return f"column {table.words[z]} has a bad term at {table.words[bad]}: {c}"
    if any(abs(c) >= 1 << 63 for c in coefs):
        return f"column {table.words[z]} has a coefficient beyond 64 bits"
    return mu


def verdict(table, z, col):
    """What _check_column makes of col as column z: its message or its mu entries."""
    store = ColumnStore(len(table.words), table.exp_bits)
    try:
        return table._check_column(z, dict(col), store)
    except RuntimeError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def m5():
    table = Model(5, "asc")
    table.column_store()
    return table


def stored(table, z):
    """Column z as the step hands it over: a dict from packed key to coefficient."""
    keys, coefs = table.column_store().column(z)
    return dict(zip(keys, coefs))


def a_column(table):
    """A column z with terms off the diagonal, and a vertex of z's length other than z."""
    for z in range(len(table.words) - 1, -1, -1):
        same = [y for y, ln in enumerate(table.length) if ln == table.length[z] and y != z]
        if len(stored(table, z)) > 3 and same:
            return z, same[0]
    raise AssertionError("no such column")


def test_good_columns_give_their_mu_entries(m5):
    store = m5.column_store()
    for z in range(len(m5.words)):
        col = stored(m5, z)
        col[store.key(0, -3)] = col.get(store.key(0, -3), 0)  # a zero term is dropped
        assert verdict(m5, z, col) == m5.mu_columns()[z]
        assert list(verdict(m5, z, col)) == list(m5.mu_columns()[z])


def faults(table, z, same):
    """Crafted faults of column z: name -> (coefficients added by key, start of the message)."""
    store = table.column_store()
    words = table.words
    lower = next(y for y in sorted({k >> store.shift for k in stored(table, z)}) if y != z)
    key = store.key
    return {
        "diagonal 2": ({key(z, 0): 1}, f"column {words[z]} is not unitriangular"),
        "second term at z": ({key(z, -1): 1}, f"column {words[z]} is not unitriangular"),
        "no diagonal": ({key(z, 0): -1}, f"column {words[z]} is not unitriangular"),
        "x^0 below z": ({key(lower, 0): 4}, f"column {words[z]} has a bad term at {words[lower]}"),
        "x^1 below z": ({key(lower, 1): 1}, f"column {words[z]} has a bad term at {words[lower]}"),
        "x^-1 at z's length": ({key(same, -1): 1},
                               f"column {words[z]} has a bad term at {words[same]}"),
        "x^-3 at z's length": ({key(same, -3): 2},
                               f"column {words[z]} has a bad term at {words[same]}"),
        "below the field": ({key(lower, -255): 1},
                            f"column {words[z]} has a term at {words[lower]} with exponent -255"),
        "at the field's floor": (
            {key(lower, -256): 1},
            f"column {words[z]} has a term at {words[lower]} with exponent -256",
        ),
        "beyond 64 bits": ({key(lower, -2): 1 << 64},
                           f"column {words[z]} has a coefficient beyond 64 bits"),
    }


def corrupt(col, delta):
    out = dict(col)
    for k, d in delta.items():
        out[k] = out.get(k, 0) + d
    return out


def test_each_fault_has_its_message(m5):
    z, same = a_column(m5)
    col = stored(m5, z)
    for name, (delta, msg) in faults(m5, z, same).items():
        got = verdict(m5, z, corrupt(col, delta))
        assert isinstance(got, str) and got.startswith(msg), (name, got)
        assert got == check_column_per_term(m5, z, corrupt(col, delta), m5.column_store()), name


def test_bad_term_message_names_the_whole_polynomial(m5):
    z, same = a_column(m5)
    store = m5.column_store()
    col = corrupt(stored(m5, z), {store.key(same, -1): 1, store.key(same, -4): -2})
    assert verdict(m5, z, col) == (
        f"column {m5.words[z]} has a bad term at {m5.words[same]}: "
        f"{LaurentPoly({-1: 1, -4: -2})}"
    )


def test_two_faults_name_the_first_by_rank(m5):
    # not unitriangular, then too deep, then bad, then 64 bits, in either order
    # in the column; of two deep terms the last is named, of two bad ones the first
    z, same = a_column(m5)
    col = stored(m5, z)
    found = faults(m5, z, same)
    rank = ["diagonal 2", "below the field", "x^0 below z", "beyond 64 bits"]
    for a, b in combinations(rank, 2):
        for first, second in ((a, b), (b, a)):
            got = verdict(m5, z, corrupt(col, {**found[first][0], **found[second][0]}))
            assert got.startswith(found[a][1]), (first, second, got)
    words, store = m5.words, m5.column_store()
    lower = [y for y in range(len(words)) if m5.length[y] < m5.length[z]]
    deep = {store.key(lower[0], -255): 1, store.key(lower[1], -256): 1}
    assert verdict(m5, z, corrupt(col, deep)).startswith(
        f"column {words[z]} has a term at {words[lower[1]]} with exponent -256")
    bad = {store.key(lower[1], 0): 1, store.key(lower[0], 1): 1}
    assert verdict(m5, z, corrupt(col, bad)).startswith(
        f"column {words[z]} has a bad term at {words[lower[1]]}")


def test_two_faults_agree_with_the_per_term_check(m5):
    z, same = a_column(m5)
    col = stored(m5, z)
    found = faults(m5, z, same)
    names = list(found)
    for first in names:
        for second in names:
            if first == second:
                continue
            delta = dict(found[first][0])
            for k, d in found[second][0].items():
                delta[k] = delta.get(k, 0) + d
            bad = corrupt(col, delta)
            assert verdict(m5, z, bad) == check_column_per_term(m5, z, bad, m5.column_store()), (
                first, second)


def test_random_faults_agree_with_the_per_term_check(m5):
    rng = random.Random(22)
    store = m5.column_store()
    V = len(m5.words)
    for _ in range(400):
        z = rng.randrange(V)
        col = stored(m5, z)
        for _ in range(rng.randrange(1, 4)):
            y = rng.randrange(V)
            e = rng.choice([-256, -255, -254, -6, -2, -1, 0, 1])
            col[store.key(y, e)] = col.get(store.key(y, e), 0) + rng.choice([-1, 1, 2])
        assert verdict(m5, z, col) == check_column_per_term(m5, z, col, store)
