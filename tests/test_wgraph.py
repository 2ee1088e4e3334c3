import gc
import io
import json
import os
import re
import tracemalloc
from collections import Counter
from itertools import permutations

import pytest

from gelfand_wgraphs import wgraph
from gelfand_wgraphs.cli import main
from gelfand_wgraphs.gelfand import ASC_LT, Model, ModuleTable, _model, embed, tables_json
from gelfand_wgraphs.hecke import asc_right, kl_table, kl_wgraph, reduced_word
from gelfand_wgraphs.laurent import ONE, X, X_INV, LaurentPoly
from gelfand_wgraphs.perm import (
    Involution,
    Permutation,
    enumerate_involutions,
    word_conj_compare,
    word_conj_s,
)
from gelfand_wgraphs.wgraph import (
    EdgeTable,
    WGraph,
    _bidirected_words,
    build_gamma,
    cells,
    character_check,
    character_trace,
    classify,
    classify_graph,
    combinatorial_bidirected,
    combinatorial_bidirected_pairs,
    export,
    export_chunks,
    graph_action,
    molecules,
    parse_wgraph,
    square_root_count,
    symmetrize_mu,
    verify_axioms,
)

from column_ops import symmetrize_then_filter, vertex_index

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_build_gamma_smallest():
    g1 = build_gamma(1, "row")
    assert g1.size == 1 and not g1.omega and g1.tau == (frozenset(),)
    g2 = build_gamma(2, "row")
    assert g2.size == 2 and not g2.omega
    assert g2.vertices == ((2, 1, 4, 3), (3, 4, 1, 2))
    g3 = build_gamma(3, "row")
    assert g3.size == 4
    pairs = {(g3.vertices[v], g3.vertices[w]) for v, w in g3.bidirected_pairs()}
    assert pairs == {((2, 1, 4, 3, 6, 5), (3, 4, 1, 2, 6, 5))}
    assert build_gamma(3, "col").size == 4
    with pytest.raises(ValueError):
        build_gamma(3, "diag")


def test_reduced_flag_filters_inclusions():
    graw = build_gamma(3, "row", reduced=False)
    gred = build_gamma(3, "row", reduced=True)
    dropped = set(graw.omega) - set(gred.omega)
    assert dropped
    for v, w in dropped:
        assert graw.tau[v] <= graw.tau[w]


def assert_table_is(g, want):
    """g's edge table holds exactly the dict want, row by row in sorted order."""
    om = g.omega
    assert isinstance(om, EdgeTable) and om.size == g.size
    assert (om.start.typecode, om.dst.typecode) == ("q", "i") and om.start[0] == 0
    assert om == want and len(om) == len(want) == om.start[-1] == len(om.wt)
    assert list(om.triples()) == [(v, w, want[v, w]) for v, w in sorted(want)]
    for v in range(g.size):
        row = list(om.targets(v))
        assert all(a < b for a, b in zip(row, row[1:])), v  # strictly increasing


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("variant", ["row", "col"])
def test_omega_equals_symmetrize_then_filter(variant, reduced):
    for n in range(1, 9):
        m = _model(n, "asc" if variant == "row" else "des")
        want = symmetrize_then_filter(m.mu_entries(), m.tau, reduced)
        assert_table_is(build_gamma(n, variant, reduced), want)


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("side", ["left", "right"])
def test_kl_omega_equals_symmetrize_then_filter(side, reduced):
    for n in range(1, 6):
        g = kl_wgraph(n, side, reduced)
        tau = g.tau if side == "left" else [asc_right(w) for w in g.vertices]
        index = {w: k for k, w in enumerate(g.vertices)}
        mu = {(index[y], index[z]): m for (y, z), m in kl_table(n)[2].items()}
        assert_table_is(g, symmetrize_then_filter(mu, tau, reduced))


def test_symmetrize_mu_matches_the_oracle_on_columns():
    columns = [{}, {0: 1}, {0: -1, 1: 3}]
    pairs = {(0, 1): 1, (0, 2): -1, (1, 2): 3}
    tau = [frozenset({1}), frozenset(), frozenset({1, 2})]
    table = symmetrize_mu(columns)
    assert isinstance(table, EdgeTable) and table == symmetrize_then_filter(pairs, tau, False)
    assert symmetrize_mu(columns, tau) == symmetrize_then_filter(pairs, tau, True) == {
        (0, 1): 1, (2, 0): -1, (2, 1): 3}


def test_wgraph_init_copies_only_to_drop():
    tau = [frozenset({1}), frozenset(), frozenset({1, 2})]
    words = [(1,), (2,), (3,)]
    # (1, 0) and (0, 2) are tau inclusions, (1, 2) is a zero
    omega = {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1, (1, 2): 0, (2, 1): 2}
    given = dict(omega)
    red = WGraph(3, "row", True, words, tau, omega)
    assert isinstance(red.omega, EdgeTable)
    assert red.omega == {(0, 1): 1, (2, 0): 1, (2, 1): 2}
    raw = WGraph(3, "row", False, words, tau, omega)
    assert raw.omega == {k: c for k, c in given.items() if c}
    assert omega == given and list(omega) == list(given)  # the caller's dict is unchanged
    # an edge table with nothing to drop is kept as given
    assert WGraph(3, "row", True, words, tau, red.omega).omega is red.omega
    assert WGraph(3, "row", False, words, tau, raw.omega).omega is raw.omega
    g = build_gamma(5, "col")
    assert WGraph(5, "col", True, g.vertices, g.tau, g.omega).omega is g.omega
    # one with inclusions to drop is packed anew, and left as it was
    ungiven = (raw.omega.start.tolist(), raw.omega.dst.tolist(), raw.omega.wt.tolist())
    again = WGraph(3, "row", True, words, tau, raw.omega)
    assert again.omega is not raw.omega and again.omega == red.omega
    assert (raw.omega.start.tolist(), raw.omega.dst.tolist(), raw.omega.wt.tolist()) == ungiven
    with pytest.raises(ValueError, match=r"edge \(0, 3\) is not between two of the 3 vertices"):
        WGraph(3, "row", False, words, tau, {(0, 3): 1})


def test_wgraph_keeps_a_table_only_when_reduced_by_its_tau():
    words = [(1,), (2,), (3,)]
    tau = [frozenset({1}), frozenset(), frozenset({1, 2})]
    red = WGraph(3, "row", True, words, tau, {(0, 1): 1, (2, 0): 1, (2, 1): 2}).omega
    assert red.reduced_by == tuple(tau)
    # under another tau, (0, 1) is an inclusion: the table is packed anew without it
    other = [frozenset({1}), frozenset({1}), frozenset({1, 2})]
    g = WGraph(3, "row", True, words, other, red)
    assert g.omega is not red and g.omega == {(2, 0): 1, (2, 1): 2}
    assert g.omega.reduced_by == tuple(other) and red == {(0, 1): 1, (2, 0): 1, (2, 1): 2}
    m = _model(5, "des")
    assert tuple(symmetrize_mu(m.mu_columns(), m.tau).reduced_by) == build_gamma(5, "col").tau
    assert symmetrize_mu(m.mu_columns()).reduced_by is None


def test_edge_table_widens_its_weights_and_misses_absent_pairs():
    tau = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
    g = WGraph(3, "row", False, [(1,), (2,), (3,)], tau, {(0, 1): 300, (2, 0): -200, (0, 2): 1})
    om = g.omega
    assert om.wt.typecode == "h"  # 300 and -200 do not fit the narrowest typecode
    assert om[0, 1] == 300 and om[2, 0] == -200 and om[0, 2] == 1
    assert dict(om) == {(0, 1): 300, (0, 2): 1, (2, 0): -200}
    assert list(om) == [(0, 1), (0, 2), (2, 0)] and len(om) == 3
    assert parse_wgraph(export(g, "json")) == g
    for absent in ((1, 0), (2, 1), (0, 0), (3, 0), (-1, 2), (0, -1), "ab", (0, 1, 2), None):
        assert absent not in om and om.get(absent) is None
        with pytest.raises(KeyError):
            om[absent]
    with pytest.raises(TypeError):
        om[0, 1] = 2  # read-only
    assert symmetrize_mu([{}, {}]) == {} and len(symmetrize_mu([])) == 0
    with pytest.raises(ValueError, match="y >= z"):
        symmetrize_mu([{1: 1}, {}])


@pytest.mark.parametrize("reduced", [True, False])
def test_a_late_row_widens_the_weights_of_the_rows_before_it(reduced):
    # rows 0..3 hold only small weights; row 4 is the first with mu = 300
    columns = [{}, {0: 1}, {0: -1, 1: 2}, {1: 1, 2: -1}, {2: 1, 3: -1}, {3: 1, 4: 300}]
    pairs = {(y, z): m for z, col in enumerate(columns) for y, m in col.items()}
    tau = [frozenset(t) for t in ({1}, {2}, {1, 2}, {3}, {1, 3}, {2})]
    want = symmetrize_then_filter(pairs, tau, reduced)
    table = symmetrize_mu(columns, tau if reduced else None)
    assert table == want and table.wt.typecode == "h"
    assert (4, 5) in table and (5, 4) in table
    for v in range(4):
        assert list(table.weights(v)) == [want[v, w] for w in table.targets(v)], v
        assert all(abs(c) < 128 for c in table.weights(v))


def test_graph_tables_and_certificate_read_the_mu_columns(monkeypatch):
    # none of them builds the pair-keyed mu table only to regroup or sort it
    def refuse(self):
        raise AssertionError("pair-keyed mu table built")

    monkeypatch.setattr(ModuleTable, "mu_entries", refuse)
    for variant, model in (("row", "M"), ("col", "N")):
        for reduced in (True, False):
            build_gamma(6, variant, reduced)
        tables_json(6, model, io.StringIO())
        Model(5, "asc" if model == "M" else "des").check_intertwining()
    for side in ("left", "right"):
        kl_wgraph(4, side)
    kl_table(4)


@pytest.mark.parametrize("variant", ["row", "col"])
def test_build_gamma_makes_the_edge_table_once(variant):
    # the columns and mu table exist already; what build_gamma allocates is
    # the graph it returns, with no second copy of its edges on the way
    _model(8, "asc" if variant == "row" else "des").column_store()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_gamma(8, variant)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.omega
    assert peak - base <= 1.25 * (kept - base)


def test_verify_axioms_pass():
    for n in (1, 2, 3, 4, 5):
        for variant in ("row", "col"):
            for reduced in (True, False):
                rep = verify_axioms(build_gamma(n, variant, reduced))
                assert rep.ok, (n, variant, reduced, rep.violations)


def test_verify_axioms_catches_corruption():
    g = build_gamma(3, "row", reduced=False)
    omega = dict(g.omega)
    (v, w), c = sorted(omega.items())[0]
    omega[(v, w)] = c + 1
    bad = WGraph(g.n, g.variant, False, g.vertices, g.tau, omega, g.shapes)
    rep = verify_axioms(bad)
    assert not rep.ok and rep.violations


def test_verify_axioms_violation_messages():
    # recorded from the dense-matrix checker that the sparse action replaced
    g = build_gamma(5, "row", reduced=False)
    omega = dict(g.omega)
    (v, w), c = sorted(omega.items())[0]
    omega[(v, w)] = c + 1
    bad = WGraph(g.n, g.variant, False, g.vertices, g.tau, omega, g.shapes)
    assert verify_axioms(bad).violations == [
        "commutation fails for s_1, s_4",
        "commutation fails for s_2, s_4",
        "braid relation fails for s_3, s_4",
    ]


# -- the LaurentPoly action the packed one replaced, kept as its oracle --------


def _out_edges(g):
    out = [[] for _ in range(g.size)]
    for (v, w), c in g.omega.items():
        out[v].append((w, c))
    return out


def _rho_matrix(g, i, out_edges):
    """Column v of the action of H_{s_i}: a dict u -> LaurentPoly."""
    cols = []
    for v in range(g.size):
        if i not in g.tau[v]:
            cols.append({v: X})
        else:
            col = {v: -X_INV}
            for w, c in out_edges[v]:
                if i not in g.tau[w]:
                    p = col.get(w)
                    cp = LaurentPoly.term(c)
                    col[w] = p + cp if p is not None else cp
            cols.append({u: c for u, c in col.items() if c})
    return cols


def _action(g):
    out_edges = _out_edges(g)
    rho = {}

    def act(i, col):
        m = rho.get(i)
        if m is None:
            m = rho[i] = _rho_matrix(g, i, out_edges)
        out = {}
        for u, c in col.items():
            for t, d in m[u].items():
                e = d * c
                out[t] = out[t] + e if t in out else e
        return {t: c for t, c in out.items() if c}

    return act


def _laurent_trace(g, w):
    """The module trace at w over LaurentPoly columns, evaluated at x = 1."""
    act = _action(g)
    total = 0
    for v in range(g.size):
        col = {v: ONE}
        for i in reduced_word(w)[::-1]:
            col = act(i, col)
        if v in col:
            total += col[v].eval_one()
    return total


def test_packed_graph_action_matches_laurent_oracle():
    for n in range(1, 6):
        for variant in ("row", "col"):
            for reduced in (True, False):
                g = build_gamma(n, variant, reduced)
                packed, oracle = graph_action(g), _action(g)
                shift, bias = packed.shift, packed.bias
                for i in range(1, n):
                    for v in range(g.size):
                        got = {}
                        for key, c in packed.apply(i, {v << shift | bias: 1}).items():
                            u, e = key >> shift, (key & (1 << shift) - 1) - bias
                            got[u] = got.get(u, LaurentPoly()) + LaurentPoly.term(c, e)
                        assert got == oracle(i, {v: ONE}), (n, variant, reduced, i, v)


def test_integer_character_matches_laurent_trace():
    for n in range(1, 7):
        for variant in ("row", "col"):
            g = build_gamma(n, variant)
            for w in conjugacy_representatives(n):
                assert character_trace(g, w) == _laurent_trace(g, w), (n, variant, w.word)


def test_square_root_count_matches_brute_force():
    for n in range(1, 8):
        roots = {}
        for p in permutations(range(1, n + 1)):
            sq = tuple(p[p[i] - 1] for i in range(n))
            roots[sq] = roots.get(sq, 0) + 1
        for p in permutations(range(1, n + 1)):
            assert square_root_count(Permutation(p)) == roots.get(p, 0), p


def test_molecules_examples():
    assert molecules(build_gamma(2, "row")) == [[0], [1]]
    g3 = build_gamma(3, "row")
    mols = molecules(g3)
    fibers = {}
    for k, sh in enumerate(g3.shapes):
        fibers.setdefault(sh, []).append(k)
    assert mols == sorted(sorted(v) for v in fibers.values())
    g3c = build_gamma(3, "col")
    molsc = molecules(g3c)
    fibersc = {}
    for k, sh in enumerate(g3c.shapes):
        fibersc.setdefault(sh, []).append(k)
    assert molsc == sorted(sorted(v) for v in fibersc.values())


def test_cells_examples():
    parts, cond = cells(build_gamma(2, "row"))
    assert parts == [[0], [1]] and cond == []
    for n in (3, 4, 5, 6):
        g = build_gamma(n, "row")
        parts, cond = cells(g)
        assert parts == molecules(g)
        comp = {v: ci for ci, part in enumerate(parts) for v in part}
        for ci, cj in cond:
            assert ci != cj


def test_cells_handle_plain_digraphs():
    # two 2-cycles joined by a one-way edge
    g = WGraph(
        n=3, variant="toy", reduced=False,
        vertices=((1, 2), (2, 1), (1, 3), (3, 1)),
        tau=(frozenset(), frozenset(), frozenset(), frozenset()),
        omega={(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1, (1, 2): 1},
    )
    parts, cond = cells(g)
    assert parts == [[0, 1], [2, 3]]
    assert cond == [(0, 1)]
    assert molecules(g) == [[0, 1], [2, 3]]


DEEP = 5000  # far past the default recursion limit


def _deep_graph(omega):
    """A hand-made graph on DEEP vertices (k,), every tau empty, omega kept as given."""
    return WGraph(n=2, variant="toy", reduced=False, vertices=[(k,) for k in range(DEEP)],
                  tau=[()] * DEEP, omega=omega)


def test_cells_and_molecules_of_deep_graphs():
    path = {(k, k + 1): 1 for k in range(DEEP - 1)}
    singletons = [[k] for k in range(DEEP)]
    cycle = _deep_graph({**path, (DEEP - 1, 0): 1})
    assert cells(cycle) == ([list(range(DEEP))], [])
    assert molecules(cycle) == singletons
    assert cells(_deep_graph(path)) == (singletons, sorted(path))
    both = _deep_graph({**path, **{(w, v): 1 for v, w in path}})
    assert molecules(both) == [list(range(DEEP))]


@pytest.mark.parametrize("field", ["tau", "shapes"])
def test_parse_wgraph_refuses_a_field_of_the_wrong_length(field):
    doc = json.loads(export(build_gamma(4, "row"), "json"))
    size = len(doc["vertices"])
    doc[field].pop()
    with pytest.raises(ValueError, match=f"{field} has {size - 1} entries for {size} vertices"):
        parse_wgraph(json.dumps(doc))


def _n4_row_doc():
    """The n=4 row export, decoded; vertex 0 is (2,1,4,3,6,5,8,7) with tau {2}."""
    doc = json.loads(export(build_gamma(4, "row"), "json"))
    assert doc["vertices"][0] == [2, 1, 4, 3, 6, 5, 8, 7] and doc["tau"][0] == [2]
    return doc


@pytest.mark.parametrize("entry", [9, 0])
def test_parse_wgraph_refuses_a_tau_entry_outside_1_to_n_minus_1(entry):
    doc = _n4_row_doc()
    doc["tau"][0] = [entry]
    with pytest.raises(ValueError, match=rf"^tau of vertex 0 \(2,1,4,3,6,5,8,7\) holds {entry}, "
                                         r"not an int in 1\.\.3$"):
        parse_wgraph(json.dumps(doc))


def test_classify_graph_refuses_a_tau_other_than_the_models():
    doc = _n4_row_doc()
    doc["tau"][0] = [1, 2]
    g = parse_wgraph(json.dumps(doc))
    assert not verify_axioms(g).ok
    with pytest.raises(ValueError, match="^need a row or column Gelfand graph with shapes"):
        classify_graph(g)


def test_parse_wgraph_refuses_an_edge_listed_twice():
    doc = _n4_row_doc()
    v, w, _ = doc["edges"][0]
    doc["edges"].append([v, w, 5])
    with pytest.raises(ValueError, match=rf"^edge \({v}, {w}\) is listed twice$"):
        parse_wgraph(json.dumps(doc))


def test_combinatorial_bidirected_examples():
    y = embed(Involution([2, 1, 3, 4]), "asc")
    z = embed(Involution([3, 2, 1, 4]), "asc")
    assert combinatorial_bidirected(y, z, 2)
    assert not combinatorial_bidirected(y, y, 2)
    assert combinatorial_bidirected_pairs(2, "row") == []
    with pytest.raises(ValueError):
        combinatorial_bidirected(y, z, 1)
    with pytest.raises(ValueError):
        combinatorial_bidirected(y, embed(Involution([2, 1, 3, 4]), "des"), 2)


def test_bidirected_edges_match_combinatorial():
    for n in range(2, 9):
        for variant in ("row", "col"):
            g = build_gamma(n, variant)
            assert list(g.bidirected_pairs()) == combinatorial_bidirected_pairs(n, variant)


def test_a_pair_two_generators_reach_is_kept_once():
    # in N, t = 1 and t = 3 both conjugate a to b, each with s = 2 in the window
    m = _model(4, "des")
    a = m.words.index((3, 4, 1, 2, 6, 5, 8, 7))
    b = m.words.index((4, 3, 2, 1, 6, 5, 8, 7))
    for t in (1, 3):
        assert m.cls[t][a] == ASC_LT and m.cnj[t][a] == b
    assert 2 not in m.tau[a] and 2 in m.tau[b] and m.length[b] == m.length[a] + 2
    assert combinatorial_bidirected_pairs(4, "col").count((a, b)) == 1
    for n in range(2, 9):
        for variant in ("row", "col"):
            pairs = combinatorial_bidirected_pairs(n, variant)
            assert pairs == sorted(set(pairs)) and all(v < w for v, w in pairs), (n, variant)


@pytest.mark.parametrize("variant", ["M", "rows", "asc"])
def test_combinatorial_pairs_reject_a_model_variant(variant):
    with pytest.raises(ValueError, match=f"^variant must be 'row' or 'col', got '{variant}'$"):
        combinatorial_bidirected_pairs(4, variant)


def test_bidirected_pairs_are_found_once_per_graph():
    # classify_graph reads them twice, through molecules and against the pair rule
    g = build_gamma(5, "row")
    pairs = g.bidirected_pairs()
    assert list(pairs) == sorted((v, w) for v, w in g.omega if v < w and (w, v) in g.omega)
    assert g.bidirected_pairs() is pairs
    assert classify_graph(g).ok and g.bidirected_pairs() is pairs


def _gap2_scan_pairs(n, variant):
    """Reference: test every vertex pair whose lengths differ by 2, in every window."""
    m = _model(n, "asc" if variant == "row" else "des")
    row = variant == "row"
    by_length = {}
    for k, l in enumerate(m.length):
        by_length.setdefault(l, []).append(k)
    out = []
    for l, lower in by_length.items():
        for a in lower:
            wa = m.words[a]
            for b in by_length.get(l + 2, ()):
                if any(_bidirected_words(wa, m.words[b], i, row) for i in range(2, n)):
                    out.append(tuple(sorted((wa, m.words[b]))))
    return sorted(out)


@pytest.mark.parametrize("variant", ["row", "col"])
def test_conjugate_candidates_match_gap2_scan(variant):
    for n in range(2, 8):
        words = _model(n, "asc" if variant == "row" else "des").words
        pairs = combinatorial_bidirected_pairs(n, variant)
        got = sorted(tuple(sorted((words[a], words[b]))) for a, b in pairs)
        assert got == _gap2_scan_pairs(n, variant), n


def test_classify_small():
    for n in (1, 2, 3, 4, 5):
        for variant in ("row", "col"):
            rep = classify(n, variant)
            assert rep.ok, (n, variant, rep.counterexamples)
    assert classify(4, "row").fiber_count == 5
    assert classify(5, "col").fiber_count == 7


def test_classify_graph_is_classify_on_a_given_graph():
    from gelfand_wgraphs.hecke import kl_wgraph

    for variant in ("row", "col"):
        for reduced in (True, False):
            assert classify_graph(build_gamma(4, variant, reduced)) == classify(4, variant, reduced)
    g = build_gamma(3, "row")
    no_shapes = WGraph(g.n, g.variant, g.reduced, g.vertices, g.tau, g.omega)
    for other in (kl_wgraph(3, "left"), no_shapes):
        with pytest.raises(ValueError, match="^need a row or column Gelfand graph with shapes"):
            classify_graph(other)


@pytest.mark.parametrize("variant", ["row", "col"])
def test_classify_graph_needs_the_models_vertex_order(variant):
    g = build_gamma(5, variant)
    assert classify_graph(parse_wgraph(export(g, "json"))) == classify_graph(g)
    # the same graph with its vertices in reverse order: index v becomes last - v
    last = g.size - 1
    reversed_omega = {(last - v, last - w): c for (v, w), c in g.omega.items()}
    moved = WGraph(g.n, g.variant, g.reduced, g.vertices[::-1], g.tau[::-1], reversed_omega,
                   g.shapes[::-1])
    with pytest.raises(ValueError, match="^need a row or column Gelfand graph with shapes"):
        classify_graph(moved)


def test_classify_graph_finds_the_molecules_once(monkeypatch):
    # the cells check reuses the molecules of the fiber check
    g = build_gamma(5, "row")
    calls = []
    real = wgraph.molecules
    monkeypatch.setattr(wgraph, "molecules", lambda graph: calls.append(1) or real(graph))
    assert classify_graph(g).ok
    assert len(calls) == 1


def test_classify_reports_dropped_combinatorial_pair(monkeypatch, capsys):
    real = wgraph.combinatorial_bidirected_pairs
    monkeypatch.setattr(wgraph, "combinatorial_bidirected_pairs",
                        lambda n, variant: real(n, variant)[1:])
    rep = classify(4, "row")
    assert rep.edges_match is False and rep.ok is False
    words = build_gamma(4, "row").vertices
    a, b = real(4, "row")[0]  # named by its words
    assert rep.counterexamples == [
        "bidirected edges disagree: 1 algebraic-only, 0 combinatorial-only; "
        f"first: {[(words[a], words[b])]}"
    ]
    assert main(["graph", "classify", "--n", "4", "--variant", "row"]) == 1
    assert "bidirected=combinatorial: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("variant", ["row", "col"])
def test_tau_scan_predicates_match_the_word_comparisons(variant):
    # combinatorial_bidirected_pairs tests tau and cls where _conj_partner compares words
    row = variant == "row"
    for n in range(2, 8):
        m = _model(n, "asc" if row else "des")
        index = vertex_index(m)
        for a, wa in enumerate(m.words):
            for s in range(1, n):
                c = word_conj_compare(wa, s)
                # the test on a; the test on b, c > 0 (row) or c >= 0 (col), is its complement
                assert (s not in m.tau[a]) == (c <= 0 if row else c < 0), (n, wa, s)
                # a rise whose conjugate is a vertex is exactly a strict ascent, moved by cnj
                up = c > 0 and word_conj_s(wa, s) in index
                assert up == (m.cls[s][a] == ASC_LT), (n, wa, s)
                if up:
                    assert m.words[m.cnj[s][a]] == word_conj_s(wa, s)


def _cells_by_reachability(g):
    """The cells and condensation of g from mutual reachability, by breadth-first search from every vertex."""
    reach = []
    for v in range(g.size):
        seen, queue = {v}, [v]
        for u in queue:
            for w in g.omega.targets(u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach.append(seen)
    parts = sorted({tuple(sorted(w for w in reach[v] if v in reach[w])) for v in range(g.size)})
    cell = {v: ci for ci, part in enumerate(parts) for v in part}
    cond = sorted({(cell[v], cell[w]) for v, w in g.omega if cell[v] != cell[w]})
    return [list(part) for part in parts], cond


@pytest.mark.parametrize("reduced", [True, False])
def test_cells_are_the_mutual_reachability_classes(reduced):
    graphs = [build_gamma(n, variant, reduced) for n in range(1, 7) for variant in ("row", "col")]
    graphs += [kl_wgraph(n, side, reduced) for n in range(1, 5) for side in ("left", "right")]
    for g in graphs:
        assert cells(g) == _cells_by_reachability(g), g


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("variant", ["row", "col"])
def test_molecule_quotient_components_are_the_cells(variant, reduced):
    # the quotient by molecules, built here from omega, has one strong
    # component per cell, holding exactly that cell's molecules
    for n in range(1, 8):
        g = build_gamma(n, variant, reduced)
        mols = molecules(g)
        mol_of = {v: k for k, part in enumerate(mols) for v in part}
        assert sorted(mol_of) == list(range(g.size))
        succ = [set() for _ in mols]
        for v, w in g.omega:
            succ[mol_of[v]].add(mol_of[w])
        reach = []
        for a in range(len(mols)):
            seen, queue = {a}, [a]
            for b in queue:
                for c in succ[b] - seen:
                    seen.add(c)
                    queue.append(c)
            reach.append(seen)
        comps = {frozenset(b for b in reach[a] if a in reach[b]) for a in range(len(mols))}
        parts = cells(g)[0]
        assert len(comps) == len(parts), (n, variant, reduced)
        assert sorted(sorted(v for k in comp for v in mols[k]) for comp in comps) == parts


@pytest.mark.parametrize("variant", ["row", "col"])
def test_cells_merging_molecules_are_the_mutual_reachability_classes(variant):
    # an arrow back along a condensation edge merges cells that hold several molecules
    g = build_gamma(6, variant)
    parts, cond = cells(g)
    merged = 0
    for ci, cj in cond:
        omega = {**g.omega, (parts[cj][-1], parts[ci][0]): 1}
        h = WGraph(g.n, g.variant, False, g.vertices, g.tau, omega)
        assert cells(h) == _cells_by_reachability(h), (ci, cj)
        merged += len(cells(h)[0]) < len(molecules(h))
    assert merged


def _words(text):
    """The vertex words or shapes written as (a,b,...) in a counterexample line."""
    return [tuple(map(int, t.split(","))) for t in re.findall(r"\(([\d,]+)\)", text)]


def _with(g, shapes=None, omega=None):
    return WGraph(g.n, g.variant, g.reduced, g.vertices, g.tau,
                  g.omega if omega is None else omega, g.shapes if shapes is None else shapes)


def test_classify_names_a_vertex_pair_when_molecules_differ_from_fibers():
    g = build_gamma(4, "row")
    mols = molecules(g)
    index = {w: k for k, w in enumerate(g.vertices)}
    mol = next(part for part in mols if len(part) > 1)
    other = next(part for part in mols if part != mol)

    # a molecule split over two shapes
    shapes = list(g.shapes)
    shapes[mol[-1]] = (9,)
    rep = classify_graph(_with(g, shapes=shapes))
    assert not rep.molecules_match_fibers and rep.edges_match and rep.cells_match_molecules
    [line] = rep.counterexamples
    assert line.startswith(f"molecules differ from shape fibers: {len(mols)} vs {len(mols) + 1} parts; ")
    assert "share a molecule but have shapes" in line
    v, w, sv, sw = _words(line.split("; ")[1])
    assert {index[v], index[w]} <= set(mol)
    assert (sv, sw) == (shapes[index[v]], shapes[index[w]]) and sv != sw

    # two molecules of one shape
    shapes = list(g.shapes)
    for u in other:
        shapes[u] = g.shapes[mol[0]]
    rep = classify_graph(_with(g, shapes=shapes))
    assert not rep.molecules_match_fibers and rep.edges_match
    [line] = rep.counterexamples
    assert line.startswith(f"molecules differ from shape fibers: {len(mols)} vs {len(mols) - 1} parts; ")
    assert "but lie in different molecules" in line
    v, w, sh = _words(line.split("; ")[1])
    assert shapes[index[v]] == shapes[index[w]] == sh
    assert {index[v], index[w]} <= set(mol) | set(other)
    assert not {index[v], index[w]} <= set(mol) and not {index[v], index[w]} <= set(other)


@pytest.mark.parametrize("variant", ["row", "col"])
def test_classify_names_a_cycle_of_molecules_when_cells_differ(variant):
    g = build_gamma(6, variant)
    mols = molecules(g)
    parts, cond = cells(g)
    # close a cycle through three cells, ci -> cj -> ck with no arrow ci -> ck,
    # by one one-way edge from ck to ci: the cells merge, the molecules and the
    # bidirected edges stay, and every cycle of molecules has at least 3 steps
    w, v = next((w, v) for ci, cj in cond for cj2, ck in cond
                if cj2 == cj and (ci, ck) not in cond
                for w in parts[ck] for v in parts[ci]
                if (v, w) not in g.omega and not g.tau[w] <= g.tau[v])
    h = _with(g, omega={**g.omega, (w, v): 1})
    assert (w, v) in h.omega
    rep = classify_graph(h)
    assert rep.molecules_match_fibers and rep.edges_match and not rep.cells_match_molecules
    [line] = rep.counterexamples
    assert line.startswith(f"cells differ from molecules: {len(cells(h)[0])} cells "
                           f"vs {len(mols)} molecules; cycle of molecules: ")
    index = {word: k for k, word in enumerate(g.vertices)}
    mol_of = {u: k for k, part in enumerate(mols) for u in part}
    steps = [tuple(index[word] for word in _words(step))
             for step in line.split("cycle of molecules: ")[1].split(", ")]
    assert len(steps) >= 3
    for (a, b), (c, _) in zip(steps, steps[1:] + steps[:1]):
        assert (a, b) in h.omega and mol_of[a] != mol_of[b] and mol_of[b] == mol_of[c]
    assert len({mol_of[a] for a, _ in steps}) == len(steps)


def test_character_trace_examples():
    for n in (3, 4):
        for variant in ("row", "col"):
            g = build_gamma(n, variant)
            counts = [1 for w in enumerate_involutions(n)]
            assert character_trace(g, Permutation.identity(n)) == len(counts)
    g = build_gamma(4, "row")
    s1 = Permutation([2, 1, 3, 4])
    assert square_root_count(s1) == 0
    assert character_trace(g, s1) == 0
    four_cycle = Permutation([2, 3, 4, 1])
    assert character_check(build_gamma(4, "col"), four_cycle)


def test_character_trace_rejects_other_degree():
    g = build_gamma(3, "row")
    for w in (Permutation([1, 2, 4, 3]), Permutation([2, 1])):
        with pytest.raises(ValueError):
            character_trace(g, w)
        with pytest.raises(ValueError):
            character_check(g, w)


def conjugacy_representatives(n):
    seen, reps = set(), []
    for p in permutations(range(1, n + 1)):
        word = tuple(p)
        marks, ctype = [False] * n, []
        for i in range(n):
            if not marks[i]:
                j, size = i, 0
                while not marks[j]:
                    marks[j] = True
                    j = word[j] - 1
                    size += 1
                ctype.append(size)
        key = tuple(sorted(ctype))
        if key not in seen:
            seen.add(key)
            reps.append(Permutation(word))
    return reps


def test_character_check_all_classes():
    for n in (2, 3, 4, 5, 6):
        for variant in ("row", "col"):
            g = build_gamma(n, variant)
            for w in conjugacy_representatives(n):
                assert character_check(g, w), (n, variant, w.word)


def test_molecule_sizes_sum_to_involution_count():
    for n in (3, 4, 5, 6):
        g = build_gamma(n, "row")
        mols = molecules(g)
        assert sum(len(mol) for mol in mols) == g.size


def test_export_json_golden():
    g = build_gamma(2, "row")
    got = export(g, "json")
    with open(os.path.join(DATA, "gamma_row_2.json")) as fh:
        assert got == fh.read().rstrip("\n")


def export_reference(g):
    """The graph document dumped whole by json.dumps, as export wrote it before."""
    doc = {
        "n": g.n,
        "variant": g.variant,
        "reduced": g.reduced,
        "vertices": [list(v) for v in g.vertices],
        "tau": [sorted(t) for t in g.tau],
        "edges": [[v, w, c] for v, w, c in g.omega.triples()],
    }
    if g.shapes is not None:
        doc["shapes"] = [list(s) for s in g.shapes]
    return json.dumps(doc, indent=1)


def test_export_json_matches_json_dumps():
    for n in range(1, 7):
        for variant in ("row", "col"):
            for reduced in (True, False):
                g = build_gamma(n, variant, reduced=reduced)
                assert export(g, "json") == export_reference(g)
                g.shapes = None
                assert export(g, "json") == export_reference(g)
    empty = WGraph(n=0, variant="row", reduced=True, vertices=[], tau=[], omega={})
    assert export(empty, "json") == export_reference(empty)


def test_export_json_memory():
    # json.dumps(doc, indent=1) peaks at about 14 times the text it returns
    g = build_gamma(7, "row")
    tracemalloc.start()
    try:
        text = export(g, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * len(text)


def test_export_chunks_stream_the_document(tmp_path):
    g = build_gamma(8, "col")
    for fmt in ("json", "dot"):
        chunks = list(export_chunks(g, fmt))
        assert len(chunks) > 1 and "".join(chunks) == export(g, fmt)
    out, dot = tmp_path / "g.json", tmp_path / "g.dot"
    assert main(["graph", "build", "--n", "8", "--variant", "col",
                 "--out", str(out), "--dot", str(dot)]) == 0
    assert out.read_text() == export(g, "json") + "\n"
    assert dot.read_text() == export(g, "dot")
    with pytest.raises(ValueError):
        export_chunks(g, "yaml")  # checked before any chunk is asked for


def test_export_chunks_memory():
    # the whole text is never held: the peak is one batch of rows, read off the
    # edge table in order, where export() holds the text and its pieces (about 2x)
    g = build_gamma(9, "col")
    for fmt in ("json", "dot"):
        size = len(export(g, fmt))
        tracemalloc.start()
        try:
            for _ in export_chunks(g, fmt):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * size, fmt


def test_export_dot_golden():
    got = export(build_gamma(1, "row"), "dot")
    assert got == 'digraph "row_1" {\n  v0 [label="21|1"];\n}\n'


def test_export_dot_edge_styles():
    text = export(build_gamma(3, "row"), "dot")
    assert "dir=both" in text
    assert "style=dashed" in text


def test_export_round_trip():
    for n in range(1, 8):
        for variant in ("row", "col"):
            g = build_gamma(n, variant)
            assert parse_wgraph(export(g, "json")) == g
    with pytest.raises(ValueError):
        export(build_gamma(1, "row"), "yaml")


def test_graph_shares_tau_and_shapes():
    def distinct(values):
        first = {}
        assert all(first.setdefault(v, v) is v for v in values)
        return len(first)

    for n in range(1, 9):
        for variant in ("row", "col"):
            g = build_gamma(n, variant)
            h = parse_wgraph(export(g, "json"))
            assert distinct(g.shapes) == distinct(h.shapes)  # one shape object per fiber
            assert distinct(g.tau) == distinct(h.tau) <= 2 ** (n - 1)


def test_edge_weights_at_n_8_and_9():
    # measured, not explained: the only weight other than 1 up to n = 9 is
    # -1, on six reduced row edges at n = 9, each between two shapes
    want = {(8, "row"): {1: 4230}, (8, "col"): {1: 3863},
            (9, "row"): {1: 18461, -1: 6}, (9, "col"): {1: 16437}}
    for (n, variant), weights in want.items():
        g = build_gamma(n, variant)
        assert Counter(g.omega.values()) == weights
        assert all(g.shapes[v] != g.shapes[w] for (v, w), c in g.omega.items() if c != 1)
    assert Counter(build_gamma(9, "row", reduced=False).omega.values()) == {1: 31226, -1: 12}


def test_export_deterministic():
    a = export(build_gamma(4, "col"), "json")
    b = export(build_gamma(4, "col"), "json")
    assert a == b
