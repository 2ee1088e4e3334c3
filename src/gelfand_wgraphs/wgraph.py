"""
W-graphs: the data structure, the defining-relation checker, molecules,
cells, and the classification harness for the two Gelfand graphs.

A W-graph for S_n is a vertex set with an ascent-set map tau into subsets
of {1, .., n-1} and integer edge weights omega, such that the prescribed
action of each generator on the free Z[x,x^-1]-module over the vertices
(scale by x off tau, otherwise -x^-1 plus the weighted sum of neighbours
whose tau misses the generator) satisfies the quadratic, braid, and
commutation relations.  That action is given once per graph as its terms
(`action_terms`) and applied one sparse integer column at a time, with no
dense matrix and no LaurentPoly arithmetic: the relation check
(action.relation_violations) runs it on packed (vertex, exponent) keys
(`graph_action`, an action.PackedAction), and the x = 1 character reads
the same terms with their exponents dropped, on columns keyed by vertex.

Weights with tau(v) contained in tau(w) never enter that action, so a graph
and its "reduced" version (those weights dropped) define the same module.
Molecule and cell analysis here defaults to the reduced convention: with
the raw symmetrized weights every edge would be bidirected and, e.g., the
two left cells of S_2 would merge, contradicting the classical cell
picture.  Both conventions can be built and compared.

The row graph lives on the ascending embedding's vertex set and the column
graph on the descending one (conventions for the latter differ across the
literature; the descending set is the one matching the module it encodes).
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice
from math import comb, prod

from .action import PackedAction, relation_violations
from .gelfand import (
    ASC_LT,
    INT_CODES,
    GelfandVertex,
    _model,
    _shared,
    format_rows,
    lambda_shape,
    widened_fromlist,
)
from .perm import (
    Permutation, cycle_type, involution_count, reduced_word, word_conj_compare, word_conj_s,
)


class EdgeTable(Mapping):
    """
    The weights omega of a W-graph in compressed-sparse-row form, with no
    tuple, dict or int object per edge.  Row v, the edges (v, w), is the
    slice start[v]:start[v+1] of `dst`, its targets w in strictly increasing
    order ("i"), and of `wt`, the nonzero weights omega(v, w) in the
    narrowest of gelfand.INT_CODES that holds them all (widened the way the
    column store's coefficients are).  `start` holds |V| + 1 offsets.  Rows
    are appended one at a time, in vertex order.

    The table is also a read-only Mapping from (v, w) to omega(v, w): its
    len is the number of edges, it iterates the pairs in sorted order, a
    lookup bisects row v, and it equals any mapping with the same items.
    `reduced_by` is the tau the table was reduced by (it holds no edge
    (v, w) with tau(v) contained in tau(w)), or None.
    """

    __slots__ = ("start", "dst", "wt", "reduced_by")

    def __init__(self):
        self.start = array("q", [0])
        self.dst = array("i")
        self.wt = array(INT_CODES[0])
        self.reduced_by = None

    @property
    def size(self) -> int:
        """The number of rows, |V|."""
        return len(self.start) - 1

    def append(self, targets: list, weights: list) -> None:
        """
        Append the next row: its targets, strictly increasing, and their
        nonzero weights.  The weight array widens as ColumnStore.append's
        coefficients do.
        """
        self.wt = widened_fromlist(self.wt, weights)
        self.dst.fromlist(targets)
        self.start.append(len(self.dst))

    def targets(self, v: int) -> array:
        """Row v's targets, increasing."""
        return self.dst[self.start[v]:self.start[v + 1]]

    def weights(self, v: int) -> array:
        """Row v's weights, in the order of its targets."""
        return self.wt[self.start[v]:self.start[v + 1]]

    def triples(self):
        """The (v, w, omega(v, w)) triples, sorted."""
        for v in range(self.size):
            for w, c in zip(self.targets(v), self.weights(v)):
                yield v, w, c

    def _find(self, key) -> int:
        """The position of the edge key = (v, w) in dst, or -1."""
        try:
            v, w = key
            if v < 0:
                return -1
            a, b = self.start[v], self.start[v + 1]
            k = bisect_left(self.dst, w, a, b)
        except (TypeError, ValueError, IndexError):
            return -1
        return k if k < b and self.dst[k] == w else -1

    def __getitem__(self, key):
        k = self._find(key)
        if k < 0:
            raise KeyError(key)
        return self.wt[k]

    def __iter__(self):
        for v in range(self.size):
            for w in self.targets(v):
                yield v, w

    def __len__(self) -> int:
        return len(self.dst)

    def __eq__(self, other):
        if isinstance(other, EdgeTable) and self.size == other.size:
            return self.start == other.start and self.dst == other.dst and self.wt == other.wt
        return Mapping.__eq__(self, other)

    def __repr__(self):
        return f"EdgeTable(|V|={self.size}, |E|={len(self)})"


def _packed(size: int, triples) -> EdgeTable:
    """The EdgeTable on size vertices of (v, w, weight) triples in any order, each (v, w) once."""
    rows = [[] for _ in range(size)]
    for v, w, c in triples:
        if not (0 <= v < size and 0 <= w < size):
            raise ValueError(f"edge ({v}, {w}) is not between two of the {size} vertices")
        rows[v].append((w, c))
    table = EdgeTable()
    for row in rows:
        row.sort()
        table.append([w for w, _ in row], [c for _, c in row])
    return table


def symmetrize_mu(mu, tau=None) -> EdgeTable:
    """
    omega(v, w) = mu(v, w) + mu(w, v), zero entries dropped, from the
    per-column dicts of ModuleTable.mu_columns() (column z maps each y to
    mu(y, z)), as an EdgeTable.  Given the ascent sets tau, the entries
    (v, w) with tau(v) contained in tau(w) are never made: the reduced
    weights, and the table records tau as `reduced_by`.

    The columns hold nonzero mu(y, z) only for y < z (vertices are sorted
    by length; a ValueError names a vertex where y >= z), so
    omega(y, z) = omega(z, y) = mu(y, z), and two passes over them fill the
    table with no tuple or dict per edge.  The first appends z and mu(y, z)
    to y's lists of higher targets, in increasing z.  The second makes row
    z from column z's own entries, its edges to lower y, sorted once,
    followed by those lists, and appends it to the table.
    """
    size = len(mu)
    up = [[] for _ in range(size)]  # per y, its higher targets z, increasing
    up_wt = [[] for _ in range(size)]  # and their weights mu(y, z)
    for z, col in enumerate(mu):
        tz = tau[z] if tau is not None else None
        for y, m in col.items():
            if tz is None or not tau[y] <= tz:
                up[y].append(z)
                up_wt[y].append(m)
    table = EdgeTable()
    for z, col in enumerate(mu):
        if tau is None:
            low = list(col)
        else:
            tz = tau[z]
            low = [y for y in col if not tz <= tau[y]]
        low.sort()
        higher = up[z]
        if low and low[-1] >= z or higher and higher[0] <= z:
            raise ValueError(f"mu(y, z) given with y >= z at vertex {z}")
        table.append(low + higher, [col[y] for y in low] + up_wt[z])
        up[z] = up_wt[z] = None
    table.reduced_by = tau
    return table


class WGraph:
    """
    Vertex labels are one-line words; tau sets are keyed by vertex index,
    and the weights are one EdgeTable, `omega`: compressed sparse rows, row
    v the targets dst[start[v]:start[v+1]] and their weights
    wt[start[v]:start[v+1]], which consumers read directly, and also a
    read-only mapping view from index pairs (v, w) to omega(v, w).  Zero
    weights are dropped, and so, if reduced is set, are the entries
    (v, w) with tau(v) contained in tau(w).  An EdgeTable on the graph's
    vertices with no zero weight is kept as given if the graph is unreduced
    or the table's `reduced_by` is its tau (build_gamma's is one; a compare
    of |V| shared sets); any other mapping of pairs to weights is packed
    into a new table, and the caller's is never changed.  Edges,
    the bidirected ones (bidirected_pairs) included, are vertex-index pairs
    throughout; the words only label vertices in exports and in witnesses.

    Equal tau sets are one frozenset, and equal shapes one tuple, whatever
    the caller passed (build_gamma's tau is already shared; parse_wgraph's
    is not): at most 2^(n-1) ascent sets and one shape per fiber, not one
    of each per vertex.  Both are read-only.  A tau set may hold only ints
    in 1..n-1, checked once per distinct set.  action_terms and
    bidirected_pairs are kept on the graph once made.
    """

    def __init__(self, n, variant, reduced, vertices, tau, omega, shapes=None):
        self.n = n
        self.variant = variant
        self.reduced = bool(reduced)
        self.vertices = tuple(tuple(v) for v in vertices)
        self.tau = tau = tuple(_shared(frozenset(t) for t in tau))
        reduced, size = self.reduced, len(self.vertices)
        if len(tau) != size:
            raise ValueError(f"tau has {len(tau)} entries for {size} vertices")
        for t in dict.fromkeys(tau):  # each distinct set once
            bad = [i for i in t if type(i) is not int or not 0 < i < n]
            if bad:
                v = tau.index(t)
                raise ValueError(f"tau of vertex {v} {_label(self.vertices[v])} holds "
                                 f"{bad[0]!r}, not an int in 1..{n - 1}")
        if not (
            isinstance(omega, EdgeTable)
            and omega.size == size
            and 0 not in omega.wt
            and (not reduced or tuple(omega.reduced_by or ()) == tau)
        ):
            omega = _packed(size, (
                (v, w, c) for (v, w), c in omega.items()
                if c and not (reduced and tau[v] <= tau[w])
            ))
            omega.reduced_by = tau if reduced else None
        self.omega = omega
        self.shapes = tuple(_shared(tuple(s) for s in shapes)) if shapes is not None else None
        if shapes is not None and len(self.shapes) != size:
            raise ValueError(f"shapes has {len(self.shapes)} entries for {size} vertices")
        self._terms = None  # action_terms, built on first use
        self._pairs = None  # bidirected_pairs, found on first use

    @property
    def size(self) -> int:
        return len(self.vertices)

    def bidirected_pairs(self) -> tuple:
        """
        Sorted pairs {v < w} carrying nonzero weights in both directions,
        found once: each w above v in row v whose row holds v, by bisection.
        """
        if self._pairs is None:
            start, dst = self.omega.start.tolist(), self.omega.dst
            pairs = []
            for v in range(self.size):
                b = start[v + 1]
                for w in dst[bisect_right(dst, v, start[v], b):b]:
                    hi = start[w + 1]
                    k = bisect_left(dst, v, start[w], hi)
                    if k < hi and dst[k] == v:
                        pairs.append((v, w))
            self._pairs = tuple(pairs)
        return self._pairs

    def __eq__(self, other):
        return (
            isinstance(other, WGraph)
            and (self.n, self.variant, self.reduced) == (other.n, other.variant, other.reduced)
            and self.vertices == other.vertices
            and self.tau == other.tau
            and self.omega == other.omega
        )

    def __repr__(self):
        return (
            f"WGraph(n={self.n}, variant={self.variant!r}, reduced={self.reduced}, "
            f"|V|={self.size}, |E|={len(self.omega)})"
        )


def build_gamma(n: int, variant: str, reduced: bool = True) -> WGraph:
    """
    The row or column Gelfand graph: vertices are the ascending (row) or
    descending (column) embedding's image, tau the matching ascent sets,
    and weights the symmetrized x^-1 coefficients of the canonical basis.
    """
    m = _gamma_model(n, variant)
    omega = symmetrize_mu(m.mu_columns(), m.tau if reduced else None)
    shapes = (lambda_shape(m.vertex(k)) for k in range(len(m.words)))  # WGraph keeps one per fiber
    return WGraph(
        n=n,
        variant=variant,
        reduced=reduced,
        vertices=m.words,
        tau=m.tau,
        omega=omega,
        shapes=shapes,
    )


def _gamma_model(n: int, variant: str):
    """The model of the row (M) or column (N) graph."""
    if variant not in ("row", "col"):
        raise ValueError(f"variant must be 'row' or 'col', got {variant!r}")
    return _model(n, "asc" if variant == "row" else "des")


# -- defining relations -------------------------------------------------------


def action_terms(g: WGraph) -> dict:
    """
    Per generator i and vertex v, the (u, d, a) terms a·x^d·T_u of
    H_{s_i}·T_v (action.PackedAction's `terms`): x·T_v if i is not in
    tau(v), else -x^-1·T_v plus omega(v, w)·T_w over the w with i not in
    tau(w).  Built once per graph.
    """
    if g._terms is None:
        om = g.omega
        out = [list(zip(om.targets(v), om.weights(v))) for v in range(g.size)]
        g._terms = {
            i: [
                ((v, 1, 1),) if i not in t
                else ((v, -1, -1),) + tuple((w, 0, c) for w, c in out[v] if i not in g.tau[w])
                for v, t in enumerate(g.tau)
            ]
            for i in range(1, g.n)
        }
    return g._terms


def graph_action(g: WGraph) -> PackedAction:
    """The graph's module action on packed keys, with room for relation_violations."""
    return PackedAction(g.n, g.size, action_terms(g))


@dataclass
class AxiomReport:
    n: int
    variant: str
    reduced: bool
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_axioms(g: WGraph) -> AxiomReport:
    """
    Check that the prescribed generator action satisfies the quadratic
    relation, the braid relation for adjacent generators, and commutation
    for distant ones.  Failures are reported, not raised.
    """
    return AxiomReport(
        g.n, g.variant, g.reduced, relation_violations(graph_action(g))
    )


# -- molecules and cells ------------------------------------------------------


def molecules(g: WGraph):
    """
    Connected components of the bidirected-edge graph, by least vertex: a
    union-find over g.bidirected_pairs() with path halving.  Each tree's
    root is its least vertex and every parent is below its child, so one
    pass up from vertex 0 sends each vertex to its root.
    """
    root = list(range(g.size))
    for v, w in g.bidirected_pairs():
        while root[v] != v:
            root[v] = v = root[root[v]]
        while root[w] != w:
            root[w] = w = root[root[w]]
        if v != w:
            root[max(v, w)] = min(v, w)
    parts = {}
    for v in range(g.size):
        root[v] = r = root[root[v]]
        parts.setdefault(r, []).append(v)
    return list(parts.values())


def cells(g: WGraph):
    """
    The cells, the strong components of the digraph of omega edges, sorted
    by least vertex, and the condensation's edges, along the arrows.

    They are the strong components of the quotient by molecules (an arrow
    (molecule(v), molecule(w)) per omega edge (v, w)), each molecule
    replaced by its vertices.  A bidirected edge is a 2-cycle, so every
    cell is a union of molecules.  A path of omega edges maps to a quotient
    path; conversely each quotient arrow comes from an omega edge and a
    molecule's vertices reach each other along bidirected edges, so a
    quotient path lifts.  A molecule's arrows are the set of molecules its
    rows reach, so no tuple is made per edge.
    """
    return _cells(g, molecules(g))


def _quotient(g: WGraph, mols):
    """
    The quotient of g by its molecules mols: each vertex's molecule index,
    and each molecule's sorted list of the other molecules its rows reach.
    """
    mol_of = [0] * g.size
    for k, part in enumerate(mols):
        for v in part:
            mol_of[v] = k
    get, targets = mol_of.__getitem__, g.omega.targets
    succ = []
    for a, part in enumerate(mols):
        reach = set()
        for v in part:
            reach.update(map(get, targets(v)))
        reach.discard(a)
        succ.append(sorted(reach))
    return mol_of, succ


def _cells(g: WGraph, mols):
    """cells(g), given g's molecules."""
    _, succ = _quotient(g, mols)
    comps = sorted(_strong_components(succ))  # by least molecule, so by least vertex
    cell_of = [0] * len(mols)
    for ci, comp in enumerate(comps):
        for a in comp:
            cell_of[a] = ci
    cond = sorted({
        (cell_of[a], cell_of[b])
        for a, row in enumerate(succ)
        for b in row
        if cell_of[a] != cell_of[b]
    })
    return [sorted(v for a in comp for v in mols[a]) for comp in comps], cond


def _strong_components(succ):
    """
    The strongly connected components of the digraph on 0..len(succ)-1 with
    successor lists succ, each as a sorted list, by Kosaraju's two
    depth-first passes (Sharir, Comput. Math. Appl. 7, 1981), run
    iteratively so deep graphs need no recursion: the first records the
    order in which vertices finish, the second collects a component along
    the reversed arrows from each vertex not yet taken, in reverse finish
    order.  _cells runs it on the quotient by molecules.
    """
    seen = [False] * len(succ)
    order = []  # vertices in the order they finish
    for root in range(len(succ)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred = [[] for _ in succ]
    for v, row in enumerate(succ):
        for w in row:
            pred[w].append(v)
    comps = []
    for root in reversed(order):  # seen[v] now means v is not yet taken
        if not seen[root]:
            continue
        seen[root] = False
        comp, stack = [], [root]
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in pred[v]:
                if seen[u]:
                    seen[u] = False
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


# -- combinatorial bidirected edges -------------------------------------------


def _conj_partner(a, s: int, t: int, row: bool):
    """
    b = t·a·t if a and b pass the window comparisons of a bidirected edge,
    else None: s·a·s is not above a (strictly below it in the column
    case), b is above a, and s·b·s is above b (or equal to it in the
    column case).
    """
    cs = word_conj_compare(a, s)
    if cs > 0 or (not row and cs == 0) or word_conj_compare(a, t) <= 0:
        return None
    b = word_conj_s(a, t)
    cb = word_conj_compare(b, s)
    return b if cb > 0 or (not row and cb == 0) else None


def _bidirected_words(u, v, i: int, row: bool) -> bool:
    return any(
        _conj_partner(a, s, t, row) == b
        for a, b in ((u, v), (v, u))
        for s, t in ((i - 1, i), (i, i - 1))
    )


def combinatorial_bidirected(y: GelfandVertex, z: GelfandVertex, i: int) -> bool:
    """
    The order-theoretic description of a bidirected edge at window i: one of
    the two vertices is the other conjugated by t, with the four Bruhat
    comparisons against conjugation by s holding, for {s, t} = {s_{i-1}, s_i}
    in either role.  The row and column variants differ in which of the two
    outer comparisons is strict.
    """
    if y.variant != z.variant:
        raise ValueError("vertices come from different graphs")
    if not 1 < i < y.n:
        raise ValueError(f"need 1 < i < n, got i={i}, n={y.n}")
    return _bidirected_words(y.word, z.word, i, row=y.variant == "asc")


def combinatorial_bidirected_pairs(n: int, variant: str):
    """
    All pairs related by the order-theoretic description, for any window i,
    as sorted vertex-index pairs (a, b) of the model, read off its index
    tables with no word conjugated.  For 1 < i < n and {s, t} = {i-1, i}, a
    vertex a pairs with b = cnj[t][a] when

        cls[t][a] == ASC_LT,  s not in tau(a),  s in tau(b),
        length(b) == length(a) + 2.

    These are _conj_partner's comparisons, which `combinatorial_bidirected`
    states on words.  Let c(a, s) = word_conj_compare(a, s): +1 if
    a(s) < a(s+1), 0 on the 2-cycle (s, s+1), else -1 (a has no fixed
    point).  tau(a) is {s : a(s) < a(s+1)} in M (row) and also holds the
    2-cycles (s, s+1) in N (col); the 2-cycle falls, a(s) = s+1 > a(s+1).
    So in M, c(a, s) <= 0 iff s is not in tau(a), and in N, c(a, s) < 0 iff
    s is not in tau(a): this is the test on a.  The test on b, c(b, s) > 0
    in M and >= 0 in N, is its complement on b, s in tau(b).  The test
    c(a, t) > 0 holds at the strict ascents (ASC_LT) and, in M only, at the
    weak ascents (ASC_EQ: a(t), a(t+1) > n), which rise in M and fall in N.
    At a weak ascent of M, t·a·t matches the two transfer points out of
    order, so it leaves the ascending embedding's image and is no vertex;
    at a strict ascent it is the vertex cnj[t][a].  The length test is the
    one of the word scan: `_bidirected_words(a, b, i)` needs b = t·a·t with
    t an ascent of a, which puts b exactly two lengths above a.  This is
    O(|V| n), and every pair with a length gap of 2 that passes the word
    comparisons is found (tests: _gap2_scan_pairs).  Vertices are sorted
    by length, so a < b.  A pair can pass for more than one (s, t) (in N,
    two generators t can conjugate a to one b), and it is kept once.
    """
    m = _gamma_model(n, variant)
    tau, length = m.tau, m.length
    out = set()
    for t in range(1, n):
        cnj_t = m.cnj[t]
        up = [a for a, c in enumerate(m.cls[t]) if c == ASC_LT]
        for s in (t - 1, t + 1):
            if not 0 < s < n:
                continue
            for a in up:
                if s not in tau[a]:
                    b = cnj_t[a]
                    if s in tau[b] and length[b] == length[a] + 2:
                        out.add((a, b))
    return sorted(out)


# -- classification harness ---------------------------------------------------


@dataclass
class ClassifyReport:
    n: int
    variant: str
    reduced: bool
    fiber_count: int = 0
    molecules_match_fibers: bool = False
    edges_match: bool = False
    cells_match_molecules: bool = False
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.molecules_match_fibers
            and self.edges_match
            and self.cells_match_molecules
        )


def classify(n: int, variant: str, reduced: bool = True) -> ClassifyReport:
    """classify_graph on the row or column Gelfand graph that build_gamma makes."""
    return classify_graph(build_gamma(n, variant, reduced=reduced))


def classify_graph(g: WGraph) -> ClassifyReport:
    """
    Check, for one Gelfand graph: molecules are the shape fibers of the
    restricted insertion tableau; bidirected edges agree with their
    order-theoretic description; and every molecule is a cell (the cells
    are unions of molecules, see `cells`).  A failed check names a witness.

    The bidirected edges are compared as vertex-index pairs, so the graph's
    vertices and tau must be its model's words and ascent sets in the
    model's order, as build_gamma and parse_wgraph(export(...)) give them;
    any other graph is refused, with the first reason `_refusal` finds.
    """
    reason = _refusal(g)
    if reason:
        raise ValueError(f"need a row or column Gelfand graph with shapes, got {g!r}: {reason}")
    report = ClassifyReport(g.n, g.variant, g.reduced)
    report.fiber_count = len(set(g.shapes))

    mols, shapes = molecules(g), g.shapes
    # two partitions of the vertices: equal iff each molecule has one shape and the counts agree
    report.molecules_match_fibers = len(mols) == report.fiber_count and all(
        shapes[v] == shapes[part[0]] for part in mols for v in part)
    if not report.molecules_match_fibers:
        report.counterexamples.append(
            f"molecules differ from shape fibers: {len(mols)} vs {report.fiber_count} parts; "
            + _fiber_witness(g, mols)
        )

    alg = g.bidirected_pairs()
    comb = combinatorial_bidirected_pairs(g.n, g.variant)
    report.edges_match = list(alg) == comb
    if not report.edges_match:
        alg_set, comb_set = set(alg), set(comb)
        extra = [p for p in alg if p not in comb_set]
        missing = [p for p in comb if p not in alg_set]
        first = [(g.vertices[v], g.vertices[w]) for v, w in (extra + missing)[:1]]
        report.counterexamples.append(
            f"bidirected edges disagree: {len(extra)} algebraic-only, "
            f"{len(missing)} combinatorial-only; first: {first}"
        )

    parts, _ = _cells(g, mols)
    report.cells_match_molecules = parts == mols
    if not report.cells_match_molecules:
        report.counterexamples.append(
            f"cells differ from molecules: {len(parts)} cells vs {len(mols)} molecules; "
            + _cycle_witness(g, mols, parts)
        )
    return report


def _refusal(g: WGraph):
    """
    Why classify_graph refuses g, or None: the first of its variant, missing
    shapes, a vertex count other than |I_n|, checked before any model is
    built, and the first vertex whose word or tau set is not the model's.
    """
    if g.variant not in ("row", "col"):
        return f"variant {g.variant!r} is not 'row' or 'col'"
    if g.shapes is None:
        return "it has no shapes"
    if g.n > g.size:  # |I_n| >= n, so a large n is refused without counting I_n
        return f"{g.size} vertices, but |I_{g.n}| >= {g.n}"
    if (count := involution_count(g.n)) != g.size:
        return f"{g.size} vertices, but |I_{g.n}| is {count}"
    m = _gamma_model(g.n, g.variant)
    if g.vertices == tuple(m.words) and g.tau == tuple(m.tau):
        return None
    for v, (word, t) in enumerate(zip(m.words, m.tau)):
        if g.vertices[v] != word:
            return f"vertex {v} is {_label(g.vertices[v])}, not {_label(word)}"
        if g.tau[v] != t:
            return f"tau of vertex {v} {_label(word)} is {sorted(g.tau[v])}, not {sorted(t)}"


def _label(t) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def _fiber_witness(g: WGraph, mols) -> str:
    """
    Two vertices of one molecule with different shapes, or, when every
    molecule lies in one fiber, two vertices of one shape in different
    molecules (the fibers then differ from the molecules only by a fiber
    holding two of them).
    """
    word, shapes = g.vertices, g.shapes
    for part in mols:
        v = part[0]
        for w in part[1:]:
            if shapes[w] != shapes[v]:
                return (f"{_label(word[v])} and {_label(word[w])} share a molecule "
                        f"but have shapes {_label(shapes[v])} and {_label(shapes[w])}")
    first = {}
    for part in mols:
        v = first.setdefault(shapes[part[0]], part[0])
        if v != part[0]:
            return (f"{_label(word[v])} and {_label(word[part[0]])} have shape "
                    f"{_label(shapes[v])} but lie in different molecules")
    raise ValueError("the molecules are the shape fibers")


def _cycle_witness(g: WGraph, mols, parts) -> str:
    """
    A cycle of molecules inside the cell of parts (the cells, sorted by
    least vertex) with the least vertex among those of two or more
    molecules, one omega edge v -> w (by word) per step, the least one
    between the two molecules: the shortest cycle through the cell's least
    molecule, found breadth first over the quotient arrows inside the cell.
    """
    mol_of, succ = _quotient(g, mols)
    for part in parts:
        comp = sorted({mol_of[v] for v in part})
        if len(comp) > 1:
            break
    else:
        raise ValueError("every cell is one molecule")
    inside = set(comp)

    def step(a, b):  # rows are increasing, so the first hit is the least edge
        return next((v, w) for v in mols[a] for w in g.omega.targets(v) if mol_of[w] == b)

    start = comp[0]
    parent = {start: None}
    queue = [start]
    for a in queue:
        for b in succ[a]:
            if b == start:
                path = [start]
                while a is not None:
                    path.append(a)
                    a = parent[a]
                path.reverse()  # start, ..., a, start
                edges = (step(x, y) for x, y in zip(path, path[1:]))
                return "cycle of molecules: " + ", ".join(
                    f"{_label(g.vertices[v])} -> {_label(g.vertices[w])}" for v, w in edges
                )
            if b in inside and b not in parent:
                parent[b] = a
                queue.append(b)
    raise ValueError("the cell is not strongly connected")


# -- character of the specialized module ---------------------------------------


def character_trace(g: WGraph, w: Permutation) -> int:
    """
    Trace of the graph's module action at x = 1, at the group element w:
    each basis vector goes through the letters of a reduced word of w, last
    letter first, as an integer column keyed by vertex, and its own
    coefficient is summed.  The letters act by action_terms with x = 1, so
    each term's exponent is dropped; a generator's terms at one vertex have
    distinct targets, so none merge.
    """
    if w.n != g.n:
        raise ValueError(f"permutation of degree {w.n} on a W-graph for S_{g.n}")
    terms = action_terms(g)
    tables = [terms[i] for i in reduced_word(w)[::-1]]
    total = 0
    for v in range(g.size):
        col = {v: 1}
        for table in tables:
            out = {}
            get = out.get
            for u, c in col.items():
                for t, _, a in table[u]:
                    out[t] = get(t, 0) + a * c
            col = {t: c for t, c in out.items() if c}
        total += col.get(v, 0)
    return total


def square_root_count(w: Permutation) -> int:
    """
    #{g in S_n : g·g = w}, from the cycle type of w.  Squaring a cycle of
    odd length k gives one k-cycle, and a cycle of length 2k gives two
    k-cycles.  So a square root covers the m cycles of w of length k by
    pairs, each glued into a 2k-cycle in k ways, and, for odd k only, by
    single cycles, each in one way.  With (2p-1)!! matchings of 2p cycles,
    the count is the product over the lengths k of

        odd k:  sum over p of C(m, 2p)·(2p-1)!!·k^p,
        even k: (m-1)!!·k^(m/2) if m is even, else 0.
    """
    mult = Counter(cycle_type(w.word))  # cycle length -> number of cycles
    count = 1
    for k, m in mult.items():
        if k % 2:
            count *= sum(comb(m, 2 * p) * prod(range(2 * p - 1, 0, -2)) * k**p
                         for p in range(m // 2 + 1))
        elif m % 2:
            return 0
        else:
            count *= prod(range(m - 1, 0, -2)) * k ** (m // 2)
    return count


def character_check(g: WGraph, w: Permutation) -> bool:
    """The x = 1 character at w equals the number of square roots of w in S_n."""
    return character_trace(g, w) == square_root_count(w)


# -- serialization --------------------------------------------------------------


_BATCH = 1024  # pieces of text (rows and separators) per chunk of export_chunks


def export(g: WGraph, fmt: str) -> str:
    """The graph as a JSON or DOT document: the chunks of export_chunks, joined."""
    return "".join(export_chunks(g, fmt))


def export_chunks(g: WGraph, fmt: str):
    """
    The text of the graph's JSON or DOT document, as an iterator of chunks
    of _BATCH pieces (a row's text or a separator) each, so that a writer
    never holds the whole document (`gwg graph build` streams its files
    this way).  The format is checked here, before any chunk is made.
    """
    if fmt not in ("json", "dot"):
        raise ValueError(f"unsupported format {fmt!r}")
    pieces = _json_pieces(g) if fmt == "json" else _dot_pieces(g)
    return ("".join(batch) for batch in iter(lambda: list(islice(pieces, _BATCH)), []))


def _json_pieces(g: WGraph):
    """
    The text json.dumps(doc, indent=1) gives for the document, one string
    per vertex and per edge: the pure-Python encoder that indent selects
    holds one string per token of the whole document until it joins them.
    """
    yield '{\n "n": %s,\n "variant": %s,\n "reduced": %s' % (
        g.n, json.dumps(g.variant), json.dumps(g.reduced))
    fields = [
        ("vertices", g.vertices),
        ("tau", (sorted(t) for t in g.tau)),
        ("edges", g.omega.triples()),
    ]
    if g.shapes is not None:
        fields.append(("shapes", g.shapes))
    for name, rows in fields:
        yield ',\n "%s": ' % name
        yield from _indent1_pieces(rows)
    yield "\n}"


def _indent1_pieces(rows):
    """
    Rows of ints as json.dumps(..., indent=1) writes a list of lists one level
    deep, each row one % format of a template made once for its width.
    """
    sep = "[\n"
    for text in format_rows(
        rows, lambda w: "  [\n   %s\n  ]" % ",\n   ".join(["%d"] * w) if w else "  []"
    ):
        yield sep
        yield text
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n ]"


def _dot_pieces(g: WGraph):
    """One line per vertex and per edge; a bidirected edge is drawn once, from its smaller end."""
    yield f'digraph "{g.variant}_{g.n}" {{\n'
    for k, v in enumerate(g.vertices):
        label = "".join(map(str, v)) if g.n < 5 else ",".join(map(str, v))
        if g.shapes is not None:
            label += "|" + ",".join(map(str, g.shapes[k]))
        yield f'  v{k} [label="{label}"];\n'
    start, dst = g.omega.start, g.omega.dst
    for v, w, c in g.omega.triples():
        hi = start[w + 1]
        k = bisect_left(dst, v, start[w], hi)  # is (w, v) in row w?
        if k == hi or dst[k] != v:
            yield f'  v{v} -> v{w} [style=dashed, label="{c}"];\n'
        elif v < w:
            yield f'  v{v} -> v{w} [dir=both, label="{c}"];\n'
    yield "}\n"


def parse_wgraph(text: str) -> WGraph:
    """The graph of an exported JSON document; a pair (v, w) listed twice is refused."""
    doc = json.loads(text)
    omega = {}
    for v, w, c in doc["edges"]:
        if (v, w) in omega:
            raise ValueError(f"edge ({v}, {w}) is listed twice")
        omega[v, w] = c
    return WGraph(
        n=doc["n"],
        variant=doc["variant"],
        reduced=doc["reduced"],
        vertices=doc["vertices"],
        tau=doc["tau"],
        omega=omega,
        shapes=doc.get("shapes"),
    )
