"""
Two Gelfand models for the Hecke algebra of S_n and their canonical bases.

The models M and N are free Z[x,x^-1]-modules whose bases are indexed by
fixed-point-free involutions of [2n]: the images of I_n under an ascending
embedding (variant "asc", module M) or a descending one (variant "des",
module N).  A generator H_{s_i} with i < n acts through the conjugation
z -> s_i z s_i except at weak positions, where it scales by x or -x^-1;
the two modules differ only in which sign the weak ascents and descents
take.

Each model carries a bar operator determined by fixing the basis vectors
without strict descents, and a canonical basis: the unique bar-invariant
family that is unitriangular over the standard basis with lower terms in
x^-1 Z[x^-1].  The x^-1 coefficients of the transition matrix (the mu
table) are what the W-graph layer consumes.

Indices i always range over [n-1] here even though vertex words live on
[2n]; the model only sees the first n positions' interactions.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .action import PackedAction
from .beissinger import _insert_pair
from .laurent import ONE, X, X_INV, X_MINUS_XINV, LaurentPoly
from .perm import Involution, involution_words, word_conj_s, word_length
from .tableau import Tableau, bump

# classification of an index i in [n-1] at a vertex z
ASC_LT, DES_LT, ASC_EQ, DES_EQ = 0, 1, 2, 3

_VARIANT_MSG = "variant must be 'asc' or 'des'"


def one_fpf(i: int) -> int:
    """The involution of the integers matching 2k-1 with 2k."""
    return i + 1 if i % 2 else i - 1


class GelfandVertex:
    """A fixed-point-free involution of [2n] lying in the chosen embedding's image."""

    __slots__ = ("word", "n", "variant")

    def __init__(self, word, n: int, variant: str, validate: bool = True):
        word = tuple(word)
        if variant not in ("asc", "des"):
            raise ValueError(_VARIANT_MSG)
        if validate:
            if len(word) != 2 * n:
                raise ValueError(f"vertex word must have length 2n={2*n}")
            inv = Involution(word)
            if inv.fixed_points():
                raise ValueError("vertex must be fixed-point-free")
            if embed(inverse_embed(word, n), variant).word != word:
                raise ValueError(f"{word} is not in the image of the {variant} embedding")
        self.word = word
        self.n = n
        self.variant = variant

    @property
    def involution(self) -> Involution:
        return Involution(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def length(self) -> int:
        return word_length(self.word)

    def __eq__(self, other):
        return (
            isinstance(other, GelfandVertex)
            and self.word == other.word
            and self.variant == other.variant
        )

    def __hash__(self):
        return hash((self.word, self.variant))

    def __repr__(self):
        return f"GelfandVertex({list(self.word)}, n={self.n}, variant={self.variant!r})"


def embed(w: Involution, mode: str) -> GelfandVertex:
    """The vertex embed_word makes of an involution of [n]."""
    return GelfandVertex(embed_word(w.word, mode), w.n, mode, validate=False)


def embed_word(word, mode: str) -> tuple:
    """
    Extend the one-line word of an involution of [n] to a fixed-point-free
    involution of [2n]: 2-cycles are kept, the q fixed points c_1 < ... < c_q
    are matched into the block n+1..n+q (in order for mode 'asc', reversed
    for 'des'), and the remaining tail is paired off consecutively.
    """
    if mode not in ("asc", "des"):
        raise ValueError(_VARIANT_MSG)
    n = len(word)
    out = list(word) + [one_fpf(i) for i in range(n + 1, 2 * n + 1)]
    fixed = [i for i, v in enumerate(word, 1) if v == i]
    q = len(fixed)
    for k, c in enumerate(fixed, 1):
        partner = n + k if mode == "asc" else n + q + 1 - k
        out[c - 1], out[partner - 1] = partner, c
    return tuple(out)


def inverse_embed(word, n: int) -> Involution:
    """Collapse a vertex word back to I_n: transfer points become fixed points."""
    return Involution(word[i - 1] if word[i - 1] <= n else i for i in range(1, n + 1))


def in_asc_image(word, n: int) -> bool:
    """
    Membership test for the ascending image by the visible-descent
    criterion: no fixed point, and no visible descent i > n, that is no
    i > n with z(i+1) < min(i, z(i)).
    """
    w = tuple(word)
    if Involution(w).fixed_points():
        return False
    return not any(w[i] < min(i, w[i - 1]) for i in range(n + 1, len(w)))


@dataclass(frozen=True)
class DescentData:
    """The partition of [n-1] into weak/strict descents and ascents at a vertex."""

    des_eq: frozenset
    asc_eq: frozenset
    des_lt: frozenset
    asc_lt: frozenset


def _classify(word, n: int, i: int) -> int:
    zi, zi1 = word[i - 1], word[i]
    if zi == i + 1 and zi1 == i:
        return DES_EQ
    if zi > n and zi1 > n:
        return ASC_EQ
    return DES_LT if zi > zi1 else ASC_LT


def descent_data(z: GelfandVertex) -> DescentData:
    groups = {ASC_LT: [], DES_LT: [], ASC_EQ: [], DES_EQ: []}
    for i in range(1, z.n):
        groups[_classify(z.word, z.n, i)].append(i)
    return DescentData(
        des_eq=frozenset(groups[DES_EQ]),
        asc_eq=frozenset(groups[ASC_EQ]),
        des_lt=frozenset(groups[DES_LT]),
        asc_lt=frozenset(groups[ASC_LT]),
    )


def tau(z: GelfandVertex) -> frozenset:
    """The ascent set of the vertex (tau_word)."""
    return tau_word(z.word, z.n, z.variant)


def tau_word(word, n: int, variant: str) -> frozenset:
    """
    The ascent set feeding the W-graph, read off the word: for model M
    (variant 'M'/'asc') the i with z(i) < z(i+1); model N ('N'/'des') also
    counts weak descents, i.e. the i with l(s_i z s_i) >= l(z).  Any other
    variant raises _model_key's ValueError.  Model derives the same sets
    from its H_s rule (ModuleTable.tau).
    """
    des = _model_key(variant) == "des"
    return frozenset(
        i for i in range(1, n) if word[i - 1] < word[i] or des and word[i - 1] == i + 1)


def transfer_points(z: GelfandVertex) -> frozenset:
    return frozenset(i for i in range(1, z.n + 1) if z.word[i - 1] > z.n)


@dataclass(frozen=True)
class MuTable:
    """Sparse x^-1 coefficients of the canonical basis transition matrix."""

    variant: str  # 'M' or 'N'
    entries: dict  # (y, z) vertex pair -> nonzero int, with l(y) < l(z)


INT_CODES = "bhiq"  # signed integer typecodes, narrowest first


def widened_fromlist(a: array, values: list, codes: str = INT_CODES) -> array:
    """
    The signed integer array a with values appended: a itself, or, while a
    value does not fit, a copy in the next typecode of codes.  OverflowError
    leaves a unchanged if none of them holds it.
    """
    while True:
        try:
            a.fromlist(values)  # on failure it keeps its old length
            return a
        except OverflowError:
            k = codes.index(a.typecode) + 1
            if k == len(codes):
                raise
            a = array(codes[k], a)


class ColumnStore:
    """
    The finished canonical-basis columns of a ModuleTable, packed into flat
    arrays.

    Column z is the slice ends[z-1]:ends[z] (0:ends[0] for z = 0) of `keys`
    and `coefs`, its terms in the order the recursion produced them.  The
    store owns its key layout: a key packs a vertex index v and an exponent
    e into one int, key(v, e) = v << shift | (bias + e) with
    bias = 2**exp_bits and shift = exp_bits + 1 (ModuleTable.exp_bits, 8),
    so sorting a column's keys sorts its terms by (v, e).  The recursion
    stores exponents -(bias - 2) .. 0, so one step H_s + x^-1 or H_s - x
    from a stored term, to exponents -(bias - 1) .. 1, stays inside its
    vertex's field.  `coefs` holds the nonzero integer
    coefficients in the narrowest of `coef_codes` that has held every column
    so far.

    `at[z]` names the appended column that column z reads, z itself until
    keep(z) repoints it, so a store filled in vertex order reads as above.
    The truncated run (ModuleTable._recursion) appends every column it
    computes and keeps the last copy of each; an older copy of a column
    computed again deeper stays in the arrays, unread.
    """

    __slots__ = ("shift", "bias", "keys", "coefs", "ends", "at")
    coef_codes = INT_CODES  # coefficient typecodes, narrowest first

    def __init__(self, size: int, exp_bits: int):
        self.shift, self.bias = exp_bits + 1, 1 << exp_bits
        self.keys = array("i" if size << self.shift < 1 << 31 else "q")
        self.coefs = array(self.coef_codes[0])
        self.ends = array("q")
        self.at = array("q", range(size))

    def key(self, v: int, e: int) -> int:
        """The packed key of x^e·T_v."""
        return v << self.shift | self.bias + e

    def column(self, z: int):
        """Column z's keys and coefficients, as two array slices."""
        k = self.at[z]
        a, b = self.ends[k - 1] if k else 0, self.ends[k]
        return self.keys[a:b], self.coefs[a:b]

    def terms(self, z: int):
        """Column z as (vertex, exponent, coefficient) triples, in stored order."""
        shift, bias = self.shift, self.bias
        field = (1 << shift) - 1  # key(v, e) & field == bias + e
        return [(k >> shift, (k & field) - bias, c) for k, c in zip(*self.column(z))]

    def append(self, keys: list, coefs: list) -> None:
        """
        Append one column.  The coefficient array widens to the next of
        `coef_codes` while a coefficient does not fit, and OverflowError
        leaves the store unchanged if none of them holds it.
        """
        self.coefs = widened_fromlist(self.coefs, coefs, self.coef_codes)
        self.keys.fromlist(keys)  # the typecode holds every key below size << shift
        self.ends.append(len(self.keys))

    def keep(self, z: int) -> int:
        """Make the column appended last column z's copy; returns its size."""
        k = self.at[z] = len(self.ends) - 1
        return self.ends[k] - (self.ends[k - 1] if k else 0)


def _shared(keys, make=None) -> list:
    """
    One entry per key, in order, with equal keys sharing one object: the
    first such key, or make(key) called once per distinct key.  A per-vertex
    value with few distinct values (an ascent set, a shape) is then stored
    once, not once per vertex; the callers treat the entries as read-only.
    """
    made = {}
    if make is None:
        return [made.setdefault(k, k) for k in keys]
    return [made[k] if k in made else made.setdefault(k, make(k)) for k in keys]


class ModuleTable:
    """
    The canonical-basis engine: a based Z[x,x^-1]-module with an action of
    H(S_n), given by one index table, plus lazily computed canonical basis
    columns, mu entries, and memoized bar expansions.

    Basis vectors are indices into `words`, sorted by (length, word).  For a
    generator i, `cls[i][k]` classifies i at vertex k, and `cnj[i][k]` is
    s_i·k at a strict position (k at a weak one).  `rule` states H_{s_i}
    once, per class: the terms (to_s, d, a) a·x^d·T_{s·v} (to_s) or a·x^d·T_v
    of H_{s_i}·T_v, which are T_{s·v}, T_{s·v} + (x - x^-1)·T_v and the weak
    scalars times T_v.  `action_terms`, the move tables (_stepper) and `tau`
    are built from it: tau[k] is [n-1] minus D(k), the i with
    H_{s_i}·C_k = x·C_k, which (C_k being T_k plus x^-1 Z[x^-1] terms) are
    the classes whose T_v term has top term x.  The Gelfand models are
    instances (Model); so is the regular representation of H(S_n) (hecke).

    `tau` and `strict_descents` (strict_descents[k] lists the i of class
    DES_LT at k, ascending) are per-vertex lists with at most 2^(n-1)
    distinct values (n = 11 col: 1,024 tau values for 35,696 vertices), so
    equal values are one shared object (_shared).  They are read-only: a
    caller that changed one would change it at every vertex sharing it.

    The table assumes that act(., i) is an involution on the strict
    positions of i, as z -> s_i·z·s_i and w -> s_i·w are, and builds
    `cnj[i]` from one `act` call per pair {k, cnj[i][k]}.

    `h_col` applies `action_terms` to columns of LaurentPolys at any
    exponents, and barvec builds bar(T_v) with it, so `bar_col` needs no key
    layout.  A column is a dict from vertex index to LaurentPoly; it is the
    table's only form of a module element.  `action()` is the same terms as
    a PackedAction, which sizes its own key field, for the relation check.

    One driver runs the canonical-basis recursion (_recursion).  It applies
    H_s + x^-1 to stored columns through one step kernel, which reads
    per-vertex move tables (_stepper), and passes each column through one
    self-check (_check_column).  How it runs follows from what the caller
    asks for:
    - `column_store()` runs it in full: every column to its last term,
      bottom-up, packed into a ColumnStore, a few bytes per term, whose key
      field has `exp_bits` = 8 exponent bits: exponents down to -254, where
      the deepest stored term is x^-20 at n = 9 row and x^-15 at n = 10
      col; a deeper one is refused by name.  The tables,
      `check_intertwining()` (which certifies the store's bar-invariance)
      and `canonical_columns()` read it.
    - `mu_columns()`, asked before any store, runs it truncated, top-down:
      the W-graph reads only the x^-1 coefficients, so each column is kept
      only as deep as its readers need (at n = 9 row, 17 % of the terms,
      and 57 % of the full run's reads).
    A store made after a truncated mu table is checked against it.
    `canonical_columns()` decodes the store into LaurentPoly dicts on each
    call; nothing on the graph path or in the certificate calls it.
    `pick` chooses the strict descent a column is expanded by.
    """

    exp_bits = 8  # the store's exponent field (ColumnStore)

    picks = ("cost", "min", "max")

    def __init__(self, n, words, classify, act, weak=(None, None), pick="cost"):
        if pick not in self.picks:
            raise ValueError(f"pick must be one of {self.picks}, got {pick!r}")
        self.n = n
        self.pick = pick
        keyed = sorted((word_length(wd), wd) for wd in words)
        self.words = [wd for _, wd in keyed]
        self.length = [ln for ln, _ in keyed]
        index = {wd: k for k, wd in enumerate(self.words)}
        self.cls = {}   # i -> per-vertex classification
        self.cnj = {}   # i -> per-vertex index of the vertex H_{s_i} moves it to
        for i in range(1, n):
            cls_i = self.cls[i] = [classify(wd, i) for wd in self.words]
            # the identity, made of the index's own ints (no new int per entry);
            # weak k stay fixed
            cnj_i = self.cnj[i] = list(index.values())
            for wd, k in index.items():
                if cnj_i[k] == k and cls_i[k] in (ASC_LT, DES_LT):
                    u = index[act(wd, i)]
                    cnj_i[k], cnj_i[u] = u, k
        self.strict_descents = _shared(
            (tuple(i for i in range(1, n) if self.cls[i][k] == DES_LT) for k in range(len(self.words))),
            list,
        )
        at_v = (lambda p: () if p is None else tuple((False, e, c) for e, c in p.items()))
        self.rule = {  # the (to_s, d, a) terms of H_{s_i}·T_v, by the class of i at v
            ASC_LT: ((True, 0, 1),),
            DES_LT: ((True, 0, 1),) + at_v(X_MINUS_XINV),
            ASC_EQ: at_v(weak[0]),
            DES_EQ: at_v(weak[1]),
        }
        down = [k for k, r in self.rule.items()  # the classes in D(v) (see above)
                if max(((d, a) for to_s, d, a in r if not to_s), default=None) == (1, 1)]
        self.tau = _shared(frozenset(i for i in range(1, n) if self.cls[i][v] not in down)
                           for v in range(len(self.words)))
        self._store = None
        self._mu_by_col = None
        self._barvecs = {}
        self._terms = None
        self._action = None
        self.term_reads = None  # store terms the full run read, once computed
        self.mu_counts = None  # the truncated run's (terms read, kept, columns computed)

    # -- the H_{s_i} action ----------------------------------------------------

    def action_terms(self) -> dict:
        """
        Per generator i and vertex v, the (u, d, a) terms a·x^d·T_u of
        H_{s_i}·T_v (PackedAction's `terms`): `rule` at the class of i at v.
        """
        if self._terms is None:
            self._terms = {i: [tuple((u if to_s else v, d, a) for to_s, d, a in self.rule[k])
                               for v, (k, u) in enumerate(zip(self.cls[i], self.cnj[i]))]
                           for i in range(1, self.n)}
        return self._terms

    def action(self) -> PackedAction:
        """The H_{s_i} action as a PackedAction, for relation_violations."""
        if self._action is None:
            self._action = PackedAction(self.n, len(self.words), self.action_terms())
        return self._action

    def h_col(self, i: int, col: dict) -> dict:
        """H_{s_i} on a column of LaurentPolys under vertex indices, by `action_terms`."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range for n={self.n}")
        return _nonzero(self._h_sums(i, col))

    def _h_sums(self, i: int, col: dict) -> dict:
        """H_{s_i} on a column of LaurentPolys, as exponent -> coefficient dicts with zeros kept."""
        terms = self.action_terms()[i]
        out = {}
        for v, p in col.items():
            for u, d, a in terms[v]:
                t = out.setdefault(u, {})
                for e, c in p.items():
                    t[e + d] = t.get(e + d, 0) + a * c
        return out

    # -- canonical basis -----------------------------------------------------

    def _step_terms(self, sign: int) -> dict:
        """
        Per class, the terms of C·T_v as a dict from (to_s, d) to its nonzero
        a, the rule's move to s·v first: `rule` plus x^-1 (C = H_s + x^-1,
        sign 1) or minus x (C = H_s - x, sign -1), merged.
        """
        out = {}
        for k, r in self.rule.items():
            t = {}
            for to_s, d, a in r + ((False, -sign, sign),):
                t[to_s, d] = t.get((to_s, d), 0) + a
            out[k] = {key: a for key, a in t.items() if a}
        return out

    def _stepper(self, store: ColumnStore):
        """
        The one column step that the recursion and the certificate share, on
        the store's keys.  step(i, sign, v, lower) returns, as a dict from
        packed key to int with zeros kept, C·C_v minus m·C_y summed over the
        (y, m) in `lower` with i not in tau(y), C_v and C_y read from the
        store as they are: C = H_s + x^-1 for sign 1 and H_s - x for sign -1,
        s = s_i.  C is read from move tables, one per (i, sign) built on
        first use: each class's `rule` plus x^-1 (sign 1) or minus x (sign
        -1), merged once per class, then one tuple per vertex y listing,
        flat, the (offset, multiplier) pairs that send c at a key of y to
        multiplier·c at key + offset: the move to s·y first, at offset
        ((cnj[i][y] - y) << shift) + d, then the terms at y, at offset d.  A
        strict y has two pairs; a weak y has none or two in M and N.
        """
        shift, tau, tables, entries = store.shift, self.tau, {}, {}

        def moves(i: int, sign: int) -> list:
            lead, rest = {}, {}  # per class: the d of its move to s·y, if any; the pairs after it
            for k, t in self._step_terms(sign).items():
                rest[k] = sum(((d, a) for (to_s, d), a in t.items()), ())
                if self.rule[k] and self.rule[k][0][0]:  # the rule's one move to s·y comes first
                    lead[k], rest[k] = rest[k][0], rest[k][1:]
            return tables.setdefault((i, sign), [
                entries.setdefault(m, m) for m in (  # equal entries share one tuple
                    (((u - y) << shift) + lead[k],) + rest[k] if k in lead else rest[k]
                    for y, (k, u) in enumerate(zip(self.cls[i], self.cnj[i])))
            ])

        def step(i: int, sign: int, v: int, lower=()) -> dict:
            table = tables.get((i, sign)) or moves(i, sign)
            out = {}
            get = out.get
            for key, c in zip(*store.column(v)):
                m = table[key >> shift]
                if len(m) == 4:
                    d, e = m[0] + key, m[2] + key
                    out[d] = get(d, 0) + m[1] * c
                    out[e] = get(e, 0) + m[3] * c
                elif m:  # a weak scalar with one term or more than two
                    for j in range(0, len(m), 2):
                        out[m[j] + key] = get(m[j] + key, 0) + m[j + 1] * c
            for y, m in lower:
                if i not in tau[y]:
                    for key, c in zip(*store.column(y)):
                        out[key] = get(key, 0) - m * c
            return out

        return step

    def _recursion(self, full: bool):
        """
        The canonical-basis recursion: column_store() runs it in full,
        mu_columns() truncated.  C_z = C_s·C_w - sum of mu(y, w)·C_y over
        the y with s not in tau(y), where s = s_i is the picked strict
        descent of z, w = s z s and C_s = H_s + x^-1: one _stepper step with
        sign 1, which _check_column checks and appends to the store.  Column
        z at depth d is its terms at exponents -d and up.  C_z at depth d
        needs C_w at depth d + r and each subtracted C_y at depth d, which
        an explicit stack requests first.  r is the largest exponent shift
        of a term of C_s (_step_terms, from `rule`; 1 for M, N and the
        regular table).  A column already kept deep enough is read as it
        is; one a later reader needs deeper is computed again at that depth
        and replaces the kept one (ColumnStore.keep).  The columns T_z of the
        vertices with no strict descent are kept whole.
        - Full run: every column is requested at full depth, bottom-up, and
          kept whole.  Every column below z is whole when z is reached, so
          the stack never holds more than z and no column is computed twice.
          Sets `term_reads`, the stored terms the steps read.
        - Truncated run: every column is requested at depth 1, longest
          first, and _check_column drops the terms below -d.  Sets
          `mu_counts` to (terms read, terms kept, columns computed), each
          T_z counted once.

        Exactness.  Let C_w be exact at exponents -(d + r) and up, and each
        C_y at -d and up.  A term x^e·T_u of C_w gives terms at exponents at
        most e + r in C_s·C_w, so the missing terms of C_w (e < -(d + r))
        give terms below -d only, and the missing terms of each C_y lie
        below -d.  So C_z is exact at -d and up, and the dropped terms are
        the only ones that can be incomplete.  mu(y, w) is the x^-1
        coefficient of C_w, kept as d + r >= 1, so the subtracted y are the
        full recursion's, and by induction on length every kept term is
        exact.  Each column is kept at depth >= 1, so its mu entries are.

        The strict descent.  Every strict descent gives the same column;
        they differ in how many stored terms the step reads, |C_w| plus the
        |C_y| it subtracts.  "min" and "max" take the least and the greatest
        strict descent in both runs, and serve as oracles.  "cost" in the
        full run takes the i that reads fewest, from the finished sizes (the
        least such i on a tie).  The truncated run picks before the sizes
        it would compare exist, so its "cost" takes the i whose w has the
        fewest ascents |tau(w)| (the least such i on a tie).  That is why
        the runs go in opposite orders: at full depth that static pick
        reads 22-34 % more terms (n = 9 and 10), and top-down no sizes
        exist yet to pick by.

        Returns the store and the depths the columns are kept at (for the
        tests; column_store() keeps the store).
        """
        V = len(self.words)
        store = ColumnStore(V, self.exp_bits)
        step = self._stepper(store)
        tau, cnj, pick = self.tau, self.cnj, self.pick
        r = max(d for t in self._step_terms(1).values() for _, d in t)
        whole = float("inf")
        depth = [0] * V
        sizes = [0] * V
        mu_by_col = [None] * V

        def cost(j: int, z: int) -> int:
            """The stored terms the step for column z at strict descent j reads."""
            w = cnj[j][z]
            return sizes[w] + sum(sizes[y] for y in mu_by_col[w] if j not in tau[y])

        if pick != "cost":
            picks = [(dlt[-1] if pick == "max" else dlt[0]) if dlt else None
                     for dlt in self.strict_descents]
        elif not full:  # the fewest ascents at w (see above)
            picks = [min(dlt, key=lambda j: len(tau[cnj[j][z]]), default=None)
                     for z, dlt in enumerate(self.strict_descents)]
        else:  # the fewest reads, picked when z is reached (see above)
            picks = None
        reads = computed = 0
        for top in range(V) if full else range(V - 1, -1, -1):
            stack = [(top, whole if full else 1)]
            while stack:
                z, d = stack[-1]
                if depth[z] >= d:
                    stack.pop()
                    continue
                dlt = self.strict_descents[z]
                if not dlt:
                    store.append([store.key(z, 0)], [1])
                    sizes[z], depth[z], mu_by_col[z] = store.keep(z), whole, {}
                    computed += 1
                    continue
                if picks is None:  # the least i of least cost, c its reads
                    c, i = min([(cost(j, z), j) for j in dlt])
                else:
                    i, c = picks[z], None
                w = cnj[i][z]
                if depth[w] < d + r:
                    stack.append((w, d + r))
                    continue
                lower = mu_by_col[w]
                need = [(y, d) for y in lower if depth[y] < d and i not in tau[y]]
                if need:
                    stack += need
                    continue
                reads += cost(i, z) if c is None else c
                col = step(i, 1, w, lower.items())
                mu_by_col[z] = self._check_column(z, col, store, None if full else d)
                sizes[z], depth[z] = store.keep(z), d
                computed += 1
        self._mu_by_col = tuple(mu_by_col)
        if full:
            self._store, self.term_reads = store, reads
        else:
            self.mu_counts = (reads, sum(sizes), computed)
        return store, depth

    def _check_column(self, z: int, col: dict, store: ColumnStore, depth=None) -> dict:
        """
        Drop the zero terms of a computed column (given a depth, also those
        below x^-depth: the truncated run's cut; the full run gives none),
        run its self-checks on the rest and append it to the store: the
        coefficient of z is exactly 1, every other term has l(y) < l(z) and
        exponent <= -1, every exponent is at least -(2**exp_bits - 2) and
        every coefficient fits 64 bits.  Returns the column's mu entries,
        the x^-1 coefficients off the diagonal.  As vertices are sorted by
        length, one max bounds the keys below z's length, and one pass tests
        each exponent field and reads mu.  A failed column is rescanned for
        its fault: not unitriangular, else the last term too deep for the
        key field, else the first bad term.
        """
        shift, bias, words, length = store.shift, store.bias, self.words, self.length
        field, top, diag = (1 << shift) - 1, bias - 1, store.key(z, 0)  # key & field: bias + e
        if depth is None:
            keys, coefs = list(compress(col, col.values())), list(filter(None, col.values()))
        else:  # the nonzero terms at exponents -depth and up
            low = bias - depth
            keep = [c and k & field >= low for k, c in col.items()]
            keys, coefs = list(compress(col, keep)), list(compress(col.values(), keep))
        if col.get(diag) == 1:
            p = keys.index(diag)
            keys[p] = -1  # the diagonal is the one key not below the bound
            below = max(keys) < bisect_left(length, length[z]) << shift
            keys[p] = diag
            mu = {}
            for key, c in zip(keys, coefs):
                f = key & field
                if f == top:
                    mu[key >> shift] = c
                elif not 2 <= f < top and key != diag:
                    break
            else:
                if below:
                    try:
                        store.append(keys, coefs)
                    except OverflowError:
                        raise RuntimeError(
                            f"column {words[z]} has a coefficient beyond 64 bits"
                        ) from None
                    return mu
        terms = [(k >> shift, (k & field) - bias, c) for k, c in zip(keys, coefs)]
        if [(e, c) for y, e, c in terms if y == z] != [(0, 1)]:
            raise RuntimeError(f"column {words[z]} is not unitriangular")
        deep = [(y, e) for y, e, _ in terms if y != z and e < 2 - bias]
        if deep:
            raise RuntimeError(
                f"column {words[z]} has a term at {words[deep[-1][0]]} with exponent "
                f"{deep[-1][1]}, below the {self.exp_bits}-bit key field"
            )
        bad = next(y for y, e, _ in terms if y != z and (e >= 0 or length[y] >= length[z]))
        c = LaurentPoly({e: c for y, e, c in terms if y == bad})
        raise RuntimeError(f"column {words[z]} has a bad term at {words[bad]}: {c}")

    def column_store(self) -> ColumnStore:
        """
        The canonical columns, packed (see ColumnStore), from the full run
        of the recursion.  If mu_columns() has already run it truncated, the
        two mu tables are compared column by column, and a RuntimeError
        names the first column where they differ; mu_columns() then returns
        the full run's dicts.
        """
        if self._store is None:
            mu = self._mu_by_col
            self._recursion(full=True)
            if mu is not None:
                bad = next((z for z, col in enumerate(self._mu_by_col) if col != mu[z]), None)
                if bad is not None:
                    raise RuntimeError(
                        f"column {self.words[bad]} has other mu entries in the full recursion"
                        " than in the truncated one")
        return self._store

    def canonical_columns(self) -> list:
        """
        The canonical columns as new dicts from vertex index to LaurentPoly,
        decoded from the store on each call.
        """
        store = self.column_store()
        cols = []
        for z in range(len(self.words)):
            terms = {}
            for v, e, c in store.terms(z):
                terms.setdefault(v, {})[e] = c
            cols.append({v: LaurentPoly.from_nonzero(t) for v, t in terms.items()})
        return cols

    def mu_columns(self) -> tuple:
        """
        The mu table as the recursion keeps it: entry z maps each y with
        mu(y, z) != 0 to mu(y, z), always with l(y) < l(z).  The dicts are the
        table's own, shared with every caller, and must not be changed.
        They come from the column store if it has been made, else from the
        truncated run of the recursion, which holds no full column.
        """
        if self._mu_by_col is None:
            self._recursion(full=False)
        return self._mu_by_col

    def mu_entries(self) -> dict:
        """The mu table as a new dict from index pairs (y, z) to mu(y, z)."""
        return {(y, z): m for z, col in enumerate(self.mu_columns()) for y, m in col.items()}

    def check_intertwining(self) -> None:
        """
        Certify that the canonical columns are bar-invariant, at a cost
        linear in their terms, or raise a RuntimeError that names the first
        column and generator at fault.  It checks, on the packed store and
        the mu table that mu_columns() returns:

        (a) every vertex v with no strict descent has the column T_v, and
            each column's mu entries are its x^-1 coefficients off the
            diagonal;
        (b) the W-graph identity H_{s_i}·C_v = sum over u of rho_i(u, v)·C_u
            for every v and every generator i (Kazhdan-Lusztig, Invent.
            Math. 53 (1979), section 1): x·C_v if i is not in tau(v), else
            -x^-1·C_v plus omega(u, v)·C_u summed over the u with i not in
            tau(u), where omega is the symmetrized mu.  This is
            wgraph.action_terms's rule for the graph build_gamma makes.

        Proof that (a), (b) and unitriangularity (_check_column) give
        bar-invariance.  Let D_v = bar(C_v).
        1. bar(H_s·m) = (H_s - (x - x^-1))·bar(m), and bar fixes the integers
           omega, so H_s·D_v = sum of rho_s(u, v)·D_u: on the diagonal
           (x - x^-1) + x^-1 = x and (x - x^-1) - x = -x^-1.
        2. The C_v are unitriangular, so they form a basis, and by 1 and (b)
           the Z[x,x^-1]-linear map phi: C_v -> D_v is H-linear.
        3. phi fixes each T_v with no strict descent (C_v = T_v by (a), and
           bar fixes such T_v by definition), and these generate the
           module: T_v = H_s·T_{svs} at a strict descent s of v.
        4. So phi is the identity: bar(C_v) = C_v for every v.
        Step 1 treats every omega term alike, those above v included, so no
        induction on length is needed and no term can break one.

        Assumptions.  The proof takes `rule` to satisfy the relations of
        H(S_n), and bar to be compatible with every H_s.  The relation check
        on `action()` covers the rule the step applies: both, and tau, are
        built from one `rule`, `cls` and `cnj`.  barvec builds bar(T_v) by
        that rule at one strict descent of v, so compatibility at the others
        is what must be checked: the gelfand suite checks it and the
        relations at n <= 5, and the tests the relations at n <= 8.  For the
        regular representation bar is the algebra's own.  Every generator is
        tested against the graph of mu and tau, not only the one picked.

        (b) is checked with both sides moved to one, by the recursion's own
        step (_stepper) on the stored columns: (H_s - x)·C_v = 0 for i not
        in tau(v) (sign -1), and (H_s + x^-1)·C_v minus the omega terms = 0
        for i in tau(v) (sign 1).
        """
        from .wgraph import symmetrize_mu  # wgraph imports this module

        store = self.column_store()
        mu_by_col, tau, words = self._mu_by_col, self.tau, self.words
        V = len(words)
        for v in range(V):
            terms = store.terms(v)
            if not self.strict_descents[v] and terms != [(v, 0, 1)]:
                raise RuntimeError(f"column {words[v]} is not its standard basis vector")
            if {y: c for y, e, c in terms if e == -1} != mu_by_col[v]:
                raise RuntimeError(f"column {words[v]} disagrees with its mu entries")
        # row v of omega gives the (u, omega(v, u)) pairs; the reduced weights
        # suffice, since step skips every u with tau(v) in tau(u) at an i in tau(v)
        omega = symmetrize_mu(mu_by_col, tau)
        step = self._stepper(store)
        # the descent identities read only C_v, so they run first: a corrupted
        # column is then named by its own identity before a neighbour's reads it
        for sign in (-1, 1):
            for v in range(V):
                lower = list(zip(omega.targets(v), omega.weights(v))) if sign == 1 else ()
                for i in range(1, self.n):
                    if (i in tau[v]) == (sign == 1) and any(step(i, sign, v, lower).values()):
                        raise RuntimeError(
                            f"column {words[v]} fails the W-graph action of s_{i}"
                        )

    # -- bar operator ----------------------------------------------------------

    def barvec(self, v: int) -> dict:
        """
        bar(T_v) over the standard basis as a column of LaurentPolys,
        memoized: T_v if v has no strict descent, else
        (H_s - (x - x^-1))·bar(T_w) at its least strict descent s, with
        w = s·v·s, by h_col's sums.
        """
        got = self._barvecs.get(v)
        if got is None:
            dlt = self.strict_descents[v]
            if not dlt:
                got = {v: ONE}
            else:
                bw = self.barvec(self.cnj[dlt[0]][v])
                out = self._h_sums(dlt[0], bw)
                for u, p in bw.items():
                    t = out.setdefault(u, {})
                    for e, c in p.items():
                        t[e + 1] = t.get(e + 1, 0) - c
                        t[e - 1] = t.get(e - 1, 0) + c
                got = _nonzero(out)
            self._barvecs[v] = got
        return got

    def bar_col(self, col: dict) -> dict:
        """
        bar of a column of LaurentPolys, bar(c(x)·T_v) = c(x^-1)·bar(T_v):
        the c·x^-e·bar(T_v) summed in exponent dicts, one per vertex.
        """
        out = {}
        for v, p in col.items():
            bv = self.barvec(v).items()
            for e, c in p.items():
                for u, q in bv:
                    t = out.setdefault(u, {})
                    for f, d in q.items():
                        t[f - e] = t.get(f - e, 0) + c * d
        return _nonzero(out)


def _nonzero(col: dict) -> dict:
    """A column of exponent -> coefficient dicts as LaurentPolys, zeros dropped."""
    out = {v: LaurentPoly(t) for v, t in col.items()}
    return {v: p for v, p in out.items() if p}


# h_action(table, i, col) and bar_module(table, col) are the column
# operations under the names perfbench/tracer.py wraps; they go when its
# span list drops them (ROADMAP item 2)
h_action = ModuleTable.h_col
bar_module = ModuleTable.bar_col


class Model(ModuleTable):
    """
    The Gelfand model M (variant 'asc') or N ('des') for one n: the engine
    over the embedded involutions, with the descent classifications of
    _classify and the conjugation z -> s_i z s_i.  The index table is built
    on bare words (involution_words, embed_word), with no Involution or
    GelfandVertex object per vertex; its tau equals tau_word's.
    """

    def __init__(self, n: int, variant: str, pick: str = "cost"):
        if variant not in ("asc", "des"):
            raise ValueError(_VARIANT_MSG)
        self.variant = variant
        # weak-position scalars: M scales weak ascents by -x^-1 and weak
        # descents by x; N swaps the two
        weak = (-X_INV, X) if variant == "asc" else (X, -X_INV)
        super().__init__(
            n,
            (embed_word(w, variant) for w in involution_words(n)),
            lambda wd, i: _classify(wd, n, i),
            word_conj_s,
            weak,
            pick,
        )

    def vertex(self, k: int) -> GelfandVertex:
        return GelfandVertex(self.words[k], self.n, self.variant, validate=False)


@lru_cache(maxsize=None)
def _model(n: int, variant: str) -> Model:
    return Model(n, variant)


def _model_key(variant: str) -> str:
    """The embedding of model M (variant 'M'/'asc') or N ('N'/'des')."""
    if variant not in ("M", "N", "asc", "des"):
        raise ValueError(f"variant must be 'M' or 'N', got {variant!r}")
    return "asc" if variant in ("M", "asc") else "des"


def canonical_basis(n: int, variant: str, check_bar=None):
    """
    The canonical basis of model M (variant 'M'/'asc') or N ('N'/'des').

    Returns (columns, mu): columns maps each vertex z to the canonical basis
    element C_z over the standard basis, as a dict from vertex y to the
    LaurentPoly coefficient of T_y, and mu is the table of x^-1
    coefficients.  One GelfandVertex object stands for each vertex
    throughout.  Triangularity is always verified; check_bar=True also
    certifies bar-invariance by ModuleTable.check_intertwining, at a cost
    linear in the column terms (about 0.02 s at n=7 and 0.2 s at n=8 for M,
    several times the recursion itself).  check_bar=None runs it for n <= 6.
    """
    key = _model_key(variant)
    if check_bar is None:
        check_bar = n <= 6
    m = _model(n, key)
    if check_bar:
        m.check_intertwining()
    cols = m.canonical_columns()
    sym = "M" if key == "asc" else "N"
    verts = [m.vertex(z) for z in range(len(cols))]  # one object per vertex, shared
    out = {verts[z]: {verts[v]: c for v, c in col.items()} for z, col in enumerate(cols)}
    mu = MuTable(sym, {
        (verts[y], verts[z]): v for z, col in enumerate(m.mu_columns()) for y, v in col.items()
    })
    return out, mu


def hat_p(z: GelfandVertex) -> Tableau:
    """
    The insertion tableau of the vertex (p_rbs for 'asc', p_cbs for 'des'),
    restricted to entries <= n, from the first n letters of its word: each
    pair (a, b) with a < b <= n goes in by `_insert_pair` in increasing b,
    then each a <= n with z(a) > n is row-bumped, in increasing a for 'asc'
    and decreasing a for 'des'.  Tableau(rows) validates the n cells once.

    This is the p-map restricted.  The p-map inserts the pairs by increasing
    b: first those with b <= n, as above, then those with b > n.  Each such
    b is appended at the end of a row or column and is > n, outside the
    restriction.  The entries > n end each row, so a row bump of a <= n,
    restricted to the entries <= n, is a Schensted insertion (once it
    displaces an entry > n, only entries > n move), and a bump of a > n
    moves only entries > n.  The a <= n with z(a) > n are the fixed points
    c_1 < ... < c_q of the involution, and `embed_word` matches c_k to n+k
    for 'asc' and to n+q+1-k for 'des', so increasing b is increasing a for
    'asc' and decreasing a for 'des'.
    """
    n, word, row = z.n, z.word, z.variant == "asc"
    rows = []
    for b, a in enumerate(word[:n], 1):
        if a < b:
            _insert_pair(rows, a, b, row)
    fixed = [a for a, b in enumerate(word[:n], 1) if b > n]
    for a in fixed if row else reversed(fixed):
        bump(rows, a)
    return Tableau(rows)


def lambda_shape(z: GelfandVertex):
    """The shape of hat_p(z)."""
    return hat_p(z).shape


def iota_line(T: Tableau, direction: str) -> Tableau:
    """
    Double a standard tableau with n cells to one with 2n cells.

    direction 'row': n+1..n+k close off the odd columns left to right, then
    the leftover values join rows 1 and 2 alternately, killing all odd
    columns.  direction 'col': n+1..n+k close off the odd rows top to
    bottom, then everything left joins row 1, killing all odd rows.
    """
    if not T.is_standard():
        raise ValueError("input must be a standard tableau")
    n = T.size
    rows = [list(r) for r in T.rows]
    if direction == "row":
        ncols = len(rows[0]) if rows else 0
        odd = [c for c in range(1, ncols + 1)
               if sum(1 for r in rows if len(r) >= c) % 2]
        k = len(odd)
        for offset, c in enumerate(odd, 1):
            depth = sum(1 for r in rows if len(r) >= c)
            if depth < len(rows):
                rows[depth].append(n + offset)
            else:
                rows.append([n + offset])
        if n + k < 2 * n:
            if len(rows) < 2:
                rows.append([])
            for j, v in enumerate(range(n + k + 1, 2 * n + 1)):
                rows[j % 2].append(v)
            rows = [r for r in rows if r]
        return Tableau(rows)
    if direction == "col":
        odd = [r for r in range(len(rows)) if len(rows[r]) % 2]
        k = len(odd)
        for offset, r in enumerate(odd, 1):
            rows[r].append(n + offset)
        if n + k < 2 * n:
            rows[0].extend(range(n + k + 1, 2 * n + 1))
        return Tableau(rows)
    raise ValueError(f"direction must be 'row' or 'col', got {direction!r}")


def tables_json(n: int, variant: str, fh) -> None:
    """
    Write the canonical-basis and mu tables of model M or N to the text file
    `fh` as one JSON document and a newline:

        {"variant": "M"|"N", "n": n,
         "vertices": [word, ...],
         "columns": {"z": [[y, [[e, c], ...]], ...], ...},
         "mu": [[y, z, mu(y, z)], ...]}

    Vertices are indices into the vertex list (sorted by length, then
    word); column z lists its vertices y in increasing order, each with its
    nonzero coefficients c of x^e in increasing e; mu is sorted.  The text is
    what `json.dumps` gives for that document, but it is written
    incrementally, one vertex, column or mu row at a time, the columns
    straight from the packed column store, so the whole document never
    exists in memory.  A column's packed keys, sorted as plain ints, give
    that order; each vertex's "]], [y, [[" opener comes from a list built
    once, and each "e, c]" text from a dict that formats a (key field,
    coefficient) pair on first use (n = 9 has 128 of them in M and 44 in
    N).  The store and mu table are computed before the first
    write, so a failed self-check writes nothing.
    """
    key = _model_key(variant)
    m = _model(n, key)
    store = m.column_store()
    shift = store.shift
    mu = m.mu_columns()
    # mu is written sorted by (y, z): per y, the z with mu(y, z) != 0, ascending
    mu_rows = [[] for _ in m.words]
    for z, col in enumerate(mu):
        for y in col:
            mu_rows[y].append(z)
    fh.write('{"variant": %s, "n": %d, "vertices": [' % ('"M"' if key == "asc" else '"N"', n))
    sep = ""
    for text in format_rows(m.words, lambda w: "[%s]" % ", ".join(["%d"] * w)):
        fh.write(sep + text)
        sep = ", "
    fh.write('], "columns": {')
    # (bias + e, coefficient) -> "e, c]": bias + e lies in 2..bias, which for
    # the 8-bit field are CPython's cached small ints, so no int is made
    # per term (e itself goes down to -254)
    bias = store.bias
    pair = {}
    opener = ["]], [%d, [[" % y for y in range(len(m.words))]
    base = [store.key(y, -bias) for y in range(len(m.words))]  # key(y, e) = base[y] + bias + e
    for z in range(len(m.words)):
        coef = dict(zip(*store.column(z)))
        text = []
        last = start = -1
        for term in sorted(coef):
            y = term >> shift
            if y == last:
                text.append(", [")
            else:  # close the previous vertex's pairs and open y's
                text.append(opener[y])
                last, start = y, base[y]
            fc = term - start, coef[term]
            try:
                text.append(pair[fc])
            except KeyError:
                text.append(pair.setdefault(fc, "%d, %d]" % (fc[0] - bias, fc[1])))
        # a column is never empty: it holds its diagonal term
        text[0] = text[0][4:]  # the first vertex closes no previous one
        fh.write('%s"%d": [%s]]]' % (", " if z else "", z, "".join(text)))
    fh.write('}, "mu": [')
    sep = ""
    for y, zs in enumerate(mu_rows):
        if zs:
            fh.write(sep + ", ".join(["[%d, %d, %d]" % (y, z, mu[z][y]) for z in zs]))
            sep = ", "
    fh.write("]}\n")


def format_rows(rows, template):
    """Each row of ints through one % format, template(width), made once per width."""
    made = {}
    for row in rows:
        row = tuple(row)
        fmt = made.get(len(row))
        if fmt is None:
            fmt = made[len(row)] = template(len(row))
        yield fmt % row
