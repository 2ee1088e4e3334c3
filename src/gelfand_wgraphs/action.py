"""
The generators of H(S_n) acting on sparse integer columns under packed
(basis index, exponent) keys, and the check of the algebra's defining
relations on such an action.

Both module actions the package checks are given this way: a W-graph's, from
its tau sets and edge weights (wgraph.action_terms), and a Gelfand model's
or the regular representation's, from its index tables and weak scalars
(gelfand.ModuleTable.action_terms).  Every step is an integer add on a key,
so no LaurentPoly arithmetic runs.
"""

from __future__ import annotations


class PackedAction:
    """
    The generators of H(S_n) acting on sparse columns under packed keys.

    A key packs a basis index v and an exponent e into one int,
    v << shift | (bias + e), so a column is a dict from key to nonzero int:
    the term c·x^e·T_v is key -> c.  The action is given by its terms:
    `terms[i][v]` lists the (u, d, a) with H_{s_i}·T_v = sum of a·x^d·T_u,
    a a nonzero int.  `moves[i][v]` holds the same terms as (key offset, a)
    pairs, the offset (u - v) << shift plus d, so applying H_{s_i} to a
    column is one integer add per term and move, the same for a W-graph
    (terms from tau and omega) as for a module table (terms from `cls`/`cnj`
    and the weak scalars).

    Key-field bound.  The field holds the exponents -bias .. bias - 1, and
    one generator moves an exponent by at most `reach`, the largest |d|.
    `apply` does not check the field: a term pushed past it would land in a
    neighbouring vertex's field.  The action sizes the field from its own
    terms: bias = 2**(shift - 1) is the least power of two above
    3·max(reach, 1), so the field holds every column `relation_violations`
    makes.  Proof: that check starts at basis vectors (e = 0) and applies at
    most three generators, or one and a shift by x^±1, so every exponent it
    meets has |e| <= 3·max(reach, 1) < bias.  Both kinds of action the
    package builds have reach 1, so they get shift 3 and bias 4.
    """

    __slots__ = ("n", "size", "shift", "bias", "reach", "moves")

    def __init__(self, n: int, size: int, terms: dict):
        """`size` basis vectors, terms as above for the generators 1..n-1."""
        self.n, self.size = n, size
        self.reach = max(
            (abs(d) for ti in terms.values() for tv in ti for _, d, _ in tv), default=0
        )
        span = 3 * max(self.reach, 1)  # the largest |e| relation_violations meets
        self.shift = span.bit_length() + 1
        self.bias = 1 << self.shift - 1
        shift = self.shift
        self.moves = {
            i: [tuple((((u - v) << shift) + d, a) for u, d, a in tv) for v, tv in enumerate(ti)]
            for i, ti in terms.items()
        }

    def apply(self, i: int, col: dict) -> dict:
        """H_{s_i} applied to a packed column, zero entries dropped."""
        moves, shift = self.moves[i], self.shift
        out = {}
        get = out.get
        for key, c in col.items():
            for off, a in moves[key >> shift]:
                key2 = key + off
                out[key2] = get(key2, 0) + a * c
        return {k: c for k, c in out.items() if c}


def relation_violations(act: PackedAction) -> list:
    """
    The defining relations of H(S_n) that a packed action fails, as messages.

    On every basis vector T_v this checks the quadratic relation
    H_s·H_s = 1 + (x - x^-1)·H_s, the braid relation for adjacent
    generators and commutation for distant ones.  Each side applies at most
    three generators to T_v, which the action's key field holds
    (PackedAction's field bound); the right-hand side of the quadratic
    relation is H_s·T_v with every key shifted by +1 and, negated, by -1.
    """
    n, shift, bias = act.n, act.shift, act.bias
    apply = act.apply
    gens = range(1, n)
    failed = set()  # (i, i): quadratic; (i, j), i < j: braid or commutation
    for v in range(act.size):
        e = {v << shift | bias: 1}
        h = {i: apply(i, e) for i in gens}
        hh = {(i, j): apply(i, h[j]) for i in gens for j in gens}
        for i in gens:
            rhs = dict(e)
            get = rhs.get
            for key, c in h[i].items():
                rhs[key + 1] = get(key + 1, 0) + c
                rhs[key - 1] = get(key - 1, 0) - c
            if hh[i, i] != {k: c for k, c in rhs.items() if c}:
                failed.add((i, i))
            if i + 1 < n and apply(i, hh[i + 1, i]) != apply(i + 1, hh[i, i + 1]):
                failed.add((i, i + 1))
            for j in range(i + 2, n):
                if hh[i, j] != hh[j, i]:
                    failed.add((i, j))
    out = [f"quadratic relation fails for s_{i}" for i in gens if (i, i) in failed]
    for i in gens:
        for j in range(i + 1, n):
            if (i, j) in failed:
                rel = "braid relation" if j == i + 1 else "commutation"
                out.append(f"{rel} fails for s_{i}, s_{j}")
    return out
