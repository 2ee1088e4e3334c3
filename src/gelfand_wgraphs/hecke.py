"""
The Iwahori-Hecke algebra of S_n over Z[x, x^-1].

Standard basis {H_w}, with H_s H_w = H_{sw} when the product is longer and
H_{sw} + (x - x^-1) H_w otherwise; the bar involution fixes each H_s up to
the correction -(x - x^-1) and inverts x.  The Kazhdan-Lusztig basis element
for w is the unique bar-invariant element lying in H_w plus an
x^-1 Z[x^-1]-combination of shorter basis elements.

This module has no recursion of its own.  The regular representation is a
gelfand.ModuleTable with no weak positions: words sorted by (length, word),
each generator a strict left ascent or descent, H_s moving w to s*w, and tau,
derived from that rule, the left ascent set.  Multiplication by H_s, the bar
involution and the KL basis are the Gelfand engine's column action, bar
recursion and canonical-basis recursion on that table, so the check that KL
cells are RS fibers exercises the same engine as the Gelfand W-graphs.  An
element of the algebra is a column of that table: a dict from the index of w
in `_regular(n).words` to the LaurentPoly coefficient of H_w.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _permutations

from .gelfand import ASC_LT, DES_LT, ModuleTable
from .perm import Permutation


def _one_line(w) -> tuple:
    """The one-line word of a Permutation or of a sequence of values."""
    return w.word if isinstance(w, Permutation) else tuple(w)


def _s_mul_word(i: int, word):
    """One-line word of s_i * w (swap the values i and i+1)."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in word)


def _left_ascent(word, i: int) -> bool:
    """True iff l(s_i w) > l(w), i.e. i appears before i+1 in the word."""
    return word.index(i) < word.index(i + 1)


@lru_cache(maxsize=None)
def _regular(n: int) -> ModuleTable:
    """The regular representation of H(S_n) as an engine table."""
    return ModuleTable(
        n,
        _permutations(range(1, n + 1)),
        lambda w, i: ASC_LT if _left_ascent(w, i) else DES_LT,
        lambda w, i: _s_mul_word(i, w),
    )


def reduced_word(w) -> tuple:
    """The lexicographically least reduced word of w."""
    word = _one_line(w)
    letters = []
    while True:
        for i in range(1, len(word)):
            if word.index(i) > word.index(i + 1):  # left descent
                letters.append(i)
                word = _s_mul_word(i, word)
                break
        else:
            return tuple(letters)


def h_bar(n: int, col: dict) -> dict:
    """
    The bar involution on a column of `_regular(n)`.  Kept under the name
    perfbench/tracer.py wraps until its span list drops it (ROADMAP item 2).
    """
    return _regular(n).bar_col(col)


def kl_table(n: int):
    """
    Kazhdan-Lusztig coefficient columns and mu values for S_n.

    Returns (words, columns, mu) where columns[w][y] is the coefficient of
    H_y in the KL basis element of w and mu[y, w] is its x^-1 coefficient:
    the canonical basis of the regular representation, re-keyed by words.
    """
    table = _regular(n)
    words = table.words
    columns = {
        words[z]: {words[y]: c for y, c in col.items()}
        for z, col in enumerate(table.canonical_columns())
    }
    mu = {
        (words[y], words[z]): m for z, col in enumerate(table.mu_columns()) for y, m in col.items()
    }
    return list(words), columns, mu


def asc_right(word) -> frozenset:
    # l(w s_i) > l(w) iff the values at positions i, i+1 increase
    return frozenset(i for i in range(1, len(word)) if word[i - 1] < word[i])


def kl_wgraph(n: int, side: str, reduced: bool = True):
    """The left or right Kazhdan-Lusztig W-graph of S_n."""
    from .wgraph import WGraph, symmetrize_mu

    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    table = _regular(n)
    tau = table.tau if side == "left" else [asc_right(w) for w in table.words]
    return WGraph(
        n=n,
        variant=f"kl_{side}",
        reduced=reduced,
        vertices=table.words,
        tau=tau,
        omega=symmetrize_mu(table.mu_columns(), tau if reduced else None),
    )


def kl_cells(n: int, side: str):
    """Cells of the left/right KL graph, as lists of one-line words."""
    from .wgraph import cells

    g = kl_wgraph(n, side, reduced=True)
    parts, _ = cells(g)
    return [[g.vertices[v] for v in part] for part in parts]
