"""
The Iwahori-Hecke algebra of S_n over Z[x, x^-1].

Standard basis {H_w}, with H_s H_w = H_{sw} when the product is longer and
H_{sw} + (x - x^-1) H_w otherwise; the bar involution fixes each H_s up to
the correction -(x - x^-1) and inverts x.  The Kazhdan-Lusztig basis element
for w is the unique bar-invariant element lying in H_w plus an
x^-1 Z[x^-1]-combination of shorter basis elements.

This module has no recursion of its own.  The regular representation is a
gelfand.ModuleTable with no weak positions: words sorted by (length, word),
each generator a strict left ascent or descent, H_s moving w to s*w, and tau
the left ascent set.  Multiplication by H_s, the bar involution and the KL
basis are the Gelfand engine's column action, bar recursion and
canonical-basis recursion on that table, so the check that KL cells are RS
fibers exercises the same engine as the Gelfand W-graphs.  HeckeElement is
the engine's one sparse element type (gelfand._TableElement), as
ModuleElement is for the Gelfand models, keyed by one-line words.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _permutations

from .gelfand import ASC_LT, DES_LT, ModuleTable, _TableElement
from .laurent import ONE, LaurentPoly
from .perm import Permutation

DEFAULT_MAX_N = 6


def _one_line(w) -> tuple:
    """The one-line word of a Permutation or of a sequence of values."""
    return w.word if isinstance(w, Permutation) else tuple(w)


class HeckeElement(_TableElement):
    """A finite Z[x,x^-1]-combination of standard basis elements H_w."""

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__({_one_line(w): c for w, c in (terms or {}).items()})

    @classmethod
    def basis(cls, w) -> "HeckeElement":
        return cls({w: ONE})

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls.basis(tuple(range(1, n + 1)))

    def coeff(self, w) -> LaurentPoly:
        return self.terms.get(_one_line(w), LaurentPoly())

    def _table(self) -> ModuleTable:
        table = _regular(len(next(iter(self.terms))))
        for w in self.terms:
            if w not in table.index:
                raise ValueError(f"{w} is not a permutation of [1..{table.n}]")
        return table

    def _word(self, w) -> tuple:
        return w

    def _new(self, terms: dict, other: "HeckeElement") -> "HeckeElement":
        return HeckeElement(terms)

    def _label(self, w) -> str:
        return f"H{list(w)}"


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
        asc_left,
    )


def h_s_mul(i: int, h: HeckeElement) -> HeckeElement:
    """Left multiplication by H_{s_i}."""
    return h._apply("h_col", i)


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


def h_bar(h: HeckeElement) -> HeckeElement:
    """The bar involution, extended bar-semilinearly from the basis."""
    return h._apply("bar_col")


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


def kl_basis(n: int, max_n: int = DEFAULT_MAX_N):
    """The KL basis of H(S_n) as a map from words to HeckeElements."""
    if n > max_n:
        raise ValueError(f"n={n} exceeds the bound {max_n}; pass max_n to override")
    _, columns, _ = kl_table(n)
    return {w: HeckeElement(col) for w, col in columns.items()}


def asc_left(word) -> frozenset:
    return frozenset(i for i in range(1, len(word)) if _left_ascent(word, i))


def asc_right(word) -> frozenset:
    # l(w s_i) > l(w) iff the values at positions i, i+1 increase
    return frozenset(i for i in range(1, len(word)) if word[i - 1] < word[i])


def kl_wgraph(n: int, side: str, reduced: bool = True, max_n: int = DEFAULT_MAX_N):
    """The left or right Kazhdan-Lusztig W-graph of S_n."""
    from .wgraph import WGraph, symmetrize_mu

    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the bound {max_n}; pass max_n to override")
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


def kl_cells(n: int, side: str, max_n: int = DEFAULT_MAX_N):
    """Cells of the left/right KL graph, as lists of one-line words."""
    from .wgraph import cells

    g = kl_wgraph(n, side, reduced=True, max_n=max_n)
    parts, _ = cells(g)
    return [[g.vertices[v] for v in part] for part in parts]
