"""
Permutations and involutions of [n] = {1, ..., n} in one-line notation.

Words are 1-based everywhere: a Permutation w maps i to w(i) = word[i-1].
All values are immutable; operations return new objects.
"""

from __future__ import annotations

import re
from bisect import bisect_left


def word_length(word) -> int:
    """Number of inversions of a one-line word, counted right to left by bisection."""
    seen, count = [], 0
    for a in reversed(word):
        k = bisect_left(seen, a)
        count += k
        seen.insert(k, a)
    return count


def word_inverse(word):
    n = len(word)
    inv = [0] * n
    for i, v in enumerate(word):
        inv[v - 1] = i + 1
    return tuple(inv)


def word_conj_s(word, i: int):
    """Conjugate a one-line word by the simple transposition (i, i+1)."""
    if not 1 <= i <= len(word) - 1:
        raise ValueError(f"index {i} out of range for n={len(word)}")
    w = list(word)
    w[i - 1], w[i] = w[i], w[i - 1]
    a, b = w.index(i), w.index(i + 1)
    w[a], w[b] = i + 1, i
    return tuple(w)


def _s_mul_word(i: int, word):
    """One-line word of s_i * w (swap the values i and i+1)."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in word)


def reduced_word(w) -> tuple:
    """The lexicographically least reduced word of w, a Permutation or a sequence of values."""
    word = w.word if isinstance(w, Permutation) else tuple(w)
    letters = []
    while True:
        for i in range(1, len(word)):
            if word.index(i) > word.index(i + 1):  # left descent
                letters.append(i)
                word = _s_mul_word(i, word)
                break
        else:
            return tuple(letters)


def cycle_type(word) -> list:
    """The cycle lengths of a one-line word, in order of their least elements."""
    seen = [False] * len(word)
    out = []
    for start in range(len(word)):
        size, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = word[j] - 1
            size += 1
        if size:
            out.append(size)
    return out


class Permutation:
    """
    A permutation of [n], stored as a tuple in one-line notation.
    validate=False skips the checks of the word: every entry an int (not a
    bool, not a float equal to one), and their sort is 1..n.
    """

    __slots__ = ("word",)

    def __init__(self, word, validate: bool = True):
        word = tuple(word)
        if validate:
            if list(map(type, word)).count(int) != len(word):
                raise ValueError(f"{word} has an entry that is not an int")
            if sorted(word) != list(range(1, len(word) + 1)):
                raise ValueError(f"{word} is not a permutation of [1..{len(word)}]")
        self.word = word

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        w = list(range(1, n + 1))
        w[a - 1], w[b - 1] = b, a
        return cls(w)

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # composition: (self * other)(i) = self(other(i))
        return Permutation(self.word[v - 1] for v in other.word)

    def inverse(self) -> "Permutation":
        return Permutation(word_inverse(self.word))

    def length(self) -> int:
        return word_length(self.word)

    def is_involution(self) -> bool:
        return word_inverse(self.word) == self.word

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"Permutation({list(self.word)})"


class Involution(Permutation):
    """
    A self-inverse permutation.  It equals only an Involution.  A raw word is
    checked as a Permutation's is; a Permutation or an Involution already
    holds a checked word, so only the involution check runs on it.
    validate=False trusts a caller that has built the word as a product of
    disjoint transpositions, as the peel of an inverse Beissinger map does,
    and skips the sort and the inversion.
    """

    __slots__ = ()

    def __init__(self, word, validate: bool = True):
        if isinstance(word, Permutation):
            self.word = word.word
        else:
            super().__init__(word, validate)
        if validate and not self.is_involution():
            raise ValueError(f"{list(self.word)} is not an involution")

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Involution":
        """Build from disjoint 2-cycles (a, b); unmentioned points are fixed."""
        w = list(range(1, n + 1))
        seen = set()
        for a, b in cycles:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"cycle ({a},{b}) out of range for n={n}")
            if a in seen or b in seen or (a != b and (w[a - 1] != a or w[b - 1] != b)):
                raise ValueError(f"cycles are not disjoint at ({a},{b})")
            seen.update((a, b))
            w[a - 1], w[b - 1] = b, a
        return cls(w)

    def fixed_points(self):
        return tuple(i for i, v in enumerate(self.word, 1) if v == i)

    def cycle_string(self) -> str:
        """Two-cycles sorted by smaller element, e.g. '(1,4)(2,3)' ('()' for the identity)."""
        parts = [f"({a},{b})" for a, b in sorted(cycles_sorted(self)) if a != b]
        return "".join(parts) if parts else "()"

    def __eq__(self, other):
        return isinstance(other, Involution) and self.word == other.word

    __hash__ = Permutation.__hash__

    def __repr__(self):
        return f"Involution({list(self.word)})"


def length(w: Permutation) -> int:
    return word_length(w.word)


def conj_by_s(w, i: int):
    """
    s_i * w * s_i for the simple transposition s_i = (i, i+1).  The conjugate
    of an involution w differs from w at most at i, i+1, w(i) and w(i+1), and
    only those points can break w * w = id, so only they are checked
    (`_conjugate_involution`); a permutation gets the full check.
    """
    if isinstance(w, Involution):
        return _conjugate_involution(w, word_conj_s(w.word, i), i, i + 1)
    return Permutation(word_conj_s(w.word, i))


def _conjugate_involution(y: Involution, word, a: int, b: int) -> Involution:
    """
    The involution with one-line word `word`, which the caller has formed as
    t * y * t for the transposition t = (a, b), checked where it can fail.

    t * y * t can differ from y only at the points D = {a, b, y(a), y(b)}:
    for j outside D, t(j) = j and y(j) is neither a nor b.  The callers
    change y's word only there.  y maps D onto D, so for j outside D,
    word(j) = y(j) is outside D too and word(word(j)) = y(y(j)) = j.  So
    word * word = id, which also makes word a permutation of [n], exactly
    when word(word(j)) = j for the at most four j in D.  If that fails,
    Involution(word) runs the full check and raises its own
    ValueError.
    """
    n = len(word)
    for j in (a, b, y.word[a - 1], y.word[b - 1]):
        k = word[j - 1]
        if not 0 < k <= n or word[k - 1] != j:
            return Involution(word)
    return Involution(word, False)


def cycles_sorted(y: Involution):
    """All pairs (a, b) with a <= b = y(a), sorted by increasing b; fixed points as (a, a)."""
    return [(a, b) for b, a in enumerate(y.word, 1) if a <= b]


def _knuth_window(word, i: int):
    """Apply a Knuth move to the window at positions i-1, i, i+1 (1-based)."""
    a, b, c = word[i - 2], word[i - 1], word[i]
    lo, mid, hi = sorted((a, b, c))
    if (a, b, c) in ((lo, mid, hi), (hi, mid, lo)):
        return tuple(word)
    # the window matches acb/cab or bca/bac: swap the smallest and largest letters
    w = list(word)
    p, q = w.index(lo, i - 2, i + 1), w.index(hi, i - 2, i + 1)
    w[p], w[q] = hi, lo
    return tuple(w)


def knuth_move(v: Permutation, i: int, dual: bool = False) -> Permutation:
    """
    The Knuth move at position i (1 < i < n), or v itself on a monotone window.

    With dual=True this is the dual Knuth move, acting through the inverse:
    the result is (knuth_move(v**-1, i))**-1.
    """
    if not 1 < i < v.n:
        raise ValueError(f"index {i} out of range for a Knuth move on S_{v.n}")
    if dual:
        return Permutation(word_inverse(_knuth_window(word_inverse(v.word), i)))
    return Permutation(_knuth_window(v.word, i))


def involution_words(n: int):
    """Yield one-line words of I_n in lexicographic order."""
    word = [0] * n

    def rec(free):
        if not free:
            yield tuple(word)
            return
        # the smallest free point stays fixed, or pairs with each larger free
        # point in increasing order; positions below it are already set, so
        # this branch order is lexicographic on the one-line word
        i, rest = free[0], free[1:]
        word[i - 1] = i
        yield from rec(rest)
        for k, j in enumerate(rest):
            word[i - 1], word[j - 1] = j, i
            yield from rec(rest[:k] + rest[k + 1:])

    yield from rec(tuple(range(1, n + 1)))


def involution_count(n: int) -> int:
    """|I_n|, by the recurrence |I_n| = |I_{n-1}| + (n-1)·|I_{n-2}|."""
    a, b = 1, 1  # |I_0|, |I_1|
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def enumerate_involutions(n: int):
    """Yield every element of I_n exactly once, lexicographically by one-line word."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for w in involution_words(n):
        yield Involution(w)


def conj_compare(z: Involution, i: int) -> str:
    """
    Compare z with s_i z s_i in Bruhat order: 'equal' when they coincide,
    else 'higher' when z(i) < z(i+1) (the conjugate covers z), else 'lower'.
    """
    if not 1 <= i <= z.n - 1:
        raise ValueError(f"index {i} out of range for n={z.n}")
    return ("lower", "equal", "higher")[word_conj_compare(z.word, i) + 1]


def word_conj_compare(word, i: int) -> int:
    """conj_compare on a bare one-line word, unchecked: +1 higher, 0 equal, -1 lower."""
    zi, zi1 = word[i - 1], word[i]
    if (zi == i and zi1 == i + 1) or (zi == i + 1 and zi1 == i):
        return 0
    return 1 if zi < zi1 else -1


_CYCLE_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_involution(text: str, n: int | None = None) -> Involution:
    """
    Parse an involution from one-line notation ("4231" or "4,2,3,1") or
    cycle notation ("(1,4)(2,3)"); cycle notation needs n to be given.
    """
    text = text.strip()
    if text.startswith("("):
        cycles = [(int(a), int(b)) for a, b in _CYCLE_RE.findall(text)]
        covered = _CYCLE_RE.sub("", text).replace("()", "").strip()
        if covered:
            raise ValueError(f"cannot parse cycle notation {text!r}")
        if n is None:
            raise ValueError("cycle notation requires the degree n")
        return Involution.from_cycles(n, cycles)
    if "," in text or " " in text:
        word = [int(tok) for tok in re.split(r"[,\s]+", text) if tok]
    else:
        word = [int(ch) for ch in text]
    if n is not None and len(word) != n:
        raise ValueError(f"one-line word {text!r} has length {len(word)}, expected {n}")
    return Involution(word)
