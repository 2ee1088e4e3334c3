"""
Row and column Beissinger insertion and the bijections they define between
involutions and standard Young tableaux.

Both operations insert a pair (a, b) with a <= b into a partially standard
tableau.  A fixed point (b, b) is appended directly: to the end of row 1
(row variant) or column 1 (column variant).  For a < b, first a is
Schensted-inserted; if that adds a box in row i (column j), then b is
appended to the end of row i+1 (column j+1).

Inserting the cycles of an involution in increasing order of their larger
elements keeps every intermediate tableau partially standard, giving the
maps p_rbs and p_cbs; both are bijections I_n -> SYT(n), and composing one
with the transpose of the other yields the permutation psi of I_n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perm import (
    Involution,
    _conjugate_involution,
    conj_by_s,
    enumerate_involutions,
    involution_count,
)
from .tableau import Tableau, _transpose_rows, bump, transpose, unbump


def _insert_pair(rows, a: int, b: int, row: bool):
    """
    Insert the pair (a, b), a <= b, into a list of rows in place.

    For a < b, a is row-bumped into a new box (r, c); a fixed point counts
    as a new box at (0, 0).  Then b goes at the end of row r+1 if `row`,
    else at the end of column c+1.

    The column target is the first row that does not reach column c+1, and
    it is found by a scan up from row r.  The input rows have a partition
    shape (the p-maps keep one; `Tableau.filling` checks one) and the bump
    only lengthened row r, to c.  So the rows longer than c are a prefix of
    the rows above r, and every row from the end of that prefix down to r
    has length <= c.  The scan must accept every length <= c: on a filling,
    the row above the new box can be shorter than c.  For a fixed point the
    target is past the last row.
    """
    r, c = bump(rows, a) if a < b else (0, 0)
    if row:
        target = r
    else:
        target = r - 1 if r else len(rows)
        while target and len(rows[target - 1]) <= c:
            target -= 1
        if (len(rows[target]) if target < len(rows) else 0) != c:
            raise ValueError(f"appending to column {c + 1} would not give a tableau")
    if target < len(rows):
        rows[target].append(b)
    else:
        rows.append([b])


def _insert(T: Tableau, a: int, b: int, row: bool) -> Tableau:
    if a > b:
        raise ValueError(f"need a <= b, got ({a},{b})")
    entries = T.entries()
    if a in entries or b in entries:
        raise ValueError(f"pair ({a},{b}) collides with existing entries")
    rows = [list(r) for r in T.rows]
    _insert_pair(rows, a, b, row)
    return Tableau.filling(rows)


def rbs_insert(T: Tableau, a: int, b: int) -> Tableau:
    """
    Row Beissinger insertion of the pair (a, b), a <= b.

    Inserting an arbitrary pair can break the increase conditions (the
    appended b may sit below or after a larger entry), so the result is
    returned as a filling; along the p_rbs insertion order it is always
    partially standard.
    """
    return _insert(T, a, b, True)


def cbs_insert(T: Tableau, a: int, b: int, variant: str = "standard") -> Tableau:
    """
    Column Beissinger insertion of (a, b), a <= b.

    The standard variant row-inserts a and appends b below the next column.
    The transposed variant is the standard one conjugated by transpose; on a
    partially standard T that column-inserts a and appends b to the next
    row, and on a filling it is defined as the conjugate.
    """
    if variant == "standard":
        return _insert(T, a, b, False)
    if variant == "transposed":
        return transpose(_insert(transpose(T), a, b, False))
    raise ValueError(f"variant must be 'standard' or 'transposed', got {variant!r}")


def _p_map(word, row: bool, n: int) -> Tableau:
    """
    Insert the cycles (a, b), a <= b, of the involution with one-line word
    `word` by increasing b into one list of rows, keeping the entries <= n:
    a pair with b <= n goes in whole, one with a <= n < b places only a, by
    a row bump, and one with a > n is skipped (gelfand.hat_p; the p-maps
    keep all).  Every step keeps the rows partially standard: each b
    exceeds every entry already placed, so appending it at the end of a row
    or column cannot break an increase condition, and row bumping keeps a
    partially standard tableau partially standard.  So the finished tableau
    is validated once, by Tableau(rows).  The rows keep a partition shape,
    so _insert_pair finds each column target by a local scan.
    """
    rows = []
    for b, a in enumerate(word, 1):
        if a > b:
            continue
        if b <= n:
            _insert_pair(rows, a, b, row)
        elif a <= n:
            bump(rows, a)
    return Tableau(rows)


def p_rbs(y: Involution) -> Tableau:
    """Insert the cycles of y by increasing larger element, row variant."""
    return _p_map(y.word, True, y.n)


def p_cbs(y: Involution) -> Tableau:
    """Insert the cycles of y by increasing larger element, column variant."""
    return _p_map(y.word, False, y.n)


def _peel(rows, row: bool) -> Involution:
    """
    The unique involution y with p_rbs(y) = T (row) or p_cbs(y) = T (column),
    given the rows of a standard tableau T as lists, which it consumes.

    Peel off b = n, n-1, ..., 1 in turn, skipping the partners already
    unbumped.  Each b is the largest entry left in a partially standard
    tableau, so it sits at a corner: it ends its row and no row below
    reaches its column.  In row 1 (row) or column 1 (column) it records a
    fixed point; otherwise an inverse Schensted insertion from the end of
    the row above it (row) or from the bottom of the column to its left
    (column) outputs the partner a of b.

    Every cell is found in O(1).  where[v] is the row index of v: it is
    filled once, and unbump updates it for each value that moves up a row.
    In the column variant height[c] is the length of column c, decremented
    on every pop, so the column to the left of b, column c, ends in row
    height[c].  Those indices never shift, because a row is deleted only
    when it is the last row.  A row empties only when its last cell, in
    column 1, is popped, and that cell is a corner, so no row below it
    reaches column 1:
      - b's row, when b is in column 1;
      - in the row variant, the row above b's row, when it has length 1;
        then b's row had no room left of b, so b was in column 1 and b's
        row was already deleted as the last row;
      - in the column variant, row height[1], the last row.

    The word starts as the identity and only ever swaps b with a while both
    are fixed: b is checked at the top of the loop and a before the swap.
    So it stays a product of disjoint transpositions, and the Involution is
    built without sorting or inverting it; an unbump that returns a value
    already paired raises RuntimeError instead.
    """
    n = sum(map(len, rows))
    word = list(range(1, n + 1))
    where = [0] * (n + 1)
    for r, cells in enumerate(rows):
        for v in cells:
            where[v] = r
    if not row and rows:
        height = [0] * (len(rows[0]) + 1)
        for cells in rows:
            height[len(cells)] += 1
        for c in range(len(height) - 2, 0, -1):
            height[c] += height[c + 1]
    for b in range(n, 0, -1):
        if word[b - 1] != b:  # b was unbumped as the partner of a larger entry
            continue
        r = where[b]
        cells = rows[r]
        cells.pop()
        c = len(cells)
        if not c:
            del rows[r]
        if row:
            if not r:  # a fixed point
                continue
            start = r
        else:
            height[c + 1] -= 1
            if not c:  # a fixed point
                continue
            start = height[c]
            height[c] -= 1
        a = unbump(rows, start, where)
        if word[a - 1] != a:
            raise RuntimeError(f"peeling {b}: the unbump returned {a}, which is already paired")
        word[a - 1], word[b - 1] = b, a
    return Involution(word, validate=False)


def _standard_rows(T: Tableau):
    if not T.is_standard():
        raise ValueError("input must be a standard tableau")
    return list(map(list, T.rows))


def p_cbs_inverse(T: Tableau) -> Involution:
    """The unique involution y with p_cbs(y) = T, for standard T."""
    return _peel(_standard_rows(T), False)


def p_rbs_inverse(T: Tableau) -> Involution:
    """The unique involution y with p_rbs(y) = T, for standard T."""
    return _peel(_standard_rows(T), True)


def psi(y: Involution) -> Involution:
    """
    The involution z with p_rbs(y) equal to the transpose of p_cbs(z).  p_rbs
    has validated its tableau, and a transpose of a standard tableau is
    standard, so the peel needs no second check.  Its rows are transposed
    straight into the peel's row lists; no second Tableau is built.
    """
    return _peel(_transpose_rows(p_rbs(y).rows), False)


def psi_orbit(y: Involution):
    """
    The forward psi-orbit of y, starting at y, as a list.  psi permutes I_n,
    so the orbit returns to y within |I_n| steps; a RuntimeError after that
    many reports a faulty kernel instead of looping forever.
    """
    bound = involution_count(y.n)
    orbit = [y]
    z = psi(y)
    while z != y:
        if len(orbit) == bound:
            raise RuntimeError(
                f"psi orbit of {list(y.word)} does not return within |I_{y.n}| = {bound} steps"
            )
        orbit.append(z)
        z = psi(z)
    return orbit


@dataclass(frozen=True)
class PsiStats:
    longest_cycle: int
    fixed_points: tuple
    cycle_sizes: tuple  # sorted multiset of orbit sizes


def psi_cycle_stats(n: int) -> PsiStats:
    """Cycle structure of psi acting on I_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seen = set()
    sizes = []
    fixed = []
    for y in enumerate_involutions(n):
        if y.word in seen:
            continue
        orbit = psi_orbit(y)
        seen.update(z.word for z in orbit)
        sizes.append(len(orbit))
        if len(orbit) == 1:
            fixed.append(y)
    return PsiStats(max(sizes), tuple(fixed), tuple(sorted(sizes)))


def _between(m: int, a: int, b: int) -> bool:
    return a < m < b or b < m < a


def _conj_by_transposition(y: Involution, a: int, b: int) -> Involution:
    """
    t * y * t for the transposition t = (a, b), formed on y's word: swap the
    entries at positions a and b, then the values a and b.  After the first
    swap the value a sits at position t(y(a)), and b at t(y(b)).  The result
    differs from y at most at a, b, y(a) and y(b), and only those points can
    break z * z = id, so only they are checked (`perm._conjugate_involution`).
    """
    word = list(y.word)
    word[a - 1], word[b - 1] = word[b - 1], word[a - 1]
    t = {a: b, b: a}
    ya, yb = y(a), y(b)
    word[t.get(ya, ya) - 1], word[t.get(yb, yb) - 1] = b, a
    return _conjugate_involution(y, tuple(word), a, b)


def simrbs_partner(y: Involution, i: int) -> Involution:
    """
    The unique involution z whose row Beissinger tableau is D_i of y's.

    Keyed on whether y permutes A = {i-1, i, i+1} and on which of the three
    images y(i-1), y(i), y(i+1) lies between the other two.
    """
    if not 1 < i < y.n:
        raise ValueError(f"need 1 < i < n, got i={i}, n={y.n}")
    lo, mid, hi = y(i - 1), y(i), y(i + 1)
    if {lo, mid, hi} == {i - 1, i, i + 1}:
        return _conj_by_transposition(y, i - 1, i + 1)
    if _between(mid, lo, hi):
        return y
    if _between(hi, lo, mid):
        return conj_by_s(y, i - 1)
    return conj_by_s(y, i)


def simcbs_partner(y: Involution, i: int) -> Involution:
    """
    The unique involution z whose column Beissinger tableau is D_i of y's.

    Works through adjusted values e(j) for j in {i-1, i, i+1}: y(j) when that
    lands outside the window, -j at a fixed point, and j when y pairs j with
    another window element.  Whichever e lies between the other two picks the
    case, exactly as in the row formula.
    """
    if not 1 < i < y.n:
        raise ValueError(f"need 1 < i < n, got i={i}, n={y.n}")
    window = (i - 1, i, i + 1)

    def e(j):
        v = y(j)
        if v not in window:
            return v
        return -j if v == j else j

    e0, e1, e2 = e(i - 1), e(i), e(i + 1)
    if _between(e1, e0, e2):
        return y
    if _between(e2, e0, e1):
        return conj_by_s(y, i - 1)
    return conj_by_s(y, i)
