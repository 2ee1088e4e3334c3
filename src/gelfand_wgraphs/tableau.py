"""
Partially standard Young tableaux and Schensted insertion.

A tableau is stored row-major (top row first) as a tuple of tuples of
distinct positive integers; rows and columns strictly increase and row
lengths weakly decrease.  "Partially standard" means exactly that; a
standard tableau additionally uses the entries 1..n.

Rows and columns are 1-based throughout, matching one-line notation for
permutations.  The Schensted kernels `bump` and `unbump` work in place on
plain lists of rows; `rs_insert`, `rs_uninsert`, `pq_rs` and the Beissinger
maps are built on them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .perm import Permutation


class Tableau:
    """
    A tableau is immutable once built.  `_checked` records that its rows are
    known to be partially standard: the constructor's full check passed, or
    `dual_equiv` moved a checked tableau and its local re-check of the moved
    cells passed (`_of_checked`), which is as strong (see `_swap`).  So
    `is_partially_standard` and `is_standard` need not repeat the check;
    tableaux from `filling`, from `validate=False` and from `transpose` are
    unchecked and get the full check there.
    """

    __slots__ = ("rows", "_checked")

    def __init__(self, rows=(), validate: bool = True):
        rows = tuple(map(tuple, rows))
        if validate:
            _validate(rows, increase=True)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_checked", validate)

    @classmethod
    def _of_checked(cls, rows) -> "Tableau":
        """A checked tableau on rows, a tuple of tuples proved partially standard by the caller."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        object.__setattr__(t, "_checked", True)
        return t

    def __setattr__(self, name, value):
        raise AttributeError(f"Tableau is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Tableau is immutable; cannot delete {name!r}")

    @classmethod
    def filling(cls, rows) -> "Tableau":
        """
        A filling of a partition shape by distinct positive integers that
        need not increase along rows or columns.  Beissinger insertion of an
        arbitrary pair can produce such fillings; the involution-to-tableau
        maps never do.
        """
        t = cls(rows, validate=False)
        _validate(t.rows, increase=False)
        return t

    def is_partially_standard(self) -> bool:
        if self._checked:
            return True
        try:
            _validate(self.rows, increase=True)
        except ValueError:
            return False
        return True

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(map(len, self.rows))

    def entries(self):
        return {v for row in self.rows for v in row}

    def entry(self, r: int, c: int) -> int:
        return self.rows[r - 1][c - 1]

    def is_standard(self) -> bool:
        """
        Entries 1..n, increasing along rows and columns.  Once the increase
        check has passed, the entries are distinct positive integers and
        each row's largest entry ends it, so they are 1..n exactly when the
        largest row end is the size.
        """
        if not self.is_partially_standard():
            return False
        return not self.rows or max(r[-1] for r in self.rows) == self.size

    def corners(self):
        """Removable cells: (r, c) at the end of a row that is longer than the next."""
        sh = self.shape
        return [
            (r, sh[r - 1])
            for r in range(1, len(sh) + 1)
            if r == len(sh) or sh[r] < sh[r - 1]
        ]

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        if not self.rows:
            return "Tableau([])"
        return "Tableau(" + str([list(r) for r in self.rows]) + ")"


def _validate(rows, increase: bool):
    seen = set()
    for r, row in enumerate(rows):
        if not row:
            raise ValueError("empty rows are not allowed")
        if r and len(row) > len(rows[r - 1]):
            raise ValueError(f"row lengths must weakly decrease, got {[len(x) for x in rows]}")
        for c, v in enumerate(row):
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"entries must be positive integers, got {v!r}")
            if v in seen:
                raise ValueError(f"duplicate entry {v}")
            seen.add(v)
            if increase and c and v <= row[c - 1]:
                raise ValueError(f"row {r + 1} is not strictly increasing: {list(row)}")
            if increase and r and v <= rows[r - 1][c]:
                raise ValueError(f"column {c + 1} is not strictly increasing")


EMPTY = Tableau()


@dataclass(frozen=True)
class BumpingPath:
    """
    The cells changed by a Schensted insertion, one per row 1..k, plus the
    values pushed into each row.  Columns weakly decrease down the path and
    the inserted values strictly increase.
    """

    cells: tuple
    inserted_values: tuple

    def col(self, j: int) -> int:
        return self.cells[j - 1][1]


def bump(rows, x, path=None):
    """
    Row-bump x into rows, a list of lists changed in place, and return the
    (row, col) of the new box.  x displaces the first entry of row 1 greater
    than it, which moves on to row 2, and so on.  If path is a list, one
    ((row, col), value) is appended to it for every row the insertion enters.
    """
    for r, row in enumerate(rows, 1):
        j = bisect_right(row, x)
        if path is not None:
            path.append(((r, j + 1), x))
        if j == len(row):
            row.append(x)
            return r, j + 1
        x, row[j] = row[j], x
    rows.append([x])
    if path is not None:
        path.append(((len(rows), 1), x))
    return len(rows), 1


def unbump(rows, r: int, where=None) -> int:
    """
    The inverse of bump: remove the last box of row r (1-based), which must
    be a removable cell, bump its entry back up through the rows above, and
    return the value pushed out of row 1.  rows is changed in place.  If
    where is a list, where[v] is set to the new 0-based row of every value v
    that moves up into a row.
    """
    x = rows[r - 1].pop()
    if not rows[r - 1]:
        del rows[r - 1]
    for j in range(r - 2, -1, -1):
        row = rows[j]
        # rightmost entry smaller than the carried value gets bumped out
        k = bisect_right(row, x) - 1
        row[k], x = x, row[k]
        if where is not None:
            where[row[k]] = j
    return x


def rs_insert(T: Tableau, a: int):
    """
    Row-bumping insertion of a into T.  Returns the new tableau and the
    bumping path; a must be a positive integer not already in T.
    """
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"entries must be positive integers, got {a!r}")
    if a in T.entries():
        raise ValueError(f"{a} already occurs in the tableau")
    rows = [list(r) for r in T.rows]
    path = []
    bump(rows, a, path)
    cells, values = zip(*path)
    return Tableau(rows, validate=False), BumpingPath(cells, values)


def rs_uninsert(T: Tableau, corner):
    """
    Inverse Schensted insertion from a removable cell.  Returns (U, x) with
    rs_insert(U, x) recreating T and adding its new cell at `corner`.
    """
    if corner not in T.corners():
        raise ValueError(f"{corner} is not a removable cell of shape {T.shape}")
    rows = [list(row) for row in T.rows]
    x = unbump(rows, corner[0])
    return Tableau(rows, validate=False), x


def pq_rs(w):
    """The insertion and recording tableaux of a permutation (or word)."""
    word = w.word if isinstance(w, Permutation) else tuple(w)
    p_rows, q_rows = [], []
    for i, a in enumerate(word, 1):
        r, _ = bump(p_rows, a)
        if r > len(q_rows):
            q_rows.append([i])
        else:
            q_rows[r - 1].append(i)
    return Tableau(p_rows, validate=False), Tableau(q_rows, validate=False)


def reading_word(T: Tableau):
    """Row reading word: concatenate the rows, last row first."""
    out = []
    for row in reversed(T.rows):
        out.extend(row)
    return tuple(out)


def dual_equiv(T: Tableau, i: int) -> Tableau:
    """
    The elementary dual equivalence operator D_i.  Looking at the positions
    of i-1, i, i+1 in the reading word: if i is in the middle the tableau is
    unchanged; if i-1 is in the middle, i and i+1 trade places; if i+1 is in
    the middle, i-1 and i trade places.  The reading word takes the rows
    last first, so v comes before u in it when v's cell is lower, or in the
    same row and further left: one pass over the rows finds the three cells.

    The swap is checked by `_swap`: on a checked T only at the two moved
    cells, on an unchecked one in full.  On a standard tableau D_i always
    gives a standard tableau (Haiman, Dual equivalence with applications,
    Discrete Math. 99, 1992), so the check fires only on faulty code.
    """
    window = (i - 1, i, i + 1)
    cell = {}
    for r, row in enumerate(T.rows):
        for v in window:
            if v in row:
                cell[v] = (r, row.index(v))
        if len(cell) == 3:
            break
    for v in window:
        if v not in cell:
            raise ValueError(f"entry {v} is missing; D_{i} needs i-1, i, i+1 present")
    middle = sorted(window, key=lambda v: (-cell[v][0], cell[v][1]))[1]
    if middle == i:
        return T
    a, b = (i, i + 1) if middle == i - 1 else (i - 1, i)
    return _swap(T, cell[a], cell[b])


def _swap(T: Tableau, p, q) -> Tableau:
    """
    T with the entries in the 0-based cells p and q exchanged.

    An unchecked T goes through the full check of Tableau(rows).  A checked
    T is re-checked only where the swap can break it.  The swap keeps the
    shape and the set of entries, so the row lengths, the emptiness of rows
    and the entries' being distinct positive integers still hold; of the
    increase conditions, which compare neighbours in a row or a column, only
    those between a moved cell and one of its four neighbours have changed.
    If all of those hold, the rows are partially standard exactly as the
    full check would find, and the result is marked checked.  If one fails,
    the full check runs and raises its own ValueError, so the message is the
    one an unchecked swap gives.
    """
    rows = list(T.rows)
    (r, c), (s, d) = p, q
    x, y = rows[r][c], rows[s][d]
    rows[r] = rows[r][:c] + (y,) + rows[r][c + 1:]
    rows[s] = rows[s][:d] + (x,) + rows[s][d + 1:]
    if T._checked and _fits(rows, r, c) and _fits(rows, s, d):
        return Tableau._of_checked(tuple(rows))
    return Tableau(rows)


def _fits(rows, r: int, c: int) -> bool:
    """
    Whether the entry in cell (r, c) of partition-shaped rows is above its
    left and upper neighbours and below its right and lower ones.
    """
    row, v = rows[r], rows[r][c]
    if c and row[c - 1] >= v or c + 1 < len(row) and row[c + 1] <= v:
        return False
    if r and rows[r - 1][c] >= v:
        return False
    return r + 1 == len(rows) or c >= len(rows[r + 1]) or rows[r + 1][c] > v


def _transpose_rows(rows):
    """
    The columns of partition-shaped rows as new lists, the rows of the
    transpose: row 1 starts one list per column, and each later row is
    zipped onto the first columns, as many as it reaches.
    """
    cols = [[v] for v in rows[0]] if rows else []
    for row in rows[1:]:
        for col, v in zip(cols, row):
            col.append(v)
    return cols


def transpose(T: Tableau) -> Tableau:
    return Tableau(_transpose_rows(T.rows), validate=False)


def restrict(T: Tableau, keep) -> Tableau:
    """
    The tableau T|_X formed by omitting entries outside `keep`.  The kept
    cells must themselves form a top-left justified tableau.
    """
    keep = set(keep)
    rows = []
    for r, row in enumerate(T.rows, 1):
        kept = [v for v in row if v in keep]
        if len(kept) < len(row) and any(v in keep for v in row[len(kept):]):
            raise ValueError(f"kept entries of row {r} are not a prefix")
        if kept:
            if len(rows) < r - 1:
                raise ValueError("kept cells are not top-justified")
            rows.append(kept)
        elif any(v in keep for row2 in T.rows[r:] for v in row2):
            raise ValueError("kept cells are not top-justified")
    return Tableau(rows)


def standard_tableaux(n: int):
    """All standard tableaux with n cells, by growing one addable corner at a time."""
    if n == 0:
        yield EMPTY
        return
    for small in standard_tableaux(n - 1):
        sh = small.shape
        for r in range(len(sh)):
            if r == 0 or sh[r] < sh[r - 1]:
                rows = [list(x) for x in small.rows]
                rows[r].append(n)
                yield Tableau(rows, validate=False)
        yield Tableau([list(x) for x in small.rows] + [[n]], validate=False)


def odd_lines(T: Tableau, direction: str) -> int:
    """Number of odd rows or odd columns of the shape."""
    sh = T.shape
    if direction == "rows":
        return sum(1 for p in sh if p % 2)
    if direction == "columns":
        ncols = sh[0] if sh else 0
        return sum(1 for c in range(1, ncols + 1) if sum(1 for p in sh if p >= c) % 2)
    raise ValueError(f"direction must be 'rows' or 'columns', got {direction!r}")
