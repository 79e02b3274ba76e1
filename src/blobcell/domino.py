"""
Standard domino tableaux and the domino insertion bijection.

A signed permutation w = i_1 ... i_n is inserted letter by letter.  A
positive letter enters as a horizontal domino appended to the first row of
the sub-tableau of smaller labels; a negative letter as a vertical domino
appended to its first column.  Dominoes with larger labels are then re-placed
in increasing label order: a domino whose old position is now fully covered
by the shape of the (already re-placed) smaller labels is appended to the end
of the next row if horizontal, resp. the next column if vertical, while a
domino covered only in its first cell pivots around its free cell
(horizontal -> vertical one column right, vertical -> horizontal one row
down).

These bumping rules are pinned down by the calibration anchors encoded in the
tests: the identity inserts to a single row of horizontal dominoes, the
sign-change generator to a single vertical domino, the displayed two-row
preimage words produce two-row tableaux, and insertion is a bijection onto
shape-matched pairs with Q(w) = P(w^{-1}).

The working tableau is one row grid, grid[r] = the labels of row r from
left to right, beside the domino of each label.  While a letter goes in,
the new shape of the labels < k is their old one plus a two-cell hole, and
label k moves iff its old domino meets it, so `_step`, the one insertion
rule, walks the bumping path from hole to hole; `_unstep` walks it back
from the two cells Q added.  `domino_insert` and `domino_shape` walk letter
by letter on one window.  `p_numbers(n)`, which numbers the distinct P over
all of W_n for `knuth.knuth_classes`, walks once per window prefix in one
depth-first sweep and undoes each walk after its subtree: 6,330 walks for
the 3,840 windows of W_5, against 19,200 one window at a time.
`check_standard` adds the dominoes in label order, each addable to the
shape of the smaller labels, and keeps the lengths it verified.
`domino_reverse` raises ValueError unless P and Q are standard of one shape
and labelled 1..n.

Every tableau stores its (label, domino) entries, and `check_standard` its
verified lengths, through one module-level table, `_SHARED`, so an equal
entry or an equal shape is one object across all the tableaux the library
builds.  Tableaux come by the tens of thousands (P and Q for each window of
W_n) while their entries are few: unshared, a tableau of W_5 holds about
1.4 KB of private tuples, and P and Q for all of W_7 take 2.6 GB against
0.3 GB shared (CPython 3.11).  A new tableau takes the entries the table
already holds; only `check_standard` adds to it: the lengths of a tableau
it verified standard, and the entries of one that is also labelled 1..n.
So a refused input (from JSON, say) leaves nothing behind, and the table
stays small for every input: it only grows, and after verified tableaux
with at most n dominoes it holds entries (k, domino) with k <= n whose
cells (r, c) have (r + 1)(c + 1) <= 2k, since the labels <= k fill a
partition of 2k cells, and one lengths tuple per shape.  Sharing changes
no value: `dominoes`, `repr`, `==`, `hash`, pickling and JSON read the
same.

Cells are (row, col), 0-based internally, 1-based in JSON.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from . import weylb
from .weylb import InvariantViolation

__all__ = [
    "DominoTableau", "domino_insert", "domino_shape", "domino_reverse",
    "p_numbers", "ShapeMismatch",
]

Cell = tuple[int, int]
Domino = tuple[Cell, Cell]


_SHARED: dict = {}  # entry -> entry, lengths -> lengths; see the docstring


class ShapeMismatch(ValueError):
    """Raised when a tableau pair does not have matching shapes."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class DominoTableau:
    """
    A standard domino tableau: map label -> pair of adjacent cells.
    Read-only; two tableaux are equal when their `dominoes` are, and the
    hash is hash((dominoes,)).
    """

    __slots__ = ("dominoes", "_lengths")
    dominoes: tuple[tuple[int, Domino], ...]  # sorted by label

    def __init__(self, dominoes: tuple[tuple[int, Domino], ...]) -> None:
        get = _SHARED.get
        shared = [get(entry) for entry in dominoes]
        if None in shared:  # `_lengths` () asks check_standard to add them
            shared = [s or entry for s, entry in zip(shared, dominoes)]
            object.__setattr__(self, "_lengths", ())
        object.__setattr__(self, "dominoes", tuple(shared))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return DominoTableau, (self.dominoes,)

    def __repr__(self) -> str:
        return f"DominoTableau(dominoes={self.dominoes!r})"

    def __eq__(self, other):
        if other.__class__ is not DominoTableau:
            return NotImplemented
        return self.dominoes == other.dominoes

    def __hash__(self) -> int:
        return hash((self.dominoes,))

    @staticmethod
    def from_dict(d: dict[int, Domino]) -> "DominoTableau":
        return DominoTableau(tuple(sorted(
            (k, (a, b) if a <= b else (b, a)) for k, (a, b) in d.items())))

    def as_dict(self) -> dict[int, Domino]:
        return dict(self.dominoes)

    def labels(self) -> list[int]:
        return [k for k, _ in self.dominoes]

    def _label_at(self) -> dict[Cell, int]:
        label_at: dict[Cell, int] = {}
        for lab, (a, b) in self.dominoes:
            label_at[a] = lab
            label_at[b] = lab
        return label_at

    def shape(self) -> tuple[int, ...]:
        cell_rows = [r for _, dom in self.dominoes for r, _ in dom]
        return _shape_of([cell_rows.count(r)
                          for r in range(max(cell_rows, default=-1) + 1)])

    def check_standard(self) -> tuple[list[int], list[int]]:
        """
        Validate that the cells form a partition with labels increasing
        along rows and down columns: in label order, each domino must be
        addable to the shape of the smaller labels.  The error names the
        first violation in reading order.  Returns the row and column
        lengths of the shape, padded with zeros; a partition of 2k cells has
        fewer than 2k rows, so no index past 2k is read or written.  The
        lengths stay on the tableau once verified, and each call hands out
        fresh lists, so no tableau is walked twice.  A tableau that passes
        keeps the one shared lengths tuple of its shape, and if it is also
        labelled 1..n it gives the shared table the entries that __init__
        found missing (see the module docstring).
        """
        size = 2 * len(self.dominoes) + 2
        lengths = getattr(self, "_lengths", None)
        if lengths:
            return [*lengths[:size]], [*lengths[size:]]
        unshared = lengths is not None  # () from __init__: new entries
        rows, cols = [0] * size, [0] * size
        try:
            for _, ((r, c), (r2, c2)) in self.dominoes:
                if not (r2 == r and c2 == c + 1 and rows[r] == c
                        and (r == 0 or rows[r - 1] > c2)
                        or c2 == c and r2 == r + 1 and cols[c] == r
                        and (c == 0 or cols[c - 1] > r2)):
                    break
                rows[r] += 1
                rows[r2] += 1
                cols[c] += 1
                cols[c2] += 1
            else:
                share = _SHARED.setdefault
                lengths = (*rows, *cols)
                object.__setattr__(self, "_lengths", share(lengths, lengths))
                if unshared and self.labels() == list(
                        range(1, len(self.dominoes) + 1)):
                    object.__setattr__(self, "dominoes", tuple(
                        [share(entry, entry) for entry in self.dominoes]))
                return rows, cols
        except IndexError:
            pass
        label_at = self._label_at()
        self.shape()  # ValueError unless the row lengths form a partition
        for (r, c), lab in sorted(label_at.items()):
            if label_at.get((r, c + 1), lab) < lab:
                raise ValueError("labels not increasing along a row")
            if label_at.get((r + 1, c), lab) < lab:
                raise ValueError("labels not increasing down a column")
        raise ValueError("cells do not form a partition shape")

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape()),
            "dominoes": [
                [lab, [a[0] + 1, a[1] + 1], [b[0] + 1, b[1] + 1]]
                for lab, (a, b) in self.dominoes
            ],
        }

    @staticmethod
    def from_json(d: dict) -> "DominoTableau":
        """
        Read {"dominoes": [[label, [row, col], [row, col]], ...]} with
        1-based cells; raise ValueError unless every entry is an integer
        label with two adjacent cells and no label or cell repeats.
        """
        if not isinstance(d, dict) or not isinstance(d.get("dominoes"), list):
            raise ValueError('a tableau must be an object with a "dominoes" list')
        out: dict[int, Domino] = {}
        seen: set[Cell] = set()
        for entry in d["dominoes"]:
            try:
                lab, (r1, c1), (r2, c2) = entry
            except (TypeError, ValueError):
                raise ValueError(f"malformed domino entry {entry!r}") from None
            if not all(_is_int(x) for x in (lab, r1, c1, r2, c2)) or min(
                    r1, c1, r2, c2) < 1:
                raise ValueError(f"malformed domino entry {entry!r}")
            a, b = (r1 - 1, c1 - 1), (r2 - 1, c2 - 1)
            if abs(r1 - r2) + abs(c1 - c2) != 1:
                raise ValueError(f"domino {lab} has non-adjacent cells")
            if lab in out or a in seen or b in seen:
                raise ValueError(f"domino {lab} repeats a label or a cell")
            out[lab] = (a, b)
            seen.update((a, b))
        return DominoTableau.from_dict(out)

    def pretty(self) -> str:
        if not self.dominoes:
            return "(empty)"
        label_at = self._label_at()
        shape = self.shape()
        width = max(len(str(lab)) for lab, _ in self.dominoes)
        lines = []
        for r, rw in enumerate(shape):
            lines.append(
                " ".join(str(label_at[(r, c)]).rjust(width) for c in range(rw))
            )
        return "\n".join(lines)


def _shape_of(rows: list[int]) -> tuple[int, ...]:
    """The row lengths `rows` without trailing zeros; ValueError unless they
    are non-increasing, so that no empty row is left between them."""
    k = len(rows)
    while k and not rows[k - 1]:
        k -= 1
    if any(rows[i] < rows[i + 1] for i in range(k - 1)):
        raise ValueError("cells do not form a partition shape")
    return tuple(rows[:k])


def _below(grid: list[list[int]], c: int, k: int) -> int:
    """The number of labels < k in column c of the row grid `grid`, which
    holds them on top: a scan down the column, stopped by the empty row."""
    r = 0
    while c < len(grid[r]) and grid[r][c] < k:
        r += 1
    return r


def _put(grid: list[list[int]], cell: Cell, k: int) -> int:
    """Write label k at `cell` of the row grid; return the label it covers,
    0 if the cell lies just past the end of its row."""
    r, c = cell
    row = grid[r]
    if c < len(row):
        covered = row[c]
        if covered < k:
            raise InvariantViolation("bumping collision")
        row[c] = k
        return covered
    if c > len(row):
        raise InvariantViolation(
            "insertion must add two cells, each at the end of its row")
    row.append(k)
    return 0


def _step(grid: list[list[int]], pos: list, letter: int):
    """
    Insert one letter into the tableau held as the row grid `grid` (row r
    lists its labels from left to right; 2n + 1 rows, so the last stays
    empty) and `pos` (the domino of each label, None for one not inserted
    yet), both in place.  Returns the two cells added, sorted, and the
    moves [(label, its old domino)], the letter's label first with None.

    While the labels < k are re-placed, their new shape is their old one
    plus the hole, two adjacent cells a, b in one row or column with a
    first, each kept with the old label la, lb under it (0 for none).  The
    old labels increase along rows and columns and fill a partition, so
    la < lb, la = lb (one domino) or lb = 0; the cells left of and above a
    lie in the new shape of the labels < k, a partition, not in the hole,
    so they held labels < k.  So label la moves next, and its domino starts
    at a (else InvariantViolation).  If it ends at b, it is appended to the
    next row (column) of the labels < k; if not, it pivots: b stays in the
    hole, and (r + 1, c + 1), below or right of b, joins it.  The walk ends
    when both hole cells are empty: they are the cells added, (a, b).  Row
    r of the grid lists the new labels < k, then the old ones > k, so its
    length in the labels < k is a bisect, and a column's is a scan.
    """
    k = abs(letter)
    if letter > 0:
        c = bisect_left(grid[0], k)
        a, b = (0, c), (0, c + 1)
    else:
        r = _below(grid, 0, k)
        a, b = (r, 0), (r + 1, 0)
    pos[k], moved = (a, b), [(k, None)]
    la, lb = _put(grid, a, k), _put(grid, b, k)
    while la or lb:
        k, old = la, pos[la]
        moved.append((k, old))
        if not k or old[0] != a:
            raise InvariantViolation("partial cover must be the first cell")
        (r, c), second = old
        if second == b:  # fully covered: append to the next row or column
            if second[0] == r:
                c = bisect_left(grid[r + 1], k)
                a, b = (r + 1, c), (r + 1, c + 1)
            else:
                r = _below(grid, c + 1, k)
                a, b = (r, c + 1), (r + 1, c + 1)
            pos[k] = a, b
            la, lb = _put(grid, a, k), _put(grid, b, k)
        else:  # pivot around the free cell, which keeps label k
            a, la, b = b, lb, (r + 1, c + 1)
            pos[k] = second, b
            lb = _put(grid, b, k)
    return (a, b), moved


def _insert(w: weylb.SignedPermutation):
    """The row grid and the dominoes of P(w), and the cells added by step."""
    grid, pos = [[] for _ in range(2 * len(w) + 1)], [None] * (len(w) + 1)
    return grid, pos, [_step(grid, pos, letter)[0] for letter in w]


def p_numbers(n: int) -> dict[weylb.SignedPermutation, int]:
    """
    {w: the number of P(w)} for every window w of W_n, in increasing window
    order; P tableaux are numbered 0, 1, ... as they first appear.

    One depth-first sweep over the window prefixes on one row grid: each
    prefix is inserted once, by one `_step` walk in place, so the windows
    sharing a prefix share its insertion.  After the subtree the walk is
    undone, not copied: each moved label goes back to its old domino and
    the two cells added, which end their rows, come off.  Every P is
    checked standard.
    """
    letters = [(x, 1 << abs(x)) for x in (*range(-n, 0), *range(1, n + 1))]
    numbers: dict[DominoTableau, int] = {}
    out: dict[weylb.SignedPermutation, int] = {}
    grid, pos = [[] for _ in range(2 * n + 1)], [None] * (n + 1)

    def sweep(prefix, used):
        if len(prefix) == n:
            tp = DominoTableau(tuple(enumerate(pos))[1:])
            tp.check_standard()
            out[prefix] = numbers.setdefault(tp, len(numbers))
            return
        for letter, bit in letters:
            if not used & bit:
                added, moved = _step(grid, pos, letter)
                sweep(prefix + (letter,), used | bit)
                for k, old in moved:
                    pos[k] = old
                    if old:
                        (r, c), (r2, c2) = old
                        grid[r][c] = grid[r2][c2] = k
                for r, _ in added:
                    grid[r].pop()

    sweep((), 0)
    return out


def domino_insert(w: weylb.SignedPermutation) -> tuple[DominoTableau, DominoTableau]:
    """Insert the window of w, returning the pair (P(w), Q(w)); the recording
    tableau Q marks with label k the two cells added at step k."""
    _, pos, added = _insert(w)
    tp = DominoTableau(tuple(enumerate(pos))[1:])
    tq = DominoTableau(tuple(enumerate(added, start=1)))
    tp.check_standard()
    tq.check_standard()
    return tp, tq


def domino_shape(w: weylb.SignedPermutation) -> tuple[int, ...]:
    """The shape of P(w), read off the insertion without building Q."""
    return _shape_of([len(row) for row in _insert(w)[0]])


def _unbump(grid: list[list[int]], k: int, dom: Domino, hole: Domino):
    """
    The old domino of label k, now at `dom`: () for the letter's own
    domino, which fills the hole at the start of row 0 (column 0), else
    the domino removable from the pre-insertion shape mu of the labels
    <= k that the forward rule sends to dom, or None.  mu is the shape of
    the new labels <= k, which `grid` holds ahead of the old ones > k,
    less the two `hole` cells (sorted).  For a horizontal dom at (r, c),
    (r, c + 1) only two dominoes are sent there:
    - the end of row r - 1, appended when fully covered: the hole was that
      domino and is dom now.  It is removable iff row r - 1 of mu, its new
      labels <= k, reaches past column c + 1;
    - the vertical (r - 1, c), (r, c), which pivots, so (r, c + 1) is a
      hole cell.  It is removable iff mu lacks (r - 1, c + 1), which holds
      a label < k: iff that is the other hole cell.
    Transposed for a vertical dom.
    """
    (r, c), (r2, c2) = dom
    if hole == dom and not (r if r == r2 else c):
        return ()
    if r == r2:
        if hole == dom:
            e = bisect_right(grid[r - 1], k)
            return ((r - 1, e - 2), (r - 1, e - 1)) if e >= c + 2 else None
        return ((r - 1, c), dom[0]) if hole == ((r - 1, c2), dom[1]) else None
    if hole == dom:
        e = _below(grid, c - 1, k + 1)
        return ((e - 2, c - 1), (e - 1, c - 1)) if e >= r + 2 else None
    return ((r, c - 1), dom[0]) if hole == ((r2, c - 1), dom[1]) else None


def _restore(grid: list[list[int]], cell: Cell, held: int) -> None:
    """Give `cell` back the label it held before the walk reached it, or,
    for none, take it off the end of its row."""
    r, c = cell
    if held:
        grid[r][c] = held
    elif c == len(grid[r]) - 1:
        grid[r].pop()
    else:
        raise InvariantViolation("reverse insertion left a gap in a row")


def _unstep(grid: list[list[int]], pos: list, hole: Domino) -> int:
    """
    Undo one insertion step in place on the row grid `grid` and the
    dominoes `pos`, and return the signed letter; `hole` is the pair of
    cells the step added, sorted.  The forward walk run back: the last
    label moved is the larger label under the hole, and `_unbump` gives its
    old domino.  Each hole cell keeps the label it held before the walk
    reached it (0 for none) and gets it back when the walk leaves it; a
    cell the moved label vacates joins the hole, holding that label.
    """
    a, b = hole
    la = lb = 0
    while True:
        k = max(grid[a[0]][a[1]], grid[b[0]][b[1]])
        dom = pos[k]
        old = pos[k] = _unbump(grid, k, dom, (a, b))
        if old is None:
            raise ValueError(f"reverse bumping stuck at label {k}")
        _restore(grid, b, lb)
        if (a, b) != dom:  # pivoted: b was the image of the free cell
            a, b, la, lb = old[0], a, k, la
            continue
        _restore(grid, a, la)
        if not old:
            return k if dom[0][0] == dom[1][0] else -k
        (a, b), la, lb = old, k, k


def domino_reverse(p: DominoTableau, q: DominoTableau) -> weylb.SignedPermutation:
    """
    The unique signed permutation w with domino_insert(w) = (p, q);
    ValueError unless p and q are standard tableaux of one shape, both
    labelled 1..n.
    """
    for t in (p, q):
        if t.labels() != list(range(1, len(t.dominoes) + 1)):
            raise ValueError(f"labels {t.labels()} are not 1..n")
    rows, _ = p.check_standard()
    if q.check_standard()[0] != rows:
        raise ShapeMismatch("P and Q must have equal shapes")
    grid = [[] for _ in range(len(rows) - 1)]
    for lab, dom in p.dominoes:  # in label order each cell ends its row
        for r, _ in dom:
            grid[r].append(lab)
    pos = [None, *(dom for _, dom in p.dominoes)]
    letters = [_unstep(grid, pos, hole) for _, hole in reversed(q.dominoes)]
    return tuple(reversed(letters))
