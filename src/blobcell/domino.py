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

Shapes are kept as row/column length arrays: a cell (r, c) lies in a shape
iff c < rows[r].  Insertion makes one pass over the labels per letter,
against the lengths of the dominoes placed so far; `check_standard` adds the
dominoes in label order, each addable to the shape of the smaller labels; the
reverse peels labels off in decreasing order and reads the un-bump candidates
and the forward rule's image from the lengths of the smaller labels.
`domino_reverse` raises ValueError unless P and Q are standard of one shape
and labelled 1..n.

The pass of one letter, `_step`, is the one insertion rule.  `domino_insert`
and `domino_shape` run it letter by letter on one window.  `p_numbers(n)`,
which numbers the distinct P over all of W_n for `knuth.knuth_classes`, runs
it once per window prefix in one depth-first sweep: 6,330 letter steps for
the 3,840 windows of W_5, against 19,200 one window at a time.

Cells are (row, col), 0-based internally, 1-based in JSON.
"""

from __future__ import annotations

from . import weylb
from .weylb import InvariantViolation

__all__ = [
    "DominoTableau", "domino_insert", "domino_shape", "domino_reverse",
    "p_numbers", "ShapeMismatch",
]

Cell = tuple[int, int]
Domino = tuple[Cell, Cell]


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

    __slots__ = ("dominoes",)
    dominoes: tuple[tuple[int, Domino], ...]  # sorted by label

    def __init__(self, dominoes: tuple[tuple[int, Domino], ...]) -> None:
        object.__setattr__(self, "dominoes", dominoes)

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
        fewer than 2k rows, so no index past 2k is read or written.
        """
        size = 2 * len(self.dominoes) + 2
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


def _shuffle_position(old: Domino, rows: list[int], cols: list[int]) -> Domino:
    """
    The re-placement rule: where a domino at `old` goes once the shape lam
    of the re-placed smaller labels is fixed; `rows` and `cols` are the row
    and column lengths of lam.  Unmoved if disjoint from lam; a fully
    covered domino is appended to the next row (horizontal) or column
    (vertical) of lam; one covered first cell pivots around the free cell.
    """
    (r1, c1), (r2, c2) = old
    first_in = c1 < rows[r1]
    second_in = c2 < rows[r2]
    if not first_in:
        if second_in:
            raise InvariantViolation("partial cover must be the first cell")
        return old
    if r1 == r2:
        if second_in:  # fully covered: append to the next row of lam
            c = rows[r1 + 1]
            return ((r1 + 1, c), (r1 + 1, c + 1))
        return ((r1, c2), (r1 + 1, c2))  # pivot to vertical
    if second_in:  # fully covered: append to the next column of lam
        r = cols[c1 + 1]
        return ((r, c1 + 1), (r + 1, c1 + 1))
    return ((r2, c1), (r2, c1 + 1))  # pivot to horizontal


def _step(pos: list, rows: list[int], letter: int) -> tuple[list[int], list[Cell]]:
    """
    Insert one letter into the tableau whose positions `pos` (indexed by
    label, None for a label not inserted yet) fill the row lengths `rows`.
    `pos` is updated in place; the new row lengths and the two cells added
    are returned.  One pass over the labels in increasing order: the smaller
    ones stay, the letter's domino comes next, the larger ones are re-placed.
    `rows` has 2n + 1 entries for n = len(pos) - 1: the shape has at most 2n
    cells, so no cell lies past row or column 2n - 1 and the re-placement
    reads at most index 2n.
    """
    j = abs(letter)
    size = len(rows)
    new, cols = [0] * size, [0] * size
    for lab in range(1, len(pos)):
        p = pos[lab]
        if lab == j:
            p = pos[j] = (((0, new[0]), (0, new[0] + 1)) if letter > 0
                          else ((cols[0], 0), (cols[0] + 1, 0)))
            gained = list(p)  # the cells that dominoes moved onto
        elif p is None:
            continue
        elif lab > j:
            moved = _shuffle_position(p, new, cols)
            if moved is not p:
                (a, b), (c, d) = moved
                if b < new[a] or d < new[c]:
                    raise InvariantViolation("bumping collision")
                p = pos[lab] = moved
                gained += moved
        (a, b), (c, d) = p
        new[a] += 1
        new[c] += 1
        cols[b] += 1
        cols[d] += 1
    # Only cells that a domino moved onto can lie outside the old shape.
    added = sorted(x for x in gained if x[1] >= rows[x[0]])
    if len(added) != 2:
        raise InvariantViolation("insertion must add exactly two cells")
    return new, added


def _grow(w: weylb.SignedPermutation):
    """
    Insert the window of w letter by letter, yielding (the positions of P
    so far, indexed by label; its row lengths; the two cells added at this
    step).
    """
    n = len(w)
    pos: list = [None] * (n + 1)
    rows = [0] * (2 * n + 1)
    for letter in w:
        rows, added = _step(pos, rows, letter)
        yield pos, rows, added


def p_numbers(n: int) -> dict[weylb.SignedPermutation, int]:
    """
    {w: the number of P(w)} for every window w of W_n, in increasing window
    order; P tableaux are numbered 0, 1, ... as they first appear.

    One depth-first sweep over the window prefixes: each prefix is inserted
    once, by one `_step` on a copy of its parent's state, so the windows
    sharing a prefix share its insertion.  Every P is checked standard.
    """
    letters = [*range(-n, 0), *range(1, n + 1)]
    numbers: dict[DominoTableau, int] = {}
    out: dict[weylb.SignedPermutation, int] = {}

    def sweep(prefix, pos, rows, used):
        if len(prefix) == n:
            tp = DominoTableau(tuple(enumerate(pos))[1:])
            tp.check_standard()
            out[prefix] = numbers.setdefault(tp, len(numbers))
            return
        for letter in letters:
            if not used >> abs(letter) & 1:
                child = pos.copy()
                sweep(prefix + (letter,), child, _step(child, rows, letter)[0],
                      used | 1 << abs(letter))

    sweep((), [None] * (n + 1), [0] * (2 * n + 1), 0)
    return out


def domino_insert(w: weylb.SignedPermutation) -> tuple[DominoTableau, DominoTableau]:
    """
    Insert the window of w, returning the pair (P(w), Q(w)); the recording
    tableau Q marks with label k the two cells added at step k.
    """
    pos: list = [None]
    q = []
    for step, (pos, _, added) in enumerate(_grow(w), start=1):
        q.append((step, tuple(added)))
    tp = DominoTableau(tuple(enumerate(pos))[1:])
    tq = DominoTableau(tuple(q))
    tp.check_standard()
    tq.check_standard()
    return tp, tq


def domino_shape(w: weylb.SignedPermutation) -> tuple[int, ...]:
    """The shape of P(w), read off the insertion without building Q."""
    rows: list[int] = []
    for _, rows, _ in _grow(w):
        pass
    return _shape_of(rows)


def _transpose(dom: Domino) -> Domino:
    (a, b), (c, d) = dom
    return ((b, a), (d, c))


def _unbump(pos: Domino, hole, rows: list[int], cols: list[int]) -> list[Domino]:
    """
    The old positions of a label now at the horizontal domino `pos`: the
    dominoes removable from the pre-insertion shape lam + pos - hole that
    the forward rule, against lam (row lengths `rows`, column lengths
    `cols`), sends to pos.  Only two can: the vertical domino that pivots
    onto pos, and the last two cells of the row above, which, fully
    covered, are appended where pos lies.

    Both candidates found below are sent to pos, so none is filtered out.
    The vertical candidate's upper cell lies in lam + pos - hole but not
    in pos, so it lies in lam; its lower cell is a cell of pos, so it is
    not in lam, and the domino pivots onto pos.  The row-above candidate
    lies wholly in lam; it is appended at column rows[r], which is c
    because lam ∪ pos is a shape.
    """
    (r, c), _ = pos
    if r == 0:
        return []
    (h, i), (k, l) = hole
    found = []
    # Lengths of lam + pos - hole: column c must end at row r, column c + 1
    # above row r - 1, so that the vertical domino at its end is removable.
    if (cols[c] + 1 - (i == c) - (l == c) == r + 1
            and cols[c + 1] + 1 - (i == c + 1) - (l == c + 1) < r):
        found.append(((r - 1, c), (r, c)))
    e = rows[r - 1] - (h == r - 1) - (k == r - 1)  # the row above ends at e
    if e >= 2 and rows[r] + 2 - (h == r) - (k == r) <= e - 2:
        found.append(((r - 1, e - 2), (r - 1, e - 1)))
    return found


def _reverse_letter(tab: dict[int, Domino], labels: list[int], hole: set[Cell],
                    rows: list[int], cols: list[int]) -> int:
    """
    Undo one insertion step in place: remove the inserted label from `tab`
    and from `labels` (its keys in increasing order) and return the signed
    letter.  `hole` is the pair of cells that were added; `rows` and `cols`
    are the lengths of the tableau's shape, on entry and on return.

    `hole` tracks the two cells by which the shape of the labels >= the
    current one exceeds its pre-insertion shape; a label was moved by the
    insertion iff its position meets the hole.  The old position is the
    unique domino, removable from the pre-insertion shape of the labels up
    to this one, that the forward re-placement rule sends to the observed
    position.
    """
    for k in range(len(labels) - 1, -1, -1):
        lab = labels[k]
        pos = tab[lab]
        for r, c in pos:  # rows, cols: the shape lam of the labels < lab
            rows[r] -= 1
            cols[c] -= 1
        if pos[0] not in hole and pos[1] not in hole:
            continue
        (r1, c1), (r2, c2) = pos
        horizontal = r1 == r2
        # The inserted domino itself sits exactly in the hole, appended to
        # row 0 (horizontal) or column 0 (vertical) of lam.
        if set(pos) == hole and (r1, c1) == ((0, rows[0]) if horizontal
                                             else (cols[0], 0)):
            del tab[lab], labels[k]
            for above in labels[k:]:  # back to the whole tableau's shape
                for r, c in tab[above]:
                    rows[r] += 1
                    cols[c] += 1
            return lab if horizontal else -lab
        if horizontal:
            valid = _unbump(pos, hole, rows, cols)
        else:
            valid = [_transpose(old) for old in _unbump(
                _transpose(pos), {(c, r) for r, c in hole}, cols, rows)]
        if len(valid) != 1:
            raise ValueError(f"reverse bumping ambiguous or stuck at label {lab}")
        old = tab[lab] = valid[0]
        # The new hole: the cells of lam outside its pre-insertion shape
        # lam + pos - hole - old.
        hole = {x for x in (*hole, *old) if x[1] < rows[x[0]]}
        if len(hole) != 2:
            raise InvariantViolation("reverse bumping must leave two cells")
    raise ValueError("no inserted letter found during reverse insertion")


def domino_reverse(p: DominoTableau, q: DominoTableau) -> weylb.SignedPermutation:
    """
    The unique signed permutation w with domino_insert(w) = (p, q);
    ValueError unless p and q are standard tableaux of one shape, both
    labelled 1..n.
    """
    for t in (p, q):
        if t.labels() != list(range(1, len(t.dominoes) + 1)):
            raise ValueError(f"labels {t.labels()} are not 1..n")
    rows, cols = p.check_standard()
    if q.check_standard()[0] != rows:
        raise ShapeMismatch("P and Q must have equal shapes")
    tab = p.as_dict()
    labels = p.labels()
    letters = [_reverse_letter(tab, labels, set(hole), rows, cols)
               for _, hole in reversed(q.dominoes)]
    return tuple(reversed(letters))
