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

Cells are (row, col), 0-based internally, 1-based in JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import weylb
from .partitions import Partition
from .weylb import InvariantViolation

__all__ = [
    "DominoTableau", "domino_insert", "domino_shape", "domino_reverse",
    "ShapeMismatch",
]

Cell = tuple[int, int]
Domino = tuple[Cell, Cell]


class ShapeMismatch(ValueError):
    """Raised when a tableau pair does not have matching shapes."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class DominoTableau:
    """A standard domino tableau: map label -> pair of adjacent cells."""

    dominoes: tuple[tuple[int, Domino], ...]  # sorted by label

    @staticmethod
    def from_dict(d: dict[int, Domino]) -> "DominoTableau":
        return DominoTableau(tuple(sorted(
            (k, (a, b) if a <= b else (b, a)) for k, (a, b) in d.items())))

    def as_dict(self) -> dict[int, Domino]:
        return dict(self.dominoes)

    def labels(self) -> list[int]:
        return [k for k, _ in self.dominoes]

    def cells(self) -> set[Cell]:
        return set(self._label_at())

    def _label_at(self) -> dict[Cell, int]:
        label_at: dict[Cell, int] = {}
        for lab, (a, b) in self.dominoes:
            label_at[a] = lab
            label_at[b] = lab
        return label_at

    def shape(self) -> Partition:
        return _shape_of(self._label_at())

    def check_standard(self) -> None:
        """Validate the partition shape and the row/column label increase."""
        label_at = self._label_at()
        shape = _shape_of(label_at)
        for r, width in enumerate(shape):
            below = shape[r + 1] if r + 1 < len(shape) else 0
            for c in range(width):
                lab = label_at[(r, c)]
                if c + 1 < width and label_at[(r, c + 1)] < lab:
                    raise ValueError("labels not increasing along a row")
                if c < below and label_at[(r + 1, c)] < lab:
                    raise ValueError("labels not increasing down a column")

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
        shape = _shape_of(label_at)
        width = max(len(str(lab)) for lab, _ in self.dominoes)
        lines = []
        for r, rw in enumerate(shape):
            lines.append(
                " ".join(str(label_at[(r, c)]).rjust(width) for c in range(rw))
            )
        return "\n".join(lines)


def _shape_of(cells) -> Partition:
    """The row lengths of a set of cells; ValueError unless the rows are
    0, 1, ... with non-increasing lengths."""
    counts: dict[int, int] = {}
    for r, _ in cells:
        counts[r] = counts.get(r, 0) + 1
    rows = [counts.get(r, 0) for r in range(len(counts))]
    if 0 in rows or rows != sorted(rows, reverse=True):
        raise ValueError("cells do not form a partition shape")
    return tuple(rows)


def _is_partition_cells(cells: set[Cell]) -> bool:
    """Whether a set of cells is the Young diagram of a partition."""
    rows: dict[int, int] = {}
    for r, _ in cells:
        rows[r] = rows.get(r, 0) + 1
    if sorted(rows) != list(range(len(rows))):
        return False
    lens = [rows[r] for r in sorted(rows)]
    if any(lens[i] < lens[i + 1] for i in range(len(lens) - 1)):
        return False
    return all((r, c) in cells for r in rows for c in range(rows[r]))


def _row_len(cells: set[Cell], r: int) -> int:
    return sum(1 for c in cells if c[0] == r)


def _col_len(cells: set[Cell], c: int) -> int:
    return sum(1 for cell in cells if cell[1] == c)


def _shuffle_position(old: Domino, lam: set[Cell], row_len, col_len) -> Domino:
    """
    The re-placement rule: where a domino at `old` goes once the shape `lam`
    of the re-placed smaller labels is fixed; `row_len` and `col_len` give
    the row and column lengths of lam.  Unmoved if disjoint from lam; a fully
    covered domino is appended to the next row (horizontal) or column
    (vertical) of lam; one covered first cell pivots around the free cell.
    """
    (r1, c1), (r2, c2) = old
    first_in = old[0] in lam
    second_in = old[1] in lam
    if not first_in and not second_in:
        return old
    horizontal = r1 == r2
    if horizontal:
        if second_in:  # fully covered: append to the next row of lam
            if not first_in:
                raise InvariantViolation(
                    "partial cover must be the first cell")
            c = row_len(r1 + 1)
            return ((r1 + 1, c), (r1 + 1, c + 1))
        return ((r1, c2), (r1 + 1, c2))  # pivot to vertical
    if second_in:  # fully covered: append to the next column of lam
        if not first_in:
            raise InvariantViolation("partial cover must be the first cell")
        r = col_len(c1 + 1)
        return ((r, c1 + 1), (r + 1, c1 + 1))
    return ((r2, c1), (r2, c1 + 1))  # pivot to horizontal


def _insert_letter(tab: dict[int, Domino],
                   letter: int) -> tuple[dict[int, Domino], set[Cell]]:
    """
    One insertion step: the new tableau as a label -> domino map, and the
    set of its cells.  The dominoes are placed in label order, each disjoint
    from the ones before it, so counting cells per row and column as they
    are placed gives the lengths of the shape grown so far.
    """
    j = abs(letter)
    items = sorted(tab.items())
    new_tab: dict[int, Domino] = {}
    covered: set[Cell] = set()
    # Row and column lengths of covered.  The new shape has N = 2 len(tab) + 2
    # cells, so no cell lies past row or column N - 1 and the re-placement
    # reads at most index N.
    rows = [0] * (2 * len(tab) + 3)
    cols = rows[:]
    # The smaller labels stay, the letter's domino (None here) comes next,
    # and the larger labels are re-placed in increasing order.
    order = [x for x in items if x[0] < j]
    order.append((j, None))
    order += [x for x in items if x[0] > j]
    for lab, pos in order:
        if pos is None:
            if letter > 0:
                pos = ((0, rows[0]), (0, rows[0] + 1))
            else:
                pos = ((cols[0], 0), (cols[0] + 1, 0))
        elif lab > j:
            old, pos = pos, _shuffle_position(pos, covered, rows.__getitem__,
                                              cols.__getitem__)
            if (pos[0] in covered or pos[1] in covered) and pos != old:
                raise InvariantViolation("bumping collision")
        new_tab[lab] = pos
        covered.update(pos)
        (r1, c1), (r2, c2) = pos
        rows[r1] += 1
        rows[r2] += 1
        cols[c1] += 1
        cols[c2] += 1
    return new_tab, covered


def _grow(w: weylb.SignedPermutation):
    """Insert the window of w letter by letter, yielding (P so far, its
    cells, the two cells added at this step)."""
    p: dict[int, Domino] = {}
    cells: set[Cell] = set()
    for letter in w:
        p, new_cells = _insert_letter(p, letter)
        added = new_cells - cells
        if len(added) != 2:
            raise InvariantViolation("insertion must add exactly two cells")
        cells = new_cells
        yield p, cells, added


def domino_insert(w: weylb.SignedPermutation) -> tuple[DominoTableau, DominoTableau]:
    """
    Insert the window of w, returning the pair (P(w), Q(w)); the recording
    tableau Q marks with label k the two cells added at step k.
    """
    p: dict[int, Domino] = {}
    q: dict[int, Domino] = {}
    for step, (p, _, added) in enumerate(_grow(w), start=1):
        q[step] = tuple(sorted(added))
    tp = DominoTableau.from_dict(p)
    tq = DominoTableau.from_dict(q)
    tp.check_standard()
    tq.check_standard()
    return tp, tq


def domino_shape(w: weylb.SignedPermutation) -> Partition:
    """The shape of P(w), read off the insertion without building Q."""
    cells: set[Cell] = set()
    for _, cells, _ in _grow(w):
        pass
    return _shape_of(cells)


def _unbump_candidates(pos: Domino, shape: set[Cell]):
    """
    The dominoes that the forward re-placement rule can send to `pos` and
    whose removal from `shape` can leave a partition: the domino that
    pivots onto pos, and the domino formed by the last two cells of the
    row (horizontal pos) or column (vertical pos) before pos in shape,
    which, fully covered, is appended where pos lies.
    """
    (r1, c1), (r2, c2) = pos
    if r1 == r2:
        yield ((r1 - 1, c1), (r1, c1))
        end = max((c for r, c in shape if r == r1 - 1), default=None)
        if end is not None:
            yield ((r1 - 1, end - 1), (r1 - 1, end))
    else:
        yield ((r1, c1 - 1), (r1, c1))
        end = max((r for r, c in shape if c == c1 - 1), default=None)
        if end is not None:
            yield ((end - 1, c1 - 1), (end, c1 - 1))


def _reverse_letter(tab: dict[int, Domino], hole: Domino) -> tuple[dict[int, Domino], int]:
    """
    Undo one insertion step.  `hole` is the pair of cells that were added;
    returns the previous tableau and the inserted (signed) letter.

    `hole` tracks the two cells by which the shape of the labels >= the
    current one exceeds its pre-insertion shape; a label was moved by the
    insertion iff its position meets the hole.  The old position is the
    unique domino, removable from the pre-insertion shape of the labels up
    to this one, that the forward re-placement rule sends to the observed
    position.
    """
    tab = dict(tab)
    hole_cells = set(hole)
    lam: set[Cell] = set()
    for pos in tab.values():
        lam.update(pos)
    for lab in sorted(tab, reverse=True):
        pos = tab[lab]
        lam -= set(pos)  # lam = shape of labels < lab in the inserted tableau
        if not (pos[0] in hole_cells or pos[1] in hole_cells):
            continue
        (r1, c1), (r2, c2) = pos
        horizontal = r1 == r2
        # The inserted domino itself sits exactly in the hole, appended to
        # row 0 (horizontal) or column 0 (vertical) of the smaller shape.
        if set(pos) == hole_cells:
            if horizontal and r1 == 0 and c1 == _row_len(lam, 0):
                del tab[lab]
                return tab, lab
            if not horizontal and c1 == 0 and r1 == _col_len(lam, 0):
                del tab[lab]
                return tab, -lab
        # Un-bump: the pre-insertion shape of labels <= lab is the current
        # one minus the hole; the old position is a removable domino in it
        # that the forward rule maps to pos.
        shape_leq = (lam | set(pos)) - hole_cells
        valid = [
            old for old in _unbump_candidates(pos, shape_leq)
            if old[0] in shape_leq
            and old[1] in shape_leq
            and old != pos
            and _is_partition_cells(shape_leq - set(old))
            and _shuffle_position(old, lam, lambda r: _row_len(lam, r),
                                  lambda c: _col_len(lam, c)) == pos
        ]
        if len(valid) != 1:
            raise ValueError(f"reverse bumping ambiguous or stuck at label {lab}")
        old = valid[0]
        tab[lab] = old
        hole_cells = lam - (shape_leq - set(old))
        if len(hole_cells) != 2:
            raise InvariantViolation("reverse bumping must leave two cells")
    raise ValueError("no inserted letter found during reverse insertion")


def domino_reverse(p: DominoTableau, q: DominoTableau) -> weylb.SignedPermutation:
    """The unique signed permutation w with domino_insert(w) = (p, q)."""
    if (p.shape() != q.shape()) if p.dominoes else q.dominoes:
        raise ShapeMismatch("P and Q must have equal shapes")
    tab = p.as_dict()
    qd = q.as_dict()
    letters: list[int] = []
    for step in sorted(qd, reverse=True):
        tab, letter = _reverse_letter(tab, qd[step])
        letters.append(letter)
    return tuple(reversed(letters))
