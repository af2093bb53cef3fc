"""Symmetric rational matrices (step-graphon kernels), the cut norm, and sampling.

Entries are exact ``fractions.Fraction`` values stored once per unordered
index pair, row-major over the upper triangle: (0,0), (0,1), ..., (0,n-1),
(1,1), ... This pair order is also the coordinate order used for Hessians.
"""

import random
from fractions import Fraction
from math import lcm

from .errors import (
    ENUMERATION_GUARD, SWEEP_GUARD, Record, SizeGuardError, UsageError, load_json,
)
from .rationals import format_rational, parse_rational

MATRIX_CLASSES = ("nonnegative", "signed")
SAMPLE_DENOMINATOR = 8  # largest denominator of a sampled entry


def pair_index(i: int, j: int, n: int) -> int:
    """Flat index of the unordered pair {i, j} in row-major upper-triangle order."""
    if i > j:
        i, j = j, i
    return i * n - i * (i - 1) // 2 + (j - i)


def pair_list(n: int) -> list[tuple[int, int]]:
    """All unordered pairs in the canonical order matching pair_index."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def symmetric_cells(rows, read, what: str) -> tuple[int, tuple]:
    """n and the cells in ``pair_index`` order of a square symmetric array,
    each made by ``read``; a ragged or asymmetric ``what``, or a cell that
    ``read`` cannot make, is a ``UsageError``."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise UsageError(f"{what} is not square")
    try:
        rows = [[read(x) for x in r] for r in rows]
    except UsageError:  # a reader's own refusal already names the cell
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"bad {what} cell: {exc}") from exc
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise UsageError(f"{what} not symmetric at ({i},{j})")
    return n, tuple(rows[i][j] for i in range(n) for j in range(i, n))


class SymRationalMatrix(Record):
    """n x n symmetric matrix of exact rationals (upper-triangle storage)."""

    __slots__ = ("n", "tri")  # int; tuple of Fractions in pair_index order

    def __init__(self, n, tri):
        if n < 1:
            raise UsageError("matrix needs n >= 1")
        if len(tri) != n * (n + 1) // 2:
            raise UsageError("wrong upper-triangle length")
        self._fill(n, tri)

    @classmethod
    def from_rows(cls, rows) -> "SymRationalMatrix":
        return cls(*symmetric_cells(rows, Fraction, "matrix"))

    def at(self, i: int, j: int) -> Fraction:
        return self.tri[pair_index(i, j, self.n)]

    def rows(self) -> list[list[Fraction]]:
        return [[self.at(i, j) for j in range(self.n)] for i in range(self.n)]

    def entrywise_abs(self) -> "SymRationalMatrix":
        return SymRationalMatrix(self.n, tuple(abs(x) for x in self.tri))

    def scale(self, c) -> "SymRationalMatrix":
        c = Fraction(c)
        return SymRationalMatrix(self.n, tuple(c * x for x in self.tri))

    def add(self, other: "SymRationalMatrix") -> "SymRationalMatrix":
        if self.n != other.n:
            raise UsageError("dimension mismatch")
        return SymRationalMatrix(
            self.n, tuple(a + b for a, b in zip(self.tri, other.tri))
        )

    def sub(self, other: "SymRationalMatrix") -> "SymRationalMatrix":
        return self.add(other.scale(-1))

    def entries_in(self, lo, hi) -> bool:
        lo, hi = Fraction(lo), Fraction(hi)
        return all(lo <= x <= hi for x in self.tri)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[format_rational(x) for x in row] for row in self.rows()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymRationalMatrix":
        try:
            rows = [[parse_rational(x) for x in row] for row in data["entries"]]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed matrix JSON: {exc}") from exc
        mat = cls.from_rows(rows)
        n = data.get("n", mat.n)
        if type(n) is not int:
            raise UsageError(f"malformed matrix n: {n!r}")
        if mat.n != n:
            raise UsageError("matrix n field disagrees with entries")
        return mat


def load_matrix_text(text: str) -> SymRationalMatrix:
    text = text.strip()
    if not text:
        raise UsageError("empty matrix input")
    return SymRationalMatrix.from_json(load_json(text, "matrix"))


def block_pm_ones(n: int) -> SymRationalMatrix:
    """2n x 2n block matrix: +1 within each half, -1 across halves.

    Built dense from one integer, so its (2n)^2 entries are held to the
    engine's work limit before any row exists.
    """
    if n < 1:
        raise UsageError("block size must be >= 1")
    if 4 * n * n > ENUMERATION_GUARD:
        # past 10^18 the count says no more (and str() refuses 4300 digits)
        entries = f"{2 * n}^2 = {4 * n * n}" if 4 * n * n < 10**18 else "over 10^18"
        raise SizeGuardError(f"matrix guard: {entries} entries > {ENUMERATION_GUARD}")
    one = Fraction(1)
    return SymRationalMatrix.from_rows(
        [
            [one if (i < n) == (j < n) else -one for j in range(2 * n)]
            for i in range(2 * n)
        ]
    )


def cut_norm(a: SymRationalMatrix) -> Fraction:
    """max over S, T of |sum_{i in S, j in T} a_ij| / n^2, exactly.

    Restricting S and T to unions of parts is lossless: the objective is
    bilinear in fractional memberships, so optima occur at 0/1 points. For
    each S the optimal T picks exactly the columns whose S-restricted sums
    share a sign, so a single Gray-code sweep over S suffices.
    """
    n = a.n
    if n > SWEEP_GUARD:
        raise SizeGuardError(f"cut norm guard: n={n} > {SWEEP_GUARD}")
    scale = lcm(*(x.denominator for x in a.tri))
    rows = [[int(a.at(i, j) * scale) for j in range(n)] for i in range(n)]

    colsum = [0] * n
    inside = [False] * n
    best = 0
    # Gray code: flip one row per step, visiting every subset S once
    for g in range(1, 1 << n):
        bit = (g & -g).bit_length() - 1
        row = rows[bit]
        if inside[bit]:
            for j in range(n):
                colsum[j] -= row[j]
        else:
            for j in range(n):
                colsum[j] += row[j]
        inside[bit] = not inside[bit]
        pos = sum(c for c in colsum if c > 0)
        neg = -sum(c for c in colsum if c < 0)
        if pos > best:
            best = pos
        if neg > best:
            best = neg
    return Fraction(best, scale * n * n)


def sample_matrix(n: int, matrix_class: str, seed: int) -> SymRationalMatrix:
    """Deterministic random symmetric matrix with entries p/q,
    q <= SAMPLE_DENOMINATOR.

    Classes: nonnegative -> [0, 1], signed -> [-1, 1].
    """
    if matrix_class not in MATRIX_CLASSES:
        raise UsageError(f"matrix class must be one of {MATRIX_CLASSES}")
    rng = random.Random(seed)
    tri = []
    for _ in range(n * (n + 1) // 2):
        q = rng.randint(1, SAMPLE_DENOMINATOR)
        lo = 0 if matrix_class == "nonnegative" else -q
        tri.append(Fraction(rng.randint(lo, q), q))
    return SymRationalMatrix(n, tuple(tri))
