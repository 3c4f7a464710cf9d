"""Dense exact matrices with deterministic elimination.

All algorithms pivot on the first nonzero entry in column order, never by magnitude, so kernels,
echelon forms and certificates are reproducible bit for bit across runs and platforms.  There is one
elimination here, ``_eliminate``, fraction-free over Q (on the integers L*A, L the common denominator;
a Fraction only for the answer): forward for ``rank``, ``det`` and ``span_dim``, Gauss-Jordan for
``rref``, everything built on it, and :class:`Span`, a reduced echelon snapshot of its rows.
A space over either field proves its generators independent, and answers membership, by its own
array row echelon in ``spaces``.  ``pfaffian`` pivots pairwise instead, one 2x2 block and its Schur
complement per step, as ``_engine.skew_rank`` does on whole stacks.  One ``integer_lift`` serves both
Pfaffians, ``_eliminate`` and the engine residues of a space over Q.  Every sum of products, x^T K y
included, is one ``Matrix`` product, each entry one ``sum(map(mul, row, col))`` reduced once mod p,
but for the stacked array products of ``spaces`` (``member_at``, ``enumerate``, ``equivalence_images``
and the nilpotent flag's word chain) and of ``analyze.flanders_atkinson_check``, whose canonical
residues over F_p come back through ``Matrix.from_residue_stack`` (``from_residues`` for one matrix),
range-checked once per stack.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .fields import Element, FieldCtx

Vector = tuple[Element, ...]


class Matrix:
    """Immutable dense matrix over a :class:`FieldCtx`.  Its width is kept, not read from a first row, so 0 x k
    and k x 0 shapes are faithful: ``ncols`` is the width of empty ``rows`` (0 if omitted), else their length."""

    __slots__ = ("ctx", "data", "nrows", "ncols")

    def __init__(self, ctx: FieldCtx, rows: Iterable[Iterable[Element]], ncols: int | None = None):
        norm = ctx.normalize
        data = tuple(tuple(norm(x) for x in row) for row in rows)
        width = len(data[0]) if data else ncols or 0
        if any(len(r) != width for r in data) or ncols not in (None, width):
            raise ValueError("ragged rows, or rows of a length other than ncols")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", width)

    @staticmethod
    def from_residues(ctx: FieldCtx, arr) -> "Matrix":
        """A matrix over F_p from a 2-D integer numpy array of residues, such as an engine product:
        the range is checked once by numpy, not entry by entry, and ValueError raised outside [0, p)."""
        return Matrix._trusted(ctx, tuple(map(tuple, _residue_lists(ctx, arr, 2))), arr.shape[1])

    @staticmethod
    def from_residue_stack(ctx: FieldCtx, arr) -> list["Matrix"]:
        """One matrix over F_p per slice of a 3-D integer array of residues, the whole range checked once."""
        return [Matrix._trusted(ctx, tuple(map(tuple, x)), arr.shape[2]) for x in _residue_lists(ctx, arr, 3)]

    @staticmethod
    def _trusted(ctx: FieldCtx, data: tuple[Vector, ...], ncols: int) -> "Matrix":
        """A matrix over ``data`` as given: a tuple of tuples of length ``ncols`` of
        canonical entries.  Only for results of this module's own arithmetic,
        which are canonical already; outside input goes through ``Matrix(...)``."""
        m = object.__new__(Matrix)
        object.__setattr__(m, "ctx", ctx)
        object.__setattr__(m, "data", data)
        object.__setattr__(m, "nrows", len(data))
        object.__setattr__(m, "ncols", ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix, (self.ctx, self.data, self.ncols)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(ctx: FieldCtx, nrows: int, ncols: int | None = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        z = ctx.zero()
        return Matrix(ctx, [[z] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> "Matrix":
        z, o = ctx.zero(), ctx.one()
        return Matrix(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- basic queries --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij: tuple[int, int]) -> Element:
        return self.data[ij[0]][ij[1]]

    def row(self, i: int) -> Vector:
        return self.data[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.data))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(self.ctx.element_to_str(x) for x in row) for row in self.data
        )
        return f"Matrix({self.ctx.to_str()}, [{body}])"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_alternating(self) -> bool:
        """Square, zero diagonal, and a[i][j] == -a[j][i] (all characteristics); over Q
        the Fractions, in lowest terms, are compared by numerator and denominator."""
        if not self.is_square:
            return False
        d, n, p = self.data, self.nrows, self.ctx.p
        for i in range(n):
            if d[i][i] != 0:
                return False
            for j in range(i + 1, n):
                x, y = d[i][j], d[j][i]
                if (x + y) % p if p else x.numerator != -y.numerator or x.denominator != y.denominator:
                    return False
        return True

    # -- arithmetic ------------------------------------------------------------

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        self._check_same_shape(other)
        rows = tuple(tuple([op(a, b) for a, b in zip(ra, rb)]) for ra, rb in zip(self.data, other.data))
        return Matrix._trusted(self.ctx, rows, self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.ctx.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, self.ctx.sub)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: Element) -> "Matrix":
        mul, c = self.ctx.mul, self.ctx.normalize(c)
        return Matrix._trusted(self.ctx, tuple(tuple([mul(c, a) for a in row]) for row in self.data), self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ctx != other.ctx:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bt = list(zip(*other.data)) or [()] * other.ncols
        if self.ctx.kind == "prime":
            p = self.ctx.p
            data = tuple(tuple([sum(map(mul, row, col)) % p for col in bt]) for row in self.data)
        else:
            z = self.ctx.zero()
            data = tuple(tuple([sum(map(mul, row, col), z) for col in bt]) for row in self.data)
        return Matrix._trusted(self.ctx, data, other.ncols)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.ctx, tuple(zip(*self.data)) or ((),) * self.ncols, self.nrows)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.ctx != other.ctx:
            raise ValueError("field mismatch")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- slicing and stacking ----------------------------------------------------

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        rows = tuple(row[c0:c1] for row in self.data[r0:r1])
        return Matrix._trusted(self.ctx, rows, len(range(self.ncols)[c0:c1]))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.ctx != other.ctx:
            raise ValueError("field mismatch")
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        rows = tuple(ra + rb for ra, rb in zip(self.data, other.data))
        return Matrix._trusted(self.ctx, rows, self.ncols + other.ncols)

    def flatten(self) -> Vector:
        """Row-major vectorization."""
        return tuple(x for row in self.data for x in row)

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns: ``_eliminate``'s Gauss-Jordan rows, zero-padded."""
        rows, pivots = _eliminate(self, jordan=True)
        rows += [(self.ctx.zero(),) * self.ncols] * (self.nrows - len(rows))
        return Matrix._trusted(self.ctx, tuple(rows), self.ncols), tuple(pivots)

    def rank(self) -> int:
        """Rank by ``_eliminate`` (fraction-free over Q); asserts even rank on alternating input."""
        r = _eliminate(self)[0]
        if r % 2 and self.is_square and self.is_alternating():
            raise AssertionError("alternating matrix with odd rank")
        return r

    def kernel_basis(self) -> list[Vector]:
        """Right kernel basis, one vector per free column in index order."""
        R, pivots = self.rref()
        ctx = self.ctx
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis: list[Vector] = []
        for f in free:
            v = [ctx.zero()] * self.ncols
            v[f] = ctx.one()
            for i, pc in enumerate(pivots):
                v[pc] = ctx.neg(R.data[i][f])
            basis.append(tuple(v))
        return basis

    def det(self) -> Element:
        """Determinant from the rank elimination when the rank is full, zero
        otherwise: (-1)^swaps times the product of the pivots, or over Q the
        last fraction-free pivot over L^n (see ``_eliminate``)."""
        if not self.is_square:
            raise ValueError("determinant of non-square matrix")
        rank, _, d = _eliminate(self)
        return d if rank == self.nrows else self.ctx.zero()

    def inverse(self) -> "Matrix":
        """The inverse; ValueError if there is none."""
        if not self.is_square:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        aug, pivots = self.hstack(Matrix.identity(self.ctx, n)).rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return aug.block(0, n, n, 2 * n)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        enc = self.ctx.element_to_str
        return {
            "field": self.ctx.to_str(),
            "rows": self.nrows,
            "cols": self.ncols,
            "data": [[enc(x) for x in row] for row in self.data],
        }

    @staticmethod
    def from_json(obj: dict) -> "Matrix":
        if not isinstance(obj, dict):
            raise ValueError("matrix must be a JSON object")
        ctx = FieldCtx.parse(obj["field"])
        data = obj["data"]
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix data must be a list of rows")
        nrows, ncols = obj["rows"], obj["cols"]
        if not all(type(x) is int and x >= 0 for x in (nrows, ncols)):
            raise ValueError("declared rows and cols must be non-negative integers")
        entries = [[ctx.parse_element(x) for x in row] for row in data]
        if len(entries) != nrows or any(len(row) != ncols for row in entries):
            raise ValueError("declared shape does not match data")
        return Matrix(ctx, entries, ncols)


# -- echelon spans -------------------------------------------------------------------


class Span:
    """Row span as a reduced row echelon snapshot: ``rows`` are the nonzero rows of ``_eliminate``'s
    Gauss-Jordan form of ``vecs``, as in ``Matrix.rref``, and ``pivots`` their pivot columns; input
    entries are normalized as ``Matrix`` does."""

    def __init__(self, ctx: FieldCtx, vecs: Sequence[Vector], width: int | None = None):
        if vecs:
            width = len(vecs[0])
        elif width is None:
            raise ValueError("empty span needs an explicit width")
        self.ctx = ctx
        self.width = width
        self.rows, self.pivots = _eliminate(Matrix(ctx, vecs, width), jordan=True)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after elimination against the echelon rows (linear in v)."""
        if len(v) != self.width:
            raise ValueError("length mismatch")
        p = self.ctx.p
        out = list(v)
        # An echelon row is zero left of its pivot, so only out[pc:] changes.
        for row, pc in zip(self.rows, self.pivots):
            c = out[pc]
            if c != 0:
                tail = zip(out[pc:], row[pc:])
                out[pc:] = [(x - c * y) % p for x, y in tail] if p else [x - c * y for x, y in tail]
        return tuple(out)

    def contains(self, v: Vector) -> bool:
        return all(x == 0 for x in self.reduce(v))


def _residue_lists(ctx: FieldCtx, arr, ndim: int) -> list:
    """``arr.tolist()`` of an ndim-D integer numpy array of residues over F_p, its range checked once by numpy."""
    if ctx.kind != "prime" or arr.ndim != ndim or arr.dtype.kind != "i":
        raise ValueError(f"residues must be a {ndim}-D integer array over a prime field")
    if arr.size and not 0 <= arr.min() <= arr.max() < ctx.p:
        raise ValueError(f"residues must lie in [0, {ctx.p})")
    return arr.tolist()


def integer_lift(m: Matrix) -> tuple[list[list[int]], int]:
    """Integer rows B and a scale L: over Q, L is the common denominator of
    the entries and B = L*A; over F_p, B holds the residues and L = 1."""
    if m.ctx.kind == "prime":
        return [list(r) for r in m.data], 1
    scale = lcm(*[x.denominator for r in m.data for x in r])
    return [[x.numerator * (scale // x.denominator) for x in r] for r in m.data], scale


def _unlift(ctx: FieldCtx, x: int, scale: int) -> Element:
    """The field element x computed on a lift: x mod p, or x / scale over Q."""
    return x % ctx.p if ctx.kind == "prime" else Fraction(x, scale)


def _eliminate(m: Matrix, jordan: bool = False):
    """Forward elimination, pivoting on the first nonzero entry of each column:
    the rank r, the number of row swaps, and (-1)^swaps times the determinant
    of the r x r pivot block, which is det(m) when m is square of full rank.
    Over Q it is fraction-free on the lift (Bareiss, Math. Comp. 22, 1968):
    each row below the pivot, zero in column c or not, becomes
    (piv * row - row[c] * pivot_row) // prev, divided exactly by the previous
    pivot, so the last pivot is the block's determinant times L^r.

    With ``jordan`` the rows above each pivot are cleared too (Nakos, Turner and
    Williams, SIGSAM Bull. 31, 1997), and the reduced nonzero rows and their pivot
    columns returned instead: over F_p the pivot row is made unit first; over Q the
    rows above take the same exact step on whole rows, so that every pivot row ends
    holding the last pivot at its pivot, divided out once."""
    prime, p = m.ctx.kind == "prime", m.ctx.p
    rows, scale = integer_lift(m)
    nrows, ncols = m.nrows, m.ncols
    rank = swaps = 0
    d = prev = 1
    pivots = []
    for c in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            swaps += 1
        prow = rows[rank]
        piv = prow[c]
        pivots.append(c)
        if prime:
            d = d * piv % p
            inv = pow(piv, -1, p)
            others = range(rank + 1, nrows)
            if jordan:
                prow[c:] = [x * inv % p for x in prow[c:]]
                inv, others = 1, [*range(rank), *others]
            for i in others:
                ric = rows[i][c]
                if not ric:
                    continue
                f = ric * inv % p
                ri = rows[i]
                for j in range(c, ncols):
                    ri[j] = (ri[j] - f * prow[j]) % p
        else:
            tail = prow[c:]
            for i in range(rank + 1, nrows):
                ri, ric = rows[i], rows[i][c]
                ri[c:] = [(piv * x - ric * y) // prev for x, y in zip(ri[c:], tail)]
            if jordan:
                for i in range(rank):
                    ri, ric = rows[i], rows[i][c]
                    ri[:] = [(piv * x - ric * y) // prev for x, y in zip(ri, prow)]
            d = prev = piv
        rank += 1
        if rank == nrows:
            break
    if jordan:
        reduced = rows[:rank] if prime else [[Fraction(x, d) for x in r] for r in rows[:rank]]
        return list(map(tuple, reduced)), pivots
    return rank, swaps, _unlift(m.ctx, -d if swaps % 2 else d, scale**rank)


def place_blocks(
    ctx: FieldCtx, nrows: int, ncols: int, blocks: Iterable[tuple[int, int, Matrix]]
) -> Matrix:
    """The nrows x ncols zero matrix with each (r0, c0, block) written at row r0, column c0; later
    blocks overwrite earlier ones where they overlap.  ValueError for a block over another field
    or one that does not fit."""
    z = ctx.zero()
    data = [[z] * ncols for _ in range(nrows)]
    for r0, c0, block in blocks:
        if block.ctx != ctx or not (0 <= r0 <= nrows - block.nrows and 0 <= c0 <= ncols - block.ncols):
            raise ValueError(f"the block at ({r0}, {c0}) is over another field or overruns {nrows} x {ncols}")
        for i, row in enumerate(block.data):
            data[r0 + i][c0 : c0 + len(row)] = row
    return Matrix._trusted(ctx, tuple(map(tuple, data)), ncols)


# -- Pfaffians ------------------------------------------------------------------


def _alternating_lift(m: Matrix) -> tuple[list[list[int]], int]:
    """The lift of ``integer_lift`` rebuilt from its upper triangle, alternating over Z (over
    F_p a_ji = p - a_ij is not -a_ij); ValueError unless m, checked on it, is alternating."""
    rows, scale = integer_lift(m)
    if m.is_square:
        cols = list(zip(*rows))
        alt = [[-y for y in cols[i][:i]] + [0] + r[i + 1 :] for i, r in enumerate(rows)]
        if ([[x % m.ctx.p for x in r] for r in alt] if m.ctx.p else alt) == rows:
            return alt, scale
    raise ValueError("pfaffian requires an alternating matrix")


def pfaffian(m: Matrix) -> Element:
    """Pfaffian by pairwise pivoting, valid in every characteristic.

    Row 0 pivots on its first nonzero entry a = a_0j, and
    Pf(A) = (-1)^(j-1) * a * Pf(S), where S is the Schur complement of the
    2x2 block on {0, j}: row i of S is a_i - (a_0i/a) a_j - (a_ij/a) a_0, with
    entries 0 and j dropped.  A zero row 0 makes the Pfaffian zero.  On the
    integer lift the steps are fraction-free (Galbiati and Maffioli, Discrete
    Appl. Math. 51, 1994): row i becomes (a a_i - a_0i a_j - a_ij a_0) // prev,
    and Pf is the sign times the last pivot, mod p or over L^(n/2).

    Sign convention: pfaffian([[0, 1], [-1, 0]]) == 1.  Odd-sized input
    returns the scalar zero by contract.  Raises ValueError if the input is
    not alternating.
    """
    rows, scale = _alternating_lift(m)
    if m.nrows % 2 == 1:
        return m.ctx.zero()
    sign = prev = 1
    while rows:
        top = rows[0]
        j = next((k for k, x in enumerate(top) if x), None)
        if j is None:
            return m.ctx.zero()
        a = top[j]
        sign = sign if j % 2 else -sign
        a0, aj = top[1:j] + top[j + 1 :], rows[j][1:j] + rows[j][j + 1 :]
        rows = [
            [(a * x - top[i] * y - r[j] * z) // prev for x, y, z in zip(r[1:j] + r[j + 1 :], aj, a0)]
            for i, r in enumerate(rows)
            if i and i != j
        ]
        prev = a
    return _unlift(m.ctx, sign * prev, scale ** (m.nrows // 2))


def pfaffian_expansion(m: Matrix) -> Element:
    """Independent Pfaffian oracle: recursive expansion along the first row,
    summed on the integer lift.  Exponential cost; a cross-check up to n = 10."""
    rows, scale = _alternating_lift(m)
    if m.nrows % 2 == 1:
        return m.ctx.zero()
    if m.nrows > 12:
        raise ValueError("expansion oracle limited to small sizes")
    return _unlift(m.ctx, _pf_expand(rows, list(range(m.nrows))), scale ** (m.nrows // 2))


def _pf_expand(d: list[list[int]], idx: list[int]) -> int:
    if not idx:
        return 1
    i0 = idx[0]
    acc = 0
    for t in range(1, len(idx)):
        a = d[i0][idx[t]]
        if a:
            term = a * _pf_expand(d, idx[1:t] + idx[t + 1 :])
            # Expansion sign alternates with the position of the struck column.
            acc += term if t % 2 == 1 else -term
    return acc


# -- alternating coordinates -----------------------------------------------------


def upper_pairs(n: int) -> list[tuple[int, int]]:
    """Strict upper-triangle positions in row-major order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def alternating_from_upper(ctx: FieldCtx, n: int, coords: Sequence[Element]) -> Matrix:
    """Build an alternating matrix from its strict upper triangle (row-major)."""
    pairs = upper_pairs(n)
    if len(coords) != len(pairs):
        raise ValueError("coordinate count mismatch")
    z = ctx.zero()
    rows = [[z] * n for _ in range(n)]
    for (i, j), c in zip(pairs, coords):
        c = ctx.normalize(c)
        rows[i][j] = c
        rows[j][i] = ctx.neg(c)
    return Matrix._trusted(ctx, tuple(map(tuple, rows)), n)


def alternating_units(ctx: FieldCtx, n: int) -> list[Matrix]:
    """The alternating units E_ij - E_ji, i < j, in row-major order of (i, j)."""
    m = n * (n - 1) // 2
    return [alternating_from_upper(ctx, n, [1 if t == u else 0 for t in range(m)]) for u in range(m)]


# -- vectors -----------------------------------------------------------------------


def span_dim(ctx: FieldCtx, vecs: Sequence[Vector]) -> int:
    if not vecs:
        return 0
    return _eliminate(Matrix(ctx, vecs))[0]
