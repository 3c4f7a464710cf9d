"""Affine spaces of matrices: enumeration, actions, and searches.

An affine space is a base matrix plus the span of an independent translation
basis.  A space holds its base and generators as one read-only array stack from
construction, int64 residues over F_p and Fraction objects over Q, and one row
echelon of the generators proves them independent and answers every membership
test.  Four array helpers, ``_stack``, ``_mod``, ``_product`` and ``_matrices``,
are where the field picks its arithmetic; ``nilpotent_flag`` finds a flag on
the same stack, and ``analyze`` proves it by one exact elimination.
Enumeration is ordered lexicographically by coordinate tuple.  Seeded
member draws live in the engine (``_engine.sampled_coords``), where draw i
depends only on (seed, i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _engine
from .errors import BudgetExceededError
from .fields import Element, FieldCtx
from .matrices import Matrix, Span, Vector, alternating_from_upper, upper_pairs

_WALK_ELEMS = 1 << 16  # parent-mask entries behind one block of the coset walk (at least one pair)


class AffineMatrixSpace:
    """base + span(basis) inside the matrices of a fixed shape; ``alternating``
    is read off the data: true exactly when the base and every generator are
    alternating (so the members are too)."""

    __slots__ = ("ctx", "base", "basis", "alternating", "_flat", "_echelon")

    def __init__(self, base: Matrix, basis: Sequence[Matrix]):
        ctx = base.ctx
        for g in basis:
            if g.ctx != ctx:
                raise ValueError("field mismatch in basis")
            if g.shape != base.shape:
                raise ValueError("shape mismatch in basis")
        (n, m), k = base.shape, len(basis) + 1
        stack = _stack(ctx, [g.data for g in (base, *basis)], k, n * m)
        stack.flags.writeable = False  # and so are its views
        ech = _row_echelon(ctx, stack[1:])[:2]
        if len(ech[1]) != len(basis):
            raise ValueError("translation basis is linearly dependent")
        cube = stack.reshape(k, n, m)  # square, a zero diagonal and X + X^T = 0 on every matrix
        alternating = n == m and not (cube.diagonal(0, 1, 2).any() or _mod(ctx, cube + cube.swapaxes(1, 2)).any())
        for name, value in zip(self.__slots__, (ctx, base, tuple(basis), alternating, (stack[0], stack[1:]), ech)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("AffineMatrixSpace is immutable")

    def __reduce__(self):
        return AffineMatrixSpace, (self.base, self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    def __repr__(self) -> str:
        n, m = self.shape
        return (
            f"AffineMatrixSpace({self.ctx.to_str()}, shape={n}x{m}, dim={self.dim},"
            f" alternating={self.alternating})"
        )

    # -- membership ------------------------------------------------------------

    def member_at(self, coords: Sequence[Element]) -> Matrix:
        if len(coords) != self.dim:
            raise ValueError("coordinate count mismatch")
        (base, basis), ctx = self._flat, self.ctx
        c = _stack(ctx, [ctx.normalize(x) for x in coords], 1, self.dim)
        return _matrices(ctx, _product(ctx, c, basis, base).reshape(1, *self.shape))[0]

    def translation_residuals(self, vecs: Sequence[Vector]) -> list[Vector]:
        """The residual by the echelon of each v of vecs, flattened matrices of canonical elements: the
        one element of v + T that is zero at the echelon's pivots, a ``Span``'s too, so ``Span.reduce``'s."""
        return list(map(tuple, self._residuals(_stack(self.ctx, vecs, len(vecs), self._flat[0].size)).tolist()))

    def translation_contains(self, m: Matrix) -> bool:
        return not self._residuals(_stack(self.ctx, m.data, 1, self._flat[0].size)).any()

    def contains(self, m: Matrix) -> bool:
        return m.shape == self.shape and m.ctx == self.ctx and self.translation_contains(m - self.base)

    def _residuals(self, out: np.ndarray) -> np.ndarray:
        """A stack of flattened matrices, over F_p entries in (-p, p), reduced by the echelon rows
        in order, one step per pivot: a row ends zero iff it is a translation."""
        for row, pc in zip(*self._echelon):
            out = _mod(self.ctx, out - out[:, pc, None] * row)
        return out

    # -- enumeration ------------------------------------------------------------------

    def member_count(self) -> int:
        if self.ctx.kind != "prime":
            raise ValueError("member count is finite only over a prime field")
        return self.ctx.p**self.dim

    def enumerate(self, budget: int = 10**6) -> Iterator[tuple[tuple[Element, ...], Matrix]]:
        """All members in lexicographic coordinate order, one stacked product and one ``_matrices`` per block
        of 2^16 entries or 1,024 members, whose Matrix objects, some 75 bytes an entry, live at once."""
        if self.dim == 0:
            yield (), self.base
            return
        if self.ctx.kind != "prime":
            raise ValueError("exhaustive enumeration needs a prime field")
        total = self.member_count()
        if total > budget:
            raise BudgetExceededError(f"{total} members exceed budget {budget}")
        (base, basis), (n, m) = self._flat, self.shape
        for lo, hi in _engine.chunk_ranges(0, total, n * m << 6):
            coords = _engine.lex_coords(lo, hi, self.dim, self.ctx.p)
            members = _product(self.ctx, coords, basis, base).reshape(-1, n, m)
            yield from zip(map(tuple, coords.tolist()), _matrices(self.ctx, members))

    # -- engine bridge ---------------------------------------------------------------

    def flat_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only residue arrays (base_flat, basis_flat) for the vectorized engine."""
        if self.ctx.kind != "prime":
            raise ValueError("engine arrays exist only over prime fields")
        return self._flat

    def integer_stack(self) -> np.ndarray:
        """Over Q, the flattened [base; basis] times the lcm L of its denominators: Python integers in
        an object array, the rows ``matrices.integer_lift`` gives for the Matrix of those rows."""
        stack = np.vstack(self._flat)
        scale = lcm(*(x.denominator for x in stack.flat))
        return np.array([x.numerator * (scale // x.denominator) for x in stack.flat], object).reshape(stack.shape)

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> dict:
        n, m = self.shape
        return {
            "field": self.ctx.to_str(),
            "shape": [n, m],
            "alternating": self.alternating,
            "base": self.base.to_json(),
            "basis": [g.to_json() for g in self.basis],
        }

    @staticmethod
    def from_json(obj: dict) -> "AffineMatrixSpace":
        if not isinstance(obj, dict):
            raise ValueError("space must be a JSON object")
        if not isinstance(obj["basis"], list):
            raise ValueError("space basis must be a list of matrices")
        if not isinstance(obj["alternating"], bool):
            raise ValueError("space alternating flag must be true or false")
        base = Matrix.from_json(obj["base"])
        basis = [Matrix.from_json(g) for g in obj["basis"]]
        if FieldCtx.parse(obj["field"]) != base.ctx:
            raise ValueError(f"declared field {obj['field']!r} does not match the entries' field")
        sp = AffineMatrixSpace(base, basis)
        if obj["shape"] != list(sp.shape):
            raise ValueError("declared shape does not match base")
        # a declared false is no claim: alternation is read off the data
        if obj["alternating"] and not sp.alternating:
            raise ValueError("alternating flag set on non-alternating data")
        return sp


# -- group actions ----------------------------------------------------------------------


def congruence_act(sp: AffineMatrixSpace, p: Matrix) -> AffineMatrixSpace:
    """X -> P^T X P member-wise; preserves rank multiset and alternation."""
    return equivalence_act(sp, p.T, p)


def equivalence_act(sp: AffineMatrixSpace, p: Matrix, q: Matrix) -> AffineMatrixSpace:
    """X -> P X Q member-wise; preserves the rank multiset."""
    if p.det() == 0 or q.det() == 0:
        raise ValueError("equivalence requires invertible factors")
    base, *basis = equivalence_images([sp.base, *sp.basis], p, q)
    return AffineMatrixSpace(base, basis)


def equivalence_images(mats: Sequence[Matrix], p: Matrix, q: Matrix) -> list[Matrix]:
    """P X Q for each X of the nonempty ``mats``, which share one shape, as one stacked product pair."""
    if any(m.ctx != p.ctx for m in (q, *mats)):
        raise ValueError("field mismatch")
    ctx = p.ctx
    xs = _stack(ctx, [x.data for x in mats], len(mats), *mats[0].shape)
    out = _product(ctx, _product(ctx, _stack(ctx, p.data, *p.shape), xs), _stack(ctx, q.data, *q.shape))
    return _matrices(ctx, out)


def spaces_equal(x: AffineMatrixSpace, y: AffineMatrixSpace) -> bool:
    """Exact set equality: at equal dimension, x's base in y and x's generators y's translations,
    as one reduction of the stack [x.base - y.base; x.basis] by y's echelon."""
    if x.ctx != y.ctx or x.shape != y.shape or x.dim != y.dim:
        return False
    return not y._residuals(np.vstack([x._flat[0] - y._flat[0], x._flat[1]])).any()


def independent_matrices(mats: Sequence[Matrix]) -> list[Matrix]:
    """The matrices of mats, in order, that are independent of those before them: those that give
    a pivot in the echelon of their entries."""
    if not mats:
        return []
    ctx, (n, m) = mats[0].ctx, mats[0].shape
    return [mats[i] for i in _row_echelon(ctx, _stack(ctx, [g.data for g in mats], len(mats), n * m))[2]]


def _row_echelon(ctx: FieldCtx, stack: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """Row echelon with unit pivots of a (k, w) stack of field elements, one step per pivot, taken at the
    first nonzero entry of the rows not yet used, so rows that are zero by then are passed over: the
    (rank, w) rows, their pivots and the inputs that gave them.  A row is zero at earlier rows' pivots
    and later rows at its own, so reducing by the rows in order leaves zero exactly on their span."""
    a, pivots, kept, i = stack.copy(), [], [], 0
    while (nonzero := a[i:] != 0).any():
        skip, pc = divmod(int(nonzero.argmax()), a.shape[1])
        i += skip
        a[i] = _mod(ctx, a[i] * ctx.inv(a.item(i, pc)))
        a[i + 1 :] = _mod(ctx, a[i + 1 :] - a[i + 1 :, pc, None] * a[i])
        pivots.append(pc)
        kept.append(i)
        i += 1
    return a[kept], pivots, kept


def nilpotent_flag(sp: AffineMatrixSpace) -> Optional[Matrix]:
    """A basis b_0..b_(n-1), as the columns of a matrix, with G b_j in span(b_0..b_(j-1)) for every
    generator G of sp, or None if there is none; ValueError unless sp is square.  Q_0 is F^n and Q_i
    the row space of the words Q_(i-1) G of length i.  Q_i lies in Q_(i-1), so the chain falls to 0,
    and then V_i = ker Q_i is a flag with G V_i in V_(i-1); or it stops at a nonzero Q_i = Q_(i-1),
    and the generators span no nilpotent algebra.  Step i is one stacked product of Q_(i-1)'s rows
    with the (dim, n, n) stack and one ``_row_echelon``, back-substituted to reduced form.  Each
    column that turns free at step i, in index order, gives its kernel vector: 1 there, minus the
    reduced rows' entries there at their pivots.  A pivot column of Q_i is one of Q_(i-1), so no
    free column turns back, and the basis is adapted to the flag."""
    n, m = sp.shape
    if n != m:
        raise ValueError("members must be square")
    ctx = sp.ctx
    gens, rows = sp._flat[1].reshape(sp.dim, n, n), _stack(ctx, Matrix.identity(ctx, n).data, n, n)
    flag, old_pivots = [rows[:, :0]], range(n)
    while len(rows):
        ech, pivots, _ = _row_echelon(ctx, _product(ctx, rows, gens).reshape(-1, n))
        if len(pivots) == len(rows):
            return None
        for j, pc in enumerate(pivots):  # the rows before j get zero at pc
            ech[:j] = _mod(ctx, ech[:j] - ech[:j, pc, None] * ech[j])
        new = sorted(set(old_pivots).difference(pivots))
        flag.append(np.eye(n, dtype=rows.dtype)[:, new])  # e_f, and at the pivots minus column f
        flag[-1][pivots] = _mod(ctx, -ech[:, new])
        rows, old_pivots = ech, pivots
    return _matrices(ctx, np.hstack(flag)[None])[0]


# -- field arithmetic on arrays: int64 residues over F_p, Fraction objects over Q ----------------
# The one place that picks a field's arithmetic: nested canonical elements as an array of the given
# shape, reduction to canonical residues (none over Q), a @ b + acc on canonical elements (over F_p
# ``_engine._matmul_mod``, exact for every p < 2^31) and the Matrix of each slice of a 3-D array.


def _stack(ctx: FieldCtx, entries, *shape: int) -> np.ndarray:
    return np.array(entries, np.int64 if ctx.kind == "prime" else object).reshape(shape)


def _mod(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    return _engine.mod(a, ctx.p) if ctx.kind == "prime" else a


def _product(ctx: FieldCtx, a: np.ndarray, b: np.ndarray, acc=0) -> np.ndarray:
    return _engine._matmul_mod(a, b, acc, ctx.p) if ctx.kind == "prime" else a @ b + acc


def _matrices(ctx: FieldCtx, a: np.ndarray) -> list[Matrix]:
    if ctx.kind == "prime":
        return Matrix.from_residue_stack(ctx, a)
    return [Matrix(ctx, x, a.shape[2]) for x in a.tolist()]


# -- exhaustive optimal-dimension search -----------------------------------------------------


def gaussian_binomial(m: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^m."""
    if d < 0 or d > m:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise AssertionError("Gaussian binomial quotient is not exact")
    return num // den


def echelon_bases(m: int, d: int, q: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Reduced-echelon representatives of the d-dim subspaces of F_q^m: pivot
    patterns in lex order, then the free entries (row by row, left to right)
    in lex order.  The optimal search walks its direction spaces in this order."""
    for pivots in combinations(range(m), d):
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, m) if j not in pivots]
        for coords in product(range(q), repeat=len(free)):
            w = np.zeros((d, m), dtype=np.int64)
            w[range(d), pivots] = 1
            w[[i for i, _ in free], [j for _, j in free]] = coords
            yield pivots, w


@dataclass(frozen=True)
class OptimalSearchResult:
    max_dim: int
    exists_by_dim: dict[int, bool]
    witness: AffineMatrixSpace


def exhaustive_optimal_dimension(
    n: int,
    r: int,
    ctx: FieldCtx,
    predicate: str,
    *,
    table_budget: int = 10**6,
    work_budget: int = 3 * 10**8,
) -> OptimalSearchResult:
    """Exact maximum dimension of an affine subspace of A_n(F_q) satisfying
    ``predicate`` ("constant-rank" or "rank-at-least" relative to r).

    Each dimension is decided by ``_level_nonempty``: for d >= 2, a good
    d-flat exists iff one has in its direction w_k = e_01 + ... + e_(2k-2)(2k-1)
    for some k and a representative v of an orbit of w_k's stabilizer on the
    quotient by <w_k>: one (d-2)-walk over the cosets of <w_k, v> per k and v.
    Both predicates pass to affine subspaces, so the search stops at the first
    empty level, and only the top one, max_dim, is then walked in full: the
    direction spaces in ``echelon_bases`` order, one echelon row at a time,
    tracking which cosets of the rows chosen so far hold no bad member; a
    prefix with too few of them to make up one coset of a d-space prunes every
    space that extends it, and the walk stops at its first witness.  The
    witness is the first space with a good coset, its least one by reduced
    representative, and that coset's least member; it alone is re-ranked by
    ``Matrix.rank``, and its flats prove every lower level.  A top level that
    the walk cannot fill raises an ``AssertionError``.  ``work_budget`` bounds
    spaces x ambient table per dimension, as if no space were pruned.
    """
    if ctx.kind != "prime":
        raise ValueError("exhaustive search needs a prime field")
    if predicate not in ("constant-rank", "rank-at-least"):
        raise ValueError(f"unknown predicate {predicate!r}")
    if r < 0 or r > n or r % 2 == 1:
        raise ValueError("target rank must be even and within the size")
    q = ctx.p
    m = n * (n - 1) // 2
    total = q**m
    if total > table_budget:
        raise BudgetExceededError(f"ambient table of {total} entries exceeds {table_budget}")

    # a coordinate tuple over the alternating units is the strict upper triangle
    all_vecs = _engine.lex_coords(0, total, m, q)
    ranks = np.empty(total, dtype=np.int64)
    for lo, hi in _engine.chunk_ranges(0, total, n * n):
        ranks[lo:hi] = _engine.alternating_ranks(all_vecs[lo:hi].T, n, q)
    good = ((ranks == r) if predicate == "constant-rank" else (ranks >= r)).reshape((q,) * m)

    max_dim = -1
    for d in range(0, m + 1):
        n_spaces = gaussian_binomial(m, d, q)
        if n_spaces * total > work_budget:
            raise BudgetExceededError(f"dimension {d} needs {n_spaces} x {total} work units")
        if not _level_nonempty(good, n, d, q):
            break
        max_dim = d
    # a validated r admits a rank-r matrix, so level 0 is never empty
    found = _coset_walk(good, max_dim, q)
    if found is None:
        raise AssertionError(f"dimension {max_dim}: the level decision found a space the ordered walk missed")
    rows, rep = found
    base, *gens = (alternating_from_upper(ctx, n, v.tolist()) for v in (rep, *rows))
    witness = AffineMatrixSpace(base, gens)
    for _, mat in witness.enumerate(total):
        k = mat.rank()
        if k < r or (predicate == "constant-rank" and k != r):
            raise AssertionError("optimal-search witness failed exact re-verification")
    exists_by_dim = {d: d <= max_dim for d in range(min(max_dim + 1, m) + 1)}
    return OptimalSearchResult(max_dim=max_dim, exists_by_dim=exists_by_dim, witness=witness)


def _level_nonempty(good: np.ndarray, n: int, d: int, q: int) -> bool:
    """Whether some d-flat of strict upper triangles lies in ``good``, shaped (q,) * m: never with fewer
    than q^d good members; for d >= 1 decided one congruence class of first directions at a time, and
    for d >= 2 one orbit of second directions at a time.

    Congruence X -> P^T X P keeps every rank and is transitive on the alternating matrices of rank
    2k, so a good d-flat exists iff one holds w_k = e_01 + e_23 + ... + e_(2k-2)(2k-1) in its
    direction for some k, 2k the least rank there, and its image in the quotient by <w_k>, taken as
    {x_0 = 0}, is a (d-1)-flat of good cosets u + <w_k> (every member good).  G_k = {P : P^T W_k P in
    F_q^* W_k} and the scalings permute those cosets and keep the good ones and every rank, so for
    d >= 2 the image can be moved until its direction holds an orbit representative v whose coset
    has no rank below 2k (``_orbit_labels``): one (d-2)-walk over the good cosets of <w_k, v> per k
    and v.  A subgroup's labels only split orbits; the good cosets are checked constant on each.
    """
    if np.count_nonzero(good) < q**d:  # a good d-flat has q^d good members
        return False
    for k in range(1, n // 2 + 1) if d else ():
        cosets = _good_cosets(good, _rank_rep(n, k), q)
        if d == 1 and cosets.any():
            return True
        if d >= 2:
            labels, reps = _orbit_labels(n, q, k)
            if (cosets.flat[labels] != cosets.reshape(-1)).any():
                raise AssertionError(f"the good cosets of w_{k} are not constant on the orbits of its stabilizer")
            if any(_coset_walk(_good_cosets(cosets, v, q), d - 2, q) is not None for v in reps):
                return True
    return d == 0


def _rank_rep(n: int, k: int) -> np.ndarray:
    """w_k = e_01 + e_23 + ... + e_(2k-2)(2k-1) as a strict upper triangle."""
    return np.array([i % 2 == 0 and j == i + 1 and i < 2 * k for i, j in upper_pairs(n)], dtype=np.int64)


def _good_cosets(good: np.ndarray, v: np.ndarray, q: int) -> np.ndarray:
    """The cosets u + <v> of a (q,) * L mask whose members are all good, v's first nonzero entry
    1 at j: indexed by u, u_j = 0, over the other coordinates."""
    j, *axes = np.flatnonzero(v).tolist()
    # the slice x_j = lam rolled back by lam v is u + lam v; it keeps axis j, so no roll meets a 0-d array
    rolled = [np.roll(good.take([lam], j), [-lam * v[a] for a in axes], axis=axes) for lam in range(q)]
    return np.logical_and.reduce(rolled).reshape((q,) * (good.ndim - 1))


@lru_cache(maxsize=None)
def _orbit_labels(n: int, q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(label of each point, representatives), read-only, on the quotient by <w_k> as {x_0 = 0}: orbits
    of ``_stabilizer_generators`` and x -> g x, g a primitive root, each labelled by its least point,
    which leads with a 1, and the nonzero ones whose cosets v + <w_k> have no rank below 2k.  Each
    generator's map X -> P^T X P on coordinates (the second compound of P^T) must send w_k into F_q^* w_k
    and, then y -> y - y_0 w_k, permute the quotient; min-label propagation along each permutation both
    ways, with pointer jumping, labels."""
    m, w, (pi, pj) = n * (n - 1) // 2, _rank_rep(n, k), _engine._pairs(n)
    p = np.array(_stabilizer_generators(n, k, q))
    c = (p[:, pi][:, :, pi] * p[:, pj][:, :, pj] - p[:, pj][:, :, pi] * p[:, pi][:, :, pj]).swapaxes(1, 2)
    if not (image := c @ w % q)[:, 0].all() or ((image - image[:, :1] * w) % q).any():
        raise AssertionError(f"a stabilizer generator of w_{k} moves its line")
    scaling = _primitive_root(q) * np.eye(m - 1, dtype=np.int64)[None]
    maps = np.concatenate([scaling, c[:, 1:, 1:] - w[1:, None] * c[:, None, 0, 1:]])
    # row s of the basis is column s of every map: one engine product images every point
    basis = _engine.mod(maps.transpose(2, 0, 1).reshape(m - 1, -1), q)
    points = _engine.lex_coords(0, q ** (m - 1), m - 1, q)
    images = _engine.members_from_coords(points, np.zeros(basis.shape[1], np.int64), basis, q)
    perms = np.einsum("gtu,t->gu", images.reshape(-1, m - 1, len(points)), q ** np.arange(m - 2, -1, -1))
    if not all(np.bincount(perm, minlength=len(points)).all() for perm in perms):
        raise AssertionError(f"a stabilizer generator of w_{k} is no bijection on the quotient")
    labels, old = np.arange(len(points)), None
    while not np.array_equal(labels, old):
        old = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
            labels[perm] = np.minimum(labels[perm], labels)
        labels = labels[labels]
    reps = points[np.flatnonzero(labels == np.arange(len(points)))[1:]]
    lifts = (np.insert(reps, 0, 0, axis=1)[:, None] + np.arange(q)[:, None] * w) % q  # v + lam w_k
    reps = reps[_engine.alternating_ranks(lifts.reshape(-1, m).T.copy(), n, q).reshape(-1, q).min(1) >= 2 * k]
    labels.flags.writeable = reps.flags.writeable = False
    return labels, reps


def _stabilizer_generators(n: int, k: int, q: int) -> list[np.ndarray]:
    """Generators of G_k = {P : P^T W_k P in F_q^* W_k} = {[[A, 0], [C, D]]} in the basis (first 2k, rest), A
    conformally symplectic: the transvections x -> x + (v^T J x) v, v = e_a and e_a + e_b, diag(1, g, 1, g, ...),
    the unit C entries, the D transvections and diag(g) in D's first place, g a primitive root."""
    s, g, eye = 2 * k, _primitive_root(q), np.eye(n, dtype=np.int64)
    j = np.kron(np.eye(k, dtype=np.int64), [[0, 1], [-1, 0]])
    vs = [eye[a, :s] for a in range(s)] + [eye[a, :s] + eye[b, :s] for a, b in combinations(range(s), 2)]
    gens = [eye + np.pad(np.outer(v, v @ j), (0, n - s)) for v in vs]
    gens += [eye + np.outer(eye[i], eye[a]) for i, a in product(range(s, n), range(n)) if a != i]
    gens += [np.diag(g ** ((np.arange(n) < s) & (np.arange(n) % 2 == 1))), np.diag(g ** (np.arange(n) == s))]
    return [x % q for x in gens]


def _primitive_root(q: int) -> int:
    return next(g for g in range(1, q) if len({pow(g, e, q) for e in range(q - 1)}) == q - 1)


def _coset_walk(good: np.ndarray, d: int, q: int):
    """First (direction rows, coset representative) whose coset lies in the (q,) * m mask ``good``, in
    ``echelon_bases`` order: its least such coset by reduced representative,
    and that representative (zero at the pivots), which is the coset's least
    member since each pivot coordinate is set by its own row alone.

    A depth-first walk over the echelon rows of each pivot pattern.  A node is
    the span P of the rows chosen so far, and its state the mask of P's good
    cosets (no bad member), indexed lexicographically by the reduced
    representative's non-pivot coordinates, then the pivots still to come.
    """
    m = good.ndim
    if np.count_nonzero(good) < q**d:  # a good coset has q^d good members
        return None
    for pivots in combinations(range(m), d):
        nonpiv = [j for j in range(m) if j not in pivots]
        found = _walk(good.transpose(nonpiv + list(pivots)).reshape(1, -1), pivots, nonpiv, q, 0)
        if found is not None:
            _, rows, leaf = found
            rep = np.zeros(m, dtype=np.int64)
            rep[nonpiv] = _engine.index_to_coords(int(leaf.argmax()), m - d, q)
            return np.array(rows, dtype=np.int64).reshape(d, m), rep
    return None


def _walk(masks: np.ndarray, pivots: tuple[int, ...], nonpiv: list[int], q: int, i: int):
    """First (node, rows i.., leaf mask) below a stack of depth-i nodes, or None.

    Row i (pivot p, free entries on the non-pivots after p) is zero on the
    other pivots, so a coset of P + w with representative t, t[p] = 0, is good
    iff t + lambda w is a good coset of P for every lambda in F_q.  The (node,
    candidate row) pairs go in blocks that start at one pair and grow x4 up to
    ``_WALK_ELEMS``.  A good coset of a full space is a union of q^(d-i-1)
    good cosets of a depth-(i+1) child, so a child with fewer is pruned.
    """
    if i == len(pivots):
        return 0, [], masks[0]
    cols = [j for j in nonpiv if j > pivots[i]]
    g, later = q ** len(cols), q ** (len(pivots) - 1 - i)
    s = masks.reshape(len(masks), -1, g, q, later)
    digits = _engine.lex_coords(0, g, len(cols), q)
    pows = q ** np.arange(len(cols) - 1, -1, -1, dtype=np.int64)
    lo, size = 0, 1
    while lo < len(masks) * g:
        hi = min(len(masks) * g, lo + size)
        node, cand = np.divmod(np.arange(lo, hi), g)
        # (pair, head, free, tail digits) of each good t with t[p] = 0, dropped
        # once some t + lambda w is bad: only the free digits shift
        child = s[node, :, :, 0]
        pair, a, x, z = np.nonzero(child)
        for lam in range(1, q):
            ok = s[node[pair], a, (digits[x] + lam * digits[cand[pair]]) % q @ pows, lam, z]
            pair, a, x, z = pair[ok], a[ok], x[ok], z[ok]
        child = np.zeros_like(child)
        child[pair, a, x, z] = True
        keep = np.flatnonzero(np.bincount(pair, minlength=hi - lo) >= later)
        found = _walk(child[keep].reshape(len(keep), -1), pivots, nonpiv, q, i + 1) if len(keep) else None
        if found is not None:
            k, rows, leaf = found
            node_k, cand_k = divmod(lo + int(keep[k]), g)
            row = np.zeros(len(pivots) + len(nonpiv), dtype=np.int64)
            row[pivots[i]] = 1
            row[cols] = digits[cand_k]
            return node_k, [row] + rows, leaf
        lo, size = hi, min(max(1, _WALK_ELEMS // masks.shape[1]), 4 * size)
    return None
