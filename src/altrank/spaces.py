"""Affine spaces of matrices: enumeration, actions, and searches.

An affine space is a base matrix plus the span of an independent translation
basis.  Enumeration is ordered lexicographically by coordinate tuple.  Seeded
member draws live in the engine (``_engine.sampled_coords``), where draw i
depends only on (seed, i).
"""

from __future__ import annotations

from collections import Counter
from copy import copy
from dataclasses import dataclass
from itertools import combinations, product
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from . import _engine
from .errors import BudgetExceededError
from .fields import Element, FieldCtx
from .matrices import (
    Matrix,
    Span,
    alternating_from_upper,
    rows_matrix,
)

_WALK_ELEMS = 1 << 16  # parent-mask entries behind one block of the coset walk (at least one pair)


class AffineMatrixSpace:
    """base + span(basis) inside the matrices of a fixed shape; ``alternating``
    is read off the data: true exactly when the base and every generator are
    alternating (so the members are too)."""

    __slots__ = ("ctx", "base", "basis", "alternating", "_span")

    def __init__(self, base: Matrix, basis: Sequence[Matrix]):
        ctx = base.ctx
        for g in basis:
            if g.ctx != ctx:
                raise ValueError("field mismatch in basis")
            if g.shape != base.shape:
                raise ValueError("shape mismatch in basis")
        span = Span(ctx, [g.flatten() for g in basis], width=base.nrows * base.ncols)
        if span.dim != len(basis):
            raise ValueError("translation basis is linearly dependent")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "alternating", all(m.is_alternating() for m in (base, *basis)))
        object.__setattr__(self, "_span", span)

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
        # each entry once: base + the sum of c * g over the nonzero c, normalized by the constructor
        terms = [(c, g.data) for c, g in zip(map(self.ctx.normalize, coords), self.basis) if c != 0]
        cs = [1, *(c for c, _ in terms)]
        rows = zip(self.base.data, *(g for _, g in terms))
        return Matrix(self.ctx, ([sum(map(mul, cs, col)) for col in zip(*r)] for r in rows))

    def translation_span(self) -> Span:
        """A copy of the translation span, free to be extended with ``add``."""
        return copy(self._span)

    def translation_contains(self, m: Matrix) -> bool:
        return self._span.contains(m.flatten())

    def contains(self, m: Matrix) -> bool:
        if m.shape != self.shape or m.ctx != self.ctx:
            return False
        return self._span.contains((m - self.base).flatten())

    # -- enumeration ------------------------------------------------------------------

    def member_count(self) -> int:
        if self.ctx.kind != "prime":
            raise ValueError("member count is finite only over a prime field")
        return self.ctx.p**self.dim

    def enumerate(self, budget: int = 10**6) -> Iterator[tuple[tuple[Element, ...], Matrix]]:
        """All members in lexicographic coordinate order."""
        if self.dim == 0:
            yield (), self.base
            return
        if self.ctx.kind != "prime":
            raise ValueError("exhaustive enumeration needs a prime field")
        total = self.member_count()
        if total > budget:
            raise BudgetExceededError(f"{total} members exceed budget {budget}")
        for coords in product(range(self.ctx.p), repeat=self.dim):
            yield coords, self.member_at(coords)

    # -- engine bridge ---------------------------------------------------------------

    def flat_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Residue arrays (base_flat, basis_flat) for the vectorized engine."""
        if self.ctx.kind != "prime":
            raise ValueError("engine arrays exist only over prime fields")
        n, m = self.shape
        base_flat = np.array(self.base.flatten(), dtype=np.int64)
        basis_flat = np.array([g.flatten() for g in self.basis], dtype=np.int64)
        return base_flat, basis_flat.reshape(self.dim, n * m)

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
    return AffineMatrixSpace(p @ sp.base @ q, [p @ g @ q for g in sp.basis])


def spaces_equal(x: AffineMatrixSpace, y: AffineMatrixSpace) -> bool:
    """Exact set equality of affine spaces."""
    if x.ctx != y.ctx or x.shape != y.shape or x.dim != y.dim:
        return False
    span = y._span
    if not span.contains((x.base - y.base).flatten()):
        return False
    return all(span.contains(g.flatten()) for g in x.basis)


def rank_multiset(sp: AffineMatrixSpace, budget: int = 10**4) -> dict[int, int]:
    """Exhaustive rank -> count map, ascending; budgeted, and refusing Q past dimension 0, as
    ``enumerate`` is.  Ranks come from ``Matrix.rank``, so the engine's scans have an oracle."""
    return dict(sorted(Counter(m.rank() for _, m in sp.enumerate(budget)).items()))


# -- brute-force equivalence of small square spaces ------------------------------------------


def _gl_matrices(p: int, s: int) -> np.ndarray:
    """GL_s(F_p) as a (k, s, s) stack, in lexicographic order of the
    flattened entry tuple: the coordinates of the unit-basis space are the
    entries themselves, ranked in one engine call."""
    mats = _engine.lex_coords(0, p ** (s * s), s * s, p).reshape(-1, s, s)
    return mats[_engine.batch_rank(mats.copy(), p) == s]


def brute_equivalence_test(
    x: AffineMatrixSpace, y: AffineMatrixSpace
) -> tuple[Matrix, Matrix] | None:
    """First (P, Q) in GL_s^2 lexicographic scan with P X Q == Y, else None.

    Deliberately refuses s >= 3 or q > 7: the search space past |GL_2(F_7)|^2
    stops being a meaningful brute-force certificate.  The scan is vectorized
    over blocks of P against all of Q; a witness is re-verified exactly.
    """
    if x.ctx != y.ctx or x.ctx.kind != "prime":
        raise ValueError("both spaces must live over one prime field")
    s = x.shape[0]
    if x.shape != (s, s) or y.shape != (s, s):
        raise ValueError("square spaces of equal size required")
    if s > 2 or x.ctx.p > 7:
        raise ValueError("brute-force envelope is s <= 2, q <= 7")
    if x.dim != y.dim:
        return None
    witness = _brute_equivalence_scan(x, y, _gl_matrices(x.ctx.p, s))
    if witness is None:
        return None
    pm, qm = (Matrix.from_flat(x.ctx, s, s, [int(v) for v in g.ravel()]) for g in witness)
    if not spaces_equal(equivalence_act(x, pm, qm), y):
        raise AssertionError("vectorized equivalence witness failed exact re-verification")
    return pm, qm


def _brute_equivalence_scan(x, y, gl: np.ndarray):
    """The first (P, Q) of the scan as entries of ``gl``, or None."""
    # Membership in an affine space via its annihilator: v lies in the row
    # span of B iff v @ K == 0 for K a kernel basis of B (one zero row for a point).
    p = x.ctx.p
    s = x.shape[0]
    rows = [g.flatten() for g in y.basis] or [(0,) * (s * s)]
    kmat = np.array(rows_matrix(x.ctx, rows).kernel_basis(), dtype=np.int64).reshape(-1, s * s).T
    x_mats = [np.array(g.flatten(), dtype=np.int64).reshape(s, s) for g in (x.base, *x.basis)]
    y0 = np.array(y.base.flatten(), dtype=np.int64)
    count = len(gl)
    step = max(1, (1 << 20) // max(1, count))
    for lo in range(0, count, step):
        p_blk = gl[lo : lo + step]
        ok = np.ones((len(p_blk), count), dtype=bool)
        for t, xm in enumerate(x_mats):
            px = p_blk @ xm % p
            pxq = px[:, None] @ gl[None] % p
            flat = pxq.reshape(pxq.shape[0], pxq.shape[1], s * s)
            if t == 0:
                flat = (flat - y0) % p
            ok &= ~(flat @ kmat % p).any(axis=2)
            if not ok.any():
                break
        if ok.any():
            a, b = np.argwhere(ok)[0]
            return gl[lo + int(a)], gl[int(b)]
    return None


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
    witness: AffineMatrixSpace | None


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

    Each dimension walks the direction spaces in ``echelon_bases`` order, one
    echelon row at a time, and tracks which cosets of the rows chosen so far
    hold no bad member; a prefix with too few of them to make up one coset of
    a d-space prunes every space that extends it.  The witness is the first
    space with a good coset, its least one by reduced representative, and
    that coset's least member.  Both predicates pass to affine subspaces, so
    the search stops at the first empty level.  ``work_budget`` bounds spaces
    x ambient table per dimension, as if no space were pruned.
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
        ranks[lo:hi] = _engine.alternating_ranks(all_vecs[lo:hi], n, q)
    bad = (ranks != r) if predicate == "constant-rank" else (ranks < r)

    exists_by_dim: dict[int, bool] = {}
    witness = None
    max_dim = -1
    for d in range(0, m + 1):
        n_spaces = gaussian_binomial(m, d, q)
        if n_spaces * total > work_budget:
            raise BudgetExceededError(
                f"dimension {d} needs {n_spaces} x {total} work units"
            )
        found = _coset_walk(bad, m, d, q)
        exists_by_dim[d] = found is not None
        if found is None:
            break
        max_dim = d
        w_rows, rep = found
        base = alternating_from_upper(ctx, n, [int(v) for v in rep])
        gens = [alternating_from_upper(ctx, n, [int(v) for v in row]) for row in w_rows]
        witness = AffineMatrixSpace(base, gens)
        for _, mat in witness.enumerate(10**6):
            k = mat.rank()
            if k < r or (predicate == "constant-rank" and k != r):
                raise AssertionError("optimal-search witness failed exact re-verification")
    return OptimalSearchResult(max_dim=max_dim, exists_by_dim=exists_by_dim, witness=witness)


def _coset_walk(bad: np.ndarray, m: int, d: int, q: int):
    """First (direction rows, coset representative) whose coset avoids bad, in
    ``echelon_bases`` order: its least such coset by reduced representative,
    and that representative (zero at the pivots), which is the coset's least
    member since each pivot coordinate is set by its own row alone.

    A depth-first walk over the echelon rows of each pivot pattern.  A node is
    the span P of the rows chosen so far, and its state the mask of P's good
    cosets (no bad member), indexed lexicographically by the reduced
    representative's non-pivot coordinates, then the pivots still to come.
    """
    good = ~bad.reshape((q,) * m)
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
