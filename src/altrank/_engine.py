"""Vectorized integer kernels for enumeration-scale verification over F_p.

This is infrastructure, not arithmetic authority: entries are canonical
residues with p < 2^31 in int64, where every product of two fits (skew
elimination works in the narrowest signed type that holds its bound, int16
for p <= 181 and int32 for p <= 46,337), every array is reduced by ``mod``,
and the exact object-level linear algebra in :mod:`altrank.matrices`
independently covers the same operations at small scale (the test suite
cross-checks the two).  Every rank scan over the members of a space
(``profile_ranks``, ``first_index``) ranks them through one block ranker,
which also serves sampled members over Q: it ranks integer members modulo
several primes and keeps the largest rank, which is the rank over Q once the
primes' product exceeds a bound on every minor
(:func:`altrank.analyze.rank_profile` picks the primes); it assembles
lexicographic members by outer sums (``lex_members``).  Chunks run one after
another on the calling thread.  The spectrum scan
``unit_eigen_hits`` ranks one member z per line, the one with leading
coordinate 1 (lex indices [p^k, 2 p^k)), as z^(p-1) - I: it is singular iff
z has an eigenvalue in F_p^*.  Its caller still reports, and budgets, all
p^dim members as checked.

Alternating members are stored as their strict upper triangles, row-major
in (i, j), and ranked by skew elimination (``skew_rank``: each member is
permuted to pivot on (0, 1), and the step keeps only the Schur complement on
the other indices, so the storage shrinks by two rows and columns); every other
stack is ranked by general column elimination (``batch_rank``), which swaps
no rows (a pivot row clears itself, so it is zero in every later column) and
delays its ``% p``: it lets entries leave [0, p) while a tracked bound on
|entries| plus one more update, (p-1)^2, stays within int64.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from .rand import GOLDEN

_CHUNK_ELEMS = 1 << 22
_MOD_BLOCK = 1 << 15  # entries per block of ``mod``
LEX_TABLE = 1 << 12  # most rows of a ``lex_members`` outer-sum table
_INT64_MAX = (1 << 63) - 1
GUARD_MEMBERS = 16  # leading members of each alternating chunk re-ranked by batch_rank


def resolve_threads(threads: None = None) -> int:
    """1: the engine runs on one thread.  Kept for the benchmark, which reports it as
    ``engine.threads``, and for the source test that checks it exists."""
    return 1


def _chunk_size(entry_size: int) -> int:
    return max(1024, _CHUNK_ELEMS // max(1, entry_size))


def chunk_ranges(lo: int, hi: int, entry_size: int) -> Iterator[tuple[int, int]]:
    step = _chunk_size(entry_size)
    cur = lo
    while cur < hi:
        nxt = min(hi, cur + step)
        yield cur, nxt
        cur = nxt


# -- counter-based sampling (mirrors altrank.rand bit for bit) -------------------


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_block(seed: int, counter_lo: int, shape: tuple[int, ...], bound: int) -> np.ndarray:
    """Uniform integers in [0, bound), counters assigned row-major from counter_lo."""
    total = int(np.prod(shape)) if shape else 1
    counters = np.arange(counter_lo, counter_lo + total, dtype=np.uint64)
    limit_int = (1 << 64) - ((1 << 64) % bound)
    with np.errstate(over="ignore"):
        base = (counters << np.uint64(16)) + np.uint64(1)
        out = _mix64(np.uint64(seed) + np.uint64(GOLDEN) * base)
        if limit_int < (1 << 64):
            limit = np.uint64(limit_int)
            bad = np.nonzero(out >= limit)[0]
            attempt = 1
            while bad.size:
                if attempt >= (1 << 16):
                    raise RuntimeError("rejection sampling failed to terminate")
                retry = _mix64(
                    np.uint64(seed)
                    + np.uint64(GOLDEN)
                    * (((counters[bad] << np.uint64(16)) | np.uint64(attempt)) + np.uint64(1))
                )
                out[bad] = retry
                bad = bad[retry >= limit]
                attempt += 1
    return mod(out, np.uint64(bound)).astype(np.int64).reshape(shape)


def sampled_coords(seed: int, lo: int, hi: int, dim: int, bound: int) -> np.ndarray:
    """Coordinates of sampled members lo..hi-1; draw i is partition independent."""
    return uniform_block(seed, lo * dim, (hi - lo, dim), bound)


def lex_coords(lo: int, hi: int, dim: int, q: int) -> np.ndarray:
    """Lexicographic coordinate tuples for enumeration indices [lo, hi)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, dim), dtype=np.int64)
    for t in range(dim):
        out[:, dim - 1 - t] = mod(idx // (q**t), q)
    return out


def index_to_coords(index: int, dim: int, q: int) -> tuple[int, ...]:
    digits = []
    for _ in range(dim):
        index, d = divmod(index, q)
        digits.append(d)
    return tuple(reversed(digits))


# -- batched members and ranks ----------------------------------------------------


def mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p in [0, p), into ``out`` if given, as ``x - (x // p) * p``: numpy runs floor
    division by a scalar in SIMD but not ``np.remainder`` (about 5x slower on int64).  It
    works over leading-axis blocks of about _MOD_BLOCK entries with one scratch buffer, so
    no temporary is the size of ``x``; an array of at most one block goes to ``np.remainder``.

    ``(x // p) * p`` lies in [x - (p - 1), x], so it cannot overflow when x >= min + p - 1
    for the dtype's least value min.  In ``batch_rank`` every update subtracts a product of
    two residues, so entries lie in [p - 1 - bound, p - 1] for its tracked bound <= 2^63 - 1;
    in ``skew_rank`` |x| <= p - 1 + (p - 1)^2 <= the work type's max."""
    if x.size <= _MOD_BLOCK:
        return np.remainder(x, p, out=out)
    if out is None:
        out = np.empty_like(x)
    rows = max(1, _MOD_BLOCK * x.shape[0] // x.size)
    scratch = np.empty((rows,) + x.shape[1:], dtype=out.dtype)
    for lo in range(0, x.shape[0], rows):
        part = x[lo : lo + rows]
        quot = np.floor_divide(part, p, out=scratch[: len(part)])
        quot *= p
        np.subtract(part, quot, out=out[lo : lo + rows])
    return out


def _matmul_mod(a: np.ndarray, b: np.ndarray, acc, p: int) -> np.ndarray:
    """``(a @ b + acc) % p`` on canonical residues, broadcast to the product's shape, exact for
    every p < 2^31: terms are summed in groups so small that no partial sum leaves int64."""
    group = max(1, (_INT64_MAX - (p - 1)) // max(1, (p - 1) ** 2))
    for t in range(0, max(1, a.shape[-1]), group):
        prod = a[..., t : t + group] @ b[..., t : t + group, :]
        prod += acc
        acc = mod(prod, p, out=prod)
    return acc


def members_from_coords(
    coords: np.ndarray, base: np.ndarray, basis: np.ndarray, p: int
) -> np.ndarray:
    """Rows ``(base + coords @ basis) % p``, exact for every p < 2^31."""
    return _matmul_mod(coords, basis, mod(base, p), p)


def power(a: np.ndarray, e: int, mul: Callable) -> np.ndarray:
    """a^e under the product ``mul``, by repeated squaring; e >= 1."""
    out = None
    while e:
        if e & 1:
            out = a if out is None else mul(out, a)
        e >>= 1
        a = mul(a, a) if e else a
    return out


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p elementwise (Fermat): the inverse of every nonzero residue."""
    return power(mod(a, p), p - 2, lambda x, y: mod(x * y, p)) if p > 2 else mod(a, p)


def _inverse_table(p: int) -> np.ndarray:
    """Inverses of 0..p-1 (0 maps to 0), a lookup for ``batch_rank``."""
    table = inverse_mod(np.arange(p, dtype=np.int64), p)
    table[0] = 0
    return table


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of matrices over F_p, entries canonical residues.
    Mutates ``mats``.

    Column elimination without row swaps: column c pivots on its first row
    that is nonzero mod p, and every row takes the update
    row -= (col / a) * pivot row on the columns right of c, where a is the
    pivot.  The pivot row takes it too, with factor 1, so it is zero mod p in
    every later column and is never picked again; rows stay where they are and
    no mask of used rows is needed.  When fewer than half of the members pivot
    in a column, those members are gathered, updated and scattered back;
    otherwise the update is in place.  Columns up to c are never read again.

    The ``% p`` is delayed (FFLAS-style): each update moves an entry by at
    most (p-1)^2, so with a bound on |entries| only the column about to be
    tested and the pivot row are reduced, and the columns still to come are
    reduced all at once only when one more update could leave int64.  That is
    never for small p and at every column near 2^31.

    Pivot inverses are looked up in a table of all p residues when p <= k (the
    table costs about what one column's ``inverse_mod`` on k pivots costs), and
    computed by ``inverse_mod`` otherwise.
    """
    k, n, m = mats.shape
    inv_table = _inverse_table(p) if p <= k else None
    r = np.zeros(k, dtype=np.int64)
    every = np.arange(k)
    full = min(n, m)
    step = (p - 1) ** 2  # the most one update moves an entry
    bound = p - 1  # on |entries| of the columns not yet eliminated
    for c in range(m):
        if k == 0 or r.min() >= full:
            break
        col = mod(mats[:, :, c], p)
        nz = col != 0
        has = nz.any(axis=1)
        count = int(np.count_nonzero(has))
        if not count:
            continue
        r += has
        if c + 1 == m:
            break
        piv = nz.argmax(axis=1)
        if 2 * count < k:
            sel = np.nonzero(has)[0]
            col, piv = col[sel], piv[sel]
        else:
            sel = every
        pinv = col[np.arange(sel.size), piv]  # 0 for a member without a pivot
        pinv = inverse_mod(pinv, p) if inv_table is None else inv_table[pinv]
        col *= pinv[:, None]
        mod(col, p, out=col)
        if bound > _INT64_MAX - step:
            mod(mats[:, :, c + 1 :], p, out=mats[:, :, c + 1 :])
            bound = p - 1
        bound += step
        upd = col[:, :, None] * mod(mats[sel, piv, c + 1 :], p)[:, None, :]
        if sel is every:
            mats[:, :, c + 1 :] -= upd
        else:
            mats[sel, :, c + 1 :] -= upd
    return r


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair (i, j) at each position of n x n strict-upper storage, row-major."""
    return np.triu_indices(n, 1)


@lru_cache(maxsize=None)
def _pivot_moves(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row t: the storage of the m x m alternating matrix permuted to the index
    order [i, j, the others ascending], (i, j) pair t, reads position s from
    ``u[at[t, s]]``, negated (p - x for x != 0) where ``flip[t, s]``."""
    pi, pj = _pairs(m)
    at = np.zeros((m, m), dtype=np.int64)
    at[pi, pj] = at[pj, pi] = np.arange(pi.size)
    order = np.array([[i, j, *(l for l in range(m) if l != i and l != j)] for i, j in zip(pi, pj)])
    rows, cols = order[:, pi], order[:, pj]
    return at[rows, cols], rows > cols


def skew_rank(upper: np.ndarray, n: int, p: int) -> np.ndarray:
    """Ranks of a stack of alternating n x n matrices over F_p stored as strict
    upper triangles, shape (k, n(n-1)/2); ``upper`` is left unchanged.

    Bunch's pairwise pivoting on the Schur complement itself.  Each step moves
    every member whose first nonzero pair (i < j), row-major, is not (0, 1) by
    the symmetric permutation [i, j, the others in order] (``_pivot_moves``).
    With a = u[0,1], s0 = row 0 past column 1 over a and r1 = row 1 past column
    1, the rank is 2 plus that of S = u[R,R] + r1 s0^T - s0 r1^T on the other
    indices R; rows 0, 1 and u[R,R] are slices of the storage, which shrinks to
    S.  Members reduced to zero drop out.

    s0 and r1 are canonical residues, so both products lie in [0, (p - 1)^2]
    and every entry and partial sum of S is at most p - 1 + (p - 1)^2 in
    absolute value: the work type is int16 for p <= 181, int32 for p <= 46,337
    and int64 above.  Pivot inverses are looked up in a table when p <= k, as
    in ``batch_rank``.
    """
    k = upper.shape[0]
    work = next(t for t in (np.int16, np.int32, np.int64) if p - 1 + (p - 1) ** 2 <= np.iinfo(t).max)
    inv_table = _inverse_table(p).astype(work) if p <= k else None
    rank = np.zeros(k, dtype=np.int64)
    live = np.arange(k)
    u = upper.astype(work)
    m = n
    while live.size and m > 1:
        t = (u != 0).argmax(axis=1)
        a = u[np.arange(live.size), t]
        has = a != 0
        if not has.all():
            live, u, t, a = live[has], u[has], t[has], a[has]
            if not live.size:
                break
        rank[live] += 2
        move = np.flatnonzero(t)
        if move.size:
            at, flip = _pivot_moves(m)
            moved = u.take(move[:, None] * u.shape[1] + at[t[move]])
            np.subtract(p, moved, out=moved, where=flip[t[move]] & (moved != 0))
            u[move] = moved
        inv = inverse_mod(a, p) if inv_table is None else inv_table[a]
        s0 = mod(u[:, 1 : m - 1] * inv[:, None], p)
        r1, rest = u[:, m - 1 : 2 * m - 3], u[:, 2 * m - 3 :]
        m -= 2
        P, Q = _pairs(m)
        w = r1.take(P, axis=1)
        w *= s0.take(Q, axis=1)
        v = s0.take(P, axis=1)
        v *= r1.take(Q, axis=1)
        w -= v
        w += rest
        u = mod(w, p, out=w)
    return rank


def _full_from_upper(upper: np.ndarray, n: int, p: int) -> np.ndarray:
    """The (k, n, n) alternating stack stored in ``upper``."""
    pi, pj = _pairs(n)
    mats = np.zeros((upper.shape[0], n, n), dtype=np.int64)
    mats[:, pi, pj] = upper
    mats[:, pj, pi] = mod(-upper, p)
    return mats


def alternating_ranks(upper: np.ndarray, n: int, p: int) -> np.ndarray:
    """``skew_rank`` with its leading GUARD_MEMBERS members re-ranked by
    ``batch_rank``; any disagreement raises.  ``upper`` is left unchanged."""
    check = _full_from_upper(upper[:GUARD_MEMBERS], n, p)
    ranks = skew_rank(upper, n, p)
    expect = batch_rank(check, p)
    bad = np.nonzero(ranks[: expect.size] != expect)[0]
    if bad.size:
        raise AssertionError(
            f"skew elimination gave rank {int(ranks[bad[0]])} where column elimination"
            f" gives {int(expect[bad[0]])} (chunk member {int(bad[0])})"
        )
    return ranks


def lex_members(base: np.ndarray, basis: np.ndarray, p: int, q: int) -> Callable[[int, int], np.ndarray]:
    """``members(lo, hi)``: ``members_from_coords(lex_coords(lo, hi, dim, q), base, basis, p)``
    by outer sums, head[i // q^L] + tab[i % q^L] mod p for member i: ``tab`` holds all
    q^L combinations of the last L coordinates (built once per L), q^L <= LEX_TABLE
    and <= hi - lo, and the head rows the other coordinates on ``base``."""
    dim, width = basis.shape
    tables: dict[int, np.ndarray] = {}

    def members(lo: int, hi: int) -> np.ndarray:
        low = 0
        while low < dim and q ** (low + 1) <= min(LEX_TABLE, hi - lo):
            low += 1
        size, high = q**low, dim - low
        if low not in tables:
            tables[low] = members_from_coords(lex_coords(0, size, low, q), np.zeros(width, np.int64), basis[high:], p)
        h0, h1 = lo // size, -(-hi // size)
        head = members_from_coords(lex_coords(h0, h1, high, q), base, basis[:high], p)
        out = (head[:, None] + tables[low]).reshape((h1 - h0) * size, width)[lo - h0 * size : hi - h0 * size]
        np.subtract(out, p, out=out, where=out >= p)
        return out

    return members


Residues = Sequence[tuple[int, np.ndarray, np.ndarray]]  # (p, base_flat, basis_flat) per prime


def _block_ranker(residues: Residues, n: int, m: int, q: int, exhaustive: bool, seed: int, alternating: bool):
    """Rank function of index ranges: (lo, hi) in, the ranks of members lo..hi-1
    out, each the largest of its ranks modulo the primes of ``residues``
    ((p, base_flat, basis_flat) per prime, canonical residue entries).  Member i
    is ``base + c @ basis`` for the i-th lexicographic coordinate tuple c over
    [0, q) (assembled by ``lex_members``) when exhaustive, or the i-th seeded
    draw.  Alternating members are assembled on their strict upper triangles
    and ranked by ``alternating_ranks``, others on every entry by ``batch_rank``."""
    dim = residues[0][2].shape[0]
    mods = []
    for p, base_flat, basis_flat in residues:
        if alternating:
            pi, pj = _pairs(n)
            cols, ranks_of = pi * n + pj, lambda upper, p=p: alternating_ranks(upper, n, p)
        else:
            cols, ranks_of = slice(None), lambda flat, p=p: batch_rank(flat.reshape(len(flat), n, m), p)
        base, basis = base_flat[cols], basis_flat[:, cols]
        mods.append((p, base, basis, lex_members(base, basis, p, q), ranks_of))

    def ranks(lo: int, hi: int) -> np.ndarray:
        coords = None if exhaustive else sampled_coords(seed, lo, hi, dim, q)
        return reduce(np.maximum, (
            ranks_of(lex(lo, hi) if coords is None else members_from_coords(coords, base, basis, p))
            for p, base, basis, lex, ranks_of in mods
        ))
    return ranks


# -- folded scans -------------------------------------------------------------------


def profile_ranks(
    residues: Residues, n: int, m: int, q: int, *, exhaustive: bool, total: int,
    seed: int = 0, alternating: bool = False,
) -> tuple[int, int, int, int]:
    """Fold (min_rank, min_index, max_rank, max_index) over members.

    Member i is ``base + c @ basis`` for the i-th coordinate tuple c over
    [0, q): in lexicographic enumeration order when exhaustive, or the i-th
    seeded draw otherwise.  ``residues`` holds (p, base_flat, basis_flat) for
    each of one or more primes p >= q, with canonical residue entries; a
    member's rank is the largest of its ranks modulo these primes, so one prime
    gives ranks over F_p.  Ties resolve to the least index regardless of
    chunking.
    """
    ranks_of = _block_ranker(residues, n, m, q, exhaustive, seed, alternating)

    def extremes(lo: int, hi: int):
        ranks = ranks_of(lo, hi)
        mn, mx = int(ranks.min()), int(ranks.max())
        return mn, lo + int((ranks == mn).argmax()), mx, lo + int((ranks == mx).argmax())

    parts = [extremes(lo, hi) for lo, hi in chunk_ranges(0, total, n * m)]
    mn, i_mn = min((part[0], part[1]) for part in parts)
    mx, neg_i_mx = max((part[2], -part[3]) for part in parts)
    return mn, i_mn, mx, -neg_i_mx


def first_index(
    residues: Residues, n: int, m: int, q: int, accept: Callable[[np.ndarray], np.ndarray], *,
    exhaustive: bool, total: int, seed: int = 0, alternating: bool = False,
) -> int:
    """The least member index i < total whose rank satisfies ``accept`` (a
    predicate on an array of ranks, elementwise), or -1.

    Members, coordinates and ranks are those of ``profile_ranks``.  Index
    ranges start at 64 members and grow x16 up to the ``chunk_ranges`` size,
    so an early hit costs one small call.
    """
    ranks_of = _block_ranker(residues, n, m, q, exhaustive, seed, alternating)
    cap = _chunk_size(n * m)
    lo, size = 0, min(64, cap)
    while lo < total:
        hi = min(total, lo + size)
        hits = np.flatnonzero(accept(ranks_of(lo, hi)))
        if hits.size:
            return lo + int(hits[0])
        lo, size = hi, min(cap, 16 * size)
    return -1


def unit_eigen_hits(basis_flat: np.ndarray, n: int, p: int):
    """Sorted lex indices of the span members z with an eigenvalue in F_p^*, among those whose
    leading nonzero coordinate is 1: one member per line of the span, the lex index ranges
    [p^k, 2 p^k) for k < dim.

    ``lam * z`` has eigenvalue lam * mu iff z has eigenvalue mu, so the lines of these z carry
    every member with a nonzero eigenvalue in F_p.  As x^(p-1) - 1 is the product of x - lam
    over lam in F_p^*, z has one iff rank(z^(p-1) - I) < n: (p^dim - 1)/(p - 1) ranks instead
    of p^dim, after ceil(log2(p - 1)) batched squarings.  A chunk may span several ranges, so
    a small space costs one round of numpy calls."""
    dim, diag = basis_flat.shape[0], np.arange(n)
    starts = (p ** np.arange(dim) - 1) // (p - 1)  # position of p^k among the line members

    def hits(lo: int, hi: int):
        j = np.arange(lo, hi)
        k = np.searchsorted(starts, j, side="right") - 1
        idx = j - starts[k] + p**k
        coords = mod(idx[:, None] // p ** np.arange(dim - 1, -1, -1), p)
        z = members_from_coords(coords, np.zeros(n * n, np.int64), basis_flat, p).reshape(-1, n, n)
        out = power(z, p - 1, lambda x, y: _matmul_mod(x, y, 0, p))
        out[:, diag, diag] = mod(out[:, diag, diag] - 1, p)
        return idx[batch_rank(out, p) < n]

    parts = [hits(lo, hi) for lo, hi in chunk_ranges(0, (p**dim - 1) // (p - 1), n * n)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
