"""The batched F_p kernels against each other and against exact elimination.

``skew_rank`` (alternating members on strict-upper storage, members on the
last axis as the engine assembles them) is cross-checked
with the general ``batch_rank`` and with ``Matrix.rank`` on seeded stacks that
mix ranks, so members finish at different elimination steps.  ``batch_rank``
is also checked on its own on non-square, non-alternating stacks, at primes
where its delayed reduction never flushes, flushes now and then, and flushes
at every column.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import altrank
from altrank import _engine
from altrank.analyze import rank_profile
from altrank.families import (
    build_bordered_alternating,
    build_corank_one_space,
    build_rank_at_least_space,
)
from altrank.fields import FieldCtx
from altrank.matrices import Matrix
from altrank.spaces import AffineMatrixSpace
from reference import rank_multiset

BIG = 2_147_483_629  # a prime just below 2^31: products of residues reach 2^62
MID = 1_073_741_789  # a prime just below 2^30: batch_rank flushes after 7 updates
PRIMES = (2, 3, 5, 7, BIG)


def alternating_stack(p: int, n: int, seed: int) -> list[list[list[int]]]:
    """A shuffled stack of alternating n x n matrices over F_p: the zero matrix,
    sums of t random rank-two forms x^y for every t <= n/2, and random ones."""
    rng = np.random.default_rng(seed)
    mats = []
    for t in list(range(n // 2 + 1)) * 3:
        a = [[0] * n for _ in range(n)]
        for _ in range(t):
            x = [int(v) for v in rng.integers(0, p, n)]
            y = [int(v) for v in rng.integers(0, p, n)]
            for i in range(n):
                for j in range(n):
                    a[i][j] = (a[i][j] + x[i] * y[j] - y[i] * x[j]) % p
        mats.append(a)
    for _ in range(4):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = int(rng.integers(0, p))
                a[j][i] = -a[i][j] % p
        mats.append(a)
    mats.append([[0] * n for _ in range(n)])
    return [mats[i] for i in rng.permutation(len(mats))]


def upper_of(mats: list, n: int) -> np.ndarray:
    """The strict upper triangles of ``mats``, members-last: shape (n(n-1)/2, k)."""
    pi, pj = np.triu_indices(n, 1)
    full = np.array(mats, dtype=np.int64).reshape(len(mats), n, n)
    return np.ascontiguousarray(full[:, pi, pj].T)


@pytest.mark.parametrize("p", PRIMES + (181, 193, 46_337, 46_349))
@pytest.mark.parametrize("n", range(1, 10))
def test_skew_rank_matches_batch_rank_and_exact(p, n):
    ctx = FieldCtx.prime(p)
    mats = alternating_stack(p, n, seed=1000 * n + p % 1000)
    skew = _engine.skew_rank(upper_of(mats, n), n, p)
    general = _engine.batch_rank(np.array(mats, dtype=np.int64).reshape(-1, n, n), p)
    exact = [Matrix(ctx, m).rank() for m in mats]
    assert [int(r) for r in skew] == [int(r) for r in general] == exact
    assert 0 in exact
    if n >= 2:
        assert len(set(exact)) >= 2  # members leave the stack at different steps


def mixed_stack(p: int, n: int, m: int, seed) -> np.ndarray:
    """A shuffled stack of n x m matrices over F_p: products A @ B of rank at
    most t for every t <= min(n, m), two of each, twelve uniform ones and the
    zero matrix, with the first column cleared in 60% of the members so that
    column 0 pivots in fewer than half of them."""
    rng = np.random.default_rng(seed)
    mats = []
    for t in list(range(min(n, m) + 1)) * 2:
        a = rng.integers(0, p, (n, t)).astype(object)
        b = rng.integers(0, p, (t, m)).astype(object)
        mats.append((a @ b % p).astype(np.int64) if t else np.zeros((n, m), dtype=np.int64))
    mats += [rng.integers(0, p, (n, m)) for _ in range(12)]
    mats.append(np.zeros((n, m), dtype=np.int64))
    out = np.stack(mats)[rng.permutation(len(mats))]
    out[: len(mats) * 3 // 5, :, 0] = 0
    return out[rng.permutation(len(mats))]


def pivots_in_column(ctx, mats, c):
    """How many members pivot in column c: rank grows when column c is added."""
    return sum(
        Matrix(ctx, a[:, : c + 1].tolist()).rank() > (Matrix(ctx, a[:, :c].tolist()).rank() if c else 0)
        for a in mats
    )


@pytest.mark.parametrize("p", PRIMES + (MID,))
@pytest.mark.parametrize("n, m", [(2, 5), (5, 2), (3, 7), (7, 3), (4, 4), (6, 10), (10, 6)])
def test_batch_rank_matches_exact_on_general_stacks(p, n, m):
    ctx = FieldCtx.prime(p)
    mats = mixed_stack(p, n, m, seed=[n, m, p])
    exact = [Matrix(ctx, a.tolist()).rank() for a in mats]
    assert {0, 1, min(n, m)} <= set(exact)
    # column 0 takes the gather/scatter update; with a column between it and
    # the last, some column takes the in-place one
    k = len(mats)
    assert 2 * pivots_in_column(ctx, mats, 0) < k
    assert m < 3 or max(pivots_in_column(ctx, mats, c) for c in range(1, m - 1)) * 2 >= k
    assert _engine.batch_rank(mats.copy(), p).tolist() == exact
    # with p <= k the pivot inverses come from a table; fewer than p members use inverse_mod
    assert _engine.batch_rank(mats[: p - 1].copy(), p).tolist() == exact[: p - 1]


@pytest.mark.parametrize("p", [3, 7, BIG])
@pytest.mark.parametrize("n, m", [(5, 8), (8, 5)])
def test_batch_rank_matches_sympy(p, n, m):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    K = GF(p)
    mats = mixed_stack(p, n, m, seed=[n, m])
    ranks = _engine.batch_rank(mats.copy(), p)
    for a, r in zip(mats, ranks):
        assert DomainMatrix([[K(int(x)) for x in row] for row in a], (n, m), K).rank() == r


def exact_line_hits(sp: AffineMatrixSpace) -> list[int]:
    """Lex indices of the members whose leading nonzero coordinate is 1 and
    that have det(M - lam I) = 0 for some lam in 1..p-1, by exact determinants."""
    p = sp.ctx.p
    eye = Matrix.identity(sp.ctx, sp.shape[0])
    return [
        i for i, (coords, m) in enumerate(sp.enumerate())
        if next((c for c in coords if c), 0) == 1
        and any((m - eye.scale(lam)).det() == 0 for lam in range(1, p))
    ]


def random_space(p: int, n: int, dim: int, seed: int) -> AffineMatrixSpace:
    rng = np.random.default_rng([p, n, dim, seed])
    ctx = FieldCtx.prime(p)
    return AffineMatrixSpace(Matrix.zeros(ctx, n), [Matrix(ctx, rng.integers(0, p, (n, n)).tolist()) for _ in range(dim)])


def extension_only_space(p: int) -> AffineMatrixSpace:
    """4 x 4 members [[a C, X], [0, N]] over F_p: C the companion matrix of an
    irreducible quadratic, X free and N strictly upper.  Every a C has its
    eigenvalues in F_(p^2) outside F_p, so no member has a nonzero eigenvalue
    in F_p, yet C is not nilpotent."""
    ctx = FieldCtx.prime(p)
    if p == 2:
        comp = [[0, 1], [1, 1]]  # x^2 + x + 1
    else:
        a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        comp = [[0, a], [1, 0]]  # x^2 - a, a a non-residue
    first = [[0] * 4 for _ in range(4)]
    first[0][:2], first[1][:2] = comp
    units = []
    for i, j in ((0, 2), (1, 3), (2, 3)):
        u = [[0] * 4 for _ in range(4)]
        u[i][j] = 1
        units.append(Matrix(ctx, u))
    return AffineMatrixSpace(Matrix.zeros(ctx, 4), [Matrix(ctx, first)] + units)


def test_unit_eigen_hits_match_exact_determinants():
    ctx = FieldCtx.prime(5)
    basis = [
        Matrix(ctx, [[1, 2, 0], [0, 3, 1], [4, 0, 2]]),
        Matrix(ctx, [[0, 1, 1], [2, 0, 0], [1, 1, 3]]),
        Matrix(ctx, [[2, 0, 4], [1, 1, 0], [0, 3, 1]]),
    ]
    nontrivial = [AffineMatrixSpace(Matrix.zeros(ctx, 3), basis)]
    nontrivial += [random_space(*args) for args in ((2, 2, 3, 2), (2, 3, 4, 1), (2, 4, 5, 1), (3, 3, 3, 1), (7, 2, 2, 1))]
    trivial = [extension_only_space(p) for p in (2, 3, 5)]
    for sp, some in [(sp, True) for sp in nontrivial] + [(sp, False) for sp in trivial]:
        hits = _engine.unit_eigen_hits(sp.flat_arrays()[1], sp.shape[0], sp.ctx.p)
        assert hits.tolist() == exact_line_hits(sp), (sp.ctx.p, sp.shape, sp.dim)
        assert bool(hits.size) == some


def test_unit_eigen_hits_chunks_span_index_ranges(monkeypatch):
    # chunks of 1024 line members over 3280 lines: chunk boundaries fall
    # inside the index ranges [3^k, 2 * 3^k) and a chunk holds several ranges
    sp = random_space(3, 3, 8, 1)
    want = exact_line_hits(sp)
    monkeypatch.setattr(_engine, "_CHUNK_ELEMS", 1)
    assert _engine.unit_eigen_hits(sp.flat_arrays()[1], 3, 3).tolist() == want
    assert 0 < len(want) < 3280


def reference_matrix_power(a: list[list[int]], e: int, p: int) -> list[list[int]]:
    """a^e mod p in Python integers, by repeated squaring."""
    def mul(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(len(y))) % p for j in range(len(y[0]))] for i in range(len(x))]
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    while e:
        if e & 1:
            out = mul(out, a)
        a, e = mul(a, a), e >> 1
    return out


@pytest.mark.parametrize("p", [1_048_583, BIG])
def test_matrix_power_is_exact_near_2_31(p):
    rng = np.random.default_rng(p)
    stack = rng.integers(0, p, (6, 5, 5))
    stack[0] = p - 1  # every product term as large as it gets
    for e in (1, 2, 3, 1000, p - 1):
        got = _engine.power(stack, e, lambda x, y: _engine._matmul_mod(x, y, 0, p))
        assert got.tolist() == [reference_matrix_power(a.tolist(), e, p) for a in stack], e


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", [0, 1])
def test_tiny_stacks(p, k):
    n = 6
    mats = alternating_stack(p, n, seed=7)[:k]
    up = upper_of(mats, n) if k else np.zeros((n * (n - 1) // 2, 0), dtype=np.int64)
    full = np.array(mats, dtype=np.int64).reshape(k, n, n)
    skew = _engine.skew_rank(up.copy(), n, p)
    assert skew.shape == (k,) and (skew == _engine.batch_rank(full, p)).all()
    assert (_engine.alternating_ranks(up, n, p) == [Matrix(FieldCtx.prime(p), m).rank() for m in mats]).all()


def test_empty_members_rank_zero():
    # n = 0: every member is the empty matrix, so the elimination loop must not run
    for n in (0, 1):
        up = np.zeros((0, 3), dtype=np.int64)
        assert _engine.skew_rank(up.copy(), n, 3).tolist() == [0, 0, 0]
        assert _engine.alternating_ranks(up, n, 3).tolist() == [0, 0, 0]
        sp = AffineMatrixSpace(Matrix.zeros(FieldCtx.prime(3), n), [])
        assert rank_multiset(sp) == {0: 1}
        prof = rank_profile(sp)
        assert (prof.min_rank, prof.max_rank, prof.checked) == (0, 0, 1)


def oracle_spaces(p: int):
    """Seeded spaces over F_p of at most about 800 members, alternating (n = 2..6)
    and general (2 x 3, 3 x 3, 4 x 2, 3 x 5), dimension 0 included; a zero base
    now and then, so rank 0 occurs."""
    ctx = FieldCtx.prime(p)
    rng = np.random.default_rng([p, 28])
    shapes = [(n, n, True) for n in range(2, 7)] + [(2, 3, False), (3, 3, False), (4, 2, False), (3, 5, False)]
    for n, m, alternating in shapes:
        def draw():
            a = rng.integers(0, p, (n, m))
            return Matrix(ctx, ((np.triu(a, 1) - np.triu(a, 1).T) % p if alternating else a).tolist())

        top = max(d for d in range(1 + (n * (n - 1) // 2 if alternating else n * m)) if p**d <= 800)
        for dim in sorted({0, 1, top}):
            base = Matrix.zeros(ctx, n, m) if rng.integers(0, 3) == 0 else draw()
            while True:
                try:
                    yield AffineMatrixSpace(base, [draw() for _ in range(dim)])
                    break
                except ValueError:  # a dependent draw
                    continue


@pytest.mark.parametrize("table", [_engine.LEX_TABLE, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exhaustive_profile_matches_the_exact_rank_multiset(p, table, monkeypatch):
    # rank_multiset ranks every member by Matrix.rank, outside the engine; a
    # 2-row outer-sum table puts most coordinates in the head rows
    monkeypatch.setattr(_engine, "LEX_TABLE", table)
    seen = 0
    for sp in oracle_spaces(p):
        counts = rank_multiset(sp)
        prof = rank_profile(sp)
        assert prof.method == "exhaustive"
        assert (prof.min_rank, prof.max_rank, prof.checked) == (min(counts), max(counts), sum(counts.values())), sp
        seen += len(counts) > 1
    assert seen >= 10  # most spaces mix ranks


def test_rank_multiset_over_q_only_at_dimension_zero():
    q = FieldCtx.rational()
    base = Matrix(q, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert rank_multiset(AffineMatrixSpace(base, [])) == {2: 1}
    with pytest.raises(ValueError):
        rank_multiset(AffineMatrixSpace(base, [Matrix(q, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])]))


@pytest.mark.parametrize("p", [3, 7, 131, 32_771, BIG])
def test_skew_rank_matches_sympy(p):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    K = GF(p)
    n = 8
    mats = alternating_stack(p, n, seed=11)
    skew = _engine.skew_rank(upper_of(mats, n), n, p)
    for m, r in zip(mats, skew):
        assert DomainMatrix([[K(x) for x in row] for row in m], (n, n), K).rank() == r


@pytest.mark.parametrize("p", [113, 127, 131, 32_749, 32_771, 1_048_583, BIG])
@pytest.mark.parametrize("n", range(2, 10))
def test_skew_rank_at_its_work_type_boundaries(p, n, monkeypatch):
    # the entries of a fraction-free step lie in [-(p - 1)^2, 2 (p - 1)^2]: int16
    # holds them up to p = 127 and int32 up to p = 32,749.  Below 2^16 the stack
    # is tiled past p members; at no size does skew_rank invert a pivot
    ctx = FieldCtx.prime(p)
    mats = alternating_stack(p, n, seed=n + p)
    exact = [Matrix(ctx, m).rank() for m in mats]
    assert set(exact) == set(range(0, n + 1, 2))
    reps = p // len(mats) + 1 if p < 1 << 16 else 1
    upper = np.tile(upper_of(mats, n), (1, reps))
    before = upper.copy()
    calls = []
    for name in ("inverse_mod", "_inverse_table"):
        monkeypatch.setattr(_engine, name, lambda *args, name=name: calls.append(name))
    skew = _engine.skew_rank(upper, n, p)
    monkeypatch.undo()
    assert not calls
    assert skew.tolist() == exact * reps
    assert _engine.batch_rank(np.array(mats, dtype=np.int64), p).tolist() == exact
    assert (upper == before).all()


def extreme_stack(p: int, n: int, seed: int) -> list[list[list[int]]]:
    """Alternating n x n matrices over F_p whose entries are mostly 1 and p - 1:
    sums of t forms x^y with x, y in {0, 1, p - 1}^n for every t <= n/2, and
    matrices with every upper entry p - 1 or 1, so that the products of a
    skew elimination step reach (p - 1)^2 in both signs."""
    rng = np.random.default_rng(seed)
    mats = []
    for t in list(range(n // 2 + 1)) * 6:
        a = np.zeros((n, n), dtype=np.int64)
        for _ in range(t):
            x, y = rng.choice([0, 1, p - 1], (2, n), p=[0.2, 0.2, 0.6])
            a = (a + np.outer(x, y) - np.outer(y, x)) % p
        mats.append(a)
    for fill in (p - 1, 1):
        a = np.triu(np.full((n, n), fill, dtype=np.int64), 1)
        mats.append((a - a.T) % p)
    return [m.tolist() for m in mats]


@pytest.mark.parametrize("p", [127, 131, 181, 191, 32_749, 32_771, 46_337, 46_349])
def test_skew_rank_on_extreme_entries_at_the_work_type_bounds(p):
    # 127/131 and 32,749/32,771 are the last prime that one work type holds,
    # 2 (p - 1)^2, and the next prime, which needs the wider type: a type one
    # prime too narrow overflows on these stacks; 181/191 and 46,337/46,349
    # are pairs inside the wider types
    ctx = FieldCtx.prime(p)
    for n in (4, 7, 8):
        mats = extreme_stack(p, n, seed=p + n)
        exact = [Matrix(ctx, m).rank() for m in mats]
        assert set(exact) == set(range(0, n + 1, 2))
        assert _engine.skew_rank(upper_of(mats, n), n, p).tolist() == exact
        assert _engine.batch_rank(np.array(mats, dtype=np.int64), p).tolist() == exact


def pivoting_at(p: int, n: int, t: int, seed: int) -> np.ndarray:
    """An alternating n x n matrix over F_p whose first nonzero pair, row-major,
    is storage position t: the pairs before t are zero, pair t is not, and the
    pairs after t are random."""
    pi, pj = np.triu_indices(n, 1)
    rng = np.random.default_rng(seed)
    up = rng.integers(0, p, pi.size)
    up[:t] = 0
    up[t] = rng.integers(1, p)
    a = np.zeros((n, n), dtype=np.int64)
    a[pi, pj] = up
    a[pj, pi] = -up % p
    return a


@pytest.mark.parametrize("p", [3, 7, 193, BIG])
@pytest.mark.parametrize("n", range(2, 10))
def test_skew_rank_pivots_from_every_position(p, n):
    # one member per first nonzero pair t of the first step at local size n,
    # three seeds each: row 0 first nonzero at every column, and a zero row 0
    # with the first nonzero pair in every later row; later steps fix again
    ctx = FieldCtx.prime(p)
    count = n * (n - 1) // 2
    mats = [pivoting_at(p, n, t, seed=[p % 1000, n, t, s]) for t in range(count) for s in range(3)]
    up = upper_of(mats, n)
    assert sorted(set((up != 0).argmax(axis=0).tolist())) == list(range(count))
    exact = [Matrix(ctx, a.tolist()).rank() for a in mats]
    assert _engine.skew_rank(up, n, p).tolist() == exact
    assert _engine.batch_rank(np.array(mats), p).tolist() == exact


def wedge_sum(p: int, n: int, s: int, rng) -> np.ndarray:
    """A sum of s forms x^y, with x and y half zero: rank at most 2s, and
    pivot fix-ups at later steps too."""
    a = np.zeros((n, n), dtype=np.int64)
    for _ in range(s):
        x, y = rng.integers(0, p, (2, n)) * rng.integers(0, 2, (2, n))
        a = (a + np.outer(x, y) - np.outer(y, x)) % p
    return a


@pytest.mark.parametrize("p", [2, 3, 181, 191, 46_337, 46_349, BIG])
def test_skew_rank_on_every_kind_of_pivot_fixup(p):
    # one stack per size of: members with u[0,1] != 0; with u[0,1] = 0 and row
    # 0 first nonzero at each column; with row 0 zero and the first nonzero
    # pair in each later row; zero members; and sums of s sparse forms, which
    # drop out after s steps for every s
    ctx = FieldCtx.prime(p)
    for n in (8, 9):
        rng = np.random.default_rng([p % 1000, n])
        pi, pj = np.triu_indices(n, 1)
        firsts = [t for t in range(pi.size) if pi[t] == 0 or pj[t] == pi[t] + 1]
        mats = [pivoting_at(p, n, t, seed=[p % 1000, n, t, s]) for t in firsts for s in range(3)]
        mats += [wedge_sum(p, n, s, rng) for s in range(n // 2 + 1) for _ in range(6)]
        mats += [np.zeros((n, n), dtype=np.int64)] * 3
        mats = [mats[i] for i in rng.permutation(len(mats))]
        up = upper_of(mats, n)
        assert set(firsts) <= set((up != 0).argmax(axis=0).tolist())
        exact = [Matrix(ctx, a.tolist()).rank() for a in mats]
        assert set(exact) == set(range(0, n + 1, 2))
        assert _engine.skew_rank(up, n, p).tolist() == exact
        assert _engine.alternating_ranks(up, n, p).tolist() == exact
        assert _engine.batch_rank(np.array(mats), p).tolist() == exact


@pytest.mark.parametrize("p", [2, 5, 181, 46_337, BIG])
@pytest.mark.parametrize("zero_rows", [1, 2, 3])
def test_skew_rank_when_no_member_pivots_at_0_1(p, zero_rows):
    # the leading rows and columns are zero in every member, so no pair in
    # row 0 pivots at the first step, and some members move again later
    ctx = FieldCtx.prime(p)
    n = 8
    mats = []
    for a in alternating_stack(p, n, seed=zero_rows + p % 1000):
        a = np.array(a)
        a[:zero_rows] = 0
        a[:, :zero_rows] = 0
        mats.append(a)
    up = upper_of(mats, n)
    assert not up[0].any()
    exact = [Matrix(ctx, a.tolist()).rank() for a in mats]
    assert len(set(exact)) >= 3
    assert _engine.skew_rank(up, n, p).tolist() == exact
    assert _engine.alternating_ranks(up, n, p).tolist() == exact


@pytest.mark.parametrize("p", [2, 3, 181, 193, 46_337, 46_349, BIG])
def test_skew_rank_leaves_its_input_unchanged(p):
    n = 7
    up = upper_of(alternating_stack(p, n, seed=p % 1000), n)
    before = up.copy()
    _engine.skew_rank(up, n, p)
    _engine.alternating_ranks(up, n, p)
    assert (up == before).all()


@pytest.mark.parametrize("p", [3, 32_771, 46_349])
@pytest.mark.parametrize("m", range(4, 10))
def test_pair_move_is_a_congruence(m, p):
    # for every pair t = (i, j), the moved storage is the strict upper triangle
    # of P^T X P, P the permutation matrix of the index order (i, j, the rest
    # ascending), exactly; from 32,771 on the work type, and so each sign flip, is int64
    ctx = FieldCtx.prime(p)
    pi, pj = np.triu_indices(m, 1)
    rng = np.random.default_rng([m, p])
    mats = [np.array(a) for a in alternating_stack(p, m, seed=m + p)[:4]]
    mats.append(np.triu(np.full((m, m), p - 1), 1) + np.tril(np.ones((m, m), dtype=np.int64), -1))
    mats.append(pivoting_at(p, m, int(rng.integers(pi.size)), seed=m))
    up = upper_of(mats, m).astype(_engine.work_type(2 * (p - 1) ** 2))
    before = up.copy()
    for t, (i, j) in enumerate(zip(pi, pj)):
        moved = _engine._move_pair(up, m, t, p)
        assert moved.dtype == up.dtype and moved.flags.c_contiguous and (up == before).all()
        order = [int(i), int(j)] + [x for x in range(m) if x not in (i, j)]
        perm = Matrix(ctx, [[int(order[b] == a) for b in range(m)] for a in range(m)])
        for c, a in enumerate(mats):
            want = (perm.T @ Matrix(ctx, a.tolist()) @ perm).data
            assert moved[:, c].tolist() == [want[x][y] for x, y in zip(pi, pj)], (t, c)
            assert moved[0, c] == a[i, j]


def test_skew_rank_fixes_pivots_of_survivors_after_members_drop(monkeypatch):
    # zero members drop out at the first step and survivors still zero at
    # (0, 1) at the second move as a group: the group move must write into the
    # filtered stack, not into a copy of it; a strided view of the input ranks
    # the same
    p, n = 2, 6
    mats = alternating_stack(p, n, seed=6002)
    calls, real = [], _engine._move_pair

    def spy(u, m, t, p):
        calls.append((m, u.shape[1]))
        return real(u, m, t, p)

    monkeypatch.setattr(_engine, "_move_pair", spy)
    ranks = _engine.skew_rank(upper_of(mats, n), n, p).tolist()
    exact = [Matrix(FieldCtx.prime(p), a).rank() for a in mats]
    assert ranks == _engine.batch_rank(np.array(mats, dtype=np.int64), p).tolist() == exact
    assert 0 in exact and 4 in exact and 6 in exact
    survivors = sum(r > 0 for r in exact)  # the stack at m = 4, once the zero members drop
    assert any(m == 4 and k < survivors for m, k in calls), calls
    strided = upper_of(mats, n)[:, ::2]
    assert not strided.flags.c_contiguous
    assert _engine.skew_rank(strided, n, p).tolist() == exact[::2]


@pytest.mark.parametrize("build, n, p, param, samples", [
    (build_bordered_alternating, 9, 5, 1, 1),  # exhaustive: 5^7 members, the first chunk 51,781
    (build_rank_at_least_space, 8, 3, 6, 1 << 16),  # sampled: one chunk of 65,536
])
def test_skew_rank_matches_batch_rank_on_a_whole_engine_chunk(build, n, p, param, samples, monkeypatch):
    # m-tilde-alt at (9, F_5) and h-bar at (8, F_3), as the engine assembles
    # them: every member, not only the leading GUARD_MEMBERS
    chunks, real = [], _engine.alternating_ranks
    monkeypatch.setattr(_engine, "alternating_ranks", lambda up, n, p: chunks.append(up.copy()) or real(up, n, p))
    rank_profile(build(FieldCtx.prime(p), n, param), seed=9, samples=samples)
    upper = chunks[0]
    assert upper.shape[1] == _engine._chunk_size(n * n) > _engine.GUARD_MEMBERS
    ranks = _engine.skew_rank(upper, n, p)
    assert ranks.tolist() == _engine.batch_rank(_engine._full_from_upper(upper, n, p), p).tolist()


def lex_reference(base, basis, p, q, lo, hi):
    """Lexicographic members lo..hi-1 by the int64 ``_matmul_mod``, transposed to members-last."""
    return _engine._matmul_mod(_engine.lex_coords(lo, hi, basis.shape[0], q), basis, base, p).T


def lex_ranges(q: int, dim: int):
    """Index ranges of the q^dim lexicographic members: single members, ranges
    inside one block and across blocks of every table size, none aligned."""
    total = q**dim
    out = {(0, total), (0, 1), (total - 1, total), (0, min(total, 64))}
    for size in {q**k for k in range(dim + 1)}:
        for lo in (1, size - 1, size + 1):
            for length in (1, size - 1, size + 2, 3 * size + 1):
                if lo < total and length:
                    out.add((lo, min(total, lo + length)))
    return sorted(out)


@pytest.mark.parametrize("p, q, dim, width", [
    (7, 7, 4, 21), (3, 3, 6, 10), (5, 5, 3, 1), (7, 7, 3, 0), (5, 5, 0, 6), (5, 5, 0, 0), (10_007, 3, 4, 6),
    (BIG, 2, 5, 9),
])
def test_lex_members_match_members_from_coords(p, q, dim, width):
    # width 0 is the storage of an alternating n x n space with n in {0, 1};
    # the work type is int16, then int32 at p = 10,007 and int64 at BIG
    rng = np.random.default_rng([p % 1000, q, dim, width])
    base, basis = rng.integers(0, p, width), rng.integers(0, p, (dim, width))
    members = _engine.lex_members(base, basis, p, q)
    work = _engine.work_type(dim * (p - 1) ** 2 + p - 1)
    for lo, hi in lex_ranges(q, dim):
        want = lex_reference(base, basis, p, q, lo, hi)
        direct = _engine.members_from_coords(_engine.lex_coords(lo, hi, dim, q), base, basis, p)
        for got in (members(lo, hi), direct):
            assert got.shape == (width, hi - lo) and got.dtype == work
            assert (got == want).all(), (lo, hi)


def test_lex_members_at_the_table_cap():
    # 2^12 = LEX_TABLE, so a range of at least 4096 members uses the whole
    # 12-coordinate table, with one more high coordinate in the head rows
    p, q, dim = 2, 2, 13
    assert q**12 == _engine.LEX_TABLE
    rng = np.random.default_rng(12)
    base, basis = rng.integers(0, p, 15), rng.integers(0, p, (dim, 15))
    members = _engine.lex_members(base, basis, p, q)
    for lo, hi in [(0, 4096), (0, 2**13), (1, 4097), (4095, 2**13), (100, 8000), (5, 6)]:
        assert (members(lo, hi) == lex_reference(base, basis, p, q, lo, hi)).all(), (lo, hi)


def test_lex_members_for_the_primes_of_a_rational_walk():
    # over Q the coordinates run over [0, 2 box + 1) and the residues are taken
    # modulo several primes below 2^31, each assembled on its own table
    from altrank.analyze import _rational_residues
    from altrank.rand import DEFAULT_RATIONAL_BOX

    sp = build_corank_one_space(FieldCtx.rational(), 2)
    residues = _rational_residues(sp, DEFAULT_RATIONAL_BOX)
    assert len(residues) >= 2 and sp.dim >= 2
    q = 2 * DEFAULT_RATIONAL_BOX + 1
    for p, base, basis in residues:
        members = _engine.lex_members(base, basis, p, q)
        for lo, hi in [(0, q), (1, 2 * q + 5), (q - 1, q + 1), (3 * q + 7, 3 * q + 4103), (q**sp.dim - 9, q**sp.dim)]:
            assert (members(lo, hi) == lex_reference(base, basis, p, q, lo, hi)).all(), (p, lo, hi)


def mod_cases(dtype, p):
    """Arrays over ``dtype`` with negative entries (signed types), entries at
    +-(max - (p-1)^2), one block or less, a partial last block, sizes on both
    sides of the ``np.remainder`` switch (1,024) and of one block (2^15), and empty."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng([p, info.bits, info.min < 0])
    edge = info.max - (p - 1) ** 2
    lo = -edge if info.min < 0 else 0
    big = rng.integers(lo, edge, (1000, 37), dtype=dtype, endpoint=True)  # 885 rows a block
    big[0, :4] = [edge, lo, edge - 1, lo + 1]
    big[1, :3] = [0, p - 1, p]
    return [
        big,
        big.transpose(),
        rng.integers(lo, edge, 3 * 2**15 + 5, dtype=dtype),
        rng.integers(lo, edge, (40, 2, 900), dtype=dtype),
        big[:7],
        *(rng.integers(lo, edge, size, dtype=dtype) for size in (1023, 1024, 1025, 2**15, 2**15 + 1)),
        rng.integers(lo, edge, (41, 25), dtype=dtype),  # 1,025 entries over two axes
        np.zeros((0, 5), dtype=dtype),
        np.zeros(0, dtype=dtype),
    ]


@pytest.mark.parametrize(
    "dtype, p",
    [(np.int16, 3), (np.int16, 127), (np.int32, 131), (np.int32, 32_749), (np.int64, 2),
     (np.int64, 7), (np.int64, BIG), (np.uint64, 5), (np.uint64, BIG)],
)
def test_mod_matches_remainder(dtype, p):
    cases = mod_cases(dtype, p)
    for x in cases:
        want = np.remainder(x, p)
        got = _engine.mod(x, p)
        assert got.dtype == x.dtype and got.shape == x.shape and (got == want).all()
        inplace = x.copy()
        assert _engine.mod(inplace, p, out=inplace) is inplace and (inplace == want).all()
    x = cases[0]
    u = np.full((x.shape[0], x.shape[1] + 8), 1, dtype=dtype)
    _engine.mod(x, p, out=u[:, 8:])  # a non-contiguous out
    assert (u[:, 8:] == np.remainder(x, p)).all() and (u[:, :8] == 1).all()


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_mod(p):
    a = np.array(sorted({1, 2 % p or 1, p - 1, p // 2 or 1, (p * 7) // 9 or 1}), dtype=np.int64)
    assert ((_engine.inverse_mod(a, p) * a) % p == 1).all()


@pytest.mark.parametrize("p, dims, work", [
    (181, [1], np.int16), (181, [2], np.int32), (191, [1], np.int32),
    (46_337, [1], np.int32), (46_337, [2], np.int64),
    (3, range(36), np.int16), (5, range(36), np.int16), (7, range(36), np.int16),
])
def test_narrow_assembly_matches_matmul_mod(p, dims, work):
    # both sides of each step of the width ladder: the bound dim (p-1)^2 + p - 1
    # is 32,580 at (181, 1), 64,980 at (181, 2), 36,290 at (191, 1), 2,147,071,232
    # at (46,337, 1) and past 2^31 at (46,337, 2); and the grid's own shapes, p <= 7
    # at dim <= 35.  Row 0, column 0 is the bound itself.
    for dim in dims:
        rng = np.random.default_rng([p, dim])
        coords = np.vstack([np.full((1, dim), p - 1), rng.integers(0, p, (300, dim))])
        basis, base = rng.integers(0, p, (dim, 36)), rng.integers(0, p, 36)
        basis[:, 0], base[0] = p - 1, p - 1
        want = _engine._matmul_mod(coords, basis, base, p)
        assert want[0, 0] == (dim * (p - 1) ** 2 + p - 1) % p
        # sampled coordinates come in their own ladder type, and a column gather
        # of the flat basis (as the block ranker makes) is Fortran-ordered
        for c, b in ((coords, basis), (coords.astype(_engine.work_type(p - 1)), np.asfortranarray(basis))):
            got = _engine.members_from_coords(c, base, b, p)
            assert got.dtype == work and (got == want.T).all(), dim


def test_sampled_profile_of_the_9_6_f7_h_bar_cell_is_unchanged():
    # a sampled grid cell (dim 27 over F_7), assembled in int16: the extremes and
    # their indices are those the int64 product gave, and those of an int64
    # reference built with _matmul_mod and ranked by batch_rank
    p, n, seed, total = 7, 9, 20260814, 20000
    sp = build_rank_at_least_space(FieldCtx.prime(p), n, 6)
    base, basis = sp.flat_arrays()
    got = _engine.profile_ranks(
        [(p, base, basis)], n, n, p, exhaustive=False, total=total, seed=seed, alternating=True
    )
    assert got == (6, 193, 8, 0)
    coords = _engine.sampled_coords(seed, 0, total, sp.dim, p)
    assert coords.dtype == np.int16
    ranks = _engine.batch_rank(_engine._matmul_mod(coords.astype(np.int64), basis, base, p).reshape(-1, n, n), p)
    assert got == (ranks.min(), ranks.argmin(), ranks.max(), ranks.argmax())
    prof = rank_profile(sp, budget=10**5, samples=total, seed=seed)
    assert (prof.min_rank, prof.max_rank) == (6, 8)
    assert (prof.witness_min, prof.witness_max) == tuple(tuple(int(c) for c in coords[i]) for i in (193, 0))


def test_members_from_coords_is_exact_near_2_31():
    # coordinates and generators just below p, members-last, on each rung of
    # the width ladder: int16 at p = 73, int32 at 10,007 and int64 near 2^31
    for p, work in ((73, np.int16), (10_007, np.int32), (BIG, np.int64)):
        rng = np.random.default_rng(5)
        coords = rng.integers(p - 50, p, (40, 6))
        basis = rng.integers(p - 50, p, (6, 10))
        base = rng.integers(0, p, 10)
        got = _engine.members_from_coords(coords, base, basis, p)
        want = [
            [(int(base[c]) + sum(int(coords[i, t]) * int(basis[t, c]) for t in range(6))) % p for i in range(40)]
            for c in range(10)
        ]
        assert got.dtype == work and got.tolist() == want
        assert (got == _engine._matmul_mod(coords, basis, base, p).T).all()


@pytest.mark.parametrize(
    "build",
    [
        lambda ctx: build_rank_at_least_space(ctx, 4, 2),
        lambda ctx: build_bordered_alternating(ctx, 5, 1),
        lambda ctx: build_corank_one_space(ctx, 2),
    ],
    ids=["h-bar", "m-tilde-alt", "h-plus"],
)
def test_rank_profile_near_2_31(build):
    sp = build(FieldCtx.prime(BIG))
    prof = rank_profile(sp, seed=3, samples=300)
    assert prof.method == "sampled" and prof.checked == 300
    assert prof.min_rank >= 2 and prof.max_rank <= 4
    for coords, r in ((prof.witness_min, prof.min_rank), (prof.witness_max, prof.max_rank)):
        assert sp.member_at(coords).rank() == r


WRONG_KERNEL = """
from altrank import _engine
from altrank.analyze import rank_profile
from altrank.families import build_bordered_alternating
from altrank.fields import FieldCtx

real = _engine.skew_rank

def wrong(upper, n, p):
    ranks = real(upper, n, p)
    ranks[3] += 2
    return ranks

_engine.skew_rank = wrong
rank_profile(build_bordered_alternating(FieldCtx.prime(3), 5, 1))
"""


def test_guard_catches_a_wrong_kernel_under_optimize():
    src = str(Path(altrank.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_KERNEL],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "AssertionError: skew elimination gave rank 4" in proc.stderr


def test_profile_is_partition_independent_on_the_skew_path(monkeypatch):
    # three chunks by default, about a hundred of 1024 members each when
    # _CHUNK_ELEMS is 1: both fold to one profile
    sp = build_rank_at_least_space(FieldCtx.prime(3), 9, 4)
    samples = 2 * 2**22 // 81 + 7
    default = rank_profile(sp, seed=5, samples=samples)
    monkeypatch.setattr(_engine, "_CHUNK_ELEMS", 1)
    assert rank_profile(sp, seed=5, samples=samples) == default
    assert default.min_rank < default.max_rank


def test_exhaustive_profile_is_chunk_independent(monkeypatch):
    # the chunks of one exhaustive walk share their ranker's outer-sum tables:
    # four chunks by default, and 519 of 1024 members (not a multiple of the
    # 3^6-row table) when _CHUNK_ELEMS is 1, fold to one profile
    p, n, dim = 3, 5, 12
    pi, pj = np.triu_indices(n, 1)
    rng = np.random.default_rng(8)
    basis = np.zeros((dim, n, n), dtype=np.int64)
    basis[:, pi, pj] = rng.integers(0, p, (dim, pi.size))
    basis[:, pj, pi] = -basis[:, pi, pj] % p
    residues = [(p, np.zeros(n * n, dtype=np.int64), basis.reshape(dim, n * n))]
    assert p**dim > 3 * _engine._chunk_size(n * n)
    got = [_engine.profile_ranks(residues, n, n, p, exhaustive=True, total=p**dim, alternating=True)]
    monkeypatch.setattr(_engine, "_CHUNK_ELEMS", 1)
    got.append(_engine.profile_ranks(residues, n, n, p, exhaustive=True, total=p**dim, alternating=True))
    assert got[0] == got[1]
    assert got[0][0] == 0 and got[0][2] == 4


@pytest.mark.parametrize("alternating", [False, True])
def test_first_index_finds_a_planted_member_in_every_block(alternating):
    # 7^5 members walked in blocks of 64, 1024 and then the rest; the member
    # at the planted index is the only zero one, since the basis is independent
    p, dim, n = 7, 5, 4
    m = n if alternating else 3
    rng = np.random.default_rng(5)
    if alternating:
        pi, pj = np.triu_indices(n, 1)
        basis = np.zeros((dim, n, n), dtype=np.int64)
        basis[:, pi, pj] = rng.integers(0, p, (dim, pi.size))
        basis[:, pj, pi] = -basis[:, pi, pj] % p
        basis = basis.reshape(dim, n * n)
    else:
        basis = rng.integers(0, p, (dim, n * m))
    assert Matrix(FieldCtx.prime(p), basis.tolist()).rank() == dim
    total = p**dim
    for planted in (0, 63, 64, 1087, 1088, 5000, total - 1):
        base = -(_engine.lex_coords(planted, planted + 1, dim, p)[0] @ basis) % p
        got = _engine.first_index(
            [(p, base, basis)], n, m, p, lambda ranks: ranks == 0,
            exhaustive=True, total=total, alternating=alternating,
        )
        assert got == planted and type(got) is int
    never = _engine.first_index(
        [(p, base, basis)], n, m, p, lambda ranks: ranks > n,
        exhaustive=True, total=total, alternating=alternating,
    )
    assert never == -1


@pytest.mark.parametrize("target", [0, 1, 2, 3])
def test_first_index_sampled_matches_exact_reference_loop(target):
    p, dim, n, m, seed = 3, 4, 3, 4, 21
    rng = np.random.default_rng(6)
    base, basis = rng.integers(0, p, n * m), rng.integers(0, p, (dim, n * m))
    ctx = FieldCtx.prime(p)
    coords = _engine.sampled_coords(seed, 0, 400, dim, p)
    members = (base + coords @ basis) % p
    want = next(
        (i for i, flat in enumerate(members) if Matrix(ctx, flat.reshape(n, m).tolist()).rank() == target),
        -1,
    )
    got = _engine.first_index(
        [(p, base, basis)], n, m, p, lambda ranks: ranks == target,
        exhaustive=False, total=400, seed=seed,
    )
    assert got == want
