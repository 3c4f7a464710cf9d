import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from pathlib import Path

import numpy as np
import pytest

from altrank import _engine, reduction, spaces
from altrank.analyze import _member_coords
from altrank.cli import main
from altrank.errors import BudgetExceededError
from altrank.families import build_bordered_alternating, optimal_dimension_formula
from altrank.fields import FieldCtx
from altrank.matrices import Matrix, alternating_from_upper, span_dim, upper_pairs
from altrank.rand import (
    DEFAULT_RATIONAL_BOX,
    CounterStream,
    derive_seed,
    random_alternating,
    random_invertible,
    random_matrix,
    uniform_below,
)
from altrank.spaces import (
    AffineMatrixSpace,
    Span,
    congruence_act,
    echelon_bases,
    equivalence_act,
    equivalence_images,
    exhaustive_optimal_dimension,
    gaussian_binomial,
    spaces_equal,
)
import reference
from reference import brute_equivalence_test, rank_multiset

F2 = FieldCtx.prime(2)
F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
Q = FieldCtx.rational()


def unit(ctx, n, i, j):
    m = [[ctx.zero()] * n for _ in range(n)]
    m[i][j] = ctx.one()
    return Matrix(ctx, m)


def full_alternating_space(ctx, n):
    zero = Matrix.zeros(ctx, n)
    gens = [
        alternating_from_upper(ctx, n, [1 if t == u else 0 for t in range(len(upper_pairs(n)))])
        for u in range(len(upper_pairs(n)))
    ]
    return AffineMatrixSpace(zero, gens)


# -- Span ------------------------------------------------------------------------------


def test_span_reduce_and_contains():
    sp = Span(F5, [(1, 2, 0), (0, 0, 1)])
    assert sp.dim == 2
    assert sp.contains((2, 4, 3))
    assert not sp.contains((0, 1, 0))
    assert sp.reduce((1, 2, 1)) == (0, 0, 0)
    residual = sp.reduce((0, 1, 0))
    assert residual != (0, 0, 0)
    # reduction is idempotent
    assert sp.reduce(residual) == residual


def test_span_empty_needs_width():
    with pytest.raises(ValueError):
        Span(F5, [])
    sp = Span(F5, [], width=4)
    assert sp.dim == 0 and not sp.contains((1, 0, 0, 0))


def test_span_basis_is_echelon():
    sp = Span(F5, [(2, 4, 0), (1, 2, 1)])
    assert sp.rows == [(1, 2, 0), (0, 0, 1)] and sp.pivots == [0, 2]


def _span_inputs(ctx, seed, count=12, width=6):
    """Seeded vectors of which every third is a combination of earlier ones."""
    stream = CounterStream(derive_seed(seed, "span-inputs", ctx.to_str()))
    vecs = []
    for t in range(count):
        if t % 3 == 2:
            a, b = stream.element(ctx, 3), stream.element(ctx, 3)
            vecs.append(tuple(ctx.add(ctx.mul(a, x), ctx.mul(b, y)) for x, y in zip(vecs[-1], vecs[0])))
        else:
            vecs.append(stream.vector(ctx, width, 3))
    return vecs


def _old_unit_extension(ctx, chosen, width):
    """The greedy loop ``reduction._unit_completion`` replaces: each unit vector in index order,
    added when it lies outside the span of the vectors and the units added before it."""
    chosen, added = list(chosen), []
    for i in range(width):
        e = tuple(ctx.one() if t == i else ctx.zero() for t in range(width))
        if span_dim(ctx, chosen + [e]) > span_dim(ctx, chosen):
            chosen.append(e)
            added.append(e)
    return added


@pytest.mark.parametrize("ctx", [F5, FieldCtx.prime(7), Q], ids=FieldCtx.to_str)
def test_span_add_matches_rref_and_span_dim(ctx):
    # the Span of each prefix: its dimension is span_dim's, it grows exactly when the next vector
    # lies outside it, it holds every vector of the prefix, and its rows are the rref rows, which
    # are reduced (each zero left of a unit pivot, each pivot column a unit column)
    for seed in range(4):
        vecs = _span_inputs(ctx, seed, width=4 + seed)
        width = len(vecs[0])
        spans = [Span(ctx, vecs[:t], width=width) for t in range(len(vecs) + 1)]
        assert [span.dim for span in spans] == [span_dim(ctx, vecs[:t]) for t in range(len(vecs) + 1)]
        grew = [spans[t + 1].dim > spans[t].dim for t in range(len(vecs))]
        assert grew == [not spans[t].contains(v) for t, v in enumerate(vecs)]
        for t, span in enumerate(spans):
            assert all(span.contains(v) for v in vecs[:t])
            r, pivots = Matrix(ctx, vecs[:t], width).rref()
            assert span.pivots == list(pivots) == sorted(set(pivots))
            assert span.rows == [r.row(i) for i in range(len(pivots))]
            for row, pc in zip(span.rows, span.pivots):
                assert not any(row[:pc]) and row[pc] == 1
                assert [other[pc] for other in span.rows].count(0) == span.dim - 1


@pytest.mark.parametrize("ctx", [F5, FieldCtx.prime(7), Q, F2], ids=FieldCtx.to_str)
def test_span_unit_extension_matches_greedy_loop(ctx):
    # independent lists, dependent ones (every third vector a combination), the empty list and a
    # full-rank list: the completion is the greedy loop's, and fills the span to the whole space
    for seed in range(4):
        vecs = _span_inputs(ctx, seed, width=4 + seed)
        width = len(vecs[0])
        independent = Span(ctx, vecs[:4]).rows
        assert span_dim(ctx, vecs[:3]) < 3 and span_dim(ctx, independent) == len(independent) > 1
        full = vecs + list(Matrix.identity(ctx, width).data)
        for chosen in [independent, vecs[:2], vecs[:3], vecs[:6], vecs, [], full]:
            completion = reduction._unit_completion(ctx, chosen, width)
            assert completion == _old_unit_extension(ctx, chosen, width)
            assert len(completion) == width - span_dim(ctx, chosen)
        assert reduction._unit_completion(ctx, full, width) == []


def test_space_queries_build_no_span(monkeypatch):
    # one array echelon proves independence and answers every query over F_p and over Q alike:
    # building a space and every query on it, residuals and independent blocks included, build no Span
    families = [(ctx, build_bordered_alternating(ctx, 5, 1)) for ctx in (F3, Q)]
    builds = []
    original = Span.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting_init)
    for ctx, family in families:
        x = AffineMatrixSpace(family.base, family.basis)
        y = congruence_act(x, Matrix.identity(ctx, 5))
        member = x.member_at((1, 2, 0))
        assert x.contains(member) and not x.contains(member + unit(ctx, 5, 0, 0))
        assert x.translation_contains(member - x.base)
        assert spaces_equal(x, y) and not spaces_equal(x, AffineMatrixSpace(x.base, family.basis[:2]))
        assert x.translation_residuals([(member - x.base).flatten()]) == [(ctx.zero(),) * 25]
        assert spaces.independent_matrices([*x.basis, member - x.base]) == list(x.basis)
    assert builds == []


P_BIG = 2_147_483_629  # a prime below 2^31: products of two residues reach 2^62


def recombined(gens):
    """Another basis of the span of gens: each generator plus the last one."""
    return [g + gens[-1] if i < len(gens) - 1 else g for i, g in enumerate(gens)]


@pytest.mark.parametrize("ctx", [FieldCtx.prime(p) for p in (2, 3, 7, P_BIG)] + [Q], ids=lambda c: str(c.p or "Q"))
def test_space_echelon_matches_the_exact_span(ctx):
    # seeded lists of 0 to 5 random matrices of order 3, the longer ones also made dependent by
    # a combination, and the sparse generators of the bordered family, dependent copy included:
    # a space is built exactly when the Span of its generators has full dimension (else the same
    # ValueError), its containment and set-equality verdicts are the Span's, translation_residuals
    # are Span.reduce's, and independent_matrices keeps what grows a Span
    stream = CounterStream(derive_seed(41, "echelon", ctx.p or 0))
    bordered = build_bordered_alternating(ctx, 7, 2)
    lists = [(bordered.base, list(bordered.basis)), (bordered.base, [*bordered.basis, bordered.basis[0] + bordered.basis[3]])]
    for k in range(6):
        gens = [random_matrix(ctx, 3, 3, stream) for _ in range(k)]
        lists.append((random_matrix(ctx, 3, 3, stream), gens))
        if k >= 2:
            lists.append((random_matrix(ctx, 3, 3, stream), gens + [gens[0].scale(stream.element(ctx)) + gens[-1]]))
    verdicts = set()
    for base, gens in lists:
        n, width = base.nrows, base.nrows * base.ncols
        flats = [g.flatten() for g in gens]
        span = Span(ctx, flats, width=width)
        grown = [g for t, g in enumerate(gens) if span_dim(ctx, flats[: t + 1]) > span_dim(ctx, flats[:t])]
        assert spaces.independent_matrices(gens) == grown
        if span.dim < len(gens):
            with pytest.raises(ValueError, match="^translation basis is linearly dependent$"):
                AffineMatrixSpace(base, gens)
            verdicts.add("dependent")
            continue
        x = AffineMatrixSpace(base, gens)
        inside = x.member_at(stream.vector(ctx, len(gens))) - base
        outside = random_matrix(ctx, n, n, stream)
        queries = [inside, outside, Matrix.zeros(ctx, n), *gens]
        for q in queries:
            assert x.translation_contains(q) == x.contains(base + q) == span.contains(q.flatten())
            verdicts.add(span.contains(q.flatten()))
        vecs = [q.flatten() for q in queries] + list(Matrix.identity(ctx, width).data)
        assert x.translation_residuals(vecs) == [span.reduce(v) for v in vecs]
        ys = [AffineMatrixSpace(base + inside, recombined(gens)) if gens else x, AffineMatrixSpace(base + outside, gens)]
        if gens and not span.contains(outside.flatten()):
            ys.append(AffineMatrixSpace(base, [*gens[:-1], outside]))
        for y in ys:
            y_span = Span(ctx, [g.flatten() for g in y.basis], width=width)
            want = all(y_span.contains(v.flatten()) for v in [x.base - y.base, *x.basis])
            assert spaces_equal(x, y) == want
            verdicts.add(("equal", want))
    assert verdicts == {"dependent", True, False, ("equal", True), ("equal", False)}


@pytest.mark.parametrize("ctx", [FieldCtx.prime(p) for p in (2, 7, P_BIG)] + [Q], ids=lambda c: str(c.p or "Q"))
def test_member_at_matches_the_entry_loop(ctx):
    # seeded spaces of 3 x 3, 2 x 4 and 4 x 2 matrices and seeded coordinates, unreduced integers
    # among them, over Q fractions too; at p near 2^31 every entry and coordinate p - 1 as well,
    # whose products reach 2^62: one stacked product gives the member the entry loop does
    stream = CounterStream(derive_seed(42, "member-at", ctx.p or 0))
    cases = []
    for n, m in [(3, 3), (2, 4), (4, 2)]:
        gens = spaces.independent_matrices([random_matrix(ctx, n, m, stream) for _ in range(5)])
        cases.append(AffineMatrixSpace(random_matrix(ctx, n, m, stream), gens))
    if ctx.p == P_BIG:
        top = Matrix(ctx, [[-1] * 3] * 3)
        cases.append(AffineMatrixSpace(top, [top, *(unit(ctx, 3, i, i) for i in range(2))]))
    for sp in cases:
        draws = [stream.vector(ctx, sp.dim) for _ in range(4)]
        draws += [(-1,) * sp.dim, tuple(range(-2, sp.dim - 2)), (0,) * sp.dim]
        if ctx == Q:
            draws += [tuple(Fraction(stream.element(ctx), 1 + stream.below(9)) for _ in range(sp.dim))]
        for coords in draws:
            assert sp.member_at(coords) == reference.member_at(sp, coords)
    for shape in [(0, 0), (3, 0), (0, 3)]:  # the entry loop made a 0 x 3 member 0 x 0
        assert AffineMatrixSpace(Matrix.zeros(ctx, *shape), []).member_at(()).shape == shape


@pytest.mark.parametrize("ctx", [FieldCtx.prime(p) for p in (2, 7, P_BIG)] + [Q], ids=lambda c: str(c.p or "Q"))
def test_space_alternating_flag_matches_the_entry_check(ctx):
    # alternating matrices, then each with one diagonal entry or one entry below the diagonal
    # moved by 1 (over F_2 a diagonal 1 leaves x + x = 0), as base or generator; non-square and
    # empty shapes: the flag read off the stack is Matrix.is_alternating of the base and every
    # generator
    stream = CounterStream(derive_seed(42, "alternating", ctx.p or 0))
    alt = [random_alternating(ctx, 4, stream) for _ in range(3)]
    near = [a + unit(ctx, 4, i, j) for a, (i, j) in zip(alt, [(2, 2), (3, 1), (0, 0)])]
    if ctx.p == 2:
        near.append(Matrix(ctx, [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    cases = [(alt[0], alt[1:]), (alt[0], [])] + [(alt[0], [alt[1], x]) for x in near] + [(x, alt[1:]) for x in near]
    cases += [(random_matrix(ctx, 2, 3, stream), [random_matrix(ctx, 2, 3, stream)])]
    cases += [(Matrix.zeros(ctx, *shape), []) for shape in [(0, 0), (3, 0), (0, 3), (1, 1)]]
    flags = set()
    for base, gens in cases:
        want = all(m.is_alternating() for m in (base, *gens))
        assert AffineMatrixSpace(base, gens).alternating == want
        flags.add(want)
    assert flags == {True, False}


def test_matrix_from_residue_stack_checks_one_slice_once():
    # a range check by numpy, not an assert, so it holds under python -O too; one matrix is a one-slice stack
    f7 = FieldCtx.prime(7)

    def one_slice(ctx, arr):
        return Matrix.from_residue_stack(ctx, arr[None])

    assert one_slice(f7, np.array([[0, 6], [3, 1]], np.int64)) == [Matrix(f7, [[0, 6], [3, 1]])]
    assert [m.shape for m in one_slice(f7, np.zeros((0, 3), np.int64))] == [(0, 3)]
    assert all(type(x) is int for x in one_slice(f7, np.array([[5]], np.int16))[0].flatten())
    for bad in ([[0, 7]], [[-1, 0]], [[3, 2**40]]):
        with pytest.raises(ValueError, match=r"^residues must lie in \[0, 7\)$"):
            one_slice(f7, np.array(bad, np.int64))
    # over Q, a 2-D stack of one 1-D array, and a float one
    for ctx, bad in [(Q, np.eye(2, dtype=np.int64)), (f7, np.arange(3)), (f7, np.eye(2))]:
        with pytest.raises(ValueError, match="^residues must be a 3-D integer array over a prime field$"):
            one_slice(ctx, bad)


def test_matrix_from_residue_stack_checks_the_whole_stack_once():
    f7 = FieldCtx.prime(7)
    stack = np.arange(24, dtype=np.int64).reshape(2, 3, 4) % 7
    mats = Matrix.from_residue_stack(f7, stack)
    assert mats == [Matrix.from_residue_stack(f7, x[None])[0] for x in stack]
    assert mats[1] == Matrix(f7, (stack[1] % 7).tolist())
    assert Matrix.from_residue_stack(f7, np.zeros((0, 2, 3), np.int64)) == []
    assert [m.shape for m in Matrix.from_residue_stack(f7, np.zeros((2, 0, 3), np.int64))] == [(0, 3)] * 2
    assert [m.shape for m in Matrix.from_residue_stack(f7, np.zeros((2, 3, 0), np.int64))] == [(3, 0)] * 2
    assert all(type(x) is int for x in Matrix.from_residue_stack(f7, np.array([[[5]]], np.int16))[0].flatten())
    for bad in (7, -1, 2**40):
        out = stack.copy()
        out[1, 2, 3] = bad  # in the last slice only: the range of every slice is checked
        with pytest.raises(ValueError, match=r"^residues must lie in \[0, 7\)$"):
            Matrix.from_residue_stack(f7, out)
    wrong = [(Q, stack), (f7, stack[0]), (f7, stack[None]), (f7, stack.astype(float)), (f7, stack.astype(object))]
    for ctx, bad in wrong:
        with pytest.raises(ValueError, match="^residues must be a 3-D integer array over a prime field$"):
            Matrix.from_residue_stack(ctx, bad)


# -- AffineMatrixSpace -----------------------------------------------------------------


def test_space_validation():
    z = Matrix.zeros(F5, 2)
    g = unit(F5, 2, 0, 1)
    with pytest.raises(ValueError):
        AffineMatrixSpace(z, [g, g.scale(2)])  # dependent basis
    assert not AffineMatrixSpace(z, [g]).alternating  # g is not alternating
    assert AffineMatrixSpace(z, [g - g.T]).alternating
    assert not AffineMatrixSpace(Matrix.zeros(F5, 2, 3), []).alternating  # not square
    # a declared true is checked against the data, a declared false is no claim
    declared = AffineMatrixSpace(z, [g]).to_json() | {"alternating": True}
    with pytest.raises(ValueError, match="alternating flag set on non-alternating data"):
        AffineMatrixSpace.from_json(declared)
    assert AffineMatrixSpace.from_json(AffineMatrixSpace(z, [g - g.T]).to_json() | {"alternating": False}).alternating


def test_alternation_is_no_constructor_option():
    assert list(inspect.signature(AffineMatrixSpace).parameters) == ["base", "basis"]


def test_matrices_and_spaces_survive_deepcopy_and_pickle():
    stream = CounterStream(derive_seed(4, "pickle"))
    half = Q.normalize(Fraction(1, 2))
    mats = [random_matrix(F5, 3, 4, stream), random_matrix(Q, 3, 3, stream, box=4).scale(half)]
    sp = build_bordered_alternating(F5, 7, 2)
    for back in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        for m in mats:
            got = back(m)
            assert got == m and got.ctx == m.ctx and got is not m
        got = back(sp)
        assert spaces_equal(got, sp) and got.basis == sp.basis and got.alternating
        assert got.to_json() == sp.to_json()


def test_engine_arrays_are_built_once_and_read_only():
    sp = build_bordered_alternating(F5, 5, 1)
    base, basis = sp.flat_arrays()
    assert sp.flat_arrays()[0] is base and sp.flat_arrays()[1] is basis
    assert base.tolist() == list(sp.base.flatten())
    assert basis.tolist() == [list(g.flatten()) for g in sp.basis]
    for arr in (base, basis):
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(ValueError, match="only over prime fields"):
        AffineMatrixSpace(Matrix.zeros(Q, 2), [unit(Q, 2, 0, 1)]).flat_arrays()


def test_member_at_and_contains():
    sp = build_bordered_alternating(F3, 5, 1)
    coords = (1, 2, 0)
    m = sp.member_at(coords)
    assert sp.contains(m)
    assert not sp.contains(m + unit(F3, 5, 0, 0))


def test_enumerate_lex_order_and_partition():
    sp = build_bordered_alternating(F3, 5, 1)
    assert sp.member_count() == 27
    all_members = list(sp.enumerate())
    assert [c for c, _ in all_members[:4]] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 1, 0),
    ]
    coords = [c for c, _ in all_members]
    assert coords == [_engine.index_to_coords(i, 3, 3) for i in range(27)]
    split = np.concatenate([_engine.lex_coords(0, 13, 3, 3), _engine.lex_coords(13, 27, 3, 3)])
    assert [tuple(int(c) for c in row) for row in split] == coords
    with pytest.raises(BudgetExceededError):
        list(sp.enumerate(budget=5))


@pytest.mark.parametrize("p", [2, 3, 7, P_BIG])
def test_stacked_enumerate_matches_the_member_at_loop(monkeypatch, p):
    # seeded 3 x 3 and 2 x 4 spaces of dims 0-4, at p near 2^31 one with every entry p - 1 as well;
    # engine blocks of 1,024 coordinates, so the dim-4 spaces over F_7 cross two block boundaries;
    # past 7^4 members only the first 7^4 are compared
    monkeypatch.setattr(_engine, "_CHUNK_ELEMS", 1)
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(43, "enumerate", p))
    cases = []
    for dim, (n, m) in product(range(5), [(3, 3), (2, 4)]):
        gens = spaces.independent_matrices([random_matrix(ctx, n, m, stream) for _ in range(dim + 6)])[:dim]
        assert len(gens) == dim
        cases.append(AffineMatrixSpace(random_matrix(ctx, n, m, stream), gens))
    if p == P_BIG:
        top = Matrix(ctx, [[-1] * 3] * 3)
        cases.append(AffineMatrixSpace(top, [top, *(unit(ctx, 3, i, i) for i in range(3))]))
    for sp in cases:
        # the first 7^4 tuples of the lexicographic order over range(p), which product would materialize
        loop = ((c, sp.member_at(c)) for c in product(range(min(p, 7**4)), repeat=sp.dim))
        assert list(islice(sp.enumerate(p**sp.dim), 7**4)) == list(islice(loop, 7**4))
    with pytest.raises(BudgetExceededError, match=f"{p**4} members exceed budget {p**4 - 1}"):
        next(cases[8].enumerate(p**4 - 1))  # a dim-4 space
    point = AffineMatrixSpace(Matrix(Q, [[Fraction(1, 2)]]), [])
    assert list(point.enumerate()) == [((), point.base)]
    with pytest.raises(ValueError, match="needs a prime field"):
        next(AffineMatrixSpace(point.base, [Matrix(Q, [[1]])]).enumerate())


def sample_coords(sp, i, seed, box=DEFAULT_RATIONAL_BOX):
    """Scalar reference for the coordinates of sampled member i: coordinate j
    is draw i * dim + j, a residue over F_p or an integer in [-box, box] over Q."""
    d = sp.dim
    if sp.ctx.kind == "prime":
        return tuple(uniform_below(seed, i * d + j, sp.ctx.p) for j in range(d))
    return tuple(Fraction(uniform_below(seed, i * d + j, 2 * box + 1) - box) for j in range(d))


def test_sampling_is_partition_safe():
    sp = build_bordered_alternating(F5, 6, 2)
    d = sp.dim
    full = _engine.sampled_coords(11, 0, 30, d, 5)
    split = np.concatenate([_engine.sampled_coords(11, 0, 7, d, 5), _engine.sampled_coords(11, 7, 30, d, 5)])
    assert (full == split).all()
    assert [tuple(int(c) for c in row) for row in full] == [sample_coords(sp, i, 11) for i in range(30)]
    assert (full != _engine.sampled_coords(12, 0, 30, d, 5)).any()


def test_rational_sampling_box():
    sp = AffineMatrixSpace(Matrix.zeros(Q, 2), [unit(Q, 2, 0, 1)])
    box = DEFAULT_RATIONAL_BOX
    coords = [_member_coords(sp, i, False, 2 * box + 1, 3) for i in range(200)]
    assert coords == [sample_coords(sp, i, 3) for i in range(200)]
    assert all(type(c) is Fraction and -box <= c <= box for cs in coords for c in cs)
    assert min(c for (c,) in coords) < 0 < max(c for (c,) in coords)
    with pytest.raises(ValueError):
        sp.member_count()
    with pytest.raises(ValueError):
        list(sp.enumerate())


def test_json_round_trip():
    sp = build_bordered_alternating(F5, 6, 2)
    back = AffineMatrixSpace.from_json(sp.to_json())
    assert spaces_equal(sp, back)
    assert back.alternating


# -- actions and equality ----------------------------------------------------------------


def test_spaces_equal_translation_of_base():
    sp = build_bordered_alternating(F3, 5, 1)
    shifted = AffineMatrixSpace(sp.base + sp.basis[0], sp.basis)
    assert spaces_equal(sp, shifted)
    moved = AffineMatrixSpace(sp.base + unit(F3, 5, 0, 0), sp.basis)
    assert not spaces_equal(sp, moved)


def test_spaces_equal_matches_member_sets():
    # the base by contains, each generator by translation_contains: the verdicts are those
    # of the enumerated member sets, for a rebased and recombined copy, a base moved off
    # the space, one generator swapped out and a smaller dimension
    stream = CounterStream(derive_seed(40, "spaces-equal"))
    x = AffineMatrixSpace(random_matrix(F3, 3, 3, stream), [random_matrix(F3, 3, 3, stream) for _ in range(2)])
    g0, g1 = x.basis
    off = next(u for i, j in product(range(3), repeat=2) if not x.translation_contains(u := unit(F3, 3, i, j)))
    ys = [
        AffineMatrixSpace(x.base + g0.scale(2) + g1, [g0 + g1, g1.scale(2)]),
        AffineMatrixSpace(x.base + off, x.basis),
        AffineMatrixSpace(x.base, [g0, off]),
        AffineMatrixSpace(x.base, [g0]),
    ]
    members = lambda sp: {m for _, m in sp.enumerate(100)}
    assert [spaces_equal(x, y) for y in ys] == [members(x) == members(y) for y in ys] == [True, False, False, False]


def test_congruence_preserves_rank_multiset():
    sp = build_bordered_alternating(F3, 5, 1)
    p = random_invertible(F3, 5, CounterStream(derive_seed(2, "act")))
    moved = congruence_act(sp, p)
    assert moved.alternating
    assert rank_multiset(sp, budget=100) == rank_multiset(moved, budget=100)
    with pytest.raises(ValueError):
        congruence_act(sp, Matrix.zeros(F3, 5))


def test_equivalence_act_rectangular():
    base = Matrix(F5, [[1, 0, 0], [0, 0, 0]])
    sp = AffineMatrixSpace(base, [Matrix(F5, [[0, 1, 0], [0, 0, 0]])])
    p = random_invertible(F5, 2, CounterStream(derive_seed(3, "p")))
    q = random_invertible(F5, 3, CounterStream(derive_seed(3, "q")))
    moved = equivalence_act(sp, p, q)
    ranks = sorted(m.rank() for _, m in sp.enumerate())
    ranks2 = sorted(m.rank() for _, m in moved.enumerate())
    assert ranks == ranks2


@pytest.mark.parametrize("field", [2, 3, 7, 2_147_483_629, "Q"])
def test_stacked_equivalence_matches_matrix_products(field):
    # every image P X Q of a family against ``@``, P a x n, X n x m, Q m x b: over F_p one stacked
    # product pair, near 2^31 in groups of two terms (three such products leave int64), over Q ``@``
    ctx = Q if field == "Q" else FieldCtx.prime(field)
    for a, n, m, b, count in ((1, 1, 1, 1, 1), (1, 1, 1, 1, 4), (2, 1, 1, 3, 3), (2, 2, 3, 3, 3),
                              (5, 5, 5, 5, 6), (9, 9, 9, 9, 16), (1, 4, 7, 2, 2)):
        stream = CounterStream(derive_seed(39, "stacked-act", field, a, n, m, b))
        mats = [random_matrix(ctx, n, m, stream) for _ in range(count)]
        p, q = random_matrix(ctx, a, n, stream), random_matrix(ctx, m, b, stream)
        images = equivalence_images(mats, p, q)
        assert images == [p @ x @ q for x in mats]
        assert all(image.shape == (a, b) for image in images)
    with pytest.raises(ValueError, match="field mismatch"):
        equivalence_images([Matrix.identity(F3, 2)], Matrix.identity(F5, 2), Matrix.identity(F5, 2))


def test_rank_multiset_frozen():
    sp = full_alternating_space(F3, 3)
    assert rank_multiset(sp, budget=30) == {0: 1, 2: 26}
    with pytest.raises(BudgetExceededError):
        rank_multiset(sp, budget=10)


# -- brute-force equivalence --------------------------------------------------------------


def test_brute_equivalence_finds_witness():
    x = AffineMatrixSpace(Matrix.zeros(F3, 2), [unit(F3, 2, 0, 0)])
    y = AffineMatrixSpace(Matrix.zeros(F3, 2), [unit(F3, 2, 1, 1)])
    witness = brute_equivalence_test(x, y)
    assert witness is not None
    p, q = witness
    assert spaces_equal(equivalence_act(x, p, q), y)


def test_brute_equivalence_negative_and_envelope():
    x = AffineMatrixSpace(Matrix.zeros(F3, 2), [])
    y = AffineMatrixSpace(Matrix.identity(F3, 2), [])
    assert brute_equivalence_test(x, y) is None  # zero cannot map to identity
    big = AffineMatrixSpace(Matrix.zeros(F3, 3), [])
    with pytest.raises(ValueError):
        brute_equivalence_test(big, big)
    f11 = FieldCtx.prime(11)
    tiny = AffineMatrixSpace(Matrix.zeros(f11, 1), [])
    with pytest.raises(ValueError):
        brute_equivalence_test(tiny, tiny)


def reference_gl(ctx, s):
    rows = (
        [flat[i : i + s] for i in range(0, s * s, s)] for flat in product(range(ctx.p), repeat=s * s)
    )
    return [m for m in (Matrix(ctx, r) for r in rows) if m.det() != 0]


def reference_brute_equivalence(x, y):
    """The nested-loop scan over GL_s x GL_s that the vectorized one replaced."""
    if x.dim != y.dim:
        return None
    gl = reference_gl(x.ctx, x.shape[0])
    for pm in gl:
        for qm in gl:
            if spaces_equal(equivalence_act(x, pm, qm), y):
                return pm, qm
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gl_matrices_match_determinant_filter(p):
    ctx = FieldCtx.prime(p)
    for s in (1, 2):
        got = reference._gl_matrices(p, s)
        assert [Matrix(ctx, g.tolist()) for g in got] == reference_gl(ctx, s)
        assert len(got) == ((p * p - 1) * (p * p - p) if s == 2 else p - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_brute_equivalence_s1_matches_nested_loop_reference(p):
    ctx = FieldCtx.prime(p)

    def point(v, dim=0):
        return AffineMatrixSpace(Matrix(ctx, [[v]]), [Matrix(ctx, [[1]])] * dim)

    a, b = 1, p - 1
    cases = [
        (point(a), point(b)),  # both nonzero: a witness
        (point(0), point(0)),
        (point(0), point(b)),  # zero cannot map to a unit
        (point(a), point(0)),
        (point(0, 1), point(a, 1)),  # the whole line, twice
        (point(a), point(0, 1)),  # dimensions differ
    ]
    results = []
    for x, y in cases:
        got = brute_equivalence_test(x, y)
        assert got == reference_brute_equivalence(x, y)
        results.append(got)
    assert results[0] is not None and results[2] is None
    pm, qm = results[0]
    assert (pm @ Matrix(ctx, [[a]]) @ qm) == Matrix(ctx, [[b]])


@pytest.mark.parametrize("p", [2, 3])
def test_brute_equivalence_2x2_matches_nested_loop_reference(p):
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(12, "brute", p))
    found = 0
    for dim in (0, 1, 2):
        gens = [random_matrix(ctx, 2, 2, stream) for _ in range(2 * dim + 2)]
        x = AffineMatrixSpace(gens[0], gens[1 : dim + 1])
        y = AffineMatrixSpace(gens[dim + 1], gens[dim + 2 :])
        moved = equivalence_act(x, random_invertible(ctx, 2, stream), random_invertible(ctx, 2, stream))
        for target in (y, moved):
            got = brute_equivalence_test(x, target)
            assert got == reference_brute_equivalence(x, target)
            found += got is not None
    assert 3 <= found < 6


# -- subspace enumeration and optimal search ----------------------------------------------


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(3, 4, 5) == 0


def test_echelon_bases_count_matches():
    reps = list(echelon_bases(4, 2, 3))
    assert len(reps) == gaussian_binomial(4, 2, 3)
    keys = {tuple(map(tuple, w)) for _, w in reps}
    assert len(keys) == len(reps)


def test_optimal_search_constant_rank_frozen():
    res = exhaustive_optimal_dimension(3, 2, F3, "constant-rank")
    # n = r + 1: the corank-one construction is optimal at dimension 2
    assert res.max_dim == 2
    assert res.exists_by_dim == {0: True, 1: True, 2: True, 3: False}
    assert res.witness is not None and res.witness.dim == 2
    for _, m in res.witness.enumerate():
        assert m.rank() == 2


def test_optimal_search_rank_at_least_frozen():
    res = exhaustive_optimal_dimension(3, 2, F3, "rank-at-least")
    assert res.max_dim == 2  # any plane avoiding the zero matrix
    assert res.witness is not None
    for _, m in res.witness.enumerate():
        assert m.rank() >= 2


def test_optimal_search_small_field_exception_at_4_2_f2():
    """At (4, 2, F_2), n = r + 2 and q = 2, outside the paper's field-size
    hypothesis: a 3-dimensional constant-rank-2 space exists, one more than
    the formula s(n - s - 1) = 2."""
    res = exhaustive_optimal_dimension(4, 2, FieldCtx.prime(2), "constant-rank")
    assert res.max_dim == 3
    assert res.exists_by_dim == {0: True, 1: True, 2: True, 3: True, 4: False}
    assert optimal_dimension_formula(4, 2, "constant_rank") == 2
    assert res.witness.dim == 3
    assert {m.rank() for _, m in res.witness.enumerate()} == {2}


def test_optimal_search_budgets():
    with pytest.raises(BudgetExceededError):
        exhaustive_optimal_dimension(4, 2, F3, "constant-rank", table_budget=10)
    with pytest.raises(BudgetExceededError):
        exhaustive_optimal_dimension(4, 2, F3, "constant-rank", work_budget=10)
    with pytest.raises(ValueError):
        exhaustive_optimal_dimension(3, 2, F3, "sometimes-rank")
    with pytest.raises(ValueError):
        exhaustive_optimal_dimension(3, 1, F3, "constant-rank")


@pytest.mark.parametrize(
    "n,r,q,message,max_dim,exists_by_dim,base,basis",
    [
        # 5.6 s and 1.3 s by the ordered walk alone; the values are that walk's
        (4, 4, 5, "dimension 2 needs 508431 x 15625", 2, {0: True, 1: True, 2: True, 3: False},
         (0, 0, 1, 1, 0, 0), [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]),
        (5, 2, 2, "dimension 3 needs 6347715 x 1024", 3, {0: True, 1: True, 2: True, 3: True, 4: False},
         (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
         [(1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)]),
        # 3.4 s by the per-class decision, whose values these are
        (5, 2, 3, "dimension 1 needs 29524 x 59049", 3, {0: True, 1: True, 2: True, 3: True, 4: False},
         (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
         [(1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)]),
    ],
)
def test_optimal_search_beyond_default_budget_is_pinned(n, r, q, message, max_dim, exists_by_dim, base, basis):
    ctx = FieldCtx.prime(q)
    with pytest.raises(BudgetExceededError, match=message):
        exhaustive_optimal_dimension(n, r, ctx, "constant-rank")
    res = exhaustive_optimal_dimension(n, r, ctx, "constant-rank", work_budget=10**17)
    want = AffineMatrixSpace(
        alternating_from_upper(ctx, n, list(base)), [alternating_from_upper(ctx, n, list(g)) for g in basis]
    )
    assert (res.max_dim, res.exists_by_dim, res.witness.to_json()) == (max_dim, exists_by_dim, want.to_json())


@pytest.mark.parametrize("n,q,work_budget", [(4, 3, 3 * 10**8), (5, 2, 10**17)])
def test_optimal_search_walks_and_rechecks_once(monkeypatch, n, q, work_budget):
    """Every level is decided, and only the top one is walked on the ambient mask and re-checked,
    by one enumeration whose budget is the ambient table's size q^m, which no witness exceeds."""
    m, budgets, walks = n * (n - 1) // 2, [], []
    enumerate_, coset_walk = AffineMatrixSpace.enumerate, spaces._coset_walk

    def counting_enumerate(self, budget=10**6):
        budgets.append(budget)
        return enumerate_(self, budget)

    def counting_walk(good, d, q):
        walks.extend([d] if good.ndim == m else [])
        return coset_walk(good, d, q)

    monkeypatch.setattr(AffineMatrixSpace, "enumerate", counting_enumerate)
    monkeypatch.setattr(spaces, "_coset_walk", counting_walk)
    res = exhaustive_optimal_dimension(n, 2, FieldCtx.prime(q), "rank-at-least", work_budget=work_budget)
    assert (budgets, walks) == ([q**m], [res.max_dim])


def test_optimal_search_sends_each_witness_member_through_the_one_recheck(monkeypatch):
    # the one exact re-check of engine hits sees every member of the witness, 3^5 at (4,2,F_3) rank >= r
    calls, real = [], spaces.exact_rank
    monkeypatch.setattr(spaces, "exact_rank", lambda m, accept: calls.append(m) or real(m, accept))
    res = exhaustive_optimal_dimension(4, 2, F3, "rank-at-least")
    assert res.max_dim == 5 and len(calls) == 243
    assert calls == [m for _, m in res.witness.enumerate()]


def test_optimal_search_refuses_a_witness_member_whose_rank_is_wrong(monkeypatch, tmp_path, capsys):
    # the ambient table says every witness member has rank >= 2; an exact rank of 0 for the 100th
    # must stop the search, and the command line reports it in one line with exit 3
    real, seen = Matrix.rank, []

    def rank(m):
        seen.append(m)
        return 0 if len(seen) == 100 else real(m)

    monkeypatch.setattr(Matrix, "rank", rank)
    with pytest.raises(AssertionError, match="^engine witness failed exact re-verification$"):
        exhaustive_optimal_dimension(4, 2, F3, "rank-at-least")
    seen.clear()
    out = tmp_path / "search.json"
    argv = ["optimal-search", "--n", "4", "--r", "2", "--field", "Fp:3", "--predicate", "rank-at-least"]
    assert main([*argv, "--out", str(out)]) == 3 and not out.exists()
    assert capsys.readouterr().err == "internal error: engine witness failed exact re-verification\n"
    assert len(seen) == 100


def reference_optimal_search(n: int, r: int, q: int, predicate: str):
    """Per-space optimal search on the exact layer: every coset member of every
    echelon direction space is ranked with ``Matrix.rank``.  The first space in
    ``echelon_bases`` order with a qualifying coset wins, its least qualifying
    coset (by reduced representative) and that coset's least member."""
    ctx = FieldCtx.prime(q)
    m = n * (n - 1) // 2
    vecs = list(product(range(q), repeat=m))

    @lru_cache(maxsize=None)
    def good(v):
        k = alternating_from_upper(ctx, n, list(v)).rank()
        return k == r if predicate == "constant-rank" else k >= r

    def search(d):
        for pivots, w in echelon_bases(m, d, q):
            rows = [tuple(int(x) for x in row) for row in w]
            cosets: dict[tuple, list] = {}
            for v in vecs:
                red = list(v)
                for row, pc in zip(rows, pivots):
                    c = red[pc]
                    red = [(x - c * y) % q for x, y in zip(red, row)]
                cosets.setdefault(tuple(red), []).append(v)
            ok = [key for key, members in cosets.items() if all(good(v) for v in members)]
            if ok:
                return rows, min(cosets[min(ok)])
        return None

    exists_by_dim, witness, max_dim = {}, None, -1
    for d in range(m + 1):
        found = search(d)
        exists_by_dim[d] = found is not None
        if found is None:
            break
        max_dim = d
        rows, rep = found
        witness = AffineMatrixSpace(
            alternating_from_upper(ctx, n, list(rep)),
            [alternating_from_upper(ctx, n, list(row)) for row in rows],
        )
    return max_dim, exists_by_dim, witness


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3), (3, 5), (4, 2)])
def test_optimal_search_matches_exact_reference(n, q):
    for r in range(0, n + 1, 2):
        for predicate in ("constant-rank", "rank-at-least"):
            res = exhaustive_optimal_dimension(n, r, FieldCtx.prime(q), predicate)
            max_dim, exists_by_dim, witness = reference_optimal_search(n, r, q, predicate)
            assert (res.max_dim, res.exists_by_dim) == (max_dim, exists_by_dim), (r, predicate)
            assert res.witness.to_json() == witness.to_json(), (r, predicate)


def per_space_coset_scan(all_vecs, good, m, d, q):
    """The coset scan one direction space at a time, every ambient vector keyed."""
    key_pows = q ** np.arange(m - d - 1, -1, -1)
    for pivots, w in echelon_bases(m, d, q):
        nonpiv = [j for j in range(m) if j not in pivots]
        keys = ((all_vecs - all_vecs[:, list(pivots)] @ w) % q)[:, nonpiv] @ key_pows
        bad_counts = np.bincount(keys[~good.reshape(-1)], minlength=q ** (m - d))
        hit = int(np.argmin(bad_counts))
        if bad_counts[hit] == 0:
            return w, int(np.argmax(keys == hit))
    return None


@pytest.mark.parametrize("m,d,q", [(4, 2, 3), (5, 3, 2), (3, 1, 5), (6, 3, 2)])
def test_blocked_coset_scan_matches_per_space_loop(monkeypatch, m, d, q):
    # seeded bad sets of three densities put the first qualifying space deep
    # inside a block of the walk, or leave none
    all_vecs = _engine.lex_coords(0, q**m, m, q)
    for density in (0.35, 0.5, 0.65):
        for seed in range(4):
            good = (np.random.default_rng([m, d, q, seed]).random(q**m) >= density).reshape((q,) * m)
            want = per_space_coset_scan(all_vecs, good, m, d, q)
            for cap in (spaces._WALK_ELEMS, 1, 2000):
                monkeypatch.setattr(spaces, "_WALK_ELEMS", cap)
                got = spaces._coset_walk(good, d, q)
                if want is None:
                    assert got is None
                else:
                    assert got[0].tolist() == want[0].tolist()
                    assert got[1].tolist() == all_vecs[want[1]].tolist()


def alternating_good(n, r, q, predicate):
    """The optimal search's good mask, shaped (q,) * m: the lex-ordered strict
    upper triangles whose alternating matrix meets the predicate."""
    m = n * (n - 1) // 2
    all_vecs = _engine.lex_coords(0, q**m, m, q)
    ranks = _engine.alternating_ranks(all_vecs.T.copy(), n, q)
    return all_vecs, ((ranks == r) if predicate == "constant-rank" else (ranks >= r)).reshape((q,) * m)


@pytest.mark.parametrize(
    "n,q,dims",
    [(4, 2, range(1, 6)), (3, 5, range(1, 3)), (4, 3, range(1, 3))],
)
def test_coset_walk_matches_per_space_loop_on_rank_tables(n, q, dims):
    m = n * (n - 1) // 2
    for r in range(0, n + 1, 2):
        for predicate in ("constant-rank", "rank-at-least"):
            all_vecs, good = alternating_good(n, r, q, predicate)
            for d in dims:
                want = per_space_coset_scan(all_vecs, good, m, d, q)
                got = spaces._coset_walk(good, d, q)
                if want is None:
                    assert got is None, (r, predicate, d)
                else:
                    want_rep = all_vecs[want[1]].tolist()
                    assert (got[0].tolist(), got[1].tolist()) == (want[0].tolist(), want_rep), (r, predicate, d)


@pytest.mark.parametrize("r", [2, 4])
def test_coset_walk_finds_no_constant_rank_solid_at_4_f3(r):
    """Dimension 3 at (4, r, F_3) is the level the optimal search proves
    empty: every one of the 33,880 direction spaces is checked or pruned."""
    all_vecs, good = alternating_good(4, r, 3, "constant-rank")
    assert per_space_coset_scan(all_vecs, good, 6, 3, 3) is None
    assert spaces._coset_walk(good, 3, 3) is None
    assert not spaces._level_nonempty(good, 4, 3, 3)


@pytest.mark.parametrize(
    "n,q,dims",
    [(4, 2, range(1, 7)), (3, 5, range(1, 4)), (4, 3, range(1, 4)), (5, 2, range(1, 5))],
)
def test_level_decision_matches_ordered_walk(n, q, dims):
    """The level decision (one walk per rank class's representative and
    orbit of second directions) says a level is nonempty exactly when the
    ordered walk over every direction space finds a space."""
    m = n * (n - 1) // 2
    for r in range(0, n + 1, 2):
        for predicate in ("constant-rank", "rank-at-least"):
            _, good = alternating_good(n, r, q, predicate)
            for d in dims:
                want = spaces._coset_walk(good, d, q) is not None
                assert spaces._level_nonempty(good, n, d, q) == want, (r, predicate, d)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 5), (3, 7), (4, 2), (4, 3), (4, 5), (5, 2)])
def test_orbit_decision_matches_the_per_class_reference(n, q):
    """The decision by orbits of second directions equals the per-class decision it replaced on
    every level, r and predicate, the levels past the first empty one too."""
    m = n * (n - 1) // 2
    for r in range(0, n + 1, 2):
        for predicate in ("constant-rank", "rank-at-least"):
            _, good = alternating_good(n, r, q, predicate)
            for d in range(m + 1):
                want = reference.level_nonempty_per_class(good, n, d, q)
                assert spaces._level_nonempty(good, n, d, q) == want, (r, predicate, d)


@pytest.mark.parametrize("n,q,counts", [(4, 3, [4, 4]), (5, 2, [5, 6])])
def test_orbit_counts_on_the_quotient_points(n, q, counts):
    """Orbits of G_k and the scalings on the q^(m-1) points of the quotient by <w_k>, zero's own
    orbit included, for k = 1, 2: the counts that products of at most two stabilizing
    transvections bound from above.  The representatives kept are the orbits' least points whose
    cosets v + <w_k> hold no rank below 2k (ranked here by ``Matrix.rank``), each leading with a 1."""
    ctx, m = FieldCtx.prime(q), n * (n - 1) // 2
    for k, count in enumerate(counts, 1):
        labels, reps = spaces._orbit_labels(n, q, k)
        leaders = np.flatnonzero(labels == np.arange(len(labels)))
        assert len(leaders) == count and not labels.flags.writeable and not reps.flags.writeable
        w = [1 if (i, j) in [(2 * t, 2 * t + 1) for t in range(k)] else 0 for i, j in upper_pairs(n)]
        want = []
        for v in _engine.lex_coords(0, q ** (m - 1), m - 1, q)[leaders[1:]].tolist():
            lifts = [[(a + lam * b) % q for a, b in zip([0, *v], w)] for lam in range(q)]
            coset = [alternating_from_upper(ctx, n, x) for x in lifts]
            if min(x.rank() for x in coset) >= 2 * k:
                want.append(v)
        assert reps.tolist() == want and all(v[next(i for i, x in enumerate(v) if x)] == 1 for v in want)


BROKEN_STABILIZER = """
import sys
import numpy as np
from altrank import spaces
from altrank.fields import FieldCtx

real_gens, real_labels = spaces._stabilizer_generators, spaces._orbit_labels

def upper_right(n, k, q):
    p = np.eye(n, dtype=np.int64)
    p[0, 2 * k] = 1  # a nonzero upper-right block moves the line of w_k
    return [*real_gens(n, k, q), p]

def singular(n, k, q):
    return [*real_gens(n, k, q), np.diag([1] * (n - 1) + [0])]  # keeps W_k, drops a quotient direction

def merged(n, q, k):
    labels, reps = real_labels(n, q, k)
    return np.zeros_like(labels), reps  # zero's orbit merged with every other

case = sys.argv[1]
if case == "merged":
    spaces._orbit_labels = merged
else:
    spaces._stabilizer_generators = {"upper-right": upper_right, "singular": singular}[case]
spaces.exhaustive_optimal_dimension(4, 2, FieldCtx.prime(3), "constant-rank")
"""


@pytest.mark.parametrize(
    "case,message",
    [
        ("upper-right", "a stabilizer generator of w_1 moves its line"),
        ("singular", "a stabilizer generator of w_1 is no bijection on the quotient"),
        ("merged", "the good cosets of w_1 are not constant on the orbits of its stabilizer"),
    ],
)
def test_orbit_checks_raise_under_optimize(case, message):
    src = str(Path(spaces.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_STABILIZER, case],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert f"AssertionError: {message}" in proc.stderr


@pytest.mark.parametrize(
    "n,r,q,predicate",
    [(4, 4, 3, "constant-rank"), (4, 2, 3, "constant-rank"), (4, 2, 3, "rank-at-least"), (3, 2, 5, "constant-rank")],
)
def test_optimal_search_is_independent_of_block_size(monkeypatch, n, r, q, predicate):
    ctx = FieldCtx.prime(q)
    want = exhaustive_optimal_dimension(n, r, ctx, predicate)
    # 1: one (node, row) pair per block; 5000: blocks of a few pairs, growth
    # capped off a power of 4
    for cap in (1, 5000):
        monkeypatch.setattr(spaces, "_WALK_ELEMS", cap)
        got = exhaustive_optimal_dimension(n, r, ctx, predicate)
        assert (got.max_dim, got.exists_by_dim) == (want.max_dim, want.exists_by_dim)
        assert got.witness.to_json() == want.witness.to_json()
