import json
from copy import copy
from fractions import Fraction

import numpy as np
import pytest

from altrank import _engine, analyze, reduction
from altrank.analyze import rank_profile
from altrank.errors import ContractError
from altrank.families import (
    INNER_VERIFY_BUDGET,
    build_bordered_alternating,
    build_rank_at_least_space,
    build_row_block_family,
)
from altrank.fields import FieldCtx
from altrank.matrices import (
    Matrix,
    Span,
    alternating_from_upper,
    mat_vec,
    place_blocks,
    rows_matrix,
    span_dim,
    upper_pairs,
    vec_dot,
)
from altrank.rand import (
    DEFAULT_RATIONAL_BOX,
    CounterStream,
    derive_seed,
    random_alternating,
    random_invertible,
    random_matrix,
    uniform_below,
)
from altrank.reduction import (
    VERDICT_KEYS,
    _complement_candidates,
    _reject_candidates,
    _rejected,
    canonical_reduction,
    find_rank_r_member,
    normalize_radical_to_tail,
    reduce_full_row_rank,
    totally_singular_rejection,
    unique_totally_singular_complement,
)
from altrank.spaces import AffineMatrixSpace, congruence_act, echelon_bases, equivalence_act, spaces_equal

F2 = FieldCtx.prime(2)
F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
F11 = FieldCtx.prime(11)
Q = FieldCtx.rational()


def alt_unit(ctx, n, i, j):
    pairs = upper_pairs(n)
    coords = [1 if p == (i, j) else 0 for p in pairs]
    return alternating_from_upper(ctx, n, coords)


def seeded_invertible(ctx, n, label):
    return random_invertible(ctx, n, CounterStream(derive_seed(99, label)))


# -- building blocks ----------------------------------------------------------------------


def test_find_rank_r_member_enumeration_order():
    sp = build_bordered_alternating(F5, 7, 2)
    coords, member = find_rank_r_member(sp, 4)
    assert coords == (0,) * sp.dim  # base point already attains the rank
    assert member.rank() == 4
    small = build_bordered_alternating(F5, 5, 1)
    assert find_rank_r_member(small, 4) is None  # constant rank 2 throughout


def sample_coords(sp, i, seed, box=DEFAULT_RATIONAL_BOX):
    """Scalar reference for the coordinates of sampled member i: coordinate j
    is draw i * dim + j, a residue over F_p or an integer in [-box, box] over Q."""
    d = sp.dim
    if sp.ctx.kind == "prime":
        return tuple(uniform_below(seed, i * d + j, sp.ctx.p) for j in range(d))
    return tuple(Fraction(uniform_below(seed, i * d + j, 2 * box + 1) - box) for j in range(d))


def reference_find_rank_r_member(sp, r, enum_budget, samples, seed):
    """The exact-layer loop, one ``rank()`` per member, that the engine scan replaced."""
    if sp.ctx.kind == "prime" and sp.member_count() <= enum_budget:
        members = sp.enumerate(enum_budget)
    else:
        members = ((c, sp.member_at(c)) for c in (sample_coords(sp, i, seed) for i in range(samples)))
    for coords, member in members:
        if member.rank() == r:
            return coords, member
    return None


@pytest.mark.parametrize("budget", [10**6, 10], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("alternating", [False, True])
@pytest.mark.parametrize("p", [2, 3, 7])
def test_find_rank_r_member_matches_exact_reference_loop(p, alternating, budget):
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(5, "find-rank", p, alternating))
    if alternating:
        gens = [random_alternating(ctx, 6, stream) for _ in range(4)]
    else:
        gens = [random_matrix(ctx, 4, 5, stream) for _ in range(4)]
    # the second space's last member in enumeration order is zero, so the
    # rank-0 scan runs past the first engine block when p = 7
    last = (gens[1] + gens[2] + gens[3]).scale(p - 1)
    hits = []
    for base in (gens[0], -last):
        sp = AffineMatrixSpace(base, gens[1:])
        assert sp.alternating == alternating
        for r in range(min(sp.shape) + 1):
            got = find_rank_r_member(sp, r, enum_budget=budget, samples=300, seed=3)
            assert got == reference_find_rank_r_member(sp, r, budget, 300, 3)
            if got is not None:
                assert all(type(c) is int for c in got[0])
            hits.append(got)
    assert any(h is None for h in hits) and any(h is not None for h in hits)


def test_find_rank_r_member_over_q_matches_exact_reference_loop():
    stream = CounterStream(derive_seed(5, "find-rank", "Q"))
    third = Q.normalize(Fraction(1, 3))
    gens = [random_matrix(Q, 3, 4, stream, box=2).scale(third) for _ in range(3)]
    gens[0] = gens[0] + Matrix(Q, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    spaces = [
        AffineMatrixSpace(gens[0], gens[1:]),
        AffineMatrixSpace(gens[0], []),  # dimension zero: the base alone
        AffineMatrixSpace(Matrix.zeros(Q, 4), [alt_unit(Q, 4, 0, 1), alt_unit(Q, 4, 2, 3)]),
    ]
    found = 0
    for sp in spaces:
        for r in range(min(sp.shape) + 1):
            got = find_rank_r_member(sp, r, samples=40, seed=8)
            assert got == reference_find_rank_r_member(sp, r, 10**6, 40, 8)
            if got is not None:
                found += 1
                assert all(type(c) is Fraction for c in got[0])
    assert found >= 3


def test_normalize_radical_to_tail():
    sp = build_bordered_alternating(F5, 7, 2)
    p = seeded_invertible(F5, 7, "radical")
    moved = congruence_act(sp, p)
    s0 = moved.base
    p1, k = normalize_radical_to_tail(s0)
    out = p1.T @ s0 @ p1
    assert out.block(0, 4, 0, 4) == k
    assert out.block(0, 7, 4, 7).is_zero() and out.block(4, 7, 0, 7).is_zero()
    assert k.det() != 0 and k.is_alternating()


def test_reduce_full_row_rank_identity_fixed_point():
    t = build_row_block_family(F5, 7, 2)
    qprime, m_space = reduce_full_row_rank(t)
    assert qprime == Matrix.identity(F5, 5)
    assert m_space.dim == 1
    assert spaces_equal(
        equivalence_act(t, Matrix.identity(F5, 2), qprime), build_row_block_family(F5, 7, 2, inner=m_space)
    )


def test_reduce_full_row_rank_column_mixer():
    t = build_row_block_family(F5, 7, 2)
    pm = seeded_invertible(F5, 2, "rows")
    qm = seeded_invertible(F5, 5, "cols")
    mixed = equivalence_act(t, pm, qm)
    qprime, m_space = reduce_full_row_rank(mixed)
    assert spaces_equal(
        equivalence_act(mixed, Matrix.identity(F5, 2), qprime),
        build_row_block_family(F5, 7, 2, inner=m_space),
    )


def test_reduce_full_row_rank_guards():
    t = build_row_block_family(F2, 5, 2) if F2.cardinality_at_least(1) else None
    with pytest.raises(ValueError):
        reduce_full_row_rank(t)  # |F| = 2 rejected
    base = Matrix.zeros(F5, 2, 4)
    degenerate = AffineMatrixSpace(base, [])
    with pytest.raises(ValueError):
        reduce_full_row_rank(degenerate)  # codimension too large
    # rank defect: row 1 only ever has its last entry, so the universal column space is too thin
    gens = [Matrix(F5, [[1 if (i, j) == pos else 0 for j in range(4)] for i in range(2)])
            for pos in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3)]]
    rank_deficient = AffineMatrixSpace(base, gens)
    with pytest.raises(ContractError):
        reduce_full_row_rank(rank_deficient)


def test_reduce_full_row_rank_rejects_singular_recovered_family():
    # B runs over I + t*E00 with C free: the recovered family diag(1 + t, 1)
    # is singular at t = 4, which the [B C] builder's invertibility check sees.
    def slab(block, c):
        return Matrix(F5, [[block[0][0], block[0][1], c[0]], [block[1][0], block[1][1], c[1]]])

    base = slab([[1, 0], [0, 1]], [0, 0])
    gens = [slab([[1, 0], [0, 0]], [0, 0]), slab([[0, 0], [0, 0]], [1, 0]), slab([[0, 0], [0, 0]], [0, 1])]
    t = AffineMatrixSpace(base, gens)
    with pytest.raises(ContractError, match="recovered family contains a singular member"):
        reduce_full_row_rank(t)


# -- totally singular complements ------------------------------------------------------------


def test_totally_singular_rejection():
    sp = build_bordered_alternating(F5, 7, 2)
    ident = Matrix.identity(F5, 7)
    tail = [tuple(ident.row(i)) for i in range(2, 7)]
    assert totally_singular_rejection(sp, tail) is None
    swapped = [tuple(ident.row(i)) for i in range(3, 7)] + [tuple(ident.row(0))]
    witness = totally_singular_rejection(sp, swapped)
    assert witness is not None
    member, x, y = witness
    assert vec_dot(F5, x, mat_vec(member, y)) != 0


def test_unique_complement_positive():
    sp = build_bordered_alternating(F5, 7, 2)
    tail = unique_totally_singular_complement(sp, 2, seed=0)
    ident = Matrix.identity(F5, 7)
    assert tail == [tuple(ident.row(i)) for i in range(2, 7)]


def dual_basis_slab_witness(tail, x, y, span):
    """Reference for the rank-2 slab form: phi1 phi2^T - phi2 phi1^T from the
    first two rows of the inverse of the basis (x, y, tail units, lowest-index
    units), as the reduction built it before the closed form."""
    ctx = span.ctx
    basis = [x, y] + tail + span.extend_with_units(span.width - span.dim)
    binv = rows_matrix(ctx, basis).transpose().inverse()
    phi1, phi2 = rows_matrix(ctx, [binv.row(0)]), rows_matrix(ctx, [binv.row(1)])
    return phi1.T @ phi2 - phi2.T @ phi1


@pytest.mark.parametrize("p", [3, 5, 7, 2_147_483_629])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_rank_two_slab_witness_matches_dual_basis_reference(p, s):
    # the rank-2 form that pairs x and y modulo the tail is d^-1 (E_ab - E_ba)
    # on the two coordinates a < b that no unit covers, with a < b < s: a
    # multiple of a leading-block unit, which step (a) of the complement scan
    # finds in the translation span, so step (c) need not build it
    ctx = FieldCtx.prime(p)
    n = 2 * s + 3
    ident = Matrix.identity(ctx, n)
    tail = [ident.row(t) for t in range(s, n)]
    tail_span = Span(ctx, tail)
    stream = CounterStream(derive_seed(99, "slab-witness", p, s))
    free_pairs = set()
    checked = 0
    while checked < 12:
        # x and y supported, off the tail, on a random set of 2..s leading
        # coordinates, so the uncovered pair (a, b) moves around
        support = {t for t in range(s) if stream.below(2)}
        x, y = (
            tuple(c if t in support or t >= s else 0 for t, c in enumerate(stream.vector(ctx, n)))
            for _ in range(2)
        )
        span = copy(tail_span)
        if not (span.add(x) and span.add(y)):
            continue
        expected = dual_basis_slab_witness(tail, x, y, copy(span))
        covered = {u.index(1) for u in tail + span.extend_with_units(n - span.dim)}
        a, b = (t for t in range(n) if t not in covered)
        assert b < s
        unit = place_blocks(ctx, n, n, [(0, 0, alt_unit(ctx, s, a, b))])
        got = unit.scale(ctx.inv(ctx.sub(ctx.mul(x[a], y[b]), ctx.mul(x[b], y[a]))))
        assert got == expected
        assert got.rank() == 2 and vec_dot(ctx, x, mat_vec(got, y)) == 1
        free_pairs.add((a, b))
        checked += 1
    assert len(free_pairs) > 1 or s == 2


def test_unique_complement_guards():
    sp = build_bordered_alternating(F5, 6, 2)
    with pytest.raises(ValueError):
        unique_totally_singular_complement(sp, 2)  # needs n > 2s + 2
    thin = AffineMatrixSpace(Matrix.zeros(F5, 5), [alt_unit(F5, 5, 0, 1)])
    with pytest.raises(ContractError):
        unique_totally_singular_complement(thin, 1)  # tail columns all zero


def reference_complement_scan(sp, s, seed, candidates):
    """The one-candidate loop that the batched complement scan replaced, per
    candidate in order: its rows and whether ``totally_singular_rejection``
    rejects it; plus the number of draws."""
    ctx = sp.ctx
    n = sp.shape[0]
    ident = Matrix.identity(ctx, n)
    structured = [
        [tuple(ident.row(t)) for t in range(s, n) if t != j] + [tuple(ident.row(i))]
        for i in range(s) for j in range(s, n)
    ]
    stream = CounterStream(derive_seed(seed, "complement"))
    out, draws = [], 0
    while len(out) < candidates:
        if len(out) < len(structured):
            cand = structured[len(out)]
        else:
            draws += 1
            cand = [stream.vector(ctx, n) for _ in range(n - s)]
            if span_dim(ctx, cand) != n - s:
                continue
        if all(all(c == 0 for c in v[:s]) for v in cand):
            continue
        out.append((cand, totally_singular_rejection(sp, cand) is not None))
    return out, draws


def thinned(sp, keep):
    return AffineMatrixSpace(sp.base, sp.basis[:keep])


@pytest.mark.parametrize("p, s", [(3, 1), (5, 2), (7, 3), (2_147_483_629, 2)])
def test_batched_complement_scan_matches_reference_loop(p, s):
    # the spaces: a seeded congruence of the bordered model, which rejects
    # every candidate, and thinned copies of the model that reject only some
    ctx = FieldCtx.prime(p)
    n = 2 * s + 3
    model = build_bordered_alternating(ctx, n, s)
    moved = congruence_act(model, seeded_invertible(ctx, n, f"scan-{p}-{s}"))
    count = 60 if p > 7 else 200
    seen = set()
    for sp in (moved, thinned(model, 0), thinned(model, 1), thinned(model, 2)):
        ref, draws = reference_complement_scan(sp, s, 11, count)
        cands, n_struct = _complement_candidates(p, n, s, 11, count)
        assert n_struct == min(count, s * (n - s))
        assert [[tuple(v) for v in c] for c in cands.tolist()] == [c for c, _ in ref]
        rejected = _rejected(sp, cands).tolist()
        assert rejected == [rej for _, rej in ref]
        seen.add(all(rejected))
    assert seen == {True, False}
    if p == 3:
        assert draws > count - n_struct  # the rank filter and the leading-zero skip dropped draws


def test_batched_complement_scan_raises_on_a_totally_singular_candidate():
    # every candidate is totally singular for the zero space, and some are
    # for the model thinned to its leading-block generator
    zero = AffineMatrixSpace(Matrix.zeros(F5, 7), [])
    with pytest.raises(ContractError, match="second totally singular complement"):
        _reject_candidates(zero, 2, 0)
    model = build_bordered_alternating(F5, 7, 2)
    with pytest.raises(ContractError, match="second totally singular complement"):
        _reject_candidates(thinned(model, 1), 2, 0)
    _reject_candidates(model, 2, 0)


def test_batched_complement_scan_raises_on_an_escaped_slab_form():
    # the model without its leading-block generator still rejects every
    # candidate through its other members, but no rank-2 slab form lies in its
    # span; step (a) reports the missing leading-block slab before step (c) runs
    model = build_bordered_alternating(F5, 7, 2)
    gens = [g for g in model.basis if g.block(0, 2, 0, 2).is_zero()]
    assert len(gens) == len(model.basis) - 1
    sp = AffineMatrixSpace(model.base, gens)
    _reject_candidates(sp, 2, 0)
    with pytest.raises(ContractError, match="leading-block slab is missing"):
        unique_totally_singular_complement(sp, 2)


@pytest.mark.parametrize("n, s, p", [(5, 1, 2), (6, 1, 2), (5, 1, 3), (6, 1, 3), (7, 1, 3), (5, 1, 5), (7, 2, 2)])
def test_steps_a_and_b_alone_decide_complement_uniqueness(n, s, p, monkeypatch):
    # every (n-s)-subspace, on the bordered model and each generator-prefix
    # thinning of it: whenever the scan passes with no candidates at all, every
    # subspace but the tail is rejected, so steps (a) and (b) carry the proof
    monkeypatch.setattr(reduction, "COMPLEMENT_CANDIDATES", 0)
    ctx = FieldCtx.prime(p)
    model = build_bordered_alternating(ctx, n, s)
    tail = np.eye(n, dtype=np.int64)[s:]
    spaces = np.array([w for _, w in echelon_bases(n, n - s, p)])
    others = spaces[(spaces != tail).any(axis=(1, 2))]
    assert len(others) == len(spaces) - 1
    passed = []
    for keep in range(len(model.basis) + 1):
        sp = thinned(model, keep)
        try:
            unique_totally_singular_complement(sp, s)
        except ContractError:
            continue
        assert _rejected(sp, others).all()
        passed.append(keep)
    assert passed[-1] == len(model.basis)
    assert not _rejected(thinned(model, 0), others).all()  # the base alone has a second complement


def test_batched_complement_scan_is_guarded_by_the_exact_layer(monkeypatch):
    # an engine whose forms all vanish would report a second complement; the
    # guard's exact rejection of the first random candidates disagrees first
    sp = build_bordered_alternating(F5, 7, 2)
    real = _engine._matmul_mod
    monkeypatch.setattr(_engine, "_matmul_mod", lambda a, b, acc, p: real(a, b, acc, p) * 0)
    with pytest.raises(AssertionError, match="engine forms disagree"):
        unique_totally_singular_complement(sp, 2)
    monkeypatch.setattr(_engine, "_matmul_mod", real)
    draws = _engine.uniform_block
    monkeypatch.setattr(_engine, "uniform_block", lambda seed, lo, shape, bound: draws(seed, lo + 1, shape, bound))
    with pytest.raises(AssertionError, match="engine draws differ"):
        unique_totally_singular_complement(sp, 2)


# -- the full pipeline -------------------------------------------------------------------------


def test_canonical_reduction_identity_fixed_point():
    sp = build_bordered_alternating(F5, 7, 2)
    cert = canonical_reduction(sp, 4, seed=0)
    assert cert.all_verdicts_true
    assert set(cert.verdicts) == set(VERDICT_KEYS)
    assert cert.P == Matrix.identity(F5, 7)
    assert (cert.n, cert.r, cert.s) == (7, 4, 2)


def test_canonical_reduction_round_trip():
    sp = build_bordered_alternating(F5, 7, 2)
    for trial in range(2):
        p = seeded_invertible(F5, 7, f"rt{trial}")
        moved = congruence_act(sp, p)
        cert = canonical_reduction(moved, 4, seed=trial)
        assert cert.all_verdicts_true
        target = build_bordered_alternating(F5, 7, 2, inner=cert.recovered_M)
        assert spaces_equal(congruence_act(moved, cert.P), target)


def test_canonical_reduction_s1():
    sp = build_bordered_alternating(F5, 5, 1)
    p = seeded_invertible(F5, 5, "s1")
    cert = canonical_reduction(congruence_act(sp, p), 2, seed=0)
    assert cert.all_verdicts_true
    assert cert.recovered_M.dim == 0


def test_canonical_reduction_proves_constant_rank_past_the_member_budget():
    sp = build_bordered_alternating(F7, 9, 3)  # 7^15 members, 7^3 inner members
    p = seeded_invertible(F7, 9, "big")
    cert = canonical_reduction(congruence_act(sp, p), 6, seed=0)
    assert cert.all_verdicts_true
    assert cert.recovered_M.dim == 3


def test_canonical_reduction_preconditions():
    sp = build_bordered_alternating(F5, 7, 2)
    with pytest.raises(ValueError):
        canonical_reduction(sp, 3)  # odd rank
    with pytest.raises(ValueError):
        canonical_reduction(build_bordered_alternating(F5, 6, 2), 4)  # n < r + 3
    with pytest.raises(ValueError):
        canonical_reduction(build_bordered_alternating(F5, 7, 2), 2)  # wrong dimension
    hb = build_rank_at_least_space(F5, 7, 4)
    with pytest.raises(ValueError):
        canonical_reduction(hb, 4)  # dimension does not match the target shape


def test_canonical_reduction_proves_constant_rank_past_the_inner_budget():
    sp = build_bordered_alternating(F11, 11, 4)  # 11^6 inner members, past the budget
    moved = congruence_act(sp, seeded_invertible(F11, 11, "past-inner"))
    cert = canonical_reduction(moved, 8, seed=0)
    assert cert.all_verdicts_true
    assert cert.recovered_M.member_count() > INNER_VERIFY_BUDGET
    assert analyze.invertible_by_flag(cert.recovered_M)  # so every B is invertible
    # rank_certified is accepted and changes nothing
    assert canonical_reduction(moved, 8, seed=0, rank_certified=True).to_json() == cert.to_json()


def test_canonical_reduction_over_a_flagless_inner_family():
    # I + t C with C = [[0, 1], [3, 0]] is invertible (det 1 + 2 t^2, and -2
    # is no square mod 5) but has no flag, since C is not nilpotent; the
    # exhaustive fallback proves it, here and for the recovered family
    inner = AffineMatrixSpace(Matrix.identity(F5, 2), [Matrix(F5, [[0, 1], [3, 0]])])
    assert not analyze.invertible_by_flag(inner)
    sp = build_bordered_alternating(F5, 7, 2, inner=inner)
    for trial in range(2):
        cert = canonical_reduction(congruence_act(sp, seeded_invertible(F5, 7, f"fl{trial}")), 4, seed=trial)
        assert cert.all_verdicts_true
        assert not analyze.invertible_by_flag(cert.recovered_M)


def test_canonical_reduction_rejects_nonconstant_rank():
    sp = build_bordered_alternating(F5, 7, 2)
    gens = list(sp.basis[:-1]) + [alt_unit(F5, 7, 5, 6)]
    broken = AffineMatrixSpace(sp.base, gens)
    # no up-front profile: the pipeline reports the violating generator
    cert = canonical_reduction(broken, 4, seed=0)
    assert not cert.all_verdicts_true
    assert not cert.verdicts["generator_identities"]
    assert cert.witnesses["failure"]["step"] == "generator_identities"


def test_canonical_reduction_rejects_singular_inner_family():
    # the bordered form over the inner family diag(1 + t, 1 - t), singular at
    # t = +-1, passes every step up to the recovered family's invertibility check
    n, s = 7, 2

    def bordered(rows):
        x = Matrix(F5, rows)
        return place_blocks(F5, n, n, [(0, s, x), (s, 0, -x.T)])

    units = [[[int((i, j) == (a, b)) for b in range(5)] for a in range(2)] for i in range(2) for j in range(2, 5)]
    gens = [alt_unit(F5, n, 0, 1), bordered([[1, 0, 0, 0, 0], [0, -1, 0, 0, 0]])] + [bordered(u) for u in units]
    sp = AffineMatrixSpace(bordered([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]), gens)
    assert sp.dim == s * (n - s - 1)
    for trial in range(3):
        cert = canonical_reduction(congruence_act(sp, seeded_invertible(F5, n, f"si{trial}")), 4, seed=trial)
        assert not cert.all_verdicts_true
        assert cert.witnesses["failure"] == {
            "step": "set_equality", "error": "recovered family contains a singular member",
        }


def _refuse_complement(*args, **kwargs):
    raise ContractError("a second totally singular complement exists")


LATE_FAILURES = [
    # (step, module, attribute, stand-in that makes the step fail)
    ("lagrangian_extraction", analyze, "extract_range_lagrangian", lambda ops, k: None),
    ("lagrangian_singularity", reduction, "totally_singular_witness", lambda member, lag: (0, 1)),
    ("normal_form", reduction, "symplectic_basis", lambda k, lag: Matrix.identity(k.ctx, k.nrows)),
    ("complement_uniqueness", reduction, "unique_totally_singular_complement", _refuse_complement),
]


@pytest.mark.parametrize("step, module, attr, stand_in", LATE_FAILURES, ids=[c[0] for c in LATE_FAILURES])
def test_canonical_reduction_records_late_failures(monkeypatch, step, module, attr, stand_in):
    # no real space reaches these steps and fails them, so the stage each one
    # runs is replaced by one that fails
    moved = congruence_act(build_bordered_alternating(F5, 7, 2), seeded_invertible(F5, 7, "late"))
    monkeypatch.setattr(module, attr, stand_in)
    cert = canonical_reduction(moved, 4, seed=0)
    failing = VERDICT_KEYS.index(step)
    assert cert.verdicts == {k: i < failing for i, k in enumerate(VERDICT_KEYS)}
    assert not cert.all_verdicts_true
    assert cert.witnesses["failure"]["step"] == step
    obj = json.loads(json.dumps(cert.to_json()))
    assert obj["verdicts"] == cert.verdicts and obj["witnesses"]["failure"]["step"] == step


def nonconstant_space(ctx, n, s, kind, trial):
    """A seeded space of critical dimension s(n-s-1) that is not of constant
    rank 2s: a congruent copy of the bordered model with one generator or the
    base moved by a random alternating matrix, or a fully random space."""
    stream = CounterStream(derive_seed(7, "nonconstant", n, s, kind, trial))
    if kind == "random":
        gens = [random_alternating(ctx, n, stream) for _ in range(s * (n - s - 1))]
        return AffineMatrixSpace(random_alternating(ctx, n, stream), gens)
    sp = congruence_act(build_bordered_alternating(ctx, n, s), random_invertible(ctx, n, stream))
    base, gens = sp.base, list(sp.basis)
    if kind == "base":
        base = base + random_alternating(ctx, n, stream)
    else:
        i = stream.below(len(gens))
        gens[i] = gens[i] + random_alternating(ctx, n, stream)
    return AffineMatrixSpace(base, gens)


@pytest.mark.parametrize("kind", ["generator", "base", "random"])
@pytest.mark.parametrize("n, r, ctx", [(7, 4, F5), (9, 6, F7), (8, 4, F7)], ids=["7-4-5", "9-6-7", "8-4-7"])
def test_canonical_reduction_fails_cleanly_on_nonconstant_rank(n, r, ctx, kind):
    # constancy is the certificate's to prove: without it the pipeline ends in
    # a false verdict with a failure witness, never in an exception
    s = r // 2
    for trial in range(4):
        sp = nonconstant_space(ctx, n, s, kind, trial)
        assert sp.dim == s * (n - s - 1)
        prof = rank_profile(sp, budget=0, samples=64, seed=trial)
        assert not prof.min_rank == prof.max_rank == r  # a sampled member proves it
        cert = canonical_reduction(sp, r, seed=trial)
        assert not cert.all_verdicts_true
        # every failure, a base-point miss included, names the step it stopped at
        first_false = next(key for key in VERDICT_KEYS if not cert.verdicts[key])
        assert cert.witnesses["failure"]["step"] == first_false


def test_certificate_json_shape():
    sp = build_bordered_alternating(F5, 5, 1)
    cert = canonical_reduction(sp, 2, seed=0)
    obj = cert.to_json()
    assert set(obj) >= {"verdicts", "witnesses", "P", "lagrangian", "recovered_M"}
    assert obj["verdicts"]["set_equality"] is True
