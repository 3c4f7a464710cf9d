import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from altrank import _engine, analyze, reduction
from altrank.analyze import rank_profile
from altrank.cli import main
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
    alternating_from_upper,
    place_blocks,
    upper_pairs,
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
    # over Q the recovered family's generators are chosen by a Span, over F_p by the int64 echelon
    for ctx in (F5, Q):
        t = build_row_block_family(ctx, 7, 2)
        qprime, moved, m_space = reduce_full_row_rank(t)
        assert qprime == Matrix.identity(ctx, 5)
        assert m_space.dim == 1
        target = build_row_block_family(ctx, 7, 2, inner=m_space)
        assert spaces_equal(equivalence_act(t, Matrix.identity(ctx, 2), qprime), target)
        assert spaces_equal(moved, target)  # the returned t Q' is that family


def test_reduce_full_row_rank_column_mixer():
    t = build_row_block_family(F5, 7, 2)
    pm = seeded_invertible(F5, 2, "rows")
    qm = seeded_invertible(F5, 5, "cols")
    mixed = equivalence_act(t, pm, qm)
    qprime, _, m_space = reduce_full_row_rank(mixed)
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
    assert (Matrix(F5, [x]) @ member @ Matrix(F5, [y]).T)[0, 0] != 0


def test_unique_complement_positive():
    sp = build_bordered_alternating(F5, 7, 2)
    tail = unique_totally_singular_complement(sp, 2)
    ident = Matrix.identity(F5, 7)
    assert tail == [tuple(ident.row(i)) for i in range(2, 7)]


def test_unique_complement_over_q():
    # the radical argument holds over every field
    sp = build_bordered_alternating(Q, 7, 2)
    tail = unique_totally_singular_complement(sp, 2)
    assert tail == [tuple(Matrix.identity(Q, 7).row(i)) for i in range(2, 7)]


def test_unique_complement_guards():
    sp = build_bordered_alternating(F5, 6, 2)
    with pytest.raises(ValueError):
        unique_totally_singular_complement(sp, 2)  # needs n > 2s + 2
    thin = AffineMatrixSpace(Matrix.zeros(F5, 5), [alt_unit(F5, 5, 0, 1)])
    with pytest.raises(ContractError):
        unique_totally_singular_complement(thin, 1)  # U_0 is not in the span


def test_unique_complement_contract_failures():
    model = build_bordered_alternating(F5, 7, 2)
    ident = Matrix.identity(F5, 7)
    tail = [tuple(ident.row(i)) for i in range(2, 7)]
    low_rank = AffineMatrixSpace(Matrix.zeros(F5, 7), model.basis)
    with pytest.raises(ContractError, match="^the base has rank 0, not 4$"):
        unique_totally_singular_complement(low_rank, 2)
    without_u1 = AffineMatrixSpace(model.base, [g for g in model.basis if g[1, 4] == 0])
    with pytest.raises(ContractError, match="^U_1 is missing from the translation span$"):
        unique_totally_singular_complement(without_u1, 2)
    # R0 = E_(0,2) + E_(1,3) in slab coordinates: adding U_i rescales a row of
    # R0, so every member has the radical ker R0, of dimension 3 < 5
    narrow = AffineMatrixSpace(alt_unit(F5, 7, 0, 4) + alt_unit(F5, 7, 1, 5), model.basis)
    assert totally_singular_rejection(narrow, tail) is None
    with pytest.raises(ContractError, match="^the member radicals do not span the tail$"):
        unique_totally_singular_complement(narrow, 2)
    # a nonzero pair inside the tail block, in the base or in a generator: the
    # block check and the pairwise scan of totally_singular_rejection agree
    for i, j in ((2, 3), (2, 6), (5, 6)):
        unit = alt_unit(F5, 7, i, j)
        for moved in (AffineMatrixSpace(model.base + unit, model.basis),
                      AffineMatrixSpace(model.base, [*model.basis[:-1], model.basis[-1] + unit])):
            assert totally_singular_rejection(moved, tail) is not None
            with pytest.raises(ContractError, match="^the canonical tail subspace is not totally singular$"):
                unique_totally_singular_complement(moved, 2)


RADICAL_CHECK_UNDER_OPTIMIZE = """
from altrank.families import build_bordered_alternating
from altrank.fields import FieldCtx
from altrank.matrices import Matrix
from altrank.reduction import unique_totally_singular_complement
from altrank.spaces import AffineMatrixSpace

f5 = FieldCtx.prime(5)
model = build_bordered_alternating(f5, 7, 2)
unique_totally_singular_complement(AffineMatrixSpace(Matrix.zeros(f5, 7), model.basis), 2)
"""


def test_radical_check_raises_under_optimize():
    src = str(Path(reduction.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", RADICAL_CHECK_UNDER_OPTIMIZE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "altrank.errors.ContractError: the base has rank 0, not 4" in proc.stderr


def thinned(sp, keep):
    return AffineMatrixSpace(sp.base, sp.basis[:keep])


def rejected(sp, cands):
    """Per candidate C of the (k, n-s, n) stack, whether C G C^T is nonzero
    mod p for some member G in (base, *basis): its rows span no totally
    singular subspace."""
    p, n = sp.ctx.p, sp.shape[0]
    base_flat, basis_flat = sp.flat_arrays()
    members = np.vstack([base_flat[None], basis_flat]).reshape(-1, 1, n, n)
    forms = (cands @ members % p) @ cands.transpose(0, 2, 1) % p
    return forms.any(axis=(0, 2, 3))


@pytest.mark.parametrize("n, s, p", [(5, 1, 2), (6, 1, 2), (5, 1, 3), (6, 1, 3), (7, 1, 3), (5, 1, 5), (7, 2, 2)])
def test_radical_check_alone_decides_complement_uniqueness(n, s, p):
    # every (n-s)-subspace, on the bordered model and each generator-prefix
    # thinning of it: wherever the radical check passes, every subspace but
    # the tail is rejected by some member, and the base alone does not pass
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
        assert rejected(sp, others).all()
        passed.append(keep)
    # the generators run A units, inner units, then C units row by row, so
    # the check passes once U_(s-1), the C unit at row s-1 and column 0, is in
    first = s * (s - 1) + (s - 1) * (n - 2 * s) + 1
    assert passed == list(range(first, len(model.basis) + 1))
    assert not rejected(thinned(model, 0), others).all()  # the base alone has a second complement


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


def test_canonical_reduction_reaches_every_traced_stage(monkeypatch):
    """The benchmark's tracer times each name of its ``REDUCTION_STAGES`` where the package binds it,
    so one reduction calls every stage by that name (a private twin would leave its span at 0 s).
    The tracer's file is loaded read-only: no bytecode is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    reached = set()
    modules = [m for name, m in sys.modules.items() if name == "altrank" or name.startswith("altrank.")]
    for stage in spans.REDUCTION_STAGES:
        orig = getattr(reduction, stage)

        def spy(*args, _orig=orig, _stage=stage, **kwargs):
            reached.add(_stage)
            return _orig(*args, **kwargs)

        for mod in modules:  # every binding, as the tracer rebinds them
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, spy)
    sp = congruence_act(build_bordered_alternating(F5, 7, 2), seeded_invertible(F5, 7, "traced-stages"))
    assert reduction.canonical_reduction(sp, 4, seed=0).all_verdicts_true
    assert reached == set(spans.REDUCTION_STAGES)


def test_canonical_reduction_at_a_large_prime():
    # the hypothesis lines of the flanders-atkinson step are scanned at
    # t < r + 2 only, so a reduction costs no time linear in p
    ctx = FieldCtx.prime(1_048_583)
    sp = build_bordered_alternating(ctx, 7, 2)
    moved = congruence_act(sp, seeded_invertible(ctx, 7, "large-prime"))
    cert = canonical_reduction(moved, 4, seed=3)
    assert cert.all_verdicts_true
    target = build_bordered_alternating(ctx, 7, 2, inner=cert.recovered_M)
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
    failure = json.loads(json.dumps(cert.witnesses["failure"]))
    assert failure == {
        "step": "generator_identities",
        "generator": len(gens) - 1,
        "report": {
            "mode": "alternating", "r": 4, "hypothesis_held": False,
            "first_failure": {"kind": "hypothesis", "detail": [1, 1, 6]},
        },
    }
    # the named generator's own report fails, under the base point's normalization
    s0 = broken.member_at([F5.parse_element(c) for c in cert.witnesses["base_point_coords"]])
    p1, k = normalize_radical_to_tail(s0)
    (own,) = analyze.flanders_atkinson_check([p1.T @ gens[failure["generator"]] @ p1], 4, "alternating", k)
    assert not own.conclusions_hold and json.loads(json.dumps(own.to_json())) == failure["report"]


@pytest.mark.parametrize("units, kind", [([(4, 5)], "D"), ([(0, 4), (2, 5)], "moment")], ids=["D", "moment"])
def test_generator_identities_records_past_the_hypothesis_are_plain_json(monkeypatch, tmp_path, units, kind):
    # where a conclusion fails over these fields the hypothesis fails first, so a check whose
    # kernel ranks every line member 0 lets the last generator through to its conclusions: its
    # D block, or its moment k = 0, fails, and the failure record is plain JSON, in process and
    # in the certificate that ``altrank reduce`` writes
    real = analyze.flanders_atkinson_check

    def past_the_hypothesis(*args):
        with monkeypatch.context() as m:
            m.setattr(_engine, "batch_rank", lambda mats, p: np.zeros(len(mats), np.int64))
            return real(*args)

    monkeypatch.setattr(analyze, "flanders_atkinson_check", past_the_hypothesis)
    sp = build_bordered_alternating(F5, 7, 2)
    gen = alternating_from_upper(F5, 7, [int(pair in units) for pair in upper_pairs(7)])
    broken = AffineMatrixSpace(sp.base, [*sp.basis[:-1], gen])
    failure = canonical_reduction(broken, 4, seed=0).witnesses["failure"]
    assert failure["step"] == "generator_identities" and failure["generator"] == len(broken.basis) - 1
    assert failure["report"]["hypothesis_held"] and failure["report"]["first_failure"]["kind"] == kind
    witness = failure["report"]["first_failure"]["detail"]
    if kind == "moment":
        assert witness["k"] == 0
        witness = witness["witness"]
    assert Matrix.from_json(witness).shape == (3, 3) and not Matrix.from_json(witness).is_zero()
    assert json.loads(json.dumps(failure)) == failure
    src, out = tmp_path / "space.json", tmp_path / "out.json"
    src.write_text(json.dumps(broken.to_json()))
    assert main(["reduce", "--in", str(src), "--rank", "4", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["certificate"]["witnesses"]["failure"] == failure


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

# sha256 of each late failure's whole certificate as sorted-key JSON, pinned so
# that no change to the pipeline's intermediate steps alters a recorded witness
LATE_FAILURE_DIGESTS = {
    "lagrangian_extraction": "3916c64ee4cc3a9726ff1b9fd7e268ac46953de9129008790df22eafc90af333",
    "lagrangian_singularity": "a4d8180fef1450542619efd34c9b0369a5be4154bf0bfec346f314a96d373f8a",
    "normal_form": "ddb64e31cbe0963058d8a4bd891f1c16440a5472e4b8633159a644206eb3148b",
    "complement_uniqueness": "3c80490f8bf6f3eb961f3f294aa957765294707c7bfdfa317032ced6d293fb2d",
}


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
    blob = json.dumps(cert.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == LATE_FAILURE_DIGESTS[step]


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
