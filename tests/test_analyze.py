import json
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from altrank import _engine, analyze
from altrank.analyze import (
    RankProfile,
    _rational_residues,
    duality_invariant_check,
    extract_range_lagrangian,
    first_member,
    first_singular,
    flanders_atkinson_check,
    invertible_by_flag,
    nilpotent_flag,
    rank_profile,
    trivial_spectrum_check,
    trivial_spectrum_gate,
)
from altrank.cli import main
from altrank.errors import BudgetExceededError, ContractError
from altrank.families import (
    build_bordered_alternating,
    build_counterexample_plane,
    build_operator_block_space,
    build_strictly_upper_space,
    build_unitriangular_space,
)
from altrank.fields import FieldCtx, prime_below
from altrank.matrices import Matrix, place_blocks
from altrank.rand import (
    DEFAULT_RATIONAL_BOX,
    CounterStream,
    derive_seed,
    random_invertible,
    random_alternating,
    random_matrix,
    uniform_below,
)
from altrank.spaces import AffineMatrixSpace, Span, congruence_act, equivalence_act, independent_matrices
from altrank.symplectic import FormSpacePair, standard_symplectic
from reference import (
    flag_holds_by_span,
    nilpotent_flag_by_span,
    pencil_symplectic_iff_trivial_spectrum,
    random_invertible_alternating,
    rational_residues_by_matrix,
    reference_fa_conclusions,
)

F2 = FieldCtx.prime(2)
F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
Q = FieldCtx.rational()


def unit(ctx, n, i, j):
    m = [[ctx.zero()] * n for _ in range(n)]
    m[i][j] = ctx.one()
    return Matrix(ctx, m)


# -- rank profiles -----------------------------------------------------------------------


def test_rank_profile_exhaustive_witnesses():
    sp = build_bordered_alternating(F3, 7, 2)
    prof = rank_profile(sp, budget=10**4, seed=0, samples=10)
    assert prof.constant and prof.method == "exhaustive"
    assert prof.witness_min == (0,) * 8  # lex-least coordinates
    assert sp.member_at(prof.witness_min).rank() == prof.min_rank


def test_rank_profile_sampled_mode():
    sp = build_bordered_alternating(F5, 7, 2)  # 5^8 members
    prof = rank_profile(sp, budget=10**3, seed=7, samples=400)
    assert prof.method == "sampled" and prof.checked == 400
    assert prof.seed == 7
    assert prof.min_rank == prof.max_rank == 4
    assert sp.member_at(prof.witness_max).rank() == prof.max_rank


def test_rank_profile_rational_sampling():
    plane = build_counterexample_plane(Q)
    prof = rank_profile(plane, budget=0, seed=3, samples=50)
    assert prof.method == "sampled" and prof.checked == 50
    assert prof.min_rank == prof.max_rank == 4


def test_rank_profile_rational_dim_zero():
    sp = AffineMatrixSpace(standard_symplectic(Q, 2), [])
    prof = rank_profile(sp, budget=10, seed=0, samples=10)
    assert prof.method == "exhaustive" and prof.checked == 1
    assert prof.constant and prof.method == "exhaustive" and prof.min_rank == 4


@pytest.mark.parametrize("ctx", [F3, Q], ids=["F3", "Q"])
@pytest.mark.parametrize("alternating", [False, True])
def test_rank_profile_of_empty_matrices(ctx, alternating):
    # the empty matrix is alternating, so rank_profile ranks it on the skew
    # path; both engine paths are reached through the engine's own flag
    sp = AffineMatrixSpace(Matrix.zeros(ctx, 0, 0), [])
    assert sp.alternating
    q, exhaustive, count, residues = analyze._engine_walk(sp, 10, 10)
    ranks = _engine.profile_ranks(residues, 0, 0, q, exhaustive=exhaustive, total=count, alternating=alternating)
    assert ranks == (0, 0, 0, 0)
    prof = rank_profile(sp)
    assert prof.constant and prof.method == "exhaustive" and prof.min_rank == 0 and prof.checked == 1


@pytest.mark.parametrize("budget", [10**6, 10], ids=["exhaustive", "sampled"])
def test_rank_profile_rechecks_a_member_with_both_extremes_once(monkeypatch, budget):
    # at constant rank both witnesses are one member, re-ranked once; distinct witnesses twice
    calls = []
    real = analyze.exact_rank
    monkeypatch.setattr(analyze, "exact_rank", lambda m, accept: calls.append(m) or real(m, accept))
    sp = build_bordered_alternating(F3, 5, 1)
    prof = rank_profile(sp, budget=budget, seed=2, samples=50)
    assert prof.witness_min == prof.witness_max and calls == [sp.member_at(prof.witness_min)]
    calls.clear()
    prof = rank_profile(AffineMatrixSpace(Matrix.zeros(F3, 2), [Matrix.identity(F3, 2)]), budget=budget, samples=50)
    assert (prof.min_rank, prof.max_rank) == (0, 2) and len(calls) == 2


@pytest.mark.parametrize("samples", [0, -3])
def test_rank_profile_rejects_empty_sample(samples):
    with pytest.raises(ValueError):
        rank_profile(build_bordered_alternating(F5, 7, 2), budget=10**3, samples=samples)
    with pytest.raises(ValueError):
        rank_profile(build_counterexample_plane(Q), budget=0, samples=samples)
    # the exhaustive paths never read the sample count
    for sp in (build_bordered_alternating(F3, 5, 1), AffineMatrixSpace(standard_symplectic(Q, 2), [])):
        prof = rank_profile(sp, samples=samples)
        assert prof.constant and prof.method == "exhaustive"


@pytest.mark.parametrize("ctx, n, s, budget", [(F3, 5, 1, 10**6), (F5, 7, 2, 10**3)], ids=["exhaustive", "sampled"])
def test_rank_profile_takes_the_skew_path_on_alternating_data(monkeypatch, ctx, n, s, budget):
    # P^T X P built by the general equivalence action is alternating data, so
    # it is ranked by skew elimination, and its profile is the general path's
    sp = build_bordered_alternating(ctx, n, s)
    p = random_invertible(ctx, n, CounterStream(derive_seed(8, "skew-path", n)))
    moved = equivalence_act(sp, p.T, p)
    assert moved.alternating
    q, exhaustive, count, residues = analyze._engine_walk(moved, budget, 2000)
    general = _engine.profile_ranks(residues, n, n, q, exhaustive=exhaustive, total=count, seed=1)
    calls = []
    real = _engine.alternating_ranks
    monkeypatch.setattr(_engine, "alternating_ranks", lambda *args: calls.append(1) or real(*args))
    prof = rank_profile(moved, budget=budget, seed=1, samples=2000)
    assert calls
    assert prof.method == ("exhaustive" if exhaustive else "sampled") and prof.checked == count
    got = (prof.min_rank, prof.max_rank, prof.witness_min, prof.witness_max)
    assert got == (general[0], general[2], *(analyze._member_coords(moved, i, exhaustive, q, 1) for i in general[1::2]))
    assert prof.min_rank == prof.max_rank == 2 * s


# -- rank profiles over Q through the modular engine -------------------------------------

# Linear forms (constant, c1, c2) on the diagonal of the model spaces below: the
# rank drops on the lines c1 = 0, c2 = 0, c1 = c2 and c1 = -c2.
DROP_FORMS = [
    (Fraction(1, 2), 0, 0),
    (0, Fraction(1, 3), 0),
    (0, 0, Fraction(-2, 5)),
    (0, Fraction(1, 7), Fraction(-1, 7)),
    (0, Fraction(5, 4), Fraction(5, 4)),
]


def q_drop_space(n, m, alternating, seed):
    """A seeded space over Q with Fraction entries whose rank drops on lines:
    a diagonal (or block-diagonal alternating) model moved by random
    invertible factors."""
    stream = CounterStream(derive_seed(seed, "q-drop", n, m, alternating))
    if alternating:
        forms, j = DROP_FORMS[: n // 2], standard_symplectic(Q, 1)
        gens = [
            place_blocks(Q, n, n, [(2 * i, 2 * i, j.scale(f[t])) for i, f in enumerate(forms)])
            for t in range(3)
        ]
        sp = AffineMatrixSpace(gens[0], gens[1:])
        return congruence_act(sp, random_invertible(Q, n, stream, box=3))
    forms = DROP_FORMS[: min(n, m)]
    gens = [
        place_blocks(Q, n, m, [(i, i, Matrix(Q, [[f[t]]])) for i, f in enumerate(forms)])
        for t in range(3)
    ]
    sp = AffineMatrixSpace(gens[0], gens[1:])
    left = random_invertible(Q, n, stream, box=3)
    return equivalence_act(sp, left, random_invertible(Q, m, stream, box=3))


def sample_coords(sp, i, seed, box=DEFAULT_RATIONAL_BOX):
    """Scalar reference for the coordinates of sampled member i: coordinate j
    is draw i * dim + j, a residue over F_p or an integer in [-box, box] over Q."""
    d = sp.dim
    if sp.ctx.kind == "prime":
        return tuple(uniform_below(seed, i * d + j, sp.ctx.p) for j in range(d))
    return tuple(Fraction(uniform_below(seed, i * d + j, 2 * box + 1) - box) for j in range(d))


def reference_q_profile(sp, seed, samples, rank=lambda m: m.rank()):
    """The per-member loop that ranked sampled members over Q before the
    modular engine did."""
    mn = mx = None
    wmin = wmax = ()
    for i in range(samples):
        coords = sample_coords(sp, i, seed)
        r = rank(sp.member_at(coords))
        if sp.alternating and r % 2 != 0:
            raise AssertionError("alternating member with odd rank")
        if mn is None or r < mn:
            mn, wmin = r, coords
        if mx is None or r > mx:
            mx, wmax = r, coords
    return RankProfile(
        min_rank=mn, max_rank=mx, method="sampled", checked=samples, seed=seed, witness_min=wmin, witness_max=wmax
    )


Q_DROP_CASES = [
    (4, 4, False), (4, 6, False), (5, 3, False), (6, 5, False), (6, 6, True), (7, 7, True),
]


@pytest.mark.parametrize("n, m, alternating", Q_DROP_CASES)
def test_rational_profile_matches_exact_reference_loop(n, m, alternating):
    sp = q_drop_space(n, m, alternating, 1)
    assert any(x.denominator > 1 for g in sp.basis for x in g.flatten())
    seed = derive_seed(2, "q-profile", n, m)
    got = rank_profile(sp, seed=seed, samples=1500)
    want = reference_q_profile(sp, seed, 1500)
    assert got == want
    assert json.dumps(got.to_json(Q)) == json.dumps(want.to_json(Q))
    assert got.min_rank < got.max_rank  # the sample hits a drop line


@pytest.mark.parametrize("n, m, alternating", Q_DROP_CASES)
def test_rational_profile_matches_sympy(n, m, alternating):
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def rank(a):
        rows = [[QQ(x.numerator, x.denominator) for x in row] for row in a.data]
        return DomainMatrix(rows, a.shape, QQ).rank()

    sp = q_drop_space(n, m, alternating, 2)
    seed = derive_seed(3, "q-sympy", n, m)
    assert rank_profile(sp, seed=seed, samples=600) == reference_q_profile(sp, seed, 600, rank)


def test_rational_profile_is_chunk_independent(monkeypatch):
    # two chunks by default, 95 of up to 4369 members when _CHUNK_ELEMS is 2^16
    sp = q_drop_space(5, 3, False, 4)
    samples = 2**22 // 15 + 2**17
    default = rank_profile(sp, seed=6, samples=samples)
    monkeypatch.setattr(_engine, "_CHUNK_ELEMS", 1 << 16)
    assert rank_profile(sp, seed=6, samples=samples) == default
    assert default.min_rank < default.max_rank


@pytest.mark.parametrize("case", ["diag", "alternating", "two-primes"])
def test_rational_profile_needs_more_than_one_prime(case):
    """Members of full rank over Q whose rank halves modulo the first prime
    taken, p1 (diag(1, c p1), and J + c p1 J block-diagonal), or modulo each
    of the first two (c diag(p1, p2)): only a later prime sees the full rank,
    and the Hadamard bound asks for one."""
    p1 = prime_below(1 << 31)
    p2 = prime_below(p1)
    j = standard_symplectic(Q, 1)
    if case == "diag":
        base, step, fooled = Matrix(Q, [[1, 0], [0, 0]]), Matrix(Q, [[0, 0], [0, p1]]), 1
    elif case == "alternating":
        base = place_blocks(Q, 4, 4, [(0, 0, j)])
        step, fooled = place_blocks(Q, 4, 4, [(2, 2, j.scale(p1))]), 1
    else:
        base, step, fooled = Matrix.zeros(Q, 2, 2), Matrix(Q, [[p1, 0], [0, p2]]), 2
    sp = AffineMatrixSpace(base, [step])
    assert sp.alternating == (case == "alternating")
    residues = _rational_residues(sp, 1000)
    assert [r[0] for r in residues[:2]] == [p1, p2] and len(residues) > fooled
    n = full = sp.shape[0]
    low = _engine.profile_ranks(
        residues[:fooled], n, n, 2001, exhaustive=False, total=300, seed=5, alternating=case == "alternating"
    )
    assert low[2] == full // 2
    prof = rank_profile(sp, seed=5, samples=300)
    assert prof.max_rank == full
    assert sp.member_at(prof.witness_max).rank() == full
    assert prof == reference_q_profile(sp, 5, 300)


def test_rational_residues_lift_the_fraction_stack():
    # the counterexample plane, and seeded spaces over Q with fractional entries of shapes 4 x 4
    # (alternating), 3 x 5 and 2 x 2, dims 0-3: the primes and residues of the rebuilt Matrix's lift
    stream = CounterStream(derive_seed(44, "rational-residues"))

    def fractional(n, m, alternating=False):
        x = [[Fraction(stream.element(Q), 1 + stream.below(12)) for _ in range(m)] for _ in range(n)]
        if alternating:
            x = [[x[i][j] if i < j else -x[j][i] if i > j else 0 for j in range(n)] for i in range(n)]
        return Matrix(Q, x)

    cases = [build_counterexample_plane(Q)]
    for (n, m), dim in zip([(4, 4), (3, 5), (2, 2), (4, 4)], range(4)):
        alt = n == m == 4
        gens = [fractional(n, m, alt) for _ in range(dim)]
        cases.append(AffineMatrixSpace(fractional(n, m, alt), gens))
    assert cases[1].alternating and any(x.denominator > 1 for x in cases[-1].base.flatten())
    for sp, box in product(cases, (1, DEFAULT_RATIONAL_BOX)):
        got, want = _rational_residues(sp, box), rational_residues_by_matrix(sp, box)
        assert [p for p, *_ in got] == [p for p, *_ in want]
        for (_, base, basis), (_, base_want, basis_want) in zip(got, want):
            assert base.dtype == basis.dtype == np.int64
            assert base.tolist() == base_want.tolist() and basis.tolist() == basis_want.tolist()


# -- spectrum scans ----------------------------------------------------------------------


def test_trivial_spectrum_identity_span(tmp_path):
    sp = AffineMatrixSpace(Matrix.zeros(F3, 2), [Matrix.identity(F3, 2)])
    rep = trivial_spectrum_check(sp)
    assert not rep.trivial and not rep
    member, lam = rep.witness
    assert lam == 1 and member == Matrix.identity(F3, 2)
    # the witness is plain JSON, in process and in the report ``verify`` writes (exit 1)
    want = {"trivial": False, "checked": 3, "witness_member": member.to_json(), "witness_eigenvalue": "1"}
    assert json.loads(json.dumps(rep.to_json(F3))) == want
    src, out = tmp_path / "space.json", tmp_path / "out.json"
    src.write_text(json.dumps(sp.to_json()))
    assert main(["verify", "--in", str(src), "--check", "trivial-spectrum", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["results"]["report"] == want


def test_trivial_spectrum_symplectic_span():
    k = standard_symplectic(F5, 1)
    sp = AffineMatrixSpace(Matrix.zeros(F5, 2), [k])
    rep = trivial_spectrum_check(sp)
    assert not rep.trivial
    member, lam = rep.witness
    assert (member, lam) == (k, 2)  # K has eigenvalues +-2 mod 5


def test_trivial_spectrum_strictly_upper():
    sp = build_strictly_upper_space(F3, 3)
    rep = trivial_spectrum_check(sp)
    assert rep.trivial and rep.checked == 27
    assert bool(rep)


def test_trivial_spectrum_guards():
    # the budget holds the line scan alone: the span of I over F_3 has no
    # common nilpotent flag, while the strictly upper space passes on its flag
    with pytest.raises(BudgetExceededError):
        trivial_spectrum_check(AffineMatrixSpace(Matrix.zeros(F3, 2), [Matrix.identity(F3, 2)]), budget=2)
    rep = trivial_spectrum_check(build_strictly_upper_space(F3, 3), budget=5)
    assert rep.trivial and rep.checked == 27
    nonlinear = AffineMatrixSpace(Matrix.identity(F3, 2), [])
    with pytest.raises(ValueError):
        trivial_spectrum_check(nonlinear)
    rect = AffineMatrixSpace(Matrix.zeros(F3, 2, 3), [])
    with pytest.raises(ValueError):
        trivial_spectrum_check(rect)


def reference_spectrum_witness(sp):
    """The exact-layer loop: every member in lex order, every lam in 1..p-1,
    and det(M - lam I); the first (member, lam) pair where it vanishes, or None."""
    p = sp.ctx.p
    eye = Matrix.identity(sp.ctx, sp.shape[0])
    for _, m in sp.enumerate():
        for lam in range(1, p):
            if (m - eye.scale(lam)).det() == 0:
                return m, lam
    return None


WITNESS_CASES = [
    (2, 1, 7, 11), (2, 2, 5, 1), (2, 3, 2, 2), (3, 2, 5, 3), (3, 3, 5, 4), (3, 3, 3, 5), (4, 2, 3, 6),
    (2, 2, 11, 7), (3, 3, 2, 8), (4, 4, 2, 9), (3, 1, 2, 10),
]


def witness_space(n, dim, p, seed):
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(seed, "spectrum-witness"))
    return AffineMatrixSpace(Matrix.zeros(ctx, n), [random_matrix(ctx, n, n, stream) for _ in range(dim)])


@pytest.mark.parametrize("n, dim, p, seed", WITNESS_CASES)
def test_spectrum_witness_matches_reference_loop(n, dim, p, seed):
    sp = witness_space(n, dim, p, seed)
    want = reference_spectrum_witness(sp)
    assert want is not None  # a nontrivial spectrum, so there is a witness to find
    rep = trivial_spectrum_check(sp)
    assert not rep.trivial and rep.checked == p**dim
    assert rep.witness == want


@pytest.mark.parametrize("p, comp", [(2, [[0, 1], [1, 1]]), (3, [[0, 2], [1, 0]]), (5, [[0, 2], [1, 0]])])
def test_trivial_spectrum_is_not_nilpotence(p, comp):
    # C is the companion matrix of an irreducible quadratic (x^2 + x + 1 or
    # x^2 - 2): every lam C has its eigenvalues outside F_p, so the scan, which
    # sees eigenvalues in F_p only, calls the space trivial though C^k != 0
    ctx = FieldCtx.prime(p)
    c = Matrix(ctx, comp)
    units = [unit(ctx, 4, 0, 2), unit(ctx, 4, 1, 3), unit(ctx, 4, 2, 3)]
    sp = AffineMatrixSpace(Matrix.zeros(ctx, 4), [place_blocks(ctx, 4, 4, [(0, 0, c)])] + units)
    assert reference_spectrum_witness(sp) is None
    assert nilpotent_flag(sp) is None  # C is not nilpotent, so the scan decides
    rep = trivial_spectrum_check(sp)
    assert rep.trivial and rep.checked == p**4
    power = c
    for _ in range(4):
        power = power @ c
    assert not power.is_zero()
    # one more direction with a nonzero eigenvalue in F_p makes it nontrivial
    nontrivial = AffineMatrixSpace(Matrix.zeros(ctx, 4), list(sp.basis) + [unit(ctx, 4, 3, 3)])
    rep = trivial_spectrum_check(nontrivial)
    assert not rep.trivial and rep.witness == reference_spectrum_witness(nontrivial)


def least_scaled_hit(hits, dim, p):
    """The least (index of lam * z, lam) over hits z (lex indices of nonzero
    coordinate tuples) and lam in 1..p-1: the witness rule of the full-member
    scan, vectorised.

    Scaling keeps a tuple's leading position, so for each z the least scaled
    index is taken exactly at lam = 1 / (leading digit of z), which makes
    that digit 1; ties between hits on one line go to the least lam.
    """
    def digits():  # most significant first
        return (hits // p ** (dim - 1 - t) % p for t in range(dim))

    lead = np.zeros_like(hits)
    for d in digits():
        lead = np.where(lead == 0, d, lead)
    lam = _engine.inverse_mod(lead, p)
    idx = np.zeros_like(hits)
    for d in digits():
        idx = idx * p + d * lam % p
    best = idx.min()
    return int(best), int(lam[idx == best].min())


def reference_least_scaled_hit(hits, dim, p):
    """``least_scaled_hit`` as a member-major, eigenvalue-minor loop."""
    best = None
    for z in hits:
        coords = _engine.index_to_coords(int(z), dim, p)
        for lam in range(1, p):
            idx = 0
            for c in coords:
                idx = idx * p + (lam * c) % p
            if best is None or (idx, lam) < best:
                best = (idx, lam)
    return best


def full_member_scan(sp):
    """The scan the line scan replaced: the lex indices of every member M with
    rank(M - I) < n, ranked by ``batch_rank``."""
    n, p = sp.shape[0], sp.ctx.p
    neg_ident = -np.eye(n, dtype=np.int64).reshape(n * n) % p
    coords = _engine.lex_coords(0, p**sp.dim, sp.dim, p)
    mats = _engine.members_from_coords(coords, neg_ident, sp.flat_arrays()[1], p).T.reshape(-1, n, n)
    return np.nonzero(_engine.batch_rank(mats, p) < n)[0]


LINE_SCAN_CASES = [
    (4, 4, 11, 1, False), (4, 4, 11, 2, True), (3, 5, 7, 3, False), (5, 3, 11, 4, False), (3, 6, 5, 5, False),
    (4, 8, 3, 6, False),
]


def line_scan_space(n, dim, p, seed, upper):
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(seed, "line-scan"))
    if upper:  # a trivial space: strictly upper directions, conjugated
        g = random_invertible(ctx, n, stream)
        units = [unit(ctx, n, i, j) for i in range(n) for j in range(i + 1, n)][:dim]
        basis = [g.inverse() @ u @ g for u in units]
    else:
        basis = [random_matrix(ctx, n, n, stream) for _ in range(dim)]
    return AffineMatrixSpace(Matrix.zeros(ctx, n), basis)


@pytest.mark.parametrize("n, dim, p, seed, upper", LINE_SCAN_CASES)
def test_line_scan_matches_full_member_scan(n, dim, p, seed, upper):
    sp = line_scan_space(n, dim, p, seed, upper)
    ctx = sp.ctx
    old = full_member_scan(sp)
    rep = trivial_spectrum_check(sp)
    assert rep.trivial == (old.size == 0) and rep.checked == p**dim
    if old.size:
        idx, lam = least_scaled_hit(old, dim, p)
        assert rep.witness == (sp.member_at(_engine.index_to_coords(idx, dim, p)), lam)
    # the new hits are the old hits' lines, each named by its leading-digit-1 member
    lines = set()
    for z in old.tolist():
        coords = _engine.index_to_coords(z, dim, p)
        inv = pow(next(c for c in coords if c), -1, p)
        lines.add(sum(c * inv % p * p ** (dim - 1 - t) for t, c in enumerate(coords)))
    assert _engine.unit_eigen_hits(sp.flat_arrays()[1], n, p).tolist() == sorted(lines)


def test_spectrum_scan_at_large_primes():
    # one line of p members; checked counts all p of them, and the flag
    # passes the space past the budget too
    big = FieldCtx.prime(1_048_583)
    stream = CounterStream(derive_seed(1, "spectrum-large-p"))
    g = random_invertible(big, 5, stream)
    nil = Matrix(big, [[stream.element(big) if j > i else 0 for j in range(5)] for i in range(5)])
    sp = AffineMatrixSpace(Matrix.zeros(big, 5), [g.inverse() @ nil @ g])
    for budget in (big.p, big.p - 1):
        rep = trivial_spectrum_check(sp, budget=budget)
        assert rep.trivial and rep.checked == big.p
    # eigenvalues 0, 17 and 9000: the witness is the one member, at 17
    mid = FieldCtx.prime(10_007)
    g = random_invertible(mid, 5, stream)
    tri = Matrix(mid, [[0, 1, 2, 3, 4], [0, 17, 5, 6, 7], [0, 0, 0, 8, 9], [0, 0, 0, 9000, 10], [0, 0, 0, 0, 17]])
    member = g.inverse() @ tri @ g
    sp = AffineMatrixSpace(Matrix.zeros(mid, 5), [member])
    rep = trivial_spectrum_check(sp, budget=mid.p)
    assert not rep.trivial and rep.checked == mid.p
    assert rep.witness == (member, 17)
    with pytest.raises(BudgetExceededError):  # no flag, so the line scan and its budget decide
        trivial_spectrum_check(sp, budget=mid.p - 1)
    # the worst case for the witness search: the one nonzero eigenvalue is p - 2
    big = FieldCtx.prime(100_003)
    g = random_invertible(big, 5, stream)
    tri = Matrix(big, [[0, 1, 2, 3, 4], [0, big.p - 2, 5, 6, 7], [0, 0, 0, 8, 9], [0, 0, 0, 0, 10], [0, 0, 0, 0, 0]])
    member = g.inverse() @ tri @ g
    rep = trivial_spectrum_check(AffineMatrixSpace(Matrix.zeros(big, 5), [member]), budget=big.p)
    assert not rep.trivial and rep.witness == (member, big.p - 2)


@pytest.mark.parametrize("dim, p", [(1, 2), (3, 2), (2, 3), (3, 5), (2, 7)])
def test_least_scaled_hit_matches_reference_loop(dim, p):
    # arbitrary index sets, many with several multiples of one tuple, so ties
    # between hits on one line decide the eigenvalue
    rng = np.random.default_rng(100 * dim + p)
    for _ in range(20):
        hits = np.unique(rng.integers(1, p**dim, rng.integers(1, 12)))
        assert least_scaled_hit(hits, dim, p) == reference_least_scaled_hit(hits, dim, p)


# -- nilpotent flags -----------------------------------------------------------------------


def nilpotent_without_flag(ctx):
    """The span of J = [[0,1,0],[0,0,1],[0,0,0]] and Y = [[0,0,0],[1,0,0],[0,-1,0]]:
    every member is nilpotent, but J Y = diag(1, -1, 0) is not, so J and Y
    have no common flag."""
    j = Matrix(ctx, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    y = Matrix(ctx, [[0, 0, 0], [1, 0, 0], [0, -1, 0]])
    return AffineMatrixSpace(Matrix.zeros(ctx, 3), [j, y])


def flag_cases():
    """Seeded spaces with and without a flag: those of the witness and line-scan
    tests, conjugated subspaces of the strictly upper space, and the
    operator-block spaces at n = 2, 3 over F_3, F_5 and F_7."""
    spaces = [witness_space(*case) for case in WITNESS_CASES]
    spaces += [line_scan_space(*case) for case in LINE_SCAN_CASES]
    for n, dim, p in ((3, 2, 3), (3, 3, 5), (4, 3, 7), (4, 5, 3), (5, 4, 5), (5, 6, 3)):
        ctx = FieldCtx.prime(p)
        stream = CounterStream(derive_seed(n, "flag-upper", dim, p))
        g = random_invertible(ctx, n, stream)
        uppers = [Matrix(ctx, [[stream.element(ctx) if j > i else 0 for j in range(n)] for i in range(n)])
                  for _ in range(dim)]
        spaces.append(AffineMatrixSpace(Matrix.zeros(ctx, n), [g.inverse() @ u @ g for u in uppers]))
    for p in (3, 5, 7):
        for n in (2, 3):
            pair = build_operator_block_space(FieldCtx.prime(p), n)
            spaces.append(AffineMatrixSpace(Matrix.zeros(pair.ctx, 2 * n), list(pair.operators)))
    return spaces


def test_flag_decides_past_the_budget():
    # a conjugate of the strictly upper 9 x 9 space over F_7: 7^36 members, far
    # past any budget, none of them enumerated
    ctx = FieldCtx.prime(7)
    g = random_invertible(ctx, 9, CounterStream(derive_seed(2, "flag-past-budget")))
    sp = AffineMatrixSpace(Matrix.zeros(ctx, 9), [g.inverse() @ u @ g for u in build_strictly_upper_space(ctx, 9).basis])
    rep = trivial_spectrum_check(sp, budget=0)
    assert rep.trivial and rep.checked == 7**36 and rep.witness is None


def test_nilpotent_flag_agrees_with_the_scan():
    flagged = nontrivial = 0
    for sp in flag_cases():
        n, p = sp.shape[0], sp.ctx.p
        flag = nilpotent_flag(sp)
        hits = _engine.unit_eigen_hits(sp.flat_arrays()[1], n, p)
        if flag is not None:
            flagged += 1
            assert hits.size == 0
            inv = flag.inverse()
            for g in sp.basis:  # P^-1 G P is strictly upper triangular
                c = inv @ g @ flag
                assert all(c[i, j] == 0 for i in range(n) for j in range(i + 1))
        if hits.size:
            nontrivial += 1
            assert flag is None
    assert flagged >= 12 and nontrivial >= 10


def test_flagged_members_have_characteristic_polynomial_x_to_the_n():
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    stream = CounterStream(derive_seed(4, "flag-sympy"))
    for sp in flag_cases():
        if nilpotent_flag(sp) is None:
            continue
        n, p, field = sp.shape[0], sp.ctx.p, GF(sp.ctx.p)
        for _ in range(3):
            m = sp.member_at([stream.element(sp.ctx) for _ in range(sp.dim)])
            poly = DomainMatrix([[field(x) for x in row] for row in m.data], (n, n), field).charpoly()
            assert [int(c) % p for c in poly] == [1] + [0] * n


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nilpotent_without_flag_still_scans_trivial(p):
    ctx = FieldCtx.prime(p)
    sp = nilpotent_without_flag(ctx)
    assert all((m @ m @ m).is_zero() for _, m in sp.enumerate())
    assert nilpotent_flag(sp) is None
    rep = trivial_spectrum_check(sp)
    assert rep.trivial and rep.checked == p**2


def test_nilpotent_flag_edge_spaces():
    assert nilpotent_flag(AffineMatrixSpace(Matrix.zeros(F3, 2), [Matrix.identity(F3, 2)])) is None
    assert nilpotent_flag(AffineMatrixSpace(Matrix.zeros(F5, 3), [])) == Matrix.identity(F5, 3)
    with pytest.raises(ValueError, match="square"):
        nilpotent_flag(AffineMatrixSpace(Matrix.zeros(F3, 2, 3), []))


def conjugated_upper(ctx, n, stream, keep):
    """g^-1 U g for the strictly upper units U = E_ij, i < j, that ``keep`` picks, g seeded."""
    g = random_invertible(ctx, n, stream)
    ginv = g.inverse()
    return [ginv @ unit(ctx, n, i, j) @ g for i in range(n) for j in range(i + 1, n) if keep()]


def flag_oracle_cases():
    """Seeded square linear spaces over F_2, F_3, F_7, F_p with p = 2,147,483,629 and Q at
    n = 0..7: conjugated subsets of the strictly upper units, with and without one random
    generator more, operator-block spaces over such a core (n = 1..3, so 2n <= 7), random
    spaces, and ``nilpotent_without_flag``."""
    for ctx in (F2, F3, FieldCtx.prime(7), FieldCtx.prime(2_147_483_629), Q):
        stream = CounterStream(derive_seed(11, "flag-oracle", ctx.to_str()))
        keep = lambda: stream.below(3) > 0
        for n in range(8):
            zero = Matrix.zeros(ctx, n)
            uppers = conjugated_upper(ctx, n, stream, keep) if n else []
            yield AffineMatrixSpace(zero, uppers)
            yield AffineMatrixSpace(zero, independent_matrices(uppers + [random_matrix(ctx, n, n, stream)]))
            yield AffineMatrixSpace(zero, independent_matrices([random_matrix(ctx, n, n, stream) for _ in range(3)]))
            if 1 <= n <= 3:
                core = AffineMatrixSpace(Matrix.zeros(ctx, n), conjugated_upper(ctx, n, stream, keep))
                ops = build_operator_block_space(ctx, n, core).operators
                yield AffineMatrixSpace(Matrix.zeros(ctx, 2 * n), list(ops))
        yield nilpotent_without_flag(ctx)


def test_nilpotent_flag_and_its_proof_match_the_span_oracles():
    verdicts, proofs = Counter(), Counter()
    stream = CounterStream(derive_seed(11, "flag-proof-oracle"))
    for sp in flag_oracle_cases():
        ctx, n = sp.ctx, sp.shape[0]
        flag, want = nilpotent_flag(sp), nilpotent_flag_by_span(sp)
        assert (flag is None) == (want is None), sp
        if flag is not None:
            assert analyze._flag_holds(flag, sp) and analyze._flag_holds(want, sp)
        verdicts[ctx.to_str(), flag is not None] += sp.dim > 0
        # the one elimination decides as the per-column Spans do: on the flag found, on it with its
        # columns reversed, and on two seeded random bases
        bases = [random_matrix(ctx, n, n, stream) for _ in range(2)]
        if flag is not None:
            bases += [flag, Matrix(ctx, [row[::-1] for row in flag.data], n)]
        for basis in bases:
            holds = analyze._flag_holds(basis, sp)
            assert holds == flag_holds_by_span(basis, sp), (sp, basis)
            proofs[ctx.to_str(), holds] += sp.dim > 0
    # both verdicts, several times, on every field and spaces of positive dimension
    assert len(verdicts) == 10 and min(verdicts.values()) >= 5, verdicts
    assert len(proofs) == 10 and min(proofs.values()) >= 5, proofs


def test_flag_holds_rejects_what_is_no_flag():
    # a flag found by the search holds; the same basis singular (its last column zero, where every
    # image condition still holds, or a column repeated), with its first and last columns swapped
    # (the image of the new first column leaves the zero span), or of the wrong shape does not,
    # and neither does a basis whose images only stay in span(b_0..b_j)
    for ctx in (F3, Q):
        operators = list(build_operator_block_space(ctx, 2).operators)
        for sp in (build_strictly_upper_space(ctx, 4), AffineMatrixSpace(Matrix.zeros(ctx, 4), operators)):
            flag = nilpotent_flag(sp)
            assert analyze._flag_holds(flag, sp)
            cols = [flag.col(j) for j in range(4)]
            zero = (ctx.zero(),) * 4
            for bad in ([*cols[:3], zero], [cols[0], cols[0], *cols[2:]], [cols[3], *cols[1:3], cols[0]]):
                assert not analyze._flag_holds(Matrix(ctx, zip(*bad)), sp)
            for shape in [(3, 3), (4, 5), (5, 4), (0, 0)]:
                assert not analyze._flag_holds(Matrix.zeros(ctx, *shape), sp)
            assert not analyze._flag_holds(flag.block(0, 3, 0, 3), sp)
        # G b_j in span(b_0..b_j) is not enough: the identity's basis of F^4 is no flag of its own span
        identity = Matrix.identity(ctx, 4)
        assert not analyze._flag_holds(identity, AffineMatrixSpace(Matrix.zeros(ctx, 4), [identity]))


def test_flag_search_builds_no_span_and_no_matrix_product(monkeypatch):
    spaces = [sp for ctx in (F3, Q) for sp in (
        build_strictly_upper_space(ctx, 5),
        nilpotent_without_flag(ctx),
        AffineMatrixSpace(Matrix.zeros(ctx, 2), [Matrix.identity(ctx, 2)]),
        AffineMatrixSpace(Matrix.zeros(ctx, 4), list(build_operator_block_space(ctx, 2).operators)),
    )]
    calls = Counter()
    for cls, name in ((Span, "__init__"), (Matrix, "__matmul__")):
        def spy(*args, _orig=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cls, name, spy)
    flagged = [nilpotent_flag(sp) is not None for sp in spaces]
    assert calls == Counter() and flagged == [True, False, False, True] * 2
    nilpotent_flag_by_span(spaces[0])  # the search it replaced trips both spies
    assert calls["__init__"] and calls["__matmul__"]


def test_flagged_spaces_never_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise RuntimeError("the line scan ran on a flagged space")

    monkeypatch.setattr(_engine, "unit_eigen_hits", no_scan)
    for ctx in (F3, F5):
        for n in range(1, 6):
            rep = trivial_spectrum_check(build_strictly_upper_space(ctx, n), budget=10**7)
            assert rep.trivial and rep.checked == ctx.p ** (n * (n - 1) // 2)
        for n in (2, 3):
            pair = build_operator_block_space(ctx, n)
            assert duality_invariant_check(pair)


@pytest.mark.parametrize(
    "basis",
    [Matrix(F3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]), Matrix.zeros(F3, 3), Matrix.identity(F3, 2)],
    ids=["not-triangularizing", "singular", "wrong-shape"],
)
def test_nilpotent_flag_is_rechecked_exactly(monkeypatch, basis):
    sp = build_strictly_upper_space(F3, 3)
    assert trivial_spectrum_check(sp).trivial
    inner = build_unitriangular_space(F3, 3)
    assert invertible_by_flag(inner)
    monkeypatch.setattr(analyze, "nilpotent_flag", lambda space: basis)
    with pytest.raises(AssertionError, match="^nilpotent flag failed exact re-verification$"):
        trivial_spectrum_check(sp)
    with pytest.raises(AssertionError, match="^nilpotent flag failed exact re-verification$"):
        invertible_by_flag(inner)


# -- rank-degeneration conclusions ---------------------------------------------------------


def test_fa_pencil_block_supported_matrix():
    m = Matrix(F5, [[1, 2, 0], [3, 4, 0], [0, 0, 0]])
    rep = flanders_atkinson_check([m], 2, "pencil")[0]
    assert rep.hypothesis_held and rep.D_zero
    assert all(rep.moment_vanishing)
    assert rep.conclusions_hold and rep.first_failure is None


def test_fa_hypothesis_failure_reported():
    m = unit(F5, 3, 2, 2)
    rep = flanders_atkinson_check([m], 2, "pencil")[0]
    assert not rep.hypothesis_held
    assert rep.first_failure[0] == "hypothesis"
    assert not rep.conclusions_hold


def test_fa_line_mode():
    m = Matrix(F5, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    rep = flanders_atkinson_check([m], 2, "line")[0]
    assert rep.hypothesis_held and rep.conclusions_hold


def test_fa_alternating_mode_on_bordered_generators():
    sp = build_bordered_alternating(F5, 7, 2)
    k = sp.base.block(0, 4, 0, 4)
    assert k == standard_symplectic(F5, 2)
    reports = flanders_atkinson_check(sp.basis, 4, "alternating", gram=k)
    assert len(reports) == len(sp.basis)
    for rep in reports:
        assert rep.hypothesis_held and rep.D_zero
        assert all(rep.moment_vanishing)


def test_fa_checks_a_family_against_one_gram(monkeypatch):
    # one report per matrix, in order, each as a one-matrix call gives it; K is
    # inverted once for the whole family, and an empty family returns [] without
    # looking at K at all
    sp = build_bordered_alternating(F5, 7, 2)
    k = sp.base.block(0, 4, 0, 4)
    stream = CounterStream(derive_seed(3, "fa-family"))
    ms = [*sp.basis, random_alternating(F5, 7, stream), Matrix.zeros(F5, 7)]
    singles = [flanders_atkinson_check([m], 4, "alternating", gram=k)[0] for m in ms]
    assert [rep.conclusions_hold for rep in singles] == [True] * len(sp.basis) + [False, True]
    inverses = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda self: inverses.append(self) or inverse(self))
    assert flanders_atkinson_check(ms, 4, "alternating", gram=k) == singles
    assert inverses == [k]
    assert flanders_atkinson_check([], 4, "alternating", gram=Matrix.zeros(F5, 4)) == []
    assert flanders_atkinson_check((), 4, "alternating") == []


def test_fa_guards():
    with pytest.raises(ValueError, match="one field and shape"):
        flanders_atkinson_check([unit(F5, 3, 0, 1), unit(F5, 4, 0, 1)], 2, "pencil")
    with pytest.raises(ValueError, match="one field and shape"):
        flanders_atkinson_check([unit(F5, 3, 0, 1), unit(FieldCtx.prime(7), 3, 0, 1)], 2, "pencil")
    with pytest.raises(ValueError, match="^alternating mode needs an alternating matrix$"):
        flanders_atkinson_check([Matrix.zeros(F5, 3), unit(F5, 3, 0, 1)], 2, "alternating", gram=standard_symplectic(F5, 1))
    m = Matrix(Q, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        flanders_atkinson_check([m], 1, "pencil")
    m5 = unit(F5, 3, 0, 1)
    with pytest.raises(ValueError):
        flanders_atkinson_check([m5], 2, "sideways")
    with pytest.raises(ValueError):
        flanders_atkinson_check([m5], 2, "alternating", gram=Matrix.identity(F5, 2))


def reference_fa_failure(m, r, mode, gram=None):
    """The exact-layer hypothesis loop, one ``rank()`` per pencil member, that
    the engine scan replaced."""
    ctx, n = m.ctx, m.nrows
    j = place_blocks(ctx, n, n, [(0, 0, gram if mode == "alternating" else Matrix.identity(ctx, r))])
    if mode == "pencil":
        pairs = [(s, t) for s in range(ctx.p) for t in range(ctx.p)]
    else:
        pairs = [(1, t) for t in range(ctx.p)]
    for s, t in pairs:
        rk = (j.scale(s) + m.scale(t)).rank()
        if rk > r:
            return ("hypothesis", (s, t, rk))
    return None


def fa_cases(ctx, mode, stream):
    """(M, gram) pairs for a rank bound of 2 on 4 x 4 matrices: random ones,
    low-rank ones (whose pencils fail late, if at all), and the dependent
    pencils M = 0 and M = 2J."""
    n, r = 4, 2
    if mode == "alternating":
        out = []
        for _ in range(4):
            k = random_invertible_alternating(ctx, r, stream)
            x, y = stream.vector(ctx, n), stream.vector(ctx, n)
            wedge = Matrix(ctx, [[x[a] * y[b] - y[a] * x[b] for b in range(n)] for a in range(n)])
            out += [(random_alternating(ctx, n, stream), k), (wedge, k)]
        k = standard_symplectic(ctx, 1)
        jk = place_blocks(ctx, n, n, [(0, 0, k)])
        return out + [(Matrix.zeros(ctx, n), k), (jk.scale(2), k)]
    j = place_blocks(ctx, n, n, [(0, 0, Matrix.identity(ctx, r))])
    out = []
    for _ in range(4):
        x, y = stream.vector(ctx, n), stream.vector(ctx, n)
        rank_one = Matrix(ctx, [[a * b for b in y] for a in x])
        out += [(random_matrix(ctx, n, n, stream), None), (rank_one, None)]
    return out + [(Matrix.zeros(ctx, n), None), (j.scale(2), None)]


@pytest.mark.parametrize("mode", ["pencil", "line", "alternating"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_fa_first_failure_matches_exact_reference_loop(p, mode):
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(6, "fa-scan", p, mode))
    held = failed = 0
    for m, gram in fa_cases(ctx, mode, stream):
        [rep] = flanders_atkinson_check([m], 2, mode, gram=gram)
        want = reference_fa_failure(m, 2, mode, gram)
        assert rep.hypothesis_held == (want is None)
        if want is None:
            held += 1
        else:
            failed += 1
            assert rep.first_failure == want
            assert all(type(x) is int for x in rep.first_failure[1])
            json.dumps(rep.to_json())
    assert held >= 2 and failed >= 1


def full_line_failure(m, r, mode, gram=None):
    """The first hypothesis failure by one exact ``rank()`` at every t of the
    whole line J + t*M, after rank(M) in pencil mode."""
    ctx, n = m.ctx, m.nrows
    j = place_blocks(ctx, n, n, [(0, 0, gram if mode == "alternating" else Matrix.identity(ctx, r))])
    if mode == "pencil" and (rk := m.rank()) > r:
        return ("hypothesis", (0, 1, rk))
    for t in range(ctx.p):
        rk = (j + m.scale(t)).rank()
        if rk > r:
            return ("hypothesis", (1, t, rk))
    return None


def late_fa_cases(ctx, mode):
    """(M, gram, least failing t on the line) for r = 2 and n = 4, with the
    failure as late as the degree bound allows: det diag(1 - t, 1 - t/2, t)
    vanishes at t = 0, 1, 2, and det diag(1 - t, 1, t) and Pf(J_K + t*M) =
    t(1 - t) at t = 0, 1."""
    if mode == "alternating":
        m = Matrix(ctx, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        return [(m, standard_symplectic(ctx, 1), 2)]
    cases = [(Matrix(ctx, [[-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]), None, 2)]
    if mode == "line":  # rank(M) = 3 would fail the pencil at (0, 1)
        half = ctx.neg(ctx.inv(2))
        cases.append((Matrix(ctx, [[-1, 0, 0, 0], [0, half, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]), None, 3))
    return cases


@pytest.mark.parametrize("mode", ["pencil", "line", "alternating"])
@pytest.mark.parametrize("p", [5, 7, 11, 101])
def test_fa_bounded_scan_matches_full_line_reference(p, mode):
    # the scan stops at t = r + 1; the full line finds the same verdicts and
    # first witnesses, the latest of them at t = r + 1 itself
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(6, "fa-bounded", p, mode))
    cases = [(m, gram, None) for m, gram in fa_cases(ctx, mode, stream)] + late_fa_cases(ctx, mode)
    held = failed = 0
    for m, gram, late in cases:
        [rep] = flanders_atkinson_check([m], 2, mode, gram=gram)
        want = full_line_failure(m, 2, mode, gram)
        assert rep.hypothesis_held == (want is None)
        if want is None:
            held += 1
        else:
            failed += 1
            assert rep.first_failure == want
        if late is not None:
            assert want[1][:2] == (1, late)
    assert held >= 2 and failed >= 2


def staged_fa_family(ctx, mode, r):
    """(generators, gram, least failing t per generator or None) at n = r + 2 for one
    batched check: J + t*M is diagonal, or block diagonal in 2 x 2 blocks w = [[0, 1],
    [-1, 0]] in alternating mode, with one factor t and factors 1 - t/k for k < t0, so
    the line first exceeds rank r at t0.  That reaches t0 = r + 1 outside alternating mode
    (an (r+1)-minor has degree r + 1 in t) and t0 = r/2 + 1 in it (a Pfaffian of order
    r + 2 has degree r/2 + 1); a t0 past p - 1 is left out.  M = 0 and M = J always hold."""
    n, s = r + 2, r // 2
    w = Matrix(ctx, [[0, 1], [-1, 0]])
    gram = place_blocks(ctx, r, r, [(2 * i, 2 * i, w) for i in range(s)]) if mode == "alternating" else None
    j = place_blocks(ctx, n, n, [(0, 0, gram if gram is not None else Matrix.identity(ctx, r))])
    gens, firsts = [Matrix.zeros(ctx, n), j], [None, None]
    for t0 in range(1, min(ctx.p, (s if mode == "alternating" else r) + 2)):
        c = [ctx.neg(ctx.inv(k)) for k in range(1, t0)] + [0] * ((s if mode == "alternating" else r) - t0 + 1)
        if mode == "alternating":
            m = place_blocks(ctx, n, n, [(2 * i, 2 * i, w.scale(x)) for i, x in enumerate(c)] + [(r, r, w)])
        else:
            m = place_blocks(ctx, n, n, [(i, i, Matrix(ctx, [[x]])) for i, x in enumerate([*c, 1])])
        gens.insert(t0 % 3, m)  # failures at different t interleave with generators that hold
        firsts.insert(t0 % 3, t0)
    return gens, gram, firsts


@pytest.mark.parametrize("mode", ["pencil", "line", "alternating"])
@pytest.mark.parametrize("p, r", [(3, 2), (5, 4), (3, 4), (7, 2), (11, 4), (13, 6)])
def test_fa_batched_lines_match_per_generator_references(p, r, mode):
    # one batch_rank stack ranks every generator's line; each report equals the exact full-line
    # reference and the one-generator call, its failure at the planted t (at p < r + 2 the scan
    # stops at t = p - 1), and a pencil with rank(M) = r + 1 fails at (0, 1) first
    ctx = FieldCtx.prime(p)
    gens, gram, firsts = staged_fa_family(ctx, mode, r)
    reports = flanders_atkinson_check(gens, r, mode, gram=gram)
    assert reports == [flanders_atkinson_check([m], r, mode, gram=gram)[0] for m in gens]
    for m, rep, t0 in zip(gens, reports, firsts):
        want = full_line_failure(m, r, mode, gram)
        assert rep.hypothesis_held == (want is None) == (t0 is None)
        if want is not None:
            assert rep.first_failure == want
            assert want[1][:2] == ((0, 1) if mode == "pencil" and t0 == r + 1 else (1, t0))
    reached = [t0 for t0 in firsts if t0 is not None]
    assert max(reached) == min(p - 1, r // 2 + 1 if mode == "alternating" else r + 1)


def test_fa_lines_are_ranked_in_engine_chunks(monkeypatch):
    # 600 generators x 4 line members, in chunks of at most 1,024 members: three
    # batch_rank calls, with every report as the exact reference gives it
    stream = CounterStream(derive_seed(39, "fa-chunks"))
    x, y = stream.vector(F5, 4), stream.vector(F5, 4)
    rank_one = Matrix(F5, [[a * b for b in y] for a in x])
    gens = [random_matrix(F5, 4, 4, stream) if i % 3 else rank_one.scale(i) for i in range(600)]
    whole = flanders_atkinson_check(gens, 2, "line")
    monkeypatch.setattr(_engine, "_CHUNK_ELEMS", 1)
    calls = []
    batch_rank = _engine.batch_rank
    monkeypatch.setattr(_engine, "batch_rank", lambda mats, p: calls.append(len(mats)) or batch_rank(mats, p))
    reports = flanders_atkinson_check(gens, 2, "line")
    assert calls == [1024, 1024, 352]
    assert reports == whole
    for m, rep in zip(gens, reports):
        want = full_line_failure(m, 2, "line")
        assert rep.hypothesis_held == (want is None) and (want is None or rep.first_failure == want)
    assert 0 < sum(rep.hypothesis_held for rep in reports) < 600


P_BIG = 2_147_483_629  # a prime below 2^31: the stacked moments sum in groups of two terms


def fa_blocks(ctx, a, b, c, d):
    """[[A, B], [C, D]], split at r = A's order."""
    r, n = a.nrows, a.nrows + d.nrows
    return place_blocks(ctx, n, n, [(0, 0, a), (0, r, b), (r, 0, c), (r, r, d)])


def fa_change_basis(ms, gram, r, mode, stream):
    """(P^-1 M P for each M, gram) outside alternating mode, (P^T M P, S^T K S) in it, for
    P = diag(S, I) with S a random invertible r x r matrix: J + t*M keeps its ranks and every
    moment its value, while the entries grow to the size of p."""
    ctx, n = ms[0].ctx, ms[0].nrows
    s = random_invertible(ctx, r, stream)
    p = place_blocks(ctx, n, n, [(0, 0, s), (r, r, Matrix.identity(ctx, n - r))])
    if mode == "alternating":
        return [p.T @ m @ p for m in ms], s.T @ gram @ s
    return [p.inverse() @ m @ p for m in ms], gram


def fa_diagonal_cases(ctx, r):
    """Three matrices of order r + 1 over F_p, r = p + 2, whose lines J + t*M are singular
    at every t in F_p and whose pencils have rank(M) <= r, so the hypothesis holds over F_p
    while a conclusion fails: D = 1; C B = 1; and C B = 0 with C A B = -1.  With A =
    diag(m_i), det(J + t*M) is t D prod(1 + t m_i) when B = C = 0 and -t^2 C adj(I + tA) B
    when D = 0; the factors 1 + t m_i with m_i = -1/k, k = 1..p - 1, leave no t != 0 out."""
    p = ctx.p
    kill = [ctx.neg(ctx.inv(k)) for k in range(1, p)]
    diag = lambda ms: Matrix(ctx, [[ms[i] if i == j else 0 for j in range(r)] for i in range(r)])
    col = lambda *xs: Matrix(ctx, [[x] for x in xs] + [[0]] * (r - len(xs)))
    one, zero = Matrix(ctx, [[1]]), Matrix.zeros(ctx, 1)
    pad = lambda ms: [*ms, *[0] * (r - len(ms))]
    return [
        fa_blocks(ctx, diag(pad(kill)), col(), col().T, one),
        fa_blocks(ctx, diag(pad([0, *kill])), col(1), col(1).T, zero),
        fa_blocks(ctx, diag(pad([0, 1, *kill])), col(1, 1), col(1, -1).T, zero),
    ]


def fa_conclusion_families(ctx, mode, stream):
    """(generators, r, gram) families whose rank hypothesis holds or fails, and whose
    conclusions hold or, over fields too small for the theorem, fail at D or at a moment;
    with the edges r = 0 and r = n."""
    if mode == "alternating":
        sp = build_bordered_alternating(ctx, 7, 2)
        held, gram = fa_change_basis(list(sp.basis[:4]), standard_symplectic(ctx, 2), 4, mode, stream)
        out = [(held + [random_alternating(ctx, 7, stream)], 4, gram)]
        if ctx.p < 10:  # Pf(J_K + t*M) = t prod(1 + t c_i) with the c_i = -1/k vanishes on F_p
            r, w = 2 * (ctx.p - 1), Matrix(ctx, [[0, 1], [-1, 0]])
            gram = place_blocks(ctx, r, r, [(2 * i, 2 * i, w) for i in range(r // 2)])
            scaled = [(2 * i, 2 * i, w.scale(ctx.neg(ctx.inv(i + 1)))) for i in range(r // 2)]
            m = place_blocks(ctx, r + 2, r + 2, scaled + [(r, r, w)])
            out.append(([m], r, gram))
        empty, full = Matrix.zeros(ctx, 0), random_invertible_alternating(ctx, 4, stream)
        return out + [
            ([Matrix.zeros(ctx, 3), random_alternating(ctx, 3, stream)], 0, empty),
            ([random_alternating(ctx, 4, stream) for _ in range(2)], 4, full),
        ]
    # C A^k B = 0 for every k when A e_1 is a multiple of e_1, B is in span(e_1) and C e_1 = 0
    invariant = []
    for _ in range(2):
        rows = random_matrix(ctx, 3, 3, stream).data
        a = Matrix(ctx, [[x if i == 0 or j else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)])
        b, c = Matrix(ctx, [[stream.element(ctx)], [0], [0]]), Matrix(ctx, [[0, *stream.vector(ctx, 2)]])
        invariant.append(fa_blocks(ctx, a, b, c, Matrix.zeros(ctx, 1)))
    held, _ = fa_change_basis(invariant, None, 3, mode, stream)
    out = [(held + [random_matrix(ctx, 4, 4, stream) for _ in range(2)], 3, None)]
    if ctx.p < 10:
        r = ctx.p + 2
        out.append((fa_change_basis(fa_diagonal_cases(ctx, r), None, r, mode, stream)[0], r, None))
    return out + [
        ([Matrix.zeros(ctx, 3), random_matrix(ctx, 3, 3, stream)], 0, None),
        ([random_matrix(ctx, 3, 3, stream) for _ in range(2)], 3, None),
    ]


def fa_failure_kind(rep):
    kind = rep.first_failure and rep.first_failure[0]
    return f"moment {min(rep.first_failure[1][0], 1)}" if kind == "moment" else kind


def assert_fa_json(rep):
    """The report survives ``json.dumps``, with its first failure encoded as built here by hand: a
    hypothesis triple as a list, a D block as its matrix, a moment as {"k": k, "witness": matrix}."""
    obj = json.loads(json.dumps(rep.to_json()))
    kind, detail = rep.first_failure or (None, None)
    want = {
        "hypothesis": lambda: list(detail),
        "D": lambda: detail.to_json(),
        "moment": lambda: {"k": detail[0], "witness": detail[1].to_json()},
    }
    assert obj.get("first_failure") == (kind and {"kind": kind, "detail": want[kind]()})
    return obj


@pytest.mark.parametrize("mode", ["pencil", "line", "alternating"])
@pytest.mark.parametrize("p", [2, 3, 7, P_BIG])
def test_fa_stacked_conclusions_match_the_exact_reference(p, mode):
    # every report whose hypothesis holds equals the per-generator Matrix loop, witnesses
    # included; a failing hypothesis reports no conclusions
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(40, "fa-conclusions", p, mode))
    seen = set()
    for gens, r, gram in fa_conclusion_families(ctx, mode, stream):
        for m, rep in zip(gens, flanders_atkinson_check(gens, r, mode, gram=gram), strict=True):
            if rep.hypothesis_held:
                want = reference_fa_conclusions(m, r, mode, gram)
                assert (rep.D_zero, rep.moment_vanishing, rep.first_failure) == want
                assert type(rep.D_zero) is bool and all(type(v) is bool for v in rep.moment_vanishing)
            else:
                assert rep.D_zero is None and rep.moment_vanishing is None
                assert rep.first_failure == full_line_failure(m, r, mode, gram)
            assert_fa_json(rep)
            seen.add(fa_failure_kind(rep))
    small = {"D", "moment 0", "moment 1"} if mode != "alternating" else {"D"}
    assert seen == {None, "hypothesis"} | (small if p < 10 else set())


@pytest.mark.parametrize("mode", ["line", "alternating"])
@pytest.mark.parametrize("p", [7, P_BIG])
def test_fa_conclusions_are_exact_past_the_hypothesis(monkeypatch, p, mode):
    # a kernel that calls every line member rank 0 lets any matrix through to the conclusions,
    # so witnesses with entries near p, which no genuine hypothesis reaches over a large field,
    # are compared with the per-generator Matrix loop: D = w, or e_1 e_1^T outside alternating
    # mode; B = [e_0 e_2] (K = J_2, so B^T K^-1 B != 0) or C = B^T, first failing at k = 0;
    # and B = [e_0 e_1] with (K^-1 A K^-1)_01 = -A_23 = -1, or C = [e_2 e_3]^T with
    # A_(2:4, 0:2) = I, first failing at k = 1
    ctx = FieldCtx.prime(p)
    gens, gram = fa_past_family(ctx, mode, CounterStream(derive_seed(40, "fa-past", p, mode)))
    monkeypatch.setattr(_engine, "batch_rank", lambda mats, p: np.zeros(len(mats), np.int64))
    reports = flanders_atkinson_check(gens, 4, mode, gram=gram)
    for m, rep in zip(gens, reports, strict=True):
        assert (rep.D_zero, rep.moment_vanishing, rep.first_failure) == reference_fa_conclusions(m, 4, mode, gram)
        assert_fa_json(rep)
    assert [fa_failure_kind(rep) for rep in reports] == ["D", "moment 0", "moment 1"]
    assert max(x for m in gens for row in m.data for x in row) > p // 2  # entries of all sizes


def fa_past_family(ctx, mode, stream):
    """(generators, gram) of order 6 at r = 4 whose first failures past the hypothesis are D,
    moment 0 and moment 1 (see ``test_fa_conclusions_are_exact_past_the_hypothesis``)."""
    alt, r, n = mode == "alternating", 4, 6
    w = Matrix(ctx, [[0, 1], [-1, 0]]) if alt else Matrix.identity(ctx, 2)
    rand = random_alternating(ctx, n, stream) if alt else random_matrix(ctx, n, n, stream)
    a = random_alternating(ctx, r, stream) if alt else random_matrix(ctx, r, r, stream)
    a = place_blocks(ctx, r, r, [(0, 0, a), (2, 2 if alt else 0, w)])
    unit_cols = lambda i, j: Matrix(ctx, [[int(k == i), int(k == j)] for k in range(r)])
    c_of = lambda b: b.T.scale(-1) if alt else b.T
    zero = Matrix.zeros(ctx, 2)
    gens = [
        place_blocks(ctx, n, n, [(0, 0, rand), (r, r, w if alt else Matrix(ctx, [[0, 0], [0, 1]]))]),
        fa_blocks(ctx, a, unit_cols(0, 2 if alt else 1), c_of(unit_cols(0, 2 if alt else 1)), zero),
        fa_blocks(ctx, a, unit_cols(0, 1), c_of(unit_cols(0, 1) if alt else unit_cols(2, 3)), zero),
    ]
    return fa_change_basis(gens, standard_symplectic(ctx, 2) if alt else None, r, mode, stream)


@pytest.mark.parametrize("mode", ["pencil", "line"])
def test_verify_flanders_atkinson_moment_failure_exits_1_with_its_witness(tmp_path, mode):
    # over F_2 the hypothesis holds at r = 4 for the generator with C B = 1 while its moment
    # k = 0, C B, fails: ``verify`` writes that 1 x 1 witness and exits 1
    f2 = FieldCtx.prime(2)
    sp = AffineMatrixSpace(place_blocks(f2, 5, 5, [(0, 0, Matrix.identity(f2, 4))]), [fa_diagonal_cases(f2, 4)[1]])
    src, out = tmp_path / "space.json", tmp_path / "out.json"
    src.write_text(json.dumps(sp.to_json()))
    argv = ["verify", "--in", str(src), "--check", "flanders-atkinson", "--fa-mode", mode, "--rank", "4"]
    assert main([*argv, "--out", str(out)]) == 1
    [rep] = json.loads(out.read_text())["results"]["generators"]
    assert rep["hypothesis_held"] and rep["moment_vanishing"] == [False, True, True, True]
    witness = {"field": "Fp:2", "rows": 1, "cols": 1, "data": [["1"]]}
    assert rep["first_failure"] == {"kind": "moment", "detail": {"k": 0, "witness": witness}}


@pytest.mark.parametrize("mode", ["pencil", "line", "alternating"])
def test_fa_reports_of_every_kind_are_plain_json_through_the_cli(monkeypatch, tmp_path, mode):
    # each nonzero generator, as the one generator of a space over J: the families over F_3
    # (hypothesis failures, and D and moment failures outside alternating mode), then the
    # family let past the hypothesis (D and moment failures in every mode); ``verify`` writes
    # the report made in process and exits 1 exactly when a conclusion fails
    ctx, src, out = FieldCtx.prime(3), tmp_path / "space.json", tmp_path / "out.json"
    stream = CounterStream(derive_seed(41, "fa-json", mode))
    past, past_gram = fa_past_family(ctx, mode, stream)
    seen = set()
    for gens, r, gram in [*fa_conclusion_families(ctx, mode, stream), (past, 4, past_gram)]:
        if gens is past:
            monkeypatch.setattr(_engine, "batch_rank", lambda mats, p: np.zeros(len(mats), np.int64))
        n = gens[0].nrows
        base = place_blocks(ctx, n, n, [(0, 0, gram if mode == "alternating" else Matrix.identity(ctx, r))])
        for m, rep in zip(gens, flanders_atkinson_check(gens, r, mode, gram=gram), strict=True):
            if m.is_zero():
                continue
            src.write_text(json.dumps(AffineMatrixSpace(base, [m]).to_json()))
            argv = ["verify", "--in", str(src), "--check", "flanders-atkinson", "--fa-mode", mode, "--rank", str(r)]
            assert main([*argv, "--out", str(out)]) == (0 if rep.conclusions_hold else 1)
            assert json.loads(out.read_text())["results"]["generators"] == [assert_fa_json(rep)]
            seen.add(rep.first_failure and rep.first_failure[0])
    assert seen == {None, "hypothesis", "D", "moment"}


@pytest.mark.parametrize("extreme", [0, 2], ids=["min", "max"])
def test_rank_profile_witnesses_are_rechecked_exactly(monkeypatch, tmp_path, capsys, extreme):
    # an engine that reports one extreme two ranks off, at the true witness:
    # the exact re-rank of that witness must reject it, and the command that
    # runs the profile reports an internal error in one line
    real = _engine.profile_ranks

    def wrong(*args, **kwargs):
        out = list(real(*args, **kwargs))
        out[extreme] += 2 if extreme else -2
        return tuple(out)

    monkeypatch.setattr(_engine, "profile_ranks", wrong)
    sp = build_bordered_alternating(F5, 5, 1)  # constant rank 2
    with pytest.raises(AssertionError, match="re-verification"):
        rank_profile(sp)
    src = tmp_path / "space.json"
    src.write_text(json.dumps(sp.to_json()))
    out = tmp_path / "out.json"
    code = main(["verify", "--in", str(src), "--check", "rank-profile", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert err == "internal error: engine witness failed exact re-verification\n"


def test_first_hit_witnesses_are_rechecked_exactly(monkeypatch):
    # an engine that always reports member 0: each caller's exact re-rank
    # must reject it, since member 0 fails each predicate below
    monkeypatch.setattr(_engine, "first_index", lambda *args, **kwargs: 0)
    sp = build_bordered_alternating(F5, 5, 1)  # constant rank 2
    with pytest.raises(AssertionError, match="re-verification"):
        first_member(sp, lambda ranks: ranks == 4)
    # the hypothesis lines are one batch_rank stack: a kernel that calls every member of
    # full rank puts each first failure at t = 0
    monkeypatch.setattr(_engine, "batch_rank", lambda mats, p: np.full(len(mats), mats.shape[1]))
    with pytest.raises(AssertionError, match="re-verification"):
        flanders_atkinson_check([unit(F5, 3, 0, 1)], 2, "pencil")  # line member 0 is J, of rank 2
    k = standard_symplectic(F5, 1)
    with pytest.raises(AssertionError, match="engine witness failed exact re-verification"):
        pencil_symplectic_iff_trivial_spectrum(k, Matrix.zeros(F5, 2))  # member 0 is K
    with pytest.raises(AssertionError, match="engine witness failed exact re-verification"):
        first_singular(Matrix.identity(F5, 2), Matrix.identity(F5, 2), 1)  # member 0 is 2 I
    monkeypatch.undo()
    # a line hit on a nilpotent member: the exact eigenvalue scan finds none
    # (a space without a common flag, so the scan runs; member 1 is Y)
    monkeypatch.setattr(_engine, "unit_eigen_hits", lambda *args, **kwargs: np.array([1]))
    with pytest.raises(AssertionError, match="spectrum witness failed exact re-verification"):
        trivial_spectrum_check(nilpotent_without_flag(F3))


# -- common range Lagrangians ---------------------------------------------------------------


def bound_ops(ctx):
    def mk(row):
        return Matrix(ctx, [list(row), [0, 0, 0]])

    return [mk((1, 0, 0)), mk((0, 1, 0)), mk((0, 0, 1))]


def test_extract_range_lagrangian_at_bound():
    k = standard_symplectic(F5, 1)
    lag = extract_range_lagrangian(bound_ops(F5), k)
    assert lag == [(1, 0)]


def test_extract_range_lagrangian_below_bound():
    k = standard_symplectic(F5, 1)
    assert extract_range_lagrangian(bound_ops(F5)[:2], k) is None


def test_extract_range_lagrangian_guards():
    k = standard_symplectic(F5, 1)
    ops = bound_ops(F5)
    extra = Matrix(F5, [[0, 0, 0], [1, 0, 0]])  # range span(e2), still singular
    with pytest.raises(ValueError):
        extract_range_lagrangian(ops + [extra], k)  # above the bound
    bad_range = Matrix(F5, [[1, 0, 0], [0, 1, 0]])  # rank-2 range cannot be singular
    with pytest.raises(ValueError):
        extract_range_lagrangian([bad_range], k)
    with pytest.raises(ValueError):
        extract_range_lagrangian([Matrix(F5, [[1, 0], [0, 0]])], k)  # p = 2
    with pytest.raises(ValueError):
        extract_range_lagrangian(ops, Matrix.zeros(F5, 2))  # singular gram
    with pytest.raises(ValueError):
        extract_range_lagrangian(ops + [ops[0]], k)  # dependent generators


def test_extract_range_lagrangian_contract_failure():
    # dim at the bound but columns spanning too much: ranges hit both e1 and e2
    k = standard_symplectic(F5, 1)

    def mk(rows):
        return Matrix(F5, rows)

    ops = [
        mk([[1, 0, 0], [0, 0, 0]]),
        mk([[0, 1, 0], [0, 0, 0]]),
        mk([[0, 0, 0], [1, 0, 0]]),
    ]
    with pytest.raises(ContractError):
        extract_range_lagrangian(ops, k)


# -- duality invariant -----------------------------------------------------------------------


def sampled_duality_holds(pair, xs) -> bool:
    """The invariant checked vector by vector, the reference for
    ``duality_invariant_check``: each nonzero x lies outside the orbit span
    S.x, and x and S.x lie in the form-orthogonal of x."""
    ctx, n = pair.ctx, pair.gram.nrows
    for x in xs:
        column = Matrix(ctx, [x]).T
        orbit = [(u @ column).col(0) for u in pair.operators]
        if Span(ctx, orbit, width=n).contains(x) or not (Matrix(ctx, [x, *orbit]) @ pair.gram @ column).is_zero():
            return False
    return True


def nonzero_draws(ctx, n, count, seed):
    stream = CounterStream(derive_seed(seed, "duality", ctx.to_str(), n))
    return [x for x in (stream.vector(ctx, n) for _ in range(count)) if any(x)]


def swap_pair(ctx):
    s = Matrix(ctx, [[0, 1], [1, 0]])
    return FormSpacePair(standard_symplectic(ctx, 2), [place_blocks(ctx, 4, 4, [(0, 0, s), (2, 2, s.T)])])


def test_gated_pairs_pass_the_sampled_reference():
    # every nonzero x of F_3^4 on the n = 2 pair, and seeded x over F_5 and F_7 at n = 3
    pair = build_operator_block_space(F3, 2)
    every = [_engine.index_to_coords(i, 4, 3) for i in range(1, 3**4)]
    assert duality_invariant_check(pair) and sampled_duality_holds(pair, every)
    for p in (5, 7):
        pair = build_operator_block_space(FieldCtx.prime(p), 3)
        assert duality_invariant_check(pair)
        assert sampled_duality_holds(pair, nonzero_draws(pair.ctx, 6, 300, p))


def test_duality_over_q_needs_a_flag():
    # diag(S, S^T), S = [[0, 1], [1, 0]], fixes (1, 1, 0, 0) and no unit vector;
    # over Q nothing but a nilpotent flag proves the invariant
    swap = swap_pair(Q)
    assert not sampled_duality_holds(swap, [(1, 1, 0, 0)])
    assert sampled_duality_holds(swap, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(BudgetExceededError, match="no nilpotent flag"):
        duality_invariant_check(swap)
    with pytest.raises(ContractError, match="has eigenvalue 1$"):
        duality_invariant_check(swap_pair(F5))


def test_duality_holds_on_the_default_rational_pair():
    pair = build_operator_block_space(Q, 3)
    assert duality_invariant_check(pair)
    assert sampled_duality_holds(pair, nonzero_draws(Q, 6, 50, 0))


@pytest.mark.parametrize("ctx", [F3, Q], ids=["F3", "Q"])
def test_spectrum_gate_needs_a_linear_space(ctx):
    with pytest.raises(ValueError, match="linear spaces"):
        trivial_spectrum_gate(AffineMatrixSpace(Matrix.identity(ctx, 2), []), "space")


@pytest.mark.parametrize("ctx", [F3, Q], ids=["F3", "Q"])
def test_duality_of_the_empty_pair(ctx):
    assert duality_invariant_check(FormSpacePair(Matrix.zeros(ctx, 0, 0), ()))


def test_duality_invariant_on_block_operators():
    for n in (2, 3):
        pair = build_operator_block_space(F5, n)
        assert duality_invariant_check(pair)


def test_duality_invariant_gate():
    k = standard_symplectic(F5, 1)
    pair = FormSpacePair(k, [Matrix.identity(F5, 2)])
    assert not sampled_duality_holds(pair, [(1, 0)])
    with pytest.raises(ContractError, match="has eigenvalue 1$"):
        duality_invariant_check(pair)


def test_duality_gate_runs_past_the_budget():
    # the operator-block space is strictly upper triangular in a flag, so the
    # gate decides it with nothing enumerated; the span of I has no flag, and
    # its 5 members exceed a budget of 1
    assert duality_invariant_check(build_operator_block_space(F3, 2), budget=0)
    pair = FormSpacePair(standard_symplectic(F5, 1), [Matrix.identity(F5, 2)])
    with pytest.raises(BudgetExceededError, match="exceed the spectrum scan budget 1"):
        duality_invariant_check(pair, budget=1)
