import time
from fractions import Fraction

import pytest

from altrank.analyze import invertible_by_flag, rank_profile
from altrank.families import (
    a_xyz,
    build_bordered_alternating,
    build_corank_one_space,
    build_counterexample_plane,
    build_invertible_alternating,
    build_operator_block_space,
    build_rank_at_least_space,
    build_row_block_family,
    build_strictly_upper_space,
    build_unitriangular_space,
    certify_plane_anisotropy,
    field_size_bound,
    optimal_dimension_formula,
    pfaffian_form_coefficients,
    plane_rank_drop_witness,
    translation_rank_two_witness,
)
from altrank.errors import BudgetExceededError, ContractError
from altrank.fields import FieldCtx
from altrank.matrices import Matrix, pfaffian
from altrank.spaces import AffineMatrixSpace
from altrank.symplectic import phi_operators_to_forms

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
Q = FieldCtx.rational()


def unit(ctx, n, i, j):
    m = [[ctx.zero()] * n for _ in range(n)]
    m[i][j] = ctx.one()
    return Matrix(ctx, m)


def test_strictly_upper_space():
    sp = build_strictly_upper_space(F3, 4)
    assert sp.dim == 6 and sp.base.is_zero()
    for _, m in sp.enumerate():
        assert all(m[i, j] == 0 for i in range(4) for j in range(i + 1))


def test_unitriangular_space_members_invertible():
    sp = build_unitriangular_space(F5, 3)
    assert sp.dim == 3
    for _, m in sp.enumerate():
        assert m.det() == 1


def test_invertible_alternating_frozen():
    sp = build_invertible_alternating(F5, 2)
    assert sp.dim == 2 and sp.shape == (4, 4)
    prof = rank_profile(sp, budget=100, seed=0, samples=10)
    assert prof.method == "exhaustive" and prof.checked == 25
    assert prof.min_rank == prof.max_rank == 4


def test_bordered_alternating_frozen():
    sp = build_bordered_alternating(F3, 7, 2)
    assert sp.dim == 8  # s(n - s - 1)
    assert sp.alternating
    prof = rank_profile(sp, budget=10**4, seed=0, samples=10)
    assert prof.method == "exhaustive" and prof.checked == 6561
    assert prof.constant and prof.method == "exhaustive" and prof.min_rank == 4


def test_bordered_inner_override():
    inner = AffineMatrixSpace(
        Matrix(F5, [[1, 1], [0, 1]]), [unit(F5, 2, 0, 1)]
    )
    sp = build_bordered_alternating(F5, 6, 2, inner=inner)
    assert sp.dim == 2 * (6 - 2 - 1)
    prof = rank_profile(sp, budget=5**6, seed=0, samples=10)
    assert prof.constant and prof.method == "exhaustive" and prof.min_rank == 4


def test_bordered_rejects_singular_inner():
    # I + t*E00 hits a singular member at t = -1
    inner = AffineMatrixSpace(Matrix.identity(F5, 2), [unit(F5, 2, 0, 0)])
    with pytest.raises(ValueError):
        build_bordered_alternating(F5, 6, 2, inner=inner)
    with pytest.raises(ValueError):
        build_bordered_alternating(F5, 3, 2)  # needs n >= 2s


def test_inner_family_with_a_singular_base_is_refused():
    # B_0 has no inverse, so no flag of the B_0^-1 G_i is sought, and the exhaustive profile meets B_0 itself
    inner = AffineMatrixSpace(Matrix(F5, [[1, 0], [0, 0]]), [unit(F5, 2, 0, 1)])
    with pytest.raises(ValueError):
        inner.base.inverse()
    assert not invertible_by_flag(inner)
    with pytest.raises(ValueError, match="^inner family contains a singular member$"):
        build_row_block_family(F5, 5, 2, inner=inner)


@pytest.mark.parametrize("ctx", [F3, F5, F7], ids=str)
def test_flag_verdict_agrees_with_an_exhaustive_profile_on_default_inner_families(ctx):
    inners = [(s, build_unitriangular_space(ctx, s)) for s in (1, 2, 3, 4)]
    inners += [(2 * s, build_invertible_alternating(ctx, s)) for s in (1, 2, 3)]
    for size, inner in inners:
        profile = rank_profile(inner, budget=ctx.p**inner.dim, seed=0, samples=1)
        assert profile.method == "exhaustive" and profile.min_rank == size
        assert invertible_by_flag(inner)


def test_flagless_inner_family_is_proved_by_the_exhaustive_fallback():
    # det(I + t C) = 1 + 2 t^2 != 0 over F_5, and C is not nilpotent
    inner = AffineMatrixSpace(Matrix.identity(F5, 2), [Matrix(F5, [[0, 1], [3, 0]])])
    assert not invertible_by_flag(inner)
    sp = build_bordered_alternating(F5, 5, 2, inner=inner)
    prof = rank_profile(sp, budget=5**4, seed=0, samples=10)
    assert prof.constant and prof.method == "exhaustive" and prof.min_rank == 4


def test_flagless_inner_family_past_the_budget_proves_nothing():
    # no flag and 1,000,003 members: sampled, so no verdict of invertibility
    p = 1_000_003
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    ctx = FieldCtx.prime(p)
    inner = AffineMatrixSpace(Matrix.identity(ctx, 2), [Matrix(ctx, [[0, 1], [a, 0]])])
    with pytest.raises(BudgetExceededError, match="no unipotent flag"):
        build_bordered_alternating(ctx, 5, 2, inner=inner)
    # diag(1 + x, 1 + y, 1 + z) over F_101, singular on about 3% of its
    # 101^3 members: a sampled singular member still rejects the family
    f101 = FieldCtx.prime(101)
    diag = AffineMatrixSpace(Matrix.identity(f101, 3), [unit(f101, 3, i, i) for i in range(3)])
    with pytest.raises(ValueError, match="singular member"):
        build_row_block_family(f101, 6, 3, inner=diag)


def test_corank_one_frozen():
    sp = build_corank_one_space(F5, 4)
    assert sp.shape == (5, 5) and sp.dim == 6  # s(s + 1)
    prof = rank_profile(sp, budget=5**6, seed=0, samples=10)
    assert prof.constant and prof.method == "exhaustive" and prof.min_rank == 4


def test_rank_at_least_frozen():
    sp = build_rank_at_least_space(F3, 5, 4)
    assert sp.dim == 6  # C(5,2) - s^2
    prof = rank_profile(sp, budget=10**3, seed=0, samples=10)
    assert prof.min_rank == 4
    # not constant: generic members jump above the floor only when n > r,
    # here n = 5 keeps rank at exactly 4 for alternating parity reasons
    assert prof.max_rank == 4


def test_rank_at_least_can_exceed_floor():
    sp = build_rank_at_least_space(F3, 6, 4)
    prof = rank_profile(sp, budget=3**11, seed=0, samples=10)
    assert prof.min_rank == 4 and prof.max_rank == 6


def test_row_block_family():
    sp = build_row_block_family(F5, 5, 2)
    assert sp.shape == (2, 3)  # B is s x s, C fills the remaining n - 2s columns
    assert sp.dim == 1 + 2  # inner dim + free slab
    prof = rank_profile(sp, budget=5**3, seed=0, samples=10)
    assert prof.constant and prof.method == "exhaustive" and prof.min_rank == 2


def test_operator_block_space():
    pair = build_operator_block_space(F5, 3)
    assert pair.dim == 6  # n(n-1)
    forms = phi_operators_to_forms(pair)
    assert forms.dim == 6 and forms.shape == (6, 6)
    prof = rank_profile(forms, budget=5**6, seed=0, samples=10)
    assert prof.constant and prof.method == "exhaustive" and prof.min_rank == 6


def test_operator_block_rejects_nontrivial_core():
    core = AffineMatrixSpace(
        Matrix.zeros(F5, 2), [Matrix.identity(F5, 2)]
    )
    with pytest.raises(ContractError, match=r"Matrix\(Fp:5, \[1 0; 0 1\]\) has eigenvalue 1$"):
        build_operator_block_space(F5, 2, core=core)


@pytest.mark.parametrize("core", [[[0, 1], [1, 0]], [[0, -1], [1, 0]]], ids=["swap", "rotation"])
def test_operator_block_over_q_needs_a_flagged_core(core):
    # the swap has eigenvalue 1; the rotation has none over Q, but no flag proves that
    core = AffineMatrixSpace(Matrix.zeros(Q, 2), [Matrix(Q, core)])
    with pytest.raises(BudgetExceededError, match="core space has no nilpotent flag"):
        build_operator_block_space(Q, 2, core=core)


def test_operator_block_gate_names_a_witness_off_the_basis():
    # both basis members are nilpotent; their sum [[0, 1], [1, 0]] has eigenvalues 1 and 4
    core = AffineMatrixSpace(Matrix.zeros(F5, 2), [unit(F5, 2, 0, 1), unit(F5, 2, 1, 0)])
    with pytest.raises(ContractError, match=r"Matrix\(Fp:5, \[0 1; 1 0\]\) has eigenvalue 1$"):
        build_operator_block_space(F5, 2, core=core)


def test_operator_block_custom_core():
    core = AffineMatrixSpace(Matrix.zeros(F5, 2), [unit(F5, 2, 0, 1)])
    pair = build_operator_block_space(F5, 2, core=core)
    assert pair.dim == 1 + 1  # core + alternating slab


# -- closed-form dimensions ---------------------------------------------------------------


def test_optimal_dimension_formula_frozen():
    assert optimal_dimension_formula(4, 4, "invertible") == 2
    assert optimal_dimension_formula(6, 6, "invertible") == 6
    assert optimal_dimension_formula(7, 4, "constant_rank") == 8
    assert optimal_dimension_formula(5, 4, "constant_rank") == 6  # n = r + 1
    assert optimal_dimension_formula(4, 4, "constant_rank") == 2  # n = r
    assert optimal_dimension_formula(5, 4, "rank_at_least") == 6
    assert optimal_dimension_formula(9, 6, "rank_at_least") == 27


def test_optimal_dimension_formula_rejects():
    with pytest.raises(ValueError):
        optimal_dimension_formula(5, 4, "invertible")  # needs n = r
    with pytest.raises(ValueError):
        optimal_dimension_formula(5, 3, "constant_rank")  # odd rank
    with pytest.raises(ValueError):
        optimal_dimension_formula(3, 4, "rank_at_least")  # r > n
    with pytest.raises(ValueError):
        optimal_dimension_formula(5, 4, "sometimes")


def test_field_size_bound_matches_the_acceptance_hypotheses():
    # the three cardinality hypotheses that acceptance test 1 spells out
    for r in (2, 4, 6):
        for n in range(r, 10):
            assert field_size_bound("rank_at_least", n, r) == (n - 1 if n % 2 == 0 else n - 2)
            assert field_size_bound("constant_rank", n, r) == max(r - 1, 2 + r // 2)
            assert field_size_bound("invertible", n, r) == r - 1
    with pytest.raises(ValueError):
        field_size_bound("sometimes", 5, 4)


# -- the rank-4 plane ----------------------------------------------------------------------


def test_a_xyz_structure():
    m = a_xyz(Q, Fraction(1), Fraction(2), Fraction(3))
    assert m.is_alternating()
    assert m[0, 1] == 1 and m[0, 2] == 2 and m[0, 3] == 3
    assert m[1, 2] == 3 and m[1, 3] == -2 and m[2, 3] == 1


def test_pfaffian_is_sum_of_three_squares():
    pts = [(1, 2, 3), (0, 0, 1), (5, -7, 11), (Fraction(1, 2), 0, Fraction(2, 3))]
    for x, y, z in pts:
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        assert pfaffian(a_xyz(Q, x, y, z)) == x * x + y * y + z * z


def test_pfaffian_form_coefficients_any_field():
    for ctx in (Q, F7):
        coeffs = pfaffian_form_coefficients(ctx)
        assert coeffs["xx"] == coeffs["yy"] == coeffs["zz"] == ctx.one()
        assert coeffs["xy"] == coeffs["xz"] == coeffs["yz"] == ctx.zero()


def test_counterexample_plane_members():
    plane = build_counterexample_plane(Q)
    assert plane.dim == 2
    m = plane.member_at((Fraction(2), Fraction(-1)))
    assert m == a_xyz(Q, Fraction(2), Fraction(-1), Fraction(1))
    assert m.rank() == 4


def test_certify_plane_anisotropy_frozen():
    cert = certify_plane_anisotropy()
    assert cert.to_json() == {
        "coefficients": ["1", "0", "1"],
        "diagonal": True,
        "all_positive": True,
        "anisotropic": True,
        "no_rank_two": True,
    }


def test_plane_witnesses_frozen():
    coords3, member3 = plane_rank_drop_witness(F3)
    assert coords3 == (1, 1)
    assert member3.rank() < 4
    assert member3 == a_xyz(F3, 1, 1, 1)

    coords5, member5 = plane_rank_drop_witness(F5)
    assert coords5 == (0, 2)
    assert member5.rank() == 2

    t5 = translation_rank_two_witness(F5)
    assert t5 is not None and t5[0] == (1, 2)
    assert t5[1].rank() == 2

    # x^2 + y^2 is anisotropic mod 3 and mod 7: no rank-two translation
    assert translation_rank_two_witness(F3) is None
    assert translation_rank_two_witness(F7) is None


@pytest.mark.parametrize("p", [10_007, 2_147_483_647])
@pytest.mark.parametrize("witness", [plane_rank_drop_witness, translation_rank_two_witness])
def test_plane_witnesses_refuse_fields_past_the_budget(witness, p):
    # Both scans are exhaustive, so p^2 members past the default budget are
    # refused up front; an unbudgeted scan walks all of them (p = 10,007 is
    # 3 mod 4, so it finds no rank-two translation and returns None only at
    # the end).
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"{p * p} members exceed budget 1000000"):
        witness(FieldCtx.prime(p))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("witness", [plane_rank_drop_witness, translation_rank_two_witness])
def test_plane_witnesses_need_a_prime_field(witness):
    with pytest.raises(ValueError, match="needs a prime field"):
        witness(Q)
