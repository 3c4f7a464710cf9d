"""Constructors for the extremal families and their closed-form dimensions.

Each constructor verifies the contract of any inner family it embeds instead
of trusting the caller, and lays out translation bases in a fixed order
(top-left entries, then the inner family's generators, then the free blocks,
each row-major) so coordinates are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import analyze
from .errors import BudgetExceededError
from .fields import Element, FieldCtx
from .matrices import Matrix, alternating_unit, pfaffian, place_blocks, upper_pairs
from .spaces import AffineMatrixSpace
from .symplectic import FormSpacePair, standard_symplectic

INNER_VERIFY_BUDGET = 10**6


def _strictly_upper_units(ctx: FieldCtx, n: int) -> list[Matrix]:
    one = Matrix.identity(ctx, 1)
    return [place_blocks(ctx, n, n, [(i, j, one)]) for i, j in upper_pairs(n)]


def _check_inner(
    ctx: FieldCtx, inner: AffineMatrixSpace, size: int, dim: int, alternating: bool
) -> None:
    """The inner-family contract: field, size x size shape, dimension,
    alternating data when asked for, and every member invertible, proved by a
    unipotent flag or an exhaustive rank profile (else BudgetExceededError)."""
    if inner.ctx != ctx or inner.shape != (size, size):
        raise ValueError("inner family has the wrong field or shape")
    if inner.dim != dim or (alternating and not inner.alternating):
        raise ValueError(f"inner family must be {'alternating ' if alternating else ''}of dimension {dim}")
    if analyze.invertible_by_flag(inner):
        return
    profile = analyze.rank_profile(inner, budget=INNER_VERIFY_BUDGET)
    if profile.min_rank < size:
        raise ValueError("inner family contains a singular member")
    if profile.method != "exhaustive":
        raise BudgetExceededError(f"inner family has no unipotent flag and over {INNER_VERIFY_BUDGET} members")


def build_strictly_upper_space(ctx: FieldCtx, n: int) -> AffineMatrixSpace:
    """Linear space of strictly upper-triangular n x n matrices."""
    if n < 1:
        raise ValueError("size must be positive")
    return AffineMatrixSpace(Matrix.zeros(ctx, n, n), _strictly_upper_units(ctx, n))


def build_unitriangular_space(ctx: FieldCtx, s: int) -> AffineMatrixSpace:
    """Identity plus the strictly upper-triangular space; every member invertible."""
    if s < 1:
        raise ValueError("size must be positive")
    return AffineMatrixSpace(Matrix.identity(ctx, s), _strictly_upper_units(ctx, s))


def build_invertible_alternating(ctx: FieldCtx, s: int) -> AffineMatrixSpace:
    """Affine space of invertible alternating 2s x 2s matrices of dimension s(s-1).

    Members are [[0, U], [-U^T, B]] with U running over the unitriangular
    space and B over the alternating s x s matrices.
    """
    if s < 1:
        raise ValueError("size must be positive")
    gens = [alternating_unit(ctx, 2 * s, a + i, s + j) for a in (0, s) for i, j in upper_pairs(s)]
    return AffineMatrixSpace(standard_symplectic(ctx, s), gens)


def build_bordered_alternating(
    ctx: FieldCtx, n: int, s: int, inner: Optional[AffineMatrixSpace] = None
) -> AffineMatrixSpace:
    """Constant-rank-2s affine space in the alternating n x n matrices.

    Members are [[A, B, C], [-B^T, 0, 0], [-C^T, 0, 0]] with A alternating
    s x s, B in the inner family of invertible s x s matrices (dimension
    s(s-1)/2), and C free s x (n-2s).  Total dimension s(n-s-1).
    """
    return border_row_blocks(build_row_block_family(ctx, n, s, inner))


def border_row_blocks(rows: AffineMatrixSpace) -> AffineMatrixSpace:
    """The alternating family {[[A, X], [-X^T, 0]]}: A alternating s x s, X in the s x (n-s) family rows."""
    ctx, s, n = rows.ctx, rows.shape[0], sum(rows.shape)

    def bordered(x):  # [[0, x], [-x^T, 0]] for an s x (n-s) row block x
        return place_blocks(ctx, n, n, [(0, s, x), (s, 0, -x.T)])

    gens = [alternating_unit(ctx, n, i, j) for i, j in upper_pairs(s)]
    gens += [bordered(x) for x in rows.basis]
    return AffineMatrixSpace(bordered(rows.base), gens)


def build_row_block_family(
    ctx: FieldCtx, n: int, s: int, inner: Optional[AffineMatrixSpace] = None
) -> AffineMatrixSpace:
    """Full-row-rank rectangular family {[B C]} in the s x (n-s) matrices.

    B runs over the inner family of invertible s x s matrices and C is free.
    This is the row-slab of the bordered alternating family.
    """
    if s < 1 or n < 2 * s:
        raise ValueError("needs s >= 1 and n >= 2s")
    if inner is None:
        inner = build_unitriangular_space(ctx, s)
    _check_inner(ctx, inner, s, s * (s - 1) // 2, alternating=False)
    w, one = n - s, Matrix.identity(ctx, 1)
    base, *gens = (place_blocks(ctx, s, w, [(0, 0, b)]) for b in (inner.base, *inner.basis))
    gens += [place_blocks(ctx, s, w, [(i, s + j, one)]) for i in range(s) for j in range(n - 2 * s)]
    return AffineMatrixSpace(base, gens)


def build_corank_one_space(
    ctx: FieldCtx, r: int, inner: Optional[AffineMatrixSpace] = None
) -> AffineMatrixSpace:
    """Constant-rank-r affine space in the alternating (r+1) x (r+1) matrices.

    This is the rank-at-least family at n = r+1, whose D block is empty:
    members are [[H, C], [-C^T, 0]] with H in an inner family of invertible
    alternating r x r matrices of dimension s(s-1) and C a free column.
    Total dimension s(s+1), the one-size-up exception to the generic formula.
    """
    return build_rank_at_least_space(ctx, r + 1, r, inner)


def build_rank_at_least_space(
    ctx: FieldCtx, n: int, r: int, inner: Optional[AffineMatrixSpace] = None
) -> AffineMatrixSpace:
    """Affine space in the alternating n x n matrices with every rank >= r.

    Members are [[H, C], [-C^T, D]] with H in an inner family of invertible
    alternating r x r matrices, C free, and D free alternating.  Total
    dimension C(n,2) - s^2.
    """
    if r < 2 or r % 2 == 1 or n < r:
        raise ValueError("needs even r >= 2 and n >= r")
    s = r // 2
    if inner is None:
        inner = build_invertible_alternating(ctx, s)
    _check_inner(ctx, inner, r, s * (s - 1), alternating=True)
    base, *gens = (place_blocks(ctx, n, n, [(0, 0, h)]) for h in (inner.base, *inner.basis))
    gens += [alternating_unit(ctx, n, i, j) for i in range(r) for j in range(r, n)]
    gens += [alternating_unit(ctx, n, r + i, r + j) for i, j in upper_pairs(n - r)]
    return AffineMatrixSpace(base, gens)


def build_operator_block_space(
    ctx: FieldCtx,
    n: int,
    core: Optional[AffineMatrixSpace] = None,
) -> FormSpacePair:
    """Trivial-spectrum operator space paired with the standard symplectic form.

    Operators are [[A, B], [0, A^T]] with A in a trivial-spectrum core
    (default: the strictly upper-triangular space) and B free alternating.
    Dimension dim(core) + n(n-1)/2; block triangularity keeps the spectrum of
    every member equal to that of its core part.  The core passes
    ``analyze.trivial_spectrum_gate`` over every field.
    """
    if n < 1:
        raise ValueError("size must be positive")
    if core is None:
        core = build_strictly_upper_space(ctx, n)
    if core.ctx != ctx or core.shape != (n, n):
        raise ValueError("core space has the wrong field or shape")
    if not core.base.is_zero():
        raise ValueError("core space must be linear")
    analyze.trivial_spectrum_gate(core, "core space", INNER_VERIFY_BUDGET)
    nn = 2 * n
    ops = [place_blocks(ctx, nn, nn, [(0, 0, a), (n, n, a.T)]) for a in core.basis]
    ops += [place_blocks(ctx, nn, nn, [(0, n, alternating_unit(ctx, n, i, j))]) for i, j in upper_pairs(n)]
    return FormSpacePair(standard_symplectic(ctx, n), tuple(ops))


def a_xyz(ctx: FieldCtx, x: Element, y: Element, z: Element) -> Matrix:
    """The alternating 4 x 4 matrix whose Pfaffian is x^2 + y^2 + z^2."""
    x, y, z = ctx.normalize(x), ctx.normalize(y), ctx.normalize(z)
    nx, ny, nz = ctx.neg(x), ctx.neg(y), ctx.neg(z)
    o = ctx.zero()
    return Matrix(
        ctx,
        [
            [o, x, y, z],
            [nx, o, z, ny],
            [ny, nz, o, x],
            [nz, y, nx, o],
        ],
    )


def build_counterexample_plane(ctx: FieldCtx) -> AffineMatrixSpace:
    """The 2-dimensional affine plane of 4 x 4 alternating matrices whose rank
    behavior separates fields: rank 4 throughout over the rationals, rank
    drops over small prime fields."""
    gens = [a_xyz(ctx, 1, 0, 0), a_xyz(ctx, 0, 1, 0)]
    return AffineMatrixSpace(a_xyz(ctx, 0, 0, 1), gens)


def optimal_dimension_formula(n: int, r: int, problem: str) -> int:
    """Closed-form maximum affine dimension for the three rank problems.

    problem: "invertible" (all members invertible, needs n = r),
    "rank_at_least" (every rank >= r), or "constant_rank" (every rank = r,
    with the one-size-up branch at n = r+1).
    """
    if r % 2 == 1 or r < 0 or r > n:
        raise ValueError("rank must be even and within the size")
    s = r // 2
    if problem == "invertible":
        if n != r:
            raise ValueError("the invertible problem needs n = r")
        return s * (s - 1)
    if problem == "rank_at_least":
        return n * (n - 1) // 2 - s * s
    if problem == "constant_rank":
        return s * (s + 1) if n == r + 1 else s * (n - s - 1)
    raise ValueError(f"unknown problem {problem!r}")


def field_size_bound(problem: str, n: int, r: int) -> int:
    """Least field size at which ``optimal_dimension_formula`` is claimed:
    max(r - 1, 1) for "invertible", max(r - 1, 2 + r/2) for "constant_rank"
    (the canonical reduction's bound too), and n - 1 for even n, n - 2 for
    odd n, for "rank_at_least"."""
    if problem == "invertible":
        return max(r - 1, 1)
    if problem == "constant_rank":
        return max(r - 1, 2 + r // 2)
    if problem == "rank_at_least":
        return n - 1 if n % 2 == 0 else n - 2
    raise ValueError(f"unknown problem {problem!r}")


@dataclass(frozen=True)
class PlaneCertificate:
    """Exact anisotropy certificate for the plane's translation Pfaffian form."""

    coefficients: tuple  # (x^2, xy, y^2)
    diagonal: bool
    all_positive: bool
    anisotropic: bool
    no_rank_two: bool

    def to_json(self) -> dict:
        return {
            "coefficients": [str(c) for c in self.coefficients],
            "diagonal": self.diagonal,
            "all_positive": self.all_positive,
            "anisotropic": self.anisotropic,
            "no_rank_two": self.no_rank_two,
        }


def certify_plane_anisotropy() -> PlaneCertificate:
    """Extract the translation plane's Pfaffian form over the rationals and
    certify it anisotropic, so the plane holds no rank-2 matrix."""
    form = pfaffian_form_coefficients(FieldCtx.rational())
    a, b, c = form["xx"], form["xy"], form["yy"]
    diagonal = b == 0
    positive = a > 0 and c > 0
    anisotropic = diagonal and positive
    return PlaneCertificate((a, b, c), diagonal, positive, anisotropic, anisotropic)


def pfaffian_form_coefficients(ctx: FieldCtx) -> dict[str, Element]:
    """Quadratic-form coefficients of Pf(x*A(1,0,0) + y*A(0,1,0) + z*A(0,0,1)).

    The Pfaffian of a 4 x 4 alternating matrix is quadratic in its entries and
    the entries here are linear in (x, y, z), so six evaluations determine the
    form exactly.
    """
    gens = [a_xyz(ctx, 1, 0, 0), a_xyz(ctx, 0, 1, 0), a_xyz(ctx, 0, 0, 1)]

    def ev(cs):
        acc = Matrix.zeros(ctx, 4, 4)
        for cc, g in zip(cs, gens):
            acc = acc + g.scale(ctx.normalize(cc))
        return pfaffian(acc)

    sq = [ev([1 if t == i else 0 for t in range(3)]) for i in range(3)]
    names = ["xy", "xz", "yz"]
    pairs = [(0, 1), (0, 2), (1, 2)]
    out = {"xx": sq[0], "yy": sq[1], "zz": sq[2]}
    for name, (i, j) in zip(names, pairs):
        mixed = ev([1 if t in (i, j) else 0 for t in range(3)])
        out[name] = ctx.sub(ctx.sub(mixed, sq[i]), sq[j])
    return out


def _first_exhaustive(sp: AffineMatrixSpace, accept) -> Optional[tuple[tuple, Matrix]]:
    """First member of sp in enumeration order whose rank passes ``accept``, or
    None: always exhaustive, so BudgetExceededError past the default budget."""
    if sp.ctx.kind != "prime":
        raise ValueError("exhaustive enumeration needs a prime field")
    budget, members = analyze.DEFAULT_ENUM_BUDGET, sp.ctx.p**sp.dim
    if members > budget:
        raise BudgetExceededError(f"{members} members exceed budget {budget}")
    return analyze.first_member(sp, accept, budget=budget)


def plane_rank_drop_witness(ctx: FieldCtx) -> Optional[tuple[tuple, Matrix]]:
    """First plane member (lexicographic coordinates) with rank below 4."""
    return _first_exhaustive(build_counterexample_plane(ctx), lambda ranks: ranks < 4)


def translation_rank_two_witness(ctx: FieldCtx) -> Optional[tuple[tuple, Matrix]]:
    """First nonzero translation combination of rank 2, scanning lexicographically."""
    translations = AffineMatrixSpace(Matrix.zeros(ctx, 4, 4), [a_xyz(ctx, 1, 0, 0), a_xyz(ctx, 0, 1, 0)])
    # the zero combination, first in the scan, has rank 0
    return _first_exhaustive(translations, lambda ranks: ranks == 2)
