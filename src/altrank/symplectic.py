"""Symplectic normalization and the forms/operators correspondence.

A nondegenerate alternating Gram matrix K defines a symplectic form
x^T K y.  This module finds Lagrangians, builds congruences onto the
standard block form [[0, I], [-I, 0]], and translates a space of operators u
into the affine space of alternating Gram matrices G = K u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import FieldCtx
from .matrices import Matrix, Vector, place_blocks, span_dim
from .spaces import AffineMatrixSpace, Span, independent_matrices


def standard_symplectic(ctx: FieldCtx, s: int) -> Matrix:
    """The 2s x 2s block matrix [[0, I_s], [-I_s, 0]], for s >= 0."""
    if s < 0:
        raise ValueError("the symplectic half-size must be non-negative")
    i = Matrix.identity(ctx, s)
    return place_blocks(ctx, 2 * s, 2 * s, [(0, s, i), (s, 0, -i)])


def radical(a: Matrix) -> list[Vector]:
    """Kernel basis of an alternating Gram matrix (the form's radical)."""
    if not a.is_alternating():
        raise ValueError("radical is defined for alternating matrices")
    return a.kernel_basis()


def totally_singular_witness(gram: Matrix, vecs: Sequence[Vector]) -> tuple[int, int] | None:
    """First (i, j), i <= j in row-major order, with vecs[i]^T gram vecs[j] != 0:
    the first nonzero upper-triangle entry of V gram V^T, V the rows ``vecs``."""
    v = Matrix(gram.ctx, vecs, gram.nrows)
    values = (v @ gram @ v.T).data
    return next(((i, j) for i, row in enumerate(values) for j in range(i, len(row)) if row[j] != 0), None)


def find_lagrangian(k: Matrix) -> list[Vector]:
    """Deterministic greedy Lagrangian of an invertible alternating Gram matrix."""
    n = k.nrows
    if n % 2 == 1 or k.det() == 0 or not k.is_alternating():
        raise ValueError("needs an invertible alternating matrix")
    s = n // 2
    ctx = k.ctx
    basis: list[Vector] = []
    while len(basis) < s:
        # with no basis yet there is no constraint, and the kernel basis is the unit vectors in order
        constraints, span = Matrix(ctx, basis, n) @ k, Span(ctx, basis, width=n)
        for v in constraints.kernel_basis():
            if not span.contains(v):
                basis.append(v)
                break
        else:
            raise AssertionError("totally singular extension must exist below half dimension")
    return basis


def symplectic_basis(k: Matrix, lagrangian: Sequence[Vector] | None = None) -> Matrix:
    """Invertible P with P^T K P in standard block form.

    The Lagrangian (default: ``find_lagrangian(k)``) becomes the last s
    columns Y of P, so P^{-1} carries it onto the span of the last s
    coordinate vectors.  The first s columns are X - Y U: X solves
    Y^T K X = -I with free coordinates zero, and U is the strict upper
    triangle of X^T K X, which skew-corrects X without dividing by 2.  The
    postconditions det P != 0 and P^T K P = [[0, I], [-I, 0]] are verified
    before returning.
    """
    n = k.nrows
    if n % 2 == 1 or not k.is_alternating() or k.det() == 0:
        raise ValueError("needs an invertible alternating matrix")
    s = n // 2
    ctx = k.ctx
    if lagrangian is None:
        ys = find_lagrangian(k)
    else:
        ys = [tuple(ctx.normalize(x) for x in v) for v in lagrangian]
        if len(ys) != s or span_dim(ctx, ys) != s:
            raise ValueError("lagrangian must be an independent family of half dimension")
        if totally_singular_witness(k, ys) is not None:
            raise ValueError("supplied subspace is not totally singular")

    yt = Matrix(ctx, ys)
    # Y^T K has full row rank, so every pivot of [Y^T K | -I] lies in its first
    # n columns: the rref row pivoting at column j holds row j of X past
    # column n, and the rows of X at free columns are zero.
    aug, pivots = place_blocks(ctx, s, n + s, [(0, 0, yt @ k), (0, n, -Matrix.identity(ctx, s))]).rref()
    solved = {pc: row[n:] for pc, row in zip(pivots, aug.data)}
    zero = (ctx.zero(),) * s
    x = Matrix(ctx, [solved.get(j, zero) for j in range(n)])
    xkx = x.T @ k @ x
    u = Matrix(ctx, [[xkx[i, t] if i < t else ctx.zero() for t in range(s)] for i in range(s)])
    y = yt.T
    p = place_blocks(ctx, n, n, [(0, 0, x - y @ u), (0, s, y)])
    if p.det() == 0 or (p.T @ k @ p) != standard_symplectic(ctx, s):
        raise AssertionError("symplectic basis postcondition failed")
    return p


@dataclass(frozen=True)
class FormSpacePair:
    """An invertible alternating Gram matrix with a matching operator space.

    Operators u correspond to Gram matrices G = K u, so K u must itself be
    alternating for every generator.
    """

    gram: Matrix
    operators: tuple[Matrix, ...]

    def __post_init__(self):
        k = self.gram
        if not k.is_alternating() or k.det() == 0:
            raise ValueError("gram matrix must be invertible and alternating")
        for u in self.operators:
            if u.ctx != k.ctx or u.shape != k.shape:
                raise ValueError("operator shape or field mismatch")
            if not (k @ u).is_alternating():
                raise ValueError("operator is not alternating with respect to the form")
        if len(independent_matrices(self.operators)) != len(self.operators):
            raise ValueError("operator generators are dependent")

    @property
    def ctx(self) -> FieldCtx:
        return self.gram.ctx

    @property
    def dim(self) -> int:
        return len(self.operators)

    def to_json(self) -> dict:
        return {
            "field": self.ctx.to_str(),
            "gram": self.gram.to_json(),
            "operators": [u.to_json() for u in self.operators],
        }

    @staticmethod
    def from_json(obj: dict) -> "FormSpacePair":
        if not isinstance(obj, dict) or not isinstance(obj["operators"], list):
            raise ValueError("form-space pair must be a JSON object with a list of operators")
        return FormSpacePair(
            Matrix.from_json(obj["gram"]),
            tuple(Matrix.from_json(u) for u in obj["operators"]),
        )


def phi_operators_to_forms(pair: FormSpacePair) -> AffineMatrixSpace:
    """Inverse translation: base K, translation generators K u."""
    return AffineMatrixSpace(pair.gram, [pair.gram @ u for u in pair.operators])
