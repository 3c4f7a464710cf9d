import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altrank.fields import FieldCtx
from altrank.matrices import (
    Matrix,
    _eliminate,
    alternating_from_upper,
    mat_vec,
    pfaffian,
    pfaffian_expansion,
    upper_pairs,
)
from altrank.rand import CounterStream, derive_seed, random_alternating, random_invertible, random_matrix

F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
Q = FieldCtx.rational()


def det_permutation_oracle(m):
    """Leibniz expansion; exponential, fine below 6x6."""
    n = m.nrows
    ctx = m.ctx
    total = ctx.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ctx.one() if sign == 1 else ctx.neg(ctx.one())
        for i in range(n):
            term = ctx.mul(term, m[i, perm[i]])
        total = ctx.add(total, term)
    return total


def test_constructor_normalizes():
    m = Matrix(F5, [[7, -1], [Fraction(1, 2), 0]])
    assert m[0, 0] == 2 and m[0, 1] == 4
    assert m[1, 0] == F5.inv(2)


def test_identity_and_zeros():
    assert Matrix.identity(F3, 3) @ Matrix.identity(F3, 3) == Matrix.identity(F3, 3)
    assert Matrix.zeros(F3, 2, 4).shape == (2, 4)


def test_matmul_shapes():
    a = Matrix(Q, [[1, 2, 3]])
    b = Matrix(Q, [[1], [0], [2]])
    assert (a @ b)[0, 0] == Fraction(7)
    with pytest.raises(ValueError):
        b @ b  # noqa: B018


def test_rref_known():
    m = Matrix(Q, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    red, pivots = m.rref()
    assert pivots == (0, 1)
    assert red.row(0) == (Fraction(1), Fraction(0), Fraction(-1))
    assert red.row(1) == (Fraction(0), Fraction(1), Fraction(2))


def test_rank_and_kernel():
    m = Matrix(F7, [[1, 2, 3], [2, 4, 1]])
    assert m.rank() == 2
    ker = m.kernel_basis()
    assert len(ker) == 1
    for v in ker:
        out = [sum(int(m[i, j]) * int(v[j]) for j in range(3)) % 7 for i in range(2)]
        assert out == [0, 0]
    # the same rows collapse mod 5: the second row becomes twice the first
    assert Matrix(F5, [[1, 2, 3], [2, 4, 1]]).rank() == 1


def test_det_matches_permutation_oracle():
    stream = CounterStream(derive_seed(11, "det"))
    for n in (1, 2, 3, 4):
        for ctx in (F5, Q):
            m = random_matrix(ctx, n, n, stream, box=5)
            assert m.det() == det_permutation_oracle(m)


def oracle_cases(ctx, seed):
    """Seeded matrices, square and not, with sparse rows, duplicated rows and
    zero leading columns, so singular inputs and row swaps of both parities occur."""
    rng = random.Random(seed)
    box = 9

    def element():
        if ctx.kind == "prime":
            return rng.randrange(ctx.p)
        return Fraction(rng.randint(-box, box), rng.randint(1, box))

    for trial in range(80):
        n = rng.randint(1, 6)
        m = n if trial % 2 else rng.randint(1, 6)
        density = (0.3, 0.6, 1.0)[trial % 3]
        rows = [[element() if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
        if trial % 5 == 0:
            for row in rows:
                row[0] = 0
        if trial % 7 == 0 and n > 1:
            rows[-1] = list(rows[0])
        yield Matrix(ctx, rows)


@pytest.mark.parametrize("ctx", [FieldCtx.prime(2), F5, F7, FieldCtx.prime(2_147_483_629), Q])
def test_exact_layer_matches_sympy(ctx):
    pytest.importorskip("sympy")
    from sympy import GF, QQ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    K = QQ if ctx.kind == "rational" else GF(ctx.p)

    def to_k(x):
        return QQ(x.numerator, x.denominator) if ctx.kind == "rational" else K(x)

    def to_dm(a):
        return DomainMatrix([[to_k(x) for x in row] for row in a.data], a.shape, K)

    parities = set()
    for a in oracle_cases(ctx, derive_seed(5, "sympy", ctx.to_str())):
        ref = to_dm(a)
        red, pivots = a.rref()
        ref_red, ref_pivots = ref.rref()
        assert to_dm(red) == ref_red and pivots == tuple(ref_pivots)
        assert a.rank() == ref.rank()
        assert len(a.kernel_basis()) == ref.nullspace().shape[0]
        if not a.is_square:
            continue
        assert to_k(a.det()) == ref.det()
        if a.det() == 0:
            with pytest.raises(ValueError):
                a.inverse()
            with pytest.raises(DMNonInvertibleMatrixError):
                ref.inv()
        else:
            assert to_dm(a.inverse()) == ref.inv()
            parities.add(_eliminate(a)[1] % 2)
    assert parities == {0, 1}


def test_inverse_and_solve():
    m = Matrix(F7, [[1, 2], [3, 4]])
    assert m @ m.inverse() == Matrix.identity(F7, 2)
    assert m.inverse() is m.inverse()  # computed once and kept
    x = mat_vec(m.inverse(), (1, 0))
    lhs = tuple(sum(int(m[i, j]) * int(x[j]) for j in range(2)) % 7 for i in range(2))
    assert lhs == (1, 0)
    singular = Matrix(F7, [[1, 1], [1, 1]])
    for _ in range(2):  # a singular matrix keeps no inverse
        with pytest.raises(ValueError):
            singular.inverse()


def assert_canonical(m):
    """Entries as ``Matrix(...)`` stores them: an int in [0, p) over F_p, a
    Fraction over Q, in a tuple of equal-length tuples."""
    ctx = m.ctx
    assert type(m.data) is tuple and len(m.data) == m.nrows
    for row in m.data:
        assert type(row) is tuple and len(row) == m.ncols
        for x in row:
            if ctx.kind == "prime":
                assert type(x) is int and 0 <= x < ctx.p
            else:
                assert type(x) is Fraction
    assert Matrix(ctx, m.data) == m


@pytest.mark.parametrize("ctx", [F5, F7, FieldCtx.prime(2_147_483_629), Q])
def test_arithmetic_results_are_canonical(ctx):
    stream = CounterStream(derive_seed(13, "canonical", ctx.to_str()))
    for n in (1, 3, 4):
        a = random_matrix(ctx, n, n, stream, box=7)
        b = random_matrix(ctx, n, n, stream, box=7)
        c = random_matrix(ctx, n, n + 2, stream, box=7)
        inv = random_invertible(ctx, n, stream, box=7)
        for m in (
            a @ b, a @ c, a + b, a - b, -a, a.scale(3), a.T, c.T,
            c.block(0, n, 1, n + 1), a.hstack(c), a.rref()[0], c.rref()[0],
            inv.inverse(), inv @ inv.inverse(),
        ):
            assert_canonical(m)
        assert inv @ inv.inverse() == Matrix.identity(ctx, n)
    with pytest.raises(ValueError):
        Matrix.identity(F5, 2).hstack(Matrix.identity(F7, 2))


def test_alternating_from_upper_layout():
    # coords fill (0,1), (0,2), (1,2) in row-major upper order
    m = alternating_from_upper(F5, 3, [1, 2, 3])
    assert m[0, 1] == 1 and m[0, 2] == 2 and m[1, 2] == 3
    assert m[1, 0] == 4 and m[2, 0] == 3 and m[2, 1] == 2
    assert m.is_alternating()
    assert upper_pairs(3) == [(0, 1), (0, 2), (1, 2)]


def test_alternating_char_2_needs_zero_diagonal():
    f2 = FieldCtx.prime(2)
    sym = Matrix(f2, [[1, 1], [1, 1]])
    assert not sym.is_alternating()
    alt = Matrix(f2, [[0, 1], [1, 0]])
    assert alt.is_alternating()


# -- Pfaffian ---------------------------------------------------------------------------


def test_pfaffian_base_cases():
    assert pfaffian(Matrix(Q, [[0, 1], [-1, 0]])) == 1
    assert pfaffian(Matrix(Q, [[0, 5], [-5, 0]])) == 5
    empty = Matrix(Q, [])
    assert pfaffian(empty) == 1
    odd = alternating_from_upper(Q, 3, [1, 2, 3])
    assert pfaffian(odd) == 0


def test_pfaffian_4x4_closed_form():
    # Pf = a01*a23 - a02*a13 + a03*a12
    vals = [2, 3, 5, 7, 11, 13]
    m = alternating_from_upper(Q, 4, vals)
    a01, a02, a03, a12, a13, a23 = (Fraction(v) for v in vals)
    assert pfaffian(m) == a01 * a23 - a02 * a13 + a03 * a12


def test_pfaffian_dual_algorithms_agree():
    stream = CounterStream(derive_seed(5, "pf"))
    for ctx in (F3, F5, F7, Q):
        for n in (2, 4, 6):
            for _ in range(10):
                m = random_alternating(ctx, n, stream, box=9)
                assert pfaffian(m) == pfaffian_expansion(m)


def test_pfaffian_squares_to_determinant():
    stream = CounterStream(derive_seed(6, "pf2"))
    for ctx in (F5, Q):
        for n in (2, 4, 6):
            m = random_alternating(ctx, n, stream, box=9)
            pf = pfaffian(m)
            assert ctx.mul(pf, pf) == m.det()


def test_pfaffian_congruence_scaling():
    stream = CounterStream(derive_seed(7, "pfcong"))
    for ctx in (F5, Q):
        for n in (2, 4):
            m = random_alternating(ctx, n, stream, box=5)
            p = random_matrix(ctx, n, n, stream, box=5)
            lhs = pfaffian(p.T @ m @ p)
            assert lhs == ctx.mul(p.det(), pfaffian(m))


def test_alternating_rank_is_even():
    stream = CounterStream(derive_seed(8, "even"))
    for _ in range(50):
        m = random_alternating(F5, 5, stream)
        assert m.rank() % 2 == 0


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6))
def test_pfaffian_agreement_hypothesis(coords):
    m = alternating_from_upper(F5, 4, coords)
    assert pfaffian(m) == pfaffian_expansion(m)
    assert F5.mul(pfaffian(m), pfaffian(m)) == m.det()


def test_json_round_trip():
    m = Matrix(F7, [[1, 2], [3, 4]])
    assert Matrix.from_json(m.to_json()) == m
    mq = Matrix(Q, [[Fraction(1, 3), 2]])
    assert Matrix.from_json(mq.to_json()) == mq
