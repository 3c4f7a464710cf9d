from fractions import Fraction

import pytest

from altrank.analyze import first_singular
from altrank.families import build_operator_block_space, build_strictly_upper_space
from altrank.fields import FieldCtx
from altrank.matrices import Matrix, pfaffian, place_blocks, span_dim
from altrank.rand import (
    CounterStream,
    derive_seed,
    random_alternating,
    random_invertible,
    random_matrix,
)
from altrank.spaces import spaces_equal
from altrank.symplectic import (
    FormSpacePair,
    find_lagrangian,
    phi_operators_to_forms,
    radical,
    standard_symplectic,
    symplectic_basis,
    totally_singular_witness,
)
from reference import (
    lazy_totally_singular_witness,
    pencil_symplectic_iff_trivial_spectrum,
    random_invertible_alternating,
)

F2 = FieldCtx.prime(2)
F3 = FieldCtx.prime(3)
F5 = FieldCtx.prime(5)
F7 = FieldCtx.prime(7)
Q = FieldCtx.rational()


def test_standard_symplectic_layout():
    k = standard_symplectic(F5, 2)
    assert k.shape == (4, 4)
    assert k[0, 2] == 1 and k[1, 3] == 1
    assert k[2, 0] == 4 and k[3, 1] == 4
    assert k.is_alternating() and k.det() != 0


def test_radical():
    a = Matrix(F5, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    rad = radical(a)
    assert len(rad) == 1
    assert rad[0] == (0, 0, 1)
    assert radical(standard_symplectic(F5, 2)) == []


def form_value(gram, x, y):
    """x^T gram y, as a 1 x 1 ``Matrix`` product."""
    return (Matrix(gram.ctx, [x]) @ gram @ Matrix(gram.ctx, [y]).T)[0, 0]


def test_totally_singular_witness():
    k = standard_symplectic(F5, 2)
    good = [(1, 0, 0, 0), (0, 1, 0, 0)]
    assert totally_singular_witness(k, good) is None
    bad = [(1, 0, 0, 0), (0, 0, 1, 0)]
    assert totally_singular_witness(k, bad) is not None
    i, j = totally_singular_witness(k, bad)
    assert form_value(k, bad[i], bad[j]) != 0
    # no vectors, and zero-width vectors of a 0 x 0 gram, whose forms are all zero
    assert totally_singular_witness(k, []) is None
    assert totally_singular_witness(Matrix.zeros(F5, 0), [(), ()]) is None


@pytest.mark.parametrize("ctx", [F2, F5, FieldCtx.prime(2147483629), Q], ids=str)
@pytest.mark.parametrize("alternating", [True, False], ids=["alternating", "general"])
def test_totally_singular_witness_matches_lazy_scan(ctx, alternating):
    # The gram is random on its leading k x k block, so it is singular for
    # k < n and vectors supported on the last n - k coordinates lie in its
    # radical.  The lists are empty, single or longer, and some members are
    # combinations of earlier ones, so the first hit falls anywhere in the
    # scan, or nowhere.
    n = 4
    hits, sizes, dependent = set(), set(), 0
    for trial in range(56):
        stream = CounterStream(derive_seed(31, "witness", str(ctx), alternating, trial))
        k = (2, 3, 4)[trial % 3]
        block = random_alternating(ctx, k, stream) if alternating else random_matrix(ctx, k, k, stream)
        gram = place_blocks(ctx, n, n, [(0, 0, block)])
        vecs = []
        for _ in range(trial % 7):
            v = stream.vector(ctx, n)
            if vecs and stream.below(4) == 0:
                v = (Matrix(ctx, [stream.vector(ctx, len(vecs))]) @ Matrix(ctx, vecs)).data[0]
                dependent += 1
            elif stream.below(3) == 0:
                v = (0,) * k + v[k:]
            vecs.append(v if ctx.kind == "prime" else tuple(Fraction(x) / 3 for x in v))
        expected = lazy_totally_singular_witness(gram, vecs)
        assert totally_singular_witness(gram, vecs) == expected
        hits.add(expected)
        sizes.add(len(vecs))
    assert sizes == set(range(7)) and dependent >= 3
    assert None in hits
    assert len({hit for hit in hits if hit is not None and hit[0] > 0}) >= 2


@pytest.mark.parametrize("ctx", [F2, F5, FieldCtx.prime(2147483629), Q], ids=str)
def test_totally_singular_witness_scans_the_upper_triangle(ctx):
    # x^T K y = x_1 y_0: of the pair (e_0, e_1) only the lower entry (1, 0)
    # of V K V^T is nonzero, so the scan over i <= j finds nothing; with
    # the pair reversed the nonzero entry is (0, 1).
    k = Matrix(ctx, [[0, 0], [1, 0]])
    e0, e1 = (1, 0), (0, 1)
    for vecs in ([e0, e1], [e1, e0]):
        assert totally_singular_witness(k, vecs) == lazy_totally_singular_witness(k, vecs)
    assert totally_singular_witness(k, [e0, e1]) is None
    assert totally_singular_witness(k, [e1, e0]) == (0, 1)
    assert totally_singular_witness(k, []) is None


def test_find_lagrangian_dimension():
    for s in (1, 2, 3):
        stream = CounterStream(derive_seed(s, "lag"))
        k = random_invertible_alternating(F7, 2 * s, stream)
        lag = find_lagrangian(k)
        assert len(lag) == s
        assert totally_singular_witness(k, lag) is None


def test_symplectic_basis_postconditions():
    for ctx in (F3, F5, Q):
        for s in (1, 2, 3):
            stream = CounterStream(derive_seed(10 * s, "sb"))
            k = random_invertible_alternating(ctx, 2 * s, stream, box=4)
            p = symplectic_basis(k)
            assert p.T @ k @ p == standard_symplectic(ctx, s)


def test_symplectic_basis_carries_lagrangian_to_tail():
    s = 2
    stream = CounterStream(derive_seed(77, "carry"))
    k = random_invertible_alternating(F5, 2 * s, stream)
    lag = find_lagrangian(k)
    p = symplectic_basis(k, lagrangian=lag)
    pinv = p.inverse()
    for v in lag:
        moved = tuple(
            sum(int(pinv[i, j]) * int(v[j]) for j in range(2 * s)) % 5
            for i in range(2 * s)
        )
        assert all(c == 0 for c in moved[:s])  # lands in the last s coordinates


def reference_find_lagrangian(k):
    """Greedy Lagrangian with the unit vectors as the first step's candidates."""
    ctx, n = k.ctx, k.nrows
    basis = []
    while len(basis) < n // 2:
        if basis:
            candidates = (Matrix(ctx, basis) @ k).kernel_basis()
        else:
            candidates = [Matrix.identity(ctx, n).data[i] for i in range(n)]
        basis.append(next(v for v in candidates if span_dim(ctx, basis + [v]) > len(basis)))
    return basis


def particular_solution(m, b):
    """The solution of m x = b whose free variables are zero, read off the
    rref of [m | b]; b must lie in the column space of m."""
    ctx = m.ctx
    aug, pivots = place_blocks(ctx, m.nrows, m.ncols + 1, [(0, 0, m), (0, m.ncols, Matrix(ctx, [[x] for x in b]))]).rref()
    assert m.ncols not in pivots
    x = [ctx.zero()] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = aug[i, m.ncols]
    return tuple(x)


def reference_symplectic_basis(k, ys):
    """Vector by vector: one solve per dual vector x_i (y_j^T K x_i = -delta_ij),
    then x_t -= (x_i^T K x_t) y_i for i < t against the corrected x_i."""
    ctx, s = k.ctx, k.nrows // 2
    constraints = Matrix(ctx, ys) @ k
    minus_one = ctx.neg(ctx.one())
    xs = [particular_solution(constraints, tuple(minus_one if t == i else ctx.zero() for t in range(s))) for i in range(s)]
    for t in range(s):
        for i in range(t):
            c = form_value(k, xs[i], xs[t])
            xs[t] = tuple(ctx.sub(a, ctx.mul(c, b)) for a, b in zip(xs[t], ys[i]))
    return Matrix(ctx, xs + list(ys)).transpose()


@pytest.mark.parametrize("ctx", [F3, F5, F7, FieldCtx.prime(11), FieldCtx.prime(101), Q], ids=str)
def test_symplectic_constructions_match_vector_reference(ctx):
    for n in (0, 2, 4, 6, 8):
        for trial in range(2):
            stream = CounterStream(derive_seed(trial, "sb-ref", str(ctx), n))
            k = random_invertible_alternating(ctx, n, stream, box=4)
            greedy = find_lagrangian(k)
            assert greedy == reference_find_lagrangian(k)
            mix = random_invertible(ctx, n // 2, stream, box=4)
            rebased = list((mix @ Matrix(ctx, greedy)).data)
            for lag in (None, greedy, rebased):
                got = symplectic_basis(k, lag)
                want = reference_symplectic_basis(k, greedy if lag is None else lag)
                assert got.shape == (n, n) and got.data == want.data, (n, trial)
                assert all(type(a) is type(b) for a, b in zip(got.flatten(), want.flatten()))


def test_symplectic_basis_rejects_degenerate():
    singular = Matrix(F5, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        symplectic_basis(singular)
    odd = Matrix(F5, [[0]])
    with pytest.raises(ValueError):
        symplectic_basis(odd)


# -- operator/form correspondence -------------------------------------------------------


def test_form_space_pair_validation():
    k = standard_symplectic(F5, 1)
    # at size 2 the compatible operators are exactly the scalar matrices
    good = FormSpacePair(k, [Matrix.identity(F5, 2)])
    assert good.dim == 1
    with pytest.raises(ValueError):
        FormSpacePair(Matrix(F5, [[0, 0], [0, 0]]), [])  # singular gram
    with pytest.raises(ValueError):
        FormSpacePair(k, [Matrix(F5, [[0, 1], [0, 0]])])  # K u not alternating
    with pytest.raises(ValueError, match="^operator generators are dependent$"):
        FormSpacePair(k, [Matrix.identity(F5, 2), Matrix.identity(F5, 2).scale(2)])
    ops = build_operator_block_space(F5, 2).operators
    with pytest.raises(ValueError, match="^operator generators are dependent$"):
        FormSpacePair(standard_symplectic(F5, 2), (*ops, ops[1]))  # a repeated operator


def test_phi_round_trip():
    pair = build_operator_block_space(F5, 3)
    forms = phi_operators_to_forms(pair)
    assert forms.alternating and forms.dim == pair.dim
    kinv = forms.base.inverse()
    back = FormSpacePair(forms.base, [kinv @ g for g in forms.basis])  # the inverse map K^{-1} G
    assert back.dim == pair.dim
    assert spaces_equal(phi_operators_to_forms(back), forms)


def test_pair_json_round_trip():
    pair = build_operator_block_space(F5, 2)
    back = FormSpacePair.from_json(pair.to_json())
    assert back.gram == pair.gram
    assert back.operators == pair.operators


# -- symplectic pencils vs spectra --------------------------------------------------------


def test_pencil_iff_spectrum_random_pairs():
    k = standard_symplectic(F7, 2)
    stream = CounterStream(derive_seed(4, "pencil"))
    agree = 0
    for _ in range(60):
        g = random_alternating(F7, 4, stream)
        pencil_ok, spectrum_ok = pencil_symplectic_iff_trivial_spectrum(k, g)
        assert pencil_ok == spectrum_ok
        agree += 1
    assert agree == 60


def test_pencil_iff_spectrum_nilpotent_case():
    # K * (strictly upper operator) gives an alternating g with K^{-1} g nilpotent
    nt = build_strictly_upper_space(F5, 2)
    k = standard_symplectic(F5, 2)
    u = Matrix(F5, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])
    g = k @ u
    assert g.is_alternating()
    pencil_ok, spectrum_ok = pencil_symplectic_iff_trivial_spectrum(k, g)
    assert pencil_ok and spectrum_ok
    assert nt.dim == 1


def test_pencil_negative_case():
    k = standard_symplectic(F5, 1)
    g = k.scale(3)  # K + tG singular at t = -1/3
    pencil_ok, spectrum_ok = pencil_symplectic_iff_trivial_spectrum(k, g)
    assert not pencil_ok and not spectrum_ok


def pencil_cases():
    """The seeded pairs of the three tests above, plus the dependent pencils
    G = 0 and G = 2K."""
    k7 = standard_symplectic(F7, 2)
    stream = CounterStream(derive_seed(4, "pencil"))
    cases = [(k7, random_alternating(F7, 4, stream)) for _ in range(60)]
    k5 = standard_symplectic(F5, 2)
    cases.append((k5, k5 @ Matrix(F5, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])))
    k1 = standard_symplectic(F5, 1)
    cases.append((k1, k1.scale(3)))
    return cases + [(k5, Matrix.zeros(F5, 4)), (k5, k5.scale(2))]


def test_pencil_scan_matches_det_reference_loop():
    seen = set()
    for k, g in pencil_cases():
        want = all((k + g.scale(t)).det() != 0 for t in range(k.ctx.p))
        pencil_ok, _ = pencil_symplectic_iff_trivial_spectrum(k, g)
        assert pencil_ok is want
        seen.add(want)
    assert seen == {True, False}


def reference_first_singular(a, b, lo):
    """The least t in [lo, p) with det(a + t b) = 0, one exact det per t."""
    return next((t for t in range(lo, a.ctx.p) if (a + b.scale(t)).det() == 0), None)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_first_singular_matches_det_reference_loop(p):
    ctx = FieldCtx.prime(p)
    stream = CounterStream(derive_seed(p, "first-singular"))
    seen = set()
    for n in range(1, 5):
        minus_one = Matrix.identity(ctx, n).scale(-1)
        for _ in range(12):
            a, b = random_matrix(ctx, n, n, stream), random_matrix(ctx, n, n, stream)
            for lo in (0, 1, p - 1):
                for step in (b, minus_one, Matrix.zeros(ctx, n)):
                    want = reference_first_singular(a, step, lo)
                    assert first_singular(a, step, lo) == want
                    seen.add(want is None)
    assert seen == {True, False}


def test_first_singular_finds_eigenvalues():
    minus_one = Matrix.identity(F5, 2).scale(-1)
    diag = Matrix(F5, [[2, 0], [0, 3]])
    assert [first_singular(diag, minus_one, lo) for lo in (0, 3, 4)] == [2, 3, None]
    nil = Matrix(F5, [[0, 1], [0, 0]])
    assert first_singular(nil, minus_one) == 0
    assert first_singular(nil, minus_one, 1) is None
    with pytest.raises(ValueError, match="prime field"):
        first_singular(Matrix.identity(Q, 2), Matrix.identity(Q, 2))
