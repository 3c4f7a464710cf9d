from collections import Counter
from fractions import Fraction

import pytest

from altrank import _engine
from altrank.fields import FieldCtx
from altrank.matrices import pfaffian
from altrank.rand import (
    MASK64,
    CounterStream,
    derive_seed,
    mix64,
    random_alternating,
    random_invertible,
    random_matrix,
    raw_word,
    uniform_below,
)
from reference import random_invertible_alternating

F5 = FieldCtx.prime(5)
Q = FieldCtx.rational()


def test_mix64_reference_values():
    # published splitmix64 outputs for seed 0: finalizer applied to the
    # golden-ratio walk
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
    assert mix64(0x3C6EF372FE94F82A) == 0x6E789E6AA1B965F4
    assert mix64(0xDAA66D2C7DDF743F) == 0x06C45D188009454F


def test_uniform_below_deterministic_and_in_range():
    vals = [uniform_below(123, i, 7) for i in range(200)]
    again = [uniform_below(123, i, 7) for i in range(200)]
    assert vals == again
    assert all(0 <= v < 7 for v in vals)
    assert len(set(vals)) == 7  # all residues hit in 200 draws


def test_uniform_below_counters_independent():
    # changing one counter's draw cannot affect another counter
    a = uniform_below(9, 4, 100)
    _ = uniform_below(9, 5, 100)
    assert uniform_below(9, 4, 100) == a
    with pytest.raises(ValueError):
        uniform_below(9, 0, 0)


def test_uniform_below_rough_balance():
    counts = Counter(uniform_below(7, i, 5) for i in range(5000))
    for v in range(5):
        assert 800 <= counts[v] <= 1200


def test_derive_seed_labels():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(5, "x") == derive_seed(5, "x")


def test_counter_stream_elements():
    s = CounterStream(derive_seed(0, "t"))
    xs = [s.element(F5) for _ in range(50)]
    assert all(0 <= x < 5 for x in xs)
    v = s.vector(F5, 4)
    assert len(v) == 4
    q = s.element(Q, box=3)
    assert isinstance(q, Fraction) and -3 <= q <= 3


@pytest.mark.parametrize(
    "ctx, box", [(F5, 1000), (FieldCtx.prime(2_147_483_629), 1000), (Q, 1000), (Q, 3)]
)
def test_counter_stream_vector_matches_element_draws(ctx, box):
    seed = derive_seed(11, "vec", ctx.to_str())
    fast, slow = CounterStream(seed), CounterStream(seed)
    for n in (0, 1, 4, 9, 4):
        want = tuple(slow.element(ctx, box) for _ in range(n))
        got = fast.vector(ctx, n, box)
        assert got == want and fast.counter == slow.counter
        assert all(type(x) is type(ctx.zero()) for x in got)


def test_random_matrix_helpers():
    s = CounterStream(derive_seed(3, "m"))
    inv = random_invertible(F5, 3, s)
    assert inv.det() != 0
    alt = random_alternating(F5, 4, s)
    assert alt.is_alternating()
    ia = random_invertible_alternating(F5, 4, s)
    assert pfaffian(ia) != 0
    with pytest.raises(ValueError):
        random_invertible_alternating(F5, 3, s)


@pytest.mark.parametrize("nrows,ncols", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_random_matrix_keeps_its_shape(nrows, ncols):
    s = CounterStream(derive_seed(5, "shape"))
    assert random_matrix(F5, nrows, ncols, s).shape == (nrows, ncols)


def test_engine_uniform_block_matches_scalar():
    import numpy as np

    blk = _engine.uniform_block(42, 100, 60, 7)
    ref = np.array([uniform_below(42, c, 7) for c in range(100, 160)])
    assert (blk == ref).all()
    # written straight into the narrowest ladder type that holds bound - 1, at
    # seeds taken modulo 2^64; the last bound rejects about a third of raw
    # words, so it takes the retry path
    big = (1 << 64) // 3 + 1
    ladder = [(7, np.int16), (32_768, np.int16), (32_769, np.int32), (46_337, np.int32), (big, np.int64)]
    for seed in (42, -1, MASK64, MASK64 + 1):
        for bound, dtype in ladder:
            blk = _engine.uniform_block(seed, 100, (6, 10), bound)
            assert blk.dtype == dtype and blk.shape == (6, 10)
            assert blk.reshape(60).tolist() == [uniform_below(seed, c, bound) for c in range(100, 160)]
    # draws run in blocks of _MOD_BLOCK: check both sides of each boundary, the
    # retries in later blocks included, and that a split range draws the same
    step = _engine._MOD_BLOCK
    near = [i for b in (step, 2 * step) for i in range(b - 12, min(b + 12, 2 * step + 7))]
    limit = (1 << 64) - (1 << 64) % big
    assert any(raw_word(-1, 3 + i, 0) >= limit for i in near if i >= step)
    for bound in (5, big):
        blk = _engine.uniform_block(-1, 3, 2 * step + 7, bound)
        assert [int(blk[i]) for i in near] == [uniform_below(-1, 3 + i, bound) for i in near]
        head = _engine.uniform_block(-1, 3, step + 1, bound)
        tail = _engine.uniform_block(-1, 3 + step + 1, step + 6, bound)
        assert (np.concatenate([head, tail]) == blk).all()


@pytest.mark.parametrize("seed", [-1, MASK64, MASK64 + 1, MASK64 + 6])
@pytest.mark.parametrize("bound", [7, (1 << 64) // 3 + 1])
def test_engine_uniform_block_takes_any_seed_modulo_2_64(seed, bound):
    # the scalar reference masks the seed; so must both engine draws, the
    # first and the retry (the large bound rejects about a third of raw words)
    import numpy as np

    blk = _engine.uniform_block(seed, 100, 60, bound)
    ref = np.array([uniform_below(seed, c, bound) for c in range(100, 160)])
    assert (blk == ref).all()
    limit = (1 << 64) - (1 << 64) % bound
    assert any(raw_word(seed, c, 0) >= limit for c in range(100, 160)) == (bound > 7)


def test_engine_sampled_coords_match_space_sampling():
    import numpy as np

    from altrank.analyze import _member_coords
    from altrank.families import build_bordered_alternating

    sp = build_bordered_alternating(F5, 5, 1)
    d = sp.dim
    coords = _engine.sampled_coords(17, 0, 25, d, 5)
    # scalar reference: coordinate j of sampled member i is draw i * d + j
    ref = np.array([[uniform_below(17, i * d + j, 5) for j in range(d)] for i in range(25)])
    assert (coords == ref).all()
    helper = [_member_coords(sp, i, False, 5, 17) for i in range(25)]
    assert helper == [tuple(int(c) for c in row) for row in ref]
    assert all(type(c) is int for row in helper for c in row)


def test_engine_lex_coords_round_trip():
    import numpy as np

    coords = _engine.lex_coords(0, 3**4, 4, 3)
    assert coords.shape == (81, 4)
    # big-endian digits: row i encodes i in base 3
    for i in (0, 1, 3, 80):
        assert _engine.index_to_coords(i, 4, 3) == tuple(int(x) for x in coords[i])
    assert (coords[1] == np.array([0, 0, 0, 1])).all()


def test_engine_batch_rank_matches_exact():
    import numpy as np

    s = CounterStream(derive_seed(9, "rk"))
    mats = []
    exact = []
    for _ in range(40):
        m = random_alternating(F5, 5, s)
        mats.append(np.array([list(r) for r in m.data], dtype=np.int64))
        exact.append(m.rank())
    arr = np.stack(mats)
    got = _engine.batch_rank(arr, 5)  # 40 members >= p: pivot inverses from the table
    assert [int(x) for x in got] == exact
