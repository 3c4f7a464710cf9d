"""Vectorized 64-bit kernels for enumeration-scale verification over F_p.

This is infrastructure, not arithmetic authority: entries are canonical
residues with p < 2^31, every product fits in an int64, and the exact
object-level linear algebra in :mod:`altrank.matrices` independently covers
the same operations at small scale (the test suite cross-checks the two).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

from .rand import GOLDEN

_CHUNK_ELEMS = 1 << 22


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("ALTRANK_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def chunk_ranges(lo: int, hi: int, entry_size: int) -> Iterator[tuple[int, int]]:
    step = max(1024, _CHUNK_ELEMS // max(1, entry_size))
    cur = lo
    while cur < hi:
        nxt = min(hi, cur + step)
        yield cur, nxt
        cur = nxt


# -- counter-based sampling (mirrors altrank.rand bit for bit) -------------------


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_block(seed: int, counter_lo: int, shape: tuple[int, ...], bound: int) -> np.ndarray:
    """Uniform integers in [0, bound), counters assigned row-major from counter_lo."""
    total = int(np.prod(shape)) if shape else 1
    counters = np.arange(counter_lo, counter_lo + total, dtype=np.uint64)
    limit_int = (1 << 64) - ((1 << 64) % bound)
    with np.errstate(over="ignore"):
        base = (counters << np.uint64(16)) + np.uint64(1)
        out = _mix64(np.uint64(seed) + np.uint64(GOLDEN) * base)
        if limit_int < (1 << 64):
            limit = np.uint64(limit_int)
            bad = np.nonzero(out >= limit)[0]
            attempt = 1
            while bad.size:
                if attempt >= (1 << 16):
                    raise RuntimeError("rejection sampling failed to terminate")
                retry = _mix64(
                    np.uint64(seed)
                    + np.uint64(GOLDEN)
                    * (((counters[bad] << np.uint64(16)) | np.uint64(attempt)) + np.uint64(1))
                )
                out[bad] = retry
                bad = bad[retry >= limit]
                attempt += 1
    return (out % np.uint64(bound)).astype(np.int64).reshape(shape)


def sampled_coords(seed: int, lo: int, hi: int, dim: int, bound: int) -> np.ndarray:
    """Coordinates of sampled members lo..hi-1; draw i is partition independent."""
    return uniform_block(seed, lo * dim, (hi - lo, dim), bound)


def lex_coords(lo: int, hi: int, dim: int, q: int) -> np.ndarray:
    """Lexicographic coordinate tuples for enumeration indices [lo, hi)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, dim), dtype=np.int64)
    for t in range(dim):
        out[:, dim - 1 - t] = (idx // (q**t)) % q
    return out


def index_to_coords(index: int, dim: int, q: int) -> tuple[int, ...]:
    digits = []
    for _ in range(dim):
        index, d = divmod(index, q)
        digits.append(d)
    return tuple(reversed(digits))


# -- batched members and ranks ----------------------------------------------------


def members_from_coords(
    coords: np.ndarray, base_flat: np.ndarray, basis_flat: np.ndarray, n: int, m: int, p: int
) -> np.ndarray:
    if basis_flat.shape[0]:
        flat = (coords @ basis_flat + base_flat) % p
    else:
        flat = np.broadcast_to(base_flat % p, (coords.shape[0], n * m)).copy()
    return flat.reshape(-1, n, m)


def _inverse_table(p: int) -> np.ndarray:
    if p > (1 << 20):
        raise ValueError("engine inverse table limited to small moduli")
    table = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        table[a] = pow(a, -1, p)
    return table


def batch_rank(mats: np.ndarray, p: int, inv_table: np.ndarray | None = None) -> np.ndarray:
    """Ranks of a stack of matrices over F_p.  Mutates ``mats``."""
    k, n, m = mats.shape
    if inv_table is None:
        inv_table = _inverse_table(p)
    r = np.zeros(k, dtype=np.int64)
    rows = np.arange(n)
    full = min(n, m)
    for c in range(m):
        if r.min() >= full:
            break
        col = mats[:, :, c]
        nz = (rows[None, :] >= r[:, None]) & (col != 0)
        has = nz.any(axis=1)
        if not has.any():
            continue
        hidx = np.nonzero(has)[0]
        piv_h = nz.argmax(axis=1)[hidx]
        rr_h = r[hidx]
        prow = mats[hidx, piv_h].copy()
        mats[hidx, piv_h] = mats[hidx, rr_h]
        mats[hidx, rr_h] = prow
        pinv = inv_table[prow[:, c]]
        colh = mats[hidx, :, c]
        f = colh * pinv[:, None] % p
        f *= rows[None, :] > rr_h[:, None]
        mats[hidx, :, c:] = (mats[hidx, :, c:] - f[:, :, None] * prow[:, None, c:]) % p
        r += has
    return r


# -- folded scans -------------------------------------------------------------------


def _merge_extremes(acc, part):
    if acc is None:
        return part
    mn = min((acc[0], acc[1]), (part[0], part[1]))
    mx = max((acc[2], -acc[3]), (part[2], -part[3]))
    return (mn[0], mn[1], mx[0], -mx[1])


def _run_chunks(worker: Callable, ranges: list[tuple[int, int]], threads: int):
    if threads <= 1 or len(ranges) <= 1:
        return [worker(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda lohi: worker(*lohi), ranges))


def profile_ranks(
    base_flat: np.ndarray,
    basis_flat: np.ndarray,
    n: int,
    m: int,
    p: int,
    *,
    exhaustive: bool,
    total: int,
    seed: int = 0,
    expect_even: bool = False,
    threads: int | None = None,
) -> tuple[int, int, int, int]:
    """Fold (min_rank, min_index, max_rank, max_index) over members.

    Indices refer to lexicographic enumeration order when exhaustive, or to
    the sample stream position otherwise; ties resolve to the least index
    regardless of chunking or thread scheduling.
    """
    dim = basis_flat.shape[0]
    inv_table = _inverse_table(p)

    def worker(lo: int, hi: int):
        coords = (
            lex_coords(lo, hi, dim, p) if exhaustive else sampled_coords(seed, lo, hi, dim, p)
        )
        mats = members_from_coords(coords, base_flat, basis_flat, n, m, p)
        ranks = batch_rank(mats, p, inv_table)
        if expect_even and (ranks & 1).any():
            raise AssertionError("alternating member with odd rank")
        mn = int(ranks.min())
        mx = int(ranks.max())
        i_mn = lo + int((ranks == mn).argmax())
        i_mx = lo + int((ranks == mx).argmax())
        return (mn, i_mn, mx, i_mx)

    acc = None
    parts = _run_chunks(worker, list(chunk_ranges(0, total, n * m)), resolve_threads(threads))
    for part in parts:
        acc = _merge_extremes(acc, part)
    return acc


def rank_counts(
    base_flat: np.ndarray,
    basis_flat: np.ndarray,
    n: int,
    m: int,
    p: int,
    total: int,
) -> np.ndarray:
    """Exhaustive rank multiset as a counts vector of length min(n, m) + 1."""
    dim = basis_flat.shape[0]
    inv_table = _inverse_table(p)
    counts = np.zeros(min(n, m) + 1, dtype=np.int64)
    for lo, hi in chunk_ranges(0, total, n * m):
        coords = lex_coords(lo, hi, dim, p)
        mats = members_from_coords(coords, base_flat, basis_flat, n, m, p)
        ranks = batch_rank(mats, p, inv_table)
        counts += np.bincount(ranks, minlength=counts.size)
    return counts


def unit_eigen_hits(
    basis_flat: np.ndarray, n: int, p: int, total: int, threads: int | None = None
) -> np.ndarray:
    """Indices of span members M (lex order) with det(M - I) == 0."""
    inv_table = _inverse_table(p)
    dim = basis_flat.shape[0]
    neg_ident = (-np.eye(n, dtype=np.int64).reshape(n * n)) % p

    def worker(lo: int, hi: int):
        coords = lex_coords(lo, hi, dim, p)
        mats = members_from_coords(coords, neg_ident, basis_flat, n, n, p)
        ranks = batch_rank(mats, p, inv_table)
        return lo + np.nonzero(ranks < n)[0]

    parts = _run_chunks(worker, list(chunk_ranges(0, total, n * n)), resolve_threads(threads))
    hits = [part for part in parts if part.size]
    return np.sort(np.concatenate(hits)) if hits else np.empty(0, dtype=np.int64)
