"""Bit-packed linear algebra over GF(2).

A square 0/1 matrix is stored as one Python integer per row; bit ``j`` of
``rows[i]`` is the entry in row i, column j.  Rank is forward Gaussian
elimination with first-set-bit pivoting (there is no tie-breaking freedom
over GF(2)).  All operations are pure functions on immutable values and may
be called concurrently without synchronization.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError

#: Hard cap on matrix dimension.  Rows are arbitrary-precision Python ints,
#: so the cap is a sanity bound on input size, not a machine-word limit.
DIM_LIMIT = 64

#: Hard cap on n for the all-subsets sweep.  The sweep keeps one uint8
#: corank per state (256 MiB at n = 28) and its time doubles per vertex, and
#: the cap keeps the vectorized masks exact in uint32.
STATE_SUM_LIMIT = 28

#: The sweep eliminates 2**BLOCK_BITS subsets per vectorized block.
BLOCK_BITS = 18


@dataclass(frozen=True)
class BitMatrix:
    """Square matrix over GF(2) with bit-packed rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        if self.n > DIM_LIMIT:
            raise ResourceLimitError(
                f"matrix dimension {self.n} exceeds DIM_LIMIT={DIM_LIMIT}"
            )
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        width = (1 << self.n) - 1
        for r in self.rows:
            if r < 0 or r & ~width:
                raise ValueError("row has bits set outside the matrix width")

    @classmethod
    def zero(cls, n: int) -> "BitMatrix":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_dense(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        n = len(entries)
        rows = []
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            packed = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                packed |= v << j
            rows.append(packed)
        return cls(n, tuple(rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_dense(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def is_symmetric(self) -> bool:
        return all(
            self.entry(i, j) == self.entry(j, i)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )


def rank_of_rows(rows: Iterable[int]) -> int:
    """GF(2) row rank of bit-packed rows."""
    pivots: dict[int, int] = {}
    count = 0
    for r in rows:
        while r:
            b = r.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = r
                count += 1
                break
            r ^= p
    return count


def rank(m: BitMatrix) -> int:
    """GF(2) row rank of ``m``."""
    return rank_of_rows(m.rows)


def corank(m: BitMatrix) -> int:
    """n - rank(m).  The empty 0x0 matrix has corank 0."""
    return m.n - rank(m)


def principal_submatrix(m: BitMatrix, subset: Iterable[int]) -> BitMatrix:
    """Submatrix with rows and columns restricted to ``subset``, order kept."""
    idx = sorted(set(subset))
    if idx and (idx[0] < 0 or idx[-1] >= m.n):
        raise IndexError(f"subset index out of range for dimension {m.n}")
    rows = []
    for i in idx:
        src = m.rows[i]
        packed = 0
        for a, j in enumerate(idx):
            packed |= ((src >> j) & 1) << a
        rows.append(packed)
    return BitMatrix(len(idx), tuple(rows))


def add_identity(m: BitMatrix) -> BitMatrix:
    """XOR 1 into every diagonal entry (returns a new matrix)."""
    return BitMatrix(m.n, tuple(r ^ (1 << i) for i, r in enumerate(m.rows)))


def flip_diagonal(m: BitMatrix, i: int) -> BitMatrix:
    """XOR 1 into the i-th diagonal entry (returns a new matrix)."""
    if not 0 <= i < m.n:
        raise IndexError(f"diagonal index {i} out of range for dimension {m.n}")
    rows = list(m.rows)
    rows[i] ^= 1 << i
    return BitMatrix(m.n, tuple(rows))


def subset_coranks(rows: Sequence[int], n: int, threads: int = 1) -> np.ndarray:
    """Coranks of all 2**n principal submatrices of a bit-packed matrix.

    Entry ``mask`` of the returned uint8 array is the corank of the
    submatrix induced by the bit set of ``mask``.  Every subset is
    eliminated from scratch (no incremental reuse across neighbouring
    subsets); subsets are merely processed in vectorized blocks of
    2**BLOCK_BITS, and blocks may run on a small thread pool.  The result
    is independent of ``threads``.

    Raises ResourceLimitError for n > STATE_SUM_LIMIT before allocating.
    """
    if n > STATE_SUM_LIMIT:
        raise ResourceLimitError(
            f"state sum over 2^{n} states exceeds STATE_SUM_LIMIT={STATE_SUM_LIMIT}"
        )
    total = 1 << n
    row_vals = np.asarray(list(rows), dtype=np.uint32)
    out = np.empty(total, dtype=np.uint8)

    def run_block(start: int, stop: int) -> None:
        masks = np.arange(start, stop, dtype=np.uint32)
        size = stop - start
        basis = np.zeros((n, size), dtype=np.uint32)
        rk = np.zeros(size, dtype=np.uint8)
        for i in range(n):
            r = np.where((masks >> i) & 1, row_vals[i] & masks, 0)
            for b in range(n - 1, -1, -1):
                has = ((r >> b) & 1).astype(bool)
                if not has.any():
                    continue
                eb = basis[b]
                exists = eb != 0
                np.bitwise_xor(r, eb, out=r, where=has & exists)
                new = has & ~exists
                if new.any():
                    eb[new] = r[new]
                    rk[new] += 1
                    r[new] = 0
        out[start:stop] = np.bitwise_count(masks).astype(np.uint8) - rk

    block = 1 << min(BLOCK_BITS, n)
    spans = [(s, min(s + block, total)) for s in range(0, total, block)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda se: run_block(*se), spans))
    else:
        for s, e in spans:
            run_block(s, e)
    return out
