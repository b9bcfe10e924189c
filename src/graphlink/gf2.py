"""Bit-packed linear algebra over GF(2).

A 0/1 matrix is a sequence of Python integers, one per row; bit ``j`` of
``rows[i]`` is the entry in row i, column j.  Rank is forward Gaussian
elimination with first-set-bit pivoting (there is no tie-breaking freedom
over GF(2)).

A principal submatrix is never copied out.  The rows of a vertex set s,
each masked to the columns of s (``rows[i] & s``), have the same rank as
the compacted submatrix on s, because masking only drops zero columns.  So
``corank([rows[i] & s for i in s])`` and ``subset_coranks(rows, n)[s]``
are the same number: the corank of the principal submatrix on s.  No
function modifies its arguments, and all may be called concurrently
without synchronization.

Only ``subset_coranks`` needs numpy, and it imports numpy when first
called, so a process that takes only per-state coranks never loads it.  It
is the only code that may start a thread pool, and it sizes the pool itself.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

#: Hard cap on matrix dimension.  Rows are arbitrary-precision Python ints,
#: so the cap is a sanity bound on input size, not a machine-word limit.
DIM_LIMIT = 64

#: Hard cap on n for the all-subsets sweep.  The sweep keeps one uint8
#: corank per state (256 MiB at n = 28) and its time doubles per vertex, and
#: the cap keeps the vectorized masks exact in uint32.
STATE_SUM_LIMIT = 28

#: The sweep eliminates 2**BLOCK_BITS subsets per vectorized block.
BLOCK_BITS = 18


def rank(rows: Iterable[int]) -> int:
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


def corank(rows: Sequence[int]) -> int:
    """len(rows) - rank(rows), the nullity of a square matrix given by its
    rows.  No rows (the 0x0 matrix) have corank 0."""
    return len(rows) - rank(rows)


def check_dim(n: int) -> None:
    """Refuse a matrix of dimension n > DIM_LIMIT."""
    if n > DIM_LIMIT:
        raise ResourceLimitError(f"matrix dimension {n} exceeds DIM_LIMIT={DIM_LIMIT}")


def check_state_sum(n: int) -> None:
    """Refuse a sum over 2**n states when n > STATE_SUM_LIMIT."""
    if n > STATE_SUM_LIMIT:
        raise ResourceLimitError(
            f"state sum over 2^{n} states exceeds STATE_SUM_LIMIT={STATE_SUM_LIMIT}"
        )


def subset_coranks(rows: Sequence[int], n: int) -> np.ndarray:
    """Coranks of all 2**n principal submatrices of a bit-packed matrix.

    Entry ``mask`` of the returned uint8 array is the corank of the
    submatrix induced by the bit set of ``mask``.  Every subset is
    eliminated from scratch (no incremental reuse across neighbouring
    subsets); subsets are merely processed in vectorized blocks of
    2**BLOCK_BITS.  The blocks are independent, so they are spread over one
    worker per block, up to the number of CPUs this process may run on; a
    single block or a single CPU runs inline, with no pool.  The result is
    the same for any worker count.

    Raises ResourceLimitError for n > STATE_SUM_LIMIT before allocating.
    """
    check_state_sum(n)
    import numpy as np

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
    workers = 1
    if len(spans) > 1:
        # numpy releases the GIL inside each array operation, so threads
        # overlap; the affinity mask, where the OS has one, honours taskset
        affinity = getattr(os, "sched_getaffinity", None)
        workers = min(len(spans), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda se: run_block(*se), spans))
    else:
        for s, e in spans:
            run_block(s, e)
    return out
