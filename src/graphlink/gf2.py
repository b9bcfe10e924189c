"""Bit-packed linear algebra over GF(2).

A 0/1 matrix is a sequence of Python integers, one per row; bit ``j`` of
``rows[i]`` is the entry in row i, column j.  Rank is forward Gaussian
elimination with first-set-bit pivoting (there is no tie-breaking freedom
over GF(2)), and ``inverse`` is one Gauss-Jordan pass.

A principal submatrix is never copied out.  The rows of a vertex set s,
each masked to the columns of s (``rows[i] & s``), have the same rank as
the compacted submatrix on s, because masking only drops zero columns.  So
``corank([rows[i] & s for i in s])`` is the corank of the principal
submatrix on s, and ``subset_coranks`` counts those coranks over all
subsets at once, by a depth-first pivot tree in pure Python.  No function
modifies its arguments or starts a thread.
"""

from __future__ import annotations

# kept only for bench/run.py's pool pass, which patches it (ROADMAP item 1(e))
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from typing import Iterable, Sequence

from .errors import ResourceLimitError

#: Hard cap on matrix dimension.  Rows are arbitrary-precision Python ints,
#: so the cap is a sanity bound on input size, not a machine-word limit.
DIM_LIMIT = 64

#: Hard cap on n for the all-subsets sum.  It bounds time only, which
#: doubles per vertex: the sum holds one path of its pivot tree, no array.
STATE_SUM_LIMIT = 28


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


def inverse(rows: Sequence[int]) -> list[int] | None:
    """Rows of the inverse of a square matrix, or None if it is singular:
    one Gauss-Jordan pass on the rows with the identity in bits n and up."""
    n = len(rows)
    aug = [r | 1 << (n + i) for i, r in enumerate(rows)]
    for c in range(n):
        bit = 1 << c
        for p in range(c, n):
            if aug[p] & bit:
                break
        else:
            return None
        pivot = aug[p]
        aug[p] = aug[c]
        aug = [r ^ pivot if r & bit else r for r in aug]
        aug[c] = pivot
    return [r >> n for r in aug]


def subset_coranks(rows: Sequence[int], n: int, flip: int) -> dict[tuple[int, int], int]:
    """Count of the 2**n vertex subsets s by the pair (popcount(s ^ flip),
    corank of the principal submatrix on s), for a symmetric matrix.

    A depth-first tree decides the vertices in order and carries the Schur
    complement on the live vertices: the undecided ones and the *pending*
    ones, included but not pivoted.  The block among pending vertices stays
    zero, so a leaf's corank is their number.  An included vertex v is a 1x1
    pivot if its diagonal bit is 1; that adds r r^T to the pending block (r
    is v's row on it), so a nonzero r is settled by a second 1x1 pivot on
    its lowest vertex.  With diagonal 0, v is a 2x2 pivot with a pending
    vertex it touches, or else pending itself.  A pivot copies the rows;
    the last vertex is decided inline, so its two leaves copy nothing.
    Raises ResourceLimitError for n > STATE_SUM_LIMIT before any work.
    """
    check_state_sum(n)
    if n == 0:
        return {(0, 0): 1}
    # a leaf tallies at key = alpha * width + corank; deciding v moves the
    # key by skip[v] (excluded) or take[v] (included), and +-1 per pending
    width = n + 1
    counts = [0] * (width * width)
    skip = [(flip >> v & 1) * width for v in range(n)]
    take = [width - s for s in skip]
    last = n - 1
    last_bit, last_skip, last_take = 1 << last, skip[last], take[last]

    def descend(v: int, rows: list[int], live: int, pending: int, key: int) -> None:
        # bits outside `live` (excluded or pivoted vertices) are never read
        while v < last:
            bit = 1 << v
            r = rows[v]
            in_key = key + take[v]
            touched = r & pending
            if r & bit:
                new = rows[:]
                rest = live ^ bit
                t = r & rest
                while t:
                    low = t & -t
                    new[low.bit_length() - 1] ^= r
                    t ^= low
                if touched:  # settle: pivot on the lowest pending vertex hit
                    low = touched & -touched
                    rp = new[low.bit_length() - 1]
                    rest ^= low
                    t = rp & rest
                    while t:
                        lo = t & -t
                        new[lo.bit_length() - 1] ^= rp
                        t ^= lo
                    descend(v + 1, new, rest, pending ^ low, in_key - 1)
                else:
                    descend(v + 1, new, rest, pending, in_key)
            elif touched:  # 2x2 pivot with the lowest pending vertex u hit
                low = touched & -touched
                ru = rows[low.bit_length() - 1]
                new = rows[:]
                rest = live ^ bit ^ low
                t = ru & rest
                while t:
                    lo = t & -t
                    new[lo.bit_length() - 1] ^= r
                    t ^= lo
                t = r & rest
                while t:
                    lo = t & -t
                    new[lo.bit_length() - 1] ^= ru
                    t ^= lo
                descend(v + 1, new, rest, pending ^ low, in_key - 1)
            else:
                descend(v + 1, rows, live, pending | bit, in_key + 1)
            live ^= bit  # and on down the excluded branch
            key += skip[v]
            v += 1
        counts[key + last_skip] += 1
        r = rows[last]
        key += last_take
        if r & pending:  # settled or paired: one pending vertex fewer
            counts[key - 1] += 1
        elif r & last_bit:
            counts[key] += 1
        else:
            counts[key + 1] += 1

    descend(0, list(rows), (1 << n) - 1, 0, 0)
    return {divmod(key, width): c for key, c in enumerate(counts) if c}
