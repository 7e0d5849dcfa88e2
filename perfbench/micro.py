"""Kernel microbenchmarks: ``gf2_rank`` and ``gfq_rank`` on seeded Toeplitz
matrices of size 8, 32 and 128.

Size 8 predicts the exhaustive scans (orders up to 8) and sizes 32 and
128 predict the sampled workload (orders 40 to 120).  Each size is timed
in ``REPEATS`` batches of ``calls`` calls and reported as the median
microseconds per call.  ``gfq_rank`` consumes its rows, so every call
gets its own copy, made before the batch's clock starts.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict

from toepnull.toeplitz import gf2_pack_rows, gf2_rank, gfq_rank, gfq_rows

SIZES = (8, 32, 128)
REPEATS = 5
DISTINCT = 8  # matrices per size, used in turn
# calls per batch, so that each batch takes tens of milliseconds
GF2_CALLS = {8: 8000, 32: 500, 128: 30}
GFQ_CALLS = {8: 500, 32: 20, 128: 1}


def _digits(rng: random.Random, q: int, size: int):
    return ([rng.randrange(q) for _ in range(size)],
            [rng.randrange(q) for _ in range(size - 1)])


def _per_call_us(rank, mats, calls: int, fresh) -> float:
    samples = []
    for rep in range(REPEATS):
        args = [fresh(mats[(rep * calls + i) % DISTINCT]) for i in range(calls)]
        start = time.perf_counter()
        for rows in args:
            rank(rows)
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def microbench(seed: int) -> Dict[str, float]:
    rng = random.Random(seed)
    out: Dict[str, float] = {}
    for size in SIZES:
        mats = [gf2_pack_rows(*_digits(rng, 2, size)) for _ in range(DISTINCT)]
        out[f"toeplitz.gf2_rank.us_n{size}"] = _per_call_us(
            gf2_rank, mats, GF2_CALLS[size], lambda rows: rows)
    for q in (3, 13):
        for size in SIZES:
            mats = [gfq_rows(*_digits(rng, q, size)) for _ in range(DISTINCT)]
            out[f"toeplitz.gfq_rank.q{q}.us_n{size}"] = _per_call_us(
                lambda rows, q=q: gfq_rank(rows, q), mats, GFQ_CALLS[size],
                lambda rows: [row[:] for row in rows])
    return out
