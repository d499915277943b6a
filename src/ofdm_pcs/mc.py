"""The Monte-Carlo engine: chunk-seeded draws on a thread pool, summed in order.

The pd, AIR and AF averages all run their chunks through :func:`map_chunks`,
each chunk drawing from its own child seed and returning its partial sums.
Thread invariance holds by construction: a worker only decides where a chunk
runs, never what it draws or in which order its result is added.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def map_chunks(fn, seed, total: int, chunk: int, threads: int):
    """The chunk-order sum ``fn(rng, count_0) + fn(rng, count_1) + ...`` over
    the chunks of ``total`` draws, run on up to ``threads`` workers: arrays
    add, lists join.

    Chunk k covers ``count = min(chunk, total - k chunk)`` draws, and its
    generator is seeded by child k of ``seed`` (an int or a SeedSequence),
    equal to a fresh ``SeedSequence(seed).spawn(n)[k]``.  The child is derived
    from the entropy and spawn key alone, so a SeedSequence passed in is not
    advanced and the same object gives the same draws every time.  The
    results are added with ``+`` in chunk order whatever ``threads`` is, and
    each is freed once it is added; at most ``threads`` chunks' draws are
    alive at once, whatever ``total`` is.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    chunks = range((total + chunk - 1) // chunk)

    def run(k: int):
        child = np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (k,), pool_size=root.pool_size
        )
        return fn(np.random.default_rng(child), min(chunk, total - k * chunk))

    # A lone worker is the calling thread, whose memory is already mapped.
    workers = min(threads, len(chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = pool.map(run, chunks) if workers > 1 else map(run, chunks)
        # No name holds a result, so each is dropped as soon as it is added,
        # and the first one starts the sum, so lists join as arrays add.
        summed = next(results)
        for _ in chunks[1:]:
            summed = summed + next(results)
        return summed
