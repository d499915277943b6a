"""The Monte-Carlo engine: an ordered thread map and chunk-seeded draws.

The pd and AIR averages run their chunks through :func:`map_chunks`, each
chunk drawing from its own child seed.  The AF average runs its workers
through :func:`map_ordered` alone: it draws its symbols in pieces, in
sequence from one generator, and its workers split the delay rows.  Either
way thread invariance holds by construction: a worker only decides where a
chunk or a row runs, never what it draws or in which order its result is
combined.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def map_ordered(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, run on up to ``threads`` workers, in item order."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    items = list(items)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def map_chunks(fn, seed, total: int, chunk: int, threads: int) -> list:
    """``fn(rng, count)`` for each chunk of ``total`` draws, results in chunk order.

    Chunk k covers ``count = min(chunk, total - k chunk)`` draws, and its
    generator is seeded by child k of ``seed`` (an int or a SeedSequence),
    equal to a fresh ``SeedSequence(seed).spawn(n)[k]``.  The child is derived
    from the entropy and spawn key alone, so a SeedSequence passed in is not
    advanced and the same object gives the same draws every time.  At most
    ``threads`` chunks' draws are alive at once, whatever ``total`` is.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    def run(k: int):
        child = np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (k,), pool_size=root.pool_size
        )
        return fn(np.random.default_rng(child), min(chunk, total - k * chunk))

    return map_ordered(run, range((total + chunk - 1) // chunk), threads)
