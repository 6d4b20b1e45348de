"""Seed-parallel map over forked worker processes.

``parallel_seed_map`` splits a seed list into contiguous chunks and applies
a function to each chunk, one chunk per forked worker process, in order.
Every seed's randomness comes from its own hash, so the result does not
depend on how the seeds are chunked.  PERC_THREADS caps the worker count.
"""

from __future__ import annotations

import os

import numpy as np

# Hashed words per forked worker, at the least.  A pool of two workers
# starts in 13-16 ms on an idle 2-vCPU host (12-24 ms on a busy one).
# Measured there, serial against two workers: z2 triangles break even near
# 5 M sites (medians of 7; 2.0 M: 41 against 54 ms; 6.0 M: 91 against 79
# ms), and chains on the even(3) 32x32 torus, 50 seeds, with a sweep's tags
# finished in row blocks, near 4 M words (fastest/median of 7, two series;
# 3.9 M: 22-24/23-25 against 20-22/23-31 ms; 4.9 M: 26-27/28 against
# 22/24-26 ms; 7.8 M: 44-46/48-51 against 30-31/37-46 ms; 9.8 M: 55/56-61
# against 37-44/47-53 ms).  So two workers need about 6 M words, past both
# break-evens; the chains' fell from near 5 M words with per-class hashing.
FORK_MIN_WORDS = 3 << 20

# The sliced slab sweep (solver.sliced_sweep) has its own bound.  Its work
# is its hashed words less SLICED_CALL_WORDS per hashed layer: each worker
# still makes at least one call per layer, and the fixed cost of a call
# (60-80 us, about 4 K words) does not split.  On the z2 ring of 64, 32
# sites a class, the calls are most of the time.  Measured on the same
# host, serial against two workers (fastest and median of 11 alternating
# calls, ms; work in M words, * where the bound forks two workers):
#   even(3) 32x32, depth 60, 25 seeds (0.52):   12.6/16.4 against 12.5/16.3
#                            50 seeds (1.29):   22.5/25.2 against 22.2/22.5
#                           100 seeds (2.83*):  44.7/48.2 against 35.1/39.3
#   even(3) 32x32, 100 seeds, depth 400 (18.8*):  283/314 against 157/188
#   even(3) 64x64, 64 seeds, depth 200 (25.4*):   445/512 against 255/272
#   even(3) 16x16, 100 seeds, depth 250 (2.18): 50.8/51.1 against 50.7/51.1
#                             depth 310 (2.70*): 62.4/64.0 against 53.7/68.1
#                             (of 21 calls, twice: 59.1/74.3 against
#                             49.4/62.3, 69.2/78.6 against 56.0/69.1)
#   subset(3) 24x24, 64 seeds, depth 250 (2.05): 56.9/64.6 against 57.1/63.4
#                              depth 330 (2.70*): 95.8/104 against 74.8/83.4
#   z2 ring of 64, 100 seeds, depth 1600 (-1.4): 98.8/120 against 98.7/122
#   z2 ring of 64, 200 seeds, depth 1200 (2.77*): 109/140 against 97.1/119
# Up to 2.2 M words of work two workers gain nothing; above 2.6 M they
# gained at every config measured.
SLICED_FORK_MIN_WORDS = 5 << 18
SLICED_CALL_WORDS = 1 << 12


class WorkerCountError(ValueError):
    """PERC_THREADS is not an integer >= 1."""


def worker_count() -> int:
    """The number of worker processes PERC_THREADS asks for (default: the
    CPU count, at most 8); a value below 1 is refused."""
    env = os.environ.get("PERC_THREADS")
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        workers = int(env)
    except ValueError:
        raise WorkerCountError(f"PERC_THREADS must be an integer, got {env!r}") from None
    if workers < 1:
        raise WorkerCountError(f"PERC_THREADS must be >= 1, got {workers}")
    return workers


# (fn, chunks) of the running parallel_seed_map, set in each forked worker
_JOB = None


def _set_job(job) -> None:
    global _JOB
    _JOB = job


def _run_chunk(i: int):
    fn, chunks = _JOB
    return fn(chunks[i])


def parallel_seed_map(fn, seeds: np.ndarray, words: int, min_words: int = FORK_MIN_WORDS):
    """Apply fn to contiguous chunks of the seed list, in forked worker
    processes, preserving order.  ``words`` is the number of words the
    whole call hashes; at most one worker is forked per ``min_words`` of
    them, per CPU of this process's affinity mask and per seed, and below
    two workers fn runs here on the whole list.  The workers inherit fn and
    the chunks through the fork (the pool's initializer arguments are not
    pickled under fork), so fn may be a closure; only chunk indices and
    fn's results cross the pipes."""
    workers = max(1, min(worker_count(), len(os.sched_getaffinity(0)), seeds.size,
                         words // min_words))
    if workers == 1:
        return [fn(seeds)]
    chunks = np.array_split(seeds, workers)
    import multiprocessing

    # fork, not spawn: fn may be a closure, which cannot be pickled, and a
    # spawned worker would import numpy and percgame again.  The pool forks
    # its workers before it starts its handler threads, and percgame starts
    # no thread of its own.
    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_set_job, initargs=((fn, chunks),)) as pool:
        results = pool.map(_run_chunk, range(workers))
        pool.close()
        pool.join()
    return results
