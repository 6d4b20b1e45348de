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
# host, with one lane per depth and three seeds a word on the graded
# families (all below but subset(3)), serial against two workers (fastest
# and median of 11 alternating draw_scan calls, ms; work in M words, *
# where the bound forks two workers; the last of four series, and the
# fastest over all four where the two sides are close):
#   even(3) 32x32, depth 60, 25 seeds (0.52):   11.4/13.0 against 19.7/21.4
#                            50 seeds (1.29):   17.8/19.6 against 22.7/27.8
#                           100 seeds (2.83*):  33.4/47.2 against 33.5/38.0
#                             (fastest 33.4-36.1 against 27.4-35.5; the
#                             lower median with two workers in all four)
#   even(3) 32x32, 100 seeds, depth 400 (18.8*):  274/295 against 154/165
#   even(3) 16x16, 100 seeds, depth 250 (2.18): 71.1/99.4 against 90.7/98.8
#                             depth 310 (2.70*): 88.9/125 against 105/117
#                             (fastest 82.0-88.9 against 84.5-105)
#   subset(3) 24x24, 64 seeds, depth 250 (2.05): 95.8/134 against 106/119
#                              depth 330 (2.70*):  163/178 against 144/146
#   z2 ring of 64, 100 seeds, depth 1600 (-1.4): 91.1/95.7 against 92.8/99.3
#   z2 ring of 64, 200 seeds, depth 1200 (2.76*): 104/128 against 113/129
#                             (fastest 100-129 against 89-113)
# The cheaper graded sweep moved the break-even up, from 2.2-2.6 M to
# about 2.7-2.9 M words of work: even(3) 16x16 at depth 310 no longer gains, and
# the slab workload's 2.83 M still gains at the median.  It has not moved
# past 2.83 M, so the bound stays.
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
