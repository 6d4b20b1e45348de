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
# Measured there, serial against two workers (medians of 7): chains on the
# even(3) 32x32 torus, 50 seeds, break even near 5 M words (4.1 M: 42 ms
# against 79 ms; 5.1 M: 54 against 51 ms; 10.2 M: 104 against 83 ms), and
# z2 triangles near 5 M sites (2.0 M: 41 against 54 ms; 6.0 M: 91 against
# 79 ms).  So two workers need about 6 M words.
FORK_MIN_WORDS = 3 << 20


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


def parallel_seed_map(fn, seeds: np.ndarray, words: int):
    """Apply fn to contiguous chunks of the seed list, in forked worker
    processes, preserving order.  ``words`` is the number of words the
    whole call hashes; at most one worker is forked per FORK_MIN_WORDS of
    them, per CPU of this process's affinity mask and per seed, and below
    two workers fn runs here on the whole list.  The workers inherit fn and
    the chunks through the fork (the pool's initializer arguments are not
    pickled under fork), so fn may be a closure; only chunk indices and
    fn's results cross the pipes."""
    workers = max(1, min(worker_count(), len(os.sched_getaffinity(0)), seeds.size,
                         words // FORK_MIN_WORDS))
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
