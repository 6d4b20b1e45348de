"""Seed-parallel map over forked worker processes.

``parallel_seed_map`` splits a seed list into contiguous chunks and applies
a function to each chunk, in order: the first chunk in the calling process
and each other chunk in a child forked for it, which sends its pickled
result back down a pipe of its own.  Every seed's randomness comes from its
own hash, so the result does not depend on how the seeds are chunked.
PERC_THREADS caps the worker count.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np

# Hashed words per worker, at the least.  An empty map on the caller and
# one child costs 3-4 ms on a 2-vCPU host, on the caller and two children
# 4.5-6.6 ms (fastest and median of 15, in a process holding 32 MB; an
# empty two-worker multiprocessing pool took 10-14 ms).  Measured there,
# serial against two workers (the caller and one child; fastest/median of
# 11, then of 15, alternating calls, ms, two series), chains on the even(3)
# 32x32 torus, 50 seeds, and z2 triangles at p = 0.2 and 0.5, in M words:
#   chains 1.02:  7.8/8.9, 10.5/11.5 against 11.4/11.9, 12.2/13.0
#          1.54: 11.9/16.3, 15.5/16.0 against 14.8/15.5, 15.4/16.4
#          2.05: 14.4/18.5, 19.6/20.6 against 15.5/18.0, 15.7/19.0
#          2.56: 17.3/26.1, 24.1/25.4 against 16.6/20.9, 18.9/22.1
#          4.10: 26.9/36.8, 38.4/40.4 against 25.7/27.1, 27.1/31.8
#   triangles, 30 seeds, 0.94: 21.1/22.2, 15.5/21.9 against 19.3/21.7, 18.8/25.4
#             100 seeds, 1.13: 14.2/15.5 against 15.1/20.6
#              30 seeds, 1.84: 22.7/26.4, 27.9/38.2 against 22.7/32.3, 30.1/33.6
#             100 seeds, 2.01: 38.1/40.4 against 26.8/29.4
#              30 seeds, 3.04: 40.0/56.3 against 33.2/44.5
# Both break even near 1.5-2 M words and gain from 2 M, so two workers
# need 2 M words.  The sliced sweep gains from half that (below), so its
# bound is its own.
FORK_MIN_WORDS = 1 << 20

# The sliced slab sweep (solver.sliced_sweep) has its own bound.  Its work
# is its hashed words less SLICED_CALL_WORDS per hashed layer: each worker
# still makes at least one call per layer, and the fixed cost of a call
# does not split.  Serially the call costs 42-55 us at 7-10 ns a word,
# 4-7 K words, on the z2 rings of 64 and 256 and on even(3) 8x8 and 16x16
# (a line fitted to 4-400 seeds).  On the z2 ring of 64, 32 sites a class,
# the calls are most of the time.  Measured on the same host at p = 0.05
# and the last 21 profile depths, serial against two workers as above (work
# in M words; * where the bound forks two workers):
#   even(3) 32x32, depth 60, 25 seeds (0.40):  17.3/17.7 against 17.5/18.6
#                            40 seeds (0.86):  22.4/24.8 against 20.0/22.1
#                            50 seeds (1.17*): 25.5/26.6, 28.2/31.2 against
#                                              21.6/25.2, 23.0/25.4
#                           100 seeds (2.70*): 49.8/52.3 against 31.2/34.5
#   even(3) 16x16, 100 seeds, depth 120 (0.80): 30.2/31.1, 19.2/32.9 against
#                                                29.7/34.2, 23.9/30.9
#                             depth 180 (1.20*): 43.7/45.6, 30.2/44.0 against
#                                                39.9/44.0, 32.3/39.0
#                             depth 250 (1.66*): 62.3/63.9 against 47.2/55.4
#   subset(3) 24x24, 64 seeds, depth 150 (0.92): 44.9/61.6, 56.1/59.3 against
#                                                46.1/47.8, 41.8/47.5
#                              depth 250 (1.54*): 69.7/100, 97.1/99.8 against
#                                                 77.0/83.8, 73.2/82.0
#   z2 ring of 64, 200 seeds, depth 800 (0.20): 76.3/93.4, 110/114 against
#                                               60.8/96.6, 110/115
#                             depth 1200 (0.31): 105/138, 109/166 against
#                                                109/144, 144/166
#                  400 seeds, depth 400 (2.66*): 59.9/83.7 against 67.1/74.7
#                             depth 800 (5.32*): 112/156, 129/161 against
#                                                117/124, 129/135
#                  800 seeds, depth 400 (7.78*): 127/132 against 88.4/92.9
#   even(3) 32x32, 100 seeds, depth 400 (18.0*): 237/285 against 168/183
# Where two workers won by both counts in every series, the bound forks,
# but for even(3) 32x32 at 40 seeds (one series); where they lost (even(3)
# 32x32 at 25 seeds, the z2 ring at 200 seeds and depth 1200) it does not;
# the mixed rows split.  A call of 4 K words cannot part that z2 ring (2.76
# M words of work at 4 K) from even(3) 32x32 at 50 seeds (1.29 M).
SLICED_FORK_MIN_WORDS = 1 << 19
SLICED_CALL_WORDS = 3 << 11


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


def parallel_seed_map(fn, seeds: np.ndarray, words: int, min_words: int = FORK_MIN_WORDS):
    """Apply fn to contiguous chunks of the seed list, one chunk per process,
    preserving order.  ``words`` is the number of words the whole call
    hashes; at most one worker is forked per ``min_words`` of them, per CPU
    of this process's affinity mask and per seed, and below two workers fn
    runs here on the whole list.  Otherwise each chunk after the first runs
    in a forked child and the first runs here (``_fork_map``).  The children
    inherit fn and the chunks through the fork, so fn may be a closure; only
    fn's results cross the pipes."""
    workers = max(1, min(worker_count(), len(os.sched_getaffinity(0)), seeds.size,
                         words // min_words))
    if workers == 1:
        return [fn(seeds)]
    return _fork_map(fn, np.array_split(seeds, workers))


def _fork_map(fn, chunks: list) -> list:
    """[fn(chunk) for chunk in chunks], with each chunk after the first in a
    forked child of its own and the first in this process.  Each child
    pickles its result or exception down its own pipe; this process reads
    the pipes to EOF in chunk order and reaps each child.  An exception of
    fn's reaches the caller, from a child with the child's traceback as its
    cause; a child that ends without a result (killed, or exited early)
    raises ChildProcessError.  Whatever raises, no child outlives the call:
    those still running are killed and reaped.

    fork, not spawn: fn may be a closure, which cannot be pickled, and a
    spawned worker would import numpy and percgame again.  percgame starts
    no thread, so the children inherit no lock held by another thread."""
    pids, reads, reaped = [], [], 0
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, chunk, w)
            finally:
                os.close(w)  # so that the read sees EOF once the child exits
            pids.append(pid)
        results = [fn(chunks[0])]
        for chunk, pid, r in zip(chunks[1:], pids, reads):
            with open(r, "rb", closefd=False) as pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            if status:  # a child exits 0 once its whole reply is written
                raise ChildProcessError(
                    f"the worker for the chunk from seed {chunk[0]} ended without a result "
                    f"(wait status {status}, exit code {os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(reply)
            if not ok:
                exc, trace = value
                raise exc from ChildProcessError(
                    f"in the worker for the chunk from seed {chunk[0]}:\n{trace}")
            results.append(value)
        return results
    finally:
        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in reads:
            os.close(r)


def _child(fn, chunk, w: int):
    """Run fn on chunk in a forked child, write (True, result) or (False,
    (exception, traceback)), pickled, to the pipe's write end w, and leave
    through os._exit, so that no atexit handler runs and no stdio buffer
    inherited from the parent is flushed a second time.  It exits 0 only
    once the whole reply is written; a reply that cannot be pickled exits
    1."""
    status = 1
    try:
        try:
            reply = (True, fn(chunk))
        except BaseException as exc:  # re-raised in the parent
            import traceback  # here, so that it adds nothing to the caller's memory

            reply = (False, (exc, traceback.format_exc()))
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)
