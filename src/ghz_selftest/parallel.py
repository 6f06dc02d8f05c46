"""Worker-count policy for the see-saw's blocks of restarts.

The see-saw advances the restarts of a block in lockstep as stacked arrays
and maps the blocks over the workers. ``GHZ_SELFTEST_THREADS`` caps
parallelism: unset or ``1`` means serial, ``0`` means one worker per CPU,
and a negative or non-integer value is an input error.
Results never depend on the schedule; all reductions are deterministic.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidInput


def worker_count(requested: int | None = None) -> int:
    if requested is None:
        raw = os.environ.get("GHZ_SELFTEST_THREADS", "1")
        try:
            requested = int(raw)
            if requested < 0:
                raise ValueError
        except ValueError:
            raise InvalidInput(f"GHZ_SELFTEST_THREADS must be an integer >= 0, got {raw!r}")
    if requested == 0:
        return os.cpu_count() or 1
    return max(1, requested)


def ordered_map(fn, items, workers: int | None = None) -> list:
    """Map preserving input order, threaded when more than one worker."""
    count = worker_count(workers)
    items = list(items)
    if count <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, items))
