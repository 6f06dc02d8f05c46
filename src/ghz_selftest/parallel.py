"""The see-saw's map over its blocks of restarts.

The blocks run one after another in the calling thread; BLAS threads inside
the half-steps are the only parallelism. The map stays a named function so
that a tracer can count the blocks and their restarts.
"""


def worker_count(requested: int | None = None) -> int:
    """Workers that run a map: always one."""
    return 1


def ordered_map(fn, items) -> list:
    """``[fn(it) for it in items]``, in input order; ``items`` may be any
    iterable, read one item at a time."""
    return [fn(it) for it in items]
