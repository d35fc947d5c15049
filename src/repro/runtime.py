"""The program's cyclic-garbage-collector policy, in one place.

CPython's cyclic collector exists to free reference cycles. The bulk
builds — parsing a quarter, cleaning it, mining it, snapshotting and
persisting the result, folding a stream batch and checkpointing it —
allocate hundreds of thousands of tuples, frozensets, dicts and
records and create no cycles (``tests/test_runtime.py`` runs each under
``gc.DEBUG_SAVEALL`` and asserts it leaves no cyclic garbage). Yet
every few thousand allocations the collector walks the young objects,
and every so often the whole heap, finding nothing to free: about a
fifth of a batch job's time. :func:`collector_paused` switches it off
for such a build; reference counting still frees everything the build
drops.

The forked serving tier needs the opposite: :func:`frozen_heap` moves
the parent's heap out of the collector's reach before forking workers.
"""

from __future__ import annotations

import gc
import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager

_lock = threading.Lock()
#: Pauses open in this process, across threads, and whether the first
#: of them found the collector on. Guarded by ``_lock``.
_depth = 0
_restore = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off.

    Usable as a decorator (``@collector_paused()``) and re-entrant: the
    collector stays off until the last open pause, in any thread, ends,
    and is turned back on only if the first one found it on, so a caller
    that disabled the collector itself keeps it disabled. Never wrap a
    generator: while it is suspended the collector would stay off in
    its consumer's code.
    """
    global _depth, _restore
    with _lock:
        if not _depth:
            _restore = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if not _depth and _restore:
                gc.enable()


def _after_fork_in_child() -> None:
    # A child forked during a pause (a mining pool worker) outlives the
    # block that paused: it starts with the collector on.
    _lock.release()
    if _depth and _restore:
        gc.enable()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_lock.acquire,
        after_in_parent=_lock.release,
        after_in_child=_after_fork_in_child,
    )


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Fork workers inside this block with the parent's heap frozen.

    ``gc.freeze`` moves every live object to the permanent generation,
    so a forked worker's collections never walk the heap it inherited
    (its first full collection otherwise stalled requests ~150 ms) and
    never write to those copy-on-write pages. The parent unfreezes
    after forking, so its own later garbage stays collectable.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
