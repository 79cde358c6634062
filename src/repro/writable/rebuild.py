"""Rebuilds of a served index: the derived factory and the daemon.

A served index changes in one place,
:meth:`~repro.serve.server.IndexServer.rebuild`: snapshot the live keys,
build ``factory(keys)``, publish -- through
:meth:`~repro.writable.index.WritableIndex.finish_rebuild` for a
writable index, so writes racing the build survive -- and hot-swap
through ``swap_index``.  The snapshot and a build with a stepwise form
(:func:`build_steps`) run on the event-loop thread in bounded steps
that writes pay for; a build without one runs in a worker thread.
This module holds:

* :class:`IndexFactory` -- what a rebuild given no factory builds: the
  type and whole configuration of the index it replaces, restored from
  the artifact cache when one is active;
* :func:`build_steps` -- the stepwise form of a factory, if it has one;
* :class:`RebuildDaemon` -- rebuilds a served ``WritableIndex`` once its
  delta is large enough: the delta answers correctly at any size, but
  dirty lookups pay the merge arithmetic and bypass the base's compiled
  kernels, and the RMI's grouped closed-form fits (44x at 1M keys) make
  continuous rebuilding affordable;
* :class:`WritableFactory` -- the factory of writable cluster shards.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import logging
from typing import Any, Callable

import numpy as np

__all__ = ["IndexFactory", "RebuildDaemon", "WritableFactory",
           "build_steps"]

log = logging.getLogger("repro.writable")


class IndexFactory:
    """Picklable ``factory(keys)``: one index type in one configuration.

    ``IndexFactory.of(index)`` is what a rebuild given no factory
    builds: the index's type with its whole configuration (an
    ``RMIAsIndex`` carries its ``RMIConfig``), so a rebuild changes the
    keys, never the configuration.  With an active artifact cache the
    SHA-256 of the key bytes, the class and the configuration address
    the build, so a rebuild over keys already built in that
    configuration is a snapshot restore.
    """

    def __init__(self, cls: type, config: Any = None) -> None:
        self.cls = cls
        self.config = config

    @classmethod
    def of(cls, index: Any) -> "IndexFactory":
        return cls(type(index), getattr(index, "config", None))

    def _build(self, keys: np.ndarray) -> Any:
        if self.config is None:
            return self.cls(keys)
        return self.cls(keys, config=self.config)

    def __call__(self, keys: np.ndarray) -> Any:
        from .. import cache as artifact_cache
        from ..cache.fingerprint import canonicalize, index_fingerprint

        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if artifact_cache.active_cache() is None:
            return self._build(keys)
        try:
            config = canonicalize(self.config)
        except TypeError:
            return self._build(keys)  # no canonical name: not cacheable
        fp = index_fingerprint(hashlib.sha256(keys.tobytes()).hexdigest(),
                               self.cls.__name__,
                               {"rebuild": "writable", "config": config})
        return artifact_cache.restore_or_build(fp, self.cls, keys,
                                               self._build)

    def steps(self, keys: np.ndarray):
        """``self(keys)`` in bounded steps (the class's ``build_steps``),
        or ``None``: the class has no stepwise build for this
        configuration, or an active artifact cache addresses the build
        by a hash of every key."""
        from .. import cache as artifact_cache

        build = getattr(self.cls, "build_steps", None)
        if build is None or artifact_cache.active_cache() is not None:
            return None
        if self.config is None:
            return build(keys)
        return build(keys, config=self.config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexFactory({self.cls.__name__}, {self.config!r})"


def build_steps(factory: Any, keys: np.ndarray):
    """The stepwise form of ``factory(keys)``, or ``None``.

    A stepwise form is a generator whose every ``next()`` runs one
    bounded step and which returns the built index (for the RMI,
    :meth:`~repro.core.rmi.RMI.build_steps`).  It is found on an
    :class:`IndexFactory` (:meth:`IndexFactory.steps`), on an index
    class with a ``build_steps`` classmethod, and on a
    ``functools.partial`` of one that binds keywords only.  Any other
    factory -- the Python PLA builds, ALEX, ART, the tuner's probed
    factory -- has none, and neither has any build on a backend without
    build kernels (NumPy).
    """
    if isinstance(factory, IndexFactory):
        return factory.steps(keys)
    cls, kwargs = factory, {}
    if isinstance(factory, functools.partial) and not factory.args:
        cls, kwargs = factory.func, factory.keywords
    build = getattr(cls, "build_steps", None) \
        if isinstance(cls, type) else None
    return None if build is None else build(keys, **kwargs)


class WritableFactory:
    """Picklable ``factory(keys)`` building a writable shard index.

    Cluster worker specs cross a process boundary, so a closure cannot
    carry the wrap-in-``WritableIndex`` step; this class can.  Pass as
    ``Cluster(index_factory=WritableFactory("rmi"))`` to make every
    shard accept ``write`` messages; a shard rebuild then folds the
    delta into a new base (``router.swap_shard(i, "@rebuild")``).
    """

    def __init__(self, index_type: str = "binary-search") -> None:
        from ..baselines import INDEX_TYPES

        if index_type not in INDEX_TYPES:
            raise KeyError(f"unknown index type {index_type!r}")
        self.index_type = index_type

    def __call__(self, keys: np.ndarray) -> Any:
        from ..baselines import INDEX_TYPES
        from .index import WritableIndex

        return WritableIndex(INDEX_TYPES[self.index_type](keys))


class RebuildDaemon:
    """Periodic background rebuild of one served ``WritableIndex``.

    Every ``interval_s`` the daemon checks the delta; once it holds at
    least ``min_delta`` entries it runs the server's
    :meth:`~repro.serve.server.IndexServer.rebuild` with no factory, so
    each cycle keeps what the index was last built with (a tuner's
    choice included); ``factory`` only seeds it.  ``rebuild_now``
    forces one cycle -- drains and tests use it.
    """

    def __init__(
        self,
        windex: Any,
        *,
        server: Any,
        interval_s: float = 0.05,
        min_delta: int = 1,
        factory: "Callable[[np.ndarray], Any] | None" = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if min_delta < 1:
            raise ValueError("min_delta must be >= 1")
        if factory is not None:
            server.factory = factory
        self.windex = windex
        self.server = server
        self.interval_s = float(interval_s)
        self.min_delta = int(min_delta)
        self.rebuilds = 0
        self.skipped = 0
        self._task: "asyncio.Task | None" = None

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    async def start(self) -> "RebuildDaemon":
        if self.running:
            raise RuntimeError("rebuild daemon is already running")
        self._task = asyncio.create_task(self._loop(),
                                         name="repro-writable-rebuild")
        return self

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def __aenter__(self) -> "RebuildDaemon":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(self.interval_s)
            try:
                await self.rebuild_now()
            except asyncio.CancelledError:
                raise
            except Exception:
                log.exception("background rebuild failed; will retry")

    async def rebuild_now(self, *, force: bool = False) -> bool:
        """One rebuild cycle; returns whether a swap was published.

        ``force=True`` ignores the ``min_delta`` trigger (any non-empty
        delta rebuilds) -- the drain path of benchmarks and tests that
        want a fully compacted final state regardless of batch sizing.
        """
        if self.windex.delta_len < (1 if force else self.min_delta):
            return False
        if await self.server.rebuild() is None:
            self.skipped += 1
            return False  # everything deleted: nothing to build over
        self.rebuilds += 1
        log.debug("rebuild %d: delta now %d", self.rebuilds,
                  self.windex.delta_len)
        return True
