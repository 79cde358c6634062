"""Content-addressed artifact cache for the evaluation pipeline.

The paper's experimental apparatus regenerates the same inputs over and
over: every figure driver used to call ``sosd.generate`` for its
datasets and retrain every RMI / rebuild every baseline from scratch.
Following SOSD (arXiv:1911.13014) and *Benchmarking Learned Indexes*
(arXiv:2006.12804), this package makes reusable artifacts the backbone
of the pipeline.  Three artifact kinds are cached, each addressed by a
content fingerprint (:mod:`repro.cache.fingerprint`):

* **datasets** -- fingerprinted by ``(name, n, seed,
  generator-version)``, persisted once as ``.npy`` and loaded back with
  ``mmap_mode="r"`` so suite workers share pages instead of copies;
* **indexes** -- trained RMIs and baseline indexes, stored through
  their ``snapshot_state``/``restore_state`` hooks (the
  :class:`~repro.baselines.interfaces.OrderedIndex` pair, which
  :class:`~repro.core.rmi.RMI` has too), fingerprinted by
  ``(dataset-hash, config)`` and restored instead of rebuilt;
* **results** -- whole figure results, fingerprinted by the driver id
  and its bound arguments, so a warm suite run serves bit-identical
  rows without recomputing workloads.

Two layers sit in front of the disk store:

1. an **in-process LRU** per artifact kind, so a single suite run
   generates each dataset (and shared index) exactly once even with the
   disk cache disabled -- this fixes the intra-run waste where every
   figure called ``_datasets()`` independently;
2. the **disk store** (:class:`~repro.cache.store.ArtifactCache`),
   active only when a cache directory has been configured via
   :func:`activate`, the ``--cache-dir`` CLI flag, or the
   ``REPRO_CACHE_DIR`` environment variable.

All generators and builders are deterministic, so cached artifacts are
bit-identical to freshly built ones; the store verifies checksums and
fingerprints on every load and rebuilds on any mismatch.
"""

from __future__ import annotations

import json
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .fingerprint import (
    CACHE_FORMAT_VERSION,
    DATASET_GENERATOR_VERSION,
    SNAPSHOT_VERSION,
    dataset_fingerprint,
    figure_fingerprint,
    fingerprint_digest,
    index_fingerprint,
)
from .store import ARTIFACT_KINDS, ArtifactCache

__all__ = [
    "ArtifactCache",
    "ARTIFACT_KINDS",
    "CACHE_FORMAT_VERSION",
    "DATASET_GENERATOR_VERSION",
    "SNAPSHOT_VERSION",
    "activate",
    "deactivate",
    "active_cache",
    "clear_memos",
    "dataset",
    "rmi_for",
    "index_for",
    "restore_or_build",
    "figure_result",
]

#: The process-wide active disk cache (None = in-process memos only).
_ACTIVE: ArtifactCache | None = None
_ENV_VAR = "REPRO_CACHE_DIR"

#: In-process LRUs.  Sized so a full default-scale suite run fits the
#: hot set (4 datasets, the per-figure RMI sweeps, one fig12 sweep)
#: without letting long sessions accumulate unboundedly.
_DATASET_MEMO_MAX = 16
_RMI_MEMO_MAX = 192
_INDEX_MEMO_MAX = 64

_dataset_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_rmi_memo: "OrderedDict[tuple, Any]" = OrderedDict()
_index_memo: "OrderedDict[tuple, Any]" = OrderedDict()


def activate(root: "str | os.PathLike") -> ArtifactCache:
    """Activate a disk cache rooted at ``root`` for this process.

    Re-activating the same directory keeps the existing instance (and
    its hit/miss counters); a different directory replaces it.
    """
    global _ACTIVE
    resolved = Path(root).resolve()
    if _ACTIVE is None or _ACTIVE.root.resolve() != resolved:
        _ACTIVE = ArtifactCache(resolved)
    return _ACTIVE


def deactivate() -> None:
    """Drop the active disk cache (in-process memos are untouched)."""
    global _ACTIVE
    _ACTIVE = None


def active_cache() -> ArtifactCache | None:
    """The active disk cache, auto-activating from ``REPRO_CACHE_DIR``."""
    if _ACTIVE is None and os.environ.get(_ENV_VAR):
        activate(os.environ[_ENV_VAR])
    return _ACTIVE


def clear_memos() -> None:
    """Empty every in-process LRU (cold-run hygiene for benchmarks)."""
    _dataset_memo.clear()
    _rmi_memo.clear()
    _index_memo.clear()


def _memo_get(memo: OrderedDict, key: tuple) -> Any | None:
    hit = memo.get(key)
    if hit is not None:
        memo.move_to_end(key)
    return hit


def _memo_put(memo: OrderedDict, key: tuple, value: Any, cap: int) -> None:
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > cap:
        memo.popitem(last=False)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def dataset(name: str, n: int, seed: int) -> np.ndarray:
    """The dataset ``(name, n, seed)``, generated at most once.

    Resolution order: in-process LRU, then the active disk cache
    (mmap-backed ``.npy``), then :func:`repro.data.sosd.generate` (the
    result is persisted when a disk cache is active).  Returned arrays
    are read-only -- they are shared between callers and, when disk
    cached, memory-mapped.
    """
    key = (str(name), int(n), int(seed))
    hit = _memo_get(_dataset_memo, key)
    if hit is not None:
        return hit
    keys = _load_or_generate_dataset(*key)
    _memo_put(_dataset_memo, key, keys, _DATASET_MEMO_MAX)
    return keys


def _load_or_generate_dataset(name: str, n: int, seed: int) -> np.ndarray:
    from ..data import sosd

    cache = active_cache()
    if cache is None:
        keys = sosd.generate(name, n=n, seed=seed)
        keys.setflags(write=False)
        return keys
    fp = dataset_fingerprint(name, n, seed)
    path = cache.get("datasets", fp)
    if path is not None:
        keys = np.load(path, mmap_mode="r")
        if keys.dtype == np.uint64 and len(keys) == n:
            return keys
        cache.discard("datasets", fp)  # wrong shape: stale beyond meta
    generated = sosd.generate(name, n=n, seed=seed)

    def write(tmp: Path) -> None:
        with open(tmp, "wb") as f:
            np.save(f, generated)

    path = cache.put("datasets", fp, write)
    return np.load(path, mmap_mode="r")


def _dataset_digest(name: str, n: int, seed: int) -> str:
    return fingerprint_digest(dataset_fingerprint(name, n, seed))


# ---------------------------------------------------------------------------
# Trained RMIs
# ---------------------------------------------------------------------------


def rmi_for(name: str, n: int, seed: int, config: Any) -> Any:
    """A trained RMI for ``config`` (an
    :class:`~repro.core.builder.RMIConfig`) over dataset
    ``(name, n, seed)``.

    Cached in-process by ``(dataset, config)`` and, when a disk cache
    is active, stored and restored through :func:`restore_or_build` and
    the RMI's snapshot hooks (keys excluded -- the dataset artifact
    already holds them).  An RMI that cannot be snapshotted (the neural
    extension) is built and not stored.
    """
    from ..core.rmi import RMI

    key = (str(name), int(n), int(seed), config)
    hit = _memo_get(_rmi_memo, key)
    if hit is not None:
        return hit
    keys = dataset(name, n, seed)
    try:
        fp = index_fingerprint(_dataset_digest(name, n, seed), RMI.__name__,
                               {"config": config})
    except TypeError:
        rmi = config.build(keys)  # no canonical name: not cacheable
    else:
        rmi = restore_or_build(fp, RMI, keys, config.build)
    _memo_put(_rmi_memo, key, rmi, _RMI_MEMO_MAX)
    return rmi


def _savez(tmp: Path, arrays: "dict[str, np.ndarray]") -> None:
    with open(tmp, "wb") as f:
        np.savez(f, **arrays)


# ---------------------------------------------------------------------------
# Baseline index snapshots
# ---------------------------------------------------------------------------


def restore_or_build(fingerprint: Mapping[str, Any], cls: type,
                     keys: np.ndarray,
                     build: Callable[[np.ndarray], Any]) -> Any:
    """The index the active cache holds under ``fingerprint``, restored
    onto ``keys`` through ``cls``'s snapshot hooks; on a miss (or with
    no active cache), ``build(keys)``, whose snapshot is then stored."""
    cache = active_cache()
    if cache is None:
        return build(keys)
    path = cache.get("indexes", fingerprint)
    if path is not None:
        try:
            with np.load(path, allow_pickle=False) as data:
                state = {k: data[k] for k in data.files}
            return cls.restore_state(keys, state)
        except Exception:
            cache.discard("indexes", fingerprint)
    index = build(keys)
    try:
        state = index.snapshot_state()
        cache.put("indexes", fingerprint, lambda tmp: _savez(tmp, state))
    except (TypeError, pickle.PicklingError):
        pass  # not snapshottable: rebuilt on every miss
    return index


def index_for(
    name: str,
    n: int,
    seed: int,
    index_name: str,
    spec: Mapping[str, Any],
    factory: Callable[[np.ndarray], Any],
    cls: type | None = None,
) -> Any:
    """A built baseline index, restored from its snapshot when cached.

    ``spec`` names the constructor hyperparameters (it participates in
    the fingerprint); ``factory`` builds from the key array on a miss;
    ``cls`` (default: the factory result's type) restores via the
    :class:`~repro.baselines.interfaces.OrderedIndex` snapshot hooks.
    ``UnsupportedDataError`` propagates uncached -- incompatibility is
    re-derived cheaply and must not mask dataset changes.
    """
    key = (str(name), int(n), int(seed), str(index_name),
           tuple(sorted(spec.items())))
    hit = _memo_get(_index_memo, key)
    if hit is not None:
        return hit
    keys = dataset(name, n, seed)
    if active_cache() is None or cls is None:
        index = factory(keys)
    else:
        fp = index_fingerprint(_dataset_digest(name, n, seed),
                               cls.__name__, dict(spec, index=index_name))
        index = restore_or_build(fp, cls, keys, factory)
    _memo_put(_index_memo, key, index, _INDEX_MEMO_MAX)
    return index


# ---------------------------------------------------------------------------
# Figure results
# ---------------------------------------------------------------------------


def figure_result(
    figure_id: str,
    bound_kwargs: "Mapping[str, Any] | None",
    runner: Callable[[], Any],
) -> "tuple[Any, bool]":
    """Serve a figure result from the cache or compute and store it.

    Returns ``(FigureResult, from_cache)``.  ``bound_kwargs`` must be
    the driver's fully bound arguments minus row-invariant ones
    (``jobs``); ``None`` disables caching for this call.  Cached
    payloads are the exact ``to_json`` text of the cold run, so a warm
    load reconstructs bit-identical rows.
    """
    from ..bench.report import FigureResult

    cache = active_cache()
    if cache is None or bound_kwargs is None:
        return runner(), False
    try:
        fp = figure_fingerprint(figure_id, bound_kwargs)
    except TypeError:
        return runner(), False  # non-canonical kwargs: not cacheable
    path = cache.get("results", fp)
    if path is not None:
        try:
            payload = json.loads(path.read_text())
            return FigureResult.from_payload(payload), True
        except Exception:
            cache.discard("results", fp)
    result = runner()
    text = result.to_json()
    cache.put("results", fp, lambda tmp: tmp.write_text(text))
    return result, False
