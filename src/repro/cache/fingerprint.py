"""Content fingerprints for cached artifacts.

Every artifact the cache stores -- datasets, built indexes, figure
results -- is addressed by the SHA-256 digest of a *fingerprint*: a
small JSON-able dict naming everything the artifact's content depends
on.  Equal fingerprints mean bit-identical artifacts (all generators
and builders in this repo are deterministic), so a digest hit can be
served without rebuilding; any input change -- a different ``n``, a
different config field, a bumped generator version -- lands on a
different digest and misses cleanly.

Invalidation is by construction: nothing is ever updated in place.
Code changes that alter an artifact's content without changing its
inputs must bump the matching version constant below; that shifts
every digest and orphans the stale entries (collected by ``gc``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DATASET_GENERATOR_VERSION",
    "SNAPSHOT_VERSION",
    "CALIBRATION_VERSION",
    "canonicalize",
    "fingerprint_digest",
    "dataset_fingerprint",
    "index_fingerprint",
    "figure_fingerprint",
    "calibration_fingerprint",
    "sha256_file",
    "sha256_text",
]

#: Bump to invalidate every cached artifact (layout / meta changes).
CACHE_FORMAT_VERSION = 1

#: Bump when any generator in :mod:`repro.data.sosd` changes output.
DATASET_GENERATOR_VERSION = 1

#: Bump when an index's snapshot representation changes shape.  2: an
#: RMI's snapshot records the configuration it was built with.
SNAPSHOT_VERSION = 2

#: Bump when the cost-model calibration procedure changes output.  2:
#: the ``cext`` kernels take addresses, so a call's fixed cost fell.
#: 3: a lookup is its family's serve with no ranges, so its fixed cost
#: moved.  4: the ``cext`` lookup passes that serve NULL ranges instead
#: of empty arrays, so a PLA or tree lookup's fixed cost fell.
CALIBRATION_VERSION = 4


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to canonical JSON-able form.

    Tuples become lists, NumPy scalars become Python scalars, frozen
    config dataclasses become dicts.  Raises ``TypeError`` for values
    with no canonical form (such artifacts are simply not cacheable).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): canonicalize(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonicalize(dataclasses.asdict(value))
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "ndim", None) == 0:
        return canonicalize(value.item())  # NumPy scalar
    raise TypeError(f"{type(value).__name__} has no canonical JSON form")


def canonical_json(fingerprint: Mapping[str, Any]) -> str:
    """Stable JSON text of a fingerprint dict (sorted keys, no spaces)."""
    return json.dumps(canonicalize(fingerprint), sort_keys=True,
                      separators=(",", ":"))


def fingerprint_digest(fingerprint: Mapping[str, Any]) -> str:
    """Hex SHA-256 of the canonical fingerprint -- the artifact address."""
    return hashlib.sha256(canonical_json(fingerprint).encode()).hexdigest()


def dataset_fingerprint(name: str, n: int, seed: int) -> dict:
    """Fingerprint of a synthetic dataset: ``(name, n, seed, version)``."""
    return {
        "kind": "dataset",
        "format": CACHE_FORMAT_VERSION,
        "generator": DATASET_GENERATOR_VERSION,
        "name": str(name),
        "n": int(n),
        "seed": int(seed),
    }


def index_fingerprint(dataset_digest: str, cls_name: str,
                      spec: Mapping[str, Any]) -> dict:
    """Fingerprint of a built index: ``(dataset-hash, config)``.

    ``spec`` carries the constructor hyperparameters; ``cls_name`` and
    the snapshot version guard against one name meaning two structures.
    """
    return {
        "kind": "index",
        "format": CACHE_FORMAT_VERSION,
        "snapshot": SNAPSHOT_VERSION,
        "dataset": str(dataset_digest),
        "class": str(cls_name),
        "spec": canonicalize(spec),
    }


def figure_fingerprint(figure_id: str, kwargs: Mapping[str, Any]) -> dict:
    """Fingerprint of a figure result: driver id + fully bound kwargs.

    Callers must pass the *bound* arguments (defaults applied) so
    ``fig04()`` and ``fig04(n=100_000)`` share one artifact, and must
    exclude arguments that do not affect the rows (``jobs``).
    """
    return {
        "kind": "figure",
        "format": CACHE_FORMAT_VERSION,
        "generator": DATASET_GENERATOR_VERSION,
        "figure": str(figure_id),
        "kwargs": canonicalize(dict(kwargs)),
    }


def calibration_fingerprint(machine_id: str, backend: str,
                            params: Mapping[str, Any],
                            family: str = "search") -> dict:
    """Fingerprint of a cost-model calibration run.

    Unlike built indexes, calibrations are *performance* measurements:
    the kernel ``backend`` and kernel ``family`` (``"search"``, or a
    packed family ``"rmi"``/``"pla"``/``"tree"`` -- see
    :func:`repro.cost.calibrate.calibrate_kernel_overhead`) both change
    the numbers, so each is an explicit fingerprint field and
    calibrations are never served across either.  ``machine_id`` names
    the measured host; ``params`` carries the calibration procedure's
    knobs (sizes, repetitions).
    """
    return {
        "kind": "calibration",
        "format": CACHE_FORMAT_VERSION,
        "calibration": CALIBRATION_VERSION,
        "machine": str(machine_id),
        "backend": str(backend),
        "family": str(family),
        "params": canonicalize(dict(params)),
    }


def sha256_file(path) -> str:
    """Hex SHA-256 of a file's bytes (corruption check on load)."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
