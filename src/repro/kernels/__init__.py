"""Pluggable compiled kernels for the lookup hot path (ROADMAP item 4).

Two backends implement the same :class:`~repro.kernels.base.KernelBackend`
interface over the flat packed arrays
(:class:`~repro.kernels.packed.PackedRMI`,
:class:`~repro.kernels.packed_pla.PackedPLA`,
:class:`~repro.kernels.packed_tree.PackedTree`):

``numpy``
    The NumPy reference -- always available, the fallback, the
    benchmark baseline, and the only NumPy batch path of the packable
    baselines (``OrderedIndex.lookup_batch`` calls it on the packed
    form).
``cext``
    A small C library compiled on demand with the system C compiler
    and called through ctypes; absent when no compiler is available.

Every index, the RMI included, builds and answers batches on the
backend :func:`get_backend` resolves with no argument; pin one with
``REPRO_KERNELS`` or :func:`use_backend`.  Selection precedence:

1. an explicit ``spec`` argument (a caller naming the backend it
   measures, e.g. ``get_backend("cext")``);
2. a process-wide default installed by :func:`set_default_backend` or
   the :func:`use_backend` context manager;
3. the ``REPRO_KERNELS`` environment variable;
4. auto-detection: the first loadable of ``cext``, ``numpy``.

Every resolution failure on the *auto* path degrades silently to the
next candidate (the repo must import and serve without a compiler); an
explicitly requested backend that cannot load raises instead -- a user
who pinned ``REPRO_KERNELS=cext`` wants to know it is missing, not
silently measure NumPy.

All backends return bit-identical positions; see ``tests/test_kernels.py``
and the backend-parametrized conformance legs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

from .base import KernelBackend
from .packed import PackedRMI, pack_rmi
from .packed_pla import (
    PLA_DESCEND,
    PLA_SEGMENT,
    PLA_SPLINE,
    PackedPLA,
    pack_pla_levels,
)
from .packed_tree import (
    TREE_HIST,
    TREE_SPARSE,
    PackedTree,
    pack_hist_nodes,
    pack_sparse_directory,
)

__all__ = [
    "KernelBackend",
    "PackedRMI",
    "pack_rmi",
    "PackedPLA",
    "PLA_DESCEND",
    "PLA_SEGMENT",
    "PLA_SPLINE",
    "pack_pla_levels",
    "PackedTree",
    "TREE_SPARSE",
    "TREE_HIST",
    "pack_sparse_directory",
    "pack_hist_nodes",
    "KNOWN_BACKENDS",
    "get_backend",
    "set_default_backend",
    "use_backend",
    "available_backends",
    "backend_available",
]

#: Environment variable consulted when no explicit spec or process
#: default is set.
ENV_VAR = "REPRO_KERNELS"

#: Registry names in auto-detection preference order (fastest first).
KNOWN_BACKENDS = ("cext", "numpy")


def _load_numpy() -> KernelBackend:
    from .numpy_backend import NumpyBackend

    return NumpyBackend()


def _load_cext() -> KernelBackend:
    from . import cext_backend

    return cext_backend.load()


_LOADERS: "dict[str, Callable[[], KernelBackend]]" = {
    "numpy": _load_numpy,
    "cext": _load_cext,
}

#: Loaded singletons; a name maps to False after a failed load so the
#: (possibly expensive) failure is not retried every lookup.
_instances: "dict[str, KernelBackend | bool]" = {}

#: Process-wide default installed via set_default_backend/use_backend.
_default: "KernelBackend | None" = None


def _load(name: str) -> "KernelBackend | None":
    cached = _instances.get(name)
    if cached is not None:
        return cached if isinstance(cached, KernelBackend) else None
    try:
        backend = _LOADERS[name]()
    except Exception:
        _instances[name] = False
        return None
    _instances[name] = backend
    return backend


def get_backend(spec: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a kernel backend (see module docstring for precedence).

    ``spec`` may be a registry name, ``"auto"``, an already-built
    :class:`KernelBackend` (returned as-is), or ``None`` to follow the
    process default / environment / auto-detection chain.  Unknown
    names and explicitly requested backends that fail to load raise
    ``ValueError`` / ``RuntimeError``; auto-detection never raises.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec is None:
        if _default is not None:
            return _default
        spec = os.environ.get(ENV_VAR) or "auto"
    name = str(spec).strip().lower()
    if name == "auto":
        for candidate in KNOWN_BACKENDS:
            backend = _load(candidate)
            if backend is not None:
                return backend
        raise RuntimeError("no kernel backend loadable (not even numpy)")
    if name not in _LOADERS:
        known = ", ".join(sorted(_LOADERS) + ["auto"])
        raise ValueError(f"unknown kernel backend {spec!r}; known: {known}")
    backend = _load(name)
    if backend is None:
        raise RuntimeError(
            f"kernel backend {name!r} is not available in this environment"
        )
    return backend


def set_default_backend(
    spec: "str | KernelBackend | None",
) -> "KernelBackend | None":
    """Install the process-wide default backend; ``None`` clears it.

    Returns the installed backend (resolving string specs eagerly so
    misconfiguration surfaces at setup time, not mid-request).
    """
    global _default
    _default = None if spec is None else get_backend(spec)
    return _default


@contextmanager
def use_backend(spec: "str | KernelBackend") -> Iterator[KernelBackend]:
    """Temporarily install ``spec`` as the process default (tests)."""
    global _default
    previous = _default
    backend = get_backend(spec)
    _default = backend
    try:
        yield backend
    finally:
        _default = previous


def backend_available(name: str) -> bool:
    """True when ``name`` loads in this environment (result cached)."""
    if name not in _LOADERS:
        return False
    return _load(name) is not None


def available_backends() -> "list[str]":
    """Names of all loadable backends, preference order first."""
    return [name for name in KNOWN_BACKENDS if backend_available(name)]
