"""Persist trained RMIs to disk.

Training an RMI over hundreds of millions of keys takes seconds to
minutes (Section 7); a production deployment trains once and serves
many processes.  This module saves a trained
:class:`~repro.core.rmi.RMI` to a single ``.npz`` file and restores it
without retraining.

Format: the RMI's own snapshot (:meth:`~repro.core.rmi.RMI.snapshot_state`:
the configuration it was built with, one struct-of-arrays code and
parameter table per layer, the error bounds and the training routing),
plus the indexed key array itself, optionally (``include_keys``): real
deployments usually map the data array from elsewhere.  Restoring goes
through :meth:`~repro.core.rmi.RMI.restore_state`, the hook the artifact
cache uses too.

Models with no struct-of-arrays form (the neural extension) are out of
scope for the table format and rejected with ``TypeError``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .rmi import RMI

__all__ = ["save_rmi", "load_rmi", "rmi_payload", "rmi_from_payload"]


def rmi_payload(rmi: RMI, include_keys: bool = True) -> dict:
    """A trained RMI as a dict of arrays (the ``.npz`` member layout):
    its :meth:`~repro.core.rmi.RMI.snapshot_state`, plus ``keys`` when
    ``include_keys``.  ``save_rmi`` is exactly
    ``np.savez_compressed(path, **rmi_payload(rmi))``."""
    payload = rmi.snapshot_state()
    if include_keys:
        payload["keys"] = rmi.keys
    return payload


def save_rmi(rmi: RMI, path: "str | os.PathLike",
             include_keys: bool = True) -> None:
    """Serialize a trained RMI to ``path`` (``.npz``)."""
    np.savez_compressed(Path(path), **rmi_payload(rmi, include_keys))


def rmi_from_payload(data, keys: np.ndarray | None = None) -> RMI:
    """Rebuild an RMI from a :func:`rmi_payload`-layout mapping.

    ``data`` is any mapping of member name to array -- an open ``.npz``
    file or a plain dict.  ``keys`` must be supplied when the payload
    was produced with ``include_keys=False`` and must equal the
    training keys (length is verified; the lookup guarantee only holds
    over the original array).
    """
    if keys is None:
        if "keys" not in data:
            raise ValueError(
                "payload has no embedded keys; pass the key array"
            )
        keys = data["keys"]
    return RMI.restore_state(keys, data)


def load_rmi(path: "str | os.PathLike",
             keys: np.ndarray | None = None) -> RMI:
    """Restore an RMI saved by :func:`save_rmi` without retraining.

    ``keys`` must be supplied when the file was written with
    ``include_keys=False`` and must equal the training keys (length is
    verified; the lookup guarantee only holds over the original array).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        return rmi_from_payload(data, keys=keys)
