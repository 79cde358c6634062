"""Pure-NumPy kernel backend: the reference and universal fallback.

``lower_bound_window`` delegates to the staged implementation in
:mod:`repro.core.search`; ``merge_delta`` is the writable tier's
write -- a stable argsort keeps each key's last write, one
``searchsorted`` counts the kept keys' base multiplicities, and the
batch is spliced into the delta buffer (its bucket table updated by one
``searchsorted`` of the new keys' base lower bounds) -- and
``merge_live_steps`` its sort-based snapshot.  Each packed family
has one window function -- ``_rmi_window`` replays the exact arithmetic of
:class:`repro.core.rmi.RMI`'s staged batch path over the packed
arrays, ``_pla_window`` and ``_tree_window`` *are* the NumPy batch
lookup of the packable baselines (PGM, CompressedPGM, RadixSpline,
FITing-Tree, B-tree, Hist-Tree) -- under one ``_fused_serve``, whose
bounded search completes each window.  Outputs are bit-identical to the
compiled backends.  This backend is always available, is the baseline
leg of ``python -m repro.bench kernels``, and is the executable
specification the compiled backends are conformance-tested against.
"""

from __future__ import annotations

import numpy as np

from .base import BAD_OPS, BUCKET_SHIFT, NO_QUERIES, KernelBackend, \
    bucket_table, check_compact, check_merge, check_windows, \
    serve_by_lookup, table_size, write_ops
from .packed import BOUNDS_NONE, BOUNDS_PER_MODEL, PackedRMI
from .packed_pla import PLA_DESCEND, PLA_SEGMENT, PackedPLA
from .packed_tree import TREE_SPARSE, PackedTree

__all__ = ["NumpyBackend"]


def _eval_rows(
    codes: np.ndarray, rows: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """Per-key model evaluation, one ``eval_soa`` call per family.

    Mirrors ``LayerTable.predict_routed``'s SoA path on pre-gathered
    rows; bit-identical because the per-element arithmetic is the same.
    """
    from ..core.models import SOA_CODE_MODELS

    present = np.unique(codes)
    if len(present) == 1:
        return SOA_CODE_MODELS[int(present[0])].eval_soa(rows, queries)
    out = np.empty(len(queries), dtype=np.float64)
    for code in present:
        mask = codes == code
        out[mask] = SOA_CODE_MODELS[int(code)].eval_soa(
            rows[mask], queries[mask]
        )
    return out


class NumpyBackend(KernelBackend):
    """Staged NumPy kernels over packed arrays (always available)."""

    name = "numpy"
    compiled = False

    # -- bounded search --------------------------------------------------

    def lower_bound_window(self, keys, queries, lo, hi):
        from ..core.search import _batch_lower_bound_window_numpy

        keys = np.asarray(keys, dtype=np.uint64)
        check_windows(queries, lo, hi)
        if not len(keys):
            return np.zeros(len(queries), dtype=np.int64)
        return _batch_lower_bound_window_numpy(keys, queries, lo, hi)

    # -- writable tier ---------------------------------------------------

    def merge_delta(self, delta, batch, seq_start, now, base_keys):
        delta = tuple(np.asarray(a) for a in delta)
        keys, ops, lower = (np.asarray(a) for a in batch)
        check_merge(delta, (keys, ops, lower))
        ops = write_ops(ops)
        if not ((ops == 0) | (ops == 1)).all():
            raise ValueError(BAD_OPS)
        keys = keys.astype(np.uint64)
        base_keys = np.asarray(base_keys, dtype=np.uint64)
        # A stable key sort keeps equal keys in stream order, so the last
        # row of each equal-key group is the newest write to that key.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        last = np.empty(len(keys), dtype=bool)
        last[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        last[-1:] = True
        sel = order[last]  # last occurrence per key, ascending key order
        keys = sorted_keys[last]
        lower = np.clip(lower.astype(np.int64)[sel], 0, len(base_keys))
        mult = np.maximum(np.searchsorted(base_keys, keys, side="right"),
                          lower) - lower
        return self._splice(delta, (
            keys, ops[sel],
            np.int64(seq_start) + sel.astype(np.int64),
            np.full(len(keys), float(now)), mult, lower))

    @staticmethod
    def _splice(delta, batch):
        """``merge_delta`` of a sorted, per-key-unique batch ``(keys,
        ops, seqs, born, mult, lower)``, with each key's base
        multiplicity and lower bound."""
        old_keys, old_born = delta[0].astype(np.uint64), delta[3]
        keys = batch[0].astype(np.uint64)
        # The batch is spliced into the buffer: one searchsorted of the
        # batch, then linear copies, with no sort of the buffer.
        pos = np.searchsorted(old_keys, keys, side="left")
        hit = pos < len(old_keys)
        hit[hit] = old_keys[pos[hit]] == keys[hit]
        born = np.array(batch[3], dtype=np.float64)
        born[hit] = np.minimum(born[hit], old_born[pos[hit]])
        fresh = ~hit
        # Each batch entry's slot: its insertion point plus the new keys
        # spliced in before it (a replaced entry keeps its slot).
        slots = pos + (np.cumsum(fresh) - fresh)
        added = slots[fresh]
        kept = np.ones(len(old_keys) + len(added), dtype=bool)
        kept[added] = False

        def merge(old: np.ndarray, new: np.ndarray,
                  dtype: type) -> np.ndarray:
            out = np.empty(len(kept), dtype=dtype)
            out[kept] = old
            out[added] = new[fresh]
            out[slots[hit]] = new[hit]
            return out

        # Each entry adds its insert flag minus its base multiplicity to
        # the correction: the old entries' shares are the old
        # correction's steps.
        shares = merge(np.diff(np.asarray(delta[4], dtype=np.int64)),
                       (batch[1] == 1) - np.asarray(batch[4], np.int64),
                       np.int64)
        corr = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(shares, out=corr[1:])
        # A new key counts in every bucket past its base lower bound's.
        table = np.asarray(delta[5], dtype=np.int64)
        table = table + bucket_table(batch[5][fresh], len(table))
        return (merge(old_keys, keys, np.uint64),
                merge(delta[1], batch[1], np.int8),
                merge(delta[2], batch[2], np.int64),
                merge(old_born, born, np.float64), corr, table)

    def compact_delta(self, delta, snapshot, watermark, base_keys):
        delta = tuple(np.asarray(a) for a in delta)
        snap_keys = np.asarray(snapshot[0], dtype=np.uint64)
        snap_ops = np.asarray(snapshot[1])
        check_compact(delta, (snap_keys, snap_ops))
        keys, ops = delta[0].astype(np.uint64), delta[1]
        keep = np.asarray(delta[2]) > np.int64(watermark)
        shares = np.diff(np.asarray(delta[4], dtype=np.int64))[keep]
        keys = keys[keep]
        pos = np.searchsorted(snap_keys, keys)
        hit = pos < len(snap_keys)
        hit[hit] = snap_keys[pos[hit]] == keys[hit]
        shares[hit] = ((ops[keep][hit] == 1).astype(np.int64)
                       - (snap_ops[pos[hit]] == 1))
        corr = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(shares, out=corr[1:])
        # Bucket b's base lower bounds run below b << BUCKET_SHIFT: the
        # delta keys at or below the base key just before that position
        # (every key, once it is past the base's end).
        base_keys = np.asarray(base_keys, dtype=np.uint64)
        width = 1 << BUCKET_SHIFT
        table = np.full(table_size(len(base_keys)), len(keys),
                        dtype=np.int64)
        table[0] = 0
        last = base_keys[width - 1::width]
        table[1:1 + len(last)] = np.searchsorted(keys, last, side="right")
        return (keys, ops[keep].astype(np.int8),
                np.asarray(delta[2], dtype=np.int64)[keep],
                np.asarray(delta[3], dtype=np.float64)[keep], corr, table)

    def merge_live_steps(self, base_keys, delta_keys, delta_ops, size):
        """The sort-based reference, in one step."""
        base_keys = np.asarray(base_keys, dtype=np.uint64)
        delta_keys = np.asarray(delta_keys, dtype=np.uint64)
        lo = np.searchsorted(base_keys, delta_keys, side="left")
        hi = np.searchsorted(base_keys, delta_keys, side="right")
        # Interval marks: +1 at each shadowed run start, -1 past its
        # end; positive prefix sums mark shadowed entries.
        marks = np.zeros(len(base_keys) + 1, dtype=np.int64)
        np.add.at(marks, lo, 1)
        np.add.at(marks, hi, -1)
        shadowed = np.cumsum(marks[:-1]) > 0
        live = np.sort(np.concatenate([
            base_keys[~shadowed],
            delta_keys[np.asarray(delta_ops) != 0],
        ]), kind="stable")
        yield len(base_keys) + len(delta_keys)
        return live

    # -- the serve of every family ---------------------------------------

    def _fused_serve(self, window, packed, keys, point_queries,
                     range_lows, range_highs):
        """The serve of every family: ``window(packed, queries)`` gives
        each query's ``(queries, lo, hi)`` window, and the bounded
        search completes it."""
        return serve_by_lookup(
            lambda q: self.lower_bound_window(keys, *window(packed, q)),
            point_queries, range_lows, range_highs)

    # -- fused RMI path --------------------------------------------------

    def _route(self, packed: PackedRMI, queries: np.ndarray) -> np.ndarray:
        """Equation 3 over the packed layers (cf. ``RMI._route_batch``)."""
        assign = np.zeros(len(queries), dtype=np.int64)
        offsets = packed.offsets
        for depth in range(packed.num_layers - 1):
            rows_idx = offsets[depth] + assign
            preds = _eval_rows(
                packed.codes[rows_idx], packed.params[rows_idx], queries
            )
            next_fanout = int(offsets[depth + 2] - offsets[depth + 1])
            est = preds if packed.scaled else preds * packed.scales[depth]
            est = np.clip(np.nan_to_num(est), 0.0, float(next_fanout - 1))
            assign = np.floor(est).astype(np.int64)
        return assign

    def rmi_predict(self, packed: PackedRMI, queries: np.ndarray):
        queries = np.asarray(queries, dtype=np.uint64)
        model_ids = self._route(packed, queries)
        rows_idx = packed.offsets[-2] + model_ids
        est = _eval_rows(
            packed.codes[rows_idx], packed.params[rows_idx], queries
        )
        est = np.clip(np.nan_to_num(est), 0.0, float(packed.n - 1))
        return model_ids, est.astype(np.int64)

    def _rmi_window(self, packed: PackedRMI, queries):
        """The RMI's data windows: each leaf prediction widened by its
        error bounds (cf. ``RMI.lookup_batch``)."""
        model_ids, positions = self.rmi_predict(packed, queries)
        n = packed.n
        if packed.bkind == BOUNDS_NONE:
            lo = np.zeros(len(positions), dtype=np.int64)
            hi = np.full(len(positions), n - 1, dtype=np.int64)
            return queries, lo, hi
        if packed.bkind == BOUNDS_PER_MODEL:
            lo = positions + packed.blo[model_ids]
            hi = positions + packed.bhi[model_ids]
        else:  # BOUNDS_GLOBAL
            lo = positions + packed.blo[0]
            hi = positions + packed.bhi[0]
        return queries, np.clip(lo, 0, n - 1), np.clip(hi, 0, n - 1)

    def rmi_lookup(self, packed: PackedRMI, keys, queries):
        return self._fused_serve(self._rmi_window, packed, keys, queries,
                                 NO_QUERIES, NO_QUERIES)[0]

    def rmi_serve(self, packed: PackedRMI, keys, point_queries,
                  range_lows, range_highs):
        return self._fused_serve(self._rmi_window, packed, keys,
                                 point_queries, range_lows, range_highs)

    # -- fused PLA path --------------------------------------------------

    def _pla_window(self, packed: PackedPLA, queries):
        """A PLA baseline's batch routing/evaluation.

        Returns ``(queries, lo, hi)`` -- the data window the bounded
        search completes in.
        """
        q = np.asarray(queries, dtype=np.uint64)
        qf = q.astype(np.float64)
        off = packed.offsets
        n = packed.n
        if packed.kind == PLA_DESCEND:
            from ..core.search import batch_binary_search

            # PGM-style descent (cf. PGMIndex.search_bounds): correct the
            # predicted next-level segment inside a ±eps_internal window,
            # then take the predecessor on exact first-key misses.
            seg = np.zeros(len(q), dtype=np.int64)
            for depth in range(packed.num_levels - 1, 0, -1):
                lk = packed.seg_keys[off[depth]:off[depth + 1]]
                ls = packed.slopes[off[depth]:off[depth + 1]]
                lv = packed.icepts[off[depth]:off[depth + 1]]
                bk = packed.seg_keys[off[depth - 1]:off[depth]]
                pred = lv[seg] + ls[seg] * (qf - lk[seg].astype(np.float64))
                m = len(bk)
                center = np.clip(
                    np.nan_to_num(pred), 0, m - 1
                ).astype(np.int64)
                lo = np.maximum(center - packed.eps_internal, 0)
                hi = np.minimum(center + packed.eps_internal, m - 1)
                lb = batch_binary_search(bk, q, lo, hi)
                exact = (lb <= hi) & (bk[np.clip(lb, 0, m - 1)] == q)
                seg = np.clip(np.where(exact, lb, lb - 1), 0, m - 1)
            bk = packed.seg_keys[off[0]:off[1]]
            bs = packed.slopes[off[0]:off[1]]
            bv = packed.icepts[off[0]:off[1]]
            pred = bv[seg] + bs[seg] * (qf - bk[seg].astype(np.float64))
            center = np.clip(np.nan_to_num(pred), 0, n - 1).astype(np.int64)
            lo = np.maximum(center - packed.eps, 0)
            hi = np.minimum(center + packed.eps, n - 1)
            return q, lo, hi
        if packed.kind == PLA_SEGMENT:
            # FITing-Tree: predecessor segment + anchored evaluation.
            fk = packed.seg_keys
            seg = np.searchsorted(fk, q, side="right") - 1
            before = seg < 0
            seg = np.clip(seg, 0, len(fk) - 1)
            estimate = packed.icepts[seg] + packed.slopes[seg] * (
                qf - fk[seg].astype(np.float64)
            )
            center = np.clip(
                np.nan_to_num(estimate), 0, n - 1
            ).astype(np.int64)
            lo = np.maximum(center - packed.eps, 0)
            hi = np.minimum(center + packed.eps, n - 1)
            lo[before] = 0
            hi[before] = 0
            return q, lo, hi
        # PLA_SPLINE (RadixSpline): interpolate between bracketing knots.
        sx = packed.seg_keys
        sy = packed.icepts
        idx = np.searchsorted(sx, q, side="right")
        left = np.clip(idx - 1, 0, len(sx) - 1)
        right = np.clip(idx, 0, len(sx) - 1)
        x0 = sx[left].astype(np.float64)
        x1 = sx[right].astype(np.float64)
        y0 = sy[left]
        y1 = sy[right]
        dx = x1 - x0
        frac = np.divide(qf - x0, dx, out=np.zeros(len(q)), where=dx > 0)
        center = np.clip(y0 + (y1 - y0) * frac, 0, n - 1).astype(np.int64)
        lo = np.maximum(center - packed.eps, 0)
        hi = np.minimum(center + packed.eps, n - 1)
        return q, lo, hi

    def pla_serve(self, packed: PackedPLA, keys, point_queries,
                  range_lows, range_highs):
        return self._fused_serve(self._pla_window, packed, keys,
                                 point_queries, range_lows, range_highs)

    # -- fused tree path -------------------------------------------------

    def _tree_window(self, packed: PackedTree, queries):
        """A tree baseline's batch descent to data windows."""
        q = np.asarray(queries, dtype=np.uint64)
        n = packed.n
        if packed.kind == TREE_SPARSE:
            # Sparse B+-tree directory: the leaf level as a whole is the
            # sorted sampled-key array, so one predecessor search over
            # it finds the gap the node-by-node descent finds.
            positions = packed.positions
            m = len(positions)
            entry = np.searchsorted(packed.entry_keys, q, side="right") - 1
            found = entry >= 0
            safe = np.clip(entry, 0, m - 1)
            lo = np.where(found, positions[safe], 0)
            nxt = safe + 1
            has_next = nxt < m
            hi = np.where(
                has_next, positions[np.clip(nxt, 0, m - 1)], n - 1
            )
            # Queries preceding every indexed key search the first gap.
            hi = np.where(found, hi, int(positions[0]))
            return q, lo, hi
        # TREE_HIST: grouped bin descent over the breadth-first arrays.
        # All queries routed to one node are processed together, so
        # interpreter overhead is paid per node visited, not per query.
        nb = packed.num_bins
        lo = np.zeros(len(q), dtype=np.int64)
        hi = np.zeros(len(q), dtype=np.int64)
        above = q >= np.uint64(packed.min_key)
        start = np.flatnonzero(above)
        # Queries below the key space keep the [0, 0] window.
        stack = [(0, start, q[start] - np.uint64(packed.min_key))]
        while stack:
            node, idx, offs = stack.pop()
            # Bin selection stays in uint64: far-out-of-range queries
            # produce bin numbers beyond int64 at the root level.
            raw = (offs - packed.node_lo[node]) >> np.uint64(
                packed.node_shift[node]
            )
            over = raw >= np.uint64(nb)
            if over.any():
                # Beyond the covered range: the answer is at the end.
                lo[idx[over]] = n - 1
                hi[idx[over]] = n - 1
                keep = ~over
                idx, offs, raw = idx[keep], offs[keep], raw[keep]
            bins = raw.astype(np.int64)
            if not len(idx):
                continue
            children = packed.node_child[node * nb:(node + 1) * nb]
            has_child = children[bins] >= 0
            if has_child.any():
                # Iterate the node's children, not the routed bins: a
                # node has at most num_bins children, while sorting the
                # routed bins costs O(batch log batch) at the root.
                for b in np.flatnonzero(children >= 0):
                    mask = bins == b
                    if mask.any():
                        stack.append(
                            (int(children[b]), idx[mask], offs[mask])
                        )
                term = ~has_child
                idx, bins = idx[term], bins[term]
            if not len(idx):
                continue
            pref = packed.node_pref[node * (nb + 1):(node + 1) * (nb + 1)]
            base = packed.node_base[node]
            hi[idx] = np.minimum(base + pref[bins + 1], n - 1)
            lo[idx] = np.minimum(base + pref[bins], n - 1)
        return q, lo, hi

    def tree_serve(self, packed: PackedTree, keys, point_queries,
                   range_lows, range_highs):
        return self._fused_serve(self._tree_window, packed, keys,
                                 point_queries, range_lows, range_highs)
