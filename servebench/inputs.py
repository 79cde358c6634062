"""Seeded inputs for the serving benchmark: keys, read pools, write stream.

Everything here runs before the set-up clock starts, and everything is
a pure function of the seed: the same seed gives byte-identical keys,
pools, answers and write stream.

* :func:`make_keys` -- the ``books`` dataset from the repo's seeded
  generator (2M unique ``uint64`` keys by default).
* :func:`make_read_pool` -- a bounded pool of read chunks, reused
  cyclically by every workload so that the harness's memory does not
  grow with the run.  Each chunk holds 4096 reads: 10% ranges, and of
  the point reads 10% absent keys; all access is uniform over the key
  array.  Expected answers come from ``np.searchsorted``.
* :class:`LiveOracle` and :func:`iter_mixed_segments` -- the write
  stream of ``mixed_writes`` and its oracle, vectorized per segment.
  The live key set is kept as the base array minus a sorted set of
  removed base keys plus a sorted set of added keys, so a segment costs
  ``O(delta)`` instead of re-materializing 2M keys.  A reader's
  expected answer is still a plain lower bound over the live multiset:
  ``searchsorted(base) - searchsorted(removed) + searchsorted(added)``,
  which the test suite checks read for read against a bisect-maintained
  list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

DATASET = "books"
N_KEYS = 2_000_000
CHUNK_READS = 4096
RANGE_SHARE = 0.10
ABSENT_SHARE = 0.10
#: Range reads span ``[keys[i], keys[i + w])`` with ``w`` uniform in
#: ``[0, MAX_RANGE_WIDTH]``.
MAX_RANGE_WIDTH = 64
#: Read chunks per pool (bounded; reused cyclically).
POOL_CHUNKS = 32
#: Share of ``mixed_writes`` operations that are writes, and of those
#: the share that are deletes.
WRITE_SHARE = 0.20
DELETE_SHARE = 0.40

OP_DELETE = 0
OP_INSERT = 1


def make_keys(seed: int, n: int = N_KEYS) -> np.ndarray:
    """The sorted ``books`` keys for ``seed`` (unique, ``uint64``)."""
    from repro.data import generate

    keys = np.ascontiguousarray(generate(DATASET, n=n, seed=seed),
                                dtype=np.uint64)
    if len(keys) > 1 and not np.all(keys[1:] > keys[:-1]):
        raise ValueError("benchmark keys must be sorted and unique")
    return keys


@dataclass(frozen=True)
class ReadChunk:
    """One chunk of reads with its ``np.searchsorted`` answers."""

    points: np.ndarray  # uint64
    lows: np.ndarray  # uint64
    highs: np.ndarray  # uint64
    exp_pos: np.ndarray  # int64
    exp_start: np.ndarray  # int64
    exp_count: np.ndarray  # int64

    @property
    def reads(self) -> int:
        return len(self.points) + len(self.lows)


def chunk_shape(chunk_reads: int) -> "tuple[int, int, int]":
    """``(points, absent points, ranges)`` in a chunk of ``chunk_reads``."""
    ranges = int(round(chunk_reads * RANGE_SHARE))
    points = chunk_reads - ranges
    return points, int(round(points * ABSENT_SHARE)), ranges


def absent_keys(keys: np.ndarray, rng: np.random.Generator,
                count: int) -> np.ndarray:
    """``count`` keys uniform over ``[keys[0], keys[-1]]`` not in ``keys``."""
    out = np.empty(0, dtype=np.uint64)
    while len(out) < count:
        cand = rng.integers(keys[0], keys[-1], size=2 * count + 8,
                            dtype=np.uint64, endpoint=True)
        pos = np.minimum(np.searchsorted(keys, cand), len(keys) - 1)
        out = np.concatenate([out, cand[keys[pos] != cand]])
    return out[:count]


def make_read_chunk(keys: np.ndarray, rng: np.random.Generator,
                    chunk_reads: int = CHUNK_READS) -> ReadChunk:
    n = len(keys)
    num_points, num_absent, num_ranges = chunk_shape(chunk_reads)
    points = np.concatenate([
        keys[rng.integers(0, n, num_points - num_absent)],
        absent_keys(keys, rng, num_absent),
    ])
    points = points[rng.permutation(len(points))]
    first = rng.integers(0, n, num_ranges)
    width = rng.integers(0, MAX_RANGE_WIDTH, num_ranges, endpoint=True)
    lows = keys[first]
    highs = keys[np.minimum(first + width, n - 1)]
    starts = np.searchsorted(keys, lows, side="left").astype(np.int64)
    ends = np.searchsorted(keys, highs, side="left").astype(np.int64)
    return ReadChunk(
        points=np.ascontiguousarray(points),
        lows=np.ascontiguousarray(lows),
        highs=np.ascontiguousarray(highs),
        exp_pos=np.searchsorted(keys, points, side="left").astype(np.int64),
        exp_start=starts,
        exp_count=ends - starts,
    )


def make_read_pool(keys: np.ndarray, seed: int,
                   chunks: int = POOL_CHUNKS,
                   chunk_reads: int = CHUNK_READS) -> "list[ReadChunk]":
    """``chunks`` read chunks drawn uniformly over ``keys``."""
    rng = np.random.default_rng([seed, 1])
    return [make_read_chunk(keys, rng, chunk_reads) for _ in range(chunks)]


@dataclass(frozen=True)
class RequestPool:
    """The read pool flattened into single requests (``point_lane``).

    ``is_range[i]`` selects the request kind; ``a``/``b`` are the key or
    the range bounds, ``e1``/``e2`` the expected position or range
    start and count.  Plain lists: the clients index them per request.
    """

    is_range: "list[bool]"
    a: "list[int]"
    b: "list[int]"
    e1: "list[int]"
    e2: "list[int]"

    def __len__(self) -> int:
        return len(self.a)


def flatten_pool(pool: "list[ReadChunk]", seed: int) -> RequestPool:
    """Interleave each chunk's point and range reads into one sequence."""
    rng = np.random.default_rng([seed, 2])
    kinds, a, b, e1, e2 = [], [], [], [], []
    for chunk in pool:
        np_, nr = len(chunk.points), len(chunk.lows)
        kind = np.concatenate([np.zeros(np_, bool), np.ones(nr, bool)])
        ka = np.concatenate([chunk.points, chunk.lows])
        kb = np.concatenate([np.zeros(np_, np.uint64), chunk.highs])
        x1 = np.concatenate([chunk.exp_pos, chunk.exp_start])
        x2 = np.concatenate([np.zeros(np_, np.int64), chunk.exp_count])
        order = rng.permutation(np_ + nr)
        kinds.append(kind[order])
        a.append(ka[order])
        b.append(kb[order])
        e1.append(x1[order])
        e2.append(x2[order])
    return RequestPool(
        is_range=np.concatenate(kinds).tolist(),
        a=np.concatenate(a).tolist(),
        b=np.concatenate(b).tolist(),
        e1=np.concatenate(e1).tolist(),
        e2=np.concatenate(e2).tolist(),
    )


# ---------------------------------------------------------------------------
# mixed_writes: vectorized live-set oracle and segment stream
# ---------------------------------------------------------------------------


def _member(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``vals`` found in ``sorted_arr`` (elementwise bool)."""
    if not len(sorted_arr):
        return np.zeros(len(vals), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_arr, vals), len(sorted_arr) - 1)
    return sorted_arr[idx] == vals


def _sorted_insert(arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Insert sorted ``vals`` (none present) into sorted ``arr``."""
    if not len(vals):
        return arr
    return np.insert(arr, np.searchsorted(arr, vals), vals)


def _sorted_remove(arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Remove ``vals`` (all present) from sorted ``arr``."""
    if not len(vals):
        return arr
    return np.delete(arr, np.searchsorted(arr, vals))


class LiveOracle:
    """The live key set under the writable tier's upsert semantics.

    ``insert(k)`` leaves ``k`` live with one copy, ``delete(k)`` removes
    it, and within one write burst the last op per key wins.  The base
    keys must be unique (``books`` is), so "one copy" never collapses
    base duplicates.  ``protected`` keys are never chosen as delete
    targets: they are the read pool's present point keys, which keeps
    the absent share of point reads at its generated value.
    """

    def __init__(self, base: np.ndarray,
                 protected: "np.ndarray | None" = None) -> None:
        self.base = np.ascontiguousarray(base, dtype=np.uint64)
        #: Base keys not live, and live keys not in the base (sorted).
        self.removed = np.empty(0, dtype=np.uint64)
        self.added = np.empty(0, dtype=np.uint64)
        self._protected = np.unique(np.asarray(
            () if protected is None else protected, dtype=np.uint64))

    def __len__(self) -> int:
        return len(self.base) - len(self.removed) + len(self.added)

    def lower_bound(self, queries: np.ndarray,
                    base_answer: "np.ndarray | None" = None) -> np.ndarray:
        """``np.searchsorted(live_keys, queries, "left")`` without the
        live array: ``base_answer`` may pass the precomputed base term."""
        q = np.asarray(queries, dtype=np.uint64)
        pos = (np.searchsorted(self.base, q).astype(np.int64)
               if base_answer is None else base_answer.astype(np.int64))
        # Sorted needles walk the big arrays in order (far fewer misses).
        order = np.argsort(q, kind="stable")
        shift = np.empty(len(q), dtype=np.int64)
        shift[order] = (np.searchsorted(self.added, q[order])
                        - np.searchsorted(self.removed, q[order]))
        return pos + shift

    def live_keys(self) -> np.ndarray:
        keep = np.ones(len(self.base), dtype=bool)
        keep[np.searchsorted(self.base, self.removed)] = False
        return _sorted_insert(self.base[keep], self.added)

    def sample_deletable(self, rng: np.random.Generator,
                         count: int) -> np.ndarray:
        """``count`` live, unprotected keys drawn uniformly (with
        replacement): uniform over base keys plus added keys, redrawing
        base keys that are removed or protected."""
        n = len(self.base)
        out = np.empty(0, dtype=np.uint64)
        while len(out) < count:
            u = rng.integers(0, n + len(self.added), 2 * count)
            picked = np.where(u < n, self.base[np.minimum(u, n - 1)],
                              self.added[np.maximum(u - n, 0)]
                              if len(self.added) else 0)
            dead = (u < n) & (_member(self.removed, picked)
                              | _member(self._protected, picked))
            out = np.concatenate([out, picked[~dead]])
        return out[:count]

    def apply(self, keys: np.ndarray, ops: np.ndarray) -> None:
        """Apply one ordered write burst (last op per key wins)."""
        keys = np.asarray(keys, dtype=np.uint64)
        ops = np.asarray(ops, dtype=np.int8)
        order = np.argsort(keys, kind="stable")
        sk, so = keys[order], ops[order]
        last = np.ones(len(sk), dtype=bool)
        last[:-1] = sk[1:] != sk[:-1]
        uk, uo = sk[last], so[last]
        in_base = _member(self.base, uk)
        insert = uo == OP_INSERT
        # Base keys: a delete removes, an insert revives.
        gone = uk[in_base & ~insert]
        gone = gone[~_member(self.removed, gone)]
        back = uk[in_base & insert]
        back = back[_member(self.removed, back)]
        self.removed = _sorted_remove(_sorted_insert(self.removed, gone),
                                      back)
        # Fresh keys: an insert adds, a delete drops.
        fresh_in = uk[~in_base & insert]
        fresh_in = fresh_in[~_member(self.added, fresh_in)]
        fresh_out = uk[~in_base & ~insert]
        fresh_out = fresh_out[_member(self.added, fresh_out)]
        self.added = _sorted_remove(_sorted_insert(self.added, fresh_in),
                                    fresh_out)


@dataclass(frozen=True)
class MixedSegment:
    """One ``mixed_writes`` segment: a write burst, then one read chunk.

    ``pool_index`` names the read chunk; ``exp_*`` are its answers
    after this segment's writes.
    """

    wkeys: np.ndarray
    wops: np.ndarray
    pool_index: int
    exp_pos: np.ndarray
    exp_start: np.ndarray
    exp_count: np.ndarray


def segment_writes(chunk_reads: int) -> int:
    """Writes per segment so that writes are ``WRITE_SHARE`` of ops."""
    return int(round(chunk_reads * WRITE_SHARE / (1.0 - WRITE_SHARE)))


def pool_present_keys(keys: np.ndarray,
                      pool: "list[ReadChunk]") -> np.ndarray:
    points = np.concatenate([c.points for c in pool])
    return points[_member(keys, points)]


def iter_mixed_segments(
    keys: np.ndarray,
    pool: "list[ReadChunk]",
    seed: int,
    segments: int,
    writes_per_segment: int,
) -> "Iterator[tuple[MixedSegment, LiveOracle]]":
    """The ``mixed_writes`` stream, one segment at a time.

    Each segment draws ``DELETE_SHARE`` of its writes as deletes of
    live unprotected keys and the rest as inserts of fresh keys uniform
    over the key span, in random order; applies them to the oracle; and
    answers the next pool chunk against the resulting live set.  Yields
    the segment with the oracle *after* it (the same object each time).
    """
    w = writes_per_segment
    rng = np.random.default_rng([seed, 3])
    oracle = LiveOracle(keys, pool_present_keys(keys, pool))
    lo, hi = keys[0], keys[-1]
    for s in range(segments):
        num_del = int(round(w * DELETE_SHARE))
        wkeys = np.concatenate([
            oracle.sample_deletable(rng, num_del),
            rng.integers(lo, hi, w - num_del, dtype=np.uint64,
                         endpoint=True),
        ])
        wops = np.concatenate([np.full(num_del, OP_DELETE, np.int8),
                               np.full(w - num_del, OP_INSERT, np.int8)])
        order = rng.permutation(w)
        wkeys, wops = wkeys[order], wops[order]
        oracle.apply(wkeys, wops)
        idx = s % len(pool)
        chunk = pool[idx]
        starts = oracle.lower_bound(chunk.lows, chunk.exp_start)
        ends = oracle.lower_bound(chunk.highs,
                                  chunk.exp_start + chunk.exp_count)
        yield MixedSegment(
            wkeys=wkeys, wops=wops, pool_index=idx,
            exp_pos=oracle.lower_bound(chunk.points, chunk.exp_pos),
            exp_start=starts, exp_count=ends - starts,
        ), oracle


def answer_weights(chunk_reads: int, seed: int) -> np.ndarray:
    """Odd ``uint64`` weights for :func:`answer_digest` (fixed per run)."""
    num_points, _, num_ranges = chunk_shape(chunk_reads)
    rng = np.random.default_rng([seed, 4])
    w = rng.integers(0, 2**63, num_points + 2 * num_ranges,
                     dtype=np.uint64)
    return (w << np.uint64(1)) | np.uint64(1)


def answer_digest(weights: np.ndarray, positions: np.ndarray,
                  starts: np.ndarray, counts: np.ndarray) -> int:
    """Weighted sum of a chunk's answers modulo 2**64.

    Every weight is odd, so a single wrong answer always changes the
    digest, and several wrong answers cancel with probability 2**-64.
    The ``mixed_writes`` stream stores one digest per segment instead
    of every expected answer; a mismatch is re-checked answer by answer
    against the replayed oracle (see :func:`recount_wrong`).
    """
    answers = np.concatenate([
        np.asarray(positions, dtype=np.int64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
    ]).view(np.uint64)
    return int(np.dot(weights, answers))


@dataclass
class MixedStream:
    """The pre-generated ``mixed_writes`` stream (see module docstring)."""

    wkeys: "list[np.ndarray]"
    wops: "list[np.ndarray]"
    pool_index: "list[int]"
    digests: "list[int]"
    weights: np.ndarray
    final_live: np.ndarray

    def __len__(self) -> int:
        return len(self.wkeys)


def make_mixed_stream(keys: np.ndarray, pool: "list[ReadChunk]",
                      seed: int, segments: int,
                      writes_per_segment: int) -> MixedStream:
    chunk_reads = pool[0].reads
    weights = answer_weights(chunk_reads, seed)
    wkeys, wops, index, digests = [], [], [], []
    oracle = None
    for seg, oracle in iter_mixed_segments(keys, pool, seed, segments,
                                           writes_per_segment):
        wkeys.append(seg.wkeys)
        wops.append(seg.wops)
        index.append(seg.pool_index)
        digests.append(answer_digest(weights, seg.exp_pos, seg.exp_start,
                                     seg.exp_count))
    final = keys.copy() if oracle is None else oracle.live_keys()
    return MixedStream(wkeys, wops, index, digests, weights, final)


def recount_wrong(keys: np.ndarray, pool: "list[ReadChunk]", seed: int,
                  writes_per_segment: int,
                  served: "dict[int, tuple]") -> int:
    """Exact count of wrong reads among the segments in ``served``.

    ``served`` maps segment number to the ``(positions, starts,
    counts)`` the server returned where the digest disagreed; the
    oracle is replayed from the seed to those segments.
    """
    if not served:
        return 0
    wrong = 0
    last = max(served)
    for s, (seg, _) in enumerate(iter_mixed_segments(
            keys, pool, seed, last + 1, writes_per_segment)):
        if s in served:
            pos, starts, counts = served[s]
            wrong += int(np.count_nonzero(pos != seg.exp_pos))
            wrong += int(np.count_nonzero((starts != seg.exp_start)
                                          | (counts != seg.exp_count)))
    return wrong
