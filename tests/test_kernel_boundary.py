"""The boundary between Python and the compiled kernels.

Every ``cext`` entry point takes raw addresses
(:mod:`repro.kernels.binding`): the wrappers convert the per-call
arrays, and each packed form binds its own arrays once.  These tests pin
that boundary on every loadable backend:

* read-only, strided, ``int64``, Python-list and empty inputs give
  answers bit-identical to the NumPy reference on plain input;
* a served index answers the oracle after a pickle round trip or a
  deepcopy, with the original freed and its memory reused (a binding
  must never travel);
* a packed form called with a different keys array rebinds, also
  while other threads rebind it;
* the wrappers refuse, with ``ValueError``, the length mismatches that
  would make C read past an array, and so does the NumPy reference
  (``merge_delta``'s and ``compact_delta``'s are in
  ``tests/test_writable_merge.py``); the delta's bucket table is read
  only inside its bounds, whatever the base positions and entries, and
  a write batch's base lower bounds are clamped into the base keys;
* every array slot of every C prototype is declared ``c_void_p``, and
  each packed form's ``KERNEL_RUN`` lists its C ``*_run`` struct field
  for field;
* extra compiler flags (``REPRO_KERNELS_CFLAGS``, a sanitizer build)
  rekey the build cache only when set.
"""

from __future__ import annotations

import copy
import ctypes
import dataclasses
import gc
import pickle
import re
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import kernels
from repro.baselines.btree import BTreeIndex
from repro.baselines.hist_tree import HistTree
from repro.baselines.pgm import PGMIndex
from repro.baselines.rmi_adapter import RMIAsIndex
from repro.core.rmi import RMI
from repro.kernels.base import BUCKET_SHIFT, run_steps, table_size


@pytest.fixture(scope="module")
def case():
    """Distinct keys below 2**63 (so ``int64`` copies keep their
    values), their indexes' packed forms, and one input per argument."""
    rng = np.random.default_rng(2701)
    keys = np.unique(rng.integers(0, 2**62, 6000, dtype=np.uint64))
    n = len(keys)
    q = np.concatenate([
        rng.choice(keys, 300),
        rng.integers(0, 2**62, 300, dtype=np.uint64),
        np.array([0, keys[0], keys[-1], 2**62], dtype=np.uint64),
    ])
    pos = np.searchsorted(keys, q).astype(np.int64)
    dkeys = np.unique(rng.integers(0, 2**62, 40, dtype=np.uint64))
    ops = (rng.integers(0, 2, len(dkeys)) * 1).astype(np.int8)
    bkeys = np.unique(np.concatenate([
        dkeys[::3], rng.integers(0, 2**62, 20, dtype=np.uint64)]))
    # A raw write batch: unsorted, with repeated keys, some in the base.
    wkeys = rng.permutation(np.concatenate([bkeys, bkeys[::4], keys[::500]]))
    buckets = np.arange(table_size(n), dtype=np.int64) << BUCKET_SHIFT
    shadow = np.isin(keys, dkeys).sum()
    rmi = RMI(keys, layer_sizes=[64], bound_type="labs")
    return {
        "keys": keys,
        "q": q,
        "lo": np.clip(pos - 5, 0, n - 1),
        "hi": np.clip(pos + 5, 0, n - 1),
        "lows": q[:50],
        "highs": q[:50] + np.uint64(2**40),
        "dkeys": dkeys,
        "corr": rng.integers(-50, 50, len(dkeys) + 1).astype(np.int64),
        "base": pos,
        "table": np.searchsorted(np.searchsorted(keys, dkeys), buckets),
        "ops": ops,
        "seqs": np.arange(len(dkeys), dtype=np.int64),
        "born": rng.random(len(dkeys)),
        "bkeys": bkeys,
        "bops": (rng.integers(0, 2, len(bkeys)) * 1).astype(np.int8),
        "wkeys": wkeys,
        "wops": (rng.integers(0, 2, len(wkeys)) * 1).astype(np.int8),
        "wlower": np.searchsorted(keys, wkeys).astype(np.int64),
        "live": int(n - shadow + ops.sum()),
        "rmi": rmi,
        "rmi_packed": kernels.pack_rmi(rmi),
        "pla": PGMIndex(keys).pack(),
        "sparse": BTreeIndex(keys, sparsity=8).pack(),
        "hist": HistTree(keys).pack(),
    }


#: Every entry point, called on ``case`` with ``f`` applied to each
#: array argument.  The ``pla_lookup`` and ``tree_lookup_sparse`` rows
#: call the generic ``lookup`` (a serve with no ranges) on that form.
ENTRY_POINTS = {
    "lower_bound_window": lambda be, c, f: be.lower_bound_window(
        f(c["keys"]), f(c["q"]), f(c["lo"]), f(c["hi"])),
    "delta_correct": lambda be, c, f: be.delta_correct(
        f(c["dkeys"]), f(c["corr"]), f(c["base"]), f(c["q"]),
        f(c["table"])),
    "merge_delta": lambda be, c, f: be.merge_delta(
        tuple(map(f, (c["dkeys"], c["ops"], c["seqs"], c["born"],
                      c["corr"], c["table"]))),
        tuple(map(f, (c["wkeys"], c["wops"], c["wlower"]))),
        len(c["dkeys"]), 2.5, f(c["keys"])),
    "compact_delta": lambda be, c, f: be.compact_delta(
        tuple(map(f, (c["dkeys"], c["ops"], c["seqs"], c["born"],
                      c["corr"]))),
        (f(c["bkeys"]), f(c["bops"])), len(c["dkeys"]) // 2, f(c["keys"])),
    "merge_live": lambda be, c, f: run_steps(be.merge_live_steps(
        f(c["keys"]), f(c["dkeys"]), f(c["ops"]), c["live"])),
    "rmi_predict": lambda be, c, f: be.rmi_predict(
        c["rmi_packed"], f(c["q"])),
    "rmi_lookup": lambda be, c, f: be.rmi_lookup(
        c["rmi_packed"], f(c["keys"]), f(c["q"])),
    "rmi_serve": lambda be, c, f: be.rmi_serve(
        c["rmi_packed"], f(c["keys"]), f(c["q"]), f(c["lows"]),
        f(c["highs"])),
    "pla_lookup": lambda be, c, f: be.lookup(
        c["pla"], f(c["keys"]), f(c["q"])),
    "pla_serve": lambda be, c, f: be.pla_serve(
        c["pla"], f(c["keys"]), f(c["q"]), f(c["lows"]), f(c["highs"])),
    "tree_lookup_sparse": lambda be, c, f: be.lookup(
        c["sparse"], f(c["keys"]), f(c["q"])),
    "tree_serve_hist": lambda be, c, f: be.tree_serve(
        c["hist"], f(c["keys"]), f(c["q"]), f(c["lows"]), f(c["highs"])),
}


def _readonly(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


#: Input variants; each keeps every value of the array it is given.
VARIANTS = {
    "readonly": _readonly,
    "strided": lambda a: np.repeat(np.asarray(a), 2)[::2],
    "int64": lambda a: (np.asarray(a).astype(np.int64)
                        if np.asarray(a).dtype.kind in "ui" else a),
    "list": lambda a: np.asarray(a).tolist(),
}


def _same(got, want) -> None:
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype
    else:
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_odd_inputs_answer_like_the_reference(kernel_backend, case, entry,
                                              variant):
    call = ENTRY_POINTS[entry]
    want = call(kernels.get_backend("numpy"), case, lambda a: a)
    _same(call(kernel_backend, case, VARIANTS[variant]), want)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_empty_queries(kernel_backend, case, entry):
    empty = dict(case, q=case["q"][:0], lo=case["lo"][:0],
                 hi=case["hi"][:0], base=case["base"][:0],
                 lows=case["lows"][:0], highs=case["highs"][:0])
    call = ENTRY_POINTS[entry]
    _same(call(kernel_backend, empty, lambda a: a),
          call(kernels.get_backend("numpy"), empty, lambda a: a))


def test_empty_keys_and_deltas(kernel_backend, case):
    q, none = case["q"], case["keys"][:0]
    zeros = np.zeros(len(q), dtype=np.int64)
    _same(kernel_backend.lower_bound_window(none, q, zeros, zeros), zeros)
    _same(kernel_backend.delta_correct(none, np.array([3]), case["base"], q,
                                       np.zeros(2, dtype=np.int64)),
          case["base"] + 3)
    dkeys, ops = case["dkeys"], case["ops"]
    merge = kernel_backend.merge_live_steps
    _same(run_steps(merge(none, dkeys, ops, int(ops.sum()))),
          dkeys[ops != 0])
    _same(run_steps(merge(case["keys"], none, none.astype(np.int8),
                          len(case["keys"]))), case["keys"])
    # A batch merged into an empty delta, and into an empty base; an
    # empty batch merged into the delta.
    empty_delta = (none, np.zeros(0, np.int8), np.zeros(0, np.int64),
                   np.zeros(0), np.zeros(1, np.int64), np.zeros(2, np.int64))
    delta = (dkeys, ops, case["seqs"], case["born"], case["corr"],
             case["table"])
    batch = (case["wkeys"], case["wops"], case["wlower"])
    none_batch = (none, none.astype(np.int8), zeros[:0])
    for args in ((empty_delta, batch, case["keys"]),
                 (empty_delta, (batch[0], batch[1], zeros[:len(batch[0])]),
                  none),
                 (delta, none_batch, case["keys"])):
        _same(kernel_backend.merge_delta(args[0], args[1], 7, 1.5, args[2]),
              kernels.get_backend("numpy").merge_delta(args[0], args[1], 7,
                                                       1.5, args[2]))
    _same(kernel_backend.merge_delta(delta, none_batch, 7, 1.5,
                                     case["keys"])[:4], delta[:4])


def test_build_kernels_take_odd_inputs(case):
    if not kernels.backend_available("cext"):
        pytest.skip("cext backend not available")
    be = kernels.get_backend("cext")
    keys, root = case["keys"], case["rmi"].layers[0]
    built = run_steps(be.rmi_build_leaves_steps(keys, root, 64))
    for f in VARIANTS.values():
        _same(run_steps(be.rmi_build_leaves_steps(f(keys), root, 64)),
              built)


# ----------------------------------------------------------------------
# Bindings never travel
# ----------------------------------------------------------------------


INDEXES = {
    "rmi": lambda keys: RMIAsIndex(keys, layer2_size=64),
    "pgm-index": PGMIndex,
    "hist-tree": HistTree,
}


@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
@pytest.mark.parametrize("name", sorted(INDEXES))
def test_a_served_index_survives_a_round_trip(kernel_backend, case, name,
                                              clone):
    """The copy rebinds to its own arrays: the original's are freed and
    their memory filled with other keys before the copy serves."""
    keys, q = case["keys"], case["q"]
    index = INDEXES[name](keys.copy())
    index.serve_batch(q, q, q)  # binds, on cext
    twin = (pickle.loads(pickle.dumps(index)) if clone == "pickle"
            else copy.deepcopy(index))
    del index
    gc.collect()
    junk = [np.full(len(keys), 2**63 + i, dtype=np.uint64)
            for i in range(16)]
    oracle = np.searchsorted(keys, q).astype(np.int64)
    positions, starts, counts = twin.serve_batch(q, case["lows"],
                                                 case["highs"])
    np.testing.assert_array_equal(positions, oracle)
    np.testing.assert_array_equal(
        starts, np.searchsorted(keys, case["lows"]))
    np.testing.assert_array_equal(
        starts + counts, np.searchsorted(keys, case["highs"]))
    del junk


@pytest.mark.parametrize("form", ["rmi_packed", "pla", "sparse", "hist"])
def test_a_packed_form_rebinds_to_other_keys(kernel_backend, case, form):
    packed, keys, q = case[form], case["keys"], case["q"]
    rng = np.random.default_rng(7)
    other = np.sort(rng.integers(0, 2**62, len(keys), dtype=np.uint64))
    for k in (keys, other, keys):
        np.testing.assert_array_equal(kernel_backend.lookup(packed, k, q),
                                      np.searchsorted(k, q))


def test_threads_rebinding_one_packed_form_answer_their_own_keys(
        kernel_backend, case):
    """Four threads share one packed form, each with its own keys array
    passed strided, so every call converts a fresh copy and rebinds.
    The C call runs without the GIL while other threads rebind; each
    answer must still be ``searchsorted`` over the caller's keys."""
    packed, q = case["rmi_packed"], case["q"]
    rng = np.random.default_rng(11)
    arrays = [case["keys"]] + [
        np.sort(rng.integers(0, 2**62, len(case["keys"]), dtype=np.uint64))
        for _ in range(3)
    ]
    errors = []

    def worker(keys):
        strided = np.repeat(keys, 2)[::2]
        want = np.searchsorted(keys, q)
        for _ in range(150):
            if not np.array_equal(kernel_backend.rmi_lookup(
                    packed, strided, q), want):
                errors.append("wrong answer")
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in arrays]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_the_binding_is_cached_holds_its_arrays_and_never_pickles(case):
    packed = kernels.pack_rmi(case["rmi"])
    keys = case["keys"].copy()
    alive = weakref.ref(keys)
    args = packed.bind(keys)
    assert packed.bind(keys) is args
    del keys
    gc.collect()
    assert alive() is not None  # the binding keeps its keys alive
    for twin in (pickle.loads(pickle.dumps(packed)), copy.deepcopy(packed),
                 copy.copy(packed)):
        assert "_binding" not in twin.__dict__
        assert "_kernel_run" not in twin.__dict__


def test_bind_checks_what_the_kernels_index(case):
    packed = kernels.pack_rmi(case["rmi"])
    keys = case["keys"]
    with pytest.raises(ValueError):
        packed.bind(keys[:-1])
    with pytest.raises(TypeError):
        packed.bind(keys.astype(np.int64))
    with pytest.raises(TypeError):
        packed.bind(np.repeat(keys, 2)[::2])
    short = dataclasses.replace(packed, blo=packed.blo[:-1],
                                bhi=packed.bhi[:-1])
    with pytest.raises(ValueError):
        short.bind(keys)
    fortran = dataclasses.replace(packed,
                                  params=np.asfortranarray(packed.params))
    with pytest.raises(TypeError):
        fortran.bind(keys)


# ----------------------------------------------------------------------
# Length mismatches are refused on every backend
# ----------------------------------------------------------------------


def test_window_lengths_must_match_the_queries(kernel_backend, case):
    keys, q, lo, hi = case["keys"], case["q"], case["lo"], case["hi"]
    for bad_lo, bad_hi in ((lo[:-1], hi), (lo, hi[:-1]), (lo[:1], hi)):
        with pytest.raises(ValueError):
            kernel_backend.lower_bound_window(keys, q, bad_lo, bad_hi)


def test_delta_lengths_must_match(kernel_backend, case):
    dkeys, corr, base, q, table = (case["dkeys"], case["corr"],
                                   case["base"], case["q"], case["table"])
    for args in ((dkeys, corr[:-1], base, q, table),
                 (dkeys, corr, base[:-1], q, table),
                 (dkeys, corr, base[:1], q, table),
                 (dkeys, corr, base, q, table[:1])):
        with pytest.raises(ValueError):
            kernel_backend.delta_correct(*args)


def test_the_bucket_table_is_never_read_outside(kernel_backend, case):
    """Base positions outside ``[0, n]``, a table shorter than the base
    needs and table entries outside ``[0, len(delta)]`` are clamped into
    the table and the delta, on every backend alike; the table sits
    between poisoned entries that would change the answers if read."""
    dkeys, corr, q = case["dkeys"], case["corr"], case["q"]
    n, dn = len(case["keys"]), len(dkeys)
    base = np.concatenate([case["base"][:-4],
                           np.array([-1, -2**62, n + 64, 2**62])])
    for table in (case["table"], case["table"][:len(case["table"]) // 2],
                  case["table"][:2], np.array([-5, 2 * dn, 7, -1])):
        table = table.astype(np.int64)
        padded = np.concatenate([[dn], table, [0]]).astype(np.int64)
        got = kernel_backend.delta_correct(dkeys, corr, base, q,
                                           padded[1:-1])
        want = kernels.get_backend("numpy").delta_correct(
            dkeys, corr, base, q, table)
        _same(got, want)
    # With the full table, in-range positions answer the merged rank.
    rank = np.searchsorted(dkeys, q)
    inside = slice(0, len(q) - 4)
    _same(kernel_backend.delta_correct(dkeys, corr, case["base"], q,
                                       case["table"])[inside],
          (case["base"] + corr[rank])[inside])


def test_merge_delta_table_upkeep_stays_in_the_table(kernel_backend, case):
    """Batch lower bounds past the base's end, or below 0, are clamped
    into ``[0, n]``: the new keys count in the table's last bucket or
    in every one, the multiplicity runs are counted inside the base,
    and the new table has the old one's length, on every backend alike.
    The base keys and the delta arrays sit between poisoned neighbours
    equal to batch keys, which would change the answers if read."""
    keys, wkeys = case["keys"], case["wkeys"]
    n = len(keys)
    top = np.uint64(2**62 + 5)  # above every base key
    wkeys = np.concatenate([wkeys, [top, keys[0], keys[-1]]])
    wops = np.concatenate([case["wops"], [1, 0, 1]]).astype(np.int8)

    def poisoned(a, left, right):
        a = np.asarray(a)
        return np.concatenate([[left], a, [right]]).astype(a.dtype)[1:-1]

    base = poisoned(keys, keys[0], top)
    delta = tuple(poisoned(a, a[0], a[-1]) for a in (
        case["dkeys"], case["ops"], case["seqs"], case["born"],
        case["corr"], case["table"]))
    for lower in (np.full(len(wkeys), n + 10**6), np.full(len(wkeys), -70),
                  np.full(len(wkeys), 2**62), np.full(len(wkeys), n),
                  np.searchsorted(keys, wkeys)):
        batch = (wkeys, wops, lower.astype(np.int64))
        got = kernel_backend.merge_delta(delta, batch, 0, 1.0, base)
        want = kernels.get_backend("numpy").merge_delta(delta, batch, 0,
                                                        1.0, keys)
        _same(got, want)
        assert len(got[5]) == len(case["table"])


def test_range_bounds_must_pair_up(kernel_backend, case):
    q, lows = case["q"], case["lows"]
    for packed in (case["rmi_packed"], case["pla"], case["hist"]):
        with pytest.raises(ValueError):
            kernel_backend.serve(packed, case["keys"], q, lows, lows[:1])


# ----------------------------------------------------------------------
# The declared signatures
# ----------------------------------------------------------------------


_SCALARS = {"int64_t": ctypes.c_int64, "int32_t": ctypes.c_int32,
            "uint64_t": ctypes.c_uint64, "double": ctypes.c_double}


def test_every_array_slot_is_an_address():
    """``_SIGNATURES`` matches every exported C prototype: a pointer
    parameter is ``c_void_p``, a scalar its own width."""
    from repro.kernels.cext_backend import _C_SOURCE, _SIGNATURES

    prototypes = dict(re.findall(
        r"^(?:void|int64_t|int32_t) (repro_\w+)\(([^)]*)\)", _C_SOURCE,
        re.M))
    assert set(prototypes) == set(_SIGNATURES)
    for name, params in prototypes.items():
        want = [
            ctypes.c_void_p if "*" in p else _SCALARS[p.split()[0]]
            for p in (param.strip() for param in params.split(","))
        ]
        assert _SIGNATURES[name] == want, name


#: The element type of each array a ``*_run`` struct points into.
_ARRAYS = {"int8_t": np.int8, "double": np.float64, "int64_t": np.int64,
           "uint64_t": np.uint64}


def test_every_run_struct_matches_its_kernel_run():
    """A fused kernel reads its packed form through a C struct that
    :mod:`repro.kernels.binding` fills from ``KERNEL_RUN``: the two
    must agree on every field's name, order and type."""
    from repro.kernels.cext_backend import _C_SOURCE
    from repro.kernels.packed import PackedRMI
    from repro.kernels.packed_pla import PackedPLA
    from repro.kernels.packed_tree import PackedTree

    structs = {name: body for body, name in re.findall(
        r"typedef struct \{([^}]*)\} (\w+)_run;", _C_SOURCE)}
    forms = (PackedRMI, PackedPLA, PackedTree)
    assert set(structs) == {form.packed_kind for form in forms}
    for form in forms:
        fields = re.findall(r"(?:const )?(\w+) (\*?)(\w+);",
                            structs[form.packed_kind])
        want = [(name, kind) for name, kind in form.KERNEL_RUN]
        got = [(name, _ARRAYS[ctype] if pointer else _SCALARS[ctype])
               for ctype, pointer, name in fields]
        assert got == want, form.__name__


def test_extra_kernel_flags_join_the_digest_only_when_set(monkeypatch):
    """``REPRO_KERNELS_CFLAGS`` (a sanitizer build, say) rekeys the
    build cache, so such a library is never loaded as the default one;
    unset or empty, the digest is the source's and ``_CFLAGS``'."""
    import hashlib

    from repro.kernels import cext_backend as cb

    default = hashlib.sha256(
        (cb._C_SOURCE + "\0" + " ".join(cb._CFLAGS)).encode()
    ).hexdigest()[:16]
    monkeypatch.delenv("REPRO_KERNELS_CFLAGS", raising=False)
    assert cb._source_digest() == default
    monkeypatch.setenv("REPRO_KERNELS_CFLAGS", " ")
    assert cb._source_digest() == default
    monkeypatch.setenv("REPRO_KERNELS_CFLAGS", "-O1 -fsanitize=address")
    assert cb._source_digest() != default
    assert cb._extra_cflags() == ["-O1", "-fsanitize=address"]
