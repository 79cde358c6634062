"""Compiled C backend: gcc-built shared library loaded via ctypes.

This is the small C extension of ROADMAP item 4.  The kernel source
below is compiled once per source revision (output keyed by a SHA-256
of source + flags, so upgrades never load a stale library) with
``-O3 -ffp-contract=off`` -- contract
*off* matters: GCC's default of fused multiply-adds in ``-std=gnu``
mode would change last-ulp results of the polynomial evaluations and
break the bit-identical contract with the NumPy reference.  No
setuptools, no Python.h: the library is plain C called through
``ctypes``, so building needs nothing beyond a C compiler.

The C functions replay exactly the arithmetic of the NumPy backend
(:mod:`repro.kernels.numpy_backend`); positions are additionally
guaranteed equal by construction because the window search plus escape
repair always lands on the global ``searchsorted`` answer.

Availability: :func:`load` raises :class:`CExtUnavailable` when no C
compiler is present or compilation fails; the registry treats that as
"backend absent" and falls back.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from .base import BAD_OPS, PACKED_DISPATCH, KernelBackend, check_compact, \
    check_delta, check_merge, check_windows, table_size, write_ops
from .binding import address
from .packed import PACKABLE_MODEL_CODES, PackedRMI
from .packed_pla import PackedPLA
from .packed_tree import PackedTree

__all__ = ["CExtBackend", "CExtUnavailable", "load"]


class CExtUnavailable(RuntimeError):
    """No C compiler, or the kernel library failed to build/load."""


_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Lower bound (numpy.searchsorted side="left") on the half-open range
 * [left, right). */
static int64_t lower_bound(const uint64_t *keys, int64_t left,
                           int64_t right, uint64_t q) {
    while (left < right) {
        int64_t mid = (int64_t)(((uint64_t)left + (uint64_t)right) >> 1);
        /* Mask-select halving step: the comparison outcome is a coin
         * flip on real keys, so a branch here mispredicts roughly
         * every other probe and the flush costs more than the probe.
         * Compilers re-branch ternaries, hence the explicit masks --
         * pure ALU selects, nothing to predict, same values as the
         * branchy form bit for bit. */
        int64_t m = -(int64_t)(keys[mid] < q);
        left = (m & (mid + 1)) | (~m & left);
        right = (m & right) | (~m & mid);
    }
    return left;
}

/* Upper bound (numpy.searchsorted side="right") on the half-open range
 * [left, right). */
static int64_t upper_bound(const uint64_t *keys, int64_t left,
                           int64_t right, uint64_t q) {
    while (left < right) {
        int64_t mid = (int64_t)(((uint64_t)left + (uint64_t)right) >> 1);
        int64_t m = -(int64_t)(keys[mid] <= q);
        left = (m & (mid + 1)) | (~m & left);
        right = (m & right) | (~m & mid);
    }
    return left;
}

/* Queries per block: the per-lane window state must stay L1-resident
 * alongside the touched key lines, and a block is the unit of
 * prefetch pipelining (phase k computes addresses and prefetches for
 * phase k+1 across the whole block, so by the time a line is probed
 * its miss has already been in flight for ~BLOCK iterations). */
#define BLOCK 256

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define PREFETCH(addr)
#endif

/* Branchy lower bound: computes the same values as lower_bound(), but
 * with a real conditional branch per probe.  On windows whose answer
 * sits at a *predictable* offset -- a well-fitted RMI's labs windows,
 * where the prediction error is usually 0 or 1, so every query walks
 * the same probe path -- the branch predictor learns that path and the
 * core speculates ahead through the whole chain of loads, which the
 * mask-select form (a serial load->ALU->address dependence) cannot do.
 * When probe outcomes are coin flips this is ~3x *slower* than the
 * mask-select breadth-first sweep; lb_block picks per block. */
static int64_t lower_bound_spec(const uint64_t *keys, int64_t left,
                                int64_t right, uint64_t q) {
    while (left < right) {
        int64_t mid = (int64_t)(((uint64_t)left + (uint64_t)right) >> 1);
        if (keys[mid] < q) left = mid + 1;
        else right = mid;
    }
    return left;
}

/* Windows at or under this width with no uniform-offset hint take the
 * speculative depth-first path: tight windows come from models whose
 * predictions are usually exact, which is exactly when the branch
 * predictor wins.  Wide windows mean spread-out errors, i.e. coin-flip
 * probes, where the mask-select sweep is ~3x faster. */
#define TIGHT_MAX_WIDTH 32

/* One window-restricted lower bound with interval-escape repair: the
 * compiled twin of core/search.batch_lower_bound_window for a single
 * query.  The repair searches are restricted to [0, lo) / [hi+1, n),
 * which provably equals the unrestricted searchsorted the NumPy path
 * uses: a left escape implies the global answer is < lo, a right
 * escape implies it is >= hi+1.  Escapes stay scalar, and they use the
 * *branchy* search even though their probe outcomes are coin flips: a
 * repair is one lone serial descent over a huge range (cold loads,
 * ~log2(n) levels), with no sibling lanes to overlap against, so
 * speculative execution down the mispredicted-but-prefetching branch
 * path is the only latency hiding available -- the mask-select form
 * serializes the whole chain of cache misses and loses ~10ns/lookup
 * overall once even ~10% of queries escape (absent keys overshooting
 * labs bounds).  Search and repair fuse into one register-resident
 * pass per lane -- splitting them into separate block loops measurably
 * loses ~10ns/lookup to the extra loads and stores. */
static inline int64_t lb_window_one(const uint64_t *keys, int64_t n,
                                    uint64_t q, int64_t lo, int64_t hi) {
    int64_t res = lower_bound_spec(keys, lo, hi + 1, q);
    if (res == lo && lo > 0 && keys[lo - 1] >= q) {
        res = lower_bound_spec(keys, 0, lo, q);
    } else if (res == hi + 1 && hi + 1 < n) {
        res = lower_bound_spec(keys, hi + 1, n, q);
    }
    return res;
}

/* The breadth-first sweep: every lane takes one mask-select halving
 * step of lower_bound() per pass over [left[i], right[i]), until all
 * converge; left[i] ends at the lane's lower bound in its window. */
static inline void sweep_block(const uint64_t *keys, const uint64_t *q,
                               int64_t *left, int64_t *right, int64_t c) {
    int active = 0;
    for (int64_t i = 0; i < c; i++) {
        active |= (left[i] < right[i]);
    }
    while (active) {
        active = 0;
        for (int64_t i = 0; i < c; i++) {
            int64_t l = left[i], r = right[i];
            if (l >= r) continue;  /* converged lanes: cheap skip */
            int64_t mid = (int64_t)(((uint64_t)l + (uint64_t)r) >> 1);
            int64_t m = -(int64_t)(keys[mid] < q[i]);
            left[i] = (m & (mid + 1)) | (~m & l);
            right[i] = (m & r) | (~m & mid);
            active |= (left[i] < right[i]);
        }
    }
}

/* Window search over one block, two strategies sharing one contract:
 * per lane the arithmetic is exactly lower_bound()'s -- same midpoint
 * expression, same comparison, same selected values -- so the
 * converged position, and the escape repair applied to it, are
 * bit-identical to the staged NumPy path whichever strategy runs.
 *
 * The default strategy is breadth-first and branch-free: all lanes
 * advance one mask-select halving step per sweep, so there is no
 * data-dependent branch to flush and within a sweep the probes of
 * different lanes are independent loads the out-of-order core overlaps
 * freely.  That wins whenever the answer sits at an unpredictable
 * offset in its window (``uniform`` hint: +/-eps PLA windows, tree
 * node gaps).  Blocks of tight windows without the hint take the
 * speculative depth-first path instead -- see lower_bound_spec. */
static void lb_block(const uint64_t *keys, int64_t n, const uint64_t *q,
                     const int64_t *lo, const int64_t *hi, int64_t c,
                     int64_t *out, int uniform) {
    if (!uniform) {
        int64_t maxw = 0;
        for (int64_t i = 0; i < c; i++) {
            int64_t w = hi[i] - lo[i] + 1;
            maxw = w > maxw ? w : maxw;
        }
        if (maxw <= TIGHT_MAX_WIDTH) {
            for (int64_t i = 0; i < c; i++) {
                PREFETCH(keys +
                         (int64_t)(((uint64_t)lo[i] + (uint64_t)hi[i] + 1)
                                   >> 1));
            }
            for (int64_t i = 0; i < c; i++) {
                out[i] = lb_window_one(keys, n, q[i], lo[i], hi[i]);
            }
            return;
        }
    }
    int64_t left[BLOCK], right[BLOCK];
    for (int64_t i = 0; i < c; i++) {
        left[i] = lo[i];
        right[i] = hi[i] + 1;
    }
    sweep_block(keys, q, left, right, c);
    /* Escape repair for the breadth-first strategy (see lb_window_one
     * for the contract, the proof, and why repairs are branchy). */
    for (int64_t i = 0; i < c; i++) {
        int64_t res = left[i];
        if (res == lo[i] && lo[i] > 0 && keys[lo[i] - 1] >= q[i]) {
            res = lower_bound_spec(keys, 0, lo[i], q[i]);
        } else if (res == hi[i] + 1 && hi[i] + 1 < n) {
            res = lower_bound_spec(keys, hi[i] + 1, n, q[i]);
        }
        out[i] = res;
    }
}

/* One model evaluation; codes and row layout are core/models.py's SoA
 * registry (PACKABLE_MODEL_CODES).  Formulas are copied from each
 * family's eval_soa, same operation order for bit-identity. */
static double eval_model(int8_t code, const double *p, uint64_t q) {
    switch (code) {
    case 0:  /* ConstantModel */
        return p[0];
    case 1:  /* LinearRegression */
    case 2:  /* LinearSpline */
        return p[0] * (double)q + p[1];
    case 3: {  /* CubicSpline (normalized Horner form) */
        double t = ((double)q - p[4]) * p[5];
        return ((p[0] * t + p[1]) * t + p[2]) * t + p[3];
    }
    case 4: {  /* Radix: (x << a) >> b; rs >= 64 means "predict 0" */
        double rs = p[1];
        if (rs >= 64.0) return 0.0;
        uint64_t ls = (uint64_t)p[0];
        if (ls >= 64) return 0.0;  /* unreachable by construction */
        return (double)((q << ls) >> (uint64_t)rs);
    }
    }
    return 0.0;
}

/* The packed forms' argument runs, field for field their KERNEL_RUN
 * (repro.kernels.binding builds one per packed form): a fused kernel
 * takes its packed form as one address. */
typedef struct {
    const int8_t *codes;
    const double *params;
    const int64_t *offsets;
    int64_t num_layers;
    const double *scales;
    int32_t scaled;
    int32_t bkind;
    const int64_t *blo;
    const int64_t *bhi;
} rmi_run;

typedef struct {
    const uint64_t *seg_keys;
    const double *slopes;
    const double *icepts;
    const int64_t *offsets;
    int64_t num_levels;
    int32_t kind;
    int64_t eps;
    int64_t eps_internal;
} pla_run;

typedef struct {
    int32_t kind;
    const uint64_t *entry_keys;
    const int64_t *positions;
    int64_t num_entries;
    const uint64_t *node_lo;
    const int64_t *node_shift;
    const int64_t *node_base;
    const int64_t *node_pref;
    const int64_t *node_child;
    int64_t num_bins;
    uint64_t min_key;
} tree_run;

/* Equation 3: route one query through the inner layers.  Matches
 * RMI._assignments: scale (unless trained on model indexes), nan -> 0,
 * clamp to [0, fanout-1] in float space, floor, cast. */
static int64_t route_leaf(const rmi_run *r, uint64_t q) {
    int64_t j = 0;
    for (int64_t d = 0; d + 1 < r->num_layers; d++) {
        int64_t row = r->offsets[d] + j;
        double pred = eval_model(r->codes[row], r->params + row * 6, q);
        double est = r->scaled ? pred : pred * r->scales[d];
        if (isnan(est) || est < 0.0) est = 0.0;
        double cap = (double)(r->offsets[d + 2] - r->offsets[d + 1] - 1);
        if (est > cap) est = cap;
        j = (int64_t)floor(est);
    }
    return j;
}

/* Equation 4: leaf position estimate, clamped to [0, n-1] (truncating
 * cast == astype(int64) for non-negative values). */
static int64_t predict_pos(const rmi_run *r, int64_t n, int64_t leaf,
                           uint64_t q) {
    int64_t row = r->offsets[r->num_layers - 1] + leaf;
    double est = eval_model(r->codes[row], r->params + row * 6, q);
    if (isnan(est) || est < 0.0) est = 0.0;
    double cap = (double)(n - 1);
    if (est > cap) est = cap;
    return (int64_t)est;
}

/* Fused RMI lookup over a query batch, in three block-wide phases so
 * every random access is prefetched one phase (~BLOCK queries) before
 * it is consumed: (1) route through the inner layers -- root params
 * are hot, the landing leaf's param row and error-bound rows are only
 * now known, so prefetch them; (2) predict + window arithmetic on
 * those now-resident rows, prefetching each window's first probe
 * line; (3) the breadth-first block search on the already-in-flight
 * lines.  bkind: 0 none, 1 per-model, 2 global (blo/bhi row 0).  The
 * run is copied to a local, which no store through out can alias. */
static void rmi_batch(const uint64_t *keys, int64_t n, const void *run,
                      const uint64_t *queries, int64_t m, int64_t *out) {
    const rmi_run r = *(const rmi_run *)run;
    int64_t leaf_a[BLOCK], wlo[BLOCK], whi[BLOCK];
    int64_t leaf_off = r.offsets[r.num_layers - 1];
    for (int64_t b = 0; b < m; b += BLOCK) {
        int64_t c = m - b < BLOCK ? m - b : BLOCK;
        for (int64_t i = 0; i < c; i++) {
            int64_t leaf = route_leaf(&r, queries[b + i]);
            leaf_a[i] = leaf;
            PREFETCH(r.params + (leaf_off + leaf) * 6);
            if (r.bkind == 1) {
                PREFETCH(r.blo + leaf);
                PREFETCH(r.bhi + leaf);
            }
        }
        for (int64_t i = 0; i < c; i++) {
            uint64_t q = queries[b + i];
            int64_t leaf = leaf_a[i];
            int64_t pos = predict_pos(&r, n, leaf, q);
            int64_t lo, hi;
            if (r.bkind == 0) {
                lo = 0; hi = n - 1;
            } else if (r.bkind == 1) {
                lo = pos + r.blo[leaf]; hi = pos + r.bhi[leaf];
            } else {
                lo = pos + r.blo[0]; hi = pos + r.bhi[0];
            }
            if (lo < 0) lo = 0; else if (lo > n - 1) lo = n - 1;
            if (hi < 0) hi = 0; else if (hi > n - 1) hi = n - 1;
            wlo[i] = lo; whi[i] = hi;
        }
        lb_block(keys, n, queries + b, wlo, whi, c, out + b, 0);
    }
}

/* One PLA query's data window, replaying the NumPy backend's PLA
 * window arithmetic for the matching baseline.  kind: 0 PGM-style
 * multi-level descent (PGMIndex / CompressedPGM), 1 predecessor segment
 * routing (FITing-Tree), 2 spline-knot interpolation (RadixSpline).
 * The float pipeline copies each baseline's operation order exactly;
 * "nan or negative -> 0, over cap -> cap" is
 * np.clip(np.nan_to_num(x), 0, cap) for the kinds that apply it (the
 * spline path, like its NumPy twin, clips without a nan_to_num --
 * spline interpolation over finite knots cannot produce one). */
static void pla_window_one(const pla_run *r, int64_t n, uint64_t q,
                           int64_t *wlo, int64_t *whi) {
    const uint64_t *seg_keys = r->seg_keys;
    const double *slopes = r->slopes, *icepts = r->icepts;
    const int64_t *offsets = r->offsets;
    int64_t eps = r->eps;
    double qf = (double)q;
    int64_t lo, hi;
    if (r->kind == 0) {  /* PLA_DESCEND */
        int64_t seg = 0;
        for (int64_t depth = r->num_levels - 1; depth > 0; depth--) {
            int64_t row = offsets[depth] + seg;
            int64_t bl = offsets[depth - 1];
            int64_t msz = offsets[depth] - bl;
            double pred = icepts[row] +
                slopes[row] * (qf - (double)seg_keys[row]);
            if (isnan(pred) || pred < 0.0) pred = 0.0;
            double cap = (double)(msz - 1);
            if (pred > cap) pred = cap;
            int64_t center = (int64_t)pred;
            int64_t slo = center - r->eps_internal;
            if (slo < 0) slo = 0;
            int64_t shi = center + r->eps_internal;
            if (shi > msz - 1) shi = msz - 1;
            int64_t lb = lower_bound(seg_keys + bl, slo, shi + 1, q);
            /* Predecessor semantics: the segment whose first key <= q. */
            int64_t cl = lb > msz - 1 ? msz - 1 : lb;
            int exact = lb <= shi && seg_keys[bl + cl] == q;
            seg = exact ? lb : lb - 1;
            if (seg < 0) seg = 0;
            else if (seg > msz - 1) seg = msz - 1;
        }
        int64_t row = offsets[0] + seg;
        double pred = icepts[row] +
            slopes[row] * (qf - (double)seg_keys[row]);
        if (isnan(pred) || pred < 0.0) pred = 0.0;
        double cap = (double)(n - 1);
        if (pred > cap) pred = cap;
        int64_t center = (int64_t)pred;
        lo = center - eps;
        if (lo < 0) lo = 0;
        hi = center + eps;
        if (hi > n - 1) hi = n - 1;
    } else if (r->kind == 1) {  /* PLA_SEGMENT */
        int64_t nseg = offsets[1];
        int64_t idx = upper_bound(seg_keys, 0, nseg, q) - 1;
        int64_t seg = idx;
        if (seg < 0) seg = 0;
        else if (seg > nseg - 1) seg = nseg - 1;
        double pred = icepts[seg] +
            slopes[seg] * (qf - (double)seg_keys[seg]);
        if (isnan(pred) || pred < 0.0) pred = 0.0;
        double cap = (double)(n - 1);
        if (pred > cap) pred = cap;
        int64_t center = (int64_t)pred;
        lo = center - eps;
        if (lo < 0) lo = 0;
        hi = center + eps;
        if (hi > n - 1) hi = n - 1;
        if (idx < 0) {  /* query precedes every segment */
            lo = 0;
            hi = 0;
        }
    } else {  /* PLA_SPLINE */
        int64_t mkn = offsets[1];
        int64_t idx = upper_bound(seg_keys, 0, mkn, q);
        int64_t left = idx - 1;
        if (left < 0) left = 0;
        else if (left > mkn - 1) left = mkn - 1;
        int64_t right = idx;
        if (right > mkn - 1) right = mkn - 1;
        double x0 = (double)seg_keys[left];
        double x1 = (double)seg_keys[right];
        double dx = x1 - x0;
        double frac = dx > 0.0 ? (qf - x0) / dx : 0.0;
        double pred = icepts[left] + (icepts[right] - icepts[left]) * frac;
        if (pred < 0.0) pred = 0.0;
        double cap = (double)(n - 1);
        if (pred > cap) pred = cap;
        int64_t center = (int64_t)pred;
        lo = center - eps;
        if (lo < 0) lo = 0;
        hi = center + eps;
        if (hi > n - 1) hi = n - 1;
    }
    *wlo = lo;
    *whi = hi;
}

/* One tree query's data window.  kind: 0 sparse B+-tree directory
 * (predecessor over the sampled keys, window spans the entry's gap),
 * 1 Hist-Tree shift-descent over the breadth-first node arrays --
 * both replay the NumPy backend's tree windows exactly (its grouped
 * descent computes the same per-query function). */
static void tree_window_one(const tree_run *r, int64_t n, uint64_t q,
                            int64_t *wlo, int64_t *whi) {
    const int64_t *positions = r->positions;
    int64_t num_bins = r->num_bins;
    int64_t lo, hi;
    if (r->kind == 0) {  /* TREE_SPARSE */
        int64_t num_entries = r->num_entries;
        int64_t entry = upper_bound(r->entry_keys, 0, num_entries, q) - 1;
        int64_t safe = entry < 0 ? 0 : entry;
        lo = entry >= 0 ? positions[safe] : 0;
        hi = safe + 1 < num_entries ? positions[safe + 1] : n - 1;
        if (entry < 0) hi = positions[0];
    } else {  /* TREE_HIST */
        lo = 0;
        hi = 0;  /* queries below the key space keep the [0, 0] window */
        if (q >= r->min_key) {
            uint64_t off = q - r->min_key;
            int64_t node = 0;
            for (;;) {
                uint64_t raw = (off - r->node_lo[node]) >>
                    (uint64_t)r->node_shift[node];
                if (raw >= (uint64_t)num_bins) {
                    /* Beyond the covered range: answer is at the end. */
                    lo = n - 1;
                    hi = n - 1;
                    break;
                }
                int64_t b = (int64_t)raw;
                int64_t child = r->node_child[node * num_bins + b];
                if (child >= 0) {
                    node = child;
                    continue;
                }
                const int64_t *pref = r->node_pref + node * (num_bins + 1);
                int64_t tlo = r->node_base[node] + pref[b];
                int64_t thi = r->node_base[node] + pref[b + 1];
                lo = tlo < n - 1 ? tlo : n - 1;
                hi = thi < n - 1 ? thi : n - 1;
                break;
            }
        }
    }
    *wlo = lo;
    *whi = hi;
}

/* Fused PLA lookup over a query batch: block phase 1 computes every
 * lane's window (segment tables are small and stay hot); phase 2 is
 * the breadth-first block search, which issues and overlaps the data
 * probes itself. */
static void pla_batch(const uint64_t *keys, int64_t n, const void *run,
                      const uint64_t *queries, int64_t m, int64_t *out) {
    const pla_run r = *(const pla_run *)run;
    int64_t wlo[BLOCK], whi[BLOCK];
    for (int64_t b = 0; b < m; b += BLOCK) {
        int64_t c = m - b < BLOCK ? m - b : BLOCK;
        for (int64_t i = 0; i < c; i++) {
            pla_window_one(&r, n, queries[b + i], &wlo[i], &whi[i]);
        }
        lb_block(keys, n, queries + b, wlo, whi, c, out + b, 1);
    }
}

/* Fused tree lookup over a query batch, same two-phase block shape. */
static void tree_batch(const uint64_t *keys, int64_t n, const void *run,
                       const uint64_t *queries, int64_t m, int64_t *out) {
    const tree_run r = *(const tree_run *)run;
    int64_t wlo[BLOCK], whi[BLOCK];
    for (int64_t b = 0; b < m; b += BLOCK) {
        int64_t c = m - b < BLOCK ? m - b : BLOCK;
        for (int64_t i = 0; i < c; i++) {
            tree_window_one(&r, n, queries[b + i], &wlo[i], &whi[i]);
        }
        lb_block(keys, n, queries + b, wlo, whi, c, out + b, 1);
    }
}

void repro_lower_bound_window(const uint64_t *keys, int64_t n,
                              const uint64_t *queries, int64_t m,
                              const int64_t *lo, const int64_t *hi,
                              int64_t *out) {
    for (int64_t b = 0; b < m; b += BLOCK) {
        int64_t c = m - b < BLOCK ? m - b : BLOCK;
        lb_block(keys, n, queries + b, lo + b, hi + b, c, out + b, 0);
    }
}

/* Base positions per bucket of the delta's bucket table, as a shift
 * (repro.kernels.base.BUCKET_SHIFT). */
#define BUCKET_SHIFT 6

/* Writable-tier merged lookup completion: rank every query in the
 * sorted delta key array and add the per-rank position correction to
 * the caller-supplied base answer p.  table[b] (tn entries) counts the
 * delta keys whose base lower bound is below b << BUCKET_SHIFT: every
 * delta key before table[p >> BUCKET_SHIFT] is below the query and
 * none from table[(p >> BUCKET_SHIFT) + 1] on is, so the lower bound
 * inside that window is the rank, with no escape repair.  The bucket
 * is clamped into the table and the window into the delta, so no
 * input reads outside either.  The ranks sit at unpredictable offsets,
 * so each block takes the breadth-first sweep (prefetching the table
 * rows or the windows' first probes measured no faster). */
void repro_delta_correct(const uint64_t *delta_keys, int64_t dn,
                         const int64_t *corr,
                         const int64_t *base_pos,
                         const uint64_t *queries, int64_t m,
                         const int64_t *table, int64_t tn,
                         int64_t *out) {
    int64_t left[BLOCK], right[BLOCK];
    for (int64_t b = 0; b < m; b += BLOCK) {
        int64_t c = m - b < BLOCK ? m - b : BLOCK;
        for (int64_t i = 0; i < c; i++) {
            int64_t k = base_pos[b + i] >> BUCKET_SHIFT;
            k = k < 0 ? 0 : k > tn - 2 ? tn - 2 : k;
            int64_t lo = table[k], hi = table[k + 1];
            left[i] = lo < 0 ? 0 : lo > dn ? dn : lo;
            right[i] = hi < left[i] ? left[i] : hi > dn ? dn : hi;
        }
        sweep_block(delta_keys, queries + b, left, right, c);
        for (int64_t i = 0; i < c; i++) {
            out[b + i] = base_pos[b + i] + corr[left[i]];
        }
    }
}

/* Lower bound of q in keys[i, n), searched outward from i in doubling
 * steps: O(log d) probes when the answer is d keys past i. */
static int64_t gallop(const uint64_t *keys, int64_t i, int64_t n,
                      uint64_t q) {
    int64_t lo = i, hi = i, step = 1;
    while (hi < n && keys[hi] < q) {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    return lower_bound(keys, lo, hi < n ? hi : n, q);
}

/* Upper bound of q in keys[i, n), searched outward from i like
 * gallop(): from a key's base lower bound, the end of its run of
 * copies, usually one or two probes. */
static int64_t gallop_past(const uint64_t *keys, int64_t i, int64_t n,
                           uint64_t q) {
    int64_t lo = i, hi = i, step = 1;
    while (hi < n && keys[hi] <= q) {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    return upper_bound(keys, lo, hi < n ? hi : n, q);
}

/* One write of a batch: its key and its place in the write stream. */
typedef struct {
    uint64_t key;
    int64_t at;
} stream_write;

/* Stable sort of w[0, m) by key: a least-significant-digit radix sort,
 * one counting pass per byte of the key between w and tmp (m entries
 * each), skipping a byte every key shares.  Returns the array holding
 * the result. */
static stream_write *sort_writes(stream_write *w, stream_write *tmp,
                                 int64_t m) {
    int64_t count[8][256];
    memset(count, 0, sizeof count);
    for (int64_t j = 0; j < m; j++) {
        for (int d = 0; d < 8; d++) {
            count[d][(w[j].key >> (8 * d)) & 255]++;
        }
    }
    for (int d = 0; d < 8; d++) {
        int64_t *c = count[d], sum = 0;
        if (c[(w[0].key >> (8 * d)) & 255] == m) continue;
        for (int b = 0; b < 256; b++) {
            int64_t x = c[b];
            c[b] = sum;
            sum += x;
        }
        for (int64_t j = 0; j < m; j++) {
            tmp[c[(w[j].key >> (8 * d)) & 255]++] = w[j];
        }
        stream_write *t = w;
        w = tmp;
        tmp = t;
    }
    return w;
}

/* Writable-tier write: one raw write batch -- keys bk, ops bops and each
 * key's base lower bound blower, bn writes in stream order, the i-th
 * carrying sequence number seq_start + i and born stamp now -- merged
 * into the sorted, per-key-unique delta buffer (keys, ops, seqs, born
 * stamps, its correction dcorr -- dn + 1 entries: insert entries minus
 * base multiplicities among the first i -- and its bucket table dtab,
 * tn entries; see repro_delta_correct).  Three passes:
 *  1. the batch is sorted stably by key and each key keeps its last
 *     write;
 *  2. each kept key's base multiplicity is its run of copies in the n
 *     sorted base keys from its lower bound (clamped into [0, n]),
 *     counted by galloping while the lookup that gave the bound has
 *     left those keys in cache;
 *  3. one linear merge: each delta run between two batch keys is found
 *     by galloping and block-copied, its correction the old one
 *     shifted by what the batch added before it; a batch entry
 *     replaces the delta entry of its key but keeps the older born
 *     stamp; the table is copied along, each bucket shifted by the new
 *     keys whose base lower bound lies in an earlier bucket.
 * The outputs hold dn + bn entries (ocorr one more, otab tn); returns
 * how many were written, or, having written nothing, -2 when an op is
 * neither 0 nor 1 and -1 when the sort's scratch cannot be allocated. */
int64_t repro_merge_delta(const uint64_t *dk, const int8_t *dops,
                          const int64_t *dseq, const double *dborn,
                          const int64_t *dcorr, int64_t dn,
                          const int64_t *dtab, int64_t tn,
                          const uint64_t *bk, const int8_t *bops,
                          const int64_t *blower, int64_t bn,
                          int64_t seq_start, double now,
                          const uint64_t *base, int64_t n,
                          uint64_t *ok, int8_t *oops, int64_t *oseq,
                          double *oborn, int64_t *ocorr, int64_t *otab) {
    stream_write *scratch = NULL, *w = NULL;
    int64_t *lower = NULL, *share = NULL, m = 0;
    if (bn) {
        scratch = malloc((size_t)bn * 2 * sizeof *scratch);
        if (scratch == NULL) return -1;
        int bad = 0;
        for (int64_t j = 0; j < bn; j++) {
            scratch[j].key = bk[j];
            scratch[j].at = j;
            bad |= bops[j] & ~1;
        }
        if (bad) {
            free(scratch);
            return -2;
        }
        w = sort_writes(scratch, scratch + bn, bn);
        for (int64_t j = 0; j < bn; j++) {
            if (j + 1 == bn || w[j + 1].key != w[j].key) w[m++] = w[j];
        }
        /* The other half of the scratch holds the kept writes' lower
         * bounds and correction shares. */
        lower = (int64_t *)(w == scratch ? scratch + bn : scratch);
        share = lower + m;
        for (int64_t j = 0; j < m; j++) {
            int64_t at = w[j].at, lo = blower[at];
            lo = lo < 0 ? 0 : lo > n ? n : lo;
            lower[j] = lo;
            share[j] = (bops[at] == 1) - (gallop_past(base, lo, n, w[j].key)
                                          - lo);
        }
    }
    int64_t i = 0, o = 0, t = 0, added = 0;
    ocorr[0] = 0;
    for (int64_t j = 0; j <= m; j++) {
        int64_t start = i;
        i = j < m ? gallop(dk, i, dn, w[j].key) : dn;
        int64_t len = i - start, shift = ocorr[o] - dcorr[start];
        if (len) {
            memcpy(ok + o, dk + start, (size_t)len * sizeof *ok);
            memcpy(oops + o, dops + start, (size_t)len * sizeof *oops);
            memcpy(oseq + o, dseq + start, (size_t)len * sizeof *oseq);
            memcpy(oborn + o, dborn + start, (size_t)len * sizeof *oborn);
        }
        for (int64_t k = 1; k <= len; k++) {
            ocorr[o + k] = dcorr[start + k] + shift;
        }
        o += len;
        if (j == m) break;
        double born = now;
        if (i < dn && dk[i] == w[j].key) {
            if (dborn[i] < born) born = dborn[i];
            i++;
        } else {
            /* A new key: the buckets up to its base lower bound's do
             * not count it (clamped into the table, never backwards). */
            int64_t upto = (lower[j] >> BUCKET_SHIFT) + 1;
            upto = upto < t ? t : upto > tn ? tn : upto;
            for (; t < upto; t++) {
                otab[t] = dtab[t] + added;
            }
            added++;
        }
        ok[o] = w[j].key;
        oops[o] = bops[w[j].at];
        oseq[o] = seq_start + w[j].at;
        oborn[o] = born;
        ocorr[o + 1] = ocorr[o] + share[j];
        o++;
    }
    for (; t < tn; t++) {
        otab[t] = dtab[t] + added;
    }
    free(scratch);
    return o;
}

/* Writable-tier publication: the delta entries newer than a rebuild's
 * watermark, with their correction and bucket table against the base
 * rebuilt over the rebuild's snapshot (its n sorted keys, base).  An
 * entry whose key the snapshot's delta holds (sk, sops) has the
 * multiplicity the snapshot gave it there (1 for an insert, else 0);
 * any other keeps its old base multiplicity, so its share of the
 * correction is the old one.  A key's base lower bound is below
 * t << BUCKET_SHIFT exactly when the key is at most the base key just
 * before that position, so merging those keys (every 64th) with the
 * kept keys counts each bucket without searching the base; buckets
 * past the base's end count every kept key.  The outputs hold dn
 * entries (ocorr one more, otab (n >> BUCKET_SHIFT) + 2); returns how
 * many were written. */
int64_t repro_compact_delta(const uint64_t *dk, const int8_t *dops,
                            const int64_t *dseq, const double *dborn,
                            const int64_t *dcorr, int64_t dn,
                            const uint64_t *sk, const int8_t *sops,
                            int64_t sn, int64_t watermark,
                            const uint64_t *base, int64_t n,
                            uint64_t *ok, int8_t *oops, int64_t *oseq,
                            double *oborn, int64_t *ocorr, int64_t *otab) {
    int64_t j = 0, o = 0, t = 1, tn = (n >> BUCKET_SHIFT) + 2;
    ocorr[0] = 0;
    otab[0] = 0;
    for (int64_t i = 0; i < dn; i++) {
        if (dseq[i] <= watermark) continue;
        while (t < tn - 1 && base[(t << BUCKET_SHIFT) - 1] < dk[i]) {
            /* The sampled keys lie 512 bytes apart: fetch ahead. */
            if (t + 16 < tn - 1) {
                PREFETCH(base + ((t + 16) << BUCKET_SHIFT) - 1);
            }
            otab[t++] = o;
        }
        j = gallop(sk, j, sn, dk[i]);
        int64_t share = dcorr[i + 1] - dcorr[i];
        if (j < sn && sk[j] == dk[i]) {
            share = (dops[i] == 1) - (sops[j] == 1);
        }
        ok[o] = dk[i];
        oops[o] = dops[i];
        oseq[o] = dseq[i];
        oborn[o] = dborn[i];
        ocorr[o + 1] = ocorr[o] + share;
        o++;
    }
    for (; t < tn; t++) {
        otab[t] = o;
    }
    return o;
}

/* Writable-tier snapshot: the sorted base keys merged with the sorted,
 * per-key-unique delta in one linear pass, resumable.  The base run
 * below each delta key is copied whole, every base copy of the delta
 * key is skipped, and an insert (op != 0) writes the key once.  state
 * holds {base keys consumed, delta entries consumed, keys written}; a
 * call consumes at most budget base keys and delta entries in all.
 * Writes at most cap keys.  Returns 1 when the merge is complete, 0
 * when it stopped on the budget (call again with the same state), -1
 * when the live keys exceed cap (the caller counts them from prefix
 * sums it holds, so that means inconsistent input). */
int32_t repro_merge_live(const uint64_t *base, int64_t n,
                         const uint64_t *delta_keys,
                         const int8_t *delta_ops, int64_t dn,
                         uint64_t *out, int64_t cap, int64_t *state,
                         int64_t budget) {
    int64_t i = state[0], j = state[1], o = state[2];
    int64_t end = i + j + budget;
    int32_t done = 0;
    for (;;) {
        int64_t stop = end - j < n ? end - j : n;
        int64_t start = i;
        if (j < dn) {
            while (i < stop && base[i] < delta_keys[j]) i++;
        } else {
            i = stop;
        }
        if (i - start > cap - o) return -1;
        if (i > start) {
            memcpy(out + o, base + start, (size_t)(i - start) * sizeof *out);
        }
        o += i - start;
        if (j == dn) {
            done = i == n;
            break;
        }
        /* Stop on the budget inside a run, inside the skipped copies of
         * the delta key, or before the delta entry itself. */
        if (i < n && base[i] < delta_keys[j]) break;
        while (i < stop && base[i] == delta_keys[j]) i++;
        if ((i < n && base[i] == delta_keys[j]) || i + j == end) break;
        if (delta_ops[j]) {
            if (o == cap) return -1;
            out[o++] = delta_keys[j];
        }
        j++;
    }
    state[0] = i;
    state[1] = j;
    state[2] = o;
    return done;
}

void repro_rmi_predict(const rmi_run *run, int64_t n,
                       const uint64_t *queries, int64_t m,
                       int64_t *ids_out, int64_t *pos_out) {
    const rmi_run r = *run;
    for (int64_t i = 0; i < m; i++) {
        int64_t leaf = route_leaf(&r, queries[i]);
        ids_out[i] = leaf;
        pos_out[i] = predict_pos(&r, n, leaf, queries[i]);
    }
}

/* The fused serve of each packed family: point positions, range starts
 * and range counts in one call -- three batch passes of the family's
 * lookup (rmi_batch, pla_batch, tree_batch) without ever returning to
 * Python.  A lookup is a serve with no ranges (mr = 0, NULL bounds).
 * Returns -1, having written nothing, when a range's high is below its
 * low, else 0. */
typedef void (*batch_fn)(const uint64_t *keys, int64_t n, const void *run,
                         const uint64_t *queries, int64_t m, int64_t *out);

static int32_t serve(batch_fn batch, const uint64_t *keys, int64_t n,
                     const void *run, const uint64_t *points, int64_t mp,
                     const uint64_t *lows, const uint64_t *highs,
                     int64_t mr, int64_t *pos_out, int64_t *start_out,
                     int64_t *count_out) {
    for (int64_t i = 0; i < mr; i++) {
        if (highs[i] < lows[i]) return -1;
    }
    batch(keys, n, run, points, mp, pos_out);
    batch(keys, n, run, lows, mr, start_out);
    batch(keys, n, run, highs, mr, count_out);
    for (int64_t i = 0; i < mr; i++) {
        count_out[i] -= start_out[i];
    }
    return 0;
}

int32_t repro_rmi_serve(const uint64_t *keys, int64_t n,
                        const rmi_run *run,
                        const uint64_t *points, int64_t mp,
                        const uint64_t *lows, const uint64_t *highs,
                        int64_t mr, int64_t *pos_out, int64_t *start_out,
                        int64_t *count_out) {
    return serve(rmi_batch, keys, n, run, points, mp, lows, highs, mr,
                 pos_out, start_out, count_out);
}

int32_t repro_pla_serve(const uint64_t *keys, int64_t n,
                        const pla_run *run,
                        const uint64_t *points, int64_t mp,
                        const uint64_t *lows, const uint64_t *highs,
                        int64_t mr, int64_t *pos_out, int64_t *start_out,
                        int64_t *count_out) {
    return serve(pla_batch, keys, n, run, points, mp, lows, highs, mr,
                 pos_out, start_out, count_out);
}

int32_t repro_tree_serve(const uint64_t *keys, int64_t n,
                         const tree_run *run,
                         const uint64_t *points, int64_t mp,
                         const uint64_t *lows, const uint64_t *highs,
                         int64_t mr, int64_t *pos_out, int64_t *start_out,
                         int64_t *count_out) {
    return serve(tree_batch, keys, n, run, points, mp, lows, highs, mr,
                 pos_out, start_out, count_out);
}

/* ---- RMI build kernel ---------------------------------------------------
 * The segment, leaves and bounds steps of RMI._build for a two-layer RMI
 * with a one-model root and LR leaves over a sorted routing, fused into
 * one resumable pass.  Each replays its staged NumPy step bit for bit
 * and allocates nothing per key: leaf j's segment is keys[off_j, off_j +
 * count_j), and a key's position is its index. */

/* np.add.reduceat's summation order for one segment: the first term
 * plus NumPy's pairwise sum of the rest (pairwise_sum in NumPy's
 * loops_utils.h.src).  Below 8 terms that is a plain loop from -0.0;
 * up to 128 terms, 8 interleaved accumulators combined as a tree, then
 * the remainder in order; above 128, halves split at a multiple of 8.
 * The tree depends only on the term count, so each function takes two
 * sums, of TA and TB (the k-th summands, computed on the fly from keys,
 * mx and my), in one pass over the keys.
 *
 * The pairwise sum resumes: block_NAME sums one leaf of the tree (at
 * most 128 terms), and resume_NAME walks the tree from term *pos,
 * skipping the subtrees summed before (their sums wait in left, two
 * per depth), and stops before a block that would take more than
 * *budget visits.  A block is summed whole, so where the walk stops
 * does not change the sums. */
#define PW_BLOCKSIZE 128
#define TREE8(r) (((r[0] + r[1]) + (r[2] + r[3])) + \
                  ((r[4] + r[5]) + (r[6] + r[7])))
#define DEFINE_SEGMENT_SUMS(NAME, TA, TB)                                 \
static void first_##NAME(const uint64_t *keys, int64_t k, double mx,     \
                         double my, double *sa, double *sb) {             \
    *sa = TA; *sb = TB;                                                   \
}                                                                         \
static void block_##NAME(const uint64_t *keys, int64_t lo, int64_t c,    \
                         double mx, double my, double *sa, double *sb) {  \
    int64_t k;                                                            \
    if (c < 8) {                                                          \
        double ra = -0.0, rb = -0.0;                                      \
        for (k = lo; k < lo + c; k++) { ra += TA; rb += TB; }             \
        *sa = ra; *sb = rb;                                               \
        return;                                                           \
    }                                                                     \
    double a[8], b[8], ra, rb;                                            \
    int64_t end = lo + c - c % 8;                                         \
    for (int j = 0; j < 8; j++) { k = lo + j; a[j] = TA; b[j] = TB; }     \
    for (int64_t blk = lo + 8; blk < end; blk += 8) {                     \
        for (int j = 0; j < 8; j++) {                                     \
            k = blk + j; a[j] += TA; b[j] += TB;                          \
        }                                                                 \
    }                                                                     \
    ra = TREE8(a); rb = TREE8(b);                                         \
    for (k = end; k < lo + c; k++) { ra += TA; rb += TB; }                \
    *sa = ra; *sb = rb;                                                   \
}                                                                         \
static int resume_##NAME(const uint64_t *keys, int64_t lo, int64_t c,    \
                         double mx, double my, int64_t *pos,              \
                         int64_t *budget, double *left,                   \
                         double *sa, double *sb) {                        \
    if (c <= PW_BLOCKSIZE) {                                              \
        if (c > *budget) return 0;                                        \
        *budget -= c;                                                     \
        *pos = lo + c;                                                    \
        block_##NAME(keys, lo, c, mx, my, sa, sb);                        \
        return 1;                                                         \
    }                                                                     \
    int64_t half = c / 2;                                                 \
    half -= half % 8;                                                     \
    double ua, ub;                                                        \
    if (*pos < lo + half &&                                               \
        !resume_##NAME(keys, lo, half, mx, my, pos, budget, left + 2,     \
                       left, left + 1))                                   \
        return 0;                                                         \
    if (!resume_##NAME(keys, lo + half, c - half, mx, my, pos, budget,    \
                       left + 2, &ua, &ub))                               \
        return 0;                                                         \
    *sa = left[0] + ua; *sb = left[1] + ub;                               \
    return 1;                                                             \
}

/* The sums of LinearRegression.fit_grouped: x and y (the key's
 * position), then dx*dx and dx*dy about the segment means. */
DEFINE_SEGMENT_SUMS(means, (double)keys[k], (double)k)
DEFINE_SEGMENT_SUMS(moments,
                    ((double)keys[k] - mx) * ((double)keys[k] - mx),
                    ((double)keys[k] - mx) * ((double)k - my))

/* The leaves and bounds steps for the leaves below `ready`, in key
 * order, resumed from fit and stopped before a piece of work would take
 * the call past budget key visits (a call makes at least
 * PW_BLOCKSIZE).  A leaf of c keys takes three passes of c visits:
 * the means and moments sums of LinearRegression.fit_grouped against
 * the key positions, giving p = (slope, intercept), then the minimum
 * and maximum signed error (position - prediction) of the clamped
 * integral prediction, the arithmetic of RMI._predict_positions.  An
 * empty leaf keeps a zero row (the caller codes it constant) and
 * extremes (0, 0), as in core/bounds._per_model_extremes.  fit =
 * {leaf, its first key, pass, next key, minimum, maximum}; sums = {mx,
 * my, then each depth's left subtree sums}.  Returns the visits made. */
static int64_t fit_leaves(const uint64_t *keys, int64_t n,
                          const int64_t *counts, int64_t ready,
                          int64_t *fit, double *sums, double *params,
                          int64_t *lo_out, int64_t *hi_out,
                          int64_t budget) {
    int64_t left = budget > PW_BLOCKSIZE ? budget : PW_BLOCKSIZE;
    int64_t given = left;
    int64_t j = fit[0], start = fit[1], pass = fit[2], pos = fit[3];
    double cap = (double)(n - 1);
    while (j < ready) {
        int64_t c = counts[j];
        double *p = params + j * 6;
        if (c && pass < 2) {
            double mx = sums[0], my = sums[1], fa, fb, ra, rb;
            if (pos == start) {  /* the first term, added last */
                if (left < 1) break;
                left--;
                pos++;
            }
            if (pass == 0) {
                if (!resume_means(keys, start + 1, c - 1, 0.0, 0.0, &pos,
                                  &left, sums + 2, &ra, &rb))
                    break;
                first_means(keys, start, 0.0, 0.0, &fa, &fb);
                sums[0] = (fa + ra) / (double)c;
                sums[1] = (fb + rb) / (double)c;
            } else {
                if (!resume_moments(keys, start + 1, c - 1, mx, my, &pos,
                                    &left, sums + 2, &ra, &rb))
                    break;
                first_moments(keys, start, mx, my, &fa, &fb);
                double denom = fa + ra, num = fb + rb;
                double slope = denom > 0.0 ? num / denom : 0.0;
                p[0] = slope;
                p[1] = my - slope * mx;
                fit[4] = INT64_MAX;
                fit[5] = INT64_MIN;
            }
            pass++;
            pos = start;
            continue;
        }
        if (c) {
            int64_t end = start + c < pos + left ? start + c : pos + left;
            int64_t emin = fit[4], emax = fit[5];
            for (int64_t k = pos; k < end; k++) {
                double est = p[0] * (double)keys[k] + p[1];
                if (isnan(est) || est < 0.0) est = 0.0;
                if (est > cap) est = cap;
                int64_t err = k - (int64_t)est;
                emin = err < emin ? err : emin;
                emax = err > emax ? err : emax;
            }
            fit[4] = emin;
            fit[5] = emax;
            left -= end - pos;
            pos = end;
            if (pos < start + c) break;
            lo_out[j] = emin;
            hi_out[j] = emax;
        }
        j++;
        start += c;
        pass = 0;
        pos = start;
    }
    fit[0] = j;
    fit[1] = start;
    fit[2] = pass;
    fit[3] = pos;
    return given - left;
}

/* One step of the fused build pass: route keys [lo, hi) through the
 * root and count keys per leaf, then fit and bound the leaves whose
 * keys are all routed (fit_leaves), as far as budget visits go, while
 * the keys routed last are still in cache.  Called over consecutive
 * ranges from 0 to n, then with lo = hi = n until fit[0] reaches
 * fanout, with counts, run, fit, params ((fanout, 6) rows) and the
 * extremes zeroed before the first.  The routing arithmetic is
 * route_leaf's on a model-index-trained root (RMI._assignments),
 * except that the clamped estimate is truncated: it is >= 0, so
 * truncation is floor, without a libm call per key.  Counting by runs
 * of equal leaves keeps the loop free of a memory increment per key;
 * run carries the open run's {leaf, first key} across calls.  The pass
 * also checks the key order.  Returns -1 at the first key below its
 * predecessor, -2 as soon as the routing decreases (the staged build
 * then runs instead), else the fit's visits: the sorted segmentation
 * the staged build takes for a monotone root. */
int64_t repro_rmi_build_leaves(const uint64_t *keys, int64_t n,
                               int64_t lo, int64_t hi,
                               const int8_t *root_code,
                               const double *root_params,
                               int64_t fanout, int64_t *counts,
                               int64_t *run, int64_t *fit, double *sums,
                               double *params, int64_t *lo_out,
                               int64_t *hi_out, int64_t budget) {
    double cap = (double)(fanout - 1), root[6];
    int64_t run_leaf = run[0], run_start = run[1];
    int8_t code = root_code[0];
    uint64_t prev = lo ? keys[lo - 1] : 0;
    memcpy(root, root_params, sizeof root);
    for (int64_t i = lo; i < hi; i++) {
        uint64_t key = keys[i];
        if (key < prev) return -1;
        prev = key;
        double est = eval_model(code, root, key);
        if (isnan(est) || est < 0.0) est = 0.0;
        if (est > cap) est = cap;
        int64_t leaf = (int64_t)est;
        if (leaf != run_leaf) {
            if (leaf < run_leaf) return -2;
            counts[run_leaf] = i - run_start;
            run_leaf = leaf;
            run_start = i;
        }
    }
    run[0] = run_leaf;
    run[1] = run_start;
    if (hi == n) counts[run_leaf] = n - run_start;
    return fit_leaves(keys, n, counts, hi == n ? fanout : run_leaf, fit,
                      sums, params, lo_out, hi_out, budget);
}
"""

#: Contract OFF is load-bearing for bit-identity (see module docstring).
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno",
           "-shared", "-fPIC")


def _extra_cflags() -> "list[str]":
    """Opt-in compiler flags from ``REPRO_KERNELS_CFLAGS``, appended to
    ``_CFLAGS`` (a later flag wins): ``-O1 -g -fsanitize=address,undefined``
    builds the kernels under the sanitizers, which a process loads with
    their runtimes in ``LD_PRELOAD`` (CI's ``kernels`` job)."""
    return os.environ.get("REPRO_KERNELS_CFLAGS", "").split()


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _source_digest() -> str:
    """Digest keying the build cache: any source/flag change rekeys.
    Extra flags join it only when set, so a build with them is never
    loaded as the default one, and the default digest stays the one of
    the source and ``_CFLAGS``."""
    key = _C_SOURCE + "\0" + " ".join(_CFLAGS)
    extra = _extra_cflags()
    if extra:
        key += "\0" + " ".join(extra)
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _cache_entries(cache: Path):
    """The ``(path, digest)`` pairs of build-cache artifacts on disk."""
    if not cache.is_dir():
        return
    for path in sorted(cache.glob("repro_kernels_*")):
        if path.suffix in (".so", ".c"):
            yield path, path.stem.rsplit("_", 1)[-1]


def build_cache_stats() -> dict:
    """Inventory of the on-demand ``.so`` build cache.

    Surfaced by ``python -m repro.bench cache stats`` alongside the
    artifact store: the compiled-kernel artifacts live outside that
    store (they are keyed by source digest, not by fingerprint), so
    this is how they become visible and collectable.
    """
    cache = _cache_dir()
    current = _source_digest()
    entries = []
    for path, digest in _cache_entries(cache):
        entries.append({
            "file": path.name,
            "digest": digest,
            "bytes": path.stat().st_size,
            "current": digest == current,
        })
    return {
        "dir": str(cache),
        "current_digest": current,
        "entries": entries,
        "bytes": sum(e["bytes"] for e in entries),
        "stale": sum(1 for e in entries if not e["current"]),
    }


def build_cache_gc(max_age_days: "float | None" = None,
                   drop_all: bool = False) -> dict:
    """Collect the ``.so`` build cache: stale digests always, the
    current build on request.

    Artifacts whose source digest no longer matches the in-tree kernel
    source are dead (nothing will ever load them again) and are always
    removed.  ``drop_all`` / ``max_age_days`` additionally drop the
    current build, which is harmless: the next backend load recompiles
    it.  Returns ``{"removed": ..., "kept": ...}`` like the artifact
    store's gc.
    """
    cache = _cache_dir()
    current = _source_digest()
    removed = kept = 0
    now = time.time()
    for path, digest in _cache_entries(cache):
        stale = drop_all or digest != current
        if not stale and max_age_days is not None:
            stale = now - path.stat().st_mtime > max_age_days * 86_400
        if stale:
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent collector
                kept += 1
        else:
            kept += 1
    return {"removed": removed, "kept": kept}


def _build_library() -> Path:
    """Compile the kernel source, keyed by source+flags digest."""
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise CExtUnavailable("no C compiler (cc/gcc) on PATH")
    digest = _source_digest()
    cache = _cache_dir()
    lib_path = cache / f"repro_kernels_{digest}.so"
    if lib_path.exists():
        return lib_path
    cache.mkdir(parents=True, exist_ok=True)
    src_path = cache / f"repro_kernels_{digest}.c"
    src_path.write_text(_C_SOURCE)
    # Build to a temp name, then atomically publish: concurrent builders
    # (e.g. a process pool warming up) race harmlessly.
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, *_extra_cflags(), str(src_path), "-o", tmp_name,
             "-lm"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise CExtUnavailable(
                f"kernel compilation failed:\n{proc.stderr.strip()}"
            )
        os.replace(tmp_name, lib_path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise CExtUnavailable(f"kernel compilation failed: {exc}") from exc
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return lib_path


_ptr = ctypes.c_void_p
_c_i64 = ctypes.c_int64

#: The fused serves take ``(keys, n)``, their packed form's argument
#: run by address (a ``*_run`` struct, :mod:`repro.kernels.binding`),
#: then ``(points, mp, lows, highs, mr, pos_out, start_out, count_out)``.
_SERVE = [_ptr, _c_i64, _ptr, _ptr, _c_i64, _ptr, _ptr, _c_i64,
          _ptr, _ptr, _ptr]

#: Depths of the pairwise-sum tree a resumed leaf fit keeps sums for:
#: each level halves a leaf of up to 2^63 keys, down to 128 terms.
_FIT_DEPTH = 64

#: (name, argtypes) for every exported kernel.  Every array is passed
#: by address (:mod:`repro.kernels.binding`).
_SIGNATURES = {
    "repro_lower_bound_window":
        [_ptr, _c_i64, _ptr, _c_i64, _ptr, _ptr, _ptr],
    "repro_delta_correct":
        [_ptr, _c_i64, _ptr, _ptr, _ptr, _c_i64, _ptr, _c_i64, _ptr],
    "repro_merge_delta":
        [_ptr, _ptr, _ptr, _ptr, _ptr, _c_i64, _ptr, _c_i64,
         _ptr, _ptr, _ptr, _c_i64, _c_i64, ctypes.c_double, _ptr, _c_i64,
         _ptr, _ptr, _ptr, _ptr, _ptr, _ptr],
    "repro_compact_delta":
        [_ptr, _ptr, _ptr, _ptr, _ptr, _c_i64, _ptr, _ptr, _c_i64, _c_i64,
         _ptr, _c_i64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr],
    "repro_merge_live":
        [_ptr, _c_i64, _ptr, _ptr, _c_i64, _ptr, _c_i64, _ptr, _c_i64],
    "repro_rmi_predict": [_ptr, _c_i64, _ptr, _c_i64, _ptr, _ptr],
    "repro_rmi_serve": _SERVE,
    "repro_pla_serve": _SERVE,
    "repro_tree_serve": _SERVE,
    "repro_rmi_build_leaves":
        [_ptr, _c_i64, _c_i64, _c_i64, _ptr, _ptr, _c_i64, _ptr, _ptr,
         _ptr, _ptr, _ptr, _ptr, _ptr, _c_i64],
}

#: Return types of the kernels that return a value (the rest are void).
_RESTYPES = {"repro_rmi_build_leaves": ctypes.c_int64,
             "repro_merge_delta": ctypes.c_int64,
             "repro_compact_delta": ctypes.c_int64,
             "repro_merge_live": ctypes.c_int32,
             "repro_rmi_serve": ctypes.c_int32,
             "repro_pla_serve": ctypes.c_int32,
             "repro_tree_serve": ctypes.c_int32}


def load() -> "CExtBackend":
    """Build (if needed) and load the C kernels; raises CExtUnavailable."""
    lib_path = _build_library()
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise CExtUnavailable(f"cannot load {lib_path}: {exc}") from exc
    for fname, argtypes in _SIGNATURES.items():
        try:
            fn = getattr(lib, fname)
        except AttributeError as exc:
            raise CExtUnavailable(f"{lib_path} lacks {fname}") from exc
        fn.argtypes = argtypes
        fn.restype = _RESTYPES.get(fname)
    return CExtBackend(lib)


def _u64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.uint64)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _delta_arrays(arrays):
    """The delta side of ``merge_delta`` or ``compact_delta`` --
    ``(keys, ops, seqs, born)``, then the correction and, for the
    merge, the bucket table -- in the kernel's dtypes."""
    keys, ops, seqs, born, *counts = arrays
    return (_u64(keys), np.ascontiguousarray(ops, dtype=np.int8),
            _i64(seqs), np.ascontiguousarray(born, dtype=np.float64),
            *map(_i64, counts))


def _delta_outputs(n: int, tn: int):
    """The output arrays of a delta kernel writing at most ``n``
    entries and a ``tn``-entry bucket table."""
    return (np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.int8),
            np.empty(n, dtype=np.int64), np.empty(n, dtype=np.float64),
            np.empty(n + 1, dtype=np.int64), np.empty(tn, dtype=np.int64))


def _written(out, written: int):
    """A delta kernel's outputs cut to the ``written`` entries."""
    return (*(a[:written] for a in out[:4]), out[4][:written + 1], out[5])


class CExtBackend(KernelBackend):
    """ctypes wrapper over the gcc-compiled kernel library.

    Every array crosses by address (:mod:`repro.kernels.binding`), so
    these wrappers are the only guard in front of C: each converts its
    per-call arrays to the kernel's dtype and C order and checks their
    lengths before it takes their addresses.
    """

    name = "cext"
    compiled = True

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        #: ``packed_kind`` -> that family's C serve.
        self._serves = {kind: getattr(lib, f"repro_{method}")
                        for kind, method in PACKED_DISPATCH.items()}
        #: The delta the last ``merge_delta`` or ``compact_delta`` wrote,
        #: with its kernel arguments (see :meth:`_delta_side`).
        self._written_delta: "tuple | None" = None

    def _delta_side(self, delta):
        """``merge_delta``'s delta side and its kernel arguments: the
        five column addresses, the length, the table's address and
        length.  The delta this backend wrote last -- a served view's,
        from one write to the next -- was converted when it was made, so
        its arrays pass as they are; it is held, so no other array can
        take its arrays' identities."""
        last = self._written_delta
        if last is not None and len(delta) == 6 and \
                all(map(operator.is_, delta, last[0])):
            return last
        delta = _delta_arrays(delta)
        return delta, (*map(address, delta[:5]), len(delta[0]),
                       address(delta[5]), len(delta[5]))

    def _keep_written(self, out, args, written: int):
        """A delta kernel's outputs (``out``, at addresses ``args``) cut
        to the ``written`` entries, kept with their kernel arguments for
        the next ``merge_delta``."""
        arrays = _written(out, written)
        self._written_delta = (arrays, (*args[:5], written, args[5],
                                        len(out[5])))
        return arrays

    def lower_bound_window(self, keys, queries, lo, hi):
        keys, queries = _u64(keys), _u64(queries)
        check_windows(queries, lo, hi)
        n = len(keys)
        if not n:
            return np.zeros(len(queries), dtype=np.int64)
        # Same clamp every in-repo caller already applies; defensive
        # here because the C loop indexes without probe clipping.
        lo = np.clip(_i64(lo), 0, n - 1)
        hi = np.clip(_i64(hi), 0, n - 1)
        out = np.empty(len(queries), dtype=np.int64)
        self._lib.repro_lower_bound_window(
            address(keys), n, address(queries), len(queries),
            address(lo), address(hi), address(out),
        )
        return out

    def delta_correct(self, delta_keys, corr, base_positions, queries,
                      table):
        delta_keys, queries = _u64(delta_keys), _u64(queries)
        corr, base_positions, table = (_i64(corr), _i64(base_positions),
                                       _i64(table))
        check_delta(delta_keys, corr, base_positions, queries, table)
        out = np.empty(len(queries), dtype=np.int64)
        self._lib.repro_delta_correct(
            address(delta_keys), len(delta_keys), address(corr),
            address(base_positions), address(queries), len(queries),
            address(table), len(table), address(out),
        )
        return out

    def merge_delta(self, delta, batch, seq_start, now, base_keys):
        delta, delta_args = self._delta_side(delta)
        keys, ops, lower = (_u64(batch[0]), write_ops(batch[1]),
                            _i64(batch[2]))
        check_merge(delta, (keys, ops, lower))
        base_keys = _u64(base_keys)
        bn = len(keys)
        out = _delta_outputs(len(delta[0]) + bn, len(delta[5]))
        out_args = tuple(map(address, out))
        written = self._lib.repro_merge_delta(
            *delta_args, address(keys), address(ops), address(lower), bn,
            int(seq_start), float(now), address(base_keys), len(base_keys),
            *out_args,
        )
        if written == -2:
            raise ValueError(BAD_OPS)
        if written < 0:
            raise MemoryError("merge_delta: no scratch for the batch's sort")
        return self._keep_written(out, out_args, written)

    def compact_delta(self, delta, snapshot, watermark, base_keys):
        delta = _delta_arrays(delta)
        snap_keys = _u64(snapshot[0])
        snap_ops = np.ascontiguousarray(snapshot[1], dtype=np.int8)
        check_compact(delta, (snap_keys, snap_ops))
        base_keys = _u64(base_keys)
        n = len(delta[0])
        out = _delta_outputs(n, table_size(len(base_keys)))
        out_args = tuple(map(address, out))
        written = self._lib.repro_compact_delta(
            *map(address, delta), n, address(snap_keys), address(snap_ops),
            len(snap_keys), int(watermark), address(base_keys),
            len(base_keys), *out_args,
        )
        return self._keep_written(out, out_args, written)

    def merge_live_steps(self, base_keys, delta_keys, delta_ops, size):
        base_keys, delta_keys = _u64(base_keys), _u64(delta_keys)
        delta_ops = np.ascontiguousarray(delta_ops, dtype=np.int8)
        if len(delta_ops) != len(delta_keys):
            raise ValueError("merge_live needs one op per delta key")
        out = np.empty(size, dtype=np.uint64)
        state = np.zeros(3, dtype=np.int64)
        args = (address(base_keys), len(base_keys), address(delta_keys),
                address(delta_ops), len(delta_keys), address(out), size,
                address(state), self.step_keys)
        while True:
            before = int(state[0] + state[1])
            done = self._lib.repro_merge_live(*args)
            if done < 0 or (done and state[2] != size):
                got = "more" if done < 0 else int(state[2])
                raise ValueError(f"merge_live: {size} live keys expected, "
                                 f"the merge gives {got}")
            yield int(state[0] + state[1]) - before
            if done:
                return out

    def rmi_predict(self, packed: PackedRMI, queries):
        queries = _u64(queries)
        m = len(queries)
        ids = np.empty(m, dtype=np.int64)
        pos = np.empty(m, dtype=np.int64)
        self._lib.repro_rmi_predict(
            *packed.kernel_run(), packed.n,
            address(queries), m, address(ids), address(pos),
        )
        return ids, pos

    def _serve(self, kernel, packed, keys, point_queries, range_lows,
               range_highs):
        """One fused serve: ``kernel(keys, n, run, points, mp, lows,
        highs, mr, pos_out, start_out, count_out)``; the kernel checks
        the ranges' order in its own pass."""
        # ``keys`` stays referenced here through the call: another
        # thread may rebind ``packed`` and drop a converted copy.
        keys = _u64(keys)
        args = packed.bind(keys)
        points = _u64(point_queries)
        lows, highs = _u64(range_lows), _u64(range_highs)
        if len(lows) != len(highs):
            raise ValueError("serve needs one high per range low")
        positions = np.empty(len(points), dtype=np.int64)
        starts = np.empty(len(lows), dtype=np.int64)
        counts = np.empty(len(lows), dtype=np.int64)
        if kernel(
            *args, address(points), len(points),
            address(lows), address(highs), len(lows),
            address(positions), address(starts), address(counts),
        ):
            raise ValueError("serve needs low <= high in every range")
        return positions, starts, counts

    def lookup(self, packed, keys, queries):
        """The family's serve with no ranges: NULL bounds, none counted,
        so a lookup converts and allocates nothing for them."""
        keys = _u64(keys)  # referenced through the call, as in _serve
        args = packed.bind(keys)
        queries = _u64(queries)
        out = np.empty(len(queries), dtype=np.int64)
        self._serves[packed.packed_kind](
            *args, address(queries), len(queries), None, None, 0,
            address(out), None, None)
        return out

    #: The RMI's lookup, under its own name: a trace times it apart from
    #: ``rmi_serve``.
    rmi_lookup = lookup

    def rmi_serve(self, packed: PackedRMI, keys, point_queries,
                  range_lows, range_highs):
        return self._serve(self._lib.repro_rmi_serve, packed, keys,
                           point_queries, range_lows, range_highs)

    def pla_serve(self, packed: PackedPLA, keys, point_queries,
                  range_lows, range_highs):
        return self._serve(self._lib.repro_pla_serve, packed, keys,
                           point_queries, range_lows, range_highs)

    def tree_serve(self, packed: PackedTree, keys, point_queries,
                   range_lows, range_highs):
        return self._serve(self._lib.repro_tree_serve, packed, keys,
                           point_queries, range_lows, range_highs)

    # -- RMI build kernels ------------------------------------------------

    build_kernels = True

    def rmi_build_leaves_steps(self, keys, root, fanout):
        from ..core.models import SOA_MODEL_CODES, ConstantModel, \
            LinearRegression

        codes = getattr(root, "codes", None)
        if codes is None or len(codes) != 1 or \
                int(codes[0]) not in PACKABLE_MODEL_CODES:
            return None
        if fanout < 1:
            raise ValueError("rmi_build_leaves needs at least one leaf")
        keys = _u64(keys)
        code = np.ascontiguousarray(codes, dtype=np.int8)
        root_params = np.ascontiguousarray(root.params, dtype=np.float64)
        if root_params.size != 6:
            raise ValueError("rmi_build_leaves needs one 6-parameter root")
        n = len(keys)
        counts = np.zeros(fanout, dtype=np.int64)
        run = np.zeros(2, dtype=np.int64)
        fit = np.zeros(6, dtype=np.int64)
        sums = np.zeros(2 + 2 * _FIT_DEPTH, dtype=np.float64)
        params = np.zeros((fanout, 6), dtype=np.float64)
        lo_err = np.zeros(fanout, dtype=np.int64)
        hi_err = np.zeros(fanout, dtype=np.int64)
        args = (address(code), address(root_params), fanout,
                address(counts), address(run), address(fit), address(sums),
                address(params), address(lo_err), address(hi_err))
        route = max(self.step_keys // 4, 1)
        lo = 0
        while fit[0] < fanout:
            hi = min(n, lo + route)
            # The routing's visits, then the fit's, within one budget.
            visits = self._lib.repro_rmi_build_leaves(
                address(keys), n, lo, hi, *args,
                self.step_keys - (hi - lo))
            if visits == -1:
                raise ValueError("keys must be sorted in non-decreasing "
                                 "order")
            if visits == -2:
                return None
            yield (hi - lo) + visits
            lo = hi
        codes = np.where(
            counts > 0, SOA_MODEL_CODES[LinearRegression],
            SOA_MODEL_CODES[ConstantModel],
        ).astype(np.int8)
        return counts, codes, params, lo_err, hi_err

    def warmup(self) -> None:
        """The library is ahead-of-time compiled; loading was the warm-up."""
