"""Optional runtime-compiled C Gustavson kernel (``native``).

The numpy ESC kernel is bounded by sort/scatter throughput
(~50M products/s on one core); a row-major Gustavson sweep with a dense
sparse-accumulator (SPA) has no such bound.  When a C compiler and
:mod:`cffi` are available, this module compiles the kernel at runtime
(ABI mode, no ``Python.h`` needed) and registers it as the ``native``
kernel kind; otherwise everything degrades to the numpy ESC kernel.

Two passes over a list of A row *ids* (nothing of A is copied), the
paper's symbolic/numeric split: :func:`native_count_rows` returns exact
per-row output nnz (and, from the same sweep, each row's products — the
row analysis), the caller allocates the final CSR arrays once, and
:func:`native_fill_slots` writes every row into its slot — a per-row
``(start, count)`` in arrays the caller owns, column ids plus a
``shift`` — sorted without a comparison sort (see the kernel source).
The slot may be chunk-local (``start = c_indptr[r]``, ``shift = 0``)
or lie in the assembled product
(:class:`repro.core.assemble.OutputLayout`); the kernel does not know
the difference.  :func:`native_place_rows` copies already-computed rows
into slots under the same per-row refusal.  Scratch is kept per thread
and reused across calls.

The library also serves :mod:`repro.sparse.partition`: B's column split
(the paper's ``col_offset``) is one sweep, :func:`native_col_offsets`,
and each column panel one copy off it, :func:`native_col_panels`.  And
the planner's cut table (:class:`repro.core.chunks.CutTable`):
:func:`native_cut_cells`, one sweep of B and one pass over A.  And
:mod:`repro.sparse.codec`: :func:`native_crc32` is zlib's CRC-32 by
carry-less multiply, 6–13 GB/s to zlib's 1.8, on CPUs with PCLMULQDQ
(:func:`native_crc32_error` asks); elsewhere the codec uses zlib.  And
:mod:`repro.serve.body`: :func:`native_json` writes a float64 / int64
array as the exact text of ``json.dumps(x.tolist())``, each float the
shortest decimal that reads back as it (Schubfach, whose 128-bit power
table :func:`_source` computes with exact integers) — about a tenth of
the cost of ``float.__repr__``; :func:`native_json_arrays` reads the
long numeric arrays of a JSON text back, each float by Eisel–Lemire on
the same table, exactly as ``float()`` reads it or not at all — about a
fifth of the cost of ``json.loads``.

Bit-identity.  The SPA accumulates each output column's duplicates in
ascending ``k`` order — exactly the expansion order the numpy ESC
accumulator uses, from the same -0.0 start (the additive identity) —
and the build pins ``-ffp-contract=off`` so the compiler cannot fuse
``a*b + s`` into an FMA.  The result is therefore bit-identical to the
``esc`` kernel for arbitrary float inputs (but
for which NaN survives where two meet: DESIGN.md Section 10).

Gating.  ``native_available()`` is the single capability probe: it
requires cffi, a working ``cc``/``gcc``, and a successful compile of the
kernel (cached by source hash, so the cost is one compilation per
machine).  ``REPRO_NATIVE=0`` force-disables; any failure is remembered
for the process so the hot path never retries a broken toolchain.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

from ..sparse.formats import CSRMatrix

__all__ = [
    "native_available",
    "native_build_error",
    "native_count_rows",
    "native_fill_slots",
    "native_place_rows",
    "native_col_offsets",
    "native_col_panels",
    "native_cut_cells",
    "native_crc32",
    "native_crc32_error",
    "native_json",
    "native_json_arrays",
]

#: environment switch: "0"/"off"/"false" disables the native kernel
NATIVE_ENV = "REPRO_NATIVE"

#: override for the compiled-kernel cache directory
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_CDEF = """
long long repro_spgemm_count(
    long long n, const long long *rows,
    const long long *a_indptr, const long long *a_cols,
    const long long *b_indptr, const long long *b_cols,
    long long *mark, long long cap, long long *gen,
    long long *counts, long long *products);
long long repro_spgemm_fill(
    long long n, const long long *rows,
    const long long *a_indptr, const long long *a_cols, const double *a_vals,
    const long long *b_indptr, const long long *b_cols, const double *b_vals,
    long long *mark, double *spa, long long *touched, long long *tmp,
    unsigned long long *bits, long long cap, long long *gen,
    const long long *starts, const long long *counts, long long shift,
    long long out_cap, long long *out_cols, double *out_vals);
long long repro_place_rows(
    long long n, const long long *src_indptr, long long src_cap,
    const long long *src_cols, const double *src_vals,
    const long long *starts, const long long *counts, long long shift,
    long long out_cap, long long *out_cols, double *out_vals);
void repro_col_split(long long n, long long panels, const long long *indptr,
    const long long *cols, const long long *panel_of_col, long long *splits);
long long repro_col_gather(long long n, const long long *splits, long long stride,
    long long src_cap, const long long *cols, const double *vals, long long shift,
    long long out_cap, long long *out_indptr, long long *out_cols, double *out_vals);
long long repro_cut_cells(long long n_a, long long nrc, const long long *row_cuts,
    const long long *a_indptr, const long long *a_cols, long long n_b,
    long long n_cols, const long long *b_indptr, const long long *b_cols,
    long long ncc, const long long *col_cuts, long long *work, long long *cells);
int repro_crc32_fast(void);
unsigned repro_crc32(unsigned crc, const void *buf, long long n);
long long repro_json_f64(const double *x, long long n, char *out);
long long repro_json_i64(const long long *x, long long n, char *out);
long long repro_json_scan(const char *text, long long n, long long min_items,
    unsigned long long *vals, long long vcap, long long *spans, long long scap);
"""

_SOURCE = r"""
#include <limits.h>
#include <string.h>

typedef long long i64;
typedef unsigned long long u64;

/* Gustavson SpGEMM over a list of A row ids, as two passes that share
 * one per-thread scratch (`mark`, `spa`, `tmp`: `cap` slots each, cap >=
 * the panel width; `touched`: cap + 1; `bits`: cap / 64 + 1 words).
 *
 * `mark[j] == g` means column j was touched by the row stamped g.  The
 * stamp `*gen` only ever grows, one per row across every call on the
 * scratch, so `mark` is cleared when the scratch is made and again only
 * if the stamp would run out.  Every `spa` slot is -0.0 and every `bits`
 * word 0 between rows: whatever reads a row out puts them back.
 */
static i64 open_stamps(i64 *mark, i64 cap, i64 *gen, i64 n) {
    if (*gen > LLONG_MAX - n - 1) {
        memset(mark, 0, (size_t)cap * sizeof(i64));
        *gen = 0;
    }
    return *gen;
}

/* pass 1: exact nnz of each listed output row — no values, no column
 * list, no sort — and, when `products` is given, the row's intermediate
 * products (the row analysis: the B row lengths are the loop bounds) */
i64 repro_spgemm_count(
    i64 n, const i64 *rows,
    const i64 *a_indptr, const i64 *a_cols,
    const i64 *b_indptr, const i64 *b_cols,
    i64 *mark, i64 cap, i64 *gen,
    i64 *counts, i64 *products)
{
    i64 g = open_stamps(mark, cap, gen, n);
    i64 total = 0;
    for (i64 i = 0; i < n; i++) {
        const i64 r = rows[i];
        i64 t = 0, work = 0;
        g++;
        for (i64 p = a_indptr[r]; p < a_indptr[r + 1]; p++) {
            const i64 k = a_cols[p];
            work += b_indptr[k + 1] - b_indptr[k];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; q++) {
                const i64 j = b_cols[q];
                t += mark[j] != g;
                mark[j] = g;
            }
        }
        counts[i] = t;
        if (products) products[i] = work;
        total += t;
    }
    *gen = g;
    return total;
}

/* ascending LSD radix sort of x[0..t) by (x - lo), 8-bit digits, as many
 * digits as (hi - lo) needs; returns whichever of x / tmp holds the
 * result */
static i64 *radix_sort(i64 *x, i64 *tmp, i64 t, i64 lo, i64 hi) {
    for (int shift = 0; shift < 64 && ((hi - lo) >> shift) != 0; shift += 8) {
        i64 start[256] = {0};
        for (i64 s = 0; s < t; s++) start[((x[s] - lo) >> shift) & 255]++;
        i64 at = 0;
        for (int d = 0; d < 256; d++) { i64 c = start[d]; start[d] = at; at += c; }
        for (i64 s = 0; s < t; s++) tmp[start[((x[s] - lo) >> shift) & 255]++] = x[s];
        i64 *swap = x; x = tmp; tmp = swap;
    }
    return x;
}

/* pass 2: values, written in place.  Row r's slot is
 * out_cols/out_vals[starts[r] .. starts[r] + counts[r]): its columns
 * (ascending, each plus `shift`) and values land there.  A row whose
 * touched count differs from counts[r], or whose slot leaves
 * [0, out_cap), is refused before anything of it is written: the return
 * value is then -(i + 1) for list position i, otherwise the nnz written.
 * The slots may be a chunk's own rows back to back (starts = its
 * c_indptr, shift 0) or that chunk's share of the assembled product's
 * rows (shift = the column panel's first column).
 *
 * Accumulation order per output column is ascending A-element order
 * (= ascending k), i.e. expansion order: `spa[j] += av * bv` runs once
 * per intermediate product in the order the products are enumerated,
 * from a slot holding -0.0, the additive identity (-0.0 + x is x bit
 * for bit, default rounding mode): the first product is stored and the
 * rest added with no branch on which it is (R-MAT rows: 73% are first).
 * Compile with -ffp-contract=off so this never becomes an FMA.
 * `touched[t] = j` is written before the column is known to be new,
 * hence its spare slot: a row that has touched all cap columns keeps
 * appending at cap.
 */
i64 repro_spgemm_fill(
    i64 n, const i64 *rows,
    const i64 *a_indptr, const i64 *a_cols, const double *a_vals,
    const i64 *b_indptr, const i64 *b_cols, const double *b_vals,
    i64 *mark, double *spa, i64 *touched, i64 *tmp, u64 *bits,
    i64 cap, i64 *gen,
    const i64 *starts, const i64 *counts, i64 shift,
    i64 out_cap, i64 *out_cols, double *out_vals)
{
    i64 g = open_stamps(mark, cap, gen, n);
    i64 total = 0;
    for (i64 i = 0; i < n; i++) {
        const i64 r = rows[i];
        i64 t = 0;
        g++;
        for (i64 p = a_indptr[r]; p < a_indptr[r + 1]; p++) {
            const i64 k = a_cols[p];
            const double av = a_vals[p];
            for (i64 q = b_indptr[k]; q < b_indptr[k + 1]; q++) {
                const i64 j = b_cols[q];
                const i64 first = mark[j] != g;
                mark[j] = g;
                touched[t] = j;
                t += first;
                spa[j] += av * b_vals[q];
            }
        }
        const i64 at = starts[r];
        if (t != counts[r] || at < 0 || at > out_cap - t) {
            for (i64 s = 0; s < t; s++) spa[touched[s]] = -0.0;
            *gen = g;
            return -(i + 1);
        }
        i64 *oc = out_cols + at;
        double *ov = out_vals + at;
        const i64 *sorted = 0;  /* the touched list, once it is in order */
        if (t < 32) {
            /* below 32 columns nothing else pays its set-up */
            for (i64 s = 1; s < t; s++) {
                const i64 v = touched[s];
                i64 u = s - 1;
                while (u >= 0 && touched[u] > v) { touched[u + 1] = touched[u]; u--; }
                touched[u + 1] = v;
            }
            sorted = touched;
        } else {
            i64 lo = touched[0], hi = touched[0];
            for (i64 s = 1; s < t; s++) {
                const i64 j = touched[s];
                if (j < lo) lo = j;
                if (j > hi) hi = j;
            }
            const i64 span = hi - lo;
            i64 s = 0;
            if (span < 2 * t) {
                /* over half of [lo, hi] is touched (banded rows): scan
                 * mark, no sort.  Each column goes to the next free slot
                 * and stays only if touched; the last, hi, was, so no write
                 * leaves the slot.  Banded fill (span 1.1t) 22 ms, 26 by
                 * bitmap; the bitmap wins from 2t: 39 to 53 ms at 3.7t. */
                for (i64 j = lo; j <= hi; j++) {
                    oc[s] = j + shift; ov[s] = spa[j]; spa[j] = -0.0;
                    s += mark[j] == g;
                }
            } else if ((span >> 6) <= t) {
                /* at most a bitmap word per touched column (R-MAT rows):
                 * a bit each, then the words of [lo, hi] in order by
                 * count-trailing-zeros, cleared as read.  R-MAT fill 43
                 * ms, 57 by radix.  Beyond, the walk is over empty words:
                 * t = 64 in 4 M columns, 632 ms to radix's 48. */
                for (i64 u = 0; u < t; u++) bits[touched[u] >> 6] |= 1ULL << (touched[u] & 63);
                for (i64 w = lo >> 6; w <= hi >> 6; w++) {
                    u64 word = bits[w];
                    bits[w] = 0;
                    for (; word; word &= word - 1) {
                        const i64 j = (w << 6) + __builtin_ctzll(word);
                        oc[s] = j + shift; ov[s] = spa[j]; spa[j] = -0.0;
                        s++;
                    }
                }
            } else {
                sorted = radix_sort(touched, tmp, t, lo, hi);
            }
        }
        for (i64 s = 0; sorted && s < t; s++) {
            const i64 j = sorted[s];
            oc[s] = j + shift; ov[s] = spa[j]; spa[j] = -0.0;
        }
        total += t;
    }
    *gen = g;
    return total;
}

/* rows that already exist, copied once into their slots: source row i is
 * src_cols/src_vals[src_indptr[i] .. src_indptr[i + 1]), its slot starts
 * at starts[i] and holds counts[i].  The fill's two refusals, plus the
 * source range: a row whose length is not counts[i], or whose source or
 * slot leaves its array, returns -(i + 1) with nothing of it written. */
i64 repro_place_rows(
    i64 n, const i64 *src_indptr, i64 src_cap,
    const i64 *src_cols, const double *src_vals,
    const i64 *starts, const i64 *counts, i64 shift,
    i64 out_cap, i64 *out_cols, double *out_vals)
{
    i64 total = 0;
    for (i64 i = 0; i < n; i++) {
        const i64 from = src_indptr[i];
        const i64 t = src_indptr[i + 1] - from;
        const i64 at = starts[i];
        if (t != counts[i] || t < 0 || from < 0 || from > src_cap - t
                || at < 0 || at > out_cap - t)
            return -(i + 1);
        memcpy(out_vals + at, src_vals + from, (size_t)t * sizeof(double));
        if (shift == 0) {
            memcpy(out_cols + at, src_cols + from, (size_t)t * sizeof(i64));
        } else {
            for (i64 s = 0; s < t; s++) out_cols[at + s] = src_cols[from + s] + shift;
        }
        total += t;
    }
    return total;
}

/* the paper's col_offset structure (Section III.D) in one sweep of B:
 * row r's line of the n x (panels + 1) split is a histogram of its
 * elements' panels, prefix-summed from indptr[r].  It counts rather than
 * walks, so an unsorted row splits as the numpy form splits it. */
void repro_col_split(i64 n, i64 panels, const i64 *indptr, const i64 *cols,
                     const i64 *panel_of_col, i64 *splits)
{
    for (i64 r = 0; r < n; r++, splits += panels + 1) {
        memset(splits, 0, (size_t)(panels + 1) * sizeof(i64));
        for (i64 q = indptr[r]; q < indptr[r + 1]; q++) splits[panel_of_col[cols[q]] + 1]++;
        splits[0] = indptr[r];
        for (i64 p = 0; p < panels; p++) splits[p + 1] += splits[p];
    }
}

/* one column panel gathered off the split: its row r is B's
 * [splits[0], splits[1]) at splits + r * stride, column ids less
 * `shift`, and out_indptr is written as the rows land.  A range that is
 * reversed, leaves B (src_cap) or overflows the panel (out_cap) returns
 * -(r + 1) with nothing of row r written; otherwise the nnz written. */
i64 repro_col_gather(
    i64 n, const i64 *splits, i64 stride, i64 src_cap, const i64 *cols,
    const double *vals, i64 shift,
    i64 out_cap, i64 *out_indptr, i64 *out_cols, double *out_vals)
{
    i64 at = 0;
    out_indptr[0] = 0;
    for (i64 r = 0; r < n; r++, splits += stride) {
        const i64 from = splits[0], t = splits[1] - from;
        if (t < 0 || from < 0 || from > src_cap - t || at > out_cap - t)
            return -(r + 1);
        for (i64 s = 0; s < t; s++) out_cols[at + s] = cols[from + s] - shift;
        memcpy(out_vals + at, vals + from, (size_t)t * sizeof(double));
        at += t;
        out_indptr[r + 1] = at;
    }
    return at;
}

/* the planner's cut table (core/chunks.py, CutTable) with no dense
 * col_offset: B's row k as runs of elements in one bucket, (bucket, count)
 * pairs from runs + 2 at[k]; each segment of A's rows between row cuts
 * counts its references to each distinct B row (refs; seen lists them)
 * and adds count x runs to its line of cells (zeroed by the caller) — one
 * multiply-add per run of a distinct row, not per element.  Counts wrap
 * past 2^63 as int64 would.  work: n_cols + 3 n_b + 1 + 2 nnz(B) i64.
 * Cuts that are not sorted rows of A, or columns of B from 0 to n_cols,
 * return -1 with nothing written. */
i64 repro_cut_cells(
    i64 n_a, i64 nrc, const i64 *restrict rc, const i64 *restrict a_indptr,
    const i64 *restrict a_cols, i64 n_b, i64 n_cols,
    const i64 *restrict b_indptr, const i64 *restrict b_cols, i64 ncc,
    const i64 *restrict cc, i64 *restrict work, i64 *restrict cells)
{
    i64 *bucket = work, *at = work + n_cols, *refs = at + n_b + 1;
    i64 *seen = refs + n_b, *runs = seen + n_b, m = 0, nb = ncc - 1;
    int bad = nrc < 1 || ncc < 1 || rc[0] < 0 || rc[nrc - 1] > n_a
              || cc[0] != 0 || cc[ncc - 1] != n_cols;
    for (i64 s = 1; s < nrc; s++) bad |= rc[s] < rc[s - 1];
    for (i64 q = 1; q < ncc; q++) bad |= cc[q] < cc[q - 1];
    if (bad) return -1;
    for (i64 q = 0; q < nb; q++)
        for (i64 j = cc[q]; j < cc[q + 1]; j++) bucket[j] = q;
    for (i64 k = 0; k < n_b; k++) {
        at[k] = m;
        refs[k] = 0;
        for (i64 q = b_indptr[k], end = b_indptr[k + 1], t; q < end; q = t, m++) {
            for (t = q + 1; t < end && bucket[b_cols[t]] == bucket[b_cols[q]]; t++) {}
            runs[2 * m] = bucket[b_cols[q]];
            runs[2 * m + 1] = t - q;
        }
    }
    at[n_b] = m;
    for (i64 s = 0; s < nrc - 1; s++) {
        i64 distinct = 0;
        for (i64 r = rc[s]; r < rc[s + 1]; r++)
            for (i64 q = a_indptr[r]; q < a_indptr[r + 1]; q++)
                if (refs[a_cols[q]]++ == 0) seen[distinct++] = a_cols[q];
        for (i64 d = 0; d < distinct; d++) {
            const i64 k = seen[d], *run = runs + 2 * at[k], *stop = runs + 2 * at[k + 1];
            for (const i64 *j = run; j < stop; j += 2)
                ((u64 *)cells)[s * nb + j[0]] += (u64)refs[k] * (u64)j[1];
            refs[k] = 0;
        }
    }
    return 0;
}

/* zlib's CRC-32 (reflected 0xEDB88320, pre- and post-inverted), the check
 * on every frame, chunk file and manifest.  From 64 bytes, n & ~15 of
 * them fold by carry-less multiply: four 128-bit lanes per 64-byte block,
 * then one lane, then a Barrett step to 32 bits (Gopal et al., Intel
 * 2009; Linux crc32-pclmul).  A bytewise loop takes the rest. */
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CRC_TARGET __attribute__((target("sse4.1,pclmul")))
CRC_TARGET static __m128i fold16(__m128i x, __m128i k, __m128i y) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)), y);
}
CRC_TARGET static unsigned crc_fold(unsigned c, const unsigned char *p, i64 n) {
    const __m128i *q = (const __m128i *)p, lo32 = _mm_setr_epi32(-1, 0, -1, 0);
    __m128i k = _mm_set_epi64x(0x1c6e41596, 0x154442bd4), x[4];
    /* unrolled, the lanes stay in registers: 13 GB/s in cache, not 7.5 */
#pragma GCC unroll 4
    for (int l = 0; l < 4; l++) x[l] = _mm_loadu_si128(q + l);
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128((int)c));
    for (q += 4, n -= 64; n >= 64; q += 4, n -= 64)
#pragma GCC unroll 4
        for (int l = 0; l < 4; l++) x[l] = fold16(x[l], k, _mm_loadu_si128(q + l));
    k = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    __m128i a = fold16(fold16(fold16(x[0], k, x[1]), k, x[2]), k, x[3]);
    for (; n >= 16; q++, n -= 16) a = fold16(a, k, _mm_loadu_si128(q));
    a = _mm_xor_si128(_mm_srli_si128(a, 8), _mm_clmulepi64_si128(a, k, 0x10));
    a = _mm_xor_si128(_mm_srli_si128(a, 4), _mm_clmulepi64_si128(
        _mm_and_si128(a, lo32), _mm_set_epi64x(0, 0x163cd6124), 0x00));
    k = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    __m128i b = _mm_clmulepi64_si128(_mm_and_si128(a, lo32), k, 0x10);
    b = _mm_clmulepi64_si128(_mm_and_si128(b, lo32), k, 0x00);
    return (unsigned)_mm_extract_epi32(_mm_xor_si128(a, b), 1);
}
int repro_crc32_fast(void) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#else
int repro_crc32_fast(void) { return 0; }
static unsigned crc_fold(unsigned c, const unsigned char *p, i64 n) { return c; }
#endif

unsigned repro_crc32(unsigned crc, const unsigned char *p, i64 n) {
    crc = ~crc;
    if (n >= 64 && repro_crc32_fast()) {
        crc = crc_fold(crc, p, n & ~(i64)15);
        p += n & ~(i64)15;
        n &= 15;
    }
    for (; n > 0; n--) {
        crc ^= *p++;
        for (int b = 0; b < 8; b++) crc = (crc >> 1) ^ (0xEDB88320u & -(crc & 1));
    }
    return ~crc;
}

/* json.dumps(x.tolist()) of a float64 / int64 array: "[" items joined by
 * ", " "]".  A float is the shortest decimal that reads back as it (the
 * one nearest x, ties to even), written as float.__repr__ writes it;
 * non-finite values as json writes them.  The caller sizes `out`: 26
 * bytes a float, 22 an int, 2 for the brackets. */
POW10_TABLE

static u64 mul64(u64 a, u64 b, u64 *lo) {
#ifdef __SIZEOF_INT128__
    const unsigned __int128 p = (unsigned __int128)a * b;
    *lo = (u64)p;
    return (u64)(p >> 64);
#else
    const u64 a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    const u64 p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    const u64 mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    *lo = (mid << 32) | (p00 & 0xFFFFFFFFu);
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
#endif
}

/* floor(g cp / 2^128), its last bit set when that drops a fraction */
static u64 round_to_odd(const u64 *g, u64 cp) {
    u64 x0, y0;
    const u64 x1 = mul64(g[1], cp, &x0), y1 = mul64(g[0], cp, &y0);
    const u64 z = y0 + x1;
    return (y1 + (z < x1)) | (z > 1);
}

static int floor_shift(int x, int n) { return x >= 0 ? x >> n : ~(~x >> n); }

/* x = c 2^q (finite, nonzero) as s 10^k with the fewest digits in s:
 * Schubfach (Giulietti, 2020).  k is chosen so that s has 16 or 17
 * digits; one digit fewer is tried first.  POW10[e - POW10_MIN] is
 * floor(10^e 2^(127 - floor(log2 10^e))) + 1. */
static int shortest(u64 bits, u64 *out) {
    const u64 m = bits & ((1ULL << 52) - 1);
    const int be = (int)(bits >> 52) & 0x7FF;
    u64 c = m;
    int q = -1074;
    if (be) {
        c |= 1ULL << 52;
        q = be - 1075;
        if (q <= 0 && q > -53 && !(c & ((1ULL << -q) - 1))) { *out = c >> -q; return 0; }
    }
    const int closer = m == 0 && be > 1;
    const int k = floor_shift(q * 1262611 - (closer ? 524031 : 0), 22);
    const int h = q + floor_shift(-k * 1741647, 19) + 1;
    const u64 *g = POW10[-k - POW10_MIN];
    const u64 odd = c & 1;
    const u64 lower = round_to_odd(g, (4 * c - 2 + closer) << h) + odd;
    const u64 vb = round_to_odd(g, (4 * c) << h);
    const u64 upper = round_to_odd(g, (4 * c + 2) << h) - odd;
    const u64 s = vb >> 2;
    if (s >= 10) {
        const u64 sp = s / 10;
        const int up = lower <= 40 * sp, wp = 40 * sp + 40 <= upper;
        if (up != wp) { *out = sp + wp; return k + 1; }
    }
    const int u = lower <= 4 * s, w = 4 * s + 4 <= upper;
    if (u != w) { *out = s + w; return k; }
    *out = s + (vb > 4 * s + 2 || (vb == 4 * s + 2 && (s & 1)));
    return k;
}

/* the digits of v, most significant first, two a step; returns their
 * count */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";
static int put_digits(char *p, u64 v) {
    char tmp[20], *e = tmp + 20;
    for (; v >= 100; v /= 100) { e -= 2; memcpy(e, PAIRS + 2 * (v % 100), 2); }
    if (v >= 10) { e -= 2; memcpy(e, PAIRS + 2 * v, 2); } else *--e = (char)('0' + v);
    const int n = (int)(tmp + 20 - e);
    memcpy(p, e, (size_t)n);
    return n;
}

static char *put_f64(char *p, double x) {
    u64 bits, s;
    memcpy(&bits, &x, sizeof bits);
    if ((bits >> 52 & 0x7FF) == 0x7FF) {
        const char *t = bits << 12 ? "NaN" : bits >> 63 ? "-Infinity" : "Infinity";
        const size_t n = strlen(t);
        memcpy(p, t, n);
        return p + n;
    }
    if (bits >> 63) *p++ = '-';
    if (!(bits << 1)) { memcpy(p, "0.0", 3); return p + 3; }
    int k = shortest(bits, &s);
    for (; s % 10 == 0; s /= 10) k++;
    char d[20];
    const int n = put_digits(d, s), point = n + k;  /* x = 0.d 10^point */
    if (point <= -4 || point > 16) {
        int e = point - 1;
        *p++ = d[0];
        if (n > 1) { *p++ = '.'; memcpy(p, d + 1, (size_t)(n - 1)); p += n - 1; }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0) e = -e;
        if (e < 10) *p++ = '0';
        return p + put_digits(p, (u64)e);
    }
    if (point <= 0) {
        memcpy(p, "0.000", (size_t)(2 - point));
        p += 2 - point;
        memcpy(p, d, (size_t)n);
        return p + n;
    }
    if (point < n) {
        memcpy(p, d, (size_t)point);
        p[point] = '.';
        memcpy(p + point + 1, d + point, (size_t)(n - point));
        return p + n + 1;
    }
    memcpy(p, d, (size_t)n);
    memset(p + n, '0', (size_t)(point - n));
    memcpy(p + point, ".0", 2);
    return p + point + 2;
}

static char *put_i64(char *p, i64 v) {
    if (v < 0) *p++ = '-';
    return p + put_digits(p, v < 0 ? 0 - (u64)v : (u64)v);
}

i64 repro_json_f64(const double *x, i64 n, char *out) {
    char *p = out;
    *p++ = '[';
    for (i64 i = 0; i < n; i++) {
        if (i) { *p++ = ','; *p++ = ' '; }
        p = put_f64(p, x[i]);
    }
    *p++ = ']';
    return p - out;
}

i64 repro_json_i64(const i64 *x, i64 n, char *out) {
    char *p = out;
    *p++ = '[';
    for (i64 i = 0; i < n; i++) {
        if (i) { *p++ = ','; *p++ = ' '; }
        p = put_i64(p, x[i]);
    }
    *p++ = ']';
    return p - out;
}

/* w 10^q (w != 0, at most 19 digits), rounded to the nearest double,
 * ties to even: Eisel-Lemire (Lemire, SPE 2021).  T = POW10[q] - 1 is
 * 10^q 2^s truncated to 128 bits, so the exact product P = w (T + d),
 * 0 <= d < 1, lies in [X, X + w) for X = w T.  P rounds as X does
 * unless that interval may hold a midpoint: then 0 is returned. */
static int eisel_lemire(u64 w, int q, u64 *bits) {
    if (q < POW10_MIN || q > POW10_MAX) return 0;
    const u64 *g = POW10[q - POW10_MIN];
    const u64 t_lo = g[1] - 1, t_hi = g[0] - (g[1] == 0);
    const int exact = q >= 0 && q <= 55;  /* 5^q < 2^128: d == 0 */
    const int lz = __builtin_clzll(w);
    w <<= lz;
    u64 l, mid, h;
    const u64 a = mul64(w, t_lo, &l);
    h = mul64(w, t_hi, &mid);
    mid += a;
    h += mid < a;
    /* x = P 2^(-lz - s), P's top bit at 190 + up: x's binary exponent
     * is e, and its last mantissa bit is P's bit `quantum` (52 below the
     * top, more for a subnormal) */
    const int up = (int)(h >> 63);
    const int e = 63 + up - lz + floor_shift(q * 1741647, 19);
    const int quantum = 138 + up + (e < -1022 ? -1022 - e : 0);
    if (quantum > 192) { *bits = 0; return 1; }
    const int r = quantum - 129;  /* the round bit's place in h */
    const u64 below = h & ((1ULL << r) - 1), m = r == 63 ? 0 : h >> (r + 1);
    u64 f;
    if (h >> r & 1)  /* X at or past a midpoint; P past it unless exact */
        f = m + (below || mid || l || !exact || (m & 1));
    else if (below == (1ULL << r) - 1 && mid == ~0ULL && !exact)
        return 0;  /* X just short of a midpoint: P may pass it */
    else
        f = m;
    /* a carry out of the mantissa lands in the exponent field */
    f += (u64)(e < -1022 ? 0 : e + 1022) << 52;
    *bits = f >= 0x7FFULL << 52 ? 0x7FFULL << 52 : f;
    return 1;
}

static i64 skip_ws(const unsigned char *s, i64 i, i64 n) {
    while (i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) i++;
    return i;
}

/* One item of a numeric array at s[i..n) in json's grammar: its value's
 * bits into *v and its kind (1 int64, 2 float64) into *kind; returns
 * where it ends, or -1 to decline it. */
static i64 parse_item(const unsigned char *s, i64 i, i64 n, u64 *v, int *kind) {
    const int neg = i < n && s[i] == '-';
    i += neg;
    if (i >= n) return -1;
    if (s[i] == 'I' || (s[i] == 'N' && !neg)) {
        const char *t = s[i] == 'N' ? "NaN" : "Infinity";
        const i64 len = (i64)strlen(t);
        if (n - i < len || memcmp(s + i, t, (size_t)len)) return -1;
        *v = s[i] == 'N' ? 0x7FF8000000000000ULL : (u64)neg << 63 | 0x7FFULL << 52;
        *kind = 2;
        return i + len;
    }
    u64 w = 0;
    int digits = 0, q = 0, exp = 0, is_float = 0;
    if (s[i] == '0') i++;
    else if (s[i] >= '1' && s[i] <= '9')
        for (; i < n && s[i] >= '0' && s[i] <= '9'; i++) {
            if (++digits > 19) return -1;
            w = 10 * w + (s[i] - '0');
        }
    else return -1;
    if (i < n && s[i] == '.') {
        const i64 start = ++i;
        for (; i < n && s[i] >= '0' && s[i] <= '9'; i++, q--) {
            if (w == 0 && s[i] == '0') continue;  /* a leading zero */
            if (++digits > 19) return -1;
            w = 10 * w + (s[i] - '0');
        }
        if (i == start) return -1;
        is_float = 1;
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
        i++;
        const int eneg = i < n && s[i] == '-';
        i += i < n && (s[i] == '-' || s[i] == '+');
        const i64 start = i;
        for (; i < n && s[i] >= '0' && s[i] <= '9'; i++)
            if (exp < 100000) exp = 10 * exp + (s[i] - '0');
        if (i == start) return -1;
        q += eneg ? -exp : exp;
        is_float = 1;
    }
    *kind = 1 + is_float;
    if (!is_float) {
        if (w > (u64)LLONG_MAX + neg) return -1;
        *v = neg ? 0 - w : w;
    } else if (w == 0) {
        *v = (u64)neg << 63;
    } else {
        if (!eisel_lemire(w, q, v)) return -1;
        *v |= (u64)neg << 63;
    }
    return i;
}

/* The items of the array whose '[' is at s[i - 1], into vals (cap
 * slots): all int64 or all float64.  Returns where the array ends, or -1
 * to decline it. */
static i64 parse_array(const unsigned char *s, i64 i, i64 n, u64 *vals,
                       i64 cap, i64 *count, int *kind) {
    i64 k = 0;
    int first = 0;
    for (i = skip_ws(s, i, n);; i = skip_ws(s, i + 1, n)) {
        int item;
        if (k == cap || (i = parse_item(s, i, n, vals + k, &item)) < 0) return -1;
        if (first && item != first) return -1;
        first = item;
        k++;
        i = skip_ws(s, i, n);
        if (i >= n) return -1;
        if (s[i] == ']') break;
        if (s[i] != ',') return -1;
    }
    *count = k;
    *kind = first;
    return i + 1;
}

/* Every numeric array of at least min_items items in the JSON text
 * s[0..n), outside string literals: spans[4 j ..] = its '[', the end of
 * its ']', its kind, its item count; the items follow one another in
 * vals.  Returns the arrays found, or -1 when a NaN lies outside them
 * (or a capacity runs out). */
i64 repro_json_scan(const char *text, i64 n, i64 min_items, u64 *vals,
                    i64 vcap, i64 *spans, i64 scap) {
    const unsigned char *s = (const unsigned char *)text;
    i64 used = 0, found = 0;
    for (i64 i = 0; i < n; i++) {
        if (s[i] == '"') {
            for (i++; i < n && s[i] != '"'; i++) i += s[i] == '\\';
            continue;
        }
        if (s[i] == 'N') return -1;
        if (s[i] != '[') continue;
        i64 count;
        int kind;
        const i64 end = parse_array(s, i + 1, n, vals + used, vcap - used, &count, &kind);
        if (end < 0 || count < min_items) continue;
        if (found == scap) return -1;
        i64 *span = spans + 4 * found++;
        span[0] = i, span[1] = end, span[2] = kind, span[3] = count;
        used += count;
        i = end - 1;
    }
    return found;
}
"""

#: compile flags; -ffp-contract=off is load-bearing for bit-identity
_CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99", "-ffp-contract=off")

#: the decimal exponents POW10 covers: -k for every k = floor(log10 2^q),
#: or of 3/4 2^q, over the binary exponents q in [-1074, 971] of a double
#: (the formatter), and every 10^q of a 17-digit subnormal (the parser)
_POW10_MIN, _POW10_MAX = -342, 324


def _source() -> str:
    """The C source with the formatter's POW10 table written out: entry e
    is floor(10^e 2^(127 - floor(log2 10^e))) + 1, by exact integers."""
    table = []
    p = 10 ** -_POW10_MIN
    for _ in range(_POW10_MIN, 0):
        table.append((1 << (127 + (p - 1).bit_length())) // p + 1)
        p //= 10
    for _ in range(_POW10_MAX + 1):
        shift = 127 - (p.bit_length() - 1)
        table.append((p << shift if shift >= 0 else p >> -shift) + 1)
        p *= 10
    rows = ",\n".join(f"{{0x{h[:16]}, 0x{h[16:]}}}"
                       for h in (f"{g:032x}" for g in table))
    return _SOURCE.replace(
        "POW10_TABLE", f"#define POW10_MIN ({_POW10_MIN})\n"
                       f"#define POW10_MAX {_POW10_MAX}\n"
                       f"static const u64 POW10[][2] = {{\n{rows}}};")


# process-wide probe state: (ffi, lib) when usable, error string when not
_STATE: dict = {"checked": False, "ffi": None, "lib": None, "error": None}

# serializes the first probe; thread-backend workers race to it, and a
# reader must never observe checked=True before lib/error are final
_PROBE_LOCK = threading.Lock()


def _cache_dir() -> Path:
    override = os.environ.get(NATIVE_CACHE_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-native"


def _compiler() -> Optional[str]:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cc and shutil.which(cc):
            return cc
    return None


def _build_library(cc: str) -> Path:
    """Compile the kernel into the cache (keyed by source + flags)."""
    source = _source()
    digest = hashlib.sha256(
        (source + "\0" + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"gustavson-{digest}.so"
    if so_path.exists():
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    c_path = cache / f"gustavson-{digest}.c"
    c_path.write_text(source)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    try:
        subprocess.run(
            [cc, *(_CFLAGS), "-o", tmp, str(c_path)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, so_path)  # atomic: racing builders converge
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return so_path


def _probe() -> None:
    """One-shot capability probe; results are memoized for the process."""
    if _STATE["checked"]:
        return
    with _PROBE_LOCK:
        if _STATE["checked"]:
            return
        try:
            _probe_locked()
        finally:
            # set last (and unconditionally): lock-free readers only see
            # checked=True once lib/error are final, and a crashed probe
            # is never retried
            _STATE["checked"] = True


def _probe_locked() -> None:
    flag = os.environ.get(NATIVE_ENV, "").strip().lower()
    if flag in ("0", "off", "false", "no"):
        _STATE["error"] = f"disabled via {NATIVE_ENV}={flag}"
        return
    try:
        import cffi  # noqa: F401  (optional dependency)
    except ImportError:
        _STATE["error"] = "cffi not installed"
        return
    cc = _compiler()
    if cc is None:
        _STATE["error"] = "no C compiler (cc/gcc/clang) on PATH"
        return
    try:
        so_path = _build_library(cc)
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(str(so_path))
    except Exception as exc:  # toolchain broken: remember, never retry
        _STATE["error"] = f"native kernel build failed: {exc}"
        return
    _STATE["ffi"], _STATE["lib"] = ffi, lib


def native_available() -> bool:
    """True when the compiled Gustavson kernel is usable in this process."""
    _probe()
    return _STATE["lib"] is not None


def native_build_error() -> Optional[str]:
    """Why the native kernel is unavailable (None when it is usable)."""
    _probe()
    return _STATE["error"]


class _Scratch:
    """One thread's kernel scratch: ``cap`` slots each of ``mark``,
    ``spa`` and the radix ``tmp``, one more of ``touched``, the row bitmap
    ``bits``, plus the generation stamp the C side advances (see the
    kernel source).  ``mark`` is zeroed here, once; ``spa`` is all -0.0
    and ``bits`` all zero here and after every row."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.mark = np.zeros(cap, dtype=np.int64)
        self.spa = np.full(cap, -0.0, dtype=np.float64)
        self.touched = np.empty(cap + 1, dtype=np.int64)
        self.tmp = np.empty(cap, dtype=np.int64)
        self.bits = np.zeros(cap // 64 + 1, dtype=np.uint64)
        self.gen = np.zeros(1, dtype=np.int64)


# per-thread: the thread backend runs chunks concurrently with the GIL
# released inside the kernel, so scratch can never be shared
_LOCAL = threading.local()


def _scratch(width: int) -> _Scratch:
    """This thread's scratch, regrown when a wider panel arrives (a
    narrower one uses a prefix: stale stamps are below the current one)."""
    scratch = getattr(_LOCAL, "scratch", None)
    if scratch is None or scratch.cap < width:
        scratch = _LOCAL.scratch = _Scratch(width)
    return scratch


_CTYPES = {"f": "double *", "i": "long long *", "u": "unsigned long long *"}


def _ptr(ffi, arr: np.ndarray):
    return ffi.cast(_CTYPES[arr.dtype.kind], arr.ctypes.data)


def _library():
    """``(ffi, lib)`` of the compiled kernel, or the reason there is none."""
    if not native_available():
        raise RuntimeError(
            f"native kernel unavailable: {native_build_error()}"
        )
    return _STATE["ffi"], _STATE["lib"]


def _enter(a: CSRMatrix, b: CSRMatrix, rows: np.ndarray):
    """Shared argument checks; returns ``(ffi, lib, rows as int64)``."""
    ffi, lib = _library()
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= a.n_rows):
        raise IndexError("row id out of range for A")
    return ffi, lib, rows


def native_count_rows(a: CSRMatrix, b: CSRMatrix, rows: np.ndarray, *,
                      return_products: bool = False):
    """Exact output nnz of the listed rows of ``A x B`` (the count pass).

    ``rows`` are row ids of ``a`` — nothing of A is copied.  With
    ``return_products`` the result is ``(counts, products)``: each row's
    intermediate products, the row analysis, from the same sweep.
    Raises :class:`RuntimeError` when the kernel is unavailable — callers
    gate on :func:`native_available`.
    """
    ffi, lib, rows = _enter(a, b, rows)
    counts = np.zeros(rows.size, dtype=np.int64)
    products = np.zeros(rows.size, dtype=np.int64) if return_products else None
    s = _scratch(b.n_cols)
    lib.repro_spgemm_count(
        rows.size, _ptr(ffi, rows),
        _ptr(ffi, a.row_offsets), _ptr(ffi, a.col_ids),
        _ptr(ffi, b.row_offsets), _ptr(ffi, b.col_ids),
        _ptr(ffi, s.mark), s.cap, _ptr(ffi, s.gen),
        _ptr(ffi, counts),
        ffi.NULL if products is None else _ptr(ffi, products),
    )
    return (counts, products) if return_products else counts


def _check_slots(n: int, starts: np.ndarray, counts: np.ndarray,
                 col_ids: np.ndarray, data: np.ndarray) -> None:
    """What the C side cannot check for itself: that the pointers it is
    handed are ``n`` int64 slots and two writable arrays of one length."""
    for arr in (starts, counts):
        if (arr.dtype != np.int64 or arr.shape != (n,)
                or not arr.flags.c_contiguous):
            raise ValueError(
                f"slot starts/counts must be contiguous int64 of length {n}"
            )
    for out, dtype in ((col_ids, np.int64), (data, np.float64)):
        if (out.dtype != dtype or out.shape != col_ids.shape or out.ndim != 1
                or not out.flags.c_contiguous or not out.flags.writeable):
            raise ValueError(
                "col_ids/data must be writable contiguous int64/float64 "
                "arrays of one length"
            )


def native_fill_slots(
    a: CSRMatrix,
    b: CSRMatrix,
    rows: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    shift: int,
    col_ids: np.ndarray,
    data: np.ndarray,
) -> None:
    """Write the listed rows of ``A x B`` into their slots (the fill pass).

    Row ``r`` lands at ``col_ids/data[starts[r]:starts[r] + counts[r]]``,
    columns ascending and each plus ``shift``; ``starts`` / ``counts``
    hold one entry per row of ``a``, the counts from
    :func:`native_count_rows`.  The kernel checks every row against its
    slot *before* writing it: a row whose nnz is not ``counts[r]``, or
    whose slot leaves the arrays, raises :class:`RuntimeError` naming the
    row, and nothing is written out of bounds whatever the slots hold.
    """
    ffi, lib, rows = _enter(a, b, rows)
    _check_slots(a.n_rows, starts, counts, col_ids, data)
    s = _scratch(b.n_cols)
    code = lib.repro_spgemm_fill(
        rows.size, _ptr(ffi, rows),
        _ptr(ffi, a.row_offsets), _ptr(ffi, a.col_ids), _ptr(ffi, a.data),
        _ptr(ffi, b.row_offsets), _ptr(ffi, b.col_ids), _ptr(ffi, b.data),
        _ptr(ffi, s.mark), _ptr(ffi, s.spa), _ptr(ffi, s.touched),
        _ptr(ffi, s.tmp), _ptr(ffi, s.bits), s.cap, _ptr(ffi, s.gen),
        _ptr(ffi, starts), _ptr(ffi, counts), int(shift),
        col_ids.size, _ptr(ffi, col_ids), _ptr(ffi, data),
    )
    if code < 0:
        raise RuntimeError(
            f"native kernel overflow: row {int(rows[-code - 1])} does not "
            f"fit its slot"
        )


def native_place_rows(
    src_indptr: np.ndarray,
    src_cols: np.ndarray,
    src_vals: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    shift: int,
    col_ids: np.ndarray,
    data: np.ndarray,
) -> int:
    """Copy finished rows into their slots, once (the ``place`` helper).

    Source row ``i`` is ``src_cols/src_vals[src_indptr[i]:src_indptr[i +
    1]]``; it lands at ``starts[i]`` with ``shift`` added to its column
    ids.  Returns ``-1`` when every row was placed, else the position of
    the first row refused — its length is not ``counts[i]``, or its
    source or slot leaves its array — with nothing of that row written.
    """
    ffi, lib = _library()
    n = src_indptr.size - 1
    _check_slots(n, starts, counts, col_ids, data)
    for arr, dtype in ((src_indptr, np.int64), (src_cols, np.int64),
                       (src_vals, np.float64)):
        if (arr.dtype != dtype or arr.ndim != 1
                or not arr.flags.c_contiguous):
            raise ValueError("source arrays must be contiguous int64/float64")
    code = lib.repro_place_rows(
        n, _ptr(ffi, src_indptr), min(src_cols.size, src_vals.size),
        _ptr(ffi, src_cols), _ptr(ffi, src_vals),
        _ptr(ffi, starts), _ptr(ffi, counts), int(shift),
        col_ids.size, _ptr(ffi, col_ids), _ptr(ffi, data),
    )
    return -1 if code >= 0 else -code - 1


def native_crc32_error() -> Optional[str]:
    """Why CRC32 runs on zlib rather than :func:`native_crc32` — the
    library's build error, or a CPU without PCLMULQDQ (None: it does not)."""
    if not native_available():
        return native_build_error() or "native library unavailable"
    return None if _STATE["lib"].repro_crc32_fast() else "CPU lacks pclmul"


def native_crc32(buf, crc: int = 0) -> int:
    """``zlib.crc32(buf, crc)`` by the library's carry-less-multiply fold;
    ``buf`` is anything zlib takes, and is refused as zlib refuses it."""
    ffi, lib = _library()
    data = ffi.from_buffer(buf)
    return lib.repro_crc32(crc, data, len(data))


def native_col_offsets(b: CSRMatrix, bounds: np.ndarray) -> np.ndarray:
    """:func:`~repro.sparse.partition.build_col_offsets` of ``b`` at the
    int64 cuts it validated, in one C sweep of ``b``."""
    ffi, lib = _library()
    panel_of_col = np.repeat(np.arange(bounds.size - 1, dtype=np.int64),
                             np.diff(bounds))
    if panel_of_col.size != b.n_cols:
        raise ValueError("boundaries must cut [0, n_cols) into panels")
    splits = np.empty((b.n_rows, bounds.size), dtype=np.int64)
    lib.repro_col_split(b.n_rows, bounds.size - 1, *(
        _ptr(ffi, x) for x in (b.row_offsets, b.col_ids, panel_of_col, splits)))
    return splits


def native_col_panels(b: CSRMatrix, splits: np.ndarray, bounds: np.ndarray):
    """``(row_offsets, col_ids, data)`` of each column panel of ``b``:
    row ``r`` of panel ``p`` is ``b``'s ``[splits[r, p], splits[r, p +
    1])``, column ids less ``bounds[p]``, in arrays sized from the split.
    A split whose ranges leave ``b`` or miss its own panel totals raises
    :class:`RuntimeError`, with nothing written out of bounds."""
    ffi, lib = _library()
    if (splits.dtype != np.int64 or splits.shape != (b.n_rows, bounds.size)
            or not splits.flags.c_contiguous):
        raise ValueError(f"splits must be contiguous int64 of shape "
                         f"({b.n_rows}, {bounds.size})")
    panels = []
    # the column sums may wrap; their differences are the exact panel nnz
    for p, nnz in enumerate(np.diff(splits.sum(axis=0)).tolist()):
        out = (np.empty(b.n_rows + 1, dtype=np.int64),
               np.empty(nnz, dtype=np.int64), np.empty(nnz))
        if lib.repro_col_gather(
                b.n_rows, _ptr(ffi, splits) + p, bounds.size,
                min(b.col_ids.size, b.data.size), _ptr(ffi, b.col_ids),
                _ptr(ffi, b.data), int(bounds[p]), nnz,
                *(_ptr(ffi, x) for x in out)) != nnz:
            raise RuntimeError(f"column split of B is inconsistent at panel {p}")
        panels.append(out)
    return panels


def native_cut_cells(a: CSRMatrix, b: CSRMatrix, row_cuts: np.ndarray,
                     col_cuts: np.ndarray) -> np.ndarray:
    """The cells of ``A x B`` on sorted cuts of A's rows and B's columns:
    ``cells[s, q]``, int64, is the products of rows ``[row_cuts[s],
    row_cuts[s + 1])`` with columns ``[col_cuts[q], col_cuts[q + 1])``."""
    ffi, lib = _library()
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    rc, cc = (np.ascontiguousarray(x, dtype=np.int64) for x in (row_cuts, col_cuts))
    cells = np.zeros((max(rc.size - 1, 0), max(cc.size - 1, 0)), dtype=np.int64)
    work = np.empty(b.n_cols + 3 * b.n_rows + 1 + 2 * b.nnz, dtype=np.int64)
    if lib.repro_cut_cells(
            a.n_rows, rc.size, _ptr(ffi, rc), _ptr(ffi, a.row_offsets),
            _ptr(ffi, a.col_ids), b.n_rows, b.n_cols, _ptr(ffi, b.row_offsets),
            _ptr(ffi, b.col_ids), cc.size, _ptr(ffi, cc), _ptr(ffi, work),
            _ptr(ffi, cells)) < 0:
        raise ValueError("cuts must be sorted rows of A, and columns of B "
                         "from 0 to n_cols")
    return cells


def native_json(arr: np.ndarray) -> bytearray:
    """``json.dumps(arr.tolist()).encode()`` of a 1-D float64 or int64
    array, written by the library's formatter into the buffer returned
    (cut to length in place: the text is not copied)."""
    ffi, lib = _library()
    if arr.ndim != 1:
        raise ValueError("the JSON formatter takes 1-D arrays")
    if arr.dtype == np.float64:
        fmt, ctype, width = lib.repro_json_f64, "double[]", 26
    elif arr.dtype == np.int64:
        fmt, ctype, width = lib.repro_json_i64, "long long[]", 22
    else:
        raise TypeError(f"no JSON formatter for {arr.dtype} arrays")
    arr = np.ascontiguousarray(arr)
    out = bytearray(width * arr.size + 2)
    with ffi.from_buffer(ctype, arr) as src, ffi.from_buffer(out) as dst:
        n = fmt(src, arr.size, dst)
    del out[n:]
    return out


def native_json_arrays(text: bytes, min_items: int):
    """The numeric arrays of at least ``min_items`` items in the JSON
    ``text``, outside its strings, that the library's parser reads
    exactly: ``[(start, end, array), ...]`` in document order, where
    ``text[start:end]`` is the array's text and ``array`` its int64 or
    float64 items.  None when a ``NaN`` lies outside those arrays."""
    ffi, lib = _library()
    n = len(text)
    # an item takes two bytes at least, an array of them 2 min_items + 1
    vals = np.empty(n // 2 + 1, dtype=np.uint64)
    spans = np.empty((n // (2 * min_items + 1) + 1, 4), dtype=np.int64)
    with ffi.from_buffer(text) as src, \
            ffi.from_buffer("unsigned long long[]", vals) as out, \
            ffi.from_buffer("long long[]", spans) as where:
        found = lib.repro_json_scan(src, n, min_items, out, vals.size,
                                    where, len(spans))
    if found < 0:
        return None
    arrays, used = [], 0
    for start, end, kind, count in spans[:found].tolist():
        arrays.append((start, end, vals[used:used + count].view(
            np.float64 if kind == 2 else np.int64)))
        used += count
    return arrays
