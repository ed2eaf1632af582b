/* The compiled kernels of caradec in plain C: the forward block kernel
 * (caradec_decompose_blocks), the batch scorer of coverage and cut
 * objectives (caradec_score_rows) and the reverse pass shared by every
 * family's tape (caradec_backprop_blocks).  Each is the twin of a function
 * in _purepy.py, step for step and bit for bit.  The package compiles this
 * file on first import and calls it through ctypes (see _compiled.py); it
 * uses no Python or numpy header.
 *
 * Each step of the forward kernel takes, per block, the k largest
 * coordinates under the strict order (value descending, index ascending),
 * which is the set the pure kernel's sorts pick; like the pure kernel, it
 * carries each block's order from one step to the next.  Everything after
 * the selection repeats the pure kernel's floating-point operations in the
 * same order: the first-index argmin over the index-sorted vertex and
 * argmax outside it, x[v] -= a, x /= 1 - a, the pin, numpy's clip (which
 * keeps -0.0), q *= 1 - a, and the eps test's sequential sum of squares.
 * The scorer and the reverse pass add in the fixed orders that their twins
 * state.  The file must be compiled without contraction of a*b+c into fused
 * multiply-adds (-ffp-contract=off) and without -ffast-math. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { BRANCH_MIN_IN = 0, BRANCH_MAX_OUT = 1, BRANCH_TERMINAL = 2 };

/* Coordinate i comes before j: larger value, or equal value and smaller
 * index. */
static int before(const double *x, int32_t i, int32_t j)
{
    return x[i] > x[j] || (x[i] == x[j] && i < j);
}

/* Sorts idx[0..size) under `before`, with tmp as scratch (merge sort). */
static void sort_strict(const double *x, int32_t *idx, int32_t *tmp, int size)
{
    int mid = size / 2, i = 0, j = mid, o = 0;
    if (size < 2)
        return;
    sort_strict(x, idx, tmp, mid);
    sort_strict(x, idx + mid, tmp, size - mid);
    memcpy(tmp, idx, (size_t)mid * sizeof *idx);
    while (i < mid && j < size)
        idx[o++] = before(x, idx[j], tmp[i]) ? idx[j++] : tmp[i++];
    while (i < mid)
        idx[o++] = tmp[i++];
}

/* Brings a block's coordinates idx[0..size) into descending order of value
 * so that its first k are the k first under `before`.  On entry (unless
 * `fresh`) idx holds the previous step's order: a step maps the previous
 * vertex and the rest by two increasing maps, so each part is still
 * descending, and one merge restores the order.  Where that does not hold
 * (the pin can break it), or where positions k-1 and k tie in value, the
 * block is sorted afresh under `before`. */
static void order_block(const double *x, int32_t *idx, int32_t *tmp, int size, int k, int fresh)
{
    if (!fresh) {
        int i = 0, j = k, o = 0;
        memcpy(tmp, idx, (size_t)k * sizeof *idx);
        while (i < k && j < size)
            idx[o++] = x[tmp[i]] >= x[idx[j]] ? tmp[i++] : idx[j++];
        while (i < k)
            idx[o++] = tmp[i++];
        for (i = 1; i < size && x[idx[i - 1]] >= x[idx[i]]; i++)
            ;
        fresh = i < size;
    }
    if (fresh || x[idx[k - 1]] == x[idx[k]])
        sort_strict(x, idx, tmp, size);
}

/* Runs at most `cap` steps of the peeling loop.  The caller packs the
 * arguments into two buffers:
 *   f  = x[n] (updated in place), state[3], probs[cap], qs[cap],
 *        avals[cap], aexs[cap];
 *   iw = block_of[n], budgets[nb], verts[cap][K], bind[cap], branch[cap],
 * where K is the sum of the budgets.  state[0] is the mass q on entry and
 * on return.  On return state[1] is the residual's sup norm: q times the
 * distance of x from the last vertex after a terminal step, q max|x| after
 * another step, 0 when no step ran.  state[2] is 0 when the steps
 * ran out, 1 after the eps stop and 2 after a terminal step.  Returns the
 * number of steps taken, -1 when scratch memory cannot be had, or -2 when
 * a block id lies outside [0, nb) or a budget outside [0, block size]. */
int caradec_decompose_blocks(int n, int nb, int cap, double scale, double floor_, double eps,
                             double guard, double *f, int32_t *iw)
{
    double *x = f, *state = f + n, *probs = state + 3, *qs = probs + cap, *avals = qs + cap,
           *aexs = avals + cap;
    const int32_t *block_of = iw, *budgets = iw + n;
    int32_t *verts = iw + n + nb, *bind, *branch;
    int32_t *idx = malloc((size_t)(n + 1) * sizeof *idx);
    int32_t *tmp = malloc((size_t)(n + 1) * sizeof *tmp);
    int *start = malloc((size_t)(nb + 1) * sizeof *start);
    char *in_set = malloc((size_t)n + 1);
    double q = state[0], mx;
    int K = 0, T = 0, stop = 0, b, i, t;

    if (!idx || !tmp || !start || !in_set) {
        T = -1;
        goto done;
    }
    /* Block b's coordinates are idx[start[b] .. start[b + 1]). */
    memset(start, 0, (size_t)(nb + 1) * sizeof *start);
    for (i = 0; i < n && 0 <= block_of[i] && block_of[i] < nb; i++)
        start[block_of[i] + 1]++;
    for (b = 0; b < nb && i == n && 0 <= budgets[b] && budgets[b] <= start[b + 1]; b++) {
        K += budgets[b];
        start[b + 1] += start[b];
    }
    if (i < n || b < nb) {
        T = -2;
        goto done;
    }
    bind = verts + (size_t)cap * K;
    branch = bind + cap;
    for (i = 0; i < n; i++)
        idx[start[block_of[i]]++] = i;
    for (b = nb; b > 0; b--)
        start[b] = start[b - 1];
    start[0] = 0;

    for (t = 0; t < cap; t++) {
        int32_t *v = verts + (size_t)t * K;
        double a_in = INFINITY, a_out = INFINITY, a_exact, a_scaled, a, om;
        int32_t idx_in = -1, idx_out = -1, bi;
        int br, exact_step, pos = 0;

        memset(in_set, 0, (size_t)n);
        for (b = 0; b < nb; b++) {
            int lo = start[b], size = start[b + 1] - lo, k = budgets[b];
            if (0 < k && k < size)
                order_block(x, idx + lo, tmp, size, k, t == 0);
            for (i = lo; i < lo + k; i++)
                in_set[idx[i]] = 1;
        }
        for (i = 0; i < n; i++)
            if (in_set[i])
                v[pos++] = i;

        if (K > 0) {
            a_in = x[v[0]];
            idx_in = v[0];
            for (i = 1; i < K; i++)
                if (x[v[i]] < a_in) {
                    a_in = x[v[i]];
                    idx_in = v[i];
                }
        }
        if (K < n) {
            for (i = 0; in_set[i]; i++)
                ;
            idx_out = i;
            for (i++; i < n; i++)
                if (!in_set[i] && x[i] > x[idx_out])
                    idx_out = i;
            a_out = 1.0 - x[idx_out];
        }

        if (a_in <= a_out) {
            a_exact = a_in;
            br = BRANCH_MIN_IN;
            bi = idx_in;
        } else {
            a_exact = a_out;
            br = BRANCH_MAX_OUT;
            bi = idx_out;
        }
        if (a_exact < 0.0) /* Python's max(a_exact, 0.0): keeps -0.0 */
            a_exact = 0.0;

        a_scaled = scale * a_exact;
        if (a_scaled >= floor_) {
            a = a_scaled;
            exact_step = scale == 1.0;
        } else {
            a = a_exact;
            exact_step = 1;
        }

        qs[t] = q;
        if (a > 1.0 - guard || q * (1.0 - a) < guard) {
            probs[t] = q;
            avals[t] = 1.0;
            aexs[t] = 1.0;
            branch[t] = BRANCH_TERMINAL;
            bind[t] = -1;
            mx = 0.0;
            for (i = 0; i < n; i++) {
                double d = fabs(in_set[i] ? x[i] - 1.0 : x[i]);
                if (d > mx)
                    mx = d;
            }
            state[1] = q * mx;
            stop = 2;
            T = t + 1;
            break;
        }

        probs[t] = a * q;
        avals[t] = a;
        aexs[t] = a_exact;
        branch[t] = br;
        bind[t] = bi;

        om = 1.0 - a;
        for (i = 0; i < K; i++)
            x[v[i]] -= a;
        for (i = 0; i < n; i++)
            x[i] /= om;
        if (exact_step)
            /* The binding coordinate is algebraically exactly 0 or 1. */
            x[bi] = br == BRANCH_MIN_IN ? 0.0 : 1.0;
        for (i = 0; i < n; i++) {
            if (x[i] < 0.0)
                x[i] = 0.0;
            else if (x[i] > 1.0)
                x[i] = 1.0;
        }
        q *= om;
        T = t + 1;
        if (eps > 0.0) {
            double ss = 0.0;
            for (i = 0; i < n; i++)
                ss += x[i] * x[i];
            if (q * sqrt(ss) <= eps) {
                stop = 1;
                break;
            }
        }
    }
    if (stop != 2) {
        mx = 0.0;
        for (i = 0; i < n; i++)
            if (fabs(x[i]) > mx)
                mx = fabs(x[i]);
        state[1] = T > 0 ? q * mx : 0.0;
    }
    state[0] = q;
    state[2] = stop;
done:
    free(idx);
    free(tmp);
    free(start);
    free(in_set);
    return T;
}

enum { KIND_COVERAGE = 0, KIND_CUT = 1 };

/* 0 when indptr[0 .. rows] is a CSR row pointer over nnz entries (starts at
 * 0, never falls, ends at nnz) and every entry of idx lies in [0, n); -3
 * when the pointer is not, -2 when an entry is not. */
static int check_rows(const int64_t *indptr, const int64_t *idx, int64_t rows, int64_t nnz,
                      int64_t n)
{
    int64_t r, i;
    if (indptr[0] != 0 || indptr[rows] != nnz)
        return -3;
    for (r = 0; r < rows; r++)
        if (indptr[r + 1] < indptr[r])
            return -3;
    for (i = 0; i < nnz; i++)
        if (idx[i] < 0 || idx[i] >= n)
            return -2;
    return 0;
}

/* Values of a batch of rows: row r is the id set indices[indptr[r] ..
 * indptr[r + 1]), ids in [0, n), members in any order and repeats allowed.
 *   Coverage (kind 0): id s covers the elements
 *     b[a[s] .. a[s + 1]) of m weighted elements; a row's value adds the
 *     weights w[e] of the elements it covers in ascending e from 0.0.  The
 *     covered elements are marked in a bitmap of ceil(m/64) words.
 *   Cut (kind 1): the ids are nodes of a graph whose m edges join a[e] and
 *     b[e]; a row's value adds w[e] in edge order from 0.0 over the edges
 *     with exactly one endpoint among its ids.
 * Returns 0, -1 when scratch memory cannot be had, and check_rows's -3 or
 * -2 for a bad pointer or id, before reading anything through them. */
int caradec_score_rows(int kind, int64_t n, int64_t m, const int64_t *a, const int64_t *b,
                       const double *w, int64_t rows, int64_t nnz, const int64_t *indptr,
                       const int64_t *indices, double *out)
{
    int64_t words = ((kind == KIND_COVERAGE ? m : n) + 63) / 64, r, i, e;
    uint64_t *bits;
    int err = check_rows(indptr, indices, rows, nnz, n);

    if (err)
        return err;
    bits = calloc((size_t)words + 1, sizeof *bits);
    if (!bits)
        return -1;
    for (r = 0; r < rows; r++) {
        double s = 0.0;
        if (kind == KIND_COVERAGE) {
            for (i = indptr[r]; i < indptr[r + 1]; i++)
                for (e = a[indices[i]]; e < a[indices[i] + 1]; e++)
                    bits[b[e] >> 6] |= (uint64_t)1 << (b[e] & 63);
            /* Reads each word and clears it for the next row. */
            for (i = 0; i < words; i++) {
                uint64_t word = bits[i];
                bits[i] = 0;
                for (; word; word &= word - 1)
                    s += w[i * 64 + __builtin_ctzll(word)];
            }
        } else {
            for (i = indptr[r]; i < indptr[r + 1]; i++)
                bits[indices[i] >> 6] |= (uint64_t)1 << (indices[i] & 63);
            for (e = 0; e < m; e++)
                if (((bits[a[e] >> 6] >> (a[e] & 63)) ^ (bits[b[e] >> 6] >> (b[e] & 63))) & 1)
                    s += w[e];
            memset(bits, 0, (size_t)words * sizeof *bits);
        }
        out[r] = s;
    }
    free(bits);
    return 0;
}

/* The reverse pass of _purepy.backprop_blocks over a tape of T steps, with
 * the same operations in the same order: each dot product g.v_t is a
 * sequential sum from 0.0 of h[i] * v_i (the twin skips the product when
 * every entry is 1, which changes no bit), and c, the scale, c / scale and
 * D are formed as the twin's expressions form them.  The caller packs the
 * arguments into two buffers:
 *   f  = p[T], q[T], a[T], fvals[T], wx[T], vertex data[nv],
 *        functional data[nw];
 *   iw = vertex indptr[T + 1], vertex indices[nv],
 *        functional indptr[T + 1], functional indices[nw].
 * h[n] receives the gradient.  Returns 0, -2 when an index lies outside
 * [0, n) (or a terminal tape has no step) and -3 when a row pointer is not
 * one, before reading anything through them. */
int caradec_backprop_blocks(int64_t n, int64_t T, int terminal, int64_t nv, int64_t nw,
                            const double *f, const int64_t *iw, double *h)
{
    const double *p = f, *q = p + T, *a = q + T, *fv = a + T, *wx = fv + T, *vval = wx + T,
                 *wval = vval + nv;
    const int64_t *vptr = iw, *vidx = vptr + T + 1, *wptr = vidx + nv, *widx = wptr + T + 1;
    double scale = 1.0, D = 0.0, R = 0.0;
    int64_t t, i;
    int err = check_rows(vptr, vidx, T, nv, n);

    if (!err)
        err = check_rows(wptr, widx, T, nw, n);
    if (!err && terminal && T == 0)
        err = -2;
    if (err)
        return err;
    for (i = 0; i < n; i++)
        h[i] = 0.0;
    if (terminal) {
        T--;
        R = p[T] * fv[T];
    }
    for (t = T - 1; t >= 0; t--) {
        double o = 1.0 - a[t], s = 0.0, gv, c, cs;
        for (i = vptr[t]; i < vptr[t + 1]; i++)
            s += h[vidx[i]] * vval[i];
        gv = scale * s;
        c = (D - gv) / o + (q[t] * fv[t] - R / o);
        scale /= o;
        cs = c / scale;
        for (i = wptr[t]; i < wptr[t + 1]; i++)
            h[widx[i]] += cs * wval[i];
        D += a[t] * gv / o + c * wx[t];
        R += p[t] * fv[t];
    }
    for (i = 0; i < n; i++)
        h[i] = scale * h[i];
    return 0;
}
