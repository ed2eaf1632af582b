/* Forward block kernel of caradec in plain C: the twin of _purepy.py's
 * decompose_blocks, step for step and bit for bit.  The package compiles
 * this file on first import and calls it through ctypes (see _compiled.py);
 * it uses no Python or numpy header.
 *
 * Each step takes, per block, the k largest coordinates under the strict
 * order (value descending, index ascending), which is the set the pure
 * kernel's sorts pick; like the pure kernel, it carries each block's order
 * from one step to the next.  Everything after the selection repeats the
 * pure kernel's floating-point operations in the same order: the
 * first-index argmin over the index-sorted vertex and argmax outside it,
 * x[v] -= a, x /= 1 - a, the pin, numpy's clip (which keeps -0.0),
 * q *= 1 - a, and the eps test's sequential sum of squares.  It must be
 * compiled without contraction of a*b+c into fused multiply-adds
 * (-ffp-contract=off) and without -ffast-math. */

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
