/* The compiled kernels of caradec in plain C: the forward block kernel
 * (caradec_decompose_blocks), the batch scorer of coverage and cut
 * objectives (caradec_score_rows) and the reverse pass shared by every
 * family's tape (caradec_backprop_blocks).  Each is the twin of a function
 * in _purepy.py, step for step and bit for bit.  The package compiles this
 * file on first import and calls it through ctypes (see _compiled.py); it
 * uses no Python or numpy header.
 *
 * The forward kernel keeps y = q x instead of the iterate x, where q is
 * the mass left.  A step with coefficient a maps x to (x - a v)/(1 - a) and
 * q to q (1 - a), so y loses a q on the vertex's members and keeps its
 * value everywhere else: the kernel updates the k members only and sets
 * q' = q - a q.  As a step never moves a coordinate outside the vertex,
 * each block keeps those coordinates in a heap under the strict order (y
 * descending, index ascending).  A step sorts the old members, which all
 * lost the same amount, and each heap top that comes before the best member
 * left joins the vertex, the worst member left taking its place in the
 * heap.  The argmax outside the vertex is the best of the block tops, and
 * the clip to [0, q'] touches only the members and the heap tops above q'.
 * So a step costs O(k log n) plus a look at each block, instead of several
 * passes over all n coordinates.  The residual (max |y|, or max |y - q v|
 * after a terminal step) is taken once at the end, and the eps test reads a
 * running sum of squares of y, summed afresh whenever it falls below a
 * quarter of its last exact value.
 *
 * The pure kernel selects with numpy sorts instead of heaps.  Both select
 * the same vertex, because the order has no ties, and both repeat the same
 * floating-point operations in the same order: the first-index argmin over
 * the index-sorted vertex and the argmax outside it, y/q and 1 - y/q, a q
 * taken from each member in index order, the pin, the clip (which keeps
 * -0.0), q - a q, and each change to the sum of squares, members first and
 * then the coordinates outside, in index order.  The scorer and the reverse
 * pass add in the fixed orders that their twins state.  The file must be
 * compiled without contraction of a*b+c into fused multiply-adds
 * (-ffp-contract=off) and without -ffast-math. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { BRANCH_MIN_IN = 0, BRANCH_MAX_OUT = 1, BRANCH_TERMINAL = 2 };
/* Children per node of the block heaps. */
enum { ARITY = 4 };

/* A block coordinate i with its y: a key that grows with y and a tie that
 * falls with i.  first(a, b) says whether a comes before b under the strict
 * order (y descending, index ascending): the larger key, or on equal keys
 * the larger tie.  Keys are rarely equal, so that test is a branch the
 * processor predicts. */
typedef struct {
    uint64_t key;
    uint32_t tie;
} entry;

static int first(entry a, entry b)
{
    return a.key != b.key ? a.key > b.key : a.tie > b.tie;
}

static entry make(double y, int32_t i)
{
    entry e;
    uint64_t u;
    y += 0.0; /* -0.0 ranks as 0.0 */
    memcpy(&u, &y, sizeof u);
    /* Flipping the sign bit of a positive double and every bit of a
     * negative one makes the unsigned order the order of the values. */
    e.key = u >> 63 ? ~u : u | (uint64_t)1 << 63;
    e.tie = ~(uint32_t)i;
    return e;
}

static int32_t id_of(entry e)
{
    return (int32_t)~e.tie;
}

/* A heap is heap[0 .. h) with every entry before its ARITY children, so
 * that heap[0] comes first.  Puts e at heap[pos], whose subtrees are heaps,
 * and moves it down to its place.  A non-member's y changes only while it
 * is its heap's top, so the y packed in a heap entry is its y. */
static void sift_down(entry *heap, int h, int pos, entry e)
{
    int c, best;
    /* Nodes with all their children: the first of each pair, then of the
     * two winners, with no branch but the loop's. */
    while ((c = ARITY * pos + 1) + ARITY <= h) {
        int l = c + first(heap[c + 1], heap[c]), r = c + 2 + first(heap[c + 3], heap[c + 2]);
        best = first(heap[r], heap[l]) ? r : l;
        if (!first(heap[best], e))
            break;
        heap[pos] = heap[best];
        pos = best;
    }
    if (c < h && c + ARITY > h) {
        for (best = c++; c < h; c++)
            best = first(heap[c], heap[best]) ? c : best;
        if (first(heap[best], e)) {
            heap[pos] = heap[best];
            pos = best;
        }
    }
    heap[pos] = e;
}

/* Brings the block es[0 .. size) to its selected state for budget k: the
 * heap of the size - k coordinates outside the vertex in es[0 .. size - k),
 * and the k members, first to last, in es[size - k .. size).  Unless
 * `fresh`, es holds the previous selection with the members' y updated:
 * the members are sorted (their order barely moves, as they all lose the
 * same amount), and each heap top that comes before the best member left
 * takes a place in the vertex and is replaced by the last member left.
 * `fresh` builds the heap of the whole block and pops k.  out[0 .. k) is
 * scratch. */
static void select_block(entry *es, int size, int k, int fresh, entry *out)
{
    entry *heap = es, *mem = es + size - k;
    int h = size - k, i, j, end = k;
    if (fresh) {
        for (i = (size - 2) / ARITY; i >= 0 && size > 1; i--)
            sift_down(es, size, i, es[i]);
        for (i = 0; i < k; i++) {
            out[i] = es[0];
            sift_down(es, size - i - 1, 0, es[size - i - 1]);
        }
    } else {
        for (i = 1; i < k; i++) {
            entry e = mem[i];
            for (j = i; j > 0 && first(e, mem[j - 1]); j--)
                mem[j] = mem[j - 1];
            mem[j] = e;
        }
        for (i = j = 0; i < k; i++)
            if (h > 0 && first(heap[0], mem[j])) {
                out[i] = heap[0];
                sift_down(heap, h, 0, mem[--end]);
            } else {
                out[i] = mem[j++];
            }
    }
    memcpy(mem, out, (size_t)k * sizeof *out);
}

/* Sorts a[0 .. size) ascending, with tmp[0 .. size / 2) as scratch. */
static void sort_ints(int32_t *a, int32_t *tmp, int size)
{
    int mid = size / 2, i, j, o = 0;
    if (size <= 16) {
        for (i = 1; i < size; i++) {
            int32_t e = a[i];
            for (j = i; j > 0 && a[j - 1] > e; j--)
                a[j] = a[j - 1];
            a[j] = e;
        }
        return;
    }
    sort_ints(a, tmp, mid);
    sort_ints(a + mid, tmp, size - mid);
    memcpy(tmp, a, (size_t)mid * sizeof *a);
    for (i = 0, j = mid; i < mid && j < size;)
        a[o++] = a[j] < tmp[i] ? a[j++] : tmp[i++];
    while (i < mid)
        a[o++] = tmp[i++];
}

/* The sum of y[i] * y[i] over i in [0, n), added in index order from 0.0. */
static double sum_squares(const double *y, int n)
{
    double s = 0.0;
    int i;
    for (i = 0; i < n; i++)
        s += y[i] * y[i];
    return s;
}

/* Runs at most `cap` steps of the peeling loop on y = q x.  The caller
 * packs the arguments into two buffers:
 *   f  = y[n] (updated in place), state[5], probs[cap], qs[cap],
 *        avals[cap], aexs[cap];
 *   iw = block_of[n], budgets[nb], verts[cap][K], bind[cap], branch[cap],
 * where K is the sum of the budgets.  On entry and on return, state[0] is
 * the mass q, state[3] the running sum of squares of y and state[4] its
 * value at its last exact summation; a negative state[4] asks for a first
 * summation (when eps > 0).  A run split over several calls that pass this
 * state on equals one call.  On return state[1] is the residual's sup norm:
 * max |y - q v| over the last vertex v after a terminal step, max |y| after
 * another step, 0 when no step ran.  state[2] is 0 when the steps ran out,
 * 1 after the eps stop and 2 after a terminal step.  Returns the number of
 * steps taken, -1 when scratch memory cannot be had, or -2 when a block id
 * lies outside [0, nb) or a budget outside [0, block size]. */
int caradec_decompose_blocks(int n, int nb, int cap, double scale, double floor_, double eps,
                             double guard, double *f, int32_t *iw)
{
    double *y = f, *state = f + n, *probs = state + 5, *qs = probs + cap, *avals = qs + cap,
           *aexs = avals + cap;
    const int32_t *block_of = iw, *budgets = iw + n;
    int32_t *verts = iw + n + nb, *bind, *branch;
    entry *es = malloc((size_t)(n + 1) * sizeof *es), *out = malloc((size_t)(n + 1) * sizeof *out);
    int32_t *moved = malloc((size_t)(n + 1) * sizeof *moved);
    int32_t *tmp = malloc((size_t)(n + 1) * sizeof *tmp);
    double *old = malloc((size_t)(n + 1) * sizeof *old);
    int *start = malloc((size_t)(nb + 1) * sizeof *start);
    double q = state[0], ss = state[3], ss_ref = state[4], mx = 0.0;
    int K = 0, T = 0, stop = 0, b, i, t;

    if (!es || !out || !moved || !tmp || !old || !start) {
        T = -1;
        goto done;
    }
    /* Block b's coordinates are es[start[b] .. start[b + 1]): first the
     * heap of those outside the vertex, then the vertex's members. */
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
    for (i = 0; i < n; i++) {
        entry e = make(y[i], i);
        es[start[block_of[i]]++] = e;
    }
    for (b = nb; b > 0; b--)
        start[b] = start[b - 1];
    start[0] = 0;
    if (eps > 0.0 && ss_ref < 0.0)
        ss = ss_ref = sum_squares(y, n);

    for (t = 0; t < cap; t++) {
        int32_t *v = verts + (size_t)t * K;
        double a_in = INFINITY, a_out = INFINITY, a_exact, a_scaled, a, aq, qn;
        int32_t idx_in = -1, bi;
        int br, exact_step, pos = 0, nm = 0, b_out = -1;

        /* The vertex: each block's members, then the whole row sorted. */
        for (b = 0; b < nb; b++) {
            int lo = start[b], size = start[b + 1] - lo, k = budgets[b];
            if (t == 0 ? k < size : 0 < k && k < size)
                select_block(es + lo, size, k, t == 0, out);
            for (i = lo + size - k; i < lo + size; i++)
                v[pos++] = id_of(es[i]);
            if (k < size && (b_out < 0 || first(es[lo], es[start[b_out]])))
                b_out = b;
        }
        sort_ints(v, tmp, K);

        if (K > 0) {
            idx_in = v[0];
            for (i = 1; i < K; i++)
                if (y[v[i]] < y[idx_in])
                    idx_in = v[i];
            a_in = y[idx_in] / q;
        }
        if (b_out >= 0)
            a_out = 1.0 - y[id_of(es[start[b_out]])] / q;

        if (a_in <= a_out) {
            a_exact = a_in;
            br = BRANCH_MIN_IN;
            bi = idx_in;
        } else {
            a_exact = a_out;
            br = BRANCH_MAX_OUT;
            bi = id_of(es[start[b_out]]);
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
            for (b = 0; b < nb; b++) {
                int h = start[b + 1] - budgets[b];
                for (i = start[b]; i < start[b + 1]; i++) {
                    double d = fabs(i < h ? y[id_of(es[i])] : y[id_of(es[i])] - q);
                    if (d > mx)
                        mx = d;
                }
            }
            state[1] = mx;
            stop = 2;
            T = t + 1;
            break;
        }

        aq = a * q;
        qn = q - aq;
        probs[t] = aq;
        avals[t] = a;
        aexs[t] = a_exact;
        branch[t] = br;
        bind[t] = bi;

        for (i = 0; i < K; i++) {
            double y0 = y[v[i]], y1 = y0 - aq;
            if (exact_step && v[i] == bi)
                /* The binding member is algebraically exactly 0. */
                y1 = 0.0;
            if (y1 < 0.0)
                y1 = 0.0;
            else if (y1 > qn)
                y1 = qn;
            y[v[i]] = y1;
            if (eps > 0.0)
                ss += y1 * y1 - y0 * y0;
        }
        /* Outside the vertex, the binding coordinate of an exact max-out
         * step is algebraically exactly q', and the clip lowers what lies
         * above q' to q'.  Each such coordinate is its heap's top when it
         * changes. */
        for (b = 0; b < nb; b++) {
            entry *heap = es + start[b];
            int h = start[b + 1] - start[b] - budgets[b];
            for (i = h; i < h + budgets[b]; i++)
                heap[i] = make(y[id_of(heap[i])], id_of(heap[i]));
            if (exact_step && br == BRANCH_MAX_OUT && b == b_out) {
                entry e = make(qn, bi);
                moved[nm++] = bi;
                old[bi] = y[bi];
                y[bi] = qn;
                sift_down(heap, h, 0, e);
            }
            while (h > 0 && y[id_of(heap[0])] > qn) {
                int32_t j = id_of(heap[0]);
                entry e = make(qn, j);
                moved[nm++] = j;
                old[j] = y[j];
                y[j] = qn;
                sift_down(heap, h, 0, e);
            }
        }
        q = qn;
        T = t + 1;
        if (eps > 0.0) {
            sort_ints(moved, tmp, nm);
            for (i = 0; i < nm; i++)
                ss += qn * qn - old[moved[i]] * old[moved[i]];
            if (ss < 0.25 * ss_ref)
                /* Drift stays far below the sum while it is at least a
                 * quarter of an exact one. */
                ss = ss_ref = sum_squares(y, n);
            if (sqrt(ss) <= eps) {
                stop = 1;
                break;
            }
        }
    }
    if (stop != 2) {
        for (i = 0; i < n; i++)
            if (fabs(y[i]) > mx)
                mx = fabs(y[i]);
        state[1] = T > 0 ? mx : 0.0;
    }
    state[0] = q;
    state[2] = stop;
    state[3] = ss;
    state[4] = ss_ref;
done:
    free(es);
    free(out);
    free(moved);
    free(tmp);
    free(old);
    free(start);
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
