/* The compiled kernels of caradec in plain C: the forward block kernel
 * with its entry check and tape rows (caradec_decompose_blocks), the block
 * projection and its VJP (caradec_project_blocks), the batch scorer of
 * coverage and cut objectives (caradec_score_rows), the reverse pass
 * shared by every family's tape (caradec_backprop_blocks) and the Adam
 * step (caradec_adam_ascend).  Each is the twin of a function in
 * _purepy.py, step for step and bit for bit.  The package compiles this
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

static entry make(double y, int64_t i)
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

static int64_t id_of(entry e)
{
    return (int64_t)~e.tie;
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
static void sort_ints(int64_t *a, int64_t *tmp, int size)
{
    int mid = size / 2, i, j, o = 0;
    if (size <= 16) {
        for (i = 1; i < size; i++) {
            int64_t e = a[i];
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
static double sum_squares(const double *y, int64_t n)
{
    double s = 0.0;
    int64_t i;
    for (i = 0; i < n; i++)
        s += y[i] * y[i];
    return s;
}

/* The int64 in the 8-byte word h[i] of a header that also holds doubles. */
static int64_t word(const double *h, int i)
{
    int64_t v;
    memcpy(&v, h + i, sizeof v);
    return v;
}

/* Checks the blocks given by block_of[n] and budgets[nb] (block b holds
 * start[b + 1] - start[b] coordinates, start[0 .. nb] being scratch) and,
 * unless x is NULL, the point x[0 .. n) of their box + per-block-sum
 * polytope, which it then clips to [0, 1] in place, keeping -0.0.
 * Returns the sum of the budgets, -2 when a block id lies outside [0, nb)
 * or a budget outside [0, block size], -4 when an entry is NaN, infinite or
 * outside [0, 1] by more than box_tol, and -5 when a block's sum, added in
 * index order from 0.0, is off its budget by more than sum_tol; then
 * bad[0] is that sum and bad[1] the block.  -1: no scratch memory. */
static int64_t check_point(int64_t n, int64_t nb, const int64_t *block_of, const int64_t *budgets,
                           double *x, double box_tol, double sum_tol, int64_t *start, double *bad)
{
    double *sum = calloc((size_t)nb + 1, sizeof *sum);
    int64_t i, b, K = 0, err = 0;

    if (!sum)
        return -1;
    memset(start, 0, (size_t)(nb + 1) * sizeof *start);
    for (i = 0; i < n && !err; i++)
        if (block_of[i] < 0 || block_of[i] >= nb)
            err = -2;
        else
            start[block_of[i] + 1]++;
    for (b = 0; b < nb && !err; b++) {
        if (budgets[b] < 0 || budgets[b] > start[b + 1])
            err = -2;
        K += budgets[b];
        start[b + 1] += start[b];
    }
    for (i = 0; x && i < n && !err; i++)
        if (!(x[i] >= -box_tol && x[i] <= 1.0 + box_tol)) /* NaN fails both */
            err = -4;
    for (i = 0; x && i < n && !err; i++)
        sum[block_of[i]] += x[i];
    for (b = 0; x && b < nb && !err; b++)
        if (fabs(sum[b] - (double)budgets[b]) > sum_tol) {
            bad[0] = sum[b];
            bad[1] = (double)b;
            err = -5;
        }
    for (i = 0; x && i < n && !err; i++)
        x[i] = x[i] < 0.0 ? 0.0 : x[i] > 1.0 ? 1.0 : x[i];
    free(sum);
    return err ? err : K;
}

/* Runs at most `cap` steps of the peeling loop on y = q x and writes the
 * decomposition's rows and the gradient tape's.  A first call checks the
 * point x0 (see check_point) and starts from it clipped; a later call
 * resumes a run from the y and the state of the call before, and equals
 * its continuation.  The caller packs every argument into two buffers, the
 * scalars in their heads (ctypes converts a scalar argument at several
 * times the cost of a pointer):
 *   f  = scale, floor, eps, guard, box_tol, sum_tol, cap (an int64 word),
 *        state[5], x0[n], y[n], probs[cap], qs[cap], avals[cap],
 *        aexs[cap], wx[cap], wval[cap];
 *   iw = n, nb, K, block_of[n], budgets[nb] (the block layout),
 *        vptr[cap + 1], vidx[cap][K], wptr[cap + 1], widx[cap],
 *        branch[cap],
 * where K must be the sum of the budgets.  Row t of the vertex rows (vptr,
 * vidx) is step t's vertex, in index order.  Row t of the functional rows
 * (wptr, widx, wval) is its binding constraint w_t = +-r e_bind, with
 * r = a_t/a_exact on a rescaled step (1 otherwise) and + on a min-in
 * step, and wx[t] = w_t.x_t = +-r (a_exact or 1 - a_exact); a terminal
 * step's row is empty and its wx 0.  Both row pointers start from 0 in
 * each call.  state[2] is the mass q (negative on a first call), state[3]
 * the running sum of squares of y and state[4] its value at its last
 * exact summation, in and out.  On return state[0] is the residual's sup
 * norm: max |y - q v| over the last vertex v after a terminal step, max |y|
 * after another step, 0 when no step ran.  state[1] is 0 when the steps
 * ran out, 1 after the eps stop and 2 after a terminal step.  Returns the
 * number of steps taken, or check_point's negative code (with state[0],
 * state[1] = the bad sum and its block on -5). */
int caradec_decompose_blocks(double *f, int64_t *iw)
{
    const int64_t n = iw[0], nb = iw[1], cap = word(f, 6);
    const double scale = f[0], floor_ = f[1], eps = f[2], guard = f[3];
    double *state = f + 7, *x0 = state + 5, *y = x0 + n, *probs = y + n, *qs = probs + cap,
           *avals = qs + cap, *aexs = avals + cap, *wx = aexs + cap, *wval = wx + cap;
    const int64_t *block_of = iw + 3, *budgets = block_of + n;
    int64_t *vptr = iw + 3 + n + nb, *verts = vptr + cap + 1, *wptr, *widx, *branch;
    const int first_call = state[2] < 0.0;
    entry *es = malloc((size_t)(n + 1) * sizeof *es), *out = malloc((size_t)(n + 1) * sizeof *out);
    int64_t *moved = malloc((size_t)(n + 1) * sizeof *moved);
    int64_t *tmp = malloc((size_t)(n + 1) * sizeof *tmp);
    double *old = malloc((size_t)(n + 1) * sizeof *old);
    int64_t *start = malloc((size_t)(nb + 1) * sizeof *start);
    double q = first_call ? 1.0 : state[2], ss = state[3], ss_ref = state[4], mx = 0.0;
    int64_t K = -1, T = 0, b, i, t;
    int stop = 0;

    if (!es || !out || !moved || !tmp || !old || !start)
        goto done;
    K = check_point(n, nb, block_of, budgets, first_call ? x0 : NULL, f[4], f[5], start, state);
    if (K >= 0 && K != iw[2])
        K = -2;
    if (K < 0)
        goto done;
    wptr = verts + cap * K;
    widx = wptr + cap + 1;
    branch = widx + cap;
    vptr[0] = wptr[0] = 0;
    /* Block b's coordinates are es[start[b] .. start[b + 1]): first the
     * heap of those outside the vertex, then the vertex's members. */
    for (i = 0; i < n; i++) {
        if (first_call)
            y[i] = x0[i];
        es[start[block_of[i]]++] = make(y[i], i);
    }
    for (b = nb; b > 0; b--)
        start[b] = start[b - 1];
    start[0] = 0;
    if (first_call && eps > 0.0)
        ss = ss_ref = sum_squares(y, n);

    for (t = 0; t < cap; t++) {
        int64_t *v = verts + t * K, idx_in = -1, bi, b_out = -1, pos = 0;
        double a_in = INFINITY, a_out = INFINITY, a_exact, a_scaled, a, aq, qn, r, w;
        int br, exact_step, nm = 0;

        /* The vertex: each block's members, then the whole row sorted. */
        for (b = 0; b < nb; b++) {
            int64_t lo = start[b], size = start[b + 1] - lo, k = budgets[b];
            if (t == 0 ? k < size : 0 < k && k < size)
                select_block(es + lo, (int)size, (int)k, t == 0, out);
            for (i = lo + size - k; i < lo + size; i++)
                v[pos++] = id_of(es[i]);
            if (k < size && (b_out < 0 || first(es[lo], es[start[b_out]])))
                b_out = b;
        }
        sort_ints(v, tmp, (int)K);
        vptr[t + 1] = (t + 1) * K;

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
            wptr[t + 1] = t;
            wx[t] = 0.0;
            for (b = 0; b < nb; b++) {
                int64_t h = start[b + 1] - budgets[b];
                for (i = start[b]; i < start[b + 1]; i++) {
                    double d = fabs(i < h ? y[id_of(es[i])] : y[id_of(es[i])] - q);
                    if (d > mx)
                        mx = d;
                }
            }
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
        r = a_exact > 0.0 && a != a_exact ? a / a_exact : 1.0;
        w = br == BRANCH_MIN_IN ? r : -r;
        wptr[t + 1] = t + 1;
        widx[t] = bi;
        wval[t] = w;
        wx[t] = w * (br == BRANCH_MIN_IN ? a_exact : 1.0 - a_exact);

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
            int h = (int)(start[b + 1] - start[b] - budgets[b]);
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
                int64_t j = id_of(heap[0]);
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
    if (stop != 2 && T > 0)
        for (i = 0; i < n; i++)
            if (fabs(y[i]) > mx)
                mx = fabs(y[i]);
    state[0] = mx;
    state[1] = stop;
    state[2] = q;
    state[3] = ss;
    state[4] = ss_ref;
done:
    free(es);
    free(out);
    free(moved);
    free(tmp);
    free(old);
    free(start);
    return K < 0 ? (int)K : (int)T;
}

/* The mean-centred projection of _purepy.project_blocks (gx NULL) or its
 * VJP, project_blocks_vjp (gx given), with the same operations in the same
 * order: each block's mean of z, and for the VJP its sum of g and its dot
 * product g.(z - m), added in index order from 0.0.  iw is the block
 * layout n, nb, K, block_of[n], budgets[nb].  Writes x, or dF/dz for
 * dF/dx = gx, to out[n].
 * Returns 0, -1 when scratch memory cannot be had, or -2 when a block id
 * lies outside [0, nb) or a budget outside [0, block size]. */
int caradec_project_blocks(const int64_t *iw, const double *z, const double *gx, double *out)
{
    const int64_t n = iw[0], nb = iw[1], *block_of = iw + 3, *budgets = block_of + n;
    double *sc = malloc((size_t)(5 * nb + 1) * sizeof *sc);
    double *m = sc, *s = m + nb, *ds = s + nb, *gm = ds + nb, *dot = gm + nb;
    int64_t *size = calloc((size_t)nb + 1, sizeof *size), i, b, K = 0;
    char *deg = malloc((size_t)nb + 1);
    int err = 0;

    if (!sc || !size || !deg) {
        err = -1;
        goto done;
    }
    for (b = 0; b < nb; b++)
        m[b] = gm[b] = dot[b] = 0.0;
    for (i = 0; i < n && !err; i++)
        if (block_of[i] < 0 || block_of[i] >= nb)
            err = -2;
        else {
            size[block_of[i]]++;
            m[block_of[i]] += z[i];
        }
    for (b = 0; b < nb && !err; b++) {
        if (budgets[b] < 0 || budgets[b] > size[b])
            err = -2;
        K += budgets[b];
    }
    if (err || K != iw[2]) {
        err = -2;
        goto done;
    }
    for (b = 0; b < nb; b++) {
        int64_t k = budgets[b], ni = size[b];
        double u, s1, s2;
        deg[b] = k == 0 || k == ni;
        if (deg[b])
            continue;
        m[b] /= (double)ni;
        deg[b] = m[b] <= 0.0 || m[b] >= 1.0;
        if (deg[b])
            continue;
        u = (double)k / (double)ni;
        s1 = u / m[b];
        s2 = ((double)(ni - k) / (double)ni) / (1.0 - m[b]);
        if (s1 <= s2) {
            s[b] = s1;
            ds[b] = -u / (m[b] * m[b]);
        } else {
            s[b] = s2;
            ds[b] = ((double)(ni - k) / (double)ni) / ((1.0 - m[b]) * (1.0 - m[b]));
        }
    }
    if (!gx) {
        for (i = 0; i < n; i++) {
            b = block_of[i];
            out[i] = deg[b] ? (double)budgets[b] / (double)size[b]
                            : s[b] * (z[i] - m[b]) + (double)budgets[b] / (double)size[b];
        }
        goto done;
    }
    for (i = 0; i < n; i++) {
        b = block_of[i];
        if (!deg[b]) {
            gm[b] += gx[i];
            dot[b] += gx[i] * (z[i] - m[b]);
        }
    }
    for (b = 0; b < nb; b++)
        if (!deg[b]) {
            gm[b] /= (double)size[b];
            ds[b] /= (double)size[b];
        }
    for (i = 0; i < n; i++) {
        b = block_of[i];
        out[i] = deg[b] ? 0.0 : s[b] * (gx[i] - gm[b]) + ds[b] * dot[b];
    }
done:
    free(sc);
    free(size);
    free(deg);
    return err;
}

/* One Adam ascent step of _purepy.adam_ascend, in place on theta, m and v:
 * m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
 * theta += (lr (m / c1)) / (sqrt(v / c2) + eps), where c1 = 1 - b1^t and
 * c2 = 1 - b2^t come from the caller.  g = lr, b1, b2, eps, c1, c2, n (an
 * int64 word), then the gradient g[n]. */
void caradec_adam_ascend(double *theta, double *m, double *v, const double *g)
{
    const double lr = g[0], b1 = g[1], b2 = g[2], eps = g[3], c1 = g[4], c2 = g[5];
    const int64_t n = word(g, 6);
    int64_t i;
    for (g += 7, i = 0; i < n; i++) {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
        theta[i] = theta[i] + lr * (m[i] / c1) / (sqrt(v[i] / c2) + eps);
    }
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
 * out = kind, n, m, rows, nnz (int64 words), then the values out[rows].
 * Returns 0, -1 when scratch memory cannot be had, and check_rows's -3 or
 * -2 for a bad pointer or id, before reading anything through them. */
int caradec_score_rows(const int64_t *a, const int64_t *b, const double *w, const int64_t *indptr,
                       const int64_t *indices, double *out)
{
    const int64_t kind = word(out, 0), n = word(out, 1), m = word(out, 2), rows = word(out, 3),
                  nnz = word(out, 4);
    int64_t words = ((kind == KIND_COVERAGE ? m : n) + 63) / 64, r, i, e;
    uint64_t *bits;
    int err = check_rows(indptr, indices, rows, nnz, n);

    if (err)
        return err;
    bits = calloc((size_t)words + 1, sizeof *bits);
    if (!bits)
        return -1;
    out += 5;
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
 *        functional indptr[T + 1], functional indices[nw];
 *   h  = n, T, terminal, nv, nw (int64 words), then h[n], which receives
 *        the gradient.
 * Returns 0, -2 when an index lies outside
 * [0, n) (or a terminal tape has no step) and -3 when a row pointer is not
 * one, before reading anything through them. */
int caradec_backprop_blocks(const double *f, const int64_t *iw, double *h)
{
    const int64_t n = word(h, 0), nv = word(h, 3), nw = word(h, 4);
    int64_t T = word(h, 1);
    const int terminal = word(h, 2) != 0;
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
    h += 5;
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
