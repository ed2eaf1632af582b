/* The compiled kernels of caradec in plain C: the forward block kernel
 * with its entry check and tape rows (caradec_decompose_blocks), the block
 * projection and its VJP (caradec_project_blocks), the batch scorer of
 * coverage and cut objectives (caradec_score_rows), the reverse pass
 * shared by every family's tape (caradec_backprop_blocks), the Adam step
 * (caradec_adam_ascend), the sigmoid and projection that start a
 * block-family Adam step (caradec_sigmoid_project) and its reverse half in
 * one call (caradec_ascend_blocks), a whole stable-set decomposition
 * (caradec_decompose_fstab) and a whole graphic decomposition
 * (caradec_decompose_graphic).  Each is the twin of a function in
 * _purepy.py, step for step and bit for bit.  The two graph oracles' stages
 * are static functions of their whole-peel kernels, each the twin of a
 * _purepy function that the pure path calls per step: the max-flow
 * (push_flow, _purepy.max_flow) and the stable-set labelling of its
 * residual graph (label_cover, _purepy.label_stable_set) once per
 * stable-set step, and the graphic node-block scans, one flow per node
 * (scan_blocks and tight_scan, _purepy.block_scan and
 * _purepy.tight_blocks), at every graphic step.  The package compiles this
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
 * its continuation.  blocks is the block layout n, nb, K, block_of[n],
 * budgets[nb], where K must be the sum of the budgets.  The caller packs
 * the other arguments into two buffers, the scalars in the head of f
 * (ctypes converts a scalar argument at several times the cost of a
 * pointer):
 *   f  = scale, floor, eps, guard, box_tol, sum_tol, cap (an int64 word),
 *        state[5], x0[n], y[n], probs[cap], qs[cap], avals[cap],
 *        aexs[cap], wx[cap], wval[cap];
 *   iw = vptr[cap + 1], vidx[cap][K], wptr[cap + 1], widx[cap],
 *        branch[cap].
 * Row t of the vertex rows (vptr, vidx) is step t's vertex, in index
 * order.  Row t of the functional rows (wptr, widx, wval) is its binding
 * constraint w_t = +-r e_bind, with r = a_t/a_exact on a rescaled step
 * (1 otherwise) and + on a min-in step, and wx[t] = w_t.x_t = +-r
 * (a_exact or 1 - a_exact); a terminal step's row is empty and its wx 0.
 * Both row pointers start from 0 in each call.  state[2] is the mass q
 * (negative on a first call), state[3] the running sum of squares of y
 * and state[4] its value at its last exact summation, in and out.  On return state[0] is the residual's sup
 * norm: max |y - q v| over the last vertex v after a terminal step, else
 * max |y| (the clipped x0 when no step ran).  state[1] is 0 when the steps
 * ran out, 1 after the eps stop and 2 after a terminal step.  Returns the
 * number of steps taken, or check_point's negative code (with state[0],
 * state[1] = the bad sum and its block on -5). */
int caradec_decompose_blocks(const int64_t *blocks, double *f, int64_t *iw)
{
    const int64_t n = blocks[0], nb = blocks[1], cap = word(f, 6);
    const double scale = f[0], floor_ = f[1], eps = f[2], guard = f[3];
    double *state = f + 7, *x0 = state + 5, *y = x0 + n, *probs = y + n, *qs = probs + cap,
           *avals = qs + cap, *aexs = avals + cap, *wx = aexs + cap, *wval = wx + cap;
    const int64_t *block_of = blocks + 3, *budgets = block_of + n;
    int64_t *vptr = iw, *verts = vptr + cap + 1, *wptr, *widx, *branch;
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
    if (K >= 0 && K != blocks[2])
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
    if (stop != 2)
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
 * Returns 0, -1 when scratch memory cannot be had, -5 when a block id
 * lies outside [0, nb) or a budget outside [0, block size] (or K is not
 * their sum), or else -8 when an entry of z is NaN or infinite. */
static int project(const int64_t *iw, const double *z, const double *gx, double *out)
{
    const int64_t n = iw[0], nb = iw[1], *block_of = iw + 3, *budgets = block_of + n;
    double *sc = malloc((size_t)(5 * nb + 1) * sizeof *sc);
    double *m = sc, *s = m + nb, *ds = s + nb, *gm = ds + nb, *dot = gm + nb;
    int64_t *size = calloc((size_t)nb + 1, sizeof *size), i, b, K = 0;
    char *deg = malloc((size_t)nb + 1);
    int err = 0, finite = 1;

    if (!sc || !size || !deg) {
        err = -1;
        goto done;
    }
    for (b = 0; b < nb; b++)
        m[b] = gm[b] = dot[b] = 0.0;
    for (i = 0; i < n && !err; i++)
        if (block_of[i] < 0 || block_of[i] >= nb)
            err = -5;
        else {
            size[block_of[i]]++;
            m[block_of[i]] += z[i];
            finite &= isfinite(z[i]) != 0;
        }
    for (b = 0; b < nb && !err; b++) {
        if (budgets[b] < 0 || budgets[b] > size[b])
            err = -5;
        K += budgets[b];
    }
    if (err || K != iw[2]) {
        err = -5;
        goto done;
    }
    if (!finite) {
        err = -8;
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

int caradec_project_blocks(const int64_t *iw, const double *z, const double *gx, double *out)
{
    return project(iw, z, gx, out);
}

/* One Adam ascent step of _purepy.adam_ascend on the gradient g[n], in
 * place on theta, m and v: m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g
 * and theta += (lr (m / c1)) / (sqrt(v / c2) + eps), where hp = lr, b1, b2,
 * eps, c1, c2, with c1 = 1 - b1^t and c2 = 1 - b2^t from the caller. */
static void adam_step(int64_t n, const double *hp, double *theta, double *m, double *v, const double *g)
{
    const double lr = hp[0], b1 = hp[1], b2 = hp[2], eps = hp[3], c1 = hp[4], c2 = hp[5];
    int64_t i;
    for (i = 0; i < n; i++) {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
        theta[i] = theta[i] + lr * (m[i] / c1) / (sqrt(v[i] / c2) + eps);
    }
}

/* adam_step with g = lr, b1, b2, eps, c1, c2, n (an int64 word), then the
 * gradient g[n]. */
void caradec_adam_ascend(double *theta, double *m, double *v, const double *g)
{
    adam_step(word(g, 6), g, theta, m, v, g + 7);
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

/* A gradient tape of T steps as the reverse pass reads it: p, q, a, the
 * vertex values fv and wx, one entry per step; the vertex rows (vptr[T + 1],
 * vidx[nv], vval[nv], or vval NULL when every entry is 1) and the
 * functional rows (wptr[T + 1], widx[nw], wval[nw]). */
typedef struct {
    int64_t T, nv, nw;
    int terminal;
    const double *p, *q, *a, *fv, *wx, *vval, *wval;
    const int64_t *vptr, *vidx, *wptr, *widx;
} tape;

/* The reverse pass of _purepy.backprop_blocks over the tape tp, with the
 * same operations in the same order: each dot product g.v_t is a
 * sequential sum from 0.0 of h[i] * v_i (the twin skips the product when
 * every entry is 1, which changes no bit), and c, the scale, c / scale and
 * D are formed as the twin's expressions form them.  Writes the gradient
 * to h[n].  Returns 0, -2 when an index lies outside [0, n) (or a terminal
 * tape has no step) and -3 when a row pointer is not one, before reading
 * anything through them, and else -7 when a vertex value is NaN or
 * infinite. */
static int reverse_pass(int64_t n, const tape *tp, double *h)
{
    const double *p = tp->p, *q = tp->q, *a = tp->a, *fv = tp->fv, *wx = tp->wx, *vval = tp->vval,
                 *wval = tp->wval;
    const int64_t *vptr = tp->vptr, *vidx = tp->vidx, *wptr = tp->wptr, *widx = tp->widx;
    int64_t T = tp->T, t, i;
    double scale = 1.0, D = 0.0, R = 0.0;
    int err = check_rows(vptr, vidx, T, tp->nv, n);

    if (!err)
        err = check_rows(wptr, widx, T, tp->nw, n);
    if (!err && tp->terminal && T == 0)
        err = -2;
    for (t = 0; t < T && !err; t++)
        if (!isfinite(fv[t]))
            err = -7;
    if (err)
        return err;
    for (i = 0; i < n; i++)
        h[i] = 0.0;
    if (tp->terminal) {
        T--;
        R = p[T] * fv[T];
    }
    for (t = T - 1; t >= 0; t--) {
        double o = 1.0 - a[t], s = 0.0, gv, c, cs;
        for (i = vptr[t]; i < vptr[t + 1]; i++)
            s += vval ? h[vidx[i]] * vval[i] : h[vidx[i]];
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

/* reverse_pass over a tape that the caller packs into two buffers:
 *   f  = p[T], q[T], a[T], fvals[T], wx[T], vertex data[nv],
 *        functional data[nw];
 *   iw = vertex indptr[T + 1], vertex indices[nv],
 *        functional indptr[T + 1], functional indices[nw];
 *   h  = n, T, terminal, nv, nw (int64 words), then h[n], which receives
 *        the gradient. */
int caradec_backprop_blocks(const double *f, const int64_t *iw, double *h)
{
    tape tp;
    tp.T = word(h, 1);
    tp.terminal = word(h, 2) != 0;
    tp.nv = word(h, 3);
    tp.nw = word(h, 4);
    tp.p = f;
    tp.q = tp.p + tp.T;
    tp.a = tp.q + tp.T;
    tp.fv = tp.a + tp.T;
    tp.wx = tp.fv + tp.T;
    tp.vval = tp.wx + tp.T;
    tp.wval = tp.vval + tp.nv;
    tp.vptr = iw;
    tp.vidx = tp.vptr + tp.T + 1;
    tp.wptr = tp.vidx + tp.nv;
    tp.widx = tp.wptr + tp.T + 1;
    return reverse_pass(word(h, 0), &tp, h + 5);
}

/* The reverse half of an Adam step of direct_optimize on a box-plus-sum
 * spec, _purepy.ascend_blocks: reverse_pass over the tape (f, iw) with the
 * vertex values fv[T], project's VJP at z under the block layout blocks,
 * g = (gz z) (1 - z) (sigmoid's chain rule) and adam_step, in place on
 * theta, m and v; then e = -|theta| (copysign, which is exact) for the
 * next step's sigmoid.  s is the run's Adam state:
 *   lr, b1, b2, eps, c1, c2, n, T, terminal, nv, nw, nf, ni, layout (int64
 *   words from n on), then theta[n], m[n], v[n], z[n] and e[n],
 * where nf and ni are the lengths of f and iw.  With layout 0 the caller
 * packed the tape:
 *   f  = p[T], q[T], a[T], wx[T], vertex data[nv], functional data[nw];
 *   iw = vertex indptr[T + 1], vertex indices[nv], functional indptr[T + 1],
 *        functional indices[nw].
 * With layout 1, f and iw are the two buffers of one caradec_decompose_blocks
 * call of at least T steps under blocks, and every vertex entry is 1: the
 * tape is read where that kernel wrote it.  Returns 0; -4 when the lengths
 * do not fit the layout or blocks is not over n coordinates; -1 when
 * scratch memory cannot be had; -2, -3 or -7 as reverse_pass returns
 * them; -5 when a block id or budget is out of range; -8 when z is not
 * finite.  On a negative return, theta, m, v and e are unchanged. */
int caradec_ascend_blocks(const int64_t *blocks, const double *f, const int64_t *iw, const double *fv,
                          double *s)
{
    const int64_t n = word(s, 6), nf = word(s, 11), ni = word(s, 12);
    double *theta = s + 14, *m = theta + n, *v = m + n, *z = v + n, *e = z + n, *gx, *gz;
    int64_t i;
    int err;
    tape tp;

    tp.T = word(s, 7);
    tp.terminal = word(s, 8) != 0;
    tp.nv = word(s, 9);
    tp.nw = word(s, 10);
    tp.fv = fv;
    if (blocks[0] != n)
        return -4;
    if (word(s, 13)) {
        const int64_t K = blocks[2];
        int64_t cap;
        if (nf < 12)
            return -4;
        cap = word(f, 6);
        if (nf != 12 + 2 * n + 6 * cap || ni != 2 + (K + 4) * cap || tp.T > cap || tp.nv != tp.T * K
            || tp.nw > cap)
            return -4;
        tp.p = f + 12 + 2 * n;
        tp.q = tp.p + cap;
        tp.a = tp.q + cap;
        tp.wx = tp.a + 2 * cap;
        tp.wval = tp.wx + cap;
        tp.vval = NULL;
        tp.vptr = iw;
        tp.vidx = tp.vptr + cap + 1;
        tp.wptr = tp.vidx + cap * K;
        tp.widx = tp.wptr + cap + 1;
    } else {
        if (nf != 4 * tp.T + tp.nv + tp.nw || ni != 2 * tp.T + 2 + tp.nv + tp.nw)
            return -4;
        tp.p = f;
        tp.q = tp.p + tp.T;
        tp.a = tp.q + tp.T;
        tp.wx = tp.a + tp.T;
        tp.vval = tp.wx + tp.T;
        tp.wval = tp.vval + tp.nv;
        tp.vptr = iw;
        tp.vidx = tp.vptr + tp.T + 1;
        tp.wptr = tp.vidx + tp.nv;
        tp.widx = tp.wptr + tp.T + 1;
    }
    gx = malloc((size_t)(2 * n + 1) * sizeof *gx);
    if (!gx)
        return -1;
    gz = gx + n;
    err = reverse_pass(n, &tp, gx);
    if (!err)
        err = project(blocks, z, gx, gz);
    if (!err) {
        for (i = 0; i < n; i++)
            gz[i] = gz[i] * z[i] * (1.0 - z[i]);
        adam_step(n, s, theta, m, v, gz);
        for (i = 0; i < n; i++)
            e[i] = copysign(theta[i], -1.0);
    }
    free(gx);
    return err;
}

/* The forward half's first call of an Adam step on a box-plus-sum spec,
 * _purepy.sigmoid_project: z = (theta >= 0 ? 1 : e) / (1 + e) into the
 * Adam state s (laid out as for caradec_ascend_blocks), where the caller
 * has turned e = -|theta| into exp(-|theta|) with numpy's exp, and then
 * project's x of z under the block layout blocks into x[n].  These are
 * the operations of solvers._sigmoid, so z keeps its bits.  Returns
 * project's codes, or -4 when blocks is not over n coordinates. */
int caradec_sigmoid_project(const int64_t *blocks, double *s, double *x)
{
    const int64_t n = word(s, 6);
    double *theta = s + 14, *z = theta + 3 * n, *e = z + n;
    int64_t i;

    if (blocks[0] != n)
        return -4;
    for (i = 0; i < n; i++)
        z[i] = (theta[i] >= 0.0 ? 1.0 : e[i]) / (1.0 + e[i]);
    return project(blocks, z, NULL, x);
}

/* Residual capacities at most this count as saturated (_purepy.FLOW_EPS). */
static const double FLOW_EPS = 1e-12;

/* The max-flow of _purepy.max_flow, step for step: the same comparisons
 * (a < b ? a : b, never fmin, so NaN and inf take the same branch) and
 * every += and -= in the same order, so both leave the same residual
 * bytes.  net = n, A, ptr[n + 1], head[A], arc[A] is a flow layout that
 * graphs.Dinic built and checked: node u's slots are ptr[u] .. ptr[u + 1],
 * slot s holds the arc arc[s] from u to head[s], and arc a ^ 1 is the
 * reverse of arc a.  rs[n] and rt[n] are the source and sink capacities
 * and r[A] the arc capacities, changed in place into the residual ones;
 * value[0] receives the flow.  level[5n + 1] is scratch, whose first n
 * words end as the last level search left them: non-negative exactly on
 * the source side of the smallest minimum cut, the nodes that the nodes
 * with source capacity left reach through residual capacities above
 * FLOW_EPS.  No node may have both capacities +inf; the graph kernels
 * check their point first, so only the forced capacities of a block flow
 * are infinite, never both at one node. */
static void push_flow(const int64_t *net, double *rs, double *rt, double *r, int64_t *level,
                      double *value)
{
    const int64_t n = net[0], A = net[1], *ptr = net + 2, *head = ptr + n + 1, *arc = head + A;
    int64_t *queue = level + n, *it = queue + n, *nodes = it + n, *arcs = nodes + n + 1;
    int64_t v, u, w, a, s, k, qn, qi, roots, nn, na, nxt, found;
    double flow = 0.0, p, d;

    for (v = 0; v < n; v++) {
        p = rs[v] < rt[v] ? rs[v] : rt[v];
        rs[v] -= p;
        rt[v] -= p;
        flow += p;
    }
    for (;;) {
        /* Levels from the nodes with source capacity left, stopping at the
         * nodes with sink capacity left. */
        for (v = 0, qn = 0; v < n; v++) {
            level[v] = -1;
            if (rs[v] > FLOW_EPS)
                queue[qn++] = v;
        }
        roots = qn;
        for (qi = 0; qi < roots; qi++)
            level[queue[qi]] = 0;
        found = 0;
        for (qi = 0; qi < qn; qi++) {
            u = queue[qi];
            if (rt[u] > FLOW_EPS) {
                found = 1;
                continue;
            }
            nxt = level[u] + 1;
            for (s = ptr[u]; s < ptr[u + 1]; s++)
                if (level[head[s]] < 0 && r[arc[s]] > FLOW_EPS) {
                    level[head[s]] = nxt;
                    queue[qn++] = head[s];
                }
        }
        if (!found)
            break;
        /* One augmenting path at a time, with a current arc per node. */
        for (v = 0; v < n; v++)
            it[v] = ptr[v];
        for (qi = 0; qi < roots; qi++) {
            v = queue[qi];
            while (rs[v] > FLOW_EPS) {
                nodes[0] = v;
                nn = 1;
                na = 0;
                while (nn && rt[nodes[nn - 1]] <= FLOW_EPS) {
                    u = nodes[nn - 1];
                    nxt = level[u] + 1;
                    for (k = it[u]; k < ptr[u + 1]; k++)
                        if (level[head[k]] == nxt && r[arc[k]] > FLOW_EPS)
                            break;
                    it[u] = k;
                    if (k < ptr[u + 1]) {
                        nodes[nn++] = head[k];
                        arcs[na++] = arc[k];
                    } else { /* a dead end: back past the arc into it */
                        nn--;
                        if (na) {
                            na--;
                            it[nodes[nn - 1]]++;
                        }
                    }
                }
                if (!nn)
                    break;
                d = rs[v];
                for (k = 0; k < na; k++)
                    if (r[arcs[k]] < d)
                        d = r[arcs[k]];
                w = nodes[nn - 1];
                if (rt[w] < d)
                    d = rt[w];
                rt[w] -= d;
                for (k = 0; k < na; k++) {
                    a = arcs[k];
                    r[a] -= d;
                    r[a ^ 1] += d;
                }
                rs[v] -= d;
                flow += d;
            }
        }
    }
    value[0] = flow;
}

/* The graphic oracle's block networks on an edge network of n nodes and
 * A = 2m arcs, the layout of Graph.edge_network: edge e has arc 2e from
 * ends[2e] to ends[2e + 1] and arc 2e + 1 back.  caps[2n + A] holds, as
 * _purepy.block_capacities builds them from the edge weights y[m], the
 * source capacities d_v/2 (the y[e]/2 of the edges at v, added from 0.0
 * over the edges in order by their first ends and then by their second
 * ends), n places for the sink capacities and y[e]/2 on both arcs of edge
 * e.  Node i's flow runs on a copy f of caps with source capacity +inf at
 * i, sink capacity +inf below i and cost from i on; its block is the
 * source side U of its smallest minimum cut, of value cost (|U| - 1) -
 * y(E(U)) (0 when |U| <= 1), where y(E(U)) is the pairwise_sum of the
 * y[e] > 0 of the edges with both ends in U, in edge order.  A node leads
 * when an edge with y[e] > 0 joins it to a later node; only the starts
 * that lead run a flow. */
typedef struct {
    int64_t n, A, m;
    int64_t *ends, *level;
    unsigned char *lead;
    double *y, *inside, *caps, *f;
} blocks;

/* The sum of v[0 .. n) in the order of numpy's float64 sum, which
 * _purepy.pairwise_sum writes out: below 8 entries in order from 0.0; up to
 * 128 in eight partial sums (entry j goes to sum j mod 8) joined as
 * ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), the n mod 8 last
 * entries added after; beyond that, the sums of the two parts split at
 * the multiple of 8 at or below n/2. */
static double pairwise_sum(const double *v, int64_t n)
{
    double s[8], sum;
    int64_t i, j, half;

    if (n < 8) {
        for (i = 0, sum = 0.0; i < n; i++)
            sum += v[i];
        return sum;
    }
    if (n > 128) {
        half = n / 2;
        half -= half % 8;
        return pairwise_sum(v, half) + pairwise_sum(v + half, n - half);
    }
    for (j = 0; j < 8; j++)
        s[j] = v[j];
    for (i = 8; i < n - n % 8; i += 8)
        for (j = 0; j < 8; j++)
            s[j] += v[i + j];
    sum = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    for (; i < n; i++)
        sum += v[i];
    return sum;
}

/* Reads the edge network net and the weights w[m] into b: y = w, or with
 * clip the w[e] > 0 and 0 elsewhere, the capacities, the ends and the
 * leads, with the scratch of one flow.  0, or -1 when memory cannot be
 * had. */
static int blocks_open(blocks *b, const int64_t *net, const double *w, int clip)
{
    const int64_t n = net[0], A = net[1], *ptr = net + 2, *head = ptr + n + 1, *arc = head + A;
    int64_t u, s, e, k;
    double *caps;

    b->n = n;
    b->A = A;
    b->m = A / 2;
    b->ends = malloc((size_t)(A + 5 * n + 1) * sizeof *b->ends);
    b->lead = malloc((size_t)n + 1);
    b->y = malloc((size_t)(2 * b->m + 4 * n + 2 * A + 1) * sizeof *b->y);
    if (!b->ends || !b->lead || !b->y)
        return -1;
    b->level = b->ends + A;
    b->inside = b->y + b->m;
    caps = b->caps = b->inside + b->m;
    b->f = caps + 2 * n + A;
    for (u = 0; u < n; u++) {
        b->lead[u] = 0;
        caps[u] = caps[n + u] = 0.0;
        for (s = ptr[u]; s < ptr[u + 1]; s++)
            if (!(arc[s] & 1)) {
                b->ends[arc[s]] = u;
                b->ends[arc[s] + 1] = head[s];
            }
    }
    for (e = 0; e < b->m; e++)
        b->y[e] = clip && !(w[e] > 0.0) ? 0.0 : w[e];
    for (k = 0; k < 2; k++)
        for (e = 0; e < b->m; e++)
            caps[b->ends[2 * e + k]] += b->y[e] / 2.0;
    for (e = 0; e < b->m; e++) {
        caps[2 * n + 2 * e] = caps[2 * n + 2 * e + 1] = b->y[e] / 2.0;
        if (b->y[e] > 0.0)
            b->lead[b->ends[2 * e] < b->ends[2 * e + 1] ? b->ends[2 * e] : b->ends[2 * e + 1]] = 1;
    }
    return 0;
}

static void blocks_close(blocks *b)
{
    free(b->ends);
    free(b->lead);
    free(b->y);
}

/* Node i's block flow into b->f (the residual capacities) and side[n];
 * value[0] receives the block's value. */
static void block_flow(const int64_t *net, blocks *b, double cost, int64_t i, unsigned char *side,
                       double *value)
{
    const int64_t n = b->n;
    int64_t v, e, size = 0, k = 0;
    double flow, *f = b->f;

    memcpy(f, b->caps, (size_t)(2 * n + b->A) * sizeof *f);
    f[i] = INFINITY;
    for (v = 0; v < n; v++)
        f[n + v] = v < i ? INFINITY : cost;
    push_flow(net, f, f + n, f + 2 * n, b->level, &flow);
    for (v = 0; v < n; v++) {
        side[v] = b->level[v] >= 0;
        size += side[v];
    }
    if (size <= 1) {
        value[0] = 0.0;
        return;
    }
    for (e = 0; e < b->m; e++)
        if (b->y[e] > 0.0 && side[b->ends[2 * e]] && side[b->ends[2 * e + 1]])
            b->inside[k++] = b->y[e];
    value[0] = cost * (double)(size - 1) - pairwise_sum(b->inside, k);
}

/* The block flows of _purepy.block_scan on the edge network net with the
 * weights y[m] at cost: per start i = starts[j] (in [0, n)), j < k, the
 * value values[j] of node i's block flow (see blocks), or 0 when i does
 * not lead.  sides[0 .. n) receives the side of the first lowest value
 * (np.argmin's) and sides[n .. 2n) is scratch.  Returns 0, or -1 when
 * scratch memory cannot be had. */
static int scan_blocks(const int64_t *net, const double *y, double cost, const int64_t *starts, int64_t k,
                       double *values, unsigned char *sides)
{
    const int64_t n = net[0];
    double lowest = INFINITY;
    unsigned char *row = sides + n;
    int64_t j;
    int code = 0;
    blocks b;

    if (blocks_open(&b, net, y, 0))
        code = -1;
    for (j = 0; !code && j < k; j++) {
        if (b.lead[starts[j]]) {
            block_flow(net, &b, cost, starts[j], row, values + j);
        } else {
            values[j] = 0.0;
            memset(row, 0, (size_t)n);
        }
        if (values[j] < lowest) {
            lowest = values[j];
            memcpy(sides, row, (size_t)n);
        }
    }
    blocks_close(&b);
    return code;
}

/* _purepy.tight_blocks on the edge network net and the point x[m], in
 * the same order and with the same sums: the block flow of every leading
 * node at cost 1 on the weights y, y[e] = x[e] where x[e] > 0 and 0
 * elsewhere, kept with its residual capacities.  The lowest block value below 0 (ties to the
 * smaller start) gives value, its side side[n], drift = -value and limit
 * = tol + 8 drift.  Then per flow of start i, with tau = limit - (its
 * value): a node is doomed when its residual sink capacity exceeds tau, or
 * when an arc above tau from it (tail >= i) enters a doomed node; the flow
 * is skipped when a source node (>= i, residual source capacity above tau)
 * is doomed.  Otherwise reach[u] is u with the heads of its arcs above tau
 * (tail >= i), closed under Warshall's steps over the nodes >= i that are
 * not doomed, in order; base joins the reach of the source nodes, and each
 * edge e with ends u < v, u >= i and neither doomed has the closure base
 * | reach[u] | reach[v].  Its slack is (size - 1) - x(E(closure)), added in
 * edge order from 0.0, and sizes[e] (n at first) drops to the closure's
 * size when that is smaller and the slack is at most limit.
 * out = tol, then value, drift, limit.  Returns 0, or -1 when scratch
 * memory cannot be had. */
static int tight_scan(const int64_t *net, const double *x, double *out, unsigned char *side, int64_t *sizes)
{
    const int64_t n = net[0], A = net[1], *ptr = net + 2, *head = ptr + n + 1, *arc = head + A;
    const int64_t W = (n + 63) / 64, F = 2 * n + A;
    int64_t L = 0, l, i, u, v, w, s, e, q, qn, kk, size, best = -1;
    double *res = NULL, *vals = NULL, *rs, *rt, *r, tau, inner, limit, lowest = 0.0;
    int64_t *first = NULL, *queue = NULL;
    uint64_t *reach = NULL, *closed = NULL, *base = NULL;
    unsigned char *doomed = NULL, *live = NULL;
    int code = 0, skip;
    blocks b;

    if (blocks_open(&b, net, x, 1))
        code = -1;
    for (u = 0; !code && u < n; u++)
        L += b.lead[u];
    if (!code) {
        res = malloc((size_t)(L * F + 1) * sizeof *res);
        vals = malloc((size_t)(L + 1) * sizeof *vals);
        first = malloc((size_t)(L + 1) * sizeof *first);
        queue = malloc((size_t)(n + 1) * sizeof *queue);
        reach = malloc((size_t)(n * W + 2 * W + 1) * sizeof *reach);
        doomed = malloc((size_t)(2 * n + 1));
        if (!res || !vals || !first || !queue || !reach || !doomed)
            code = -1;
    }
    if (code)
        goto done;
    for (i = 0, l = 0; i < n; i++) {
        if (!b.lead[i])
            continue;
        block_flow(net, &b, 1.0, i, doomed, vals + l);
        memcpy(res + l * F, b.f, (size_t)F * sizeof *res);
        if (vals[l] < lowest) {
            lowest = vals[l];
            best = i;
            memcpy(side, doomed, (size_t)n);
        }
        first[l++] = i;
    }
    if (best < 0)
        for (v = 0; v < n; v++)
            side[v] = 0;
    limit = out[0] + 8.0 * -lowest;
    out[1] = lowest;
    out[2] = -lowest;
    out[3] = limit;
    for (e = 0; e < b.m; e++)
        sizes[e] = n;
    live = doomed + n;
    closed = reach + n * W;
    base = closed + W;
    for (l = 0; l < L; l++) {
        i = first[l];
        rs = res + l * F;
        rt = rs + n;
        r = rt + n;
        tau = limit - vals[l];
        /* Doomed: what reaches a node with sink capacity left. */
        for (v = 0, qn = 0; v < n; v++) {
            doomed[v] = rt[v] > tau;
            if (doomed[v])
                queue[qn++] = v;
        }
        for (q = 0; q < qn; q++) {
            w = queue[q];
            for (s = ptr[w]; s < ptr[w + 1]; s++) {
                u = head[s]; /* arc[s] ^ 1 runs from u into w */
                if (u >= i && !doomed[u] && r[arc[s] ^ 1] > tau) {
                    doomed[u] = 1;
                    queue[qn++] = u;
                }
            }
        }
        for (v = i, skip = 0; v < n; v++)
            skip |= rs[v] > tau && doomed[v];
        if (skip)
            continue;
        memset(reach, 0, (size_t)(n * W) * sizeof *reach);
        for (u = 0; u < n; u++) {
            reach[u * W + (u >> 6)] |= (uint64_t)1 << (u & 63);
            live[u] = u >= i && !doomed[u];
            for (s = ptr[u]; u >= i && s < ptr[u + 1]; s++)
                if (r[arc[s]] > tau)
                    reach[u * W + (head[s] >> 6)] |= (uint64_t)1 << (head[s] & 63);
        }
        for (kk = i; kk < n; kk++) /* transitive closure (Warshall) */
            if (live[kk])
                for (u = i; u < n; u++)
                    if (live[u] && (reach[u * W + (kk >> 6)] >> (kk & 63) & 1))
                        for (q = 0; q < W; q++)
                            reach[u * W + q] |= reach[kk * W + q];
        for (q = 0; q < W; q++)
            base[q] = 0;
        for (v = i; v < n; v++)
            if (rs[v] > tau)
                for (q = 0; q < W; q++)
                    base[q] |= reach[v * W + q];
        for (e = 0; e < b.m; e++) {
            u = b.ends[2 * e];
            v = b.ends[2 * e + 1];
            if (u < i || doomed[u] || doomed[v])
                continue;
            for (q = 0, size = 0; q < W; q++) {
                closed[q] = base[q] | reach[u * W + q] | reach[v * W + q];
                size += __builtin_popcountll(closed[q]);
            }
            if (size >= sizes[e])
                continue;
            inner = 0.0;
            for (kk = 0; kk < b.m; kk++) {
                const int64_t a = b.ends[2 * kk], c = b.ends[2 * kk + 1];
                if ((closed[a >> 6] >> (a & 63) & 1) && (closed[c >> 6] >> (c & 63) & 1))
                    inner += x[kk];
            }
            if ((double)(size - 1) - inner <= limit)
                sizes[e] = size;
        }
    }
done:
    blocks_close(&b);
    free(res);
    free(vals);
    free(first);
    free(queue);
    free(reach);
    free(doomed);
    return code;
}

enum { LABEL_IN = 1, LABEL_OUT = 2 };

/* The state of label_stable_set: the slots of its flow layout, per node
 * its label and the stamp of the last closure of each kind that took it,
 * the stamp of the last closure of each kind and its nodes, and a stack. */
typedef struct {
    const int64_t *ptr, *head, *arc;
    const double *r;
    unsigned char *label;
    int64_t *stamp[2], *grown[2], count[2], last[2], tick, *stack;
} closures;

/* Grows a closure of kind 0 (along the arcs with residual capacity above
 * FLOW_EPS) or 1 (against them) from the nodes stack[0 .. top), not
 * entering nodes labelled `lab`, into grown[kind].  Returns 0 when it
 * reaches a node with the other label or, if `blocked`, a node of the last
 * closure of kind 0; else 1.  Which nodes it reaches does not depend on
 * the order of the search. */
static int grow(closures *c, int kind, int64_t top, unsigned char lab, int blocked)
{
    const int64_t t = c->last[kind] = ++c->tick, mark = c->last[0];
    int64_t u, s, *seen = c->stamp[kind], *in = c->stamp[0];

    c->count[kind] = 0;
    while (top) {
        u = c->stack[--top];
        if (c->label[u] == lab || seen[u] == t)
            continue;
        if (c->label[u] || (blocked && in[u] == mark))
            return 0;
        seen[u] = t;
        c->grown[kind][c->count[kind]++] = u;
        for (s = c->ptr[u]; s < c->ptr[u + 1]; s++)
            if (c->r[kind ? c->arc[s] ^ 1 : c->arc[s]] > FLOW_EPS)
                c->stack[top++] = c->head[s];
    }
    return 1;
}

static void label_all(closures *c, int kind, unsigned char lab)
{
    int64_t i;
    for (i = 0; i < c->count[kind]; i++)
        c->label[c->grown[kind][i]] = lab;
}

/* The labelling of _purepy.label_stable_set on a stable-set double cover
 * of n nodes after its max-flow: node u_L is u and u_R is n + u, net is the
 * flow layout (see push_flow), rt[2n] and r[A] the residual sink
 * and arc capacities and side[2n] the flow's source side.  IN starts as
 * the source side and OUT as what reaches the nodes with sink capacity
 * left.  Then each node u with alive[u], in index order, takes in fixed[u]
 * the first y of the patterns (y, forced in, forced out) = (1, u_L, u_R),
 * (1/2, u_L u_R, none), (0, u_R, u_L), (1/2, none, u_L u_R) whose
 * forced-in closure meets no OUT node and whose forced-out closure meets
 * neither an IN node nor that closure; the two closures join IN and OUT.
 * Every other fixed[u] is 0.  scratch[12n + A + 1] and label[2n + 1] are
 * scratch space: a closure pushes its starts and then, per node it takes,
 * the heads of that node's slots, at most 2n + A entries. */
static void label_cover(const int64_t *net, const double *rt, const double *r,
                        const unsigned char *alive, const unsigned char *side, double *fixed,
                        int64_t *scratch, unsigned char *label)
{
    static const double y[4] = {1.0, 0.5, 0.0, 0.5};
    /* Per pattern the ends forced in and out: bit 0 for u_L, bit 1 for u_R. */
    static const int forced[4][2] = {{1, 2}, {3, 0}, {2, 1}, {0, 3}};
    const int64_t n2 = net[0], n = n2 / 2, A = net[1];
    int64_t u, v, top;
    closures c;
    int j, e;

    c.r = r;
    c.label = label;
    c.stamp[0] = scratch;
    c.stamp[1] = scratch + n2;
    c.grown[0] = scratch + 2 * n2;
    c.grown[1] = scratch + 3 * n2;
    c.stack = scratch + 4 * n2;
    c.ptr = net + 2;
    c.head = c.ptr + n2 + 1;
    c.arc = c.head + A;
    c.last[0] = c.last[1] = c.tick = 0;
    for (v = 0; v < n2; v++) {
        label[v] = side[v] ? LABEL_IN : 0;
        c.stamp[0][v] = c.stamp[1][v] = 0;
    }
    for (v = 0, top = 0; v < n2; v++)
        if (rt[v] > FLOW_EPS)
            c.stack[top++] = v;
    if (grow(&c, 1, top, LABEL_OUT, 0))
        label_all(&c, 1, LABEL_OUT);
    for (u = 0; u < n; u++) {
        fixed[u] = 0.0;
        for (j = 0; alive[u] && j < 4; j++) {
            const int64_t ends[2] = {u, n + u};
            for (e = 0, top = 0; e < 2; e++)
                if (forced[j][0] >> e & 1)
                    c.stack[top++] = ends[e];
            if (!grow(&c, 0, top, LABEL_IN, 0))
                continue;
            for (e = 0, top = 0; e < 2; e++)
                if (forced[j][1] >> e & 1)
                    c.stack[top++] = ends[e];
            if (!grow(&c, 1, top, LABEL_OUT, 1))
                continue;
            label_all(&c, 0, LABEL_IN);
            label_all(&c, 1, LABEL_OUT);
            fixed[u] = y[j];
            break;
        }
    }
}

/* The thresholds of fstab.py: alive coordinates lie above ZERO_TOL, an edge
 * is tight from 1 - TIGHT_TOL on, and a constraint's denominator must lie
 * above USABLE_DEN. */
static const double ZERO_TOL = 1e-9, TIGHT_TOL = 1e-9, USABLE_DEN = 1e-15;

enum { BIND_LOWER = 0, BIND_UPPER = 1, BIND_EDGE = 2, BIND_NONE = 3 };

/* Writes to out the layout of the L edges live in live[]: the slots of
 * the flow layout src (N nodes) whose arcs belong to live edges, each
 * node's in their order, the arcs keeping their ids.  A dead node (alive[]
 * of its end 0) has no live edge, so its slots are skipped. */
static void live_layout(int64_t N, const int64_t *src, const unsigned char *alive, const unsigned char *live,
                        int64_t L, int64_t *out)
{
    const int64_t n = N / 2, *ptr = src + 2, *head = ptr + N + 1, *arc = head + src[1];
    int64_t *lptr = out + 2, *lhead = lptr + N + 1, *larc = lhead + 4 * L, i, s, k;

    out[0] = N;
    out[1] = 4 * L;
    for (i = 0, k = 0; i < N; i++) {
        lptr[i] = k;
        for (s = ptr[i]; alive[i < n ? i : i - n] && s < ptr[i + 1]; s++)
            if (live[arc[s] >> 2]) {
                lhead[k] = head[s];
                larc[k++] = arc[s];
            }
    }
    lptr[N] = k;
}

/* The stable-set decomposition of _purepy.decompose_fstab, which is
 * core.peel with fstab.FractionalStableSet.peel_step, with the same
 * floating-point operations in the same order.  net is the layout of
 * Graph.double_cover on N = 2n nodes and A = 4m arcs: edge e = (u, v) has
 * arc 4e from u_L = u to v_R = n + v and arc 4e + 2 from v_L to u_R.  A step
 * on the iterate x:
 *   - the augmented weights of fstab._augmented_weights: alive[i] is
 *     x[i] > ZERO_TOL, c[i] is x[i] there and 0 elsewhere, and each tight
 *     edge adds 4 (n + 1) to each of its alive ends; a live edge has both
 *     ends alive;
 *   - the capacities of fstab.fstab_vertex: c/2 at u_L's source and u_R's
 *     sink, and the pairwise_sum of the alive c plus 1 on both left-to-right
 *     arcs of a live edge, 0 elsewhere; push_flow, then label_cover, give the
 *     vertex v;
 *   - the coefficient of fstab.fstab_step_coefficient: the first minimum of
 *     num/den over lower_i (x_i / v_i) and upper_i ((1 - x_i) / (1 - v_i)) for
 *     each i, then the edges (((1 - x_u) - x_v) / ((1 - v_u) - v_v)), among
 *     the denominators above USABLE_DEN, as Python's max(min(r, 1), 0); +inf
 *     when there is none (n = 0);
 *   - core.peel's step: a = scale a_exact, or a_exact when that falls below
 *     floor; a terminal step when a > 1 - guard or q (1 - a) < guard; else the
 *     functional row -r z / den and wx = -r z.x / den (z.x added from 0.0),
 *     with r = a / a_exact (1 when a_exact is 0), x = (x - a v) / (1 - a),
 *     the pin of a binding box constraint when a = a_exact, the clip to
 *     [0, 1] (keeping -0.0), q = q (1 - a), and on a rescaled run (scale
 *     below 1 or floor above 0) the eps stop when q sqrt(sum x_i^2), added
 *     in index order from 0.0, is at most eps.
 * The caller packs the arguments into two buffers:
 *   f  = scale, floor, eps, guard, tol, cap (an int64 word), state[3], x0[n],
 *        x[n], probs[cap], qs[cap], avals[cap], wx[cap], wval[2 cap],
 *        vval[cap n];
 *   iw = vptr[cap + 1], vidx[cap n], wptr[cap + 1], widx[2 cap].
 * Row t of the vertex rows (vptr, vidx, vval) is step t's vertex, its
 * nonzero entries (1 or 1/2) in index order; row t of the functional rows
 * (wptr, widx, wval) its binding constraint, empty on a terminal step.
 * Both row pointers start from 0 in each call.  state[2] is q, negative on
 * a first call: that checks x0 as fstab.check_fstab_membership does, clips
 * it to [0, 1] in place (keeping -0.0) and starts x from it; a later call
 * resumes from x and q and equals the continuation of the call before.  On
 * return state[0] is the residual, q max |x - v| after a terminal step and
 * q max(x, 0) otherwise (which the caller takes from x instead, with
 * numpy's max, to keep its sign where every entry is +-0), and state[1] is
 * 0 when the steps ran out, 1 after the eps stop and 2 after a terminal
 * step.  Returns the number of steps taken, -1 when scratch memory cannot
 * be had, -4 when an entry of x0 is NaN, infinite or outside [0, 1] by
 * more than tol, and -5 when an edge's x0_u + x0_v exceeds 1 + tol
 * (state[1] is the first such edge). */
int caradec_decompose_fstab(const int64_t *net, double *f, int64_t *iw)
{
    const int64_t N = net[0], A = net[1], n = N / 2, m = A / 4, *ptr = net + 2, *head = ptr + N + 1,
                  *arc = head + A, cap = word(f, 5);
    const double scale = f[0], floor_ = f[1], guard = f[3], tol = f[4], big = 4.0 * (double)(n + 1);
    /* core.peel reads eps on rescaled runs only. */
    const double eps = scale == 1.0 && floor_ == 0.0 ? 0.0 : f[2];
    double *state = f + 6, *x0 = state + 3, *x = x0 + n, *probs = x + n, *qs = probs + cap,
           *avals = qs + cap, *wx = avals + cap, *wval = wx + cap, *vval = wval + 2 * cap;
    int64_t *vptr = iw, *vidx = vptr + cap + 1, *wptr = vidx + cap * n, *widx = wptr + cap + 1;
    int64_t *ints = malloc((size_t)(2 * m + 13 * N + 5 * A + 8) * sizeof *ints);
    double *dbls = malloc((size_t)(3 * n + 2 * N + A + 1) * sizeof *dbls);
    unsigned char *flags = malloc((size_t)(n + 3 * m + 2 * N + 1));
    int64_t *eu = ints, *ev = eu + m, *level = ev + m, *scratch = level + 5 * N + 1,
            *lay[2] = {scratch + 6 * N + A + 1, scratch + 7 * N + 3 * A + 4}, *live_net = NULL, *larc;
    double *c = dbls, *vv = c + n, *alive_c = vv + n, *rs = alive_c + n, *rt = rs + N, *r = rt + N;
    unsigned char *alive = flags, *live = alive + n, *tight = live + m, *side = tight + m, *label = side + N,
                  *was_live = label + N;
    double q = state[2] < 0.0 ? 1.0 : state[2], mx = 0.0, flow;
    int64_t T = 0, t, i, e, s, k, L;
    int code = 0, stop = 0, changed, grew;

    if (!ints || !dbls || !flags) {
        code = -1;
        goto done;
    }
    memset(was_live, 0, (size_t)m);
    for (i = 0; i < N; i++)
        for (s = ptr[i]; s < ptr[i + 1]; s++)
            if (arc[s] % 4 == 0) {
                eu[arc[s] / 4] = i;
                ev[arc[s] / 4] = head[s] - n;
            }
    if (state[2] < 0.0) {
        for (i = 0; i < n && !code; i++)
            if (!(x0[i] >= -tol && x0[i] <= 1.0 + tol)) /* NaN fails both */
                code = -4;
        for (e = 0; e < m && !code; e++)
            if (x0[eu[e]] + x0[ev[e]] > 1.0 + tol) {
                state[1] = (double)e;
                code = -5;
            }
        if (code)
            goto done;
        for (i = 0; i < n; i++)
            x[i] = x0[i] = x0[i] < 0.0 ? 0.0 : x0[i] > 1.0 ? 1.0 : x0[i];
    }
    vptr[0] = wptr[0] = 0;

    for (t = 0; t < cap; t++) {
        int64_t bi = -1, nz = vptr[t], nw = wptr[t];
        double best = INFINITY, sum, a_exact, a_scaled, a, om, rr, den, zx;
        int kind = BIND_NONE;

        /* The augmented weights and the flow's capacities. */
        for (i = 0; i < n; i++) {
            alive[i] = x[i] > ZERO_TOL;
            c[i] = alive[i] ? x[i] : 0.0;
        }
        for (e = 0, L = 0, changed = grew = 0; e < m; e++) {
            tight[e] = x[eu[e]] + x[ev[e]] >= 1.0 - TIGHT_TOL;
            live[e] = alive[eu[e]] && alive[ev[e]];
            L += live[e];
            changed |= live[e] != was_live[e];
            grew |= live[e] > was_live[e];
        }
        /* Every add is the same big, so their order does not change a sum. */
        for (e = 0; e < m; e++) {
            if (tight[e] && alive[eu[e]])
                c[eu[e]] += big;
            if (tight[e] && alive[ev[e]])
                c[ev[e]] += big;
        }
        memset(rs, 0, (size_t)(2 * N) * sizeof *rs);
        for (i = 0, k = 0; i < n; i++) {
            rs[i] = rt[n + i] = c[i] / 2.0;
            if (alive[i])
                alive_c[k++] = c[i];
        }
        sum = pairwise_sum(alive_c, k) + 1.0;
        /* The flow and the labelling run on the live edges' arcs alone (in
         * live_net, one of the two layouts of lay), each node's slots in
         * their order.  The other arcs have capacity 0 both ways: no flow
         * enters them and no closure crosses them, so this changes no byte.
         * The layout of the step before serves again when no edge changed,
         * and is filtered when edges only died; else the cover is. */
        if (!live_net || changed) {
            int64_t *out = live_net == lay[0] ? lay[1] : lay[0];
            live_layout(N, live_net && !grew ? live_net : net, alive, live, L, out);
            live_net = out;
            memcpy(was_live, live, (size_t)m);
        }
        for (k = 0, larc = live_net + 3 + N + 4 * L; k < 4 * L; k++)
            r[larc[k]] = larc[k] & 1 ? 0.0 : sum;
        push_flow(live_net, rs, rt, r, level, &flow);
        for (i = 0; i < N; i++)
            side[i] = level[i] >= 0;
        label_cover(live_net, rt, r, alive, side, vv, scratch, label);

        /* The step coefficient: the first minimum of the usable ratios. */
        for (i = 0; i < n; i++) {
            if (vv[i] > USABLE_DEN && x[i] / vv[i] < best) {
                best = x[i] / vv[i];
                kind = BIND_LOWER;
                bi = i;
            }
            if (1.0 - vv[i] > USABLE_DEN && (1.0 - x[i]) / (1.0 - vv[i]) < best) {
                best = (1.0 - x[i]) / (1.0 - vv[i]);
                kind = BIND_UPPER;
                bi = i;
            }
        }
        for (e = 0; e < m; e++) {
            den = 1.0 - vv[eu[e]] - vv[ev[e]];
            if (den > USABLE_DEN && (1.0 - x[eu[e]] - x[ev[e]]) / den < best) {
                best = (1.0 - x[eu[e]] - x[ev[e]]) / den;
                kind = BIND_EDGE;
                bi = e;
            }
        }
        if (kind == BIND_NONE) {
            a_exact = INFINITY;
        } else {
            a_exact = 1.0 < best ? 1.0 : best;
            a_exact = 0.0 > a_exact ? 0.0 : a_exact; /* Python's max(min(r, 1), 0): keeps -0.0 */
        }

        for (i = 0; i < n; i++)
            if (vv[i] != 0.0) {
                vidx[nz] = i;
                vval[nz++] = vv[i];
            }
        vptr[t + 1] = nz;
        a_scaled = scale * a_exact;
        a = a_scaled >= floor_ ? a_scaled : a_exact;
        qs[t] = q;
        T = t + 1;
        if (a > 1.0 - guard || q * (1.0 - a) < guard) {
            probs[t] = q;
            avals[t] = 1.0;
            wptr[t + 1] = nw;
            wx[t] = 0.0;
            for (i = 0; i < n; i++)
                if (fabs(x[i] - vv[i]) > mx)
                    mx = fabs(x[i] - vv[i]);
            stop = 2;
            break;
        }

        /* The binding constraint z.y <= b as the functional -r z / (b - z.v). */
        rr = a_exact > 0.0 ? a / a_exact : 1.0;
        if (kind == BIND_EDGE) {
            den = 1.0 - (vv[eu[bi]] + vv[ev[bi]]);
            zx = (0.0 + 1.0 * x[eu[bi]]) + 1.0 * x[ev[bi]];
            widx[nw] = eu[bi];
            wval[nw++] = -rr * 1.0 / den;
            widx[nw] = ev[bi];
            wval[nw++] = -rr * 1.0 / den;
        } else if (kind == BIND_LOWER) {
            den = 0.0 - -vv[bi];
            zx = 0.0 + -1.0 * x[bi];
            widx[nw] = bi;
            wval[nw++] = -rr * -1.0 / den;
        } else {
            den = 1.0 - vv[bi];
            zx = 0.0 + 1.0 * x[bi];
            widx[nw] = bi;
            wval[nw++] = -rr * 1.0 / den;
        }
        wptr[t + 1] = nw;
        wx[t] = -rr * zx / den;

        om = 1.0 - a;
        for (i = 0; i < n; i++)
            x[i] = (x[i] - a * vv[i]) / om;
        if (kind != BIND_EDGE && a == a_exact)
            /* The binding coordinate is algebraically exactly 0 or 1. */
            x[bi] = kind == BIND_LOWER ? 0.0 : 1.0;
        for (i = 0; i < n; i++)
            x[i] = x[i] < 0.0 ? 0.0 : x[i] > 1.0 ? 1.0 : x[i];
        probs[t] = a * q;
        avals[t] = a;
        q *= om;
        if (eps > 0.0 && q * sqrt(sum_squares(x, n)) <= eps) {
            stop = 1;
            break;
        }
    }
    if (stop != 2)
        for (i = 0; i < n; i++)
            if (x[i] > mx)
                mx = x[i];
    state[0] = q * mx;
    state[1] = stop;
    state[2] = q;
done:
    free(ints);
    free(dbls);
    free(flags);
    return code ? code : (int)T;
}

/* The thresholds of matroids.py: a forest skips edges of weight at most
 * ZERO_WEIGHT, the rank tests start from TIGHT_TOL (plus the drift), the
 * membership check refuses a block below -RANK_TOL and the probe's face
 * counts below -PROBE_TOL. */
static const double ZERO_WEIGHT = 1e-12, RANK_TIGHT_TOL = 1e-9, RANK_TOL = 1e-9, PROBE_TOL = 1e-15;

/* The graphic peel's graph and scratch: n nodes, m edges with the ends eu
 * < ev, the forest's edges as flags in_s[m], a union-find's parents, the
 * starts of a scan (identity[n] lists every node), one face of edge ids
 * with its x values, the weights y[m], a scan's values and lowest side
 * (side[2n]), and the lam = 0 scan: its out[4], side tside[n] and sizes[m]. */
typedef struct {
    const int64_t *net;
    int64_t n, m, *eu, *ev, *parent, *starts, *identity, *face, *sizes;
    double *y, *values, *inner, zero[4];
    unsigned char *in_s, *side, *tside;
} graphic;

/* A face-respecting forest's sort key of edge e (see graphic_forest). */
typedef struct {
    int high;
    int64_t size;
    double x;
    int64_t e;
} forest_key;

static int64_t uf_find(int64_t *parent, int64_t v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

/* Joins the trees of u and v; 1 when they were two. */
static int uf_union(int64_t *parent, int64_t u, int64_t v)
{
    u = uf_find(parent, u);
    v = uf_find(parent, v);
    if (u == v)
        return 0;
    parent[v] = u;
    return 1;
}

static void uf_reset(graphic *g)
{
    int64_t v;
    for (v = 0; v < g->n; v++)
        g->parent[v] = v;
}

/* matroids._face: the edges of E(U) with y[e] > 0, ascending, into
 * g->face, U being side[n]; returns their number. */
static int64_t graphic_face(graphic *g, const double *y, const unsigned char *side)
{
    int64_t e, k = 0;
    for (e = 0; e < g->m; e++)
        if (side[g->eu[e]] && side[g->ev[e]] && y[e] > 0.0)
            g->face[k++] = e;
    return k;
}

/* matroids._rank of the face's k edges, r(F); *inter receives |S & F|. */
static int64_t graphic_rank(graphic *g, int64_t k, int64_t *inter)
{
    int64_t j, r = 0, in = 0;
    uf_reset(g);
    for (j = 0; j < k; j++) {
        r += uf_union(g->parent, g->eu[g->face[j]], g->ev[g->face[j]]);
        in += g->in_s[g->face[j]];
    }
    *inter = in;
    return r;
}

/* x(F) of the face's k edges as numpy sums x[list(face)]: pairwise_sum. */
static double face_sum(graphic *g, const double *x, int64_t k)
{
    int64_t j;
    for (j = 0; j < k; j++)
        g->inner[j] = x[g->face[j]];
    return pairwise_sum(g->inner, k);
}

/* matroids._weights: y = max(x - lam 1_S, 0). */
static void graphic_weights(graphic *g, const double *x, double lam)
{
    int64_t e;
    double v;
    for (e = 0; e < g->m; e++) {
        v = g->in_s[e] ? x[e] - lam : x[e];
        g->y[e] = v > 0.0 ? v : 0.0;
    }
}

/* A scan of starts[0 .. k) at lam on x; the lowest side lands in
 * g->side.  scan_blocks' codes. */
static int graphic_scan(graphic *g, const double *x, double lam, const int64_t *starts, int64_t k)
{
    graphic_weights(g, x, lam);
    return scan_blocks(g->net, g->y, 1.0 - lam, starts, k, g->values, g->side);
}

static int forest_first(const void *pa, const void *pb)
{
    const forest_key *a = pa, *b = pb;
    if (a->high != b->high)
        return a->high - b->high;
    if (a->size != b->size)
        return a->size < b->size ? -1 : 1;
    if (a->x != b->x) /* -0.0 and 0.0 rank equal, as in np.lexsort */
        return a->x > b->x ? -1 : 1;
    return (a->e > b->e) - (a->e < b->e);
}

/* matroids._face_respecting_forest into g->in_s: Kruskal over the edges in
 * the order (x <= limit, |M_e| ascending, x descending, index ascending) of
 * np.lexsort, skipping the edges of weight at most ZERO_WEIGHT. */
static void graphic_forest(graphic *g, const double *x, forest_key *keys)
{
    int64_t e;
    for (e = 0; e < g->m; e++) {
        keys[e].high = x[e] <= g->zero[3];
        keys[e].size = g->sizes[e];
        keys[e].x = x[e];
        keys[e].e = e;
        g->in_s[e] = 0;
    }
    if (g->m > 1)
        qsort(keys, (size_t)g->m, sizeof *keys, forest_first);
    uf_reset(g);
    for (e = 0; e < g->m; e++)
        if (!(x[keys[e].e] <= ZERO_WEIGHT) && uf_union(g->parent, g->eu[keys[e].e], g->ev[keys[e].e]))
            g->in_s[keys[e].e] = 1;
}

/* A step's binding inequality z.y <= offset, z being coef on the len
 * indices idx (ActiveConstraintRecord, with z.v = vertex_value), and its
 * pin, (pin, pin_to) or pin -1. */
typedef struct {
    const int64_t *idx;
    int64_t len, pin, edge;
    double coef, offset, vertex_value, pin_to;
} binding;

/* matroids.graphic_step_coefficient with peel_step's record: the box terms
 * a_in = min x over S and a_out = 1 - max x outside (first index on ties),
 * upper = min(a_in, a_out, 1); MembershipError (-10) when the lam = 0 scan
 * is below -TIGHT_TOL on a face with r(F) > |S & F|; the Newton loop from
 * lam = upper with tol = TIGHT_TOL + drift, which rescans only the starts
 * below -tol and steps to lam = max((r(F) - x(F)) / D, 0) on the lowest
 * block's face until no start is below -tol or D <= 0; the probe at
 * min(lam + tol, 1), whose face below -PROBE_TOL with r(F) > |S & F| gives
 * a_rank = (r(F) - x(F)) / (r(F) - |S & F|); then the first minimum of
 * a_rank, a_in and a_out, as Python's max(min(a, 1), 0), into *a_exact.
 * The face stays in g->face.  0, -10 or scan_blocks' codes. */
static int graphic_coefficient(graphic *g, const double *x, double *a_exact, binding *bd)
{
    const int64_t n = g->n, m = g->m;
    int64_t e, j, k, low, nf, rank, inter, e_in = -1, e_out = -1;
    double a_in = INFINITY, a_out = INFINITY, a_rank = INFINITY, upper, tol, lam, val, a;
    int code;

    for (e = 0; e < m; e++) {
        if (g->in_s[e] && (e_in < 0 || x[e] < x[e_in]))
            e_in = e;
        if (!g->in_s[e] && (e_out < 0 || x[e] > x[e_out]))
            e_out = e;
    }
    if (e_in >= 0)
        a_in = x[e_in];
    if (e_out >= 0)
        a_out = 1.0 - x[e_out];
    upper = a_out < a_in ? a_out : a_in;
    upper = 1.0 < upper ? 1.0 : upper;

    if (g->zero[1] < -RANK_TIGHT_TOL) {
        nf = graphic_face(g, x, g->tside);
        rank = graphic_rank(g, nf, &inter);
        if (rank - inter > 0)
            return -10;
    }
    tol = RANK_TIGHT_TOL + g->zero[2];

    memcpy(g->starts, g->identity, (size_t)n * sizeof *g->starts);
    for (lam = upper, k = n;;) {
        code = graphic_scan(g, x, lam, g->starts, k);
        if (code)
            return code;
        for (j = 0, low = 0; j < k; j++)
            if (g->values[j] < -tol)
                g->starts[low++] = g->starts[j];
        if (!low)
            break;
        k = low;
        nf = graphic_face(g, g->y, g->side);
        rank = graphic_rank(g, nf, &inter);
        if (rank - inter <= 0)
            break;
        lam = ((double)rank - face_sum(g, x, nf)) / (double)(rank - inter);
        lam = 0.0 > lam ? 0.0 : lam;
    }

    /* The face just past lambda* gives the exact affine piece. */
    lam = lam + tol;
    lam = 1.0 < lam ? 1.0 : lam;
    code = graphic_scan(g, x, lam, g->identity, n);
    if (code)
        return code;
    for (j = 0, val = 0.0, nf = 0; j < n; j++)
        if (g->values[j] < val)
            val = g->values[j];
    if (val < 0.0)
        nf = graphic_face(g, g->y, g->side);
    rank = inter = 0;
    if (val < -PROBE_TOL && nf) {
        rank = graphic_rank(g, nf, &inter);
        if (rank - inter > 0)
            a_rank = ((double)rank - face_sum(g, x, nf)) / (double)(rank - inter);
    }

    a = a_rank;
    a = a_in < a ? a_in : a;
    a = a_out < a ? a_out : a;
    bd->idx = &bd->edge;
    bd->len = 1;
    if (a_rank == a) {
        bd->pin = -1;
        bd->coef = 1.0;
        if (a_rank == INFINITY) { /* nothing binds before a = 1 */
            bd->len = 0;
            bd->offset = 1.0;
            bd->vertex_value = 0.0;
        } else {
            bd->idx = g->face;
            bd->len = nf;
            bd->offset = (double)rank;
            bd->vertex_value = (double)inter;
        }
    } else if (a_in == a) {
        bd->pin = bd->edge = e_in;
        bd->coef = -1.0;
        bd->offset = 0.0;
        bd->vertex_value = -1.0;
        bd->pin_to = 0.0;
    } else {
        bd->pin = bd->edge = e_out;
        bd->coef = 1.0;
        bd->offset = 1.0;
        bd->vertex_value = 0.0;
        bd->pin_to = 1.0;
    }
    a = 1.0 < a ? 1.0 : a;
    *a_exact = 0.0 > a ? 0.0 : a;
    return 0;
}

/* core.peel's step on x[m] with the vertex in_s[m]: a = scale a_exact, or
 * a_exact when that falls below floor; a terminal step when a > 1 - guard
 * or q (1 - a) < guard, which writes p = q, a = 1, wx = 0, an empty
 * functional row, and max |x - v| into *left.  Else the functional row
 * -r z / den at bd's indices and wx = -r z.x / den (z.x added from 0.0),
 * with r = a / a_exact (1 when a_exact is 0) and den = offset -
 * vertex_value; x = (x - a v) / (1 - a), the pin when a = a_exact, the
 * clip to [0, 1] (keeping -0.0), p = a q and q = q (1 - a).  Row t of the
 * outputs; returns 1 on a terminal step. */
static int peel_update(const double *cfg, const binding *bd, double a_exact, const unsigned char *in_s, int64_t m,
                       double *x, double *q, double *outs, int64_t t, int64_t cap, int64_t *widx, double *wval,
                       int64_t *nw, double *left)
{
    const double scale = cfg[0], floor_ = cfg[1], guard = cfg[3];
    double *probs = outs, *avals = outs + 2 * cap, *wx = outs + 3 * cap;
    double a_scaled = scale * a_exact, a = a_scaled >= floor_ ? a_scaled : a_exact, rr, den, zx, om, d;
    int64_t e, j;

    if (a > 1.0 - guard || *q * (1.0 - a) < guard) {
        probs[t] = *q;
        avals[t] = 1.0;
        wx[t] = 0.0;
        for (e = 0, *left = 0.0; e < m; e++) {
            d = fabs(x[e] - (in_s[e] ? 1.0 : 0.0));
            if (d > *left)
                *left = d;
        }
        return 1;
    }
    rr = a_exact > 0.0 ? a / a_exact : 1.0;
    den = bd->offset - bd->vertex_value;
    for (j = 0, zx = 0.0; j < bd->len; j++) {
        zx += bd->coef * x[bd->idx[j]];
        widx[*nw] = bd->idx[j];
        wval[(*nw)++] = -rr * bd->coef / den;
    }
    wx[t] = -rr * zx / den;
    om = 1.0 - a;
    for (e = 0; e < m; e++)
        x[e] = (x[e] - a * (in_s[e] ? 1.0 : 0.0)) / om;
    if (bd->pin >= 0 && a == a_exact)
        /* The binding coordinate is algebraically exactly 0 or 1. */
        x[bd->pin] = bd->pin_to;
    for (e = 0; e < m; e++)
        x[e] = x[e] < 0.0 ? 0.0 : x[e] > 1.0 ? 1.0 : x[e];
    probs[t] = a * *q;
    avals[t] = a;
    *q *= om;
    return 0;
}

/* The graphic decomposition of _purepy.decompose_graphic, which is
 * core.peel with matroids.GraphicMatroid.peel_step, with the same
 * floating-point operations in the same order.  net is the layout of
 * Graph.edge_network on n nodes and A = 2m arcs (edge e = (u, v), u < v,
 * has arc 2e from u to v and arc 2e + 1 back).  A step on the iterate x:
 *   - matroids._tight_blocks: tight_scan at TIGHT_TOL;
 *   - matroids._face_respecting_forest: graphic_forest;
 *   - matroids.graphic_step_coefficient: graphic_coefficient;
 *   - core.peel's update: peel_update; then, on a rescaled run (scale below
 *     1 or floor above 0), the eps stop when q sqrt(sum x_e^2), added in
 *     index order from 0.0, is at most eps.
 * The caller packs the arguments into two buffers:
 *   f  = scale, floor, eps, guard, tol, sum_tol, cap (an int64 word),
 *        state[3], x0[m], x[m], probs[cap], qs[cap], avals[cap], wx[cap],
 *        wval[cap m];
 *   iw = vptr[cap + 1], vidx[cap n], wptr[cap + 1], widx[cap m].
 * Row t of the vertex rows (vptr, vidx) is step t's forest, ascending; row
 * t of the functional rows (wptr, widx, wval) its binding constraint,
 * empty on a terminal step.  Both row pointers start from 0 in each call.
 * state[2] is q, negative on a first call: that checks x0 as
 * matroids.check_graphic_membership does, clips it to [0, 1] in place
 * (keeping -0.0) and starts x from it; a later call resumes from x and q
 * and equals the continuation of the call before.  On return state[0] is
 * q max |x - v| after a terminal step (the caller takes the residual of
 * any other end from x, as numpy's max does), state[1] is 0 when the steps
 * ran out, 1 after the eps stop and 2 after a terminal step, and state[2]
 * is q.  Returns the number of steps taken, -1 when scratch memory cannot
 * be had, -4 when an entry of x0 is NaN, infinite or outside [0, 1] by
 * more than tol, -5 when the sum of x0 (numpy's pairwise sum) is off n -
 * c(G) by more than sum_tol, -9 when a node block of max(x0, 0) lies below
 * -RANK_TOL at lam = 0, and -10 when an iterate violates a rank
 * constraint at lam = 0 (see graphic_coefficient). */
int caradec_decompose_graphic(const int64_t *net, double *f, int64_t *iw)
{
    const int64_t n = net[0], A = net[1], m = A / 2, *ptr = net + 2, *head = ptr + n + 1, *arc = head + A,
                  cap = word(f, 6);
    const double tol = f[4], sum_tol = f[5];
    /* core.peel reads eps on rescaled runs only. */
    const double eps = f[0] == 1.0 && f[1] == 0.0 ? 0.0 : f[2];
    double *state = f + 7, *x0 = state + 3, *x = x0 + m, *outs = x + m, *wval = outs + 4 * cap;
    int64_t *vptr = iw, *vidx = vptr + cap + 1, *wptr = vidx + cap * n, *widx = wptr + cap + 1;
    int64_t *ints = malloc((size_t)(4 * m + 3 * n + 1) * sizeof *ints);
    double *dbls = malloc((size_t)(2 * m + n + 1) * sizeof *dbls);
    unsigned char *flags = malloc((size_t)(m + 3 * n + 1));
    forest_key *keys = malloc((size_t)(m + 1) * sizeof *keys);
    double q = state[2] < 0.0 ? 1.0 : state[2], left = 0.0, a_exact;
    int64_t T = 0, t, i, e, s, nz, nw, comps;
    int code = 0, stop = 0;
    binding bd;
    graphic g;

    if (!ints || !dbls || !flags || !keys) {
        code = -1;
        goto done;
    }
    g.net = net;
    g.n = n;
    g.m = m;
    g.eu = ints;
    g.ev = g.eu + m;
    g.face = g.ev + m;
    g.sizes = g.face + m;
    g.parent = g.sizes + m;
    g.starts = g.parent + n;
    g.identity = g.starts + n;
    g.y = dbls;
    g.inner = g.y + m;
    g.values = g.inner + m;
    g.in_s = flags;
    g.side = g.in_s + m;
    g.tside = g.side + 2 * n;
    for (i = 0; i < n; i++) {
        g.identity[i] = i;
        for (s = ptr[i]; s < ptr[i + 1]; s++)
            if (!(arc[s] & 1)) {
                g.eu[arc[s] / 2] = i;
                g.ev[arc[s] / 2] = head[s];
            }
    }
    if (state[2] < 0.0) {
        for (e = 0; e < m && !code; e++)
            if (!(x0[e] >= -tol && x0[e] <= 1.0 + tol)) /* NaN fails both */
                code = -4;
        uf_reset(&g);
        for (e = 0, comps = n; e < m; e++)
            comps -= uf_union(g.parent, g.eu[e], g.ev[e]);
        if (!code && fabs(pairwise_sum(x0, m) - (double)(n - comps)) > sum_tol)
            code = -5;
        if (code)
            goto done;
        for (e = 0; e < m; e++) {
            g.in_s[e] = 0;
            x[e] = x0[e];
        }
        code = graphic_scan(&g, x, 0.0, g.identity, n);
        for (i = 0; i < n && !code; i++)
            if (g.values[i] < -RANK_TOL)
                code = -9;
        if (code)
            goto done;
        for (e = 0; e < m; e++)
            x[e] = x0[e] = x0[e] < 0.0 ? 0.0 : x0[e] > 1.0 ? 1.0 : x0[e];
    }
    vptr[0] = wptr[0] = 0;

    for (t = 0; t < cap; t++) {
        g.zero[0] = RANK_TIGHT_TOL;
        code = tight_scan(net, x, g.zero, g.tside, g.sizes);
        if (code)
            goto done;
        graphic_forest(&g, x, keys);
        code = graphic_coefficient(&g, x, &a_exact, &bd);
        if (code)
            goto done;
        for (e = 0, nz = vptr[t]; e < m; e++)
            if (g.in_s[e])
                vidx[nz++] = e;
        vptr[t + 1] = nz;
        outs[cap + t] = q;
        T = t + 1;
        nw = wptr[t];
        stop = 2 * peel_update(f, &bd, a_exact, g.in_s, m, x, &q, outs, t, cap, widx, wval, &nw, &left);
        wptr[t + 1] = nw;
        if (stop || (eps > 0.0 && q * sqrt(sum_squares(x, m)) <= eps)) {
            stop = stop ? stop : 1;
            break;
        }
    }
    state[0] = q * left;
    state[1] = stop;
    state[2] = q;
done:
    free(ints);
    free(dbls);
    free(flags);
    free(keys);
    return code ? code : (int)T;
}
