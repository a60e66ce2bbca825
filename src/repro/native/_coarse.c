/* The coarsest level's per-node loops (see repro/native/__init__.py and
 * docs/algorithms.md): the quotient build of repro.graph.quotient.contract
 * and KaFFPa's greedy graph growing, greedy k-way boundary refinement and
 * heavy-edge matching; the one partition-quality sweep of repro.metrics;
 * and the level builds, the arc grouping of repro.graph.build and the
 * ghost layout of repro.dist.dgraph.  Each returns what its Python twin
 * under tests/ returns (tests/kaffpa/python_twins.py,
 * tests/engine/numpy_kernels.py), its oracle.
 * Every random draw is made in Python and passed in: a seed index, a visit
 * order.
 *
 * Reentrant: no static state, every scratch array comes from the caller.  A
 * node id, arc range, neighbour, block id or mapping entry outside its table
 * ends the call with one of the codes below; scratch documented as "zero on
 * return" is zero then too.
 *
 * Plain C99, no dependencies; compiled in one translation unit with _scan.c.
 */
#include <stdint.h>

enum {
    BAD_NODE = -1,  /* a node id (members, order, seed) */
    BAD_XADJ = -2,  /* a node's arc range */
    BAD_NBR = -3,   /* a neighbour id in adjncy */
    BAD_BLOCK = -4, /* a mapping entry or block id */
    BAD_ROOM = -5   /* caller-sized scratch or output too small */
};

static inline int bad_index(int64_t i, int64_t size)
{
    return (uint64_t)i >= (uint64_t)size;
}

static inline int bad_range(int64_t b, int64_t e, int64_t n_arcs)
{
    return b < 0 || e < b || e > n_arcs;
}

/* ------------------------------------------------------------------------
 * Quotient build: the canonical CSR (rows ordered by neighbour, parallel
 * arcs summed, self-loops dropped) of the quotient of the *transpose* of
 * the input, exact on any CSR.  On a symmetric CSR -- every Graph -- that
 * is the quotient itself; a PE's rows come back as their arcs reversed,
 * which the owners of the coarse rows sum into the quotient
 * (repro.dist.dist_contraction).  Fine nodes are bucketed by coarse node (a
 * counting sort); both passes visit the source clusters d in ascending
 * order and read each fine arc u -> v as an entry d of row c = mapping[v].
 * A row thus meets its entries in neighbour order, parallel ones adjacent,
 * and stamp[c] = the last d seen decides "new entry or add to the last".
 * One pass counts each row's distinct sources, the caller allocates exactly
 * that, the other fills it: no transposition, no hash, no comparison sort.
 * ---------------------------------------------------------------------- */

/* order[start[c] .. start[c+1]) = the fine nodes of coarse node c. */
static int64_t bucket_nodes(int64_t n, const int64_t *mapping, int64_t n_coarse,
                            int64_t *start, int64_t *order)
{
    for (int64_t c = 0; c <= n_coarse; c++)
        start[c] = 0;
    for (int64_t u = 0; u < n; u++) {
        if (bad_index(mapping[u], n_coarse))
            return BAD_BLOCK;
        start[mapping[u] + 1]++;
    }
    for (int64_t c = 0; c < n_coarse; c++)
        start[c + 1] += start[c];
    for (int64_t u = 0; u < n; u++)
        order[start[mapping[u]]++] = u;
    for (int64_t c = n_coarse; c > 0; c--)
        start[c] = start[c - 1];
    start[0] = 0;
    return 0;
}

/* Fills start (n_coarse + 1), order (n) and xadj_c (n_coarse + 1); stamp holds
 * n_coarse entries.  Returns the coarse arc count. */
int64_t quotient_count(int64_t n, int64_t n_arcs, const int64_t *xadj,
                       const int64_t *adjncy, const int64_t *mapping,
                       int64_t n_coarse, int64_t *start, int64_t *order,
                       int64_t *stamp, int64_t *xadj_c)
{
    const int64_t bad = bucket_nodes(n, mapping, n_coarse, start, order);
    if (bad < 0)
        return bad;
    xadj_c[0] = 0;
    for (int64_t c = 0; c < n_coarse; c++) {
        stamp[c] = -1;
        xadj_c[c + 1] = 0;
    }
    for (int64_t d = 0; d < n_coarse; d++)
        for (int64_t i = start[d]; i < start[d + 1]; i++) {
            const int64_t u = order[i];
            const int64_t b = xadj[u], e = xadj[u + 1];
            if (bad_range(b, e, n_arcs))
                return BAD_XADJ;
            for (int64_t a = b; a < e; a++) {
                if (bad_index(adjncy[a], n))
                    return BAD_NBR;
                const int64_t c = mapping[adjncy[a]];
                /* no branch: whether d is new to row c is a coin flip per
                 * arc; row d's own stamp is set too, which nobody reads */
                xadj_c[c + 1] += (c != d) & (stamp[c] != d);
                stamp[c] = d;
            }
        }
    for (int64_t c = 0; c < n_coarse; c++)
        xadj_c[c + 1] += xadj_c[c];
    return xadj_c[n_coarse];
}

/* start/order/xadj_c as quotient_count left them and n_arcs_c what it
 * returned; stamp and cur hold n_coarse entries, adjncy_c/adjwgt_c (out)
 * n_arcs_c.  Returns 0. */
int64_t quotient_fill(int64_t n, int64_t n_arcs, const int64_t *xadj,
                      const int64_t *adjncy, const int64_t *adjwgt,
                      const int64_t *mapping, int64_t n_coarse,
                      const int64_t *start, const int64_t *order,
                      int64_t *stamp, int64_t *cur, int64_t n_arcs_c,
                      const int64_t *xadj_c, int64_t *adjncy_c,
                      int64_t *adjwgt_c)
{
    if (xadj_c[0] != 0 || xadj_c[n_coarse] != n_arcs_c)
        return BAD_ROOM;
    for (int64_t c = 0; c < n_coarse; c++) {
        if (bad_range(xadj_c[c], xadj_c[c + 1], n_arcs_c))
            return BAD_ROOM;
        stamp[c] = -1;
        cur[c] = xadj_c[c]; /* row c's next free entry */
    }
    for (int64_t d = 0; d < n_coarse; d++) {
        if (bad_range(start[d], start[d + 1], n))
            return BAD_BLOCK;
        for (int64_t i = start[d]; i < start[d + 1]; i++) {
            const int64_t u = order[i];
            if (bad_index(u, n))
                return BAD_NODE;
            const int64_t b = xadj[u], e = xadj[u + 1];
            if (bad_range(b, e, n_arcs))
                return BAD_XADJ;
            for (int64_t a = b; a < e; a++) {
                if (bad_index(adjncy[a], n))
                    return BAD_NBR;
                const int64_t c = mapping[adjncy[a]];
                if (bad_index(c, n_coarse))
                    return BAD_BLOCK;
                if (c == d)
                    continue;
                if (stamp[c] == d) { /* a parallel arc: row c's last entry */
                    adjwgt_c[cur[c] - 1] += adjwgt[a];
                    continue;
                }
                if (cur[c] >= xadj_c[c + 1])
                    return BAD_ROOM;
                stamp[c] = d;
                adjncy_c[cur[c]] = d;
                adjwgt_c[cur[c]++] = adjwgt[a];
            }
        }
    }
    for (int64_t c = 0; c < n_coarse; c++)
        if (cur[c] != xadj_c[c + 1])
            return BAD_ROOM; /* a row left unfilled */
    return 0;
}

/* ------------------------------------------------------------------------
 * Arc grouping (repro.graph.build.group_arcs): the arc list src[i] -> dst[i]
 * of n_in arcs over n nodes to canonical CSR.  group_count counts each
 * row's arcs, group_merge buckets them by source (a counting sort) and sums
 * the parallel ones in place, first-met order, with a per-row stamp;
 * group_order sorts every row by neighbour with two transpositions, unless
 * group_merge found every merged row ordered already (the input grouped by
 * neighbour, say).  Self-loops are dropped, weights summing to zero kept.
 * With mirror set, each arc s -> d is read as d -> s too, which is grouping
 * the list concatenated with its reverse, without building that list.
 * ---------------------------------------------------------------------- */

/* start (n + 1, out): row r's arcs go to [start[r], start[r + 1]).  Returns
 * the number of arcs that are not self-loops; an endpoint outside [0, n)
 * returns BAD_NODE with *bad = the first such arc. */
int64_t group_count(int64_t n, int64_t n_in, const int64_t *src,
                    const int64_t *dst, int64_t mirror, int64_t *start,
                    int64_t *bad)
{
    for (int64_t r = 0; r <= n; r++)
        start[r] = 0;
    for (int64_t i = 0; i < n_in; i++) {
        const int64_t s = src[i], d = dst[i];
        if (bad_index(s, n) || bad_index(d, n)) {
            *bad = i;
            return BAD_NODE;
        }
        start[s + 1] += s != d;
        start[d + 1] += mirror && s != d;
    }
    for (int64_t r = 0; r < n; r++)
        start[r + 1] += start[r];
    return start[n];
}

/* start as group_count left it and n_arcs what it returned; col/val hold
 * n_arcs entries, stamp and slot n.  On return the first start[n] entries
 * of col/val are the merged rows, row r at [start[r], start[r + 1]), and
 * *ordered is 1 if every row is already ordered by neighbour (group_order
 * has nothing to do); returns their count. */
int64_t group_merge(int64_t n, int64_t n_in, const int64_t *src,
                    const int64_t *dst, const int64_t *wgt, int64_t mirror,
                    int64_t *start, int64_t n_arcs, int64_t *col,
                    int64_t *val, int64_t *stamp, int64_t *slot,
                    int64_t *ordered)
{
    if (start[0] != 0 || start[n] != n_arcs)
        return BAD_ROOM;
    for (int64_t r = 0; r < n; r++)
        stamp[r] = start[r]; /* the bucket cursors */
    for (int64_t i = 0; i < n_in; i++) {
        const int64_t s = src[i], d = dst[i];
        if (bad_index(s, n) || bad_index(d, n))
            return BAD_NODE;
        if (s == d)
            continue;
        const int64_t at = stamp[s]++;
        if (bad_index(at, n_arcs))
            return BAD_ROOM;
        col[at] = d;
        val[at] = wgt[i];
        if (mirror) {
            const int64_t back = stamp[d]++;
            if (bad_index(back, n_arcs))
                return BAD_ROOM;
            col[back] = s;
            val[back] = wgt[i];
        }
    }
    for (int64_t r = 0; r < n; r++)
        stamp[r] = -1;
    /* distinct arcs so far never outnumber arcs read, so a slot is never
     * ahead of the arc being read: the merge runs in place */
    int64_t at = 0, b = 0, unordered = 0;
    for (int64_t r = 0; r < n; r++) {
        const int64_t e = start[r + 1];
        if (bad_range(b, e, n_arcs))
            return BAD_ROOM;
        start[r] = at;
        int64_t last = -1;
        for (int64_t a = b; a < e; a++) {
            const int64_t d = col[a], w = val[a];
            const int fresh = stamp[d] != r;
            const int64_t s = fresh ? at : slot[d];
            stamp[d] = r;
            slot[d] = s;
            col[s] = d;
            val[s] = (fresh ? 0 : val[s]) + w;
            at += fresh;
            unordered |= fresh & (d <= last);
            last = fresh ? d : last;
        }
        b = e;
    }
    start[n] = at;
    *ordered = !unordered;
    return at;
}

/* (off, col, wgt) -> its transpose, rows ordered by column. */
static void transpose(int64_t n, const int64_t *off, const int64_t *col,
                      const int64_t *wgt, int64_t *out_off, int64_t *out_col,
                      int64_t *out_wgt)
{
    for (int64_t c = 0; c <= n; c++)
        out_off[c] = 0;
    for (int64_t e = 0; e < off[n]; e++)
        out_off[col[e] + 1]++;
    for (int64_t c = 0; c < n; c++)
        out_off[c + 1] += out_off[c];
    for (int64_t r = 0; r < n; r++)
        for (int64_t e = off[r]; e < off[r + 1]; e++) {
            const int64_t at = out_off[col[e]]++;
            out_col[at] = r;
            out_wgt[at] = wgt[e];
        }
    for (int64_t c = n; c > 0; c--)
        out_off[c] = out_off[c - 1];
    out_off[0] = 0;
}

/* start/col/val as group_merge left them and n_arcs what it returned;
 * t_off holds n + 1 entries, t_col/t_wgt n_arcs.  The rows, each ordered by
 * neighbour, go to xadj (n + 1), adjncy and adjwgt (n_arcs).  Returns 0. */
int64_t group_order(int64_t n, const int64_t *start, int64_t n_arcs,
                    const int64_t *col, const int64_t *val, int64_t *t_off,
                    int64_t *t_col, int64_t *t_wgt, int64_t *xadj,
                    int64_t *adjncy, int64_t *adjwgt)
{
    if (start[0] != 0 || start[n] != n_arcs)
        return BAD_ROOM;
    for (int64_t r = 0; r < n; r++)
        if (bad_range(start[r], start[r + 1], n_arcs))
            return BAD_XADJ;
    for (int64_t a = 0; a < n_arcs; a++)
        if (bad_index(col[a], n))
            return BAD_NBR;
    transpose(n, start, col, val, t_off, t_col, t_wgt);
    transpose(n, t_off, t_col, t_wgt, xadj, adjncy, adjwgt);
    return 0;
}

/* ------------------------------------------------------------------------
 * Ghost layout (repro.dist.dgraph.DistGraph, paper Section IV-A): the rows
 * of PE `rank` under vtxdist (n_pes + 1 ascending entries from 0), arc
 * targets dst[] in global ids, become local ids; a ghost is a foreign
 * target, ghosts are numbered in ascending global id, so the ghosts of each
 * owner are one run.  slot holds n_global = vtxdist[n_pes] entries: after
 * ghost_count, slot[g] = the ghost index of global id g, -1 if g is no
 * ghost (a counting sort over the id range: no comparison sort, no hash).
 * ---------------------------------------------------------------------- */

static int bad_vtxdist(int64_t n_pes, const int64_t *vtxdist, int64_t rank,
                       int64_t n_local)
{
    if (n_pes < 1 || bad_index(rank, n_pes) || vtxdist[0] != 0)
        return 1;
    for (int64_t q = 0; q < n_pes; q++)
        if (vtxdist[q + 1] < vtxdist[q])
            return 1;
    return vtxdist[rank + 1] - vtxdist[rank] != n_local;
}

/* The PE owning global id g in [0, vtxdist[n_pes]): the last q with
 * vtxdist[q] <= g (binary search; empty ranges are skipped). */
static int64_t owner_of(int64_t n_pes, const int64_t *vtxdist, int64_t g)
{
    int64_t lo = 0, hi = n_pes; /* vtxdist[lo] <= g < vtxdist[hi] */
    while (hi - lo > 1) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (vtxdist[mid] <= g)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

/* Numbers the ghosts (slot, see above) and sizes the layout:
 * ghost_start/send_start (n_pes + 1, out) = the ghosts of owner q are
 * [ghost_start[q], ghost_start[q + 1]), the owned nodes with an arc to a
 * ghost of q go to [send_start[q], send_start[q + 1]) of the send lists;
 * pe_stamp holds n_pes entries.  Returns the number of arcs to ghosts. */
int64_t ghost_count(int64_t n_pes, const int64_t *vtxdist, int64_t rank,
                    int64_t n_local, const int64_t *xadj, int64_t n_arcs,
                    const int64_t *dst, int64_t *slot, int64_t *ghost_start,
                    int64_t *send_start, int64_t *pe_stamp)
{
    if (bad_vtxdist(n_pes, vtxdist, rank, n_local))
        return BAD_BLOCK;
    const int64_t first = vtxdist[rank], last = vtxdist[rank + 1];
    const int64_t n_global = vtxdist[n_pes];
    if (xadj[0] != 0 || xadj[n_local] != n_arcs)
        return BAD_XADJ;
    for (int64_t g = 0; g < n_global; g++)
        slot[g] = -1;
    for (int64_t q = 0; q <= n_pes; q++)
        ghost_start[q] = send_start[q] = 0;
    for (int64_t q = 0; q < n_pes; q++)
        pe_stamp[q] = -1;
    int64_t cross = 0;
    for (int64_t v = 0; v < n_local; v++) {
        const int64_t b = xadj[v], e = xadj[v + 1];
        if (bad_range(b, e, n_arcs))
            return BAD_XADJ;
        for (int64_t a = b; a < e; a++) {
            const int64_t g = dst[a];
            if (bad_index(g, n_global))
                return BAD_NBR;
            if (g >= first && g < last)
                continue;
            const int64_t q = owner_of(n_pes, vtxdist, g);
            cross++;
            slot[g] = 0; /* a ghost; numbered below */
            send_start[q + 1] += pe_stamp[q] != v;
            pe_stamp[q] = v;
        }
    }
    int64_t n_ghost = 0;
    for (int64_t q = 0; q < n_pes; q++) {
        ghost_start[q] = n_ghost;
        if (q != rank)
            for (int64_t g = vtxdist[q]; g < vtxdist[q + 1]; g++)
                if (slot[g] == 0)
                    slot[g] = n_ghost++;
    }
    ghost_start[n_pes] = n_ghost;
    for (int64_t q = 0; q < n_pes; q++)
        send_start[q + 1] += send_start[q];
    return cross;
}

/* The rest, with the tables ghost_count filled and n_cross what it
 * returned: adjncy (n_arcs, out) the local ids; ghost_global/ghost_owner
 * (ghost_start[n_pes] entries, out); ghost_xadj (n_ghost + 1) and
 * ghost_src (n_cross), out: the owned sources of each ghost's arcs, in arc
 * order; send_nodes (send_start[n_pes], out): per owner q, ascending, the
 * owned nodes with an arc to a ghost of q.  pe_stamp and cursor hold n_pes
 * entries.  Returns 0. */
int64_t ghost_fill(int64_t n_pes, const int64_t *vtxdist, int64_t rank,
                   int64_t n_local, const int64_t *xadj, int64_t n_arcs,
                   const int64_t *dst, const int64_t *slot,
                   const int64_t *ghost_start, const int64_t *send_start,
                   int64_t n_cross, int64_t *adjncy, int64_t *ghost_global,
                   int64_t *ghost_owner, int64_t *ghost_xadj,
                   int64_t *ghost_src, int64_t *send_nodes,
                   int64_t *pe_stamp, int64_t *cursor)
{
    if (bad_vtxdist(n_pes, vtxdist, rank, n_local))
        return BAD_BLOCK;
    const int64_t first = vtxdist[rank], last = vtxdist[rank + 1];
    const int64_t n_global = vtxdist[n_pes];
    const int64_t n_ghost = ghost_start[n_pes], n_send = send_start[n_pes];
    if (xadj[0] != 0 || xadj[n_local] != n_arcs)
        return BAD_XADJ;
    if (ghost_start[0] != 0 || send_start[0] != 0)
        return BAD_ROOM;
    for (int64_t q = 0; q < n_pes; q++) {
        if (bad_range(ghost_start[q], ghost_start[q + 1], n_ghost)
            || bad_range(send_start[q], send_start[q + 1], n_send))
            return BAD_ROOM;
        for (int64_t s = ghost_start[q]; s < ghost_start[q + 1]; s++)
            ghost_owner[s] = q;
        pe_stamp[q] = -1;
        cursor[q] = send_start[q];
    }
    for (int64_t s = 0; s <= n_ghost; s++)
        ghost_xadj[s] = 0;
    for (int64_t v = 0; v < n_local; v++) {
        const int64_t b = xadj[v], e = xadj[v + 1];
        if (bad_range(b, e, n_arcs))
            return BAD_XADJ;
        for (int64_t a = b; a < e; a++) {
            const int64_t g = dst[a];
            if (bad_index(g, n_global))
                return BAD_NBR;
            if (g >= first && g < last) {
                adjncy[a] = g - first;
                continue;
            }
            const int64_t s = slot[g];
            if (bad_index(s, n_ghost))
                return BAD_ROOM;
            const int64_t q = ghost_owner[s];
            adjncy[a] = n_local + s;
            ghost_global[s] = g;
            ghost_xadj[s + 1]++;
            if (pe_stamp[q] != v) {
                if (cursor[q] >= send_start[q + 1])
                    return BAD_ROOM;
                send_nodes[cursor[q]++] = v;
                pe_stamp[q] = v;
            }
        }
    }
    for (int64_t s = 0; s < n_ghost; s++)
        ghost_xadj[s + 1] += ghost_xadj[s];
    if (ghost_xadj[n_ghost] != n_cross)
        return BAD_ROOM;
    /* a counting sort of the arcs to ghosts by ghost, stable */
    for (int64_t v = 0; v < n_local; v++)
        for (int64_t a = xadj[v]; a < xadj[v + 1]; a++)
            if (adjncy[a] >= n_local)
                ghost_src[ghost_xadj[adjncy[a] - n_local]++] = v;
    for (int64_t s = n_ghost; s > 0; s--)
        ghost_xadj[s] = ghost_xadj[s - 1];
    ghost_xadj[0] = 0;
    return 0;
}

/* ------------------------------------------------------------------------
 * Greedy graph growing (kaffpa/initial.py).  The frontier is a binary
 * min-heap of (-gain, counter, node) triples; counter is unique, so
 * (-gain, counter) is a total order and the pop sequence is the one Python's
 * heapq produces whatever the two heaps look like inside.
 * ---------------------------------------------------------------------- */

static inline int triple_less(const int64_t *x, const int64_t *y)
{
    return x[0] < y[0] || (x[0] == y[0] && x[1] < y[1]);
}

static void heap_push(int64_t *heap, int64_t *size, int64_t key,
                      int64_t counter, int64_t node)
{
    int64_t i = (*size)++;
    const int64_t item[3] = {key, counter, node};
    while (i > 0) {
        int64_t *parent = heap + 3 * ((i - 1) / 2);
        if (!triple_less(item, parent))
            break;
        heap[3 * i] = parent[0];
        heap[3 * i + 1] = parent[1];
        heap[3 * i + 2] = parent[2];
        i = (i - 1) / 2;
    }
    heap[3 * i] = key;
    heap[3 * i + 1] = counter;
    heap[3 * i + 2] = node;
}

/* Moves the smallest triple to top[]. */
static void heap_pop(int64_t *heap, int64_t *size, int64_t *top)
{
    top[0] = heap[0];
    top[1] = heap[1];
    top[2] = heap[2];
    const int64_t n = --(*size);
    const int64_t *last = heap + 3 * n;
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n
            && triple_less(heap + 3 * (child + 1), heap + 3 * child))
            child++;
        if (!triple_less(heap + 3 * child, last))
            break;
        heap[3 * i] = heap[3 * child];
        heap[3 * i + 1] = heap[3 * child + 1];
        heap[3 * i + 2] = heap[3 * child + 2];
        i = child;
    }
    heap[3 * i] = last[0];
    heap[3 * i + 1] = last[1];
    heap[3 * i + 2] = last[2];
}

enum { OUTSIDE = 0, REGION = 1, FRONTIER = 2, GROWN = 3 };

/* Grow block 0 inside the node subset members[0 .. n_sub) (ascending ids;
 * NULL = all n nodes) of the graph, from members[seed], up to `target`
 * weight: greedy_graph_growing_bisection on the induced subgraph without
 * building it -- arcs leaving the subset are skipped, the rest are met in
 * the parent's order, which is the subgraph's when the parent's rows are
 * sorted.  side[i] (out) is 0 where members[i] was absorbed, else 1.
 * mark (n bytes) is zero on entry and on return; gain holds n entries and
 * heap 3 * heap_room.  Returns 0. */
int64_t grow_bisection(int64_t n, int64_t n_arcs, const int64_t *xadj,
                       const int64_t *adjncy, const int64_t *adjwgt,
                       const int64_t *vwgt, int64_t n_sub,
                       const int64_t *members, int64_t seed, int64_t target,
                       uint8_t *mark, int64_t *gain, int64_t *heap,
                       int64_t heap_room, uint8_t *side)
{
#define MEMBER(i) (members ? members[i] : (i))
    int64_t status = 0, entered = 0, size = 0, counter = 0, grown = 0;
    if (n_sub == 0)
        return 0;
    if (bad_index(n_sub, n + 1) || bad_index(seed, n_sub))
        return BAD_NODE;
    for (; entered < n_sub; entered++) {
        const int64_t v = MEMBER(entered);
        if (bad_index(v, n) || mark[v] != OUTSIDE) {
            status = BAD_NODE;
            goto done;
        }
        mark[v] = REGION;
    }
    if (heap_room < 1) {
        status = BAD_ROOM;
        goto done;
    }
    mark[MEMBER(seed)] = FRONTIER;
    gain[MEMBER(seed)] = 0;
    heap_push(heap, &size, 0, counter, MEMBER(seed));
    while (size > 0 && grown < target) {
        int64_t top[3];
        heap_pop(heap, &size, top);
        const int64_t v = top[2];
        if (mark[v] == GROWN || gain[v] != -top[0])
            continue; /* stale entry */
        if (grown + vwgt[v] > target && grown > 0)
            continue; /* would overshoot; try a lighter frontier node */
        mark[v] = GROWN;
        grown += vwgt[v];
        const int64_t b = xadj[v], e = xadj[v + 1];
        if (bad_range(b, e, n_arcs)) {
            status = BAD_XADJ;
            goto done;
        }
        for (int64_t a = b; a < e; a++) {
            const int64_t u = adjncy[a];
            if (bad_index(u, n)) {
                status = BAD_NBR;
                goto done;
            }
            if (mark[u] == OUTSIDE || mark[u] == GROWN)
                continue;
            if (mark[u] == REGION) {
                mark[u] = FRONTIER;
                gain[u] = 0;
            }
            gain[u] += adjwgt[a];
            if (size >= heap_room) {
                status = BAD_ROOM;
                goto done;
            }
            heap_push(heap, &size, -gain[u], ++counter, u);
        }
    }
    for (int64_t i = 0; i < n_sub; i++)
        side[i] = mark[MEMBER(i)] != GROWN;
    /* Absorb unreached pieces while they fit. */
    if (grown < target)
        for (int64_t i = 0; i < n_sub; i++) {
            const int64_t v = MEMBER(i);
            if (mark[v] == REGION && grown + vwgt[v] <= target) {
                side[i] = 0;
                grown += vwgt[v];
            }
        }
done:
    for (int64_t i = 0; i < entered; i++)
        mark[MEMBER(i)] = OUTSIDE;
    return status;
#undef MEMBER
}

/* ------------------------------------------------------------------------
 * One pass of greedy k-way boundary refinement (kaffpa/kway_fm.py) over
 * order[0 .. n): labels and weights are updated in place.  A node's
 * connectivity is collected in first-met order, as the Python dict holds
 * it, because the first of several equally good blocks wins.  conn and
 * touched hold `space` entries, seen `space` bytes, zero on entry and on
 * return.  Returns the number of nodes moved.
 * ---------------------------------------------------------------------- */
int64_t kway_refine_pass(int64_t n, int64_t n_arcs, const int64_t *xadj,
                         const int64_t *adjncy, const int64_t *adjwgt,
                         const int64_t *vwgt, const int64_t *order,
                         int64_t *labels, int64_t space, int64_t *weights,
                         int64_t max_block_weight, int64_t *conn,
                         uint8_t *seen, int64_t *touched)
{
    int64_t moved = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i];
        if (bad_index(v, n))
            return BAD_NODE;
        const int64_t b = xadj[v], e = xadj[v + 1];
        if (bad_range(b, e, n_arcs))
            return BAD_XADJ;
        const int64_t mine = labels[v];
        if (bad_index(mine, space))
            return BAD_BLOCK;
        int64_t internal = 0, nt = 0, status = 0;
        for (int64_t a = b; a < e; a++) {
            if (bad_index(adjncy[a], n)) {
                status = BAD_NBR;
                break;
            }
            const int64_t lab = labels[adjncy[a]];
            if (bad_index(lab, space)) {
                status = BAD_BLOCK;
                break;
            }
            if (lab == mine) {
                internal += adjwgt[a];
                continue;
            }
            if (!seen[lab]) {
                seen[lab] = 1;
                conn[lab] = 0;
                touched[nt++] = lab;
            }
            conn[lab] += adjwgt[a];
        }
        const int64_t c_v = vwgt[v];
        int64_t best_block = -1, best_gain = 0;
        for (int64_t t = 0; t < nt; t++) {
            const int64_t lab = touched[t];
            seen[lab] = 0;
            if (status || weights[lab] + c_v > max_block_weight)
                continue;
            const int64_t g = conn[lab] - internal;
            if (g > best_gain
                || (g == best_gain && g >= 0 && best_block == -1
                    && weights[lab] + c_v < weights[mine])) {
                best_gain = g;
                best_block = lab;
            }
        }
        if (status)
            return status;
        if (best_block >= 0
            && (best_gain > 0
                || (best_gain == 0
                    && weights[best_block] + c_v < weights[mine]))) {
            weights[mine] -= c_v;
            weights[best_block] += c_v;
            labels[v] = best_block;
            moved++;
        }
    }
    return moved;
}

/* ------------------------------------------------------------------------
 * Heavy-edge matching (kaffpa/matching.py): nodes in `order`, each unmatched
 * one takes its unmatched neighbour along the heaviest arc (the first of
 * equals), never across `constraint` (NULL = none) and never a pair heavier
 * than `max_pair_weight` (INT64_MAX: no bound).  mate[v] == v on entry for
 * every v, which is also what "unmatched" reads as.  Returns the number of
 * pairs.
 * ---------------------------------------------------------------------- */
int64_t match_heavy_edges(int64_t n, int64_t n_arcs, const int64_t *xadj,
                          const int64_t *adjncy, const int64_t *adjwgt,
                          const int64_t *vwgt, const int64_t *constraint,
                          int64_t max_pair_weight, const int64_t *order,
                          int64_t *mate)
{
    int64_t pairs = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = order[i];
        if (bad_index(v, n))
            return BAD_NODE;
        if (mate[v] != v)
            continue;
        const int64_t b = xadj[v], e = xadj[v + 1];
        if (bad_range(b, e, n_arcs))
            return BAD_XADJ;
        int64_t best_u = -1, best_w = -1;
        for (int64_t a = b; a < e; a++) {
            const int64_t u = adjncy[a];
            if (bad_index(u, n))
                return BAD_NBR;
            if (mate[u] != u || u == v)
                continue;
            if (constraint && constraint[u] != constraint[v])
                continue;
            if (vwgt[v] + vwgt[u] > max_pair_weight)
                continue;
            if (adjwgt[a] > best_w) {
                best_w = adjwgt[a];
                best_u = u;
            }
        }
        if (best_u >= 0) {
            mate[v] = best_u;
            mate[best_u] = v;
            pairs++;
        }
    }
    return pairs;
}

/* ------------------------------------------------------------------------
 * Partition quality (repro/metrics/quality.py): one sweep over the source
 * nodes [lo, hi) of a CSR of n_rows rows whose arcs are served from the bound
 * block [arc_lo, arc_lo + n_arcs) (arc a is nbr/wgt[a - arc_lo]), labels
 * holding n_labels entries (ghosts after the rows on a PE), every label in
 * [0, space).  totals = (cut arc weight, boundary nodes, communication
 * volume): the cut counts every cut edge from each of its ends whose row is
 * swept.  A node's distinct foreign blocks are counted with a per-block stamp,
 * stamp[p] == v once v has met block p (space entries, any content on entry):
 * no sort, no hash, O(hi - lo + arcs).  The sums decompose exactly over
 * source-node ranges, so a store is swept one shard at a time.  Returns 0.
 * ---------------------------------------------------------------------- */
int64_t partition_quality(int64_t n_rows, const int64_t *xadj, int64_t lo,
                          int64_t hi, int64_t arc_lo, int64_t n_arcs,
                          const int64_t *nbr, const int64_t *wgt,
                          int64_t n_labels, const int64_t *labels,
                          int64_t space, int64_t *stamp, int64_t *totals)
{
    if (lo < 0 || hi < lo || hi > n_rows)
        return BAD_NODE;
    for (int64_t p = 0; p < space; p++)
        stamp[p] = -1;
    int64_t cut = 0, boundary = 0, volume = 0;
    for (int64_t v = lo; v < hi; v++) {
        if (bad_index(v, n_labels))
            return BAD_NODE;
        const int64_t own = labels[v];
        if (bad_index(own, space))
            return BAD_BLOCK;
        const int64_t b = xadj[v] - arc_lo, e = xadj[v + 1] - arc_lo;
        if (bad_range(b, e, n_arcs))
            return BAD_XADJ;
        const int64_t before = volume;
        for (int64_t a = b; a < e; a++) {
            const int64_t u = nbr[a];
            if (bad_index(u, n_labels))
                return BAD_NBR;
            const int64_t p = labels[u];
            if (bad_index(p, space))
                return BAD_BLOCK;
            /* no branch: stamping v's own block too is harmless, v never
             * counts it and no later node reads v */
            const int64_t foreign = p != own;
            cut += foreign ? wgt[a] : 0;
            volume += foreign & (stamp[p] != v);
            stamp[p] = v;
        }
        boundary += volume != before;
    }
    totals[0] = cut;
    totals[1] = boundary;
    totals[2] = volume;
    return 0;
}
