/* Fused SCLP scan (see repro/native/__init__.py and docs/algorithms.md).
 *
 * scan_chunk: for every node of a chunk, accumulate the connection strength
 * to each neighbouring label in a dense accumulator with a touched list
 * (linear in the node's degree, no sort), decide each touched label's
 * eligibility and pick the (strength, tie hash, smallest label) optimum
 * among the eligible ones.  A frontier sweep also asks which ineligible
 * labels would win were they eligible (a 64-bit mask, bit l & 63 per such
 * flagged label) and by how much the node's own label beats every other
 * one (its margin).  Bit-identical to the NumPy scan_chunk of
 * tests/engine/numpy_kernels.py, its test oracle; arc weights are
 * non-negative there and here.
 *
 * scan_phase: a whole phase, or the part of it whose arcs are bound -- the
 * chunk loop (window, scan_chunk, capped-inflow commit, frontier marking,
 * isolated nodes) that tests/engine/python_phase.py writes out in Python as
 * its oracle.  The chunk stays the staleness unit.  The bound arcs are the
 * block [arc_lo, arc_lo + n_arcs) of the CSR: all of it on a resident graph,
 * one shard segment's on an out-of-core store.
 *
 * Plain C99, no dependencies, integers only: every block weight, capacity
 * and budget is an int64_t.  The loader reads the prototypes of the exported
 * functions and the fields of scan_phase_t off this source, so each is
 * declared here once.
 */
#include <stdint.h>

static inline uint64_t tie_hash_one(uint64_t seed, uint64_t node, uint64_t label)
{
    /* candidate_tie_hash of the NumPy oracle, one candidate */
    uint64_t x = node * UINT64_C(0x9E3779B97F4A7C15);
    x ^= label + UINT64_C(0xBF58476D1CE4E5B9) + (seed << 1);
    x ^= x >> 33;
    x *= UINT64_C(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    x *= UINT64_C(0x94D049BB133111EB);
    x ^= x >> 33;
    return x;
}

void tie_hash(uint64_t seed, int64_t n, const uint64_t *nodes,
              const uint64_t *labels, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = tie_hash_one(seed, nodes[i], labels[i]);
}

static inline void clear(int64_t *acc, uint8_t *mark, const int64_t *touched,
                         int64_t nt)
{
    for (int64_t t = 0; t < nt; t++) {
        acc[touched[t]] = 0;
        mark[touched[t]] = 0;
    }
}

/* Arcs of chunk node i are nbr/wgt[begin[i] .. begin[i] + count[i]).
 * constraint and evicting may be NULL (unconstrained; cluster mode).
 * A label l other than the node's own is eligible when used[l] + c <= cap[l].
 * acc/mark (zero on entry, zero on return) and touched hold `space` entries.
 * A label is flagged when it is ineligible and beats or ties the winner on
 * (strength, hash), or when no label is eligible at all.  blocked and slack
 * are NULL (a full sweep) or tables indexed like labels: node v = nodes[i]
 * gets blocked[v], the mask of its flagged labels (bit l & 63), and
 * slack[v], its margin: when its own label wins, acc[own] minus the
 * strongest unflagged other label (0 at least: an untouched label counts
 * as 0), else 0.
 * Returns the chunk's arc count before constraint filtering, or -1 when a
 * node, neighbour or label index is out of range. */
int64_t scan_chunk(
    int64_t n_chunk, const int64_t *nodes, const int64_t *begin,
    const int64_t *count, const int64_t *nbr, const int64_t *wgt,
    int64_t n_total, const int64_t *labels, const int64_t *constraint,
    const int64_t *vwgt, const int64_t *used, const int64_t *cap,
    const uint8_t *evicting, uint64_t tie_seed,
    int64_t tie_base, int64_t space, int64_t *acc, uint8_t *mark,
    int64_t *touched, int64_t *target, uint64_t *blocked, int64_t *slack)
{
    int64_t arcs = 0;
    for (int64_t i = 0; i < n_chunk; i++) {
        const int64_t v = nodes[i];
        if ((uint64_t)v >= (uint64_t)n_total)
            return -1;
        const int64_t own = labels[v];
        if ((uint64_t)own >= (uint64_t)space)
            return -1;
        /* Staying put is always a candidate, of strength 0 if need be. */
        int64_t nt = 0;
        touched[nt++] = own;
        mark[own] = 1;
        const int64_t end = begin[i] + count[i];
        for (int64_t a = begin[i]; a < end; a++) {
            const int64_t u = nbr[a];
            if ((uint64_t)u >= (uint64_t)n_total) {
                clear(acc, mark, touched, nt);
                return -1;
            }
            if (constraint && constraint[u] != constraint[v])
                continue;
            const int64_t l = labels[u];
            if ((uint64_t)l >= (uint64_t)space) {
                clear(acc, mark, touched, nt);
                return -1;
            }
            if (!mark[l]) {
                mark[l] = 1;
                touched[nt++] = l;
            }
            acc[l] += wgt[a];
        }
        arcs += count[i];

        /* Eligibility (mark: 1 = ineligible, 2 = eligible) and the
         * strongest eligible connection. */
        const int64_t c = vwgt[v];
        const int evict = evicting && evicting[i];
        int64_t best_s = -1;
        for (int64_t t = 0; t < nt; t++) {
            const int64_t l = touched[t];
            const int ok = l == own ? !evict : used[l] + c <= cap[l];
            mark[l] = (uint8_t)(1 + ok);
            if (ok && acc[l] > best_s)
                best_s = acc[l];
        }
        /* Ties: largest hash, then smallest label. */
        const uint64_t id = (uint64_t)(tie_base + v);
        uint64_t best_h = 0;
        int64_t best_l = -1;
        for (int64_t t = 0; t < nt; t++) {
            const int64_t l = touched[t];
            if (mark[l] != 2 || acc[l] != best_s)
                continue;
            const uint64_t h = tie_hash_one(tie_seed, id, (uint64_t)l);
            if (best_l < 0 || h > best_h || (h == best_h && l < best_l)) {
                best_h = h;
                best_l = l;
            }
        }
        if (blocked) {
            /* Every flagged label, and the strongest unflagged rival of
             * the own label. */
            uint64_t flags = 0;
            int64_t rival = 0;
            for (int64_t t = 0; t < nt; t++) {
                const int64_t l = touched[t];
                if (l == own && mark[l] == 2)
                    continue;
                if (mark[l] == 1
                    && (best_l < 0 || acc[l] > best_s
                        || (acc[l] == best_s
                            && tie_hash_one(tie_seed, id, (uint64_t)l) >= best_h)))
                    flags |= UINT64_C(1) << (l & 63);
                else if (l != own && acc[l] > rival)
                    rival = acc[l];
            }
            blocked[v] = flags;
            slack[v] = best_l == own ? acc[own] - rival : 0;
        }
        clear(acc, mark, touched, nt);
        target[i] = best_l < 0 ? own : best_l;
    }
    return arcs;
}

/* One run_sclp call's tables, filled by repro.native.PhaseScan: the head
 * pointers and the persistent arrays once per call, the arc block when it is
 * bound (once on a resident graph, per shard segment on a store),
 * cap/exact/evict_budget and the frontier masks once per phase.  Every field
 * is 8 bytes wide: an int64_t, a uint64_t or a pointer. */
typedef struct {
    int64_t n_local, n_total;         /* owned nodes, node slots */
    int64_t arc_lo, n_arcs;           /* the bound arcs: [arc_lo, arc_lo + n_arcs) */
    const int64_t *xadj;              /* n_local + 1, global arc ids */
    const int64_t *nbr, *wgt;         /* n_arcs: arc arc_lo + i is entry i */
    const int64_t *vwgt;              /* n_total */
    const int64_t *constraint;        /* n_total, or NULL */
    int64_t *labels;                  /* n_total */
    int64_t space, bound, refine;
    uint64_t tie_seed;
    int64_t tie_base;
    int64_t *used;                    /* space */
    const int64_t *cap;               /* space */
    const int64_t *exact;             /* space; NULL unless budget shares */
    int64_t *local_out;               /* space; with exact */
    const int64_t *evict_budget;      /* space; with exact */
    uint8_t *active, *next_active;    /* n_local; NULL on a full sweep */
    /* n_local each, with the masks, zero before a node's first scan: the
     * labels that beat or tied its choice at its last scan but had no room
     * for it (bit l & 63 of label l), and its slack, the margin of its own
     * label then less 2 w per neighbour move since (w the arc weight).  A
     * skipped node is scanned again once a label of its mask has room, or
     * once its slack is spent. */
    uint64_t *blocked;
    int64_t *slack;
    uint8_t *changed_mask;            /* n_local: set for every mover */
    int64_t *acc;                     /* space, zero on entry and return */
    uint8_t *mark;                    /* likewise */
    int64_t *touched;                 /* space */
    /* one window each: connected nodes with their arc ranges, labels at
     * the window start, decisions; then the window's isolated nodes */
    int64_t *nodes, *begin, *count, *own, *target, *isolated;
    uint8_t *moves, *evicting;
    int64_t moved, scanned, arcs, chunks; /* out */
} scan_phase_t;

/* The loader refuses a shared object whose struct is not the binding's. */
int64_t scan_phase_tables_size(void)
{
    return (int64_t)sizeof(scan_phase_t);
}

/* Whether a node the frontier would skip is scanned after all: a label of
 * a flagged bit (every label l with that l & 63) has room for it in the
 * window-start tables.  A mask that stands for more than 64 labels (past
 * 64 labels a bit stands for several) wakes its node untried, so no test
 * costs more than 64 room checks. */
static int unblocked(const scan_phase_t *p, int64_t v)
{
    int64_t bits[64], nb = 0, covered = 0;
    for (uint64_t m = p->blocked[v]; m; m &= m - 1) {
        int64_t b = 0;
        while (!(m >> b & 1))
            b++;
        bits[nb++] = b;
        covered += (p->space - 1 - b) / 64 + 1;
    }
    if (covered > 64)
        return 1;
    const int64_t c = p->vwgt[v];
    for (int64_t i = 0; i < nb; i++)
        for (int64_t l = bits[i]; l < p->space; l += 64)
            if (p->used[l] + c <= p->cap[l])
                return 1;
    return 0;
}

/* Isolated nodes are useless for the cut but can still repair balance: one
 * in an overloaded block moves to the lightest block with room (first
 * minimal), against the live tables. */
static int rebalance_isolated(scan_phase_t *p, int64_t v)
{
    const int64_t *load = p->exact ? p->exact : p->used;
    const int64_t own = p->labels[v];
    if ((uint64_t)own >= (uint64_t)p->space)
        return -1;
    const int64_t c = p->vwgt[v];
    if (load[own] <= p->bound
        || (p->exact && p->local_out[own] >= p->evict_budget[own]))
        return 0;
    int64_t best = -1, best_w = 0;
    for (int64_t l = 0; l < p->space; l++) {
        if (l == own || p->used[l] + c > p->cap[l])
            continue;
        const int64_t w = p->exact ? p->exact[l] + p->used[l] : p->used[l];
        if (best < 0 || w < best_w) {
            best = l;
            best_w = w;
        }
    }
    if (best < 0)
        return 0;
    p->used[own] -= c;
    p->used[best] += c;
    if (p->exact)
        p->local_out[own] += c;
    p->labels[v] = best;
    p->moved++;
    if (p->next_active)
        p->next_active[v] = 1;
    p->changed_mask[v] = 1;
    return 0;
}

/* Visit order[0 .. n_order) in windows of `chunk`.  Returns 0, or -1 when a
 * node, neighbour or label index is out of range or a visited node's arcs
 * are not all in the bound block (labels may then hold the windows
 * committed so far; acc/mark are zero either way; nothing outside the block
 * is read). */
int64_t scan_phase(scan_phase_t *p, int64_t n_order, const int64_t *order,
                   int64_t chunk)
{
    const int64_t *load = p->exact ? p->exact : p->used;
    p->moved = p->scanned = p->arcs = p->chunks = 0;
    if (chunk < 1)
        return -1;
    for (int64_t lo = 0; lo < n_order; lo += chunk) {
        const int64_t hi = n_order - lo < chunk ? n_order : lo + chunk;
        p->chunks++;
        int64_t nc = 0, ni = 0;
        for (int64_t j = lo; j < hi; j++) {
            const int64_t v = order[j];
            if ((uint64_t)v >= (uint64_t)p->n_local)
                return -1;
            if (p->active && !p->active[v] && !unblocked(p, v))
                continue;
            const int64_t b = p->xadj[v], e = p->xadj[v + 1];
            if (b < p->arc_lo || e < b || e - p->arc_lo > p->n_arcs)
                return -1;
            if (p->refine && e == b) {
                p->isolated[ni++] = v;
                continue;
            }
            const int64_t own = p->labels[v];
            if ((uint64_t)own >= (uint64_t)p->space)
                return -1;
            /* A node of an overloaded block must leave it (while this PE's
             * eviction share lasts); anyone else may stay. */
            p->evicting[nc] = p->refine && load[own] > p->bound
                && (!p->exact
                    || p->local_out[own] < p->evict_budget[own]);
            p->nodes[nc] = v;
            p->begin[nc] = b - p->arc_lo;
            p->count[nc] = e - b;
            p->own[nc] = own;
            nc++;
        }
        p->scanned += nc + ni;
        if (nc) {
            const int64_t arcs = scan_chunk(
                nc, p->nodes, p->begin, p->count, p->nbr, p->wgt, p->n_total,
                p->labels, p->constraint, p->vwgt, p->used, p->cap,
                p->refine ? p->evicting : 0,
                p->tie_seed, p->tie_base, p->space, p->acc, p->mark,
                p->touched, p->target, p->blocked, p->slack);
            if (arcs < 0)
                return -1;
            p->arcs += arcs;
            /* Capped inflow: per target label, the moves in visit order are
             * cut where used + cumulative weight overruns the window-start
             * capacity.  moves[i]: node i moves. */
            int64_t nt = 0;
            for (int64_t i = 0; i < nc; i++) {
                const int64_t v = p->nodes[i], t = p->target[i];
                p->moves[i] = 0;
                if (t == p->own[i])
                    continue;
                if (!p->mark[t]) {
                    p->mark[t] = 1;
                    p->touched[nt++] = t;
                }
                p->acc[t] += p->vwgt[v];
                if (p->used[t] + p->acc[t] <= p->cap[t])
                    p->moves[i] = 1;
                else if (p->next_active)
                    /* A capped node may succeed once the target drains. */
                    p->next_active[v] = 1;
            }
            clear(p->acc, p->mark, p->touched, nt);
            for (int64_t i = 0; i < nc; i++) {
                if (!p->moves[i])
                    continue;
                const int64_t v = p->nodes[i], own = p->own[i];
                const int64_t c = p->vwgt[v];
                p->used[own] -= c;
                p->used[p->target[i]] += c;
                if (p->exact && p->evicting[i])
                    p->local_out[own] += c;
                p->labels[v] = p->target[i];
                p->changed_mask[v] = 1;
                p->moved++;
                if (!p->next_active)
                    continue;
                /* The move shifts a neighbour's strength to two labels by
                 * w each: the neighbour is rescanned, next phase and by the
                 * later windows of this one, once that can outweigh the
                 * margin of its own label. */
                p->next_active[v] = 1;
                const int64_t end = p->begin[i] + p->count[i];
                for (int64_t a = p->begin[i]; a < end; a++) {
                    const int64_t u = p->nbr[a];
                    if (u < p->n_local && (p->slack[u] -= 2 * p->wgt[a]) <= 0) {
                        p->next_active[u] = 1;
                        p->active[u] = 1;
                    }
                }
            }
        }
        for (int64_t j = 0; j < ni; j++)
            if (rebalance_isolated(p, p->isolated[j]) < 0)
                return -1;
    }
    return 0;
}
