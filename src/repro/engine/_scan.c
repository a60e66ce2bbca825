/* Fused SCLP chunk scan (see repro/engine/native.py and docs/algorithms.md).
 *
 * For every node of a chunk: accumulate the connection strength to each
 * neighbouring label in a dense accumulator with a touched list (linear in
 * the node's degree, no sort), decide each touched label's eligibility, pick
 * the (strength, tie hash, smallest label) optimum among the eligible ones
 * and flag the node risky when an ineligible label would win were it
 * eligible.  Bit-identical to repro.engine.kernels.scan_chunk, which is the
 * fallback and the test oracle; arc weights are non-negative there and here.
 *
 * Plain C99, no dependencies.  Built with -O2 only: no -march=native and no
 * fast-math, so the one floating-point comparison below is IEEE-exact.
 */
#include <stdint.h>

static inline uint64_t tie_hash_one(uint64_t seed, uint64_t node, uint64_t label)
{
    /* candidate_tie_hash of kernels.py, one candidate */
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
 * cap is int64 or float64 (cap_is_float), compared as numpy promotes it.
 * acc/mark (zero on entry, zero on return) and touched hold `space` entries.
 * Returns the chunk's arc count before constraint filtering, or -1 when a
 * node, neighbour or label index is out of range. */
int64_t scan_chunk(
    int64_t n_chunk, const int64_t *nodes, const int64_t *begin,
    const int64_t *count, const int64_t *nbr, const int64_t *wgt,
    int64_t n_total, const int64_t *labels, const int64_t *constraint,
    const int64_t *vwgt, const int64_t *used, const void *cap,
    int cap_is_float, const uint8_t *evicting, uint64_t tie_seed,
    int64_t tie_base, int64_t space, int64_t *acc, uint8_t *mark,
    int64_t *touched, int64_t *target, uint8_t *risky)
{
    const int64_t *cap_i = (const int64_t *)cap;
    const double *cap_f = (const double *)cap;
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
            int ok;
            if (l == own)
                ok = !evict;
            else if (cap_is_float)
                ok = (double)(used[l] + c) <= cap_f[l];
            else
                ok = used[l] + c <= cap_i[l];
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
        /* Risky: no eligible label at all, or an ineligible one that beats
         * or ties the winner on (strength, hash). */
        int r = best_l < 0;
        for (int64_t t = 0; t < nt && !r; t++) {
            const int64_t l = touched[t];
            if (mark[l] != 1)
                continue;
            r = acc[l] > best_s
                || (acc[l] == best_s
                    && tie_hash_one(tie_seed, id, (uint64_t)l) >= best_h);
        }
        clear(acc, mark, touched, nt);
        target[i] = best_l < 0 ? own : best_l;
        risky[i] = (uint8_t)r;
    }
    return arcs;
}
