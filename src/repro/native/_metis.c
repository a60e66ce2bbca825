/* METIS text (repro.graph.io.read_metis): the body of a METIS graph file --
 * the lines after the header -- to the node weights and the arc list
 * (v, u, w) with u > v that repro.graph.build.from_coo turns into a graph.
 * Its twin, the oracle, is tests/graph/metis_twin.py.
 *
 * The grammar.  A token is [+-]?[0-9]+ and fits in int64; tokens are
 * separated by spaces and tabs; a line ends at \n, \r\n or \r.  A line whose
 * first token starts with % is a comment, wherever it stands.  Every other
 * line is the next node's: its node weight if the header says so, then
 * neighbour ids in 1..n, each followed by its edge weight if the header says
 * so.  A blank line is an isolated node.  After the n node lines only blank
 * and comment lines may follow.  Weights are non-negative.  Self-loops are
 * dropped; parallel entries are kept, for from_coo to sum.  The adjacency is
 * symmetric: if node u lists v, v lists u, and the weights of u's entries
 * for v sum to those of v's entries for u.  The whole file is ASCII.
 *
 * Two passes, as in _coarse.c: metis_count reads and checks the text and
 * counts the arcs, the caller allocates exactly that, and metis_fill reads
 * the text again into those arrays, grouped by neighbour, and checks the
 * symmetry on the way.  The first fault in file order ends the call with one
 * of the codes below (an asymmetry: the smallest culprit, at the end), and
 * info[] holds what names it: the file line first.
 *
 * Reentrant: no static state, every array comes from the caller.  Plain
 * C99, no dependencies; compiled in one translation unit with _scan.c and
 * _coarse.c.
 */
#include <stdint.h>

enum {
    TEXT_ROOM = -5,         /* a caller-sized array disagrees with the count */
    TEXT_NOT_ASCII = -6,    /* info: line, offset of the byte */
    TEXT_TOKEN = -7,        /* info: line, offset, length: not [+-]?[0-9]+ */
    TEXT_RANGE = -8,        /* info: line, offset, length: outside int64 */
    TEXT_NEIGHBOUR = -9,    /* info: line, the id: outside 1..n */
    TEXT_NODE_WEIGHT = -10, /* info: line: no node weight on a node's line */
    TEXT_EDGE_WEIGHT = -11, /* info: line, the id: no edge weight after it */
    TEXT_NEGATIVE = -12,    /* info: line, the weight, 0 node / 1 edge */
    TEXT_LINES = -13,       /* info: first line past the n node lines (0 if
                               the file ends first), node lines found */
    TEXT_ONE_SIDED = -14,   /* info: line, node, neighbour, its line */
    TEXT_WEIGHTS = -15      /* info: line, node, neighbour, its line, the
                               summed weight here, the summed weight there */
};

static inline int is_blank(uint8_t c)
{
    return c == ' ' || c == '\t';
}

static inline int is_eol(uint8_t c)
{
    return c == '\n' || c == '\r';
}

static inline int64_t text_fault(int64_t *info, int64_t code, int64_t line,
                                 int64_t a, int64_t b)
{
    info[0] = line;
    info[1] = a;
    info[2] = b;
    return code;
}

/* Past the line end at s[p] (or at size): \r\n counts as one. */
static inline int64_t next_line(const uint8_t *s, int64_t size, int64_t p)
{
    while (p < size && !is_eol(s[p]))
        p++;
    if (p < size)
        p += (s[p] == '\r' && p + 1 < size && s[p + 1] == '\n') ? 2 : 1;
    return p;
}

/* The token at s[*pos], which is neither a separator nor a line end: its
 * value in *value and *pos past it, or a fault.  One pass over a well-formed
 * token; a malformed one is scanned again for the fault it holds first. */
static int64_t read_token(const uint8_t *s, int64_t size, int64_t *pos,
                          int64_t line, int64_t *value, int64_t *info)
{
    const int64_t b = *pos;
    const int negative = s[b] == '-';
    const int64_t digits = b + (s[b] == '+' || negative);
    int64_t e = digits;
    uint64_t mag = 0;
    for (; e < size; e++) {
        const uint64_t d = (uint64_t)s[e] - '0';
        if (d > 9)
            break;
        mag = mag * 10 + d;
    }
    if (e == digits || (e < size && !is_blank(s[e]) && !is_eol(s[e]))) {
        for (e = b; e < size && !is_blank(s[e]) && !is_eol(s[e]); e++)
            if (s[e] >= 0x80)
                return text_fault(info, TEXT_NOT_ASCII, line, e, 0);
        return text_fault(info, TEXT_TOKEN, line, b, e - b);
    }
    if (e - digits > 18) {
        /* 19 digits or more may wrap: again, with |value| <= INT64_MAX +
         * negative checked digit by digit */
        const uint64_t cutoff = (uint64_t)INT64_MAX / 10;
        const uint64_t cutlim = (uint64_t)INT64_MAX % 10 + (uint64_t)negative;
        mag = 0;
        for (int64_t i = digits; i < e; i++) {
            const uint64_t d = (uint64_t)s[i] - '0';
            if (mag > cutoff || (mag == cutoff && d > cutlim))
                return text_fault(info, TEXT_RANGE, line, b, e - b);
            mag = mag * 10 + d;
        }
    }
    *pos = e;
    *value = negative && mag ? -(int64_t)(mag - 1) - 1 : (int64_t)mag;
    return 0;
}

/* Lines from s[p] on, a line start, that are neither blank nor comments. */
static int64_t content_lines(const uint8_t *s, int64_t size, int64_t p)
{
    int64_t count = 0;
    while (p < size) {
        while (p < size && is_blank(s[p]))
            p++;
        count += p < size && !is_eol(s[p]) && s[p] != '%';
        p = next_line(s, size, p);
    }
    return count;
}

typedef struct {
    const uint8_t *text;
    int64_t size, pos, line, n, node_weights, edge_weights;
    int64_t *low;     /* n + 1: node u's bucket of arcs v -> u, v < u */
    int64_t *line_of; /* n: each node's file line (count pass) */
    int64_t *info;
    /* the fill pass's arrays, NULL in the count pass */
    int64_t *vwgt, *rows, *cols, *wgts, *seen;
    uint64_t *from_low, *from_high;
    int64_t n_upper;
    /* the fill pass's culprit so far: node best lists other */
    int64_t best, other, kind;
    uint64_t sums[2];
} metis_body_t;

/* Node c lists o and the pair is not symmetric: keep the smallest (c, o). */
static void blame(metis_body_t *b, int64_t c, int64_t o, int64_t kind,
                  uint64_t here, uint64_t there)
{
    if (c < b->best || (c == b->best && o < b->other)) {
        b->best = c;
        b->other = o;
        b->kind = kind;
        b->sums[0] = here;
        b->sums[1] = there;
    }
}

/* One pass over the body.  The count pass records line_of and counts the
 * arcs v -> u with u > v, per u in low[u + 1].  The fill pass writes vwgt
 * and those arcs to rows/cols/wgts, bucketed by u (low[u] the cursor) and
 * in file order within a bucket, and checks the symmetry as it goes: when
 * node v's line starts, v's bucket holds every entry of a lower node for v
 * (from_low sums them per lower node), and the entries of v's line for
 * lower nodes are summed into from_high; seen[x] is v once x lists v and
 * v + n once v lists x too.  Each pair is settled on its higher node's
 * line. */
static int64_t walk_body(metis_body_t *b, int fill)
{
    const uint8_t *s = b->text;
    const int64_t size = b->size, n = b->n;
    const int64_t node_weights = b->node_weights, edge_weights = b->edge_weights;
    int64_t *low = b->low, *info = b->info, *seen = b->seen;
    uint64_t *from_low = b->from_low, *from_high = b->from_high;
    int64_t pos = b->pos, line = b->line, v = 0, up = 0;
    while (pos < size) {
        int64_t p = pos, st;
        while (p < size && is_blank(s[p]))
            p++;
        if (p < size && s[p] == '%') {
            for (; p < size && !is_eol(s[p]); p++)
                if (s[p] >= 0x80)
                    return text_fault(info, TEXT_NOT_ASCII, line, p, 0);
        } else if (v < n) {
            int64_t weight = 1, first = 0, last = 0;
            if (fill) {
                /* v's bucket is complete: its entries come from lower lines */
                first = v ? low[v - 1] : 0;
                last = low[v];
                if (first < 0 || last < first || last > b->n_upper)
                    return TEXT_ROOM;
                for (int64_t i = first; i < last; i++) {
                    const int64_t x = b->rows[i];
                    if (x < 0 || x >= v)
                        return TEXT_ROOM;
                    if (seen[x] != v) {
                        seen[x] = v;
                        from_low[x] = from_high[x] = 0;
                    }
                    from_low[x] += (uint64_t)b->wgts[i];
                }
            } else {
                b->line_of[v] = line;
            }
            if (node_weights) {
                if (p == size || is_eol(s[p]))
                    return text_fault(info, TEXT_NODE_WEIGHT, line, 0, 0);
                if ((st = read_token(s, size, &p, line, &weight, info)) < 0)
                    return st;
                if (weight < 0)
                    return text_fault(info, TEXT_NEGATIVE, line, weight, 0);
            }
            if (fill)
                b->vwgt[v] = weight;
            for (;;) {
                int64_t id, w = 1;
                while (p < size && is_blank(s[p]))
                    p++;
                if (p == size || is_eol(s[p]))
                    break;
                if ((st = read_token(s, size, &p, line, &id, info)) < 0)
                    return st;
                if (id < 1 || id > n)
                    return text_fault(info, TEXT_NEIGHBOUR, line, id, 0);
                if (edge_weights) {
                    while (p < size && is_blank(s[p]))
                        p++;
                    if (p == size || is_eol(s[p]))
                        return text_fault(info, TEXT_EDGE_WEIGHT, line, id, 0);
                    if ((st = read_token(s, size, &p, line, &w, info)) < 0)
                        return st;
                    if (w < 0)
                        return text_fault(info, TEXT_NEGATIVE, line, w, 1);
                }
                const int64_t u = id - 1;
                if (!fill) {
                    up += u > v;
                    low[u + 1] += u > v;
                } else if (u > v) {
                    const int64_t at = low[u]++;
                    if (at < 0 || at >= b->n_upper)
                        return TEXT_ROOM;
                    b->rows[at] = v;
                    b->cols[at] = u;
                    b->wgts[at] = w;
                    up++;
                } else if (u < v) {
                    if (seen[u] == v || seen[u] == v + n) {
                        seen[u] = v + n;
                        from_high[u] += (uint64_t)w;
                    } else {
                        blame(b, v, u, TEXT_ONE_SIDED, 0, 0);
                    }
                }
            }
            for (int64_t i = first; i < last; i++) {
                const int64_t x = b->rows[i];
                if (seen[x] != v + n)
                    blame(b, x, v, TEXT_ONE_SIDED, 0, 0);
                else if (from_low[x] != from_high[x])
                    blame(b, x, v, TEXT_WEIGHTS, from_low[x], from_high[x]);
            }
            v++;
        } else if (p < size && !is_eol(s[p])) {
            return text_fault(info, TEXT_LINES, line,
                              n + content_lines(s, size, pos), 0);
        }
        pos = next_line(s, size, p);
        line++;
    }
    if (v < n)
        return text_fault(info, TEXT_LINES, 0, v, 0);
    if (fill && up != b->n_upper)
        return TEXT_ROOM;
    b->n_upper = up;
    return 0;
}

/* low (n + 1, out): node u's bucket of arcs v -> u, v < u, is [low[u],
 * low[u + 1]); line_of (n, out); info (6, out).  Returns the number of such
 * arcs, or a fault. */
int64_t metis_count(const uint8_t *text, int64_t size, int64_t pos,
                    int64_t line, int64_t n, int64_t node_weights,
                    int64_t edge_weights, int64_t *low, int64_t *line_of,
                    int64_t *info)
{
    if (pos < 0 || pos > size || n < 0)
        return TEXT_ROOM;
    for (int64_t u = 0; u <= n; u++)
        low[u] = 0;
    metis_body_t b = {text, size, pos, line, n, node_weights, edge_weights,
                      low, line_of, info, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                      {0, 0}};
    const int64_t st = walk_body(&b, 0);
    if (st < 0)
        return st;
    for (int64_t u = 0; u < n; u++)
        low[u + 1] += low[u];
    return b.n_upper;
}

/* low and line_of as metis_count left them, n_upper what it returned; vwgt
 * (n) and rows/cols/wgts (n_upper) are filled; seen, from_low and from_high
 * are n-entry scratch.  The culprit of an asymmetric adjacency is the
 * smallest (node, neighbour) whose entry has no mirror, or whose pair
 * weighs differently both ways (the node being the lower end).  Returns 0
 * or a fault. */
int64_t metis_fill(const uint8_t *text, int64_t size, int64_t pos,
                   int64_t line, int64_t n, int64_t node_weights,
                   int64_t edge_weights, int64_t *low, int64_t *line_of,
                   int64_t n_upper, int64_t *vwgt, int64_t *rows,
                   int64_t *cols, int64_t *wgts, int64_t *seen,
                   uint64_t *from_low, uint64_t *from_high, int64_t *info)
{
    if (pos < 0 || pos > size || n < 0 || low[0] != 0 || low[n] != n_upper)
        return TEXT_ROOM;
    for (int64_t u = 0; u < n; u++)
        seen[u] = -1;
    metis_body_t b = {text, size, pos, line, n, node_weights, edge_weights,
                      low, line_of, info, vwgt, rows, cols, wgts, seen,
                      from_low, from_high, n_upper, n, n, 0, {0, 0}};
    const int64_t st = walk_body(&b, 1);
    /* the cursors advanced low[u] to low[u + 1]: shift them back */
    for (int64_t u = n; u > 0; u--)
        low[u] = low[u - 1];
    low[0] = 0;
    if (st < 0 || b.kind == 0)
        return st;
    info[0] = line_of[b.best];
    info[1] = b.best + 1;
    info[2] = b.other + 1;
    info[3] = line_of[b.other];
    info[4] = (int64_t)b.sums[0];
    info[5] = (int64_t)b.sums[1];
    return b.kind;
}
