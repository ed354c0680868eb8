/* Compiled kernels of the batched timing engine (repro.sim.fastpath).
 *
 * Three entry points, each reading a trace's page runs through the one
 * shared run -> page index (the skeleton's `uidx`) plus a page-scale table,
 * so no caller gathers a per-run column first:
 *
 *   repro_lru_sim       exact set-associative LRU replay of a key stream
 *                       (TLB regions, bitmap-cache words): key of run i is
 *                       key_of[idx[i]], after a warm-resident prime prefix;
 *   repro_lru_sim_walk  the same replay over an indirect walk-block stream
 *                       (walk caches): run i touches its page's block
 *                       slice; per-walk misses fold into a histogram;
 *   repro_row_hits      DRAM open-row accounting over a page stream.
 *
 * The LRU replay is the algorithm the simulator's Python structures
 * implement with insertion-ordered dicts (hit = move to MRU, miss = evict
 * the LRU entry when the set is full), restated with O(1) doubly-linked
 * recency lists so a multi-million access stream replays in milliseconds.
 * repro_row_hits has a bit-identical numpy fallback in repro.hw.dram.
 *
 * Compiled on demand by repro.sim._native (cc -O3 -shared -fPIC); without
 * a compiler every batch runs on the simulator's scalar loops.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Recency lists of nsets LRU sets over k keys. */
typedef struct {
    int32_t *nxt, *prv, *head, *tail, *size;
    uint8_t *present;
    const int32_t *set_of;
    int32_t ways;
} lru_t;

static void lru_free(lru_t *t)
{
    free(t->nxt); free(t->prv); free(t->present);
    free(t->head); free(t->tail); free(t->size);
}

static int lru_init(lru_t *t, int32_t k, int32_t nsets, int32_t ways,
                    const int32_t *set_of)
{
    t->nxt = malloc(sizeof(int32_t) * (size_t)(k ? k : 1));
    t->prv = malloc(sizeof(int32_t) * (size_t)(k ? k : 1));
    t->present = calloc((size_t)(k ? k : 1), 1);
    t->head = malloc(sizeof(int32_t) * (size_t)nsets);
    t->tail = malloc(sizeof(int32_t) * (size_t)nsets);
    t->size = calloc((size_t)nsets, sizeof(int32_t));
    t->set_of = set_of;
    t->ways = ways;
    if (!t->nxt || !t->prv || !t->present || !t->head || !t->tail
            || !t->size) {
        lru_free(t);
        return 1;
    }
    for (int32_t s = 0; s < nsets; s++) {
        t->head[s] = -1;
        t->tail[s] = -1;
    }
    return 0;
}

/* Touch key id; returns 1 on a miss (the key is filled at MRU). */
static inline int lru_touch(lru_t *t, int32_t id)
{
    int32_t s = t->set_of ? t->set_of[id] : 0;
    int32_t *nxt = t->nxt, *prv = t->prv, *head = t->head, *tail = t->tail;
    if (t->present[id]) {
        if (head[s] != id) {                    /* unlink, push to MRU */
            int32_t p = prv[id], n = nxt[id];
            nxt[p] = n;
            if (n >= 0) prv[n] = p; else tail[s] = p;
            prv[id] = -1;
            nxt[id] = head[s];
            prv[head[s]] = id;
            head[s] = id;
        }
        return 0;
    }
    if (t->size[s] == t->ways) {                /* evict the LRU entry */
        int32_t v = tail[s];
        int32_t p = prv[v];
        t->present[v] = 0;
        tail[s] = p;
        if (p >= 0) nxt[p] = -1; else head[s] = -1;
        t->size[s]--;
    }
    t->present[id] = 1;                         /* insert at MRU */
    prv[id] = -1;
    nxt[id] = head[s];
    if (head[s] >= 0) prv[head[s]] = id; else tail[s] = id;
    head[s] = id;
    t->size[s]++;
    return 1;
}

/* Key stream: position p < prime touches prime_ids[p]; position
 * prime + i touches key_of[idx[i]], skipped (miss 0, nothing recorded)
 * when that key is negative.
 *
 * idx:       m page indices, chronological order
 * key_of:    per-page key id in 0..k-1, or -1 for pages the structure
 *            never sees
 * prime_ids: prime warm-resident key ids, LRU-to-MRU within each set
 * set_of:    per-key set id in 0..nsets-1, or NULL when nsets == 1
 * miss:      out, prime + m bytes, 1 where the access missed
 * counts:    out, k occurrence counts
 * last_occ:  out, k last-touch stream positions, -1 when never seen
 * last_fill: out, k last-miss stream positions, -1 when never filled
 * returns 0 on success, 1 on allocation failure
 */
int repro_lru_sim(const int32_t *idx, int64_t m, const int32_t *key_of,
                  const int32_t *prime_ids, int64_t prime, int32_t k,
                  int32_t nsets, int32_t ways, const int32_t *set_of,
                  uint8_t *miss, int64_t *counts,
                  int64_t *last_occ, int64_t *last_fill)
{
    lru_t t;
    if (lru_init(&t, k, nsets, ways, set_of))
        return 1;
    for (int64_t p = 0; p < prime + m; p++) {
        int32_t id = p < prime ? prime_ids[p] : key_of[idx[p - prime]];
        if (id < 0) {
            miss[p] = 0;
            continue;
        }
        counts[id]++;
        last_occ[id] = p;
        miss[p] = (uint8_t)lru_touch(&t, id);
        if (miss[p])
            last_fill[id] = p;
    }
    lru_free(&t);
    return 0;
}

/* The replay over an *indirect* walk-block stream.  The prime prefix
 * touches pseudo pages npages .. npages+prime-1 (one warm block each);
 * then every run i with sel[i] set (all runs when sel is NULL) walks
 * page idx[i], touching the id slice flat_ids[block_off[page] ..
 * block_off[page + 1]) in order.  The expanded stream is never
 * materialized.  last_occ / last_fill positions are in expanded-stream
 * coordinates, exactly as if the caller had flattened the stream first.
 *
 * Each real walk counts once in walks_of[page] and once in
 * hist[(fixed[page] + misses) * 2 + w]: its walk memory (the page's
 * fixed, uncached fetches plus its cache misses) and w = (wflag[i] != 0)
 * (0 when wflag is NULL), so callers read every walk total off these
 * two page-scale arrays instead of a per-walk column.
 * returns 0 on success, 1 on allocation failure
 */
int repro_lru_sim_walk(const int32_t *idx, int64_t m, const uint8_t *sel,
                       const int64_t *wflag, int64_t prime, int32_t npages,
                       const int32_t *block_off, const int32_t *flat_ids,
                       const int32_t *fixed, int32_t k, int32_t nsets,
                       int32_t ways, const int32_t *set_of,
                       int64_t *walks_of, int64_t *hist, int64_t *counts,
                       int64_t *last_occ, int64_t *last_fill)
{
    lru_t t;
    if (lru_init(&t, k, nsets, ways, set_of))
        return 1;
    int64_t pos = 0;
    for (int64_t e = -prime; e < m; e++) {
        int32_t page;
        if (e < 0)
            page = npages + (int32_t)(e + prime);
        else if (sel && !sel[e])
            continue;
        else
            page = idx[e];
        int32_t misses = 0;
        for (int32_t j = block_off[page]; j < block_off[page + 1]; j++) {
            int32_t id = flat_ids[j];
            counts[id]++;
            last_occ[id] = pos;
            if (lru_touch(&t, id)) {
                misses++;
                last_fill[id] = pos;
            }
            pos++;
        }
        if (e >= 0) {
            walks_of[page]++;
            hist[((int64_t)fixed[page] + misses) * 2
                 + (wflag && wflag[e] != 0)]++;
        }
    }
    lru_free(&t);
    return 0;
}

/* DRAM open-row accounting over a 4 KB page stream: bank = low 4 page
 * bits, row = remaining high bits, one open row per bank.  An access
 * hits iff its row equals the bank's open row; a miss opens its row.
 * Access i is page pages[idx[i]] (pages[i] when idx is NULL).
 * last_rows carries the 16-bank open-row state in and out, so a stream
 * split over several calls accounts identically to one pass.  Returns
 * the number of row hits.
 */
int64_t repro_row_hits(const int64_t *pages, const int32_t *idx, int64_t n,
                       int64_t *last_rows)
{
    int64_t hits = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t page = idx ? pages[idx[i]] : pages[i];
        int bank = (int)(page & 15);
        int64_t row = page >> 4;
        if (last_rows[bank] == row)
            hits++;
        else
            last_rows[bank] = row;
    }
    return hits;
}
