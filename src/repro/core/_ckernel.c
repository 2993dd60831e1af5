/* Compiled delta-kernel for the discrepancy search (engine="compiled").
 *
 * A hand-written CPython extension that replicates, operation for
 * operation, the fast engine's delta kernel:
 *
 *   - repro/core/search.py      child_rule/root_state, _FastSearchRun._dfs,
 *                               _chain/_chain_per_node, _leaf,
 *                               _prune_child, _check_budget, with the
 *                               two-level fold of _index_strategy inlined
 *                               (the accumulator tuple is two doubles)
 *   - repro/core/profile.py     SearchProfile.place/unplace and
 *                               checkpoint/rollback (and the
 *                               place_run_fold fusion: the association-
 *                               order contract makes one fused scalar
 *                               place+fold loop bit-identical to both
 *                               Python chain paths)
 *   - repro/core/deltascore.py  the per-term arithmetic
 *                               wait = start - submit
 *                               e    = wait - omega   (added iff > 0)
 *                               s    = (wait + den) / den
 *
 * The pure-python engines remain the source of truth: this file holds
 * no semantics of its own, only a transcription.  Every float operation
 * below is a C double operation in the exact order the Python engines
 * perform it (CPython floats ARE C doubles), so results are
 * bit-identical — a contract enforced by the oracle fingerprints and
 * the Hypothesis engine-conformance fuzzer in tests/.
 *
 * Deliberately unsupported (the Python wrapper falls back to the fast
 * engine): custom evaluators and the runtime sanitizer (needs
 * per-mutation Python checks).
 *
 * Three shortcuts differ between the languages, all invisible in results:
 *
 *   - python has, and C omits, place_run_fold's suffix-min frontier: a
 *     pure scan shortcut over segments the plain walk rejects anyway.
 *     Ported into ck_chain it made a node slower, not faster: the packed
 *     prefix it skips is short, and the suffix minima cost a pass over
 *     every chain (61.7 against 57.4 ns a node on perfbench
 *     batch_L100k's recorded kernel calls, gcc 12 -O3 on 2 vCPUs;
 *     docs/performance.md, "The compiled chain rolls back once");
 *   - C has, and python omits, the chain memo (ck_memo_find): a chain
 *     whose path placed the same (job, start) pairs as an earlier one's,
 *     every one of them landing exactly, re-folds that chain's cached
 *     starts instead of placing them.  It skips half of the placements
 *     on batch_L100k's recorded calls (docs/performance.md, "Chains that
 *     repeat"); memory is per search and capped;
 *   - C has, and python omits, the subtree entries of the same memo
 *     (ck_memo_walked), under count_dominated: a DFS node with children
 *     whose state — the chain key plus the child-window state st — was
 *     walked to completion earlier in the search, from a partial (exc,
 *     slow) componentwise no greater than its own, is counted (ck_count),
 *     not walked.  That walk left every leaf below it no better than the
 *     incumbent, which only falls, and each level of the fold is monotone
 *     in its starting accumulator, so no leaf below this node can win
 *     (docs/performance.md, "Subtrees that repeat").
 *
 * Two shortcuts are shared with python, both invisible in results and
 * both under count_dominated (no job submitted after now):
 *
 *   - _count and place_run_fold's cut: both levels only grow along a
 *     path, so a subtree whose partial (exc, slow) is not below the
 *     incumbent is counted, not placed (docs/performance.md, "Counting
 *     what cannot win");
 *   - _wait_bound (ck_wait_bound): at a DFS node with children, the
 *     oldest unplaced job w cannot start before its earliest fit est_w on
 *     the partial profile (placing more only lowers it), and fl()
 *     subtraction and addition are monotone in each argument, so every
 *     leaf below has level 1 >= B = fl(exc + fl(fl(est_w - submit_w) -
 *     omega)) when that term is > 0, else exc.  B > cut_exc, strictly
 *     (a tie may still win on level 2), counts the subtree
 *     (docs/performance.md, "The longest-waiting job's bound").  Asked at
 *     chain entry as well it gained nothing, and asking the 2 or 4 oldest
 *     jobs was no better or slower, so neither is built.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CK_OK 0
#define CK_STOP 1 /* _StopSearch */
#define CK_ERR (-1)

typedef struct {
    Py_ssize_t si;
    Py_ssize_t ej;
    long nodes;
    unsigned char created_start;
    unsigned char created_end;
    /* The start or end snapped to a breakpoint of another value. */
    unsigned char inexact;
} UndoFrame;

/* A job in ck_wait_bound's order: submit time, then dense index. */
typedef struct {
    double submit;
    Py_ssize_t i;
} SubmitRank;

typedef struct {
    long long nodes_visited;
    double exc;
    double slow;
    Py_ssize_t d;
} AnyRec;

/* A memo entry (ck_memo_find): its key is the profile length m, the depth
 * d (0 marks an empty slot), the child-window state st (MEMO_CHAIN for a
 * chain) and the path's d DFS placements, words [at, at + 2d) of
 * memo_words.  A chain's first len starts follow them; a walked subtree's
 * partial (exc, slow) does, len 2. */
typedef struct {
    uint64_t hash;
    Py_ssize_t m;
    Py_ssize_t d;
    Py_ssize_t st;
    uint32_t at;
    uint32_t len;
} MemoSlot;

/* A memo word: the key's jobs, then their starts and the entry's. */
typedef union {
    Py_ssize_t job;
    double start;
} MemoWord;

typedef struct {
    /* One block holds every array below but `any` (ck_layout). */
    void *arena;

    /* profile: parallel breakpoint arrays, live length m */
    double *t;
    long *f;
    Py_ssize_t m;
    double eps;
    UndoFrame *undo;
    Py_ssize_t undo_n;
    double *ck_t; /* a chain's checkpoint of t[0..m) and f[0..m) */
    long *ck_f;

    /* job arrays (dense index) + linked remaining set */
    Py_ssize_t n;
    double *submit;
    double *rt;
    double *denom;
    long *jnodes;
    Py_ssize_t *nxt;
    Py_ssize_t *prv;
    Py_ssize_t head;
    /* ck_wait_bound's jobs by (submit, index), and which jobs the DFS
     * has placed (chains place no flag: neither the bound nor the memo
     * is asked inside one). */
    SubmitRank *by_submit;
    unsigned char *placed;
    double *jstart; /* a placed job's DFS start */

    /* The memo: the path's key (a commutative sum of ck_pair_hash over
     * its DFS placements) and count of inexact snaps, and a table
     * allocated at its first lookup (ck_memo_find). */
    uint64_t key;
    Py_ssize_t inexact;
    MemoSlot *memo;
    size_t memo_mask;
    size_t memo_used;
    MemoWord *memo_words;
    size_t memo_words_n;
    size_t memo_words_cap;
    int memo_off; /* allocation failed: the search runs without one */

    /* path / best */
    Py_ssize_t *path_i;
    double *path_s;
    Py_ssize_t *best_i;
    double *best_s;
    Py_ssize_t best_d;
    double b_exc;
    double b_slow;
    int best_valid;
    /* The incumbent if count_dominated, else +inf: see ck_count. */
    double cut_exc;
    double cut_slow;
    int count_dominated;

    /* search parameters */
    double now;
    double omega;
    long long node_limit; /* -1 == None */
    int prune;
    int lds;
    int record_anytime;

    /* counters */
    long long nodes_visited;
    long long leaves_evaluated;
    long long iterations_started;
    int limit_hit;
    int improved_after_first;

    /* anytime records */
    AnyRec *any;
    Py_ssize_t any_n;
    Py_ssize_t any_cap;
    int oom;
} Search;

/* ------------------------------------------------------------------ */
/* SearchProfile.earliest_fit: the earliest-fit scan alone.  Returns   */
/* the start and, in *seg, the segment holding it (t[*seg] <= start <  */
/* t[*seg + 1]).  Straight transcription of profile.py (earliest ==    */
/* s->now on every search call site).                                  */
/* ------------------------------------------------------------------ */
static inline double
ck_fit(const Search *s, long nodes, double duration, Py_ssize_t *seg)
{
    const double *t = s->t;
    const long *f = s->f;
    const Py_ssize_t m = s->m;
    const double eps = s->eps;

    double cand = s->now > t[0] ? s->now : t[0];
    Py_ssize_t i = 0;
    Py_ssize_t ni = 1;
    while (ni < m && t[ni] <= cand) {
        i = ni;
        ni++;
    }
    for (;;) {
        if (f[i] < nodes) {
            /* Skip ahead; the final segment always has capacity free. */
            i++;
            while (f[i] < nodes)
                i++;
            cand = t[i];
        }
        const double end_eps = (cand + duration) - eps;
        Py_ssize_t j = i + 1;
        Py_ssize_t blocked = 0;
        while (j < m && t[j] < end_eps) {
            if (f[j] < nodes) {
                blocked = j;
                break;
            }
            j++;
        }
        if (!blocked)
            break;
        i = blocked;
        cand = t[blocked];
    }
    *seg = i;
    return cand;
}

/* ------------------------------------------------------------------ */
/* SearchProfile.place: ck_fit + breakpoint commit + undo push         */
/* (`undo`: a chain's placements are rolled back by checkpoint and     */
/* push none; a DFS placement also counts an inexact snap, see         */
/* ck_memo_find).                                                      */
/* ------------------------------------------------------------------ */
static inline double
ck_place(Search *s, long nodes, double duration, const int undo)
{
    double *t = s->t;
    long *f = s->f;
    Py_ssize_t m = s->m;
    const double eps = s->eps;

    Py_ssize_t i;
    const double start = ck_fit(s, nodes, duration, &i);
    const double end = start + duration;

    /* start breakpoint (t[i] <= start < t[i+1] by the scan) */
    Py_ssize_t si;
    int created_start;
    int inexact = 0;
    if (start - t[i] <= eps) {
        si = i;
        created_start = 0;
        inexact = start != t[i];
    }
    else {
        si = i + 1;
        memmove(t + si + 1, t + si, (size_t)(m - si) * sizeof(double));
        memmove(f + si + 1, f + si, (size_t)(m - si) * sizeof(long));
        t[si] = start;
        f[si] = f[i];
        created_start = 1;
        m++;
    }

    /* end breakpoint: continue the walk from the start slot */
    Py_ssize_t j = si + 1;
    while (j < m && t[j] <= end)
        j++;
    j--;
    Py_ssize_t ej;
    int created_end;
    if (end - t[j] <= eps) {
        ej = j;
        created_end = 0;
        inexact |= end != t[j];
    }
    else {
        ej = j + 1;
        memmove(t + ej + 1, t + ej, (size_t)(m - ej) * sizeof(double));
        memmove(f + ej + 1, f + ej, (size_t)(m - ej) * sizeof(long));
        t[ej] = end;
        f[ej] = f[j];
        created_end = 1;
        m++;
    }

    for (Py_ssize_t k = si; k < ej; k++)
        f[k] -= nodes;
    s->m = m;

    if (undo) {
        UndoFrame *u = &s->undo[s->undo_n++];
        u->si = si;
        u->ej = ej;
        u->nodes = nodes;
        u->created_start = (unsigned char)created_start;
        u->created_end = (unsigned char)created_end;
        u->inexact = (unsigned char)inexact;
        s->inexact += inexact;
    }
    return start;
}

static void
ck_unplace(Search *s)
{
    UndoFrame *u = &s->undo[--s->undo_n];
    s->inexact -= u->inexact;
    double *t = s->t;
    long *f = s->f;
    for (Py_ssize_t k = u->si; k < u->ej; k++)
        f[k] += u->nodes;
    /* Delete the end breakpoint first so the start position stays valid. */
    if (u->created_end) {
        memmove(t + u->ej, t + u->ej + 1,
                (size_t)(s->m - u->ej - 1) * sizeof(double));
        memmove(f + u->ej, f + u->ej + 1,
                (size_t)(s->m - u->ej - 1) * sizeof(long));
        s->m--;
    }
    if (u->created_start) {
        memmove(t + u->si, t + u->si + 1,
                (size_t)(s->m - u->si - 1) * sizeof(double));
        memmove(f + u->si, f + u->si + 1,
                (size_t)(s->m - u->si - 1) * sizeof(long));
        s->m--;
    }
}

/* ------------------------------------------------------------------ */
/* Budget machinery (_check_budget, and _chain's batch clamp)          */
/* ------------------------------------------------------------------ */
static inline int
ck_check_budget(Search *s)
{
    if (s->leaves_evaluated == 0)
        return CK_OK; /* the heuristic schedule always completes */
    if (s->node_limit >= 0 && s->nodes_visited >= s->node_limit)
        return CK_STOP;
    return CK_OK;
}

static inline long long
ck_chain_allowance(Search *s, Py_ssize_t m)
{
    if (s->node_limit < 0)
        return m;
    if (s->leaves_evaluated == 0)
        return m;
    long long left = s->node_limit - s->nodes_visited;
    if (left >= (long long)m)
        return m;
    return left > 0 ? left : 0;
}

/* ------------------------------------------------------------------ */
/* Leaf evaluation and pruning (_leaf's tuple compare, on two doubles) */
/* ------------------------------------------------------------------ */
static int
ck_leaf(Search *s, double exc, double slow, Py_ssize_t d)
{
    s->leaves_evaluated++;
    if (s->best_valid) {
        if (exc > s->b_exc || (exc == s->b_exc && slow >= s->b_slow))
            return CK_OK;
        s->improved_after_first = 1;
    }
    s->best_valid = 1;
    s->b_exc = exc;
    s->b_slow = slow;
    if (s->count_dominated) {
        s->cut_exc = exc;
        s->cut_slow = slow;
    }
    s->best_d = d;
    memcpy(s->best_i, s->path_i, (size_t)d * sizeof(Py_ssize_t));
    memcpy(s->best_s, s->path_s, (size_t)d * sizeof(double));
    if (s->record_anytime) {
        if (s->any_n == s->any_cap) {
            Py_ssize_t cap = s->any_cap ? s->any_cap * 2 : 64;
            AnyRec *grown = realloc(s->any, (size_t)cap * sizeof(AnyRec));
            if (grown == NULL) {
                s->oom = 1;
                return CK_ERR;
            }
            s->any = grown;
            s->any_cap = cap;
        }
        AnyRec *rec = &s->any[s->any_n++];
        rec->nodes_visited = s->nodes_visited;
        rec->exc = exc;
        rec->slow = slow;
        rec->d = d;
    }
    return CK_OK;
}

static inline int
ck_prune_child(Search *s, double exc, double slow, Py_ssize_t left)
{
    if (!s->best_valid)
        return 0;
    if (exc > s->b_exc)
        return 1;
    if (exc < s->b_exc)
        return 0;
    return slow + (double)left >= s->b_slow;
}

/* ------------------------------------------------------------------ */
/* The chain memo.  A chain's starts are a function of the profile and */
/* of the remaining list, which is the heuristic order minus the placed */
/* set.  When every DFS placement on the path landed exactly (each      */
/* start and end made a breakpoint or met one of the same value), the   */
/* profile is the root's breakpoints plus those starts and ends, each   */
/* segment less the nodes of the jobs covering it, whatever the order   */
/* of placement: so the set of (job, start) pairs, with the profile     */
/* length and the depth, is an exact key (tests/test_profile_properties */
/* .py).  With one inexact snap on the path, the order can matter, and  */
/* such a path neither looks up nor stores.  The same key with the     */
/* child-window state st names a DFS node's subtree: its walk is the   */
/* same from any path to that state, up to the partial sums it starts  */
/* from (ck_memo_walked).                                              */
/* ------------------------------------------------------------------ */
#define MEMO_MIN_SLOTS 64
#define MEMO_MAX_SLOTS 8192
#define MEMO_MAX_WORDS 65536 /* 512 KB of keys and starts */
#define MEMO_CHAIN (-1)      /* st of a chain's entry: no DFS node has it */

static inline uint64_t
ck_mix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9u;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBu;
    return x ^ (x >> 31);
}

/* One DFS placement's share of the path key; ck_dfs adds it on place
 * and subtracts it on unplace. */
static inline uint64_t
ck_pair_hash(Py_ssize_t job, double start)
{
    uint64_t bits;
    memcpy(&bits, &start, sizeof(bits));
    return ck_mix(bits + (uint64_t)job * 0x9E3779B97F4A7C15u);
}

/* The table for this search, sized from what it can hold: a slot per 32
 * nodes of budget (a chain costs at least one), 256 when unlimited; it
 * grows by doubling to MEMO_MAX_SLOTS. */
static int
ck_memo_init(Search *s)
{
    size_t slots = 256;
    if (s->node_limit >= 0) {
        slots = MEMO_MIN_SLOTS;
        while (slots < MEMO_MAX_SLOTS && (long long)slots * 32 < s->node_limit)
            slots *= 2;
    }
    s->memo = calloc(slots, sizeof(MemoSlot));
    s->memo_words = malloc(slots * 8 * sizeof(MemoWord));
    if (s->memo == NULL || s->memo_words == NULL) {
        s->memo_off = 1;
        return -1;
    }
    s->memo_mask = slots - 1;
    s->memo_words_cap = slots * 8;
    return 0;
}

/* The slot of the chain (st == MEMO_CHAIN) or DFS node about to run at
 * depth d: its entry, or the empty slot a miss fills; NULL when the path
 * has under two DFS placements or an inexact snap, or the search has no
 * memo.  The slot is only good until the next store: storing can grow the
 * table, and a walk in progress stores. */
static MemoSlot *
ck_memo_find(Search *s, Py_ssize_t d, Py_ssize_t st, uint64_t *hash)
{
    if (d < 2 || s->inexact || s->memo_off)
        return NULL;
    if (s->memo == NULL && ck_memo_init(s) < 0)
        return NULL;
    const uint64_t h = ck_mix(s->key + (uint64_t)s->m * 0xD6E8FEB86659FD93u
                              + (uint64_t)st * 0x9E3779B97F4A7C15u
                              + (uint64_t)d);
    *hash = h;
    for (size_t k = h & s->memo_mask;; k = (k + 1) & s->memo_mask) {
        MemoSlot *e = &s->memo[k];
        if (e->d == 0)
            return e;
        if (e->hash != h || e->d != d || e->st != st || e->m != s->m)
            continue;
        /* The same d pairs: each stored job is placed at its start. */
        const MemoWord *w = s->memo_words + e->at;
        Py_ssize_t q = 0;
        while (q < d && s->placed[w[q].job]
               && s->jstart[w[q].job] == w[d + q].start)
            q++;
        if (q == d)
            return e;
    }
}

/* Double the table, re-placing slots by their stored hash alone. */
static int
ck_memo_grow(Search *s)
{
    const size_t slots = 2 * (s->memo_mask + 1);
    MemoSlot *grown = calloc(slots, sizeof(MemoSlot));
    if (grown == NULL)
        return -1;
    for (size_t k = 0; k <= s->memo_mask; k++) {
        if (s->memo[k].d == 0)
            continue;
        size_t at = s->memo[k].hash & (slots - 1);
        while (grown[at].d)
            at = (at + 1) & (slots - 1);
        grown[at] = s->memo[k];
    }
    free(s->memo);
    s->memo = grown;
    s->memo_mask = slots - 1;
    return 0;
}

/* Record in slot e (empty on a miss) the path's d pairs and the len
 * words of tail: the starts a placed chain got (a hit whose starts ran
 * out gets the longer list) or a walked subtree's partial sums.  A full
 * memo records nothing and keeps answering. */
static void
ck_memo_store(Search *s, MemoSlot *e, uint64_t h, Py_ssize_t d,
              Py_ssize_t st, const double *tail, Py_ssize_t len)
{
    const size_t slots = s->memo_mask + 1;
    if (e->d == 0 && 2 * (s->memo_used + 1) > slots)
        return;
    const size_t need = (size_t)(2 * d + len);
    if (s->memo_words_n + need > s->memo_words_cap) {
        size_t cap = 2 * s->memo_words_cap;
        while (cap < s->memo_words_n + need)
            cap *= 2;
        if (cap > MEMO_MAX_WORDS)
            return;
        MemoWord *grown = realloc(s->memo_words, cap * sizeof(MemoWord));
        if (grown == NULL)
            return;
        s->memo_words = grown;
        s->memo_words_cap = cap;
    }
    MemoWord *w = s->memo_words + s->memo_words_n;
    for (Py_ssize_t q = 0; q < d; q++) {
        w[q].job = s->path_i[q];
        w[d + q].start = s->path_s[q];
    }
    for (Py_ssize_t q = 0; q < len; q++)
        w[2 * d + q].start = tail[q];
    if (e->d == 0)
        s->memo_used++;
    e->hash = h;
    e->m = s->m;
    e->d = d;
    e->st = st;
    e->at = (uint32_t)s->memo_words_n;
    e->len = (uint32_t)len;
    s->memo_words_n += need;
    if (2 * s->memo_used >= slots && slots < MEMO_MAX_SLOTS)
        ck_memo_grow(s); /* on failure the table stops at this load */
}

/* A DFS node at depth d in window state st has walked all its children
 * from partial sums (exc, slow): record them, unless its entry already
 * holds a pair componentwise no greater (ck_dfs walked anyway because
 * this pair is not above it: it is lower, or the two are incomparable
 * and the first stays).  ck_dfs found slot k of hash h before the walk,
 * with the table at `mask`; the walk stored only entries deeper than d.
 * So unless the table grew, slot k still holds the node's entry or is
 * empty, or a deeper entry took it and the slot is found again. */
static void
ck_memo_walked(Search *s, size_t k, size_t mask, uint64_t h, Py_ssize_t d,
               Py_ssize_t st, double exc, double slow)
{
    MemoSlot *e = &s->memo[k];
    if (mask != s->memo_mask || (e->d != 0 && e->d != d))
        e = ck_memo_find(s, d, st, &h);
    const double acc[2] = {exc, slow};
    if (e->d == 0) {
        ck_memo_store(s, e, h, d, st, acc, 2);
        return;
    }
    MemoWord *w = s->memo_words + e->at + 2 * d;
    if (exc <= w[0].start && slow <= w[1].start) {
        w[0].start = exc;
        w[1].start = slow;
    }
}

/* ------------------------------------------------------------------ */
/* Heuristic-completion chain: _chain and _chain_per_node in one loop, */
/* under their checkpoint()/rollback() bracket: t[0..m) and f[0..m)    */
/* are copied once on entry, placements push no undo frames, and every */
/* exit — the leaf, a prune mid-chain, a budget stop under prune —     */
/* restores them with one copy each.  Chains never nest, so one        */
/* checkpoint buffer pair per search suffices.  No leaf lands inside a */
/* chain, so _chain_per_node's per-step budget check is the allowance  */
/* computed up front; only pruning and the cut test every step (at the */
/* first step not below the cut the rest of the chain and its leaf are */
/* counted: count_dominated implies !prune, so k == m there).  A chain */
/* the memo knows folds its cached starts the same way, with no        */
/* placement and no checkpoint; if they run out before it stops, it    */
/* starts over as a placed chain and caches the longer list.           */
/* ------------------------------------------------------------------ */
static int
ck_chain(Search *s, Py_ssize_t m, double exc, double slow, Py_ssize_t d)
{
    const long long k = ck_chain_allowance(s, m);
    if (k < (long long)m && !s->prune) {
        /* Truncated chain: placements would be rolled back unread, so
         * only the node accounting is observable.  Commit it and stop. */
        s->nodes_visited += k;
        return CK_STOP;
    }
    const Py_ssize_t m0 = s->m;
    uint64_t h = 0;
    MemoSlot *slot = m > 0 ? ck_memo_find(s, d, MEMO_CHAIN, &h) : NULL;
    const double *cached =
        slot && slot->d ? &s->memo_words[slot->at + 2 * d].start : NULL;
    const Py_ssize_t have = cached ? (Py_ssize_t)slot->len : 0;
    const double exc0 = exc;
    const double slow0 = slow;
    const long long nodes0 = s->nodes_visited;
    /* Walk the list (no unlink — a chain never branches), place + fold
     * fused in one scalar loop.  Bit-identical to both Python paths by
     * the association-order contract. */
    const int prune = s->prune;
    const double cut_exc = s->cut_exc;
    const double cut_slow = s->cut_slow;
    const Py_ssize_t end = d + m;
    const Py_ssize_t stop = d + (Py_ssize_t)k;
    Py_ssize_t i, p;
    int rc;
from_start:
    if (cached == NULL) {
        memcpy(s->ck_t, s->t, (size_t)m0 * sizeof(double));
        memcpy(s->ck_f, s->f, (size_t)m0 * sizeof(long));
    }
    i = s->head;
    p = d;
    rc = CK_STOP; /* what a budget-truncated chain returns */
    while (p < stop) {
        i = s->nxt[i];
        s->nodes_visited++;
        double start;
        if (cached == NULL)
            start = ck_place(s, s->jnodes[i], s->rt[i], 0);
        else if (p - d < have)
            start = cached[p - d];
        else { /* the cached starts ran out */
            cached = NULL;
            exc = exc0;
            slow = slow0;
            s->nodes_visited = nodes0;
            goto from_start;
        }
        s->path_i[p] = i;
        s->path_s[p] = start;
        double wait = start - s->submit[i];
        double e = wait - s->omega;
        if (e > 0.0)
            exc += e;
        double den = s->denom[i];
        slow += (wait + den) / den;
        p++;
        if (exc >= cut_exc && (exc > cut_exc || slow >= cut_slow)) {
            s->nodes_visited += end - p;
            s->leaves_evaluated++;
            rc = CK_OK;
            goto done;
        }
        if (prune && ck_prune_child(s, exc, slow, end - p)) {
            rc = CK_OK; /* pruned mid-chain: plain return in Python */
            goto done;
        }
    }
    if (stop == end)
        rc = ck_leaf(s, exc, slow, end);
done:
    if (cached == NULL) {
        memcpy(s->t, s->ck_t, (size_t)m0 * sizeof(double));
        memcpy(s->f, s->ck_f, (size_t)m0 * sizeof(long));
        s->m = m0;
        if (slot != NULL)
            ck_memo_store(s, slot, h, d, MEMO_CHAIN, s->path_s + d, p - d);
    }
    return rc;
}

/* ------------------------------------------------------------------ */
/* child_rule() of repro/core/search.py (its oracle: tests/           */
/* test_search_rule.py): 1 when only the chain remains, else the       */
/* window [*lo, m) and rank 0's state *st0 (other ranks get st - 1).   */
/* `lds` is constant at every call site: a register, not s->lds.       */
/* ------------------------------------------------------------------ */
static inline int
ck_rule(const int lds, Py_ssize_t m, Py_ssize_t st, Py_ssize_t *lo,
        Py_ssize_t *st0)
{
    if (lds) {
        if (st == 0)
            return 1; /* no discrepancies left */
        const Py_ssize_t cap = m > 2 ? m - 2 : 0;
        *lo = st <= cap ? 0 : st == cap + 1 ? 1 : m;
        *st0 = st; /* the heuristic child keeps the whole budget */
        return 0;
    }
    if (st < 0)
        return 1; /* below the discrepancy level */
    *lo = st > 0 ? 0 : 1; /* st == 0: the forced discrepancy */
    *st0 = st - 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* A subtree that cannot win (_count): ck_dfs's walk with no list,     */
/* profile or fold — its budget checks, ck_chain's allowance, a leaf   */
/* per full chain.                                                     */
/* ------------------------------------------------------------------ */
static int
ck_count(Search *s, const int lds, Py_ssize_t m, Py_ssize_t st)
{
    Py_ssize_t lo, st0;
    if (ck_rule(lds, m, st, &lo, &st0)) {
        const long long k = ck_chain_allowance(s, m);
        s->nodes_visited += k;
        if (k < (long long)m)
            return CK_STOP;
        s->leaves_evaluated++;
        return CK_OK;
    }
    for (Py_ssize_t rank = lo; rank < m; rank++) {
        if (ck_check_budget(s))
            return CK_STOP;
        s->nodes_visited++;
        int rc = ck_count(s, lds, m - 1, rank ? st - 1 : st0);
        if (rc)
            return rc;
    }
    return CK_OK;
}

/* ------------------------------------------------------------------ */
/* _wait_bound: a lower bound on level 1 of every leaf below a DFS     */
/* node with partial level 1 `exc`.  The oldest unplaced job w cannot  */
/* start before its earliest fit on the current profile, which only    */
/* loses capacity further down; every fl() step of its term and of the */
/* sum is monotone in each argument (the header's shared shortcuts).   */
/* ------------------------------------------------------------------ */
static inline double
ck_wait_bound(const Search *s, double exc)
{
    const SubmitRank *w = s->by_submit;
    while (s->placed[w->i])
        w++;
    Py_ssize_t seg;
    const double est = ck_fit(s, s->jnodes[w->i], s->rt[w->i], &seg);
    const double e = (est - w->submit) - s->omega;
    return e > 0.0 ? exc + e : exc;
}

/* ------------------------------------------------------------------ */
/* The DFS proper (_dfs): a node not below the cut is counted, and so  */
/* is a node with children whose wait bound is above the cut, or whose */
/* state the memo holds as walked from partial sums no greater than    */
/* its own (the header's third shortcut; both under count_dominated).  */
/* ------------------------------------------------------------------ */
static int
ck_dfs(Search *s, const int lds, Py_ssize_t m, Py_ssize_t st, double exc,
       double slow, Py_ssize_t d)
{
    if (exc >= s->cut_exc && (exc > s->cut_exc || slow >= s->cut_slow))
        return ck_count(s, lds, m, st);
    Py_ssize_t lo, st0;
    if (ck_rule(lds, m, st, &lo, &st0))
        return ck_chain(s, m, exc, slow, d);
    /* The memo slot of a walk to record, and the table's mask then: a
     * slot index, not a pointer, for the walk can grow the table. */
    size_t memo_k = SIZE_MAX;
    size_t memo_mask = 0;
    uint64_t h = 0;
    if (s->count_dominated && lo < m) {
        if (ck_wait_bound(s, exc) > s->cut_exc)
            return ck_count(s, lds, m, st);
        const MemoSlot *e = ck_memo_find(s, d, st, &h);
        if (e != NULL) {
            if (e->d != 0) {
                const MemoWord *w = s->memo_words + e->at + 2 * d;
                if (exc >= w[0].start && slow >= w[1].start)
                    return ck_count(s, lds, m, st);
            }
            memo_k = (size_t)(e - s->memo);
            memo_mask = s->memo_mask;
        }
    }
    Py_ssize_t *nxt = s->nxt;
    Py_ssize_t *prv = s->prv;
    unsigned char *placed = s->placed;
    Py_ssize_t i = nxt[s->head];
    for (Py_ssize_t q = 0; q < lo; q++)
        i = nxt[i];
    for (Py_ssize_t rank = lo; rank < m; rank++) {
        if (ck_check_budget(s))
            return CK_STOP;
        Py_ssize_t pi = prv[i];
        Py_ssize_t ni = nxt[i];
        nxt[pi] = ni;
        prv[ni] = pi;
        placed[i] = 1;
        s->nodes_visited++;
        double start = ck_place(s, s->jnodes[i], s->rt[i], 1);
        s->path_i[d] = i;
        s->path_s[d] = start;
        s->jstart[i] = start;
        const uint64_t pair = ck_pair_hash(i, start);
        s->key += pair;
        double wait = start - s->submit[i];
        double e = wait - s->omega;
        double nexc = e > 0.0 ? exc + e : exc;
        double den = s->denom[i];
        double nslow = slow + (wait + den) / den;
        int rc = CK_OK;
        if (!s->prune || !ck_prune_child(s, nexc, nslow, m - 1))
            rc = ck_dfs(s, lds, m - 1, rank ? st - 1 : st0, nexc, nslow,
                        d + 1);
        ck_unplace(s);
        s->key -= pair;
        placed[i] = 0;
        nxt[pi] = i;
        prv[ni] = i;
        if (rc)
            return rc;
        i = ni;
    }
    if (memo_k != SIZE_MAX)
        ck_memo_walked(s, memo_k, memo_mask, h, d, st, exc, slow);
    return CK_OK;
}

/* ------------------------------------------------------------------ */
/* Driver: the full run (_SearchRunBase.run; root_state() inline)      */
/* ------------------------------------------------------------------ */
static int
ck_run_full(Search *s)
{
    Py_ssize_t n = s->n;
    Py_ssize_t max_disc = n > 1 ? n - 1 : 0; /* max_discrepancies(n) */
    for (Py_ssize_t it = 0; it <= max_disc; it++) {
        s->iterations_started++;
        int rc = s->lds ? ck_dfs(s, 1, n, it, 0.0, 0.0, 0)
                        : ck_dfs(s, 0, n, it - 1, 0.0, 0.0, 0);
        if (rc == CK_ERR)
            return CK_ERR;
        if (rc == CK_STOP) {
            s->limit_hit = 1;
            break;
        }
    }
    return CK_OK;
}

/* ------------------------------------------------------------------ */
/* Python boundary: argument unpacking, arena allocation, result build */
/* ------------------------------------------------------------------ */
static void
ck_free(Search *s)
{
    free(s->arena);
    free(s->any);
    free(s->memo);
    free(s->memo_words);
    memset(s, 0, sizeof(*s));
}

/* Copy the first len numbers of a Python list into out[]. */
static int
ck_doubles_into(double *out, PyObject *seq, Py_ssize_t len)
{
    for (Py_ssize_t k = 0; k < len; k++) {
        out[k] = PyFloat_AsDouble(PyList_GET_ITEM(seq, k));
        if (out[k] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static int
ck_longs_into(long *out, PyObject *seq, Py_ssize_t len)
{
    for (Py_ssize_t k = 0; k < len; k++) {
        out[k] = PyLong_AsLong(PyList_GET_ITEM(seq, k));
        if (out[k] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The next `count` items of `size` bytes at *at in the block `base`
 * (NULL while sizing it); every slice starts max-aligned. */
static void *
ck_carve(char *base, size_t *at, size_t count, size_t size)
{
    const size_t align = _Alignof(max_align_t);
    void *slice = base ? base + *at : NULL;
    *at += (count * size + align - 1) / align * align;
    return slice;
}

/* Point the per-search arrays into one block at `base`, or only size it
 * (base == NULL); returns its size in bytes. */
static size_t
ck_layout(Search *s, char *base, size_t cap_m, size_t n)
{
    const size_t n1 = n > 0 ? n : 1;
    size_t at = 0;
    s->t = ck_carve(base, &at, cap_m, sizeof(double));
    s->f = ck_carve(base, &at, cap_m, sizeof(long));
    s->ck_t = ck_carve(base, &at, cap_m, sizeof(double));
    s->ck_f = ck_carve(base, &at, cap_m, sizeof(long));
    s->undo = ck_carve(base, &at, n + 8, sizeof(UndoFrame));
    s->submit = ck_carve(base, &at, n1, sizeof(double));
    s->jnodes = ck_carve(base, &at, n1, sizeof(long));
    s->rt = ck_carve(base, &at, n1, sizeof(double));
    s->denom = ck_carve(base, &at, n1, sizeof(double));
    s->nxt = ck_carve(base, &at, n + 1, sizeof(Py_ssize_t));
    s->prv = ck_carve(base, &at, n + 1, sizeof(Py_ssize_t));
    s->path_i = ck_carve(base, &at, n1, sizeof(Py_ssize_t));
    s->path_s = ck_carve(base, &at, n1, sizeof(double));
    s->best_i = ck_carve(base, &at, n1, sizeof(Py_ssize_t));
    s->best_s = ck_carve(base, &at, n1, sizeof(double));
    s->by_submit = ck_carve(base, &at, n1, sizeof(SubmitRank));
    s->placed = ck_carve(base, &at, n1, sizeof(unsigned char));
    s->jstart = ck_carve(base, &at, n1, sizeof(double));
    return at;
}

static int
ck_submit_order(const void *a, const void *b)
{
    const SubmitRank *x = a, *y = b;
    if (x->submit != y->submit)
        return x->submit < y->submit ? -1 : 1;
    return (x->i > y->i) - (x->i < y->i);
}

static int
ck_init(Search *s, int lds, long long node_limit, int prune,
        int record_anytime, double eps,
        PyObject *times, PyObject *frees, PyObject *submit, PyObject *jnodes,
        PyObject *runtime, PyObject *denom, double now, double omega)
{
    memset(s, 0, sizeof(*s));
    if (!PyList_Check(times) || !PyList_Check(frees) || !PyList_Check(submit)
        || !PyList_Check(jnodes) || !PyList_Check(runtime)
        || !PyList_Check(denom)) {
        PyErr_SetString(PyExc_TypeError, "profile/job arrays must be lists");
        return -1;
    }
    const Py_ssize_t m0 = PyList_GET_SIZE(times);
    const Py_ssize_t n = PyList_GET_SIZE(submit);
    if (m0 == 0 || m0 != PyList_GET_SIZE(frees) || PyList_GET_SIZE(jnodes) != n
        || PyList_GET_SIZE(runtime) != n || PyList_GET_SIZE(denom) != n) {
        PyErr_SetString(PyExc_ValueError, "malformed profile/job arrays");
        return -1;
    }
    /* Each of the <= n outstanding placements inserts <= 2 breakpoints. */
    const size_t cap_m = (size_t)(m0 + 2 * n + 8);
    s->arena = malloc(ck_layout(s, NULL, cap_m, (size_t)n));
    if (s->arena == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    ck_layout(s, s->arena, cap_m, (size_t)n);
    if (ck_doubles_into(s->t, times, m0) < 0
        || ck_longs_into(s->f, frees, m0) < 0
        || ck_doubles_into(s->submit, submit, n) < 0
        || ck_longs_into(s->jnodes, jnodes, n) < 0
        || ck_doubles_into(s->rt, runtime, n) < 0
        || ck_doubles_into(s->denom, denom, n) < 0) {
        ck_free(s);
        return -1;
    }
    s->m = m0;
    s->n = n;
    s->head = n;
    /* _nxt = [1..n, 0], _prv = [n, 0..n-1]: jobs threaded in heuristic
     * order through sentinel n (self-loops when n == 0). */
    for (Py_ssize_t k = 0; k < n; k++) {
        s->nxt[k] = k + 1;
        s->prv[k] = k == 0 ? n : k - 1;
    }
    s->nxt[n] = n > 0 ? 0 : n;
    s->prv[n] = n > 0 ? n - 1 : n;
    s->eps = eps;
    s->now = now;
    s->omega = omega;
    s->node_limit = node_limit;
    s->prune = prune;
    s->lds = lds;
    s->record_anytime = record_anytime;
    s->best_d = 0;
    /* Exact when every wait is >= 0 (starts are >= now); under prune its
     * bound cuts first anyway.  Otherwise the cut stays +inf. */
    s->count_dominated = !prune;
    for (Py_ssize_t k = 0; k < n && s->count_dominated; k++)
        s->count_dominated = s->submit[k] <= now;
    if (s->count_dominated) {
        for (Py_ssize_t k = 0; k < n; k++) {
            s->by_submit[k].submit = s->submit[k];
            s->by_submit[k].i = k;
        }
        qsort(s->by_submit, (size_t)n, sizeof(SubmitRank), ck_submit_order);
    }
    memset(s->placed, 0, (size_t)n);
    s->cut_exc = INFINITY;
    s->cut_slow = INFINITY;
    return 0;
}

static PyObject *
ck_anytime_list(const Search *s)
{
    if (!s->record_anytime)
        Py_RETURN_NONE;
    PyObject *out = PyList_New(s->any_n);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < s->any_n; k++) {
        const AnyRec *rec = &s->any[k];
        PyObject *item = Py_BuildValue(
            "Lddn", rec->nodes_visited, rec->exc, rec->slow, rec->d);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k, item);
    }
    return out;
}

static int
ck_best_lists(const Search *s, PyObject **idx_out, PyObject **starts_out)
{
    PyObject *idxs = PyList_New(s->best_d);
    PyObject *starts = idxs ? PyList_New(s->best_d) : NULL;
    if (starts == NULL) {
        Py_XDECREF(idxs);
        return -1;
    }
    for (Py_ssize_t k = 0; k < s->best_d; k++) {
        PyObject *iv = PyLong_FromSsize_t(s->best_i[k]);
        PyObject *sv = iv ? PyFloat_FromDouble(s->best_s[k]) : NULL;
        if (sv == NULL) {
            Py_XDECREF(iv);
            Py_DECREF(idxs);
            Py_DECREF(starts);
            return -1;
        }
        PyList_SET_ITEM(idxs, k, iv);
        PyList_SET_ITEM(starts, k, sv);
    }
    *idx_out = idxs;
    *starts_out = starts;
    return 0;
}

static PyObject *
ck_run_search_py(PyObject *Py_UNUSED(self), PyObject *args)
{
    int lds, prune, record_anytime;
    long long node_limit;
    double eps, now, omega;
    PyObject *times, *frees, *submit, *jnodes, *runtime, *denom;
    if (!PyArg_ParseTuple(args, "iLiidOOOOOOdd", &lds, &node_limit, &prune,
                          &record_anytime, &eps, &times, &frees, &submit,
                          &jnodes, &runtime, &denom, &now, &omega))
        return NULL;
    Search s;
    if (ck_init(&s, lds, node_limit, prune, record_anytime, eps, times, frees,
                submit, jnodes, runtime, denom, now, omega) < 0)
        return NULL;
    int rc;
    Py_BEGIN_ALLOW_THREADS
    rc = ck_run_full(&s);
    Py_END_ALLOW_THREADS
    if (rc == CK_ERR || !s.best_valid) {
        int oom = s.oom;
        ck_free(&s);
        if (oom)
            return PyErr_NoMemory();
        PyErr_SetString(PyExc_RuntimeError, "compiled search failed");
        return NULL;
    }
    PyObject *idxs = NULL, *starts = NULL;
    if (ck_best_lists(&s, &idxs, &starts) < 0) {
        ck_free(&s);
        return NULL;
    }
    PyObject *anytime = ck_anytime_list(&s);
    if (anytime == NULL) {
        Py_DECREF(idxs);
        Py_DECREF(starts);
        ck_free(&s);
        return NULL;
    }
    PyObject *result = Py_BuildValue(
        "ddnNNLLLiiN", s.b_exc, s.b_slow, s.best_d, idxs, starts,
        s.nodes_visited, s.leaves_evaluated, s.iterations_started,
        s.limit_hit, s.improved_after_first, anytime);
    ck_free(&s);
    return result;
}

static PyMethodDef ck_methods[] = {
    {"run_search", ck_run_search_py, METH_VARARGS,
     "Full delta-kernel search; mirrors _FastSearchRun.run() bit-for-bit.\n"
     "(lds, node_limit, prune, record_anytime, eps, times, frees, submit,\n"
     " nodes, runtime, denom, now, omega) ->\n"
     "(best_exc, best_slow, best_d, best_idx, best_starts, nodes_visited,\n"
     " leaves_evaluated, iterations_started, limit_hit,\n"
     " improved_after_first, anytime|None)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ck_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._ckernel",
    "Compiled discrepancy-search kernel (see repro.core.ckernel).",
    -1,
    ck_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    return PyModule_Create(&ck_module);
}
