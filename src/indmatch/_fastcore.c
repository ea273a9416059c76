/* Native kernel of the multi-way partition enumerator.

   A one-to-one transliteration of the pure-Python engine in
   indmatch/enumerate.py onto flat C arrays: the same adjacency
   construction, the same degree-bucket tie-breaking, the same
   classification and removal order, so both backends produce identical
   solution streams and identical counters.  The engine is correct on
   every graph; C4-freeness only bounds its cost per solution.
   Structural assertion checks stay in the Python engine; this module
   only enumerates and counts.

   Entry points:
   - run(n, eu, ev, alive_mask, cutoff, emit, labels=None) -> dict, the
     enumeration.  One set-up (run_init) checks the edges, links the
     live ones into per-vertex lists and allocates the engine's arrays;
     only the frame arena grows on use.  With vertex
     labels given, it also renders each solution's canonical line
     (indmatch/edgelist.py: solution_line) into a byte buffer and hands
     the buffer to a Python writer once per chunk (lines_init).
   - parse(text) -> (labels, eu, ev) or None, the edge-list parser of
     indmatch/edgelist.py: parse_edge_list, with its own state.

   Built by setup.py; in a development checkout run
   `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_BUFS 48
/* output chunk size of line mode */
#define CHUNK (64 * 1024)
/* iterations between two checks for a pending signal (Ctrl-C) */
#define SIGNAL_TICK 0xFFFF
/* for the callees of rec_c4free that run once per solution, push or d2
   edge: inlined, they would enlarge its stack frame, which every
   recursion level pays */
#if defined(__GNUC__)
#define OUT_OF_LINE __attribute__((noinline))
#else
#define OUT_OF_LINE
#endif

typedef struct {
    /* graph: linked live edges, degrees, epoch-guarded marks */
    int n, m, cap;
    int *eu, *ev, *head, *nxt, *prv, *deg;
    long long live;
    int *vmark, *emark;
    int epoch;
    /* engine: degree buckets, undo log (edge removals only), matching */
    int *bhead, *btail, *bnxt, *bprv;
    int maxb;
    int *ulog, *mstack;
    int ulen, msize;
    /* classification scratch: each vertex's distance, the distance-2
       ring, the four edge classes, each distance-2 vertex's parents
       (ppar[poff..poff+pcnt)), one d2 edge's anchors, and per distance-1
       vertex its sector's size and then its write cursor in the frame */
    int *vdist, *lvl2, *t01, *t11, *t12, *td2;
    int *pcnt, *poff, *ppar, *anchors;
    size_t *scnt;
    /* per-iteration frames */
    int *arena;
    size_t acap, atop;
    /* counters / control */
    long long solutions, iterations, internal, deletions, restorations;
    long long sect_sum_total, d2_total;
    int max_depth, depth;
    long long cutoff;
    int stopped;
    PyObject *emit; /* NULL: count only; with labels: the chunk writer */
    /* line mode: per-edge `a-b` texts rendered on first use into `texts`
       (tlen 0 = not rendered yet); the current matching's edges in text
       order and its line, each text followed by a space; per matching
       entry, where its push put it in both; the output chunk */
    PyObject *labels; /* tuple of str, or NULL */
    char *texts, *cur, *out;
    size_t tcap, ttop, ccap, clen, ocap, olen;
    size_t *toff, *tlen, *loff;
    int *line, *lpos;
    /* fixed-size buffers, freed together */
    void *bufs[MAX_BUFS];
    int nbufs, oom;
} Run;

/* -- allocation ------------------------------------------------------ */

/* `count` zeroed elements, freed by run_free; NULL with MemoryError set. */
static void *take(Run *r, size_t count, size_t size)
{
    void *p = r->nbufs < MAX_BUFS ? calloc(count, size) : NULL;
    if (p == NULL) {
        PyErr_NoMemory();
        r->oom = 1;
    } else {
        r->bufs[r->nbufs++] = p;
    }
    return p;
}

static int *ints(Run *r, size_t count)
{
    return take(r, count, sizeof(int));
}

/* Points each of the NULL-terminated `arrays` at `count` fresh ints. */
static void ints_each(Run *r, size_t count, int **arrays[])
{
    for (; *arrays != NULL; arrays++)
        **arrays = ints(r, count);
}

static void run_free(Run *r)
{
    for (int i = 0; i < r->nbufs; i++)
        free(r->bufs[i]);
    free(r->arena);
    free(r->texts);
    free(r->cur);
    free(r->out);
    Py_XDECREF(r->labels);
}

/* Grows the buffer at `bufp` (a pointer to any object pointer) of *cap
   elements of `size` bytes, by doubling from 256, until it holds `need`. */
static int reserve(void *bufp, size_t *cap, size_t need, size_t size)
{
    void **buf = bufp;
    size_t c = *cap > 0 ? *cap : 256;
    while (need > c)
        c *= 2;
    if (c != *cap) {
        void *p = realloc(*buf, size * c);
        if (p == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        *buf = p;
        *cap = c;
    }
    return 0;
}

/* A fresh mark value; the marks are cleared before the counter wraps. */
static int next_epoch(Run *r)
{
    if (r->epoch == INT_MAX) {
        memset(r->vmark, 0, sizeof(int) * (size_t)(r->n + 1));
        memset(r->emark, 0, sizeof(int) * (size_t)(r->m + 1));
        r->epoch = 0;
    }
    return ++r->epoch;
}

/* -- dynamic adjacency ---------------------------------------------- */

static void link_front(Run *r, int arc, int v)
{
    int h = r->head[v];
    r->nxt[arc] = h;
    r->prv[arc] = -(v + 1);
    if (h != -1)
        r->prv[h] = arc;
    r->head[v] = arc;
}

/* -- degree buckets ------------------------------------------------- */

static void binsert(Run *r, int v, int d)
{
    int t = r->btail[d];
    r->bprv[v] = t;
    r->bnxt[v] = -1;
    if (t == -1)
        r->bhead[d] = v;
    else
        r->bnxt[t] = v;
    r->btail[d] = v;
    if (d > r->maxb)
        r->maxb = d;
}

/* Moves v from bucket `old`, its degree before the change, to `new`. */
static void bmove(Run *r, int v, int old, int new)
{
    int p = r->bprv[v];
    int nn = r->bnxt[v];
    if (p == -1)
        r->bhead[old] = nn;
    else
        r->bnxt[p] = nn;
    if (nn == -1)
        r->btail[old] = p;
    else
        r->bprv[nn] = p;
    binsert(r, v, new);
    /* an increase re-raised the maximum in the insert; a decrease by one
       put v just below the old maximum, so the scan takes one step */
    if (new < old)
        while (r->bhead[r->maxb] == -1)
            r->maxb--;
}

static void shift_degrees(Run *r, int e, int by)
{
    int u = r->eu[e], v = r->ev[e];
    r->deg[u] += by;
    r->deg[v] += by;
    bmove(r, u, r->deg[u] - by, r->deg[u]);
    bmove(r, v, r->deg[v] - by, r->deg[v]);
}

static void remove_edge(Run *r, int e)
{
    for (int arc = 2 * e; arc < 2 * e + 2; arc++) {
        int p = r->prv[arc];
        int nn = r->nxt[arc];
        if (p < 0)
            r->head[-p - 1] = nn;
        else
            r->nxt[p] = nn;
        if (nn != -1)
            r->prv[nn] = p;
    }
    r->live--;
    shift_degrees(r, e, -1);
    r->ulog[r->ulen++] = e;
    r->deletions++;
}

static void relink_edge(Run *r, int e)
{
    /* relink in reverse arc order so both endpoints' lists come back to
       exactly their pre-removal shape */
    for (int arc = 2 * e + 1; arc >= 2 * e; arc--) {
        int p = r->prv[arc];
        int nn = r->nxt[arc];
        if (p < 0)
            r->head[-p - 1] = arc;
        else
            r->nxt[p] = arc;
        if (nn != -1)
            r->prv[nn] = arc;
    }
    r->live++;
    shift_degrees(r, e, 1);
}

static void rollback(Run *r, int mark)
{
    while (r->ulen > mark) {
        relink_edge(r, r->ulog[--r->ulen]);
        r->restorations++;
    }
}

/* -- set-up ---------------------------------------------------------- */

static int endpoint(PyObject *list, Py_ssize_t i, int n, int *out)
{
    /* ints only: converting one runs no Python code that could change the list */
    PyObject *o = PyList_GET_ITEM(list, i);
    if (!PyLong_Check(o)) {
        PyErr_Format(PyExc_TypeError, "edge %zd has a non-integer endpoint", i);
        return -1;
    }
    long x = PyLong_AsLong(o);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (x < 0 || x >= n) {
        PyErr_Format(PyExc_ValueError, "edge %zd has endpoint %ld outside 0..%d", i, x, n - 1);
        return -1;
    }
    *out = (int)x;
    return 0;
}

/* The set-up run() makes before the enumeration: the edges checked, the
   live ones linked, their degrees, the mark set, the degree buckets, the
   undo log and matching, and the engine's classification scratch; its
   frames grow on use. */
static int run_init(Run *r, int n, int m, PyObject *eu, PyObject *ev, PyObject *mask)
{
    const char *alive_mask = PyBytes_AS_STRING(mask);
    size_t sn = (size_t)n + 1;
    /* anchors are distinct distance-1 vertices, so n bounds them */
    int **per_vertex[] = {&r->head, &r->deg, &r->vmark, &r->bhead, &r->btail, &r->bnxt,
                          &r->bprv, &r->vdist, &r->lvl2, &r->pcnt, &r->poff, &r->anchors,
                          NULL};
    /* ppar holds one parent per 1-2 edge, so m is a hard bound */
    int **per_edge[] = {&r->eu, &r->ev, &r->emark, &r->ulog, &r->mstack, &r->t01, &r->t11,
                        &r->t12, &r->td2, &r->ppar, NULL};
    r->n = n;
    r->m = m;
    ints_each(r, sn, per_vertex);
    ints_each(r, (size_t)m + 1, per_edge);
    /* dynamic adjacency: edge e owns arcs 2e (at eu) and 2e+1 (at ev) */
    r->nxt = ints(r, 2 * (size_t)m + 1);
    r->prv = ints(r, 2 * (size_t)m + 1);
    r->scnt = take(r, sn, sizeof(size_t));
    if (r->oom)
        return -1;
    for (int e = 0; e < m; e++) {
        if (endpoint(eu, e, n, &r->eu[e]) < 0 || endpoint(ev, e, n, &r->ev[e]) < 0)
            return -1;
        if (r->eu[e] == r->ev[e]) {
            PyErr_Format(PyExc_ValueError, "edge %d is a self-loop", e);
            return -1;
        }
    }
    /* head-inserted in ascending edge order over the alive edges */
    for (int v = 0; v < n; v++)
        r->head[v] = -1;
    for (int e = 0; e < m; e++) {
        if (!alive_mask[e])
            continue;
        r->live++;
        link_front(r, 2 * e, r->eu[e]);
        link_front(r, 2 * e + 1, r->ev[e]);
        r->deg[r->eu[e]]++;
        r->deg[r->ev[e]]++;
    }
    /* the engine's scratch bounds assume a simple graph */
    for (int v = 0; v < n; v++) {
        int ep = next_epoch(r);
        for (int a = r->head[v]; a != -1; a = r->nxt[a]) {
            int w = (a & 1) ? r->eu[a >> 1] : r->ev[a >> 1];
            if (r->vmark[w] == ep) {
                PyErr_Format(PyExc_ValueError, "vertices %d and %d share two edges", v, w);
                return -1;
            }
            r->vmark[w] = ep;
        }
        if (r->deg[v] > r->cap)
            r->cap = r->deg[v];
    }
    /* vertices inserted at the tail in id order, so pivot ties break
       toward the most recently inserted vertex */
    for (int d = 0; d <= r->cap; d++)
        r->bhead[d] = r->btail[d] = -1;
    r->maxb = -1;
    for (int v = 0; v < n; v++)
        binsert(r, v, r->deg[v]);
    return 0;
}

/* -- line rendering -------------------------------------------------- */

/* Byte order of two texts, shorter first on a common prefix: Python's
   str order, since UTF-8 byte order is code-point order. */
static int text_cmp(const char *a, size_t la, const char *b, size_t lb)
{
    int c = memcmp(a, b, la < lb ? la : lb);
    return c != 0 ? c : (la > lb) - (la < lb);
}

static int label(Run *r, int v, const char **text, Py_ssize_t *len)
{
    PyObject *o = PyTuple_GET_ITEM(r->labels, v);
    if (!PyUnicode_Check(o)) {
        PyErr_Format(PyExc_TypeError, "label of vertex %d is not a str", v);
        return -1;
    }
    *text = PyUnicode_AsUTF8AndSize(o, len);
    return *text == NULL ? -1 : 0;
}

/* Renders edge e's `a-b` text, smaller label first, on its first use. */
static int render_edge(Run *r, int e)
{
    const char *a, *b, *t;
    Py_ssize_t la, lb, lt;
    if (r->tlen[e] != 0)
        return 0;
    if (label(r, r->eu[e], &a, &la) < 0 || label(r, r->ev[e], &b, &lb) < 0)
        return -1;
    if (text_cmp(b, (size_t)lb, a, (size_t)la) < 0) {
        t = a, a = b, b = t;
        lt = la, la = lb, lb = lt;
    }
    size_t len = (size_t)la + 1 + (size_t)lb;
    if (reserve(&r->texts, &r->tcap, r->ttop + len, 1) < 0)
        return -1;
    char *p = r->texts + r->ttop;
    memcpy(p, a, (size_t)la);
    p[la] = '-';
    memcpy(p + la + 1, b, (size_t)lb);
    r->toff[e] = r->ttop;
    r->tlen[e] = len;
    r->ttop += len;
    return 0;
}

/* Inserts edge e, the matching's entry k, into the current line, which
   stays sorted: each push and pop changes the line by one edge, so a
   solution's line is ready when the solution is found. */
OUT_OF_LINE static int line_insert(Run *r, int k, int e)
{
    int i;
    if (render_edge(r, e) < 0)
        return -1;
    const char *text = r->texts + r->toff[e];
    size_t off = 0, len = r->tlen[e] + 1; /* with its separator */
    for (i = 0; i < k; i++) {
        int f = r->line[i];
        if (text_cmp(r->texts + r->toff[f], r->tlen[f], text, r->tlen[e]) > 0)
            break;
        off += r->tlen[f] + 1;
    }
    if (reserve(&r->cur, &r->ccap, r->clen + len, 1) < 0)
        return -1;
    memmove(r->line + i + 1, r->line + i, sizeof(int) * (size_t)(k - i));
    r->line[i] = e;
    memmove(r->cur + off + len, r->cur + off, r->clen - off);
    memcpy(r->cur + off, text, len - 1);
    r->cur[off + len - 1] = ' ';
    r->clen += len;
    r->lpos[k] = i;
    r->loff[k] = off;
    return 0;
}

/* Removes the matching's entry k, the last one inserted, from the line. */
OUT_OF_LINE static void line_remove(Run *r, int k)
{
    int i = r->lpos[k];
    size_t off = r->loff[k], len = r->tlen[r->line[i]] + 1;
    memmove(r->line + i, r->line + i + 1, sizeof(int) * (size_t)(k - i));
    memmove(r->cur + off, r->cur + off + len, r->clen - off - len);
    r->clen -= len;
}

/* Adds edge e to the current matching. */
static inline int push(Run *r, int e)
{
    int k = r->msize++;
    r->mstack[k] = e;
    return r->labels == NULL ? 0 : line_insert(r, k, e);
}

/* Undoes the last push. */
static inline void pop(Run *r)
{
    int k = --r->msize;
    if (r->labels != NULL)
        line_remove(r, k);
}

/* Hands the output chunk to the writer, then lets a pending signal
   (Ctrl-C) raise. */
static int flush(Run *r)
{
    if (r->olen > 0) {
        PyObject *chunk = PyBytes_FromStringAndSize(r->out, (Py_ssize_t)r->olen);
        if (chunk == NULL)
            return -1;
        r->olen = 0;
        PyObject *res = PyObject_CallOneArg(r->emit, chunk);
        Py_DECREF(chunk);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    return PyErr_CheckSignals();
}

/* Appends the current line to the output chunk, flushing first when it
   does not fit. */
static int write_line(Run *r)
{
    size_t need = r->clen > 0 ? r->clen : 3;
    if (r->olen + need > r->ocap &&
        (flush(r) < 0 || reserve(&r->out, &r->ocap, need, 1) < 0))
        return -1;
    char *p = r->out + r->olen;
    if (r->clen == 0) {
        memcpy(p, "{}\n", 3);
    } else {
        memcpy(p, r->cur, r->clen);
        p[r->clen - 1] = '\n'; /* in place of the last separator */
    }
    r->olen += need;
    return 0;
}

static int lines_init(Run *r, PyObject *labels)
{
    size_t sm = (size_t)r->m + 1;
    /* a tuple, so the writer cannot change the labels under the kernel */
    if (!PyTuple_Check(labels)) {
        PyErr_SetString(PyExc_TypeError, "labels must be a tuple");
        return -1;
    }
    if (PyTuple_GET_SIZE(labels) != r->n) {
        PyErr_Format(PyExc_ValueError, "%zd labels for %d vertices",
                     PyTuple_GET_SIZE(labels), r->n);
        return -1;
    }
    Py_INCREF(labels);
    r->labels = labels;
    r->toff = take(r, sm, sizeof(size_t));
    r->tlen = take(r, sm, sizeof(size_t));
    r->loff = take(r, sm, sizeof(size_t));
    r->line = ints(r, sm);
    r->lpos = ints(r, sm);
    return r->oom || reserve(&r->out, &r->ocap, CHUNK, 1) < 0 ? -1 : 0;
}

/* -- emission -------------------------------------------------------- */

OUT_OF_LINE static int emit(Run *r)
{
    r->solutions++;
    if (r->labels != NULL) {
        if (write_line(r) < 0)
            return -1;
    } else if (r->emit != NULL) {
        PyObject *sol = PyTuple_New(r->msize);
        if (sol == NULL)
            return -1;
        for (int i = 0; i < r->msize; i++) {
            PyObject *x = PyLong_FromLong(r->mstack[i]);
            if (x == NULL) {
                Py_DECREF(sol);
                return -1;
            }
            PyTuple_SET_ITEM(sol, i, x);
        }
        PyObject *res = PyObject_CallOneArg(r->emit, sol);
        Py_DECREF(sol);
        if (res == NULL)
            return -1;
        if (res == Py_False)
            r->stopped = 1;
        Py_DECREF(res);
    }
    if (r->cutoff > 0 && r->solutions >= r->cutoff)
        r->stopped = 1;
    return 0;
}

/* -- multi-way partition engine ------------------------------------- */

/* The anchors of d2 edge f, each once, into r->anchors: the parents of
   its endpoints at distance 2.  A C4-free graph gives at most two. */
OUT_OF_LINE static int anchors_of(Run *r, int f)
{
    int ep = r->epoch, na = 0;
    for (int k = 0; k < 2; k++) {
        int x = k ? r->ev[f] : r->eu[f];
        if (r->vmark[x] != ep || r->vdist[x] != 2)
            continue;
        for (int j = r->poff[x]; j < r->poff[x] + r->pcnt[x]; j++) {
            int p = r->ppar[j], t;
            for (t = 0; t < na && r->anchors[t] != p; t++)
                ;
            if (t == na)
                r->anchors[na++] = p;
        }
    }
    return na;
}

static int rec_c4free(Run *r)
{
    r->iterations++;
    if ((r->iterations & SIGNAL_TICK) == 0 && PyErr_CheckSignals() < 0)
        return -1;
    if (r->depth > r->max_depth)
        r->max_depth = r->depth;
    if (r->live == 0)
        return emit(r);
    r->internal++;
    const int *eu = r->eu, *ev = r->ev;
    int v = r->btail[r->maxb];
    int a, e, u, w, x, f, i, j, k, t, na;
    int nd01 = 0, nd11 = 0, nd12 = 0, nd2 = 0, nl2 = 0, nsb = 0;
    int ep = next_epoch(r);
    r->vmark[v] = ep;
    r->vdist[v] = 0;

    /* pivot star: the 0-1 edges, whose far ends are the distance-1 ring
       (the live graph is simple), each with an empty sector count.  The
       0-1 edges are stored back to front, which is ascending edge id,
       the child order: every adjacency list is in descending edge id,
       since run_init head-inserts in ascending order, removals keep the
       order and rollbacks restore it. */
    nd01 = r->deg[v];
    for (a = r->head[v], k = nd01; a != -1; a = r->nxt[a]) {
        e = a >> 1;
        u = (a & 1) ? eu[e] : ev[e];
        r->t01[--k] = e;
        r->emark[e] = ep;
        r->vmark[u] = ep;
        r->vdist[u] = 1;
        r->scnt[u] = 0;
    }

    /* edges leaving the distance-1 ring, walked in star order: 1-1 and
       1-2, and the distance-2 ring */
    for (k = nd01 - 1; k >= 0; k--) {
        e = r->t01[k];
        u = eu[e] == v ? ev[e] : eu[e];
        for (a = r->head[u]; a != -1; a = r->nxt[a]) {
            e = a >> 1;
            if (r->emark[e] == ep)
                continue;
            r->emark[e] = ep;
            w = (a & 1) ? eu[e] : ev[e];
            if (r->vmark[w] == ep && r->vdist[w] == 1) {
                r->t11[nd11++] = e;
                continue;
            }
            if (r->vmark[w] != ep) {
                r->vmark[w] = ep;
                r->vdist[w] = 2;
                r->lvl2[nl2++] = w;
            }
            r->t12[nd12++] = e;
        }
    }

    /* the distance-2 ring: an unmarked edge is a d2 edge; a marked one
       whose far end is at distance 1 is a 1-2 edge, and that far end is
       a parent of the ring vertex, stored in ppar with the others */
    for (i = 0, k = 0; i < nl2; i++) {
        x = r->lvl2[i];
        r->poff[x] = k;
        for (a = r->head[x]; a != -1; a = r->nxt[a]) {
            e = a >> 1;
            if (r->emark[e] != ep) {
                r->emark[e] = ep;
                r->td2[nd2++] = e;
                continue;
            }
            w = (a & 1) ? eu[e] : ev[e];
            if (r->vdist[w] == 1)
                r->ppar[k++] = w;
        }
        r->pcnt[x] = k - r->poff[x];
    }

    /* sectors in two passes over the d2 edges: the first counts each
       anchor's entries, the second writes them at the anchor's cursor,
       so a sector lists its d2 edges in d2 order, each once */
    for (i = 0; i < nd2; i++) {
        na = anchors_of(r, r->td2[i]);
        for (t = 0; t < na; t++)
            r->scnt[r->anchors[t]]++;
        nsb += na;
    }
    r->sect_sum_total += nsb;
    r->d2_total += nd2;

    /* frame: [d01 sorted][d11][d12] then per d01 edge [cnt, sector...] */
    size_t frame = r->atop;
    r->atop += 2 * (size_t)nd01 + nd11 + nd12 + nsb;
    if (reserve(&r->arena, &r->acap, r->atop, sizeof(int)) < 0)
        return -1;
    int *fr = r->arena + frame; /* valid until the first child runs */
    memcpy(fr, r->t01, sizeof(int) * nd01);
    memcpy(fr + nd01, r->t11, sizeof(int) * nd11);
    memcpy(fr + nd01 + nd11, r->t12, sizeof(int) * nd12);
    size_t sect = frame + nd01 + nd11 + nd12, off = sect;
    for (j = 0; j < nd01; j++) {
        e = fr[j];
        u = eu[e] == v ? ev[e] : eu[e];
        size_t cnt = r->scnt[u];
        r->arena[off] = (int)cnt;
        r->scnt[u] = off + 1; /* from now on the write cursor */
        off += 1 + cnt;
    }
    for (i = 0; i < nd2; i++) {
        f = r->td2[i];
        na = anchors_of(r, f);
        for (t = 0; t < na; t++)
            r->arena[r->scnt[r->anchors[t]]++] = f;
    }

    /* 0-child: pivot star removed, pivot isolated */
    int mark = r->ulen;
    for (i = 0; i < nd01; i++)
        remove_edge(r, fr[i]);
    r->depth++;
    if (rec_c4free(r) < 0)
        return -1;
    r->depth--;
    if (!r->stopped) {
        /* type-1 children: one per 0-1 edge, in sorted order */
        for (off = frame + nd01; off < sect; off++)
            remove_edge(r, r->arena[off]);
        for (j = 0; j < nd01; j++) {
            int cnt = r->arena[sect];
            int mi = r->ulen;
            for (i = 0; i < cnt; i++)
                remove_edge(r, r->arena[sect + 1 + i]);
            if (push(r, r->arena[frame + j]) < 0)
                return -1;
            r->depth++;
            if (rec_c4free(r) < 0)
                return -1;
            r->depth--;
            pop(r);
            rollback(r, mi);
            if (r->stopped)
                break;
            sect += 1 + (size_t)cnt;
        }
    }
    rollback(r, mark);
    r->atop = frame;
    return 0;
}

/* -- edge-list ingest ------------------------------------------------ */

/* Python's line boundaries (str.splitlines) and whitespace (str.strip,
   str.split); every line boundary is whitespace too. */
static inline int is_break(Py_UCS4 c)
{
    return c < 128 ? (c >= '\n' && c <= '\r') || (c >= 0x1c && c <= 0x1e)
                   : Py_UNICODE_ISLINEBREAK(c);
}

/* A label: the slice text[start:start+len], with its hash. */
typedef struct {
    Py_ssize_t start;
    uint64_t hash;
    int len;
} Label;

/* The parser's state: labels by id, looked up by hash in `slots` (label
   id + 1, 0 = free); `pairs` holds each edge's (smaller id << 32 |
   larger id), 0 = free.  Both tables are at most half full, since there
   are at most two labels and one edge per line. */
typedef struct {
    int kind;
    const char *data;
    Label *labels;
    int nlabels;
    int *slots;
    uint64_t *pairs;
    size_t lmask, pmask;
    int *eu, *ev;
    int m;
} Ingest;

static void ingest_free(Ingest *p)
{
    free(p->labels);
    free(p->slots);
    free(p->pairs);
    free(p->eu);
    free(p->ev);
}

/* The id of label t, interned on first use. */
static int intern(Ingest *p, const Label *t)
{
    size_t i = (size_t)t->hash & p->lmask;
    for (; p->slots[i] != 0; i = (i + 1) & p->lmask) {
        const Label *l = &p->labels[p->slots[i] - 1];
        if (l->hash == t->hash && l->len == t->len &&
            memcmp(p->data + l->start * p->kind, p->data + t->start * p->kind,
                   (size_t)t->len * p->kind) == 0)
            return p->slots[i] - 1;
    }
    p->labels[p->nlabels] = *t;
    p->slots[i] = ++p->nlabels;
    return p->nlabels - 1;
}

/* Adds the edge u-v; 0 when it repeats an earlier pair. */
static int add_pair(Ingest *p, int u, int v)
{
    uint64_t key = u < v ? (uint64_t)u << 32 | (uint64_t)v : (uint64_t)v << 32 | (uint64_t)u;
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15ull) >> 20) & p->pmask;
    for (; p->pairs[i] != 0; i = (i + 1) & p->pmask)
        if (p->pairs[i] == key)
            return 0;
    p->pairs[i] = key;
    p->eu[p->m] = u;
    p->ev[p->m++] = v;
    return 1;
}

/* 1 on a well-formed edge list, 0 on a line that is not two distinct
   labels or that repeats a pair, -1 with an exception set. */
static int ingest(Ingest *p, PyObject *text)
{
    Py_ssize_t n = PyUnicode_GET_LENGTH(text), i = 0;
    Label tok[2];
    /* one more than the lines neither blank nor comments, which bounds
       the edges and half the labels */
    size_t lines = 1, lcap = 4, pcap = 2;
    int fresh = 1;
    for (Py_ssize_t j = 0; j < n; j++) {
        Py_UCS4 c = PyUnicode_READ(p->kind, p->data, j);
        if (is_break(c)) {
            fresh = 1;
        } else if (fresh && !Py_UNICODE_ISSPACE(c)) {
            fresh = 0;
            lines += c != '#';
        }
    }
    if (n >= INT_MAX || lines >= INT_MAX / 4)
        return 0; /* beyond the kernel's int sizes; the Python parser decides */
    while (lcap < 4 * lines)
        lcap *= 2;
    while (pcap < 2 * lines)
        pcap *= 2;
    p->lmask = lcap - 1;
    p->pmask = pcap - 1;
    p->labels = malloc(sizeof(Label) * 2 * lines);
    p->slots = calloc(lcap, sizeof(int));
    p->pairs = calloc(pcap, sizeof(uint64_t));
    p->eu = malloc(sizeof(int) * lines);
    p->ev = malloc(sizeof(int) * lines);
    if (!p->labels || !p->slots || !p->pairs || !p->eu || !p->ev) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t line = 1; i <= n; line++, i++) { /* i: the line's first character */
        int tokens = 0;
        Py_UCS4 c = 0;
        if ((line & SIGNAL_TICK) == 0 && PyErr_CheckSignals() < 0)
            return -1;
        while (i < n && !is_break(c = PyUnicode_READ(p->kind, p->data, i))) {
            if (Py_UNICODE_ISSPACE(c)) {
                i++;
                continue;
            }
            if (tokens == 0 && c == '#') { /* a comment: skip to the line's end */
                while (i < n && !is_break(PyUnicode_READ(p->kind, p->data, i)))
                    i++;
                break;
            }
            if (tokens == 2)
                return 0;
            Label *t = &tok[tokens++];
            t->start = i;
            t->hash = 0xCBF29CE484222325ull; /* FNV-1a over the code points */
            for (; i < n && !Py_UNICODE_ISSPACE(c = PyUnicode_READ(p->kind, p->data, i)); i++)
                t->hash = (t->hash ^ c) * 0x100000001B3ull;
            t->len = (int)(i - t->start);
        }
        if (tokens == 1)
            return 0;
        if (tokens == 2) {
            int u = intern(p, &tok[0]);
            int v = intern(p, &tok[1]);
            if (u == v || !add_pair(p, u, v))
                return 0;
        }
    }
    return 1;
}

/* A new list of the ints xs[0..count). */
static PyObject *int_list(const int *xs, int count)
{
    PyObject *list = PyList_New(count);
    for (int i = 0; list != NULL && i < count; i++) {
        PyObject *x = PyLong_FromLong(xs[i]);
        if (x == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, x);
    }
    return list;
}

PyDoc_STRVAR(parse_doc,
"parse(text) -> (labels, eu, ev) or None\n\n"
"Parse an edge list as indmatch/edgelist.py: parse_edge_list_python\n"
"does: lines and tokens split as str.splitlines() and str.split() split\n"
"them, blank lines and lines starting with `#` skipped, labels numbered\n"
"in order of first appearance.  Returns the labels as a list of str and\n"
"the edges' endpoint ids as two lists of int, or None when `text` is\n"
"not an exact str, a line is not two labels, an edge is a self-loop or\n"
"repeats an earlier pair, or the graph is too large for int ids; the\n"
"Python parser then reports the error.");

static PyObject *parse(PyObject *Py_UNUSED(self), PyObject *text)
{
    Ingest p = {0};
    PyObject *labels = NULL, *eu = NULL, *ev = NULL, *res = NULL;
    if (!PyUnicode_CheckExact(text))
        Py_RETURN_NONE;
    p.kind = PyUnicode_KIND(text);
    p.data = PyUnicode_DATA(text);
    int status = ingest(&p, text);
    if (status == 0) {
        ingest_free(&p);
        Py_RETURN_NONE;
    }
    if (status > 0 && (labels = PyList_New(p.nlabels)) != NULL) {
        for (int i = 0; i < p.nlabels; i++) {
            Label *l = &p.labels[i];
            PyObject *x = PyUnicode_Substring(text, l->start, l->start + l->len);
            if (x == NULL) {
                Py_CLEAR(labels);
                break;
            }
            PyList_SET_ITEM(labels, i, x);
        }
    }
    if (labels != NULL && (eu = int_list(p.eu, p.m)) != NULL && (ev = int_list(p.ev, p.m)) != NULL)
        res = PyTuple_Pack(3, labels, eu, ev);
    Py_XDECREF(labels);
    Py_XDECREF(eu);
    Py_XDECREF(ev);
    ingest_free(&p);
    return res;
}

/* -- module ---------------------------------------------------------- */

PyDoc_STRVAR(run_doc,
"run(n, eu, ev, alive_mask, cutoff, emit, labels=None) -> dict\n\n"
"Enumerate induced matchings of the graph given as edge arrays by the\n"
"multi-way partition, on any graph.\n\n"
"`alive_mask[e]` selects the edges present at entry; `cutoff` stops\n"
"after that many solutions (0 = unlimited); `emit`, when not None,\n"
"receives each solution as a tuple of edge ids and may return False to\n"
"stop.  With `labels`, a tuple of one str per vertex, `emit` instead\n"
"receives the solutions' canonical lines as UTF-8 bytes, one call per\n"
"64 KiB chunk.  Returns the instrumentation counters as a dict.");

static PyObject *run(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "eu", "ev", "alive_mask", "cutoff", "emit", "labels", NULL};
    int n, status;
    long long cutoff;
    PyObject *eu, *ev, *mask, *sink, *labels = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iO!O!O!LO|O:run", kwlist, &n,
                                     &PyList_Type, &eu, &PyList_Type, &ev, &PyBytes_Type,
                                     &mask, &cutoff, &sink, &labels))
        return NULL;
    Py_ssize_t m = PyList_GET_SIZE(eu);
    if (PyList_GET_SIZE(ev) != m || PyBytes_GET_SIZE(mask) != m) {
        PyErr_SetString(PyExc_ValueError, "eu, ev and alive_mask must have equal length");
        return NULL;
    }
    if (n < 0 || m >= INT_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "graph size out of range");
        return NULL;
    }
    if (labels != Py_None && sink == Py_None) {
        PyErr_SetString(PyExc_ValueError, "labels need a writer");
        return NULL;
    }
    Run *r = calloc(1, sizeof(Run));
    if (r == NULL)
        return PyErr_NoMemory();
    r->cutoff = cutoff;
    r->emit = sink == Py_None ? NULL : sink;
    status = run_init(r, n, (int)m, eu, ev, mask);
    if (status == 0 && labels != Py_None)
        status = lines_init(r, labels);
    if (status == 0)
        status = rec_c4free(r);
    if (status == 0 && r->labels != NULL)
        status = flush(r);
    PyObject *res = status < 0 ? NULL : Py_BuildValue(
        "{sLsLsLsisLsLsLsL}", "solutions", r->solutions, "iterations", r->iterations,
        "internal_iterations", r->internal, "max_depth", r->max_depth,
        "deletions", r->deletions, "restorations", r->restorations,
        "sect_sum_total", r->sect_sum_total, "d2_total", r->d2_total);
    run_free(r);
    free(r);
    return res;
}

static PyMethodDef methods[] = {
    {"run", (PyCFunction)(void (*)(void))run, METH_VARARGS | METH_KEYWORDS, run_doc},
    {"parse", parse, METH_O, parse_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "indmatch._fastcore",
    .m_doc = "Native kernel of the multi-way partition enumerator and the\n"
             "edge-list parser.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fastcore(void)
{
    return PyModule_Create(&module);
}
