/* Native kernels for the frozen query stores of repro.kernels.
 *
 * Two capsule types are exported:
 *
 * 1. "repro.kernels.labelstore" -- an H2H-family label store: the CSR
 *    distance/position arrays of one H2HLabels instance plus the flattened
 *    Euler-tour LCA arrays of its tree decomposition:
 *
 *      comp[r]        component id of row r (forest support),
 *      first[r]       first Euler-tour position of row r,
 *      logs[i]        floor(log2(i)) lookup for the sparse-table RMQ,
 *      tbl_flat/off   sparse-table levels, entries packed as depth<<shift|row
 *                     so the range-minimum over depths is an integer minimum,
 *      pos_indptr/..  CSR of the per-node hub positions X(v).pos,
 *      dis_indptr/..  CSR of the per-row distance arrays X(v).dis.
 *
 *    query(rs, rt) performs exactly the reference Python arithmetic -- LCA
 *    via RMQ, then min over i in pos[lca] of dis_s[i] + dis_t[i] -- so
 *    results are bit-identical to H2HLabels.query.  one_to_many/query_pairs
 *    loop the same body in C over caller-provided int64 row buffers, writing
 *    into a float64 output buffer: one call per batch, no per-query Python.
 *
 * 2. "repro.kernels.searchgraph" -- a CSR adjacency (graph snapshot or
 *    CH-style upward shortcut arrays) for the Dijkstra-family searches:
 *
 *      ids[r]         original vertex id of row r (heap tie-break key),
 *      indptr[r]..    CSR of the adjacency rows (neighbor rows + weights).
 *
 *    The searches are literal ports of the pure-Python references
 *    (GraphSnapshot.bidijkstra / GraphSnapshot._dijkstra /
 *    ShortcutStore.query): heaps are keyed by (distance, original id)
 *    exactly like heapq's (dist, vertex) tuples, rows relax neighbours in
 *    CSR order (the adjacency-dict iteration order), and every float
 *    operation is the same float64 add/compare -- so the pop sequence, the
 *    relaxation sequence and therefore the returned distances are
 *    bit-identical to the Python searches.
 *
 * Neither capsule copies its arrays: buffers are borrowed via the buffer
 * protocol (views held for the capsule's lifetime), so the kernels execute
 * directly over the owning store's arena -- including mmap-backed arenas
 * shared across repro.cluster shard processes.
 *
 * Two capsule-free maintenance kernels run the per-vertex inner loops of
 * DH2H-style index maintenance directly over the live Python structures:
 *
 *   label_row     -- H2HLabels.recompute_vertex (top-down label phase),
 *   shortcut_row  -- the per-vertex loop of update_shortcuts_bottom_up
 *                    (recompute_shortcut for every X(v).N entry).
 *
 *    Both are literal ports: the same float64 additions in the same order
 *    and the same strict-less-than min, so every label and shortcut they
 *    write is bit-identical to the Python reference.  They read the dicts
 *    with PyDict_GetItem, which bypasses Python-level __getitem__ -- a
 *    repro.store LazyDict that has not loaded yet would look empty to it.
 *    Every dict argument is therefore checked to be *materialised*: an
 *    exact dict, or a subclass whose item reads are dict's own (what a
 *    LazyDict becomes once loaded).  Anything else raises TypeError.
 *
 * No function releases the GIL; concurrent Python threads therefore
 * serialize around the shared per-capsule scratch space by construction.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

static const char *LABEL_CAPSULE = "repro.kernels.labelstore";
static const char *SEARCH_CAPSULE = "repro.kernels.searchgraph";

/* ------------------------------------------------------------------ */
/* Borrowed-buffer helpers                                            */
/* ------------------------------------------------------------------ */

/* Borrow a C-contiguous buffer of 8-byte items; on success the view must be
 * released by the caller's destructor. */
static int borrow_buffer(PyObject *obj, Py_buffer *view, const void **data,
                         Py_ssize_t *count) {
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS) < 0) {
        return -1;
    }
    if (view->itemsize != 8) {
        PyBuffer_Release(view);
        view->obj = NULL;
        PyErr_SetString(PyExc_TypeError, "kernel buffers must have 8-byte items");
        return -1;
    }
    *data = view->buf;
    *count = view->len / view->itemsize;
    return 0;
}

static void release_views(Py_buffer *views, int count) {
    for (int i = 0; i < count; i++) {
        if (views[i].obj != NULL) {
            PyBuffer_Release(&views[i]);
            views[i].obj = NULL;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Label store                                                        */
/* ------------------------------------------------------------------ */

enum { L_COMP, L_FIRST, L_LOGS, L_TBL_FLAT, L_TBL_OFF,
       L_POS_INDPTR, L_POS_DATA, L_DIS_INDPTR, L_DIS_DATA, L_NVIEWS };

typedef struct {
    int64_t n;
    int64_t mask;
    Py_buffer views[L_NVIEWS];
    const int64_t *comp;
    const int64_t *first;
    const int64_t *logs;
    const int64_t *tbl_flat;
    const int64_t *tbl_off;
    const int64_t *pos_indptr;
    const int64_t *pos_data;
    const int64_t *dis_indptr;
    const double *dis_data;
} LabelStore;

static void label_destructor(PyObject *capsule) {
    LabelStore *st = (LabelStore *)PyCapsule_GetPointer(capsule, LABEL_CAPSULE);
    if (st != NULL) {
        release_views(st->views, L_NVIEWS);
        free(st);
    }
}

static PyObject *label_build(PyObject *self, PyObject *args) {
    PyObject *objs[L_NVIEWS];
    long long mask;
    (void)self;
    if (!PyArg_ParseTuple(args, "LOOOOOOOOO", &mask, &objs[L_COMP],
                          &objs[L_FIRST], &objs[L_LOGS], &objs[L_TBL_FLAT],
                          &objs[L_TBL_OFF], &objs[L_POS_INDPTR],
                          &objs[L_POS_DATA], &objs[L_DIS_INDPTR],
                          &objs[L_DIS_DATA])) {
        return NULL;
    }
    LabelStore *st = (LabelStore *)calloc(1, sizeof(LabelStore));
    if (st == NULL) {
        return PyErr_NoMemory();
    }
    st->mask = (int64_t)mask;
    const void *ptrs[L_NVIEWS];
    Py_ssize_t counts[L_NVIEWS];
    for (int i = 0; i < L_NVIEWS; i++) {
        if (borrow_buffer(objs[i], &st->views[i], &ptrs[i], &counts[i]) < 0) {
            release_views(st->views, i);
            free(st);
            return NULL;
        }
    }
    st->n = counts[L_COMP];
    st->comp = (const int64_t *)ptrs[L_COMP];
    st->first = (const int64_t *)ptrs[L_FIRST];
    st->logs = (const int64_t *)ptrs[L_LOGS];
    st->tbl_flat = (const int64_t *)ptrs[L_TBL_FLAT];
    st->tbl_off = (const int64_t *)ptrs[L_TBL_OFF];
    st->pos_indptr = (const int64_t *)ptrs[L_POS_INDPTR];
    st->pos_data = (const int64_t *)ptrs[L_POS_DATA];
    st->dis_indptr = (const int64_t *)ptrs[L_DIS_INDPTR];
    st->dis_data = (const double *)ptrs[L_DIS_DATA];
    if (counts[L_FIRST] != st->n || counts[L_POS_INDPTR] != st->n + 1 ||
        counts[L_DIS_INDPTR] != st->n + 1) {
        release_views(st->views, L_NVIEWS);
        free(st);
        PyErr_SetString(PyExc_ValueError, "label-store arrays have inconsistent lengths");
        return NULL;
    }
    PyObject *capsule = PyCapsule_New(st, LABEL_CAPSULE, label_destructor);
    if (capsule == NULL) {
        release_views(st->views, L_NVIEWS);
        free(st);
    }
    return capsule;
}

/* The shared query body: assumes 0 <= rs, rt < n and rs != rt. */
static inline double label_query_rows(const LabelStore *st, int64_t rs, int64_t rt) {
    if (st->comp[rs] != st->comp[rt]) {
        return Py_HUGE_VAL;
    }
    int64_t fs = st->first[rs];
    int64_t ft = st->first[rt];
    if (fs > ft) {
        int64_t tmp = fs;
        fs = ft;
        ft = tmp;
    }
    int64_t k = st->logs[ft - fs + 1];
    const int64_t *rowk = st->tbl_flat + st->tbl_off[k];
    int64_t a = rowk[fs];
    int64_t b = rowk[ft - ((int64_t)1 << k) + 1];
    if (b < a) {
        a = b;
    }
    int64_t lca_row = a & st->mask;
    const double *ds = st->dis_data + st->dis_indptr[rs];
    const double *dt = st->dis_data + st->dis_indptr[rt];
    const int64_t *p = st->pos_data + st->pos_indptr[lca_row];
    const int64_t *pe = st->pos_data + st->pos_indptr[lca_row + 1];
    double best = Py_HUGE_VAL;
    for (; p < pe; p++) {
        double c = ds[*p] + dt[*p];
        if (c < best) {
            best = c;
        }
    }
    return best;
}

static LabelStore *label_from_arg(PyObject *arg) {
    return (LabelStore *)PyCapsule_GetPointer(arg, LABEL_CAPSULE);
}

static PyObject *label_query(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "query(store, rs, rt) takes 3 arguments");
        return NULL;
    }
    LabelStore *st = label_from_arg(args[0]);
    if (st == NULL) {
        return NULL;
    }
    long rs = PyLong_AsLong(args[1]);
    long rt = PyLong_AsLong(args[2]);
    if ((rs == -1 || rt == -1) && PyErr_Occurred()) {
        return NULL;
    }
    if (rs < 0 || rs >= st->n || rt < 0 || rt >= st->n) {
        PyErr_SetString(PyExc_IndexError, "label-store row out of range");
        return NULL;
    }
    if (rs == rt) {
        return PyFloat_FromDouble(0.0);
    }
    return PyFloat_FromDouble(label_query_rows(st, rs, rt));
}

/* Fetch matching (t_rows int64, out float64 writable) buffers. */
static int pair_buffers(PyObject *rows_obj, PyObject *out_obj, Py_buffer *rows,
                        Py_buffer *out) {
    if (PyObject_GetBuffer(rows_obj, rows, PyBUF_C_CONTIGUOUS) < 0) {
        return -1;
    }
    if (PyObject_GetBuffer(out_obj, out, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(rows);
        return -1;
    }
    if (rows->itemsize != 8 || out->itemsize != 8 || rows->len != out->len) {
        PyBuffer_Release(rows);
        PyBuffer_Release(out);
        PyErr_SetString(PyExc_TypeError, "row/out must be matching 8-byte buffers");
        return -1;
    }
    return 0;
}

/* one_to_many(store, rs, t_rows_int64_buffer, out_float64_buffer) */
static PyObject *label_one_to_many(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "one_to_many(store, rs, t_rows, out) takes 4 arguments");
        return NULL;
    }
    LabelStore *st = label_from_arg(args[0]);
    if (st == NULL) {
        return NULL;
    }
    long rs = PyLong_AsLong(args[1]);
    if (rs == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (rs < 0 || rs >= st->n) {
        PyErr_SetString(PyExc_IndexError, "label-store row out of range");
        return NULL;
    }
    Py_buffer t_view, out_view;
    if (pair_buffers(args[2], args[3], &t_view, &out_view) < 0) {
        return NULL;
    }
    const int64_t *t_rows = (const int64_t *)t_view.buf;
    double *out = (double *)out_view.buf;
    Py_ssize_t m = t_view.len / 8;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t rt = t_rows[i];
        if (rt < 0 || rt >= st->n) {
            PyBuffer_Release(&t_view);
            PyBuffer_Release(&out_view);
            PyErr_SetString(PyExc_IndexError, "label-store row out of range");
            return NULL;
        }
        out[i] = (rt == rs) ? 0.0 : label_query_rows(st, rs, rt);
    }
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    Py_RETURN_NONE;
}

/* query_pairs(store, s_rows_int64_buffer, t_rows_int64_buffer, out_float64_buffer) */
static PyObject *label_query_pairs(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "query_pairs(store, s_rows, t_rows, out) takes 4 arguments");
        return NULL;
    }
    LabelStore *st = label_from_arg(args[0]);
    if (st == NULL) {
        return NULL;
    }
    Py_buffer s_view, t_view, out_view;
    if (PyObject_GetBuffer(args[1], &s_view, PyBUF_C_CONTIGUOUS) < 0) {
        return NULL;
    }
    if (pair_buffers(args[2], args[3], &t_view, &out_view) < 0) {
        PyBuffer_Release(&s_view);
        return NULL;
    }
    if (s_view.itemsize != 8 || s_view.len != t_view.len) {
        PyBuffer_Release(&s_view);
        PyBuffer_Release(&t_view);
        PyBuffer_Release(&out_view);
        PyErr_SetString(PyExc_TypeError,
                        "s_rows/t_rows/out must be matching 8-byte buffers");
        return NULL;
    }
    const int64_t *s_rows = (const int64_t *)s_view.buf;
    const int64_t *t_rows = (const int64_t *)t_view.buf;
    double *out = (double *)out_view.buf;
    Py_ssize_t m = s_view.len / 8;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t rs = s_rows[i];
        int64_t rt = t_rows[i];
        if (rs < 0 || rs >= st->n || rt < 0 || rt >= st->n) {
            PyBuffer_Release(&s_view);
            PyBuffer_Release(&t_view);
            PyBuffer_Release(&out_view);
            PyErr_SetString(PyExc_IndexError, "label-store row out of range");
            return NULL;
        }
        out[i] = (rs == rt) ? 0.0 : label_query_rows(st, rs, rt);
    }
    PyBuffer_Release(&s_view);
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* CSR search graph                                                   */
/* ------------------------------------------------------------------ */

/* Heap entries mirror heapq's (distance, original-vertex-id) tuples; the row
 * rides along so relaxation never maps ids back to rows. */
typedef struct {
    double dist;
    int64_t id;
    int64_t row;
} HeapEntry;

typedef struct {
    HeapEntry *items;
    Py_ssize_t size;
    Py_ssize_t cap;
} Heap;

static inline int heap_less(const HeapEntry *a, const HeapEntry *b) {
    if (a->dist != b->dist) {
        return a->dist < b->dist;
    }
    return a->id < b->id;
}

static int heap_push(Heap *heap, double dist, int64_t id, int64_t row) {
    if (heap->size == heap->cap) {
        Py_ssize_t cap = heap->cap ? heap->cap * 2 : 256;
        HeapEntry *items = (HeapEntry *)realloc(heap->items,
                                                (size_t)cap * sizeof(HeapEntry));
        if (items == NULL) {
            return -1;
        }
        heap->items = items;
        heap->cap = cap;
    }
    Py_ssize_t i = heap->size++;
    HeapEntry entry = {dist, id, row};
    while (i > 0) {
        Py_ssize_t parent = (i - 1) / 2;
        if (!heap_less(&entry, &heap->items[parent])) {
            break;
        }
        heap->items[i] = heap->items[parent];
        i = parent;
    }
    heap->items[i] = entry;
    return 0;
}

static HeapEntry heap_pop(Heap *heap) {
    HeapEntry top = heap->items[0];
    HeapEntry last = heap->items[--heap->size];
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= heap->size) {
            break;
        }
        if (child + 1 < heap->size &&
            heap_less(&heap->items[child + 1], &heap->items[child])) {
            child++;
        }
        if (!heap_less(&heap->items[child], &last)) {
            break;
        }
        heap->items[i] = heap->items[child];
        i = child;
    }
    heap->items[i] = last;
    return top;
}

enum { S_IDS, S_INDPTR, S_INDICES, S_WEIGHTS, S_NVIEWS };

typedef struct {
    int64_t n;
    Py_buffer views[S_NVIEWS];
    const int64_t *ids;
    const int64_t *indptr;
    const int64_t *indices;
    const double *weights;
    /* Reusable per-query scratch (validity tracked by query stamps, so a new
     * query never pays an O(n) reset).  Guarded by the GIL. */
    int64_t stamp;
    int64_t *dist_stamp_f, *dist_stamp_b;
    int64_t *settled_stamp_f, *settled_stamp_b;
    double *dist_f, *dist_b;
    double *settled_val;
    Heap heap_f, heap_b;
} SearchGraph;

static void search_destructor(PyObject *capsule) {
    SearchGraph *g = (SearchGraph *)PyCapsule_GetPointer(capsule, SEARCH_CAPSULE);
    if (g != NULL) {
        release_views(g->views, S_NVIEWS);
        free(g->dist_stamp_f);
        free(g->dist_stamp_b);
        free(g->settled_stamp_f);
        free(g->settled_stamp_b);
        free(g->dist_f);
        free(g->dist_b);
        free(g->settled_val);
        free(g->heap_f.items);
        free(g->heap_b.items);
        free(g);
    }
}

/* search_build(ids, indptr, indices, weights) -> graph capsule */
static PyObject *search_build(PyObject *self, PyObject *args) {
    PyObject *objs[S_NVIEWS];
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOO", &objs[S_IDS], &objs[S_INDPTR],
                          &objs[S_INDICES], &objs[S_WEIGHTS])) {
        return NULL;
    }
    SearchGraph *g = (SearchGraph *)calloc(1, sizeof(SearchGraph));
    if (g == NULL) {
        return PyErr_NoMemory();
    }
    const void *ptrs[S_NVIEWS];
    Py_ssize_t counts[S_NVIEWS];
    for (int i = 0; i < S_NVIEWS; i++) {
        if (borrow_buffer(objs[i], &g->views[i], &ptrs[i], &counts[i]) < 0) {
            release_views(g->views, i);
            free(g);
            return NULL;
        }
    }
    g->n = counts[S_IDS];
    g->ids = (const int64_t *)ptrs[S_IDS];
    g->indptr = (const int64_t *)ptrs[S_INDPTR];
    g->indices = (const int64_t *)ptrs[S_INDICES];
    g->weights = (const double *)ptrs[S_WEIGHTS];
    int valid = counts[S_INDPTR] == g->n + 1 &&
                counts[S_INDICES] == counts[S_WEIGHTS] &&
                (g->n == 0 || g->indptr[g->n] == counts[S_INDICES]);
    if (valid) {
        for (int64_t e = 0; e < counts[S_INDICES]; e++) {
            if (g->indices[e] < 0 || g->indices[e] >= g->n) {
                valid = 0;
                break;
            }
        }
    }
    if (!valid) {
        release_views(g->views, S_NVIEWS);
        free(g);
        PyErr_SetString(PyExc_ValueError, "search-graph CSR arrays are inconsistent");
        return NULL;
    }
    PyObject *capsule = PyCapsule_New(g, SEARCH_CAPSULE, search_destructor);
    if (capsule == NULL) {
        release_views(g->views, S_NVIEWS);
        free(g);
    }
    return capsule;
}

static SearchGraph *search_from_arg(PyObject *arg) {
    return (SearchGraph *)PyCapsule_GetPointer(arg, SEARCH_CAPSULE);
}

static int search_scratch(SearchGraph *g) {
    if (g->dist_stamp_f != NULL) {
        return 0;
    }
    size_t n = (size_t)(g->n > 0 ? g->n : 1);
    g->dist_stamp_f = (int64_t *)calloc(n, sizeof(int64_t));
    g->dist_stamp_b = (int64_t *)calloc(n, sizeof(int64_t));
    g->settled_stamp_f = (int64_t *)calloc(n, sizeof(int64_t));
    g->settled_stamp_b = (int64_t *)calloc(n, sizeof(int64_t));
    g->dist_f = (double *)malloc(n * sizeof(double));
    g->dist_b = (double *)malloc(n * sizeof(double));
    g->settled_val = (double *)malloc(n * sizeof(double));
    if (g->dist_stamp_f == NULL || g->dist_stamp_b == NULL ||
        g->settled_stamp_f == NULL || g->settled_stamp_b == NULL ||
        g->dist_f == NULL || g->dist_b == NULL || g->settled_val == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    g->stamp = 0;
    return 0;
}

/* Bidirectional search body; `ch_mode` selects the stopping rule:
 *   0 -> GraphSnapshot.bidijkstra:  stop when best <= top_f + top_b
 *   1 -> ShortcutStore.query:       stop when min(top_f, top_b) >= best
 * Both are literal ports (same alternation, same lazy deletion, same float
 * arithmetic) of the Python references. */
static double search_bidirectional(SearchGraph *g, int64_t rs, int64_t rt,
                                   int ch_mode, int *failed) {
    *failed = 0;
    if (rs == rt) {
        return 0.0;
    }
    if (search_scratch(g) < 0) {
        *failed = 1;
        return 0.0;
    }
    int64_t stamp = ++g->stamp;
    Heap *hf = &g->heap_f;
    Heap *hb = &g->heap_b;
    hf->size = 0;
    hb->size = 0;
    g->dist_f[rs] = 0.0;
    g->dist_stamp_f[rs] = stamp;
    g->dist_b[rt] = 0.0;
    g->dist_stamp_b[rt] = stamp;
    if (heap_push(hf, 0.0, g->ids[rs], rs) < 0 ||
        heap_push(hb, 0.0, g->ids[rt], rt) < 0) {
        PyErr_NoMemory();
        *failed = 1;
        return 0.0;
    }
    double best = Py_HUGE_VAL;
    while (hf->size > 0 || hb->size > 0) {
        double top_f = hf->size ? hf->items[0].dist : Py_HUGE_VAL;
        double top_b = hb->size ? hb->items[0].dist : Py_HUGE_VAL;
        if (ch_mode) {
            if ((top_f <= top_b ? top_f : top_b) >= best) {
                break;
            }
        } else {
            if (best <= top_f + top_b) {
                break;
            }
        }
        int forward = top_f <= top_b && hf->size > 0;
        if (!forward && hb->size == 0) {
            break;
        }
        Heap *heap = forward ? hf : hb;
        int64_t *settled_stamp = forward ? g->settled_stamp_f : g->settled_stamp_b;
        int64_t *dist_stamp = forward ? g->dist_stamp_f : g->dist_stamp_b;
        double *dist = forward ? g->dist_f : g->dist_b;
        int64_t *other_dist_stamp = forward ? g->dist_stamp_b : g->dist_stamp_f;
        double *other_dist = forward ? g->dist_b : g->dist_f;
        HeapEntry top = heap_pop(heap);
        int64_t v = top.row;
        if (settled_stamp[v] == stamp) {
            continue;
        }
        settled_stamp[v] = stamp;
        if (other_dist_stamp[v] == stamp) {
            double candidate = top.dist + other_dist[v];
            if (candidate < best) {
                best = candidate;
            }
        }
        const int64_t *nbr = g->indices + g->indptr[v];
        const int64_t *nbr_end = g->indices + g->indptr[v + 1];
        const double *wgt = g->weights + g->indptr[v];
        for (; nbr < nbr_end; nbr++, wgt++) {
            int64_t u = *nbr;
            double nd = top.dist + *wgt;
            double du = (dist_stamp[u] == stamp) ? dist[u] : Py_HUGE_VAL;
            if (nd < du) {
                dist[u] = nd;
                dist_stamp[u] = stamp;
                if (heap_push(heap, nd, g->ids[u], u) < 0) {
                    PyErr_NoMemory();
                    *failed = 1;
                    return 0.0;
                }
                if (other_dist_stamp[u] == stamp) {
                    double candidate = nd + other_dist[u];
                    if (candidate < best) {
                        best = candidate;
                    }
                }
            }
        }
    }
    return best;
}

/* bidijkstra(graph, rs, rt, ch_mode) -> distance */
static PyObject *search_query(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "search(graph, rs, rt, ch_mode) takes 4 arguments");
        return NULL;
    }
    SearchGraph *g = search_from_arg(args[0]);
    if (g == NULL) {
        return NULL;
    }
    long rs = PyLong_AsLong(args[1]);
    long rt = PyLong_AsLong(args[2]);
    long ch_mode = PyLong_AsLong(args[3]);
    if ((rs == -1 || rt == -1 || ch_mode == -1) && PyErr_Occurred()) {
        return NULL;
    }
    if (rs < 0 || rs >= g->n || rt < 0 || rt >= g->n) {
        PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
        return NULL;
    }
    int failed;
    double result = search_bidirectional(g, rs, rt, ch_mode != 0, &failed);
    if (failed) {
        return NULL;
    }
    return PyFloat_FromDouble(result);
}

/* query_pairs(graph, s_rows, t_rows, out, ch_mode): the scalar search looped
 * in C -- identical per-pair results, no per-pair Python. */
static PyObject *search_query_pairs(PyObject *self, PyObject *const *args,
                                    Py_ssize_t nargs) {
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "query_pairs(graph, s_rows, t_rows, out, ch_mode) takes 5 arguments");
        return NULL;
    }
    SearchGraph *g = search_from_arg(args[0]);
    if (g == NULL) {
        return NULL;
    }
    long ch_mode = PyLong_AsLong(args[4]);
    if (ch_mode == -1 && PyErr_Occurred()) {
        return NULL;
    }
    Py_buffer s_view, t_view, out_view;
    if (PyObject_GetBuffer(args[1], &s_view, PyBUF_C_CONTIGUOUS) < 0) {
        return NULL;
    }
    if (pair_buffers(args[2], args[3], &t_view, &out_view) < 0) {
        PyBuffer_Release(&s_view);
        return NULL;
    }
    if (s_view.itemsize != 8 || s_view.len != t_view.len) {
        PyBuffer_Release(&s_view);
        PyBuffer_Release(&t_view);
        PyBuffer_Release(&out_view);
        PyErr_SetString(PyExc_TypeError,
                        "s_rows/t_rows/out must be matching 8-byte buffers");
        return NULL;
    }
    const int64_t *s_rows = (const int64_t *)s_view.buf;
    const int64_t *t_rows = (const int64_t *)t_view.buf;
    double *out = (double *)out_view.buf;
    Py_ssize_t m = s_view.len / 8;
    int failed = 0;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t rs = s_rows[i];
        int64_t rt = t_rows[i];
        if (rs < 0 || rs >= g->n || rt < 0 || rt >= g->n) {
            PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
            failed = 1;
            break;
        }
        out[i] = search_bidirectional(g, rs, rt, ch_mode != 0, &failed);
        if (failed) {
            break;
        }
    }
    PyBuffer_Release(&s_view);
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* one_to_many(graph, rs, t_rows, out): one truncated Dijkstra from rs -- a
 * literal port of GraphSnapshot._dijkstra + one_to_many.  Settle-time
 * distances are recorded separately so the output matches the reference's
 * `settled` dict byte for byte. */
static PyObject *search_one_to_many(PyObject *self, PyObject *const *args,
                                    Py_ssize_t nargs) {
    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "one_to_many(graph, rs, t_rows, out) takes 4 arguments");
        return NULL;
    }
    SearchGraph *g = search_from_arg(args[0]);
    if (g == NULL) {
        return NULL;
    }
    long rs = PyLong_AsLong(args[1]);
    if (rs == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (rs < 0 || rs >= g->n) {
        PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
        return NULL;
    }
    Py_buffer t_view, out_view;
    if (pair_buffers(args[2], args[3], &t_view, &out_view) < 0) {
        return NULL;
    }
    const int64_t *t_rows = (const int64_t *)t_view.buf;
    double *out = (double *)out_view.buf;
    Py_ssize_t m = t_view.len / 8;
    int failed = 0;
    if (search_scratch(g) < 0) {
        failed = 1;
    }
    if (!failed) {
        int64_t stamp = ++g->stamp;
        /* dist_stamp_b doubles as the "is a pending target" marker. */
        int64_t remaining = 0;
        for (Py_ssize_t i = 0; i < m; i++) {
            int64_t rt = t_rows[i];
            if (rt < 0 || rt >= g->n) {
                PyErr_SetString(PyExc_IndexError, "search-graph row out of range");
                failed = 1;
                break;
            }
            if (g->dist_stamp_b[rt] != stamp) {
                g->dist_stamp_b[rt] = stamp;
                remaining++;
            }
        }
        if (!failed) {
            Heap *heap = &g->heap_f;
            heap->size = 0;
            g->dist_f[rs] = 0.0;
            g->dist_stamp_f[rs] = stamp;
            if (heap_push(heap, 0.0, g->ids[rs], rs) < 0) {
                PyErr_NoMemory();
                failed = 1;
            }
            while (!failed && heap->size > 0) {
                HeapEntry top = heap_pop(heap);
                int64_t v = top.row;
                if (g->settled_stamp_f[v] == stamp) {
                    continue;
                }
                g->settled_stamp_f[v] = stamp;
                g->settled_val[v] = top.dist;
                if (g->dist_stamp_b[v] == stamp) {
                    g->dist_stamp_b[v] = stamp - 1; /* discard from remaining */
                    if (--remaining == 0) {
                        break;
                    }
                }
                const int64_t *nbr = g->indices + g->indptr[v];
                const int64_t *nbr_end = g->indices + g->indptr[v + 1];
                const double *wgt = g->weights + g->indptr[v];
                for (; nbr < nbr_end; nbr++, wgt++) {
                    int64_t u = *nbr;
                    double nd = top.dist + *wgt;
                    double du = (g->dist_stamp_f[u] == stamp) ? g->dist_f[u]
                                                              : Py_HUGE_VAL;
                    if (nd < du) {
                        g->dist_f[u] = nd;
                        g->dist_stamp_f[u] = stamp;
                        if (heap_push(heap, nd, g->ids[u], u) < 0) {
                            PyErr_NoMemory();
                            failed = 1;
                            break;
                        }
                    }
                }
            }
            if (!failed) {
                for (Py_ssize_t i = 0; i < m; i++) {
                    int64_t rt = t_rows[i];
                    out[i] = (g->settled_stamp_f[rt] == stamp) ? g->settled_val[rt]
                                                               : Py_HUGE_VAL;
                }
            }
        }
    }
    PyBuffer_Release(&t_view);
    PyBuffer_Release(&out_view);
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Maintenance kernels (label_row / shortcut_row)                     */
/* ------------------------------------------------------------------ */

/* A dict the kernels may read with PyDict_GetItem: an exact dict, or a
 * subclass whose __getitem__ is dict's own.  (A heap subclass always gets
 * the generic mp_subscript slot, so the check is on the looked-up method.)
 * A LazyDict that has not materialised overrides __getitem__, so it is
 * refused here instead of being read as the empty dict it still is
 * underneath. */
static int require_plain_dict(PyObject *obj, const char *name) {
    if (PyDict_CheckExact(obj)) {
        return 0;
    }
    if (PyDict_Check(obj)) {
        static PyObject *getitem_name = NULL;
        if (getitem_name == NULL) {
            getitem_name = PyUnicode_InternFromString("__getitem__");
            if (getitem_name == NULL) {
                return -1;
            }
        }
        PyObject *own = _PyType_Lookup(Py_TYPE(obj), getitem_name);
        if (own != NULL && own == _PyType_Lookup(&PyDict_Type, getitem_name)) {
            return 0;
        }
    }
    PyErr_Format(PyExc_TypeError,
                 "%s must be a materialised dict, not %.100s", name,
                 Py_TYPE(obj)->tp_name);
    return -1;
}

/* Vertex ids must be exact ints: their hash/compare run no Python code, so
 * the borrowed references held across lookups stay valid. */
static int require_vertex(PyObject *obj, const char *name) {
    if (PyLong_CheckExact(obj)) {
        return 0;
    }
    PyErr_Format(PyExc_TypeError, "%s must be an int vertex id, not %.100s", name,
                 Py_TYPE(obj)->tp_name);
    return -1;
}

static int require_list(PyObject *obj, const char *name) {
    if (PyList_CheckExact(obj)) {
        return 0;
    }
    PyErr_Format(PyExc_TypeError, "%s must be a list, not %.100s", name,
                 Py_TYPE(obj)->tp_name);
    return -1;
}

/* d[key] as a borrowed reference; KeyError (or the lookup's own error) when
 * absent. */
static PyObject *dict_item(PyObject *d, PyObject *key) {
    PyObject *value = PyDict_GetItemWithError(d, key);
    if (value == NULL && !PyErr_Occurred()) {
        PyErr_SetObject(PyExc_KeyError, key);
    }
    return value;
}

/* The float64 value of an exact float; -1 with TypeError otherwise. */
static int float_value(PyObject *obj, const char *name, double *out) {
    if (!PyFloat_CheckExact(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a float, not %.100s", name,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyFloat_AS_DOUBLE(obj);
    return 0;
}

/* d.get(key, inf) as a float64 (d already checked to be a plain dict). */
static int dict_float_or_inf(PyObject *d, PyObject *key, const char *name,
                             double *out) {
    PyObject *value = PyDict_GetItemWithError(d, key);
    if (value == NULL) {
        if (PyErr_Occurred()) {
            return -1;
        }
        *out = Py_HUGE_VAL;
        return 0;
    }
    return float_value(value, name, out);
}

/* rows[i] as a float64 with an IndexError past the end (rows is a list). */
static int row_float(PyObject *row, Py_ssize_t i, double *out) {
    if (i < 0 || i >= PyList_GET_SIZE(row)) {
        PyErr_SetString(PyExc_IndexError, "distance array index out of range");
        return -1;
    }
    return float_value(PyList_GET_ITEM(row, i), "distance entry", out);
}

typedef struct {
    Py_ssize_t depth;
    double sc;
    PyObject *row; /* owned dis[x]; NULL when never read (depth 0) */
} LabelNeighbor;

static void free_neighbors(LabelNeighbor *nb, Py_ssize_t k) {
    for (Py_ssize_t i = 0; i < k; i++) {
        Py_XDECREF(nb[i].row);
    }
    PyMem_Free(nb);
}

/* label_row(v, ancestors, depth, neighbors, shortcuts, dis, pos) -> changed
 *
 * H2HLabels.recompute_vertex in one call: with anc = ancestors[v] (m
 * entries) and N = neighbors[v],
 *
 *   new[j] = min over x in N of shortcuts[v][x] + (dis[x][j] if depth[x] > j
 *                                                  else dis[anc[j]][depth[x]])
 *
 * for j < m - 1 and new[m - 1] = 0.0; stores dis[v] = new and
 * pos[v] = [depth[x] for x in N] + [m - 1], and returns whether new differs
 * from the previous dis[v] (True when there was none) -- the test the
 * top-down update prunes its descent with. */
static PyObject *label_row(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    (void)self;
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError,
                        "label_row(v, ancestors, depth, neighbors, shortcuts, dis, "
                        "pos) takes 7 arguments");
        return NULL;
    }
    PyObject *v = args[0];
    static const char *names[] = {"ancestors", "depth", "neighbors", "shortcuts",
                                  "dis", "pos"};
    if (require_vertex(v, "v") < 0) {
        return NULL;
    }
    for (int i = 1; i < 7; i++) {
        if (require_plain_dict(args[i], names[i - 1]) < 0) {
            return NULL;
        }
    }
    PyObject *depth = args[2], *dis = args[5], *pos = args[6];
    PyObject *anc = dict_item(args[1], v);
    if (anc == NULL || require_list(anc, "ancestors[v]") < 0) {
        return NULL;
    }
    PyObject *nbrs = dict_item(args[3], v);
    if (nbrs == NULL || require_list(nbrs, "neighbors[v]") < 0) {
        return NULL;
    }
    PyObject *sc_v = dict_item(args[4], v);
    if (sc_v == NULL || require_plain_dict(sc_v, "shortcuts[v]") < 0) {
        return NULL;
    }
    Py_ssize_t m = PyList_GET_SIZE(anc);
    Py_ssize_t k = PyList_GET_SIZE(nbrs);
    if (m < 1) {
        PyErr_SetString(PyExc_ValueError, "ancestors[v] must not be empty");
        return NULL;
    }
    LabelNeighbor *nb = PyMem_Calloc(k > 0 ? (size_t)k : 1, sizeof(LabelNeighbor));
    if (nb == NULL) {
        return PyErr_NoMemory();
    }
    /* Both result lists are allocated before any borrowed read is held, so
     * no collection can run between a lookup and its use. */
    PyObject *anc_row = NULL, *old_row = NULL;
    PyObject *new_row = PyList_New(m);
    PyObject *pos_row = PyList_New(k + 1);
    if (new_row == NULL || pos_row == NULL) {
        goto fail;
    }
    Py_INCREF(anc);
    /* Each neighbour's depth, shortcut value and row, fetched once. */
    for (Py_ssize_t i = 0; i < k; i++) {
        PyObject *x = PyList_GET_ITEM(nbrs, i);
        if (require_vertex(x, "neighbors[v] entry") < 0) {
            goto fail;
        }
        PyObject *dx = dict_item(depth, x);
        if (dx == NULL) {
            goto fail;
        }
        nb[i].depth = PyLong_AsSsize_t(dx);
        if (nb[i].depth == -1 && PyErr_Occurred()) {
            goto fail;
        }
        if (nb[i].depth < 0) {
            PyErr_SetString(PyExc_ValueError, "tree depths must be non-negative");
            goto fail;
        }
        PyObject *scx = dict_item(sc_v, x);
        if (scx == NULL || float_value(scx, "shortcut", &nb[i].sc) < 0) {
            goto fail;
        }
        if (m > 1 && nb[i].depth > 0) {
            PyObject *row = dict_item(dis, x);
            if (row == NULL || require_list(row, "dis[x]") < 0) {
                goto fail;
            }
            Py_INCREF(row);
            nb[i].row = row;
        }
    }
    for (Py_ssize_t j = 0; j < m - 1; j++) {
        Py_CLEAR(anc_row); /* dis[anc[j]], fetched on first use */
        double best = Py_HUGE_VAL;
        for (Py_ssize_t i = 0; i < k; i++) {
            double d;
            if (nb[i].depth > j) {
                if (row_float(nb[i].row, j, &d) < 0) {
                    goto fail;
                }
            } else {
                if (anc_row == NULL) {
                    PyObject *a = PyList_GET_ITEM(anc, j);
                    if (require_vertex(a, "ancestors[v] entry") < 0) {
                        goto fail;
                    }
                    PyObject *row = dict_item(dis, a);
                    if (row == NULL || require_list(row, "dis[ancestor]") < 0) {
                        goto fail;
                    }
                    Py_INCREF(row);
                    anc_row = row;
                }
                if (row_float(anc_row, nb[i].depth, &d) < 0) {
                    goto fail;
                }
            }
            double candidate = nb[i].sc + d;
            if (candidate < best) {
                best = candidate;
            }
        }
        PyObject *value = PyFloat_FromDouble(best);
        if (value == NULL) {
            goto fail;
        }
        PyList_SET_ITEM(new_row, j, value);
    }
    PyObject *zero = PyFloat_FromDouble(0.0);
    if (zero == NULL) {
        goto fail;
    }
    PyList_SET_ITEM(new_row, m - 1, zero);
    for (Py_ssize_t i = 0; i <= k; i++) {
        PyObject *p = PyLong_FromSsize_t(i < k ? nb[i].depth : m - 1);
        if (p == NULL) {
            goto fail;
        }
        PyList_SET_ITEM(pos_row, i, p);
    }
    old_row = PyDict_GetItemWithError(dis, v);
    if (old_row == NULL && PyErr_Occurred()) {
        goto fail;
    }
    Py_XINCREF(old_row);
    int changed = old_row == NULL ? 1 : PyObject_RichCompareBool(old_row, new_row, Py_NE);
    if (changed < 0 || PyDict_SetItem(dis, v, new_row) < 0 ||
        PyDict_SetItem(pos, v, pos_row) < 0) {
        goto fail;
    }
    Py_XDECREF(old_row);
    Py_DECREF(new_row);
    Py_DECREF(pos_row);
    Py_XDECREF(anc_row);
    Py_DECREF(anc);
    free_neighbors(nb, k);
    return PyBool_FromLong(changed);
fail:
    /* PyList_New slots not yet filled are NULL, which list dealloc skips. */
    Py_XDECREF(old_row);
    Py_XDECREF(new_row);
    Py_XDECREF(pos_row);
    Py_XDECREF(anc_row);
    if (new_row != NULL && pos_row != NULL) {
        Py_DECREF(anc);
    }
    free_neighbors(nb, k);
    return NULL;
}

/* shortcut_row(v, neighbors, shortcuts, edges, supporters) -> changed list
 *
 * The per-vertex loop of update_shortcuts_bottom_up in one call: for every
 * u in neighbors[v], in order,
 *
 *   value = edges.get(u, inf)
 *   for x in supporters.get((min(v, u), max(v, u)), ()):
 *       value = min(value, shortcuts[x].get(v, inf) + shortcuts[x].get(u, inf))
 *
 * (recompute_shortcut), and when value != shortcuts[v][u] it is stored and
 * u appended to the returned list.  ``edges`` is v's adjacency row of the
 * graph (neighbour -> current weight). */
static PyObject *shortcut_row(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs) {
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "shortcut_row(v, neighbors, shortcuts, edges, supporters) "
                        "takes 5 arguments");
        return NULL;
    }
    PyObject *v = args[0];
    static const char *names[] = {"neighbors", "shortcuts", "edges", "supporters"};
    if (require_vertex(v, "v") < 0) {
        return NULL;
    }
    for (int i = 1; i < 5; i++) {
        if (require_plain_dict(args[i], names[i - 1]) < 0) {
            return NULL;
        }
    }
    PyObject *shortcuts = args[2], *edges = args[3], *supporters = args[4];
    long long v_id = PyLong_AsLongLong(v);
    if (v_id == -1 && PyErr_Occurred()) {
        return NULL;
    }
    PyObject *nbrs = dict_item(args[1], v);
    if (nbrs == NULL || require_list(nbrs, "neighbors[v]") < 0) {
        return NULL;
    }
    PyObject *sc_v = dict_item(shortcuts, v);
    if (sc_v == NULL || require_plain_dict(sc_v, "shortcuts[v]") < 0) {
        return NULL;
    }
    PyObject *changed = PyList_New(0);
    if (changed == NULL) {
        return NULL;
    }
    /* Held across the loop: building each pair key allocates a tuple, and
     * the collection that can trigger may run arbitrary finalizers. */
    Py_INCREF(nbrs);
    Py_INCREF(sc_v);
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(nbrs); i++) {
        PyObject *u = PyList_GET_ITEM(nbrs, i);
        if (require_vertex(u, "neighbors[v] entry") < 0) {
            Py_CLEAR(changed);
            break;
        }
        Py_INCREF(u);
        long long u_id = PyLong_AsLongLong(u);
        if (u_id == -1 && PyErr_Occurred()) {
            goto fail_u;
        }
        double value;
        if (dict_float_or_inf(edges, u, "edge weight", &value) < 0) {
            goto fail_u;
        }
        PyObject *key = u_id < v_id ? PyTuple_Pack(2, u, v) : PyTuple_Pack(2, v, u);
        if (key == NULL) {
            goto fail_u;
        }
        PyObject *sups = PyDict_GetItemWithError(supporters, key);
        Py_DECREF(key);
        if (sups == NULL && PyErr_Occurred()) {
            goto fail_u;
        }
        if (sups != NULL) {
            if (require_list(sups, "supporters[pair]") < 0) {
                goto fail_u;
            }
            Py_INCREF(sups);
            for (Py_ssize_t s = 0; s < PyList_GET_SIZE(sups); s++) {
                PyObject *x = PyList_GET_ITEM(sups, s);
                PyObject *sc_x = NULL;
                double a, b;
                if (require_vertex(x, "supporter") < 0 ||
                    (sc_x = dict_item(shortcuts, x)) == NULL ||
                    require_plain_dict(sc_x, "shortcuts[x]") < 0 ||
                    dict_float_or_inf(sc_x, v, "shortcut", &a) < 0 ||
                    dict_float_or_inf(sc_x, u, "shortcut", &b) < 0) {
                    Py_DECREF(sups);
                    goto fail_u;
                }
                double candidate = a + b;
                if (candidate < value) {
                    value = candidate;
                }
            }
            Py_DECREF(sups);
        }
        PyObject *current = dict_item(sc_v, u);
        double old;
        if (current == NULL || float_value(current, "shortcut", &old) < 0) {
            goto fail_u;
        }
        if (value != old) {
            PyObject *stored = PyFloat_FromDouble(value);
            if (stored == NULL) {
                goto fail_u;
            }
            int rc = PyDict_SetItem(sc_v, u, stored);
            Py_DECREF(stored);
            if (rc < 0 || PyList_Append(changed, u) < 0) {
                goto fail_u;
            }
        }
        Py_DECREF(u);
        continue;
    fail_u:
        Py_DECREF(u);
        Py_CLEAR(changed);
        break;
    }
    Py_DECREF(nbrs);
    Py_DECREF(sc_v);
    return changed;
}

static PyMethodDef methods[] = {
    {"build", label_build, METH_VARARGS,
     "build(mask, comp, first, logs, tbl_flat, tbl_off, pos_indptr, pos_data, "
     "dis_indptr, dis_data) -> label-store capsule (buffers borrowed, not copied)"},
    {"query", (PyCFunction)label_query, METH_FASTCALL,
     "query(store, rs, rt) -> distance"},
    {"one_to_many", (PyCFunction)label_one_to_many, METH_FASTCALL,
     "one_to_many(store, rs, t_rows, out) -> None (fills out)"},
    {"query_pairs", (PyCFunction)label_query_pairs, METH_FASTCALL,
     "query_pairs(store, s_rows, t_rows, out) -> None (fills out)"},
    {"search_build", search_build, METH_VARARGS,
     "search_build(ids, indptr, indices, weights) -> CSR search-graph capsule "
     "(buffers borrowed, not copied)"},
    {"search_query", (PyCFunction)search_query, METH_FASTCALL,
     "search_query(graph, rs, rt, ch_mode) -> bidirectional-search distance"},
    {"search_query_pairs", (PyCFunction)search_query_pairs, METH_FASTCALL,
     "search_query_pairs(graph, s_rows, t_rows, out, ch_mode) -> None (fills out)"},
    {"search_one_to_many", (PyCFunction)search_one_to_many, METH_FASTCALL,
     "search_one_to_many(graph, rs, t_rows, out) -> None (truncated Dijkstra)"},
    {"label_row", (PyCFunction)label_row, METH_FASTCALL,
     "label_row(v, ancestors, depth, neighbors, shortcuts, dis, pos) -> whether "
     "v's distance array changed (new arrays stored into dis and pos)"},
    {"shortcut_row", (PyCFunction)shortcut_row, METH_FASTCALL,
     "shortcut_row(v, neighbors, shortcuts, edges, supporters) -> neighbours "
     "whose shortcut from v changed (stored into shortcuts[v])"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_labelkernel", NULL, -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__labelkernel(void) { return PyModule_Create(&moduledef); }
