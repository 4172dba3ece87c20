/* Accelerated exploration kernel: the compiled twin of _pycore.PyKernel.
 *
 * One KernelState holds the interned configuration rows (fixed-width
 * uint32 fields, one per process local state / process status / object
 * state — the packed encoding of repro.analysis.kernel.encoding), an
 * open-addressing row hash table, the invoke table per (pid, local) and
 * the delta table per (pid, local, object code & footprint), and the
 * recorded adjacency lists. The BFS (run_bfs) runs entirely in C;
 * protocol semantics reach it through the explorer's callbacks, called
 * exactly once per key on a map miss and memoized forever after — an
 * empty map slot is the not-yet-seen sentinel:
 *
 *   resolve_invoke(pid, local) -> (obj_index, mask): the object the
 *     process is poised at and the footprint of its operation, the
 *     object code bits it reads or writes (mask = (1 << 24) - 1 keys
 *     on the whole code);
 *   compute_deltas(pid, local, obj_index, obj_code) -> ((eid, new_local,
 *     new_status, new_obj), ...): the outcomes from the first object
 *     code seen under the masked key. new_obj equals obj_code outside
 *     the mask, so a successor's object field is
 *     (src_obj & ~mask) | (new_obj & mask) for every code in the class.
 *
 * run_bfs walks step for step like the python backend's: each
 * unexpanded frontier cid is expanded by kernel_expand_new (a memo hit,
 * or a callback on the first miss), then its adjacency is scanned under
 * the same budget rules. So configuration ids, edge order, budget
 * truncation, orders, parents, and digests are byte-identical to the
 * python backend.
 *
 * The low-level helpers (intbuf, u64map, grow, intern) return -1 on
 * allocation failure WITHOUT setting a Python error; the methods that
 * call them raise MemoryError after the fact.
 *
 * Built best-effort: setup.py marks the extension optional, and
 * `make kernel-ext` (repro.analysis.kernel._build) compiles it in
 * place with the running interpreter's headers. Absence of this module
 * is never an error — kernel selection falls back to "python" unless
 * the compiled backend was requested explicitly.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

/* Must match repro.analysis.kernel.encoding.FIELD_BITS: slot codes are
 * allocated below 1 << 24, so they always fit a uint32 field. */
#define FIELD_BITS 24

/* ---------------------------------------------------------------------
 * Growable int32 buffer
 * ------------------------------------------------------------------ */

typedef struct {
    int32_t *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} IntBuf;

static int
intbuf_init(IntBuf *buf, Py_ssize_t cap)
{
    buf->data = PyMem_RawMalloc((size_t)cap * sizeof(int32_t));
    if (buf->data == NULL) {
        return -1;
    }
    buf->len = 0;
    buf->cap = cap;
    return 0;
}

static void
intbuf_free(IntBuf *buf)
{
    PyMem_RawFree(buf->data);
    buf->data = NULL;
    buf->len = buf->cap = 0;
}

static int
intbuf_reserve(IntBuf *buf, Py_ssize_t extra)
{
    if (buf->len + extra <= buf->cap) {
        return 0;
    }
    Py_ssize_t cap = buf->cap ? buf->cap : 8;
    while (cap < buf->len + extra) {
        cap *= 2;
    }
    int32_t *data = PyMem_RawRealloc(buf->data, (size_t)cap * sizeof(int32_t));
    if (data == NULL) {
        return -1;
    }
    buf->data = data;
    buf->cap = cap;
    return 0;
}

static inline int
intbuf_push(IntBuf *buf, int32_t value)
{
    if (buf->len >= buf->cap && intbuf_reserve(buf, 1) < 0) {
        return -1;
    }
    buf->data[buf->len++] = value;
    return 0;
}

/* ---------------------------------------------------------------------
 * uint64 -> int32 open-addressing map (invoke and delta tables)
 * ------------------------------------------------------------------ */

typedef struct {
    uint64_t key;
    int32_t value; /* -1 marks an empty slot; stored values are >= 0 */
} U64Entry;

typedef struct {
    U64Entry *entries;
    Py_ssize_t size; /* power of two */
    Py_ssize_t count;
} U64Map;

static int
u64map_init(U64Map *map, Py_ssize_t size)
{
    map->entries = PyMem_RawMalloc((size_t)size * sizeof(U64Entry));
    if (map->entries == NULL) {
        return -1;
    }
    for (Py_ssize_t i = 0; i < size; i++) {
        map->entries[i].value = -1;
    }
    map->size = size;
    map->count = 0;
    return 0;
}

static void
u64map_free(U64Map *map)
{
    PyMem_RawFree(map->entries);
    map->entries = NULL;
    map->size = map->count = 0;
}

static inline uint64_t
u64_mix(uint64_t key)
{
    /* splitmix64 finalizer: full avalanche over the packed key bits. */
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return key;
}

static inline int32_t
u64map_get(const U64Map *map, uint64_t key)
{
    Py_ssize_t mask = map->size - 1;
    Py_ssize_t index = (Py_ssize_t)(u64_mix(key) & (uint64_t)mask);
    for (;;) {
        const U64Entry *entry = &map->entries[index];
        if (entry->value < 0) {
            return -1;
        }
        if (entry->key == key) {
            return entry->value;
        }
        index = (index + 1) & mask;
    }
}

static int
u64map_set(U64Map *map, uint64_t key, int32_t value)
{
    if (map->count * 3 >= map->size * 2) {
        Py_ssize_t new_size = map->size * 2;
        U64Entry *old = map->entries;
        Py_ssize_t old_size = map->size;
        if (u64map_init(map, new_size) < 0) {
            map->entries = old;
            map->size = old_size;
            return -1;
        }
        for (Py_ssize_t i = 0; i < old_size; i++) {
            if (old[i].value >= 0) {
                Py_ssize_t mask = map->size - 1;
                Py_ssize_t index =
                    (Py_ssize_t)(u64_mix(old[i].key) & (uint64_t)mask);
                while (map->entries[index].value >= 0) {
                    index = (index + 1) & mask;
                }
                map->entries[index] = old[i];
                map->count++;
            }
        }
        PyMem_RawFree(old);
    }
    Py_ssize_t mask = map->size - 1;
    Py_ssize_t index = (Py_ssize_t)(u64_mix(key) & (uint64_t)mask);
    for (;;) {
        U64Entry *entry = &map->entries[index];
        if (entry->value < 0) {
            entry->key = key;
            entry->value = value;
            map->count++;
            return 0;
        }
        if (entry->key == key) {
            entry->value = value;
            return 0;
        }
        index = (index + 1) & mask;
    }
}

/* ---------------------------------------------------------------------
 * Delta sets: the memoized outcomes of one (pid, local, obj_code) key
 * ------------------------------------------------------------------ */

typedef struct {
    int32_t n;      /* number of outcomes */
    uint32_t *vals; /* n * 4: eid, new_local, new_status, new_obj */
} DeltaSet;

/* What one (pid, local) invokes: the object and the operation's
 * footprint on its code. */
typedef struct {
    int32_t obj_index;
    uint32_t mask;
} InvokeTarget;

/* ---------------------------------------------------------------------
 * KernelState
 * ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    int n_fields;
    int n_processes;
    PyObject *resolve_invoke;
    PyObject *compute_deltas;
    /* Interned rows: row_count * n_fields uint32 codes. */
    uint32_t *rows;
    /* Per-row hash, cached at intern time so table growth re-buckets
     * without rehashing row bytes (the cold-path hot spot). */
    uint64_t *row_hashes;
    Py_ssize_t row_count;
    Py_ssize_t row_cap;
    /* Row hash table: open addressing over cids, -1 empty. */
    int32_t *table;
    Py_ssize_t table_size; /* power of two */
    /* Adjacency per cid: flat [eid, tid, ...]; len < 0 = unexpanded. */
    int32_t **adj;
    int32_t *adj_len;
    U64Map invoke; /* (pid << 24 | local) -> target id */
    InvokeTarget *targets;
    Py_ssize_t target_count;
    Py_ssize_t target_cap;
    /* (pid << 48 | local << 24 | obj & mask) -> delta set id */
    U64Map deltas;
    DeltaSet *delta_sets;
    Py_ssize_t ds_count;
    Py_ssize_t ds_cap;
    /* Scratch rows (n_fields each): stable source copy + successor. */
    uint32_t *src_row;
    uint32_t *scratch;
} KernelState;

static inline uint64_t
row_hash(const uint32_t *row, int n_fields)
{
    /* FNV-1a, one step per uint32 field (field-granular is 4x fewer
     * multiplies than byte-granular and just as well distributed for
     * small slot codes). Internal only — never leaves the process. */
    uint64_t hash = 1469598103934665603ULL;
    for (int i = 0; i < n_fields; i++) {
        hash ^= row[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

static int
kernel_grow_rows(KernelState *self)
{
    Py_ssize_t cap = self->row_cap * 2;
    uint32_t *rows = PyMem_RawRealloc(
        self->rows, (size_t)cap * (size_t)self->n_fields * sizeof(uint32_t));
    if (rows == NULL) {
        return -1;
    }
    self->rows = rows;
    uint64_t *hashes = PyMem_RawRealloc(self->row_hashes,
                                        (size_t)cap * sizeof(uint64_t));
    if (hashes == NULL) {
        return -1;
    }
    self->row_hashes = hashes;
    int32_t **adj = PyMem_RawRealloc(self->adj, (size_t)cap * sizeof(int32_t *));
    if (adj == NULL) {
        return -1;
    }
    self->adj = adj;
    int32_t *adj_len =
        PyMem_RawRealloc(self->adj_len, (size_t)cap * sizeof(int32_t));
    if (adj_len == NULL) {
        return -1;
    }
    self->adj_len = adj_len;
    for (Py_ssize_t i = self->row_cap; i < cap; i++) {
        self->adj[i] = NULL;
        self->adj_len[i] = -1;
    }
    self->row_cap = cap;
    return 0;
}

static int
kernel_grow_table(KernelState *self)
{
    /* Grow 4x: cached row hashes make re-bucketing cheap, so fewer,
     * larger growth steps win on the cold path. */
    Py_ssize_t new_size = self->table_size * 4;
    int32_t *table = PyMem_RawMalloc((size_t)new_size * sizeof(int32_t));
    if (table == NULL) {
        return -1;
    }
    for (Py_ssize_t i = 0; i < new_size; i++) {
        table[i] = -1;
    }
    Py_ssize_t mask = new_size - 1;
    for (Py_ssize_t cid = 0; cid < self->row_count; cid++) {
        Py_ssize_t index =
            (Py_ssize_t)(self->row_hashes[cid] & (uint64_t)mask);
        while (table[index] >= 0) {
            index = (index + 1) & mask;
        }
        table[index] = (int32_t)cid;
    }
    PyMem_RawFree(self->table);
    self->table = table;
    self->table_size = new_size;
    return 0;
}

/* The cid of `row`, interning it if new; -1 on memory error. */
static Py_ssize_t
kernel_intern(KernelState *self, const uint32_t *row)
{
    int n_fields = self->n_fields;
    Py_ssize_t mask = self->table_size - 1;
    uint64_t hash = row_hash(row, n_fields);
    Py_ssize_t index = (Py_ssize_t)(hash & (uint64_t)mask);
    for (;;) {
        int32_t cid = self->table[index];
        if (cid < 0) {
            break;
        }
        if (self->row_hashes[cid] == hash &&
            memcmp(self->rows + (Py_ssize_t)cid * n_fields, row,
                   (size_t)n_fields * sizeof(uint32_t)) == 0) {
            return cid;
        }
        index = (index + 1) & mask;
    }
    Py_ssize_t cid = self->row_count;
    if (cid >= self->row_cap && kernel_grow_rows(self) < 0) {
        return -1;
    }
    memcpy(self->rows + cid * n_fields, row,
           (size_t)n_fields * sizeof(uint32_t));
    self->row_hashes[cid] = hash;
    self->row_count++;
    self->table[index] = (int32_t)cid;
    if (self->row_count * 3 >= self->table_size * 2 &&
        kernel_grow_table(self) < 0) {
        return -1;
    }
    return cid;
}

/* The cid of `row`, or -1 when absent (never interns). */
static Py_ssize_t
kernel_find(const KernelState *self, const uint32_t *row)
{
    int n_fields = self->n_fields;
    Py_ssize_t mask = self->table_size - 1;
    uint64_t hash = row_hash(row, n_fields);
    Py_ssize_t index = (Py_ssize_t)(hash & (uint64_t)mask);
    for (;;) {
        int32_t cid = self->table[index];
        if (cid < 0) {
            return -1;
        }
        if (self->row_hashes[cid] == hash &&
            memcmp(self->rows + (Py_ssize_t)cid * n_fields, row,
                   (size_t)n_fields * sizeof(uint32_t)) == 0) {
            return cid;
        }
        index = (index + 1) & mask;
    }
}

/* Parse a Python sequence of ints into `out` (n_fields uint32 codes). */
static int
kernel_parse_row(KernelState *self, PyObject *codes, uint32_t *out)
{
    PyObject *fast = PySequence_Fast(codes, "expected a sequence of codes");
    if (fast == NULL) {
        return -1;
    }
    if (PySequence_Fast_GET_SIZE(fast) != self->n_fields) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "expected %d codes", self->n_fields);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (int i = 0; i < self->n_fields; i++) {
        long code = PyLong_AsLong(items[i]);
        if (code == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (code < 0 || code >= (1L << FIELD_BITS)) {
            Py_DECREF(fast);
            PyErr_Format(PyExc_ValueError, "code %ld out of range", code);
            return -1;
        }
        out[i] = (uint32_t)code;
    }
    Py_DECREF(fast);
    return 0;
}

/* Parse `outcomes` — a sequence of (eid, new_local, new_status,
 * new_obj) 4-tuples — into a new delta set registered under `dkey`.
 * Returns the delta-set id, -1 with a Python error set. */
static Py_ssize_t
kernel_store_delta_set(KernelState *self, uint64_t dkey, PyObject *outcomes)
{
    PyObject *fast =
        PySequence_Fast(outcomes, "delta outcomes must be a sequence");
    if (fast == NULL) {
        return -1;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    uint32_t *vals = PyMem_RawMalloc((size_t)(n ? n : 1) * 4 * sizeof(uint32_t));
    if (vals == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *entry = items[i];
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 4) {
            PyMem_RawFree(vals);
            Py_DECREF(fast);
            PyErr_SetString(PyExc_TypeError,
                            "delta outcomes must be 4-tuples");
            return -1;
        }
        for (int k = 0; k < 4; k++) {
            long value = PyLong_AsLong(PyTuple_GET_ITEM(entry, k));
            if (value == -1 && PyErr_Occurred()) {
                PyMem_RawFree(vals);
                Py_DECREF(fast);
                return -1;
            }
            if (value < 0 || value > (long)UINT32_MAX) {
                PyMem_RawFree(vals);
                Py_DECREF(fast);
                PyErr_Format(PyExc_ValueError,
                             "delta value %ld out of range", value);
                return -1;
            }
            vals[i * 4 + k] = (uint32_t)value;
        }
    }
    Py_DECREF(fast);
    if (self->ds_count >= self->ds_cap) {
        Py_ssize_t cap = self->ds_cap ? self->ds_cap * 2 : 64;
        DeltaSet *sets =
            PyMem_RawRealloc(self->delta_sets, (size_t)cap * sizeof(DeltaSet));
        if (sets == NULL) {
            PyMem_RawFree(vals);
            PyErr_NoMemory();
            return -1;
        }
        self->delta_sets = sets;
        self->ds_cap = cap;
    }
    Py_ssize_t index = self->ds_count;
    self->delta_sets[index].n = (int32_t)n;
    self->delta_sets[index].vals = vals;
    self->ds_count++;
    if (u64map_set(&self->deltas, dkey, (int32_t)index) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    return index;
}

/* Resolve the delta set for (pid, local, obj_index, obj_code & mask),
 * calling back into Python with the full obj_code on the first miss.
 * Returns the delta-set id, -1 on error. */
static Py_ssize_t
kernel_delta_set(KernelState *self, int pid, uint32_t local, int obj_index,
                 uint32_t obj_code, uint32_t mask)
{
    uint64_t ikey = ((uint64_t)pid << FIELD_BITS) | local;
    uint64_t dkey = (ikey << FIELD_BITS) | (obj_code & mask);
    int32_t dsi = u64map_get(&self->deltas, dkey);
    if (dsi >= 0) {
        return dsi;
    }
    PyObject *result = PyObject_CallFunction(
        self->compute_deltas, "iiiI", pid, (int)local, obj_index,
        (unsigned int)obj_code);
    if (result == NULL) {
        return -1;
    }
    Py_ssize_t index = kernel_store_delta_set(self, dkey, result);
    Py_DECREF(result);
    return index;
}

/* Resolve what (pid, local) invokes into *target, calling back into
 * Python on the first miss. Returns 0/-1 with a Python error set. */
static int
kernel_invoke_target(KernelState *self, int pid, uint32_t local,
                     InvokeTarget *target)
{
    uint64_t ikey = ((uint64_t)pid << FIELD_BITS) | local;
    int32_t index = u64map_get(&self->invoke, ikey);
    if (index >= 0) {
        *target = self->targets[index];
        return 0;
    }
    PyObject *result = PyObject_CallFunction(self->resolve_invoke, "ii", pid,
                                             (int)local);
    if (result == NULL) {
        return -1;
    }
    long obj_index, mask;
    if (!PyTuple_Check(result) || PyTuple_GET_SIZE(result) != 2) {
        Py_DECREF(result);
        PyErr_SetString(PyExc_TypeError,
                        "resolve_invoke must return (obj_index, mask)");
        return -1;
    }
    obj_index = PyLong_AsLong(PyTuple_GET_ITEM(result, 0));
    mask = PyErr_Occurred() ? -1 : PyLong_AsLong(PyTuple_GET_ITEM(result, 1));
    Py_DECREF(result);
    if (PyErr_Occurred()) {
        return -1;
    }
    if (obj_index < 0 || 2 * self->n_processes + obj_index >= self->n_fields) {
        PyErr_Format(PyExc_ValueError, "object index %ld out of range",
                     obj_index);
        return -1;
    }
    if (mask < 0 || mask >= (1L << FIELD_BITS)) {
        PyErr_Format(PyExc_ValueError, "footprint %ld out of range", mask);
        return -1;
    }
    if (self->target_count >= self->target_cap) {
        Py_ssize_t cap = self->target_cap ? self->target_cap * 2 : 64;
        InvokeTarget *targets = PyMem_RawRealloc(
            self->targets, (size_t)cap * sizeof(InvokeTarget));
        if (targets == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->targets = targets;
        self->target_cap = cap;
    }
    index = (int32_t)self->target_count;
    self->targets[index].obj_index = (int32_t)obj_index;
    self->targets[index].mask = (uint32_t)mask;
    self->target_count++;
    if (u64map_set(&self->invoke, ikey, index) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    *target = self->targets[index];
    return 0;
}

/* Expand one pid of `cid` into `entries` as flat (eid, tid) pairs.
 * The source row must already be copied into self->src_row (interning
 * successors may reallocate the rows arena). Returns 0/-1. */
static int
kernel_expand_pid_into(KernelState *self, int pid, IntBuf *entries)
{
    int n = self->n_processes;
    const uint32_t *src = self->src_row;
    if (src[n + pid] != 0) {
        return 0; /* status != RUNNING: nothing enabled */
    }
    uint32_t local = src[pid];
    InvokeTarget target;
    if (kernel_invoke_target(self, pid, local, &target) < 0) {
        return -1;
    }
    int obj_index = target.obj_index;
    uint32_t mask = target.mask;
    uint32_t obj_code = src[2 * n + obj_index];
    Py_ssize_t dsi =
        kernel_delta_set(self, pid, local, obj_index, obj_code, mask);
    if (dsi < 0) {
        return -1;
    }
    uint32_t kept = obj_code & ~mask;
    /* The callback cannot re-enter this kernel, so the delta set and
     * the source copy stay valid across the loop. */
    const DeltaSet *set = &self->delta_sets[dsi];
    int n_fields = self->n_fields;
    for (int32_t i = 0; i < set->n; i++) {
        const uint32_t *vals = set->vals + (Py_ssize_t)i * 4;
        memcpy(self->scratch, src, (size_t)n_fields * sizeof(uint32_t));
        self->scratch[pid] = vals[1];
        self->scratch[n + pid] = vals[2];
        self->scratch[2 * n + obj_index] = kept | (vals[3] & mask);
        Py_ssize_t tid = kernel_intern(self, self->scratch);
        if (tid < 0) {
            return -1;
        }
        if (intbuf_push(entries, (int32_t)vals[0]) < 0 ||
            intbuf_push(entries, (int32_t)tid) < 0) {
            return -1;
        }
    }
    return 0;
}

/* Compute and record the full adjacency of `cid`, calling back into
 * Python on a memo miss. Returns 0/-1 with a Python error set. */
static int
kernel_expand_new(KernelState *self, Py_ssize_t cid)
{
    memcpy(self->src_row, self->rows + cid * self->n_fields,
           (size_t)self->n_fields * sizeof(uint32_t));
    IntBuf entries;
    if (intbuf_init(&entries, 16) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    for (int pid = 0; pid < self->n_processes; pid++) {
        if (kernel_expand_pid_into(self, pid, &entries) < 0) {
            intbuf_free(&entries);
            if (!PyErr_Occurred()) {
                PyErr_NoMemory();
            }
            return -1;
        }
    }
    int32_t *flat = NULL;
    if (entries.len) {
        flat = PyMem_RawMalloc((size_t)entries.len * sizeof(int32_t));
        if (flat == NULL) {
            intbuf_free(&entries);
            PyErr_NoMemory();
            return -1;
        }
        memcpy(flat, entries.data, (size_t)entries.len * sizeof(int32_t));
    }
    self->adj[cid] = flat;
    self->adj_len[cid] = (int32_t)entries.len;
    intbuf_free(&entries);
    return 0;
}

static PyObject *
intbuf_as_list(const int32_t *data, Py_ssize_t len)
{
    PyObject *list = PyList_New(len);
    if (list == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *value = PyLong_FromLong(data[i]);
        if (value == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

/* ---------------------------------------------------------------------
 * Python-visible methods
 * ------------------------------------------------------------------ */

static int
kernel_check_cid(const KernelState *self, Py_ssize_t cid)
{
    if (cid < 0 || cid >= self->row_count) {
        PyErr_Format(PyExc_IndexError, "unknown configuration id %zd", cid);
        return -1;
    }
    return 0;
}

static PyObject *
KernelState_intern_row(KernelState *self, PyObject *codes)
{
    if (kernel_parse_row(self, codes, self->scratch) < 0) {
        return NULL;
    }
    Py_ssize_t cid = kernel_intern(self, self->scratch);
    if (cid < 0) {
        return PyErr_NoMemory();
    }
    return PyLong_FromSsize_t(cid);
}

static PyObject *
KernelState_find_row(KernelState *self, PyObject *codes)
{
    if (kernel_parse_row(self, codes, self->scratch) < 0) {
        return NULL;
    }
    Py_ssize_t cid = kernel_find(self, self->scratch);
    if (cid < 0) {
        Py_RETURN_NONE;
    }
    return PyLong_FromSsize_t(cid);
}

static PyObject *
KernelState_row(KernelState *self, PyObject *arg)
{
    Py_ssize_t cid = PyLong_AsSsize_t(arg);
    if (cid == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    const uint32_t *row = self->rows + cid * self->n_fields;
    PyObject *result = PyTuple_New(self->n_fields);
    if (result == NULL) {
        return NULL;
    }
    for (int i = 0; i < self->n_fields; i++) {
        PyObject *value = PyLong_FromUnsignedLong(row[i]);
        if (value == NULL) {
            Py_DECREF(result);
            return NULL;
        }
        PyTuple_SET_ITEM(result, i, value);
    }
    return result;
}

static PyObject *
KernelState_expand(KernelState *self, PyObject *arg)
{
    Py_ssize_t cid = PyLong_AsSsize_t(arg);
    if (cid == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    if (self->adj_len[cid] < 0 && kernel_expand_new(self, cid) < 0) {
        return NULL;
    }
    return intbuf_as_list(self->adj[cid], self->adj_len[cid]);
}

static PyObject *
KernelState_adjacency(KernelState *self, PyObject *arg)
{
    Py_ssize_t cid = PyLong_AsSsize_t(arg);
    if (cid == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    if (self->adj_len[cid] < 0) {
        Py_RETURN_NONE;
    }
    return intbuf_as_list(self->adj[cid], self->adj_len[cid]);
}

static PyObject *
KernelState_expand_pid(KernelState *self, PyObject *args)
{
    Py_ssize_t cid;
    int pid;
    if (!PyArg_ParseTuple(args, "ni", &cid, &pid)) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    if (pid < 0 || pid >= self->n_processes) {
        PyErr_Format(PyExc_IndexError, "unknown pid %d", pid);
        return NULL;
    }
    memcpy(self->src_row, self->rows + cid * self->n_fields,
           (size_t)self->n_fields * sizeof(uint32_t));
    IntBuf entries;
    if (intbuf_init(&entries, 8) < 0) {
        return PyErr_NoMemory();
    }
    if (kernel_expand_pid_into(self, pid, &entries) < 0) {
        intbuf_free(&entries);
        if (!PyErr_Occurred()) {
            PyErr_NoMemory();
        }
        return NULL;
    }
    PyObject *result = intbuf_as_list(entries.data, entries.len);
    intbuf_free(&entries);
    return result;
}

static PyObject *
KernelState_status_key(KernelState *self, PyObject *arg)
{
    Py_ssize_t cid = PyLong_AsSsize_t(arg);
    if (cid == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (kernel_check_cid(self, cid) < 0) {
        return NULL;
    }
    int n = self->n_processes;
    const uint32_t *row = self->rows + cid * self->n_fields;
    PyObject *result = PyTuple_New(n);
    if (result == NULL) {
        return NULL;
    }
    for (int pid = 0; pid < n; pid++) {
        PyObject *value = PyLong_FromUnsignedLong(row[n + pid]);
        if (value == NULL) {
            Py_DECREF(result);
            return NULL;
        }
        PyTuple_SET_ITEM(result, pid, value);
    }
    return result;
}

/* Breadth-first expansion of the whole reachable graph, step for step
 * like PyKernel.run_bfs: each unexpanded frontier cid is expanded (a
 * memo hit, or a callback on the first miss), then its adjacency is
 * scanned. The budget is charged per newly discovered successor, the
 * truncating cid's adjacency is already recorded, and the walk stops
 * mid-scan (later frontier members stay unexpanded; rounds counts only
 * fully completed frontiers). */
static PyObject *
KernelState_run_bfs(KernelState *self, PyObject *args)
{
    Py_ssize_t start_id;
    Py_ssize_t max_configurations;
    PyObject *on_round = Py_None;
    if (!PyArg_ParseTuple(args, "nn|O", &start_id, &max_configurations,
                          &on_round)) {
        return NULL;
    }
    if (kernel_check_cid(self, start_id) < 0) {
        return NULL;
    }

    IntBuf order = {0}, parents = {0}, frontier = {0}, next_frontier = {0};
    PyObject *result = NULL;
    Py_ssize_t seen_cap = self->row_count;
    char *seen = PyMem_RawCalloc((size_t)seen_cap, 1);
    Py_ssize_t seen_count = 1;
    Py_ssize_t expansions = 0;
    Py_ssize_t rounds = 0; /* completed frontiers; also the next depth */
    int complete = 1;

    if (seen == NULL || intbuf_init(&order, 256) < 0 ||
        intbuf_init(&parents, 256) < 0 || intbuf_init(&frontier, 64) < 0 ||
        intbuf_init(&next_frontier, 64) < 0) {
        PyErr_NoMemory();
        goto done;
    }
    seen[start_id] = 1;
    order.data[order.len++] = (int32_t)start_id;
    frontier.data[frontier.len++] = (int32_t)start_id;

    while (frontier.len) {
        if (on_round != Py_None) {
            PyObject *hook_result = PyObject_CallFunction(
                on_round, "nnn", rounds, frontier.len, seen_count);
            if (hook_result == NULL) {
                goto done;
            }
            Py_DECREF(hook_result);
        }
        for (Py_ssize_t f = 0; f < frontier.len; f++) {
            Py_ssize_t cid = frontier.data[f];
            expansions++;
            if (self->adj_len[cid] < 0 && kernel_expand_new(self, cid) < 0) {
                goto done;
            }
            if (seen_cap < self->row_count) {
                char *grown = PyMem_RawRealloc(seen, (size_t)self->row_count);
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto done;
                }
                memset(grown + seen_cap, 0,
                       (size_t)(self->row_count - seen_cap));
                seen = grown;
                seen_cap = self->row_count;
            }
            const int32_t *adj = self->adj[cid];
            int32_t adj_len = self->adj_len[cid];
            for (int32_t k = 0; k < adj_len; k += 2) {
                int32_t tid = adj[k + 1];
                if (seen[tid]) {
                    continue;
                }
                if (seen_count >= max_configurations) {
                    complete = 0;
                    goto build;
                }
                seen[tid] = 1;
                seen_count++;
                if (intbuf_push(&order, tid) < 0 ||
                    intbuf_push(&parents, tid) < 0 ||
                    intbuf_push(&parents, (int32_t)cid) < 0 ||
                    intbuf_push(&parents, adj[k]) < 0 ||
                    intbuf_push(&next_frontier, tid) < 0) {
                    PyErr_NoMemory();
                    goto done;
                }
            }
        }
        rounds++;
        IntBuf swap = frontier;
        frontier = next_frontier;
        next_frontier = swap;
        next_frontier.len = 0;
    }

build:;
    PyObject *order_list = intbuf_as_list(order.data, order.len);
    if (order_list == NULL) {
        goto done;
    }
    PyObject *parents_list = intbuf_as_list(parents.data, parents.len);
    if (parents_list == NULL) {
        Py_DECREF(order_list);
        goto done;
    }
    result = Py_BuildValue("(NNOnn)", order_list, parents_list,
                           complete ? Py_True : Py_False, expansions, rounds);

done:
    PyMem_RawFree(seen);
    intbuf_free(&order);
    intbuf_free(&parents);
    intbuf_free(&frontier);
    intbuf_free(&next_frontier);
    return result;
}

/* ---------------------------------------------------------------------
 * Type plumbing
 * ------------------------------------------------------------------ */

static int
KernelState_init(KernelState *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"n_fields", "n_processes", "resolve_invoke",
                               "compute_deltas", NULL};
    int n_fields, n_processes;
    PyObject *resolve_invoke, *compute_deltas;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiOO", keywords,
                                     &n_fields, &n_processes, &resolve_invoke,
                                     &compute_deltas)) {
        return -1;
    }
    if (n_fields <= 0 || n_processes <= 0 || 2 * n_processes > n_fields) {
        PyErr_SetString(PyExc_ValueError,
                        "need n_fields >= 2 * n_processes > 0");
        return -1;
    }
    self->n_fields = n_fields;
    self->n_processes = n_processes;
    Py_INCREF(resolve_invoke);
    Py_XSETREF(self->resolve_invoke, resolve_invoke);
    Py_INCREF(compute_deltas);
    Py_XSETREF(self->compute_deltas, compute_deltas);

    self->row_cap = 256;
    self->rows = PyMem_RawMalloc(
        (size_t)self->row_cap * (size_t)n_fields * sizeof(uint32_t));
    self->row_hashes =
        PyMem_RawMalloc((size_t)self->row_cap * sizeof(uint64_t));
    self->adj = PyMem_RawMalloc((size_t)self->row_cap * sizeof(int32_t *));
    self->adj_len = PyMem_RawMalloc((size_t)self->row_cap * sizeof(int32_t));
    self->src_row = PyMem_RawMalloc((size_t)n_fields * sizeof(uint32_t));
    self->scratch = PyMem_RawMalloc((size_t)n_fields * sizeof(uint32_t));
    if (self->rows == NULL || self->row_hashes == NULL || self->adj == NULL ||
        self->adj_len == NULL || self->src_row == NULL ||
        self->scratch == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < self->row_cap; i++) {
        self->adj[i] = NULL;
        self->adj_len[i] = -1;
    }
    self->row_count = 0;
    self->table_size = 1024;
    self->table = PyMem_RawMalloc((size_t)self->table_size * sizeof(int32_t));
    if (self->table == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < self->table_size; i++) {
        self->table[i] = -1;
    }
    if (u64map_init(&self->invoke, 256) < 0 ||
        u64map_init(&self->deltas, 1024) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    self->delta_sets = NULL;
    self->ds_count = self->ds_cap = 0;
    self->targets = NULL;
    self->target_count = self->target_cap = 0;
    return 0;
}

static int
KernelState_traverse(KernelState *self, visitproc visit, void *arg)
{
    Py_VISIT(self->resolve_invoke);
    Py_VISIT(self->compute_deltas);
    return 0;
}

static int
KernelState_clear(KernelState *self)
{
    Py_CLEAR(self->resolve_invoke);
    Py_CLEAR(self->compute_deltas);
    return 0;
}

static void
KernelState_dealloc(KernelState *self)
{
    PyObject_GC_UnTrack(self);
    KernelState_clear(self);
    PyMem_RawFree(self->rows);
    PyMem_RawFree(self->row_hashes);
    PyMem_RawFree(self->table);
    if (self->adj != NULL) {
        for (Py_ssize_t i = 0; i < self->row_cap; i++) {
            PyMem_RawFree(self->adj[i]);
        }
    }
    PyMem_RawFree(self->adj);
    PyMem_RawFree(self->adj_len);
    u64map_free(&self->invoke);
    PyMem_RawFree(self->targets);
    u64map_free(&self->deltas);
    for (Py_ssize_t i = 0; i < self->ds_count; i++) {
        PyMem_RawFree(self->delta_sets[i].vals);
    }
    PyMem_RawFree(self->delta_sets);
    PyMem_RawFree(self->src_row);
    PyMem_RawFree(self->scratch);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
KernelState_length(KernelState *self)
{
    return self->row_count;
}

static PyMethodDef KernelState_methods[] = {
    {"intern_row", (PyCFunction)KernelState_intern_row, METH_O,
     "The cid of a code row, interning it if new."},
    {"find_row", (PyCFunction)KernelState_find_row, METH_O,
     "The cid of a code row, or None - never interns."},
    {"row", (PyCFunction)KernelState_row, METH_O,
     "The code row of an interned cid."},
    {"expand", (PyCFunction)KernelState_expand, METH_O,
     "Flat [eid, tid, ...] adjacency of cid (computed once)."},
    {"adjacency", (PyCFunction)KernelState_adjacency, METH_O,
     "The recorded adjacency of cid, or None - never expands."},
    {"expand_pid", (PyCFunction)KernelState_expand_pid, METH_VARARGS,
     "Flat [eid, tid, ...] for one pid; does not record adjacency."},
    {"status_key", (PyCFunction)KernelState_status_key, METH_O,
     "The process status codes of cid as a tuple."},
    {"run_bfs", (PyCFunction)KernelState_run_bfs, METH_VARARGS,
     "Batch BFS: (order, parents, complete, expansions, rounds)."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods KernelState_as_sequence = {
    .sq_length = (lenfunc)KernelState_length,
};

static PyTypeObject KernelStateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.analysis.kernel._ckernel.KernelState",
    .tp_basicsize = sizeof(KernelState),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled packed-state exploration kernel.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)KernelState_init,
    .tp_dealloc = (destructor)KernelState_dealloc,
    .tp_traverse = (traverseproc)KernelState_traverse,
    .tp_clear = (inquiry)KernelState_clear,
    .tp_methods = KernelState_methods,
    .tp_as_sequence = &KernelState_as_sequence,
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.analysis.kernel._ckernel",
    .m_doc = "Accelerated packed-state exploration kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&KernelStateType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL) {
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "FIELD_BITS", FIELD_BITS) < 0 ||
        PyModule_AddStringConstant(module, "NAME", "compiled") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&KernelStateType);
    if (PyModule_AddObject(module, "KernelState",
                           (PyObject *)&KernelStateType) < 0) {
        Py_DECREF(&KernelStateType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
