// Compiled rank engine: the algorithm, data layout and work accounting of
// ranks.pure.PureRankEngine, written against the CPython C API. It
// implements the engine protocol documented on that class (four methods
// and the read-only counters); see the pure module docstring for the
// algorithm. As there, a marked vertex's out-edges are one id range,
// efirst[v] .. efirst[v] + ecount[v] - 1, the first mark on an engine marks
// the initial vertex and counts no work, and ensure returns the rank with
// the position in that range of the first edge of rank - 1.
// The two backends must agree exactly on every returned value and every
// counter; tests/test_rank_engine.py checks that they do.
//
// As in the pure engine, every method checks each vertex index it is given
// (IndexError) and reads a marking's tail lists in full before it changes
// anything.
//
// Both queues pop (key, vertex) entries in increasing order, keeping stale
// and repeated ones, so they count the same queue ops. Keys are finite
// stored ranks, 1 .. vertex count: this one is a bucket queue indexed by
// key (R. Dial, CACM 12(11), 1969).

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <algorithm>
#include <climits>
#include <exception>
#include <functional>
#include <new>
#include <vector>

namespace {

typedef long long i64;

const i64 UNREACH = (i64)1 << 62;  // ranks.pure.UNREACH_INT

// One min-heap of vertex ids per key; the cursor is at or below the least
// key with an entry.
struct Queue {
    std::vector<std::vector<int>> buckets;
    size_t cursor = 0, count = 0;
    void push(i64 key, int v) {
        size_t k = (size_t)key;
        if (k >= buckets.size())
            buckets.resize(k + 1);
        buckets[k].push_back(v);
        std::push_heap(buckets[k].begin(), buckets[k].end(), std::greater<int>());
        cursor = std::min(cursor, k);
        count++;
    }
    // The least entry's key, with its vertex in v; the queue is not empty.
    i64 top(int &v) {
        while (buckets[cursor].empty())
            cursor++;
        v = buckets[cursor].front();
        return (i64)cursor;
    }
    void pop() {  // the entry top() gave
        std::vector<int> &b = buckets[cursor];
        std::pop_heap(b.begin(), b.end(), std::greater<int>());
        b.pop_back();
        count--;
    }
};

struct State {
    std::vector<i64> vstored;
    std::vector<char> vdirty;
    std::vector<char> vmarked;
    std::vector<int> efirst;  // out-edges of v: efirst[v] .. efirst[v] + ecount[v] - 1
    std::vector<int> ecount;
    std::vector<std::vector<int>> tail_edges;  // live edges with v in tail
    std::vector<i64> estored;
    std::vector<int> ehead;
    std::vector<int> etail_count;
    Queue queue;
};

struct Engine {
    PyObject_HEAD
    State *st;
    // A C++ exception (out of memory) left the vectors part-updated; every
    // later call raises instead of reading them.
    int broken;
    i64 unmarked;
    i64 relaxations;
    i64 queue_ops;
    i64 live_size;
    i64 markings;
    i64 max_rank;
    i64 flushes;
};

// Owns one reference; releases it on every exit path, C++ exceptions too.
struct Ref {
    PyObject *p;
    explicit Ref(PyObject *obj) : p(obj) {}
    ~Ref() { Py_XDECREF(p); }
    Ref(const Ref &) = delete;
    Ref &operator=(const Ref &) = delete;
    PyObject *release() {
        PyObject *out = p;
        p = NULL;
        return out;
    }
};

// Runs a method body, turning a C++ exception into a Python one.
template <class F>
PyObject *guarded(Engine *self, F body) {
    if (self->broken) {
        PyErr_SetString(PyExc_RuntimeError, "rank engine is unusable after a failed allocation");
        return NULL;
    }
    try {
        return body();
    } catch (const std::bad_alloc &) {
        self->broken = 1;
        return PyErr_NoMemory();
    } catch (const std::exception &exc) {
        self->broken = 1;
        PyErr_SetString(PyExc_MemoryError, exc.what());
        return NULL;
    }
}

int read_index(PyObject *obj, size_t count, const char *what, int *out) {
    Py_ssize_t i = PyNumber_AsSsize_t(obj, PyExc_IndexError);
    if (i == -1 && PyErr_Occurred())
        return -1;
    if (i < 0 || (size_t)i >= count) {
        PyErr_Format(PyExc_IndexError, "%s index %zd out of range", what, i);
        return -1;
    }
    *out = (int)i;
    return 0;
}

int vertex_index(Engine *self, PyObject *obj, int *out) {
    return read_index(obj, self->st->vstored.size(), "vertex", out);
}

// -- internals ---------------------------------------------------------------

void push(Engine *self, i64 key, int v) {
    self->queue_ops++;
    self->st->queue.push(key, v);
}

// Smallest live key, popping stale entries; -1 when the queue is empty.
i64 peek(Engine *self) {
    State &s = *self->st;
    while (s.queue.count) {
        int v;
        i64 key = s.queue.top(v);
        if (s.vdirty[v] && key == s.vstored[v])
            return key;
        s.queue.pop();
        self->queue_ops++;
    }
    return -1;
}

int step(Engine *self) {
    State &s = *self->st;
    if (!s.queue.count) {
        PyErr_SetString(PyExc_AssertionError, "dirty vertex missing from the queue");
        return -1;
    }
    int y;
    i64 key = s.queue.top(y);
    s.queue.pop();
    self->queue_ops++;
    if (!s.vdirty[y] || key != s.vstored[y])
        return 0;
    self->relaxations++;
    i64 best = UNREACH;
    for (int e = s.efirst[y], end = e + s.ecount[y]; e < end; e++)
        if (s.estored[e] < best)
            best = s.estored[e];
    i64 c = best != UNREACH ? best + 1 : UNREACH;
    if (c > (i64)s.vstored.size())
        c = UNREACH;
    if (c == key) {
        s.vdirty[y] = 0;
        return 0;
    }
    if (c < key) {
        PyErr_SetString(PyExc_AssertionError, "stored ranks are nondecreasing");
        return -1;
    }
    s.vstored[y] = c;
    if (c == UNREACH)
        s.vdirty[y] = 0;  // unreachability is final
    else
        push(self, c, y);
    for (int e : s.tail_edges[y]) {
        i64 old = s.estored[e];
        if (c > old) {
            s.estored[e] = c;
            self->relaxations++;
            int d = s.ehead[e];
            if (!s.vdirty[d] && s.vstored[d] == old + 1) {
                s.vdirty[d] = 1;
                push(self, s.vstored[d], d);
            }
        }
    }
    return 0;
}

void flush_unreachable(Engine *self) {
    State &s = *self->st;
    size_t n = s.vstored.size(), m = s.estored.size();
    std::vector<char> good(n, 0);
    std::vector<int> cnt(s.etail_count);
    std::vector<int> stack;
    self->flushes++;
    for (size_t v = 0; v < n; v++) {
        if (!s.vmarked[v]) {
            good[v] = 1;
            stack.push_back((int)v);
        }
    }
    self->relaxations += (i64)n;
    while (!stack.empty()) {
        int v = stack.back();
        stack.pop_back();
        for (int e : s.tail_edges[v]) {
            self->relaxations++;
            if (--cnt[e] == 0) {
                int h = s.ehead[e];
                if (!good[h]) {
                    good[h] = 1;
                    stack.push_back(h);
                }
            }
        }
    }
    self->relaxations += (i64)m;
    for (size_t v = 0; v < n; v++) {
        if (!good[v] && s.vstored[v] != UNREACH) {
            s.vstored[v] = UNREACH;
            s.vdirty[v] = 0;
        }
    }
    for (size_t e = 0; e < m; e++) {
        i64 old = s.estored[e];
        if (cnt[e] > 0 && old != UNREACH) {
            s.estored[e] = UNREACH;
            int d = s.ehead[e];
            if (good[d] && !s.vdirty[d] && s.vstored[d] == old + 1) {
                s.vdirty[d] = 1;
                push(self, s.vstored[d], d);
            }
        }
    }
}

// Reads tail lists (an iterable of iterables of vertex indices) into one
// flat array plus offsets, checking every index and the new edge count.
int read_tails(Engine *self, PyObject *tail_lists, std::vector<int> &flat,
               std::vector<size_t> &offsets) {
    Ref outer(PySequence_Tuple(tail_lists));
    if (!outer.p)
        return -1;
    offsets.push_back(0);
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(outer.p); i++) {
        Ref tails(PySequence_Tuple(PyTuple_GET_ITEM(outer.p, i)));
        if (!tails.p)
            return -1;
        for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(tails.p); j++) {
            int t;
            if (vertex_index(self, PyTuple_GET_ITEM(tails.p, j), &t) < 0)
                return -1;
            flat.push_back(t);
        }
        offsets.push_back(flat.size());
    }
    if (self->st->estored.size() + offsets.size() - 1 > (size_t)INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many edges");
        return -1;
    }
    return 0;
}

// Adds the edges read by read_tails with head v, ids in order from the
// next free one.
void register_edges(Engine *self, int v, const std::vector<int> &flat,
                    const std::vector<size_t> &offsets) {
    State &s = *self->st;
    size_t m = offsets.size() - 1;
    size_t first = s.estored.size();
    s.efirst[v] = (int)first;
    s.ecount[v] = (int)m;
    for (size_t k = 0; k < m; k++) {
        int e = (int)(first + k);
        i64 best = 1;
        for (size_t j = offsets[k]; j < offsets[k + 1]; j++) {
            int t = flat[j];
            if (s.vstored[t] > best)
                best = s.vstored[t];
            s.tail_edges[t].push_back(e);
        }
        i64 ntails = (i64)(offsets[k + 1] - offsets[k]);
        s.estored.push_back(best);
        s.ehead.push_back(v);
        s.etail_count.push_back((int)ntails);
        self->live_size += 1 + ntails;
    }
}

// A new list holding conv(x) for every x in xs.
template <class T, class Conv>
PyObject *to_list(const std::vector<T> &xs, Conv conv) {
    Ref out(PyList_New((Py_ssize_t)xs.size()));
    if (!out.p)
        return NULL;
    for (size_t i = 0; i < xs.size(); i++) {
        PyObject *x = conv(xs[i]);
        if (!x)
            return NULL;
        PyList_SET_ITEM(out.p, (Py_ssize_t)i, x);
    }
    return out.release();
}

// Stores value (a new reference, or NULL after an error) under key.
int put(PyObject *dict, const char *key, PyObject *value) {
    Ref v(value);
    return v.p ? PyDict_SetItemString(dict, key, v.p) : -1;
}

// -- methods -------------------------------------------------------------------

// Marks v and registers its out-edges. The first call on an engine marks
// the initial vertex, which is set-up: its marker edge leaves the live size,
// and it counts no marking and no queue op.
PyObject *Engine_mark(Engine *self, PyObject *args) {
    return guarded(self, [&]() -> PyObject * {
        State &s = *self->st;
        PyObject *vertex, *tail_lists;
        int v;
        if (!PyArg_UnpackTuple(args, "mark", 2, 2, &vertex, &tail_lists) ||
            vertex_index(self, vertex, &v) < 0)
            return NULL;
        if (s.vmarked[v]) {
            PyErr_SetString(PyExc_ValueError, "vertex already marked");
            return NULL;
        }
        std::vector<int> flat;
        std::vector<size_t> offsets;
        if (read_tails(self, tail_lists, flat, offsets) < 0)
            return NULL;
        bool initial = self->unmarked == (i64)s.vstored.size();
        s.vmarked[v] = 1;
        self->unmarked--;
        if (initial)
            self->live_size--;
        else
            self->markings++;
        // Losing the marker edge invalidates v; its old value stays as a
        // lower bound and the queue drains it on demand.
        if (!s.vdirty[v]) {
            s.vdirty[v] = 1;
            s.queue.push(s.vstored[v], v);
            if (!initial)
                self->queue_ops++;
        }
        register_edges(self, v, flat, offsets);
        Py_RETURN_NONE;
    });
}

PyObject *Engine_add_vertex(Engine *self, PyObject *) {
    return guarded(self, [&]() -> PyObject * {
        State &s = *self->st;
        if (s.vstored.size() >= (size_t)INT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "too many vertices");
            return NULL;
        }
        int v = (int)s.vstored.size();
        s.vstored.push_back(1);  // marker edge support
        s.vdirty.push_back(0);
        s.vmarked.push_back(0);
        s.efirst.push_back(0);
        s.ecount.push_back(0);
        s.tail_edges.emplace_back();
        self->unmarked++;
        self->live_size++;  // the marker edge itself
        return PyLong_FromLong(v);
    });
}

PyObject *Engine_ensure(Engine *self, PyObject *arg) {
    return guarded(self, [&]() -> PyObject * {
        State &s = *self->st;
        int v;
        if (vertex_index(self, arg, &v) < 0)
            return NULL;
        if (self->unmarked == 0)
            return Py_BuildValue("(Li)", UNREACH, -1);
        // Pops until v is certified, flushing whenever this call's pops
        // reach the live-size budget.
        i64 pops = 0;
        i64 budget = self->live_size + (i64)s.vstored.size() + 64;
        while (true) {
            if (!s.vdirty[v]) {
                i64 sv = s.vstored[v];
                if (sv == UNREACH)
                    break;
                i64 mk = peek(self);
                if (mk < 0 || mk >= sv)
                    break;
            }
            if (step(self) < 0)
                return NULL;
            if (++pops >= budget) {
                flush_unreachable(self);
                pops = 0;
            }
        }
        i64 r = s.vstored[v];
        if (r == UNREACH)
            return Py_BuildValue("(Li)", r, -1);
        if (r > self->max_rank)
            self->max_rank = r;
        if (!s.vmarked[v])
            return Py_BuildValue("(Li)", r, -1);
        for (int k = 0; k < s.ecount[v]; k++)
            if (s.estored[s.efirst[v] + k] == r - 1)
                return Py_BuildValue("(Li)", r, k);
        PyErr_Format(PyExc_AssertionError, "no out-edge of vertex %d has rank %lld", v, r - 1);
        return NULL;
    });
}

PyObject *Engine_snapshot(Engine *self, PyObject *) {
    return guarded(self, [&]() -> PyObject * {
        State &s = *self->st;
        auto num = [](i64 x) { return PyLong_FromLongLong(x); };
        auto flag = [](char x) { return PyBool_FromLong(x); };
        Ref out(PyDict_New());
        if (!out.p || put(out.p, "vstored", to_list(s.vstored, num)) < 0 ||
            put(out.p, "vdirty", to_list(s.vdirty, flag)) < 0 ||
            put(out.p, "vmarked", to_list(s.vmarked, flag)) < 0 ||
            put(out.p, "estored", to_list(s.estored, num)) < 0)
            return NULL;
        return out.release();
    });
}

PyObject *Engine_get_backend(Engine *, void *) {
    return PyUnicode_FromString("compiled");
}

// -- type ----------------------------------------------------------------------

PyObject *Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    if (PyTuple_GET_SIZE(args) != 0 || (kwds != NULL && PyDict_GET_SIZE(kwds) != 0)) {
        PyErr_SetString(PyExc_TypeError, "CompiledRankEngine() takes no arguments");
        return NULL;
    }
    Engine *self = (Engine *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->st = new (std::nothrow) State();
    if (self->st == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    return (PyObject *)self;
}

void Engine_dealloc(Engine *self) {
    delete self->st;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

#define METHOD(name, flags, doc) {#name, (PyCFunction)(void (*)(void))Engine_##name, flags, doc}

PyMethodDef Engine_methods[] = {
    METHOD(add_vertex, METH_NOARGS, "add_vertex() -> int: a new unmarked vertex."),
    METHOD(mark, METH_VARARGS,
           "mark(v, tail_lists): mark v and promote its edges to live; the first call "
           "marks the initial vertex and counts no work."),
    METHOD(ensure, METH_O,
           "ensure(v) -> (rank, k): drain until v's rank is exact; k is the position of "
           "v's first out-edge of rank - 1, or -1."),
    METHOD(snapshot, METH_NOARGS,
           "snapshot() -> dict: copies of vstored, vdirty, vmarked and estored."),
    {NULL, NULL, 0, NULL},
};

#define COUNTER(name) {#name, T_LONGLONG, offsetof(Engine, name), READONLY, NULL}

PyMemberDef Engine_members[] = {
    COUNTER(unmarked),  COUNTER(relaxations), COUNTER(queue_ops), COUNTER(live_size),
    COUNTER(markings),  COUNTER(max_rank),    COUNTER(flushes),
    {NULL, 0, 0, 0, NULL},
};

PyGetSetDef Engine_getset[] = {
    {"backend", (getter)Engine_get_backend, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

PyTypeObject EngineType = {PyVarObject_HEAD_INIT(NULL, 0)};

PyModuleDef core_module = {PyModuleDef_HEAD_INIT};

}  // namespace

PyMODINIT_FUNC PyInit__core(void) {
    EngineType.tp_name = "hypergame.ranks._core.CompiledRankEngine";
    EngineType.tp_doc = "Dense-index rank engine; the RankTable wrapper owns string ids.";
    EngineType.tp_basicsize = sizeof(Engine);
    EngineType.tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE;
    EngineType.tp_new = Engine_new;
    EngineType.tp_dealloc = (destructor)Engine_dealloc;
    EngineType.tp_methods = Engine_methods;
    EngineType.tp_members = Engine_members;
    EngineType.tp_getset = Engine_getset;
    if (PyType_Ready(&EngineType) < 0)
        return NULL;

    core_module.m_name = "hypergame.ranks._core";
    core_module.m_doc = "Compiled rank engine (C++ core of hypergame.ranks).";
    core_module.m_size = -1;
    PyObject *m = PyModule_Create(&core_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "CompiledRankEngine", (PyObject *)&EngineType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
