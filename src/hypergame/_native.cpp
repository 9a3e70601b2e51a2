// hypergame._native: the package's compiled code, in one module. Each part
// keeps the results of its pure-Python twin, which stays the reference.
// model.py is the one place that imports this module: it takes it only when
// PROTOCOL, the version of this module's interface, equals
// model.NATIVE_PROTOCOL, and otherwise the whole package runs pure, as when
// nothing was built. A change to the interface raises both versions.
//
// The model kernels, twins of model.py's scan_plain, make_edges and
// check_edges:
//
// scan_plain(text) returns (vertices, ids, heads, tails, others): the names
// of the `vertex <id>` lines; the id, head and tail tuple of each plain
// `edge <id> <head> -> <t1> ... <tk>` line whose tail holds no `virtual` or
// `interior` token; and (line number, line) for every other non-blank line.
// Plain means single spaces and identifiers [A-Za-z0-9_.-]+ only.
//
// It returns None for a text that is not ASCII or that holds a line boundary
// other than \n that str.splitlines honours (\r, \v, \f, \x1c-\x1e; the
// others are not ASCII), so its line numbers always match str.splitlines.
// Equal vertex names (of vertex lines, heads and tails) share one str
// object, which makes later set and dict lookups on them cheaper.
//
// Each of make_edges, check_edges and compile_model takes the Edge class and
// checks its layout on every call, as play() does MoveRecord's, so the module
// keeps no state between calls.
//
// - make_edges(Edge, ids, heads, tails[, kinds, labels, interiors]) builds each
//   edge with Edge's tp_alloc and fills its slots, after making every check
//   of Edge.__post_init__. An edge that fails a check, or that the kernel
//   does not take (a tail that is not a tuple of str, a label that is not
//   ASCII, ...), is built by calling Edge, so it raises Edge's own error.
// - check_edges(Edge, edges, vertex_set) returns the edges stably sorted by id
//   and whether every per-edge check of ModelDecl passed: no repeated id,
//   a declared head and tail, no misplaced keyword name. It returns None for
//   input it does not take: anything but a tuple or list of Edge instances
//   whose names are str and whose tail and interior are tuples of str.
//
// The rank engine, CompiledRankEngine: the algorithm, data layout and work
// accounting of ranks.pure.PureRankEngine, written against the CPython C
// API. It implements the engine protocol documented on that class (four
// methods and the read-only counters); see the pure module docstring for
// the algorithm. As there, a marked vertex's out-edges are one id range,
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
// The session entry point has no pure twin. compile_model(decl, Edge) builds
// a declaration on integers: the names in decl.vertices order, each head's
// edges as one range in ModelDecl.by_head order, flat tails in their given
// order, and each edge's interior names. It reads an Edge's fields from its
// slots, and any other edge's by getattr.
// play() plays one whole session of engine.run_session on a fresh engine,
// RandomFair's or the Avoider's: it interns tails in RankTable's order and
// calls the mark and ensure internals in the order of the Python loop, the
// Avoider's lookups of marked tail vertices included. It draws RandomFair's
// answers from the tail sorted by name as random.Random.choice makes them,
// with getrandbits, the adversary's rng's own; engine.run_session sends it
// only an rng of exactly that class, whose choice rests on getrandbits. It
// builds each MoveRecord as make_edges builds an Edge: after checking the
// class's layout once per call, it allocates each record and fills its
// slots. So ids, pop order, counters, transcripts and rng states equal the
// Python loop's, which is the reference.
//
// Both queues pop (key, vertex) entries in increasing order, keeping stale
// and repeated ones, so they count the same queue ops. Keys are finite
// stored ranks, 1 .. |marked| + 1: this one is a bucket queue indexed by
// key (R. Dial, CACM 12(11), 1969). A push appends to its key's bucket and
// marks it unsorted; before a pop, an unsorted bucket at the cursor is
// sorted, descending, and pops come off its end. No bucket needs a heap: in
// a drain, where pushes land only above the cursor, each bucket is sorted
// once.

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <string_view>
#include <vector>

namespace {

const int PROTOCOL = 6;  // model.NATIVE_PROTOCOL

// Owns one reference; releases it on every exit path, C++ exceptions too.
struct Ref {
    PyObject *p;
    explicit Ref(PyObject *obj = NULL) : p(obj) {}
    ~Ref() { Py_XDECREF(p); }
    Ref(const Ref &) = delete;
    Ref &operator=(const Ref &) = delete;
    PyObject *release() {
        PyObject *out = p;
        p = NULL;
        return out;
    }
};

// Runs body, turning a C++ exception into MemoryError: every one the code can
// throw comes from an allocation. A caught one sets *broken when given.
template <class F>
PyObject *translated(F body, int *broken = NULL) {
    try {
        return body();
    } catch (const std::bad_alloc &) {
        if (broken)
            *broken = 1;
        return PyErr_NoMemory();
    } catch (const std::exception &exc) {
        if (broken)
            *broken = 1;
        PyErr_SetString(PyExc_MemoryError, exc.what());
        return NULL;
    }
}

// -- the line scanner --------------------------------------------------------

// Character classes: identifier, blank (str.isspace but no line boundary)
// and a line boundary other than \n.
enum : unsigned char { ID = 1, BLANK = 2, BOUNDARY = 4 };

struct Classes {
    unsigned char of[128] = {};
    Classes() {
        for (int c = 0; c < 128; c++)
            if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                c == '_' || c == '.' || c == '-')
                of[c] = ID;
        of[(int)' '] = of[(int)'\t'] = of[0x1f] = BLANK;
        for (int c : {0x0d, 0x0b, 0x0c, 0x1c, 0x1d, 0x1e})  // \r \v \f \x1c \x1d \x1e
            of[c] = BOUNDARY;
    }
};

const Classes classes;

inline bool is_id(char c) { return classes.of[(unsigned char)c] & ID; }

// The end of the identifier that starts at p, or p when none does.
inline const char *id_end(const char *p, const char *end) {
    while (p < end && is_id(*p))
        p++;
    return p;
}

inline bool starts(const char *p, const char *end, std::string_view word) {
    return (size_t)(end - p) >= word.size() && std::memcmp(p, word.data(), word.size()) == 0;
}

// A new str of the ASCII bytes [p, end).
PyObject *new_str(const char *p, const char *end) {
    PyObject *s = PyUnicode_New(end - p, 127);
    if (s != NULL)
        std::memcpy(PyUnicode_1BYTE_DATA(s), p, end - p);
    return s;
}

// One str object per distinct name: an open-addressing table (linear
// probing, FNV-1a hash) of the names met so far. With std::unordered_map
// the whole scan took 2.5 times as long.
struct Names {
    struct Slot {
        const char *p = NULL;
        size_t len = 0;
        PyObject *str = NULL;
    };
    std::vector<Slot> slots = std::vector<Slot>(1024);
    size_t used = 0;

    ~Names() {
        for (Slot &s : slots)
            Py_XDECREF(s.str);
    }
    static size_t hash(const char *p, size_t len) {
        uint64_t h = 14695981039346656037ull;
        for (size_t i = 0; i < len; i++)
            h = (h ^ (unsigned char)p[i]) * 1099511628211ull;
        return (size_t)h;
    }
    Slot &find(const char *p, size_t len) {
        size_t mask = slots.size() - 1;
        for (size_t i = hash(p, len) & mask;; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (s.str == NULL || (s.len == len && std::memcmp(s.p, p, len) == 0))
                return s;
        }
    }
    void grow() {
        std::vector<Slot> old(slots.size() * 2);
        old.swap(slots);
        for (Slot &s : old)
            if (s.str != NULL)
                find(s.p, s.len) = s;
    }
    // A new reference to the str of [p, end).
    PyObject *get(const char *p, const char *end) {
        size_t len = end - p;
        Slot *s = &find(p, len);
        if (s->str == NULL) {
            if (2 * (used + 1) > slots.size()) {
                grow();
                s = &find(p, len);
            }
            PyObject *str = new_str(p, end);
            if (str == NULL)
                return NULL;
            *s = Slot{p, len, str};
            used++;
        }
        Py_INCREF(s->str);
        return s->str;
    }
};

int append(PyObject *list, PyObject *item) {  // steals item
    if (item == NULL)
        return -1;
    int rc = PyList_Append(list, item);
    Py_DECREF(item);
    return rc;
}

struct Scan {
    Names names;
    Ref vertices{PyList_New(0)}, ids{PyList_New(0)}, heads{PyList_New(0)},
        tails{PyList_New(0)}, others{PyList_New(0)};
    bool ok() const { return vertices.p && ids.p && heads.p && tails.p && others.p; }

    // A `vertex <id>` line starting after "vertex "; 1 if it is one.
    int vertex(const char *p, const char *end) {
        if (p == end || id_end(p, end) != end)
            return 0;
        return append(vertices.p, names.get(p, end)) < 0 ? -1 : 1;
    }

    // A plain edge line starting after "edge "; 1 if it is one.
    int edge(const char *p, const char *end) {
        const char *id = p, *id_stop = id_end(p, end);
        if (id_stop == id || id_stop == end || *id_stop != ' ')
            return 0;
        const char *head = id_stop + 1, *head_stop = id_end(head, end);
        if (head_stop == head || !starts(head_stop, end, " -> "))
            return 0;
        const char *tail = head_stop + 4;
        Py_ssize_t k = 0;
        for (const char *q = tail;; q++) {  // count and check the tail tokens
            const char *stop = id_end(q, end);
            std::string_view token(q, stop - q);
            if (stop == q || token == "virtual" || token == "interior")
                return 0;
            k++;
            q = stop;
            if (q == end)
                break;
            if (*q != ' ')
                return 0;
        }
        Ref tup(PyTuple_New(k));
        if (!tup.p)
            return -1;
        const char *q = tail;
        for (Py_ssize_t i = 0; i < k; i++) {
            const char *stop = id_end(q, end);
            PyObject *name = names.get(q, stop);
            if (name == NULL)
                return -1;
            PyTuple_SET_ITEM(tup.p, i, name);
            q = stop + 1;
        }
        if (append(ids.p, new_str(id, id_stop)) < 0 ||
            append(heads.p, names.get(head, head_stop)) < 0 ||
            append(tails.p, tup.release()) < 0)
            return -1;
        return 1;
    }

    // Any line: a vertex, a plain edge, blank, or one of the others.
    int line(Py_ssize_t lineno, const char *p, const char *end) {
        int rc = 0;
        if (starts(p, end, "vertex "))
            rc = vertex(p + 7, end);
        else if (starts(p, end, "edge "))
            rc = edge(p + 5, end);
        if (rc)
            return rc;
        const char *q = p;
        while (q < end && classes.of[(unsigned char)*q] & BLANK)
            q++;
        if (q == end)
            return 0;
        PyObject *text = new_str(p, end);
        PyObject *pair = text ? Py_BuildValue("(nN)", lineno, text) : NULL;
        return append(others.p, pair);
    }
};

// The columns scan_plain returns for an ASCII text of n characters with no
// line boundary but \n. Out of line: inlined into scan_plain's call of
// translated, the scan took 4-10% longer (g++ 12, -O3).
[[gnu::noinline]] PyObject *scan_lines(const char *text, Py_ssize_t n) {
    Scan scan;
    if (!scan.ok())
        return NULL;
    const char *p = text, *end = text + n;
    for (Py_ssize_t lineno = 1; p < end; lineno++) {
        const char *stop = (const char *)std::memchr(p, '\n', end - p);
        if (stop == NULL)
            stop = end;
        if (scan.line(lineno, p, stop) < 0)
            return NULL;
        p = stop + 1;
    }
    return PyTuple_Pack(5, scan.vertices.p, scan.ids.p, scan.heads.p, scan.tails.p, scan.others.p);
}

PyObject *scan_plain(PyObject *, PyObject *arg) {
    if (!PyUnicode_Check(arg)) {
        PyErr_SetString(PyExc_TypeError, "scan_plain() takes a str");
        return NULL;
    }
    if (!PyUnicode_IS_ASCII(arg))
        Py_RETURN_NONE;
    const char *text = (const char *)PyUnicode_1BYTE_DATA(arg);
    Py_ssize_t n = PyUnicode_GET_LENGTH(arg);
    for (Py_ssize_t i = 0; i < n; i++)
        if (classes.of[(unsigned char)text[i]] & BOUNDARY)
            Py_RETURN_NONE;
    return translated([&] { return scan_lines(text, n); });
}

// -- the edge kernels --------------------------------------------------------

const char *const FIELDS[] = {"id", "head", "tail", "kind", "label", "interior"};
enum { ID_F, HEAD_F, TAIL_F, KIND_F, LABEL_F, INTERIOR_F, N_FIELDS };
// Tails and interiors longer than this go through Python; a duplicate tail
// vertex is looked for pairwise.
const Py_ssize_t LONG_TUPLE = 32;

// The offset of cls's slot `name`, or -1 with TypeError set, naming
// caller, unless it is a writable object slot of `cls` itself.
Py_ssize_t slot_offset(PyTypeObject *cls, const char *name, const char *caller) {
    PyObject *descr = PyDict_GetItemString(cls->tp_dict, name);  // borrowed
    if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type) ||
        ((PyDescrObject *)descr)->d_type != cls) {
        PyErr_Format(PyExc_TypeError, "%s(): %s.%s is not a slot", caller, cls->tp_name, name);
        return -1;
    }
    PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
    if (member->type != T_OBJECT_EX || member->flags & READONLY) {
        PyErr_Format(PyExc_TypeError, "%s(): %s.%s is not a writable object slot", caller,
                     cls->tp_name, name);
        return -1;
    }
    return member->offset;
}

// Checks that `arg` is a slotted dataclass of exactly the N_FIELDS fields
// `names`, in order, as object slots and nothing else, so that a filled
// slot is a whole instance, and stores the slots' offsets. Returns the
// class, or NULL with TypeError set, naming caller and the class it takes.
PyTypeObject *slot_layout(PyObject *arg, const char *caller, const char *takes,
                          const char *const *names, Py_ssize_t *offsets) {
    if (!PyType_Check(arg)) {
        PyErr_Format(PyExc_TypeError, "%s() takes the %s class", caller, takes);
        return NULL;
    }
    PyTypeObject *cls = (PyTypeObject *)arg;
    Ref fields(PyObject_GetAttrString(arg, "__dataclass_fields__"));
    if (fields.p == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return NULL;
        PyErr_Clear();
        fields.p = PyDict_New();
    }
    Ref listed(fields.p ? PySequence_List(fields.p) : NULL);
    if (listed.p == NULL)
        return NULL;
    bool same = PyList_GET_SIZE(listed.p) == N_FIELDS && cls->tp_base == &PyBaseObject_Type &&
                cls->tp_dictoffset == 0 && cls->tp_itemsize == 0 &&
                cls->tp_basicsize == (Py_ssize_t)(sizeof(PyObject) + N_FIELDS * sizeof(PyObject *));
    for (int f = 0; same && f < N_FIELDS; f++) {
        PyObject *name = PyList_GET_ITEM(listed.p, f);
        same = PyUnicode_Check(name) && PyUnicode_CompareWithASCIIString(name, names[f]) == 0;
    }
    if (!same) {
        PyErr_Format(PyExc_TypeError,
                     "%s(): %s is not a slotted dataclass of exactly the fields "
                     "%s, %s, %s, %s, %s, %s",
                     caller, cls->tp_name, names[0], names[1], names[2], names[3], names[4],
                     names[5]);
        return NULL;
    }
    for (int f = 0; f < N_FIELDS; f++)
        if ((offsets[f] = slot_offset(cls, names[f], caller)) < 0)
            return NULL;
    return cls;
}

// Edge's class and slot offsets, checked by one kernel call, and the field
// values the kernels compare with or fill in, held for that call. The class
// is the caller's argument, which the call keeps alive.
struct EdgeLayout {
    PyTypeObject *cls = NULL;
    Py_ssize_t offset[N_FIELDS] = {};
    Ref real{PyUnicode_InternFromString("real")}, virtual_{PyUnicode_InternFromString("virtual")},
        no_label{PyUnicode_New(0, 0)}, no_interior{PyTuple_New(0)};

    // Takes arg as the Edge class when slot_layout passes it; false with an
    // error set, naming caller, otherwise.
    bool take(PyObject *arg, const char *caller) {
        return real.p && virtual_.p && no_label.p && no_interior.p &&
               (cls = slot_layout(arg, caller, "Edge", FIELDS, offset)) != NULL;
    }
    PyObject *&slot(PyObject *edge, int field) const {
        return *(PyObject **)((char *)edge + offset[field]);
    }
};

// Field f of edge e, read from its slot when e is an instance of L's class
// and the slot is filled, else by getattr. A new reference, or NULL with an
// error set.
PyObject *edge_field(const EdgeLayout &L, PyObject *e, int f) {
    if (Py_TYPE(e) == L.cls && L.slot(e, f)) {
        Py_INCREF(L.slot(e, f));
        return L.slot(e, f);
    }
    return PyObject_GetAttrString(e, FIELDS[f]);
}

// a == b for two str objects.
inline bool str_eq(PyObject *a, PyObject *b) {
    if (a == b)
        return true;
    Py_ssize_t n = PyUnicode_GET_LENGTH(a);
    int kind = PyUnicode_KIND(a);
    return n == PyUnicode_GET_LENGTH(b) && kind == PyUnicode_KIND(b) &&
           std::memcmp(PyUnicode_DATA(a), PyUnicode_DATA(b), n * kind) == 0;
}

// a < b for two str objects, by code point as Python compares them.
inline bool str_less(PyObject *a, PyObject *b) {
    if (PyUnicode_KIND(a) == PyUnicode_1BYTE_KIND && PyUnicode_KIND(b) == PyUnicode_1BYTE_KIND) {
        Py_ssize_t na = PyUnicode_GET_LENGTH(a), nb = PyUnicode_GET_LENGTH(b);
        int c = std::memcmp(PyUnicode_1BYTE_DATA(a), PyUnicode_1BYTE_DATA(b), std::min(na, nb));
        return c < 0 || (c == 0 && na < nb);
    }
    return PyUnicode_Compare(a, b) < 0;  // cannot fail on two str
}

// Whether `tuple` is a tuple of at most LONG_TUPLE str.
bool str_tuple(PyObject *tuple) {
    if (!PyTuple_CheckExact(tuple) || PyTuple_GET_SIZE(tuple) > LONG_TUPLE)
        return false;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(tuple); i++)
        if (!PyUnicode_CheckExact(PyTuple_GET_ITEM(tuple, i)))
            return false;
    return true;
}

bool tuple_has(PyObject *tuple, PyObject *str) {
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(tuple); i++)
        if (str_eq(PyTuple_GET_ITEM(tuple, i), str))
            return true;
    return false;
}

// Whether Edge(*fields) passes every check of Edge.__post_init__ in a way
// the kernel can tell: the kind is `real` or `virtual`; the tail is a
// non-empty tuple with no vertex twice (a single vertex may be any object,
// two or more must be str); the label is an ASCII str with no line break.
bool plain_edge(const EdgeLayout &L, PyObject *const *fields) {
    PyObject *kind = fields[KIND_F], *tail = fields[TAIL_F], *label = fields[LABEL_F];
    if (kind != L.real.p && kind != L.virtual_.p &&
        !(PyUnicode_CheckExact(kind) && (str_eq(kind, L.real.p) || str_eq(kind, L.virtual_.p))))
        return false;
    if (!PyTuple_CheckExact(tail) || PyTuple_GET_SIZE(tail) == 0)
        return false;
    Py_ssize_t n = PyTuple_GET_SIZE(tail);
    if (n > 1) {
        if (!str_tuple(tail))
            return false;
        for (Py_ssize_t i = 1; i < n; i++)
            for (Py_ssize_t j = 0; j < i; j++)
                if (str_eq(PyTuple_GET_ITEM(tail, i), PyTuple_GET_ITEM(tail, j)))
                    return false;
    }
    if (!PyUnicode_CheckExact(label))
        return false;
    if (PyUnicode_GET_LENGTH(label) == 0)
        return true;
    if (!PyUnicode_IS_ASCII(label))
        return false;
    const char *p = (const char *)PyUnicode_1BYTE_DATA(label);
    for (Py_ssize_t i = 0; i < PyUnicode_GET_LENGTH(label); i++)
        if (p[i] == '\n' || classes.of[(unsigned char)p[i]] & BOUNDARY)
            return false;
    return true;
}

PyObject *make_edges(PyObject *, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs < 4 || nargs > 1 + N_FIELDS) {
        PyErr_SetString(PyExc_TypeError, "make_edges() takes Edge and 3 to 6 columns");
        return NULL;
    }
    EdgeLayout L;
    if (!L.take(args[0], "make_edges"))
        return NULL;
    args++, nargs--;  // the columns
    PyObject *defaults[N_FIELDS] = {NULL, NULL, NULL, L.real.p, L.no_label.p, L.no_interior.p};
    Ref columns[N_FIELDS];
    for (int f = 0; f < nargs; f++) {
        if (args[f] == Py_None && f > TAIL_F)
            continue;
        columns[f].p = PySequence_Fast(args[f], "make_edges() takes sequences");
        if (columns[f].p == NULL)
            return NULL;
    }
    auto size = [&](int f) { return PySequence_Fast_GET_SIZE(columns[f].p); };
    Py_ssize_t n = size(ID_F);
    for (int f = 0; f < N_FIELDS; f++)
        if (columns[f].p && size(f) != n) {
            PyErr_SetString(PyExc_ValueError, "make_edges() columns differ in length");
            return NULL;
        }
    Ref out(PyList_New(n));
    if (out.p == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *fields[N_FIELDS];
        for (int f = 0; f < N_FIELDS; f++)
            fields[f] = columns[f].p ? PySequence_Fast_GET_ITEM(columns[f].p, i) : defaults[f];
        PyObject *edge;
        if (plain_edge(L, fields)) {
            edge = L.cls->tp_alloc(L.cls, 0);
            if (edge == NULL)
                return NULL;
            for (int f = 0; f < N_FIELDS; f++) {
                Py_INCREF(fields[f]);
                L.slot(edge, f) = fields[f];
            }
        } else {
            // Edge's own checks raise with its own message; a column is
            // only read, but Python code may run, so the fields are held.
            for (PyObject *field : fields)
                Py_INCREF(field);
            edge = PyObject_Vectorcall((PyObject *)L.cls, fields, N_FIELDS, NULL);
            for (PyObject *field : fields)
                Py_DECREF(field);
            if (edge == NULL)
                return NULL;
            for (int f = 0; f < N_FIELDS; f++)
                if (columns[f].p && size(f) != n) {
                    Py_DECREF(edge);
                    PyErr_SetString(PyExc_RuntimeError, "make_edges() column changed size");
                    return NULL;
                }
        }
        PyList_SET_ITEM(out.p, i, edge);
    }
    return out.release();
}

PyObject *check_edges(PyObject *, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "check_edges() takes Edge, edges and a vertex set");
        return NULL;
    }
    EdgeLayout L;
    if (!L.take(args[0], "check_edges"))
        return NULL;
    PyObject *edges = args[1], *vset = args[2], *real = L.real.p, *virtual_ = L.virtual_.p;
    if (!(PyTuple_CheckExact(edges) || PyList_CheckExact(edges)) || !PyAnySet_Check(vset))
        Py_RETURN_NONE;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(edges);
    PyObject **items = PySequence_Fast_ITEMS(edges);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *e = items[i];
        if (Py_TYPE(e) != L.cls)
            Py_RETURN_NONE;
        for (int f : {ID_F, HEAD_F, KIND_F})
            if (L.slot(e, f) == NULL || !PyUnicode_CheckExact(L.slot(e, f)))
                Py_RETURN_NONE;
        for (int f : {TAIL_F, INTERIOR_F})
            if (L.slot(e, f) == NULL || !str_tuple(L.slot(e, f)))
                Py_RETURN_NONE;
    }
    return translated([&]() -> PyObject * {
        std::vector<PyObject *> order(items, items + n);
        auto by_id = [&](PyObject *a, PyObject *b) {
            return str_less(L.slot(a, ID_F), L.slot(b, ID_F));
        };
        bool sorted = std::is_sorted(order.begin(), order.end(), by_id);
        if (!sorted)
            std::stable_sort(order.begin(), order.end(), by_id);
        Ref out;
        if (sorted && PyTuple_CheckExact(edges)) {
            Py_INCREF(edges);
            out.p = edges;
        } else {
            out.p = PyTuple_New(n);
            if (out.p == NULL)
                return NULL;
            for (Py_ssize_t i = 0; i < n; i++) {
                Py_INCREF(order[i]);
                PyTuple_SET_ITEM(out.p, i, order[i]);
            }
        }
        int virtual_named = PySet_Contains(vset, virtual_);
        if (virtual_named < 0)
            return NULL;
        bool ok = true;
        PyObject *prev = NULL;
        for (Py_ssize_t i = 0; ok && i < n; i++) {
            PyObject *e = order[i];
            PyObject *id = L.slot(e, ID_F), *tail = L.slot(e, TAIL_F), *kind = L.slot(e, KIND_F),
                     *interior = L.slot(e, INTERIOR_F);
            if (prev != NULL && str_eq(prev, id))
                ok = false;
            prev = id;
            int known = PySet_Contains(vset, L.slot(e, HEAD_F));
            Py_ssize_t k = PyTuple_GET_SIZE(tail);
            for (Py_ssize_t j = 0; known > 0 && j < k; j++)
                known = PySet_Contains(vset, PyTuple_GET_ITEM(tail, j));
            if (known < 0)
                return NULL;
            ok = ok && known;
            // The two reserved-name checks of ModelDecl.
            if (virtual_named && tuple_has(tail, virtual_) &&
                !(str_eq(kind, virtual_) && k > 0 && str_eq(PyTuple_GET_ITEM(tail, k - 1), virtual_)))
                ok = false;
            if (PyTuple_GET_SIZE(interior) && str_eq(kind, real) && tuple_has(interior, virtual_))
                ok = false;
        }
        return Py_BuildValue("(NO)", out.release(), ok ? Py_True : Py_False);
    });
}

// -- the rank engine ---------------------------------------------------------

typedef long long i64;

const i64 UNREACH = (i64)1 << 62;  // ranks.pure.UNREACH_INT

// One bucket of vertex ids per key; the cursor is at or below the least key
// with an entry. A push appends to its key's bucket and clears the bucket's
// sorted flag; top() sorts the cursor's bucket, descending, when the flag is
// clear, so pops come off its back in vertex order. Within a drain every
// push goes above the cursor: only a mark and the flush push at or below
// it, and the bucket they push into is sorted again before its next pop.
struct Queue {
    struct Bucket {
        std::vector<int> ids;
        bool sorted = false;
    };
    std::vector<Bucket> buckets;
    size_t cursor = 0, count = 0;
    void push(i64 key, int v) {
        size_t k = (size_t)key;
        if (k >= buckets.size())
            buckets.resize(k + 1);
        buckets[k].ids.push_back(v);
        buckets[k].sorted = false;
        cursor = std::min(cursor, k);
        count++;
    }
    // The least entry's key, with its vertex in v; the queue is not empty.
    i64 top(int &v) {
        while (buckets[cursor].ids.empty())
            cursor++;
        Bucket &b = buckets[cursor];
        if (!b.sorted) {
            std::sort(b.ids.begin(), b.ids.end(), std::greater<int>());
            b.sorted = true;
        }
        v = b.ids.back();
        return (i64)cursor;
    }
    void pop() {  // the entry top() gave
        buckets[cursor].ids.pop_back();
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
    i64 max_rank;
    i64 flushes;
};

// Runs a method body behind translated; a C++ exception marks the engine
// broken.
template <class F>
PyObject *guarded(Engine *self, F body) {
    if (self->broken) {
        PyErr_SetString(PyExc_RuntimeError, "rank engine is unusable after a failed allocation");
        return NULL;
    }
    return translated(body, &self->broken);
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

// Raises edge e's stored value to value; a clean head whose value the old
// edge value carried (head = old + 1) goes back into the queue.
void raise_edge(Engine *self, int e, i64 value) {
    State &s = *self->st;
    int d = s.ehead[e];
    i64 old = s.estored[e];
    s.estored[e] = value;
    if (!s.vdirty[d] && s.vstored[d] == old + 1) {
        s.vdirty[d] = 1;
        push(self, s.vstored[d], d);
    }
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
    // A finite rank is at most |marked| + 1 (see ranks/pure.py); UNREACH + 1
    // is above that cap too.
    i64 c = best + 1;
    if (c > (i64)s.vstored.size() - self->unmarked + 1)
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
        if (c > s.estored[e]) {
            raise_edge(self, e, c);
            self->relaxations++;
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
    // A head outside the good set is UNREACH by now, which no finite old + 1
    // equals, so only good heads are re-dirtied.
    for (size_t e = 0; e < m; e++)
        if (cnt[e] > 0 && s.estored[e] != UNREACH)
            raise_edge(self, (int)e, UNREACH);
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

// Marks v and registers the edges read by read_tails (or built the same
// way) as its out-edges. The first call on an engine marks the initial
// vertex, which is set-up: its marker edge leaves the live size, and it
// counts no queue op. v is not marked yet.
void mark_vertex(Engine *self, int v, const std::vector<int> &flat,
                 const std::vector<size_t> &offsets) {
    State &s = *self->st;
    bool initial = self->unmarked == (i64)s.vstored.size();
    s.vmarked[v] = 1;
    self->unmarked--;
    // Losing the marker edge invalidates v; its old value stays as a
    // lower bound and the queue drains it on demand. v is clean: only
    // marked vertices are ever dirty.
    s.vdirty[v] = 1;
    if (initial) {
        self->live_size--;
        s.queue.push(s.vstored[v], v);
    } else {
        push(self, s.vstored[v], v);
    }
    register_edges(self, v, flat, offsets);
}

// A new unmarked vertex's id, or -1 with OverflowError set.
int new_vertex(Engine *self) {
    State &s = *self->st;
    if (s.vstored.size() >= (size_t)INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many vertices");
        return -1;
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
    return v;
}

// Drains until v's rank is exact and sets *r to it and *k to the position
// of v's first out-edge of rank *r - 1, or -1 when v is unmarked or its
// rank is unreachable. Returns -1 with AssertionError set if the engine's
// invariant is broken.
int ensure_vertex(Engine *self, int v, i64 *r, int *k) {
    State &s = *self->st;
    *r = UNREACH;
    *k = -1;
    if (self->unmarked == 0)
        return 0;
    // Pops until v is certified, flushing whenever the work (relaxations +
    // queue ops) this call has done since its start or its last flush
    // reaches the live-size budget, about what the counter pass costs.
    i64 budget = self->live_size + (i64)s.vstored.size() + 64;
    i64 paid = self->relaxations + self->queue_ops;
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
            return -1;
        if (self->relaxations + self->queue_ops - paid >= budget) {
            flush_unreachable(self);
            paid = self->relaxations + self->queue_ops;
        }
    }
    *r = s.vstored[v];
    if (*r == UNREACH)
        return 0;
    if (*r > self->max_rank)
        self->max_rank = *r;
    if (!s.vmarked[v])
        return 0;
    for (int j = 0; j < s.ecount[v]; j++) {
        if (s.estored[s.efirst[v] + j] == *r - 1) {
            *k = j;
            return 0;
        }
    }
    PyErr_Format(PyExc_AssertionError, "no out-edge of vertex %d has rank %lld", v, *r - 1);
    return -1;
}

// -- the integer model -----------------------------------------------------------

// A declaration on integers, for play(). A vertex is its index in
// decl.vertices, which is sorted, so index order is name order. Edges are
// numbered by head, each head's edges in id order, as ModelDecl.by_head
// holds them.
struct ModelData {
    int initial = 0;
    std::vector<int> first;           // head v's edges: first[v] .. first[v + 1] - 1
    std::vector<int> tail_first;      // edge e's tail: tail_first[e] .. tail_first[e + 1] - 1
    std::vector<int> tails;           // each tail in its given order
    std::vector<int> interior_first;  // edge e's interior, likewise
    std::vector<int> interiors;       // ids of distinct interior names
    int interior_names = 0;
    std::vector<char> is_virtual;
};

struct Model {
    PyObject_HEAD
    PyObject *names;     // decl.vertices
    PyObject *edge_ids;  // the id of each edge number
    ModelData *d;
};

void Model_dealloc(Model *self) {
    Py_XDECREF(self->names);
    Py_XDECREF(self->edge_ids);
    delete self->d;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

PyTypeObject ModelType = {PyVarObject_HEAD_INIT(NULL, 0)};

// The int that `index` maps `name` to; ValueError when it has none, or,
// with `add`, the next int, which is then stored.
int index_of(PyObject *index, PyObject *name, bool add, int *out) {
    PyObject *i = PyDict_GetItemWithError(index, name);
    if (i == NULL) {
        if (PyErr_Occurred())
            return -1;
        if (!add) {
            PyErr_Format(PyExc_ValueError, "compile_model(): %R is not a vertex", name);
            return -1;
        }
        *out = (int)PyDict_GET_SIZE(index);
        Ref next(PyLong_FromLong(*out));
        return next.p ? PyDict_SetItem(index, name, next.p) : -1;
    }
    *out = (int)PyLong_AsLong(i);
    return 0;
}

// Appends to out the index (see index_of) of each item of the sequence
// seq, and then its end in out.
int read_names(PyObject *seq, PyObject *index, bool add, std::vector<int> &out,
               std::vector<size_t> &ends) {
    Ref items(PySequence_Fast(seq, "compile_model(): a tail or interior is not a sequence"));
    if (!items.p)
        return -1;
    for (Py_ssize_t j = 0; j < PySequence_Fast_GET_SIZE(items.p); j++) {
        int i;
        if (index_of(index, PySequence_Fast_GET_ITEM(items.p, j), add, &i) < 0)
            return -1;
        out.push_back(i);
    }
    ends.push_back(out.size());
    return 0;
}

// Copies the ranges [ends[k], ends[k + 1]) of xs, for k = order[0], ...,
// to out, with their new ends in first.
void gather(const std::vector<int> &xs, const std::vector<size_t> &ends,
            const std::vector<int> &order, std::vector<int> &out, std::vector<int> &first) {
    out.reserve(xs.size());
    for (int k : order) {
        out.insert(out.end(), xs.begin() + (ptrdiff_t)ends[k],
                   xs.begin() + (ptrdiff_t)ends[k + 1]);
        first.push_back((int)out.size());
    }
}

PyObject *build_model(PyObject *decl, const EdgeLayout &L) {
    Ref names_attr(PyObject_GetAttrString(decl, "vertices"));
    Ref edges_attr(PyObject_GetAttrString(decl, "edges"));
    Ref initial(PyObject_GetAttrString(decl, "initial"));
    Ref virtuals(PyObject_GetAttrString(decl, "virtual_vertices"));
    if (!names_attr.p || !edges_attr.p || !initial.p || !virtuals.p)
        return NULL;
    Ref names(PySequence_Tuple(names_attr.p)), edges(PySequence_Tuple(edges_attr.p));
    Ref index(PyDict_New()), interior_index(PyDict_New());
    if (!names.p || !edges.p || !index.p || !interior_index.p)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(names.p), m = PyTuple_GET_SIZE(edges.p);
    if (n >= INT_MAX || m >= INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "compile_model(): too many vertices or edges");
        return NULL;
    }
    std::unique_ptr<ModelData> d(new ModelData());
    Py_ssize_t nvirtual = PyObject_Size(virtuals.p);
    if (nvirtual < 0)
        return NULL;
    d->is_virtual.assign((size_t)n, 0);
    for (Py_ssize_t v = 0; v < n; v++) {
        PyObject *name = PyTuple_GET_ITEM(names.p, v);
        int i, is_virtual = nvirtual ? PySequence_Contains(virtuals.p, name) : 0;
        if (is_virtual < 0 || index_of(index.p, name, true, &i) < 0)
            return NULL;
        if (i != v) {
            PyErr_Format(PyExc_ValueError, "compile_model(): vertex %R repeats", name);
            return NULL;
        }
        d->is_virtual[v] = (char)is_virtual;
    }
    if (index_of(index.p, initial.p, false, &d->initial) < 0)
        return NULL;
    // Each edge in declaration order: its id, head, tail and interior.
    Ref ids(PyTuple_New(m));
    if (!ids.p)
        return NULL;
    std::vector<int> heads((size_t)m), tails, interiors;
    std::vector<size_t> tail_ends{0}, interior_ends{0};
    for (Py_ssize_t k = 0; k < m; k++) {
        PyObject *e = PyTuple_GET_ITEM(edges.p, k);
        PyObject *id = edge_field(L, e, ID_F);
        if (!id)
            return NULL;
        PyTuple_SET_ITEM(ids.p, k, id);
        Ref head(edge_field(L, e, HEAD_F)), tail(edge_field(L, e, TAIL_F));
        Ref interior(edge_field(L, e, INTERIOR_F));
        if (!head.p || !tail.p || !interior.p || index_of(index.p, head.p, false, &heads[k]) < 0 ||
            read_names(tail.p, index.p, false, tails, tail_ends) < 0 ||
            read_names(interior.p, interior_index.p, true, interiors, interior_ends) < 0)
            return NULL;
    }
    if (tails.size() >= (size_t)INT_MAX || interiors.size() >= (size_t)INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "compile_model(): too many tail vertices");
        return NULL;
    }
    d->interior_names = (int)PyDict_GET_SIZE(interior_index.p);
    // Number the edges by head, keeping declaration order within a head: a
    // counting sort.
    d->first.assign((size_t)n + 1, 0);
    for (int h : heads)
        d->first[h + 1]++;
    for (Py_ssize_t v = 0; v < n; v++)
        d->first[v + 1] += d->first[v];
    std::vector<int> next(d->first.begin(), d->first.end() - 1), order((size_t)m);
    for (int k = 0; k < (int)m; k++)
        order[next[heads[k]]++] = k;
    Ref edge_ids(PyTuple_New(m));
    if (!edge_ids.p)
        return NULL;
    for (Py_ssize_t j = 0; j < m; j++) {
        PyObject *id = PyTuple_GET_ITEM(ids.p, order[j]);
        Py_INCREF(id);
        PyTuple_SET_ITEM(edge_ids.p, j, id);
    }
    d->tail_first.assign(1, 0);
    d->interior_first.assign(1, 0);
    gather(tails, tail_ends, order, d->tails, d->tail_first);
    gather(interiors, interior_ends, order, d->interiors, d->interior_first);
    Model *model = PyObject_New(Model, &ModelType);
    if (!model)
        return NULL;
    model->names = names.release();
    model->edge_ids = edge_ids.release();
    model->d = d.release();
    return (PyObject *)model;
}

// -- the move loop ---------------------------------------------------------------

// Marks model vertex v with its declared edges, first interning, as
// RankTable.apply_marking does, each tail vertex the engine has not met, in
// edge order, then tail order. dense maps model vertices to engine ids
// (-1: not met).
int mark_model_vertex(Engine *self, const ModelData &md, std::vector<int> &dense, int v) {
    std::vector<int> flat;
    std::vector<size_t> offsets{0};
    for (int e = md.first[v]; e < md.first[v + 1]; e++) {
        for (int j = md.tail_first[e]; j < md.tail_first[e + 1]; j++) {
            int t = md.tails[j];
            if (dense[t] < 0 && (dense[t] = new_vertex(self)) < 0)
                return -1;
            flat.push_back(dense[t]);
        }
        offsets.push_back(flat.size());
    }
    mark_vertex(self, dense[v], flat, offsets);
    return 0;
}

// RandomFair.respond's draw from a tail of width >= 2, as random.Random.choice
// makes it with getrandbits: with k the bit length of width, getrandbits(k)
// until the result is below width. Sets *j to the result, the position in
// the sorted tail.
int draw(PyObject *getrandbits, int width, int *j) {
    int k = 0;
    for (int w = width; w; w >>= 1)
        k++;
    Ref bits(PyLong_FromLong(k));
    if (!bits.p)
        return -1;
    while (true) {
        Ref got(PyObject_CallOneArg(getrandbits, bits.p));
        if (!got.p)
            return -1;
        long r = PyLong_AsLong(got.p);
        if (r == -1 && PyErr_Occurred())
            return -1;
        if (r < 0) {
            PyErr_Format(PyExc_ValueError, "getrandbits() answered %ld", r);
            return -1;
        }
        if (r < width) {
            *j = (int)r;
            return 0;
        }
    }
}

// engine.MoveRecord's fields, in order.
const char *const RECORD_FIELDS[N_FIELDS] = {"index",    "source",       "edge",
                                             "response", "newly_marked", "rank_before"};

// -- methods -------------------------------------------------------------------

PyObject *Engine_mark(Engine *self, PyObject *args) {
    return guarded(self, [&]() -> PyObject * {
        PyObject *vertex, *tail_lists;
        int v;
        if (!PyArg_UnpackTuple(args, "mark", 2, 2, &vertex, &tail_lists) ||
            vertex_index(self, vertex, &v) < 0)
            return NULL;
        if (self->st->vmarked[v]) {
            PyErr_SetString(PyExc_ValueError, "vertex already marked");
            return NULL;
        }
        std::vector<int> flat;
        std::vector<size_t> offsets;
        if (read_tails(self, tail_lists, flat, offsets) < 0)
            return NULL;
        mark_vertex(self, v, flat, offsets);
        Py_RETURN_NONE;
    });
}

PyObject *Engine_add_vertex(Engine *self, PyObject *) {
    return guarded(self, [&]() -> PyObject * {
        int v = new_vertex(self);
        return v < 0 ? NULL : PyLong_FromLong(v);
    });
}

PyObject *Engine_ensure(Engine *self, PyObject *arg) {
    return guarded(self, [&]() -> PyObject * {
        int v, k;
        i64 r;
        if (vertex_index(self, arg, &v) < 0 || ensure_vertex(self, v, &r, &k) < 0)
            return NULL;
        return Py_BuildValue("(Li)", r, k);
    });
}

// The session of RankTable and engine.run_session's move loop on model,
// with RandomFair.respond's draws through `getrandbits` (its rng's), or,
// when getrandbits is None, Avoider.respond's answers. Each record is an
// instance of `record`, allocated and its slots filled here. See
// Engine_methods.
PyObject *Engine_play(Engine *self, PyObject *args) {
    return guarded(self, [&]() -> PyObject * {
        PyObject *model, *record, *cap, *getrandbits;
        int lazy;
        if (!PyArg_ParseTuple(args, "O!OOpO:play", &ModelType, &model, &record, &cap, &lazy,
                              &getrandbits))
            return NULL;
        Py_ssize_t offset[N_FIELDS];
        PyTypeObject *cls = slot_layout(record, "play", "MoveRecord", RECORD_FIELDS, offset);
        if (cls == NULL)
            return NULL;
        long long max_moves = PyLong_AsLongLong(cap);
        if (max_moves == -1 && PyErr_Occurred())
            return NULL;
        State &s = *self->st;
        if (max_moves < 1 || !s.vstored.empty()) {
            PyErr_SetString(PyExc_ValueError, "play() needs a fresh engine and max_moves >= 1");
            return NULL;
        }
        const ModelData &md = *((Model *)model)->d;
        PyObject *names = ((Model *)model)->names, *edge_ids = ((Model *)model)->edge_ids;
        int n = (int)PyTuple_GET_SIZE(names);
        // RankTable's ids: the initial vertex, then, when eager, every
        // vertex in name order.
        std::vector<int> dense((size_t)n, -1);
        if ((dense[md.initial] = new_vertex(self)) < 0)
            return NULL;
        for (int v = 0; !lazy && v < n; v++)
            if (dense[v] < 0 && (dense[v] = new_vertex(self)) < 0)
                return NULL;
        int cur = md.initial, k;
        i64 r;
        if (mark_model_vertex(self, md, dense, cur) < 0 ||
            ensure_vertex(self, dense[cur], &r, &k) < 0)
            return NULL;
        Ref records(PyList_New(0));
        if (!records.p)
            return NULL;
        std::vector<char> covered((size_t)md.interior_names, 0);
        std::vector<int> tail;  // the chosen edge's tail, sorted
        i64 moves = 0, interior_covered = 0;
        int ending;  // engine.ENDINGS
        while (true) {
            if (self->unmarked == 0) {
                ending = 0;
                break;
            }
            if (k < 0) {
                ending = 1;
                break;
            }
            if (moves >= max_moves) {
                ending = 2;
                break;
            }
            int e = md.first[cur] + k;
            // Index order is name order, so this is the tail sorted by name.
            tail.assign(md.tails.begin() + md.tail_first[e],
                        md.tails.begin() + md.tail_first[e + 1]);
            std::sort(tail.begin(), tail.end());
            int width = (int)tail.size(), v = tail[0];
            if (getrandbits == Py_None) {
                // The first marked tail vertex of highest rank, else the first.
                i64 best = 0;
                for (int j = 0; j < width; j++) {
                    i64 rt;
                    int kt;
                    if (!s.vmarked[dense[tail[j]]])
                        continue;
                    if (ensure_vertex(self, dense[tail[j]], &rt, &kt) < 0)
                        return NULL;
                    if (rt > best) {
                        best = rt;
                        v = tail[j];
                    }
                }
            } else if (width > 1) {
                int j;
                if (draw(getrandbits, width, &j) < 0)
                    return NULL;
                v = tail[j];
            }
            bool newly = !s.vmarked[dense[v]];
            Ref move(cls->tp_alloc(cls, 0));
            if (!move.p)
                return NULL;
            PyObject *fields[N_FIELDS] = {PyLong_FromLongLong(++moves),
                                          Py_NewRef(PyTuple_GET_ITEM(names, cur)),
                                          Py_NewRef(PyTuple_GET_ITEM(edge_ids, e)),
                                          Py_NewRef(PyTuple_GET_ITEM(names, v)),
                                          PyBool_FromLong(newly),
                                          PyLong_FromLongLong(r)};
            for (int f = 0; f < N_FIELDS; f++)  // a NULL slot is unset
                *(PyObject **)((char *)move.p + offset[f]) = fields[f];
            if (!fields[0] || !fields[5] || PyList_Append(records.p, move.p) < 0)
                return NULL;
            if (newly && mark_model_vertex(self, md, dense, v) < 0)
                return NULL;
            for (int j = md.interior_first[e]; j < md.interior_first[e + 1]; j++) {
                if (!covered[md.interiors[j]]) {
                    covered[md.interiors[j]] = 1;
                    interior_covered++;
                }
            }
            cur = v;
            if (ensure_vertex(self, dense[cur], &r, &k) < 0)
                return NULL;
        }
        // The marked virtual vertices, and the distinct interior names of
        // the live edges: of every edge when eager, else of the marked
        // vertices' edges.
        i64 virtual_marked = 0, interior_total = lazy ? 0 : md.interior_names;
        std::vector<char> live((size_t)md.interior_names, 0);
        for (int v = 0; v < n; v++) {
            if (dense[v] < 0 || !s.vmarked[dense[v]])
                continue;
            virtual_marked += md.is_virtual[v];
            int end = lazy ? md.interior_first[md.first[v + 1]] : 0;
            for (int j = md.interior_first[md.first[v]]; j < end; j++) {
                if (!live[md.interiors[j]]) {
                    live[md.interiors[j]] = 1;
                    interior_total++;
                }
            }
        }
        return Py_BuildValue("(NiLLLL)", records.release(), ending, (i64)s.vstored.size(),
                             virtual_marked, interior_total, interior_covered);
    });
}

PyObject *Engine_compile_model(PyObject *, PyObject *args) {
    PyObject *decl, *edge;
    EdgeLayout L;
    if (!PyArg_UnpackTuple(args, "compile_model", 2, 2, &decl, &edge) ||
        !L.take(edge, "compile_model"))
        return NULL;
    return translated([&] { return build_model(decl, L); });
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
    METHOD(compile_model, METH_VARARGS | METH_STATIC,
           "compile_model(decl, Edge) -> the declaration on integers, for play()."),
    METHOD(play, METH_VARARGS,
           "play(model, record, max_moves, lazy, getrandbits) -> (records, ending, vertices, "
           "virtual_marked, interior_total, interior_covered): a whole session on this "
           "fresh engine, RandomFair's with getrandbits its rng.getrandbits, else the "
           "Avoider's; record is the MoveRecord class."),
    {NULL, NULL, 0, NULL},
};

#define COUNTER(name) {#name, T_LONGLONG, offsetof(Engine, name), READONLY, NULL}

PyMemberDef Engine_members[] = {
    COUNTER(unmarked), COUNTER(relaxations), COUNTER(queue_ops), COUNTER(live_size),
    COUNTER(max_rank), COUNTER(flushes),
    {NULL, 0, 0, 0, NULL},
};

PyGetSetDef Engine_getset[] = {
    {"backend", (getter)Engine_get_backend, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

PyTypeObject EngineType = {PyVarObject_HEAD_INIT(NULL, 0)};

PyMethodDef native_methods[] = {
    {"scan_plain", scan_plain, METH_O,
     "scan_plain(text) -> (vertices, ids, heads, tails, others), or None for a text "
     "that is not ASCII or has a line boundary other than \\n."},
    {"make_edges", (PyCFunction)(void (*)(void))make_edges, METH_FASTCALL,
     "make_edges(Edge, ids, heads, tails[, kinds, labels, interiors]) -> list of Edge; a "
     "column given as None gives each edge that field's default."},
    {"check_edges", (PyCFunction)(void (*)(void))check_edges, METH_FASTCALL,
     "check_edges(Edge, edges, vertex_set) -> (edges sorted by id, every check passed), or "
     "None for input the kernel does not take."},
    {NULL, NULL, 0, NULL},
};

PyModuleDef native_module = {PyModuleDef_HEAD_INIT};

}  // namespace

PyMODINIT_FUNC PyInit__native(void) {
    EngineType.tp_name = "hypergame._native.CompiledRankEngine";
    EngineType.tp_doc = "Dense-index rank engine; the RankTable wrapper owns string ids.";
    EngineType.tp_basicsize = sizeof(Engine);
    EngineType.tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE;
    EngineType.tp_new = Engine_new;
    EngineType.tp_dealloc = (destructor)Engine_dealloc;
    EngineType.tp_methods = Engine_methods;
    EngineType.tp_members = Engine_members;
    EngineType.tp_getset = Engine_getset;
    ModelType.tp_name = "hypergame._native.CompiledModel";
    ModelType.tp_doc = "A declaration on integers, from CompiledRankEngine.compile_model.";
    ModelType.tp_basicsize = sizeof(Model);
    ModelType.tp_flags = Py_TPFLAGS_DEFAULT;
    ModelType.tp_dealloc = (destructor)Model_dealloc;
    if (PyType_Ready(&EngineType) < 0 || PyType_Ready(&ModelType) < 0)
        return NULL;

    native_module.m_name = "hypergame._native";
    native_module.m_doc = "Compiled code of hypergame: model kernels and rank engine.";
    native_module.m_size = -1;
    native_module.m_methods = native_methods;
    PyObject *m = PyModule_Create(&native_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "CompiledRankEngine", (PyObject *)&EngineType) < 0 ||
        PyModule_AddIntConstant(m, "PROTOCOL", PROTOCOL) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
