// Compiled kernels of hypergame.model: the line scanner and the two edge
// kernels. Each keeps the contract of its pure-Python twin in model.py, which
// stays the reference; model.py takes the compiled copy when this module
// imports.
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
// edge_kernels(Edge) checks that Edge's instances hold exactly the six
// object slots id, head, tail, kind, label and interior, reads their offsets
// once and returns two functions bound to them:
//
// - make_edges(ids, heads, tails[, kinds, labels, interiors]) builds each
//   edge with Edge's tp_alloc and fills its slots, after making every check
//   of Edge.__post_init__. An edge that fails a check, or that the kernel
//   does not take (a tail that is not a tuple of str, a label that is not
//   ASCII, ...), is built by calling Edge, so it raises Edge's own error.
// - check_edges(edges, vertex_set) returns the edges stably sorted by id
//   and whether every per-edge check of ModelDecl passed: no repeated id,
//   a declared head and tail, no misplaced keyword name. It returns None for
//   input it does not take: anything but a tuple or list of Edge instances
//   whose names are str and whose tail and interior are tuples of str.
//
// PROTOCOL is the version of this interface. model.SCAN_PROTOCOL names the
// one the package speaks, and a module of another version is not used; a
// change to the interface raises both.

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <new>
#include <string_view>
#include <vector>

namespace {

const int PROTOCOL = 1;  // model.SCAN_PROTOCOL

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
    try {
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
        return PyTuple_Pack(5, scan.vertices.p, scan.ids.p, scan.heads.p, scan.tails.p,
                            scan.others.p);
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    } catch (const std::exception &exc) {
        PyErr_SetString(PyExc_MemoryError, exc.what());
        return NULL;
    }
}

// The edge kernels. ----------------------------------------------------

const char *const FIELDS[] = {"id", "head", "tail", "kind", "label", "interior"};
enum { ID_F, HEAD_F, TAIL_F, KIND_F, LABEL_F, INTERIOR_F, N_FIELDS };
// Tails and interiors longer than this go through Python; a duplicate tail
// vertex is looked for pairwise.
const Py_ssize_t LONG_TUPLE = 32;
const char *const LAYOUT = "hypergame._scan.EdgeLayout";

// Edge's class and slot offsets, and the field values the kernels compare
// with or fill in. Owned by the capsule the two bound functions share.
struct EdgeLayout {
    PyTypeObject *cls = NULL;
    Py_ssize_t offset[N_FIELDS] = {};
    PyObject *real = NULL, *virtual_ = NULL, *no_label = NULL, *no_interior = NULL;

    ~EdgeLayout() {
        Py_XDECREF(cls);
        Py_XDECREF(real);
        Py_XDECREF(virtual_);
        Py_XDECREF(no_label);
        Py_XDECREF(no_interior);
    }
    PyObject *&slot(PyObject *edge, int field) const {
        return *(PyObject **)((char *)edge + offset[field]);
    }
};

void free_layout(PyObject *capsule) {
    delete (EdgeLayout *)PyCapsule_GetPointer(capsule, LAYOUT);
}

inline const EdgeLayout &layout_of(PyObject *capsule) {
    return *(const EdgeLayout *)PyCapsule_GetPointer(capsule, LAYOUT);
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
    if (kind != L.real && kind != L.virtual_ &&
        !(PyUnicode_CheckExact(kind) && (str_eq(kind, L.real) || str_eq(kind, L.virtual_))))
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

PyObject *make_edges(PyObject *capsule, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs < 3 || nargs > N_FIELDS) {
        PyErr_SetString(PyExc_TypeError, "make_edges() takes 3 to 6 columns");
        return NULL;
    }
    const EdgeLayout &L = layout_of(capsule);
    PyObject *defaults[N_FIELDS] = {NULL, NULL, NULL, L.real, L.no_label, L.no_interior};
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

PyObject *check_edges(PyObject *capsule, PyObject *const *args, Py_ssize_t nargs) {
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "check_edges() takes edges and a vertex set");
        return NULL;
    }
    const EdgeLayout &L = layout_of(capsule);
    PyObject *edges = args[0], *vset = args[1];
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
    try {
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
        int virtual_named = PySet_Contains(vset, L.virtual_);
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
            if (virtual_named && tuple_has(tail, L.virtual_) &&
                !(str_eq(kind, L.virtual_) && k > 0 && str_eq(PyTuple_GET_ITEM(tail, k - 1), L.virtual_)))
                ok = false;
            if (PyTuple_GET_SIZE(interior) && str_eq(kind, L.real) && tuple_has(interior, L.virtual_))
                ok = false;
        }
        return Py_BuildValue("(NO)", out.release(), ok ? Py_True : Py_False);
    } catch (const std::bad_alloc &) {
        return PyErr_NoMemory();
    }
}

PyMethodDef make_edges_def = {
    "make_edges", (PyCFunction)(void (*)(void))make_edges, METH_FASTCALL,
    "make_edges(ids, heads, tails[, kinds, labels, interiors]) -> list of Edge; a column "
    "given as None gives each edge that field's default."};
PyMethodDef check_edges_def = {
    "check_edges", (PyCFunction)(void (*)(void))check_edges, METH_FASTCALL,
    "check_edges(edges, vertex_set) -> (edges sorted by id, every check passed), or None "
    "for input the kernel does not take."};

// The offset of Edge's slot `name`, or -1 with TypeError set unless it is a
// writable object slot of `cls` itself.
Py_ssize_t slot_offset(PyTypeObject *cls, const char *name) {
    PyObject *descr = PyDict_GetItemString(cls->tp_dict, name);  // borrowed
    if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type) ||
        ((PyDescrObject *)descr)->d_type != cls) {
        PyErr_Format(PyExc_TypeError, "edge_kernels(): %s.%s is not a slot", cls->tp_name, name);
        return -1;
    }
    PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
    if (member->type != T_OBJECT_EX || member->flags & READONLY) {
        PyErr_Format(PyExc_TypeError, "edge_kernels(): %s.%s is not a writable object slot",
                     cls->tp_name, name);
        return -1;
    }
    return member->offset;
}

PyObject *edge_kernels(PyObject *module, PyObject *arg) {
    if (!PyType_Check(arg)) {
        PyErr_SetString(PyExc_TypeError, "edge_kernels() takes the Edge class");
        return NULL;
    }
    PyTypeObject *cls = (PyTypeObject *)arg;
    // Exactly the six fields, in order, as object slots and nothing else: a
    // filled slot is then a whole edge.
    Ref fields(PyObject_GetAttrString(arg, "__dataclass_fields__"));
    if (fields.p == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return NULL;
        PyErr_Clear();
        fields.p = PyDict_New();
    }
    Ref names(fields.p ? PySequence_List(fields.p) : NULL);
    if (names.p == NULL)
        return NULL;
    bool same = PyList_GET_SIZE(names.p) == N_FIELDS && cls->tp_base == &PyBaseObject_Type &&
                cls->tp_dictoffset == 0 && cls->tp_itemsize == 0 &&
                cls->tp_basicsize == (Py_ssize_t)(sizeof(PyObject) + N_FIELDS * sizeof(PyObject *));
    for (int f = 0; same && f < N_FIELDS; f++) {
        PyObject *name = PyList_GET_ITEM(names.p, f);
        same = PyUnicode_Check(name) && PyUnicode_CompareWithASCIIString(name, FIELDS[f]) == 0;
    }
    if (!same) {
        PyErr_Format(PyExc_TypeError,
                     "edge_kernels(): %s is not a slotted dataclass of exactly the fields "
                     "id, head, tail, kind, label, interior",
                     cls->tp_name);
        return NULL;
    }
    EdgeLayout *layout = new (std::nothrow) EdgeLayout;
    if (layout == NULL)
        return PyErr_NoMemory();
    Ref capsule(PyCapsule_New(layout, LAYOUT, free_layout));
    if (capsule.p == NULL) {
        delete layout;
        return NULL;
    }
    Py_INCREF(cls);
    layout->cls = cls;
    for (int f = 0; f < N_FIELDS; f++)
        if ((layout->offset[f] = slot_offset(cls, FIELDS[f])) < 0)
            return NULL;
    layout->real = PyUnicode_InternFromString("real");
    layout->virtual_ = PyUnicode_InternFromString("virtual");
    layout->no_label = PyUnicode_New(0, 0);
    layout->no_interior = PyTuple_New(0);
    if (!layout->real || !layout->virtual_ || !layout->no_label || !layout->no_interior)
        return NULL;
    PyObject *mod = PyModule_GetNameObject(module);
    if (mod == NULL)
        return NULL;
    PyObject *make = PyCFunction_NewEx(&make_edges_def, capsule.p, mod);
    PyObject *check = PyCFunction_NewEx(&check_edges_def, capsule.p, mod);
    Py_DECREF(mod);
    if (make == NULL || check == NULL) {
        Py_XDECREF(make);
        Py_XDECREF(check);
        return NULL;
    }
    return Py_BuildValue("(NN)", make, check);
}

PyMethodDef scan_methods[] = {
    {"scan_plain", scan_plain, METH_O,
     "scan_plain(text) -> (vertices, ids, heads, tails, others), or None for a text "
     "that is not ASCII or has a line boundary other than \\n."},
    {"edge_kernels", edge_kernels, METH_O,
     "edge_kernels(Edge) -> (make_edges, check_edges), bound to Edge's slots."},
    {NULL, NULL, 0, NULL},
};

PyModuleDef scan_module = {PyModuleDef_HEAD_INIT};

}  // namespace

PyMODINIT_FUNC PyInit__scan(void) {
    scan_module.m_name = "hypergame._scan";
    scan_module.m_doc = "Compiled kernels of hypergame.model: line scanner and edge kernels.";
    scan_module.m_size = -1;
    scan_module.m_methods = scan_methods;
    PyObject *m = PyModule_Create(&scan_module);
    if (m != NULL && PyModule_AddIntConstant(m, "PROTOCOL", PROTOCOL) < 0)
        Py_CLEAR(m);
    return m;
}
