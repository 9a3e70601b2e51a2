// Compiled line scanner for the model format: the contract of
// hypergame.model.scan_plain, in one pass over an ASCII text.
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

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <new>
#include <string_view>
#include <vector>

namespace {

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

PyMethodDef scan_methods[] = {
    {"scan_plain", scan_plain, METH_O,
     "scan_plain(text) -> (vertices, ids, heads, tails, others), or None for a text "
     "that is not ASCII or has a line boundary other than \\n."},
    {NULL, NULL, 0, NULL},
};

PyModuleDef scan_module = {PyModuleDef_HEAD_INIT};

}  // namespace

PyMODINIT_FUNC PyInit__scan(void) {
    scan_module.m_name = "hypergame._scan";
    scan_module.m_doc = "Compiled line scanner of the model format (see hypergame.model).";
    scan_module.m_size = -1;
    scan_module.m_methods = scan_methods;
    return PyModule_Create(&scan_module);
}
