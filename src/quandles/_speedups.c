/* Compiled kernels for quandles._kernel: the column scan and the relabelling orbit.

   Both must stay observably identical to the pure-Python versions in
   quandles._kernel: same output bytes, same order, same placement counts,
   and the same ValueError on malformed input.  Orders are capped at 10, so
   fixed-size buffers suffice; every index that reaches a buffer is checked
   against the order before the loops start.
*/
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define MAX_ORDER 10

/* Append the table whose column c is col_at[c] to `out` as row-major 1-based bytes. */
static int
append_table(PyObject *out, const unsigned char *const *col_at, int n)
{
    unsigned char buf[MAX_ORDER * MAX_ORDER];
    for (int r = 0; r < n; r++)
        for (int c = 0; c < n; c++)
            buf[r * n + c] = col_at[c][r] + 1;
    PyObject *table = PyBytes_FromStringAndSize((const char *)buf, n * n);
    if (table == NULL)
        return -1;
    int err = PyList_Append(out, table);
    Py_DECREF(table);
    return err;
}

/* Search state of the closure scan, on the stack of one scan call.
   col_at[t] is R_t (a pool entry or forced[t]) or NULL while unset; trail
   lists the set positions in the order they were set. */
struct closure {
    int n;
    int len;
    int trail[MAX_ORDER];
    const unsigned char *col_at[MAX_ORDER];
    unsigned char forced[MAX_ORDER][MAX_ORDER];
};

/* Force R_{R_k(j)} = R_k R_j R_k^-1 if that column is unset, else check it;
   0 when it contradicts the column already set. */
static int
closure_force(struct closure *s, int k, int j)
{
    const int n = s->n;
    const unsigned char *ck = s->col_at[k], *cj = s->col_at[j];
    const int t = ck[j];
    const unsigned char *ct = s->col_at[t];
    if (ct != NULL) {
        for (int y = 0; y < n; y++)
            if (ct[ck[y]] != ck[cj[y]])
                return 0;
        return 1;
    }
    unsigned char *f = s->forced[t];
    for (int y = 0; y < n; y++)
        f[ck[y]] = ck[cj[y]];
    s->col_at[t] = f;
    s->trail[s->len++] = t;
    return 1;
}

/* Pair each position set from trail[start] on with every position set up
   to it, in both orders, until no new position is set.  Pairs with a
   position set later are met when that position is dequeued. */
static int
closure_propagate(struct closure *s, int start)
{
    for (int q = start; q < s->len; q++) {
        const int a = s->trail[q];
        for (int p = 0; p <= q; p++) {
            const int b = s->trail[p];
            if (!closure_force(s, a, b) || (a != b && !closure_force(s, b, a)))
                return 0;
        }
    }
    return 1;
}

PyDoc_STRVAR(scan_doc,
"scan(n, packed, count, cap)\n\n"
"Mirror of quandles._kernel._scan_closure_pure on packed candidate columns.\n\n"
"`packed[i]` holds the candidate columns for position i as count*n bytes of\n"
"0-indexed values.  Returns (matrices, placements, hit_cap) with matrices\n"
"as row-major 1-based bytes.");

/* Branch on the least unset position, propagate, undo through the trail.
   Each position is set at most once along a path, so the trail and the
   frame stack hold at most n entries. */
static PyObject *
scan(PyObject *self, PyObject *args)
{
    int n_arg, count_arg;
    long long cap_arg;
    PyObject *packed;
    const unsigned char *pools[MAX_ORDER];

    if (!PyArg_ParseTuple(args, "iO!iL", &n_arg, &PyList_Type, &packed, &count_arg, &cap_arg))
        return NULL;
    /* copies whose address is never taken, so the hot loop keeps them in registers */
    const int n = n_arg, count = count_arg;
    const long long cap = cap_arg;
    if (n < 1 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError, "order out of range");
        return NULL;
    }
    if (PyList_GET_SIZE(packed) != n) {
        PyErr_SetString(PyExc_ValueError, "need one candidate pool per position");
        return NULL;
    }
    for (int i = 0; i < n; i++) {
        PyObject *blob = PyList_GET_ITEM(packed, i);
        if (!PyBytes_Check(blob)) {
            PyErr_SetString(PyExc_TypeError, "candidate pools must be bytes");
            return NULL;
        }
        if (PyBytes_GET_SIZE(blob) != (Py_ssize_t)count * n) {
            PyErr_SetString(PyExc_ValueError, "candidate pool has wrong size");
            return NULL;
        }
        pools[i] = (const unsigned char *)PyBytes_AS_STRING(blob);
        for (Py_ssize_t k = 0; k < (Py_ssize_t)count * n; k++)
            if (pools[i][k] >= n) {
                PyErr_SetString(PyExc_ValueError, "candidate column entry outside 0..n-1");
                return NULL;
            }
    }

    struct closure s;
    struct {
        int pos, next, mark;
    } frame[MAX_ORDER];
    memset(&s, 0, sizeof s);
    s.n = n;
    PyObject *out = PyList_New(0);
    if (out == NULL)
        return NULL;
    long long placements = 0;
    int hit = 0;
    int top = 0;
    frame[0].pos = frame[0].next = frame[0].mark = 0;
    while (top >= 0) {
        const int pos = frame[top].pos, mark = frame[top].mark;
        while (s.len > mark)
            s.col_at[s.trail[--s.len]] = NULL;
        if (frame[top].next >= count) {
            top--;
            continue;
        }
        const int i = frame[top].next++;
        if (++placements > cap) {
            hit = 1;
            break;
        }
        s.col_at[pos] = pools[pos] + (Py_ssize_t)i * n;
        s.trail[s.len++] = pos;
        if (!closure_propagate(&s, mark))
            continue;
        if (s.len == n) {
            if (append_table(out, s.col_at, n) < 0) {
                Py_DECREF(out);
                return NULL;
            }
            continue;
        }
        int d = 0;
        while (s.col_at[d] != NULL)
            d++;
        top++;
        frame[top].pos = d;
        frame[top].next = 0;
        frame[top].mark = s.len;
    }
    return Py_BuildValue("(NLO)", out, placements, hit ? Py_True : Py_False);
}

/* Advance p to the next permutation in lexicographic order; 0 after the last. */
static int
next_permutation(int *p, int n)
{
    int i = n - 2;
    while (i >= 0 && p[i] >= p[i + 1])
        i--;
    if (i < 0)
        return 0;
    int j = n - 1;
    while (p[j] <= p[i])
        j--;
    int tmp = p[i];
    p[i] = p[j];
    p[j] = tmp;
    for (int k = i + 1, l = n - 1; k < l; k++, l--) {
        tmp = p[k];
        p[k] = p[l];
        p[l] = tmp;
    }
    return 1;
}

PyDoc_STRVAR(orbit_doc,
"orbit(flat, n) -> (images, stabilizer)\n\n"
"Mirror of quandles._kernel._orbit_pure: one walk over the n! relabellings\n"
"of a row-major 1-based table, in lexicographic order.");

static PyObject *
orbit(PyObject *self, PyObject *args)
{
    Py_buffer view;
    int n;
    unsigned char table[MAX_ORDER * MAX_ORDER];
    unsigned char cur[MAX_ORDER * MAX_ORDER];
    unsigned char word[MAX_ORDER];
    int p[MAX_ORDER];
    PyObject *images = NULL, *stabilizer = NULL;

    if (!PyArg_ParseTuple(args, "y*i", &view, &n))
        return NULL;
    const unsigned char *src = (const unsigned char *)view.buf;
    int nn = n * n;
    if (n < 1 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError, "order out of range");
        goto fail;
    }
    if (view.len != nn) {
        PyErr_SetString(PyExc_ValueError, "flat length does not match order");
        goto fail;
    }
    for (int i = 0; i < nn; i++) {
        if (src[i] < 1 || src[i] > n) {
            PyErr_Format(PyExc_ValueError, "entry %d outside 1..%d", src[i], n);
            goto fail;
        }
        table[i] = src[i] - 1;
    }
    images = PyDict_New();
    stabilizer = PyList_New(0);
    if (images == NULL || stabilizer == NULL)
        goto fail;
    for (int i = 0; i < n; i++)
        p[i] = i;
    do {
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
                cur[p[i] * n + p[j]] = p[table[i * n + j]] + 1;
        PyObject *key = PyBytes_FromStringAndSize((const char *)cur, nn);
        if (key == NULL)
            goto fail;
        /* the first relabelling to reach an image is the least one */
        int seen = PyDict_Contains(images, key);
        int fixed = memcmp(cur, src, nn) == 0;
        int err = seen < 0;
        PyObject *w = NULL;
        if (!err && (seen == 0 || fixed)) {
            for (int i = 0; i < n; i++)
                word[i] = (unsigned char)(p[i] + 1);
            w = PyBytes_FromStringAndSize((const char *)word, n);
            err = w == NULL
                  || (seen == 0 && PyDict_SetItem(images, key, w) < 0)
                  || (fixed && PyList_Append(stabilizer, w) < 0);
        }
        Py_DECREF(key);
        Py_XDECREF(w);
        if (err)
            goto fail;
    } while (next_permutation(p, n));
    PyBuffer_Release(&view);
    return Py_BuildValue("(NN)", images, stabilizer);

fail:
    Py_XDECREF(images);
    Py_XDECREF(stabilizer);
    PyBuffer_Release(&view);
    return NULL;
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_VARARGS, scan_doc},
    {"orbit", orbit, METH_VARARGS, orbit_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "quandles._speedups",
    .m_doc = "Compiled scan and relabelling-orbit kernels; see quandles._kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
