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
#define BACKTRACKING 1

/* pairs (j, k) whose columns j, k and col_at[k][j] all complete at depth d */
static int
partial_ok(const unsigned char **col_at, int d, int n)
{
    for (int k = 0; k <= d; k++) {
        const unsigned char *ck = col_at[k];
        for (int j = 0; j <= d; j++) {
            int t = ck[j];
            int m = k > j ? k : j;
            if (t > m)
                m = t;
            if (m != d)
                continue;
            const unsigned char *cj = col_at[j];
            const unsigned char *ct = col_at[t];
            for (int i = 0; i < n; i++)
                if (ck[cj[i]] != ct[ck[i]])
                    return 0;
        }
    }
    return 1;
}

static int
full_ok(const unsigned char **col_at, int n)
{
    for (int k = 0; k < n; k++) {
        const unsigned char *ck = col_at[k];
        for (int j = 0; j < n; j++) {
            const unsigned char *cj = col_at[j];
            const unsigned char *ct = col_at[ck[j]];
            for (int i = 0; i < n; i++)
                if (ck[cj[i]] != ct[ck[i]])
                    return 0;
        }
    }
    return 1;
}

PyDoc_STRVAR(scan_doc,
"scan(n, strategy, packed, count, cap)\n\n"
"Mirror of quandles._kernel._scan_pure on packed candidate columns.\n\n"
"`packed[i]` holds the candidate columns for position i as count*n bytes of\n"
"0-indexed values.  Returns (matrices, placements, hit_cap) with matrices\n"
"as row-major 1-based bytes.");

static PyObject *
scan(PyObject *self, PyObject *args)
{
    int n_arg, strategy, count_arg;
    long long cap_arg;
    PyObject *packed;
    const unsigned char *pools[MAX_ORDER];
    const unsigned char *col_at[MAX_ORDER];
    int idx[MAX_ORDER + 1];
    unsigned char buf[MAX_ORDER * MAX_ORDER];

    if (!PyArg_ParseTuple(args, "iiO!iL", &n_arg, &strategy, &PyList_Type, &packed,
                          &count_arg, &cap_arg))
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

    PyObject *out = PyList_New(0);
    if (out == NULL)
        return NULL;
    long long placements = 0;
    int hit = 0;
    int backtracking = strategy == BACKTRACKING;
    int depth = 0;
    int last = n - 1;
    idx[0] = 0;
    while (depth >= 0) {
        if (idx[depth] >= count) {
            depth--;
            continue;
        }
        int i = idx[depth]++;
        if (++placements > cap) {
            hit = 1;
            break;
        }
        col_at[depth] = pools[depth] + (Py_ssize_t)i * n;
        if (backtracking && !partial_ok(col_at, depth, n))
            continue;
        if (depth == last) {
            if (backtracking || full_ok(col_at, n)) {
                for (int r = 0; r < n; r++)
                    for (int c = 0; c < n; c++)
                        buf[r * n + c] = col_at[c][r] + 1;
                PyObject *table = PyBytes_FromStringAndSize((const char *)buf, n * n);
                if (table == NULL || PyList_Append(out, table) < 0) {
                    Py_XDECREF(table);
                    Py_DECREF(out);
                    return NULL;
                }
                Py_DECREF(table);
            }
        }
        else {
            idx[++depth] = 0;
        }
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
    "quandles._speedups",
    "Compiled scan and relabelling-orbit kernels; see quandles._kernel.",
    -1,
    methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
