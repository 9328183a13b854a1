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
   col_at[t] is R_t (a lifted candidate or forced[t]) or NULL while unset; trail
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

PyDoc_STRVAR(scan_doc,
"scan(n, ranks, cap)\n\n"
"Mirror of quandles._kernel._scan_closure_pure.\n\n"
"`ranks[k]` is the cycle-type rank of the k-th permutation of range(n - 1)\n"
"in lexicographic order; every position's k-th candidate column is its lift,\n"
"made once, before the scan.  Position 0 tries only the first column of each\n"
"rank; the other positions skip, for free, columns of greater rank than R_0.\n"
"Returns (matrices, placements, hit_cap), matrices as row-major 1-based bytes.");

/* Branch on the least unset position, propagate, undo through the trail.
   Each position is set at most once along a path, so the trail and the
   frame stack hold at most n entries.  Frame 0 sets position 0 and walks
   the candidate indices; deeper frames walk `eligible`, the indices whose
   rank does not exceed that of the current R_0. */
static PyObject *
scan(PyObject *self, PyObject *args)
{
    int n_arg;
    long long cap_arg;
    const char *ranks_arg;
    Py_ssize_t count_arg;

    if (!PyArg_ParseTuple(args, "iy#L", &n_arg, &ranks_arg, &count_arg, &cap_arg))
        return NULL;
    /* copies whose address is never taken, so the hot loop keeps them in registers */
    const int n = n_arg;
    const long long cap = cap_arg;
    const unsigned char *const ranks = (const unsigned char *)ranks_arg;
    if (n < 1 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError, "order out of range");
        return NULL;
    }
    int count = 1; /* (n - 1)!, at most 9! */
    for (int k = 2; k < n; k++)
        count *= k;
    if (count_arg != count) {
        PyErr_SetString(PyExc_ValueError, "need one rank per permutation of range(n - 1)");
        return NULL;
    }

    /* lifted[(i * count + k) * n ...] is position i's k-th candidate column */
    unsigned char *lifted = PyMem_New(unsigned char, (size_t)n * count * n);
    int *eligible = PyMem_New(int, count);
    PyObject *out = PyList_New(0);
    if (lifted == NULL || eligible == NULL || out == NULL) {
        PyMem_Free(lifted);
        PyMem_Free(eligible);
        Py_XDECREF(out);
        return PyErr_NoMemory();
    }
    unsigned char *col = lifted;
    for (int i = 0; i < n; i++) {
        int perm[MAX_ORDER];
        for (int y = 0; y < n - 1; y++)
            perm[y] = y;
        do {
            col[i] = (unsigned char)i;
            for (int y = 0; y < n - 1; y++)
                col[y + (y >= i)] = (unsigned char)(perm[y] + (perm[y] >= i));
            col += n;
        } while (next_permutation(perm, n - 1));
    }

    struct closure s;
    struct {
        int pos, next, mark;
    } frame[MAX_ORDER];
    unsigned char tried[256] = {0}; /* ranks already used for R_0 */
    memset(&s, 0, sizeof s);
    s.n = n;
    int n_eligible = 0;
    long long placements = 0;
    int hit = 0;
    int top = 0;
    frame[0].pos = frame[0].next = frame[0].mark = 0;
    while (top >= 0) {
        const int pos = frame[top].pos, mark = frame[top].mark;
        while (s.len > mark)
            s.col_at[s.trail[--s.len]] = NULL;
        int i;
        if (top == 0) {
            while (frame[0].next < count && tried[ranks[frame[0].next]])
                frame[0].next++;
            if (frame[0].next >= count)
                break;
            i = frame[0].next++;
            tried[ranks[i]] = 1;
            n_eligible = 0;
            for (int k = 0; k < count; k++)
                if (ranks[k] <= ranks[i])
                    eligible[n_eligible++] = k;
        } else {
            if (frame[top].next >= n_eligible) {
                top--;
                continue;
            }
            i = eligible[frame[top].next++];
        }
        if (++placements > cap) {
            hit = 1;
            break;
        }
        s.col_at[pos] = lifted + ((Py_ssize_t)pos * count + i) * n;
        s.trail[s.len++] = pos;
        if (!closure_propagate(&s, mark))
            continue;
        if (s.len == n) {
            if (append_table(out, s.col_at, n) < 0) {
                Py_CLEAR(out);
                break;
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
    PyMem_Free(lifted);
    PyMem_Free(eligible);
    /* with out NULL (a failed append) this returns NULL and keeps the error */
    return Py_BuildValue("(NLO)", out, placements, hit ? Py_True : Py_False);
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
    if (n < 1 || n > MAX_ORDER) {
        PyErr_SetString(PyExc_ValueError, "order out of range");
        goto fail;
    }
    const int nn = n * n;
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
