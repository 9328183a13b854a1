/* Compiled kernels for quandles._kernel: the column scan and the relabelling walk.

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

/* Advance p to the next permutation in lexicographic order.  Returns 0 after
   the last, else 1 + the first position changed (p[0..i-1] stay). */
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
    return i + 1;
}

PyDoc_STRVAR(scan_doc,
"scan(n, ranks, cap)\n\n"
"Mirror of quandles._kernel._scan_closure_pure.\n\n"
"`ranks[k]` is the cycle-type rank of the k-th permutation of range(n - 1)\n"
"in lexicographic order; every position's k-th candidate column is its lift,\n"
"made once, before the scan.  Position 0 tries only the first column of each\n"
"rank; the other positions skip, for free, columns of greater rank than R_0.\n"
"Charges 1 per placement and n! per kept table, and stops at the first\n"
"charge past `cap`.\n"
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
    /* a negative cap, like 0, stops at the first placement */
    const unsigned long long cap = cap_arg < 0 ? 0 : cap_arg;
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
    const unsigned long long relabellings = (unsigned long long)count * n; /* n! */
    /* each charge is 1 or n! <= 10! and the scan stops at the first one past
       cap < 2**63, so the sum stays under 2**63 + 10! and never wraps */
    unsigned long long charged = 0;
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
        placements++;
        if (++charged > cap) {
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
            charged += relabellings;
            if (charged > cap) {
                hit = 1;
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
"orbit(flat, n, keep) -> (least, witness, stabilizer, images)\n\n"
"Mirror of quandles._kernel._orbit_pure: one walk over the n! relabellings\n"
"of a row-major 1-based table, in lexicographic order.  `keep` selects the\n"
"images returned: 0 none, 1 those sharing the table's column 0, 2 all.\n"
"Any other image is built row by row and abandoned once it is greater than\n"
"the least so far and differs from the table.  Bytes are made only for\n"
"stabilizer elements, kept images and, at the end, the least image and its\n"
"witness.");

static PyObject *
orbit(PyObject *self, PyObject *args)
{
    Py_buffer view;
    int n, keep;
    unsigned char table[MAX_ORDER * MAX_ORDER];
    unsigned char cur[MAX_ORDER * MAX_ORDER];
    unsigned char least[MAX_ORDER * MAX_ORDER];
    unsigned char word[MAX_ORDER], witness[MAX_ORDER];
    int p[MAX_ORDER], inv[MAX_ORDER];
    PyObject *stabilizer = NULL, *images = NULL;

    if (!PyArg_ParseTuple(args, "y*ii", &view, &n, &keep))
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
    if (keep < 0 || keep > 2) {
        PyErr_SetString(PyExc_ValueError, "keep must be 0, 1 or 2");
        goto fail;
    }
    stabilizer = PyList_New(0);
    images = PySet_New(NULL);
    if (stabilizer == NULL || images == NULL)
        goto fail;
    memcpy(least, src, nn);
    for (int i = 0; i < n; i++) {
        p[i] = inv[i] = i;
        witness[i] = (unsigned char)(i + 1);
    }
    int changed = 1; /* 1 + the first position of p changed by the last step */
    do {
        for (int i = changed - 1; i < n; i++)
            inv[p[i]] = i;
        /* out[a][b] = p(table[inv a][inv b]) + 1; under keep 1, column 0 alone
           decides whether the image is kept */
        int kept = keep == 2;
        if (keep == 1) {
            kept = 1;
            for (int a = 0; a < n && kept; a++)
                kept = p[table[inv[a] * n + inv[0]]] + 1 == src[a * n];
        }
        int order = 0, fixed = 1;
        if (kept) {
            /* nothing to drop, so build it whole without the entry loop's checks,
               which would cost --all about half again: out[p i][p j] = p(table[i][j]) + 1 */
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++)
                    cur[p[i] * n + p[j]] = (unsigned char)(p[table[i * n + j]] + 1);
            order = memcmp(cur, least, nn);
            fixed = memcmp(cur, src, nn) == 0;
        } else {
            /* entry by entry, until it is known to be greater than the least and not fixed */
            for (int a = 0; a < n; a++) {
                const unsigned char *t = table + inv[a] * n;
                for (int b = 0, k = a * n; b < n; b++, k++) {
                    const int v = p[t[inv[b]]] + 1;
                    cur[k] = (unsigned char)v;
                    if (order == 0)
                        order = v - least[k];
                    fixed = fixed && v == src[k];
                    if (order > 0 && !fixed)
                        goto next;
                }
            }
        }
        if (order < 0) {
            memcpy(least, cur, nn);
            for (int i = 0; i < n; i++)
                witness[i] = (unsigned char)(p[i] + 1);
        }
        if (fixed) {
            for (int i = 0; i < n; i++)
                word[i] = (unsigned char)(p[i] + 1);
            PyObject *w = PyBytes_FromStringAndSize((const char *)word, n);
            int err = w == NULL || PyList_Append(stabilizer, w) < 0;
            Py_XDECREF(w);
            if (err)
                goto fail;
        }
        if (kept) {
            PyObject *image = PyBytes_FromStringAndSize((const char *)cur, nn);
            int err = image == NULL || PySet_Add(images, image) < 0;
            Py_XDECREF(image);
            if (err)
                goto fail;
        }
    next:
        changed = next_permutation(p, n);
    } while (changed);
    PyBuffer_Release(&view);
    return Py_BuildValue("(y#y#NN)", (const char *)least, (Py_ssize_t)nn,
                         (const char *)witness, (Py_ssize_t)n, stabilizer, images);

fail:
    Py_XDECREF(stabilizer);
    Py_XDECREF(images);
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
    .m_doc = "Compiled scan and relabelling-walk kernels; see quandles._kernel.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
