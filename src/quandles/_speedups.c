/* Compiled kernels for quandles._kernel: the column scan, the relabelling
   walk, the one-pass invariants of a permutation group, and the table
   intake, which parses the plain text format and checks the three table
   conditions.  The walk is one loop, the same for every keep mode; a walk
   that keeps images adds one coset pass, which builds each kept image once
   and sorts them.

   All five must stay observably identical to the pure-Python versions
   (quandles._kernel, and quandles.matrix for the intake): same output
   bytes, same order, same placement counts and witnesses, and the same
   ValueError on malformed input; the parse instead declines, with None,
   every text it does not take.  Orders are capped at 10, and group degrees
   and checked or parsed tables at 255, so fixed-size buffers suffice; every
   index that reaches a buffer is checked against the order or degree
   before the loops start.
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
   lifted[(i * count + k) * n ...] is position i's k-th candidate column;
   col_at[t] is R_t (a lifted candidate or forced[t]) or NULL while unset; trail
   lists the set positions in the order they were set. */
struct closure {
    int n, count, len;
    const unsigned char *lifted;
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
"Mirror of quandles._kernel._scan_closure_pure, one recursion like its walk.\n\n"
"`ranks[k]` is the cycle-type rank of the k-th permutation of range(n - 1)\n"
"in lexicographic order; every position's k-th candidate column is its lift,\n"
"made once, before the scan.  Position 0 tries only the first column of each\n"
"rank; the other positions skip, for free, columns of greater rank than R_0.\n"
"The charge is the placements so far plus n! per kept table; the scan stops\n"
"at the first placement or kept table that takes it past `cap`.\n"
"Returns (matrices, placements, hit_cap), matrices as row-major 1-based bytes.");

/* The kept tables and the budget of one scan call; relabellings is n!. */
struct budget {
    PyObject *out;
    unsigned long long placements, cap, relabellings;
};

/* The charge placements + n! * (kept tables) is past the cap.  Each step
   adds 1 or n! <= 10! to a charge of at most cap < 2**63, so it never wraps. */
#define OVER_CAP(b) ((b)->placements + (b)->relabellings * PyList_GET_SIZE((b)->out) > (b)->cap)

/* The pure walk(choices, base): place each of the m candidate indices
   `choices` at the least unset position, propagate, then recurse over
   `base` or append the finished table, and undo through the trail.  Each
   position is set at most once along a path, so the trail holds at most n
   entries and the recursion is at most n deep.  Returns 1 to go on, 0 once
   the charge passes the cap, -1 on error. */
static int
scan_walk(struct closure *s, struct budget *b, const int *choices, int m, const int *base, int m_base)
{
    const int n = s->n, mark = s->len;
    int d = 0;
    while (s->col_at[d] != NULL)
        d++;
    const unsigned char *col = s->lifted + (Py_ssize_t)d * s->count * n;
    for (int c = 0; c < m; c++) {
        b->placements++;
        if (OVER_CAP(b))
            return 0;
        s->col_at[d] = col + (Py_ssize_t)choices[c] * n;
        s->trail[s->len++] = d;
        if (closure_propagate(s, mark)) {
            if (s->len < n) {
                const int go = scan_walk(s, b, base, m_base, base, m_base);
                if (go <= 0)
                    return go;
            } else if (append_table(b->out, s->col_at, n) < 0) {
                return -1;
            } else if (OVER_CAP(b)) {
                return 0;
            }
        }
        while (s->len > mark)
            s->col_at[s->trail[--s->len]] = NULL;
    }
    return 1;
}

/* Walk once per rank from position 0, with R_0 the first candidate of that
   rank and every deeper position drawing from `eligible`, the candidates of
   no greater rank. */
static PyObject *
scan(PyObject *self, PyObject *args)
{
    int n;
    long long cap;
    const char *ranks_arg;
    Py_ssize_t count_arg;

    if (!PyArg_ParseTuple(args, "iy#L", &n, &ranks_arg, &count_arg, &cap))
        return NULL;
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

    struct closure s = {.n = n, .count = count, .lifted = lifted};
    /* a negative cap, like 0, stops at the first placement */
    struct budget b = {out, 0, cap < 0 ? 0 : cap, (unsigned long long)count * n};
    unsigned char tried[256] = {0}; /* ranks already used for R_0 */
    int go = 1;
    for (int i = 0; go > 0 && i < count; i++) {
        if (tried[ranks[i]])
            continue;
        tried[ranks[i]] = 1;
        int n_eligible = 0;
        for (int k = 0; k < count; k++)
            if (ranks[k] <= ranks[i])
                eligible[n_eligible++] = k;
        go = scan_walk(&s, &b, &i, 1, eligible, n_eligible);
    }
    PyMem_Free(lifted);
    PyMem_Free(eligible);
    if (go < 0)
        Py_CLEAR(out); /* a failed append: Py_BuildValue then returns NULL and keeps the error */
    return Py_BuildValue("(NKO)", out, b.placements, go ? Py_False : Py_True);
}

PyDoc_STRVAR(orbit_doc,
"orbit(flat, n, keep) -> (least, witness, stabilizer, images)\n\n"
"Mirror of quandles._kernel._orbit_pure: one walk over the n! relabellings\n"
"of a row-major 1-based table, in lexicographic order, the same for every\n"
"`keep`: an image is abandoned once it is greater than the least so far and\n"
"differs from the table.  `keep` selects the images returned: 0 none, 1 those\n"
"sharing the table's column 0, 2 all.  Under 1 and 2 one more pass builds the\n"
"kept image of each relabelling least in its coset of the stabilizer, so each\n"
"once, as sorted column tuples R_0..R_{n-1}; one built twice is a RuntimeError.\n"
"Bytes are made only for stabilizer elements, kept images, least and witness.");

/* Append to `images` the column tuple of the image of each relabelling p
   least in its coset p∘Aut that, under `column0`, keeps the table's column
   0, and sort them.  The pairs (first[k], second[k]) are the distinct
   (i, a(i)) of the automorphisms a != id, i the least point that a moves,
   the keys of group_invariants' strong generating set.  p∘a first differs
   from p at i, so p is least exactly when p(i) < p(a(i)) for every pair.  A
   coset has one image, so each is built once; equal neighbours mean the
   pairs let through too much, a RuntimeError.  Under `column0` the pass
   walks s = p^-1 and tests column 0, s R_0 s^-1 = R_{s(0)}, before it makes
   p; a test that fails on s[0..m] skips every s sharing them.  Returns 0, or
   -1 with an exception set.  Not inlined: inlined into orbit, it slowed the
   walk that keeps no image by 2-3% (gcc -O3, x86-64). */
Py_NO_INLINE static int
coset_images(PyObject *images, const int *first, const int *second, int pairs,
             const unsigned char *table, int n, int column0)
{
    unsigned char cur[MAX_ORDER * MAX_ORDER];
    int w[MAX_ORDER], inv[MAX_ORDER]; /* w, in lexicographic order, is p, or s under column0 */
    for (int i = 0; i < n; i++)
        w[i] = i;
    do {
        const int *p = w;
        if (column0) {
            int x = 1; /* column 0 holds when R_{s(0)}(s(x)) = s(R_0(x)) for every x */
            while (x < n && table[w[x] * n + w[0]] == w[table[x * n]])
                x++;
            if (x < n) { /* it fails for every s sharing s[0..m]: go to the last, rest descending */
                const int m = x > table[x * n] ? x : table[x * n];
                for (int i = m + 2; i < n; i++)
                    for (int j = i, t = w[j]; j > m + 1 && w[j - 1] < t; j--) {
                        w[j] = w[j - 1];
                        w[j - 1] = t;
                    }
                continue;
            }
            for (int i = 0; i < n; i++)
                inv[w[i]] = i;
            p = inv;
        }
        int k = 0;
        while (k < pairs && p[first[k]] < p[second[k]])
            k++;
        if (k < pairs)
            continue;
        /* column tuple: out[p i][p j] = p(table[i][j]) + 1 at byte p(j) n + p(i) */
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
                cur[p[j] * n + p[i]] = (unsigned char)(p[table[i * n + j]] + 1);
        PyObject *image = PyBytes_FromStringAndSize((const char *)cur, n * n);
        const int err = image == NULL || PyList_Append(images, image) < 0;
        Py_XDECREF(image);
        if (err)
            return -1;
    } while (next_permutation(w, n));
    int err = PyList_Sort(images);
    for (Py_ssize_t k = 1; err == 0 && k < PyList_GET_SIZE(images); k++)
        if (!memcmp(PyBytes_AS_STRING(PyList_GET_ITEM(images, k - 1)),
                    PyBytes_AS_STRING(PyList_GET_ITEM(images, k)), n * n)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "orbit built an image twice: two relabellings of one coset of Aut passed as least");
            err = -1;
        }
    return err;
}

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
    int first[MAX_ORDER * MAX_ORDER], second[MAX_ORDER * MAX_ORDER], pairs = 0;
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
    images = PyList_New(0);
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
        /* out[a][b] = p(table[inv a][inv b]) + 1, entry by entry, until it is
           known to be greater than the least and not fixed */
        int order = 0, fixed = 1;
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
            int i = 0; /* the least moved point; automorphisms sharing (i, p(i)) are consecutive */
            while (i < n && p[i] == i)
                i++;
            if (i < n && (pairs == 0 || first[pairs - 1] != i || second[pairs - 1] != p[i])) {
                first[pairs] = i;
                second[pairs++] = p[i];
            }
        }
    next:
        changed = next_permutation(p, n);
    } while (changed);
    if (keep > 0 && coset_images(images, first, second, pairs, table, n, keep == 1) < 0)
        goto fail;
    PyBuffer_Release(&view);
    return Py_BuildValue("(y#y#NN)", (const char *)least, (Py_ssize_t)nn,
                         (const char *)witness, (Py_ssize_t)n, stabilizer, images);

fail:
    Py_XDECREF(stabilizer);
    Py_XDECREF(images);
    PyBuffer_Release(&view);
    return NULL;
}

PyDoc_STRVAR(group_invariants_doc,
"group_invariants(blob, n) -> (histogram, strong, center)\n\n"
"Mirror of quandles._kernel._group_invariants_pure: one pass over the\n"
"elements of a permutation group of degree n <= 255, concatenated as 1-based\n"
"image bytes, gives the element-order histogram, the strong generating set\n"
"of least coset representatives as bytes, least first, and the center order.");

static PyObject *
group_invariants(PyObject *self, PyObject *args)
{
    Py_buffer view;
    int n;
    if (!PyArg_ParseTuple(args, "y*i", &view, &n))
        return NULL;
    const unsigned char *blob = (const unsigned char *)view.buf;
    PyObject *result = NULL, *hist = NULL, *strong = NULL;
    /* rep[i * n + j]: 1 + the least element whose least moved point i goes to j, or 0 */
    Py_ssize_t *rep = NULL, m = 0, k, n_bins = 0, n_strong = 0, center = 0;
    struct { unsigned long long order; Py_ssize_t count; } *bins = NULL; /* by order */
    if (n < 1 || n > 255) {
        PyErr_SetString(PyExc_ValueError, "degree must be in 1..255");
        goto done;
    }
    if (view.len == 0 || view.len % n) {
        PyErr_Format(PyExc_ValueError, "blob length %zd is not a positive multiple of %d", view.len, n);
        goto done;
    }
    for (k = 0; k < view.len; k++)
        if (blob[k] < 1 || blob[k] > n) {
            PyErr_Format(PyExc_ValueError, "entry %d outside 1..%d", blob[k], n);
            goto done;
        }
    m = view.len / n;
    rep = PyMem_Calloc(n * n, sizeof *rep);
    bins = PyMem_Malloc(m * sizeof *bins);
    if (rep == NULL || bins == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < m; k++) {
        const unsigned char *p = blob + k * n;
        unsigned char seen[255];
        memset(seen, 0, n);
        unsigned long long order = 1; /* Landau's g(255) < 2**52 */
        int key = -1;
        for (int s = 0; s < n; s++) {
            int x = s, length = 0;
            while (!seen[x]) {
                seen[x] = 1;
                x = p[x] - 1;
                length++;
            }
            if (x != s) {
                PyErr_Format(PyExc_ValueError, "element %zd is not a permutation of 1..%d", k, n);
                goto done;
            }
            if (length > 1) {
                unsigned long long multiple = order;
                while (multiple % length)
                    multiple += order;
                order = multiple;
                if (key < 0) /* the first nontrivial cycle starts at the least moved point */
                    key = s * n + p[s] - 1;
            }
        }
        Py_ssize_t b = 0;
        while (b < n_bins && bins[b].order < order)
            b++;
        if (b == n_bins || bins[b].order != order) {
            memmove(bins + b + 1, bins + b, (n_bins++ - b) * sizeof *bins);
            bins[b].order = order;
            bins[b].count = 0;
        }
        bins[b].count++;
        if (key >= 0 && (!rep[key] || memcmp(p, blob + (rep[key] - 1) * n, n) < 0)) {
            n_strong += !rep[key];
            rep[key] = k + 1;
        }
    }
    hist = PyTuple_New(n_bins);
    strong = PyTuple_New(n_strong);
    if (hist == NULL || strong == NULL)
        goto done;
    for (k = 0; k < n_bins; k++) {
        PyObject *pair = Py_BuildValue("(Kn)", bins[k].order, bins[k].count);
        if (pair == NULL)
            goto done;
        PyTuple_SET_ITEM(hist, k, pair);
    }
    /* a later least moved point i means a smaller element; within one, a
       smaller image j, which exceeds i since 1..i-1 are fixed */
    k = 0;
    for (int i = n - 1; i >= 0; i--)
        for (int j = i + 1; j < n; j++)
            if (rep[i * n + j]) {
                PyObject *w = PyBytes_FromStringAndSize((const char *)blob + (rep[i * n + j] - 1) * n, n);
                if (w == NULL)
                    goto done;
                PyTuple_SET_ITEM(strong, k++, w);
            }
    /* z commutes with g iff z(g(x)) == g(z(x)) for every x */
    for (k = 0; k < m; k++) {
        const unsigned char *z = blob + k * n;
        int central = 1;
        for (Py_ssize_t g = 0; g < n_strong && central; g++) {
            const unsigned char *q = (const unsigned char *)PyBytes_AS_STRING(PyTuple_GET_ITEM(strong, g));
            for (int x = 0; x < n && central; x++)
                central = z[q[x] - 1] == q[z[x] - 1];
        }
        center += central;
    }
    result = Py_BuildValue("(OOn)", hist, strong, center);
done:
    Py_XDECREF(hist);
    Py_XDECREF(strong);
    PyMem_Free(rep);
    PyMem_Free(bins);
    PyBuffer_Release(&view);
    return result;
}

PyDoc_STRVAR(verify_doc,
"verify(flat, n) -> None or (condition, witness)\n\n"
"Mirror of QuandleMatrix.verify on row-major 1-based bytes, 1 <= n <= 255: None,\n"
"or the first failure as VerificationReport.failures[0] gives it.");

static PyObject *
verify(PyObject *self, PyObject *args)
{
    Py_buffer view;
    int n, row_of[255], seen[255];
    if (!PyArg_ParseTuple(args, "y*i", &view, &n))
        return NULL;
    const unsigned char *t = (const unsigned char *)view.buf;
    unsigned char *s = NULL; /* the standardized table, 0-based */
    PyObject *result = NULL;
    if (n < 1 || n > 255 || view.len != n * n) {
        PyErr_SetString(PyExc_ValueError, "need n * n entries, 1 <= n <= 255");
        goto done;
    }
    for (int k = 0; k < n * n; k++)
        if (t[k] < 1 || t[k] > n) {
            PyErr_Format(PyExc_ValueError, "entry %d outside 1..%d", t[k], n);
            goto done;
        }
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++)
            if (t[i * n + i] == t[j * n + j]) {
                result = Py_BuildValue("(s(ii))", "diagonal", i + 1, j + 1);
                goto done;
            }
    for (int i = 0; i < n; i++)
        row_of[t[i * n + i] - 1] = i; /* row and column a of s are t's row_of[a] */
    if ((s = PyMem_Malloc(n * n)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (int j = 0; j < n; j++) {
        memset(seen, 0, sizeof seen); /* 1 + the row of column j holding each value */
        for (int i = 0; i < n; i++) {
            const int v = s[i * n + j] = t[row_of[i] * n + row_of[j]] - 1;
            if (seen[v]) {
                result = Py_BuildValue("(s(iii))", "column", seen[v], i + 1, j + 1);
                goto done;
            }
            seen[v] = i + 1;
        }
    }
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            for (int k = 0; k < n; k++)
                if (s[s[i * n + j] * n + k] != s[s[i * n + k] * n + s[j * n + k]]) {
                    result = Py_BuildValue("(s(iii))", "distributivity", i + 1, j + 1, k + 1);
                    goto done;
                }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(s);
    PyBuffer_Release(&view);
    return result;
}

PyDoc_STRVAR(parse_doc,
"parse(text) -> bytes or None\n\n"
"The row-major entries of ASCII text of n <= 255 lines of n entries in 1..n,\n"
"digits 0-9 split by spaces or tabs, lines ended by \\n or \\r\\n, blank lines\n"
"allowed; None for all other text, which the pure parser reads.");

static PyObject *
parse(PyObject *self, PyObject *text)
{
    if (!PyUnicode_Check(text) || !PyUnicode_IS_ASCII(text))
        Py_RETURN_NONE;
    const char *p = (const char *)PyUnicode_DATA(text), *r = p; /* NUL-terminated */
    if (strspn(p, "0123456789 \t\r\n") != (size_t)PyUnicode_GET_LENGTH(text))
        Py_RETURN_NONE; /* another character, or a NUL */
    while ((r = strchr(r, '\r')) != NULL) /* so each \r ends a line with the \n after it */
        if (*++r != '\n')
            Py_RETURN_NONE;
    unsigned char line[255];
    int n = 0, rows = 0, count = 0, top = 0; /* top: the line's greatest entry */
    PyObject *out = NULL;
    for (;; p++) {
        if (*p >= '0' && *p <= '9') {
            const long v = strtol(p, (char **)&p, 10);
            if (v < 1 || v > 255 || count == 255)
                goto decline;
            line[count++] = (unsigned char)v;
            top = v > top ? v : top;
        }
        if (count > 0 && (*p == '\n' || *p == '\0')) {
            if (n == 0) {
                n = count;
                if ((out = PyBytes_FromStringAndSize(NULL, n * n)) == NULL)
                    return NULL;
            }
            if (count != n || rows == n || top > n)
                goto decline;
            memcpy(PyBytes_AS_STRING(out) + rows++ * n, line, n);
            count = top = 0;
        }
        if (*p == '\0')
            break;
    }
    if (n > 0 && rows == n)
        return out;
decline:
    Py_XDECREF(out);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_VARARGS, scan_doc},
    {"orbit", orbit, METH_VARARGS, orbit_doc},
    {"group_invariants", group_invariants, METH_VARARGS, group_invariants_doc},
    {"verify", verify, METH_VARARGS, verify_doc},
    {"parse", parse, METH_O, parse_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "quandles._speedups",
    .m_doc = "Compiled kernels for quandles._kernel: the column scan, the relabelling walk,\n"
             "the one-pass invariants of a permutation group, and the table parse and check.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
