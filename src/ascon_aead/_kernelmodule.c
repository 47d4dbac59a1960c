/* The CPython binding of the kernel in _accel.c: the extension module
 * ascon_aead._kernel, which _accel.py compiles from this file and _accel.c.
 *
 * encrypt(params, key, nonce, ad, data) returns (out, tag), and
 * decrypt(params, key, nonce, ad, data, tag) returns `out`, or None when the
 * kernel finds the tag wrong and has zeroed `out`.  `out` has the length of
 * `data`, and it and encrypt's tag are fresh `bytes` the kernel writes into.
 *
 * run's checks are the only ones a call meets on aead's kernel path, in one
 * pass each, in the order aead._checked keeps: every argument's type, then
 * every length, then the IV.  The first pass takes exact `bytes` as they are
 * and copies any other bytes-like argument once into new `bytes`, refusing
 * the rest; then the key, nonce and tag must be 16 bytes and `params` 8; last,
 * `params` must be the IV laid out in _accel.c, with a rate and data rounds
 * the kernel accepts.  Each fault raises TypeError or ValueError, so no call
 * makes the kernel overrun a buffer; the error is the one _checked raises on
 * the pure path, with aead's argument names, and aead passes it on.  The
 * checks branch on public types and lengths only, and name no input bytes.
 * Each copy is zeroed before it is released, as it may hold the key or the
 * plaintext; the caller's own `bytes` are left as they are.
 *
 * The GIL is released while the kernel runs only when `ad` and `data` come to
 * GIL_MINSIZE bytes or more, as hashlib does for its HASHLIB_GIL_MINSIZE.
 * Below that the kernel runs for a few microseconds at most, about 1/1000 of
 * the interpreter's switch interval, while releasing and re-taking the GIL
 * costs tens of nanoseconds uncontended: a large share of a short call, and
 * under threads the GIL would pass back and forth on every message.  Such a
 * call holds the GIL, so it never overlaps another in C.  The test is on
 * public lengths only.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { PARAMS_BYTES = 8, KEY_BYTES = 16, NONCE_BYTES = 16, TAG_BYTES = 16, ARGS = 6 };

/* The least len(ad) + len(data) for which the kernel runs without the GIL. */
enum { GIL_MINSIZE = 2048 };

void ascon_encrypt(const unsigned char *params, const unsigned char *key,
                   const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                   const unsigned char *in, size_t len, unsigned char *out, unsigned char *tag);
int ascon_decrypt(const unsigned char *params, const unsigned char *key,
                  const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                  const unsigned char *in, size_t len, unsigned char *out,
                  const unsigned char *tag);

/* Zero `copy`, a `bytes` the binding made and alone holds, before it is freed;
 * the shared empty `bytes` has nothing to zero.  The barrier, or the volatile
 * stores, keep the compiler from dropping the zeroing as dead stores.
 */
static void wipe(PyObject *copy)
{
    size_t size = (size_t)PyBytes_GET_SIZE(copy);

    if (Py_REFCNT(copy) != 1)
        return;
#ifdef __GNUC__
    memset(PyBytes_AS_STRING(copy), 0, size);
    __asm__ volatile("" ::: "memory");
#else
    for (volatile char *p = PyBytes_AS_STRING(copy); size > 0; size--)
        *p++ = 0;
#endif
}

#define ARG(i) ((const unsigned char *)PyBytes_AS_STRING(args[i]))
#define LEN(i) ((size_t)PyBytes_GET_SIZE(args[i]))

/* encrypt's (ciphertext, tag), or decrypt's plaintext or None, from the
 * arguments; NULL with an exception set on bad arguments or no memory.  Each
 * entry point inlines its own copy, in which `decrypting` is a constant.
 */
#ifdef __GNUC__
__attribute__((always_inline))
#endif
static inline PyObject *run(int decrypting, PyObject *const *given, Py_ssize_t nargs)
{
    static const char *const names[2][ARGS] = {
        {"params", "key", "nonce", "associated_data", "plaintext", "tag"},
        {"params", "key", "nonce", "associated_data", "ciphertext", "tag"}};
    static const Py_ssize_t sizes[ARGS] = {PARAMS_BYTES, KEY_BYTES, NONCE_BYTES, -1, -1, TAG_BYTES};
    PyObject *args[ARGS], *out = NULL, *tag = NULL, *result = NULL;
    PyThreadState *released = NULL;
    int i, copied = 0, failed = 0, want = ARGS - !decrypting; /* encrypt: no tag */

    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "expected %d arguments, got %zd", want, nargs);
        return NULL;
    }
    for (i = 0; i < want; i++) {
        args[i] = given[i];
        if (PyBytes_CheckExact(args[i]))
            continue;
        if (!PyObject_CheckBuffer(given[i])) { /* first, as PyBytes_FromObject takes lists too */
            PyObject *kind = PyObject_GetAttrString((PyObject *)Py_TYPE(given[i]), "__name__");
            if (kind != NULL) /* type(value).__name__, as _checked words it */
                PyErr_Format(PyExc_TypeError, "%s must be a bytes-like object, not %S",
                             names[decrypting][i], kind);
            Py_XDECREF(kind);
            goto done;
        }
        if ((args[i] = PyBytes_FromObject(given[i])) == NULL)
            goto done;
        copied = i + 1; /* args[0 .. copied-1] hold every copy, which done releases */
    }
    for (i = 0; i < want; i++)
        if (sizes[i] >= 0 && PyBytes_GET_SIZE(args[i]) != sizes[i]) {
            PyErr_Format(PyExc_ValueError, "%s must be %zd bytes, got %zd", names[decrypting][i],
                         sizes[i], PyBytes_GET_SIZE(args[i]));
            goto done;
        }
    if ((ARG(0)[1] != 64 && ARG(0)[1] != 128) ||
        (ARG(0)[3] != 6 && ARG(0)[3] != 8 && ARG(0)[3] != 12)) {
        PyErr_SetString(PyExc_ValueError,
                        "params must be an IV with rate 64 or 128 bits and rounds_b 6, 8 or 12");
        goto done;
    }
    out = PyBytes_FromStringAndSize(NULL, PyBytes_GET_SIZE(args[4]));
    if (out == NULL || (!decrypting && (tag = PyBytes_FromStringAndSize(NULL, TAG_BYTES)) == NULL))
        goto done;
    if (LEN(3) + LEN(4) >= GIL_MINSIZE)
        released = PyEval_SaveThread();
    if (decrypting)
        failed = ascon_decrypt(ARG(0), ARG(1), ARG(2), ARG(3), LEN(3), ARG(4), LEN(4),
                               (unsigned char *)PyBytes_AS_STRING(out), ARG(5));
    else
        ascon_encrypt(ARG(0), ARG(1), ARG(2), ARG(3), LEN(3), ARG(4), LEN(4),
                      (unsigned char *)PyBytes_AS_STRING(out),
                      (unsigned char *)PyBytes_AS_STRING(tag));
    if (released != NULL)
        PyEval_RestoreThread(released);
    if (!decrypting)
        result = PyTuple_Pack(2, out, tag);
    else if (failed) { /* done releases out, which the kernel has zeroed */
        Py_INCREF(Py_None);
        result = Py_None;
    } else {
        result = out;
        out = NULL;
    }
done:
    Py_XDECREF(out);
    Py_XDECREF(tag);
    while (copied-- > 0)
        if (args[copied] != given[copied]) {
            wipe(args[copied]);
            Py_DECREF(args[copied]);
        }
    return result;
}

static PyObject *encrypt(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return run(0, args, nargs);
}

static PyObject *decrypt(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return run(1, args, nargs);
}

static PyMethodDef methods[] = {
    {"encrypt", (PyCFunction)(void (*)(void))encrypt, METH_FASTCALL,
     "encrypt(params, key, nonce, ad, plaintext) -> (ciphertext, tag)"},
    {"decrypt", (PyCFunction)(void (*)(void))decrypt, METH_FASTCALL,
     "decrypt(params, key, nonce, ad, ciphertext, tag) -> plaintext, or None if the tag fails"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "ascon_aead._kernel",
    .m_doc = "The ASCON kernel of _accel.c; see ascon_aead._accel.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModuleDef_Init(&module_def);
}
