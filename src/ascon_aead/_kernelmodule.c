/* The CPython binding of the kernel in _accel.c: the extension module
 * ascon_aead._kernel, which _accel.py compiles from this file and _accel.c.
 *
 * encrypt(params, key, nonce, ad, data) returns (out, tag), and
 * decrypt(params, key, nonce, ad, data, tag) returns `out`, or None when the
 * kernel finds the tag wrong and has zeroed `out`.  `out` has the length of
 * `data`, and it and encrypt's tag are fresh `bytes` the kernel writes into.
 *
 * These checks are the only ones a call meets on aead's kernel path.  Other
 * bytes-like arguments than `bytes` are copied once into new `bytes`; the key,
 * nonce and tag must be 16 bytes, and `params` the 8-byte IV laid out in
 * _accel.c, with a rate and data rounds the kernel accepts.  Anything else
 * raises TypeError or ValueError, so no call makes the kernel overrun a buffer.
 * The checks branch on public types and lengths only, and name no input bytes.
 * It imports no C-API function it can do without (HAS_BUFFER is
 * PyObject_CheckBuffer inline): each adds a 16-byte PLT entry ahead of the
 * kernel, and a 32-byte shift slowed 16 B messages ~2% (AMD EPYC, gcc 12).
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

#define HAS_BUFFER(o) (Py_TYPE(o)->tp_as_buffer && Py_TYPE(o)->tp_as_buffer->bf_getbuffer)

/* 1 when the `want` arguments are ones the kernel accepts, -1 to copy one; else 0, raising. */
static int check_args(PyObject *const *args, Py_ssize_t nargs, int want)
{
    static const char *const names[ARGS] = {"params", "key", "nonce", "ad", "data", "tag"};
    static const Py_ssize_t sizes[ARGS] = {PARAMS_BYTES, KEY_BYTES, NONCE_BYTES, -1, -1, TAG_BYTES};
    const unsigned char *params;

    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "expected %d arguments, got %zd", want, nargs);
        return 0;
    }
    for (int i = 0; i < want; i++) {
        if (!PyBytes_CheckExact(args[i])) {
            if (HAS_BUFFER(args[i])) /* tested first, as PyBytes_FromObject takes lists too */
                return -1;
            PyErr_Format(PyExc_TypeError, "%s must be bytes-like, not %.100s", names[i],
                         Py_TYPE(args[i])->tp_name);
            return 0;
        }
        if (sizes[i] >= 0 && PyBytes_GET_SIZE(args[i]) != sizes[i]) {
            PyErr_Format(PyExc_ValueError, "%s must be %zd bytes, got %zd", names[i], sizes[i],
                         PyBytes_GET_SIZE(args[i]));
            return 0;
        }
    }
    params = (const unsigned char *)PyBytes_AS_STRING(args[0]);
    if ((params[1] != 64 && params[1] != 128) ||
        (params[3] != 6 && params[3] != 8 && params[3] != 12)) {
        PyErr_Format(PyExc_ValueError,
                     "params must be an IV with rate 64 or 128 bits and rounds_b 6, 8 or 12");
        return 0;
    }
    return 1;
}

#define ARG(i) ((const unsigned char *)PyBytes_AS_STRING(args[i]))
#define LEN(i) ((size_t)PyBytes_GET_SIZE(args[i]))

/* encrypt's (ciphertext, tag), or decrypt's plaintext or None, from the
 * arguments; NULL with an exception set on bad arguments or no memory.
 */
static PyObject *run(int decrypting, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *out, *tag = NULL, *result, *as_bytes[ARGS];
    PyThreadState *released = NULL;
    int failed = 0, checked = check_args(args, nargs, ARGS - !decrypting); /* encrypt: no tag */
    Py_ssize_t n;

    if (checked < 0) { /* again, with bytes copies of the other bytes-like, freed on every exit */
        for (n = 0; n < nargs; n++) { /* check_args has found nargs right */
            as_bytes[n] = args[n]; /* bytes, or refused below, unless copied here */
            if (!PyBytes_CheckExact(args[n]) && HAS_BUFFER(args[n]) &&
                (as_bytes[n] = PyBytes_FromObject(args[n])) == NULL)
                break;
        }
        result = n == nargs ? run(decrypting, as_bytes, nargs) : NULL;
        while (n-- > 0)
            if (as_bytes[n] != args[n])
                Py_DECREF(as_bytes[n]);
        return result;
    }
    if (!checked)
        return NULL;
    out = PyBytes_FromStringAndSize(NULL, PyBytes_GET_SIZE(args[4]));
    if (out == NULL)
        return NULL;
    if (!decrypting && (tag = PyBytes_FromStringAndSize(NULL, TAG_BYTES)) == NULL) {
        Py_DECREF(out);
        return NULL;
    }
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
    if (decrypting) {
        if (!failed)
            return out;
        Py_DECREF(out); /* the kernel has zeroed it */
        Py_RETURN_NONE;
    }
    result = PyTuple_Pack(2, out, tag);
    Py_DECREF(out);
    Py_DECREF(tag);
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
