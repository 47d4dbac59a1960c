/* The CPython binding of the kernel in _accel.c: the extension module
 * ascon_aead._kernel, which _accel.py compiles from this file and _accel.c.
 *
 * encrypt(params, key, nonce, ad, data) and decrypt(...) each return
 * (out, tag): `out` has the length of `data` and `tag` is 16 bytes, both
 * fresh `bytes` that the kernel writes into directly.  Neither checks a
 * tag; aead.decrypt compares the returned one with the one it received.
 *
 * Every argument must be exactly `bytes`, the key and the nonce 16 bytes,
 * and `params` the 8-byte IV laid out in _accel.c, with a rate and data
 * rounds the kernel accepts; anything else raises TypeError or ValueError,
 * so no call can make the kernel read or write out of bounds.  The checks
 * branch on types and lengths only, which are public, and the errors name
 * no input bytes.  The GIL is released while the kernel runs, so calls from
 * several threads overlap.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { PARAMS_BYTES = 8, KEY_BYTES = 16, NONCE_BYTES = 16, TAG_BYTES = 16, ARGS = 5 };

typedef void kernel_fn(const unsigned char *params, const unsigned char *key,
                       const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                       const unsigned char *in, size_t len, unsigned char *out,
                       unsigned char *tag);

kernel_fn ascon_encrypt, ascon_decrypt;

/* 1 when the five arguments are ones the kernel accepts; 0 with an exception set if not. */
static int check_args(PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[ARGS] = {"params", "key", "nonce", "ad", "data"};
    static const Py_ssize_t sizes[ARGS] = {PARAMS_BYTES, KEY_BYTES, NONCE_BYTES, -1, -1};
    const unsigned char *params;

    if (nargs != ARGS) {
        PyErr_Format(PyExc_TypeError, "expected %d arguments, got %zd", ARGS, nargs);
        return 0;
    }
    for (int i = 0; i < ARGS; i++) {
        if (!PyBytes_CheckExact(args[i])) {
            PyErr_Format(PyExc_TypeError, "%s must be bytes, not %.100s", names[i],
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
        PyErr_SetString(PyExc_ValueError,
                        "params must be an IV with rate 64 or 128 bits and rounds_b 6, 8 or 12");
        return 0;
    }
    return 1;
}

/* (out, tag) from `kernel` over the five arguments, or NULL with an exception set. */
static PyObject *run(kernel_fn *kernel, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *out, *tag, *result;
    Py_ssize_t len, adlen;

    if (!check_args(args, nargs))
        return NULL;
    len = PyBytes_GET_SIZE(args[4]);
    adlen = PyBytes_GET_SIZE(args[3]);
    out = PyBytes_FromStringAndSize(NULL, len);
    if (out == NULL)
        return NULL;
    tag = PyBytes_FromStringAndSize(NULL, TAG_BYTES);
    if (tag == NULL) {
        Py_DECREF(out);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    kernel((const unsigned char *)PyBytes_AS_STRING(args[0]),
           (const unsigned char *)PyBytes_AS_STRING(args[1]),
           (const unsigned char *)PyBytes_AS_STRING(args[2]),
           (const unsigned char *)PyBytes_AS_STRING(args[3]), (size_t)adlen,
           (const unsigned char *)PyBytes_AS_STRING(args[4]), (size_t)len,
           (unsigned char *)PyBytes_AS_STRING(out), (unsigned char *)PyBytes_AS_STRING(tag));
    Py_END_ALLOW_THREADS
    result = PyTuple_Pack(2, out, tag);
    Py_DECREF(out);
    Py_DECREF(tag);
    return result;
}

static PyObject *encrypt(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return run(ascon_encrypt, args, nargs);
}

static PyObject *decrypt(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    return run(ascon_decrypt, args, nargs);
}

static PyMethodDef methods[] = {
    {"encrypt", (PyCFunction)(void (*)(void))encrypt, METH_FASTCALL,
     "encrypt(params, key, nonce, ad, plaintext) -> (ciphertext, tag)"},
    {"decrypt", (PyCFunction)(void (*)(void))decrypt, METH_FASTCALL,
     "decrypt(params, key, nonce, ad, ciphertext) -> (plaintext, expected tag); checks no tag"},
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
