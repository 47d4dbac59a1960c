/* ASCON-128 and ASCON-128a encryption and decryption, one message per call.
 *
 * The cipher core, in plain C with no Python headers: _kernelmodule.c is
 * the CPython binding that calls it, and _accel.py compiles the two files
 * into one extension module on first use.  Two symbols are exported,
 * ascon_encrypt and ascon_decrypt; the direction is carried by which one is
 * called.  Both wrap ascon_aead, a compiled copy of the four phases in
 * aead.py, which stay the reference; the round function is the one in
 * permutation.py, on machine words, and duplex, a copy of aead._duplex,
 * runs it between the rate blocks of one segment, AD or data.  Words are
 * loaded and stored big-endian with byte shifts, so the result does not
 * depend on the host's byte order.
 *
 * The data loop is written to run at the speed of the round itself, whose
 * chain of dependent operations bounds one message:
 *  - The state is five named 64-bit words, a struct passed and returned by
 *    value, never an array indexed at run time.  Rate word x0 takes every
 *    block, and x1 takes the second 8 bytes under `if (rate == 16)`.  So
 *    the compiler keeps the state in registers across the whole block loop;
 *    an array indexed by a run-time word counter would send the rate words
 *    through memory around every permutation.
 *  - Each direction has its own body.  ascon_aead tests the mode once and
 *    calls aead_body with ENCRYPT or DECRYPT as a literal, so each copy of
 *    the block loop is compiled for one direction, with no test of the mode
 *    inside it.
 *  - permute runs two rounds per pass of its loop: 6, 8 and 12 are all
 *    even.  Every round is still the one round function, with the round
 *    constant from r.  Unrolling all twelve rounds gained a few percent
 *    at most, for two and a half times the machine code.
 * The only branches are on loop counters, on the public lengths, mode, rate
 * and data rounds, and on the verdict of the tag check; nothing branches on,
 * or indexes memory by, key, state or data.
 *
 * Two bodies, one source: where the toolchain can (TWO_BODIES below),
 * ascon_aead is compiled twice, once for baseline x86-64 and once for
 * x86-64-v3, whose andn and rorx make the S-box's ~a & b and the linear
 * layer's rotations one instruction each.  The dynamic loader runs a
 * resolver when it loads the library and binds ascon_aead to the v3 body
 * on a CPU that has AVX2, BMI1/2 and the rest of that level, and to the
 * baseline body on any other, so one cached build serves every x86-64 CPU.
 * `flatten` inlines aead_body, duplex, permute, the round and the word
 * helpers into each body, twice over, once per direction; without it they
 * would stay baseline functions that both bodies call, with the state
 * passed through memory.  `aligned(64)` starts both bodies on a cache line,
 * whatever the linker puts ahead of them, such as the binding's PLT with one
 * 16-byte entry per C-API import: a 32-byte shift of both bodies slowed
 * 16 B messages ~2% (AMD EPYC, gcc 12).
 */
#include <stddef.h>
#include <stdint.h>

enum { ABSORB = 0, ENCRYPT = 1, DECRYPT = 2 };

/* The dispatch needs ifunc-based target_clones and the x86-64-v3 level:
 * x86-64 ELF with glibc, and gcc 12 or later.  Any other toolchain or
 * platform builds the one baseline body, flattened and aligned where the
 * compiler knows the attributes, as does defining ASCON_NO_TARGET_CLONES,
 * which only the tests do, to run that body where the loader picks the other.
 * `noinline` keeps that body a function of its own, so the alignment holds:
 * inlined into both entry points, it would start wherever they do.
 */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && !defined(__clang__) && \
    defined(__GNUC__) && __GNUC__ >= 12 && !defined(ASCON_NO_TARGET_CLONES)
#define TWO_BODIES __attribute__((flatten, aligned(64), target_clones("arch=x86-64-v3", "default")))
#elif defined(__GNUC__)
#define TWO_BODIES __attribute__((flatten, noinline, aligned(64)))
#else
#define TWO_BODIES
#endif

#define ROTR(x, n) (((x) >> (n)) | ((x) << (64 - (n))))

static inline uint64_t load64(const unsigned char *p)
{
    return (uint64_t)p[0] << 56 | (uint64_t)p[1] << 48 | (uint64_t)p[2] << 40 |
           (uint64_t)p[3] << 32 | (uint64_t)p[4] << 24 | (uint64_t)p[5] << 16 |
           (uint64_t)p[6] << 8 | (uint64_t)p[7];
}

static inline void store64(unsigned char *p, uint64_t w)
{
    p[0] = (unsigned char)(w >> 56);
    p[1] = (unsigned char)(w >> 48);
    p[2] = (unsigned char)(w >> 40);
    p[3] = (unsigned char)(w >> 32);
    p[4] = (unsigned char)(w >> 24);
    p[5] = (unsigned char)(w >> 16);
    p[6] = (unsigned char)(w >> 8);
    p[7] = (unsigned char)w;
}

/* The five 64-bit words of the state, as named locals or as this struct
 * passed by value, never as an array: see the header.
 */
typedef struct {
    uint64_t x0, x1, x2, x3, x4;
} state;

/* Round r (0 to 11) of the 12-round schedule: constant, S-box, linear layer. */
static inline state round_r(state s, unsigned r)
{
    uint64_t x0 = s.x0, x1 = s.x1, x2 = s.x2, x3 = s.x3, x4 = s.x4;
    uint64_t t0, t1, t2, t3, t4;
    x2 ^= (uint64_t)(((0xF - r) << 4) | r);
    x0 ^= x4;
    x4 ^= x3;
    x2 ^= x1;
    t0 = ~x0 & x1;
    t1 = ~x1 & x2;
    t2 = ~x2 & x3;
    t3 = ~x3 & x4;
    t4 = ~x4 & x0;
    x0 ^= t1;
    x1 ^= t2;
    x2 ^= t3;
    x3 ^= t4;
    x4 ^= t0;
    x1 ^= x0;
    x0 ^= x4;
    x3 ^= x2;
    x2 = ~x2;
    x0 ^= ROTR(x0, 19) ^ ROTR(x0, 28);
    x1 ^= ROTR(x1, 61) ^ ROTR(x1, 39);
    x2 ^= ROTR(x2, 1) ^ ROTR(x2, 6);
    x3 ^= ROTR(x3, 10) ^ ROTR(x3, 17);
    x4 ^= ROTR(x4, 7) ^ ROTR(x4, 41);
    return (state){x0, x1, x2, x3, x4};
}

/* The last `rounds` rounds of the 12-round schedule, as permute() runs
 * them, two per pass.  `rounds` is 6, 8 or 12; above 12 no round runs.
 */
static inline state permute(state s, unsigned rounds)
{
    for (unsigned r = 12 - rounds; r < 12; r += 2)
        s = round_r(round_r(s, r), r + 1);
    return s;
}

/* One rate word `x` with the 8 bytes at in + off absorbed, encrypted or
 * decrypted, as duplex does to each word of a whole block.  Encrypt writes
 * the new word to out + off; decrypt writes the word XOR the ciphertext
 * there and returns the ciphertext.  Absorb forms no pointer from `out`.
 */
static inline uint64_t rate_word(uint64_t x, const unsigned char *in, unsigned char *out,
                                 size_t off, unsigned mode)
{
    const uint64_t w = load64(in + off);
    if (mode == DECRYPT) {
        store64(out + off, x ^ w);
        return w;
    }
    x ^= w;
    if (mode == ENCRYPT)
        store64(out + off, x);
    return x;
}

/* Absorb, encrypt or decrypt `len` bytes from `in` as blocks of `rate`
 * bytes (8 or 16), padded with 10*: each whole block with a `rounds`-round
 * permutation after it, then the last 0 <= n < rate bytes and the padding
 * with none.  Returns the state after them.  Rate word x0 takes every
 * block's first 8 bytes, and x1 the next 8 when the rate is 16.  Encrypt
 * writes the rate after absorbing each block to `out`; decrypt writes the
 * rate XOR the ciphertext, then overwrites the rate with the ciphertext, in
 * the last block only its first n bytes.  Absorb writes nothing, and `out`
 * may be NULL.
 */
static inline state duplex(state s, const unsigned char *in, unsigned char *out, size_t len,
                           unsigned rate, unsigned rounds, unsigned mode)
{
    const size_t last = len / rate * rate, n = len - last;
    unsigned char r[16];
    for (size_t off = 0; off < last; off += rate) {
        s.x0 = rate_word(s.x0, in, out, off, mode);
        if (rate == 16)
            s.x1 = rate_word(s.x1, in, out, off + 8, mode);
        s = permute(s, rounds);
    }
    store64(r, s.x0);
    if (rate == 16)
        store64(r + 8, s.x1);
    for (size_t i = 0; i < n; i++) {
        if (mode == DECRYPT) {
            out[last + i] = r[i] ^ in[last + i];
            r[i] = in[last + i];
        } else {
            r[i] ^= in[last + i];
            if (mode == ENCRYPT)
                out[last + i] = r[i];
        }
    }
    r[n] ^= 0x80;
    s.x0 = load64(r);
    if (rate == 16)
        s.x1 = load64(r + 8);
    return s;
}

/* One message in direction `mode`, ENCRYPT or DECRYPT, which ascon_aead
 * passes as a literal: `len` bytes from `in` to `out`, with `adlen` bytes
 * of associated data.  `key` and `nonce` are 16 bytes each.  The 16-byte
 * tag computed over the message goes to `tag`.
 */
static inline void aead_body(unsigned mode, const unsigned char *params,
                             const unsigned char *key, const unsigned char *nonce,
                             const unsigned char *ad, size_t adlen, const unsigned char *in,
                             size_t len, unsigned char *out, unsigned char *tag)
{
    const unsigned rate = params[1] / 8u, rounds_b = params[3];
    const uint64_t k1 = load64(key), k2 = load64(key + 8);
    state s = {load64(params), k1, k2, load64(nonce), load64(nonce + 8)};

    s = permute(s, 12);
    s.x3 ^= k1;
    s.x4 ^= k2;

    if (adlen)
        s = permute(duplex(s, ad, NULL, adlen, rate, rounds_b, ABSORB), rounds_b);
    s.x4 ^= 1;

    s = duplex(s, in, out, len, rate, rounds_b, mode);

    if (rate == 16) {
        s.x2 ^= k1;
        s.x3 ^= k2;
    } else {
        s.x1 ^= k1;
        s.x2 ^= k2;
    }
    s = permute(s, 12);
    store64(tag, s.x3 ^ k1);
    store64(tag + 8, s.x4 ^ k2);
}

/* Encrypt (mode ENCRYPT) or decrypt (mode DECRYPT) one message through
 * aead_body, with the direction fixed in each of its two calls.
 *
 * `params` is the variant's 8-byte IV, which aead.py derives once per
 * VariantParams.  As the specification lays it out, it encodes k, r, a and
 * b: the key size in bits (128), the rate in bits (64 or 128), the rounds
 * of initialization and finalization (12) and of the data phase (6, 8 or
 * 12), then four zero bytes.  The kernel reads r and b from it and runs
 * 12 rounds for a.  The caller checks r, b and the key and nonce lengths;
 * any other rate makes duplex write past its last block, and an odd b
 * runs one round too many.
 */
TWO_BODIES
static void ascon_aead(unsigned mode, const unsigned char *params, const unsigned char *key,
                       const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                       const unsigned char *in, size_t len, unsigned char *out,
                       unsigned char *tag)
{
    if (mode == DECRYPT)
        aead_body(DECRYPT, params, key, nonce, ad, adlen, in, len, out, tag);
    else
        aead_body(ENCRYPT, params, key, nonce, ad, adlen, in, len, out, tag);
}

/* Encrypt `len` bytes from `in` to `out` and write the 16-byte tag to `tag`. */
void ascon_encrypt(const unsigned char *params, const unsigned char *key,
                   const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                   const unsigned char *in, size_t len, unsigned char *out, unsigned char *tag)
{
    ascon_aead(ENCRYPT, params, key, nonce, ad, adlen, in, len, out, tag);
}

/* Decrypt `len` bytes from `in` to `out` and verify the received 16-byte
 * `tag`: 0 when it matches, nonzero when it does not.  All 16 bytes are
 * compared, with no early exit, and on a mismatch `out` is zeroed through
 * a volatile pointer, so no unverified plaintext is left for the caller.
 * Only that verdict is branched on.
 */
int ascon_decrypt(const unsigned char *params, const unsigned char *key,
                  const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                  const unsigned char *in, size_t len, unsigned char *out,
                  const unsigned char *tag)
{
    unsigned char expected[16];
    unsigned diff = 0;
    ascon_aead(DECRYPT, params, key, nonce, ad, adlen, in, len, out, expected);
    for (size_t i = 0; i < 16; i++)
        diff |= (unsigned)(expected[i] ^ tag[i]);
    if (diff) {
        volatile unsigned char *wipe = out;
        for (size_t i = 0; i < len; i++)
            wipe[i] = 0;
    }
    return diff != 0;
}
