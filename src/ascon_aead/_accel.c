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
 * depend on the host's byte order.  The only branches are on loop counters,
 * on the public lengths, mode and rate, and on the verdict of the tag check;
 * nothing branches on, or indexes memory by, key, state or data.
 */
#include <stddef.h>
#include <stdint.h>

enum { ABSORB = 0, ENCRYPT = 1, DECRYPT = 2 };

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

/* The last `rounds` rounds of the 12-round schedule, as permute() runs
 * them, on the five state words in place.  `rounds` is 6, 8 or 12; above 12
 * no round runs.
 */
static inline void permute(uint64_t s[5], unsigned rounds)
{
    uint64_t x0 = s[0], x1 = s[1], x2 = s[2], x3 = s[3], x4 = s[4];
    for (unsigned r = 12 - rounds; r < 12; r++) {
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
    }
    s[0] = x0;
    s[1] = x1;
    s[2] = x2;
    s[3] = x3;
    s[4] = x4;
}

/* Absorb, encrypt or decrypt `len` bytes from `in` as blocks of `rate`
 * bytes (8 or 16), padded with 10*: each whole block with a `rounds`-round
 * permutation after it, then the last 0 <= n < rate bytes and the padding
 * with none.  `s` holds the five state words and is updated in place.
 * Encrypt writes the rate after absorbing each block to `out`; decrypt
 * writes the rate XOR the ciphertext, then overwrites the rate with the
 * ciphertext, in the last block only its first n bytes.  Absorb writes
 * nothing, and `out` may be NULL.
 */
static void duplex(uint64_t s[5], const unsigned char *in, unsigned char *out, size_t len,
                   unsigned rate, unsigned rounds, unsigned mode)
{
    const size_t words = rate / 8, blocks = len / rate, last = blocks * rate, n = len - last;
    unsigned char r[16];
    for (size_t b = 0; b < blocks; b++) {
        for (size_t j = 0; j < words; j++) {
            const size_t off = 8 * (b * words + j);
            const uint64_t w = load64(in + off);
            if (mode == DECRYPT) {
                store64(out + off, s[j] ^ w);
                s[j] = w;
            } else {
                s[j] ^= w;
                if (mode == ENCRYPT)
                    store64(out + off, s[j]);
            }
        }
        permute(s, rounds);
    }
    for (size_t j = 0; j < words; j++)
        store64(r + 8 * j, s[j]);
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
    for (size_t j = 0; j < words; j++)
        s[j] = load64(r + 8 * j);
}

/* Encrypt (mode ENCRYPT) or decrypt (mode DECRYPT) one message: `len`
 * bytes from `in` to `out`, with `adlen` bytes of associated data.  `key`
 * and `nonce` are 16 bytes each.  The 16-byte tag computed over the message
 * goes to `tag`; ascon_decrypt compares it with the one it received.
 *
 * `params` is the variant's 8-byte IV, which aead.py derives once per
 * VariantParams.  As the specification lays it out, it encodes k, r, a and
 * b: the key size in bits (128), the rate in bits (64 or 128), the rounds
 * of initialization and finalization (12) and of the data phase (6, 8 or
 * 12), then four zero bytes.  The kernel reads r and b from it and runs
 * 12 rounds for a.  The caller checks r, b and the key and nonce lengths;
 * any other rate makes duplex write past its last block.
 */
static void ascon_aead(unsigned mode, const unsigned char *params, const unsigned char *key,
                       const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                       const unsigned char *in, size_t len, unsigned char *out,
                       unsigned char *tag)
{
    const unsigned rate = params[1] / 8u, rounds_b = params[3];
    const uint64_t k1 = load64(key), k2 = load64(key + 8);
    uint64_t s[5] = {load64(params), k1, k2, load64(nonce), load64(nonce + 8)};

    permute(s, 12);
    s[3] ^= k1;
    s[4] ^= k2;

    if (adlen) {
        duplex(s, ad, NULL, adlen, rate, rounds_b, ABSORB);
        permute(s, rounds_b);
    }
    s[4] ^= 1;

    duplex(s, in, out, len, rate, rounds_b, mode);

    s[rate / 8] ^= k1;
    s[rate / 8 + 1] ^= k2;
    permute(s, 12);
    store64(tag, s[3] ^ k1);
    store64(tag + 8, s[4] ^ k2);
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
