/* The permutation and a whole-block duplex loop for ASCON-128 and ASCON-128a.
 *
 * _accel.py compiles this file on first use and calls ascon_permute and
 * ascon_duplex through ctypes.  The round function is the one in
 * permutation.py, on machine words; ascon_duplex fuses it across whole rate
 * blocks.  Words are loaded and stored big-endian with byte shifts, so the
 * result does not depend on the host's byte order.  The only branches are
 * on loop counters and on the public mode and rate; nothing branches on, or
 * indexes memory by, state or data.
 */
#include <stddef.h>
#include <stdint.h>

enum { ABSORB = 0, ENCRYPT = 1, DECRYPT = 2 };

#define ROTR(x, n) (((x) >> (n)) | ((x) << (64 - (n))))

static uint64_t load64(const unsigned char *p)
{
    return (uint64_t)p[0] << 56 | (uint64_t)p[1] << 48 | (uint64_t)p[2] << 40 |
           (uint64_t)p[3] << 32 | (uint64_t)p[4] << 24 | (uint64_t)p[5] << 16 |
           (uint64_t)p[6] << 8 | (uint64_t)p[7];
}

static void store64(unsigned char *p, uint64_t w)
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

/* The exported permutation.  ascon_duplex calls permute() itself, which
 * the compiler inlines into its block loop (~10% faster than a call). */
void ascon_permute(uint64_t s[5], unsigned rounds)
{
    permute(s, rounds);
}

/* Absorb, encrypt or decrypt `blocks` whole blocks of `rate` bytes (8 or 16)
 * from `in`, running a `rounds`-round permutation after every block.
 * `s` holds the five state words and is updated in place.  Encrypt writes
 * the rate after absorbing each block to `out`; decrypt writes the rate
 * XOR the ciphertext block, then overwrites the rate with that block.
 * Absorb writes nothing, and `out` may be NULL.
 */
void ascon_duplex(uint64_t s[5], const unsigned char *in, unsigned char *out,
                  size_t blocks, unsigned rate, unsigned rounds, unsigned mode)
{
    const size_t words = rate / 8;
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
}
