/* One encryption and one decryption through the kernel's entry points, for
 * the C half of tests/test_control_flow.py.
 *
 *     control_flow_driver VARIANT ADLEN LEN SEED FORGE
 *
 * VARIANT is 0 for ASCON-128 and 1 for ASCON-128a; ADLEN and LEN are at
 * most 64.  The key, nonce, AD and plaintext are pseudo-random bytes drawn
 * from SEED.  The plaintext is encrypted, and the ciphertext decrypted with
 * the tag that encryption wrote, or, when FORGE is 0 to 15, with that tag's
 * byte FORGE changed.  The test builds this file with _accel.c under
 * `--coverage` and compares gcov's counts for _accel.c between runs.  Exit
 * status 0 means decryption gave the expected verdict and output.
 */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void ascon_encrypt(const unsigned char *params, const unsigned char *key,
                   const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                   const unsigned char *in, size_t len, unsigned char *out, unsigned char *tag);
int ascon_decrypt(const unsigned char *params, const unsigned char *key,
                  const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                  const unsigned char *in, size_t len, unsigned char *out,
                  const unsigned char *tag);

enum { MOST = 64 };

/* The IVs of ASCON-128 and ASCON-128a, the kernel's parameter blocks. */
static const unsigned char VARIANTS[2][8] = {
    {0x80, 0x40, 0x0C, 0x06, 0, 0, 0, 0},
    {0x80, 0x80, 0x0C, 0x08, 0, 0, 0, 0},
};

/* splitmix64: the next pseudo-random word from `state`. */
static uint64_t next(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15u);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

static void fill(unsigned char *p, size_t n, uint64_t *state)
{
    for (size_t i = 0; i < n; i++)
        p[i] = (unsigned char)next(state);
}

int main(int argc, char **argv)
{
    unsigned char key[16], nonce[16], ad[MOST], pt[MOST], ct[MOST], back[MOST], tag[16];
    if (argc != 6) {
        fprintf(stderr, "usage: %s VARIANT ADLEN LEN SEED FORGE\n", argv[0]);
        return 2;
    }
    const int variant = atoi(argv[1]), forge = atoi(argv[5]);
    const size_t adlen = strtoul(argv[2], NULL, 10), len = strtoul(argv[3], NULL, 10);
    uint64_t state = strtoull(argv[4], NULL, 10);
    if (variant < 0 || variant > 1 || adlen > MOST || len > MOST || forge < -1 || forge > 15) {
        fprintf(stderr, "argument out of range\n");
        return 2;
    }
    fill(key, 16, &state);
    fill(nonce, 16, &state);
    fill(ad, adlen, &state);
    fill(pt, len, &state);

    ascon_encrypt(VARIANTS[variant], key, nonce, ad, adlen, pt, len, ct, tag);
    if (forge >= 0)
        tag[forge] ^= 0x01;
    const int failed = ascon_decrypt(VARIANTS[variant], key, nonce, ad, adlen, ct, len, back, tag);
    for (size_t i = 0; i < len; i++) {
        if (back[i] != (forge >= 0 ? 0 : pt[i])) {
            fprintf(stderr, "output byte %zu is wrong\n", i);
            return 1;
        }
    }
    if ((failed != 0) != (forge >= 0)) {
        fprintf(stderr, "wrong verdict\n");
        return 1;
    }
    return 0;
}
