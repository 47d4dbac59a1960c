/* The kernel's two entry points, driven from C for the tests' C gates.
 *
 *     kernel_driver
 *     kernel_driver VARIANT ADLEN LEN SEED FORGE
 *
 * One case encrypts a message and decrypts it again, through heap buffers
 * of exactly the size the kernel is given: 8 bytes for the IV, 16 for the
 * key, the nonce and the tag, ADLEN for the AD, and LEN for the input and
 * for the output.  So a read or write one byte past any of them is caught
 * by AddressSanitizer; at LEN 0 the output holds no byte, so any write to
 * it is.  splitmix64 from SEED fills every buffer.  VARIANT is 0 for
 * ASCON-128 and 1 for ASCON-128a.  With FORGE -1, decryption gets the tag
 * that encryption wrote, and must return 0 and the plaintext.  With FORGE
 * 0 to 15 that tag's byte FORGE is changed, and decryption must return
 * nonzero and leave the output all zero.
 *
 * With no arguments, the driver runs the sweep that test_aead.py builds
 * under AddressSanitizer and UndefinedBehaviorSanitizer: both variants,
 * every AD and PT length from 0 to three blocks plus one byte, and for
 * each the right tag and tags wrong in byte 0, 8 and 15.  With arguments,
 * it runs the one case that test_control_flow.py builds under
 * `--coverage`, whose gcov counts for _accel.c it compares between runs.
 * Exit status 0 means every case passed.
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

/* The IVs of ASCON-128 and ASCON-128a, the kernel's parameter blocks. */
static const unsigned char VARIANTS[2][8] = {
    {0x80, 0x40, 0x0C, 0x06, 0, 0, 0, 0},
    {0x80, 0x80, 0x0C, 0x08, 0, 0, 0, 0},
};

/* The sweep's FORGE values: the right tag, then tags wrong in the first
 * byte of each 8-byte word and in the last byte. */
static const int FORGES[4] = {-1, 0, 8, 15};

/* splitmix64: the next pseudo-random word from `state`. */
static uint64_t next(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15u);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* `n` bytes on the heap, exactly, filled from `state`. */
static unsigned char *filled(size_t n, uint64_t *state)
{
    unsigned char *p = malloc(n);
    if (p == NULL && n > 0) {
        perror("malloc");
        exit(2);
    }
    for (size_t i = 0; i < n; i++)
        p[i] = (unsigned char)next(state);
    return p;
}

/* One case, as the header describes it: 0 if it passed, else 1 and a line on stderr. */
static int one_case(int variant, size_t adlen, size_t len, uint64_t seed, int forge)
{
    unsigned char *params = filled(8, &seed), *key = filled(16, &seed);
    unsigned char *nonce = filled(16, &seed), *ad = filled(adlen, &seed);
    unsigned char *pt = filled(len, &seed), *ct = filled(len, &seed);
    unsigned char *back = filled(len, &seed), *tag = filled(16, &seed);
    const char *wrong = NULL;

    memcpy(params, VARIANTS[variant], 8);
    ascon_encrypt(params, key, nonce, ad, adlen, pt, len, ct, tag);
    if (forge >= 0)
        tag[forge] ^= 0x01;
    if ((ascon_decrypt(params, key, nonce, ad, adlen, ct, len, back, tag) != 0) != (forge >= 0))
        wrong = "verdict";
    for (size_t i = 0; i < len && wrong == NULL; i++)
        if (back[i] != (forge >= 0 ? 0 : pt[i]))
            wrong = "output";
    if (wrong != NULL)
        fprintf(stderr, "variant %d, adlen %zu, len %zu, forge %d: wrong %s\n", variant, adlen,
                len, forge, wrong);
    free(params);
    free(key);
    free(nonce);
    free(ad);
    free(pt);
    free(ct);
    free(back);
    free(tag);
    return wrong != NULL;
}

int main(int argc, char **argv)
{
    if (argc == 6) {
        const int variant = atoi(argv[1]), forge = atoi(argv[5]);
        if (variant < 0 || variant > 1 || forge < -1 || forge > 15) {
            fprintf(stderr, "argument out of range\n");
            return 2;
        }
        return one_case(variant, strtoul(argv[2], NULL, 10), strtoul(argv[3], NULL, 10),
                        strtoull(argv[4], NULL, 10), forge);
    }
    if (argc != 1) {
        fprintf(stderr, "usage: %s [VARIANT ADLEN LEN SEED FORGE]\n", argv[0]);
        return 2;
    }
    unsigned long cases = 0;
    for (int variant = 0; variant < 2; variant++) {
        const size_t most = 3 * (VARIANTS[variant][1] / 8u) + 1;
        for (size_t adlen = 0; adlen <= most; adlen++)
            for (size_t len = 0; len <= most; len++, cases++)
                for (int f = 0; f < 4; f++)
                    if (one_case(variant, adlen, len, cases, FORGES[f]) != 0)
                        return 1;
    }
    printf("%lu cases passed\n", cases);
    return 0;
}
