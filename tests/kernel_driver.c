/* Memory-safety driver for the kernel's two entry points.
 *
 * test_aead.py links it with src/ascon_aead/_accel.c under AddressSanitizer
 * and UndefinedBehaviorSanitizer.  For both variants and every AD and PT
 * length from 0 to three blocks plus one byte, it encrypts and decrypts
 * through heap buffers of exactly the size the kernel is given (len for the
 * input and the output, 16 for the tag), so a read or write one byte past
 * any of them stops the run.  Decryption must return the plaintext and the
 * tag that encryption wrote.  Exit status 0 means every case passed.
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void ascon_encrypt(const unsigned char *params, const unsigned char *key,
                   const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                   const unsigned char *in, size_t len, unsigned char *out, unsigned char *tag);
void ascon_decrypt(const unsigned char *params, const unsigned char *key,
                   const unsigned char *nonce, const unsigned char *ad, size_t adlen,
                   const unsigned char *in, size_t len, unsigned char *out, unsigned char *tag);

/* The IVs of ASCON-128 and ASCON-128a, the kernel's parameter blocks. */
static const unsigned char VARIANTS[2][8] = {
    {0x80, 0x40, 0x0C, 0x06, 0, 0, 0, 0},
    {0x80, 0x80, 0x0C, 0x08, 0, 0, 0, 0},
};

/* `n` bytes on the heap, exactly, filled with a pattern that depends on `seed`. */
static unsigned char *filled(size_t n, unsigned seed)
{
    unsigned char *p = malloc(n);
    if (p == NULL && n > 0) {
        perror("malloc");
        exit(2);
    }
    for (size_t i = 0; i < n; i++)
        p[i] = (unsigned char)(seed * 31u + i * 7u);
    return p;
}

int main(void)
{
    unsigned long cases = 0;
    for (int v = 0; v < 2; v++) {
        const size_t rate = VARIANTS[v][1] / 8, most = 3 * rate + 1;
        unsigned char *params = filled(8, 0);
        memcpy(params, VARIANTS[v], 8);
        for (size_t adlen = 0; adlen <= most; adlen++) {
            for (size_t len = 0; len <= most; len++) {
                unsigned char *key = filled(16, 1), *nonce = filled(16, 2);
                unsigned char *ad = filled(adlen, 3), *pt = filled(len, 4);
                unsigned char *ct = filled(len, 0), *back = filled(len, 0);
                unsigned char *tag = filled(16, 0), *expected = filled(16, 0);

                ascon_encrypt(params, key, nonce, ad, adlen, pt, len, ct, tag);
                ascon_decrypt(params, key, nonce, ad, adlen, ct, len, back, expected);
                if ((len && memcmp(back, pt, len) != 0) || memcmp(expected, tag, 16) != 0) {
                    fprintf(stderr, "variant %d, adlen %zu, len %zu: round trip failed\n", v,
                            adlen, len);
                    return 1;
                }
                free(key);
                free(nonce);
                free(ad);
                free(pt);
                free(ct);
                free(back);
                free(tag);
                free(expected);
                cases++;
            }
        }
        free(params);
    }
    printf("%lu cases passed\n", cases);
    return 0;
}
