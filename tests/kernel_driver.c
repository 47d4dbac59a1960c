/* Memory-safety driver for the kernel's two entry points.
 *
 * test_aead.py links it with src/ascon_aead/_accel.c under AddressSanitizer
 * and UndefinedBehaviorSanitizer.  For both variants and every AD and PT
 * length from 0 to three blocks plus one byte, it encrypts and decrypts
 * through heap buffers of exactly the size the kernel is given (len for the
 * input and the output, 16 for the tag), so a read or write one byte past
 * any of them stops the run; at len 0 the output holds no byte, so any
 * write to it does.  Decryption with the tag that encryption wrote must
 * return 0 and the plaintext.  With that tag changed in byte 0, 8 or 15 it
 * must return nonzero and leave the output all zero.  Exit status 0 means
 * every case passed.
 */
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

/* The tag bytes a forged tag differs in: the first of each 8-byte word, and the last. */
static const size_t FORGED_BYTES[3] = {0, 8, 15};

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
                unsigned char *tag = filled(16, 0), *forged = filled(16, 0);

                ascon_encrypt(params, key, nonce, ad, adlen, pt, len, ct, tag);
                if (ascon_decrypt(params, key, nonce, ad, adlen, ct, len, back, tag) != 0 ||
                    (len && memcmp(back, pt, len) != 0)) {
                    fprintf(stderr, "variant %d, adlen %zu, len %zu: round trip failed\n", v,
                            adlen, len);
                    return 1;
                }
                for (size_t f = 0; f < 3; f++) {
                    const size_t byte = FORGED_BYTES[f];
                    memcpy(forged, tag, 16);
                    forged[byte] ^= 0x01;
                    memcpy(back, pt, len);
                    if (ascon_decrypt(params, key, nonce, ad, adlen, ct, len, back, forged) == 0) {
                        fprintf(stderr, "variant %d, adlen %zu, len %zu: tag forged at byte %zu "
                                "accepted\n", v, adlen, len, byte);
                        return 1;
                    }
                    for (size_t i = 0; i < len; i++) {
                        if (back[i] != 0) {
                            fprintf(stderr, "variant %d, adlen %zu, len %zu: tag forged at byte "
                                    "%zu left output byte %zu\n", v, adlen, len, byte, i);
                            return 1;
                        }
                    }
                }
                free(key);
                free(nonce);
                free(ad);
                free(pt);
                free(ct);
                free(back);
                free(tag);
                free(forged);
                cases++;
            }
        }
        free(params);
    }
    printf("%lu cases passed\n", cases);
    return 0;
}
