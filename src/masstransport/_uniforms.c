/* The uniforms of masstransport.rng.uniform_block, one pass per tile.

   out[t, j] = unit(mix64(tkey[t] + pos[j] * GOLDEN)) for t < trials and
   j < positions, with out laid out trial-contiguous ("F") when
   trials_contiguous is nonzero, else position-contiguous ("C").  unit maps
   the top 53 bits w of a word to (w + 0.5) * 2^-53, rounded to double,
   and the one word that rounds to 1.0 to the largest double below it:
   the same operations, in the same order, as rng._mixed_to_unit, so the
   two agree bit for bit.  Built with -ffp-contract=off, so no multiply
   and add are fused into one rounding. */

#include <stddef.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define U53 (1.0 / 9007199254740992.0)
#define BELOW_ONE (1.0 - U53)

static inline double unit(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    double u = ((double)(int64_t)(x >> 11) + 0.5) * U53;
    return u < BELOW_ONE ? u : BELOW_ONE;
}

void uniform_tile(const uint64_t *tkey, size_t trials, const uint64_t *pos, size_t positions,
                  int trials_contiguous, double *out)
{
    if (trials_contiguous) {
        for (size_t j = 0; j < positions; j++, out += trials) {
            uint64_t step = pos[j] * GOLDEN;
            for (size_t t = 0; t < trials; t++)
                out[t] = unit(tkey[t] + step);
        }
    } else {
        for (size_t t = 0; t < trials; t++, out += positions) {
            uint64_t key = tkey[t];
            for (size_t j = 0; j < positions; j++)
                out[j] = unit(key + pos[j] * GOLDEN);
        }
    }
}
