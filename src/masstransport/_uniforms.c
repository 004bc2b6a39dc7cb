/* The uniforms of masstransport.rng.uniform_block, one pass per tile, and
   the Gaussian increments drawn from them.

   out[t, j] = unit(mix64(tkey[t] + pos[j] * GOLDEN)) for t < trials and
   j < positions, with out laid out trial-contiguous ("F") when
   trials_contiguous is nonzero, else position-contiguous ("C").  unit maps
   the top 53 bits w of a word to (w + 0.5) * 2^-53, rounded to double,
   and the one word that rounds to 1.0 to the largest double below it:
   the same operations, in the same order, as rng._mixed_to_unit, so the
   two agree bit for bit.  gaussian_tile writes mean + stddev * ndtri(u)
   for the same uniforms, with ndtri the inverse of the standard normal
   distribution function as Cephes computes it (S. L. Moshier), the code
   scipy.special.ndtri runs.  Built with -ffp-contract=off, so no multiply
   and add are fused into one rounding, and linked with -lm. */

#include <math.h>
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

/* Cephes' ndtri tables.  Central part, |u - 0.5| <= 3/8: */
static const double P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
    1.39312609387279679503E1, -1.23916583867381258016E0,
};
static const double Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
    -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
};
/* tails, in x = sqrt(-2 log y): 2 <= x < 8, y between exp(-32) and exp(-2) */
static const double P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4,
};
static const double Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
    1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
};
/* x >= 8, y below exp(-32) */
static const double P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9,
};
static const double Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
    2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
};
#define S2PI 2.50662827463100050242E0
#define EXP_M2 0.13533528323661269189

/* Cephes' polynomial evaluations, in its order: coef[0] leads, and p1evl
   has an implied leading 1 */
static inline double polevl(double x, const double *coef, int n)
{
    double ans = coef[0];
    for (int i = 1; i <= n; i++)
        ans = ans * x + coef[i];
    return ans;
}

static inline double p1evl(double x, const double *coef, int n)
{
    double ans = x + coef[0];
    for (int i = 1; i < n; i++)
        ans = ans * x + coef[i];
    return ans;
}

/* Cephes' central part, from y = u - 0.5 */
static inline double ndtri_central(double y)
{
    double y2 = y * y;
    double x = y + y * (y2 * polevl(y2, P0, 4) / p1evl(y2, Q0, 8));
    return x * S2PI;
}

/* Cephes' ndtri, line for line, for u in (0, 1) */
static double ndtri(double u)
{
    int code = 1;
    double y = u;
    if (y > 1.0 - EXP_M2) {
        y = 1.0 - y;
        code = 0;
    }
    if (y > EXP_M2)
        return ndtri_central(y - 0.5);
    double x = sqrt(-2.0 * log(y));
    double x0 = x - log(x) / x;
    double z = 1.0 / x;
    double x1 = x < 8.0 ? z * polevl(z, P1, 8) / p1evl(z, Q1, 8)
                        : z * polevl(z, P2, 8) / p1evl(z, Q2, 8);
    x = x0 - x1;
    return code ? -x : x;
}

/* the draws of one pass: few enough that the tail's indices stay in L1 */
#define BLOCK 256

/* x[i] = mean + stddev * ndtri(x[i]) for the n <= BLOCK uniforms in x.
   About a quarter of the draws fall outside (EXP_M2, 1 - EXP_M2], where
   Cephes takes a tail branch, and a branch per draw mispredicts on them.
   So every draw goes through the central part without a branch, which
   vectorises, and only the draws outside, gathered by a branch-free
   compaction, go through ndtri again. */
static void gaussian_run(double *x, size_t n, double mean, double stddev)
{
    uint16_t tail[BLOCK];
    double tail_u[BLOCK];
    size_t k = 0;
    for (size_t i = 0; i < n; i++) {
        double u = x[i];
        tail[k] = (uint16_t)i;
        tail_u[k] = u;
        k += (u <= EXP_M2) | (u > 1.0 - EXP_M2);
    }
    for (size_t i = 0; i < n; i++) {
        double z = ndtri_central(x[i] - 0.5) * stddev;
        x[i] = z + mean;
    }
    for (size_t i = 0; i < k; i++) {
        double z = ndtri(tail_u[i]) * stddev;
        x[tail[i]] = z + mean;
    }
}

void gaussian_tile(const uint64_t *tkey, size_t trials, const uint64_t *pos, size_t positions,
                   int trials_contiguous, double mean, double stddev, double *out)
{
    /* each run is contiguous: a position's trials, or a trial's positions */
    size_t runs = trials_contiguous ? positions : trials;
    size_t length = trials_contiguous ? trials : positions;
    for (size_t r = 0; r < runs; r++, out += length) {
        for (size_t s = 0; s < length; s += BLOCK) {
            size_t n = length - s < BLOCK ? length - s : BLOCK;
            double *x = out + s;
            if (trials_contiguous)
                uniform_tile(tkey + s, n, pos + r, 1, 1, x);
            else
                uniform_tile(tkey + r, 1, pos + s, n, 0, x);
            gaussian_run(x, n, mean, stddev);
        }
    }
}
