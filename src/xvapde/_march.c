/* The explicit march of a stack of rows, one row after another, each in
 * the order of operations of the numpy march in solver.py, so that both
 * give the same bits.
 *
 * Build with -O3 -ffp-contract=off and without -ffast-math: a contracted
 * a*b + c (an FMA) or a reassociated sum would move bits.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* one binary for every x86-64 host, with an AVX2 clone where it exists */
#if defined(__x86_64__) && defined(__linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

#define EXPONENT 0x7ff0000000000000ULL

/* 1 if y is inf or NaN: its exponent bits are all set */
static inline uint64_t non_finite(double y) {
    uint64_t bits;
    memcpy(&bits, &y, sizeof bits);
    return (bits & EXPONENT) == EXPONENT;
}

/* y[i] = a*x[i-1] + b*x[i] + c*x[i+1] on the k interior nodes; returns
 * whether any of them is non-finite */
CLONES static uint64_t linear(long k, const double *a, const double *b, const double *c,
                              const double *x, double *y) {
    uint64_t bad = 0;
    for (long i = 0; i < k; i++) {
        double v = a[i] * x[i];
        v += b[i] * x[i + 1];
        v += c[i] * x[i + 2];
        y[i + 1] = v;
        bad |= non_finite(v);
    }
    return bad;
}

/* the linear update less delta times the source
 *     pos_rate*U + neg_rate*min(V, 0) + cost_rate*|(U[i+1] - U[i]) / h[i]|
 * with U = max(V, 0); max(-0.0, 0.0) and min(-0.0, 0.0) are +0.0, as in
 * numpy, and a NaN at a node reaches the update through b*x[i] or c*x[i+1] */
CLONES static uint64_t with_source(long k, const double *a, const double *b,
                                   const double *c, const double *h, double pos_rate,
                                   double neg_rate, double cost_rate, double delta,
                                   const double *x, double *y) {
    uint64_t bad = 0;
    for (long i = 0; i < k; i++) {
        double v = a[i] * x[i];
        v += b[i] * x[i + 1];
        v += c[i] * x[i + 2];
        double xi = x[i + 1], up = x[i + 2];
        double u = xi > 0.0 ? xi : 0.0;
        double u_up = up > 0.0 ? up : 0.0;
        double slope = fabs((u_up - u) / h[i]) * cost_rate;
        double neg = (xi < 0.0 ? xi : 0.0) * neg_rate;
        double source = pos_rate * u;
        source += neg;
        source += slope;
        v -= source * delta;
        y[i + 1] = v;
        bad |= non_finite(v);
    }
    return bad;
}

/* one wall, P*exp(p*tau) - Q*exp(q*tau); exp overflows to inf */
static double wall(const double *coef, double tau) {
    return coef[0] * exp(coef[1] * tau) - coef[2] * exp(coef[3] * tau);
}

/* March the row x of n nodes (walls included) from level first to level
 * last, nsub sub-steps of size delta per level, with walls refreshed at
 * each sub-step's tau; y is scratch of n values. Level m is copied to
 * kept[m - keep_from] for keep_from <= m < keep_from + keep_count.
 * Returns -1, or m*n + i when sub-step of level m left node i, the first
 * such node, non-finite; the march stops there. */
static int64_t march_row(long n, long nsub, long first, long last, double dtau,
                         double delta, const double *a, const double *b, const double *c,
                         const double *h, double pos_rate, double neg_rate, double cost_rate,
                         long has_source, const double *walls, double *x, double *y,
                         double *kept, long keep_from, long keep_count) {
    for (long m = first;; m++) {
        if (m >= keep_from && m < keep_from + keep_count)
            memcpy(kept + (m - keep_from) * n, x, n * sizeof *x);
        if (m >= last)
            return -1;
        for (long j = 1; j <= nsub; j++) {
            /* land the final sub-step of each level exactly on the reporting level */
            double tau = j == nsub ? (double)(m + 1) * dtau : (double)m * dtau + (double)j * delta;
            uint64_t bad = has_source
                ? with_source(n - 2, a, b, c, h, pos_rate, neg_rate, cost_rate, delta, x, y)
                : linear(n - 2, a, b, c, x, y);
            y[0] = wall(walls, tau);
            y[n - 1] = wall(walls + 4, tau);
            if (bad | non_finite(y[0]) | non_finite(y[n - 1])) {
                long i = 0;
                while (!non_finite(y[i]))
                    i++;
                return (int64_t)m * n + i;
            }
            double *t = x;
            x = y;
            y = t;
        }
    }
}

/* March the rows rows of a stack, each of n nodes, one after another: row r
 * is march_row with nsub[r], delta[r], the r-th n - 2 weights of a, b and c,
 * the r-th three rates of rates, the r-th eight coefficients of walls, the
 * row x + r*n and the kept levels kept + r*keep_count*n. A row whose three
 * rates are all +0.0, bit for bit, marches without its source. The spacings
 * h, the levels and dtau are shared; y is scratch of n values. bad[r] is
 * what march_row returns for row r. */
void march_rows(long rows, long n, const int64_t *nsub, long first, long last, double dtau,
                const double *delta, const double *a, const double *b, const double *c,
                const double *h, const double *rates, const double *walls, double *x,
                double *y, double *kept, long keep_from, long keep_count, int64_t *bad) {
    for (long r = 0; r < rows; r++) {
        const double *rate = rates + 3 * r;
        uint64_t bits[3];
        memcpy(bits, rate, sizeof bits);
        long w = r * (n - 2);
        bad[r] = march_row(n, nsub[r], first, last, dtau, delta[r], a + w, b + w, c + w, h,
                           rate[0], rate[1], rate[2], (bits[0] | bits[1] | bits[2]) != 0,
                           walls + 8 * r, x + r * n, y, kept + r * keep_count * n, keep_from,
                           keep_count);
    }
}
