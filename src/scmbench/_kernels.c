/* The elementwise arithmetic around numpy's transcendentals, one pass each,
the integer work of the random stream, and the index work of token
pruning.

Every kernel computes each element with the same IEEE-754 double
operations, in the same order, as the numpy expressions it replaces, so
its results are bit-identical to theirs; np.exp, np.tanh, np.log, np.cos
and np.sin stay in numpy, whose vectorized versions differ from libm's.
That holds only when the compiler neither contracts a multiply and an add
into an FMA (-ffp-contract=off) nor reorders a sum (no -ffast-math, no
-fassociative-math): scmbench.core builds this file with those flags.

Arrays are C-contiguous float64, and index arrays int64. The softmax and
GELU kernels are the halves before and after the numpy call; the reflect
average is all of mixing after its matmul; the query scaling is the one
multiply attention applies to its queries. The random stream's kernels
compute SplitMix64 in uint64_t, which wraps modulo 2^64 as numpy's uint64
arithmetic does, and turn each word's top 53 bits into a double: an
integer below 2^53 converts exactly, and adding 1.0 to it or scaling it by
2^-53 is exact too, so no rounding mode or order can change a bit. The
keep-list check and row grid, the row-bound check, the top-k selection,
the kept rows' gather and scatter and the refill only compare, add and
copy integers and values, so a run calls none of numpy's integer,
sort, search or fancy-indexing code.
*/

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Eight doubles, and a mask of eight comparisons (GCC vector extensions;
   a target without 512-bit vectors runs each as narrower ones). */
typedef double lanes8 __attribute__((vector_size(64)));
typedef long long mask8 __attribute__((vector_size(64)));

/* The largest of x[0:n], n >= 1, over eight lanes. With a NaN in the
   row, the result may be NaN or not, by where the NaN is. */
static double row_max(const double *x, ptrdiff_t n)
{
    double m = x[0];
    ptrdiff_t i = 1;
    if (n >= 16) {
        lanes8 lane, v;
        memcpy(&lane, x, sizeof lane);
        for (i = 8; i + 8 <= n; i += 8) {
            memcpy(&v, x + i, sizeof v);
            mask8 above = v > lane;
            lane = (lanes8)(((mask8)v & above) | ((mask8)lane & ~above));
        }
        m = lane[0];
        for (int k = 1; k < 8; k++)
            m = lane[k] > m ? lane[k] : m;
    }
    for (; i < n; i++)
        m = x[i] > m ? x[i] : m;
    return m;
}

/* Each row of x[rows][n] minus its maximum: x -= np.max(x, axis=-1,
   keepdims=True). Every m that compares equal to the maximum gives the
   same x - m, up to the sign of a zero that np.exp maps to 1 either way.
   A row with a NaN comes out of softmax_div_sum all NaN, as it does in
   numpy: there the maximum is NaN, here the sum is. */
void softmax_sub_max(double *x, ptrdiff_t rows, ptrdiff_t n)
{
    for (ptrdiff_t r = 0; r < rows; r++, x += n) {
        double m = row_max(x, n);
        for (ptrdiff_t i = 0; i < n; i++)
            x[i] -= m;
    }
}

/* numpy's pairwise sum of a[0:n], the order np.sum takes along a
   contiguous axis: in sequence below 8 elements; up to 128, eight running
   sums over blocks of 8, combined pairwise, then the tail in sequence;
   above that, the two halves split at n/2 rounded down to a multiple of
   8. */
static double pairwise_sum(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Each row of x[rows][n] over its sum: x /= np.sum(x, axis=-1,
   keepdims=True), which adds the pairwise sum to the identity, 0. */
void softmax_div_sum(double *x, ptrdiff_t rows, ptrdiff_t n)
{
    for (ptrdiff_t r = 0; r < rows; r++, x += n) {
        double s = 0. + pairwise_sum(x, n);
        for (ptrdiff_t i = 0; i < n; i++)
            x[i] /= s;
    }
}

/* GELU's argument to tanh: t = ((((x * x) * x) * 0.044715) + x) * c,
   with c = sqrt(2/pi). */
void gelu_tanh_arg(const double *x, double *t, ptrdiff_t n, double c)
{
    for (ptrdiff_t i = 0; i < n; i++)
        t[i] = ((((x[i] * x[i]) * x[i]) * 0.044715) + x[i]) * c;
}

/* GELU from t = tanh(...): x = (0.5 * x) * (t + 1), overwriting x. */
void gelu_finish(double *x, const double *t, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++)
        x[i] = (0.5 * x[i]) * (t[i] + 1.0);
}

/* One 3-point average with width-1 reflect padding, per element of rows
   of len values: out[i] = ((a[i] + b[i]) + c[i]) / 3, where a is the row
   before, b the row itself and c the row after; an edge row's missing
   neighbour is the row on its other side. */
static void average3(const double *a, const double *b, const double *c,
                     double *out, ptrdiff_t len)
{
    for (ptrdiff_t i = 0; i < len; i++)
        out[i] = ((a[i] + b[i]) + c[i]) / 3.0;
}

/* Neighbour indices of i along an axis of n >= 2, reflect-padded. */
#define BEFORE(i) ((i) > 0 ? (i) - 1 : 1)
#define AFTER(i, n) ((i) < (n) - 1 ? (i) + 1 : (n) - 2)

/* Mixing's reflect average of y[t][h][w][c] into out, which must not
   overlap y: along H when h > 1, then along W when w > 1, each pass as
   average3 rounds it, and a copy when both are 1. The H pass of one row
   goes to a row buffer, which the W pass reads. Returns 0, or -1 when the
   row buffer cannot be allocated. */
int reflect_average(const double *y, double *out, ptrdiff_t t, ptrdiff_t h,
                    ptrdiff_t w, ptrdiff_t c)
{
    ptrdiff_t row = w * c;
    double *avg = NULL;
    if (h > 1 && w > 1) {
        avg = malloc(row * sizeof(double));
        if (avg == NULL)
            return -1;
    }
    for (ptrdiff_t s = 0; s < t; s++, y += h * row, out += h * row) {
        for (ptrdiff_t i = 0; i < h; i++) {
            const double *src = y + i * row;
            double *dst = out + i * row;
            if (h > 1) {
                double *hdst = w > 1 ? avg : dst;
                average3(y + BEFORE(i) * row, src,
                         y + AFTER(i, h) * row, hdst, row);
                src = hdst;
            }
            if (w > 1) {
                for (ptrdiff_t j = 0; j < w; j++)
                    average3(src + BEFORE(j) * c, src + j * c,
                             src + AFTER(j, w) * c, dst + j * c, c);
            } else if (h == 1) {
                memcpy(dst, src, row * sizeof(double));
            }
        }
    }
    free(avg);
    return 0;
}

/* Restore the min-heap order of heap[0:k] below position i. */
static void sift_down(double *heap, ptrdiff_t k, ptrdiff_t i)
{
    double x = heap[i];
    for (ptrdiff_t c; (c = 2 * i + 1) < k; i = c) {
        if (c + 1 < k && heap[c + 1] < heap[c])
            c++;
        if (!(heap[c] < x))
            break;
        heap[i] = heap[c];
    }
    heap[i] = x;
}

/* The k largest of each row of s[rows][n], 1 <= k <= n, as ascending
   indices into idx[rows][k]: np.sort(np.argsort(-s, kind="stable")[:, :k]),
   so equal values go to the lower index and a NaN ranks below every
   number. A min-heap of the k largest numbers seen gives the k-th
   largest, t, in O(n log k); then one ascending pass emits every index
   above t and the first of those equal to t, as many as the heap holds.
   A row with fewer than k numbers keeps them all and its first NaNs.
   Returns 0, or -1 when the heap cannot be allocated. */
int row_topk(const double *s, long long *idx, ptrdiff_t rows, ptrdiff_t n,
             ptrdiff_t k)
{
    double *heap = malloc(k * sizeof(double));
    if (heap == NULL)
        return -1;
    for (ptrdiff_t r = 0; r < rows; r++, s += n, idx += k) {
        ptrdiff_t held = 0, out = 0;
        for (ptrdiff_t i = 0; i < n; i++) {
            double x = s[i];
            if (x != x)
                continue;
            if (held < k) {
                heap[held++] = x;
                if (held == k)
                    for (ptrdiff_t p = k / 2 - 1; p >= 0; p--)
                        sift_down(heap, k, p);
            } else if (x > heap[0]) {
                heap[0] = x;
                sift_down(heap, k, 0);
            }
        }
        if (held < k) {
            ptrdiff_t nans = k - held;
            for (ptrdiff_t i = 0; out < k; i++)
                if (s[i] == s[i])
                    idx[out++] = i;
                else if (nans > 0) {
                    idx[out++] = i;
                    nans--;
                }
            continue;
        }
        double t = heap[0];
        ptrdiff_t ties = 0;
        for (ptrdiff_t j = 0; j < k; j++)
            ties += heap[j] == t;
        for (ptrdiff_t i = 0; out < k; i++)
            if (s[i] > t)
                idx[out++] = i;
            else if (s[i] == t && ties > 0) {
                idx[out++] = i;
                ties--;
            }
    }
    free(heap);
    return 0;
}

/* The queries of an attention tile's fused projection qkv[seqs][n + 1][3c]:
   the first c values of rows 0:n of each sequence times scale, one
   multiply each, as qh *= scale does. */
void scale_queries(double *qkv, ptrdiff_t seqs, ptrdiff_t n, ptrdiff_t c,
                   double scale)
{
    for (ptrdiff_t s = 0; s < seqs; s++, qkv += 3 * c)
        for (ptrdiff_t r = 0; r < n; r++, qkv += 3 * c)
            for (ptrdiff_t i = 0; i < c; i++)
                qkv[i] *= scale;
}

/* The key/value rows of seqs pruned sequences, kv[seqs][n + 1][c]: row j
   of sequence s is row rows[s][j] of z[][c] for j < n, and its last row
   is row rows[s][n] of prior[][c]. */
void gather_kv(double *kv, const double *z, const double *prior,
               const long long *rows, ptrdiff_t seqs, ptrdiff_t n,
               ptrdiff_t c)
{
    size_t bytes = c * sizeof(double);
    for (ptrdiff_t s = 0; s < seqs; s++, rows += n + 1) {
        for (ptrdiff_t j = 0; j < n; j++, kv += c)
            memcpy(kv, z + rows[j] * c, bytes);
        memcpy(kv, prior + rows[n] * c, bytes);
        kv += c;
    }
}

/* Row s * n + j of att[seqs * n][c] into row rows[s][j] of out[][c], for
   j < n: each pruned sequence's attention to its own latent rows. */
void scatter_rows(double *out, const double *att, const long long *rows,
                  ptrdiff_t seqs, ptrdiff_t n, ptrdiff_t c)
{
    size_t bytes = c * sizeof(double);
    for (ptrdiff_t s = 0; s < seqs; s++, rows += n + 1)
        for (ptrdiff_t j = 0; j < n; j++, att += c)
            memcpy(out + rows[j] * c, att, bytes);
}

/* Rows i:j of a pruned block's attention out[][c] that no keep list
   names, each from the same row of cached; the kept rows, which
   scatter_rows wrote, are left as they are. Row r is position r % l of
   slab r / l, which keeps positions keep[owner[r / l]][0:k], ascending.
   Each run of cached rows between two kept ones is one copy. */
void refill_rows(double *out, const double *cached, const long long *keep,
                 const long long *owner, ptrdiff_t k, ptrdiff_t l,
                 ptrdiff_t c, ptrdiff_t i, ptrdiff_t j)
{
    while (i < j) {
        ptrdiff_t base = i - i % l, end = base + l < j ? base + l : j;
        const long long *kept = keep + owner[i / l] * k;
        ptrdiff_t a = 0, b = k;
        while (a < b) {  /* a: the first kept position at or after row i */
            ptrdiff_t mid = a + (b - a) / 2;
            if (base + kept[mid] < i)
                a = mid + 1;
            else
                b = mid;
        }
        for (; i < end; a++) {
            ptrdiff_t next = a < k && base + kept[a] < end ? base + kept[a]
                                                           : end;
            memcpy(out + i * c, cached + i * c,
                   (next - i) * c * sizeof(double));
            i = next < end ? next + 1 : end;
        }
    }
}


/* SplitMix64's increment and output function: the word of state z. */
#define GAMMA 0x9E3779B97F4A7C15u

static uint64_t splitmix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* The n uniforms in [0, 1) after stream state: word i is that of state
   + (i + 1) * GAMMA, and out[i] = (double)(word >> 11) * 2^-53, as
   (w >> 11).astype(np.float64) * 2.0 ** -53 gives. */
void uniform_draws(double *out, uint64_t state, ptrdiff_t n)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        state += GAMMA;
        out[i] = (double)(splitmix64(state) >> 11) * 0x1.0p-53;
    }
}

/* Box-Muller's inputs for the pairs after stream state: pair i takes
   words 2i and 2i + 1, and u1[i] = ((word 2i >> 11) + 1.0) * 2^-53, in
   (0, 1], and u2[i] = (word 2i+1 >> 11) * 2^-53, in [0, 1). */
void box_muller_inputs(double *u1, double *u2, uint64_t state,
                       ptrdiff_t pairs)
{
    for (ptrdiff_t i = 0; i < pairs; i++) {
        state += GAMMA;
        u1[i] = ((double)(splitmix64(state) >> 11) + 1.0) * 0x1.0p-53;
        state += GAMMA;
        u2[i] = (double)(splitmix64(state) >> 11) * 0x1.0p-53;
    }
}

/* A pruned block's row grid rows[g][k][n + 1] and each slab's keep row
   owner[], from keep[g][k], the kept positions of each of g groups among
   l: sequence (r, i) is the latent rows of position keep[r][i] in slabs
   r * slab_g + j * slab_j for j < n, then row r * l + keep[r][i] of the
   prior, and slab r * slab_g + j * slab_j keeps keep[r]. Returns -1, with
   nothing written, unless each keep row is strictly increasing within
   [0, l). */
int pruned_rows(long long *rows, long long *owner, const long long *keep,
                ptrdiff_t g, ptrdiff_t k, ptrdiff_t n, ptrdiff_t l,
                ptrdiff_t slab_g, ptrdiff_t slab_j)
{
    for (ptrdiff_t r = 0; r < g; r++)
        for (ptrdiff_t i = 0; i < k; i++) {
            long long x = keep[r * k + i];
            if (x < 0 || x >= l || (i > 0 && x <= keep[r * k + i - 1]))
                return -1;
        }
    for (ptrdiff_t r = 0; r < g; r++) {
        for (ptrdiff_t j = 0; j < n; j++)
            owner[r * slab_g + j * slab_j] = r;
        for (ptrdiff_t i = 0; i < k; i++) {
            long long x = keep[r * k + i];
            for (ptrdiff_t j = 0; j < n; j++)
                *rows++ = (r * slab_g + j * slab_j) * l + x;
            *rows++ = r * l + x;
        }
    }
    return 0;
}

/* 0 when every sequence of rows[seqs][n + 1] names rows within [0,
   z_rows) and a prior row within [0, prior_rows), else -1. */
int rows_in_range(const long long *rows, ptrdiff_t seqs, ptrdiff_t n,
                  ptrdiff_t z_rows, ptrdiff_t prior_rows)
{
    for (ptrdiff_t s = 0; s < seqs; s++, rows += n + 1) {
        for (ptrdiff_t j = 0; j < n; j++)
            if (rows[j] < 0 || rows[j] >= z_rows)
                return -1;
        if (rows[n] < 0 || rows[n] >= prior_rows)
            return -1;
    }
    return 0;
}
