/* The compiled passes of soscorr, loaded by soscorr.kernels.
 *
 * Built with -ffp-contract=off: every product and sum rounds on its
 * own, and no fused multiply-add changes a bit. No libm function is
 * called, so the bytes never rest on a libm matching NumPy's loops:
 * sqrt is the SSE2 instruction, which rounds as np.sqrt, and rint is
 * the 2^52 add-and-subtract. Minimum, maximum and clip keep NumPy's
 * choice of operand for NaNs and for a zero against a signed zero.
 */
#include <stdint.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

/* np.minimum and np.maximum: a NaN of a, else of b; of equal values,
 * such as a zero and a signed zero, b */
static inline double min_np(double a, double b)
{
    return a != a || a < b ? a : b;
}

static inline double max_np(double a, double b)
{
    return a != a || a > b ? a : b;
}

/* np.clip(x, lo, hi): a NaN x, else lo below lo, hi above hi and x
 * itself in between, a signed zero x at lo = 0 included */
static inline double clip_np(double x, double lo, double hi)
{
    return x != x ? x : x < lo ? lo : x > hi ? hi : x;
}

/* np.sqrt, correctly rounded; on x86-64 the SSE2 instruction, which
 * no compiler backs with a libm call */
static inline double sqrt_np(double x)
{
#if defined(__x86_64__)
    return _mm_cvtsd_f64(_mm_sqrt_sd(_mm_setzero_pd(), _mm_set_sd(x)));
#else
    return __builtin_sqrt(x);
#endif
}

/* np.rint: half to even under the default rounding mode, by adding and
 * subtracting 2^52 to |x|; a zero keeps the sign of x, and a NaN, an
 * infinity or a whole |x| >= 2^52 is x itself */
static inline double rint_np(double x)
{
    const double big = 4503599627370496.0;
    const double a = __builtin_fabs(x);
    if (!(a < big))
        return x;
    const double r = (a + big) - big;
    return __builtin_signbit(x) ? -r : r;
}

/* The delay-and-sum passes of soscorr.beamform.das_beamform, over the
 * n_rx receivers of one table group.
 *
 * Receiver r reads its float32 record ch + r * ns and adds
 * gain[r] * interp(record, s) to every pixel of the (nx, nz) image rf,
 * at the sample time s = table[inv[r * nx + x], z] * k + s_tx[x, z].
 * A sample time outside [0, ns - 1) adds nothing. Inside it, the
 * truncation (int)s is floor(s), so each pixel adds
 * ((c1 - c0) * (s - i0) + c0) * gain[r], with c0 and c1 the samples
 * i0 and i0 + 1 read as doubles: the arithmetic of the NumPy loop,
 * which scales the table by k, and adds the receivers in ascending
 * order. das_rx is the scalar pass; das_rx_avx512 runs 8 pixels a
 * step where avx512() says the host has AVX-512F.
 */
void das_rx(const double *table, const int64_t *inv, const double *s_tx,
            double k, const float *ch, int64_t ns, const double *gain,
            int64_t n_rx, int64_t nx, int64_t nz, double *rf)
{
    const double last = (double)(ns - 1);
    for (int64_t r = 0; r < n_rx; r++) {
        const float *rec = ch + r * ns;
        for (int64_t x = 0; x < nx; x++) {
            const double *row = table + inv[r * nx + x] * nz;
            const double *tx = s_tx + x * nz;
            double *out = rf + x * nz;
            for (int64_t z = 0; z < nz; z++) {
                const double s = row[z] * k + tx[z];
                if (s >= 0.0 && s < last) {
                    const int i0 = (int)s;
                    const double c0 = rec[i0];
                    out[z] += (((double)rec[i0 + 1] - c0) * (s - i0) + c0)
                              * gain[r];
                }
            }
        }
    }
}

/* 1 where the host runs AVX-512F and the vector passes, das_rx_avx512
 * and trace_rays_avx512, are built, else 0. Off x86-64 they are left
 * out, so the library builds there. */
#if defined(__x86_64__)
int avx512(void)
{
    return __builtin_cpu_supports("avx512f") != 0;
}

/* das_rx, 8 pixels of a column a step. Every product and sum is its
 * own mul or add intrinsic, so each lane rounds as das_rx does. The
 * gather and the sum are masked to the lanes inside the record, so no
 * lane reads past it, and a lane outside keeps its pixel's bytes.
 */
__attribute__((target("avx512f")))
void das_rx_avx512(const double *table, const int64_t *inv,
                   const double *s_tx, double k, const float *ch, int64_t ns,
                   const double *gain, int64_t n_rx, int64_t nx, int64_t nz,
                   double *rf)
{
    const __m512d vk = _mm512_set1_pd(k), zero = _mm512_setzero_pd(),
                  last = _mm512_set1_pd((double)(ns - 1));
    for (int64_t r = 0; r < n_rx; r++) {
        const float *rec = ch + r * ns;
        const __m512d g = _mm512_set1_pd(gain[r]);
        for (int64_t x = 0; x < nx; x++) {
            const double *row = table + inv[r * nx + x] * nz;
            const double *tx = s_tx + x * nz;
            double *out = rf + x * nz;
            for (int64_t z = 0; z < nz; z += 8) {
                const __mmask8 m = nz - z >= 8
                    ? 0xff : (__mmask8)((1u << (nz - z)) - 1);
                const __m512d s = _mm512_add_pd(
                    _mm512_mul_pd(_mm512_maskz_loadu_pd(m, row + z), vk),
                    _mm512_maskz_loadu_pd(m, tx + z));
                const __mmask8 in = _mm512_mask_cmp_pd_mask(
                    _mm512_mask_cmp_pd_mask(m, s, zero, _CMP_GE_OQ),
                    s, last, _CMP_LT_OQ);
                const __m256i i0 = _mm512_cvttpd_epi32(s);
                /* samples i0 and i0 + 1 in one 8-byte gather per lane */
                const __m512i pair = _mm512_mask_i32gather_epi64(
                    _mm512_setzero_si512(), in, i0, rec, 4);
                const __m512d c0 = _mm512_cvtps_pd(_mm256_castsi256_ps(
                    _mm512_cvtepi64_epi32(pair)));
                const __m512d c1 = _mm512_cvtps_pd(_mm256_castsi256_ps(
                    _mm512_cvtepi64_epi32(_mm512_srli_epi64(pair, 32))));
                const __m512d f = _mm512_sub_pd(s, _mm512_cvtepi32_pd(i0));
                const __m512d v = _mm512_mul_pd(_mm512_add_pd(
                    _mm512_mul_pd(_mm512_sub_pd(c1, c0), f), c0), g);
                const __m512d o = _mm512_maskz_loadu_pd(m, out + z);
                _mm512_mask_storeu_pd(out + z, m,
                                      _mm512_mask_add_pd(o, in, o, v));
            }
        }
    }
}
#else
int avx512(void)
{
    return 0;
}
#endif

/* The fields of one inclusion in trace_rays' inc array, in the order
 * soscorr.synthsim writes them */
enum { INC_ELLIPSE, INC_CX, INC_CZ, INC_HX, INC_HZ, INC_SOS, INC_LO_X,
       INC_LO_Z, INC_HI_X, INC_HI_Z, INC_FIELDS };

/* Whether (x, z) lies in inclusion c, its edge included: the
 * arithmetic of soscorr.synthsim.Inclusion.contains */
static inline int inside(const double *c, double x, double z)
{
    if (c[INC_ELLIPSE] != 0.0) {
        const double u = (x - c[INC_CX]) / c[INC_HX];
        const double v = (z - c[INC_CZ]) / c[INC_HZ];
        return u * u + v * v <= 1.0;
    }
    return __builtin_fabs(x - c[INC_CX]) <= c[INC_HX]
        && __builtin_fabs(z - c[INC_CZ]) <= c[INC_HZ];
}

/* The ray parameters (*t_in, *t_out) between which the ray p + t d
 * lies in inclusion c: Inclusion.crossing's line-ellipse quadratic, or
 * the two slabs of soscorr.geometry.slab_clip clipping it in turn. */
static inline void crossing(const double *c, double px, double pz,
                            double dx, double dz, double *t_in,
                            double *t_out)
{
    const double inf = __builtin_inf();
    if (c[INC_ELLIPSE] != 0.0) {
        const double u = (px - c[INC_CX]) / c[INC_HX];
        const double v = (pz - c[INC_CZ]) / c[INC_HZ];
        const double du = dx / c[INC_HX], dv = dz / c[INC_HZ];
        double a = du * du + dv * dv;
        const double b = u * du + v * dv;
        const double root = sqrt_np(max_np(
            b * b - a * (u * u + v * v - 1.0), 0.0));
        /* a is 0 only for a zero-length ray, whose cuts fall at t = 0 */
        a = a > 0.0 ? a : inf;
        *t_in = (-b - root) / a;
        *t_out = (-b + root) / a;
        return;
    }
    double lo = -inf, hi = inf;
    for (int k = 0; k < 2; k++) {
        const double pk = k ? pz : px, dk = k ? dz : dx;
        const double a = c[k ? INC_LO_Z : INC_LO_X] - pk;
        const double b = c[k ? INC_HI_Z : INC_HI_X] - pk;
        double t1, t2;
        if (dk == 0.0) {
            /* parallel to the slab: inside it everywhere or nowhere */
            t1 = a <= 0.0 && b >= 0.0 ? -inf : inf;
            t2 = inf;
        } else {
            t1 = a / dk;
            t2 = b / dk;
        }
        lo = max_np(lo, min_np(t1, t2));
        hi = min_np(hi, max_np(t1, t2));
    }
    *t_in = lo;
    *t_out = hi;
}

/* The heterogeneous ray trace of soscorr.synthsim.travel_times over one
 * block of n rays.
 *
 * Ray i starts at (p[i], p[n + i]), runs along (d[i], d[n + i]) and is
 * dist[i] long. inc holds m > 0 inclusions of INC_FIELDS doubles each,
 * in list order; background is the medium's SoS, and cuts a scratch of
 * 2m + 2 doubles. Each ray is cut at t = 0 and 1 and where it enters
 * and leaves each inclusion; the inner cuts are clipped to [0, 1] and
 * ordered by the odd-even transposition network of
 * synthsim._sort_rows, each piece is charged the SoS at its midpoint,
 * the last inclusion holding it winning, and the pieces' slownesses
 * times lengths are added in order along the ray and scaled by dist
 * into out[i]: the arithmetic of the NumPy block, ray by ray.
 */
void trace_rays(const double *p, const double *d, const double *dist,
                int64_t n, const double *inc, int64_t m, double background,
                double *cuts, double *out)
{
    const int64_t inner = 2 * m;
    double *t = cuts + 1;
    for (int64_t i = 0; i < n; i++) {
        const double px = p[i], pz = p[n + i], dx = d[i], dz = d[n + i];
        cuts[0] = 0.0;
        cuts[inner + 1] = 1.0;
        for (int64_t k = 0; k < m; k++)
            crossing(inc + k * INC_FIELDS, px, pz, dx, dz, t + 2 * k,
                     t + 2 * k + 1);
        for (int64_t j = 0; j < inner; j++)
            t[j] = clip_np(t[j], 0.0, 1.0);
        for (int64_t r = 0; r < inner; r++)
            for (int64_t j = r % 2; j < inner - 1; j += 2) {
                const double low = min_np(t[j], t[j + 1]);
                t[j + 1] = max_np(t[j], t[j + 1]);
                t[j] = low;
            }
        double sum = 0.0;
        for (int64_t j = 0; j <= inner; j++) {
            const double mid = 0.5 * (cuts[j + 1] + cuts[j]);
            const double x = px + dx * mid, z = pz + dz * mid;
            double c = background;
            for (int64_t k = 0; k < m; k++)
                if (inside(inc + k * INC_FIELDS, x, z))
                    c = inc[k * INC_FIELDS + INC_SOS];
            const double piece = (cuts[j + 1] - cuts[j]) / c;
            sum = j ? sum + piece : piece;
        }
        out[i] = sum * dist[i];
    }
}

#if defined(__x86_64__)
#define V8 __attribute__((target("avx512f"))) static inline

/* min_np, max_np and clip_np on 8 lanes */
V8 __m512d min8(__m512d a, __m512d b)
{
    return _mm512_mask_blend_pd(
        (__mmask8)(_mm512_cmp_pd_mask(a, a, _CMP_UNORD_Q)
                   | _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ)), b, a);
}

V8 __m512d max8(__m512d a, __m512d b)
{
    return _mm512_mask_blend_pd(
        (__mmask8)(_mm512_cmp_pd_mask(a, a, _CMP_UNORD_Q)
                   | _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ)), b, a);
}

V8 __m512d clip8(__m512d x, __m512d lo, __m512d hi)
{
    x = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, lo, _CMP_LT_OQ), x, lo);
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, hi, _CMP_GT_OQ), x, hi);
}

/* inside and crossing on 8 rays */
V8 __mmask8 inside8(const double *c, __m512d x, __m512d z)
{
    const __m512d dx = _mm512_sub_pd(x, _mm512_set1_pd(c[INC_CX]));
    const __m512d dz = _mm512_sub_pd(z, _mm512_set1_pd(c[INC_CZ]));
    const __m512d hx = _mm512_set1_pd(c[INC_HX]);
    const __m512d hz = _mm512_set1_pd(c[INC_HZ]);
    if (c[INC_ELLIPSE] != 0.0) {
        const __m512d u = _mm512_div_pd(dx, hx), v = _mm512_div_pd(dz, hz);
        return _mm512_cmp_pd_mask(
            _mm512_add_pd(_mm512_mul_pd(u, u), _mm512_mul_pd(v, v)),
            _mm512_set1_pd(1.0), _CMP_LE_OQ);
    }
    return (__mmask8)(_mm512_cmp_pd_mask(_mm512_abs_pd(dx), hx, _CMP_LE_OQ)
                      & _mm512_cmp_pd_mask(_mm512_abs_pd(dz), hz,
                                           _CMP_LE_OQ));
}

V8 void crossing8(const double *c, __m512d px, __m512d pz, __m512d dx,
                  __m512d dz, double *t_in, double *t_out)
{
    const __m512d inf = _mm512_set1_pd(__builtin_inf());
    const __m512d zero = _mm512_setzero_pd();
    if (c[INC_ELLIPSE] != 0.0) {
        const __m512d hx = _mm512_set1_pd(c[INC_HX]);
        const __m512d hz = _mm512_set1_pd(c[INC_HZ]);
        const __m512d u = _mm512_div_pd(
            _mm512_sub_pd(px, _mm512_set1_pd(c[INC_CX])), hx);
        const __m512d v = _mm512_div_pd(
            _mm512_sub_pd(pz, _mm512_set1_pd(c[INC_CZ])), hz);
        const __m512d du = _mm512_div_pd(dx, hx), dv = _mm512_div_pd(dz, hz);
        __m512d a = _mm512_add_pd(_mm512_mul_pd(du, du), _mm512_mul_pd(dv, dv));
        const __m512d b = _mm512_add_pd(_mm512_mul_pd(u, du),
                                        _mm512_mul_pd(v, dv));
        const __m512d q = _mm512_sub_pd(
            _mm512_add_pd(_mm512_mul_pd(u, u), _mm512_mul_pd(v, v)),
            _mm512_set1_pd(1.0));
        const __m512d root = _mm512_sqrt_pd(max8(
            _mm512_sub_pd(_mm512_mul_pd(b, b), _mm512_mul_pd(a, q)), zero));
        a = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, zero, _CMP_GT_OQ),
                                 inf, a);
        /* -b, its sign bit flipped */
        const __m512d nb = _mm512_castsi512_pd(_mm512_xor_epi64(
            _mm512_castpd_si512(b), _mm512_set1_epi64(INT64_MIN)));
        _mm512_storeu_pd(t_in, _mm512_div_pd(_mm512_sub_pd(nb, root), a));
        _mm512_storeu_pd(t_out, _mm512_div_pd(_mm512_add_pd(nb, root), a));
        return;
    }
    __m512d lo = _mm512_set1_pd(-__builtin_inf()), hi = inf;
    for (int k = 0; k < 2; k++) {
        const __m512d pk = k ? pz : px, dk = k ? dz : dx;
        const __m512d a = _mm512_sub_pd(
            _mm512_set1_pd(c[k ? INC_LO_Z : INC_LO_X]), pk);
        const __m512d b = _mm512_sub_pd(
            _mm512_set1_pd(c[k ? INC_HI_Z : INC_HI_X]), pk);
        /* parallel lanes take t_par and inf, and divide nothing */
        const __mmask8 par = _mm512_cmp_pd_mask(dk, zero, _CMP_EQ_OQ);
        const __m512d t_par = _mm512_mask_blend_pd(
            (__mmask8)(_mm512_cmp_pd_mask(a, zero, _CMP_LE_OQ)
                       & _mm512_cmp_pd_mask(b, zero, _CMP_GE_OQ)),
            inf, _mm512_set1_pd(-__builtin_inf()));
        const __m512d t1 = _mm512_mask_div_pd(t_par, (__mmask8)~par, a, dk);
        const __m512d t2 = _mm512_mask_div_pd(inf, (__mmask8)~par, b, dk);
        lo = max8(lo, min8(t1, t2));
        hi = min8(hi, max8(t1, t2));
    }
    _mm512_storeu_pd(t_in, lo);
    _mm512_storeu_pd(t_out, hi);
}

/* trace_rays, 8 rays a step, with cuts a scratch of 8 (2m + 2)
 * doubles: cut j of the step's rays at cuts[8 j .. 8 j + 8). Every
 * operation is its own intrinsic, so each lane rounds as trace_rays
 * does; the lanes past n load zero-length rays and store nothing.
 */
__attribute__((target("avx512f")))
void trace_rays_avx512(const double *p, const double *d, const double *dist,
                       int64_t n, const double *inc, int64_t m,
                       double background, double *cuts, double *out)
{
    const int64_t inner = 2 * m;
    const __m512d zero = _mm512_setzero_pd(), one = _mm512_set1_pd(1.0);
    double *t = cuts + 8;
    for (int64_t i = 0; i < n; i += 8) {
        const __mmask8 lanes = n - i >= 8
            ? 0xff : (__mmask8)((1u << (n - i)) - 1);
        const __m512d px = _mm512_maskz_loadu_pd(lanes, p + i);
        const __m512d pz = _mm512_maskz_loadu_pd(lanes, p + n + i);
        const __m512d dx = _mm512_maskz_loadu_pd(lanes, d + i);
        const __m512d dz = _mm512_maskz_loadu_pd(lanes, d + n + i);
        _mm512_storeu_pd(cuts, zero);
        _mm512_storeu_pd(t + 8 * inner, one);
        for (int64_t k = 0; k < m; k++)
            crossing8(inc + k * INC_FIELDS, px, pz, dx, dz, t + 16 * k,
                      t + 16 * k + 8);
        for (int64_t j = 0; j < inner; j++)
            _mm512_storeu_pd(t + 8 * j,
                             clip8(_mm512_loadu_pd(t + 8 * j), zero, one));
        for (int64_t r = 0; r < inner; r++)
            for (int64_t j = r % 2; j < inner - 1; j += 2) {
                const __m512d a = _mm512_loadu_pd(t + 8 * j);
                const __m512d b = _mm512_loadu_pd(t + 8 * j + 8);
                _mm512_storeu_pd(t + 8 * j + 8, max8(a, b));
                _mm512_storeu_pd(t + 8 * j, min8(a, b));
            }
        __m512d sum = zero;
        for (int64_t j = 0; j <= inner; j++) {
            const __m512d t0 = _mm512_loadu_pd(cuts + 8 * j);
            const __m512d t1 = _mm512_loadu_pd(cuts + 8 * j + 8);
            const __m512d mid = _mm512_mul_pd(_mm512_set1_pd(0.5),
                                              _mm512_add_pd(t1, t0));
            const __m512d x = _mm512_add_pd(px, _mm512_mul_pd(dx, mid));
            const __m512d z = _mm512_add_pd(pz, _mm512_mul_pd(dz, mid));
            __m512d c = _mm512_set1_pd(background);
            for (int64_t k = 0; k < m; k++)
                c = _mm512_mask_blend_pd(
                    inside8(inc + k * INC_FIELDS, x, z), c,
                    _mm512_set1_pd(inc[k * INC_FIELDS + INC_SOS]));
            const __m512d piece = _mm512_div_pd(_mm512_sub_pd(t1, t0), c);
            sum = j ? _mm512_add_pd(sum, piece) : piece;
        }
        _mm512_mask_storeu_pd(out + i, lanes, _mm512_mul_pd(
            sum, _mm512_maskz_loadu_pd(lanes, dist + i)));
    }
}
#undef V8
#endif

/* The receive directivity of soscorr.synthsim.simulate_frame for n_rx
 * receivers at x = ex[0 .. n_rx) over n scatterers at x = sx, but for
 * the sine, which np.sin takes: the arithmetic of
 * synthsim._element_directivity and np.sinc. With r the receivers' rows
 * of distances, sin_t = |sx[i] - ex[j]| / max(r[j n + i], 1e-9) and
 * cos_t[j n + i] = sqrt(max(1 - sin_t^2, 0)); y[j n + i] is np.sinc's
 * argument of np.sin, pi (width sin_t / wavelength), or eps where that
 * is 0. synth_rx takes np.sin(y) / y times cos_t as the directivity.
 */
void rx_sinc(const double *sx, const double *ex, const double *r,
             int64_t n_rx, int64_t n, double width, double wavelength,
             double pi, double eps, double *y, double *cos_t)
{
    for (int64_t j = 0; j < n_rx; j++)
        for (int64_t i = 0; i < n; i++) {
            const int64_t o = j * n + i;
            const double sin_t = __builtin_fabs(sx[i] - ex[j])
                                 / max_np(r[o], 1e-9);
            cos_t[o] = sqrt_np(max_np(1.0 - sin_t * sin_t, 0.0));
            const double x = pi * (width * sin_t / wavelength);
            y[o] = x != 0.0 ? x : eps;
        }
}

/* One receive channel of soscorr.synthsim.simulate_frame, added into
 * the caller's zeroed float64 record rec, padded on both sides.
 *
 * For each of the n scatterers i, in order: the spreading
 * 1 / max(r_tx[i] r_rx[i], r_min2) d_tx[i] d_rx, with the receive
 * directivity d_rx = sin_y[i] / y[i] cos_t[i] (see rx_sinc), the weight
 * amp[i] times it, the echo time k = (t_tx[i] + t_rx[i]) fs and its
 * rounding k0 = rint(k). The pulse is read at the fraction
 * pos = (k0 - k + 0.5) steps of the table T, steps + 1 rows of width
 * samples: row = min((int)pos, steps - 1), w = pos - row, and
 * (0.0 + a T[row][j]) + b T[row + 1][j], with a = weight (1 - w) and
 * b = weight w, is added into rec[k0 + j] for j in [0, width). That is
 * the NumPy prelude's arithmetic, then SciPy's csr_matvecs, whose
 * output rows start at 0, and csc_matvec, which adds each scatterer's
 * column times 1.0 in scatterer order. width is the padding on both
 * sides plus one, so a k0 in [0, num_samples) keeps every read and
 * write inside T and rec. Returns 0, or 1 at the first scatterer whose
 * k0 is outside that range or NaN, leaving rec part-written. On x86-64
 * it is built twice, for the baseline and for AVX-512F, and the loader
 * picks one for the host; the pulse sum's lanes are independent
 * samples, so the two add the same bytes.
 */
#if defined(__x86_64__)
__attribute__((target_clones("avx512f", "default")))
#endif
int synth_rx(const double *table, int64_t width, int64_t steps,
             const double *amp, const double *r_tx, const double *d_tx,
             const double *t_tx, const double *t_rx, const double *r_rx,
             const double *sin_y, const double *y, const double *cos_t,
             int64_t n, double fs, double r_min2,
             int64_t num_samples, double *rec)
{
    for (int64_t i = 0; i < n; i++) {
        const double d_rx = sin_y[i] / y[i] * cos_t[i];
        const double spreading =
            1.0 / max_np(r_tx[i] * r_rx[i], r_min2) * d_tx[i] * d_rx;
        const double k = (t_tx[i] + t_rx[i]) * fs;
        const double k0 = rint_np(k);
        if (!(k0 >= 0.0 && k0 < (double)num_samples))
            return 1;
        const double pos = (k0 - k + 0.5) * (double)steps;
        int32_t row = (int32_t)pos;
        if (row > steps - 1)
            row = (int32_t)(steps - 1);
        const double w = pos - row;
        const double weight = amp[i] * spreading;
        const double a = weight * (1.0 - w), b = weight * w;
        const double *lo = table + (int64_t)row * width;
        const double *hi = lo + width;
        double *out = rec + (int64_t)k0;
        for (int64_t j = 0; j < width; j++)
            out[j] += (0.0 + a * lo[j]) + b * hi[j];
    }
    return 0;
}
