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
 * the arithmetic of simulate_frame's NumPy loop, whose bincount adds
 * each scatterer's two weighted rows into the record in scatterer
 * order; the 0.0 + changes no bit there, as a record sample, which
 * starts at 0.0, never holds -0.0. width is the padding on both
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

/* A CSR matrix in SELL-8 (Kreutzer et al., SIAM J. Sci. Comput. 2014),
 * its rows sorted by length, longest first, and cut into slices of 8.
 * Lane l of slice s holds row row[8 s + l], len[8 s + l] terms long;
 * its term k sits at col and val[start[s] + 8 k + l], in the row's CSR
 * order, and the slice is as wide as its first, longest row. A lane
 * past n_rows, and a term past its row's length, holds column 0 and
 * value 0.0, and is masked out.
 */
typedef struct {
    int64_t n_rows, n_slices;
    const int64_t *start, *len;
    const int32_t *row, *col;
    const double *val;
} sell8;

/* Fill a sell8's len, row, col and val from the CSR arrays indptr,
 * indices and data of n_rows rows, with order the rows sorted by
 * length, longest first, and start its slices' offsets. */
void sell8_pack(const int64_t *indptr, const int64_t *indices,
                const double *data, const int64_t *order, int64_t n_rows,
                const int64_t *start, int64_t *len, int32_t *row,
                int32_t *col, double *val)
{
    for (int64_t s = 0; s < (n_rows + 7) / 8; s++) {
        int64_t lo[8];
        for (int64_t l = 0; l < 8; l++) {
            const int64_t i = 8 * s + l, r = i < n_rows ? order[i] : -1;
            lo[l] = r < 0 ? 0 : indptr[r];
            len[i] = r < 0 ? 0 : indptr[r + 1] - lo[l];
            row[i] = r < 0 ? 0 : (int32_t)r;
        }
        /* term by term, so the slice is written in order */
        for (int64_t o = start[s], k = 0; o < start[s + 1]; o += 8, k++)
            for (int64_t l = 0; l < 8; l++) {
                const int on = k < len[8 * s + l];
                col[o + l] = on ? (int32_t)indices[lo[l] + k] : 0;
                val[o + l] = on ? data[lo[l] + k] : 0.0;
            }
    }
}

#if defined(__x86_64__)
#define V8 __attribute__((target("avx512f"), always_inline)) static inline

/* y = m x for the g <= 4 slices from s, which run side by side: each
 * lane sums its row's products in order from 0.0, a mul and a masked
 * add per term, the arithmetic of SciPy's csr_matvec, and the sums are
 * scattered to their rows of y. */
V8 void sell8_slices(const sell8 *m, int64_t s, int g, const double *x,
                     double *y)
{
    __m512d acc[4];
    __m512i len[4];
    int64_t width[4];
    for (int j = 0; j < g; j++) {
        acc[j] = _mm512_setzero_pd();
        len[j] = _mm512_loadu_si512(m->len + 8 * (s + j));
        width[j] = (m->start[s + j + 1] - m->start[s + j]) / 8;
    }
    for (int64_t k = 0; k < width[0]; k++) {
        const __m512i kk = _mm512_set1_epi64(k);
        for (int j = 0; j < g; j++) {
            if (k >= width[j])
                continue;
            const int64_t o = m->start[s + j] + 8 * k;
            const __mmask8 on = _mm512_cmpgt_epi64_mask(len[j], kk);
            const __m512d xk = _mm512_mask_i32gather_pd(
                _mm512_setzero_pd(), on,
                _mm256_loadu_si256((const __m256i *)(m->col + o)), x, 8);
            acc[j] = _mm512_mask_add_pd(
                acc[j], on, acc[j],
                _mm512_mul_pd(_mm512_loadu_pd(m->val + o), xk));
        }
    }
    for (int j = 0; j < g; j++) {
        const int64_t left = m->n_rows - 8 * (s + j);
        _mm512_mask_i32scatter_pd(
            y, left >= 8 ? 0xff : (__mmask8)((1u << left) - 1),
            _mm256_loadu_si256((const __m256i *)(m->row + 8 * (s + j))),
            acc[j], 8);
    }
}

V8 void sell8_matvec(const sell8 *m, const double *x, double *y)
{
    int64_t s = 0;
    for (; s + 4 <= m->n_slices; s += 4)
        sell8_slices(m, s, 4, x, y);
    for (; s < m->n_slices; s++)
        sell8_slices(m, s, 1, x, y);
}

/* For the n values y, less b[i] where b is not NULL: r = y - b and
 * root = sqrt(r r + e2), u = root - eps and, in place of y, r / root:
 * the NumPy arithmetic of the Charbonnier term and its derivative. */
V8 void charbonnier(double *y, const double *b, int64_t n, double eps,
                    double e2, double *u)
{
    const __m512d ve = _mm512_set1_pd(eps), ve2 = _mm512_set1_pd(e2);
    for (int64_t i = 0; i < n; i += 8) {
        const __mmask8 m = n - i >= 8
            ? 0xff : (__mmask8)((1u << (n - i)) - 1);
        __m512d r = _mm512_maskz_loadu_pd(m, y + i);
        if (b)
            r = _mm512_sub_pd(r, _mm512_maskz_loadu_pd(m, b + i));
        const __m512d root = _mm512_sqrt_pd(
            _mm512_add_pd(_mm512_mul_pd(r, r), ve2));
        _mm512_mask_storeu_pd(u + i, m, _mm512_sub_pd(root, ve));
        _mm512_mask_storeu_pd(y + i, m, _mm512_div_pd(r, root));
    }
}
#undef V8

/* The objective of soscorr.tomo.make_objective at x and its gradient,
 * with e2 = eps * eps: r = A x - b and g = D x; ua = sqrt(r r + e2) -
 * eps and ud likewise of g, which the caller sums as NumPy does; and
 * grad = At (r / sqrt(r r + e2)) + lam (Dt (g / sqrt(g g + e2))), where
 * At and Dt are SciPy's own transposes of A and D. work holds
 * A.n_rows + D.n_rows + At.n_rows doubles. Every product and sum is
 * its own intrinsic, so the bytes are those of the SciPy objective.
 */
__attribute__((target("avx512f")))
void solve_avx512(const sell8 *a, const sell8 *at, const sell8 *d,
                  const sell8 *dt, const double *x, const double *b,
                  double eps, double e2, double lam, double *ua, double *ud,
                  double *grad, double *work)
{
    double *qa = work, *qd = work + a->n_rows, *gd = qd + d->n_rows;
    sell8_matvec(a, x, qa);
    charbonnier(qa, b, a->n_rows, eps, e2, ua);
    sell8_matvec(d, x, qd);
    charbonnier(qd, 0, d->n_rows, eps, e2, ud);
    sell8_matvec(at, qa, grad);
    sell8_matvec(dt, qd, gd);
    const __m512d vl = _mm512_set1_pd(lam);
    const int64_t n = at->n_rows;
    for (int64_t i = 0; i < n; i += 8) {
        const __mmask8 m = n - i >= 8
            ? 0xff : (__mmask8)((1u << (n - i)) - 1);
        _mm512_mask_storeu_pd(grad + i, m, _mm512_add_pd(
            _mm512_maskz_loadu_pd(m, grad + i),
            _mm512_mul_pd(vl, _mm512_maskz_loadu_pd(m, gd + i))));
    }
}
#endif

/* The running sums of _pool_columns over a row q of nx columns, into
 * the n_xs columns of out: q itself at xs[i] = i xstep where h is 0,
 * else c[hi] - c[lo] of c, the row's cumulative sum after a leading 0
 * (c holds nx + 1 doubles, c[0] zero), with hi = min(x + h, nx - 1) + 1
 * and lo = max(x - h, 0). */
static void pool_row(const double *q, int64_t nx, int64_t xstep,
                     int64_t n_xs, int64_t h, double *c, double *out)
{
    if (h == 0) {
        for (int64_t i = 0; i < n_xs; i++)
            out[i] = q[i * xstep];
        return;
    }
    for (int64_t x = 0; x < nx; x++)
        c[x + 1] = x ? c[x] + q[x] : q[0];
    for (int64_t i = 0; i < n_xs; i++) {
        const int64_t x = i * xstep;
        const int64_t hi = (x + h < nx - 1 ? x + h : nx - 1) + 1;
        out[i] = c[hi] - c[x - h > 0 ? x - h : 0];
    }
}

/* A frame's columns less their means, into a, and the sums and the
 * energies, clamped at 0, of its windows of w rows by start, into sums
 * and energy: _window_stats' running sums c1 of a and c2 of a a down
 * each column, in c1 and c2, nz + 1 rows each, row 0 zero. Each mean
 * is its column summed in order from 0.0, as NumPy sums a frame of
 * more than one column, over nz; c1's row 1 holds the means until the
 * running sums overwrite it. */
static void window_stats(const double *rf, int64_t nz, int64_t nx,
                         int64_t w, double *a, double *c1, double *c2,
                         double *sums, double *energy)
{
    double *mean = c1 + nx;
    for (int64_t x = 0; x < nx; x++)
        mean[x] = 0.0 + rf[x];
    for (int64_t z = 1; z < nz; z++)
        for (int64_t x = 0; x < nx; x++)
            mean[x] += rf[z * nx + x];
    for (int64_t x = 0; x < nx; x++)
        mean[x] /= (double)nz;
    for (int64_t z = 0; z < nz; z++)
        for (int64_t x = 0; x < nx; x++)
            a[z * nx + x] = rf[z * nx + x] - mean[x];
    for (int64_t z = 0; z < nz; z++)
        for (int64_t x = 0; x < nx; x++) {
            const double v = a[z * nx + x];
            const int64_t o = (z + 1) * nx + x;
            c1[o] = z ? c1[o - nx] + v : v;
            c2[o] = z ? c2[o - nx] + v * v : v * v;
        }
    for (int64_t z = 0; z + w <= nz; z++)
        for (int64_t x = 0; x < nx; x++) {
            const int64_t o = z * nx + x, e = (z + w) * nx + x;
            const double s = c1[e] - c1[o];
            sums[o] = s;
            energy[o] = max_np((c2[e] - c2[o]) - s * s / (double)w, 0.0);
        }
}

/* The numeric body of soscorr.delaytrack.track_delays, with its
 * arithmetic and its order: frames rf_a and rf_b of nz by nx > 1
 * doubles; windows of w rows at the nodes zs[n] = r + n step, searched
 * over the lags -r .. r; the columns xs[i] = i xstep, pooled over
 * h on either side. Each lag's dots come from a running sum over
 * blocks of gcd(w, step) rows of a[z] b[z + lag], each block summed in
 * order from 0.0, less (sum_a / w) sum_b; then pooled, and divided by
 * sqrt(pooled energy of a) sqrt(pooled energy of b) where that is
 * above 0, else 0.0. The first maximum over the lags, a NaN first,
 * gives peak and the lag, refined by _parabolic_offset where the lag
 * is interior; a node is valid where peak >= min_ncc, its pooled
 * energy of a is above 0 and the lag interior, and its delay is
 * -(lag + frac) scale there, else 0.0. Writes n_nodes by n_xs delays,
 * peak and valid, and returns the doubles of work it uses; with work
 * NULL it computes nothing else. work must be zeroed.
 */
int64_t ncc_track(const double *rf_a, const double *rf_b, int64_t nz,
                  int64_t nx, int64_t w, int64_t r, int64_t step,
                  int64_t xstep, int64_t h, double min_ncc, double scale,
                  double *work, double *delays, double *peak,
                  uint8_t *valid)
{
    const int64_t n_nodes = (nz - w - r - r) / step + 1;
    const int64_t n_lags = 2 * r + 1, n_xs = (nx - 1) / xstep + 1;
    const int64_t n_win = nz - w + 1;
    int64_t g = w, t = step;
    while (t) {
        const int64_t u = g % t;
        g = t;
        t = u;
    }
    const int64_t n_blocks = ((n_nodes - 1) * step + w) / g;
    const int64_t n_frame = nz * nx, n_cum = (nz + 1) * nx;
    const int64_t need = 2 * n_frame + 2 * n_cum + 4 * n_win * nx
                         + (n_blocks + 1) * nx + 2 * nx + 1 + n_xs
                         + (n_nodes + n_win) * n_xs
                         + n_nodes * n_lags * n_xs;
    if (!work)
        return need;
    double *a = work, *b = a + n_frame, *c1 = b + n_frame,
           *c2 = c1 + n_cum, *sa = c2 + n_cum, *ea = sa + n_win * nx,
           *sb = ea + n_win * nx, *eb = sb + n_win * nx,
           *run = eb + n_win * nx, *dots = run + (n_blocks + 1) * nx,
           *cum = dots + nx, *pd = cum + nx + 1, *ra = pd + n_xs,
           *rb = ra + n_nodes * n_xs, *ncc = rb + n_win * n_xs;
    window_stats(rf_a, nz, nx, w, a, c1, c2, sa, ea);
    window_stats(rf_b, nz, nx, w, b, c1, c2, sb, eb);
    /* the roots of the pooled energies: of a at each node, of b at each
     * window start, which many nodes and lags share; a root is above 0
     * where its energy is */
    for (int64_t n = 0; n < n_nodes; n++)
        pool_row(ea + (r + n * step) * nx, nx, xstep, n_xs, h, cum,
                 ra + n * n_xs);
    for (int64_t z = 0; z < n_win; z++)
        pool_row(eb + z * nx, nx, xstep, n_xs, h, cum, rb + z * n_xs);
    for (int64_t i = 0; i < (n_nodes + n_win) * n_xs; i++)
        ra[i] = sqrt_np(ra[i]);
    for (int64_t k = 0; k < n_lags; k++) {
        const int64_t lag = k - r;
        for (int64_t j = 0; j < n_blocks; j++) {
            double *blk = run + (j + 1) * nx;
            for (int64_t i = 0; i < g; i++) {
                const double *pa = a + (r + j * g + i) * nx;
                const double *pb = b + (r + lag + j * g + i) * nx;
                for (int64_t x = 0; x < nx; x++)
                    blk[x] = (i ? blk[x] : 0.0) + pa[x] * pb[x];
            }
            if (j)
                for (int64_t x = 0; x < nx; x++)
                    blk[x] = blk[x - nx] + blk[x];
        }
        for (int64_t n = 0; n < n_nodes; n++) {
            const int64_t z = r + n * step, lo = n * step / g;
            const double *hi_row = run + (lo + w / g) * nx,
                         *lo_row = run + lo * nx, *s_a = sa + z * nx,
                         *s_b = sb + (z + lag) * nx;
            for (int64_t x = 0; x < nx; x++)
                dots[x] = (hi_row[x] - lo_row[x])
                          - s_a[x] / (double)w * s_b[x];
            pool_row(dots, nx, xstep, n_xs, h, cum, pd);
            const double *root_a = ra + n * n_xs,
                         *root_b = rb + (z + lag) * n_xs;
            double *out = ncc + (n * n_lags + k) * n_xs;
            for (int64_t i = 0; i < n_xs; i++) {
                const double denom = root_a[i] * root_b[i];
                out[i] = denom > 0.0 ? pd[i] / denom : 0.0;
            }
        }
    }
    for (int64_t n = 0; n < n_nodes; n++)
        for (int64_t i = 0; i < n_xs; i++) {
            const double *v = ncc + n * n_lags * n_xs + i;
            int64_t am = 0;
            double best = v[0];
            for (int64_t k = 1; k < n_lags && best == best; k++)
                if (!(v[k * n_xs] <= best)) {
                    best = v[k * n_xs];
                    am = k;
                }
            const int inner = am > 0 && am < n_lags - 1;
            double frac = 0.0;
            if (inner) {
                const double cm1 = v[(am - 1) * n_xs];
                const double cp1 = v[(am + 1) * n_xs];
                const double den = cm1 - 2.0 * best + cp1;
                const double off = 0.5 * (cm1 - cp1) / den;
                frac = clip_np(__builtin_fabs(den) > 0.0 ? off : 0.0,
                               -1.0, 1.0);
            }
            const int64_t o = n * n_xs + i;
            const int ok = best >= min_ncc && ra[o] > 0.0 && inner;
            peak[o] = best;
            valid[o] = (uint8_t)ok;
            delays[o] = ok ? -((double)(am - r) + frac) * scale : 0.0;
        }
    return need;
}
