/* The compiled passes of soscorr, loaded by soscorr.kernels.
 *
 * Built with -ffp-contract=off: every product and sum rounds on its
 * own, and no fused multiply-add changes a bit. No libm function is
 * called, so the bytes never rest on a libm matching NumPy's loops.
 */
#include <stdint.h>

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
 * step where das_avx512() says the host has AVX-512F.
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

/* 1 where the host runs AVX-512F and das_rx_avx512 is built, else 0.
 * Off x86-64 the vector pass is left out, so the library builds there. */
#if defined(__x86_64__)
#include <immintrin.h>

int das_avx512(void)
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
int das_avx512(void)
{
    return 0;
}
#endif

/* One receiver's pulse sum of soscorr.synthsim.simulate_frame.
 *
 * For each of the n scatterers i, in order, adds
 * (0.0 + w[2i] * T[row[i]][j]) + w[2i + 1] * T[row[i] + 1][j] into
 * rec[k0[i] + j] for j in [0, width), T being the pulse table of rows
 * of width samples. That is the arithmetic of SciPy's csr_matvecs,
 * whose output rows start at 0, followed by csc_matvec, which adds
 * each scatterer's column times 1.0 in scatterer order. The caller
 * checks that row[i] + 1 is a row of T and that k0[i] is a whole
 * number with k0[i] + width inside rec.
 */
void synth_rx(const double *table, int64_t width, const int32_t *row,
              const double *w, const double *k0, int64_t n, double *rec)
{
    for (int64_t i = 0; i < n; i++) {
        const double *lo = table + (int64_t)row[i] * width;
        const double *hi = lo + width;
        const double a = w[2 * i], b = w[2 * i + 1];
        double *out = rec + (int64_t)k0[i];
        for (int64_t j = 0; j < width; j++)
            out[j] += (0.0 + a * lo[j]) + b * hi[j];
    }
}
