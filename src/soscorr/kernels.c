/* The compiled passes of soscorr, loaded by soscorr.kernels.
 *
 * Built with -ffp-contract=off: every product and sum rounds on its
 * own, and no fused multiply-add changes a bit. No libm function is
 * called, so the bytes never rest on a libm matching NumPy's loops.
 */
#include <stdint.h>

/* One receiver's pass of soscorr.beamform.das_beamform.
 *
 * Adds gain * interp(ch, s) to every pixel of the (nx, nz) image rf, at
 * the sample time s = table[inv[x], z] + s_tx[x, z]. A sample time
 * outside [0, ns - 1) adds nothing. Inside it, the truncation (int)s is
 * floor(s), so each pixel reads diff[i0] * (s - i0) + ch[i0], with
 * diff[i] = ch[i + 1] - ch[i], as the NumPy loop does.
 */
void das_rx(const double *table, const int64_t *inv, const double *s_tx,
            const double *ch, const double *diff, int64_t ns, int64_t nx,
            int64_t nz, double gain, double *rf)
{
    const double last = (double)(ns - 1);
    for (int64_t x = 0; x < nx; x++) {
        const double *row = table + inv[x] * nz;
        const double *tx = s_tx + x * nz;
        double *out = rf + x * nz;
        for (int64_t z = 0; z < nz; z++) {
            const double s = row[z] + tx[z];
            if (s >= 0.0 && s < last) {
                const int i0 = (int)s;
                out[z] += (diff[i0] * (s - i0) + ch[i0]) * gain;
            }
        }
    }
}

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
