/* One receiver's pass of soscorr.beamform.das_beamform.
 *
 * Adds gain * interp(ch, s) to every pixel of the (nx, nz) image rf, at
 * the sample time s = table[inv[x], z] + s_tx[x, z]. A sample time
 * outside [0, ns - 1) adds nothing. Inside it, the truncation (int)s is
 * floor(s), so each pixel reads diff[i0] * (s - i0) + ch[i0], with
 * diff[i] = ch[i + 1] - ch[i], as the NumPy loop does. Built with
 * -ffp-contract=off: every product and sum rounds on its own, and no
 * fused multiply-add changes a bit.
 */
#include <stdint.h>

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
