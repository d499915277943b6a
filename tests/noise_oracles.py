"""Independent model of the detection experiment's noise-only profiles.

The matched filter passes only the L subcarrier bins of the N = os * L
sampled spectrum, so its noise output is white noise band-limited to those
bins.  :func:`band_limited_noise_profiles` draws that noise directly: complex
white noise of N samples, keep L FFT bins, inverse-transform, take |.|^2 over
the first N / 2 cells (the instrumented range).  It imports nothing from
``ofdm_pcs``.

Left out: the matched filter's noise power falls as (N - k) / N across lags
k, reaching one half at the end of the instrumented range, so the model fits
the experiment best away from that end.
"""

import numpy as np


def band_limited_noise_profiles(rng, count, subcarriers=64, oversampling=4):
    """(count, N / 2) cell powers of complex white noise kept to the first
    ``subcarriers`` of its N = ``oversampling * subcarriers`` FFT bins."""
    n = oversampling * subcarriers
    noise = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    spectrum = np.fft.fft(noise, axis=1)
    spectrum[:, subcarriers:] = 0.0
    return np.abs(np.fft.ifft(spectrum, axis=1)[:, : n // 2]) ** 2
