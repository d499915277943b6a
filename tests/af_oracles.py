"""Independent oracles for the closed-form ambiguity function.

Neither goes through ``ofdm_pcs.ambiguity``'s FFT path; both take only the
overlap window from :class:`DelayGeometry`:

* :func:`af_double_sum` is the brute-force double sum over subcarrier pairs,
  one L x L kernel per point;
* :func:`af_quadrature` integrates the defining correlation integral of the
  sampled waveform with composite Gauss-Legendre panels.
"""

import math

import numpy as np

from ofdm_pcs.ambiguity import DelayGeometry

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_CYCLES_PER_PANEL = 2.0


def af_double_sum(cfg, symbols, tau, nu):
    """``sum_{l1,l2} c_l1 conj(c_l2) T_diff sinc(f T_diff) exp(j 2 pi (f t_avg
    + l2 df tau))`` with ``f = (l1 - l2) df - nu``, over leading batch axes."""
    geom = DelayGeometry.for_delay(tau, cfg.symbol_duration)
    t_diff = max(geom.t_diff, 0.0)  # no overlap: a zero kernel
    df = cfg.subcarrier_spacing
    l = np.arange(cfg.num_subcarriers)
    f = (l[:, None] - l[None, :]) * df - nu
    kernel = (
        t_diff
        * np.sinc(f * t_diff)
        * np.exp(2j * np.pi * (f * geom.t_avg + l[None, :] * df * tau))
    )
    symbols = np.asarray(symbols, dtype=np.complex128)
    out = np.einsum("...i,ij,...j->...", symbols, kernel, symbols.conj())
    return complex(out) if np.ndim(out) == 0 else out


def af_quadrature(cfg, samples, tau, nu):
    """Numerical evaluation of the defining correlation integral.

    Reconstructs the continuous signal from its ``cfg.num_samples`` samples
    (exact: the symbol is a finite Fourier series with L harmonics, and
    N >= L samples determine the coefficients via the DFT), then integrates
    ``s(t) s*(t - tau) exp(-j 2 pi nu t)`` over the overlap window with
    16-node Gauss-Legendre panels sized to the integrand's bandwidth.  Any
    ``tau`` is accepted, not only sample multiples.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    df = cfg.subcarrier_spacing
    num = cfg.num_subcarriers
    geom = DelayGeometry.for_delay(tau, cfg.symbol_duration)
    if not geom.overlaps:
        return complex(0.0)
    coeffs = np.fft.fft(samples)[:num] / samples.size
    f_max = (num - 1) * df + abs(nu)
    panels = max(1, math.ceil(f_max * geom.t_diff / _CYCLES_PER_PANEL))
    edges = np.linspace(geom.t_min, geom.t_max, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    wt = (half[:, None] * _WEIGHTS[None, :]).ravel()
    l = np.arange(num)
    s_t = np.exp(2j * np.pi * df * np.outer(t, l)) @ coeffs
    s_lag = np.exp(2j * np.pi * df * np.outer(t - tau, l)) @ coeffs
    return complex(np.sum(wt * s_t * s_lag.conj() * np.exp(-2j * np.pi * nu * t)))
