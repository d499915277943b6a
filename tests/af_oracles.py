"""Independent oracles for the closed-form ambiguity function.

None of the three imports anything from ``ofdm_pcs.ambiguity``; each works
out the overlap window itself (:func:`overlap_window`):

* :func:`af_double_sum` is the brute-force double sum over subcarrier pairs,
  one L x L kernel per point;
* :func:`af_self_part` is the self part of that sum, its equal-index terms
  (the kernel's diagonal);
* :func:`af_quadrature` integrates the defining correlation integral of the
  sampled waveform with composite Gauss-Legendre panels.
"""

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_CYCLES_PER_PANEL = 2.0


def overlap_window(cfg, tau):
    """``(t_min, t_max)``: where the symbol and its copy delayed by ``tau``
    overlap, ``[max(0, tau), min(T_p, T_p + tau)]``; empty unless |tau| < T_p."""
    return max(0.0, tau), min(cfg.symbol_duration, cfg.symbol_duration + tau)


def _pair_kernel(cfg, tau, nu):
    """The L x L kernel of :func:`af_double_sum`, row l1 and column l2."""
    t_min, t_max = overlap_window(cfg, tau)
    t_diff, t_avg = max(t_max - t_min, 0.0), 0.5 * (t_max + t_min)  # no overlap: a zero kernel
    df = cfg.subcarrier_spacing
    l = np.arange(cfg.num_subcarriers)
    f = (l[:, None] - l[None, :]) * df - nu
    return (
        t_diff
        * np.sinc(f * t_diff)
        * np.exp(2j * np.pi * (f * t_avg + l[None, :] * df * tau))
    )


def af_double_sum(cfg, symbols, tau, nu):
    """``sum_{l1,l2} c_l1 conj(c_l2) T_diff sinc(f T_diff) exp(j 2 pi (f t_avg
    + l2 df tau))`` with ``f = (l1 - l2) df - nu``, over leading batch axes."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    out = np.einsum("...i,ij,...j->...", symbols, _pair_kernel(cfg, tau, nu), symbols.conj())
    return complex(out) if np.ndim(out) == 0 else out


def af_self_part(cfg, symbols, tau, nu):
    """The self part: the l1 = l2 terms of :func:`af_double_sum`, ``sum_l
    |c_l|^2 T_diff sinc(nu T_diff) exp(j 2 pi (l df tau - nu t_avg))``, over
    leading batch axes."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    out = np.abs(symbols) ** 2 @ np.diagonal(_pair_kernel(cfg, tau, nu))
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
    t_min, t_max = overlap_window(cfg, tau)
    if t_max <= t_min:
        return complex(0.0)
    coeffs = np.fft.fft(samples)[:num] / samples.size
    f_max = (num - 1) * df + abs(nu)
    panels = max(1, math.ceil(f_max * (t_max - t_min) / _CYCLES_PER_PANEL))
    edges = np.linspace(t_min, t_max, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    wt = (half[:, None] * _WEIGHTS[None, :]).ravel()
    l = np.arange(num)
    s_t = np.exp(2j * np.pi * df * np.outer(t, l)) @ coeffs
    s_lag = np.exp(2j * np.pi * df * np.outer(t - tau, l)) @ coeffs
    return complex(np.sum(wt * s_t * s_lag.conj() * np.exp(-2j * np.pi * nu * t)))
