"""OFDM baseband synthesis for a batch of symbols.

Each row is ``s(t) = sum_l c_l exp(j 2 pi l df t)`` over one rectangular
symbol window ``[0, T_p)`` with ``T_p = 1/df``.  Sampling at ``N = os * L``
points makes the sum an oversampled inverse DFT, which is how it is computed.
Symbols carry unit average power, so the mean sample power is the subcarrier
count L; ambiguity surfaces are peak-normalized downstream, which only needs
this scaling to be internally consistent.  No cyclic prefix and no pulse
shaping beyond the rectangular window.  :func:`check_db` bounds the power
ratios, in dB, that the experiments take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OfdmConfig:
    """Subcarrier layout: count L, spacing df (Hz), oversampling factor.

    Defaults correspond to 64 subcarriers in 100 MHz of bandwidth.  The
    symbol duration is derived as ``1/df`` so the rect-window orthogonality
    relation ``T_p * df = 1`` holds exactly.
    """

    num_subcarriers: int = 64
    subcarrier_spacing: float = 100e6 / 64
    oversampling: int = 4

    def __post_init__(self):
        if int(self.num_subcarriers) != self.num_subcarriers or self.num_subcarriers < 1:
            raise ValueError(f"num_subcarriers must be a positive integer, got {self.num_subcarriers}")
        if not (self.subcarrier_spacing > 0):
            raise ValueError(f"subcarrier_spacing must be positive, got {self.subcarrier_spacing}")
        if not (0 < 1.0 / float(self.subcarrier_spacing) < np.inf):
            raise ValueError(
                f"subcarrier_spacing {self.subcarrier_spacing} (bandwidth {self.bandwidth}) must give a "
                f"finite, non-zero symbol duration 1/subcarrier_spacing"
            )
        if int(self.oversampling) != self.oversampling or self.oversampling < 1:
            raise ValueError(f"oversampling must be a positive integer, got {self.oversampling}")

    @property
    def symbol_duration(self) -> float:
        return 1.0 / self.subcarrier_spacing

    @property
    def bandwidth(self) -> float:
        return self.num_subcarriers * self.subcarrier_spacing

    @property
    def num_samples(self) -> int:
        return int(self.oversampling) * int(self.num_subcarriers)


def symbol_signal_batch(cfg: OfdmConfig, symbols: np.ndarray) -> np.ndarray:
    """Samples ``s[i, n] = sum_l symbols[i, l] exp(j 2 pi l n / N)``, shape
    (trials, N): a zero-padded inverse DFT scaled by N in place, which equals
    the sum exactly; bit-reproducible for fixed inputs."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 2 or symbols.shape[1] != cfg.num_subcarriers:
        raise ValueError(f"expected (trials, {cfg.num_subcarriers}) symbols, got {symbols.shape}")
    samples = np.fft.ifft(symbols, n=cfg.num_samples, axis=1)
    samples *= cfg.num_samples
    return samples


def check_db(values, name: str) -> None:
    """Refuse dB values of ``name`` that are not finite or whose amplitude
    ratio ``10^(|x|/20)`` exceeds 1/eps (+-313.07 dB): the weaker signal is
    then lost below one ulp of the stronger in double precision, so an
    experiment would report rounding (or, further out, overflow) as its
    result."""
    limit = -20.0 * np.log10(np.finfo(float).eps)
    values = np.atleast_1d(np.asarray(values, dtype=float))
    outside = values[~(np.abs(values) <= limit)]
    if outside.size:
        raise ValueError(f"{name} entries must lie within +-{limit:.6g} dB, got {outside.tolist()}")
