"""Reference kernel: a fixed measure of how fast the machine runs right now.

On a shared machine, identical work runs up to about 1.7x slower or faster
for stretches of seconds to minutes, depending on what the neighbours do.
The benchmark runs a sample of CHUNKS chunks of this kernel before and
after every segment of work and set-up, and scales that segment's times by

    speed = REF_S / (median chunk time of the two samples)

so that its timing metrics read as seconds on a machine that runs one chunk
in REF_S.  The kernel does what trinls spends its time on: FFT pairs,
elementwise powers and exponentials and a 3 x 3 coupling product on
(3, n) complex arrays at n = 1024 and n = 4096.  It calls no trinls code,
so a change to the library moves the scaled metrics and leaves the kernel
alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.fft import fft, ifft

# Median chunk time on a 2-vCPU shared VM (Python 3.11, numpy 2.4, scipy
# 1.17) in a quiet stretch.  A constant: changing it rescales every timing
# metric.
REF_S = 0.022
CHUNKS = 6                  # chunks in one sample

_SIZES = ((1024, 60), (4096, 15))       # (n, split steps per chunk)
_DT = 1e-3


def _inputs(n):
    rng = np.random.default_rng(n)
    u = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    k = np.linspace(0.0, 100.0, n)
    return u / np.sqrt(n), np.exp(-0.5j * _DT * k ** 2)


_INPUTS = [(_inputs(n), steps) for n, steps in _SIZES]
_A = np.array([[1.0, 0.7, 0.5], [0.7, 1.3, 0.9], [0.5, 0.9, 0.8]])


def _split_steps(u, kinetic, steps):
    for _ in range(steps):
        u = ifft(kinetic * fft(u, axis=-1), axis=-1)
        rate = _A @ (u.real ** 2 + u.imag ** 2) ** 1.25
        u = u * np.exp(-1j * _DT * rate)
        u = ifft(kinetic * fft(u, axis=-1), axis=-1)
    return u


def chunk_s():
    """Seconds one chunk of the reference kernel takes now."""
    t0 = time.perf_counter()
    for (u, kinetic), steps in _INPUTS:
        _split_steps(u, kinetic, steps)
    return time.perf_counter() - t0


def sample(chunks):
    """Append one sample, CHUNKS chunk times, to the list `chunks`."""
    chunks.extend(chunk_s() for _ in range(CHUNKS))


def speed(chunks):
    """Scale factor from seconds measured next to `chunks` to seconds at
    reference speed (below 1 while the machine runs slow)."""
    return REF_S / statistics.median(chunks)
