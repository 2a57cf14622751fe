"""The bulk CSV float formatter writes exactly what per-cell `repr` writes."""

import builtins
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trinls as t
import trinls.text as text
from trinls.text import csv_rows

ASYMMETRIC_A = np.array([[1.0, 0.7, 0.5], [0.7, 1.3, 0.9], [0.5, 0.9, 0.8]])


def reference(block):
    return "".join([",".join(map(repr, row)) + "\r\n" for row in block.tolist()]).encode()


def assert_matches_repr(values, cols=8):
    """csv_rows of `values`, in blocks of `cols` columns, equals per-cell repr."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-len(values) % cols)])
    for block in np.array_split(values.reshape(-1, cols), max(1, len(values) // 65536)):
        got, want = csv_rows(block), reference(block)
        if got != want:
            bad = [(g, w) for g, w in zip(got.split(b"\r\n"), want.split(b"\r\n"))
                   if g != w]
            pytest.fail(f"{len(bad)} rows differ, first: {bad[:2]}")


def sweep(rng):
    """About 1.1 M seeded values over the cases a shortest-repr formatter
    gets wrong: raw bit patterns, every decade, short decimals and their
    neighbours, the 2^53 and 10^16 integers, the layout edges, the
    normal/subnormal boundary, powers of two and the extremes."""
    bits = rng.integers(0, 2 ** 64, 350_000, dtype=np.uint64, endpoint=False)
    parts = [bits.view(np.float64),
             rng.standard_normal(300_000) * 10.0 ** rng.integers(-320, 300, 300_000)]
    for places in range(18):
        dec = np.round(rng.standard_normal(6000) * 10.0 ** rng.integers(-6, 10, 6000),
                       places)
        parts += [dec, np.nextafter(dec, np.inf), np.nextafter(dec, -np.inf)]
    k = np.arange(-5000, 5001)
    parts += [2.0 ** 53 + 2 * k, 1e16 + 2 * k, 1e16 + 2 * k - 1.0, -(2.0 ** 53 + 2 * k)]
    for edge in (1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e-5, 9.999999999999998e15):
        parts += [edge + np.spacing(edge) * k[3000:-3000], [-edge]]
    tiny = np.finfo(float).smallest_normal
    parts.append(tiny + 5e-324 * k[2000:-2000])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    parts += [powers, -powers, powers[:-3] * 3, powers[:-3] * 5]
    big = np.finfo(float).max
    parts.append([big, -big, np.nextafter(big, 0), 1e308, np.nextafter(1e308, 0),
                  0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
    return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def test_sweep_matches_repr():
    values = sweep(np.random.default_rng(2029))
    assert values.size >= 1_000_000
    assert_matches_repr(values)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_bit_patterns_match_repr(patterns):
    assert_matches_repr(np.array(patterns, dtype=np.uint64).view(np.float64), cols=5)


def test_powers_of_ten_are_correctly_rounded():
    powers = text._tables()[0]
    for k, p in zip(range(text._K0, 331), powers):
        mant, exp = np.frexp(p)
        scaled = int(np.ldexp(mant, 64))  # p = scaled * 2^(exp - 64) exactly
        error = Fraction(scaled) * Fraction(2) ** (int(exp) - 64) - Fraction(10) ** k
        assert abs(error) <= Fraction(2) ** (int(exp) - 65), k


def test_narrow_long_double_formats_by_repr(monkeypatch):
    # where long double is no wider than double, every cell is repr's own,
    # and the text is the same
    monkeypatch.setattr(text, "_FAST", False)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)
    values[::7] = -0.0
    assert_matches_repr(values)


def test_solved_profile_is_mostly_certified(monkeypatch):
    # every cell the certificate gives up on costs a repr call: a kernel
    # that quietly gave up everywhere would pass the equality checks
    grid = t.make_grid(4096, 80.0)
    gs = t.minimize(t.CouplingModel(ASYMMETRIC_A, 2.5), t.MassTriple(2.0, 1.5, 1.2),
                    grid)
    u = gs.profile.stack()
    block = np.column_stack([grid.nodes, *np.stack([u.real, u.imag], axis=1)
                             .reshape(6, -1)])
    # the imaginary columns are exact zeros, which take no repr call: the
    # x and real columns are the cells to certify
    real = block[:, [0, 1, 3, 5]]
    assert np.count_nonzero(real) >= real.size - 1  # x = 0 at one node
    calls = []
    monkeypatch.setattr(text, "repr", lambda v: calls.append(v) or builtins.repr(v),
                        raising=False)
    assert csv_rows(block) == reference(block)
    assert len(calls) <= 0.1 * real.size
