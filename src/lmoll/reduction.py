"""Compensated sums.

All reductions in this package must be reproducible bit-for-bit across runs,
so floating sums are compensated and always taken in a fixed order.
"""

from __future__ import annotations

from typing import Iterable


class KahanSum:
    """Compensated running sum (Kahan–Neumaier)."""

    __slots__ = ("_s", "_c")

    def __init__(self, start: float = 0.0):
        self._s = float(start)
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


def kahan_sum(values: Iterable[float]) -> float:
    acc = KahanSum()
    for v in values:
        acc.add(v)
    return acc.value


def kahan_sum_complex(values: Iterable[complex]) -> complex:
    re = KahanSum()
    im = KahanSum()
    for v in values:
        re.add(v.real)
        im.add(v.imag)
    return complex(re.value, im.value)

