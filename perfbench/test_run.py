"""Tests of the run driver's host-speed scaling helpers."""

import math

import run


def test_host_kernel_measures_and_stops():
    with run.HostKernel() as kernel:
        times = [kernel.measure() for _ in range(2)]
        proc = kernel.proc
    assert all(math.isfinite(t) and t > 0 for t in times)
    assert proc.returncode == 0
