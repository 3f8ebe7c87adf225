"""Shared fixtures: the reference configuration used across the suite, and
counters of misfit-kernel calls and of wavelet samples."""

import numpy as np
import pytest

from wrilab import objectives
from wrilab.acoustics import Geometry, Wavelet
from wrilab.objectives import make_experiment


@pytest.fixture(scope="session")
def geo():
    """Reference geometry: unit domain, offset 0.5, velocity range [0.5, 2]."""
    return Geometry(z_min=0.0, z_max=1.0, z_s=0.3, z_r=0.8, T=1.5,
                    rho=1.0, c_min=0.5, c_max=2.0)


@pytest.fixture(scope="session")
def exp02(geo):
    """Consistent-data experiment with a width-0.02 bump pulse."""
    return make_experiment(geo, 1.0, Wavelet("bump", 0.02))


@pytest.fixture(scope="session")
def exp04(geo):
    """Consistent-data experiment with a width-0.04 bump pulse."""
    return make_experiment(geo, 1.0, Wavelet("bump", 0.04))


@pytest.fixture(scope="session")
def exp01(geo):
    """Consistent-data experiment with a width-0.01 bump pulse."""
    return make_experiment(geo, 1.0, Wavelet("bump", 0.01))


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Sizes of the velocity arrays passed to the misfit kernel, one per call."""
    calls = []
    kernel = objectives._pulse_terms

    def counting(exp, c):
        calls.append(c.size)
        return kernel(exp, c)

    monkeypatch.setattr(objectives, "_pulse_terms", counting)
    return calls


@pytest.fixture()
def wavelet_samples(monkeypatch):
    """Samples passed to Wavelet.value and Wavelet.antiderivative, summed per
    method."""
    counts = {"value": 0, "antiderivative": 0}

    def counting(name):
        method = getattr(Wavelet, name)

        def counted(self, t):
            counts[name] += np.size(t)
            return method(self, t)
        return counted

    for name in counts:
        monkeypatch.setattr(Wavelet, name, counting(name))
    return counts
