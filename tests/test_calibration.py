"""Where the shipped noise constants come from.

Each calibrated constant of the fig4-point-N124 preset is recovered by
root finding on the quantity it was fitted to, and must land within
1e-5 of the value the preset ships.

The measured heralded spin-photon fidelity, 0.9445 at n_m = 0.002, is
read as the Y-basis fidelity of the engine's own herald (`heralded`).
At no scatter its leakage factor is 1/(1 + eps^2), so this reading keeps
the meaning eps_leak was first fitted with. Read as the X/Y mean instead,
it would need eps_leak of about 0.3515.
"""

import dataclasses

import numpy as np
import pytest

from heralded import heralded_fidelity
from memqkd.config import load_preset
from memqkd.qubits import NoiseParams
from memqkd.session import coincidence_cell_probabilities


def bisect(f, lo: float, hi: float, target: float) -> float:
    """Root of f(x) = target on [lo, hi] for f monotone across it."""
    rising = f(hi) > f(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (f(mid) < target) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expected_sifted_qber(cfg) -> float:
    """Pooled X-X and Y-Y error rate of the exact coincidence distribution pi."""
    pi = coincidence_cell_probabilities(cfg.sequence, cfg.channel(), cfg.parties, cfg.noise)
    same = pi[0][[0, 1], :, [0, 1]]  # (basis X/Y, signA, signB, parity)
    # X pairs correlate with the sign product and Y pairs anticorrelate.
    error = np.indices(same.shape).sum(axis=0) % 2 == 1
    return float(same[error].sum() / same.sum())


@pytest.fixture(scope="module")
def fig4():
    return load_preset("fig4-point-N124")


def test_eps_leak_gives_the_measured_heralded_fidelity(fig4):
    def fidelity(eps):
        noise = dataclasses.replace(fig4.noise, eps_leak=eps)
        return heralded_fidelity(noise, fig4.sequence.n_qubits, 0.002)

    eps = bisect(fidelity, 0.0, 1.0, 0.9445)
    assert eps == pytest.approx(0.2412278, abs=1e-7)
    assert abs(eps - fig4.noise.eps_leak) < 1e-5


def test_p_mw_gives_the_observed_sifted_qber(fig4):
    def qber(p_mw):
        return expected_sifted_qber(fig4.replace(noise=dataclasses.replace(fig4.noise, p_mw=p_mw)))

    p_mw = bisect(qber, 0.0, 0.01, 0.115)
    assert p_mw == pytest.approx(0.0010944, abs=1e-7)
    assert abs(p_mw - fig4.noise.p_mw) < 1e-5


def test_noise_defaults_are_the_calibrated_preset_noise(fig4):
    # NoiseParams() carries the constants recovered above: the tests and
    # criteria that read the defaults read the calibrated node.
    assert NoiseParams() == fig4.noise
