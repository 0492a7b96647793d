"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion. Every tolerance is fixed here; nothing is deferred
to later calibration.
"""

import math

import numpy as np

import oracles
from heralded import heralded_fidelity
from memqkd import rates
from memqkd.bsm import LABEL_PHASE, ChannelConfig, SequenceConfig, run_memory_cycles
from memqkd.cavity import cooperativity, total_heralding_efficiency
from memqkd.config import default_config, load_preset
from memqkd.qubits import NoiseParams
from memqkd.rates import (
    TruncatedBeta,
    analytic_report,
    build_report,
    rate_direct_bound,
    secret_fraction,
    sifted_enhancement,
)
from memqkd.session import (
    PartyConfig,
    chsh_statistic,
    simulate_session,
)


def _check(num: int, description: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {description}{suffix}")
    assert condition, f"criterion {num}: {description}{suffix}"


def test_criterion_01_cooperativity():
    c = cooperativity(8.38, 21.6, 0.123)
    _check(
        1,
        "cooperativity(8.38, 21.6, 0.123) = 105.7 within 105 +/- 11",
        abs(c - 105.7) < 0.05 and 94 <= c <= 116,
        f"C = {c:.4f}",
    )


def test_criterion_02_efficiency_budget():
    eta = total_heralding_efficiency(0.4925, 0.930, 0.934, 0.99)
    _check(
        2,
        "total heralding efficiency in [0.418, 0.430]",
        0.418 <= eta <= 0.430,
        f"eta = {eta:.4f}",
    )


def test_criterion_03_truth_table():
    # Each row runs through the reference engine with the heralds at a
    # fixed slot pair and no photons in the other slots.
    seq = SequenceConfig(n_pi=62, n_sub=2)
    chan = ChannelConfig(n_p=0.0)
    noise = NoiseParams.ideal()
    trials = 10_000
    violations = 0
    checked = 0
    # Photon labels 2 * basis + sign index: the X/X and Y/Y pairs.
    for basis in (0, 1):
        for sign_a in (0, 1):
            for sign_b in (0, 1):
                la, lb = 2 * basis + sign_a, 2 * basis + sign_b
                input_state = np.kron(
                    oracles.time_bin_state(LABEL_PHASE[la]), oracles.time_bin_state(LABEL_PHASE[lb])
                )
                # slots (0, 1) share a window (even frame); (0, 2) span one
                # pi pulse (odd frame)
                for slots, frame in (((0, 1), 0), ((0, 2), 1)):
                    want = oracles.deterministic_parity(input_state, frame)
                    m = run_memory_cycles(
                        seq, chan, noise, np.tile(slots, (trials, 1)),
                        np.tile((la, lb), (trials, 1)), np.random.default_rng(300 + checked),
                    )
                    assert (seq.window_of(slots[1]) - seq.window_of(slots[0])) % 2 == frame
                    violations += int(np.sum(m.prod(axis=1) != want))
                    checked += 1
    _check(
        3,
        "all 8 truth-table rows and 8 frame-odd variants, zero violations "
        f"over {trials} forced reference-engine cycles each, against the state-vector oracle",
        checked == 16 and violations == 0,
        f"violations = {violations}",
    )


def test_criterion_04_secret_fraction():
    r0 = secret_fraction(0.0)
    lo, hi = 0.10, 0.25
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if secret_fraction(mid) > 0 else (lo, mid)
    crossing = (lo + hi) / 2
    r11 = secret_fraction(0.110)
    _check(
        4,
        "r_s(0) = 1, zero crossing at 0.1464 +/- 0.0010, r_s(0.110) = 0.195 +/- 0.005",
        r0 == 1.0 and abs(crossing - 0.1464) < 0.0010 and abs(r11 - 0.195) < 0.005,
        f"crossing = {crossing:.5f}, r_s(0.110) = {r11:.4f}",
    )


def test_criterion_05_key_rate_ratios():
    # N = 124 slots as 62 x 2 at n_m = 0.02 and eta_detect = 0.423.
    cfg = default_config()
    unbiased = analytic_report(0.110, cfg)
    biased = analytic_report(0.110, cfg.replace(parties=PartyConfig(basis_bias=0.99)))
    ok = (
        abs(unbiased.ratio_rmax_per_occupancy - 2.06) < 0.15
        and abs(unbiased.ratio_rmax_per_use - 4.13) < 0.3
        and abs(unbiased.ratio_plob_per_use - 1.43) < 0.15
        and abs(biased.ratio_plob_per_use - 2.80) < 0.3
    )
    _check(
        5,
        "analytic pipeline reproduces R/Rmax = 2.06/occupancy and 4.13/use, "
        "R/(1.44p) = 1.43/use and 2.80/use at 99:1 bias",
        ok,
        f"{unbiased.ratio_rmax_per_occupancy:.3f}, {unbiased.ratio_rmax_per_use:.3f}, "
        f"{unbiased.ratio_plob_per_use:.3f}, {biased.ratio_plob_per_use:.3f}",
    )


def test_criterion_06_chsh():
    tsirelson = 2 * math.sqrt(2)
    results = {}
    for preset, target, tol in (
        ("fig3-chsh-ideal", tsirelson, 0.05),
        ("fig3-chsh-qber11", 2.21, 0.08),
    ):
        cfg = load_preset(preset)
        tally, report = simulate_session(
            cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cfg.cycles, cfg.seed
        )
        coincidences = int(tally.counts.sum())
        s_plus = chsh_statistic(tally, 1)[1]
        s_minus = chsh_statistic(tally, -1)[1]
        results[preset] = (s_plus, s_minus, coincidences)
        assert coincidences >= 100_000
        assert abs(s_plus - target) < tol and abs(s_minus - target) < tol

    # The dephasing preset really is calibrated to a 0.11 error rate: the
    # same noise in key-generation mode must measure that QBER.
    cfg = load_preset("fig3-chsh-qber11")
    _, report = simulate_session(
        cfg.sequence,
        cfg.channel(),
        PartyConfig(mode="qkd", assignment="single"),
        cfg.noise,
        cfg.cycles,
        cfg.seed,
    )
    qber = build_report(report, cfg).qber_ml
    assert abs(qber - 0.11) < 0.005
    _check(
        6,
        "CHSH: ideal S+- = 2.828 +/- 0.05 over >= 1e5 coincidences; "
        "dephasing calibrated to QBER 0.11 gives S+- = 2.21 +/- 0.08",
        True,
        ", ".join(
            f"{k}: S+={v[0]:.3f} S-={v[1]:.3f} n={v[2]}" for k, v in results.items()
        )
        + f", qkd-mode QBER = {qber:.4f}",
    )


def test_criterion_07_posterior_confidence():
    n = 2433  # gives ML 0.097 with posterior sigma 0.006
    k = round(0.097 * n)
    post = TruncatedBeta(k, n)
    low, high = rates._intervals([post])[0]
    conf = post.cdf(0.110)
    ok = (
        abs(post.ml - 0.097) < 1e-3
        and abs((high - low) / 2 - 0.006) < 5e-4
        and abs(conf - 0.985) < 0.01
    )
    _check(
        7,
        "posterior with ML 0.097 and sigma 0.006 has confidence 0.985 +/- 0.01 "
        "below the 0.110 threshold",
        ok,
        f"ML = {post.ml:.4f}, half-width = {(high - low) / 2:.4f}, confidence = {conf:.4f}",
    )


def test_criterion_08_monte_carlo_vs_enhancement_formula():
    cfg = load_preset("fig4-point-N124")
    cycles = 4_000_000_000
    tally, report = simulate_session(
        cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cycles, cfg.seed
    )
    assert cycles >= 1_000_000
    chan = cfg.channel()
    mc_rate = report.sifted_rate_per_use() / 2
    target = sifted_enhancement(cfg.noise.eta_detect, 62, 2) * rate_direct_bound(
        chan.p_ab, 0.5
    )
    rel_err = mc_rate / target - 1.0
    _check(
        8,
        "Monte Carlo sifted rate per occupancy matches the enhancement formula "
        "x direct-transmission rate within 5% (N_pi=62, n_sub=2, n_m=0.02)",
        abs(rel_err) < 0.05,
        f"MC {mc_rate:.4e} vs formula {target:.4e}, rel. err. {rel_err:+.3%}, "
        f"sifted = {report.sifted}",
    )


def test_criterion_09_fidelity_rolloff():
    # The Y-basis fidelity of the engine's herald, as `eps_leak` is calibrated.
    noise = NoiseParams()
    grid = [0.002, 0.01, 0.05, 0.1, 0.2]
    values = [heralded_fidelity(noise, SequenceConfig().n_qubits, n) for n in grid]
    ok = values[0] >= 0.944 and all(b < a for a, b in zip(values, values[1:]))
    _check(
        9,
        "Y-basis heralded spin-photon fidelity (N = 124) >= 0.944 at n_m = 0.002 "
        "and strictly decreasing over {0.002, 0.01, 0.05, 0.1, 0.2}",
        ok,
        "F = " + ", ".join(f"{v:.4f}" for v in values),
    )


def test_criterion_10_qualitative_trends():
    base = load_preset("fig4-point-N124")

    # (a) error rate grows with the photon load at fixed N
    qber_by_nm = []
    for n_m, cycles in ((0.02, 1_000_000_000), (0.1, 100_000_000), (0.2, 100_000_000)):
        cfg = base.replace(n_m=n_m)
        _, report = simulate_session(
            cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cycles, cfg.seed
        )
        qber_by_nm.append(build_report(report, cfg).qber_ml)
    trend_nm = qber_by_nm[0] < qber_by_nm[1] < qber_by_nm[2]

    # (b) error rate grows with N at fixed n_m once heating is enabled
    qber_by_n = []
    for n in (60, 124, 248, 504):
        seq = SequenceConfig(n_pi=n // 2, n_sub=2)
        cfg = base.replace(sequence=seq)
        _, report = simulate_session(
            seq, cfg.channel(), cfg.parties, cfg.noise, 1_000_000_000, cfg.seed
        )
        qber_by_n.append(build_report(report, cfg).qber_ml)
    trend_n = all(b > a for a, b in zip(qber_by_n, qber_by_n[1:]))

    # (c) secure rate beats the direct-transmission p/2 line by > 3x at N=124
    _, report = simulate_session(
        base.sequence, base.channel(), base.parties, base.noise,
        4_000_000_000, base.seed,
    )
    secure_per_use = build_report(report, base).secure_per_use
    advantage = secure_per_use / rate_direct_bound(base.channel().p_ab, 0.5)
    _check(
        10,
        "QBER rises with n_m at fixed N and with N at fixed n_m; secure rate "
        "exceeds the p/2 line by > 3x at the N=124 point",
        trend_nm and trend_n and advantage > 3.0,
        f"QBER(n_m) = {[f'{q:.4f}' for q in qber_by_nm]}, "
        f"QBER(N) = {[f'{q:.4f}' for q in qber_by_n]}, advantage = {advantage:.2f}",
    )
