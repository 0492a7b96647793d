"""Independent oracles used by the test suite.

The Bell-measurement oracle builds the protocol's measurement operators
by brute force on the spin x photon1 x photon2 state vector, using only
projectors and bras (no parity shortcuts), and reduces them to a POVM on
the 4-dimensional two-photon input space. The spin's channels act on
its 2x2 density matrix. The herald-count oracle sums the binomial head
in 50-digit arithmetic, the herald-count pmf oracle forms one point's
pmf at a time, and the per-slot oracle sums every outcome
string of a short cycle. The QBER-posterior oracle takes
its incomplete beta from scipy and mpmath. The slot-pair oracle walks
every pair of slots, the party table and the pair weights are built
afresh at every call, the cell-probability oracle builds each point from
a fresh Born kernel at its own dephasing factor, the whole-cycle oracle
evolves 2x2 density matrices through every slot of every slot pair
without any of the engines' code, the fidelity oracle heralds one 2x2
density matrix per outcome and takes its overlap with the ideal state,
and the sift oracle picks the same-basis cells by fancy indexing.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_SQ2 = np.sqrt(2.0)

# Two-photon basis ordering: (e,e), (e,l), (l,e), (l,l)
BELL_STATES = {
    "Phi+": np.array([1, 0, 0, 1]) / _SQ2,
    "Phi-": np.array([1, 0, 0, -1]) / _SQ2,
    "Psi+": np.array([0, 1, 1, 0]) / _SQ2,
    "Psi-": np.array([0, 1, -1, 0]) / _SQ2,
}


def time_bin_state(phase: float) -> np.ndarray:
    """(|e> + exp(i phase)|l>)/sqrt(2) as a 2-vector."""
    return np.array([1.0, np.exp(1j * phase)]) / _SQ2


def rho_of(b) -> np.ndarray:
    """The spin's density matrix of coherence b, with equal populations."""
    return np.array([[0.5, b], [np.conj(b), 0.5]], dtype=complex)


def coherence_of(rho: np.ndarray) -> complex:
    """rho's coherence, after checking that rho lies on the equator."""
    assert np.allclose(np.diag(rho), 0.5, rtol=0, atol=1e-14)
    return rho[0, 1]


SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dephase(rho: np.ndarray, p: float) -> np.ndarray:
    """The phase-flip channel (1 - p) rho + p Z rho Z."""
    return (1 - p) * rho + p * (SZ @ rho @ SZ)


def measurement_bra(m1: int, m2: int, m3: int, frame_parity: int) -> np.ndarray:
    """Protocol amplitude functional on the two-photon input space.

    Composes: spin prepared along +x, heralded-branch projector for
    photon 1, X measurement of photon 1, `frame_parity` spin flips,
    heralded-branch projector for photon 2, X measurement of photon 2,
    and the final spin X readout. Returns a 1x4 row vector.
    """
    i2 = np.eye(2)
    spin_plus = np.array([[1.0], [1.0]]) / _SQ2  # 2x1
    # |up,e><up,e| + |down,l><down,l| on a spin (x) photon pair,
    # ordering (up e, up l, down e, down l).
    herald_proj = np.diag([1.0, 0.0, 0.0, 1.0])

    def x_bra(m: int) -> np.ndarray:
        return np.array([[1.0, float(m)]]) / _SQ2  # 1x2

    # Total space spin (x) photon1 (x) photon2, dimension 8.
    v = np.kron(spin_plus, np.eye(4))                      # 8x4
    p1 = np.kron(herald_proj, i2)                          # 8x8
    b1 = np.kron(i2, np.kron(x_bra(m1), i2))               # 4x8
    flip = np.array([[0.0, 1.0], [1.0, 0.0]]) if frame_parity else i2
    xf = np.kron(flip, i2)                                 # 4x4
    p2 = herald_proj                                       # 4x4 on spin (x) photon2
    b2 = np.kron(i2, x_bra(m2))                            # 2x4
    b3 = x_bra(m3)                                         # 1x2
    return b3 @ b2 @ p2 @ xf @ b1 @ p1 @ v                 # 1x4


def parity_povm(parity: int, frame_parity: int) -> np.ndarray:
    """Sum of M!M over the four (m1, m2, m3) with the given product."""
    povm = np.zeros((4, 4), dtype=complex)
    for m1 in (1, -1):
        for m2 in (1, -1):
            for m3 in (1, -1):
                if m1 * m2 * m3 != parity:
                    continue
                m = measurement_bra(m1, m2, m3, frame_parity)
                povm += m.conj().T @ m
    return povm


def parity_distribution(state: np.ndarray, frame_parity: int) -> dict[int, float]:
    """Probabilities of the two parities for a two-photon input state."""
    probs = {}
    for parity in (1, -1):
        povm = parity_povm(parity, frame_parity)
        probs[parity] = float(np.real(state.conj() @ povm @ state))
    total = probs[1] + probs[-1]
    if total < 1e-12:
        raise ValueError("state is never heralded at this frame parity")
    return {p: v / total for p, v in probs.items()}


def deterministic_parity(state: np.ndarray, frame_parity: int) -> int:
    """Parity of a state that the protocol resolves deterministically."""
    return _certain_parity(parity_distribution(state, frame_parity))


def _certain_parity(probs: dict[int, float]) -> int:
    if probs[1] > 1.0 - 1e-9:
        return 1
    if probs[-1] > 1.0 - 1e-9:
        return -1
    raise AssertionError(f"input is not resolved deterministically: {probs}")


def bell_state_resolved(label: str, frame_parity: int) -> int:
    """Parity assigned to a Bell state, or 0 if the protocol cannot see it."""
    try:
        probs = parity_distribution(BELL_STATES[label], frame_parity)
    except ValueError:  # never heralded at this frame parity
        return 0
    return _certain_parity(probs)


def per_slot_two_herald_statistics(n_slots: int, n_p: float, eta: float) -> tuple:
    """P(two heralds) of a cycle and, given two heralds, P(same slot parity), P(no scatter).

    The unconditional per-slot process, enumerated exactly: each slot
    draws one uniform u and heralds if u < n_p * eta, scatters an undetected
    photon if n_p * eta <= u < n_p, and stays dark otherwise, independently
    of the other slots. All 3^n_slots outcome strings are summed.
    """
    outcome_p = {"herald": n_p * eta, "scatter": n_p * (1.0 - eta), "dark": 1.0 - n_p}
    two = same = clean = 0.0
    for outcome in itertools.product(outcome_p, repeat=n_slots):
        heralds = [slot for slot, o in enumerate(outcome) if o == "herald"]
        if len(heralds) != 2:
            continue
        p = math.prod(outcome_p[o] for o in outcome)
        two += p
        same += p * (heralds[0] % 2 == heralds[1] % 2)
        clean += p * ("scatter" not in outcome)
    return two, same / two, clean / two


def herald_count_pmf(n_slots: int, p: float) -> dict[int, float]:
    """Binomial(n_slots, p) probabilities above 1e-290, {k: P(k)}, at 40
    digits: the term at the mode from mpmath.binomial and powers, and its
    neighbours by the ratio (n - k)/(k + 1) * p/(1 - p) until they fall
    below 1e-290."""
    import mpmath

    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        if q in (0, 1):
            return {round(p * n_slots): 1.0}
        mode = int(mpmath.floor((n_slots + 1) * q))
        mode_term = mpmath.binomial(n_slots, mode) * q**mode * (1 - q) ** (n_slots - mode)
        terms = {mode: mode_term}
        for step in (1, -1):
            k, term = mode, mode_term
            while 0 <= k + step <= n_slots:
                if step == 1:
                    term *= mpmath.mpf(n_slots - k) / (k + 1) * q / (1 - q)
                else:
                    term *= mpmath.mpf(k) / (n_slots - k + 1) * (1 - q) / q
                k += step
                if term < 1e-290:
                    break
                terms[k] = term
        return {k: float(t) for k, t in terms.items()}


def herald_tail_probability(n_slots: int, p: float) -> float:
    """P(at least three heralds among n_slots), each with probability p."""
    import mpmath

    with mpmath.workdps(50):
        q = mpmath.mpf(p)
        head = sum(
            mpmath.binomial(n_slots, k) * q**k * (1 - q) ** (n_slots - k) for k in range(3)
        )
        return float(1 - head)


class TruncatedBetaOracle:
    """The QBER posterior Beta(k + 1, n - k + 1) on [0, 1/2], from outside memqkd.

    The CDF is I_x(a, b) / I_1/2(a, b): mpmath.betainc at 50 digits for
    n <= 200, scipy.special.betainc where I_1/2 is a normal double, and
    otherwise (k / n far above 1/2, where I_1/2 underflows) the 50-digit
    power series I_x = x^a (1-x)^b / (a B(a, b)) * 2F1(a + b, 1; a + 1; x),
    whose terms shrink geometrically below the mode. Quantiles come from
    scipy.special.betaincinv, or from mpmath.findroot on the series.
    """

    def __init__(self, k: int, n: int):
        from scipy.special import betainc

        self.a, self.b = k + 1, n - k + 1
        self.ml = min(k / n, 0.5)
        self.small = n <= 200
        self.mass = float(betainc(self.a, self.b, 0.5))
        self.series = not self.small and self.mass < 1e-250

    def _log_series(self, x):
        import mpmath

        a, b = mpmath.mpf(self.a), mpmath.mpf(self.b)
        term = total = mpmath.mpf(1)
        j = 0
        while term > total * mpmath.mpf(10) ** -45:
            term *= (a + b + j) * x / (a + 1 + j)
            total += term
            j += 1
        log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        return a * mpmath.log(x) + b * mpmath.log1p(-x) - mpmath.log(a) - log_beta + mpmath.log(total)

    def cdf(self, x: float) -> float:
        import mpmath
        from scipy.special import betainc

        if x <= 0 or x >= 0.5:
            return 0.0 if x <= 0 else 1.0
        with mpmath.workdps(50):
            if self.small:
                inc = lambda t: mpmath.betainc(self.a, self.b, 0, t, regularized=True)
                return float(inc(mpmath.mpf(x)) / inc(mpmath.mpf(0.5)))
            if self.series:
                half = self._log_series(mpmath.mpf(0.5))
                return float(mpmath.exp(self._log_series(mpmath.mpf(x)) - half))
        return float(betainc(self.a, self.b, x)) / self.mass

    def quantile(self, p: float) -> float:
        import mpmath
        from scipy.special import betaincinv

        if p <= 0 or p >= 1:
            return 0.0 if p <= 0 else 0.5
        if not self.series:
            return float(betaincinv(self.a, self.b, p * self.mass))
        # Below 1/2 the log density falls at least at the rate
        # 2 (a - b) it has at 1/2, so all but e^-80 of the mass lies within
        # 40 / (a - b) of 1/2.
        with mpmath.workdps(50):
            half = self._log_series(mpmath.mpf(0.5))
            width = mpmath.mpf(40) / (self.a - self.b)
            gap = lambda t: self._log_series(t) - half - mpmath.log(p)
            return float(mpmath.findroot(gap, (0.5 - width, 0.5 - width / 1e6), solver="anderson"))

    def interval(self) -> tuple[float, float]:
        """The 68.2% rule: 34.1% each side of the ML, spilling at an edge."""
        low = min(max(self.cdf(self.ml) - 0.341, 0.0), 1.0 - 0.682)
        return self.quantile(low), self.quantile(low + 0.682)


def slot_pair_classes(n_pi: int, n_sub: int) -> np.ndarray:
    """Slot pairs lo < hi by (class of lo, class of hi), a 4 x 4 integer array.

    A slot's class is 2 * (window parity) + slot parity. Every pair of the
    n_pi * n_sub slots is visited once.
    """
    counts = np.zeros((4, 4), dtype=np.int64)
    for lo, hi in itertools.combinations(range(n_pi * n_sub), 2):
        counts[2 * (lo // n_sub % 2) + lo % 2, 2 * (hi // n_sub % 2) + hi % 2] += 1
    return counts


def party_table(assignment: str) -> np.ndarray:
    """P(party pair | w_lo, s_lo, w_hi, s_hi), a (2, 2, 2, 2, 4) array built afresh.

    A party pair is 2 * p1 + p2 with Alice as 0.
    """
    party = np.zeros((2, 2, 2, 2, 4))
    if assignment == "random":
        party[...] = 0.25
    elif assignment == "alternating":
        s = np.arange(2)
        party[:, s[:, None], :, s, 2 * s[:, None] + s] = 1.0
    else:
        party[..., 1] = 1.0
    return party


def pair_weights(n_pi: int, n_sub: int, assignment: str) -> np.ndarray:
    """P(w_lo, w_hi, party pair) of a uniform herald pair, from every slot pair."""
    classes = slot_pair_classes(n_pi, n_sub).reshape(2, 2, 2, 2, 1)
    weights = (classes * party_table(assignment)).sum(axis=(1, 3))
    return weights / weights.sum()


# Truth-table error rule over (basis X/Y, sign A, sign B, parity) indices:
# X pairs correlate with the sign product, Y pairs anticorrelate.
SIFT_ERROR = np.indices((2, 2, 2, 2)).sum(axis=0) % 2 == 1


def sift_counts(counts: np.ndarray) -> dict[str, int]:
    """The `SessionReport` sift fields of a tally's (4, 2, 4, 2, 2) counts, by fancy indexing."""
    same = counts[[0, 1], :, [0, 1]]  # (basis X/Y, signA, signB, parity)
    sifted = same.sum(axis=(1, 2, 3))
    errors = (same * SIFT_ERROR).sum(axis=(1, 2, 3))
    return {
        "sifted_xx": int(sifted[0]),
        "errors_xx": int(errors[0]),
        "sifted_yy": int(sifted[1]),
        "errors_yy": int(errors[1]),
    }


def cell_probabilities_per_point(seq, chan, parties, noise) -> np.ndarray:
    """`session.coincidence_cell_probabilities` built afresh for one point.

    The Born kernel is evaluated at the point's own dephasing factor, and
    the slot-pair classes are tallied with a prefix sum over all N slots.
    """
    from memqkd.bsm import LABEL_PHASE
    from memqkd.session import _CELL_INDEX, _OUTCOME_PARITY, _born_kernel

    n = seq.n_qubits
    a_h = chan.n_p * noise.eta_detect
    r = chan.n_p * (1.0 - noise.eta_detect) / (1.0 - a_h) if a_h < 1.0 else 0.0
    deph = (1.0 - 2.0 * noise.p_mw) ** seq.n_pi
    deph *= (1.0 - 2.0 * noise.p_scatter_dephase * r) ** (n - 2)
    frame = np.arange(2)[:, None, None]
    kernel = _born_kernel(LABEL_PHASE[:, None], LABEL_PHASE, frame, deph, noise)
    parity = kernel.reshape(2, 8, 8, 8) @ np.eye(2)[_OUTCOME_PARITY]  # (frame, l1, l2, q)
    basis = [parties.basis_bias, 1.0 - parties.basis_bias, 0.0, 0.0]
    prior = np.repeat(basis if parties.mode == "qkd" else [0.25] * 4, 2) / 2.0
    labels = (parity * (prior[:, None] * prior)[..., None]).reshape(2, 128)
    w = np.arange(2)
    by_windows = labels[w[:, None] ^ w]  # (w_lo, w_hi, l1 * l2 * q)

    slot = np.arange(n)
    onehot = np.eye(4)[2 * (seq.window_of(slot) % 2) + slot % 2]
    before = np.cumsum(onehot, axis=0) - onehot
    classes = (before.T @ onehot).reshape(2, 2, 2, 2, 1)  # (w_lo, s_lo, w_hi, s_hi)
    by_pairs = (classes * party_table(parties.assignment)).sum(axis=(1, 3))
    by_pairs /= by_pairs.sum()

    weights = by_pairs[..., None] * by_windows[:, :, None]
    pi = np.bincount(_CELL_INDEX, weights.ravel(), minlength=256)
    return (pi / pi.sum()).reshape(2, 4, 2, 4, 2, 2)


def exact_cell_probabilities(seq, chan, parties, noise) -> np.ndarray:
    """`session.coincidence_cell_probabilities` by whole-cycle density matrices.

    Given two heralds, every slot pair lo < hi is equally likely. For each
    pair, every label pair and herald branch (m1, m2) evolves as a 2x2
    density matrix, slot by slot through the whole cycle: initialization
    and the pi/2 pulse; at lo and hi the Kraus operator K_m of the `qubits`
    docstring, scaled so that K_+ and K_- complete to the identity; at every
    other slot an undetected scatter with probability r given no herald,
    each a phase flip with p_scatter_dephase; after every window the pi
    pulse X rho X and its phase flip with p_mw. The trace is then the branch
    probability, and the noisy X readout splits it by m3. A record's cell
    follows the `CoincidenceTally` layout: a photon sent in an odd window is
    read out as its phase conjugate, Alice's photon comes first in
    `counts`, and a same-party record goes to `excluded` in slot order.
    Only numpy and this module are used.
    """
    n = seq.n_qubits
    # Labels 2 * basis + sign over the bases X, Y, A, B, which lie at 0, 90,
    # 45 and 135 degrees on the equator; the minus sign adds pi.
    phase = np.repeat([0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4], 2) + np.tile([0.0, np.pi], 4)
    conj = np.array([np.argmin(abs(np.exp(1j * phase) - np.exp(-1j * p))) for p in phase])
    basis = [parties.basis_bias, 1.0 - parties.basis_bias, 0.0, 0.0]
    prior = np.repeat(basis if parties.mode == "qkd" else [0.25] * 4, 2) / 2.0

    # K[label, m] = |up><up| + e |down><down| + eps (|down><down| + e |up><up|),
    # e = m exp(i phi), over sqrt(2 (1 + eps^2)).
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    eps = noise.eps_leak
    e = (np.array([1, -1]) * np.exp(1j * phase)[:, None])[..., None, None]
    kraus = (up + e * down + eps * (down + e * up)) / math.sqrt(2.0 * (1.0 + eps**2))
    k1 = kraus[:, None, :, None]  # (l1, l2, m1, m2, 2, 2)
    k2 = kraus[None, :, None, :]

    def apply(k, rho):
        return k @ rho @ k.conj().swapaxes(-1, -2)

    # Z rho Z negates the coherences and X rho X reverses both axes: the
    # matrix products SZ @ rho @ SZ and SX @ rho @ SX, elementwise.
    def phase_flip(rho, p):
        return (1.0 - p) * rho + p * rho * np.outer(np.diag(SZ), np.diag(SZ))

    # f |down><down| + (1 - f) |up><up|, turned by the pi/2 pulse that takes
    # |down> to (|up> + |down>)/sqrt(2).
    pulse = np.array([[1.0, 1.0], [-1.0, 1.0]]) / _SQ2
    rho0 = pulse @ np.diag([1.0 - noise.f_init, noise.f_init]) @ pulse.T
    lo, hi = np.array(list(itertools.combinations(range(n), 2))).T
    rho = np.broadcast_to(rho0, (len(lo), 8, 8, 2, 2, 2, 2)).astype(complex)
    scatter, dark = chan.n_p * (1.0 - noise.eta_detect), 1.0 - chan.n_p
    r = scatter / (scatter + dark) if scatter + dark > 0 else 0.0
    for slot in range(n):
        # Every lane scatters but those that herald here.
        first, second = lo == slot, hi == slot
        heralded1, heralded2 = apply(k1, rho[first]), apply(k2, rho[second])
        rho = (1.0 - r) * rho + r * phase_flip(rho, noise.p_scatter_dephase)
        rho[first], rho[second] = heralded1, heralded2
        if slot % seq.n_sub == seq.n_sub - 1:
            rho = phase_flip(rho[..., ::-1, ::-1], noise.p_mw)
    plus = np.einsum("...ij,ji->...", rho, (np.eye(2) + SX) / 2.0).real
    minus = np.einsum("...ii->...", rho).real - plus
    f = noise.f_readout
    branch = np.stack([f * plus + (1 - f) * minus, f * minus + (1 - f) * plus], axis=-1)

    # Party pair 2 * p1 + p2 of each slot pair, Alice 0.
    party = np.zeros((len(lo), 4))
    if parties.assignment == "random":
        party[:] = 0.25
    elif parties.assignment == "alternating":
        party[np.arange(len(lo)), 2 * (lo % 2) + hi % 2] = 1.0
    else:
        party[:, 1] = 1.0  # Alice's photon, then Bob's
    weights = (party[:, :, None, None, None, None, None] / len(lo)
               * (prior[:, None] * prior)[..., None, None, None] * branch[:, None])

    # Cell of each (pair, party pair, l1, l2, m1, m2, m3).
    read1 = np.where((lo // seq.n_sub % 2 == 1)[:, None], conj, np.arange(8))
    read2 = np.where((hi // seq.n_sub % 2 == 1)[:, None], conj, np.arange(8))
    read1 = read1[:, None, :, None, None, None, None]
    read2 = read2[:, None, None, :, None, None, None]
    p1 = (np.arange(4) // 2)[:, None, None, None, None, None]
    p2 = (np.arange(4) % 2)[:, None, None, None, None, None]
    alice, bob = np.where(p1 > p2, read2, read1), np.where(p1 > p2, read1, read2)
    m = np.array([1, -1])
    odd = m[:, None, None] * m[:, None] * m == -1
    cell = 128 * (p1 == p2) + 16 * alice + 2 * bob + odd
    pi = np.bincount(np.broadcast_to(cell, weights.shape).ravel(), weights.ravel(), minlength=256)
    return pi.reshape(2, 4, 2, 4, 2, 2)


def heralded_fidelity_by_density_matrix(noise, n_qubits: int, n_m: float, phase: float) -> float:
    """P-weighted fidelity of the spin heralded by a photon of `phase`.

    Starts from |+><+|, applies K_m = diag(1 + eps e, e + eps) /
    sqrt(2 (1 + eps^2)) with e = m exp(i phase) for each detector m = +-1,
    and dephases by the cycle's other n_qubits - 1 slots: each scatters an
    undetected photon with probability r given no herald, and each scatter
    is a phase flip with p_scatter_dephase. Their composition is one phase
    flip with probability (1 - D)/2, D = (1 - 2 p_scatter_dephase r)^(N - 1).
    Returns sum_m <psi_m|rho_m|psi_m> with psi_m = (|up> + e|down>)/sqrt(2)
    and rho_m of trace P(m). Only numpy and this module are used.
    """
    eps = noise.eps_leak
    n_p = n_m / n_qubits
    scatter, dark = n_p * (1.0 - noise.eta_detect), 1.0 - n_p
    r = scatter / (scatter + dark) if scatter + dark > 0 else 0.0
    deph = (1.0 - 2.0 * noise.p_scatter_dephase * r) ** (n_qubits - 1)
    rho = np.full((2, 2), 0.5, dtype=complex)
    fidelity = 0.0
    for m in (1, -1):
        e = m * np.exp(1j * phase)
        kraus = np.diag([1.0 + eps * e, e + eps]) / math.sqrt(2.0 * (1.0 + eps**2))
        rho_m = dephase(kraus @ rho @ kraus.conj().T, (1.0 - deph) / 2.0)
        psi = np.array([1.0, e]) / _SQ2
        fidelity += (psi.conj() @ rho_m @ psi).real
    return fidelity
