import itertools

import numpy as np
import pytest

from nof1twin.arco import ArcoParams, long_run_apte, long_run_mean
from nof1twin.errors import ConfigError
from nof1twin.oracle import (
    MODE_IID,
    MODE_PERMUTATION,
    EnumSpec,
    enumerate_apte,
    permutation_apte,
)

AR_SET = ArcoParams(beta0=2.0, beta_x=1.1, beta_ar=0.8)
MIXED = ArcoParams(beta0=1.0, beta_x=1.0, beta_co=0.2, beta_xco=0.1, beta_ar=0.5, beta_xar=0.1)


def perm_spec(params, m=8, m1=4, **kw):
    return EnumSpec(m=m, mode=MODE_PERMUTATION, params=params, m1=m1, **kw)


def iid_spec(params, m=8, pi=0.5, **kw):
    return EnumSpec(m=m, mode=MODE_IID, params=params, pi=pi, **kw)


def _po(params: ArcoParams, s: float, x_prev: np.ndarray, y_prev: np.ndarray, v_t: float):
    """Potential outcome at exposure level s given the previous period's state."""
    return (
        params.beta0
        + params.beta_x * s
        + params.beta_co * x_prev
        + params.beta_xco * s * x_prev
        + params.beta_ar * y_prev
        + params.beta_xar * s * y_prev
        + v_t
    )


def _permutation_matrix(m: int, m1: int) -> np.ndarray:
    combos = list(itertools.combinations(range(m), m1))
    x = np.zeros((len(combos), m), dtype=np.int8)
    for i, ones in enumerate(combos):
        x[i, list(ones)] = 1
    return x


def enumeration_reference(spec: EnumSpec, shift=None) -> float:
    """Independent route: every exposure sequence enumerated and rolled forward.

    Exponential in m, so only for small systems; the library's forward
    recursion is checked against it.  ``shift`` adds shift[t - 1] to every
    level of period t (length m), as a twin's per-period rows would.
    """
    p = spec.params
    m = spec.m
    v = np.zeros(m) if shift is None else shift

    if spec.mode == MODE_PERMUTATION:
        x = _permutation_matrix(m, spec.m1)
        n_seq = x.shape[0]
        n1 = x[:, 1:].sum(axis=1).astype(float)
        n0 = (m - 1) - n1
        # Weight of sequence q for the level-s average at period t:
        #   I(x_qt = s) / (n_seq * arm size of s in q over t >= 2)
        y_prev = np.full(n_seq, spec.initial_level())
        contrast_sum = 0.0
        for t in range(2, m + 1):
            x_prev = x[:, t - 2].astype(float)
            x_t = x[:, t - 1].astype(float)
            po1 = _po(p, 1.0, x_prev, y_prev, v[t - 1])
            po0 = _po(p, 0.0, x_prev, y_prev, v[t - 1])
            capo1 = float(np.sum(po1 * x_t / n1)) / n_seq
            capo0 = float(np.sum(po0 * (1.0 - x_t) / n0)) / n_seq
            contrast_sum += capo1 - capo0
            y_prev = np.where(x_t == 1.0, po1, po0)
        # Each per-period weighted average carries total mass 1/(m-1), so the
        # sum of contrasts is already the mean over generated periods.
        return contrast_sum

    # iid mode: enumerate all 2^m sequences, weighted by Bernoulli products.
    pi = float(spec.pi)
    n_seq = 1 << m
    idx = np.arange(n_seq, dtype=np.uint32)
    ones = np.zeros(n_seq, dtype=np.int64)
    for b in range(m):
        ones += (idx >> b) & 1
    w = np.power(pi, ones) * np.power(1.0 - pi, m - ones)
    y_prev = np.full(n_seq, spec.initial_level())
    total = 0.0
    for t in range(2, m + 1):
        x_prev = ((idx >> (t - 2)) & 1).astype(float)
        x_t = ((idx >> (t - 1)) & 1).astype(float)
        po1 = _po(p, 1.0, x_prev, y_prev, v[t - 1])
        po0 = _po(p, 0.0, x_prev, y_prev, v[t - 1])
        total += float(np.sum(w * (po1 - po0)))
        y_prev = np.where(x_t == 1.0, po1, po0)
    return total / (m - 1)


def ar_closed_form(m, c=0.8, b=1.1):
    """The AR chain under fixed-margin permutations:
    b * (1 - sum_g (m-1-g) c^g / ((m-1)(m-2)))."""
    correction = sum((m - 1 - g) * c**g for g in range(1, m - 1)) / ((m - 1) * (m - 2))
    return b * (1 - correction)


def iid_recursion_oracle(params, m, pi, y_init):
    """Independent route: exact mean recursion for the iid-mode value.

    Under i.i.d. assignment E[Y_t] follows a linear recursion, and the
    period-t contrast is beta_x + beta_xco*pi + beta_xar*E[Y_{t-1}].
    """
    mean_y = y_init
    total = 0.0
    for _ in range(2, m + 1):
        total += params.beta_x + params.beta_xco * pi + params.beta_xar * mean_y
        mean_y = (
            params.beta0
            + (params.beta_x + params.beta_co) * pi
            + params.beta_xco * pi * pi
            + (params.beta_ar + params.beta_xar * pi) * mean_y
        )
    return total / (m - 1)


class TestEnumerate:
    def test_no_interference_gives_exposure_effect(self):
        params = ArcoParams(beta0=3.0, beta_x=0.7)
        for spec in (perm_spec(params, m=6, m1=3), iid_spec(params, m=6, pi=0.3)):
            assert enumerate_apte(spec) == pytest.approx(0.7, abs=1e-12)

    def test_lagged_terms_without_interactions_still_exact_effect_iid(self):
        # contrasts share the lagged state, so the effect is beta_x exactly
        assert enumerate_apte(iid_spec(AR_SET, m=10)) == pytest.approx(1.1, abs=1e-12)

    def test_permutation_mode_frozen_value(self):
        got = enumerate_apte(perm_spec(AR_SET, y_init=2.0))
        assert got == pytest.approx(ar_closed_form(8), abs=1e-12)

    @pytest.mark.parametrize("mode", [MODE_PERMUTATION, MODE_IID])
    @pytest.mark.parametrize("term", ["beta_co", "beta_xco", "beta_xar"])
    def test_recursion_matches_enumeration_reference(self, mode, term):
        params = ArcoParams(beta0=1.5, beta_x=0.9, beta_ar=0.6, **{term: 0.35})
        level = _po(params, np.arange(2.0)[:, None], np.arange(2.0), 0.0, 0.0)
        slope = params.beta_ar + params.beta_xar * np.arange(2.0)
        for m in range(4, 13):
            shift = np.sin(np.arange(m))  # per-period levels, fed to the engine directly
            margins = [dict(m1=m1) for m1 in range(2, m - 1)] if mode == MODE_PERMUTATION else [
                dict(pi=pi) for pi in (0.0, 0.3, 1.0)]
            for margin in margins:
                spec = EnumSpec(m=m, mode=mode, params=params, y_init=-0.7, **margin)
                assert enumerate_apte(spec) == pytest.approx(
                    enumeration_reference(spec), abs=1e-12), (m, margin)
                if mode == MODE_PERMUTATION:
                    got = permutation_apte(level + shift[1:, None, None], slope, spec.m1, -0.7)
                    assert got == pytest.approx(
                        enumeration_reference(spec, shift), abs=1e-12), (m, margin)

    def test_iid_vs_permutation_gap_nonzero_under_autoregression(self):
        gap = enumerate_apte(iid_spec(AR_SET)) - enumerate_apte(perm_spec(AR_SET))
        assert abs(gap) > 1e-3

    def test_iid_matches_mean_recursion_oracle(self):
        for pi in (0.3, 0.5, 0.7):
            spec = iid_spec(MIXED, m=9, pi=pi, y_init=1.5)
            assert enumerate_apte(spec) == pytest.approx(
                iid_recursion_oracle(MIXED, 9, pi, 1.5), abs=1e-10
            )

    def test_linearity_in_exposure_effect(self):
        # iid mode: the contrast is beta_x itself, so any carryover is allowed
        base = ArcoParams(beta0=1.0, beta_x=0.6, beta_co=0.3, beta_ar=0.4)
        double = ArcoParams(beta0=1.0, beta_x=1.2, beta_co=0.3, beta_ar=0.4)
        assert enumerate_apte(iid_spec(double, m=6)) == pytest.approx(
            2 * enumerate_apte(iid_spec(base, m=6)), abs=1e-12
        )
        # permutation mode: the assignment-correlated AR chain scales with
        # beta_x only when the exposure is the path's sole driven term
        base_p = ArcoParams(beta0=1.0, beta_x=0.6, beta_ar=0.4)
        double_p = ArcoParams(beta0=1.0, beta_x=1.2, beta_ar=0.4)
        assert enumerate_apte(perm_spec(double_p, m=6, m1=3)) == pytest.approx(
            2 * enumerate_apte(perm_spec(base_p, m=6, m1=3)), abs=1e-12
        )

    def test_iid_converges_to_long_run_effect(self):
        mu = long_run_mean(MIXED, 0.5)
        target = long_run_apte(MIXED, 0.5, mu)
        gaps = [
            abs(enumerate_apte(iid_spec(MIXED, m=m, y_init=MIXED.beta0)) - target)
            for m in (4, 8, 12, 200, 2000)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_default_initial_level_is_mechanism_mean(self):
        explicit = enumerate_apte(perm_spec(AR_SET, y_init=2.0))
        default = enumerate_apte(perm_spec(AR_SET))
        assert explicit == default

    def test_enumeration_caps(self):
        # the reference where enumerating every sequence is still cheap, the closed form beyond
        for spec in (perm_spec(MIXED, m=13, m1=6, y_init=0.4), iid_spec(MIXED, m=16, pi=0.3)):
            assert enumerate_apte(spec) == pytest.approx(enumeration_reference(spec), abs=1e-12)
        for m, m1 in ((222, 111), (222, 40), (730, 365)):
            got = enumerate_apte(perm_spec(AR_SET, m=m, m1=m1))
            assert got == pytest.approx(ar_closed_form(m), abs=1e-12)

    def test_other_modes_margin_rejected(self):
        with pytest.raises(ConfigError, match="iid mode takes pi, not m1"):
            iid_spec(AR_SET, m=8, pi=0.5, m1=3)
        with pytest.raises(ConfigError, match="permutation mode takes m1, not pi"):
            perm_spec(AR_SET, m=8, m1=4, pi=0.3)

    def test_requires_zero_noise(self):
        noisy = ArcoParams(beta0=1.0, beta_x=1.0, sigma_eps=0.5)
        with pytest.raises(ConfigError, match="sigma_eps"):
            perm_spec(noisy, m=6, m1=3)

    def test_permutation_margin_bounds(self):
        with pytest.raises(ConfigError, match="m1"):
            perm_spec(AR_SET, m=6, m1=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, bad):
        with pytest.raises(ConfigError, match="y_init"):
            perm_spec(AR_SET, m=6, m1=3, y_init=bad)

    def test_summation_order_stable(self):
        spec = iid_spec(AR_SET, m=12)
        assert enumerate_apte(spec) == pytest.approx(enumerate_apte(spec), abs=1e-12)
