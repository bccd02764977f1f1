import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abthmm.divergence import (
    SyntheticEmissionSpec,
    default_n_symbols,
    divergence_table,
    jsd_all,
    js_divergence,
    kl_divergence,
    synth_emissions,
)
from abthmm.validation import SYMBOL_CAP, SymbolCapError

RATIOS = (0.0, 0.25, 1.0, 2.5, 5.0)

# frozen from a standalone recomputation of the same formulas
KLD_6 = (0.0, 0.18033686467262122, 2.8853900817779263,
         18.03368801111204, 72.13475204444816)
JSD_6 = (0.0, 0.04372996294430929, 0.4859054608722593,
         0.975695842073671, 0.9999984165812112)
JSD_ALL_6 = (0.0, 0.39303241405743694, 1.7154519727497761,
             2.544455570830739, 2.5849598616898417)
JSD_ALL_16 = (0.0, 1.2752544054478228, 3.0194056224848063,
              3.954429703870805, 3.999997031089771)


def dirichlet_rows(rng, k, j):
    return rng.dirichlet(np.ones(j), size=k)


def test_kl_hand_value():
    got = kl_divergence([0.75, 0.25], [0.5, 0.5])
    assert got == pytest.approx(0.18872187554086717, abs=1e-15)


def test_kl_infinite_off_support():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_frozen_grid_n6():
    for ratio, kld, jsd, all6 in zip(RATIOS, KLD_6, JSD_6, JSD_ALL_6):
        rows = synth_emissions(SyntheticEmissionSpec(6, ratio))
        assert kl_divergence(rows[0], rows[1]) == pytest.approx(kld, rel=1e-12, abs=1e-12)
        assert js_divergence(rows[0], rows[1]) == pytest.approx(jsd, rel=1e-12, abs=1e-12)
        assert jsd_all(rows) == pytest.approx(all6, rel=1e-12, abs=1e-12)


def test_frozen_grid_n16():
    for ratio, all16 in zip(RATIOS, JSD_ALL_16):
        rows = synth_emissions(SyntheticEmissionSpec(16, ratio))
        assert jsd_all(rows) == pytest.approx(all16, rel=1e-12, abs=1e-12)


def test_identical_rows_give_exact_zeros():
    rows = synth_emissions(SyntheticEmissionSpec(6, 0.0))
    assert kl_divergence(rows[0], rows[1]) == 0.0
    assert js_divergence(rows[0], rows[1]) == 0.0
    assert jsd_all(rows) == 0.0


def test_divergences_increase_with_ratio():
    for n in (6, 16):
        klds, jsds, alls = [], [], []
        for ratio in RATIOS:
            rows = synth_emissions(SyntheticEmissionSpec(n, ratio))
            klds.append(kl_divergence(rows[0], rows[1]))
            jsds.append(js_divergence(rows[0], rows[1]))
            alls.append(jsd_all(rows))
        assert all(b > a for a, b in zip(klds, klds[1:]))
        assert all(b > a for a, b in zip(jsds, jsds[1:]))
        assert all(b > a for a, b in zip(alls, alls[1:]))
        assert jsds[-1] <= 1.0 + 1e-12
        assert alls[-1] <= math.log2(n) + 1e-9


def test_synth_rows_are_distributions():
    rows = synth_emissions(SyntheticEmissionSpec(6, 1.0))
    assert rows.shape == (6, default_n_symbols(6, 1.0))
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert (rows > 0).all()
    # peak sits at the integer closest to each center: 8 + 2 i with SIGMA = 2
    assert list(rows.argmax(axis=1)) == [8, 10, 12, 14, 16, 18]


def test_synth_rows_too_small_alphabet():
    with pytest.raises(ValueError) as err:
        synth_emissions(SyntheticEmissionSpec(6, 1.0, n_symbols=16))
    assert "too small" in str(err.value)
    assert "26" in str(err.value)


def test_synth_rows_refuse_a_span_past_the_symbol_cap_in_a_given_alphabet():
    with pytest.raises(SymbolCapError, match=f"needs inf symbols, more than the cap of {SYMBOL_CAP}"):
        synth_emissions(SyntheticEmissionSpec(3, 1e308, n_symbols=100))


def test_default_n_symbols_floor():
    assert default_n_symbols(6, 0.0) == 16
    assert default_n_symbols(6, 1.0) == 30
    assert default_n_symbols(16, 5.0) == 186


def test_divergence_table_layout():
    table = divergence_table((6, 16), RATIOS)
    assert len(table) == 10
    assert table[0] == (0.0, 6, 0.0, 0.0, 0.0)
    by_key = {(row[0], row[1]): row for row in table}
    assert by_key[(5.0, 16)][4] == pytest.approx(JSD_ALL_16[-1], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_kl_nonnegative_and_jsd_bounded(j, seed):
    rng = np.random.default_rng(seed)
    p, q = dirichlet_rows(rng, 2, j)
    assert kl_divergence(p, q) >= -1e-12
    d = js_divergence(p, q)
    assert -1e-12 <= d <= 1.0 + 1e-12
    assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_jsd_all_between_zero_and_log_k(k, j, seed):
    rng = np.random.default_rng(seed)
    rows = dirichlet_rows(rng, k, j)
    val = jsd_all(rows)
    assert -1e-12 <= val <= math.log2(k) + 1e-9


def test_jsd_all_weighted_matches_two_row_jsd():
    rng = np.random.default_rng(4)
    p, q = dirichlet_rows(rng, 2, 8)
    assert jsd_all([p, q]) == pytest.approx(js_divergence(p, q), abs=1e-12)


@pytest.mark.parametrize("field, kwargs", [
    ("ratio", dict(ratio=math.inf)),
    ("ratio", dict(ratio=-math.inf)),
    ("ratio", dict(ratio=math.nan)),
])
def test_synthetic_spec_rejects_non_finite_values(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SyntheticEmissionSpec(6, **kwargs)
