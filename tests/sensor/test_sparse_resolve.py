"""Properties of the sparse bank kernels.

The bank resolve never forms capture words: it counts each word's
Binary Hamming Distance from the (at most two) taps at the
wavefront, and resolves wavefront indices with one ``searchsorted`` per
chain.  These properties pin both against the dense forms they replace,
on the inputs where a closed form could slip: wavefronts exactly on,
just beside and a window half-width away from a tap, the chain ends,
and uniforms of exactly zero or exactly the pass probability.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SensorError
from repro.sensor import capture
from repro.sensor.capture import (
    METASTABLE_WINDOW_BINS,
    CaptureBank,
    resolve_distances,
    resolve_words,
)
from repro.sensor.carry_chain import CarryChain, bank_wavefront_positions
from repro.sensor.postprocess import batch_hamming_distances
from repro.sensor.trace import Polarity

HALF_WINDOW = METASTABLE_WINDOW_BINS / 2.0


@st.composite
def wavefronts(draw, length):
    """A position in ``[0, length]``: a tap boundary, a half-window
    either side of it, or anywhere -- optionally nudged one ulp."""
    kind = draw(st.sampled_from(["tap", "tap+w", "tap-w", "any"]))
    if kind == "any":
        position = draw(st.floats(0.0, float(length)))
    else:
        tap = draw(st.integers(0, length))
        offset = {"tap": 0.0, "tap+w": HALF_WINDOW, "tap-w": -HALF_WINDOW}
        position = tap + offset[kind]
    nudge = draw(st.sampled_from([0.0, np.inf, -np.inf]))
    if nudge:
        position = float(np.nextafter(position, nudge))
    return min(max(position, 0.0), float(length))


@st.composite
def resolve_cases(draw):
    length = draw(st.sampled_from([1, 2, 3, 8, 64]))
    positions = np.array(draw(st.lists(wavefronts(length), min_size=1,
                                       max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uniforms = rng.random(positions.shape + (length,))
    # Exact zeros always pass a nonzero probability; exact pass
    # probabilities never pass (the comparison is strict).
    uniforms[rng.random(uniforms.shape) < 0.2] = 0.0
    taps = np.arange(length, dtype=float)
    passed = np.clip(
        (positions[:, np.newaxis] - taps) / METASTABLE_WINDOW_BINS + 0.5,
        0.0, 1.0,
    )
    ties = rng.random(uniforms.shape) < 0.2
    uniforms[ties] = np.minimum(passed[ties], np.nextafter(1.0, 0.0))
    return positions, uniforms


class TestResolveDistances:
    @settings(max_examples=200, deadline=None)
    @given(resolve_cases())
    def test_matches_dense_words_both_polarities(self, case):
        positions, uniforms = case
        sparse = resolve_distances(positions, uniforms)
        for polarity in Polarity:
            dense = batch_hamming_distances(
                resolve_words(positions, uniforms, polarity), polarity
            )
            np.testing.assert_array_equal(sparse, dense)

    def test_keeps_leading_axes(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0.0, 64.0, (2, 2, 3, 4))
        uniforms = rng.random(positions.shape + (64,))
        distances = resolve_distances(positions, uniforms)
        assert distances.shape == positions.shape
        dense = batch_hamming_distances(
            resolve_words(positions, uniforms, Polarity.RISING),
            Polarity.RISING,
        )
        np.testing.assert_array_equal(distances, dense)


class TestMetastableWindowGuard:
    def test_module_window_fits_the_closed_form(self):
        assert 0.0 < METASTABLE_WINDOW_BINS <= 1.0

    @pytest.mark.parametrize("bins", [0.0, -0.5, 1.0 + 1e-9, 2.0])
    def test_wider_or_empty_window_rejected(self, bins):
        with pytest.raises(SensorError):
            capture._check_metastable_window(bins)

    def test_one_bin_window_accepted(self):
        assert capture._check_metastable_window(1.0) == 1.0


@st.composite
def bank_times(draw):
    seeds = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=4,
                          unique=True))
    length = draw(st.sampled_from([1, 4, 64]))
    chains = [CarryChain(length=length, nominal_bin_ps=2.8, seed=s)
              for s in seeds]
    count = draw(st.integers(1, 10))
    rows = []
    for chain in chains:
        row = []
        for _ in range(count):
            kind = draw(st.sampled_from(
                ["boundary", "below", "zero", "total", "beyond", "any"]
            ))
            total = chain.total_delay_ps
            if kind == "boundary":
                row.append(chain._boundaries[draw(st.integers(0, length))])
            elif kind == "below":
                row.append(-draw(st.floats(0.0, 100.0)))
            elif kind == "zero":
                row.append(0.0)
            elif kind == "total":
                row.append(total)
            elif kind == "beyond":
                row.append(total + draw(st.floats(0.0, 100.0)))
            else:
                row.append(draw(st.floats(-10.0, total + 10.0)))
        rows.append(row)
    return chains, np.array(rows)


class TestBankWavefrontProperty:
    @settings(max_examples=150, deadline=None)
    @given(bank_times())
    def test_matches_per_chain_positions(self, case):
        chains, times = case
        stacked = bank_wavefront_positions(chains, times)
        for row, chain in enumerate(chains):
            np.testing.assert_array_equal(
                stacked[row], chain.wavefront_positions(times[row])
            )


class TestInPlaceUniforms:
    def test_out_draw_is_the_same_stream(self):
        fresh = CaptureBank(length=8, seed=5)
        in_place = CaptureBank(length=8, seed=5)
        buffer = np.empty((2, 3, 4, 8))
        drawn = in_place.draw_uniforms((3, 4), out=buffer[1])
        assert np.shares_memory(drawn, buffer)
        np.testing.assert_array_equal(buffer[1], fresh.draw_uniforms((3, 4)))
        # The streams stay aligned after the in-place draw.
        np.testing.assert_array_equal(
            in_place.draw_uniforms((2,)), fresh.draw_uniforms((2,))
        )

    def test_out_shape_mismatch_rejected(self):
        bank = CaptureBank(length=8, seed=5)
        with pytest.raises(SensorError):
            bank.draw_uniforms((3, 4), out=np.empty((3, 4, 7)))
