"""Capture registers: sampling the carry chain into a binary word.

The capture clock snapshots every chain tap simultaneously.  Registers
behind the wavefront have settled to the post-transition value; registers
ahead still hold the pre-transition value; the register *at* the
wavefront is metastable and resolves randomly, occasionally producing the
small "bubble" regions visible in the paper's Figure 3 examples.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SensorError
from repro.rng import SeedLike, make_rng
from repro.sensor.trace import Polarity


def _check_metastable_window(bins: float) -> float:
    """Reject a metastable window wider than one bin.

    :func:`resolve_distances` examines only taps ``floor(position)``
    and ``floor(position) + 1``; that is exact only while every other
    tap lies a full bin or more from the wavefront.
    """
    if not 0.0 < bins <= 1.0:
        raise SensorError(
            f"metastable window must be in (0, 1] bins, got {bins}"
        )
    return bins


#: Registers within this many bins of the wavefront can resolve randomly.
METASTABLE_WINDOW_BINS = _check_metastable_window(0.8)


def resolve_words(
    positions: np.ndarray, uniforms: np.ndarray, polarity: Polarity
) -> np.ndarray:
    """Resolve wavefront positions against pre-drawn metastability uniforms.

    ``positions`` has any shape; ``uniforms`` appends the tap axis
    (``positions.shape + (length,)``).  This is the raw-words path for
    callers that keep the capture words (traces, archives); a caller
    that needs only each word's Hamming distance uses
    :func:`resolve_distances`.
    """
    length = uniforms.shape[-1]
    taps = np.arange(length, dtype=float)
    passed = np.clip(
        (positions[..., np.newaxis] - taps) / METASTABLE_WINDOW_BINS + 0.5,
        0.0,
        1.0,
    )
    resolved = uniforms < passed
    if polarity is Polarity.RISING:
        return resolved
    return ~resolved


def resolve_distances(
    positions: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Binary Hamming distance of every word :func:`resolve_words` would
    resolve, without resolving the words.

    Both polarities give the same distance: a rising word counts its
    ones, a falling word (the complement) its zeros, and either way that
    is the number of taps whose uniform falls below their ``passed``
    probability.  With a metastable window of at most one bin, every tap
    below ``floor(p)`` is at least a bin behind the wavefront, so
    ``passed == 1`` and any uniform in ``[0, 1)`` counts; every tap above
    ``floor(p) + 1`` has ``passed == 0``.  Only the two candidate taps
    ``floor(p)`` and ``floor(p) + 1`` need :func:`resolve_words`'s exact
    comparison -- O(words) work instead of O(words x taps).  Returns
    integer distances of ``positions.shape``.
    """
    positions = np.asarray(positions, dtype=float)
    length = uniforms.shape[-1]
    floor = np.floor(positions).astype(np.intp)
    distances = np.clip(floor, 0, length)
    word_offsets = np.arange(positions.size).reshape(positions.shape) * length
    flat = uniforms.reshape(-1)
    for offset in (0, 1):
        taps = floor + offset
        inside = (taps >= 0) & (taps < length)
        drawn = flat[word_offsets + np.clip(taps, 0, length - 1)]
        passed = np.clip(
            (positions - taps) / METASTABLE_WINDOW_BINS + 0.5, 0.0, 1.0
        )
        distances += inside & (drawn < passed)
    return distances


class CaptureBank:
    """Samples a fractional wavefront position into a capture word."""

    def __init__(self, length: int, seed: SeedLike = None) -> None:
        if length <= 0:
            raise SensorError(f"bank length must be positive, got {length}")
        self.length = length
        self._rng = make_rng(seed)
        self._taps = np.arange(length, dtype=float)

    def capture(self, position: float, polarity: Polarity) -> np.ndarray:
        """One capture word for a wavefront at ``position`` elements.

        For a rising launch, taps behind the wavefront read 1 and taps
        ahead read 0; a falling launch is the complement.  Taps within
        the metastable window of the wavefront resolve probabilistically
        with the wavefront's fractional coverage.
        """
        if not 0.0 <= position <= self.length:
            raise SensorError(
                f"position {position} outside chain [0, {self.length}]"
            )
        # Probability that each tap has seen the transition pass.
        passed = np.clip(
            (position - self._taps) / METASTABLE_WINDOW_BINS + 0.5, 0.0, 1.0
        )
        resolved = self._rng.random(self.length) < passed
        if polarity is Polarity.RISING:
            return resolved
        return ~resolved

    def draw_uniforms(
        self, shape: tuple, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Metastability uniforms for a batch, as one C-order draw.

        Consumes this bank's generator stream exactly as
        :meth:`capture_batch` would for positions of ``shape``.  With
        ``out`` (C-contiguous, ``shape + (length,)``) the draw fills it
        in place -- the same stream, no copy -- so a bank-level kernel
        can draw every route straight into one shared tensor.
        """
        shape = tuple(shape) + (self.length,)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise SensorError(
                f"uniform buffer has shape {out.shape}, need {shape}"
            )
        return self._rng.random(out=out)

    def capture_batch(
        self, positions: np.ndarray, polarity: Polarity
    ) -> np.ndarray:
        """Capture words for a whole batch of wavefront positions at once.

        ``positions`` may have any shape (a measurement uses ``(traces,
        samples)``); the result appends a tap axis, giving boolean words
        of shape ``positions.shape + (length,)``.

        The metastability uniforms come from one C-order ``random`` draw,
        which consumes the generator stream in exactly the order the
        scalar :meth:`capture` would over the same positions -- so for a
        jitter-free noise model the batched and scalar paths produce
        identical words from identical seeds.
        """
        positions = np.asarray(positions, dtype=float)
        if positions.size and (
            positions.min() < 0.0 or positions.max() > self.length
        ):
            raise SensorError(
                f"batch positions outside chain [0, {self.length}]"
            )
        passed = np.clip(
            (positions[..., np.newaxis] - self._taps) / METASTABLE_WINDOW_BINS
            + 0.5,
            0.0,
            1.0,
        )
        resolved = self._rng.random(positions.shape + (self.length,)) < passed
        if polarity is Polarity.RISING:
            return resolved
        return ~resolved
