"""Annotated pixels travel as sorted flat indices y * width + x.

sample_training_pixels and pixel_pr take one such array per tile.  These
tests hold the sampler to the boolean-mask reference in oracles (pixel_pr
meets its mask reference in test_scoring), and check that either entry
point rejects any other form with DataError.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from oracles import mask_training_set
from pvdetect.errors import ConfigError, DataError
from pvdetect.features import FeatureSpec
from pvdetect.forest import sample_training_pixels
from pvdetect.imagery import ImageTile
from pvdetect.scoring import pixel_pr
from test_scoring import label_mask

SPEC = FeatureSpec()


@st.composite
def labelled_tiles(draw):
    """1-3 small random tiles, each with a label_mask."""
    tiles, masks = [], []
    for t in range(draw(st.integers(1, 3))):
        h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        tiles.append(ImageTile(draw(hnp.arrays(np.uint8, (h, w, 3))), f"t{t}"))
        masks.append(label_mask(draw, (h, w)))
    return tiles, masks


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(labelled_tiles(), st.data())
def test_flat_positives_match_mask_sampler(case, data):
    tiles, masks = case
    positives = [np.flatnonzero(m) for m in masks]
    n_pos = sum(p.size for p in positives)
    total_neg = sum(m.size for m in masks) - n_pos
    seed = data.draw(st.integers(0, 2**32))
    if n_pos == 0:
        with pytest.raises(DataError):
            sample_training_pixels(tiles, positives, SPEC, 1, seed)
    elif total_neg == 0:
        with pytest.raises(ConfigError):
            sample_training_pixels(tiles, positives, SPEC, n_pos + 1, seed)
    else:
        n_total = n_pos + data.draw(st.integers(1, total_neg))
        got = sample_training_pixels(tiles, positives, SPEC, n_total, seed)
        want = mask_training_set(tiles, masks, SPEC, n_total, seed)
        assert_same_bits(got.codes, want.codes)
        assert_same_bits(got.labels, want.labels)
        for a, b in zip(got.values, want.values, strict=True):
            assert_same_bits(a, b)


MALFORMED = {
    "unsorted": [5, 2],
    "duplicated": [2, 2, 5],
    "negative": [-1, 2],
    "past the tile": [2, 16],
    "2-D": [[2, 5]],
    "not integers": [2.0, 5.0],
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_positives_raise_data_error(name):
    tile = ImageTile(np.zeros((4, 4, 3), dtype=np.uint8), "t")
    positives = np.array(MALFORMED[name])
    with pytest.raises(DataError):
        sample_training_pixels([tile], [positives], SPEC, 8, seed=0)
    with pytest.raises(DataError):
        pixel_pr([np.full((4, 4), 0.5)], [positives])
