from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvdetect.config import RunConfig, load_config, parse_config
from pvdetect.detection import PPParams, nonmax_suppress
from pvdetect.errors import ConfigError, InputError
from pvdetect.features import FeatureSpec
from pvdetect.forest import RFParams


def test_defaults_match_documented_parameter_table():
    config = RunConfig()
    assert config.trees == 30
    assert config.feature_spec().feature_count == 102
    assert config.rf_params().resolve_m(102) == 10
    assert config.min_leaf == 5
    assert config.nms_side == 9
    assert config.confidence_floor == 0.375
    assert config.otsu_side == 19
    assert config.closing_radius == 5
    assert config.dilation_radius == 2
    assert config.window_side == 3
    assert config.ring_radii == (2, 4)
    assert config.jaccard_levels == (0.1, 0.3, 0.5, 0.7)
    assert config.train_pixels == 200_000


def test_round_trip_equality():
    config = RunConfig(seed=42, trees=5, jaccard_levels=(0.25, 0.5), manifest="m.txt")
    assert parse_config(config.to_text()) == config
    assert RunConfig().digest() != config.digest()
    assert config.digest() == parse_config(config.to_text()).digest()


def test_parse_overrides_and_comments():
    text = """
# a comment
seed = 9
trees = 3      # inline comment
ring_radii = 2,3,5
jaccard_levels = 0.5
"""
    config = parse_config(text)
    assert config.seed == 9
    assert config.trees == 3
    assert config.ring_radii == (2, 3, 5)
    assert config.jaccard_levels == (0.5,)


def test_parse_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config("trees = many\n")
    with pytest.raises(ConfigError):
        parse_config("just some text\n")
    # pixel PR has one exact sweep and no key to choose it
    for mode in ("exact", "quantized"):
        with pytest.raises(ConfigError, match="unknown key 'sweep'"):
            parse_config(f"sweep = {mode}\n")


def test_invariants_enforced():
    with pytest.raises(ConfigError):
        RunConfig(nms_side=8)  # must be odd
    with pytest.raises(ConfigError):
        RunConfig(confidence_floor=1.5)
    with pytest.raises(ConfigError):
        RunConfig(window_side=2)
    with pytest.raises(ConfigError):
        RunConfig(jaccard_levels=())
    with pytest.raises(ConfigError):
        RunConfig(threads=0)
    with pytest.raises(ConfigError):
        parse_config("nms_side = 8\n")


def test_forest_size_bound_counts_worst_case_nodes_and_a_cost_per_tree():
    # trees * (2 floor(train_pixels / min_leaf) + 1024) may reach 2**27 exactly
    for trees, train_pixels, min_leaf in [
        (1656, 200_000, 5),  # the default rows: 1656 * 81,024 slots
        (4096, 15_872, 1),  # 4096 * 32,768
        (131_072, 4, 5),  # trees too small to split still count 1024 each
    ]:
        RunConfig(trees=trees, train_pixels=train_pixels, min_leaf=min_leaf)
        with pytest.raises(ConfigError, match=f"^trees: {trees + 1} trees on {train_pixels} "):
            RunConfig(trees=trees + 1, train_pixels=train_pixels, min_leaf=min_leaf)
    with pytest.raises(ConfigError, match="2 floor\\(train_pixels / min_leaf\\) \\+ 1024"):
        RunConfig(trees=100_000_000, train_pixels=500)


def test_scene_pixel_bound_counts_the_train_scenes_held_at_once():
    """train_scenes x scene_width x scene_height may reach 2**28, not pass it."""
    side = 2**14
    assert RunConfig(scenes=1, scene_width=side, scene_height=side).train_scenes == 1
    with pytest.raises(ConfigError, match="^scenes: 2 train scenes of 16384x16384 hold"):
        RunConfig(scenes=2, scene_width=side, scene_height=side)
    # 2**28 / (512 x 512) = 1024 train scenes, the 2:1 split of 1535 or 1536
    assert RunConfig(scenes=1536).train_scenes == 1024
    with pytest.raises(ConfigError, match="past 2\\*\\*28"):
        RunConfig(scenes=1537)


def test_window_sides_share_one_rule_and_message():
    for side in (4, 1, 0, -3):
        for name, make in (
            ("nms_side", lambda v: PPParams(nms_side=v)),
            ("otsu_side", lambda v: PPParams(otsu_side=v)),
            ("window_side", lambda v: FeatureSpec(window_side=v)),
            ("nms_side", lambda v: nonmax_suppress(np.zeros((4, 4)), v)),
        ):
            with pytest.raises(ConfigError, match=f"^{name} must be odd and >= 3, got {side}$"):
                make(side)


def test_features_per_node_zero_means_floor_sqrt_in_rf_params_and_run_config():
    assert RFParams().features_per_node == RunConfig().features_per_node == 0
    assert RunConfig().rf_params() == RFParams()
    assert [RFParams().resolve_m(m) for m in (1, 3, 4, 102, 120, 121)] == [1, 1, 2, 10, 10, 11]
    assert RunConfig(features_per_node=7).rf_params().resolve_m(102) == 7
    for bad in (-1, 103):
        with pytest.raises(ConfigError, match="features_per_node"):
            RunConfig(features_per_node=bad).rf_params().resolve_m(102)


def test_scene_params_derived_per_index():
    config = RunConfig(seed=5)
    a = config.scene_params(0)
    b = config.scene_params(1)
    assert a.seed != b.seed
    assert a.width == config.scene_width
    assert config.scene_params(0) == a


def test_replace_preserves_unmentioned_fields():
    config = RunConfig(trees=7)
    bumped = config.replace(seed=3)
    assert bumped.trees == 7 and bumped.seed == 3
    assert config.seed == 0


def test_load_config_non_utf8_is_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 1\xff\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_config(tmp_path / "absent.cfg")
    path = tmp_path / "ok.cfg"
    path.write_text("seed = 4\n")
    assert load_config(path).seed == 4


_CONFIG_KEY = st.sampled_from([f.name for f in fields(RunConfig)] + ["sweep", "Trees", ""])
_CONFIG_VALUE = (
    st.integers(-2, 40).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["", "1_0", "0x1f", "1e3", "nan", "-inf", " 3 ", "a=b", ",", "2,,4"])
    | st.text(max_size=6)
)


def _near(default):
    """Texts of values of the default's type near it, most of them valid:
    ints keep their parity (odd window sides stay odd), floats lie in [0, 1]."""
    if isinstance(default, tuple):
        items = st.lists(_near(default[0]), min_size=1, max_size=4)
        return items.map(lambda texts: ",".join(sorted(texts, key=float)))
    if isinstance(default, float):
        return st.floats(0, 1).map(lambda v: format(v, ".17g"))
    if isinstance(default, int):
        return st.integers(-1, 3).map(lambda k: str(default + 2 * k))
    return st.text(max_size=6)


@st.composite
def config_texts(draw):
    """key = value lines, most of them on known keys with values near the
    defaults, with comments, blank lines and lines of any text."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            lines.append(draw(st.text(max_size=12)))
        elif kind == 1:
            lines.append(draw(st.sampled_from(["", "# note", "  ", "trees"])))
        else:
            key = draw(_CONFIG_KEY)
            near = _near(getattr(RunConfig, key, ""))
            value = draw(_CONFIG_VALUE | near if kind == 2 else near)
            comment = draw(st.sampled_from(["", " # note", "#"]))
            lines.append(f"{key} = {value}{comment}")
    return "\n".join(lines)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.text() | config_texts())
def test_parse_config_fuzz(text):
    """Any text parses or raises ConfigError, and a config that parses
    comes back equal from its own text."""
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert parse_config(config.to_text()) == config
