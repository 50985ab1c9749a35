"""Run configuration: a flat key = value file with pipeline defaults.

Every knob of the pipeline has a default here; a config file only lists
overrides.  Serialization is canonical (fixed key order, 17-digit floats),
so a config hash identifies a run and a round-trip through text preserves
equality exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .detection import PPParams
from .errors import ConfigError
from .features import FeatureSpec
from .forest import RFParams, check_forest_size
from .imagery import read_text
from .synth import SceneParams

# cmd_train holds every train scene at once, so no config may ask it to hold
# more than this many pixels: ten 5000 x 5000 tiles, 0.75 GiB of RGB
TRAIN_SCENE_PIXELS = 2**28


@dataclass(frozen=True)
class RunConfig:
    """All pipeline parameters plus dataset/synthesis settings.

    Besides the parameter classes' own checks, one bound covers the scene
    count: train_scenes x scene_width x scene_height, the pixels cmd_train
    holds at once, may not pass TRAIN_SCENE_PIXELS (2**28).  It is checked
    here, before any stage starts, so `scenes = 100000000` is a ConfigError
    and not a run that writes scenes until memory or disk runs out.
    """

    seed: int = 0
    threads: int = 1
    manifest: str = ""

    # feature extraction
    window_side: int = FeatureSpec.window_side
    ring_radii: tuple[int, ...] = FeatureSpec.ring_radii

    # random forest
    trees: int = RFParams.n_trees
    features_per_node: int = RFParams.features_per_node
    min_leaf: int = RFParams.min_leaf
    train_pixels: int = 200_000

    # post-processing
    nms_side: int = PPParams.nms_side
    confidence_floor: float = PPParams.confidence_floor
    otsu_side: int = PPParams.otsu_side
    closing_radius: int = PPParams.closing_radius
    dilation_radius: int = PPParams.dilation_radius

    # scoring
    jaccard_levels: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7)

    # synthetic scenes
    scenes: int = 10
    scene_width: int = SceneParams.width
    scene_height: int = SceneParams.height
    panels_per_scene: int = SceneParams.n_panels
    panel_side_min: int = SceneParams.panel_side_min
    panel_side_max: int = SceneParams.panel_side_max
    noise_sigma: float = SceneParams.noise_sigma

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.train_pixels < 2:
            raise ConfigError(f"train_pixels must be >= 2, got {self.train_pixels}")
        if not self.jaccard_levels or any(
            not 0.0 < j <= 1.0 for j in self.jaccard_levels
        ):
            raise ConfigError(f"jaccard_levels must lie in (0, 1]: {self.jaccard_levels}")
        if self.scenes < 1:
            raise ConfigError(f"scenes must be >= 1, got {self.scenes}")
        # delegate the remaining invariants to the parameter classes
        self.feature_spec()
        self.rf_params()
        self.pp_params()
        self.scene_params(0)
        check_forest_size(self.trees, self.train_pixels, self.min_leaf)
        held = self.train_scenes * self.scene_width * self.scene_height
        if held > TRAIN_SCENE_PIXELS:
            raise ConfigError(
                f"scenes: {self.train_scenes} train scenes of {self.scene_width}x"
                f"{self.scene_height} hold {held} pixels, past 2**28"
            )

    @property
    def train_scenes(self) -> int:
        """Train scenes of the 2:1 train/test split of `scenes` scenes."""
        return (2 * self.scenes + 2) // 3

    def feature_spec(self) -> FeatureSpec:
        return FeatureSpec(self.window_side, self.ring_radii)

    def rf_params(self) -> RFParams:
        return RFParams(
            n_trees=self.trees,
            features_per_node=self.features_per_node,
            min_leaf=self.min_leaf,
            seed=self.seed,
        )

    def pp_params(self) -> PPParams:
        return PPParams(
            nms_side=self.nms_side,
            confidence_floor=self.confidence_floor,
            otsu_side=self.otsu_side,
            closing_radius=self.closing_radius,
            dilation_radius=self.dilation_radius,
        )

    def scene_params(self, index: int) -> SceneParams:
        """Parameters of the index-th synthetic scene of this run."""
        return SceneParams(
            width=self.scene_width,
            height=self.scene_height,
            n_panels=self.panels_per_scene,
            panel_side_min=self.panel_side_min,
            panel_side_max=self.panel_side_max,
            noise_sigma=self.noise_sigma,
            seed=(self.seed * 1_000_003 + index) & ((1 << 64) - 1),
        )

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                text = ",".join(
                    format(v, ".17g") if isinstance(v, float) else str(v)
                    for v in value
                )
            elif isinstance(value, float):
                text = format(value, ".17g")
            else:
                text = str(value)
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def replace(self, **overrides) -> "RunConfig":
        return replace(self, **overrides)


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines; '#' starts a comment, unknown keys fail.

    A value takes its default's type; a tuple is comma-separated values of
    its default's item type.
    """
    defaults = RunConfig()
    names = {f.name for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in names:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        default = getattr(defaults, key)
        try:
            if isinstance(default, tuple):
                item = type(default[0])
                values[key] = tuple(item(v) for v in value.split(",") if v.strip())
            else:
                values[key] = type(default)(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    return parse_config(read_text(path, "config", ConfigError))
