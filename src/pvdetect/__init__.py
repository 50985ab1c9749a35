"""pvdetect: rooftop solar PV array detection in RGB aerial imagery.

The pipeline has four stages: window-statistics feature extraction over
integral images, a random-forest pixel classifier producing a confidence
map, confidence-map post-processing that grows constant-valued regions
around strong local maxima, and connected-component object extraction.
Evaluation covers pixel-level and object-level precision/recall with
Jaccard-overlap matching.
"""

from .config import RunConfig, load_config, parse_config
from .detection import (
    DetectionObject,
    PPParams,
    extract_objects,
    filter_maxima,
    load_confidence_map,
    nonmax_suppress,
    otsu_threshold,
    postprocess,
    save_confidence_map,
)
from .errors import (
    AnnotationError,
    ChannelCountError,
    ConfigError,
    DataError,
    InputError,
    ModelChecksumError,
    ModelFormatError,
    ModelVersionError,
    PVDetectError,
    RasterFormatError,
    TruncatedRasterError,
)
from .features import FeatureSpec, feature_planes, integral_tables, ring_offsets
from .forest import (
    DecisionTree,
    RandomForest,
    RFParams,
    TrainingSet,
    best_split,
    gini,
    grow_tree,
    load_model,
    predict_tile,
    sample_training_pixels,
    save_model,
    train,
)
from .imagery import (
    DatasetManifest,
    ImageTile,
    ManifestEntry,
    PolygonAnnotation,
    load_annotations,
    load_manifest,
    load_tile,
    polygon_pixels,
    rasterize,
    save_annotations,
    save_manifest,
    save_tile,
)
from .scoring import (
    PRCurve,
    jaccard,
    judge_detections,
    multi_tile_object_pr,
    pixel_pr,
    read_pr_csv,
    write_pr_csv,
    write_pr_svg,
)
from .synth import SceneParams, generate_scene, params_for_prevalence

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
