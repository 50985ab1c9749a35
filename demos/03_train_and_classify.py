"""Train the random-forest pixel classifier and score a held-out scene.

Covers training-pixel sampling (all positives + uniform negatives),
deterministic training, the model file format, and confidence maps.
"""

import tempfile
from pathlib import Path

import numpy as np

import pvdetect as pv
from pvdetect.forest import dump_model, predict_tile, sample_training_pixels

spec = pv.FeatureSpec()


def scene(seed):
    params = pv.SceneParams(width=192, height=192, n_panels=4, seed=seed)
    return pv.generate_scene(params, f"scene_{seed}")


# each tile's annotated pixels as sorted flat indices y * width + x
train_tiles, train_positives = [], []
for seed in (1, 2, 3):
    tile, annotations = scene(seed)
    train_tiles.append(tile)
    train_positives.append(pv.rasterize(annotations, tile.width, tile.height))

training = sample_training_pixels(train_tiles, train_positives, spec, 20_000, seed=0)
n_pos = int(training.labels.sum())
print(f"training set: {training.labels.size} pixels"
      f" ({n_pos} PV, {training.labels.size - n_pos} background)")

params = pv.RFParams(n_trees=10, seed=42)
model = pv.train(training, params, spec.fingerprint())
print(f"forest: {model.n_trees} trees,"
      f" {[t.n_nodes for t in model.trees]} nodes each")

again = pv.train(training, params, spec.fingerprint())
assert dump_model(model) == dump_model(again)
print("retraining with the same seed is byte-identical")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.pvforest"
    pv.save_model(model, path)
    print(f"\nmodel file ({path.stat().st_size} bytes) starts with:")
    for line in path.read_text().splitlines()[:6]:
        print(f"  {line}")
    reloaded = pv.load_model(path)

test_tile, test_annotations = scene(99)
conf = predict_tile(reloaded, test_tile, spec)
positives = pv.rasterize(test_annotations, test_tile.width, test_tile.height)
print(f"\nconfidence map: mean on PV pixels {conf.ravel()[positives].mean():.3f},"
      f" on background {np.delete(conf.ravel(), positives).mean():.4f}")

curve = pv.pixel_pr([conf], [positives])
print(f"pixel PR sweep over {curve.thresholds.size} thresholds,"
      f" prevalence {curve.prevalence:.4f}")
print(f"best precision at recall >= 0.8: {curve.best_precision_at(0.8):.3f}")
