"""Generate a synthetic aerial scene and inspect its ground truth.

Walks through the imagery layer: scene synthesis, P6 round-tripping,
polygon annotations and their rasterization to annotated pixels, the sorted
flat indices y * width + x that training and scoring take.
"""

import tempfile
from pathlib import Path

import numpy as np

import pvdetect as pv

params = pv.SceneParams(width=256, height=256, n_panels=5, seed=7)
tile, annotations = pv.generate_scene(params, "demo_scene")
print(f"scene: {tile.width}x{tile.height}, {len(annotations)} panels")

for a in annotations:
    x0, y0 = a.vertices[0]
    x1, y1 = a.vertices[2]
    print(f"  {a.polygon_id}: ({x0:.0f},{y0:.0f}) .. ({x1:.0f},{y1:.0f})"
          f"  [{int(x1 - x0)}x{int(y1 - y0)} px]")

with tempfile.TemporaryDirectory() as tmp:
    image_path = Path(tmp) / "demo_scene.ppm"
    ann_path = Path(tmp) / "demo_scene.csv"
    pv.save_tile(tile, image_path)
    pv.save_annotations(annotations, ann_path)
    print(f"\nwrote {image_path.stat().st_size} byte P6 tile"
          f" and {len(annotations)} annotation rows")

    again = pv.load_tile(image_path)
    assert np.array_equal(again.pixels, tile.pixels), "P6 round-trip must be exact"
    print("reloaded tile is pixel-identical")

    positives = pv.rasterize(pv.load_annotations(ann_path), tile.width, tile.height)
    print(f"\nannotated pixels: {positives.size} PV pixels"
          f" -> prevalence {positives.size / (tile.width * tile.height):.4f}")
    painted = np.concatenate([
        (np.arange(int(a.vertices[0][1]), int(a.vertices[2][1]))[:, None] * tile.width
         + np.arange(int(a.vertices[0][0]), int(a.vertices[2][0]))).ravel()
        for a in annotations
    ])
    print("annotated pixels equal the painted rectangles exactly:",
          np.array_equal(positives, np.sort(painted)))
