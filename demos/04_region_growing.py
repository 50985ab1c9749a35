"""Confidence-map post-processing, step by step.

Builds a toy confidence map with two hot spots and a weak distractor,
then walks the enhancement stages: non-maximum suppression, the global
confidence floor, Otsu region growing, and morphological smoothing.
"""

import numpy as np

import pvdetect as pv
from pvdetect.detection import filter_maxima, nonmax_suppress

conf = np.zeros((40, 40))
conf[8:14, 6:13] = 0.92        # a strong blob
conf[9:12, 8:11] = 0.97        # with an interior peak
conf[26:31, 24:30] = 0.81      # a second, separate blob
conf[30, 33] = 0.30            # a weak distractor below the floor
conf += 0.02 * np.abs(np.sin(np.arange(1600).reshape(40, 40)))  # faint texture
conf = np.clip(conf, 0.0, 1.0)

params = pv.PPParams()
print(f"parameters: NMS {params.nms_side}x{params.nms_side},"
      f" floor {params.confidence_floor}, crop {params.otsu_side}x{params.otsu_side},"
      f" closing r={params.closing_radius}, dilation r={params.dilation_radius}")

# maxima and seeds are sorted flat indices y * width + x, like object pixels
maxima = nonmax_suppress(conf, params.nms_side)
print(f"\nlocal maxima: {len(maxima)}, flat indices {maxima[:6].tolist()} ...")
survivors = filter_maxima(conf, maxima, params.confidence_floor)
print(f"above the floor: {len(survivors)}")
ys, xs = np.divmod(survivors, conf.shape[1])
for y, x in zip(ys.tolist(), xs.tolist()):
    print(f"  seed ({x},{y}) at confidence {conf[y, x]:.2f}")

crop = conf[max(0, ys[0] - 9) : ys[0] + 10, max(0, xs[0] - 9) : xs[0] + 10]
threshold = pv.otsu_threshold(crop.ravel())
print(f"\nOtsu threshold of the first seed's crop: {threshold:.4f}"
      f" ({int((crop >= threshold).sum())} of {crop.size} crop pixels foreground)")

enhanced = pv.postprocess(conf, params)
print(f"\nenhanced map: {int((enhanced > 0).sum())} nonzero pixels"
      f" (raw map had {int((conf > 0.375).sum())} above the floor)")
print(f"distinct region values: {np.unique(enhanced[enhanced > 0]).round(2).tolist()}")

objects = pv.extract_objects(enhanced)
print(f"\ndetected objects: {len(objects)}")
for obj in objects:
    min_x, min_y, max_x, max_y = obj.bbox
    print(f"  area {obj.area:3d} px, confidence {obj.confidence:.2f},"
          f" bbox ({min_x},{min_y})..({max_x},{max_y})")
