"""Window-statistics features from integral images.

Shows the ring geometry, the exact integer prefix tables, and how the
102-dimensional per-pixel descriptor is read from six box-filtered planes:
feature f of pixel p is values[base[p] + offsets[f]].
"""

import numpy as np

import pvdetect as pv

spec = pv.FeatureSpec()
print(f"window side {spec.window_side}, rings {spec.ring_radii}"
      f" -> {len(spec.window_offsets())} windows x 6 = {spec.feature_count} features")
print("ring r=2 window centers:", pv.ring_offsets(2))

tile, annotations = pv.generate_scene(
    pv.SceneParams(width=128, height=128, n_panels=3, seed=3), "feat_demo"
)
sums, sq_sums = pv.integral_tables(tile.pixels)
print(f"\nintegral tables: {sums.shape}, dtype {sums.dtype}")
total = sums[-1, -1]
assert np.array_equal(total, tile.pixels.astype(np.int64).sum(axis=(0, 1)))
print(f"bottom-right corner = per-channel pixel sums: {total.tolist()}")

first = annotations[0].vertices
panel_pixel = (
    int((first[0][0] + first[2][0]) // 2),
    int((first[0][1] + first[2][1]) // 2),
)
edge_pixel = (int(first[0][0]), int(first[0][1]))  # window straddles the boundary
background_pixel = (5, 5)

values, base, offsets = pv.feature_planes(tile, spec, 0, tile.height)
print(f"\n6 box-filtered planes of {values.size // 6} values each over the padded"
      f" tile; {base.size} pixel bases, {offsets.size} feature offsets")

for name, (x, y) in (
    ("panel interior", panel_pixel),
    ("panel corner", edge_pixel),
    ("background", background_pixel),
):
    vec = values[base[y * tile.width + x] + offsets]
    means = vec.reshape(-1, 6)[:, :3]
    variances = vec.reshape(-1, 6)[:, 3:]
    print(f"\n{name} pixel ({x},{y}):")
    print(f"  center-window means  (R,G,B): {np.round(means[0], 1).tolist()}")
    print(f"  center-window variances     : {np.round(variances[0], 1).tolist()}")
    print(f"  mean over all windows       : {means.mean():.1f}"
          f", variance level {variances.mean():.1f}")

band_values, band_base, band_offsets = pv.feature_planes(tile, spec, 60, 70)
band = band_values[band_base[:, None] + band_offsets]
whole = values[base[60 * tile.width : 70 * tile.width, None] + offsets]
assert np.array_equal(band, whole)
print(f"\nrows 60..69 as one band: planes of {band_values.size // 6} values each,"
      f" and the same {band.shape} features as those rows of the whole tile")
