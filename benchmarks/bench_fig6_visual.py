"""Fig. 6 — visual comparison of reconstructions at matched ratio.

The paper renders one frame reconstructed by ours / VAE-SR / CDC /
SZ3 / ZFP at compression ratio ~100 with a zoomed detail region.  This
bench reproduces the artifact: it compresses the same stack with every
method at a matched ratio, saves the reconstruction arrays to
``benchmarks/out/fig6_*.npy``, prints an ASCII rendering of the frame
and the zoom region, and reports per-method NRMSE at that ratio.
"""

import numpy as np
import pytest

from repro import nrmse
from repro.codecs import as_codec

from .conftest import dataset_frames, save_json, OUT_DIR

ZOOM = (slice(4, 12), slice(4, 12))  # the "red rectangle"


def _ascii(frame: np.ndarray, width: int = 32) -> str:
    ramp = " .:-=+*#%@"
    f = frame[:: max(1, frame.shape[0] // 16), :: max(1, frame.shape[1]
                                                      // width)]
    lo, hi = f.min(), f.max()
    scale = (f - lo) / max(hi - lo, 1e-12)
    return "\n".join(
        "".join(ramp[int(v * (len(ramp) - 1))] for v in row)
        for row in scale)


def _match_ratio_rule(model, frames, target_ratio):
    """Binary-search the pointwise bound hitting ~target ratio."""
    lo_eb, hi_eb = 1e-6 * np.ptp(frames), 0.5 * np.ptp(frames)
    data = None
    for _ in range(18):
        eb = np.sqrt(lo_eb * hi_eb)
        data = model.compress(frames, eb)
        ratio = frames.size * 4 / len(data)
        if ratio > target_ratio:
            hi_eb = eb
        else:
            lo_eb = eb
    return model.decompress(data), frames.size * 4 / len(data)


def test_fig6_visual_comparison(frames_by_dataset, ours_by_dataset,
                                vaesr_by_dataset, cdc_pair_e3sm,
                                rule_based, benchmark):
    frames = frames_by_dataset["e3sm"]
    ours = ours_by_dataset["e3sm"]

    res = ours.compress(frames)
    target_ratio = res.ratio
    recons = {"Ours": (res.reconstruction, res.ratio)}

    vr = as_codec(vaesr_by_dataset["e3sm"]).compress(frames)
    recons["VAE-SR"] = (vr.reconstruction, vr.ratio)
    cd = as_codec(cdc_pair_e3sm["eps"]).compress(frames)
    recons["CDC"] = (cd.reconstruction, cd.ratio)
    for name, model in rule_based.items():
        recon, ratio = _match_ratio_rule(model, frames, target_ratio)
        recons[name] = (recon, ratio)

    OUT_DIR.mkdir(exist_ok=True)
    frame_idx = 1  # a generated (non-keyframe) frame
    np.save(OUT_DIR / "fig6_original.npy", frames)
    report = {}
    print(f"\nFig. 6: reconstructions near ratio {target_ratio:.0f}x "
          f"(frame {frame_idx}, zoom {ZOOM})")
    print("original:")
    print(_ascii(frames[frame_idx]))
    for name, (recon, ratio) in recons.items():
        np.save(OUT_DIR / f"fig6_{name.replace('-', '_')}.npy", recon)
        err = nrmse(frames, recon)
        zerr = nrmse(frames[(frame_idx, *ZOOM)], recon[(frame_idx, *ZOOM)])
        report[name] = {"ratio": float(ratio), "nrmse": float(err),
                        "zoom_nrmse": float(zerr)}
        print(f"\n{name} (ratio {ratio:.0f}x, NRMSE {err:.4f}, "
              f"zoom NRMSE {zerr:.4f}):")
        print(_ascii(recon[frame_idx]))
    save_json("fig6_visual", report)

    # every method produced a finite full-shape reconstruction
    for name, (recon, _) in recons.items():
        assert recon.shape == frames.shape, name
        assert np.all(np.isfinite(recon)), name

    benchmark.pedantic(lambda: ours.compress(frames), rounds=1,
                       iterations=1)
