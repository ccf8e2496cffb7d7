"""riterp: LiDAR range-image degradation, gradient-aware interpolation,
and quality evaluation."""

from .baselines import SUPPORT, upscale_baseline
from .gradient import (
    ASCENDING,
    DESCENDING,
    InterpolationPlan,
    explore_windows,
    interpolate,
    upscale_gradient,
)
from .lossy import downsample_ri, quantize
from .metrics import KdTree, chamfer, ssim
from .pipeline import PipelineConfig, ScanContext, evaluate, prepare_scan, run_pipeline, run_scan, sweep
from .pointcloud import (
    PointCloud,
    filter_by_range,
    read_kitti_bin,
    read_ply,
    write_kitti_bin,
    write_ply,
)
from .projection import (
    EMPTY,
    KITTI_GEOMETRY,
    RangeImage,
    RiGeometry,
    cloud_to_ri,
    load_ri,
    occupancy,
    ri_to_cloud,
    save_ri,
    write_pgm,
)
from .synth import synth_scene

__version__ = "0.1.0"
