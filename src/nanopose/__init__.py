"""nanopose: desk-scale toolkit for a quantized CNN pose-estimation pipeline.

Covers the full path from network analysis through 8-bit integer inference,
scratchpad-aware deployment planning, operating-point energy modeling, and
closed-loop tracking simulation.
"""

__version__ = "0.1.0"

from .graph import NetGraph, LayerSpec, GraphStats, analyze, build_variant
from .qtensor import QTensor, quantize, weight_eps, act_eps, weight_codes
from .quantizer import CalibrationSet, QuantizedGraph, calibrate, convert
from .engine import InferenceResult, infer_int, infer_float, crop_center
from .planner import MemoryHierarchy, DeploymentPlan, plan, tile_layer, memory_report
from .costmodel import OperatingPoint, CostParams, CostEstimate, estimate, sweep, calibrate_params
from .pose import Pose, to_odometry, wrap_angle
from .kalman import Kalman1D
from .control import ControlConfig, velocity_command
from .simulate import NoiseModel, run_experiment
from .metrics import metrics, rsquared

__all__ = [
    "NetGraph", "LayerSpec", "GraphStats", "analyze", "build_variant",
    "QTensor", "quantize", "weight_eps", "act_eps", "weight_codes",
    "CalibrationSet", "QuantizedGraph", "calibrate", "convert",
    "InferenceResult", "infer_int", "infer_float", "crop_center",
    "MemoryHierarchy", "DeploymentPlan", "plan", "tile_layer", "memory_report",
    "OperatingPoint", "CostParams", "CostEstimate", "estimate", "sweep", "calibrate_params",
    "Pose", "to_odometry", "wrap_angle",
    "Kalman1D",
    "ControlConfig", "velocity_command",
    "NoiseModel", "run_experiment",
    "metrics", "rsquared",
]
