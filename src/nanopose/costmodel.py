"""Parametric latency, power, and energy model over voltage/frequency
operating points.

Per stage i the cluster computes MACs_i / eta_i cycles at f_cl while the
next stage's weights stream from external RAM at dma_bytes_per_fc_cycle
times f_fc; double buffering overlaps the two, so the stage wall time is
their max and the cluster idles whenever the stream dominates.  Power sums
per-domain dynamic terms c * V^2 * f * activity plus statics; the cluster is
clock-gated while idle, the fabric controller runs hot only while it
orchestrates DMA.

This is a fitted model, not an emulator: silicon measurements enter only as
calibration targets.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from .errors import FitError, SchemaError, finite_real, require_positive
from .planner import RESIDENT, DeploymentPlan

# minimum VDD enabling a frequency (either domain), 0.05 V steps; transcribed
# approximation of the device's operating-point table
VDD_STEPS = ((100.0, 1.00), (150.0, 1.05), (175.0, 1.10), (200.0, 1.15), (250.0, 1.20))
F_STEP_MHZ = 25.0
F_FC_MAX = 250.0
F_CL_MAX = 175.0


def min_vdd(f_mhz: float) -> float:
    for limit, v in VDD_STEPS:
        if f_mhz <= limit:
            return v
    raise SchemaError(f"frequency {f_mhz} MHz beyond the operating table")


@dataclass(frozen=True)
class OperatingPoint:
    vdd: float
    f_fc: float   # MHz
    f_cl: float   # MHz

    def __post_init__(self):
        for f, cap, name in ((self.f_fc, F_FC_MAX, "f_fc"), (self.f_cl, F_CL_MAX, "f_cl")):
            if f <= 0 or f > cap or (f % F_STEP_MHZ) != 0:
                raise SchemaError(f"{name}={f} MHz not on the 25 MHz grid up to {cap}")
        if self.vdd + 1e-9 < min_vdd(max(self.f_fc, self.f_cl)):
            raise SchemaError(
                f"vdd {self.vdd} below minimum {min_vdd(max(self.f_fc, self.f_cl))} "
                f"for {max(self.f_fc, self.f_cl)} MHz"
            )


def operating_point(f_fc: float, f_cl: float) -> OperatingPoint:
    """Operating point at the lowest VDD admitting both frequencies."""
    return OperatingPoint(vdd=min_vdd(max(f_fc, f_cl)), f_fc=f_fc, f_cl=f_cl)


def default_grid():
    grid = []
    for f_fc in np.arange(F_STEP_MHZ, F_FC_MAX + 1, F_STEP_MHZ):
        for f_cl in np.arange(F_STEP_MHZ, F_CL_MAX + 1, F_STEP_MHZ):
            grid.append(operating_point(float(f_fc), float(f_cl)))
    return grid


@dataclass
class CostParams:
    """Model coefficients; defaults sit near the reference-point fit."""

    eta_peak: float = 16.1                 # MAC/cycle at ideal utilization
    util_rows_saturation: float = 8.0      # output rows saturating the cores
    util_dot_overhead: float = 245.0       # per-output overhead vs. inner MAC chain
    dma_bytes_per_fc_cycle: float = 1.12
    c_fc_w_per_hz_v2: float = 1.9e-10
    c_cl_w_per_hz_v2: float = 3.3e-10
    static_fc_w: float = 3.5e-4
    static_cl_w: float = 3.5e-4
    cl_base_activity: float = 0.2          # cluster activity floor while computing
    fc_idle_activity: float = 0.3          # FC activity while not driving DMA

    def __post_init__(self):
        fractions = ("cl_base_activity", "fc_idle_activity")
        require_positive(self, *(k for k in self.__dataclass_fields__ if k not in fractions))
        for k in fractions:
            v = getattr(self, k)
            if not (finite_real(v) and 0.0 <= v <= 1.0):
                raise SchemaError(f"CostParams.{k} must be a fraction in [0, 1], got {v!r}")


@dataclass
class LayerCost:
    name: str
    compute_cycles: float   # cluster cycles
    dma_cycles: float       # fabric-controller cycles for next-stage weights
    idle_cycles: float      # cluster cycles stalled on the stream
    wall_s: float


@dataclass
class CostEstimate:
    op: OperatingPoint
    per_layer: list
    latency_s: float
    fps: float
    power_fc_mw: float
    power_cl_mw: float
    power_mw: float
    energy_mj: float


def stage_utilization(node, params: CostParams):
    """Fraction of peak MAC throughput a stage sustains."""
    u_rows = min(1.0, node.out_rows / params.util_rows_saturation)
    u_dot = node.dot_len / (node.dot_len + params.util_dot_overhead) if node.dot_len else 1.0
    return u_rows, u_dot


def estimate(plan: DeploymentPlan, op: OperatingPoint, params: CostParams = None) -> CostEstimate:
    params = params or CostParams()
    f_fc = op.f_fc * 1e6
    f_cl = op.f_cl * 1e6
    streamed = plan.policy != RESIDENT

    per_layer = []
    total_wall = 0.0
    cl_energy_weight = 0.0   # sum of compute_time * activity
    dma_time_total = 0.0
    for i, n in enumerate(plan.nodes):
        u_rows, u_dot = stage_utilization(n, params)
        eta = params.eta_peak * u_rows * u_dot
        compute_cycles = n.macs / eta if n.macs else 0.0
        compute_t = compute_cycles / f_cl
        next_bytes = plan.nodes[i + 1].weight_bytes if streamed and i + 1 < len(plan.nodes) else 0
        dma_cycles = next_bytes / params.dma_bytes_per_fc_cycle
        dma_t = dma_cycles / f_fc
        wall = max(compute_t, dma_t)
        idle_cycles = max(0.0, wall - compute_t) * f_cl
        per_layer.append(LayerCost(
            name=n.name, compute_cycles=compute_cycles, dma_cycles=dma_cycles,
            idle_cycles=idle_cycles, wall_s=wall,
        ))
        total_wall += wall
        activity = params.cl_base_activity + (1.0 - params.cl_base_activity) * u_rows
        cl_energy_weight += compute_t * activity
        dma_time_total += dma_t

    if total_wall <= 0:
        raise SchemaError("empty plan has no latency")
    p_cl = params.c_cl_w_per_hz_v2 * op.vdd**2 * f_cl * (cl_energy_weight / total_wall) \
        + params.static_cl_w
    dma_frac = min(1.0, dma_time_total / total_wall)
    fc_activity = dma_frac + params.fc_idle_activity * (1.0 - dma_frac)
    p_fc = params.c_fc_w_per_hz_v2 * op.vdd**2 * f_fc * fc_activity + params.static_fc_w
    power_w = p_fc + p_cl
    return CostEstimate(
        op=op, per_layer=per_layer, latency_s=total_wall, fps=1.0 / total_wall,
        power_fc_mw=p_fc * 1e3, power_cl_mw=p_cl * 1e3, power_mw=power_w * 1e3,
        energy_mj=power_w * total_wall * 1e3,
    )


@dataclass
class SweepResult:
    rows: list                  # CostEstimate per grid point
    best_energy: CostEstimate
    best_throughput: CostEstimate


def sweep(plan: DeploymentPlan, grid=None, params: CostParams = None) -> SweepResult:
    grid = grid or default_grid()
    params = params or CostParams()
    rows = [estimate(plan, op, params) for op in grid]
    return SweepResult(
        rows=rows,
        best_energy=min(rows, key=lambda r: r.energy_mj),
        best_throughput=max(rows, key=lambda r: r.fps),
    )


def sweep_csv(result: SweepResult) -> str:
    lines = ["f_fc,f_cl,vdd,fps,mW_fc,mW_cl,mJ_frame"]
    for r in result.rows:
        lines.append(
            f"{r.op.f_fc:g},{r.op.f_cl:g},{r.op.vdd:.2f},{r.fps:.3f},"
            f"{r.power_fc_mw:.3f},{r.power_cl_mw:.3f},{r.energy_mj:.5f}"
        )
    return "\n".join(lines) + "\n"


# Reference measurements of the deployed system used as calibration anchors:
# (variant, (f_fc, f_cl) MHz, frame/s, total mW).
REFERENCE_POINTS = (
    ("80x32", (250.0, 175.0), 134.7, 86.6),
    ("160x16", (250.0, 175.0), 110.7, 99.0),
    ("80x32", (25.0, 25.0), 18.5, 8.6),
)

# most energy-efficient configurations reported for the same system, mJ/frame
REFERENCE_BEST_ENERGY_MJ = {"160x32": 1.28, "160x16": 0.58, "80x32": 0.43}

_FIT_FIELDS = ("eta_peak", "util_dot_overhead", "dma_bytes_per_fc_cycle",
               "c_fc_w_per_hz_v2", "c_cl_w_per_hz_v2", "static_fc_w")
# dma rate bounded so the fitted crossover between stream and compute time
# reproduces the observed stage-idle patterns, which the throughput/power
# anchors alone do not pin down
_FIT_BOUNDS = {
    "eta_peak": (4.0, 20.0),
    "util_dot_overhead": (10.0, 600.0),
    "dma_bytes_per_fc_cycle": (0.7, 1.5),
    "c_fc_w_per_hz_v2": (1e-12, 1e-9),
    "c_cl_w_per_hz_v2": (1e-11, 2e-9),
    "static_fc_w": (1e-5, 1e-2),
}


def calibrate_params(targets, base: CostParams = None) -> tuple:
    """Least-squares fit of utilization, DMA, and power coefficients.

    targets: iterable of (plan, OperatingPoint, measured fps, measured mW).
    Returns (CostParams, residuals, info dict).  Residuals are relative
    errors, fps and power interleaved per target.  Statics are fitted as one
    knob split evenly between domains.
    """
    targets = list(targets)
    if len(targets) < 3:
        raise FitError(f"need at least 3 calibration targets, got {len(targets)}")
    base = base or CostParams()

    def unpack(x):
        p = replace(base)
        for name, v in zip(_FIT_FIELDS, x):
            if name == "static_fc_w":
                p.static_fc_w = v / 2.0
                p.static_cl_w = v / 2.0
            else:
                setattr(p, name, float(v))
        return p

    def residuals(x):
        p = unpack(x)
        res = []
        for pl, op, fps, mw in targets:
            est = estimate(pl, op, p)
            res.append((est.fps - fps) / fps)
            res.append((est.power_mw - mw) / mw)
        return np.asarray(res)

    x0 = []
    for name in _FIT_FIELDS:
        if name == "static_fc_w":
            x0.append(base.static_fc_w + base.static_cl_w)
        else:
            x0.append(getattr(base, name))
    lo = [_FIT_BOUNDS[n][0] for n in _FIT_FIELDS]
    hi = [_FIT_BOUNDS[n][1] for n in _FIT_FIELDS]
    sol = least_squares(residuals, x0=np.asarray(x0), bounds=(lo, hi), x_scale="jac", max_nfev=2000)
    if not sol.success:
        raise FitError(f"least-squares did not converge: {sol.message}")
    rank = int(np.linalg.matrix_rank(sol.jac))
    info = dict(rank=rank, degenerate=rank < len(_FIT_FIELDS), cost=float(sol.cost),
                message=sol.message)
    return unpack(sol.x), sol.fun, info
