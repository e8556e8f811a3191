"""Parametric latency, power, and energy model over voltage/frequency
operating points.

Per stage i the cluster computes MACs_i / eta_i cycles at f_cl while the
next stage's weights stream from external RAM at dma_bytes_per_fc_cycle
times f_fc; double buffering overlaps the two, so the stage wall time is
their max and the cluster idles whenever the stream dominates.  Power sums
per-domain dynamic terms c * V^2 * f * activity plus statics; the cluster is
clock-gated while idle, the fabric controller runs hot only while it
orchestrates DMA.

Only the two frequencies and VDD depend on the operating point: `prepare`
computes every other per-stage term once, `estimate` evaluates them at one
point and `sweep` at a whole grid as arrays, with identical arithmetic.
`prepare` runs in two halves: `_fixed` holds the terms no fitted
coefficient touches (MACs, inner chain length, row utilization, streamed
bytes, cluster activity) and `_cycles` the ones the fit moves (dot
utilization, MAC rate, compute and DMA cycles).  `calibrate_params` checks
once per fit that CostParams' rule holds at both corners of the bounds box,
hence at every point the solver evaluates, computes the fixed half once per
plan, and per evaluation runs only `_cycles` and the power formula.

This is a fitted model, not an emulator: silicon measurements enter only as
calibration targets.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import FitError, SchemaError, finite_real, require_positive
from .planner import DeploymentPlan

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


# every operating point on the 25 MHz grid, at the lowest admissible VDD
DEFAULT_GRID = tuple(operating_point(float(f_fc), float(f_cl))
                     for f_fc in np.arange(F_STEP_MHZ, F_FC_MAX + 1, F_STEP_MHZ)
                     for f_cl in np.arange(F_STEP_MHZ, F_CL_MAX + 1, F_STEP_MHZ))


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


def prepare(plan: DeploymentPlan, params: CostParams = None) -> tuple:
    """Per-stage (compute cycles, next-stage DMA cycles, cluster activity):
    everything in the model that does not depend on the operating point."""
    params = params or CostParams()
    return _cycles(_fixed(_streams(plan), params), params)


def _streams(plan: DeploymentPlan) -> tuple:
    # each stage with the bytes it streams in for the next: the plan's own schedule
    return tuple(zip(plan.nodes, [row.weights_next for row in plan.occupancy]))


def _fixed(streams, params: CostParams) -> tuple:
    """Per-stage (MACs, inner MAC chain length, row utilization, streamed
    bytes, cluster activity): the terms no fitted coefficient touches."""
    stages = []
    for n, w_next in streams:
        u_rows = min(1.0, n.out_rows / params.util_rows_saturation)
        stages.append((n.macs, n.dot_len, u_rows, w_next,
                       params.cl_base_activity + (1.0 - params.cl_base_activity) * u_rows))
    return tuple(stages)


def _cycles(fixed, params: CostParams) -> tuple:
    """`prepare`'s stages from `_fixed`'s: the sustained fraction of peak MAC
    throughput is row utilization times dot utilization."""
    stages = []
    for macs, dot_len, u_rows, w_next, activity in fixed:
        u_dot = dot_len / (dot_len + params.util_dot_overhead) if dot_len else 1.0
        eta = params.eta_peak * u_rows * u_dot
        stages.append((
            macs / eta if macs else 0.0,
            w_next / params.dma_bytes_per_fc_cycle,
            activity,
        ))
    return tuple(stages)


def _stage_times(stages, f_fc, f_cl, maximum):
    """Frame latency, cluster compute time weighted by activity and DMA
    time, at one operating point (floats, `maximum=max`) or at many (arrays
    of Hz, `maximum=np.maximum`).  A stage's wall time is the max of its
    compute and DMA times.  The sums run stage by stage in plan order, so
    both forms give bit-identical figures."""
    latency = cl_energy_weight = dma_time = 0.0
    for compute_cycles, dma_cycles, activity in stages:
        compute_t = compute_cycles / f_cl
        dma_t = dma_cycles / f_fc
        latency += maximum(compute_t, dma_t)
        cl_energy_weight += compute_t * activity
        dma_time += dma_t
    return latency, cl_energy_weight, dma_time


def _powers(params, vdd2, f_fc, f_cl, latency, cl_energy_weight, dma_time, minimum):
    """FC and cluster power (W) from `_stage_times`' sums, floats or arrays;
    `latency` must be positive."""
    p_cl = params.c_cl_w_per_hz_v2 * vdd2 * f_cl * (cl_energy_weight / latency) + params.static_cl_w
    dma_frac = minimum(1.0, dma_time / latency)
    fc_activity = dma_frac + params.fc_idle_activity * (1.0 - dma_frac)
    p_fc = params.c_fc_w_per_hz_v2 * vdd2 * f_fc * fc_activity + params.static_fc_w
    return p_fc, p_cl


def _at_point(stages, op, params):
    """Frame latency (s) and FC and cluster power (W) at one operating point."""
    f_fc = op.f_fc * 1e6
    f_cl = op.f_cl * 1e6
    latency, cl_energy_weight, dma_time = _stage_times(stages, f_fc, f_cl, max)
    if latency <= 0:
        raise SchemaError("empty plan has no latency")
    p_fc, p_cl = _powers(params, op.vdd**2, f_fc, f_cl, latency, cl_energy_weight, dma_time, min)
    return latency, p_fc, p_cl


def _estimate(plan, stages, op, params) -> CostEstimate:
    latency, p_fc, p_cl = _at_point(stages, op, params)
    f_fc = op.f_fc * 1e6
    f_cl = op.f_cl * 1e6
    per_layer = []
    for n, (compute_cycles, dma_cycles, _) in zip(plan.nodes, stages):
        wall = max(compute_cycles / f_cl, dma_cycles / f_fc)
        per_layer.append(LayerCost(
            name=n.name, compute_cycles=compute_cycles, dma_cycles=dma_cycles,
            idle_cycles=max(0.0, wall - compute_cycles / f_cl) * f_cl, wall_s=wall,
        ))
    power_w = p_fc + p_cl
    return CostEstimate(
        op=op, per_layer=per_layer, latency_s=latency, fps=1.0 / latency,
        power_fc_mw=p_fc * 1e3, power_cl_mw=p_cl * 1e3, power_mw=power_w * 1e3,
        energy_mj=power_w * latency * 1e3,
    )


def estimate(plan: DeploymentPlan, op: OperatingPoint, params: CostParams = None) -> CostEstimate:
    params = params or CostParams()
    return _estimate(plan, prepare(plan, params), op, params)


@dataclass
class SweepResult:
    """Figures per `DEFAULT_GRID` point as columns (float64 arrays in its order)."""

    fps: np.ndarray
    power_fc_mw: np.ndarray
    power_cl_mw: np.ndarray
    energy_mj: np.ndarray
    best_energy: CostEstimate   # first point of least energy
    best_throughput: CostEstimate   # first point of highest fps


def sweep(plan: DeploymentPlan, params: CostParams = None) -> SweepResult:
    """`estimate` at every point of `DEFAULT_GRID`, evaluated as arrays
    over the grid."""
    grid = DEFAULT_GRID
    params = params or CostParams()
    stages = prepare(plan, params)
    f_fc = np.array([op.f_fc for op in grid]) * 1e6
    f_cl = np.array([op.f_cl for op in grid]) * 1e6
    vdd2 = np.array([op.vdd**2 for op in grid])
    latency, cl_energy_weight, dma_time = _stage_times(stages, f_fc, f_cl, np.maximum)
    if np.any(latency <= 0):
        raise SchemaError("empty plan has no latency")
    p_fc, p_cl = _powers(params, vdd2, f_fc, f_cl, latency, cl_energy_weight, dma_time, np.minimum)
    energy_mj = (p_fc + p_cl) * latency * 1e3
    fps = 1.0 / latency
    return SweepResult(
        fps=fps, power_fc_mw=p_fc * 1e3, power_cl_mw=p_cl * 1e3, energy_mj=energy_mj,
        best_energy=_estimate(plan, stages, grid[int(np.argmin(energy_mj))], params),
        best_throughput=_estimate(plan, stages, grid[int(np.argmax(fps))], params),
    )


_CSV_ROW = "%g,%g,%.2f,%.3f,%.3f,%.3f,%.5f\n"


def sweep_csv(result: SweepResult) -> str:
    ops = [(op.f_fc, op.f_cl, op.vdd) for op in DEFAULT_GRID]
    table = np.column_stack([ops, result.fps, result.power_fc_mw, result.power_cl_mw, result.energy_mj])
    # one format call over every row; tolist() hands it Python floats
    body = (_CSV_ROW * len(table)) % tuple(table.ravel().tolist())
    return "f_fc,f_cl,vdd,fps,mW_fc,mW_cl,mJ_frame\n" + body


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


def _fitted(x) -> dict:
    """CostParams fields at a point of the fit's parameter space (a float
    array in `_FIT_FIELDS` order); the statics knob splits evenly."""
    fields = dict(zip(_FIT_FIELDS, x.tolist()))
    fields["static_fc_w"] = fields["static_cl_w"] = fields["static_fc_w"] / 2.0
    return fields


def _check_target(i, target):
    try:
        pl, op, fps, mw = target
    except (TypeError, ValueError):
        raise FitError(f"target {i}: expected (plan, OperatingPoint, fps, mW), got {target!r}") from None
    if not isinstance(pl, DeploymentPlan):
        raise FitError(f"target {i}: expected a DeploymentPlan, got {type(pl).__name__}")
    if not isinstance(op, OperatingPoint):
        raise FitError(f"target {i}: expected an OperatingPoint, got {type(op).__name__}")
    for name, v in (("fps", fps), ("mW", mw)):
        if not (finite_real(v) and v > 0):
            raise FitError(f"target {i}: measured {name} must be finite and > 0, got {v!r}")


def calibrate_params(targets) -> tuple:
    """Least-squares fit of utilization, DMA, and power coefficients.

    targets: iterable of (plan, OperatingPoint, measured fps, measured mW).
    The fit starts from the default CostParams, whose fitted fields lie
    inside `_FIT_BOUNDS`; the fields it does not fit keep their defaults.
    Returns (CostParams, residuals, info dict).  Residuals are relative
    errors, fps and power interleaved per target.  Statics are fitted as one
    knob split evenly between domains.  Raises FitError for malformed
    targets.
    """
    from scipy.optimize import least_squares   # only fits pay its import time

    targets = list(targets)
    if len(targets) < 3:
        raise FitError(f"need at least 3 calibration targets, got {len(targets)}")
    for i, target in enumerate(targets):
        _check_target(i, target)
    base = CostParams()
    x0 = [base.static_fc_w + base.static_cl_w if name == "static_fc_w" else getattr(base, name)
          for name in _FIT_FIELDS]
    lo, hi = (np.array([_FIT_BOUNDS[name][k] for name in _FIT_FIELDS]) for k in (0, 1))
    # CostParams requires each fitted field finite and > 0, so once both
    # corners pass, so does every point of the box, and the solver evaluates
    # only inside it: the evaluations update one scratch copy unchecked
    replace(base, **_fitted(lo))
    p = replace(base, **_fitted(hi))

    # the fixed stage terms depend on no fitted coefficient; cycles are
    # computed once per distinct plan and evaluation
    fixed = {id(pl): _fixed(_streams(pl), base) for pl, _, _, _ in targets}
    points = [(id(pl), op, fps, mw) for pl, op, fps, mw in targets]

    def residuals(x):
        vars(p).update(_fitted(x))
        cycles = {k: _cycles(f, p) for k, f in fixed.items()}
        res = []
        for k, op, fps, mw in points:
            latency, p_fc, p_cl = _at_point(cycles[k], op, p)
            res.append((1.0 / latency - fps) / fps)
            res.append(((p_fc + p_cl) * 1e3 - mw) / mw)
        return np.asarray(res)

    sol = least_squares(residuals, x0=np.asarray(x0), bounds=(lo, hi), x_scale="jac", max_nfev=2000)
    if not sol.success:
        raise FitError(f"least-squares did not converge: {sol.message}")
    rank = int(np.linalg.matrix_rank(sol.jac))
    info = dict(rank=rank, degenerate=rank < len(_FIT_FIELDS), cost=float(sol.cost),
                message=sol.message)
    return replace(base, **_fitted(sol.x)), sol.fun, info
