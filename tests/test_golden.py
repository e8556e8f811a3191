"""Byte pins: the plan documents and the seeded float weights of the three
reference variants, a seeded augmentation stream and seeded closed-loop
runs, as sha256 digests of their bytes.  A change that moves any of them
changes what `plan` writes, what every seeded net computes, what `augment`
draws or what the simulator flies."""

import hashlib

import numpy as np
import pytest

from nanopose import augment as A
from nanopose import graph as G
from nanopose import planner as P
from nanopose.errors import SchemaError
from nanopose.floatnet import random_float_net
from nanopose.pose import Pose
from nanopose.simulate import RATE_HZ, SimConfig, noise_for, run_experiment

L1_16K = P.MemoryHierarchy(l1_bytes=16 * 1024)   # splits channels in every variant

PLAN_SHA256 = {
    ("gap8", "160x32", P.STREAMED): "eb1c7652b66891f641af5b23d3e59c480f153df2338ade171d8e1df414e7a422",
    ("gap8", "160x32", P.RESIDENT): "70cb702b709f5a310e40857cc815f109a2e3f1c855c9508c2aab6c7c5f339497",
    ("gap8", "160x16", P.STREAMED): "fb080fd751a4fd26f1f38e3a83b1b74ec0dd977b302f6cc601017d70a4fed4dd",
    ("gap8", "160x16", P.RESIDENT): "fca43069a0aba9ecd920da0f9ce36575e859b174645936294dc57637d9a14dce",
    ("gap8", "80x32", P.STREAMED): "edf7f22f7734ddc65e525f2b37b38d9b52da8caf2d5b33ff30e8b13704d3181d",
    ("gap8", "80x32", P.RESIDENT): "552fc0dc9bc0047f06e1af313a66da43370b90e4c8c753ab3aaa15a878c66766",
    ("l1_16k", "160x32", P.STREAMED): "7ad5985e08e443f43e6ba151978f8f65cc037cbad14eeb758c0669491229014a",
    ("l1_16k", "160x32", P.RESIDENT): "158bf3f7c1b8ef21cdf7d1071a0e6f6a3103c0c25d2038c77ff991598d8f970a",
    ("l1_16k", "160x16", P.STREAMED): "535d825c4841b168bc7e1f8a7de689e8ca011d94a8188f5a41e4896ed3b13c00",
    ("l1_16k", "160x16", P.RESIDENT): "2fa513b55c7de75ef72b35b5310be6f1691827047407479da0b471841bec8248",
    ("l1_16k", "80x32", P.STREAMED): "0b39192091f1165ad8f832183c18a42852d7e8a662d2e591d0ab6398528161c9",
    ("l1_16k", "80x32", P.RESIDENT): "313453487f1b973f3e4a4d41faca2a3e52afe575eb5271c11de9aa80d7cbaa97",
}

# random_float_net(g, 0): each layer's name, shape and dtype, then its
# little-endian float64 weights, in layer order
WEIGHTS_SHA256 = {
    "160x32": "7c56efa27db6388b583fd6b2b9f133b68eedf1a00020278de638cd2b7fc02985",
    "160x16": "af655e294c5b98fcbfbae6043ec4c7d10cbd4d5ed0451eaead97170d92db3346",
    "80x32": "41b86bdeea077fd45c9e0d823d6dfde249b0cc1e258bd972c9da485f32b007d0",
}


@pytest.mark.parametrize("mem_name, tag, policy", sorted(PLAN_SHA256))
def test_plan_json_bytes(mem_name, tag, policy):
    mem = {"gap8": P.GAP8, "l1_16k": L1_16K}[mem_name]
    p = P.plan(G.build_variant(tag), mem, policy)
    digest = hashlib.sha256(P.plan_to_json(p).encode()).hexdigest()
    assert digest == PLAN_SHA256[mem_name, tag, policy]


def test_small_l1_splits_channels():
    # the 16 kB pins cover the channel-split tiling path in every variant
    for tag in G.VARIANTS:
        p = P.plan(G.build_variant(tag), L1_16K)
        assert any(len({t.out_ch for t in tiles}) > 1 for tiles in p.schedule.values()), tag


@pytest.mark.parametrize("tag", G.VARIANTS)
def test_random_float_net_weight_bytes(tag):
    net = random_float_net(G.build_variant(tag), 0)
    h = hashlib.sha256()
    for name, w in net.weights.items():
        h.update(f"{name}{w.shape}{w.dtype}".encode())
        h.update(w.astype("<f8").tobytes())
    assert h.hexdigest() == WEIGHTS_SHA256[tag]


# ten augment_sample draws from one seeded frame: each draw's pixels, then
# its label and pitch as little-endian float64
AUGMENT_SHA256 = "8e8bcc829d597bafcf5ad7b3eef67567c9634852bf175cdc5692a0c51f50f01c"


def test_augment_sample_bytes():
    frame = np.random.default_rng(9).integers(0, 256, (160, 160)).astype(np.uint8)
    li = A.LabeledImage(frame, Pose(1.0, -0.5, 0.2, 0.3))
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for _ in range(10):
        out, pitch = A.augment_sample(li, rng)
        h.update(out.pixels.tobytes())
        h.update(np.array(tuple(out.label) + (pitch,), dtype="<f8").tobytes())
    assert h.hexdigest() == AUGMENT_SHA256


# run_experiment(noise_for(variant, seed), rate): the log rows, then the
# observations, then float.hex of max_cmd_speed, max_cmd_omega and max_accel.
# Full 50 s runs at each deployed rate, and 3 s runs at 1000 Hz (several
# events per dynamics tick) and 7/3 Hz (periods that are no whole number of
# ticks).
# mocap draws no noise, so its two seeds share one digest.
SIM_SHA256 = {
    ("mocap", 0, RATE_HZ["mocap"], None): "bca697b19d1562ffe052af4819dc1aae86bea72428e319e5f5f21ce0f74793a9",
    ("mocap", 1, RATE_HZ["mocap"], None): "bca697b19d1562ffe052af4819dc1aae86bea72428e319e5f5f21ce0f74793a9",
    ("160x32", 0, RATE_HZ["160x32"], None): "e1bc22a3e38ef0df7fa430f59dcc46dcab0766c6871e3a12f7619e0f74c17cfc",
    ("160x32", 1, RATE_HZ["160x32"], None): "eb43f1a4494e0a0596d84e84714cc7558fb3851fb1d2e86b499c1f3af4e944ec",
    ("160x16", 0, RATE_HZ["160x16"], None): "5c3374a79d96cdded68d42bf2739504c78b9a09759ee2673c0eaec46b4a74694",
    ("160x16", 1, RATE_HZ["160x16"], None): "b5bd21b332375b4c091f1dc856ebb98ac5663ba0bde8f6cdb3585b96f1395f56",
    ("80x32", 0, RATE_HZ["80x32"], None): "7fcac7b18e11725f1f6a3cc3577e2806bdc3731ef7474d1d6253499234d645dc",
    ("80x32", 1, RATE_HZ["80x32"], None): "e4253cd54dfd4dfd2a3a6b1538c5144ade512f5303892d7b23519388bf27e4c2",
    ("80x32", 0, 1000.0, 3.0): "4e5dfad015cd9e55e3b60c572d6139323fe8a584c09017964c7abb0f1b733d76",
    ("80x32", 0, 7.0 / 3.0, 3.0): "0129ff0a245bb218050b472ab8ae9a3fe6316c7b6a90fa03e62e646bea643a5e",
}


def sim_digest(variant, seed, rate, duration, q_accel_var=1.0):
    log = run_experiment(noise_for(variant, seed), rate,
                         sim_cfg=SimConfig(q_accel_var=q_accel_var, duration=duration))
    h = hashlib.sha256()
    h.update(log.rows.tobytes())
    h.update(log.observations.tobytes())
    h.update(" ".join(v.hex() for v in (log.max_cmd_speed, log.max_cmd_omega,
                                        log.max_accel)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("variant, seed, rate, duration", list(SIM_SHA256),
                         ids=[f"{v}-{s}-{r:g}Hz-{d or 'script'}" for v, s, r, d in SIM_SHA256])
def test_run_experiment_bytes(variant, seed, rate, duration):
    assert sim_digest(variant, seed, rate, duration) == SIM_SHA256[variant, seed, rate, duration]


def test_shared_gain_schedules_keep_the_bytes(cold_schedules):
    # cold, at a second rate, warm at the first rate, then warm again after
    # the interleaved run: every run flies its pinned bytes
    runs = [("80x32", 0, 1000.0, 3.0), ("160x32", 0, RATE_HZ["160x32"], None),
            ("160x32", 1, RATE_HZ["160x32"], None), ("80x32", 0, 1000.0, 3.0)]
    for run in runs:
        assert sim_digest(*run) == SIM_SHA256[run], run
    assert len(cold_schedules) == 8       # four observation variances at each of two rates


def test_filter_failure_keeps_no_schedule(cold_schedules):
    # a covariance that overflows and loses positive definiteness is a
    # SimConfig error on a cold cache and beside a healthy schedule at the
    # same rate, and leaves the healthy runs' bytes alone
    healthy = ("mocap", 0, RATE_HZ["mocap"], None)
    for _ in range(2):
        with pytest.raises(SchemaError, match=r"SimConfig\.q_accel_var = 1e\+300 "):
            sim_digest(*healthy, q_accel_var=1e300)
        assert all(q == 1.0 for _, q, _ in cold_schedules)
        assert sim_digest(*healthy) == SIM_SHA256[healthy]


def test_filter_failure_only_at_an_event_that_fires():
    # at 30 Hz event 1 (t = 1/30 s) only starts the filters; event 2 steps
    # them first at t = 2/30 s, so a run that ends before it cannot fail
    run_experiment(noise_for("mocap"), 30.0, sim_cfg=SimConfig(q_accel_var=1e300, duration=0.066))
    with pytest.raises(SchemaError, match="q_accel_var"):
        run_experiment(noise_for("mocap"), 30.0, sim_cfg=SimConfig(q_accel_var=1e300, duration=0.068))
