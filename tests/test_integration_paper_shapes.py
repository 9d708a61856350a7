"""Integration tests asserting the paper's qualitative findings.

Each test corresponds to a claim in the evaluation section; tolerances are
loose (the substrate is a simulator, not the authors' testbed) but the
*shape* -- who wins, roughly by what factor, where crossovers fall -- must
hold.  See EXPERIMENTS.md for the full paper-vs-measured record.
"""

import pytest

from repro.core.config import CommMethodName, ScalingMode, SimulationConfig
from repro.runner import SweepRunner

SIM = SimulationConfig(warmup_iterations=1, measure_iterations=2)


@pytest.fixture(scope="module")
def cache():
    return SweepRunner(sim=SIM)


def speedup(cache, net, batch, gpus, method, scaling=ScalingMode.STRONG):
    base = cache.get(net, batch, 1, method, scaling)
    result = cache.get(net, batch, gpus, method, scaling)
    return result.speedup_over(base)


# ----------------------------------------------------------------------
# Section V-A: P2P vs NCCL training time (Figure 3)
# ----------------------------------------------------------------------
def test_lenet_p2p_speedups_match_paper(cache):
    """Paper: 1.62 / 2.37 / 3.36 at 2 / 4 / 8 GPUs (batch 16, P2P)."""
    assert speedup(cache, "lenet", 16, 2, CommMethodName.P2P) == pytest.approx(1.62, rel=0.12)
    assert speedup(cache, "lenet", 16, 4, CommMethodName.P2P) == pytest.approx(2.37, rel=0.12)
    assert speedup(cache, "lenet", 16, 8, CommMethodName.P2P) == pytest.approx(3.36, rel=0.12)


def test_lenet_nccl_speedups_match_paper(cache):
    """Paper: 1.56 / 2.27 / 2.77 at 2 / 4 / 8 GPUs (batch 16, NCCL)."""
    assert speedup(cache, "lenet", 16, 2, CommMethodName.NCCL) == pytest.approx(1.56, rel=0.12)
    assert speedup(cache, "lenet", 16, 4, CommMethodName.NCCL) == pytest.approx(2.27, rel=0.12)
    assert speedup(cache, "lenet", 16, 8, CommMethodName.NCCL) == pytest.approx(2.77, rel=0.12)


def test_p2p_beats_nccl_for_small_networks(cache):
    """Paper: P2P outperforms NCCL for LeNet and AlexNet at every scale."""
    for net in ("lenet", "alexnet"):
        for gpus in (2, 4, 8):
            p2p = cache.get(net, 16, gpus, CommMethodName.P2P)
            nccl = cache.get(net, 16, gpus, CommMethodName.NCCL)
            assert p2p.epoch_time < nccl.epoch_time, (net, gpus)


def test_nccl_beats_p2p_for_large_networks(cache):
    """Paper: NCCL wins for GoogLeNet/ResNet/Inception-v3 at 4 and 8 GPUs,
    by roughly 1.1x at 4 GPUs and 1.2-1.25x at 8 GPUs."""
    for net in ("googlenet", "resnet", "inception-v3"):
        for gpus, low, high in ((4, 1.03, 1.35), (8, 1.05, 1.45)):
            p2p = cache.get(net, 16, gpus, CommMethodName.P2P)
            nccl = cache.get(net, 16, gpus, CommMethodName.NCCL)
            advantage = p2p.epoch_time / nccl.epoch_time
            assert low <= advantage <= high, (net, gpus, advantage)


def test_batch_size_nearly_halves_epoch_time(cache):
    """Paper: LeNet 4-GPU P2P trains 1.92x / 3.67x faster at batch 32/64."""
    base = cache.get("lenet", 16, 4, CommMethodName.P2P).epoch_time
    b32 = cache.get("lenet", 32, 4, CommMethodName.P2P).epoch_time
    b64 = cache.get("lenet", 64, 4, CommMethodName.P2P).epoch_time
    assert base / b32 == pytest.approx(1.92, rel=0.1)
    assert base / b64 == pytest.approx(3.67, rel=0.12)


def test_two_gpu_speedup_at_most_1_8(cache):
    """Paper: going 1 -> 2 GPUs yields up to ~1.8x."""
    for net in ("lenet", "resnet", "googlenet", "inception-v3"):
        s = speedup(cache, net, 16, 2, CommMethodName.P2P)
        assert s <= 2.0, (net, s)
    best = max(
        speedup(cache, net, 16, 2, CommMethodName.P2P)
        for net in ("resnet", "googlenet", "inception-v3")
    )
    assert best == pytest.approx(1.85, abs=0.15)


# ----------------------------------------------------------------------
# Section V-B: NCCL overhead (Table II)
# ----------------------------------------------------------------------
def test_nccl_single_gpu_overhead_lenet(cache):
    """Paper: ~21.8% overhead for LeNet at batch 16 on one GPU."""
    p2p = cache.get("lenet", 16, 1, CommMethodName.P2P)
    nccl = cache.get("lenet", 16, 1, CommMethodName.NCCL)
    overhead = nccl.epoch_time / p2p.epoch_time - 1.0
    assert overhead == pytest.approx(0.218, abs=0.06)


def test_nccl_overhead_rises_with_batch_for_lenet(cache):
    overheads = []
    for batch in (16, 32, 64):
        p2p = cache.get("lenet", batch, 1, CommMethodName.P2P)
        nccl = cache.get("lenet", batch, 1, CommMethodName.NCCL)
        overheads.append(nccl.epoch_time / p2p.epoch_time - 1.0)
    assert overheads[0] < overheads[1] < overheads[2]


def test_nccl_overhead_small_for_large_networks(cache):
    """Paper: within a few points for ResNet/GoogLeNet/Inception-v3."""
    for net in ("resnet", "googlenet", "inception-v3"):
        for batch in (16, 64):
            p2p = cache.get(net, batch, 1, CommMethodName.P2P)
            nccl = cache.get(net, batch, 1, CommMethodName.NCCL)
            overhead = nccl.epoch_time / p2p.epoch_time - 1.0
            assert overhead < 0.12, (net, batch, overhead)


# ----------------------------------------------------------------------
# Section V-C: training-time breakdown (Figure 4, Table III)
# ----------------------------------------------------------------------
def test_fp_bp_dominates_training(cache):
    """Paper: computation dominates as GPU count grows."""
    for net in ("googlenet", "inception-v3"):
        r = cache.get(net, 16, 8, CommMethodName.NCCL)
        assert r.stages.fp_bp > r.stages.wu


def test_inception_fp_bp_scales_near_linearly(cache):
    """Paper: near-ideal FP+BP scaling for Inception-v3 at batch 16."""
    two = cache.get("inception-v3", 16, 2, CommMethodName.NCCL)
    eight = cache.get("inception-v3", 16, 8, CommMethodName.NCCL)
    # per-epoch FP+BP should drop by ~4x going 2 -> 8 GPUs
    ratio = two.epoch_fp_bp_time / eight.epoch_fp_bp_time
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_lenet_fp_bp_scales_non_linearly(cache):
    """Paper: LeNet cannot amortize CUDA API overhead."""
    two = cache.get("lenet", 16, 2, CommMethodName.NCCL)
    eight = cache.get("lenet", 16, 8, CommMethodName.NCCL)
    ratio = two.epoch_fp_bp_time / eight.epoch_fp_bp_time
    assert ratio < 3.5


def test_lenet_wu_per_epoch_decreases_with_gpus(cache):
    """Paper: WU time decreases almost linearly from 2 to 8 GPUs."""
    wu = [
        cache.get("lenet", 16, g, CommMethodName.NCCL).epoch_wu_time
        for g in (2, 4, 8)
    ]
    assert wu[0] > wu[1] > wu[2]


def test_sync_dominates_api_time_for_lenet(cache):
    """Paper: cudaStreamSynchronize consumes most time among all APIs."""
    r = cache.get("lenet", 16, 8, CommMethodName.NCCL)
    assert r.apis.totals[0][0] == "cudaStreamSynchronize"
    assert r.apis.percent_of("cudaStreamSynchronize") > 50


def test_sync_share_grows_with_gpu_count(cache):
    one = cache.get("lenet", 16, 1, CommMethodName.NCCL)
    eight = cache.get("lenet", 16, 8, CommMethodName.NCCL)
    assert (
        eight.apis.percent_of("cudaStreamSynchronize")
        >= one.apis.percent_of("cudaStreamSynchronize") - 1.0
    )


# ----------------------------------------------------------------------
# Section V-E: weak scaling (Figure 5)
# ----------------------------------------------------------------------
def test_weak_scaling_beats_strong_for_lenet(cache):
    weak = speedup(cache, "lenet", 16, 8, CommMethodName.NCCL, ScalingMode.WEAK)
    strong = speedup(cache, "lenet", 16, 8, CommMethodName.NCCL, ScalingMode.STRONG)
    assert weak > strong


def test_weak_scaling_gain_bounded_for_large_networks(cache):
    """Paper: less than ~17% above strong scaling for the big three."""
    for net in ("resnet", "googlenet", "inception-v3"):
        weak = speedup(cache, net, 16, 8, CommMethodName.NCCL, ScalingMode.WEAK)
        strong = speedup(cache, net, 16, 8, CommMethodName.NCCL, ScalingMode.STRONG)
        assert weak >= strong * 0.999
        assert weak <= strong * 1.17, (net, weak, strong)
