"""Tests for run-level configuration objects."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import (
    PAPER_DATASET_IMAGES,
    CommMethodName,
    ScalingMode,
    SimulationConfig,
    TrainingConfig,
)
from repro.core.errors import ConfigurationError


def test_defaults():
    c = TrainingConfig("lenet", 16, 4)
    assert c.comm_method is CommMethodName.NCCL
    assert c.scaling is ScalingMode.STRONG
    assert c.dataset_images == PAPER_DATASET_IMAGES
    assert c.overlap_bp_wu


@pytest.mark.parametrize("batch", [0, -1])
def test_invalid_batch_rejected(batch):
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", batch, 1)


@pytest.mark.parametrize("gpus", [0, -2, 9, 16])
def test_invalid_gpu_count_rejected(gpus):
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, gpus)


def test_invalid_dataset_rejected():
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 1, dataset_images=0)


def test_global_batch_size():
    assert TrainingConfig("lenet", 32, 4).global_batch_size == 128


def test_iterations_per_epoch_strong():
    c = TrainingConfig("lenet", 16, 8, dataset_images=256 * 1024)
    assert c.iterations_per_epoch == 256 * 1024 // (16 * 8)


def test_iterations_per_epoch_rounds_up():
    c = TrainingConfig("lenet", 100, 1, dataset_images=250)
    assert c.iterations_per_epoch == 3


def test_weak_scaling_grows_dataset():
    strong = TrainingConfig("lenet", 16, 4, scaling=ScalingMode.STRONG)
    weak = TrainingConfig("lenet", 16, 4, scaling=ScalingMode.WEAK)
    assert weak.total_images == 4 * strong.total_images
    # per-GPU iteration count matches the single-GPU strong run
    assert weak.iterations_per_epoch == strong.iterations_per_epoch * 4


def test_describe_tag():
    c = TrainingConfig("alexnet", 32, 4, comm_method=CommMethodName.P2P)
    assert c.describe() == "alexnet/b32/g4/p2p"


@given(
    batch=st.sampled_from([16, 32, 64]),
    gpus=st.sampled_from([1, 2, 4, 8]),
    images=st.integers(min_value=1, max_value=10**7),
)
def test_iterations_cover_dataset_property(batch, gpus, images):
    """iterations * global_batch always covers the dataset exactly once."""
    c = TrainingConfig("lenet", batch, gpus, dataset_images=images)
    covered = c.iterations_per_epoch * c.global_batch_size
    assert covered >= c.total_images
    assert covered - c.total_images < c.global_batch_size


def test_simulation_config_validation():
    with pytest.raises(ConfigurationError):
        SimulationConfig(warmup_iterations=-1)
    with pytest.raises(ConfigurationError):
        SimulationConfig(measure_iterations=0)


def test_comm_method_round_trip():
    assert CommMethodName("p2p") is CommMethodName.P2P
    assert str(CommMethodName.NCCL) == "nccl"


# ----------------------------------------------------------------------
# Eager construction-time validation (fail fast, actionable messages)
# ----------------------------------------------------------------------
def test_unknown_network_rejected_eagerly():
    with pytest.raises(ConfigurationError) as exc:
        TrainingConfig("resnet-50", 16, 1)
    assert "resnet-50" in str(exc.value)
    assert "available" in str(exc.value)  # lists valid choices


def test_custom_network_flag_bypasses_zoo_lookup():
    config = TrainingConfig("hand-built", 16, 1, custom_network=True)
    assert config.custom_network


def test_unknown_optimizer_rejected_eagerly():
    with pytest.raises(ConfigurationError) as exc:
        TrainingConfig("lenet", 16, 1, optimizer="rmsprop")
    assert "rmsprop" in str(exc.value)
    assert "available" in str(exc.value)


def test_unsupported_gpu_count_message_is_actionable():
    with pytest.raises(ConfigurationError) as exc:
        TrainingConfig("lenet", 16, 9)
    message = str(exc.value)
    assert "num_gpus=9" in message
    assert "cluster_nodes" in message  # tells the user how to fix it


def test_incompatible_nccl_tuning_combo_rejected():
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 2, nccl_algorithm="compat",
                       nccl_protocol="simple")
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 2, nccl_algorithm="ring",
                       nccl_protocol="compat")
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 2, nccl_algorithm="butterfly",
                       nccl_protocol="simple")


def test_nonpositive_batch_and_gpus_rejected():
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 0, 1)
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", -4, 1)
    with pytest.raises(ConfigurationError):
        TrainingConfig("lenet", 16, 0)


def test_enum_strings_coerce_to_their_members():
    c = TrainingConfig("lenet", 16, 2, comm_method="p2p", scaling="weak")
    assert c.comm_method is CommMethodName.P2P
    assert c.scaling is ScalingMode.WEAK
    assert c == TrainingConfig("lenet", 16, 2,
                               comm_method=CommMethodName.P2P,
                               scaling=ScalingMode.WEAK)
    assert c.total_images == 2 * PAPER_DATASET_IMAGES


@pytest.mark.parametrize("field, value", [
    ("scaling", "huge"), ("comm_method", "pigeon"), ("scaling", None),
    ("comm_method", 3),
])
def test_unknown_enum_value_raises_configuration_error(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TrainingConfig("lenet", 16, 2, **{field: value})
