"""Run-level configuration objects.

:class:`TrainingConfig` describes one training experiment (network, batch
size, GPU count, communication method, dataset size); it validates itself on
construction so an invalid sweep fails fast.  :class:`SimulationConfig`
controls how the discrete-event simulation extrapolates steady-state
iterations to a full epoch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError

#: The GPU counts the paper evaluates.
PAPER_GPU_COUNTS = (1, 2, 4, 8)
#: The per-GPU batch sizes the paper evaluates.
PAPER_BATCH_SIZES = (16, 32, 64)
#: The strong-scaling dataset: 256K ImageNet images.
PAPER_DATASET_IMAGES = 256 * 1024


class CommMethodName(str, enum.Enum):
    """Inter-GPU communication method, matching the paper's terminology."""

    P2P = "p2p"
    NCCL = "nccl"
    #: CPU aggregation over PCIe (MXNet ``kvstore=local``); not part of the
    #: paper's sweep but the baseline its background section contrasts.
    LOCAL = "local"
    #: Modern AllReduce with replicated local updates (DDP/Horovod style);
    #: the forward-looking comparison point.
    NCCL_ALLREDUCE = "nccl-allreduce"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ScalingMode(str, enum.Enum):
    """Strong scaling keeps the dataset fixed; weak scaling grows it with N."""

    STRONG = "strong"
    WEAK = "weak"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Valid ``TrainingConfig.nccl_algorithm`` values.  ``"compat"`` pins the
#: pre-fidelity-layer ring model exactly (byte-stable golden outputs);
#: ``"auto"`` mirrors NCCL's internal cost-model selection; ``"ring"`` /
#: ``"tree"`` pin one algorithm.
NCCL_ALGORITHMS = ("compat", "auto", "ring", "tree")
#: Valid ``TrainingConfig.nccl_protocol`` values (see docs/COMM.md).
NCCL_PROTOCOLS = ("compat", "auto", "simple", "ll", "ll128")

#: Valid ``TrainingConfig.cluster_fabric`` values.  ``"compat"`` keeps the
#: aggregated width-4 InfiniBand attachment (byte-identical to the
#: pre-cluster-tier graph); the others select a
#: :class:`repro.topology.cluster.ClusterSpec` interconnect
#: (docs/SCALING.md).
CLUSTER_FABRICS = ("compat", "single-switch", "fat-tree")
#: Valid ``TrainingConfig.cluster_collective`` values.  ``"compat"`` keeps
#: the flat global NCCL ring; the hierarchical values enable the
#: rail-aware three-phase AllReduce with a ring or tree inter-node
#: exchange (docs/SCALING.md).
CLUSTER_COLLECTIVES = ("compat", "hierarchical-ring", "hierarchical-tree")
#: Valid ``TrainingConfig.cluster_fast_path`` values: how inter-node
#: collective segments are folded into the event timeline.  ``"auto"``
#: picks ``"event"`` up to 4 nodes and ``"analytic"`` beyond.
CLUSTER_FAST_PATHS = ("auto", "event", "analytic")


@dataclass(frozen=True)
class SimulationConfig:
    """Controls the event-level simulation of a training run.

    Training is periodic per iteration, so we measure steady-state
    iterations at full event fidelity and extrapolate the mean iteration
    time to the epoch's iteration count (plus once-per-run fixed costs).
    The simulated clock is translation-invariant and a fresh environment
    is already a steady boundary, so when the boundary after iteration 0
    is quiescent too, iteration 0 provably repeats bit for bit and is the
    whole measurement (one ``iteration_times`` entry).  Runs that are not
    provably periodic (a time-varying straggler) discard
    ``warmup_iterations`` and measure the next ``measure_iterations``;
    invariant checking simulates ``warmup_iterations +
    measure_iterations`` to verify the periodic ones
    (``temporal.periodic``).
    """

    warmup_iterations: int = 1
    measure_iterations: int = 3

    def __post_init__(self) -> None:
        if self.warmup_iterations < 0:
            raise ConfigurationError("warmup_iterations must be >= 0")
        if self.measure_iterations < 1:
            raise ConfigurationError("measure_iterations must be >= 1")


@dataclass(frozen=True)
class TrainingConfig:
    """One point of the paper's experimental sweep."""

    network: str
    batch_size: int
    num_gpus: int
    comm_method: CommMethodName = CommMethodName.NCCL
    scaling: ScalingMode = ScalingMode.STRONG
    dataset_images: int = PAPER_DATASET_IMAGES
    overlap_bp_wu: bool = True
    #: DGX-1 nodes in the system; >1 simulates an InfiniBand cluster
    #: (extension beyond the paper's single node, NCCL only).
    cluster_nodes: int = 1
    #: Communicate gradients/weights in half precision (halves WU traffic;
    #: an extension in the direction the paper's insights point).
    fp16_gradients: bool = False
    #: Optimizer name ('sgd', 'sgd-momentum', 'adam'); resolved by the
    #: trainer against :mod:`repro.train.optimizers`.
    optimizer: str = "sgd-momentum"
    #: NCCL collective algorithm: "compat" (default -- the pinned legacy
    #: ring model, byte-identical to pre-fidelity-layer outputs), "auto"
    #: (NCCL's cost-model selection per message size), "ring" or "tree".
    #: Ignored by non-NCCL communication methods.
    nccl_algorithm: str = "compat"
    #: NCCL wire protocol: "compat" (default), "auto", "simple", "ll" or
    #: "ll128".  "compat" must pair with ``nccl_algorithm="compat"``.
    nccl_protocol: str = "compat"
    #: Skip the model-zoo name check (for tests that monkeypatch the zoo
    #: or supply hand-built networks outside :mod:`repro.dnn.zoo`).
    custom_network: bool = False
    #: Training strategy (see :mod:`repro.train.strategies` and
    #: docs/TRAINING.md).  The default ``"auto"`` selects the synchronous
    #: strategy matching ``comm_method`` -- byte-identical to the
    #: pre-registry trainer -- while an explicit name ("p2p-tree",
    #: "nccl-collective", "nccl-allreduce-replicated", "ps-cpu",
    #: "ps-gpu", "async-update") pins one point of the strategy matrix.
    strategy: str = "auto"
    #: Inter-node fabric: "compat" (default -- the aggregated width-4
    #: InfiniBand attachment, byte-identical to the pre-cluster-tier
    #: graph), "single-switch" or "fat-tree" (per-HCA rails; see
    #: docs/SCALING.md).  Ignored for single-node runs.
    cluster_fabric: str = "compat"
    #: Multi-node collective: "compat" (default -- the flat global NCCL
    #: ring), "hierarchical-ring" or "hierarchical-tree" (rail-aware
    #: reduce-scatter / inter-node exchange / allgather).  Requires an
    #: NCCL comm method, compat NCCL tuning, and full nodes.
    cluster_collective: str = "compat"
    #: How inter-node collective phases enter the event timeline:
    #: "auto" (default; "event" up to 4 nodes, "analytic" beyond),
    #: "event" (per-phase, per-rail events) or "analytic" (one
    #: closed-form segment per collective).  Only meaningful with a
    #: hierarchical ``cluster_collective``.
    cluster_fast_path: str = "auto"

    def __post_init__(self) -> None:
        # The enum fields also accept their string values ("weak",
        # "p2p"); everything downstream compares members by identity.
        for name, kind in (("comm_method", CommMethodName),
                           ("scaling", ScalingMode)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                try:
                    object.__setattr__(self, name, kind(value))
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        f"{name} must be one of "
                        f"{[member.value for member in kind]}, got {value!r}"
                    ) from None
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.num_gpus < 1:
            raise ConfigurationError(f"num_gpus must be positive, got {self.num_gpus}")
        if self.cluster_nodes < 1:
            raise ConfigurationError("cluster_nodes must be positive")
        if self.num_gpus > 8 * self.cluster_nodes:
            raise ConfigurationError(
                f"num_gpus={self.num_gpus} does not fit the modeled topology: "
                f"{self.cluster_nodes} DGX-1 node(s) hold at most "
                f"{8 * self.cluster_nodes} GPUs (raise cluster_nodes to "
                "simulate a larger InfiniBand cluster)"
            )
        if not self.custom_network:
            # Imported lazily: the zoo sits above core in the layer order.
            from repro.dnn.zoo import available_networks

            if self.network not in available_networks():
                raise ConfigurationError(
                    f"unknown network {self.network!r}; available: "
                    f"{sorted(available_networks())} (pass custom_network=True "
                    "to bypass the zoo lookup)"
                )
        from repro.train.optimizers import get_optimizer

        get_optimizer(self.optimizer)  # raises ConfigurationError if unknown
        # Strategy x comm x topology validation matrix.  Imported lazily:
        # the strategy registry sits above core in the layer order.  This
        # replaces the old multi-node string check, which let incompatible
        # strategy/topology pairs (e.g. a parameter server spanning nodes)
        # slip through as soon as the wording drifted.
        from repro.train.strategies import validate_config

        validate_config(self)
        if self.dataset_images < 1:
            raise ConfigurationError("dataset_images must be positive")
        if self.nccl_algorithm not in NCCL_ALGORITHMS:
            raise ConfigurationError(
                f"nccl_algorithm must be one of {NCCL_ALGORITHMS}, "
                f"got {self.nccl_algorithm!r}"
            )
        if self.nccl_protocol not in NCCL_PROTOCOLS:
            raise ConfigurationError(
                f"nccl_protocol must be one of {NCCL_PROTOCOLS}, "
                f"got {self.nccl_protocol!r}"
            )
        if (self.nccl_algorithm == "compat") != (self.nccl_protocol == "compat"):
            raise ConfigurationError(
                "'compat' pins the whole legacy NCCL model: nccl_algorithm "
                "and nccl_protocol must both be 'compat' or neither "
                f"(got algorithm={self.nccl_algorithm!r}, "
                f"protocol={self.nccl_protocol!r})"
            )
        if self.cluster_fabric not in CLUSTER_FABRICS:
            raise ConfigurationError(
                f"cluster_fabric must be one of {CLUSTER_FABRICS}, "
                f"got {self.cluster_fabric!r}"
            )
        if self.cluster_collective not in CLUSTER_COLLECTIVES:
            raise ConfigurationError(
                f"cluster_collective must be one of {CLUSTER_COLLECTIVES}, "
                f"got {self.cluster_collective!r}"
            )
        if self.cluster_fast_path not in CLUSTER_FAST_PATHS:
            raise ConfigurationError(
                f"cluster_fast_path must be one of {CLUSTER_FAST_PATHS}, "
                f"got {self.cluster_fast_path!r}"
            )
        if self.cluster_collective != "compat":
            if self.comm_method not in (
                CommMethodName.NCCL,
                CommMethodName.NCCL_ALLREDUCE,
            ):
                raise ConfigurationError(
                    "hierarchical cluster collectives require an NCCL "
                    "communication method (nccl or nccl-allreduce), got "
                    f"{self.comm_method.value!r}"
                )
            if self.nccl_algorithm != "compat":
                raise ConfigurationError(
                    "hierarchical cluster collectives pin their own "
                    "intra/inter-node schedule; nccl_algorithm/nccl_protocol "
                    "must stay 'compat' (got "
                    f"algorithm={self.nccl_algorithm!r})"
                )
            if self.num_gpus != 8 * self.cluster_nodes:
                raise ConfigurationError(
                    "hierarchical cluster collectives assume full DGX-1 "
                    f"nodes: num_gpus must equal 8 * cluster_nodes "
                    f"(got num_gpus={self.num_gpus}, "
                    f"cluster_nodes={self.cluster_nodes})"
                )

    @property
    def total_images(self) -> int:
        """Images processed per epoch (weak scaling grows the dataset)."""
        if self.scaling is ScalingMode.WEAK:
            return self.dataset_images * self.num_gpus
        return self.dataset_images

    @property
    def global_batch_size(self) -> int:
        """Combined mini-batch across all GPUs per iteration."""
        return self.batch_size * self.num_gpus

    @property
    def iterations_per_epoch(self) -> int:
        """Number of synchronous-SGD iterations in one epoch."""
        images = self.total_images
        return max(1, -(-images // self.global_batch_size))  # ceil division

    def describe(self) -> str:
        """Short human-readable tag, e.g. ``alexnet/b32/g4/nccl``."""
        nodes = f"/n{self.cluster_nodes}" if self.cluster_nodes > 1 else ""
        tuning = (
            f"/{self.nccl_algorithm}+{self.nccl_protocol}"
            if self.nccl_algorithm != "compat"
            else ""
        )
        strat = f"/{self.strategy}" if self.strategy != "auto" else ""
        coll = (
            f"/{self.cluster_collective}"
            if self.cluster_collective != "compat"
            else ""
        )
        fabric = (
            f"/{self.cluster_fabric}" if self.cluster_fabric != "compat" else ""
        )
        return (
            f"{self.network}/b{self.batch_size}/g{self.num_gpus}/"
            f"{self.comm_method.value}{nodes}{tuning}{strat}{coll}{fabric}"
        )
