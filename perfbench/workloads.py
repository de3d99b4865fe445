"""The benchmark's workloads: one spec builder and two budgets each.

Every workload is a closed loop: a worker sends its next push only after
the OK (and pull) for the previous one has returned.  At most two
processes are busy at once, one per core of the two-core machine the
budgets were sized on.  ``README.md`` in this directory records why each
workload was chosen and which layers it exercises.

A budget is a number of global updates (pushes applied).  ``steps_per_s``
is the slope between the ``short`` and ``long`` budgets, ``setup_s`` the
intercept, so fixed costs cannot pass as throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Layers (span names, see ``tracing.LAYER_TARGETS``) and the workloads
#: that exercise them; every other pairing must record zero calls.
ALL_LAYERS = (
    "workload.build",
    "worker.compute",
    "codec.encode",
    "transport.send",
    "transport.recv",
    "server.apply",
    "server.pull",
    "policy.on_push",
    "sim.run",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    short: int
    long: int
    #: Identical final loss for one seed on every run (no timing-dependent
    #: interleaving of pushes).
    deterministic: bool
    exercised: tuple[str, ...]
    builder: Callable

    def spec(self, seed: int, updates: int):
        """The ``(ExperimentSpec, backend)`` pair for one run of ``updates``."""
        return self.builder(self.name, seed, updates)


def _epochs_for(updates_per_worker: int, num_train: int, num_workers: int, batch: int) -> float:
    # The wall-clock backends run ceil(epochs * partition / batch) iterations
    # per worker; aim half an iteration low so rounding cannot add one.
    partition = num_train // num_workers
    return (updates_per_worker - 0.5) * batch / partition


_MLP_SCALE = dict(
    name="bench-mlp",
    num_train=4096,
    num_test=512,
    image_size=16,
    num_classes_cifar100=10,
    model_width=4,
    fc_width=256,
    resnet_depth_for_110=8,
    resnet_depth_for_50=8,
    epochs=1.0,
    batch_size=32,
    evaluate_every_updates=0,
)


def _tcp_mlp(name: str, seed: int, updates: int):
    from repro.api import ClusterConfig, ExperimentSpec

    spec = ExperimentSpec(
        name=name,
        workload="mlp",
        workload_kwargs={"seed": seed},
        scale=_MLP_SCALE,
        cluster=ClusterConfig(num_workers=1),
        paradigm="asp",
        paradigm_kwargs={},
        epochs=_epochs_for(updates, _MLP_SCALE["num_train"], 1, _MLP_SCALE["batch_size"]),
        evaluate_every_updates=0,
        compression="none",
        dtype="float32",
        seed=seed,
    )
    return spec, "tcp"


_ALEXNET_SCALE = dict(
    name="bench-alexnet",
    num_train=960,
    num_test=240,
    image_size=16,
    num_classes_cifar100=20,
    model_width=8,
    fc_width=64,
    resnet_depth_for_110=20,
    resnet_depth_for_50=14,
    epochs=1.0,
    batch_size=32,
    evaluate_every_updates=0,
)

#: Seconds ``worker-1`` sleeps per iteration, about three conv steps: the
#: straggler runs at about a quarter of the fast worker's rate.
STRAGGLER_SLEEP_S = 0.05


def _shm_alexnet(name: str, seed: int, updates: int):
    from repro.api import ClusterConfig, ExperimentSpec, ProcessBackend

    spec = ExperimentSpec(
        name=name,
        workload="alexnet",
        workload_kwargs={"seed": seed},
        scale=_ALEXNET_SCALE,
        cluster=ClusterConfig(num_workers=2),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 3, "s_upper": 15},
        epochs=_epochs_for(
            updates // 2, _ALEXNET_SCALE["num_train"], 2, _ALEXNET_SCALE["batch_size"]
        ),
        evaluate_every_updates=0,
        # At the default 0.05 some seeds' stale pushes stall training near
        # chance level; 0.01 lowers the loss on every seed tried.
        learning_rate=0.01,
        compression="topk:0.01",
        dtype="float32",
        slowdowns={"worker-1": STRAGGLER_SLEEP_S},
        seed=seed,
    )
    return spec, ProcessBackend(transport="shm")


_RESNET_SCALE = dict(
    name="bench-resnet",
    num_train=960,
    num_test=240,
    image_size=8,
    num_classes_cifar100=20,
    model_width=6,
    fc_width=48,
    resnet_depth_for_110=20,
    resnet_depth_for_50=14,
    epochs=3.0,
    batch_size=32,
    evaluate_every_updates=25,
)

#: The paper's Figure 4 mixes fast and slow GPUs; the straggler profile
#: adds timing jitter.
HETERO_DEVICES = ("gtx1080ti", "gtx1060", "p100", "straggler")

#: Accuracy whose first crossing (in virtual seconds) is ``sim.tta_virtual_s``.
TTA_TARGET = 0.25


def _sim_resnet(name: str, seed: int, updates: int):
    from repro.api import ClusterConfig, ExperimentSpec

    spec = ExperimentSpec(
        name=name,
        workload="resnet110",
        workload_kwargs={"seed": seed},
        scale=_RESNET_SCALE,
        cluster=ClusterConfig(kind="heterogeneous", devices=HETERO_DEVICES),
        paradigm="dssp",
        paradigm_kwargs={"s_lower": 3, "s_upper": 15},
        # The update cap ends the run; the epoch budget only has to exceed it.
        epochs=1000.0,
        max_updates=updates,
        seed=seed,
    )
    return spec, "simulated"


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="tcp-mlp-dense-1w",
            short=16,
            long=384,
            deterministic=True,
            builder=_tcp_mlp,
            exercised=(
                "workload.build",
                "worker.compute",
                "transport.send",
                "transport.recv",
                "server.apply",
                "server.pull",
                "policy.on_push",
            ),
        ),
        Workload(
            name="shm-alexnet-dssp-straggler",
            # No smaller: after 10 updates some seeds' loss is still above
            # the initial loss, which the output checks reject.
            short=14,
            long=120,
            deterministic=False,
            builder=_shm_alexnet,
            exercised=(
                "workload.build",
                "worker.compute",
                "codec.encode",
                "server.apply",
                "server.pull",
                "policy.on_push",
            ),
        ),
        Workload(
            name="sim-resnet110-hetero",
            short=5,
            long=90,
            deterministic=True,
            builder=_sim_resnet,
            exercised=(
                "workload.build",
                "worker.compute",
                "server.apply",
                "server.pull",
                "policy.on_push",
                "sim.run",
            ),
        ),
    )
}
