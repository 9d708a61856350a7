#!/usr/bin/env python3
"""Straggler injection: how a slow GPU poisons synchronous SGD.

Synchronous SGD's barrier (the mechanism behind every scaling limit the
paper measures) transmits one GPU's slowdown to the entire job, while
asynchronous SGD degrades only by the straggler's own share of throughput.

Run:  python examples/straggler_study.py
"""

import dataclasses

from repro import CommMethodName, TrainingConfig
from repro.experiments.tables import render_table
from repro.train import Trainer

CONFIG = TrainingConfig("googlenet", 32, 8, comm_method=CommMethodName.NCCL)
#: The same job under asynchronous SGD (the strategy runs over P2P).
ASYNC = dataclasses.replace(CONFIG, comm_method=CommMethodName.P2P,
                            strategy="async-update")
SLOWDOWNS = (1.0, 1.5, 2.0, 4.0)


def main() -> None:
    rows = []
    sync_base = async_base = None
    for factor in SLOWDOWNS:
        straggler = {} if factor == 1.0 else {5: factor}
        sync = Trainer(CONFIG, gpu_speed_factors=straggler).run()
        asyn = Trainer(ASYNC, gpu_speed_factors=straggler).run()
        if factor == 1.0:
            sync_base, async_base = sync, asyn
        rows.append(
            (
                f"x{factor:g}",
                f"{sync.epoch_time:.1f}",
                f"x{sync.epoch_time / sync_base.epoch_time:.2f}",
                f"{asyn.epoch_time:.1f}",
                f"x{asyn.epoch_time / async_base.epoch_time:.2f}",
            )
        )
    print(
        render_table(
            ["GPU5 slowdown", "Sync epoch (s)", "Sync impact",
             "Async epoch (s)", "Async impact"],
            rows,
            title=f"Straggler sensitivity: {CONFIG.describe()}",
        )
    )
    print("The synchronous barrier transmits the straggler's slowdown to all")
    print("eight GPUs; the asynchronous server only loses that worker's share.")


if __name__ == "__main__":
    main()
