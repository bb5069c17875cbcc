"""Cold-start probe: one fresh interpreter up to its first planning call.

``run.py`` starts this script as a child process and times it from before
the start to the moment it prints ``ready``: interpreter start, imports,
config validation, world generation and ``run_rollout``'s own set-up.  The
child then exits without planning.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ixbsp import simulation  # noqa: E402
from ixbsp.config import ScenarioConfig  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _ready(*_args):
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    ws = workload.world_seed(int(sys.argv[2]), 0)
    cfg = ScenarioConfig.from_json_dict(workload.config)
    world = simulation.world_from_config(cfg.world, ws)
    simulation.plan_session = _ready
    simulation.run_rollout(world, workload.driver, cfg, ws, world_seed=ws,
                           shadow_kinds=(workload.shadow,))
    sys.exit("the rollout ended without a planning call")
