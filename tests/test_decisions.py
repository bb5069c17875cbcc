"""What the planners decide, pinned bit for bit.

A change that only makes planning faster must leave every objective and
every chosen sequence as it was.  These two short rollouts on world 0 pin
the ``repr`` of each session's objective and its chosen sequence, for the
fresh planner that executes and its incremental shadow, on sampled futures
(``xbsp`` with an ``ixbsp`` shadow, horizon 2) and on most-likely futures
(``mlbsp`` with an ``imlbsp`` shadow, horizon 3).  A value here changes
only with a change that declares it alters what the planners decide.
"""

from __future__ import annotations

import pytest

from _util import bench_cfg
from ixbsp.simulation import run_rollout, world_from_config

# planner, shadow, config overrides -> per planner: (repr(objective), chosen_seq)
PINNED = {
    ("xbsp", "ixbsp", (("horizon", 2),)): {
        "xbsp": [("6.066387469132808", (0, 0)),
                 ("6.2540141350000065", (1, 0)),
                 ("6.155323475209075", (2, 0))],
        "ixbsp": [("6.066387469132808", (0, 0)),
                  ("6.2540141350000065", (1, 0)),
                  ("6.170514972335122", (2, 0))],
    },
    ("mlbsp", "imlbsp", ()): {
        "mlbsp": [("8.993130306663883", (0, 0, 0)),
                  ("8.948448359029463", (0, 0, 0)),
                  ("8.860674269885706", (1, 2, 0))],
        "imlbsp": [("8.993130306663883", (0, 0, 0)),
                   ("8.948448359029463", (0, 0, 0)),
                   ("8.91313200145266", (1, 2, 0))],
    },
}


@pytest.mark.parametrize("key", list(PINNED), ids=lambda k: f"{k[0]}-{k[1]}")
def test_first_sessions_decide_as_pinned(key):
    planner, shadow, overrides = key
    cfg = bench_cfg(max_sessions=3, **dict(overrides))
    metrics = run_rollout(world_from_config(cfg.world, seed=0), planner, cfg, 0,
                          shadow_kinds=(shadow,))
    got = {
        kind: [(repr(r.objective), r.chosen_seq) for r in rows]
        for kind, rows in ((planner, metrics.sessions),
                           (shadow, metrics.shadow_sessions[shadow]))
    }
    assert got == PINNED[key]
