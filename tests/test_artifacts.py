"""The CSV artifact format: golden texts of small CLI runs and the column writer."""

import json
import math

import numpy as np
import pytest

from qlag._fmt import write_table
from qlag.cli import EXIT_OK, main

POINTS = {"service": {"kind": "deterministic", "value": 1.0},
          "delay": {"kind": "deterministic", "value": 0.25}}
EXP1 = {"kind": "exp", "kappa": 1.0}
LAST3 = {"kind": "last_k", "k": 3}

# Point-mass laws (and the closed-form exp/exp verdicts) keep every number
# machine-stable, so these texts pin the format cell by cell.
GOLDEN = {
    "trajectory.csv": ("simulate", {**POINTS, "n": 4, "lag": 0.5}, """\
index,service,delay,wait,sojourn,iat,state
1,1,0.25,0,1,0,idle
2,1,0.25,0.25,1.25,0.75,busy
3,1,0.25,0.25,1.25,1,busy
4,1,0.25,0.25,1.25,1,busy
"""),
    "grid.csv": ("grid-search", {**POINTS, "reward": EXP1, "objective": "exact",
                                 "lag_max": 1.0, "step": 0.25}, """\
lag,reward,std_error
0,0.17377394345,0
0.25,0.223130160148,0
0.5,0.28650479686,0
0.75,0.367879441171,0
1,0.294303552937,0
# best_lag=0.75 best_reward=0.367879441171
"""),
    # the gradient rule keeps no belief: empty alpha/beta cells
    "bayes_log.csv": ("bayes", {**POINTS, "reward": EXP1, "n": 6, "reporting": LAST3}, """\
index,lag_drawn,alpha,beta,state,reward_window
1,0,,,idle,
2,0,,,busy,
3,0,,,busy,0.572341862458
4,0,,,busy,0.231698591267
5,0,,,busy,0.17377394345
6,0,,,busy,0.17377394345
"""),
    "meanshift.csv": ("mean-shift", {
        **POINTS, "reward": EXP1, "kind": "abrupt", "n": 6, "width": 3,
        "schedule": {"kind": "abrupt", "segments": [[3, 1.0, 0.25], [3, 0.5, 0.5]]},
    }, """\
index,G_be_window,G_ref
3,0.572341862458,0.367879441171
4,0.286170931229,0.367879441171
5,0.353287398257,1.21306131943
6,0.574887549308,1.21306131943
"""),
    # no grid method: empty G_sim cells; a poly reward: empty kappa, G_sur and G_tb
    "suite.csv": ("suite", {"cases": [
        {**POINTS, "id": "P1", "reward": EXP1, "methods": ["bayes", "surrogate"], "n": 6,
         "seeds": [1, 2], "reporting": LAST3},
        {**POINTS, "id": "P2", "reward": {"kind": "poly", "gamma": 2.0}, "methods": ["bayes"],
         "n": 6, "seeds": [1], "reporting": LAST3},
    ]}, """\
case,seed,kappa,G_sur,G_sim,G_be,G_tb
P1,1,1,0.367879441171,,0.17377394345,0.175564821855
P1,2,1,0.367879441171,,0.17377394345,0.175564821855
P2,1,,,,0.132231404959,
"""),
    "region.csv": ("region-scan", {"service_family": "exponential",
                                   "delay_family": "exponential", "kappa": 1.0,
                                   "ts": [0.5, 1.0], "td": [0.25, 0.75]}, """\
t_s,t_d,verdict
0.5,0.25,fails
0.5,0.75,holds
1,0.25,fails
1,0.75,holds
"""),
}


@pytest.mark.parametrize("artifact", GOLDEN)
def test_artifact_text_is_pinned(tmp_path, artifact):
    command, cfg, text = GOLDEN[artifact]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--seed", "7"]) == EXIT_OK
    assert (out / artifact).read_text() == text


def test_write_table_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, {
        "id": ["a", "b", "c"],
        "count": np.array([1, 2, 10**13]),  # an integer is not rounded to 12 digits
        "mixed": [np.int64(4), None, 2.5],
        "x": [None, math.nan, -math.inf],
        "y": np.array([0.1 + 0.2, math.inf, 1e-13]),
    }, trailer="# done")
    assert path.read_text() == (
        "id,count,mixed,x,y\n"
        "a,1,4,,0.3\n"
        "b,2,,nan,inf\n"
        "c,10000000000000,2.5,-inf,1e-13\n"
        "# done\n"
    )


def test_write_table_empty_keeps_header(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, {"a": [], "b": np.array([])})
    assert path.read_text() == "a,b\n"


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_table(tmp_path / "t.csv", {"a": [1, 2], "b": [1.0]})
