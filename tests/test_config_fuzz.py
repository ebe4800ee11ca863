"""Config contract fuzzer: one value of a valid config made wrong.

Each example mutates one path of a valid `compose`, `extend`, `train` or
`corpus` config (a value of the wrong type, `true`, NaN, an infinity, 0,
-1, a float for an int, an empty list, an extra key or a missing key) and
runs it on --dry-run and for real. Whatever the mutation, the exit code is
0, 2 or 3, nothing raises out of `main`, no traceback is printed, an exit
2 creates no --out, and --dry-run exits 2 exactly when the real run does.
"""

import contextlib
import copy
import io
import json
import math
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmotion.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

RUN = {"schedule": {"t_train": 50, "ddim_steps": 5},
       "optimizer": {"lr": 0.003, "max_steps": 3, "early_stop_loss": 1e-6,
                     "lr_decay": 1.0},
       "prior": {"kind": "analytic"}, "fps": 20.0}
SEGMENT = {"window": 12, "kept": 6, "pairs": [[1, 2, "face-and-talk"]],
           "penalties": [{"kind": "boundary", "subjects": [1],
                          "params": {"window_start": 5, "window_len": 4}}],
           "boundary_frames": 4, "boundary_weight": 1.0, "mode": "noised"}
SCENE = {
    "participants": [1, 2, 3], "first_label": "approach", "n_frames": 12,
    "first_penalties": [
        {"kind": "overlap", "weight": 1.0, "subjects": [1, 2],
         "frames": [0, 11], "params": {"delta": 0.3}},
        {"kind": "root", "subjects": [1], "frames": [11],
         "params": {"targets": [[0.0, 0.9, 0.0]], "delta": 0.0}},
        {"kind": "region", "subjects": [2],
         "params": {"lower": [-5, -1, -5], "upper": [5, 3, 5],
                    "joints": [0, 1]}},
        {"kind": "relative", "subjects": [1, 2],
         "params": {"d_min": 0.5, "d_max": 3.0}}],
    "steps": [{"target": 3, "reference": 1, "label": "follow",
               "opt_subset": [1],
               "penalties": [{"kind": "orientation", "subjects": [3],
                              "frames": [11],
                              "params": {"targets": [1, 0], "delta": 0.2}}]}],
    "extension": [SEGMENT]}
VALUES = ["not-a-value", True, math.nan, math.inf, -math.inf, 0, -1, 2.5, []]
EXTRA, MISSING = "extra key", "missing key"


def paths(node, prefix=()):
    """Every path into a JSON value: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from paths(v, prefix + (k,))


def mutated(config, path, change):
    """`config` with the value at `path` replaced by `change`, given an
    extra key, or removed."""
    out = copy.deepcopy(config)
    *head, last = path
    parent = out
    for k in head:
        parent = parent[k]
    if change == EXTRA:
        target = parent[last]
        if isinstance(target, dict):
            target["bogus"] = 1
        else:
            parent[last] = {"bogus": 1}
    elif change == MISSING:
        del parent[last]
    else:
        parent[last] = change
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@pytest.fixture(scope="module")
def configs(workdir):
    """A valid config per command, over a small corpus and composed run."""
    corpus = {"labels": ["approach", "follow"], "samples_per_label": 1,
              "n_frames": 8, "fps": 20.0}
    corpus_dir = os.path.join(workdir, "corpus")
    runs_dir = os.path.join(workdir, "runs")
    compose = dict(RUN, stats=os.path.join(corpus_dir, "stats.json"),
                   scene=SCENE)
    for command, config, out in (("corpus", corpus, corpus_dir),
                                 ("compose", compose, runs_dir)):
        cfg = os.path.join(workdir, f"{command}.json")
        with open(cfg, "w") as f:
            json.dump(config, f)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", cfg, "--out", out]) == EXIT_OK
    return {"corpus": corpus, "compose": compose,
            "extend": dict(RUN, results_dir=runs_dir,
                           scene={"extension": [SEGMENT]}),
            "train": {"corpus_dir": corpus_dir, "schedule": RUN["schedule"],
                      "epochs": 1, "hidden": 8, "lr": 0.001}}


def check_contract(command, config, tmp):
    """Run `config` on --dry-run, then for real, and check the contract;
    returns the two exit codes."""
    cfg, out = os.path.join(tmp, "fuzz.json"), os.path.join(tmp, "out")
    with open(cfg, "w") as f:
        json.dump(config, f)
    codes = []
    for dry in (True, False):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", cfg, "--out", out]
                        + ["--dry-run"] * dry)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME), code
        assert "Traceback" not in err.getvalue()
        if code == EXIT_CONFIG:
            assert not os.path.exists(out)
        shutil.rmtree(out, ignore_errors=True)
        codes.append(code)
    assert (codes[0] == EXIT_CONFIG) == (codes[1] == EXIT_CONFIG), codes
    return codes


@pytest.mark.parametrize("command", ["compose", "extend", "train", "corpus"])
def test_valid_fuzz_bases_run(configs, workdir, command):
    """The unmutated configs exit 0, so each mutation tests its one path."""
    assert check_contract(command, configs[command], workdir) == \
        [EXIT_OK, EXIT_OK]


@pytest.mark.parametrize("command", ["compose", "extend", "train", "corpus"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_wrong_value_keeps_the_exit_contract(configs, workdir, command,
                                                 data):
    config = configs[command]
    path = data.draw(st.sampled_from(list(paths(config))), label="path")
    change = data.draw(st.sampled_from(VALUES + [EXTRA, MISSING]),
                       label="change")
    check_contract(command, mutated(config, path, change), workdir)
