"""Command-line interface: dispatch, exit codes, deterministic artifacts."""
import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import markovdim
from markovdim.cli import (EXIT_DOMAIN, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, build_parser,
                           main)
from markovdim.empirics import orbit_rng, simulate_batch
from markovdim.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """argv of every line of the README "Command line" block."""
    block = README.read_text().split("## Command line", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("markovdim ")]


def readme_library_tour() -> str:
    """The README's "Library tour" Python block."""
    section = README.read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def readme_json(key: str) -> str:
    """The README's JSON config example that has ``key``."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return next(b for b in blocks if f'"{key}"' in b)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


JSON_COMMANDS = [
    ["pressure", "--map", "sv:0.9", "--potential", "neg-t-logT:7", "--nmax", "128",
     "--tol", "1e-4"],
    ["dimension", "hyperbolic", "--lambda", "0.9", "--nmax", "64", "--tol", "1e-2"],
    ["dimension", "variational", "--lambda", "0.9", "--alpha", "2.3992", "--nmax", "32",
     "--tol", "1e-2"],
    ["spectrum-lyapunov", "--lambda", "0.9", "--points", "20", "--format", "json"],
    ["figure1", "--lambda", "0.9", "--points", "20", "--format", "json"],
    ["spectrum-birkhoff", "--lambda", "0.9", "--grid-points", "2", "--nmax", "32",
     "--tol", "1e-2", "--format", "json"],
    ["simulate", "--map", "sv:0.9", "--x0", "0.95", "--horizon", "5"],
    ["escape", "--map", "sv:0.9", "--samples", "1000", "--horizon", "50"],
]


class TestPressureCommand:
    def test_sv_closed_form_case(self, capsys):
        code, out, _ = run(capsys, "pressure", "--map", "sv:0.9",
                           "--potential", "neg-t-logT:7", "--nmax", "1024",
                           "--tol", "1e-8")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["converged"] is True
        assert payload["result"]["value"] == pytest.approx(-15.46743902409920, abs=1e-6)
        assert payload["config"]["map"] == "sv:0.9"
        assert payload["version"]

    def test_nonconvergent_exit_with_partial_results(self, capsys):
        code, out, _ = run(capsys, "pressure", "--map", "sv:0.9",
                           "--potential", "zero", "--nmax", "64")
        assert code == EXIT_NOT_CONVERGED
        payload = json.loads(out)
        levels = payload["result"]["per_level"]
        assert len(levels) >= 5
        vals = [p for _, p in levels]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_nonconvergent_reason_on_stderr(self, capsys, tmp_path):
        argv = ["pressure", "--map", "sv:0.9", "--potential", "zero", "--nmax", "64"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_NOT_CONVERGED
        assert err.count("\n") == 1
        assert "N=32" in err and "N=64" in err and "tol 1e-08" in err
        # the body is the same one --out writes, untouched by the message
        f = tmp_path / "p.json"
        assert main(argv + ["--out", str(f)]) == EXIT_NOT_CONVERGED
        assert out == f.read_text()

    def test_single_level_reason_on_stderr(self, capsys):
        code, _, err = run(capsys, "pressure", "--map", "sv:0.9",
                           "--potential", "zero", "--nmax", "2")
        assert code == EXIT_NOT_CONVERGED
        assert err.startswith("not converged: only level N=2 ")

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "pressure", "--map", "sv:0.3", "--potential", "zero")
        assert code == EXIT_DOMAIN
        assert "lambda" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "pressure", "--map", "sv:0.9",
                           "--potential", "neg-t-logT:8", "--nmax", "64",
                           "--tol", "1e-4", "--format", "csv")
        assert code == EXIT_OK
        assert "N,P_N" in out
        assert out.count("\n") >= 8


class TestDimensionCommand:
    def test_hyperbolic(self, capsys):
        code, out, _ = run(capsys, "dimension", "hyperbolic", "--lambda", "0.75",
                           "--tol", "1e-5", "--nmax", "1024")
        payload = json.loads(out)
        assert payload["result"]["value"] == pytest.approx(0.8281444907572746, abs=1e-4)

    def test_readme_hyperbolic_example(self, capsys):
        code, out, err = run(capsys, "dimension", "hyperbolic", "--lambda", "0.75",
                             "--tol", "1e-5")
        assert code == EXIT_OK, err
        closed_form = -math.log(4.0) / math.log(0.75 * 0.25)
        payload = json.loads(out)
        assert payload["result"]["value"] == pytest.approx(closed_form, abs=1e-5)
        assert payload["config"]["nmax"] == 4096

    def test_hyperbolic_nonconvergent_reason_on_stderr(self, capsys):
        code, out, err = run(capsys, "dimension", "hyperbolic", "--lambda", "0.75",
                             "--tol", "1e-9", "--nmax", "64")
        assert code == EXIT_NOT_CONVERGED
        assert json.loads(out)["result"]["converged"] is False
        assert err.count("\n") == 1
        assert "N=32" in err and "N=64" in err and "tol 1e-09" in err

    def test_variational(self, capsys):
        code, out, _ = run(capsys, "dimension", "variational", "--lambda", "0.9",
                           "--alpha", "2.3991795", "--nmax", "256", "--tol", "1e-3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["dimension"] == pytest.approx(0.553, abs=5e-3)
        assert payload["result"]["hypothesis_unverified"] is False
        lo, hi = payload["result"]["bracket"]
        assert lo < payload["result"]["dimension"] < hi and hi - lo <= 1e-3 * (1 + 1e-12)

    def test_variational_default_nmax_is_512(self, capsys):
        argv = ["dimension", "variational", "--lambda", "0.9", "--alpha", "2.3992",
                "--tol", "1e-4"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["config"]["nmax"] == 512
        assert run(capsys, *argv, "--nmax", "512") == (code, out, "")

    def test_variational_needs_alpha(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dimension", "variational", "--lambda", "0.9"])
        assert exc.value.code == EXIT_USAGE


class TestSpectrumCommands:
    def test_figure1_shape(self, capsys):
        code, out, _ = run(capsys, "figure1", "--lambda", "0.9", "--points", "50")
        assert code == EXIT_OK
        lines = [l for l in out.strip().split("\n")]
        body = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(body) == 51  # 50 curve samples plus the appended jump point
        last = body[-1].split(",")
        assert float(last[0]) == pytest.approx(2.4079456086518722, rel=1e-12)
        assert float(last[1]) == 1.0
        assert last[2] == "ESCAPE_VALUE"
        assert any(l.startswith("# discontinuity,") for l in lines)

    def test_figure1_is_spectrum_lyapunov_csv(self, capsys):
        outs = []
        for cmd in (["figure1"], ["spectrum-lyapunov", "--format", "csv"]):
            code, out, _ = run(capsys, *cmd, "--lambda", "0.9", "--points", "50")
            assert code == EXIT_OK
            outs.append(out)
        bodies = [out[out.index("alpha,dimension,"):] for out in outs]
        assert bodies[0] == bodies[1]
        assert '"command": "figure1"' in outs[0] and '"t_max": 40.0' in outs[0]

    def test_spectrum_birkhoff(self, capsys):
        code, out, _ = run(capsys, "spectrum-birkhoff", "--lambda", "0.9",
                           "--grid-points", "4", "--nmax", "48", "--tol", "1e-2")
        assert code == EXIT_OK
        assert "ESCAPE_VALUE" in out

    def test_spectrum_birkhoff_tail_bounds_exact(self, capsys, tmp_path):
        cfg = tmp_path / "phi.json"
        cfg.write_text(json.dumps({"depth": 1, "default": 2.0,
                                   "overrides": {"1": 1.0, "2": 1.5}}))
        code, out, _ = run(capsys, "spectrum-birkhoff", "--lambda", "0.9",
                           "--phi", str(cfg), "--grid-min", "1.2", "--grid-max", "1.8",
                           "--grid-points", "2", "--nmax", "32", "--tol", "1e-2",
                           "--format", "json")
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert result["alpha_min"] == 1.0
        assert result["alpha_max"] == 2.0


class TestSimulateAndEscape:
    def test_simulate(self, capsys):
        code, out, _ = run(capsys, "simulate", "--map", "sv:0.9", "--x0", "0.95",
                           "--horizon", "1")
        payload = json.loads(out)
        assert payload["result"]["itinerary"] == [1]
        assert payload["result"]["birkhoff_logT"][-1] == pytest.approx(
            2.302585092994046, rel=1e-12)

    def test_escape_json(self, capsys):
        code, out, _ = run(capsys, "escape", "--map", "sv:0.9", "--samples", "1000",
                           "--horizon", "200", "--seed", "4")
        payload = json.loads(out)
        assert payload["result"]["fraction_escaping"] > 0.0

    def test_escape_custom_sv_copy(self, capsys, tmp_path):
        # a custom staircase copy of SV(0.9): branch 1 = (0.9, 1], then a tail of
        # ratio 0.9; its deep orbits are certified escapers as SV's are
        f = tmp_path / "copy.json"
        f.write_text(json.dumps(
            {"branches": [{"index": 1, "left": 0.9, "right": 1.0, "slope": 1 / (1 - 0.9)}],
             "transitions": "staircase",
             "tail": {"from_index": 2, "ratio": 0.9, "slope": 1 / (0.9 * 0.1)}}))
        frac = {}
        for spec in ("sv:0.9", str(f)):
            code, out, _ = run(capsys, "escape", "--map", spec, "--samples", "1000",
                               "--horizon", "1000", "--seed", "0")
            assert code == EXIT_OK
            frac[spec] = json.loads(out)["result"]["fraction_escaping"]
        assert frac[str(f)] == pytest.approx(frac["sv:0.9"], abs=0.01)
        assert frac["sv:0.9"] > 0.9

    def test_escape_csv_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code = main(["escape", "--map", "sv:0.9", "--samples", "1000",
                         "--horizon", "100", "--seed", "4", "--per-orbit",
                         "--out", str(f)])
            assert code == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_per_orbit_csv_plain_numbers(self, capsys):
        code, out, _ = run(capsys, "escape", "--map", "sv:0.9", "--samples", "40",
                           "--horizon", "60", "--seed", "5", "--per-orbit")
        assert code == EXIT_OK and "np." not in out
        lines = [line for line in out.splitlines() if not line.startswith("#")]
        assert lines[0] == "start,classification,steps,avg_logT_tail,quotient"
        rows = [line.split(",") for line in lines[1:]]
        stats = simulate_batch(markovdim.build_sv_map(0.9), 1.0 - orbit_rng(5).random(40), 60)
        tail = stats.logt_tail_sum / np.maximum(stats.tail_steps, 1)
        quot = stats.logt_sum / np.maximum(stats.steps, 1)
        assert len(rows) == 40
        for i, (start, cls, steps, avg, q) in enumerate(rows):
            assert float(start) == stats.starts[i] and int(steps) == stats.steps[i]
            assert cls == stats.classification()[i]
            assert float(avg) == tail[i] and float(q) == quot[i]

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_json_config_has_no_threads(self, argv, capsys):
        _, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert payload["config"]["command"] == " ".join(argv[:2 if argv[0] == "dimension" else 1])
        assert "threads" not in payload["config"]


class TestValidateCommand:
    def test_valid_sv(self, capsys, tmp_path):
        f = tmp_path / "sv.json"
        f.write_text(json.dumps({"sv_lambda": 0.9}))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_OK
        assert json.loads(out)["violations"] == []

    @pytest.mark.parametrize("cfg,want", [
        ({"branches": [{"index": 1, "left": 0.5, "right": 1.0, "slope": 2.0},
                       {"index": 2, "left": 0.25, "right": 0.5, "slope": 4.0}],
          "transitions": "full", "tail": {"from_index": 3, "ratio": 0.5}},
         "a tail rule requires rule-based transitions ('staircase')"),
        ({"branches": [{"index": 1, "left": 0.9, "right": 1.0, "slope": 10.0}],
          "transitions": "staircase", "tail": {"from_index": 2, "ratio": 0.9, "slope": 50}},
         "tail slope must be 1/(ratio (1 - ratio)) = 11.1111111111, got 50"),
        ({"branches": [{"index": 1, "left": 0.5, "right": 1.0, "slope": 2.0}],
          "transitions": "staircase", "tail": {"from_index": 2, "ratio": 0.4}},
         "branch 2: image length 1.25 != target union length 1"),
    ], ids=["full-tail", "slope-50", "first-tail-branch"])
    def test_non_markov_tails_refused(self, capsys, tmp_path, cfg, want):
        # no constant slope makes a "full" tail Markov; a staircase tail takes
        # 1/(r (1 - r)), and its first branch must map onto the last explicit one
        f = tmp_path / "map.json"
        f.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        assert json.loads(out)["violations"] == [want]

    def test_overlap_named(self, capsys, tmp_path):
        cfg = {"branches": [{"index": 1, "left": 0.0, "right": 0.6, "slope": 2.0},
                            {"index": 2, "left": 0.5, "right": 1.0, "slope": 2.5}],
               "transitions": [[True, True], [True, True]]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        msgs = json.loads(out)["violations"]
        assert any("1" in v and "2" in v for v in msgs)

    def test_negative_override_with_floor(self, capsys, tmp_path):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps({"depth": 1, "default": 1.0,
                                 "overrides": {"1": -2.0}, "positivity_floor": 0.5}))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        assert json.loads(out)["violations"]

    @pytest.mark.parametrize("depth", [2, 0])
    def test_potential_depth_other_than_one(self, capsys, tmp_path, depth):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps({"depth": depth, "default": 1.0}))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        assert any("depth" in v for v in json.loads(out)["violations"])
        code, _, err = run(capsys, "pressure", "--map", "sv:0.9", "--potential", str(f))
        assert code == EXIT_DOMAIN and "depth" in err

    def test_potential_violations_listed_together(self, capsys, tmp_path):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps({"depth": 2, "overrides": {"x": 1}, "default": "a"}))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        violations = json.loads(out)["violations"]
        assert len(violations) == 3
        for word in ("depth", "'x'", "default"):
            assert any(word in v for v in violations), word

    @pytest.mark.parametrize("cfg,field", [
        ({"default": 1.0, "positivity_floor": "a"}, "positivity_floor"),
        ({"default": "x"}, "default"),
        ([1.0, 2.0], "JSON object"),
    ])
    def test_potential_wrong_types(self, capsys, tmp_path, cfg, field):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        violations = json.loads(out)["violations"]
        assert len(violations) == 1 and field in violations[0]
        code, _, err = run(capsys, "pressure", "--map", "sv:0.9", "--potential", str(f))
        assert code == EXIT_DOMAIN
        assert err.startswith("error: invalid potential config") and field in err

    @pytest.mark.parametrize("overrides", [{"1_0": 2.0}, {" 3 ": 5.0}, {"1": 2.0, "01": 3.0}],
                             ids=["underscore", "spaces", "leading-zero"])
    def test_override_key_not_plain_decimal(self, capsys, tmp_path, overrides):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps({"default": 1.0, "overrides": overrides}))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        assert any("is not a single symbol" in v for v in json.loads(out)["violations"])
        code, _, err = run(capsys, "pressure", "--map", "sv:0.9", "--potential", str(f))
        assert code == EXIT_DOMAIN and "is not a single symbol" in err

    @pytest.mark.parametrize("key", ["1000000000000", "99999999999999999999999"],
                             ids=["huge", "beyond-int64"])
    def test_override_key_beyond_cap(self, capsys, tmp_path, key):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps({"default": 1.0, "overrides": {key: 2.0}}))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        assert json.loads(out)["violations"] == [f"override symbol {key} exceeds 1048576"]
        code, _, err = run(capsys, "pressure", "--map", "sv:0.9", "--potential", str(f))
        assert code == EXIT_DOMAIN and "exceeds 1048576" in err


DOUBLING = [{"index": 1, "left": 0.0, "right": 0.5, "slope": 2.0},
            {"index": 2, "left": 0.5, "right": 1.0, "slope": 2.0}]
TAILED = [{"index": 1, "left": 0.5, "right": 1.0, "slope": 2.0},
          {"index": 2, "left": 0.25, "right": 0.5, "slope": 4.0}]
FULL = [[True, True], [True, True]]
TAIL = {"from_index": 3, "ratio": 0.5, "slope": 4.0}
TAILED_MAP = {"branches": TAILED, "transitions": "staircase", "tail": TAIL}

#: map configs that ``validate`` and ``pressure`` used to read differently (one
#: passed and the other refused, or either died with a traceback), each with
#: a word its violation names
DISAGREEING_MAPS = {
    "rule-yes": ({"branches": DOUBLING, "transitions": "yes"}, "transition rule 'yes'"),
    "tail-ratio-1.5": ({**TAILED_MAP, "tail": {"from_index": 3, "ratio": 1.5}}, "ratio"),
    "tail-with-matrix": ({"branches": DOUBLING, "transitions": FULL,
                          "tail": {"from_index": 3, "ratio": 0.5}}, "rule-based"),
    "tail-no-from-index": ({**TAILED_MAP, "tail": {"ratio": 0.5}}, "from_index"),
    "tail-from-index-5": ({**TAILED_MAP, "tail": {**TAIL, "from_index": 5}}, "from_index"),
    "sv-lambda-str": ({"sv_lambda": "0.9"}, "sv_lambda"),
    "ragged-matrix": ({"branches": DOUBLING, "transitions": [[True, True], [True]]}, "square"),
    "branches-5": ({"branches": 5, "transitions": "full"}, "branches"),
    "top-level-list": ([DOUBLING], "JSON object"),
    "matrix-str-entry": ({"branches": DOUBLING, "transitions": [[True, "no"], [True, True]]},
                         "booleans"),
    "matrix-ints": ({"branches": DOUBLING, "transitions": [[1, 1], [1, 1]]}, "booleans"),
    "slope-str": ({"branches": [{**DOUBLING[0], "slope": "2"}, DOUBLING[1]],
                   "transitions": FULL}, "slope"),
    "index-1.7": ({"branches": [{**DOUBLING[0], "index": 1.7}, DOUBLING[1]],
                   "transitions": FULL}, "index"),
}


def quiet_main(*argv) -> tuple[int, str]:
    """Exit code and stdout of ``main``; stderr is dropped.  An exception that
    escapes ``main`` (the console script's exit 1) fails the calling test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def loads(loader, path) -> bool:
    try:
        loader(str(path))
    except ConfigError:
        return False
    return True


def assert_validate_is_load(path, cfg, role: str):
    """``validate`` says ok exactly when the loader it picks by the keys returns,
    and ``pressure`` with the file as ``role`` (map or potential) exits 0, 2 or
    3, and 2 whenever that role's loader refuses the file."""
    is_map = isinstance(cfg, dict) and ("branches" in cfg or "sv_lambda" in cfg)
    ok = loads(markovdim.load_map_config if is_map else markovdim.potential_from_config, path)
    code, out = quiet_main("validate", "--config", str(path))
    report = json.loads(out)
    assert report["ok"] is ok and (report["violations"] == []) is ok
    assert code == (EXIT_OK if ok else EXIT_DOMAIN)
    if role == "map":
        argv, loader = ["--map", str(path), "--potential", "logT"], markovdim.load_map_config
    else:
        argv, loader = ["--map", "sv:0.9", "--potential", str(path)], markovdim.potential_from_config
    code, _ = quiet_main("pressure", *argv, "--nmax", "16", "--tol", "1e-2")
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_NOT_CONVERGED)
    if not loads(loader, path):
        assert code == EXIT_DOMAIN


#: JSON values a mutation writes into a config: scalars of every JSON type,
#: NaN and infinities included, and small arrays and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
CONFIG_KEYS = ("sv_lambda", "branches", "index", "left", "right", "slope", "transitions", "tail",
               "from_index", "ratio", "depth", "default", "overrides", "positivity_floor", "1")
MAP_BASES = [json.loads(readme_json("branches")), TAILED_MAP, {"sv_lambda": 0.9},
             {"branches": TAILED, "transitions": "staircase",
              "tail": {"from_index": 3, "ratio": 0.5}}]
POTENTIAL_BASES = [json.loads(readme_json("positivity_floor")),
                   {"default": 2.0, "overrides": {"1": 1.0, "2": 1.5}}]


def _paths(cfg, prefix=()):
    """Every position in a parsed config, as the keys and indices leading to it."""
    yield prefix
    items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg) if isinstance(cfg, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


@st.composite
def mutated(draw, bases):
    """A base config after one to three edits: a value replaced, a key or entry
    deleted, or a key set inside an object."""
    cfg = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        value = draw(JSON_VALUES)
        if not path:
            cfg = value
            continue
        parent = cfg
        for k in path[:-1]:
            parent = parent[k]
        action = draw(st.sampled_from(["replace", "delete", "set"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "set" and isinstance(parent, dict):
            parent[draw(st.sampled_from(CONFIG_KEYS))] = value
        else:
            parent[path[-1]] = value
    return cfg


class TestValidateIsLoad:
    @pytest.mark.parametrize("cfg,word", DISAGREEING_MAPS.values(), ids=DISAGREEING_MAPS)
    def test_disagreeing_map_configs(self, capsys, tmp_path, cfg, word):
        f = tmp_path / "map.json"
        f.write_text(json.dumps(cfg))
        assert_validate_is_load(f, cfg, "map")
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        assert any(word in v for v in json.loads(out)["violations"])
        code, _, err = run(capsys, "pressure", "--map", str(f), "--potential", "logT")
        assert code == EXIT_DOMAIN and word in err

    @pytest.mark.parametrize("cfg", [TAILED_MAP, json.loads(readme_json("branches"))],
                             ids=["tail", "readme"])
    def test_valid_map_configs(self, tmp_path, cfg):
        f = tmp_path / "map.json"
        f.write_text(json.dumps(cfg))
        assert loads(markovdim.load_map_config, f)
        assert_validate_is_load(f, cfg, "map")

    def test_every_violation_reported(self, capsys, tmp_path):
        cfg = {"branches": [{**DOUBLING[0], "slope": True}, {**DOUBLING[1], "left": "0.5"}],
               "transitions": "yes", "tail": {"from_index": 3.0, "ratio": 0.5}}
        f = tmp_path / "map.json"
        f.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        violations = json.loads(out)["violations"]
        assert code == EXIT_DOMAIN and len(violations) == 4
        assert "branch 1: slope" in violations[0] and "branch 2: left" in violations[1]
        assert "unknown transition rule 'yes'" in violations[2]
        assert "tail from_index must be the integer 3" in violations[3]

    def test_tail_checked_when_a_branch_fails(self, capsys, tmp_path):
        # the tail's checks need only the branch count, not parsed branches
        cfg = {"branches": [{"index": 1, "left": 0.9, "right": 1.0, "slope": "x"}],
               "transitions": "staircase", "tail": {"from_index": 5, "ratio": 1.5}}
        f = tmp_path / "map.json"
        f.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        assert json.loads(out)["violations"] == [
            "branch 1: slope must be a number, got 'x'",
            "tail from_index must be the integer 2, one past the last branch, got 5",
            "tail ratio must be a number in (0, 1), got 1.5"]
        assert_validate_is_load(f, cfg, "map")

    def test_dense_64_branch_config(self, capsys, tmp_path):
        # shaped like the benchmark's dense map: equal branches, integer slopes
        # k_i, each branch onto k_i adjacent ones, transitions from adj.tolist()
        m = 64
        k = np.random.default_rng(3).integers(2, 5, size=m)
        start = np.minimum(np.arange(m), m - k)
        adj = np.zeros((m, m), dtype=bool)
        for i in range(m):
            adj[i, start[i]:start[i] + k[i]] = True
        f = tmp_path / "dense_map.json"
        f.write_text(json.dumps({
            "branches": [{"index": i + 1, "left": i / m, "right": (i + 1) / m,
                          "slope": float(k[i])} for i in range(m)],
            "transitions": adj.tolist()}))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_OK and json.loads(out)["ok"] is True

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=mutated(MAP_BASES))
    def test_mutated_map_configs(self, tmp_path, cfg):
        f = tmp_path / "map.json"
        f.write_text(json.dumps(cfg))
        assert_validate_is_load(f, cfg, "map")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=mutated(POTENTIAL_BASES))
    def test_mutated_potential_configs(self, tmp_path, cfg):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps(cfg))
        assert_validate_is_load(f, cfg, "potential")

    def test_json_string_config_is_not_a_path(self, capsys, tmp_path):
        (tmp_path / "pot.json").write_text(readme_json("positivity_floor"))
        f = tmp_path / "name.json"
        f.write_text(json.dumps(str(tmp_path / "pot.json")))
        code, out, _ = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_DOMAIN
        assert json.loads(out)["violations"] == ["potential config must be a JSON object, got str"]


class TestExitCodes:
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("name,argv", [
        ("tol", ["pressure", "--map", "sv:0.9", "--potential", "zero", "--nmax", "16"]),
        ("tol", ["dimension", "hyperbolic", "--lambda", "0.9", "--nmax", "64"]),
        ("tol", ["dimension", "variational", "--lambda", "0.9", "--alpha", "2.3992",
                 "--nmax", "64"]),
        ("tol", ["spectrum-birkhoff", "--lambda", "0.9", "--nmax", "16", "--grid-points", "3"]),
        ("t_max", ["spectrum-lyapunov", "--lambda", "0.9", "--points", "4"]),
    ], ids=["pressure", "hyperbolic", "variational", "spectrum-birkhoff", "spectrum-lyapunov"])
    def test_bad_tolerance_exits_2(self, capsys, name, argv, value):
        flag = "--t-max" if name == "t_max" else "--tol"
        code, out, err = run(capsys, *argv, f"{flag}={value}")
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith(f"error: {name} must be a finite number above")

    @pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["negative", "2^128"])
    def test_seed_out_of_range_exits_2(self, capsys, seed):
        code, out, err = run(capsys, "escape", "--map", "sv:0.9", "--samples", "1000",
                             "--horizon", "10", "--seed", str(seed))
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: seed must lie in [0, 2^128)")

    @pytest.mark.parametrize("spec,argv", [
        ("sv:abc", ["pressure", "--map", "sv:abc", "--potential", "logT"]),
        ("const:x", ["pressure", "--map", "sv:0.9", "--potential", "const:x"]),
        ("neg-t-logT:", ["pressure", "--map", "sv:0.9", "--potential", "neg-t-logT:"]),
        ("tail:z", ["spectrum-birkhoff", "--lambda", "0.9", "--phi", "tail:z"]),
        ("const:inf", ["pressure", "--map", "sv:0.9", "--potential", "const:inf"]),
        ("neg-t-logT:nan", ["pressure", "--map", "sv:0.9", "--potential", "neg-t-logT:nan"]),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_bad_number_spec(self, capsys, spec, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: ") and repr(spec) in err

    @pytest.mark.parametrize("points", ["-2", "0"])
    def test_grid_points_below_one_exits_2(self, capsys, points):
        code, out, err = run(capsys, "spectrum-birkhoff", "--lambda", "0.9",
                             "--grid-points", points)
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"error: --grid-points must be >= 1, got {points}\n"

    def test_grid_outside_bounds_exits_2(self, capsys):
        # no grid point strictly inside (alpha_min, alpha_max): no curve and no footer
        code, out, err = run(capsys, "spectrum-birkhoff", "--lambda", "0.9", "--nmax", "16",
                             "--grid-min", "2.5", "--grid-max", "3.0", "--grid-points", "3")
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error: no grid point lies inside (2.302585092994046, "
                              "2.4079456086518722)")

    def test_per_orbit_samples_below_one_exits_2(self, capsys):
        code, out, err = run(capsys, "escape", "--map", "sv:0.9", "--per-orbit",
                             "--samples", "-3", "--horizon", "5")
        assert code == EXIT_DOMAIN and out == ""
        assert err == "error: need >= 1 samples, got -3\n"

    @pytest.mark.parametrize("alpha", ["2.5", "2.4079456086518722"], ids=["beyond", "alpha_max"])
    def test_alpha_outside_bounds_names_them(self, capsys, alpha):
        code, out, err = run(capsys, "dimension", "variational", "--lambda", "0.9",
                             "--alpha", alpha, "--nmax", "64")
        assert code == EXIT_DOMAIN and out == ""
        assert err == (f"error: alpha = {alpha} outside the open interval "
                       "(2.302585092994046, 2.4079456086518722)\n")

    def test_tiny_tolerance_returns(self, capsys):
        # both bisections stop at one ulp when the tolerance is below it
        code, _, err = run(capsys, "dimension", "hyperbolic", "--lambda", "0.9",
                           "--tol", "1e-300", "--nmax", "4")
        assert code == EXIT_NOT_CONVERGED and err.startswith("not converged: ")
        code, out, _ = run(capsys, "dimension", "variational", "--lambda", "0.9",
                           "--alpha", "2.3992", "--nmax", "8", "--tol", "1e-300")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["delta_iterations"] <= 60

    def test_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["pressure", "--map", "sv:0.9", "--potential", "zero", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_threads_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["escape", "--map", "sv:0.9", "--samples", "1000", "--threads", "2"])
        assert exc.value.code == EXIT_USAGE


#: the options of every leaf command, -h/--help aside; a new option changes
#: this table on purpose, and only with something it changes in the output
OPTION_SURFACE = {
    "pressure": ["--format", "--map", "--nmax", "--out", "--potential", "--stamp", "--tol"],
    "dimension hyperbolic": ["--lambda", "--map", "--nmax", "--out", "--stamp", "--tol"],
    "dimension variational": ["--alpha", "--lambda", "--map", "--nmax", "--out", "--phi",
                              "--psi", "--stamp", "--tol"],
    "spectrum-lyapunov": ["--format", "--lambda", "--out", "--points", "--stamp", "--t-max"],
    "figure1": ["--format", "--lambda", "--out", "--points", "--stamp", "--t-max"],
    "spectrum-birkhoff": ["--format", "--grid-max", "--grid-min", "--grid-points", "--lambda",
                          "--nmax", "--out", "--phi", "--stamp", "--tol"],
    "simulate": ["--horizon", "--map", "--out", "--stamp", "--x0"],
    "escape": ["--horizon", "--map", "--out", "--per-orbit", "--samples", "--seed", "--stamp"],
    "validate": ["--config"],
}


def option_surface(parser, prefix: str = "") -> dict[str, list[str]]:
    """Sorted option strings of each leaf command under ``parser``."""
    nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not nested:
        return {prefix: sorted(o for a in parser._actions for o in a.option_strings
                               if o not in ("-h", "--help"))}
    return {name: opts for action in nested for cmd, sp in action.choices.items()
            for name, opts in option_surface(sp, f"{prefix} {cmd}".strip()).items()}


class TestOptionSurface:
    def test_surface_pinned(self):
        assert option_surface(build_parser()) == OPTION_SURFACE

    @pytest.mark.parametrize("argv", [
        ["dimension", "hyperbolic", "--lambda", "0.9", "--phi", "logT"],
        ["dimension", "hyperbolic", "--lambda", "0.9", "--psi", "const:1"],
        ["dimension", "hyperbolic", "--lambda", "0.9", "--alpha", "2.3992"],
        ["dimension", "hyperbolic", "--lambda", "0.9", "--format", "json"],
        ["dimension", "variational", "--lambda", "0.9", "--alpha", "2.3992", "--format", "csv"],
        ["simulate", "--map", "sv:0.9", "--x0", "0.95", "--format", "csv"],
        ["escape", "--map", "sv:0.9", "--per-orbit", "--format", "json"],
        ["dimension", "hyperbolic", "--lambda", "0.9", "--map", "sv:0.9"],
        ["dimension", "variational", "--lambda", "0.9", "--map", "sv:0.9", "--alpha", "2.3992"],
        ["dimension", "variational", "--alpha", "2.4"],
        ["dimension", "hyperbolic"],
    ], ids=["hyperbolic-phi", "hyperbolic-psi", "hyperbolic-alpha", "hyperbolic-format",
            "variational-format", "simulate-format", "escape-format", "hyperbolic-lambda-map",
            "variational-lambda-map", "variational-no-map", "hyperbolic-no-map"])
    def test_option_not_taken_exits_64(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out.out == "" and out.err.startswith("usage: markovdim ")
        assert "error: " in out.err and "sv:None" not in out.err

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_config_records_format_only_where_taken(self, argv, capsys):
        _, out, _ = run(capsys, *argv)
        command = " ".join(argv[:2 if argv[0] == "dimension" else 1])
        assert ("format" in json.loads(out)["config"]) == ("--format" in OPTION_SURFACE[command])

    def test_birkhoff_default_grid_for_a_config_potential(self, capsys, tmp_path):
        cfg = tmp_path / "phi.json"
        cfg.write_text(json.dumps({"default": 2.0, "overrides": {"1": 1.0, "2": 1.5}}))
        code, out, err = run(capsys, "spectrum-birkhoff", "--lambda", "0.9", "--phi", str(cfg),
                             "--grid-points", "3", "--nmax", "32", "--tol", "1e-2",
                             "--format", "json")
        assert code == EXIT_OK, err
        lo, hi = markovdim.alpha_bounds(markovdim.build_sv_map(0.9),
                                        markovdim.potential_from_config(str(cfg)),
                                        markovdim.constant_potential(1.0), 32)
        span = hi - lo
        assert json.loads(out)["config"]["grid"] == [lo + 0.02 * span, hi - 0.02 * span, 3]

    def test_birkhoff_default_grid_for_logt_is_the_closed_form(self, capsys):
        # the bounds alpha_bounds gives for log|T'| are exactly the closed form,
        # so the default run is the run with the closed-form ends spelled out
        lo, hi = markovdim.sv_alpha_bounds(0.9)
        span = hi - lo
        argv = ["spectrum-birkhoff", "--lambda", "0.9", "--grid-points", "3", "--nmax", "16",
                "--tol", "1e-2"]
        spelled = run(capsys, *argv, "--grid-min", repr(lo + 0.02 * span),
                      "--grid-max", repr(hi - 0.02 * span))
        assert run(capsys, *argv) == spelled
        assert spelled[0] == EXIT_OK


#: CSV columns that hold words, not numbers
TEXT_COLUMNS = {"source", "classification"}


def assert_csv_numeric(text: str):
    """Every non-empty cell of a CSV artifact outside TEXT_COLUMNS parses as a
    float; an empty cell is a value the row does not have (a closed-form
    point's q_star, for one).  Lines starting with '#' are comments."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header), line
        for col, cell in zip(header, cells):
            if col not in TEXT_COLUMNS and cell:
                float(cell)


class TestReadmeCommands:
    @pytest.mark.parametrize("argv", readme_commands(),
                             ids=lambda a: "-".join(a[:2] if a[0] == "dimension" else a[:1])
                             + ("-per-orbit" if "--per-orbit" in a else ""))
    def test_command_exits_ok(self, argv, capsys, tmp_path, monkeypatch):
        # relative paths in the README (--out files, my_map.json) resolve in tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "my_map.json").write_text(readme_json("branches"))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        artifacts = [out]
        if "--out" in argv:
            artifacts.append((tmp_path / argv[argv.index("--out") + 1]).read_text())
            assert artifacts[-1]
        for text in filter(None, artifacts):
            assert "np." not in text
            if not text.startswith("{"):
                assert_csv_numeric(text)

    def test_library_tour(self):
        ns: dict = {}
        exec(readme_library_tour(), ns)
        assert abs(ns["res"].value - markovdim.closed_form_pressure_sv(0.9, 7.0)) < 1e-10
        assert abs(ns["dim"] - 0.575717) < 1e-5

    def test_potential_config(self, capsys, tmp_path):
        f = tmp_path / "pot.json"
        f.write_text(readme_json("positivity_floor"))
        code, out, err = run(capsys, "validate", "--config", str(f))
        assert code == EXIT_OK and json.loads(out)["ok"] is True, err
        # the tail constant 2.5 makes the levels approach log(4 e^2.5) slowly
        # from below: N = 512 and 1024 differ by 2.8e-5, so tol 1e-8 exits 3
        code, _, err = run(capsys, "pressure", "--map", "sv:0.9", "--potential", str(f),
                           "--tol", "1e-4")
        assert code == EXIT_OK, err


REFUSE_SCIPY = textwrap.dedent("""
    import sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                raise ImportError("import refused: " + name)
            return None

    sys.meta_path.insert(0, RefuseScipy())
    import markovdim
    from markovdim.cli import main

    codes = [main(["pressure", "--map", "sv:0.9", "--potential", "neg-t-logT:7",
                   "--nmax", "128", "--tol", "1e-4"]),
             main(["pressure", "--map", sys.argv[1], "--potential", "logT"]),
             main(["validate", "--config", sys.argv[1]])]
    assert codes == [0, 0, 0], codes
    assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"]
""")


def test_runs_without_scipy(tmp_path):
    cfg = tmp_path / "my_map.json"
    cfg.write_text(readme_json("branches"))
    src = str(Path(markovdim.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", REFUSE_SCIPY, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
