"""Command-line interface: dispatch, exit codes, deterministic artifacts."""
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import markovdim
from markovdim.cli import EXIT_DOMAIN, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_USAGE, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """argv of every line of the README "Command line" block."""
    block = README.read_text().split("## Command line", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("markovdim ")]


def readme_map_json() -> str:
    """The README's JSON map example (the two-branch doubling map)."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return next(b for b in blocks if '"branches"' in b)


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

    def test_escape_csv_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code = main(["escape", "--map", "sv:0.9", "--samples", "1000",
                         "--horizon", "100", "--seed", "4", "--per-orbit",
                         "--out", str(f)])
            assert code == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

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


class TestExitCodes:
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


class TestReadmeCommands:
    @pytest.mark.parametrize("argv", readme_commands(),
                             ids=lambda a: "-".join(a[:2] if a[0] == "dimension" else a[:1]))
    def test_command_exits_ok(self, argv, capsys, tmp_path, monkeypatch):
        # relative paths in the README (--out files, my_map.json) resolve in tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "my_map.json").write_text(readme_map_json())
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0


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
    cfg.write_text(readme_map_json())
    src = str(Path(markovdim.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", REFUSE_SCIPY, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
