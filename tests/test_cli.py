"""Command-line interface, exercised through subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import LANDER, RJ

from cncsynth.cli import load_spec
from cncsynth.dsl import parse_model
from cncsynth.encoder import encode
from cncsynth.sat import parse_dimacs

MODEL = str(RJ / "rotational_joint.cnc")
SPEC = str(LANDER / "Lander.cncspec")


def run(*argv, timeout=120, env=None):
    """Run the CLI with the caller's environment less ``CNCSYNTH_SOLVER``,
    plus ``env``: a shell that names an external solver changes no test."""
    base = {k: v for k, v in os.environ.items() if k != "CNCSYNTH_SOLVER"}
    return subprocess.run([sys.executable, "-m", "cncsynth.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env={**base, **(env or {})})


def test_check_pass():
    p = run("check", MODEL, str(RJ / "RJFunction.cncview"))
    assert p.returncode == 0
    assert p.stdout.strip() == "pass"


def test_check_fail_lists_violations():
    p = run("check", MODEL, str(RJ / "ASDependence.cncview"))
    assert p.returncode == 1
    assert p.stdout.startswith("fail")
    assert p.stdout.count("\n") >= 1


def test_check_json():
    p = run("check", MODEL, str(RJ / "RJStructure.cncview"), "--json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload == {"outcome": "pass", "violations": []}


def test_eval_model_against_spec():
    p = run("eval", MODEL, str(RJ / "S1.cncspec"), "--json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["outcome"] == "pass" and payload["formula"] is True


def test_synth_produces_parseable_model():
    p = run("synth", SPEC, "--json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["outcome"] == "sat"
    assert sum(payload["clauses"].values()) == len(encode(load_spec(SPEC)).cnf.clauses)
    model = parse_model(payload["model"])
    assert model.top == "LanderSystem"
    assert all(payload["perView"].values())


def test_synth_is_deterministic():
    a = run("synth", SPEC)
    b = run("synth", SPEC)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_synth_with_a_missing_solver_is_an_internal_error(tmp_path):
    missing = tmp_path / "no-such-solver"
    p = run("synth", SPEC, "--solver", str(missing))
    assert p.returncode == 3
    assert f"internal error: cannot run external solver {str(missing)!r}" in p.stderr


@pytest.mark.parametrize("model_line, message", [
    ("v 1 -1 2 0", "'v' lines set variable 1 both true and false"),
    ("v 1 -2 99999 0", "external solver set literal 99999, outside the variables 1..397"),
])
def test_synth_with_a_solver_that_prints_a_malformed_model_is_an_internal_error(tmp_path, model_line,
                                                                                message):
    solver = tmp_path / "fake-solver"
    solver.write_text(f"#!{sys.executable}\nimport sys\nprint('s SATISFIABLE\\n{model_line}')\nsys.exit(10)\n")
    solver.chmod(0o755)
    p = run("synth", SPEC, "--solver", str(solver))
    assert p.returncode == 3
    assert p.stderr == f"internal error: {message}\n"


def test_solver_env_var_names_the_solver_and_the_flag_wins(tmp_path):
    from_env, from_flag = tmp_path / "env-solver", tmp_path / "flag-solver"
    env = {"CNCSYNTH_SOLVER": str(from_env)}
    p = run("synth", SPEC, env=env)
    assert p.returncode == 3
    assert f"cannot run external solver {str(from_env)!r}" in p.stderr
    p = run("synth", SPEC, "--solver", str(from_flag), env=env)
    assert p.returncode == 3
    assert f"cannot run external solver {str(from_flag)!r}" in p.stderr and str(from_env) not in p.stderr


def test_a_conflict_limit_with_an_external_solver_is_a_usage_error(tmp_path):
    # The fake solver answers UNSAT; the limit used to be ignored, and the
    # run printed "unsatisfiable" and exited 1.
    solver = tmp_path / "fake-solver"
    solver.write_text(f"#!{sys.executable}\nimport sys\nprint('s UNSATISFIABLE')\nsys.exit(20)\n")
    solver.chmod(0o755)
    for argv, env in ((("--solver", str(solver)), None), ((), {"CNCSYNTH_SOLVER": str(solver)})):
        p = run("synth", SPEC, *argv, "--conflicts", "0", env=env)
        assert p.returncode == 2
        assert p.stdout == ""
        assert f"a conflict limit cannot apply to the external solver {str(solver)!r}" in p.stderr


def test_synth_enumerate():
    p = run("synth", SPEC, "--enumerate", "3", "--json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["count"] == 3
    models = [parse_model(t) for t in payload["models"]]
    assert len({m for m in models}) == 3


@pytest.mark.parametrize("extra", [("--enumerate", "0"), ("--enumerate", "-3"),
                                   ("--enumerate", "2", "--out", "m.cnc"),
                                   ("--enumerate", "2", "--dot", "m.dot")])
def test_synth_enumerate_usage_errors(extra, tmp_path):
    p = run("synth", SPEC, *(str(tmp_path / a) if a.startswith("m.") else a for a in extra))
    assert p.returncode == 2
    assert p.stdout == "" and "--enumerate" in p.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("synth", SPEC, "--ports", "-1"),
                                  ("emit-dimacs", SPEC, "--ports", "-2"),
                                  ("synth", SPEC, "--extra-names", "-1"),
                                  ("synth", SPEC, "--extra-types", "-2")])
def test_negative_scope_counts_are_usage_errors(argv):
    p = run(*argv)
    assert p.returncode == 2
    assert p.stdout == ""
    assert f"{argv[2][2:]} must not be negative, got {argv[3]}" in p.stderr


@pytest.mark.parametrize("flag, value, limit", [("--conflicts", "-5", "conflicts"),
                                               ("--timeout", "-1", "wall_seconds"),
                                               ("--timeout", "0", "wall_seconds")])
def test_solver_limits_out_of_range_are_usage_errors(flag, value, limit):
    p = run("synth", SPEC, flag, value)
    assert p.returncode == 2
    assert p.stdout == ""
    assert f"solver limit {limit} must" in p.stderr


def test_synth_json_counts_clauses_per_group_on_unsat():
    spec = str(RJ / "S2.cncspec")  # refuted at the root level
    p = run("synth", spec, "--json")
    assert p.returncode == 1
    payload = json.loads(p.stdout)
    assert payload["outcome"] == "unsat"
    assert sum(payload["clauses"].values()) == len(encode(load_spec(spec)).cnf.clauses)
    assert payload["clauses"]["views"] > 0


def test_synth_names_the_port_clash_on_unsat():
    p = run("synth", str(RJ / "S2NoNest.cncspec"))
    assert p.returncode == 1
    assert p.stdout.splitlines()[1:] == ["port Cylinder.angle: int in OldDesignNoNest, float in RJStructure"]
    p = run("synth", str(RJ / "S2NoNest.cncspec"), "--json")
    assert json.loads(p.stdout)["portClashes"] == [{
        "component": "Cylinder", "port": "angle", "lacking": [],
        "declarations": [{"source": "OldDesignNoNest", "direction": "in", "type": "int"},
                         {"source": "RJStructure", "direction": "in", "type": "float"}]}]
    assert json.loads(p.stdout)["clauses"]["port-identity"] == 3
    p = run("synth", str(RJ / "S2NoNest.cncspec"), "--enumerate", "2")
    assert p.returncode == 1
    assert p.stdout.splitlines() == ["no model within scope",
                                     "port Cylinder.angle: int in OldDesignNoNest, float in RJStructure"]


def test_synth_is_silent_on_a_clash_that_the_formula_avoids(tmp_path):
    (tmp_path / "V1.cncview").write_text("component A { port in int x; }\n")
    (tmp_path / "V2.cncview").write_text("component A { port in float x; }\n")
    (tmp_path / "s.cncspec").write_text("spec s { views { V1, V2 } formula: V1 || V2; }\n")
    p = run("synth", str(tmp_path / "s.cncspec"), "--json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["outcome"] == "sat" and "portClashes" not in payload
    p = run("synth", str(tmp_path / "s.cncspec"))
    assert p.returncode == 0 and "port A.x" not in p.stdout + p.stderr


def test_synth_writes_out_and_dot(tmp_path):
    out = tmp_path / "m.cnc"
    dot = tmp_path / "m.dot"
    p = run("synth", SPEC, "--out", str(out), "--dot", str(dot))
    assert p.returncode == 0
    assert parse_model(out.read_text()).top == "LanderSystem"
    assert dot.read_text().startswith("digraph")


def test_missing_file_is_usage_error():
    p = run("check", "no-such-file.cnc", str(RJ / "RJFunction.cncview"))
    assert p.returncode == 2
    assert "error:" in p.stderr


def test_bad_dsl_is_usage_error(tmp_path):
    bad = tmp_path / "bad.cnc"
    bad.write_text("komponent A;")
    p = run("check", str(bad), str(RJ / "RJFunction.cncview"))
    assert p.returncode == 2
    assert "error:" in p.stderr


def test_reduce3sat_sat(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    p = run("reduce3sat", str(cnf))
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert lines[0] == "s SATISFIABLE"
    lits = [int(t) for t in lines[1].split()[1:-1]]
    assert {abs(l) for l in lits} == {1, 2}


def test_reduce3sat_without_variables_prints_one_terminator(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 0 0\n")
    p = run("reduce3sat", str(cnf))
    assert p.returncode == 0
    assert p.stdout.splitlines() == ["s SATISFIABLE", "v 0"]


def test_reduce3sat_unsat(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    p = run("reduce3sat", str(cnf))
    assert p.returncode == 1
    assert p.stdout.strip() == "s UNSATISFIABLE"


@pytest.mark.parametrize("text, message", [
    ("1 -2 0\n", "missing DIMACS header"),
    ("p cnf 2 3\n1 -2 0\n2 0\n", "header declares 3 clauses, found 2"),
    ("p cnf 2 3\n1 3 0\n2 0\n-1 -2 0\n",
     "literal 3 is outside the variables 1..2 of the DIMACS header 'p cnf 2 3'"),
    ("p cnf 2 1\n1 x 0\n", "line 2: 'x' is not an integer"),
    ("p cnf 2 1\n1 2 -1 2 0\n", "clause (1, 2, -1, 2) has more than three literals"),
])
def test_reduce3sat_malformed_dimacs_is_a_usage_error(tmp_path, text, message):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    p = run("reduce3sat", str(cnf))
    assert p.returncode == 2
    assert p.stderr == f"error: {cnf}: {message}\n"


@pytest.mark.parametrize("text, flags, message", [
    # The spec that -o writes, and so the CNF that --spec-only prints, would
    # misstate these formulas: no views, or an empty disjunction.
    ("p cnf 0 0\n", ["--spec-only"], "{cnf}: it has no variables, so its spec would name no view"),
    ("p cnf 0 0\n", ["-o", "OUT"], "{cnf}: it has no variables, so its spec would name no view"),
    ("p cnf 2 2\n1 2 0\n0\n", ["--spec-only"],
     "{cnf}: clause 2 is empty, which a spec formula cannot state"),
    ("p cnf 2 2\n1 2 0\n0\n", ["-o", "OUT"],
     "{cnf}: clause 2 is empty, which a spec formula cannot state"),
    ("p cnf 2 2\n1 -2 0\n2 0\n", ["-o", "OUT", "--spec-only"],
     "argument --spec-only: not allowed with argument -o/--out-dir"),
])
def test_reduce3sat_writes_nothing_it_cannot_state(tmp_path, text, flags, message):
    cnf, out = tmp_path / "f.cnf", tmp_path / "out"
    cnf.write_text(text)
    p = run("reduce3sat", str(cnf), *(str(out) if f == "OUT" else f for f in flags))
    assert p.returncode == 2
    assert p.stderr.endswith(f"error: {message.format(cnf=cnf)}\n")
    assert p.stdout == "" and not out.exists()


def test_reduce3sat_with_a_missing_solver_is_an_internal_error(tmp_path):
    cnf, missing = tmp_path / "f.cnf", tmp_path / "no-such-solver"
    cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    p = run("reduce3sat", str(cnf), "--solver", str(missing))
    assert p.returncode == 3
    assert f"internal error: cannot run external solver {str(missing)!r}" in p.stderr


def test_reduce3sat_out_dir_round_trips(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    out = tmp_path / "reduced"
    p = run("reduce3sat", str(cnf), "-o", str(out))
    assert p.returncode == 0
    # One spec plus two view files per variable.
    assert (out / "from3sat.cncspec").exists()
    assert len(list(out.glob("*.cncview"))) == 4
    # The emitted directory is a solvable spec in its own right.
    p2 = run("synth", str(out / "from3sat.cncspec"))
    assert p2.returncode == 0


def test_synth_style_override():
    p = run("synth", SPEC, "--style", "hierarchical", "--json")
    assert p.returncode == 0
    assert json.loads(p.stdout)["outcome"] == "sat"
    bad = run("synth", SPEC, "--style", "client-server(server = Ghost, clients = Engine)")
    assert bad.returncode == 2


@pytest.mark.parametrize("style,needle", [
    ("bogus", "error: <--style>:1:1: unknown style 'bogus'"),
    ("hierarchical; scope { ports = 0; } style hierarchical", "unexpected trailing input ';'"),
])
def test_synth_style_is_parsed_as_a_style_alone(style, needle):
    # The flag's text is a style and nothing else: an error points into that
    # text, and text after the style is an error, not dropped.
    p = run("synth", SPEC, "--style", style)
    assert p.returncode == 2
    assert needle in p.stderr


def test_synth_max_solutions_alias():
    p = run("synth", SPEC, "--max-solutions", "2", "--json")
    assert p.returncode == 0
    assert json.loads(p.stdout)["count"] == 2


def test_reduce3sat_spec_only(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    p = run("reduce3sat", str(cnf), "--spec-only")
    assert p.returncode == 0
    parsed = parse_dimacs(p.stdout)
    assert parsed.num_vars > 0 and parsed.clauses


def test_emit_dimacs_round_trips():
    p = run("emit-dimacs", SPEC)
    assert p.returncode == 0
    parsed = parse_dimacs(p.stdout)
    assert parsed.num_vars > 0 and len(parsed.clauses) > 0


def test_export_dot():
    p = run("export-dot", MODEL)
    assert p.returncode == 0
    assert p.stdout.startswith('digraph "rotational_joint"')
    assert "cluster_" in p.stdout


def test_usage_error_on_unknown_subcommand():
    p = run("frobnicate")
    assert p.returncode == 2
