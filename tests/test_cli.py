import json
import time

import pytest

import oracles
from cli_child import cli
from maxminlp import model
from maxminlp.cli import main
from maxminlp.model import load_instance


def gen_torus(tmp_path, name="torus.json", side="3", perturb=False, seed="1"):
    path = tmp_path / name
    args = ["gen-torus", "--dim", "2", "--side", side, "--seed", seed, "-o", str(path)]
    if perturb:
        args.insert(1, "--perturb")
    proc = cli(*args)
    assert proc.returncode == 0, proc.stderr
    return path


def test_gen_torus_writes_config_and_instance(tmp_path):
    path = gen_torus(tmp_path)
    payload = json.loads(path.read_text())
    assert payload["config"] == {
        "command": "gen-torus",
        "dim": 2,
        "side": 3,
        "perturb": False,
        "seed": 1,
    }
    inst = load_instance(path)
    assert len(inst.agents) == 9


def test_gen_random_round_trips(tmp_path):
    path = tmp_path / "rand.json"
    proc = cli(
        "gen-random", "--agents", "8", "--max-support", "2", "--seed", "3",
        "-o", str(path),
    )
    assert proc.returncode == 0, proc.stderr
    inst = load_instance(path)
    assert len(inst.agents) == 8
    assert json.loads(path.read_text())["config"]["max_support"] == 2


def test_solve_prints_and_writes(tmp_path):
    path = gen_torus(tmp_path)
    out = tmp_path / "sol.json"
    proc = cli("solve", str(path), "-o", str(out))
    assert proc.returncode == 0
    assert proc.stdout.startswith("omega = 1")
    payload = json.loads(out.read_text())
    assert payload["omega"] == pytest.approx(1.0, abs=1e-9)
    assert set(payload["values"]) == {str(v) for v in range(9)}
    assert payload["config"] == {"command": "solve"}


def test_solve_answers_a_random_200_agent_instance_promptly(tmp_path):
    # this instance ran 200,000 pivots and 104 s before the simplex raised
    path = tmp_path / "rand.json"
    made = cli(
        "gen-random", "--agents", "200", "--max-support", "3", "--seed", "1",
        "-o", str(path),
    )
    assert made.returncode == 0, made.stderr
    start = time.perf_counter()
    proc = cli("solve", str(path), "-o", str(tmp_path / "sol.json"))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    omega = json.loads((tmp_path / "sol.json").read_text())["omega"]
    assert omega == pytest.approx(oracles.exact_maxmin(load_instance(path)), abs=1e-9)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the simplex uses elementwise numpy only, so a single-threaded BLAS must
    # give the same bytes: a local-avg run (the golden torus) and a solve
    cases = (
        (("gen-torus", "--dim", "2", "--side", "6", "--perturb", "--seed", "0"),
         ("run", "in.json", "--algorithm", "local-avg", "--radius", "1")),
        (("gen-torus", "--dim", "2", "--side", "10", "--perturb", "--seed", "3"),
         ("solve", "in.json")),
    )
    for make, command in cases:
        outputs = []
        for env in (None, {"OPENBLAS_NUM_THREADS": "1"}):
            work = tmp_path / f"{command[0]}-{len(outputs)}"
            work.mkdir()
            made = cli(*make, "-o", "in.json", cwd=work, env=env)
            assert made.returncode == 0, made.stderr
            proc = cli(*command, "-o", "out.json", cwd=work, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(((work / "out.json").read_bytes(), proc.stdout))
        assert outputs[0] == outputs[1], command[0]


def test_run_and_eval_round_trip(tmp_path):
    path = gen_torus(tmp_path, perturb=True)
    out = tmp_path / "safe.json"
    proc = cli("run", str(path), "--algorithm", "safe", "-o", str(out))
    assert proc.returncode == 0
    assert "safe: omega =" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["algorithm"] == "safe"
    assert payload["config"]["command"] == "run"

    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    proc = cli(
        "eval", str(path), str(out), "--radius", "1",
        "-o", str(report_path), "--csv", str(csv_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "feasible = True" in proc.stdout
    assert "ratio =" in proc.stdout
    report = json.loads(report_path.read_text())
    assert report["feasible"] is True
    assert report["certificate"] is not None
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("instance,algorithm,")
    assert lines[1].startswith("torus.json,safe,True,")


@pytest.mark.parametrize("algorithm", [("safe",), ("local-avg", "--radius", "1")])
def test_run_audits_its_instance_once(tmp_path, monkeypatch, algorithm):
    # load_instance and run_local both ask for the violations; the
    # instance keeps them, so only the first request audits the rows
    path = tmp_path / "torus.json"
    assert main(["gen-torus", "--dim", "2", "--side", "4", "-o", str(path)]) == 0
    audited = []
    real = model._check_rows

    def counted(kind, *rest):
        audited.append(kind)
        return real(kind, *rest)

    monkeypatch.setattr(model, "_check_rows", counted)
    assert main(["run", str(path), "--algorithm", *algorithm]) == 0
    assert audited == ["resource", "beneficiary"]


@pytest.mark.parametrize("algorithm, values", [
    (("safe",), {"0": 0.5, "1": 0.5}),
    (("local-avg", "--radius", "1"), {"0": 0.0, "1": 0.0}),
])
def test_run_on_an_instance_without_beneficiaries(tmp_path, algorithm, values):
    # every ball LP of local-avg is vacuous, so both rounds carry zeros
    path = tmp_path / "empty_k.json"
    path.write_text(json.dumps({
        "agents": [0, 1],
        "resources": [{"id": 0, "coeffs": {"0": 1, "1": 1}}],
        "beneficiaries": [],
    }))
    out = tmp_path / "out.json"
    proc = cli("run", str(path), "--algorithm", *algorithm, "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(": instance has no beneficiaries\n")
    assert json.loads(out.read_text())["values"] == values


def test_solve_refuses_an_instance_without_beneficiaries(tmp_path):
    path = tmp_path / "empty_k.json"
    path.write_text(json.dumps({
        "agents": [0, 1],
        "resources": [{"id": 0, "coeffs": {"0": 1, "1": 1}}],
        "beneficiaries": [],
    }))
    out = tmp_path / "out.json"
    proc = cli("solve", str(path), "-o", str(out))
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: empty K: the max-min objective needs at least one beneficiary\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("run", "--algorithm", "safe"),
    ("solve",),
    ("eval", "x.json", "--csv", "report.csv"),
    ("growth", "--radius", "1"),
])
def test_every_reader_refuses_an_instance_without_agents(tmp_path, argv):
    # its max violation would be -inf, which JSON cannot hold
    path = tmp_path / "empty.json"
    path.write_text('{"agents": [], "resources": [], "beneficiaries": []}')
    (tmp_path / "x.json").write_text('{"values": {}}')
    command, *rest = argv
    proc = cli(command, str(path), *rest, "-o", "out.json", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: instance failed validation: instance has no agents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.json", "x.json"]


@pytest.mark.parametrize("argv, count", [
    (("adversary", "--algorithm", "safe", "-d", "1", "-D", "1",
      "-r", "20000000", "-R", "20000001"), "at least 200001"),
    (("gen-lowerbound", "-d", "1", "-D", "1", "-r", "100000000", "-R", "100000001"),
     "at least 200001"),
    # the full count has 60,206 digits, too many for int to spell
    (("gen-lowerbound", "-d", "2", "-D", "2", "-r", "1", "-R", "100000"), "at least 262143"),
])
def test_an_oversized_construction_is_refused_at_once(tmp_path, argv, count):
    # the tree is counted first and no further than the cap, before the
    # template width is worked out
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    proc = cli(*argv, "-o", str(out))
    elapsed = time.monotonic() - t0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: hypertree would have {count} nodes, above the cap of 200000\n"
    )
    assert not out.exists()
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_run_local_avg_requires_radius(tmp_path):
    path = gen_torus(tmp_path)
    proc = cli("run", str(path), "--algorithm", "local-avg")
    assert proc.returncode == 1
    assert "averaging radius" in proc.stderr


@pytest.mark.parametrize("algorithm", ["zero", "safe"])
def test_run_refuses_a_radius_the_rule_does_not_use(tmp_path, algorithm):
    # the radius used to be ignored yet embedded in the output's config
    path = gen_torus(tmp_path)
    out = tmp_path / "out.json"
    proc = cli("run", str(path), "--algorithm", algorithm, "--radius", "5", "-o", str(out))
    assert proc.returncode == 1
    assert f"error: {algorithm} uses no averaging radius R" in proc.stderr
    assert not out.exists()


def test_growth_prints_exact_fraction(tmp_path):
    path = gen_torus(tmp_path)
    proc = cli("growth", str(path), "--radius", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "gamma(1) = 9/7"
    out = tmp_path / "g.json"
    proc = cli("growth", str(path), "--radius", "1", "-o", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["gamma"] == {"numerator": 9, "denominator": 7}


def test_gen_lowerbound_and_adversary(tmp_path):
    lb = tmp_path / "lb.json"
    proc = cli("gen-lowerbound", "-d", "2", "-D", "1", "-r", "1", "-R", "2",
               "--seed", "0", "-o", str(lb))
    assert proc.returncode == 0, proc.stderr
    inst = load_instance(lb)
    assert len(inst.agents) == 360
    assert json.loads(lb.read_text())["config"]["template_girth"] == 6

    report_path = tmp_path / "adv.json"
    proc = cli("adversary", "--algorithm", "safe", "-d", "2", "-D", "1",
               "-r", "1", "-R", "2", "--seed", "0", "-o", str(report_path))
    assert proc.returncode == 0, proc.stderr
    assert "certified ratio >= 1.5" in proc.stdout
    assert "theoretical floor = 1.5" in proc.stdout
    payload = json.loads(report_path.read_text())
    assert payload["certified_ratio"] == 1.5
    assert payload["config"]["algorithm"] == "safe"
    assert payload["parity"]["rows_exact"] is True


def test_the_attack_seed_is_recorded_and_changes_nothing_else(tmp_path):
    # --seed stays on the attack's commands and in what they write, but no
    # construction draws on it
    runs = []
    for seed in ("0", "7"):
        work = tmp_path / seed
        work.mkdir()
        attack = ("-d", "2", "-D", "1", "-r", "1", "-R", "2", "--seed", seed)
        made = cli("gen-lowerbound", *attack, "-o", "lb.json", cwd=work)
        ran = cli("adversary", "--algorithm", "safe", *attack, "-o", "adv.json", cwd=work)
        assert made.returncode == ran.returncode == 0, made.stderr + ran.stderr
        lb = json.loads((work / "lb.json").read_text())
        adv = json.loads((work / "adv.json").read_text())
        assert lb["config"].pop("seed") == adv["config"].pop("seed") == int(seed)
        assert adv["params"].pop("seed") == int(seed)
        runs.append((made.stdout, ran.stdout, lb, adv))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("D, printed, written", [
    (4, "1.59999999999", 1.5999999999999999),
    (5, "1.66666666666", 1.6666666666666665),
])
def test_adversary_prints_and_writes_no_more_than_it_proves(tmp_path, D, printed, written):
    # to nearest, .12g would print 1.6 and 1.66666666667, above what is proven
    report_path = tmp_path / "adv.json"
    proc = cli("adversary", "--algorithm", "safe", "-d", "1", "-D", str(D),
               "-r", "1", "-R", "2", "--seed", "0", "-o", str(report_path))
    assert proc.returncode == 0, proc.stderr
    assert f"certified ratio >= {printed}\n" in proc.stdout
    assert json.loads(report_path.read_text())["certified_ratio"] == written


def test_adversary_unbounded_serialisation(tmp_path):
    report_path = tmp_path / "adv.json"
    proc = cli("adversary", "--algorithm", "zero", "-d", "1", "-D", "1",
               "-r", "1", "-R", "2", "-o", str(report_path))
    assert proc.returncode == 0, proc.stderr
    assert "unbounded" in proc.stdout
    assert json.loads(report_path.read_text())["certified_ratio"] == "unbounded"


def test_adversary_rejects_farsighted_algorithm(tmp_path):
    proc = cli("adversary", "--algorithm", "local-avg", "--radius", "1",
               "-d", "2", "-D", "1", "-r", "1", "-R", "2")
    assert proc.returncode == 1
    assert "exceeds the attack radius" in proc.stderr


def test_adversary_runs_at_three_and_three(tmp_path):
    # degree 27 on the biaffine plane over Z_29 cut to 27 * 29 a side: 62,640
    # agents, under the cap
    out = tmp_path / "adv.json"
    proc = cli("adversary", "--algorithm", "safe", "-d", "3", "-D", "3",
               "-r", "1", "-R", "2", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    params = json.loads(out.read_text())["params"]
    assert (params["agents"], params["template_girth"]) == (62_640, 6)


def test_adversary_refuses_a_radius_the_rule_does_not_use(tmp_path):
    out = tmp_path / "adv.json"
    proc = cli("adversary", "--algorithm", "safe", "--radius", "1",
               "-d", "1", "-D", "1", "-r", "1", "-R", "2", "-o", str(out))
    assert proc.returncode == 1
    assert "error: safe uses no averaging radius R" in proc.stderr
    assert not out.exists()


def test_eval_oracle_cap_env_and_flag(tmp_path):
    path = gen_torus(tmp_path)
    out = tmp_path / "zero.json"
    cli("run", str(path), "--algorithm", "zero", "-o", str(out))

    proc = cli("eval", str(path), str(out), "--oracle-cap", "2")
    assert proc.returncode == 0
    assert "oracle unavailable: 9 agents exceed the cap of 2" in proc.stdout

    proc = cli("eval", str(path), str(out), "--oracle-cap", "50")
    assert proc.returncode == 0
    assert "oracle unavailable" not in proc.stdout

    # the flag is the only way to set the cap: the former environment
    # variable changes neither the printed report nor the written one
    runs = []
    for env in (None, {"MAXMINLP_ORACLE_CAP": "2"}):
        report = tmp_path / f"report{len(runs)}.json"
        proc = cli("eval", str(path), str(out), "-o", str(report), env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, report.read_bytes()))
    assert runs[0] == runs[1]
    assert "oracle unavailable" not in runs[0][0]


def test_exit_codes(tmp_path):
    assert cli("solve", str(tmp_path / "missing.json")).returncode == 1
    assert cli("no-such-command").returncode == 2
    assert cli("gen-torus", "--dim", "0", "--side", "3",
               "-o", str(tmp_path / "x.json")).returncode == 1
    assert cli("gen-torus", "--dim", "2", "--side", "3").returncode == 2  # no -o
    # an infinite coefficient would be written as Infinity, which is not JSON
    assert cli("gen-random", "--agents", "5", "--coeff-max", "inf",
               "-o", str(tmp_path / "inf.json")).returncode == 1
    assert not (tmp_path / "inf.json").exists()


def _two_agents(agents=(0, 1), resource=None):
    return {
        "agents": list(agents),
        "resources": [{"id": 0, "coeffs": resource or {"0": 1.0, "1": 1.0}}],
        "beneficiaries": [{"id": 1, "coeffs": {"0": 1.0, "1": 2.0}}],
    }


def test_malformed_instance_file_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"agents": [0]}')
    proc = cli("solve", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    bad.write_text("not json at all")
    assert cli("solve", str(bad)).returncode == 1
    # parseable files that fail validation: every command that reads an
    # instance refuses them with the violation instead of computing on them
    x = tmp_path / "x.json"
    x.write_text('{"values": {"0": 0.5, "1": 0.25}}')
    cases = [
        # json.dumps writes the bare NaN token; the string "NaN" is refused
        # on load, before validation
        (_two_agents(resource={"0": float("nan"), "1": 1.0}),
         "resource 0: non-finite coefficient for agent 0"),
        (_two_agents(agents=(0, 0, 1)), "agent 0: duplicate id"),
        (_two_agents(resource={"0": 1.0, "1": -1.0}),
         "resource 0: nonpositive coefficient for agent 1"),
    ]
    for payload, violation in cases:
        bad.write_text(json.dumps(payload))
        for argv in (
            ["solve", str(bad)],
            ["run", str(bad), "--algorithm", "safe"],
            ["eval", str(bad), str(x)],
            ["growth", str(bad), "--radius", "1"],
        ):
            assert main(argv) == 1, argv
            out = capsys.readouterr()
            assert out.err == f"error: instance failed validation: {violation}\n", argv
            assert out.out == ""


def test_a_row_that_is_not_an_object_is_refused_by_name(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"agents": [0], "resources": [{"id": 0, "coeffs": [1.0]}], '
                    '"beneficiaries": []}')
    proc = cli("solve", str(inst))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: malformed instance payload: resource 0: "
        "expected an object keyed by agent id, not a list\n"
    )
    inst.write_text(json.dumps(_two_agents()))
    x = tmp_path / "x.json"
    x.write_text('{"values": [0.5]}')
    proc = cli("eval", str(inst), str(x))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: malformed assignment payload: values: "
        "expected an object keyed by agent id, not a list\n"
    )


@pytest.mark.parametrize("payload, culprit", [
    ([0], "top level: expected an object, not a list"),
    ({"resources": [], "beneficiaries": []}, "top level: missing key 'agents'"),
    ({"agents": 5, "resources": [], "beneficiaries": []},
     "agents: expected a list, not a number"),
    ({"agents": [0], "resources": {"x": 1}, "beneficiaries": []},
     "resources: expected a list, not an object"),
    ({"agents": [0], "resources": [[0, {"0": 1.0}]], "beneficiaries": []},
     "resource at position 0: expected an object, not a list"),
    ({"agents": [0], "resources": [{"id": 0, "coeffs": {"0": 1.0}}, {"coeffs": {}}],
      "beneficiaries": []},
     "resource at position 1: missing key 'id'"),
    ({"agents": [0], "resources": [{"id": 0}], "beneficiaries": []},
     "resource 0: missing key 'coeffs'"),
    ({"agents": [0], "resources": [], "beneficiaries": [{"id": 2, "coeffs": {"0": [1.0]}}]},
     "beneficiary 2: [1.0] for agent 0 is not a number"),
    # a JSON integer is read exactly, and this one has no float
    ({"agents": [0], "resources": [], "beneficiaries": [{"id": 2, "coeffs": {"0": 10**400}}]},
     "beneficiary 2: the integer for agent 0 is too large for a float"),
])
def test_a_malformed_instance_is_refused_naming_its_culprit(tmp_path, payload, culprit):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(payload))
    proc = cli("solve", str(inst))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: malformed instance payload: {culprit}\n"


@pytest.mark.parametrize("payload, culprit", [
    ([0.5], "top level: expected an object, not a list"),
    ({"vals": {}}, "top level: missing key 'values'"),
    ({"values": {"0": None}}, "values: None for agent 0 is not a number"),
    ({"values": {"0": 0.5, "1": -10**400}}, "values: the integer for agent 1 is too large for a float"),
])
def test_a_malformed_assignment_is_refused_naming_its_culprit(tmp_path, payload, culprit):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_two_agents()))
    x = tmp_path / "x.json"
    x.write_text(json.dumps(payload))
    proc = cli("eval", str(inst), str(x))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: malformed assignment payload: {culprit}\n"


def test_eval_refuses_a_non_finite_assignment_value(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_two_agents()))
    x = tmp_path / "x.json"
    x.write_text('{"values": {"0": 0.5, "1": NaN}}')
    out = tmp_path / "report.json"
    assert main(["eval", str(inst), str(x), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: malformed assignment payload: agent 1 has the non-finite value nan\n"
    )
    assert not out.exists()


# 5001 digits, past the 4300 that int() reads from text by default
LONG = "1" + "0" * 5000


def test_a_long_integer_in_an_instance_is_refused_naming_the_file(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"agents": [0], "resources": [], "beneficiaries": '
                    '[{"id": 2, "coeffs": {"0": %s}}]}' % LONG)
    assert main(["solve", str(inst)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {inst}: an integer of 5001 digits, above the limit of 4300\n"
    )


@pytest.mark.parametrize("text, fault", [
    ('{"values": {"0": 0.5,}}',
     "Expecting property name enclosed in double quotes: line 1 column 22 (char 21)"),
    ('{"values": {"0": 0.5, "1": %s}}' % LONG, "an integer of 5001 digits, above the limit of 4300"),
    ('{"values": {"0": 0.5, "0": 0.25}}', "duplicate JSON object key '0'"),
], ids=["syntax", "long-integer", "duplicate-key"])
def test_eval_refuses_a_second_file_that_is_not_json_naming_it(tmp_path, capsys, text, fault):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_two_agents()))
    x = tmp_path / "x.json"
    x.write_text(text)
    assert main(["eval", str(inst), str(x)]) == 1
    assert capsys.readouterr() == ("", f"error: {x}: {fault}\n")


def test_an_instance_that_repeats_a_key_is_refused_naming_the_file(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"agents": [0], "agents": [0, 1], "resources": [], "beneficiaries": []}')
    assert main(["solve", str(inst)]) == 1
    assert capsys.readouterr() == ("", f"error: {inst}: duplicate JSON object key 'agents'\n")


def test_outputs_are_location_independent(tmp_path):
    # the embedded config must not mention input paths, so the same command
    # from another directory on a moved copy produces identical bytes
    path = gen_torus(tmp_path, perturb=True, seed="5")
    out1 = tmp_path / "r1.json"
    proc = cli("run", str(path), "--algorithm", "safe", "-o", str(out1))
    assert proc.returncode == 0, proc.stderr
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    moved = elsewhere / "renamed.json"
    moved.write_bytes(path.read_bytes())
    out2 = elsewhere / "r2.json"
    proc = cli("run", "renamed.json", "--algorithm", "safe", "-o", "r2.json",
               cwd=elsewhere)
    assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv, config", [
    (["solve", "t.json"], {"command": "solve"}),
    (["run", "t.json", "--algorithm", "local-avg", "--radius", "1"],
     {"command": "run", "algorithm": "local-avg", "radius": 1}),
    (["eval", "t.json", "x.json", "--radius", "1", "--oracle-cap", "50"],
     {"command": "eval", "radius": 1, "oracle_cap": 50}),
    (["growth", "t.json", "--radius", "2"], {"command": "growth", "radius": 2}),
    (["adversary", "--algorithm", "safe", "-d", "1", "-D", "1", "-r", "1", "-R", "2"],
     {"command": "adversary", "algorithm": "safe", "radius": None, "d": 1, "D": 1,
      "r": 1, "R": 2, "seed": 0}),
], ids=["solve", "run", "eval", "growth", "adversary"])
def test_each_command_embeds_its_config_and_writes_only_to_o(tmp_path, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-torus", "--dim", "2", "--side", "3", "-o", "t.json"]) == 0
    assert main(["run", "t.json", "--algorithm", "safe", "-o", "x.json"]) == 0
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 0
    assert sorted(tmp_path.iterdir()) == before
    assert main([*argv, "-o", "out.json"]) == 0
    payload = json.loads((tmp_path / "out.json").read_text())
    if argv[0] == "adversary":
        # the one value a command works out itself: the template width used
        assert isinstance(payload["params"]["n_per_side"], int)
        config = {**config, "n_per_side": payload["params"]["n_per_side"]}
    assert payload["config"] == config
