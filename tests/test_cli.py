import json
from pathlib import Path

from iqhall.cli import main

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
A2 = str(QUIVERS / "a2split.json")
SWAP = str(QUIVERS / "swap.json")
A3SPLIT = str(QUIVERS / "a3split.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(out):
    data = json.loads(out)
    assert set(data) == {"tool", "version", "config", "result"}
    return data["result"]


def test_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "--no-cache", "validate", A2)
    assert code == 0
    result = envelope(out)
    assert result["vertices"] == ["1", "2"]
    assert result["itau_reps"] == ["1", "2"]


def test_validate_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["1", "2"], "arrows": [{"id": "a", "src": "1", "tgt": "2"}], "tau": {"1": "2", "2": "1"}}')
    code, _, err = run(capsys, "--no-cache", "validate", str(bad))
    assert code == 2
    assert "error" in json.loads(err)


def test_algebra(capsys):
    code, out, _ = run(capsys, "--no-cache", "algebra", A2, "--q", "2")
    assert code == 0
    result = envelope(out)
    assert result["dim"] == 6
    assert result["projectives"]["1"] == {"1": 2, "2": 2}


def test_modules_enumerate(capsys, tmp_path):
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "modules", "enumerate",
                       "--quiver", A2, "--q", "2", "--dims", "1,1")
    assert code == 0
    result = envelope(out)
    assert result["count"] == 2


def test_hall_mul_word(capsys):
    code, out, _ = run(capsys, "--no-cache", "hall", "mul", "--quiver", A2,
                       "--q", "2", "--word", "1,2")
    assert code == 0
    result = envelope(out)
    assert result["q"] == 2 and len(result["terms"]) == 2


def test_hall_mul_factors(capsys):
    factors = json.dumps([
        {"simple": "1"},
        {"torus": {"1": 1}},
        {"module": {"dims": {"1": 1, "2": 1},
                    "maps": {"a": [[1]]}}},
    ])
    code, out, _ = run(capsys, "--no-cache", "hall", "mul", "--quiver", A2,
                       "--q", "2", "--factors", factors)
    assert code == 0
    result = envelope(out)
    assert all(t["alpha"][0] >= 1 for t in result["terms"])


def test_hall_generic(capsys):
    code, out, _ = run(capsys, "--no-cache", "hall", "generic", "--quiver", A2,
                       "--primes", "2,3,5", "--check", "7", "--word", "1,2")
    assert code == 0
    result = envelope(out)
    nonsplit = [t for t in result["terms"] if t["X"] == [[1, 1]]]
    assert nonsplit[0]["coeff"] == {"1": "1/1", "-1": "-1/1"}


def test_verify_rank2(capsys):
    code, out, _ = run(capsys, "--no-cache", "verify", "rank2", "--q", "2")
    assert code == 0
    result = envelope(out)
    assert result["pass"] is True
    assert len(result["relations"]) == 5


def test_verify_serre_and_exit_codes(capsys):
    code, out, _ = run(capsys, "--no-cache", "verify", "serre",
                       "--quiver", SWAP, "--q", "3")
    assert code == 0
    assert envelope(out)["pass"] is True
    code, _, err = run(capsys, "--no-cache", "verify", "serre", "--q", "3")
    assert code == 2  # missing quiver


def test_bases_cli(capsys):
    code, out, _ = run(capsys, "--no-cache", "bases", "monomial",
                       "--quiver", A2, "--q", "2", "--cap", "2")
    assert code == 0
    assert envelope(out)["passed"] is True


def test_byte_identical_output(capsys):
    _, out1, _ = run(capsys, "--no-cache", "verify", "rank2", "--q", "2")
    _, out2, _ = run(capsys, "--no-cache", "verify", "rank2", "--q", "2")
    assert out1 == out2


def test_cache_warm_equals_cold(capsys, tmp_path):
    args = ["--cache-dir", str(tmp_path), "hall", "mul", "--quiver", A2,
            "--q", "2", "--word", "2,1,1"]
    code1, cold, _ = run(capsys, *args)
    assert code1 == 0
    assert (tmp_path).exists() and any(tmp_path.rglob("registry.json"))
    code2, warm, _ = run(capsys, *args)
    assert code2 == 0
    assert cold == warm


def test_resource_exit_code(capsys):
    code, _, err = run(capsys, "--no-cache", "modules", "enumerate",
                       "--quiver", A2, "--q", "2", "--dims", "4,4",
                       "--budget", "100")
    assert code == 3
    assert json.loads(err)["kind"] == "resource"


def test_config_block_keys(capsys):
    # the config block echoes only settings the run reads; primes and the
    # check prime of ``hall generic`` belong to its result
    code, out, _ = run(capsys, "--no-cache", "validate", A2)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == {"cache_dir", "use_cache", "degree_bound", "laurent_bound_cap",
                           "caps"}
    assert set(config["caps"]) == {"hom_dim", "ext_dim", "end_dim", "submodule_budget",
                                   "enum_budget"}


def test_internal_error_exit_code(capsys):
    # a3split 1,2,3,2 at q=2 meets a mixed indecomposable with no P<=1
    # submodule or quotient (NormalFormStuck): an engine fault, not bad input
    code, out, err = run(capsys, "--no-cache", "hall", "mul", "--quiver", A3SPLIT,
                         "--q", "2", "--word", "1,2,3,2")
    assert code == 4 and out == ""
    assert json.loads(err)["kind"] == "internal"


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--no-cache", "--out", str(target),
                       "verify", "rank2", "--q", "2")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["pass"] is True


def _damaged_cache_run(capsys, tmp_path, victim, damage):
    # fill an a3tau q=2 cache, damage one of its files, run again: the
    # damaged cache must be a miss, with the --no-cache result
    a3tau = str(QUIVERS / "a3tau.json")
    args = ["hall", "mul", "--quiver", a3tau, "--q", "2", "--word", "2,1,3"]
    code, cold, _ = run(capsys, "--no-cache", *args)
    assert code == 0
    assert run(capsys, "--cache-dir", str(tmp_path), *args)[0] == 0
    [path] = tmp_path.rglob(victim)
    path.write_text(damage(path.read_text()))
    code, warm, err = run(capsys, "--cache-dir", str(tmp_path), *args)
    assert code == 0, err
    assert envelope(warm) == envelope(cold)


def test_truncated_registry_is_a_cache_miss(capsys, tmp_path):
    _damaged_cache_run(capsys, tmp_path, "registry.json", lambda text: text[:300])


def test_truncated_memo_is_a_cache_miss(capsys, tmp_path):
    _damaged_cache_run(capsys, tmp_path, "memo.json", lambda text: text[:300])


def test_memo_ids_beyond_the_registry_are_a_cache_miss(capsys, tmp_path):
    def shorten(text):
        return json.dumps({"reps": json.loads(text)["reps"][:2]})
    _damaged_cache_run(capsys, tmp_path, "registry.json", shorten)
