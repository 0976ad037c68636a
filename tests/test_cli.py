import json
from pathlib import Path

import pytest

from iqhall import modules
from iqhall.algebra import iquiver_algebra
from iqhall.cache import FORMAT, load_engine, save_engine, seal
from iqhall.cli import main
from iqhall.errors import BudgetExceeded
from iqhall.hall import IHallAlgebra
from iqhall.modules import ModuleContext, direct_sum
from iqhall.quivers import validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
A2 = str(QUIVERS / "a2split.json")
SWAP = str(QUIVERS / "swap.json")
A3SPLIT = str(QUIVERS / "a3split.json")
A3TAU = str(QUIVERS / "a3tau.json")


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


@pytest.mark.parametrize("module,name", [
    ({"dims": {"1": 1, "2": 1}, "maps": {"zz": [[1]]}}, "zz"),
    ({"dims": {"1": 1, "9": 1}}, "9"),
])
def test_hall_mul_factor_with_an_unknown_name(capsys, module, name):
    factors = json.dumps([{"module": module}])
    code, out, err = run(capsys, "--no-cache", "hall", "mul", "--quiver", A2,
                         "--q", "2", "--factors", factors)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "input" and name in error["error"]


def test_hall_mul_factor_that_breaks_the_relations(capsys):
    # eps_1 squared is not zero: bad input, not a NormalFormStuck fault
    factors = json.dumps([{"module": {"dims": {"1": 1}, "maps": {"eps_1": [[1]]}}}])
    code, out, err = run(capsys, "--no-cache", "hall", "mul", "--quiver", A2,
                         "--q", "2", "--factors", factors)
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "input"


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
    assert [path.name for path in tmp_path.glob("*/*")] == ["2.json"]
    code2, warm, _ = run(capsys, *args)
    assert code2 == 0
    assert cold == warm


def test_resource_exit_code(capsys):
    code, _, err = run(capsys, "--no-cache", "modules", "enumerate",
                       "--quiver", A2, "--q", "2", "--dims", "4,4",
                       "--budget", "100")
    assert code == 3
    assert json.loads(err)["kind"] == "resource"


@pytest.mark.parametrize("name, value, message", [
    ("EXT_DIM_CAP", 0, "Ext dimension 1 above cap 0"),
    ("HOM_DIM_CAP", 0, "Hom dimension 1 above cap 0"),
    ("SUBMODULE_BUDGET", 1, "more than 1 submodules"),
])
def test_lowered_limit_trips(capsys, monkeypatch, name, value, message):
    # no test input reaches these limits at their defaults; lowered, each
    # must still stop its search with a resource error
    monkeypatch.setattr(modules, name, value)
    if name == "SUBMODULE_BUDGET":
        # only the submodule-counting oracle lists submodules
        alg = iquiver_algebra(validate_iquiver(json.loads(Path(A2).read_text())))
        ctx = ModuleContext(alg, 2)
        with pytest.raises(BudgetExceeded, match=message):
            ctx.submodules(direct_sum([ctx.simple("1")] * 2))
        return
    code, _, err = run(capsys, "--no-cache", "hall", "mul", "--quiver", A3TAU,
                       "--q", "3", "--word", "2,1,3,2,1")
    assert code == 3
    assert json.loads(err) == {"error": message, "kind": "resource"}


def test_config_block_keys(capsys):
    # the config block echoes only settings the run reads; primes and the
    # check prime of ``hall generic`` belong to its result
    code, out, _ = run(capsys, "--no-cache", "validate", A2)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == {"cache_dir", "use_cache"}


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


def _damaged_cache_run(capsys, tmp_path, damage):
    # fill an a3tau q=2 cache, damage its file, run again: the damaged
    # cache must be a miss, with the --no-cache result
    args = ["hall", "mul", "--quiver", A3TAU, "--q", "2", "--word", "2,1,3"]
    code, cold, _ = run(capsys, "--no-cache", *args)
    assert code == 0
    assert run(capsys, "--cache-dir", str(tmp_path), *args)[0] == 0
    [path] = tmp_path.glob("*/2.json")
    sound = path.read_text()
    path.write_text(damage(sound))
    code, warm, err = run(capsys, "--cache-dir", str(tmp_path), *args)
    assert code == 0, err
    assert envelope(warm) == envelope(cold)
    # a miss computes afresh and writes the file anew
    assert path.read_text() == sound


def test_truncated_registry_is_a_cache_miss(capsys, tmp_path):
    _damaged_cache_run(capsys, tmp_path, lambda text: text[:text.index('"reps"') + 300])


def test_truncated_memo_is_a_cache_miss(capsys, tmp_path):
    _damaged_cache_run(capsys, tmp_path, lambda text: text[:text.index('"pairs"') + 300])


def test_memo_ids_beyond_the_registry_are_a_cache_miss(capsys, tmp_path):
    # re-sealed, so that the checksum passes and the id range is what fails
    def shorten(text):
        data = json.loads(text)
        del data["sha256"]
        return seal(dict(data, reps=data["reps"][:2], index=data["index"][:2]))
    _damaged_cache_run(capsys, tmp_path, shorten)


def test_flipped_digit_in_a_rep_is_a_cache_miss(capsys, tmp_path):
    # still valid JSON and a well-formed registry: only the checksum can tell
    def flip(text):
        at = text.rindex("[[1") + 2
        damaged = text[:at] + "0" + text[at + 1:]
        json.loads(damaged)
        return damaged
    _damaged_cache_run(capsys, tmp_path, flip)


def test_load_into_an_engine_with_another_registry_is_a_miss(tmp_path):
    # a3tau q=2: a file saved after 2,1,3, loaded into an engine that has
    # computed 3,3, would put the file's memos on the engine's ids
    with open(A3TAU) as fh:
        alg = iquiver_algebra(validate_iquiver(json.load(fh)))
    saved = IHallAlgebra(alg, 2)
    saved.word_product(["2", "1", "3"])
    save_engine(saved, tmp_path)
    engine = IHallAlgebra(alg, 2)
    engine.word_product(["3", "3"])
    before = engine.ctx.registry_size(), dict(engine._pair), dict(engine._normal)
    assert not load_engine(engine, tmp_path)
    assert (engine.ctx.registry_size(), engine._pair, engine._normal) == before

    def terms(eng, elem):
        return sorted(((eng.ctx.rep(x).dims, alpha, coeff)
                       for (x, alpha), coeff in elem.terms.items()), key=lambda t: t[:2])
    cold = IHallAlgebra(alg, 2)
    expected = terms(cold, cold.word_product(["2", "1", "3"]))
    assert [t[0] for t in expected] == [(0, 1, 0), (1, 1, 1)]
    assert terms(engine, engine.word_product(["2", "1", "3"])) == expected


def _mixed_snapshot():
    """The registry of an a3tau q=2 enumeration of dims (1,2,1) then (1,1,1),
    33 classes, with the memos of the word 2,1,1,3,2, whose ids only reach
    28: every memo id is in range, but it names another module."""
    with open(A3TAU) as fh:
        alg = iquiver_algebra(validate_iquiver(json.load(fh)))
    registry, memos = IHallAlgebra(alg, 2), IHallAlgebra(alg, 2)
    for dims in ((1, 2, 1), (1, 1, 1)):
        registry.ctx.enumerate_iso_classes(dict(zip(alg.vertices, dims)))
    memos.word_product("2,1,1,3,2".split(","))
    reps = [registry.ctx.rep(mid).to_json() for mid in range(registry.ctx.registry_size())]
    assert len(reps) == 33
    index = registry.ctx.index()
    pairs = {f"{x},{y}": [[z, list(alpha), coeff.to_json()]
                          for (z, alpha), coeff in sorted(elem.terms.items())]
             for (x, y), elem in memos._pair.items()}
    normal = {str(mid): [coeff.to_json(), [key[0], list(key[1])]]
              for mid, (coeff, key) in memos._normal.items()}
    return alg.content_hash(), reps, index, {"pairs": pairs, "normal": normal}


def _warm_equals_no_cache(capsys, cache_dir):
    args = ["hall", "mul", "--quiver", A3TAU, "--q", "2", "--word", "2,1,3,2,1"]
    code, cold, _ = run(capsys, "--no-cache", *args)
    assert code == 0
    code, warm, err = run(capsys, "--cache-dir", str(cache_dir), *args)
    assert code == 0, err
    assert envelope(warm) == envelope(cold)


def test_legacy_registry_and_memo_pair_is_never_read(capsys, tmp_path):
    # two files of two runs, once read as a pair: wrong coefficients, exit 0
    algebra_hash, reps, _, memo = _mixed_snapshot()
    legacy = tmp_path / algebra_hash / "2"
    legacy.mkdir(parents=True)
    (legacy / "registry.json").write_text(json.dumps({"reps": reps}))
    (legacy / "memo.json").write_text(json.dumps(memo))
    _warm_equals_no_cache(capsys, tmp_path)


def test_foreign_format_is_a_cache_miss(capsys, tmp_path):
    # the mixed snapshot, read, would print wrong coefficients; sealed, so
    # that the format number is what makes it a miss, it is replaced by a
    # file of this format
    algebra_hash, reps, index, memo = _mixed_snapshot()
    path = tmp_path / algebra_hash / "2.json"
    path.parent.mkdir()
    path.write_text(seal(dict(memo, format=FORMAT + 1, reps=reps, index=index)))
    _warm_equals_no_cache(capsys, tmp_path)
    assert json.loads(path.read_text())["format"] == FORMAT


def test_failed_save_keeps_the_result(capsys, tmp_path):
    args = ["hall", "mul", "--quiver", A2, "--q", "2", "--word", "1,2"]
    code, cold, _ = run(capsys, "--no-cache", *args)
    assert code == 0
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = run(capsys, "--cache-dir", str(not_a_dir), *args)
    assert code == 0
    assert envelope(out) == envelope(cold)
    [line] = err.splitlines()
    assert json.loads(line)["kind"] == "cache"


def test_save_rewrites_the_file_only_when_it_grew(capsys, tmp_path):
    args = ["--cache-dir", str(tmp_path), "hall", "mul", "--quiver", A2,
            "--q", "2", "--word", "2,1,1"]
    assert run(capsys, *args)[0] == 0
    [path] = tmp_path.glob("*/2.json")
    before, size = path.stat(), len(json.loads(path.read_text())["reps"])
    assert run(capsys, *args)[0] == 0
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert run(capsys, "--cache-dir", str(tmp_path), "modules", "enumerate",
               "--quiver", A2, "--q", "2", "--dims", "2,2")[0] == 0
    assert path.stat().st_ino != before.st_ino
    assert len(json.loads(path.read_text())["reps"]) > size
