import json
from pathlib import Path

import pytest

from iqhall import algebra, linalg, modules
from iqhall.algebra import iquiver_algebra
from iqhall.cache import FORMAT, load_engine, save_engine, seal
from iqhall.cli import main
from iqhall.hall import IHallAlgebra, generic_structure_constants, keyed_terms
from iqhall.linalg import FpMatrix
from iqhall.quivers import validate_iquiver
from iqhall.scalars import laurent_eval

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
    # eps_1 squared is not zero: bad input, not an engine fault
    factors = json.dumps([{"module": {"dims": {"1": 1}, "maps": {"eps_1": [[1]]}}}])
    code, out, err = run(capsys, "--no-cache", "hall", "mul", "--quiver", A2,
                         "--q", "2", "--factors", factors)
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "input"


def test_hall_mul_module_over_another_prime_names_both(capsys):
    factors = json.dumps([{"module": {"p": 5, "dims": {"1": 1}}}])
    code, out, err = run(capsys, "--no-cache", "hall", "mul", "--quiver", A2,
                         "--q", "3", "--factors", factors)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error == {"error": "module over F_5 in a product at --q 3", "kind": "input"}


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


# each limit with its module and a command that trips it once lowered
LIMITS = {
    # Ext^1(S1, S2) is the block of the arrow 1 -> 2, walked as its two
    # ranks, 0 and 1, and no split of this product meets the lowered budget
    "ENUM_BUDGET": (modules, ["hall", "mul", "--quiver", A2, "--q", "3", "--word", "1,2"]),
    # one arrow gives three basis paths; ``_bound_algebra`` caches built
    # algebras, and no other test builds a quiver with these vertex names
    "MAX_PATHS": (algebra, ["algebra", "capped.json"]),
}


@pytest.mark.parametrize("name, value, message", [
    ("ENUM_BUDGET", 1, "2 Ext^1 representatives above budget 1"),
    ("MAX_PATHS", 2, "more than 2 paths"),
])
def test_lowered_limit_trips(capsys, monkeypatch, tmp_path, name, value, message):
    # no test input reaches these limits at their defaults; lowered, each
    # must still stop its command with a resource error
    (tmp_path / "capped.json").write_text(json.dumps(
        {"vertices": ["cap_src", "cap_tgt"],
         "arrows": [{"id": "cap", "src": "cap_src", "tgt": "cap_tgt"}]}))
    monkeypatch.chdir(tmp_path)
    owner, argv = LIMITS[name]
    monkeypatch.setattr(owner, name, value)
    code, _, err = run(capsys, "--no-cache", *argv)
    assert code == 3
    assert json.loads(err) == {"error": message, "kind": "resource"}


def test_the_readme_ext_walk_above_budget(capsys):
    # S1 * S3 has the term S1 + S3.  Ext^1_kQ(S1 + S3, S2) has dimension 2,
    # its blocks S1 -> S2 and S3 -> S2 share S2, and no eps map runs from
    # S1 + S3 to S2: so the one rank vector, 0, walks the split class and the
    # q + 1 lines, 1000005 classes at q = 1000003, refused before the first
    # middle term is built
    code, out, err = run(capsys, "--no-cache", "hall", "mul", "--quiver", A3TAU,
                         "--q", "1000003", "--word", "1,3,2")
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "1000005 Ext^1 representatives above "
                                        "budget 400000", "kind": "resource"}


def test_the_old_readme_input_is_its_hall_polynomial(capsys):
    # a2split 2,1,1,2 at q = 1000003, which the walk of Ext^1 refused with
    # 1000007000014 classes: by rank vectors (S1 + S1 + S2) * S2 builds 3
    # middle terms, and the word's 5 terms are the Laurent polynomials fitted
    # at q = 2, 3, 5 and checked at 7, evaluated at q
    q, word = 1000003, "2,1,1,2"
    code, out, _ = run(capsys, "--no-cache", "hall", "mul", "--quiver", A2, "--q", str(q),
                       "--word", word)
    assert code == 0
    iq = validate_iquiver(json.loads(Path(A2).read_text()))
    generic = generic_structure_constants(iq, lambda engine: engine.word_product(word.split(",")),
                                          [2, 3, 5], 7)
    engine = IHallAlgebra(iquiver_algebra(iq), q)
    elem = engine.word_product(word.split(","))
    # a fresh engine meets the command's ids
    assert {(t["X"], tuple(t["alpha"])) for t in json.loads(out)["result"]["terms"]} == \
        set(elem.terms)
    terms = keyed_terms(engine, elem)
    assert len(terms) == 5
    assert terms == {key: laurent_eval(poly, q) for key, poly in generic.items()}


def test_config_block_keys(capsys):
    # the config block echoes only settings the run reads; primes and the
    # check prime of ``hall generic`` belong to its result
    code, out, _ = run(capsys, "--no-cache", "validate", A2)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == {"cache_dir", "use_cache"}


# a module with a nonzero map, times a simple: the first Ext^1 with a nonzero coboundary
BROKEN_WALK = ["--no-cache", "hall", "mul", "--quiver", A2, "--q", "2", "--factors",
               '[{"module": {"dims": {"1": 1, "2": 1}, "maps": {"a": [[1]]}}}, {"simple": "2"}]']


def test_internal_error_exit_code(capsys, monkeypatch):
    # a broken engine invariant on valid input is an engine fault, not bad
    # input: here the cocycle equations are made too strict (Z = 0), so the
    # coboundaries fall outside Z
    def too_strict(M, N):
        system = cocycle_system(M, N)
        return linalg.vstack([system, FpMatrix.identity(system.p, system.cols)])
    cocycle_system = modules._cocycle_system
    monkeypatch.setattr(modules, "_cocycle_system", too_strict)
    code, out, err = run(capsys, *BROKEN_WALK)
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "a coboundary breaks the relations: im delta + Z "
                                        "has dimension 1, Z has 0",
                               "kind": "internal"}


def test_ext1_classes_that_miss_the_identity_are_an_internal_error(capsys, monkeypatch):
    # the walk of ext1_classify finds dim Z - dim im delta classes, the
    # identity ext1_dim reads, only when every coboundary is a cocycle.
    # Reversing the coordinates of C^1 in delta leaves Hom = ker delta as it
    # is but moves im delta off Z, and that is an engine fault
    def reversed_rows(M, N):
        return reversed(list(delta_rows(M, N)))
    delta_rows = modules._delta_rows
    monkeypatch.setattr(modules, "_delta_rows", reversed_rows)
    code, out, err = run(capsys, *BROKEN_WALK)
    assert code == 4 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["kind"] == "internal"


@pytest.mark.parametrize("argv, named", [
    # moduli that are not prime
    (["hall", "mul", "--quiver", A2, "--q", "4", "--word", "1"], None),
    (["verify", "serre", "--quiver", A2, "--q", "4"], None),
    (["verify", "rank2", "--q", "1"], None),
    (["hall", "generic", "--quiver", A2, "--primes", "2,4", "--word", "1"], None),
    # a held-out prime that is also a fit prime
    (["hall", "generic", "--quiver", SWAP, "--primes", "2,3,5", "--check", "5",
     "--word", "1,1,2,2,1"], None),
    # names and values the algebra or the option cannot take
    (["hall", "mul", "--quiver", A2, "--q", "2", "--word", "1,9"], None),
    (["modules", "enumerate", "--quiver", A2, "--q", "2", "--dims", "1,x"], None),
    (["hall", "generic", "--quiver", A2, "--primes", "2,x", "--word", "1"], None),
    (["bases", "pbw", "--quiver", A2, "--q", "2", "--order", "1,x"], None),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors", "notjson"], None),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors",
      json.dumps([{"torus": {"1": "x"}}])], None),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors",
      json.dumps([{"torus": {"9": 1}}])], None),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors", "[5]"], None),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors",
      json.dumps([{"module": {}}])], None),
    (["hall", "mul", "--quiver", A2, "--q", "2"], None),
    (["verify", "reduced", "--quiver", A2, "--q", "2", "--sigma", "1=abc"], None),
    (["verify", "reduced", "--quiver", A2, "--q", "2", "--sigma", "1=1/0"], None),
    (["verify", "reduced", "--quiver", A2, "--q", "2", "--sigma", "7=2"], None),
    (["verify", "reduced", "--quiver", A3TAU, "--q", "2", "--sigma", "1=2,3=3"], None),
    # parse errors name the flag and the kind of value it takes
    (["hall", "mul", "--quiver", A2, "--q", "abc", "--word", "1"], "argument --q: expected a prime"),
    ([], "required: command"),
    (["bases", "monomial", "--quiver", A2, "--q", "2", "--cap", "-1"],
     "argument --cap: expected a positive integer"),
    (["verify", "euler", "--quiver", A2, "--q", "2", "--samples", "-3"],
     "argument --samples: expected a positive integer"),
    (["modules", "enumerate", "--quiver", A2, "--q", "2", "--dims=-1,2"],
     "argument --dims: expected a comma list of nonnegative integers"),
    (["modules", "enumerate", "--quiver", A2, "--q", "2", "--dims", "1,1", "--budget", "-5"],
     "argument --budget: expected a nonnegative integer"),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--word", "1,,2"],
     "argument --word: expected a comma list of vertex names"),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--word", "1", "--factors", "[]"],
     "not allowed with argument --word"),
    (["algebra", A2, "--q", "0"], "argument --q: expected a prime"),
    # module descriptions take JSON integers only: none is rounded or cast
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors",
      json.dumps([{"module": {"dims": {"1": 1.5}}}])], "1.5 is not an integer >= 0"),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors",
      json.dumps([{"module": {"dims": {"1": -1}}}])], "-1 is not an integer >= 0"),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors",
      json.dumps([{"module": {"dims": {"1": True}}}])], "True is not an integer >= 0"),
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors",
      json.dumps([{"module": {"dims": {"1": 1, "2": 1}, "maps": {"a": [[1.5]]}}}])],
     "1.5 is not an integer"),
    # the rows of a map must have one length
    (["hall", "mul", "--quiver", A2, "--q", "2", "--factors",
      json.dumps([{"module": {"dims": {"1": 2, "2": 2}, "maps": {"a": [[1, 0], [1]]}}}])],
     "column count mismatch"),
    # a flag the subcommand lacks is not read as a longer one it has
    (["hall", "generic", "--word", "1", "--quiver", A2, "--q", "2"],
     "unrecognized arguments: --q 2"),
], ids=["mul-q4", "serre-q4", "rank2-q1", "generic-prime-4", "check-prime-fitted",
        "unknown-vertex", "dims", "primes", "order", "factors", "torus-value",
        "torus-vertex", "factor-not-object", "module-without-dims", "no-factors",
        "sigma-value", "sigma-zero-denominator", "sigma-vertex", "sigma-orbit",
        "q-not-a-number", "no-command", "cap-negative", "samples-negative",
        "dims-negative", "budget-negative", "word-empty-name", "word-and-factors",
        "algebra-q0", "module-dim-fraction", "module-dim-negative", "module-dim-bool",
        "module-entry-fraction", "module-ragged", "flag-prefix"])
def test_bad_value_exits_2_with_one_line(capsys, argv, named):
    code, out, err = run(capsys, "--no-cache", *argv)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    error = json.loads(line)
    assert set(error) == {"error", "kind"} and error["kind"] == "input"
    assert named is None or named in error["error"]


@pytest.mark.parametrize("q", [2, 3])
def test_hall_mul_through_a_piece_with_no_p_leq1_sub_or_quotient(capsys, q):
    # a3split 1,2,3,2 meets a mixed indecomposable of dims (1,2,1) that no
    # generalized simple embeds in or maps onto; its normal form still exists
    code, out, _ = run(capsys, "--no-cache", "hall", "mul", "--quiver", A3SPLIT,
                       "--q", str(q), "--word", "1,2,3,2")
    assert code == 0
    assert envelope(out)["terms"]


def test_hall_generic_through_a_piece_with_no_p_leq1_sub_or_quotient(capsys):
    code, out, _ = run(capsys, "--no-cache", "hall", "generic", "--quiver", A3SPLIT,
                       "--primes", "2,3,5", "--check", "7", "--word", "1,2,3,2")
    assert code == 0
    assert envelope(out)["terms"]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--no-cache", "--out", str(target),
                       "verify", "rank2", "--q", "2")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["pass"] is True


@pytest.mark.parametrize("where", ["missing/dir/report.json", "."])
def test_unwritable_out_file_is_an_input_error(capsys, tmp_path, where):
    # a directory that does not exist, and a path that is a directory
    code, out, err = run(capsys, "--no-cache", "--out", str(tmp_path / where),
                         "validate", A2)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    error = json.loads(line)
    assert set(error) == {"error", "kind"} and error["kind"] == "input"
    assert error["error"].startswith("cannot write --out file")
    assert not (tmp_path / "missing").exists()


def _damaged_cache_run(capsys, tmp_path, damage):
    # fill an a3tau q=2 cache, damage its file, run again: the damaged
    # cache must be a miss, with the --no-cache result
    args = ["hall", "mul", "--quiver", A3TAU, "--q", "2", "--word", "2,1,3,2"]
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
        return seal(dict(data, reps=data["reps"][:2]))
    _damaged_cache_run(capsys, tmp_path, shorten)


def test_fractional_dimension_in_a_rep_is_a_cache_miss(capsys, tmp_path):
    # re-sealed, so that only the integer check can tell: a dimension of
    # 1.0 must not be read as 1
    def fractional(text):
        data = json.loads(text)
        del data["sha256"]
        dims = data["reps"][-1][0]
        at = next(i for i, d in enumerate(dims) if d)
        dims[at] = float(dims[at])
        return seal(data)
    _damaged_cache_run(capsys, tmp_path, fractional)


def test_flipped_digit_in_a_rep_is_a_cache_miss(capsys, tmp_path):
    # still valid JSON and a well-formed registry: only the checksum can tell.
    # The last rep, a = b = [[1],[0]] on dims (1,2,1), gets b = [[1],[1]]
    # instead, a module the registry does not hold
    def flip(text):
        at = text.rindex('["b",[1,0]]') + 8
        damaged = text[:at] + "1" + text[at + 1:]
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


def _mixed_snapshot(tmp_path):
    """A snapshot of the registry of an a3tau q=2 enumeration of dims
    (1,2,1) then (1,1,1), 29 entries, with the memos of the word 2,1,1,3,2,
    whose ids only reach 13: every memo id is in range, but it names another
    module."""
    with open(A3TAU) as fh:
        alg = iquiver_algebra(validate_iquiver(json.load(fh)))
    registry, memos = IHallAlgebra(alg, 2), IHallAlgebra(alg, 2)
    for dims in ((1, 2, 1), (1, 1, 1)):
        registry.ctx.enumerate_iso_classes(dict(zip(alg.vertices, dims)))
    memos.word_product("2,1,1,3,2".split(","))
    payloads = []
    for engine, where in ((registry, "registry"), (memos, "memos")):
        save_engine(engine, tmp_path / where)
        [path] = (tmp_path / where).glob("*/2.json")
        payloads.append(json.loads(path.read_text()))
    snapshot, memo = payloads
    del snapshot["sha256"]
    assert len(snapshot["reps"]) == 29
    return alg.content_hash(), dict(snapshot, pairs=memo["pairs"])


def _warm_equals_no_cache(capsys, cache_dir):
    args = ["hall", "mul", "--quiver", A3TAU, "--q", "2", "--word", "2,1,3,2,1"]
    code, cold, _ = run(capsys, "--no-cache", *args)
    assert code == 0
    code, warm, err = run(capsys, "--cache-dir", str(cache_dir), *args)
    assert code == 0, err
    assert envelope(warm) == envelope(cold)


def test_legacy_registry_and_memo_pair_is_never_read(capsys, tmp_path):
    # two files of two runs, once read as a pair: wrong coefficients, exit 0
    algebra_hash, snapshot = _mixed_snapshot(tmp_path / "made")
    legacy = tmp_path / algebra_hash / "2"
    legacy.mkdir(parents=True)
    (legacy / "registry.json").write_text(json.dumps({"reps": snapshot["reps"]}))
    (legacy / "memo.json").write_text(json.dumps({"pairs": snapshot["pairs"]}))
    _warm_equals_no_cache(capsys, tmp_path)


def test_foreign_format_is_a_cache_miss(capsys, tmp_path):
    # the mixed snapshot, read, would print wrong coefficients; sealed, so
    # that the format number is what makes it a miss, it is replaced by a
    # file of this format
    algebra_hash, snapshot = _mixed_snapshot(tmp_path / "made")
    path = tmp_path / algebra_hash / "2.json"
    path.parent.mkdir()
    path.write_text(seal(dict(snapshot, format=FORMAT + 1)))
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
