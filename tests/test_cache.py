"""Restoring a cached registry from its exact keys, against
re-interning every cached rep (the load path it replaced), and the checks
that make a damaged or foreign cache file a miss that leaves the engine as
it was."""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from iqhall import cache, modules
from iqhall.algebra import iquiver_algebra
from iqhall.cache import FORMAT, cache_paths, decode_reps, load_engine, save_engine, seal
from iqhall.cli import _element_json, main
from iqhall.hall import IHallAlgebra, keyed_terms
from iqhall.linalg import FpMatrix
from iqhall.modules import ModuleContext, fingerprint, make_rep
from iqhall.quivers import SinkSchedule, validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"

# the registries the benchmark's warm caches hold: (quiver, q, word, total
# dimension up to which every class is enumerated after the word)
SNAPSHOTS = [("a3tau", 2, "2,2,1,1,3", 0), ("a3tau", 3, "3,3,2,1,1", 0),
             ("a2split", 2, "1,2,2,1", 3)]


def _algebra(name):
    return iquiver_algebra(validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text())))


def _filled(alg, q, word, total):
    engine = IHallAlgebra(alg, q)
    engine.word_product(word.split(","))
    for dims in itertools.product(range(total + 1), repeat=len(alg.vertices)):
        if 0 < sum(dims) <= total:
            engine.ctx.enumerate_iso_classes(dict(zip(alg.vertices, dims)))
    return engine


def _path(engine, cache_dir):
    [path] = cache_paths(cache_dir, engine.algebra.content_hash(), engine.p)
    return path


def _payload(path):
    data = json.loads(path.read_text())
    del data["sha256"]
    return data


def _decode(alg, q, entry):
    """A stored rep, [dims, [[arrow id, flat row-major entries], ...]],
    through the public constructors: the reference for the load's keys."""
    dims, maps = entry
    dims = dict(zip(alg.vertices, dims))
    mats = {}
    for aid, flat in maps:
        cols = dims[alg.arrow_map[aid].src]
        mats[aid] = FpMatrix.from_rows(q, [flat[i:i + cols] for i in range(0, len(flat), cols)],
                                       cols=cols)
    return make_rep(alg, q, dims, mats)


@pytest.mark.parametrize("name,q,word,total", SNAPSHOTS)
def test_restore_equals_reinterning(tmp_path, name, q, word, total):
    alg = _algebra(name)
    filled = _filled(alg, q, word, total)
    # a module off the partition path, filed by its fingerprint
    filled.ctx.intern(filled.ctx.gen_simple(alg.vertices[0]))
    save_engine(filled, tmp_path)
    restored = IHallAlgebra(alg, q)
    assert load_engine(restored, tmp_path)
    # a warm product builds only the registry reps it reads
    size = filled.ctx.registry_size()
    cold = IHallAlgebra(alg, q).word_product(word.split(","))
    assert restored.word_product(word.split(",")) == cold
    assert sum(rep is not None for rep in restored.ctx._reps) < size
    # the reference: intern every cached rep in id order, then take the memos
    reinterned = IHallAlgebra(alg, q)
    for entry in _payload(_path(filled, tmp_path))["reps"]:
        reinterned.ctx.intern(_decode(alg, q, entry))
    reinterned._pair.update(restored._pair)
    reinterned._normal.update(restored._normal)

    a, b = restored.ctx, reinterned.ctx
    assert a.registry_size() == b.registry_size() == size
    assert [a.rep(m) for m in range(size)] == [b.rep(m) for m in range(size)] \
        == [filled.ctx.rep(m) for m in range(size)]
    assert a._exact == b._exact
    # only the zero rep, interned before the load, is filed; the first miss
    # files the restored ids by partition or fingerprint
    assert list(a._classes.values()) == [0] and not a._buckets
    new = make_rep(alg, q, {v: 9 for v in alg.vertices}, {})
    assert a.intern(new) == b.intern(new) == size
    assert a._buckets and a._buckets == b._buckets and a._classes == b._classes
    # no class key is loaded; each computed afresh equals the reference's
    assert not a._keys
    for mid in range(size + 1):
        assert a.decompose(mid) == b.decompose(mid)
    assert a.registry_size() == b.registry_size()
    assert reinterned.word_product(word.split(",")) == cold


@pytest.mark.parametrize("name,q,word,total", SNAPSHOTS)
def test_restored_index_equals_the_live_index(name, q, word, total):
    # the class key of each id, the index a decompose reads, is computed
    # afresh in a restored context and equals the live one
    live = _filled(_algebra(name), q, word, total).ctx
    restored = ModuleContext(live.algebra, live.p)
    restored.restore(list(live._registry))
    assert not restored._keys
    for mid in range(live.registry_size()):
        assert restored.decompose(mid) == live.decompose(mid)
    assert restored.registry_size() == live.registry_size()


def test_a_warm_enumerate_splits_as_a_cold_one(monkeypatch, capsys, tmp_path):
    # no class key comes from the file, so a warm run computes each one as a
    # cold run does
    args = ["modules", "enumerate", "--quiver", str(QUIVERS / "a2split.json"), "--q", "2",
            "--dims", "2,2"]
    calls, split = [], ModuleContext._split
    monkeypatch.setattr(ModuleContext, "_split",
                        lambda self, rep: calls.append(rep) or split(self, rep))
    cold = _cli_result(capsys, "--cache-dir", str(tmp_path), *args)
    splits = len(calls)
    calls.clear()
    assert _cli_result(capsys, "--cache-dir", str(tmp_path), *args) == cold
    assert len(calls) == splits == 12


def test_a_stored_class_key_is_not_read(tmp_path):
    # a format 7 file with every class key stored as "indecomposable"
    # loaded, and a warm enumerate of (2,2) then reported 12 classes
    # against 10, since a decomposable newcomer's key never matched
    alg = _algebra("a2split")
    dims = dict(zip(alg.vertices, (2, 2)))
    cold = IHallAlgebra(alg, 2)
    classes = cold.ctx.enumerate_iso_classes(dims)
    assert len(classes) == 10
    for mid in classes:
        cold.ctx.decompose(mid)
    size = cold.ctx.registry_size()
    keys = [cold.ctx.decompose(mid) for mid in range(size)]
    assert sum(len(key) > 1 for key in keys) >= 5
    save_engine(cold, tmp_path)
    path = _path(cold, tmp_path)
    data = _payload(path)
    data["index"] = ["indecomposable"] * size
    path.write_text(seal(data))
    warm = IHallAlgebra(alg, 2)
    assert load_engine(warm, tmp_path)
    assert warm.ctx.enumerate_iso_classes(dims) == classes
    assert [warm.ctx.decompose(mid) for mid in range(size)] == keys


def _refuse(*args):
    raise AssertionError("a derived invariant was computed")


@pytest.mark.parametrize("name,q,word", [("a3tau", 2, "2,1,3,2"), ("a2split", 2, "1,2,2,1"),
                                         ("d4split", 3, "1,2,3,1,1")])
def test_a_memoized_warm_product_builds_no_rep(monkeypatch, tmp_path, name, q, word):
    # every pair of the word is in the loaded memo, and a term's dims come
    # from the exact key; the zero rep, named by its partition, stores no
    # rep either, so none is ever built; no intern misses, so no restored
    # id is filed and no partition or fingerprint is computed
    alg = _algebra(name)
    cold = IHallAlgebra(alg, q)
    want = cold.word_product(word.split(","))
    save_engine(cold, tmp_path)
    warm = IHallAlgebra(alg, q)
    with monkeypatch.context() as patch:
        patch.setattr(SinkSchedule, "partition", _refuse)
        patch.setattr(modules, "fingerprint", _refuse)
        assert load_engine(warm, tmp_path)
        got = warm.word_product(word.split(","))
    assert got == want and _element_json(warm, got) == _element_json(cold, want)
    assert [mid for mid, rep in enumerate(warm.ctx._reps) if rep is not None] == []


def _memo_terms(edit):
    def apply(data):
        for terms in data["pairs"].values():
            for term in terms:
                edit(term)
    return apply


def _spaced_keys(data):
    # int() reads " 1, +2" as 1 and 2
    data["pairs"] = {" {}, +{}".format(*key.split(",")): terms
                     for key, terms in data["pairs"].items()}


# edits of the pair memo of an a2split q=2 file, re-sealed: each would be
# read as the memo it is not, or crash the product
MEMO_EDITS = {
    "alpha too short": _memo_terms(lambda term: term.__setitem__(1, [0])),
    "fractional alpha": _memo_terms(lambda term: term.__setitem__(1, [1.5, 0])),
    "fractional id": _memo_terms(lambda term: term.__setitem__(0, float(term[0]))),
    "spaced pair key": _spaced_keys,
}


def _cli_result(capsys, *argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    assert code == 0, capsys.readouterr().err
    return json.loads(out.getvalue())["result"]


@pytest.mark.parametrize("kind", sorted(MEMO_EDITS))
def test_a_malformed_memo_term_is_a_miss(capsys, tmp_path, kind):
    args = ["hall", "mul", "--quiver", str(QUIVERS / "a2split.json"), "--q", "2",
            "--word", "1,2"]
    cold = _cli_result(capsys, "--no-cache", *args)
    assert _cli_result(capsys, "--cache-dir", str(tmp_path), *args) == cold
    [path] = tmp_path.glob("*/2.json")
    data = _payload(path)
    MEMO_EDITS[kind](data)
    path.write_text(seal(data))
    engine = IHallAlgebra(_algebra("a2split"), 2)
    assert not load_engine(engine, tmp_path)
    assert engine.ctx.registry_size() == 1 and not engine._pair
    assert _cli_result(capsys, "--cache-dir", str(tmp_path), *args) == cold


def _flip_digit(text):
    # the last rep with a map, a = b = [[1],[0]] on dims (1,2,1), becomes the
    # module with b = [[1],[1]] instead, which the registry does not hold
    at = text.rindex('["b",[1,0]]') + 8
    return text[:at] + "1" + text[at + 1:]


# damage the checksum or the decoder must catch, applied to the file text
BROKEN = {
    "truncated": lambda text: text[:-300],
    "flipped digit": _flip_digit,
    "format 1 layout": lambda text: json.dumps(dict(json.loads(text), format=1)),
}


# the file's one module off the partition path: the generalized simple at
# vertex 1, interned before the word; every other id is a kQ-module
FINGERPRINTED = 1


def _mapped(data):
    """The position of the last stored rep with a map: a = b = [[1],[0]] on
    the dims (1,2,1)."""
    return max(i for i, (_, maps) in enumerate(data["reps"]) if maps)


def _duplicate(data):
    data["reps"].append(data["reps"][-1])


def _memo_beyond(data):
    data["reps"] = data["reps"][:2]


def _non_canonical(data):
    # (2 an + 2 bn sqrt q) / 2d is the same number, but not in lowest terms
    coeff = next(iter(data["pairs"].values()))[0][2]
    coeff[:] = [2 * x for x in coeff]


def _last_map(data):
    """The flat entries of the last stored map of the last rep with one."""
    return data["reps"][_mapped(data)][1][-1][1]


def _entry_beyond(data):
    # 2 would read as 0 mod 2, the key of another matrix
    _last_map(data)[-1] = 2


def _true_entry(data):
    # JSON true is no integer, though Python reads it as 1
    flat = _last_map(data)
    flat[flat.index(1)] = True


def _unknown_arrow(data):
    data["reps"][_mapped(data)][1][-1][0] = "z"


def _arrow_twice(data):
    maps = data["reps"][_mapped(data)][1]
    maps.append(maps[-1])


def _swap_first(data):
    reps = data["reps"]
    reps[0], reps[1] = reps[1], reps[0]


# edits of the payload that is then re-sealed, so that the checksum passes
# and a check of the content has to refuse it
EDITED = {
    "other format": lambda data: data.update(format=FORMAT + 1),
    "format 4": lambda data: data.update(format=4),
    "other prime": lambda data: data.update(p=3),
    "non-canonical coefficient": _non_canonical,
    "entry beyond the prime": _entry_beyond,
    "true entry": _true_entry,
    "unknown arrow": _unknown_arrow,
    "arrow twice": _arrow_twice,
    "duplicate rep": _duplicate,
    "memo id beyond": _memo_beyond,
    "zero rep not first": _swap_first,
}


def _state(engine):
    return engine.ctx.registry_size(), dict(engine._pair), dict(engine._normal)


@pytest.fixture(scope="module")
def a3tau_file(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("cache")
    engine = IHallAlgebra(_algebra("a3tau"), 2)
    assert engine.ctx.intern(engine.ctx.gen_simple("1")) == FINGERPRINTED
    engine.word_product("2,1,3,2".split(","))
    save_engine(engine, cache_dir)
    return engine.algebra, _payload(_path(engine, cache_dir))


def _refused(tmp_path, engine, text):
    path = _path(engine, tmp_path)
    path.parent.mkdir()
    path.write_text(text)
    before = _state(engine)
    assert not load_engine(engine, tmp_path)
    assert _state(engine) == before
    return path


@pytest.mark.parametrize("kind", sorted(BROKEN))
def test_broken_file_leaves_the_engine_as_it_was(tmp_path, a3tau_file, kind):
    alg, payload = a3tau_file
    _refused(tmp_path, IHallAlgebra(alg, 2), BROKEN[kind](seal(payload)))


@pytest.mark.parametrize("kind", sorted(EDITED))
def test_edited_file_leaves_the_engine_as_it_was(tmp_path, a3tau_file, kind):
    alg, payload = a3tau_file
    data = json.loads(json.dumps(payload))
    EDITED[kind](data)
    path = _refused(tmp_path, IHallAlgebra(alg, 2), seal(data))
    cache._unseal(path.read_bytes())  # the checksum holds


def test_only_the_checksum_refuses_a_flipped_digit(a3tau_file):
    alg, payload = a3tau_file
    data = json.loads(_flip_digit(seal(payload)))
    assert data["reps"][_mapped(data)] == [[1, 2, 1], [["a", [1, 0]], ["b", [1, 1]]]]
    assert data["reps"][_mapped(data)] not in payload["reps"]
    engine = IHallAlgebra(alg, 2)
    engine.ctx.restore(decode_reps(engine.ctx, data["reps"]))


def test_non_prefix_engine_is_left_as_it_was(tmp_path, a3tau_file):
    # the engine's id 1 is a module the file does not hold; the file's
    # memos would name its own id 1.  (tests/test_cli.py loads into an
    # engine that computed another word first.)
    alg, payload = a3tau_file
    engine = IHallAlgebra(alg, 2)
    engine.ctx.intern(engine.ctx.projective("2"))
    _refused(tmp_path, engine, seal(payload))


def test_prefix_engine_adopts_the_rest(tmp_path, a3tau_file):
    # an engine whose registry is a prefix of the file's restores the rest
    alg, payload = a3tau_file
    engine = IHallAlgebra(alg, 2)
    engine.ctx.intern(_decode(alg, 2, payload["reps"][1]))
    path = _path(engine, tmp_path)
    path.parent.mkdir()
    path.write_text(seal(payload))
    assert load_engine(engine, tmp_path)
    assert engine.ctx.registry_size() == len(payload["reps"])


def test_a_ragged_rep_is_a_miss(tmp_path):
    # a stored map with one entry fewer than its shape asks, in a file whose
    # checksum holds, leaves the engine as it was
    alg = _algebra("a2split")
    filled = _filled(alg, 2, "1,2", 2)
    save_engine(filled, tmp_path / "saved")
    data = _payload(_path(filled, tmp_path / "saved"))
    flat = next(flat for _, maps in data["reps"] for _, flat in maps if len(flat) > 1)
    flat.pop()
    _refused(tmp_path, IHallAlgebra(alg, 2), seal(data))


def test_a_saved_file_holds_no_derived_invariant(a3tau_file):
    _, payload = a3tau_file
    assert set(payload) == {"format", "p", "reps", "pairs"}


def _reseal_in_the_old_layout(path, alg, edit):
    """Reseal a file under the current format with the index of format 6,
    [bucket, class key] per id, as its writer stored it: the bucket is the
    Kostant partition of a kQ-module, else the fingerprint, here computed
    from the stored reps and then changed by ``edit(ctx, buckets)``."""
    data = _payload(path)
    ctx = ModuleContext(alg, data["p"])
    mids = [ctx.intern(_decode(alg, data["p"], entry)) for entry in data["reps"]]
    assert mids == list(range(len(mids)))
    buckets = {mid: ctx.partition(mid) for mid in mids}
    buckets.update((mid, fingerprint(ctx.rep(mid))) for mid in mids if buckets[mid] is None)
    edit(ctx, buckets)
    data["index"] = json.loads(json.dumps([[buckets[mid], None] for mid in mids]))
    path.write_text(seal(data))


def _raise_the_ranks(ctx, buckets):
    for mid, bucket in buckets.items():
        if ctx.partition(mid) is None:
            dims, ranks, soc, top = bucket
            buckets[mid] = dims, [r + 7 for r in ranks], soc, top


def _swap_two_partitions(ctx, buckets):
    x, y = [mid for mid in buckets if ctx.dims(mid) == (1, 2, 1)][:2]
    buckets[x], buckets[y] = buckets[y], buckets[x]


def test_stored_fingerprints_with_raised_ranks_are_a_miss(capsys, tmp_path):
    # a format 6 file with every stored arrow rank raised by 7 loaded, and a
    # warm enumerate of (2,2) reported 13 classes against 10
    args = ["modules", "enumerate", "--quiver", str(QUIVERS / "a2split.json"), "--q", "2",
            "--dims", "2,2"]
    cold = _cli_result(capsys, "--no-cache", *args)
    assert _cli_result(capsys, "--cache-dir", str(tmp_path), *args) == cold
    [path] = tmp_path.glob("*/2.json")
    _reseal_in_the_old_layout(path, _algebra("a2split"), _raise_the_ranks)
    assert _cli_result(capsys, "--cache-dir", str(tmp_path), *args) == cold


def test_stored_partitions_swapped_are_a_miss(tmp_path):
    # a format 6 file with the partitions of two ids of dims (1,2,1)
    # swapped loaded, and a warm 1,3,2,2 gave other terms than a cold one
    alg = _algebra("a3tau")
    engine = IHallAlgebra(alg, 2)
    engine.word_product("2,1,3,2".split(","))
    save_engine(engine, tmp_path)
    _reseal_in_the_old_layout(_path(engine, tmp_path), alg, _swap_two_partitions)
    cold, warm = IHallAlgebra(alg, 2), IHallAlgebra(alg, 2)
    load_engine(warm, tmp_path)
    word = "1,3,2,2".split(",")
    assert keyed_terms(warm, warm.word_product(word)) == keyed_terms(cold, cold.word_product(word))


def test_two_ids_of_one_partition_are_an_internal_error(capsys, tmp_path):
    # a writer that stored one module twice, under a change of basis, makes
    # a file that loads; the first intern miss files both ids and exits 4
    args = ["--cache-dir", str(tmp_path), "hall", "mul", "--quiver",
            str(QUIVERS / "a3tau.json"), "--q", "2", "--word"]
    _cli_result(capsys, *args, "2,1,3,2")
    [path] = tmp_path.glob("*/2.json")
    data = _payload(path)
    dims, maps = data["reps"][_mapped(data)]
    # a = b = [[1],[0]] on dims (1,2,1) becomes [[0],[1]]: the basis
    # vectors at vertex 2 swap
    data["reps"].append([dims, [[aid, flat[::-1]] for aid, flat in maps]])
    path.write_text(seal(data))
    assert load_engine(IHallAlgebra(_algebra("a3tau"), 2), tmp_path)
    assert main(args + ["2,2,2"]) == 4
    assert json.loads(capsys.readouterr().err)["kind"] == "internal"
