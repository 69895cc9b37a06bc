"""Tests of the benchmark harness: span arithmetic, wrappers, gate, known defect."""

import hashlib
import json
import shutil
import sys
import time

import pytest

import gate
import run
import tracing

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _span(i, name, start, end, parent=None, cpu=0.0, **counters):
    span = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "cpu": cpu}
    if counters:
        span["counters"] = counters
    return span


# root [0, 10] with children a [1, 4] and b [5, 9]; a holds c [2, 3];
# b recurses into b [6, 8]
TREE = [
    _span(0, "m.root", 0.0, 10.0, cpu=9.0),
    _span(1, "m.a", 1.0, 4.0, 0, cpu=3.0, cells=6),
    _span(2, "m.c", 2.0, 3.0, 1),
    _span(3, "m.b", 5.0, 9.0, 0, cpu=8.0),
    _span(4, "m.b", 6.0, 8.0, 3, cpu=2.0),
]


def test_self_time_subtracts_children():
    assert tracing.self_times(TREE) == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_self_time_clips_overlapping_children():
    spans = [
        _span(0, "m.p", 0.0, 10.0),
        _span(1, "m.x", 1.0, 5.0, 0),
        _span(2, "m.y", 4.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_function_stats_count_recursion_once():
    stats = tracing.function_stats(TREE)
    assert stats["m.b"]["calls"] == 2
    assert stats["m.b"]["total_s"] == 4.0
    assert stats["m.b"]["self_s"] == 4.0
    assert stats["m.b"]["max_s"] == 4.0
    assert stats["m.b"]["cpu_s"] == 8.0
    assert stats["m.a"]["counters"] == {"cells": 6}


def test_layer_metrics_and_coverage():
    metrics = tracing.layer_metrics(
        TREE, ["m.a.self_s", "m.a.cells", "m.b.cpu_per_wall", "m.z.calls", "trace.coverage"]
    )
    assert metrics == {"m.a.self_s": 2.0, "m.a.cells": 6, "m.b.cpu_per_wall": 2.0,
                       "m.z.calls": 0}
    assert tracing.root_coverage(TREE, root="m.root") == pytest.approx(0.7)


def _fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "def inner(x):\n    return x + 1\n\n"
        "def outer(x):\n    return inner(x) * 2\n"
    )
    (pkg / "b.py").write_text("from .a import outer\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        monkeypatch.delitem(sys.modules, name)
    import fakepkg.a
    import fakepkg.b
    return fakepkg


def test_install_rebinds_copies_and_restore_puts_originals_back(tmp_path, monkeypatch):
    fakepkg = _fake_package(tmp_path, monkeypatch)
    inner, outer = fakepkg.a.inner, fakepkg.a.outer
    recorder = tracing.Recorder()
    restore = tracing.install(recorder, package="fakepkg",
                              traced={"a": ("inner", "outer", "absent")})
    assert fakepkg.b.outer is fakepkg.a.outer is not outer
    assert fakepkg.b.outer(1) == 4
    records = recorder.records()
    assert [(r["name"], r["parent"]) for r in records] == [("a.outer", None), ("a.inner", 0)]
    restore()
    assert fakepkg.a.inner is inner
    assert fakepkg.a.outer is outer and fakepkg.b.outer is outer


def test_install_on_hyperstab_restores_every_binding():
    import hyperstab.cli  # noqa: F401  (imports every traced module)

    def bindings():
        return {
            (name, attr): value
            for name, mod in list(sys.modules.items())
            if name.startswith("hyperstab")
            for attr, value in vars(mod).items()
            if callable(value)
        }

    before = bindings()
    restore = tracing.install(tracing.Recorder())
    wrapped = bindings()
    assert wrapped[("hyperstab.cli", "enumerate_count")] is not \
        before[("hyperstab.cli", "enumerate_count")]
    assert wrapped[("hyperstab.stable", "equivariant_poincare_m0n")] is \
        wrapped[("hyperstab.m0n", "equivariant_poincare_m0n")]
    restore()
    after = bindings()
    assert all(after[key] is value for key, value in before.items())


def test_m0n_probe_classifies_hits_loads_and_writes(tmp_path, monkeypatch):
    from hyperstab import m0n

    monkeypatch.setenv("HYPERSTAB_CACHE", str(tmp_path))
    m0n.equivariant_poincare_m0n.cache_clear()
    recorder = tracing.Recorder()
    restore = tracing.install(recorder, traced={"m0n": ("equivariant_poincare_m0n",)})
    try:
        m0n.equivariant_poincare_m0n(5)  # computed and written
        m0n.equivariant_poincare_m0n(5)  # lru hit
        m0n.equivariant_poincare_m0n.__wrapped__.cache_clear()
        m0n.equivariant_poincare_m0n(5)  # loaded from disk
    finally:
        restore()
        m0n.equivariant_poincare_m0n.cache_clear()
    metrics = tracing.layer_metrics(recorder.records(), [
        "m0n.equivariant_poincare_m0n.calls",
        "m0n.equivariant_poincare_m0n.lru_hits",
        "m0n.equivariant_poincare_m0n.lru_misses",
        "m0n.disk_loads",
        "m0n.disk_writes",
    ])
    assert list(metrics.values()) == [3, 1, 2, 1, 1]
    assert run.cache_bytes(tmp_path) == (tmp_path / "m0n_5.json").stat().st_size


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def _verify_payload(*checks):
    return [{"suite": "s", "checks": [
        {"id": cid, "status": status, "expected": expected, "actual": "", "source": "oracle"}
        for cid, status, expected in checks
    ]}]


@pytest.fixture
def out_dir(tmp_path):
    (tmp_path / "stable.json").write_text("{}\n")
    return tmp_path


STABLE_PIN = {"stable.json": hashlib.sha256(b"{}\n").hexdigest()}
CHECK_PIN = {"verify.json": [["s", "one", "pass", "1"], ["s", "two", "skipped", "2"]]}


def test_gate_passes_pinned_hash(out_dir):
    assert gate.verdict(0, out_dir, STABLE_PIN) == []


@pytest.mark.parametrize("code, text, expect", [
    (1, "{}\n", "exit code 1"),
    (0, "{ }\n", "stable.json sha256"),
    (0, None, "stable.json missing"),
])
def test_gate_fails_exit_hash_and_missing_file(out_dir, code, text, expect):
    if text is None:
        (out_dir / "stable.json").unlink()
    else:
        (out_dir / "stable.json").write_text(text)
    reasons = gate.verdict(code, out_dir, STABLE_PIN)
    assert len(reasons) == 1 and reasons[0].startswith(expect)


@pytest.mark.parametrize("checks, passes", [
    ([("one", "pass", "1"), ("two", "skipped", "2")], True),
    ([("one", "pass", "1"), ("two", "skipped", "2"), ("new", "pass", "3")], True),
    ([("one", "pass", "1"), ("two", "skipped", "2"), ("new", "fail", "3")], False),
    ([("one", "pass", "1")], False),
    ([("one", "pass", "1"), ("two", "pass", "2")], False),
    ([("one", "pass", "1 on fewer trials"), ("two", "skipped", "2")], False),
])
def test_gate_on_verify_checks(tmp_path, checks, passes):
    (tmp_path / "verify.json").write_text(json.dumps(_verify_payload(*checks)))
    assert (gate.verdict(0, tmp_path, CHECK_PIN) == []) is passes


def test_at_reference_speed_uses_the_references_on_both_sides():
    ref = run.REFERENCE_S
    # the machine runs at half speed around the first time, then at full
    # speed; the second time is scaled by the mean of three reference runs
    scaled = run.at_reference_speed([4.0, 3.0], [[2 * ref], [2 * ref], [ref, ref]])
    assert scaled == pytest.approx([2.0, 3.0 * 3 / 4])
    with pytest.raises(AssertionError):
        run.at_reference_speed([1.0], [[ref]])


def test_reference_prints_its_checksum():
    import reference

    assert reference.main() == reference.CHECKSUM


def test_workloads_match_benchmark_and_pins():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS.values():
        assert gate.load_pins(workload.pins)


def test_gate_trips_on_corrupted_warm_cache(tmp_path):
    """Adding the trivial character to layer 1 of m0n_{5,6,7}.json exits 0 but
    changes the table; the warm workload's gate must catch it."""
    workload = run.WORKLOADS["stable24_warm"]
    runner = run.Runner(tmp_path, time.perf_counter() + run.RUN_DEADLINE_S)
    cache = runner.fresh_dir("cache-")
    assert runner.cli(workload, 0, cache).reasons == []
    corrupt = runner.fresh_dir("corrupt-")
    shutil.copytree(cache, corrupt, dirs_exist_ok=True)
    for n in (5, 6, 7):
        path = corrupt / f"m0n_{n}.json"
        payload = json.loads(path.read_text())
        for layer in payload["layers"]:
            if layer["i"] == "1":
                for value in layer["values"]:
                    value["trace"] = str(int(value["trace"]) + 1)
        path.write_text(json.dumps(payload))
    reasons = runner.cli(workload, 0, corrupt).reasons
    assert len(reasons) == 1 and reasons[0].startswith("stable.json sha256")
