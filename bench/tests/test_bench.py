"""Tests of the benchmark itself, on windows small enough to run in seconds.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run as bench  # noqa: E402
from tracer import WRAPPED, Tracer, layer_metrics  # noqa: E402

SMALL = {
    "sphere": ["resolve", "--module", "sphere", "--max-stem", "10", "--max-filt", "6"],
    "wbp": ["resolve", "--module", "wbp", "--max-stem", "12", "--max-filt", "8"],
    "verify": ["verify", "--max-stem", "12", "--seed", "3"],
}


def run_child(tmp_path, args: list[str], traced: bool) -> tuple[dict, float, bytes]:
    """One child run; returns its record, its wall time and its output bytes."""
    tag = "traced" if traced else "plain"
    out = tmp_path / f"{args[0]}.{tag}.out"
    cmd = [sys.executable, child.__file__, *args, "--out", str(out)]
    if traced:
        cmd += ["--spans", str(tmp_path / "spans.json")]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    return rec, rec["done"] - t0, out.read_bytes()


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: run_child(tmp, args, True) for name, args in SMALL.items()}


def test_metric_names_match_benchmark_json(traced_runs):
    declared = bench.declared_metrics()
    sample = bench.Sample(False, True, 1.0, 1.0, 0.1, 1.0, 20.0, None)
    assert set(bench.end_to_end([sample])) == set(declared[0])
    assert "setup_s" in declared[0]
    for rec, wall, _ in traced_runs.values():
        names = set(layer_metrics(rec["layers"], wall)) | {"trace.wall_s", "trace.overhead_frac"}
        assert names == set(declared[1])
    with open(os.path.join(BENCH, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for name in [*declared[0], *declared[1]]:
        assert f"`{name}`" in readme, name


def test_self_times_within_traced_wall(traced_runs):
    for name, (rec, wall, _) in traced_runs.items():
        self_s = rec["layers"]["self_s"]
        assert 0 < sum(self_s.values()) <= wall, name
        assert all(v >= 0 for v in self_s.values()), name


def test_layers_seen_where_expected(traced_runs):
    sphere = traced_runs["sphere"][0]["layers"]
    wbp = traced_runs["wbp"][0]["layers"]
    verify = traced_runs["verify"][0]["layers"]
    assert sphere["counts"]["resolution.cells"] > 0
    assert "modules.quotient" not in sphere["self_s"]
    assert wbp["self_s"]["modules.quotient"] > 0
    assert sphere["counts"]["charts.bytes"] == len(traced_runs["sphere"][2])
    assert {f"verify.{s}" for s in ("hopf", "pst", "classical", "margolis", "kw", "wbp", "charts")} \
        <= set(verify["self_s"])
    assert verify["counts"]["milnor.antipode_monomial.built"] > 0


def test_output_identical_with_tracing_on_and_off(traced_runs, tmp_path):
    for name, args in SMALL.items():
        _, _, plain = run_child(tmp_path, args, False)
        assert plain == traced_runs[name][2], name


def test_tracer_restores_library():
    from wsteenrod import cli, gf2, milnor, modules, resolution, verify

    owners = [m for n, m in sorted(sys.modules.items()) if n.startswith("wsteenrod")]
    owners.append(verify.SUITES)
    for module, path, _ in WRAPPED:
        owner = path.rpartition(".")[0]
        if owner and owner != "SUITES":
            owners.append(getattr(sys.modules[f"wsteenrod.{module}"], owner))

    def snapshot() -> list[dict]:
        return [dict(o if isinstance(o, dict) else vars(o)) for o in owners]

    def same(a: list[dict], b: list[dict]) -> bool:
        return all(x.keys() == y.keys() and all(x[k] is y[k] for k in x) for x, y in zip(a, b))

    before = snapshot()
    original_kernel, original_rank = gf2.kernel, gf2.rank
    with Tracer() as tracer:
        assert not same(snapshot(), before)
        assert resolution.gf2_kernel is gf2.kernel is not original_kernel
        assert resolution.rank is gf2.rank is not original_rank
        assert verify.coproduct_monomial is milnor.coproduct_monomial
        resolution.minimal_resolution(modules.TrivialModule(milnor.MilnorAlgebra(8)), 6, 3)
    assert same(snapshot(), before)
    assert tracer.totals()["counts"]["resolution.cells"] > 0
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert same(snapshot(), before)


def test_cold_guard_rejects_filled_caches():
    from wsteenrod import milnor

    milnor.bidegree_basis(milnor.BiDegree(3, 1))
    with pytest.raises(RuntimeError, match="not a cold run"):
        child.assert_cold(milnor)


def test_samples_fail_on_wrong_output(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "OUT", str(tmp_path))
    monkeypatch.setitem(bench.WORKLOADS, "sphere-32", SMALL["sphere"])
    wrong = bench.launch("sphere-32", 1, False, time.monotonic() + 120)
    assert not wrong.ok  # the small window's chart is not the sphere-32 reference
    sha = hashlib.sha256((tmp_path / "sphere-32.plain.out").read_bytes()).hexdigest()
    monkeypatch.setitem(bench.REFERENCE_SHA256, "sphere-32", sha)
    right = bench.launch("sphere-32", 1, False, time.monotonic() + 120)
    assert right.ok and 0 < right.setup_s < right.wall_s
    monkeypatch.setitem(bench.WORKLOADS, "sphere-32", ["resolve", "--module", "nope",
                                                       "--max-stem", "4", "--max-filt", "2"])
    broken = bench.launch("sphere-32", 1, False, time.monotonic() + 120)
    assert not broken.ok and broken.wall_s is None
