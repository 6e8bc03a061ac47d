"""Self-tests of the benchmark, at toy sizes.

    python3 -m pytest perfbench -q

They sit outside the repository's test paths, so the package's own test
suite does not collect them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import host
import metrics
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    gradient = tr.wrap(lambda: clock.advance(2.0), "sim.Stepper.gradient")

    def conserved_body():
        clock.advance(1.0)
        gradient()
        clock.advance(0.5)

    conserved = tr.wrap(conserved_body, "sim.conserved")
    sample = tr.wrap(lambda: clock.advance(0.25), "modfit.FieldSampler.__call__")

    def decompose_body():
        for _ in range(4):
            sample()
        clock.advance(3.0)

    decompose = tr.wrap(decompose_body, "modfit.decompose")

    def run_body():
        conserved()
        gradient()
        clock.advance(10.0)

    run = tr.wrap(run_body, "sim.run")
    run()
    decompose()
    decompose()

    by_name = {}
    for (name, start, end, _), own in zip(tr.spans, tracing.self_times(tr.spans)):
        by_name.setdefault(name, []).append((end - start, own))
    assert by_name["sim.conserved"] == [(3.5, 1.5)]
    assert by_name["sim.Stepper.gradient"] == [(2.0, 2.0), (2.0, 2.0)]
    assert by_name["sim.run"] == [(15.5, 10.0)]
    assert by_name["modfit.decompose"] == [(4.0, 3.0), (4.0, 3.0)]

    st = metrics.SpanStats(tr.spans)
    assert st.self_total("sim.conserved", "sim.Stepper.gradient") == 5.5
    assert metrics._record_s(st) == 5.5          # conserved + the extra gradient
    assert st.calls("sim.Stepper.gradient", under=("sim.run",)) == 2
    assert st.calls("modfit.FieldSampler.__call__", under=("modfit.decompose",)) == 8
    assert metrics._median(st.inclusive("modfit.decompose")) == 4.0


def test_instrument_nests_real_calls():
    """conserved contains gradient, which contains the wrapped scipy FFTs."""
    code = textwrap.dedent("""
        import json, time
        import numpy as np
        import tracing
        from nlsblow import sim
        tr = tracing.Tracer(time.monotonic)
        tracing.instrument(tr, [p for p in tracing.TRACE_POINTS
                                if p[0] in ("nlsblow.sim", "scipy.fft")])
        f = sim.ComplexField2D(1.0, np.ones((8, 8)) + 0j)
        sim.conserved(f, np.ones((8, 8)))
        print(json.dumps(tr.spans))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    spans = json.loads(out.stdout.splitlines()[-1])
    names = [s[0] for s in spans]
    assert names[:2] == ["sim.conserved", "sim.Stepper.gradient"]
    assert names.count("fft.fft2") == 1 and names.count("fft.ifft2") == 2
    assert [s[3] for s in spans] == [-1, 0, 1, 1, 1]
    own = tracing.self_times(spans)
    assert all(x >= 0 for x in own)


def _fake_iteration():
    return {"wall_s": 2.0, "setup_s": 1.0, "command_s": {"simulate": 2.0},
            "host_kernel_s": 0.4, "scale": 1.25,
            "figures": {}, "gates": [], "attempted": 1, "failed": 0, "spans": []}


def test_benchmark_json_matches_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}

    e2e = metrics.end_to_end([_fake_iteration()], 100.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    assert all(v["value"] != 0 for v in e2e.values())

    layers = metrics.per_layer(_fake_iteration(), _fake_iteration())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v["unit"] for k, v in layers.items()}
    assert {m["name"]: m["better"] for m in bench["per_layer"]} == \
        {name: better for name, _, better, _ in metrics.PER_LAYER}


def test_end_to_end_times_are_scaled_to_reference_host_speed():
    slow = dict(_fake_iteration(), wall_s=4.0, setup_s=2.0, scale=0.5)
    e2e = metrics.end_to_end([_fake_iteration(), slow, _fake_iteration()], 100.0)
    assert e2e["wall_s"]["value"] == 2.5 and e2e["setup_s"]["value"] == 1.25
    layers = metrics.per_layer(_fake_iteration(), slow)
    assert layers["cli.wall_unscaled_s"]["value"] == 4.0
    assert layers["host.kernel_s"]["value"] == 0.4
    assert layers["trace.overhead_s"]["value"] == 2.0 * 1.25 - 4.0 * 0.5


def test_host_kernel_time_is_the_mean_over_the_window():
    sampler = host.HostSampler()
    sampler.samples = [(0.0, 0.04), (1.0, 0.06), (2.0, 0.08), (5.0, 0.22)]
    assert sampler.kernel_s(0.5, 2.5) == pytest.approx(0.07)
    assert sampler.kernel_s(3.0, 4.0) == pytest.approx(0.1)      # no sample inside
    sampler.start()
    sampler.stop()
    assert len(sampler.samples) == 5 and 0 < sampler.samples[-1][1] < 5


def test_failing_gate_is_counted(tmp_path):
    out = tmp_path / "verify"
    out.mkdir()
    (out / "verify.json").write_text(json.dumps(
        {"residuals": {"kernel": 3e-7}, "threshold": 1e-7, "pass": False}))
    figures, gates, attempted, failed = workloads.check_command("verify", out, {}, 1)
    assert (attempted, failed) == (1, 1)
    assert figures["cli.verify_max_residual"] == 3e-7
    assert [ok for _, ok in gates] == [False, False]

    plain = _fake_iteration()
    traced = dict(_fake_iteration(), attempted=attempted, failed=failed)
    assert metrics.per_layer(traced, plain)["cli.failed_ratio"]["value"] == 0.5


def test_skipped_snapshots_are_failed_operations(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "analyze.json").write_text(json.dumps(
        {"snapshots_total": 4, "snapshots_fit": 3, "fit_error": "too few snapshots"}))
    (out / "params.csv").write_text("t,eps_L2\n-0.3,1e-3\n")
    _, _, attempted, failed = workloads.check_command("analyze", out, {}, 0)
    assert (attempted, failed) == (5, 2)        # the command and one snapshot


def test_seeded_draw_is_reproducible_and_admissible():
    from nlsblow.config import parse_config

    for seed in range(20):
        text = workloads.config_text(workloads.WORKLOADS["theory"], seed)
        assert text == workloads.config_text(workloads.WORKLOADS["theory"], seed)
        model = parse_config(text).model()
        assert model.validate() == []
    assert workloads.config_text(workloads.WORKLOADS["theory"], 1) != \
        workloads.config_text(workloads.WORKLOADS["theory"], 2)


def test_refuses_to_run_without_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theory",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
