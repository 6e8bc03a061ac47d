"""Benchmark of the nlsblow CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload {collapse-n1024,fit-n512,theory} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it runs the package under src/.
Every CLI command runs cold in its own process, as a user runs it, with the
k-model drawn from the seed (workloads.py) passed through --config.

--trace 0 repeats the workload's commands for about S seconds and reports
the end-to-end metrics as medians over those iterations, each scaled to a
reference host speed by a fixed kernel timed while it ran (host.py).
--trace 1 runs the workload once untraced and once traced, and reports the
per-layer metrics and the tracing overhead (traced minus untraced wall time).

Each command's outputs pass through the workload's correctness gates.  The
last line of standard output is the JSON result; work files go under
.perfbench_work/ in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

import host
import metrics
import workloads

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 170.0        # every run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, child_env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: child_env.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(root),
    }


class Runner:
    """Runs a workload's commands as child processes inside one work directory."""

    def __init__(self, root: Path, work: Path, workload, cfg_path: Path, cfg: dict,
                 env: dict, deadline: float):
        self.root, self.work, self.workload = root, work, workload
        self.cfg_path, self.cfg, self.env, self.deadline = cfg_path, cfg, env, deadline
        self.count = 0

    def command(self, command: str, out: Path, mode: str) -> dict:
        self.count += 1
        tag = f"{self.count:03d}-{command}-{mode}"
        report_path = self.work / f"{tag}.report.json"
        argv = [sys.executable, str(HERE / "child.py"), mode, str(report_path), command,
                "--config", str(self.cfg_path), "--out", str(out)]
        t0 = time.monotonic()
        with open(self.work / f"{tag}.log", "w") as log:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                rc = proc.wait()
            finally:
                timer.cancel()
        wall = time.monotonic() - t0
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        return {
            "rc": rc,
            "wall_s": wall,
            "setup_s": report["t_setup"] - t0 if report else wall,
            "spans": report["spans"] if report else [],
        }

    def iteration(self, mode: str) -> dict:
        it = {"wall_s": 0.0, "setup_s": 0.0, "command_s": {}, "figures": {}, "gates": [],
              "attempted": 0, "failed": 0, "spans": []}
        outs = set()
        for command, out_name in self.workload.commands:
            out = self.work / out_name
            outs.add(out)
            res = self.command(command, out, mode)
            figures, gates, attempted, failed = workloads.check_command(
                command, out, self.cfg, res["rc"])
            base = len(it["spans"])
            it["spans"] += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in res["spans"]]
            it["wall_s"] += res["wall_s"]
            it["setup_s"] += res["setup_s"]
            it["command_s"][command] = res["wall_s"]
            it["figures"].update(figures)
            it["gates"] += gates
            it["attempted"] += attempted
            it["failed"] += failed
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        return it


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "nlsblow" / "cli.py").is_file():
        print(f"perfbench: no nlsblow source tree (src/nlsblow) under {root}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    text = workloads.config_text(workload, args.seed)
    cfg_path = work / "config.yaml"
    cfg_path.write_text(text)
    cfg = yaml.safe_load(text)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    # One BLAS/OpenMP thread: the load is a single-threaded process, and on a
    # 2-core host an idle-spinning second BLAS thread only added time and noise.
    env.update(dict.fromkeys(THREAD_VARS, "1"))

    t_run = time.monotonic()
    runner = Runner(root, work, workload, cfg_path, cfg, env, t_run + RUN_BUDGET_S)
    sampler = host.HostSampler()

    def sampled_iteration(mode="plain"):
        t0 = time.monotonic()
        it = runner.iteration(mode)
        it["host_kernel_s"] = sampler.kernel_s(t0, time.monotonic())
        it["scale"] = host.REFERENCE_S / it["host_kernel_s"]
        return it

    sampler.start()
    try:
        if args.trace:
            plain = sampled_iteration()
            traced = sampled_iteration("trace")
            iterations = [plain, traced]
            result_metrics = metrics.per_layer(traced, plain)
        else:
            iterations = []
            while True:
                iterations.append(sampled_iteration())
                elapsed = time.monotonic() - t_run
                next_end = elapsed * (len(iterations) + 1) / len(iterations)
                if next_end > min(args.seconds, RUN_BUDGET_S):
                    break
            peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            result_metrics = metrics.end_to_end(iterations, peak_mb)
    finally:
        sampler.stop()

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "config_sha256": workloads.config_hash(text),
        "config": cfg,
        "environment": environment(root, env),
        "iterations": len(iterations),
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "iteration_setup_s": [it["setup_s"] for it in iterations],
        "iteration_host_kernel_s": [it["host_kernel_s"] for it in iterations],
        "host_reference_s": host.REFERENCE_S,
        "figures": iterations[-1]["figures"],
        "failed_gates": sorted({desc for it in iterations for desc, ok in it["gates"] if not ok}),
    }
    (work / "result.json").write_text(json.dumps(
        dict(record, metrics=result_metrics, host_samples=sampler.samples),
        indent=2, sort_keys=True))
    for desc, ok in iterations[-1]["gates"]:
        print(f"{'PASS' if ok else 'FAIL'}  {desc}")
    for name, m in result_metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
