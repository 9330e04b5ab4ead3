"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that
1. the oracles agree with each other (closed forms against the exact chain
   solve, the LP optimum against scheduler enumeration) and with stormlet's
   exact mode on tiny chains, where stormlet is known to be right;
2. every job of every workload passes at tiny size, except that a job with
   a known defect may miss its precision by up to its ceiling, and no more;
3. span self times add up to the traced wall time of a pass;
4. the worker's peak RSS is its own, not that of the process that started it;
5. the benchmark command, run as BENCHMARK.json gives it, prints exactly
   the metric names BENCHMARK.json lists (end-to-end with ``--trace 0``,
   per-layer with ``--trace 1``).
Prints one line per check and exits non-zero if any fails.
"""

import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import families as fam  # noqa: E402
import oracles as orc  # noqa: E402
import run as bench  # noqa: E402
import spans as sp  # noqa: E402
import workloads  # noqa: E402
from worker import peak_rss_kb, run_job, run_pass  # noqa: E402

FAILURES = []


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    if not ok:
        FAILURES.append(name)


def check_oracles():
    import random

    ok = all(
        orc.ruin_top(n, p, i) == orc.solve_chain(fam.ruin_chain(n, p, i), [0] * (n + 1))[i]
        and orc.ruin_duration(n, p, i)
        == orc.solve_chain(fam.ruin_chain(n, p, i), [0] * (n + 1), 1, (0, n))[i]
        for n, p in ((9, Fraction(431, 1000)), (8, Fraction(1, 2)))
        for i in range(1, n)
    )
    report("closed forms equal the exact chain solve", ok)

    ok = True
    for chain in (fam.ruin_chain(7, workloads.MDP_P, 3, 2, workloads.MDP_SPREAD), fam.tiny_mdp(6, 2)):
        for maximize, reward in ((True, None), (False, None), (False, 1)):
            lp = orc.mdp_optimum_lp(chain, maximize, reward)[chain.init]
            ok &= lp == orc.mdp_optimum_enumerated(chain, maximize, reward)
    report("LP optimum equals scheduler enumeration", ok)

    chain = fam.reflecting_chain(random.Random(0), 12, 2)
    worst = min(orc.solve_chain(chain, [c] * 13)[chain.init] for c in (0, 1))
    report("reflecting chains reach the top surely", worst == orc.reflect_reach(chain) == 1)

    from stormlet.checkers import check
    from stormlet.prism import ExploreOptions, explore, parse_program, typecheck
    from stormlet.props import parse_property, resolve_atoms
    from stormlet.solvers import SolverEnvironment

    env = SolverEnvironment(linear_method="exact", minmax_method="policy_iteration", exact=True)
    chain = fam.ruin_chain(9, workloads.MDP_P, 4, 2, workloads.MDP_SPREAD)
    model, smap = explore(typecheck(parse_program(fam.chain_prism(chain, "mdp"))), ExploreOptions(exact=True))
    got = check(model, resolve_atoms(parse_property('Pmax=? [ F "top" ]'), model, smap), env).values[0]
    report("stormlet exact mode equals the LP oracle", got == orc.mdp_optimum_lp(chain, True)[chain.init])

    t = fam.tandem(random.Random(0), 2)
    model, smap = explore(typecheck(parse_program(fam.tandem_prism(t))), ExploreOptions())
    fine = SolverEnvironment(precision=1e-10)
    ok = True
    for label, (_, predicate) in fam.TANDEM_LABELS.items():
        prop = resolve_atoms(parse_property(f'P=? [ F<=1/2 "{label}" ]'), model, smap)
        ref = orc.tandem_bounded_reach(t, predicate, Fraction(1, 2))
        ok &= abs(check(model, prop, fine).values[0] - ref) <= 1e-9 * ref
    report("tandem expm_multiply agrees with tight uniformisation", ok)


def check_jobs(work):
    from stormlet import cli

    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, 7, work / name, "tiny")
        problems = []
        for job in jobs:
            why, precision_miss, err = bench.check_result(job, run_job(cli.main, job.argv))
            if why and not job.excused(precision_miss, err):
                problems.append(f"{job.name}: {why}")
        report(f"{name} jobs pass at tiny size", not problems, "; ".join(problems))

    walk = next(j for j in workloads.build("solve_iter", 7, work / "ceiling", "tiny") if j.name == "slow_walk")
    ref = float(walk.refs[0][1])

    def excused(rel_err):
        line = json.dumps({"property": "P", "values": {"0": ref * (1 + rel_err)}})
        why, precision_miss, err = bench.check_result(walk, {"code": 0, "stdout": line})
        return why is not None and walk.excused(precision_miss, err)

    ok = excused(walk.defect_ceiling / 2) and not excused(walk.defect_ceiling * 2) and not excused(0.5)
    report("a known defect excuses misses up to its ceiling only", ok)


def check_peak_rss(work):
    """Start the worker from a process whose peak is far above the worker's:
    the worker must report its own peak, not inherit this one."""
    jobs = workloads.build("qual_explicit", 3, work / "rss", "tiny")
    jobs_path, out_path = work / "rss" / "jobs.json", work / "rss" / "worker.json"
    jobs_path.write_text(json.dumps([{"name": j.name, "argv": j.argv} for j in jobs]), encoding="utf-8")
    ballast = b"\x01" * (256 << 20)
    del ballast
    parent = peak_rss_kb()
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(jobs_path), "0", "0", str(out_path)],
                   cwd=ROOT, env=bench._env(ROOT), check=True, timeout=300)
    child = json.loads(out_path.read_text(encoding="utf-8"))["peak_rss_kb"]
    report("the worker reports its own peak RSS", child < parent / 2,
           f"worker {child / 1024:.1f} MB, parent {parent / 1024:.1f} MB")


def check_spans(work):
    from stormlet import cli

    jobs = [{"argv": j.argv} for w in workloads.WORKLOADS
            for j in workloads.build(w, 3, work / f"spans-{w}", "tiny")]
    tracer = sp.Tracer()
    tracer.install()
    try:
        wall, _ = run_pass(jobs, cli.main, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    total = sum(sp.self_times(spans))
    layers = sp.layer_metrics(spans)
    by_layer = sum(layers[m] for m in sp.SELF_METRICS)
    ok = abs(wall - total) <= 0.01 * wall and abs(by_layer - total) <= 1e-9 * wall
    report("span self times add up to the traced wall time", ok,
           f"wall {wall:.4f} s, self times {total:.4f} s over {len(spans)} spans")
    restored = cli.explore.__name__ == "explore" and not hasattr(cli.explore, "__wrapped__")
    report("uninstall restores the traced functions", restored)


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                report(f"{workload} --trace {trace} runs", False, proc.stderr[-500:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            names = set(result["metrics"])
            ok = names == wanted[trace] and result["correct"] and set(result) == {
                "correct", "attempted", "failed", "metrics"}
            report(f"{workload} --trace {trace} prints the metrics of BENCHMARK.json", ok,
                   f"extra {sorted(names - wanted[trace])}, missing {sorted(wanted[trace] - names)}"
                   if names != wanted[trace] else "")


def main():
    check_oracles()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        check_jobs(Path(tmp))
        check_spans(Path(tmp))
        check_peak_rss(Path(tmp))
    check_metric_names()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
