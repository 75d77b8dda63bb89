"""The parapose benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload {special_cli,generic,sweep} \\
        --seed N --seconds S --trace {0,1}

Run from a source checkout; ``parapose`` is imported from ``src/``.  One
client solves one problem at a time: the next solve starts when the
previous one has finished.  The loop runs for at least ``--seconds`` and
at least MIN_PROBLEMS problems, so ten samples lie beyond the p90.  Every
output is checked (see verify.py) after the timed loop.

Around each untraced solve the loop also times a fixed computation on
``fractions.Fraction`` that does not use parapose (``reference_ms``).
On a shared host a core's speed can drift by up to two times from
minute to minute as other tenants load it, and this reference drifts
with it; the ``solve_ref_*`` metrics divide each solve time by the
reference timed around it, so they keep the program's cost and drop the
host's speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` solves each
problem untraced and then traced and prints the per-layer metrics, taken
from spans recorded around calls into parapose (spans.py).  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Corpus properties, per-problem outcomes and spans go to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
sys.path.insert(1, str(ROOT / "src"))

try:
    import parapose.cli
    from parapose import is_groebner_basis, solve_posture

    import corpus
    import micro
    import spans
    import verify
except (ImportError, OSError) as exc:
    sys.exit(f"error: cannot load parapose or its reference data: {exc}")

MIN_PROBLEMS = 100
TRACED_MIN_PROBLEMS = 20  # each solved untraced and traced
SETUP_PROBES = 18  # spread evenly over the busy time of the timed loop
PROBE_REPEATS = 5
DETERMINISM_RESOLVES = 2
COUNTER_PREFIX = 32  # problems whose counters are digested
CHILD_TIMEOUT_S = 60
# reference computation: Fraction arithmetic on numbers of about the
# height of the generic bases (~130 bits), about 1 ms on a quiet core
REF_STEPS = 150
REF_A = Fraction(3**60 + 1, 7**30)
REF_B = Fraction(5**50, 11**25 + 3)
REF_C = Fraction(1, 3)
REF_MASK = (1 << 130) - 1

CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
)
SETUP_CODE = (
    "import sys\n"
    "from parapose import solve_posture\n"
    "from parapose.cli import parse_problem\n"
    "solve_posture(parse_problem(sys.argv[1]))\n"
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import parapose\n"
    "print(time.perf_counter() - t)\n"
)


def run_child(argv, *, capture=False) -> str:
    """Run one child to completion; raise if it fails or hangs."""
    proc = subprocess.run(
        [sys.executable, *map(str, argv)],
        env=CHILD_ENV,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc.stdout


def timed_child(argv) -> float:
    t0 = perf_counter()
    run_child(argv)
    return perf_counter() - t0


def reference_ms() -> float:
    """Time of a fixed Fraction computation: the host's speed right now."""
    t0 = perf_counter()
    a = REF_A
    for _ in range(REF_STEPS):
        a = a * REF_B + REF_C
        a = Fraction(a.numerator & REF_MASK, (a.denominator & REF_MASK) + 1)
    return (perf_counter() - t0) * 1e3


def write_problem(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def tracing(tracer, on: bool):
    """The tracer's wrappers in place while on, else nothing."""
    return tracer.installed() if on else nullcontext()


# -- solvers -------------------------------------------------------------------
#
# A solver turns a corpus entry into a job, solves it (traced under solve
# id ``sid``, or untraced when sid is None), reads back the outcome and
# discards what the solve left behind.

class LibrarySolver:
    """``solve_posture`` in this warm process."""

    name = "library"

    def __init__(self, work: Path, tracer):
        self.work = work
        self.tracer = tracer

    def prepare(self, name, doc):
        return name, doc, corpus.to_problem(doc)

    def solve(self, job, sid=None):
        if sid is None:
            return solve_posture(job[2])
        with self.tracer.span(spans.SOLVE_SPAN, solve_id=sid):
            return solve_posture(job[2])

    def after_traced(self, job, report, sid):
        """Run the CLI's other layers on a traced result, as solve sid."""
        name, doc, problem = job
        path = write_problem(self.work / name / "problem.json", doc)
        with self.tracer.span("bench.post", solve_id=sid):
            parapose.cli.parse_problem(path)
            report_doc = parapose.cli.report_to_json(report, emit_basis=True)
            physical = [t for t in report.solutions if t.physical]
            svgs = [
                parapose.cli.render_posture(problem, t, p, title=f"posture {k}")
                for k, (t, p) in enumerate(zip(physical, report.postures), start=1)
            ]
        return {
            "report_bytes": len(json.dumps(report_doc, indent=2)) + 1,
            "svg_bytes": [len(svg) for svg in svgs],
        }

    def outcome(self, job, report):
        return verify.from_report(report), list(report.basis.elements), None

    def discard(self, job):
        shutil.rmtree(self.work / job[0], ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliSolver:
    """One ``python -m parapose solve`` subprocess per problem."""

    name = "cli"

    def __init__(self, work: Path, tracer):
        self.work = work
        self.tracer = tracer
        self.runs = 0

    def prepare(self, name, doc):
        self.runs += 1
        run_dir = self.work / f"{self.runs:05d}-{name}"
        write_problem(run_dir / "problem.json", doc)
        return name, doc, run_dir

    def solve(self, job, sid=None):
        run_dir = job[2]
        cli_args = [
            "solve",
            "--input", run_dir / "problem.json",
            "--output", run_dir / "report.json",
            "--svg-dir", run_dir / "svg",
            "--emit-basis",
        ]
        if sid is None:
            run_child(["-m", "parapose", *cli_args])
        else:
            run_child([BENCH / "traced_cli.py", run_dir / "spans.jsonl", *cli_args])
        return run_dir

    def after_traced(self, job, run_dir, sid):
        """Take over the child's spans, as solve sid."""
        self.tracer.absorb(spans.read(run_dir / "spans.jsonl"), sid)
        return {
            "report_bytes": (run_dir / "report.json").stat().st_size,
            "svg_bytes": [p.stat().st_size for p in sorted((run_dir / "svg").glob("*.svg"))],
        }

    def outcome(self, job, run_dir):
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        out = verify.from_json(report)
        if report["problem"] != job[1]:
            error = "report echoes a different problem"
        else:
            error = verify.check_svgs(run_dir / "svg", out.physical_count)
        return out, verify.basis_from_json(report), error

    def discard(self, job):
        shutil.rmtree(job[2], ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- the closed loop and its checks ----------------------------------------------

def closed_loop(solver, problems, seconds, min_problems, tracer, references, between=None):
    """Solve problems one after another until time and count are reached.

    With a tracer, each problem is solved twice, untraced and then
    traced, so the pair gives the tracing overhead; the tracer's wrappers
    are in place only for the traced solve and its ``after_traced``.  Each
    output is checked right after its solve, outside the timed interval,
    and then dropped, so memory does not grow with the number of solves.
    An untraced solve is bracketed by two ``reference_ms`` runs, outside
    the timed interval; their mean is the sample's ``ref_ms``.
    ``between(busy)``, if given, runs before each problem, untimed.
    Returns the samples and the seconds spent preparing and solving; a
    sample holds the job, its solve id, whether it was traced, the solve
    time and the outcome or the failure.
    """
    samples = []
    busy = 0.0
    for k, (name, doc) in enumerate(problems):
        if between is not None:
            between(busy)
        for mode in (False, True) if tracer else (False,):
            t_prep = perf_counter()
            job = solver.prepare(name, doc)
            prep = perf_counter() - t_prep
            sample = {"job": job, "sid": len(samples), "traced": mode, "error": None}
            ref_before = None if mode else reference_ms()
            with tracing(tracer, mode):
                t0 = perf_counter()
                try:
                    result = solver.solve(job, sample["sid"] if mode else None)
                except Exception:  # a failed solve is counted, and the loop goes on
                    sample["error"] = traceback.format_exc(limit=3)
                t1 = perf_counter()
                if mode and sample["error"] is None:
                    try:
                        sample["post"] = solver.after_traced(job, result, sample["sid"])
                    except Exception:
                        sample["error"] = traceback.format_exc(limit=3)
            sample["seconds"] = t1 - t0
            if not mode:
                sample["ref_ms"] = (ref_before + reference_ms()) / 2
            busy += prep + sample["seconds"]
            if sample["error"] is None:
                check_sample(solver, sample, result, references.get(name))
            solver.discard(job)
            samples.append(sample)
        if busy >= seconds and k + 1 >= min_problems:
            break
    return samples, busy


def check_sample(solver, sample, result, reference):
    """Record the outcome of one solve, its basis height and any failure."""
    name, doc, _ = sample["job"]
    try:
        out, basis, error = solver.outcome(sample["job"], result)
        sample["error"] = error or verify.check(name, doc, out, basis, reference)
        sample["outcome"] = out
        sample["bits"] = verify.coeff_bits(basis)
    except Exception:  # malformed output is a failed solve
        sample["error"] = traceback.format_exc(limit=3)


def check_determinism(solver, samples, tracer):
    """Solve the first problems again and demand identical outcomes.

    When traced, the first traced problem is solved traced again, and its
    span call counts and operator counts must repeat too.  Returns None,
    or what differed.
    """
    picked = [s for s in samples if not s["traced"]][:DETERMINISM_RESOLVES]
    picked += [s for s in samples if s["traced"]][:1]
    for k, s in enumerate(picked):
        name, doc, _ = s["job"]
        if s["error"] is not None:
            return f"{name}: cannot re-check a failed solve"
        job = solver.prepare(name + "-again", doc)
        sid = -1 - k if s["traced"] else None
        with tracing(tracer, s["traced"]):
            again = solver.solve(job, sid)
            if s["traced"]:
                solver.after_traced(job, again, sid)
        out, basis, _ = solver.outcome(job, again)
        solver.discard(job)
        if out != s["outcome"]:
            return f"{name}: outcome differs on a second solve"
        if not is_groebner_basis(basis):
            return f"{name}: is_groebner_basis rejects the basis"
        if s["traced"]:
            by_sid = spans.per_solve(tracer.spans)
            if spans.counters(by_sid[s["sid"]]) != spans.counters(by_sid[sid]):
                return f"{name}: traced call counts differ on a second solve"
    return None


# -- metrics -------------------------------------------------------------------

def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def median_metric(values, unit):
    values = list(values)
    return metric(statistics.median(values) if values else 0.0, unit, len(values))


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(samples, busy, setup, peak_rss):
    times = [s["seconds"] * 1e3 for s in samples]
    refs = [s["ref_ms"] for s in samples]
    scaled = [t / r for t, r in zip(times, refs)]
    failed = sum(1 for s in samples if s["error"] is not None)
    n = len(samples)
    return {
        "solve_ref_p50": metric(statistics.median(scaled), "ratio", n),
        "solve_ref_p90": metric(p90(scaled), "ratio", n),
        "reference_ms": metric(statistics.median(refs), "ms", n),
        "solve_ms_p50": metric(statistics.median(times), "ms", n),
        "solve_ms_p90": metric(p90(times), "ms", n),
        "solves_per_s": metric((n - failed) / busy, "1/s", n),
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "fail_rate": metric(failed / n, "ratio", n),
        "peak_rss_mb": metric(peak_rss, "MB", 1),
    }


def setup_prober(problem_file: Path, seconds: float, times: list):
    """Time fresh interpreters that import parapose and solve the warm-up problem.

    The returned function, called with the loop's busy seconds so far,
    runs the probes that are due, SETUP_PROBES of them spread evenly over
    ``seconds``; so the probes meet the host in the same states as the
    solves, and one slow spell does not set the median.  Called with
    infinity, it runs those that are left.
    """
    def probe(busy):
        while len(times) < SETUP_PROBES and busy >= len(times) * seconds / SETUP_PROBES:
            times.append(timed_child(["-c", SETUP_CODE, problem_file]))

    return probe


def per_layer(traced, samples, probes, micro_figures):
    """Medians over traced solves of per-solve values, unless pooled."""
    def med(fn, unit="ms"):
        return median_metric((fn(s) for s in traced), unit)

    def span_ms(name):
        return med(lambda s: s["agg"]["ms"][name])

    def span_calls(name):
        return med(lambda s: s["agg"]["calls"][name], "count")

    def layer_self(layer):
        return med(lambda s: s["agg"]["layer_self_ms"][layer])

    def diag(key):
        return med(lambda s: s["outcome"].diagnostics[key], "count")

    pairs = [
        (u, t) for u, t in zip(samples[::2], samples[1::2])
        if u["error"] is None and t["error"] is None
    ]
    outcomes = [s["outcome"] for s in traced]
    rendered = [s for s in traced if s["agg"]["calls"]["svgdraw.render_posture"]]
    back = ("kinematics.back_substitute", "kinematics.filter_physical",
            "kinematics.residual_max", "kinematics.to_angles")
    reduced = sum(o.diagnostics["pairs_reduced"] for o in outcomes)
    zero = sum(o.diagnostics["zero_reductions"] for o in outcomes)
    m = {
        "gaussrat.mul_calls": med(lambda s: s["agg"]["mul"], "count"),
        "gaussrat.add_calls": med(lambda s: s["agg"]["add"], "count"),
        "gaussrat.div_calls": med(lambda s: s["agg"]["div"], "count"),
        "gaussrat.self_ms": layer_self("gaussrat"),
        "multipoly.normal_form_calls": span_calls("multipoly.normal_form"),
        "multipoly.normal_form_ms": span_ms("multipoly.normal_form"),
        "multipoly.s_polynomial_calls": span_calls("multipoly.s_polynomial"),
        "multipoly.s_polynomial_ms": span_ms("multipoly.s_polynomial"),
        "multipoly.self_ms": layer_self("multipoly"),
        "multipoly.basis_coeff_bits_max": med(lambda s: s["bits"], "bits"),
        "groebner.buchberger_ms": span_ms("groebner.buchberger"),
        "groebner.self_ms": layer_self("groebner"),
        "groebner.share": med(
            lambda s: s["agg"]["ms"]["groebner.buchberger"] / s["agg"]["solve_ms"], "ratio"),
        "groebner.pairs_considered": diag("pairs_considered"),
        "groebner.pairs_reduced": diag("pairs_reduced"),
        "groebner.zero_reductions": diag("zero_reductions"),
        "groebner.nonzero_ratio": metric((reduced - zero) / max(reduced, 1), "ratio", len(traced)),
        "inversive.self_reciprocal_ms": span_ms("inversive.self_reciprocal"),
        "rootfind.find_roots_ms": span_ms("rootfind.find_roots"),
        "rootfind.iterations": diag("root_iterations"),
        "rootfind.residual_rel_max": med(lambda s: verify.root_residual_rel(s["outcome"]), "ratio"),
        "kinematics.build_ideal_ms": span_ms("kinematics.build_ideal"),
        "kinematics.back_substitute_ms": med(lambda s: sum(s["agg"]["ms"][k] for k in back)),
        "kinematics.physical_share": metric(
            sum(o.physical_count for o in outcomes) / max(sum(o.solutions for o in outcomes), 1),
            "ratio", len(traced)),
        "kinematics.solve_posture_ms": med(lambda s: s["agg"]["solve_ms"]),
        "svgdraw.render_ms": median_metric(
            (s["agg"]["ms"]["svgdraw.render_posture"] / s["agg"]["calls"]["svgdraw.render_posture"]
             for s in rendered), "ms"),
        "svgdraw.svg_bytes": median_metric(
            (b for s in traced for b in s["post"]["svg_bytes"]), "bytes"),
        "cli.interp_start_ms": median_metric(probes["interp_ms"], "ms"),
        "cli.import_ms": median_metric(probes["import_ms"], "ms"),
        "cli.parse_problem_ms": span_ms("cli.parse_problem"),
        "cli.report_to_json_ms": span_ms("cli.report_to_json"),
        "cli.report_bytes": med(lambda s: s["post"]["report_bytes"], "bytes"),
        "trace.untraced_solve_ms": median_metric((s["seconds"] * 1e3 for s in samples[::2]), "ms"),
        "trace.traced_solve_ms": median_metric((s["seconds"] * 1e3 for s in samples[1::2]), "ms"),
        "trace.overhead_ms": median_metric(
            ((t["seconds"] - u["seconds"]) * 1e3 for u, t in pairs), "ms"),
    }
    for name, value in micro_figures.items():
        m[name] = metric(value, name.rsplit("_", 1)[1], micro.REPEATS)
    return dict(sorted(m.items()))


def self_time_table(traced) -> dict:
    """Median per-solve self time of each layer, their sum and the solve time."""
    aggs = [s["agg"] for s in traced]
    layers = sorted({k for a in aggs for k in a["layer_self_ms"]})
    table = {k: statistics.median(a["layer_self_ms"][k] for a in aggs) for k in layers}
    table["sum_of_layers"] = statistics.median(sum(a["layer_self_ms"].values()) for a in aggs)
    table["solve_posture"] = statistics.median(a["solve_ms"] for a in aggs)
    return table


def traced_metrics(tracer, samples, warm_problem, warm_report):
    by_sid = spans.per_solve(tracer.spans)
    traced = [s for s in samples if s["traced"] and s["error"] is None]
    for s in traced:
        s["agg"] = by_sid[s["sid"]]
    probes = {
        "interp_ms": [timed_child(["-c", "pass"]) * 1e3 for _ in range(PROBE_REPEATS)],
        "import_ms": [
            float(run_child(["-c", IMPORT_CODE], capture=True)) * 1e3
            for _ in range(PROBE_REPEATS)
        ],
    }
    figures = micro.run(warm_problem, warm_report.basis)
    return per_layer(traced, samples, probes, figures), self_time_table(traced)


def corpus_properties(samples) -> dict:
    """Properties of the problems solved without failure."""
    ok = [s for s in samples if s["error"] is None]
    if not ok:
        return {"problems": 0}
    outcomes = [s["outcome"] for s in ok]

    def residual(s, physical):
        out = s["outcome"]
        return max((r for r, p in zip(verify.residuals(s["job"][1], out.coords), out.physical)
                    if p == physical), default=0.0)

    def histogram(values):
        return {str(k): v for k, v in sorted(Counter(values).items())}

    return {
        "problems": len(ok),
        "physical_share": sum(o.physical_count > 0 for o in outcomes) / len(ok),
        "physical_count": histogram(o.physical_count for o in outcomes),
        "eliminant_degree": histogram(len(o.eliminant) - 1 for o in outcomes),
        "coeff_bits_median": statistics.median(s["bits"] for s in ok),
        "coeff_bits_max": max(s["bits"] for s in ok),
        "pair_trace": histogram(
            "{pairs_considered}/{pairs_reduced}/{zero_reductions}".format(**o.diagnostics)
            for o in outcomes
        ),
        "residual_physical_max": max(residual(s, True) for s in ok),
        "residual_discarded_max": max(residual(s, False) for s in ok),
    }


def counters_digest(samples) -> str:
    """SHA-256 over basis digests and diagnostics of the first problems."""
    rows = [
        [s["job"][0], s["outcome"].basis_sha256, s["outcome"].diagnostics]
        for s in samples[:COUNTER_PREFIX]
        if s["error"] is None
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# -- driver ----------------------------------------------------------------------

def run(args) -> dict:
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    problems = corpus.WORKLOADS[args.workload](args.seed)
    warm_name, warm_doc = next(problems)
    warm_file = write_problem(work / "warmup.json", warm_doc)
    warm_problem = corpus.to_problem(warm_doc)
    warm_report = solve_posture(warm_problem)  # untimed warm-up
    tracer = spans.Tracer() if args.trace else None
    if args.workload == "special_cli":
        # every solve is a cold process: time the whole corpus, after one
        # untimed run that warms the page cache
        solver = CliSolver(work, tracer)
        solver.solve(solver.prepare(warm_name, warm_doc))
        problems = corpus.WORKLOADS[args.workload](args.seed)
    else:
        solver = LibrarySolver(work, tracer)

    setup: list = []
    probe = None if tracer else setup_prober(warm_file, args.seconds, setup)
    samples, busy = closed_loop(
        solver, problems, args.seconds,
        TRACED_MIN_PROBLEMS if tracer else MIN_PROBLEMS, tracer,
        verify.references(args.workload, args.seed), probe)
    peak_rss = solver.peak_rss_mb()
    if probe is not None:
        probe(float("inf"))
    determinism = check_determinism(solver, samples, tracer)

    failed = sum(1 for s in samples if s["error"] is not None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "solver": solver.name,
        "warmup": warm_name,
        "correct": failed == 0 and determinism is None,
        "attempted": len(samples),
        "failed": failed,
        "determinism": determinism or "ok",
        "counters_sha256": counters_digest(samples),
        "corpus": corpus_properties(samples),
    }
    if tracer is None:
        record["metrics"] = end_to_end(samples, busy, setup, peak_rss)
    else:
        record["metrics"], record["self_ms"] = traced_metrics(
            tracer, samples, warm_problem, warm_report)
        tracer.write(OUT / f"{label}.spans.jsonl")
    record["failures"] = {s["job"][0]: s["error"] for s in samples if s["error"]}
    record["outcomes"] = {
        s["job"][0]: {
            "basis_sha256": s["outcome"].basis_sha256,
            "physical_count": s["outcome"].physical_count,
            "diagnostics": s["outcome"].diagnostics,
        }
        for s in samples if s["error"] is None
    }
    shutil.rmtree(work, ignore_errors=True)
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def print_report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"solver {record['solver']}  warm-up {record['warmup']}")
    print("corpus " + json.dumps(record["corpus"], sort_keys=True))
    print(f"counters_sha256 {record['counters_sha256']}  determinism {record['determinism']}")
    for name, err in list(record["failures"].items())[:5]:
        print(f"FAILED {name}: {err.strip().splitlines()[-1]}")
    if "self_ms" in record:
        print("self ms per traced solve, medians: " + json.dumps(
            {k: round(v, 3) for k, v in record["self_ms"].items()}))
    print(f"{'metric':34s} {'value':>14s} {'unit':>6s} {'samples':>8s}")
    for name, m in record["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:>6s} {m['samples']:8d}")


def result_line(record, declared) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {k: record["metrics"][name][k] for k in ("value", "unit")}
            for name in declared
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    record = run(args)
    print_report(record)
    print(result_line(record, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
