"""One benchmark child process.

Usage: ``python bench/child.py SPEC.json`` (started by ``bench/run.py``,
which writes the spec).  The child imports ``repro`` from the
checkout's ``src/``, sets up one workload and, in ``run`` mode, runs
the workload's jobs as a closed loop with one client: the next job
starts when the previous one has returned.  It runs whole passes over
the job list until ``seconds`` have passed, and writes its
measurements to the spec's ``out`` path.

Modes: ``import`` only imports (it compiles the bytecode caches before
anything is timed), ``setup`` reports the set-up time alone, ``run``
sets up and runs the loop, traced when the spec asks for it.

An untraced child times its set-up and every job with
``bench/speed.py``'s clock, in reference seconds (the machine's speed
drift scaled out) with the wall time beside them.  A traced child times
by wall only, as its spans do.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from the first line

import speed  # noqa: E402

CLOCK = speed.SpeedClock()
CLOCK.start()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# A pass that overruns the time by this factor is cut short, so a very
# slow commit still ends its run in time.
HARD_STOP_FACTOR = 2.0


def peak_rss_kb() -> int:
    """This process's own peak resident set.  ``ru_maxrss`` would also
    count the parent's resident set when it forked this process."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_loop(workload, jobs, seconds, clock=None, tracer=None):
    """Run whole passes over ``jobs`` until ``seconds`` have passed;
    returns the job latencies (in reference seconds with a clock, else
    wall seconds), their wall times, one ``[job, observation]`` per job,
    the number of passes completed and the peak RSS at the end of the
    first pass.  With a tracer, each job is one interval of its
    ``loop`` phase.

    Memos keep growing while new jobs arrive, so the peak over the whole
    loop would grow with the number of passes, that is with speed; the
    peak after one pass is the same work on every commit.

    Each pass runs the jobs in an order of its own.  Every pass
    allocates alike, so the collector's pauses can fall at the same
    points of every pass; a new order puts them on other jobs, so no job
    is slow in most of its passes."""
    latencies, walls, observations = [], [], []
    started = perf_counter()
    completed = 0
    first_pass_rss = None
    while True:
        order = list(range(len(jobs)))
        random.Random(completed).shuffle(order)
        for index in order:
            job = jobs[index]
            # A failed job is counted, not fatal.
            error = result = None
            try:
                prepared = workload.prepare(job, completed)
            except Exception as exc:
                error = exc
            wall = reference = 0.0
            if error is None:
                if tracer is not None:
                    tracer.begin("loop")
                if clock is not None:
                    clock.start()
                job_started = perf_counter()
                try:
                    result = workload.run(prepared)
                except Exception as exc:
                    error = exc
                if clock is not None:
                    wall, reference = clock.stop()
                else:
                    wall = reference = perf_counter() - job_started
                if tracer is not None:
                    tracer.end()
            latencies.append(reference)
            walls.append(wall)
            if error is None:
                try:
                    observed = workload.observe(job, result)
                except Exception as exc:
                    error = exc
            if error is not None:
                observed = f"error:{type(error).__name__}: {error}"
            observations.append([index, observed])
            # Freed here, so no job pays for freeing the previous job's
            # result or for the collector walking it.
            result = prepared = error = None
            if perf_counter() - started >= HARD_STOP_FACTOR * seconds:
                return latencies, walls, observations, completed, (
                    first_pass_rss or peak_rss_kb()
                )
        completed += 1
        if first_pass_rss is None:
            first_pass_rss = peak_rss_kb()
        if perf_counter() - started >= seconds:
            return latencies, walls, observations, completed, first_pass_rss


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    clock = CLOCK
    if spec["trace"]:
        CLOCK.cancel()
        clock = None
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not {src}")
    import workloads

    if spec["mode"] == "import":
        Path(spec["out"]).write_text("{}")
        return

    out = {}
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer(keep_spans=spec["keep_spans"])
        tracer.install()
        tracer.begin("setup")
    workload = workloads.WORKLOADS[spec["workload"]](spec)
    if clock is None:
        out["setup_s"] = out["setup_wall_s"] = perf_counter() - STARTED
    else:
        out["setup_wall_s"], out["setup_s"] = clock.stop()
    if tracer is not None:
        tracer.end()
    if spec["mode"] == "setup":
        Path(spec["out"]).write_text(json.dumps(out))
        return

    counters_before = {}
    telemetry = None
    if tracer is not None:
        try:
            from repro.telemetry import TELEMETRY as telemetry
        except ImportError:
            tracer.missing.append("repro.telemetry:TELEMETRY")
        else:
            telemetry.enable(spans=False)
            counters_before = telemetry.snapshot()
    latencies, walls, observations, passes, rss_kb = run_loop(
        workload, spec["jobs"], spec["seconds"], clock, tracer
    )
    out.update(
        latencies=latencies,
        wall_latencies=walls,
        observations=observations,
        passes=passes,
        peak_rss_kb=rss_kb,
    )
    if tracer is not None:
        counters = {}
        if telemetry is not None:
            after = telemetry.snapshot()
            telemetry.disable()
            counters = {
                name: value - counters_before.get(name, 0)
                for name, value in after.items()
            }
        extra = getattr(workload, "counters", dict)()
        out["per_layer"] = layers.layer_metrics(
            tracer, counters, extra, len(latencies)
        )
        out["missing_targets"] = tracer.missing
        out["null_layers"] = tracer.null_layers()
        if spec.get("chrome_trace"):
            tracer.write_chrome(Path(spec["chrome_trace"]))
        tracer.uninstall()
    Path(spec["out"]).write_text(json.dumps(out))


if __name__ == "__main__":
    try:
        main(sys.argv[1])
    finally:
        CLOCK.cancel()
