"""Run one workload and print its result as the last line of stdout.

Untraced (``--trace 0``): generate the seeded inputs, check their pinned
digests, set up, measure, verify after the clock, and report every
end-to-end metric.  Traced (``--trace 1``): run the same workload
untraced in a child invocation for its counter-based layer metrics and
its ``read_p50_ms``, then run it again here with spans installed, and
report every per-layer metric plus ``trace.overhead_pct``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

from tarabench import inputs as inputs_module
from tarabench import report, workloads
from tarabench.trace import GcPauses, SpanRecorder
from tarabench.verify import verify

WORKLOADS = ("hot", "explore", "ingest")
#: Pinned digests of generated inputs (see ``record_digests.py``).
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: Seconds the untraced child of a traced run may take.
_CHILD_TIMEOUT_S = 170


class DigestMismatch(Exception):
    """Generated inputs differ from the pinned ones: refuse to report."""


def parse_args(argv: Any = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--layers-out",
        help=argparse.SUPPRESS,  # internal: the traced run's untraced child
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def check_digests(inputs: inputs_module.Inputs, seconds: int) -> None:
    """Refuse inputs that differ from the pinned digests.

    The windows are the same for every seed and always checked; request
    bytes are pinned per seed at the benchmark's ``run_seconds``.
    """
    with open(DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)
    if inputs_module.windows_digest(inputs.windows) != pinned["windows"]:
        raise DigestMismatch(
            "the generated windows changed: repro.datagen no longer "
            "generates the pinned transactions"
        )
    requests = pinned["requests"].get(str(inputs.seed))
    if requests is None or seconds != pinned["seconds"]:
        print(
            f"tarabench: no pinned request digest for seed {inputs.seed} at "
            f"--seconds {seconds}; only the windows were checked",
            file=sys.stderr,
        )
        return
    if inputs_module.requests_digest(inputs) != requests[inputs.workload]:
        raise DigestMismatch(
            f"{inputs.workload} request bytes of seed {inputs.seed} changed"
        )


def _measure(
    args: argparse.Namespace, root: Path, work: Path, recorder: Any = None
) -> Dict[str, Any]:
    """Generate, set up, measure, verify: everything one run observed."""
    inputs = inputs_module.make_inputs(args.workload, args.seed, args.seconds)
    check_digests(inputs, args.seconds)
    repeats = 1 if recorder is not None else workloads.SETUP_REPEATS

    async def main() -> workloads.RunRecord:
        if recorder is not None:
            recorder.install(asyncio.get_running_loop())
        try:
            return await workloads.run(inputs, root, work, repeats, args.seconds)
        finally:
            if recorder is not None:
                recorder.uninstall()

    with GcPauses() as pauses:
        record = asyncio.run(main())
    try:
        verdict = verify(record, inputs)
    finally:
        record.sink.close()
    failures = record.side_failures + verdict.failures
    for message in sorted(set(failures)):
        print(f"tarabench: FAILED {failures.count(message)}x {message}", file=sys.stderr)
    return {
        "record": record,
        "correct": not failures,
        "attempted": verdict.attempted + record.side_attempted,
        "failed": len(failures),
        "layers": report.counter_layers(
            record, pauses.pause_seconds, pauses.gen2_collections
        ),
    }


def _declared(root: Path, section: str) -> Dict[str, str]:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def _metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    missing = sorted(set(units) - set(values))
    if missing:
        raise workloads.BenchError(f"no value for declared metrics {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _untraced(args: argparse.Namespace, root: Path, work: Path) -> Dict[str, Any]:
    observed = _measure(args, root, work)
    measured = report.end_to_end(observed["record"])
    if args.layers_out:
        with open(args.layers_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "correct": observed["correct"],
                    "attempted": observed["attempted"],
                    "failed": observed["failed"],
                    "read_p50_ms": measured["read_p50_ms"],
                    "layers": observed["layers"],
                },
                handle,
            )
    return {
        "correct": observed["correct"],
        "attempted": observed["attempted"],
        "failed": observed["failed"],
        "metrics": _metrics(measured, _declared(root, "end_to_end")),
    }


def _traced(args: argparse.Namespace, root: Path, work: Path) -> Dict[str, Any]:
    child_out = work / "untraced.json"
    completed = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
            "--layers-out", str(child_out),
        ],
        stdout=subprocess.DEVNULL,
        timeout=_CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise workloads.BenchError(
            f"untraced child run exited with {completed.returncode}"
        )
    with open(child_out, encoding="utf-8") as handle:
        untraced = json.load(handle)
    recorder = SpanRecorder()
    observed = _measure(args, root, work, recorder)
    record = observed["record"]
    traces = root / ".tarabench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    recorder.write(str(traces / f"{args.workload}-seed{args.seed}.jsonl"))
    traced_p50 = report.end_to_end(record)["read_p50_ms"]
    layers = {
        **untraced["layers"],
        **report.span_layers(
            recorder.spans,
            [(phase.started, phase.ended) for phase in record.phases],
            len(record.query_latencies),
        ),
        "trace.overhead_pct": (traced_p50 / untraced["read_p50_ms"] - 1) * 100,
    }
    return {
        "correct": untraced["correct"] and observed["correct"],
        "attempted": untraced["attempted"] + observed["attempted"],
        "failed": untraced["failed"] + observed["failed"],
        "metrics": _metrics(layers, _declared(root, "per_layer")),
    }


def main(argv: Any = None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parents[2]
    work = root / ".tarabench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = (_traced if args.trace else _untraced)(args, root, work)
    except DigestMismatch as error:
        print(f"tarabench: refusing to report: {error}", file=sys.stderr)
        return 3
    except workloads.BenchError as error:
        print(f"tarabench: {error}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when empty: traced runs keep spans there
    print(json.dumps(result))
    return 0
