"""Command-line entry point: run / sweep / repl / gen-trace.

Exit codes: 0 success, 2 input errors, 3 backend errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .errors import BackendError, InputError
from .memory_core import PRESETS, MemoryConfig
from .ports import RemoteBackendConfig, remote_ports, stub_ports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streammem")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", choices=sorted(PRESETS), default="base")
        p.add_argument("--config", metavar="FILE", help="JSON file overriding MemoryConfig fields")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--backend", choices=["stub", "remote"], default="stub")
        p.add_argument("--remote-url", default="http://localhost:8099")

    def add_replay(p):
        add_common(p)
        p.add_argument("--clock", choices=["sim", "wall"], default="sim")
        p.add_argument("--out", metavar="DIR", default="out")

    run_p = sub.add_parser("run", help="replay a trace and write report + transcript")
    run_p.add_argument("trace", help="trace JSONL path")
    add_replay(run_p)

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep, emit CSV")
    sweep_p.add_argument("trace")
    sweep_p.add_argument("parameter", choices=sorted(harness.SWEEP_PARAMS))
    sweep_p.add_argument("values", help="comma-separated values")
    add_replay(sweep_p)

    repl_p = sub.add_parser("repl", help="interactive queries over a live stream")
    add_common(repl_p)
    repl_p.add_argument("--scenes", type=int, default=3)
    repl_p.add_argument("--scene-duration", type=float, default=20.0)

    gen_p = sub.add_parser("gen-trace", help="generate a synthetic trace")
    gen_p.add_argument("out_file")
    gen_p.add_argument("--scenes", type=int, default=5)
    gen_p.add_argument("--scene-duration", type=float, default=20.0)
    gen_p.add_argument("--fps", type=float, default=5.0)
    gen_p.add_argument("--motion", type=float, default=0.5)
    gen_p.add_argument("--noise", type=float, default=0.0)
    gen_p.add_argument("--seed", type=int, default=0)
    return parser


def _load_config(args) -> MemoryConfig:
    """The preset with --seed and then the --config file's fields applied
    together, so that the fields are checked as one config."""
    overrides = {"rng_seed": args.seed}
    if args.config:
        try:
            from_file = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # bad JSON, or an integer over 4300 digits
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise InputError(f"config {args.config} must hold a JSON object")
        overrides.update(from_file)
    try:  # an unknown field is a TypeError, a bad value an InputError
        return dataclasses.replace(PRESETS[args.preset], **overrides)
    except (TypeError, InputError) as exc:
        raise InputError(f"bad config {args.config or '--seed'}: {exc}") from exc


def _build_ports(args):
    if args.backend == "remote":
        return remote_ports(RemoteBackendConfig(base_url=args.remote_url))
    return stub_ports()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-trace":
            trace = harness.gen_trace(
                num_scenes=args.scenes,
                scene_duration=args.scene_duration,
                fps=args.fps,
                motion=args.motion,
                noise=args.noise,
                seed=args.seed,
            )
            harness.save_trace(trace, args.out_file)
            print(f"wrote {args.out_file} ({len(trace.queries)} queries)")
            return 0

        mem_cfg = _load_config(args)
        ports = _build_ports(args)

        if args.command == "run":
            trace = harness.load_trace(args.trace)
            report, metrics, _ = harness.run_benchmark(
                trace, mem_cfg, ports, out_dir=args.out, clock_mode=args.clock
            )
            print(
                f"frames_in={report.frames_in} frames_kept={report.frames_kept} "
                f"answers={len(report.answers)}"
            )
            if metrics:
                print(
                    f"mean_score={metrics.mean_score:.3f} accuracy={metrics.accuracy:.3f} "
                    f"rpd_mean={metrics.rpd_mean:.4f}"
                )
            print(f"report written to {Path(args.out) / 'report.json'}")
            return 0

        if args.command == "sweep":
            trace = harness.load_trace(args.trace)
            parse = int if args.parameter in "LgC" else float
            try:
                values = [parse(token) for token in args.values.split(",")]
            except ValueError as exc:
                raise InputError(f"bad sweep value: {exc}") from exc
            out_path = Path(args.out)
            out_path.mkdir(parents=True, exist_ok=True)
            csv_path = out_path / f"sweep_{args.parameter}.csv"
            harness.sweep(
                trace, args.parameter, values, mem_cfg, ports,
                out_path=csv_path, clock_mode=args.clock,
            )
            print(f"sweep written to {csv_path}")
            return 0

        if args.command == "repl":
            scenes = harness.gen_trace(
                num_scenes=args.scenes, scene_duration=args.scene_duration, seed=args.seed
            )
            spec = harness.SceneSpec.from_json(scenes.source["spec"])
            harness.repl(mem_cfg, ports, spec)
            return 0

        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
