"""Command-line interface: train, eval, export-attention, count-cost, ablate,
gen-data, selftest.

Every command exits 0 on success and prints a single ``error: <reason>`` line
to stderr with a non-zero exit code on failure. With ``PADFORMER_TRACEBACK=1``
in the environment the full traceback is printed before that line.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .ablation import (ablation_clip_length, ablation_scales,
                       write_ablation_csv)
from .attention import attention_rollout, upsample_nearest
from .config import RunConfig, dump_config, load_config, parse_config
from .costs import count_cost
from .harness import check_clip, evaluate, format_log, train_model
from .metrics import write_report_csv
from .model import forward, load_checkpoint, sample_frames, save_checkpoint
from .selftest import run_selftest
from .synth import SPLITS, generate_dataset, load_store, split_records, write_store
from . import vpt


def write_pgm(path, img: np.ndarray):
    """8-bit binary PGM with linear min-max scaling; flat maps become black."""
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(img.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())


def _load_run_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "steps", None) is not None:
        overrides["steps"] = args.steps
    if getattr(args, "config", None):
        return load_config(args.config, overrides)
    return parse_config("", overrides)


def _data_dir(args, cfg: RunConfig) -> str:
    path = getattr(args, "data", None) or cfg.data_dir
    if not path:
        raise ValueError("config key 'data_dir' is required (or pass --data)")
    return path


def _checkpoint_config(ckpt: Path) -> RunConfig:
    echo = ckpt / "config.cfg"
    if not echo.is_file():
        raise FileNotFoundError(f"checkpoint has no config echo at {echo}")
    return load_config(echo)


def cmd_gen_data(args) -> int:
    cfg = _load_run_config(args)
    out = args.out or cfg.data_dir
    if not out:
        raise ValueError("config key 'data_dir' is required (or pass --out)")
    records = generate_dataset(cfg.synth_spec())
    write_store(out, records)
    print(f"wrote {len(records)} clips to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    records = load_store(_data_dir(args, cfg))
    result = train_model(cfg, split_records(records, "train"))
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "train_log.csv").write_text(format_log(result.log_rows), encoding="utf-8")
    save_checkpoint(out / "checkpoint", result.params, dump_config(cfg))
    last = f", final loss {result.log_rows[-1][1]:.4f}" if result.log_rows else ""
    print(f"trained {cfg.steps} steps{last}; checkpoint at {out / 'checkpoint'}")
    return 0


def cmd_eval(args) -> int:
    if args.split not in SPLITS:
        raise ValueError(f"--split must be one of {', '.join(SPLITS)}, got {args.split!r}")
    ckpt = Path(args.checkpoint)
    cfg = _checkpoint_config(ckpt)
    mcfg = cfg.model_config()
    params = load_checkpoint(ckpt, mcfg)
    records = load_store(_data_dir(args, cfg))
    report = evaluate(params, mcfg, records, cfg, split=args.split)
    out = args.out or str(ckpt / "report.csv")
    run_id = args.run_id or args.split
    write_report_csv(out, [(run_id, report)])
    print(f"{run_id}: threshold={report.threshold:.4f} apcer={report.apcer:.2f} "
          f"bpcer={report.bpcer:.2f} acer={report.acer:.2f} hter={report.hter:.2f}")
    return 0


def cmd_export_attention(args) -> int:
    ckpt = Path(args.checkpoint)
    cfg = _checkpoint_config(ckpt)
    mcfg = cfg.model_config()
    if not 0 <= args.layer < cfg.depth:
        raise ValueError(f"layer {args.layer} out of range for depth {cfg.depth}")
    if not 0 <= args.head < len(cfg.scales):
        raise ValueError(f"head {args.head} out of range for {len(cfg.scales)} heads")
    params = load_checkpoint(ckpt, mcfg)
    records = load_store(_data_dir(args, cfg))
    if args.clip:
        matches = [r for r in records if r.clip_id == args.clip]
        if not matches:
            raise ValueError(f"no clip {args.clip!r} in store")
        record = matches[0]
    else:
        record = split_records(records, "test")[0]
    check_clip(record, mcfg)

    recs = []
    forward(sample_frames(record.frames, mcfg.frames).frames, params, mcfg, records=recs)
    rec = next(r for r in recs if r.layer == args.layer and r.head == args.head)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for f in range(mcfg.frames):
        heat = attention_rollout(rec, f)
        stem = f"attn_L{args.layer}_H{args.head}_F{f}"
        vpt.write_tensor(out / f"{stem}.vpt", heat.astype(np.float32))
        write_pgm(out / f"{stem}.pgm",
                  upsample_nearest(heat, mcfg.height, mcfg.width))
    print(f"wrote {mcfg.frames} attention maps for clip {record.clip_id} to {out}")
    return 0


def cmd_count_cost(args) -> int:
    cfg = _load_run_config(args)
    report = count_cost(cfg.model_config())
    print(f"# {cfg.frames} frames of {cfg.height}x{cfg.width}, per-clip forward")
    for line in report.lines():
        print(line)
    if args.out:
        report.write_csv(args.out)
    return 0


def cmd_ablate(args) -> int:
    if args.axis not in ("scales", "clip-length"):
        raise ValueError(f"unknown ablation axis {args.axis!r}")
    cfg = _load_run_config(args)
    if args.axis == "scales":
        if args.grid is not None:
            raise ValueError("--grid applies only to --axis clip-length")
        rows = ablation_scales(cfg, n_seeds=args.seeds)
    else:
        grid_text = "1,2,4,8" if args.grid is None else args.grid
        try:
            grid = tuple(int(t) for t in grid_text.split(","))
        except ValueError:
            raise ValueError(f"--grid needs comma-separated clip lengths, "
                             f"got {grid_text!r}") from None
        rows = ablation_clip_length(cfg, grid=grid, n_seeds=args.seeds)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"ablation_{args.axis}.csv"
    write_ablation_csv(path, rows, args.seeds)
    for label, mean_acer, _ in rows:
        print(f"{label}: mean ACER {mean_acer:.2f}")
    print(f"wrote {path}")
    return 0


def cmd_selftest(args) -> int:
    return 1 if run_selftest() else 0


def build_parser() -> argparse.ArgumentParser:
    # --config may come before or after the verb; a suppressed default keeps
    # the verb's parser from overwriting a value given before it. The verbs
    # without it name in ``refuse_config`` why a top-level one is an error.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=argparse.SUPPRESS,
                        help="run config file (key=value lines)")
    parser = argparse.ArgumentParser(
        prog="padformer", parents=[config],
        description="Video anti-spoofing transformer: training, evaluation, "
                    "ablations, and analysis utilities.")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective config and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", parents=[config],
                       help="generate the synthetic clip store")
    p.add_argument("--out", help="store directory (default: config data_dir)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[config],
                       help="train a model and write a checkpoint")
    p.add_argument("--data", help="clip store (default: config data_dir)")
    p.add_argument("--out", help="run directory (default: config out_dir)")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="clip store (default: config data_dir)")
    p.add_argument("--split", default="test")
    p.add_argument("--out", help="report CSV path (default: <checkpoint>/report.csv)")
    p.add_argument("--run-id")
    p.set_defaults(func=cmd_eval, refuse_config="reads its config from the checkpoint")

    p = sub.add_parser("export-attention", help="write attention maps as PGM + VPT1")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="clip store (default: config data_dir)")
    p.add_argument("--clip", help="clip id (default: first test clip)")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_attention,
                   refuse_config="reads its config from the checkpoint")

    p = sub.add_parser("count-cost", parents=[config],
                       help="analytic per-clip FLOP/param counts")
    p.add_argument("--out", help="also write the counts as CSV")
    p.set_defaults(func=cmd_count_cost)

    p = sub.add_parser("ablate", parents=[config],
                       help="grid experiments (scales or clip-length)")
    p.add_argument("--axis", required=True)
    p.add_argument("--grid",
                   help="clip lengths for --axis clip-length (default: 1,2,4,8)")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out", help="output directory (default: config out_dir)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    p.set_defaults(func=cmd_selftest, refuse_config="takes no config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "config") and getattr(args, "refuse_config", None):
            raise ValueError(f"{args.command} {args.refuse_config}; "
                             f"--config is not accepted")
        if args.dump_config:
            sys.stdout.write(dump_config(_load_run_config(args)))
            return 0
        if not getattr(args, "func", None):
            raise ValueError("no command given (see --help)")
        return args.func(args)
    except Exception as exc:  # single-line machine-parsable contract
        if os.environ.get("PADFORMER_TRACEBACK") == "1":
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
