"""Command-line surface: scene, tokenize, stage1, stage2, probe, report.

Global flags (--seed, --config, --out-dir) combine with a JSON config
file; explicit command-line values override file values. Any library
error exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import blobio, nn, probe, report, train
from .errors import SamDistillError
from .scene import generate_dataset, read_scene_dir, write_scene_dir
from .tokenizer import MODE_KNN, MODE_SAM, purity, tokenize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samdistill",
        description="Mask-guided tokenization and two-stage feature distillation on synthetic scenes.",
    )
    parser.add_argument("--seed", type=int, default=None, help="global seed override")
    parser.add_argument("--config", type=Path, default=None, help="JSON pipeline config")
    parser.add_argument("--out-dir", type=Path, default=Path("out"), help="root output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene", help="generate synthetic scene bundles")
    p.add_argument("--out", type=Path, default=None, help="target directory (default OUT_DIR/scenes)")
    p.add_argument("--n-scenes", type=int, default=None)
    p.add_argument("--n-objects", type=int, default=None)
    p.add_argument("--imbalance", type=float, default=None, help="imbalance exponent")
    p.add_argument("--noise-sigma", type=float, default=None)

    p = sub.add_parser("tokenize", help="tokenize stored scenes and audit purity")
    p.add_argument("--scenes", type=Path, required=True)
    p.add_argument("--mode", choices=(MODE_SAM, MODE_KNN), default=MODE_SAM)
    p.add_argument("--min-points", type=int, default=8)
    p.add_argument("--n", type=int, default=0, help="knn token count (0: region count)")
    p.add_argument("--k", type=int, default=0, help="knn neighbors (0: n_points / n)")
    p.add_argument("--audit", type=Path, default=None, help="write a purity report CSV here")

    p = sub.add_parser("stage1", help="dense distillation pretraining")
    p.add_argument("--scenes", type=Path, required=True)
    p.add_argument("--eval-scenes", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None, help="run directory (default OUT_DIR/stage1)")
    p.add_argument("--k-groups", type=int, default=None)
    p.add_argument(
        "--no-reweight", dest="reweight", action="store_const", const=False,
        help="ablation: uniform loss",
    )
    p.add_argument("--tokenizer", choices=(MODE_SAM, MODE_KNN), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--wd", type=float, default=None)
    p.add_argument("--batch", type=int, default=None, help="scenes per step (the paper's: 64)")
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("stage2", help="masked token prediction against a frozen teacher")
    p.add_argument("--scenes", type=Path, required=True)
    p.add_argument("--eval-scenes", type=Path, default=None)
    p.add_argument("--teacher-ckpt", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None, help="run directory (default OUT_DIR/stage2)")
    p.add_argument("--init-from-teacher", choices=("on", "off"), default=None)
    p.add_argument("--mask-ratio", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("probe", help="linear probe of a frozen encoder")
    p.add_argument("--encoder-ckpt", default="scratch", help="checkpoint file or 'scratch'")
    p.add_argument("--train-scenes", type=Path, required=True)
    p.add_argument("--test-scenes", type=Path, required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", type=Path, default=None, help="result JSON (default OUT_DIR/probe.json)")

    p = sub.add_parser("report", help="run and/or summarize the ablation matrix")
    p.add_argument("--run", action="store_true", help="execute missing matrix cells first")
    return parser


def _load_config(args) -> report.PipelineConfig:
    cfg = (
        report.PipelineConfig.from_file(args.config)
        if args.config is not None
        else report.PipelineConfig()
    )
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed, train=replace(cfg.train, seed=args.seed))
    return cfg


def _given(**flags) -> dict:
    """The flags that were given, to apply in one ``replace``, which checks them together."""
    return {name: value for name, value in flags.items() if value is not None}


def _cmd_scene(args, cfg: report.PipelineConfig) -> int:
    out = args.out if args.out is not None else args.out_dir / "scenes"
    flags = _given(
        n_objects=args.n_objects, imbalance_exponent=args.imbalance, noise_sigma=args.noise_sigma
    )
    cfg = replace(cfg, scene=replace(cfg.scene, **flags), **_given(n_train_scenes=args.n_scenes))
    bundles = generate_dataset(cfg.scene, cfg.n_train_scenes, cfg.seed)
    paths = write_scene_dir(bundles, out)
    print(f"wrote {len(paths)} bundles under {out}")
    return 0


def _cmd_tokenize(args, cfg: report.PipelineConfig) -> int:
    bundles = read_scene_dir(args.scenes)
    rows = []
    for i, bundle in enumerate(bundles):
        tokens = tokenize(bundle, args.mode, args.min_points, args.n, args.k)
        rows.append(
            {
                "scene_id": i,
                "mode": args.mode,
                "n_tokens": len(tokens),
                "purity": f"{purity(tokens, bundle.gt_region):.6f}",
                "dropped": len(tokens.dropped_points),
            }
        )
        print(
            f"scene {i}: {args.mode} tokens={rows[-1]['n_tokens']} "
            f"purity={rows[-1]['purity']} dropped={rows[-1]['dropped']}"
        )
    if args.audit is not None:
        args.audit.parent.mkdir(parents=True, exist_ok=True)
        columns = ["scene_id", "mode", "n_tokens", "purity", "dropped"]
        blobio.dump_text(args.audit, report.csv_text(columns, rows))
        print(f"audit written to {args.audit}")
    return 0


def _train_cfg(args, tc: train.TrainConfig) -> train.TrainConfig:
    """``tc`` with the command's flags; ``--epochs E`` caps the warmup at max(E, 1) epochs."""
    warmup = None if args.epochs is None else min(tc.warmup_epochs, max(args.epochs, 1))
    return replace(
        tc,
        **_given(
            epochs=args.epochs,
            warmup_epochs=warmup,
            base_lr=getattr(args, "lr", None),
            weight_decay=getattr(args, "wd", None),
            batch_size=getattr(args, "batch", None),
        ),
    )


def _cmd_stage1(args, cfg: report.PipelineConfig) -> int:
    flags = _given(k_groups=args.k_groups, reweight=args.reweight, tokenizer_mode=args.tokenizer)
    s1, tc = replace(cfg.stage1, **flags), _train_cfg(args, cfg.train)
    bundles = read_scene_dir(args.scenes)
    eval_bundles = read_scene_dir(args.eval_scenes) if args.eval_scenes else []
    out = args.out if args.out is not None else args.out_dir / "stage1"
    result = train.run_stage1(bundles, eval_bundles, cfg.arch, tc, s1, out, resume=args.resume)
    print(
        f"stage1 done: loss {result.metrics['initial_loss']:.5f} -> "
        f"{result.metrics['final_loss']:.5f}, checkpoint at {result.checkpoint_dir}"
    )
    return 0


def _cmd_stage2(args, cfg: report.PipelineConfig) -> int:
    teacher_init = {"on": True, "off": False}.get(args.init_from_teacher)
    s2 = replace(cfg.stage2, **_given(init_from_teacher=teacher_init, mask_ratio=args.mask_ratio))
    tc = _train_cfg(args, replace(cfg.train, epochs=cfg.stage2_epochs))
    bundles = read_scene_dir(args.scenes)
    eval_bundles = read_scene_dir(args.eval_scenes) if args.eval_scenes else []
    out = args.out if args.out is not None else args.out_dir / "stage2"
    result = train.run_stage2(
        bundles, eval_bundles, args.teacher_ckpt, tc, s2, out, resume=args.resume
    )
    print(
        f"stage2 done: L_final {result.metrics['initial_l_final']:.5f} -> "
        f"{result.metrics['final_l_final']:.5f}, checkpoint at {result.checkpoint_dir}"
    )
    return 0


def _cmd_probe(args, cfg: report.PipelineConfig) -> int:
    cfg = replace(cfg, **_given(probe_epochs=args.epochs))
    train_bundles = read_scene_dir(args.train_scenes)
    test_bundles = read_scene_dir(args.test_scenes)
    if args.encoder_ckpt == "scratch":
        encoder = nn.init_params(cfg.arch, cfg.train.seed)
        tag = probe.ENCODER_SCRATCH
    else:
        ckpt = nn.load_checkpoint(args.encoder_ckpt)
        encoder = ckpt.params
        # Only a stage-2 run fingerprints a teacher.
        from_stage2 = "teacher_hash" in (ckpt.fingerprint or {})
        tag = probe.ENCODER_STAGE2 if from_stage2 else probe.ENCODER_STAGE1
    result = probe.linear_probe(
        encoder, train_bundles, test_bundles, epochs=cfg.probe_epochs, seed=cfg.seed,
        encoder_tag=tag,
    )
    out = args.out if args.out is not None else args.out_dir / "probe.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    blobio.dump_manifest(out, result.to_json())
    print(f"probe accuracy {result.accuracy:.4f} over {result.n_tokens} tokens -> {out}")
    return 0


def _cmd_report(args, cfg: report.PipelineConfig) -> int:
    if args.run:
        report.run_matrix(cfg, args.out_dir)
    rows = report.report_ablation(args.out_dir)
    print((args.out_dir / "report.txt").read_text())
    missing = [r["cell"] for r in rows if r["status"] == "missing"]
    if missing:
        print(f"missing cells: {', '.join(missing)}", file=sys.stderr)
    return 0


_COMMANDS = {
    "scene": _cmd_scene,
    "tokenize": _cmd_tokenize,
    "stage1": _cmd_stage1,
    "stage2": _cmd_stage2,
    "probe": _cmd_probe,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](args, cfg)
    except SamDistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
