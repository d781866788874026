"""Command-line interface.

All training-related commands read one JSON config file holding {"model": ...,
"train": ...} blocks (both optional); any recognized flag overrides the
matching config key. Exit codes: 0 success, 2 configuration error, 3 data
error, 4 numerical failure.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import dsp
from .data import assign_folds, get_taxonomy, load_manifest, save_manifest, synth_corpus
from .errors import (CheckFailed, ConfigError, DataError, InvalidInput,
                     NumericalError, PcqError, ShapeError)
from .metrics import compute_wa_ua, confusion_matrix
from .network import PcqConfig, PcqNetwork, clip_prediction
from .nn import load_checkpoint, save_checkpoint
from .training import (TrainConfig, build_dataset, export_fusion_features, run_cv,
                       run_fold, summary_table)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    extra = set(cfg) - {"model", "train"}
    if extra:
        raise ConfigError(f"unknown top-level config keys: {sorted(extra)}")
    return cfg


def _int_pair(text: str) -> tuple:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got '{text}'")
    return tuple(parts)


def _int_list(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


MODEL_FLAGS = ["taxonomy", "num_classes", "channel_plan", "input_hw", "use_pdc", "use_csq",
               "encoder_backend", "encoder_dim", "emb_dir", "fusion_q", "hidden", "dropout", "seed"]
TRAIN_FLAGS = ["batch_size", "lr", "weight_decay", "patience", "max_epochs"]


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file with model/train blocks")
    g = parser.add_argument_group("model overrides")
    g.add_argument("--taxonomy", choices=["iemocap4", "emodb7"])
    g.add_argument("--num-classes", type=int, dest="num_classes")
    g.add_argument("--channel-plan", type=_int_list, dest="channel_plan", metavar="C1,C2,...")
    g.add_argument("--input-hw", type=_int_pair, dest="input_hw", metavar="H,W")
    g.add_argument("--use-pdc", action="store_true", dest="use_pdc", default=None)
    g.add_argument("--no-pdc", action="store_false", dest="use_pdc")
    g.add_argument("--use-csq", action="store_true", dest="use_csq", default=None)
    g.add_argument("--no-csq", action="store_false", dest="use_csq")
    g.add_argument("--encoder", choices=["standin", "precomputed"], dest="encoder_backend")
    g.add_argument("--encoder-dim", type=int, dest="encoder_dim")
    g.add_argument("--emb-dir", dest="emb_dir")
    g.add_argument("--fusion-q", choices=["q4", "q1"], dest="fusion_q")
    g.add_argument("--hidden", type=int)
    g.add_argument("--dropout", type=float)
    g.add_argument("--seed", type=int)
    t = parser.add_argument_group("train overrides")
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--lr", type=float)
    t.add_argument("--weight-decay", type=float, dest="weight_decay")
    t.add_argument("--patience", type=int)
    t.add_argument("--max-epochs", type=int, dest="max_epochs")


def _resolve_configs(args) -> tuple:
    file_cfg = _load_config_file(getattr(args, "config", None))
    model_dict = dict(file_cfg.get("model", {}))
    train_dict = dict(file_cfg.get("train", {}))
    for key in MODEL_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            model_dict[key] = value
    for key in TRAIN_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            train_dict[key] = value
    if getattr(args, "seed", None) is not None:
        train_dict["seed"] = args.seed
    return PcqConfig.from_dict(model_dict), TrainConfig.from_dict(train_dict)


def _dataset(args, model_cfg):
    taxonomy = get_taxonomy(model_cfg.taxonomy)
    rows = load_manifest(args.manifest, taxonomy)
    return build_dataset(rows, getattr(args, "features", None), taxonomy, model_cfg.input_hw)


def _write_configs(out_dir: Path, model_cfg, train_cfg):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()}
    (out_dir / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_synth_data(args) -> int:
    taxonomy = get_taxonomy(args.taxonomy)
    manifest = synth_corpus(args.out, taxonomy, n_per_class=args.per_class,
                            seed=args.seed, folds=args.folds)
    print(f"wrote {taxonomy.num_classes * args.per_class} clips and {manifest}")
    return EXIT_OK


def cmd_features(args) -> int:
    rows = load_manifest(args.manifest)
    report = dsp.batch_features(rows, args.out, log1p=args.log1p)
    print(f"cached {report.written} spectrograms in {args.out}")
    for err in report.errors:
        print(f"  error: {err['clip_id']}: {err['error']}", file=sys.stderr)
    return EXIT_OK if not report.errors else EXIT_DATA


def cmd_make_folds(args) -> int:
    rows = load_manifest(args.manifest)
    rows = assign_folds(rows, by=args.by, folds=args.folds, seed=args.seed)
    out = args.out or args.manifest
    save_manifest(out, rows)
    print(f"assigned folds by {args.by} across {args.folds} folds -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    model_cfg, train_cfg = _resolve_configs(args)
    clips = _dataset(args, model_cfg)
    report, model = run_fold(args.val_fold, clips, model_cfg, train_cfg)
    out_dir = Path(args.out)
    _write_configs(out_dir, model_cfg, train_cfg)
    save_checkpoint(out_dir / "best.ckpt", model)
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"fold {args.val_fold}: wa={report.wa:.4f} ua={report.ua:.4f} "
          f"best_epoch={report.best_epoch} ({report.stop_reason})")
    print(f"checkpoint and report in {out_dir}")
    return EXIT_OK


def _model_for_eval(args) -> tuple:
    config_path = args.config or (Path(args.ckpt).parent / "config.json")
    if not Path(config_path).exists():
        raise ConfigError(f"no config found at {config_path}; pass --config")
    file_cfg = _load_config_file(config_path)
    model_cfg = PcqConfig.from_dict(file_cfg.get("model", {}))
    model = PcqNetwork(model_cfg)
    load_checkpoint(args.ckpt, model)
    return model.eval(), model_cfg


def cmd_eval(args) -> int:
    model, model_cfg = _model_for_eval(args)
    taxonomy = get_taxonomy(model_cfg.taxonomy)
    rows = load_manifest(args.manifest, taxonomy)
    clips = build_dataset(rows, args.features, taxonomy, model_cfg.input_hw)
    pred = []
    with open(args.out, "w") as fh:
        fh.write("clip_id,true_label,pred_label" +
                 "".join(f",p_{c}" for c in taxonomy.classes[:model_cfg.resolved_num_classes]) + "\n")
        for clip in clips:
            probs = [model.predict(s.features, s.segment).probs for s in clip.segments]
            label, mean = clip_prediction(probs)
            pred.append(label)
            fh.write(f"{clip.clip_id},{clip.label_index},{label}" +
                     "".join(f",{p:.6f}" for p in mean) + "\n")
    confusion = confusion_matrix([c.label_index for c in clips], pred, model_cfg.resolved_num_classes)
    wa, ua = compute_wa_ua(confusion)
    print(f"evaluated {len(clips)} clips: wa={wa:.4f} ua={ua:.4f}; predictions in {args.out}")
    return EXIT_OK


def cmd_cv(args) -> int:
    model_cfg, train_cfg = _resolve_configs(args)
    clips = _dataset(args, model_cfg)
    summary = run_cv(clips, model_cfg, train_cfg)
    taxonomy = get_taxonomy(model_cfg.taxonomy)
    table = summary_table(summary, taxonomy.classes[:model_cfg.resolved_num_classes])
    print(table)
    if args.out:
        out_dir = Path(args.out)
        _write_configs(out_dir, model_cfg, train_cfg)
        (out_dir / "cv_report.json").write_text(summary.to_json())
        (out_dir / "cv_report.txt").write_text(table + "\n")
        print(f"reports in {out_dir}")
    return EXIT_OK


def cmd_params(args) -> int:
    from .pdc import conv3x3_param_count, pdc_param_count, pdc_param_law
    if args.block == "pdc":
        c = args.channels
        print(f"{'C':>5} {'constructed':>12} {'(16/3)C^2+18C':>14} {'9C^2':>10}")
        print(f"{c:>5} {pdc_param_count(c):>12} {pdc_param_law(c):>14.2f} {conv3x3_param_count(c):>10}")
        return EXIT_OK
    model_cfg, _ = _resolve_configs(args)
    net = PcqNetwork(model_cfg)
    if args.model == "mlcnn":
        print("layer  transition  block  total")
        for i, layer in enumerate(net.mlcnn.layers):
            t = layer.trans.param_count()
            b = layer.block.param_count()
            print(f"{i:>5}  {t:>10}  {b:>5}  {t + b:>5}")
        print(f"mlcnn total: {net.mlcnn.param_count()}")
    else:
        for name, count in net.param_breakdown().items():
            print(f"{name:>15}: {count}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .verify import run_gradient_checks
    reports = run_gradient_checks(quick=args.quick)
    failed = [name for name, rep in reports if not rep.passed]
    for name, rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {name}: max rel err {rep.max_rel_err:.3e} (tol {rep.tol:g})")
    if failed:
        raise CheckFailed(f"gradient checks failed: {', '.join(failed)}")
    print(f"all {len(reports)} gradient checks passed")
    return EXIT_OK


def cmd_export_features(args) -> int:
    model, model_cfg = _model_for_eval(args)
    taxonomy = get_taxonomy(model_cfg.taxonomy)
    rows = load_manifest(args.manifest, taxonomy)
    clips = build_dataset(rows, args.features, taxonomy, model_cfg.input_hw)
    n = export_fusion_features(model, clips, args.out)
    print(f"wrote {n} fusion rows ({model.fusion_dim} features each) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic separable corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--taxonomy", default="iemocap4", choices=["iemocap4", "emodb7"])
    p.add_argument("--per-class", type=int, default=10, dest="per_class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=10)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("features", help="cache spectrograms for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log1p", action="store_true")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("make-folds", help="reassign the manifest fold column")
    p.add_argument("--manifest", required=True)
    p.add_argument("--by", choices=["speaker", "random"], default="random")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_make_folds)

    p = sub.add_parser("train", help="train one split and save the best checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features")
    p.add_argument("--out", required=True)
    p.add_argument("--val-fold", type=int, default=0, dest="val_fold")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-clip predictions from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--features")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features")
    p.add_argument("--out")
    _add_config_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("params", help="parameter-count tables")
    p.add_argument("--block", choices=["pdc"])
    p.add_argument("--channels", type=int, default=48)
    p.add_argument("--model", choices=["mlcnn", "pcq"], default="pcq")
    _add_config_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--quick", action="store_true", help="ops only, skip block/model checks")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-features", help="dump per-clip fusion vectors to CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--features")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_features)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, InvalidInput, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, CheckFailed) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PcqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
