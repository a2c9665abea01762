"""Command-line interface.

Subcommands cover the whole workflow: corpus generation, training runs,
checkpoint evaluation, the three ablation tables, few-shot curves,
contribution analysis, compression series, the whole study in one
directory, and a self-test battery.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime failure,
3 self-test check failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import experiments
from .config import PRESETS, ConfigError, dump_yaml, fingerprint, materialize, resolve
from .data import ParseError, load_jsonl, oracle_rank1, save_jsonl
from .evaluate import evaluate_model
from .model import load_checkpoint
from .numerics import Rng, check_param_grads
from .train import NonFiniteLoss

CONFIG_HELP = "layering: defaults < --preset < --config file < --set overrides"
COMPRESS_XS = (0, 1, 2, 3)  # default budgets of a compression series


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="YAML config file")
    p.add_argument("--preset", default="", help=f"named preset ({', '.join(PRESETS)})")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted override, e.g. train.epochs=10 (repeatable)",
    )


def _csv_of(kind):
    """An argparse type: a comma-separated list of `kind` values, as a tuple."""

    def parse(text: str) -> tuple:
        try:
            return tuple(map(kind, text.split(",")))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}s, got {text!r}") from None

    return parse


def _add_outdir_arg(p: argparse.ArgumentParser):
    p.add_argument("--outdir", help="artifact directory (default: a fresh run directory)")


def _resolve(args) -> tuple:
    config = resolve(preset=args.preset, file=args.config, overrides=args.overrides)
    return config, materialize(config)


def _run_dir(config: dict, outdir) -> str:
    if outdir:
        return outdir
    root = os.environ.get("TBPSLAB_OUT", "runs")
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return os.path.join(root, f"{stamp}-{fingerprint(config)}")


def _print_table(rows):
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0].keys())
    rendered = [
        [f"{v:.4f}" if isinstance(v, float) else str(v) for v in row.values()] for row in rows
    ]
    widths = [max(len(c), max(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rendered:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


def _write_table(rows, out_dir, name, config, seed):
    experiments.write_csv(rows, os.path.join(out_dir, f"{name}.csv"), fingerprint(config), seed)
    _print_table(rows)
    print(f"wrote {out_dir}/{name}.csv")


def _table_command(args, table_fn, name):
    config, exp = _resolve(args)
    out_dir = _run_dir(config, args.outdir)
    rows = table_fn(exp)
    os.makedirs(out_dir, exist_ok=True)
    dump_yaml(config, os.path.join(out_dir, "config.yaml"))
    _write_table(rows, out_dir, name, config, exp.seed)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    config, exp = _resolve(args)
    dataset = experiments.build_dataset(exp)
    save_jsonl(dataset, args.out)
    counts = {s: len(dataset.split(s)) for s in ("train", "val", "test")}
    ok = oracle_rank1(dataset.test, dataset.attrs)
    print(f"wrote {args.out}: {counts}, word-bag oracle rank-1 {ok:.3f}")
    return 0


def cmd_train(args) -> int:
    config, exp = _resolve(args)
    dataset = load_jsonl(args.data) if args.data else None
    out_dir = _run_dir(config, args.outdir)
    result = experiments.run_training(exp, dataset=dataset, out_dir=out_dir)
    print("\n".join(result.report.lines()))
    print(f"wrote {out_dir}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset = load_jsonl(args.data)
    report = evaluate_model(model, dataset.split(args.split))
    print("\n".join(report.lines()))
    return 0


def cmd_ablate(args) -> int:
    return _table_command(args, experiments.ABLATIONS[args.axis], f"ablate-{args.axis}")


def cmd_fewshot(args) -> int:
    return _table_command(args, lambda exp: experiments.fewshot_curve(exp, args.fractions), "fewshot")


def cmd_contribution(args) -> int:
    def table_fn(exp):
        run = experiments.run_training(exp)
        return experiments.contribution_table(run)

    return _table_command(args, table_fn, "contribution")


def cmd_compress(args) -> int:
    def table_fn(exp):
        return experiments.compression_series(exp, args.xs, args.mode)

    return _table_command(args, table_fn, f"compress-{args.mode}")


def cmd_study(args) -> int:
    """One training run, then every table with default settings, all on
    the run's corpus. The contribution table and both compression series
    score the run itself, and every table takes it as done: a row whose
    config is the run's is that run, not a retrain."""
    config, exp = _resolve(args)
    out_dir = _run_dir(config, args.outdir)
    run = experiments.run_training(exp, out_dir=os.path.join(out_dir, "run"))
    dump_yaml(config, os.path.join(out_dir, "config.yaml"))
    print("\n".join(run.report.lines()))
    ds = run.dataset
    scores = experiments.text_layer_scores(run)
    xs = tuple(x for x in COMPRESS_XS if x <= len(scores))  # the budgets its text layers afford
    done = (run,)
    tables = {
        **{f"ablate-{axis}": functools.partial(fn, exp, ds, done) for axis, fn in experiments.ABLATIONS.items()},
        "fewshot": lambda: experiments.fewshot_curve(exp, dataset=ds, done=done),
        "contribution": lambda: experiments.contribution_table(run),
        "compress-freeze": lambda: experiments.compression_series(exp, xs, "freeze", ds, scores, done),
        "compress-drop": lambda: experiments.compression_series(exp, xs, "drop", ds, scores, done),
    }
    for name, table_fn in tables.items():
        _write_table(table_fn(), out_dir, name, config, exp.seed)
    return 0


# ---------------------------------------------------------------------------
# selftest

def _selftest_checks():
    """Fast deterministic checks: gradients, schedule, metrics, round
    trips, and run reproducibility. The statistical and training-quality
    criteria live in the package's test suite, which runs these too."""
    import tempfile
    from dataclasses import replace

    from .augment import AugmentConfig
    from .data import SPLITS, ToySpec, build_vocab, generate_toy
    from .analyze import interpolate, reset_module
    from .evaluate import rank1_scorer, retrieval_metrics
    from .losses import LossConfig
    from .model import ModelConfig, init_model, save_checkpoint
    from .train import Schedule, assemble_batch, loss_and_grads, tower_copy

    def check_gradients():
        ds = generate_toy(ToySpec(n_identities=4, images_per_identity=2), Rng(11))
        cfg = ModelConfig(
            embed_dim=4, hidden_dim=5, image_layers=2, text_layers=2,
            patch_size=8, image_height=48, image_width=24,
            vocab=build_vocab(ds.train), dropout=0.1,
        )
        model = init_model(cfg, Rng(12))
        batch = assemble_batch(ds.train, range(4), AugmentConfig(image_mode="pool", text_mode="stack"), Rng(13))
        lcfg = LossConfig(
            weights={
                "n_itc": 1.0, "ss_i": 0.4, "mvs_i": 0.5, "mvs_t": 0.3, "r_itc": 0.7, "c_itc": 0.1
            }
        )
        _, grads, _ = loss_and_grads(model, batch, lcfg, Rng(14))
        coord_rng = Rng(15)
        keys = sorted(grads)
        coords = []
        for _ in range(60):
            key = keys[int(coord_rng.integers(0, len(keys)))]
            idx = tuple(int(coord_rng.integers(0, s)) for s in model.params[key].shape)
            coords.append((key, idx))
        worst = check_param_grads(
            lambda: loss_and_grads(model, batch, lcfg, Rng(14))[0], model.params, grads, coords
        )
        assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"

    def check_precision():
        for preset in ("clip-baseline", "tbps-clip"):
            exp = materialize(resolve(preset=preset, overrides=["data.n_identities=10"]))
            ds = experiments.build_dataset(exp)
            model = init_model(replace(exp.model, vocab=build_vocab(ds.train)), Rng(16))
            batch = assemble_batch(ds.train, range(16), exp.augment, Rng(17), loss_cfg=exp.loss)
            v64, g64, _ = loss_and_grads(model, batch, exp.loss, Rng(18))
            v32, g32, _ = loss_and_grads(tower_copy(model), batch, exp.loss, Rng(18))
            assert abs(v32 - v64) <= 1e-5 * abs(v64), f"{preset}: loss {v32} in float32, {v64} in float64"
            for key, g in g64.items():
                gap = np.linalg.norm(g32[key] - g) / np.linalg.norm(g)
                assert gap <= 1e-3, f"{preset}: {key} gradient off by {gap:.1e} of its norm"

    def check_schedule():
        s = Schedule(total_steps=200)
        assert abs(s.lr_at(0) - 1e-6) < 1e-18
        assert abs(s.lr_at(s.warmup_steps) - 1e-4) < 1e-12
        assert abs(s.lr_at(200) - 5e-6) < 1e-12

    def check_metrics():
        sim = np.array([[0.9, 0.8, 0.7, 0.6, 0.5]])
        rep = retrieval_metrics(sim, np.array([1]), np.array([9, 1, 9, 1, 9]))
        assert abs(rep.mean_ap - 0.5) < 1e-12 and abs(rep.mean_inp - 0.5) < 1e-12

    def check_scorer():
        overrides = [
            "data.n_identities=20", "data.images_per_identity=2",
            "model.hidden_dim=16", "model.embed_dim=8",
            "train.epochs=20", "train.batch_size=8",
        ]
        run = experiments.run_training(materialize(resolve(overrides=overrides)))
        split = run.dataset.train
        score = rank1_scorer(run.model, split)
        probes = [
            run.model,
            reset_module(run.model, run.model_init, "img.out"),
            reset_module(run.model, run.model_init, "txt.hidden.2"),
            # mid-tower probes: the scorer continues from the cached layer
            # below; the alphas are ones at which this run's Rank-1 moves
            interpolate(run.model_init, run.model, "img.hidden.1", 0.25),
            interpolate(run.model_init, run.model, "txt.hidden.0", 0.5),
        ]
        got = [score(m) for m in probes]
        assert got == [evaluate_model(m, split).rank1 for m in probes], got
        assert got[0] not in got[1:], f"a probe does not move Rank-1: {got}"

    def check_round_trips():
        with tempfile.TemporaryDirectory() as tmp:
            ds = generate_toy(ToySpec(n_identities=4, images_per_identity=2), Rng(21))
            path = os.path.join(tmp, "d.jsonl")
            save_jsonl(ds, path)
            back = load_jsonl(path)
            assert all(back.split(name) == ds.split(name) for name in SPLITS)
            assert oracle_rank1(ds.test, ds.attrs) == 1.0
            cfg = ModelConfig(vocab=build_vocab(ds.train))
            model = init_model(cfg, Rng(22))
            ck = os.path.join(tmp, "m.ckpt")
            save_checkpoint(model, ck)
            loaded = load_checkpoint(ck)
            assert all(np.array_equal(loaded.params[k], model.params[k]) for k in model.params)

    def check_reproducible_runs():
        overrides = [
            "data.n_identities=6", "data.images_per_identity=2",
            "model.hidden_dim=8", "model.embed_dim=4",
            "train.epochs=2", "train.batch_size=4",
        ]
        config = resolve(overrides=overrides)
        exp = materialize(config)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            experiments.run_training(exp, out_dir=a)
            experiments.run_training(exp, out_dir=b)
            for name in ("init.ckpt", "final.ckpt", "history.csv", "report.json", "config.yaml"):
                with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                    assert fa.read() == fb.read(), f"{name} differs between identical runs"

    return [
        ("analytic gradients match finite differences", check_gradients),
        ("float32 towers agree with float64", check_precision),
        ("schedule endpoints", check_schedule),
        ("retrieval metric hand case", check_metrics),
        ("contribution scorer equals evaluate_model", check_scorer),
        ("dataset and checkpoint round trips", check_round_trips),
        ("identical runs are byte-identical", check_reproducible_runs),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as e:  # noqa: BLE001 - report every failure kind
            failures += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} self-test check(s) failed")
        return 3
    print("all self-test checks passed")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbpslab",
        description="contrastive text-person retrieval laboratory",
        epilog=CONFIG_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic corpus as JSONL")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train and write run artifacts")
    _add_config_args(p)
    _add_outdir_arg(p)
    p.add_argument("--data", help="existing corpus JSONL (default: generate from config)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="corpus JSONL")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation table")
    p.add_argument("axis", choices=tuple(experiments.ABLATIONS))
    _add_config_args(p)
    _add_outdir_arg(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("fewshot", help="training-set size curve")
    _add_config_args(p)
    _add_outdir_arg(p)
    p.add_argument(
        "--fractions", type=_csv_of(float), default=experiments.FEWSHOT_FRACTIONS,
        help="comma-separated training-set fractions",
    )
    p.set_defaults(func=cmd_fewshot)

    p = sub.add_parser("contribution", help="per-module contribution scores")
    _add_config_args(p)
    _add_outdir_arg(p)
    p.set_defaults(func=cmd_contribution)

    p = sub.add_parser("compress", help="freeze or drop low-contribution text layers")
    _add_config_args(p)
    _add_outdir_arg(p)
    p.add_argument("--mode", required=True, choices=("freeze", "drop"))
    p.add_argument("--xs", type=_csv_of(int), default=COMPRESS_XS, help="comma-separated budgets")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("study", help="one training run plus every table, in one directory")
    _add_config_args(p)
    _add_outdir_arg(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("selftest", help="fast built-in correctness checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (NonFiniteLoss, ParseError, OSError, ValueError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
