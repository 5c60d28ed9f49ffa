"""Command-line interface.

`switchnet pipeline` runs the whole experiment from one config file; the other
subcommands expose the individual stages over the same file formats and call
the pipeline's own stage functions, so a manual chain of subcommands
reproduces the pipeline's artifacts byte-for-byte (timings aside).
"""

import argparse
import errno
import re
import sys
from pathlib import Path

from ._version import ARTIFACT_VERSION
from .analysis import (STATISTICS, attribute, export_heatmap_csv, heatmap, readings,
                       render_heatmap_svg, save_attribution)
from .data import (GroupSpec, PartitionSet, generate_synthetic, load_dataset, make_test_sets,
                   partition, save_dataset)
from .errors import ConfigError, DataError, StageError, SwitchNetError
from .federated import node_train_config
from .jsonio import is_int, read_input, write_json
from .network import SET_KINDS, evaluate, load_network
from .neuron import init_unit, save_unit, train_unit
from .pipeline import (ReportBundle, _not_a_directory, data_stage, default_config_path, load_config,
                       readout_stage, run_pipeline, switch_stage, train_stage, write_test_sets, write_training)


def _require_file(path, what: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _file_key(path: Path):
    """What names one file: an existing file's device and inode, which a symbolic
    or hard link shares, else the resolved path."""
    try:
        status = path.stat()
    except FileNotFoundError:
        return path.resolve()
    return status.st_dev, status.st_ino


def _check_outputs(inputs, *outputs) -> None:
    """Refuse an output file path that is a directory, whose parent is not an
    existing directory, or that names the same file as one of the subcommand's
    `inputs` or as an earlier output (`_file_key`). A subcommand with several
    outputs checks them all after reading its inputs, so a bad later output
    does not leave the earlier ones written. `None` (an optional input or
    output left unset) is skipped."""
    taken = {_file_key(Path(p)): "an input" for p in inputs if p is not None}
    for path in (Path(p) for p in outputs if p is not None):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
        if not path.parent.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, f"{path.parent} is not an existing directory",
                                     str(path))
        key = _file_key(path)
        if key in taken:
            raise OSError(errno.EINVAL, f"it is also {taken[key]} of this command", str(path))
        taken[key] = "another output"


def _check_output_dir(path) -> None:
    """Refuse an output directory path that exists and is not a directory, or
    whose nearest existing ancestor is not a directory; a missing one under
    directories is created when written."""
    path = Path(path)
    blocker = _not_a_directory(path)
    if blocker is not None:
        reason = "Not a directory" if blocker == path else f"{blocker} is not a directory"
        raise NotADirectoryError(errno.ENOTDIR, reason, str(path))


def _config_path(args) -> Path:
    return Path(args.config or default_config_path())


def _load_cli_config(args):
    return load_config(_config_path(args), getattr(args, "set", None) or [])


def _ids_for_kind(test_sets_path, kind: str):
    doc = read_input(_require_file(test_sets_path, "test-sets file"), "test-sets file")
    key = kind.replace("-", "_")
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise ConfigError(f"test-sets file {test_sets_path} has no {key!r} id list")
    bad = [i for i in doc[key] if not is_int(i)]
    if bad:
        raise ConfigError(f"test-sets file: {key} ids must be integers, got {bad[0]!r}")
    return doc[key]


def _print_warnings(warnings) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def cmd_pipeline(args) -> int:
    config = _load_cli_config(args)
    bundle = run_pipeline(config)
    _print_warnings(bundle.switch_warnings)
    print(f"bundle written to {bundle.out_dir}")
    for path in bundle.all_paths():
        print(f"  {path.name}")
    return 0


def cmd_gen_data(args) -> int:
    if args.specs is not None:
        if args.config is not None or args.set:
            raise ConfigError("gen-data with --specs takes no --config or --set")
        if args.seed is None:
            raise ConfigError("gen-data with --specs also needs --seed")
        specs = read_input(_require_file(args.specs, "group specs file"), "group specs file",
                           lambda doc: tuple(map(GroupSpec.from_json, doc)))
        dataset = generate_synthetic(specs, args.seed)
    else:
        if args.seed is not None:
            raise ConfigError("gen-data without --specs takes no --seed; use --set seed=N")
        config = _load_cli_config(args)
        if config.specs is None:
            raise ConfigError("config points at an existing dataset; nothing to generate")
        dataset = data_stage(config)
    _check_outputs((args.specs or _config_path(args),), args.out)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} observations to {args.out}")
    return 0


def cmd_partition(args) -> int:
    config = _load_cli_config(args)
    dataset = load_dataset(_require_file(args.dataset, "dataset CSV"))
    _check_outputs((_config_path(args), args.dataset), args.out, args.test_sets)
    parts = partition(dataset, config.plan, config.seed)
    test_sets = None
    if args.test_sets:  # drawn before either file is written, so a failed draw writes neither
        test_sets = make_test_sets(dataset, parts, config.holdout_fraction, config.seed)
    write_json(parts.to_json(), args.out)
    print(f"wrote partition of {len(parts.assigned_ids())} observations to {args.out}")
    if test_sets:
        write_test_sets(args.test_sets, config, *test_sets)
        print(f"wrote test sets ({len(test_sets[0])} overlapping, "
              f"{len(test_sets[1])} non-overlapping) to {args.test_sets}")
    return 0


def cmd_train(args) -> int:
    config = _load_cli_config(args)
    dataset = load_dataset(_require_file(args.dataset, "dataset CSV"))
    parts = read_input(_require_file(args.partition, "partition JSON"), "partition JSON", PartitionSet.from_json)
    if not 0 <= args.unit < len(parts.subsets):
        raise ConfigError(f"partition has no unit {args.unit}")
    _check_outputs((_config_path(args), args.dataset, args.partition), args.out_unit, args.out_log)
    subset = dataset.subset(parts.subsets[args.unit])
    unit = init_unit(dataset.dim, config.activation, args.unit, config.seed)
    trained, log = train_unit(unit, subset, node_train_config(config.train, args.unit))
    save_unit(trained, args.out_unit)
    if args.out_log:
        write_json({"unit_index": args.unit, **log.to_json()}, args.out_log)
    print(f"trained unit {args.unit} on {len(subset)} observations "
          f"(final loss {log.final_loss:.6f}) -> {args.out_unit}")
    return 0


def cmd_fedsim(args) -> int:
    config = _load_cli_config(args)
    dataset = load_dataset(_require_file(args.dataset, "dataset CSV"))
    parts = read_input(_require_file(args.partition, "partition JSON"), "partition JSON", PartitionSet.from_json)
    out = Path(args.out_dir)
    _check_output_dir(out)
    if (out / "manifest.json").exists():
        raise DataError(f"{out / 'manifest.json'} marks a pipeline bundle: fedsim would leave its config "
                        "and manifest naming another run; choose another --out-dir")
    n = len(parts.subsets)  # a unit file past these would sit beside a network without that unit
    stale = sorted(p for p in out.glob("unit_*.json") if re.fullmatch(r"unit_\d+", p.stem) and int(p.stem[5:]) >= n)
    if stale:
        raise DataError(f"{stale[0]} is a stale unit file: the partition has {n} units; "
                        "remove it or choose another --out-dir")
    switch, warnings = switch_stage(config, dataset)
    _print_warnings(warnings)
    net, fed = train_stage(config, dataset, parts, switch)
    net = readout_stage(config, net, dataset, parts)
    out.mkdir(parents=True, exist_ok=True)
    write_training(ReportBundle(out, net.n_units), net, fed)
    print(f"trained {len(net.units)} nodes with {fed.workers} worker(s) -> {out}")
    return 0


def cmd_eval(args) -> int:
    net = load_network(_require_file(args.network, "network bundle"))
    dataset = load_dataset(_require_file(args.dataset, "dataset CSV"))
    ids = _ids_for_kind(args.test_sets, args.kind)
    _check_outputs((args.network, args.dataset, args.test_sets), args.out, args.out_contribution)
    if args.out_contribution:  # both reports from one gated pass, through the pipeline's `readings`
        metrics, report, _ = readings(net, ids, dataset, args.kind)
        write_json(metrics.to_json(), args.out)
        write_json(report.to_json(), args.out_contribution)
    else:
        metrics = evaluate(net, ids, dataset, args.kind)
        write_json(metrics.to_json(), args.out)
    print(f"{args.kind} accuracy {metrics.accuracy:.4f} over {metrics.n} observations -> {args.out}")
    return 0


def cmd_heatmap(args) -> int:
    net = load_network(_require_file(args.network, "network bundle"))
    dataset = load_dataset(_require_file(args.dataset, "dataset CSV"))
    ids = _ids_for_kind(args.test_sets, args.kind)
    _check_outputs((args.network, args.dataset, args.test_sets), args.out_csv, args.out_svg,
                   args.out_attribution)
    matrix = heatmap(net, ids, dataset, args.statistic)
    export_heatmap_csv(matrix, args.out_csv)
    render_heatmap_svg(matrix, args.out_svg)
    if args.out_attribution:
        save_attribution(attribute(matrix), args.out_attribution)
    print(f"heatmap ({matrix.n_rows} units x {matrix.n_cols} groups) -> {args.out_csv}, {args.out_svg}")
    return 0


def _add_config_arg(sub, required=False):
    sub.add_argument("--config", default=None, required=required,
                     help="experiment config JSON (defaults to the packaged default)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="dotted-key config override, e.g. train.epochs=100")


def _gen_data_args(p):
    _add_config_arg(p)
    p.add_argument("--specs", default=None, help="group specs JSON (alternative to --config)")
    p.add_argument("--seed", type=int, default=None, help="seed when using --specs (else --set seed=N)")
    p.add_argument("--out", required=True, help="output dataset CSV path")


def _partition_args(p):
    _add_config_arg(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output partition JSON path")
    p.add_argument("--test-sets", default=None, help="also write the test-set id lists here")


def _train_args(p):
    _add_config_arg(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--unit", type=int, required=True)
    p.add_argument("--out-unit", required=True)
    p.add_argument("--out-log", default=None)


def _fedsim_args(p):
    _add_config_arg(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out-dir", required=True)


def _eval_args(p):
    p.add_argument("--network", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--test-sets", required=True)
    p.add_argument("--kind", choices=SET_KINDS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-contribution", default=None,
                   help="also write the per-unit ablation contribution report")


def _heatmap_args(p):
    p.add_argument("--network", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--test-sets", required=True)
    p.add_argument("--kind", choices=SET_KINDS, default="non-overlapping")
    p.add_argument("--statistic", choices=STATISTICS, default="mean")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.add_argument("--out-attribution", default=None)


# Each subcommand, in `--help` order: its help line, its handler and what adds its arguments.
_SUBCOMMANDS = {
    "pipeline": ("run the full experiment and write the artifact bundle", cmd_pipeline, _add_config_arg),
    "gen-data": ("generate the synthetic dataset CSV", cmd_gen_data, _gen_data_args),
    "partition": ("partition a dataset per the config's plan", cmd_partition, _partition_args),
    "train": ("train a single unit on its partition subset", cmd_train, _train_args),
    "fedsim": ("train all units on virtual nodes and collect the network", cmd_fedsim, _fedsim_args),
    "eval": ("evaluate a network bundle on a test set", cmd_eval, _eval_args),
    "heatmap": ("probe-activation heatmap, attribution, and exports", cmd_heatmap, _heatmap_args),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser: with every subcommand, or with `command`'s alone, which
    parses that subcommand's argv as the whole parser does."""
    parser = argparse.ArgumentParser(prog="switchnet",
                                     description="Switch-gated modular network experiments")
    parser.add_argument("--version", action="version", version=f"switchnet {ARTIFACT_VERSION}")
    # the metavar keeps the usage line that names every subcommand; it is set
    # for one subcommand only, since it would also rename the argument in the
    # whole parser's "invalid choice" and "required" errors
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="{" + ",".join(_SUBCOMMANDS) + "}" if command else None)
    for name in (command,) if command else _SUBCOMMANDS:
        help_line, handler, add_args = _SUBCOMMANDS[name]
        p = subs.add_parser(name, help=help_line)
        add_args(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # an argv led by a subcommand builds that subcommand's parser alone
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 2
    except SwitchNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # inputs fail as SwitchNetErrors, so this is an output that cannot be written
        if exc.filename is None:
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
