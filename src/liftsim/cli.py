"""Command-line interface: simulate, train, verify, abtest, examples.

Every subcommand takes one JSON config file (``--set section.key=value``
overrides individual leaves), writes its outputs atomically under the
output directory, and stamps each artifact with the master seed and the
resolved config digest so any report can be regenerated bit for bit.

Exit codes: 0 success, 2 configuration error (a world whose lift cannot
calibrate the lift bidder is one), 3 data error, 4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import locale  # noqa: F401 -- argparse's gettext imports it as main builds the parser
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .attribution import AccountingError
from .bidders import CalibrationError, lineup
from .events import EventLog, EventLogError
from .experiments import (
    ABTestReport, DISCLAIMER, MC_FAMILY_ALPHA, run_abtest, run_worked_example,
    verify_theorems,
)
from .fileio import atomic_write_text, json_digest
from .liftmodel.features import FeatureSchema
from .liftmodel.gbdt import TrainingError
from .liftmodel.pipeline import (
    CalibratedModel, ModelBidEstimator, ModelFileError, SchemaMismatch,
    train_calibrated_model,
)
from .liftmodel.sampling import SamplingError, export_samples, generate_samples
from .market import micros_to_dollars
from .seeds import derive_seed
from .world import (
    MarketInvariantError, WorldConfigError, assign_groups, generate_population,
    market_run_digest, precedent_impression_fraction, run_market,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

def _load(args: argparse.Namespace) -> dict:
    cfg = cfgmod.load_config(args.config) if args.config else {}
    cfg = cfgmod.apply_overrides(cfg, args.set or [])
    return cfg


def _prepare_market(cfg: dict):
    """World, population, campaign, bidders, assignment, digest."""
    seed = cfgmod.master_seed(cfg)
    world = cfgmod.build_world(cfg, derive_seed(seed, "world"))
    population = generate_population(world)
    campaign = cfgmod.build_campaign(cfg)
    bidders = lineup(campaign.cpa, population)
    assignment = assign_groups(world, len(bidders))
    digest = market_run_digest(world, campaign, bidders, assignment)
    return seed, world, population, campaign, bidders, assignment, digest


def _print_and_write(lines: list[str], path: Path | None) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if path is not None:
        atomic_write_text(path, text)


def _jsonl(records: list[dict], header: dict, path: Path) -> None:
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines += [json.dumps(r, sort_keys=True, separators=(",", ":"))
              for r in records]
    atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    (seed, world, population, campaign, bidders, assignment,
     digest) = _prepare_market(cfg)
    run = run_market(population, bidders, campaign, world, assignment)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "events.jsonl"
    run.log.write(log_path)

    try:
        precedent = precedent_impression_fraction(
            run.log, campaign.advertiser_id, lookback_days=7)
    except ValueError:
        precedent = None
    summary = {
        "master_seed": seed,
        "config_digest": json_digest(cfg),
        "run_digest": digest,
        "n_users": world.n_users,
        "events": len(run.log),
        "precedent_impression_fraction_7d": precedent,
        "groups": [g.as_dict() for g in run.groups],
    }
    atomic_write_text(out / "simulate_summary.json",
                      json.dumps(summary, sort_keys=True, indent=2) + "\n")

    lines = [f"wrote {log_path} ({len(run.log)} events)",
             f"master_seed={seed} run_digest={digest}"]
    if precedent is not None:
        lines.append(f"actions with a same-advertiser impression in the "
                     f"prior 7d: {precedent:.1%}")
    for g in run.groups:
        lines.append(
            f"  {g.bidder}: users={g.n_users} requests={g.requests} "
            f"impressions={g.impressions} actions={g.actions} "
            f"attributed={g.attributed_billed} "
            f"cost=${micros_to_dollars(g.inventory_cost):,.2f}"
            + (f" spent_out@w{g.stop_window}" if g.spent_out else ""))
    _print_and_write(lines, None)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load(args)
    (seed, world, population, campaign, bidders, assignment,
     digest) = _prepare_market(cfg)
    log = EventLog.read(args.log)
    if log.config_digest != digest:
        raise EventLogError(
            f"log digest {log.config_digest} does not match the config's "
            f"market digest {digest}")

    schema = FeatureSchema((campaign.advertiser_id,), world.topics, world.apps)
    sampling = cfgmod.build_sampling(cfg, seed, campaign)
    params = cfgmod.build_model_params(cfg)
    samples = generate_samples(log, population, sampling, schema)
    if args.samples_out:
        export_samples(samples, args.samples_out)
    model, report = train_calibrated_model(
        samples, schema, params, seed=derive_seed(seed, "model"),
        feature_window_seconds=sampling.feature_window_seconds)
    model.metadata["config_digest"] = json_digest(cfg)
    model.metadata["log_digest"] = log.config_digest
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = Path(args.model_out) if args.model_out else out / "model.json"
    model.save(model_path)

    header = {"master_seed": seed, "config_digest": json_digest(cfg),
              "schema_digest": model.schema_digest,
              "isotonic_degenerate": report.isotonic_degenerate}
    _jsonl([d for d in report.deciles], header, out / "calibration.jsonl")
    lines = [f"wrote {model_path}",
             f"samples={len(samples)} positives={np.count_nonzero(samples.label)}",
             f"schema_digest={model.schema_digest}",
             "decile  n      predicted  empirical  within"]
    for d in report.deciles:
        lines.append(f"  d{d['decile']:<4d}{d['n']:<7d}"
                     f"{d['mean_predicted']:<11.5f}{d['action_rate']:<11.5f}"
                     f"{'yes' if d['within'] else 'NO'}")
    _print_and_write(lines, out / "calibration.txt")
    return EXIT_OK


def _worked_example_lines(report) -> list[str]:
    lines = ["two-user worked example (exact):",
             "  strategy  wins  expected_actions  dsp_revenue  inventory_cost"]
    for o in (report.value, report.lift):
        lines.append(
            f"  {o.strategy:<9s} {','.join(o.won_users) or '-':<5s} "
            f"{o.expected_actions:<17.6f} "
            f"${micros_to_dollars(o.dsp_revenue):<11.2f} "
            f"${micros_to_dollars(o.inventory_cost):.2f}")
    return lines


def _example_values_exact(report) -> bool:
    def close(a, b):
        return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    return (close(report.value.expected_actions, 0.041)
            and close(report.lift.expected_actions, 0.05)
            and report.value.dsp_revenue == 4_000_000
            and report.lift.dsp_revenue == 2_000_000
            and report.value.inventory_cost == 3_500_000
            and report.lift.inventory_cost == 3_500_000)


def _verdict(ok: bool, what: str) -> int:
    """EXIT_OK, or EXIT_VERIFY with one stderr line naming what failed."""
    if ok:
        return EXIT_OK
    sys.stderr.write(f"verification error: {what} failed\n")
    return EXIT_VERIFY


def cmd_examples(args: argparse.Namespace) -> int:
    report = run_worked_example()
    _print_and_write([DISCLAIMER] + _worked_example_lines(report), None)
    return _verdict(_example_values_exact(report), "the worked example")


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load(args)
    seed = cfgmod.master_seed(cfg)
    example = run_worked_example()
    example_ok = _example_values_exact(example)

    sweep = cfgmod.build_sweep(cfg, seed)
    reports = verify_theorems(sweep)

    lines = [DISCLAIMER, ""]
    lines += _worked_example_lines(example)
    lines.append(f"  exact values: {'ok' if example_ok else 'MISMATCH'}")
    all_ok = example_ok
    records = []
    mc_family = None
    for mode, rep in reports.items():
        lines.append("")
        lines.append(
            f"{mode} sweep: {len(rep.records)}/{rep.n_instances} instances, "
            f"actions dominance {rep.n_actions_pass}/{rep.n_instances}, "
            f"cost dominance {rep.n_cost_pass}/{rep.n_instances}, "
            f"calibration regenerations {rep.n_skipped_calibration}, "
            f"degenerate draws {rep.n_skipped_degenerate}")
        if rep.mc_checks:
            ok = sum(c.within for c in rep.mc_checks)
            lines.append(f"  monte-carlo cross-checks within {rep.mc_z:.2f} se "
                         f"(family-wise alpha {MC_FAMILY_ALPHA}, Bonferroni): "
                         f"{ok}/{len(rep.mc_checks)}")
            mc_family = {"alpha": MC_FAMILY_ALPHA,
                         "checks": len(rep.mc_checks), "z": rep.mc_z}
        residuals = rep.residuals()
        if residuals:
            lines.append(f"  attribution residual: max {max(residuals):.2e}, "
                         f"mean {np.mean(residuals):.2e}")
        all_ok = all_ok and rep.all_passed
        records += [{"mode": mode, **r} for r in rep.records]
        records += [{"mode": mode, "mc_check": vars(c)} for c in rep.mc_checks]

    lines.append("")
    lines.append(f"verification: {'PASS' if all_ok else 'FAIL'}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = {"master_seed": seed, "config_digest": json_digest(cfg),
              "notes": DISCLAIMER, "mc_family": mc_family}
    _jsonl(records, header, out / "verify_report.jsonl")
    _print_and_write(lines, out / "verify_report.txt")
    return _verdict(all_ok, f"the checks in {out / 'verify_report.txt'}")


def _abtest_lines(report: ABTestReport) -> list[str]:
    signs = report.sign_counts()
    n = signs["replications"]
    lines = [DISCLAIMER, "",
             f"three-group protocol over {n} replications:",
             f"  lift bidder yields more actions:  "
             f"{signs['lift_more_actions']}/{n}",
             f"  inventory-cost diff positive:     "
             f"{signs['inventory_cost_diff_positive']}/{n}",
             f"  cost-per-impression diff negative: "
             f"{signs['cost_per_imp_diff_negative']}/{n}",
             f"  both bidders spent out:            "
             f"{signs['all_spent_out']}/{n}", "",
             "  rep  passive  value(act/imps)  lift(act/imps)  "
             "lift_over_lift  cost_diff  cpi_diff"]
    for r in report.replications:
        g = r.groups
        lol = f"{r.lift_over_lift:+.0%}" if r.lift_over_lift is not None else "-"
        cd = (f"{r.inventory_cost_diff:+.1%}"
              if r.inventory_cost_diff is not None else "-")
        cpd = (f"{r.cost_per_imp_diff:+.1%}"
               if r.cost_per_imp_diff is not None else "-")
        lines.append(
            f"  {r.replication:<4d} {g['passive']['actions']:<8d}"
            f"{g['value']['actions']}/{g['value']['impressions']:<12d}"
            f"{g['lift']['actions']}/{g['lift']['impressions']:<12d}"
            f"{lol:<15s} {cd:<10s} {cpd}")
    return lines


def cmd_abtest(args: argparse.Namespace) -> int:
    cfg = _load(args)
    seed = cfgmod.master_seed(cfg)
    ab_config = cfgmod.build_abtest(cfg, seed)
    estimator_factory = None
    if args.bids != "oracle":
        model = CalibratedModel.load(args.bids)
        # Every replication's world has the first one's schema and behavior.
        world = ab_config.world(0)
        world_digest = FeatureSchema((ab_config.advertiser,), world.topics,
                                     world.apps).digest()
        if world_digest != model.schema_digest:
            raise SchemaMismatch(
                f"model schema {model.schema_digest} does not match the "
                f"abtest world schema {world_digest}")
        if not world.behavior_settings["enabled"]:
            raise cfgmod.ConfigError(
                "model-driven bidding needs behavior events; set "
                "abtest.world_overrides.behavior.enabled=true")

        def estimator_factory(population, advertiser, behavior):
            return ModelBidEstimator(model, population, advertiser, behavior)

    report = run_abtest(ab_config, estimator_factory=estimator_factory)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = {"master_seed": seed, "config_digest": json_digest(cfg),
              "bid_source": args.bids, "notes": DISCLAIMER,
              "sign_counts": report.sign_counts()}
    _jsonl([r.as_dict() for r in report.replications], header,
           out / "abtest_report.jsonl")
    _print_and_write(_abtest_lines(report), out / "abtest_report.txt")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftsim",
        description="Second-price RTB market simulator with value-, lift- "
                    "and attribution-aware bidding.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True):
        p.add_argument("--config", required=config_required,
                       help="path to the JSON run configuration")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config leaf (repeatable)")
        p.add_argument("--out-dir", default=".",
                       help="output directory (default: the current one)")

    p = sub.add_parser("simulate", help="generate a world and its event log")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="train the lift model from an event log")
    common(p)
    p.add_argument("--log", required=True, help="event log from `simulate`")
    p.add_argument("--model-out", help="model file path (default out/model.json)")
    p.add_argument("--samples-out", help="also export training samples (jsonl)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("verify", help="run the exact dominance verification")
    common(p, config_required=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("abtest", help="run the three-group A/B protocol")
    common(p)
    p.add_argument("--bids", default="oracle",
                   help="'oracle' or a path to a trained model.json")
    p.set_defaults(fn=cmd_abtest)

    p = sub.add_parser("examples", help="print the two-user worked example")
    common(p, config_required=False)
    p.set_defaults(fn=cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (cfgmod.ConfigError, WorldConfigError, CalibrationError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:  # until worlds have a size rule
        sys.stderr.write(f"config error: too large for memory: "
                         f"{exc or 'an allocation failed'}\n")
        return EXIT_CONFIG
    except (EventLogError, SamplingError, TrainingError, SchemaMismatch,
            ModelFileError, AccountingError, OSError,
            UnicodeDecodeError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except MarketInvariantError as exc:
        sys.stderr.write(f"verification error: {exc}\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
