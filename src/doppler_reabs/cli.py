"""Command-line front end.

Verbs:
  simulate     dynamics and steady_state scenarios
  scan         aspect_scan, intensity_scan and od_scan scenarios
  fit          parameter estimation for dynamics and scan models
  selfcheck    recompute the built-in reference numbers
  preset-dump  print the built-in presets in config format

Scenario configs are sectioned key=value text (see parse_config).  CSV
goes to --out when given, else to the path in scenario.output, else to
stdout.  Exit codes: 0 success, 1 invalid input (usage errors too),
2 fit that did not converge, 3 selfcheck failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import KINDS, ConfigError, ScenarioConfig, parse_config, preset_dump
from .runners import (
    _fit_csv,
    fit_scenario,
    run_aspect_scan,
    run_dynamics,
    run_intensity_scan,
    run_od_scan,
    run_selfcheck,
    run_steady_state,
)

_RUNNERS = {
    "dynamics": run_dynamics,
    "steady_state": run_steady_state,
    "aspect_scan": run_aspect_scan,
    "intensity_scan": run_intensity_scan,
    "od_scan": run_od_scan,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as invalid input (its subparsers share the class)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache  # parse_args returns a fresh namespace, so calls can share one parser
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doppler-reabs",
        description="Doppler cooling of dense spin-polarized clouds: "
                    "simulation, scans and parameter fits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_config_verb(name, help_text, with_seed=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", help="output CSV path (default: scenario.output or stdout)")
        if with_seed:
            p.add_argument(
                "--seed", type=int, default=0,
                help="RNG seed for synthetic fit data (default 0)",
            )
        return p

    add_config_verb("simulate", "run a dynamics or steady_state scenario")
    add_config_verb("scan", "run an aspect, intensity or optical-density scan")
    add_config_verb("fit", "fit model parameters for a scenario", with_seed=True)

    p_check = sub.add_parser("selfcheck", help="verify the built-in anchor numbers")
    p_check.add_argument("--out", help="write the report here instead of stdout")

    p_dump = sub.add_parser("preset-dump", help="print the built-in presets")
    p_dump.add_argument("--out", help="write the presets here instead of stdout")
    return parser


def _load_config(args) -> ScenarioConfig:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = parse_config(handle.read())
    if args.verb not in KINDS[config.kind].verbs:
        allowed = ", ".join(kind for kind, row in KINDS.items() if args.verb in row.verbs)
        raise ConfigError(
            [(0, f"scenario kind '{config.kind}' does not run under "
                 f"'{args.verb}' (expected one of: {allowed})")]
        )
    return config


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "selfcheck":
            report = run_selfcheck()
            _emit(report.table(), args.out)
            return 0 if report.all_passed else 3
        if args.verb == "preset-dump":
            _emit(preset_dump(), args.out)
            return 0
        config = _load_config(args)
        out_path = args.out or config.output
        if args.verb == "fit":
            result = fit_scenario(config, seed=args.seed)
            _emit(_fit_csv(config, result), out_path)
            if not result.converged:
                print("error: fit did not converge; parameters reported "
                      "without standard errors", file=sys.stderr)
                return 2
            return 0
        text = _RUNNERS[config.kind](config)
        _emit(text, out_path)
        return 0
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # a config value so extreme that the model's arithmetic leaves
        # the float range (overflow, or a product that underflows to 0)
        print(f"error: input out of the model's numeric range: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
