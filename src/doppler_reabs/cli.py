"""Command-line front end: doppler-reabs <verb> [--flag VALUE ...].

The verbs are simulate (dynamics and steady_state scenarios), scan
(aspect, intensity and OD scans), fit (parameter estimation), selfcheck
(recompute the built-in reference numbers) and preset-dump (the presets
in config format).  `_VERBS` gives each verb its flags and their
metavars; --config, where a verb takes it, is required.  Scenario
configs are sectioned key=value text (see parse_config).  Output goes to
--out when given, else to the path in scenario.output, else to stdout,
in batches of at least 64 KiB (the last may be shorter); a trace's lines
are rendered as its run reaches each sample.  The file is opened with
the first batch: a run that fails before it leaves an existing file as
it was, one that fails after it leaves a partial file, and both exit 1.
Exit codes: 0 success, 1 invalid input (usage errors too), 2 fit that
did not converge, 3 selfcheck failure.  The fit and selfcheck verbs load
their modules (fitting, selfcheck) when they run.
"""

from __future__ import annotations

import os
import sys

from .config import (_O_BINARY, KINDS, ConfigError, ScenarioConfig, _read_text, parse_config,
                     preset_dump)
from .runners import (_trace_lines, run_aspect_scan, run_intensity_scan, run_od_scan,
                      run_steady_state)

_BATCH = 1 << 16  # characters that one write takes, at least (all but the last)
_RUNNERS = {  # each gives its CSV as one text, or a trace's as its lines
    "dynamics": _trace_lines,
    "steady_state": run_steady_state,
    "aspect_scan": run_aspect_scan,
    "intensity_scan": run_intensity_scan,
    "od_scan": run_od_scan,
}

_VERBS = {
    "simulate": {"--config": "FILE", "--out": "CSV"},
    "scan": {"--config": "FILE", "--out": "CSV"},
    "fit": {"--config": "FILE", "--out": "CSV", "--seed": "N"},
    "selfcheck": {"--out": "FILE"},
    "preset-dump": {"--out": "FILE"},
}
_FLAGS = {verb: " ".join(f"{flag} {meta}" if flag == "--config" else f"[{flag} {meta}]"
                         for flag, meta in flags.items()) for verb, flags in _VERBS.items()}
_SYNOPSIS = "\n".join(f"doppler-reabs {verb:<11} {flags}" for verb, flags in _FLAGS.items())


def _parse(argv: list[str]) -> tuple[str, dict[str, str], int]:
    """The verb, its {flag: value} and the seed; ValueError for a malformed argv."""
    verb, *words = argv or [""]
    if verb not in _VERBS:
        raise ValueError(f"invalid verb '{verb}' (choose from {', '.join(_VERBS)})" if verb
                         else "the following arguments are required: verb")
    flags, opts, words = _VERBS[verb], {}, iter(words)
    for word in words:
        flag, eq, value = word.partition("=")
        if flag not in flags:
            raise ValueError(f"unrecognized argument '{word}' (expected {', '.join(flags)})")
        # without "=", the value is the next word, unless that is a flag
        if not eq and (value := next(words, "--")).startswith("--"):
            raise ValueError(f"argument {flag}: expected one argument")
        opts[flag] = value  # a repeated flag keeps its last value
    if "--config" in flags and "--config" not in opts:
        raise ValueError("the following arguments are required: --config")
    try:
        return verb, opts, int(opts.get("--seed", 0))
    except ValueError:
        raise ValueError(f"argument --seed: invalid int value: {opts['--seed']!r}") from None


def _load_config(verb: str, path: str) -> ScenarioConfig:
    config = parse_config(_read_text(path))
    if verb not in KINDS[config.kind].verbs:
        allowed = ", ".join(kind for kind, row in KINDS.items() if verb in row.verbs)
        raise ConfigError(
            [(0, f"scenario kind '{config.kind}' does not run under "
                 f"'{verb}' (expected one of: {allowed})")]
        )
    return config


def _batches(texts):
    """texts joined into batches of at least _BATCH characters, but the last."""
    batch, size = [], 0
    for text in texts:
        batch.append(text)
        size += len(text)
        if size >= _BATCH:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)


def _emit(texts, out_path: str | None) -> None:
    """Write texts (one text, or an iterable of them) as UTF-8 to out_path as
    open(out_path, "wb") would, through the descriptor, else to stdout, in
    _batches.  The file is opened for the first batch, so a run that fails
    before it leaves no file, and a text shorter than a batch is one write."""
    fd = None
    try:
        for batch in _batches((texts,) if isinstance(texts, str) else texts):
            if not out_path:
                sys.stdout.write(batch)
                continue
            if fd is None:
                fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _O_BINARY, 0o666)
            data = memoryview(batch.encode("utf-8"))
            while data:  # a write may take part of the data
                data = data[os.write(fd, data):]
    finally:
        if fd is not None:
            os.close(fd)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_SYNOPSIS)
        return 0
    try:
        verb, opts, seed = _parse(argv)
    except ValueError as exc:  # the given verb's usage, else every verb's
        usage = next((f"doppler-reabs {verb} {_FLAGS[verb]}"
                      for verb in argv[:1] if verb in _FLAGS), _SYNOPSIS)
        print(f"usage: {usage}\nerror: {exc}", file=sys.stderr)
        return 1
    try:
        if verb == "selfcheck":
            from .selfcheck import run_selfcheck
            report = run_selfcheck()
            _emit(report.table(), opts.get("--out"))
            return 0 if report.all_passed else 3
        if verb == "preset-dump":
            _emit(preset_dump(), opts.get("--out"))
            return 0
        config = _load_config(verb, opts["--config"])
        out_path = opts.get("--out") or config.output
        if verb == "fit":
            from .fitting import _fit_csv, fit_scenario
            result = fit_scenario(config, seed=seed)
            _emit(_fit_csv(config, result), out_path)
            if not result.converged:
                print("error: fit did not converge; parameters reported "
                      "without standard errors", file=sys.stderr)
                return 2
            return 0
        _emit(_RUNNERS[config.kind](config), out_path)
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
