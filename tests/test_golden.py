"""Golden outputs: the CLI's bytes on the reference configs stay as recorded.

Each case runs cli.main and hashes (exit code, output file, stdout,
stderr) with SHA-256.  The cases are the tests/test_cli.py configs
under every verb their kind runs, a dynamics config frozen and
self-consistent, each fit at seeds 0 and 1, each fuzz CASES entry,
selfcheck and preset-dump.  A change that keeps every digest changes
no output byte on these runs.  The digests hold for this platform's
float arithmetic; `python tests/test_golden.py` prints the current ones,
to re-record them when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from doppler_reabs.cli import main
from doppler_reabs.config import KINDS, parse_config
from test_cli import ASPECT, DYNAMICS, INTENSITY_FIT, OD_SCAN, STEADY
from test_config_fuzz import CASES

FROZEN = "self_consistent = false"
MODES = {"frozen": FROZEN, "sc": "self_consistent = true"}


def _cases():
    """{id: (argv without --config/--out, config text or None)}."""
    cases = {}
    configs = {"dynamics": DYNAMICS, "steady": STEADY, "intensity": INTENSITY_FIT,
               "aspect": ASPECT, "od": OD_SCAN}
    for name, text in configs.items():
        modes = {"": text}
        if FROZEN in text:
            modes = {mode: text.replace(FROZEN, line) for mode, line in MODES.items()}
        for verb in KINDS[parse_config(text).kind].verbs:
            seeds = ("0", "1") if verb == "fit" else (None,)
            for mode, mode_text in modes.items():
                for seed in seeds:
                    case_id = "-".join(filter(None, (name, verb, mode, seed and f"seed{seed}")))
                    cases[case_id] = ([verb] + (["--seed", seed] if seed else []), mode_text)
    for i, (verb, text) in enumerate(CASES):
        cases[f"fuzz{i}-{verb}"] = ([verb], text)
    cases["selfcheck"] = (["selfcheck"], None)
    cases["preset-dump"] = (["preset-dump"], None)
    return cases


CASE_ARGS = _cases()


def _digest(argv, text) -> str:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.csv")
        if text is not None:
            config_path = os.path.join(tmp, "case.cfg")
            with open(config_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argv = argv + ["--config", config_path, "--out", out_path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = b""
        if os.path.exists(out_path):
            with open(out_path, "rb") as handle:
                written = handle.read()
    record = repr((code, written, out.getvalue(), err.getvalue())).encode()
    return hashlib.sha256(record).hexdigest()


GOLDEN = {
    "aspect-scan": "0c2358708e479a09a381d3561e3a591829e744a050a98a3a70a734f1cb26dae2",
    "dynamics-fit-frozen-seed0": "79f74a3043416034a2324d4639a0cb3779a9a506ff603b55f8351fcbd3c33c2e",
    "dynamics-fit-frozen-seed1": "79f74a3043416034a2324d4639a0cb3779a9a506ff603b55f8351fcbd3c33c2e",
    "dynamics-fit-sc-seed0": "205a4ad076420e4d8f185b0bfca8bbac79d73557e1eb8db948d0c19944bfda1e",
    "dynamics-fit-sc-seed1": "205a4ad076420e4d8f185b0bfca8bbac79d73557e1eb8db948d0c19944bfda1e",
    "dynamics-simulate-frozen": "e861560487f7b2899b3662094c6be63b1a1ec5aaa50eb6544c86bfa940541fb6",
    "dynamics-simulate-sc": "66867da8b7e1945b93913a31891def53b316906a611aedbdd9c5a6cd8da9c14b",
    "fuzz0-simulate": "92c51cd0cddb5a059eaada9e5c278f35f390a6ff7d6421891cffdac2b2ec65f7",
    "fuzz1-fit": "2f0e7d56cd9849eb091a5f6e767580aac86b0abfc2a4634afea7a31ff3920112",
    "fuzz2-simulate": "877b37a886fb1890f0798f5a8dc22c17e9c103f545e75c2146cb1f07342481cb",
    "fuzz3-scan": "743053177b57537e3f7a5fe43d3e4cf6e7eb0daef3917741655f40b53ed30b89",
    "fuzz4-fit": "6eb109eb966e057d30981325a459944695a6a5bbc9fa2d7d4c0e3b8b3305cd2e",
    "fuzz5-fit": "040c220d2edaae5acb6d892aeffa036f3cf25988d0001736d8e9d703ebeb1ce3",
    "fuzz6-simulate": "71b233e48e564f1851ff81862b16964dbb81a8655b1d560da1658299153cd744",
    "intensity-fit-seed0": "ad1f772edbdd1774773af7c75700187f576f8125af6552c2e926d747d86114ac",
    "intensity-fit-seed1": "c2b7e52352f4846facfb03e6a41c8fa788be9b72463aa2c9937f12115ff6ee9d",
    "intensity-scan": "e641eafa4fa6f0ae18cc9a6db707ff223ea717df8bc03074093fb9adfeb9746b",
    "od-fit-seed0": "42ce88fbd0333e960a09590b2772c41840eb6f910976752528992c8c43713f33",
    "od-fit-seed1": "42ce88fbd0333e960a09590b2772c41840eb6f910976752528992c8c43713f33",
    "od-scan": "d0d37e5b28115949e3ef427916ecc72b01d7a70d007a43b74a4eaf85eeac3587",
    "preset-dump": "ad25d6fcea766886c5d862613b4ce08e9259c7d7e312c1844aa5915aa9aecd6f",
    "selfcheck": "a6033ac7843a88ed9d443c5943b9b19d3e439508660b0c399403bbc28173660f",
    "steady-simulate": "877b37a886fb1890f0798f5a8dc22c17e9c103f545e75c2146cb1f07342481cb",
}


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(CASE_ARGS)


@pytest.mark.parametrize("case_id", sorted(CASE_ARGS))
def test_output_matches_its_golden_digest(case_id):
    assert _digest(*CASE_ARGS[case_id]) == GOLDEN.get(case_id), case_id


if __name__ == "__main__":
    for case_id in sorted(CASE_ARGS):
        print(f'    "{case_id}": "{_digest(*CASE_ARGS[case_id])}",')
