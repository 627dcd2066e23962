"""Golden outputs: the CLI's bytes on the reference configs stay as recorded.

Each case runs cli.main and hashes (exit code, output file, stdout,
stderr) with SHA-256.  The cases are the tests/test_cli.py configs
under every verb their kind runs, a dynamics config frozen and
self-consistent, each fit at seeds 0 and 1, each fuzz CASES entry,
selfcheck, preset-dump and the longer dynamics runs of EXTRA.  A change
that keeps every digest changes no output byte on these runs.  The digests hold for this platform's
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


def _dynamics(duration_ms, stride, mode, extra=""):
    return (DYNAMICS.replace("duration_ms = 60", f"duration_ms = {duration_ms}")
            .replace("sample_stride = 20", f"sample_stride = {stride}")
            .replace(FROZEN, MODES[mode]) + extra)


# dynamics paths the configs above do not reach: the paper's 0.6 s reference
# run self-consistent at stride 10, where steps are halved (173 of 684); a
# self-consistent run at stride 1; a 2.4 s frozen run at stride 1 (20 341
# rows); a self-consistent fit over a window
EXTRA = {
    "reference-simulate-sc-stride10": (["simulate"], _dynamics(600, 10, "sc")),
    "dynamics-simulate-sc-stride1": (["simulate"], _dynamics(60, 1, "sc")),
    "long-simulate-frozen-stride1": (["simulate"], _dynamics(2400, 1, "frozen")),
    "dynamics-fit-sc-window": (["fit"], _dynamics(
        60, 2, "sc", "window_min_ms = 5\nwindow_max_ms = 40\n")),
}


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
    cases.update(EXTRA)
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
    "dynamics-fit-frozen-seed0": "58b65e3c39ce65c88190e4c9731e60c67f9ccfb5932aa5e584c0f87711c4ac8f",
    "dynamics-fit-frozen-seed1": "58b65e3c39ce65c88190e4c9731e60c67f9ccfb5932aa5e584c0f87711c4ac8f",
    "dynamics-fit-sc-seed0": "51456f3ae72025b02d27eae21dbdf7020b44d7247925bf45ad66f4d1e00d6800",
    "dynamics-fit-sc-seed1": "51456f3ae72025b02d27eae21dbdf7020b44d7247925bf45ad66f4d1e00d6800",
    "dynamics-fit-sc-window": "4ea72426991ce6cc47af25d3b9dbdfca27088f754bd0939b594e8f3b3c118aad",
    "dynamics-simulate-frozen": "e861560487f7b2899b3662094c6be63b1a1ec5aaa50eb6544c86bfa940541fb6",
    "dynamics-simulate-sc": "66867da8b7e1945b93913a31891def53b316906a611aedbdd9c5a6cd8da9c14b",
    "dynamics-simulate-sc-stride1": "02396b0aba94788cc484cd27abef5da87d4ed87e8b4f5935613d36b6e5b55cfa",
    "fuzz0-simulate": "92c51cd0cddb5a059eaada9e5c278f35f390a6ff7d6421891cffdac2b2ec65f7",
    "fuzz1-fit": "d6d2f60f254df179e48fc907f426cdca9b9a831599c1878c156581d05e8dee15",
    "fuzz2-simulate": "877b37a886fb1890f0798f5a8dc22c17e9c103f545e75c2146cb1f07342481cb",
    "fuzz3-scan": "743053177b57537e3f7a5fe43d3e4cf6e7eb0daef3917741655f40b53ed30b89",
    "fuzz4-fit": "6eb109eb966e057d30981325a459944695a6a5bbc9fa2d7d4c0e3b8b3305cd2e",
    "fuzz5-fit": "040c220d2edaae5acb6d892aeffa036f3cf25988d0001736d8e9d703ebeb1ce3",
    "fuzz6-simulate": "71b233e48e564f1851ff81862b16964dbb81a8655b1d560da1658299153cd744",
    "intensity-fit-seed0": "ad1f772edbdd1774773af7c75700187f576f8125af6552c2e926d747d86114ac",
    "intensity-fit-seed1": "c2b7e52352f4846facfb03e6a41c8fa788be9b72463aa2c9937f12115ff6ee9d",
    "intensity-scan": "e641eafa4fa6f0ae18cc9a6db707ff223ea717df8bc03074093fb9adfeb9746b",
    "long-simulate-frozen-stride1": "c4e2f6321c05763caf24fe6fd7e0f7fab64d3f96d9f939078afaed44a611c532",
    "od-fit-seed0": "fad14f574bc5d27207a533b4d9fb6b9d2ef7847b4e9d33340862a4219f8740b2",
    "od-fit-seed1": "fad14f574bc5d27207a533b4d9fb6b9d2ef7847b4e9d33340862a4219f8740b2",
    "od-scan": "d0d37e5b28115949e3ef427916ecc72b01d7a70d007a43b74a4eaf85eeac3587",
    "preset-dump": "ad25d6fcea766886c5d862613b4ce08e9259c7d7e312c1844aa5915aa9aecd6f",
    "reference-simulate-sc-stride10": "14528f8079e4c50f78e25a2db8fc60e80f89a4f28c615dc6476d962c44a4be7c",
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
