"""Byte-identity guard for the CLI outputs.

Each case runs ``cli.main`` to stdout and compares the SHA-256 of the output
with a recorded digest. ``CASES`` run with a tiny optimizer and
``DEFAULT_GRID_CASES`` with the default one. A refactor that claims
byte-identical outputs must leave every digest unchanged; a change that
moves a number must re-record the digests and say which numbers moved and
why. The cases include one error row per curve command, so the failure
path's bytes are pinned too.
"""
import contextlib
import hashlib
import io

import pytest

from bb84rate.cli import main

TINY_OPT = """
[optimizer]
grid_resolution = 6
refinement_rounds = 1
loss_bisection_tol_db = 0.5
"""

# name -> (command, extra config, output format, SHA-256 of stdout), at TINY_OPT
CASES = {
    "asymptotic_csv": (
        "asymptotic", "[asymptotic]\ndistances_km = -5,0,25,50,100,150,175,200\n", "csv",
        "e0658bbc41858becd01d0c93e379637140c5e153be32ffcdf7ad57f9f3db097d",
    ),
    "asymptotic_json": (
        "asymptotic", "[asymptotic]\ndistances_km = -5,0,25,50,100,150,175,200\n", "json",
        "bbc3bb1ec915245d03deb9b62e22a0914f3a1935232eb8fc54d05475e0ded089",
    ),
    "finite_acquisition_time_csv": (
        "finite", "[finite]\nacquisition_times_s = 1,60\n", "csv",
        "a2b3090deafa0e35f0c9211e32a48db01e9581a7df97db890f33bc9bd006b701",
    ),
    "finite_block_size_csv": (
        "finite", "[channel]\nloss_db = 10\n"
                  "[finite]\nblock_sizes_received = -1,1e4,1e6,1e8,1e10\n", "csv",
        "c8e505186154b9b128b868a76901812395ef9787959985775e980441e656d62a",
    ),
    "finite_block_size_json": (
        "finite", "[channel]\nloss_db = 10\n"
                  "[finite]\nblock_sizes_received = -1,1e4,1e6,1e8,1e10\n", "json",
        "ea886689caffda7a7b10b6abb7b9e80cf8f4ba6894acdeae003c057a18478f91",
    ),
    "maxloss_csv": (
        "maxloss", "", "csv",
        "cf32ffc3dcc2c0e789c80e2cf19ad8d5a40638325d85402c48b110dc7d9155bb",
    ),
    # about 35,500 emitting pulses, in one partly filled batch; att < 1 and
    # p_x = 0.9 put every threshold of their draws inside (0, 1), and the two
    # losses give about 11,400 clicks and about 10
    "oracle_json": (
        "oracle", "[oracle]\nn_pulses = 2500000\nlosses_db = 0,30\n"
                  "chernoff_trials = 1000\nsampling_trials = 1\n"
                  "[protocol]\natt = 0.5\np_x = 0.9\n", "json",
        "95e86ce72b5916a9672d721ef8a5d99d7317a8fe0ccf121164a8cb7f672abdab",
    ),
}

# The tiny grid's top values are exact, so it cannot see a change at a grid
# end. These cases run the default optimizer. The finite optimum sits at
# p_x = 0.995, the top of the p_x range. The maxloss boundaries cover a short
# block, where the lambda_ec information term wins, and the 3600 s block,
# where the loss search's column screen rejects the most columns. The short
# and long finite blocks pin optimize_point's branch-and-bound on both sides
# of the lambda_ec term switch.
DEFAULT_GRID_CASES = {
    "finite_block_size_1e10_json": (
        "finite", "[finite]\nblock_sizes_received = 1e10\n", "json",
        "4c939a63aaa8ae939b740db77999f41d080e1bfec9bb1f0ad68be6dedfaca358",
    ),
    "finite_block_size_1e4_1e6_1e8_csv": (
        "finite", "[finite]\nblock_sizes_received = 1e4,1e6,1e8\n", "csv",
        "5c95bf342cb5be44e68277714ea07dcb63e7dc82fbc5aeb116cbd7cb453f5977",
    ),
    "maxloss_1s_3600s_csv": (
        "maxloss", "[maxloss]\nacquisition_times_s = 1,3600\n", "csv",
        "1022b7c4f64121181dae0388488d0974640d8c1992bd23d8e8400f30375358d8",
    ),
}


def run_case(tmp_path, command: str, extra: str, fmt: str) -> bytes:
    cfg = tmp_path / f"{command}-{fmt}.ini"
    cfg.write_text(extra, encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", str(cfg), "--out", "-", "--format", fmt])
    assert code == 0
    return stdout.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest_unchanged(tmp_path, name):
    command, extra, fmt, digest = CASES[name]
    assert hashlib.sha256(run_case(tmp_path, command, TINY_OPT + extra, fmt)).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(DEFAULT_GRID_CASES))
def test_default_grid_digest_unchanged(tmp_path, name):
    command, extra, fmt, digest = DEFAULT_GRID_CASES[name]
    assert hashlib.sha256(run_case(tmp_path, command, extra, fmt)).hexdigest() == digest
