"""Golden outputs: the seeded sample set and everything computed from it.

The sha256 digests were recorded once draws became block-keyed (one
generator per block of trials, keyed by seed and block index); a change
of draw order, transform arithmetic or tally moves them.  A
change that moves them on purpose says so and records new digests (the
two n > 1 digests moved once more when their analytic fields became the
exact expectation at n; no Monte Carlo field changed).  The
package version in the effective-config header is blanked before
hashing, so a version bump alone moves nothing.
"""

import hashlib
import json

import pytest

from singlet_lhv import __version__
from singlet_lhv.cli import EXIT_OK, main

VERSION = f'"version": "{__version__}"'

GOLDEN = {
    "correlate": (
        ("correlate", "--delta-grid=-3.14159265:3.14159265:9", "--trials", "100000",
         "--seed", "11", "--streams", "3"),
        "0df15e6eb90ae5c0059bf3fda3817fc20ee68df2d09e4803fe4b1e1edb07038f",
    ),
    "correlate-n3": (
        ("correlate", "--delta-grid=-2.5,0,0.7,3.0", "--n", "3", "--trials", "70000",
         "--seed", "12", "--streams", "2"),
        "a2394f71f0c74b435fedb5f69875f64075b0602feac9ed74c7d7e30baba3670e",
    ),
    "chsh": (
        ("chsh", "--d-omega", "1.5707963", "--d-omega-p", "0.78539816", "--d-omega-pp=-0.78539816",
         "--trials", "200000", "--seed", "3", "--streams", "2", "--per-trial-distribution",
         "--format", "json"),
        "13e1af16b5e57cb9b8da03f4e01bd74b96210c8ae8ed053819e7fb33b3e48d4f",
    ),
    "wz-n7": (
        ("wz", "--alpha-set", "0,1.5707963", "--beta-set=0.78539816,-0.78539816", "--n", "7",
         "--trials", "100000", "--seed", "5", "--streams", "2", "--dump-records", "5",
         "--format", "json"),
        "b32db550adc8b40f8ffcd4523776547d2b237e11542d31ded434f62632670b7f",
    ),
    "wz-csv": (
        ("wz", "--alpha-set", "0,1.5707963,3", "--beta-set=0.78539816,-0.78539816",
         "--trials", "90000", "--seed", "6", "--streams", "2"),
        "274561c392e0df183566a6ddce10a48a71c6a5215126018d6b2fa4f137095de7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(capsys, name):
    argv, digest = GOLDEN[name]
    assert main(list(argv)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(VERSION) == 1
    out = out.replace(VERSION, '"version": ""')
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The oracle commands (no Monte Carlo) are pinned the same way.  ``paths``
# runs on the README's h.json and ops.json, written to the working directory.
README_FILES = {
    "h.json": {"dim": 2, "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
    "ops.json": {
        "sx": {"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]},
        "sz": {"dim": 2, "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
    },
}

ORACLE_GOLDEN = {
    "weak-values-json": (
        ("weak-values", "--phi", "0.37", "--delta-omega=-2.1", "--format", "json"),
        "9225b97ba17a631c169a3a6d6d57e4656e2f7cd84be8f4bc836fa85853712d6a",
    ),
    "weak-values-degenerate-csv": (
        ("weak-values", "--phi", "0.5", "--delta-omega", "0.5"),
        "a34523b765e4f33cdcd829b4a37ef2c8cfbde5e51e95d2d3e550501c6c0a6100",
    ),
    "bell-check-json": (
        ("bell-check", "--d1", "1.0471975512", "--d2", "2.0943951024", "--format", "json"),
        "7622ae15e763a35e10d2f9dc7f2e143338b56e51563cb5865f0cf92591abcf10",
    ),
    "bell-check-grid": (
        ("bell-check", "--grid", "30"),
        "825fdcf151a858785c931cb0dba0ff51518a9ab2c3994cd22f403fb32e7af27b",
    ),
    "transform-curve-n1": (
        ("transform-curve", "--delta", "1.0471975512", "--n", "1"),
        "d61eaa07a9d104f1fb6a6934ecc7bad967b332d925379a4519aad02c668820ad",
    ),
    "transform-curve-n1-negative-delta": (
        ("transform-curve", "--delta=-2.0", "--n", "1"),
        "b680d5e47dbe9c7ce49f2c384fad170e101fe1bc7ec0d0475c10ee1d9add8f1f",
    ),
    "transform-curve-n7": (
        ("transform-curve", "--delta", "1.0471975512", "--n", "7"),
        "71bac938206dae30c118714075f6bf2caa98d8ab3dd4098b0ce75343ab872579",
    ),
    "paths": (
        ("paths", "--omega-b", "1.0", "--hamiltonian", "h.json", "--operators", "ops.json",
         "--times", "0,0.5"),
        "e9752d37f168b148e33f6c21e83b14037286c72261e9212ca09c8133ff1f1948",
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_output_bytes_are_pinned(capsys, monkeypatch, tmp_path, name):
    for file_name, payload in README_FILES.items():
        (tmp_path / file_name).write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv, digest = ORACLE_GOLDEN[name]
    assert main(list(argv)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(VERSION) == 1
    out = out.replace(VERSION, '"version": ""')
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
