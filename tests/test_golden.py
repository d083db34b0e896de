"""Golden outputs: the seeded sample set and everything computed from it.

The sha256 digests were recorded before the outcome kernel was chunked;
a change of draw order, transform arithmetic or tally moves them.  A
change that moves them on purpose says so and records new digests.  The
package version in the effective-config header is blanked before
hashing, so a version bump alone moves nothing.
"""

import hashlib

import pytest

from singlet_lhv import __version__
from singlet_lhv.cli import EXIT_OK, main

VERSION = f'"version": "{__version__}"'

GOLDEN = {
    "correlate": (
        ("correlate", "--delta-grid=-3.14159265:3.14159265:9", "--trials", "100000",
         "--seed", "11", "--streams", "3"),
        "b29315bd65c46a166fff7082ed126508fa850c2568943592c42f4844025954e3",
    ),
    "correlate-n3": (
        ("correlate", "--delta-grid=-2.5,0,0.7,3.0", "--n", "3", "--trials", "70000",
         "--seed", "12", "--streams", "2"),
        "d3d747b584caa734903b3584e54657c996ea8f6a5e5b2d9173cc7dfaeb2d5013",
    ),
    "chsh": (
        ("chsh", "--d-omega", "1.5707963", "--d-omega-p", "0.78539816", "--d-omega-pp=-0.78539816",
         "--trials", "200000", "--seed", "3", "--streams", "2", "--per-trial-distribution",
         "--format", "json"),
        "7bbb1e3d6b2e957961bc3da7818429c62fdd9e0c749c1e1697274b324dafb690",
    ),
    "wz-n7": (
        ("wz", "--alpha-set", "0,1.5707963", "--beta-set=0.78539816,-0.78539816", "--n", "7",
         "--trials", "100000", "--seed", "5", "--streams", "2", "--dump-records", "5",
         "--format", "json"),
        "65b059341cc4322b84311855c3ddbcc4cc1e0108d26acbe8ed902d9a13c5a2a6",
    ),
    "wz-csv": (
        ("wz", "--alpha-set", "0,1.5707963,3", "--beta-set=0.78539816,-0.78539816",
         "--trials", "90000", "--seed", "6", "--streams", "2"),
        "f30ced173872b28faf8af9459f740b31720ca4e14846807ef3702de1bc14e952",
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
