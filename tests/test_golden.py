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
