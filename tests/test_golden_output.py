"""Whole-output golden tests: the bytes of `basis W --format json` and `verify W`.

The digests are the sha256 of the full stdout of `gt-agkz basis W --format
json`, recorded from commit b2dc021; the gl6 weight 2,1,1,0,0,0 was recorded
from commit 844cd93, so that a digest also covers n >= 6, and the gl7 weight
2,1,0,0,0,0,0 (k = 99, with parallel directions) from commit 09b7fab.  The `verify W`
digests (default checks, seed 0, 20 matrices) were recorded from commit
f9f44a2.  A change that moves any byte of these outputs fails here;
re-record a digest only for an intended output change, and say so.
"""

import hashlib

import pytest

from gtagkz.cli import main

GOLDEN = {
    "2,1,0": "026c8d2aad8bc5089d6a645ceebdff5aa1a5e54c17ed3bf8c2a43f3b621bded0",
    "4,2,0": "a9e20cde413a13a285a08291392f1702ceab93fef994733391b77b57bc36fa17",
    "6,3,0": "7b580885e631d9c46c53417b9ba12b1541f36ff4904d9c963c5acfdda74439ff",
    "8,4,0": "b4d43d6bc1e1cf84fb71e0a9669d7071494eb4ab6d4116a8d3073b6e34384cb0",
    "2,1,0,0": "bb02c39544dcd942c484b43845a97ce14a52e101c9f19762561fb5cca2d57729",
    "2,2,1,0": "a3f97ff523dd14bfba9cd86a2610001663cf8f2640d1f5c95d59524247fe495f",
    "3,1,0,0": "c7a9c7183c8aa65a0dc86a6c0f19eded196b0605ae2598369b86c99da3da5496",
    "3,2,1,0": "273206aeecd40b4f0453892cc307d105efb0ff7b2ceba78bf499dbaa5b3f4ca0",
    "2,1,0,0,0": "2801d4951088622798eb5482eaa506e954daf7494a086e21ee5b13cd85ec90ca",
    "2,1,1,0,0,0": "a19b160b1a18ad92102e6a1e5614462fe2bf113804e6d965196aff5f78d0cc2d",
    "2,1,0,0,0,0,0": "7825e3c95c02e406dfe07ab242248cb1b8003d709f16702d21ed810fe9e6bc86",
}

GOLDEN_VERIFY = {
    "2,1,0": "5dd8ac98d1948b614d5332ee829b94ad1f9df8bb75bbaaaf2c5d79ba0cf1ced9",
    "4,4,0": "280f03b5654709e4cb02d7c50e2b536d493b10d1928543d4a4b60e30ca2d8ba8",
    "2,1,1,0": "ad6fac2df7b576e59bda6bd1b500d5d84d1394e306aa5b040c550a4a4cd7671c",
    "2,2,2,0": "38c8f855b19adb48b1151f54d573f2d9da07e41af24247254e23aa572eddb0ee",
    "3,2,1,0": "b6bd7450ea33e02134cfdc2af0ade84ee657d41504bcf75dc9f41dcead70f273",
    "2,1,0,0,0": "dc565fe718383f2f772520949c853756f28563396c2da33d486777618fe191b1",
}


@pytest.mark.parametrize("weight", sorted(GOLDEN))
def test_basis_document_is_byte_identical(weight, capsys):
    assert main(["basis", weight, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[weight]


@pytest.mark.parametrize("weight", sorted(GOLDEN_VERIFY))
def test_verify_output_is_byte_identical(weight, capsys):
    assert main(["verify", weight]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[weight]
