"""Whole-output golden tests: the bytes of `basis W --format json`, `verify W`
and other JSON documents.

The digests are the sha256 of the full stdout of `gt-agkz basis W --format
json`, recorded from commit b2dc021; the gl6 weight 2,1,1,0,0,0 was recorded
from commit 844cd93, so that a digest also covers n >= 6, and the gl7 weight
2,1,0,0,0,0,0 (k = 99, with parallel directions) from commit 09b7fab.  The `verify W`
digests (default checks, seed 0, 20 matrices) were recorded from commit
f9f44a2, and the `basis W --format text` digests from commit cc7067b.  The
`gram`, `lattice` and `diagrams` JSON digests were recorded from commit
dc13330.  The `verify W` digests of the other thirteen n = 3, 4 session
weights of the benchmark (perfbench/run.py SESSION_POOL) and the `eval`
values of a `basis 2,1,0` G function were recorded from commit 0f3d6b2.
The `verify W` digests of 2,1,1,0,0,0 and 2,1,0,0,0,0,0, the first above
n = 5, were recorded from commit fd3a3c1.
The n = 10 weight 1,0,0,0,0,0,0,0,0,0 was recorded from the commit that made
the point and route searches of `lattice` one loop (`lattice._exact_sums`),
the first that builds a basis at n = 10; its parent 41a75ec, run with the
recursion limit raised, printed the same bytes.
A change that moves any byte of these outputs fails here; re-record a
digest only for an intended output change, and say so.
"""

import hashlib
import json

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
    "1,0,0,0,0,0,0,0,0,0": "f413e831b30dfc301cf33e37a0d07b39b446229b40380a77651df985d68b4ae0",
}

GOLDEN_VERIFY = {
    "2,1,0": "5dd8ac98d1948b614d5332ee829b94ad1f9df8bb75bbaaaf2c5d79ba0cf1ced9",
    "4,4,0": "280f03b5654709e4cb02d7c50e2b536d493b10d1928543d4a4b60e30ca2d8ba8",
    "2,1,1,0": "ad6fac2df7b576e59bda6bd1b500d5d84d1394e306aa5b040c550a4a4cd7671c",
    "2,2,2,0": "38c8f855b19adb48b1151f54d573f2d9da07e41af24247254e23aa572eddb0ee",
    "3,2,1,0": "b6bd7450ea33e02134cfdc2af0ade84ee657d41504bcf75dc9f41dcead70f273",
    "2,1,0,0,0": "dc565fe718383f2f772520949c853756f28563396c2da33d486777618fe191b1",
    "2,1,1,0,0,0": "d576468906ed0e4642259e3365c113bdf1ac90ffd29ad0e98d9f88eaf3933524",
    "2,1,0,0,0,0,0": "72785a228ed92c2932148754276e886d471ab5c5f46d773b8de94150251532ee",
    "1,0,0": "39946775a712f4c1f3db7225971da40f6199f463255c618795a420edcddc2d26",
    "1,1,0": "39946775a712f4c1f3db7225971da40f6199f463255c618795a420edcddc2d26",
    "2,0,0": "981545ac50f37da4ecacf53b112f6cc8dd4ea0f755da08df72ce74dbda461683",
    "2,2,0": "981545ac50f37da4ecacf53b112f6cc8dd4ea0f755da08df72ce74dbda461683",
    "3,0,0": "8647a4ab2e976a1f80009eee3c41098386865fe0eabad9fd7202932d1c82a844",
    "3,1,0": "05fb1d881552e00f590c75023a5d618450e4069ecbdacc42a184cd1ee6df077d",
    "3,2,0": "928c6cf04c2e2c6cbdf031227ec2163d2f2d29dd32b9ea9ac5bb175003a5a457",
    "3,3,0": "8647a4ab2e976a1f80009eee3c41098386865fe0eabad9fd7202932d1c82a844",
    "4,0,0": "280f03b5654709e4cb02d7c50e2b536d493b10d1928543d4a4b60e30ca2d8ba8",
    "1,0,0,0": "1c514696ddb8cd5484eacde78be1f8a8057d4ed19f6ba4c97f9e864dfba8b41d",
    "1,1,0,0": "a7d10d2345ec98681dcd56b9c4c32c1ca8a065aee29e396c220a0f9ea4717345",
    "1,1,1,0": "1c514696ddb8cd5484eacde78be1f8a8057d4ed19f6ba4c97f9e864dfba8b41d",
    "2,0,0,0": "38c8f855b19adb48b1151f54d573f2d9da07e41af24247254e23aa572eddb0ee",
}

GOLDEN_TEXT = {
    "2,1,1,0": "5a02496f6027165dffd8033236aeeca5d2cecff28c5abea903f194ad7f2e92c7",
    "8,4,0": "f84061f4b1e11e2404d9e439e5a6eb9a2fe15cd1b21a19ce5243d77dd8064cc5",
}

GOLDEN_OTHER = {
    "gram 2,1,0,0": "7624f0e43129e7b5cd8c217b7c881dc1f0163ca166b83d487f231dd0afd795f5",
    "lattice 5": "1c878b43057d0d5663297c10c0aa94621fd599526a9d11c75194ef52bf64b217",
    "diagrams 3,1,0": "8a0d36dce3b88fb0ad1bd4b7b168a58f1a605c645d358be0668e73ed0d640cd2",
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


@pytest.mark.parametrize("weight", sorted(GOLDEN_TEXT))
def test_basis_text_output_is_byte_identical(weight, capsys):
    assert main(["basis", weight, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TEXT[weight]


@pytest.mark.parametrize("command", sorted(GOLDEN_OTHER))
def test_other_json_documents_are_byte_identical(command, capsys):
    assert main(command.split() + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OTHER[command]


# The G function of diagram ((2,1,0), (1,1), (1)) of `basis 2,1,0`, whose
# coefficients 1/6, 1/12, -1/12 do not share a denominator.
GOLDEN_EVAL = {
    None: "1/6",
    "[[2, -1, 3], [1, 4, -2], [5, 0, 1]]": "27/4",
}


@pytest.mark.parametrize("matrix", sorted(GOLDEN_EVAL, key=str))
def test_eval_output_is_byte_identical(matrix, tmp_path, capsys):
    assert main(["basis", "2,1,0", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    (entry,) = [e for e in document["entries"] if e["diagram"] == [[2, 1, 0], [1, 1], [1]]]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 3, "terms": entry["gt_function"]}))
    assert main(["eval", str(path)] + (["--matrix", matrix] if matrix else [])) == 0
    assert capsys.readouterr().out == GOLDEN_EVAL[matrix] + "\n"
