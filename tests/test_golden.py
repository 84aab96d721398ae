"""Byte-identity of ``relaydof schedule`` output, pinned by sha256.

The digests were captured from the expanded-DAG implementation that
preceded the per-layer plan storage; any change to the JSON or DOT bytes
(node order, edge order, share formatting) shows up here.
"""

import hashlib
import json

import pytest

from relaydof.cli import main

CASES = {
    "chain-1-2-4": ({"layers": [{"nodes": 1}, {"nodes": 2}, {"nodes": 4}]}, None),
    "padded-2-3-2": (
        {"layers": [{"nodes": 2}, {"nodes": 3}, {"nodes": 2}]},
        {"demands": [{"dst": 1, "src": 1, "dof": "1/4"}, {"dst": 2, "src": 1, "dof": "1/8"}]},
    ),
    "antenna-sparse": (
        {"layers": [{"antennas": [2, 1]}, {"antennas": [2, 2]}, {"antennas": [1, 1, 1]}]},
        {"demands": [{"dst": 2, "src": 1, "dof": "1/6"}, {"dst": 3, "src": 2, "dof": "1/9"}]},
    ),
    "coprime-5-7-11-13": ({"layers": [{"nodes": n} for n in (5, 7, 11, 13)]}, None),
    "chain-8x4": ({"layers": [{"nodes": 8}] * 4}, None),
    "chain-1-1-1": ({"layers": [{"nodes": 1}] * 3}, None),
}

GOLDEN = {
    ("chain-1-2-4", "json"): "6bc412fce28d5ee1f3b0bf5c4c5a07c70354e28d6af9273d0551962e2f7c16db",
    ("chain-1-2-4", "dot"): "aff61f756a9a19d292e4a716098b34a4900ce8b09ebe3c9b4e49b826cefdeee9",
    ("padded-2-3-2", "json"): "a2d51078ba2b0786c5507fe6a92df3c87d72a4f2712df7522ca763dc64b41c2c",
    ("padded-2-3-2", "dot"): "08eeba2389e84f774c21883079e9f698f8825c4d472b823e77db2d1a1c91350f",
    ("antenna-sparse", "json"): "a5ce48fcf31afc17ec4fe95fa786d387655c63dbe4c35010c892dbd39891160c",
    ("antenna-sparse", "dot"): "bbfb59f4eefdd7fe3441cbe1f9e7a1f232561467c92b2c440b36b2de147ff022",
    ("coprime-5-7-11-13", "json"): "e0a39980e43d22d57eea9f65ee201d184d0f99112483550f30338c4e7ec822c4",
    ("coprime-5-7-11-13", "dot"): "4959c0c38946381863f1eee9285d9652fd4fced0f0eeba5d8ca2515a0eafe813",
    ("chain-8x4", "json"): "c3f87f34d201ef9f6dd6319df2ab1495c98bc006622efa40ecb0b39412fc3f9e",
    ("chain-8x4", "dot"): "09f375b1eb5c19f6edcfdd59a01a18fd53fe8d8699bde11c723566f242453d81",
    ("chain-1-1-1", "json"): "dd51316a4822496dca563f3132c7f683ef6333a41fdeb2601b1c017642fad34a",
    ("chain-1-1-1", "dot"): "91a4240082c941cdda582d6d9d93496b67cae279580509b0f121bb1c8fea5955",
}


@pytest.mark.parametrize("case, fmt", sorted(GOLDEN))
def test_schedule_output_is_byte_identical(case, fmt, tmp_path, capsys):
    topology, demand = CASES[case]
    argv = ["schedule", str(tmp_path / "t.json"), "--format", fmt]
    (tmp_path / "t.json").write_text(json.dumps(topology), encoding="utf-8")
    if demand is not None:
        (tmp_path / "d.json").write_text(json.dumps(demand), encoding="utf-8")
        argv += ["--demand", str(tmp_path / "d.json")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[(case, fmt)]
