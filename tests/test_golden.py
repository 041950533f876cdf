"""Golden outputs: the bytes every CLI command prints and writes, pinned by
sha256, so that a refactor that claims byte-identical output is checked
against the outputs of the code before it.

Each command runs in a fresh directory and writes under a fixed relative
name, because ``compile`` and ``bench`` print their ``--out`` path; the
directory also holds ``five.json``, an unpadded database.  To re-pin after
an intended output change, print the table for the current code with

    PYTHONPATH=src python tests/test_golden.py

and paste only the entries whose output was meant to change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from qsearch.cli import main

DATA_DB = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "data",
                                       "people.json"))
PARTS = ("m1", "m2", "qdam", "oracle", "diffusion", "kernel", "naive")

COMMANDS = {
    **{f"compile-{part}{suffix}": ["compile", "--db", DATA_DB, "--key", "0101",
                                   "--part", part, *flags, "--out", "out.json"]
       for part in PARTS
       for suffix, flags in (("", []), ("-lowered", ["--lowered"]))},
    **{f"estimate-{mode}": ["estimate", "--n", "6", "--m", "3", "--mode", mode]
       for mode in ("bound", "measured", "naive")},
    "bench": ["bench", "--n-min", "2", "--n-max", "5", "--m", "2", "--out", "out.csv"],
    "search": ["search", "--db", DATA_DB, "--key", "0101", "--return", "phone"],
    "search-sampled": ["search", "--db", DATA_DB, "--key", "0101", "--return",
                       "phone", "--shots", "16", "--seed", "7"],
    "search-absent": ["search", "--db", DATA_DB, "--key", "1111", "--return", "phone"],
    **{f"search-iterations-{k}": ["search", "--db", DATA_DB, "--key", "0101",
                                  "--return", "phone", "--iterations", str(k)]
       for k in (1, 5)},
    "search-shots-3": ["search", "--db", DATA_DB, "--key", "0101", "--return",
                       "phone", "--shots", "3", "--seed", "5"],
    "search-padded": ["search", "--db", "five.json", "--key", "0011", "--return",
                      "room"],
    "search-padded-sentinel": ["search", "--db", "five.json", "--key", "0101",
                               "--return", "phone"],
    "search-padded-out": ["search", "--db", "five.json", "--key", "0100",
                          "--return", "phone", "--out", "out.json"],
}

# the first five records of data/people.json: search pads them to eight,
# with sentinel keys 0101, 0110 and 0111
FIVE_DB = """{
  "version": 1,
  "fields": [
    {"name": "id", "bit_width": 4},
    {"name": "phone", "bit_width": 8},
    {"name": "room", "bit_width": 3}
  ],
  "key_field": "id",
  "records": [
    {"id": "0000", "phone": "10010110", "room": "001"},
    {"id": "0001", "phone": "01100011", "room": "010"},
    {"id": "0010", "phone": "11010001", "room": "011"},
    {"id": "0011", "phone": "00101110", "room": "100"},
    {"id": "0100", "phone": "10111010", "room": "101"}
  ]
}
"""

# name -> (exit code, sha256 of stdout, sha256 of the written file or None)
GOLDEN = {
    "bench": (
        0, "47708c284360b72efd5043bbcd680412e085639c33d1cf37540cdc26062ec198",
        "c5509124bb02ce79941d6621f990ab7c194ccd70dd5d60c5256f1ac613549c99"),
    "compile-diffusion": (
        0, "6f6c7f8c502efaaf9d716065aea57d8d2e9f8fd923252f0414ef8520baab1f4f",
        "755e88d10225623b4dfd49d5508772f9c89af132c1cddb690cc98d8cfe38d2bf"),
    "compile-diffusion-lowered": (
        0, "09459525981e9d0445e4ee94bc632584470cdf513b343f514ed1c3eaf18e716d",
        "8d5cda80d6f3d32df25abdaead9f634ce9b7a45a91d8a24a33615d893ae3bd1d"),
    "compile-kernel": (
        0, "c3fd18531c3c471e02f21c4bd8ae948934d35927e8f52063f48439d870735f59",
        "d7ee2b03381ae81baa0a5a00155a0ef0479fb0495b6531ab00f471bc80e445aa"),
    "compile-kernel-lowered": (
        0, "54ef2726187a9247ebe205122685e793ac4d97768fa194ad50c46b9e542b9232",
        "42e0f788c14d28df696ed1816c6670ad6f0e01bd508540a20d3aaef3ee548727"),
    "compile-m1": (
        0, "7c119692f797cdf295aaea6840dd8766eabba945546d0aef63810e33398e5bae",
        "12e8ef55550b916eabf27e3a54cba03b43b0d57ad2c07485914541a87e1f5e1e"),
    "compile-m1-lowered": (
        0, "0e3a1b2f60ae4170c9b3e0070e7874d5550ad76f5b75f99318bca3c2996da2ec",
        "62507cf9809ff1dc0507e030a67b34ceda2a9f4788b54c18b41e498b21c4a75e"),
    "compile-m2": (
        0, "447b7da8608a9e0bcfbb5c57ff34ec6f02fd9d5bb9088361f4e28d4d54bd735b",
        "b5597242f593e312df4eaa56f1ebe5160aa35152b6b4629944b6e5239aba2f98"),
    "compile-m2-lowered": (
        0, "ba619aed6c056b7079d7cb83e12285669c73d57a3b97e424a2cbd77221b91a94",
        "f47b02b8139b9e47e1b09727bfaebf903d27efcd6683f6b37b2980564bacd7b7"),
    "compile-naive": (
        0, "21ffb53e8a46f90648e467376300e6374ebaa88b21e321db1a26f298689df4bd",
        "0d1501391df2cf40d881a1d23d6e746a50fbb671742a77e9f521e07ad0473cc4"),
    "compile-naive-lowered": (
        0, "58dd6996f6791a4cbb20ef24a87ddf65b9bf5e2ae1e7f77ad8207c24904e2f86",
        "c7afc4656c3b1a1af05b7ec7ff38818f47976732e9a60b70d002bc2c0eb23061"),
    "compile-oracle": (
        0, "2677bbe726a1e28fc9a7199a430af3b8f6c71a0760da06dc0c5a0fc964c80f50",
        "9b27c5960ecf664446fca145f009b989178c97e2f3507e9abcb406aa8f31c94c"),
    "compile-oracle-lowered": (
        0, "b68d4b438d56f0e9c7fe91d99ba79ee30555b6ae0c377a4c18848507fb02fc6b",
        "5f8f8228ca137fd0d855cdcf3bb79e155b0daad31dddf9949428e7883610f31f"),
    "compile-qdam": (
        0, "45012c0cc77b9c9690ce41f310c13f5f1cc63c6c4c230b53cde83e2d139b851f",
        "0192fcc611a7e7af72a620d0af37d1b93a6b990596624e71ace8f786d7e87e9f"),
    "compile-qdam-lowered": (
        0, "4ee719df2568027ea6616c0c3e745ff7b87def5cfa837ef6dc894022044cc76a",
        "532d5803d5833dd9047a3efa938876cb0562d0c02d9bf2789fe0ae8eeaa3484a"),
    "estimate-bound": (
        0, "28d4af850a7f621143978e9101bff8a94f5d2111ac279910ec77e6f4fa495da7",
        None),
    "estimate-measured": (
        0, "0683d40e0e5f9414dc203f444224a8790f705e7eef64fcddab10eebf4adf0c81",
        None),
    "estimate-naive": (
        0, "a23d49462c9ddd91296ecc030ed3b4fb4aa3ff0346e6977b31d615d147079ca1",
        None),
    "search": (
        0, "6bbc3408d55b192ba5c3d0cef0e2f0ce692c3695c5c029d0044865f782366286",
        None),
    "search-absent": (
        2, "0adf6402a0ef8a96020e5761b979f378a9f6dc3b1f0c98146b09942e7e2cd2a6",
        None),
    "search-iterations-1": (
        0, "b7d46ba6378c2e45ef4b7a124b1596a85206d059a9878552a025fe86ac3ae2a8",
        None),
    "search-iterations-5": (
        0, "393e757a1d55989bc95870bb9f680d349ff25fd9fccf83c232f7ffee667643f8",
        None),
    "search-padded": (
        0, "93efd9d171a2b029465b6f99ad5e26f04058c91fd321e73c31d471a5fa414f75",
        None),
    "search-padded-out": (
        0, "bb626457fea0466e894b25b3cc52d7342cea4593d1c40422011213d80ac1a543",
        "bfa57210aa821e149852689afb83388bf1e954b5014dac7c27beaee55161c8f2"),
    "search-padded-sentinel": (
        2, "8f947cdeb91bacd505ed5552c2c940b058da810a55606c575ffec256edcb50e4",
        None),
    "search-sampled": (
        0, "6bbc3408d55b192ba5c3d0cef0e2f0ce692c3695c5c029d0044865f782366286",
        None),
    "search-shots-3": (
        0, "6bbc3408d55b192ba5c3d0cef0e2f0ce692c3695c5c029d0044865f782366286",
        None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(name: str, workdir: Path) -> tuple[int, str, str | None]:
    """Run one command from ``workdir``, the current directory, beside
    ``five.json``: its exit code and the digests of what it printed and
    wrote."""
    (workdir / "five.json").write_text(FIVE_DB)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(COMMANDS[name])
    written = [p for p in workdir.iterdir() if p.name.startswith("out.")]
    assert len(written) <= 1
    return (code, _sha(out.getvalue().encode()),
            _sha(written[0].read_bytes()) if written else None)


def test_every_command_is_pinned():
    assert len(COMMANDS) == 27
    assert set(GOLDEN) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    # print the GOLDEN table for the current code
    home = os.getcwd()
    print("GOLDEN = {")
    for name in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            code, out, written = _digests(name, Path(tmp))
            os.chdir(home)
        written = f'"{written}"' if written else "None"
        print(f'    "{name}": (\n        {code}, "{out}",\n        {written}),')
    print("}")
