"""Golden outputs: the bytes every CLI command prints and writes, pinned by
sha256, so that a refactor that claims byte-identical output is checked
against the outputs of the code before it.

Each command runs in a fresh directory and writes under a fixed relative
name, because ``compile`` and ``bench`` print their ``--out`` path; the
directory also holds ``five.json``, an unpadded database.  To re-pin after an intended output change, print ``_digests`` for every
command and paste the new values.
"""
from __future__ import annotations

import hashlib
import os
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
        "b7e2210fd07c63e887ffe30f50f396b149833d9d9df4349d2817e4bc61191129"),
    "compile-diffusion": (
        0, "6f6c7f8c502efaaf9d716065aea57d8d2e9f8fd923252f0414ef8520baab1f4f",
        "755e88d10225623b4dfd49d5508772f9c89af132c1cddb690cc98d8cfe38d2bf"),
    "compile-diffusion-lowered": (
        0, "09459525981e9d0445e4ee94bc632584470cdf513b343f514ed1c3eaf18e716d",
        "8d5cda80d6f3d32df25abdaead9f634ce9b7a45a91d8a24a33615d893ae3bd1d"),
    "compile-kernel": (
        0, "0ccd1b1a3d9d13889df4ff194c6bdd7140b003bdc2af78eb96b52fe66cb1dba1",
        "ce3a4ecc926a866f17dd35408228092247c9062ff2184cca0e140228b8d5c355"),
    "compile-kernel-lowered": (
        0, "c093cfb8411082e140eec2ff27129a1b8a414cffc631e414e5b4822137a8cbfa",
        "bc88b3ed89310ff4d0d572d23670515845aee4f37ce8a794727fdf3bad83bce9"),
    "compile-m1": (
        0, "7c119692f797cdf295aaea6840dd8766eabba945546d0aef63810e33398e5bae",
        "12e8ef55550b916eabf27e3a54cba03b43b0d57ad2c07485914541a87e1f5e1e"),
    "compile-m1-lowered": (
        0, "0e3a1b2f60ae4170c9b3e0070e7874d5550ad76f5b75f99318bca3c2996da2ec",
        "62507cf9809ff1dc0507e030a67b34ceda2a9f4788b54c18b41e498b21c4a75e"),
    "compile-m2": (
        0, "447b7da8608a9e0bcfbb5c57ff34ec6f02fd9d5bb9088361f4e28d4d54bd735b",
        "e17188134506b915281bdc2f06e3a11f4109514ff2c545553fc0632684b46844"),
    "compile-m2-lowered": (
        0, "ba619aed6c056b7079d7cb83e12285669c73d57a3b97e424a2cbd77221b91a94",
        "5f36403a2f8189a58ee80008fe3269bfe68a8a718fdc0f7b60c564bec7d1dfc9"),
    "compile-naive": (
        0, "21ffb53e8a46f90648e467376300e6374ebaa88b21e321db1a26f298689df4bd",
        "0d1501391df2cf40d881a1d23d6e746a50fbb671742a77e9f521e07ad0473cc4"),
    "compile-naive-lowered": (
        0, "58dd6996f6791a4cbb20ef24a87ddf65b9bf5e2ae1e7f77ad8207c24904e2f86",
        "c7afc4656c3b1a1af05b7ec7ff38818f47976732e9a60b70d002bc2c0eb23061"),
    "compile-oracle": (
        0, "e1696911d4f196ed35e501f3eabfc31c0f7d4e0da3071b30023f2a88d34f0d83",
        "0de23aaf9f2eba3c9223dca8a89a7c5365d625c13fef465cdf98f3a32fcd67f9"),
    "compile-oracle-lowered": (
        0, "944e394ed5a27d4b0c63a2ebb273d7fd5206804f28cac2bc7a48908076ca3c42",
        "0194828d0f9b32dffd5ce33ab031d7cbfb89c4051abc85269281933b5409be53"),
    "compile-qdam": (
        0, "45012c0cc77b9c9690ce41f310c13f5f1cc63c6c4c230b53cde83e2d139b851f",
        "820b9cb64b625cdeafb1373ca6653375b01903b9b38527c189c6713cc0f4f423"),
    "compile-qdam-lowered": (
        0, "4ee719df2568027ea6616c0c3e745ff7b87def5cfa837ef6dc894022044cc76a",
        "53c6c55c4de2ed15291b0b7adb4e2c579288819eb358999b177e6b5a4111e0cb"),
    "estimate-bound": (
        0, "28d4af850a7f621143978e9101bff8a94f5d2111ac279910ec77e6f4fa495da7",
        None),
    "estimate-measured": (
        0, "377a2345900dd4ab91c2e314bf7704e03d665297dcbe07c1c5f7960ed2f05613",
        None),
    "estimate-naive": (
        0, "6f271bc43129fccf7387fe3bd094d5bec3b6188e83f19275ebdc126bb2f0292d",
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


def _digests(argv, workdir: Path, capsys) -> tuple[int, str, str | None]:
    code = main(argv)
    out = capsys.readouterr().out
    written = [p for p in workdir.iterdir() if p.name.startswith("out.")]
    assert len(written) <= 1
    return code, _sha(out.encode()), _sha(written[0].read_bytes()) if written else None


def test_every_command_is_pinned():
    assert len(COMMANDS) == 27
    assert set(GOLDEN) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_byte_identical(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "five.json").write_text(FIVE_DB)
    assert _digests(COMMANDS[name], tmp_path, capsys) == GOLDEN[name]
