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
        "489e4d9fce79d58b12406b14f8fa35795bef203ea290564ac5246a0ff0ad53ba"),
    "compile-diffusion-lowered": (
        0, "09459525981e9d0445e4ee94bc632584470cdf513b343f514ed1c3eaf18e716d",
        "07273de2c365589632063890c68a217fe323dd68532eb68654857699426318ba"),
    "compile-kernel": (
        0, "c3fd18531c3c471e02f21c4bd8ae948934d35927e8f52063f48439d870735f59",
        "f215e95fd5ccfc0f7b90c2f897a85562b8aa5d9a710627c3494fa4507acda88b"),
    "compile-kernel-lowered": (
        0, "54ef2726187a9247ebe205122685e793ac4d97768fa194ad50c46b9e542b9232",
        "7d49d64c49e8c916295b3b7db3b18d791dd9cc121f03a42c16239f6ab21789f5"),
    "compile-m1": (
        0, "7c119692f797cdf295aaea6840dd8766eabba945546d0aef63810e33398e5bae",
        "19d7e61f91275fdb128eb7d53df05677796eb22bb48f71bcc16ef58514d7de9c"),
    "compile-m1-lowered": (
        0, "0e3a1b2f60ae4170c9b3e0070e7874d5550ad76f5b75f99318bca3c2996da2ec",
        "a57dd16715cc188cfc2e73fda773356bf3d4f3ad8ef4e7b3a6ae031f1fbfeba2"),
    "compile-m2": (
        0, "447b7da8608a9e0bcfbb5c57ff34ec6f02fd9d5bb9088361f4e28d4d54bd735b",
        "eb42b76e70bbd9b1cf56d8b35c890354020bf7d053c66d663503cf8e74a30039"),
    "compile-m2-lowered": (
        0, "ba619aed6c056b7079d7cb83e12285669c73d57a3b97e424a2cbd77221b91a94",
        "5dde43842e1548b1f521d171f3a6e51e94929472fe13033dabae1d28856f0afc"),
    "compile-naive": (
        0, "21ffb53e8a46f90648e467376300e6374ebaa88b21e321db1a26f298689df4bd",
        "0d1501391df2cf40d881a1d23d6e746a50fbb671742a77e9f521e07ad0473cc4"),
    "compile-naive-lowered": (
        0, "58dd6996f6791a4cbb20ef24a87ddf65b9bf5e2ae1e7f77ad8207c24904e2f86",
        "c7afc4656c3b1a1af05b7ec7ff38818f47976732e9a60b70d002bc2c0eb23061"),
    "compile-oracle": (
        0, "2677bbe726a1e28fc9a7199a430af3b8f6c71a0760da06dc0c5a0fc964c80f50",
        "af952a1ac06a9ba2f365562dc6a02ac296b6ebb951f10df52bad6738559f4c19"),
    "compile-oracle-lowered": (
        0, "b68d4b438d56f0e9c7fe91d99ba79ee30555b6ae0c377a4c18848507fb02fc6b",
        "c2e01712534ad4ec2717e3745c22de351808b21fde5a46580d991e0412e2367f"),
    "compile-qdam": (
        0, "45012c0cc77b9c9690ce41f310c13f5f1cc63c6c4c230b53cde83e2d139b851f",
        "d68678e97ba34c4762c5d0bdc517ea30205db3e04d1145c92b1e34f54909ac77"),
    "compile-qdam-lowered": (
        0, "4ee719df2568027ea6616c0c3e745ff7b87def5cfa837ef6dc894022044cc76a",
        "e71b21bf06146a9d88225d47a157766acc37005e0a53c1a10bdd24c703ebbd12"),
    "estimate-bound": (
        0, "e447ed1fc81bbdf18161bc8efe68ba92757a95af667671d1c881fe05cec7c5e6",
        None),
    "estimate-measured": (
        0, "b9957775affb989282e58f69a03a5154315291296c3f1e26adf4894f2b4557e6",
        None),
    "estimate-naive": (
        0, "a23d49462c9ddd91296ecc030ed3b4fb4aa3ff0346e6977b31d615d147079ca1",
        None),
    "search": (
        0, "c05578e7ef7f9b0d8e5ccd20acad0f5c85ca4de2de71557a30162e6a0a91199d",
        None),
    "search-absent": (
        2, "bf00777b7faa8321aad5f09f566c8d866f260cda16ed964eb6f60921a4b544a6",
        None),
    "search-iterations-1": (
        0, "1e1f402f06be7fbff3b9d99de7886815a7ac037bf60607355c7bd161a9737043",
        None),
    "search-iterations-5": (
        0, "ad38f5c6a56903a85db76effd147abcbd34448e02db24a027bd56a0118ca1ec4",
        None),
    "search-padded": (
        0, "eb443db008d9959fd05961e69a78b5de42f3d6625946a8f73d505091b5910be7",
        None),
    "search-padded-out": (
        0, "bb626457fea0466e894b25b3cc52d7342cea4593d1c40422011213d80ac1a543",
        "84263dce2a41f8c43c658a10285fc7dcd7aab1e77c89a56a4fbe141c2a418b0b"),
    "search-padded-sentinel": (
        2, "33f63e575032178cd11249f866de202038dbea4082b6ed9ea6a36e68a78c2e18",
        None),
    "search-sampled": (
        0, "c05578e7ef7f9b0d8e5ccd20acad0f5c85ca4de2de71557a30162e6a0a91199d",
        None),
    "search-shots-3": (
        0, "c05578e7ef7f9b0d8e5ccd20acad0f5c85ca4de2de71557a30162e6a0a91199d",
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
