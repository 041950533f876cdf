"""Golden outputs: the bytes every CLI command prints and writes, pinned by
sha256, so that a refactor that claims byte-identical output is checked
against the outputs of the code before it.

Each command runs in a fresh directory and writes under a fixed relative
name, because ``compile`` and ``bench`` print their ``--out`` path; the
directory also holds two unpadded databases: ``five.json``, and
``twenty.json``, whose 6-bit keys give record blocks with a partial
fan-out round, so its kernel holds S and SDG pads.  To re-pin after
an intended output change, print the table for the current code with

    PYTHONPATH=src python tests/test_golden.py

and paste only the entries whose output was meant to change.  With
``--kinds`` it prints instead the gate-kind counts of each ``compile-*``
entry, read from the JSON it writes, so that a re-pin can quote what
moved: run it before and after, and diff.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
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
    **{f"estimate-{mode}{suffix}": ["estimate", "--n", "6", "--m", "3",
                                    "--mode", mode, *flags]
       for mode in ("bound", "measured", "naive")
       for suffix, flags in (("", []), ("-csv", ["--format", "csv"]))},
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
    **{f"compile-twenty-{part}{suffix}": ["compile", "--db", "twenty.json", "--key",
                                          "000010", "--part", part, *flags,
                                          "--out", "out.json"]
       for part in PARTS
       for suffix, flags in (("", []), ("-lowered", ["--lowered"]))},
    "search-twenty": ["search", "--db", "twenty.json", "--key", "000010", "--return",
                      "val"],
    "search-twenty-absent": ["search", "--db", "twenty.json", "--key", "111111",
                             "--return", "val"],
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

# 20 records of 6-bit keys 7i + 3 mod 64, all distinct: search pads them to
# 32, so n = 5 and m = 6, and each record's fan-out of 6 pairs ends in a
# partial round.  Key 000010 is record 9's; 111111 is no record's
TWENTY_DB = json.dumps({
    "version": 1,
    "fields": [{"name": "id", "bit_width": 6}, {"name": "val", "bit_width": 5}],
    "key_field": "id",
    "records": [{"id": format(7 * i + 3 & 63, "06b"), "val": format(i, "05b")}
                for i in range(20)],
}, indent=1)

# name -> (exit code, sha256 of stdout, sha256 of the written file or None)
GOLDEN = {
    "bench": (
        0, "47708c284360b72efd5043bbcd680412e085639c33d1cf37540cdc26062ec198",
        "c5509124bb02ce79941d6621f990ab7c194ccd70dd5d60c5256f1ac613549c99"),
    "compile-diffusion": (
        0, "3d2e2a85ea761cc7c152a66232073eb360714e573d2f4dedbb4a43ee835b935a",
        "20c8919f304b8758004ee49fb368a5e55d2328d9697a6737312ac0a3168fdef2"),
    "compile-diffusion-lowered": (
        0, "dfb05e18b2122f215659dc98dfe1575ac00477d4f28c03496842df53167110d5",
        "a9363c35a2a1f032d219659ad0f16b277b541b7928b498ee773f6d8fe7946876"),
    "compile-kernel": (
        0, "3321cf825ba10280910885bc5af4e1f155ec08b546bf953534f9ab617ee7440c",
        "dd0f74f0fa96db724687db6ce61972571634c542b97a29c5cedea6a86f428456"),
    "compile-kernel-lowered": (
        0, "4ce6b8e1cc6893de7eaffaa8dba5b35c73e904252a511dde3c913a7d6135d731",
        "913a0887c4d4ae292d09de900f25f5e550c6adf33ff232cb67ac726bcb00ac43"),
    "compile-m1": (
        0, "7c119692f797cdf295aaea6840dd8766eabba945546d0aef63810e33398e5bae",
        "19d7e61f91275fdb128eb7d53df05677796eb22bb48f71bcc16ef58514d7de9c"),
    "compile-m1-lowered": (
        0, "8ae2dbea2e29b612b3f673a47b8cef8163d0e13441ca5799ff31d99745d1623f",
        "f36b00ad02b5cec9baa2cb985d16017bc03bea26f716c4a9250904275a34edf2"),
    "compile-m2": (
        0, "447b7da8608a9e0bcfbb5c57ff34ec6f02fd9d5bb9088361f4e28d4d54bd735b",
        "eb42b76e70bbd9b1cf56d8b35c890354020bf7d053c66d663503cf8e74a30039"),
    "compile-m2-lowered": (
        0, "bcde66272f05e3dc2d8d5c13e4dc0f1b822aeb40625813bb9cc9d222f7bf6d97",
        "da08d4f65dea1adc3ce9f1c5dee5f4ec5e6492fd7e8de6e39c34517f964eb8ad"),
    "compile-naive": (
        0, "21ffb53e8a46f90648e467376300e6374ebaa88b21e321db1a26f298689df4bd",
        "0d1501391df2cf40d881a1d23d6e746a50fbb671742a77e9f521e07ad0473cc4"),
    "compile-naive-lowered": (
        0, "e59981b98645be7c562698ccbe20557688a0c794cd416ef3940e717f2d29b6fb",
        "610150fbfae6302f91c7493fdb641641f12ac1121deccce1b5c9ed3c35f61948"),
    "compile-oracle": (
        0, "2677bbe726a1e28fc9a7199a430af3b8f6c71a0760da06dc0c5a0fc964c80f50",
        "af952a1ac06a9ba2f365562dc6a02ac296b6ebb951f10df52bad6738559f4c19"),
    "compile-oracle-lowered": (
        0, "20b83f7e269a6e32dcc39c0c55275b0719de0a3271dddb0c6d5667e793709e71",
        "5aa2abfaadeceadde931f73752f8df3e313d1ce84585858e74afd2190dfc3328"),
    "compile-qdam": (
        0, "45012c0cc77b9c9690ce41f310c13f5f1cc63c6c4c230b53cde83e2d139b851f",
        "d68678e97ba34c4762c5d0bdc517ea30205db3e04d1145c92b1e34f54909ac77"),
    "compile-qdam-lowered": (
        0, "95baf3a30f75bffc0cd31193ab0bc9bbc030968f809a364d3a41d60c9acae6da",
        "4a0b561d341dc4d59d4f4571190ce00d411b1fa188396e41578e11893f9e020e"),
    "compile-twenty-diffusion": (
        0, "faa63b5724e7190a2f07c4912400ea9eafe56cf4227535fe66a91c2f3125921a",
        "16097f53a5864de7143a344f18a184b45800e29671251f56684405a54fee60a7"),
    "compile-twenty-diffusion-lowered": (
        0, "5740787373074dd458653de9655ce8cea84b4900f5807791b65c0365cddadf35",
        "58a0e49d5cdc604f15f566dcbd947c002c148dee14e0a9ce40c9561c238ce48c"),
    "compile-twenty-kernel": (
        0, "a9390146359ab87da006a0bd3af24d8ccf7ce418a061e90eb7fa9b24753fdf71",
        "ab0b66a99f750386574b7a7ca9584d598186116993eb5d6494148d7d2ac54851"),
    "compile-twenty-kernel-lowered": (
        0, "da1db5da3bf5138377978d4162d4e330c3a15a1e0a67250bd9f237460f6a2d29",
        "f2f83ce44531810cd28e8e92b113fd232a8160bd160c0485cf0d04b44272d455"),
    "compile-twenty-m1": (
        0, "d1eb94bb2ad246f383b411ab632dc8e2a9f7fe11d97db5388595659fbbb63a68",
        "2e53a3f204165762250f1d6a5cd66d0fca29dcf283eb1d8818b6703db0347582"),
    "compile-twenty-m1-lowered": (
        0, "36b4f398371031504183f203f9ba22f6ac46010bd9aaf0b344d1cd5c068c881e",
        "828812a2956ced7f01272a3559c08eb72fc415b9c401664be736544ae4a1f655"),
    "compile-twenty-m2": (
        0, "319ed4b338227fea1138707889cc094e4cf699ecf052ff5dc7bc1c2af4863ae2",
        "343630da930f168a2d49b4c12ab2ef1a9e50ae3b233da190fc67d3513e01b995"),
    "compile-twenty-m2-lowered": (
        0, "450811403dd52831d4024299a8f1448c89be518bb84c00eb75f5835ca00d6586",
        "e0b2f562898b4c84165a396582febe97faf70a9bf6878e5c9615c2fd89007e2f"),
    "compile-twenty-naive": (
        0, "83f5f6fabab71acb9b0b77e7d65bc4600533f1f6d9edbf901f624e9599d2c6ec",
        "08848a45be688e1627ecead9262eedc62d4c35870951fa2b59f1ff816837c4ef"),
    "compile-twenty-naive-lowered": (
        0, "7a014c1fb9cb20cef6e96444b8ede2e7108353f9fa1675091f2bf8dff863c208",
        "8e3bf039793ddaa24e37a53d535aa4b2d355e4a1aa14bf1a7f094198b01cd6db"),
    "compile-twenty-oracle": (
        0, "da93e3640162995486fa028ced573cf088c1a5b8ca05fa5b86e4e332ff4d3890",
        "8bd9bbef7bae101fa5fd22d0348c56ad43f5958f1bb6ea572c3f42a6eef19484"),
    "compile-twenty-oracle-lowered": (
        0, "fafb0c1a51859ca0c0f4e534474aed9c797ea6cca40407a575feb2a46553b7ec",
        "70d76b73637ee37ab1abea85398d3f486755922d3d1f27b686fc39a36e12d6bd"),
    "compile-twenty-qdam": (
        0, "2585a6f6401b9ea87321e6b3622e69ff1c1065ad9667326bed3d21b670a5d4a3",
        "0bcea679425db7fa40e9917f664dc998660ad66ae05ec685b8a2f286091ae613"),
    "compile-twenty-qdam-lowered": (
        0, "d898ef8a1251e2efa74b3c7d4db21e0df4f3045e66e1e1544f0e4c59511337b3",
        "41fa827ec07a67208020766b2983e34d51ad1105191a469be03c973f0bb898fb"),
    "estimate-bound": (
        0, "e447ed1fc81bbdf18161bc8efe68ba92757a95af667671d1c881fe05cec7c5e6",
        None),
    "estimate-bound-csv": (
        0, "e8c1eb09a747cc374d91cc414239cd1ccba36304532d0374220a68026e816f36",
        None),
    "estimate-measured": (
        0, "b9957775affb989282e58f69a03a5154315291296c3f1e26adf4894f2b4557e6",
        None),
    "estimate-measured-csv": (
        0, "6316f385345f6ab0b3007f80f67d4b864073eb71f25fc748e0f0caef7db50382",
        None),
    "estimate-naive": (
        0, "a23d49462c9ddd91296ecc030ed3b4fb4aa3ff0346e6977b31d615d147079ca1",
        None),
    "estimate-naive-csv": (
        0, "776e73a1fa8ec9892d2e81b7a279ec946343caf4dbfba8806bebc34d92324851",
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
    "search-twenty": (
        0, "6b23d20801f03cfef2168d72b698b0ae61f14882b7641b28116dc6008fcbaa83",
        None),
    "search-twenty-absent": (
        2, "ce703ed3b1b9007036900c6c539c28149992df38eb04be84688c32f0a0a10e85",
        None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(name: str, workdir: Path) -> tuple[int, str, str | None]:
    """Run one command from ``workdir``, the current directory, beside
    the two databases: its exit code and the digests of what it printed and
    wrote."""
    (workdir / "five.json").write_text(FIVE_DB)
    (workdir / "twenty.json").write_text(TWENTY_DB)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(COMMANDS[name])
    written = [p for p in workdir.iterdir() if p.name.startswith("out.")]
    assert len(written) <= 1
    return (code, _sha(out.getvalue().encode()),
            _sha(written[0].read_bytes()) if written else None)


def test_every_command_is_pinned():
    assert len(COMMANDS) == 46
    assert set(GOLDEN) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests(name, tmp_path) == GOLDEN[name]


def _kinds(path: Path) -> str:
    """The gate-kind counts of the circuit JSON at ``path``, on one line."""
    counts = Counter(g["gate"] for g in json.loads(path.read_text())["gates"])
    return ", ".join(f"{kind} {count}" for kind, count in sorted(counts.items()))


if __name__ == "__main__":
    # print the GOLDEN table for the current code, or with --kinds the
    # gate-kind counts of every compile entry
    kinds = sys.argv[1:] == ["--kinds"]
    home, rows = os.getcwd(), []
    for name in sorted(COMMANDS):
        if kinds and not name.startswith("compile-"):
            continue
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            code, out, written = _digests(name, Path(tmp))
            written = f'"{written}"' if written else "None"
            rows.append(f"{name}: {_kinds(Path('out.json'))}" if kinds else
                        f'    "{name}": (\n        {code}, "{out}",\n        {written}),')
            os.chdir(home)
    print(*(rows if kinds else ["GOLDEN = {", *rows, "}"]), sep="\n")
