"""Byte-identity contract for CLI output.

Each case runs one ``infatom`` command in-process and compares the
SHA-256 of its stdout with a digest recorded from a known-good build.
A change that alters any printed byte of these outputs (a float's last
digit, a line order, a label) fails here.  Re-record only on purpose:
``python tests/test_cli_golden.py`` prints the current digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from infatom.cli import main
from infatom.dist import dump_csv, extend_with_joint, gen_gate

GATES = ("xor", "and", "copy", "two-coins-copy", "random(0,[3,3,3])", "random(7,[2,3,4])")

#: Gates whose distributive solve succeeds (the others exit 1 by design).
SET_THEORETIC_GATES = ("copy", "two-coins-copy")

LATTICE_GATE = "random(11,[2,2,2,2])"

#: A gate whose terms reduce, so the printed term values go through R1/R2.
REDUCING_GATE = "parity(5)"


def _cases() -> list[tuple[str, str | None, tuple[str, ...]]]:
    """(case id, gate spec written to a file or None, argv after the file)."""
    cases: list[tuple[str, str | None, tuple[str, ...]]] = []
    for spec in GATES:
        cases.append((f"decompose:{spec}", spec, ("decompose", "{}")))
        cases.append((f"decompose-json:{spec}", spec, ("decompose", "{}", "--json")))
    for spec in SET_THEORETIC_GATES:
        cases.append(
            (f"decompose-set-theoretic:{spec}", spec, ("decompose", "{}", "--set-theoretic"))
        )
    for n in range(3, 9):
        cases.append((f"decompose-parity:{n}", None, ("decompose", "--parity", str(n))))
    cases.append(("scan:50:3", None, ("scan", "--samples", "50", "--seed", "3")))
    for n in (6, 7, 8):
        cases.append((f"lattice-dot:{n}", None, ("lattice", str(n), "--dot")))
    lattice_argv = ("lattice", "4", "--dot", "--dist", "{}")
    cases.append((f"lattice-dot-dist:{LATTICE_GATE}", LATTICE_GATE, lattice_argv))
    cases.append(("lattice:8", None, ("lattice", "8")))
    reducing_argv = ("lattice", "5", "--dot", "--dist", "{}")
    cases.append((f"lattice-dot-dist:{REDUCING_GATE}", REDUCING_GATE, reducing_argv))
    return cases


#: Lift cases: (case id, gate spec, ``decompose`` options with ``{}`` for
#: the gate file, number of lifts in a row, rows shuffled before lifting).
#: Each records the stdout of ``validate`` of the input decomposition, of
#: the last ``lift``, and of ``validate`` of its result against the gate
#: extended by the joint as many times as it was lifted.
LIFTS = (
    ("xor", "xor", ("{}",), 1, False),
    ("random(0,[3,3,3])", "random(0,[3,3,3])", ("{}",), 1, False),
    ("parity(4)", "parity(4)", ("--parity", "4"), 1, False),
    ("xor-twice", "xor", ("{}",), 2, False),
    ("random(0,[3,3,3])-shuffled", "random(0,[3,3,3])", ("{}",), 1, True),
)


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stdout_digest(tmp: Path, spec: str | None, argv: tuple[str, ...]) -> str:
    if spec is not None:
        path = tmp / "gate.csv"
        assert main(["gate", spec, "-o", str(path)]) == 0
        argv = tuple(str(path) if a == "{}" else a for a in argv)
    return _digest(_stdout(argv))


def _shuffle_rows(path: Path) -> None:
    """Rewrite a decomposition JSON with its table rows in a seeded order."""
    obj = json.loads(path.read_text())
    tbl = obj["table"]
    order = list(range(len(tbl["rows"])))
    random.Random(0).shuffle(order)
    tbl["rows"] = [tbl["rows"][i] for i in order]
    tbl["entries"] = [tbl["entries"][i] for i in order]
    path.write_text(json.dumps(obj))


def _lift_digests(tmp: Path, spec: str, options, lifts: int, shuffle: bool) -> dict[str, str]:
    table = gen_gate(spec)
    dists = [tmp / f"gate{k}.csv" for k in range(lifts + 1)]
    for path in dists:
        path.write_text(dump_csv(table))
        table = extend_with_joint(table)
    decomps = [tmp / f"decomp{k}.json" for k in range(lifts + 1)]
    options = [dists[0] if a == "{}" else a for a in options]
    _stdout(["decompose", *options, "--json", "-o", decomps[0]])
    if shuffle:
        _shuffle_rows(decomps[0])
    digests = {"validate-input": _digest(_stdout(["validate", decomps[0], dists[0]]))}
    for k in range(lifts):
        lifted = _stdout(["lift", decomps[k], dists[k]])
        decomps[k + 1].write_text(lifted)
    digests["lift"] = _digest(lifted)
    digests["validate"] = _digest(_stdout(["validate", decomps[-1], dists[-1]]))
    return digests


DIGESTS = {
    'decompose:xor': 'c4507f72b3749953aeaa5547019a864ab7f26d6df61d2e80cc55b70033eaff1c',
    'decompose-json:xor': '06a597093d78ab27443e7b55f8fdead257710c986af9c6cc0a29a6f6e97e951a',
    'decompose:and': '0eedcad01ddd204fb1bebc1cf5f498fcd77d809fea312ba3516f9846f929bb48',
    'decompose-json:and': 'c36cf4dd9437eb2e361b4829d8ffc988f82cb94dc94a280b0f7d0be097804320',
    'decompose:copy': 'cb7ebafdc40c25ebf4c57b2bcd88577f13f5b4c7cd6905f40e3336c107ea8c0a',
    'decompose-json:copy': 'c7e19d728fa2e2048b534dfe0c8d2c9980044731951938146ffc63d26d8a6f1a',
    'decompose:two-coins-copy': '837ecb77607bbaa4bf281511bc78fc6e7a1661db74e78f17efae9e7b1422b236',
    'decompose-json:two-coins-copy': '968a88062cf033806832e31b42afc207d61f43e60044b05115d12f41e4c6cb2e',
    'decompose:random(0,[3,3,3])': '49203bfeb5527aa70125ec8ce3da5ef8cd458207dd2aac145f484feb85c92191',
    'decompose-json:random(0,[3,3,3])': 'fc2bae5601f69be16f1eccc3117ec88971c751e567eeeb3bd4deb3c82dac2af9',
    'decompose:random(7,[2,3,4])': 'be78d90267798ccd8e0ed2adeb0e329fc377bfa53163a02d22b5952157079ece',
    'decompose-json:random(7,[2,3,4])': '125d9c16a3a190262a1376172ac519bcb13924101d1102fcdd52b1216ef2ca62',
    'decompose-set-theoretic:copy': '2777083ac5531fb0a1fa601a6879d75f50d5632262a766f131e932071d430498',
    'decompose-set-theoretic:two-coins-copy': 'e88443db1ac20da17e5e61759c595fbebacc6ab3c4d774ae79d9abef7c34acd1',
    'decompose-parity:3': 'fe8323634a693100081241d1ff00e21bea946e471dc9b49742481146587a3592',
    'decompose-parity:4': 'ca29167106adbfd54196edd62e7847f2767857d18d3628ebf4ff2ea7a23feb56',
    'decompose-parity:5': '3bd005d039be2b74cbc8e0d966492e8bcf2e06ea8fd9835fbd331b9bc33ff502',
    'decompose-parity:6': '06e5e6ac5fffad782ba7f44971946cf3cae1ed44da2af865f3eaa89048b67b5b',
    'decompose-parity:7': 'd2aa23497b9f4aa60e0b0e18fd339ca2ed44de7e4b73c8e5a3140314f02512d3',
    'decompose-parity:8': 'ca8ab098f9a65c164558e29b715120a14d4307ab1b93805c8c79050016fc4f1f',
    'scan:50:3': '3f2e4908d52615220b51d8660896c628b40ac88a21f15ef804f179aacb414f43',
    'lattice-dot:6': 'c537feb317015cdea2c6ccf01d62fcadbe980f08aa89e94be4dabd1e8fa76cf0',
    'lattice-dot:7': 'a157682b7826f1aabed351468ec2353241fc64a633da44fb81ff8897ca9efd6d',
    'lattice-dot:8': '0f4eade610a25252c0433638ec3603f4381242f0b7b1c6a0b377517effb6c94d',
    'lattice-dot-dist:random(11,[2,2,2,2])': '7ef04d5ba40f9e69b83fc17f0bbcc3eb804627a124aa28f21025c26401be61df',
    'lattice:8': 'beae82188dcd0ce212611fe7a23cc07ac85e29ffb16b2db288022545f093578f',
    'lattice-dot-dist:parity(5)': '332c2ecaf49e972120f055f88988c722421553ca072fa849687726eda55028de',
    'validate-input:xor': '54a532a6ff312350ce55a7904a0be6e919a1924e88eb6783f902dcfaf7cc9cec',
    'lift:xor': '44ee2789c1dc802bb69bc1cc2b08f84e37d7dd9b12ebe0c775c08046cfdca30a',
    'validate:xor': '54a532a6ff312350ce55a7904a0be6e919a1924e88eb6783f902dcfaf7cc9cec',
    'validate-input:random(0,[3,3,3])': 'c4d0abd97b1fe9c274683e4896b44dbca288fbcf261278a1595072b76cbff3d8',
    'lift:random(0,[3,3,3])': '3ce511a4585ffd8e6ad8ac62c85fa55dceacf232de7e0d342411197988cc4f4b',
    'validate:random(0,[3,3,3])': 'c4d0abd97b1fe9c274683e4896b44dbca288fbcf261278a1595072b76cbff3d8',
    'validate-input:parity(4)': '54a532a6ff312350ce55a7904a0be6e919a1924e88eb6783f902dcfaf7cc9cec',
    'lift:parity(4)': '54d2babfd8cacc2bcd11be750553d77c457f2eaa693329905571876980538148',
    'validate:parity(4)': '54a532a6ff312350ce55a7904a0be6e919a1924e88eb6783f902dcfaf7cc9cec',
    'validate-input:xor-twice': '54a532a6ff312350ce55a7904a0be6e919a1924e88eb6783f902dcfaf7cc9cec',
    'lift:xor-twice': '252d455cb316e45baa6936b747bbc4fa0f94fa7cc5eee2647af64f19000f5e81',
    'validate:xor-twice': '54a532a6ff312350ce55a7904a0be6e919a1924e88eb6783f902dcfaf7cc9cec',
    'validate-input:random(0,[3,3,3])-shuffled': 'c4d0abd97b1fe9c274683e4896b44dbca288fbcf261278a1595072b76cbff3d8',
    'lift:random(0,[3,3,3])-shuffled': '3ce511a4585ffd8e6ad8ac62c85fa55dceacf232de7e0d342411197988cc4f4b',
    'validate:random(0,[3,3,3])-shuffled': 'c4d0abd97b1fe9c274683e4896b44dbca288fbcf261278a1595072b76cbff3d8',
}


CASES = _cases()


@pytest.mark.parametrize("case_id, spec, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_is_byte_identical(tmp_path, case_id, spec, argv):
    assert _stdout_digest(tmp_path, spec, argv) == DIGESTS[case_id]


@pytest.mark.parametrize("case_id, spec, options, lifts, shuffle", LIFTS,
                         ids=[c[0] for c in LIFTS])
def test_lift_and_validate_stdout_is_byte_identical(tmp_path, case_id, spec, options, lifts,
                                                    shuffle):
    digests = _lift_digests(tmp_path, spec, options, lifts, shuffle)
    for command, digest in digests.items():
        assert digest == DIGESTS[f"{command}:{case_id}"], command


def test_corpus_is_fully_recorded():
    commands = ("validate-input", "lift", "validate")
    lift_ids = [f"{command}:{c[0]}" for c in LIFTS for command in commands]
    assert sorted(DIGESTS) == sorted([c[0] for c in CASES] + lift_ids)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case_id, spec, argv in CASES:
            print(f"    {case_id!r}: {_stdout_digest(Path(tmp), spec, argv)!r},")
        for case_id, *rest in LIFTS:
            for command, digest in _lift_digests(Path(tmp), *rest).items():
                print(f"    {f'{command}:{case_id}'!r}: {digest!r},")
