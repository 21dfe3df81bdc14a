"""Golden bytes: the trace JSON and the SVG of every demo, and the traces
every fuzz op audits, pinned by sha256.

A change to the serializer, the renderer or a demo's program that alters
one byte of either output fails here, and so does a change to one bit of a
coordinate any fuzz op resolves. Re-pin only for a deliberate change of the
output format or of the steps a demo or a construction builds, and say so in
CHANGES.md.
"""

import hashlib

import pytest

from compass import dsl, fuzz, svg, tracedoc
from compass.demos import DEMOS
from compass.geom import Point

# name: (sha256 of the trace JSON, sha256 of the SVG)
GOLDEN = {
    "add": (
        "05f46f2e883d904e3d97b1a60ce861636810277d8baedd4fa45d8821eec260aa",
        "089ee465822a4bfbef3c33ded7b2c731099163b4882434545d9ac1a8693a6589"),
    "conjugate": (
        "3517ed913afe88a9231d03bd09b97b2f82c1f53aaed7b3eead0186290a26ce22",
        "422f140723f46946674276e28cf476fe566230a309a0e4bb211142f9990e072b"),
    "extend": (
        "f4d76067bae8a2f66c384727109a6b3e22660783fd70fff55a9c4971e9842885",
        "29cef538e921561106ec0ac639c0b856617eafd10f38f4db2eed4044de73843f"),
    "half": (
        "4b1d7e13a5892ea6378257f6afaa3040d733cd92ba2c7e28226ef72f16f68722",
        "783ce4e766574b17b0e99bbda854eac7c4583b89a6b96ba6bfef70f2a1857465"),
    "invert": (
        "d5b9a7f4c48f46faad4b92ffa8c92f06cadf019e2da9e9096cb870ae88d8d317",
        "21336eaa1f567b2572bc4e044346a733a101e531bc05bdb26895bf07e1d15393"),
    "line-circle": (
        "06bd23cddc454d344da7b6dd1ae261a015adcb482987617ae3998a9c34684084",
        "f766f4b1547c92b9982a9d2781080e2ee2478be224efa5e940d4ba1aa4384ecf"),
    "line-circle-diameter": (
        "a63487ea8161a854d463d2cde50a2b7b241bdd4b684314668098de92eaedb618",
        "9b2d65fb5b449247c0e6db41e26c6208c7cc4828865d3548e8959914da7f48dc"),
    "line-line": (
        "7e2ca614638618ed01655ead4919bae6f7d5951d02433faa67bd542124616dd7",
        "63263b75adfd669dafbaa4247d8d9100ebae5ba151bdeafab50a132b37a9c22e"),
    "midpoint": (
        "221101b63edb40a2d0dd55859db466f495becd0f6dcece6d30f54ac3485517ae",
        "89b32b1c79c2d54369e107402ada3026d61e083f8308dad2cfe261de8771504b"),
    "mul": (
        "6b965a2ba01472db779f14807b3ab22bd7ea49c068650eecf4f5dc27ed4467b3",
        "e55ab057ade0344ad1707330307486eecc9b0317e947be96f144da48b4a61871"),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_demo_is_pinned():
    assert set(GOLDEN) == set(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_bytes_are_pinned(name):
    result = dsl.run_source(DEMOS[name])
    doc = tracedoc.document_from_trace(
        result.trace, result.seed_names,
        tuple(point for point, _ in result.named_points))
    text = tracedoc.dumps(doc)
    names = dict(enumerate(result.seed_names))
    names.update({node: point for point, node in result.named_points})
    picture = svg.render_trace(result.trace, names)
    assert (_sha(text), _sha(picture)) == GOLDEN[name]
    assert tracedoc.dumps(tracedoc.loads(text)) == text
    rebuilt = tracedoc.trace_from_document(tracedoc.loads(text))
    assert rebuilt.program == result.trace.program
    assert rebuilt.resolved == result.trace.resolved


# op: sha256 over the traces ``fuzz.run_op(op, 120, seed=1)`` audits; 120
# cases reach every sampler stratum
FUZZ_GOLDEN = {
    "apex": "41e7c495973d73914706383531d0fd10c2813aa74ee1204376fb57c4f14fab7e",
    "extend": "b8fa886db3aa0743af40f7d6fcdcad81536bd30d440f9c96d2728be7d632ddc0",
    "nth": "bddc263049cdf499f3872e494b5b8dda99b2c7587c82988f8f7770eb9c6c1ca8",
    "midpoint": "77ef79a8cf42de986ae2a4b0ab369a3f1287b576e1d9d4790aa4d7b013ad43e2",
    "foot": "a9d6d5ae4b196a17b514ee29f188e5f3d4ec937a07bccf90201ec9ccd24fa400",
    "invert": "cb393cd9ad57649aa83f51cb8490ad575ce3f1b40b720e75dfad16ad1ab8cf56",
    "line-line": "995d98a21f58dbf0d8ee112b23b0134d09f2aac63ae5df00eae1acbc0651c3fd",
    "line-circle": "23b86b74ddbba0c6600e103bd1ed604e604bdd8a39588803553929892b7c3ce7",
    "line-circle-diameter":
        "ef158a5b5687c402ea6ac0e01ad6afef1ab982398864e3f69052f5c4e8e32fed",
    "mul": "d2ecb35d63059582b115e0acb72c4caa4a94e7f443a29d6aeaf6dda828518d08",
    "add": "dd8ea7707cb2f913f9b7f5a3c6413fae678efedc8c59ce9d9e8be8e94f7bd601",
    "conj": "90d3118a9e8d937b9ca206f876725b444131d9a7ed830dc5a9c8b70ff8815a4d",
}


# op: (failures, audited, max_err.hex()) of ``fuzz.run_op(op, 120, seed=1)``;
# line-circle audits only its hits
FUZZ_REPORTS = {
    "apex": (0, 120, "0x1.8000000000000p-49"),
    "extend": (0, 120, "0x1.ad5336963eefcp-47"),
    "nth": (0, 120, "0x1.09eeacab398f3p-44"),
    "midpoint": (0, 120, "0x1.8154be2773526p-47"),
    "foot": (0, 120, "0x1.8bc708d4fcf15p-43"),
    "invert": (0, 120, "0x1.0a1c063916ca4p-42"),
    "line-line": (0, 120, "0x1.57a824688fe44p-43"),
    "line-circle": (0, 90, "0x1.43f22bf3aa502p-43"),
    "line-circle-diameter": (0, 120, "0x1.b0f63e8f52274p-46"),
    "mul": (0, 120, "0x1.854bfb363dc39p-48"),
    "add": (0, 120, "0x1.1ec671c145243p-47"),
    "conj": (0, 120, "0x1.176d9090c79a8p-48"),
}


def test_every_fuzz_op_is_pinned():
    assert set(FUZZ_GOLDEN) == set(FUZZ_REPORTS) == set(fuzz.OPS)


@pytest.mark.parametrize("op", fuzz.OPS)
def test_fuzz_traces_are_pinned(op, monkeypatch):
    """Each audited trace's (steps, circles, picks) and the ``float.hex`` of
    every resolved coordinate, and the report's numbers: bit-exactness far
    past the demos."""
    h = hashlib.sha256()

    def audit(trace):
        program = trace.program
        h.update(f"{len(program.steps)} {program.circle_count()} "
                 f"{program.pick_count()}|".encode())
        for v in trace.resolved:
            if type(v) is Point:
                h.update(f"{v.x.hex()} {v.y.hex()};".encode())
            else:
                h.update(f"{v.center.x.hex()} {v.center.y.hex()} "
                         f"{v.radius.hex()};".encode())

    monkeypatch.setattr(fuzz, "purity_audit", audit)
    report = fuzz.run_op(op, 120, 1)
    assert (report.failures, report.audited, report.max_err.hex()) == FUZZ_REPORTS[op]
    assert h.hexdigest() == FUZZ_GOLDEN[op]


# sha256 over the details ``fuzz.run_op(op, 3, seed=42)`` reports for each op
# when every case fails: the lines a failing ``compass fuzz`` prints
FAILURE_DETAILS = "332a12a9853d6190873f606ad0db65ea1498057c60cf22e573de87c1ce9adb57"


def test_fuzz_failure_details_are_pinned(monkeypatch):
    monkeypatch.setattr(fuzz, "FUZZ_TOL", -1.0)
    monkeypatch.setattr(fuzz, "INVOLUTION_TOL", -1.0)
    h = hashlib.sha256()
    for op in fuzz.OPS:
        h.update("\n".join(fuzz.run_op(op, 3, 42).details).encode())
    assert h.hexdigest() == FAILURE_DETAILS


def test_passing_fuzz_cases_format_no_detail(monkeypatch):
    def refuse(point):
        raise AssertionError(f"a passing case formatted {point}")

    monkeypatch.setattr(fuzz, "_fmt_pt", refuse)
    for op in fuzz.OPS:
        assert fuzz.run_op(op, 3, 42).failures == 0
