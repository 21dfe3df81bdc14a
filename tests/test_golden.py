"""Golden bytes: the trace JSON and the SVG of every demo, the trace, SVG
and ``--points`` text of every good corpus script, and the traces every
fuzz op audits, pinned by sha256.

The demo and corpus outputs are rendered by ``cli._RENDERERS``, the path
``compass run`` writes them through. A change to the serializer, the
renderer or a script's program that alters one byte of an output fails
here, naming the script and the output, and so does a change to one bit of
a coordinate any fuzz op resolves. Re-pin only for a deliberate change of
the output format or of the steps a script or a construction builds, and
say so in CHANGES.md.
"""

import hashlib
import math
import types
from pathlib import Path

import pytest

from compass import cli, dsl, fuzz, tracedoc
from compass.demos import DEMOS
from compass.geom import Point

# name: (sha256 of the trace JSON, sha256 of the SVG)
GOLDEN = {
    "add": (
        "1517f8be7043fdc3a57bbf12f358be0330979b099ee9bc9021b4ed0bc2f7e99d",
        "089ee465822a4bfbef3c33ded7b2c731099163b4882434545d9ac1a8693a6589"),
    "conjugate": (
        "64d6efcd50b83e1a3eabf37cb351a3831d7ac0d9e79687da0aeac37e5bc944fe",
        "17d622a18d5105d61f7649abc652b855e0da05212c9aef248faeb7a79017cd77"),
    "extend": (
        "c73723b2ff14ab4d902e9c0cfa35e7171813e7b8c052a971a783b69fb49c987c",
        "29cef538e921561106ec0ac639c0b856617eafd10f38f4db2eed4044de73843f"),
    "half": (
        "c5084fa1b3b198148b1fcf92764d90d02f7499edbe948bc4e8494cd6b00bced9",
        "726c1bae623f155b462ea6ee091e84569e225feae5d61e1497d54f86cb73d626"),
    "invert": (
        "787eb87e4cbbb86e01d65ea48f04b8266bff606f0c95c7a9d1dbfd88c715afa7",
        "21336eaa1f567b2572bc4e044346a733a101e531bc05bdb26895bf07e1d15393"),
    "line-circle": (
        "03825e14d465a2aad5adc758c40a0955a36f3cac468f7ceb03be2379981b9b8d",
        "f766f4b1547c92b9982a9d2781080e2ee2478be224efa5e940d4ba1aa4384ecf"),
    "line-circle-diameter": (
        "932504b53baeca9e68cd0ba163d383b6889f35c2bf2722b0b7cb23686adec0ad",
        "9b2d65fb5b449247c0e6db41e26c6208c7cc4828865d3548e8959914da7f48dc"),
    "line-line": (
        "db68e63703194bf702472a3c1d17b350b322ae0d4ae1196636d549ceb081c8c9",
        "8403e83f5a277463b6665733343e9880291887a4d690c2bcc602831bb26ca8dc"),
    "midpoint": (
        "140bc040b723aaaa4c13778f16cb2f5663f24b646428b240e4bdef7ac0df9be9",
        "89b32b1c79c2d54369e107402ada3026d61e083f8308dad2cfe261de8771504b"),
    "mul": (
        "f39ec4adbdf4c9873500b1c358919640d68a57d5cf9a3c421bd5325dd87b1419",
        "e55ab057ade0344ad1707330307486eecc9b0317e947be96f144da48b4a61871"),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_demo_is_pinned():
    assert set(GOLDEN) == set(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_bytes_are_pinned(name):
    result = dsl.run_source(DEMOS[name])
    text = cli._RENDERERS["trace"](result)
    picture = cli._RENDERERS["svg"](result)
    assert (_sha(text), _sha(picture)) == GOLDEN[name]
    assert tracedoc.dumps(tracedoc.loads(text)) == text
    rebuilt = tracedoc.trace_from_document(tracedoc.loads(text))
    assert rebuilt.program == result.trace.program
    assert rebuilt.resolved == result.trace.resolved


CORPUS_GOOD = Path(__file__).parent / "corpus" / "good"

# the targets of ``compass run --trace --svg --points``, in the order pinned
TARGETS = ("trace", "svg", "points")

# script: sha256 of its (trace JSON, SVG, ``--points`` text); the points
# are the renderer's text, which stdout repeats for each ``emit points "-"``
CORPUS_GOLDEN = {
    "01-apex.compass": (
        "175b0dda274048fd8333eaeee3790a4c986559146254008d07fc27c5b844bbe8",
        "3473668573038bfd45d13459db82ff58014e0c101a91b1ddaef4b464fb00cf6f",
        "b98d51f9b6cca293ad2cb689f3d02826c30f89895fa2bd2e4e7d4fc6704e4622"),
    "02-extend.compass": (
        "c73723b2ff14ab4d902e9c0cfa35e7171813e7b8c052a971a783b69fb49c987c",
        "29cef538e921561106ec0ac639c0b856617eafd10f38f4db2eed4044de73843f",
        "3500fe9ae8699d2b8d0354c9022ddc407cb74b0a5c8825239620a8b105899310"),
    "03-midpoint.compass": (
        "01fe70093bd6166990f1517e1fdd64c2d6e75e612a3c0509f97c875bf0615ec8",
        "8d888d2b6553af1817f61d54526767d8c224410b978f1746861d6b4408ee738a",
        "70b1ed8de41eb03747e5f8d0d5ebe6f5a7d2ba9142451aa4483d160360637490"),
    "04-diameter.compass": (
        "8559405e9cf2bcdff5af741f344dc90b9d6ade27fd6bfcffe2a96ed007bc36c5",
        "e50a34da8875b6c65ce19982337c408a0f2138e887a0710d9492a36f539dd280",
        "dc729d9df0da2471bf1c995494764313759f7e74739b679256bb792dcd3b7f30"),
    "05-foot.compass": (
        "622d4c623e696adb40bd2e06b2545b877babc342297e12a028f144808b042253",
        "dea4f9a9d93ddf1c7578466bfcec31d94a39d2ad9c528e79afa0967040fc6a72",
        "9adcb1d93786bc1df45a291d25807fba3eca8d250332c5f17f45a1a92b3d2102"),
    "06-invert-exterior.compass": (
        "787eb87e4cbbb86e01d65ea48f04b8266bff606f0c95c7a9d1dbfd88c715afa7",
        "21336eaa1f567b2572bc4e044346a733a101e531bc05bdb26895bf07e1d15393",
        "467230a3643aa1d0b3099d87a4f6d3796542ca0b2c6c277cb59457d61df2b85c"),
    "07-invert-interior.compass": (
        "240ce91db5547ce9c78e1adbf8913a21c93e533ab7ee227f6a44af40f044e827",
        "e3df2cc3eca02412cf5f8b387bdac8c4aec901cdcbf5e2280c90820866d0fd9e",
        "21ec184152debc3519687d4e18786905358f50f15a8b4b0f7338e1a0c832087b"),
    "08-linexline.compass": (
        "db68e63703194bf702472a3c1d17b350b322ae0d4ae1196636d549ceb081c8c9",
        "8403e83f5a277463b6665733343e9880291887a4d690c2bcc602831bb26ca8dc",
        "1e51fbf9b23f8360cf522510ec0a4634192301a8bd1a73c0a37e74ac73500a35"),
    "09-linexcircle.compass": (
        "03825e14d465a2aad5adc758c40a0955a36f3cac468f7ceb03be2379981b9b8d",
        "f766f4b1547c92b9982a9d2781080e2ee2478be224efa5e940d4ba1aa4384ecf",
        "21b6c5eb7eb2809ad8fa66f9919444257622150a20fb91439678132edb29d74a"),
    "10-linexcircle-diameter.compass": (
        "932504b53baeca9e68cd0ba163d383b6889f35c2bf2722b0b7cb23686adec0ad",
        "9b2d65fb5b449247c0e6db41e26c6208c7cc4828865d3548e8959914da7f48dc",
        "c09691112119cbb9b278cbbbcb316cb0f62ee7bfab160f301a737cce6948003e"),
    "11-conjugate.compass": (
        "9c17ed784548e98d1ae2e6fd6f3b20f0d1533ff023bf702e80e431b8ed3f9db1",
        "b298316764090120b902206744009e3408dae85dcca9cf42af99934b8aa33f7c",
        "4d209b71d1952beee115b8b5b27605178613caf68dd5c1a360856936e25007a7"),
    "12-field.compass": (
        "96fe681e18b633bdaee7eeba58481429019dab28776f8132efc28b2fd55f36fe",
        "7f9af980fcb207fea0494bb36d77c01bae146cb3c560ae2c3cfbd06ef8bea627",
        "485c2585d4d8537a849b739e5bd88ae4f7bcbc38234686f6fb7bb2c3fe44da30"),
    "13-nth.compass": (
        "d60a2373623bdcaf3d4d85c2129d441c0a95f7683b925cc3ada0d4d17eaad99c",
        "6317f8d136ba5675427e45221c087fd2f2b916fb347ed5f6493f31e62030b655",
        "e618edca82253c9fb701bce22e7498d169e109b5a4d2703476fcdd80a67b4364"),
}


def test_every_good_corpus_script_is_pinned():
    assert set(CORPUS_GOLDEN) == {path.name for path in CORPUS_GOOD.glob("*.compass")}


@pytest.mark.parametrize("name", sorted(CORPUS_GOLDEN))
def test_corpus_bytes_are_pinned(name):
    result = dsl.run_source((CORPUS_GOOD / name).read_text(encoding="utf-8"))
    got = [_sha(cli._RENDERERS[target](result)) for target in TARGETS]
    moved = [target for target, sha, want in zip(TARGETS, got, CORPUS_GOLDEN[name])
             if sha != want]
    assert not moved, f"{name}: {', '.join(moved)} moved"


# op: sha256 over the traces ``fuzz.run_op(op, 120, seed=1)`` audits; 120
# cases reach every sampler stratum
FUZZ_GOLDEN = {
    "apex": "41e7c495973d73914706383531d0fd10c2813aa74ee1204376fb57c4f14fab7e",
    "extend": "b8fa886db3aa0743af40f7d6fcdcad81536bd30d440f9c96d2728be7d632ddc0",
    "nth": "bddc263049cdf499f3872e494b5b8dda99b2c7587c82988f8f7770eb9c6c1ca8",
    "midpoint": "77ef79a8cf42de986ae2a4b0ab369a3f1287b576e1d9d4790aa4d7b013ad43e2",
    "foot": "a9d6d5ae4b196a17b514ee29f188e5f3d4ec937a07bccf90201ec9ccd24fa400",
    "invert": "5f4562deaac72cc9840e6ca12e163863d8926a5695e23e49d6056a34f1ff1fe9",
    "line-line": "d34ef4d82488f4e78c323f32f0e284b9cc310c34b7d15c7b36b2e2c6a2898091",
    "line-circle": "23b86b74ddbba0c6600e103bd1ed604e604bdd8a39588803553929892b7c3ce7",
    "line-circle-diameter":
        "ef158a5b5687c402ea6ac0e01ad6afef1ab982398864e3f69052f5c4e8e32fed",
    "mul": "0f0766286b32adbffdd0d0e63a77e5dda263dbfa974e9807595f8bef6ea38c1a",
    "add": "155af1669a9dae01ae8bf35252a777af166baf2bd5727a91c44a7af1524921fa",
    "conj": "417853ebeff8324da82f051055f0f0782771c2b50203d1bffd0daf731676bfd4",
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
    "mul": (0, 120, "0x1.3ce4224eef4fbp-46"),
    "add": (0, 120, "0x1.f3db2174e7468p-48"),
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


def test_fuzz_measures_every_distance_with_math_dist(monkeypatch):
    """The sampler's margins, the line-line angle test, the involution checks
    and every case's error are ``math.dist``: fuzz's own code calls no
    ``hypot``, and the reports keep their pins, as ``dist`` is the ``hypot``
    of the differences bit for bit."""
    def refuse(*args):
        raise AssertionError(f"fuzz called hypot{args}")

    own_math = types.SimpleNamespace(**vars(math))
    own_math.hypot = refuse
    monkeypatch.setattr(fuzz, "math", own_math)
    for op in fuzz.OPS:
        report = fuzz.run_op(op, 120, 1)
        assert (report.failures, report.audited, report.max_err.hex()) == FUZZ_REPORTS[op]


# sha256 over the details ``fuzz.run_op(op, 3, seed=42)`` reports for each op
# when every case fails: the lines a failing ``compass fuzz`` prints
FAILURE_DETAILS = "332a12a9853d6190873f606ad0db65ea1498057c60cf22e573de87c1ce9adb57"


def test_fuzz_failure_details_are_pinned(monkeypatch):
    monkeypatch.setattr(fuzz, "FUZZ_TOL", -1.0)
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
