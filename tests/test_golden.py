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
        "aad1ecf8dd3d5604a945ec732af5cac80f1a33e5fc050040f41c42512361a63c",
        "d365eae72d5b42461155d99d4642b0f9126be0a8860eb4ac94b44622ae6f5f40"),
    "conjugate": (
        "696ebe14b0b5ea66cad9c6c8f22e4093675a0ed2dc2295e6d28c4a8da0462459",
        "d92846b6eddb1c44145871985cdac84e0cc180faf0d503839e0460cd98265423"),
    "extend": (
        "ea73668ac0f98984a8b1038f81630f89446fd0a8d75341406204a5aefc9ff5b4",
        "92b280625d75a08886e0e511d661cbe31fa55c50ae878145ca97dc383a4f4594"),
    "half": (
        "28053494f1ab38c4a0bfdbd579a86cc9b90c7557f89cb193dfaad8112e0f8202",
        "8c0dc3b62c92ead4c450fa54c0b1f7ec6025769899b5eb2767c254d28b1d7b3e"),
    "invert": (
        "d5b9a7f4c48f46faad4b92ffa8c92f06cadf019e2da9e9096cb870ae88d8d317",
        "21336eaa1f567b2572bc4e044346a733a101e531bc05bdb26895bf07e1d15393"),
    "line-circle": (
        "06bd23cddc454d344da7b6dd1ae261a015adcb482987617ae3998a9c34684084",
        "f766f4b1547c92b9982a9d2781080e2ee2478be224efa5e940d4ba1aa4384ecf"),
    "line-circle-diameter": (
        "d4ae619d1269bc1e7877057192e6b8c0e47fbc2fc665547299f0513780948430",
        "f0773b665449a237870c840e23c0c3b7881cdbdbb30a7ae8358cf6177461b952"),
    "line-line": (
        "a389ec81933f4103c80c958ff018fa89dd31d52831c5bdf21a1b9cf07e550197",
        "9f161631b768051ebac8f1d72e5c6ba41d8bdcb51e8806d93a3167122a32e1c4"),
    "midpoint": (
        "3054a031f3175811419d7250e62d614ac780adb70f855a8a28a46bfca8a4bfd4",
        "7bd349300021097ce44f77a734d60878fc30d0e1ecd31a9629efea0545f64b8e"),
    "mul": (
        "82c54a186f4b885f15c921923a77b8df4b03f6d188998d7449f7018200acb5ee",
        "a743e8d0c63c57c2dab82594125cd8f59079f101314ddd19d71ad68e1bb29668"),
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
    "extend": "2da56d2a938785032264b8926b01bc95eba3331d7ee9c2bc244c0fd52cc770a2",
    "nth": "e96b16275826049751ed68f18abd53ad459653b41a6f21a7a409e5ddf24e1ba5",
    "midpoint": "83c8468058652d447bff2137d48f0c4bd1c91a9a8a5f9717bb09c4407ffba8da",
    "foot": "d8ef23904cd3e6b76dfc907253115930d19adc9dbf5752913745cc321b457648",
    "invert": "cd7d6aa3805ed951e805d146188e852acec18dfe0f960f2fe1c2cbd2066b3c71",
    "line-line": "33db671d33af908a41cbf761b44b5383c55767f697eacb0921c769b30fd306e4",
    "line-circle": "23b86b74ddbba0c6600e103bd1ed604e604bdd8a39588803553929892b7c3ce7",
    "line-circle-diameter":
        "9e7ccf494a2cb4bc8343a09e2c2c2e1f30d22e1bc64cac21a532c5724cff9304",
    "mul": "94c849922fb4a7f0a970a716afe98c48e6fb62b0c1cfc71dbbfa84be0263632c",
    "add": "5e588cc25983eab88a547cb5b5bdaea0f96cecd9cbdbbc9a038d031af3223d98",
    "conj": "f986d37994f7397d7681f51587125ce850b224e0fa208ce0ff0c1a20e22e58a5",
}


def test_every_fuzz_op_is_pinned():
    assert set(FUZZ_GOLDEN) == set(fuzz.OPS)


@pytest.mark.parametrize("op", fuzz.OPS)
def test_fuzz_traces_are_pinned(op, monkeypatch):
    """Each audited trace's (steps, circles, picks) and the ``float.hex`` of
    every resolved coordinate: bit-exactness far past the demos."""
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
    assert report.failures == 0
    assert h.hexdigest() == FUZZ_GOLDEN[op]


# sha256 over the details ``fuzz.run_op(op, 3, seed=42)`` reports for each op
# when every case fails: the lines a failing ``compass fuzz`` prints
FAILURE_DETAILS = "659583996330ccbecbbf43ea2c616ac823041454c3e51d8b3f54550de66fc50b"


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
