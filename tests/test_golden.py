"""Golden bytes: the trace JSON and the SVG of every demo, pinned by sha256.

A change to the serializer, the renderer or a demo's program that alters
one byte of either output fails here. Re-pin only for a deliberate change of
the output format or of the steps a demo builds, and say so in CHANGES.md.
"""

import hashlib

import pytest

from compass import dsl, svg, tracedoc
from compass.demos import DEMOS

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
        "4cf7b51a649d246b7fa3e4961b923b21b7507f2b5ff1a13a3e8a992f0c542e2b",
        "255a650f0a2695744d4f4675ff6ae854ee7f4051ae03b1c64f5a33a9f4ff117f"),
    "line-circle": (
        "b1b2365235006f177124cfeb06f40b00a7f7dcb9f8bcda89566f034042d663b1",
        "f7f5044641968b820459f6632c02d679d1fe3647a98078f2f798c0c657e73c91"),
    "line-circle-diameter": (
        "7186b7e29497deafb32369322a90be5791f68193be83f6bf01478b64b7572735",
        "84aaf1b8de0d1eb7b9849868ca7376ff378532e2f72138c3e9ba65a79bbe24d8"),
    "line-line": (
        "f54600d1dfb07f0ec7fdf1ec2b8229391bd1e018509821065760dbee63860ed4",
        "1e20be316bd0f7057308f211ec1b52499979eb259c1681111831007ece44798e"),
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
