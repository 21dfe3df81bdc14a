"""Golden bytes: the trace JSON and the SVG of every demo, pinned by sha256.

A change to the serializer or the renderer that alters one byte of either
output fails here. Re-pin only for a deliberate change of the output format,
and say so in CHANGES.md.
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
        "1ffa152d690e11bf0d80ae3bcebe9d7207222b7d17cc33ae2ca4d16c064cc2fa",
        "289211e1cc897f53e3198b0a3860cda7035b71e80c50fce8c59d5af8e4e84d50"),
    "extend": (
        "ea73668ac0f98984a8b1038f81630f89446fd0a8d75341406204a5aefc9ff5b4",
        "92b280625d75a08886e0e511d661cbe31fa55c50ae878145ca97dc383a4f4594"),
    "half": (
        "22f5f11e01200758d49bbd2381bb3027ba9755ee5a339e1133ff99567f665748",
        "0ace24b49b0f08627bc6f05d22b2baadb66b81826773f1edba91daffa1b358a5"),
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
        "05ddab0e7561dc36ca00b73f8403895ba2e6d7783509033f5f000c66e0fa4b04",
        "d39a0864030f5626075fb604df453f65530ea9b1401cf516cd7ab68258cd2de8"),
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
