"""Built-in demo scripts, one per source figure.

Each demo is an ordinary construction script run through the normal
pipeline; the CLI prints the resulting points and can emit the figure.
Coordinates are the ones the figures use.
"""

DEMOS: dict[str, str] = {
    # -1 and 2 from 0 and 1: the 3-circle doubling, in both directions
    "extend": """\
given Z = (0, 0)
given U = (1, 0)
let minus_one = extend(U, Z)
let two = extend(Z, U)
""",
    "midpoint": """\
given A = (0, 0)
given B = (1, 0)
let M = midpoint(A, B)
""",
    # a = 1 + apex(0,1); its conjugate via the circles centered 0 and 1
    "conjugate": """\
given Z = (0, 0)
given U = (1, 0)
let W = apex(Z, U, left)
let A = add(U, W)
let Astar = conj(A)
""",
    "mul": """\
given Z = (0, 0)
given U = (1, 0)
let T = extend(Z, U)
let F = mul(T, T)
""",
    "add": """\
given Z = (0, 0)
given U = (1, 0)
let T = add(U, U)
""",
    # the paper's chase to 1/2: alpha, a cut of the circles centered -1 and 1
    # with radii 2 and 1, has |alpha|^2 = 3/2, and 3/2 + (-1) = 1/2; half()
    # draws the same point as the midpoint of Z and U, in 6 circles
    "half": """\
given Z = (0, 0)
given U = (1, 0)
let M = extend(U, Z)
let big = circle(M, U)
let small = circle(U, Z)
let A = intersect(big, small, left)
let C = conj(A)
let P = mul(C, A)
let H = add(P, M)
""",
    # circle of radius 1.5 about the origin; P at (1.5, 1.5) inverts to (0.75, 0.75)
    "invert": """\
given O = (0, 0)
given D = (1.0606601717798212, 1.0606601717798212)
given P = (1.5, 1.5)
let I = invert(P, O, D)
""",
    "line-line": """\
given A = (-0.4, -0.4)
given B = (2.3, 2.3)
given C = (0.2, 1.8)
given D = (2.7, -0.7)
let S = linexline(A, B, C, D)
""",
    "line-circle": """\
given A = (-2.5, 0.5)
given B = (-1.5, 0.5)
given O = (0, 0)
given D = (1, 0)
let X, Y = linexcircle(A, B, O, D)
""",
    "line-circle-diameter": """\
given O = (0, 0)
given A = (2, 0)
given C = (0.8660254037844386, 0.5)
let X, Y = linexcircle(O, A, O, C)
""",
}
