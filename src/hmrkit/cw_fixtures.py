"""Equivariant CW fixtures: spheres, lens spaces, tori and circle bundles
with involution, built honestly.

Each fixture gives its cells explicit integer boundaries and its
involution, and the :class:`EquivariantCWData` constructor checks it as
any other input.  The centerpiece is a genus-one splitting of lens
spaces: the torus carries the arrangement of four circles through the
involution's fixed points (two "horizontal" ones and two of slope p/q),
and each handlebody contributes two fixed diameters, four half-disks
swapped in pairs, and two solid slabs swapped by the involution.

Coordinates on the torus R^2/Z^2 (involution v -> -v, fixed points at
{0,1/2}^2): vertices V[m] = (m/2p, 0) and W[m] = (m/2p, 1/2) for
m = 0..2p-1; horizontal edges hb[m], ht[m] along +x; slope edges sa[m]
(lower band) and sb[m] (upper band) along +(q,p); faces fa[m], fb[m]
(parallelograms, counterclockwise).  This requires p odd, which covers all
lens fixtures shipped here.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd

from .errors import InvalidInput, MalformedOrbitMap, NotCoprime, ShapeMismatch
from .f2lin import IntMatrix
from .real_spinc import EquivariantCWData, OrbitEntry


class _Builder:
    """Cells in degree order, each with its coboundary row, and the
    involution, stated once per orbit: a fixed cell, or a pair of cells
    swapped with a sign."""

    def __init__(self):
        self.cells = defaultdict(list)  # degree -> cells in index order
        self.rows = defaultdict(list)  # degree -> their coboundary rows
        self.at: dict = {}  # cell -> (degree, index)
        self.iota: dict = {}  # cell -> (image, sign)

    def add(self, deg: int, cid, boundary: dict):
        """Add a cell and write its coboundary row; each boundary cell must
        be added, one degree lower, and a duplicate cell or a boundary cell
        that is not is ShapeMismatch."""
        if cid in self.at:
            raise ShapeMismatch(f"duplicate cell {cid}")
        row = []
        for o, c in boundary.items():
            d, i = self.at.get(o, (None, None))
            if d != deg - 1:
                raise ShapeMismatch(f"boundary cell {o} of {cid} is not "
                                    f"an added cell of degree {deg - 1}")
            if c:
                row.append((i, c))
        self.at[cid] = (deg, len(self.cells[deg]))
        self.cells[deg].append(cid)
        self.rows[deg].append(tuple(sorted(row)))

    def swap(self, a, b, sign: int):
        """A free orbit: the involution maps a to sign * b and back."""
        self.iota[a] = (b, sign)
        self.iota[b] = (a, sign)

    def fix(self, cid):
        self.iota[cid] = (cid, 1)

    def finish(self) -> EquivariantCWData:
        """Number the quotient cells (an orbit takes the number of its
        first cell) and write the orbit entries, in one walk; a cell with no
        image is MalformedOrbitMap."""
        dim = max(self.cells)
        cells = [self.cells[d] for d in range(dim + 1)]
        quotient: dict = {}
        cells_q, orbit = [], []
        for d, level in enumerate(cells):
            count = 0
            for i, cid in enumerate(level):
                if cid not in self.iota:
                    raise MalformedOrbitMap(f"no involution image for {cid}")
                img, sign = self.iota[cid]
                if cid not in quotient:
                    quotient[cid] = quotient[img] = count
                    count += 1
                orbit.append(OrbitEntry(d, i, quotient[cid], img == cid,
                                        sign))
            cells_q.append(count)
        return EquivariantCWData(
            cells_M=tuple(map(len, cells)), cells_Q=tuple(cells_q),
            delta_M=tuple(IntMatrix(len(cells[d]), len(cells[d - 1]),
                                    tuple(self.rows[d]))
                          for d in range(1, dim + 1)),
            orbit=tuple(orbit))


# ---------------------------------------------------------------------------
# Torus arrangement and handlebodies
# ---------------------------------------------------------------------------


def _add_torus(b: _Builder, p: int, q: int):
    n = 2 * p

    def V(m):
        return ("V", m % n)

    def W(m):
        return ("W", m % n)

    for m in range(n):
        b.add(0, V(m), {})
        b.add(0, W(m), {})
    for m in range(n):
        b.add(1, ("hb", m), {V(m + 1): 1, V(m): -1})
        b.add(1, ("ht", m), {W(m + 1): 1, W(m): -1})
        b.add(1, ("sa", m), {W(m + q): 1, V(m): -1})
        b.add(1, ("sb", m), {V(m + q): 1, W(m): -1})
    for m in range(n):
        b.add(2, ("fa", m), {
            ("hb", m): 1, ("sa", (m + 1) % n): 1,
            ("ht", (m + q) % n): -1, ("sa", m): -1,
        })
        b.add(2, ("fb", m), {
            ("ht", m): 1, ("sb", (m + 1) % n): 1,
            ("hb", (m + q) % n): -1, ("sb", m): -1,
        })
    # involution v -> -v: m -> -m mod 2p fixes m = 0 and m = p only
    for fam in ("V", "W"):
        b.fix((fam, 0))
        b.fix((fam, p))
        for m in range(1, p):
            b.swap((fam, m), (fam, n - m), 1)
    for m in range(p):
        b.swap(("hb", m), ("hb", n - 1 - m), -1)
        b.swap(("ht", m), ("ht", n - 1 - m), -1)
    for m in range(n):
        b.swap(("sa", m), ("sb", (-m - q) % n), -1)
        b.swap(("fa", m), ("fb", (-m - q - 1) % n), 1)


def _horizontal_circles(p: int):
    n = 2 * p
    bottom = ([("hb", m) for m in range(n)], [("V", m) for m in range(n)])
    top = ([("ht", m) for m in range(n)], [("W", m) for m in range(n)])
    return [bottom, top]


def _slope_circles(p: int, q: int):
    n = 2 * p

    def walk(start):
        edges, verts = [], [start]
        cur = start
        while True:
            fam, m = cur
            if fam == "V":
                edge = ("sa", m)
                cur = ("W", (m + q) % n)
            else:
                edge = ("sb", m)
                cur = ("V", (m + q) % n)
            edges.append(edge)
            if cur == start:
                break
            verts.append(cur)
        return edges, verts

    c1 = walk(("V", 0))
    fixed = {("V", 0), ("V", p), ("W", 0), ("W", p)}
    remaining = sorted(fixed - set(c1[1]), key=str)
    c2 = walk(remaining[0])
    return [c1, c2]


def _add_solid_torus(b: _Builder, label: str, circles, band_faces,
                     band_sign: int):
    """Attach diameters, half-disks and two slabs over a meridian family.

    ``circles`` are the two meridian circles as (edges, vertices) walks
    starting at a fixed vertex; ``band_faces`` the two face lists between
    them; ``band_sign`` the coefficient of band faces in the slab
    boundaries (depends on the orientation of the meridian family).
    """
    disks = []
    for i, (edges, verts) in enumerate(circles):
        half = len(edges) // 2
        if len(edges) != 2 * half:
            raise ShapeMismatch("meridian circle with odd edge count")
        v0, vh = verts[0], verts[half]
        g = ("g", label, i)
        b.add(1, g, {vh: 1, v0: -1})
        b.fix(g)
        hplus = ("H", label, i, "+")
        hminus = ("H", label, i, "-")
        b.add(2, hplus, {**dict.fromkeys(edges[:half], 1), g: -1})
        b.add(2, hminus, {**dict.fromkeys(edges[half:], 1), g: 1})
        b.swap(hplus, hminus, -1)
        disks.append((hplus, hminus))
    (d0p, d0m), (d1p, d1m) = disks
    slab_a = ("T", label, "A")
    slab_b = ("T", label, "B")
    b.add(3, slab_a, {**dict.fromkeys(band_faces[0], band_sign),
                      d1p: 1, d1m: 1, d0p: -1, d0m: -1})
    b.add(3, slab_b, {**dict.fromkeys(band_faces[1], band_sign),
                      d0p: 1, d0m: 1, d1p: -1, d1m: -1})
    b.swap(slab_a, slab_b, 1)


def _psi_half(q: int, cell) -> int:
    """0/1 flag: which slope band a torus face lies in (psi = px - qy)."""
    fam, m = cell
    # interior psi of fa[m] lies in (m, m+1)/2; of fb[m] in (m-q, m-q+1)/2
    base = m if fam == "fa" else m - q
    return 0 if base % 2 == 0 else 1


def lens_space(p: int, q: int) -> EquivariantCWData:
    """L(p, q) with the genus-one equivariant structure; p odd, gcd = 1.

    p = 1 gives the three-sphere with its conjugation involution; the
    quotient is always the three-sphere.
    """
    if p < 1 or p % 2 == 0:
        raise NotCoprime("this construction requires odd p >= 1")
    if gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p},{q}) != 1")
    b = _Builder()
    _add_torus(b, p, q)
    n = 2 * p
    # first handlebody: meridians are the horizontal circles
    _add_solid_torus(
        b, "h", _horizontal_circles(p),
        [[("fa", m) for m in range(n)], [("fb", m) for m in range(n)]],
        band_sign=1)
    # second handlebody: meridians are the slope circles
    all_faces = [("fa", m) for m in range(n)] + [("fb", m) for m in range(n)]
    band0 = [f for f in all_faces if _psi_half(q, f) == 0]
    band1 = [f for f in all_faces if _psi_half(q, f) == 1]
    slope = _slope_circles(p, q)
    # band0 borders the psi = 0 circle (slope[0], through V[0]); the slab
    # over band0 runs from psi = 0 to psi = 1/2
    _add_solid_torus(b, "s", slope, [band0, band1], band_sign=-1)
    return b.finish()


def sphere3_conjugation() -> EquivariantCWData:
    """S^3 with complex conjugation (branch locus an unknot)."""
    return lens_space(1, 0)


def s1_x_s2_unlink_cover() -> EquivariantCWData:
    """S^1 x S^2 as the double of a solid torus: the branched double
    cover of the two-component unlink, with two fixed circles."""
    b = _Builder()
    _add_torus(b, 1, 0)
    n = 2
    bands = [[("fa", m) for m in range(n)], [("fb", m) for m in range(n)]]
    _add_solid_torus(b, "h", _horizontal_circles(1), bands, band_sign=1)
    _add_solid_torus(b, "h2", _horizontal_circles(1), bands, band_sign=1)
    return b.finish()


def torus_hyperelliptic() -> EquivariantCWData:
    """T^2 with v -> -v; quotient is the pillowcase sphere."""
    b = _Builder()
    _add_torus(b, 1, 0)
    return b.finish()


def torus_hyperelliptic_fine() -> EquivariantCWData:
    """The same involutive torus with a finer cell structure (subdivision
    sanity fixture: all census outputs must agree with the coarse one)."""
    b = _Builder()
    _add_torus(b, 3, 1)
    return b.finish()


def point_pair() -> EquivariantCWData:
    b = _Builder()
    b.add(0, "p0", {})
    b.add(0, "p1", {})
    b.swap("p0", "p1", 1)
    return b.finish()


def circle_antipodal() -> EquivariantCWData:
    """S^1 with the free antipodal involution; quotient a circle."""
    b = _Builder()
    b.add(0, "v0", {})
    b.add(0, "v1", {})
    b.add(1, "e0", {"v1": 1, "v0": -1})
    b.add(1, "e1", {"v0": 1, "v1": -1})
    b.swap("v0", "v1", 1)
    b.swap("e0", "e1", 1)
    return b.finish()


def circle_reflection() -> EquivariantCWData:
    """S^1 with a reflection: two fixed vertices, edges swapped."""
    b = _Builder()
    b.add(0, "a", {})
    b.add(0, "bb", {})
    b.add(1, "up", {"bb": 1, "a": -1})
    b.add(1, "dn", {"a": 1, "bb": -1})
    b.fix("a")
    b.fix("bb")
    b.swap("up", "dn", -1)
    return b.finish()


def s1_x_s2_rotation() -> EquivariantCWData:
    """S^1 x S^2 with identity times rotation by pi about the poles.

    Fixed locus S^1 x {poles}; the sphere cells are a pair of meridian
    arcs and a pair of bigons swapped by the rotation.
    """
    b = _Builder()
    # S^1 factor: vertex v, edge c; sphere factor: N, S, e, e', F, F'
    b.add(0, ("v", "N"), {})
    b.add(0, ("v", "S"), {})
    for arc in ("e", "e'"):
        b.add(1, ("v", arc), {("v", "S"): 1, ("v", "N"): -1})
    b.add(1, ("c", "N"), {})
    b.add(1, ("c", "S"), {})
    b.add(2, ("v", "F"), {("v", "e"): 1, ("v", "e'"): -1})
    b.add(2, ("v", "F'"), {("v", "e'"): 1, ("v", "e"): -1})
    # c x arc: d(c x e) = (dc) x e - c x de = -c x S + c x N ... with
    # product orientation d(a x b) = da x b + (-1)^|a| a x db, |c| = 1
    for arc in ("e", "e'"):
        b.add(2, ("c", arc), {("c", "S"): -1, ("c", "N"): 1})
    b.add(3, ("c", "F"), {("c", "e"): -1, ("c", "e'"): 1})
    b.add(3, ("c", "F'"), {("c", "e'"): -1, ("c", "e"): 1})
    for cid in (("v", "N"), ("v", "S"), ("c", "N"), ("c", "S")):
        b.fix(cid)
    for pref in ("v", "c"):
        b.swap((pref, "e"), (pref, "e'"), 1)
        b.swap((pref, "F"), (pref, "F'"), 1)
    return b.finish()


FIXTURE_BUILDERS = {
    "point_pair": point_pair,
    "circle_antipodal": circle_antipodal,
    "circle_reflection": circle_reflection,
    "torus_hyperelliptic": torus_hyperelliptic,
    "torus_hyperelliptic_fine": torus_hyperelliptic_fine,
    "s3_conjugation": sphere3_conjugation,
    "lens_3_1": lambda: lens_space(3, 1),
    "lens_5_1": lambda: lens_space(5, 1),
    "lens_5_2": lambda: lens_space(5, 2),
    "lens_7_1": lambda: lens_space(7, 1),
    "lens_7_2": lambda: lens_space(7, 2),
    "s1_x_s2_rotation": s1_x_s2_rotation,
    "s1_x_s2_unlink_cover": s1_x_s2_unlink_cover,
}


def build_fixture(name: str) -> EquivariantCWData:
    """The fixture ``name``; an unknown name is InvalidInput."""
    if name not in FIXTURE_BUILDERS:
        raise InvalidInput(f"unknown fixture {name!r}; known fixtures: "
                           f"{', '.join(sorted(FIXTURE_BUILDERS))}")
    return FIXTURE_BUILDERS[name]()
