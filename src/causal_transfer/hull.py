"""Exact facet enumeration for small rational polytopes.

Given a finite set of rational points, computes the facets of their convex
hull relative to its affine hull, via the polar dual: the dual polytope's
extreme rays are found with an incremental double description sweep
(Motzkin et al. 1953; Fukuda & Prodon 1996).  The sweep runs on integers:
halfspaces and rays are primitive integer vectors, and each ray carries the
set of processed halfspaces it is tight on as an int bitmask, updated step
by step.  Intended for the small polytopes of admissible deterministic
behaviours, not for bulk geometry.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg

ONE = Fraction(1)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _affine_coordinates(points):
    """Coordinates of the points relative to a basis of their affine hull.

    Returns (coords, to_original) where to_original maps a linear
    functional u = y / s over the reduced space (y integer, s > 0) to
    (coeffs, offset) with u . coords(p) = coeffs . p + offset for every
    original point p.
    """
    origin = points[0]
    dim = len(origin)
    echelon = linalg.Echelon()
    basis = []
    for p in points[1:]:
        d = _sub(p, origin)
        if echelon.add(d):
            basis.append(d)
            if len(basis) == dim:
                break
    r = len(basis)
    if r == 0:
        return [tuple()] * len(points), None

    # Left inverse G of the basis matrix M (columns = basis vectors):
    # coords(p) = G (p - origin), with G = (M^T M)^(-1) M^T, the solution
    # of the Gram system (M^T M) G = M^T.  G and the points are then put
    # over one denominator each, so that coordinates and functionals are
    # integer dot products with a single division.
    gram = [[_dot(bi, bj) for bj in basis] for bi in basis]
    G = linalg.solve(gram, basis)
    g_scale = linalg.common_denominator([v for row in G for v in row])
    G = [linalg.scaled_integers(row, g_scale) for row in G]
    p_scale = linalg.common_denominator([v for p in points for v in p])
    ints = [linalg.scaled_integers(p, p_scale) for p in points]
    o = ints[0]
    coords = [
        tuple(Fraction(_dot(row, _sub(p, o)), g_scale * p_scale) for row in G)
        for p in ints
    ]
    G_columns = list(zip(*G))

    def to_original(y, s):
        lin = [_dot(y, col) for col in G_columns]
        coeffs = tuple(Fraction(v, s * g_scale) for v in lin)
        offset = Fraction(-_dot(lin, o), s * g_scale * p_scale)
        return coeffs, offset

    return coords, to_original


def _eliminate(vec, piv, a, da):
    """vec moved along piv onto the hyperplane a . x = 0 (da = a . piv)."""
    f = _dot(a, vec)
    if not f:
        return vec
    return linalg.primitive([da * v - f * w for v, w in zip(vec, piv)])


def _extreme_rays(halfspaces, dim):
    """Extreme rays of the cone {x : a . x >= 0 for all a}, assumed pointed
    and full-dimensional once all halfspaces are processed.

    Halfspaces are integer vectors; rays come back as primitive integer
    tuples.
    """
    # Exhaust the lineality first: pick a spanning subset of constraint
    # normals and process them before the rest, so ray splitting only ever
    # happens on a pointed cone where the combinatorial adjacency test is
    # sound.
    order = []
    rest = []
    echelon = linalg.Echelon()
    for a in halfspaces:
        if len(echelon) < dim and echelon.add(a):
            order.append(a)
        else:
            rest.append(a)
    if len(echelon) < dim:
        raise ValueError("cone is not pointed: constraint normals do not span")
    order += rest

    lineality = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    # Ray -> bitmask of the processed halfspaces (bit k for order[k]) that
    # are tight at it; insertion order is the ray order.
    rays: dict[tuple[int, ...], int] = {}

    for k, a in enumerate(order):
        bit = 1 << k
        piv_idx = next((i for i, l in enumerate(lineality) if _dot(a, l)), None)
        if piv_idx is not None:
            piv = lineality.pop(piv_idx)
            da = _dot(a, piv)
            if da < 0:
                piv = tuple(-v for v in piv)
                da = -da
            lineality = [_eliminate(l, piv, a, da) for l in lineality]
            lineality = [l for l in lineality if any(l)]
            # Moving along a lineality direction keeps every earlier
            # halfspace's value, and makes a tight; piv itself is tight at
            # every earlier halfspace and positive on a.
            moved = {}
            for ray, zeros in rays.items():
                ray = _eliminate(ray, piv, a, da)
                if any(ray):
                    moved.setdefault(ray, zeros | bit)
            moved.setdefault(piv, bit - 1)
            rays = moved
            continue

        vals = [_dot(a, ray) for ray in rays]
        items = [
            (ray, zeros | bit if v == 0 else zeros)
            for (ray, zeros), v in zip(rays.items(), vals)
        ]
        zero_sets = [zeros for _, zeros in items]
        negative = [i for i, v in enumerate(vals) if v < 0]
        rays = {ray: zeros for (ray, zeros), v in zip(items, vals) if v >= 0}
        for ip, (rp, zp) in enumerate(items):
            vp = vals[ip]
            if vp <= 0:
                continue
            for ineg in negative:
                common = zp & zero_sets[ineg]
                # Adjacent rays of a pointed dim-dimensional cone share at
                # least dim - 2 tight halfspaces; fewer rules the pair out
                # before the combinatorial test.
                if common.bit_count() < dim - 2:
                    continue
                # Adjacent iff no third ray is tight wherever both are.
                holders = 0
                for zeros in zero_sets:
                    if common & zeros == common:
                        holders += 1
                        if holders > 2:
                            break
                if holders > 2:
                    continue
                rn, vn = items[ineg][0], vals[ineg]
                combo = linalg.primitive([vp * x - vn * y for x, y in zip(rn, rp)])
                rays.setdefault(combo, common | bit)

    if lineality:
        raise ValueError("cone has nontrivial lineality; polytope input was degenerate")
    return list(rays)


def facet_inequalities(points):
    """Facets of conv(points) relative to its affine hull.

    Points are equal-length tuples of Fractions.  Returns a list of
    (coefficients, bound) pairs, each meaning coefficients . x >= bound for
    every point of the hull, tight on a facet.  A single point has no
    facets and yields [].
    """
    pts = list(dict.fromkeys(tuple(p) for p in points))
    if not pts:
        raise ValueError("no points given")
    if len(pts) == 1:
        return []

    coords, to_original = _affine_coordinates(pts)
    r = len(coords[0])
    n = len(pts)
    centroid = tuple(sum(c[i] for c in coords) / n for i in range(r))
    shifted = [tuple(c[i] - centroid[i] for i in range(r)) for c in coords]
    c_scale = linalg.common_denominator(centroid)
    c_ints = linalg.scaled_integers(centroid, c_scale)

    # Polar dual: vertices of {y : q . y <= 1 for all shifted q} are the
    # facets of the original hull.  Homogenize with a slack coordinate s;
    # each halfspace is scaled to primitive integers, which keeps the cone.
    halfspaces = [linalg.primitive(tuple(-qi for qi in q) + (ONE,)) for q in shifted]
    halfspaces.append((0,) * r + (1,))
    rays = _extreme_rays(halfspaces, r + 1)

    facets = []
    seen = set()
    for ray in rays:
        y, s = ray[:-1], ray[-1]
        if s <= 0:
            raise ValueError("unbounded polar dual; centroid was not interior")
        # u . (coords(p) - centroid) <= 1 with u = y / s  becomes
        # coeffs . p >= bound.
        lin, offset = to_original(y, s)
        bound_shift = ONE + Fraction(_dot(y, c_ints), s * c_scale) - offset
        coeffs = tuple(-c for c in lin)
        bound = -bound_shift
        key = linalg.primitive(coeffs + (bound,))
        if key not in seen:
            seen.add(key)
            facets.append((coeffs, bound))
    return facets
