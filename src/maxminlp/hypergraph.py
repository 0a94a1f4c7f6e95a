"""Communication structure of an instance: incidence walks, balls, views.

Two agents are adjacent when some row's support holds both, and distance
counts row hops.  The graph is never built as agent -> neighbours; every
walk goes through an *incidence*, the triple ``(rows_of, resources,
beneficiaries)``: ``rows_of`` maps a node to the ids of its rows, and the
other two map a row id to the row, a map keyed by its support.
:func:`incidence` gives an instance's, whose map is
:attr:`Instance.rows_of <maxminlp.model.Instance.rows_of>`.
:func:`distances` is the one breadth-first search over an incidence, and
:func:`ball` wraps it.  Growth factors, views, the adversary's carve
and its template's girth all walk through :func:`distances`.  An agent's
radius-r knowledge is a :class:`View`: its members, the ball as a
frozenset, and one row map per kind whose rows hold ``None`` for every
coefficient beyond the horizon.  A local algorithm's ball is the members
of its centre's view, so ``local-avg``, which runs two rounds at horizon R
under its registered horizon 2R + 1, walks nothing but views.  No module
keeps a search of its own.
"""

from typing import NamedTuple


def distances(incidence, start, limit=None):
    """Hop distances from ``start`` over ``incidence``, none beyond ``limit``.

    ``incidence`` is ``(rows_of, resources, beneficiaries)``; a row id the
    resources hold is a resource's.  The search goes level by level and
    expands nothing at depth ``limit``, so the nodes come out in
    nondecreasing depth.  A node is expanded by walking its rows' supports,
    and ``dist`` alone drops what was reached before.  A support naming a
    node that ``rows_of`` does not know is refused.
    """
    rows_of, resources, beneficiaries = incidence
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        reached = []
        for u in frontier:
            for i in rows_of[u]:
                row = resources.get(i)
                if row is None:
                    row = beneficiaries[i]
                for w in row:
                    if w not in dist:
                        if w not in rows_of:
                            kind = "resource" if i in resources else "beneficiary"
                            raise ValueError(f"{kind} {i} references unknown agent {w}")
                        dist[w] = depth
                        reached.append(w)
        frontier = reached
    return dist


def incidence(instance):
    """The instance's incidence for :func:`distances`: its
    :attr:`~maxminlp.model.Instance.rows_of` and its two row maps."""
    return instance.rows_of, instance.resources, instance.beneficiaries


def ball(incidence, v, r):
    """The nodes within ``r`` hops of ``v`` over ``incidence``, ``v`` included."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if v not in incidence[0]:
        raise ValueError(f"unknown agent id {v}")
    return frozenset(distances(incidence, v, r))


def growth_factors(instance, first, last):
    """[gamma(first), ..., gamma(last)], gamma(r) = max_v |B(v, r+1)| / |B(v, r)|,
    each an exact rational.

    gamma(r) measures how much a one-hop horizon extension can inflate what
    an agent sees; the averaging algorithm's guarantee is stated against
    gamma(R - 1) * gamma(R).  One walk per agent to radius ``last + 1``
    gives every ball size the factors need.  The maxima are kept as integer
    pairs, compared by cross multiplication, and each becomes a
    ``Fraction`` once.
    """
    if not instance.agents:
        raise ValueError("growth factor of an empty instance is undefined")
    if first < 0:
        raise ValueError("radius must be nonnegative")
    from fractions import Fraction

    inc = incidence(instance)
    # best[s - first]: the largest |B(v, s+1)|, |B(v, s)| pair so far
    best = [(0, 1)] * (last - first + 1)
    for v in instance.agents:
        dist = distances(inc, v, last + 1)
        # rings up to the deepest one the walk reached; the rest are empty
        sizes = [0] * (next(reversed(dist.values())) + 1)
        for depth in dist.values():
            sizes[depth] += 1
        inner = sum(sizes[:first + 1])
        for s in range(first, last + 1):
            outer = inner + (sizes[s + 1] if s + 1 < len(sizes) else 0)
            top, bottom = best[s - first]
            if outer * bottom > top * inner:
                best[s - first] = (outer, inner)
            inner = outer
    return [Fraction(top, bottom) for top, bottom in best]


class View(NamedTuple):
    """Everything one agent may legally see within its horizon.

    ``members`` is the radius-``horizon`` ball around ``center``, a
    frozenset.  ``resources`` and ``beneficiaries`` have the instance's
    shape: each maps the id of a row that touches a member, ascending, to
    ``{agent: coefficient}`` over the row's full support in the instance's
    order.  The full support is how an agent knows whom it shares a row
    with just beyond its horizon, but only a member's entry holds its
    coefficient; every other entry is ``None``, which fails loudly in any
    arithmetic.  Equality is field-by-field over these structures.
    """

    center: int
    horizon: int
    members: frozenset
    resources: dict
    beneficiaries: dict


def extract_view(instance, v, r):
    """Agent ``v``'s radius-``r`` :class:`View` of a valid instance.

    One pass over the members' row ids, ascending, copies each row with
    ``None`` for the agents outside the ball.  A row id is a resource's when
    the resources hold it, which validity makes exact.
    """
    members = ball(incidence(instance), v, r)
    rows_of = instance.rows_of
    resources, beneficiaries = {}, {}
    for i in sorted({i for u in members for i in rows_of[u]}):
        row, into = instance.resources.get(i), resources
        if row is None:
            row, into = instance.beneficiaries[i], beneficiaries
        into[i] = {u: a if u in members else None for u, a in row.items()}
    return View(v, r, members, resources, beneficiaries)
