"""Certificate pipelines refuting (weakly) norming properties.

A certificate pins an explicit step matrix, a pair selection, and a rational
direction whose quadratic form against the exact Hessian of the count
polynomial is negative. Verification recomputes that value from scratch
without the Hessian: it is twice the s^2 coefficient of the count
polynomial along the line from the witness in the direction, one
enumeration with s capped at degree 2 (``hessians.line_curvature``).
Structural screening certificates record a reason (non-bipartite,
non-eulerian, odd edge count) that is re-checkable from the graph alone.
One table, ``SCREENS``, gives each reason its theorem, the modes it
refutes and its test on the graph, for ``screen_necessary`` and
``verify_certificate`` alike.

Every curvature certificate comes out of one refutation loop,
``_first_non_psd``: the count polynomial is built once by
``symbolic_profile``, and its Hessian is read at a sequence of points until
one is not PSD. Each point is decided on the read's integer totals by the
elimination ``psd_certify`` runs, and only the point that is not PSD
becomes the ``Fraction`` matrix whose ``psd_certify`` result the
certificate states. The bowtie pipeline walks its template with every
symbol at eta = 2^-j, the kpm pipeline walks eps = 2^-j at x = y = 0, and
the witness search walks its sampled matrices. One assembly,
``_curvature_certificate``, makes every curvature certificate from what
the loop found, its pairs read off the template: the one cell each read
symbol opens.
"""

from fractions import Fraction

from . import __version__
from .errors import Record, SizeGuardError, UsageError
from .graphs import (
    Graph,
    bowtie_blowup,
    cycle_graph,
    is_bipartite,
    is_eulerian,
    kpm_graph,
)
from .hessians import _eliminate, line_curvature, psd_certify
from .homs import Affine, SymbolicTemplate, symbolic_profile
from .matrices import SymRationalMatrix, pair_list, sample_matrix
from .polys import SparsePoly
from .rationals import format_rational, parse_rational

MODES = ("weakly_norming", "norming")

# reason -> (theorem, the modes it refutes, the test a graph of those modes
# passes), in the order the screens run
SCREENS = {
    "non-bipartite": (
        "structural screen: a weakly norming graph is bipartite", MODES, is_bipartite
    ),
    "non-eulerian": (
        "structural screen: a norming graph is eulerian", ("norming",), is_eulerian
    ),
    "odd edge count": (
        "structural screen: a norming graph has an even number of edges",
        ("norming",),
        lambda g: g.edge_count % 2 == 0,
    ),
}


class Certificate(Record):
    # kind: not_weakly_norming | not_norming | screening_failure; graph: Graph;
    # then each optional: n: int; witness: SymRationalMatrix; pairs: tuple of
    # (i, j); direction: tuple of Fractions; value: Fraction; reason: the
    # structural screening reason; theorem: str; degree_evidence: dict;
    # seed: int
    __slots__ = (
        "kind", "graph", "n", "witness", "pairs", "direction", "value", "reason",
        "theorem", "degree_evidence", "seed",
    )

    def __init__(
        self, kind, graph, n=None, witness=None, pairs=None, direction=None, value=None,
        reason=None, theorem="", degree_evidence=None, seed=None,
    ):
        self._fill(kind, graph, n, witness, pairs, direction, value, reason, theorem,
                   degree_evidence, seed)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "graph": self.graph.to_json(),
            "n": self.n,
            "witness": self.witness.to_json() if self.witness else None,
            "pairs": [list(p) for p in self.pairs] if self.pairs else None,
            "direction": [format_rational(x) for x in self.direction]
            if self.direction
            else None,
            "value": format_rational(self.value)
            if self.value is not None
            else self.reason,
            "theorem": self.theorem,
            "degree_evidence": self.degree_evidence,
            "tool_version": __version__,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        try:
            kind = data["kind"]
            graph = Graph.from_json(data["graph"])
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed certificate: {exc}") from exc
        value = reason = None
        raw = data.get("value")
        if raw is not None:
            try:
                value = parse_rational(raw)
            except UsageError:
                # only a screening certificate carries its reason here
                if kind != "screening_failure" or not isinstance(raw, str):
                    raise UsageError(f"malformed certificate value: {raw!r}") from None
                reason = raw
        n = data.get("n")
        if n is not None and type(n) is not int:
            raise UsageError(f"malformed certificate n: {n!r}")
        try:
            pairs = (
                tuple((i, j) for (i, j) in data["pairs"]) if data.get("pairs") else None
            )
        except (TypeError, ValueError) as exc:
            raise UsageError(f"malformed certificate pairs: {exc}") from exc
        if pairs and any(type(x) is not int for pair in pairs for x in pair):
            raise UsageError(f"malformed certificate pairs: {data['pairs']!r}")
        direction = data.get("direction")
        if direction and not isinstance(direction, list):
            raise UsageError("malformed certificate direction: expected a list")
        return cls(
            kind=kind,
            graph=graph,
            n=n,
            witness=SymRationalMatrix.from_json(data["witness"])
            if data.get("witness")
            else None,
            pairs=pairs,
            direction=tuple(parse_rational(x) for x in direction)
            if direction
            else None,
            value=value,
            reason=reason,
            theorem=data.get("theorem", ""),
            degree_evidence=data.get("degree_evidence"),
            seed=data.get("seed"),
        )


class Refusal(Record):
    """A pipeline declined to certify; evidence is consistent with (but not a
    proof of) the graph having the property."""

    __slots__ = ("operation", "reason", "evidence")  # str; str; dict

    def __init__(self, operation, reason, evidence):
        self._fill(operation, reason, evidence)

    def to_json(self) -> dict:
        return {
            "refused": True,
            "operation": self.operation,
            "reason": self.reason,
            "evidence": self.evidence,
        }


def screen_necessary(g: Graph, mode: str) -> Certificate | None:
    """Cheap necessary-condition screens; a failure refutes outright."""
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}")
    for reason, (theorem, modes, passes) in SCREENS.items():
        if mode in modes and not passes(g):
            return Certificate(
                kind="screening_failure", graph=g, reason=reason, theorem=theorem
            )
    return None


def _first_non_psd(profile: SparsePoly, symbols, points):
    """The first of ``points`` at which the Hessian of ``profile`` in
    ``symbols`` is not PSD, as (index, point, PsdResult); None when there is
    none. Every point is read through one plan of the selection and decided
    on the integer totals of the read, a positive multiple of D H D with D
    diagonal and nonsingular, so PSD exactly when H is; only the point that
    is not PSD becomes the ``Fraction`` matrix whose ``psd_certify`` gives
    the certificate (a ``RuntimeError`` if it says PSD: a fault)."""
    plan = profile._plan(symbols)
    for index, point in enumerate(points):
        k, totals, divisors = profile._integer_hessian(plan, point)
        if _eliminate(k, totals) is not None:
            res = psd_certify(SymRationalMatrix(k, tuple(map(Fraction, totals, divisors))))
            if res.is_psd:
                raise RuntimeError(f"point {index}: not PSD on its totals, PSD as fractions")
            return index, point, res
    return None


def _curvature_certificate(
    kind: str, g: Graph, template: SymbolicTemplate, symbols, point, res, theorem, **extra
) -> Certificate:
    """The certificate of what ``_first_non_psd`` found at ``point`` (``res``)
    reading ``symbols`` over ``template``: the witness is the template at the
    point, and each symbol's pair, in reading order, is the one bare cell
    ``Affine(0, 1, s)`` it opens; any other symbol is a ``RuntimeError``,
    since its certificate could not verify."""
    cells = pair_list(template.n)
    pairs = []
    for s in symbols:
        at = [i for i, c in enumerate(template.cells) if isinstance(c, Affine) and c.symbol == s]
        if len(at) != 1 or template.cells[at[0]] != Affine(0, 1, s):
            raise RuntimeError(f"read symbol {s!r} is not one bare template cell")
        pairs.append(cells[at[0]])
    return Certificate(
        kind=kind, graph=g, n=template.n, witness=template.substitute(point),
        pairs=tuple(pairs), direction=res.witness, value=res.value, theorem=theorem, **extra,
    )


POSITIVIZE_STEPS = 24


def _bowtie_template() -> SymbolicTemplate:
    # boundary witness [[1,1,0],[1,0,1],[0,1,0]] with the probed cells
    # opened as x and y and its zero cell as z
    return SymbolicTemplate.from_rows(
        [[1, 1, "y"], [1, "z", 1], ["y", 1, "x"]]
    )


def certify_bowtie_cycle(k: int, threads: int = 1) -> Certificate | Refusal:
    """Refute weak norming for the cycle blow-up C_k^bowtie.

    At the boundary witness (every symbol 0) the 2x2 Hessian in the (2,2)
    and (0,2) cells is [[2 q, l], [l, 2 r]] with q the x^2-coefficient and l
    the xy-coefficient of the count polynomial; q = 0 together with l >= 1
    forces determinant -l^2 < 0. Non-PSD-ness is an open condition, so
    positivization sets every symbol to eta = 1/2, 1/4, ... (at most
    POSITIVIZE_STEPS steps) and stops at the first strictly positive matrix
    whose Hessian is not PSD. Refuses (with the computed coefficients) when
    the conditions fail, as they do for k in {3, 4}: there q = 0 holds but
    l = 0, which leaves the boundary Hessian diag(0, 2 r), a PSD matrix, as
    it must be for the weakly norming K_{3,3} and 3-cube. ``threads`` is
    accepted and ignored.
    """
    if k < 3:
        raise UsageError("cycle blow-up needs k >= 3")
    g = bowtie_blowup(cycle_graph(k))
    template = _bowtie_template()
    profile = symbolic_profile(g, template)

    x2 = profile.coefficient_of(x=2)
    xy = profile.coefficient_of(x=1, y=1)
    evidence = {
        "x2_coeff": format_rational(x2),
        "xy_coeff": format_rational(xy),
    }
    failed = []
    if x2 != 0:
        failed.append("x2_coeff == 0")
    if xy < 1:
        failed.append("xy_coeff >= 1")
    if failed:
        return Refusal(
            operation=f"certify_bowtie_cycle({k})",
            reason="boundary Hessian conditions failed: " + ", ".join(failed),
            evidence=evidence,
        )

    steps = (
        {s: Fraction(1, 2**j) for s in template.symbols}
        for j in range(1, POSITIVIZE_STEPS + 1)
    )
    found = _first_non_psd(profile, ("x", "y"), steps)
    if found is None:
        return Refusal(
            operation=f"certify_bowtie_cycle({k})",
            reason="positivization found no strictly positive witness",
            evidence=evidence,
        )
    index, point, res = found
    evidence.update({"eta": format_rational(point["x"]), "steps": index + 1})
    return _curvature_certificate(
        "not_weakly_norming", g, template, ("x", "y"), point, res,
        "weak-norming refutation: the count-polynomial Hessian has a "
        "negative direction at a strictly positive step matrix",
        degree_evidence=evidence,
    )


KPM_EPS_STEPS = 64


def _kpm_template() -> SymbolicTemplate:
    return SymbolicTemplate.from_rows(
        [["x", "y", "eps"], ["y", 1, 1], ["eps", 1, -1]]
    )


def certify_kpm(m: int, threads: int = 1) -> Certificate | Refusal:
    """Refute norming for K_{m,m} minus a perfect matching.

    Even m fails the eulerian screen outright. For odd m = 2s+1 the graph is
    2s-regular; every x^2-monomial of the count polynomial must carry
    eps-degree >= 6s-4, the xy-monomials >= 4s-3 with a nonzero coefficient
    at exactly 4s-3, and the y^2-coefficients must vanish through eps-degree
    2s-2. The 2x2 boundary Hessian at x = y = 0 is then not PSD for small
    eps, and the walk eps = 1/2, 1/4, ... (at most KPM_EPS_STEPS steps)
    stops at the first eps where it is not. Every read has x- plus
    y-degree 2, so the profile is built with both capped at 2.
    ``threads`` is accepted and ignored.
    """
    if m < 2:
        raise UsageError("kpm needs m >= 2")
    g = kpm_graph(m)
    screen = screen_necessary(g, "norming")
    if screen is not None:
        return screen

    s = (m - 1) // 2
    thresholds = {"x2": 6 * s - 4, "xy": 4 * s - 3, "y2_vanish_upto": 2 * s - 2}
    template = _kpm_template()
    profile = symbolic_profile(g, template, {"x": 2, "y": 2})

    def least(**part):  # the least eps-degree of a part, None where it is 0
        degrees = range(g.edge_count + 1)  # no term passes total degree e(H)
        return next((d for d in degrees if profile.coefficient_of(eps=d, **part)), None)

    min_x2, min_xy, min_y2 = least(x=2), least(x=1, y=1), least(y=2)
    xy_at_threshold = profile.coefficient_of(x=1, y=1, eps=thresholds["xy"])
    evidence = {
        "regularity": s,
        "thresholds": thresholds,
        "observed_min_eps_degree": {"x2": min_x2, "xy": min_xy, "y2": min_y2},
        "xy_coeff_at_threshold": format_rational(xy_at_threshold),
    }

    failed = []
    if min_x2 is not None and min_x2 < thresholds["x2"]:
        failed.append("x2 eps-degree")
    if xy_at_threshold == 0 or min_xy is None or min_xy < thresholds["xy"]:
        failed.append("xy coefficient")
    if min_y2 is not None and min_y2 <= thresholds["y2_vanish_upto"]:
        failed.append("y2 vanishing")
    if failed:
        return Refusal(
            operation=f"certify_kpm({m})",
            reason="boundary degree conditions failed: " + ", ".join(failed),
            evidence=evidence,
        )

    # the boundary Hessian [[2q, l], [l, 2r]], read at x = y = 0 for each
    # eps (q, l, r the x^2, xy, y^2 coefficients, polynomials in eps)
    steps = (
        {"x": 0, "y": 0, "eps": Fraction(1, 2**j)} for j in range(1, KPM_EPS_STEPS + 1)
    )
    found = _first_non_psd(profile, ("x", "y"), steps)
    if found is None:
        return Refusal(
            operation=f"certify_kpm({m})",
            reason="no eps with a non-PSD boundary Hessian",
            evidence=evidence,
        )
    _, point, res = found
    evidence["epsilon"] = format_rational(point["eps"])
    return _curvature_certificate(
        "not_norming", g, template, ("x", "y"), point, res,
        "norming refutation: the count-polynomial Hessian has a negative "
        "direction at a signed step matrix",
        degree_evidence=evidence,
    )


def random_witness_search(
    g: Graph,
    n: int,
    trials: int,
    mode: str,
    seed: int = 0,
    threads: int = 1,
) -> Certificate | None:
    """Sample step matrices of the mode's class until the Hessian fails PSD.

    weakly_norming mode samples nonnegative matrices: PSD-ness on the
    positive orthant extends to its closure, so a negative direction at a
    nonnegative matrix already refutes, and the refuting region typically
    hugs the boundary where some entries vanish. norming mode samples
    signed matrices. Deterministic for a fixed seed. ``threads`` is
    accepted and ignored.

    The graph is enumerated once, into the count polynomial with every
    cell a symbol and no caps (a template the engine maps onto itself by
    relabelling colours, so it colours its first cover vertex 0 alone and
    adds the images), and each trial's Hessian is read from it at
    the sampled matrix, through the one read plan of its walk: a term is
    valued with one multiplication per pair of cells, off a table of the
    pair's distinct exponent pairs at the matrix. At the zero cells an
    entry keeps only the terms whose grade, their number of edges on those
    cells, is the number of the entry's own two cells among them (0, 1 or
    2); the others vanish, among them the terms the caps of
    ``hessian_matrix`` leave out. With no trials nothing is enumerated.
    """
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}")
    if trials < 0:
        raise UsageError(f"trials must be >= 0, got {trials}")
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if n > 3:
        # the work limit prices one enumeration, but every trial reads the
        # polynomial in all n(n+1)/2 cell symbols: 6 at n = 3
        raise SizeGuardError(
            f"search guard: n={n} > 3, the bound on the symbols it reads "
            "every trial (6 at n = 3)"
        )
    if trials == 0:
        return None
    matrix_class = "nonnegative" if mode == "weakly_norming" else "signed"
    kind = "not_weakly_norming" if mode == "weakly_norming" else "not_norming"
    # zero-padded names sort in cell order, so a cell's axis is its index
    names = tuple(f"c{idx:02d}" for idx in range(n * (n + 1) // 2))
    template = SymbolicTemplate(n, names)
    samples = (
        sample_matrix(n, matrix_class, (seed * 0x9E3779B1 + trial) % 2**63)
        for trial in range(trials)
    )
    points = (dict(zip(names, a.tri)) for a in samples)
    found = _first_non_psd(symbolic_profile(g, template), names, points)
    if found is None:
        return None
    trial, point, res = found
    return _curvature_certificate(
        kind, g, template, names, point, res,
        "randomized refutation: the count-polynomial Hessian has a "
        f"negative direction at a {matrix_class} step matrix (trial {trial})",
        seed=seed,
    )


def verify_certificate(cert: Certificate, threads: int = 1) -> bool:
    """Re-check by re-running the engine: reproduce the certificate's
    negative quadratic form (or structural reason) exactly. The value is
    read off one coefficient, v^T H v = 2 [s^2] hom(H, A + sD), the
    curvature along the line from the witness A in the direction D
    (``line_curvature``), through the same ``symbolic_profile`` ->
    ``profile_map`` engine that produced the certificate, with no Hessian
    built. A checker independent of that engine is still open. ``threads``
    is accepted and ignored."""
    if cert.kind == "screening_failure":
        # decided from the edge list alone, by the screen that made it: a
        # claimed "n" costs nothing
        if cert.reason not in SCREENS:
            raise UsageError(f"unknown screening reason {cert.reason!r}")
        _, _, passes = SCREENS[cert.reason]
        return not passes(cert.graph)

    if cert.kind not in ("not_weakly_norming", "not_norming"):
        raise UsageError(f"unknown certificate kind {cert.kind!r}")
    if not (cert.witness and cert.pairs and cert.direction) or None in (cert.n, cert.value):
        raise UsageError("curvature certificate is missing fields")
    if cert.witness.n != cert.n:
        size = cert.witness.n
        raise UsageError(f"certificate n = {cert.n} disagrees with its {size}x{size} witness")
    if cert.value >= 0:
        return False
    if cert.kind == "not_weakly_norming" and not cert.witness.entries_in(0, 1):
        return False
    return line_curvature(cert.graph, cert.witness, cert.pairs, cert.direction) == cert.value
