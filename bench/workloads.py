"""The three workloads: their inputs, one round of operations, and the checks.

A workload is built from the seed alone. ``run_round(op)`` performs one round
and calls ``op(name, fn, *args, verify=...)`` for every timed operation; the
``op`` callback times the call and keeps what it returns for ``check``. The
checks run after the timed phase and use only ``oracle`` (no engine code) and
the known answers of the paper, never the program's own routines.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import oracle

BOWTIE_TEMPLATE_ZERO = [[1, 1, 0], [1, 0, 1], [0, 1, 0]]
BOWTIE_X, BOWTIE_Y = (2, 2), (0, 2)


class Failed(Exception):
    """An operation ended in a way that counts as failed, not as wrong."""


def _cert_round_trip(gn, text):
    """Parse an emitted certificate back and verify it, as a reader would."""
    cert = gn.certificates.Certificate.from_json(json.loads(text))
    return gn.certificates.verify_certificate(cert, threads=1)


def _emit(cert):
    return json.dumps(cert.to_json(), indent=2)


def _graph_of(data):
    return data["graph"]["n"], [tuple(e) for e in data["graph"]["edges"]]


def _check_curvature(problems, label, data, mode_class):
    """Class, sign and oracle value of one curvature certificate (JSON form)."""
    witness = oracle.rows_of(data["witness"]["entries"])
    cells = [x for row in witness for x in row]
    lo = Fraction(-1) if mode_class == "signed" else Fraction(0)
    if not all(lo <= x <= 1 for x in cells):
        problems.append(f"{label}: witness outside the {mode_class} class")
    if mode_class == "positive" and not all(x > 0 for x in cells):
        problems.append(f"{label}: weak pipeline witness is not strictly positive")
    value = oracle.as_fraction(data["value"])
    if value >= 0:
        problems.append(f"{label}: value {value} is not negative")
    nv, edges = _graph_of(data)
    pairs = [tuple(p) for p in data["pairs"]]
    want = oracle.second_derivative(nv, edges, witness, pairs, data["direction"])
    if value != want:
        problems.append(f"{label}: value {value} != oracle {want}")


class Certify:
    """The headline sweep: both refutation pipelines, each certificate
    round-tripped through JSON and verified."""

    name = "certify"
    nominal_round_s = 15.0

    def __init__(self, gn, seed, workdir):
        # the sweep has no random inputs, so the seed changes nothing here
        self.gn = gn
        self.cases = [("bowtie", k) for k in range(3, 8)] + [("kpm", m) for m in range(3, 8)]

    def run_round(self, op):
        cert_mod = self.gn.certificates
        for family, size in self.cases:
            fn = cert_mod.certify_bowtie_cycle if family == "bowtie" else cert_mod.certify_kpm
            text = op(f"certify {family} {size}", self._certify, fn, size)
            if text is not None and '"refused"' not in text:
                op(f"verify {family} {size}", _cert_round_trip, self.gn, text, verify=True)

    def _certify(self, fn, size):
        result = fn(size, threads=1)
        if isinstance(result, self.gn.certificates.Refusal):
            return json.dumps(result.to_json(), indent=2)
        return _emit(result)

    def check(self, outputs):
        problems = []
        for family, size in self.cases:
            label = f"certify {family} {size}"
            texts = outputs.get(label, [])
            if not texts or len(set(texts)) != 1:
                problems.append(f"{label}: output differs between rounds")
                continue
            data = json.loads(texts[0])
            if family == "bowtie":
                self._check_bowtie(problems, label, size, data)
            else:
                self._check_kpm(problems, label, size, data)
            if not data.get("refused"):
                verdicts = outputs.get(f"verify {family} {size}", [])
                if not verdicts or not all(v is True for v in verdicts):
                    problems.append(f"{label}: certificate did not verify")
        return problems

    def _check_bowtie(self, problems, label, k, data):
        edges = oracle.cycle_blowup_edges(k)
        if k <= 4:
            x2, xy = oracle.template_coefficients(
                2 * k, edges, BOWTIE_TEMPLATE_ZERO, BOWTIE_X, BOWTIE_Y
            )
            evidence = data.get("evidence", {})
            if not data.get("refused"):
                problems.append(f"{label}: expected a refusal (K33 and Q3 are weakly norming)")
            elif (evidence.get("x2_coeff"), evidence.get("xy_coeff")) != (str(x2), str(xy)):
                problems.append(f"{label}: coefficients {evidence} != oracle ({x2}, {xy})")
            return
        if data.get("kind") != "not_weakly_norming" or _graph_of(data) != (2 * k, edges):
            problems.append(f"{label}: expected a weak-norming refutation of the blow-up of C_{k}")
            return
        _check_curvature(problems, label, data, "positive")

    def _check_kpm(self, problems, label, m, data):
        if m == 3:
            # K_{3,3} minus a matching is C_6, which is norming
            if not data.get("refused"):
                problems.append(f"{label}: expected a refusal")
            return
        graph = (2 * m, oracle.kpm_edges(m))
        if _graph_of(data) != graph:
            problems.append(f"{label}: certificate names another graph")
            return
        if m % 2 == 0:
            odd = any(d % 2 for d in oracle.degrees(*graph))
            if data.get("kind") != "screening_failure" or data.get("value") != "non-eulerian" or not odd:
                problems.append(f"{label}: expected a non-eulerian screening certificate")
            return
        if data.get("kind") != "not_norming":
            problems.append(f"{label}: expected a norming refutation")
            return
        _check_curvature(problems, label, data, "signed")


class Search:
    """Random witness search with n = 3.

    The Moebius ladder and K_{5,5} minus a matching find certificates after
    a number of trials that swings from 1 to 40 with the search seed, so they
    use a fixed panel of search seeds; a seed-chosen panel would make wall_s
    and verify_s measure luck. K_{3,3}, Q_3 (weak) and C_6 (norming) never
    find one and always spend the whole budget, so their search seeds come
    from the workload seed.
    """

    name = "search"
    nominal_round_s = 14.0
    FINDING = (
        ("mobius", "weakly_norming", (0, 1, 2), 60),
        ("kpm5", "norming", (0, 1, 2, 3), 20),
    )
    EXHAUSTING = (
        ("k33", "weakly_norming", 2, 100),
        ("q3", "weakly_norming", 2, 50),
        ("c6", "norming", 2, 100),
    )

    def __init__(self, gn, seed, workdir):
        self.gn = gn
        g = gn.graphs
        self.graphs = {
            "mobius": g.bowtie_blowup(g.cycle_graph(5)),
            "kpm5": g.kpm_graph(5),
            "k33": g.complete_bipartite(3, 3),
            "q3": g.hypercube_graph(3),
            "c6": g.cycle_graph(6),
        }
        rng = random.Random(seed)
        self.searches = [
            (name, mode, s, trials) for name, mode, seeds, trials in self.FINDING for s in seeds
        ]
        for name, mode, count, trials in self.EXHAUSTING:
            self.searches += [(name, mode, rng.randrange(2**31), trials) for _ in range(count)]

    def run_round(self, op):
        for name, mode, s, trials in self.searches:
            label = f"search {name} {mode} seed={s}"
            text = op(label, self._search, self.graphs[name], mode, s, trials)
            if text is not None:
                op(f"verify {label}", _cert_round_trip, self.gn, text, verify=True)

    def _search(self, g, mode, s, trials):
        cert = self.gn.certificates.random_witness_search(g, 3, trials, mode, s, threads=1)
        return None if cert is None else _emit(cert)

    def check(self, outputs):
        problems = []
        for name, mode, s, trials in self.searches:
            label = f"search {name} {mode} seed={s}"
            texts = outputs.get(label, [])
            if not texts or len(set(texts)) != 1:
                problems.append(f"{label}: output differs between rounds")
                continue
            text = texts[0]
            if name in ("k33", "q3", "c6"):
                if text is not None:
                    problems.append(f"{label}: certificate found for a norming graph")
                continue
            if text is None:
                continue
            data = json.loads(text)
            g = self.graphs[name]
            if _graph_of(data) != (g.n, [tuple(e) for e in g.edges]):
                problems.append(f"{label}: certificate names another graph")
            _check_curvature(problems, label, data, "signed" if mode == "norming" else "nonnegative")
            if not all(v is True for v in outputs.get(f"verify {label}", [])):
                problems.append(f"{label}: certificate did not verify")
        return problems


def _frac(rng, lo, hi):
    q = rng.randint(2, 6)
    return Fraction(rng.randint(lo * q, hi * q), q)


def _kernel(rng, n, kind):
    """Symmetric n x n kernel whose enumeration cost does not depend on the seed.

    The pattern of a kind and size is fixed: for "nonneg", about one cell in
    three is 0 (the engine caps it) and one in three is 1 (left untracked),
    the rest lie in (0, 1); for "signed", every cell is a nonzero rational in
    (-1, 1). Each cell keeps a fixed denominator. The seed picks the
    numerators and relabels the rows and columns, which leaves the count of
    maps and profiles unchanged.
    """
    shape = random.Random(f"{kind}{n}")
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    special = shape.sample(range(len(cells)), 2 * max(1, len(cells) // 3))
    zeros = set(special[: len(special) // 2]) if kind == "nonneg" else set()
    ones = set(special[len(special) // 2 :]) if kind == "nonneg" else set()
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[None] * n for _ in range(n)]
    for t, (i, j) in enumerate(cells):
        q = shape.randint(2, 6)
        if t in zeros:
            x = Fraction(0)
        elif t in ones:
            x = Fraction(1)
        elif kind == "nonneg":
            x = Fraction(rng.randint(1, q - 1), q)
        else:
            x = Fraction(rng.choice([-1, 1]) * rng.randint(1, q - 1), q)
        a, b = perm[i], perm[j]
        rows[a][b] = rows[b][a] = x
    return rows


def _relabelled(gn, n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return gn.graphs.Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _gram(rng, n, negative):
    """B^T S B for a nonsingular B = L U; S = I (PSD) or diag(1, .., 1, -1)."""
    lower = [[Fraction(int(i == j)) if j >= i else _frac(rng, -2, 2) for j in range(n)] for i in range(n)]
    upper = [[_frac(rng, -2, 2) if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        upper[i][i] = _frac(rng, 1, 2)
    b = [[sum(lower[j][k] * upper[k][i] for k in range(n)) for i in range(n)] for j in range(n)]
    sign = [1] * (n - 1) + [-1 if negative else 1]
    return [
        [sum(b[k][i] * sign[k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def _matrix_json(rows):
    return {"n": len(rows), "entries": [[str(Fraction(x)) for x in row] for row in rows]}


class Queries:
    """Many short CLI commands, called in-process through graphnorms.cli.main
    on graph, matrix and certificate files written during set-up."""

    name = "queries"
    nominal_round_s = 1.25

    def __init__(self, gn, seed, workdir):
        self.gn = gn
        self.workdir = workdir
        rng = random.Random(seed)
        g = gn.graphs
        # seed-relabelled copies of two fixed graphs: C_7 with three chords
        # (odd degrees) and C_8 with a 4-cycle on its even vertices (eulerian)
        g7 = [(i, (i + 1) % 7) for i in range(7)] + [(0, 2), (0, 4), (3, 5)]
        g8 = [(i, (i + 1) % 8) for i in range(8)] + [(0, 2), (2, 4), (4, 6), (0, 6)]
        graphs = {
            "c4": g.cycle_graph(4),
            "c6": g.cycle_graph(6),
            "k33": g.complete_bipartite(3, 3),
            "q3": g.hypercube_graph(3),
            "mobius": g.bowtie_blowup(g.cycle_graph(5)),
            "bowtie4": g.bowtie_blowup(g.cycle_graph(4)),
            "bowtie6": g.bowtie_blowup(g.cycle_graph(6)),
            "g7": _relabelled(gn, 7, g7, rng),
            "g8": _relabelled(gn, 8, g8, rng),
        }
        self.graphs = {k: (v.n, [tuple(e) for e in v.edges]) for k, v in graphs.items()}
        kernels = {}
        for n in (2, 3, 4):
            kernels[f"nonneg{n}"] = _kernel(rng, n, "nonneg")
            kernels[f"signed{n}"] = _kernel(rng, n, "signed")
            kernels[f"signed{n}b"] = _kernel(rng, n, "signed")
        kernels["signed6"] = _kernel(rng, 6, "signed")
        kernels["nonneg5"] = _kernel(rng, 5, "nonneg")
        kernels["gram3"] = _gram(rng, 3, False)
        kernels["gram5"] = _gram(rng, 5, False)
        kernels["indef4"] = _gram(rng, 4, True)
        kernels["indef6"] = _gram(rng, 6, True)
        self.kernels = kernels

        self.paths = {}
        for name, graph in graphs.items():
            self._write(f"{name}.graph.json", json.dumps(graph.to_json()), name)
        for name, rows in kernels.items():
            self._write(f"{name}.matrix.json", json.dumps(_matrix_json(rows)), name)

        cert = gn.certificates
        genuine = {
            "bowtie5": cert.certify_bowtie_cycle(5, threads=1).to_json(),
            "kpm5": cert.certify_kpm(5, threads=1).to_json(),
            "kpm4": cert.certify_kpm(4, threads=1).to_json(),
        }
        tampered_value = dict(genuine["bowtie5"])
        shift = Fraction(1, rng.randint(2, 9))
        tampered_value["value"] = str(Fraction(tampered_value["value"]) - shift)
        tampered_direction = dict(genuine["kpm5"])
        direction = list(tampered_direction["direction"])
        slot = rng.randrange(len(direction))
        direction[slot] = str(Fraction(direction[slot]) + rng.randint(1, 5))
        tampered_direction["direction"] = direction
        malformed = dict(genuine["kpm5"])
        malformed["direction"] = 5
        certs = dict(genuine)
        certs.update(
            {
                "bowtie5-value": tampered_value,
                "kpm5-direction": tampered_direction,
                "kpm5-malformed": malformed,
            }
        )
        for name, data in certs.items():
            self._write(f"{name}.cert.json", json.dumps(data, indent=2), name)

        self.commands = self._commands()

    def _write(self, filename, text, key):
        path = self.workdir / filename
        path.write_text(text + "\n", encoding="utf-8")
        self.paths[key] = str(path)

    def _commands(self):
        p = self.paths
        cmds = []
        for gname, kname in (
            ("c6", "signed3"),
            ("k33", "nonneg3"),
            ("q3", "signed2"),
            ("q3", "nonneg4"),
            ("g7", "signed4"),
            ("mobius", "nonneg3"),
        ):
            cmds.append(("density", (gname, kname), ["density", "-g", p[gname], "-m", p[kname]]))
        for gname, kname, pairs in (
            ("c4", "signed3", "0,1;1,2;2,2"),
            ("k33", "nonneg3", "0,0;0,2;2,2"),
            ("q3", "signed2", "0,0;0,1;1,1"),
            ("c6", "nonneg4", "0,3;1,1;2,3"),
        ):
            cmds.append(
                ("hessian", (gname, kname, pairs), ["hessian", "-g", p[gname], "-m", p[kname], "--pairs", pairs])
            )
        for kname in ("gram3", "gram5", "indef4", "indef6"):
            cmds.append(("psd", (kname,), ["psd", "-m", p[kname]]))
        for kname in ("signed4", "signed6", "nonneg5"):
            cmds.append(("cutnorm", (kname,), ["cutnorm", "-m", p[kname]]))
        for gname, kname in (("c6", "nonneg3"), ("k33", "nonneg3"), ("q3", "nonneg2")):
            cmds.append(("sidorenko", (gname, kname), ["check", "sidorenko", "-g", p[gname], "-m", p[kname]]))
        for gname, a, b in (("c4", "signed2", "signed2b"), ("c6", "signed3", "signed3b")):
            cmds.append(("hatami", (gname, a, b), ["check", "hatami", "-g", p[gname], "-m", p[a], "-w", p[b]]))
        for gname, a, b in (("c6", "signed3", "signed3b"), ("k33", "signed2", "signed2b")):
            cmds.append(("counting", (gname, a, b), ["check", "counting", "-g", p[gname], "-m", p[a], "-w", p[b]]))
        for gname, half in (("g8", 1), ("g7", 2), ("c6", 2)):
            cmds.append(
                ("euler-indicator", (gname, half), ["check", "euler-indicator", "-g", p[gname], "--n", str(half)])
            )
        for gname, half in (("c4", 2), ("c6", 1)):
            cmds.append(("prop42", (gname, half), ["check", "prop42", "-g", p[gname], "--n", str(half)]))
        for gname in ("bowtie4", "mobius", "bowtie6"):
            cmds.append(("bowtie-lemma", (gname,), ["check", "bowtie-lemma", "-g", p[gname]]))
        for cname in ("bowtie5", "kpm5", "kpm4", "bowtie5-value", "kpm5-direction", "kpm5-malformed"):
            cmds.append(("verify", (cname,), ["verify", "-c", p[cname]]))
        return [(f"{kind} {' '.join(map(str, args))}", kind, args, argv + ["--threads", "1"]) for kind, args, argv in cmds]

    def run_round(self, op):
        for label, kind, args, argv in self.commands:
            if kind == "verify" and args[0] == "kpm5-malformed":
                op(label, self._expect_usage_error, argv, verify=True)
            else:
                op(label, self._cli, argv, verify=kind == "verify")

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.gn.cli.main(argv)
        return code, out.getvalue()

    def _expect_usage_error(self, argv):
        """A malformed certificate must be a usage error (exit 3)."""
        try:
            code, text = self._cli(argv)
        except Exception as exc:  # the crash itself is what this operation measures
            raise Failed(f"{type(exc).__name__}: {exc}") from exc
        if code != 3:
            raise Failed(f"exit {code} instead of 3")
        return code, text

    def check(self, outputs):
        problems = []
        for label, kind, args, argv in self.commands:
            results = outputs.get(label, [])
            if len(set(results)) > 1:
                problems.append(f"{label}: output differs between rounds")
            if not results:
                continue
            code, text = results[0]
            try:
                bad = getattr(self, "_check_" + kind.replace("-", "_"))(code, json.loads(text), *args)
            except (KeyError, TypeError, ValueError) as exc:
                bad = f"unexpected output ({type(exc).__name__}: {exc})"
            if bad:
                problems.append(f"{label}: {bad}")
        return problems

    def _check_density(self, code, data, gname, kname):
        nv, edges = self.graphs[gname]
        rows = self.kernels[kname]
        count = oracle.hom_count(nv, edges, rows)
        dens = count / Fraction(len(rows)) ** nv
        weak = oracle.density(nv, edges, [[abs(x) for x in r] for r in rows])
        got = [oracle.as_fraction(data[k]) for k in ("count", "density", "norm_pow", "weak_norm_pow")]
        if code != 0 or got != [count, dens, abs(dens), weak]:
            return f"exit {code}, {got} != oracle {[count, dens, abs(dens), weak]}"

    def _check_hessian(self, code, data, gname, kname, pairs):
        nv, edges = self.graphs[gname]
        rows = self.kernels[kname]
        sel = [tuple(sorted(map(int, p.split(",")))) for p in pairs.split(";")]
        want = [[oracle.hessian_entry(nv, edges, rows, p, q) for q in sel] for p in sel]
        got = oracle.rows_of(data["matrix"]["entries"])
        if code != 0 or [tuple(p) for p in data["pairs"]] != sel or got != want:
            return f"exit {code}, Hessian differs from oracle"

    def _check_psd(self, code, data, kname):
        if kname.startswith("gram"):
            return None if code == 0 and data["verdict"] == "psd" else "B^T B not reported PSD"
        value = oracle.quadratic_form(self.kernels[kname], data["witness"])
        if code != 1 or data["verdict"] != "not_psd" or not value < 0:
            return f"exit {code}, witness form {value} is not negative"
        if oracle.as_fraction(data["value"]) != value:
            return f"reported value {data['value']} != v^T M v = {value}"

    def _check_cutnorm(self, code, data, kname):
        want = oracle.cut_norm(self.kernels[kname])
        if code != 0 or oracle.as_fraction(data["cut_norm"]) != want:
            return f"exit {code}, {data['cut_norm']} != brute force {want}"

    def _check_sidorenko(self, code, data, gname, kname):
        # even cycles, K_{3,3} and Q_3 are Sidorenko graphs
        if code != 0 or data["holds"] is not True:
            return "Sidorenko's inequality reported violated"

    def _check_hatami(self, code, data, gname, a, b):
        nv, edges = self.graphs[gname]
        u, w = self.kernels[a], self.kernels[b]
        plus = [[x + y for x, y in zip(r, s)] for r, s in zip(u, w)]
        minus = [[x - y for x, y in zip(r, s)] for r, s in zip(u, w)]
        t = lambda k: oracle.density(nv, edges, k)
        holds = t(plus) + t(minus) <= 2 ** (len(edges) - 1) * (t(u) + t(w))
        if data["holds"] is not holds or code != (0 if holds else 1):
            return f"exit {code}, holds={data['holds']} but oracle says {holds}"

    def _check_counting(self, code, data, gname, a, b):
        if code != 0 or data["holds"] is not True:
            return "counting lemma reported violated"
        nv, edges = self.graphs[gname]
        u, w = self.kernels[a], self.kernels[b]
        gap = abs(oracle.density(nv, edges, u) - oracle.density(nv, edges, w))
        diff = [[x - y for x, y in zip(r, s)] for r, s in zip(u, w)]
        if gap > 4 * len(edges) * oracle.cut_norm(diff):
            return "oracle finds the counting lemma violated"

    def _check_euler_indicator(self, code, data, gname, half):
        nv, edges = self.graphs[gname]
        eulerian = all(d % 2 == 0 for d in oracle.degrees(nv, edges))
        if code != 0 or data["holds"] is not True or data["eulerian"] is not eulerian:
            return f"exit {code}, holds={data['holds']}, eulerian={data['eulerian']} (oracle {eulerian})"

    def _check_prop42(self, code, data, gname, half):
        if code != 0 or data["kernel_annihilated"] is not True:
            return "Hessian at the block matrix does not annihilate the all-ones vector"

    def _check_bowtie_lemma(self, code, data, gname):
        # both conditions hold for blow-ups of C_k with k >= 5 and the first
        # fails for k = 4 (the 3-cube)
        holds = gname != "bowtie4"
        if data["holds"] is not holds or code != (0 if holds else 1):
            return f"exit {code}, holds={data['holds']}, expected {holds}"

    def _check_verify(self, code, data, cname):
        genuine = "-" not in cname
        if cname.endswith("malformed"):
            return None if code == 3 else f"exit {code} instead of 3"
        if code != (0 if genuine else 1) or data["valid"] is not genuine:
            return f"exit {code}, valid={data.get('valid')}"


WORKLOADS = {w.name: w for w in (Certify, Search, Queries)}
