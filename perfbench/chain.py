"""The four benchmark workloads: seeded input generators, the chain each
input runs through, and the re-verification of every positive artifact.

Every input carries a known answer taken from a source independent of the
call under test:

  certify    acceptance from ``tm.run`` with a generous fuel, and the
             corpus machines' documented behaviour (words starting with b
             and every right-walker input walk right forever);
  transport  genuine certificates verify; a copy with one generator index
             deleted must not, because u g v = u v only when g is the
             identity and no generator word evaluates to the identity;
  search     certified runs give witnesses inside their window; a window
             one row short of the certificate has no witness; the
             right-walker has none in window (0, 0, 6, 8) over Z/2 and Z/3;
  sweep      targets are built from planted lamps, so the word that
             plants them is a known witness of known length; a doubled
             lamp over Z/3 needs two plants at one point, which the sweep
             language never makes.

A verdict is ``"yes"`` (an artifact was produced or a check passed),
``"no"`` (nothing within the bounds, or a check failed) or ``"mixed"``
(the two group flavors disagree, always wrong).  Inputs whose search runs
on a node budget are marked ``exact=False``: a ``"no"`` on such an input
whose answer is yes is a budget miss, not a wrong verdict.

Workload objects receive the library as a namespace of modules, so the
set-up phase can re-import the package and time it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional

GOLDEN = 0.6180339887498949


@dataclass
class Item:
    """One generated input and its known answer."""

    kind: str
    n: int
    expect: str  # "yes" or "no"
    exact: bool
    data: dict = field(repr=False)
    rung: Optional[int] = None  # unary-ladder size, for the growth report


@dataclass
class Outcome:
    verdict: str
    artifact: Any = field(default=None, repr=False)


class Strata:
    """Seeded draws for a pool of rounds.

    Every round makes the same sequence of ``pick`` calls, and the k-th
    call draws from the k-th column: the band's values spread evenly over
    the pool's rounds, in seeded order.  So every seed's pool holds the
    same sizes, words and moduli, paired differently.  Mutation points come
    from ``rng`` directly.
    """

    def __init__(self, rng: random.Random, rounds: int):
        self.rng = rng
        self.rounds = rounds
        self.columns: list[list] = []
        self.round = self.slot = 0

    def start(self, k: int) -> None:
        self.round, self.slot = k, 0

    def pick(self, options):
        if self.slot == len(self.columns):
            count, rounds = len(options), self.rounds
            column = [options[(2 * j + 1) * count // (2 * rounds)]
                      for j in range(rounds)]
            self.rng.shuffle(column)
            self.columns.append(column)
        value = self.columns[self.slot][self.round]
        self.slot += 1
        return value

    def band(self, band: tuple[int, int]) -> int:
        return self.pick(range(band[0], band[1] + 1))


def make_pool(workload, rng: random.Random, rounds: int) -> list[Item]:
    """One cycle of inputs, ordered so that every prefix has the pool's mix.

    The k-th item of every round comes from the same band.  Lined up band
    by band, smallest first, the pool runs from cheap to dear within each
    band; a golden-ratio sequence then takes items evenly from that line,
    so a run that stops anywhere has processed a representative share of
    every band and of every size within it.
    """
    strata = Strata(rng, rounds)
    drawn = []
    for k in range(rounds):
        strata.start(k)
        drawn.append(workload.round(strata))
    line = [item for slot in zip(*drawn) for item in sorted(slot, key=lambda i: i.n)]
    offset = rng.random()
    order = sorted(range(len(line)), key=lambda i: (i * GOLDEN + offset) % 1.0)
    return [line[i] for i in order]


def _word(draw: Strata, first: str, length: int) -> str:
    """A word over {a, b} starting with ``first``; the other letters spell
    a point spread over all such words like the sizes over their bands,
    since the letters, too, change what a search has to do."""
    rest = length - 1
    code = draw.pick(range(1024)) * 2 ** rest // 1024
    return first + "".join("ab"[(code >> i) & 1] for i in range(rest))


def _fuel(word: str) -> int:
    # Both erasers halt after 2n+3 steps; this bound is linear so that
    # walkers, which store every configuration, stay small.
    return 8 * len(word) + 32


def _known_accepts(lib, tm, word: str) -> bool:
    return lib.tm.run(tm, word, 64 * (len(word) + 2)) is not None


# ---------------------------------------------------------------------------
# certify: machine -> tiles -> certificate -> forced search -> render


class Certify:
    """deduce's cubic forced search sets the tail; mid-size inputs expose
    engine and render at p50; rejected inputs drive forced search through
    its exhaustive path instead of its finding path."""

    name = "certify"
    # A workload's tail percentile is fixed, so that versions whose
    # throughput differs report the same percentile: the highest standard
    # one with at least ten samples beyond it in every 25 s run.
    TAIL_PERCENTILE = 90

    UNARY = ((2, 4), (5, 7), (8, 11), (12, 15), (16, 20), (21, 26),
             (27, 33), (34, 41), (42, 50), (51, 61), (62, 74))
    TWO_SYMBOL = ((2, 5), (6, 10), (11, 16), (17, 24), (25, 34))
    B_WORDS = (((1, 3), (12, 16)), ((2, 5), (16, 20)), ((3, 6), (20, 23)))
    WALKERS = (((1, 2), (14, 18)), ((2, 3), (18, 22)), ((3, 4), (22, 26)))

    def __init__(self, lib):
        self.lib = lib
        machines = lib.machines
        self.unary = machines.unary_eraser()
        self.two = machines.two_symbol_eraser()
        self.walker = machines.right_walker()

    def _item(self, kind: str, tm, word: str, rung: Optional[int] = None,
              bound: int = 0) -> Item:
        expect = "yes" if _known_accepts(self.lib, tm, word) else "no"
        return Item(kind, len(word), expect, True,
                    {"tm": tm, "word": word, "bound": bound}, rung)

    def round(self, draw: Strata) -> list[Item]:
        items = []
        for band in self.UNARY:
            n = draw.band(band)
            items.append(self._item("accept", self.unary, "a" * n, n))
        for band in self.TWO_SYMBOL:
            items.append(self._item("accept", self.two,
                                    _word(draw, "a", draw.band(band))))
        for length, bound in self.B_WORDS:
            items.append(self._item("reject", self.two,
                                    _word(draw, "b", draw.band(length)),
                                    bound=draw.band(bound)))
        for length, bound in self.WALKERS:
            items.append(self._item("reject", self.walker, "a" * draw.band(length),
                                    bound=draw.band(bound)))
        return items

    def warmup_item(self) -> Item:
        return self._item("accept", self.unary, "aa")

    def execute(self, item: Item, tr) -> Outcome:
        lib = self.lib
        tm, word = item.data["tm"], item.data["word"]
        fuel = _fuel(word)
        with tr.span("tm.run"):
            trace = lib.tm.run(tm, word, fuel)
        with tr.span("compiler.compile"):
            ts = lib.compiler.compile_tiles(tm)
        with tr.span("compiler.initial_map"):
            f0 = lib.compiler.initial_map(tm, word)
        with tr.span("engine.build"):
            built = lib.engine.build_accepting_tiling(tm, word, fuel)
        art = {"ts": ts, "f0": f0, "trace": trace, "built": built}
        if built is None:
            bound = item.data["bound"]
            with tr.span("deduce.forced"):
                found = lib.deduce.forced_search(ts, f0, len(word) + bound, bound)
            art["found"] = found
            return Outcome("no" if found is None else "yes", art)
        with tr.span("engine.verify"):
            zero = lib.engine.verify_zero(f0, built, ts)
        with tr.span("engine.audit"):
            audit = lib.engine.claims_audit(built, f0)
        with tr.span("deduce.forced"):
            found = lib.deduce.forced_search(ts, f0, built.width_m, built.rows)
        with tr.span("render.ascii"):
            art["ascii"] = lib.render.render_certificate_ascii(built)
        with tr.span("render.svg"):
            art["svg"] = lib.render.render_certificate_svg(built)
        with tr.span("tiling.roundtrip"):
            art["back"] = lib.tiling.load_certificate(
                lib.tiling.dump_certificate(built), ts)
        art["found"] = found
        ok = zero and audit.ok and found is not None
        return Outcome("yes" if ok else "no", art)

    def recheck(self, item: Item, out: Outcome) -> bool:
        art = out.artifact
        found, built = art["found"], art["built"]
        if found is None or not self.lib.engine.verify_zero(art["f0"], found, art["ts"]):
            return False
        if built is None:
            return True
        return (found == built and art["back"] == built
                and art["trace"] is not None
                and art["ascii"].strip() != ""
                and art["svg"].rstrip().endswith("</svg>"))

    def tally(self, item: Item, out: Outcome) -> dict:
        art = out.artifact
        found = art["found"]
        facts = {"found": found is not None}
        if art["trace"] is not None:
            facts["steps"] = art["trace"].steps
        if found is not None:
            facts["placements"] = len(found.placements)
            facts["widths_tried"] = found.width_m - item.n
        else:
            facts["widths_tried"] = item.data.get("bound", 0)
        if art["built"] is not None:
            facts["verify_placements"] = len(art["built"].placements)
            facts["render_bytes"] = len(art["ascii"]) + len(art["svg"])
        return facts


# ---------------------------------------------------------------------------
# transport: certificate -> module witness -> word-product certificates


class Transport:
    """groups token evaluation dominates here and nowhere else; genuine and
    one-deletion mutant certificates use the verifier's accept and reject
    paths."""

    name = "transport"
    # About 100 inputs fit in a run, too few for ten beyond p90.
    TAIL_PERCENTILE = 85

    # Overlapping bands give a cost distribution without gaps, so the
    # median does not jump between clusters as a run's mix shifts.
    UNARY = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 8), (7, 10))
    TWO_SYMBOL = ((2, 4), (3, 6), (5, 8))
    FLAVORS = (("wreath", "wreath"), ("free-metabelian", "metabelian"))

    def __init__(self, lib):
        self.lib = lib
        self.unary = lib.machines.unary_eraser()
        self.two = lib.machines.two_symbol_eraser()
        self.systems = {id(tm): lib.compiler.compile_tiles(tm)
                        for tm in (self.unary, self.two)}

    def _pair(self, tm, word: str, rng: random.Random,
              rung: Optional[int]) -> list[Item]:
        lib = self.lib
        cert = lib.engine.build_accepting_tiling(tm, word, 64 * (len(word) + 2))
        data = {"ts": self.systems[id(tm)], "f0": lib.compiler.initial_map(tm, word),
                "cert": cert}
        genuine = Item("genuine", len(word), "yes", True, data, rung)
        mutant = Item("mutant", len(word), "no", True,
                      dict(data, cut=rng.random()), rung)
        return [genuine, mutant]

    def round(self, draw: Strata) -> list[Item]:
        items = []
        for band in self.UNARY:
            n = draw.band(band)
            items += self._pair(self.unary, "a" * n, draw.rng, n)
        for band in self.TWO_SYMBOL:
            items += self._pair(self.two, _word(draw, "a", draw.band(band)), draw.rng, None)
        return items

    def warmup_item(self) -> Item:
        return self._pair(self.unary, "a", random.Random(0), None)[1]

    def execute(self, item: Item, tr) -> Outcome:
        lib = self.lib
        modules, groups = lib.modules, lib.groups
        ts, f0, cert = item.data["ts"], item.data["f0"], item.data["cert"]
        with tr.span("modules.reduce"):
            inst = modules.tiling_to_instance(ts, f0)
            picks = modules.certificate_to_witness(cert, ts)
        terms = tuple(modules.WitnessTerm(g, dx, dy, 1) for g, dx, dy in picks)
        with tr.span("modules.witness_check"):
            module_ok = modules.verify_witness(inst, terms)
        proofs = []
        for flavor, label in self.FLAVORS:
            with tr.span("groups.instance"):
                sub = groups.make_submonoid_instance(inst, flavor)
            with tr.span("groups.index_cert"):
                indices = groups.witness_to_submonoid_certificate(picks, sub)
            if item.kind == "mutant":
                cut = int(item.data["cut"] * len(indices))
                indices = indices[:cut] + indices[cut + 1:]
                with tr.span("groups.reject"):
                    ok = groups.verify_submonoid_certificate(sub, indices)
            else:
                with tr.span(f"groups.verify.{label}"):
                    ok = groups.verify_submonoid_certificate(sub, indices)
            proofs.append((sub, indices, ok))
        results = [ok for _, _, ok in proofs]
        if module_ok and all(results):
            verdict = "yes"
        elif not any(results):
            verdict = "no"
        else:
            verdict = "mixed"
        return Outcome(verdict, {"inst": inst, "terms": terms, "proofs": proofs})

    def recheck(self, item: Item, out: Outcome) -> bool:
        art = out.artifact
        verify = self.lib.groups.verify_submonoid_certificate
        return (self.lib.modules.verify_witness(art["inst"], art["terms"])
                and all(verify(sub, indices) for sub, indices, _ in art["proofs"]))

    def tally(self, item: Item, out: Outcome) -> dict:
        tokens = {}
        for (sub, indices, _), (_, label) in zip(out.artifact["proofs"], self.FLAVORS):
            lengths = [len(w.split()) for w in sub.generators]
            tokens[label] = (sum(lengths[i] for i in indices)
                             + len(sub.target.split()))
        return {"tokens": tokens}


# ---------------------------------------------------------------------------
# search: bounded module searches over translated tile vectors


class Search:
    """Bounded search in modules dominates; found, exhausted, exactly
    eliminated and budget-missed inputs drive the searches differently."""

    name = "search"
    TAIL_PERCENTILE = 90

    # Overlapping bands, as in Transport, keep the cost distribution free
    # of gaps.
    SUBSET_FOUND = (("unary", (1, 3)), ("unary", (2, 5)), ("unary", (4, 7)),
                    ("unary", (6, 8)), ("two", (1, 2)), ("two", (2, 3)))
    SUBSET_SHORT = (("unary", (1, 3)), ("unary", (2, 4)), ("two", (1, 2)))
    ELIMINATE = (("unary", (1, 2)), ("unary", (2, 3)), ("two", (1, 2)))
    WALKER_WINDOW = (0, 0, 6, 8)
    MEMBER_FUEL = (400, 1200)

    def __init__(self, lib):
        self.lib = lib
        machines = lib.machines
        self.machines = {"unary": machines.unary_eraser(),
                         "two": machines.two_symbol_eraser(),
                         "walker": machines.right_walker(),
                         "mini": machines.mini_eraser()}
        self.systems = {key: lib.compiler.compile_tiles(tm)
                        for key, tm in self.machines.items()}

    def _item(self, kind: str, key: str, word: str, modulus: Optional[int],
              method: str, expect: str, exact: bool, window=None,
              fuel: int = 1_000_000, short: bool = False) -> Item:
        tm = self.machines[key]
        if window is None:
            cert = self.lib.engine.build_accepting_tiling(tm, word, 64 * (len(word) + 2))
            window = self.lib.engine.default_window(cert)
            if short:
                window = window[:3] + (window[3] - 1,)
        rung = len(word) if key == "unary" else None
        return Item(kind, len(word), expect, exact,
                    {"tm": tm, "ts": self.systems[key], "word": word,
                     "modulus": modulus, "method": method, "window": window,
                     "fuel": fuel}, rung)

    def _draw_word(self, draw: Strata, key: str, band) -> str:
        n = draw.band(band)
        return "a" * n if key == "unary" else _word(draw, "a", n)

    def round(self, draw: Strata) -> list[Item]:
        items = []
        for key, band in self.SUBSET_FOUND:
            items.append(self._item("found", key, self._draw_word(draw, key, band),
                                    draw.pick((2, 3)), "subset", "yes", False))
        for key, band in self.SUBSET_SHORT:
            items.append(self._item("exhausted", key, self._draw_word(draw, key, band),
                                    draw.pick((2, 3)), "subset", "no", False,
                                    short=True))
        for key, band in self.ELIMINATE:
            items.append(self._item("eliminate", key, self._draw_word(draw, key, band),
                                    draw.pick((2, 3)), "eliminate", "yes", True))
        items.append(self._item("eliminate-no", "walker", "a", draw.pick((2, 3)),
                                "eliminate", "no", True, window=self.WALKER_WINDOW))
        items.append(self._item("member", "mini", "a", None, "member", "yes", False))
        items.append(self._item("budget", "unary", "a", None, "member", "yes", False,
                                fuel=draw.band(self.MEMBER_FUEL)))
        return items

    def warmup_item(self) -> Item:
        return self._item("found", "unary", "a", 2, "subset", "yes", False)

    def execute(self, item: Item, tr) -> Outcome:
        lib = self.lib
        modules, d = lib.modules, item.data
        ring = lib.edges.Z if d["modulus"] is None else lib.edges.Ring(d["modulus"])
        with tr.span("compiler.initial_map"):
            f0 = lib.compiler.initial_map(d["tm"], d["word"], ring)
        mode = "subset-sum" if d["method"] == "subset" else "semimodule"
        with tr.span("modules.reduce"):
            inst = modules.tiling_to_instance(d["ts"], f0, mode)
        if d["method"] == "subset":
            with tr.span("modules.subset_sum"):
                witness = modules.subset_sum_bounded(inst, d["window"], d["fuel"])
        elif d["method"] == "eliminate":
            with tr.span("modules.eliminate"):
                witness = modules.member_bounded(inst, d["window"])
        else:
            with tr.span("modules.member"):
                witness = modules.member_bounded(inst, d["window"], 1, d["fuel"])
        return Outcome("no" if witness is None else "yes",
                       {"inst": inst, "witness": witness})

    def recheck(self, item: Item, out: Outcome) -> bool:
        inst, witness = out.artifact["inst"], out.artifact["witness"]
        x0, y0, x1, y1 = item.data["window"]
        inside = all(x0 <= t[1] <= x1 and y0 <= t[2] <= y1 for t in witness)
        try:
            return inside and self.lib.modules.verify_witness(inst, witness)
        except self.lib.modules.DuplicateShift:
            return False

    def tally(self, item: Item, out: Outcome) -> dict:
        return {"method": item.data["method"], "found": out.verdict == "yes"}


# ---------------------------------------------------------------------------
# sweep: the regular sweep language over the wreath product


class Sweep:
    """BFS over (NFA subset, wreath element) pairs dominates, hashing in the
    visited set included; without this workload rational goes unmeasured."""

    name = "sweep"
    TAIL_PERCENTILE = 90

    # Lamp layouts (x, y) planted by generator 0, and picks (generator, x, y)
    # over generators f and g = f + shifted f.  Each search takes at most
    # about 0.6 s, so no single input sets a run's tail or throughput.
    ONE_GEN = (((0, 0),), ((1, 0),), ((0, 1),), ((2, 0),), ((1, 1),),
               ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 0), (2, 0)),
               ((0, 0), (0, 1)), ((0, 0), (1, 1)))
    TWO_GEN = (((1, 0, 0),), ((1, 1, 0),), ((0, 0, 0), (1, 1, 0)))
    DOUBLED_LEN = ((7, 7), (8, 8), (9, 9))
    ENUM_LEN = ((10, 10), (11, 11), (12, 12))
    ENUM_PICKS = (((0, 0, 0),), ((0, 0, 0), (0, 1, 0)))
    CERT_WORDS = (("mini", "a"), ("unary", "a"), ("unary", "aa"), ("two", "ab"))

    def __init__(self, lib):
        self.lib = lib
        machines = lib.machines
        self.machines = {"unary": machines.unary_eraser(),
                         "two": machines.two_symbol_eraser(),
                         "mini": machines.mini_eraser()}

    def _ring(self, modulus: int):
        return self.lib.edges.Ring(modulus)

    def _planted(self, kind: str, modulus: int, gens, picks,
                 max_len=None) -> Item:
        """A subset-sum instance whose target is the sum of the picks."""
        modules = self.lib.modules
        ring = self._ring(modulus)
        target = modules.zero_element(ring, 1)
        for gen, dx, dy in picks:
            target = target + gens[gen].translate(dx, dy)
        inst = modules.SemimoduleInstance(ring, 1, gens, target, mode="subset-sum")
        known = self.lib.rational.certificate_to_word(picks)
        length = len(known.split())
        if max_len is None:
            max_len = length
        if length > max_len:
            raise ValueError(f"planted word of length {length} exceeds {max_len}")
        return Item(kind, length, "yes", True,
                    {"inst": inst, "max_len": max_len, "known": known})

    def round(self, draw: Strata) -> list[Item]:
        modules = self.lib.modules
        items = []
        for layout in self.ONE_GEN:
            ring = self._ring(draw.pick((2, 3)))
            f = modules.unit(ring, 1, 0, 0, 0)
            picks = tuple((0, x, y) for x, y in layout)
            items.append(self._planted("bfs", ring.modulus, (f,), picks))
        for picks in self.TWO_GEN:
            ring = self._ring(draw.pick((2, 3)))
            f = modules.unit(ring, 1, 0, 0, 0)
            shift = draw.pick(((1, 0), (0, 1)))
            g = f + f.translate(*shift)
            items.append(self._planted("bfs", ring.modulus, (f, g), picks))
        for band in self.DOUBLED_LEN:
            ring = self._ring(3)
            f = modules.unit(ring, 1, 0, 0, 0)
            inst = modules.SemimoduleInstance(ring, 1, (f,), f.scale(2),
                                              mode="subset-sum")
            length = draw.band(band)
            items.append(Item("doubled", length, "no", True,
                              {"inst": inst, "max_len": length}))
        for band in self.ENUM_LEN:
            ring = self._ring(draw.pick((2, 3)))
            f = modules.unit(ring, 1, 0, 0, 0)
            picks = draw.pick(self.ENUM_PICKS)
            item = self._planted("enumerate", ring.modulus, (f,), picks,
                                 max_len=draw.band(band))
            item.n = item.data["max_len"]
            items.append(item)
        for key, word in self.CERT_WORDS:
            items.append(self._sweep_word(key, word, draw.pick((2, 3))))
        return items

    def _sweep_word(self, key: str, word: str, modulus: int) -> Item:
        lib = self.lib
        tm = self.machines[key]
        ts = lib.compiler.compile_tiles(tm)
        f0 = lib.compiler.initial_map(tm, word, self._ring(modulus))
        cert = lib.engine.build_accepting_tiling(tm, word, 64 * (len(word) + 2))
        inst = lib.modules.tiling_to_subset_sum(ts, f0)
        picks = lib.modules.certificate_to_witness(cert, ts)
        return Item("sweep-word", len(word), "yes", True,
                    {"inst": inst, "picks": picks})

    def warmup_item(self) -> Item:
        f = self.lib.modules.unit(self._ring(2), 1, 0, 0, 0)
        return self._planted("bfs", 2, (f,), ((0, 0, 0),))

    def execute(self, item: Item, tr) -> Outcome:
        rational, d = self.lib.rational, item.data
        inst = d["inst"]
        with tr.span("rational.instance"):
            rat = rational.make_rational_instance(inst)
        art = {"rat": rat}
        if item.kind == "sweep-word":
            with tr.span("rational.sweep_word"):
                art["word"] = rational.certificate_to_word(d["picks"])
            return Outcome("yes", art)
        if item.kind == "enumerate":
            with tr.span("rational.enumerate"):
                hits = rational.enumerate_zero_position_hits(
                    rat.expr, rat.bindings, inst.ring, d["max_len"])
            art["hits"] = hits
            return Outcome("yes" if rat.target in hits else "no", art)
        with tr.span("rational.bfs"):
            word = rational.rational_member_bounded(
                rat.expr, rat.bindings, rat.target, d["max_len"], inst.ring)
        art["word"] = word
        return Outcome("no" if word is None else "yes", art)

    def _word_ok(self, rat, word: str) -> bool:
        rational = self.lib.rational
        return (rational.nfa_accepts(rational.regex_to_nfa(rat.expr), word)
                and self.lib.groups.wreath_eval(word, rat.bindings, rat.ring) == rat.target)

    def recheck(self, item: Item, out: Outcome) -> bool:
        art = out.artifact
        rat = art["rat"]
        if item.kind == "enumerate":
            hits = art["hits"]
            identity = self.lib.groups.wreath_identity(rat.ring)
            return (rat.target in hits and identity in hits
                    and all(h.pos == (0, 0) for h in hits)
                    and self._word_ok(rat, item.data["known"]))
        word = art["word"]
        if item.kind == "bfs" and len(word.split()) > item.data["max_len"]:
            return False
        return self._word_ok(rat, word)

    def tally(self, item: Item, out: Outcome) -> dict:
        facts = {"found": out.verdict == "yes"}
        if item.kind == "enumerate":
            facts["hits"] = len(out.artifact["hits"])
        return facts


WORKLOADS = {cls.name: cls for cls in (Certify, Transport, Search, Sweep)}
