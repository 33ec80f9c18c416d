"""Naive reference implementations used only by the tests.

Everything here recomputes results directly from definitions, by plain
enumeration over subsets, tuples or fixpoint iteration.  ``canonical_key``
sorts closed sets by a tuple of member ordinals, the reference for the
two-pass sort of ``enumerate_closed``; ``certified`` checks a family's
closure and complement in full, the reference for the lattice's
certificate, which trusts ``enumerate_closed`` to have closed its family.
The law scans try every element pair or triple of an ``OrthoLattice``, the
reference for ``OrthoLattice.check_laws``, which decides most verdicts
without them.
``generator_covers`` searches each element's covers among its meets with
every generator, the reference for ``hasse_edges``, which searches half the
lattice from the top down and mirrors the rest.  The
oracle filter, the recursive-descent formula parser (its tree's post-order
walk is the postfix program), the two recursive evaluators, the
substitution-based law comparison, the list-based trace generator and the
token-by-token trace parser at the end are the literal references for
``cli.closed_sets_by_definition``, ``parse_formula``, ``eval_boolean``,
``eval_ortho``, ``compare_laws``, ``gen_random`` and ``parse_trace``; the timing checks
after it compare the Fractions themselves, the reference for
``timing_problems``, which compares integer ticks.  The formula parser
scans characters itself and shares no code with ``orthochron``'s parser.
``barrier_trace`` builds traces far past the brute-force limit whose closed
sets ``barrier_lattice`` gives in closed form; ``twins_trace`` builds traces
in which many processes share one causality neighbourhood.
"""

import itertools
import random
import re
from fractions import Fraction
from itertools import combinations

from orthochron.chronology import TimeLine
from orthochron.logic_eval import EXHAUSTIVE_LIMIT, FormulaSyntaxError, LawComparison
from orthochron.ortholattice import OrthoLattice, format_members, ortho_mask
from orthochron.trace_model import (
    Message,
    MessageBudgetError,
    Site,
    Trace,
    TraceParseError,
)


def brute_happened_before(trace):
    """Transitive closure of same-site order plus message edges, by fixpoint."""
    rel = set()
    for site in trace.sites:
        for i, a in enumerate(site.processes):
            for b in site.processes[i + 1:]:
                rel.add((a, b))
    for message in trace.messages:
        rel.add((message.sender, message.receiver))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def brute_overlap(trace, p, q):
    start_p, end_p = trace.timing[p]
    start_q, end_q = trace.timing[q]
    return start_p < end_q and start_q < end_p


def earlier(trace, p, q):
    """p ends no later than q begins; touching counts as earlier."""
    return trace.timing[p][1] <= trace.timing[q][0]


def brute_time_points(trace):
    """Maximal pairwise-overlapping subsets, by powerset filtering."""
    names = trace.processes
    cliques = []
    for r in range(1, len(names) + 1):
        for combo in combinations(names, r):
            if all(brute_overlap(trace, a, b) for a in combo for b in combo):
                cliques.append(frozenset(combo))
    return {c for c in cliques if not any(c < d for d in cliques)}


def brute_ortho(cs, members):
    """Processes causally related to every member, by direct quantification."""
    return frozenset(
        q for q in cs.names if all(cs.causally_related(q, r) for r in members)
    )


def brute_closed_family(cs):
    """Subsets equal to their double orthocomplement, from the powerset."""
    names = list(cs.names)
    family = set()
    for r in range(len(names) + 1):
        for combo in combinations(names, r):
            subset = frozenset(combo)
            if brute_ortho(cs, brute_ortho(cs, subset)) == subset:
                family.add(subset)
    return family


def next_closure(cs):
    """Ganter's NextClosure ("Two basic algorithms in concept analysis", 1984)
    on the causality context: every closed set A'' in lectic order, A' being
    the processes related to all of A.  After the closed set A it takes the
    highest process i outside A such that B = ((A below i) + i)'' adds no
    process below i; B is the next.  It shares no code with the generator
    closure of ``enumerate_closed``."""
    full = cs.full_mask
    family = [prime(cs, full)]
    while family[-1] != full:
        a = family[-1]
        for i in reversed(range(cs.size)):
            below = (1 << i) - 1
            if not a >> i & 1:
                b = prime(cs, prime(cs, a & below | 1 << i))
                if b & below == a & below:
                    family.append(b)
                    break
    return family


def prime(cs, mask):
    """A' for the processes A of a mask: those related to all of A, the AND
    of A's causality rows."""
    out = cs.full_mask
    for i in bit_indices(mask):
        out &= cs.causality_masks[i]
    return out


def bit_indices(mask):
    """Ordinals of the set bits, lowest first, one bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def canonical_key(mask):
    """Cardinality, then the sorted member ordinals: the reference for the
    order ``enumerate_closed`` sorts into."""
    return (mask.bit_count(), tuple(bit_indices(mask)))


def orthogonal(cs):
    """Whether the structure has one causality row per process, irreflexive
    and symmetric bit by bit, with no bit past the last process: the
    reference for ``CausalStructure._orthogonal``."""
    rows, n = cs.causality_masks, len(cs.names)
    return len(rows) == n and all(
        not rows[p] >> n and not rows[p] >> p & 1 and all(rows[p] >> q & 1 == rows[q] >> p & 1 for q in range(n))
        for p in range(n)
    )


def certified(lat: OrthoLattice):
    """The full certificate of a family, member by member: its rows are
    orthogonal, its members are subsets of the processes, strictly ascending
    in canonical order, and the last is the full set, every member meets every causality row inside the
    family, and the orthocomplement of every member, the AND of its members'
    rows, is a member whose own orthocomplement is the member again.  The
    reference for ``OrthoLattice._certified``, which trusts
    ``enumerate_closed``."""
    cs, family = lat.structure, set(lat.masks)
    return (
        orthogonal(cs)
        and all(0 <= m <= cs.full_mask for m in family)
        and all(canonical_key(a) < canonical_key(b) for a, b in zip(lat.masks, lat.masks[1:]))
        and lat.masks[-1] == cs.full_mask
        and all(m & row in family for m in family for row in cs.causality_masks)
        and all(prime(cs, m) in family and prime(cs, prime(cs, m)) == m for m in family)
    )


def brute_covers(family):
    """Pairs (a, b) of members with a strictly inside b and no member
    strictly between them, by comparing every triple."""
    return {
        (a, b)
        for a in family
        for b in family
        if a < b and not any(a < c < b for c in family)
    }


def generator_covers(lat: OrthoLattice):
    """Cover pairs (lower index, upper index), sorted, from every generator:
    the lower covers of y are the maximal y & N_p other than y, kept largest
    first when they lie inside no cover kept so far.  The reference for the
    mirrored top-down search of ``OrthoLattice.hasse_edges``, at sizes where
    ``brute_covers`` is too slow."""
    generators = dict.fromkeys(lat.structure.causality_masks)
    position = lat._position
    edges = []
    for b, y in enumerate(lat.masks):
        below = {y & g for g in generators}
        below.discard(y)
        covers = []
        for z in sorted(below, key=int.bit_count, reverse=True):
            if not any(z & w == z for w in covers):
                covers.append(z)
                edges.append((position[z], b))
    edges.sort()
    return edges


def _scan_axioms(lat: OrthoLattice):
    n = len(lat.masks)
    masks = lat.masks
    comp = lat.complement
    if masks[0] != 0 or masks[-1] != lat.structure.full_mask:
        return (), "bottom or top missing"
    for i in range(n):
        if comp[comp[i]] != i:
            return (i,), f"complement not involutive at a = {lat._fmt(i)}"
        if masks[i] & masks[comp[i]] != 0:
            return (i,), f"a & ~a != {{}} at a = {lat._fmt(i)}"
        if lat._join_index(i, comp[i]) != n - 1:
            return (i,), f"a | ~a != top at a = {lat._fmt(i)}"
    for i in range(n):
        for j in range(n):
            forward = masks[i] & masks[j] == masks[i]
            mirrored = masks[comp[j]] & masks[comp[i]] == masks[comp[j]]
            if forward != mirrored:
                return (i, j), (
                    f"inclusion not antitone under complement at "
                    f"a = {lat._fmt(i)}, b = {lat._fmt(j)}"
                )
    return None


def _scan_de_morgan(lat: OrthoLattice):
    n = len(lat.masks)
    comp = lat.complement
    for i in range(n):
        for j in range(n):
            if comp[lat._join_index(i, j)] != lat._meet_index(comp[i], comp[j]):
                return (i, j), f"~(a | b) != ~a & ~b at a = {lat._fmt(i)}, b = {lat._fmt(j)}"
            if comp[lat._meet_index(i, j)] != lat._join_index(comp[i], comp[j]):
                return (i, j), f"~(a & b) != ~a | ~b at a = {lat._fmt(i)}, b = {lat._fmt(j)}"
    return None


def _scan_distributivity(lat: OrthoLattice):
    n = len(lat.masks)
    masks = lat.masks
    for i in range(n):
        for j in range(n):
            join_mask = masks[lat._join_index(i, j)]
            for k in range(n):
                lhs = join_mask & masks[k]
                rhs_index = lat._join_index(lat._meet_index(i, k), lat._meet_index(j, k))
                if lhs != masks[rhs_index]:
                    lhs_names = format_members(lat.structure.sorted_names_of(lhs))
                    return (i, j, k), (
                        f"(a | b) & c = {lhs_names} but "
                        f"(a & c) | (b & c) = {lat._fmt(rhs_index)}"
                    )
    return None


def _scan_orthomodularity(lat: OrthoLattice):
    n = len(lat.masks)
    masks = lat.masks
    comp = lat.complement
    for i in range(n):
        for j in range(n):
            if masks[i] & masks[j] != masks[i]:
                continue
            rhs = lat._join_index(i, lat._meet_index(comp[i], j))
            if rhs != j:
                return (i, j), (
                    f"a <= b but a | (~a & b) = {lat._fmt(rhs)} != b "
                    f"at a = {lat._fmt(i)}, b = {lat._fmt(j)}"
                )
    return None


REFERENCE_SCANS = {
    "ortholattice-axioms": _scan_axioms,
    "de-morgan": _scan_de_morgan,
    "distributivity": _scan_distributivity,
    "orthomodularity": _scan_orthomodularity,
}


def closed_sets_by_definition(cs):
    """Brute-force closed-set family: filter every subset by the literal
    bi-orthogonality condition using plain quantifier loops over the
    causality relation.  Independent of the generator enumeration."""
    names = list(cs.names)
    related = {a: {b for b in names if cs.causally_related(a, b)} for a in names}
    family = set()
    for bits in range(1 << len(names)):
        subset = {names[i] for i in range(len(names)) if bits >> i & 1}
        premise = [p for p in names if all(q in related[p] for q in subset)]
        if all(
            all(r in related[p] for p in premise) == (r in subset) for r in names
        ):
            family.add(frozenset(subset))
    return family


_FORMULA_WORDS = {"not": "~", "and": "&", "or": "|"}
_FORMULA_CHARS = {"~": "~", "!": "~", "&": "&", "|": "|", "(": "(", ")": ")"}


def _formula_tokens(text):
    """(kind, text, 1-based position) per token, scanning character by
    character: kind is "~", "&", "|", "(", ")" or "leaf" (a name, 0 or 1)."""
    tokens = []
    pos = 0
    while pos < len(text):
        char = text[pos]
        if char.isspace():
            pos += 1
            continue
        if text[pos:pos + 2] in ("/\\", "\\/"):
            tokens.append(("&" if char == "/" else "|", text[pos:pos + 2], pos + 1))
            pos += 2
        elif char in _FORMULA_CHARS:
            tokens.append((_FORMULA_CHARS[char], char, pos + 1))
            pos += 1
        elif char in "01":
            tokens.append(("leaf", char, pos + 1))
            pos += 1
        elif char.isascii() and (char.isalpha() or char == "_"):
            end = pos + 1
            while end < len(text) and text[end].isascii() and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            tokens.append((_FORMULA_WORDS.get(word, "leaf"), word, pos + 1))
            pos = end
        else:
            raise FormulaSyntaxError(f"unexpected character {char!r}", pos + 1)
    return tokens


def parse_formula(text):
    """Formula tree by recursive descent: a leaf is a name, "0" or "1"; a node
    is ("~", child), ("&", left, right) or ("|", left, right)."""
    tokens = _formula_tokens(text)
    cursor = 0

    def peek():
        return tokens[cursor][0] if cursor < len(tokens) else None

    def advance():
        nonlocal cursor
        cursor += 1
        return tokens[cursor - 1][1]

    def fail(message):
        if cursor < len(tokens):
            _, value, position = tokens[cursor]
            raise FormulaSyntaxError(f"{message}, found {value!r}", position)
        raise FormulaSyntaxError(f"{message} at end of input", len(text) + 1)

    def binary(op, operand):
        node = operand()
        while peek() == op:
            advance()
            node = (op, node, operand())
        return node

    def disjunction():
        return binary("|", conjunction)

    def conjunction():
        return binary("&", negation)

    def negation():
        if peek() == "~":
            advance()
            return ("~", negation())
        if peek() == "leaf":
            return advance()
        if peek() == "(":
            advance()
            node = disjunction()
            if peek() != ")":
                fail("expected ')'")
            advance()
            return node
        fail("expected an atom, '0', '1', '(' or a negation")

    tree = disjunction()
    if peek() is not None:
        fail("unexpected trailing input")
    return tree


def postorder(tree):
    """The tree's nodes in post-order, operators and leaves alike."""
    if isinstance(tree, str):
        return (tree,)
    return sum((postorder(child) for child in tree[1:]), ()) + (tree[0],)


def eval_boolean(tree, timeline):
    """Set of time point indices at which the formula tree holds, by recursion."""
    universe = frozenset(range(len(timeline)))

    def go(node):
        if node == "0":
            return frozenset()
        if node == "1":
            return universe
        if isinstance(node, str):
            if node not in timeline.process_order:
                raise ValueError(f"unknown atom {node!r}")
            return frozenset(i for i, point in enumerate(timeline.points) if node in point)
        if node[0] == "~":
            return universe - go(node[1])
        left, right = go(node[1]), go(node[2])
        return left & right if node[0] == "&" else left | right

    return go(tree)


def eval_ortho(tree, cs):
    """Closed process set denoted by the formula tree, by recursion."""

    def go(node):
        if node == "0":
            return 0
        if node == "1":
            return cs.full_mask
        if isinstance(node, str):
            if node not in cs.names:
                raise ValueError(f"unknown atom {node!r}")
            return ortho_mask(cs, ortho_mask(cs, 1 << cs.names.index(node)))
        if node[0] == "~":
            return ortho_mask(cs, go(node[1]))
        left, right = go(node[1]), go(node[2])
        if node[0] == "&":
            return left & right
        return ortho_mask(cs, ortho_mask(cs, left) & ortho_mask(cs, right))

    return cs.names_of(go(tree))


def _substitute(node, mapping):
    if isinstance(node, str):
        return mapping.get(node, node)
    return (node[0],) + tuple(_substitute(child, mapping) for child in node[1:])


def compare_laws(model, identity, trials=1000, seed=0):
    """Substitute every assignment of atoms into both sides of the identity
    and evaluate the substituted trees with the recursive evaluators."""
    lhs_source, rhs_source = identity
    lhs = parse_formula(lhs_source)
    rhs = parse_formula(rhs_source)
    leaves = [n for n in postorder(lhs) + postorder(rhs) if n not in ("0", "1", "~", "&", "|")]
    metavars = list(dict.fromkeys(leaves))
    if isinstance(model, TimeLine):
        semantics, atoms, evaluate = "boolean", model.process_order, eval_boolean
    else:
        semantics, atoms, evaluate = "ortho", model.names, eval_ortho

    total = len(atoms) ** len(metavars)
    exhaustive = total <= EXHAUSTIVE_LIMIT
    if exhaustive:
        assignments = itertools.product(atoms, repeat=len(metavars))
    else:
        rng = random.Random(seed)
        assignments = (
            tuple(rng.choice(atoms) for _ in metavars) for _ in range(trials)
        )

    checked = 0
    for combo in assignments:
        mapping = dict(zip(metavars, combo))
        left = evaluate(_substitute(lhs, mapping), model)
        right = evaluate(_substitute(rhs, mapping), model)
        checked += 1
        if left != right:
            return LawComparison(
                lhs_source,
                rhs_source,
                semantics,
                holds=False,
                exhaustive=exhaustive,
                checked=checked,
                total=total,
                counterexample=mapping,
                lhs_value=left,
                rhs_value=right,
            )
    return LawComparison(
        lhs_source,
        rhs_source,
        semantics,
        holds=True,
        exhaustive=exhaustive,
        checked=checked,
        total=total,
    )


def gen_random(seed, n_sites, procs_per_site, n_messages):
    """Generate a timed trace, sampling its messages from the full list of
    cross-site pairs with end(sender) < start(receiver)."""
    if n_sites < 1 or procs_per_site < 1:
        raise ValueError("need at least one site and one process per site")
    if n_messages < 0:
        raise ValueError("n_messages must be non-negative")
    rng = random.Random(seed)
    sites = []
    timing = {}
    for i in range(n_sites):
        clock = Fraction(rng.randint(0, 3))
        procs = []
        for k in range(procs_per_site):
            name = f"s{i + 1}p{k + 1}"
            duration = rng.randint(1, 3)
            timing[name] = (clock, clock + duration)
            clock += duration
            procs.append(name)
        sites.append(Site(f"s{i + 1}", tuple(procs)))
    everyone = [(i, p) for i, site in enumerate(sites) for p in site.processes]
    candidates = [
        (a, b)
        for i, a in everyone
        for j, b in everyone
        if i != j and timing[a][1] < timing[b][0]
    ]
    if n_messages > len(candidates):
        raise MessageBudgetError(n_messages, len(candidates))
    messages = tuple(Message(a, b) for a, b in rng.sample(candidates, n_messages))
    return Trace(tuple(sites), messages, timing)


def barrier_trace(n_sites, rounds):
    """An untimed trace of ``n_sites`` sites with one process per round each,
    ``s<i>r<r>``; every process of round r sends to every other site's
    process of round r + 1."""
    sites = tuple(Site(f"s{i}", tuple(f"s{i}r{r}" for r in range(rounds))) for i in range(n_sites))
    messages = tuple(
        Message(f"s{i}r{r}", f"s{j}r{r + 1}")
        for r in range(rounds - 1)
        for i in range(n_sites)
        for j in range(n_sites)
        if i != j
    )
    return Trace(sites, messages)


def untimed_trace(seed, n_sites, procs_per_site, n_messages):
    """An untimed trace whose up to ``n_messages`` messages go forward in one
    random interleaving of the sites, so they are acyclic.  Unlike
    ``gen_random``'s they need fit no tiling by times: a process may send to
    another site and hear back before its own successor starts."""
    rng = random.Random(seed)
    sites = tuple(Site(f"s{i}", tuple(f"s{i}p{k}" for k in range(procs_per_site))) for i in range(n_sites))
    slots = [i for i in range(n_sites) for _ in range(procs_per_site)]
    rng.shuffle(slots)
    order = [(i, f"s{i}p{slots[:x].count(i)}") for x, i in enumerate(slots)]
    pairs = [(a, b) for x, (i, a) in enumerate(order) for j, b in order[x + 1:] if i != j]
    messages = rng.sample(pairs, min(n_messages, len(pairs)))
    return Trace(sites, tuple(Message(a, b) for a, b in messages))


def block_lattice(blocks):
    """The closed sets and cover pairs, as name sets, of a trace whose
    processes are each concurrent with exactly the other processes of their
    block and related to every process outside it, so that a neighbourhood
    is the complement of a block.  The closed sets are then the 2^len(blocks)
    unions of blocks, a Boolean algebra, and its covers add one block to a
    union that lacks it."""
    unions = {
        chosen: frozenset().union(*(block for b, block in enumerate(blocks) if chosen >> b & 1))
        for chosen in range(1 << len(blocks))
    }
    covers = {
        (unions[chosen], unions[chosen | 1 << b])
        for chosen in unions
        for b in range(len(blocks))
        if not chosen >> b & 1
    }
    return set(unions.values()), covers


def barrier_lattice(n_sites, rounds):
    """``block_lattice`` of ``barrier_trace`` with at least two sites: the
    blocks are the rounds."""
    return block_lattice([frozenset(f"s{i}r{r}" for i in range(n_sites)) for r in range(rounds)])


_TOKEN = re.compile(
    r"(?P<number>[+-]?\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>->|\.\.|[:=])"
)


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(line):
        ch = line[pos]
        if ch in " \t":
            pos += 1
            continue
        match = _TOKEN.match(line, pos)
        if match is None:
            raise TraceParseError(f"unexpected character {ch!r}", lineno, pos + 1)
        tokens.append((match.lastgroup or "", match.group(), pos + 1))
        pos = match.end()
    return tokens


class _LineReader:
    """Cursor over one line's tokens with uniform error reporting."""

    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def _fail(self, expected: str):
        if self.pos < len(self.tokens):
            _, value, col = self.tokens[self.pos]
            raise TraceParseError(f"expected {expected}, found {value!r}", self.lineno, col)
        col = self.tokens[-1][2] if self.tokens else 1
        raise TraceParseError(f"expected {expected} at end of line", self.lineno, col)

    def take(self, kind: str, expected: str, literal: str | None = None) -> tuple[str, int]:
        if self.pos < len(self.tokens):
            tok_kind, value, col = self.tokens[self.pos]
            if tok_kind == kind and (literal is None or value == literal):
                self.pos += 1
                return value, col
        self._fail(expected)
        raise AssertionError("unreachable")

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def expect_end(self):
        if not self.done():
            _, value, col = self.tokens[self.pos]
            raise TraceParseError(f"unexpected trailing token {value!r}", self.lineno, col)


def parse_trace(text: str) -> Trace:
    """Parse a trace document.  Raises TraceParseError on syntax errors,
    duplicate or unknown names, intra-site messages and partial timing."""
    sites: list[Site] = []
    site_names: set[str] = set()
    site_of: dict[str, int] = {}
    messages: list[Message] = []
    timing: dict[str, tuple[Fraction, Fraction]] = {}
    past_sites = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw.split("#", 1)[0], lineno)
        if not tokens:
            continue
        reader = _LineReader(tokens, lineno)
        keyword, col = reader.take("name", "'site', 'msg' or 'time'")
        if keyword == "site":
            if past_sites:
                raise TraceParseError("site lines must precede msg/time lines", lineno, col)
            site_name, name_col = reader.take("name", "site name")
            if site_name in site_names:
                raise TraceParseError(f"duplicate site name {site_name!r}", lineno, name_col)
            site_names.add(site_name)
            reader.take("punct", "':'", ":")
            procs: list[str] = []
            while not reader.done():
                proc_name, proc_col = reader.take("name", "process name")
                if proc_name in site_of:
                    raise TraceParseError(f"duplicate process name {proc_name!r}", lineno, proc_col)
                site_of[proc_name] = len(sites)
                procs.append(proc_name)
            if not procs:
                raise TraceParseError(f"site {site_name!r} has no processes", lineno, col)
            sites.append(Site(site_name, tuple(procs)))
        elif keyword == "msg":
            past_sites = True
            sender = _resolve(reader, site_of, "sender process name")
            reader.take("punct", "'->'", "->")
            receiver = _resolve(reader, site_of, "receiver process name")
            reader.expect_end()
            if site_of[sender] == site_of[receiver]:
                raise TraceParseError(f"intra-site message {sender} -> {receiver}", lineno, col)
            messages.append(Message(sender, receiver))
        elif keyword == "time":
            past_sites = True
            name = _resolve(reader, site_of, "process name")
            reader.take("punct", "'='", "=")
            start_text, _ = reader.take("number", "start time")
            reader.take("punct", "'..'", "..")
            end_text, _ = reader.take("number", "end time")
            reader.expect_end()
            if name in timing:
                raise TraceParseError(f"duplicate time entry for {name!r}", lineno, col)
            timing[name] = (Fraction(start_text), Fraction(end_text))
        else:
            raise TraceParseError(
                f"expected 'site', 'msg' or 'time', found {keyword!r}", lineno, col
            )

    if not sites:
        raise TraceParseError("empty trace: no site lines")
    if timing:
        for name in site_of:
            if name not in timing:
                raise TraceParseError(f"partial timing: no entry for {name!r}")
    return Trace(tuple(sites), tuple(messages), timing or None)


def _resolve(reader: _LineReader, site_of: dict[str, int], expected: str) -> str:
    name, col = reader.take("name", expected)
    if name not in site_of:
        raise TraceParseError(f"unknown process {name!r}", reader.lineno, col)
    return name


def timing_problems(trace: Trace) -> list[str]:
    """validate's timing entries: durations, tiling, message order."""
    if trace.timing is None:
        return []
    problems: list[str] = []
    timing = trace.timing
    for site in trace.sites:
        for name in site.processes:
            start, end = timing[name]
            if end <= start:
                problems.append(f"process {name} has non-positive duration")
        for a, b in zip(site.processes, site.processes[1:]):
            end_a = timing[a][1]
            start_b = timing[b][0]
            if end_a < start_b:
                problems.append(f"gap at site {site.name} between {a} and {b}")
            elif end_a > start_b:
                problems.append(f"overlap at site {site.name} between {a} and {b}")
    for message in trace.messages:
        s, r = message.sender, message.receiver
        if timing[s][1] >= timing[r][0]:
            problems.append(
                f"message {s} -> {r} is not causally timed "
                f"(sender ends at {timing[s][1]}, receiver starts at {timing[r][0]})"
            )
    return problems


def twins_trace(k, m):
    """An untimed trace of one site ``t`` running ``t1`` .. ``t<k>`` and ``m``
    one-process sites ``u1`` .. ``u<m>``, each receiving from ``t<k>``.  The
    ``u`` processes are twins: each is related to exactly the ``t`` processes,
    so they share one causality neighbourhood."""
    sites = (Site("t", tuple(f"t{i}" for i in range(1, k + 1))),) + tuple(
        Site(f"u{j}", (f"u{j}",)) for j in range(1, m + 1)
    )
    messages = tuple(Message(f"t{k}", f"u{j}") for j in range(1, m + 1))
    return Trace(sites, messages)


def twins_lattice(k, m):
    """``block_lattice`` of ``twins_trace`` with m >= 1: each ``t`` process
    is related to every other process, and the ``u`` processes only to the
    ``t`` ones, so the blocks are each ``t<i>`` alone and all the ``u``s."""
    blocks = [frozenset({f"t{i}"}) for i in range(1, k + 1)]
    return block_lattice(blocks + [frozenset(f"u{j}" for j in range(1, m + 1))])
