"""Conditional bisimilarity by partition refinement.

One engine serves ``bisim``, ``check`` and ``minimise``: signature
refinement of (state, condition) pairs over the upgrade coalgebra
(``_rounds``).  Round k + 1 splits the pairs by S_k(x, phi), the set of
(action, version chi, round-k block of (y, chi)) over the moves of
(x, phi).  The coalgebra is never tabulated: the engine reads a
compressed graph of pairs straight from the rows of the ``Cts``, each
state's edges by action and successor index (``_pair_graph``), as far
as the query reaches, and signs each pair by a key that is canonical
for S_k without listing it.

The compression is the version-filter law: the moves of (x, chi) are
those of (x, phi) that enter at versions <= chi.  Let V(x, phi), a
downset below phi, be the versions that the moves of (x, phi) enter at.

- An *own* pair, with phi in V(x, phi), has as S_k its own-version
  moves together with S_k(x, c) for the lower covers c of phi.  Its key
  is those moves over round-k ids and the covers' round-(k + 1) ids.
- Any other pair has as S_k the union of S_k(x, mu) over the maxima mu
  of V(x, phi), all own pairs.  With none its S_k is empty; with one, an
  *alias*, the pair shares the block of (x, mu) and is never signed;
  with several, a *join*, its key is their round-(k + 1) ids.

The keys are canonical across conditions.  An own pair's S_k has the
single maximal version phi and a join's the maxima it points at, and
equal S_k give equal round-k blocks, so equal S_k put two pairs on one
level: the own pairs of one condition, or the joins of one maxima set.
On a level a key reads S_k exactly, since S_k(x, c) is the filter of
S_k(x, phi) to versions <= c and the round-(k + 1) id of (x, c) stands
for it.  So round k + 1 signs the levels bottom-up over a linear
extension of the conditions, then the joins.  From round one on every
block lies on one level, with the aliases of its own pairs, or holds
the pairs without moves, and it splits as soon as its level is signed.
Only the pairs whose inputs moved are signed, with one representative
of each block they touch; a block of one pair cannot split, unsigned.

``refine`` is the one pass over every pair: it hands ``minimise`` each
round's moved pairs with their new block ids, which is all that changes
from one round to the next.  The lattice fixpoint's iteration count,
the first round whose kernel matrix repeats, follows from round one
alone: it is 0 when round one splits no condition's states, and the
partition's stage otherwise (the proof is ``refine``'s).  Its final
blocks are conditional bisimilarity: ``kernel_cells`` reads them as the
cells of their kernel, the states whose pairs at one condition share a
block, and the ``bisim`` report is written from those cells.
``bisimilar`` answers one query by building and refining only the pairs
reachable from the two queried pairs, and stops at the first round that
separates them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import chain
from operator import or_

from .models import Cts, NotDownwardClosed
from .order import UnknownElement, bits

PairKey = tuple[str, str]
Partition = tuple[tuple[PairKey, ...], ...]


class PairGraph(namedtuple("PairGraph", "pairs links levels width")):
    """The (state, condition) pairs, by name, that a system's upgrade
    coalgebra reaches from some pair codes, compressed by the
    version-filter law, and each pair's links as (pair number, label).
    A label below ``width``, which is ``|actions| * |conditions|``, is
    an own move: under action ``label // |conditions|`` to a successor
    at the pair's own condition, whose index is ``label % |conditions|``.
    A label ``width + c`` links the pair to its lower pair of the same
    state at the condition of index c.  An own pair (x, phi), one that
    some edge from x holds phi for, has its own moves and then its
    covers (x, c), for the lower covers c of phi.  Every other pair has
    only lower links, to the own pairs (x, mu) for the maximal versions
    mu that its moves enter at: none, one (an alias) or several (a
    join).  ``levels`` lists the pairs that the engine signs in the
    order it signs them: the own pairs of each condition, conditions
    bottom-up in a linear extension, and then every join."""

    __slots__ = ()


def _pair_graph(m: Cts, roots: Iterable[int]) -> PairGraph:
    """The compressed pair graph of ``m`` reachable from the roots, read
    off the system directly.  Pairs are numbered breadth-first with the
    roots first in their given order; an own pair's successors come in
    (action, state) order and then its covers, and every list of lower
    links in condition order.  Every pair reached from a root lies at or
    below that root's condition.  The pairs reached are closed under the
    coalgebra's moves: a move of (x, phi) at chi is an own move of
    (x, chi), which a chain of covers, or a maximum and then covers,
    reaches.

    The roots are pair codes, ``state index * |conditions| + condition
    index``, and the walk numbers pairs through a list indexed by code;
    when the roots are every code in order, as ``refine`` passes them, a
    pair's number is its code.  Each pair walks its state's entry of
    ``m.rows``, whose action and successor indices give its own moves'
    labels and pair codes directly, and each label is a mask that holds
    condition k as bit k.  The versions the state's edges hold, the OR
    of its masks, are read once per walk, when a pair of it without own
    moves first needs them."""
    poset = m.conditions
    conditions = poset.elements
    height = len(conditions)
    width = len(m.actions) * height
    down = poset.down
    covers = [list(bits(mask)) for mask in poset.lower]  # in condition order
    # a smaller downset first is a linear extension, bottom-up
    order = sorted(range(height), key=lambda k: down[k].bit_count())
    rank = {k: r for r, k in enumerate(order)}
    rows, number = m.rows, [-1] * (len(m.states) * height)
    found: list[int] = []
    for g in roots:
        if number[g] < 0:
            number[g] = len(found)
            found.append(g)
    held: dict[int, int] = {}  # the mask of the versions some edge from a state holds
    links: list[list[tuple[int, int]]] = []
    levels: list[list[int]] = [[] for _ in range(height + 1)]
    for i, g in enumerate(found):  # grows while it is walked
        s, k = divmod(g, height)
        base, link = g - k, []
        for a, y, label in rows[s]:
            if label >> k & 1:
                succ = y * height + k
                j = number[succ]
                if j < 0:
                    j = number[succ] = len(found)
                    found.append(succ)
                link.append((j, a * height + k))
        if link:
            below = covers[k]
            levels[rank[k]].append(i)
        else:
            if s not in held:
                held[s] = reduce(or_, [label for _, _, label in rows[s]], 0)
            # what lies below an entered version is no maximum, nor needs a look
            entered = rest = held[s] & down[k]
            while rest:
                mu = rest.bit_length() - 1
                entered &= ~down[mu] | 1 << mu
                rest &= ~down[mu]
            below = list(bits(entered))
            if len(below) > 1:
                levels[height].append(i)
        for c in below:
            j = number[base + c]
            if j < 0:
                j = number[base + c] = len(found)
                found.append(base + c)
            link.append((j, width + c))
        links.append(link)
    pairs = [(m.states[g // height], conditions[g % height]) for g in found]
    return PairGraph(pairs, links, levels, width)


class Round(namedtuple("Round", "block moved signed blocks")):
    """One round of ``_rounds``.  ``block`` gives every pair's block id
    after the round; the engine updates that list in place, so it is
    valid only until the generator resumes.  ``moved`` lists (pair,
    block id after the round) for the pairs whose id changed in it,
    ``signed`` counts the signatures computed in it and ``blocks`` is
    the number of blocks."""

    __slots__ = ()


def _rounds(graph: PairGraph) -> Iterator[Round]:
    """The rounds of signature refinement over a compressed pair graph.
    Round zero has a single block, and round k + 1 splits the pairs by
    the keys of the module docstring; the generator stops after the
    first round in which no block splits.

    Within a block a pair's key is the set of ``block * span + label``
    over its links, own moves at round-k ids and lower links at
    round-(k + 1) ids.  Round one signs every own pair and join and one
    representative of the pairs without moves; as every round-zero id is
    0, a lower pair is read there by the first pair signed with its key,
    and block 0 splits once all are signed.  A later round signs, level
    by level, the dirty pairs, whose own-move successor moved in the
    round before or whose lower pair moved earlier in this one, with one
    representative of the untouched members of each block they touch,
    and splits those blocks before the next level reads them.  Untouched
    members shared a key in the previous round and their inputs kept
    their ids, so they still agree.  A touched block of a single pair is
    skipped: a lone pair cannot split, and aliases are no members.  An
    alias follows its maximum at the end of the round: only own moves,
    at round-k ids, read it.  A block that splits keeps its id for its
    largest part, untouched members counted, so a pair moves at most
    log2(pairs) times after round one (Hopcroft's rule, applied round by
    round)."""
    links, levels, width = graph.links, graph.levels, graph.width
    size = len(links)
    span = width + len(levels) - 1  # the number of labels
    preds: list[list[int]] = [[] for _ in links]  # own pairs moving to a pair
    uppers: list[list[int]] = [[] for _ in links]  # signed pairs linking down to it
    level = [-1] * size
    for r, signed in enumerate(levels):
        for i in signed:
            level[i] = r
            for j, label in links[i]:
                (preds if label < width else uppers)[j].append(i)
    # an alias is never signed and follows the pair it links to
    aliases: dict[int, list[int]] = {}
    for i in set(range(size)).difference(*levels):
        if links[i]:
            aliases.setdefault(links[i][0][0], []).append(i)
    block = [0] * size
    members = [set(range(size)).difference(*aliases.values())] if size else []

    def split(b: int, parts: list[list[int]], dirty: set[int], rest: int) -> list[int]:
        """Split block b into its parts of equal key, where the part that
        ends with the representative of b's ``rest`` untouched members
        stands for them all: the largest keeps the id, each other part
        takes a fresh one.  The pairs that moved, aliases aside, each
        with its new id."""
        sizes = [len(part) if part[-1] in dirty else len(part) + rest - 1 for part in parts]
        largest = parts[sizes.index(max(sizes))]
        moved: list[tuple[int, int]] = []
        for part in parts:
            if part is largest:
                continue
            if part[-1] in dirty:
                part = set(part)
            else:
                part = members[b].difference(dirty).union(part)
            members[b] -= part
            new = len(members)
            members.append(part)
            for i in part:
                block[i] = new
                moved.append((i, new))
        return moved

    yield Round(block, [], 0, len(members))
    # round one, against the single block of round zero
    batch = list(chain.from_iterable(levels))
    dirty = set(batch)
    rest = len(members[0]) - len(dirty) if dirty else 0
    if rest:
        batch.append(min(members[0] - dirty))
    name = [0] * size  # the first pair signed with the same key
    parts: dict[frozenset[int], list[int]] = {}
    for i in batch:
        key = frozenset(
            [label if label < width else name[j] * span + label for j, label in links[i]]
        )
        part = parts.setdefault(key, [])
        part.append(i)
        name[i] = part[0]
    moved = split(0, list(parts.values()), dirty, rest) if len(parts) > 1 else []
    signed = len(batch)
    while True:
        # the next round's dirty pairs, by level: the own pairs moving to
        # a moved pair, all at its condition
        pending: dict[int, set[int]] = {}
        for j, b in moved:  # grows by the aliases of the pairs that moved
            if j in aliases:
                for i in aliases[j]:
                    block[i] = b
                    moved.append((i, b))
            if preds[j]:
                pending.setdefault(level[preds[j][0]], set()).update(preds[j])
        yield Round(block, moved, signed, len(members))
        if not moved:
            return
        moved, signed = [], 0
        while pending:
            dirty = pending.pop(min(pending))
            touched: dict[int, list[int]] = {}
            for i in dirty:
                touched.setdefault(block[i], []).append(i)
            # the level's own moves read round-k ids, so its blocks split
            # once it is signed
            splits: list[tuple[int, list[list[int]], int]] = []
            for b, group in touched.items():
                if len(members[b]) == 1:
                    continue
                # one representative of the untouched members signs for
                # them all, last
                rest = len(members[b]) - len(group)
                if rest:
                    for i in members[b]:
                        if i not in dirty:
                            group.append(i)
                            break
                signed += len(group)
                parts = {}
                for i in group:
                    key = frozenset([block[j] * span + label for j, label in links[i]])
                    parts.setdefault(key, []).append(i)
                if len(parts) > 1:
                    splits.append((b, list(parts.values()), rest))
            for b, found, rest in splits:
                for j, new in split(b, found, dirty, rest):
                    moved.append((j, new))
                    for i in uppers[j]:
                        pending.setdefault(level[i], set()).add(i)


def move_images(graph: PairGraph, block: list[int]) -> list[frozenset[int]]:
    """Each pair's moves into the blocks of a partition, a move into
    block k with label l as the single int ``k * width + l``: its own
    moves together with those of its lower pairs, by the version-filter
    law.  Lower pairs are own pairs, so the own pairs are expanded
    bottom-up and every other pair after them."""
    links, width = graph.links, graph.width
    image: list[frozenset[int]] = [frozenset()] * len(block)
    own = list(chain.from_iterable(graph.levels[:-1]))
    for i in chain(own, set(range(len(block))).difference(own)):
        image[i] = frozenset(
            [block[j] * width + label for j, label in links[i] if label < width]
        ).union(*[image[j] for j, label in links[i] if label >= width])
    return image


Moves = list[list[tuple[int, int]]]


def refine(m: Cts) -> tuple[PairGraph, Moves, list[int], int]:
    """Signature refinement of all (state, condition) pairs: the pair
    graph, every round's moved pairs as (pair, new block id) up to and
    including the first round that moves none, every pair's final block
    id, and the index of the first repeated kernel matrix.  Round zero
    puts every pair in block 0 and moves none.  The graph's roots are
    every pair code in order, so pair i is the pair of code i and lies
    at condition i % |conditions|.  A pair moves at most log2(pairs)
    times, so the rounds hand over O(P log P) entries for P pairs rather
    than P ids per round.

    Every round is the partition that re-signing every pair by its full
    S_k would give: the engine's keys are canonical for S_k (see the
    module docstring).  An own pair's S_k has the single maximal version
    phi, and a join's the maxima it points at, so equal S_k put two
    pairs on one level, where the key reads S_k exactly: the own-version
    part directly, and the rest as the round-(k + 1) ids of the covers or
    maxima, whose blocks are the kernel of their S_k.  Conversely equal
    keys give equal S_k, and an alias's S_k is its maximum's.

    The kernel matrix of a round is its set of per-condition state
    partitions.  It first repeats at round 0 if round one leaves every
    condition's states in one block, and otherwise where the partition
    first repeats, at ``len(rounds) - 2``.  Proof:

    - Pairs sharing a block at round k share one at each condition below
      both (induction on k): upgrades only filter signatures, as the
      moves of (x, chi) are those of (x, phi) entering at versions <= chi.
    - Let the matrix repeat at round k >= 1 and (x, phi), (y, psi) share
      a block at round k.  A move of the first under a at version chi
      into round-k block B has a partner in their equal round-k
      signatures, so chi is below phi and psi.  So (x, chi) and (y, chi)
      share a block at round k, hence at k + 1; (x, chi) has the move
      (a, chi, B), so (y, chi) and (y, psi) have it.  By symmetry the
      partition repeats.
    - If round one splits no condition's states, each successor's
      round-one block depends on its condition alone, so round two
      splits nothing and the partition repeats from round one."""
    height = len(m.conditions.elements)
    graph = _pair_graph(m, range(len(m.states) * height))
    rounds: Moves = []
    for rnd in _rounds(graph):
        block = rnd.block
        if len(rounds) == 1:
            split = any(b != block[i % height] for i, b in enumerate(block))
        rounds.append(rnd.moved)
    return graph, rounds, block, len(rounds) - 2 if split else 0


def bisimilar(m: Cts, x: str, y: str, phi: str) -> bool:
    """Whether x and y are conditionally bisimilar under phi, reading the
    names in that order: the first unknown one raises ``UnknownElement``.
    The pairs reachable from (x, phi) and (y, phi) form a subcoalgebra,
    and the inclusion is a homomorphism, so ``refine``'s rounds
    restricted to them are the rounds of that part alone.  Only those
    pairs are visited and signed, and the answer is no at the first
    round that separates the two roots, since later rounds only refine."""
    try:
        i, j, k = m.index[x], m.index[y], m.conditions.index[phi]
    except KeyError as err:
        raise UnknownElement(err.args[0]) from None
    if i == j:
        return True
    graph = _pair_graph(m, [s * len(m.conditions.elements) + k for s in (i, j)])
    return all(rnd.block[0] == rnd.block[1] for rnd in _rounds(graph))


def kernel_cells(m: Cts, block: list[int]) -> list[list[int]]:
    """The same-condition kernel of a partition of every (state,
    condition) pair, as each pair's cell: the indices, in order, of the
    states whose pairs at its condition share its block, so x and y are
    related at phi when y lies in the cell of (x, phi).  ``block`` gives
    pair ``state index * |conditions| + condition index`` its block id,
    as ``refine`` numbers them.

    Every value must be downward closed.  That holds iff, for each cover
    p < q, the states of every cell at q share one block at p, since
    every p <= q is joined by a chain of covers; a partition that breaks
    it is corrupted and raises ``NotDownwardClosed``, naming the first
    two states of such a cell that part at p."""
    conditions = m.conditions.elements
    height = len(conditions)
    cells: list[dict[int, list[int]]] = [{} for _ in range(height)]
    for i, b in enumerate(block):
        cells[i % height].setdefault(b, []).append(i // height)
    # the covers by index, sorted as ``Poset.covers`` sorts their names
    for kp, kq in sorted((p, q) for q, mask in enumerate(m.conditions.lower) for p in bits(mask)):
        for cell in cells[kq].values():
            b = block[cell[0] * height + kp]
            for y in cell:
                if block[y * height + kp] != b:
                    x, y = m.states[cell[0]], m.states[y]
                    raise NotDownwardClosed(
                        f"kernel value at ({x},{y}) holds {conditions[kq]} but not {conditions[kp]}"
                    )
    return [cells[i % height][b] for i, b in enumerate(block)]
