"""Root combinatorics for the star-shaped generalized Cartan matrix.

The matrix has size (r+1) x (r+1), with 2 on the diagonal and -1 joining
node r+1 to each of the nodes 1..r.  Roots are integer coefficient vectors
(k_1, ..., k_{r+1}); real roots are exactly the orbit of the last simple
root under the fundamental reflections, which is how enumeration and the
realness certificate work here (no bilinear form needed).

Words are tuples of generator indices in 1..r+1 read left-to-right as a
product of reflections; acting with a word applies its rightmost letter
first, so word(alpha) composes like the group element it spells.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Root",
    "reflect",
    "simple_root",
    "positive_real_roots_at_level",
    "positive_real_roots_up_to_height",
    "reduction_word",
    "inversion_roots",
    "is_reduced",
]

#: Most roots one enumeration may collect; level one alone has 2^r roots.
ROOT_BUDGET = 10_000


@dataclass(frozen=True)
class Root:
    """Element of the root lattice; k[-1] is the level coefficient."""

    k: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.k) - 1

    @property
    def height(self) -> int:
        return sum(self.k)

    @property
    def level(self) -> int:
        return self.k[-1]

    @property
    def is_positive(self) -> bool:
        return any(self.k) and all(v >= 0 for v in self.k)


def simple_root(i: int, r: int) -> Root:
    k = [0] * (r + 1)
    k[i - 1] = 1
    return Root(tuple(k))


def reflect(i: int, alpha: Root) -> Root:
    """Fundamental reflection w_i acting on a lattice element (i is 1-based)."""
    r = alpha.rank
    if not 1 <= i <= r + 1:
        raise ValueError(f"reflection index {i} out of range 1..{r + 1}")
    k = list(alpha.k)
    if i <= r:
        k[i - 1] = k[r] - k[i - 1]
    else:
        k[r] = -k[r] + sum(k[:r])
    return Root(tuple(k))


def positive_real_roots_up_to_height(r: int, max_height: int,
                                     max_level: int | None = None) -> list[Root]:
    """All positive real roots with bounded height (and optionally level).

    Breadth-first closure of the reflection action starting from the last
    simple root.  Any positive real root admits a height-descending chain
    of reflections through positive roots reaching a simple root, and a
    descent step never raises the level, so the bounded search is complete.
    Raises ValueError once more than ROOT_BUDGET roots are found.
    """
    if r < 1:
        raise ValueError("rank parameter must be >= 1")
    start = simple_root(r + 1, r)
    seen = {start.k}
    frontier = [start]
    out = [start]
    while frontier:
        nxt = []
        for alpha in frontier:
            for i in range(1, r + 2):
                beta = reflect(i, alpha)
                if beta.k in seen or not beta.is_positive:
                    continue
                if beta.height > max_height:
                    continue
                if max_level is not None and beta.level > max_level:
                    continue
                seen.add(beta.k)
                nxt.append(beta)
                out.append(beta)
                if len(out) > ROOT_BUDGET:
                    raise ValueError(f"more than {ROOT_BUDGET} positive real "
                                     f"roots at r = {r}, height <= {max_height}")
        frontier = nxt
    out.sort(key=lambda a: (a.height, a.k))
    return out


def positive_real_roots_at_level(r: int, n: int) -> list[Root]:
    """The finite set of positive real roots with level coefficient n."""
    if n <= 0:
        raise ValueError("level must be positive")
    # every coefficient of a positive level-n real root is <= n
    roots = positive_real_roots_up_to_height(r, (r + 1) * n, max_level=n)
    return [a for a in roots if a.level == n]


def reduction_word(alpha: Root) -> tuple[int, ...]:
    """Reduced word sending alpha to the last simple root.

    Greedy height descent, ties broken toward the smallest generator
    index; simple roots other than the last take the two-step detour
    through level one.  The result is certified reduced via its inversion
    set before returning.  Levels above 2 are rejected: there the descent
    can end in a word that is not reduced.
    """
    r = alpha.rank
    if not alpha.is_positive:
        raise ValueError("expected a positive root")
    if alpha.level > 2:
        raise ValueError(f"reduction words are supported at levels 1 and 2, "
                         f"not level {alpha.level}")
    target = simple_root(r + 1, r)
    applied: list[int] = []  # letters in the order they act on alpha
    cur = alpha
    guard = 0
    while cur != target:
        guard += 1
        if guard > 10_000:
            raise ArithmeticError("descent did not terminate; input not a real root?")
        if cur.height == 1:
            # cur = alpha_i with i <= r: raise to alpha_i + alpha_{r+1}, then drop
            cur = reflect(r + 1, cur)
            applied.append(r + 1)
            continue
        step = None
        for i in range(1, r + 2):
            beta = reflect(i, cur)
            if beta.height < cur.height and beta.is_positive:
                step = i
                cur = beta
                break
        if step is None:
            raise ArithmeticError(f"no height descent from {cur}; not a real root?")
        applied.append(step)
    word = tuple(reversed(applied))
    if not is_reduced(word, r):
        raise ArithmeticError(f"descent produced a non-reduced word {word}")
    return word


def inversion_roots(word: tuple[int, ...], r: int) -> list[Root]:
    """Positive roots sent negative by the word, one per letter when reduced.

    For word (i_1, ..., i_l) these are w_{i_l}...w_{i_{k+1}}(alpha_{i_k}).
    """
    out = []
    for k in range(len(word)):
        beta = simple_root(word[k], r)
        for j in range(len(word) - 1, k, -1):
            beta = reflect(word[j], beta)
        out.append(beta)
    return out


def is_reduced(word: tuple[int, ...], r: int) -> bool:
    inv = inversion_roots(word, r)
    if any(not b.is_positive for b in inv):
        return False
    return len({b.k for b in inv}) == len(word)
