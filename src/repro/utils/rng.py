"""Random-number-generator management.

Every stochastic component in this library accepts either a seed (``int``),
an existing :class:`numpy.random.Generator`, or ``None``. The helpers here
normalize those inputs and support deterministic *spawning* of independent
child generators, which the experiment harness uses so that, for example,
the permutation stream of SGD and the noise stream of the privacy mechanism
never interact.

Determinism matters doubly here: the paper's sensitivity analysis
(Section 3.2) is stated *per randomness sequence* — the privacy proof
compares two runs that share the same permutation. Our property-based tests
rely on being able to replay exactly the same randomness against
neighbouring datasets, which these helpers make explicit.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

#: Anything accepted where a source of randomness is expected.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(random_state: RandomState = None) -> np.random.Generator:
    """Normalize ``random_state`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    random_state:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so that callers can share
        a stream deliberately).
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    return np.random.default_rng(random_state)


def spawn_generators(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    When ``random_state`` is an ``int`` or ``SeedSequence`` the children are
    reproducible. When it is an existing ``Generator`` we derive children
    from its bit stream (reproducible given the generator's state).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(random_state, np.random.Generator):
        seeds = random_state.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    if isinstance(random_state, np.random.SeedSequence):
        return [np.random.default_rng(s) for s in random_state.spawn(count)]
    seq = np.random.SeedSequence(random_state)
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def spawned_generator(seed: int, index: int) -> np.random.Generator:
    """Child ``index`` of ``spawn_generators(seed, count)`` (any ``count >
    index``), built alone.

    ``SeedSequence(seed).spawn(count)``'s child ``i`` is
    ``SeedSequence(seed, spawn_key=(i,))``, so one stream can be built
    without constructing the generators spawned before it.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def permutation_stream(
    size: int, passes: int, rng: np.random.Generator, fresh_each_pass: bool = False
) -> Iterator[np.ndarray]:
    """Yield one permutation of ``range(size)`` per pass.

    By default the classic PSGD behaviour is used: a single permutation is
    sampled once and reused for every pass. With ``fresh_each_pass=True`` a
    new permutation is drawn each pass — the paper notes (Section 3.2.3)
    that the sensitivity analysis extends verbatim to this variant.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if passes < 0:
        raise ValueError(f"passes must be non-negative, got {passes}")
    first = rng.permutation(size)
    for pass_index in range(passes):
        if fresh_each_pass and pass_index > 0:
            yield rng.permutation(size)
        else:
            yield first


def fixed_permutations(permutation: Sequence[int], passes: int) -> Iterator[np.ndarray]:
    """Replay a caller-supplied permutation for every pass.

    Used by the sensitivity verification tests, which must run PSGD on two
    neighbouring datasets with *identical* randomness.
    """
    arr = np.asarray(permutation, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("permutation must be one-dimensional")
    if sorted(arr.tolist()) != list(range(len(arr))):
        raise ValueError("permutation must be a rearrangement of range(n)")
    for _ in range(passes):
        yield arr
