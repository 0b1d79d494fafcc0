"""Eviction policies over cached token positions.

A policy is a nonempty set of atoms (special, punct, frequent, local,
full); a hybrid retains the union of its atoms' position sets. All
operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .tokens import TokenClass

# Guard against float products like 0.57*100 = 56.999999999999993 landing
# a hair above an exact integer and inflating the ceiling by one.
_BUDGET_EPS = 1e-9


class PolicyError(ValueError):
    """Raised on invalid policies, policy inputs, or policy strings."""


class PolicyAtom(Enum):
    SPECIAL = "special"
    PUNCTUATION = "punct"
    LOCAL = "local"
    FREQUENT = "frequent"
    FULL = "full"


# Atom order of the default nested family and of hybrid policy strings.
DEFAULT_FEASIBLE_ORDER = (
    PolicyAtom.SPECIAL,
    PolicyAtom.PUNCTUATION,
    PolicyAtom.FREQUENT,
    PolicyAtom.LOCAL,
)

DEFAULT_RATIO = 0.3
# The classes each static atom keeps; a row's class never changes.
_STATIC = {PolicyAtom.FULL: tuple(TokenClass), PolicyAtom.SPECIAL: (TokenClass.SPECIAL,),
           PolicyAtom.PUNCTUATION: (TokenClass.PUNCTUATION,)}


@dataclass(frozen=True)
class CompressionPolicy:
    """An atomic eviction rule or a hybrid union of atomics."""

    atoms: frozenset[PolicyAtom]
    r_l: float = DEFAULT_RATIO
    r_f: float = DEFAULT_RATIO

    def __post_init__(self):
        atoms = frozenset(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise PolicyError("policy needs at least one atom")
        if PolicyAtom.FULL in atoms and atoms != {PolicyAtom.FULL}:
            raise PolicyError("full cannot be combined with other atoms")
        for name, value in (("r_l", self.r_l), ("r_f", self.r_f)):
            if not 0.0 < value <= 1.0:
                raise PolicyError(f"{name} must be in (0, 1], got {value}")

    @property
    def is_full(self) -> bool:
        return PolicyAtom.FULL in self.atoms

    def __str__(self) -> str:
        return format_policy(self)


def full_policy() -> CompressionPolicy:
    return CompressionPolicy(frozenset({PolicyAtom.FULL}))


def format_policy(policy: CompressionPolicy) -> str:
    """Canonical string form, e.g. ``special+punct+frequent(r_f=0.3)``."""
    if policy.is_full:
        return "full"
    parts = []
    for atom in DEFAULT_FEASIBLE_ORDER:
        if atom not in policy.atoms:
            continue
        if atom is PolicyAtom.FREQUENT:
            parts.append(f"frequent(r_f={policy.r_f:g})")
        elif atom is PolicyAtom.LOCAL:
            parts.append(f"local(r_l={policy.r_l:g})")
        else:
            parts.append(atom.value)
    return "+".join(parts)


_ATOM_TOKEN = re.compile(r"^(?P<name>[a-z]+)(?:\((?P<param>[a-z_]+)=(?P<value>[^)]+)\))?$")


def parse_policy(text: str) -> CompressionPolicy:
    """Parse the canonical policy grammar; round-trips with format_policy."""
    atoms: set[PolicyAtom] = set()
    r_l = DEFAULT_RATIO
    r_f = DEFAULT_RATIO
    for token in text.strip().split("+"):
        m = _ATOM_TOKEN.match(token.strip())
        if not m:
            raise PolicyError(f"bad policy token {token!r}")
        name = m.group("name")
        try:
            atom = PolicyAtom(name)
        except ValueError:
            raise PolicyError(f"unknown policy atom {name!r}") from None
        atoms.add(atom)
        if m.group("param") is not None:
            param, raw = m.group("param"), m.group("value")
            try:
                value = float(raw)
            except ValueError:
                raise PolicyError(f"bad ratio {raw!r} in token {token!r}") from None
            if atom is PolicyAtom.FREQUENT and param == "r_f":
                r_f = value
            elif atom is PolicyAtom.LOCAL and param == "r_l":
                r_l = value
            else:
                raise PolicyError(f"parameter {param!r} not valid for atom {name!r}")
    return CompressionPolicy(frozenset(atoms), r_l=r_l, r_f=r_f)


def _budget(ratio: float, length: int) -> int:
    return max(1, math.ceil(ratio * length - _BUDGET_EPS))


def _kept_classes(policy: CompressionPolicy) -> np.ndarray:
    """Whether the policy's static atoms keep each class code."""
    kept = np.zeros(len(TokenClass), dtype=bool)
    kept[[klass for atom in policy.atoms for klass in _STATIC.get(atom, ())]] = True
    return kept


def retained_mask(
    policy: CompressionPolicy,
    live: np.ndarray,
    codes: np.ndarray,
    scores: np.ndarray | None,
    prompt_len: int,
    current_len: int,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean keep-mask over ``live``, the ascending candidate positions.

    ``codes`` holds the ``TokenClass`` code of each position. ``scores``
    (cumulative attention, needed only by the frequent atom) lie in slot
    order: ``scores[..., i]`` is that of candidate ``live[..., i]``.
    ``live`` may also be a ``(G, M)`` array of G heads' candidates: row g's
    first ``lengths[g]`` entries are its candidates, and the padding after
    them is never kept, whatever its score. Padding is still read and
    checked as positions, so it must lie below ``current_len``. Row g's
    mask is that of the one-row call on ``live[g, :lengths[g]]`` and
    ``scores[g, :lengths[g]]``; without ``lengths`` every entry is a
    candidate.
    """
    rows = live if live.ndim == 2 else live[None]
    width = rows.shape[1]
    last = rows.max() if rows.size else -1
    if last >= current_len:
        raise PolicyError(f"candidate position {last} >= current_len {current_len}")
    visible = None if lengths is None else np.arange(width) < lengths[:, None]
    atoms = policy.atoms
    keep = _kept_classes(policy)[codes[rows]]
    if PolicyAtom.LOCAL in atoms:
        keep |= rows >= current_len - _budget(policy.r_l, prompt_len)
    if PolicyAtom.FREQUENT in atoms and width:
        if np.shape(scores) != live.shape:
            raise PolicyError(f"scores shape {np.shape(scores)} is not {live.shape}")
        heads = np.arange(rows.shape[0])[:, None]
        key = -scores.reshape(rows.shape)
        if visible is not None:
            # Keyed 0, padding sorts after every candidate: candidates key
            # at most 0, and ties go to the lower column.
            key[~visible] = 0.0
        # max/min are NaN when any key is, and NaN fails both comparisons.
        if not (key.max() <= 0.0 and key.min() > -np.inf):
            raise PolicyError("cumulative_scores must be finite and >= 0")
        budget = _budget(policy.r_f, current_len)
        if budget >= width:
            keep[:] = True
        else:
            # Stable sort on descending score keeps ties in ascending order.
            keep[heads, np.argsort(key, axis=1, kind="stable")[:, :budget]] = True
    if visible is not None:
        keep &= visible
    return keep if live.ndim == 2 else keep[0]


def retained_indices(
    policy: CompressionPolicy, codes: np.ndarray, scores: np.ndarray, prompt_len: int
) -> np.ndarray:
    """Ascending positions below ``len(scores)`` the policy keeps: one
    ``retained_mask`` call over them all, as decode makes it. ``codes`` and
    ``scores`` are read, never copied or written."""
    live = np.arange(len(scores))
    if np.shape(codes) != live.shape:
        raise PolicyError(f"codes has shape {np.shape(codes)}, expected {live.shape}")
    if not 1 <= prompt_len <= live.size:
        raise PolicyError(f"prompt_len {prompt_len} outside 1..{live.size}")
    return live[retained_mask(policy, live, codes, scores, prompt_len, live.size)]


def newest_kept(policy: CompressionPolicy) -> np.ndarray:
    """Whether the policy keeps the newest row of each class code whatever
    the scores: the classes of its static atoms, and every class under
    ``local``, whose window always holds the newest row."""
    return _kept_classes(policy) | (PolicyAtom.LOCAL in policy.atoms)


def appended_counts(
    policy: CompressionPolicy, newest: np.ndarray, n: np.ndarray, longest: int,
    code: int, current_len: int,
) -> np.ndarray | None:
    """Each head's retained count once a row of class ``code`` joins at
    position ``current_len - 1``, if none of its ``n`` older rows (at most
    ``longest``), which the policy kept a step before, can leave; else None.

    None can leave if every atom is static, since a row's class never
    changes, or if the frequent budget covers every older row: the incoming
    row, scored 0 in the last slot, ranks last. ``newest`` is
    ``newest_kept(policy)``.
    """
    atoms = policy.atoms
    budget = _budget(policy.r_f, current_len) if PolicyAtom.FREQUENT in atoms else -1
    if atoms <= _STATIC.keys() or budget >= longest:
        return n + ((n < budget) | newest[code])
    return None


def feasible_set(
    r_l: float = DEFAULT_RATIO,
    r_f: float = DEFAULT_RATIO,
    atom_order: Sequence[PolicyAtom] = DEFAULT_FEASIBLE_ORDER,
    drop: Iterable[PolicyAtom] = (),
) -> list[CompressionPolicy]:
    """Greedily nested hybrid family, ending in the full-cache policy.

    ``atom_order`` permutes which atom joins at each stage (policy-order
    ablations); ``drop`` removes atoms entirely (policy-removal ablations).
    """
    dropped = set(drop)
    order = [a for a in atom_order if a not in dropped]
    if PolicyAtom.FULL in order or PolicyAtom.FULL in dropped:
        raise PolicyError("full is the family backstop; it cannot be ordered or dropped")
    if len(set(order)) != len(order):
        raise PolicyError("atom_order has duplicates")
    if not order:
        raise PolicyError("feasible family needs at least one atom besides full")
    family: list[CompressionPolicy] = []
    atoms: set[PolicyAtom] = set()
    for atom in order:
        atoms.add(atom)
        family.append(CompressionPolicy(frozenset(atoms), r_l=r_l, r_f=r_f))
    family.append(full_policy())
    return family


def update_cumulative_scores(
    scores: np.ndarray,
    new_attention_row: Sequence[float] | np.ndarray,
    retained: np.ndarray,
) -> np.ndarray:
    """Fold one decoding step's attention row into the frequency signal.

    ``scores`` holds one cumulative score per cached position and
    ``retained`` the distinct positions the row attended, ascending.
    Returns new scores: retained positions accumulate their new scores;
    evicted positions stay frozen at their last value (they cannot
    re-enter unless another atom re-retains them); one zero-initialized
    slot is appended for the token whose row was just cached.
    """
    row = np.asarray(new_attention_row, dtype=np.float64)
    if row.shape != (retained.size,):
        raise PolicyError(
            f"attention row has length {row.shape}, expected {retained.size} "
            "(one score per retained position)"
        )
    if retained.size and not 0 <= retained[0] <= retained[-1] < scores.size:
        raise PolicyError(
            f"retained positions {retained[0]}..{retained[-1]} outside "
            f"[0, {scores.size})"
        )
    scores = np.append(scores, 0.0)
    scores[retained] += row
    return scores
