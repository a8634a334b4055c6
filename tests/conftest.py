import types

import pytest

import ghacs.stats
from ghacs.core import MAX_BLOCK


@pytest.fixture
def factor_reads(monkeypatch):
    """Record what the term walk reads of ``core.factor_block``.

    ``blocks`` lists the block index of each lookup, in order; ``indices``
    lists each factor index j read out of a block, by a slice or by an
    index, once per read.  The values returned are unchanged.
    ``spanned(walk)`` gives the blocks that hold a walk's factors, each
    once per side: those of j = anchor, anchor - 1, ..., lo + 1 going down,
    then of j = anchor + 1, ..., hi going up.
    """
    reads = types.SimpleNamespace(blocks=[], indices=[], spanned=_spanned)
    lookup = ghacs.stats.factor_block

    class Block(tuple):
        def __getitem__(self, key):
            read = self.indices[key]
            reads.indices.extend(read if isinstance(key, slice) else (read,))
            return tuple.__getitem__(self, key)

    def recorded(b, params):
        reads.blocks.append(b)
        block = Block(lookup(b, params))
        block.indices = range(b * MAX_BLOCK + 1, (b + 1) * MAX_BLOCK + 1)
        return block

    monkeypatch.setattr(ghacs.stats, "factor_block", recorded)
    return reads


@pytest.fixture
def walks_made(monkeypatch):
    """Every ``LogTermWalk`` that ``stats`` makes, in the order it makes them."""
    walks, walk_class = [], ghacs.stats.LogTermWalk

    def recorded(*args):
        walks.append(walk_class(*args))
        return walks[-1]

    monkeypatch.setattr(ghacs.stats, "LogTermWalk", recorded)
    return walks


def _spanned(walk) -> list[int]:
    a = walk.anchor
    down = range((a - 1) // MAX_BLOCK, walk.lo // MAX_BLOCK - 1, -1) if walk.lo < a else ()
    up = range(a // MAX_BLOCK, (walk.hi - 1) // MAX_BLOCK + 1) if walk.hi > a else ()
    return [*down, *up]
