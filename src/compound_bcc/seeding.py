"""numpy's seeding of a PCG64 generator by a SeedSequence, replayed for
many seeds at once.

default_rng(SeedSequence(seed, spawn_key=(attempt,))) hashes the entropy
words of (seed, attempt) into a pool of 4 uint32 words (mix_entropy),
hashes the pool into 4 uint64 words (generate_state) and seeds PCG64 from
them (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", HMC-CS-2014-0905).
seed_states takes the first two steps for many seeds in uint32 array
arithmetic, and replay_draws the last, setting one generator to each
seed's state in turn, so that its draws equal default_rng's bit for bit.
channel imports this module only when it replays a draw, so a process
that replays none does not compile it.
"""

import numpy as np

_M32 = 0xFFFFFFFF


def _hash_steps(hash_const, mult, n):
    """(xor, multiplier) of n successive hash steps of SeedSequence, whose
    hash constant starts at ``hash_const`` and is multiplied by ``mult`` at
    every step: each step takes v to v' = (v ^ xor) * multiplier mod 2^32,
    then v' ^ (v' >> 16). The constants depend on the step's position alone."""
    steps = []
    for _ in range(n):
        steps.append((hash_const, hash_const * mult & _M32))
        hash_const = hash_const * mult & _M32
    return steps


# mix_entropy's 20 hashmix steps, over a pool of 4 words: one per entropy
# word, 3 per pool word mixed into the others, then one per pool word for
# the spawn key word. generate_state's 8 steps, one per output word.
_MIX_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 20)
_OUT_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
# mix(x, y) = r ^ (r >> 16), r = MIX_X * x - MIX_Y * y mod 2^32
_MIX_X, _MIX_Y = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _step_columns(steps):
    """The xors and multipliers of ``steps`` as uint32 columns, one row each."""
    return tuple(np.array(c, dtype=np.uint32)[:, None] for c in zip(*steps))


_ENTROPY_HASH = _step_columns(_MIX_STEPS[:4])
# (src, the other pool words, their hash steps of pool word src)
_POOL_HASH = [
    (src, np.array([d for d in range(4) if d != src]), _step_columns(_MIX_STEPS[4 + 3 * src:][:3]))
    for src in range(4)
]
_SPAWN_HASH = _step_columns(_MIX_STEPS[16:])
_OUT_HASH = _step_columns(_OUT_STEPS)
_OUT_POOL = np.arange(8) % 4


def _hash(v, step):
    """The hash steps of uint32 columns ``step`` on uint32 array v, one row each."""
    v = (v ^ step[0]) * step[1]
    return v ^ (v >> 16)


def _mix(x, y):
    r = _MIX_X * x - _MIX_Y * y
    return r ^ (r >> 16)


def seed_states(seeds, attempt):
    """SeedSequence(seed, spawn_key=(attempt,)).generate_state(4, np.uint64)
    of each seed, as rows of a (T, 4) uint64 array, for seeds < 2^128 and
    attempt < 2^32.

    Such a sequence's entropy is 5 uint32 words: the seed's 4 little-endian
    words (zero-padded, as a spawn key asks), then the attempt. Each step
    of mix_entropy and generate_state is one array operation over the seeds.
    """
    words = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in seeds), dtype="<u4")
    pool = _hash(words.reshape(-1, 4).T, _ENTROPY_HASH)
    for src, dst, step in _POOL_HASH:
        pool[dst] = _mix(pool[dst], _hash(pool[src], step))
    pool = _mix(pool, _hash(np.full((4, 1), attempt, dtype=np.uint32), _SPAWN_HASH))
    out = _hash(pool[_OUT_POOL], _OUT_HASH)
    return np.ascontiguousarray(out.T).view("<u8")


def replay_draws(z, seeds, attempt):
    """Fill row i of z as default_rng(SeedSequence(seeds[i],
    spawn_key=(attempt,))).standard_normal(out=z[i]) does, for every seed
    below 2^128, at an attempt below 2^32; the rows of larger seeds are left
    as they are.

    PCG64 seeds itself from generate_state(4, np.uint64) = (w0, w1, w2,
    w3): inc = ((w2 << 64 | w3) << 1) | 1, state = ((inc + (w0 << 64 |
    w1)) * MULT + inc) mod 2^128. One generator, made here so that the
    call stays re-entrant, is set to that state for each row.
    """
    short = [i for i, s in enumerate(seeds) if not s >> 128]
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    words = seed_states([seeds[i] for i in short], attempt).tolist()
    for i, (w0, w1, w2, w3) in zip(short, words):
        inc = (w2 << 65 | w3 << 1 | 1) & _M128
        state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=z[i])
