"""Random linear coding over GF(256): coefficient draws, rank tracking, block decoding.

Field: GF(2^8) under the reduction polynomial x^8 + x^4 + x^3 + x^2 + 1
(0x11D).  All arithmetic goes through a precomputed 256x256 product table
and the inverse table read off it, so combining and eliminating work on
whole byte vectors at once.

A coded packet is one row of K coefficients and the matching combination
of its batch's K source packets.  coefficient_rows draws the rows a block
at a time: a row is the first K bytes of ceil(K/4) fresh 32-bit words, and
all-zero rows are skipped, so every packet is a genuine combination.
Whether a packet is innovative depends on its coefficients alone, so a
RankTracker follows a receiver's rank on the K-byte coefficient rows in
pure Python.  Blocks are eliminated a stack at a time, by one kernel:
full_rank_blocks forward-eliminates a stack of K x (K+L) blocks at once
and says which are full rank.  The simulator calls it on K x K
coefficient blocks (L = 0).  Codec validation encodes sources under
K x K coefficient rows with encode_blocks, and decode_blocks runs the
same elimination on the coded blocks, back-substitutes the payload
columns and says which full-rank blocks do not decode to their source.

Codec validation draws from three substreams SeedSequence((seed, role)):
role 0 gives the sources, role 1 each batch's first K coefficient rows,
role 2 the further rows that only a rank-deficient batch pulls.  It
encodes and decodes chunks of batches at once; the rare batch whose
first K rows are not independent goes through a RankTracker until full
rank and is then decoded from the rows the tracker kept.
run_codec_validation admits its own arguments and raises ConfigError on
a bad one, including a block decode over MAX_CODEC_BYTES.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import ConfigError, require_at_least, require_repeats

REDUCTION_POLY = 0x11D
# The largest working set a codec run may need: codec validation's block
# decode, and a simulated codec trial's rank state and rank check.
MAX_CODEC_BYTES = 1 << 30


def _product_table() -> np.ndarray:
    """_MUL below: the carry-less product of every pair of bytes, reduced by REDUCTION_POLY."""
    c = np.arange(256, dtype=np.uint16)
    product = np.zeros((256, 256), dtype=np.uint16)
    for k in range(8):  # add c * x^k wherever bit k of the second factor is set
        product ^= (c[:, None] << k) * (c >> k & 1)
    for k in range(14, 7, -1):  # clear bit k by adding x^(k-8) * REDUCTION_POLY
        product ^= (product >> k & 1) * np.uint16(REDUCTION_POLY << (k - 8))
    return product.astype(np.uint8)


# Full product table for vectorized row operations: _MUL[c, v] multiplies
# every byte of v by the scalar c; row and column 0 are zero.
_MUL = _product_table()
_MUL_FLAT = _MUL.ravel()  # _MUL_FLAT[(c << 8) | v] == _MUL[c, v]
# _INV[a] is the inverse of a.  Row 0 of _MUL holds no 1, so the entry for 0 is 0,
# which serves blocks that have no pivot.
_INV = (_MUL == 1).argmax(axis=1).astype(np.uint8)
# _MUL_BYTES[c] is row c of _MUL as a bytes.translate table: row.translate(_MUL_BYTES[c]) is c * row.
_MUL_BYTES = [bytes(row) for row in _MUL.tolist()]
_INV_LIST = _INV.tolist()
_from_bytes = int.from_bytes  # bound once: RankTracker.add calls it about K/2 times per row

# run_codec_validation encodes and decodes, and the simulator's rank check
# forward-eliminates, up to _BATCH_CHUNK batches together, fewer when their
# K x (K+L) blocks would pass _CHUNK_BYTES (see batch_chunk; L = 0 for the
# rank check): each elimination step builds temporaries of about 11 bytes per
# block byte.  No result depends on either constant.
_BATCH_CHUNK = 64
_CHUNK_BYTES = 1 << 17
# coefficient_rows draws _FIRST_ROWS rows in its first generator call and
# doubles that per call up to _ROW_BLOCK rows, and at most _CHUNK_BYTES of
# them.  The rows do not depend on either.
_FIRST_ROWS = 16
_ROW_BLOCK = 1024


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of two broadcastable uint8 arrays.

    One flat lookup with a 16-bit index, about three times faster than
    indexing _MUL with the two arrays on 64 KB operands.
    """
    return _MUL_FLAT.take((a.astype(np.uint16) << 8) | b)


def _combine(coefficients: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Bytewise field combination sum_k c[..., k] * rows[..., k, :].

    Shapes (..., K) and (..., K, L) give (..., L) through one (..., K, L)
    product.
    """
    return np.bitwise_xor.reduce(_mul(coefficients[..., :, None], rows), axis=-2)


def encode_blocks(coefficients: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """(B, K, K) coefficient rows over (B, K, L) sources as (B, K, K+L) coded blocks."""
    payloads = np.empty_like(sources)
    for i in range(coefficients.shape[1]):
        payloads[:, i] = _combine(coefficients[:, i], sources)
    return np.concatenate((coefficients, payloads), axis=2)


def _byte_rows(rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    """(count, width) uint8 draws: each row the first `width` bytes of ceil(width/4) fresh 32-bit words.

    The words are read low byte first, as numpy fills a uint8 draw.
    """
    words = rng.integers(0, 2**32, size=(count, -(-width // 4)), dtype="<u4")
    return words.view(np.uint8)[:, :width]


def coefficient_rows(rng: np.random.Generator, window: int):
    """Endless nonzero K-byte coefficient rows.

    A row is the first K bytes of ceil(K/4) fresh 32-bit words, low byte
    first, and an all-zero row is skipped.  This draws a block of rows in
    one call and yields each nonzero row as bytes.  The first block holds
    _FIRST_ROWS rows, as a short simulated trial needs no more, and each
    next one twice as many, up to _ROW_BLOCK rows and at most _CHUNK_BYTES
    (at least one row).  The 32-bit words come one after another from the
    generator whatever the block sizes, so the rows do not depend on them.
    """
    most = max(1, min(_ROW_BLOCK, _CHUNK_BYTES // (4 * -(-window // 4))))
    rows = min(_FIRST_ROWS, most)
    while True:
        block = _byte_rows(rng, rows, window)
        blob = block[block.any(axis=1)].tobytes()
        yield from [blob[i : i + window] for i in range(0, len(blob), window)]
        rows = min(2 * rows, most)


class RankTracker:
    """Rank of one batch at one receiver, followed on coefficient rows only.

    A K-byte row is handled as a big-endian int, so its leading nonzero
    byte sits at byte offset (bit_length - 1) >> 3 from the right end.
    `rows` holds the stored rows in row-echelon form, keyed by that offset:
    each has a 1 in its leading byte.  An incoming row is reduced while
    its leading offset is a key, by XORing out the stored row scaled by
    the leading byte, which moves the leading byte right.  A row that runs
    out of keys is innovative and is stored; one that reaches zero is
    dependent.  `raw` keeps the received rows that raised the rank, the
    K x K coefficient block a full-rank receiver decodes with.
    """

    __slots__ = ("window", "rows", "raw")

    def __init__(self, window: int):
        self.window = window
        self.rows: dict[int, bytes] = {}
        self.raw: list[bytes] = []

    @property
    def rank(self) -> int:
        return len(self.raw)

    def add(self, coefficients: bytes) -> bool:
        """Fold in one K-byte coefficient row; True iff it raised the rank."""
        rows = self.rows
        r = _from_bytes(coefficients, "big")
        while r:
            offset = (r.bit_length() - 1) >> 3
            row = rows.get(offset)
            if row is None:
                rows[offset] = r.to_bytes(self.window, "big").translate(_MUL_BYTES[_INV_LIST[r >> (offset << 3)]])
                self.raw.append(coefficients)
                return True
            r ^= _from_bytes(row.translate(_MUL_BYTES[r >> (offset << 3)]), "big")
        return False


def decode_blocks(blocks: np.ndarray, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (B, K, K+L) stack of coded blocks in place and compare it with (B, K, L) sources.

    full_rank_blocks eliminates the whole stack, payload columns included;
    back substitution on the payload columns, from the last pivot row up,
    then leaves the decoded source in them.  Returns two (B,) bool masks:
    the full-rank blocks, and the full-rank blocks that do not decode to
    their source.
    """
    window = sources.shape[1]
    full = full_rank_blocks(blocks)
    for c in range(window - 1, 0, -1):
        blocks[:, :c, window:] ^= _mul(blocks[:, :c, c, None], blocks[:, c, None, window:])
    return full, full & (blocks[:, :, window:] != sources).any(axis=(1, 2))


def block_solve_bytes(window: int, packet_len: int) -> int:
    """Bytes one K x (K+L) block decode needs at its peak: the block and its temporaries."""
    return 12 * window * (window + packet_len)


def batch_chunk(window: int, packet_len: int) -> int:
    """How many K x (K+L) blocks to encode and decode together.

    Up to _BATCH_CHUNK, fewer when their bytes would pass _CHUNK_BYTES,
    and at least one.
    """
    return max(1, min(_BATCH_CHUNK, _CHUNK_BYTES // (window * (window + packet_len))))


@dataclass(frozen=True)
class CodecValidationReport:
    """Round-trip and rank statistics over independently coded batches."""

    n_batches: int
    window: int
    packet_len: int
    roundtrip_failures: int
    mean_extra_packets: float     # receptions beyond K needed for full rank
    exact_rank_fraction: float    # batches decoded with exactly K receptions

    @property
    def roundtrip_ok(self) -> bool:
        return self.roundtrip_failures == 0


def expected_extra_packets(window: int) -> float:
    """Analytic mean receptions beyond K until full rank (uniform coefficients).

    At rank r a fresh packet is dependent with probability
    (256**r - 1) / (256**K - 1); summing the geometric means over r gives
    about 0.0039 for any window of a few packets or more.  The probability
    is evaluated as (256**(r-K) - 256**-K) / (1 - 256**-K), whose powers
    underflow to 0 instead of overflowing for K >= 128.
    """
    total = 0.0
    floor = 256.0**-window
    for r in range(window):
        dep = (256.0 ** (r - window) - floor) / (1.0 - floor)
        total += dep / (1.0 - dep)
    return total


def full_rank_blocks(blocks: np.ndarray) -> np.ndarray:
    """Forward-eliminate a (B, K, K+L) stack in place, L >= 0; True where full rank.

    Step c takes, in every block at once, the first row at or below row c
    with a nonzero entry in column c, swaps it up to row c and scales it to
    a unit pivot, then clears column c from the rows below it only, on
    columns c.. only.  When every block already has a nonzero entry at
    (c, c), that row is the pivot row of each, so the step skips the search
    and the swap; a random block needs neither with probability 255/256 per
    column.  A full-rank block ends with its K x K part upper triangular
    with a unit diagonal, its payload columns carried along; a block
    without a pivot in some column comes out in no particular form and is
    only flagged.
    """
    at = np.arange(blocks.shape[0])
    full = np.ones(blocks.shape[0], dtype=bool)
    for c in range(blocks.shape[1]):
        row = blocks[:, c, c:]
        if not row[:, 0].all():
            nonzero = blocks[:, c:, c] != 0
            full &= nonzero.any(axis=1)
            pivot = c + nonzero.argmax(axis=1)
            row = blocks[at, pivot, c:]
            blocks[at, pivot, c:] = blocks[:, c, c:]
        row = _mul(_INV[row[:, 0]][:, None], row)
        blocks[:, c, c:] = row
        blocks[:, c + 1 :, c:] ^= _mul(blocks[:, c + 1 :, c, None], row[:, None])
    return full


def run_codec_validation(window: int, packet_len: int, n_batches: int, seed: int = 0) -> CodecValidationReport:
    """Encode/decode `n_batches` random batches and collect rank statistics.

    Draws come from three private substreams SeedSequence((seed, role)):
    role 0 gives each batch's K x L source, cut from fresh 32-bit words;
    role 1 gives each batch's first K coefficient rows and role 2, in
    batch order, the further rows that only a rank-deficient batch pulls,
    both through coefficient_rows.  Batches go through in chunks of up to
    _BATCH_CHUNK (fewer when _CHUNK_BYTES binds): the chunk is encoded and
    decoded at once by decode_blocks.  A batch that is not full rank (about
    0.4% of them) is received as the simulator receives one: its rows go
    into a RankTracker, role-2 rows follow until the rank is K, and the
    rows the tracker kept are encoded and decoded again.  A batch fails
    the round trip if it is still not full rank or does not decode to its
    source.  Each substream is read in batch order whatever the chunking,
    so the report depends only on the arguments.

    Bad arguments raise ConfigError before anything is drawn: --window,
    --packet-len and --batches must each be at least 1, and --batches at
    most model.MAX_REPEATS.
    """
    require_at_least(window, 1, "--window")
    require_at_least(packet_len, 1, "--packet-len")
    require_repeats(n_batches, 1, "--batches")
    require_at_least(seed, 0, "--seed")
    need = block_solve_bytes(window, packet_len)
    if need > MAX_CODEC_BYTES:
        raise ConfigError(
            f"--window {window} with --packet-len {packet_len} needs about {need} bytes per block decode, "
            f"more than the limit of {MAX_CODEC_BYTES}"
        )
    source_rng, first_rng, extra_rng = (
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, role)))) for role in range(3)
    )
    first_rows = coefficient_rows(first_rng, window)
    extra_rows = coefficient_rows(extra_rng, window)
    failures = extras_total = exact = 0
    chunk = batch_chunk(window, packet_len)
    for start in range(0, n_batches, chunk):
        count = min(chunk, n_batches - start)
        sources = _byte_rows(source_rng, count, window * packet_len).reshape(count, window, packet_len)
        rows = b"".join(islice(first_rows, count * window))
        coeffs = np.frombuffer(rows, dtype=np.uint8).reshape(count, window, window)
        full, wrong = decode_blocks(encode_blocks(coeffs, sources), sources)
        exact += int(full.sum())
        for b in np.flatnonzero(~full):
            tracker = RankTracker(window)
            for row in coeffs[b]:
                tracker.add(row.tobytes())
            while tracker.rank < window:
                tracker.add(next(extra_rows))
                extras_total += 1
            kept = np.frombuffer(b"".join(tracker.raw), dtype=np.uint8).reshape(1, window, window)
            full[b : b + 1], wrong[b : b + 1] = decode_blocks(encode_blocks(kept, sources[b, None]), sources[b, None])
        failures += int((~full | wrong).sum())
    return CodecValidationReport(
        n_batches=n_batches,
        window=window,
        packet_len=packet_len,
        roundtrip_failures=failures,
        mean_extra_packets=extras_total / n_batches,
        exact_rank_fraction=exact / n_batches,
    )
