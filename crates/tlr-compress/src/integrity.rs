//! Tile integrity: exact digests, sealed tiles, and deterministic
//! corruption for fault injection.
//!
//! The detection workhorse of the integrity layer is [`TileDigest`]: an
//! **exact, bitwise** fingerprint of a tile — shape, storage format,
//! rank, an FNV-1a hash over the bit patterns of every stored `f64`,
//! and the Frobenius sum of squares as an independent sentinel. Because
//! the distributed engine's correctness contract is *bit-identical*
//! factors, exact digests give zero false positives (a clean tile never
//! fails) and zero false negatives (any flipped bit changes the hash) —
//! properties a floating-point checksum with a tolerance cannot offer.
//!
//! [`SealedTile`] pairs a tile with its digest so the pair travels as
//! one message payload / store entry; [`corrupt_tile`] is the seeded
//! single-bit-flip injector the fault plan drives. Digest computation
//! is a streaming fold over the stored words — no scratch, no heap
//! traffic — so verification at task read boundaries keeps the kernel
//! hot path allocation-free.

use crate::tile::{Tile, TileFormat};
use tlr_linalg::Matrix;

/// FNV-1a 64-bit offset basis / prime.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Per-lane salts (odd constants from the golden-ratio family) so the
/// four interleaved chains start from distinct states.
const LANE_SALT: [u64; 4] = [
    0,
    0x9e3779b97f4a7c15,
    0xc2b2ae3d27d4eb4f,
    0x165667b19e3779f9,
];

const LANES: usize = 4;

/// Streaming 4-lane word-at-a-time multiply-xor hash (FNV-1a structure,
/// one whole `u64` per step instead of one byte). Four independent
/// chains hide the multiply latency, which is what keeps digest
/// maintenance in the single-digit-percent range on the factorize hot
/// path. Detection stays *exact* for the faults the plan injects: each
/// step `h' = (h ^ w)·p` is bijective in both `h` and `w` (odd `p`), so
/// a sequence differing in any single word provably ends in a different
/// lane state, and the bijective lane combine preserves the difference.
struct LaneHash {
    h: [u64; LANES],
    f: [f64; LANES],
}

impl LaneHash {
    fn new() -> Self {
        LaneHash {
            h: LANE_SALT.map(|s| FNV_OFFSET ^ s),
            f: [0.0; LANES],
        }
    }

    #[inline]
    fn fold(&mut self, m: &Matrix) {
        // Lane states live in locals for the duration of the pass so
        // the compiler keeps them in registers across iterations.
        let (mut h, mut f) = (self.h, self.f);
        let s = m.as_slice();
        let mut chunks = s.chunks_exact(LANES);
        for c in &mut chunks {
            for l in 0..LANES {
                let x = c[l];
                h[l] = (h[l] ^ x.to_bits()).wrapping_mul(FNV_PRIME);
                f[l] += x * x;
            }
        }
        for (l, &x) in chunks.remainder().iter().enumerate() {
            h[l] = (h[l] ^ x.to_bits()).wrapping_mul(FNV_PRIME);
            f[l] += x * x;
        }
        self.h = h;
        self.f = f;
    }

    fn finish(&self) -> (u64, f64) {
        let hash = self
            .h
            .iter()
            .fold(FNV_OFFSET, |a, &l| (a ^ l).wrapping_mul(FNV_PRIME));
        let f = &self.f;
        (hash, (f[0] + f[1]) + (f[2] + f[3]))
    }
}

/// Streaming FNV-1a fold over `u64` words — the scalar chain of the
/// [`TileDigest`] lane hash, exposed for callers that fingerprint
/// *structure* rather than tile contents (the symbolic-plan cache keys
/// its entries by folding tile-grid shape, per-tile ranks, and the
/// distribution's owner map through this).
///
/// Each step `h' = (h ^ w)·p` with odd `p` is bijective in both `h` and
/// `w` (the same argument as [`TileDigest`]'s), so two structures that
/// differ in any single folded word end in different states.
#[derive(Debug, Clone, Copy)]
pub struct WordFold {
    h: u64,
}

impl WordFold {
    /// A fold in its initial state (the FNV-1a offset basis).
    pub fn new() -> Self {
        WordFold { h: FNV_OFFSET }
    }

    /// Fold one word into the state.
    #[inline]
    pub fn push(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Fold a `usize` (as `u64`).
    #[inline]
    pub fn push_usize(&mut self, w: usize) {
        self.push(w as u64);
    }

    /// The folded hash.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for WordFold {
    fn default() -> Self {
        Self::new()
    }
}

/// Exact fingerprint of one tile: logical shape, storage format, rank,
/// a bitwise content hash, and the Frobenius sum of squares of the
/// stored words (kept as raw bits so comparison is exact even for
/// non-finite values).
///
/// Two tiles have equal digests iff they are bit-identical in storage —
/// the comparison the distributed engine's bit-identical factor
/// contract needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileDigest {
    /// Storage format tag.
    pub format: TileFormat,
    /// Logical rows.
    pub rows: usize,
    /// Logical columns.
    pub cols: usize,
    /// Stored rank (0 for null, `k` for low-rank, `min(r,c)` for dense).
    pub rank: usize,
    /// FNV-1a hash over the bit patterns of every stored `f64`
    /// (`u` then `v` for low-rank tiles).
    pub hash: u64,
    /// Bit pattern of the Frobenius sum of squares of the stored words.
    pub fnorm_sq_bits: u64,
}

impl TileDigest {
    /// Compute the digest of `tile` (one streaming pass, no scratch).
    pub fn of(tile: &Tile) -> Self {
        let mut lanes = LaneHash::new();
        match tile {
            Tile::Dense(m) => lanes.fold(m),
            Tile::LowRank { u, v } => {
                lanes.fold(u);
                lanes.fold(v);
            }
            Tile::Null { .. } => {}
        }
        let (hash, fsq) = lanes.finish();
        TileDigest {
            format: tile.format(),
            rows: tile.rows(),
            cols: tile.cols(),
            rank: tile.rank(),
            hash,
            fnorm_sq_bits: fsq.to_bits(),
        }
    }

    /// `true` iff `tile` still matches this digest bit for bit.
    pub fn verify(&self, tile: &Tile) -> bool {
        *self == TileDigest::of(tile)
    }
}

/// A tile carrying its digest. Sealed tiles are the payload type of
/// integrity-checked distributed runs: the digest travels with the tile
/// through stores and messages, and any in-flight or at-rest bit flip
/// is caught by re-deriving the digest at the read boundary.
#[derive(Debug, Clone)]
pub struct SealedTile {
    tile: Tile,
    digest: TileDigest,
}

impl SealedTile {
    /// Seal a tile, recording its current digest.
    pub fn seal(tile: Tile) -> Self {
        let digest = TileDigest::of(&tile);
        SealedTile { tile, digest }
    }

    /// The tile contents (read-only; mutation must go through
    /// [`SealedTile::seal`] of a new value or [`SealedTile::corrupt`]).
    pub fn tile(&self) -> &Tile {
        &self.tile
    }

    /// The digest recorded at sealing time.
    pub fn digest(&self) -> TileDigest {
        self.digest
    }

    /// Unwrap the tile, discarding the seal.
    pub fn into_tile(self) -> Tile {
        self.tile
    }

    /// Re-derive the digest and compare against the seal.
    pub fn verify(&self) -> bool {
        self.digest.verify(&self.tile)
    }

    /// Fault injection: flip one stored bit chosen by `r` **without**
    /// resealing, leaving the digest stale — exactly what a silent
    /// memory / link error does. Returns `false` (no-op) for tiles with
    /// no storage (null tiles cannot corrupt).
    pub fn corrupt(&mut self, r: u64) -> bool {
        corrupt_tile(&mut self.tile, r)
    }
}

/// Deterministically flip one bit of the tile's stored words: word
/// index `r mod nwords`, bit index `(r >> 32) mod 64`. Returns whether
/// anything was mutated (null tiles have no storage and return
/// `false`). Driven by the seeded fault plan so a given seed corrupts
/// the same bit every run.
pub fn corrupt_tile(tile: &mut Tile, r: u64) -> bool {
    let flip = |words: &mut [f64], idx: usize| {
        let bit = (r >> 32) % 64;
        words[idx] = f64::from_bits(words[idx].to_bits() ^ (1u64 << bit));
    };
    match tile {
        Tile::Dense(m) => {
            let s = m.as_mut_slice();
            if s.is_empty() {
                return false;
            }
            let idx = (r % s.len() as u64) as usize;
            flip(s, idx);
            true
        }
        Tile::LowRank { u, v } => {
            let nu = u.as_slice().len();
            let nv = v.as_slice().len();
            if nu + nv == 0 {
                return false;
            }
            let idx = (r % (nu + nv) as u64) as usize;
            if idx < nu {
                flip(u.as_mut_slice(), idx);
            } else {
                flip(v.as_mut_slice(), idx - nu);
            }
            true
        }
        Tile::Null { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_tile(n: usize, seed: usize) -> Tile {
        Tile::Dense(Matrix::from_fn(n, n, |i, j| {
            ((i * 31 + j * 17 + seed * 13 + 7) % 101) as f64 / 101.0 - 0.5
        }))
    }

    fn lr_tile(n: usize, k: usize) -> Tile {
        Tile::LowRank {
            u: Matrix::from_fn(n, k, |i, j| ((i + 2 * j + 1) as f64 * 0.37).sin()),
            v: Matrix::from_fn(n, k, |i, j| ((2 * i + j + 1) as f64 * 0.29).cos()),
        }
    }

    #[test]
    fn digest_is_deterministic_and_shape_aware() {
        let t = dense_tile(8, 1);
        assert_eq!(TileDigest::of(&t), TileDigest::of(&t.clone()));
        assert_ne!(TileDigest::of(&t), TileDigest::of(&dense_tile(8, 2)));
        // Same numbers, different format ⇒ different digest.
        let n = Tile::Null { rows: 8, cols: 8 };
        assert_ne!(TileDigest::of(&t), TileDigest::of(&n));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Exhaustively flip each of the first 64 fault codes on a small
        // dense tile and a low-rank tile: the digest must catch all of
        // them (zero false negatives), and the untouched clone must
        // always verify (zero false positives).
        for tile in [dense_tile(4, 3), lr_tile(4, 2)] {
            let sealed = SealedTile::seal(tile);
            assert!(sealed.verify());
            for word in 0..8u64 {
                for bit in 0..8u64 {
                    let mut c = sealed.clone();
                    let r = word | ((bit * 7) << 32);
                    assert!(c.corrupt(r), "tiles with storage must corrupt");
                    assert!(!c.verify(), "flip r={r:#x} went undetected");
                }
            }
        }
    }

    #[test]
    fn null_tiles_cannot_corrupt() {
        let mut s = SealedTile::seal(Tile::Null { rows: 16, cols: 16 });
        assert!(!s.corrupt(12345));
        assert!(s.verify());
    }

    #[test]
    fn corruption_is_deterministic() {
        let mut a = SealedTile::seal(dense_tile(6, 9));
        let mut b = a.clone();
        a.corrupt(0xdead_beef_0000_0042);
        b.corrupt(0xdead_beef_0000_0042);
        assert_eq!(TileDigest::of(a.tile()), TileDigest::of(b.tile()));
    }
}
