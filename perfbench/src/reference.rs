//! The host-speed reference: fixed kernels, independent of the crates under
//! test, timed beside a workload's ops so that op times can be stated in
//! units of them.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! tens of percent between runs minutes apart, and not alike for every kind
//! of work: neighbours contending for the shared cache and memory slow
//! memory-bound code most, neighbours on the same cores slow arithmetic. So
//! one chunk of the reference runs three kernels: random row exchanges over
//! a table larger than the private caches for about two thirds of its time,
//! then the same over a table that fits them, and a dependent arithmetic
//! chain, for a sixth each. Timed beside the workloads on a drifting 2-vCPU
//! host, an equal split tracked their drift with the right sign but too
//! weakly (wall time went as the chunk's to the power 1.2 to 1.45); the
//! cache-spilling kernel carries most of the drift, hence its share. An op's
//! wall time divided by a chunk's stays steady across the drift, yet moves
//! one for one with a change to the code under test, which the reference
//! never calls.
//!
//! The table kernels are push-pull's memory pattern in miniature: a table of
//! bitset rows and a fixed stream of random row pairs, each pair OR-ed into
//! both.

use std::hint::black_box;
use std::time::Instant;

/// One table kernel: `rows` rows of `words` 64-bit words, and the row-pair
/// exchanges one chunk performs on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Rows in the table (nodes).
    pub rows: usize,
    /// 64-bit words per row (message bits / 64).
    pub words: usize,
    /// Row-pair exchanges per chunk.
    pub steps: usize,
}

/// The state table of a classic run at n = 10 000: 10 000 rows of 10 000
/// bits, 12.6 MB, past the private caches and the engine's 8 MB
/// cache-residency threshold.
pub const STATE_10K: Shape = Shape { rows: 10_000, words: 157, steps: 32_000 };
/// The replicas of an n = 192 cluster: one 192 x 192-bit table per node,
/// laid end to end as 192 rows of 192 x 192 bits, 0.9 MB, within the private
/// caches.
pub const REPLICAS_192: Shape = Shape { rows: 192, words: 576, steps: 11_000 };
/// Steps of the arithmetic chain per chunk.
pub const ARITHMETIC_STEPS: u64 = 1_100_000;

/// The reference's tables and its random streams.
pub struct Reference {
    tables: [(Shape, Vec<u64>); 2],
    rng: u64,
}

impl Reference {
    /// The reference, row 0 of each table holding bit 0, warmed by one
    /// untimed chunk so later chunks find their pages mapped.
    pub fn new() -> Self {
        let table = |shape: Shape| {
            let mut t = vec![0u64; shape.rows * shape.words];
            t[0] = 1;
            (shape, t)
        };
        let mut reference = Reference {
            tables: [table(STATE_10K), table(REPLICAS_192)],
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        reference.chunk();
        reference
    }

    /// Bytes the reference's tables keep resident.
    pub fn resident_bytes(&self) -> usize {
        self.tables.iter().map(|(_, t)| t.len() * 8).sum()
    }

    /// Runs one chunk — each table's exchanges, then the arithmetic chain —
    /// and returns its wall time in ms.
    pub fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        for (shape, table) in &mut self.tables {
            for _ in 0..shape.steps {
                let r = xorshift(&mut self.rng);
                let a = (r as u32 as usize) % shape.rows;
                let b = ((r >> 32) as usize) % shape.rows;
                exchange(table, shape.words, a, b);
            }
            black_box(&table);
        }
        black_box(arithmetic(&mut self.rng, ARITHMETIC_STEPS));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// xorshift64: a fixed stream, the same in every run.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Push-pull between rows `a` and `b`: both end with the OR of the two.
fn exchange(table: &mut [u64], words: usize, a: usize, b: usize) {
    if a == b {
        return;
    }
    let (lo, hi) = (a.min(b) * words, a.max(b) * words);
    let (head, tail) = table.split_at_mut(hi);
    for (x, y) in head[lo..lo + words].iter_mut().zip(&mut tail[..words]) {
        let both = *x | *y;
        *x = both;
        *y = both;
    }
}

/// A dependent chain of `steps` multiply-adds and divisions fed by the
/// stream: the processor's arithmetic, with no memory traffic.
fn arithmetic(rng: &mut u64, steps: u64) -> u64 {
    let mut acc = 0u64;
    for _ in 0..steps {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(xorshift(rng) % 1_000_003);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_the_working_sets_they_stand_for() {
        let r = Reference::new();
        let bytes = |s: Shape| s.rows * s.words * 8;
        assert!(bytes(STATE_10K) > 8 << 20, "past the 8 MB residency threshold");
        assert_eq!(STATE_10K.words * 64 / 10_000, 1, "one bit per node, rounded up");
        assert_eq!(bytes(REPLICAS_192), 192 * 192 * 192 / 8);
        assert_eq!(r.resident_bytes(), bytes(STATE_10K) + bytes(REPLICAS_192));
    }

    #[test]
    fn exchange_ors_both_rows_and_leaves_the_rest() {
        let mut t = vec![1, 0, 0, 0, 4, 2];
        exchange(&mut t, 2, 2, 0);
        assert_eq!(t, [1 | 4, 2, 0, 0, 1 | 4, 2]);
        exchange(&mut t, 2, 1, 1);
        assert_eq!(t, [5, 2, 0, 0, 5, 2]);
    }

    #[test]
    fn chunks_spread_the_bit_like_a_rumor_and_repeat_exactly() {
        // After the warm-up chunk every row of the small table has the bit,
        // and the stream is fixed, so two references stay in step.
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert!(a.tables[1].1.chunks(REPLICAS_192.words).all(|row| row[0] & 1 == 1));
        assert!(a.chunk() > 0.0);
        b.chunk();
        assert_eq!(a.rng, b.rng);
        assert_eq!(a.tables[0].1, b.tables[0].1);
    }
}
