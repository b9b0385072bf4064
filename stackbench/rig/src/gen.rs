//! Seeded inputs: key permutations, prefill sets, op streams, and the
//! byte encodings the wire and the ladder use. Everything here is a
//! pure function of the seed, so two runs with one seed see the same
//! keys, the same prefill and the same ops.

use lf_workloads::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Zipf exponent of every workload (the YCSB default).
pub const THETA: f64 = 0.99;

/// Ops generated per client thread; the measured loop cycles through
/// them, so a long run does not grow the client's memory.
pub const STREAM_LEN: usize = 1 << 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Get,
    /// `SET` on the wire (upsert); insert-if-absent in process.
    Put,
    Del,
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
}

/// Percentages of gets and puts; the rest are deletes.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u32,
    pub put: u32,
}

/// SplitMix64 finaliser: derives independent sub-seeds from one seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn shuffled(space: u32, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..space).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i as u64) as usize;
        v.swap(i, j);
    }
    v
}

/// The seeded inputs of one workload: Zipf rank `r` names key
/// `perm[r]`, so the hot keys are scattered over the key space rather
/// than packed at its low end.
pub struct Inputs {
    pub space: u32,
    /// Half the key space, in the (shuffled) order it is inserted.
    pub prefill: Vec<u32>,
    /// One op stream per client thread.
    pub streams: Vec<Vec<Op>>,
}

impl Inputs {
    pub fn new(space: u32, mix: Mix, threads: usize, seed: u64) -> Inputs {
        let perm = shuffled(space, mix64(seed ^ 0x7065_726d));
        let mut prefill = shuffled(space, mix64(seed ^ 0x7072_6566));
        prefill.truncate(space as usize / 2);
        let zipf = Zipf::new(u64::from(space), THETA);
        let streams = (0..threads)
            .map(|t| {
                let mut rng = SmallRng::seed_from_u64(mix64(seed ^ (0x6f70_7300 + t as u64)));
                (0..STREAM_LEN)
                    .map(|_| {
                        let key = perm[zipf.sample(&mut rng) as usize];
                        let roll = rng.gen_range(0..100u32);
                        let kind = if roll < mix.get {
                            Kind::Get
                        } else if roll < mix.get + mix.put {
                            Kind::Put
                        } else {
                            Kind::Del
                        };
                        Op { kind, key }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            space,
            prefill,
            streams,
        }
    }
}

/// The in-process value stored under `key`: a fixed function of the
/// key, so every `get` can be checked without a shared model.
pub fn value_of(key: u32) -> u64 {
    mix64(u64::from(key))
}

fn ascii_digits<const N: usize>(mut v: u64) -> [u8; N] {
    let mut out = [b'0'; N];
    for slot in out.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out
}

/// A wire key: the key id as 12 ASCII digits (byte order = numeric
/// order).
pub fn key_bytes(key: u32) -> [u8; 12] {
    ascii_digits(u64::from(key))
}

/// A wire value: the write's sequence number as 16 ASCII digits.
pub fn value_bytes(seq: u64) -> [u8; 16] {
    ascii_digits(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_one_seed_and_differ_across_seeds() {
        let mix = Mix { get: 80, put: 10 };
        let a = Inputs::new(1000, mix, 2, 7);
        let b = Inputs::new(1000, mix, 2, 7);
        let c = Inputs::new(1000, mix, 2, 8);
        assert_eq!(a.prefill, b.prefill);
        assert_eq!(
            a.streams[1][..64].iter().map(|o| o.key).collect::<Vec<_>>(),
            b.streams[1][..64].iter().map(|o| o.key).collect::<Vec<_>>()
        );
        assert_ne!(a.prefill, c.prefill);
        assert_eq!(a.prefill.len(), 500);
    }

    #[test]
    fn encodings_are_fixed_width_digits() {
        assert_eq!(&key_bytes(42), b"000000000042");
        assert_eq!(&value_bytes(7), b"0000000000000007");
    }
}
