//! Runtime values for the Lucid interpreter.

use std::fmt;

/// Where an event is destined to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The switch that generates it (the default): the event recirculates.
    Here,
    /// A specific switch.
    Switch(u64),
    /// Every member of a multicast group.
    Group(Vec<u64>),
}

/// An event value: the four-tuple of §3.1 — name (by id), data, time
/// (as a relative delay until generated), and place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventVal {
    /// Index into [`ProgramInfo::events`](lucid_check::ProgramInfo).
    pub event_id: usize,
    /// Shared, not owned: event values are constructed on the hot path,
    /// and an `Arc<str>` clone is a refcount bump instead of a heap
    /// allocation per `generate`.
    pub name: std::sync::Arc<str>,
    /// Carried data, already masked to each parameter's width.
    pub args: Vec<u64>,
    /// Extra delay accumulated from `Event.delay`, in nanoseconds.
    pub delay_ns: u64,
    pub location: Location,
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A fixed-width unsigned integer.
    Int {
        v: u64,
        width: u32,
    },
    Bool(bool),
    Event(EventVal),
    Group(Vec<u64>),
    /// Result of `Array.set` and void function calls.
    Void,
}

impl Value {
    pub fn int(v: u64, width: u32) -> Value {
        Value::Int {
            v: lucid_check::mask(v, width),
            width,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int { v, .. } => Some(*v),
            Value::Bool(b) => Some(*b as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int { v, .. } => Some(*v != 0),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int { v, .. } => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Event(e) => {
                let args: Vec<String> = e.args.iter().map(ToString::to_string).collect();
                write!(f, "{}({})", e.name, args.join(", "))
            }
            Value::Group(g) => write!(
                f,
                "{{{}}}",
                g.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Value::Void => write!(f, "()"),
        }
    }
}

/// FNV-1a offset basis: the starting state of every digest and hash.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime, used by the state and metrics digests.
pub(crate) const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The multiplier [`lucid_hash`] has always used. It is not the FNV
/// prime, but every hash value a program computes depends on it, so it
/// stays.
pub(crate) const HASH_PRIME: u64 = 0x1000_0000_01b3;

/// `p^n` in wrapping arithmetic (for the folded rounds of [`fnv_mix`]).
const fn wrapping_pow(p: u64, n: u32) -> u64 {
    let mut r = 1u64;
    let mut i = 0;
    while i < n {
        r = r.wrapping_mul(p);
        i += 1;
    }
    r
}

/// Mix one word into an FNV-1a-style state: the eight little-endian
/// bytes of `x`, each as `h = (h ^ byte) * P`. A zero byte leaves the
/// XOR a no-op, so runs of zero bytes fold into one multiply: an
/// all-zero upper half costs one multiply by `P^4`, a zero word one
/// multiply by `P^8`. The result is bit-identical to eight rounds.
#[inline]
pub(crate) fn fnv_mix<const P: u64>(mut h: u64, x: u64) -> u64 {
    if x == 0 {
        return h.wrapping_mul(const { wrapping_pow(P, 8) });
    }
    for i in 0..4 {
        h = (h ^ ((x >> (8 * i)) & 0xff)).wrapping_mul(P);
    }
    let hi = x >> 32;
    if hi == 0 {
        return h.wrapping_mul(const { wrapping_pow(P, 4) });
    }
    for i in 0..4 {
        h = (h ^ ((hi >> (8 * i)) & 0xff)).wrapping_mul(P);
    }
    h
}

/// The deterministic hash used by `hash<<w>>(seed, args..)` in both the
/// interpreter and the Tofino model: a 64-bit FNV-1a-style mix, truncated.
/// Determinism matters — the same program must behave identically in the
/// interpreter and in simulation-backed benches.
pub fn lucid_hash(width: u32, seed: u64, args: &[u64]) -> u64 {
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &a in args {
        h = fnv_mix::<HASH_PRIME>(h, a);
    }
    // Final avalanche so low-entropy inputs spread over narrow widths.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    lucid_check::mask(h, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_masks_on_construction() {
        assert_eq!(Value::int(0x1ff, 8), Value::Int { v: 0xff, width: 8 });
    }

    #[test]
    fn hash_is_deterministic_and_seed_sensitive() {
        let a = lucid_hash(16, 1, &[10, 20]);
        let b = lucid_hash(16, 1, &[10, 20]);
        let c = lucid_hash(16, 2, &[10, 20]);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different hashes");
        assert!(a < (1 << 16));
    }

    #[test]
    fn hash_distributes_over_narrow_width() {
        // All 256 single-byte inputs through an 8-bit hash should hit a
        // reasonable number of distinct buckets.
        let mut seen = std::collections::HashSet::new();
        for i in 0..256u64 {
            seen.insert(lucid_hash(8, 0, &[i]));
        }
        assert!(seen.len() > 140, "only {} distinct buckets", seen.len());
    }

    /// The eight explicit byte rounds `fnv_mix` must reproduce.
    fn byte_rounds<const P: u64>(mut h: u64, x: u64) -> u64 {
        for i in 0..8 {
            h ^= (x >> (8 * i)) & 0xff;
            h = h.wrapping_mul(P);
        }
        h
    }

    #[test]
    fn fnv_mix_equals_the_byte_loop_for_both_primes() {
        let mut words = vec![
            0,
            1,
            0xff,
            0x100,
            0xffff_ffff,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX,
        ];
        words.extend((0..64).map(|k| 1u64 << k));
        // A seeded xorshift covers words of every byte pattern.
        let mut s: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..10_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Vary the significant width so short words are common too.
            words.push(s >> (s % 64));
        }
        let mut h = FNV_OFFSET;
        for &x in &words {
            for seed in [FNV_OFFSET, h, 0, u64::MAX] {
                assert_eq!(
                    fnv_mix::<FNV_PRIME>(seed, x),
                    byte_rounds::<FNV_PRIME>(seed, x),
                    "digest prime, h={seed:#x}, x={x:#x}"
                );
                assert_eq!(
                    fnv_mix::<HASH_PRIME>(seed, x),
                    byte_rounds::<HASH_PRIME>(seed, x),
                    "hash prime, h={seed:#x}, x={x:#x}"
                );
            }
            h = byte_rounds::<FNV_PRIME>(h, x);
        }
    }

    #[test]
    fn as_int_accepts_bools() {
        assert_eq!(Value::Bool(true).as_int(), Some(1));
    }
}
