//! Account addresses and their deterministic shard assignment.

use std::fmt;

/// A 20-byte account address (Zilliqa/Ethereum style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// A deterministic test/workload address derived from an index.
    pub fn from_index(i: u64) -> Address {
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&i.to_be_bytes());
        bytes[8] = 0xAA; // avoid colliding with the all-zero address
        Address(bytes)
    }

    /// A stable 64-bit hash of the address (FNV-1a).
    pub fn hash64(&self) -> u64 {
        fnv1a(&self.0)
    }

    /// The shard this account is deterministically assigned to (paper §4.1:
    /// "transactions are deterministically assigned to shards based on the
    /// sender's address").
    pub fn home_shard(&self, num_shards: u32) -> u32 {
        (self.hash64() % num_shards as u64) as u32
    }

    /// The interpreter-level value for this address.
    pub fn to_value(self) -> scilla::value::Value {
        scilla::value::Value::address(self.0)
    }

    /// Parses the `0x`-prefixed hex form produced by `Display`.
    ///
    /// # Errors
    ///
    /// Describes the first malformed character or a wrong length.
    pub fn from_hex(s: &str) -> Result<Address, String> {
        let hex = s.strip_prefix("0x").ok_or("address must start with 0x")?;
        if hex.len() != 40 {
            return Err(format!("bad address length in {s}"));
        }
        let mut bytes = [0u8; 20];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).map_err(|e| e.to_string())?;
        }
        Ok(Address(bytes))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// FNV-1a over arbitrary bytes; used for every deterministic placement
/// decision (account→shard, state component→shard).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// An incremental [`fnv1a`]: hashing pieces in turn equals hashing their
/// concatenation. As a [`std::fmt::Write`] sink it hashes a value's
/// `Display` form without materialising the string.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// The empty-input state.
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(0xcbf29ce484222325)
    }

    /// Folds in `bytes`.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// The hash of everything written so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_index_is_injective_for_small_indices() {
        let a: Vec<Address> = (0..1000).map(Address::from_index).collect();
        let mut b = a.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn home_shard_is_stable_and_in_range() {
        for i in 0..100 {
            let addr = Address::from_index(i);
            let s = addr.home_shard(5);
            assert!(s < 5);
            assert_eq!(s, addr.home_shard(5));
        }
    }

    #[test]
    fn shards_are_roughly_balanced() {
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[Address::from_index(i).home_shard(4) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn display_is_hex() {
        let a = Address([0xab; 20]);
        assert!(a.to_string().starts_with("0xabab"));
        assert_eq!(a.to_string().len(), 42);
    }
}
