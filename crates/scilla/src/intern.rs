//! Process-wide symbol interning.
//!
//! Identifier text — field names, transition names, constructor tags,
//! message keys — is drawn from a small static vocabulary (the contract
//! sources), yet the hot path used to compare and clone `String`s for every
//! load, store, and constructor application. A [`Sym`] is a `Copy` handle
//! into a process-wide append-only table: equality and hashing are integer
//! ops, and nothing is ever freed (the vocabulary is bounded by the deployed
//! code, not the workload).
//!
//! # Concurrency
//!
//! [`Sym::as_str`] takes no lock and keeps no per-thread state (shard
//! threads are spawned afresh every epoch, so a per-thread cache would start
//! cold each time). The text table is a fixed array of chunks that double
//! in size; a chunk is allocated once, published through a [`OnceLock`],
//! and never moves, and each slot is itself a `OnceLock` written exactly
//! once. A read is therefore three acquire loads (table, chunk, slot).
//! Writers serialise in [`intern`] on the reverse map's lock, so ids are
//! dense, assigned in interning order, and stable for the life of the
//! process.
//!
//! # Ordering caveat
//!
//! `Sym`'s derived `Ord` compares table indices, which depend on interning
//! order and are therefore *not* stable across processes (or even across
//! runs with different thread timings). Fast in-process containers
//! (`BTreeMap<Sym, _>`) are fine; anything **canonical** — wire encodings,
//! digests, golden test output — must order by [`Sym::as_str`] (see
//! [`Sym::cmp_str`]). The delta wire format and value printers in this
//! workspace do exactly that.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// Slots in the first chunk, as a power of two. Chunk `k` holds
/// `FIRST << k` slots, for ids `FIRST·(2^k − 1) .. FIRST·(2^(k+1) − 1)`.
const FIRST_BITS: u32 = 6;
const FIRST: u64 = 1 << FIRST_BITS;
/// Enough doubling chunks to address every `u32` id.
const CHUNKS: usize = 27;

/// One chunk of resolved text: written once per slot, never moved.
type Chunk = Box<[OnceLock<&'static str>]>;

/// An interned string: a `Copy` integer handle with O(1) equality/hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

struct Interner {
    /// Resolved text by id, in doubling chunks (see [`slot_of`]). Strings
    /// are leaked, so resolving hands out `&'static str`.
    chunks: [OnceLock<Chunk>; CHUNKS],
    /// Reverse map used by [`intern`]; its write lock serialises writers.
    /// Holds exactly one entry per id, so its length is the next id.
    ids: RwLock<HashMap<&'static str, Sym>>,
}

/// The (chunk, slot) an id lives at.
fn slot_of(id: u32) -> (usize, usize) {
    let i = id as u64 + FIRST;
    let k = 63 - i.leading_zeros() - FIRST_BITS;
    (k as usize, (i - (FIRST << k)) as usize)
}

impl Interner {
    /// Publishes the text of a fresh id. Callers hold the `ids` write lock.
    fn publish(&self, sym: Sym, text: &'static str) {
        let (k, slot) = slot_of(sym.0);
        let chunk = self.chunks[k]
            .get_or_init(|| (0..FIRST << k).map(|_| OnceLock::new()).collect());
        chunk[slot].set(text).expect("ids are assigned once");
    }
}

/// Symbols interned at table construction, in fixed order, so their ids are
/// compile-time constants. `well_known_ids_match` pins the correspondence.
const WELL_KNOWN: &[&str] = &[
    "",
    "True",
    "False",
    "Some",
    "None",
    "Cons",
    "Nil",
    "Pair",
    "_sender",
    "_origin",
    "_amount",
    "_this_address",
    "_recipient",
    "_tag",
    "_eventname",
    "_exception",
];

impl Sym {
    /// The empty string.
    pub const EMPTY: Sym = Sym(0);
    /// `True`.
    pub const TRUE: Sym = Sym(1);
    /// `False`.
    pub const FALSE: Sym = Sym(2);
    /// `Some`.
    pub const SOME: Sym = Sym(3);
    /// `None`.
    pub const NONE: Sym = Sym(4);
    /// `Cons`.
    pub const CONS: Sym = Sym(5);
    /// `Nil`.
    pub const NIL: Sym = Sym(6);
    /// `Pair`.
    pub const PAIR: Sym = Sym(7);
    /// `_sender`.
    pub const SENDER: Sym = Sym(8);
    /// `_origin`.
    pub const ORIGIN: Sym = Sym(9);
    /// `_amount`.
    pub const AMOUNT: Sym = Sym(10);
    /// `_this_address`.
    pub const THIS_ADDRESS: Sym = Sym(11);
    /// `_recipient`.
    pub const RECIPIENT: Sym = Sym(12);
    /// `_tag`.
    pub const TAG: Sym = Sym(13);
    /// `_eventname`.
    pub const EVENTNAME: Sym = Sym(14);
    /// `_exception`.
    pub const EXCEPTION: Sym = Sym(15);

    /// The interned text. Lock-free: see the module's concurrency notes.
    pub fn as_str(self) -> &'static str {
        let (k, slot) = slot_of(self.0);
        let table = table();
        loop {
            if let Some(text) = table.chunks[k].get().and_then(|c| c[slot].get()) {
                return text;
            }
            // Unreachable when the id reached this thread through any
            // synchronisation (thread spawn, channel, lock): `intern`
            // publishes the slot before the id escapes. An id passed by a
            // relaxed atomic may outrun the slot; it becomes visible shortly.
            std::hint::spin_loop();
        }
    }

    /// The raw table index (diagnostics only — see the ordering caveat).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Canonical (string) ordering, with an integer fast path on equality.
    /// Use this wherever ordering must be stable across processes.
    pub fn cmp_str(self, other: Sym) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

fn table() -> &'static Interner {
    static TABLE: OnceLock<Interner> = OnceLock::new();
    TABLE.get_or_init(|| {
        let t = Interner {
            chunks: [const { OnceLock::new() }; CHUNKS],
            ids: RwLock::new(HashMap::new()),
        };
        {
            let mut ids = t.ids.write().unwrap();
            for (i, s) in WELL_KNOWN.iter().enumerate() {
                t.publish(Sym(i as u32), s);
                ids.insert(*s, Sym(i as u32));
            }
        }
        t
    })
}

/// Interns `s`, returning its stable in-process handle. Idempotent; never
/// allocates when `s` is already in the table.
pub fn intern(s: &str) -> Sym {
    let t = table();
    if let Some(sym) = t.ids.read().unwrap().get(s) {
        return *sym;
    }
    let mut ids = t.ids.write().unwrap();
    // Somebody may have interned `s` between our read and write lock.
    if let Some(sym) = ids.get(s) {
        return *sym;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let sym = Sym(u32::try_from(ids.len()).expect("symbol table full"));
    // Publish the text before the id can escape through `ids` or the return.
    t.publish(sym, leaked);
    ids.insert(leaked, sym);
    sym
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        intern(&s)
    }
}

impl Default for Sym {
    fn default() -> Sym {
        Sym::EMPTY
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("balances");
        let b = intern("balances");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "balances");
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        assert_ne!(intern("alpha_x"), intern("alpha_y"));
    }

    #[test]
    fn well_known_ids_match() {
        for (i, s) in WELL_KNOWN.iter().enumerate() {
            assert_eq!(intern(s).id(), i as u32, "well-known symbol {s:?} drifted");
        }
        assert_eq!(Sym::TRUE, "True");
        assert_eq!(Sym::FALSE, "False");
        assert_eq!(Sym::SOME, "Some");
        assert_eq!(Sym::NONE, "None");
        assert_eq!(Sym::CONS, "Cons");
        assert_eq!(Sym::NIL, "Nil");
        assert_eq!(Sym::PAIR, "Pair");
        assert_eq!(Sym::SENDER, "_sender");
        assert_eq!(Sym::ORIGIN, "_origin");
        assert_eq!(Sym::AMOUNT, "_amount");
        assert_eq!(Sym::THIS_ADDRESS, "_this_address");
        assert_eq!(Sym::RECIPIENT, "_recipient");
        assert_eq!(Sym::TAG, "_tag");
        assert_eq!(Sym::EVENTNAME, "_eventname");
        assert_eq!(Sym::EXCEPTION, "_exception");
    }

    #[test]
    fn cmp_str_orders_by_text_not_id() {
        // Intern in reverse-lexicographic order so ids disagree with text.
        let z = intern("zzz_order_probe");
        let a = intern("aaa_order_probe");
        assert!(z.id() < a.id());
        assert_eq!(a.cmp_str(z), std::cmp::Ordering::Less);
        assert_eq!(z.cmp_str(a), std::cmp::Ordering::Greater);
        assert_eq!(a.cmp_str(a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn slots_tile_the_id_space() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(FIRST as u32 - 1), (0, FIRST as usize - 1));
        assert_eq!(slot_of(FIRST as u32), (1, 0));
        assert_eq!(slot_of(3 * FIRST as u32 - 1), (1, 2 * FIRST as usize - 1));
        assert_eq!(slot_of(3 * FIRST as u32), (2, 0));
        assert_eq!(slot_of(u32::MAX).0, CHUNKS - 1);
    }

    /// Writers intern fresh names, growing the table across chunk
    /// boundaries, while readers resolve ids minted before and during the
    /// run: every id resolves to exactly its text.
    #[test]
    fn concurrent_intern_and_resolve_agree() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let seeded: Vec<(Sym, String)> = (0..64)
            .map(|i| {
                let s = format!("concurrency_probe_seed_{i}");
                (intern(&s), s)
            })
            .collect();
        let seeded = Arc::new(seeded);
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (seeded, stop) = (Arc::clone(&seeded), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) || reads == 0 {
                        for (sym, text) in seeded.iter() {
                            assert_eq!(sym.as_str(), text);
                            reads += 1;
                        }
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                std::thread::spawn(move || {
                    (0..500)
                        .map(|i| {
                            let s = format!("concurrency_probe_w{w}_{i}");
                            let sym = intern(&s);
                            assert_eq!(sym.as_str(), s);
                            (sym, s)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let minted: Vec<(Sym, String)> =
            writers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        for (sym, text) in &minted {
            assert_eq!(sym.as_str(), text);
            assert_eq!(intern(text), *sym);
        }
        let mut ids: Vec<u32> = minted.iter().map(|(s, _)| s.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), minted.len(), "distinct names got distinct ids");
    }

    #[test]
    fn string_equality_shortcuts() {
        assert!(intern("Pair") == "Pair");
        assert!("Pair" == intern("Pair"));
        assert!(intern("Pair") != "Cons");
    }
}
