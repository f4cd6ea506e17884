//! Property tests for the state-delta merge (DESIGN.md invariant 2): the
//! DS committee's three-way merge must be order-independent — the formal
//! backbone of the paper's `⊎` join (§2.3).

use cosplit::chain::address::Address;
use cosplit::chain::delta::{apply_int_delta, Component, IntDelta, StateDelta};
use cosplit::chain::error::MergeError;
use cosplit::chain::state::GlobalState;
use cosplit::scilla::builtins::uint_max;
use cosplit::scilla::intern::intern;
use cosplit::scilla::state::{InMemoryState, StateStore};
use cosplit::scilla::value::Value;
use proptest::prelude::*;

fn addr(i: u8) -> Address {
    Address::from_index(i as u64)
}

/// A random delta over a small component space. Overwrites are drawn from
/// per-shard-disjoint component ids to model ownership dispatch.
fn delta(shard: usize) -> impl Strategy<Value = StateDelta> {
    let int_entry = (0u8..6, -50i128..50).prop_map(|(k, d)| {
        (("counters".into(), vec![addr(k).to_value()].into()), IntDelta { delta: d, width: 128, signed: false })
    });
    let ow_entry = (0u8..6, 0u128..100).prop_map(move |(k, v)| {
        // Disjointness by construction: each shard owns its own key range.
        let key = Value::Str(format!("s{shard}-{k}"));
        (("owners".into(), vec![key].into()), Some(Value::Uint(128, v)))
    });
    (
        prop::collection::vec(int_entry, 0..5),
        prop::collection::vec(ow_entry, 0..5),
        prop::collection::btree_map((0u8..4).prop_map(addr), -30i128..30, 0..3),
    )
        .prop_map(|(ints, ows, balances)| {
            let mut sd = StateDelta::new();
            let contract = Address::from_index(42);
            let cd = sd.contracts.entry(contract).or_default();
            cd.int_deltas = ints.into_iter().collect();
            cd.overwrites = ows.into_iter().collect();
            sd.balances = balances;
            sd
        })
}

fn base_state() -> GlobalState {
    let mut state = GlobalState::new();
    let contract = Address::from_index(42);
    let storage = std::sync::Arc::make_mut(state.storage.entry(contract).or_default());
    for k in 0u8..6 {
        storage.map_update("counters", &[addr(k).to_value()], Value::Uint(128, 1_000));
    }
    for a in 0u8..4 {
        state.credit(addr(a), 10_000);
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_permutation_invariant(
        d1 in delta(1), d2 in delta(2), d3 in delta(3)
    ) {
        let orders = [
            [d1.clone(), d2.clone(), d3.clone()],
            [d3.clone(), d1.clone(), d2.clone()],
            [d2.clone(), d3.clone(), d1.clone()],
        ];
        let mut results = Vec::new();
        for order in orders {
            let merged = StateDelta::merge(order).expect("disjoint by construction");
            let mut state = base_state();
            merged.apply(&mut state).expect("bases are large enough");
            results.push(state);
        }
        prop_assert_eq!(&results[0].storage, &results[1].storage);
        prop_assert_eq!(&results[1].storage, &results[2].storage);
        prop_assert_eq!(&results[0].accounts, &results[2].accounts);
    }

    #[test]
    fn merge_is_associative_through_apply(
        d1 in delta(1), d2 in delta(2), d3 in delta(3)
    ) {
        // (d1 ⊎ d2) ⊎ d3 == d1 ⊎ (d2 ⊎ d3)
        let left = StateDelta::merge([
            StateDelta::merge([d1.clone(), d2.clone()]).unwrap(),
            d3.clone(),
        ])
        .unwrap();
        let right = StateDelta::merge([
            d1,
            StateDelta::merge([d2, d3]).unwrap(),
        ])
        .unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn applying_merged_equals_applying_sequentially(
        d1 in delta(1), d2 in delta(2)
    ) {
        let mut merged_state = base_state();
        StateDelta::merge([d1.clone(), d2.clone()])
            .unwrap()
            .apply(&mut merged_state)
            .unwrap();

        let mut seq_state = base_state();
        d1.apply(&mut seq_state).unwrap();
        d2.apply(&mut seq_state).unwrap();

        prop_assert_eq!(merged_state.storage, seq_state.storage);
        prop_assert_eq!(merged_state.accounts, seq_state.accounts);
    }

    #[test]
    fn int_deltas_sum_exactly(
        deltas in prop::collection::vec(-40i128..40, 1..6)
    ) {
        let contract = Address::from_index(42);
        let comp: Component = ("counters".into(), vec![addr(0).to_value()].into());
        let shards: Vec<StateDelta> = deltas
            .iter()
            .map(|d| {
                let mut sd = StateDelta::new();
                sd.contracts.entry(contract).or_default().int_deltas.insert(
                    comp.clone(),
                    IntDelta { delta: *d, width: 128, signed: false },
                );
                sd
            })
            .collect();
        let mut state = base_state();
        StateDelta::merge(shards).unwrap().apply(&mut state).unwrap();
        let expected = 1_000i128 + deltas.iter().sum::<i128>();
        let got = state.storage[&contract]
            .map_get("counters", &[addr(0).to_value()])
            .and_then(|v| v.as_uint())
            .unwrap();
        prop_assert_eq!(got as i128, expected);
    }
}

/// A delta carrying only nonce commitments, in arbitrary order — the merge
/// must canonicalise them so the PCM laws hold at the delta level too.
fn nonce_delta(shard: u64) -> impl Strategy<Value = StateDelta> {
    prop::collection::vec((0u8..4, 0u64..20), 0..6).prop_map(move |pairs| {
        let mut sd = StateDelta::new();
        for (a, n) in pairs {
            // Per-shard-disjoint nonce ranges, as relaxed-nonce dispatch
            // guarantees (each shard commits its own slice of an account's
            // nonce space).
            sd.nonces.entry(addr(a)).or_default().push(n + shard * 100);
        }
        sd
    })
}

fn with_nonces(d: StateDelta, n: StateDelta) -> StateDelta {
    let mut d = d;
    d.nonces = n.nonces;
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- PCM laws at the delta level (not just through apply) ----
    // Valid since the merge sorts each account's nonce list into a
    // canonical multiset representation.

    #[test]
    fn merge_is_commutative(
        d1 in delta(1), d2 in delta(2), n1 in nonce_delta(1), n2 in nonce_delta(2)
    ) {
        let d1 = with_nonces(d1, n1);
        let d2 = with_nonces(d2, n2);
        let ab = StateDelta::merge([d1.clone(), d2.clone()]).unwrap();
        let ba = StateDelta::merge([d2, d1]).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        d1 in delta(1), d2 in delta(2), d3 in delta(3),
        n1 in nonce_delta(1), n2 in nonce_delta(2), n3 in nonce_delta(3)
    ) {
        let d1 = with_nonces(d1, n1);
        let d2 = with_nonces(d2, n2);
        let d3 = with_nonces(d3, n3);
        let left = StateDelta::merge([
            StateDelta::merge([d1.clone(), d2.clone()]).unwrap(),
            d3.clone(),
        ])
        .unwrap();
        let right = StateDelta::merge([d1, StateDelta::merge([d2, d3]).unwrap()]).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn empty_delta_is_identity(d in delta(1), n in nonce_delta(1)) {
        let d = with_nonces(d, n);
        // merge([d]) is the canonical form of d (sorted nonces); joining
        // the empty delta on either side must not change it.
        let canon = StateDelta::merge([d.clone()]).unwrap();
        let left = StateDelta::merge([StateDelta::new(), d.clone()]).unwrap();
        let right = StateDelta::merge([d, StateDelta::new()]).unwrap();
        prop_assert_eq!(&left, &canon);
        prop_assert_eq!(&right, &canon);
    }

    #[test]
    fn nonces_merge_as_sorted_multisets(
        n1 in nonce_delta(1), n2 in nonce_delta(2), n3 in nonce_delta(3)
    ) {
        let merged = StateDelta::merge([n1.clone(), n2.clone(), n3.clone()]).unwrap();
        for (a, ns) in &merged.nonces {
            let mut expected: Vec<u64> = [&n1, &n2, &n3]
                .iter()
                .flat_map(|d| d.nonces.get(a).into_iter().flatten().copied())
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(ns, &expected);
            prop_assert!(ns.windows(2).all(|w| w[0] <= w[1]), "canonical order");
        }
    }
}

/// An integer of the component's kind, mostly at an edge of its range:
/// `pick` selects 0, 1, −1 (2 if unsigned), MIN, MAX−1, MAX, or `raw`
/// reduced into range.
fn edge_int(signed: bool, width: u32, pick: u8, raw: u64) -> Value {
    if signed {
        let (min, max) = match width {
            32 => (i32::MIN as i128, i32::MAX as i128),
            64 => (i64::MIN as i128, i64::MAX as i128),
            _ => (i128::MIN, i128::MAX),
        };
        let n = [0, 1, -1, min, max - 1, max, (raw as i64 as i128).clamp(min, max)][pick as usize];
        Value::Int(width, n)
    } else {
        let max = uint_max(width);
        let reduced = if max == u128::MAX { raw as u128 } else { raw as u128 % (max + 1) };
        let n = [0, 1, 2, 0, max - 1, max, reduced][pick as usize];
        Value::Uint(width, n)
    }
}

/// The formulation the in-place apply replaced: read the component, compute
/// its new value, write it back. `false` (and no write) when out of range.
fn get_then_update(storage: &mut InMemoryState, comp: &Component, id: &IntDelta) -> bool {
    let old = storage.map_get_sym(comp.0, &comp.1);
    let Some(new) = apply_int_delta(old.as_ref(), id) else { return false };
    if comp.1.is_empty() {
        storage.store_sym(comp.0, new);
    } else {
        storage.map_update_sym(comp.0, &comp.1, new);
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `StateDelta::apply` updates an integer component in one walk; the
    /// result must equal get-then-update for whole fields, flat and nested
    /// entries, present and absent components (absent counts as 0), every
    /// width and sign, and both in and out of range — where it must fail
    /// with `DeltaOutOfRange` and leave the store as it was.
    #[test]
    fn in_place_int_apply_matches_get_then_update(
        width in prop_oneof![Just(32u32), Just(64), Just(128)],
        signed in any::<bool>(),
        shape in 0u8..3,
        k1 in 0u8..3,
        k2 in 0u8..3,
        whole_present in any::<bool>(),
        base_pick in 0u8..7,
        raw in any::<u64>(),
        delta_pick in 0u8..6,
        raw_delta in any::<i64>(),
        other_kind in 0u8..8,
    ) {
        // Base: `counter` (whole field, maybe absent); `flat[0..2]`;
        // `nested[0][0..2]`. Key 2 and `nested[1]` are absent.
        let base_value = edge_int(signed, width, base_pick, raw);
        // Occasionally store the other integer kind: never a valid operand.
        let stored =
            if other_kind == 0 { edge_int(!signed, width, base_pick, raw) } else { base_value };
        let key = |i: u8| addr(i).to_value();
        let mut base = InMemoryState::new();
        if whole_present {
            base.store("counter", stored.clone());
        }
        for i in 0..2 {
            base.map_update("flat", &[key(i)], stored.clone());
            base.map_update("nested", &[key(0), key(i)], stored.clone());
        }
        let comp: Component = match shape {
            0 => (intern("counter"), Vec::new().into()),
            1 => (intern("flat"), vec![key(k1)].into()),
            _ => (intern("nested"), vec![key(k1), key(k2)].into()),
        };
        let delta = match delta_pick {
            0 => 0,
            1 => 1,
            2 => -1,
            3 => raw_delta as i128,
            4 => (raw_delta as i128) << 64,
            _ => if raw_delta < 0 { i128::MIN + 1 } else { i128::MAX },
        };
        let id = IntDelta { delta, width, signed };

        let mut want = base.clone();
        let in_range = get_then_update(&mut want, &comp, &id);

        let contract = Address::from_index(42);
        let mut state = GlobalState::new();
        state.storage.insert(contract, std::sync::Arc::new(base.clone()));
        let mut sd = StateDelta::new();
        sd.contracts.entry(contract).or_default().int_deltas.insert(comp, id);
        match sd.apply(&mut state) {
            Ok(()) => prop_assert!(in_range, "applied a delta that is out of range"),
            Err(MergeError::DeltaOutOfRange { .. }) => {
                prop_assert!(!in_range, "rejected a delta that is in range");
                prop_assert_eq!(&*state.storage[&contract], &base);
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
        prop_assert_eq!(&*state.storage[&contract], &want);
    }
}

#[test]
fn overlapping_overwrites_always_conflict() {
    let contract = Address::from_index(42);
    let mk = |v: u128| {
        let mut sd = StateDelta::new();
        sd.contracts
            .entry(contract)
            .or_default()
            .overwrites
            .insert(("owners".into(), vec![Value::Str("same".into())].into()), Some(Value::Uint(128, v)));
        sd
    };
    assert!(StateDelta::merge([mk(1), mk(1)]).is_err(), "even equal values conflict");
}
