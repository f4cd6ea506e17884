//! Generative properties over runtime values: JSON wire round-trips, total
//! ordering laws, and interpreter determinism.

use proptest::prelude::*;
use scilla::value::Value;
use std::collections::BTreeMap;

/// Random first-order values (the storable fragment).
fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        (prop_oneof![Just(32u32), Just(64), Just(128)], any::<u64>())
            .prop_map(|(w, n)| Value::Uint(w, n as u128)),
        (prop_oneof![Just(32u32), Just(64), Just(128)], any::<i64>())
            .prop_map(|(w, n)| Value::Int(w, n as i128)),
        "[ -~]{0,12}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..24).prop_map(|b| Value::ByStr(b.into())),
        any::<u32>().prop_map(|n| Value::BNum(n as u64)),
        Just(Value::bool(true)),
        Just(Value::none()),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::btree_map(inner.clone(), inner.clone(), 0..4)
                .prop_map(Value::map_from),
            (prop_oneof![Just("Some"), Just("Pair"), Just("Cons")], prop::collection::vec(inner.clone(), 1..3))
                .prop_map(|(c, args)| Value::Adt { ctor: scilla::intern::intern(c), args }),
            prop::collection::btree_map("[a-z_]{1,8}", inner, 0..3)
                .prop_map(|m| {
                    Value::Msg(m.into_iter().map(|(k, v): (String, Value)| (scilla::intern::intern(&k), v)).collect::<BTreeMap<_, _>>())
                }),
        ]
    })
}

/// Byte strings of 0–40 bytes, a fifth of them exactly address-sized.
fn byte_string() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..=40),
        prop::collection::vec(any::<u8>(), 20),
        prop::collection::vec(0u8..2, 0..=40),
        prop::collection::vec(0u8..2, 20),
        prop::collection::vec(any::<u8>(), 0..=40),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_roundtrips_every_first_order_value(v in value()) {
        let json = scilla::wire::to_json(&v);
        let back = scilla::wire::from_json(&json).expect("canonical form parses");
        prop_assert_eq!(v, back);
    }

    #[test]
    fn ordering_is_total_and_antisymmetric(a in value(), b in value(), c in value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.cmp(&b).reverse(), b.cmp(&a));
        // Transitivity spot-check.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    /// `ByteStr` stores addresses inline and boxes every other length; the
    /// value must compare, print and wire-round-trip exactly like the byte
    /// vector it was built from. `b` often shares a prefix with `a`, so
    /// ordering is exercised across the inline/boxed boundary.
    #[test]
    fn byte_strings_behave_like_their_bytes(
        a in byte_string(),
        tail in byte_string(),
        cut in 0usize..=40,
    ) {
        let b: Vec<u8> = a[..cut.min(a.len())].iter().chain(&tail).copied().take(40).collect();
        let (va, vb) = (Value::ByStr(a.clone().into()), Value::ByStr(b.as_slice().into()));
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
        prop_assert_eq!(va == vb, a == b);
        let hex: String = a.iter().map(|x| format!("{x:02x}")).collect();
        prop_assert_eq!(va.to_string(), format!("0x{hex}"));
        let json = scilla::wire::to_json(&va);
        let tag = format!("ByStr{}", a.len());
        prop_assert_eq!(json["t"].as_str(), Some(tag.as_str()));
        prop_assert_eq!(json["v"].as_str(), Some(hex.as_str()));
        let back = scilla::wire::from_json(&json).expect("canonical form parses");
        let Value::ByStr(bs) = &back else { panic!("decoded {back:?}") };
        prop_assert_eq!(&bs[..], &a[..]);
        prop_assert_eq!(bs.address().is_some(), a.len() == 20);
        prop_assert_eq!(va.as_address().is_some(), a.len() == 20);
    }

    #[test]
    fn map_insert_lookup_agree_with_ordering(k1 in value(), k2 in value()) {
        let mut m = BTreeMap::new();
        m.insert(k1.clone(), Value::Uint(128, 1));
        m.insert(k2.clone(), Value::Uint(128, 2));
        if k1 == k2 {
            prop_assert_eq!(m.len(), 1);
        } else {
            prop_assert_eq!(m.get(&k1), Some(&Value::Uint(128, 1)));
            prop_assert_eq!(m.get(&k2), Some(&Value::Uint(128, 2)));
        }
    }
}

mod interpreter_determinism {
    use super::*;
    use scilla::gas::GasMeter;
    use scilla::interpreter::TransitionContext;
    use scilla::state::InMemoryState;

    const COUNTER: &str = r#"
        contract Counter ()
        field counts : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Add (v : Uint128)
          c <- counts[_sender];
          nc = match c with
            | Some n => builtin add n v
            | None => v
            end;
          counts[_sender] := nc
        end
        transition Reset ()
          delete counts[_sender]
        end
    "#;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Same transaction sequence ⇒ identical final state *and* identical
        /// gas consumption — the determinism every replicating miner needs.
        #[test]
        fn replays_are_bit_identical(
            ops in prop::collection::vec((0u8..4, 0u128..1000, any::<bool>()), 1..30)
        ) {
            let run = || {
                let c = scilla::compile_str(COUNTER).unwrap();
                let mut state = InMemoryState::from_fields(c.init_fields(&[]).unwrap());
                let mut total_gas = 0u64;
                for (who, v, reset) in &ops {
                    let ctx = TransitionContext { sender: [*who; 20], ..TransitionContext::zeroed() };
                    let mut gas = GasMeter::new(100_000);
                    let r = if *reset {
                        c.execute(&mut state, "Reset", &[], &[], &ctx, &mut gas)
                    } else {
                        c.execute(
                            &mut state,
                            "Add",
                            &[("v".into(), Value::Uint(128, *v))],
                            &[],
                            &ctx,
                            &mut gas,
                        )
                    };
                    r.expect("counter ops cannot fail");
                    total_gas += gas.used();
                }
                (state, total_gas)
            };
            let (s1, g1) = run();
            let (s2, g2) = run();
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(g1, g2);
        }
    }
}
