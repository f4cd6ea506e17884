//! Generative properties of the pairwise commutativity matrix.
//!
//! Three laws the parallel scheduler leans on:
//!
//! * **Symmetry** — `verdict(i, j)` and `verdict(j, i)` agree: conflicts are
//!   mutual, and conditional verdicts carry the same key clashes with the
//!   sides swapped. (The scheduler only consults one orientation of each
//!   pair, so an asymmetric matrix would silently drop dependency edges.)
//! * **⊤ is reflexively (and totally) conflicting** — a transition whose
//!   summary collapsed to ⊤ can never share a layer with anything, itself
//!   included.
//! * **Monotonicity under weakening** — replacing any one summary by ⊤
//!   (the worst sound over-approximation) never turns a conflicting pair
//!   into a commuting one, and leaves unrelated pairs untouched. A sound
//!   analysis losing precision may only *add* conflicts.

use cosplit_analysis::conflict::{ConflictMatrix, Verdict};
use cosplit_analysis::domain::{ContribSource, ContribType, Op, PseudoField};
use cosplit_analysis::effects::{Effect, MsgAbs, TransitionSummary};
use proptest::prelude::*;
use scilla::value::Value;

const FIELDS: [&str; 3] = ["a", "b", "c"];
const PARAMS: [&str; 3] = ["k", "who", "amt"];

fn pseudofield() -> impl Strategy<Value = PseudoField> {
    let field = prop_oneof![Just(FIELDS[0]), Just(FIELDS[1]), Just(FIELDS[2])];
    let keys = prop::collection::vec(
        prop_oneof![Just(PARAMS[0]), Just(PARAMS[1]), Just(PARAMS[2])],
        0..3usize,
    );
    (field, keys).prop_map(|(f, ks)| {
        if ks.is_empty() {
            PseudoField::whole(f)
        } else {
            PseudoField::entry(f, ks.into_iter().map(String::from).collect())
        }
    })
}

fn effect() -> impl Strategy<Value = Effect> {
    prop_oneof![
        pseudofield().prop_map(Effect::Read),
        // Overwrite from a parameter.
        pseudofield().prop_map(|pf| {
            Effect::Write(pf, ContribType::source(ContribSource::Param("amt".into())))
        }),
        // Commutative increment: self-contribution under `add`.
        pseudofield().prop_map(|pf| {
            let own = ContribType::source(ContribSource::Field(pf.clone()))
                .with_op(Op::Builtin("add".into()));
            let amt = ContribType::source(ContribSource::Param("amt".into()))
                .with_op(Op::Builtin("add".into()));
            Effect::Write(pf, own.add(&amt))
        }),
        pseudofield().prop_map(|pf| {
            Effect::Condition(ContribType::source(ContribSource::Field(pf)))
        }),
        Just(Effect::AcceptFunds),
        any::<bool>().prop_map(|zero| {
            Effect::SendMsg(MsgAbs {
                recipient: ContribType::source(ContribSource::Param("who".into())),
                amount: ContribType::source(ContribSource::Param("amt".into())),
                amount_is_zero: zero,
                tag: Some("Notify".into()),
                params: Default::default(),
            })
        }),
        Just(Effect::Top),
    ]
}

fn summaries(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TransitionSummary>> {
    prop::collection::vec(prop::collection::vec(effect(), 0..5usize), n).prop_map(|effect_sets| {
        effect_sets
            .into_iter()
            .enumerate()
            .map(|(i, effects)| TransitionSummary {
                name: format!("t{i}"),
                params: PARAMS.iter().map(|p| p.to_string()).collect(),
                effects,
            })
            .collect()
    })
}

/// A concrete binding assigning distinct values per (parameter, salt).
fn binding(salt: u64) -> impl Fn(&str) -> Option<Value> {
    move |p: &str| match p {
        "k" => Some(Value::Str(format!("key-{salt}"))),
        "who" => Some(Value::address([salt as u8; 20])),
        "amt" => Some(Value::Uint(128, salt as u128)),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matrix_is_symmetric(ss in summaries(1..6)) {
        let m = ConflictMatrix::build("prop", &ss);
        for i in 0..m.len() {
            for j in 0..m.len() {
                let vij = m.verdict_at(i, j);
                let vji = m.verdict_at(j, i);
                prop_assert_eq!(
                    vij.is_conflict(), vji.is_conflict(),
                    "conflict symmetry broken at ({}, {}): {:?} vs {:?}", i, j, vij, vji
                );
                // Conditional verdicts must carry the same clashes, sides
                // swapped (as sets — order is not part of the contract).
                if let (Verdict::CommuteUnless(cs), Verdict::CommuteUnless(cs2)) = (vij, vji) {
                    let mut fwd: Vec<_> = cs
                        .iter()
                        .map(|c| (c.field.clone(), c.left.clone(), c.right.clone()))
                        .collect();
                    let mut mirrored: Vec<_> = cs2
                        .iter()
                        .map(|c| (c.field.clone(), c.right.clone(), c.left.clone()))
                        .collect();
                    fwd.sort();
                    mirrored.sort();
                    prop_assert_eq!(fwd, mirrored, "clash mirror broken at ({}, {})", i, j);
                }
            }
        }
    }

    #[test]
    fn concrete_conflicts_are_symmetric(ss in summaries(1..6), sl in 0u64..8, sr in 0u64..8) {
        let m = ConflictMatrix::build("prop", &ss);
        let (bl, br) = (binding(sl), binding(sr));
        for i in 0..m.len() {
            for j in 0..m.len() {
                let li = &ss[i].name;
                let rj = &ss[j].name;
                prop_assert_eq!(
                    m.conflicts_concrete(li, &bl, rj, &br),
                    m.conflicts_concrete(rj, &br, li, &bl),
                    "concrete symmetry broken for ({}, {})", li, rj
                );
            }
        }
    }

    #[test]
    fn top_summary_conflicts_reflexively(ss in summaries(1..5), idx in 0usize..4) {
        let mut ss = ss;
        let k = idx % ss.len();
        ss[k].effects.push(Effect::Top);
        let m = ConflictMatrix::build("prop", &ss);
        prop_assert!(
            m.verdict_at(k, k).is_conflict(),
            "⊤ summary must conflict with itself: {:?}", m.verdict_at(k, k)
        );
        for j in 0..m.len() {
            prop_assert!(m.verdict_at(k, j).is_conflict(), "⊤ must conflict with every peer");
            prop_assert!(m.verdict_at(j, k).is_conflict(), "⊤ must conflict with every peer");
        }
    }

    #[test]
    fn weakening_to_top_is_monotone(ss in summaries(2..6), idx in 0usize..5) {
        let k = idx % ss.len();
        let before = ConflictMatrix::build("prop", &ss);
        let mut weakened = ss.clone();
        weakened[k].effects = vec![Effect::Top];
        let after = ConflictMatrix::build("prop", &weakened);
        for i in 0..ss.len() {
            for j in 0..ss.len() {
                if before.verdict_at(i, j).is_conflict() {
                    prop_assert!(
                        after.verdict_at(i, j).is_conflict(),
                        "weakening t{} turned conflicting pair ({}, {}) commuting", k, i, j
                    );
                }
                if i != k && j != k {
                    prop_assert_eq!(
                        before.verdict_at(i, j), after.verdict_at(i, j),
                        "weakening t{} changed unrelated pair ({}, {})", k, i, j
                    );
                }
            }
        }
    }
}
