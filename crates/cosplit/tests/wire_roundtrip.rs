//! Round-trips of the JSON wire forms exchanged with the blockchain nodes:
//! sharding signatures (deployment artefact) and audit violations (the
//! sanitizer's replayable repro records).

use cosplit_analysis::audit::{AuditViolation, ViolationKind};
use cosplit_analysis::domain::PseudoField;
use cosplit_analysis::signature::{
    Constraint, Join, ShardingSignature, TransitionConstraints, WeakReads,
};
use cosplit_analysis::solver::AnalyzedContract;
use scilla::span::Span;
use std::collections::BTreeSet;

fn analyzed(src: &str) -> AnalyzedContract {
    let checked =
        scilla::typechecker::typecheck(scilla::parser::parse_module(src).unwrap()).unwrap();
    AnalyzedContract::analyze(&checked)
}

const TOKEN: &str = r#"
    library L
    contract Token ()
    field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
    field total : Uint128 = Uint128 0
    transition Transfer (to : ByStr20, amount : Uint128)
      b <- balances[_sender];
      match b with
      | Some v =>
        nb = builtin sub v amount;
        balances[_sender] := nb;
        t <- balances[to];
        nt = match t with
          | Some u => builtin add u amount
          | None => amount
          end;
        balances[to] := nt
      | None =>
      end
    end
    transition CheckTotal ()
      t <- total;
      total := t
    end
"#;

fn roundtrip(sig: &ShardingSignature) -> ShardingSignature {
    let json = sig.to_json();
    ShardingSignature::from_json(&json)
        .unwrap_or_else(|e| panic!("round-trip failed: {e}\n{json}"))
}

#[test]
fn derived_signature_roundtrips_with_accept_all() {
    let sig = analyzed(TOKEN)
        .query(&["Transfer".into(), "CheckTotal".into()], &WeakReads::AcceptAll);
    assert_eq!(roundtrip(&sig), sig);
}

#[test]
fn derived_signature_roundtrips_with_declined_weak_reads() {
    // Declining every weak read exercises the revocation path: the resulting
    // signature must still round-trip (different joins, empty weak_reads).
    let a = analyzed(TOKEN);
    let names = vec!["Transfer".to_string(), "CheckTotal".to_string()];
    let declined = a.query(&names, &WeakReads::Fields(BTreeSet::new()));
    assert_eq!(roundtrip(&declined), declined);

    let accepted = a.query(&names, &WeakReads::AcceptAll);
    assert_eq!(roundtrip(&accepted), accepted);

    // The two variants must stay distinguishable on the wire.
    if accepted != declined {
        assert_ne!(accepted.to_json(), declined.to_json());
    }
}

#[test]
fn derived_signature_roundtrips_with_selective_weak_reads() {
    let fields: BTreeSet<String> = ["balances".to_string(), "total".to_string()].into();
    let sig = analyzed(TOKEN).query(
        &["Transfer".into(), "CheckTotal".into()],
        &WeakReads::Fields(fields),
    );
    assert_eq!(roundtrip(&sig), sig);
}

#[test]
fn hand_built_signature_with_every_constraint_roundtrips() {
    let sig = ShardingSignature {
        transitions: vec![
            TransitionConstraints {
                name: "A".into(),
                params: vec!["x".into(), "y".into()],
                constraints: [
                    Constraint::Owns(PseudoField::whole("f")),
                    Constraint::Owns(PseudoField::entry("m", vec!["x".into(), "y".into()])),
                    Constraint::UserAddr("x".into()),
                    Constraint::NoAliases(vec!["x".into()], vec!["y".into()]),
                    Constraint::SenderShard,
                    Constraint::ContractShard,
                ]
                .into_iter()
                .collect(),
            },
            TransitionConstraints {
                name: "B".into(),
                params: vec![],
                constraints: [Constraint::Unsat].into_iter().collect(),
            },
        ],
        joins: [("f".to_string(), Join::OwnOverwrite), ("m".to_string(), Join::IntMerge)]
            .into_iter()
            .collect(),
        weak_reads: ["f".to_string()].into_iter().collect(),
    };
    assert_eq!(roundtrip(&sig), sig);
}

#[test]
fn violation_roundtrips_for_every_kind() {
    for (i, kind) in ViolationKind::all().into_iter().enumerate() {
        let v = AuditViolation {
            kind,
            transition: format!("T{i}"),
            pseudofield: Some(PseudoField::entry("balances", vec!["who".into()])),
            concrete: "balances[0x0101]".into(),
            abstract_op: Some("{add, sub}".into()),
            observed_op: Some("set".into()),
            span: Span { start: 10 + i, end: 20 + i, line: 3, col: 7 },
        };
        let back = AuditViolation::from_json(&v.to_json())
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(back, v, "{kind}");
    }
}

#[test]
fn violation_roundtrips_with_absent_optionals() {
    let v = AuditViolation {
        kind: ViolationKind::UnsummarisedAccept,
        transition: "Deposit".into(),
        pseudofield: None,
        concrete: "accept".into(),
        abstract_op: None,
        observed_op: None,
        span: Span::dummy(),
    };
    let json = v.to_json();
    assert_eq!(AuditViolation::from_json(&json).unwrap(), v);

    // Whole-field pseudo-field (empty key list) survives too.
    let v = AuditViolation {
        pseudofield: Some(PseudoField::whole("pot")),
        ..v
    };
    assert_eq!(AuditViolation::from_json(&v.to_json()).unwrap(), v);
}

#[test]
fn violation_parse_rejects_malformed_input() {
    assert!(AuditViolation::from_json("not json").is_err());
    assert!(AuditViolation::from_json("{}").is_err());
    assert!(AuditViolation::from_json(
        r#"{"kind":"NoSuchKind","transition":"T","concrete":"x",
            "span":{"start":0,"end":0,"line":0,"col":0}}"#
    )
    .is_err());
    // A missing span is an error, not a panic.
    assert!(AuditViolation::from_json(r#"{"kind":"UnsummarisedRead","transition":"T","concrete":"x"}"#).is_err());
    // A retired kind name is an unknown kind, not a panic.
    let err = AuditViolation::from_json(
        r#"{"kind":"ConflictMissed","transition":"T","concrete":"x",
            "span":{"start":0,"end":0,"line":0,"col":0}}"#,
    )
    .unwrap_err();
    assert!(err.contains("unknown violation kind"), "{err}");
}

#[test]
fn kind_names_are_stable_and_distinct() {
    let names: BTreeSet<&str> = ViolationKind::all().iter().map(|k| k.as_str()).collect();
    assert_eq!(names.len(), ViolationKind::all().len());
    // Display matches the wire name (repro artefacts grep on it).
    for k in ViolationKind::all() {
        assert_eq!(k.to_string(), k.as_str());
    }
}
