//! The containment relation of the effect-trace auditor, exercised with
//! hand-built footprints against hand-built and analysed summaries.
//!
//! Every test drives `audit_transition`/`audit_placement` directly: a
//! `DynamicFootprint` is what the interpreter's tracer would have produced,
//! and the summary is either constructed in the Fig-6 domain or taken from
//! `summarize_contract` on a small source.

use cosplit_analysis::audit::{audit_placement, audit_transition, ViolationKind};
use cosplit_analysis::domain::{ContribSource, ContribType, Op, PseudoField};
use cosplit_analysis::effects::{Effect, MsgAbs, TransitionSummary};
use cosplit_analysis::signature::WeakReads;
use cosplit_analysis::solver::AnalyzedContract;
use scilla::span::Span;
use scilla::trace::{DynamicFootprint, EffectTracer};
use scilla::value::Value;

fn span(line: u32) -> Span {
    Span { start: 0, end: 0, line, col: 1 }
}

fn addr(n: u8) -> Value {
    Value::address([n; 20])
}

/// `balances[who] := builtin add (old) (amount)` in the abstract domain.
fn commutative_add(pf: &PseudoField) -> ContribType {
    let self_part = ContribType::source(ContribSource::Field(pf.clone()))
        .with_op(Op::Builtin("add".into()));
    let amount = ContribType::source(ContribSource::Param("amount".into()))
        .with_op(Op::Builtin("add".into()));
    self_part.add(&amount)
}

fn summary(effects: Vec<Effect>) -> TransitionSummary {
    TransitionSummary { name: "T".into(), params: vec!["who".into(), "amount".into()], effects }
}

fn footprint() -> EffectTracer {
    EffectTracer::new("T")
}

/// Binds `who` to `addr(1)` and leaves everything else unresolved.
fn resolve_who(name: &str) -> Option<Value> {
    (name == "who").then(|| addr(1))
}

#[test]
fn honest_footprint_has_no_violations() {
    let pf = PseudoField::entry("balances", vec!["who".into()]);
    let s = summary(vec![
        Effect::Read(pf.clone()),
        Effect::Write(pf.clone(), commutative_add(&pf)),
    ]);
    let mut t = footprint();
    t.record_read("balances", vec![addr(1)], span(3));
    t.record_write(
        "balances",
        vec![addr(1)],
        Some(Value::Uint(128, 10)),
        Some(Value::Uint(128, 40)),
        span(4),
    );
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn dropped_static_write_is_caught_with_span_and_op() {
    // The summary "forgot" its write — exactly the weakened-summary shape the
    // sanitizer exists to catch.
    let pf = PseudoField::entry("balances", vec!["who".into()]);
    let s = summary(vec![Effect::Read(pf.clone())]);
    let mut t = footprint();
    t.record_write(
        "balances",
        vec![addr(1)],
        Some(Value::Uint(128, 10)),
        Some(Value::Uint(128, 40)),
        span(7),
    );
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1, "{vs:?}");
    let v = &vs[0];
    assert_eq!(v.kind, ViolationKind::UnsummarisedWrite);
    assert_eq!(v.span.line, 7);
    assert_eq!(v.observed_op.as_deref(), Some("add(+30)"));
    // The nearest pseudo-field (the declared read) names the component.
    assert_eq!(v.pseudofield.as_ref().map(|p| p.field.as_str()), Some("balances"));
    assert!(v.concrete.starts_with("balances["), "{}", v.concrete);
}

#[test]
fn overwrite_observed_on_commutative_write_is_non_commutative_op() {
    let pf = PseudoField::entry("balances", vec!["who".into()]);
    let s = summary(vec![Effect::Write(pf.clone(), commutative_add(&pf))]);
    let mut t = footprint();
    // A write that replaces the integer with a string can never be an
    // add/sub delta.
    t.record_write(
        "balances",
        vec![addr(1)],
        Some(Value::Uint(128, 10)),
        Some(Value::Str("oops".into())),
        span(9),
    );
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].kind, ViolationKind::NonCommutativeOp);
    assert_eq!(vs[0].abstract_op.as_deref(), Some("{add}"));
    assert_eq!(vs[0].observed_op.as_deref(), Some("set"));
}

#[test]
fn sub_observed_on_add_only_write_is_non_commutative_op() {
    let pf = PseudoField::entry("balances", vec!["who".into()]);
    let s = summary(vec![Effect::Write(pf.clone(), commutative_add(&pf))]);
    let mut t = footprint();
    t.record_write(
        "balances",
        vec![addr(1)],
        Some(Value::Uint(128, 40)),
        Some(Value::Uint(128, 10)),
        span(2),
    );
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].kind, ViolationKind::NonCommutativeOp);
    assert_eq!(vs[0].observed_op.as_deref(), Some("sub(-30)"));
}

#[test]
fn noop_delta_is_always_subsumed() {
    // Writing the value already present (add of 0) cannot break merging.
    let pf = PseudoField::entry("balances", vec!["who".into()]);
    let s = summary(vec![Effect::Write(pf.clone(), commutative_add(&pf))]);
    let mut t = footprint();
    t.record_write(
        "balances",
        vec![addr(1)],
        Some(Value::Uint(128, 40)),
        Some(Value::Uint(128, 40)),
        span(2),
    );
    assert!(audit_transition(&t.finish(), &s, &resolve_who).is_empty());
}

#[test]
fn overwrite_style_write_subsumes_any_op() {
    // A non-commutative τ (plain parameter store) is ownership-gated, so any
    // concrete op — including delete — is inside the declared behaviour.
    let pf = PseudoField::entry("balances", vec!["who".into()]);
    let s = summary(vec![Effect::Write(
        pf.clone(),
        ContribType::source(ContribSource::Param("amount".into())),
    )]);
    let mut t = footprint();
    t.record_write("balances", vec![addr(1)], Some(Value::Uint(128, 40)), None, span(2));
    t.record_write("balances", vec![addr(1)], None, Some(Value::Str("x".into())), span(3));
    assert!(audit_transition(&t.finish(), &s, &resolve_who).is_empty());
}

#[test]
fn unsummarised_read_is_caught() {
    let pf = PseudoField::entry("balances", vec!["who".into()]);
    let s = summary(vec![Effect::Read(pf)]);
    let mut t = footprint();
    t.record_read("total_supply", vec![], span(11));
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::UnsummarisedRead);
    assert_eq!(vs[0].concrete, "total_supply");
    assert_eq!(vs[0].span.line, 11);
    assert!(vs[0].pseudofield.is_none());
}

#[test]
fn key_resolution_separates_components() {
    // The summary only covers balances[who]; with `who` bound to addr(1), a
    // concrete access of addr(2)'s entry escapes, and an unresolvable key
    // name acts as a wildcard (no fabricated escapes under imprecision).
    let pf = PseudoField::entry("balances", vec!["who".into()]);
    let s = summary(vec![Effect::Read(pf)]);

    let mut t = footprint();
    t.record_read("balances", vec![addr(2)], span(5));
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].kind, ViolationKind::UnsummarisedRead);

    let mut t = footprint();
    t.record_read("balances", vec![addr(2)], span(5));
    assert!(audit_transition(&t.finish(), &s, &|_| None).is_empty());
}

#[test]
fn whole_field_coverage() {
    // A whole-field read covers any entry; a whole-field overwrite
    // additionally excuses undeclared reads of that field (ownership of the
    // whole field is already forced). A same-field *entry* write does not,
    // and neither does a commutative whole-field write, whose `IntMerge`
    // join takes no ownership.
    let whole = PseudoField::whole("allowances");
    let s = summary(vec![Effect::Read(whole.clone())]);
    let mut t = footprint();
    t.record_read("allowances", vec![addr(1), addr(2)], span(3));
    assert!(audit_transition(&t.finish(), &s, &resolve_who).is_empty());

    let s = summary(vec![Effect::Write(whole, ContribType::bottom())]);
    let mut t = footprint();
    t.record_read("allowances", vec![addr(1)], span(3));
    assert!(audit_transition(&t.finish(), &s, &resolve_who).is_empty());

    let entry = PseudoField::entry("allowances", vec!["who".into()]);
    let s = summary(vec![Effect::Write(entry, ContribType::bottom())]);
    let mut t = footprint();
    t.record_read("allowances", vec![addr(1)], span(3));
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::UnsummarisedRead);

    // `total := builtin add total amount`, with the counter's `Read` lost.
    // The read precedes the write, so it observes pre-state.
    let total = PseudoField::whole("total_supply");
    let s = summary(vec![Effect::Write(total.clone(), commutative_add(&total))]);
    let mut t = footprint();
    t.record_read("total_supply", vec![], Span { start: 40, end: 52, line: 4, col: 3 });
    t.record_write(
        "total_supply",
        vec![],
        Some(Value::Uint(128, 100)),
        Some(Value::Uint(128, 130)),
        Span { start: 60, end: 80, line: 5, col: 3 },
    );
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].kind, ViolationKind::UnsummarisedRead);
}

#[test]
fn accept_and_send_need_static_counterparts() {
    let s = summary(vec![]);
    let mut t = footprint();
    t.record_accept();
    t.record_send([2u8; 20], 5, "Transfer", span(8));
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    let kinds: Vec<ViolationKind> = vs.iter().map(|v| v.kind).collect();
    assert!(kinds.contains(&ViolationKind::UnsummarisedAccept), "{vs:?}");
    assert!(kinds.contains(&ViolationKind::UnsummarisedSend), "{vs:?}");
}

#[test]
fn send_tag_and_amount_zero_claims_are_checked() {
    let msg = |tag: Option<&str>, amount_is_zero: bool| MsgAbs {
        recipient: ContribType::source(ContribSource::Param("who".into())),
        amount: ContribType::bottom(),
        amount_is_zero,
        tag: tag.map(str::to_string),
        params: Default::default(),
    };

    // Matching tag, non-zero amount allowed.
    let s = summary(vec![Effect::SendMsg(msg(Some("Transfer"), false))]);
    let mut t = footprint();
    t.record_send([2u8; 20], 5, "Transfer", span(8));
    assert!(audit_transition(&t.finish(), &s, &resolve_who).is_empty());

    // Wrong tag escapes.
    let s = summary(vec![Effect::SendMsg(msg(Some("Transfer"), false))]);
    let mut t = footprint();
    t.record_send([2u8; 20], 5, "Burn", span(8));
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::UnsummarisedSend);

    // Statically-zero amount with concretely moved funds escapes.
    let s = summary(vec![Effect::SendMsg(msg(None, true))]);
    let mut t = footprint();
    t.record_send([2u8; 20], 5, "Notify", span(8));
    let vs = audit_transition(&t.finish(), &s, &resolve_who);
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::UnsummarisedSend);

    // Zero concrete amount satisfies the zero claim.
    let s = summary(vec![Effect::SendMsg(msg(None, true))]);
    let mut t = footprint();
    t.record_send([2u8; 20], 0, "Notify", span(8));
    assert!(audit_transition(&t.finish(), &s, &resolve_who).is_empty());
}

#[test]
fn top_summary_vacuously_contains_everything() {
    let s = summary(vec![Effect::Top]);
    let mut t = footprint();
    t.record_read("anything", vec![], span(1));
    t.record_write("anything", vec![], None, Some(Value::Uint(128, 1)), span(2));
    t.record_accept();
    assert!(audit_transition(&t.finish(), &s, &resolve_who).is_empty());
}

#[test]
fn analysed_fungible_token_contains_its_own_trace() {
    // End to end on the static side: summaries produced by the analysis
    // contain a faithful hand-transcribed footprint of a Transfer run.
    let src = r#"
        library L
        contract Token ()
        field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Transfer (to : ByStr20, amount : Uint128)
          from_bal <- balances[_sender];
          match from_bal with
          | Some b =>
            nb = builtin sub b amount;
            balances[_sender] := nb;
            to_bal <- balances[to];
            match to_bal with
            | Some t2 =>
              nt = builtin add t2 amount;
              balances[to] := nt
            | None =>
              balances[to] := amount
            end
          | None =>
          end
        end
    "#;
    let checked =
        scilla::typechecker::typecheck(scilla::parser::parse_module(src).unwrap()).unwrap();
    let summaries = cosplit_analysis::analysis::summarize_contract(&checked);
    let s = summaries.iter().find(|s| s.name == "Transfer").unwrap();
    assert!(!s.has_top(), "{s}");

    let mut t = footprint();
    t.record_read("balances", vec![addr(1)], span(6));
    t.record_write(
        "balances",
        vec![addr(1)],
        Some(Value::Uint(128, 100)),
        Some(Value::Uint(128, 70)),
        span(9),
    );
    t.record_read("balances", vec![addr(2)], span(10));
    t.record_write("balances", vec![addr(2)], None, Some(Value::Uint(128, 30)), span(13));
    let fp = t.finish();
    let mut fp = fp;
    fp.transition = "Transfer".into();

    let resolve = |name: &str| match name {
        "_sender" => Some(addr(1)),
        "to" => Some(addr(2)),
        "amount" => Some(Value::Uint(128, 30)),
        _ => None,
    };
    let vs = audit_transition(&fp, s, &resolve);
    assert!(vs.is_empty(), "{vs:?}");

    // Dropping the recipient-side write from the summary is caught.
    let weakened = TransitionSummary {
        name: s.name.clone(),
        params: s.params.clone(),
        effects: s
            .effects
            .iter()
            .filter(|e| !matches!(e, Effect::Write(pf, _) if pf.keys == vec!["to".to_string()]))
            .cloned()
            .collect(),
    };
    assert_ne!(weakened.effects.len(), s.effects.len(), "mutation must drop something");
    let vs = audit_transition(&fp, &weakened, &resolve);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].kind, ViolationKind::UnsummarisedWrite);
    assert!(vs[0].span.line > 0);
}

#[test]
fn placement_rules() {
    // Derive a real signature: Pay does a read-modify-write of pot
    // (IntMerge), Reset overwrites owner_note (OwnOverwrite).
    let src = r#"
        library L
        contract C ()
        field pot : Uint128 = Uint128 0
        field owner_note : Uint128 = Uint128 0
        transition Pay (amount : Uint128)
          p <- pot;
          np = builtin add p amount;
          pot := np
        end
        transition Reset (v : Uint128)
          owner_note := v
        end
    "#;
    let checked =
        scilla::typechecker::typecheck(scilla::parser::parse_module(src).unwrap()).unwrap();
    let analyzed = AnalyzedContract::analyze(&checked);
    let sig = analyzed.query(&["Pay".into(), "Reset".into()], &WeakReads::AcceptAll);
    assert_eq!(
        sig.joins.get("pot"),
        Some(&cosplit_analysis::signature::Join::IntMerge),
        "{sig:?}"
    );
    assert_eq!(
        sig.joins.get("owner_note"),
        Some(&cosplit_analysis::signature::Join::OwnOverwrite),
        "{sig:?}"
    );

    let owner_of = |field: &str, _keys: &[Value]| if field == "owner_note" { 2u32 } else { 0 };

    // IntMerge field: read-modify-write off the owner shard is fine.
    let mut t = EffectTracer::new("Pay");
    t.record_read("pot", vec![], span(2));
    t.record_write("pot", vec![], Some(Value::Uint(128, 5)), Some(Value::Uint(128, 8)), span(4));
    let vs = audit_placement(
        &t.finish(),
        &sig,
        sig.transition("Pay").unwrap(),
        1,
        &owner_of,
    );
    assert!(vs.is_empty(), "{vs:?}");

    // OwnOverwrite field: write on a non-owner shard is a violation.
    let mut t = EffectTracer::new("Reset");
    t.record_write(
        "owner_note",
        vec![],
        Some(Value::Uint(128, 5)),
        Some(Value::Uint(128, 9)),
        span(7),
    );
    let vs = audit_placement(
        &t.finish(),
        &sig,
        sig.transition("Reset").unwrap(),
        1,
        &owner_of,
    );
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].kind, ViolationKind::NotOwnedWrite);

    // …and on the owner shard it is fine.
    let mut t = EffectTracer::new("Reset");
    t.record_write(
        "owner_note",
        vec![],
        Some(Value::Uint(128, 5)),
        Some(Value::Uint(128, 9)),
        span(7),
    );
    let vs = audit_placement(
        &t.finish(),
        &sig,
        sig.transition("Reset").unwrap(),
        2,
        &owner_of,
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn unsat_transition_on_a_shard_is_flagged() {
    use cosplit_analysis::signature::{
        Constraint, ShardingSignature, TransitionConstraints,
    };
    let tcons = TransitionConstraints {
        name: "T".into(),
        params: vec![],
        constraints: [Constraint::Unsat].into_iter().collect(),
    };
    let sig = ShardingSignature {
        transitions: vec![tcons.clone()],
        joins: Default::default(),
        weak_reads: Default::default(),
    };
    let fp = DynamicFootprint { transition: "T".into(), ..Default::default() };
    let vs = audit_placement(&fp, &sig, &tcons, 3, &|_, _| 0);
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].kind, ViolationKind::UnsatOnShard);
    assert!(vs[0].concrete.contains("shard 3"), "{}", vs[0].concrete);
}
