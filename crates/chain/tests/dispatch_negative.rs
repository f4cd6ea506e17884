//! Negative dispatch paths (paper §4.3): every way a transaction can fail
//! to shard must fall back to a safe assignment — the baseline strategy
//! when there is no signature, the DS committee for unsatisfiable or
//! ill-formed requests — and each fallback must be attributed to exactly
//! one `chain.dispatch.reason.*` counter.

use chain::address::Address;
use chain::dispatch::{dispatch, Assignment, DispatchReason};
use chain::network::{ChainConfig, Network};
use chain::tx::Transaction;
use cosplit_analysis::signature::WeakReads;
use scilla::value::Value;

/// A token whose `Transfer`/`Mint` shard, with `Burn` left unselected.
const TOKEN: &str = r#"
    contract Token ()
    field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
    transition Transfer (to : ByStr20, amount : Uint128)
      bal_opt <- balances[_sender];
      match bal_opt with
      | Some bal =>
        nf = builtin sub bal amount;
        balances[_sender] := nf;
        to_opt <- balances[to];
        nt = match to_opt with
          | Some b => builtin add b amount
          | None => amount
          end;
        balances[to] := nt
      | None => throw
      end
    end
    transition Mint (to : ByStr20, amount : Uint128)
      to_opt <- balances[to];
      nt = match to_opt with
        | Some b => builtin add b amount
        | None => amount
        end;
      balances[to] := nt
    end
    transition Burn (amount : Uint128)
      bal_opt <- balances[_sender];
      match bal_opt with
      | Some bal =>
        nf = builtin sub bal amount;
        balances[_sender] := nf
      | None => throw
      end
    end
"#;

/// `Pay` forwards funds to a *parameter* recipient (UserAddr constraint);
/// `Route` forwards to a recipient read from storage — the analysis cannot
/// bound who receives (ω-cardinality recipient), so the transition's
/// constraint set is `Unsat` and dispatch must fall back to the DS.
const ROUTER: &str = r#"
    library RouterLib
    let nil_msg = Nil {Message}
    let one_msg = fun (m : Message) => Cons {Message} m nil_msg
    let zero = Uint128 0

    contract Router (init_target : ByStr20)
    field target : ByStr20 = init_target

    transition Pay (to : ByStr20)
      msg = {_tag : ""; _recipient : to; _amount : zero};
      msgs = one_msg msg;
      send msgs
    end

    transition Route (amount : Uint128)
      t <- target;
      msg = {_tag : "Mint"; _recipient : t; _amount : zero;
             to : _sender; amount : amount};
      msgs = one_msg msg;
      send msgs
    end
"#;

const SHARDS: u32 = 4;

fn user_in_shard(shard: u32, skip: u64) -> Address {
    (skip..)
        .map(Address::from_index)
        .find(|a| a.home_shard(SHARDS) == shard)
        .expect("some user lands in every shard")
}

fn user_not_in_shard(shard: u32, skip: u64) -> Address {
    (skip..)
        .map(Address::from_index)
        .find(|a| a.home_shard(SHARDS) != shard)
        .expect("some user misses any given shard")
}

/// One test function: the telemetry registry is process-global, so each
/// phase is measured as its own snapshot diff, sequentially.
#[test]
fn every_negative_path_lands_safely_and_is_counted() {
    telemetry::set_enabled(true);
    let mut net = Network::new(ChainConfig::small(SHARDS, true));

    let token = Address::from_index(1_000_000); // signed: Transfer, Mint
    let bare = Address::from_index(1_000_001); // deployed without signature
    let router = Address::from_index(1_000_002); // signed: Pay, Route
    for i in 0..64 {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    net.deploy(token, TOKEN, vec![], Some((&["Transfer", "Mint"], WeakReads::AcceptAll)))
        .unwrap();
    net.deploy(bare, TOKEN, vec![], None).unwrap();
    net.deploy(
        router,
        ROUTER,
        vec![("init_target".to_string(), token.to_value())],
        Some((&["Pay", "Route"], WeakReads::AcceptAll)),
    )
    .unwrap();

    let reason = |r: DispatchReason| format!("chain.dispatch.reason.{}", r.name());
    let amount = |n: u128| ("amount".to_string(), Value::Uint(128, n));

    // --- Missing signature: the baseline strategy splits on the sender's
    // home shard vs the contract's.
    let local_user = user_in_shard(bare.home_shard(SHARDS), 0);
    let cross_user = user_not_in_shard(bare.home_shard(SHARDS), 0);
    let before = telemetry::registry().snapshot();
    let d = dispatch(
        &Transaction::call(1, local_user, 1, bare, "Mint", vec![
            ("to".into(), local_user.to_value()),
            amount(5),
        ]),
        net.state(),
        net.config(),
    );
    assert_eq!(d.assignment, Assignment::Shard(bare.home_shard(SHARDS)));
    assert_eq!(d.reason, DispatchReason::BaselineLocal);
    let d = dispatch(
        &Transaction::call(2, cross_user, 1, bare, "Mint", vec![
            ("to".into(), cross_user.to_value()),
            amount(5),
        ]),
        net.state(),
        net.config(),
    );
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::BaselineCross);

    // --- Unselected transition: signed contract, but `Burn` is outside
    // the signature's selection.
    let d = dispatch(
        &Transaction::call(3, local_user, 2, token, "Burn", vec![amount(1)]),
        net.state(),
        net.config(),
    );
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::Unselected);

    // --- ω-cardinality fallback: `Route`'s recipient is read from
    // storage, so its constraint set is Unsat.
    let d = dispatch(
        &Transaction::call(4, local_user, 3, router, "Route", vec![amount(1)]),
        net.state(),
        net.config(),
    );
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::Unsat);

    // --- UserAddr violated: `Pay` to a *contract* address.
    let d = dispatch(
        &Transaction::call(5, local_user, 4, router, "Pay", vec![(
            "to".into(),
            token.to_value(),
        )]),
        net.state(),
        net.config(),
    );
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::NotUserAddr);

    // --- Ill-formed requests: a contract nobody deployed, and a call
    // missing the argument a constraint needs.
    let ghost = Address::from_index(9_999_999);
    let d = dispatch(
        &Transaction::call(6, local_user, 5, ghost, "Anything", vec![]),
        net.state(),
        net.config(),
    );
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::BadArguments);
    let d = dispatch(
        &Transaction::call(7, local_user, 6, token, "Transfer", vec![amount(1)]),
        net.state(),
        net.config(),
    );
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::BadArguments);

    // Each scripted decision incremented exactly its own reason counter.
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(delta.counter(&reason(DispatchReason::BaselineLocal)), 1);
    assert_eq!(delta.counter(&reason(DispatchReason::BaselineCross)), 1);
    assert_eq!(delta.counter(&reason(DispatchReason::Unselected)), 1);
    assert_eq!(delta.counter(&reason(DispatchReason::Unsat)), 1);
    assert_eq!(delta.counter(&reason(DispatchReason::NotUserAddr)), 1);
    assert_eq!(delta.counter(&reason(DispatchReason::BadArguments)), 2);
    assert_eq!(delta.counter("chain.dispatch.total"), 7);
    assert_eq!(delta.counter("chain.dispatch.to_ds"), 6);
    assert_eq!(delta.counter_prefix_sum("chain.dispatch.reason."), 7);

    // --- Runtime cross-contract fallback: `Pay` to a plain user passes
    // dispatch (no constraint violated), but on the shard the send into a
    // message chain is only legal on the DS — the executor must reroute
    // and the DS must still commit it.
    let payer = user_in_shard(router.home_shard(SHARDS), 0);
    let before = telemetry::registry().snapshot();
    let mut pool = vec![Transaction::call(8, payer, 1, router, "Pay", vec![(
        "to".into(),
        Address::from_index(32).to_value(), // any plain user
    )])];
    let report = net.run_epoch(&mut pool);
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(report.committed, 1, "{report:?}");
    assert_eq!(delta.counter("chain.executor.reroute.cross_contract"), 0);
    assert!(pool.is_empty());

    // A zero-amount send to a *user* is not cross-contract. To hit the
    // runtime check, deploy a router *without* a signature: the baseline
    // strategy happily sends a same-shard `Route` call to the shard, where
    // the contract→contract message chain is illegal and must reroute.
    let bare_router = Address::from_index(2_000_000);
    let mut net2 = Network::new(ChainConfig::small(SHARDS, true));
    for i in 0..64 {
        net2.fund_account(Address::from_index(i), 1_000_000_000);
    }
    net2.deploy(token, TOKEN, vec![], None).unwrap();
    net2.deploy(
        bare_router,
        ROUTER,
        vec![("init_target".to_string(), token.to_value())],
        None,
    )
    .unwrap();
    let local = user_in_shard(bare_router.home_shard(SHARDS), 0);
    let before = telemetry::registry().snapshot();
    let mut pool =
        vec![Transaction::call(9, local, 1, bare_router, "Route", vec![amount(7)])];
    let report = net2.run_epoch(&mut pool);
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(
        delta.counter("chain.executor.reroute.cross_contract"),
        1,
        "the shard must reroute the contract→contract chain: {report:?}"
    );
    assert_eq!(delta.counter(&reason(DispatchReason::BaselineLocal)), 1);
    assert_eq!(report.committed, 1, "the DS executes the rerouted chain: {report:?}");
    assert!(pool.is_empty());
}
