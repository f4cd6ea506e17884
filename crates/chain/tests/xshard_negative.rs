//! Negative paths of the cross-shard two-phase commit: every way a
//! multi-shard transaction can fail to ride the atomic-commit stage must
//! land safely and be attributed — unsatisfiable signatures still serialise
//! at the DS committee (with the right reason counter) even when the stage
//! is enabled, a participant veto mid-prepare aborts with release and the
//! transaction retries cleanly, and a lost vote inside the full simulator
//! aborts, repools, and commits on a later epoch.

use chain::address::Address;
use chain::dispatch::{dispatch, Assignment, DispatchReason};
use chain::network::{ChainConfig, Network};
use chain::sim::{run_sim, FaultEvent, FaultKind, FaultPlan, SimConfig, TxOutcome};
use chain::tx::Transaction;
use chain::xshard::{NoFaults, XShardFaults};
use cosplit_analysis::signature::WeakReads;
use scilla::value::Value;

const SHARDS: u32 = 4;

/// `Route`'s recipient is read from storage (ω-cardinality), so the
/// transition's constraint set is unsatisfiable — multi-shard or not, it
/// can only go to the DS.
const ROUTER: &str = r#"
    library RouterLib
    let nil_msg = Nil {Message}
    let one_msg = fun (m : Message) => Cons {Message} m nil_msg
    let zero = Uint128 0

    contract Router (init_target : ByStr20)
    field target : ByStr20 = init_target

    transition Route (amount : Uint128)
      t <- target;
      msg = {_tag : "Mint"; _recipient : t; _amount : zero;
             to : _sender; amount : amount};
      msgs = one_msg msg;
      send msgs
    end
"#;

fn cfg(cross_shard_commit: bool) -> ChainConfig {
    ChainConfig { cross_shard_commit, ..ChainConfig::small(SHARDS, true) }
}

/// A ProofIPFS world: the `Register` transition's footprint is the sender's
/// account plus the registry component keyed by the hash string — two
/// shards for most (sender, hash) pairs.
fn ipfs_world(config: ChainConfig) -> (Network, Address) {
    let mut net = Network::new(config);
    let admin = Address::from_index(999);
    for i in 0..64 {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    net.fund_account(admin, 1_000_000_000);
    let contract = Address::from_index(3_000_000);
    let source = scilla::corpus::get("ProofIPFS").expect("corpus contract").source;
    net.deploy(
        contract,
        source,
        vec![("initial_admin".to_string(), admin.to_value())],
        Some((&["Register"], WeakReads::AcceptAll)),
    )
    .expect("ProofIPFS deploys");
    (net, contract)
}

/// A `Register` call whose resolved footprint spans at least two shards
/// (scans hash strings until one lands off the sender's home shard).
fn split_register(net: &Network, contract: Address, id: u64, nonce: u64) -> Transaction {
    let sender = Address::from_index(1);
    (0..256u32)
        .map(|i| {
            Transaction::call(
                id,
                sender,
                nonce,
                contract,
                "Register",
                vec![("ipfs_hash".into(), Value::Str(format!("Qm{i:060}")))],
            )
            .with_amount(10)
        })
        .find(|tx| {
            dispatch(tx, net.state(), net.config()).assignment == Assignment::XShard
        })
        .expect("some hash string maps off the sender's home shard")
}

/// One participant votes no on its first prepare, then behaves.
struct VetoOnce {
    done: bool,
}

impl XShardFaults for VetoOnce {
    fn prepare_panic(&mut self, _epoch: u64, _tx: &Transaction, _shard: u32) -> bool {
        !std::mem::replace(&mut self.done, true)
    }
}

/// Single test function: the telemetry registry is process-global, so each
/// phase measures its own snapshot diff sequentially.
#[test]
fn negative_paths_abort_cleanly_and_are_counted() {
    telemetry::set_enabled(true);
    let reason = |r: DispatchReason| format!("chain.dispatch.reason.{}", r.name());

    // --- An unsatisfiable signature stays a DS transaction even with the
    // cross-shard stage enabled: enabling 2PC must never widen what shards.
    let mut net = Network::new(cfg(true));
    for i in 0..8 {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    let router = Address::from_index(1_000_002);
    let token = Address::from_index(1_000_000);
    net.deploy(
        router,
        ROUTER,
        vec![("init_target".to_string(), token.to_value())],
        Some((&["Route"], WeakReads::AcceptAll)),
    )
    .unwrap();
    let before = telemetry::registry().snapshot();
    let d = dispatch(
        &Transaction::call(1, Address::from_index(0), 1, router, "Route", vec![(
            "amount".into(),
            Value::Uint(128, 1),
        )]),
        net.state(),
        net.config(),
    );
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::Unsat);
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(delta.counter(&reason(DispatchReason::Unsat)), 1);
    assert_eq!(delta.counter("chain.dispatch.to_ds"), 1);
    assert_eq!(delta.counter("chain.dispatch.to_xshard"), 0);

    // --- The same multi-shard footprint: DS (split-footprint) with the
    // stage off, cross-shard commit with it on.
    let (net, contract) = ipfs_world(cfg(true));
    let tx = split_register(&net, contract, 10, 1);
    let off = dispatch(&tx, net.state(), &cfg(false));
    assert_eq!(off.assignment, Assignment::Ds);
    assert_eq!(off.reason, DispatchReason::SplitFootprint);
    let before = telemetry::registry().snapshot();
    let on = dispatch(&tx, net.state(), net.config());
    assert_eq!(on.assignment, Assignment::XShard);
    assert_eq!(on.reason, DispatchReason::CrossShard);
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(delta.counter(&reason(DispatchReason::CrossShard)), 1);
    assert_eq!(delta.counter("chain.dispatch.to_xshard"), 1);

    // --- Participant veto mid-prepare: abort with release (no receipt, no
    // state change, no orphan lock), the transaction defers, and the retry
    // commits.
    let (mut net, contract) = ipfs_world(cfg(true));
    let tx = split_register(&net, contract, 20, 1);
    let before = telemetry::registry().snapshot();
    let xb = net.execute_xshard(vec![tx.clone()], &mut VetoOnce { done: false });
    assert_eq!(xb.stats.aborted, 1, "veto must abort: {:?}", xb.stats);
    assert_eq!(xb.stats.committed, 0);
    assert!(xb.block.receipts.is_empty(), "an aborted prepare leaves no receipt");
    assert_eq!(xb.block.deferred.len(), 1, "the aborted tx repools");
    assert_eq!(xb.block.deferred[0].id, tx.id);
    assert!(xb.errors.is_empty(), "{:?}", xb.errors);
    assert!(net.lock_table().is_empty(), "abort must release every acquired lock");
    let delta = telemetry::registry().snapshot().diff(&before);
    assert_eq!(delta.counter("chain.xshard.aborted"), 1);
    assert_eq!(delta.counter("chain.xshard.committed"), 0);

    let xb = net.execute_xshard(vec![tx], &mut NoFaults);
    assert_eq!(xb.stats.committed, 1, "the retry must commit: {:?}", xb.stats);
    assert_eq!(xb.block.receipts.len(), 1);
    assert!(net.lock_table().is_empty(), "commit must release every lock");

    // --- Lost vote inside the full simulator: abort, backoff repool, and a
    // later epoch commits — the outcome is still success and the recovery
    // is attributed.
    let (mut net, contract) = ipfs_world(cfg(true));
    let tx = split_register(&net, contract, 30, 1);
    let mut pool = vec![tx.clone()];
    let plan = FaultPlan {
        events: vec![FaultEvent { epoch: 0, shard: 0, kind: FaultKind::LostVote }],
    };
    let report = run_sim(&mut net, &mut pool, &SimConfig::new(7), &plan);
    assert!(report.drained, "the retried transaction must drain");
    assert!(report.epochs >= 2, "a lost vote costs at least one extra epoch");
    assert_eq!(report.injected.get("lost-vote").copied(), Some(1));
    assert!(report.recoveries.get("xshard-abort-retry").copied().unwrap_or(0) >= 1);
    assert!(
        matches!(report.outcomes.get(&tx.id), Some(TxOutcome::Success { .. })),
        "{:?}",
        report.outcomes.get(&tx.id)
    );
    assert!(report.safety_violations.is_empty(), "{:?}", report.safety_violations);
    assert!(net.lock_table().is_empty());
}
