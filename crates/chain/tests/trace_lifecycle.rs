//! End-to-end lifecycle tracing through a real epoch: dispatch decisions,
//! shard executors, and the DS committee
//! must leave a well-formed span forest in the flight recorder, and every
//! committed receipt must map to a complete dispatch→commit lifecycle
//! chain. The tracing-off run is counter-audited to record nothing.

use chain::address::Address;
use chain::executor::TxStatus;
use chain::network::{ChainConfig, Network};
use chain::tx::Transaction;
use cosplit_analysis::signature::WeakReads;
use scilla::value::Value;
use std::collections::BTreeSet;
use std::sync::Mutex;
use telemetry::{names, trace};

/// Serialises tests in this binary: tracing state is process-global.
static TELEMETRY_GUARD: Mutex<()> = Mutex::new(());

const TOKEN: &str = r#"
    contract Token ()
    field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
    field total_supply : Uint128 = Uint128 0
    transition Mint (amount : Uint128)
      b_opt <- balances[_sender];
      b2 = match b_opt with
        | Some b => builtin add b amount
        | None => amount
        end;
      balances[_sender] := b2;
      s <- total_supply;
      s2 = builtin add s amount;
      total_supply := s2
    end
    transition Burn ()
      delete balances[_sender]
    end
"#;

const USERS: u64 = 16;

/// A network with the token deployed under CoSplit sharding and a pool of
/// Mint calls (owner-sharded) plus a few native payments.
fn world() -> (Network, Vec<Transaction>) {
    let mut config = ChainConfig::small(2, true);
    config.audit = false;
    let mut net = Network::new(config);
    let token = Address::from_index(900);
    for i in 0..USERS {
        net.fund_account(Address::from_index(1 + i), 1_000_000);
    }
    net.deploy(token, TOKEN, vec![], Some((&["Mint", "Burn"], WeakReads::AcceptAll)))
        .expect("token deploys");

    let mut pool = Vec::new();
    for i in 0..USERS {
        let user = Address::from_index(1 + i);
        pool.push(Transaction::call(
            100 + i,
            user,
            1,
            token,
            "Mint",
            vec![("amount".into(), Value::Uint(128, 10 + i as u128))],
        ));
    }
    for i in 0..4u64 {
        pool.push(Transaction::payment(
            200 + i,
            Address::from_index(1 + i),
            2,
            Address::from_index(1 + USERS + i),
            50,
        ));
    }
    (net, pool)
}

#[test]
fn traced_epoch_yields_complete_lifecycles_and_a_well_formed_forest() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let (mut net, mut pool) = world();

    trace::set_tracing(true);
    trace::recorder().clear();
    let report = net.run_epoch(&mut pool);
    trace::set_tracing(false);
    let records = trace::recorder().drain();

    assert!(report.committed >= USERS as usize, "the mint batch commits");
    assert!(!records.is_empty(), "the epoch left trace records");
    trace::validate_span_tree(&records).expect("span forest is well-formed");

    // Cross-thread stitching: every executor batch span hangs off the
    // epoch span's subtree, none is an orphan root.
    let epoch_span = records
        .iter()
        .find(|r| r.name == "chain.network.epoch_duration")
        .expect("epoch span recorded");
    let batch_spans: Vec<_> =
        records.iter().filter(|r| r.name == "chain.executor.batch_duration").collect();
    assert!(batch_spans.len() >= 3, "one batch span per committee (2 shards + DS)");
    for b in &batch_spans {
        assert_ne!(b.parent, 0, "shard executor spans adopt the spawning span");
        assert!(b.start_micros >= epoch_span.start_micros);
        assert!(b.end_micros() <= epoch_span.end_micros());
    }

    // Lifecycle coverage: every committed receipt has a complete
    // dispatch→commit chain with a reason attribution.
    let committed_ids: BTreeSet<u64> = report
        .receipts
        .iter()
        .filter(|r| r.status == TxStatus::Success)
        .map(|r| r.tx_id)
        .collect();
    assert_eq!(committed_ids.len(), report.committed);
    let lifecycles = trace::build_lifecycles(&records);
    for id in &committed_ids {
        let lc = lifecycles
            .iter()
            .find(|lc| lc.tx_id == *id)
            .unwrap_or_else(|| panic!("committed tx {id} has no lifecycle"));
        assert!(
            lc.complete_commit_chain(),
            "tx {id}: dispatch(reason)→commit chain incomplete: {lc:?}"
        );
        assert!(lc.dispatch_reason().is_some(), "tx {id} lost its dispatch reason");
        assert!(lc.assignment().is_some(), "tx {id} lost its executor role");
        assert_eq!(lc.outcome(), Some("success"));
    }

    // The Chrome export of a real epoch stays loadable.
    trace::validate_json(&trace::chrome_trace_json(&records)).expect("chrome export parses");
}

/// A ProofIPFS world whose `Register` calls have two-shard footprints
/// (sender account + string-keyed registry component), plus the cross-shard
/// commit stage enabled — the traced epoch must show the full
/// dispatch→prepare→vote→commit hop chain for every such transaction.
fn xshard_world() -> (Network, Vec<Transaction>) {
    let mut config = ChainConfig::small(4, true);
    config.audit = false;
    config.cross_shard_commit = true;
    let mut net = Network::new(config);
    let admin = Address::from_index(999);
    net.fund_account(admin, 1_000_000_000);
    for i in 0..USERS {
        net.fund_account(Address::from_index(1 + i), 1_000_000_000);
    }
    let contract = Address::from_index(901);
    let source = scilla::corpus::get("ProofIPFS").expect("corpus contract").source;
    net.deploy(
        contract,
        source,
        vec![("initial_admin".to_string(), admin.to_value())],
        Some((&["Register"], WeakReads::AcceptAll)),
    )
    .expect("ProofIPFS deploys");

    // One Register per user, each with a hash string scanned until the
    // footprint actually spans shards (dispatches to the xshard stage).
    let pool: Vec<Transaction> = (0..USERS)
        .map(|i| {
            (0..256u32)
                .map(|h| {
                    Transaction::call(
                        300 + i,
                        Address::from_index(1 + i),
                        1,
                        contract,
                        "Register",
                        vec![(
                            "ipfs_hash".into(),
                            Value::Str(format!("Qm{i:030}{h:030}")),
                        )],
                    )
                    .with_amount(10)
                })
                .find(|tx| {
                    chain::dispatch::dispatch(tx, net.state(), net.config()).assignment
                        == chain::dispatch::Assignment::XShard
                })
                .expect("some hash maps off the sender's home shard")
        })
        .collect();
    (net, pool)
}

#[test]
fn cross_shard_commits_leave_complete_prepare_vote_commit_chains() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let (mut net, mut pool) = xshard_world();
    let expected: BTreeSet<u64> = pool.iter().map(|t| t.id).collect();

    trace::set_tracing(true);
    trace::recorder().clear();
    let report = net.run_epoch(&mut pool);
    trace::set_tracing(false);
    let records = trace::recorder().drain();

    assert_eq!(report.committed, expected.len(), "every Register commits: {report:?}");
    trace::validate_span_tree(&records).expect("span forest is well-formed");

    let lifecycles = trace::build_lifecycles(&records);
    for id in &expected {
        let lc = lifecycles
            .iter()
            .find(|lc| lc.tx_id == *id)
            .unwrap_or_else(|| panic!("tx {id} has no lifecycle"));
        assert_eq!(
            lc.assignment(),
            Some("xshard"),
            "tx {id} should ride the cross-shard stage: {lc:?}"
        );
        assert_eq!(lc.dispatch_reason(), Some("xshard"));
        assert!(
            lc.complete_commit_chain(),
            "tx {id}: dispatch→prepare→votes→commit chain incomplete: {lc:?}"
        );
    }

    // The hop chain is real, not vacuous: each transaction voted once per
    // participant (≥ 2 shards each), and the commit hop closed it.
    let votes = records.iter().filter(|r| r.name == names::TX_XSHARD_VOTE).count();
    let commits = records.iter().filter(|r| r.name == names::TX_XSHARD_COMMIT).count();
    assert_eq!(commits, expected.len());
    assert!(
        votes >= 2 * expected.len(),
        "two-shard footprints cast at least two votes each ({votes})"
    );
    assert!(net.lock_table().is_empty(), "the epoch releases every lock");
}

#[test]
fn tracing_off_epoch_records_nothing() {
    let _g = TELEMETRY_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let (mut net, mut pool) = world();

    trace::set_tracing(false);
    trace::recorder().clear();
    let before = telemetry::registry().snapshot();
    let report = net.run_epoch(&mut pool);
    let delta = telemetry::registry().snapshot().diff(&before);

    assert!(report.committed > 0);
    assert!(trace::recorder().is_empty(), "disabled tracing must not buffer records");
    assert_eq!(delta.counter(names::TRACE_RECORDS), 0, "no record was counted");
    assert_eq!(trace::current_span(), 0, "span stack is empty after the epoch");
}
