//! End-to-end telemetry: the `chain.dispatch.reason.*` counters must agree
//! exactly with the [`Decision`]s the dispatcher returns, and running an
//! epoch must populate the executor's status counters and batch-duration
//! histogram.

use chain::address::Address;
use chain::dispatch::{dispatch, Decision};
use chain::network::{ChainConfig, Network};
use chain::tx::Transaction;
use cosplit_analysis::signature::WeakReads;
use scilla::value::Value;
use std::collections::BTreeMap;

const SHARDED: &[&str] = &["Mint", "Transfer"];

fn contract_addr() -> Address {
    Address::from_index(1_000_000)
}

fn owner() -> Address {
    Address::from_index(999)
}

fn setup(num_shards: u32, users: u64) -> Network {
    let mut net = Network::new(ChainConfig::small(num_shards, true));
    net.fund_account(owner(), 1_000_000_000);
    for i in 0..users {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    let params = vec![
        ("contract_owner".to_string(), owner().to_value()),
        ("name".to_string(), Value::Str("Test".into())),
        ("symbol".to_string(), Value::Str("TST".into())),
        ("init_supply".to_string(), Value::Uint(128, 0)),
    ];
    let source = scilla::corpus::get("FungibleToken").unwrap().source;
    net.deploy(contract_addr(), source, params, Some((SHARDED, WeakReads::AcceptAll)))
        .unwrap();
    net
}

fn transfer_tx(id: u64, sender: Address, nonce: u64, to: Address) -> Transaction {
    Transaction::call(
        id,
        sender,
        nonce,
        contract_addr(),
        "Transfer",
        vec![("to".into(), to.to_value()), ("amount".into(), Value::Uint(128, 1))],
    )
}

/// One test function: the registry is process-global, so the scripted
/// dispatch phase and the epoch phase must run sequentially, each measured
/// as a snapshot diff.
#[test]
fn dispatch_counters_match_decisions_and_epoch_populates_executor_metrics() {
    telemetry::set_enabled(true);
    let net = setup(4, 32);

    // --- Scripted dispatch: collect the decisions ourselves and compare
    // with the counter deltas.
    let txs: Vec<Transaction> = (0..32)
        .map(|i| {
            let sender = Address::from_index(i % 8);
            // i % 8 == i % 16 % 8 for targets, so some are self-transfers
            // (alias conflicts), the rest ownership-pinned.
            transfer_tx(i, sender, 1 + i / 8, Address::from_index(i % 16))
        })
        .chain((0..4).map(|i| {
            Transaction::payment(100 + i, Address::from_index(i), 10, Address::from_index(i + 1), 5)
        }))
        .collect();

    let before = telemetry::registry().snapshot();
    let decisions: Vec<Decision> =
        txs.iter().map(|tx| dispatch(tx, net.state(), net.config())).collect();
    let delta = telemetry::registry().snapshot().diff(&before);

    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for d in &decisions {
        *expected.entry(format!("chain.dispatch.reason.{}", d.reason.name())).or_insert(0) += 1;
    }
    assert!(expected.len() >= 2, "workload should exercise several reasons: {expected:?}");
    for (name, count) in &expected {
        assert_eq!(delta.counter(name), *count, "counter {name} disagrees with decisions");
    }
    assert_eq!(
        delta.counter_prefix_sum("chain.dispatch.reason."),
        txs.len() as u64,
        "every dispatch must be attributed to exactly one reason"
    );
    assert_eq!(delta.counter("chain.dispatch.total"), txs.len() as u64);

    // --- A real epoch populates the executor metrics.
    let mut net = net;
    let before = telemetry::registry().snapshot();
    let mut pool = txs;
    let report = net.run_epoch(&mut pool);
    let delta = telemetry::registry().snapshot().diff(&before);

    assert!(report.committed > 0);
    assert_eq!(
        delta.counter("chain.executor.tx_status.success"),
        report.committed as u64,
        "success counter must match the epoch report"
    );
    assert!(
        delta.counter_prefix_sum("chain.executor.tx_status.") > 0,
        "tx_status counters must be populated"
    );
    let batches = delta
        .histograms
        .get("chain.executor.batch_duration")
        .expect("batch duration histogram registered");
    // 4 shard committees + the DS committee ran once each.
    assert_eq!(batches.count, 5);
    assert!(batches.sum > 0, "batch durations must be non-zero");
    assert_eq!(delta.counter("chain.network.epochs"), 1);
    assert!(delta.counter_prefix_sum("scilla.interpreter.transitions") > 0);

    // The epoch's dispatch phase also went through the counters.
    assert_eq!(delta.counter_prefix_sum("chain.dispatch.reason."), pool_dispatched(&report));
}

fn pool_dispatched(report: &chain::network::EpochReport) -> u64 {
    report.dispatch_reasons.values().map(|v| *v as u64).sum()
}
