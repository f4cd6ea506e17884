//! Batch execution of transactions by a shard or by the DS committee.
//!
//! A shard executes its packet sequentially against the epoch-start state
//! snapshot, producing a `MicroBlock` with a [`StateDelta`] (paper Fig. 10).
//! Each transaction runs atomically through a journaled store: on failure
//! its writes are undone, gas is still charged. The DS committee reuses the
//! same executor after the shard deltas merge, with chained contract calls
//! enabled.
//!
//! With `parallel_workers ≥ 2` a shard instead schedules its packet over the
//! per-contract [`ConflictMatrix`]: a pairwise dependency test (the matrix
//! for same-contract calls, account overlap otherwise) builds a DAG, and a
//! work-stealing pool of persistent `std::thread::scope` workers drains its
//! dependency-counted ready queue — no layer barriers, so a long dependency
//! chain no longer gates the independent transactions beside it. Every
//! finished transaction publishes its per-transaction [`StateDelta`] to a
//! shared commit log; a worker claiming new work catches up on peer commits
//! in one batched [`StateDelta::compose_ref`] application per drain. The
//! scheduler only omits an edge when the static analysis proves the pair
//! touches disjoint state — a claimed transaction can therefore only ever
//! observe its dependency ancestors (anything else in the log is provably
//! non-interfering) — so receipts, deltas, and digests stay bit-identical to
//! the serial order regardless of steal order.

use crate::address::Address;
use crate::delta::{
    apply_int_delta, compute_int_delta, read_component, Component, ContractDelta, StateDelta,
};
use crate::dispatch::{component_shard, compose_chain, Assignment};
use cosplit_analysis::callgraph::Recipient;
use crate::tx::{Transaction, TxKind};
use cosplit_analysis::audit::{audit_placement, audit_transition, AuditViolation, ViolationKind};
use cosplit_analysis::conflict::{concrete_pair_conflicts, keyed_accesses, ConflictMatrix};
use cosplit_analysis::signature::Join;
use scilla::builtins::uint_max;
use scilla::error::ExecError;
use scilla::gas::{GasMeter, COST_TX_BASE};
use scilla::intern::Sym;
use scilla::interpreter::{OutMsg, TransitionContext};
use scilla::span::Span;
use scilla::state::{CowState, StateStore};
use scilla::trace::{DynamicFootprint, EffectTracer};
use scilla::value::Value;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::state::{DeployedContract, GlobalState};

/// Execution parameters for one committee in one epoch.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Which committee this is.
    pub role: Assignment,
    /// Total number of transaction shards in the network.
    pub num_shards: u32,
    /// The committee's per-epoch gas budget.
    pub gas_limit: u64,
    /// Current block number.
    pub block_number: u64,
    /// Honour sharding signatures when computing deltas.
    pub use_cosplit: bool,
    /// Enforce the §6 overflow guard on `IntMerge` components.
    pub overflow_guard: bool,
    /// Allow messages to other contracts (DS committee only).
    pub allow_contract_msgs: bool,
    /// Run every transition with the effect tracer and audit its concrete
    /// footprint against the static summary and sharding discipline.
    pub audit: bool,
    /// Worker threads for conflict-matrix-scheduled intra-shard execution.
    /// `0` or `1` keeps the serial path. The parallel scheduler only engages
    /// on shard committees without chained contract calls and without the
    /// overflow guard (the guard reads the cumulative working state, which
    /// is inherently order-dependent across a layer).
    pub parallel_workers: usize,
    /// Follow statically-validated cross-contract send hops in place
    /// instead of rerouting them to the DS committee: a message whose
    /// recipient matches the classified call site that produced it
    /// ([`cosplit_analysis::callgraph`]) executes here, because dispatch
    /// already locked the whole composed chain. Unvalidated hops still
    /// reroute. Also arms the composed-chain containment cross-check in
    /// audit mode.
    pub compose_calls: bool,
}

/// Outcome of one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxStatus {
    /// Committed with its state changes.
    Success,
    /// Committed, state rolled back, gas charged.
    Failed(String),
    /// Re-routed to the DS committee with no state change and no gas
    /// charged: either the §6 overflow guard fired, or the transaction
    /// turned out not to be single-contract (its message chain reaches
    /// another contract, paper §4.3).
    Rerouted(RerouteCause),
}

/// Why a shard handed a transaction to the DS committee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerouteCause {
    /// The §6 overflow guard on an `IntMerge` component fired.
    OverflowGuard,
    /// The transaction sent a message to another contract.
    CrossContract,
}

/// Internal: distinguishes interpreter failures from reroute conditions.
enum CallError {
    Exec(ExecError),
    CrossContract,
}

impl From<ExecError> for CallError {
    fn from(e: ExecError) -> Self {
        CallError::Exec(e)
    }
}

/// A per-transaction receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The transaction.
    pub tx_id: u64,
    /// What happened.
    pub status: TxStatus,
    /// Gas consumed.
    pub gas_used: u64,
    /// Events emitted (empty unless the transaction succeeded).
    pub events: Vec<Value>,
}

/// What one committee produced in one epoch (paper Fig. 10: MicroBlock +
/// StateDelta).
#[derive(Debug, Clone)]
pub struct MicroBlock {
    /// The producing committee.
    pub role: Assignment,
    /// Receipts for processed transactions, in order.
    pub receipts: Vec<Receipt>,
    /// Transactions that did not fit the gas budget (stay in the pool).
    pub deferred: Vec<Transaction>,
    /// Transactions the overflow guard rerouted to the DS committee.
    pub rerouted: Vec<Transaction>,
    /// The state delta.
    pub delta: StateDelta,
    /// Total gas consumed.
    pub gas_used: u64,
    /// Containment breaches found by the effect-trace auditor (empty unless
    /// `ExecutorConfig::audit` is set; non-empty means a static summary
    /// under-approximated a real execution).
    pub audit_violations: Vec<AuditViolation>,
}

impl MicroBlock {
    /// Number of successfully committed transactions.
    pub fn committed(&self) -> usize {
        self.receipts.iter().filter(|r| r.status == TxStatus::Success).count()
    }
}

/// Executes a batch of transactions for one committee against a state
/// snapshot.
pub fn execute_batch(
    cfg: &ExecutorConfig,
    snapshot: &GlobalState,
    txs: Vec<Transaction>,
) -> MicroBlock {
    let mut _span = telemetry::span!("chain.executor.batch_duration");
    _span.attr("role", crate::network::assignment_label(cfg.role));
    _span.attr("txs", txs.len());
    let mut exec = Executor::new(cfg, snapshot);
    let parallel = cfg.parallel_workers >= 2
        && !cfg.overflow_guard
        && !cfg.allow_contract_msgs
        // Composed chains reach other contracts mid-transaction; the
        // pairwise dependency test is per-contract, so keep them serial.
        && !cfg.compose_calls
        && matches!(cfg.role, Assignment::Shard(_));
    if parallel {
        exec.run_parallel(txs);
    } else {
        let mut over_budget = false;
        for tx in txs {
            if over_budget || exec.gas_used + tx.gas_limit > cfg.gas_limit {
                over_budget = true;
                telemetry::trace::instant_with(telemetry::names::TX_DEFER, |a| {
                    a.push(("tx", tx.id.to_string()));
                    a.push(("why", "gas_budget".to_string()));
                });
                exec.deferred.push(tx);
                continue;
            }
            exec.process(tx);
        }
    }
    let mb = exec.finish();
    record_batch_metrics(&mb);
    mb
}

/// Records per-batch outcome counters and the delta-size histogram
/// (`chain.executor.*`).
fn record_batch_metrics(mb: &MicroBlock) {
    if !telemetry::enabled() {
        return;
    }
    let mut success = 0u64;
    let mut failed = 0u64;
    let mut rerouted = 0u64;
    for r in &mb.receipts {
        match &r.status {
            TxStatus::Success => success += 1,
            TxStatus::Failed(_) => failed += 1,
            TxStatus::Rerouted(cause) => {
                rerouted += 1;
                match cause {
                    RerouteCause::OverflowGuard => {
                        telemetry::counter!("chain.executor.reroute.overflow_guard").inc()
                    }
                    RerouteCause::CrossContract => {
                        telemetry::counter!("chain.executor.reroute.cross_contract").inc()
                    }
                }
            }
        }
    }
    telemetry::counter!("chain.executor.tx_status.success").add(success);
    telemetry::counter!("chain.executor.tx_status.failed").add(failed);
    telemetry::counter!("chain.executor.tx_status.rerouted").add(rerouted);
    telemetry::counter!("chain.executor.deferred").add(mb.deferred.len() as u64);
    telemetry::counter!("chain.executor.gas_used").add(mb.gas_used);
    telemetry::histogram!("chain.executor.delta_components", telemetry::SIZE_BUCKETS)
        .record(mb.delta.changed_components() as u64);
}

/// Per-shard balance ledger with slice limits (paper §4.2.2: "splitting a
/// user's balance across shards, with a larger fraction given to the shard
/// handling money transfers from that user").
struct Ledger<'a> {
    snapshot: &'a GlobalState,
    role: Assignment,
    num_shards: u32,
    /// Gross debits, checked against the slice.
    spent: BTreeMap<Address, u128>,
    /// Net changes, reported in the state delta.
    deltas: BTreeMap<Address, i128>,
    /// Prior value of every entry mutated since the last checkpoint, so a
    /// per-transaction rollback is O(mutations) instead of cloning both maps.
    log: Vec<LedgerUndo>,
}

/// One `Ledger` mutation's undo record (`None` = the entry did not exist).
enum LedgerUndo {
    Spent(Address, Option<u128>),
    Delta(Address, Option<i128>),
}

impl Ledger<'_> {
    fn slice(&self, addr: &Address) -> u128 {
        let base = self.snapshot.balance(addr);
        match self.role {
            // The DS committee sees everything; a cross-shard coordinator
            // holds exclusive locks on the accounts its footprint pins, so
            // its prepare also works the full balance.
            Assignment::Ds | Assignment::XShard => base,
            Assignment::Shard(s) => {
                let n = self.num_shards as u128;
                if self.snapshot.is_contract(addr) {
                    // A contract's funds move only in its home shard
                    // (`ContractShard` constraint; placement-aware, so a
                    // co-located family's funds follow its dispatch shard).
                    if self.snapshot.home_shard_of(addr, self.num_shards) == s { base } else { 0 }
                } else {
                    // The away-slice is base/(4n); the home shard keeps the
                    // rest.
                    let away = base / (4 * n);
                    if addr.home_shard(self.num_shards) == s {
                        base - away * (n - 1)
                    } else {
                        away
                    }
                }
            }
        }
    }

    fn debit(&mut self, addr: Address, amount: u128) -> Result<(), String> {
        let prior = self.spent.get(&addr).copied();
        let spent = prior.unwrap_or(0);
        if spent + amount > self.slice(&addr) {
            return Err(format!("insufficient balance slice for {addr}"));
        }
        self.log.push(LedgerUndo::Spent(addr, prior));
        self.spent.insert(addr, spent + amount);
        self.log.push(LedgerUndo::Delta(addr, self.deltas.get(&addr).copied()));
        *self.deltas.entry(addr).or_insert(0) -= amount as i128;
        Ok(())
    }

    fn credit(&mut self, addr: Address, amount: u128) {
        self.log.push(LedgerUndo::Delta(addr, self.deltas.get(&addr).copied()));
        *self.deltas.entry(addr).or_insert(0) += amount as i128;
    }

    fn undo(&mut self, checkpoint: usize) {
        while self.log.len() > checkpoint {
            match self.log.pop().expect("len checked") {
                LedgerUndo::Spent(a, Some(v)) => {
                    self.spent.insert(a, v);
                }
                LedgerUndo::Spent(a, None) => {
                    self.spent.remove(&a);
                }
                LedgerUndo::Delta(a, Some(v)) => {
                    self.deltas.insert(a, v);
                }
                LedgerUndo::Delta(a, None) => {
                    self.deltas.remove(&a);
                }
            }
        }
    }

    fn checkpoint(&self) -> usize {
        self.log.len()
    }
}

/// A shard's working view of one contract's storage, with touched
/// components. The view is a copy-on-write overlay over the epoch-start
/// snapshot: creating it is O(1) and writes land in the overlay, so an
/// epoch's cost is O(touched state), never O(total state).
struct ShardStorage {
    state: CowState,
    touched: BTreeSet<Component>,
    /// Each touched component's value when this executor first wrote it
    /// (recorded at journal commit, on forked pool workers only — their
    /// yields are the sole reader). A worker starts from a clone of the
    /// scheduler's working state, so its priors are the values its yield
    /// delta is computed against.
    priors: BTreeMap<Component, Option<Value>>,
}

/// The frame a message was sent from, as [`Executor::deliver`] needs it to
/// validate the hop against the sender's classified call sites.
struct CallerFrame<'a> {
    contract: Address,
    transition: &'a str,
    args: &'a [(String, Value)],
    sender: Address,
}

/// One audited transition invocation, retained for the pairwise conflict
/// cross-check (populated only when `ExecutorConfig::audit` is set).
struct TracedCall {
    tx_id: u64,
    contract: Address,
    sender: Address,
    origin: Address,
    amount: u128,
    args: Vec<(String, Value)>,
    footprint: DynamicFootprint,
}

/// The per-transaction outputs of one scheduled execution, keyed by packet
/// position so layers can re-assemble them in serial order.
struct TxSlot {
    receipt: Receipt,
    violations: Vec<AuditViolation>,
    traced: Vec<TracedCall>,
    rerouted: Option<Transaction>,
}

struct Executor<'a> {
    cfg: &'a ExecutorConfig,
    snapshot: &'a GlobalState,
    storages: BTreeMap<Address, ShardStorage>,
    balance: Ledger<'a>,
    nonce_committed: BTreeMap<Address, Vec<u64>>,
    receipts: Vec<Receipt>,
    deferred: Vec<Transaction>,
    rerouted: Vec<Transaction>,
    gas_used: u64,
    violations: Vec<AuditViolation>,
    traced: Vec<TracedCall>,
    /// Id of the transaction currently in `process` (tags traced calls).
    current_tx: u64,
    /// On wave workers only: `(sender, committed-nonce count at wave start)`
    /// for every sender that committed a nonce this wave, in commit order,
    /// so the wave yield reports nonces in O(wave) instead of O(accounts).
    yield_nonce_marks: Vec<(Address, usize)>,
    /// Set on forked pool workers; gates `yield_nonce_marks` and
    /// `ShardStorage::priors` tracking.
    track_yield_marks: bool,
    /// Worker label for the per-transaction trace span, set by the parallel
    /// scheduler on its pool workers; `None` on the serial path and the
    /// scheduler itself.
    trace_ctx: Option<usize>,
    /// Wall-clock spent inside this scheduler's parallel regions, and the
    /// per-region maximum of the participants' thread-CPU busy time (the
    /// region's critical path on an unconstrained host). Reported through
    /// telemetry at `finish` so benchmarks can model the batch latency on a
    /// machine with ≥ `parallel_workers` cores even when the host has fewer.
    par_region_wall: Duration,
    par_region_critical: Duration,
}

impl<'a> Executor<'a> {
    fn new(cfg: &'a ExecutorConfig, snapshot: &'a GlobalState) -> Executor<'a> {
        Executor {
            cfg,
            snapshot,
            storages: BTreeMap::new(),
            balance: Ledger {
                snapshot,
                role: cfg.role,
                num_shards: cfg.num_shards,
                spent: BTreeMap::new(),
                deltas: BTreeMap::new(),
                log: Vec::new(),
            },
            nonce_committed: BTreeMap::new(),
            receipts: Vec::new(),
            deferred: Vec::new(),
            rerouted: Vec::new(),
            gas_used: 0,
            violations: Vec::new(),
            traced: Vec::new(),
            current_tx: 0,
            yield_nonce_marks: Vec::new(),
            track_yield_marks: false,
            trace_ctx: None,
            par_region_wall: Duration::ZERO,
            par_region_critical: Duration::ZERO,
        }
    }

    /// A worker executor for one layer: it sees the scheduler's current
    /// working state, spent totals, and committed nonces, but accumulates
    /// its own deltas, receipts, and priors from a clean slate.
    fn fork(&self) -> Executor<'a> {
        Executor {
            cfg: self.cfg,
            snapshot: self.snapshot,
            storages: self
                .storages
                .iter()
                .map(|(addr, s)| {
                    (*addr, ShardStorage {
                        state: s.state.fork(),
                        touched: BTreeSet::new(),
                        priors: BTreeMap::new(),
                    })
                })
                .collect(),
            balance: Ledger {
                snapshot: self.snapshot,
                role: self.cfg.role,
                num_shards: self.cfg.num_shards,
                spent: self.balance.spent.clone(),
                deltas: BTreeMap::new(),
                log: Vec::new(),
            },
            nonce_committed: self.nonce_committed.clone(),
            receipts: Vec::new(),
            deferred: Vec::new(),
            rerouted: Vec::new(),
            gas_used: 0,
            violations: Vec::new(),
            traced: Vec::new(),
            current_tx: 0,
            yield_nonce_marks: Vec::new(),
            track_yield_marks: true,
            trace_ctx: None,
            par_region_wall: Duration::ZERO,
            par_region_critical: Duration::ZERO,
        }
    }

    fn nonce_usable(&self, addr: &Address, nonce: u64) -> bool {
        let base_ok = self
            .snapshot
            .accounts
            .get(addr)
            .map(|a| a.nonces.is_usable(nonce))
            .unwrap_or(nonce > 0);
        base_ok
            && !self
                .nonce_committed
                .get(addr)
                .is_some_and(|ns| ns.contains(&nonce))
    }

    /// Runs one transaction, wrapped in a per-transaction trace span
    /// (`chain.tx.exec`) carrying the committee, worker placement, and the
    /// receipt's outcome. `process_inner` pushes exactly one receipt, so
    /// the outcome is read off `receipts.last()`.
    fn process(&mut self, tx: Transaction) {
        if !telemetry::trace::tracing_enabled() {
            self.process_inner(tx);
            return;
        }
        let mut span = telemetry::span!(telemetry::names::TX_EXEC);
        span.attr("tx", tx.id);
        span.attr("role", crate::network::assignment_label(self.cfg.role));
        if let Some(worker) = self.trace_ctx {
            span.attr("worker", worker);
        }
        self.process_inner(tx);
        if let Some(receipt) = self.receipts.last() {
            let status = match &receipt.status {
                TxStatus::Success => "success".to_string(),
                TxStatus::Failed(e) => format!("failed:{e}"),
                TxStatus::Rerouted(RerouteCause::OverflowGuard) => {
                    "rerouted:overflow_guard".to_string()
                }
                TxStatus::Rerouted(RerouteCause::CrossContract) => {
                    "rerouted:cross_contract".to_string()
                }
            };
            span.attr("status", status);
            span.attr("gas", receipt.gas_used);
        }
    }

    fn process_inner(&mut self, tx: Transaction) {
        self.current_tx = tx.id;
        if !self.nonce_usable(&tx.sender, tx.nonce) {
            self.receipts.push(Receipt {
                tx_id: tx.id,
                status: TxStatus::Failed("nonce already used".into()),
                gas_used: 0,
                events: Vec::new(),
            });
            return;
        }

        // Reserve the full gas budget up front; refund after execution.
        let fee_reserve = tx.gas_limit as u128 * tx.gas_price;
        let ledger_cp = self.balance.checkpoint();
        if self.balance.debit(tx.sender, fee_reserve).is_err() {
            self.receipts.push(Receipt {
                tx_id: tx.id,
                status: TxStatus::Failed("cannot reserve gas".into()),
                gas_used: 0,
                events: Vec::new(),
            });
            return;
        }

        let (status, gas, events) = match &tx.kind {
            TxKind::Payment { to, amount } => {
                let gas = COST_TX_BASE;
                let status = match self.balance.debit(tx.sender, *amount) {
                    Ok(()) => {
                        self.balance.credit(*to, *amount);
                        TxStatus::Success
                    }
                    Err(e) => TxStatus::Failed(e),
                };
                (status, gas, Vec::new())
            }
            TxKind::Call { contract, transition, args, amount } => {
                self.run_call(&tx, *contract, transition, args, *amount)
            }
        };

        if let TxStatus::Rerouted(_) = status {
            // No gas charged; release the reservation and hand the
            // transaction to the DS committee.
            self.balance.undo(ledger_cp);
            self.rerouted.push(tx.clone());
            self.receipts.push(Receipt { tx_id: tx.id, status, gas_used: 0, events: Vec::new() });
            return;
        }

        // Refund unused gas.
        let actual_fee = gas as u128 * tx.gas_price;
        self.balance.credit(tx.sender, fee_reserve.saturating_sub(actual_fee));
        self.gas_used += gas;
        let committed = self.nonce_committed.entry(tx.sender).or_default();
        if self.track_yield_marks {
            self.yield_nonce_marks.push((tx.sender, committed.len()));
        }
        committed.push(tx.nonce);
        self.receipts.push(Receipt { tx_id: tx.id, status, gas_used: gas, events });
    }

    fn run_call(
        &mut self,
        tx: &Transaction,
        contract: Address,
        transition: &str,
        args: &[(String, Value)],
        amount: u128,
    ) -> (TxStatus, u64, Vec<Value>) {
        let mut gas = GasMeter::new(tx.gas_limit.saturating_sub(COST_TX_BASE));
        let ledger_cp = self.balance.checkpoint();
        let mut journal = TxJournal::default();
        let mut events = Vec::new();
        let result = self.invoke(
            &mut journal,
            &mut gas,
            &mut events,
            tx.sender,
            tx.sender,
            contract,
            transition,
            args,
            amount,
            0,
        );
        let gas_total = COST_TX_BASE + gas.used();
        match result {
            Ok(()) => {
                if self.cfg.overflow_guard
                    && self.overflow_violation(&journal).is_some() {
                        journal.rollback(&mut self.storages);
                        self.balance.undo(ledger_cp);
                        return (TxStatus::Rerouted(RerouteCause::OverflowGuard), 0, Vec::new());
                    }
                journal.commit(&mut self.storages, self.track_yield_marks);
                (TxStatus::Success, gas_total, events)
            }
            Err(CallError::CrossContract) => {
                // The conservative single-contract check failed at runtime:
                // hand the whole transaction to the DS committee.
                journal.rollback(&mut self.storages);
                self.balance.undo(ledger_cp);
                (TxStatus::Rerouted(RerouteCause::CrossContract), 0, Vec::new())
            }
            Err(CallError::Exec(e)) => {
                journal.rollback(&mut self.storages);
                // The checkpoint was taken after the fee reservation, so
                // undoing restores exactly the reserved-fee ledger state.
                self.balance.undo(ledger_cp);
                (TxStatus::Failed(e.to_string()), gas_total, Vec::new())
            }
        }
    }

    /// Executes one transition invocation, recursing into messages sent to
    /// other contracts (DS committee only).
    #[allow(clippy::too_many_arguments)]
    fn invoke(
        &mut self,
        journal: &mut TxJournal,
        gas: &mut GasMeter,
        events: &mut Vec<Value>,
        origin: Address,
        sender: Address,
        contract: Address,
        transition: &str,
        args: &[(String, Value)],
        amount: u128,
        depth: u32,
    ) -> Result<(), CallError> {
        if depth > 4 {
            return Err(ExecError::BadInvocation("message chain too deep".into()).into());
        }
        let deployed = self
            .snapshot
            .contracts
            .get(&contract)
            .cloned()
            .ok_or_else(|| ExecError::BadInvocation(format!("no contract at {contract}")))?;

        self.ensure_storage(contract);
        let ctx = TransitionContext {
            sender: sender.0,
            origin: origin.0,
            amount,
            this_address: contract.0,
            block_number: self.cfg.block_number,
        };

        let (outcome, footprint) = {
            let storage = self.storages.get_mut(&contract).expect("ensured above");
            let mut store = JournaledStore { contract, inner: &mut storage.state, journal };
            if self.cfg.audit {
                let mut tracer = EffectTracer::new(transition);
                let out = deployed
                    .compiled
                    .execute_traced(
                        &mut store,
                        transition,
                        args,
                        &deployed.params,
                        &ctx,
                        gas,
                        &mut tracer,
                    )
                    .map_err(CallError::Exec)?;
                (out, Some(tracer.finish()))
            } else {
                let out = deployed
                    .compiled
                    .execute(&mut store, transition, args, &deployed.params, &ctx, gas)
                    .map_err(CallError::Exec)?;
                (out, None)
            }
        };
        if let Some(fp) = footprint {
            self.audit_invocation(&deployed, &fp, args, &ctx);
            self.traced.push(TracedCall {
                tx_id: self.current_tx,
                contract,
                sender,
                origin,
                amount,
                args: args.to_vec(),
                footprint: fp,
            });
        }

        if outcome.accepted && amount > 0 {
            self.balance
                .debit(sender, amount)
                .map_err(|e| CallError::Exec(ExecError::InsufficientFunds(e)))?;
            self.balance.credit(contract, amount);
        }
        events.extend(outcome.events);

        for msg in outcome.messages {
            self.deliver(
                journal,
                gas,
                events,
                origin,
                CallerFrame { contract, transition, args, sender },
                &msg,
                depth,
            )?;
        }
        Ok(())
    }

    /// Audits one traced invocation: containment of the concrete footprint
    /// in the static summary, plus the sharding-placement discipline when
    /// this committee is a shard and the contract carries a signature.
    fn audit_invocation(
        &mut self,
        deployed: &DeployedContract,
        fp: &DynamicFootprint,
        args: &[(String, Value)],
        ctx: &TransitionContext,
    ) {
        if telemetry::enabled() {
            telemetry::counter!(telemetry::names::AUDIT_TRACED).inc();
        }
        let resolve = |name: &str| -> Option<Value> {
            match name {
                "_sender" => Some(Value::address(ctx.sender)),
                "_origin" => Some(Value::address(ctx.origin)),
                "_amount" => Some(Value::Uint(128, ctx.amount)),
                "_this_address" => Some(Value::address(ctx.this_address)),
                _ => args
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.clone())
                    .or_else(|| deployed.param(name).cloned()),
            }
        };
        let mut found = Vec::new();
        if let Some(summary) = deployed.summary(&fp.transition) {
            found.extend(audit_transition(fp, &summary, &resolve));
        }
        if self.cfg.use_cosplit {
            if let (Assignment::Shard(s), Some(sig)) = (self.cfg.role, &deployed.signature) {
                if let Some(tcons) = sig.transition(&fp.transition) {
                    let contract = deployed.address;
                    let shard_of = |field: &str, keys: &[Value]| {
                        component_shard(contract, field, keys, self.cfg.num_shards)
                    };
                    found.extend(audit_placement(fp, sig, tcons, s, &shard_of));
                }
            }
        }
        if telemetry::enabled() && !found.is_empty() {
            telemetry::counter!(telemetry::names::AUDIT_VIOLATION).add(found.len() as u64);
        }
        self.violations.extend(found);
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        journal: &mut TxJournal,
        gas: &mut GasMeter,
        events: &mut Vec<Value>,
        origin: Address,
        from: CallerFrame<'_>,
        msg: &OutMsg,
        depth: u32,
    ) -> Result<(), CallError> {
        let recipient = Address(msg.recipient);
        if self.snapshot.is_contract(&recipient) {
            // A shard may follow the hop in place only when dispatch could
            // have predicted it: the message must match a statically
            // classified call site of the sending transition whose resolved
            // recipient is this recipient. Everything else reroutes to DS.
            let may_follow = self.cfg.allow_contract_msgs
                || (self.cfg.compose_calls && self.hop_allowed(&from, msg, recipient));
            if !may_follow {
                return Err(CallError::CrossContract);
            }
            let args: Vec<(String, Value)> =
                msg.params.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            return self.invoke(
                journal,
                gas,
                events,
                origin,
                from.contract,
                recipient,
                &msg.tag,
                &args,
                msg.amount,
                depth + 1,
            );
        }
        if msg.amount > 0 {
            self.balance
                .debit(from.contract, msg.amount)
                .map_err(|e| CallError::Exec(ExecError::InsufficientFunds(e)))?;
            self.balance.credit(recipient, msg.amount);
        }
        Ok(())
    }

    /// Validates one concrete send hop against the sender's classified call
    /// sites: some site of the sending transition must carry this tag and
    /// resolve — through deployment parameters, immutable init fields, or
    /// the caller's own frame — to exactly this recipient. This is the
    /// runtime re-check of the resolution dispatch composed over, so a
    /// contract whose behaviour diverges from its static call graph (stale
    /// summaries, byzantine code) falls back to DS instead of executing an
    /// unlocked hop.
    fn hop_allowed(&self, from: &CallerFrame<'_>, msg: &OutMsg, recipient: Address) -> bool {
        let Some(deployed) = self.snapshot.contracts.get(&from.contract) else {
            return false;
        };
        let info = deployed.call_info();
        let allowed = info.sites_of(from.transition).any(|site| {
            if site.tag.as_deref() != Some(&msg.tag) {
                return false;
            }
            let resolved = match &site.recipient {
                Recipient::Literal(c) => Address::from_hex(c).ok().map(Address::to_value),
                Recipient::ContractParam(p) => deployed.param(p).cloned(),
                Recipient::InitField(f) => self
                    .snapshot
                    .storage
                    .get(&from.contract)
                    .and_then(|s| s.fields().get(f).cloned()),
                Recipient::TransitionParam(p) => match p.as_str() {
                    "_sender" => Some(from.sender.to_value()),
                    "_origin" => None, // origin is never a contract's frame value here
                    _ => from.args.iter().find(|(n, _)| n == p).map(|(_, v)| v.clone()),
                },
                Recipient::Dynamic => None,
            };
            resolved.as_ref().and_then(Value::as_address) == Some(recipient.0)
        });
        allowed
    }

    fn ensure_storage(&mut self, contract: Address) {
        self.storages.entry(contract).or_insert_with(|| ShardStorage {
            // O(1): the epoch-start store is Arc-shared, not copied; all
            // writes land in the CowState overlay.
            state: self
                .snapshot
                .storage
                .get(&contract)
                .map(|base| CowState::new(Arc::clone(base)))
                .unwrap_or_default(),
            touched: BTreeSet::new(),
            priors: BTreeMap::new(),
        });
    }

    /// The §6 overflow guard: for every `IntMerge` component the *current
    /// transaction* touched, the shard's cumulative positive delta (which
    /// includes earlier committed transactions, via the working state) must
    /// not exceed `⌊(MAX − v)/N⌋` of the epoch-start value `v`.
    fn overflow_violation(&self, journal: &TxJournal) -> Option<Component> {
        // The DS committee serialises against merged state; the cross-shard
        // stage likewise commits each prepare into global state before the
        // next, so neither needs the N-way headroom split.
        if matches!(self.cfg.role, Assignment::Ds | Assignment::XShard) {
            return None;
        }
        for (addr, comp) in &journal.touched {
            {
                let Some(joins) = self.joins_of(addr) else { continue };
                let Some(storage) = self.storages.get(addr) else { continue };
                if joins.get(comp.0.as_str()) != Some(&Join::IntMerge) {
                    continue;
                }
                let base_storage = self.snapshot.storage.get(addr);
                let initial: u128 = match base_storage.and_then(|s| read_component(s.as_ref(), comp))
                {
                    Some(Value::Uint(_, n)) => n,
                    None => 0,
                    // A non-integer epoch-start value cannot be guarded;
                    // force the conservative path.
                    Some(_) => return Some(comp.clone()),
                };
                let (now, width) = match read_component(&storage.state, comp) {
                    Some(Value::Uint(w, n)) => (n, w),
                    _ => continue,
                };
                let headroom = uint_max(width).saturating_sub(initial);
                let allowance = headroom / self.cfg.num_shards as u128;
                if now > initial && now - initial > allowance {
                    return Some(comp.clone());
                }
            }
        }
        None
    }

    fn joins_of(&self, contract: &Address) -> Option<&BTreeMap<String, Join>> {
        if !self.cfg.use_cosplit {
            return None;
        }
        self.snapshot
            .contracts
            .get(contract)
            .and_then(|d| d.signature.as_ref())
            .map(|s| &s.joins)
    }

    // ------------------------------------------------------------ parallel

    /// Conflict-matrix-scheduled execution of one packet (the tentpole).
    ///
    /// Gas admission mirrors the serial loop exactly: a window of
    /// transactions is admitted while the sum of their gas *limits* still
    /// fits the remaining budget — so every admitted transaction would also
    /// have passed the serial per-transaction check — and after the window
    /// commits, the next transaction is re-tested against the *actual* gas
    /// used. The first transaction that cannot fit defers itself and, as in
    /// the serial path, everything behind it.
    fn run_parallel(&mut self, txs: Vec<Transaction>) {
        if telemetry::enabled() {
            telemetry::counter!(telemetry::names::PARALLEL_BATCHES).inc();
        }
        let mut pending: VecDeque<Transaction> = txs.into();
        let mut over_budget = false;
        while let Some(front) = pending.front() {
            if over_budget || self.gas_used + front.gas_limit > self.cfg.gas_limit {
                over_budget = true;
                let tx = pending.pop_front().expect("front exists");
                telemetry::trace::instant_with(telemetry::names::TX_DEFER, |a| {
                    a.push(("tx", tx.id.to_string()));
                    a.push(("why", "gas_budget".to_string()));
                });
                self.deferred.push(tx);
                continue;
            }
            let mut window = Vec::new();
            let mut planned = self.gas_used;
            while let Some(tx) = pending.front() {
                if planned + tx.gas_limit > self.cfg.gas_limit {
                    break;
                }
                planned += tx.gas_limit;
                window.push(pending.pop_front().expect("front exists"));
            }
            self.run_window(window);
        }
    }

    /// Executes one gas-admitted window: build the dependency DAG, drain it
    /// with a work-stealing worker pool, and re-assemble every
    /// per-transaction output in packet order.
    fn run_window(&mut self, window: Vec<Transaction>) {
        let dag = {
            let nodes: Vec<TxNode> =
                window.iter().map(|tx| TxNode::of(tx, self.snapshot)).collect();
            // An edge j → k (j earlier in the packet) exists iff the pair
            // interferes. "No edge" is a *symmetric* no-interference
            // guarantee, so a later-packet transaction may safely overtake
            // an earlier one: neither side reads, writes, or debits anything
            // the other touches, hence both receipts and the final state
            // match the serial packet order.
            dag_window(&nodes)
        };
        if telemetry::enabled() {
            let num_layers = dag.layer.iter().max().map_or(0, |m| m + 1);
            telemetry::histogram!(telemetry::names::PARALLEL_LAYERS, telemetry::SIZE_BUCKETS)
                .record(num_layers as u64);
            let mut widths = vec![0u64; num_layers];
            for l in &dag.layer {
                widths[*l] += 1;
            }
            for w in widths {
                telemetry::histogram!(
                    telemetry::names::PARALLEL_LAYER_WIDTH,
                    telemetry::SIZE_BUCKETS
                )
                .record(w);
            }
        }

        // A window that is one long dependency chain has no parallelism to
        // mine; run it inline and skip the worker forks entirely.
        let max_width = {
            let num_layers = dag.layer.iter().max().map_or(0, |m| m + 1);
            let mut widths = vec![0usize; num_layers];
            for l in &dag.layer {
                widths[*l] += 1;
            }
            widths.into_iter().max().unwrap_or(0)
        };
        if max_width <= 1 {
            for tx in window {
                self.process(tx);
            }
            return;
        }

        let num_txs = window.len();
        let mut slots: Vec<Option<TxSlot>> = Vec::new();
        slots.resize_with(num_txs, || None);
        // More workers than the DAG's widest antichain can never all be
        // busy; forking them would only copy state for nothing.
        let num_workers = self.cfg.parallel_workers.min(max_width).max(2);
        let mut workers: Vec<Executor<'a>> = (0..num_workers).map(|_| self.fork()).collect();

        let shared = WsShared {
            q: Mutex::new(WsQueue {
                window: window.into_iter().map(Some).collect(),
                npreds: dag.npreds,
                succs: dag.succs,
                // Seed with every dependency-free transaction, reversed so
                // the LIFO pop hands out packet order first.
                ready: Vec::new(),
                remaining: num_txs,
                log: Vec::new(),
                busy: vec![Duration::ZERO; num_txs],
            }),
            cv: Condvar::new(),
        };
        {
            let mut q = shared.q.lock().expect("queue lock");
            let roots: Vec<usize> = (0..num_txs).filter(|&k| q.npreds[k] == 0).collect();
            q.ready.extend(roots.into_iter().rev().map(|k| (k, usize::MAX)));
        }

        // Drain the DAG on scoped worker threads. Workers are fresh threads
        // with empty span stacks; nest their per-transaction spans under the
        // batch span running on this thread.
        let trace_parent = telemetry::trace::current_span();
        let wall = Instant::now();
        let outs: Vec<Vec<(usize, TxSlot)>> = std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(wi, w)| {
                    scope.spawn(move || {
                        let _adopt = telemetry::trace::adopt_parent(trace_parent);
                        ws_worker(w, wi, shared)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("window worker panicked")).collect()
        });
        let wall = wall.elapsed();

        for out in outs {
            for (k, slot) in out {
                slots[k] = Some(slot);
            }
        }
        let q = shared.q.into_inner().expect("workers exited");
        debug_assert_eq!(q.remaining, 0, "every transaction committed");

        // The window's critical path: per-transaction busy time composed
        // along the longest dependency chain. Edges run from lower to higher
        // packet index, so index order is already topological. This is the
        // batch latency a host with ≥ `num_workers` free cores would see;
        // the wall clock on a smaller host adds preemption stalls.
        let mut crit = q.busy.clone();
        let mut best = Duration::ZERO;
        for k in 0..num_txs {
            for &s in &q.succs[k] {
                let through = crit[k] + q.busy[s];
                if through > crit[s] {
                    crit[s] = through;
                }
            }
            best = best.max(crit[k]);
        }
        self.par_region_wall += wall;
        self.par_region_critical += best.min(wall);

        // Fold the whole commit log into the scheduler's working state in
        // one batched pass: compose the per-transaction deltas in commit
        // order (conflicting entries were dependency-sequenced, commuting
        // entries compose in any order) and apply the net effect once.
        let commits: Vec<&StateDelta> = q.log.iter().map(|c| &c.delta).collect();
        let batch = StateDelta::compose_ref(commits);
        self.apply_commit_delta(&batch);
        for c in &q.log {
            for (addr, v) in &c.spent {
                *self.balance.spent.entry(*addr).or_insert(0) += v;
            }
            self.gas_used += c.gas;
        }

        for slot in slots.into_iter().flatten() {
            self.receipts.push(slot.receipt);
            self.violations.extend(slot.violations);
            self.traced.extend(slot.traced);
            if let Some(tx) = slot.rerouted {
                self.rerouted.push(tx);
            }
        }
    }

    /// Runs one transaction and captures its outputs as a slot instead of
    /// leaving them appended to the executor's running vectors.
    fn process_slotted(&mut self, tx: Transaction) -> TxSlot {
        let v0 = self.violations.len();
        let t0 = self.traced.len();
        let r0 = self.rerouted.len();
        self.process(tx);
        TxSlot {
            receipt: self.receipts.pop().expect("process pushes one receipt"),
            violations: self.violations.split_off(v0),
            traced: self.traced.split_off(t0),
            rerouted: if self.rerouted.len() > r0 { self.rerouted.pop() } else { None },
        }
    }

    /// Yields a pool worker's contribution since the last yield — a
    /// [`StateDelta`] (integer deltas wherever the change is a plain
    /// add/sub, overwrites otherwise), the gross spent increments, and the
    /// gas it consumed — and resets the tracking so the next yield reports
    /// only its own work. Called once per committed transaction, this is the
    /// commit-log entry the work-stealing pool publishes. The worker's
    /// balance deltas are yield-local (`debit` never consults them), so
    /// taking the whole map is exact; `spent` is cumulative and stays.
    /// Everything is reconstructed from journals scoped to the yield
    /// (touched components, nonce marks, the ledger's undo log), so a yield
    /// costs O(work since the last yield), not O(accounts touched since the
    /// window began).
    fn take_yield(&mut self) -> (StateDelta, BTreeMap<Address, u128>, u64) {
        let mut delta = StateDelta::new();
        for (addr, storage) in &mut self.storages {
            if storage.touched.is_empty() {
                continue;
            }
            let mut cd = ContractDelta::default();
            for comp in &storage.touched {
                let final_v = read_component(&storage.state, comp);
                let prior = storage.priors.get(comp).cloned().flatten();
                let id = final_v.as_ref().and_then(|v| compute_int_delta(prior.as_ref(), v));
                match id {
                    Some(id) => {
                        cd.int_deltas.insert(comp.clone(), id);
                    }
                    None => {
                        cd.overwrites.insert(comp.clone(), final_v);
                    }
                }
            }
            storage.touched.clear();
            storage.priors.clear();
            delta.contracts.insert(*addr, cd);
        }
        delta.balances = std::mem::take(&mut self.balance.deltas);
        // The first `Spent` undo record per address carries its yield-start
        // gross total (later records only re-confirm it).
        let mut spent_base: BTreeMap<Address, u128> = BTreeMap::new();
        for entry in &self.balance.log {
            if let LedgerUndo::Spent(addr, prior) = entry {
                spent_base.entry(*addr).or_insert(prior.unwrap_or(0));
            }
        }
        self.balance.log.clear();
        let mut spent_diff = BTreeMap::new();
        for (addr, base) in spent_base {
            let cur = self.balance.spent.get(&addr).copied().unwrap_or(0);
            if cur > base {
                spent_diff.insert(addr, cur - base);
            }
        }
        // Likewise, the first nonce mark per sender carries its yield-start
        // committed count.
        for (addr, start) in std::mem::take(&mut self.yield_nonce_marks) {
            if delta.nonces.contains_key(&addr) {
                continue;
            }
            let ns = &self.nonce_committed[&addr];
            if ns.len() > start {
                delta.nonces.insert(addr, ns[start..].to_vec());
            }
        }
        (delta, spent_diff, std::mem::take(&mut self.gas_used))
    }

    /// Applies a batch of peer commits to this worker's working copy so the
    /// next claimed transaction starts from every ancestor's state.
    /// Deliberately does *not* record anything as touched: peer writes are
    /// context, not this worker's contribution, and must not resurface in
    /// its next yield. (Peer balance deltas are skipped outright — worker
    /// deltas are per-transaction and nothing on the worker reads them.)
    fn sync_peer_delta(&mut self, delta: &StateDelta, spent_diff: &BTreeMap<Address, u128>) {
        for (addr, cd) in &delta.contracts {
            self.ensure_storage(*addr);
            let storage = self.storages.get_mut(addr).expect("ensured above");
            for (comp, id) in &cd.int_deltas {
                let cur = read_component(&storage.state, comp);
                let new = apply_int_delta(cur.as_ref(), id).expect("peer commit applies");
                write_component(&mut storage.state, comp, Some(new));
            }
            for (comp, val) in &cd.overwrites {
                write_component(&mut storage.state, comp, val.clone());
            }
        }
        for (addr, ns) in &delta.nonces {
            self.nonce_committed.entry(*addr).or_default().extend(ns.iter().copied());
        }
        for (addr, v) in spent_diff {
            *self.balance.spent.entry(*addr).or_insert(0) += v;
        }
    }

    /// Applies the window's composed commit log onto the scheduler's working
    /// state. Integer deltas add onto the scheduler's window-start values —
    /// exactly the priors they compose over — and overwrites carry each
    /// component's final value, so one application reproduces the log.
    fn apply_commit_delta(&mut self, delta: &StateDelta) {
        for (addr, cd) in &delta.contracts {
            self.ensure_storage(*addr);
            let storage = self.storages.get_mut(addr).expect("ensured above");
            for (comp, id) in &cd.int_deltas {
                let cur = read_component(&storage.state, comp);
                let new = apply_int_delta(cur.as_ref(), id).expect("commit delta applies");
                write_component(&mut storage.state, comp, Some(new));
                storage.touched.insert(comp.clone());
            }
            for (comp, val) in &cd.overwrites {
                write_component(&mut storage.state, comp, val.clone());
                storage.touched.insert(comp.clone());
            }
        }
        for (addr, d) in &delta.balances {
            *self.balance.deltas.entry(*addr).or_insert(0) += d;
        }
        for (addr, ns) in &delta.nonces {
            self.nonce_committed.entry(*addr).or_default().extend(ns.iter().copied());
        }
    }

    /// Satellite cross-check (audit mode): every pair of traced invocations
    /// whose *concrete* footprints interfere must also be flagged by the
    /// static conflict matrix under the pair's concrete bindings — otherwise
    /// the parallel scheduler could have run them in the same layer.
    /// Invocations of the same transaction are exempt (a chained call
    /// interfering with its own caller is sequenced by the interpreter, not
    /// the scheduler).
    fn conflict_cross_check(&mut self) {
        if self.traced.len() < 2 {
            return;
        }
        let mut found = Vec::new();
        for i in 0..self.traced.len() {
            for j in i + 1..self.traced.len() {
                let (a, b) = (&self.traced[i], &self.traced[j]);
                if a.contract != b.contract || a.tx_id == b.tx_id {
                    continue;
                }
                let Some(clash) = concrete_pair_conflicts(&a.footprint, &b.footprint) else {
                    continue;
                };
                let Some(deployed) = self.snapshot.contracts.get(&a.contract) else {
                    continue;
                };
                let matrix = deployed.conflict_matrix();
                let bind_a = trace_binding(a, deployed);
                let bind_b = trace_binding(b, deployed);
                if matrix.conflicts_concrete(
                    &a.footprint.transition,
                    &bind_a,
                    &b.footprint.transition,
                    &bind_b,
                ) {
                    continue;
                }
                found.push(AuditViolation {
                    kind: ViolationKind::ConflictMissed,
                    transition: a.footprint.transition.clone(),
                    pseudofield: None,
                    concrete: format!(
                        "pair with '{}' (tx {} vs tx {}): {clash}",
                        b.footprint.transition, a.tx_id, b.tx_id
                    ),
                    abstract_op: None,
                    observed_op: None,
                    span: Span::default(),
                });
            }
        }
        if telemetry::enabled() && !found.is_empty() {
            telemetry::counter!(telemetry::names::AUDIT_VIOLATION).add(found.len() as u64);
        }
        self.violations.extend(found);
    }

    /// Composed-chain containment cross-check (audit + compose mode): for
    /// every traced transaction whose invocations span several contracts,
    /// re-run the interprocedural composition from the root frame and
    /// require every executed frame to appear in the composed callee set.
    /// An escape means a chain executed a hop the static call graph did not
    /// predict — the locks dispatch took did not cover it.
    fn composed_cross_check(&mut self) {
        if !self.cfg.compose_calls || self.traced.is_empty() {
            return;
        }
        let mut found = Vec::new();
        let mut i = 0;
        while i < self.traced.len() {
            let mut j = i + 1;
            while j < self.traced.len() && self.traced[j].tx_id == self.traced[i].tx_id {
                j += 1;
            }
            let group = &self.traced[i..j];
            i = j;
            // Root-frame trace order: the root is pushed before its
            // messages deliver, so it is first in the group.
            let root = &group[0];
            if !group.iter().any(|t| t.contract != root.contract) {
                continue; // single-contract: nothing composed to check.
            }
            let Some(deployed) = self.snapshot.contracts.get(&root.contract) else { continue };
            let composed = compose_chain(
                self.snapshot,
                deployed,
                &root.footprint.transition,
                &root.args,
                root.sender,
            );
            // No claim to check: composition declined or widened to ⊤, so
            // dispatch never routed this chain shard-locally.
            let Some(composed) = composed.filter(|c| !c.widened) else { continue };
            for frame in &group[1..] {
                let contract = frame.contract.to_string();
                if composed.contains(&contract, &frame.footprint.transition) {
                    continue;
                }
                found.push(AuditViolation {
                    kind: ViolationKind::ComposedEscape,
                    transition: root.footprint.transition.clone(),
                    pseudofield: None,
                    concrete: format!(
                        "tx {} reached {}.{} outside the composed callee set",
                        root.tx_id, contract, frame.footprint.transition
                    ),
                    abstract_op: None,
                    observed_op: None,
                    span: Span::default(),
                });
            }
        }
        if telemetry::enabled() && !found.is_empty() {
            telemetry::counter!(telemetry::names::AUDIT_VIOLATION).add(found.len() as u64);
        }
        self.violations.extend(found);
    }

    fn finish(mut self) -> MicroBlock {
        self.conflict_cross_check();
        self.composed_cross_check();
        if telemetry::enabled() && self.par_region_wall > Duration::ZERO {
            telemetry::counter!(telemetry::names::PARALLEL_REGION_WALL)
                .add(self.par_region_wall.as_micros() as u64);
            telemetry::counter!(telemetry::names::PARALLEL_REGION_CRITICAL)
                .add(self.par_region_critical.as_micros() as u64);
        }
        let mut delta = StateDelta::new();
        for (addr, storage) in &self.storages {
            if storage.touched.is_empty() {
                continue;
            }
            let joins = self.joins_of(addr).cloned().unwrap_or_default();
            let base = self.snapshot.storage.get(addr);
            let mut cd = ContractDelta::default();
            for comp in &storage.touched {
                let final_v = read_component(&storage.state, comp);
                let merge = joins.get(comp.0.as_str()) == Some(&Join::IntMerge);
                let delta = match (&final_v, merge) {
                    (Some(v), true) => {
                        let initial = base.and_then(|s| read_component(s.as_ref(), comp));
                        compute_int_delta(initial.as_ref(), v)
                    }
                    _ => None,
                };
                match delta {
                    Some(id) => {
                        cd.int_deltas.insert(comp.clone(), id);
                    }
                    // Non-integer, shape-changing, or out-of-i128-range
                    // changes fall back to an overwrite; under a correct
                    // signature only one shard can produce them.
                    None => {
                        cd.overwrites.insert(comp.clone(), final_v);
                    }
                }
            }
            delta.contracts.insert(*addr, cd);
        }
        delta.balances = self.balance.deltas.iter().filter(|(_, d)| **d != 0).map(|(a, d)| (*a, *d)).collect();
        delta.nonces = std::mem::take(&mut self.nonce_committed);

        MicroBlock {
            role: self.cfg.role,
            receipts: self.receipts,
            deferred: self.deferred,
            rerouted: self.rerouted,
            delta,
            gas_used: self.gas_used,
            audit_violations: self.violations,
        }
    }
}

/// The undo log shared by all invocations of one transaction (chained calls
/// roll back together — transitions are atomic, paper §3.1).
#[derive(Default)]
struct TxJournal {
    /// (contract, component, prior value) in write order.
    undo: Vec<(Address, Component, Option<Value>)>,
    /// Components written by this transaction.
    touched: Vec<(Address, Component)>,
}

impl TxJournal {
    /// Folds a committed transaction's writes into the storages. Priors are
    /// recorded only when `track_priors` is set (forked pool workers, whose
    /// `take_yield` reads them); serial batches skip the per-write insert.
    fn commit(self, storages: &mut BTreeMap<Address, ShardStorage>, track_priors: bool) {
        // The first undo entry per component carries the value it had before
        // this executor ever wrote it — a layer worker turns those into its
        // against-layer-start delta.
        if track_priors {
            for (addr, comp, prior) in self.undo {
                if let Some(s) = storages.get_mut(&addr) {
                    s.priors.entry(comp).or_insert(prior);
                }
            }
        }
        for (addr, comp) in self.touched {
            if let Some(s) = storages.get_mut(&addr) {
                s.touched.insert(comp);
            }
        }
    }

    fn rollback(self, storages: &mut BTreeMap<Address, ShardStorage>) {
        for (addr, comp, prior) in self.undo.into_iter().rev() {
            let Some(s) = storages.get_mut(&addr) else { continue };
            let (field, keys) = &comp;
            match prior {
                Some(v) => {
                    if keys.is_empty() {
                        s.state.store_sym(*field, v);
                    } else {
                        s.state.map_update_sym(*field, keys, v);
                    }
                }
                None => {
                    if keys.is_empty() {
                        s.state.remove_field(field.as_str());
                    } else {
                        s.state.map_delete_sym(*field, keys);
                    }
                }
            }
        }
    }
}

/// A [`StateStore`] view that records undo information and touched
/// components into the transaction journal.
struct JournaledStore<'a, 'j> {
    contract: Address,
    inner: &'a mut CowState,
    journal: &'j mut TxJournal,
}

impl JournaledStore<'_, '_> {
    fn record(&mut self, field: Sym, keys: &[Value]) {
        // The field side of the component is a `Copy` symbol; only the key
        // path is owned. (Writes used to clone the field string per call —
        // `chain.state.hot_clones` counts any remaining owned-name copies.)
        let comp: Component = (field, keys.to_vec());
        let prior = read_component(self.inner, &comp);
        self.journal.undo.push((self.contract, comp.clone(), prior));
        self.journal.touched.push((self.contract, comp));
    }
}

/// Marks one string-name state access on the transaction hot path: the
/// caller paid a per-call intern (an owned-name allocation) that the
/// `Sym`-threaded pipeline avoids. Zero across a workload proves the hot
/// path is clone-free; see [`telemetry::names::STATE_HOT_CLONES`].
fn count_hot_clone() {
    if telemetry::enabled() {
        telemetry::counter!(telemetry::names::STATE_HOT_CLONES).inc();
    }
}

impl StateStore for JournaledStore<'_, '_> {
    fn load(&self, field: &str) -> Option<Value> {
        count_hot_clone();
        self.load_sym(scilla::intern::intern(field))
    }

    fn store(&mut self, field: &str, value: Value) {
        count_hot_clone();
        self.store_sym(scilla::intern::intern(field), value);
    }

    fn map_get(&self, field: &str, keys: &[Value]) -> Option<Value> {
        count_hot_clone();
        self.map_get_sym(scilla::intern::intern(field), keys)
    }

    fn map_update(&mut self, field: &str, keys: &[Value], value: Value) {
        count_hot_clone();
        self.map_update_sym(scilla::intern::intern(field), keys, value);
    }

    fn map_exists(&self, field: &str, keys: &[Value]) -> bool {
        count_hot_clone();
        self.map_exists_sym(scilla::intern::intern(field), keys)
    }

    fn map_delete(&mut self, field: &str, keys: &[Value]) {
        count_hot_clone();
        self.map_delete_sym(scilla::intern::intern(field), keys);
    }

    fn load_sym(&self, field: Sym) -> Option<Value> {
        self.inner.load_sym(field)
    }

    fn store_sym(&mut self, field: Sym, value: Value) {
        self.record(field, &[]);
        self.inner.store_sym(field, value);
    }

    fn map_get_sym(&self, field: Sym, keys: &[Value]) -> Option<Value> {
        self.inner.map_get_sym(field, keys)
    }

    fn map_update_sym(&mut self, field: Sym, keys: &[Value], value: Value) {
        self.record(field, keys);
        self.inner.map_update_sym(field, keys, value);
    }

    fn map_exists_sym(&self, field: Sym, keys: &[Value]) -> bool {
        self.inner.map_exists_sym(field, keys)
    }

    fn map_delete_sym(&mut self, field: Sym, keys: &[Value]) {
        self.record(field, keys);
        self.inner.map_delete_sym(field, keys);
    }
}

/// The calling thread's consumed CPU time (`CLOCK_THREAD_CPUTIME_ID`),
/// queried straight through the vDSO to keep the crate free of a libc
/// dependency. Returns zero if the clock is unavailable, which only skews
/// the *modelled* speedup telemetry, never execution results.
fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable struct with `struct timespec`'s
    // layout on every 64-bit Linux ABI.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Duration::new(ts.sec as u64, ts.nsec as u32)
    } else {
        Duration::ZERO
    }
}

/// Scheduling metadata for one transaction in a parallel window.
struct TxNode<'t> {
    tx: &'t Transaction,
    /// For contract calls: the deployed contract and its conflict matrix.
    call: Option<(Arc<DeployedContract>, Arc<ConflictMatrix>)>,
}

impl<'t> TxNode<'t> {
    fn of(tx: &'t Transaction, snapshot: &GlobalState) -> TxNode<'t> {
        let call = match &tx.kind {
            TxKind::Call { contract, .. } => {
                snapshot.contracts.get(contract).map(|d| (Arc::clone(d), d.conflict_matrix()))
            }
            TxKind::Payment { .. } => None,
        };
        TxNode { tx, call }
    }
}

/// The interference DAG of one window. Vertices are packet indices; an edge
/// `j → k` (always `j < k`, so packet order is a topological order) means the
/// pair interferes and `k` must observe `j`'s commit before it runs.
struct WindowDag {
    /// Outgoing edges per vertex, each target strictly greater.
    succs: Vec<Vec<usize>>,
    /// Incoming edge count per vertex (the scheduler's ready countdown).
    npreds: Vec<usize>,
    /// Longest-path depth per vertex — kept for width/depth telemetry and
    /// the inline-serial fast path, not for scheduling.
    layer: Vec<usize>,
}

/// Builds every window transaction's dependency edges without testing all
/// `O(n²)` pairs: each transaction is only paired against *candidates* pulled
/// from token indices, and [`depends`] stays the authority on every candidate
/// pair. Token generation over-approximates `depends` (see the bucket
/// catalogue on [`CandidateIndex`]), so the resulting edge set is identical
/// to the exhaustive double loop — a transaction with no shared token shares
/// no sender, no account, and (via the matrix's verdict structure) no static
/// conflict or aliasing key clash with the other side.
fn dag_window(nodes: &[TxNode]) -> WindowDag {
    let mut scheds: BTreeMap<Address, ContractSched> = BTreeMap::new();
    for node in nodes {
        if let (TxKind::Call { contract, .. }, Some((deployed, matrix))) =
            (&node.tx.kind, &node.call)
        {
            scheds.entry(*contract).or_insert_with(|| ContractSched::of(deployed, matrix));
        }
    }
    let tokens: Vec<TxTokens> = nodes.iter().map(|nd| TxTokens::of(nd, &scheds)).collect();

    let mut index = CandidateIndex::default();
    let n = nodes.len();
    let mut succs = vec![Vec::new(); n];
    let mut npreds = vec![0usize; n];
    let mut layer = vec![0usize; n];
    // Dedup marker: a candidate surfacing from several buckets is tested once.
    let mut seen = vec![usize::MAX; n];
    for k in 0..n {
        let mut lk = 0usize;
        index.consult(&nodes[k], &tokens[k], &scheds, |j| {
            if seen[j] != k {
                seen[j] = k;
                // Unlike pure layering, *every* interfering predecessor
                // matters here — the ready countdown needs the full edge
                // set, so there is no layer-based skip.
                if depends(&nodes[j], &nodes[k]) {
                    succs[j].push(k);
                    npreds[k] += 1;
                    lk = lk.max(layer[j] + 1);
                }
            }
        });
        layer[k] = lk;
        index.insert(k, &nodes[k], &tokens[k]);
    }
    for s in &mut succs {
        s.sort_unstable();
    }
    WindowDag { succs, npreds, layer }
}

/// One committed transaction's published effect: the state delta it wrote,
/// the gross spent increments it charged, and the gas it burned, tagged with
/// the worker that produced it so workers skip re-applying their own work.
struct WsCommit {
    worker: usize,
    delta: StateDelta,
    spent: BTreeMap<Address, u128>,
    gas: u64,
}

/// The mutex-guarded heart of the work-stealing pool. One lock guards the
/// whole struct; workers hold it only for queue pops and commit pushes —
/// every transaction execution and every peer-delta application happens
/// outside it.
struct WsQueue {
    /// The window's transactions, taken (exactly once) as they are claimed.
    window: Vec<Option<Transaction>>,
    /// Per-transaction countdown of uncommitted interfering predecessors.
    npreds: Vec<usize>,
    /// Dependency successors (edges to strictly higher packet indices).
    succs: Vec<Vec<usize>>,
    /// Dependency-free transactions awaiting a worker, as `(packet index,
    /// releasing worker)` — `usize::MAX` for the window's roots. LIFO: a
    /// worker preferentially continues the chain it just unblocked.
    ready: Vec<(usize, usize)>,
    /// Transactions not yet committed; `0` means the window is drained.
    remaining: usize,
    /// Commit log in commit order. Arc'd so workers can snapshot an unseen
    /// suffix under the lock and apply it after releasing it.
    log: Vec<Arc<WsCommit>>,
    /// Per-transaction thread-CPU busy time, for critical-path modelling.
    busy: Vec<Duration>,
}

struct WsShared {
    q: Mutex<WsQueue>,
    cv: Condvar,
}

/// One worker's drain loop: claim a ready transaction (preferring work this
/// worker just unblocked, stealing from the shared queue otherwise), catch up
/// on peer commits in one batched composed apply, execute, publish the
/// commit, and release any newly dependency-free successors. Returns the
/// per-transaction output slots this worker produced, keyed by packet index.
///
/// Correctness of the lazy catch-up: a transaction becomes ready only after
/// every interfering predecessor has *committed to the log*, so whatever log
/// prefix exists at claim time contains all of its dependency ancestors.
/// Entries from non-interfering transactions touch disjoint state, so
/// applying them (or already holding residual writes from this worker's own
/// unrelated work) cannot change the claimed transaction's execution.
fn ws_worker(w: &mut Executor<'_>, wi: usize, shared: &WsShared) -> Vec<(usize, TxSlot)> {
    w.trace_ctx = Some(wi);
    let mut out: Vec<(usize, TxSlot)> = Vec::new();
    // Commit-log prefix this worker has already observed.
    let mut applied = 0usize;
    // A successor this worker unblocked and reserved for itself.
    let mut next: Option<(usize, usize)> = None;
    loop {
        let (k, origin, tx, fresh) = {
            let mut q = shared.q.lock().expect("ws queue lock");
            let (k, origin) = loop {
                if let Some(claimed) = next.take().or_else(|| q.ready.pop()) {
                    break claimed;
                }
                if q.remaining == 0 {
                    return out;
                }
                q = shared.cv.wait(q).expect("ws queue lock");
            };
            let tx = q.window[k].take().expect("transaction claimed exactly once");
            let fresh: Vec<Arc<WsCommit>> = q.log[applied..].to_vec();
            applied = q.log.len();
            (k, origin, tx, fresh)
        };
        if telemetry::enabled() {
            if origin == wi {
                telemetry::counter!("chain.executor.ws.local_pops").inc();
            } else {
                telemetry::counter!("chain.executor.ws.steals").inc();
            }
        }

        // Catch up on peer commits outside the lock: compose the unseen
        // suffix into one batched delta and apply it once, instead of one
        // full state pass per peer transaction.
        let peers: Vec<&Arc<WsCommit>> = fresh.iter().filter(|c| c.worker != wi).collect();
        if !peers.is_empty() {
            if telemetry::enabled() {
                telemetry::counter!("chain.executor.ws.drains").inc();
                telemetry::counter!("chain.executor.ws.drained_deltas")
                    .add(peers.len() as u64);
            }
            let batch = StateDelta::compose_ref(peers.iter().map(|c| &c.delta));
            let mut spent: BTreeMap<Address, u128> = BTreeMap::new();
            for c in &peers {
                for (addr, v) in &c.spent {
                    *spent.entry(*addr).or_insert(0) += v;
                }
            }
            w.sync_peer_delta(&batch, &spent);
        }

        let cpu0 = thread_cpu_time();
        let slot = w.process_slotted(tx);
        let (delta, spent, gas) = w.take_yield();
        let busy = thread_cpu_time().saturating_sub(cpu0);
        out.push((k, slot));

        {
            let mut q = shared.q.lock().expect("ws queue lock");
            q.log.push(Arc::new(WsCommit { worker: wi, delta, spent, gas }));
            q.busy[k] = busy;
            q.remaining -= 1;
            let mut newly: Vec<usize> = Vec::new();
            let WsQueue { succs, npreds, .. } = &mut *q;
            for &s in &succs[k] {
                npreds[s] -= 1;
                if npreds[s] == 0 {
                    newly.push(s);
                }
            }
            // Keep the lowest newly-ready successor for ourselves (its
            // ancestors' effects are already in our working state); publish
            // the rest, reversed so the LIFO pop hands out packet order.
            let mut it = newly.into_iter();
            next = it.next().map(|s| (s, wi));
            let rest: Vec<usize> = it.collect();
            for &s in rest.iter().rev() {
                q.ready.push((s, wi));
            }
            shared.cv.notify_all();
        }
    }
}

/// Per-contract scheduling tables, derived once per window.
struct ContractSched {
    /// For each matrix row: the rows whose verdict against it is a static
    /// `Conflict`. Those pairs depend for *every* argument binding, so the
    /// candidate test needs no key values — transition identity is enough.
    conflict_peers: Vec<Vec<usize>>,
    /// For each matrix row: the keyed `(field hash, key params)` accesses of
    /// the transition's summary (the clash vocabulary of its verdicts).
    accesses: Vec<Vec<(u64, Vec<String>)>>,
}

impl ContractSched {
    fn of(deployed: &DeployedContract, matrix: &ConflictMatrix) -> ContractSched {
        let n = matrix.len();
        let mut conflict_peers = vec![Vec::new(); n];
        for (i, peers) in conflict_peers.iter_mut().enumerate() {
            for j in 0..n {
                if matrix.verdict_at(i, j).is_conflict() {
                    peers.push(j);
                }
            }
        }
        let summaries = deployed.summaries();
        let accesses = matrix
            .transitions
            .iter()
            .map(|t| {
                summaries
                    .iter()
                    .find(|s| &s.name == t)
                    .map(|s| {
                        keyed_accesses(s)
                            .into_iter()
                            .map(|(field, keys)| (fnv_bytes(FNV_OFFSET, field.as_bytes()), keys))
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect();
        ContractSched { conflict_peers, accesses }
    }
}

/// FNV-1a, used to render token cells as fixed-width hashes instead of
/// allocated strings. Hash collisions only ever surface *spurious*
/// candidates — [`depends`] re-checks every candidate pair — so the cheap
/// non-cryptographic hash is sound here.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// Structural hash of one resolved key value: equal values hash equal (the
/// property the cell-token match relies on — a `CommuteUnless` clash fires
/// only when both sides resolved equal key tuples), with a variant tag per
/// arm so distinct values separate at FNV odds.
fn fnv_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Int(bits, x) => {
            fnv_bytes(fnv_u64(fnv_u64(h, 1), u64::from(*bits)), &x.to_le_bytes())
        }
        Value::Uint(bits, x) => {
            fnv_bytes(fnv_u64(fnv_u64(h, 2), u64::from(*bits)), &x.to_le_bytes())
        }
        Value::Str(s) => fnv_bytes(fnv_u64(h, 3), s.as_bytes()),
        Value::ByStr(bs) => fnv_bytes(fnv_u64(h, 4), bs),
        Value::BNum(n) => fnv_u64(fnv_u64(h, 5), *n),
        Value::Map(m) => {
            let mut h = fnv_u64(h, 6);
            for (k, val) in m.iter() {
                h = fnv_value(fnv_value(h, k), val);
            }
            h
        }
        Value::Adt { ctor, args } => {
            let mut h = fnv_bytes(fnv_u64(h, 7), ctor.as_str().as_bytes());
            for a in args {
                h = fnv_value(h, a);
            }
            h
        }
        // Closures and messages never appear as map keys in practice; lump
        // them into one bucket (over-approximation stays sound).
        _ => fnv_u64(h, 8),
    }
}

/// The index tokens of one transaction. Tokens only prune candidates; they
/// must over-approximate [`depends`], never refine it.
#[derive(Default)]
struct TxTokens {
    /// Matrix row of the called transition, when the matrix knows it.
    row: Option<usize>,
    /// Call the analysis cannot vouch for (unknown contract or transition):
    /// conservatively pairs with every call on the same contract.
    serial: bool,
    /// Resolved concrete cells, one hash per keyed access whose key tuple
    /// fully resolves under the call's binding. A `CommuteUnless` clash fires
    /// only when both sides resolve one of their tuples to equal values — in
    /// which case both rendered the same cell hash.
    cells: Vec<u64>,
    /// Field hashes of keyed accesses (paired against unresolved peers).
    fields: Vec<u64>,
    /// Fields with an unresolvable key: the clash cannot be refuted, so pair
    /// with every transaction touching the field.
    unresolved: Vec<u64>,
}

impl TxTokens {
    fn of(node: &TxNode, scheds: &BTreeMap<Address, ContractSched>) -> TxTokens {
        let TxKind::Call { contract, transition, args, amount } = &node.tx.kind else {
            return TxTokens::default();
        };
        let Some((deployed, matrix)) = &node.call else {
            return TxTokens { serial: true, ..TxTokens::default() };
        };
        let Some(row) = matrix.index_of(transition) else {
            return TxTokens { serial: true, ..TxTokens::default() };
        };
        let sched = &scheds[contract];
        let bind = call_binding(node.tx.sender, *contract, *amount, args, deployed);
        let mut out = TxTokens { row: Some(row), ..TxTokens::default() };
        for (field_h, keys) in &sched.accesses[row] {
            if !out.fields.contains(field_h) {
                out.fields.push(*field_h);
            }
            let mut cell = fnv_u64(*field_h, keys.len() as u64);
            let mut resolved = true;
            for k in keys {
                match bind(k) {
                    Some(v) => cell = fnv_value(cell, &v),
                    None => {
                        resolved = false;
                        break;
                    }
                }
            }
            if resolved {
                out.cells.push(cell);
            } else if !out.unresolved.contains(field_h) {
                out.unresolved.push(*field_h);
            }
        }
        out.cells.sort_unstable();
        out.cells.dedup();
        out
    }
}

/// Token buckets mapping each dependency source of [`depends`] to a narrow
/// candidate list:
///
/// * same sender → `by_sender`;
/// * account overlap (payments, and the cross-contract / mixed cases) →
///   `by_account` (payment endpoints and call senders) × `by_call` (the
///   contract address a call debits);
/// * same-contract calls → the matrix decomposition: static `Conflict`
///   verdicts via `by_row` (per-transition lists), key clashes via `by_cell`
///   (fires ⇒ both sides rendered the identical cell) with `by_field` /
///   `by_field_unresolved` catching unresolvable keys, and `by_call` /
///   `by_call_serial` pairing calls the analysis cannot vouch for with
///   everything on their contract.
///
/// Same-contract call pairs deliberately do *not* meet through the contract's
/// own account entry (that would re-create the quadratic scan); their funds
/// movement is a `NativeFunds` matrix conflict, covered by `by_row`.
#[derive(Default)]
struct CandidateIndex {
    by_sender: BTreeMap<Address, Vec<usize>>,
    by_account: BTreeMap<Address, Vec<usize>>,
    by_call: BTreeMap<Address, Vec<usize>>,
    by_call_serial: BTreeMap<Address, Vec<usize>>,
    by_row: BTreeMap<(Address, usize), Vec<usize>>,
    by_cell: BTreeMap<(Address, u64), Vec<usize>>,
    by_field: BTreeMap<(Address, u64), Vec<usize>>,
    by_field_unresolved: BTreeMap<(Address, u64), Vec<usize>>,
}

impl CandidateIndex {
    fn consult(
        &self,
        node: &TxNode,
        t: &TxTokens,
        scheds: &BTreeMap<Address, ContractSched>,
        mut visit: impl FnMut(usize),
    ) {
        let mut scan = |list: Option<&Vec<usize>>| {
            for &j in list.into_iter().flatten() {
                visit(j);
            }
        };
        scan(self.by_sender.get(&node.tx.sender));
        match &node.tx.kind {
            TxKind::Payment { to, .. } => {
                for acc in [node.tx.sender, *to] {
                    scan(self.by_account.get(&acc));
                    scan(self.by_call.get(&acc));
                }
            }
            TxKind::Call { contract, .. } => {
                scan(self.by_account.get(&node.tx.sender));
                scan(self.by_call.get(&node.tx.sender));
                scan(self.by_account.get(contract));
                if t.serial {
                    scan(self.by_call.get(contract));
                    return;
                }
                scan(self.by_call_serial.get(contract));
                let row = t.row.expect("non-serial call has a matrix row");
                for &p in &scheds[contract].conflict_peers[row] {
                    scan(self.by_row.get(&(*contract, p)));
                }
                for cell in &t.cells {
                    scan(self.by_cell.get(&(*contract, *cell)));
                }
                for f in &t.fields {
                    scan(self.by_field_unresolved.get(&(*contract, *f)));
                }
                for f in &t.unresolved {
                    scan(self.by_field.get(&(*contract, *f)));
                }
            }
        }
    }

    fn insert(&mut self, k: usize, node: &TxNode, t: &TxTokens) {
        self.by_sender.entry(node.tx.sender).or_default().push(k);
        match &node.tx.kind {
            TxKind::Payment { to, .. } => {
                self.by_account.entry(node.tx.sender).or_default().push(k);
                self.by_account.entry(*to).or_default().push(k);
            }
            TxKind::Call { contract, .. } => {
                self.by_account.entry(node.tx.sender).or_default().push(k);
                self.by_call.entry(*contract).or_default().push(k);
                if t.serial {
                    self.by_call_serial.entry(*contract).or_default().push(k);
                    return;
                }
                let row = t.row.expect("non-serial call has a matrix row");
                self.by_row.entry((*contract, row)).or_default().push(k);
                for cell in &t.cells {
                    self.by_cell.entry((*contract, *cell)).or_default().push(k);
                }
                for f in &t.fields {
                    self.by_field.entry((*contract, *f)).or_default().push(k);
                }
                for f in &t.unresolved {
                    self.by_field_unresolved.entry((*contract, *f)).or_default().push(k);
                }
            }
        }
    }
}

/// The protocol accounts a transaction can directly debit or credit (the
/// conservative non-matrix dependency test).
fn tx_accounts(tx: &Transaction) -> [Address; 2] {
    match &tx.kind {
        TxKind::Payment { to, .. } => [tx.sender, *to],
        TxKind::Call { contract, .. } => [tx.sender, *contract],
    }
}

/// Must the two transactions observe each other's effects? Same-sender pairs
/// always depend (nonce sequencing and fee accounting). Calls into the same
/// contract consult the conflict matrix under the pair's concrete argument
/// bindings — a funds-moving transition is a matrix conflict, so a commuting
/// verdict also proves the contract's own balance is untouched. Everything
/// else falls back to sender/recipient account overlap.
fn depends(a: &TxNode, b: &TxNode) -> bool {
    if a.tx.sender == b.tx.sender {
        return true;
    }
    if let (
        TxKind::Call { contract: ca, transition: ta, args: args_a, amount: amt_a },
        TxKind::Call { contract: cb, transition: tb, args: args_b, amount: amt_b },
    ) = (&a.tx.kind, &b.tx.kind)
    {
        if ca == cb {
            let Some((deployed, matrix)) = &a.call else {
                // Unknown contract: both calls fail without touching state,
                // but stay conservative.
                return true;
            };
            let bind_a = call_binding(a.tx.sender, *ca, *amt_a, args_a, deployed);
            let bind_b = call_binding(b.tx.sender, *cb, *amt_b, args_b, deployed);
            return matrix.conflicts_concrete(ta, &bind_a, tb, &bind_b);
        }
    }
    let accounts = tx_accounts(a.tx);
    tx_accounts(b.tx).iter().any(|x| accounts.contains(x))
}

/// The implicit-and-explicit parameter binding of a top-level call, shaped
/// for `ConflictMatrix::conflicts_concrete`.
fn call_binding<'t>(
    sender: Address,
    contract: Address,
    amount: u128,
    args: &'t [(String, Value)],
    deployed: &'t DeployedContract,
) -> impl Fn(&str) -> Option<Value> + 't {
    move |name: &str| match name {
        "_sender" | "_origin" => Some(Value::address(sender.0)),
        "_amount" => Some(Value::Uint(128, amount)),
        "_this_address" => Some(Value::address(contract.0)),
        _ => args
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .or_else(|| deployed.param(name).cloned()),
    }
}

/// The binding of one traced invocation (sender and origin may differ for
/// chained calls on the DS committee).
fn trace_binding<'t>(
    call: &'t TracedCall,
    deployed: &'t DeployedContract,
) -> impl Fn(&str) -> Option<Value> + 't {
    move |name: &str| match name {
        "_sender" => Some(Value::address(call.sender.0)),
        "_origin" => Some(Value::address(call.origin.0)),
        "_amount" => Some(Value::Uint(128, call.amount)),
        "_this_address" => Some(Value::address(call.contract.0)),
        _ => call
            .args
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .or_else(|| deployed.param(name).cloned()),
    }
}

/// Writes (or deletes) one component in a working storage.
fn write_component(state: &mut CowState, comp: &Component, value: Option<Value>) {
    let (field, keys) = comp;
    match value {
        Some(v) => {
            if keys.is_empty() {
                state.store_sym(*field, v);
            } else {
                state.map_update_sym(*field, keys, v);
            }
        }
        None => {
            if keys.is_empty() {
                state.remove_field(field.as_str());
            } else {
                state.map_delete_sym(*field, keys);
            }
        }
    }
}
