//! The `transfer` and `register` workloads: a closed loop, driven from one
//! thread, over the staged epoch API — `form_packets` → `execute_shards` →
//! `merge_shard_deltas` → `execute_xshard` → `execute_ds` → `advance_block`.

use crate::report::Report;
use crate::spans::Trace;
use crate::stats::{self, median, ratio};
use chain::executor::{execute_batch, MicroBlock, TxStatus};
use chain::network::{ChainConfig, EpochPackets, Network};
use chain::sim::{differential, reference_config, FaultPlan, SimConfig};
use chain::tx::Transaction;
use chain::xshard::NoFaults;
use scilla::value::Value;
use std::time::Instant;
use workloads::runner::{prepare_with, world_builder};
use workloads::scenarios::{self, contract_addr, Kind};

/// A chain workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which generated scenario feeds the stream.
    pub kind: Kind,
    /// Funded user accounts (token holders or registrants).
    pub holders: u64,
    /// Transactions kept in the pool at every epoch start.
    pub outstanding: usize,
    /// Transaction shards (`ChainConfig::evaluation(shards, true)`).
    pub shards: u32,
    /// Epochs run before measuring, so the pool reaches its steady mix of
    /// fresh and gas-deferred transactions.
    pub warmup_epochs: usize,
    /// Commit rate, tx/s, the pre-generated stream is sized for: about twice
    /// what a 2-core host sustains. A run whose stream runs dry stops
    /// measuring early and says so.
    pub stream_rate: usize,
    /// `prepare_with` repetitions in an untraced run (median reported).
    pub setup_reps: usize,
}

/// FungibleToken `Transfer` between random holders of a 65,536-holder
/// token; about twice the per-epoch capacity (2 × 3,600) outstanding.
pub const TRANSFER: Spec = Spec {
    kind: Kind::FtTransfer,
    holders: 65_536,
    outstanding: 14_400,
    shards: 2,
    warmup_epochs: 3,
    stream_rate: 25_000,
    setup_reps: 3,
};

/// ProofIPFS `Register` over 4,096 users; the outstanding count keeps the
/// DS committee's backlog bounded.
pub const REGISTER: Spec = Spec {
    kind: Kind::IpfsRegister,
    holders: 4_096,
    outstanding: 4_000,
    shards: 2,
    warmup_epochs: 6,
    stream_rate: 36_000,
    setup_reps: 9,
};

/// Measured epochs always run, and the window the exact per-seed counts are
/// taken over.
pub const EXACT_EPOCHS: usize = 8;

/// Transactions of the generated load the differential pass replays.
const DIFF_PREFIX: usize = 2_000;

/// The five stage spans of an epoch, in call order.
pub const STAGES: [&str; 5] = [
    "network.dispatch",
    "network.shard_exec",
    "network.merge",
    "network.xshard",
    "network.ds_exec",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Pooled,
    Committed,
    Failed,
}

/// Counts from one epoch.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch start (the pool top-up).
    pub start: Instant,
    /// Epoch end (after `advance_block` and the accounting).
    pub end: Instant,
    /// Pool size after the top-up.
    pub pooled_at_start: usize,
    /// Transactions dispatched into packets.
    pub drained: usize,
    /// Dispatched to the DS committee's packet.
    pub to_ds: usize,
    /// Dispatched to the cross-shard commit packet.
    pub to_xshard: usize,
    /// Committed receipts.
    pub committed: usize,
    /// Gas-deferred back to the pool.
    pub deferred: usize,
    /// Gas used by every committee.
    pub gas: u64,
    /// State components the shard merge applied.
    pub components: usize,
    /// Receipts from the transaction shards.
    pub shard_receipts: usize,
    /// Receipts from the DS committee.
    pub ds_receipts: usize,
    /// Cross-shard commits and aborts (`XShardBlock::stats`).
    pub xshard_committed: usize,
    /// See `xshard_committed`.
    pub xshard_aborted: usize,
    /// (stream position, latency ms) of every transaction committed.
    pub commits: Vec<(usize, f64)>,
}

impl EpochStats {
    /// Epoch wall time in seconds.
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The closed-loop driver: keeps `outstanding` transactions in the pool at
/// every epoch start, topping up from a pre-generated stream, and tracks
/// every transaction that entered from its first entry to its receipt.
pub struct ClosedLoop<'s> {
    stream: &'s [Transaction],
    first_id: u64,
    outstanding: usize,
    pool: Vec<Transaction>,
    /// Entry time of stream position `i` (positions enter in order).
    entered: Vec<Instant>,
    fate: Vec<Fate>,
}

impl<'s> ClosedLoop<'s> {
    /// A driver over `stream`, whose transaction ids must be consecutive.
    pub fn new(stream: &'s [Transaction], outstanding: usize) -> Result<Self, String> {
        let first_id = stream.first().map_or(0, |t| t.id);
        if let Some((i, t)) = stream
            .iter()
            .enumerate()
            .find(|(i, t)| t.id != first_id + *i as u64)
        {
            return Err(format!(
                "stream position {i} has id {}, ids must be consecutive",
                t.id
            ));
        }
        Ok(ClosedLoop {
            stream,
            first_id,
            outstanding,
            pool: Vec::with_capacity(outstanding),
            entered: Vec::with_capacity(stream.len()),
            fate: Vec::with_capacity(stream.len()),
        })
    }

    /// Transactions that have entered the pool so far.
    pub fn entered(&self) -> usize {
        self.entered.len()
    }

    /// When stream position `pos` first entered the pool.
    #[cfg(test)]
    pub fn entry_time(&self, pos: usize) -> Instant {
        self.entered[pos]
    }

    /// Whether the stream can fill the pool for one more epoch.
    pub fn can_top_up(&self) -> bool {
        self.stream.len() - self.entered.len() >= self.outstanding.saturating_sub(self.pool.len())
    }

    fn top_up(&mut self, now: Instant) {
        let want = self.outstanding.saturating_sub(self.pool.len());
        let from = self.entered.len();
        let to = (from + want).min(self.stream.len());
        self.pool.extend_from_slice(&self.stream[from..to]);
        self.entered.resize(to, now);
        self.fate.resize(to, Fate::Pooled);
    }

    /// Marks the receipt of `tx_id`; errors when it was not pooled.
    fn settle(&mut self, tx_id: u64, fate: Fate) -> Result<usize, String> {
        let pos = tx_id.checked_sub(self.first_id).map(|p| p as usize);
        match pos {
            Some(p) if p < self.fate.len() && self.fate[p] == Fate::Pooled => {
                self.fate[p] = fate;
                Ok(p)
            }
            _ => Err(format!(
                "receipt for tx {tx_id}, which was not waiting in the pool"
            )),
        }
    }

    /// Runs one epoch through the staged API. With `trace`, records a span
    /// around each call and runs the shard stage as its per-shard
    /// `execute_batch` calls (the body of `execute_shards`), so each
    /// shard's batch is timed on its own thread.
    ///
    /// # Errors
    ///
    /// A merge or apply failure, or a receipt that breaks the accounting.
    pub fn epoch(
        &mut self,
        net: &mut Network,
        mut trace: Option<&mut Trace>,
    ) -> Result<EpochStats, String> {
        let start = Instant::now();
        self.top_up(start);
        let block = net.block_number();
        let pooled_at_start = self.pool.len();
        let root = trace
            .as_deref_mut()
            .map(|t| t.record("network.epoch", None, block, pooled_at_start, start, start));
        let span = |trace: &mut Option<&mut Trace>, name, items, from: Instant| {
            if let Some(t) = trace.as_deref_mut() {
                t.record(name, root, block, items, from, Instant::now());
            }
        };

        let t = Instant::now();
        let EpochPackets {
            shard_batches,
            xshard_batch,
            mut ds_batch,
            ..
        } = net.form_packets(&mut self.pool);
        span(&mut trace, STAGES[0], pooled_at_start, t);
        let drained = pooled_at_start - self.pool.len();
        let (to_ds, to_xshard) = (ds_batch.len(), xshard_batch.len());

        let shard_txs = shard_batches.iter().map(Vec::len).sum();
        let t = Instant::now();
        let mut microblocks = match trace.as_deref_mut() {
            Some(tr) => {
                let stage = tr.record(STAGES[1], root, block, shard_txs, t, t);
                let blocks = timed_shards(net, shard_batches, tr, stage, block);
                tr.close(stage, Instant::now());
                blocks
            }
            None => net.execute_shards(shard_batches),
        };

        let t = Instant::now();
        let merged = net.merge_shard_deltas(&microblocks);
        span(&mut trace, STAGES[2], microblocks.len(), t);
        let components = merged.map_err(|e| format!("merge_shard_deltas: {e:?}"))?;

        let xshard_items = xshard_batch.len();
        let t = Instant::now();
        let xshard = net.execute_xshard(xshard_batch, &mut NoFaults);
        span(&mut trace, STAGES[3], xshard_items, t);
        if let Some(e) = xshard.errors.first() {
            return Err(format!("execute_xshard: {e}"));
        }

        ds_batch.extend(xshard.ds_fallback);
        for mb in &mut microblocks {
            ds_batch.append(&mut mb.rerouted);
        }
        let ds_items = ds_batch.len();
        let t = Instant::now();
        let ds = net.execute_ds(ds_batch);
        span(&mut trace, STAGES[4], ds_items, t);
        let ds = ds.map_err(|e| format!("execute_ds: {e:?}"))?;
        net.advance_block();

        let mut st = EpochStats {
            start,
            end: start,
            pooled_at_start,
            drained,
            to_ds,
            to_xshard,
            committed: 0,
            deferred: 0,
            gas: 0,
            components,
            shard_receipts: microblocks.iter().map(|mb| mb.receipts.len()).sum(),
            ds_receipts: ds.receipts.len(),
            xshard_committed: xshard.stats.committed,
            xshard_aborted: xshard.stats.aborted,
            commits: Vec::new(),
        };
        let mut committed = Vec::new();
        for mb in microblocks.into_iter().chain([xshard.block, ds]) {
            self.account(mb, &mut st, &mut committed)?;
        }
        st.end = Instant::now();
        if let (Some(t), Some(root)) = (trace, root) {
            t.close(root, st.end);
        }
        st.commits = committed
            .into_iter()
            .map(|p| (p, (st.end - self.entered[p]).as_secs_f64() * 1e3))
            .collect();
        Ok(st)
    }

    fn account(
        &mut self,
        mb: MicroBlock,
        st: &mut EpochStats,
        committed: &mut Vec<usize>,
    ) -> Result<(), String> {
        st.gas += mb.gas_used;
        for r in &mb.receipts {
            match r.status {
                TxStatus::Success => committed.push(self.settle(r.tx_id, Fate::Committed)?),
                TxStatus::Failed(_) => {
                    self.settle(r.tx_id, Fate::Failed)?;
                }
                // Handed on to the DS committee within this epoch.
                TxStatus::Rerouted(_) => {}
            }
        }
        st.committed = committed.len();
        st.deferred += mb.deferred.len();
        self.pool.extend(mb.deferred);
        Ok(())
    }

    /// Every transaction that entered is committed, failed, or still pooled
    /// — exactly once.
    pub fn check_accounting(&self) -> Result<(), String> {
        let pooled = self.fate.iter().filter(|f| **f == Fate::Pooled).count();
        if pooled != self.pool.len() {
            return Err(format!(
                "{pooled} marked pooled, {} in the pool",
                self.pool.len()
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for t in &self.pool {
            let pos = t.id.checked_sub(self.first_id).map(|p| p as usize);
            match pos {
                Some(p)
                    if p < self.fate.len() && self.fate[p] == Fate::Pooled && seen.insert(p) => {}
                _ => return Err(format!("pooled tx {} is not accounted as waiting", t.id)),
            }
        }
        Ok(())
    }

    /// Transactions that entered and ended with a receipt: (committed, failed).
    pub fn settled(&self) -> (usize, usize) {
        let c = self.fate.iter().filter(|f| **f == Fate::Committed).count();
        let f = self.fate.iter().filter(|f| **f == Fate::Failed).count();
        (c, f)
    }
}

/// `execute_shards` with each shard's `execute_batch` timed on its thread.
fn timed_shards(
    net: &Network,
    batches: Vec<Vec<Transaction>>,
    trace: &mut Trace,
    parent: usize,
    block: u64,
) -> Vec<MicroBlock> {
    let state = net.state();
    let timed: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .enumerate()
            .map(|(s, batch)| {
                let cfg = net.shard_executor_config(s as u32);
                scope.spawn(move || {
                    let items = batch.len();
                    let t0 = Instant::now();
                    let mb = execute_batch(&cfg, state, batch);
                    (mb, items, t0, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    timed
        .into_iter()
        .map(|(mb, items, t0, t1)| {
            trace.record("executor.execute_batch", Some(parent), block, items, t0, t1);
            mb
        })
        .collect()
}

/// One traced epoch's stage times, ms: the five stages, the epoch wall, and
/// the residual the stages leave unattributed.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Stage durations in [`STAGES`] order.
    pub stage_ms: [f64; 5],
    /// Epoch wall.
    pub epoch_ms: f64,
    /// `epoch_ms − Σ stage_ms`.
    pub unattributed_ms: f64,
    /// Per-shard `execute_batch` durations.
    pub shard_ms: Vec<f64>,
}

/// Breaks every traced epoch down into its stages.
pub fn breakdowns(trace: &Trace) -> Vec<Breakdown> {
    trace
        .named("network.epoch")
        .map(|(root, epoch)| {
            let mut stage_ms = [0.0; 5];
            let mut shard_ms = Vec::new();
            for (idx, s) in trace.spans().iter().enumerate() {
                if s.parent != Some(root) {
                    continue;
                }
                if let Some(i) = STAGES.iter().position(|n| *n == s.name) {
                    stage_ms[i] += s.ms();
                }
                if s.name == STAGES[1] {
                    shard_ms.extend(trace.children(idx).map(|c| c.ms()));
                }
            }
            let epoch_ms = epoch.ms();
            let unattributed_ms = epoch_ms - stage_ms.iter().sum::<f64>();
            Breakdown {
                stage_ms,
                epoch_ms,
                unattributed_ms,
                shard_ms,
            }
        })
        .collect()
}

/// Runs a chain workload and fills `report`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Trace {
    let config = ChainConfig::evaluation(spec.shards, true);
    let stream_len =
        spec.outstanding * (spec.warmup_epochs + 2) + (spec.stream_rate as f64 * seconds) as usize;
    let mut scenario = scenarios::build(spec.kind, spec.holders, stream_len, seed);
    report.fact("holders", spec.holders);
    report.fact("outstanding", spec.outstanding);
    report.fact("shards", spec.shards);
    report.fact("stream_txs", scenario.load.len());

    // Set-up: fund, deploy with signature, commit the setup epochs.
    let reps = if traced { 1 } else { spec.setup_reps };
    let mut setup_s = Vec::new();
    let mut net = None;
    for _ in 0..reps {
        drop(net.take());
        let t = Instant::now();
        net = Some(prepare_with(&scenario, config.clone()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut net = net.expect("at least one set-up");

    let mut trace = Trace::new();
    let mut epochs: Vec<EpochStats> = Vec::new();
    let mut traced_epochs = Vec::new();
    let mut stop: Result<(), String> = Ok(());
    let mut loop_ = match ClosedLoop::new(&scenario.load, spec.outstanding) {
        Ok(l) => l,
        Err(e) => {
            report.check("the stream has consecutive transaction ids", Err(e));
            return trace;
        }
    };
    for _ in 0..spec.warmup_epochs {
        if let Err(e) = loop_.epoch(&mut net, None) {
            stop = Err(e);
            break;
        }
    }
    let t0 = Instant::now();
    while stop.is_ok() && (epochs.len() < EXACT_EPOCHS || t0.elapsed().as_secs_f64() < seconds) {
        if !loop_.can_top_up() {
            report.fact("stream_exhausted_after_s", t0.elapsed().as_secs_f64());
            break;
        }
        // A traced run alternates traced and untraced epochs; comparing the
        // two halves gives the tracing overhead.
        let record = traced && epochs.len() % 2 == 1;
        match loop_.epoch(&mut net, if record { Some(&mut trace) } else { None }) {
            Ok(st) => {
                traced_epochs.push(record);
                epochs.push(st);
            }
            Err(e) => stop = Err(e),
        }
    }
    report.fact("measured_epochs", epochs.len());
    report.fact("warmup_epochs", spec.warmup_epochs);
    report.check("merge and DS apply return Ok", stop);
    report.check(
        "every transaction is committed, failed or pooled, once",
        loop_.check_accounting(),
    );
    let (committed_total, failed_total) = loop_.settled();
    report.attempted = loop_.entered() as u64;
    report.failed_ops = failed_total as u64;
    match spec.kind {
        Kind::FtTransfer => report.check("token supply is conserved", supply_conserved(&net, spec)),
        Kind::IpfsRegister => report.check(
            "registry size equals successful Registers",
            registry_matches(&net, committed_total),
        ),
        _ => {}
    }

    chain_metrics(report, &config, &epochs, &traced_epochs);
    if traced {
        layer_metrics(report, &trace, &epochs, &traced_epochs);
        let sources: Vec<&str> = std::iter::once(scenario.corpus_name)
            .chain(scenario.extra.iter().map(|e| e.corpus_name))
            .filter_map(|n| scilla::corpus::get(n).map(|c| c.source))
            .collect();
        match crate::deploy::probe(&sources, 20) {
            Ok(means) => {
                for (name, us) in crate::DEPLOY_LAYERS.iter().zip(means) {
                    report.set(name, us);
                }
            }
            Err(e) => report.check("the workload's contracts deploy", Err(e)),
        }
    } else {
        report.set("setup_s", median(&setup_s));
        report.line("setup_s_samples", setup_s.len() as f64, "count");
    }

    // The differential oracle over a prefix of the same load, outside the
    // timed window. The rest of the stream is released first.
    drop(net);
    scenario.load.truncate(DIFF_PREFIX);
    scenario.load.shrink_to_fit();
    let diff = differential(
        &world_builder(&scenario),
        &scenario.load,
        &config,
        &reference_config(&config),
        &SimConfig::new(seed),
        &FaultPlan::none(),
    );
    report.check(
        "differential pass over a load prefix finds no divergence",
        match diff.divergences.first() {
            None => Ok(()),
            Some(d) => Err(format!(
                "{} divergences, first: {d:?}",
                diff.divergences.len()
            )),
        },
    );
    trace
}

/// End-to-end figures over every measured epoch, and the exact per-seed
/// counts over the first [`EXACT_EPOCHS`].
fn chain_metrics(
    report: &mut Report,
    config: &ChainConfig,
    epochs: &[EpochStats],
    traced: &[bool],
) {
    // The median epoch's commit rate: every epoch of the closed loop does
    // the same work, and the median is robust to bursts of host contention.
    let tps = median(
        &epochs
            .iter()
            .map(|e| ratio(e.committed as f64, e.wall_s()))
            .collect::<Vec<_>>(),
    );
    let mut latency: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.commits.iter().map(|c| c.1))
        .collect();
    latency.sort_by(f64::total_cmp);
    let p50 = stats::quantile(&latency, 0.5).unwrap_or(0.0);
    let p99 = stats::quantile(&latency, 0.99).unwrap_or(0.0);
    report.line("commit_tps", tps, "tx/s");
    report.line("tx_latency_ms_p50", p50, "ms");
    report.line("tx_latency_ms_p99", p99, "ms");
    report.line("tx_latency_samples", latency.len() as f64, "count");
    if let Some(q) = stats::highest_supported(latency.len()) {
        report.fact("tx_latency_tail_percentile", q * 100.0);
        report.line(
            "tx_latency_ms_tail",
            stats::quantile(&latency, q).unwrap_or(0.0),
            "ms",
        );
    }
    report.set("ops_per_s", tps);
    report.set("latency_ms_p50", p50);
    report.set("latency_ms_p99", p99);

    let exact = &epochs[..EXACT_EPOCHS.min(epochs.len())];
    let sum = |f: fn(&EpochStats) -> usize| exact.iter().map(f).sum::<usize>() as f64;
    let n = exact.len() as f64;
    let commits = sum(|e| e.committed);
    let drained = sum(|e| e.drained);
    report.fact("exact_window_epochs", exact.len());
    let sim_tps = ratio(commits, n * config.epoch_duration_secs);
    report.set("sim_tps", sim_tps);
    let counts = [
        (
            "executor.gas_per_commit",
            ratio(exact.iter().map(|e| e.gas as f64).sum(), commits),
        ),
        ("executor.deferred_per_epoch", ratio(sum(|e| e.deferred), n)),
        ("dispatch.drained_per_commit", ratio(drained, commits)),
        (
            "dispatch.ds_permille",
            1e3 * ratio(sum(|e| e.to_ds), drained),
        ),
        (
            "dispatch.xshard_permille",
            1e3 * ratio(sum(|e| e.to_xshard), drained),
        ),
        (
            "merge.components_per_epoch",
            ratio(sum(|e| e.components), n),
        ),
        ("xshard.committed", sum(|e| e.xshard_committed)),
        ("xshard.aborted", sum(|e| e.xshard_aborted)),
    ];
    for (name, v) in counts {
        report.set(name, v);
    }

    // Tracing overhead: commit rate over traced epochs ÷ over untraced ones.
    if traced.iter().any(|t| *t) {
        let rate = |want: bool| {
            let (c, w) = epochs
                .iter()
                .zip(traced)
                .filter(|(_, t)| **t == want)
                .fold((0.0, 0.0), |(c, w), (e, _)| {
                    (c + e.committed as f64, w + e.wall_s())
                });
            ratio(c, w)
        };
        report.set("bench.trace_overhead", ratio(rate(true), rate(false)));
    }
}

/// Per-layer figures from the traced epochs' spans.
fn layer_metrics(report: &mut Report, trace: &Trace, epochs: &[EpochStats], traced: &[bool]) {
    let rows = breakdowns(trace);
    let col = |f: &dyn Fn(&Breakdown) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
    let names = [
        "network.dispatch_ms",
        "network.shard_exec_ms",
        "network.merge_ms",
        "network.xshard_ms",
        "network.ds_exec_ms",
    ];
    for (i, name) in names.into_iter().enumerate() {
        report.set(name, col(&|b| b.stage_ms[i]));
    }
    report.set("network.epoch_ms_p50", col(&|b| b.epoch_ms));
    report.set("network.unattributed_ms", col(&|b| b.unattributed_ms));
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    report.set("executor.shard_busy_ms_max", col(&|b| max(&b.shard_ms)));
    report.set(
        "executor.shard_imbalance",
        col(&|b| {
            ratio(
                max(&b.shard_ms),
                b.shard_ms.iter().sum::<f64>() / b.shard_ms.len().max(1) as f64,
            )
        }),
    );

    let traced_stats: Vec<&EpochStats> = epochs
        .iter()
        .zip(traced)
        .filter(|(_, t)| **t)
        .map(|(e, _)| e)
        .collect();
    let total =
        |f: fn(&EpochStats) -> usize| traced_stats.iter().map(|e| f(e)).sum::<usize>() as f64;
    let stage_us = |i: usize| rows.iter().map(|b| b.stage_ms[i] * 1e3).sum::<f64>();
    let shard_us: f64 = rows.iter().flat_map(|b| b.shard_ms.iter()).sum::<f64>() * 1e3;
    report.set(
        "executor.shard_us_per_tx",
        ratio(shard_us, total(|e| e.shard_receipts)),
    );
    report.set(
        "executor.ds_us_per_tx",
        ratio(stage_us(4), total(|e| e.ds_receipts)),
    );
    report.set(
        "dispatch.us_per_tx",
        ratio(stage_us(0), total(|e| e.pooled_at_start)),
    );
    report.set(
        "merge.us_per_component",
        ratio(stage_us(2), total(|e| e.components)),
    );
}

fn uint(v: Option<&Value>) -> Option<u128> {
    match v {
        Some(Value::Uint(_, n)) => Some(*n),
        _ => None,
    }
}

/// Σ balances = `total_supply` = what the setup minted.
fn supply_conserved(net: &Network, spec: &Spec) -> Result<(), String> {
    let fields = net
        .storage_of(&contract_addr())
        .ok_or("token not deployed")?
        .fields();
    let supply = uint(fields.get("total_supply")).ok_or("no total_supply")?;
    let Some(Value::Map(balances)) = fields.get("balances") else {
        return Err("no balances map".into());
    };
    let sum: u128 = balances.values().map(|v| uint(Some(v)).unwrap_or(0)).sum();
    // The FtTransfer scenario mints 100,000,000 to every holder.
    let minted = u128::from(spec.holders) * 100_000_000;
    if sum == supply && supply == minted {
        Ok(())
    } else {
        Err(format!(
            "Σ balances {sum}, total_supply {supply}, minted {minted}"
        ))
    }
}

/// The registry holds one entry per successful `Register`.
fn registry_matches(net: &Network, registers: usize) -> Result<(), String> {
    let fields = net
        .storage_of(&contract_addr())
        .ok_or("registry not deployed")?
        .fields();
    let size = match fields.get("registry") {
        Some(Value::Map(m)) => m.len(),
        _ => 0,
    };
    if size == registers {
        Ok(())
    } else {
        Err(format!(
            "registry has {size} entries, {registers} Registers committed"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::scenarios::Scenario;

    /// A small token world: 64 holders, the scaled-down chain (≈200
    /// transfers per shard-epoch), so 800 outstanding is about twice the
    /// per-epoch capacity.
    fn world(seed: u64) -> (Scenario, Network) {
        let scenario = scenarios::build(Kind::FtTransfer, 64, 4_000, seed);
        let net = prepare_with(&scenario, ChainConfig::small(2, true));
        (scenario, net)
    }

    #[test]
    fn closed_loop_keeps_outstanding_and_times_deferred_from_first_entry() {
        let (scenario, mut net) = world(3);
        let mut lp = ClosedLoop::new(&scenario.load, 800).unwrap();
        let epochs: Vec<EpochStats> = (0..4).map(|_| lp.epoch(&mut net, None).unwrap()).collect();
        let mut carried = 0;
        for (k, e) in epochs.iter().enumerate() {
            assert_eq!(e.pooled_at_start, 800, "epoch {k}");
            assert!(e.committed > 0 && e.deferred > 0, "epoch {k}: {e:?}");
            for &(pos, ms) in &e.commits {
                let entered = lp.entry_time(pos);
                assert_eq!(ms, (e.end - entered).as_secs_f64() * 1e3);
                if k > 0 && entered <= epochs[k - 1].start {
                    // Gas-deferred at least once: timed from its first entry.
                    carried += 1;
                    assert!(ms > (e.end - epochs[k - 1].start).as_secs_f64() * 1e3 - 1e-9);
                }
            }
        }
        assert!(carried > 0, "no deferred transaction committed later");
        lp.check_accounting().unwrap();
        let (committed, failed) = lp.settled();
        assert_eq!(committed, epochs.iter().map(|e| e.committed).sum::<usize>());
        assert_eq!(failed, 0);
    }

    #[test]
    fn traced_stages_plus_unattributed_add_up_to_epoch_wall() {
        let (scenario, mut net) = world(4);
        let mut lp = ClosedLoop::new(&scenario.load, 800).unwrap();
        let mut trace = Trace::new();
        for _ in 0..3 {
            lp.epoch(&mut net, Some(&mut trace)).unwrap();
        }
        let rows = breakdowns(&trace);
        assert_eq!(rows.len(), 3);
        for b in &rows {
            let sum = b.stage_ms.iter().sum::<f64>() + b.unattributed_ms;
            assert!((sum - b.epoch_ms).abs() < 1e-9, "{b:?}");
            assert!(b.unattributed_ms >= 0.0, "{b:?}");
            assert_eq!(b.shard_ms.len(), 2);
        }
        // The stages are disjoint intervals inside their epoch, one each.
        for (root, epoch) in trace.named("network.epoch") {
            let mut kids: Vec<_> = trace.children(root).collect();
            assert_eq!(kids.len(), STAGES.len());
            kids.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            let mut at = epoch.start_us;
            for k in kids {
                assert!(
                    k.start_us >= at && k.end_us <= epoch.end_us,
                    "{k:?} in {epoch:?}"
                );
                at = k.end_us;
            }
        }
    }

    #[test]
    fn traced_epochs_do_the_same_work() {
        let (scenario, mut plain) = world(5);
        let (_, mut traced) = world(5);
        let mut a = ClosedLoop::new(&scenario.load, 800).unwrap();
        let mut b = ClosedLoop::new(&scenario.load, 800).unwrap();
        let mut trace = Trace::new();
        for _ in 0..3 {
            let x = a.epoch(&mut plain, None).unwrap();
            let y = b.epoch(&mut traced, Some(&mut trace)).unwrap();
            let key = |e: &EpochStats| (e.committed, e.deferred, e.gas, e.components, e.drained);
            assert_eq!(key(&x), key(&y));
        }
        assert_eq!(
            chain::sim::state_digest(&plain),
            chain::sim::state_digest(&traced)
        );
    }
}
