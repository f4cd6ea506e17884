//! The `deploy` workload: the contract corpus in rotation through the
//! deployment pipeline's public stages — parse, type-check, analysis,
//! signature (query every transition, then validate) and lowering.

use crate::report::Report;
use crate::spans::Trace;
use crate::stats::{self, ratio};
use cosplit_analysis::signature::WeakReads;
use cosplit_analysis::solver::AnalyzedContract;
use scilla::interpreter::CompiledContract;
use std::hint::black_box;
use std::time::Instant;

/// The pipeline stages, in order, with their span names.
pub const STAGES: [&str; 5] = [
    "deploy.parse",
    "deploy.typecheck",
    "deploy.analysis",
    "deploy.signature",
    "deploy.lower",
];

/// Runs one contract through every stage. `stamps` receives the stage
/// boundaries (six instants: start, then the end of each stage).
///
/// # Errors
///
/// A stage's failure, or a signature that does not validate.
fn deploy_one(source: &str, stamps: &mut [Instant; 6]) -> Result<(), String> {
    stamps[0] = Instant::now();
    let module = scilla::parser::parse_module(source).map_err(|e| format!("parse: {e:?}"))?;
    stamps[1] = Instant::now();
    let checked =
        scilla::typechecker::typecheck(module).map_err(|e| format!("typecheck: {e:?}"))?;
    stamps[2] = Instant::now();
    let analyzed = AnalyzedContract::analyze(&checked);
    stamps[3] = Instant::now();
    let every: Vec<String> = analyzed.summaries.iter().map(|s| s.name.clone()).collect();
    let signature = analyzed.query(&every, &WeakReads::AcceptAll);
    let valid = analyzed.validate(&signature);
    stamps[4] = Instant::now();
    let compiled = CompiledContract::compile(checked).map_err(|e| format!("compile: {e:?}"))?;
    compiled.precompile();
    stamps[5] = Instant::now();
    black_box((&signature, &compiled));
    if valid {
        Ok(())
    } else {
        Err("signature does not validate".to_string())
    }
}

/// Deploys `source` and, when `trace` is given, records a `deploy` span with
/// one child per stage. Returns the deploy's wall time in ms.
fn deploy_traced(source: &str, seq: u64, trace: Option<&mut Trace>) -> Result<f64, String> {
    let now = Instant::now();
    let mut stamps = [now; 6];
    let outcome = deploy_one(source, &mut stamps);
    if let (Some(trace), Ok(())) = (trace, &outcome) {
        let root = trace.record("deploy", None, seq, 1, stamps[0], stamps[5]);
        for (i, name) in STAGES.iter().enumerate() {
            trace.record(name, Some(root), seq, 1, stamps[i], stamps[i + 1]);
        }
    }
    outcome.map(|()| (stamps[5] - stamps[0]).as_secs_f64() * 1e3)
}

/// Mean µs per contract of each stage, in [`STAGES`] order, over the
/// `deploy` spans in `trace`.
pub fn stage_means(trace: &Trace) -> [f64; 5] {
    let mut sums = [0.0; 5];
    let mut n = 0usize;
    for (idx, _) in trace.named("deploy") {
        n += 1;
        for child in trace.children(idx) {
            if let Some(i) = STAGES.iter().position(|s| *s == child.name) {
                sums[i] += child.us();
            }
        }
    }
    sums.map(|s| ratio(s, n as f64))
}

/// Deploys each of `sources` `reps` times with tracing on and returns the
/// stage means — how the chain workloads report what their own contracts
/// cost to deploy.
pub fn probe(sources: &[&str], reps: usize) -> Result<[f64; 5], String> {
    let mut trace = Trace::new();
    for rep in 0..reps {
        for src in sources {
            deploy_traced(src, rep as u64, Some(&mut trace))?;
        }
    }
    Ok(stage_means(&trace))
}

/// Cold set-up passes, each in its own process.
const COLD_PASSES: usize = 5;

/// The flag that makes the binary run one cold pass and print its time.
pub const COLD_PASS_FLAG: &str = "--cold-pass";

/// One pass over the corpus, starting at contract `seed mod |corpus|`;
/// returns its wall time in seconds.
pub fn cold_pass(seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    for src in rotation(seed) {
        deploy_traced(src, 0, None)?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Runs [`cold_pass`] in a child process of this binary and waits for it.
fn cold_pass_in_child(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([COLD_PASS_FLAG, &seed.to_string()])
        .output()
        .map_err(|e| format!("cold pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!(
            "cold pass failed: {} {}",
            stdout.trim(),
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// The corpus sources in rotation order, starting at `seed mod |corpus|`.
fn rotation(seed: u64) -> Vec<&'static str> {
    let corpus = scilla::corpus::all();
    let start_at = (seed % corpus.len() as u64) as usize;
    (0..corpus.len())
        .map(|i| corpus[(start_at + i) % corpus.len()].source)
        .collect()
}

/// Runs the `deploy` workload. The corpus is fixed, so the seed only picks
/// the contract the rotation starts from. In a traced run every other pass
/// records spans, so the two halves give the tracing overhead.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Trace {
    let rotation = rotation(seed);
    report.fact("contracts", rotation.len());
    report.fact("cold_passes", COLD_PASSES);

    // Set-up: the first, cold pass over the corpus, in fresh processes so
    // that every sample is cold.
    let mut failures = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..COLD_PASSES {
        match cold_pass_in_child(seed) {
            Ok(s) => setup_s.push(s),
            Err(e) => failures.push(e),
        }
    }

    // Measured: whole passes until the time is up.
    let mut trace = Trace::new();
    let mut latency_ms = Vec::new();
    let mut pass_rates = Vec::new();
    // (deploys, seconds) over untraced and traced passes.
    let mut plain = (0usize, 0.0);
    let mut recorded = (0usize, 0.0);
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes < 2 || t0.elapsed().as_secs_f64() < seconds {
        let record = traced && passes % 2 == 1;
        let tp = Instant::now();
        for (i, src) in rotation.iter().enumerate() {
            let seq = passes * rotation.len() as u64 + i as u64;
            match deploy_traced(src, seq, if record { Some(&mut trace) } else { None }) {
                Ok(ms) => latency_ms.push(ms),
                Err(e) => failures.push(e),
            }
        }
        let dt = tp.elapsed().as_secs_f64();
        pass_rates.push(rotation.len() as f64 / dt);
        let side = if record { &mut recorded } else { &mut plain };
        side.0 += rotation.len();
        side.1 += dt;
        passes += 1;
    }
    let measured = passes as usize * rotation.len();
    report.attempted = (measured + COLD_PASSES * rotation.len()) as u64;
    report.failed_ops = failures.len() as u64;
    report.fact("measured_passes", passes);
    report.check(
        "every corpus contract deploys and its signature validates",
        match failures.first() {
            None => Ok(()),
            Some(e) => Err(format!("{} failures, first: {e}", failures.len())),
        },
    );

    latency_ms.sort_by(f64::total_cmp);
    let p50 = stats::quantile(&latency_ms, 0.5).unwrap_or(0.0);
    let p99 = stats::quantile(&latency_ms, 0.99).unwrap_or(0.0);
    // The median pass's rate, robust to bursts of host contention.
    let per_s = stats::median(&pass_rates);
    report.line("deploys_per_s", per_s, "1/s");
    report.line("deploy_ms_p50", p50, "ms");
    report.line("deploy_ms_p99", p99, "ms");
    report.line("deploy_samples", latency_ms.len() as f64, "count");
    if let Some(q) = stats::highest_supported(latency_ms.len()) {
        report.fact("deploy_ms_tail_percentile", q * 100.0);
        report.line(
            "deploy_ms_tail",
            stats::quantile(&latency_ms, q).unwrap_or(0.0),
            "ms",
        );
    }
    report.set("setup_s", stats::median(&setup_s));
    report.set("ops_per_s", per_s);
    report.set("latency_ms_p50", p50);
    report.set("latency_ms_p99", p99);
    if traced {
        for (name, us) in crate::DEPLOY_LAYERS.iter().zip(stage_means(&trace)) {
            report.set(name, us);
        }
        report.set(
            "bench.trace_overhead",
            ratio(
                ratio(recorded.0 as f64, recorded.1),
                ratio(plain.0 as f64, plain.1),
            ),
        );
    }
    trace
}
