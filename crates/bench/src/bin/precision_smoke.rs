//! Precision-frontier smoke test for CI (`scripts/check.sh`).
//!
//! Three gates:
//!
//! 1. **Census gate** — analyses the 49-contract mainnet sample under both
//!    analysis modes. The refined analysis must never emit a global ⊤, must
//!    strictly shrink the ⊤ population versus legacy, must explain every
//!    surviving `⊤[field]` with at least one blame cause, and every blame
//!    cause must survive a JSON wire round-trip (the corpus blame sweep —
//!    `precision_census` panics on any drift). Per transition, a ⊤-free
//!    legacy summary must come back unchanged from the refined analysis and
//!    a legacy ⊤ must come back without ⊤.
//! 2. **Dispatch gate** — the airdrop workload (whose `ClaimAirdrop` keys
//!    state by `sha256hash proof`) must see a strictly smaller DS share
//!    under the refined default than under legacy, while the FT-transfer
//!    control must not move at all.
//! 3. **Differential gate** — the airdrop scenario runs through the
//!    differential oracle with the footprint auditor on, fault-free and
//!    under a generated fault plan. Sharding a derived-key transition must
//!    not diverge from the 1-shard sequential reference.
//!
//! Usage: `precision_smoke [seed]` (default seed 2027). The precision
//! gauges are merged into `BENCH_metrics.json` (override with
//! `BENCH_METRICS`) without clobbering earlier smoke runs.

use chain::network::ChainConfig;
use chain::sim::{differential, reference_config, FaultPlan, SimConfig};
use cosplit_bench::experiments::{precision_census, precision_rows};
use workloads::runner::world_builder;
use workloads::scenarios::{build, Kind};
use workloads::seeds;

const SHARDS: u32 = 4;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(2027);
    println!("precision-smoke: master seed {seed}");
    telemetry::set_enabled(true);

    let mut failures = 0u32;
    failures += census_gate();
    failures += dispatch_gate();
    failures += differential_gate(seed);

    let metrics_path =
        std::env::var("BENCH_METRICS").unwrap_or_else(|_| "BENCH_metrics.json".into());
    let mut snap = telemetry::registry().snapshot();
    // Merge, don't clobber: earlier smoke runs already left their gauges
    // in the file.
    if let Ok(prev) = std::fs::read_to_string(&metrics_path) {
        if let Ok(prev) = telemetry::Snapshot::from_json(&prev) {
            for (k, v) in prev.counters {
                snap.counters.entry(k).or_insert(v);
            }
            for (k, v) in prev.gauges {
                snap.gauges.entry(k).or_insert(v);
            }
        }
    }
    match std::fs::write(&metrics_path, snap.to_json()) {
        Ok(()) => println!("metrics snapshot merged into {metrics_path}"),
        Err(e) => eprintln!("failed to write {metrics_path}: {e}"),
    }

    if failures > 0 {
        eprintln!("precision-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "precision-smoke: no global ⊤, per-transition census holds, every loss blamed, \
         sharded airdrop divergence-free"
    );
}

/// Corpus-wide precision invariants (the wire round-trip sweep happens
/// inside `precision_census`, which panics on any blame drift).
fn census_gate() -> u32 {
    let census = precision_census();
    println!(
        "  census: {} contracts — ⊤ legacy {}, ⊤ refined {}, ⊤[field] refined {}, blames {}",
        census.contracts,
        census.top_legacy,
        census.top_refined,
        census.top_field_refined,
        census.blames
    );
    println!(
        "  per transition: {} analysed — {} identical to ⊤-free legacy, {} de-⊤'d, {} exceptions",
        census.transitions,
        census.identical,
        census.de_topped,
        census.exceptions.len()
    );
    let mut failures = 0u32;
    if census.contracts < 49 {
        eprintln!("FAIL census: expected the full sample, got {} contracts", census.contracts);
        failures += 1;
    }
    if census.top_refined != 0 {
        eprintln!("FAIL census: refined analysis emitted {} global-⊤ summaries", census.top_refined);
        failures += 1;
    }
    if census.top_field_refined >= census.top_legacy {
        eprintln!(
            "FAIL census: refined did not shrink the ⊤ population ({} vs legacy {})",
            census.top_field_refined, census.top_legacy
        );
        failures += 1;
    }
    if census.blames < census.top_field_refined {
        eprintln!(
            "FAIL census: {} localized ⊤ but only {} blame causes — losses went unexplained",
            census.top_field_refined, census.blames
        );
        failures += 1;
    }
    for e in &census.exceptions {
        eprintln!("FAIL census: {e}");
        failures += 1;
    }
    failures
}

/// The refined default must strictly cut the airdrop's DS share and leave
/// the single-contract control unmoved; records the gauges as a side
/// effect.
fn dispatch_gate() -> u32 {
    let rows = precision_rows(40, 500, 3);
    let mut failures = 0u32;
    for r in &rows {
        println!(
            "  dispatch {}: DS {}‰ (legacy) → {}‰ (refined), {} committed",
            r.label, r.to_ds_legacy_permille, r.to_ds_refined_permille, r.committed
        );
        if r.label == "FT airdrop" {
            if r.to_ds_refined_permille >= r.to_ds_legacy_permille {
                eprintln!("FAIL {}: the refined analysis did not cut the DS share", r.label);
                failures += 1;
            }
            if r.committed == 0 {
                eprintln!("FAIL {}: no transactions committed", r.label);
                failures += 1;
            }
        } else if r.to_ds_refined_permille != r.to_ds_legacy_permille {
            eprintln!("FAIL {}: the mode flip moved a ⊤-free control workload", r.label);
            failures += 1;
        }
    }
    failures
}

/// The airdrop scenario, sharded on its derived-key transition with the
/// auditor on, must match the sequential reference under fault-free and
/// faulty schedules.
fn differential_gate(seed: u64) -> u32 {
    let sharded_cfg = ChainConfig::small(SHARDS, true);
    assert!(sharded_cfg.audit, "small config must audit");
    let reference_cfg = reference_config(&sharded_cfg);
    let scenario = build(Kind::FtAirdrop, 40, 500, seeds::derive(seed, "precision-airdrop"));
    let builder = world_builder(&scenario);
    let label = scenario.kind.label();
    let plans = [
        ("fault-free", FaultPlan::none()),
        ("generated", FaultPlan::generate(seeds::derive(seed, "precision-plan"), 8, SHARDS, 0.35)),
    ];

    let mut failures = 0u32;
    for (plan_label, plan) in &plans {
        let diff = differential(
            &builder,
            &scenario.load,
            &sharded_cfg,
            &reference_cfg,
            &SimConfig::new(seed),
            plan,
        );
        if diff.is_clean() {
            println!(
                "  ok {label} [{plan_label}]: audited, {} committed, 0 violations",
                diff.sharded.committed()
            );
        } else {
            failures += 1;
            eprintln!("FAIL {label} [{plan_label}]: {} divergence(s)", diff.divergences.len());
            for d in diff.divergences.iter().take(10) {
                eprintln!("    {d}");
            }
        }
    }
    failures
}
