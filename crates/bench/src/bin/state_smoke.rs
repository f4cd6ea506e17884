//! CoW-state scaling smoke test for CI (`scripts/check.sh`).
//!
//! Runs the fixed 200-tx FungibleToken transfer packet against token states
//! of 1k and 25k pre-populated holders and asserts the copy-on-write layer
//! keeps per-epoch snapshot/fork cost flat:
//!
//! - `chain.state.cow_breaks` / `chain.state.bytes_cloned` stay zero — the
//!   epoch pipeline never deep-copies a shared map node;
//! - fork counts are identical across state sizes (a fork is never
//!   per-entry);
//! - epoch wall time does not scale with the untouched holder set (lenient
//!   factor bound, best-of-reps, to stay robust on noisy CI hosts).
//!
//! It also runs a batch-length axis: 400- and 3,200-transaction transfer
//! batches over 65,536 holders on the serial shard executor. Every transfer
//! adds fresh entries to the shard's pending overlay, so the per-transaction
//! wall of the long batch must stay within 2× of the short one's (best of
//! 3). An overlay lookup that scans instead of seeking makes it ≈3×.
//!
//! Usage: `state_smoke`.

use cosplit_bench::experiments::{batch_scaling, state_scaling};

fn main() {
    // 25× spread keeps the gate fast; the full 100× sweep is `paper state`.
    let rows = state_scaling(&[1_000, 25_000], 200, 3);
    let mut failures = 0u32;

    for r in &rows {
        println!(
            "  holders {:>6}: committed {}, epoch {:.2} ms, snapshots {}, forks {}, \
             cow_breaks {}, bytes_cloned {}",
            r.holders,
            r.committed,
            r.epoch_wall.as_secs_f64() * 1e3,
            r.snapshots,
            r.forks,
            r.cow_breaks,
            r.bytes_cloned
        );
        if r.committed == 0 {
            eprintln!("FAIL holders {}: packet committed nothing", r.holders);
            failures += 1;
        }
        if r.cow_breaks != 0 || r.bytes_cloned != 0 {
            eprintln!(
                "FAIL holders {}: epoch deep-copied shared state ({} breaks, {} bytes)",
                r.holders, r.cow_breaks, r.bytes_cloned
            );
            failures += 1;
        }
    }

    let (small, large) = (&rows[0], &rows[1]);
    if small.committed != large.committed {
        eprintln!(
            "FAIL: committed count changed with state size ({} vs {})",
            small.committed, large.committed
        );
        failures += 1;
    }
    if small.forks != large.forks {
        eprintln!(
            "FAIL: fork count scales with state size ({} vs {})",
            small.forks, large.forks
        );
        failures += 1;
    }
    // Wall-time flatness: a deep-copy regression makes the 25k epoch many
    // times slower; honest jitter does not reach 5×.
    let ratio = large.epoch_wall.as_secs_f64() / small.epoch_wall.as_secs_f64().max(1e-9);
    if ratio > 5.0 {
        eprintln!(
            "FAIL: epoch wall scales with untouched state ({:.2} ms -> {:.2} ms, {ratio:.1}x)",
            small.epoch_wall.as_secs_f64() * 1e3,
            large.epoch_wall.as_secs_f64() * 1e3
        );
        failures += 1;
    }

    let batches = batch_scaling(65_536, &[400, 3_200], 3);
    for b in &batches {
        println!(
            "  batch {:>5} txs: committed {}, {:.2} ms, {:.1} us/tx",
            b.txs,
            b.committed,
            b.wall.as_secs_f64() * 1e3,
            b.us_per_tx()
        );
        if b.committed != b.txs {
            eprintln!("FAIL batch {}: committed only {}", b.txs, b.committed);
            failures += 1;
        }
    }
    let (short, long) = (&batches[0], &batches[1]);
    let batch_ratio = long.us_per_tx() / short.us_per_tx().max(1e-9);
    println!("  per-tx wall, {}-tx / {}-tx batch: {batch_ratio:.2}x", long.txs, short.txs);
    if batch_ratio > 2.0 {
        eprintln!(
            "FAIL: per-transaction cost grows with batch length ({:.1} -> {:.1} us/tx, \
             {batch_ratio:.2}x > 2x)",
            short.us_per_tx(),
            long.us_per_tx()
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("state-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "state-smoke: snapshot/fork cost flat across 25x state growth, \
         per-tx cost flat across 8x batch length"
    );
}
