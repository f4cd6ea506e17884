//! Perf-regression baseline: measure, record, and gate.
//!
//! `write` measures this host and saves `BENCH_baseline.json` (the file
//! `scripts/bench_baseline.sh` commits); `check` re-measures and fails if
//! any wall metric regressed more than 20% against the saved baseline, if
//! a deterministic dispatch fraction moved more than ±10‰, or if tracing
//! overhead breaches its ceiling. Set `COSPLIT_SKIP_BENCH_GATE=1` to skip
//! the gate (e.g. on a host whose speed bears no relation to the one that
//! wrote the baseline).
//!
//! Usage: `bench_baseline [write|check] [path]` (default: `check
//! BENCH_baseline.json`).

use cosplit_bench::experiments::{check_baseline, measure_baseline, BaselineMeasurement};

const DEFAULT_PATH: &str = "BENCH_baseline.json";
const TOLERANCE: f64 = 0.20;
const REPS: u32 = 5;

fn print_measurement(tag: &str, m: &BaselineMeasurement) {
    println!(
        "  {tag}: serial {:.0} tx/s, epoch {:.2} ms, DS share {}‰, trace overhead {:.2}x \
         ({} core(s))",
        m.serial_tps,
        m.epoch_wall.as_secs_f64() * 1e3,
        m.to_ds_permille,
        m.trace_overhead,
        m.host_cores
    );
    let reasons: Vec<String> =
        m.reason_permille.iter().map(|(reason, v)| format!("{reason} {v}‰")).collect();
    println!("  {tag} dispatch fractions: {}", reasons.join(", "));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("check");
    let path = args.get(1).map(String::as_str).unwrap_or(DEFAULT_PATH);

    match mode {
        "write" => {
            // Two spaced measurements, conservative envelope: the committed
            // floor reflects the host's slow moments, not one lucky run.
            let first = measure_baseline(REPS);
            std::thread::sleep(std::time::Duration::from_millis(500));
            let m = first.conservative(&measure_baseline(REPS));
            print_measurement("measured", &m);
            std::fs::write(path, m.to_snapshot().to_json()).unwrap_or_else(|e| {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            });
            println!("bench-baseline: written to {path}");
        }
        "check" => {
            if std::env::var("COSPLIT_SKIP_BENCH_GATE").is_ok_and(|v| v == "1") {
                println!("bench-baseline: skipped (COSPLIT_SKIP_BENCH_GATE=1)");
                return;
            }
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("failed to read {path}: {e} (run `bench_baseline write` first)");
                std::process::exit(1);
            });
            let snap = telemetry::Snapshot::from_json(&text).unwrap_or_else(|e| {
                eprintln!("failed to parse {path}: {e}");
                std::process::exit(1);
            });
            let committed = BaselineMeasurement::from_snapshot(&snap).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            });
            let current = measure_baseline(REPS);
            print_measurement("baseline", &committed);
            print_measurement("current ", &current);
            let failures = check_baseline(&current, &committed, TOLERANCE);
            if !failures.is_empty() {
                for f in &failures {
                    eprintln!("FAIL: {f}");
                }
                eprintln!("bench-baseline: {} regression(s) past the 20% gate", failures.len());
                std::process::exit(1);
            }
            println!("bench-baseline: no regression past the 20% gate");
        }
        other => {
            eprintln!("unknown mode '{other}'; expected: write | check");
            std::process::exit(2);
        }
    }
}
