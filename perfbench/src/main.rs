//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <transfer|register|deploy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for a seed, checks its outputs, prints host facts and
//! every metric as `metric <name> = <value> <unit>` lines, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. An untraced
//! run (`--trace 0`) carries the end-to-end metrics, a traced run
//! (`--trace 1`) the per-layer ones; a traced run also writes its spans to
//! `out/trace-<workload>-<seed>.json` under this package. See README.md.

mod chainload;
mod deploy;
mod report;
mod spans;
mod stats;

use report::Report;
use std::process::ExitCode;

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("setup_s", "s"),
];

/// The deploy-stage metrics, mean µs per contract, in `deploy::STAGES` order.
const DEPLOY_LAYERS: [&str; 5] = [
    "deploy.parse_us",
    "deploy.typecheck_us",
    "deploy.analysis_us",
    "deploy.signature_us",
    "deploy.lower_us",
];

/// The per-layer metrics, in `BENCHMARK.json` order. A layer the workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("network.epoch_ms_p50", "ms"),
    ("network.dispatch_ms", "ms"),
    ("network.shard_exec_ms", "ms"),
    ("network.merge_ms", "ms"),
    ("network.xshard_ms", "ms"),
    ("network.ds_exec_ms", "ms"),
    ("network.unattributed_ms", "ms"),
    ("executor.shard_busy_ms_max", "ms"),
    ("executor.shard_imbalance", "ratio"),
    ("executor.shard_us_per_tx", "us"),
    ("executor.ds_us_per_tx", "us"),
    ("executor.deferred_per_epoch", "count"),
    ("executor.gas_per_commit", "gas"),
    ("dispatch.us_per_tx", "us"),
    ("dispatch.drained_per_commit", "ratio"),
    ("dispatch.ds_permille", "permille"),
    ("dispatch.xshard_permille", "permille"),
    ("merge.components_per_epoch", "count"),
    ("merge.us_per_component", "us"),
    ("xshard.committed", "count"),
    ("xshard.aborted", "count"),
    ("sim_tps", "tx/s"),
    ("deploy.parse_us", "us"),
    ("deploy.typecheck_us", "us"),
    ("deploy.analysis_us", "us"),
    ("deploy.signature_us", "us"),
    ("deploy.lower_us", "us"),
    ("bench.trace_overhead", "ratio"),
];

const USAGE: &str =
    "usage: perfbench --workload <transfer|register|deploy> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["transfer", "register", "deploy"].contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown or missing --workload {:?}",
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// The commit the working tree is at, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit_hash() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{refname}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size in MiB, from `/proc/self/status` (0 where that
/// file does not exist).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(deploy::COLD_PASS_FLAG) {
        let seed = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        return match deploy::cold_pass(seed) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.fact("workload", &args.workload);
    report.fact("seed", args.seed);
    report.fact("seconds", args.seconds);
    report.fact("traced", args.trace);
    report.fact(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    report.fact(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.fact("commit", commit_hash());

    let trace = match args.workload.as_str() {
        "transfer" => chainload::run(
            &chainload::TRANSFER,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "register" => chainload::run(
            &chainload::REGISTER,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        _ => deploy::run(args.seed, args.seconds, args.trace, &mut report),
    };
    report.fact("peak_rss_mib", peak_rss_mib());
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_json())) {
            Ok(()) => report.fact("trace_file", path.display()),
            Err(e) => report.check(
                "the trace is written",
                Err(format!("{}: {e}", path.display())),
            ),
        }
        report.print(&PER_LAYER, &END_TO_END);
    } else {
        report.print(&END_TO_END, &PER_LAYER);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload deploy --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "deploy".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload deploy --trace 2")).is_err());
        assert!(parse_args(&argv("--workload deploy --seconds")).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for d in DEPLOY_LAYERS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == d));
        }
    }
}
