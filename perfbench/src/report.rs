//! What one run prints: host facts, checks and every metric as readable
//! lines, then the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Host and workload facts, printed with every result.
    pub facts: Vec<(&'static str, String)>,
    /// Readable metric lines: name, value, unit.
    pub lines: Vec<(&'static str, f64, &'static str)>,
    /// Values of the metrics the JSON result line can carry, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Transactions or deploys attempted.
    pub attempted: u64,
    /// Failed receipts or deploys.
    pub failed_ops: u64,
    /// Output checks that were run.
    pub checks_run: Vec<&'static str>,
    /// Output checks that failed, with the reason.
    pub check_failures: Vec<String>,
}

impl Report {
    /// Adds a readable metric line.
    pub fn line(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.lines.push((name, value, unit));
    }

    /// Sets a metric of the JSON result line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a fact.
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    /// Records the outcome of an output check.
    pub fn check(&mut self, name: &'static str, outcome: Result<(), String>) {
        self.checks_run.push(name);
        if let Err(why) = outcome {
            self.check_failures.push(format!("{name}: {why}"));
        }
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.check_failures.len() as u64
    }

    /// Prints the readable report, with every value set that `also` names,
    /// then the JSON result line carrying the metrics `result` names (name,
    /// unit); a metric the workload does not exercise reads 0.
    pub fn print(
        &self,
        result: &[(&'static str, &'static str)],
        also: &[(&'static str, &'static str)],
    ) {
        let mut out = String::new();
        for (k, v) in &self.facts {
            let _ = writeln!(out, "fact {k} = {v}");
        }
        for c in &self.checks_run {
            let _ = writeln!(out, "check {c}");
        }
        for f in &self.check_failures {
            let _ = writeln!(out, "CHECK FAILED {f}");
        }
        let permille = 1e3 * self.failed() as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(out, "metric failed_permille = {permille} permille");
        for (name, value, unit) in &self.lines {
            let _ = writeln!(out, "metric {name} = {value} {unit}");
        }
        for (name, unit) in also {
            if let Some(value) = self.values.get(name) {
                let _ = writeln!(out, "metric {name} = {value} {unit}");
            }
        }
        for (name, unit) in result {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "metric {name} = {value} {unit}");
        }
        out.push_str(&self.json(result));
        println!("{out}");
    }

    /// The result object on one line.
    fn json(&self, result: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = result
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}
