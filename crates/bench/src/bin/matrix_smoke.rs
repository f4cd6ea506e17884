//! Conflict-matrix smoke test for CI (`scripts/check.sh`).
//!
//! Three checks, all fatal:
//!
//! 1. **Corpus sweep** — derives the pairwise commutativity matrix for every
//!    contract in the 49-contract mainnet sample without panicking, and
//!    asserts the matrix round-trips through its JSON wire form (the form
//!    `cosplit matrix --json` publishes, so a lossy encode would silently
//!    change the published verdicts).
//! 2. **FungibleToken `Transfer`/`Transfer`** — must *not* be a static
//!    conflict, and two transfers touching four distinct accounts must
//!    commute concretely — the pair the audit-mode conflict cross-check
//!    verifies against the matrix `cosplit matrix` publishes.
//! 3. **FungibleToken `Transfer`/`TransferFrom` on a shared owner** — a
//!    transfer out of Alice's balance and a delegated transfer whose `from`
//!    is Alice must conflict concretely (both debit `balances[alice]` behind
//!    a spendability condition), while the same pair on disjoint owners
//!    commutes.
//!
//! Usage: `matrix_smoke` (no arguments, fully deterministic).

use cosplit_analysis::conflict::{wire, ConflictMatrix};
use cosplit_analysis::solver::AnalyzedContract;
use scilla::corpus;
use scilla::value::Value;

fn main() {
    let mut failures = 0u32;
    failures += corpus_sweep();
    failures += fungible_token_pairs();
    if failures > 0 {
        eprintln!("matrix-smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("matrix-smoke: corpus matrices derived, FungibleToken pair verdicts hold");
}

/// Builds every corpus contract's matrix; returns the number of pipeline
/// failures. Panics inside `ConflictMatrix::build` abort the process, which
/// is exactly the signal this gate exists for.
fn corpus_sweep() -> u32 {
    let mut failures = 0u32;
    let mut contracts = 0usize;
    let mut pairs = 0usize;
    for entry in corpus::mainnet_sample() {
        let module = match scilla::parser::parse_module(entry.source) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("FAIL matrix {}: parse error: {e}", entry.name);
                failures += 1;
                continue;
            }
        };
        let checked = match scilla::typechecker::typecheck(module) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("FAIL matrix {}: type error: {e}", entry.name);
                failures += 1;
                continue;
            }
        };
        let analyzed = AnalyzedContract::analyze(&checked);
        let matrix = ConflictMatrix::build(&analyzed.name, &analyzed.summaries);
        let back = wire::matrix_from_value(&wire::matrix_to_value(&matrix));
        if back.as_ref() != Some(&matrix) {
            eprintln!("FAIL matrix {}: wire round-trip changed the matrix", entry.name);
            failures += 1;
        }
        contracts += 1;
        pairs += matrix.len() * matrix.len();
    }
    println!("matrix sweep: {contracts} contracts, {pairs} ordered pairs derived");
    failures
}

/// A concrete `Transfer`/`TransferFrom`-shaped binding: `_sender`/`_origin`
/// resolve to `sender`, everything else to the named parameters.
fn bind(
    sender: [u8; 20],
    params: Vec<(&'static str, [u8; 20])>,
) -> impl Fn(&str) -> Option<Value> {
    move |p: &str| match p {
        "_sender" | "_origin" => Some(Value::address(sender)),
        "amount" => Some(Value::Uint(128, 1)),
        other => params
            .iter()
            .find(|(name, _)| *name == other)
            .map(|(_, a)| Value::address(*a)),
    }
}

fn fungible_token_pairs() -> u32 {
    let entry = corpus::mainnet_sample()
        .into_iter()
        .find(|e| e.name == "FungibleToken")
        .expect("FungibleToken must be in the mainnet sample");
    let module = scilla::parser::parse_module(entry.source).expect("FungibleToken parses");
    let checked = scilla::typechecker::typecheck(module).expect("FungibleToken typechecks");
    let analyzed = AnalyzedContract::analyze(&checked);
    let matrix = ConflictMatrix::build(&analyzed.name, &analyzed.summaries);

    let addr = |i: u8| [i; 20];
    let mut failures = 0u32;
    let mut check = |label: &str, ok: bool| {
        if !ok {
            eprintln!("FAIL matrix FungibleToken: {label}");
            failures += 1;
        }
    };

    // Transfer/Transfer must not be a static conflict, and disjoint
    // accounts must commute concretely (Alice→Bob vs Carol→Dave).
    check(
        "Transfer/Transfer must not statically conflict",
        matrix.may_commute("Transfer", "Transfer"),
    );
    check(
        "disjoint Transfer/Transfer must commute concretely",
        !matrix.conflicts_concrete(
            "Transfer",
            &bind(addr(1), vec![("to", addr(2))]),
            "Transfer",
            &bind(addr(3), vec![("to", addr(4))]),
        ),
    );

    // Transfer out of Alice vs a delegated TransferFrom whose owner is
    // Alice both debit balances[alice]: concrete conflict. Moving the
    // delegated owner to Carol clears it.
    check(
        "Transfer/TransferFrom on a shared owner must conflict concretely",
        matrix.conflicts_concrete(
            "Transfer",
            &bind(addr(1), vec![("to", addr(2))]),
            "TransferFrom",
            &bind(addr(5), vec![("from", addr(1)), ("to", addr(6))]),
        ),
    );
    check(
        "Transfer/TransferFrom on disjoint owners must commute concretely",
        !matrix.conflicts_concrete(
            "Transfer",
            &bind(addr(1), vec![("to", addr(2))]),
            "TransferFrom",
            &bind(addr(5), vec![("from", addr(3)), ("to", addr(6))]),
        ),
    );

    failures
}
