//! The eight contract workloads of the paper's throughput evaluation
//! (Fig. 14): FT fund, FT transfer, CF donate, NFT mint, NFT transfer,
//! ProofIPFS register, UD bestow, UD config.

use chain::address::Address;
use chain::tx::Transaction;
use cosplit_analysis::signature::WeakReads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scilla::value::Value;

/// Which Fig. 14 workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Fungible-token transfers from a single source to many destinations.
    FtFund,
    /// Fungible-token transfers between random users.
    FtTransfer,
    /// Crowdfunding donations from many users.
    CfDonate,
    /// NFT minting by the single minter (scales despite the single source —
    /// ownership follows the token id, paper §5.2.1).
    NftMint,
    /// NFT transfers between random owners.
    NftTransfer,
    /// ProofIPFS hash notarisations (two-field footprint, limited scaling).
    IpfsRegister,
    /// UD registry: admin grants fresh domains.
    UdBestow,
    /// UD registry: owners update their domains' resolver records.
    UdConfig,
    /// Cross-contract relay chain: users ping a `TestRelay` whose `Relay`
    /// transition forwards to a statically-known `TestReceiver`. Not part of
    /// Fig. 14 ([`Kind::all`]); exercises interprocedural composition — with
    /// `compose_calls` off every transaction serialises at the DS committee,
    /// with it on the composed chain dispatches shard-local.
    RelayPing,
    /// FungibleToken airdrop claims keyed by `sha256hash(proof)`. Not part
    /// of Fig. 14 ([`Kind::all`]); exercises the precision frontier between
    /// the legacy and flow-sensitive analyses — the legacy Fig-6 accumulator
    /// collapses `ClaimAirdrop` to ⊤ (computed map key), so every claim
    /// serialises at the DS committee, while the refined analysis derives
    /// the key and the claims dispatch shard-local.
    FtAirdrop,
}

impl Kind {
    /// All Fig. 14 workloads, in the figure's order.
    pub fn all() -> [Kind; 8] {
        [
            Kind::FtFund,
            Kind::FtTransfer,
            Kind::CfDonate,
            Kind::NftMint,
            Kind::NftTransfer,
            Kind::IpfsRegister,
            Kind::UdBestow,
            Kind::UdConfig,
        ]
    }

    /// The label used in the paper's figure.
    pub fn label(&self) -> &'static str {
        match self {
            Kind::FtFund => "FT fund",
            Kind::FtTransfer => "FT transfer",
            Kind::CfDonate => "CF donate",
            Kind::NftMint => "NFT mint",
            Kind::NftTransfer => "NFT transfer",
            Kind::IpfsRegister => "ProofIPFS register",
            Kind::UdBestow => "UD bestow",
            Kind::UdConfig => "UD config",
            Kind::RelayPing => "Relay ping",
            Kind::FtAirdrop => "FT airdrop",
        }
    }
}

/// A secondary contract a scenario deploys *before* its primary (the primary
/// may reference its address in `params`, as `RelayPing`'s `sink` does).
#[derive(Debug, Clone)]
pub struct ExtraDeployment {
    /// Where the contract lives.
    pub addr: Address,
    /// Corpus contract to deploy there.
    pub corpus_name: &'static str,
    /// Deployment parameters.
    pub params: Vec<(String, Value)>,
    /// Transitions to shard when CoSplit is on.
    pub sharded_transitions: Vec<&'static str>,
}

/// A fully-specified benchmark scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The workload.
    pub kind: Kind,
    /// Corpus contract to deploy.
    pub corpus_name: &'static str,
    /// Deployment parameters.
    pub params: Vec<(String, Value)>,
    /// Transitions to shard (the "reasonable signature informed by expected
    /// usage" of §5.2).
    pub sharded_transitions: Vec<&'static str>,
    /// Number of user accounts to fund.
    pub users: u64,
    /// Which stale reads the deployer accepts (paper §4.2.3). The default
    /// `AcceptAll` enables Strategy 2 (IntMerge); `Fields(∅)` is the
    /// ownership-only ablation.
    pub weak_reads: WeakReads,
    /// Secondary contracts deployed before the primary (empty for the
    /// single-contract Fig. 14 workloads).
    pub extra: Vec<ExtraDeployment>,
    /// Setup transactions, committed before measurement starts.
    pub setup: Vec<Transaction>,
    /// The measured load.
    pub load: Vec<Transaction>,
}

/// The fixed address the scenario contract is deployed at.
pub fn contract_addr() -> Address {
    Address::from_index(77_000_000)
}

/// The administrative account (contract owner / minter / registry admin).
pub fn admin() -> Address {
    Address::from_index(88_000_000)
}

/// The fixed address `RelayPing`'s secondary `TestReceiver` is deployed at.
pub fn receiver_addr() -> Address {
    Address::from_index(77_000_001)
}

fn user(i: u64) -> Address {
    Address::from_index(i)
}

fn uint(v: u128) -> Value {
    Value::Uint(128, v)
}

fn node(i: u64) -> Value {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&i.to_be_bytes());
    Value::ByStr(bytes[..].into())
}

fn token_id(i: u64) -> Value {
    Value::Uint(256, i as u128)
}

/// Builds a scenario with `load_txs` measured transactions over `users`
/// accounts, deterministically from `seed`.
pub fn build(kind: Kind, users: u64, load_txs: usize, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(crate::seeds::derive(seed, "scenario"));
    build_with_rng(kind, users, load_txs, &mut rng)
}

/// [`build`] drawing from a caller-owned RNG, so several scenarios (and the
/// simulation's fault plans) can flow from one master seed with no ambient
/// seeding anywhere — the determinism guarantee of `chain::sim`.
pub fn build_with_rng(kind: Kind, users: u64, load_txs: usize, rng: &mut StdRng) -> Scenario {
    let c = contract_addr();
    let mut id = 1u64;
    let mut next_id = || {
        id += 1;
        id
    };
    // Per-account nonce counters (admin uses index u64::MAX).
    let mut nonces: std::collections::HashMap<u64, u64> = Default::default();
    let mut next_nonce = |who: u64| -> u64 {
        let n = nonces.entry(who).or_insert(0);
        *n += 1;
        *n
    };
    const ADMIN: u64 = u64::MAX;

    match kind {
        Kind::FtFund | Kind::FtTransfer => {
            let params = vec![
                ("contract_owner".to_string(), admin().to_value()),
                ("name".to_string(), Value::Str("Gold".into())),
                ("symbol".to_string(), Value::Str("GLD".into())),
                ("init_supply".to_string(), uint(0)),
            ];
            let single_source = kind == Kind::FtFund;
            // Mint: everyone gets a balance; for the fund workload only the
            // source really needs one, but funding all keeps setups equal.
            let mut setup = Vec::new();
            for i in 0..users {
                setup.push(Transaction::call(
                    next_id(),
                    admin(),
                    next_nonce(ADMIN),
                    c,
                    "Mint",
                    vec![("to".into(), user(i).to_value()), ("amount".into(), uint(100_000_000))],
                ));
            }
            let load = (0..load_txs)
                .map(|_| {
                    let from = if single_source { 0 } else { rng.gen_range(0..users) };
                    let mut to = rng.gen_range(0..users);
                    while to == from {
                        to = rng.gen_range(0..users);
                    }
                    Transaction::call(
                        next_id(),
                        user(from),
                        next_nonce(from),
                        c,
                        "Transfer",
                        vec![
                            ("to".into(), user(to).to_value()),
                            ("amount".into(), uint(rng.gen_range(1..50))),
                        ],
                    )
                })
                .collect();
            Scenario {
                kind,
                corpus_name: "FungibleToken",
                params,
                weak_reads: WeakReads::AcceptAll,
                sharded_transitions: vec![
                    "Mint",
                    "Burn",
                    "Transfer",
                    "TransferFrom",
                    "IncreaseAllowance",
                    "DecreaseAllowance",
                ],
                users,
                extra: Vec::new(),
                setup,
                load,
            }
        }
        Kind::CfDonate => {
            let params = vec![
                ("campaign_owner".to_string(), admin().to_value()),
                ("max_block".to_string(), Value::BNum(1_000_000)),
                ("goal".to_string(), uint(1_000_000_000)),
            ];
            let load = (0..load_txs)
                .map(|_| {
                    let donor = rng.gen_range(0..users);
                    Transaction::call(next_id(), user(donor), next_nonce(donor), c, "Donate", vec![])
                        .with_amount(rng.gen_range(10..1_000))
                })
                .collect();
            Scenario {
                kind,
                corpus_name: "Crowdfunding",
                params,
                weak_reads: WeakReads::AcceptAll,
                sharded_transitions: vec!["Donate", "ClaimBack"],
                users,
                extra: Vec::new(),
                setup: Vec::new(),
                load,
            }
        }
        Kind::NftMint | Kind::NftTransfer => {
            let params = vec![
                ("contract_owner".to_string(), admin().to_value()),
                ("name".to_string(), Value::Str("Kitties".into())),
                ("symbol".to_string(), Value::Str("KIT".into())),
            ];
            let mut setup = Vec::new();
            let load = if kind == Kind::NftMint {
                // Single-source workload: the minter creates fresh tokens.
                (0..load_txs)
                    .map(|i| {
                        Transaction::call(
                            next_id(),
                            admin(),
                            next_nonce(ADMIN),
                            c,
                            "Mint",
                            vec![
                                ("to".into(), user(i as u64 % users).to_value()),
                                ("token_id".into(), token_id(1_000 + i as u64)),
                            ],
                        )
                    })
                    .collect()
            } else {
                // Every user owns `k` tokens and transfers them around.
                let per_user = (load_txs as u64 / users + 1).max(1);
                for i in 0..users {
                    for j in 0..per_user {
                        setup.push(Transaction::call(
                            next_id(),
                            admin(),
                            next_nonce(ADMIN),
                            c,
                            "Mint",
                            vec![
                                ("to".into(), user(i).to_value()),
                                ("token_id".into(), token_id(i * per_user + j)),
                            ],
                        ));
                    }
                }
                // Each token transferred once (compare-and-swap supplies the
                // current owner as an argument, §6).
                let mut k = 0u64;
                (0..load_txs)
                    .map(|_| {
                        let owner_idx = k / per_user % users;
                        let tid = k % (users * per_user);
                        k += 1;
                        let mut to = rng.gen_range(0..users);
                        while to == owner_idx {
                            to = rng.gen_range(0..users);
                        }
                        Transaction::call(
                            next_id(),
                            user(owner_idx),
                            next_nonce(owner_idx),
                            c,
                            "Transfer",
                            vec![
                                ("to".into(), user(to).to_value()),
                                ("token_id".into(), token_id(tid)),
                                ("token_owner".into(), user(owner_idx).to_value()),
                            ],
                        )
                    })
                    .collect()
            };
            Scenario {
                kind,
                corpus_name: "NonfungibleToken",
                params,
                weak_reads: WeakReads::AcceptAll,
                sharded_transitions: vec!["Mint", "Transfer"],
                users,
                extra: Vec::new(),
                setup,
                load,
            }
        }
        Kind::IpfsRegister => {
            let params = vec![("initial_admin".to_string(), admin().to_value())];
            let load = (0..load_txs)
                .map(|i| {
                    let who = rng.gen_range(0..users);
                    Transaction::call(
                        next_id(),
                        user(who),
                        next_nonce(who),
                        c,
                        "Register",
                        vec![("ipfs_hash".into(), Value::Str(format!("Qm{i:060}")))],
                    )
                    .with_amount(10)
                })
                .collect();
            Scenario {
                kind,
                corpus_name: "ProofIPFS",
                params,
                weak_reads: WeakReads::AcceptAll,
                sharded_transitions: vec![
                    "Register",
                    "Gift",
                    "Donate",
                    "Withdraw",
                    "Ban",
                    "Unban",
                    "SetAnnouncement",
                    "SetContractUri",
                ],
                users,
                extra: Vec::new(),
                setup: Vec::new(),
                load,
            }
        }
        Kind::UdBestow | Kind::UdConfig => {
            let params = vec![
                ("initial_admin".to_string(), admin().to_value()),
                ("initial_root".to_string(), node(0)),
            ];
            let mut setup = Vec::new();
            let load = if kind == Kind::UdBestow {
                (0..load_txs)
                    .map(|i| {
                        Transaction::call(
                            next_id(),
                            admin(),
                            next_nonce(ADMIN),
                            c,
                            "Bestow",
                            vec![
                                ("node".into(), node(1_000_000 + i as u64)),
                                ("new_owner".into(), user(i as u64 % users).to_value()),
                                ("resolver".into(), user(i as u64 % users).to_value()),
                            ],
                        )
                    })
                    .collect()
            } else {
                // Each user owns domains; they update resolver records.
                let domains = users * 4;
                for d in 0..domains {
                    setup.push(Transaction::call(
                        next_id(),
                        admin(),
                        next_nonce(ADMIN),
                        c,
                        "Bestow",
                        vec![
                            ("node".into(), node(d)),
                            ("new_owner".into(), user(d % users).to_value()),
                            ("resolver".into(), user(d % users).to_value()),
                        ],
                    ));
                }
                (0..load_txs)
                    .map(|i| {
                        let d = rng.gen_range(0..domains);
                        let owner_idx = d % users;
                        if i % 2 == 0 {
                            Transaction::call(
                                next_id(),
                                user(owner_idx),
                                next_nonce(owner_idx),
                                c,
                                "Configure",
                                vec![
                                    ("node".into(), node(d)),
                                    ("resolver".into(), user(rng.gen_range(0..users)).to_value()),
                                ],
                            )
                        } else {
                            Transaction::call(
                                next_id(),
                                user(owner_idx),
                                next_nonce(owner_idx),
                                c,
                                "ConfigureRecord",
                                vec![
                                    ("node".into(), node(d)),
                                    ("rec_key".into(), Value::Str("crypto.ZIL.address".into())),
                                    ("rec_value".into(), Value::Str(format!("0x{i:040}"))),
                                ],
                            )
                        }
                    })
                    .collect()
            };
            Scenario {
                kind,
                corpus_name: "UD_registry",
                params,
                weak_reads: WeakReads::AcceptAll,
                sharded_transitions: vec![
                    "Bestow",
                    "Configure",
                    "ConfigureRecord",
                    "Approve",
                    "ApproveFor",
                    "SetRoot",
                ],
                users,
                extra: Vec::new(),
                setup,
                load,
            }
        }
        Kind::RelayPing => {
            // Primary: TestRelay with `sink` pointing at the secondary
            // TestReceiver — `Relay`'s send resolves statically, so with
            // `compose_calls` the whole chain dispatches shard-local.
            let load = (0..load_txs)
                .map(|_| {
                    let who = rng.gen_range(0..users);
                    Transaction::call(next_id(), user(who), next_nonce(who), c, "Relay", vec![])
                })
                .collect();
            Scenario {
                kind,
                corpus_name: "TestRelay",
                params: vec![("sink".to_string(), receiver_addr().to_value())],
                weak_reads: WeakReads::AcceptAll,
                sharded_transitions: vec!["Relay", "Fund"],
                users,
                extra: vec![ExtraDeployment {
                    addr: receiver_addr(),
                    corpus_name: "TestReceiver",
                    params: Vec::new(),
                    sharded_transitions: vec!["Hello", "Deposit"],
                }],
                setup: Vec::new(),
                load,
            }
        }
        Kind::FtAirdrop => {
            let params = vec![
                ("contract_owner".to_string(), admin().to_value()),
                ("name".to_string(), Value::Str("Gold".into())),
                ("symbol".to_string(), Value::Str("GLD".into())),
                ("init_supply".to_string(), uint(0)),
            ];
            // Each claim presents a distinct proof, so no claim aborts on
            // `AlreadyClaimed` and the whole load is commit-eligible. The
            // claimed slot is `airdrop_claimed[sha256hash(proof)]` — a key
            // only the refined analysis can summarise.
            let load = (0..load_txs)
                .map(|i| {
                    let who = rng.gen_range(0..users);
                    Transaction::call(
                        next_id(),
                        user(who),
                        next_nonce(who),
                        c,
                        "ClaimAirdrop",
                        vec![("proof".into(), Value::Str(format!("proof-{i:08}")))],
                    )
                })
                .collect();
            Scenario {
                kind,
                corpus_name: "FungibleToken",
                params,
                weak_reads: WeakReads::AcceptAll,
                sharded_transitions: vec!["Transfer", "ClaimAirdrop"],
                users,
                extra: Vec::new(),
                setup: Vec::new(),
                load,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_build_with_requested_load() {
        for kind in Kind::all() {
            let s = build(kind, 20, 100, 42);
            assert_eq!(s.load.len(), 100, "{kind:?}");
            assert!(!s.sharded_transitions.is_empty());
            assert!(scilla::corpus::get(s.corpus_name).is_some());
        }
    }

    #[test]
    fn relay_ping_builds_with_its_receiver() {
        let s = build(Kind::RelayPing, 20, 100, 42);
        assert_eq!(s.load.len(), 100);
        assert!(scilla::corpus::get(s.corpus_name).is_some());
        assert_eq!(s.extra.len(), 1);
        assert!(scilla::corpus::get(s.extra[0].corpus_name).is_some());
        // The primary's `sink` param points at the secondary's address.
        assert_eq!(s.params[0].1, s.extra[0].addr.to_value());
        assert!(s.load.iter().all(|t| matches!(
            &t.kind,
            chain::tx::TxKind::Call { transition, .. } if transition == "Relay"
        )));
    }

    #[test]
    fn builds_are_deterministic() {
        let a = build(Kind::FtTransfer, 10, 50, 7);
        let b = build(Kind::FtTransfer, 10, 50, 7);
        assert_eq!(a.load, b.load);
        assert_eq!(a.setup, b.setup);
    }

    #[test]
    fn ft_fund_is_single_source() {
        let s = build(Kind::FtFund, 10, 50, 7);
        let senders: std::collections::BTreeSet<_> = s.load.iter().map(|t| t.sender).collect();
        assert_eq!(senders.len(), 1);
    }

    #[test]
    fn nonces_increase_per_sender() {
        let s = build(Kind::FtTransfer, 5, 200, 1);
        let mut last: std::collections::HashMap<_, u64> = Default::default();
        for tx in &s.load {
            let prev = last.insert(tx.sender, tx.nonce);
            if let Some(p) = prev {
                assert!(tx.nonce > p, "nonces must increase per sender");
            }
        }
    }
}
