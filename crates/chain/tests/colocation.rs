//! Signature-aware placement: with `ChainConfig::colocate_families` a
//! contract deployed with an init parameter referencing an existing
//! contract (a router's token, an auction's NFT) is pinned to that root's
//! shard via the `GlobalState::placement` override — and dispatch and the
//! executor's balance slicing both read it through `home_shard_of`, so a
//! call that would have been cross-shard under pure address hashing
//! becomes shard-local.

use chain::address::Address;
use chain::dispatch::{dispatch, Assignment, DispatchReason};
use chain::network::{ChainConfig, Network};
use chain::tx::Transaction;

const SHARDS: u32 = 4;

const TOKEN: &str = r#"
    contract Token ()
    field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
    transition Mint (to : ByStr20, amount : Uint128)
      to_opt <- balances[to];
      nt = match to_opt with
        | Some b => builtin add b amount
        | None => amount
        end;
      balances[to] := nt
    end
"#;

const ROUTER: &str = r#"
    library RouterLib
    let nil_msg = Nil {Message}
    let one_msg = fun (m : Message) => Cons {Message} m nil_msg
    let zero = Uint128 0

    contract Router (init_target : ByStr20)
    field target : ByStr20 = init_target

    transition Pay (to : ByStr20)
      msg = {_tag : ""; _recipient : to; _amount : zero};
      msgs = one_msg msg;
      send msgs
    end
"#;

/// A contract address whose *hashed* home shard differs from `shard`.
fn contract_addr_off_shard(shard: u32) -> Address {
    (5_000_000u64..)
        .map(Address::from_index)
        .find(|a| a.home_shard(SHARDS) != shard)
        .expect("some address hashes off any given shard")
}

fn world(colocate: bool) -> (Network, Address, Address) {
    let config =
        ChainConfig { colocate_families: colocate, ..ChainConfig::small(SHARDS, true) };
    let mut net = Network::new(config);
    for i in 0..64 {
        net.fund_account(Address::from_index(i), 1_000_000_000);
    }
    let token = Address::from_index(4_000_000);
    net.deploy(token, TOKEN, vec![], None).unwrap();
    // The router's init param references the token: one contract family.
    let router = contract_addr_off_shard(token.home_shard(SHARDS));
    net.deploy(
        router,
        ROUTER,
        vec![("init_target".to_string(), token.to_value())],
        None,
    )
    .unwrap();
    (net, token, router)
}

#[test]
fn family_deploys_pin_to_the_roots_shard() {
    let (net, token, router) = world(true);
    let root_shard = token.home_shard(SHARDS);
    assert_ne!(router.home_shard(SHARDS), root_shard, "test needs a cross-shard pair");
    assert_eq!(
        net.state().home_shard_of(&router, SHARDS),
        root_shard,
        "the placement override pins the router to the token's shard"
    );

    // Dispatch agrees: a user on the root's shard calling the router is
    // baseline-local now, where pure address hashing would have sent it
    // cross-shard to the DS.
    let local_user = (0u64..)
        .map(Address::from_index)
        .find(|a| a.home_shard(SHARDS) == root_shard)
        .unwrap();
    let tx = Transaction::call(1, local_user, 1, router, "Pay", vec![(
        "to".into(),
        local_user.to_value(),
    )]);
    let d = dispatch(&tx, net.state(), net.config());
    assert_eq!(d.assignment, Assignment::Shard(root_shard));
    assert_eq!(d.reason, DispatchReason::BaselineLocal);
}

#[test]
fn colocation_off_keeps_hashed_placement() {
    let (net, token, router) = world(false);
    assert_eq!(
        net.state().home_shard_of(&router, SHARDS),
        router.home_shard(SHARDS),
        "without the flag, placement is pure address hashing"
    );
    assert_ne!(net.state().home_shard_of(&router, SHARDS), token.home_shard(SHARDS));

    // The same call now splits sender-home vs contract-home: baseline-cross
    // → DS.
    let local_user = (0u64..)
        .map(Address::from_index)
        .find(|a| a.home_shard(SHARDS) == token.home_shard(SHARDS))
        .unwrap();
    let tx = Transaction::call(1, local_user, 1, router, "Pay", vec![(
        "to".into(),
        local_user.to_value(),
    )]);
    let d = dispatch(&tx, net.state(), net.config());
    assert_eq!(d.assignment, Assignment::Ds);
    assert_eq!(d.reason, DispatchReason::BaselineCross);
}

/// A committed epoch on a co-located family must stay consistent: the
/// router executes on the token's shard with its full balance slice.
#[test]
fn colocated_family_commits_shard_locally() {
    let (mut net, token, router) = world(true);
    let root_shard = token.home_shard(SHARDS);
    let payer = (0u64..)
        .map(Address::from_index)
        .find(|a| a.home_shard(SHARDS) == root_shard)
        .unwrap();
    let payee = Address::from_index(40);
    let mut pool = vec![Transaction::call(7, payer, 1, router, "Pay", vec![(
        "to".into(),
        payee.to_value(),
    )])];
    let report = net.run_epoch(&mut pool);
    assert_eq!(report.committed, 1, "{report:?}");
    assert!(pool.is_empty());
    let on_shard = report
        .per_committee
        .iter()
        .any(|(a, committed, _)| *a == Assignment::Shard(root_shard) && *committed == 1);
    assert!(on_shard, "the family call commits on the root's shard: {report:?}");
}
