//! Transaction dispatch — `dispatch_oc(T, x)` (paper §4.3).
//!
//! The lookup node instantiates a transition's symbolic ownership
//! constraints with the transaction's actual arguments and finds a shard
//! satisfying all of them; if none exists the transaction is routed to the
//! DS committee, which processes leftovers sequentially after the shards.

use crate::address::{fnv1a, Address};
use crate::network::ChainConfig;
use crate::state::{DeployedContract, GlobalState};
use crate::tx::{Transaction, TxKind};
use crate::xshard::{LockKey, XShardPlan};
use cosplit_analysis::callgraph::{
    compose, Binding, ComposedSummary, ContractCalls, DeploymentView, Recipient, Target,
};
use cosplit_analysis::domain::PseudoField;
use cosplit_analysis::effects::TransitionSummary;
use cosplit_analysis::signature::Constraint;
use scilla::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Where a transaction is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Assignment {
    /// One of the transaction shards.
    Shard(u32),
    /// The cross-shard atomic-commit stage: the footprint spans several
    /// shards, and a coordinator drives an S-BAC-style two-phase commit
    /// over them instead of serialising at the DS committee
    /// ([`crate::xshard`]).
    XShard,
    /// The DS committee (sequential, after the shards).
    Ds,
}

/// Why the dispatcher chose what it chose — used by the evaluation's
/// strategy-attribution breakdown (§5.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchReason {
    /// Payments go to the sender's home shard (default strategy).
    Payment,
    /// No signature: baseline contract strategy, same-shard case.
    BaselineLocal,
    /// No signature: baseline contract strategy, cross-shard case.
    BaselineCross,
    /// Transition not in the signature's selection.
    Unselected,
    /// The signature marks the transition unsatisfiable.
    Unsat,
    /// All ownership constraints pin to one shard.
    OwnershipPinned,
    /// No ownership constraints at all (pure commutative effects).
    Unconstrained,
    /// Ownership constraints span several shards.
    SplitFootprint,
    /// Ownership constraints span several shards and the cross-shard
    /// two-phase commit takes it (instead of DS serialisation).
    CrossShard,
    /// Two map keys alias at runtime.
    AliasConflict,
    /// A `UserAddr` parameter holds a contract address.
    NotUserAddr,
    /// A constraint referenced an argument the transaction did not supply.
    BadArguments,
    /// Strict (non-relaxed) nonce ordering forced DS serialisation
    /// (§4.2.1 ablation).
    StrictNonceOrder,
    /// A cross-contract chain whose composed interprocedural footprint
    /// pins to a single shard commits there instead of falling back to
    /// the DS committee ([`cosplit_analysis::callgraph`]).
    ComposedLocal,
}

impl DispatchReason {
    /// Stable label used in epoch reports and `chain.dispatch.reason.*`
    /// metrics.
    pub fn name(self) -> &'static str {
        match self {
            DispatchReason::Payment => "payment",
            DispatchReason::BaselineLocal => "baseline-local",
            DispatchReason::BaselineCross => "baseline-cross",
            DispatchReason::Unselected => "unselected",
            DispatchReason::Unsat => "unsat",
            DispatchReason::OwnershipPinned => "ownership",
            DispatchReason::Unconstrained => "commutative",
            DispatchReason::SplitFootprint => "split-footprint",
            DispatchReason::CrossShard => "xshard",
            DispatchReason::AliasConflict => "alias",
            DispatchReason::NotUserAddr => "not-user-addr",
            DispatchReason::BadArguments => "bad-args",
            DispatchReason::StrictNonceOrder => "strict-nonce",
            DispatchReason::ComposedLocal => "composed-local",
        }
    }

    /// Every reason, in discriminant order (each `r` satisfies
    /// `ALL_REASONS[r as usize] == r` — the per-reason counter array and
    /// the drift test depend on it).
    pub fn all() -> &'static [DispatchReason] {
        &ALL_REASONS
    }
}

const ALL_REASONS: [DispatchReason; 14] = [
    DispatchReason::Payment,
    DispatchReason::BaselineLocal,
    DispatchReason::BaselineCross,
    DispatchReason::Unselected,
    DispatchReason::Unsat,
    DispatchReason::OwnershipPinned,
    DispatchReason::Unconstrained,
    DispatchReason::SplitFootprint,
    DispatchReason::CrossShard,
    DispatchReason::AliasConflict,
    DispatchReason::NotUserAddr,
    DispatchReason::BadArguments,
    DispatchReason::StrictNonceOrder,
    DispatchReason::ComposedLocal,
];

/// Per-reason counters, resolved once: dispatch runs for every pool
/// transaction every epoch, so the registry lookup must stay off the hot
/// path.
fn record_decision(d: &Decision) {
    use std::sync::{Arc, OnceLock};
    if !telemetry::enabled() {
        return;
    }
    static COUNTERS: OnceLock<[Arc<telemetry::Counter>; 14]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        ALL_REASONS.map(|r| {
            telemetry::registry().counter(&format!("chain.dispatch.reason.{}", r.name()))
        })
    });
    counters[d.reason as usize].inc();
    telemetry::counter!("chain.dispatch.total").inc();
    if d.assignment == Assignment::Ds {
        telemetry::counter!("chain.dispatch.to_ds").inc();
    }
    if d.assignment == Assignment::XShard {
        telemetry::counter!("chain.dispatch.to_xshard").inc();
    }
}

/// A dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Where to execute.
    pub assignment: Assignment,
    /// Why.
    pub reason: DispatchReason,
}

/// The shard that owns a concrete state component of a contract.
///
/// Placement is by the entry's *first map key*:
///
/// * all entries under the same top-level key — across fields and nesting
///   depths — live in one shard, so a transition touching e.g. `balances
///   [from]` and `allowances[from][spender]`, or the UD registry's
///   `registry_owners[node]` and `records[node][key]`, pins to a single
///   shard;
/// * a first key that is an *address* places the entry in that account's
///   home shard, aligning `Owns(f[_sender])` with the `SenderShard`
///   constraint and with gas accounting (§4.2.2);
/// * whole fields are placed by field name.
pub fn component_shard(contract: Address, field: &str, keys: &[Value], num_shards: u32) -> u32 {
    match keys.first() {
        None => {
            let mut bytes = contract.0.to_vec();
            bytes.extend_from_slice(field.as_bytes());
            (fnv1a(&bytes) % num_shards as u64) as u32
        }
        Some(k) => {
            if let Some(addr) = k.as_address() {
                return Address(addr).home_shard(num_shards);
            }
            let mut bytes = contract.0.to_vec();
            bytes.push(0);
            bytes.extend_from_slice(k.to_string().as_bytes());
            (fnv1a(&bytes) % num_shards as u64) as u32
        }
    }
}

/// Dispatches one transaction (paper §4.3, "Assigning Transactions to
/// Shards") under the network's protocol settings. Dispatch reads:
///
/// * `use_cosplit` — honour CoSplit signatures when present; off is the
///   default Zilliqa strategy used as the evaluation baseline (§4.1);
/// * `relaxed_nonces` — §4.2.1 relaxed nonces. Off (the ablation), the
///   strict gap-free nonce order forces all of a sender's transactions
///   through one place, so a decision away from the sender's home shard
///   is demoted to the DS committee;
/// * `cross_shard_commit` — route split footprints to the cross-shard
///   two-phase commit ([`crate::xshard`]) instead of the DS committee;
/// * `compose_calls` — compose summaries across statically-resolvable
///   cross-contract sends ([`cosplit_analysis::callgraph`]): a chain whose
///   composed footprint pins to one shard commits there (`ComposedLocal`),
///   a multi-shard one gets an xshard lock plan covering the whole chain.
pub fn dispatch(tx: &Transaction, state: &GlobalState, config: &ChainConfig) -> Decision {
    let inner = dispatch_inner(tx, state, config);
    let decision = if config.relaxed_nonces {
        inner
    } else {
        // Strict nonces: a sender's transactions must be totally ordered, so
        // anything not in the sender's home shard serialises at the DS. The
        // cross-shard stage commits out of nonce order too, so it demotes
        // the same way under the ablation.
        match inner.assignment {
            Assignment::Shard(s) if s == tx.sender.home_shard(config.num_shards) => inner,
            Assignment::Ds => inner,
            Assignment::Shard(_) | Assignment::XShard => {
                Decision { assignment: Assignment::Ds, reason: DispatchReason::StrictNonceOrder }
            }
        }
    };
    record_decision(&decision);
    decision
}

fn dispatch_inner(tx: &Transaction, state: &GlobalState, config: &ChainConfig) -> Decision {
    let num_shards = config.num_shards;
    match &tx.kind {
        TxKind::Payment { .. } => Decision {
            assignment: Assignment::Shard(tx.sender.home_shard(num_shards)),
            reason: DispatchReason::Payment,
        },
        TxKind::Call { contract, transition, args, .. } => {
            let Some(deployed) = state.contracts.get(contract) else {
                // Unknown contract: let the DS committee reject it.
                return Decision { assignment: Assignment::Ds, reason: DispatchReason::BadArguments };
            };
            if config.use_cosplit {
                if let Some(sig) = &deployed.signature {
                    if let Some(tc) = sig.transition(transition) {
                        if config.compose_calls {
                            if let Some(footprint) =
                                composed_footprint(tx, state, deployed, transition, args, num_shards)
                            {
                                return decide_composed(
                                    tx,
                                    footprint,
                                    num_shards,
                                    config.cross_shard_commit,
                                );
                            }
                        }
                        return dispatch_with_constraints(
                            tx,
                            state,
                            deployed,
                            &tc.constraints,
                            args,
                            num_shards,
                            config.cross_shard_commit,
                        );
                    }
                    return Decision { assignment: Assignment::Ds, reason: DispatchReason::Unselected };
                }
            }
            baseline(tx, state, *contract, num_shards)
        }
    }
}

/// The default Zilliqa strategy (paper §4.1): contract and user are
/// statically assigned to shards; same-shard calls execute in the shard,
/// cross-shard calls go to the DS committee.
fn baseline(tx: &Transaction, state: &GlobalState, contract: Address, num_shards: u32) -> Decision {
    let user_shard = tx.sender.home_shard(num_shards);
    let contract_shard = state.home_shard_of(&contract, num_shards);
    if user_shard == contract_shard {
        Decision { assignment: Assignment::Shard(contract_shard), reason: DispatchReason::BaselineLocal }
    } else {
        Decision { assignment: Assignment::Ds, reason: DispatchReason::BaselineCross }
    }
}

/// The transaction's concrete ownership footprint: every lockable resource
/// its constraints pin, with the shard owning each. Dispatch derives the
/// assignment from the shard set; the cross-shard coordinator derives its
/// lock plan from the same resolution, so the two can never disagree.
struct Footprint {
    /// `lock → owning shard`, deduplicated and in global lock order.
    locks: BTreeMap<LockKey, u32>,
}

impl Footprint {
    fn shards(&self) -> BTreeSet<u32> {
        self.locks.values().copied().collect()
    }
}

/// Instantiates a transition's symbolic constraints with the transaction's
/// concrete arguments (the shared core of [`dispatch`] and
/// [`xshard_plan`]).
///
/// # Errors
///
/// The dispatch reason that forces DS routing: `Unsat` summaries, missing
/// arguments, runtime key aliasing, contract-valued `UserAddr` parameters.
fn resolve_footprint(
    tx: &Transaction,
    state: &GlobalState,
    deployed: &DeployedContract,
    constraints: &BTreeSet<Constraint>,
    args: &[(String, Value)],
    num_shards: u32,
) -> Result<Footprint, DispatchReason> {
    let resolve = |name: &str| -> Option<Value> {
        match name {
            "_sender" | "_origin" => Some(tx.sender.to_value()),
            _ => args
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .or_else(|| deployed.param(name).cloned()),
        }
    };

    let mut locks: BTreeMap<LockKey, u32> = BTreeMap::new();
    for c in constraints {
        match c {
            Constraint::Unsat => return Err(DispatchReason::Unsat),
            Constraint::Owns(PseudoField { field, keys }) => {
                let mut key_vals = Vec::with_capacity(keys.len());
                for k in keys {
                    // Derived keys (`sha256hash(account)`) replay their
                    // derivation on the resolved base argument, matching the
                    // interpreter's builtin evaluation bit-for-bit.
                    match cosplit_analysis::domain::resolve_key(k, &resolve) {
                        Some(v) => key_vals.push(v),
                        None => return Err(DispatchReason::BadArguments),
                    }
                }
                let shard = component_shard(deployed.address, field, &key_vals, num_shards);
                locks.insert(
                    LockKey::Component {
                        contract: deployed.address,
                        field: field.clone(),
                        keys: key_vals.iter().map(|v| v.to_string()).collect(),
                    },
                    shard,
                );
            }
            Constraint::SenderShard => {
                locks.insert(
                    LockKey::Account(tx.sender),
                    tx.sender.home_shard(num_shards),
                );
            }
            Constraint::ContractShard => {
                locks.insert(
                    LockKey::Account(deployed.address),
                    state.home_shard_of(&deployed.address, num_shards),
                );
            }
            Constraint::UserAddr(p) => match resolve(p).as_ref().and_then(Value::as_address) {
                Some(bytes) => {
                    if state.is_contract(&Address(bytes)) {
                        return Err(DispatchReason::NotUserAddr);
                    }
                }
                None => return Err(DispatchReason::BadArguments),
            },
            Constraint::NoAliases(t1, t2) => {
                let v1: Option<Vec<Value>> =
                    t1.iter().map(|k| cosplit_analysis::domain::resolve_key(k, &resolve)).collect();
                let v2: Option<Vec<Value>> =
                    t2.iter().map(|k| cosplit_analysis::domain::resolve_key(k, &resolve)).collect();
                match (v1, v2) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            return Err(DispatchReason::AliasConflict);
                        }
                    }
                    _ => return Err(DispatchReason::BadArguments),
                }
            }
        }
    }
    Ok(Footprint { locks })
}

#[allow(clippy::too_many_arguments)]
fn dispatch_with_constraints(
    tx: &Transaction,
    state: &GlobalState,
    deployed: &DeployedContract,
    constraints: &BTreeSet<Constraint>,
    args: &[(String, Value)],
    num_shards: u32,
    cross_shard_commit: bool,
) -> Decision {
    let footprint = match resolve_footprint(tx, state, deployed, constraints, args, num_shards) {
        Ok(f) => f,
        Err(reason) => return Decision { assignment: Assignment::Ds, reason },
    };
    let required = footprint.shards();
    match required.len() {
        0 => {
            // Fully commutative footprint: spread by transaction id.
            let shard = (fnv1a(&tx.id.to_be_bytes()) % num_shards as u64) as u32;
            Decision { assignment: Assignment::Shard(shard), reason: DispatchReason::Unconstrained }
        }
        1 => Decision {
            assignment: Assignment::Shard(*required.iter().next().expect("one element")),
            reason: DispatchReason::OwnershipPinned,
        },
        _ if cross_shard_commit => {
            Decision { assignment: Assignment::XShard, reason: DispatchReason::CrossShard }
        }
        _ => Decision { assignment: Assignment::Ds, reason: DispatchReason::SplitFootprint },
    }
}

// ------------------------------------------------- interprocedural chains

/// The deployment view the interprocedural composition runs against on
/// chain: contract identities are `Address` display strings, summaries and
/// call sites come from the deployed contracts, and recipients resolve
/// against deployment parameters, immutable-field storage, and the
/// transaction's arguments.
struct ChainView<'a> {
    state: &'a GlobalState,
    root: &'a DeployedContract,
    args: &'a [(String, Value)],
    sender: Address,
}

impl ChainView<'_> {
    /// Resolves a name in the root transition's frame, exactly like the
    /// constraint instantiation in [`resolve_footprint`].
    fn root_value(&self, name: &str) -> Option<Value> {
        match name {
            "_sender" | "_origin" => Some(self.sender.to_value()),
            _ => self
                .args
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .or_else(|| self.root.param(name).cloned()),
        }
    }

    fn classify(&self, value: Option<Value>) -> Target {
        match value.as_ref().and_then(Value::as_address) {
            None => Target::Unknown,
            Some(bytes) => {
                let addr = Address(bytes);
                if self.state.is_contract(&addr) {
                    Target::Contract(addr.to_string())
                } else {
                    Target::Wallet
                }
            }
        }
    }
}

impl DeploymentView for ChainView<'_> {
    fn resolve_target(
        &self,
        caller: &str,
        recipient: &Recipient,
        binding: Option<&Binding>,
    ) -> Target {
        let caller_addr = Address::from_hex(caller).ok();
        let value = match recipient {
            Recipient::Literal(c) => Address::from_hex(c).ok().map(Address::to_value),
            Recipient::ContractParam(p) => caller_addr
                .and_then(|a| self.state.contracts.get(&a))
                .and_then(|d| d.param(p).cloned()),
            // Immutable (never-written) field: the epoch-start storage value
            // is the deployment-time value, so reading it here is sound.
            Recipient::InitField(f) => caller_addr
                .and_then(|a| self.state.storage.get(&a))
                .and_then(|s| s.fields().get(f).cloned()),
            Recipient::TransitionParam(_) => match binding {
                Some(Binding::Param(p)) => self.root_value(p),
                Some(Binding::Const(c)) => Address::from_hex(c).ok().map(Address::to_value),
                _ => None,
            },
            Recipient::Dynamic => None,
        };
        self.classify(value)
    }

    fn summary(&self, contract: &str, transition: &str) -> Option<TransitionSummary> {
        let addr = Address::from_hex(contract).ok()?;
        self.state.contracts.get(&addr)?.summary(transition).map(|s| (*s).clone())
    }

    fn calls(&self, contract: &str) -> Option<ContractCalls> {
        let addr = Address::from_hex(contract).ok()?;
        Some((*self.state.contracts.get(&addr)?.call_info()).clone())
    }
}

/// Composes the interprocedural chain rooted at one call, against the
/// current deployment and the transaction's arguments. Shared by dispatch,
/// the xshard plan derivation, and the executor's trace auditor.
pub(crate) fn compose_chain(
    state: &GlobalState,
    root: &DeployedContract,
    transition: &str,
    args: &[(String, Value)],
    sender: Address,
) -> Option<ComposedSummary> {
    // Cheap gate: transitions without send sites have nothing to compose.
    root.call_info().sites_of(transition).next()?;
    let view = ChainView { state, root, args, sender };
    compose(&view, &root.address.to_string(), transition)
}

/// Resolves a root-space [`Binding`] to a concrete value.
fn binding_value(
    b: &Binding,
    composed: &ComposedSummary,
    view_sender: Address,
    root: &DeployedContract,
    args: &[(String, Value)],
) -> Option<Value> {
    match b {
        Binding::Param(p) => match p.as_str() {
            "_sender" | "_origin" => Some(view_sender.to_value()),
            _ => args
                .iter()
                .find(|(n, _)| n == p)
                .map(|(_, v)| v.clone())
                .or_else(|| root.param(p).cloned()),
        },
        Binding::Const(c) => Address::from_hex(c).ok().map(Address::to_value),
        Binding::Caller(i) => {
            Address::from_hex(&composed.members.get(*i)?.contract).ok().map(Address::to_value)
        }
        Binding::Unknown => None,
    }
}

/// The whole-chain ownership footprint of a composed cross-contract call:
/// every member's signature constraints instantiated in root space, merged
/// into one lock map. `None` when composition does not apply (no chain,
/// widened, an unsigned/unselected member, or an unresolvable constraint)
/// — the caller then falls through to the intra-contract path unchanged.
fn composed_footprint(
    tx: &Transaction,
    state: &GlobalState,
    deployed: &DeployedContract,
    transition: &str,
    args: &[(String, Value)],
    num_shards: u32,
) -> Option<Footprint> {
    let composed = compose_chain(state, deployed, transition, args, tx.sender)?;
    if composed.widened || !composed.is_chain() {
        return None;
    }
    let mut locks: BTreeMap<LockKey, u32> = BTreeMap::new();
    for m in &composed.members {
        let addr = Address::from_hex(&m.contract).ok()?;
        let member = state.contracts.get(&addr)?;
        let tc = member.signature.as_ref()?.transition(&m.transition)?;
        if member.summary(&m.transition)?.has_top() {
            return None; // compose() widens on ⊤ members; stay defensive.
        }
        let resolve = |name: &str| -> Option<Value> {
            match m.bindings.get(name) {
                Some(b) => binding_value(b, &composed, tx.sender, deployed, args),
                // Not a transition parameter of this member: a deployment
                // constant of the member contract.
                None => member.param(name).cloned(),
            }
        };
        for c in &tc.constraints {
            match c {
                // A non-⊤ member's `Unsat` can only be send-derived
                // (recipient not a sole parameter), and compose() proved
                // every send of this member lands inside the chain or in a
                // wallet: the chain's own locks subsume it.
                Constraint::Unsat => {}
                Constraint::Owns(PseudoField { field, keys }) => {
                    let mut key_vals = Vec::with_capacity(keys.len());
                    for k in keys {
                        key_vals.push(cosplit_analysis::domain::resolve_key(k, &resolve)?);
                    }
                    let shard = component_shard(addr, field, &key_vals, num_shards);
                    locks.insert(
                        LockKey::Component {
                            contract: addr,
                            field: field.clone(),
                            keys: key_vals.iter().map(|v| v.to_string()).collect(),
                        },
                        shard,
                    );
                }
                Constraint::SenderShard => {
                    // The member's sender: the transaction sender for the
                    // root, the calling member's contract account deeper in.
                    let sender_addr = match m.caller {
                        None => tx.sender,
                        Some(i) => Address::from_hex(&composed.members[i].contract).ok()?,
                    };
                    locks.insert(
                        LockKey::Account(sender_addr),
                        state.home_shard_of(&sender_addr, num_shards),
                    );
                }
                Constraint::ContractShard => {
                    locks.insert(
                        LockKey::Account(addr),
                        state.home_shard_of(&addr, num_shards),
                    );
                }
                Constraint::UserAddr(p) => {
                    let bytes = resolve(p).as_ref().and_then(Value::as_address)?;
                    let target = Address(bytes);
                    if state.is_contract(&target)
                        && !composed.members.iter().any(|mm| mm.contract == target.to_string())
                    {
                        // A contract-valued recipient outside the composed
                        // set: not the chain we proved. Fall back.
                        return None;
                    }
                }
                Constraint::NoAliases(t1, t2) => {
                    let v1: Option<Vec<Value>> = t1
                        .iter()
                        .map(|k| cosplit_analysis::domain::resolve_key(k, &resolve))
                        .collect();
                    let v2: Option<Vec<Value>> = t2
                        .iter()
                        .map(|k| cosplit_analysis::domain::resolve_key(k, &resolve))
                        .collect();
                    match (v1, v2) {
                        (Some(a), Some(b)) if a != b => {}
                        // Aliasing or unresolvable: let the intra-contract
                        // path pick the precise DS reason.
                        _ => return None,
                    }
                }
            }
        }
    }
    if telemetry::enabled() {
        telemetry::counter!("chain.dispatch.composed_chains").inc();
    }
    Some(Footprint { locks })
}

/// Turns a composed whole-chain footprint into a decision: single-shard
/// chains commit shard-locally (`ComposedLocal`), multi-shard ones go to
/// the cross-shard two-phase commit when it is enabled.
fn decide_composed(
    tx: &Transaction,
    footprint: Footprint,
    num_shards: u32,
    cross_shard_commit: bool,
) -> Decision {
    let required = footprint.shards();
    match required.len() {
        0 => {
            let shard = (fnv1a(&tx.id.to_be_bytes()) % num_shards as u64) as u32;
            Decision { assignment: Assignment::Shard(shard), reason: DispatchReason::ComposedLocal }
        }
        1 => Decision {
            assignment: Assignment::Shard(*required.iter().next().expect("one element")),
            reason: DispatchReason::ComposedLocal,
        },
        _ if cross_shard_commit => {
            Decision { assignment: Assignment::XShard, reason: DispatchReason::CrossShard }
        }
        _ => Decision { assignment: Assignment::Ds, reason: DispatchReason::SplitFootprint },
    }
}

/// Resolves the coordinator's lock plan for a cross-shard transaction: the
/// same constraint instantiation as [`dispatch`], reified as `(shard,
/// lock)` pairs instead of a bare shard set. The coordinator is the lowest
/// participant; the lock vector is in global key order, which is the
/// deadlock-free acquisition order.
///
/// # Errors
///
/// The [`DispatchReason`] that should send this transaction to the DS
/// committee instead (the state may have changed between packet formation
/// and the commit stage).
pub fn xshard_plan(
    tx: &Transaction,
    state: &GlobalState,
    num_shards: u32,
) -> Result<XShardPlan, DispatchReason> {
    xshard_plan_with(tx, state, num_shards, false)
}

/// [`xshard_plan`] with the interprocedural composition switch: when
/// `compose` is on and the call roots a statically-resolved chain, the plan
/// locks the *whole chain's* composed footprint — every member contract's
/// constraints — so the two-phase commit covers the downstream sends too.
pub fn xshard_plan_with(
    tx: &Transaction,
    state: &GlobalState,
    num_shards: u32,
    compose: bool,
) -> Result<XShardPlan, DispatchReason> {
    let TxKind::Call { contract, transition, args, .. } = &tx.kind else {
        return Err(DispatchReason::Payment);
    };
    let Some(deployed) = state.contracts.get(contract) else {
        return Err(DispatchReason::BadArguments);
    };
    let Some(sig) = &deployed.signature else {
        return Err(DispatchReason::BaselineCross);
    };
    let Some(tc) = sig.transition(transition) else {
        return Err(DispatchReason::Unselected);
    };
    let footprint = match compose
        .then(|| composed_footprint(tx, state, deployed, transition, args, num_shards))
        .flatten()
    {
        Some(f) => f,
        None => resolve_footprint(tx, state, deployed, &tc.constraints, args, num_shards)?,
    };
    let participants = footprint.shards();
    let Some(coordinator) = participants.first().copied() else {
        // A fully commutative footprint has nothing to lock; dispatch never
        // routes it here, but fall back to DS defensively.
        return Err(DispatchReason::Unconstrained);
    };
    Ok(XShardPlan {
        coordinator,
        participants,
        locks: footprint.locks.into_iter().map(|(k, s)| (s, k)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Account;
    use cosplit_analysis::analysis::AnalysisMode;
    use cosplit_analysis::signature::WeakReads;
    use cosplit_analysis::solver::AnalyzedContract;
    use std::sync::Arc;

    const TOKEN: &str = r#"
        contract Token ()
        field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
        transition Transfer (to : ByStr20, amount : Uint128)
          bal_opt <- balances[_sender];
          match bal_opt with
          | Some bal =>
            ok = builtin le amount bal;
            match ok with
            | True =>
              nf = builtin sub bal amount;
              balances[_sender] := nf;
              to_opt <- balances[to];
              nt = match to_opt with
                | Some b => builtin add b amount
                | None => amount
                end;
              balances[to] := nt
            | False => throw
            end
          | None => throw
          end
        end
        transition Mint (to : ByStr20, amount : Uint128)
          to_opt <- balances[to];
          nt = match to_opt with
            | Some b => builtin add b amount
            | None => amount
            end;
          balances[to] := nt
        end
    "#;

    fn setup(with_sig: bool) -> (GlobalState, Address) {
        let caddr = Address::from_index(999);
        let module = scilla::parser::parse_module(TOKEN).unwrap();
        let checked = scilla::typechecker::typecheck(module).unwrap();
        let analyzed = AnalyzedContract::analyze(&checked);
        let signature = with_sig.then(|| {
            analyzed.query(&["Transfer".into(), "Mint".into()], &WeakReads::AcceptAll)
        });
        let compiled = scilla::interpreter::CompiledContract::compile(checked).unwrap();
        let mut state = GlobalState::new();
        state.accounts.insert(caddr, Account::contract());
        let deployed =
            DeployedContract::new(caddr, compiled, vec![], signature, AnalysisMode::Refined);
        state.contracts.insert(caddr, Arc::new(deployed));
        state.storage.insert(caddr, Default::default());
        (state, caddr)
    }

    fn transfer_tx(sender: u64, to: u64, contract: Address) -> Transaction {
        Transaction::call(
            sender * 1000 + to,
            Address::from_index(sender),
            1,
            contract,
            "Transfer",
            vec![
                ("to".into(), Address::from_index(to).to_value()),
                ("amount".into(), Value::Uint(128, 5)),
            ],
        )
    }

    #[test]
    fn cosplit_pins_transfer_to_sender_component_shard() {
        let (state, c) = setup(true);
        let tx = transfer_tx(1, 2, c);
        let d = dispatch(&tx, &state, &ChainConfig::evaluation(4, true));
        assert_eq!(d.reason, DispatchReason::OwnershipPinned);
        let expected =
            component_shard(c, "balances", &[Address::from_index(1).to_value()], 4);
        assert_eq!(d.assignment, Assignment::Shard(expected));
    }

    #[test]
    fn self_transfer_aliases_and_goes_to_ds() {
        let (state, c) = setup(true);
        let tx = transfer_tx(1, 1, c);
        let d = dispatch(&tx, &state, &ChainConfig::evaluation(4, true));
        assert_eq!(d.assignment, Assignment::Ds);
        assert_eq!(d.reason, DispatchReason::AliasConflict);
    }

    #[test]
    fn mint_is_unconstrained_and_spreads() {
        let (state, c) = setup(true);
        let shards: BTreeSet<Assignment> = (0..64)
            .map(|i| {
                let tx = Transaction::call(
                    i,
                    Address::from_index(7),
                    i,
                    c,
                    "Mint",
                    vec![
                        ("to".into(), Address::from_index(i).to_value()),
                        ("amount".into(), Value::Uint(128, 1)),
                    ],
                );
                let d = dispatch(&tx, &state, &ChainConfig::evaluation(4, true));
                assert_eq!(d.reason, DispatchReason::Unconstrained);
                d.assignment
            })
            .collect();
        assert!(shards.len() > 1, "minting should spread across shards");
    }

    #[test]
    fn baseline_routes_cross_shard_to_ds() {
        let (state, c) = setup(false);
        let mut local = 0;
        let mut ds = 0;
        for i in 0..100 {
            let tx = transfer_tx(i, i + 1, c);
            match dispatch(&tx, &state, &ChainConfig::evaluation(4, true)).assignment {
                Assignment::Shard(s) => {
                    assert_eq!(s, c.home_shard(4));
                    local += 1;
                }
                Assignment::Ds => ds += 1,
                Assignment::XShard => panic!("baseline dispatch never picks xshard"),
            }
        }
        assert!(ds > local, "most users live outside the contract's shard");
        assert!(local > 0);
    }

    #[test]
    fn cosplit_flag_off_ignores_signatures() {
        let (state, c) = setup(true);
        let tx = transfer_tx(1, 2, c);
        let d = dispatch(&tx, &state, &ChainConfig::evaluation(4, false));
        assert!(matches!(d.reason, DispatchReason::BaselineLocal | DispatchReason::BaselineCross));
    }

    #[test]
    fn payments_use_sender_home_shard() {
        let (state, _) = setup(false);
        let tx = Transaction::payment(1, Address::from_index(3), 1, Address::from_index(4), 10);
        let d = dispatch(&tx, &state, &ChainConfig::evaluation(4, true));
        assert_eq!(d.assignment, Assignment::Shard(Address::from_index(3).home_shard(4)));
    }
}
