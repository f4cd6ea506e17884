//! Criterion benches for the §5.2.2 overheads: transaction dispatch (with
//! and without signatures / the JSON wire boundary) and state-delta merging.

use chain::delta::StateDelta;
use chain::dispatch::dispatch;
use chain::network::ChainConfig;
use cosplit_bench::experiments::{dispatch_fixture, dispatch_via_wire, epoch_deltas};
use criterion::{criterion_group, criterion_main, env_or, Criterion};

fn bench_dispatch(c: &mut Criterion) {
    let (state_sig, load, state_plain) =
        dispatch_fixture(env_or("BENCH_USERS", 60), env_or("BENCH_TXS", 512) as usize);
    let config = ChainConfig::evaluation(3, true);

    c.bench_function("dispatch/baseline", |b| {
        let mut i = 0;
        b.iter(|| {
            let tx = &load[i % load.len()];
            i += 1;
            dispatch(tx, &state_plain, &config)
        })
    });

    c.bench_function("dispatch/cosplit-constraints", |b| {
        let mut i = 0;
        b.iter(|| {
            let tx = &load[i % load.len()];
            i += 1;
            dispatch(tx, &state_sig, &config)
        })
    });

    c.bench_function("dispatch/cosplit-with-wire", |b| {
        let mut i = 0;
        b.iter(|| {
            let tx = &load[i % load.len()];
            i += 1;
            dispatch_via_wire(tx, &state_sig, &config)
        })
    });
}

fn bench_merge(c: &mut Criterion) {
    let (state_sig, load, _) =
        dispatch_fixture(env_or("BENCH_USERS", 60), env_or("BENCH_TXS", 512) as usize);
    let deltas = epoch_deltas(&state_sig, &load);

    c.bench_function("merge/combine-deltas", |b| {
        b.iter(|| StateDelta::merge(deltas.clone()).unwrap())
    });

    c.bench_function("merge/apply", |b| {
        let merged = StateDelta::merge(deltas.clone()).unwrap();
        b.iter(|| {
            let mut state = state_sig.clone();
            merged.apply(&mut state).unwrap();
            state
        })
    });

    c.bench_function("merge/wire-encode", |b| {
        b.iter(|| deltas.iter().map(|d| d.to_wire().len()).sum::<usize>())
    });
}

criterion_group!(benches, bench_dispatch, bench_merge);
criterion_main!(benches);
