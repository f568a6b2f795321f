//! Criterion bench: the max-min fair solvers at realistic flow/link scales —
//! the from-scratch reference ([`maxmin::solve`]), the incremental
//! [`MaxMinState`] on the drain loop's one operation (a flow completion),
//! and the two drain implementations end to end.
//!
//! `BENCH_maxmin.json` at the repository root records the trajectory of
//! these numbers (and the month-scale test-suite wall times) across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use c4::prelude::*;
use c4_bench::{synth_drain_specs, synth_maxmin_problem as synth};

fn bench_maxmin(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxmin_solve");
    group.sample_size(20);
    for &(links, flows) in &[(600usize, 100usize), (3600, 400), (6000, 1500)] {
        let (capacity, routes) = synth(links, flows, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{links}l_{flows}f")),
            &(),
            |b, _| b.iter(|| c4_netsim::maxmin::solve(&capacity, &routes, None)),
        );
    }
    group.finish();
}

/// One flow completes: re-solve from scratch vs incremental removal.
/// (The incremental side clones the solved state per iteration so every
/// removal starts from the same baseline; the clone is pure memcpy and is
/// charged against it.)
fn bench_completion_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxmin_completion_resolve");
    group.sample_size(20);
    for &(links, flows) in &[(600usize, 100usize), (3600, 400), (6000, 1500)] {
        let (capacity, routes) = synth(links, flows, 7);
        let removed = flows / 2;

        let remaining: Vec<Vec<u32>> = routes
            .iter()
            .enumerate()
            .filter(|(f, _)| *f != removed)
            .map(|(_, r)| r.clone())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("from_scratch", format!("{links}l_{flows}f")),
            &(),
            |b, _| b.iter(|| c4_netsim::maxmin::solve(&capacity, &remaining, None)),
        );

        let mut state = MaxMinState::with_flows(&capacity, &routes);
        let _ = state.rates();
        group.bench_with_input(
            BenchmarkId::new("incremental", format!("{links}l_{flows}f")),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut s = state.clone();
                    s.remove_flow(removed);
                    s.rates().len()
                })
            },
        );
    }
    group.finish();
}

/// The drain loop end to end: many same-sized QPs contending on shared
/// receive ports under DCQCN noise + CNP accounting — the scenario-suite
/// hot path. Compares the incremental drain against the retained reference.
fn bench_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("drain_noisy_shared");
    group.sample_size(10);
    let topo = Topology::build(&ClosConfig::testbed_128());
    let specs = synth_drain_specs(&topo, 256, 3);
    let cfg = DrainConfig {
        rate_noise: 0.1,
        cnp: Some(CnpModel::paper_default()),
        ..DrainConfig::default()
    };
    group.bench_with_input(BenchmarkId::new("incremental", "256qp"), &(), |b, _| {
        b.iter(|| {
            let mut rng = DetRng::seed_from(42);
            drain(&topo, &specs, &cfg, &mut rng).end
        })
    });
    group.bench_with_input(BenchmarkId::new("reference", "256qp"), &(), |b, _| {
        b.iter(|| {
            let mut rng = DetRng::seed_from(42);
            drain_reference(&topo, &specs, &cfg, &mut rng).end
        })
    });
    group.finish();
}

criterion_group!(benches, bench_maxmin, bench_completion_resolve, bench_drain);
criterion_main!(benches);
