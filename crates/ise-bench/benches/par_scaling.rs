//! Criterion companion of the E7 `par_scaling` binary: one mid-size block through
//! the `ise_enum::par` driver, run whole and split into first-output tasks. On a
//! multi-core host the parallel rows shrink with the worker count; on a single-core
//! host they quantify the split-and-merge overhead (which must stay small — the
//! merge is one seen-set replay).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_enum::par::{run_blocks, BlockJob};
use ise_enum::{Constraints, EngineOptions, PruningConfig};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};

fn bench_par_scaling(c: &mut Criterion) {
    let constraints = Constraints::new(4, 2).expect("non-zero constraints");
    let pruning = PruningConfig::all();
    let dfg = random_dag(&RandomDagConfig::new(64).with_memory_ratio(0.15), 42);
    // One task that never splits is the serial run.
    let drive = |tasks, split_threshold, threads| {
        let job = BlockJob::split(&dfg, EngineOptions::default(), tasks, split_threshold);
        run_blocks(
            &[job],
            &constraints,
            &pruning,
            threads,
            None,
            |_, _, run| run,
        )
    };

    let mut group = c.benchmark_group("par_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("serial", |b| b.iter(|| drive(1, None, 1)));
    for (tasks, threads) in [(8, 1), (8, 2), (8, 4)] {
        group.bench_with_input(
            BenchmarkId::new("parallel", format!("{tasks}tasks_{threads}threads")),
            &(tasks, threads),
            |b, &(tasks, threads)| b.iter(|| drive(tasks, None, threads)),
        );
    }
    // Recursive splitting at a low threshold: quantifies the suspend/resume and
    // re-merge overhead of a split-heavy schedule (the results stay identical).
    group.bench_function("parallel/8tasks_2threads_split", |b| {
        b.iter(|| drive(8, Some(2_000), 2))
    });
    group.finish();
}

criterion_group!(benches, bench_par_scaling);
criterion_main!(benches);
