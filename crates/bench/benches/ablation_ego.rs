//! Ablations of the SuperEGO machinery:
//!
//! * dimension reordering on/off (Super-EGO's key optimisation),
//! * the leaf threshold `t`,
//! * the per-dimension predicate versus the literal aggregate-L1 reading
//!   (which the paper's wording suggests but which over-counts),
//! * the hybrid MinMax–SuperEGO versus plain SuperEGO and Ex-MinMax
//!   (the Section 6.2 "combined algorithm" claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use csj_core::{run, CsjMethod, CsjOptions};
use csj_data::pairs::{build_couple, BuildOptions, CouplePair, Dataset};

/// Matched pairs of one join of `pair` (paper couples satisfy the CSJ
/// size constraint).
fn join(method: CsjMethod, pair: &CouplePair, opts: &CsjOptions) -> usize {
    run(method, &pair.b, &pair.a, opts)
        .expect("valid paper couple")
        .pairs
        .len()
}

fn vk_pair() -> CouplePair {
    build_couple(
        csj_data::spec::couple(6),
        Dataset::VkLike,
        BuildOptions {
            scale: 64,
            seed: 21,
        },
    )
}

fn base_opts(pair: &CouplePair) -> CsjOptions {
    let mut opts = CsjOptions::new(pair.eps);
    opts.superego.max_value = Some(pair.superego_max_value);
    opts
}

fn bench_reorder(c: &mut Criterion) {
    let pair = vk_pair();
    let mut group = c.benchmark_group("ego_reorder");
    group.sample_size(15);
    for reorder in [true, false] {
        let mut opts = base_opts(&pair);
        opts.superego.reorder = reorder;
        group.bench_with_input(
            BenchmarkId::from_parameter(if reorder { "on" } else { "off" }),
            &opts,
            |bench, opts| {
                bench.iter(|| join(CsjMethod::ExSuperEgo, &pair, opts));
            },
        );
    }
    group.finish();
}

fn bench_leaf_threshold(c: &mut Criterion) {
    let pair = vk_pair();
    let mut group = c.benchmark_group("ego_leaf_threshold");
    group.sample_size(15);
    for t in [8usize, 32, 128, 512] {
        let mut opts = base_opts(&pair);
        opts.superego.t = t;
        group.bench_with_input(BenchmarkId::from_parameter(t), &opts, |bench, opts| {
            bench.iter(|| join(CsjMethod::ExSuperEgo, &pair, opts));
        });
    }
    group.finish();
}

fn bench_predicate(c: &mut Criterion) {
    let pair = vk_pair();
    let per_dim = base_opts(&pair);
    let mut l1 = per_dim.clone();
    l1.superego.l1_predicate = true;
    let per_dim_pairs = join(CsjMethod::ExSuperEgo, &pair, &per_dim);
    let l1_pairs = join(CsjMethod::ExSuperEgo, &pair, &l1);
    eprintln!(
        "[ablation_ego] per-dim predicate matches {per_dim_pairs}, aggregate-L1 matches {l1_pairs} \
         (L1 over-counts; the per-dimension reading is the faithful CSJ adaptation)"
    );
    let mut group = c.benchmark_group("ego_predicate");
    group.sample_size(15);
    group.bench_function("per_dim", |bench| {
        bench.iter(|| join(CsjMethod::ExSuperEgo, &pair, &per_dim));
    });
    group.bench_function("l1_aggregate", |bench| {
        bench.iter(|| join(CsjMethod::ExSuperEgo, &pair, &l1));
    });
    group.finish();
}

fn bench_hybrid(c: &mut Criterion) {
    let pair = vk_pair();
    let opts = base_opts(&pair);
    let mut group = c.benchmark_group("hybrid_vs_superego");
    group.sample_size(15);
    group.bench_function("ex_superego", |bench| {
        bench.iter(|| join(CsjMethod::ExSuperEgo, &pair, &opts));
    });
    group.bench_function("ex_hybrid", |bench| {
        bench.iter(|| join(CsjMethod::ExHybrid, &pair, &opts));
    });
    group.bench_function("ex_minmax", |bench| {
        bench.iter(|| join(CsjMethod::ExMinMax, &pair, &opts));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_reorder,
    bench_leaf_threshold,
    bench_predicate,
    bench_hybrid
);
criterion_main!(benches);
