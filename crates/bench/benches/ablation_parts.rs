//! Ablation: the encoding part count.
//!
//! Section 4 of the paper: "The selection of a 4-parts-segmentation
//! achieves the best tradeoff since a lower number of parts is more
//! time-costly (due to less effective pruning) and a higher number of
//! parts is more space-consuming." This bench sweeps P over
//! {1, 2, 4, 8, 13} on a VK-shaped couple and times Ap/Ex-MinMax.

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

fn bench_parts(c: &mut Criterion) {
    let pair = build_couple(
        csj_data::spec::couple(3),
        Dataset::VkLike,
        BuildOptions {
            scale: 64,
            seed: 13,
        },
    );

    let mut group = c.benchmark_group("encoding_parts");
    group.sample_size(15);
    for parts in [1usize, 2, 4, 8, 13] {
        let opts = CsjOptions::new(pair.eps).with_parts(parts);
        // Report the space half of the paper's trade-off alongside time.
        let mem = csj_core::encode_a(&pair.a, pair.eps, opts.encoding).memory_bytes()
            + csj_core::encode_b(&pair.b, opts.encoding).memory_bytes();
        eprintln!(
            "[ablation_parts] P={parts}: encoded buffers use {} KiB",
            mem / 1024
        );
        group.bench_with_input(
            BenchmarkId::new("ex_minmax", parts),
            &opts,
            |bench, opts| {
                bench.iter(|| join(CsjMethod::ExMinMax, &pair, opts));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ap_minmax", parts),
            &opts,
            |bench, opts| {
                bench.iter(|| join(CsjMethod::ApMinMax, &pair, opts));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parts);
criterion_main!(benches);
