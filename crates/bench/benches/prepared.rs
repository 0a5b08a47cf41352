//! Bench: MinMax joins over prepared (pre-encoded) communities vs raw
//! ones — quantifies what the engine's encoding cache saves per
//! screening join.

use criterion::{criterion_group, criterion_main, Criterion};

use csj_core::{run, run_prepared, CsjMethod, CsjOptions, PreparedCommunity};
use csj_data::pairs::{build_couple, BuildOptions, Dataset};

fn bench_prepared(c: &mut Criterion) {
    let pair = build_couple(
        csj_data::spec::couple(1),
        Dataset::VkLike,
        BuildOptions {
            scale: 64,
            seed: 23,
        },
    );
    let opts = CsjOptions::new(pair.eps);
    let pb = PreparedCommunity::new(pair.b.clone(), &opts);
    let pa = PreparedCommunity::new(pair.a.clone(), &opts);

    let mut group = c.benchmark_group("prepared_vs_plain");
    group.sample_size(20);
    for method in [CsjMethod::ApMinMax, CsjMethod::ExMinMax] {
        let name = method.name().replace('-', "_");
        group.bench_function(format!("{name}_plain"), |bench| {
            bench.iter(|| run(method, &pair.b, &pair.a, &opts).unwrap().pairs.len());
        });
        group.bench_function(format!("{name}_prepared"), |bench| {
            bench.iter(|| run_prepared(method, &pb, &pa, &opts).unwrap().pairs.len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prepared);
criterion_main!(benches);
