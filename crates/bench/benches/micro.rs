//! Micro-benchmarks of the CSJ building blocks: encoding construction,
//! EGO sorting/normalisation and the candidate filters.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use csj_core::{encode_a, encode_b, vectors_match, EncodingParams};
use csj_data::vklike::{VkLikeConfig, VkLikeGenerator};
use csj_ego::{
    dimension_order_cells, ego_point_sets, ego_sort_order, grid_cells, normalize_counters,
    PointSet, REORDER_SAMPLE,
};

fn vk_pair(n: usize) -> (csj_core::Community, csj_core::Community) {
    let generator = VkLikeGenerator::new(VkLikeConfig::default());
    generator.generate_pair(
        "B",
        "A",
        csj_data::Category::Sport,
        csj_data::Category::Sport,
        n,
        n + 1,
        42,
    )
}

fn vk_community(n: usize) -> csj_core::Community {
    vk_pair(n).0
}

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoding");
    for n in [1_000usize, 10_000] {
        let community = vk_community(n);
        group.bench_with_input(BenchmarkId::new("encode_b", n), &community, |bench, com| {
            bench.iter(|| encode_b(black_box(com), EncodingParams::default()));
        });
        group.bench_with_input(BenchmarkId::new("encode_a", n), &community, |bench, com| {
            bench.iter(|| encode_a(black_box(com), 1, EncodingParams::default()));
        });
    }
    group.finish();
}

fn bench_ego_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ego_setup");
    for n in [1_000usize, 10_000] {
        let (community, other) = vk_pair(n);
        let max = community.max_counter().max(other.max_counter()).max(1);
        group.bench_with_input(
            BenchmarkId::new("normalize", n),
            &community,
            |bench, com| {
                bench.iter(|| normalize_counters(black_box(com.raw_data()), max));
            },
        );
        let data = normalize_counters(community.raw_data(), max);
        let width = 1.0f32 / max as f32;
        // The EGO sort alone, on precomputed cells, then the whole point
        // set (grid cells, sort, permuted copy).
        let cells_b = grid_cells(&data, width);
        group.bench_with_input(BenchmarkId::new("ego_sort", n), &cells_b, |bench, cells| {
            bench.iter(|| ego_sort_order(27, black_box(cells)));
        });
        group.bench_with_input(
            BenchmarkId::new("point_set_build", n),
            &data,
            |bench, data| {
                bench.iter(|| PointSet::build(27, width, black_box(data.clone()), None));
            },
        );
        // The VK-like join setup at eps = 1: the dimension ranking from
        // grid cells, and the whole SuperEGO prepare (normalise both
        // sides, grid once, rank, permute, EGO-sort).
        let cells_a = grid_cells(&normalize_counters(other.raw_data(), max), width);
        group.bench_function(BenchmarkId::new("reorder", n), |bench| {
            bench.iter(|| {
                dimension_order_cells(27, black_box(&cells_b), black_box(&cells_a), REORDER_SAMPLE)
            });
        });
        group.bench_function(BenchmarkId::new("superego_prepare", n), |bench| {
            bench.iter(|| {
                ego_point_sets(
                    27,
                    width,
                    normalize_counters(black_box(community.raw_data()), max),
                    normalize_counters(black_box(other.raw_data()), max),
                    true,
                )
            });
        });
    }
    group.finish();
}

fn bench_filters(c: &mut Criterion) {
    let community = vk_community(4_000);
    let eb = encode_b(&community, EncodingParams::default());
    let ea = encode_a(&community, 1, EncodingParams::default());
    let mut group = c.benchmark_group("filters");
    group.bench_function("parts_overlap_4k_sweep", |bench| {
        bench.iter(|| {
            let mut hits = 0usize;
            for i in 0..eb.len().min(200) {
                let parts = eb.parts_of(i);
                for j in 0..ea.len().min(200) {
                    if ea.parts_overlap(j, black_box(parts)) {
                        hits += 1;
                    }
                }
            }
            hits
        });
    });
    group.bench_function("vectors_match_sweep", |bench| {
        bench.iter(|| {
            let mut hits = 0usize;
            for i in 0..community.len().min(200) {
                let v = community.vector(i);
                for j in 0..community.len().min(200) {
                    if vectors_match(black_box(v), community.vector(j), 1) {
                        hits += 1;
                    }
                }
            }
            hits
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_encoding, bench_ego_setup, bench_filters
}
criterion_main!(benches);
