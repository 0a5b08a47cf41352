//! Frozen-reference parity suite for the substrate × sink join kernel.
//!
//! The kernel refactor rewrote every method's pairing loop on top of the
//! shared `drive_* × PairSink` kernel. This suite pins that refactor to
//! the exact pre-refactor semantics: each method in [`CsjMethod::ALL`] is
//! replayed against a frozen reference implementation — a faithful
//! transcription of the pre-kernel per-method loops, written against the
//! public API only — and must produce identical matched pairs, identical
//! similarity, and identical pairing event counters.
//!
//! Instances come from a seeded LCG sweep plus a proptest generator; the
//! paper's Section 3 worked example is pinned as a golden vector. (The
//! Figure 2/3 execution traces are golden-tested against the kernel in
//! `algorithms::minmax`, event by event.)

use csj_core::{run, Community, CsjMethod, CsjOptions, EventCounters};

/// What the pre-refactor implementations produced and the kernel must
/// reproduce bit-for-bit: matched pairs in emission order plus the
/// pairing-loop event counters.
struct RefJoin {
    pairs: Vec<(u32, u32)>,
    events: EventCounters,
}

/// The frozen pre-refactor implementations. Do not "improve" these to
/// track the kernel: their whole value is that they do NOT share code
/// with `csj_core::algorithms`.
mod reference {
    use super::RefJoin;
    use csj_core::csj_ego::{
        collect_pairs, super_ego_join, EgoStats, JoinPredicate, PointSet, SuperEgoParams,
    };
    use csj_core::csj_matching::{run_matcher, GraphBuilder, MatchGraph, MatcherKind};
    use csj_core::encoding::{encode_vector_a, encode_vector_b};
    use csj_core::{
        encode_a, encode_b, part_bounds, vectors_match, Community, CsjMethod, CsjOptions, EncodedA,
        EncodedB, Event, EventCounters,
    };
    use std::collections::HashMap;

    pub fn dispatch(method: CsjMethod, b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        match method {
            CsjMethod::ApBaseline => ap_baseline(b, a, opts),
            CsjMethod::ExBaseline => ex_baseline(b, a, opts),
            CsjMethod::ApMinMax => ap_minmax(b, a, opts),
            CsjMethod::ExMinMax => ex_minmax(b, a, opts),
            CsjMethod::ApSuperEgo => ap_superego(b, a, opts),
            CsjMethod::ExSuperEgo => ex_superego(b, a, opts),
            CsjMethod::ApHybrid => ap_hybrid(b, a, opts),
            CsjMethod::ExHybrid => ex_hybrid(b, a, opts),
            // The parity suite pins the eight concrete kernels; Auto is
            // planner sugar that resolves to one of them before dispatch.
            CsjMethod::Auto => unreachable!("parity runs concrete methods only"),
        }
    }

    fn ap_baseline(b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        let na = a.len();
        let mut events = EventCounters::default();
        let mut pairs = Vec::new();
        let mut consumed = vec![false; na];
        let mut offset = 0usize;
        for i in 0..b.len() {
            let bv = b.vector(i);
            let mut skip = true;
            let mut j = offset;
            while j < na {
                if consumed[j] {
                    if opts.offset_pruning && skip && j == offset {
                        offset += 1;
                    }
                    j += 1;
                    continue;
                }
                skip = false;
                if vectors_match(bv, a.vector(j), opts.eps) {
                    events.record(Event::Match);
                    pairs.push((i as u32, j as u32));
                    consumed[j] = true;
                    break;
                }
                events.record(Event::NoMatch);
                j += 1;
            }
        }
        RefJoin { pairs, events }
    }

    fn ex_baseline(b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        let mut events = EventCounters::default();
        let mut builder = GraphBuilder::new(b.len() as u32, a.len() as u32);
        for i in 0..b.len() {
            let bv = b.vector(i);
            for j in 0..a.len() {
                if vectors_match(bv, a.vector(j), opts.eps) {
                    events.record(Event::Match);
                    builder.add_edge(i as u32, j as u32);
                } else {
                    events.record(Event::NoMatch);
                }
            }
        }
        let pairs = run_matcher(&builder.build(), opts.matcher).into_pairs();
        RefJoin { pairs, events }
    }

    /// The encoded-ID window plus part/range filter plus full comparison,
    /// shared by both MinMax loops below (the old `RealOracle`).
    fn minmax_judge(
        b: &Community,
        a: &Community,
        eb: &EncodedB,
        ea: &EncodedA,
        eps: u32,
        b_pos: usize,
        a_pos: usize,
    ) -> Event {
        if !ea.parts_overlap(a_pos, eb.parts_of(b_pos)) {
            return Event::NoOverlap;
        }
        let bv = b.vector(eb.user_idx[b_pos] as usize);
        let av = a.vector(ea.user_idx[a_pos] as usize);
        if vectors_match(bv, av, eps) {
            Event::Match
        } else {
            Event::NoMatch
        }
    }

    fn map_positions(pos_pairs: &[(u32, u32)], eb: &EncodedB, ea: &EncodedA) -> Vec<(u32, u32)> {
        pos_pairs
            .iter()
            .map(|&(i, j)| (eb.user_idx[i as usize], ea.user_idx[j as usize]))
            .collect()
    }

    fn ap_minmax(b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        let eb = encode_b(b, opts.encoding);
        let ea = encode_a(a, opts.eps, opts.encoding);
        let na = ea.len();
        let mut events = EventCounters::default();
        let mut consumed = vec![false; na];
        let mut offset = 0usize;
        let mut pos_pairs = Vec::new();
        for (i, &id) in eb.encd_ids.iter().enumerate() {
            let mut skip = true;
            let mut j = offset;
            while j < na {
                if consumed[j] {
                    if opts.offset_pruning && skip && j == offset {
                        offset += 1;
                    }
                    j += 1;
                    continue;
                }
                if id < ea.encd_mins[j] {
                    events.record(Event::MinPrune);
                    break;
                } else if id <= ea.encd_maxs[j] {
                    let verdict = minmax_judge(b, a, &eb, &ea, opts.eps, i, j);
                    events.record(verdict);
                    if verdict == Event::Match {
                        pos_pairs.push((i as u32, j as u32));
                        consumed[j] = true;
                        break;
                    }
                    skip = false;
                    j += 1;
                } else {
                    if opts.offset_pruning && skip {
                        offset += 1;
                        events.record(Event::MaxPrune);
                    }
                    j += 1;
                }
            }
        }
        RefJoin {
            pairs: map_positions(&pos_pairs, &eb, &ea),
            events,
        }
    }

    fn ex_minmax(b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        let eb = encode_b(b, opts.encoding);
        let ea = encode_a(a, opts.eps, opts.encoding);
        let na = ea.len();
        let mut events = EventCounters::default();
        let mut flushed = vec![false; na];
        let mut offset = 0usize;
        let mut maxv = 0u64;
        let mut seg_edges: Vec<(u32, u32)> = Vec::new();
        let mut pos_pairs = Vec::new();
        for (i, &id) in eb.encd_ids.iter().enumerate() {
            let mut skip = true;
            let mut j = offset;
            while j < na {
                if flushed[j] {
                    if opts.offset_pruning && skip && j == offset {
                        offset += 1;
                    }
                    j += 1;
                    continue;
                }
                if id < ea.encd_mins[j] {
                    events.record(Event::MinPrune);
                    break;
                } else if id <= ea.encd_maxs[j] {
                    let verdict = minmax_judge(b, a, &eb, &ea, opts.eps, i, j);
                    events.record(verdict);
                    if verdict == Event::Match {
                        seg_edges.push((i as u32, j as u32));
                        if ea.encd_maxs[j] > maxv {
                            maxv = ea.encd_maxs[j];
                        }
                    }
                    skip = false;
                    j += 1;
                } else {
                    if opts.offset_pruning && skip {
                        offset += 1;
                        events.record(Event::MaxPrune);
                    }
                    j += 1;
                }
            }
            let closes_segment = match eb.encd_ids.get(i + 1) {
                Some(&next_id) => next_id > maxv,
                None => true,
            };
            if closes_segment {
                if !seg_edges.is_empty() {
                    flush_segment(&mut seg_edges, &mut flushed, opts.matcher, &mut pos_pairs);
                }
                maxv = 0;
            }
        }
        RefJoin {
            pairs: map_positions(&pos_pairs, &eb, &ea),
            events,
        }
    }

    fn flush_segment(
        seg_edges: &mut Vec<(u32, u32)>,
        flushed: &mut [bool],
        matcher: MatcherKind,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        let mut b_nodes: Vec<u32> = seg_edges.iter().map(|&(b, _)| b).collect();
        b_nodes.sort_unstable();
        b_nodes.dedup();
        let mut a_nodes: Vec<u32> = seg_edges.iter().map(|&(_, a)| a).collect();
        a_nodes.sort_unstable();
        a_nodes.dedup();
        let remapped: Vec<(u32, u32)> = seg_edges
            .iter()
            .map(|&(b, a)| {
                let bi = b_nodes.binary_search(&b).expect("node present") as u32;
                let ai = a_nodes.binary_search(&a).expect("node present") as u32;
                (bi, ai)
            })
            .collect();
        let graph = MatchGraph::from_edges(b_nodes.len() as u32, a_nodes.len() as u32, remapped);
        let matching = run_matcher(&graph, matcher);
        for &(bi, ai) in matching.pairs() {
            pairs.push((b_nodes[bi as usize], a_nodes[ai as usize]));
        }
        for &(_, a) in seg_edges.iter() {
            flushed[a as usize] = true;
        }
        seg_edges.clear();
    }

    /// The old SuperEGO `prepare`: normalise, optionally reorder
    /// dimensions, EGO-sort, derive the per-dimension predicate. Cells
    /// and the dimension ranking are the frozen ones below, so only the
    /// EGO sort itself (`PointSet::from_cells`) is shared with the code
    /// under test.
    fn ego_prepare(
        b: &Community,
        a: &Community,
        opts: &CsjOptions,
    ) -> (PointSet<f32>, PointSet<f32>, JoinPredicate<f32>) {
        let d = b.d();
        let (mut data_b, mut data_a, eps_norm, width) = ego_inputs(b, a, opts);
        if opts.superego.reorder {
            let order = frozen_dimension_order(d, &data_b, &data_a, width, 10_000);
            data_b = csj_core::csj_ego::permute_dimensions(&data_b, d, &order);
            data_a = csj_core::csj_ego::permute_dimensions(&data_a, d, &order);
        }
        let cells = |data: &[f32]| data.iter().map(|&v| floor_cell(v, width)).collect();
        let (cells_b, cells_a) = (cells(&data_b), cells(&data_a));
        let ps_b = PointSet::from_cells(d, width, data_b, cells_b, None);
        let ps_a = PointSet::from_cells(d, width, data_a, cells_a, None);
        let pred = if opts.superego.l1_predicate {
            JoinPredicate::L1 {
                eps_sum: d as f64 * eps_norm as f64,
            }
        } else {
            JoinPredicate::PerDim { eps: eps_norm }
        };
        (ps_b, ps_a, pred)
    }

    /// The old normalisation: both sides' counters divided by the
    /// SuperEGO divisor, with the normalised eps and the grid width
    /// `(data_b, data_a, eps_norm, width)`.
    pub fn ego_inputs(
        b: &Community,
        a: &Community,
        opts: &CsjOptions,
    ) -> (Vec<f32>, Vec<f32>, f32, f32) {
        let max_value = opts
            .superego
            .max_value
            .unwrap_or_else(|| b.max_counter().max(a.max_counter()))
            .max(1);
        let eps_norm = (opts.eps as f64 / max_value as f64) as f32;
        let width = if eps_norm > 0.0 { eps_norm } else { 1.0e-6 };
        (
            normalize(b.raw_data(), max_value),
            normalize(a.raw_data(), max_value),
            eps_norm,
            width,
        )
    }

    /// The old `f32` grid cell: floor of the widened quotient, clamped.
    fn floor_cell(v: f32, width: f32) -> u32 {
        let c = (v as f64 / width as f64).floor();
        if c <= 0.0 {
            0
        } else if c >= u32::MAX as f64 {
            u32::MAX
        } else {
            c as u32
        }
    }

    /// The old Super-EGO selectivity ranking: per dimension, a `HashMap`
    /// cell histogram of every `n / max_sample`-th point of each side,
    /// scored by the probability that a B and an A point land within one
    /// cell of each other; stable ascending sort.
    pub fn frozen_dimension_order(
        d: usize,
        b_data: &[f32],
        a_data: &[f32],
        width: f32,
        max_sample: usize,
    ) -> Vec<usize> {
        let histogram = |data: &[f32], dim: usize| {
            let n = data.len() / d;
            let stride = (n / max_sample.max(1)).max(1);
            let mut h: HashMap<u32, u64> = HashMap::new();
            for i in (0..n).step_by(stride) {
                *h.entry(floor_cell(data[i * d + dim], width)).or_insert(0) += 1;
            }
            h
        };
        let mut scores: Vec<(f64, usize)> = (0..d)
            .map(|dim| {
                let (hb, ha) = (histogram(b_data, dim), histogram(a_data, dim));
                let nb: u64 = hb.values().sum();
                let na: u64 = ha.values().sum();
                if nb == 0 || na == 0 {
                    return (1.0, dim);
                }
                let mut hits = 0.0f64;
                for (&c, &cb) in &hb {
                    let near = ha.get(&c).copied().unwrap_or(0)
                        + c.checked_sub(1)
                            .and_then(|p| ha.get(&p))
                            .copied()
                            .unwrap_or(0)
                        + ha.get(&c.saturating_add(1)).copied().unwrap_or(0);
                    hits += cb as f64 * near as f64;
                }
                (hits / (nb as f64 * na as f64), dim)
            })
            .collect();
        scores.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
        scores.into_iter().map(|(_, dim)| dim).collect()
    }

    fn normalize(data: &[u32], max_value: u32) -> Vec<f32> {
        csj_core::csj_ego::normalize_counters(data, max_value)
    }

    fn ap_superego(b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        let (ps_b, ps_a, pred) = ego_prepare(b, a, opts);
        let params = SuperEgoParams { t: opts.superego.t };
        let mut stats = EgoStats::default();
        let mut matched_b = vec![false; ps_b.len()];
        let mut matched_a = vec![false; ps_a.len()];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut events = EventCounters::default();
        super_ego_join(
            &ps_b,
            &ps_a,
            params,
            &mut stats,
            &mut |bs, br, as_, ar, stats| {
                for i in br {
                    if matched_b[i] {
                        continue;
                    }
                    let bp = bs.point(i);
                    for j in ar.clone() {
                        if matched_a[j] {
                            continue;
                        }
                        stats.pairs_checked += 1;
                        if pred.matches(bp, as_.point(j)) {
                            events.record(Event::Match);
                            matched_b[i] = true;
                            matched_a[j] = true;
                            pairs.push((bs.id(i), as_.id(j)));
                            break;
                        }
                        events.record(Event::NoMatch);
                    }
                }
            },
        );
        RefJoin { pairs, events }
    }

    fn ex_superego(b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        let (ps_b, ps_a, pred) = ego_prepare(b, a, opts);
        let params = SuperEgoParams { t: opts.superego.t };
        let mut stats = EgoStats::default();
        let edges = collect_pairs(&ps_b, &ps_a, pred, params, &mut stats);
        let events = EventCounters {
            matches: edges.len() as u64,
            no_match: stats.pairs_checked - edges.len() as u64,
            ..Default::default()
        };
        let graph = MatchGraph::from_edges(b.len() as u32, a.len() as u32, edges);
        let pairs = run_matcher(&graph, opts.matcher).into_pairs();
        RefJoin { pairs, events }
    }

    /// Per-user encodings addressable by community index (the old
    /// `HybridIndex`).
    struct HybridIndex {
        parts: usize,
        b_ids: Vec<u64>,
        b_parts: Vec<u64>,
        a_mins: Vec<u64>,
        a_maxs: Vec<u64>,
        a_lo: Vec<u64>,
        a_hi: Vec<u64>,
    }

    impl HybridIndex {
        fn build(b: &Community, a: &Community, eps: u32, parts: usize) -> Self {
            let bounds = part_bounds(b.d(), parts);
            let mut b_ids = Vec::with_capacity(b.len());
            let mut b_parts = Vec::with_capacity(b.len() * parts);
            for i in 0..b.len() {
                b_ids.push(encode_vector_b(b.vector(i), &bounds, &mut b_parts));
            }
            let mut a_mins = Vec::with_capacity(a.len());
            let mut a_maxs = Vec::with_capacity(a.len());
            let mut a_lo = Vec::with_capacity(a.len() * parts);
            let mut a_hi = Vec::with_capacity(a.len() * parts);
            for j in 0..a.len() {
                let (min, max) = encode_vector_a(a.vector(j), eps, &bounds, &mut a_lo, &mut a_hi);
                a_mins.push(min);
                a_maxs.push(max);
            }
            Self {
                parts,
                b_ids,
                b_parts,
                a_mins,
                a_maxs,
                a_lo,
                a_hi,
            }
        }

        fn passes_filters(&self, bi: usize, aj: usize) -> bool {
            let id = self.b_ids[bi];
            if id < self.a_mins[aj] || id > self.a_maxs[aj] {
                return false;
            }
            let p = self.parts;
            let bp = &self.b_parts[bi * p..(bi + 1) * p];
            let lo = &self.a_lo[aj * p..(aj + 1) * p];
            let hi = &self.a_hi[aj * p..(aj + 1) * p];
            bp.iter()
                .zip(lo.iter().zip(hi.iter()))
                .all(|(&s, (&l, &h))| s >= l && s <= h)
        }
    }

    fn hybrid_prepare(b: &Community, a: &Community, eps: u32) -> (PointSet<u32>, PointSet<u32>) {
        let width = eps.max(1);
        let ps_b = PointSet::build(b.d(), width, b.raw_data().to_vec(), None);
        let ps_a = PointSet::build(a.d(), width, a.raw_data().to_vec(), None);
        (ps_b, ps_a)
    }

    fn ap_hybrid(b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        let (ps_b, ps_a) = hybrid_prepare(b, a, opts.eps);
        let index = HybridIndex::build(b, a, opts.eps, opts.encoding.effective_parts(b.d()));
        let params = SuperEgoParams { t: opts.superego.t };
        let mut stats = EgoStats::default();
        let mut events = EventCounters::default();
        let mut matched_b = vec![false; b.len()];
        let mut matched_a = vec![false; a.len()];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let eps = opts.eps;
        super_ego_join(
            &ps_b,
            &ps_a,
            params,
            &mut stats,
            &mut |bs, br, as_, ar, stats| {
                for i in br {
                    let bi = bs.id(i) as usize;
                    if matched_b[bi] {
                        continue;
                    }
                    for j in ar.clone() {
                        let aj = as_.id(j) as usize;
                        if matched_a[aj] {
                            continue;
                        }
                        stats.pairs_checked += 1;
                        if !index.passes_filters(bi, aj) {
                            events.record(Event::NoOverlap);
                            continue;
                        }
                        if vectors_match(b.vector(bi), a.vector(aj), eps) {
                            events.record(Event::Match);
                            matched_b[bi] = true;
                            matched_a[aj] = true;
                            pairs.push((bi as u32, aj as u32));
                            break;
                        }
                        events.record(Event::NoMatch);
                    }
                }
            },
        );
        RefJoin { pairs, events }
    }

    fn ex_hybrid(b: &Community, a: &Community, opts: &CsjOptions) -> RefJoin {
        let (ps_b, ps_a) = hybrid_prepare(b, a, opts.eps);
        let index = HybridIndex::build(b, a, opts.eps, opts.encoding.effective_parts(b.d()));
        let params = SuperEgoParams { t: opts.superego.t };
        let mut stats = EgoStats::default();
        let mut events = EventCounters::default();
        let mut builder = GraphBuilder::new(b.len() as u32, a.len() as u32);
        let eps = opts.eps;
        super_ego_join(
            &ps_b,
            &ps_a,
            params,
            &mut stats,
            &mut |bs, br, as_, ar, stats| {
                for i in br {
                    let bi = bs.id(i) as usize;
                    for j in ar.clone() {
                        let aj = as_.id(j) as usize;
                        stats.pairs_checked += 1;
                        if !index.passes_filters(bi, aj) {
                            events.record(Event::NoOverlap);
                            continue;
                        }
                        if vectors_match(b.vector(bi), a.vector(aj), eps) {
                            events.record(Event::Match);
                            builder.add_edge(bi as u32, aj as u32);
                        } else {
                            events.record(Event::NoMatch);
                        }
                    }
                }
            },
        );
        let pairs = run_matcher(&builder.build(), opts.matcher).into_pairs();
        RefJoin { pairs, events }
    }
}

/// Run every method through the kernel and the frozen reference and
/// demand bit-identical pairs, similarity and event counters.
fn assert_parity(b: &Community, a: &Community, opts: &CsjOptions) {
    for method in CsjMethod::ALL {
        let outcome = run(method, b, a, opts).expect("valid parity instance");
        let frozen = reference::dispatch(method, b, a, opts);
        assert_eq!(
            outcome.pairs, frozen.pairs,
            "{method}: kernel pairs diverged from frozen reference\nB = {b:?}\nA = {a:?}"
        );
        assert_eq!(
            outcome.events, frozen.events,
            "{method}: kernel event counters diverged from frozen reference\nB = {b:?}\nA = {a:?}"
        );
        assert_eq!(outcome.similarity.matched, frozen.pairs.len());
        // The outcome's convenience copy must agree with the telemetry.
        assert_eq!(outcome.events, outcome.telemetry.events);
    }
}

fn lcg(seed: u64) -> impl FnMut() -> u32 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    }
}

/// Random size-admissible community pair: `ceil(|A|/2) <= |B| <= |A|`,
/// counters in `0..hi` so matches are neither trivial nor absent.
fn random_pair(seed: u64, d: usize, na: usize, hi: u32) -> (Community, Community) {
    let mut rng = lcg(seed);
    let lower = na.div_ceil(2);
    let nb = lower + (rng() as usize) % (na - lower + 1);
    let rows = |rng: &mut dyn FnMut() -> u32, n: usize| -> Vec<(u64, Vec<u32>)> {
        (0..n)
            .map(|i| (i as u64, (0..d).map(|_| rng() % hi).collect()))
            .collect()
    };
    let b = Community::from_rows("B", d, rows(&mut rng, nb)).expect("well-formed");
    let a = Community::from_rows("A", d, rows(&mut rng, na)).expect("well-formed");
    (b, a)
}

#[test]
fn lcg_sweep_all_methods() {
    for seed in 0..40u64 {
        let d = 1 + (seed % 4) as usize;
        let na = 2 + (seed % 17) as usize;
        let eps = (seed % 3) as u32;
        let parts = 1 + (seed % 5) as usize;
        let (b, a) = random_pair(seed.wrapping_mul(0x9E37), d, na, 10);
        let opts = CsjOptions::new(eps).with_parts(parts);
        assert_parity(&b, &a, &opts);
    }
}

/// Ap- and Ex-SuperEGO against the frozen `HashMap` ranking and
/// floor-based cells, pair for pair, over the LCG seeds with counter
/// ranges from a few cells (the dense count path) to far more cells than
/// points (the sorted tail), with and without a normalisation divisor
/// that makes the `f32` conversion lossy. The dimension ranking itself
/// is compared too: on these small instances a wrong ranking rarely
/// changes the pairs or the events.
#[test]
fn superego_setup_matches_frozen_reference() {
    use csj_core::csj_ego::{dimension_order, REORDER_SAMPLE};
    let mut instances: Vec<(Community, Community, CsjOptions)> = (0..40u64)
        .map(|seed| {
            let d = 1 + (seed % 6) as usize;
            let na = 20 + (seed % 23) as usize * 3;
            let hi = [10, 400, 200_000][(seed % 3) as usize];
            let eps = [0, 1, 3, 2_000][(seed % 4) as usize];
            let (b, a) = random_pair(seed.wrapping_mul(0x51ED), d, na, hi);
            let mut opts = CsjOptions::new(eps).with_parts(1 + (seed % 3) as usize);
            opts.superego.max_value = [None, Some(152_532)][(seed % 2) as usize];
            (b, a, opts)
        })
        .collect();
    // Random rows almost never put a B cell next to a cell of A's sorted
    // tail. Here B is A's first rows with one dimension a cell lower or
    // higher, on a divisor that makes cells exactly the counters.
    for seed in 0..6u64 {
        let (_, a) = random_pair(seed, 3, 60, 200_000);
        let (dim, shift) = ((seed % 3) as usize, [1i64, -1][(seed % 2) as usize]);
        let rows = (0..45).map(|i| {
            let mut row = a.vector(i).to_vec();
            row[dim] = (i64::from(row[dim]) + shift).max(0) as u32;
            (i as u64, row)
        });
        let b = Community::from_rows("B", 3, rows).expect("well-formed");
        let mut opts = CsjOptions::new(1);
        opts.superego.max_value = Some(1 << 18);
        instances.push((b, a, opts));
    }
    for (i, (b, a, opts)) in instances.iter().enumerate() {
        let (data_b, data_a, _, width) = reference::ego_inputs(b, a, opts);
        assert_eq!(
            dimension_order(b.d(), &data_b, &data_a, width, REORDER_SAMPLE),
            reference::frozen_dimension_order(b.d(), &data_b, &data_a, width, 10_000),
            "dimension order, instance {i}"
        );
        for method in [CsjMethod::ApSuperEgo, CsjMethod::ExSuperEgo] {
            let outcome = run(method, b, a, opts).expect("valid parity instance");
            let frozen = reference::dispatch(method, b, a, opts);
            assert_eq!(outcome.pairs, frozen.pairs, "{method}, instance {i}");
            assert_eq!(outcome.events, frozen.events, "{method}, instance {i}");
        }
    }
}

#[test]
fn parity_holds_with_pruning_disabled() {
    for seed in 0..10u64 {
        let (b, a) = random_pair(seed, 3, 12, 8);
        let mut opts = CsjOptions::new(1).with_parts(2);
        opts.offset_pruning = false;
        assert_parity(&b, &a, &opts);
    }
}

#[test]
fn parity_holds_for_every_matcher() {
    use csj_core::MatcherKind;
    for matcher in MatcherKind::ALL {
        for seed in 40..48u64 {
            let (b, a) = random_pair(seed, 2, 10, 6);
            let opts = CsjOptions::new(1).with_matcher(matcher);
            assert_parity(&b, &a, &opts);
        }
    }
}

#[test]
fn parity_on_sparse_and_dense_extremes() {
    // Dense: everything matches everything (hi=1 ⇒ all-zero counters).
    for seed in [1u64, 2, 3] {
        let (b, a) = random_pair(seed, 2, 9, 1);
        assert_parity(&b, &a, &CsjOptions::new(0));
    }
    // Sparse: wide counter range with eps 0 ⇒ matches are rare.
    for seed in [4u64, 5, 6] {
        let (b, a) = random_pair(seed, 2, 9, 1000);
        assert_parity(&b, &a, &CsjOptions::new(0));
    }
}

/// VK-like rows: most users share one of a few low-counter profiles, so
/// at eps 1 whole blocks of `B` rows match the same `A` columns.
fn duplicate_heavy_pair(seed: u64, nb: usize, na: usize) -> (Community, Community) {
    const PROFILES: [[u32; 3]; 5] = [[0, 0, 0], [1, 0, 0], [0, 1, 1], [2, 2, 1], [5, 0, 3]];
    let mut rng = lcg(seed);
    let mut rows = |n: usize| -> Vec<(u64, Vec<u32>)> {
        (0..n)
            .map(|i| {
                // Profile 0 three times in four, the others share the rest.
                let pick = match rng() % 16 {
                    0..=11 => 0,
                    k => 1 + (k as usize - 12),
                };
                (i as u64, PROFILES[pick].to_vec())
            })
            .collect()
    };
    let b = Community::from_rows("B", 3, rows(nb)).expect("well-formed");
    let a = Community::from_rows("A", 3, rows(na)).expect("well-formed");
    (b, a)
}

#[test]
fn parity_on_large_duplicate_heavy_segments() {
    use csj_core::MatcherKind;
    for (seed, nb, na) in [(3u64, 180usize, 240usize), (9, 240, 300)] {
        let (b, a) = duplicate_heavy_pair(seed, nb, na);
        for matcher in MatcherKind::ALL {
            let opts = CsjOptions::new(1).with_matcher(matcher);
            assert_parity(&b, &a, &opts);
            let ex = run(CsjMethod::ExMinMax, &b, &a, &opts).expect("admissible");
            let t = ex.telemetry;
            assert!(
                t.largest_flush_edges >= 5_000,
                "segments must carry thousands of edges: {}",
                t.largest_flush_edges
            );
            assert!(
                t.largest_flush_edges > 10 * a.len() as u64,
                "many B rows must share each A column"
            );
        }
    }
}

// The narrow lanes are an encoding of the same booleans, never a
// semantic change: on every lane width the kernel must match the frozen
// reference pair for pair and event for event.

#[test]
fn quantization_modes_are_bit_identical_on_u8_data() {
    // Counters < 10 with small eps: every pair runs on u8 lanes.
    for seed in 100..110u64 {
        let (b, a) = random_pair(seed, 3, 11, 10);
        assert_parity(&b, &a, &CsjOptions::new((seed % 3) as u32).with_parts(2));
    }
}

#[test]
fn quantization_modes_are_bit_identical_on_u16_data() {
    // Counters up to 40_000: u8 overflows, u16 lanes carry the pair.
    for seed in 110..116u64 {
        let (b, a) = random_pair(seed, 2, 9, 40_000);
        assert_parity(&b, &a, &CsjOptions::new(500).with_parts(2));
    }
}

#[test]
fn quantization_modes_are_bit_identical_on_u32_data() {
    // Counters past u16::MAX force the validated widening fallback: the
    // kernel must run on chunked u32 lanes and still agree.
    for seed in 116..122u64 {
        let (b, a) = random_pair(seed, 2, 9, 1_000_000);
        assert_parity(&b, &a, &CsjOptions::new(75_000).with_parts(2));
    }
}

#[test]
fn quantization_modes_agree_with_the_frozen_reference() {
    // Counters < 12 at eps 1 on three dimensions: the u8 lanes against
    // the scalar reference from the pre-kernel era.
    for seed in 0..8u64 {
        let (b, a) = random_pair(seed.wrapping_mul(0x51D), 3, 10, 12);
        assert_parity(&b, &a, &CsjOptions::new(1).with_parts(2));
    }
}

/// Golden vector: the paper's Section 3 worked example.
///
/// `B = {(3,4,2), (2,2,3)}`, `A = {(2,3,5), (2,3,1), (3,3,3)}`, eps 1.
/// Admissible pairs are (b0,a1), (b0,a2), (b1,a2); the exact similarity
/// is 100% (both B users matched), which every exact method must report.
#[test]
fn section3_worked_example_golden() {
    let b =
        Community::from_rows("B", 3, vec![(1u64, vec![3u32, 4, 2]), (2, vec![2, 2, 3])]).unwrap();
    let a = Community::from_rows(
        "A",
        3,
        vec![
            (10u64, vec![2u32, 3, 5]),
            (11, vec![2, 3, 1]),
            (12, vec![3, 3, 3]),
        ],
    )
    .unwrap();
    let opts = CsjOptions::new(1);
    assert_parity(&b, &a, &opts);

    // Every exact method recovers the full matching.
    for method in [
        CsjMethod::ExBaseline,
        CsjMethod::ExMinMax,
        CsjMethod::ExHybrid,
    ] {
        let out = run(method, &b, &a, &opts).unwrap();
        assert_eq!(out.similarity.matched, 2, "{method}");
        let mut pairs = out.pairs.clone();
        pairs.sort_unstable();
        assert!(
            pairs == vec![(0, 1), (1, 2)] || pairs == vec![(0, 2), (1, 2)],
            "{method}: unexpected matching {pairs:?}"
        );
    }
    // The greedy baseline happens to find both pairs in scan order, and
    // its event tape is fully determined: b0 rejects a0 then takes a1;
    // b1 rejects a0 then takes a2 (a1 is consumed but not yet foldable).
    let ap = run(CsjMethod::ApBaseline, &b, &a, &opts).unwrap();
    assert_eq!(ap.pairs, vec![(0, 1), (1, 2)]);
    assert_eq!(ap.events.matches, 2);
    assert_eq!(ap.events.no_match, 2);
    // Ex-Baseline compares all six pairs: three matches, three misses.
    let ex = run(CsjMethod::ExBaseline, &b, &a, &opts).unwrap();
    assert_eq!(ex.events.matches, 3);
    assert_eq!(ex.events.no_match, 3);
    assert_eq!(ex.events.full_comparisons(), 6);
}

mod prop {
    use super::{assert_parity, Community, CsjOptions};
    use proptest::prelude::*;

    /// Random size-admissible instances: `ceil(|A|/2) <= |B| <= |A|`
    /// (what [`csj_core::run`] enforces), small enough to shrink well.
    fn instances() -> impl Strategy<Value = (Community, Community, u32, usize)> {
        (1usize..=3, 0u32..=2, 1usize..=5, 2usize..=14).prop_flat_map(|(d, eps, parts, na)| {
            let lower = na.div_ceil(2);
            (lower..=na, Just(d), Just(eps), Just(parts), Just(na)).prop_flat_map(
                |(nb, d, eps, parts, na)| {
                    let rows = |n: usize| {
                        proptest::collection::vec(proptest::collection::vec(0u32..10, d), n..=n)
                    };
                    (rows(nb), rows(na), Just(d), Just(eps), Just(parts)).prop_map(
                        |(rb, ra, d, eps, parts)| {
                            let b = Community::from_rows(
                                "B",
                                d,
                                rb.into_iter().enumerate().map(|(i, v)| (i as u64, v)),
                            )
                            .expect("well-formed");
                            let a = Community::from_rows(
                                "A",
                                d,
                                ra.into_iter().enumerate().map(|(i, v)| (i as u64, v)),
                            )
                            .expect("well-formed");
                            (b, a, eps, parts)
                        },
                    )
                },
            )
        })
    }

    proptest! {
        /// Shrinking counterexample search over random admissible
        /// instances: every method through the kernel must reproduce the
        /// frozen reference's pairs, similarity and event counters.
        #[test]
        fn kernel_matches_frozen_reference((b, a, eps, parts) in instances()) {
            let opts = CsjOptions::new(eps).with_parts(parts);
            assert_parity(&b, &a, &opts);
        }

        /// The widening fallback triggers *exactly* when a counter or
        /// `eps` exceeds the narrow lane's range: the selected lane is
        /// the narrowest integer type that holds both sides' maximum
        /// counter and the threshold, never narrower (lossy) and never
        /// needlessly wider (slow).
        #[test]
        fn widening_triggers_exactly_on_range_overflow(
            max_b in 0u32..200_000,
            max_a in 0u32..200_000,
            eps in 0u32..200_000,
        ) {
            use csj_core::{pair_lane, LaneKind, QuantizedCommunity};
            let one_row = |name: &str, top: u32| {
                Community::from_rows(name, 2, vec![(1u64, vec![top, top / 2])])
                    .expect("well-formed")
            };
            let qb = QuantizedCommunity::build(&one_row("B", max_b));
            let qa = QuantizedCommunity::build(&one_row("A", max_a));
            let limit = max_b.max(max_a).max(eps);
            let expected = if limit <= u32::from(u8::MAX) {
                LaneKind::U8
            } else if limit <= u32::from(u16::MAX) {
                LaneKind::U16
            } else {
                LaneKind::U32
            };
            prop_assert_eq!(pair_lane(&qb, &qa, eps), expected);
            // The narrow side tables exist exactly when the counters fit.
            prop_assert_eq!(qb.fits(LaneKind::U8), max_b <= u32::from(u8::MAX));
            prop_assert_eq!(qb.fits(LaneKind::U16), max_b <= u32::from(u16::MAX));
        }
    }
}
