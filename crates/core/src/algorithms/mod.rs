//! The CSJ join methods and their shared driver.
//!
//! Six paper methods (approximate/exact × Baseline/MinMax/SuperEGO) plus
//! the hybrid MinMax–SuperEGO pair sketched in the paper's Section 6.2
//! discussion. Every join enters through [`run`] (raw communities) or
//! [`run_prepared`] (cached [`PreparedCommunity`] state); both validate
//! the instance the same way and reach one dispatch, which runs the
//! method's substrate function with its sink, times the execution and
//! assembles a [`JoinOutcome`].

mod baseline;
mod hybrid;
pub(crate) mod kernel;
pub(crate) mod minmax;
mod superego;

use std::time::{Duration, Instant};

use csj_ego::EgoStats;
use csj_matching::MatcherKind;

use crate::cancel::CancelToken;
use crate::community::Community;
use crate::encoding::{encode_a, encode_b, EncodedA, EncodedB, EncodingParams};
use crate::error::CsjError;
use crate::events::EventCounters;
use crate::plan::{choose, density_estimate, Exactness};
use crate::prepared::PreparedCommunity;
use crate::quant::{LaneView, QuantizedCommunity};
use crate::similarity::Similarity;
use crate::telemetry::JoinTelemetry;
use crate::validate_sizes;
use kernel::{CollectSink, GreedySink};

/// The CSJ method to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsjMethod {
    /// Approximate nested-loop join (Section 5.1).
    ApBaseline,
    /// Exact nested-loop join + one CSF call (Section 5.1).
    ExBaseline,
    /// Approximate MinMax (Algorithm Ap-MinMax, Section 4.1).
    ApMinMax,
    /// Exact MinMax (Algorithm Ex-MinMax, Section 4.2).
    ExMinMax,
    /// Approximate SuperEGO adaptation (Section 5.2).
    ApSuperEgo,
    /// Exact SuperEGO adaptation (Section 5.2).
    ExSuperEgo,
    /// Approximate MinMax–SuperEGO hybrid (Section 6.2 discussion):
    /// SuperEGO recursion on raw integers with the encoded greedy leaf.
    ApHybrid,
    /// Exact MinMax–SuperEGO hybrid: integer recursion, encoded all-pairs
    /// leaf, one matcher call.
    ExHybrid,
    /// Delegate method selection to the density rule (the paper's §6.2
    /// "combined algorithm"): [`run`], [`run_prepared`] and the engine
    /// resolve this through [`crate::plan::choose`] on the pair's
    /// measured candidate density. Never appears in [`CsjMethod::ALL`]
    /// — every plan produces one of the eight concrete methods above.
    Auto,
}

impl CsjMethod {
    /// The six methods evaluated in the paper, in table column order.
    pub const PAPER: [CsjMethod; 6] = [
        CsjMethod::ApBaseline,
        CsjMethod::ApMinMax,
        CsjMethod::ApSuperEgo,
        CsjMethod::ExBaseline,
        CsjMethod::ExMinMax,
        CsjMethod::ExSuperEgo,
    ];

    /// All methods, including the hybrid extensions.
    pub const ALL: [CsjMethod; 8] = [
        CsjMethod::ApBaseline,
        CsjMethod::ApMinMax,
        CsjMethod::ApSuperEgo,
        CsjMethod::ApHybrid,
        CsjMethod::ExBaseline,
        CsjMethod::ExMinMax,
        CsjMethod::ExSuperEgo,
        CsjMethod::ExHybrid,
    ];

    /// Whether the method is exact (gathers all candidates and matches
    /// one-to-one optimally w.r.t. its matcher). [`CsjMethod::Auto`] is
    /// not exact: the planner may legally resolve it to an approximate
    /// method, so callers that *require* exactness must not rely on it.
    pub fn is_exact(self) -> bool {
        match self {
            CsjMethod::ExBaseline
            | CsjMethod::ExMinMax
            | CsjMethod::ExSuperEgo
            | CsjMethod::ExHybrid => true,
            CsjMethod::ApBaseline
            | CsjMethod::ApMinMax
            | CsjMethod::ApSuperEgo
            | CsjMethod::ApHybrid
            | CsjMethod::Auto => false,
        }
    }

    /// The approximate counterpart of this method: each Ex-* variant
    /// maps to the Ap-* variant of the same family (Section 5's ladder),
    /// except Ex-SuperEGO. Ap-SuperEGO compares normalised `f32` values
    /// and loses pairs whose counters differ by exactly eps (0 of 2 on
    /// the Section 3 example), so Ex-SuperEGO maps to Ap-Hybrid, the
    /// same EGO recursion on the raw integer counters. Ap-* methods map
    /// to themselves, and [`CsjMethod::Auto`] stays delegated. Each
    /// Ex-* counterpart compares counters exactly, never over-counts,
    /// and its greedy maximal matching reaches at least half the
    /// maximum: its score is a lower bound on the exact score within a
    /// factor of two of it — the property that makes exact→approximate
    /// degradation sound.
    pub fn approximate_counterpart(self) -> CsjMethod {
        match self {
            CsjMethod::ExBaseline => CsjMethod::ApBaseline,
            CsjMethod::ExMinMax => CsjMethod::ApMinMax,
            CsjMethod::ExSuperEgo => CsjMethod::ApHybrid,
            CsjMethod::ExHybrid => CsjMethod::ApHybrid,
            CsjMethod::ApBaseline => CsjMethod::ApBaseline,
            CsjMethod::ApMinMax => CsjMethod::ApMinMax,
            CsjMethod::ApSuperEgo => CsjMethod::ApSuperEgo,
            CsjMethod::ApHybrid => CsjMethod::ApHybrid,
            CsjMethod::Auto => CsjMethod::Auto,
        }
    }

    /// Stable name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            CsjMethod::ApBaseline => "ap-baseline",
            CsjMethod::ExBaseline => "ex-baseline",
            CsjMethod::ApMinMax => "ap-minmax",
            CsjMethod::ExMinMax => "ex-minmax",
            CsjMethod::ApSuperEgo => "ap-superego",
            CsjMethod::ExSuperEgo => "ex-superego",
            CsjMethod::ApHybrid => "ap-hybrid",
            CsjMethod::ExHybrid => "ex-hybrid",
            CsjMethod::Auto => "auto",
        }
    }
}

impl std::str::FromStr for CsjMethod {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(CsjMethod::Auto);
        }
        CsjMethod::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown CSJ method: {s:?}"))
    }
}

impl std::fmt::Display for CsjMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning of the SuperEGO-based methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperEgoConfig {
    /// Leaf threshold `t` of the recursion (paper's parameter `t`).
    pub t: usize,
    /// Apply Super-EGO dimension reordering before sorting.
    pub reorder: bool,
    /// Normalisation divisor. `None` uses the larger of the two
    /// communities' maxima; the paper uses the dataset-wide maximum
    /// (152 532 for VK, 500 000 for Synthetic).
    pub max_value: Option<u32>,
    /// Use the aggregate-L1 predicate instead of the per-dimension one
    /// (ablation only; overestimates CSJ similarity — see `csj_ego`).
    pub l1_predicate: bool,
}

impl Default for SuperEgoConfig {
    fn default() -> Self {
        Self {
            t: 32,
            reorder: true,
            max_value: None,
            l1_predicate: false,
        }
    }
}

/// Options shared by all CSJ methods.
#[derive(Debug, Clone, PartialEq)]
pub struct CsjOptions {
    /// The per-dimension absolute-difference threshold.
    pub eps: u32,
    /// MinMax encoding parameters (part count).
    pub encoding: EncodingParams,
    /// One-to-one matcher used by the exact methods (paper: CSF).
    pub matcher: MatcherKind,
    /// SuperEGO tuning.
    pub superego: SuperEgoConfig,
    /// Enforce `ceil(|A|/2) <= |B| <= |A|`. The paper always enforces it;
    /// disabling is useful for diagnostics on arbitrary community pairs.
    pub enforce_sizes: bool,
    /// Enable the `skip`/`offset` prefix pruning of the Baseline and
    /// MinMax loops (Section 4.1). On by default; disabling exists for
    /// the `ablation_skip` bench that quantifies its contribution.
    pub offset_pruning: bool,
    /// Cooperative cancellation hook. When set, the join loops poll the
    /// token at per-row granularity and stop early once it trips; the
    /// truncated result is reported via [`JoinOutcome::cancelled`].
    /// `None` (the default) runs to completion.
    pub cancel: Option<CancelToken>,
}

impl CsjOptions {
    /// Defaults from the paper: 4 encoding parts, CSF matcher, size
    /// constraint enforced.
    pub fn new(eps: u32) -> Self {
        Self {
            eps,
            encoding: EncodingParams::default(),
            matcher: MatcherKind::Csf,
            superego: SuperEgoConfig::default(),
            enforce_sizes: true,
            offset_pruning: true,
            cancel: None,
        }
    }

    /// Builder-style: set the matcher.
    pub fn with_matcher(mut self, matcher: MatcherKind) -> Self {
        self.matcher = matcher;
        self
    }

    /// Builder-style: set the encoding part count.
    pub fn with_parts(mut self, parts: usize) -> Self {
        self.encoding = EncodingParams { parts };
        self
    }

    /// Builder-style: attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether the attached token (if any) has been tripped.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// Wall-clock breakdown of one join's phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Input preparation: quantized lanes (all but SuperEGO) and
    /// encodings (MinMax) when the entry builds them, normalisation +
    /// dimension reordering + EGO sort (SuperEGO/hybrid). Near zero for
    /// Baseline and MinMax over prepared inputs.
    pub setup: Duration,
    /// The pairing loop / recursion, including filter checks and full
    /// comparisons.
    pub pairing: Duration,
    /// One-to-one matcher time (CSF flushes in Ex-MinMax, the single
    /// final matcher call elsewhere). Zero for approximate methods.
    pub matching: Duration,
}

impl PhaseTimings {
    /// Total across the three phases.
    pub fn total(&self) -> Duration {
        self.setup + self.pairing + self.matching
    }
}

/// Intermediate result of one substrate function before the dispatch
/// packages it into a [`JoinOutcome`].
#[derive(Debug, Clone, Default)]
pub(crate) struct RawJoin {
    /// Matched pairs as `(b_index, a_index)` into the two communities.
    pub pairs: Vec<(u32, u32)>,
    /// Kernel telemetry of the drive (event counters, stream depths,
    /// prune histograms, matcher flushes, cancel polls).
    pub telemetry: JoinTelemetry,
    /// Recursion statistics for the EGO-based methods.
    pub ego: Option<EgoStats>,
    /// Per-phase wall-clock breakdown.
    pub timings: PhaseTimings,
    /// The join stopped early because [`CsjOptions::cancel`] tripped; the
    /// pairs above are a valid but possibly incomplete matching.
    pub cancelled: bool,
}

/// The full result of a CSJ join.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// The method that produced this outcome.
    pub method: CsjMethod,
    /// The similarity score (Equation 1).
    pub similarity: Similarity,
    /// Matched pairs as `(b_index, a_index)` into the two communities.
    pub pairs: Vec<(u32, u32)>,
    /// Pairing-process event counters (a copy of `telemetry.events`,
    /// kept as a first-class field for reporting convenience).
    pub events: EventCounters,
    /// Kernel telemetry of the join (per-row candidate-stream depth,
    /// prune histograms, matcher flush counts, cancel polls).
    pub telemetry: JoinTelemetry,
    /// Recursion statistics (EGO-based methods only).
    pub ego_stats: Option<EgoStats>,
    /// Wall-clock execution time (excludes input validation).
    pub elapsed: Duration,
    /// Per-phase breakdown (setup / pairing / matching).
    pub timings: PhaseTimings,
    /// The join was cancelled mid-flight (see [`CsjOptions::cancel`]);
    /// `similarity` and `pairs` reflect only the work done before the
    /// token tripped and may under-count.
    pub cancelled: bool,
}

impl JoinOutcome {
    /// Resolve the matched pairs into external [`crate::UserId`]s.
    pub fn pairs_as_user_ids(&self, b: &Community, a: &Community) -> Vec<(u64, u64)> {
        self.pairs
            .iter()
            .map(|&(i, j)| (b.user_id(i as usize), a.user_id(j as usize)))
            .collect()
    }
}

/// Orient two communities for CSJ: returns `(smaller, larger)` — the paper
/// depicts "the less-followed community by B and the more-followed
/// community by A". Ties keep the argument order.
pub fn orient<'c>(x: &'c Community, y: &'c Community) -> (&'c Community, &'c Community) {
    if x.len() <= y.len() {
        (x, y)
    } else {
        (y, x)
    }
}

/// What one join reads: the two communities plus the prepared pieces
/// its substrate consults. [`run`] builds only what the method needs;
/// [`run_prepared`] borrows everything from the two
/// [`PreparedCommunity`]s.
pub(crate) struct JoinInput<'x> {
    pub b: &'x Community,
    pub a: &'x Community,
    /// Quantized lanes of `b` and `a`: borrowed from prepared inputs;
    /// [`run`] builds them unless the method is SuperEGO (which
    /// compares normalised floats).
    pub quant: Option<(&'x QuantizedCommunity, &'x QuantizedCommunity)>,
    /// `Encd_B` of `b` and `Encd_A` of `a` (present for MinMax).
    pub encoded: Option<(&'x EncodedB, &'x EncodedA)>,
}

impl<'x> JoinInput<'x> {
    /// The pair's lane-resolved comparison view.
    pub(crate) fn lanes(&self, opts: &CsjOptions) -> LaneView<'x> {
        LaneView::select(self.b, self.a, self.quant, opts.eps)
    }
}

/// The checks both entries share: dimensionality, the size constraint
/// (unless [`CsjOptions::enforce_sizes`] is off) and the tuning values.
fn validate(b: &Community, a: &Community, opts: &CsjOptions) -> Result<(), CsjError> {
    if b.d() != a.d() {
        return Err(CsjError::DimensionMismatch {
            b_d: b.d(),
            a_d: a.d(),
        });
    }
    if opts.enforce_sizes {
        validate_sizes(b.len(), a.len())?;
    }
    opts.encoding.validate(b.d())?;
    if opts.superego.t < 2 {
        return Err(CsjError::InvalidOptions(format!(
            "SuperEGO leaf threshold t must be >= 2, got {}",
            opts.superego.t
        )));
    }
    Ok(())
}

/// Resolve [`CsjMethod::Auto`] by the density rule on the pair's MinMax
/// encodings (the approximate pick, as for [`Exactness::Any`]); a
/// concrete method passes through untouched.
fn resolve(method: CsjMethod, eb: &EncodedB, ea: &EncodedA) -> CsjMethod {
    match method {
        CsjMethod::Auto => choose(density_estimate(eb, ea), Exactness::Any),
        concrete => concrete,
    }
}

/// Validate inputs and execute `method` on communities `b` (smaller) and
/// `a` (larger), building the quantized lanes and MinMax encodings the
/// method needs.
///
/// Returns [`CsjError::DimensionMismatch`] when the communities disagree
/// on `d`, [`CsjError::SizeConstraint`] when
/// `ceil(|A|/2) <= |B| <= |A|` fails (unless
/// [`CsjOptions::enforce_sizes`] is off) and [`CsjError::InvalidOptions`]
/// for bad tuning values.
pub fn run(
    method: CsjMethod,
    b: &Community,
    a: &Community,
    opts: &CsjOptions,
) -> Result<JoinOutcome, CsjError> {
    validate(b, a, opts)?;
    let start = Instant::now();
    let encode = || {
        (
            encode_b(b, opts.encoding),
            encode_a(a, opts.eps, opts.encoding),
        )
    };
    // `Auto` measures density on the MinMax encodings, which a MinMax
    // pick then reuses.
    let planned = (method == CsjMethod::Auto).then(encode);
    let method = planned
        .as_ref()
        .map_or(method, |(eb, ea)| resolve(method, eb, ea));
    let lanes = (!matches!(method, CsjMethod::ApSuperEgo | CsjMethod::ExSuperEgo))
        .then(|| (QuantizedCommunity::build(b), QuantizedCommunity::build(a)));
    let encoded = matches!(method, CsjMethod::ApMinMax | CsjMethod::ExMinMax)
        .then(|| planned.unwrap_or_else(encode));
    let input = JoinInput {
        b,
        a,
        quant: lanes.as_ref().map(|(qb, qa)| (qb, qa)),
        encoded: encoded.as_ref().map(|(eb, ea)| (eb, ea)),
    };
    Ok(execute(method, &input, opts, start))
}

/// [`run`] over prepared communities (`b` smaller, `a` larger): every
/// method borrows the cached quantized lanes and MinMax encodings
/// instead of building them.
///
/// Validates exactly like [`run`], and additionally returns
/// [`CsjError::InvalidOptions`] when either side was prepared for a
/// different `eps` or encoding than `opts` asks for.
pub fn run_prepared(
    method: CsjMethod,
    b: &PreparedCommunity,
    a: &PreparedCommunity,
    opts: &CsjOptions,
) -> Result<JoinOutcome, CsjError> {
    validate(b.community(), a.community(), opts)?;
    b.check_options(opts)?;
    a.check_options(opts)?;
    let start = Instant::now();
    let method = resolve(method, b.encoded_b(), a.encoded_a());
    let input = JoinInput {
        b: b.community(),
        a: a.community(),
        quant: Some((b.quantized(), a.quantized())),
        encoded: Some((b.encoded_b(), a.encoded_a())),
    };
    Ok(execute(method, &input, opts, start))
}

/// The one dispatch behind both entries: run the resolved `method`'s
/// substrate function with its sink and package the outcome. `start`
/// is when the entry began building `input`; that span counts as setup.
fn execute(method: CsjMethod, input: &JoinInput, opts: &CsjOptions, start: Instant) -> JoinOutcome {
    let setup = start.elapsed();
    let (nb, na) = (input.b.len(), input.a.len());
    let greedy = || GreedySink::new(nb, na);
    // Ex-Baseline matches what it gathered even after a cancel; the EGO
    // methods skip the matcher so cancellation stays prompt.
    let whole = |matcher_on_cancel| CollectSink::whole(nb, na, opts.matcher, matcher_on_cancel);
    let mut raw = match method {
        CsjMethod::ApBaseline => baseline::baseline(input, greedy(), opts),
        CsjMethod::ExBaseline => baseline::baseline(input, whole(true), opts),
        CsjMethod::ApMinMax => minmax::minmax(input, greedy(), opts),
        CsjMethod::ExMinMax => {
            minmax::minmax(input, CollectSink::segmented(na, opts.matcher), opts)
        }
        CsjMethod::ApSuperEgo => superego::superego(input, greedy(), opts),
        CsjMethod::ExSuperEgo => superego::superego(input, whole(false), opts),
        CsjMethod::ApHybrid => hybrid::hybrid(input, greedy(), opts),
        CsjMethod::ExHybrid => hybrid::hybrid(input, whole(false), opts),
        CsjMethod::Auto => unreachable!("Auto is resolved by resolve"),
    };
    raw.timings.setup += setup;
    let elapsed = start.elapsed();

    debug_assert!(raw.pairs.len() <= nb);
    JoinOutcome {
        method,
        similarity: Similarity::new(raw.pairs.len(), nb),
        pairs: raw.pairs,
        events: raw.telemetry.events,
        telemetry: raw.telemetry,
        ego_stats: raw.ego,
        elapsed,
        timings: raw.timings,
        cancelled: raw.cancelled,
    }
}

/// Unit-test shorthand: run `method` without the size constraint and
/// unwrap.
#[cfg(test)]
pub(crate) fn join_unchecked(
    method: CsjMethod,
    b: &Community,
    a: &Community,
    opts: &CsjOptions,
) -> JoinOutcome {
    let opts = CsjOptions {
        enforce_sizes: false,
        ..opts.clone()
    };
    run(method, b, a, &opts).expect("valid test instance")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str, rows: &[&[u32]]) -> Community {
        let mut c = Community::new(name, rows[0].len());
        for (i, r) in rows.iter().enumerate() {
            c.push(i as u64, r).unwrap();
        }
        c
    }

    #[test]
    fn method_name_roundtrip() {
        for m in CsjMethod::ALL {
            let parsed: CsjMethod = m.name().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert_eq!("auto".parse::<CsjMethod>().unwrap(), CsjMethod::Auto);
        assert_eq!(CsjMethod::Auto.name(), "auto");
        assert!("bogus".parse::<CsjMethod>().is_err());
    }

    #[test]
    fn exactness_flags() {
        assert!(!CsjMethod::ApBaseline.is_exact());
        assert!(CsjMethod::ExBaseline.is_exact());
        assert!(CsjMethod::ExHybrid.is_exact());
        assert!(!CsjMethod::ApHybrid.is_exact());
        // Auto may resolve to an approximate method, so it must never
        // count as exact (breaker gating, refine caching rely on this).
        assert!(!CsjMethod::Auto.is_exact());
    }

    #[test]
    fn approximate_counterpart_is_exhaustive() {
        use CsjMethod::*;
        let expected = [
            (ApBaseline, ApBaseline),
            (ApMinMax, ApMinMax),
            (ApSuperEgo, ApSuperEgo),
            (ApHybrid, ApHybrid),
            (ExBaseline, ApBaseline),
            (ExMinMax, ApMinMax),
            (ExSuperEgo, ApHybrid),
            (ExHybrid, ApHybrid),
            (Auto, Auto),
        ];
        for (m, want) in expected {
            assert_eq!(m.approximate_counterpart(), want, "{m}");
        }
        // Every concrete counterpart is approximate and idempotent.
        for m in CsjMethod::ALL {
            let ap = m.approximate_counterpart();
            assert!(!ap.is_exact(), "{m}");
            assert_eq!(ap.approximate_counterpart(), ap, "{m}");
        }
    }

    #[test]
    fn auto_is_not_listed_but_resolves_to_a_concrete_method() {
        assert!(!CsjMethod::ALL.contains(&CsjMethod::Auto));
        assert!(!CsjMethod::PAPER.contains(&CsjMethod::Auto));
        let b = tiny("B", &[&[3, 4, 2], &[2, 2, 3]]);
        let a = tiny("A", &[&[2, 3, 5], &[2, 3, 1], &[3, 3, 3]]);
        let opts = CsjOptions::new(1).with_parts(3);
        let out = run(CsjMethod::Auto, &b, &a, &opts).unwrap();
        assert_ne!(out.method, CsjMethod::Auto);
        assert!(CsjMethod::ALL.contains(&out.method));
        // Every counter pair is within a few eps: dense, so the rule's
        // approximate pick is Ap-SuperEGO, and `Auto` answers exactly
        // what its pick answers.
        assert_eq!(out.method, CsjMethod::ApSuperEgo);
        let pinned = run(out.method, &b, &a, &opts).unwrap();
        assert_eq!(out.pairs, pinned.pairs);
    }

    #[test]
    fn orient_puts_smaller_first() {
        let small = tiny("s", &[&[1, 1]]);
        let large = tiny("l", &[&[1, 1], &[2, 2]]);
        let (b, a) = orient(&large, &small);
        assert_eq!(b.name(), "s");
        assert_eq!(a.name(), "l");
        let (b, a) = orient(&small, &large);
        assert_eq!((b.name(), a.name()), ("s", "l"));
    }

    #[test]
    fn run_rejects_dimension_mismatch() {
        let b = tiny("b", &[&[1, 2]]);
        let a = tiny("a", &[&[1, 2, 3]]);
        let err = run(CsjMethod::ApBaseline, &b, &a, &CsjOptions::new(1)).unwrap_err();
        assert!(matches!(err, CsjError::DimensionMismatch { .. }));
    }

    #[test]
    fn run_enforces_size_constraint() {
        let b = tiny("b", &[&[1, 2]]);
        let a = tiny("a", &[&[1, 2], &[3, 4], &[5, 6]]);
        let err = run(
            CsjMethod::ApBaseline,
            &b,
            &a,
            &CsjOptions::new(1).with_parts(2),
        )
        .unwrap_err();
        assert!(matches!(err, CsjError::SizeConstraint { nb: 1, na: 3 }));
        let mut opts = CsjOptions::new(1).with_parts(2);
        opts.enforce_sizes = false;
        assert!(run(CsjMethod::ApBaseline, &b, &a, &opts).is_ok());
    }

    #[test]
    fn run_rejects_bad_options() {
        let b = tiny("b", &[&[1, 2]]);
        let a = tiny("a", &[&[1, 2]]);
        let opts = CsjOptions::new(1).with_parts(0); // zero parts
        assert!(matches!(
            run(CsjMethod::ApMinMax, &b, &a, &opts).unwrap_err(),
            CsjError::InvalidOptions(_)
        ));
        let mut opts = CsjOptions::new(1);
        opts.superego.t = 1;
        assert!(run(CsjMethod::ApSuperEgo, &b, &a, &opts).is_err());
    }

    #[test]
    fn phase_timings_are_populated() {
        let rows: Vec<Vec<u32>> = (0..60u32).map(|i| vec![i % 9, i % 7, i % 5]).collect();
        let refs: Vec<(u64, Vec<u32>)> = rows
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let b = Community::from_rows("B", 3, refs.clone()).unwrap();
        let a = Community::from_rows("A", 3, refs).unwrap();
        let opts = CsjOptions::new(1).with_parts(3);
        for m in CsjMethod::ALL {
            let out = run(m, &b, &a, &opts).unwrap();
            let t = out.timings;
            assert!(
                t.total() <= out.elapsed + std::time::Duration::from_millis(5),
                "{m}: phases exceed elapsed"
            );
            assert!(
                t.pairing > std::time::Duration::ZERO,
                "{m}: pairing phase untimed"
            );
            if matches!(
                m,
                CsjMethod::ExBaseline | CsjMethod::ExSuperEgo | CsjMethod::ExHybrid
            ) {
                // These run exactly one matcher call over a non-empty graph.
                assert!(
                    t.matching > std::time::Duration::ZERO,
                    "{m}: matching untimed"
                );
            }
            if matches!(
                m,
                CsjMethod::ApMinMax
                    | CsjMethod::ExMinMax
                    | CsjMethod::ApSuperEgo
                    | CsjMethod::ExSuperEgo
            ) {
                assert!(t.setup > std::time::Duration::ZERO, "{m}: setup untimed");
            }
        }
    }

    #[test]
    fn paper_section3_example_all_methods() {
        // b1={3,4,2}, b2={2,2,3}; a1={2,3,5}, a2={2,3,1}, a3={3,3,3}.
        // Integer-domain exact methods: similarity 100%. Approximate:
        // >= 50%. The SuperEGO pair works on normalised f32 data where
        // every candidate here is a boundary pair, so it may under-count
        // (the accuracy loss the paper reports) but never over-count.
        let b = tiny("B", &[&[3, 4, 2], &[2, 2, 3]]);
        let a = tiny("A", &[&[2, 3, 5], &[2, 3, 1], &[3, 3, 3]]);
        let opts = CsjOptions::new(1).with_parts(3);
        for m in CsjMethod::ALL {
            let out = run(m, &b, &a, &opts).unwrap();
            let float_domain = matches!(m, CsjMethod::ApSuperEgo | CsjMethod::ExSuperEgo);
            if float_domain {
                assert!(out.similarity.matched <= 2, "{m} over-counted");
            } else if m.is_exact() {
                assert_eq!(out.similarity.matched, 2, "{m} must find both pairs");
            } else {
                assert!(
                    out.similarity.matched >= 1,
                    "{m} must find at least one pair"
                );
            }
        }
    }
}
