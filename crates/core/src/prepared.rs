//! Prepared communities: encode once, join many times.
//!
//! Catalog workloads (the engine's screening phase, broadcast sweeps)
//! join the *same* community against many partners. [`crate::run`]
//! builds each side's quantized lanes (and, for MinMax, both encoded
//! buffers) on every call; a [`PreparedCommunity`] carries them all —
//! `Encd_B` for when it plays the smaller side, `Encd_A` for when it
//! plays the larger side — so [`crate::run_prepared`] joins it under any
//! method without that setup.
//!
//! ```
//! use csj_core::{run, run_prepared, Community, CsjMethod, CsjOptions, PreparedCommunity};
//!
//! let mut x = Community::new("X", 2);
//! x.push(1, &[1, 1]).unwrap();
//! let mut y = Community::new("Y", 2);
//! y.push(9, &[1, 2]).unwrap();
//!
//! let opts = CsjOptions::new(1);
//! let px = PreparedCommunity::new(x.clone(), &opts);
//! let py = PreparedCommunity::new(y.clone(), &opts);
//! let prepared = run_prepared(CsjMethod::ExMinMax, &px, &py, &opts).unwrap();
//! assert_eq!(prepared.similarity.matched, 1);
//! assert_eq!(prepared.pairs, run(CsjMethod::ExMinMax, &x, &y, &opts).unwrap().pairs);
//! ```

use std::sync::Arc;

use crate::algorithms::CsjOptions;
use crate::community::Community;
use crate::encoding::{encode_a, encode_b, EncodedA, EncodedB, EncodingParams};
use crate::quant::QuantizedCommunity;

/// A community with both MinMax encodings precomputed for a fixed
/// `(eps, parts)` configuration.
///
/// The community itself is held behind an [`Arc`], so preparing an
/// encoding for a community someone else already owns (the engine's
/// registry, a caller keeping its own handle) shares the user vectors
/// instead of copying them — see [`PreparedCommunity::from_shared`].
#[derive(Debug, Clone)]
pub struct PreparedCommunity {
    community: Arc<Community>,
    eps: u32,
    params: EncodingParams,
    as_b: EncodedB,
    as_a: EncodedA,
    quant: QuantizedCommunity,
}

impl PreparedCommunity {
    /// Encode `community` for joins under `opts` (only `eps` and the
    /// encoding parameters matter here).
    pub fn new(community: Community, opts: &CsjOptions) -> Self {
        Self::from_shared(Arc::new(community), opts)
    }

    /// Encode an already-shared community without copying its rows.
    pub fn from_shared(community: Arc<Community>, opts: &CsjOptions) -> Self {
        let as_b = encode_b(&community, opts.encoding);
        let as_a = encode_a(&community, opts.eps, opts.encoding);
        let quant = QuantizedCommunity::build(&community);
        Self {
            community,
            eps: opts.eps,
            params: opts.encoding,
            as_b,
            as_a,
            quant,
        }
    }

    /// The wrapped community.
    pub fn community(&self) -> &Community {
        &self.community
    }

    /// The epsilon the encodings were built for.
    pub fn eps(&self) -> u32 {
        self.eps
    }

    /// The encoding parameters the buffers were built with.
    pub fn params(&self) -> EncodingParams {
        self.params
    }

    /// Check that the encodings were built for `opts`' `eps` and
    /// encoding parameters, the configuration a join under `opts` reads
    /// them with.
    pub fn check_options(&self, opts: &CsjOptions) -> Result<(), crate::CsjError> {
        if self.eps != opts.eps || self.params != opts.encoding {
            return Err(crate::CsjError::InvalidOptions(format!(
                "{} was prepared for eps {} and {} parts, the join asks for eps {} and {} parts",
                self.community.name(),
                self.eps,
                self.params.parts,
                opts.eps,
                opts.encoding.parts
            )));
        }
        Ok(())
    }

    /// Number of subscribers.
    pub fn len(&self) -> usize {
        self.community.len()
    }

    /// Whether the community is empty.
    pub fn is_empty(&self) -> bool {
        self.community.is_empty()
    }

    /// The `Encd_B` buffer (used when this community is the smaller side).
    pub fn encoded_b(&self) -> &EncodedB {
        &self.as_b
    }

    /// The `Encd_A` buffer (used when this community is the larger side).
    pub fn encoded_a(&self) -> &EncodedA {
        &self.as_a
    }

    /// The cached narrow-lane encoding the kernel compares on.
    pub fn quantized(&self) -> &QuantizedCommunity {
        &self.quant
    }

    /// The wrapped community's shared handle (cheap refcount bump).
    pub fn shared_community(&self) -> Arc<Community> {
        Arc::clone(&self.community)
    }

    /// Consume the wrapper, returning the community. Clones the rows
    /// only when another `Arc` still shares them.
    pub fn into_community(self) -> Community {
        Arc::try_unwrap(self.community).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Reassemble from persisted pieces (the `csj_data::io` load path).
    /// The buffers must match the community's size and the `(eps, parts)`
    /// configuration; mismatches are rejected.
    pub fn from_parts(
        community: Community,
        eps: u32,
        params: EncodingParams,
        as_b: EncodedB,
        as_a: EncodedA,
    ) -> Result<Self, crate::CsjError> {
        let expected_parts = params.effective_parts(community.d());
        if as_b.len() != community.len()
            || as_a.len() != community.len()
            || as_b.parts() != expected_parts
            || as_a.parts() != expected_parts
        {
            return Err(crate::CsjError::InvalidOptions(
                "prepared buffers do not match the community/configuration".into(),
            ));
        }
        let quant = QuantizedCommunity::build(&community);
        Ok(Self {
            community: Arc::new(community),
            eps,
            params,
            as_b,
            as_a,
            quant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run, run_prepared, CsjMethod};

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        }
    }

    fn random_community(name: &str, n: usize, d: usize, seed: u64) -> Community {
        let mut rng = lcg(seed);
        Community::from_rows(
            name,
            d,
            (0..n).map(|i| (i as u64, (0..d).map(|_| rng() % 12).collect::<Vec<u32>>())),
        )
        .expect("well-formed")
    }

    #[test]
    fn prepared_joins_match_plain_joins() {
        // The prepared entry borrows exactly what the raw entry builds,
        // so every method must produce the same outcome (all but the
        // clock).
        for (d, seed) in [(4usize, 1u64), (6, 3), (3, 5)] {
            let b = random_community("B", 80, d, seed);
            let a = random_community("A", 100, d, seed + 1);
            let opts = CsjOptions::new(1).with_parts(2);
            let pb = PreparedCommunity::new(b.clone(), &opts);
            let pa = PreparedCommunity::new(a.clone(), &opts);
            for method in CsjMethod::ALL {
                let plain = run(method, &b, &a, &opts).unwrap();
                let prepared = run_prepared(method, &pb, &pa, &opts).unwrap();
                let at = format!("{method} d={d}");
                assert_eq!(plain.method, prepared.method, "{at}");
                assert_eq!(plain.pairs, prepared.pairs, "{at}");
                assert_eq!(plain.similarity, prepared.similarity, "{at}");
                assert_eq!(plain.events, prepared.events, "{at}");
                assert_eq!(plain.telemetry, prepared.telemetry, "{at}");
            }
        }
    }

    #[test]
    fn either_orientation_works_from_one_preparation() {
        // The same prepared object serves as B against one partner and as
        // A against another.
        let opts = CsjOptions::new(1).with_parts(2);
        let mid = PreparedCommunity::new(random_community("mid", 60, 3, 7), &opts);
        let small = PreparedCommunity::new(random_community("small", 40, 3, 8), &opts);
        let large = PreparedCommunity::new(random_community("large", 90, 3, 9), &opts);
        let as_a = run_prepared(CsjMethod::ExMinMax, &small, &mid, &opts).unwrap();
        let as_b = run_prepared(CsjMethod::ExMinMax, &mid, &large, &opts).unwrap();
        assert!(as_a.pairs.len() <= small.len());
        assert!(as_b.pairs.len() <= mid.len());
    }

    #[test]
    fn accessors() {
        let opts = CsjOptions::new(2).with_parts(3);
        let c = random_community("acc", 10, 3, 3);
        let p = PreparedCommunity::new(c.clone(), &opts);
        assert_eq!(p.len(), 10);
        assert!(!p.is_empty());
        assert_eq!(p.eps(), 2);
        assert_eq!(p.params().parts, 3);
        assert_eq!(p.encoded_b().len(), 10);
        assert_eq!(p.encoded_a().len(), 10);
        assert_eq!(p.into_community(), c);
    }

    #[test]
    fn from_shared_shares_rather_than_copies() {
        let opts = CsjOptions::new(1).with_parts(2);
        let c = Arc::new(random_community("sh", 10, 3, 5));
        let p = PreparedCommunity::from_shared(Arc::clone(&c), &opts);
        assert!(Arc::ptr_eq(&c, &p.shared_community()));
        // With the outer Arc still alive, consuming must clone.
        let back = p.into_community();
        assert_eq!(back, *c);
    }

    #[test]
    fn rejects_mismatched_preparation_with_typed_errors() {
        let c = random_community("x", 4, 2, 1);
        let p1 = PreparedCommunity::new(c.clone(), &CsjOptions::new(1));
        let p2 = PreparedCommunity::new(c.clone(), &CsjOptions::new(2));
        let err = run_prepared(CsjMethod::ExMinMax, &p1, &p2, &CsjOptions::new(1)).unwrap_err();
        assert!(
            matches!(&err, crate::CsjError::InvalidOptions(m) if m.contains("eps 2")),
            "{err}"
        );
        let p3 = PreparedCommunity::new(c, &CsjOptions::new(1).with_parts(1));
        let err = run_prepared(CsjMethod::ApBaseline, &p1, &p3, &CsjOptions::new(1)).unwrap_err();
        assert!(matches!(err, crate::CsjError::InvalidOptions(_)), "{err}");
        // The size constraint holds for prepared inputs too.
        let one = PreparedCommunity::new(random_community("one", 1, 2, 4), &CsjOptions::new(1));
        let five = PreparedCommunity::new(random_community("five", 5, 2, 6), &CsjOptions::new(1));
        assert_eq!(
            run_prepared(CsjMethod::ExMinMax, &one, &five, &CsjOptions::new(1)).unwrap_err(),
            crate::CsjError::SizeConstraint { nb: 1, na: 5 }
        );
        // Dimensionality is checked first, whatever the method.
        let wide = PreparedCommunity::new(random_community("w", 4, 3, 2), &CsjOptions::new(1));
        for method in CsjMethod::ALL {
            assert_eq!(
                run_prepared(method, &p1, &wide, &CsjOptions::new(1)).unwrap_err(),
                crate::CsjError::DimensionMismatch { b_d: 2, a_d: 3 }
            );
        }
    }
}
