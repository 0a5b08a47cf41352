//! Error types of the CSJ core.

/// Errors returned by the public CSJ API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsjError {
    /// The two communities have different dimensionality.
    DimensionMismatch { b_d: usize, a_d: usize },
    /// A pushed user vector has the wrong number of dimensions.
    VectorLength { expected: usize, got: usize },
    /// A user id was added twice to the same community.
    DuplicateUser(u64),
    /// The CSJ admissibility constraint `ceil(|A|/2) <= |B| <= |A|` fails.
    SizeConstraint { nb: usize, na: usize },
    /// Invalid tuning options (message describes the field).
    InvalidOptions(String),
}

impl std::fmt::Display for CsjError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsjError::DimensionMismatch { b_d, a_d } => {
                write!(
                    f,
                    "communities disagree on dimensionality: B has d={b_d}, A has d={a_d}"
                )
            }
            CsjError::VectorLength { expected, got } => {
                write!(
                    f,
                    "user vector has {got} dimensions, community expects {expected}"
                )
            }
            CsjError::DuplicateUser(id) => write!(f, "user id {id} already in community"),
            CsjError::SizeConstraint { nb, na } => write!(
                f,
                "CSJ requires ceil(|A|/2) <= |B| <= |A|; got |B|={nb}, |A|={na}"
            ),
            CsjError::InvalidOptions(msg) => write!(f, "invalid CSJ options: {msg}"),
        }
    }
}

impl std::error::Error for CsjError {}

/// Best-effort message of a panic payload caught by `catch_unwind`:
/// `&str` and `String` payloads verbatim, anything else opaque. Every
/// isolation boundary (join, shard, service worker) reports panics
/// through this one rendering.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CsjError::SizeConstraint { nb: 1, na: 10 };
        let s = e.to_string();
        assert!(s.contains("|B|=1") && s.contains("|A|=10"));
        assert!(CsjError::DuplicateUser(5).to_string().contains('5'));
        assert!(CsjError::DimensionMismatch { b_d: 2, a_d: 3 }
            .to_string()
            .contains("d=2"));
        assert!(CsjError::VectorLength {
            expected: 4,
            got: 2
        }
        .to_string()
        .contains('4'));
        assert!(CsjError::InvalidOptions("parts".into())
            .to_string()
            .contains("parts"));
    }
}
