//! # csj-cli — command-line interface for CSJ
//!
//! ```text
//! csj couples                                   list the paper's 20 couples
//! csj generate --dataset vk --cid 1 --scale 64 \
//!              --out-b b.csjb --out-a a.csjb    materialise a couple to files
//! csj info b.csjb                               community statistics
//! csj join --b b.csjb --a a.csjb --eps 1 \
//!          --method ex-minmax [--json]          run one CSJ method
//! csj explain --b b.csjb --a a.csjb --eps 1 \
//!             --method auto                     join + plan + kernel telemetry
//! csj truth --b b.csjb --a a.csjb --eps 1       brute-force ground truth
//! csj recover --dir DIR --verify                rebuild and check a durable registry
//! ```
//!
//! Files ending in `.csv` use the text format, anything else the compact
//! binary format (`csj_data::io`). The argument parser and the command
//! executor are library functions so the whole surface is unit-testable;
//! `main.rs` is a thin wrapper.

use std::path::{Path, PathBuf};

use csj_core::{
    encode_a, encode_b, run, run_prepared, Community, CsjMethod, CsjOptions, Exactness,
    MatcherKind, PlanInput, PreparedCommunity, QueryPlan,
};
use csj_data::io::{
    read_binary, read_binary_quarantine, read_csv, read_csv_quarantine, read_prepared,
    write_binary, write_csv, write_prepared, IoError,
};
use csj_data::pairs::{build_couple, BuildOptions, Dataset};
use csj_data::spec::COUPLES;
use csj_data::stats::summarize;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the paper's couple specifications.
    Couples,
    /// Generate one couple to a pair of files.
    Generate {
        dataset: Dataset,
        cid: u8,
        scale: u32,
        seed: u64,
        out_b: PathBuf,
        out_a: PathBuf,
    },
    /// Print statistics of one community file.
    Info { path: PathBuf },
    /// Precompute and persist the MinMax encodings of a community
    /// (writes a `.csjp` index file that `join` loads without
    /// re-encoding).
    Prepare {
        input: PathBuf,
        eps: u32,
        parts: usize,
        out: PathBuf,
    },
    /// Join two community files with one method.
    Join {
        b: PathBuf,
        a: PathBuf,
        eps: u32,
        method: CsjMethod,
        matcher: MatcherKind,
        parts: usize,
        json: bool,
        /// Print the closest N matched user pairs.
        pairs: usize,
    },
    /// Join two community files and print the kernel telemetry report
    /// (per-phase timings, prune histograms, candidate-stream depth,
    /// matcher flush counts) plus the density rule's plan for the pair
    /// (measured density, threshold, chosen method) instead of the
    /// result summary.
    Explain {
        b: PathBuf,
        a: PathBuf,
        eps: u32,
        method: CsjMethod,
        matcher: MatcherKind,
        parts: usize,
    },
    /// Rank candidate community files against an anchor (two-phase
    /// screen-then-refine pipeline).
    TopK {
        anchor: PathBuf,
        candidates: Vec<PathBuf>,
        eps: u32,
        k: usize,
        /// Wall-clock budget for the whole query; on exhaustion the
        /// ranking covers whatever was scored in time.
        deadline_ms: Option<u64>,
        /// Cap on joins executed by the query.
        max_joins: Option<u64>,
        /// Run the query over this many skew-aware shards instead of one
        /// per engine thread, and print the shard layout.
        shards: Option<usize>,
    },
    /// Run a broadcast sweep over community files, then print the
    /// engine's `csj_*` metrics in the requested exposition format.
    Stats {
        communities: Vec<PathBuf>,
        eps: u32,
        /// Similarity threshold for the sweep that feeds the metrics.
        threshold: f64,
        format: StatsFormat,
        /// Route the sweep through the overload-safe service and merge
        /// its `csj_service_*` series into the output.
        via_service: bool,
        /// Load community files in quarantine mode: malformed records
        /// are skipped and counted in `csj_data_quarantined_total`.
        quarantine: bool,
    },
    /// Run a top-k query over community files (first file is the
    /// anchor) and dump the flight recorder's span traces.
    Trace {
        communities: Vec<PathBuf>,
        eps: u32,
        k: usize,
        deadline_ms: Option<u64>,
        max_joins: Option<u64>,
        /// How many of the most recent traces to print.
        last: usize,
        json: bool,
        /// Route the query through the overload-safe service and print
        /// its request traces (fate and degradation attributes)
        /// instead of the engine's query spans.
        via_service: bool,
        /// Load community files in quarantine mode (see `stats`).
        quarantine: bool,
        /// Export the traces for external tooling instead of dumping
        /// them: `chrome` (Chrome `trace_event` JSON, loadable in
        /// `chrome://tracing` and Perfetto) or `jsonl` (one JSON trace
        /// per line).
        export: Option<String>,
        /// Write the export atomically to this file instead of stdout.
        out: Option<PathBuf>,
    },
    /// Run a budgeted top-k query over community files (first file is
    /// the anchor) and print the engine's slow-query forensic log:
    /// every captured record carries the query's full artifact set —
    /// plan provenance, rolled-up join telemetry, budget state and the
    /// whole span tree — so a pathological query can be reconstructed
    /// after the fact.
    Slow {
        communities: Vec<PathBuf>,
        eps: u32,
        k: usize,
        deadline_ms: Option<u64>,
        max_joins: Option<u64>,
        /// Capture threshold in microseconds: completed queries slower
        /// than this (and every non-completed query) are captured.
        /// 0 captures everything the workload produces.
        slow_threshold_us: u64,
        /// How many of the most recent forensic records to print.
        last: usize,
        json: bool,
        /// Also persist the rendered records atomically to this file.
        out: Option<PathBuf>,
        /// Load community files in quarantine mode (see `stats`).
        quarantine: bool,
    },
    /// Run a broadcast sweep plus a budgeted top-k over community
    /// files, then evaluate the engine's declarative SLOs — multi-window
    /// burn rates computed from the `csj_*` series — and print the
    /// per-(objective, window) verdicts.
    Slo {
        communities: Vec<PathBuf>,
        eps: u32,
        /// Similarity threshold for the sweep that feeds the metrics.
        threshold: f64,
        deadline_ms: Option<u64>,
        max_joins: Option<u64>,
        json: bool,
        /// Load community files in quarantine mode (see `stats`).
        quarantine: bool,
    },
    /// Brute-force ground truth of a pair.
    Truth { b: PathBuf, a: PathBuf, eps: u32 },
    /// Write a checksummed snapshot of a durable registry directory and
    /// truncate its WAL.
    Snapshot { dir: PathBuf },
    /// Rebuild a registry from a durable directory (read-only) and
    /// print the typed recovery report. With `verify`, re-run recovery
    /// and check registry invariants, exiting non-zero on any breach.
    Recover { dir: PathBuf, verify: bool },
}

/// Output format of `csj stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Prometheus text exposition format 0.0.4.
    Prometheus,
    /// One JSON object per metric sample.
    Json,
    /// Human-readable summary ([`csj_engine::EngineStats`] display).
    Text,
}

impl std::str::FromStr for StatsFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "prom" | "prometheus" => Ok(StatsFormat::Prometheus),
            "json" => Ok(StatsFormat::Json),
            "text" => Ok(StatsFormat::Text),
            other => Err(format!("--format expects prom|json|text, got {other:?}")),
        }
    }
}

/// CLI errors (bad arguments, I/O, join rejections).
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing failed; the message is user-facing usage help.
    Usage(String),
    /// File I/O or format failure.
    Io(String),
    /// The join itself was rejected.
    Csj(csj_core::CsjError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Io(msg) => write!(f, "i/o error: {msg}"),
            CliError::Csj(e) => write!(f, "join rejected: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Usage banner.
pub const USAGE: &str = "\
usage:
  csj couples
  csj generate --dataset <vk|synthetic> --cid <1..20> [--scale N] [--seed S] --out-b FILE --out-a FILE
  csj info <FILE>
  csj prepare --input FILE --eps E [--parts P] --out FILE.csjp
  csj join --b FILE --a FILE --eps E [--method M] [--matcher K] [--parts P] [--json] [--pairs N]
  csj explain --b FILE --a FILE --eps E [--method M|auto] [--matcher K] [--parts P]
  csj topk --anchor FILE --candidates F1,F2,... --eps E [--k K] [--deadline-ms MS] [--max-joins N] [--shards N]
  csj stats --communities F1,F2,... --eps E [--threshold T] [--format prom|json|text] [--via-service] [--quarantine]
  csj trace --communities F1,F2,... --eps E [--k K] [--deadline-ms MS] [--max-joins N] [--last N] [--json] [--via-service] [--quarantine]
            [--export chrome|jsonl] [--out FILE]
  csj slow --communities F1,F2,... --eps E [--k K] [--deadline-ms MS] [--max-joins N] [--slow-threshold-us T] [--last N] [--json] [--out FILE] [--quarantine]
  csj slo --communities F1,F2,... --eps E [--threshold T] [--deadline-ms MS] [--max-joins N] [--json] [--quarantine]
  csj truth --b FILE --a FILE --eps E
  csj snapshot --dir DIR
  csj recover --dir DIR [--verify]
formats: *.csv is text, *.csjp is a prepared index, anything else the CSJB binary format";

/// Parse raw arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().map(String::as_str);
    let sub = it
        .next()
        .ok_or_else(|| CliError::Usage("missing subcommand".into()))?;
    let rest: Vec<&str> = it.collect();
    let get = |flag: &str| -> Option<&str> {
        rest.iter()
            .position(|&a| a == flag)
            .and_then(|i| rest.get(i + 1).copied())
    };
    let has = |flag: &str| rest.contains(&flag);
    let require = |flag: &str| -> Result<&str, CliError> {
        get(flag).ok_or_else(|| CliError::Usage(format!("missing {flag}")))
    };
    let parse_num = |flag: &str, v: &str| -> Result<u64, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(format!("{flag} expects a number, got {v:?}")))
    };
    let community_list = || -> Result<Vec<PathBuf>, CliError> {
        let files: Vec<PathBuf> = require("--communities")?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(PathBuf::from)
            .collect();
        if files.len() < 2 {
            return Err(CliError::Usage(
                "--communities expects at least two comma-separated files".into(),
            ));
        }
        Ok(files)
    };

    match sub {
        "couples" => Ok(Command::Couples),
        "generate" => {
            let dataset = match require("--dataset")? {
                "vk" => Dataset::VkLike,
                "synthetic" => Dataset::Uniform,
                other => {
                    return Err(CliError::Usage(format!(
                        "--dataset expects vk|synthetic, got {other:?}"
                    )))
                }
            };
            let cid = parse_num("--cid", require("--cid")?)? as u8;
            if !(1..=20).contains(&cid) {
                return Err(CliError::Usage("--cid must be 1..=20".into()));
            }
            let scale = get("--scale").map_or(Ok(64), |v| parse_num("--scale", v))? as u32;
            if scale == 0 {
                return Err(CliError::Usage("--scale must be >= 1".into()));
            }
            let seed = get("--seed").map_or(Ok(0xC5A0_2024), |v| parse_num("--seed", v))?;
            Ok(Command::Generate {
                dataset,
                cid,
                scale,
                seed,
                out_b: PathBuf::from(require("--out-b")?),
                out_a: PathBuf::from(require("--out-a")?),
            })
        }
        "prepare" => Ok(Command::Prepare {
            input: PathBuf::from(require("--input")?),
            eps: parse_num("--eps", require("--eps")?)? as u32,
            parts: get("--parts").map_or(Ok(4), |v| parse_num("--parts", v))? as usize,
            out: PathBuf::from(require("--out")?),
        }),
        "info" => {
            let path = rest
                .iter()
                .find(|a| !a.starts_with("--"))
                .ok_or_else(|| CliError::Usage("info expects a file path".into()))?;
            Ok(Command::Info {
                path: PathBuf::from(path),
            })
        }
        "join" => Ok(Command::Join {
            b: PathBuf::from(require("--b")?),
            a: PathBuf::from(require("--a")?),
            eps: parse_num("--eps", require("--eps")?)? as u32,
            method: get("--method")
                .unwrap_or("ex-minmax")
                .parse()
                .map_err(CliError::Usage)?,
            matcher: get("--matcher")
                .unwrap_or("csf")
                .parse()
                .map_err(CliError::Usage)?,
            parts: get("--parts").map_or(Ok(4), |v| parse_num("--parts", v))? as usize,
            json: has("--json"),
            pairs: get("--pairs").map_or(Ok(0), |v| parse_num("--pairs", v))? as usize,
        }),
        "explain" => Ok(Command::Explain {
            b: PathBuf::from(require("--b")?),
            a: PathBuf::from(require("--a")?),
            eps: parse_num("--eps", require("--eps")?)? as u32,
            method: get("--method")
                .unwrap_or("ex-minmax")
                .parse()
                .map_err(CliError::Usage)?,
            matcher: get("--matcher")
                .unwrap_or("csf")
                .parse()
                .map_err(CliError::Usage)?,
            parts: get("--parts").map_or(Ok(4), |v| parse_num("--parts", v))? as usize,
        }),
        "topk" => {
            let anchor = PathBuf::from(require("--anchor")?);
            let candidates: Vec<PathBuf> = require("--candidates")?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(PathBuf::from)
                .collect();
            if candidates.is_empty() {
                return Err(CliError::Usage(
                    "--candidates expects a comma-separated list".into(),
                ));
            }
            Ok(Command::TopK {
                anchor,
                candidates,
                eps: parse_num("--eps", require("--eps")?)? as u32,
                k: get("--k").map_or(Ok(3), |v| parse_num("--k", v))? as usize,
                deadline_ms: get("--deadline-ms")
                    .map(|v| parse_num("--deadline-ms", v))
                    .transpose()?,
                max_joins: get("--max-joins")
                    .map(|v| parse_num("--max-joins", v))
                    .transpose()?,
                shards: match get("--shards")
                    .map(|v| parse_num("--shards", v))
                    .transpose()?
                {
                    Some(0) => {
                        return Err(CliError::Usage("--shards must be >= 1".into()));
                    }
                    n => n.map(|n| n as usize),
                },
            })
        }
        "stats" => {
            let communities = community_list()?;
            let threshold = get("--threshold").map_or(Ok(0.15), |v| {
                v.parse::<f64>()
                    .map_err(|_| CliError::Usage(format!("--threshold expects a ratio, got {v:?}")))
            })?;
            Ok(Command::Stats {
                communities,
                eps: parse_num("--eps", require("--eps")?)? as u32,
                threshold,
                format: get("--format")
                    .unwrap_or("prom")
                    .parse()
                    .map_err(CliError::Usage)?,
                via_service: has("--via-service"),
                quarantine: has("--quarantine"),
            })
        }
        "trace" => {
            let communities = community_list()?;
            let export = get("--export").map(str::to_string);
            if let Some(fmt) = &export {
                if fmt != "chrome" && fmt != "jsonl" {
                    return Err(CliError::Usage(format!(
                        "--export expects chrome|jsonl, got {fmt:?}"
                    )));
                }
            }
            let out = get("--out").map(PathBuf::from);
            if out.is_some() && export.is_none() {
                return Err(CliError::Usage("--out needs --export".into()));
            }
            Ok(Command::Trace {
                communities,
                eps: parse_num("--eps", require("--eps")?)? as u32,
                k: get("--k").map_or(Ok(3), |v| parse_num("--k", v))? as usize,
                deadline_ms: get("--deadline-ms")
                    .map(|v| parse_num("--deadline-ms", v))
                    .transpose()?,
                max_joins: get("--max-joins")
                    .map(|v| parse_num("--max-joins", v))
                    .transpose()?,
                last: get("--last").map_or(Ok(1), |v| parse_num("--last", v))? as usize,
                json: has("--json"),
                via_service: has("--via-service"),
                quarantine: has("--quarantine"),
                export,
                out,
            })
        }
        "slow" => Ok(Command::Slow {
            communities: community_list()?,
            eps: parse_num("--eps", require("--eps")?)? as u32,
            k: get("--k").map_or(Ok(3), |v| parse_num("--k", v))? as usize,
            deadline_ms: get("--deadline-ms")
                .map(|v| parse_num("--deadline-ms", v))
                .transpose()?,
            max_joins: get("--max-joins")
                .map(|v| parse_num("--max-joins", v))
                .transpose()?,
            slow_threshold_us: get("--slow-threshold-us")
                .map_or(Ok(0), |v| parse_num("--slow-threshold-us", v))?,
            last: get("--last").map_or(Ok(8), |v| parse_num("--last", v))? as usize,
            json: has("--json"),
            out: get("--out").map(PathBuf::from),
            quarantine: has("--quarantine"),
        }),
        "slo" => {
            let communities = community_list()?;
            let threshold = get("--threshold").map_or(Ok(0.15), |v| {
                v.parse::<f64>()
                    .map_err(|_| CliError::Usage(format!("--threshold expects a ratio, got {v:?}")))
            })?;
            Ok(Command::Slo {
                communities,
                eps: parse_num("--eps", require("--eps")?)? as u32,
                threshold,
                deadline_ms: get("--deadline-ms")
                    .map(|v| parse_num("--deadline-ms", v))
                    .transpose()?,
                max_joins: get("--max-joins")
                    .map(|v| parse_num("--max-joins", v))
                    .transpose()?,
                json: has("--json"),
                quarantine: has("--quarantine"),
            })
        }
        "truth" => Ok(Command::Truth {
            b: PathBuf::from(require("--b")?),
            a: PathBuf::from(require("--a")?),
            eps: parse_num("--eps", require("--eps")?)? as u32,
        }),
        "snapshot" => Ok(Command::Snapshot {
            dir: PathBuf::from(require("--dir")?),
        }),
        "recover" => Ok(Command::Recover {
            dir: PathBuf::from(require("--dir")?),
            verify: has("--verify"),
        }),
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

/// A community file, possibly carrying a persisted prepared index.
enum Loaded {
    Plain(Community),
    Prepared(Box<PreparedCommunity>),
}

impl Loaded {
    fn community(&self) -> &Community {
        match self {
            Loaded::Plain(c) => c,
            Loaded::Prepared(p) => p.community(),
        }
    }

    fn into_community(self) -> Community {
        match self {
            Loaded::Plain(c) => c,
            Loaded::Prepared(p) => p.into_community(),
        }
    }
}

/// Load a community file of any format, chosen by extension: a `.csjp`
/// prepared index, a `.csv` table, or a CSJB binary otherwise.
fn load(path: &Path) -> Result<Loaded, CliError> {
    let file =
        std::fs::File::open(path).map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    let parsed = match path.extension().and_then(|e| e.to_str()) {
        Some("csjp") => read_prepared(file).map(|p| Loaded::Prepared(Box::new(p))),
        Some("csv") => read_csv(file).map(Loaded::Plain),
        _ => read_binary(file).map(Loaded::Plain),
    };
    parsed.map_err(|e| CliError::Io(format!("{}: {e}", path.display())))
}

/// Orient two loaded communities smaller-first (the CSJ convention:
/// `B` is the smaller side).
fn orient(lb: Loaded, la: Loaded) -> (Loaded, Loaded) {
    if lb.community().len() <= la.community().len() {
        (lb, la)
    } else {
        (la, lb)
    }
}

/// Both sides' persisted encodings, when both carry an index built for
/// `opts`.
fn prepared_pair<'l>(
    lb: &'l Loaded,
    la: &'l Loaded,
    opts: &CsjOptions,
) -> Option<(&'l PreparedCommunity, &'l PreparedCommunity)> {
    match (lb, la) {
        (Loaded::Prepared(pb), Loaded::Prepared(pa))
            if pb.check_options(opts).is_ok() && pa.check_options(opts).is_ok() =>
        {
            Some((pb, pa))
        }
        _ => None,
    }
}

/// Load both sides, orient them smaller-first, and run `method` under
/// `opts` — through the persisted encodings when both sides carry an
/// index built for `opts`. Shared by `join` and `explain`.
fn load_and_join(
    b: &Path,
    a: &Path,
    method: CsjMethod,
    opts: &CsjOptions,
) -> Result<(Loaded, Loaded, csj_core::JoinOutcome), CliError> {
    let (lb, la) = orient(load(b)?, load(a)?);
    let outcome = match prepared_pair(&lb, &la, opts) {
        Some((pb, pa)) => run_prepared(method, pb, pa, opts),
        None => run(method, lb.community(), la.community(), opts),
    }
    .map_err(CliError::Csj)?;
    Ok((lb, la, outcome))
}

/// The density rule's plan for an oriented loaded pair under
/// `exactness`, measured on the persisted encodings when both sides
/// carry them, else on fresh ones.
fn plan_loaded(lb: &Loaded, la: &Loaded, opts: &CsjOptions, exactness: Exactness) -> QueryPlan {
    let input = match prepared_pair(lb, la, opts) {
        Some((pb, pa)) => PlanInput::from_prepared(pb, pa, exactness),
        None => PlanInput::measure(
            &encode_b(lb.community(), opts.encoding),
            &encode_a(la.community(), opts.eps, opts.encoding),
            exactness,
        ),
    };
    QueryPlan::new(input)
}

/// Load one community in quarantine mode: malformed records are skipped
/// and returned as a count instead of failing the whole load. Prepared
/// `.csjp` indexes have no record-level failure mode and load as-is.
fn load_quarantine(path: &Path) -> Result<(Community, u64), CliError> {
    if path.extension().is_some_and(|e| e == "csjp") {
        return Ok((load(path)?.into_community(), 0));
    }
    let file =
        std::fs::File::open(path).map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    let parsed = if path.extension().is_some_and(|e| e == "csv") {
        read_csv_quarantine(file)
    } else {
        read_binary_quarantine(file)
    };
    let (c, quarantined) = parsed.map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    Ok((c, quarantined.len() as u64))
}

/// Load community files and register them all in one fresh engine; the
/// first file's dimensionality sets the engine's. Used by the
/// observability subcommands (`stats`, `trace`) and the service paths.
/// With `quarantine` set, malformed records are skipped and folded into
/// the engine's `csj_data_quarantined_total` metric.
fn load_engine(
    files: &[PathBuf],
    eps: u32,
    quarantine: bool,
    slow_threshold_us: Option<u64>,
) -> Result<(csj_engine::CsjEngine, Vec<csj_engine::CommunityHandle>), CliError> {
    use csj_engine::{CsjEngine, EngineConfig};
    let mut engine: Option<CsjEngine> = None;
    let mut handles = Vec::new();
    let mut quarantined_total = 0u64;
    for path in files {
        let c = if quarantine {
            let (c, quarantined) = load_quarantine(path)?;
            quarantined_total += quarantined;
            c
        } else {
            load(path)?.into_community()
        };
        let engine = engine.get_or_insert_with(|| {
            let mut config = EngineConfig::new(eps);
            if let Some(t) = slow_threshold_us {
                config.obs.slow_threshold_us = t;
            }
            CsjEngine::new(c.d(), config)
        });
        handles.push(
            engine
                .register(c)
                .map_err(|e| CliError::Io(e.to_string()))?,
        );
    }
    let engine = engine.ok_or_else(|| CliError::Usage("no community files given".into()))?;
    engine.note_quarantined(quarantined_total);
    Ok((engine, handles))
}

/// Answer `query` on `engine` in its primary form under `budget`.
fn run_query(
    engine: &csj_engine::CsjEngine,
    query: csj_engine::Query,
    budget: &csj_engine::Budget,
) -> Result<csj_engine::Partial<csj_engine::Answer>, CliError> {
    engine
        .query(&query, csj_engine::Exactness::Exact, budget)
        .map_err(|e| CliError::Io(e.to_string()))
}

/// The budget `--deadline-ms` and `--max-joins` ask for.
fn budget(deadline_ms: Option<u64>, max_joins: Option<u64>) -> csj_engine::Budget {
    let mut budget = csj_engine::Budget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(max) = max_joins {
        budget = budget.with_max_joins(max);
    }
    budget
}

/// Render SLO statuses as a JSON array (hand-rolled: the statuses are
/// flat and the field set is stable).
fn slo_statuses_json(statuses: &[csj_obs::SloStatus]) -> String {
    let items: Vec<String> = statuses
        .iter()
        .map(|s| {
            format!(
                "{{\"objective\":\"{}\",\"target\":{},\"bad\":{},\"total\":{},\
                 \"bad_fraction\":{},\"burn_rate\":{},\"breached\":{}}}",
                s.objective, s.target, s.bad, s.total, s.bad_fraction, s.burn_rate, s.breached
            )
        })
        .collect();
    format!("[{}]\n", items.join(","))
}

fn store(community: &Community, path: &Path) -> Result<(), CliError> {
    let is_csv = path.extension().is_some_and(|e| e == "csv");
    write_artifact(path, |bytes| {
        if is_csv {
            write_csv(community, bytes)
        } else {
            write_binary(community, bytes)
        }
    })
}

/// Serialize with `write` and put the bytes at `path` with
/// `write_atomic`, so a crash leaves the old file or the new one, never
/// a torn one.
fn write_artifact(
    path: &Path,
    write: impl FnOnce(&mut Vec<u8>) -> Result<(), IoError>,
) -> Result<(), CliError> {
    let mut bytes = Vec::new();
    write(&mut bytes).map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    csj_durability::atomic::write_atomic(path, &bytes)
        .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))
}

/// Execute a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, CliError> {
    use std::fmt::Write as _;
    match cmd {
        Command::Couples => {
            let mut out =
                String::from("cID  categories (B | A)                          size_B   size_A\n");
            for c in &COUPLES {
                let _ = writeln!(
                    out,
                    "{:>3}  {:<43} {:>7}  {:>7}",
                    c.cid,
                    format!("{} | {}", c.cat_b, c.cat_a),
                    c.size_b,
                    c.size_a
                );
            }
            Ok(out)
        }
        Command::Generate {
            dataset,
            cid,
            scale,
            seed,
            out_b,
            out_a,
        } => {
            let spec = csj_data::spec::couple(cid);
            let pair = build_couple(spec, dataset, BuildOptions { scale, seed });
            store(&pair.b, &out_b)?;
            store(&pair.a, &out_a)?;
            Ok(format!(
                "wrote {} ({} users) and {} ({} users); join with --eps {}\n",
                out_b.display(),
                pair.b.len(),
                out_a.display(),
                pair.a.len(),
                pair.eps
            ))
        }
        Command::Info { path } => {
            let c = load(&path)?.into_community();
            let s = summarize(&c);
            Ok(format!(
                "community: {}\nusers: {}\ndimensions: {}\nmean counter: {:.2}\n\
                 median: {}\np99: {}\nmax: {}\nzero fraction: {:.1}%\n",
                c.name(),
                c.len(),
                c.d(),
                s.mean,
                s.p50,
                s.p99,
                s.max,
                s.zero_fraction * 100.0
            ))
        }
        Command::Prepare {
            input,
            eps,
            parts,
            out,
        } => {
            let community = load(&input)?.into_community();
            let opts = CsjOptions::new(eps).with_parts(parts);
            let prepared = PreparedCommunity::new(community, &opts);
            write_artifact(&out, |bytes| write_prepared(&prepared, bytes))?;
            Ok(format!(
                "wrote {} ({} users, eps = {eps}, {} parts, {} KiB of encodings)\n",
                out.display(),
                prepared.len(),
                prepared.encoded_b().parts(),
                (prepared.encoded_b().memory_bytes() + prepared.encoded_a().memory_bytes()) / 1024
            ))
        }
        Command::Join {
            b,
            a,
            eps,
            method,
            matcher,
            parts,
            json,
            pairs,
        } => {
            let opts = CsjOptions::new(eps).with_matcher(matcher).with_parts(parts);
            let (lb, la, outcome) = load_and_join(&b, &a, method, &opts)?;
            let (cb, ca) = (lb.community(), la.community());
            let closest_pairs = if pairs > 0 {
                let mut scored: Vec<(u64, u64, u64)> = outcome
                    .pairs
                    .iter()
                    .map(|&(i, j)| {
                        let gap: u64 = cb
                            .vector(i as usize)
                            .iter()
                            .zip(ca.vector(j as usize))
                            .map(|(&x, &y)| x.abs_diff(y) as u64)
                            .sum();
                        (cb.user_id(i as usize), ca.user_id(j as usize), gap)
                    })
                    .collect();
                scored.sort_by_key(|&(b_id, a_id, gap)| (gap, b_id, a_id));
                scored.truncate(pairs);
                scored
            } else {
                Vec::new()
            };
            if json {
                let value = serde_json::json!({
                    "method": outcome.method.name(),
                    "eps": eps,
                    "matcher": matcher.name(),
                    "b": {"name": cb.name(), "size": cb.len()},
                    "a": {"name": ca.name(), "size": ca.len()},
                    "matched": outcome.similarity.matched,
                    "similarity_pct": outcome.similarity.percent(),
                    "seconds": outcome.elapsed.as_secs_f64(),
                    "events": outcome.events.to_string(),
                });
                Ok(format!(
                    "{}\n",
                    serde_json::to_string_pretty(&value).expect("serialises")
                ))
            } else {
                use std::fmt::Write as _;
                let mut out = format!(
                    "{} | {} vs {} | eps = {eps}\nsimilarity: {} ({} of {} B-users matched)\n\
                     time: {:.3} s\nevents: {}\n",
                    outcome.method.name(),
                    cb.name(),
                    ca.name(),
                    outcome.similarity,
                    outcome.similarity.matched,
                    cb.len(),
                    outcome.elapsed.as_secs_f64(),
                    outcome.events
                );
                if !closest_pairs.is_empty() {
                    let _ = writeln!(out, "closest matched pairs (B-user, A-user, L1 gap):");
                    for (bu, au, gap) in &closest_pairs {
                        let _ = writeln!(out, "  {bu} ~ {au} (gap {gap})");
                    }
                }
                Ok(out)
            }
        }
        Command::Explain {
            b,
            a,
            eps,
            method,
            matcher,
            parts,
        } => {
            let opts = CsjOptions::new(eps).with_matcher(matcher).with_parts(parts);
            let (lb, la, outcome) = load_and_join(&b, &a, method, &opts)?;
            // A pinned method is compared with the rule's pick of its
            // own kind; `Auto` resolves like `Exactness::Any`.
            let exactness = match method {
                CsjMethod::Auto => Exactness::Any,
                m if m.is_exact() => Exactness::Exact,
                _ => Exactness::Approximate,
            };
            let plan = plan_loaded(&lb, &la, &opts, exactness);
            let t = outcome.timings;
            let plan_line = if method == CsjMethod::Auto {
                format!("requested auto -> chosen {}", outcome.method.name())
            } else if method == plan.chosen {
                format!("requested {} (pinned; also the rule's pick)", method.name())
            } else {
                format!(
                    "requested {} (pinned; the rule would pick {})",
                    method.name(),
                    plan.chosen.name()
                )
            };
            Ok(format!(
                "{} | {} vs {} | eps = {eps}\n\
                 similarity: {} ({} of {} B-users matched)\n\
                 phases: setup {:.3} s | pairing {:.3} s | matching {:.3} s (total {:.3} s)\n\
                 plan: {plan_line}\n\
                 plan density: {:.6} (threshold {}: MinMax below, Ex-Hybrid / Ap-SuperEGO at or above)\n{}",
                outcome.method.name(),
                lb.community().name(),
                la.community().name(),
                outcome.similarity,
                outcome.similarity.matched,
                lb.community().len(),
                t.setup.as_secs_f64(),
                t.pairing.as_secs_f64(),
                t.matching.as_secs_f64(),
                t.total().as_secs_f64(),
                plan.input.density,
                csj_core::plan::DENSITY_THRESHOLD,
                outcome.telemetry,
            ))
        }
        Command::TopK {
            anchor,
            candidates,
            eps,
            k,
            deadline_ms,
            max_joins,
            shards,
        } => {
            use csj_engine::{Answer, CsjEngine, EngineConfig, Query};
            let anchor_c = load(&anchor)?.into_community();
            let d = anchor_c.d();
            let mut config = EngineConfig::new(eps);
            if let Some(n) = shards {
                config.shard.shards = n;
            }
            let mut engine = CsjEngine::new(d, config);
            let anchor_h = engine
                .register(anchor_c)
                .map_err(|e| CliError::Io(e.to_string()))?;
            let mut handles = Vec::new();
            for path in &candidates {
                let c = load(path)?.into_community();
                handles.push(
                    engine
                        .register(c)
                        .map_err(|e| CliError::Io(e.to_string()))?,
                );
            }
            let query = Query::TopK { x: anchor_h, k };
            let partial = run_query(&engine, query, &budget(deadline_ms, max_joins))?;
            let exhausted = partial.exhausted;
            let coverage = partial.coverage;
            let Answer::Ranking(ranked) = partial.value else {
                unreachable!("a top-k query answers with a ranking")
            };
            use std::fmt::Write as _;
            let mut out = format!(
                "top-{} of {} candidates vs {}:\n",
                k,
                candidates.len(),
                engine.community(anchor_h).expect("registered").name()
            );
            if shards.is_some() {
                let layout = engine
                    .shard_layout(&handles)
                    .map_err(|e| CliError::Io(e.to_string()))?;
                let _ = writeln!(
                    out,
                    "  shard layout: {} shards, masses {:?}, imbalance {:.2}",
                    layout.shards.len(),
                    layout.masses,
                    layout.imbalance()
                );
            }
            if let Some(cov) = coverage {
                let _ = writeln!(out, "  shard coverage: {cov}");
                if cov.is_partial() {
                    let _ = writeln!(
                        out,
                        "  (coverage is partial — surviving results are exact, \
                         but unscreened candidates may be missing)"
                    );
                }
            }
            if let Some(marker) = exhausted {
                let _ = writeln!(
                    out,
                    "  (budget exhausted: {}; {} joins done, {} skipped — ranking is partial)",
                    marker.reason, marker.pairs_done, marker.pairs_skipped
                );
            }
            if ranked.is_empty() {
                let _ = writeln!(out, "  (no candidate cleared the screening threshold)");
            }
            for (rank, p) in ranked.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  #{} {} {}",
                    rank + 1,
                    engine.community(p.y).expect("registered").name(),
                    p.similarity
                );
            }
            Ok(out)
        }
        Command::Stats {
            communities,
            eps,
            threshold,
            format,
            via_service,
            quarantine,
        } => {
            use csj_obs::slo;
            let (engine, _handles) = load_engine(&communities, eps, quarantine, None)?;
            if via_service {
                use csj_service::{service_slos, CsjService, Request, ServiceConfig};
                let service = CsjService::start(engine, ServiceConfig::default());
                service
                    .call(Request::PairsAbove {
                        threshold,
                        resume: None,
                    })
                    .map_err(|e| CliError::Io(e.to_string()))?;
                let mut snap = service.metrics_snapshot();
                let objectives: Vec<_> = csj_engine::engine_slos()
                    .into_iter()
                    .chain(service_slos(250_000))
                    .collect();
                let statuses = slo::evaluate(&objectives, &snap);
                snap.metrics.extend(slo::gauges(&statuses).metrics);
                return Ok(match format {
                    StatsFormat::Prometheus => snap.to_prometheus(),
                    StatsFormat::Json => format!("{}\n", snap.to_json()),
                    StatsFormat::Text => {
                        use csj_obs::catalog::{
                            SERVICE_COMPLETED, SERVICE_SHED, SERVICE_SUBMITTED,
                        };
                        use csj_service::Fate;
                        let submitted = snap.value(&SERVICE_SUBMITTED, []);
                        let shed = snap.value(&SERVICE_SHED, []);
                        let answered = snap.value(&SERVICE_COMPLETED, [Fate::Answered.label()]);
                        let degraded = snap.value(&SERVICE_COMPLETED, [Fate::Degraded.label()]);
                        let engine = service.shutdown();
                        format!(
                            "{}service: submitted={submitted} shed={shed} answered={answered} \
                             degraded={degraded}\n",
                            engine.stats()
                        )
                    }
                });
            }
            let sweep = csj_engine::Query::PairsAbove {
                threshold,
                resume: None,
            };
            run_query(&engine, sweep, &csj_engine::Budget::unlimited())?;
            let mut snap = engine.metrics_snapshot();
            let statuses = slo::evaluate(&csj_engine::engine_slos(), &snap);
            snap.metrics.extend(slo::gauges(&statuses).metrics);
            Ok(match format {
                StatsFormat::Prometheus => snap.to_prometheus(),
                StatsFormat::Json => format!("{}\n", snap.to_json()),
                StatsFormat::Text => engine.stats().to_string(),
            })
        }
        Command::Trace {
            communities,
            eps,
            k,
            deadline_ms,
            max_joins,
            last,
            json,
            via_service,
            quarantine,
            export,
            out,
        } => {
            let (engine, handles) = load_engine(&communities, eps, quarantine, None)?;
            let traces = if via_service {
                use csj_service::{CsjService, Request, ServiceConfig};
                if max_joins.is_some() {
                    return Err(CliError::Usage(
                        "--max-joins is not available with --via-service \
                         (the service budgets by deadline; use --deadline-ms)"
                            .into(),
                    ));
                }
                let config = ServiceConfig {
                    default_deadline: deadline_ms.map(std::time::Duration::from_millis),
                    ..ServiceConfig::default()
                };
                let service = CsjService::start(engine, config);
                service
                    .call(Request::TopK { x: handles[0], k })
                    .map_err(|e| CliError::Io(e.to_string()))?;
                service.service_traces(last)
            } else {
                let top_k = csj_engine::Query::TopK { x: handles[0], k };
                run_query(&engine, top_k, &budget(deadline_ms, max_joins))?;
                engine.traces(last)
            };
            if let Some(fmt) = export {
                let body = match fmt.as_str() {
                    "chrome" => csj_obs::traces_to_chrome(&traces),
                    _ => csj_obs::traces_to_jsonl(&traces),
                };
                return match out {
                    Some(path) => {
                        csj_durability::atomic::write_atomic(&path, body.as_bytes())
                            .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
                        Ok(format!(
                            "exported {} traces ({fmt}) to {}\n",
                            traces.len(),
                            path.display()
                        ))
                    }
                    None => Ok(body),
                };
            }
            if json {
                let items: Vec<String> = traces.iter().map(|t| t.to_json()).collect();
                Ok(format!("[{}]\n", items.join(",")))
            } else {
                let mut out = String::new();
                for t in &traces {
                    out.push_str(&t.to_text());
                }
                Ok(out)
            }
        }
        Command::Slow {
            communities,
            eps,
            k,
            deadline_ms,
            max_joins,
            slow_threshold_us,
            last,
            json,
            out,
            quarantine,
        } => {
            let (engine, handles) =
                load_engine(&communities, eps, quarantine, Some(slow_threshold_us))?;
            let top_k = csj_engine::Query::TopK { x: handles[0], k };
            run_query(&engine, top_k, &budget(deadline_ms, max_joins))?;
            let records = engine.slow_queries(last);
            let (offered, captured, threshold_us) = engine.slow_query_stats();
            let body = if json {
                let items: Vec<String> = records.iter().map(|r| r.to_json()).collect();
                format!("[{}]\n", items.join(","))
            } else {
                use std::fmt::Write as _;
                let mut s = format!(
                    "slow-query log: {} shown of {captured} captured \
                     ({offered} offered, threshold {threshold_us}us)\n",
                    records.len()
                );
                if records.is_empty() {
                    let _ = writeln!(
                        s,
                        "  (nothing captured; lower --slow-threshold-us or \
                         tighten --deadline-ms/--max-joins)"
                    );
                }
                for r in &records {
                    s.push_str(&r.to_text());
                }
                s
            };
            match out {
                Some(path) => {
                    // The persisted artifact is always the JSON records
                    // (machine-readable evidence); --json only switches
                    // the stdout rendering.
                    let items: Vec<String> = records.iter().map(|r| r.to_json()).collect();
                    let artifact = format!("[{}]\n", items.join(","));
                    csj_durability::atomic::write_atomic(&path, artifact.as_bytes())
                        .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
                    Ok(format!(
                        "wrote {} forensic records to {}\n",
                        records.len(),
                        path.display()
                    ))
                }
                None => Ok(body),
            }
        }
        Command::Slo {
            communities,
            eps,
            threshold,
            deadline_ms,
            max_joins,
            json,
            quarantine,
        } => {
            let (engine, handles) = load_engine(&communities, eps, quarantine, None)?;
            let sweep = csj_engine::Query::PairsAbove {
                threshold,
                resume: None,
            };
            run_query(&engine, sweep, &csj_engine::Budget::unlimited())?;
            let top_k = csj_engine::Query::TopK {
                x: handles[0],
                k: 3,
            };
            run_query(&engine, top_k, &budget(deadline_ms, max_joins))?;
            let statuses =
                csj_obs::slo::evaluate(&csj_engine::engine_slos(), &engine.metrics_snapshot());
            if json {
                Ok(slo_statuses_json(&statuses))
            } else {
                use std::fmt::Write as _;
                let mut s = String::new();
                for status in &statuses {
                    let _ = writeln!(s, "slo {status}");
                }
                let breached = statuses.iter().filter(|st| st.breached).count();
                let _ = writeln!(s, "objectives={} breached={breached}", statuses.len());
                Ok(s)
            }
        }
        Command::Snapshot { dir } => {
            use csj_durability::{DurabilityConfig, DurableEngine};
            let mut dur = DurableEngine::open(
                &dir,
                8,
                csj_engine::EngineConfig::new(1),
                DurabilityConfig::default(),
            )
            .map_err(|e| CliError::Io(format!("{}: {e}", dir.display())))?;
            let recovery = dur.report().summary();
            let entries = dur.engine().handles().count();
            let out = dur
                .snapshot()
                .map_err(|e| CliError::Io(format!("{}: {e}", dir.display())))?;
            Ok(format!(
                "recovery: {recovery}\nsnapshot: {} (seq {}, {entries} entries, {} pruned)\n\
                 wal truncated; appends continue at seq {}\n",
                out.path.display(),
                out.seq,
                out.pruned,
                out.seq + 1,
            ))
        }
        Command::Recover { dir, verify } => {
            use csj_durability::{fingerprint_engine, recover_dir};
            let (engine, report) = recover_dir(&dir, 8, csj_engine::EngineConfig::new(1))
                .map_err(|e| CliError::Io(format!("{}: {e}", dir.display())))?;
            let fp = fingerprint_engine(&engine);
            let users: usize = engine
                .handles()
                .map(|h| engine.community(h).map_or(0, |c| c.len()))
                .sum();
            let mut out = format!(
                "recovery: {}\ncommunities={} users={users} fingerprint={fp:#018x}\n",
                report.summary(),
                engine.handles().count(),
            );
            if verify {
                let breaches = csj_durability::verify_recovery(&dir, &engine, &report);
                if breaches.is_empty() {
                    let _ = writeln!(out, "verify: ok");
                } else {
                    for b in &breaches {
                        let _ = writeln!(out, "verify: BREACH: {b}");
                    }
                    return Err(CliError::Io(format!("recovery verification failed\n{out}")));
                }
            }
            Ok(out)
        }
        Command::Truth { b, a, eps } => {
            let cb = load(&b)?.into_community();
            let ca = load(&a)?.into_community();
            let (cb, ca) = if cb.len() <= ca.len() {
                (cb, ca)
            } else {
                (ca, cb)
            };
            let gt = csj_core::verify::ground_truth(&cb, &ca, eps);
            Ok(format!(
                "candidate pairs: {}\nmaximum matching: {}\nsimilarity: {}\n",
                gt.candidate_pairs.len(),
                gt.maximum_matching.len(),
                gt.similarity
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_couples() {
        assert_eq!(parse(&argv("couples")).unwrap(), Command::Couples);
    }

    #[test]
    fn parse_generate_with_defaults() {
        let cmd = parse(&argv(
            "generate --dataset vk --cid 3 --out-b /tmp/b.csjb --out-a /tmp/a.csjb",
        ))
        .unwrap();
        match cmd {
            Command::Generate {
                dataset,
                cid,
                scale,
                out_b,
                ..
            } => {
                assert_eq!(dataset, Dataset::VkLike);
                assert_eq!(cid, 3);
                assert_eq!(scale, 64);
                assert_eq!(out_b, PathBuf::from("/tmp/b.csjb"));
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parse_join_flags() {
        let cmd = parse(&argv(
            "join --b b.csv --a a.csv --eps 2 --method ap-minmax --matcher hk --parts 2 --json",
        ))
        .unwrap();
        match cmd {
            Command::Join {
                eps,
                method,
                matcher,
                parts,
                json,
                pairs,
                ..
            } => {
                assert_eq!(eps, 2);
                assert_eq!(method, CsjMethod::ApMinMax);
                assert_eq!(matcher, MatcherKind::HopcroftKarp);
                assert_eq!(parts, 2);
                assert!(json);
                assert_eq!(pairs, 0);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parse_explain_flags() {
        let cmd = parse(&argv(
            "explain --b b.csv --a a.csv --eps 2 --method ap-hybrid",
        ))
        .unwrap();
        match cmd {
            Command::Explain {
                eps,
                method,
                matcher,
                parts,
                ..
            } => {
                assert_eq!(eps, 2);
                assert_eq!(method, CsjMethod::ApHybrid);
                assert_eq!(matcher, MatcherKind::Csf);
                assert_eq!(parts, 4);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("explain --b b.csv --eps 2")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_plan_flags() {
        // --method auto reaches the join/explain commands.
        assert!(matches!(
            parse(&argv("join --b b.csv --a a.csv --eps 1 --method auto")).unwrap(),
            Command::Join {
                method: CsjMethod::Auto,
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("explain --b b.csv --a a.csv --eps 1 --method auto")).unwrap(),
            Command::Explain {
                method: CsjMethod::Auto,
                ..
            }
        ));
        // The plan is chosen by the rule at run time; there is no `plan`
        // subcommand to show or calibrate a cost table any more.
        assert!(matches!(
            parse(&argv("plan --show --nb 400 --na 4000 --d 27")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(parse(&argv("")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("frobnicate")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("generate --dataset mars --cid 1 --out-b x --out-a y")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("generate --dataset vk --cid 99 --out-b x --out-a y")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("join --b x --a y --eps lots")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("join --b x --a y --eps 1 --method warp")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn couples_lists_20_rows() {
        let out = execute(Command::Couples).unwrap();
        assert_eq!(out.lines().count(), 21); // header + 20
        assert!(out.contains("Restaurants | Food_recipes"));
    }

    #[test]
    fn generate_info_join_truth_end_to_end() {
        let dir = std::env::temp_dir().join("csj_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let b = dir.join("b.csjb");
        let a = dir.join("a.csv"); // mixed formats on purpose
        let msg = execute(Command::Generate {
            dataset: Dataset::VkLike,
            cid: 1,
            scale: 1024,
            seed: 9,
            out_b: b.clone(),
            out_a: a.clone(),
        })
        .unwrap();
        assert!(msg.contains("--eps 1"));

        let info = execute(Command::Info { path: b.clone() }).unwrap();
        assert!(info.contains("dimensions: 27"));

        let join = execute(Command::Join {
            b: b.clone(),
            a: a.clone(),
            eps: 1,
            method: CsjMethod::ExMinMax,
            matcher: MatcherKind::HopcroftKarp,
            parts: 4,
            json: false,
            pairs: 2,
        })
        .unwrap();
        assert!(join.contains("similarity:"));

        let json_out = execute(Command::Join {
            b: b.clone(),
            a: a.clone(),
            eps: 1,
            method: CsjMethod::ExMinMax,
            matcher: MatcherKind::HopcroftKarp,
            parts: 4,
            json: true,
            pairs: 0,
        })
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json_out).unwrap();
        let matched = parsed["matched"].as_u64().unwrap();

        let truth = execute(Command::Truth {
            b: b.clone(),
            a: a.clone(),
            eps: 1,
        })
        .unwrap();
        assert!(truth.contains(&format!("maximum matching: {matched}")));
        assert!(join.contains("closest matched pairs"));

        let topk = execute(Command::TopK {
            anchor: b,
            candidates: vec![a],
            eps: 1,
            k: 2,
            deadline_ms: None,
            max_joins: None,
            shards: None,
        })
        .unwrap();
        assert!(topk.contains("#1"), "topk output was: {topk}");
    }

    #[test]
    fn prepare_then_join_uses_the_index() {
        let dir = std::env::temp_dir().join("csj_cli_prepare_test");
        std::fs::create_dir_all(&dir).unwrap();
        let b = dir.join("b.csjb");
        let a = dir.join("a.csjb");
        execute(Command::Generate {
            dataset: Dataset::VkLike,
            cid: 2,
            scale: 1024,
            seed: 3,
            out_b: b.clone(),
            out_a: a.clone(),
        })
        .unwrap();
        let bp = dir.join("b.csjp");
        let ap = dir.join("a.csjp");
        let msg = execute(Command::Prepare {
            input: b.clone(),
            eps: 1,
            parts: 4,
            out: bp.clone(),
        })
        .unwrap();
        assert!(msg.contains("KiB of encodings"));
        execute(Command::Prepare {
            input: a.clone(),
            eps: 1,
            parts: 4,
            out: ap.clone(),
        })
        .unwrap();

        let join = |x: PathBuf, y: PathBuf| {
            execute(Command::Join {
                b: x,
                a: y,
                eps: 1,
                method: CsjMethod::ExMinMax,
                matcher: MatcherKind::Csf,
                parts: 4,
                json: true,
                pairs: 0,
            })
            .unwrap()
        };
        let via_index = join(bp, ap);
        let via_plain = join(b, a);
        let parse_matched = |out: &str| {
            serde_json::from_str::<serde_json::Value>(out).unwrap()["matched"]
                .as_u64()
                .unwrap()
        };
        assert_eq!(parse_matched(&via_index), parse_matched(&via_plain));
    }

    #[test]
    fn info_truth_and_prepare_read_prepared_files() {
        let dir = std::env::temp_dir().join("csj_cli_csjp_readers");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (b, a) = (dir.join("b.csv"), dir.join("a.csv"));
        execute(Command::Generate {
            dataset: Dataset::VkLike,
            cid: 3,
            scale: 1024,
            seed: 11,
            out_b: b.clone(),
            out_a: a.clone(),
        })
        .unwrap();
        let prepare = |input: &Path, out: &Path| {
            execute(Command::Prepare {
                input: input.to_path_buf(),
                eps: 1,
                parts: 4,
                out: out.to_path_buf(),
            })
            .unwrap()
        };
        let (bp, ap) = (dir.join("b.csjp"), dir.join("a.csjp"));
        prepare(&b, &bp);
        prepare(&a, &ap);

        let info = |path: &Path| {
            execute(Command::Info {
                path: path.to_path_buf(),
            })
            .unwrap()
        };
        assert_eq!(info(&bp), info(&b));
        assert_eq!(info(&ap), info(&a));
        let truth = |b: &Path, a: &Path| {
            execute(Command::Truth {
                b: b.to_path_buf(),
                a: a.to_path_buf(),
                eps: 1,
            })
            .unwrap()
        };
        assert_eq!(truth(&bp, &ap), truth(&b, &a));

        // Re-preparing from an index writes the index the source gives.
        let again = dir.join("b-again.csjp");
        prepare(&bp, &again);
        assert_eq!(std::fs::read(&again).unwrap(), std::fs::read(&bp).unwrap());
    }

    #[test]
    fn generate_and_prepare_replace_existing_files_atomically() {
        let root = std::env::temp_dir().join(format!("csj_cli_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (src, idx) = (root.join("src"), root.join("idx"));
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&idx).unwrap();
        let (b, a, bp) = (src.join("b.csjb"), src.join("a.csv"), idx.join("b.csjp"));
        // A second link to each old file shows whether the writer
        // replaced the path (old inode untouched, as a crash-safe write
        // must leave it) or truncated the old file in place.
        let keep = root.join("keep");
        std::fs::create_dir_all(&keep).unwrap();
        for (i, stale) in [&b, &a, &bp].into_iter().enumerate() {
            std::fs::write(stale, b"stale bytes").unwrap();
            std::fs::hard_link(stale, keep.join(i.to_string())).unwrap();
        }
        execute(Command::Generate {
            dataset: Dataset::VkLike,
            cid: 2,
            scale: 1024,
            seed: 5,
            out_b: b.clone(),
            out_a: a.clone(),
        })
        .unwrap();
        execute(Command::Prepare {
            input: b.clone(),
            eps: 1,
            parts: 4,
            out: bp.clone(),
        })
        .unwrap();

        let listing = |dir: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        assert_eq!(listing(&src), ["a.csv", "b.csjb"]);
        assert_eq!(listing(&idx), ["b.csjp"]);
        for i in 0..3 {
            assert_eq!(
                std::fs::read(keep.join(i.to_string())).unwrap(),
                b"stale bytes"
            );
        }
        let source = read_binary(std::fs::File::open(&b).unwrap()).unwrap();
        read_csv(std::fs::File::open(&a).unwrap()).unwrap();
        let index = read_prepared(std::fs::File::open(&bp).unwrap()).unwrap();
        assert_eq!(index.len(), source.len());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Write `community` as `dir/name.csv` and as a `.csjp` index built
    /// for `eps` and `parts`; returns both paths.
    fn write_both_formats(
        dir: &Path,
        name: &str,
        community: &Community,
        eps: u32,
        parts: usize,
    ) -> (PathBuf, PathBuf) {
        std::fs::create_dir_all(dir).unwrap();
        let csv = dir.join(format!("{name}.csv"));
        write_csv(community, std::fs::File::create(&csv).unwrap()).unwrap();
        let csjp = dir.join(format!("{name}.csjp"));
        let opts = CsjOptions::new(eps).with_parts(parts);
        let prepared = PreparedCommunity::new(community.clone(), &opts);
        write_prepared(&prepared, std::fs::File::create(&csjp).unwrap()).unwrap();
        (csv, csjp)
    }

    /// A `d`-dimensional community of `n` identical all-ones users.
    fn ones(name: &str, n: usize, d: usize) -> Community {
        Community::from_rows(name, d, (0..n as u64).map(|i| (i, vec![1; d]))).unwrap()
    }

    fn join_cmd(b: PathBuf, a: PathBuf, method: CsjMethod, parts: usize) -> Command {
        Command::Join {
            b,
            a,
            eps: 1,
            method,
            matcher: MatcherKind::Csf,
            parts,
            json: false,
            pairs: 0,
        }
    }

    fn explain_cmd(b: PathBuf, a: PathBuf, method: CsjMethod, parts: usize) -> Command {
        Command::Explain {
            b,
            a,
            eps: 1,
            method,
            matcher: MatcherKind::Csf,
            parts,
        }
    }

    #[test]
    fn prepared_inputs_with_mismatched_dimensions_are_a_typed_error() {
        let dir = std::env::temp_dir().join("csj_cli_csjp_dims");
        let (_, b) = write_both_formats(&dir, "d4", &ones("d4", 4, 4), 1, 4);
        let (_, a) = write_both_formats(&dir, "d5", &ones("d5", 5, 5), 1, 4);
        for method in [CsjMethod::ExMinMax, CsjMethod::ApMinMax, CsjMethod::Auto] {
            for cmd in [
                join_cmd(b.clone(), a.clone(), method, 4),
                explain_cmd(b.clone(), a.clone(), method, 4),
            ] {
                let err = execute(cmd).unwrap_err();
                assert!(
                    matches!(
                        err,
                        CliError::Csj(csj_core::CsjError::DimensionMismatch { b_d: 4, a_d: 5 })
                    ),
                    "{method}: {err}"
                );
                assert!(err.to_string().contains("dimensionality"), "{err}");
            }
        }
    }

    #[test]
    fn prepared_inputs_obey_the_size_constraint() {
        let dir = std::env::temp_dir().join("csj_cli_csjp_sizes");
        let (b_csv, b_csjp) = write_both_formats(&dir, "one", &ones("one", 1, 2), 1, 2);
        let (a_csv, a_csjp) = write_both_formats(&dir, "five", &ones("five", 5, 2), 1, 2);
        for method in [CsjMethod::ExMinMax, CsjMethod::ApMinMax] {
            let csv_err = execute(join_cmd(b_csv.clone(), a_csv.clone(), method, 2)).unwrap_err();
            assert!(
                csv_err.to_string().contains("ceil(|A|/2) <= |B| <= |A|"),
                "{csv_err}"
            );
            for cmd in [
                join_cmd(b_csjp.clone(), a_csjp.clone(), method, 2),
                explain_cmd(b_csjp.clone(), a_csjp.clone(), method, 2),
            ] {
                let err = execute(cmd).unwrap_err();
                assert_eq!(err.to_string(), csv_err.to_string(), "{method}");
            }
        }
    }

    #[test]
    fn explain_reports_kernel_telemetry() {
        let dir = std::env::temp_dir().join("csj_cli_explain_test");
        std::fs::create_dir_all(&dir).unwrap();
        let b = dir.join("b.csjb");
        let a = dir.join("a.csjb");
        execute(Command::Generate {
            dataset: Dataset::VkLike,
            cid: 3,
            scale: 1024,
            seed: 11,
            out_b: b.clone(),
            out_a: a.clone(),
        })
        .unwrap();
        let out = execute(Command::Explain {
            b: b.clone(),
            a: a.clone(),
            eps: 1,
            method: CsjMethod::ExMinMax,
            matcher: MatcherKind::Csf,
            parts: 4,
        })
        .unwrap();
        assert!(out.contains("similarity:"), "explain output was: {out}");
        assert!(out.contains("phases: setup"), "explain output was: {out}");
        assert!(out.contains("rows driven:"), "explain output was: {out}");
        assert!(
            out.contains("stream depth per row:"),
            "explain output was: {out}"
        );
        assert!(out.contains("matcher:"), "explain output was: {out}");
        assert!(out.contains("cancel polls:"), "explain output was: {out}");
        // The quantized-kernel section: which counter lane the kernel
        // selected and how many L1 tiles the blocked scan walked.
        assert!(out.contains("encoding:"), "explain output was: {out}");
        assert!(out.contains("a-tiles"), "explain output was: {out}");
        // The plan section: requested vs chosen, the measured density
        // and the rule's threshold. VK-like data at eps 1 is sparse, so
        // the rule picks MinMax.
        assert!(
            out.contains("plan: requested ex-minmax (pinned; also the rule's pick)"),
            "explain output was: {out}"
        );
        assert!(out.contains("plan density: "), "{out}");
        assert!(out.contains("(threshold 0.02"), "{out}");

        // SuperEGO compares normalised floats and selects no integer lane.
        let ego_out = execute(Command::Explain {
            b: b.clone(),
            a: a.clone(),
            eps: 1,
            method: CsjMethod::ExSuperEgo,
            matcher: MatcherKind::Csf,
            parts: 4,
        })
        .unwrap();
        assert!(ego_out.contains("encoding: f32,"), "{ego_out}");

        // `--method auto` resolves through the rule and reports it.
        let auto_out = execute(Command::Explain {
            b,
            a,
            eps: 1,
            method: CsjMethod::Auto,
            matcher: MatcherKind::Csf,
            parts: 4,
        })
        .unwrap();
        assert!(
            auto_out.contains("plan: requested auto -> chosen ap-minmax"),
            "explain output was: {auto_out}"
        );
        assert!(auto_out.starts_with("ap-minmax |"), "{auto_out}");
    }

    #[test]
    fn topk_accepts_prepared_files() {
        let dir = std::env::temp_dir().join("csj_cli_topk_csjp");
        std::fs::create_dir_all(&dir).unwrap();
        let b = dir.join("b.csjb");
        let a = dir.join("a.csjb");
        execute(Command::Generate {
            dataset: Dataset::VkLike,
            cid: 4,
            scale: 1024,
            seed: 5,
            out_b: b.clone(),
            out_a: a.clone(),
        })
        .unwrap();
        let ap = dir.join("a.csjp");
        execute(Command::Prepare {
            input: a,
            eps: 1,
            parts: 4,
            out: ap.clone(),
        })
        .unwrap();
        let out = execute(Command::TopK {
            anchor: ap,
            candidates: vec![b],
            eps: 1,
            k: 1,
            deadline_ms: None,
            max_joins: None,
            shards: None,
        })
        .unwrap();
        assert!(out.contains("#1"), "topk must accept .csjp inputs: {out}");
    }

    #[test]
    fn parse_prepare() {
        let cmd = parse(&argv(
            "prepare --input x.csjb --eps 2 --parts 3 --out x.csjp",
        ))
        .unwrap();
        match cmd {
            Command::Prepare { eps, parts, .. } => {
                assert_eq!(eps, 2);
                assert_eq!(parts, 3);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("prepare --input x.csjb --out y")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_topk() {
        let cmd = parse(&argv(
            "topk --anchor x.csjb --candidates a.csjb,b.csjb --eps 1 --k 5",
        ))
        .unwrap();
        match cmd {
            Command::TopK {
                candidates, k, eps, ..
            } => {
                assert_eq!(candidates.len(), 2);
                assert_eq!(k, 5);
                assert_eq!(eps, 1);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("topk --anchor x --candidates , --eps 1")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_topk_budget_flags() {
        let cmd = parse(&argv(
            "topk --anchor x --candidates a,b --eps 1 --deadline-ms 250 --max-joins 10",
        ))
        .unwrap();
        match cmd {
            Command::TopK {
                deadline_ms,
                max_joins,
                ..
            } => {
                assert_eq!(deadline_ms, Some(250));
                assert_eq!(max_joins, Some(10));
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("topk --anchor x --candidates a --eps 1")).unwrap() {
            Command::TopK {
                deadline_ms,
                max_joins,
                ..
            } => {
                assert_eq!(deadline_ms, None, "budget flags default to unlimited");
                assert_eq!(max_joins, None);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv(
                "topk --anchor x --candidates a --eps 1 --deadline-ms soon"
            )),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_topk_shards_flag() {
        match parse(&argv("topk --anchor x --candidates a,b --eps 1 --shards 4")).unwrap() {
            Command::TopK { shards, .. } => assert_eq!(shards, Some(4)),
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("topk --anchor x --candidates a,b --eps 1")).unwrap() {
            Command::TopK { shards, .. } => assert_eq!(shards, None, "flat path by default"),
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("topk --anchor x --candidates a,b --eps 1 --shards 0")),
            Err(CliError::Usage(_))
        ));
    }

    /// `--shards` must not change answers: an explicit shard count
    /// merges back to the default layout's ranking bit for bit, and a
    /// fault-free run reports complete coverage.
    #[test]
    fn topk_sharded_matches_flat_and_reports_coverage() {
        let (b1, a1) = generated_pair("csj_cli_topk_shards_1", 6);
        let (b2, a2) = generated_pair("csj_cli_topk_shards_2", 7);
        let run = |shards: Option<usize>| {
            execute(Command::TopK {
                anchor: b1.clone(),
                candidates: vec![a1.clone(), b2.clone(), a2.clone()],
                eps: 1,
                k: 3,
                deadline_ms: None,
                max_joins: None,
                shards,
            })
            .unwrap()
        };
        let flat = run(None);
        let sharded = run(Some(2));
        assert!(sharded.contains("shard layout: 2 shards"), "{sharded}");
        assert!(sharded.contains("shard coverage:"), "{sharded}");
        assert!(
            !sharded.contains("coverage is partial"),
            "fault-free runs must be complete: {sharded}"
        );
        let ranks = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.trim_start().starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(
            ranks(&flat),
            ranks(&sharded),
            "flat:\n{flat}\nsharded:\n{sharded}"
        );
        assert!(!ranks(&flat).is_empty(), "{flat}");
    }

    #[test]
    fn topk_reports_budget_exhaustion() {
        let dir = std::env::temp_dir().join("csj_cli_topk_budget");
        std::fs::create_dir_all(&dir).unwrap();
        let b = dir.join("b.csjb");
        let a = dir.join("a.csjb");
        execute(Command::Generate {
            dataset: Dataset::VkLike,
            cid: 3,
            scale: 1024,
            seed: 11,
            out_b: b.clone(),
            out_a: a.clone(),
        })
        .unwrap();
        let out = execute(Command::TopK {
            anchor: b,
            candidates: vec![a],
            eps: 1,
            k: 3,
            deadline_ms: None,
            max_joins: Some(0),
            shards: None,
        })
        .unwrap();
        assert!(out.contains("budget exhausted"), "output was: {out}");
        assert!(out.contains("max-joins"), "output was: {out}");
    }

    #[test]
    fn parse_stats_and_trace() {
        let cmd = parse(&argv(
            "stats --communities a.csjb,b.csjb --eps 1 --threshold 0.3 --format json",
        ))
        .unwrap();
        match cmd {
            Command::Stats {
                communities,
                eps,
                threshold,
                format,
                via_service,
                quarantine,
            } => {
                assert_eq!(communities.len(), 2);
                assert_eq!(eps, 1);
                assert!((threshold - 0.3).abs() < 1e-9);
                assert_eq!(format, StatsFormat::Json);
                assert!(!via_service, "--via-service defaults off");
                assert!(!quarantine, "--quarantine defaults off");
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("stats --communities a,b --eps 1")).unwrap() {
            Command::Stats {
                format, threshold, ..
            } => {
                assert_eq!(format, StatsFormat::Prometheus, "prom is the default");
                assert!((threshold - 0.15).abs() < 1e-9);
            }
            other => panic!("parsed {other:?}"),
        }
        let cmd = parse(&argv(
            "trace --communities a,b,c --eps 2 --k 4 --max-joins 0 --last 5 --json",
        ))
        .unwrap();
        match cmd {
            Command::Trace {
                communities,
                k,
                max_joins,
                last,
                json,
                ..
            } => {
                assert_eq!(communities.len(), 3);
                assert_eq!(k, 4);
                assert_eq!(max_joins, Some(0));
                assert_eq!(last, 5);
                assert!(json);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("stats --communities solo --eps 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("stats --communities a,b --eps 1 --format yaml")),
            Err(CliError::Usage(_))
        ));
    }

    /// Generate a couple into `dir` and return the two file paths.
    fn generated_pair(dir: &str, cid: u8) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let b = dir.join("b.csjb");
        let a = dir.join("a.csjb");
        execute(Command::Generate {
            dataset: Dataset::VkLike,
            cid,
            scale: 1024,
            seed: 7,
            out_b: b.clone(),
            out_a: a.clone(),
        })
        .unwrap();
        (b, a)
    }

    #[test]
    fn stats_emits_valid_prometheus_and_json() {
        let (b, a) = generated_pair("csj_cli_stats_test", 1);
        let prom = execute(Command::Stats {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Prometheus,
            via_service: false,
            quarantine: false,
        })
        .unwrap();
        assert!(prom.contains("# TYPE csj_joins_total counter"), "{prom}");
        assert!(prom.contains("# TYPE csj_join_latency_seconds histogram"));
        assert!(prom.contains("csj_queries_total{kind=\"pairs_above\"} 1"));
        assert!(prom.contains("csj_communities 2"));
        assert!(prom.contains("le=\"+Inf\""));

        let json = execute(Command::Stats {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Json,
            via_service: false,
            quarantine: false,
        })
        .unwrap();
        let _parsed: serde_json::Value =
            serde_json::from_str(&json).expect("stats --format json emits valid JSON");

        let text = execute(Command::Stats {
            communities: vec![b, a],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Text,
            via_service: false,
            quarantine: false,
        })
        .unwrap();
        assert!(text.contains("communities:"), "{text}");
        assert!(text.contains("rows driven"), "{text}");
    }

    #[test]
    fn trace_reproduces_an_exhausted_query() {
        let (b, a) = generated_pair("csj_cli_trace_test", 2);
        let json = execute(Command::Trace {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            k: 3,
            deadline_ms: None,
            max_joins: Some(0),
            last: 1,
            json: true,
            via_service: false,
            quarantine: false,
            export: None,
            out: None,
        })
        .unwrap();
        assert!(json.contains("\"kind\":\"top_k\""), "{json}");
        assert!(json.contains("exhausted:max-joins"), "{json}");
        let _parsed: serde_json::Value =
            serde_json::from_str(&json).expect("trace --json emits valid JSON");
        assert!(json.trim_end().starts_with('[') && json.trim_end().ends_with(']'));

        let text = execute(Command::Trace {
            communities: vec![b, a],
            eps: 1,
            k: 3,
            deadline_ms: None,
            max_joins: None,
            last: 1,
            json: false,
            via_service: false,
            quarantine: false,
            export: None,
            out: None,
        })
        .unwrap();
        assert!(text.contains("top_k outcome=completed"), "{text}");
        assert!(text.contains("screen"), "{text}");
        assert!(text.contains("join"), "{text}");
    }

    #[test]
    fn load_reports_missing_file() {
        let err = execute(Command::Info {
            path: PathBuf::from("/nonexistent/x.csjb"),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn parse_service_and_quarantine_flags() {
        match parse(&argv(
            "stats --communities a,b --eps 1 --via-service --quarantine",
        ))
        .unwrap()
        {
            Command::Stats {
                via_service,
                quarantine,
                ..
            } => {
                assert!(via_service);
                assert!(quarantine);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("trace --communities a,b --eps 1 --via-service")).unwrap() {
            Command::Trace {
                via_service,
                quarantine,
                ..
            } => {
                assert!(via_service);
                assert!(!quarantine);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parse_snapshot_and_recover() {
        assert_eq!(
            parse(&argv("snapshot --dir /tmp/reg")).unwrap(),
            Command::Snapshot {
                dir: PathBuf::from("/tmp/reg")
            }
        );
        assert_eq!(
            parse(&argv("recover --dir /tmp/reg --verify")).unwrap(),
            Command::Recover {
                dir: PathBuf::from("/tmp/reg"),
                verify: true
            }
        );
        assert_eq!(
            parse(&argv("recover --dir /tmp/reg")).unwrap(),
            Command::Recover {
                dir: PathBuf::from("/tmp/reg"),
                verify: false
            }
        );
        assert!(matches!(parse(&argv("recover")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("snapshot")), Err(CliError::Usage(_))));
    }

    /// A durable directory written through `DurableEngine`: `snapshot`
    /// lands an image and truncates the WAL, later mutations go to the
    /// WAL tail, and `recover --verify` rebuilds both and passes.
    #[test]
    fn snapshot_then_recover_verify_roundtrip() {
        use csj_durability::{DurabilityConfig, DurableEngine};
        let dir = std::env::temp_dir().join(format!("csj_cli_durable_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            DurableEngine::open(
                &dir,
                2,
                csj_engine::EngineConfig::new(1),
                DurabilityConfig::default(),
            )
            .unwrap()
        };
        let mut dur = open();
        for name in ["x", "y", "z"] {
            let (h, _) = dur.register(ones(name, 4, 2)).unwrap();
            dur.upsert_user(h, 10, &[3, 4]).unwrap();
            dur.remove_user(h, 0).unwrap();
        }
        drop(dur);

        let snap_msg = execute(Command::Snapshot { dir: dir.clone() }).unwrap();
        assert!(snap_msg.contains("snapshot:"), "{snap_msg}");
        assert!(snap_msg.contains("3 entries"), "{snap_msg}");

        let mut dur = open();
        let h = dur.engine().find("y").unwrap();
        dur.upsert_user(h, 11, &[5, 5]).unwrap();
        drop(dur);

        let rec = execute(Command::Recover {
            dir: dir.clone(),
            verify: true,
        })
        .unwrap();
        assert!(rec.contains("verify: ok"), "{rec}");
        assert!(rec.contains("communities=3 users=13"), "{rec}");
        assert!(rec.contains("replayed=1"), "{rec}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_on_empty_dir_reports_nothing_to_do() {
        let dir =
            std::env::temp_dir().join(format!("csj_cli_recover_empty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rec = execute(Command::Recover {
            dir: dir.clone(),
            verify: true,
        })
        .unwrap();
        assert!(rec.contains("snapshot-seq=none"), "{rec}");
        assert!(rec.contains("communities=0"), "{rec}");
        assert!(rec.contains("verify: ok"), "{rec}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_via_service_merges_engine_and_service_series() {
        let (b, a) = generated_pair("csj_cli_stats_service_test", 5);
        let prom = execute(Command::Stats {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Prometheus,
            via_service: true,
            quarantine: false,
        })
        .unwrap();
        assert!(
            prom.contains("csj_queries_total{kind=\"pairs_above\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("csj_service_submitted_total 1"), "{prom}");
        assert!(
            prom.contains("# TYPE csj_service_request_seconds histogram"),
            "{prom}"
        );

        let text = execute(Command::Stats {
            communities: vec![b, a],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Text,
            via_service: true,
            quarantine: false,
        })
        .unwrap();
        assert!(text.contains("communities:"), "{text}");
        assert!(text.contains("service: submitted=1"), "{text}");
    }

    #[test]
    fn trace_via_service_surfaces_degradation_attributes() {
        let (b, a) = generated_pair("csj_cli_trace_service_test", 6);
        // A zero deadline degrades the exact top-k to the engine's
        // screen scores; the service trace must say so.
        let text = execute(Command::Trace {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            k: 2,
            deadline_ms: Some(0),
            max_joins: None,
            last: 1,
            json: false,
            via_service: true,
            quarantine: false,
            export: None,
            out: None,
        })
        .unwrap();
        assert!(text.contains("outcome=degraded"), "{text}");
        assert!(text.contains("fate=degraded"), "{text}");
        assert!(text.contains("degrade_trigger=deadline"), "{text}");

        let err = execute(Command::Trace {
            communities: vec![b, a],
            eps: 1,
            k: 2,
            deadline_ms: None,
            max_joins: Some(5),
            last: 1,
            json: false,
            via_service: true,
            quarantine: false,
            export: None,
            out: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn stats_quarantine_skips_bad_rows_and_counts_them() {
        let dir = std::env::temp_dir().join("csj_cli_quarantine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.csv");
        let dirty = dir.join("dirty.csv");
        std::fs::write(
            &good,
            "# community: Good\n# d: 2\nuser_id,c0,c1\n1,1,2\n2,3,4\n",
        )
        .unwrap();
        std::fs::write(
            &dirty,
            "# community: Dirty\n# d: 2\nuser_id,c0,c1\n1,1,2\nnot-an-id,9,9\n3,7\n4,5,6\n",
        )
        .unwrap();
        // Without quarantine the dirty file fails the whole load...
        let err = execute(Command::Stats {
            communities: vec![good.clone(), dirty.clone()],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Prometheus,
            via_service: false,
            quarantine: false,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
        // ...with quarantine the bad rows are skipped and counted.
        let prom = execute(Command::Stats {
            communities: vec![good, dirty],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Prometheus,
            via_service: false,
            quarantine: true,
        })
        .unwrap();
        assert!(prom.contains("csj_data_quarantined_total 2"), "{prom}");
        assert!(prom.contains("csj_communities 2"), "{prom}");
    }

    #[test]
    fn parse_slow_slo_and_export_flags() {
        match parse(&argv(
            "slow --communities a,b --eps 1 --max-joins 1 --slow-threshold-us 5000 \
             --last 2 --json --out /tmp/f.json",
        ))
        .unwrap()
        {
            Command::Slow {
                communities,
                eps,
                max_joins,
                slow_threshold_us,
                last,
                json,
                out,
                ..
            } => {
                assert_eq!(communities.len(), 2);
                assert_eq!(eps, 1);
                assert_eq!(max_joins, Some(1));
                assert_eq!(slow_threshold_us, 5_000);
                assert_eq!(last, 2);
                assert!(json);
                assert_eq!(out, Some(PathBuf::from("/tmp/f.json")));
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("slow --communities a,b --eps 1")).unwrap() {
            Command::Slow {
                slow_threshold_us,
                last,
                json,
                out,
                ..
            } => {
                assert_eq!(slow_threshold_us, 0, "default captures everything");
                assert_eq!(last, 8);
                assert!(!json);
                assert_eq!(out, None);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv(
            "slo --communities a,b --eps 1 --threshold 0.3 --max-joins 0 --json",
        ))
        .unwrap()
        {
            Command::Slo {
                threshold,
                max_joins,
                json,
                ..
            } => {
                assert!((threshold - 0.3).abs() < 1e-9);
                assert_eq!(max_joins, Some(0));
                assert!(json);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv(
            "trace --communities a,b --eps 1 --export chrome --out /tmp/t.json",
        ))
        .unwrap()
        {
            Command::Trace { export, out, .. } => {
                assert_eq!(export.as_deref(), Some("chrome"));
                assert_eq!(out, Some(PathBuf::from("/tmp/t.json")));
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("trace --communities a,b --eps 1 --export svg")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("trace --communities a,b --eps 1 --out /tmp/t.json")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("slow --communities solo --eps 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("slo --communities a,b --eps 1 --threshold lots")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn slow_reproduces_pathological_queries_with_plan_and_telemetry() {
        let (b, a) = generated_pair("csj_cli_slow_test", 7);
        // An unbudgeted run with threshold 0: the completed top-k is
        // captured for latency, and the record carries the rolled-up
        // join telemetry plus the full span tree.
        let json = execute(Command::Slow {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            k: 3,
            deadline_ms: None,
            max_joins: None,
            slow_threshold_us: 0,
            last: 4,
            json: true,
            out: None,
            quarantine: false,
        })
        .unwrap();
        assert!(json.contains("\"cause\":\"latency>0us\""), "{json}");
        assert!(json.contains("\"joins\":1"), "{json}");
        assert!(json.contains("\"rows_driven\""), "{json}");
        assert!(json.contains("\"matcher_edges\""), "{json}");
        assert!(json.contains("\"screen\""), "{json}");
        let _parsed: serde_json::Value =
            serde_json::from_str(&json).expect("slow --json emits valid JSON");

        // A zero-deadline run exhausts before any join: the trace lands
        // in the log for its outcome, with the budget state attached.
        // --out persists the JSON records even when stdout is text.
        let dir = std::env::temp_dir().join("csj_cli_slow_test");
        let out_path = dir.join("forensics.json");
        let msg = execute(Command::Slow {
            communities: vec![b, a],
            eps: 1,
            k: 3,
            deadline_ms: Some(0),
            max_joins: None,
            slow_threshold_us: 1_000_000_000,
            last: 4,
            json: false,
            out: Some(out_path.clone()),
            quarantine: false,
        })
        .unwrap();
        assert!(msg.contains("wrote 1 forensic records"), "{msg}");
        let artifact = std::fs::read_to_string(&out_path).unwrap();
        assert!(
            artifact.contains("\"cause\":\"outcome:exhausted:deadline\""),
            "{artifact}"
        );
        assert!(artifact.contains("budget_reason"), "{artifact}");
        assert!(artifact.contains("top_k"), "{artifact}");
        let _parsed: serde_json::Value =
            serde_json::from_str(&artifact).expect("slow --out persists valid JSON");
        assert!(!dir.join("forensics.json.tmp").exists(), "atomic write");
    }

    #[test]
    fn trace_export_chrome_round_trips() {
        let (b, a) = generated_pair("csj_cli_export_test", 9);
        let run = |export: &str, out: Option<PathBuf>| {
            execute(Command::Trace {
                communities: vec![b.clone(), a.clone()],
                eps: 1,
                k: 2,
                deadline_ms: None,
                max_joins: None,
                last: 1,
                json: false,
                via_service: false,
                quarantine: false,
                export: Some(export.to_string()),
                out,
            })
            .unwrap()
        };
        let chrome = run("chrome", None);
        let v: serde_json::Value =
            serde_json::from_str(&chrome).expect("chrome export is valid JSON");
        assert_eq!(v["displayTimeUnit"].as_str(), Some("ms"));
        let events = &v["traceEvents"];
        let (mut complete, mut meta, mut i) = (0, 0, 0);
        loop {
            let e = &events[i];
            match e["ph"].as_str() {
                Some("X") => {
                    complete += 1;
                    assert!(e["name"].as_str().is_some(), "{chrome}");
                    assert_eq!(e["pid"].as_u64(), Some(1), "{chrome}");
                    assert!(
                        e["ts"].as_f64().is_some() && e["dur"].as_f64().is_some(),
                        "{chrome}"
                    );
                }
                Some("M") => meta += 1,
                Some(other) => panic!("unexpected phase {other:?} in {chrome}"),
                None => break,
            }
            i += 1;
        }
        assert!(complete >= 2, "query + child spans expected: {chrome}");
        assert!(meta >= 1, "thread_name metadata expected: {chrome}");

        let jsonl = run("jsonl", None);
        assert!(jsonl.lines().count() >= 1);
        for line in jsonl.lines() {
            let _: serde_json::Value =
                serde_json::from_str(line).expect("each jsonl line is valid JSON");
        }

        let dir = std::env::temp_dir().join("csj_cli_export_test");
        let path = dir.join("trace.json");
        let msg = run("chrome", Some(path.clone()));
        assert!(msg.contains("exported 1 traces (chrome)"), "{msg}");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let _: serde_json::Value =
            serde_json::from_str(&on_disk).expect("exported file is valid JSON");
        assert!(!dir.join("trace.json.tmp").exists(), "atomic write");
    }

    #[test]
    fn slo_reports_burn_rates_for_budget_exhaustion() {
        let (b, a) = generated_pair("csj_cli_slo_test", 10);
        // max-joins 0 exhausts the top-k: 1 of 2 queries burns budget,
        // blowing the 5% exhausted_fraction objective.
        let json = execute(Command::Slo {
            communities: vec![b, a],
            eps: 1,
            threshold: 0.0,
            deadline_ms: None,
            max_joins: Some(0),
            json: true,
            quarantine: false,
        })
        .unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&json).expect("slo --json emits valid JSON");
        assert_eq!(v[0]["objective"].as_str(), Some("join_latency"), "{json}");
        assert_eq!(
            v[1]["objective"].as_str(),
            Some("exhausted_fraction"),
            "{json}"
        );
        assert_eq!(v[1]["bad"].as_u64(), Some(1), "{json}");
        assert_eq!(v[1]["total"].as_u64(), Some(2), "{json}");
        assert_eq!(v[1]["breached"].as_bool(), Some(true), "{json}");
        assert_eq!(
            v[2]["objective"].as_str(),
            None,
            "one entry per objective: {json}"
        );
    }

    #[test]
    fn slo_prints_one_row_per_objective() {
        let (b, a) = generated_pair("csj_cli_slo_rows_test", 13);
        let text = execute(Command::Slo {
            communities: vec![b, a],
            eps: 1,
            threshold: 0.0,
            deadline_ms: None,
            max_joins: Some(0),
            json: false,
            quarantine: false,
        })
        .unwrap();
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("slo ")).collect();
        assert_eq!(rows.len(), 2, "{text}");
        assert!(rows[0].starts_with("slo join_latency: "), "{text}");
        assert!(rows[1].starts_with("slo exhausted_fraction: "), "{text}");
        assert!(rows[1].ends_with("BREACHED"), "{text}");
        assert!(text.ends_with("objectives=2 breached=1\n"), "{text}");
    }

    #[test]
    fn stats_exposes_slo_burn_rate_series() {
        let (b, a) = generated_pair("csj_cli_stats_slo_test", 11);
        let prom = execute(Command::Stats {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Prometheus,
            via_service: false,
            quarantine: false,
        })
        .unwrap();
        assert!(prom.contains("# TYPE csj_slo_target gauge"), "{prom}");
        assert!(prom.contains("# TYPE csj_slo_burn_rate gauge"), "{prom}");
        assert!(prom.contains("# TYPE csj_slo_bad_fraction gauge"), "{prom}");
        assert!(prom.contains("# TYPE csj_slo_breached gauge"), "{prom}");
        assert!(
            prom.contains("csj_slo_target{objective=\"exhausted_fraction\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("csj_slo_burn_rate{objective=\"join_latency\"}"),
            "{prom}"
        );

        // --via-service adds the service objectives to the exposition.
        let via = execute(Command::Stats {
            communities: vec![b, a],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Prometheus,
            via_service: true,
            quarantine: false,
        })
        .unwrap();
        assert!(
            via.contains("csj_slo_burn_rate{objective=\"shed_fraction\"}"),
            "{via}"
        );
        // One sample per objective in each evaluated family.
        for family in [
            "csj_slo_bad_fraction",
            "csj_slo_burn_rate",
            "csj_slo_breached",
        ] {
            let samples = via
                .lines()
                .filter(|l| l.starts_with(&format!("{family}{{")));
            assert_eq!(samples.count(), 5, "{family}: {via}");
        }
        assert!(
            via.contains("csj_slo_target{objective=\"request_latency\"}"),
            "{via}"
        );
    }

    #[test]
    fn stats_via_service_announces_each_family_once() {
        let (b, a) = generated_pair("csj_cli_stats_type_once", 12);
        let prom = execute(Command::Stats {
            communities: vec![b, a],
            eps: 1,
            threshold: 0.0,
            format: StatsFormat::Prometheus,
            via_service: true,
            quarantine: false,
        })
        .unwrap();
        let mut types: Vec<&str> = prom.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let announced = types.len();
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), announced, "a # TYPE line repeats:\n{prom}");
    }
}
