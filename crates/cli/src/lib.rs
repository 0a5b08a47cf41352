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
//! csj serve-sim --qps 200 --duration-ms 2000    open-loop overload soak against
//!                                               the admission-controlled service
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
    /// Open-loop load soak against the overload-safe service: submit a
    /// mixed query stream over synthetic communities at a fixed rate,
    /// then report admission/shed/degrade/breaker behaviour, latency
    /// quantiles and the service invariants. Exits non-zero when an
    /// invariant is violated.
    ServeSim {
        /// Target submission rate, requests per second.
        qps: u64,
        /// Load-generation window, milliseconds.
        duration_ms: u64,
        workers: usize,
        /// Admission queue capacity (the shed point).
        queue: usize,
        /// Number of synthetic communities to register.
        communities: usize,
        /// Users per synthetic community.
        scale: u32,
        eps: u32,
        seed: u64,
        /// Per-request deadline; 0 disables deadlines (and with them
        /// deadline-triggered degradation).
        deadline_ms: u64,
        /// Inject faults (a healing panic burst plus one pathologically
        /// slow community); needs the `chaos` cargo feature.
        chaos: bool,
        /// Targeted chaos mode: `shard-kill`, `shard-stall` or
        /// `shard-panic` attack one shard of every multi-pair request
        /// (`shard-stall` holds it for twice `deadline_ms`); `None` is
        /// the classic community-level fault mix. Implies `chaos`.
        chaos_mode: Option<String>,
        /// Write the final merged Prometheus exposition here.
        metrics_out: Option<PathBuf>,
        /// Run the ingest phase through the crash-consistent registry
        /// (WAL + snapshots) and assert replay convergence before the
        /// query soak.
        durable: bool,
        /// Directory for the WAL and snapshots; a scratch directory
        /// when omitted.
        durable_dir: Option<PathBuf>,
        /// Kill the durable ingest after this many WAL bytes (torn
        /// write at the budget boundary), then recover and assert the
        /// recovered state equals the acked prefix. Needs the `chaos`
        /// cargo feature.
        crash_after: Option<u64>,
        /// WAL fsync policy for the durable ingest.
        fsync: csj_durability::FsyncPolicy,
        /// Evaluate the service SLOs (multi-window burn rates) after
        /// the soak and self-check every verdict against the fate
        /// counters; a breach the fate counters cannot back is an
        /// invariant violation (exit 2).
        slo: bool,
    },
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
  csj serve-sim [--qps N] [--duration-ms MS] [--workers W] [--queue Q] [--communities M] [--scale U]
                [--eps E] [--seed S] [--deadline-ms MS] [--chaos [shard-kill|shard-stall|shard-panic]]
                [--metrics-out FILE] [--slo]
                [--durable] [--durable-dir DIR] [--crash-after BYTES] [--fsync always|interval:N]
  csj snapshot --dir DIR
  csj recover --dir DIR [--verify]
formats: *.csv is text, *.csjp is a prepared index, anything else the CSJB binary format";

fn parse_fsync(v: &str) -> Result<csj_durability::FsyncPolicy, CliError> {
    if v == "always" {
        return Ok(csj_durability::FsyncPolicy::Always);
    }
    if let Some(n) = v.strip_prefix("interval:") {
        let n: u32 = n
            .parse()
            .map_err(|_| CliError::Usage(format!("--fsync interval expects a count, got {v:?}")))?;
        return Ok(csj_durability::FsyncPolicy::Interval(n));
    }
    Err(CliError::Usage(format!(
        "--fsync expects always|interval:N, got {v:?}"
    )))
}

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
        "serve-sim" => {
            // `--chaos` takes an optional mode value: the next token,
            // unless it is another flag.
            let chaos_mode = rest
                .iter()
                .position(|&a| a == "--chaos")
                .and_then(|i| rest.get(i + 1).copied())
                .filter(|v| !v.starts_with("--"))
                .map(str::to_string);
            if let Some(mode) = &chaos_mode {
                if !matches!(mode.as_str(), "shard-kill" | "shard-stall" | "shard-panic") {
                    return Err(CliError::Usage(format!(
                        "--chaos takes no value or shard-kill|shard-stall|shard-panic, \
                         got {mode:?}"
                    )));
                }
            }
            let communities =
                get("--communities").map_or(Ok(6), |v| parse_num("--communities", v))? as usize;
            if communities < 2 {
                return Err(CliError::Usage("--communities must be >= 2".into()));
            }
            let qps = get("--qps").map_or(Ok(100), |v| parse_num("--qps", v))?;
            if qps == 0 {
                return Err(CliError::Usage("--qps must be >= 1".into()));
            }
            Ok(Command::ServeSim {
                qps,
                duration_ms: get("--duration-ms")
                    .map_or(Ok(2_000), |v| parse_num("--duration-ms", v))?,
                workers: get("--workers").map_or(Ok(2), |v| parse_num("--workers", v))? as usize,
                queue: get("--queue").map_or(Ok(8), |v| parse_num("--queue", v))? as usize,
                communities,
                scale: get("--scale").map_or(Ok(240), |v| parse_num("--scale", v))? as u32,
                eps: get("--eps").map_or(Ok(1), |v| parse_num("--eps", v))? as u32,
                seed: get("--seed").map_or(Ok(42), |v| parse_num("--seed", v))?,
                deadline_ms: get("--deadline-ms")
                    .map_or(Ok(100), |v| parse_num("--deadline-ms", v))?,
                chaos: has("--chaos"),
                chaos_mode,
                metrics_out: get("--metrics-out").map(PathBuf::from),
                durable: has("--durable") || has("--durable-dir") || has("--crash-after"),
                durable_dir: get("--durable-dir").map(PathBuf::from),
                crash_after: get("--crash-after")
                    .map(|v| parse_num("--crash-after", v))
                    .transpose()?,
                fsync: get("--fsync")
                    .map_or(Ok(csj_durability::FsyncPolicy::Always), parse_fsync)?,
                slo: has("--slo"),
            })
        }
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

/// Nominal evaluation instant for one-shot CLI SLO evaluations. The
/// SLO engine runs on a caller-supplied clock; a CLI run brackets its
/// whole workload between `observe(0, ..)` and `observe(SLO_EVAL_US, ..)`,
/// so both default windows clip to the run's full span and the burn
/// rates describe exactly the traffic the command generated.
const SLO_EVAL_US: u64 = 60_000_000;

/// Render SLO statuses as a JSON array (hand-rolled: the statuses are
/// flat and the field set is stable).
fn slo_statuses_json(statuses: &[csj_obs::SloStatus]) -> String {
    let items: Vec<String> = statuses
        .iter()
        .map(|s| {
            format!(
                "{{\"objective\":\"{}\",\"window\":\"{}\",\"target\":{},\"bad\":{},\
                 \"total\":{},\"bad_fraction\":{},\"burn_rate\":{},\"breached\":{}}}",
                s.objective,
                s.window,
                s.target,
                s.bad,
                s.total,
                s.bad_fraction,
                s.burn_rate,
                s.breached
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
            use csj_engine::{Budget, CsjEngine, EngineConfig};
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
            let mut budget = Budget::unlimited();
            if let Some(ms) = deadline_ms {
                budget = budget.with_deadline(std::time::Duration::from_millis(ms));
            }
            if let Some(max) = max_joins {
                budget = budget.with_max_joins(max);
            }
            let partial = engine
                .screen_and_refine_with_budget(anchor_h, &handles, &budget)
                .map_err(|e| CliError::Io(e.to_string()))?;
            let exhausted = partial.exhausted;
            let coverage = partial.coverage;
            let mut ranked = partial.value;
            ranked.truncate(k);
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
            use csj_obs::{default_windows, SloEngine};
            let (engine, _handles) = load_engine(&communities, eps, quarantine, None)?;
            if via_service {
                use csj_service::{service_slos, CsjService, Request, ServiceConfig};
                let slo = SloEngine::new(
                    csj_engine::engine_slos()
                        .into_iter()
                        .chain(service_slos(250_000))
                        .collect(),
                    default_windows(),
                );
                let service = CsjService::start(engine, ServiceConfig::default());
                slo.observe(0, &service.metrics_snapshot());
                service
                    .call(Request::PairsAbove { threshold })
                    .map_err(|e| CliError::Io(e.to_string()))?;
                let mut snap = service.metrics_snapshot();
                slo.observe(SLO_EVAL_US, &snap);
                slo.evaluate(SLO_EVAL_US);
                snap.metrics.extend(slo.snapshot().metrics);
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
            let slo = SloEngine::new(csj_engine::engine_slos(), default_windows());
            slo.observe(0, &engine.metrics_snapshot());
            engine
                .pairs_above(threshold)
                .map_err(|e| CliError::Io(e.to_string()))?;
            let mut snap = engine.metrics_snapshot();
            slo.observe(SLO_EVAL_US, &snap);
            slo.evaluate(SLO_EVAL_US);
            snap.metrics.extend(slo.snapshot().metrics);
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
            use csj_engine::Budget;
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
                let mut budget = Budget::unlimited();
                if let Some(ms) = deadline_ms {
                    budget = budget.with_deadline(std::time::Duration::from_millis(ms));
                }
                if let Some(max) = max_joins {
                    budget = budget.with_max_joins(max);
                }
                engine
                    .top_k_similar_with_budget(handles[0], k, &budget)
                    .map_err(|e| CliError::Io(e.to_string()))?;
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
            use csj_engine::Budget;
            let (engine, handles) =
                load_engine(&communities, eps, quarantine, Some(slow_threshold_us))?;
            let mut budget = Budget::unlimited();
            if let Some(ms) = deadline_ms {
                budget = budget.with_deadline(std::time::Duration::from_millis(ms));
            }
            if let Some(max) = max_joins {
                budget = budget.with_max_joins(max);
            }
            engine
                .top_k_similar_with_budget(handles[0], k, &budget)
                .map_err(|e| CliError::Io(e.to_string()))?;
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
            use csj_engine::Budget;
            use csj_obs::{default_windows, SloEngine};
            let (engine, handles) = load_engine(&communities, eps, quarantine, None)?;
            let slo = SloEngine::new(csj_engine::engine_slos(), default_windows());
            slo.observe(0, &engine.metrics_snapshot());
            let mut budget = Budget::unlimited();
            if let Some(ms) = deadline_ms {
                budget = budget.with_deadline(std::time::Duration::from_millis(ms));
            }
            if let Some(max) = max_joins {
                budget = budget.with_max_joins(max);
            }
            engine
                .pairs_above(threshold)
                .map_err(|e| CliError::Io(e.to_string()))?;
            engine
                .top_k_similar_with_budget(handles[0], 3, &budget)
                .map_err(|e| CliError::Io(e.to_string()))?;
            slo.observe(SLO_EVAL_US, &engine.metrics_snapshot());
            let statuses = slo.evaluate(SLO_EVAL_US);
            if json {
                Ok(slo_statuses_json(&statuses))
            } else {
                use std::fmt::Write as _;
                let mut s = String::new();
                for status in &statuses {
                    let _ = writeln!(s, "slo {status}");
                }
                let breached = statuses.iter().filter(|st| st.breached).count();
                let _ = writeln!(
                    s,
                    "objectives={} windows={} breached={breached}",
                    statuses.len() / slo.windows().len().max(1),
                    slo.windows().len()
                );
                Ok(s)
            }
        }
        Command::ServeSim {
            qps,
            duration_ms,
            workers,
            queue,
            communities,
            scale,
            eps,
            seed,
            deadline_ms,
            chaos,
            chaos_mode,
            metrics_out,
            durable,
            durable_dir,
            crash_after,
            fsync,
            slo,
        } => serve_sim(SimArgs {
            qps,
            duration_ms,
            workers,
            queue,
            communities,
            scale,
            eps,
            seed,
            deadline_ms,
            chaos,
            chaos_mode,
            metrics_out,
            durable,
            durable_dir,
            crash_after,
            fsync,
            slo,
        }),
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
            use std::fmt::Write as _;
            let mut out = format!(
                "recovery: {}\ncommunities={} users={users} fingerprint={fp:#018x}\n",
                report.summary(),
                engine.handles().count(),
            );
            if verify {
                let mut breaches: Vec<String> = Vec::new();
                // Determinism: a second recovery over the same files
                // must rebuild the identical state.
                match recover_dir(&dir, 8, csj_engine::EngineConfig::new(1)) {
                    Ok((again, report2)) => {
                        if fingerprint_engine(&again) != fp {
                            breaches.push("second recovery diverged from the first".into());
                        }
                        if report2 != report {
                            breaches.push("second recovery report differs".into());
                        }
                    }
                    Err(e) => breaches.push(format!("second recovery failed: {e}")),
                }
                // Registry invariants over the recovered state.
                for h in engine.handles() {
                    match engine.community(h) {
                        Ok(c) => {
                            if c.d() != engine.d() {
                                breaches.push(format!(
                                    "community {:?} has d={} in a d={} engine",
                                    c.name(),
                                    c.d(),
                                    engine.d()
                                ));
                            }
                            if engine.find(c.name()) != Some(h) {
                                breaches.push(format!(
                                    "name {:?} does not resolve back to its handle",
                                    c.name()
                                ));
                            }
                        }
                        Err(e) => breaches.push(format!("dangling handle {}: {e}", h.0)),
                    }
                }
                // The WAL accounting must cover the file exactly.
                let wal_len = std::fs::metadata(dir.join(csj_durability::WAL_FILE))
                    .map(|m| m.len())
                    .unwrap_or(0);
                if report.wal_valid_bytes + report.bytes_discarded != wal_len {
                    breaches.push(format!(
                        "WAL accounting mismatch: {} valid + {} discarded != {} on disk",
                        report.wal_valid_bytes, report.bytes_discarded, wal_len
                    ));
                }
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

/// Arguments of [`Command::ServeSim`], bundled so the driver stays one
/// call.
struct SimArgs {
    qps: u64,
    duration_ms: u64,
    workers: usize,
    queue: usize,
    communities: usize,
    scale: u32,
    eps: u32,
    seed: u64,
    deadline_ms: u64,
    chaos: bool,
    chaos_mode: Option<String>,
    metrics_out: Option<PathBuf>,
    durable: bool,
    durable_dir: Option<PathBuf>,
    crash_after: Option<u64>,
    fsync: csj_durability::FsyncPolicy,
    slo: bool,
}

/// One scripted ingest mutation of the durable serve-sim phase; the
/// script is deterministic in the sim arguments so a crashed run can
/// resume from the exact op that tore.
#[derive(Debug, Clone, Copy)]
enum SimOp {
    Register(usize),
    Upsert(usize, u64),
    Remove(usize, u64),
}

/// What the durable ingest phase concluded.
struct DurableOutcome {
    engine: csj_engine::CsjEngine,
    report_lines: String,
    converged: bool,
    metrics: csj_obs::MetricsSnapshot,
}

/// Apply one scripted op through the durable engine. Returns whether it
/// was acked (ops made redundant by an earlier run against the same
/// directory — an existing registration, an already-removed user — are
/// skipped, not errors).
fn apply_sim_op(
    dur: &mut csj_durability::DurableEngine,
    communities: &[Community],
    op: SimOp,
) -> Result<bool, csj_durability::DurabilityError> {
    let find = |dur: &csj_durability::DurableEngine, m: usize| {
        dur.engine()
            .find(communities[m].name())
            .expect("register op precedes every upsert/remove in the script")
    };
    match op {
        SimOp::Register(m) => {
            if dur.engine().find(communities[m].name()).is_some() {
                return Ok(false);
            }
            dur.register(communities[m].clone()).map(|_| true)
        }
        SimOp::Upsert(m, user) => {
            let h = find(dur, m);
            let d = communities[m].d();
            let vector: Vec<u32> = (0..d as u64)
                .map(|j| ((user * 31 + j * 7) % 97) as u32)
                .collect();
            dur.upsert_user(h, user, &vector).map(|_| true)
        }
        SimOp::Remove(m, user) => {
            let h = find(dur, m);
            match dur.remove_user(h, user) {
                Ok(_) => Ok(true),
                Err(csj_durability::DurabilityError::Engine(
                    csj_engine::EngineError::UnknownUser(_),
                )) => Ok(false),
                Err(e) => Err(e),
            }
        }
    }
}

/// The durable ingest phase of `csj serve-sim --durable`: run the
/// scripted mutations through the WAL-backed registry (optionally
/// tearing the log mid-write at `--crash-after` bytes), recover, assert
/// the recovered state is exactly the acked prefix, finish the script,
/// snapshot, re-verify, and hand the engine over for the query soak.
fn durable_ingest(args: &SimArgs, communities: &[Community]) -> Result<DurableOutcome, CliError> {
    use csj_durability::{
        fingerprint_engine, recover_dir, DurabilityConfig, DurabilityError, DurableEngine,
    };
    use csj_engine::EngineConfig;
    use std::fmt::Write as _;

    let dir = args.durable_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "csj-serve-sim-durable-{}-{}",
            std::process::id(),
            args.seed
        ))
    });
    let d = communities.first().map_or(8, |c| c.d());
    let config = DurabilityConfig {
        fsync: args.fsync,
        keep_snapshots: 2,
    };
    let io_err = |e: DurabilityError| CliError::Io(format!("{}: {e}", dir.display()));
    let open =
        |dir: &Path| DurableEngine::open(dir, d, EngineConfig::new(args.eps), config.clone());

    // The deterministic mutation script: register each community, then
    // churn a handful of extra users so the WAL sees all three ops.
    let mut script: Vec<SimOp> = Vec::new();
    for m in 0..communities.len() {
        script.push(SimOp::Register(m));
        let base = u64::from(args.scale) + 1;
        for u in 0..6 {
            script.push(SimOp::Upsert(m, base + u));
        }
        script.push(SimOp::Remove(m, base));
        script.push(SimOp::Remove(m, base + 1));
    }

    let mut dur = open(&dir).map_err(io_err)?;
    let mut lines = format!(
        "durable: dir={} fsync={} crash-after={}\n",
        dir.display(),
        args.fsync,
        args.crash_after
            .map(|n| n.to_string())
            .unwrap_or_else(|| "none".into()),
    );
    let _ = writeln!(lines, "durable-open-recovery: {}", dur.report().summary());

    #[cfg(feature = "chaos")]
    if let Some(budget) = args.crash_after {
        dur.inject_fs_faults(
            csj_durability::fault::FsFaultPlan::new().crash_after_wal_bytes(budget),
        );
    }

    let mut acked_fp = dur.fingerprint();
    let mut resume_from = script.len();
    let mut crashed = false;
    for (i, &op) in script.iter().enumerate() {
        match apply_sim_op(&mut dur, communities, op) {
            Ok(true) => acked_fp = dur.fingerprint(),
            Ok(false) => {}
            Err(DurabilityError::InjectedCrash) => {
                crashed = true;
                resume_from = i;
                break;
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    if !crashed {
        // Interval fsync batches acks; make the tail durable before the
        // convergence check treats it as the contract.
        dur.sync().map_err(io_err)?;
        resume_from = script.len();
    }
    drop(dur);

    // Crash (or clean shutdown) happened here. Recover read-only and
    // check the core contract: recovered state == the acked prefix.
    let (recovered, rec_report) =
        recover_dir(&dir, d, EngineConfig::new(args.eps)).map_err(io_err)?;
    let converged = fingerprint_engine(&recovered) == acked_fp;
    if crashed {
        let _ = writeln!(
            lines,
            "durable-crash: injected mid-write at script op {resume_from}"
        );
    }
    let _ = writeln!(lines, "durable-recovery: {}", rec_report.summary());
    let _ = writeln!(
        lines,
        "durable-replayed={} durable-discarded-bytes={}",
        rec_report.records_replayed, rec_report.bytes_discarded
    );
    let _ = writeln!(
        lines,
        "durable-converged={}",
        if converged { "ok" } else { "VIOLATED" }
    );

    // Reopen read-write (repairing the torn tail), finish the script,
    // snapshot, and re-verify that snapshot + WAL still reproduce the
    // live state bit-identically.
    let mut dur = open(&dir).map_err(io_err)?;
    for &op in &script[resume_from..] {
        apply_sim_op(&mut dur, communities, op).map_err(io_err)?;
    }
    let snap_out = dur.snapshot().map_err(io_err)?;
    let _ = writeln!(
        lines,
        "durable-snapshot: seq={} ({} pruned)",
        snap_out.seq, snap_out.pruned
    );
    let live_fp = dur.fingerprint();
    let (reverified, _) = recover_dir(&dir, d, EngineConfig::new(args.eps)).map_err(io_err)?;
    let final_ok = fingerprint_engine(&reverified) == live_fp;
    let _ = writeln!(
        lines,
        "durable-final-recovery-converged={}",
        if final_ok { "ok" } else { "VIOLATED" }
    );
    let metrics = dur.durability_metrics();
    let engine = dur.into_engine().map_err(io_err)?;
    Ok(DurableOutcome {
        engine,
        report_lines: lines,
        converged: converged && final_ok,
        metrics,
    })
}

/// Upper bound (milliseconds) of the histogram bucket holding quantile
/// `q`; `None` with no observations, infinity in the overflow bucket.
fn quantile_bound_ms(bounds_us: &[u64], buckets: &[u64], count: u64, q: f64) -> Option<f64> {
    if count == 0 {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        cumulative += b;
        if cumulative >= rank {
            return Some(
                bounds_us
                    .get(i)
                    .map_or(f64::INFINITY, |&b| b as f64 / 1000.0),
            );
        }
    }
    None
}

/// The open-loop soak behind `csj serve-sim`: register synthetic
/// communities, start the overload-safe service, submit a mixed query
/// stream at the target rate (never blocking on responses, so overload
/// actually sheds), then drain every ticket and reconcile the local
/// tallies against the `csj_service_*` metrics. Violated invariants
/// turn into a non-zero exit.
fn serve_sim(args: SimArgs) -> Result<String, CliError> {
    use std::fmt::Write as _;
    use std::time::{Duration, Instant};

    use csj_engine::{CsjEngine, EngineConfig};
    use csj_obs::catalog::{
        SERVICE_ADMITTED, SERVICE_BREAKER_TRANSITIONS, SERVICE_COMPLETED, SERVICE_DEGRADED,
        SERVICE_REQUEST, SERVICE_SHED, SERVICE_SUBMITTED, SHARD_DISPATCHED, SHARD_OUTCOMES,
        SHARD_UNITS,
    };
    use csj_service::{
        BreakerConfig, BreakerState, CsjService, DegradeTrigger, Fate, Request, ServiceConfig,
        ServiceError, Ticket,
    };

    #[cfg(not(feature = "chaos"))]
    if args.chaos {
        return Err(CliError::Usage(
            "--chaos needs the fault-injection build: cargo run -p csj-cli --features chaos".into(),
        ));
    }
    #[cfg(not(feature = "chaos"))]
    if args.crash_after.is_some() {
        return Err(CliError::Usage(
            "--crash-after needs the fault-injection build: cargo run -p csj-cli --features chaos"
                .into(),
        ));
    }
    if args.crash_after.is_some() && !args.durable {
        return Err(CliError::Usage(
            "--crash-after only makes sense with --durable".into(),
        ));
    }
    // Shard chaos needs the shard knobs set at engine construction —
    // the durable ingest path builds its own engine.
    let shard_chaos = args.chaos_mode.is_some();
    if shard_chaos && args.durable {
        return Err(CliError::Usage(
            "--chaos shard-* cannot be combined with --durable".into(),
        ));
    }

    // Synthetic communities: dense deterministic counter patterns so
    // exact joins do real matching work without any input files.
    const D: usize = 8;
    let mut communities = Vec::with_capacity(args.communities);
    for m in 0..args.communities {
        let salt = args.seed.wrapping_add(m as u64);
        let rows: Vec<(u64, Vec<u32>)> = (0..u64::from(args.scale.max(2)))
            .map(|i| {
                let counters = (0..D as u64)
                    .map(|j| ((i * (7 + j) + salt * 13) % 97) as u32)
                    .collect();
                (i + 1, counters)
            })
            .collect();
        communities.push(
            Community::from_rows(format!("sim-{m}"), D, rows)
                .map_err(|e| CliError::Io(format!("synthetic community: {e}")))?,
        );
    }

    // Ingest: directly into a fresh engine, or — with --durable —
    // through the WAL-backed registry with crash/recovery checking.
    let (mut engine, durable_outcome) = if args.durable {
        let outcome = durable_ingest(&args, &communities)?;
        (None, Some(outcome))
    } else {
        let mut config = EngineConfig::new(args.eps);
        if shard_chaos {
            // Four shards, so the attacked shard 0 holds a quarter of
            // each request's work, on a pool at least as wide even on a
            // small host: the healthy siblings run beside the attacked
            // shard instead of queueing behind it.
            config.shard.shards = 4;
            config.threads = config.threads.max(4);
        }
        let mut engine = CsjEngine::new(D, config);
        for c in communities.drain(..) {
            engine
                .register(c)
                .map_err(|e| CliError::Io(e.to_string()))?;
        }
        (Some(engine), None)
    };
    let (durable_lines, durable_ok, durable_metrics) = match durable_outcome {
        Some(o) => {
            engine = Some(o.engine);
            (o.report_lines, o.converged, Some(o.metrics))
        }
        None => (String::new(), true, None),
    };
    let engine = engine.expect("one ingest path ran");
    // Registration order is deterministic, but a reused --durable-dir
    // may hold more than this run's communities: resolve by name.
    let handles: Vec<csj_engine::CommunityHandle> = (0..args.communities)
        .map(|m| {
            engine
                .find(&format!("sim-{m}"))
                .ok_or_else(|| CliError::Io(format!("sim-{m} missing after ingest")))
        })
        .collect::<Result<_, _>>()?;
    #[cfg_attr(not(feature = "chaos"), allow(unused_mut))]
    let mut engine = engine;
    #[cfg(feature = "chaos")]
    if args.chaos {
        use csj_engine::fault::FaultPlan;
        use csj_engine::ShardFaultPlan;
        match args.chaos_mode.as_deref() {
            // Shard 0 of every multi-pair request is attacked; the other
            // shards (and every similarity request) stay healthy, so
            // the blast radius of the fault is exactly one shard.
            Some("shard-kill") => {
                // The worker dies before the closure runs, every time:
                // the shard resolves failed, and the response degrades
                // with partial coverage.
                engine.inject_shard_faults(ShardFaultPlan::new().kill(0, u32::MAX));
            }
            Some("shard-stall") => {
                // Shard 0 stalls past the request's deadline every time.
                // The deadline passes while it waits, so when it runs it
                // admits none of its units: the request comes back
                // exhausted with skipped units and degrades on the
                // deadline trigger. A stall also wakes early once a
                // sibling shard trips the query's token, so requests
                // cost bounded time instead of hanging.
                engine.inject_shard_faults(ShardFaultPlan::new().stall(
                    0,
                    Duration::from_millis(args.deadline_ms.saturating_mul(2)),
                    u32::MAX,
                ));
            }
            Some("shard-panic") => {
                // The shard panics inside the isolation boundary, every
                // time: typed failure, no escape, partial coverage.
                engine.inject_shard_faults(ShardFaultPlan::new().panic_on(0, u32::MAX));
            }
            // Classic mode: one community panics three times then heals
            // (exactly the breaker's failure threshold below, so the
            // exact breaker trips and later recovers through half-open
            // probes), and one is pathologically slow (capacity
            // collapses, so admission control sheds and deadlines force
            // degradation). Its stall outlasts the soaks' 100 ms
            // request deadline: a join that finishes in time is cached
            // and never runs again, so only a community too slow to
            // finish keeps costing every request that touches it.
            _ => engine.inject_faults(
                FaultPlan::new()
                    .panic_n_times(handles[0].0, 3)
                    .slow_on(handles[1].0, Duration::from_millis(150)),
            ),
        }
    }

    // Injected panics are caught by the engine's isolation boundary,
    // but the default panic hook would still spray backtraces over the
    // report; keep the soak output readable (restored after the drain).
    // Escapes are still visible as `panics-escaped` and the `failed`
    // tally.
    let previous_hook = args.chaos.then(|| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        hook
    });
    let deadline = (args.deadline_ms > 0).then(|| Duration::from_millis(args.deadline_ms));
    let service = CsjService::start(
        engine,
        ServiceConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            default_deadline: deadline,
            breaker: BreakerConfig {
                window: 8,
                failure_threshold: 3,
                cooldown: Duration::from_millis(200),
                probes: 2,
            },
            flight_capacity: 256,
        },
    );
    // The SLO engine samples the same snapshots the report reconciles,
    // so its burn rates are definitionally traceable to fate counters;
    // the self-check below catches any drift in that plumbing.
    let slo = args.slo.then(|| {
        let threshold_us = if args.deadline_ms > 0 {
            args.deadline_ms.saturating_mul(1_000)
        } else {
            250_000
        };
        let engine = csj_obs::SloEngine::new(
            csj_service::service_slos(threshold_us),
            csj_obs::default_windows(),
        );
        engine.observe(0, &service.metrics_snapshot());
        engine
    });

    // Open-loop generation: each request has a fixed due time derived
    // from the rate; falling behind never slows submission down.
    let total = (args.qps * args.duration_ms / 1_000).max(1);
    let interval_ns = 1_000_000_000 / args.qps;
    let started = Instant::now();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(total as usize);
    let mut shed_local = 0u64;
    for i in 0..total {
        let due = started + Duration::from_nanos(i * interval_ns);
        if let Some(ahead) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(ahead);
        }
        let request = match i % 5 {
            3 => Request::TopK {
                x: handles[i as usize % args.communities],
                k: 3,
            },
            4 => Request::PairsAbove { threshold: 0.2 },
            _ => Request::Similarity {
                x: handles[0],
                y: handles[1 + i as usize % (args.communities - 1)],
                method: Some(CsjMethod::ExMinMax),
            },
        };
        match service.submit(request) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::Overloaded { .. }) => shed_local += 1,
            Err(e) => return Err(CliError::Io(format!("submit failed: {e}"))),
        }
    }

    // Drain: every admitted request must resolve to exactly one fate.
    let (mut answered, mut degraded, mut failed, mut panics_escaped) = (0u64, 0u64, 0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Ok(r) if r.degraded => degraded += 1,
            Ok(_) => answered += 1,
            Err(ServiceError::Internal { .. }) => {
                failed += 1;
                panics_escaped += 1;
            }
            Err(_) => failed += 1,
        }
    }

    if let Some(hook) = previous_hook {
        std::panic::set_hook(hook);
    }

    let final_breaker = service.breaker_state(CsjMethod::ExMinMax);
    let mut snap = service.metrics_snapshot();
    if let Some(dm) = durable_metrics {
        snap.metrics.extend(dm.metrics);
    }
    let submitted = snap.value(&SERVICE_SUBMITTED, []);
    let shed = snap.value(&SERVICE_SHED, []);
    let [answered_c, degraded_c, failed_c] = [Fate::Answered, Fate::Degraded, Fate::Failed]
        .map(|fate| snap.value(&SERVICE_COMPLETED, [fate.label()]));
    let completed_c = answered_c + degraded_c + failed_c;
    let mut slo_lines = String::new();
    let mut slo_ok = true;
    if let Some(slo) = &slo {
        let elapsed_us = (started.elapsed().as_micros() as u64).max(1);
        slo.observe(elapsed_us, &snap);
        let statuses = slo.evaluate(elapsed_us);
        for s in &statuses {
            let _ = writeln!(slo_lines, "slo {s}");
            // Every burn rate must be derivable from the same fate
            // counters the four-fates identities constrain: both soak
            // windows clip to the run's lifetime, so the window deltas
            // equal the final counter values exactly.
            let reconciled = match s.objective.as_str() {
                "shed_fraction" => s.bad as u64 == shed && s.total as u64 == submitted,
                "degraded_fraction" => s.bad as u64 == degraded_c && s.total as u64 == completed_c,
                "request_latency" => s.total as u64 == completed_c,
                _ => true,
            };
            // A breach without nonzero bad events (and, for the fate
            // fractions, a nonzero matching fate counter) means the SLO
            // plumbing invented traffic.
            let backed = !s.breached
                || (s.bad > 0.0
                    && match s.objective.as_str() {
                        "shed_fraction" => shed > 0,
                        "degraded_fraction" => degraded_c > 0,
                        _ => true,
                    });
            slo_ok &= reconciled && backed;
        }
        // The `csj_slo_*` gauges ride the same exposition as the fate
        // counters they summarise.
        snap.metrics.extend(slo.snapshot().metrics);
    }
    if let Some(path) = &args.metrics_out {
        // Crash-safe: the exposition appears atomically or not at all,
        // so a reader never sees a torn half-written file.
        csj_durability::atomic::write_atomic(path, snap.to_prometheus().as_bytes())
            .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
    }
    let admitted = snap.value(&SERVICE_ADMITTED, []);
    let degraded_by = |t: DegradeTrigger| snap.value(&SERVICE_DEGRADED, [t.label()]);
    let breaker_to = |to: BreakerState| {
        snap.value(
            &SERVICE_BREAKER_TRANSITIONS,
            [CsjMethod::ExMinMax.name(), to.label()],
        )
    };
    let (p50, p99) = match snap.find(SERVICE_REQUEST.name(), &[]).map(|s| &s.value) {
        Some(csj_obs::SampleValue::Histogram {
            bounds_us,
            buckets,
            count,
            ..
        }) => (
            quantile_bound_ms(bounds_us, buckets, *count, 0.50),
            quantile_bound_ms(bounds_us, buckets, *count, 0.99),
        ),
        _ => (None, None),
    };
    let fmt_ms = |q: Option<f64>| q.map_or("n/a".to_string(), |ms| format!("{ms}ms"));

    let identity_ok = submitted == total && submitted == admitted + shed && shed == shed_local;
    let resolution_ok = answered + degraded + failed == admitted
        && [answered_c, degraded_c, failed_c] == [answered, degraded, failed];
    let verdict = |ok: bool| if ok { "ok" } else { "VIOLATED" };

    let mut out = format!(
        "serve-sim: qps={} duration-ms={} workers={} queue={} communities={} scale={} \
         eps={} deadline-ms={} chaos={} seed={}\n",
        args.qps,
        args.duration_ms,
        args.workers,
        args.queue,
        args.communities,
        args.scale,
        args.eps,
        args.deadline_ms,
        match &args.chaos_mode {
            Some(mode) => mode.as_str(),
            None if args.chaos => "on",
            None => "off",
        },
        args.seed
    );
    let _ = writeln!(out, "submitted={submitted} admitted={admitted} shed={shed}");
    let _ = writeln!(
        out,
        "answered={answered} degraded={degraded} failed={failed}"
    );
    let _ = writeln!(
        out,
        "degraded-by-trigger: breaker={} deadline={} coverage={}",
        degraded_by(DegradeTrigger::Breaker),
        degraded_by(DegradeTrigger::Deadline),
        degraded_by(DegradeTrigger::Coverage)
    );
    let _ = writeln!(
        out,
        "breaker ex-minmax transitions: open={} half_open={} closed={} (final={})",
        breaker_to(BreakerState::Open),
        breaker_to(BreakerState::HalfOpen),
        breaker_to(BreakerState::Closed),
        final_breaker.label()
    );
    let _ = writeln!(out, "latency: p50<={} p99<={}", fmt_ms(p50), fmt_ms(p99));
    let _ = writeln!(out, "panics-escaped={panics_escaped}");
    // Shard chaos only: reconcile the shard-fate counters. The identity
    // `dispatched == completed + failed + cancelled` is the sharded
    // layer's analogue of the service's four fates; a drift means a
    // shard was dropped or double-counted. (Printed only in shard modes
    // so the classic soak's `: ok` line count stays stable.)
    let mut shard_ok = true;
    if shard_chaos {
        let dispatched = snap.value(&SHARD_DISPATCHED, []);
        let completed = snap.value(&SHARD_OUTCOMES, ["completed"]);
        let failed = snap.value(&SHARD_OUTCOMES, ["failed"]);
        let cancelled = snap.value(&SHARD_OUTCOMES, ["cancelled"]);
        let screened = snap.value(&SHARD_UNITS, ["screened"]);
        let skipped = snap.value(&SHARD_UNITS, ["skipped"]);
        let _ = writeln!(
            out,
            "shard-coverage: dispatched={dispatched} completed={completed} failed={failed} \
             cancelled={cancelled} units-screened={screened} \
             units-skipped={skipped}"
        );
        shard_ok = dispatched > 0 && dispatched == completed + failed + cancelled;
        let _ = writeln!(
            out,
            "invariant shard fates reconcile (dispatched == completed + failed + cancelled): {}",
            verdict(shard_ok)
        );
    }
    out.push_str(&durable_lines);
    out.push_str(&slo_lines);
    let _ = writeln!(
        out,
        "invariant submitted == admitted + shed: {}",
        verdict(identity_ok)
    );
    let _ = writeln!(
        out,
        "invariant every admitted request resolved exactly once: {}",
        verdict(resolution_ok)
    );
    if args.slo {
        let _ = writeln!(
            out,
            "invariant slo burn rates reconcile with fate counters: {}",
            verdict(slo_ok)
        );
    }
    if !(identity_ok && resolution_ok && durable_ok && slo_ok && shard_ok) {
        return Err(CliError::Io(format!("serve-sim invariant violated\n{out}")));
    }
    Ok(out)
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

    #[test]
    fn parse_chaos_mode() {
        match parse(&argv("serve-sim --chaos shard-kill")).unwrap() {
            Command::ServeSim {
                chaos, chaos_mode, ..
            } => {
                assert!(chaos, "a mode still implies --chaos");
                assert_eq!(chaos_mode.as_deref(), Some("shard-kill"));
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("serve-sim --chaos --slo")).unwrap() {
            Command::ServeSim {
                chaos, chaos_mode, ..
            } => {
                assert!(chaos);
                assert_eq!(chaos_mode, None, "a following flag is not a mode");
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("serve-sim --chaos shard-nuke")),
            Err(CliError::Usage(_))
        ));
        // Shard chaos reconfigures the engine at construction; the
        // durable ingest path builds its own, so the combination is
        // rejected up front.
        assert!(matches!(
            execute(Command::ServeSim {
                qps: 10,
                duration_ms: 100,
                workers: 1,
                queue: 4,
                communities: 2,
                scale: 10,
                eps: 1,
                seed: 1,
                deadline_ms: 0,
                chaos: true,
                chaos_mode: Some("shard-kill".into()),
                metrics_out: None,
                durable: true,
                durable_dir: None,
                crash_after: None,
                fsync: csj_durability::FsyncPolicy::Always,
                slo: false,
            }),
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
    fn parse_serve_sim_defaults_and_flags() {
        match parse(&argv("serve-sim")).unwrap() {
            Command::ServeSim {
                qps,
                duration_ms,
                workers,
                queue,
                communities,
                deadline_ms,
                chaos,
                metrics_out,
                ..
            } => {
                assert_eq!(qps, 100);
                assert_eq!(duration_ms, 2_000);
                assert_eq!(workers, 2);
                assert_eq!(queue, 8);
                assert_eq!(communities, 6);
                assert_eq!(deadline_ms, 100);
                assert!(!chaos);
                assert_eq!(metrics_out, None);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv(
            "serve-sim --qps 300 --duration-ms 500 --workers 1 --queue 2 --communities 3 \
             --scale 50 --eps 2 --seed 9 --deadline-ms 0 --chaos --metrics-out /tmp/m.prom",
        ))
        .unwrap()
        {
            Command::ServeSim {
                qps,
                duration_ms,
                workers,
                queue,
                communities,
                scale,
                eps,
                seed,
                deadline_ms,
                chaos,
                chaos_mode,
                metrics_out,
                durable,
                durable_dir,
                crash_after,
                fsync,
                slo,
            } => {
                assert_eq!(qps, 300);
                assert_eq!(chaos_mode, None, "bare --chaos has no mode");
                assert!(!durable);
                assert!(!slo, "--slo defaults off");
                assert_eq!(durable_dir, None);
                assert_eq!(crash_after, None);
                assert_eq!(fsync, csj_durability::FsyncPolicy::Always);
                assert_eq!(duration_ms, 500);
                assert_eq!(workers, 1);
                assert_eq!(queue, 2);
                assert_eq!(communities, 3);
                assert_eq!(scale, 50);
                assert_eq!(eps, 2);
                assert_eq!(seed, 9);
                assert_eq!(deadline_ms, 0);
                assert!(chaos);
                assert_eq!(metrics_out, Some(PathBuf::from("/tmp/m.prom")));
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("serve-sim --communities 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("serve-sim --qps 0")),
            Err(CliError::Usage(_))
        ));
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

    /// One token of the `key=value` soak report, parsed as a number.
    fn report_field(out: &str, key: &str) -> u64 {
        out.split_whitespace()
            .filter_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .find_map(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no numeric field {key}= in report:\n{out}"))
    }

    #[test]
    fn serve_sim_smoke_upholds_the_invariants() {
        let out = execute(Command::ServeSim {
            qps: 40,
            duration_ms: 500,
            workers: 2,
            queue: 16,
            communities: 3,
            scale: 60,
            eps: 1,
            seed: 7,
            deadline_ms: 250,
            chaos: false,
            chaos_mode: None,
            metrics_out: None,
            durable: false,
            durable_dir: None,
            crash_after: None,
            fsync: csj_durability::FsyncPolicy::Always,
            slo: false,
        })
        .unwrap();
        assert_eq!(report_field(&out, "submitted"), 20, "{out}");
        assert_eq!(report_field(&out, "panics-escaped"), 0, "{out}");
        assert!(
            out.contains("invariant submitted == admitted + shed: ok"),
            "{out}"
        );
        assert!(
            out.contains("invariant every admitted request resolved exactly once: ok"),
            "{out}"
        );
        assert_eq!(
            report_field(&out, "submitted"),
            report_field(&out, "admitted") + report_field(&out, "shed"),
            "{out}"
        );
    }

    #[test]
    fn parse_durable_flags() {
        match parse(&argv(
            "serve-sim --durable --durable-dir /tmp/d --fsync interval:8",
        ))
        .unwrap()
        {
            Command::ServeSim {
                durable,
                durable_dir,
                fsync,
                crash_after,
                ..
            } => {
                assert!(durable);
                assert_eq!(durable_dir, Some(PathBuf::from("/tmp/d")));
                assert_eq!(fsync, csj_durability::FsyncPolicy::Interval(8));
                assert_eq!(crash_after, None);
            }
            other => panic!("parsed {other:?}"),
        }
        // --durable-dir / --crash-after imply --durable.
        match parse(&argv("serve-sim --crash-after 4096")).unwrap() {
            Command::ServeSim {
                durable,
                crash_after,
                ..
            } => {
                assert!(durable);
                assert_eq!(crash_after, Some(4096));
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(matches!(
            parse(&argv("serve-sim --fsync sometimes")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("serve-sim --fsync interval:x")),
            Err(CliError::Usage(_))
        ));
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

    #[test]
    fn serve_sim_durable_converges_and_snapshot_recover_roundtrip() {
        let dir = std::env::temp_dir().join(format!("csj_cli_durable_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = execute(Command::ServeSim {
            qps: 40,
            duration_ms: 300,
            workers: 2,
            queue: 16,
            communities: 3,
            scale: 40,
            eps: 1,
            seed: 11,
            deadline_ms: 250,
            chaos: false,
            chaos_mode: None,
            metrics_out: Some(dir.join("metrics.prom")),
            durable: true,
            durable_dir: Some(dir.join("reg")),
            crash_after: None,
            fsync: csj_durability::FsyncPolicy::Always,
            slo: false,
        })
        .unwrap();
        assert!(out.contains("durable-converged=ok"), "{out}");
        assert!(out.contains("durable-final-recovery-converged=ok"), "{out}");
        assert!(out.contains("durable-snapshot: seq="), "{out}");
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("csj_wal_appends_total"), "{prom}");
        assert!(prom.contains("csj_recovery_replayed_total"), "{prom}");
        assert!(prom.contains("csj_service_submitted_total"), "{prom}");

        // The registry directory persists: snapshot + verified recovery
        // keep working against it.
        let snap_msg = execute(Command::Snapshot {
            dir: dir.join("reg"),
        })
        .unwrap();
        assert!(snap_msg.contains("snapshot:"), "{snap_msg}");
        let rec = execute(Command::Recover {
            dir: dir.join("reg"),
            verify: true,
        })
        .unwrap();
        assert!(rec.contains("verify: ok"), "{rec}");
        assert!(rec.contains("communities=3"), "{rec}");
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

    #[cfg(feature = "chaos")]
    #[test]
    fn serve_sim_crash_after_still_converges() {
        let dir =
            std::env::temp_dir().join(format!("csj_cli_crash_after_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = execute(Command::ServeSim {
            qps: 40,
            duration_ms: 300,
            workers: 2,
            queue: 16,
            communities: 3,
            scale: 40,
            eps: 1,
            seed: 13,
            deadline_ms: 250,
            chaos: false,
            chaos_mode: None,
            metrics_out: None,
            durable: true,
            durable_dir: Some(dir.join("reg")),
            crash_after: Some(2_000),
            fsync: csj_durability::FsyncPolicy::Always,
            slo: false,
        })
        .unwrap();
        assert!(out.contains("durable-crash: injected"), "{out}");
        assert!(out.contains("durable-converged=ok"), "{out}");
        assert!(out.contains("durable-final-recovery-converged=ok"), "{out}");
        let rec = execute(Command::Recover {
            dir: dir.join("reg"),
            verify: true,
        })
        .unwrap();
        assert!(rec.contains("verify: ok"), "{rec}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(not(feature = "chaos"))]
    #[test]
    fn crash_after_without_chaos_feature_is_an_error() {
        let err = execute(Command::ServeSim {
            qps: 10,
            duration_ms: 100,
            workers: 1,
            queue: 4,
            communities: 2,
            scale: 10,
            eps: 1,
            seed: 1,
            deadline_ms: 0,
            chaos: false,
            chaos_mode: None,
            metrics_out: None,
            durable: true,
            durable_dir: None,
            crash_after: Some(100),
            fsync: csj_durability::FsyncPolicy::Always,
            slo: false,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
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

    /// The full chaos soak: fault injection makes the service shed,
    /// degrade, trip the exact breaker and recover — all while the
    /// resolution invariants hold. Mirrors the CI soak step.
    #[cfg(feature = "chaos")]
    #[test]
    fn serve_sim_chaos_sheds_degrades_and_recovers_the_breaker() {
        let metrics = std::env::temp_dir().join("csj_cli_serve_sim_chaos.prom");
        let out = execute(Command::ServeSim {
            qps: 150,
            duration_ms: 1_500,
            workers: 2,
            queue: 4,
            communities: 5,
            scale: 120,
            eps: 1,
            seed: 11,
            deadline_ms: 100,
            chaos: true,
            chaos_mode: None,
            metrics_out: Some(metrics.clone()),
            durable: false,
            durable_dir: None,
            crash_after: None,
            fsync: csj_durability::FsyncPolicy::Always,
            slo: false,
        })
        .unwrap();
        assert!(report_field(&out, "shed") > 0, "{out}");
        assert!(report_field(&out, "degraded") > 0, "{out}");
        assert!(report_field(&out, "open") >= 1, "breaker must trip: {out}");
        assert!(
            report_field(&out, "closed") >= 1,
            "breaker must recover: {out}"
        );
        assert_eq!(report_field(&out, "panics-escaped"), 0, "{out}");
        assert!(
            out.contains("invariant submitted == admitted + shed: ok"),
            "{out}"
        );
        assert!(
            out.contains("invariant every admitted request resolved exactly once: ok"),
            "{out}"
        );
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("csj_service_shed_total"), "{prom}");
        assert!(
            prom.contains("csj_service_breaker_transitions_total"),
            "{prom}"
        );
    }

    /// Shard-kill chaos: one shard of every sharded request dies, the
    /// rest of the query survives. Correctness degrades to *coverage*,
    /// never to wrong answers or escaped panics. Mirrors the CI shard
    /// soak step.
    #[cfg(feature = "chaos")]
    #[test]
    fn serve_sim_shard_kill_degrades_coverage_not_correctness() {
        let metrics = std::env::temp_dir().join("csj_cli_serve_sim_shard_kill.prom");
        let out = execute(Command::ServeSim {
            qps: 100,
            duration_ms: 1_000,
            workers: 2,
            queue: 32,
            communities: 6,
            scale: 60,
            eps: 1,
            seed: 23,
            deadline_ms: 250,
            chaos: true,
            chaos_mode: Some("shard-kill".into()),
            metrics_out: Some(metrics.clone()),
            durable: false,
            durable_dir: None,
            crash_after: None,
            fsync: csj_durability::FsyncPolicy::Always,
            slo: false,
        })
        .unwrap();
        assert_eq!(report_field(&out, "panics-escaped"), 0, "{out}");
        assert!(report_field(&out, "dispatched") > 0, "{out}");
        // The attacked shard fails every sharded request: completeness
        // is lost (completed < dispatched) and the service surfaces it
        // through the coverage degradation trigger.
        assert!(
            report_field(&out, "completed") < report_field(&out, "dispatched"),
            "{out}"
        );
        assert!(report_field(&out, "coverage") > 0, "{out}");
        assert!(
            out.contains(
                "invariant shard fates reconcile \
                 (dispatched == completed + failed + cancelled): ok"
            ),
            "{out}"
        );
        assert!(
            out.contains("invariant every admitted request resolved exactly once: ok"),
            "{out}"
        );
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("csj_shard_dispatched_total"), "{prom}");
        assert!(
            prom.contains("csj_shard_outcomes_total{fate=\"failed\"}"),
            "{prom}"
        );
    }

    /// Shard-stall chaos: shard 0 stalls past every multi-pair
    /// request's deadline. The stall costs completeness (skipped units,
    /// deadline degradations) and the soak still drains, with every
    /// shard fate accounted for. Mirrors the CI shard-stall soak step.
    #[cfg(feature = "chaos")]
    #[test]
    fn serve_sim_shard_stall_costs_coverage_not_liveness() {
        let out = execute(Command::ServeSim {
            qps: 100,
            duration_ms: 1_000,
            workers: 2,
            queue: 32,
            communities: 6,
            scale: 60,
            eps: 1,
            seed: 29,
            deadline_ms: 250,
            chaos: true,
            chaos_mode: Some("shard-stall".into()),
            metrics_out: None,
            durable: false,
            durable_dir: None,
            crash_after: None,
            fsync: csj_durability::FsyncPolicy::Always,
            slo: false,
        })
        .unwrap();
        assert_eq!(report_field(&out, "panics-escaped"), 0, "{out}");
        assert!(report_field(&out, "units-skipped") > 0, "{out}");
        assert!(report_field(&out, "deadline") > 0, "{out}");
        assert!(
            out.contains(
                "invariant shard fates reconcile \
                 (dispatched == completed + failed + cancelled): ok"
            ),
            "{out}"
        );
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
        match parse(&argv("serve-sim --slo")).unwrap() {
            Command::ServeSim { slo, .. } => assert!(slo),
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
        let text = execute(Command::Slo {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            threshold: 0.0,
            deadline_ms: None,
            max_joins: Some(0),
            json: false,
            quarantine: false,
        })
        .unwrap();
        assert!(text.contains("slo exhausted_fraction/5m: burn"), "{text}");
        assert!(text.contains("slo join_latency/1h: burn"), "{text}");
        assert!(text.contains("BREACHED"), "{text}");
        assert!(text.contains("objectives=2 windows=2 breached="), "{text}");

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
        assert!(
            json.contains("\"objective\":\"exhausted_fraction\""),
            "{json}"
        );
        assert!(json.contains("\"breached\":true"), "{json}");
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
            prom.contains("csj_slo_burn_rate{objective=\"join_latency\",window=\"5m\"}"),
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
            via.contains("csj_slo_burn_rate{objective=\"shed_fraction\",window=\"1h\"}"),
            "{via}"
        );
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

    #[test]
    fn serve_sim_slo_self_check_passes() {
        let metrics =
            std::env::temp_dir().join(format!("csj_cli_serve_sim_slo_{}.prom", std::process::id()));
        let out = execute(Command::ServeSim {
            qps: 40,
            duration_ms: 500,
            workers: 2,
            queue: 16,
            communities: 3,
            scale: 60,
            eps: 1,
            seed: 7,
            deadline_ms: 250,
            chaos: false,
            chaos_mode: None,
            metrics_out: Some(metrics.clone()),
            durable: false,
            durable_dir: None,
            crash_after: None,
            fsync: csj_durability::FsyncPolicy::Always,
            slo: true,
        })
        .unwrap();
        assert!(out.contains("slo request_latency/5m: burn"), "{out}");
        assert!(out.contains("slo degraded_fraction/"), "{out}");
        assert!(out.contains("slo shed_fraction/"), "{out}");
        assert!(
            out.contains("invariant slo burn rates reconcile with fate counters: ok"),
            "{out}"
        );
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            prom.contains("csj_slo_burn_rate{objective=\"request_latency\""),
            "{prom}"
        );
        assert!(prom.contains("csj_service_submitted_total"), "{prom}");
        std::fs::remove_file(&metrics).unwrap();
    }
}
