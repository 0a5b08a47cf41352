//! The metric catalog and the live registries agree: every series the
//! engine, service, durability layer and SLO gauges export belongs to a family declared in `csj_obs::catalog` with the
//! same kind and label keys, and every declared family is exported.
//! Their merged Prometheus exposition, and what `csj stats` prints, is
//! well-formed text format 0.0.4.

use csj_core::Community;
use csj_durability::{DurabilityConfig, DurableEngine};
use csj_engine::{engine_slos, CsjEngine, EngineConfig, ShardFate};
use csj_obs::{catalog, slo, Kind, MetricsSnapshot};
use csj_service::{service_slos, CsjService, Request, ServiceConfig};

fn community(name: &str, rows: &[[u32; 2]]) -> Community {
    Community::from_rows(
        name,
        2,
        rows.iter().enumerate().map(|(i, v)| (i as u64, v.to_vec())),
    )
    .expect("well-formed")
}

/// Every registry's series in one snapshot: a service whose engine
/// served each request kind, a durable engine and the SLO gauges of
/// both presets.
fn merged_snapshot(tag: &str) -> MetricsSnapshot {
    let mut engine = CsjEngine::new(2, EngineConfig::new(1));
    let a = engine
        .register(community("a", &[[1, 1], [5, 5], [9, 9]]))
        .unwrap();
    let b = engine
        .register(community("b", &[[1, 2], [5, 5], [40, 40]]))
        .unwrap();
    let service = CsjService::start(engine, ServiceConfig::default());
    for request in [
        Request::Similarity {
            x: a,
            y: b,
            method: None,
        },
        Request::TopK { x: a, k: 1 },
        Request::PairsAbove {
            threshold: 0.0,
            resume: None,
        },
    ] {
        service.call(request).unwrap();
    }

    let dir = std::env::temp_dir().join(format!("csj_catalog_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable =
        DurableEngine::open(&dir, 2, EngineConfig::new(1), DurabilityConfig::default()).unwrap();
    durable.register(community("c", &[[3, 3]])).unwrap();

    let objectives: Vec<_> = engine_slos()
        .into_iter()
        .chain(service_slos(250_000))
        .collect();
    let mut snap = service.metrics_snapshot();
    let statuses = slo::evaluate(&objectives, &snap);
    snap.metrics.extend(durable.metrics_snapshot().metrics);
    snap.metrics.extend(slo::gauges(&statuses).metrics);
    std::fs::remove_dir_all(&dir).unwrap();
    snap
}

#[test]
fn catalog_and_registries_agree() {
    let snap = merged_snapshot("agree");
    for m in &snap.metrics {
        let family = catalog::ALL
            .iter()
            .find(|f| f.name == m.name)
            .unwrap_or_else(|| panic!("{} is not declared in the catalog", m.name));
        assert_eq!(Kind::of(&m.value), family.kind, "{}", m.name);
        let keys: Vec<&str> = m.labels.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, family.labels, "{}", m.name);
    }
    for family in catalog::ALL {
        assert!(
            snap.find(family.name, &[]).is_some(),
            "{} is declared but no registry exports it",
            family.name
        );
    }
}

/// Check a Prometheus 0.0.4 text exposition the way a scraper reads
/// it. Returns the number of metric families, or one message per
/// broken rule:
/// - every `# TYPE` follows a `# HELP` for the same family;
/// - each family is announced by one `# TYPE`;
/// - the type is counter, gauge, histogram, summary or untyped;
/// - every sample parses as `name{labels} value [timestamp]` with a
///   numeric value, and belongs to an announced family;
/// - every histogram has `_bucket` samples including `le="+Inf"`, plus
///   `_sum` and `_count`;
/// - at least one family is announced.
fn lint(exposition: &str) -> Result<usize, Vec<String>> {
    let mut errors = Vec::new();
    let mut helped: Vec<&str> = Vec::new();
    // (family, type, has +Inf bucket, has _sum, has _count)
    let mut families: Vec<(&str, &str, bool, bool, bool)> = Vec::new();
    for (n, line) in exposition.lines().enumerate() {
        let n = n + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.push(rest.split(' ').next().unwrap_or_default());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split(' ');
            let (name, kind) = (
                words.next().unwrap_or_default(),
                words.next().unwrap_or_default(),
            );
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                errors.push(format!("line {n}: unknown type {kind:?} for {name}"));
            }
            if !helped.contains(&name) {
                errors.push(format!(
                    "line {n}: # TYPE {name} without a preceding # HELP"
                ));
            }
            if families.iter().any(|f| f.0 == name) {
                errors.push(format!("line {n}: # TYPE {name} repeated"));
            } else {
                families.push((name, kind, false, false, false));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let name_len = line
            .char_indices()
            .find(|&(i, c)| {
                !(c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit()))
            })
            .map_or(line.len(), |(i, _)| i);
        if name_len == 0 {
            errors.push(format!("line {n}: unparseable sample {line:?}"));
            continue;
        }
        let (name, mut rest) = line.split_at(name_len);
        let mut labels = "";
        if let Some(inner) = rest.strip_prefix('{') {
            let Some(close) = label_set_end(inner) else {
                errors.push(format!("line {n}: unclosed label set {line:?}"));
                continue;
            };
            (labels, rest) = (&inner[..close], &inner[close + 1..]);
        }
        let mut fields = rest.split_whitespace();
        let value = fields.next().unwrap_or_default();
        let timestamp_ok = fields.next().is_none_or(|t| t.parse::<i64>().is_ok());
        if value.parse::<f64>().is_err() || !timestamp_ok || fields.next().is_some() {
            errors.push(format!("line {n}: non-numeric value {rest:?} for {name}"));
        }
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .filter(|base| families.iter().any(|f| f.0 == *base && f.1 == "histogram"));
        let Some(family) = families.iter_mut().find(|f| f.0 == base.unwrap_or(name)) else {
            errors.push(format!("line {n}: sample {name} has no # TYPE"));
            continue;
        };
        if base.is_some() {
            let suffix = &name[family.0.len()..];
            family.2 |= suffix == "_bucket" && labels.contains("le=\"+Inf\"");
            family.3 |= suffix == "_sum";
            family.4 |= suffix == "_count";
        }
    }
    for &(name, kind, inf, sum, count) in &families {
        if kind != "histogram" {
            continue;
        }
        for (present, what) in [
            (inf, "an le=\"+Inf\" bucket"),
            (sum, "_sum"),
            (count, "_count"),
        ] {
            if !present {
                errors.push(format!("histogram {name} has no {what}"));
            }
        }
    }
    if families.is_empty() {
        errors.push("empty exposition (no # TYPE lines)".into());
    }
    if errors.is_empty() {
        Ok(families.len())
    } else {
        Err(errors)
    }
}

/// Index of the `}` closing a label set, skipping quoted values.
fn label_set_end(inner: &str) -> Option<usize> {
    let (mut quoted, mut escaped) = (false, false);
    for (i, c) in inner.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            '}' if !quoted => return Some(i),
            _ => {}
        }
    }
    None
}

#[test]
fn merged_exposition_is_well_formed_and_carries_every_checked_family() {
    let prom = merged_snapshot("lint").to_prometheus();
    let families = lint(&prom).unwrap_or_else(|errors| panic!("{errors:#?}\n{prom}"));
    assert_eq!(families, catalog::ALL.len(), "{prom}");

    for name in [
        catalog::PLAN_SELECTED.name(),
        catalog::SERVICE_SUBMITTED.name(),
        catalog::WAL_APPENDS.name(),
        catalog::RECOVERY_REPLAYED.name(),
        catalog::SHARD_DISPATCHED.name(),
    ] {
        let sampled = prom
            .lines()
            .any(|l| l.split(['{', ' ']).next() == Some(name));
        assert!(sampled, "{name} has no sample:\n{prom}");
    }
    let expected = [
        format!(
            "{}{{fate=\"{}\"}} ",
            catalog::SHARD_OUTCOMES.name(),
            ShardFate::Failed.label()
        ),
        format!("# TYPE {} histogram", catalog::SHARD_LATENCY.name()),
        format!("# TYPE {} gauge", catalog::SLO_BURN_RATE.name()),
        format!(
            "{}{{objective=\"shed_fraction\"",
            catalog::SLO_BURN_RATE.name()
        ),
    ];
    for line in expected {
        assert!(prom.contains(&line), "{line} missing:\n{prom}");
    }
}

/// `csj stats --format prom`, alone and `--via-service`, prints an
/// exposition that lints clean.
#[test]
fn stats_expositions_lint_clean() {
    use csj_cli::{execute, Command, StatsFormat};
    let dir = std::env::temp_dir().join(format!("csj_catalog_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (b, a) = (dir.join("b.csjb"), dir.join("a.csjb"));
    execute(Command::Generate {
        dataset: csj_data::pairs::Dataset::VkLike,
        cid: 1,
        scale: 1024,
        seed: 7,
        out_b: b.clone(),
        out_a: a.clone(),
    })
    .unwrap();
    for via_service in [false, true] {
        let prom = execute(Command::Stats {
            communities: vec![b.clone(), a.clone()],
            eps: 1,
            threshold: 0.15,
            format: StatsFormat::Prometheus,
            via_service,
            quarantine: false,
        })
        .unwrap();
        if let Err(errors) = lint(&prom) {
            panic!("via_service={via_service}: {errors:#?}\n{prom}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_rejects_each_broken_rule() {
    let ok = "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n\
              # HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 0\n\
              h_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n\
              # HELP g G.\n# TYPE g gauge\ng{k=\"}\"} -Inf 1700000000\n";
    assert_eq!(lint(ok), Ok(3));

    let broken = [
        ("# TYPE a counter\na 1\n", "without a preceding # HELP"),
        (
            "# HELP a A.\n# TYPE a counter\n# HELP a A.\n# TYPE a counter\na 1\n",
            "repeated",
        ),
        ("# HELP a A.\n# TYPE a countr\na 1\n", "unknown type"),
        (
            "# HELP a A.\n# TYPE a counter\na one\n",
            "non-numeric value",
        ),
        (
            "# HELP a A.\n# TYPE a counter\n{k=\"v\"} 1\n",
            "unparseable sample",
        ),
        (
            "# HELP a A.\n# TYPE a counter\na{k=\"v\" 1\n",
            "unclosed label set",
        ),
        ("# HELP a A.\n# TYPE a counter\nb 1\n", "has no # TYPE"),
        (
            "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
            "le=\"+Inf\"",
        ),
        (
            "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
            "has no _sum",
        ),
        (
            "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
            "has no _count",
        ),
        ("", "empty exposition"),
    ];
    for (exposition, rule) in broken {
        let errors = lint(exposition).expect_err(rule);
        assert!(
            errors.iter().any(|e| e.contains(rule)),
            "{rule}: {errors:?}"
        );
    }
}
