//! `tables` — regenerate the paper's evaluation tables.
//!
//! ```text
//! cargo run -p csj-bench --release --bin tables -- all --scale 32
//! cargo run -p csj-bench --release --bin tables -- table4 table8
//! ```
//!
//! Writes Markdown and JSON per table under `EXPERIMENTS-data/` (created
//! next to the current directory) and prints the Markdown to stdout.
//! The directory's `index.md` is kept by hand; no run rewrites it.

use std::path::PathBuf;

use csj_bench::runner::RunConfig;
use csj_bench::tables;

fn usage() -> ! {
    eprintln!(
        "usage: tables [--scale N] [--seed S] [--out DIR] <table1|table2|...|table11|all>..."
    );
    std::process::exit(2)
}

fn main() {
    let mut cfg = RunConfig::default();
    let mut out_dir = PathBuf::from("EXPERIMENTS-data");
    let mut wanted: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                cfg.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if cfg.scale == 0 {
                    usage();
                }
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                out_dir = args.next().map(PathBuf::from).unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            name => wanted.push(name.to_string()),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = (1..=11).map(|i| format!("table{i}")).collect();
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");

    for name in &wanted {
        let started = std::time::Instant::now();
        eprintln!(
            "[tables] running {name} (scale 1/{}, seed {:#x})...",
            cfg.scale, cfg.seed
        );
        let (markdown, json) = match name.as_str() {
            "table1" => (tables::table1(cfg), None),
            "table2" => (tables::table2(), None),
            "table11" => {
                let report = tables::table11(cfg);
                (report.to_markdown(), Some(report.to_json()))
            }
            "crossover" => {
                let report = tables::crossover(cfg);
                (report.to_markdown(), Some(report.to_json()))
            }
            "dsweep" => {
                let report = tables::dsweep(cfg);
                (report.to_markdown(), Some(report.to_json()))
            }
            "epsweep" => {
                let report = tables::epsweep(cfg);
                (report.to_markdown(), Some(report.to_json()))
            }
            other => {
                let number: u8 = other
                    .strip_prefix("table")
                    .and_then(|n| n.parse().ok())
                    .filter(|n| (3..=10).contains(n))
                    .unwrap_or_else(|| usage());
                let report = tables::couple_table(number, cfg);
                (report.to_markdown(), Some(report.to_json()))
            }
        };
        println!("{markdown}");
        // Atomic writes: a run killed mid-write leaves the previous
        // report intact, never a torn artifact.
        let md_path = out_dir.join(format!("{name}.md"));
        csj_bench::report::write_report_atomic(&md_path, &markdown).expect("write markdown report");
        if let Some(json) = json {
            let json_path = out_dir.join(format!("{name}.json"));
            csj_bench::report::write_report_atomic(&json_path, &json).expect("write json report");
        }
        eprintln!(
            "[tables] {name} done in {:.1} s -> {}",
            started.elapsed().as_secs_f64(),
            md_path.display()
        );
    }
}
