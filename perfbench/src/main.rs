//! `csj-perfbench --workload <couples|partner> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Durable
//! state and span files go under `.bench_out/` in the working directory.

use std::path::PathBuf;
use std::process::ExitCode;

use csj_perfbench::{report::result_json, run, Sizes};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let work_dir = out.join(format!("work-{}-{}", args.workload, std::process::id()));
    let span_file = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Sizes::full(),
        work_dir,
        args.trace.then_some(span_file),
    ) {
        Ok(r) => {
            println!(
                "workload {} seed {} seconds {} trace {} | available_parallelism {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                std::thread::available_parallelism().map_or(1, |p| p.get())
            );
            for note in &r.notes {
                println!("{note}");
            }
            println!(
                "{}",
                result_json(r.correct, r.attempted, r.failed, &r.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
