//! The diffaudit benchmark.
//!
//! ```text
//! perfbench --diffaudit PATH --workload audit-full|audit-pcap|serve-jobs
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the real `diffaudit` binary over a corpus generated from `--seed`
//! and prints, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured with no tracing; with `--trace 1` they are
//! the per-layer ones, from a separate run in which the benchmark calls
//! each layer itself and records its own spans. Every file it makes lives
//! under `.bench_work/` (removed at exit) and `.bench_spans/` in the
//! current directory. `perfbench/README.md` explains the workloads and
//! metrics.

mod child;
mod corpus;
mod layers;
mod report;
mod serve;
mod workload;

use report::{result_line, Metrics, Tally};
use std::path::PathBuf;
use std::process::ExitCode;

/// Every end-to-end metric, with its unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("audit_wall_s", "s"),
    ("audit_wall_t1_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// What every workload needs to know.
pub struct Env {
    /// The `diffaudit` binary under test.
    pub diffaudit: PathBuf,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
    /// Where the traced run writes its span file.
    pub spans: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Threads, clients and daemon workers the benchmark may use.
    pub nproc: usize,
}

struct Args {
    diffaudit: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut diffaudit = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--diffaudit" => diffaudit = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        diffaudit: diffaudit.ok_or("--diffaudit is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.diffaudit.is_file() {
        eprintln!(
            "perfbench: no diffaudit binary at {}",
            args.diffaudit.display()
        );
        return ExitCode::from(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        diffaudit: args.diffaudit,
        work: PathBuf::from(".bench_work").join(&args.workload),
        spans: PathBuf::from(".bench_spans"),
        seed: args.seed,
        seconds: args.seconds,
        nproc,
    };
    let _ = std::fs::remove_dir_all(&env.work);
    if let Err(e) = std::fs::create_dir_all(&env.work) {
        eprintln!("perfbench: {}: {e}", env.work.display());
        return ExitCode::from(1);
    }
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let names: &[(&'static str, &'static str)] = if args.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    for (name, unit) in names {
        metrics.set(name, 0.0, unit);
    }
    let ran = match (args.workload.as_str(), args.trace) {
        ("audit-full", false) => workload::audit(&env, false, &mut tally, &mut metrics),
        ("audit-pcap", false) => workload::audit(&env, true, &mut tally, &mut metrics),
        ("audit-full", true) => workload::audit_traced(&env, false, &mut tally, &mut metrics),
        ("audit-pcap", true) => workload::audit_traced(&env, true, &mut tally, &mut metrics),
        ("serve-jobs", trace) => serve::serve_jobs(&env, trace, &mut tally, &mut metrics),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&env.work);
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    if args.trace {
        metrics.set("failed_frac", tally.failed_frac(), "ratio");
    }
    eprintln!(
        "perfbench: {} seed {} trace {} on {nproc} CPUs: {} of {} operations failed",
        args.workload,
        env.seed,
        u8::from(args.trace),
        tally.failed,
        tally.attempted
    );
    for note in &tally.notes {
        eprintln!("  failed: {note}");
    }
    for (name, value, unit) in metrics.iter() {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}
