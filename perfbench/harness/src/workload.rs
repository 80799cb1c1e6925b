//! The CLI workloads, `audit-full` and `audit-pcap`, and the pieces the
//! daemon workload shares with them: timed `diffaudit audit` runs checked
//! against a reference, and the traced run.

use crate::child;
use crate::corpus;
use crate::layers;
use crate::report::{median, quantile, ratio, tail_percentile, Metrics, Outcome, Tally};
use crate::Env;
use diffaudit_json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Fewest (`--threads nproc`, `--threads 1`) audit pairs a run times.
const MIN_PAIRS: usize = 3;

fn audit_args(dirs: &[PathBuf], threads: usize, json: bool) -> Vec<String> {
    let mut args = vec!["audit".to_string()];
    args.extend(dirs.iter().map(|d| d.display().to_string()));
    args.extend(["--threads".to_string(), threads.to_string()]);
    if json {
        args.extend(["--format".to_string(), "json".to_string()]);
    }
    args
}

/// Run one audit and tally it: it must exit 0 and, when a reference is
/// given, print exactly the reference.
pub fn audit_once(
    env: &Env,
    dirs: &[PathBuf],
    threads: usize,
    json: bool,
    reference: Option<&[u8]>,
    tally: &mut Tally,
) -> Result<child::Run, String> {
    let run = child::run(
        &env.diffaudit,
        &audit_args(dirs, threads, json),
        Path::new("."),
    )
    .map_err(|e| format!("cannot run diffaudit audit: {e}"))?;
    let outcome = if run.exit_code != Some(0) {
        Outcome::NonZeroExit(run.exit_code)
    } else if reference.is_some_and(|r| r != run.stdout.as_slice()) {
        Outcome::Mismatch("stdout differs from the --threads 1 reference".into())
    } else {
        Outcome::Ok
    };
    tally.record(&format!("audit --threads {threads}"), outcome);
    Ok(run)
}

/// The untimed warm-up: a `--threads 1` audit whose stdout is the
/// reference every later run must reproduce. It also leaves the corpus in
/// the page cache.
pub fn reference(env: &Env, dirs: &[PathBuf], tally: &mut Tally) -> Result<Vec<u8>, String> {
    let run = audit_once(env, dirs, 1, false, None, tally)?;
    if run.exit_code != Some(0) {
        return Err(format!("reference audit exited with {:?}", run.exit_code));
    }
    Ok(run.stdout)
}

/// Timed audits at `--threads nproc` and `--threads 1`.
#[derive(Default)]
pub struct AuditSamples {
    pub wall_n: Vec<f64>,
    pub wall_1: Vec<f64>,
    pub cpu_ms_n: Vec<f64>,
    pub rss_mib_n: Vec<f64>,
}

/// Time audit pairs, alternating which thread count goes first, until at
/// least `min_pairs` pairs ran and another pair would end, on average, more
/// than half a pair past `budget_s`. Samples add to `samples`.
pub fn time_audits(
    env: &Env,
    dirs: &[PathBuf],
    reference: &[u8],
    (budget_s, min_pairs): (f64, usize),
    samples: &mut AuditSamples,
    tally: &mut Tally,
) -> Result<(), String> {
    let started = Instant::now();
    let mut pair = 0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let mean_pair = if pair > 0 { elapsed / pair as f64 } else { 0.0 };
        if pair >= min_pairs && elapsed + mean_pair / 2.0 >= budget_s {
            break;
        }
        let order = if pair % 2 == 0 {
            [env.nproc, 1]
        } else {
            [1, env.nproc]
        };
        for threads in order {
            let run = audit_once(env, dirs, threads, false, Some(reference), tally)?;
            if threads == 1 {
                samples.wall_1.push(run.wall_s);
            }
            // On a one-CPU machine both runs of a pair are serial runs.
            if threads == env.nproc {
                samples.wall_n.push(run.wall_s);
                samples.cpu_ms_n.push(run.cpu_ms);
                samples.rss_mib_n.push(run.peak_rss_mib);
            }
        }
        pair += 1;
    }
    eprintln!(
        "perfbench: audit wall s at --threads {}: {:?}; at --threads 1: {:?}",
        env.nproc, samples.wall_n, samples.wall_1
    );
    Ok(())
}

/// Generate the corpus `SETUP_REPS` times (pcap-only manifests for
/// `audit-pcap`), checking each regeneration against the first. Returns
/// the first corpus and the setup times.
fn setup_corpus(
    env: &Env,
    pcap_only: bool,
    reps: usize,
    tally: &mut Tally,
) -> Result<(PathBuf, Vec<f64>), String> {
    let first = env.work.join("corpus-0");
    let mut times = Vec::new();
    for rep in 0..reps {
        let out = env.work.join(format!("corpus-{rep}"));
        let started = Instant::now();
        corpus::generate(env, &out, "1.0")?;
        if pcap_only {
            for dir in corpus::service_dirs(&out)? {
                corpus::keep_only_pcap_units(&dir)?;
            }
        }
        times.push(started.elapsed().as_secs_f64());
        if rep > 0 {
            corpus::check_same_corpus(&first, &out, tally);
            let _ = std::fs::remove_dir_all(&out);
        }
    }
    corpus::sync(&first)?;
    Ok((first, times))
}

/// `audit-full` / `audit-pcap` with tracing off: the end-to-end metrics.
pub fn audit(env: &Env, pcap_only: bool, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let (corpus, setup) = setup_corpus(env, pcap_only, SETUP_REPS, tally)?;
    let dirs = corpus::service_dirs(&corpus)?;
    let reference = reference(env, &dirs, tally)?;
    let mut s = AuditSamples::default();
    time_audits(
        env,
        &dirs,
        &reference,
        (env.seconds, MIN_PAIRS),
        &mut s,
        tally,
    )?;
    m.set("setup_s", median(&setup), "s");
    m.set("audit_wall_s", median(&s.wall_n), "s");
    m.set("audit_wall_t1_s", median(&s.wall_1), "s");
    // A mean: `/proc` counts CPU in 10 ms ticks, too coarse for a median.
    m.set(
        "cpu_ms_per_op",
        ratio(s.cpu_ms_n.iter().sum(), s.cpu_ms_n.len() as f64),
        "ms",
    );
    m.set("peak_rss_mib", median(&s.rss_mib_n), "MiB");
    // A job of the CLI workloads is one `--threads nproc` audit.
    let job_ms: Vec<f64> = s.wall_n.iter().map(|w| w * 1e3).collect();
    m.set("job_p50_ms", median(&job_ms), "ms");
    // The tail is reported at the highest percentile with ten samples
    // beyond it; a run makes too few audits for any above the median.
    let tail = tail_percentile(job_ms.len()).unwrap_or(0.5);
    m.set("job_p90_ms", quantile(&job_ms, tail), "ms");
    m.set(
        "jobs_per_s",
        ratio(s.wall_n.len() as f64, s.wall_n.iter().sum()),
        "1/s",
    );
    Ok(())
}

/// `audit-full` / `audit-pcap` traced: the per-layer metrics.
pub fn audit_traced(
    env: &Env,
    pcap_only: bool,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let (corpus, _) = setup_corpus(env, pcap_only, 1, tally)?;
    let dirs = corpus::service_dirs(&corpus)?;
    let name = if pcap_only {
        "audit-pcap"
    } else {
        "audit-full"
    };
    traced(env, name, &dirs, tally, m)
}

/// The traced run over `dirs`, with its checks: one untraced `--threads 1`
/// audit as the base for the tracing overhead, a JSON audit for the CLI's
/// `uniqueRawKeys`, then every layer called in turn. The traced run's own
/// render must equal the CLI's stdout and its unique keys `uniqueRawKeys`.
pub fn traced(
    env: &Env,
    workload: &str,
    dirs: &[PathBuf],
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let reference = reference(env, dirs, tally)?;
    let base = audit_once(env, dirs, 1, false, Some(&reference), tally)?;
    let json = audit_once(env, dirs, env.nproc, true, None, tally)?;
    let unique_raw_keys = std::str::from_utf8(&json.stdout)
        .ok()
        .and_then(|text| diffaudit_json::parse(text).ok())
        .and_then(|doc| doc.get("uniqueRawKeys").and_then(Json::as_i64));

    let started = Instant::now();
    let traced = layers::traced_run(dirs, &env.work.join("trace-cache"), tally)?;
    let wall = started.elapsed().as_secs_f64();
    tally.check(
        "traced render equals the CLI's stdout",
        traced.rendered.as_bytes() == reference.as_slice(),
    );
    tally.check(
        "keys.unique equals the CLI's uniqueRawKeys",
        unique_raw_keys == Some(traced.unique_keys as i64),
    );
    std::fs::create_dir_all(&env.spans).map_err(|e| format!("{}: {e}", env.spans.display()))?;
    let span_file = env.spans.join(format!("{workload}-seed{}.jsonl", env.seed));
    traced
        .tracer
        .write_jsonl(&span_file)
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    layers::layer_metrics(&traced.tracer, m);
    m.set("trace.wall_s", wall, "s");
    m.set(
        "trace.overhead_frac",
        ratio(traced.cli_path_s - base.wall_s, base.wall_s),
        "ratio",
    );
    Ok(())
}
