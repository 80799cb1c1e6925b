//! The `serve-jobs` workload: one `diffaudit serve` daemon, every service
//! uploaded once, then `nproc` closed-loop clients submitting a fixed
//! number of audit jobs round-robin over the services.

use crate::child::{self, read_stat, read_vm_hwm_mib, ticks_to_ms};
use crate::corpus;
use crate::report::{median, quantile, ratio, tail_percentile, Metrics, Outcome, Tally};
use crate::workload::{self, AuditSamples, SETUP_REPS};
use crate::Env;
use diffaudit_json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Corpus scale of the daemon workload.
const SCALE: &str = "0.25";

/// Jobs each run submits after setup. Fixed, not a duration: the daemon
/// keeps every job's result, so a fixed time would let a faster program
/// retain more and read worse on RSS.
pub const JOBS: usize = 180;

/// The jobs go out in this many equal batches, with pairs of the batch-CLI
/// twin timed before, between and after them, so that the jobs and the
/// twin's samples both span the measured phase.
const BATCHES: usize = 4;

/// How long a client waits between status polls.
const POLL: Duration = Duration::from_millis(5);

/// Longest wait for one HTTP exchange or for the daemon to exit.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One blocking HTTP/1.1 exchange on its own connection.
fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream.set_read_timeout(Some(TIMEOUT)).map_err(fail)?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(fail)?;
    // Head and body go out in one write, as a typical client sends them.
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message).map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header terminator"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

fn json_field(body: &[u8], key: &str) -> Option<String> {
    let doc = diffaudit_json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get(key).and_then(Json::as_str).map(str::to_string)
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn boot(env: &Env, cache_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(&env.diffaudit)
            .arg("serve")
            .args(["--port", "0", "--workers", &env.nproc.to_string()])
            .args(["--queue", &env.nproc.max(4).to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(["--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start diffaudit serve: {e}"))?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut line);
        }
        match line.trim().strip_prefix("listening on http://") {
            Some(addr) => Ok(Daemon {
                addr: addr.to_string(),
                child,
            }),
            None => {
                child::reap(&mut child);
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    /// Drain the daemon and wait for it to exit; a drain that leaves
    /// orphaned jobs exits non-zero and counts as a failed operation.
    fn drain(mut self, tally: &mut Tally) -> Result<(), String> {
        let (status, _) = request(&self.addr, "POST", "/api/v1/shutdown", &[])?;
        if status != 202 {
            return Err(format!("shutdown returned {status}"));
        }
        let deadline = Instant::now() + TIMEOUT;
        let code = loop {
            match self.child.try_wait() {
                Ok(Some(exit)) => break exit.code(),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        };
        let outcome = if code == Some(0) {
            Outcome::Ok
        } else {
            Outcome::NonZeroExit(code)
        };
        tally.record("daemon drain", outcome);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        child::reap(&mut self.child);
    }
}

/// One service as uploaded: the job body that audits it.
struct Uploaded {
    job_body: String,
}

/// Upload every unit of the service in `dir` (with its key log), in
/// manifest order, timing each request.
fn upload(addr: &str, dir: &Path, upload_ms: &mut Vec<f64>) -> Result<Uploaded, String> {
    let manifest_path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let manifest =
        diffaudit_json::parse(&text).map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let units = manifest.get("units").and_then(Json::as_arr).unwrap_or(&[]);
    let mut ids = Vec::new();
    for unit in units {
        let field = |k: &str| unit.get(k).and_then(Json::as_str).unwrap_or("");
        let file = field("file");
        let body = std::fs::read(dir.join(file)).map_err(|e| format!("{file}: {e}"))?;
        let path = format!(
            "/api/v1/traces?label={file}&platform={}&kind={}&category={}",
            field("platform"),
            field("kind"),
            field("category")
        );
        let started = Instant::now();
        let (status, reply) = request(addr, "POST", &path, &body)?;
        upload_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let id = match (status, json_field(&reply, "traceId")) {
            (201, Some(id)) => id,
            _ => return Err(format!("upload of {file} returned {status}")),
        };
        if let Some(keylog) = unit.get("keylog").and_then(Json::as_str) {
            let keys = std::fs::read(dir.join(keylog)).map_err(|e| format!("{keylog}: {e}"))?;
            let started = Instant::now();
            let (status, _) = request(addr, "POST", &format!("/api/v1/traces/{id}/keylog"), &keys)?;
            upload_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if status != 200 {
                return Err(format!("key log of {file} returned {status}"));
            }
        }
        ids.push(Json::str(id));
    }
    let service = manifest
        .get("service")
        .cloned()
        .ok_or_else(|| format!("{}: no service", manifest_path.display()))?;
    let job_body = Json::obj()
        .with("service", service)
        .with("traces", Json::Arr(ids))
        .to_string();
    Ok(Uploaded { job_body })
}

/// One job as a client saw it.
#[derive(Default)]
struct JobSample {
    latency_ms: f64,
    submit_ms: f64,
    result_ms: f64,
    result_bytes: usize,
    polls: usize,
    /// Submissions the daemon shed with `429` before accepting this one.
    shed: usize,
    outcome: Option<Outcome>,
}

/// Submit one job, poll it to a terminal state, fetch its result, and
/// compare the result with `reference` (when given).
fn run_job(addr: &str, body: &str, reference: Option<&[u8]>) -> JobSample {
    let mut sample = JobSample::default();
    let started = Instant::now();
    let outcome = (|| -> Result<Outcome, String> {
        let job = loop {
            let submitted = Instant::now();
            let (status, reply) = request(addr, "POST", "/api/v1/jobs", body.as_bytes())?;
            sample.submit_ms = submitted.elapsed().as_secs_f64() * 1e3;
            match (status, json_field(&reply, "jobId")) {
                (202, Some(id)) => break id,
                (429, _) => {
                    sample.shed += 1;
                    std::thread::sleep(POLL);
                }
                _ => return Err(format!("submit returned {status}")),
            }
        };
        let state = loop {
            std::thread::sleep(POLL);
            sample.polls += 1;
            let (status, reply) = request(addr, "GET", &format!("/api/v1/jobs/{job}"), &[])?;
            let state = json_field(&reply, "state");
            match (status, state) {
                (200, Some(s)) if s == "queued" || s == "running" => {}
                (200, Some(s)) => break s,
                _ => return Err(format!("status poll returned {status}")),
            }
        };
        let fetched = Instant::now();
        let (status, result) = request(addr, "GET", &format!("/api/v1/jobs/{job}/result"), &[])?;
        sample.result_ms = fetched.elapsed().as_secs_f64() * 1e3;
        sample.result_bytes = result.len();
        Ok(if state != "clean" {
            Outcome::JobState(state)
        } else if status != 200 {
            Outcome::Error(format!("result returned {status}"))
        } else if reference.is_some_and(|r| r != result.as_slice()) {
            Outcome::Mismatch("job result differs from `diffaudit audit --format json`".into())
        } else {
            Outcome::Ok
        })
    })();
    sample.latency_ms = started.elapsed().as_secs_f64() * 1e3;
    sample.outcome = Some(outcome.unwrap_or_else(Outcome::Error));
    sample
}

fn tally_jobs(samples: &[JobSample], tally: &mut Tally) {
    for s in samples {
        for _ in 0..s.shed {
            tally.record("job submit", Outcome::Shed);
        }
        tally.record(
            "job",
            s.outcome
                .clone()
                .unwrap_or(Outcome::Error("no outcome".into())),
        );
    }
}

/// A booted daemon with the corpus uploaded and the cache filled.
struct Ready {
    daemon: Daemon,
    services: Vec<Uploaded>,
    setup_s: f64,
    upload_ms: Vec<f64>,
}

/// Generate, boot, upload, and run one job per service to fill the cache.
fn set_up(env: &Env, rep: usize, tally: &mut Tally) -> Result<(PathBuf, Ready), String> {
    let out = env.work.join(format!("corpus-{rep}"));
    let started = Instant::now();
    corpus::generate(env, &out, SCALE)?;
    let daemon = Daemon::boot(env, &env.work.join(format!("cache-{rep}")))?;
    let mut upload_ms = Vec::new();
    let services = corpus::service_dirs(&out)?
        .iter()
        .map(|dir| upload(&daemon.addr, dir, &mut upload_ms))
        .collect::<Result<Vec<_>, _>>()?;
    let fills: Vec<JobSample> = services
        .iter()
        .map(|s| run_job(&daemon.addr, &s.job_body, None))
        .collect();
    let setup_s = started.elapsed().as_secs_f64();
    tally_jobs(&fills, tally);
    Ok((
        out,
        Ready {
            daemon,
            services,
            setup_s,
            upload_ms,
        },
    ))
}

/// `diffaudit audit <service> --format json`, per service: what each job's
/// result must equal.
fn job_references(env: &Env, dirs: &[PathBuf], tally: &mut Tally) -> Result<Vec<Vec<u8>>, String> {
    dirs.iter()
        .map(|dir| {
            let run =
                workload::audit_once(env, std::slice::from_ref(dir), env.nproc, true, None, tally)?;
            Ok(run.stdout)
        })
        .collect()
}

/// Jobs `range` of the measured phase, shared by `nproc` closed-loop
/// clients. Job `i` audits service `i % services`.
fn run_batch(
    env: &Env,
    ready: &Ready,
    references: &[Vec<u8>],
    range: std::ops::Range<usize>,
) -> Vec<JobSample> {
    let next = AtomicUsize::new(range.start);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..env.nproc)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= range.end {
                            break mine;
                        }
                        let svc = i % ready.services.len();
                        mine.push(run_job(
                            &ready.daemon.addr,
                            &ready.services[svc].job_body,
                            Some(&references[svc]),
                        ));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap_or_default())
            .collect()
    })
}

/// What the measured phase saw of the daemon.
#[derive(Default)]
struct Phase {
    jobs: Vec<JobSample>,
    /// Wall time spent in job batches, excluding the twin's audits.
    jobs_wall_s: f64,
    /// The daemon's CPU milliseconds over the job batches.
    cpu_ms: f64,
}

/// The measured phase: `JOBS` jobs in `BATCHES` batches. Unless `twin` is
/// `None`, twin audit pairs run before, between and after the batches: one
/// pair at least in each slot, and the time `--seconds` leaves beyond the
/// batches still to run is shared evenly among the slots still to come.
fn measure(
    env: &Env,
    ready: &Ready,
    references: &[Vec<u8>],
    mut twin: Option<(&[PathBuf], &[u8], &mut AuditSamples)>,
    tally: &mut Tally,
) -> Result<Phase, String> {
    let pid = ready.daemon.child.id();
    let mut phase = Phase::default();
    let started = Instant::now();
    for slot in 0..=BATCHES {
        if let Some((dirs, reference, samples)) = twin.as_mut() {
            // Before the first batch no batch time is known: one pair.
            let budget = if slot == 0 {
                0.0
            } else {
                let left = (BATCHES - slot) as f64;
                let batch_s = phase.jobs_wall_s / slot as f64;
                let spare = env.seconds - started.elapsed().as_secs_f64() - left * batch_s;
                spare / (left + 1.0)
            };
            workload::time_audits(env, dirs, reference, (budget, 1), samples, tally)?;
        }
        if slot == BATCHES {
            break;
        }
        let cpu_before = read_stat(pid).ok_or("cannot read the daemon's /proc stat")?;
        let batch_started = Instant::now();
        let range = slot * JOBS / BATCHES..(slot + 1) * JOBS / BATCHES;
        phase.jobs.extend(run_batch(env, ready, references, range));
        phase.jobs_wall_s += batch_started.elapsed().as_secs_f64();
        let cpu_after = read_stat(pid).ok_or("cannot read the daemon's /proc stat")?;
        phase.cpu_ms += ticks_to_ms(cpu_after.cpu_ticks.saturating_sub(cpu_before.cpu_ticks));
    }
    Ok(phase)
}

pub fn serve_jobs(
    env: &Env,
    trace: bool,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let reps = if trace { 1 } else { SETUP_REPS };
    let first = env.work.join("corpus-0");
    let mut setup = Vec::new();
    let mut kept = None;
    for rep in 0..reps {
        let (out, ready) = set_up(env, rep, tally)?;
        setup.push(ready.setup_s);
        if rep > 0 {
            corpus::check_same_corpus(&first, &out, tally);
        }
        if rep + 1 < reps {
            ready.daemon.drain(tally)?;
        } else {
            kept = Some(ready);
        }
        if rep > 0 {
            let _ = std::fs::remove_dir_all(&out);
        }
    }
    let ready = kept.ok_or("no daemon was set up")?;
    corpus::sync(&first)?;
    let dirs = corpus::service_dirs(&first)?;
    let references = job_references(env, &dirs, tally)?;
    // The batch-CLI twin: the same six services audited in one process.
    let mut twin = AuditSamples::default();
    let twin_reference = if trace {
        Vec::new()
    } else {
        workload::reference(env, &dirs, tally)?
    };
    let timed_twin = (!trace).then_some((dirs.as_slice(), twin_reference.as_slice(), &mut twin));
    let phase = measure(env, &ready, &references, timed_twin, tally)?;
    let rss_mib =
        read_vm_hwm_mib(ready.daemon.child.id()).ok_or("cannot read the daemon's VmHWM")?;
    let samples = phase.jobs;
    tally_jobs(&samples, tally);
    tally.check("every job ran", samples.len() == JOBS);
    let upload_ms = ready.upload_ms.clone();
    ready.daemon.drain(tally)?;

    let latency: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    if trace {
        let submits: usize = samples.iter().map(|s| s.shed + 1).sum();
        let shed: usize = samples.iter().map(|s| s.shed).sum();
        let per_job = |f: fn(&JobSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        m.set("serve.upload_ms", median(&upload_ms), "ms");
        m.set("serve.submit_ms", per_job(|s| s.submit_ms), "ms");
        m.set("serve.result_ms", per_job(|s| s.result_ms), "ms");
        m.set(
            "serve.result_bytes",
            per_job(|s| s.result_bytes as f64),
            "B",
        );
        let polls: usize = samples.iter().map(|s| s.polls).sum();
        m.set(
            "serve.polls_per_job",
            ratio(polls as f64, samples.len() as f64),
            "count",
        );
        m.set(
            "serve.shed_frac",
            ratio(shed as f64, submits as f64),
            "ratio",
        );
        return workload::traced(env, "serve-jobs", &dirs, tally, m);
    }

    let tail = tail_percentile(JOBS).unwrap_or(0.5);
    m.set("setup_s", median(&setup), "s");
    m.set("audit_wall_s", median(&twin.wall_n), "s");
    m.set("audit_wall_t1_s", median(&twin.wall_1), "s");
    m.set("cpu_ms_per_op", ratio(phase.cpu_ms, JOBS as f64), "ms");
    m.set("peak_rss_mib", rss_mib, "MiB");
    m.set("job_p50_ms", median(&latency), "ms");
    m.set("job_p90_ms", quantile(&latency, tail), "ms");
    m.set("jobs_per_s", ratio(JOBS as f64, phase.jobs_wall_s), "1/s");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_planned_job_count_reports_p90() {
        assert_eq!(tail_percentile(JOBS), Some(0.9));
    }
}
