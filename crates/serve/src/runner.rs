//! Per-job execution: one audit under a deadline, a cancel token, and a
//! private observability scope. After the in-memory load the job runs the
//! same post-load audit as the CLI ([`run_audit`]) and maps how it ended
//! onto a job phase.
//!
//! Timeout policy (DESIGN.md §9): the loader and the pipeline treat
//! interruption differently, on purpose.
//!
//! - **During load**, an expired deadline turns each remaining unit into a
//!   ledger drop with a `timeout:` reason — the job still completes, and
//!   the salvage policy judges the degradation exactly as it judges
//!   damaged input. A stalled decoder therefore yields `salvaged` (or
//!   `failed` under `--strict`-style policy), not a wedged worker.
//! - **During the pipeline phases** (extract/classify/assemble), partial
//!   results are not meaningful, so interruption aborts the phase and the
//!   job reports `timed-out` (or `cancelled`) with an error document.
//!
//! All instrumentation lands in a job-private [`Scope`]; the caller merges
//! the snapshot into the global registry only after the job returns — a
//! panicking job cannot leave half-written global state.

use crate::job::{JobCompletion, JobPhase};
use diffaudit::export;
use diffaudit::loader::{load_memory_service, MemoryService};
use diffaudit::pipeline::AuditOutcome;
use diffaudit::report;
use diffaudit::run::{run_audit, AuditSettings, AuditStop};
use diffaudit::salvage::{DegradationLedger, RunStatus};
use diffaudit_json::Json;
use diffaudit_obs::{MetricsSnapshot, Scope};
use diffaudit_util::cancel::{CancelToken, Ctl, Deadline, Interrupt};
use std::sync::Arc;
use std::time::Duration;

/// Fault-injection modes, accepted only when the daemon was started with
/// chaos enabled. They exist so the containment properties are testable
/// end-to-end against the real daemon, not just in unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic inside the job (exercises worker panic containment).
    Panic,
    /// Stall every cancellation checkpoint (exercises deadline expiry in
    /// the decoder loops: a slow-loris artifact decode).
    StallDecode,
}

/// Everything a worker needs to execute one job.
pub struct JobRequest<'a> {
    /// The uploaded service (traces already resolved to memory units).
    pub service: MemoryService<'a>,
    /// The audit options, as the CLI's flags would set them.
    pub settings: AuditSettings,
    /// Wall-clock budget for the whole job.
    pub deadline: Duration,
    /// Optional fault injection.
    pub chaos: Option<ChaosMode>,
}

/// A finished job: the table entry plus the private metrics snapshot the
/// worker merges into the global registry.
pub struct JobOutput {
    /// Terminal state and rendered documents.
    pub completion: JobCompletion,
    /// The job's private metrics, for the post-completion global merge.
    pub metrics: Option<MetricsSnapshot>,
}

/// How long each [`ChaosMode::StallDecode`] checkpoint sleeps.
const STALL_PER_CHECK: Duration = Duration::from_millis(25);

fn build_ctl(token: &CancelToken, deadline: Duration, chaos: Option<ChaosMode>) -> Ctl {
    let ctl = Ctl::new(token.clone(), Deadline::within(deadline));
    match chaos {
        Some(ChaosMode::StallDecode) => {
            ctl.with_probe(Arc::new(|| std::thread::sleep(STALL_PER_CHECK)))
        }
        _ => ctl,
    }
}

/// Deliberate fault injection for [`ChaosMode::Panic`]; the worker's
/// `catch_unwind` boundary is the subject under test.
#[allow(clippy::panic)]
fn chaos_panic() -> ! {
    panic!("chaos: injected job panic")
}

/// A job that ends on its ledger alone: an empty outcome's document plus
/// the ledger, and the degradation table as its report.
fn degraded_completion(
    status: RunStatus,
    ledger: &DegradationLedger,
    error: String,
) -> JobCompletion {
    JobCompletion {
        phase: JobPhase::Done(status),
        result_json: export::outcome_to_json_with_ledger(&AuditOutcome::default(), &[], ledger)
            .to_pretty_string(),
        report: Some(report::render_degradation(ledger)),
        metrics_json: None,
        error: Some(error),
    }
}

fn interrupted_completion(interrupt: Interrupt, ledger: &DegradationLedger) -> JobCompletion {
    let phase = match interrupt {
        Interrupt::TimedOut => JobPhase::TimedOut,
        Interrupt::Cancelled => JobPhase::Cancelled,
    };
    let doc = Json::obj()
        .with("error", Json::str(interrupt.to_string()))
        .with("degradation", ledger.to_json())
        .to_pretty_string();
    JobCompletion {
        phase,
        result_json: doc,
        report: None,
        metrics_json: None,
        error: Some(interrupt.to_string()),
    }
}

/// Execute one job to a terminal phase. Never blocks past the deadline as
/// long as decode/pipeline loops keep hitting their cancellation
/// checkpoints; never touches the global obs registry.
///
/// The caller is expected to wrap this in `catch_unwind` — a panic
/// anywhere in here (including re-raised pipeline worker panics) is the
/// job's failure, not the daemon's.
pub fn run_job(request: JobRequest<'_>, token: CancelToken) -> JobOutput {
    let ctl = build_ctl(&token, request.deadline, request.chaos);
    let scope = Scope::job("serve.job");
    if request.chaos == Some(ChaosMode::Panic) {
        chaos_panic();
    }
    let settings = &request.settings;

    let (input, service_ledger) = scope.time("serve.job.load", || {
        load_memory_service(request.service, settings.threads, &scope, &ctl)
    });
    let mut ledger = DegradationLedger::new();
    ledger.services.push(service_ledger);
    let mut completion = match run_audit(vec![input], ledger, settings, &scope, &ctl) {
        Ok(run) => {
            let (result_json, report) = scope.time("audit.render", || {
                let doc =
                    export::outcome_to_json_with_ledger(&run.outcome, &run.findings, &run.ledger);
                (doc.to_pretty_string(), run.render_text())
            });
            JobCompletion {
                phase: JobPhase::Done(run.status),
                result_json,
                report: Some(report),
                metrics_json: None,
                error: None,
            }
        }
        Err(AuditStop::Policy(ledger)) => degraded_completion(
            RunStatus::Failed,
            &ledger,
            format!(
                "degradation exceeds policy: {} records dropped",
                ledger.total_dropped()
            ),
        ),
        // The deadline (or a cancel) tripped during load. Interrupted units
        // are already ledger drops the policy tolerated, so the job reports
        // the salvage verdict with the degradation document; a clean ledger
        // means the trip landed after a complete load, where no partial
        // audit exists to report.
        Err(AuditStop::LoadInterrupted(interrupt, ledger)) if ledger.total_dropped() > 0 => {
            degraded_completion(RunStatus::Salvaged, &ledger, interrupt.to_string())
        }
        Err(
            AuditStop::LoadInterrupted(interrupt, ledger)
            | AuditStop::PipelineInterrupted(interrupt, ledger),
        ) => interrupted_completion(interrupt, &ledger),
    };
    // Close the job scope and attach the rendered snapshot.
    let metrics = scope.finish();
    if let Some(snapshot) = &metrics {
        completion.metrics_json = Some(snapshot.to_json().to_pretty_string());
    }
    JobOutput {
        completion,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffaudit::salvage::SalvagePolicy;
    use diffaudit_services::{generate_dataset, DatasetOptions, GeneratedDataset};

    fn small_dataset() -> GeneratedDataset {
        generate_dataset(&DatasetOptions {
            seed: 21,
            volume_scale: 0.02,
            mobile_pinned_fraction: 0.0,
            services: vec!["duolingo".into()],
        })
    }

    /// A job over the dataset's one service, uploaded as-is.
    fn request(dataset: &GeneratedDataset) -> JobRequest<'_> {
        JobRequest {
            service: MemoryService::from_capture(&dataset.services[0]),
            settings: AuditSettings::new(None, None, SalvagePolicy::default(), 2, None)
                .expect("default settings"),
            deadline: Duration::from_secs(60),
            chaos: None,
        }
    }

    #[test]
    fn clean_job_reports_clean_with_private_metrics() {
        let dataset = small_dataset();
        let output = run_job(request(&dataset), CancelToken::new());
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Clean));
        assert_eq!(output.completion.phase.exit_style(), Some(0));
        assert!(output.completion.result_json.contains("services"));
        assert!(output.completion.report.is_some());
        let metrics = output.metrics.expect("job snapshot");
        assert!(metrics.metrics.spans().any(|(n, _)| n == "serve.job"));
        assert!(metrics.metrics.counter("loader.units.loaded") > 0);
    }

    #[test]
    fn expired_deadline_salvages_or_times_out_but_returns() {
        let dataset = small_dataset();
        let mut req = request(&dataset);
        req.deadline = Duration::ZERO;
        let output = run_job(req, CancelToken::new());
        // Every unit dropped at load → policy says salvaged.
        assert_eq!(
            output.completion.phase,
            JobPhase::Done(RunStatus::Salvaged),
            "error: {:?}",
            output.completion.error
        );
        assert!(output
            .completion
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with("timeout")));
        assert!(output.completion.result_json.contains("degradation"));
    }

    #[test]
    fn pre_cancelled_token_cancels_the_job() {
        let token = CancelToken::new();
        token.cancel();
        let dataset = small_dataset();
        let output = run_job(request(&dataset), token);
        // Dropped-at-load units carry cancelled reasons → salvage verdict.
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Salvaged));
        assert!(output
            .completion
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with("cancelled")));
    }

    #[test]
    fn strict_policy_turns_timeout_drops_into_hard_failure() {
        let dataset = small_dataset();
        let mut req = request(&dataset);
        req.deadline = Duration::ZERO;
        req.settings.policy.strict = true;
        let output = run_job(req, CancelToken::new());
        assert_eq!(output.completion.phase, JobPhase::Done(RunStatus::Failed));
        assert_eq!(output.completion.phase.http_status(), 422);
    }
}
