//! The audit after loading, shared by `diffaudit audit` and a serve-daemon
//! job: the two front ends differ only in how they load and how they
//! present the result, so everything in between lives here once.

use crate::audit::{audit_service, AuditFinding};
use crate::diff::ObservedGrid;
use crate::pipeline::{AuditOutcome, ClassificationMode, Pipeline, ServiceInput};
use crate::report;
use crate::salvage::{cache_ledger, DegradationLedger, RunStatus, SalvagePolicy};
use diffaudit_nettrace::salvage::SalvageLog;
use diffaudit_obs::Scope;
use diffaudit_services::service_by_slug;
use diffaudit_util::cancel::{Ctl, Interrupt};
use std::path::PathBuf;

/// The audit options both front ends read, from flags or a job request.
#[derive(Debug, Clone)]
pub struct AuditSettings {
    /// Ensemble simulator seed.
    pub seed: u64,
    /// Ensemble confidence threshold in `[0, 1]`.
    pub threshold: f64,
    /// Degradation tolerance.
    pub policy: SalvagePolicy,
    /// Worker threads for the pipeline stages.
    pub threads: usize,
    /// Persistent classification cache directory (`None` = uncached).
    pub cache_dir: Option<PathBuf>,
}

impl AuditSettings {
    /// Settings with the given ensemble inputs, or the paper's (seed 2023,
    /// threshold 0.8), after the one range check both front ends apply: the
    /// seed must fit a `u64`, and the threshold must lie in `[0, 1]` (not
    /// NaN) — a larger one would leave every key unlabeled.
    pub fn new(
        seed: Option<i128>,
        threshold: Option<f64>,
        policy: SalvagePolicy,
        threads: usize,
        cache_dir: Option<PathBuf>,
    ) -> Result<Self, String> {
        let seed = seed.unwrap_or(2023);
        let seed = u64::try_from(seed)
            .map_err(|_| format!("ensemble seed must be in [0, 2^64), got {seed}"))?;
        let threshold = threshold.unwrap_or(0.8);
        if !(0.0..=1.0).contains(&threshold) {
            return Err(format!("threshold must be in [0, 1], got {threshold}"));
        }
        Ok(AuditSettings {
            seed,
            threshold,
            policy,
            threads,
            cache_dir,
        })
    }
}

/// A finished audit: what both front ends render.
pub struct AuditRun {
    /// The pipeline's observations.
    pub outcome: AuditOutcome,
    /// COPPA/CCPA findings for every catalog service.
    pub findings: Vec<AuditFinding>,
    /// Load damage plus any classification-cache damage.
    pub ledger: DegradationLedger,
    /// The final verdict; `Failed` means cache damage crossed the policy.
    pub status: RunStatus,
}

/// Why a run stopped without an outcome, with the ledger as it stood.
#[derive(Debug)]
pub enum AuditStop {
    /// The load ledger already exceeds the policy.
    Policy(DegradationLedger),
    /// The control tripped while loading; the policy tolerated the drops.
    LoadInterrupted(Interrupt, DegradationLedger),
    /// The control tripped inside the pipeline; nothing partial is kept.
    PipelineInterrupted(Interrupt, DegradationLedger),
}

/// Audit loaded inputs: mirror the ledger into the `salvage.<stage>.*`
/// counters, judge the policy (stopping if it fails or if `ctl` tripped
/// during load), run the ensemble pipeline, account any cache damage and
/// judge again, then compute the findings. Records only through `scope`.
pub fn run_audit(
    inputs: Vec<ServiceInput>,
    mut ledger: DegradationLedger,
    settings: &AuditSettings,
    scope: &Scope,
    ctl: &Ctl,
) -> Result<AuditRun, AuditStop> {
    // Conservation: for every stage, counters["salvage.<stage>.processed"]
    // and [".dropped"] equal the ledger's tallies.
    mirror_salvage(scope, &ledger.merged());
    let status = settings.policy.evaluate(&ledger);
    if status == RunStatus::Failed {
        return Err(AuditStop::Policy(ledger));
    }
    if let Some(interrupt) = ctl.interrupted() {
        return Err(AuditStop::LoadInterrupted(interrupt, ledger));
    }

    let mut pipeline = Pipeline::new(ClassificationMode::Ensemble {
        seed: settings.seed,
        threshold: settings.threshold,
    })
    .with_threads(settings.threads);
    if let Some(dir) = &settings.cache_dir {
        pipeline = pipeline.with_cache_dir(dir.clone());
    }
    let outcome = match pipeline.run_inputs_scoped(inputs, scope, ctl) {
        Ok(outcome) => outcome,
        Err(interrupt) => return Err(AuditStop::PipelineInterrupted(interrupt, ledger)),
    };

    // Cache salvage (damaged log records skipped on open) degrades the run
    // the same way damaged input does: account it, mirror it, re-judge.
    let status = match &outcome.cache {
        Some(cache) if !cache.damage.is_empty() => {
            let cache_service = cache_ledger(cache);
            mirror_salvage(scope, &cache_service.merged());
            ledger.services.push(cache_service);
            settings.policy.evaluate(&ledger)
        }
        _ => status,
    };

    // Findings need a policy: catalog services get their real one; unknown
    // services keep the flow/linkability analyses without policy rules.
    let findings = scope.time("audit.findings", || {
        let mut findings = Vec::new();
        for service in &outcome.services {
            match service_by_slug(&service.slug) {
                Some(spec) => findings.extend(audit_service(service, &spec)),
                None => scope.warn(
                    "service not in catalog; policy-consistency rules skipped",
                    &[diffaudit_obs::field("service", service.name.as_str())],
                ),
            }
        }
        findings
    });
    scope.add("audit.findings", findings.len() as u64);
    Ok(AuditRun {
        outcome,
        findings,
        ledger,
        status,
    })
}

fn mirror_salvage(scope: &Scope, log: &SalvageLog) {
    for (stage, counts) in log.stages() {
        for (tally, n) in [("processed", counts.processed), ("dropped", counts.dropped)] {
            let prefix = diffaudit_obs::SALVAGE_PREFIX;
            // lint:allow(metric-discipline): `salvage.<stage>.*` is a closed
            // family — `stage` ranges over the ledger's fixed stage enum.
            scope.add(&format!("{prefix}{}.{tally}", stage.label()), n);
        }
    }
}

impl AuditRun {
    /// The text report: a Table 4 grid per service, the Figure 3 summary,
    /// the findings, and the ledger only when the run was not clean.
    pub fn render_text(&self) -> String {
        let mut text = String::new();
        for service in &self.outcome.services {
            let grid = ObservedGrid::build(service);
            text.push_str(&report::render_table4(service, &grid));
            text.push('\n');
        }
        text.push_str(&report::render_fig3(&self.outcome));
        text.push('\n');
        text.push_str("Findings:\n");
        text.push_str(&report::render_findings(&self.findings));
        if self.status != RunStatus::Clean {
            text.push('\n');
            text.push_str(&report::render_degradation(&self.ledger));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensemble_inputs_are_range_checked() {
        let kept = AuditSettings::new(None, None, SalvagePolicy::default(), 1, None).unwrap();
        assert_eq!((kept.seed, kept.threshold), (2023, 0.8));
        let set =
            AuditSettings::new(Some(7), Some(0.5), SalvagePolicy::default(), 1, None).unwrap();
        assert_eq!((set.seed, set.threshold), (7, 0.5));
        let max = AuditSettings::new(
            Some(u64::MAX.into()),
            Some(1.0),
            SalvagePolicy::default(),
            1,
            None,
        );
        assert_eq!(max.map(|s| s.seed).ok(), Some(u64::MAX));
        for (seed, threshold) in [
            (Some(-1), None),
            (Some(i128::from(u64::MAX) + 1), None),
            (None, Some(7.0)),
            (None, Some(-0.1)),
            (None, Some(f64::NAN)),
        ] {
            assert!(
                AuditSettings::new(seed, threshold, SalvagePolicy::default(), 1, None).is_err(),
                "{seed:?} {threshold:?} must be rejected"
            );
        }
    }
}
