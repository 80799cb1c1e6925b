//! Loading externally captured traces from disk.
//!
//! This is the adoption path the paper envisions ("we plan to make
//! DiffAudit's implementation and datasets available"): an auditor collects
//! traces with standard tooling — HAR exports from Chrome DevTools or
//! Proxyman, pcap + `SSLKEYLOGFILE` from PCAPdroid — drops them in a
//! directory with a small manifest, and runs the pipeline.
//!
//! The manifest is a JSON document:
//!
//! ```json
//! {
//!   "service": {
//!     "name": "Roblox",
//!     "slug": "roblox",
//!     "firstPartyDomains": ["roblox.com", "rbxcdn.com"]
//!   },
//!   "units": [
//!     {"file": "web-child-login.har", "platform": "web",
//!      "kind": "logged-in", "category": "child"},
//!     {"file": "mobile-child-acct.pcap", "keylog": "mobile-child-acct.keys",
//!      "platform": "mobile", "kind": "account-creation", "category": "child"}
//!   ]
//! }
//! ```
//!
//! `.har` files are parsed as HAR 1.2; `.pcap` files are decoded through
//! the TCP/TLS pipeline using the sibling key-log file (flows without a
//! logged key are reported as opaque, exactly like pinned apps).

use crate::pipeline::{LoadedUnit, ServiceInput};
use crate::salvage::{ServiceLedger, UnitLedger};
use diffaudit_json::{parse, Json};
use diffaudit_nettrace::capture::DecodeError;
use diffaudit_nettrace::salvage::{SalvageLog, Stage};
use diffaudit_nettrace::{decode_auto_salvage_ctl, har_to_exchanges_salvage_ctl, HarError, KeyLog};
use diffaudit_obs::Scope;
use diffaudit_services::{Platform, ServiceCapture, TraceCategory, TraceKind};
use diffaudit_util::cancel::{Ctl, Interrupt};
use std::borrow::Cow;
use std::path::{Path, PathBuf};

/// Loader errors. Every variant names the file it is about, so a failed
/// multi-directory audit pinpoints the offending artifact or manifest.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem error.
    Io(PathBuf, std::io::Error),
    /// The manifest was not valid JSON.
    ManifestJson(PathBuf, String),
    /// The manifest was missing or had a malformed field. The message names
    /// the manifest entry (`units[i]`) and key where applicable.
    ManifestShape(PathBuf, String),
    /// An artifact failed to decode.
    Artifact(PathBuf, String),
    /// Loading was interrupted by cancellation or deadline expiry. The
    /// display string leads with the interrupt's reason code
    /// (`timeout:` / `cancelled:`) so ledger drop reasons stay
    /// machine-matchable.
    Interrupted(PathBuf, Interrupt),
}

impl LoadError {
    /// Fill in the manifest path on errors minted by helpers that do not
    /// know it (they leave the path empty).
    fn with_manifest_path(self, path: &Path) -> LoadError {
        match self {
            LoadError::ManifestJson(p, e) if p.as_os_str().is_empty() => {
                LoadError::ManifestJson(path.to_path_buf(), e)
            }
            LoadError::ManifestShape(p, e) if p.as_os_str().is_empty() => {
                LoadError::ManifestShape(path.to_path_buf(), e)
            }
            other => other,
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(path, e) => write!(f, "io error on {}: {e}", path.display()),
            LoadError::ManifestJson(path, e) => {
                write!(f, "manifest {} is not valid JSON: {e}", path.display())
            }
            LoadError::ManifestShape(path, e) => {
                write!(f, "manifest {} shape error: {e}", path.display())
            }
            LoadError::Artifact(path, e) => {
                write!(f, "failed to decode {}: {e}", path.display())
            }
            LoadError::Interrupted(path, i) => {
                write!(f, "{i} (while loading {})", path.display())
            }
        }
    }
}

impl std::error::Error for LoadError {}

fn shape_error(msg: String) -> LoadError {
    LoadError::ManifestShape(PathBuf::new(), msg)
}

/// Parse a manifest `platform` field (also the daemon's upload parameter).
pub fn parse_platform(s: &str) -> Result<Platform, LoadError> {
    match s.to_ascii_lowercase().as_str() {
        "web" => Ok(Platform::Web),
        "mobile" => Ok(Platform::Mobile),
        "desktop" => Ok(Platform::Desktop),
        other => Err(shape_error(format!(
            "unknown platform {other:?} (expected web|mobile|desktop)"
        ))),
    }
}

/// Parse a manifest `kind` field (also the daemon's upload parameter).
pub fn parse_kind(s: &str) -> Result<TraceKind, LoadError> {
    match s.to_ascii_lowercase().as_str() {
        "account-creation" | "account_creation" => Ok(TraceKind::AccountCreation),
        "logged-in" | "logged_in" => Ok(TraceKind::LoggedIn),
        "logged-out" | "logged_out" => Ok(TraceKind::LoggedOut),
        other => Err(shape_error(format!(
            "unknown kind {other:?} (expected account-creation|logged-in|logged-out)"
        ))),
    }
}

/// Parse a manifest `category` field (also the daemon's upload parameter).
pub fn parse_category(s: &str) -> Result<TraceCategory, LoadError> {
    match s.to_ascii_lowercase().as_str() {
        "child" => Ok(TraceCategory::Child),
        "adolescent" => Ok(TraceCategory::Adolescent),
        "adult" => Ok(TraceCategory::Adult),
        "logged-out" | "logged_out" => Ok(TraceCategory::LoggedOut),
        other => Err(shape_error(format!(
            "unknown category {other:?} (expected child|adolescent|adult|logged-out)"
        ))),
    }
}

fn str_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, LoadError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| shape_error(format!("{ctx}: missing string field {key:?}")))
}

/// The service header plus raw unit entries of a parsed manifest.
struct Manifest {
    path: PathBuf,
    name: String,
    slug: String,
    first_party_domains: Vec<String>,
    unit_entries: Vec<Json>,
}

fn read_manifest(dir: &Path) -> Result<Manifest, LoadError> {
    let manifest_path = dir.join("manifest.json");
    let manifest_text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| LoadError::Io(manifest_path.clone(), e))?;
    let manifest = parse(&manifest_text)
        .map_err(|e| LoadError::ManifestJson(manifest_path.clone(), e.to_string()))?;

    let header = (|| {
        let service = manifest
            .get("service")
            .ok_or_else(|| shape_error("missing \"service\" object".into()))?;
        let name = str_field(service, "name", "service")?.to_string();
        let slug = str_field(service, "slug", "service")?.to_string();
        let first_party_domains: Vec<String> = service
            .get("firstPartyDomains")
            .and_then(Json::as_arr)
            .ok_or_else(|| shape_error("service.firstPartyDomains must be an array".into()))?
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        if first_party_domains.is_empty() {
            return Err(shape_error(
                "service.firstPartyDomains must not be empty".into(),
            ));
        }
        let unit_entries = manifest
            .get("units")
            .and_then(Json::as_arr)
            .ok_or_else(|| shape_error("missing \"units\" array".into()))?
            .to_vec();
        Ok((name, slug, first_party_domains, unit_entries))
    })()
    .map_err(|e: LoadError| e.with_manifest_path(&manifest_path))?;
    let (name, slug, first_party_domains, unit_entries) = header;
    Ok(Manifest {
        path: manifest_path,
        name,
        slug,
        first_party_domains,
        unit_entries,
    })
}

/// Read one manifest unit entry's files from `dir` into an owned
/// [`MemoryUnit`] labelled with the artifact's file name.
fn read_unit(dir: &Path, entry: &Json, index: usize) -> Result<MemoryUnit<'static>, LoadError> {
    let ctx = format!("units[{index}]");
    let file = str_field(entry, "file", &ctx)?;
    let platform = parse_platform(str_field(entry, "platform", &ctx)?)?;
    let kind = parse_kind(str_field(entry, "kind", &ctx)?)?;
    let category = parse_category(str_field(entry, "category", &ctx)?)?;
    let path = dir.join(file);
    let artifact = if file.ends_with(".har") {
        let text = std::fs::read_to_string(&path).map_err(|e| LoadError::Io(path.clone(), e))?;
        MemoryArtifact::Har(Cow::Owned(text))
    } else if file.ends_with(".pcap") || file.ends_with(".pcapng") {
        let bytes = std::fs::read(&path).map_err(|e| LoadError::Io(path.clone(), e))?;
        let keylog = match entry.get("keylog").and_then(Json::as_str) {
            Some(keylog_file) => {
                let keylog_path = dir.join(keylog_file);
                let text = std::fs::read_to_string(&keylog_path)
                    .map_err(|e| LoadError::Io(keylog_path.clone(), e))?;
                Some(Cow::Owned(text))
            }
            None => None,
        };
        MemoryArtifact::Capture {
            bytes: Cow::Owned(bytes),
            keylog,
        }
    } else {
        return Err(shape_error(format!(
            "{ctx}: file {file:?} must end in .har, .pcap, or .pcapng"
        )));
    };
    Ok(MemoryUnit {
        label: file.to_string(),
        platform,
        kind,
        category,
        artifact,
    })
}

/// Where one unit comes from.
enum UnitSource<'a> {
    /// A manifest entry whose files are read from `dir` inside the unit's
    /// span; `manifest` names the manifest in shape errors.
    Disk {
        dir: &'a Path,
        manifest: &'a Path,
        entry: &'a Json,
    },
    /// A unit already in memory (a daemon upload or a generated dataset).
    Memory(&'a MemoryUnit<'a>),
}

/// The unit loader shared by disk, memory and generated input, run on a
/// worker thread. Times the load as a `loader.unit` span, reads a disk
/// unit's files, decodes the artifact with the salvage decoders (HAR, or
/// pcap/pcapng plus key log), tallies loaded/dropped counters, the
/// `loader.unit.bytes.in` artifact size and the exchange-count histogram
/// into the worker's private recorder, and folds any error into the unit's
/// salvage log.
///
/// The decoders check `ctl` between records, so an expired deadline or a
/// cancelled job drops the unit with a `timeout:`/`cancelled:` reason; a
/// unit whose control is already tripped drops without touching the
/// filesystem. Returns the unit's display label, the load result (the
/// error already rendered to its display string), and the unit's salvage
/// log.
fn load_unit(
    source: UnitSource<'_>,
    index: usize,
    recorder: &mut diffaudit_obs::LocalRecorder,
    ctl: &Ctl,
) -> (String, Result<LoadedUnit, String>, SalvageLog) {
    // `path` names the artifact in drop reasons: the file on disk, or the
    // upload's label.
    let (label, path) = match &source {
        UnitSource::Disk { dir, entry, .. } => {
            let label = entry
                .get("file")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("units[{index}]"));
            let path = dir.join(&label);
            (label, path)
        }
        UnitSource::Memory(unit) => (unit.label.clone(), PathBuf::from(&unit.label)),
    };
    let mut log = SalvageLog::new();
    let outcome: Result<(LoadedUnit, u64), LoadError> = recorder.time("loader.unit", || {
        ctl.check()
            .map_err(|i| LoadError::Interrupted(path.clone(), i))?;
        let read;
        let unit = match source {
            UnitSource::Disk {
                dir,
                manifest,
                entry,
            } => {
                read = read_unit(dir, entry, index).map_err(|e| e.with_manifest_path(manifest))?;
                &read
            }
            UnitSource::Memory(unit) => unit,
        };
        match &unit.artifact {
            MemoryArtifact::Har(text) => {
                let exchanges =
                    har_to_exchanges_salvage_ctl(text, &mut log, ctl).map_err(|e| match e {
                        HarError::Interrupted(i) => LoadError::Interrupted(path.clone(), i),
                        other => LoadError::Artifact(path.clone(), other.to_string()),
                    })?;
                // A HAR entry stands for one packet and one flow.
                let n = exchanges.len();
                let loaded = LoadedUnit {
                    platform: unit.platform,
                    kind: unit.kind,
                    category: unit.category,
                    exchanges,
                    opaque_snis: Vec::new(),
                    packet_count: n,
                    flow_count: n,
                };
                Ok((loaded, text.len() as u64))
            }
            MemoryArtifact::Capture { bytes, keylog } => {
                let keys = match keylog {
                    Some(text) => KeyLog::parse_salvage(text, &mut log),
                    None => KeyLog::new(),
                };
                let decoded =
                    decode_auto_salvage_ctl(bytes, &keys, &mut log, ctl).map_err(|e| match e {
                        DecodeError::Interrupted(i) => LoadError::Interrupted(path.clone(), i),
                        other => LoadError::Artifact(path.clone(), other.to_string()),
                    })?;
                let loaded = LoadedUnit {
                    platform: unit.platform,
                    kind: unit.kind,
                    category: unit.category,
                    exchanges: decoded.exchanges,
                    opaque_snis: decoded.opaque.into_iter().filter_map(|o| o.sni).collect(),
                    packet_count: decoded.packet_count,
                    flow_count: decoded.flow_count,
                };
                let in_bytes = bytes.len() as u64 + keylog.as_ref().map_or(0, |k| k.len() as u64);
                Ok((loaded, in_bytes))
            }
        }
    });
    let result = match outcome {
        Ok((unit, in_bytes)) => {
            log.ok(Stage::Unit);
            recorder.add("loader.units.loaded", 1);
            recorder.add("loader.unit.bytes.in", in_bytes);
            recorder.observe(
                "loader.unit.exchanges",
                &diffaudit_obs::RECORD_BOUNDS,
                unit.exchanges.len() as u64,
            );
            Ok(unit)
        }
        Err(e) => {
            let reason = e.to_string();
            recorder.add("loader.units.dropped", 1);
            log.dropped(Stage::Unit, reason.clone(), Some(index as u64));
            Err(reason)
        }
    };
    (label, result, log)
}

/// Load a capture directory (containing `manifest.json`) into a
/// [`ServiceInput`] ready for [`crate::pipeline::Pipeline::run_inputs_scoped`],
/// over `threads` workers (the `--threads` CLI flag lands here; 1 forces
/// the serial path).
///
/// Manifest-level damage (unreadable or malformed `manifest.json`, broken
/// service header) is a hard error, but each unit is isolated — a unit
/// that cannot be loaded is dropped into the ledger (stage `unit`, offset =
/// manifest entry index) instead of aborting the audit, and units that do
/// load account their own per-record damage through the salvage decoders.
pub fn load_capture_dir_salvage_threads(
    dir: &Path,
    threads: usize,
) -> Result<(ServiceInput, ServiceLedger), LoadError> {
    let scope = Scope::global();
    let ctl = Ctl::unbounded();
    scope.time("loader.dir", || {
        let manifest = read_manifest(dir)?;
        // Units are independent, so they load in parallel over the scoped
        // executor. Workers record `loader.unit` timings and counters into
        // per-thread recorders merged at join, and never emit events — the
        // debug/warn lines go out on this thread afterwards, in manifest
        // order, so the event stream and both returned vectors are
        // identical for every thread count.
        let loaded = diffaudit_util::par::par_map_ctx(
            threads.max(1),
            &manifest.unit_entries,
            diffaudit_obs::LocalRecorder::new,
            |recorder, i, entry| {
                let source = UnitSource::Disk {
                    dir,
                    manifest: &manifest.path,
                    entry,
                };
                load_unit(source, i, recorder, &ctl)
            },
            |recorder| scope.absorb(recorder),
        );
        Ok(collect_loaded_units(
            manifest.name,
            manifest.slug,
            manifest.first_party_domains,
            loaded,
            &scope,
        ))
    })
}

/// Fold per-unit load results into a [`ServiceInput`] + [`ServiceLedger`]
/// pair, emitting the post-join `unit loaded`/`unit dropped` events in
/// manifest order on the calling thread (shared by the disk and in-memory
/// loaders).
fn collect_loaded_units(
    name: String,
    slug: String,
    first_party_domains: Vec<String>,
    loaded: Vec<(String, Result<LoadedUnit, String>, SalvageLog)>,
    scope: &Scope,
) -> (ServiceInput, ServiceLedger) {
    let mut units = Vec::with_capacity(loaded.len());
    let mut ledger_units = Vec::with_capacity(loaded.len());
    for (label, result, log) in loaded {
        match result {
            Ok(unit) => {
                scope.debug(
                    "unit loaded",
                    &[
                        diffaudit_obs::field("file", label.as_str()),
                        diffaudit_obs::field("exchanges", unit.exchanges.len()),
                    ],
                );
                units.push(unit);
            }
            Err(reason) => {
                scope.warn(
                    "unit dropped",
                    &[
                        diffaudit_obs::field("file", label.as_str()),
                        diffaudit_obs::field("reason", reason.as_str()),
                    ],
                );
            }
        }
        ledger_units.push(UnitLedger { file: label, log });
    }
    (
        ServiceInput {
            name,
            slug: slug.clone(),
            first_party_domains,
            units,
        },
        ServiceLedger {
            slug,
            units: ledger_units,
        },
    )
}

/// A trace artifact held in memory: an upload to the serve daemon, where
/// captures arrive over HTTP and never touch the filesystem (owned), or a
/// generated dataset's artifact (borrowed, never copied).
#[derive(Debug, Clone)]
pub enum MemoryArtifact<'a> {
    /// HAR 1.2 text (DevTools/Proxyman exports).
    Har(Cow<'a, str>),
    /// pcap or pcapng bytes plus an optional `SSLKEYLOGFILE` text
    /// (the PCAPdroid path); the container format is sniffed from magic
    /// bytes by the auto decoder.
    Capture {
        /// Raw capture-file bytes.
        bytes: Cow<'a, [u8]>,
        /// Sibling key-log text, if the client supplied one.
        keylog: Option<Cow<'a, str>>,
    },
}

/// One trace unit in memory: the manifest-entry metadata plus its
/// artifact.
#[derive(Debug, Clone)]
pub struct MemoryUnit<'a> {
    /// Display label for reports and the ledger (the disk loader uses the
    /// artifact's file name here).
    pub label: String,
    /// Capture platform.
    pub platform: Platform,
    /// Trace kind.
    pub kind: TraceKind,
    /// User-group category.
    pub category: TraceCategory,
    /// The artifact itself.
    pub artifact: MemoryArtifact<'a>,
}

/// A full in-memory service — the same shape as a capture directory's
/// `manifest.json`, with artifacts inline.
#[derive(Debug, Clone)]
pub struct MemoryService<'a> {
    /// Service display name.
    pub name: String,
    /// Service slug.
    pub slug: String,
    /// First-party domains for the party-classification stage.
    pub first_party_domains: Vec<String>,
    /// The units.
    pub units: Vec<MemoryUnit<'a>>,
}

impl<'a> MemoryService<'a> {
    /// One generated service as an in-memory upload, borrowing its
    /// artifacts. Units are labelled with the file names [`write_dataset`]
    /// gives them, so the ledger matches the disk loader's.
    pub fn from_capture(capture: &'a ServiceCapture) -> MemoryService<'a> {
        let units = capture
            .artifacts
            .iter()
            .map(|artifact| {
                let (platform, kind, category) =
                    manifest_fields(artifact.platform, artifact.kind, artifact.category);
                let stem = format!("{platform}-{category}-{kind}");
                let (label, memory) = match &artifact.pcap {
                    Some(pcap) => (
                        format!("{stem}.pcap"),
                        MemoryArtifact::Capture {
                            bytes: Cow::Borrowed(pcap),
                            keylog: artifact.keylog.as_deref().map(Cow::Borrowed),
                        },
                    ),
                    None => (
                        format!("{stem}.har"),
                        MemoryArtifact::Har(Cow::Borrowed(artifact.har.as_deref().unwrap_or(""))),
                    ),
                };
                MemoryUnit {
                    label,
                    platform: artifact.platform,
                    kind: artifact.kind,
                    category: artifact.category,
                    artifact: memory,
                }
            })
            .collect();
        MemoryService {
            name: capture.spec.name.to_string(),
            slug: capture.spec.slug.to_string(),
            first_party_domains: capture
                .spec
                .first_party_domains
                .iter()
                .map(|d| d.to_string())
                .collect(),
            units,
        }
    }
}

/// Salvage-load an in-memory service into a [`ServiceInput`] +
/// [`ServiceLedger`] pair — the serve daemon's HTTP upload path and
/// [`crate::pipeline::Pipeline::run`]'s. There is no manifest file to fail
/// on, so this is infallible at the service level: every unit either loads
/// or lands in the ledger as a drop (interrupted units with a
/// `timeout:`/`cancelled:` reason), and the salvage policy decides what the
/// degradation means. Each unit is dropped as soon as it is decoded.
pub fn load_memory_service(
    svc: MemoryService<'_>,
    threads: usize,
    scope: &Scope,
    ctl: &Ctl,
) -> (ServiceInput, ServiceLedger) {
    scope.time("loader.memory", || {
        let MemoryService {
            name,
            slug,
            first_party_domains,
            units,
        } = svc;
        let loaded = diffaudit_util::par::par_map_ctx_owned(
            threads.max(1),
            units,
            diffaudit_obs::LocalRecorder::new,
            |recorder, i, unit| load_unit(UnitSource::Memory(&unit), i, recorder, ctl),
            |recorder| scope.absorb(recorder),
        );
        collect_loaded_units(name, slug, first_party_domains, loaded, scope)
    })
}

/// The manifest `platform`, `kind` and `category` strings of a unit. A
/// generated unit's files are named `<platform>-<category>-<kind>.<ext>`.
fn manifest_fields(
    platform: Platform,
    kind: TraceKind,
    category: TraceCategory,
) -> (String, &'static str, String) {
    let kind = match kind {
        TraceKind::AccountCreation => "account-creation",
        TraceKind::LoggedIn => "logged-in",
        TraceKind::LoggedOut => "logged-out",
    };
    (
        platform.label().to_lowercase(),
        kind,
        category.label().to_lowercase().replace(' ', "-"),
    )
}

/// Write a generated dataset to disk in the loader's directory layout —
/// one directory per service with `manifest.json` plus artifact files.
/// Returns the per-service directories created.
pub fn write_dataset(
    dataset: &diffaudit_services::GeneratedDataset,
    out: &Path,
) -> Result<Vec<PathBuf>, LoadError> {
    let mut dirs = Vec::new();
    for capture in &dataset.services {
        let dir = out.join(capture.spec.slug);
        std::fs::create_dir_all(&dir).map_err(|e| LoadError::Io(dir.clone(), e))?;
        let write = |file: &str, bytes: &[u8]| {
            let path = dir.join(file);
            std::fs::write(&path, bytes).map_err(|e| LoadError::Io(path, e))
        };
        let mut units_json = Vec::new();
        for unit in MemoryService::from_capture(capture).units {
            let (platform, kind, category) =
                manifest_fields(unit.platform, unit.kind, unit.category);
            let mut entry = Json::obj()
                .with("platform", Json::str(platform))
                .with("kind", Json::str(kind))
                .with("category", Json::str(category))
                .with("file", Json::str(unit.label.as_str()));
            match &unit.artifact {
                MemoryArtifact::Har(text) => write(&unit.label, text.as_bytes())?,
                MemoryArtifact::Capture { bytes, keylog } => {
                    write(&unit.label, bytes)?;
                    if let Some(keylog) = keylog {
                        let keys_file = unit.label.replace(".pcap", ".keys");
                        write(&keys_file, keylog.as_bytes())?;
                        entry.set("keylog", Json::str(keys_file));
                    }
                }
            }
            units_json.push(entry);
        }
        let manifest = Json::obj()
            .with(
                "service",
                Json::obj()
                    .with("name", Json::str(capture.spec.name))
                    .with("slug", Json::str(capture.spec.slug))
                    .with(
                        "firstPartyDomains",
                        Json::Arr(
                            capture
                                .spec
                                .first_party_domains
                                .iter()
                                .map(|d| Json::str(*d))
                                .collect(),
                        ),
                    ),
            )
            .with("units", Json::Arr(units_json));
        let manifest_path = dir.join("manifest.json");
        std::fs::write(&manifest_path, manifest.to_pretty_string())
            .map_err(|e| LoadError::Io(manifest_path.clone(), e))?;
        dirs.push(dir);
    }
    Ok(dirs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::ObservedGrid;
    use crate::pipeline::{ClassificationMode, Pipeline};
    use diffaudit_services::{generate_dataset, service_by_slug, DatasetOptions};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "diffaudit-loader-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiktok() -> diffaudit_services::GeneratedDataset {
        generate_dataset(&DatasetOptions {
            seed: 21,
            volume_scale: 0.03,
            mobile_pinned_fraction: 0.1,
            services: vec!["tiktok".into()],
        })
    }

    fn load_dir(dir: &Path) -> Result<(ServiceInput, ServiceLedger), LoadError> {
        load_capture_dir_salvage_threads(dir, 2)
    }

    #[test]
    fn write_then_load_round_trips_the_audit() {
        let dataset = tiktok();
        let dir = temp_dir("roundtrip");
        let service_dirs = write_dataset(&dataset, &dir).unwrap();
        assert_eq!(service_dirs.len(), 1);

        // Load back from disk and audit.
        let (input, ledger) = load_dir(&service_dirs[0]).unwrap();
        assert!(ledger.merged().is_clean());
        assert_eq!(input.slug, "tiktok");
        assert_eq!(input.units.len(), 14);
        let outcome = Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()))
            .run_inputs_scoped(vec![input], &Scope::global(), &Ctl::unbounded())
            .unwrap();

        // The from-disk audit must agree with the in-memory audit.
        let reference =
            Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone())).run(&dataset);
        let from_disk = ObservedGrid::build(&outcome.services[0]);
        let in_memory = ObservedGrid::build(&reference.services[0]);
        assert_eq!(from_disk.cells(), in_memory.cells());

        // And it recovers the encoded spec.
        let spec = service_by_slug("tiktok").unwrap();
        let (missing, spurious) = from_disk.compare_activity(&spec);
        assert!(missing.is_empty() && spurious.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_errors_are_described() {
        let dir = temp_dir("errors");
        // No manifest at all.
        assert!(matches!(load_dir(&dir), Err(LoadError::Io(..))));
        // Bad JSON — and the error names the manifest.
        std::fs::write(dir.join("manifest.json"), "{oops").unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(matches!(err, LoadError::ManifestJson(..)));
        assert!(err.to_string().contains("manifest.json"), "{err}");
        // Missing fields — also attributed to the manifest.
        std::fs::write(dir.join("manifest.json"), "{}").unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(matches!(err, LoadError::ManifestShape(..)));
        assert!(err.to_string().contains("manifest.json"), "{err}");
        // Bad platform: that unit is dropped, and the reason names both the
        // manifest and the bad value.
        std::fs::write(
            dir.join("manifest.json"),
            r#"{"service":{"name":"X","slug":"x","firstPartyDomains":["x.com"]},
                "units":[{"file":"a.har","platform":"fridge","kind":"logged-in","category":"child"}]}"#,
        )
        .unwrap();
        let (input, ledger) = load_dir(&dir).unwrap();
        assert!(input.units.is_empty());
        let reason = &ledger.units[0].log.drops()[0].reason;
        assert!(reason.contains("fridge"), "{reason}");
        assert!(reason.contains("manifest.json"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn written_service_dir(tag: &str) -> (diffaudit_services::GeneratedDataset, PathBuf, PathBuf) {
        let dataset = tiktok();
        let dir = temp_dir(tag);
        let service_dirs = write_dataset(&dataset, &dir).unwrap();
        let service_dir = service_dirs.into_iter().next().unwrap();
        (dataset, dir, service_dir)
    }

    #[test]
    fn salvage_load_matches_strict_on_clean_directory() {
        // A directory `write_dataset` produced loads every unit with the
        // generator's flow count and a clean ledger, so `--strict` accepts
        // it.
        let (dataset, dir, service_dir) = written_service_dir("salvage-clean");
        let (salvaged, ledger) = load_dir(&service_dir).unwrap();
        let artifacts = &dataset.services[0].artifacts;
        assert_eq!(salvaged.slug, "tiktok");
        assert_eq!(salvaged.units.len(), artifacts.len());
        for (unit, artifact) in salvaged.units.iter().zip(artifacts) {
            assert_eq!(unit.flow_count, artifact.exchange_count);
            assert_eq!(
                unit.exchanges.len() + unit.opaque_snis.len(),
                artifact.exchange_count
            );
        }
        let merged = ledger.merged();
        assert!(
            merged.is_clean(),
            "clean directory must yield a clean ledger"
        );
        assert!(merged.conserved());
        assert_eq!(ledger.units.len(), artifacts.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_load_matches_disk_load() {
        let (dataset, dir, service_dir) = written_service_dir("memory-parity");
        let (from_disk, disk_ledger) = load_dir(&service_dir).unwrap();
        let scope = diffaudit_obs::Scope::job("test.memory");
        let (from_memory, mem_ledger) = load_memory_service(
            MemoryService::from_capture(&dataset.services[0]),
            2,
            &scope,
            &Ctl::unbounded(),
        );
        assert_eq!(format!("{from_memory:?}"), format!("{from_disk:?}"));
        // Same labels, same clean ledgers.
        assert_eq!(format!("{mem_ledger:?}"), format!("{disk_ledger:?}"));
        assert!(mem_ledger.merged().is_clean());
        // The job scope collected the loader instrumentation privately.
        let snap = scope.finish().expect("job snapshot");
        assert_eq!(
            snap.metrics.counter("loader.units.loaded"),
            from_memory.units.len() as u64
        );
        assert!(snap.metrics.spans().any(|(n, _)| n == "loader.memory"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_ctl_drops_memory_units_with_timeout_reason() {
        let dataset = tiktok();
        let svc = MemoryService::from_capture(&dataset.services[0]);
        let total = svc.units.len();
        let ctl = Ctl::new(
            diffaudit_util::cancel::CancelToken::new(),
            diffaudit_util::cancel::Deadline::within(std::time::Duration::ZERO),
        );
        let scope = diffaudit_obs::Scope::job("test.timeout");
        let (input, ledger) = load_memory_service(svc, 2, &scope, &ctl);
        assert!(input.units.is_empty(), "every unit should have timed out");
        let merged = ledger.merged();
        assert!(merged.conserved());
        assert_eq!(merged.stage(Stage::Unit).dropped, total as u64);
        assert_eq!(ledger.units.len(), total);
        for unit in &ledger.units {
            assert!(
                unit.log
                    .drops()
                    .iter()
                    .any(|d| d.reason.starts_with("timeout:")),
                "drop reason must carry the timeout code: {:?}",
                unit.log.drops()
            );
        }
        let _ = scope.finish();
    }

    #[test]
    fn salvage_load_isolates_a_broken_unit() {
        let (dataset, dir, service_dir) = written_service_dir("salvage-broken");
        let total = dataset.services[0].artifacts.len();
        // Destroy one pcap's header so its unit cannot be decoded at all.
        let victim = std::fs::read_dir(&service_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "pcap"))
            .unwrap();
        std::fs::write(&victim, b"not a pcap").unwrap();

        let (salvaged, ledger) = load_dir(&service_dir).unwrap();
        assert_eq!(salvaged.units.len(), total - 1);
        let merged = ledger.merged();
        assert!(merged.conserved());
        assert_eq!(merged.stage(Stage::Unit).dropped, 1);
        assert_eq!(merged.stage(Stage::Unit).processed, total as u64 - 1);
        let dropped = ledger
            .units
            .iter()
            .find(|u| u.unit_dropped())
            .expect("one unit ledger records the drop");
        let victim_name = victim.file_name().unwrap().to_str().unwrap();
        assert_eq!(dropped.file, victim_name);
        assert!(
            dropped
                .log
                .drops()
                .iter()
                .any(|d| d.reason.contains(victim_name)),
            "drop reason should name the artifact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
