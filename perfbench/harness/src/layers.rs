//! The traced run: the benchmark calls each layer's public functions itself,
//! serially, and records a span around every call. Spans stay in memory
//! until the run ends and are then written out as JSON lines, so nothing
//! inside the program is instrumented.

use crate::report::{ratio, Metrics, Tally};
use diffaudit::audit::{audit_service, AuditFinding};
use diffaudit::diff::ObservedGrid;
use diffaudit::extract::extract_request;
use diffaudit::loader::load_capture_dir_salvage_threads;
use diffaudit::pipeline::{ClassificationMode, Pipeline};
use diffaudit::report;
use diffaudit_classifier::cache::{config_fingerprint, ClassifyCache};
use diffaudit_classifier::majority::TEMPERATURE_GRID;
use diffaudit_json::Json;
use diffaudit_nettrace::har::har_to_exchanges_salvage;
use diffaudit_nettrace::{
    decode_auto_salvage, Exchange, KeyLog, PcapReader, PcapngReader, SalvageLog,
};
use diffaudit_obs::Scope;
use diffaudit_services::service_by_slug;
use diffaudit_util::cancel::Ctl;
use diffaudit_util::par::Key;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The ensemble configuration the CLI uses by default.
const ENSEMBLE_SEED: u64 = 2023;
const THRESHOLD: f64 = 0.8;

const MIB: f64 = 1024.0 * 1024.0;

/// Every per-layer metric, with its unit. A metric whose layer does not run
/// on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("fs.read.busy_s", "s"),
    ("fs.read.mib", "MiB"),
    ("core.loader.busy_s", "s"),
    ("core.loader.mib_per_s", "MiB/s"),
    ("core.loader.units", "count"),
    ("nettrace.har.busy_s", "s"),
    ("nettrace.har.mib_per_s", "MiB/s"),
    ("nettrace.har.ns_per_exchange", "ns"),
    ("nettrace.har.exchanges", "count"),
    ("nettrace.pcap.busy_s", "s"),
    ("nettrace.pcap.mib_per_s", "MiB/s"),
    ("nettrace.pcap.packets", "count"),
    ("nettrace.keylog.busy_s", "s"),
    ("nettrace.keylog.secrets", "count"),
    ("nettrace.capture.busy_s", "s"),
    ("nettrace.capture.mib_per_s", "MiB/s"),
    ("nettrace.capture.exchanges", "count"),
    ("nettrace.capture.drop_frac", "ratio"),
    ("nettrace.capture.opaque_flow_frac", "ratio"),
    ("nettrace.stream.busy_s", "s"),
    ("core.extract.busy_s", "s"),
    ("core.extract.ns_per_request", "ns"),
    ("core.extract.body_mib_per_s", "MiB/s"),
    ("core.extract.requests", "count"),
    ("core.extract.entries", "count"),
    ("keys.occurrences", "count"),
    ("keys.unique", "count"),
    ("keys.dedup_ratio", "ratio"),
    ("classifier.ensemble.busy_s", "s"),
    ("classifier.ensemble.keys_per_s", "1/s"),
    ("classifier.cache.open_s", "s"),
    ("classifier.cache.insert_s", "s"),
    ("classifier.cache.hit_ratio", "ratio"),
    ("classifier.cache.bytes_loaded", "B"),
    ("core.pipeline.busy_s", "s"),
    ("core.audit.busy_s", "s"),
    ("core.audit.findings", "count"),
    ("core.report.busy_s", "s"),
    ("core.report.bytes_out", "B"),
    ("serve.upload_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.result_bytes", "B"),
    ("serve.polls_per_job", "count"),
    ("serve.shed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("failed_frac", "ratio"),
];

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder. The traced run calls one layer at a time on one
/// thread, so its spans are flat and never overlap.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.origin.elapsed().as_nanos();
        let out = f();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: self.origin.elapsed().as_nanos(),
        });
        out
    }

    /// Add to a counter recorded at the same boundary as a span.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds spent inside spans called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON line (name, start and end in
    /// nanoseconds since the tracer started), then every counter.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"startNs\":{},\"endNs\":{}}}",
                span.name, span.start_ns, span.end_ns,
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

/// A manifest unit as the traced run needs it.
struct UnitFiles {
    file: PathBuf,
    keylog: Option<PathBuf>,
}

fn manifest_units(dir: &Path) -> Result<Vec<UnitFiles>, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = diffaudit_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let units = doc
        .get("units")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no units array", path.display()))?;
    units
        .iter()
        .map(|u| {
            let file = u
                .get("file")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: unit without file", path.display()))?;
            Ok(UnitFiles {
                file: dir.join(file),
                keylog: u.get("keylog").and_then(Json::as_str).map(|k| dir.join(k)),
            })
        })
        .collect()
}

fn read_file(t: &mut Tracer, path: &Path) -> Result<Vec<u8>, String> {
    let bytes = t
        .span("fs.read", || std::fs::read(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    t.count("fs.read.bytes", bytes.len() as f64);
    Ok(bytes)
}

fn check_log(tally: &mut Tally, log: &SalvageLog, what: &str) {
    tally.check(
        &format!("{what}: salvage log conserved and clean"),
        log.conserved() && log.is_clean(),
    );
}

/// Decode one unit through the nettrace layers, each call in its own span.
fn decode_unit(
    t: &mut Tracer,
    tally: &mut Tally,
    unit: &UnitFiles,
) -> Result<Vec<Exchange>, String> {
    let bytes = read_file(t, &unit.file)?;
    let name = unit.file.display().to_string();
    if name.ends_with(".har") {
        let text = String::from_utf8(bytes).map_err(|_| format!("{name}: not UTF-8"))?;
        let mut log = SalvageLog::new();
        let exchanges = t
            .span("nettrace.har", || har_to_exchanges_salvage(&text, &mut log))
            .map_err(|e| format!("{name}: {e}"))?;
        check_log(tally, &log, &name);
        t.count("nettrace.har.bytes", text.len() as f64);
        t.count("nettrace.har.exchanges", exchanges.len() as f64);
        return Ok(exchanges);
    }
    let mut keylog = KeyLog::new();
    if let Some(path) = &unit.keylog {
        let raw = read_file(t, path)?;
        let text = String::from_utf8(raw).map_err(|_| format!("{}: not UTF-8", path.display()))?;
        let mut log = SalvageLog::new();
        keylog = t.span("nettrace.keylog", || KeyLog::parse_salvage(&text, &mut log));
        check_log(tally, &log, &path.display().to_string());
        t.count("nettrace.keylog.secrets", keylog.len() as f64);
    }
    let mut framing_log = SalvageLog::new();
    let packets = t.span("nettrace.pcap", || {
        if PcapngReader::sniff(&bytes) {
            PcapngReader::parse_salvage(&bytes, &mut framing_log)
                .map(|r| r.packets.len())
                .map_err(|e| e.to_string())
        } else {
            PcapReader::parse_salvage(&bytes, &mut framing_log)
                .map(|r| r.packets.len())
                .map_err(|e| e.to_string())
        }
    });
    let packets = packets.map_err(|e| format!("{name}: {e}"))?;
    check_log(tally, &framing_log, &name);
    t.count("nettrace.pcap.packets", packets as f64);
    let mut log = SalvageLog::new();
    let decoded = t
        .span("nettrace.capture", || {
            decode_auto_salvage(&bytes, &keylog, &mut log)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    check_log(tally, &log, &name);
    t.count("nettrace.capture.bytes", bytes.len() as f64);
    t.count("nettrace.capture.exchanges", decoded.exchanges.len() as f64);
    t.count("nettrace.capture.processed", log.total_processed() as f64);
    t.count("nettrace.capture.dropped", log.total_dropped() as f64);
    t.count("nettrace.capture.flows", decoded.flow_count as f64);
    t.count("nettrace.capture.opaque", decoded.opaque.len() as f64);
    Ok(decoded.exchanges)
}

/// What the traced run hands back besides its spans.
pub struct Traced {
    pub tracer: Tracer,
    /// The traced run's text report, rendered as the CLI renders it.
    pub rendered: String,
    pub unique_keys: usize,
    /// Seconds spent in the calls the CLI itself makes (loader, pipeline,
    /// findings, render), for the tracing overhead.
    pub cli_path_s: f64,
}

/// Run every layer over the capture directories `dirs`, serially.
/// `cache_dir` must not exist yet; the classification-cache layer is
/// measured in it.
pub fn traced_run(dirs: &[PathBuf], cache_dir: &Path, tally: &mut Tally) -> Result<Traced, String> {
    let mut t = Tracer::default();
    let mut unique: BTreeSet<Key> = BTreeSet::new();

    // Container and stream layers, then key extraction, unit by unit.
    for dir in dirs {
        for unit in manifest_units(dir)? {
            let exchanges = decode_unit(&mut t, tally, &unit)?;
            let per_request: Vec<Vec<String>> = t.span("core.extract", || {
                exchanges
                    .iter()
                    .map(|ex| {
                        extract_request(&ex.request)
                            .into_iter()
                            .map(|e| e.key)
                            .collect()
                    })
                    .collect()
            });
            for (ex, mut keys) in exchanges.iter().zip(per_request) {
                t.count("core.extract.requests", 1.0);
                t.count("core.extract.entries", keys.len() as f64);
                t.count("core.extract.body_bytes", ex.request.body.len() as f64);
                // The pipeline counts each key once per request.
                keys.sort();
                keys.dedup();
                t.count("keys.occurrences", keys.len() as f64);
                unique.extend(keys.into_iter().map(Key::from));
            }
        }
    }

    t.count("keys.unique", unique.len() as f64);

    // The disk loader as the CLI calls it, one directory at a time.
    let mut inputs = Vec::new();
    for dir in dirs {
        let (input, ledger) = t
            .span("core.loader", || load_capture_dir_salvage_threads(dir, 1))
            .map_err(|e| e.to_string())?;
        for unit in &ledger.units {
            check_log(tally, &unit.log, &unit.file);
        }
        t.count("core.loader.units", input.units.len() as f64);
        inputs.push(input);
    }

    // Classification: the ensemble alone, then through the persistent cache.
    let mode = ClassificationMode::Ensemble {
        seed: ENSEMBLE_SEED,
        threshold: THRESHOLD,
    };
    let pipeline = Pipeline::new(mode).with_threads(1);
    let labels = t.span("classifier.ensemble", || pipeline.classify_keys(&unique));
    let cached = pipeline.clone().with_cache_dir(cache_dir);
    let cold = t.span("classifier.cache.cold", || cached.classify_keys(&unique));
    let warm = t.span("classifier.cache.warm", || cached.classify_keys(&unique));
    tally.check("cold cache labels equal the ensemble's", cold == labels);
    tally.check("warm cache labels equal the ensemble's", warm == labels);
    let fingerprint =
        config_fingerprint(ENSEMBLE_SEED, THRESHOLD, &TEMPERATURE_GRID, "majority-avg");
    {
        let store = t
            .span("classifier.cache.open", || {
                ClassifyCache::open(cache_dir, fingerprint)
            })
            .map_err(|e| format!("cache open: {e}"))?;
        let hits = t.span("classifier.cache.get", || {
            unique.iter().filter(|k| store.get(k).is_some()).count()
        });
        t.count("classifier.cache.hits", hits as f64);
        t.count("classifier.cache.bytes_loaded", store.bytes_loaded() as f64);
    }
    let fresh_dir = cache_dir.with_extension("insert");
    {
        let mut store =
            ClassifyCache::open(&fresh_dir, fingerprint).map_err(|e| format!("cache open: {e}"))?;
        let verdicts: Vec<(&str, _)> = unique
            .iter()
            .map(|k| (k.as_ref(), labels.get(k).copied().flatten()))
            .collect();
        let inserted = t
            .span("classifier.cache.insert", || store.insert_batch(&verdicts))
            .map_err(|e| format!("cache insert: {e}"))?;
        tally.check(
            "every verdict inserted",
            inserted as usize == verdicts.len(),
        );
    }

    // The rest of the CLI path: pipeline, findings, render.
    let outcome = t
        .span("core.pipeline", || {
            pipeline.run_inputs_scoped(inputs, &Scope::global(), &Ctl::unbounded())
        })
        .map_err(|e| format!("pipeline interrupted: {e:?}"))?;
    tally.check(
        "pipeline unique keys equal the extracted unique keys",
        outcome.unique_raw_keys == unique.len(),
    );
    let findings: Vec<AuditFinding> = t.span("core.audit", || {
        outcome
            .services
            .iter()
            .filter_map(|s| service_by_slug(&s.slug).map(|spec| audit_service(s, &spec)))
            .flatten()
            .collect()
    });
    t.count("core.audit.findings", findings.len() as f64);
    let rendered = t.span("core.report", || {
        let mut text = String::new();
        for service in &outcome.services {
            let grid = ObservedGrid::build(service);
            text.push_str(&report::render_table4(service, &grid));
            text.push('\n');
        }
        text.push_str(&report::render_fig3(&outcome));
        text.push('\n');
        text.push_str("Findings:\n");
        text.push_str(&report::render_findings(&findings));
        text
    });
    t.count("core.report.bytes_out", rendered.len() as f64);
    let cli_path_s = ["core.loader", "core.pipeline", "core.audit", "core.report"]
        .iter()
        .map(|n| t.busy_s(n))
        .sum();
    let _ = std::fs::remove_dir_all(&fresh_dir);
    Ok(Traced {
        tracer: t,
        rendered,
        unique_keys: unique.len(),
        cli_path_s,
    })
}

/// Reduce the spans and counters of a traced run to the layer metrics.
pub fn layer_metrics(t: &Tracer, m: &mut Metrics) {
    let busy = |n: &str| t.busy_s(n);
    let c = |n: &str| t.counted(n);
    m.set("fs.read.busy_s", busy("fs.read"), "s");
    m.set("fs.read.mib", c("fs.read.bytes") / MIB, "MiB");
    m.set("core.loader.busy_s", busy("core.loader"), "s");
    m.set(
        "core.loader.mib_per_s",
        ratio(c("fs.read.bytes") / MIB, busy("core.loader")),
        "MiB/s",
    );
    m.set("core.loader.units", c("core.loader.units"), "count");
    m.set("nettrace.har.busy_s", busy("nettrace.har"), "s");
    m.set(
        "nettrace.har.mib_per_s",
        ratio(c("nettrace.har.bytes") / MIB, busy("nettrace.har")),
        "MiB/s",
    );
    m.set(
        "nettrace.har.ns_per_exchange",
        ratio(busy("nettrace.har") * 1e9, c("nettrace.har.exchanges")),
        "ns",
    );
    m.set(
        "nettrace.har.exchanges",
        c("nettrace.har.exchanges"),
        "count",
    );
    m.set("nettrace.pcap.busy_s", busy("nettrace.pcap"), "s");
    m.set(
        "nettrace.pcap.mib_per_s",
        ratio(c("nettrace.capture.bytes") / MIB, busy("nettrace.pcap")),
        "MiB/s",
    );
    m.set("nettrace.pcap.packets", c("nettrace.pcap.packets"), "count");
    m.set("nettrace.keylog.busy_s", busy("nettrace.keylog"), "s");
    m.set(
        "nettrace.keylog.secrets",
        c("nettrace.keylog.secrets"),
        "count",
    );
    m.set("nettrace.capture.busy_s", busy("nettrace.capture"), "s");
    m.set(
        "nettrace.capture.mib_per_s",
        ratio(c("nettrace.capture.bytes") / MIB, busy("nettrace.capture")),
        "MiB/s",
    );
    m.set(
        "nettrace.capture.exchanges",
        c("nettrace.capture.exchanges"),
        "count",
    );
    m.set(
        "nettrace.capture.drop_frac",
        ratio(
            c("nettrace.capture.dropped"),
            c("nettrace.capture.processed") + c("nettrace.capture.dropped"),
        ),
        "ratio",
    );
    m.set(
        "nettrace.capture.opaque_flow_frac",
        ratio(c("nettrace.capture.opaque"), c("nettrace.capture.flows")),
        "ratio",
    );
    m.set(
        "nettrace.stream.busy_s",
        (busy("nettrace.capture") - busy("nettrace.pcap")).max(0.0),
        "s",
    );
    m.set("core.extract.busy_s", busy("core.extract"), "s");
    m.set(
        "core.extract.ns_per_request",
        ratio(busy("core.extract") * 1e9, c("core.extract.requests")),
        "ns",
    );
    m.set(
        "core.extract.body_mib_per_s",
        ratio(c("core.extract.body_bytes") / MIB, busy("core.extract")),
        "MiB/s",
    );
    m.set("core.extract.requests", c("core.extract.requests"), "count");
    m.set("core.extract.entries", c("core.extract.entries"), "count");
    m.set("keys.occurrences", c("keys.occurrences"), "count");
    let unique = c("keys.unique");
    m.set("keys.unique", unique, "count");
    m.set(
        "keys.dedup_ratio",
        ratio(c("keys.occurrences"), unique),
        "ratio",
    );
    m.set(
        "classifier.ensemble.busy_s",
        busy("classifier.ensemble"),
        "s",
    );
    m.set(
        "classifier.ensemble.keys_per_s",
        ratio(unique, busy("classifier.ensemble")),
        "1/s",
    );
    m.set(
        "classifier.cache.open_s",
        busy("classifier.cache.open"),
        "s",
    );
    m.set(
        "classifier.cache.insert_s",
        busy("classifier.cache.insert"),
        "s",
    );
    m.set(
        "classifier.cache.hit_ratio",
        ratio(c("classifier.cache.hits"), unique),
        "ratio",
    );
    m.set(
        "classifier.cache.bytes_loaded",
        c("classifier.cache.bytes_loaded"),
        "B",
    );
    m.set("core.pipeline.busy_s", busy("core.pipeline"), "s");
    m.set("core.audit.busy_s", busy("core.audit"), "s");
    m.set("core.audit.findings", c("core.audit.findings"), "count");
    m.set("core.report.busy_s", busy("core.report"), "s");
    m.set("core.report.bytes_out", c("core.report.bytes_out"), "B");
    m.set("trace.spans", t.span_count() as f64, "count");
}
