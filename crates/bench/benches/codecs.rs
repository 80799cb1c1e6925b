//! Micro-benchmarks for the capture substrate codecs: JSON, HAR, pcap,
//! Ethernet/IP/TCP framing, TCP reassembly, and the simulated TLS layer.
//!
//! With `--features bench` (requires a vendored Criterion) these run under
//! Criterion. Without it — the offline default — a std-only fallback harness
//! ([`diffaudit_bench::stopwatch`]) times the same workloads so the target
//! still compiles and runs with no external dependencies.

use diffaudit_domains::Url;
use diffaudit_nettrace::{Exchange, HttpRequest, HttpResponse};

fn sample_exchange(i: usize) -> Exchange {
    let mut req = HttpRequest::post(
        Url::parse(&format!("https://api{i}.example.com/v1/events?sid={i}")).unwrap(),
        "application/json",
        format!(
            r#"{{"device_id":"dev-{i}","os":"android 13","events":[{{"ts":{i},"action":"play"}},{{"ts":{},"action":"pause"}}],"lang":"en-US"}}"#,
            i + 1
        )
        .into_bytes(),
    );
    req.headers.push("User-Agent", "bench/1.0");
    req.headers.push("Cookie", "sid=abc123; theme=dark");
    Exchange {
        timestamp_ms: 1_700_000_000_000 + i as u64,
        request: req,
        response: HttpResponse::ok(),
    }
}

const JSON_DOC: &str = r#"{"user":{"id":"u-1","profile":{"age":12,"lang":"en"},"events":[{"t":1,"k":"a"},{"t":2,"k":"b"},{"t":3,"k":"c"}]},"meta":{"v":"1.2.3","payload":"{\"nested\":true}"}}"#;

#[cfg(feature = "bench")]
mod with_criterion {
    use super::{sample_exchange, JSON_DOC};
    use criterion::{criterion_group, BatchSize, Criterion, Throughput};
    use diffaudit_json::{flatten, parse};
    use diffaudit_nettrace::{
        decode_auto_salvage, har_from_exchanges, har_to_exchanges_salvage, CaptureOptions,
        CaptureSession, Exchange, KeyLog, PcapReader, SalvageLog,
    };
    use std::hint::black_box;

    fn bench_json(c: &mut Criterion) {
        let doc = JSON_DOC;
        let mut group = c.benchmark_group("json");
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_function("parse", |b| b.iter(|| parse(black_box(doc)).unwrap()));
        let parsed = parse(doc).unwrap();
        group.bench_function("flatten", |b| b.iter(|| flatten(black_box(&parsed))));
        group.bench_function("serialize", |b| b.iter(|| black_box(&parsed).to_string()));
        group.finish();
    }

    fn bench_har(c: &mut Criterion) {
        let exchanges: Vec<Exchange> = (0..50).map(sample_exchange).collect();
        let har = har_from_exchanges(&exchanges).to_string();
        let mut group = c.benchmark_group("har");
        group.throughput(Throughput::Elements(exchanges.len() as u64));
        group.bench_function("serialize_50", |b| {
            b.iter(|| har_from_exchanges(black_box(&exchanges)).to_string())
        });
        group.bench_function("parse_50", |b| {
            b.iter(|| har_to_exchanges_salvage(black_box(&har), &mut SalvageLog::new()).unwrap())
        });
        group.finish();
    }

    fn bench_capture_decode(c: &mut Criterion) {
        let exchanges: Vec<Exchange> = (0..20).map(sample_exchange).collect();
        let mut session = CaptureSession::new(CaptureOptions::default());
        for ex in &exchanges {
            session.capture(ex);
        }
        let (pcap, keylog_text) = session.finish();
        let keylog = KeyLog::parse_salvage(&keylog_text, &mut SalvageLog::new());
        let mut group = c.benchmark_group("capture");
        group.throughput(Throughput::Bytes(pcap.len() as u64));
        group.bench_function("capture_20_exchanges", |b| {
            b.iter_batched(
                || CaptureSession::new(CaptureOptions::default()),
                |mut s| {
                    for ex in &exchanges {
                        s.capture(ex);
                    }
                    s.finish()
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function("pcap_parse", |b| {
            b.iter(|| PcapReader::parse_salvage(black_box(&pcap), &mut SalvageLog::new()).unwrap())
        });
        group.bench_function("decode_pcap_full", |b| {
            b.iter(|| {
                decode_auto_salvage(black_box(&pcap), black_box(&keylog), &mut SalvageLog::new())
                    .unwrap()
            })
        });
        group.finish();
    }

    criterion_group!(benches, bench_json, bench_har, bench_capture_decode);
}

#[cfg(feature = "bench")]
fn main() {
    with_criterion::benches();
}

#[cfg(not(feature = "bench"))]
fn main() {
    use diffaudit_bench::stopwatch::run;
    use diffaudit_json::{flatten, parse};
    use diffaudit_nettrace::{
        decode_auto_salvage, har_from_exchanges, har_to_exchanges_salvage, CaptureOptions,
        CaptureSession, KeyLog, PcapReader, SalvageLog,
    };
    use std::hint::black_box;

    let parsed = parse(JSON_DOC).unwrap();
    run("json/parse", || {
        black_box(parse(black_box(JSON_DOC)).unwrap());
    });
    run("json/flatten", || {
        black_box(flatten(black_box(&parsed)));
    });
    run("json/serialize", || {
        black_box(black_box(&parsed).to_string());
    });

    let exchanges: Vec<Exchange> = (0..50).map(sample_exchange).collect();
    let har = har_from_exchanges(&exchanges).to_string();
    run("har/serialize_50", || {
        black_box(har_from_exchanges(black_box(&exchanges)).to_string());
    });
    run("har/parse_50", || {
        black_box(har_to_exchanges_salvage(black_box(&har), &mut SalvageLog::new()).unwrap());
    });

    let capture_inputs: Vec<Exchange> = (0..20).map(sample_exchange).collect();
    let mut session = CaptureSession::new(CaptureOptions::default());
    for ex in &capture_inputs {
        session.capture(ex);
    }
    let (pcap, keylog_text) = session.finish();
    let keylog = KeyLog::parse_salvage(&keylog_text, &mut SalvageLog::new());
    run("capture/capture_20_exchanges", || {
        let mut s = CaptureSession::new(CaptureOptions::default());
        for ex in &capture_inputs {
            s.capture(ex);
        }
        black_box(s.finish());
    });
    run("capture/pcap_parse", || {
        black_box(PcapReader::parse_salvage(black_box(&pcap), &mut SalvageLog::new()).unwrap());
    });
    run("capture/decode_pcap_full", || {
        let mut log = SalvageLog::new();
        black_box(decode_auto_salvage(black_box(&pcap), black_box(&keylog), &mut log).unwrap());
    });
}
