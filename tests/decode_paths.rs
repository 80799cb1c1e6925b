//! Ground-truth check of the decode path: one decoder per format, one unit
//! loader, one pipeline body, each checked against what the simulator
//! generated (3 seeds × all 6 services) rather than against a second
//! implementation. Every HAR unit holds `exchange_count` exchanges; every
//! pcap and its editcap pcapng twin hold `exchange_count` flows, each
//! decrypted (one key-log secret each) or opaque; the disk and in-memory
//! loaders agree; `Pipeline::run` equals `write_dataset` + disk loader +
//! `run_inputs_scoped`; and every salvage ledger is clean and conserved.
//! DESIGN §4 records how the deleted strict decoders differed.

use diffaudit::export::outcome_to_json;
use diffaudit::loader::{
    load_capture_dir_salvage_threads, load_memory_service, write_dataset, MemoryService,
};
use diffaudit::pipeline::{ClassificationMode, Pipeline};
use diffaudit_nettrace::pcapng::inject_secrets;
use diffaudit_nettrace::{decode_auto_salvage, KeyLog, SalvageLog};
use diffaudit_obs::Scope;
use diffaudit_services::{generate_dataset, DatasetOptions, GeneratedDataset};
use diffaudit_util::cancel::Ctl;

fn dataset(seed: u64) -> GeneratedDataset {
    generate_dataset(&DatasetOptions {
        seed,
        volume_scale: 0.005,
        mobile_pinned_fraction: 0.2,
        services: Vec::new(),
    })
}

fn assert_clean(log: &SalvageLog, what: &str) {
    assert!(log.is_clean(), "{what}: drops {:?}", log.drops());
    assert!(log.conserved(), "{what}: ledger does not conserve");
}

/// Load every service of the corpus from disk and from memory, check both
/// against the generator's ground truth, and check that `Pipeline::run`
/// equals the disk path end to end.
fn check_seed(seed: u64) {
    let dataset = dataset(seed);
    assert_eq!(dataset.services.len(), 6);
    let root = std::env::temp_dir().join(format!(
        "diffaudit-decode-paths-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let dirs = write_dataset(&dataset, &root).unwrap();
    let mut inputs = Vec::new();
    for (dir, capture) in dirs.iter().zip(&dataset.services) {
        let what = format!("seed {seed} {}", capture.spec.slug);
        let (from_disk, disk_ledger) = load_capture_dir_salvage_threads(dir, 2).unwrap();
        let (from_memory, memory_ledger) = load_memory_service(
            MemoryService::from_capture(capture),
            2,
            &Scope::job("test.memory"),
            &Ctl::unbounded(),
        );
        assert_clean(&disk_ledger.merged(), &what);
        assert_eq!(
            format!("{disk_ledger:?}"),
            format!("{memory_ledger:?}"),
            "{what}"
        );
        assert_eq!(
            format!("{from_disk:?}"),
            format!("{from_memory:?}"),
            "{what}"
        );
        assert_eq!(from_disk.units.len(), capture.artifacts.len(), "{what}");
        for (unit, artifact) in from_disk.units.iter().zip(&capture.artifacts) {
            // One flow (a HAR entry, or a TCP flow) per generated exchange.
            assert_eq!(unit.flow_count, artifact.exchange_count, "{what}: flows");
            let Some(pcap) = &artifact.pcap else { continue };
            // Each flow is decrypted (one request per flow, one logged
            // secret each) or opaque with its SNI (a pinned host whose
            // secret was never logged).
            let mut log = SalvageLog::new();
            let keys = KeyLog::parse_salvage(artifact.keylog.as_deref().unwrap_or(""), &mut log);
            assert_clean(&log, &what);
            assert_eq!(unit.exchanges.len(), keys.len(), "{what}: decrypted");
            assert_eq!(
                unit.exchanges.len() + unit.opaque_snis.len(),
                unit.flow_count,
                "{what}: every flow decrypted or opaque with its SNI"
            );
            // editcap's self-contained pcapng decodes to the same trace.
            let pcapng = inject_secrets(pcap, &keys).expect("editcap on a clean pcap");
            let mut log = SalvageLog::new();
            let embedded = decode_auto_salvage(&pcapng, &KeyLog::new(), &mut log).unwrap();
            assert_clean(&log, &what);
            assert_eq!(embedded.exchanges, unit.exchanges, "{what}: pcapng");
            let snis: Vec<String> = embedded.opaque.into_iter().filter_map(|o| o.sni).collect();
            assert_eq!(snis, unit.opaque_snis, "{what}: pcapng");
            assert_eq!(embedded.packet_count, unit.packet_count, "{what}: pcapng");
            assert_eq!(embedded.flow_count, unit.flow_count, "{what}: pcapng");
        }
        inputs.push(from_disk);
    }
    let _ = std::fs::remove_dir_all(&root);

    let pipeline = Pipeline::new(ClassificationMode::Oracle(dataset.key_truth.clone()));
    let from_disk = pipeline
        .run_inputs_scoped(inputs, &Scope::global(), &Ctl::unbounded())
        .unwrap();
    let in_memory = pipeline.run(&dataset);
    assert_eq!(in_memory.unique_raw_keys, from_disk.unique_raw_keys);
    assert_eq!(in_memory.key_labels, from_disk.key_labels);
    assert_eq!(
        format!("{:?}", in_memory.services),
        format!("{:?}", from_disk.services),
        "seed {seed}: Pipeline::run and the disk path observe different units"
    );
    assert_eq!(
        outcome_to_json(&in_memory, &[]).to_pretty_string(),
        outcome_to_json(&from_disk, &[]).to_pretty_string(),
        "seed {seed}: Pipeline::run and the disk path disagree"
    );
}

#[test]
fn seed_3_decodes_to_its_ground_truth() {
    check_seed(3);
}

#[test]
fn seed_21_decodes_to_its_ground_truth() {
    check_seed(21);
}

#[test]
fn seed_42_decodes_to_its_ground_truth() {
    check_seed(42);
}
