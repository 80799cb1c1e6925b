//! Making the workload inputs with `diffaudit generate`, and checking that
//! a regenerated corpus is identical to the first one.

use crate::report::{Outcome, Tally};
use crate::Env;
use diffaudit_json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Generate the corpus for `env.seed` at `scale` into `out`.
pub fn generate(env: &Env, out: &Path, scale: &str) -> Result<(), String> {
    let status = Command::new(&env.diffaudit)
        .args(["generate", "--out"])
        .arg(out)
        .args(["--scale", scale, "--seed", &env.seed.to_string()])
        .args(["--threads", &env.nproc.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run diffaudit generate: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("diffaudit generate failed: {status}"))
    }
}

/// Flush every file of a corpus to disk, so that writeback of the freshly
/// generated corpus does not compete with the measured runs.
pub fn sync(corpus: &Path) -> Result<(), String> {
    for rel in files_under(corpus) {
        let path = corpus.join(rel);
        std::fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The service directories of a corpus (each holds a `manifest.json`), in
/// name order.
pub fn service_dirs(corpus: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(corpus)
        .map_err(|e| format!("{}: {e}", corpus.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.join("manifest.json").is_file())
        .collect();
    dirs.sort();
    if dirs.is_empty() {
        return Err(format!("{}: no service directories", corpus.display()));
    }
    Ok(dirs)
}

/// Rewrite a service's manifest so that it lists only its `.pcap` units.
pub fn keep_only_pcap_units(dir: &Path) -> Result<(), String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut doc = diffaudit_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let units: Vec<Json> = doc
        .get("units")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no units array", path.display()))?
        .iter()
        .filter(|u| {
            u.get("file")
                .and_then(Json::as_str)
                .is_some_and(|f| f.ends_with(".pcap"))
        })
        .cloned()
        .collect();
    doc.set("units", Json::Arr(units));
    std::fs::write(&path, doc.to_pretty_string()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The ground-truth file, which `generate` writes in hash-map order: two
/// runs with one seed hold the same map in different key orders.
const KEY_TRUTH: &str = "key_truth.json";

fn truth_map(path: &Path) -> Option<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(path).ok()?;
    match diffaudit_json::parse(&text).ok()? {
        Json::Obj(entries) => entries
            .into_iter()
            .map(|(k, v)| v.as_str().map(|s| (k, s.to_string())))
            .collect(),
        _ => None,
    }
}

fn files_under(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    out.sort();
    out
}

/// Check that corpus `b` equals corpus `a`: the same files, byte for byte,
/// except the ground truth, which is compared as a parsed map. One
/// operation in the tally.
pub fn check_same_corpus(a: &Path, b: &Path, tally: &mut Tally) {
    let outcome = match first_difference(a, b) {
        None => Outcome::Ok,
        Some(path) => Outcome::Mismatch(format!("{} differs", path.display())),
    };
    tally.record("regenerated corpus is identical", outcome);
}

fn first_difference(a: &Path, b: &Path) -> Option<PathBuf> {
    let files = files_under(a);
    if files != files_under(b) {
        return Some(b.to_path_buf());
    }
    files.into_iter().find(|rel| {
        let same = if rel.as_os_str() == KEY_TRUTH {
            let left = truth_map(&a.join(rel));
            left.is_some() && left == truth_map(&b.join(rel))
        } else {
            match (std::fs::read(a.join(rel)), std::fs::read(b.join(rel))) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            }
        };
        !same
    })
}
