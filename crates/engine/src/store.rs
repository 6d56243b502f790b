//! Persistent store for empirically tuned mappings.
//!
//! Autotune measurements are expensive (one simulation per
//! candidate); throwing them away on process exit means every restart
//! re-pays the whole search. This store keeps the winners: versioned JSON
//! on disk (through the hand-rolled `multidim_trace::json` model — the
//! container ships no serde), keyed by the same content
//! [`Fingerprint`] the compilation cache uses, so an entry written by one
//! process matches the identical request in the next.
//!
//! Robustness rule: a corrupt, truncated, or version-mismatched store file
//! must never take the service down — and must not be silently deleted
//! either. [`TuningStore::open`] *quarantines* such a file (renames it to
//! `<path>.quarantined.<nonce>`) and starts empty; the engine then falls
//! back to analytic mappings exactly as on first boot.

use multidim::Fingerprint;
use multidim_mapping::{Dim, LevelMapping, MappingDecision, Span};
use multidim_trace::json::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// On-disk format version; bump on any incompatible change. A file with a
/// different version is quarantined wholesale (entries are not migrated).
pub const STORE_VERSION: u64 = 1;

/// One persisted tuning outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneRecord {
    /// Content address of the (program, bindings, device, compiler
    /// config) this mapping was tuned for.
    pub fingerprint: Fingerprint,
    /// Program name, for humans reading the file.
    pub program: String,
    /// The empirically best mapping.
    pub mapping: MappingDecision,
    /// Its measured cost (simulated seconds).
    pub tuned_cost: f64,
    /// Measured cost of the *analytic* mapping (the one
    /// `Compiler::compile` picks), when it was among the measured
    /// candidates — the analytic-vs-tuned delta is
    /// `analytic_cost / tuned_cost`. `None` otherwise: the analysis's DOP
    /// control may pick a mapping outside the tuning plan.
    pub analytic_cost: Option<f64>,
    /// How many candidates were measured to find this.
    pub measured: u64,
}

impl TuneRecord {
    /// `analytic_cost / tuned_cost` — how much faster the tuned mapping is
    /// than the analytic one (1.0 = tie, >1 = tuning won).
    pub fn analytic_delta(&self) -> Option<f64> {
        self.analytic_cost.map(|a| a / self.tuned_cost.max(1e-300))
    }
}

/// What [`TuningStore::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadOutcome {
    /// Entries successfully loaded.
    pub loaded: usize,
    /// Where the previous file went if it was corrupt or
    /// version-mismatched.
    pub quarantined: Option<PathBuf>,
}

/// The store. Thread-safe; the engine shares one across its workers.
pub struct TuningStore {
    path: Option<PathBuf>,
    entries: Mutex<HashMap<Fingerprint, TuneRecord>>,
    dirty: AtomicBool,
}

impl TuningStore {
    /// A store that never touches disk (caching within one process only).
    pub fn in_memory() -> TuningStore {
        TuningStore {
            path: None,
            entries: Mutex::new(HashMap::new()),
            dirty: AtomicBool::new(false),
        }
    }

    /// Open (or create) the store at `path`. Never fails: a missing file
    /// means an empty store, and an unreadable/corrupt/version-mismatched
    /// file is quarantined — see the module docs.
    pub fn open(path: impl Into<PathBuf>) -> (TuningStore, LoadOutcome) {
        let path = path.into();
        let mut outcome = LoadOutcome::default();
        let mut entries = HashMap::new();
        match std::fs::read_to_string(&path) {
            Err(_) => {} // missing or unreadable: start empty
            Ok(text) => match parse_store(&text) {
                Ok(parsed) => {
                    outcome.loaded = parsed.len();
                    entries = parsed;
                }
                Err(reason) => {
                    outcome.quarantined = quarantine(&path, &reason);
                }
            },
        }
        let store = TuningStore {
            path: Some(path),
            entries: Mutex::new(entries),
            dirty: AtomicBool::new(false),
        };
        (store, outcome)
    }

    /// The tuned record for `fp`, if any.
    pub fn get(&self, fp: Fingerprint) -> Option<TuneRecord> {
        self.entries.lock().unwrap().get(&fp).cloned()
    }

    /// Insert or replace a record; marks the store dirty.
    pub fn insert(&self, record: TuneRecord) {
        self.entries
            .lock()
            .unwrap()
            .insert(record.fingerprint, record);
        self.dirty.store(true, Ordering::Release);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// `true` when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write the store to disk if it has a path and unsaved changes.
    /// Atomic: renders to `<path>.tmp`, then renames over the target, so
    /// a crash mid-write can never truncate the live file.
    ///
    /// Saving **merges per record** with whatever is on disk: several
    /// store instances may share one file (the serving tier points every
    /// shard's engine at the same warm-tier path), and a whole-file
    /// overwrite would silently drop records a sibling saved since this
    /// instance loaded. On a fingerprint collision this instance's
    /// record wins; an unparseable on-disk file contributes nothing here
    /// (quarantine stays [`TuningStore::open`]'s job).
    ///
    /// # Errors
    ///
    /// Propagates the underlying IO failure; the in-memory state is
    /// unaffected (the store stays dirty-free only on success).
    pub fn save(&self) -> Result<(), std::io::Error> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if !self.dirty.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        let body = {
            let entries = self.entries.lock().unwrap();
            let mut merged = std::fs::read_to_string(path)
                .ok()
                .and_then(|text| parse_store(&text).ok())
                .unwrap_or_default();
            for (fp, record) in entries.iter() {
                merged.insert(*fp, record.clone());
            }
            render_store(&merged)
        };
        let tmp = path.with_extension("tmp");
        let result = std::fs::write(&tmp, body).and_then(|()| std::fs::rename(&tmp, path));
        if result.is_err() {
            // Keep the unsaved changes eligible for the next save attempt.
            self.dirty.store(true, Ordering::Release);
        }
        result
    }
}

impl Drop for TuningStore {
    fn drop(&mut self) {
        let _ = self.save();
    }
}

fn quarantine(path: &Path, reason: &str) -> Option<PathBuf> {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let target = path.with_extension(format!("quarantined.{nonce}"));
    match std::fs::rename(path, &target) {
        Ok(()) => {
            eprintln!(
                "multidim-engine: quarantined tuning store {} -> {} ({reason})",
                path.display(),
                target.display()
            );
            Some(target)
        }
        Err(_) => None,
    }
}

// --- JSON codec -----------------------------------------------------------

fn span_json(span: Span) -> Json {
    match span {
        Span::Span(n) => Json::Obj(vec![
            ("kind".into(), Json::Str("span".into())),
            ("n".into(), Json::Num(n as f64)),
        ]),
        Span::All => Json::Obj(vec![("kind".into(), Json::Str("all".into()))]),
        Span::Split(k) => Json::Obj(vec![
            ("kind".into(), Json::Str("split".into())),
            ("k".into(), Json::Num(k as f64)),
        ]),
    }
}

fn span_from_json(j: &Json) -> Result<Span, String> {
    match j.get("kind").and_then(Json::as_str) {
        Some("span") => Ok(Span::Span(
            j.get("n").and_then(Json::as_f64).ok_or("span without n")? as i64,
        )),
        Some("all") => Ok(Span::All),
        Some("split") => Ok(Span::Split(
            j.get("k").and_then(Json::as_f64).ok_or("split without k")? as i64,
        )),
        _ => Err("unknown span kind".into()),
    }
}

/// Render one mapping as JSON (levels outermost first).
pub fn mapping_json(mapping: &MappingDecision) -> Json {
    Json::Arr(
        mapping
            .levels()
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    ("dim".into(), Json::Num(l.dim.0 as f64)),
                    ("block".into(), Json::Num(l.block_size as f64)),
                    ("span".into(), span_json(l.span)),
                ])
            })
            .collect(),
    )
}

/// Parse a mapping rendered by [`mapping_json`].
pub fn mapping_from_json(j: &Json) -> Result<MappingDecision, String> {
    let arr = j.as_arr().ok_or("mapping is not an array")?;
    if arr.is_empty() {
        return Err("mapping has no levels".into());
    }
    let levels = arr
        .iter()
        .map(|l| {
            Ok(LevelMapping {
                dim: Dim(l
                    .get("dim")
                    .and_then(Json::as_u64)
                    .ok_or("level without dim")? as u8),
                block_size: l
                    .get("block")
                    .and_then(Json::as_u64)
                    .ok_or("level without block")? as u32,
                span: span_from_json(l.get("span").ok_or("level without span")?)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(MappingDecision::new(levels))
}

fn record_json(r: &TuneRecord) -> Json {
    let mut fields = vec![
        ("fingerprint".into(), Json::Str(r.fingerprint.to_string())),
        ("program".into(), Json::Str(r.program.clone())),
        ("mapping".into(), mapping_json(&r.mapping)),
        ("tuned_cost".into(), Json::Num(r.tuned_cost)),
        ("measured".into(), Json::Num(r.measured as f64)),
    ];
    if let Some(a) = r.analytic_cost {
        fields.push(("analytic_cost".into(), Json::Num(a)));
    }
    Json::Obj(fields)
}

fn record_from_json(j: &Json) -> Result<TuneRecord, String> {
    let fp = j
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(Fingerprint::parse)
        .ok_or("bad fingerprint")?;
    Ok(TuneRecord {
        fingerprint: fp,
        program: j
            .get("program")
            .and_then(Json::as_str)
            .ok_or("missing program")?
            .to_string(),
        mapping: mapping_from_json(j.get("mapping").ok_or("missing mapping")?)?,
        tuned_cost: j
            .get("tuned_cost")
            .and_then(Json::as_f64)
            .ok_or("missing tuned_cost")?,
        analytic_cost: j.get("analytic_cost").and_then(Json::as_f64),
        measured: j.get("measured").and_then(Json::as_u64).unwrap_or(0),
    })
}

fn render_store(entries: &HashMap<Fingerprint, TuneRecord>) -> String {
    let mut records: Vec<&TuneRecord> = entries.values().collect();
    records.sort_by_key(|r| r.fingerprint);
    Json::Obj(vec![
        ("version".into(), Json::Num(STORE_VERSION as f64)),
        (
            "entries".into(),
            Json::Arr(records.into_iter().map(record_json).collect()),
        ),
    ])
    .render()
}

fn parse_store(text: &str) -> Result<HashMap<Fingerprint, TuneRecord>, String> {
    let j = Json::parse(text)?;
    let version = j
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("missing version")?;
    if version != STORE_VERSION {
        return Err(format!(
            "version mismatch: file is v{version}, this build reads v{STORE_VERSION}"
        ));
    }
    let mut out = HashMap::new();
    for entry in j
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing entries")?
    {
        let r = record_from_json(entry)?;
        out.insert(r.fingerprint, r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_mapping::{Dim, LevelMapping, Span};

    fn record(tag: u64) -> TuneRecord {
        TuneRecord {
            fingerprint: Fingerprint([tag, tag ^ 0xffff]),
            program: format!("p{tag}"),
            mapping: MappingDecision::new(vec![
                LevelMapping {
                    dim: Dim::Y,
                    block_size: 8,
                    span: Span::Span(2),
                },
                LevelMapping {
                    dim: Dim::X,
                    block_size: 32,
                    span: Span::Split(3),
                },
            ]),
            tuned_cost: 1.5e-3,
            analytic_cost: Some(2.0e-3),
            measured: 40,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("multidim-store-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn round_trips_through_disk() {
        let path = tmp("roundtrip");
        {
            let (store, out) = TuningStore::open(&path);
            assert_eq!(out, LoadOutcome::default());
            store.insert(record(1));
            store.insert(record(2));
            store.save().unwrap();
        }
        let (store, out) = TuningStore::open(&path);
        assert_eq!(out.loaded, 2);
        assert!(out.quarantined.is_none());
        assert_eq!(store.get(record(1).fingerprint), Some(record(1)));
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_merges_with_sibling_instances_sharing_the_file() {
        // Two instances on one path — the serving tier's shared warm
        // tier. Each tunes a different program; neither save may drop
        // the other's record.
        let path = tmp("merge");
        let (a, _) = TuningStore::open(&path);
        let (b, _) = TuningStore::open(&path);
        a.insert(record(1));
        a.save().unwrap();
        b.insert(record(2));
        b.save().unwrap();

        let (merged, out) = TuningStore::open(&path);
        assert_eq!(out.loaded, 2, "a sibling's save dropped a record");
        assert_eq!(merged.get(record(1).fingerprint), Some(record(1)));
        assert_eq!(merged.get(record(2).fingerprint), Some(record(2)));

        // On a fingerprint collision the saving instance wins.
        let mut newer = record(1);
        newer.tuned_cost = 9.9e-3;
        b.insert(newer.clone());
        b.save().unwrap();
        let (merged, _) = TuningStore::open(&path);
        assert_eq!(merged.get(newer.fingerprint), Some(newer));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analytic_delta() {
        assert_eq!(record(1).analytic_delta(), Some(2.0e-3 / 1.5e-3));
        let mut r = record(1);
        r.analytic_cost = None;
        assert_eq!(r.analytic_delta(), None);
    }

    #[test]
    fn truncated_file_is_quarantined_not_fatal() {
        let path = tmp("truncated");
        {
            let (store, _) = TuningStore::open(&path);
            store.insert(record(1));
            store.save().unwrap();
        }
        // Truncate mid-entry.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let (store, out) = TuningStore::open(&path);
        assert_eq!(out.loaded, 0);
        let q = out.quarantined.expect("must quarantine");
        assert!(q.exists(), "the bad file is preserved for inspection");
        assert!(store.is_empty(), "engine falls back to analytic mapping");
        assert!(!path.exists(), "the bad file no longer shadows the store");
        let _ = std::fs::remove_file(&q);
    }

    #[test]
    fn version_mismatch_is_quarantined() {
        let path = tmp("version");
        std::fs::write(&path, "{\"version\":999,\"entries\":[]}").unwrap();
        let (store, out) = TuningStore::open(&path);
        assert!(out.quarantined.is_some());
        assert!(store.is_empty());
        let _ = std::fs::remove_file(out.quarantined.unwrap());
    }

    #[test]
    fn garbage_is_quarantined() {
        let path = tmp("garbage");
        std::fs::write(&path, "not json at all {{{").unwrap();
        let (_, out) = TuningStore::open(&path);
        assert!(out.quarantined.is_some());
        let _ = std::fs::remove_file(out.quarantined.unwrap());
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let path = tmp("missing");
        let (store, out) = TuningStore::open(&path);
        assert_eq!(out, LoadOutcome::default());
        assert!(store.is_empty());
    }

    #[test]
    fn save_is_a_noop_when_clean() {
        let (store, _) = TuningStore::open(tmp("clean"));
        store.save().unwrap();
        assert!(!store.path.as_ref().unwrap().exists(), "nothing to write");
    }

    #[test]
    fn mapping_codec_round_trips_all_span_kinds() {
        for span in [Span::Span(4), Span::All, Span::Split(7)] {
            let m = MappingDecision::new(vec![LevelMapping {
                dim: Dim::Z,
                block_size: 16,
                span,
            }]);
            let j = mapping_json(&m);
            assert_eq!(mapping_from_json(&j).unwrap(), m);
        }
        assert!(mapping_from_json(&Json::Arr(vec![])).is_err());
        assert!(mapping_from_json(&Json::Null).is_err());
    }
}
