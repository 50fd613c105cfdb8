//! Content-addressed result cache for sweep points.
//!
//! Every sweep point is keyed by a 128-bit FNV-1a hash of its *canonical
//! description* — the `Debug` rendering of the full network configuration
//! and the point kind (layout, `SimParams`, traffic pattern, fault plan,
//! seeds — everything that determines the simulation's output, and nothing
//! that doesn't, such as display labels or worker count). Rust's `Debug`
//! for `f64` uses shortest round-trip formatting, so the canonical string
//! is stable across runs and platforms.
//!
//! Completed points are persisted as JSON-lines (one
//! `{"key":…,"metrics":…}` object per line) in `results/cache/points.jsonl`.
//! Corrupt or truncated lines are skipped on load — the cache is a pure
//! accelerator, never a source of truth — and re-running the point simply
//! rewrites its entry.
//!
//! All cache I/O happens on the sweep coordinator thread (lookups before
//! points are scheduled, inserts as results arrive), so the file needs no
//! locking beyond append-only writes.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use heteronoc_noc::checkpoint::{Checkpoint, CheckpointError};

use crate::json::{self, Json};

/// Bump when the metrics schema or canonical-description format changes;
/// old cache entries then miss instead of deserializing garbage.
/// v3: sweep points carry `attempts`; campaign points share the cache.
/// v4: open-loop points carry per-point scheduler counters (`sched`).
/// (The `Cmp`/`ClosedLoop` point kinds and their `system` member needed no
/// bump: their canonical descriptions are new, so no older entry matches.)
/// v5: degradation points carry `reliability`, and campaign points are
/// sweep points.
pub const SCHEMA_VERSION: u32 = 5;

/// 64-bit FNV-1a over `bytes`, from `offset` (lets us derive two
/// independent 64-bit streams for a 128-bit key).
fn fnv1a64(bytes: &[u8], offset: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = offset;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Content-address for a canonical point description: 32 hex chars
/// (two independent FNV-1a-64 passes), prefixed with the schema version.
pub fn content_key(canonical: &str) -> String {
    const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325; // standard FNV offset basis
    const OFFSET_B: u64 = 0x6c62_272e_07bb_0142; // high half of the 128-bit basis
    let bytes = canonical.as_bytes();
    format!(
        "v{SCHEMA_VERSION}-{:016x}{:016x}",
        fnv1a64(bytes, OFFSET_A),
        fnv1a64(bytes, OFFSET_B)
    )
}

/// The on-disk result cache: an in-memory map backed by an append-only
/// JSON-lines file.
#[derive(Debug)]
pub struct ResultCache {
    path: PathBuf,
    map: HashMap<String, Json>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `dir`; loads every intact
    /// entry from `points.jsonl`.
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        let path = dir.join("points.jsonl");
        let mut map = HashMap::new();
        if let Ok(text) = fs::read_to_string(&path) {
            for line in text.lines() {
                let Ok(entry) = json::parse(line) else {
                    continue; // torn write or hand edit: treat as a miss
                };
                let (Some(key), Some(metrics)) = (
                    entry.get("key").and_then(Json::as_str),
                    entry.get("metrics"),
                ) else {
                    continue;
                };
                map.insert(key.to_owned(), metrics.clone());
            }
        }
        Ok(ResultCache { path, map })
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a point by content key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.map.get(key)
    }

    /// Inserts a completed point and appends it to the backing file.
    pub fn insert(&mut self, key: String, metrics: Json) -> std::io::Result<()> {
        let line = Json::obj(vec![
            ("key", Json::Str(key.clone())),
            ("metrics", metrics.clone()),
        ]);
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(f, "{line}")?;
        self.map.insert(key, metrics);
        Ok(())
    }
}

/// Per-line verdict classes of a cache-file audit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LineVerdict {
    /// Parses and has the expected `{key, metrics}` shape with a
    /// well-formed `v<N>-<32 hex>` key of the current schema version.
    Valid,
    /// Well-formed but keyed by an older schema version (a guaranteed
    /// miss; `--gc` prunes these).
    StaleSchema,
    /// Parses as JSON but the shape is wrong (missing/mistyped `key` or
    /// `metrics`, malformed key format).
    BadShape,
    /// Does not parse as JSON at all (torn write, hand edit).
    Undecodable,
}

/// Audit results for one cache file.
#[derive(Clone, Debug)]
pub struct CacheFileReport {
    /// The audited file.
    pub path: PathBuf,
    /// Lines with [`LineVerdict::Valid`].
    pub valid: usize,
    /// Lines with [`LineVerdict::StaleSchema`].
    pub stale: usize,
    /// Lines with [`LineVerdict::BadShape`].
    pub bad_shape: usize,
    /// Lines with [`LineVerdict::Undecodable`].
    pub undecodable: usize,
}

impl CacheFileReport {
    /// True when every line is valid under the current schema.
    pub fn is_clean(&self) -> bool {
        self.stale == 0 && self.bad_shape == 0 && self.undecodable == 0
    }
}

/// Parses a content key's schema version, or `None` when the shape is not
/// `v<digits>-<32 lowercase hex>`.
fn key_schema(key: &str) -> Option<u32> {
    let (version, hash) = key.strip_prefix('v')?.split_once('-')?;
    let version = version.parse::<u32>().ok()?;
    (hash.len() == 32
        && hash
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()))
    .then_some(version)
}

/// Classifies one cache line.
pub fn classify_line(line: &str) -> LineVerdict {
    let Ok(entry) = json::parse(line) else {
        return LineVerdict::Undecodable;
    };
    let (Some(key), Some(_metrics)) = (
        entry.get("key").and_then(Json::as_str),
        entry.get("metrics"),
    ) else {
        return LineVerdict::BadShape;
    };
    match key_schema(key) {
        None => LineVerdict::BadShape,
        Some(v) if v != SCHEMA_VERSION => LineVerdict::StaleSchema,
        Some(_) => LineVerdict::Valid,
    }
}

/// Audits every `*.jsonl` file under `dir` line by line. Missing or empty
/// directories audit clean (no files).
///
/// # Errors
/// Propagates I/O failures reading the directory or a file.
pub fn verify_dir(dir: &Path) -> std::io::Result<Vec<CacheFileReport>> {
    let mut reports = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(reports),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    paths.sort();
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let mut r = CacheFileReport {
            path: path.clone(),
            valid: 0,
            stale: 0,
            bad_shape: 0,
            undecodable: 0,
        };
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match classify_line(line) {
                LineVerdict::Valid => r.valid += 1,
                LineVerdict::StaleSchema => r.stale += 1,
                LineVerdict::BadShape => r.bad_shape += 1,
                LineVerdict::Undecodable => r.undecodable += 1,
            }
        }
        reports.push(r);
    }
    Ok(reports)
}

/// Verdict classes for one `.ckpt` file in the cache directory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CkptVerdict {
    /// Loads (header + CRC intact) and is named by a current-schema
    /// content key that has no completed cache entry: a resumable
    /// in-progress checkpoint.
    Resumable {
        /// The checkpointed simulation cycle.
        cycle: u64,
    },
    /// Loads, but its content key already has a completed cache entry —
    /// the run finished, so the checkpoint is dead weight (`--gc` deletes
    /// these).
    Orphaned {
        /// The checkpointed simulation cycle.
        cycle: u64,
    },
    /// Named by an older-schema or malformed key: it can never be matched
    /// by a resume lookup (`--gc` deletes these).
    StaleName,
    /// Written under another checkpoint schema: no build of this schema
    /// can resume it, and a sweep overwrites it (`--gc` deletes these).
    StaleSchema {
        /// The schema version in its header.
        found: u32,
    },
    /// Fails to load: truncated, bad magic, or a CRC mismatch (`--gc`
    /// quarantines these as `.corrupt`).
    Corrupt(String),
}

/// Audit result for one `.ckpt` file.
#[derive(Clone, Debug)]
pub struct CkptReport {
    /// The audited checkpoint file.
    pub path: PathBuf,
    /// Its verdict.
    pub verdict: CkptVerdict,
}

/// Content keys of every valid current-schema line across the `*.jsonl`
/// files under `dir` — the set of *completed* points a checkpoint could be
/// orphaned by.
fn completed_keys(dir: &Path) -> std::io::Result<HashSet<String>> {
    let mut keys = HashSet::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(keys),
        Err(e) => return Err(e),
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "jsonl") {
            continue;
        }
        let text = fs::read_to_string(&path)?;
        for line in text.lines() {
            if classify_line(line) != LineVerdict::Valid {
                continue;
            }
            if let Some(key) = json::parse(line)
                .ok()
                .and_then(|e| e.get("key").and_then(Json::as_str).map(str::to_owned))
            {
                keys.insert(key);
            }
        }
    }
    Ok(keys)
}

/// Audits every `<content_key>.ckpt` file under `dir`: CRC-checks each via
/// [`Checkpoint::load`] and cross-references the completed-point cache to
/// flag orphans. Missing directories audit clean (no files).
///
/// # Errors
/// Propagates I/O failures reading the directory or the cache files.
pub fn verify_checkpoints(dir: &Path) -> std::io::Result<Vec<CkptReport>> {
    let completed = completed_keys(dir)?;
    let mut reports = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(reports),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    paths.sort();
    for path in paths {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let verdict = if key_schema(&stem) != Some(SCHEMA_VERSION) {
            CkptVerdict::StaleName
        } else {
            match Checkpoint::load(&path) {
                Ok(c) if completed.contains(&stem) => CkptVerdict::Orphaned { cycle: c.cycle },
                Ok(c) => CkptVerdict::Resumable { cycle: c.cycle },
                Err(CheckpointError::BadVersion { found }) => CkptVerdict::StaleSchema { found },
                Err(e) => CkptVerdict::Corrupt(e.to_string()),
            }
        };
        reports.push(CkptReport { path, verdict });
    }
    Ok(reports)
}

/// What [`gc_dir`] did to one file.
#[derive(Clone, Debug)]
pub enum GcAction {
    /// File was clean; left untouched.
    Clean(PathBuf),
    /// File held undecodable lines (or a checkpoint failed its CRC):
    /// renamed to `<name>.corrupt` so the damage is preserved for
    /// inspection instead of silently read past.
    Quarantined {
        /// Original path.
        from: PathBuf,
        /// Quarantine path.
        to: PathBuf,
    },
    /// File was rewritten keeping only current-schema valid lines.
    Pruned {
        /// The rewritten file.
        path: PathBuf,
        /// Lines kept.
        kept: usize,
        /// Lines dropped (stale schema or bad shape).
        dropped: usize,
    },
    /// A checkpoint file was deleted (orphaned by a completed point, or
    /// named by a stale/malformed key).
    RemovedCheckpoint {
        /// The deleted file.
        path: PathBuf,
        /// Why it was removed.
        reason: String,
    },
}

/// Garbage-collects the cache directory: files with undecodable lines are
/// quarantined (renamed to `.corrupt`); files with only stale-schema or
/// bad-shape lines are rewritten keeping the valid ones. `.ckpt` files are
/// swept too: corrupt ones are quarantined; stale-named, stale-schema and
/// orphaned ones (their point already completed) deleted; resumable ones
/// kept.
///
/// # Errors
/// Propagates I/O failures.
pub fn gc_dir(dir: &Path) -> std::io::Result<Vec<GcAction>> {
    let mut actions = Vec::new();
    for report in verify_dir(dir)? {
        if report.is_clean() {
            actions.push(GcAction::Clean(report.path));
            continue;
        }
        if report.undecodable > 0 {
            let mut name = report
                .path
                .file_name()
                .map_or_else(|| "cache".to_owned(), |n| n.to_string_lossy().into_owned());
            name.push_str(".corrupt");
            let to = report.path.with_file_name(name);
            fs::rename(&report.path, &to)?;
            actions.push(GcAction::Quarantined {
                from: report.path,
                to,
            });
            continue;
        }
        let text = fs::read_to_string(&report.path)?;
        let kept_lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.trim().is_empty() && classify_line(l) == LineVerdict::Valid)
            .collect();
        let dropped = report.stale + report.bad_shape;
        let mut out = kept_lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        // Atomic replace: never leave a half-written cache behind.
        let tmp = report.path.with_extension("jsonl.tmp");
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &report.path)?;
        actions.push(GcAction::Pruned {
            path: report.path,
            kept: kept_lines.len(),
            dropped,
        });
    }
    for report in verify_checkpoints(dir)? {
        match report.verdict {
            CkptVerdict::Resumable { .. } => actions.push(GcAction::Clean(report.path)),
            CkptVerdict::Orphaned { .. } => {
                fs::remove_file(&report.path)?;
                actions.push(GcAction::RemovedCheckpoint {
                    path: report.path,
                    reason: "point already completed".to_owned(),
                });
            }
            CkptVerdict::StaleName => {
                fs::remove_file(&report.path)?;
                actions.push(GcAction::RemovedCheckpoint {
                    path: report.path,
                    reason: "stale or malformed content key".to_owned(),
                });
            }
            CkptVerdict::StaleSchema { found } => {
                fs::remove_file(&report.path)?;
                actions.push(GcAction::RemovedCheckpoint {
                    path: report.path,
                    reason: format!("checkpoint schema v{found}"),
                });
            }
            CkptVerdict::Corrupt(_) => {
                let mut name = report
                    .path
                    .file_name()
                    .map_or_else(|| "ckpt".to_owned(), |n| n.to_string_lossy().into_owned());
                name.push_str(".corrupt");
                let to = report.path.with_file_name(name);
                fs::rename(&report.path, &to)?;
                actions.push(GcAction::Quarantined {
                    from: report.path,
                    to,
                });
            }
        }
    }
    Ok(actions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_and_sensitive() {
        let a = content_key("cfg=A|rate=0.01|seed=7");
        let b = content_key("cfg=A|rate=0.01|seed=7");
        assert_eq!(a, b, "same canonical description hashes identically");
        // Any single-field change produces a different key.
        for variant in [
            "cfg=B|rate=0.01|seed=7",
            "cfg=A|rate=0.02|seed=7",
            "cfg=A|rate=0.01|seed=8",
            "cfg=A|rate=0.01|seed=7 ",
        ] {
            assert_ne!(a, content_key(variant), "{variant}");
        }
        assert!(a.starts_with(&format!("v{SCHEMA_VERSION}-")));
        assert_eq!(a.len(), format!("v{SCHEMA_VERSION}-").len() + 32);
    }

    #[test]
    fn cache_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("heteronoc-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let metrics = Json::obj(vec![
            ("latency_ns", Json::Num(23.75)),
            ("delivered", Json::Int(15000)),
        ]);
        {
            let mut c = ResultCache::open(&dir).unwrap();
            assert!(c.is_empty());
            c.insert(content_key("p1"), metrics.clone()).unwrap();
            c.insert(content_key("p2"), Json::Null).unwrap();
            assert_eq!(c.len(), 2);
        }
        {
            let c = ResultCache::open(&dir).unwrap();
            assert_eq!(c.len(), 2);
            assert_eq!(c.get(&content_key("p1")), Some(&metrics));
            assert_eq!(c.get(&content_key("p3")), None);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_skips_corrupt_lines() {
        let dir = std::env::temp_dir().join(format!("heteronoc-cache-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("points.jsonl"),
            "{\"key\":\"k1\",\"metrics\":{\"a\":1}}\nnot json at all\n{\"metrics\":{}}\n{\"key\":\"k2\",\"metrics\":2}\n",
        )
        .unwrap();
        let c = ResultCache::open(&dir).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get("k1").is_some());
        assert_eq!(c.get("k2"), Some(&Json::Int(2)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn line_classification_covers_the_shapes() {
        let good = format!(
            "{{\"key\":\"{}\",\"metrics\":{{}}}}",
            content_key("some point")
        );
        assert_eq!(classify_line(&good), LineVerdict::Valid);
        let stale = format!(
            "{{\"key\":\"v{}-{}\",\"metrics\":{{}}}}",
            SCHEMA_VERSION - 1,
            "0".repeat(32)
        );
        assert_eq!(classify_line(&stale), LineVerdict::StaleSchema);
        for bad in [
            "{\"metrics\":{}}",                                // no key
            "{\"key\":\"v3-zz\",\"metrics\":{}}",              // short hash
            "{\"key\":\"plainstring\",\"metrics\":{}}",        // no v prefix
            &format!("{{\"key\":\"v3-{}\"}}", "a".repeat(32)), // no metrics
        ] {
            assert_eq!(classify_line(bad), LineVerdict::BadShape, "{bad}");
        }
        assert_eq!(classify_line("not json"), LineVerdict::Undecodable);
    }

    #[test]
    fn checkpoint_audit_and_gc_cover_the_verdicts() {
        let dir = std::env::temp_dir().join(format!("heteronoc-cache-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        let done_key = content_key("finished point");
        let live_key = content_key("in-flight point");
        // The cache records the finished point only.
        fs::write(
            dir.join("points.jsonl"),
            format!("{{\"key\":\"{done_key}\",\"metrics\":{{}}}}\n"),
        )
        .unwrap();

        let ckpt = Checkpoint {
            config_hash: 1,
            params_hash: 2,
            cycle: 777,
            body: vec![1, 2, 3],
        };
        ckpt.save(&dir.join(format!("{done_key}.ckpt"))).unwrap(); // orphaned
        ckpt.save(&dir.join(format!("{live_key}.ckpt"))).unwrap(); // resumable
        let stale_key = format!("v{}-{}", SCHEMA_VERSION - 1, "0".repeat(32));
        ckpt.save(&dir.join(format!("{stale_key}.ckpt"))).unwrap(); // stale name
        let torn = dir.join(format!("{}.ckpt", content_key("torn point")));
        let mut bytes = ckpt.to_bytes();
        bytes.truncate(bytes.len() - 2);
        fs::write(&torn, bytes).unwrap(); // corrupt

        let reports = verify_checkpoints(&dir).unwrap();
        assert_eq!(reports.len(), 4);
        let verdict = |key: &str| {
            reports
                .iter()
                .find(|r| r.path.file_stem().unwrap().to_string_lossy() == key)
                .map(|r| r.verdict.clone())
                .unwrap()
        };
        assert_eq!(verdict(&done_key), CkptVerdict::Orphaned { cycle: 777 });
        assert_eq!(verdict(&live_key), CkptVerdict::Resumable { cycle: 777 });
        assert_eq!(verdict(&stale_key), CkptVerdict::StaleName);
        assert!(matches!(
            verdict(&content_key("torn point")),
            CkptVerdict::Corrupt(_)
        ));

        let actions = gc_dir(&dir).unwrap();
        let removed = actions
            .iter()
            .filter(|a| matches!(a, GcAction::RemovedCheckpoint { .. }))
            .count();
        assert_eq!(removed, 2, "{actions:?}");
        assert!(!dir.join(format!("{done_key}.ckpt")).exists());
        assert!(!dir.join(format!("{stale_key}.ckpt")).exists());
        // The resumable checkpoint survives, still loadable.
        let kept = dir.join(format!("{live_key}.ckpt"));
        assert_eq!(Checkpoint::load(&kept).unwrap(), ckpt);
        // The corrupt one is quarantined, not deleted.
        assert!(!torn.exists());
        assert!(torn
            .with_file_name(format!(
                "{}.corrupt",
                torn.file_name().unwrap().to_string_lossy()
            ))
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_of_another_schema_is_stale_and_gc_deletes_it() {
        use heteronoc_noc::checkpoint::SCHEMA_VERSION as CKPT_SCHEMA;

        let dir =
            std::env::temp_dir().join(format!("heteronoc-cache-ckpt-v-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ckpt = Checkpoint {
            config_hash: 1,
            params_hash: 2,
            cycle: 777,
            body: vec![1, 2, 3],
        };
        // A well-formed file whose header carries the previous schema.
        let mut bytes = ckpt.to_bytes();
        bytes[8..12].copy_from_slice(&(CKPT_SCHEMA - 1).to_le_bytes());
        let old = dir.join(format!("{}.ckpt", content_key("older build")));
        fs::write(&old, bytes).unwrap();

        let reports = verify_checkpoints(&dir).unwrap();
        assert_eq!(
            reports[0].verdict,
            CkptVerdict::StaleSchema {
                found: CKPT_SCHEMA - 1
            }
        );
        let actions = gc_dir(&dir).unwrap();
        assert!(
            matches!(&actions[..], [GcAction::RemovedCheckpoint { reason, .. }] if reason.contains("schema")),
            "{actions:?}"
        );
        assert!(!old.exists());
        let quarantined = old.with_file_name(format!(
            "{}.corrupt",
            old.file_name().unwrap().to_string_lossy()
        ));
        assert!(!quarantined.exists(), "a stale checkpoint is not corrupt");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_quarantines_undecodable_and_prunes_stale() {
        let dir = std::env::temp_dir().join(format!("heteronoc-cache-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let good = format!("{{\"key\":\"{}\",\"metrics\":{{}}}}", content_key("p"));
        let stale = format!("{{\"key\":\"v1-{}\",\"metrics\":{{}}}}", "0".repeat(32));
        // One file mixing valid + stale lines, one with an undecodable line.
        fs::write(dir.join("points.jsonl"), format!("{good}\n{stale}\n")).unwrap();
        fs::write(dir.join("torn.jsonl"), format!("{good}\n{{\"key\": tru")).unwrap();

        let reports = verify_dir(&dir).unwrap();
        assert_eq!(reports.len(), 2);
        let points = reports
            .iter()
            .find(|r| r.path.ends_with("points.jsonl"))
            .unwrap();
        assert_eq!((points.valid, points.stale), (1, 1));
        assert!(!points.is_clean());
        let torn = reports
            .iter()
            .find(|r| r.path.ends_with("torn.jsonl"))
            .unwrap();
        assert_eq!(torn.undecodable, 1);

        let actions = gc_dir(&dir).unwrap();
        assert!(actions.iter().any(|a| matches!(
            a,
            GcAction::Pruned {
                kept: 1,
                dropped: 1,
                ..
            }
        )));
        assert!(actions
            .iter()
            .any(|a| matches!(a, GcAction::Quarantined { .. })));
        assert!(dir.join("torn.jsonl.corrupt").exists());
        assert!(!dir.join("torn.jsonl").exists());
        // The pruned file now audits clean and kept only the valid line.
        let after = verify_dir(&dir).unwrap();
        assert_eq!(after.len(), 1);
        assert!(after[0].is_clean());
        assert_eq!(after[0].valid, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
