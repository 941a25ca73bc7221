//! Content-hash incremental cache.
//!
//! One entry per file: the FNV-1a hash of its bytes
//! ([`hrviz_obs::fingerprint64`]) plus the [`FileFacts`] the analysis
//! produced. On the next run a file whose hash is unchanged skips
//! lexing/parsing entirely — its facts feed the global passes straight
//! from the cache. The cache header pins a fingerprint of the rule
//! catalog, so adding/removing/renaming a rule invalidates every entry
//! at once.
//!
//! The file lives in `target/` by default (derived state, never checked
//! in); a corrupt or missing cache just means a cold run.

use crate::facts::FileFacts;
use crate::rules::RULES;
use hrviz_obs::{fingerprint64, Json};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Fingerprint of the rule catalog: any change to the rule set (or the
/// cache schema, via the version salt) must invalidate cached facts.
fn catalog_fingerprint() -> u64 {
    let mut ids = String::from("v1;");
    for r in RULES {
        ids.push_str(r.id);
        ids.push(';');
    }
    fingerprint64(&ids)
}

/// The on-disk cache, keyed by workspace-relative path.
#[derive(Default)]
pub struct Cache {
    entries: BTreeMap<String, (u64, FileFacts)>,
}

impl Cache {
    /// Load from `path`. Missing, unreadable, corrupt, or written by a
    /// different rule catalog all collapse to an empty cache — a cold
    /// run, never an error.
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = std::fs::read_to_string(path) else { return Cache::default() };
        let Ok(doc) = Json::parse(&text) else { return Cache::default() };
        let fingerprint = doc.get("catalog").and_then(Json::as_u64);
        if fingerprint != Some(catalog_fingerprint()) {
            return Cache::default();
        }
        let mut entries = BTreeMap::new();
        let Some(files) = doc.get("files").and_then(Json::as_array) else {
            return Cache::default();
        };
        for e in files {
            let Some(rel) = e.get("path").and_then(Json::as_str) else { continue };
            let Some(hash) = e.get("hash").and_then(Json::as_u64) else { continue };
            // An entry whose facts fail to parse (e.g. a finding naming a
            // removed rule) is simply dropped: that file re-parses.
            let Some(facts) = e.get("facts").and_then(FileFacts::from_json) else { continue };
            entries.insert(rel.to_string(), (hash, facts));
        }
        Cache { entries }
    }

    /// Facts for `rel` if its content hash still matches.
    pub fn lookup(&self, rel: &str, hash: u64) -> Option<&FileFacts> {
        self.entries.get(rel).filter(|(h, _)| *h == hash).map(|(_, f)| f)
    }

    /// Record the facts for `rel` at content hash `hash`.
    pub fn insert(&mut self, rel: String, hash: u64, facts: FileFacts) {
        self.entries.insert(rel, (hash, facts));
    }

    /// Drop entries for files no longer in the scan set.
    pub fn retain_files(&mut self, live: &dyn Fn(&str) -> bool) {
        self.entries.retain(|rel, _| live(rel));
    }

    /// Persist to `path` (creating parent directories).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let files = self.entries.iter().map(|(rel, (hash, facts))| {
            Json::obj([
                ("path", Json::Str(rel.clone())),
                ("hash", Json::U64(*hash)),
                ("facts", facts.to_json()),
            ])
        });
        let doc = Json::obj([
            ("version", Json::U64(1)),
            ("catalog", Json::U64(catalog_fingerprint())),
            ("files", Json::Arr(files.collect())),
        ]);
        std::fs::write(path, doc.render() + "\n")
    }

    /// Number of cached files (for tests and stats).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    #[test]
    fn fingerprint64_matches_fnv1a_reference_vectors() {
        // Published FNV-1a test vectors: cache keys are FNV-1a hashes.
        assert_eq!(fingerprint64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint64("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn cache_round_trips_and_rejects_stale_hashes() {
        let dir = std::env::temp_dir().join("hrviz-lint-cache-test");
        let path = dir.join("cache.json");
        let mut cache = Cache::default();
        let facts = FileFacts {
            findings: vec![Finding {
                rule: "panic_unwrap",
                file: "crates/cli/src/lib.rs".into(),
                line: 3,
                snippet: "x.unwrap()".into(),
                message: "m".into(),
                baselined: false,
            }],
            edges: Vec::new(),
            writes: Vec::new(),
        };
        cache.insert("crates/cli/src/lib.rs".into(), 42, facts.clone());
        cache.save(&path).expect("save");
        let loaded = Cache::load(&path);
        assert_eq!(loaded.len(), 1);
        let hit = loaded.lookup("crates/cli/src/lib.rs", 42).expect("hash match hits");
        assert_eq!(hit.findings, facts.findings);
        assert!(loaded.lookup("crates/cli/src/lib.rs", 43).is_none(), "stale hash misses");
        assert!(loaded.lookup("crates/cli/src/other.rs", 42).is_none(), "unknown path misses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_missing_cache_is_a_cold_run() {
        assert!(Cache::load(Path::new("/nonexistent/cache.json")).is_empty());
        let dir = std::env::temp_dir().join("hrviz-lint-cache-corrupt");
        let path = dir.join("cache.json");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(&path, "{not json").expect("write");
        assert!(Cache::load(&path).is_empty());
        // A cache from a different rule catalog is ignored wholesale.
        std::fs::write(&path, "{\"version\":1,\"catalog\":7,\"files\":[]}").expect("write");
        assert!(Cache::load(&path).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
