//! The durable campus every run starts from.
//!
//! The campus is generated once at 10% of paper scale with the
//! generator's own fixed seed, copied table by table into a durable store
//! written with fsync off (set-up only), and checkpointed, so that
//! opening it is snapshot recovery with an empty WAL tail. Each run works
//! on a fresh copy of that directory and never touches the cached
//! original.
//!
//! The cached campus is named after a digest of the sources that build
//! it (`run.py` passes it as the key), so checkouts of different code
//! that share a build directory never serve each other's campus.
//!
//! The campus does not vary with the benchmark seed: the seed picks the
//! request stream over one fixed campus and popularity model, so runs
//! with different seeds measure the same system under different sample
//! paths instead of different systems.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use courserank::db::CourseRankDb;
use cr_datagen::ScaleConfig;
use cr_storage::{FsBackend, FsyncPolicy, StorageConfig, WalConfig};

/// Fraction of the paper's campus the benchmark serves.
pub const SCALE: f64 = 0.1;

/// Build the durable campus for source digest `key` under `work` unless
/// it is already there, and return its directory.
pub fn ensure(work: &Path, key: &str) -> Result<PathBuf, String> {
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric()) {
        return Err(format!("fixture key {key:?} must be letters and digits"));
    }
    fs::create_dir_all(work).map_err(|e| format!("work dir {}: {e}", work.display()))?;
    let dir = work.join(format!("campus-{key}"));
    if dir.join("READY").exists() {
        return Ok(dir);
    }
    let tmp = work.join(format!("campus-{key}.tmp-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    build(&tmp)?;
    fs::write(tmp.join("READY"), b"ok\n").map_err(|e| format!("mark fixture: {e}"))?;
    fs::rename(&tmp, &dir).map_err(|e| format!("publish fixture {}: {e}", dir.display()))?;
    Ok(dir)
}

fn build(dir: &Path) -> Result<(), String> {
    let config = ScaleConfig::scaled(SCALE);
    let (mem, stats) = cr_datagen::generate(&config).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: generated campus (datagen seed {:#x}): {}",
        config.seed,
        stats.summary()
    );
    let backend = Arc::new(FsBackend::open(dir).map_err(|e| e.to_string())?);
    let setup_only = StorageConfig {
        wal: WalConfig {
            fsync: FsyncPolicy::Never,
            group_commit: 4096,
        },
        ..StorageConfig::default()
    };
    let (durable, _) =
        CourseRankDb::open_with_backend(backend, setup_only).map_err(|e| e.to_string())?;
    let src = mem.database();
    let dst = durable.database();
    let tables = src.catalog().table_names();
    if tables != dst.catalog().table_names() {
        return Err("generated campus and durable schema disagree on tables".to_owned());
    }
    for table in &tables {
        let rows = src
            .query_sql(&format!("SELECT * FROM {table}"))
            .map_err(|e| e.to_string())?
            .rows;
        dst.insert_many(table, rows).map_err(|e| e.to_string())?;
    }
    durable.checkpoint().map_err(|e| e.to_string())?;
    Ok(())
}

/// Copy the fixture into a fresh run directory.
pub fn fresh_copy(fixture: &Path, run: &Path) -> io::Result<()> {
    let _ = fs::remove_dir_all(run);
    fs::create_dir_all(run)?;
    for entry in fs::read_dir(fixture)? {
        let entry = entry?;
        if entry.file_name() != "READY" {
            fs::copy(entry.path(), run.join(entry.file_name()))?;
        }
    }
    Ok(())
}
