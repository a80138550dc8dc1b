//! The generational snapshot store: crash-safe persistence for
//! [`DaemonSnapshot`]s.
//!
//! The first daemon persisted one `snapshot.json` via write-temp-then
//! -rename, and treated any corruption as fatal. That contract is wrong
//! for the crashes the daemon does not choose: a power cut or SIGKILL
//! mid-write leaves a torn file, and refusing to start turns a recoverable
//! hiccup into an outage at the paper's single most availability-critical
//! component (the Central Controller). This store makes corruption
//! *degraded-but-correct* instead:
//!
//! * Every save writes a **new** file, `snapshot.<gen>.json`, and never
//!   touches older generations — so a crash at any instant can tear at
//!   most the newest file.
//! * Each file starts with a WSNP header — magic, site-id length
//!   (u32 BE), site-id bytes — stamping *whose* snapshots these are, and
//!   ends in a 12-byte trailer — magic `WSNP`, payload length, and
//!   CRC-32 (both big-endian) — so truncation, bit rot, and partial
//!   writes are detected at load time instead of being parsed into
//!   silently-wrong controller state. The CRC covers header and payload
//!   alike, so damage *anywhere* reads as damage (a rollback), while an
//!   intact file stamped for a different site is the distinct, fatal
//!   [`SnapshotCorrupt::WrongSite`]: a mis-wired fleet root must never
//!   silently adopt another PLC segment's controller state. The
//!   single-site daemon stamps the empty site id.
//! * [`SnapshotStore::load`] walks generations newest-first and returns
//!   the first one that verifies, counting each skipped generation in
//!   `daemon.snapshot_rollbacks`. An empty store is a cold start, and so
//!   is the one damaged layout a single crash can actually produce with
//!   nothing to roll back to — a lone, torn generation 0 (the first save
//!   tore). Any other "every generation is damaged" layout is an error.
//! * After a durable save (`fsync` file, then directory), generations
//!   older than the configured `keep` window are pruned.
//!
//! Rolling back one generation re-runs one epoch. That is safe because
//! the controller replays deterministically: the snapshot holds the
//! complete decision state, agents re-derive theirs from the handshake,
//! and the workspace chaos tests pin byte-identical final reports across
//! a rollback.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use wolt_support::crash_point;
use wolt_support::crc::crc32;
use wolt_support::json::{FromJson, Json, ToJson};
use wolt_support::obs;

use crate::error::SnapshotCorrupt;
use crate::snapshot::DaemonSnapshot;
use crate::DaemonError;

/// Header and trailer magic: marks a fully-written snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"WSNP";

/// Trailer size: magic, payload length (u32 BE), CRC-32 (u32 BE) of
/// everything before the trailer (header + payload).
pub const TRAILER_BYTES: usize = 12;

/// Fixed header size before the site-id bytes: magic, site-id length
/// (u32 BE).
pub const HEADER_BYTES: usize = 8;

/// Number of generations each daemon site keeps on disk.
pub const DEFAULT_KEEP: usize = 3;

/// Crash point: fires between the two halves of the payload write, so an
/// armed plan leaves a genuinely torn newest generation behind.
pub const CRASH_MID_WRITE: &str = "daemon.snapshot.mid_write";

/// Crash point: fires after the durable write but before old generations
/// are pruned, leaving more generations than `keep` behind.
pub const CRASH_PRE_PRUNE: &str = "daemon.snapshot.pre_prune";

/// A directory of checksummed snapshot generations, stamped with the
/// site they belong to.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    keep: usize,
    site: String,
    next_generation: u64,
}

impl SnapshotStore {
    /// Opens (creating if needed) the store at `dir`, keeping the last
    /// `keep` generations on disk. The store is stamped with the empty
    /// site id — the single-site daemon's store; a fleet uses
    /// [`SnapshotStore::open_site`] with each site's id.
    ///
    /// # Errors
    ///
    /// [`DaemonError::InvalidConfig`] when `keep` is zero;
    /// [`DaemonError::Io`] when the directory cannot be created or read.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, DaemonError> {
        Self::open_site(dir, keep, "")
    }

    /// Opens (creating if needed) the store at `dir` for `site`: saves
    /// stamp the site id into every snapshot header, and loads refuse —
    /// with the typed [`SnapshotCorrupt::WrongSite`] — a directory whose
    /// intact snapshots are stamped for a different site.
    ///
    /// # Errors
    ///
    /// As [`SnapshotStore::open`].
    pub fn open_site(
        dir: impl Into<PathBuf>,
        keep: usize,
        site: &str,
    ) -> Result<Self, DaemonError> {
        if keep == 0 {
            return Err(DaemonError::InvalidConfig {
                context: "snapshot store must keep at least one generation".into(),
            });
        }
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let next_generation = Self::scan(&dir)?.last().map_or(0, |&g| g + 1);
        Ok(Self {
            dir,
            keep,
            site: site.to_string(),
            next_generation,
        })
    }

    /// The site this store is stamped for (empty for a single-site
    /// daemon's store).
    pub fn site(&self) -> &str {
        &self.site
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of one generation.
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("snapshot.{generation}.json"))
    }

    /// Generation numbers currently on disk, ascending.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn generations(&self) -> Result<Vec<u64>, DaemonError> {
        Self::scan(&self.dir)
    }

    fn scan(dir: &Path) -> Result<Vec<u64>, DaemonError> {
        let mut generations = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(gen) = name
                .strip_prefix("snapshot.")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                generations.push(gen);
            }
        }
        generations.sort_unstable();
        Ok(generations)
    }

    /// Writes `snapshot` as the next generation, fsyncs it durable, then
    /// prunes generations beyond the keep window. Returns the generation
    /// number written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures. A failed save never damages
    /// existing generations — each save is a fresh file.
    pub fn save(&mut self, snapshot: &DaemonSnapshot) -> Result<u64, DaemonError> {
        let generation = self.next_generation;
        let bytes = encode_snapshot(snapshot, &self.site);
        let path = self.generation_path(generation);
        {
            let mut file = File::create(&path)?;
            // Two-part payload write with a declared crash point between:
            // an armed chaos plan aborts here with the newest generation
            // genuinely torn, which is exactly the state a power cut
            // leaves and the state `load` must roll back from.
            let mid = bytes.len() / 2;
            file.write_all(&bytes[..mid])?;
            crash_point!(CRASH_MID_WRITE);
            file.write_all(&bytes[mid..])?;
            file.sync_all()?;
        }
        // Make the new directory entry itself durable (best-effort on
        // platforms where directories cannot be opened for sync).
        if let Ok(dirfd) = File::open(&self.dir) {
            let _ = dirfd.sync_all();
        }
        self.next_generation = generation + 1;
        obs::counter_inc("daemon.snapshots");
        crash_point!(CRASH_PRE_PRUNE);
        self.prune(generation)?;
        Ok(generation)
    }

    /// Removes generations older than the keep window ending at `newest`.
    fn prune(&self, newest: u64) -> Result<(), DaemonError> {
        for generation in self.generations()? {
            if generation + self.keep as u64 <= newest {
                fs::remove_file(self.generation_path(generation))?;
                obs::counter_inc("daemon.snapshot_pruned");
            }
        }
        Ok(())
    }

    /// Loads the newest generation that verifies, rolling back over
    /// damaged ones (each recorded in `daemon.snapshot_rollbacks`).
    /// `Ok(None)` is an empty store — a cold start.
    ///
    /// One damaged layout is also a cold start rather than an error: a
    /// lone, torn generation 0. That is exactly the state a crash during
    /// the *first ever* save leaves (prune runs only after a durable
    /// save, so a lone generation N > 0 cannot exist with N torn), and
    /// replaying the session from scratch re-derives everything the lost
    /// snapshot held. Every other all-invalid layout cannot be produced
    /// by a single crash — each save is a fresh file — so it is treated
    /// as wholesale corruption and stays fatal.
    ///
    /// # Errors
    ///
    /// [`DaemonError::SnapshotCorrupt`] with
    /// [`SnapshotCorrupt::AllInvalid`] when generations beyond a lone
    /// torn first save exist but none verifies, or with
    /// [`SnapshotCorrupt::WrongSite`] when an intact generation is
    /// stamped for a different site (no fallback: the older generations
    /// are equally foreign); [`DaemonError::Io`] for directory-read
    /// failures.
    pub fn load(&self) -> Result<Option<(u64, DaemonSnapshot)>, DaemonError> {
        let generations = self.generations()?;
        if generations.is_empty() {
            return Ok(None);
        }
        let mut damage: Vec<String> = Vec::new();
        for &generation in generations.iter().rev() {
            let path = self.generation_path(generation);
            match fs::read(&path) {
                Ok(bytes) => match decode_snapshot(&bytes, &self.site) {
                    Ok(snapshot) => {
                        if !damage.is_empty() {
                            obs::counter_add("daemon.snapshot_rollbacks", damage.len() as u64);
                        }
                        return Ok(Some((generation, snapshot)));
                    }
                    // An intact snapshot for another site is not damage
                    // to roll back over: the whole directory belongs to
                    // someone else.
                    Err(SnapshotDamage::WrongSite { found }) => {
                        return Err(DaemonError::SnapshotCorrupt(SnapshotCorrupt::WrongSite {
                            dir: self.dir.display().to_string(),
                            expected: self.site.clone(),
                            found,
                        }))
                    }
                    Err(SnapshotDamage::Damaged(reason)) => {
                        damage.push(format!("generation {generation}: {reason}"))
                    }
                },
                // A file that vanished between the scan and the read
                // (e.g. a concurrent prune) is treated like damage: fall
                // through to the next older generation.
                Err(e) => damage.push(format!("generation {generation}: {e}")),
            }
        }
        if generations == [0] {
            obs::counter_inc("daemon.snapshot_rollbacks");
            return Ok(None);
        }
        Err(DaemonError::SnapshotCorrupt(SnapshotCorrupt::AllInvalid {
            context: format!(
                "no valid snapshot generation in {}: {}",
                self.dir.display(),
                damage.join("; ")
            ),
        }))
    }
}

/// Why [`decode_snapshot`] refused one generation's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDamage {
    /// The bytes fail verification (torn write, bit rot, garbage): a
    /// rollback candidate — older generations may still verify.
    Damaged(String),
    /// The bytes verify completely but the header stamps a different
    /// site: the store belongs to someone else, and rolling back cannot
    /// help.
    WrongSite {
        /// The site id stamped in the header.
        found: String,
    },
}

impl std::fmt::Display for SnapshotDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotDamage::Damaged(reason) => write!(f, "{reason}"),
            SnapshotDamage::WrongSite { found } => {
                write!(f, "snapshot is stamped for site {found:?}")
            }
        }
    }
}

/// Serializes a snapshot to its on-disk bytes: the WSNP site header
/// (magic, site-id length, site-id bytes), canonical compact JSON, then
/// the length+CRC trailer. The CRC covers header and payload.
pub fn encode_snapshot(snapshot: &DaemonSnapshot, site: &str) -> Vec<u8> {
    let payload = snapshot.to_json().to_compact().into_bytes();
    let site_len = u32::try_from(site.len()).expect("site id fits in u32");
    let mut bytes = Vec::with_capacity(HEADER_BYTES + site.len() + payload.len() + TRAILER_BYTES);
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&site_len.to_be_bytes());
    bytes.extend_from_slice(site.as_bytes());
    bytes.extend_from_slice(&payload);
    let len = u32::try_from(payload.len()).expect("snapshot payload fits in u32");
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&len.to_be_bytes());
    bytes.extend_from_slice(&crc.to_be_bytes());
    bytes
}

/// Verifies and parses one generation's on-disk bytes against the site
/// the store was opened for.
///
/// # Errors
///
/// [`SnapshotDamage::Damaged`] with a human-readable description of the
/// first verification failure (torn trailer, length mismatch, checksum
/// mismatch, malformed header or JSON);
/// [`SnapshotDamage::WrongSite`] when the bytes verify but are stamped
/// for a different site. Never panics, whatever the input bytes.
pub fn decode_snapshot(
    bytes: &[u8],
    expected_site: &str,
) -> Result<DaemonSnapshot, SnapshotDamage> {
    let damaged = SnapshotDamage::Damaged;
    if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(damaged(format!(
            "file of {} bytes is shorter than the {} header+trailer bytes (torn write)",
            bytes.len(),
            HEADER_BYTES + TRAILER_BYTES
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_BYTES);
    if trailer[..4] != SNAPSHOT_MAGIC {
        return Err(damaged("trailer magic missing (torn write)".into()));
    }
    let stated_crc = u32::from_be_bytes([trailer[8], trailer[9], trailer[10], trailer[11]]);
    let actual_crc = crc32(body);
    if stated_crc != actual_crc {
        return Err(damaged(format!(
            "checksum mismatch: trailer {stated_crc:#010x}, file {actual_crc:#010x}"
        )));
    }
    // The checksum held, so the header and payload are exactly what a
    // save wrote; any inconsistency past this point is an encoder bug,
    // reported as damage rather than trusted.
    if body[..4] != SNAPSHOT_MAGIC {
        return Err(damaged("header magic missing".into()));
    }
    let site_len = u32::from_be_bytes([body[4], body[5], body[6], body[7]]) as usize;
    if HEADER_BYTES + site_len > body.len() {
        return Err(damaged(format!(
            "header states a {site_len}-byte site id, file has {} bytes before the trailer",
            body.len().saturating_sub(HEADER_BYTES)
        )));
    }
    let (site_bytes, payload) = body[HEADER_BYTES..].split_at(site_len);
    let site =
        std::str::from_utf8(site_bytes).map_err(|_| damaged("site id is not UTF-8".into()))?;
    let stated_len = u32::from_be_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]) as usize;
    if stated_len != payload.len() {
        return Err(damaged(format!(
            "trailer states {stated_len} payload bytes, file has {}",
            payload.len()
        )));
    }
    if site != expected_site {
        return Err(SnapshotDamage::WrongSite {
            found: site.to_string(),
        });
    }
    let text =
        std::str::from_utf8(payload).map_err(|_| damaged("payload is not UTF-8".to_string()))?;
    let json = Json::parse(text).map_err(|e| damaged(format!("payload is not JSON: {e}")))?;
    DaemonSnapshot::from_json(&json).map_err(|e| damaged(format!("payload shape: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolt_testbed::{ControllerConfig, ControllerCore, ControllerPolicy};
    use wolt_units::Mbps;

    fn sample(epochs_done: usize) -> DaemonSnapshot {
        let mut core = ControllerCore::new(
            2,
            ControllerConfig {
                policy: ControllerPolicy::Wolt,
                estimated_capacities: vec![Mbps::new(50.0), Mbps::new(30.0)],
                strict: false,
            },
        );
        core.handle_report(0, 0, &[Some(Mbps::new(20.0)), Some(Mbps::new(5.0))], 0)
            .unwrap();
        DaemonSnapshot {
            epochs_done,
            present: vec![true, false],
            unresponsive: vec![false, false],
            initial_attach: vec![Some(0), None],
            retries: epochs_done,
            core: core.snapshot(),
        }
    }

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!(
            "wolt-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::open(dir, DEFAULT_KEEP).unwrap()
    }

    #[test]
    fn empty_store_is_a_cold_start() {
        let store = temp_store("cold");
        assert!(store.load().unwrap().is_none());
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn save_load_round_trips_newest_generation() {
        let mut store = temp_store("roundtrip");
        assert_eq!(store.save(&sample(1)).unwrap(), 0);
        assert_eq!(store.save(&sample(2)).unwrap(), 1);
        let (generation, snapshot) = store.load().unwrap().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(snapshot, sample(2));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn prunes_to_the_keep_window_and_reopens_past_it() {
        let mut store = temp_store("prune");
        for epoch in 1..=5 {
            store.save(&sample(epoch)).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![2, 3, 4]);
        // Reopening continues the generation sequence instead of
        // clobbering survivors.
        let dir = store.dir().to_path_buf();
        drop(store);
        let mut reopened = SnapshotStore::open(dir, DEFAULT_KEEP).unwrap();
        assert_eq!(reopened.save(&sample(6)).unwrap(), 5);
        fs::remove_dir_all(reopened.dir()).unwrap();
    }

    // The seed repo pinned `corrupt_snapshot_is_an_error_not_a_cold_start`:
    // any damage was fatal. The generational contract splits that into the
    // two tests below — damage *rolls back*, and only "all generations
    // damaged" remains an error (still never a silent cold start).
    #[test]
    fn corrupt_newest_generation_falls_back_to_previous_valid_one() {
        let mut store = temp_store("fallback");
        store.save(&sample(1)).unwrap();
        store.save(&sample(2)).unwrap();
        // Flip one payload byte of the newest generation.
        let newest = store.generation_path(1);
        let mut bytes = fs::read(&newest).unwrap();
        bytes[3] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        let (generation, snapshot) = store.load().unwrap().unwrap();
        assert_eq!(generation, 0);
        assert_eq!(snapshot, sample(1));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn truncated_newest_generation_falls_back_torn_write() {
        let mut store = temp_store("torn");
        store.save(&sample(1)).unwrap();
        store.save(&sample(2)).unwrap();
        // A torn write: the newest generation holds a strict prefix of
        // its intended bytes (trailer never made it).
        let newest = store.generation_path(1);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
        let (generation, snapshot) = store.load().unwrap().unwrap();
        assert_eq!(generation, 0);
        assert_eq!(snapshot, sample(1));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn torn_first_save_is_a_cold_start_not_an_outage() {
        // A crash during the very first save leaves exactly one torn
        // generation 0 — nothing older exists to roll back to, and a
        // cold start re-derives everything the lost snapshot held.
        let mut store = temp_store("firstsave");
        store.save(&sample(1)).unwrap();
        let only = store.generation_path(0);
        let bytes = fs::read(&only).unwrap();
        fs::write(&only, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load().unwrap().is_none());
        // A lone torn generation N > 0 cannot come from one crash
        // (prune runs only after a durable save), so it stays fatal.
        fs::rename(&only, store.generation_path(4)).unwrap();
        assert!(matches!(
            store.load(),
            Err(DaemonError::SnapshotCorrupt { .. })
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn all_generations_invalid_is_an_error_not_a_cold_start() {
        let mut store = temp_store("allbad");
        store.save(&sample(1)).unwrap();
        store.save(&sample(2)).unwrap();
        for generation in store.generations().unwrap() {
            fs::write(store.generation_path(generation), "{not json").unwrap();
        }
        assert!(matches!(
            store.load(),
            Err(DaemonError::SnapshotCorrupt { .. })
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn decode_rejects_every_trailer_violation() {
        let bytes = encode_snapshot(&sample(3), "");
        assert_eq!(decode_snapshot(&bytes, "").unwrap(), sample(3));
        // Too short for a trailer.
        assert!(decode_snapshot(&bytes[..TRAILER_BYTES - 1], "").is_err());
        // Trailer magic damaged.
        let mut bad = bytes.clone();
        let magic_at = bad.len() - TRAILER_BYTES;
        bad[magic_at] = b'X';
        assert!(decode_snapshot(&bad, "").is_err());
        // Length field inconsistent (bytes removed mid-file).
        let mut torn = bytes.clone();
        torn.drain(10..20);
        assert!(decode_snapshot(&torn, "").is_err());
        // Bit flips in the payload *and* in the header are both caught
        // by the checksum — a flipped site byte must read as damage
        // (rollback), never as a spurious wrong-site refusal.
        for at in [0, 5, HEADER_BYTES + 3] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            assert!(matches!(
                decode_snapshot(&flipped, ""),
                Err(SnapshotDamage::Damaged(_))
            ));
        }
    }

    #[test]
    fn site_stamp_round_trips_and_mismatch_is_typed() {
        let bytes = encode_snapshot(&sample(2), "floor-3");
        assert_eq!(decode_snapshot(&bytes, "floor-3").unwrap(), sample(2));
        assert_eq!(
            decode_snapshot(&bytes, "annex"),
            Err(SnapshotDamage::WrongSite {
                found: "floor-3".into()
            })
        );
        // The single-site daemon (empty stamp) refuses a fleet site's
        // store, and vice versa.
        assert_eq!(
            decode_snapshot(&bytes, ""),
            Err(SnapshotDamage::WrongSite {
                found: "floor-3".into()
            })
        );
        let unstamped = encode_snapshot(&sample(2), "");
        assert_eq!(
            decode_snapshot(&unstamped, "floor-3"),
            Err(SnapshotDamage::WrongSite { found: "".into() })
        );
    }

    #[test]
    fn store_for_one_site_refuses_another_sites_directory() {
        let store = temp_store("wrongsite");
        let dir = store.dir().to_path_buf();
        drop(store);
        let _ = fs::remove_dir_all(&dir);
        let mut alpha = SnapshotStore::open_site(&dir, DEFAULT_KEEP, "alpha").unwrap();
        alpha.save(&sample(1)).unwrap();
        assert!(alpha.load().unwrap().is_some());
        let beta = SnapshotStore::open_site(&dir, DEFAULT_KEEP, "beta").unwrap();
        match beta.load() {
            Err(DaemonError::SnapshotCorrupt(SnapshotCorrupt::WrongSite {
                expected,
                found,
                ..
            })) => {
                assert_eq!(expected, "beta");
                assert_eq!(found, "alpha");
            }
            other => panic!("expected WrongSite, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_snapshot_files_in_the_directory_are_ignored() {
        let mut store = temp_store("strays");
        store.save(&sample(1)).unwrap();
        fs::write(store.dir().join("snapshot.notanumber.json"), "x").unwrap();
        fs::write(store.dir().join("README"), "x").unwrap();
        assert_eq!(store.generations().unwrap(), vec![0]);
        assert!(store.load().unwrap().is_some());
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn zero_keep_is_rejected() {
        let dir = std::env::temp_dir().join("wolt-store-zerokeep");
        assert!(matches!(
            SnapshotStore::open(dir, 0),
            Err(DaemonError::InvalidConfig { .. })
        ));
    }
}
