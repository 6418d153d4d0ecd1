//! Crash-consistent checkpoint manifests for resumable joins.
//!
//! A manifest is an append-only journal file sitting *next to* the paged
//! data file. Each record is individually CRC-sealed (reusing the page
//! checksum polynomial, [`crate::page::crc32`]), so a reader can always
//! recover the longest valid prefix of a torn journal: a crash mid-append
//! loses at most the record being written, never an earlier one.
//!
//! The write protocol makes referenced pages durable *before* the record
//! that points at them:
//!
//! 1. flush dirty pages ([`crate::StorageEngine::flush_all`]),
//! 2. `fsync` the data file ([`crate::StorageEngine::sync`]),
//! 3. append the manifest record,
//! 4. `fsync` the manifest.
//!
//! [`Checkpointer::checkpoint`] performs exactly that sequence and then
//! visits the named [`crate::fault::FaultPlan`] crash point, so seeded
//! crash tests abort precisely *after* a checkpoint is durable.
//!
//! Atomicity granule: one record. Multi-file transitions (a merge output
//! replacing its consumed runs) are therefore a *single*
//! [`ManifestRecord::FileSealed`] whose `replaces` list retires the
//! consumed files — a torn tail either has the whole transition or none
//! of it, never a state where both the merge output and its inputs look
//! live.

use crate::file::RecordFile;
use crate::page::{crc32, PageId};
use crate::StorageEngine;
use hdsj_core::{Error, LifecycleCtx, Result};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Manifest format version, stored in the [`ManifestRecord::Start`] record.
pub const MANIFEST_VERSION: u32 = 1;

/// Upper bound on a single record's payload; anything larger is treated as
/// a torn/corrupt tail rather than an attempt to allocate gigabytes.
const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

const TAG_START: u8 = 1;
const TAG_FILE_SEALED: u8 = 2;
const TAG_FILE_DROPPED: u8 = 3;
const TAG_MARK: u8 = 4;

/// One journal entry. See the module docs for the durability protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManifestRecord {
    /// First record of every manifest: format version plus a fingerprint
    /// of the query parameters, so a resume with different parameters is
    /// rejected instead of producing silently different results.
    Start { version: u32, fingerprint: u64 },
    /// A [`RecordFile`] is complete and its pages are durable. `replaces`
    /// atomically retires earlier files consumed to produce this one.
    FileSealed {
        tag: String,
        record_len: u32,
        len: u64,
        pages: Vec<PageId>,
        replaces: Vec<String>,
    },
    /// A sealed file is no longer needed (its pages become orphans that
    /// the next resume returns to the freelist).
    FileDropped { tag: String },
    /// A named progress marker (phase flags, counters).
    Mark { name: String, value: u64 },
}

impl ManifestRecord {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            ManifestRecord::Start {
                version,
                fingerprint,
            } => {
                p.push(TAG_START);
                p.extend_from_slice(&version.to_le_bytes());
                p.extend_from_slice(&fingerprint.to_le_bytes());
            }
            ManifestRecord::FileSealed {
                tag,
                record_len,
                len,
                pages,
                replaces,
            } => {
                p.push(TAG_FILE_SEALED);
                put_str(&mut p, tag);
                p.extend_from_slice(&record_len.to_le_bytes());
                p.extend_from_slice(&len.to_le_bytes());
                p.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for &pg in pages {
                    p.extend_from_slice(&pg.to_le_bytes());
                }
                p.extend_from_slice(&(replaces.len() as u32).to_le_bytes());
                for r in replaces {
                    put_str(&mut p, r);
                }
            }
            ManifestRecord::FileDropped { tag } => {
                p.push(TAG_FILE_DROPPED);
                put_str(&mut p, tag);
            }
            ManifestRecord::Mark { name, value } => {
                p.push(TAG_MARK);
                put_str(&mut p, name);
                p.extend_from_slice(&value.to_le_bytes());
            }
        }
        p
    }

    fn decode(payload: &[u8]) -> Result<ManifestRecord> {
        let mut c = Decoder { buf: payload };
        let rec = match c.u8()? {
            TAG_START => ManifestRecord::Start {
                version: c.u32()?,
                fingerprint: c.u64()?,
            },
            TAG_FILE_SEALED => {
                let tag = c.str()?;
                let record_len = c.u32()?;
                let len = c.u64()?;
                let n = c.u32()? as usize;
                let mut pages = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    pages.push(c.u64()?);
                }
                let m = c.u32()? as usize;
                let mut replaces = Vec::with_capacity(m.min(1 << 10));
                for _ in 0..m {
                    replaces.push(c.str()?);
                }
                ManifestRecord::FileSealed {
                    tag,
                    record_len,
                    len,
                    pages,
                    replaces,
                }
            }
            TAG_FILE_DROPPED => ManifestRecord::FileDropped { tag: c.str()? },
            TAG_MARK => ManifestRecord::Mark {
                name: c.str()?,
                value: c.u64()?,
            },
            t => {
                return Err(Error::Corruption(format!(
                    "manifest record with unknown type tag {t}"
                )))
            }
        };
        if !c.buf.is_empty() {
            return Err(Error::Corruption(
                "manifest record has trailing bytes".into(),
            ));
        }
        Ok(rec)
    }
}

fn put_str(p: &mut Vec<u8>, s: &str) {
    p.extend_from_slice(&(s.len() as u16).to_le_bytes());
    p.extend_from_slice(s.as_bytes());
}

struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Error::Corruption("manifest record truncated".into()));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(
            |_| Error::Corruption("manifest u32 truncated".into()),
        )?))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().map_err(
            |_| Error::Corruption("manifest u64 truncated".into()),
        )?))
    }
    fn str(&mut self) -> Result<String> {
        let n = u16::from_le_bytes(
            self.take(2)?
                .try_into()
                .map_err(|_| Error::Corruption("manifest string length truncated".into()))?,
        ) as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corruption("manifest string is not UTF-8".into()))
    }
}

/// The journal file: append + fsync. Reading happens once, at open.
pub struct Manifest {
    file: File,
}

impl Manifest {
    /// Creates (truncating) a manifest and writes its [`ManifestRecord::Start`]
    /// record. The start record is synced immediately so a resume can
    /// always validate the fingerprint.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Manifest> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut m = Manifest { file };
        m.append(&ManifestRecord::Start {
            version: MANIFEST_VERSION,
            fingerprint,
        })?;
        m.sync()?;
        Ok(m)
    }

    /// Opens an existing manifest, returning its valid record prefix. A
    /// torn or corrupt tail (bad CRC, truncated length, oversized payload)
    /// is *truncated away* so subsequent appends extend the valid prefix.
    pub fn open_append(path: &Path) -> Result<(Manifest, Vec<ManifestRecord>)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        while bytes.len() - pos >= 8 {
            let len = u32::from_le_bytes([
                bytes[pos],
                bytes[pos + 1],
                bytes[pos + 2],
                bytes[pos + 3],
            ]);
            let crc = u32::from_le_bytes([
                bytes[pos + 4],
                bytes[pos + 5],
                bytes[pos + 6],
                bytes[pos + 7],
            ]);
            if len > MAX_PAYLOAD || bytes.len() - pos - 8 < len as usize {
                break; // torn tail
            }
            let payload = &bytes[pos + 8..pos + 8 + len as usize];
            if crc32(payload) != crc {
                break; // corrupt tail
            }
            match ManifestRecord::decode(payload) {
                Ok(rec) => records.push(rec),
                Err(_) => break, // valid CRC but undecodable: stop here too
            }
            pos += 8 + len as usize;
        }
        if pos < bytes.len() {
            file.set_len(pos as u64)?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok((Manifest { file }, records))
    }

    /// Appends one record (CRC-sealed). Not durable until [`Manifest::sync`].
    pub fn append(&mut self, rec: &ManifestRecord) -> Result<()> {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        Ok(())
    }

    /// Forces appended records to durable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

/// A sealed file as the manifest describes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileSpec {
    /// Record length in bytes.
    pub record_len: usize,
    /// Number of records.
    pub len: u64,
    /// Page directory, in file order.
    pub pages: Vec<PageId>,
}

impl FileSpec {
    /// Reconstructs the [`RecordFile`] this spec describes on `engine`.
    pub fn open(&self, engine: &StorageEngine) -> Result<RecordFile> {
        RecordFile::from_parts(engine, self.record_len, self.pages.clone(), self.len)
    }
}

/// The state a replayed manifest describes: which files are live, which
/// markers were reached.
#[derive(Clone, Debug, Default)]
pub struct ManifestState {
    /// Fingerprint from the start record, if present.
    pub fingerprint: Option<u64>,
    /// Live (sealed, not dropped/replaced) files by tag.
    pub files: BTreeMap<String, FileSpec>,
    /// Latest value of each mark.
    pub marks: BTreeMap<String, u64>,
}

impl ManifestState {
    /// Folds a record sequence (from [`Manifest::open_append`]) into the
    /// state it describes.
    pub fn replay(records: &[ManifestRecord]) -> Result<ManifestState> {
        let mut st = ManifestState::default();
        for (i, rec) in records.iter().enumerate() {
            match rec {
                ManifestRecord::Start {
                    version,
                    fingerprint,
                } => {
                    if i != 0 {
                        return Err(Error::Corruption(
                            "manifest start record not first".into(),
                        ));
                    }
                    if *version != MANIFEST_VERSION {
                        return Err(Error::Unsupported(format!(
                            "manifest version {version} (this build reads {MANIFEST_VERSION})"
                        )));
                    }
                    st.fingerprint = Some(*fingerprint);
                }
                ManifestRecord::FileSealed {
                    tag,
                    record_len,
                    len,
                    pages,
                    replaces,
                } => {
                    for r in replaces {
                        st.files.remove(r);
                    }
                    st.files.insert(
                        tag.clone(),
                        FileSpec {
                            record_len: *record_len as usize,
                            len: *len,
                            pages: pages.clone(),
                        },
                    );
                }
                ManifestRecord::FileDropped { tag } => {
                    st.files.remove(tag);
                }
                ManifestRecord::Mark { name, value } => {
                    st.marks.insert(name.clone(), *value);
                }
            }
        }
        Ok(st)
    }

    /// Pages referenced by some live file.
    pub fn live_pages(&self) -> std::collections::BTreeSet<PageId> {
        self.files
            .values()
            .flat_map(|f| f.pages.iter().copied())
            .collect()
    }

    /// Pages of the reopened data file that no live file references —
    /// leftovers of in-flight work at the crash. Feed the result to
    /// [`StorageEngine::adopt_freelist`] so a resumed run reuses them
    /// instead of growing the disk, and so the leak check holds.
    pub fn orphan_pages(&self, num_pages: u64) -> Vec<PageId> {
        let live = self.live_pages();
        (0..num_pages).filter(|p| !live.contains(p)).collect()
    }

    /// Live file tags starting with `prefix`, in tag order.
    pub fn files_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a FileSpec)> + 'a {
        self.files
            .iter()
            .filter(move |(tag, _)| tag.starts_with(prefix))
    }
}

/// Drives the checkpoint protocol: flush → fsync data → append → fsync
/// manifest → visit the fault plan's crash point. Owned by the resumable
/// join; phases call [`Checkpointer::seal_file`] / [`Checkpointer::mark`]
/// at their boundaries.
pub struct Checkpointer {
    engine: StorageEngine,
    manifest: Manifest,
    lifecycle: Option<LifecycleCtx>,
    /// Test hook: return [`Error::Canceled`] the `n`-th time the named
    /// checkpoint completes, *after* it is durable — an in-process stand-in
    /// for a crash that lets property tests exercise resume without
    /// aborting the test runner.
    halt: Option<(String, u64)>,
}

impl Checkpointer {
    /// Wraps `manifest` for checkpointing work on `engine`.
    pub fn new(engine: &StorageEngine, manifest: Manifest) -> Checkpointer {
        Checkpointer {
            engine: engine.clone(),
            manifest,
            lifecycle: None,
            halt: None,
        }
    }

    /// Counts checkpoints in this lifecycle context (and polls it, so a
    /// canceled query stops at the next checkpoint even if the phase
    /// between checkpoints performs no pool I/O).
    pub fn with_lifecycle(mut self, ctx: LifecycleCtx) -> Checkpointer {
        self.lifecycle = Some(ctx);
        self
    }

    /// Arms the in-process halt hook: the `n`-th completion of checkpoint
    /// `point` returns [`Error::Canceled`] after the record is durable.
    pub fn halt_at(&mut self, point: &str, n: u64) {
        self.halt = Some((point.to_string(), n.max(1)));
    }

    /// The checkpoint sequence for one record. `point` names the crash
    /// point visited after the record is durable (see
    /// [`crate::fault::FaultPlan::crash_at`]).
    pub fn checkpoint(&mut self, point: &str, rec: &ManifestRecord) -> Result<()> {
        self.engine.flush_all()?;
        self.engine.sync()?;
        self.manifest.append(rec)?;
        self.manifest.sync()?;
        if let Some(lc) = &self.lifecycle {
            lc.note_checkpoint();
            lc.poll()?;
        }
        self.engine.fault_plan().crash_point(point);
        if let Some((name, n)) = &mut self.halt {
            if name == point {
                *n -= 1;
                if *n == 0 {
                    self.halt = None;
                    return Err(Error::Canceled(format!(
                        "halt injected at checkpoint `{point}`"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Seals `file` under `tag`, atomically retiring the tags in
    /// `replaces`. The file's tail pin must already be released.
    pub fn seal_file(
        &mut self,
        point: &str,
        tag: &str,
        file: &RecordFile,
        replaces: &[String],
    ) -> Result<()> {
        self.checkpoint(
            point,
            &ManifestRecord::FileSealed {
                tag: tag.to_string(),
                record_len: file.record_len() as u32,
                len: file.len(),
                pages: file.page_ids().to_vec(),
                replaces: replaces.to_vec(),
            },
        )
    }

    /// Records that the file sealed under `tag` is no longer needed.
    pub fn drop_file(&mut self, point: &str, tag: &str) -> Result<()> {
        self.checkpoint(
            point,
            &ManifestRecord::FileDropped {
                tag: tag.to_string(),
            },
        )
    }

    /// Records a progress marker.
    pub fn mark(&mut self, point: &str, name: &str, value: u64) -> Result<()> {
        self.checkpoint(
            point,
            &ManifestRecord::Mark {
                name: name.to_string(),
                value,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, MemDisk};
    use crate::page::Page;
    use crate::stats::IoStats;
    use std::sync::{Arc, Mutex};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdsj-man-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<ManifestRecord> {
        vec![
            ManifestRecord::FileSealed {
                tag: "sort.l0.run.0".into(),
                record_len: 16,
                len: 1000,
                pages: vec![3, 4, 7],
                replaces: vec![],
            },
            ManifestRecord::Mark {
                name: "assign_done".into(),
                value: 1,
            },
            ManifestRecord::FileSealed {
                tag: "sort.l0.out".into(),
                record_len: 16,
                len: 1000,
                pages: vec![1, 2],
                replaces: vec!["sort.l0.run.0".into()],
            },
            ManifestRecord::FileDropped {
                tag: "sort.l0.out".into(),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_encoding() {
        for rec in sample_records() {
            let payload = rec.encode();
            assert_eq!(ManifestRecord::decode(&payload).unwrap(), rec);
        }
        let start = ManifestRecord::Start {
            version: MANIFEST_VERSION,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        };
        assert_eq!(ManifestRecord::decode(&start.encode()).unwrap(), start);
    }

    #[test]
    fn journal_round_trips_and_reopens() {
        let dir = temp_dir("rt");
        let path = dir.join("m.journal");
        {
            let mut m = Manifest::create(&path, 42).unwrap();
            for rec in sample_records() {
                m.append(&rec).unwrap();
            }
            m.sync().unwrap();
        }
        let (_m, records) = Manifest::open_append(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(
            records[0],
            ManifestRecord::Start {
                version: MANIFEST_VERSION,
                fingerprint: 42
            }
        );
        assert_eq!(&records[1..], &sample_records()[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = temp_dir("torn");
        let path = dir.join("m.journal");
        {
            let mut m = Manifest::create(&path, 7).unwrap();
            m.append(&ManifestRecord::Mark {
                name: "a".into(),
                value: 1,
            })
            .unwrap();
            m.sync().unwrap();
        }
        // Tear the tail: append half a frame's worth of garbage.
        let full_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x55; 9]).unwrap();
        }
        let (mut m, records) = Manifest::open_append(&path).unwrap();
        assert_eq!(records.len(), 2, "valid prefix survives");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len);
        // Appends now extend the valid prefix.
        m.append(&ManifestRecord::Mark {
            name: "b".into(),
            value: 2,
        })
        .unwrap();
        m.sync().unwrap();
        drop(m);
        let (_m, records) = Manifest::open_append(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[2],
            ManifestRecord::Mark {
                name: "b".into(),
                value: 2
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_crc_stops_the_replay_prefix() {
        let dir = temp_dir("crc");
        let path = dir.join("m.journal");
        {
            let mut m = Manifest::create(&path, 7).unwrap();
            m.append(&ManifestRecord::Mark {
                name: "a".into(),
                value: 1,
            })
            .unwrap();
            m.append(&ManifestRecord::Mark {
                name: "b".into(),
                value: 2,
            })
            .unwrap();
            m.sync().unwrap();
        }
        // Flip a byte in the *last* record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_m, records) = Manifest::open_append(&path).unwrap();
        assert_eq!(records.len(), 2, "corrupt record and everything after cut");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_tracks_live_files_marks_and_orphans() {
        let mut records = vec![ManifestRecord::Start {
            version: MANIFEST_VERSION,
            fingerprint: 9,
        }];
        records.extend(sample_records());
        let st = ManifestState::replay(&records).unwrap();
        assert_eq!(st.fingerprint, Some(9));
        // run.0 was replaced, out was dropped: nothing live.
        assert!(st.files.is_empty());
        assert_eq!(st.marks.get("assign_done"), Some(&1));
        assert_eq!(st.orphan_pages(5), vec![0, 1, 2, 3, 4]);

        // Without the drop, `out` is live and owns pages 1 and 2.
        let st = ManifestState::replay(&records[..4]).unwrap();
        assert_eq!(st.files.len(), 1);
        assert_eq!(st.files["sort.l0.out"].pages, vec![1, 2]);
        assert_eq!(st.orphan_pages(5), vec![0, 3, 4]);
        assert_eq!(
            st.files_with_prefix("sort.l0.").count(),
            1,
            "prefix filter sees the live sorted file"
        );
    }

    #[test]
    fn replay_rejects_misplaced_start_and_bad_version() {
        let misplaced = vec![
            ManifestRecord::Mark {
                name: "a".into(),
                value: 1,
            },
            ManifestRecord::Start {
                version: MANIFEST_VERSION,
                fingerprint: 1,
            },
        ];
        assert!(ManifestState::replay(&misplaced).is_err());
        let future = vec![ManifestRecord::Start {
            version: MANIFEST_VERSION + 1,
            fingerprint: 1,
        }];
        assert!(matches!(
            ManifestState::replay(&future),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn checkpointer_seals_durable_state_and_honors_halt() {
        let dir = temp_dir("ckpt");
        let data = dir.join("m.pages");
        let path = dir.join("m.journal");
        let eng = StorageEngine::file_backed(&data, 8).unwrap();
        let mut file = RecordFile::create(&eng, 8).unwrap();
        for i in 0..20u64 {
            file.push(&i.to_le_bytes()).unwrap();
        }
        file.release_tail();

        let lc = hdsj_core::LifecycleCtx::unbounded();
        let mut ck = Checkpointer::new(&eng, Manifest::create(&path, 5).unwrap())
            .with_lifecycle(lc.clone());
        ck.halt_at("p.two", 1);
        ck.seal_file("p.one", "data", &file, &[]).unwrap();
        let err = ck.mark("p.two", "done", 1).unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err:?}");
        assert_eq!(lc.stats().checkpoints, 2, "halt fires after durability");
        drop(ck);
        drop(file);
        drop(eng);

        // A fresh process sees the sealed file *and* the halted mark.
        let (_m, records) = Manifest::open_append(&path).unwrap();
        let st = ManifestState::replay(&records).unwrap();
        assert_eq!(st.fingerprint, Some(5));
        assert_eq!(st.marks.get("done"), Some(&1));
        let eng = StorageEngine::builder(8).file_backed_open(&data).unwrap();
        eng.adopt_freelist(st.orphan_pages(eng.pool().num_pages()))
            .unwrap();
        let back = st.files["data"].open(&eng).unwrap();
        let recs = back.read_all().unwrap();
        assert_eq!(recs.len(), 20);
        assert_eq!(recs[19], 19u64.to_le_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A [`MemDisk`] that notes how long the manifest journal is at every
    /// page write and every sync it sees.
    struct RecordingDisk {
        inner: MemDisk,
        journal: std::path::PathBuf,
        log: Arc<Mutex<Vec<(&'static str, u64)>>>,
    }

    impl RecordingDisk {
        fn note(&self, op: &'static str) {
            let len = std::fs::metadata(&self.journal).unwrap().len();
            self.log.lock().unwrap().push((op, len));
        }
    }

    impl Disk for RecordingDisk {
        fn read_page(&self, id: PageId, into: &mut Page) -> Result<()> {
            self.inner.read_page(id, into)
        }
        fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
            self.note("write");
            self.inner.write_page(id, page)
        }
        fn alloc_page(&self) -> Result<PageId> {
            self.inner.alloc_page()
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
        fn sync(&self) -> Result<()> {
            self.note("sync");
            self.inner.sync()
        }
    }

    /// The durability order, op by op rather than by where a crash lands:
    /// every page write and data sync a checkpoint makes sees the journal
    /// as it was before the checkpoint, the last of them is a sync, and
    /// only then does the journal grow by the record.
    #[test]
    fn a_checkpoint_syncs_its_pages_before_it_appends_the_record() {
        let dir = temp_dir("order");
        let journal = dir.join("m.journal");
        let log = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(IoStats::default());
        let disk = RecordingDisk {
            inner: MemDisk::new(Arc::clone(&stats)),
            journal: journal.clone(),
            log: Arc::clone(&log),
        };
        let eng = StorageEngine::builder(8).finish(Box::new(disk), stats);
        let mut ck = Checkpointer::new(&eng, Manifest::create(&journal, 5).unwrap());
        let mut file = RecordFile::create(&eng, 8).unwrap();
        for i in 0..20u64 {
            file.push(&i.to_le_bytes()).unwrap();
        }
        file.release_tail();

        let journal_len = || std::fs::metadata(&journal).unwrap().len();
        for step in ["seal", "mark"] {
            log.lock().unwrap().clear();
            let before = journal_len();
            match step {
                "seal" => ck.seal_file("p.seal", "data", &file, &[]),
                _ => ck.mark("p.mark", "done", 1),
            }
            .unwrap();
            let ops = std::mem::take(&mut *log.lock().unwrap());
            if step == "seal" {
                assert!(ops.iter().any(|&(op, _)| op == "write"), "{ops:?}");
            }
            assert_eq!(
                ops.last().map(|&(op, _)| op),
                Some("sync"),
                "{step}: {ops:?}"
            );
            for &(op, len) in &ops {
                assert_eq!(len, before, "{step}: a {op} after the record: {ops:?}");
            }
            assert!(journal_len() > before, "{step}: the record is appended");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
