//! Backing stores: the `Disk` trait and its in-memory / file-backed
//! implementations.
//!
//! Fault injection does not live here: wrap any disk in
//! [`crate::fault::FaultyDisk`] (which every [`crate::StorageEngine`]
//! does) to schedule failures.

use crate::invariants::{self, rank};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use hdsj_core::{Error, Result};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::sync::Arc;
use std::time::Instant;

/// A linear array of pages addressed by [`PageId`]. All traffic is counted
/// in the shared [`IoStats`].
pub trait Disk: Send + Sync {
    /// Reads page `id` into `into`.
    fn read_page(&self, id: PageId, into: &mut Page) -> Result<()>;
    /// Writes `page` at `id`.
    fn write_page(&self, id: PageId, page: &Page) -> Result<()>;
    /// Appends a zeroed page, returning its id.
    fn alloc_page(&self) -> Result<PageId>;
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;
    /// Forces written pages down to durable storage. A no-op by default
    /// (in-memory disks have nothing to sync); the file-backed disk maps
    /// this to `fsync`, which the checkpoint machinery calls before
    /// sealing a manifest record — pages must be durable *before* the
    /// record that points at them.
    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// An in-memory disk: fast, deterministic, but it still *counts* like a
/// disk, which is all the I/O experiments need.
pub struct MemDisk {
    pages: Mutex<Vec<Page>>,
    stats: Arc<IoStats>,
}

impl MemDisk {
    /// Creates an empty in-memory disk sharing `stats`.
    pub fn new(stats: Arc<IoStats>) -> MemDisk {
        MemDisk {
            pages: Mutex::new(Vec::new()),
            stats,
        }
    }
}

impl Disk for MemDisk {
    fn read_page(&self, id: PageId, into: &mut Page) -> Result<()> {
        let _rank = invariants::ordered(rank::DISK, "disk.pages");
        let started = Instant::now();
        let pages = self.pages.lock();
        let page = pages
            .get(id as usize)
            .ok_or_else(|| Error::Storage(format!("read of unallocated page {id}")))?;
        into.bytes_mut().copy_from_slice(page.bytes());
        self.stats.record_read_timed(started.elapsed());
        Ok(())
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        let _rank = invariants::ordered(rank::DISK, "disk.pages");
        let started = Instant::now();
        let mut pages = self.pages.lock();
        let slot = pages
            .get_mut(id as usize)
            .ok_or_else(|| Error::Storage(format!("write of unallocated page {id}")))?;
        slot.bytes_mut().copy_from_slice(page.bytes());
        self.stats.record_write_timed(started.elapsed());
        Ok(())
    }

    fn alloc_page(&self) -> Result<PageId> {
        let _rank = invariants::ordered(rank::DISK, "disk.pages");
        let mut pages = self.pages.lock();
        pages.push(Page::zeroed());
        self.stats.record_alloc();
        Ok((pages.len() - 1) as PageId)
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }
}

/// A disk backed by one operating-system file, pages stored back to back.
///
/// Reads and writes use positioned I/O (`pread`/`pwrite` on Unix): one
/// syscall per page instead of seek-then-transfer, and no shared seek
/// cursor to serialize on. Non-Unix builds fall back to seeking under a
/// lock.
pub struct FileDisk {
    file: File,
    num_pages: Mutex<u64>,
    /// Serializes the seek-based fallback; unused on Unix.
    #[cfg(not(unix))]
    io_lock: Mutex<()>,
    stats: Arc<IoStats>,
}

impl FileDisk {
    /// Creates (truncating) the backing file.
    pub fn create(path: &std::path::Path, stats: Arc<IoStats>) -> Result<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileDisk {
            file,
            num_pages: Mutex::new(0),
            #[cfg(not(unix))]
            io_lock: Mutex::new(()),
            stats,
        })
    }

    /// Opens an existing backing file *without* truncating it — the
    /// recovery path. The page count is whatever the file holds (a
    /// partial trailing page from a torn grow is dropped; the manifest
    /// never references a page that was not synced).
    pub fn open(path: &std::path::Path, stats: Arc<IoStats>) -> Result<FileDisk> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FileDisk {
            file,
            num_pages: Mutex::new(len / PAGE_SIZE as u64),
            #[cfg(not(unix))]
            io_lock: Mutex::new(()),
            stats,
        })
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    #[cfg(unix)]
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, offset)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _rank = invariants::ordered(rank::DISK, "disk.io_lock");
        let _guard = self.io_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let _rank = invariants::ordered(rank::DISK, "disk.io_lock");
        let _guard = self.io_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)?;
        Ok(())
    }
}

impl Disk for FileDisk {
    fn read_page(&self, id: PageId, into: &mut Page) -> Result<()> {
        if id >= *self.num_pages.lock() {
            return Err(Error::Storage(format!("read of unallocated page {id}")));
        }
        let started = Instant::now();
        self.read_at(&mut into.bytes_mut()[..], id * PAGE_SIZE as u64)?;
        self.stats.record_read_timed(started.elapsed());
        Ok(())
    }

    fn write_page(&self, id: PageId, page: &Page) -> Result<()> {
        if id >= *self.num_pages.lock() {
            return Err(Error::Storage(format!("write of unallocated page {id}")));
        }
        let started = Instant::now();
        self.write_at(&page.bytes()[..], id * PAGE_SIZE as u64)?;
        self.stats.record_write_timed(started.elapsed());
        Ok(())
    }

    fn alloc_page(&self) -> Result<PageId> {
        // Hold the page-count lock across the zero-fill so concurrent
        // allocs get distinct ids and the file grows densely.
        let _rank = invariants::ordered(rank::DISK, "disk.num_pages");
        let mut n = self.num_pages.lock();
        let id = *n;
        self.write_at(&[0u8; PAGE_SIZE], id * PAGE_SIZE as u64)?;
        *n += 1;
        self.stats.record_alloc();
        Ok(id)
    }

    fn num_pages(&self) -> u64 {
        *self.num_pages.lock()
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn Disk) {
        let a = disk.alloc_page().unwrap();
        let b = disk.alloc_page().unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(disk.num_pages(), 2);

        let mut p = Page::zeroed();
        p.put_u64(16, 42);
        disk.write_page(b, &p).unwrap();

        let mut q = Page::zeroed();
        disk.read_page(b, &mut q).unwrap();
        assert_eq!(q.get_u64(16), 42);
        disk.read_page(a, &mut q).unwrap();
        assert_eq!(q.get_u64(16), 0, "page a stays zeroed");

        assert!(disk.read_page(99, &mut q).is_err());
        assert!(disk.write_page(99, &p).is_err());
    }

    #[test]
    fn mem_disk_round_trip() {
        let disk = MemDisk::new(Arc::new(IoStats::default()));
        exercise(&disk);
    }

    #[test]
    fn file_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("hdsj-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let disk = FileDisk::create(&path, Arc::new(IoStats::default())).unwrap();
        exercise(&disk);
        drop(disk);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_disk_reopens_with_data_intact() {
        let dir = std::env::temp_dir().join(format!("hdsj-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        {
            let disk = FileDisk::create(&path, Arc::new(IoStats::default())).unwrap();
            let a = disk.alloc_page().unwrap();
            let b = disk.alloc_page().unwrap();
            let mut p = Page::zeroed();
            p.put_u64(16, 0xABCD);
            disk.write_page(b, &p).unwrap();
            p.put_u64(16, 0x1234);
            disk.write_page(a, &p).unwrap();
            disk.sync().unwrap();
        }
        let disk = FileDisk::open(&path, Arc::new(IoStats::default())).unwrap();
        assert_eq!(disk.num_pages(), 2);
        let mut q = Page::zeroed();
        disk.read_page(0, &mut q).unwrap();
        assert_eq!(q.get_u64(16), 0x1234);
        disk.read_page(1, &mut q).unwrap();
        assert_eq!(q.get_u64(16), 0xABCD);
        // Re-opened disks keep allocating past the existing pages.
        assert_eq!(disk.alloc_page().unwrap(), 2);
        drop(disk);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn file_disk_concurrent_positioned_io() {
        // Positioned I/O has no shared cursor: concurrent readers and
        // writers on different pages must not interleave each other's
        // offsets.
        let dir = std::env::temp_dir().join(format!("hdsj-pdisk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let disk = Arc::new(
            FileDisk::create(&dir.join("pages.db"), Arc::new(IoStats::default())).unwrap(),
        );
        let n = 16u64;
        for _ in 0..n {
            disk.alloc_page().unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let disk = Arc::clone(&disk);
                s.spawn(move || {
                    for id in (t..n).step_by(4) {
                        let mut p = Page::zeroed();
                        p.put_u64(64, id * 1000 + t);
                        disk.write_page(id, &p).unwrap();
                    }
                });
            }
        });
        for id in 0..n {
            let mut p = Page::zeroed();
            disk.read_page(id, &mut p).unwrap();
            assert_eq!(p.get_u64(64), id * 1000 + id % 4, "page {id}");
        }
        drop(disk);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counters_track_operations() {
        let stats = Arc::new(IoStats::default());
        let disk = MemDisk::new(Arc::clone(&stats));
        let id = disk.alloc_page().unwrap();
        let p = Page::zeroed();
        disk.write_page(id, &p).unwrap();
        let mut q = Page::zeroed();
        disk.read_page(id, &mut q).unwrap();
        let snap = stats.snapshot();
        assert_eq!((snap.allocs, snap.writes, snap.reads), (1, 1, 1));
    }
}
