//! Append-only files of fixed-size records on top of the buffer pool.
//!
//! MSJ's level files and the external sort's runs are `RecordFile`s. Each
//! page holds a small header (record count) followed by densely packed
//! records; the page directory (the list of page ids) lives in memory, which
//! is the usual arrangement for temporary files whose extent map is tiny
//! compared to the data.
//!
//! Records move a page at a time — [`RecordFile::extend`] fills a page under
//! one write lock, [`RecordCursor`] copies a page out under one read lock —
//! but pages are allocated, fetched and unpinned exactly where one `push` /
//! `next` per record would: the pool cannot tell the difference, so I/O
//! counters, eviction order and fault schedules do not move.

use crate::page::{PAGE_HEADER, PAGE_SIZE};
use crate::pool::PinnedPage;
use crate::{PageId, StorageEngine};
use hdsj_core::{Error, Result};

/// Offset of the u32 record count — just past the storage-layer checksum
/// header, which owns bytes `0..PAGE_HEADER`.
const COUNT_OFFSET: usize = PAGE_HEADER;

/// Bytes reserved at the start of each page before record data: the
/// storage header plus the record count (padded to 8 bytes).
const HEADER: usize = PAGE_HEADER + 8;

/// An append-only sequence of fixed-length records stored in pages.
pub struct RecordFile {
    engine: StorageEngine,
    record_len: usize,
    per_page: usize,
    pages: Vec<PageId>,
    len: u64,
    /// Tail page kept pinned between appends so a bulk load does not
    /// re-fetch it per record.
    tail: Option<PinnedPage>,
}

impl RecordFile {
    /// Creates an empty file of `record_len`-byte records on `engine`.
    pub fn create(engine: &StorageEngine, record_len: usize) -> Result<RecordFile> {
        if record_len == 0 || record_len > PAGE_SIZE - HEADER {
            return Err(Error::InvalidInput(format!(
                "record length {record_len} not in 1..={}",
                PAGE_SIZE - HEADER
            )));
        }
        Ok(RecordFile {
            engine: engine.clone(),
            record_len,
            per_page: (PAGE_SIZE - HEADER) / record_len,
            pages: Vec::new(),
            len: 0,
            tail: None,
        })
    }

    /// Reconstructs a file from a manifest record: the page directory and
    /// record count of a file that an earlier (crashed or checkpointed)
    /// run already wrote and flushed. The reconstructed file owns its
    /// pages exactly like a freshly written one — `destroy` (or drop)
    /// returns them to the freelist.
    pub fn from_parts(
        engine: &StorageEngine,
        record_len: usize,
        pages: Vec<PageId>,
        len: u64,
    ) -> Result<RecordFile> {
        let mut file = RecordFile::create(engine, record_len)?;
        let expected = len.div_ceil(file.per_page as u64) as usize;
        if pages.len() != expected {
            return Err(Error::Corruption(format!(
                "manifest file spec: {len} records of {record_len} bytes need \
                 {expected} pages, got {}",
                pages.len()
            )));
        }
        file.pages = pages;
        file.len = len;
        Ok(file)
    }

    /// Record length in bytes.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages the file occupies.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Records per page (a function of the record length).
    pub fn records_per_page(&self) -> usize {
        self.per_page
    }

    /// Appends one record. `rec.len()` must equal the record length.
    pub fn push(&mut self, rec: &[u8]) -> Result<()> {
        if rec.len() != self.record_len {
            return Err(Error::InvalidInput(format!(
                "record of {} bytes in a file of {}-byte records",
                rec.len(),
                self.record_len
            )));
        }
        self.extend(rec)
    }

    /// Appends the records packed back to back in `recs` (a whole number
    /// of them). Each page they land on is filled under one write lock; the
    /// pool sees the allocs, fetches and unpins of one `push` per record.
    pub fn extend(&mut self, mut recs: &[u8]) -> Result<()> {
        let mut left = recs.len() / self.record_len;
        if left * self.record_len != recs.len() {
            return Err(Error::InvalidInput(format!(
                "{} bytes are not a whole number of {}-byte records",
                recs.len(),
                self.record_len
            )));
        }
        while left > 0 {
            let slot = (self.len % self.per_page as u64) as usize;
            if slot == 0 {
                // Start a new page; release the old tail pin first.
                self.tail = None;
                let page = self.engine.alloc()?;
                self.pages.push(page.id());
                self.tail = Some(page);
            } else if self.tail.is_none() {
                // Re-open the tail after the file was iterated or unpinned.
                let Some(&pid) = self.pages.last() else {
                    return Err(Error::Storage(
                        "record file has records but no pages".into(),
                    ));
                };
                self.tail = Some(self.engine.fetch(pid)?);
            }
            let Some(tail) = self.tail.as_ref() else {
                // Both branches above leave a pin in place; a missing one
                // means the file's invariants are already broken.
                return Err(Error::Storage("record file tail page not pinned".into()));
            };
            let count = (self.per_page - slot).min(left);
            let (head, rest) = recs.split_at(count * self.record_len);
            {
                let mut page = tail.write();
                page.put_slice(HEADER + slot * self.record_len, head);
                page.put_u32(COUNT_OFFSET, (slot + count) as u32);
            }
            self.len += count as u64;
            (recs, left) = (rest, left - count);
        }
        Ok(())
    }

    /// Unpins the tail page (e.g. before long scans, so the pool frame is
    /// reusable). Appending re-pins automatically.
    pub fn release_tail(&mut self) {
        self.tail = None;
    }

    /// Frees every page of the file back to the engine's freelist. Use for
    /// temporary files (sort runs, level files) once consumed, so long
    /// pipelines do not grow the disk without bound.
    pub fn destroy(mut self) -> Result<()> {
        self.tail = None;
        for pid in std::mem::take(&mut self.pages) {
            self.engine.pool().free(pid)?;
        }
        self.len = 0;
        Ok(())
    }

    /// Pages owned by the file right now (testing / leak checks).
    pub fn page_ids(&self) -> &[PageId] {
        &self.pages
    }

    /// A cursor positioned before the first record.
    pub fn cursor(&self) -> RecordCursor<'_> {
        self.cursor_at(0)
    }

    /// A cursor positioned before record `start` (random access: the page
    /// directory maps record index to page directly, so no pages before the
    /// target are touched).
    pub fn cursor_at(&self, start: u64) -> RecordCursor<'_> {
        let page_idx = (start / self.per_page as u64) as usize;
        let slot = (start % self.per_page as u64) as usize;
        RecordCursor {
            file: self,
            page_idx,
            slot,
            current: None,
            buf: Vec::new(),
        }
    }

    /// Reads every record into a fresh `Vec` (testing / small files).
    pub fn read_all(&self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut cur = self.cursor();
        while let Some(rec) = cur.next()? {
            out.push(rec.to_vec());
        }
        Ok(out)
    }
}

impl Drop for RecordFile {
    fn drop(&mut self) {
        // Temp-file safety net: a file abandoned on an error path (`?`
        // between create and destroy) still returns its pages to the
        // freelist. After an explicit [`RecordFile::destroy`] the page list
        // is empty and this is a no-op; failures here are ignored — drop
        // cannot report them and the pages are unreachable anyway.
        self.tail = None;
        for pid in std::mem::take(&mut self.pages) {
            let _ = self.engine.pool().free(pid);
        }
    }
}

/// Sequential reader over a [`RecordFile`]. Holds at most one page pinned,
/// and a copy of that page's records taken under one read lock.
pub struct RecordCursor<'a> {
    file: &'a RecordFile,
    page_idx: usize,
    slot: usize,
    /// Pin of page `page_idx` once it was fetched. Kept until the call
    /// after its last record was lent, although `buf` has the bytes: the
    /// pool's eviction order depends on what is pinned when.
    current: Option<PinnedPage>,
    /// The records of the pinned page.
    buf: Vec<u8>,
}

impl<'a> RecordCursor<'a> {
    /// Advances to the next record, returning a borrow of it (valid until
    /// the next call), or `None` at end of file.
    ///
    /// Deliberately not `Iterator`: the cursor is *lending* (the slice
    /// borrows its internal buffer) and fallible.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<&[u8]>> {
        let record_len = self.file.record_len;
        loop {
            if self.page_idx >= self.file.pages.len() {
                return Ok(None);
            }
            if self.current.is_none() {
                let page = self.file.engine.fetch(self.file.pages[self.page_idx])?;
                {
                    let page = page.read();
                    let count = page.get_u32(COUNT_OFFSET) as usize;
                    if count > self.file.per_page {
                        return Err(Error::Corruption(format!(
                            "record page claims {count} records, {} fit",
                            self.file.per_page
                        )));
                    }
                    self.buf.clear();
                    self.buf
                        .extend_from_slice(page.get_slice(HEADER, count * record_len));
                }
                self.current = Some(page);
            }
            let at = self.slot * record_len;
            if at >= self.buf.len() {
                self.current = None;
                self.page_idx += 1;
                self.slot = 0;
                continue;
            }
            self.slot += 1;
            return Ok(Some(&self.buf[at..at + record_len]));
        }
    }

    /// Remaining records (upper bound; exact for fully-written files).
    pub fn remaining_hint(&self) -> u64 {
        let consumed = self.page_idx as u64 * self.file.per_page as u64 + self.slot as u64;
        self.file.len.saturating_sub(consumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn engine() -> StorageEngine {
        StorageEngine::in_memory(8)
    }

    #[test]
    fn rejects_bad_record_lengths() {
        let eng = engine();
        assert!(RecordFile::create(&eng, 0).is_err());
        assert!(RecordFile::create(&eng, PAGE_SIZE).is_err());
        assert!(RecordFile::create(&eng, PAGE_SIZE - HEADER).is_ok());
    }

    #[test]
    fn push_and_scan_round_trip_across_pages() {
        let eng = engine();
        // Large records so a page holds few and we cross page boundaries.
        let rec_len = 2048;
        let mut f = RecordFile::create(&eng, rec_len).unwrap();
        assert_eq!(f.records_per_page(), 3);
        let n = 10u8;
        for i in 0..n {
            f.push(&vec![i; rec_len]).unwrap();
        }
        assert_eq!(f.len(), n as u64);
        assert_eq!(f.num_pages(), 4);
        f.release_tail();

        let mut cur = f.cursor();
        let mut i = 0u8;
        while let Some(rec) = cur.next().unwrap() {
            assert!(rec.iter().all(|&b| b == i), "record {i}");
            i += 1;
        }
        assert_eq!(i, n);
    }

    #[test]
    fn push_rejects_wrong_size() {
        let eng = engine();
        let mut f = RecordFile::create(&eng, 16).unwrap();
        assert!(f.push(&[0u8; 15]).is_err());
        assert!(f.is_empty());
    }

    #[test]
    fn cursor_on_empty_file() {
        let eng = engine();
        let f = RecordFile::create(&eng, 16).unwrap();
        assert_eq!(f.cursor().next().unwrap(), None);
    }

    #[test]
    fn interleaved_append_and_scan() {
        let eng = engine();
        let mut f = RecordFile::create(&eng, 8).unwrap();
        f.push(&1u64.to_le_bytes()).unwrap();
        f.release_tail();
        {
            let mut cur = f.cursor();
            assert_eq!(cur.next().unwrap().unwrap(), 1u64.to_le_bytes());
        }
        f.push(&2u64.to_le_bytes()).unwrap();
        f.release_tail();
        let all = f.read_all().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1], 2u64.to_le_bytes());
    }

    #[test]
    fn remaining_hint_counts_down() {
        let eng = engine();
        let mut f = RecordFile::create(&eng, 8).unwrap();
        for i in 0..5u64 {
            f.push(&i.to_le_bytes()).unwrap();
        }
        f.release_tail();
        let mut cur = f.cursor();
        assert_eq!(cur.remaining_hint(), 5);
        cur.next().unwrap();
        assert_eq!(cur.remaining_hint(), 4);
    }

    #[test]
    fn bulk_load_keeps_tail_pinned() {
        let eng = StorageEngine::in_memory(4);
        let mut f = RecordFile::create(&eng, 64).unwrap();
        eng.reset_counters();
        for _ in 0..100 {
            f.push(&[7u8; 64]).unwrap();
        }
        // 100 records fit in one page (127 per page): exactly one alloc, no
        // reads.
        let io = eng.io_counters();
        assert_eq!(io.allocs, 1);
        assert_eq!(io.reads, 0);
    }

    #[test]
    fn scan_io_is_one_read_per_cold_page() {
        // Pool too small to keep the file resident: scanning must read
        // every page exactly once.
        let eng = StorageEngine::in_memory(2);
        let rec_len = 2048; // 3 per page
        let mut f = RecordFile::create(&eng, rec_len).unwrap();
        for i in 0..30u8 {
            f.push(&vec![i; rec_len]).unwrap();
        }
        f.release_tail();
        eng.flush_all().unwrap();
        // Evict everything by filling the pool with other pages.
        let _x = eng.alloc().unwrap();
        let _y = eng.alloc().unwrap();
        eng.reset_counters();
        drop((_x, _y));
        let mut cur = f.cursor();
        let mut n = 0;
        while cur.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 30);
        assert_eq!(eng.io_counters().reads, f.num_pages() as u64);
    }

    #[test]
    fn storage_fault_propagates_through_push() {
        let eng = StorageEngine::in_memory(4);
        let mut f = RecordFile::create(&eng, 16).unwrap();
        // The page alloc for the first record.
        eng.fault_plan().on_nth(None, 1, FaultKind::Transient);
        assert!(f.push(&[0u8; 16]).is_err());
        eng.fault_plan().clear();
    }
}

#[cfg(test)]
mod page_at_a_time_tests {
    use super::*;

    /// `n` distinguishable records of `len` bytes, back to back.
    fn records(len: usize, from: usize, n: usize) -> Vec<u8> {
        (from..from + n)
            .flat_map(|i| (0..len).map(move |b| (i * 131 + b * 7 + 1) as u8))
            .collect()
    }

    /// Page ids, every page's payload, and the pool's counters.
    fn footprint(eng: &StorageEngine, f: &RecordFile) -> (Vec<PageId>, Vec<Vec<u8>>, String) {
        let io = format!("{:?}", eng.io_counters());
        let pages = f.page_ids().iter().map(|&pid| {
            let page = eng.fetch(pid).unwrap();
            let bytes = page.read().bytes()[PAGE_HEADER..].to_vec();
            bytes
        });
        (f.page_ids().to_vec(), pages.collect(), io)
    }

    #[test]
    fn extend_is_repeated_push_to_the_pool_and_on_the_page() {
        // The same script through `extend` and through one `push` per
        // record, each on its own 3-frame pool: the files must own the same
        // pages with the same bytes, and the pools must have counted the
        // same reads, writes, allocs, hits and evictions.
        for len in [1usize, 7, 14, 30, PAGE_SIZE - 16] {
            let run = |batched: bool| {
                let eng = StorageEngine::in_memory(3);
                let mut f = RecordFile::create(&eng, len).unwrap();
                let per_page = f.records_per_page();
                let mut written = 0;
                let mut append = |f: &mut RecordFile, n: usize| {
                    let recs = records(len, written, n);
                    written += n;
                    match batched {
                        true => f.extend(&recs).unwrap(),
                        false => recs.chunks_exact(len).for_each(|r| f.push(r).unwrap()),
                    }
                };
                // One before, on, and one past a page boundary; several
                // pages at once; then after the tail was released and after
                // a cursor walked the file (which evicts under 3 frames).
                append(&mut f, per_page - 1);
                append(&mut f, 1);
                append(&mut f, 1);
                append(&mut f, 3 * per_page + 2);
                f.release_tail();
                append(&mut f, per_page.min(5));
                assert_eq!(f.read_all().unwrap().len() as u64, f.len());
                append(&mut f, 2 * per_page);
                f.release_tail();
                assert_eq!(f.len() as usize, written);
                assert_eq!(f.read_all().unwrap().concat(), records(len, 0, written));
                footprint(&eng, &f)
            };
            assert_eq!(run(true), run(false), "record length {len}");
        }
    }

    #[test]
    fn extend_rejects_a_torn_batch_and_writes_nothing() {
        let eng = StorageEngine::in_memory(3);
        let mut f = RecordFile::create(&eng, 14).unwrap();
        assert!(f.extend(&[0u8; 29]).is_err());
        assert!(f.is_empty() && f.num_pages() == 0);
        f.extend(&[]).unwrap();
        assert_eq!(
            eng.io_counters().allocs,
            0,
            "an empty batch touches no page"
        );
    }

    #[test]
    fn cursor_lends_every_record_from_any_start_with_an_exact_hint() {
        // Two full pages and a partly filled tail, read from every start —
        // page starts, mid-page, the last record, the end and past it.
        let eng = StorageEngine::in_memory(3);
        let len = 30;
        let mut f = RecordFile::create(&eng, len).unwrap();
        let n = 2 * f.records_per_page() + 17;
        let all = records(len, 0, n);
        f.extend(&all).unwrap();
        f.release_tail();
        for start in [
            0,
            1,
            f.records_per_page() - 1,
            f.records_per_page(),
            n - 18,
            n - 1,
            n,
        ] {
            let mut cur = f.cursor_at(start as u64);
            for at in start..n {
                assert_eq!(cur.remaining_hint(), (n - at) as u64, "start {start}");
                assert_eq!(cur.next().unwrap().unwrap(), &all[at * len..][..len]);
            }
            assert_eq!(cur.remaining_hint(), 0);
            assert_eq!(cur.next().unwrap(), None);
            assert_eq!(cur.next().unwrap(), None, "the end is sticky");
        }
        assert_eq!(
            eng.pool().pinned_frames(),
            0,
            "a dropped cursor holds no pin"
        );
    }

    #[test]
    fn cursor_holds_its_page_pinned_between_calls() {
        // The bytes are copied out, but the pin stays until the call after
        // the page's last record — the pool must see what it always saw.
        let eng = StorageEngine::in_memory(3);
        let mut f = RecordFile::create(&eng, 2048).unwrap(); // 3 per page
        f.extend(&records(2048, 0, 4)).unwrap();
        f.release_tail();
        let mut cur = f.cursor();
        assert_eq!(
            eng.pool().pinned_frames(),
            0,
            "no fetch before the first call"
        );
        for _ in 0..3 {
            cur.next().unwrap().unwrap();
            assert_eq!(eng.pool().pinned_frames(), 1);
        }
        let hits = eng.io_counters().hits;
        cur.next().unwrap().unwrap();
        assert_eq!(
            eng.pool().pinned_frames(),
            1,
            "first page unpinned, second pinned"
        );
        assert_eq!(eng.io_counters().hits, hits + 1);
        assert_eq!(cur.next().unwrap(), None);
        assert_eq!(eng.pool().pinned_frames(), 0);
    }
}

#[cfg(test)]
mod destroy_tests {
    use super::*;

    #[test]
    fn destroy_returns_pages_to_the_freelist() {
        let eng = StorageEngine::in_memory(8);
        let mut f = RecordFile::create(&eng, 2048).unwrap();
        for i in 0..9u8 {
            f.push(&vec![i; 2048]).unwrap();
        }
        let pages = f.num_pages();
        assert!(pages >= 3);
        f.destroy().unwrap();
        assert_eq!(eng.pool().free_pages(), pages);
        // New file reuses the pages: disk stays the same size.
        let before = eng.pool().num_pages();
        let mut g = RecordFile::create(&eng, 2048).unwrap();
        for i in 0..9u8 {
            g.push(&vec![i; 2048]).unwrap();
        }
        assert_eq!(eng.pool().num_pages(), before, "no disk growth");
        assert_eq!(g.read_all().unwrap().len(), 9);
    }

    #[test]
    fn repeated_sort_pipelines_do_not_grow_the_disk_unboundedly() {
        // The MSJ pattern: build + sort + destroy, many times over.
        use crate::sort::{external_sort, SortConfig};
        let eng = StorageEngine::in_memory(64);
        let mut sizes = Vec::new();
        for round in 0..5u32 {
            let mut f = RecordFile::create(&eng, 16).unwrap();
            for i in 0..2000u32 {
                let mut rec = [0u8; 16];
                rec[..4].copy_from_slice(&(i.wrapping_mul(2654435761 + round)).to_be_bytes());
                f.push(&rec).unwrap();
            }
            f.release_tail();
            let sorted = external_sort(
                &eng,
                &f,
                4,
                SortConfig {
                    mem_records: 256,
                    fanin: 4,
                },
            )
            .unwrap();
            f.destroy().unwrap();
            sorted.destroy().unwrap();
            sizes.push(eng.pool().num_pages());
        }
        // After the first round the page pool reaches steady state.
        assert_eq!(sizes[1], *sizes.last().unwrap(), "{sizes:?}");
    }
}
