//! External multi-way merge sort over [`RecordFile`]s.
//!
//! Records are ordered by whole-record `memcmp`. `key_len` is validated
//! against the record length and changes nothing else: the first `key_len`
//! bytes with ties broken on the rest *is* the whole record. Keys here are
//! big-endian `BitKey` bytes plus a level byte, so byte order *is* key order —
//! and a record of at most 16 bytes sorts as one big-endian integer, exactly.
//!
//! The sort follows the textbook two-stage shape: (1) run formation — fill a
//! bounded in-memory workspace, `sort_unstable` it in place, spill a sorted
//! run; (2) multi-way merge with a loser-tree-equivalent binary heap,
//! cascading in passes when the number of runs exceeds the merge fan-in. All
//! I/O flows through the buffer pool and is therefore counted.
//!
//! Both stages run on the calling thread. Sorting a filled workspace as one
//! slice per worker made each slice a run of its own, and the merge of the
//! extra runs cost more than the sorting saved (DESIGN §11).

use crate::file::{RecordCursor, RecordFile};
use crate::manifest::{Checkpointer, ManifestState};
use crate::StorageEngine;
use hdsj_core::{Error, Result};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Maximum number of runs merged in one pass.
const MAX_FANIN: usize = 64;

/// Configuration for [`external_sort`].
#[derive(Clone, Copy, Debug)]
pub struct SortConfig {
    /// Records held in memory during run formation (the "sort buffer").
    pub mem_records: usize,
    /// Merge fan-in (clamped to `2..=64`).
    pub fanin: usize,
}

impl Default for SortConfig {
    fn default() -> SortConfig {
        SortConfig {
            mem_records: 64 * 1024,
            fanin: MAX_FANIN,
        }
    }
}

/// Sorts `input` by whole-record `memcmp` (`key_len` is validated, see the
/// module doc), producing a new file on the same engine. The input file is
/// left untouched.
pub fn external_sort(
    engine: &StorageEngine,
    input: &RecordFile,
    key_len: usize,
    config: SortConfig,
) -> Result<RecordFile> {
    let rec_len = input.record_len();
    if key_len > rec_len {
        return Err(Error::InvalidInput(format!(
            "key length {key_len} exceeds record length {rec_len}"
        )));
    }
    let fanin = config.fanin.clamp(2, MAX_FANIN);

    let mut runs: Vec<RecordFile> = Vec::new();
    form_runs(engine, input.cursor(), rec_len, config, |run| {
        runs.push(run);
        Ok(())
    })?;
    if runs.is_empty() {
        return RecordFile::create(engine, rec_len);
    }

    // Stage 2: cascaded multi-way merges. Consumed runs are destroyed so
    // their pages return to the freelist instead of growing the disk.
    while runs.len() > 1 {
        let mut next: Vec<RecordFile> = Vec::new();
        let mut iter = runs.into_iter().peekable();
        while iter.peek().is_some() {
            let group: Vec<RecordFile> = iter.by_ref().take(fanin).collect();
            let refs: Vec<&RecordFile> = group.iter().collect();
            next.push(merge_runs(engine, &refs)?);
            for run in group {
                run.destroy()?;
            }
        }
        runs = next;
    }
    // The merge loop only exits with exactly one run; an empty vector here
    // means the cascade logic is broken, which is a storage bug, not a
    // reason to abort the process.
    runs.pop()
        .ok_or_else(|| Error::Storage("external sort produced no output run".into()))
}

/// Checkpointed variant of [`external_sort`]: every spilled run and every
/// merge output is sealed into `ckpt`'s manifest, so a crashed sort resumes
/// from its last durable file instead of starting over.
///
/// Naming: runs seal as `{prefix}.run.{i}`, merge outputs as
/// `{prefix}.merge.{j}` (each atomically replacing the files it consumed),
/// and the final result as `{prefix}.out`. Crash points visited:
/// `sort.run_sealed` after each run, `sort.merge_sealed` after each merge,
/// and `out_point` (caller-named, e.g. `msj.sort_sealed`) after the final
/// seal.
///
/// Resume invariants this leans on:
///
/// * runs are contiguous input slices sealed in input order, so the number
///   of input records already consumed is simply the *sum of live file
///   lengths* under `prefix` — no separate position marker can tear away
///   from the files it describes;
/// * the sorted output is the unique ordered sequence of the input
///   multiset (whole-record order), so resuming with different run
///   boundaries than the fresh execution still yields byte-identical
///   output.
#[allow(clippy::too_many_arguments)] // the recovery quadruple (ckpt, prefix, out_point, state) travels together
pub fn external_sort_resumable(
    engine: &StorageEngine,
    input: &RecordFile,
    key_len: usize,
    config: SortConfig,
    ckpt: &mut Checkpointer,
    prefix: &str,
    out_point: &str,
    state: &ManifestState,
) -> Result<RecordFile> {
    let rec_len = input.record_len();
    if key_len > rec_len {
        return Err(Error::InvalidInput(format!(
            "key length {key_len} exceeds record length {rec_len}"
        )));
    }
    let out_tag = format!("{prefix}.out");
    if let Some(spec) = state.files.get(&out_tag) {
        // The whole sort already completed before the crash.
        return spec.open(engine);
    }
    let fanin = config.fanin.clamp(2, MAX_FANIN);

    // Recover sealed work. Tags carry numeric suffixes; recover them in
    // (kind, index) order so resumed merges stay deterministic.
    let run_pfx = format!("{prefix}.run.");
    let merge_pfx = format!("{prefix}.merge.");
    let mut recovered: Vec<(bool, u64, String)> = Vec::new();
    let (mut run_seq, mut merge_seq, mut input_pos) = (0u64, 0u64, 0u64);
    for (tag, spec) in state.files_with_prefix(&format!("{prefix}.")) {
        if let Some(i) = tag.strip_prefix(&run_pfx).and_then(|s| s.parse().ok()) {
            recovered.push((false, i, tag.clone()));
            run_seq = run_seq.max(i + 1);
        } else if let Some(j) = tag.strip_prefix(&merge_pfx).and_then(|s| s.parse().ok()) {
            recovered.push((true, j, tag.clone()));
            merge_seq = merge_seq.max(j + 1);
        } else {
            return Err(Error::Corruption(format!(
                "manifest file `{tag}` does not belong to sort `{prefix}`"
            )));
        }
        // Live files partition the consumed input prefix exactly.
        input_pos += spec.len;
    }
    recovered.sort();
    let mut runs: Vec<(String, RecordFile)> = Vec::with_capacity(recovered.len());
    for (_, _, tag) in recovered {
        let file = state.files[&tag].open(engine)?;
        runs.push((tag, file));
    }

    // Stage 1: run formation, resumed at the first unconsumed record.
    if input_pos < input.len() {
        form_runs(engine, input.cursor_at(input_pos), rec_len, config, |run| {
            let tag = format!("{run_pfx}{run_seq}");
            run_seq += 1;
            ckpt.seal_file("sort.run_sealed", &tag, &run, &[])?;
            runs.push((tag, run));
            Ok(())
        })?;
    }

    if runs.is_empty() {
        let out = RecordFile::create(engine, rec_len)?;
        ckpt.seal_file(out_point, &out_tag, &out, &[])?;
        return Ok(out);
    }

    // Stage 2: cascaded merges. Each output atomically replaces the files
    // it consumed, then the consumed pages return to the freelist.
    while runs.len() > 1 {
        let mut next: Vec<(String, RecordFile)> = Vec::new();
        let mut iter = runs.into_iter().peekable();
        while iter.peek().is_some() {
            let group: Vec<(String, RecordFile)> = iter.by_ref().take(fanin).collect();
            let files: Vec<&RecordFile> = group.iter().map(|(_, f)| f).collect();
            let merged = merge_runs(engine, &files)?;
            let consumed: Vec<String> = group.iter().map(|(t, _)| t.clone()).collect();
            let tag = format!("{merge_pfx}{merge_seq}");
            merge_seq += 1;
            ckpt.seal_file("sort.merge_sealed", &tag, &merged, &consumed)?;
            for (_, run) in group {
                run.destroy()?;
            }
            next.push((tag, merged));
        }
        runs = next;
    }
    let Some((tag, out)) = runs.pop() else {
        return Err(Error::Storage(
            "external sort produced no output run".into(),
        ));
    };
    ckpt.seal_file(out_point, &out_tag, &out, &[tag])?;
    Ok(out)
}

/// Run formation's workspace, typed by the record length. Either form
/// holds no more than records plus four bytes of index each.
enum Workspace {
    /// Records of at most 16 bytes, each read as one big-endian integer
    /// (record bytes on top, zeros below): integer order is record order.
    Ints(Vec<u128>),
    /// Longer records back to back, and the index sorted in their place.
    Indexed(Vec<u8>, Vec<u32>),
}

/// Stage 1 of both sorts: reads `cursor` to its end, `config.mem_records` at
/// a time. Each filled workspace is sorted in place, written as one run and
/// handed to `spill`.
fn form_runs(
    engine: &StorageEngine,
    mut cursor: RecordCursor<'_>,
    rec_len: usize,
    config: SortConfig,
    mut spill: impl FnMut(RecordFile) -> Result<()>,
) -> Result<()> {
    use Workspace::{Indexed, Ints};
    let mem_records = config.mem_records.max(2);
    let mut ws = match rec_len {
        ..=16 => Ints(Vec::with_capacity(mem_records)),
        _ => Indexed(Vec::with_capacity(mem_records * rec_len), Vec::new()),
    };
    let mut page: Vec<u8> = Vec::new(); // one page of the run being written
    loop {
        let mut n = 0;
        while n < mem_records {
            let Some(rec) = cursor.next()? else { break };
            match &mut ws {
                Ints(ints) => {
                    let mut be = [0u8; 16];
                    be[..rec_len].copy_from_slice(rec);
                    ints.push(u128::from_be_bytes(be));
                }
                Indexed(bytes, order) => {
                    bytes.extend_from_slice(rec);
                    order.push(n as u32);
                }
            }
            n += 1;
        }
        if n == 0 {
            return Ok(());
        }
        match &mut ws {
            Ints(ints) => ints.sort_unstable(),
            Indexed(bytes, order) => {
                let rec = |i: u32| &bytes[i as usize * rec_len..][..rec_len];
                order.sort_unstable_by(|a, b| rec(*a).cmp(rec(*b)));
            }
        }
        let mut run = RecordFile::create(engine, rec_len)?;
        for lo in (0..n).step_by(run.records_per_page()) {
            page.clear();
            for at in lo..(lo + run.records_per_page()).min(n) {
                match &ws {
                    Ints(ints) => page.extend_from_slice(&ints[at].to_be_bytes()[..rec_len]),
                    Indexed(bytes, order) => page
                        .extend_from_slice(&bytes[order[at] as usize * rec_len..][..rec_len]),
                }
            }
            run.extend(&page)?;
        }
        run.release_tail();
        spill(run)?;
        match &mut ws {
            Ints(ints) => ints.clear(),
            Indexed(bytes, order) => {
                bytes.clear();
                order.clear();
            }
        }
    }
}

fn merge_runs(engine: &StorageEngine, runs: &[&RecordFile]) -> Result<RecordFile> {
    let rec_len = runs[0].record_len();
    let mut out = RecordFile::create(engine, rec_len)?;
    let mut cursors: Vec<RecordCursor<'_>> = runs.iter().map(|r| r.cursor()).collect();
    // Min-heap of (current record, run): ties go to the earlier run, for a
    // deterministic, stable-per-run merge.
    let mut heap: BinaryHeap<Reverse<(Vec<u8>, usize)>> = BinaryHeap::with_capacity(runs.len());
    for (run, cur) in cursors.iter_mut().enumerate() {
        if let Some(rec) = cur.next()? {
            heap.push(Reverse((rec.to_vec(), run)));
        }
    }
    // The top's record goes out and its run's next takes its place: one sift,
    // no allocation. One `push` each, so an output page is allocated when its
    // first record is due, between the same two cursor fetches as ever.
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((rec, run)) = &mut *top;
        out.push(rec)?;
        match cursors[*run].next()? {
            Some(next) => rec.copy_from_slice(next),
            None => drop(PeekMut::pop(top)),
        }
    }
    out.release_tail();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn make_file(engine: &StorageEngine, records: &[Vec<u8>]) -> RecordFile {
        let mut f = RecordFile::create(engine, records[0].len()).unwrap();
        for r in records {
            f.push(r).unwrap();
        }
        f.release_tail();
        f
    }

    fn sorted_records(engine: &StorageEngine, f: &RecordFile) -> Vec<Vec<u8>> {
        let _ = engine;
        f.read_all().unwrap()
    }

    #[test]
    fn sorts_small_file_like_std_sort() {
        let eng = StorageEngine::in_memory(16);
        let records: Vec<Vec<u8>> = (0..500u32)
            .map(|i| {
                let key = (i.wrapping_mul(2654435761)) % 1000;
                let mut rec = key.to_be_bytes().to_vec();
                rec.extend_from_slice(&i.to_le_bytes());
                rec
            })
            .collect();
        let input = make_file(&eng, &records);
        let out = external_sort(
            &eng,
            &input,
            4,
            SortConfig {
                mem_records: 37,
                fanin: 3,
            },
        )
        .unwrap();
        assert_eq!(out.len(), input.len());
        let mut expected = records.clone();
        expected.sort();
        assert_eq!(sorted_records(&eng, &out), expected);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let eng = StorageEngine::in_memory(8);
        let input = RecordFile::create(&eng, 8).unwrap();
        let out = external_sort(&eng, &input, 8, SortConfig::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_run_skips_merging() {
        let eng = StorageEngine::in_memory(8);
        let records: Vec<Vec<u8>> =
            (0..10u64).rev().map(|i| i.to_be_bytes().to_vec()).collect();
        let input = make_file(&eng, &records);
        let out = external_sort(&eng, &input, 8, SortConfig::default()).unwrap();
        let got = sorted_records(&eng, &out);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn key_prefix_ordering_with_payload_tiebreak() {
        let eng = StorageEngine::in_memory(8);
        // Same 2-byte key, different payloads.
        let records = vec![vec![0, 1, 9, 9], vec![0, 1, 0, 0], vec![0, 0, 5, 5]];
        let input = make_file(&eng, &records);
        let out = external_sort(
            &eng,
            &input,
            2,
            SortConfig {
                mem_records: 2,
                fanin: 2,
            },
        )
        .unwrap();
        assert_eq!(
            sorted_records(&eng, &out),
            vec![vec![0, 0, 5, 5], vec![0, 1, 0, 0], vec![0, 1, 9, 9]]
        );
    }

    #[test]
    fn multi_pass_merge_with_tiny_fanin() {
        let eng = StorageEngine::in_memory(32);
        let records: Vec<Vec<u8>> = (0..200u16)
            .map(|i| (199 - i).to_be_bytes().to_vec())
            .collect();
        let input = make_file(&eng, &records);
        // mem_records=10 -> 20 runs; fanin=2 -> 5 merge passes.
        let out = external_sort(
            &eng,
            &input,
            2,
            SortConfig {
                mem_records: 10,
                fanin: 2,
            },
        )
        .unwrap();
        let got = sorted_records(&eng, &out);
        assert_eq!(got.len(), 200);
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rejects_key_longer_than_record() {
        let eng = StorageEngine::in_memory(8);
        let input = RecordFile::create(&eng, 4).unwrap();
        assert!(external_sort(&eng, &input, 5, SortConfig::default()).is_err());
    }

    #[test]
    fn fault_during_sort_propagates() {
        let eng = StorageEngine::in_memory(8);
        let records: Vec<Vec<u8>> = (0..50u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let input = make_file(&eng, &records);
        eng.flush_all().unwrap();
        eng.fault_plan().on_nth(None, 3, FaultKind::Transient);
        let res = external_sort(
            &eng,
            &input,
            8,
            SortConfig {
                mem_records: 8,
                fanin: 2,
            },
        );
        eng.fault_plan().clear();
        assert!(res.is_err());
        // The abandoned partial runs must have returned their pages: every
        // disk page is either owned by the (intact) input or free again.
        assert_eq!(
            eng.pool().free_pages() + input.num_pages(),
            eng.pool().num_pages() as usize,
            "failed sort leaked temp-run pages"
        );
        assert_eq!(eng.pool().pinned_frames(), 0, "failed sort leaked pins");
    }
}

#[cfg(test)]
mod resumable_tests {
    use super::*;
    use crate::manifest::{Manifest, ManifestState};
    use hdsj_core::Error;
    use std::path::Path;

    fn test_records(seed: u32, n: u32) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let key = i.wrapping_mul(2654435761).wrapping_add(seed) % 509;
                let mut rec = key.to_be_bytes().to_vec();
                rec.extend_from_slice(&i.to_le_bytes());
                rec
            })
            .collect()
    }

    /// One attempt at a checkpointed sort rooted in `dir`: creates the
    /// manifest + data file on the first call, resumes from them on later
    /// calls. `halt` injects an in-process "crash" after the named
    /// checkpoint becomes durable.
    fn attempt(
        dir: &Path,
        records: &[Vec<u8>],
        halt: Option<(&str, u64)>,
    ) -> Result<Vec<Vec<u8>>> {
        let man_path = dir.join("sort.manifest");
        let data_path = dir.join("sort.manifest.pages");
        let cfg = SortConfig {
            mem_records: 16,
            fanin: 2,
        };
        let (eng, mut ckpt, state, input);
        if man_path.exists() {
            let (man, recs) = Manifest::open_append(&man_path)?;
            state = ManifestState::replay(&recs)?;
            eng = StorageEngine::builder(16).file_backed_open(&data_path)?;
            eng.adopt_freelist(state.orphan_pages(eng.pool().num_pages()))?;
            ckpt = Checkpointer::new(&eng, man);
            input = state.files["input"].open(&eng)?;
        } else {
            eng = StorageEngine::file_backed(&data_path, 16)?;
            state = ManifestState::default();
            ckpt = Checkpointer::new(&eng, Manifest::create(&man_path, 1)?);
            let mut f = RecordFile::create(&eng, records[0].len())?;
            for r in records {
                f.push(r)?;
            }
            f.release_tail();
            ckpt.seal_file("input_sealed", "input", &f, &[])?;
            input = f;
        }
        if let Some((point, n)) = halt {
            ckpt.halt_at(point, n);
        }
        let out = external_sort_resumable(
            &eng,
            &input,
            4,
            cfg,
            &mut ckpt,
            "sort.t",
            "sort.out_sealed",
            &state,
        )?;
        let got = out.read_all()?;
        // Page accounting: everything except the input and the output is
        // either destroyed or was adopted as an orphan — nothing leaks.
        assert_eq!(eng.pool().pinned_frames(), 0, "leaked pins");
        assert_eq!(
            eng.pool().free_pages() + input.num_pages() + out.num_pages(),
            eng.pool().num_pages() as usize,
            "leaked pages"
        );
        Ok(got)
    }

    pub(super) fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdsj-rsort-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resumable_sort_without_crash_matches_plain_sort() {
        let records = test_records(11, 300);
        let mut expected = records.clone();
        expected.sort();
        let dir = fresh_dir("fresh");
        let got = attempt(&dir, &records, None).unwrap();
        assert_eq!(got, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn halted_sort_resumes_to_identical_output() {
        // Crash after run seals, merge seals, and the final out seal, at
        // several depths and seeds; the resumed output must be
        // byte-identical to a never-crashed sort.
        for seed in [1u32, 2, 3] {
            let records = test_records(seed, 200 + seed * 37);
            let mut expected = records.clone();
            expected.sort();
            for (point, nth) in [
                ("sort.run_sealed", 1),
                ("sort.run_sealed", 5),
                ("sort.merge_sealed", 1),
                ("sort.merge_sealed", 3),
                ("sort.out_sealed", 1),
            ] {
                let dir = fresh_dir(&format!("{seed}-{point}-{nth}"));
                let err = attempt(&dir, &records, Some((point, nth))).unwrap_err();
                assert!(matches!(err, Error::Canceled(_)), "{point}@{nth}: {err:?}");
                let got = attempt(&dir, &records, None)
                    .unwrap_or_else(|e| panic!("resume {point}@{nth} seed {seed}: {e:?}"));
                assert_eq!(got, expected, "{point}@{nth} seed {seed}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn double_crash_then_resume_still_converges() {
        let records = test_records(9, 400);
        let mut expected = records.clone();
        expected.sort();
        let dir = fresh_dir("double");
        assert!(attempt(&dir, &records, Some(("sort.run_sealed", 2))).is_err());
        assert!(attempt(&dir, &records, Some(("sort.merge_sealed", 2))).is_err());
        let got = attempt(&dir, &records, None).unwrap();
        assert_eq!(got, expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod workspace_tests {
    use super::resumable_tests::fresh_dir;
    use super::*;
    use crate::manifest::Manifest;

    /// Level-file-shaped records: a `key_len`-byte big-endian key drawn from
    /// few distinct values (so ties reach the level, tag and id bytes), with
    /// the top bit set on some, then level, tag and a little-endian id.
    fn level_records(key_len: usize, n: u32) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let mut rec = vec![0u8; key_len];
                rec[0] = (h >> 24) as u8 & 0x83;
                rec[key_len - 1] = (h >> 8) as u8 & 0x07;
                rec.extend([(h % 5) as u8, (i % 2) as u8]);
                rec.extend(i.to_le_bytes());
                rec
            })
            .collect()
    }

    #[test]
    fn both_sorts_equal_vec_sort_for_integer_and_indexed_workspaces() {
        // Key widths 8 (a 14-byte record: one integer), 16 and 24 (22 and 30
        // bytes: indexed), several runs and merges.
        for key_len in [8usize, 16, 24] {
            let records = level_records(key_len, 1500);
            let mut want = records.clone();
            want.sort();
            let config = SortConfig {
                mem_records: 200,
                fanin: 3,
            };
            let label = format!("key {key_len}");

            let eng = StorageEngine::in_memory(16);
            let mut input = RecordFile::create(&eng, key_len + 6).unwrap();
            input.extend(&records.concat()).unwrap();
            input.release_tail();
            let out = external_sort(&eng, &input, key_len + 1, config).unwrap();
            assert_eq!(out.read_all().unwrap(), want, "external_sort, {label}");

            let dir = fresh_dir(&format!("typed-{key_len}"));
            let eng = StorageEngine::file_backed(&dir.join("pages"), 16).unwrap();
            let manifest = Manifest::create(&dir.join("manifest"), 1).unwrap();
            let mut ckpt = Checkpointer::new(&eng, manifest);
            let mut input = RecordFile::create(&eng, key_len + 6).unwrap();
            input.extend(&records.concat()).unwrap();
            input.release_tail();
            let out = external_sort_resumable(
                &eng,
                &input,
                key_len + 1,
                config,
                &mut ckpt,
                "sort.w",
                "sort.out_sealed",
                &ManifestState::default(),
            )
            .unwrap();
            assert_eq!(out.read_all().unwrap(), want, "resumable, {label}");
            assert_eq!(eng.pool().pinned_frames(), 0, "leaked pins, {label}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn key_len_changes_no_ordering() {
        // Whatever prefix is named the key, the order is the whole record's.
        let records = level_records(8, 700);
        let mut want = records.clone();
        want.sort();
        let eng = StorageEngine::in_memory(16);
        let mut input = RecordFile::create(&eng, 14).unwrap();
        input.extend(&records.concat()).unwrap();
        input.release_tail();
        for key_len in [0usize, 1, 9, 14] {
            let config = SortConfig {
                mem_records: 128,
                ..SortConfig::default()
            };
            let out = external_sort(&eng, &input, key_len, config).unwrap();
            assert_eq!(out.read_all().unwrap(), want, "key_len {key_len}");
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn external_sort_equals_std_sort(
            records in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 12),
                0..400,
            ),
            key_len in 1usize..=12,
            mem_records in 2usize..64,
            fanin in 2usize..8,
        ) {
            let eng = StorageEngine::in_memory(64);
            let mut file = RecordFile::create(&eng, 12).unwrap();
            for r in &records {
                file.push(r).unwrap();
            }
            file.release_tail();
            let out = external_sort(&eng, &file, key_len, SortConfig { mem_records, fanin })
                .unwrap();
            let got = out.read_all().unwrap();
            let mut want = records.clone();
            want.sort_by(|a, b| {
                a[..key_len].cmp(&b[..key_len]).then_with(|| a[key_len..].cmp(&b[key_len..]))
            });
            prop_assert_eq!(got, want);
        }
    }
}
