//! `bench_smoke` — the pinned thread-scaling workload for PR 4.
//!
//! Runs the two parallelized algorithms (MSJ, BF) on a fixed uniform
//! workload at `--threads {1, max}` plus a scalar-vs-kernel L2 `within`
//! micro-benchmark, and writes `BENCH_0004.json` with the median
//! wall-times, pairs/sec, and speedups. CI runs it with `HDSJ_QUICK=1`
//! (n=5 000); the full workload is uniform d=16 n=50 000.
//!
//! ε is *derived*, not fixed: the 10⁻⁴ pair quantile of sampled pair
//! distances. The original fixed ε=0.1 selected zero pairs at d=16
//! (uniform pair distances concentrate near √(d/6) ≈ 1.63), so the
//! "join" timings measured pure filtering with an empty refinement
//! phase. Every timed join is now required to produce pairs — a
//! zero-pair workload fails the run rather than silently recording a
//! vacuous number.
//!
//! The SIMD dispatch sweep (`BENCH_0006.json`) times the d=64 L2
//! `within` test through the single-chain scalar reference, the 4-lane
//! scalar kernel (the one per-pair kernel), and the dispatched block
//! kernel at every tier the host supports — pinning exact hit-count
//! equality across tiers (the exactness contract) and recording speedups
//! against the 4-lane kernel along with the honest host dispatch level.
//!
//! It also runs one traced MSJ pass (memory sink) and writes
//! `BENCH_0005.json` with per-phase latency percentiles (p50/p90/p99/max
//! for every `*.phase.*_ns` histogram plus the exec chunk/queue-wait
//! distributions) and `BENCH_0005.prom`, the same metrics in Prometheus
//! text exposition format. The JSON report also carries a resumed-join
//! timing row: a checkpointed MSJ run is halted at its first sealed sort
//! level and resumed from the manifest, so the report shows what
//! `hdsj join --resume` pays after a crash relative to a full run.
//!
//! The report records `host_threads` (what `available_parallelism`
//! returned) so speedups are read against the hardware that produced
//! them: on a single-core host the parallel path cannot beat serial and
//! the file says so honestly.
#![forbid(unsafe_code)]

use hdsj_bench::measure_self_join;
use hdsj_bruteforce::BruteForce;
use hdsj_core::obs::json::encode_f64;
use hdsj_core::{kernels, Error, JoinSpec, Metric, Result, SimilarityJoin};
use hdsj_msj::Msj;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

const REPEATS: usize = 3;

fn quick() -> bool {
    std::env::var("HDSJ_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One (algorithm, thread-count) measurement: median wall-time over
/// `REPEATS` runs plus the result count of the last run.
struct JoinRow {
    algo: &'static str,
    threads: usize,
    median_ms: f64,
    pairs: u64,
    pairs_per_sec: f64,
}

fn bench_join(
    name: &'static str,
    make: impl Fn() -> Box<dyn SimilarityJoin>,
    threads: usize,
    ds: &hdsj_core::Dataset,
    spec: &JoinSpec,
) -> Result<JoinRow> {
    let mut times = Vec::with_capacity(REPEATS);
    let mut pairs = 0;
    for _ in 0..REPEATS {
        let mut algo = make();
        algo.set_threads(threads);
        let m = measure_self_join(algo.as_mut(), ds, spec)?;
        times.push(m.elapsed_ms);
        pairs = m.stats.results;
    }
    let median_ms = median(times);
    Ok(JoinRow {
        algo: name,
        threads,
        median_ms,
        pairs,
        pairs_per_sec: pairs as f64 / (median_ms / 1e3),
    })
}

/// Scalar reference for the kernel micro-benchmark: the pre-kernel loop —
/// one running sum with a per-element early-exit test against ε². The
/// kernel reassociates the sum into four lanes, so pairs landing within an
/// ulp of the ε boundary may flip; hit counts must agree up to that.
fn scalar_l2_within(x: &[f64], y: &[f64], eps: f64) -> bool {
    let budget = eps * eps;
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        let d = a - b;
        acc += d * d;
        if acc > budget {
            return false;
        }
    }
    true
}

/// A pseudo-shuffled candidate order, so the probe loop touches points the
/// way per-pair refinement does (scattered ids, not a contiguous
/// sweep the compiler can fuse across pairs).
fn shuffled_ids(n: u32) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n).collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..ids.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ids.swap(i, (state % (i as u64 + 1)) as usize);
    }
    ids
}

/// Runs every probe of `ds` against the shuffled candidate list through
/// `within`, returning (median wall ms, hit count). The hit count keeps
/// the loop live and cross-checks the two variants against each other.
fn bench_within(
    ds: &hdsj_core::Dataset,
    eps: f64,
    within: impl Fn(&[f64], &[f64], f64) -> bool,
) -> (f64, u64) {
    let candidates = shuffled_ids(ds.len() as u32);
    let mut times = Vec::with_capacity(REPEATS);
    let mut hits = 0u64;
    for _ in 0..REPEATS {
        // Re-read ε through black_box each repeat so the (pure) sweep
        // cannot be hoisted out of the repeats loop and reused.
        let eps = black_box(eps);
        hits = 0;
        let start = Instant::now();
        for (i, x) in ds.iter() {
            for &j in &candidates {
                if j != i && within(black_box(x), black_box(ds.point(j)), eps) {
                    hits += 1;
                }
            }
        }
        // Force each repeat's result to be materialized: without this the
        // optimizer sinks the (pure) sweep and only the last repeat runs.
        hits = black_box(hits);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (median(times), hits)
}

fn main() -> Result<()> {
    let quick = quick();
    let n = if quick { 5_000 } else { 50_000 };
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let max_threads = hdsj_exec::resolve_threads(0);

    let ds = hdsj_data::uniform(16, n, 42)?;
    // ε at the 10⁻⁴ pair quantile: a per-dimension threshold derived from
    // the data, so the timed joins refine real candidate sets instead of
    // the zero-pair workload a fixed ε=0.1 selects at d=16.
    let eps = hdsj_bench::eps_for_sample_quantile(&ds, Metric::L2, 1e-4, 50_000);
    let spec = JoinSpec::new(eps, Metric::L2);
    println!(
        "bench_smoke: uniform d=16 n={n} eps={eps:.4} L2 (quick={quick}, host_threads={host_threads})"
    );

    let mut thread_counts = vec![1];
    if max_threads > 1 {
        thread_counts.push(max_threads);
    }
    let mut rows: Vec<JoinRow> = Vec::new();
    for &t in &thread_counts {
        rows.push(bench_join("msj", || Box::<Msj>::default(), t, &ds, &spec)?);
        rows.push(bench_join(
            "bf",
            || Box::<BruteForce>::default(),
            t,
            &ds,
            &spec,
        )?);
        for row in rows.iter().rev().take(2) {
            println!(
                "  {:<4} threads={:<2} median={:.1}ms pairs={} ({:.0} pairs/s)",
                row.algo, row.threads, row.median_ms, row.pairs, row.pairs_per_sec
            );
        }
    }
    // A zero-pair join times filtering with an empty refinement phase —
    // a vacuous workload that must fail the run, not be recorded.
    for row in &rows {
        if row.pairs == 0 {
            return Err(Error::Internal(format!(
                "{} at {} threads timed a zero-pair workload (eps={eps}); \
                 the benchmark is vacuous",
                row.algo, row.threads
            )));
        }
    }

    // Kernel micro-benchmark: scalar vs vectorized L2 `within` at d=64,
    // the acceptance configuration. ε at the ~1% hit quantile so the
    // early-exit path is exercised without the loop degenerating. n is
    // sized so each timed repeat runs tens of milliseconds — the old
    // n=400 sweep finished in well under a millisecond, inside timer
    // jitter.
    let kd = hdsj_data::uniform(64, if quick { 2_000 } else { 4_000 }, 7)?;
    let keps = hdsj_bench::eps_for_sample_quantile(&kd, Metric::L2, 0.01, 50_000);
    let (scalar_ms, scalar_hits) = bench_within(&kd, keps, scalar_l2_within);
    let (kernel_ms, kernel_hits) = bench_within(&kd, keps, kernels::l2_within);
    // Lane reassociation may flip ε-boundary pairs by an ulp; anything
    // beyond a sliver of the hit set means a real kernel bug.
    if scalar_hits.abs_diff(kernel_hits) > scalar_hits.max(kernel_hits) / 100 {
        return Err(Error::Internal(format!(
            "kernel changed the decision set: scalar {scalar_hits} vs kernel {kernel_hits}"
        )));
    }
    let kernel_speedup = scalar_ms / kernel_ms;
    println!(
        "  kernel d=64: scalar={scalar_ms:.1}ms kernel={kernel_ms:.1}ms \
         speedup={kernel_speedup:.2}x ({scalar_hits} hits)"
    );

    // Report. Speedup rows compare each algorithm's max-thread median to
    // its serial median (1.0 when the host has a single core and the
    // max-thread sweep collapses onto serial).
    let speedup = |algo: &str| -> f64 {
        let at = |t: usize| {
            rows.iter()
                .find(|r| r.algo == algo && r.threads == t)
                .map(|r| r.median_ms)
        };
        match (at(1), at(max_threads)) {
            (Some(serial), Some(parallel)) if parallel > 0.0 => serial / parallel,
            _ => 1.0,
        }
    };

    let mut json = String::from("{");
    json.push_str("\"bench\":\"BENCH_0004\",");
    json.push_str("\"workload\":{\"kind\":\"uniform\",\"dims\":16,");
    json.push_str(&format!(
        "\"n\":{n},\"eps\":{},\"eps_quantile\":1e-4,\"metric\":\"l2\"}},",
        encode_f64(eps)
    ));
    json.push_str(&format!("\"quick\":{quick},"));
    json.push_str(&format!("\"host_threads\":{host_threads},"));
    json.push_str(&format!("\"max_threads\":{max_threads},"));
    json.push_str(&format!("\"repeats\":{REPEATS},"));
    json.push_str("\"joins\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"algo\":\"{}\",\"threads\":{},\"median_ms\":{},\"pairs\":{},\"pairs_per_sec\":{}}}",
            r.algo,
            r.threads,
            encode_f64(r.median_ms),
            r.pairs,
            encode_f64(r.pairs_per_sec)
        ));
    }
    json.push_str("],");
    json.push_str(&format!(
        "\"speedup\":{{\"msj\":{},\"bf\":{}}},",
        encode_f64(speedup("msj")),
        encode_f64(speedup("bf"))
    ));
    json.push_str(&format!(
        "\"kernel\":{{\"dims\":64,\"n\":{},\"eps\":{},\"scalar_ms\":{},\"kernel_ms\":{},\
         \"speedup\":{},\"hits\":{}}}",
        kd.len(),
        encode_f64(keps),
        encode_f64(scalar_ms),
        encode_f64(kernel_ms),
        encode_f64(kernel_speedup),
        scalar_hits
    ));
    json.push('}');

    let path = std::path::Path::new("BENCH_0004.json");
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{json}")?;
    f.flush()?;
    println!("(report written to {})", path.display());

    bench_kernel_sweep(&kd, quick)?;
    bench_phases(&ds, &spec, max_threads, quick, n)?;
    Ok(())
}

/// Candidates per probe in the dispatch sweep: 64 points at d=64 is
/// 32 KiB — L1-resident, the way refinement tiles are used — so the sweep
/// measures kernel throughput. (A full n×n sweep streams the whole
/// dataset per probe and every variant collapses onto memory bandwidth;
/// the join rows in BENCH_0004 already capture that regime.)
const SWEEP_CANDS: u32 = 64;

/// Times `reps` passes of every probe against the fixed candidate set
/// through a pair kernel, returning (median wall ms, hits excluding
/// self-pairs).
fn sweep_pair(
    ds: &hdsj_core::Dataset,
    eps: f64,
    reps: usize,
    within: impl Fn(&[f64], &[f64], f64) -> bool,
) -> (f64, u64) {
    let candidates = shuffled_ids(SWEEP_CANDS);
    let mut times = Vec::with_capacity(REPEATS);
    let mut hits = 0u64;
    for _ in 0..REPEATS {
        let eps = black_box(eps);
        hits = 0;
        let start = Instant::now();
        for _ in 0..reps {
            for (i, x) in ds.iter() {
                for &j in &candidates {
                    if j != i && within(black_box(x), black_box(ds.point(j)), eps) {
                        hits += 1;
                    }
                }
            }
        }
        hits = black_box(hits);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (median(times), hits / reps as u64)
}

/// The block-kernel counterpart of [`sweep_pair`]: the same candidate set
/// transposed once into SoA tiles (tile width from the L1 probe) and
/// reused across probes, exactly how the cache-blocked join loops use it.
fn sweep_block(ds: &hdsj_core::Dataset, eps: f64, reps: usize) -> (f64, u64) {
    use hdsj_core::soa::SoABlock;
    let head = SoABlock::from_range(ds, 0..SWEEP_CANDS);
    let tile_w = hdsj_core::simd::tile::soa_tile_width(ds.dims());
    let tiles: Vec<SoABlock> = (0..head.len())
        .step_by(tile_w.max(1))
        .map(|s| {
            let e = (s + tile_w).min(head.len()) as u32;
            SoABlock::from_range(ds, s as u32..e)
        })
        .collect();
    let mut times = Vec::with_capacity(REPEATS);
    let mut hits = 0u64;
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mut scratch = hdsj_core::simd::Scratch::default();
    for _ in 0..REPEATS {
        let eps = black_box(eps);
        hits = 0;
        let start = Instant::now();
        for _ in 0..reps {
            for i in 0..ds.len() as u32 {
                for tile in &tiles {
                    out.clear();
                    let window = [(i, 0..tile.len())];
                    Metric::L2.within_windows(
                        black_box(ds),
                        tile,
                        &window,
                        eps,
                        &mut scratch,
                        &mut out,
                    );
                    hits += out.iter().filter(|&&(_, j)| j != i).count() as u64;
                }
            }
        }
        hits = black_box(hits);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (median(times), hits / reps as u64)
}

/// The BENCH_0006 dispatch sweep: d=64 L2 `within` through the block
/// kernel of every tier the host supports, against the single-chain
/// scalar reference and the 4-lane scalar kernel (`lanes4` — the one
/// per-pair kernel, `Metric::within`). Hit counts across the 4-lane kernel
/// and every block tier must agree *exactly* — that is the exactness
/// contract, enforced here on real workload data, not just in unit tests.
/// ε sits at the 25% pair quantile so most candidates survive deep into
/// the dimension loop and the sweep measures kernel throughput rather
/// than early-exit latency. Rows are `block_<tier>` per supported tier.
fn bench_kernel_sweep(kd: &hdsj_core::Dataset, quick: bool) -> Result<()> {
    use hdsj_core::simd;
    let eps = hdsj_bench::eps_for_sample_quantile(kd, Metric::L2, 0.25, 50_000);
    let reps = if quick { 16 } else { 24 };

    struct SweepRow {
        variant: String,
        ms: f64,
        hits: u64,
    }
    let mut rows: Vec<SweepRow> = Vec::new();
    let (scalar_ms, scalar_hits) = sweep_pair(kd, eps, reps, scalar_l2_within);
    rows.push(SweepRow {
        variant: "scalar_chain".into(),
        ms: scalar_ms,
        hits: scalar_hits,
    });
    let (lanes4_ms, lanes4_hits) = sweep_pair(kd, eps, reps, kernels::l2_within);
    rows.push(SweepRow {
        variant: "lanes4".into(),
        ms: lanes4_ms,
        hits: lanes4_hits,
    });

    let saved = simd::level();
    let supported = simd::supported();
    for &tier in &supported {
        simd::set_level(tier);
        let (bms, bhits) = sweep_block(kd, eps, reps);
        if bhits != lanes4_hits {
            simd::set_level(saved);
            return Err(Error::Internal(format!(
                "block kernel at {tier:?} broke the bit-exactness contract: \
                 {bhits} hits vs 4-lane {lanes4_hits}"
            )));
        }
        rows.push(SweepRow {
            variant: format!("block_{}", tier.name()),
            ms: bms,
            hits: bhits,
        });
    }
    simd::set_level(saved);

    let mut best_speedup = 0.0f64;
    for row in &rows {
        let speedup = lanes4_ms / row.ms;
        if row.variant.starts_with("block_") {
            best_speedup = best_speedup.max(speedup);
        }
        println!(
            "  sweep d=64 {:<14} median={:.1}ms speedup_vs_lanes4={:.2}x ({} hits)",
            row.variant, row.ms, speedup, row.hits
        );
    }
    println!(
        "  sweep d=64 best SIMD speedup over 4-lane kernels: {best_speedup:.2}x \
         (dispatch={})",
        simd::best().name()
    );

    let mut json = String::from("{");
    json.push_str("\"bench\":\"BENCH_0006\",");
    json.push_str("\"workload\":{\"kind\":\"uniform\",\"dims\":64,");
    json.push_str(&format!(
        "\"n\":{},\"cands\":{SWEEP_CANDS},\"reps\":{reps},\
         \"eps\":{},\"eps_quantile\":0.25,\"metric\":\"l2\"}},",
        kd.len(),
        encode_f64(eps)
    ));
    json.push_str(&format!("\"quick\":{quick},"));
    json.push_str(&format!("\"repeats\":{REPEATS},"));
    json.push_str(&format!(
        "\"dispatch\":{{\"best\":\"{}\",\"supported\":[{}]}},",
        simd::best().name(),
        supported
            .iter()
            .map(|l| format!("\"{}\"", l.name()))
            .collect::<Vec<_>>()
            .join(",")
    ));
    json.push_str("\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"variant\":\"{}\",\"median_ms\":{},\"hits\":{},\"speedup_vs_lanes4\":{}}}",
            r.variant,
            encode_f64(r.ms),
            r.hits,
            encode_f64(lanes4_ms / r.ms)
        ));
    }
    json.push_str("],");
    json.push_str(&format!(
        "\"best_simd_speedup_vs_lanes4\":{}",
        encode_f64(best_speedup)
    ));
    json.push('}');

    let path = std::path::Path::new("BENCH_0006.json");
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{json}")?;
    f.flush()?;
    println!("(dispatch sweep written to {})", path.display());
    Ok(())
}

/// One traced MSJ pass into a memory sink; every latency histogram the
/// run produced (per-phase, pool, exec) goes to `BENCH_0005.json` as
/// p50/p90/p99/max rows, and the whole metrics snapshot to
/// `BENCH_0005.prom` in Prometheus exposition format.
fn bench_phases(
    ds: &hdsj_core::Dataset,
    spec: &JoinSpec,
    threads: usize,
    quick: bool,
    n: usize,
) -> Result<()> {
    let (tracer, _sink) = hdsj_core::obs::Tracer::memory();
    let mut algo = Box::<Msj>::default();
    algo.set_threads(threads);
    algo.set_tracer(tracer.clone());
    let mut pairs = hdsj_core::VecSink::default();
    algo.self_join(ds, spec, &mut pairs)?;
    let snapshot = tracer.metrics_snapshot();

    let mut json = String::from("{");
    json.push_str("\"bench\":\"BENCH_0005\",");
    json.push_str("\"workload\":{\"kind\":\"uniform\",\"dims\":16,");
    json.push_str(&format!(
        "\"n\":{n},\"eps\":{},\"metric\":\"l2\"}},",
        encode_f64(spec.eps)
    ));
    json.push_str(&format!("\"quick\":{quick},"));
    json.push_str(&format!("\"algo\":\"msj\",\"threads\":{threads},"));
    json.push_str("\"phases\":[");
    let mut first = true;
    for (name, h) in &snapshot.hists {
        if h.count == 0 {
            continue;
        }
        if !first {
            json.push(',');
        }
        first = false;
        json.push_str(&format!(
            "{{\"name\":\"{name}\",\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            h.count,
            h.percentile(0.50),
            h.percentile(0.90),
            h.percentile(0.99),
            h.max
        ));
        println!(
            "  phase {:<24} n={:<6} p50={} p90={} p99={} max={}",
            name,
            h.count,
            h.percentile(0.50),
            h.percentile(0.90),
            h.percentile(0.99),
            h.max
        );
    }
    json.push_str("],");
    json.push_str(&bench_resume(ds, spec, threads)?);
    json.push('}');

    let path = std::path::Path::new("BENCH_0005.json");
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{json}")?;
    f.flush()?;
    let prom_path = std::path::Path::new("BENCH_0005.prom");
    std::fs::write(prom_path, snapshot.to_prometheus())?;
    println!(
        "(phase report written to {} and {})",
        path.display(),
        prom_path.display()
    );
    Ok(())
}

/// One checkpointed MSJ attempt in `dir` — fresh or resumed, decided by
/// whether a manifest already exists there — optionally halting at the
/// given checkpoint. Returns (wall ms, pairs); pairs is 0 for a halted run.
fn resume_attempt(
    dir: &std::path::Path,
    ds: &hdsj_core::Dataset,
    spec: &JoinSpec,
    threads: usize,
    halt: Option<(&str, u64)>,
) -> Result<(f64, u64)> {
    use hdsj_storage::{Checkpointer, Manifest, ManifestState, StorageEngine};
    let man_path = dir.join("join.manifest");
    let data_path = dir.join("join.manifest.pages");
    let (engine, mut ckpt, state);
    if man_path.exists() {
        let (man, recs) = Manifest::open_append(&man_path)?;
        state = ManifestState::replay(&recs)?;
        engine = StorageEngine::builder(256).file_backed_open(&data_path)?;
        engine.adopt_freelist(state.orphan_pages(engine.pool().num_pages()))?;
        ckpt = Checkpointer::new(&engine, man);
    } else {
        engine = StorageEngine::file_backed(&data_path, 256)?;
        state = ManifestState::default();
        ckpt = Checkpointer::new(&engine, Manifest::create(&man_path, 0)?);
    }
    if let Some((point, nth)) = halt {
        ckpt.halt_at(point, nth);
    }
    let mut msj = Msj::with_engine(engine);
    msj.set_threads(threads);
    msj.set_recovery(ckpt, state);
    let mut sink = hdsj_core::VecSink::default();
    let start = Instant::now();
    let res = msj.self_join(ds, spec, &mut sink);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match res {
        Ok(_) => Ok((ms, sink.pairs.len() as u64)),
        Err(Error::Canceled(_)) if halt.is_some() => Ok((ms, 0)),
        Err(e) => Err(e),
    }
}

/// The resumed-join timing row: one checkpointed run measured end to end,
/// one halted at the first sealed sort level, and the resume of the halted
/// run from its manifest. The resumed pair count must match the full run —
/// this doubles as a smoke check that resume is exact, not just fast.
fn bench_resume(ds: &hdsj_core::Dataset, spec: &JoinSpec, threads: usize) -> Result<String> {
    const HALT: (&str, u64) = ("msj.sort_sealed", 1);
    let base = std::env::temp_dir().join(format!("hdsj-bench-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let full_dir = base.join("full");
    let crash_dir = base.join("crash");
    std::fs::create_dir_all(&full_dir)?;
    std::fs::create_dir_all(&crash_dir)?;

    let (full_ms, pairs) = resume_attempt(&full_dir, ds, spec, threads, None)?;
    let (halted_ms, _) = resume_attempt(&crash_dir, ds, spec, threads, Some(HALT))?;
    let (resumed_ms, resumed_pairs) = resume_attempt(&crash_dir, ds, spec, threads, None)?;
    let _ = std::fs::remove_dir_all(&base);
    if resumed_pairs != pairs {
        return Err(Error::Internal(format!(
            "resumed join found {resumed_pairs} pairs, full run found {pairs}"
        )));
    }
    println!(
        "  resume: checkpointed full={full_ms:.1}ms halted@{}#{}={halted_ms:.1}ms \
         resumed={resumed_ms:.1}ms ({pairs} pairs)",
        HALT.0, HALT.1
    );
    Ok(format!(
        "\"resume\":{{\"halt_point\":\"{}@{}\",\"checkpointed_full_ms\":{},\"halted_ms\":{},\
         \"resumed_ms\":{},\"pairs\":{}}}",
        HALT.0,
        HALT.1,
        encode_f64(full_ms),
        encode_f64(halted_ms),
        encode_f64(resumed_ms),
        pairs
    ))
}
