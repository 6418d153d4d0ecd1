//! `hdsj` — command-line similarity joins.
//!
//! ```text
//! hdsj generate --kind uniform --dims 8 --n 10000 --seed 1 --out pts.csv
//! hdsj join --algo msj --eps 0.2 --metric l2 --input pts.csv --out pairs.csv
//! hdsj join --algo rsj --eps 0.1 --input a.csv --other b.csv
//! hdsj info --input pts.csv
//! ```
//!
//! Flags are `--name value` pairs; see `hdsj help` for the full list. CSV
//! datasets are headerless, one point per row (`#` comments allowed).

use hdsj::core::{Error, JoinSpec, LifecycleCtx, Metric, Result, SimilarityJoin, VecSink};
use hdsj::data::{self, io as dio, ClusterSpec, HistogramSpec};
use hdsj::storage::{
    Checkpointer, FaultPlan, Manifest, ManifestState, RetryPolicy, StorageEngine,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error ({}): {e}", e.variant_name());
            exit_code(&e)
        }
    };
    std::process::exit(code);
}

/// Maps error kinds to documented exit codes so scripts and the chaos
/// harness can distinguish "you typo'd a flag" from "the disk lied".
fn exit_code(e: &Error) -> i32 {
    match e {
        Error::InvalidInput(_) => 2,
        Error::Unsupported(_) => 3,
        Error::Storage(_) => 4,
        Error::Corruption(_) => 5,
        Error::Io(_) => 6,
        Error::Internal(_) => 7,
        Error::Canceled(_) => 8,
        Error::DeadlineExceeded(_) => 9,
        Error::BudgetExhausted(_) => 10,
    }
}

/// Rejects an `HDSJ_SIMD` the kernel probe cannot parse. The probe itself
/// falls back to the host's best tier (a library has nobody to tell), so
/// without this a mistyped cap runs uncapped and only the `simd` stats
/// field gives it away.
fn check_simd_env() -> Result<()> {
    use hdsj::core::simd::{parse_level, SPELLINGS};
    let Some(raw) = std::env::var_os("HDSJ_SIMD") else {
        return Ok(());
    };
    match raw.to_str().and_then(parse_level) {
        Some(_) => Ok(()),
        None => Err(Error::InvalidInput(format!(
            "HDSJ_SIMD={raw:?} is not a kernel tier; accepted: {SPELLINGS}"
        ))),
    }
}

/// Rejects an `HDSJ_THREADS` that is not a count, for the same reason:
/// `exec::default_threads` falls back to one thread, so `HDSJ_THREADS=four`
/// would run serial without a word.
fn check_threads_env() -> Result<()> {
    let Some(raw) = std::env::var_os("HDSJ_THREADS") else {
        return Ok(());
    };
    match raw.to_str().map(|s| s.trim().parse::<usize>()) {
        Some(Ok(_)) => Ok(()),
        _ => Err(Error::InvalidInput(format!(
            "HDSJ_THREADS={raw:?} is not a thread count; accepted: 0 (all cores) or a positive integer"
        ))),
    }
}

fn run(args: &[String]) -> Result<()> {
    check_simd_env()?;
    check_threads_env()?;
    let Some(cmd) = args.first() else {
        print_help();
        return Ok(());
    };
    // `trace-report` and `stats` take a positional file argument first,
    // optionally followed by --flag pairs.
    if cmd == "trace-report" {
        return trace_report(&args[1..]);
    }
    if cmd == "stats" {
        return stats_cmd(&args[1..]);
    }
    let flags = parse_flags(&args[1..])?;
    match cmd.as_str() {
        "generate" => generate(&flags),
        "join" => join(&flags),
        "info" => info(&flags),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(Error::InvalidInput(format!(
            "unknown command {other:?}; try `hdsj help`"
        ))),
    }
}

fn print_help() {
    println!(
        "hdsj — high dimensional similarity joins

USAGE:
  hdsj generate --kind <uniform|clusters|correlated|fourier|histograms>
                --dims D --n N [--seed S] --out FILE
                [--clusters K] [--sigma S] [--zipf Z] [--noise F]
  hdsj join     --algo <bf|sm1d|grid|ekdb|rsj|msj> (--eps E | --target-pairs N)\n                [--metric l1|l2|linf|lp:P] [--threads N]
                --input FILE [--other FILE] [--out FILE] [--quiet]
                [--trace FILE] [--stats human|json]
                [--inject-faults SPEC] [--retries N] [--pool-pages N]
                [--deadline-ms N] [--mem-budget-pages N] [--resume MANIFEST]
                [--sort-mem-records N]
  hdsj info     --input FILE
  hdsj trace-report FILE [--phases] [--critical-path]
  hdsj stats FILE [--format human|prom]

Datasets are headerless CSV, one point per row. `join` runs a self-join of
--input, or a two-set join against --other. Results go to --out as
`i,j` index pairs (or are only counted with --quiet).

`join` prints `algorithm`/`pairs` to stdout; detailed statistics
(candidates, filter precision, per-phase times, I/O) go to stderr unless
--quiet. `--stats json` replaces the stdout summary with one machine-
readable JSON object. `--trace FILE` records spans, counters, and
latency histograms for the whole run as JSONL; `hdsj trace-report FILE`
renders such a file as a phase tree with its top counters and histogram
percentiles. `trace-report --phases` prints a per-algorithm CPU/IO/Wait
cost-attribution table, and `--critical-path` prints the longest span
chain with per-node self time. `hdsj stats FILE` renders the metrics in
a trace (counters, gauges, histograms) as human-readable text or
Prometheus exposition format (`--format prom`).

THREADS:
  --threads N           worker threads for the parallel algorithms (bf, msj):
                        how many ways the one join body's work is split (bf:
                        runs of its block x tile nest; msj: chunks of points
                        to assign, tiles of the sweep), the parts' pairs
                        replayed in order.
                        0 means all available cores. Defaults to the
                        HDSJ_THREADS environment variable (anything but a
                        count is rejected, exit 2), or 1 when unset. Pairs,
                        their order and the counters are identical at every
                        count; algorithms without a parallel path ignore it.

KERNEL TIER:
  HDSJ_SIMD=TIER        environment variable capping the block kernel that
                        refines candidate tiles: {spellings}.
                        A tier the host lacks clamps down to one it has;
                        anything else is rejected (exit 2). Results are
                        identical at every tier; `--stats json` reports the
                        one that ran as `simd`.

FAULT INJECTION (disk-backed algorithms rsj and msj only):
  --inject-faults SPEC  seeded fault plan for the page store. SPEC is
                        comma-separated clauses: `seed=N`,
                        `<op>=<p>[:<kind>]` (probabilistic), or
                        `<op>@<n>=<kind>` (fault exactly the n-th op);
                        op is read|write|alloc|any, kind is
                        transient|persistent|torn|corrupt.
                        e.g. --inject-faults seed=7,read=0.05:transient
  --retries N           retry transient storage faults up to N times with
                        exponential backoff (default 0: fail fast)
  --pool-pages N        buffer pool capacity in pages (default 256)

LIFECYCLE & RECOVERY:
  --deadline-ms N       abort the join with `deadline exceeded` (exit 9)
                        once N milliseconds of wall clock have elapsed
  --mem-budget-pages N  abort with `budget exhausted` (exit 10) once the
                        join has allocated N pages of disk-backed memory
  --resume MANIFEST     (msj only) checkpoint durable progress to MANIFEST
                        and keep page data in MANIFEST.pages; when MANIFEST
                        already exists, completed sort runs and level files
                        are reused instead of recomputed. The manifest is
                        bound to the join's parameters — resuming with a
                        different input/eps/metric is rejected. Composes
                        with --inject-faults crash=<point>@<n> for
                        kill-and-restart testing.
  --sort-mem-records N  (msj only) in-memory workspace of the external
                        sort, in records; small values force multi-run
                        sorts with more checkpoints

EXIT CODES:
  0 success        2 invalid input     3 unsupported
  4 storage fault  5 data corruption   6 OS-level I/O error
  7 internal invariant violated        8 canceled
  9 deadline exceeded                 10 budget exhausted",
        spellings = hdsj::core::simd::SPELLINGS
    );
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(Error::InvalidInput(format!("expected --flag, got {key:?}")));
        };
        if name == "quiet" {
            flags.insert(name.to_string(), "1".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| Error::InvalidInput(format!("--{name} needs a value")))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn req<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str> {
    flags
        .get(name)
        .map(|s| s.as_str())
        .ok_or_else(|| Error::InvalidInput(format!("missing required flag --{name}")))
}

fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| Error::InvalidInput(format!("--{name} {v:?}: {e}"))),
    }
}

fn generate(flags: &HashMap<String, String>) -> Result<()> {
    let kind = req(flags, "kind")?;
    let dims: usize = num(flags, "dims", 8)?;
    let n: usize = num(flags, "n", 10_000)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let out = PathBuf::from(req(flags, "out")?);

    let ds = match kind {
        "uniform" => data::uniform(dims, n, seed),
        "clusters" => {
            let spec = ClusterSpec {
                clusters: num(flags, "clusters", 10)?,
                sigma: num(flags, "sigma", 0.05)?,
                zipf_theta: num(flags, "zipf", 0.0)?,
                noise_fraction: num(flags, "noise", 0.0)?,
            };
            data::gaussian_clusters(dims, n, spec, seed)
        }
        "correlated" => data::correlated(dims, n, num(flags, "noise", 0.05)?, seed),
        "fourier" => data::timeseries::fourier_dataset(dims, n, num(flags, "len", 128)?, seed),
        "histograms" => data::color_histograms(
            dims,
            n,
            HistogramSpec {
                themes: num(flags, "themes", 20)?,
                themes_per_image: num(flags, "themes-per-image", 3)?,
                noise: num(flags, "noise", 0.01)?,
            },
            seed,
        ),
        other => {
            return Err(Error::InvalidInput(format!("unknown --kind {other:?}")));
        }
    }?;
    dio::save_csv(&ds, &out)?;
    println!(
        "wrote {} points (d={}) to {}",
        ds.len(),
        ds.dims(),
        out.display()
    );
    Ok(())
}

fn parse_metric(s: &str) -> Result<Metric> {
    match s {
        "l1" => Ok(Metric::L1),
        "l2" => Ok(Metric::L2),
        "linf" => Ok(Metric::Linf),
        other => {
            if let Some(p) = other.strip_prefix("lp:") {
                let p: f64 = p
                    .parse()
                    .map_err(|e| Error::InvalidInput(format!("bad Lp exponent: {e}")))?;
                let m = Metric::Lp(p);
                m.validate()?;
                Ok(m)
            } else {
                Err(Error::InvalidInput(format!(
                    "unknown metric {other:?} (l1, l2, linf, lp:P)"
                )))
            }
        }
    }
}

fn make_algo(
    name: &str,
    engine: Option<StorageEngine>,
    sort_mem: Option<usize>,
) -> Result<Box<dyn SimilarityJoin>> {
    // Engine flags (--inject-faults / --retries / --pool-pages) only make
    // sense for the disk-backed algorithms; reject them elsewhere instead
    // of silently ignoring the request.
    if engine.is_some() && !matches!(name, "rsj" | "msj") {
        return Err(Error::Unsupported(format!(
            "--inject-faults/--retries/--pool-pages need a disk-backed \
             algorithm (rsj, msj), not {name:?}"
        )));
    }
    if sort_mem.is_some() && name != "msj" {
        return Err(Error::Unsupported(format!(
            "--sort-mem-records configures the external sort (msj), not {name:?}"
        )));
    }
    Ok(match name {
        "bf" => Box::new(hdsj::bruteforce::BruteForce::default()),
        "sm1d" => Box::new(hdsj::sortmerge::SortMergeJoin::default()),
        "grid" => Box::new(hdsj::grid::GridJoin::default()),
        "ekdb" => Box::new(hdsj::ekdb::EkdbJoin::default()),
        "rsj" => match engine {
            Some(engine) => Box::new(hdsj::rtree::RsjJoin::with_engine(engine)),
            None => Box::new(hdsj::rtree::RsjJoin::default()),
        },
        "msj" => {
            let mut msj = match engine {
                Some(engine) => hdsj::msj::Msj::with_engine(engine),
                None => hdsj::msj::Msj::default(),
            };
            if let Some(records) = sort_mem {
                msj.sort_mem_records = records;
            }
            Box::new(msj)
        }
        other => {
            return Err(Error::InvalidInput(format!(
                "unknown --algo {other:?} (bf, sm1d, grid, ekdb, rsj, msj)"
            )));
        }
    })
}

/// Builds a storage engine when any of the chaos/pool flags are present.
/// Returns `None` when none are given, so the algorithms keep their own
/// default engines.
fn make_engine(flags: &HashMap<String, String>) -> Result<Option<StorageEngine>> {
    let wants_engine = flags.contains_key("inject-faults")
        || flags.contains_key("retries")
        || flags.contains_key("pool-pages");
    if !wants_engine {
        return Ok(None);
    }
    let pool_pages: usize = num(flags, "pool-pages", 256)?;
    if pool_pages == 0 {
        return Err(Error::InvalidInput(
            "--pool-pages must be at least 1".into(),
        ));
    }
    let retries: u32 = num(flags, "retries", 0)?;
    let retry = if retries > 0 {
        RetryPolicy::backoff(retries)
    } else {
        RetryPolicy::none()
    };
    let plan = match flags.get("inject-faults") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::new(0),
    };
    Ok(Some(
        StorageEngine::builder(pool_pages)
            .retry(retry)
            .faults(plan)
            .in_memory(),
    ))
}

/// Builds the query's lifecycle context from `--deadline-ms` /
/// `--mem-budget-pages`, or `None` when neither limit is requested.
fn make_lifecycle(flags: &HashMap<String, String>) -> Result<Option<LifecycleCtx>> {
    let deadline_ms: Option<u64> = match flags.get("deadline-ms") {
        Some(v) => Some(
            v.parse()
                .map_err(|e| Error::InvalidInput(format!("--deadline-ms {v:?}: {e}")))?,
        ),
        None => None,
    };
    let page_budget: Option<u64> = match flags.get("mem-budget-pages") {
        Some(v) => Some(
            v.parse()
                .map_err(|e| Error::InvalidInput(format!("--mem-budget-pages {v:?}: {e}")))?,
        ),
        None => None,
    };
    if deadline_ms.is_none() && page_budget.is_none() {
        return Ok(None);
    }
    let mut builder = LifecycleCtx::builder();
    if let Some(ms) = deadline_ms {
        builder = builder.deadline_ms(ms);
    }
    if let Some(pages) = page_budget {
        builder = builder.page_budget(pages);
    }
    Ok(Some(builder.build()))
}

/// A stable fingerprint of the join parameters, stored in the manifest so
/// `--resume` refuses to mix checkpoints from a different query (FNV-1a;
/// intentionally independent of `std`'s hasher, whose output may change
/// across toolchains while manifests persist on disk).
fn join_fingerprint(
    spec: &JoinSpec,
    input: &hdsj::core::Dataset,
    other: &Option<hdsj::core::Dataset>,
) -> u64 {
    let desc = format!(
        "msj|eps={:016x}|metric={:?}|n={}|d={}|other={}",
        spec.eps.to_bits(),
        spec.metric,
        input.len(),
        input.dims(),
        other.as_ref().map(|d| d.len() as i64).unwrap_or(-1),
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in desc.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the checkpointing MSJ for `--resume MANIFEST`: page data lives in
/// `MANIFEST.pages`; an existing manifest is replayed (reusing completed
/// sort runs and level files), a missing one starts a fresh checkpointed
/// run. The chaos flags (`--inject-faults`, `--retries`, `--pool-pages`)
/// compose so a crash-fault run and its resume share one configuration.
#[allow(clippy::too_many_arguments)]
fn make_resumable_msj(
    flags: &HashMap<String, String>,
    algo_name: &str,
    manifest_path: &Path,
    spec: &JoinSpec,
    input: &hdsj::core::Dataset,
    other: &Option<hdsj::core::Dataset>,
    sort_mem: Option<usize>,
) -> Result<Box<dyn SimilarityJoin>> {
    if algo_name != "msj" {
        return Err(Error::Unsupported(format!(
            "--resume needs the checkpointing algorithm (msj), not {algo_name:?}"
        )));
    }
    let pool_pages: usize = num(flags, "pool-pages", 256)?;
    if pool_pages == 0 {
        return Err(Error::InvalidInput(
            "--pool-pages must be at least 1".into(),
        ));
    }
    let retries: u32 = num(flags, "retries", 0)?;
    let retry = if retries > 0 {
        RetryPolicy::backoff(retries)
    } else {
        RetryPolicy::none()
    };
    let plan = match flags.get("inject-faults") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::new(0),
    };
    let mut data_path = manifest_path.as_os_str().to_owned();
    data_path.push(".pages");
    let data_path = PathBuf::from(data_path);
    let fingerprint = join_fingerprint(spec, input, other);

    let (engine, ckpt, state);
    if manifest_path.exists() {
        let (manifest, records) = Manifest::open_append(manifest_path)?;
        state = ManifestState::replay(&records)?;
        if state.fingerprint != Some(fingerprint) {
            return Err(Error::InvalidInput(format!(
                "manifest {} belongs to a different join (input/eps/metric \
                 changed since it was written); delete it to start over",
                manifest_path.display()
            )));
        }
        engine = StorageEngine::builder(pool_pages)
            .retry(retry)
            .faults(plan)
            .file_backed_open(&data_path)?;
        engine.adopt_freelist(state.orphan_pages(engine.pool().num_pages()))?;
        ckpt = Checkpointer::new(&engine, manifest);
    } else {
        engine = StorageEngine::builder(pool_pages)
            .retry(retry)
            .faults(plan)
            .file_backed(&data_path)?;
        state = ManifestState::default();
        ckpt = Checkpointer::new(&engine, Manifest::create(manifest_path, fingerprint)?);
    }
    let mut msj = hdsj::msj::Msj::with_engine(engine);
    if let Some(records) = sort_mem {
        msj.sort_mem_records = records;
    }
    msj.set_recovery(ckpt, state);
    Ok(Box::new(msj))
}

fn join(flags: &HashMap<String, String>) -> Result<()> {
    let algo_name = req(flags, "algo")?;
    let metric = parse_metric(flags.get("metric").map(|s| s.as_str()).unwrap_or("l2"))?;

    let input = dio::load_csv(Path::new(req(flags, "input")?))?;
    // Threshold: explicit --eps, or calibrated from --target-pairs by
    // sampling pair distances.
    let eps: f64 = match (flags.get("eps"), flags.get("target-pairs")) {
        (Some(e), _) => e
            .parse()
            .map_err(|e| Error::InvalidInput(format!("--eps: {e}")))?,
        (None, Some(t)) => {
            let target: f64 = t
                .parse()
                .map_err(|e| Error::InvalidInput(format!("--target-pairs: {e}")))?;
            let eps = data::eps_for_target_pairs(&input, metric, target, 200_000, 42);
            // Stderr: stdout is the summary, or one JSON object (which
            // carries the value as `eps`).
            eprintln!("calibrated eps = {eps:.6} for ~{target} pairs");
            eps
        }
        (None, None) => {
            return Err(Error::InvalidInput(
                "missing required flag --eps (or --target-pairs)".into(),
            ));
        }
    };
    let spec = JoinSpec::new(eps, metric);
    spec.validate()?;
    // Validate before the (possibly long) join so a typo fails fast.
    let json_stats = match flags.get("stats").map(|s| s.as_str()) {
        None | Some("human") => false,
        Some("json") => true,
        Some(other) => {
            return Err(Error::InvalidInput(format!(
                "unknown --stats {other:?} (human, json)"
            )));
        }
    };
    input.check_unit_domain().map_err(|e| {
        Error::InvalidInput(format!(
            "{e}\nhint: hdsj joins run on [0,1)^d data; rescale your CSV first"
        ))
    })?;
    let other = match flags.get("other") {
        Some(path) => {
            let ds = dio::load_csv(Path::new(path))?;
            ds.check_unit_domain()?;
            Some(ds)
        }
        None => None,
    };

    let sort_mem: Option<usize> = match flags.get("sort-mem-records") {
        Some(v) => Some(
            v.parse()
                .map_err(|e| Error::InvalidInput(format!("--sort-mem-records {v:?}: {e}")))?,
        ),
        None => None,
    };
    let mut algo = match flags.get("resume") {
        Some(manifest) => make_resumable_msj(
            flags,
            algo_name,
            Path::new(manifest),
            &spec,
            &input,
            &other,
            sort_mem,
        )?,
        None => make_algo(algo_name, make_engine(flags)?, sort_mem)?,
    };
    // --threads: explicit flag wins; otherwise HDSJ_THREADS or 1 (serial).
    // 0 resolves to all available cores inside the exec pool.
    let threads: usize = num(flags, "threads", hdsj::exec::default_threads())?;
    algo.set_threads(threads);
    if let Some(lc) = make_lifecycle(flags)? {
        algo.set_lifecycle(lc);
    }

    // --trace installs a JSONL tracer for the whole run: the algorithm's
    // spans/counters plus (via the process global) any generator spans.
    let tracer = match flags.get("trace") {
        Some(path) => {
            let tracer = hdsj::obs::Tracer::jsonl(Path::new(path)).map_err(|e| {
                Error::InvalidInput(format!("cannot create trace file {path:?}: {e}"))
            })?;
            hdsj::obs::set_global(tracer.clone());
            algo.set_tracer(tracer.clone());
            Some(tracer)
        }
        None => None,
    };

    let mut sink = VecSink::default();
    let started = std::time::Instant::now();
    let outcome = match &other {
        Some(other) => algo.join(&input, other, &spec, &mut sink),
        None => algo.self_join(&input, &spec, &mut sink),
    };
    let elapsed = started.elapsed();
    // A failed join reports too: the driver has recorded what it counted.
    if let Some(tracer) = &tracer {
        tracer.flush();
        hdsj::obs::set_global(hdsj::obs::Tracer::disabled());
    }
    let stats = outcome?;

    if json_stats {
        println!("{}", stats_json(algo.name(), eps, &stats, elapsed));
    } else {
        println!("algorithm : {}", algo.name());
        println!("pairs     : {}", stats.results);
        if !flags.contains_key("quiet") {
            // Detail block on stderr: visible in a terminal, out of the way
            // of pipelines consuming the stdout summary.
            eprintln!(
                "candidates: {} (precision {:.4})",
                stats.candidates,
                stats.filter_precision()
            );
            eprintln!("time      : {elapsed:?}");
            eprintln!("simd      : {}", hdsj::core::simd::level().name());
            for phase in &stats.phases {
                eprintln!("  {:<8}: {:?}", phase.name, phase.elapsed);
            }
            if stats.io.total() > 0 {
                eprintln!(
                    "io        : {} reads, {} writes, {} hits (hit rate {:.3}), \
                     {} evictions, {} writebacks",
                    stats.io.reads,
                    stats.io.writes,
                    stats.io.hits,
                    stats.io.hit_rate(),
                    stats.io.evictions,
                    stats.io.writebacks
                );
                if stats.io.faults > 0 || stats.io.retries > 0 || stats.io.corruptions > 0 {
                    eprintln!(
                        "faults    : {} injected, {} retries, {} corruptions detected",
                        stats.io.faults, stats.io.retries, stats.io.corruptions
                    );
                }
            }
        }
    }

    if let Some(out) = flags.get("out") {
        dio::save_pairs(&sink.pairs, Path::new(out))?;
        if !json_stats {
            println!("pairs written to {out}");
        }
    } else if !json_stats && !flags.contains_key("quiet") && !sink.pairs.is_empty() {
        for (i, j) in sink.pairs.iter().take(10) {
            println!("  ({i}, {j})");
        }
        if sink.pairs.len() > 10 {
            println!(
                "  ... {} more (use --out FILE to save)",
                sink.pairs.len() - 10
            );
        }
    }
    Ok(())
}

/// One machine-readable JSON object for `--stats json`, built with the
/// `hdsj-obs` encoder so escaping and float formatting stay consistent
/// with trace files. New keys go at the end: readers find the old ones
/// where they were.
fn stats_json(
    algo: &str,
    eps: f64,
    stats: &hdsj::core::JoinStats,
    elapsed: std::time::Duration,
) -> String {
    use hdsj::obs::json::{encode_f64, encode_str};
    let object = |fields: Vec<(&str, String)>| {
        let fields: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("{}:{value}", encode_str(key)))
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    let phases: Vec<_> = stats
        .phases
        .iter()
        .map(|p| (p.name, p.elapsed.as_micros().to_string()))
        .collect();
    let counters = stats.counters.iter().map(|&(k, v)| (k, v.to_string()));
    let counters = counters.collect();
    let io = &stats.io;
    let mut io_fields: Vec<(&str, String)> = [
        ("reads", io.reads),
        ("writes", io.writes),
        ("allocs", io.allocs),
        ("hits", io.hits),
        ("evictions", io.evictions),
        ("writebacks", io.writebacks),
        ("retries", io.retries),
        ("faults", io.faults),
        ("corruptions", io.corruptions),
    ]
    .map(|(k, v)| (k, v.to_string()))
    .to_vec();
    io_fields.push(("hit_rate", encode_f64(io.hit_rate())));
    object(vec![
        ("algorithm", encode_str(algo)),
        ("simd", encode_str(hdsj::core::simd::level().name())),
        ("results", stats.results.to_string()),
        ("candidates", stats.candidates.to_string()),
        ("dist_evals", stats.dist_evals.to_string()),
        ("filter_precision", encode_f64(stats.filter_precision())),
        ("time_us", elapsed.as_micros().to_string()),
        ("structure_bytes", stats.structure_bytes.to_string()),
        ("phases", object(phases)),
        ("io", object(io_fields)),
        ("counters", object(counters)),
        ("eps", encode_f64(eps)),
    ])
}

/// `hdsj trace-report FILE [--phases] [--critical-path]`: renders a
/// JSONL trace as a phase tree, a CPU/IO/Wait cost-attribution table,
/// or the longest span chain.
fn trace_report(args: &[String]) -> Result<()> {
    let usage = "usage: hdsj trace-report FILE [--phases] [--critical-path]";
    let Some((path, rest)) = args.split_first() else {
        return Err(Error::InvalidInput(usage.into()));
    };
    let mut phases = false;
    let mut critical = false;
    for flag in rest {
        match flag.as_str() {
            "--phases" => phases = true,
            "--critical-path" => critical = true,
            other => {
                return Err(Error::InvalidInput(format!(
                    "unknown trace-report flag {other:?}; {usage}"
                )));
            }
        }
    }
    let text = std::fs::read_to_string(path)?;
    let trace = hdsj::obs::report::Trace::parse(&text)
        .map_err(|e| Error::InvalidInput(format!("{path}: {e}")))?;
    if !phases && !critical {
        // An MSJ trace alone carries 21 counters, the pool's nine among
        // the smallest: the cut sits past one algorithm's full set.
        print!("{}", hdsj::obs::report::render(&trace, 24));
        return Ok(());
    }
    if phases {
        print!("{}", hdsj::obs::report::render_phases(&trace));
    }
    if critical {
        print!("{}", hdsj::obs::report::render_critical_path(&trace));
    }
    Ok(())
}

/// `hdsj stats FILE [--format human|prom]`: renders the metrics embedded
/// in a JSONL trace (counters, gauges, histograms) as a human-readable
/// table or Prometheus text exposition format.
fn stats_cmd(args: &[String]) -> Result<()> {
    let usage = "usage: hdsj stats FILE [--format human|prom]";
    let Some((path, rest)) = args.split_first() else {
        return Err(Error::InvalidInput(usage.into()));
    };
    let flags = parse_flags(rest)?;
    let format = flags.get("format").map(String::as_str).unwrap_or("human");
    let text = std::fs::read_to_string(path)?;
    let trace = hdsj::obs::report::Trace::parse(&text)
        .map_err(|e| Error::InvalidInput(format!("{path}: {e}")))?;
    let snapshot = trace
        .metrics_snapshot()
        .map_err(|e| Error::InvalidInput(format!("{path}: {e}")))?;
    match format {
        "human" => print!("{}", snapshot.to_human()),
        "prom" => print!("{}", snapshot.to_prometheus()),
        other => {
            return Err(Error::InvalidInput(format!(
                "unknown --format {other:?}; expected human or prom"
            )));
        }
    }
    Ok(())
}

fn info(flags: &HashMap<String, String>) -> Result<()> {
    let ds = dio::load_csv(Path::new(req(flags, "input")?))?;
    println!("points : {}", ds.len());
    println!("dims   : {}", ds.dims());
    println!("bytes  : {}", ds.bytes());
    let in_unit = ds.check_unit_domain().is_ok();
    println!(
        "domain : {}",
        if in_unit {
            "[0,1)^d ✓"
        } else {
            "NOT unit-domain (rescale before joining)"
        }
    );
    // Per-dimension ranges (first 8 dims).
    for d in 0..ds.dims().min(8) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, p) in ds.iter() {
            lo = lo.min(p[d]);
            hi = hi.max(p[d]);
        }
        println!("  dim {d}: [{lo:.4}, {hi:.4}]");
    }
    Ok(())
}
