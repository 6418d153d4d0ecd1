//! The public join API: specifications, result sinks, the trait every
//! algorithm implements, and the one driver that runs them — the only place
//! that decides what a join run records, when it polls, and what it reports
//! on exit.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::lifecycle::LifecycleCtx;
use crate::metric::Metric;
use crate::stats::{IoCounters, JoinStats, Phase};
use crate::sweep::TileTally;
use hdsj_obs::{names, PhaseClass, Span, Tracer};

/// Whether the join runs over two datasets or one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    /// `A ⋈_ε B`: every `(a, b) ∈ A × B` with `D(a, b) ≤ ε`, reported as
    /// `(index in A, index in B)`.
    TwoSets,
    /// `A ⋈_ε A` without self pairs: every unordered pair `{i, j}`, `i ≠ j`,
    /// reported exactly once as `(min(i, j), max(i, j))`.
    SelfJoin,
}

/// Parameters of an ε-similarity join.
#[derive(Clone, Copy, Debug)]
pub struct JoinSpec {
    /// Distance threshold (must be `> 0` and finite).
    pub eps: f64,
    /// Distance function used for the exact refinement test.
    pub metric: Metric,
}

impl JoinSpec {
    /// A spec with the given threshold and the Euclidean metric.
    pub fn l2(eps: f64) -> JoinSpec {
        JoinSpec {
            eps,
            metric: Metric::L2,
        }
    }

    /// A spec with the given threshold and metric.
    pub fn new(eps: f64, metric: Metric) -> JoinSpec {
        JoinSpec { eps, metric }
    }

    /// Validates `eps` and the metric.
    pub fn validate(&self) -> Result<()> {
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return Err(Error::InvalidInput(format!(
                "eps must be finite and > 0, got {}",
                self.eps
            )));
        }
        self.metric.validate()
    }
}

/// Receives the result pairs of a join, one at a time, in whatever order the
/// algorithm produces them.
pub trait PairSink {
    /// Called once per result pair.
    fn push(&mut self, i: u32, j: u32);
}

/// A sink that only counts results — the cheapest way to measure a join.
#[derive(Debug, Default)]
pub struct CountSink {
    /// Number of pairs received.
    pub count: u64,
}

impl PairSink for CountSink {
    fn push(&mut self, _i: u32, _j: u32) {
        self.count += 1;
    }
}

/// A sink that materializes all result pairs.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The collected pairs, in production order.
    pub pairs: Vec<(u32, u32)>,
}

impl PairSink for VecSink {
    fn push(&mut self, i: u32, j: u32) {
        self.pairs.push((i, j));
    }
}

/// Adapts any closure into a sink.
pub struct CallbackSink<F: FnMut(u32, u32)>(pub F);

impl<F: FnMut(u32, u32)> PairSink for CallbackSink<F> {
    fn push(&mut self, i: u32, j: u32) {
        (self.0)(i, j);
    }
}

/// The per-run settings every algorithm embeds, once: where it reports,
/// what may stop it, and how many partitions it may run.
#[derive(Clone, Debug)]
pub struct JoinEnv {
    /// Trace sink for spans, counters and histograms (disabled by default).
    pub tracer: Tracer,
    /// Per-query lifecycle context (cancellation, deadline, budgets).
    pub lifecycle: Option<LifecycleCtx>,
    /// Worker-thread budget, at least 1; inherently serial algorithms
    /// ignore it, and results are identical at every count.
    pub threads: usize,
}

impl Default for JoinEnv {
    fn default() -> JoinEnv {
        JoinEnv {
            tracer: Tracer::disabled(),
            lifecycle: None,
            threads: 1,
        }
    }
}

/// Normalizes a requested thread count: `0` means "all hardware threads"
/// (via `std::thread::available_parallelism`), anything else is taken
/// as-is.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// An ε-similarity join algorithm: a name, its settings, and its filter.
///
/// An implementation writes [`SimilarityJoin::run`] — build the filter
/// structure, enumerate candidates, refine them — against the [`JoinRun`]
/// it is handed; everything around that (validation, the root span, phase
/// clocks, lifecycle polls, counters, what an exit reports) is [`drive`],
/// behind the provided methods. Implementations must be exact (identical
/// result sets across algorithms) and must respect the pair-reporting
/// conventions of [`JoinKind`].
pub trait SimilarityJoin {
    /// Short identifier used in experiment output (`"MSJ"`, `"RSJ"`, …);
    /// lower-cased it prefixes the run's span and metric names.
    fn name(&self) -> &'static str;

    /// The embedded per-run settings.
    fn env(&mut self) -> &mut JoinEnv;

    /// The join proper. `b` is `a` itself for [`JoinKind::SelfJoin`].
    /// Phases go through [`JoinRun::phase`], counts through
    /// [`JoinRun::refined`] / [`JoinRun::count`] / [`JoinRun::tally`] —
    /// recorded before an error is propagated, they are reported with it.
    fn run(
        &self,
        run: &mut JoinRun<'_>,
        a: &Dataset,
        b: &Dataset,
        kind: JoinKind,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<()>;

    /// Installs a tracer: subsequent runs record their phases as spans and
    /// their statistics as counters (see `hdsj-obs`).
    fn set_tracer(&mut self, tracer: Tracer) {
        self.env().tracer = tracer;
    }

    /// Sets the worker-thread budget for subsequent runs (`0` means "use
    /// all available parallelism").
    fn set_threads(&mut self, threads: usize) {
        self.env().threads = resolve_threads(threads);
    }

    /// Installs a lifecycle context (cancellation, deadline, budgets) for
    /// subsequent runs: polled at phase boundaries and inside every
    /// input-sized loop, and handed to the exec pool and storage engine,
    /// so a raised flag stops the join within one chunk / one page
    /// operation with the typed lifecycle error — and its partial counts.
    fn set_lifecycle(&mut self, ctx: LifecycleCtx) {
        self.env().lifecycle = Some(ctx);
    }

    /// Joins two datasets. `a.dims() == b.dims()` is required.
    fn join(
        &mut self,
        a: &Dataset,
        b: &Dataset,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<JoinStats> {
        let env = self.env().clone();
        let sizes = [(a.len(), a.dims()), (b.len(), b.dims())];
        drive(self.name(), &env, sizes, spec, |run| {
            self.run(run, a, b, JoinKind::TwoSets, spec, sink)
        })
    }

    /// Self-joins one dataset.
    fn self_join(
        &mut self,
        a: &Dataset,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<JoinStats> {
        let env = self.env().clone();
        let sizes = [(a.len(), a.dims()); 2];
        drive(self.name(), &env, sizes, spec, |run| {
            self.run(run, a, a, JoinKind::SelfJoin, spec, sink)
        })
    }
}

/// The one join driver. Validates the spec and the two inputs' `(points,
/// dims)`, opens the root span `<algo>.join` with the standard attributes
/// (`algo`, `n_a`, `n_b`, `dims`, `eps`), runs `body`, and on **every**
/// exit — success, cancellation, deadline, budget, storage fault, a panic
/// the exec pool contained — writes what the run counted so far:
/// `candidates` / `results` on the span and as `<algo>.candidates` /
/// `<algo>.results`, the body's own counters as `<algo>.<name>`, the
/// lifecycle's `lifecycle.cancel_polls` / `lifecycle.checkpoints`, and an
/// `error` attribute naming the variant. Metric names are derived from the
/// lower-cased `algo`; `obs::names` registers their expansions.
pub fn drive(
    algo: &'static str,
    env: &JoinEnv,
    sizes: [(usize, usize); 2],
    spec: &JoinSpec,
    body: impl FnOnce(&mut JoinRun<'_>) -> Result<()>,
) -> Result<JoinStats> {
    spec.validate()?;
    let [(n_a, dims), (n_b, dims_b)] = sizes;
    if dims != dims_b {
        return Err(Error::InvalidInput(format!(
            "dimensionality mismatch: {dims} vs {dims_b}"
        )));
    }
    let prefix = algo.to_ascii_lowercase();
    let mut span = env.tracer.span(format!("{prefix}.join"));
    span.attr_str("algo", algo);
    span.attr_u64("n_a", n_a as u64);
    span.attr_u64("n_b", n_b as u64);
    span.attr_u64("dims", dims as u64);
    span.attr_f64("eps", spec.eps);
    let mut run = JoinRun {
        env,
        prefix,
        span,
        stats: JoinStats::default(),
    };
    let outcome = body(&mut run);

    let JoinRun {
        prefix,
        mut span,
        stats,
        ..
    } = run;
    if env.tracer.enabled() {
        span.attr_u64("candidates", stats.candidates);
        span.attr_u64("results", stats.results);
        let counts = [("candidates", stats.candidates), ("results", stats.results)];
        for (name, value) in counts.iter().chain(&stats.counters) {
            env.tracer.counter(format!("{prefix}.{name}")).add(*value);
        }
        if let Some(lc) = &env.lifecycle {
            let ls = lc.stats();
            for (name, value) in [
                (names::LIFECYCLE_CANCEL_POLLS, ls.polls),
                (names::LIFECYCLE_CHECKPOINTS, ls.checkpoints),
            ] {
                env.tracer.counter(name).add(value);
            }
        }
        if let Err(e) = &outcome {
            span.attr_str("error", e.variant_name());
        }
    }
    span.finish();
    outcome.map(|()| stats)
}

/// One join run as its body sees it: the settings it runs under and the
/// only way to record what it did. Created by [`drive`].
pub struct JoinRun<'e> {
    env: &'e JoinEnv,
    /// The lower-cased algorithm name metric names start with.
    prefix: String,
    /// The innermost open span: the root, or the current phase's.
    span: Span,
    stats: JoinStats,
}

impl<'e> JoinRun<'e> {
    /// Polls the lifecycle context, if the run has one: the typed error
    /// once the query is cancelled or past its deadline.
    pub fn poll(&self) -> Result<()> {
        self.env.lifecycle.as_ref().map_or(Ok(()), |lc| lc.poll())
    }

    /// The lifecycle context, for the layers that poll it themselves
    /// (`TileJoin`, the exec pool, the storage engine).
    pub fn lifecycle(&self) -> Option<&'e LifecycleCtx> {
        self.env.lifecycle.as_ref()
    }

    /// The tracer the run reports to.
    pub fn tracer(&self) -> &'e Tracer {
        &self.env.tracer
    }

    /// The worker-thread budget, at least 1.
    pub fn threads(&self) -> usize {
        self.env.threads.max(1)
    }

    /// The innermost open span — what worker spans are parented to.
    pub fn span(&self) -> &Span {
        &self.span
    }

    /// Runs `body` as the named phase: polls, opens a child span of class
    /// `class`, and when `body` returns — `Ok` or `Err` — closes it into
    /// [`JoinStats::phases`] and the `<algo>.phase.<name>_ns` histogram.
    pub fn phase<T>(
        &mut self,
        name: &'static str,
        class: PhaseClass,
        body: impl FnOnce(&mut JoinRun<'e>) -> Result<T>,
    ) -> Result<T> {
        self.poll()?;
        let mut span = self.span.child(name);
        span.set_phase(class);
        let outer = std::mem::replace(&mut self.span, span);
        let outcome = body(self);
        let elapsed = std::mem::replace(&mut self.span, outer).finish();
        if self.env.tracer.enabled() {
            let hist = format!("{}.phase.{name}_ns", self.prefix);
            self.env.tracer.histogram(hist).record_duration(elapsed);
        }
        self.stats.phases.push(Phase { name, elapsed });
        outcome
    }

    /// Attaches an integer attribute to the root span: an algorithm's
    /// documented extra (`threads`, `depth`, `projection_dim`). Call it
    /// outside any phase.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        self.span.attr_u64(key, value);
    }

    /// Adds a refiner's `(candidates, results, dist_evals)`.
    pub fn refined(&mut self, (candidates, results, dist_evals): (u64, u64, u64)) {
        self.stats.candidates += candidates;
        self.stats.results += results;
        self.stats.dist_evals += dist_evals;
    }

    /// Records one of the algorithm's own counters: `<algo>.<name>` in the
    /// trace, `name` in [`JoinStats::counters`].
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.stats.counters.push((name, value));
    }

    /// Records a tile join's tally as the five `sweep.*` counters.
    pub fn tally(&mut self, tally: TileTally) {
        self.stats.counters.extend(tally.counters());
    }

    /// Adds `bytes` to the structure-resident footprint.
    pub fn structure_bytes(&mut self, bytes: u64) {
        self.stats.structure_bytes += bytes;
    }

    /// Adds the storage engine's page traffic (`StorageEngine::scope`).
    pub fn io(&mut self, io: &IoCounters) {
        self.stats.io.add(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(JoinSpec::l2(0.1).validate().is_ok());
        assert!(JoinSpec::l2(0.0).validate().is_err());
        assert!(JoinSpec::l2(-1.0).validate().is_err());
        assert!(JoinSpec::l2(f64::NAN).validate().is_err());
        assert!(JoinSpec::new(0.1, Metric::Lp(0.2)).validate().is_err());
    }

    #[test]
    fn sinks_collect() {
        let mut c = CountSink::default();
        c.push(0, 1);
        c.push(2, 3);
        assert_eq!(c.count, 2);

        let mut v = VecSink::default();
        v.push(4, 5);
        assert_eq!(v.pairs, vec![(4, 5)]);

        let mut seen = Vec::new();
        {
            let mut cb = CallbackSink(|i, j| seen.push(i + j));
            cb.push(1, 2);
        }
        assert_eq!(seen, vec![3]);
    }

    #[test]
    fn input_validation_checks_dims() {
        let spec = JoinSpec::l2(0.1);
        let env = JoinEnv::default();
        let sizes = |dims_b| [(0, 2), (0, dims_b)];
        let err = drive("T", &env, sizes(3), &spec, |_| Ok(())).unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)), "{err:?}");
        assert!(drive("T", &env, sizes(2), &spec, |_| Ok(())).is_ok());
        assert!(drive("T", &env, sizes(2), &JoinSpec::l2(0.0), |_| Ok(())).is_err());
    }
}
