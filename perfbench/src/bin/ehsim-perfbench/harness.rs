//! What the three workloads share: run context, set-up and closed-loop
//! timing, check bookkeeping, timers and the resident-set probe.

use crate::registry::Metrics;
use crate::stats;
use crate::trace::{Tracer, ROOT};
use std::fmt::Debug;
use std::time::Instant;

/// Fewest untraced iterations a run takes, however short `--seconds`.
const MIN_ITERATIONS: usize = 3;

/// Shortest median iteration a run accepts (s): a few hundred times a
/// thread spawn and far above the clock's resolution, so neither shows
/// in the figures (a 0.6 ms campaign timing measured thread spawn).
const MIN_ITERATION_S: f64 = 0.01;

/// Worker threads of every timed call. A two-thread iteration on a
/// shared 2-vCPU host is only as fast as the slower vCPU, and other
/// tenants slow one or the other for long stretches, so the timed work
/// runs on one thread: the plain single-threaded baseline of the same
/// problem. Thread-count invariance is still checked at `nproc()`
/// threads, outside the timed loop.
pub const WORKER_THREADS: usize = 1;

/// The host's parallelism, for the thread-invariance checks.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run settings from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: per-layer numbers instead of end-to-end ones.
    pub trace: bool,
    /// Reduced problem sizes (self-tests).
    pub small: bool,
}

impl Ctx {
    /// A seed for one input stream, derived from the run seed.
    pub fn stream(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(stream))
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Iteration times (s) collected by [`Outcome::closed_loop`].
#[derive(Debug, Default)]
pub struct Samples {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

/// What a workload run produces.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: the set-up, timed iterations and checks.
    pub attempted: u64,
    /// Erroring operations plus failed checks and regime assertions.
    pub failed: u64,
    /// Human-readable lines (checks, sizes, notes).
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            tracer: Tracer::new(),
        }
    }

    /// Records one correctness check or regime assertion.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.notes.push(format!(
            "check {what}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Sets up `reps` times (dropping each result before the next
    /// set-up, so one is alive at a time) and keeps the last result.
    /// Returns it with every set-up's host time (s), or `None` after
    /// recording the error.
    pub fn setups<S>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut() -> Result<S, String>,
    ) -> Option<(S, Vec<f64>)> {
        // The repeated set-up counts as one operation.
        self.attempted += 1;
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let (made, secs) = timed(&mut setup);
            match made {
                Ok(s) => last = Some(s),
                Err(e) => {
                    self.failed += 1;
                    self.notes.push(format!("set-up failed: {e}"));
                    return None;
                }
            }
            times.push(secs);
        }
        last.map(|s| (s, times))
    }

    /// The closed loop: one iteration at a time for `ctx.seconds`,
    /// after one discarded warm-up iteration. In a traced run every
    /// other iteration records spans, so traced and untraced samples
    /// share the run and their difference is the tracing overhead.
    pub fn closed_loop(
        &mut self,
        ctx: &Ctx,
        mut iteration: impl FnMut(&mut Tracer) -> Result<(), String>,
    ) -> Samples {
        let mut run_one = |out: &mut Outcome, traced: bool| -> Option<f64> {
            out.tracer.set_on(traced);
            out.tracer.next_iteration();
            let root = out.tracer.enter(ROOT);
            let start = Instant::now();
            let result = iteration(&mut out.tracer);
            let wall = start.elapsed().as_secs_f64();
            out.tracer.exit(root);
            out.tracer.set_on(false);
            out.attempted += 1;
            match result {
                Ok(()) => Some(wall),
                Err(e) => {
                    out.failed += 1;
                    out.notes.push(format!("iteration failed: {e}"));
                    None
                }
            }
        };
        run_one(self, false);
        let mut samples = Samples::default();
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed().as_secs_f64() < ctx.seconds || samples.untraced.len() < MIN_ITERATIONS
        {
            let on = ctx.trace && i.is_multiple_of(2);
            if let Some(wall) = run_one(self, on) {
                if on {
                    samples.traced.push(wall);
                } else {
                    samples.untraced.push(wall);
                }
            }
            i += 1;
            // Every iteration failing must not spin forever.
            if self.failed > 0 && i >= MIN_ITERATIONS && samples.untraced.is_empty() {
                break;
            }
        }
        samples
    }

    /// The end-to-end metrics every workload shares. `sim_s` is the
    /// simulated time one iteration requests.
    ///
    /// The bounded figures are medians: `setup_s` over the set-ups,
    /// `wall_s` over the iterations and `sim_rate` at that median. The
    /// fastest iteration, the quartiles and the tail percentile are
    /// reported too. On a shared host, short quiet spells make the
    /// fastest iteration jump between runs (16–38% spread across ten
    /// seeds, against 9–11% for the median).
    pub fn end_to_end(&mut self, samples: &Samples, setup: &[f64], sim_s: f64, rss_mb: f64) {
        let untraced = &samples.untraced;
        let q = stats::quartiles(untraced);
        self.metrics.set("setup_s", stats::median(setup));
        self.metrics.set("wall_s", q[2]);
        self.metrics.set("wall_best_s", q[0]);
        let (pct, tail) = stats::tail(untraced).unwrap_or((100.0, q[4]));
        self.metrics.set("wall_tail_s", tail);
        self.metrics.set("sim_rate", sim_s / q[2]);
        self.metrics.set("peak_rss_mb", rss_mb);
        self.check(
            "regime: iteration >> clock and thread spawn",
            q[2] >= MIN_ITERATION_S,
            format!("median iteration {:.4} s, floor {MIN_ITERATION_S} s", q[2]),
        );
        self.note(format!(
            "{} timed iterations on {WORKER_THREADS} worker thread(s): wall (s) min {:.4}, q1 {:.4}, \
             median {:.4}, q3 {:.4}, max {:.4}; wall_tail_s is p{pct:.1} (10 samples above it; \
             the maximum below 11 samples); setup_s is the median of {} set-ups",
            untraced.len(),
            q[0],
            q[1],
            q[2],
            q[3],
            q[4],
            setup.len()
        ));
    }

    /// Span-derived trace metrics: mean per-iteration self time by
    /// layer, the unattributed remainder, and the tracing overhead.
    pub fn trace_metrics(&mut self, samples: &Samples) {
        let (untraced, traced) = (&samples.untraced, &samples.traced);
        let n = self.tracer.durations(ROOT).len().max(1) as f64;
        let self_times = self.tracer.self_times();
        for layer in crate::registry::SPAN_LAYERS {
            let v = self_times.get(*layer).copied().unwrap_or(0.0) / n;
            self.metrics.set(&format!("self.{layer}_s"), v);
        }
        let unattributed = self_times.get("unattributed").copied().unwrap_or(0.0) / n;
        let traced_wall = stats::mean(&self.tracer.durations(ROOT));
        self.metrics.set("trace.unattributed_s", unattributed);
        self.metrics.set("trace.wall_s", traced_wall);
        self.metrics
            .set("trace.untraced_wall_s", stats::mean(untraced));
        self.metrics.set(
            "trace.overhead_s",
            stats::mean(traced) - stats::mean(untraced),
        );
        self.metrics
            .set("trace.spans", self.tracer.span_count() as f64);
    }

    /// Median per-iteration duration (s) of the spans named `name`.
    pub fn span_median(&self, name: &str) -> f64 {
        stats::median(&self.tracer.durations(name))
    }
}

/// Runs `f` and returns its value with the elapsed host time (s).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median host time (s) of `reps` calls of `f`.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    stats::median(&samples)
}

/// Peak resident set of this process so far (MB), from
/// `/proc/self/status`; NaN where that is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bit-for-bit equality of two results via their `Debug` rendering,
/// which prints every `f64` as its shortest round-trip form.
pub fn same_bits<T: Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}
