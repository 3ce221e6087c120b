//! The Dynamic Priority Scheduler (§ V).
//!
//! Each ready job gets a **dynamic scheduling priority**
//!
//! ```text
//! P_i = γ·p_i + d_i                                      (paper Eq. 10)
//! ```
//!
//! where `p_i` is the static priority (smaller = more important) and `d_i`
//! is the *scheduling deadline* — the latest start delay that still meets
//! the deadline, `d_i = D_i − c_i` (Eq. 9), evaluated here as the job's
//! absolute laxity `release + D_i − now − c_i` so jobs released in different
//! cycles compare correctly. The job with the smallest `P_i` dispatches
//! first:
//!
//! * `γ = 0` → pure laxity/deadline order (throughput, guarantees);
//! * large `γ` → static-priority order (control-task responsiveness).
//!
//! **Deriving γ (Eq. 11–12).** The scheduler computes the largest γ for
//! which *every* ready job can still start in time under the γ-induced
//! order:
//!
//! ```text
//! c_j + ΣT_p/n_p + Σ_{P_i < P_j} c_i / n_p  <  D_j(remaining)   ∀ j
//! ```
//!
//! then clamps the PDC's nominal `u(t)` into `[0, γ_max]`. Two search
//! strategies are provided: a bisection that assumes the feasible set is the
//! interval `[0, γ_max]` (the paper's framing, and the default), and an
//! exact sweep over the *critical γ values* where the queue order changes —
//! the ablation benchmark compares them.
//!
//! **Probe cost.** Each recompute first checks, in one `O(n)` pass over the
//! queue and before anything is loaded or ranked, whether every job
//! would meet Eq. 11 even with all the rest of the queue ahead of it.
//! Then `γ_max` is the ceiling under every ranking, and the recompute
//! ends there (the *feasibility certificate*, see `Horizon::certifies`;
//! on the paper configuration it settles about three in four non-empty
//! recomputes). Otherwise the search probes. An exact probe ranks the
//! queue at one γ and walks Eq. 11 over that ranking. A bisection
//! recompute makes up to 26 of them (γ = 0, the ceiling and 24 steps)
//! against one queue snapshot. Each recompute that probes loads every
//! queued job once into a contiguous record (packed
//! sort key, `p_i`, laxity at `now`, observed `c_i`, absolute deadline,
//! skip flag) in scratch owned by the scheduler, and ranks the records in
//! place: one
//! full sort at γ = 0, then per probe a re-key and a single insertion pass
//! that compares one integer per step (adjacent probes reorder few jobs,
//! so the pass is `O(n + inversions)` rather than a fresh `O(n log n)`
//! sort). Two exact shortcuts ride on top. A probe whose insertion pass
//! moves nothing has the ranking, hence the verdict, of the probe before
//! it, so its walk is skipped. And before the first probe high in the γ
//! range the γ = 0 ranking is regrouped by static priority in one stable
//! counting pass, which leaves that probe's insertion pass little to move.
//!
//! When a probe above γ = 0 fails, one job it finds late proves, in
//! `O(n log n)`, a bound above which every γ up to the top of the range
//! still open fails too: Eq. 11 counted over only the jobs certain to stay
//! ahead of it (see `GammaScratch::bound`). The bisection takes one bound,
//! from its ceiling probe, and decides the mids above it without ranking.
//! The critical-point sweep takes one after every failed probe and jumps
//! past the intervals it covers, so of its up to `O(n²)` intervals it
//! probes only a few; the first bound, from the top interval, also drops
//! the crossings above it unsorted (see [`GammaSearch::CriticalPoints`]).
//!
//! Both strategies run on the same records;
//! [`DynamicPriorityScheduler::search_counters`] counts certified
//! recomputes, probes, reused verdicts and skips.
//!
//! `select` keys each candidate with the same packed integer as the
//! ranking, `P_i` above the job id, and keeps the least: one integer
//! compare per candidate.
//! The pre-optimization sort-per-probe search is retained in
//! [`mod@reference`] as the benchmark baseline and as an independent oracle
//! in tests.

use hcperf_rtsim::{order_image, SchedContext, Scheduler};
use hcperf_taskgraph::{SimSpan, SimTime};

/// Bisection steps per recompute (each halves the bracket).
const BISECTION_STEPS: u32 = 24;

/// Minimum simulated time between γ recomputations (γ is also recomputed
/// whenever a new nominal `u` arrives).
const RECOMPUTE_INTERVAL: SimSpan = SimSpan::from_secs_const(0.005);

/// How the scheduler searches for `γ_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GammaSearch {
    /// Bisection over `[0, ceiling]` assuming interval-shaped feasibility
    /// (the paper's assumption). Cost: the `O(n)` feasibility certificate,
    /// which ends the search at the ceiling when it holds; otherwise one
    /// `O(n log n)` sort at γ = 0, an
    /// `O(n + span)` priority regroup, the ceiling probe and, if that
    /// fails, an `O(n log n)` infeasibility certificate. A step above the
    /// certified bound costs `O(1)`; any other step an insertion pass,
    /// `O(n + inversions)` (`O(n²)` at worst), and an `O(n)` Eq. 11 walk
    /// unless the pass moved nothing. Runs 24 steps.
    #[default]
    Bisection,
    /// Exact sweep over the `O(n²)` pairwise crossover points of
    /// `P_i(γ) = P_j(γ)`; finds the true supremum of the feasible set.
    ///
    /// The ranking is constant between consecutive crossings, so the sweep
    /// walks those intervals downward from the ceiling and stops at the
    /// first feasible one. Every interval it decides gets the same exact
    /// float probe as [`reference::gamma_max`], so the result is
    /// bit-identical to it; after each failed probe an infeasibility
    /// certificate rules out the intervals below it down to the smallest
    /// crossing above its bound, and the sweep jumps past them. Cost: the
    /// `O(n)` feasibility certificate, which ends the search at the
    /// ceiling when it holds; otherwise one `O(n log n)` sort at γ = 0,
    /// `O(n²)` to generate the crossings and probe the top interval. If
    /// that is infeasible, an `O(n²)` pass that drops every crossing above
    /// the first certificate's bound, `O(m log m)` to sort the `m`
    /// crossings left, and per interval probed a `rank`, an `O(n)` Eq. 11
    /// walk and, if it fails, an `O(n log n)` certificate and an
    /// `O(log m)` jump.
    CriticalPoints,
}

/// Configuration of the Dynamic Priority Scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpsConfig {
    /// Absolute upper bound of the γ search, in seconds of laxity per
    /// priority level.
    pub gamma_ceiling: f64,
    /// Search strategy for `γ_max`.
    pub search: GammaSearch,
    /// Paper-literal Eq. 11: if **any** ready job cannot meet its deadline
    /// under any order, treat the system as overloaded and force `γ = 0`.
    /// When `false` (default), jobs that are already doomed at `γ = 0` are
    /// excluded from the constraint set — no γ can save them, and keeping
    /// them would pin `γ = 0` through every transient.
    pub strict_eq11: bool,
}

impl Default for DpsConfig {
    fn default() -> Self {
        DpsConfig {
            gamma_ceiling: 0.2,
            search: GammaSearch::default(),
            strict_eq11: false,
        }
    }
}

/// The Dynamic Priority Scheduler.
///
/// Feed the nominal parameter from the Performance Directed Controller with
/// [`set_nominal_u`](DynamicPriorityScheduler::set_nominal_u) once per
/// control period; the scheduler derives and caches the actual coefficient
/// γ and dispatches by Eq. 10.
///
/// # Examples
///
/// ```
/// use hcperf::dps::{DpsConfig, DynamicPriorityScheduler};
/// use hcperf_rtsim::Scheduler;
///
/// let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
/// dps.set_nominal_u(0.05);
/// assert_eq!(dps.name(), "HCPerf");
/// ```
#[derive(Debug, Clone)]
pub struct DynamicPriorityScheduler {
    config: DpsConfig,
    nominal_u: f64,
    gamma: f64,
    gamma_max: f64,
    last_compute: Option<SimTime>,
    dirty: bool,
    scratch: GammaScratch,
    counters: GammaCounters,
}

/// Deterministic work counts of the γ search, summed over a scheduler's
/// lifetime (see [`DynamicPriorityScheduler::search_counters`]). They are
/// integers and feed no output, so reading them never changes a run.
/// `probes` counts rankings; `probes − reused` of them walked Eq. 11. A
/// recompute the feasibility certificate settles counts in `recomputes`
/// and `certified` only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GammaCounters {
    /// `γ_max` recomputations.
    pub recomputes: u64,
    /// Crossover points the critical-point sweep generated in
    /// `(0, gamma_ceiling)`.
    pub crossings: u64,
    /// Exact Eq. 11 probes (a ranking plus its verdict): the γ = 0 check,
    /// the ceiling or top-interval probe, bisection steps and the sweep
    /// intervals not skipped.
    pub probes: u64,
    /// Steps decided infeasible without a ranking: bisection mids above
    /// the certificate bound, and sweep intervals whose midpoints a
    /// certificate covers: those dropped with the crossings above the top
    /// interval's bound (one per crossing dropped, less the probed top
    /// interval, so crossings that coincide each count) and the distinct
    /// intervals the walk passes after later probes.
    pub skipped: u64,
    /// Probes whose ranking was the one the previous walk saw, so the
    /// Eq. 11 walk was skipped and its verdict reused (counted in
    /// `probes` too).
    pub reused: u64,
    /// Non-empty recomputes the feasibility certificate settled at the
    /// ceiling: every job meets Eq. 11 with the rest of the queue ahead
    /// of it, so nothing was ranked and none of the other counts moved.
    pub certified: u64,
}

/// The γ-independent terms of Eq. 11 for one recompute.
#[derive(Debug, Clone, Copy)]
struct Horizon {
    /// `now`, in seconds.
    now: f64,
    /// `ΣT_p / n_p`, in seconds.
    base: f64,
    /// Processor count `n_p`.
    n_p: f64,
}

impl Horizon {
    /// The terms at `ctx.now`.
    fn of(ctx: &SchedContext<'_>) -> Self {
        let n_p = ctx.processor_count() as f64;
        Horizon {
            now: ctx.now.as_secs(),
            base: ctx.total_remaining().as_secs() / n_p,
            n_p,
        }
    }

    /// Finish time of a job with execution time `c` and `work` seconds of
    /// execution ranked ahead of it, rounded as the reference's Eq. 11
    /// check rounds it.
    fn finish(self, work: f64, c: f64) -> f64 {
        self.now + (self.base + work / self.n_p) + c
    }

    /// [`finish`](Self::finish) rounded as the reference's doomed-job
    /// check rounds it: left to right.
    fn finish_doomed(self, work: f64, c: f64) -> f64 {
        self.now + self.base + work / self.n_p + c
    }

    /// The certificates' margin for `n` jobs whose `|c_i|` sum to `exec`
    /// (see [`GammaScratch::band`]).
    fn band(self, n: usize, exec: f64) -> f64 {
        let n = n as f64;
        let drift = 4.0 * (n + 3.0) * (n + 3.0) * f64::EPSILON;
        BAND_FLOOR + drift * (self.now.abs() + self.base.abs() + exec)
    }

    /// The feasibility certificate: whether every job of `ctx.queue`
    /// meets Eq. 11, by more than the band, with all the rest of the
    /// queue ranked ahead of it. Then the reference's walk passes under
    /// every ranking, so it returns the ceiling whatever the search and
    /// Eq. 11 mode. `O(n)`.
    ///
    /// Let `W = Σ c_i`, summed in queue order. The certificate holds when
    /// every `c_j` is finite and `≥ 0` and `finish(W − c_j, c_j) + band ≤
    /// deadline_j` for every `j`, with [`band`](GammaScratch::band) the
    /// margin of the queue's records (every `c_i ≥ 0`, so `W` is their
    /// `Σ|c_i|` to the bit). Soundness:
    ///
    /// * Every `c_i ≥ 0`, so the work ranked ahead of `j` in any ranking,
    ///   summed exactly, is at most the exact `W − c_j`.
    /// * The reference sums that prefix in ranking order, and this check
    ///   sums `W` in queue order and subtracts `c_j`; each differs from
    ///   the exact value by the rounding of at most `n + 1` additions.
    ///   Both finish times round four more operations, and the doomed-job
    ///   check ([`finish_doomed`](Self::finish_doomed)) rounds them left to
    ///   right. `band` bounds all of that together, as it does for
    ///   [`GammaScratch::bound`], so the reference's finish time of `j`,
    ///   under either rounding, is at most `deadline_j`.
    /// * So no job is doomed at γ = 0, the γ = 0 walk passes, and so does
    ///   the ceiling probe (the bisection) or the top-interval probe (the
    ///   sweep, whose top interval ends at the ceiling): the reference
    ///   returns `gamma_ceiling` under both searches, strict or relaxed.
    ///
    /// A NaN or infinite sum fails the comparison and certifies nothing.
    fn certifies(self, ctx: &SchedContext<'_>) -> bool {
        let mut total = 0.0;
        for job in ctx.queue {
            let c = ctx.exec_of(job).as_secs();
            if !(0.0..f64::INFINITY).contains(&c) {
                return false;
            }
            total += c;
        }
        let band = self.band(ctx.queue.len(), total);
        ctx.queue.iter().all(|job| {
            let c = ctx.exec_of(job).as_secs();
            self.finish(total - c, c) + band <= job.absolute_deadline().as_secs()
        })
    }
}

/// A γ must lie more than this many `ε · Σ(|ceiling·p_i| + |d_i|)` from a
/// crossing before the certificate trusts the float ranking there to
/// follow it.
const NARROW_ULPS: f64 = 1024.0;

/// Fixed part of the margin, in seconds, by which a constraint must be
/// violated for the certificate to count it (1 ns).
const BAND_FLOOR: f64 = 1e-9;

/// One queued job's Eq. 11 data for a recompute. The records are ranked in
/// place: their order in [`GammaScratch::recs`] *is* the ranking.
#[derive(Debug, Clone, Copy)]
struct Rec {
    /// Ranking key at the current probe ([`packed_key`] of `γ·p_i + d_i`
    /// and the job id). Before the first ranking, just the job id.
    key: u128,
    /// Static priority `p_i`, as the float the keys use.
    p: f64,
    /// Laxity `d_i` at `now`, in seconds.
    laxity: f64,
    /// Observed execution time `c_i`, in seconds.
    exec: f64,
    /// Absolute deadline, in seconds.
    deadline: f64,
    /// `p_i` as the graph stores it, for [`GammaScratch::seed`].
    prio: u32,
    /// Excluded from the Eq. 11 constraint set (relaxed mode).
    skip: bool,
}

/// The ranking key of a job with dynamic priority `key` and id `id`: one
/// integer whose order is `key.total_cmp`, ties broken by id.
fn packed_key(key: f64, id: u64) -> u128 {
    (u128::from(order_image(key)) << 64) | u128::from(id)
}

/// Per-job constraint data cached for one γ recomputation, ranked in place
/// across probes. Owned by the scheduler so steady-state recomputes
/// allocate nothing.
///
/// Soundness of the shortcuts, all exact:
///
/// * Every probe re-keys every record with the reference's expression
///   `γ·p_i + d_i` (so `0·p + (−0.0)` is `+0.0`, as there) and repairs the
///   previous order with an insertion pass. Insertion sort ends in the
///   sorted order from any start, and the order is total (`total_cmp`,
///   then the job id, unique in a run), so where a pass starts never
///   changes where it ends. That is why [`seed`](Self::seed) may regroup
///   the ranking freely.
/// * Within one recompute every Eq. 11 term but the ranking is fixed, so
///   a ranking that has not changed since its last walk has that walk's
///   verdict (`held`). Anything that reorders the records or changes the
///   constraint set drops it.
#[derive(Debug, Clone, Default)]
struct GammaScratch {
    /// The queued jobs, in ranking order (ascending key = higher
    /// priority).
    recs: Vec<Rec>,
    /// Eq. 11 verdict of the current ranking, kept until the ranking or
    /// the constraint set changes.
    held: Option<bool>,
    /// Bucket offsets of the priority seed.
    buckets: Vec<usize>,
    /// Copy of `recs` the priority seed scatters from.
    spare: Vec<Rec>,
    /// The certificate job's crossings with the jobs of smaller `p_i`,
    /// `(γ*, c_i)`: above `γ*` the job `i` is ranked ahead of it.
    gains: Vec<(f64, f64)>,
    /// Crossover points `γ*` of the critical-point sweep.
    points: Vec<f64>,
}

impl GammaScratch {
    /// Gathers the γ-independent job data; the ranking starts in queue
    /// order.
    fn load(&mut self, ctx: &SchedContext<'_>) {
        self.recs.clear();
        self.held = None;
        for job in ctx.queue {
            let c = ctx.exec_of(job);
            let prio = ctx.graph.spec(job.task()).priority().value();
            self.recs.push(Rec {
                key: u128::from(job.id().raw()),
                p: f64::from(prio),
                laxity: job.laxity(ctx.now, c).as_secs(),
                exec: c.as_secs(),
                deadline: job.absolute_deadline().as_secs(),
                prio,
                skip: false,
            });
        }
    }

    /// Ranks the queue for a probe at `gamma` and returns whether any
    /// record moved. The first ranking of a recompute does a full sort;
    /// later probes repair the previous order with one insertion pass,
    /// `O(n + inversions)`.
    // hcperf-lint: hot-path-root
    fn rank(&mut self, gamma: f64, full: bool) -> bool {
        for r in &mut self.recs {
            // The low half of the key is the job id.
            r.key = packed_key(gamma * r.p + r.laxity, r.key as u64);
        }
        let moved = if full {
            self.recs.sort_unstable_by_key(|r| r.key);
            true
        } else {
            // Insertion pass: each record moves ahead of the run of records
            // directly before it that it now outranks.
            let mut moved = false;
            for last in 1..self.recs.len() {
                let mut j = last;
                while j > 0 {
                    let Some([prev, cur]) = self.recs.get_mut(j - 1..=j) else {
                        break;
                    };
                    if cur.key >= prev.key {
                        break;
                    }
                    std::mem::swap(prev, cur);
                    moved = true;
                    j -= 1;
                }
            }
            moved
        };
        if moved {
            self.held = None;
        }
        moved
    }

    /// The Eq. 11 feasibility walk over the current ranking: every
    /// non-skipped job must be able to start early enough.
    // hcperf-lint: hot-path-root
    fn feasible(&self, h: Horizon) -> bool {
        let mut higher_work = 0.0;
        for r in &self.recs {
            if !r.skip && h.finish(higher_work, r.exec) > r.deadline {
                return false;
            }
            higher_work += r.exec;
        }
        true
    }

    /// The Eq. 11 verdict of the current ranking: the held one if the
    /// ranking is unchanged since its walk (counted in `reused`), else a
    /// fresh walk.
    fn verdict(&mut self, h: Horizon, counters: &mut GammaCounters) -> bool {
        if let Some(held) = self.held {
            counters.reused += 1;
            return held;
        }
        let verdict = self.feasible(h);
        self.held = Some(verdict);
        verdict
    }

    /// One exact probe at `gamma`: a ranking plus its Eq. 11 verdict.
    fn probe(&mut self, gamma: f64, h: Horizon, counters: &mut GammaCounters) -> bool {
        counters.probes += 1;
        self.rank(gamma, false);
        self.verdict(h, counters)
    }

    /// Marks jobs that miss their deadline even under the current (γ = 0)
    /// ranking — no γ can save them, so relaxed mode drops them from the
    /// constraint set.
    fn mark_doomed(&mut self, h: Horizon) {
        let mut higher_work = 0.0;
        for r in &mut self.recs {
            r.skip = r.skip || h.finish_doomed(higher_work, r.exec) > r.deadline;
            higher_work += r.exec;
        }
        self.held = None;
    }

    /// Regroups the ranking by static priority, keeping the order within
    /// each priority, before the first probe high in the γ range. There
    /// `γ·p_i` outweighs most laxity gaps, so the grouped γ = 0 order is
    /// close to the ranking and the probe's insertion pass has little left
    /// to move; that pass still decides the order. A stable counting pass,
    /// `O(n + span)`, allocation-free once warm; a priority span of `n` or
    /// more leaves the ranking as it is.
    fn seed(&mut self) {
        let GammaScratch {
            recs,
            held,
            buckets,
            spare,
            ..
        } = self;
        let (lo, hi) = recs.iter().fold((u32::MAX, 0), |(lo, hi), r| {
            (lo.min(r.prio), hi.max(r.prio))
        });
        let span = hi.saturating_sub(lo) as usize;
        if span >= recs.len() || recs.is_sorted_by_key(|r| r.prio) {
            return;
        }
        buckets.clear();
        buckets.resize(span + 1, 0);
        for r in recs.iter() {
            if let Some(count) = buckets.get_mut((r.prio - lo) as usize) {
                *count += 1;
            }
        }
        let mut start = 0;
        for b in buckets.iter_mut() {
            let count = *b;
            *b = start;
            start += count;
        }
        spare.clear();
        spare.extend_from_slice(recs);
        for r in spare.iter() {
            let Some(next) = buckets.get_mut((r.prio - lo) as usize) else {
                continue;
            };
            if let Some(slot) = recs.get_mut(*next) {
                *slot = *r;
            }
            *next += 1;
        }
        *held = None;
    }

    /// `1024·ε·Σ(|ceiling·p_i| + |d_i|)`: at a γ in `(0, ceiling]` that
    /// lies more than this from the float crossing of two jobs of distinct
    /// priority, the float keys rank the pair by which side of the
    /// crossing γ lies (see [`bound`](Self::bound)).
    fn narrow(&self, ceiling: f64) -> f64 {
        let scale: f64 = self
            .recs
            .iter()
            .map(|r| (ceiling * r.p).abs() + r.laxity.abs())
            .sum();
        NARROW_ULPS * f64::EPSILON * scale
    }

    /// The margin by which a constraint must be violated for the
    /// certificate to count it: 1 ns plus `4(n+3)²·ε·(|now| + |base| +
    /// Σ|c_i|)`, which bounds the rounding of a prefix sum summed in
    /// another order (see [`bound`](Self::bound)).
    fn band(&self, h: Horizon) -> f64 {
        let exec: f64 = self.recs.iter().map(|r| r.exec.abs()).sum();
        h.band(self.recs.len(), exec)
    }

    /// The infeasibility certificate of the current ranking, a failed
    /// probe's: a bound `X` such that the reference's Eq. 11 walk fails at
    /// every γ > 0 in `(X, upper]`, or `+∞` when none is proved. `upper`
    /// is the top of the γ range still open, at most the ceiling
    /// `narrow` was computed for: the ceiling itself, or the upper end of
    /// the sweep interval just probed. The lower it is, the more jobs
    /// count and the lower the bound. `O(n log n)`.
    ///
    /// The certificate job `j` is the lowest-ranked job the probe finds
    /// violated. A job `i` is counted ahead of `j` only where the float
    /// ranking puts it there at every γ in `(X, upper]`:
    ///
    /// * `p_i < p_j`: `i` passes `j` as γ rises through their crossing
    ///   `γ*` (the value [`crossings`](Self::crossings) computes), so it is
    ///   counted once `X ≥ γ* + narrow`;
    /// * `p_i > p_j`: `i` is ahead below `γ*`, counted when `γ* > upper +
    ///   narrow`;
    /// * `p_i = p_j`: the keys differ by the laxity gap at every γ, so `i`
    ///   is counted when its laxity is lower by more than `narrow`, or the
    ///   laxities are equal (then the keys are too) and its id is lower.
    ///
    /// Taking the crossings of the first case in ascending order, `X` is
    /// the first at which the counted work exceeds `(deadline + band −
    /// now − base − c_j)·n_p` — Eq. 11 with the band added, solved for the
    /// work ranked ahead of `j` — with `narrow` added. Soundness, for
    /// γ > 0 in `(X, upper]`:
    ///
    /// * For every counted `i`, such a γ lies more than `narrow` from the
    ///   float crossing of `i` and `j`, on the side where `i` is ahead; or
    ///   `i` has equal priority and a laxity gap over `narrow` (or exactly
    ///   tied keys and a lower id). Priorities are integers, so distinct
    ///   ones differ by at least 1, and the exact key gap of the pair then
    ///   exceeds the rounding of the float keys and of `γ*` by orders of
    ///   magnitude: the float ranking puts `i` ahead of `j`. That compares the two
    ///   keys only, so no other pair needs to be untied; a near-tie
    ///   elsewhere leaves at most a job uncounted.
    /// * So `j`'s prefix work in the reference ranking is at least the
    ///   exact sum of the counted `c_i`. The float sums and the limit
    ///   differ from exact values by the rounding of at most `n + 3`
    ///   additions each, which `band` bounds together with the rounding
    ///   of the reference's own comparison, so the reference's walk
    ///   misses `j`'s deadline. (A deadline far from those terms cannot
    ///   break this: far above, the limit is never passed; far below,
    ///   both walks see the miss.)
    fn bound(&mut self, upper: f64, narrow: f64, band: f64, h: Horizon) -> f64 {
        let mut higher_work = 0.0;
        let mut cert = None;
        for r in &self.recs {
            if !r.skip && h.finish(higher_work, r.exec) > r.deadline {
                cert = Some(*r);
            }
            higher_work += r.exec;
        }
        let Some(j) = cert else {
            return f64::INFINITY;
        };
        // `finish(W, c) > deadline + band`, solved for W.
        let limit = (j.deadline + band - h.now - h.base - j.exec) * h.n_p;
        let mut work = 0.0;
        self.gains.clear();
        for r in &self.recs {
            let crossing = (j.laxity - r.laxity) / (r.p - j.p);
            if r.p < j.p {
                self.gains.push((crossing, r.exec));
            } else if r.p > j.p {
                if crossing > upper + narrow {
                    work += r.exec;
                }
            } else if r.laxity < j.laxity - narrow
                || (r.laxity == j.laxity && (r.key as u64) < (j.key as u64))
            {
                work += r.exec;
            }
        }
        self.gains.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut last = f64::NEG_INFINITY;
        for &(crossing, c) in &self.gains {
            if work > limit {
                break;
            }
            work += c;
            last = crossing;
        }
        if work > limit {
            last + narrow
        } else {
            f64::INFINITY
        }
    }

    /// Fills `points`, unsorted, with the crossover points `γ* = (d_b −
    /// d_a)/(p_a − p_b)` in `(0, ceiling)`.
    fn crossings(&mut self, ceiling: f64) {
        let GammaScratch { recs, points, .. } = self;
        // Branch-free pair walk: every pair is written to the next free
        // slot, and the slot is kept only if the crossing lies in range.
        // Equal priorities divide by zero and fail that test: they never
        // cross. (`b − a` is exactly `−(a − b)`, so the crossing does not
        // depend on which job comes first.)
        points.clear();
        points.resize(recs.len() * recs.len().saturating_sub(1) / 2, 0.0);
        let mut kept = 0;
        for (k, a) in recs.iter().enumerate() {
            for b in recs.iter().skip(k + 1) {
                let crossing = (b.laxity - a.laxity) / (a.p - b.p);
                if let Some(slot) = points.get_mut(kept) {
                    *slot = crossing;
                }
                kept += usize::from((crossing > 0.0) & (crossing < ceiling));
            }
        }
        points.truncate(kept);
    }

    /// The critical-point sweep. Expects the γ = 0 ranking and the
    /// constraint set in place; returns the supremum of the feasible set.
    ///
    /// The crossings split `[0, ceiling]` into intervals, walked from the
    /// top; each is decided at its midpoint, like [`reference::gamma_max`]
    /// does, and the first feasible one's upper end is the supremum. The
    /// top interval is probed before anything is sorted: its lower end is
    /// just the largest crossing, and when it is feasible the search ends
    /// there.
    ///
    /// After a failed probe of `(lower, upper]`, the certificate
    /// [`bound`](Self::bound)`(upper)` gives an `X` such that the
    /// reference fails at every γ in `(X, upper]`. Every interval from
    /// `lower` down to the smallest crossing above `X` has both ends above
    /// `X`, so its midpoint lies in `(X, upper]` and it is skipped; the
    /// walk jumps to the interval just below that crossing (just below
    /// `lower` if none lies between). If that interval's midpoint lies
    /// above `X` too, it is skipped as well, and the one below it, whose
    /// midpoint lies under `X`, is probed. The first jump, from the
    /// top interval, drops the crossings above it unsorted; the rest are
    /// sorted and deduplicated, as the reference sorts its own, and each
    /// later jump is a binary search. Every step moves the walk down at
    /// least one interval, so it ends within one step per interval.
    fn sweep(&mut self, ceiling: f64, h: Horizon, counters: &mut GammaCounters) -> f64 {
        self.crossings(ceiling);
        counters.crossings += self.points.len() as u64;
        let top = self.points.iter().fold(0.0, |m: f64, &g| m.max(g));
        self.seed();
        if self.probe(0.5 * (top + ceiling), h, counters) {
            return ceiling;
        }
        if self.points.is_empty() {
            return 0.0;
        }
        let narrow = self.narrow(ceiling);
        let band = self.band(h);
        let mut bound = self.bound(ceiling, narrow, band, h);
        // The least crossing above the bound (`top` if none), and the
        // crossings below it kept in place, both without a branch per
        // crossing: over ~100 crossings a taken-or-not branch mispredicts
        // often.
        let mut upper = top;
        for &g in &self.points {
            upper = upper.min(if g > bound { g } else { f64::INFINITY });
        }
        // The top interval was probed; those between it and `upper` are
        // certified.
        let generated = self.points.len();
        let mut kept = 0;
        for k in 0..generated {
            let Some(&g) = self.points.get(k) else {
                break;
            };
            if let Some(slot) = self.points.get_mut(kept) {
                *slot = g;
            }
            kept += usize::from(g < upper);
        }
        self.points.truncate(kept);
        counters.skipped += (generated - kept - 1) as u64;
        // Every crossing is positive and finite, so its bits order like
        // its value.
        self.points
            .sort_unstable_by_key(|&g| std::cmp::Reverse(g.to_bits()));
        self.points.dedup();
        // `upper` tops the interval to decide; `points[k]` is its lower end
        // (0 past the last crossing). A midpoint above the last bound is
        // certified too.
        let mut k = 0;
        for _ in 0..=self.points.len() {
            let lower = self.points.get(k).copied().unwrap_or(0.0);
            let mid = 0.5 * (lower + upper);
            if mid > bound {
                counters.skipped += 1;
            } else if self.probe(mid, h, counters) {
                return upper;
            } else {
                bound = self.bound(upper, narrow, band, h);
            }
            if k == self.points.len() {
                break;
            }
            let next = self.points.partition_point(|&g| g > bound).max(k + 1);
            let Some(&below) = self.points.get(next - 1) else {
                break;
            };
            counters.skipped += (next - k - 1) as u64;
            upper = below;
            k = next;
        }
        0.0
    }
}

impl DynamicPriorityScheduler {
    /// Creates a scheduler with `γ = 0` (deadline-driven) until the first
    /// coordinator update.
    #[must_use]
    pub fn new(config: DpsConfig) -> Self {
        DynamicPriorityScheduler {
            config,
            nominal_u: 0.0,
            gamma: 0.0,
            gamma_max: 0.0,
            last_compute: None,
            dirty: true,
            scratch: GammaScratch::default(),
            counters: GammaCounters::default(),
        }
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> DpsConfig {
        self.config
    }

    /// Sets the nominal priority-adjustment parameter `u(t)` from the
    /// Performance Directed Controller; γ is re-derived at the next
    /// dispatch point.
    pub fn set_nominal_u(&mut self, u: f64) {
        self.nominal_u = u;
        self.dirty = true;
    }

    /// The current actual priority-adjustment coefficient γ.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The most recently derived `γ_max` bound.
    #[must_use]
    pub fn gamma_max(&self) -> f64 {
        self.gamma_max
    }

    /// The current nominal parameter `u`.
    #[must_use]
    pub fn nominal_u(&self) -> f64 {
        self.nominal_u
    }

    /// Work counts of every γ search this scheduler has run.
    #[must_use]
    pub fn search_counters(&self) -> GammaCounters {
        self.counters
    }

    /// Derives `γ_max` for the current queue (Eq. 11) and clamps the
    /// nominal `u` into `[0, γ_max]` (Eq. 12). Exposed for benchmarks and
    /// diagnostics; [`select`](Scheduler::select) calls it automatically.
    pub fn recompute_gamma(&mut self, ctx: &SchedContext<'_>) {
        self.gamma_max = match self.gamma_max_cached(ctx) {
            Some(g) => g,
            None => {
                // Overloaded: no γ guarantees all deadlines (paper outcome 1).
                self.gamma = 0.0;
                self.gamma_max = 0.0;
                self.last_compute = Some(ctx.now);
                self.dirty = false;
                return;
            }
        };
        // Eq. 12: clamp u into [0, γ_max].
        self.gamma = self.nominal_u.clamp(0.0, self.gamma_max);
        self.last_compute = Some(ctx.now);
        self.dirty = false;
    }

    fn maybe_recompute(&mut self, ctx: &SchedContext<'_>) {
        let stale = match self.last_compute {
            None => true,
            Some(t) => ctx.now - t >= RECOMPUTE_INTERVAL,
        };
        if self.dirty || stale {
            self.recompute_gamma(ctx);
        }
    }

    /// `γ_max` search against a cached snapshot of the queue (see the
    /// module docs). Returns `None` when even `γ = 0` is infeasible.
    // hcperf-lint: hot-path-root
    fn gamma_max_cached(&mut self, ctx: &SchedContext<'_>) -> Option<f64> {
        let config = self.config;
        let counters = &mut self.counters;
        counters.recomputes += 1;
        if ctx.queue.is_empty() {
            return Some(config.gamma_ceiling);
        }
        let h = Horizon::of(ctx);
        if h.certifies(ctx) {
            counters.certified += 1;
            return Some(config.gamma_ceiling);
        }
        let s = &mut self.scratch;
        s.load(ctx);
        s.rank(0.0, true);
        if !config.strict_eq11 {
            s.mark_doomed(h);
        }
        counters.probes += 1;
        if !s.verdict(h, counters) {
            return None;
        }
        match config.search {
            GammaSearch::Bisection => {
                s.seed();
                if s.probe(config.gamma_ceiling, h, counters) {
                    return Some(config.gamma_ceiling);
                }
                let narrow = s.narrow(config.gamma_ceiling);
                let bound = s.bound(config.gamma_ceiling, narrow, s.band(h), h);
                let mut lo = 0.0;
                let mut hi = config.gamma_ceiling;
                for _ in 0..BISECTION_STEPS {
                    let mid = 0.5 * (lo + hi);
                    if mid > bound {
                        // Certified infeasible: the reference's probe fails.
                        counters.skipped += 1;
                        hi = mid;
                        continue;
                    }
                    if s.probe(mid, h, counters) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Some(lo)
            }
            GammaSearch::CriticalPoints => Some(s.sweep(config.gamma_ceiling, h, counters)),
        }
    }
}

impl Scheduler for DynamicPriorityScheduler {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        self.maybe_recompute(ctx);
        let gamma = self.gamma;
        // One integer per candidate, the γ search's ranking key: P_i in
        // `total_cmp` order, ties to the lower job id. `Sim` issues ids in
        // release order (each stamped with the non-decreasing `now`, and
        // a requeued job keeps its id and release), so this is also the
        // (P_i, release, id) order.
        let mut best: Option<(u128, usize)> = None;
        for &i in ctx.candidates {
            let Some(job) = ctx.queue.get(i) else {
                continue;
            };
            let p = f64::from(ctx.graph.spec(job.task()).priority().value());
            let laxity = job.laxity(ctx.now, ctx.exec_of(job)).as_secs();
            let key = packed_key(gamma * p + laxity, job.id().raw());
            if best.is_none_or(|(least, _)| key < least) {
                best = Some((key, i));
            }
        }
        best.map(|(_, i)| i)
    }

    fn name(&self) -> &str {
        "HCPerf"
    }
}

/// `P_i = γ·p_i + d_i` for queue entry `index` (Eq. 10); `d_i` is the
/// absolute laxity in seconds. An out-of-range index (never produced by
/// the schedulers) compares worst rather than panicking.
fn priority_key(ctx: &SchedContext<'_>, index: usize, gamma: f64) -> f64 {
    ctx.queue.get(index).map_or(f64::INFINITY, |job| {
        let p = ctx.graph.spec(job.task()).priority().value() as f64;
        let laxity = job.laxity(ctx.now, ctx.exec_of(job)).as_secs();
        gamma * p + laxity
    })
}

/// The pre-optimization `γ_max` search, retained as the baseline.
///
/// Every feasibility probe rebuilds and re-sorts the whole ranking —
/// `O(n log n)` per probe, with fresh allocations. It exists for two
/// reasons: the `gamma_search/*_sort_per_probe` benchmarks measure it as
/// the *before* configuration, and the unit tests use it as an independent
/// oracle for the incremental implementation (both must return bit-equal
/// results, since they evaluate the same comparisons at the same probes).
/// Panic-surface cleanups (iterator walks instead of indexing) are the
/// only edits since; `incremental_search_matches_sort_per_probe_reference`
/// pins the bit-equality they must preserve.
pub mod reference {
    use super::{priority_key, DpsConfig, GammaSearch, BISECTION_STEPS};
    use hcperf_rtsim::SchedContext;

    /// Checks the Eq. 11 constraint system at a fixed γ.
    ///
    /// Orders the whole ready queue by `P_i(γ)` and verifies each job can
    /// start early enough: `now + ΣT_p/n_p + Σ_{higher priority} c_i/n_p +
    /// c_j ≤ absolute deadline`. `skip` marks jobs excluded from the
    /// constraints.
    pub(crate) fn feasible(ctx: &SchedContext<'_>, gamma: f64, skip: &[bool]) -> bool {
        let n_p = ctx.processor_count() as f64;
        let base = ctx.total_remaining().as_secs() / n_p;
        let mut order: Vec<(usize, _)> = ctx.queue.iter().enumerate().collect();
        order.sort_by(|&(a, ja), &(b, jb)| {
            priority_key(ctx, a, gamma)
                .total_cmp(&priority_key(ctx, b, gamma))
                .then_with(|| ja.id().cmp(&jb.id()))
        });
        let mut higher_work = 0.0;
        for &(i, job) in &order {
            let c = ctx.exec_of(job).as_secs();
            if !skip.get(i).copied().unwrap_or(true) {
                let start_delay = base + higher_work / n_p;
                let finish = ctx.now.as_secs() + start_delay + c;
                if finish > job.absolute_deadline().as_secs() {
                    return false;
                }
            }
            higher_work += c;
        }
        true
    }

    /// Finds `γ_max` per the configured strategy, re-sorting on every
    /// probe. Returns `None` when even `γ = 0` is infeasible (overload).
    // hcperf-lint: hot-path-root
    #[must_use]
    pub fn gamma_max(ctx: &SchedContext<'_>, config: &DpsConfig) -> Option<f64> {
        if ctx.queue.is_empty() {
            return Some(config.gamma_ceiling);
        }
        // Constraint set: under strict Eq. 11 every job constrains;
        // otherwise drop jobs that are doomed even under the
        // deadline-optimal γ = 0 order.
        let no_skip = vec![false; ctx.queue.len()];
        let skip = if config.strict_eq11 {
            no_skip.clone()
        } else {
            doomed_at_zero(ctx)
        };
        if !feasible(ctx, 0.0, &skip) {
            return None;
        }
        match config.search {
            GammaSearch::Bisection => {
                if feasible(ctx, config.gamma_ceiling, &skip) {
                    return Some(config.gamma_ceiling);
                }
                let mut lo = 0.0;
                let mut hi = config.gamma_ceiling;
                for _ in 0..BISECTION_STEPS {
                    let mid = 0.5 * (lo + hi);
                    if feasible(ctx, mid, &skip) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Some(lo)
            }
            GammaSearch::CriticalPoints => {
                // γ values where two jobs swap order:
                // γ* = (d_b − d_a)/(p_a − p_b).
                let mut points: Vec<f64> = Vec::new();
                for (a, ja) in ctx.queue.iter().enumerate() {
                    let pa = ctx.graph.spec(ja.task()).priority().value() as f64;
                    let da = ja.laxity(ctx.now, ctx.exec_of(ja)).as_secs();
                    for jb in ctx.queue.iter().skip(a + 1) {
                        let pb = ctx.graph.spec(jb.task()).priority().value() as f64;
                        if pa == pb {
                            continue;
                        }
                        let db = jb.laxity(ctx.now, ctx.exec_of(jb)).as_secs();
                        let crossing = (db - da) / (pa - pb);
                        if crossing > 0.0 && crossing < config.gamma_ceiling {
                            points.push(crossing);
                        }
                    }
                }
                points.push(config.gamma_ceiling);
                points.sort_by(f64::total_cmp);
                points.dedup();
                // The order of the queue is constant between consecutive
                // crossover points, so feasibility is constant on each
                // interval. Walk intervals from the top; the first feasible
                // interval's upper bound is the supremum of the feasible
                // set.
                let uppers = points.iter().copied().rev();
                let lowers = points
                    .iter()
                    .copied()
                    .rev()
                    .skip(1)
                    .chain(std::iter::once(0.0));
                for (upper, lower) in uppers.zip(lowers) {
                    let probe = 0.5 * (lower + upper);
                    if feasible(ctx, probe, &skip) {
                        return Some(upper);
                    }
                }
                Some(0.0)
            }
        }
    }

    /// Marks jobs that cannot meet their deadline even under the γ = 0
    /// order.
    pub(crate) fn doomed_at_zero(ctx: &SchedContext<'_>) -> Vec<bool> {
        let n_p = ctx.processor_count() as f64;
        let base = ctx.total_remaining().as_secs() / n_p;
        let mut order: Vec<(usize, _)> = ctx.queue.iter().enumerate().collect();
        order.sort_by(|&(a, ja), &(b, jb)| {
            priority_key(ctx, a, 0.0)
                .total_cmp(&priority_key(ctx, b, 0.0))
                .then_with(|| ja.id().cmp(&jb.id()))
        });
        let mut doomed = vec![false; ctx.queue.len()];
        let mut higher_work = 0.0;
        for &(i, job) in &order {
            let c = ctx.exec_of(job).as_secs();
            let finish = ctx.now.as_secs() + base + higher_work / n_p + c;
            if let Some(slot) = doomed.get_mut(i) {
                *slot = finish > job.absolute_deadline().as_secs();
            }
            higher_work += c;
        }
        doomed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcperf_rtsim::{Job, JobId};
    use hcperf_taskgraph::{Priority, SimSpan, SimTime, TaskGraph, TaskId, TaskSpec};

    /// Graph with one independent task per entry of `priorities`.
    fn graph_with(priorities: &[u32]) -> TaskGraph {
        let mut b = TaskGraph::builder();
        for (i, &p) in priorities.iter().enumerate() {
            b.add_task(
                TaskSpec::builder(format!("t{i}"))
                    .priority(Priority::new(p))
                    .relative_deadline(SimSpan::from_millis(100.0))
                    .build()
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    /// Graph with 4 independent tasks of priorities 0..=3.
    fn graph() -> TaskGraph {
        graph_with(&[0, 1, 2, 3])
    }

    fn job(id: u64, task: usize, release: f64, deadline_ms: f64) -> Job {
        Job::new(
            JobId::new(id),
            TaskId::new(task),
            0,
            SimTime::from_secs(release),
            SimSpan::from_millis(deadline_ms),
            SimTime::from_secs(release),
        )
    }

    struct Fixture {
        graph: TaskGraph,
        queue: Vec<Job>,
        observed: Vec<SimSpan>,
        remaining: Vec<SimSpan>,
        candidates: Vec<usize>,
        now: SimTime,
    }

    impl Fixture {
        fn new(queue: Vec<Job>, exec_ms: f64, processors: usize) -> Self {
            let n = queue.len();
            Fixture {
                graph: graph(),
                observed: vec![SimSpan::from_millis(exec_ms); 4],
                remaining: vec![SimSpan::ZERO; processors],
                candidates: (0..n).collect(),
                queue,
                now: SimTime::ZERO,
            }
        }

        /// Jobs `(task, release s, relative deadline s)` over tasks with
        /// the given priorities and execution times (s), every processor
        /// busy for `busy` more seconds.
        fn custom(
            priorities: &[u32],
            exec: &[f64],
            jobs: &[(usize, f64, f64)],
            processors: usize,
            busy: f64,
            now: f64,
        ) -> Self {
            let queue: Vec<Job> = jobs
                .iter()
                .enumerate()
                .map(|(k, &(task, release, deadline))| {
                    Job::new(
                        JobId::new(k as u64),
                        TaskId::new(task),
                        0,
                        SimTime::from_secs(release),
                        SimSpan::from_secs(deadline),
                        SimTime::from_secs(release),
                    )
                })
                .collect();
            Fixture {
                graph: graph_with(priorities),
                observed: exec.iter().map(|&c| SimSpan::from_secs(c)).collect(),
                remaining: vec![SimSpan::from_secs(busy); processors],
                candidates: (0..queue.len()).collect(),
                queue,
                now: SimTime::from_secs(now),
            }
        }

        fn ctx(&self) -> SchedContext<'_> {
            SchedContext {
                now: self.now,
                graph: &self.graph,
                queue: &self.queue,
                candidates: &self.candidates,
                processor: 0,
                observed_exec: &self.observed,
                processor_remaining: &self.remaining,
            }
        }
    }

    /// Asserts that the cached search returns bit for bit what the
    /// sort-per-probe reference returns, strict and relaxed, under both
    /// strategies. Returns the critical-point sweep's counters for the
    /// relaxed and the strict run.
    fn check_against_reference(fx: &Fixture, gamma_ceiling: f64) -> [GammaCounters; 2] {
        let mut sweeps = [GammaCounters::default(); 2];
        for (strict_eq11, sweep) in [false, true].into_iter().zip(&mut sweeps) {
            for search in [GammaSearch::Bisection, GammaSearch::CriticalPoints] {
                let config = DpsConfig {
                    gamma_ceiling,
                    search,
                    strict_eq11,
                };
                let mut dps = DynamicPriorityScheduler::new(config);
                let expected = reference::gamma_max(&fx.ctx(), &config);
                let got = dps.gamma_max_cached(&fx.ctx());
                assert_eq!(
                    got.map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "{config:?} on {} processors: cached {got:?}, reference {expected:?}, queue {:?}",
                    fx.remaining.len(),
                    fx.queue,
                );
                // A certified recompute claims the reference's answer is
                // the ceiling, whatever the search and mode.
                if dps.search_counters().certified > 0 {
                    assert_eq!(
                        expected.map(f64::to_bits),
                        Some(gamma_ceiling.to_bits()),
                        "{config:?}: certified, but the reference returns {expected:?}; queue {:?}",
                        fx.queue,
                    );
                }
                if search == GammaSearch::CriticalPoints {
                    *sweep = dps.search_counters();
                }
            }
        }
        sweeps
    }

    #[test]
    fn gamma_zero_orders_by_laxity() {
        // Eq. 9 / Eq. 10: at γ = 0 the dynamic priority P_i = γ·p_i + d_i
        // reduces to the scheduling laxity d_i = D_i − c_i, so task 3
        // (lowest static priority) wins on its tightest deadline.
        let queue = vec![job(0, 0, 0.0, 100.0), job(1, 3, 0.0, 20.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(0.0);
        assert_eq!(dps.select(&fx.ctx()), Some(1));
        assert_eq!(dps.gamma(), 0.0);
    }

    #[test]
    fn large_u_orders_by_static_priority_when_feasible() {
        // Loose deadlines: γ can grow to the ceiling, and the γ·p_i term
        // (up to 0.2 s/level × 3 levels) outweighs the 0.2 s laxity gap, so
        // static priority wins.
        let queue = vec![job(0, 3, 0.0, 5000.0), job(1, 0, 0.0, 5200.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(10.0); // clamped to γ_max = ceiling
        let pick = dps.select(&fx.ctx());
        assert_eq!(pick, Some(1), "task with priority 0 should win");
        assert!((dps.gamma() - dps.config().gamma_ceiling).abs() < 1e-9);
    }

    #[test]
    fn gamma_is_clamped_into_feasible_range() {
        // Tight deadlines: γ_max < requested u; γ lands on γ_max.
        let queue = vec![
            job(0, 0, 0.0, 25.0),
            job(1, 1, 0.0, 25.0),
            job(2, 2, 0.0, 30.0),
            job(3, 3, 0.0, 22.0),
        ];
        let fx = Fixture::new(queue, 10.0, 1);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(0.5);
        dps.recompute_gamma(&fx.ctx());
        assert!(dps.gamma() <= dps.gamma_max() + 1e-12);
        assert!(dps.gamma_max() < 0.5, "γ_max {}", dps.gamma_max());
        assert!(dps.gamma() >= 0.0);
    }

    #[test]
    fn negative_u_clamps_to_zero() {
        let queue = vec![job(0, 0, 0.0, 100.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(-3.0);
        dps.recompute_gamma(&fx.ctx());
        assert_eq!(dps.gamma(), 0.0);
    }

    #[test]
    fn strict_overload_forces_gamma_zero() {
        // One job can never make it: 50 ms exec, 10 ms deadline.
        let queue = vec![job(0, 0, 0.0, 10.0), job(1, 1, 0.0, 500.0)];
        let mut fx = Fixture::new(queue, 50.0, 1);
        fx.observed = vec![SimSpan::from_millis(50.0); 4];
        let mut dps = DynamicPriorityScheduler::new(DpsConfig {
            strict_eq11: true,
            ..Default::default()
        });
        dps.set_nominal_u(1.0);
        dps.recompute_gamma(&fx.ctx());
        assert_eq!(dps.gamma(), 0.0);
        assert_eq!(dps.gamma_max(), 0.0);
    }

    #[test]
    fn relaxed_mode_ignores_doomed_jobs() {
        // Same overload, but the doomed job no longer pins γ at zero.
        let queue = vec![job(0, 0, 0.0, 10.0), job(1, 1, 0.0, 500.0)];
        let mut fx = Fixture::new(queue, 50.0, 1);
        fx.observed = vec![SimSpan::from_millis(50.0); 4];
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(1.0);
        dps.recompute_gamma(&fx.ctx());
        assert!(dps.gamma() > 0.0, "γ {} should be positive", dps.gamma());
    }

    #[test]
    fn bisection_and_critical_points_agree() {
        let queue = vec![
            job(0, 0, 0.0, 40.0),
            job(1, 1, 0.0, 35.0),
            job(2, 2, 0.0, 60.0),
            job(3, 3, 0.0, 30.0),
        ];
        let fx = Fixture::new(queue, 8.0, 2);
        let mut bis = DynamicPriorityScheduler::new(DpsConfig {
            search: GammaSearch::Bisection,
            ..Default::default()
        });
        let mut crit = DynamicPriorityScheduler::new(DpsConfig {
            search: GammaSearch::CriticalPoints,
            ..Default::default()
        });
        bis.set_nominal_u(10.0);
        crit.set_nominal_u(10.0);
        bis.recompute_gamma(&fx.ctx());
        crit.recompute_gamma(&fx.ctx());
        // The bisection converges to a point inside the top feasible
        // interval whose supremum the critical-point sweep reports.
        assert!(
            (bis.gamma_max() - crit.gamma_max()).abs() < 1e-3,
            "bisection {} vs critical {}",
            bis.gamma_max(),
            crit.gamma_max()
        );
    }

    #[test]
    fn empty_queue_gives_ceiling() {
        let fx = Fixture::new(vec![], 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(10.0);
        dps.recompute_gamma(&fx.ctx());
        assert_eq!(dps.gamma_max(), dps.config().gamma_ceiling);
    }

    #[test]
    fn recompute_respects_interval_and_dirty_flag() {
        let queue = vec![job(0, 0, 0.0, 100.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(0.05);
        let _ = dps.select(&fx.ctx());
        let g1 = dps.gamma();
        // Same time, not dirty: no recompute needed; gamma unchanged.
        let _ = dps.select(&fx.ctx());
        assert_eq!(dps.gamma(), g1);
        // New u marks dirty: recomputes immediately.
        dps.set_nominal_u(0.0);
        let _ = dps.select(&fx.ctx());
        assert_eq!(dps.gamma(), 0.0);
    }

    #[test]
    fn dynamic_priority_is_monotone_in_gamma_for_fixed_job() {
        let queue = vec![job(0, 2, 0.0, 100.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let ctx = fx.ctx();
        let p_low = priority_key(&ctx, 0, 0.0);
        let p_mid = priority_key(&ctx, 0, 0.05);
        let p_high = priority_key(&ctx, 0, 0.2);
        assert!(p_low < p_mid && p_mid < p_high);
    }

    /// The queue and γ ceiling of one draw of the grid generator (see the
    /// proptests that use it).
    fn grid_queue(
        priorities: &[u32],
        exec_ms: &[u32],
        jobs: &[(usize, u32, u32)],
        processors: usize,
        busy_ms: u32,
        origin: (usize, usize),
    ) -> (Fixture, f64) {
        let now = [0.5, 10.0, 1000.25][origin.0];
        let gamma_ceiling = [0.2, 0.05, 1.0][origin.1];
        let exec: Vec<f64> = (0..priorities.len())
            .map(|t| f64::from(exec_ms[t % exec_ms.len()]) * 1e-3)
            .collect();
        let jobs: Vec<(usize, f64, f64)> = jobs
            .iter()
            .map(|&(task, released, deadline)| {
                (
                    task % priorities.len(),
                    now - f64::from(released) * 2e-3,
                    f64::from(deadline) * 5e-3,
                )
            })
            .collect();
        let fx = Fixture::custom(
            priorities,
            &exec,
            &jobs,
            processors,
            f64::from(busy_ms) * 1e-3,
            now,
        );
        (fx, gamma_ceiling)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// Randomized queues: up to 64 jobs on 1–8 processors, few
        /// priority levels and coarse release/deadline grids (so
        /// duplicate priorities, equal deadlines, shared crossings and
        /// doomed jobs are common), three time origins and three γ
        /// ceilings.
        #[test]
        fn incremental_search_matches_sort_per_probe_reference(
            priorities in proptest::collection::vec(0u32..6, 1..10),
            exec_ms in proptest::collection::vec(1u32..16, 1..10),
            jobs in proptest::collection::vec((0usize..16, 0u32..6, 2u32..24), 0..65),
            processors in 1usize..9,
            busy_ms in 0u32..12,
            origin in (0usize..3, 0usize..3),
        ) {
            let (fx, gamma_ceiling) =
                grid_queue(&priorities, &exec_ms, &jobs, processors, busy_ms, origin);
            check_against_reference(&fx, gamma_ceiling);
        }

        /// The certificate on the grid queues, where about a quarter of
        /// the draws fail at the ceiling and certify a bound (the flat
        /// kernel's queues rarely do), at the ceiling and below it.
        #[test]
        fn certificate_bound_is_infeasible_in_the_reference_on_grid_queues(
            priorities in proptest::collection::vec(0u32..6, 1..10),
            exec_ms in proptest::collection::vec(1u32..16, 1..10),
            jobs in proptest::collection::vec((0usize..16, 0u32..6, 2u32..24), 0..65),
            processors in 1usize..9,
            busy_ms in 0u32..12,
            origin in (0usize..3, 0usize..3),
            fractions in proptest::collection::vec(0u32..1 << 20, 4..5),
        ) {
            let (fx, gamma_ceiling) =
                grid_queue(&priorities, &exec_ms, &jobs, processors, busy_ms, origin);
            let fractions: Vec<f64> =
                fractions.iter().map(|&f| f64::from(f) / f64::from(1u32 << 20)).collect();
            assert_certificates_sound(&fx, gamma_ceiling, &fractions);
        }
    }

    /// The search counters of one recompute under each strategy, relaxed
    /// and strict.
    fn counters_of(fx: &Fixture, gamma_ceiling: f64) -> Vec<GammaCounters> {
        let mut all = Vec::new();
        for strict_eq11 in [false, true] {
            for search in [GammaSearch::Bisection, GammaSearch::CriticalPoints] {
                let mut dps = DynamicPriorityScheduler::new(DpsConfig {
                    gamma_ceiling,
                    search,
                    strict_eq11,
                });
                dps.recompute_gamma(&fx.ctx());
                all.push(dps.search_counters());
            }
        }
        all
    }

    /// The queue and γ ceiling of one draw of the flat-kernel generator
    /// (see the proptests that use it).
    fn flat_kernel_queue(
        priorities: &[u32],
        jobs: &[(usize, usize, u32, usize)],
        processors: usize,
        shape: (usize, usize, bool, bool),
    ) -> (Fixture, f64) {
        let (band, ceiling, zero_origin, idle) = shape;
        // 0: the raw draw; 1: priorities 0..4; 2: 0 or u32::MAX.
        let priorities: Vec<u32> = priorities
            .iter()
            .map(|&p| match band {
                0 => p,
                1 => p % 4,
                _ => {
                    if p % 2 == 0 {
                        0
                    } else {
                        u32::MAX
                    }
                }
            })
            .collect();
        let gamma_ceiling = [0.2, 0.05, 1.0][ceiling];
        let now = if zero_origin { 0.0 } else { 10.0 };
        // Task 0 takes no time, so its jobs' laxity is exactly the
        // time to their deadline.
        let exec: Vec<f64> = (0..priorities.len())
            .map(|t| {
                if t == 0 {
                    0.0
                } else {
                    (1 + t % 3) as f64 * 4e-3
                }
            })
            .collect();
        let late = [0.0, 2e-3, 4e-3, 0.5, 3.0, 40.0];
        let mut queue = Vec::new();
        for &(task, released, deadline, copies) in jobs {
            let task = task % priorities.len();
            let job = if zero_origin && deadline == 0 {
                // Released and due at −0.0: laxity −0.0 at now = 0.
                // (Task 1 released now and due 8 ms later has laxity
                // +0.0, so the two kinds tie at γ = 0.)
                (0, -0.0, -0.0)
            } else {
                (task, now - late[released], f64::from(deadline) * 8e-3)
            };
            // Identical copies tie on every key; only the id orders them.
            queue.extend(std::iter::repeat_n(job, copies));
        }
        let busy = if idle { 0.0 } else { 2e-3 };
        let fx = Fixture::custom(&priorities, &exec, &queue, processors, busy, now);
        (fx, gamma_ceiling)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// The edges of the flat kernel: static priorities over the whole
        /// `u32` range (too wide for the priority seed, and large enough
        /// that `γ·p_i` rounds laxity gaps away) or in a narrow band (the
        /// seed runs); duplicated jobs, whose keys tie exactly at every γ
        /// so only the job id orders them; `-0.0` laxities, which the
        /// γ = 0 key turns into `+0.0` (`0·p + (−0.0)`); and late jobs
        /// whose laxity lies far below `−ceiling`, as when queued jobs are
        /// not expired. Both strategies, strict and relaxed, must be
        /// bit-equal to the reference, and every counter must repeat.
        #[test]
        fn flat_kernel_matches_reference_on_ties_wide_priorities_and_late_jobs(
            priorities in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..8),
            jobs in proptest::collection::vec((0usize..8, 0usize..6, 0u32..12, 1usize..3), 0..48),
            processors in 1usize..5,
            shape in (
                0usize..3,
                0usize..3,
                proptest::arbitrary::any::<bool>(),
                proptest::arbitrary::any::<bool>(),
            ),
        ) {
            let (fx, gamma_ceiling) = flat_kernel_queue(&priorities, &jobs, processors, shape);
            check_against_reference(&fx, gamma_ceiling);
            proptest::prop_assert_eq!(counters_of(&fx, gamma_ceiling), counters_of(&fx, gamma_ceiling));
        }

        /// The certificate on the same queues: at every γ in `(X,
        /// upper]` the reference's Eq. 11 check must fail, strict and
        /// relaxed, for the certificates of both searches' first failing
        /// probes (`upper` the ceiling) and for the sweep's certificates
        /// of four random intervals below it (`upper` the interval's top).
        /// Each case checks `X`'s next float up, `upper` and four random
        /// points between.
        #[test]
        fn certificate_bound_is_infeasible_in_the_reference_above_it(
            priorities in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..8),
            jobs in proptest::collection::vec((0usize..8, 0usize..6, 0u32..12, 1usize..3), 0..48),
            processors in 1usize..5,
            shape in (
                0usize..3,
                0usize..3,
                proptest::arbitrary::any::<bool>(),
                proptest::arbitrary::any::<bool>(),
            ),
            fractions in proptest::collection::vec(0u32..1 << 20, 4..5),
        ) {
            let (fx, gamma_ceiling) = flat_kernel_queue(&priorities, &jobs, processors, shape);
            let fractions: Vec<f64> = fractions.iter().map(|&f| f64::from(f) / f64::from(1u32 << 20)).collect();
            assert_certificates_sound(&fx, gamma_ceiling, &fractions);
        }
    }

    /// Slacks of the binding job of a loose queue past its all-ahead
    /// finish time: a few ms either side, and around the feasibility
    /// certificate's band (1 ns plus rounding).
    const TIGHT_SLACK: [f64; 10] = [
        -1e-3, -2e-9, -5e-10, 0.0, 5e-10, 1.5e-9, 3e-9, 1e-6, 1e-3, 0.5,
    ];

    /// The queue and γ ceiling of one draw of the loose-deadline generator:
    /// each job is due at its all-ahead finish time `now + base + (W −
    /// c_j)/n_p + c_j`, with `W` the queue's total work, plus a slack: the
    /// drawn whole ms for most jobs, and a [`TIGHT_SLACK`] for the job
    /// `tight.0` picks. So about half the draws lie just inside the
    /// feasibility certificate's boundary and half just outside it.
    fn loose_queue(
        priorities: &[u32],
        exec_ms: &[u32],
        jobs: &[(usize, u32, u32)],
        tight: (usize, usize),
        processors: usize,
        busy_ms: u32,
        origin: (usize, usize),
    ) -> (Fixture, f64) {
        let now = [0.5, 10.0, 1000.25][origin.0];
        let gamma_ceiling = [0.2, 0.05, 1.0][origin.1];
        let busy = f64::from(busy_ms) * 1e-3;
        let exec: Vec<f64> = (0..priorities.len())
            .map(|t| f64::from(exec_ms[t % exec_ms.len()]) * 1e-3)
            .collect();
        let task = |t: usize| t % priorities.len();
        let work: f64 = jobs.iter().map(|&(t, _, _)| exec[task(t)]).sum();
        let n_p = processors as f64;
        let jobs: Vec<(usize, f64, f64)> = jobs
            .iter()
            .enumerate()
            .map(|(k, &(t, released, slack_ms))| {
                let c = exec[task(t)];
                let slack = if k == tight.0 % jobs.len() {
                    TIGHT_SLACK[tight.1]
                } else {
                    f64::from(slack_ms) * 1e-3
                };
                let release = now - f64::from(released) * 2e-3;
                let due = now + busy + (work - c) / n_p + c + slack;
                (task(t), release, due - release)
            })
            .collect();
        let fx = Fixture::custom(priorities, &exec, &jobs, processors, busy, now);
        (fx, gamma_ceiling)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// Queues at the feasibility certificate's boundary, with zero
        /// execution times among the draws: both strategies, strict and
        /// relaxed, must be bit-equal to the reference, and a certified
        /// recompute must be one the reference answers with the ceiling.
        #[test]
        fn feasibility_certificate_matches_reference_on_loose_queues(
            priorities in proptest::collection::vec(0u32..6, 1..10),
            exec_ms in proptest::collection::vec(0u32..16, 1..10),
            jobs in proptest::collection::vec((0usize..16, 0u32..6, 1u32..50), 1..33),
            tight in (0usize..32, 0usize..10),
            processors in 1usize..9,
            busy_ms in 0u32..12,
            origin in (0usize..3, 0usize..3),
        ) {
            let (fx, gamma_ceiling) =
                loose_queue(&priorities, &exec_ms, &jobs, tight, processors, busy_ms, origin);
            check_against_reference(&fx, gamma_ceiling);
        }
    }

    #[test]
    fn feasibility_certificate_needs_the_band_below_the_deadline() {
        // One processor, nothing running, c = 1/64. The binding job's
        // all-ahead finish time is 2c: behind the other job (task 1 of
        // `[c, c]`), or behind both others (task 2 of `[c, c, 0]`, which
        // takes no time). Due exactly then or 0.5 ns later, inside the
        // 1 ns band floor, the certificate declines and both searches
        // run; due the band plus 2 ns later, it settles the recompute.
        // The reference returns the ceiling in every case.
        let c = 1.0 / 64.0;
        for exec in [&[c, c][..], &[c, c, 0.0]] {
            let binding = exec.len() - 1;
            let jobs = |due: f64| {
                let mut jobs: Vec<_> = (0..binding).map(|t| (t, 0.0, 1.0)).collect();
                jobs.push((binding, 0.0, due));
                Fixture::custom(&[0, 1, 2][..exec.len()], exec, &jobs, 1, 0.0, 0.0)
            };
            let fx = jobs(1.0);
            let h = Horizon::of(&fx.ctx());
            let finish = h.finish(2.0 * c - exec[binding], exec[binding]);
            assert_eq!(finish, 2.0 * c);
            let band = h.band(exec.len(), 2.0 * c);
            for (slack, certified) in [(0.0, false), (5e-10, false), (band + 2e-9, true)] {
                let fx = jobs(finish + slack);
                check_against_reference(&fx, 0.2);
                for counters in counters_of(&fx, 0.2) {
                    assert_eq!(counters.recomputes, 1);
                    if certified {
                        let settled = GammaCounters {
                            recomputes: 1,
                            certified: 1,
                            ..Default::default()
                        };
                        assert_eq!(counters, settled, "slack {slack}");
                    } else {
                        assert_eq!(counters.certified, 0, "slack {slack}");
                        assert!(counters.probes >= 2, "{counters:?}");
                    }
                }
            }
        }
    }

    /// A scratch loaded with a fixture's queue, ranked at γ = 0 with its
    /// constraint set marked, as both searches start; `None` if γ = 0
    /// already fails.
    fn started(fx: &Fixture, strict: bool) -> Option<(GammaScratch, Horizon)> {
        let ctx = fx.ctx();
        let h = Horizon::of(&ctx);
        let mut s = GammaScratch::default();
        s.load(&ctx);
        s.rank(0.0, true);
        if !strict {
            s.mark_doomed(h);
        }
        s.feasible(h).then_some((s, h))
    }

    /// The certificate bounds of the first failing probe of each search,
    /// `[bisection, sweep]` (`None` where that probe is feasible or γ = 0
    /// already fails), computed as the searches compute them.
    fn certificates(fx: &Fixture, ceiling: f64, strict: bool) -> [Option<f64>; 2] {
        let Some((mut s, h)) = started(fx, strict) else {
            return [None, None];
        };
        let mut counters = GammaCounters::default();
        let narrow = s.narrow(ceiling);
        s.crossings(ceiling);
        let top = s.points.iter().fold(0.0, |m: f64, &g| m.max(g));
        let mut bound = |gamma: f64| {
            s.seed();
            (!s.probe(gamma, h, &mut counters)).then(|| s.bound(ceiling, narrow, s.band(h), h))
        };
        [bound(ceiling), bound(0.5 * (top + ceiling))]
    }

    /// The sweep's certificates below the ceiling, `(upper, X)`: for the
    /// interval `(lower, upper]` just below each crossing that a fraction
    /// picks from the sorted, deduplicated crossings, the bound
    /// `bound(upper)` gives where that interval's probe fails.
    fn interval_certificates(
        fx: &Fixture,
        ceiling: f64,
        strict: bool,
        fractions: &[f64],
    ) -> Vec<(f64, f64)> {
        let Some((mut s, h)) = started(fx, strict) else {
            return Vec::new();
        };
        let mut counters = GammaCounters::default();
        let (narrow, band) = (s.narrow(ceiling), s.band(h));
        s.crossings(ceiling);
        let mut points = s.points.clone();
        points.sort_by(|a, b| b.total_cmp(a));
        points.dedup();
        let mut bounds = Vec::new();
        for f in fractions {
            let k = (f * points.len() as f64) as usize;
            let Some(&upper) = points.get(k) else {
                continue;
            };
            let lower = points.get(k + 1).copied().unwrap_or(0.0);
            if !s.probe(0.5 * (lower + upper), h, &mut counters) {
                bounds.push((upper, s.bound(upper, narrow, band, h)));
            }
        }
        bounds
    }

    /// Asserts that the reference's Eq. 11 check fails at every γ in
    /// `(X, upper]` it is asked about, strict and relaxed, for each
    /// certificate bound `X` of [`certificates`] (`upper` the ceiling)
    /// and of [`interval_certificates`]: `X`'s next float up, `upper`,
    /// and `X + f·(upper − X)` for each fraction `f`. Returns the bounds
    /// of [`certificates`], relaxed then strict.
    fn assert_certificates_sound(
        fx: &Fixture,
        ceiling: f64,
        fractions: &[f64],
    ) -> [[Option<f64>; 2]; 2] {
        let ctx = fx.ctx();
        [false, true].map(|strict| {
            let skip = if strict {
                vec![false; ctx.queue.len()]
            } else {
                reference::doomed_at_zero(&ctx)
            };
            let bounds = certificates(fx, ceiling, strict);
            let at_ceiling = bounds.into_iter().flatten().map(|x| (ceiling, x));
            let below = interval_certificates(fx, ceiling, strict, fractions);
            for (upper, bound) in at_ceiling.chain(below).filter(|&(u, x)| x < u) {
                let from = bound.max(0.0);
                let inside = fractions.iter().map(|f| from + f * (upper - from));
                for gamma in [from.next_up(), upper].into_iter().chain(inside) {
                    if gamma > bound && gamma > 0.0 && gamma <= upper {
                        assert!(
                            !reference::feasible(&ctx, gamma, &skip),
                            "γ = {gamma} in ({bound}, {upper}] (strict {strict}) is feasible; queue {:?}",
                            ctx.queue,
                        );
                    }
                }
            }
            bounds
        })
    }

    #[test]
    fn negative_zero_laxity_ties_positive_zero_at_gamma_zero() {
        // Job 1 (task 0, no execution time) is released and due at −0.0,
        // so its laxity at now = 0 is −0.0; job 0 (task 1, c = 8 ms, due
        // 8 ms after release) has laxity +0.0. The γ = 0 key `0·p + l` is
        // +0.0 for both, so the id puts job 0 first and job 1 finishes
        // 8 ms late: strict Eq. 11 is infeasible. Keyed on `l` itself,
        // −0.0 would sort first and the queue would pass.
        let jobs = [(1, 0.0, 8e-3), (0, -0.0, -0.0)];
        let fx = Fixture::custom(&[1, 0], &[0.0, 8e-3], &jobs, 1, 0.0, 0.0);
        let ctx = fx.ctx();
        assert_eq!(priority_key(&ctx, 1, 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            ctx.queue[1]
                .laxity(ctx.now, ctx.exec_of(&ctx.queue[1]))
                .as_secs()
                .to_bits(),
            (-0.0f64).to_bits()
        );
        check_against_reference(&fx, 0.2);
        let mut strict = DynamicPriorityScheduler::new(DpsConfig {
            strict_eq11: true,
            ..Default::default()
        });
        assert_eq!(strict.gamma_max_cached(&ctx), None);
    }

    #[test]
    fn a_probe_that_moves_nothing_reuses_the_verdict() {
        // One processor, c = 1/64 each. Task 1 (p = 1) is tight and must
        // run first; task 0 (p = 0) is 0.15 s looser, so it outranks task 1
        // above γ* = 0.15 and the queue turns infeasible. Every bisection
        // mid on the same side of γ* as the probe before it ranks the
        // queue exactly as that probe did, and takes its verdict.
        let c = 1.0 / 64.0;
        let jobs = [(0, 0.0, 0.15 + 2.0 * c), (1, 0.0, c)];
        let fx = Fixture::custom(&[0, 1], &[c, c], &jobs, 1, 0.0, 0.0);
        check_against_reference(&fx, 0.2);
        let config = DpsConfig {
            search: GammaSearch::Bisection,
            ..Default::default()
        };
        let mut dps = DynamicPriorityScheduler::new(config);
        let got = dps.gamma_max_cached(&fx.ctx());
        assert_eq!(got, reference::gamma_max(&fx.ctx(), &config));
        let counters = dps.search_counters();
        // γ = 0, the ceiling and 24 mids are decided: the two mids above
        // the certificate bound γ* + narrow without a ranking, the rest
        // ranked; some walks are reused.
        assert_eq!(counters.probes + counters.skipped, 26, "{counters:?}");
        assert_eq!((counters.probes, counters.skipped), (24, 2), "{counters:?}");
        assert!(counters.reused > 0, "{counters:?}");
        // Equal priorities never reorder: the ceiling probe reuses the
        // γ = 0 walk and the search stops there.
        let same = Fixture::custom(&[2, 2], &[c, c], &jobs, 1, 0.0, 0.0);
        let mut dps = DynamicPriorityScheduler::new(config);
        assert_eq!(dps.gamma_max_cached(&same.ctx()), Some(0.2));
        let counters = dps.search_counters();
        assert_eq!((counters.probes, counters.reused), (2, 1), "{counters:?}");
    }

    #[test]
    fn sweep_reverses_a_block_of_three_collinear_jobs() {
        // P_i(γ) = γ·p_i + d_i meet in one point for all three jobs:
        // d = 0.25, 0.1875, 0.125 with p = 0, 1, 2 give γ* = 0.0625 for
        // every pair, so the three crossings coincide (one interval
        // boundary) and passing it reverses the block. Above γ* the
        // loosest job runs first and the tightest misses; below it the
        // reversed order is feasible. Every queue order is tried.
        let c = 0.125;
        let jobs = [
            (0, 0.0, 0.25 + c),
            (1, 0.0, 0.1875 + c),
            (2, 0.0, 0.125 + c),
        ];
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let queue = perm.map(|k| jobs[k]);
            let fx = Fixture::custom(&[0, 1, 2], &[c; 3], &queue, 1, 0.0, 0.0);
            check_against_reference(&fx, 0.2);
            let mut dps = DynamicPriorityScheduler::new(DpsConfig {
                search: GammaSearch::CriticalPoints,
                ..Default::default()
            });
            assert_eq!(dps.gamma_max_cached(&fx.ctx()), Some(0.0625), "{perm:?}");
        }
    }

    #[test]
    fn sweep_matches_reference_on_crossings_one_ulp_apart() {
        // Pair (t0, t1) crosses at d_1 − d_0 = x, pair (t2, t3) at
        // (d_3 − d_2)/2, which is set to the next float above x: the
        // interval between them is one ulp wide and must be probed.
        let c = 1.0 / 64.0;
        let x: f64 = 3.0 / 64.0;
        let next = f64::from_bits(x.to_bits() + 1);
        let jobs = [
            (0, 0.0, c),
            (1, 0.0, x + c),
            (2, 0.0, c),
            (3, 0.0, 2.0 * next + c),
        ];
        let fx = Fixture::custom(&[1, 0, 2, 0], &[c; 4], &jobs, 1, 0.0, 0.0);
        let ctx = fx.ctx();
        let laxity: Vec<f64> = (0..4).map(|i| priority_key(&ctx, i, 0.0)).collect();
        assert_eq!((laxity[1] - laxity[0]) / (1.0 - 0.0), x);
        assert_eq!((laxity[3] - laxity[2]) / (2.0 - 0.0), next);
        for processors in 1..=8 {
            for busy in [0.0, 0.01, 0.05] {
                let fx = Fixture::custom(&[1, 0, 2, 0], &[c; 4], &jobs, processors, busy, 0.0);
                check_against_reference(&fx, 0.2);
            }
        }
    }

    #[test]
    fn sweep_matches_reference_with_a_crossing_at_the_ceiling() {
        // d_1 − d_0 = 0.125 = gamma_ceiling exactly: the crossing is
        // outside the open search range and creates no interval.
        let c = 1.0 / 64.0;
        let jobs = [(0, 0.0, c), (1, 0.0, 0.125 + c), (2, 0.0, 0.0625 + c)];
        for processors in 1..=4 {
            for busy in [0.0, 0.02, 0.1] {
                let fx = Fixture::custom(&[1, 0, 3], &[c; 3], &jobs, processors, busy, 0.0);
                for sweep in check_against_reference(&fx, 0.125) {
                    assert!(sweep.crossings <= 1, "{sweep:?}");
                }
            }
        }
    }

    #[test]
    fn sweep_probes_an_interval_whose_only_violation_is_below_the_band() {
        // One processor, c = 1/64 each. Top interval: the tight job t2
        // runs last and misses by ~c. Below γ = d_1 − d_2 it runs second
        // and misses by 0.5 ns only, under the 1 ns band: the sweep must
        // probe that interval rather than skip it or accept it, and finds
        // it infeasible like the reference. Below (d_0 − d_2)/2 t2 runs
        // first and the queue is feasible.
        let c = 1.0 / 64.0;
        let jobs = [
            (0, 0.0, 0.3 + c),
            (1, 0.0, 0.2 + c),
            (2, 0.0, 2.0 * c - 5e-10),
        ];
        let fx = Fixture::custom(&[0, 1, 2], &[c; 3], &jobs, 1, 0.0, 0.0);
        let [relaxed, strict] = check_against_reference(&fx, 0.2);
        for sweep in [relaxed, strict] {
            // γ = 0 check, then the top interval, the sub-band one and
            // the feasible one: nothing is skipped.
            assert_eq!(
                (sweep.probes, sweep.skipped, sweep.reused),
                (4, 0, 0),
                "{sweep:?}"
            );
        }
        let ctx = fx.ctx();
        let expected = (priority_key(&ctx, 0, 0.0) - priority_key(&ctx, 2, 0.0)) / 2.0;
        let mut dps = DynamicPriorityScheduler::new(DpsConfig {
            search: GammaSearch::CriticalPoints,
            ..Default::default()
        });
        assert_eq!(dps.gamma_max_cached(&ctx), Some(expected));
    }

    /// A deep overloaded queue: 64 jobs over 19 tasks of mixed
    /// priorities on 4 busy processors. Times are drawn from a seeded
    /// RNG, off any grid, so crossings rarely coincide (the randomized
    /// test covers grids).
    fn overloaded_queue() -> Fixture {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let priorities: Vec<u32> = (0..19).map(|t| t * 7 % 11).collect();
        let exec: Vec<f64> = (0..19).map(|_| rng.gen_range(1e-3..10e-3)).collect();
        let jobs: Vec<(usize, f64, f64)> = (0..64)
            .map(|k| {
                let release = 10.0 - rng.gen_range(0.0..5e-3);
                (k % 19, release, rng.gen_range(35e-3..0.2))
            })
            .collect();
        Fixture::custom(&priorities, &exec, &jobs, 4, 4e-3, 10.0)
    }

    #[test]
    fn sweep_probes_two_intervals_below_the_top_of_an_overloaded_queue() {
        let fx = overloaded_queue();
        let [relaxed, _] = check_against_reference(&fx, 0.2);
        // γ = 0, the top interval and two intervals the certificates jump
        // to (the second one feasible) are probed; the other 579 are
        // certified infeasible.
        assert_eq!(
            (relaxed.probes, relaxed.skipped, relaxed.reused),
            (4, 579, 0),
            "{relaxed:?}"
        );
    }

    /// One processor, c = 1/64: a loose job `k` (p = 0, laxity 0.1), the
    /// certificate job `j` (p = 1, laxity 1.5c) and an equal-priority job
    /// `i` whose laxity is `gap` lower, plus `extra` jobs `(task, laxity)`
    /// that take no time. Above `γ* = 0.1 − 1.5c` the job `k` passes `j`,
    /// which then finishes at 3c and misses its deadline at 2.5c; that is
    /// certified only when `i`, counted ahead of `j`, makes up the rest.
    fn certificate_queue(gap: f64, extra: &[(usize, f64)], ceiling: f64) -> Fixture {
        let c = 1.0 / 64.0;
        let mut jobs = vec![
            (0, 0.0, 0.1 + c),
            (1, 0.0, 2.5 * c),
            (1, 0.0, 2.5 * c - gap),
        ];
        jobs.extend(extra.iter().map(|&(task, laxity)| (task, 0.0, laxity)));
        let fx = Fixture::custom(&[0, 1, 6, 2], &[c, c, 0.0, 0.0], &jobs, 1, 0.0, 0.0);
        check_against_reference(&fx, ceiling);
        fx
    }

    /// [`GammaScratch::narrow`] of a fixture's queue.
    fn narrow_of(fx: &Fixture, ceiling: f64) -> f64 {
        let mut s = GammaScratch::default();
        s.load(&fx.ctx());
        s.narrow(ceiling)
    }

    #[test]
    fn certificate_bound_one_ulp_from_a_crossing() {
        // Two zero-time jobs u (p = 6, laxity 1/8) and w (p = 2) cross at
        // (d_w − 1/8)/4. Near X ≈ 0.077 both laxities are multiples of
        // the ulp of 4X and below 1/2, so that crossing is exact and can
        // be put on any float near the certificate bound X = γ* + narrow.
        // Setting it moves `narrow` a little, so X is recomputed until it
        // holds.
        let ceiling = 0.2;
        for step in [-1i64, 0, 1] {
            let mut target = 0.1;
            let mut bounds = [[None; 2]; 2];
            for _ in 0..8 {
                let extra = [(2, 0.125), (3, 0.125 + 4.0 * target)];
                let fx = certificate_queue(0.01, &extra, ceiling);
                bounds = assert_certificates_sound(&fx, ceiling, &[0.0, 0.5]);
                let x = bounds[0][0].expect("the ceiling probe fails");
                let next = f64::from_bits(x.to_bits().wrapping_add_signed(step));
                if next == target {
                    break;
                }
                target = next;
            }
            // One bound for both searches and both modes, `step` ulps
            // from the crossing.
            let x = bounds[0][0].expect("a bound");
            assert!(x.is_finite() && x < ceiling, "{bounds:?}");
            assert_eq!(bounds, [[Some(x); 2]; 2]);
            let crossing = (0.125 + 4.0 * target - 0.125) / 4.0;
            assert_eq!(crossing.to_bits() as i64 - x.to_bits() as i64, step);
            // The interval above the crossing is certified either way: with
            // the crossing above the bound it is dropped with the crossings
            // over it, otherwise its midpoint lies above the bound. The
            // interval below the crossing is probed, then the feasible one.
            let extra = [(2, 0.125), (3, 0.125 + 4.0 * target)];
            let fx = certificate_queue(0.01, &extra, ceiling);
            let sweeps = counters_of(&fx, ceiling);
            for sweep in [sweeps[1], sweeps[3]] {
                assert_eq!(
                    (sweep.probes, sweep.skipped, sweep.reused),
                    (4, 1, 0),
                    "{sweep:?}"
                );
            }
        }
    }

    #[test]
    fn certificate_counts_an_equal_priority_job_only_past_a_near_tie() {
        // `i` is ranked ahead of `j` at every γ, but is counted only when
        // their laxity gap exceeds `narrow`. Just above, both searches
        // certify the same bound; just below, neither certifies anything.
        let ceiling = 0.2;
        let narrow = narrow_of(&certificate_queue(0.0, &[], ceiling), ceiling);
        for (scale, certified) in [(1.001, true), (0.999, false)] {
            let fx = certificate_queue(scale * narrow, &[], ceiling);
            let ctx = fx.ctx();
            let gap = priority_key(&ctx, 1, 0.0) - priority_key(&ctx, 2, 0.0);
            assert_eq!(gap > narrow_of(&fx, ceiling), certified, "gap {gap}");
            for [bisection, sweep] in assert_certificates_sound(&fx, ceiling, &[0.25, 0.75]) {
                assert_eq!(bisection.is_some_and(f64::is_finite), certified);
                assert_eq!(sweep, bisection);
            }
        }
    }

    #[test]
    fn certificate_is_infinite_when_the_ceiling_miss_is_below_the_band() {
        // `j` misses its deadline at the ceiling by 0.5 ns, under the 1 ns
        // band, so no bound is certified and the bisection ranks every
        // mid, as it did before certificates.
        let c = 1.0 / 64.0;
        let jobs = [(0, 0.0, 0.1 + c), (1, 0.0, 2.0 * c - 5e-10)];
        let fx = Fixture::custom(&[0, 1], &[c, c], &jobs, 1, 0.0, 0.0);
        check_against_reference(&fx, 0.2);
        for bounds in assert_certificates_sound(&fx, 0.2, &[0.5]) {
            assert_eq!(bounds, [Some(f64::INFINITY); 2]);
        }
        for counters in counters_of(&fx, 0.2) {
            assert_eq!(counters.skipped, 0, "{counters:?}");
        }
    }

    #[test]
    fn search_counters_repeat_exactly() {
        let run = || {
            let fx = overloaded_queue();
            let mut dps = DynamicPriorityScheduler::new(DpsConfig {
                search: GammaSearch::CriticalPoints,
                ..Default::default()
            });
            dps.set_nominal_u(0.1);
            for _ in 0..3 {
                dps.recompute_gamma(&fx.ctx());
            }
            dps.search_counters()
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(first.recomputes, 3);
        assert!(first.skipped > 0, "{first:?}");
    }

    #[test]
    fn scratch_is_reused_across_recomputes() {
        // Two consecutive recomputes over queues of the same depth must not
        // regrow the scratch buffers (the zero-steady-state-allocation
        // contract: capacity is retained between recomputes).
        let queue = vec![job(0, 0, 0.0, 40.0), job(1, 1, 0.0, 35.0)];
        let fx = Fixture::new(queue, 10.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(0.1);
        dps.recompute_gamma(&fx.ctx());
        let caps = |s: &GammaScratch| (s.recs.capacity(), s.spare.capacity(), s.buckets.capacity());
        let warm = caps(&dps.scratch);
        dps.recompute_gamma(&fx.ctx());
        assert_eq!(warm, caps(&dps.scratch));
    }

    #[test]
    fn selection_is_deterministic_under_ties() {
        // Two identical jobs: the earlier JobId wins.
        let queue = vec![job(5, 1, 0.0, 50.0), job(3, 1, 0.0, 50.0)];
        let fx = Fixture::new(queue, 5.0, 2);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        assert_eq!(dps.select(&fx.ctx()), Some(1));
    }
}
