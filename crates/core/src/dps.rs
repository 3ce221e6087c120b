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
//! **Probe cost.** An exact probe ranks the queue at one γ and walks
//! Eq. 11 over that ranking. A bisection recompute makes up to
//! `2 + iterations` of them against one queue snapshot. Each recompute
//! loads every queued job once into a contiguous record (packed sort key,
//! `p_i`, laxity at `now`, observed `c_i`, absolute deadline, skip flag)
//! in scratch owned by the scheduler, and ranks the records in place: one
//! full sort at γ = 0, then per probe a re-key and a single insertion pass
//! that compares one integer per step (adjacent probes reorder few jobs,
//! so the pass is `O(n + inversions)` rather than a fresh `O(n log n)`
//! sort). Two exact shortcuts ride on top. A probe whose insertion pass
//! moves nothing has the ranking, hence the verdict, of the probe before
//! it, so its walk is skipped. And before the first probe high in the γ
//! range the γ = 0 ranking is regrouped by static priority in one stable
//! counting pass, which leaves that probe's insertion pass little to move.
//! The critical-point sweep visits up to `O(n²)` intervals but probes only
//! a few of them: between probes it moves the ranking one crossing at a
//! time in `O(1)` and skips every interval it can prove infeasible (see
//! [`GammaSearch::CriticalPoints`]). Both strategies run on the same
//! records; [`DynamicPriorityScheduler::search_counters`] counts probes,
//! reused verdicts and skips.
//! The pre-optimization sort-per-probe search is retained in
//! [`mod@reference`] as the benchmark baseline and as an independent oracle
//! in tests.

use std::cmp::Ordering;

use hcperf_rtsim::{order_image, Job, JobId, SchedContext, Scheduler};
use hcperf_taskgraph::{SimSpan, SimTime};

/// How the scheduler searches for `γ_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GammaSearch {
    /// Bisection over `[0, ceiling]` assuming interval-shaped feasibility
    /// (the paper's assumption). Cost: one `O(n log n)` sort at γ = 0, an
    /// `O(n + span)` priority regroup, then per step an insertion pass,
    /// `O(n + inversions)` (`O(n²)` at worst), and an `O(n)` Eq. 11 walk
    /// unless the pass moved nothing.
    Bisection {
        /// Number of bisection iterations (each halves the bracket).
        iterations: u32,
    },
    /// Exact sweep over the `O(n²)` pairwise crossover points of
    /// `P_i(γ) = P_j(γ)`; finds the true supremum of the feasible set.
    ///
    /// The ranking is constant between consecutive crossings, so the sweep
    /// walks those intervals downward from the ceiling and stops at the
    /// first feasible one. It is *kinetic*: passing a crossing swaps the
    /// two jobs that meet there, which changes only their own Eq. 11
    /// constraints, so a count of violated constraints is kept up to date
    /// in `O(1)` per crossing. An interval whose count proves it
    /// infeasible is skipped; every other interval gets the same exact
    /// float probe as [`reference::gamma_max`], so the result is
    /// bit-identical to it. Cost: `O(n²)` to generate the crossings and
    /// probe the top interval; if that is infeasible, `O(n² log n)` to sort
    /// them, `O(1)` per crossing passed, and one `rank` plus an `O(n)`
    /// Eq. 11 walk for each of the few intervals that still need a probe.
    CriticalPoints,
}

impl Default for GammaSearch {
    fn default() -> Self {
        GammaSearch::Bisection { iterations: 24 }
    }
}

/// Configuration of the Dynamic Priority Scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpsConfig {
    /// Absolute upper bound of the γ search, in seconds of laxity per
    /// priority level.
    pub gamma_ceiling: f64,
    /// Search strategy for `γ_max`.
    pub search: GammaSearch,
    /// Minimum simulated time between γ recomputations (γ is also
    /// recomputed whenever a new nominal `u` arrives).
    pub recompute_interval: SimSpan,
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
            recompute_interval: SimSpan::from_millis(5.0),
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
/// `probes` counts rankings; `probes − reused` of them walked Eq. 11.
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
    /// Sweep intervals proved infeasible without a probe.
    pub skipped: u64,
    /// Sweep probes that found the interval infeasible and rebuilt the
    /// kinetic state from it.
    pub resyncs: u64,
    /// Probes whose ranking was the one the previous walk saw, so the
    /// Eq. 11 walk was skipped and its verdict reused (counted in
    /// `probes` too).
    pub reused: u64,
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
}

/// Per-job state of the kinetic critical-point sweep.
#[derive(Debug, Clone, Copy)]
struct Kinetic {
    /// Position in the ranking.
    pos: usize,
    /// Execution time ranked ahead of the job (`W_j`), in seconds.
    work: f64,
    /// `W_j` above which the job's Eq. 11 constraint is violated by more
    /// than the band (infinite outside the constraint set).
    limit: f64,
    /// `work > limit`.
    violated: bool,
}

/// A sweep interval must be wider than this many `ε · Σ(|ceiling·p_i| +
/// |d_i|)` on each side of its midpoint before the sweep trusts the float
/// ranking there to follow the crossings.
const NARROW_ULPS: f64 = 1024.0;

/// Fixed part of the margin, in seconds, by which a constraint must be
/// violated for the sweep to count it (1 ns).
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
    /// Position in the ready queue: the label the sweep's crossings and
    /// kinetic state use.
    idx: u32,
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
    /// Crossover points of the critical-point sweep, `(γ*, mover, front)`:
    /// as γ falls past `γ*`, the job at queue position `mover` (the larger
    /// `p_i`) passes the one at `front`.
    points: Vec<(f64, u32, u32)>,
    /// Kinetic sweep state per queue position.
    kin: Vec<Kinetic>,
    /// Number of `kin` entries flagged `violated`.
    violations: usize,
}

impl GammaScratch {
    /// Gathers the γ-independent job data; the ranking starts in queue
    /// order.
    fn load(&mut self, ctx: &SchedContext<'_>) {
        self.recs.clear();
        self.held = None;
        for (idx, job) in (0u32..).zip(ctx.queue) {
            let c = ctx.exec_of(job);
            let prio = ctx.graph.spec(job.task()).priority().value();
            self.recs.push(Rec {
                key: u128::from(job.id().raw()),
                p: f64::from(prio),
                laxity: job.laxity(ctx.now, c).as_secs(),
                exec: c.as_secs(),
                deadline: job.absolute_deadline().as_secs(),
                idx,
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

    /// Fills `points`, unsorted, with the crossover points `γ* = (d_b −
    /// d_a)/(p_a − p_b)` in `(0, ceiling)` and returns the half-width an
    /// interval must exceed for the sweep to skip it (see
    /// [`sweep`](Self::sweep)).
    fn crossings(&mut self, ceiling: f64) -> f64 {
        let GammaScratch { recs, points, .. } = self;
        let scale: f64 = recs
            .iter()
            .map(|r| (ceiling * r.p).abs() + r.laxity.abs())
            .sum();
        let narrow = NARROW_ULPS * f64::EPSILON * scale;
        // Branch-free pair walk: every pair is written to the next free
        // slot, and the slot is kept only if the crossing lies in range.
        // Equal priorities divide by zero and fail that test; they never
        // cross, and their float keys keep the laxity order unless the
        // laxities are close enough for rounding to tie them, in which
        // case no interval is trusted. (`b − a` is exactly `−(a − b)`, so
        // the crossing does not depend on which job comes first.)
        points.clear();
        points.resize(recs.len() * recs.len().saturating_sub(1) / 2, (0.0, 0, 0));
        let mut kept = 0;
        let mut tied = false;
        for (k, a) in recs.iter().enumerate() {
            for b in recs.iter().skip(k + 1) {
                tied |=
                    (a.p == b.p) & (a.laxity != b.laxity) & ((a.laxity - b.laxity).abs() <= narrow);
                let crossing = (b.laxity - a.laxity) / (a.p - b.p);
                let (mover, front) = if a.p > b.p {
                    (a.idx, b.idx)
                } else {
                    (b.idx, a.idx)
                };
                if let Some(slot) = points.get_mut(kept) {
                    *slot = (crossing, mover, front);
                }
                kept += usize::from((crossing > 0.0) & (crossing < ceiling));
            }
        }
        points.truncate(kept);
        if tied {
            f64::INFINITY
        } else {
            narrow
        }
    }

    /// The kinetic critical-point sweep. Expects the γ = 0 ranking and
    /// the constraint set in place; returns the supremum of the feasible
    /// set.
    ///
    /// The crossings split `[0, ceiling]` into intervals, walked from the
    /// top; each is decided at its midpoint, like [`reference::gamma_max`]
    /// does. The top interval is probed before anything is sorted: its
    /// lower bound is just the largest crossing, and when it is feasible
    /// the search ends there. Below it the sweep keeps a kinetic state:
    /// the ranking, each job's prefix work `W_j` and a flag for "Eq. 11
    /// violated by more than `band`", plus a count of flagged jobs.
    /// Passing a crossing moves the larger-`p` job of each pair directly
    /// ahead of the other; only those two jobs' `W` and flags change, so
    /// the update is `O(1)`. An interval is skipped, never probed, only
    /// when
    ///
    /// 1. the state was rebuilt from an exact probe on a wide interval and
    ///    every swap since was between adjacent jobs (`synced`);
    /// 2. the interval itself is wide: its half-width exceeds `narrow`,
    ///    `1024·ε·Σ(|ceiling·p_i| + |d_i|)`; and
    /// 3. some constraint job is flagged.
    ///
    /// Why that reproduces the reference's verdict:
    ///
    /// * On a wide interval every float crossing lies at least `narrow`
    ///   from the midpoint, and (priorities being integers, so distinct
    ///   ones differ by at least 1) the exact key gap of every pair with
    ///   distinct priorities exceeds the rounding error of the float keys
    ///   and of `γ*` by orders of magnitude. The float ranking at the
    ///   midpoint therefore orders each such pair by which side of its
    ///   float `γ*` the midpoint lies. Equal-priority pairs keep their
    ///   laxity (then id) order at every γ, because `crossings` refuses to
    ///   trust any interval when two of their laxities are within
    ///   `narrow` of each other.
    /// * Every float `γ*` of a group is the same value, so between two
    ///   groups no pair changes side. The swaps of a group flip exactly the
    ///   pairs in it; when each is adjacent at its turn, the result is the
    ///   ranking the float keys give on the next wide interval. A pair that
    ///   is not adjacent (three jobs meeting at one point, or rounding that
    ///   breaks transitivity) drops the state to unsynced instead.
    /// * A job is flagged when `W_j` exceeds `(deadline + band − now −
    ///   base − c_j)·n_p`: Eq. 11 with the band added, solved for `W`. The
    ///   kinetic `W` differ from the reference's freshly summed prefix
    ///   work only by the rounding of at most `n + swaps` additions, and
    ///   `band` is 1 ns plus `4(n+3)²·ε·(|now| + |base| + Σ|c_i|)`, which
    ///   bounds that drift together with the rounding of the limit and of
    ///   the reference's own comparison. So a flagged job also misses its
    ///   deadline in the reference walk. (A deadline far from those terms
    ///   cannot break this: far above, nothing is flagged; far below,
    ///   both walks see the miss.)
    ///
    /// So a skipped interval is one the reference finds infeasible too.
    /// Every other interval — no flagged job (a candidate), a narrow one,
    /// or an unsynced state — runs the exact `rank` + Eq. 11 walk and
    /// then rebuilds the state from that ranking in `O(n)`; a probe on a
    /// narrow interval leaves it unsynced.
    fn sweep(&mut self, ceiling: f64, h: Horizon, counters: &mut GammaCounters) -> f64 {
        let narrow = self.crossings(ceiling);
        counters.crossings += self.points.len() as u64;
        // The top interval needs only the largest crossing; when it is
        // feasible, nothing is sorted and no kinetic state is built.
        let top = self.points.iter().fold(0.0, |m: f64, p| m.max(p.0));
        self.seed();
        if self.probe(0.5 * (top + ceiling), h, counters) {
            return ceiling;
        }
        let n = self.recs.len() as f64;
        let exec: f64 = self.recs.iter().map(|r| r.exec.abs()).sum();
        let drift = 4.0 * (n + 3.0) * (n + 3.0) * f64::EPSILON;
        let band = BAND_FLOOR + drift * (h.now.abs() + h.base.abs() + exec);
        self.kin.clear();
        self.kin.resize(
            self.recs.len(),
            Kinetic {
                pos: 0,
                work: 0.0,
                limit: f64::INFINITY,
                violated: false,
            },
        );
        for r in &self.recs {
            if let (false, Some(kin)) = (r.skip, self.kin.get_mut(r.idx as usize)) {
                // `finish(W, c) > deadline + band`, solved for W.
                kin.limit = (r.deadline + band - h.now - h.base - r.exec) * h.n_p;
            }
        }
        self.sync(h);
        counters.resyncs += 1;
        let mut synced = 0.5 * (ceiling - top) > narrow;
        // Every crossing is positive and finite, so its bits order like
        // its value. Within a group of equal crossings any deterministic
        // order does: it only decides whether the swaps stay adjacent.
        self.points
            .sort_unstable_by_key(|&(g, _, _)| std::cmp::Reverse(g.to_bits()));
        // `points` is taken out for the walk (the kinetic updates borrow
        // the rest of the scratch) and restored after, so its capacity is
        // reused by the next recompute.
        let points = std::mem::take(&mut self.points);
        let same = |x: &(f64, u32, u32), y: &(f64, u32, u32)| x.0 == y.0;
        let below = points.chunk_by(same).skip(1).map(Some);
        let mut supremum = 0.0;
        // Each step passes one group of equal crossings, then decides the
        // interval below it.
        for (group, next) in points.chunk_by(same).zip(below.chain([None])) {
            let Some(&(upper, _, _)) = group.first() else {
                continue;
            };
            let lower = next.and_then(<[_]>::first).map_or(0.0, |p| p.0);
            if synced {
                for &(_, mover, front) in group {
                    if !self.overtake(mover as usize, front as usize) {
                        synced = false;
                        break;
                    }
                }
            }
            let wide = 0.5 * (upper - lower) > narrow;
            if synced && wide && self.violations > 0 {
                counters.skipped += 1;
                continue;
            }
            counters.probes += 1;
            // A ranking the last sync walked (unsynced, nothing passed
            // since, nothing moved) keeps its verdict and its state.
            let feasible = match (self.rank(0.5 * (lower + upper), false), self.held) {
                (false, Some(held)) => {
                    counters.reused += 1;
                    held
                }
                _ => self.sync(h),
            };
            if feasible {
                supremum = upper;
                break;
            }
            counters.resyncs += 1;
            synced = wide;
        }
        self.points = points;
        supremum
    }

    /// Exact Eq. 11 check of the current ranking — the arithmetic of
    /// [`feasible`](Self::feasible), without its early exit — that also
    /// rebuilds the kinetic state from the ranking.
    fn sync(&mut self, h: Horizon) -> bool {
        let mut feasible = true;
        let mut higher_work = 0.0;
        self.violations = 0;
        for (pos, r) in self.recs.iter().enumerate() {
            if !r.skip && h.finish(higher_work, r.exec) > r.deadline {
                feasible = false;
            }
            if let Some(kin) = self.kin.get_mut(r.idx as usize) {
                kin.pos = pos;
                kin.work = higher_work;
                kin.violated = higher_work > kin.limit;
                self.violations += usize::from(kin.violated);
            }
            higher_work += r.exec;
        }
        self.held = Some(feasible);
        feasible
    }

    /// Kinetic update for one crossing: `mover` passes `front`, the job
    /// ranked directly ahead of it. Returns `false`, changing nothing,
    /// when the two are not adjacent in that order.
    fn overtake(&mut self, mover: usize, front: usize) -> bool {
        let (Some(&m), Some(&f)) = (self.kin.get(mover), self.kin.get(front)) else {
            return false;
        };
        if m.pos != f.pos + 1 {
            return false;
        }
        let Some([ahead, behind]) = self.recs.get_mut(f.pos..=m.pos) else {
            return false;
        };
        let c = behind.exec;
        std::mem::swap(ahead, behind);
        self.held = None;
        self.place(mover, f.pos, f.work);
        self.place(front, m.pos, f.work + c);
        true
    }

    /// Moves `job` to `pos` with `work` ranked ahead of it and re-flags
    /// its constraint.
    fn place(&mut self, job: usize, pos: usize, work: f64) {
        let Some(kin) = self.kin.get_mut(job) else {
            return;
        };
        let violated = work > kin.limit;
        self.violations = self.violations + usize::from(violated) - usize::from(kin.violated);
        *kin = Kinetic {
            pos,
            work,
            violated,
            ..*kin
        };
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
            Some(t) => ctx.now - t >= self.config.recompute_interval,
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
        let n_p = ctx.processor_count() as f64;
        let h = Horizon {
            now: ctx.now.as_secs(),
            base: ctx.total_remaining().as_secs() / n_p,
            n_p,
        };
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
            GammaSearch::Bisection { iterations } => {
                s.seed();
                if s.probe(config.gamma_ceiling, h, counters) {
                    return Some(config.gamma_ceiling);
                }
                let mut lo = 0.0;
                let mut hi = config.gamma_ceiling;
                for _ in 0..iterations {
                    let mid = 0.5 * (lo + hi);
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
        // Single pass evaluating each candidate's key exactly once; ties
        // break on (release, id), as in HPF's key. The winner's tie
        // token rides along in `best` so no candidate is re-indexed.
        let mut best: Option<(f64, (SimTime, JobId), usize)> = None;
        for &i in ctx.candidates {
            let Some(job) = ctx.queue.get(i) else {
                continue;
            };
            let key = priority_key_job(ctx, job, gamma);
            let tie = (job.release(), job.id());
            let better = match &best {
                None => true,
                Some((best_key, best_tie, _)) => match key.total_cmp(best_key) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => tie < *best_tie,
                },
            };
            if better {
                best = Some((key, tie, i));
            }
        }
        best.map(|(_, _, i)| i)
    }

    fn name(&self) -> &str {
        "HCPerf"
    }
}

/// `P_i = γ·p_i + d_i` for queue entry `index` (Eq. 10); `d_i` is the
/// absolute laxity in seconds. An out-of-range index (never produced by
/// the schedulers) compares worst rather than panicking.
fn priority_key(ctx: &SchedContext<'_>, index: usize, gamma: f64) -> f64 {
    ctx.queue
        .get(index)
        .map_or(f64::INFINITY, |job| priority_key_job(ctx, job, gamma))
}

/// [`priority_key`] for an already-resolved job.
fn priority_key_job(ctx: &SchedContext<'_>, job: &Job, gamma: f64) -> f64 {
    let p = ctx.graph.spec(job.task()).priority().value() as f64;
    let laxity = job.laxity(ctx.now, ctx.exec_of(job)).as_secs();
    gamma * p + laxity
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
    use super::{priority_key, DpsConfig, GammaSearch};
    use hcperf_rtsim::SchedContext;

    /// Checks the Eq. 11 constraint system at a fixed γ.
    ///
    /// Orders the whole ready queue by `P_i(γ)` and verifies each job can
    /// start early enough: `now + ΣT_p/n_p + Σ_{higher priority} c_i/n_p +
    /// c_j ≤ absolute deadline`. `skip` marks jobs excluded from the
    /// constraints.
    fn feasible(ctx: &SchedContext<'_>, gamma: f64, skip: &[bool]) -> bool {
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
            GammaSearch::Bisection { iterations } => {
                if feasible(ctx, config.gamma_ceiling, &skip) {
                    return Some(config.gamma_ceiling);
                }
                let mut lo = 0.0;
                let mut hi = config.gamma_ceiling;
                for _ in 0..iterations {
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
    fn doomed_at_zero(ctx: &SchedContext<'_>) -> Vec<bool> {
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
            for search in [
                GammaSearch::Bisection { iterations: 24 },
                GammaSearch::CriticalPoints,
            ] {
                let config = DpsConfig {
                    gamma_ceiling,
                    search,
                    strict_eq11,
                    ..Default::default()
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
            search: GammaSearch::Bisection { iterations: 40 },
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
                &priorities,
                &exec,
                &jobs,
                processors,
                f64::from(busy_ms) * 1e-3,
                now,
            );
            check_against_reference(&fx, gamma_ceiling);
        }
    }

    /// The search counters of one recompute under each strategy, relaxed
    /// and strict.
    fn counters_of(fx: &Fixture, gamma_ceiling: f64) -> Vec<GammaCounters> {
        let mut all = Vec::new();
        for strict_eq11 in [false, true] {
            for search in [
                GammaSearch::Bisection { iterations: 24 },
                GammaSearch::CriticalPoints,
            ] {
                let mut dps = DynamicPriorityScheduler::new(DpsConfig {
                    gamma_ceiling,
                    search,
                    strict_eq11,
                    ..Default::default()
                });
                dps.recompute_gamma(&fx.ctx());
                all.push(dps.search_counters());
            }
        }
        all
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
            let (band, ceiling, zero_origin, idle) = shape;
            // 0: the raw draw; 1: priorities 0..4; 2: 0 or u32::MAX.
            let priorities: Vec<u32> = priorities
                .iter()
                .map(|&p| match band {
                    0 => p,
                    1 => p % 4,
                    _ => if p % 2 == 0 { 0 } else { u32::MAX },
                })
                .collect();
            let gamma_ceiling = [0.2, 0.05, 1.0][ceiling];
            let now = if zero_origin { 0.0 } else { 10.0 };
            // Task 0 takes no time, so its jobs' laxity is exactly the
            // time to their deadline.
            let exec: Vec<f64> = (0..priorities.len())
                .map(|t| if t == 0 { 0.0 } else { (1 + t % 3) as f64 * 4e-3 })
                .collect();
            let late = [0.0, 2e-3, 4e-3, 0.5, 3.0, 40.0];
            let mut queue = Vec::new();
            for &(task, released, deadline, copies) in &jobs {
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
            check_against_reference(&fx, gamma_ceiling);
            proptest::prop_assert_eq!(counters_of(&fx, gamma_ceiling), counters_of(&fx, gamma_ceiling));
        }
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
            search: GammaSearch::Bisection { iterations: 24 },
            ..Default::default()
        };
        let mut dps = DynamicPriorityScheduler::new(config);
        let got = dps.gamma_max_cached(&fx.ctx());
        assert_eq!(got, reference::gamma_max(&fx.ctx(), &config));
        let counters = dps.search_counters();
        // γ = 0, the ceiling and 24 mids are ranked; some walks are reused.
        assert_eq!(counters.probes, 26, "{counters:?}");
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
        // every pair, so one group of three swaps reverses the block.
        // Above γ* the loosest job runs first and the tightest misses;
        // below it the reversed order is feasible. Every queue order is
        // tried, so the three swaps come in different orders; one that
        // meets a non-adjacent pair must fall back to a probe.
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
                (sweep.probes, sweep.skipped, sweep.resyncs),
                (4, 0, 2),
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
    fn sweep_skips_most_intervals_of_an_overloaded_queue() {
        let fx = overloaded_queue();
        let [relaxed, _] = check_against_reference(&fx, 0.2);
        assert!(relaxed.skipped > 0, "{relaxed:?}");
        assert!(
            relaxed.probes < relaxed.skipped,
            "the sweep should skip more intervals than it probes: {relaxed:?}"
        );
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
