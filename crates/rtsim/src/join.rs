//! The § II same-cycle AND-join table (see the `sim` module docs).

/// Open same-cycle joins, per successor task.
#[derive(Debug, Clone, Default)]
pub(crate) struct SameCycleJoins {
    /// Indexed by task: the task's open joins as `(cycle, predecessors
    /// arrived)`, sorted by cycle.
    open: Vec<Vec<(u64, usize)>>,
}

impl SameCycleJoins {
    /// An empty table for a graph of `tasks` tasks.
    pub(crate) fn new(tasks: usize) -> Self {
        SameCycleJoins {
            open: vec![Vec::new(); tasks],
        }
    }

    /// Records that one of `task`'s `needed` predecessors produced its
    /// output of `cycle` in time. Returns whether that completes the join,
    /// i.e. whether `task` releases its job of `cycle` now.
    #[inline]
    pub(crate) fn arrive(&mut self, task: usize, cycle: u64, needed: usize) -> bool {
        if needed <= 1 {
            return needed == 1;
        }
        let Some(list) = self.open.get_mut(task) else {
            return false;
        };
        // Arrivals are nearly always for the latest cycles: search from
        // the back for the last entry at or before `cycle`.
        let at = list.iter().rposition(|&(c, _)| c <= cycle);
        match at {
            Some(i) if list[i].0 == cycle => {
                list[i].1 += 1;
                let done = list[i].1 == needed;
                if done {
                    list.remove(i);
                }
                done
            }
            _ => {
                list.insert(at.map_or(0, |i| i + 1), (cycle, 1));
                false
            }
        }
    }

    /// Drops every open join of a cycle before `horizon`.
    pub(crate) fn prune(&mut self, horizon: u64) {
        for list in &mut self.open {
            let cut = list.partition_point(|&(c, _)| c < horizon);
            list.drain(..cut);
        }
    }

    /// Every open join as `(cycle, task, arrived)`, sorted by
    /// `(cycle, task)`.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<(u64, usize, usize)> {
        let mut all: Vec<(u64, usize, usize)> = self
            .open
            .iter()
            .enumerate()
            .flat_map(|(task, list)| list.iter().map(move |&(c, n)| (c, task, n)))
            .collect();
        all.sort_unstable();
        all
    }

    /// Whether every task's list is strictly sorted by cycle.
    #[cfg(test)]
    pub(crate) fn lists_sorted(&self) -> bool {
        self.open
            .iter()
            .all(|list| list.windows(2).all(|w| w[0].0 < w[1].0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table this module replaced: one vector of `(cycle, task,
    /// arrived)` for all tasks, sorted by `(cycle, task)`. Kept as the
    /// oracle the per-task lists must agree with.
    #[derive(Default)]
    struct SortedVecJoins {
        open: Vec<(u64, usize, usize)>,
    }

    impl SortedVecJoins {
        fn arrive(&mut self, task: usize, cycle: u64, needed: usize) -> bool {
            let at = self
                .open
                .partition_point(|&(c, t, _)| (c, t) < (cycle, task));
            let arrived = match self.open.get_mut(at) {
                Some((c, t, n)) if (*c, *t) == (cycle, task) => {
                    *n += 1;
                    *n
                }
                _ => {
                    if needed > 1 {
                        self.open.insert(at, (cycle, task, 1));
                    }
                    1
                }
            };
            if arrived == needed && needed > 1 {
                self.open.remove(at);
            }
            arrived == needed
        }

        fn prune(&mut self, horizon: u64) {
            let cut = self.open.partition_point(|&(c, _, _)| c < horizon);
            self.open.drain(..cut);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random arrival sequences over tasks of arity 1-4: each step may
        /// advance the pipeline cycle, then one predecessor of a random
        /// task reports an output for one of the last few cycles (so
        /// cycles interleave, and a cycle may see too few arrivals and die
        /// or more than its arity). The engine prunes after every arrival
        /// while the pipeline cycle is a multiple of 256; so does this
        /// test. Release decisions and open joins must match the oracle
        /// at every step.
        #[test]
        fn per_task_lists_match_the_sorted_vector(
            arity in (1usize..=4, 1usize..=4, 1usize..=4, 1usize..=4),
            steps in proptest::collection::vec((0u64..2, 0usize..4, 0u64..6), 200..1600),
        ) {
            let arity = [arity.0, arity.1, arity.2, arity.3];
            let mut joins = SameCycleJoins::new(arity.len());
            let mut oracle = SortedVecJoins::default();
            let mut pipeline = 0u64;
            let mut releases = 0usize;
            for (advance, task, back) in steps {
                pipeline += advance;
                let cycle = pipeline.saturating_sub(back);
                let needed = arity[task];
                let released = joins.arrive(task, cycle, needed);
                prop_assert_eq!(released, oracle.arrive(task, cycle, needed));
                releases += usize::from(released);
                if pipeline.is_multiple_of(256) {
                    let horizon = pipeline.saturating_sub(128);
                    joins.prune(horizon);
                    oracle.prune(horizon);
                }
                prop_assert!(joins.lists_sorted());
                prop_assert_eq!(joins.entries(), oracle.open.clone());
            }
            prop_assert!(releases > 0);
        }
    }

    #[test]
    fn single_predecessor_releases_without_an_entry() {
        let mut joins = SameCycleJoins::new(2);
        assert!(joins.arrive(0, 7, 1));
        assert!(joins.arrive(0, 7, 1));
        assert!(joins.entries().is_empty());
    }

    #[test]
    fn late_arrival_for_an_old_cycle_keeps_the_list_sorted() {
        let mut joins = SameCycleJoins::new(1);
        assert!(!joins.arrive(0, 5, 2));
        assert!(!joins.arrive(0, 9, 2));
        assert!(!joins.arrive(0, 3, 2));
        assert!(!joins.arrive(0, 7, 2));
        assert!(joins.lists_sorted());
        assert!(joins.arrive(0, 5, 2), "second arrival completes cycle 5");
        assert_eq!(joins.entries(), vec![(3, 0, 1), (7, 0, 1), (9, 0, 1)]);
        joins.prune(8);
        assert_eq!(joins.entries(), vec![(9, 0, 1)]);
    }
}
