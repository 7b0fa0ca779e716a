//! Execution statistics: the measurements behind Figures 7–8 and
//! Table 2.

/// Declares a counter table once: the struct with one `pub u64` field
/// per counter (plus an optional `nested` table after the braces), and
/// the by-name surfaces every serializer and aggregator goes through,
/// so a counter added here is summed, written and read with no further
/// edits.
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident,)*
        }
        $($(#[$nmeta:meta])* nested $nested:ident: $nty:ty;)?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)*
            $($(#[$nmeta])* pub $nested: $nty,)?
        }

        impl $name {
            /// Number of `u64` counters (a nested table not included).
            pub const COUNTERS: usize = [$(stringify!($field)),*].len();

            /// Every counter as a `(name, value)` pair, in declaration
            /// order — the serialization surface of the bench harness's
            /// persisted artifacts.
            pub fn counters(&self) -> [(&'static str, u64); Self::COUNTERS] {
                [$((stringify!($field), self.$field)),*]
            }

            /// The counter called `name`; `None` for unknown names
            /// (deserializers treat that as a schema mismatch).
            pub fn counter_mut(&mut self, name: &str) -> Option<&mut u64> {
                match name {
                    $(stringify!($field) => Some(&mut self.$field),)*
                    _ => None,
                }
            }

            /// Adds every counter of `other` (a nested table included)
            /// into `self`, in place.
            #[inline]
            pub fn accumulate(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
                $(self.$nested.accumulate(&other.$nested);)?
            }
        }
    };
}

counter_table! {
    /// Counters accumulated by a [`crate::machine::Machine`].
    pub struct Stats {
        /// Active CPU cycles.
        on_cycles,
        /// Active wall-clock time in µs.
        on_time_us,
        /// Off/charging wall-clock time in µs.
        off_time_us,
        /// Power failures survived.
        reboots,
        /// JIT checkpoints taken (at low-power interrupts in JIT mode).
        jit_checkpoints,
        /// Atomic regions entered (outermost only).
        region_entries,
        /// Atomic regions committed.
        region_commits,
        /// Atomic region re-executions after in-region failures.
        region_reexecs,
        /// Words written to undo logs.
        log_words,
        /// Words of volatile state checkpointed.
        ckpt_words,
        /// Output operations committed.
        outputs,
        /// Detector violations (total).
        violations,
        /// Freshness violations.
        fresh_violations,
        /// Temporal-consistency violations.
        consistency_violations,
        /// Completed program runs.
        runs_completed,
        /// Completed runs containing at least one violation.
        runs_with_violation,
        /// Instructions retired.
        instructions,
        /// TICS-mode expiry checks that tripped (the value's age exceeded
        /// the window at a use site).
        expiry_trips,
        /// TICS-mode mitigation handlers run (the run restarted to
        /// re-collect inputs).
        expiry_restarts,
        /// TICS-mode trips that exceeded the per-run mitigation cap and
        /// proceeded with the stale value anyway.
        expiry_giveups,
    }
    /// Cycle breakdown by category.
    nested breakdown: Breakdown;
}

counter_table! {
    /// Where the active cycles went — the denominators of the overhead
    /// figures.
    pub struct Breakdown {
        /// Plain compute: ALU, branches, calls.
        compute,
        /// Sensor sampling.
        input,
        /// Output operations (UART/radio).
        output,
        /// Volatile checkpoints: JIT low-power saves and region-entry
        /// snapshots.
        checkpoint,
        /// Undo-log writes (eager ω plus dynamic first-writes).
        undo_log,
        /// Restores after reboot (volatile state, log application).
        restore,
    }
}

impl Breakdown {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.counters().iter().map(|&(_, v)| v).sum()
    }
}

impl Stats {
    /// Total wall-clock time (on + off) in µs.
    pub fn total_time_us(&self) -> u64 {
        self.on_time_us + self.off_time_us
    }

    /// Fraction of completed runs that violated a policy — the
    /// Table 2(b) metric. Returns 0 when no runs completed.
    pub fn violating_fraction(&self) -> f64 {
        if self.runs_completed == 0 {
            0.0
        } else {
            self.runs_with_violation as f64 / self.runs_completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violating_fraction_handles_zero_runs() {
        let s = Stats::default();
        assert_eq!(s.violating_fraction(), 0.0);
    }

    #[test]
    fn violating_fraction_is_ratio() {
        let s = Stats {
            runs_completed: 4,
            runs_with_violation: 1,
            ..Default::default()
        };
        assert!((s.violating_fraction() - 0.25).abs() < 1e-12);
    }

    /// A `Stats` with every counter distinct and non-zero, built
    /// through the table alone.
    fn numbered() -> Stats {
        let mut s = Stats::default();
        for (i, (name, _)) in Stats::default().counters().into_iter().enumerate() {
            *s.counter_mut(name).unwrap() = i as u64 + 1;
        }
        for (i, (name, _)) in Breakdown::default().counters().into_iter().enumerate() {
            *s.breakdown.counter_mut(name).unwrap() = (Stats::COUNTERS + i) as u64 + 1;
        }
        s
    }

    #[test]
    fn counters_cover_every_field_and_round_trip() {
        let a = numbered();
        // The table's order is the declaration order the artifacts
        // persist, and it reaches the named fields.
        assert_eq!((a.on_cycles, a.expiry_giveups), (1, 20));
        assert_eq!((a.breakdown.compute, a.breakdown.restore), (21, 26));
        // Rebuild a second Stats from the pair lists alone.
        let mut b = Stats::default();
        for (name, v) in a.counters() {
            *b.counter_mut(name).expect("listed counters resolve") = v;
        }
        for (name, v) in a.breakdown.counters() {
            *b.breakdown
                .counter_mut(name)
                .expect("listed counters resolve") = v;
        }
        assert_eq!(a, b, "counters()/counter_mut must cover every field");
        assert!(b.counter_mut("no_such_counter").is_none());
        assert!(
            b.counter_mut("breakdown").is_none(),
            "nested tables are not counters"
        );
        assert!(b.breakdown.counter_mut("no_such_counter").is_none());
        // The in-place sum covers every counter, the nested table too.
        b.accumulate(&a);
        for ((name, x), (_, y)) in a.counters().into_iter().zip(b.counters()) {
            assert_eq!(2 * x, y, "{name} not summed");
        }
        assert_eq!(b.breakdown.total(), 2 * (21..=26).sum::<u64>());
    }

    #[test]
    fn total_time_sums_on_and_off() {
        let s = Stats {
            on_time_us: 10,
            off_time_us: 90,
            ..Default::default()
        };
        assert_eq!(s.total_time_us(), 100);
    }
}
