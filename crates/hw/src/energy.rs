//! Energy storage and instruction cost model.
//!
//! Models the Capybara energy-harvesting platform the paper evaluates on
//! (§6.3): a capacitor bank feeding an MSP430-class MCU, with a
//! comparator that raises a low-power interrupt when the stored energy
//! falls below a trigger threshold. The trigger is set high enough that
//! the remaining energy always completes a JIT checkpoint — the same
//! assumption Samoyed and the paper make.

/// Per-operation costs, in CPU cycles.
///
/// Absolute values are calibrated to an 8 MHz MSP430-class core: what
/// matters for the paper's figures is the *ratio* between plain compute,
/// sensor sampling, checkpointing, and undo logging.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Plain ALU op / assignment / bind.
    pub alu: u64,
    /// Non-volatile memory write (per word).
    pub nv_write: u64,
    /// Call/return overhead.
    pub call: u64,
    /// Sensor sample (ADC conversion + settling) — milliseconds-scale.
    pub input: u64,
    /// Per-channel overrides of the sampling cost: real sensors differ
    /// widely (a photoresistor integrates light; a MEMS accelerometer
    /// wakes, settles, and converts; a TPMS pressure cell is nearly
    /// instant).
    pub input_overrides: std::collections::BTreeMap<String, u64>,
    /// Output (UART/radio) per word written.
    pub output_word: u64,
    /// Fixed part of saving volatile context (registers).
    pub ckpt_base: u64,
    /// Per word of volatile state (stack/locals) saved or restored.
    pub ckpt_word: u64,
    /// Per word copied into an atomic region's undo log.
    pub log_word: u64,
    /// Nanoseconds per cycle (125 ns at 8 MHz).
    pub cycle_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 2,
            nv_write: 4,
            call: 12,
            input: 4_000,
            input_overrides: std::collections::BTreeMap::new(),
            output_word: 800,
            ckpt_base: 400,
            ckpt_word: 8,
            log_word: 8,
            cycle_ns: 125,
        }
    }
}

impl CostModel {
    /// Sampling cost for `sensor`, honoring per-channel overrides.
    pub fn input_cycles(&self, sensor: &str) -> u64 {
        self.input_overrides
            .get(sensor)
            .copied()
            .unwrap_or(self.input)
    }

    /// Registers a per-channel sampling cost (builder-style).
    pub fn with_input_cost(mut self, sensor: &str, cycles: u64) -> Self {
        self.input_overrides.insert(sensor.to_string(), cycles);
        self
    }

    /// Converts cycles to microseconds (rounded up).
    pub fn cycles_to_us(&self, cycles: u64) -> u64 {
        (cycles * self.cycle_ns).div_ceil(1_000)
    }

    /// Energy in nanojoules consumed by `cycles` active cycles: one nJ
    /// per cycle, so every draw is a whole number of nanojoules (what
    /// makes [`crate::power::PowerSupply::consume_batch`] exact).
    pub fn cycles_to_nj(&self, cycles: u64) -> f64 {
        cycles as f64
    }

    /// Cycles to take a checkpoint of `volatile_words` of state.
    pub fn checkpoint_cycles(&self, volatile_words: usize) -> u64 {
        self.ckpt_base + self.ckpt_word * volatile_words as u64
    }

    /// Cycles to restore a checkpoint of `volatile_words` of state.
    pub fn restore_cycles(&self, volatile_words: usize) -> u64 {
        self.ckpt_base / 2 + self.ckpt_word * volatile_words as u64
    }

    /// Cycles to undo-log `words` of non-volatile data at region entry.
    pub fn log_cycles(&self, words: usize) -> u64 {
        self.log_word * words as u64
    }
}

/// What the comparator reports after consuming energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerEvent {
    /// Enough charge remains above the trigger threshold.
    Ok,
    /// The low-power interrupt fired: checkpoint (JIT mode) and shut
    /// down. The reserve below the trigger still suffices for that.
    LowPower,
}

/// Draws `total_nj` — a sum of whole-nJ draws — from `level_nj` in one
/// subtraction and returns true, when that leaves exactly the bits the
/// in-order draws would and none of them reaches `trip_nj`; otherwise
/// leaves the level untouched and returns false.
///
/// Draws only lower the level. Below 2^53 every whole number is a
/// multiple of the level's ulp, so each in-order subtraction is exact
/// and their result equals the single one; an infinite level stays
/// infinite either way. A final level strictly above the trip point
/// then means no intermediate level reached it (or was clamped at 0).
pub(crate) fn draw_batch_exact(level_nj: &mut f64, total_nj: f64, trip_nj: f64) -> bool {
    const EXACT_BELOW: f64 = (1u64 << f64::MANTISSA_DIGITS) as f64;
    let after = *level_nj - total_nj;
    let drawn = after > trip_nj && (*level_nj < EXACT_BELOW || *level_nj == f64::INFINITY);
    if drawn {
        *level_nj = after;
    }
    drawn
}

/// A capacitor bank with a comparator trigger.
#[derive(Debug, Clone)]
pub struct Capacitor {
    capacity_nj: f64,
    level_nj: f64,
    trigger_nj: f64,
}

impl Capacitor {
    /// Creates a full capacitor holding `capacity_nj` of usable energy
    /// with a low-power trigger at `trigger_nj`.
    ///
    /// # Panics
    ///
    /// Panics if the trigger exceeds the capacity or either is negative.
    pub fn new(capacity_nj: f64, trigger_nj: f64) -> Self {
        assert!(capacity_nj > 0.0, "capacity must be positive");
        assert!(
            (0.0..capacity_nj).contains(&trigger_nj),
            "trigger must lie within the capacity"
        );
        Capacitor {
            capacity_nj,
            level_nj: capacity_nj,
            trigger_nj,
        }
    }

    /// A Capybara-like bank: ~50 µJ usable with a trigger leaving ~4 µJ
    /// of checkpoint reserve.
    pub fn capybara() -> Self {
        Capacitor::new(50_000.0, 4_000.0)
    }

    /// Usable capacity in nanojoules.
    pub fn capacity_nj(&self) -> f64 {
        self.capacity_nj
    }

    /// Current charge level in nanojoules.
    pub fn level_nj(&self) -> f64 {
        self.level_nj
    }

    /// The comparator trigger level.
    pub fn trigger_nj(&self) -> f64 {
        self.trigger_nj
    }

    /// Draws `energy_nj`; reports [`PowerEvent::LowPower`] when the level
    /// crosses the trigger. A draw that starts already below the trigger
    /// (the reserve zone, where the caller is finishing its checkpoint)
    /// does not re-trigger.
    pub fn consume(&mut self, energy_nj: f64) -> PowerEvent {
        let was_above = self.level_nj > self.trigger_nj;
        self.level_nj = (self.level_nj - energy_nj).max(0.0);
        if was_above && self.level_nj <= self.trigger_nj {
            PowerEvent::LowPower
        } else {
            PowerEvent::Ok
        }
    }

    /// Draws a batch of whole-nJ draws totalling `energy_nj` in one
    /// subtraction when none of them, drawn in order through
    /// [`Capacitor::consume`], could trip the comparator; otherwise
    /// leaves the level untouched and returns false (see
    /// [`crate::power::PowerSupply::consume_batch`]).
    pub fn consume_batch(&mut self, energy_nj: f64) -> bool {
        draw_batch_exact(&mut self.level_nj, energy_nj, self.trigger_nj)
    }

    /// Energy needed to refill completely.
    pub fn deficit_nj(&self) -> f64 {
        (self.capacity_nj - self.level_nj).max(0.0)
    }

    /// Adds harvested energy (clamped at capacity).
    pub fn charge(&mut self, energy_nj: f64) {
        self.level_nj = (self.level_nj + energy_nj).min(self.capacity_nj);
    }

    /// Refills to capacity (used when the harvester model returns a
    /// closed-form charging time).
    pub fn refill(&mut self) {
        self.level_nj = self.capacity_nj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_have_sane_ratios() {
        let c = CostModel::default();
        assert!(c.input > 100 * c.alu, "sampling dwarfs compute");
        assert!(c.ckpt_base > 10 * c.alu);
        assert_eq!(c.cycles_to_us(8), 1, "8 cycles at 8 MHz = 1 µs");
    }

    #[test]
    fn checkpoint_cost_scales_with_state() {
        let c = CostModel::default();
        assert!(c.checkpoint_cycles(64) > c.checkpoint_cycles(8));
        assert_eq!(
            c.checkpoint_cycles(0),
            c.ckpt_base,
            "empty checkpoint costs the base"
        );
    }

    #[test]
    fn capacitor_triggers_once_at_threshold() {
        let mut cap = Capacitor::new(100.0, 20.0);
        assert_eq!(cap.consume(50.0), PowerEvent::Ok);
        assert_eq!(cap.consume(40.0), PowerEvent::LowPower, "crossed 20");
        // In the reserve zone no re-trigger.
        assert_eq!(cap.consume(5.0), PowerEvent::Ok);
        assert!(cap.level_nj() >= 0.0);
    }

    #[test]
    fn capacitor_batch_is_refused_when_it_would_reach_the_trigger() {
        let mut cap = Capacitor::new(100.0, 20.0);
        assert!(!cap.consume_batch(80.0), "landing on the trigger trips");
        assert_eq!(cap.level_nj(), 100.0, "a refused batch draws nothing");
        assert!(cap.consume_batch(79.0));
        assert_eq!(cap.level_nj(), 21.0);
        // In the reserve zone every batch is refused: the caller is
        // checkpointing, and single draws there never re-trigger.
        cap.consume(5.0);
        assert!(!cap.consume_batch(0.0));
    }

    #[test]
    fn capacitor_clamps_at_zero_and_capacity() {
        let mut cap = Capacitor::new(100.0, 10.0);
        cap.consume(1000.0);
        assert_eq!(cap.level_nj(), 0.0);
        cap.charge(5000.0);
        assert_eq!(cap.level_nj(), 100.0);
    }

    #[test]
    fn deficit_tracks_consumption() {
        let mut cap = Capacitor::new(100.0, 10.0);
        cap.consume(30.0);
        assert!((cap.deficit_nj() - 30.0).abs() < 1e-9);
        cap.refill();
        assert_eq!(cap.deficit_nj(), 0.0);
    }

    #[test]
    #[should_panic(expected = "trigger")]
    fn rejects_trigger_above_capacity() {
        let _ = Capacitor::new(10.0, 20.0);
    }

    #[test]
    fn capybara_reserve_covers_a_checkpoint() {
        let cap = Capacitor::capybara();
        let costs = CostModel::default();
        // Worst-case checkpoint: 256 words of volatile state.
        let worst = costs.cycles_to_nj(costs.checkpoint_cycles(256));
        assert!(
            cap.trigger_nj() > worst,
            "trigger reserve {} must cover worst-case checkpoint {}",
            cap.trigger_nj(),
            worst
        );
    }
}
