//! Power supplies: the interface between the intermittent runtime and
//! the energy substrate.
//!
//! The runtime draws energy per executed instruction and receives a
//! [`PowerEvent::LowPower`] when the comparator trips; on shutdown it
//! asks for the off/charging time before reboot — the arbitrary `n` that
//! the paper's `pick(n)` models in the reboot rules (Appendix H).

use crate::energy::{draw_batch_exact, Capacitor, PowerEvent};
use crate::harvest::Harvester;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of operating power for an intermittent execution.
///
/// Supplies are `Send` so a machine (and the boxed supply it owns) can
/// be moved onto a worker thread of the parallel evaluation harness;
/// every supply here is plain data plus a seeded RNG, so the bound is
/// free.
pub trait PowerSupply: Send {
    /// Draws `energy_nj` for useful work; returns
    /// [`PowerEvent::LowPower`] when the system must checkpoint and
    /// shut down.
    fn consume(&mut self, energy_nj: f64) -> PowerEvent;

    /// Draws the energy of a whole pre-costed instruction batch in one
    /// call — the compiled execution backend charges straight-line
    /// runs this way instead of once per instruction.
    ///
    /// `energy_nj` is the sum of the batch's per-instruction draws, each
    /// a whole number of nanojoules. The supply draws it only if drawing
    /// those parts one by one through [`PowerSupply::consume`] could not
    /// have tripped the comparator, leaving exactly the state the
    /// in-order draws would, and returns true. Otherwise it leaves
    /// itself untouched and returns false, and the caller runs the
    /// batch step by step, so the low-power interrupt lands on the same
    /// instruction it would without batching.
    fn consume_batch(&mut self, energy_nj: f64) -> bool;

    /// Off-time in microseconds until the system can reboot, refilling
    /// storage as a side effect.
    fn recharge(&mut self) -> u64;

    /// True for supplies that never fail (continuous power).
    fn is_continuous(&self) -> bool {
        false
    }
}

/// Continuous bench power: never fails.
#[derive(Debug, Clone, Default)]
pub struct ContinuousPower;

impl PowerSupply for ContinuousPower {
    fn consume(&mut self, _energy_nj: f64) -> PowerEvent {
        PowerEvent::Ok
    }

    fn consume_batch(&mut self, _energy_nj: f64) -> bool {
        true
    }

    fn recharge(&mut self) -> u64 {
        0
    }

    fn is_continuous(&self) -> bool {
        true
    }
}

/// Harvested power: a capacitor fed by a harvester — the Capybara +
/// PowerCast configuration of §7.2.
#[derive(Debug, Clone)]
pub struct HarvestedPower {
    /// The storage bank.
    pub capacitor: Capacitor,
    /// The ambient source.
    pub harvester: Harvester,
    /// Boot-voltage jitter: on each reboot the bank restarts somewhere
    /// below full, modeling comparator hysteresis and ambient variation
    /// during the boot ramp. Without it, constant-length programs
    /// phase-lock the failure point to one spot (`None` disables).
    boot_jitter: Option<(StdRng, f64)>,
}

impl HarvestedPower {
    /// Builds a supply from parts (no boot jitter).
    pub fn new(capacitor: Capacitor, harvester: Harvester) -> Self {
        HarvestedPower {
            capacitor,
            harvester,
            boot_jitter: None,
        }
    }

    /// The paper's evaluation setup.
    pub fn capybara_powercast() -> Self {
        Self::new(Capacitor::capybara(), Harvester::powercast_at_10in())
    }

    /// Capybara storage with a seeded noisy harvester.
    pub fn capybara_noisy(seed: u64) -> Self {
        Self::new(Capacitor::capybara(), Harvester::powercast_noisy(seed))
    }

    /// Enables boot-voltage jitter: each reboot starts with up to
    /// `frac` of the usable capacity already spent (uniformly).
    pub fn with_boot_jitter(mut self, seed: u64, frac: f64) -> Self {
        self.boot_jitter = Some((StdRng::seed_from_u64(seed), frac.clamp(0.0, 0.95)));
        self
    }
}

impl PowerSupply for HarvestedPower {
    fn consume(&mut self, energy_nj: f64) -> PowerEvent {
        self.capacitor.consume(energy_nj)
    }

    fn consume_batch(&mut self, energy_nj: f64) -> bool {
        self.capacitor.consume_batch(energy_nj)
    }

    fn recharge(&mut self) -> u64 {
        let t = self.harvester.charge_time_us(self.capacitor.deficit_nj());
        self.capacitor.refill();
        if let Some((rng, frac)) = &mut self.boot_jitter {
            let spend = self.capacitor.capacity_nj() * *frac * rng.gen::<f64>();
            // Spend from the top without tripping the comparator.
            let headroom = (self.capacitor.level_nj() - self.capacitor.trigger_nj() - 1.0).max(0.0);
            self.capacitor.consume(spend.min(headroom));
        }
        t
    }
}

/// Scripted power that fails after fixed amounts of consumed energy —
/// used by unit tests to place failures deterministically.
#[derive(Debug, Clone)]
pub struct ScriptedPower {
    /// Remaining energy budgets; each entry is one power-on interval.
    budgets: Vec<f64>,
    current: f64,
    /// Fixed off-time per failure.
    off_time_us: u64,
    exhausted_budgets: usize,
}

impl ScriptedPower {
    /// Power that fails each time `budgets[i]` nanojoules have been
    /// consumed, then never again once the script is exhausted.
    pub fn new(budgets: Vec<f64>, off_time_us: u64) -> Self {
        let current = budgets.first().copied().unwrap_or(f64::INFINITY);
        ScriptedPower {
            budgets,
            current,
            off_time_us,
            exhausted_budgets: 0,
        }
    }

    /// Number of completed power-off cycles so far.
    pub fn failures(&self) -> usize {
        self.exhausted_budgets
    }
}

impl PowerSupply for ScriptedPower {
    fn consume(&mut self, energy_nj: f64) -> PowerEvent {
        self.current -= energy_nj;
        if self.current <= 0.0 {
            PowerEvent::LowPower
        } else {
            PowerEvent::Ok
        }
    }

    fn consume_batch(&mut self, energy_nj: f64) -> bool {
        draw_batch_exact(&mut self.current, energy_nj, 0.0)
    }

    fn recharge(&mut self) -> u64 {
        self.exhausted_budgets += 1;
        self.current = self
            .budgets
            .get(self.exhausted_budgets)
            .copied()
            .unwrap_or(f64::INFINITY);
        self.off_time_us
    }
}

/// Random power: exponential-ish on-intervals drawn around a mean energy
/// budget, for soak testing.
#[derive(Debug, Clone)]
pub struct RandomPower {
    mean_budget_nj: f64,
    mean_off_us: u64,
    current: f64,
    rng: StdRng,
}

impl RandomPower {
    /// Seeded random supply with a mean on-interval energy budget and a
    /// mean off-time.
    pub fn new(mean_budget_nj: f64, mean_off_us: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let current = sample_exp(&mut rng, mean_budget_nj);
        RandomPower {
            mean_budget_nj,
            mean_off_us,
            current,
            rng,
        }
    }
}

fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-6..1.0);
    -mean * u.ln()
}

impl PowerSupply for RandomPower {
    fn consume(&mut self, energy_nj: f64) -> PowerEvent {
        self.current -= energy_nj;
        if self.current <= 0.0 {
            PowerEvent::LowPower
        } else {
            PowerEvent::Ok
        }
    }

    fn consume_batch(&mut self, energy_nj: f64) -> bool {
        draw_batch_exact(&mut self.current, energy_nj, 0.0)
    }

    fn recharge(&mut self) -> u64 {
        self.current = sample_exp(&mut self.rng, self.mean_budget_nj);
        let off = sample_exp(&mut self.rng, self.mean_off_us as f64);
        off.ceil().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn continuous_never_fails() {
        let mut p = ContinuousPower;
        for _ in 0..1000 {
            assert_eq!(p.consume(1e9), PowerEvent::Ok);
        }
        assert!(p.is_continuous());
        assert_eq!(p.recharge(), 0);
        assert!(p.consume_batch(1e12));
    }

    #[test]
    fn batched_draw_equals_split_draw_on_continuous_power() {
        // On a continuous supply every batch is accepted, and one batched
        // draw and any per-instruction split of it are indistinguishable.
        let mut a = ContinuousPower;
        let mut b = ContinuousPower;
        assert!(a.consume_batch(30.0));
        for _ in 0..3 {
            assert_eq!(b.consume(10.0), PowerEvent::Ok);
        }
    }

    #[test]
    fn batched_draw_on_a_finite_supply_falls_back_before_the_trip() {
        // A batch that would cross the trip point is refused and leaves
        // the supply untouched, so the caller's per-step draws trip on
        // the same instruction they would without batching.
        let mut p = ScriptedPower::new(vec![10.0], 5);
        assert!(p.consume_batch(9.0));
        assert!(!p.consume_batch(1.0), "ending exactly at 0 trips");
        assert_eq!(p.current, 1.0, "a refused batch draws nothing");
        assert_eq!(p.consume(1.0), PowerEvent::LowPower);
        p.recharge();
        // Script exhausted: an infinite budget accepts any batch.
        assert!(p.consume_batch(1e15));
    }

    /// Draws `draws` one by one from a copy of `s` and as one batch from
    /// another: the batch must be accepted exactly when no single draw
    /// tripped, and then leave the same level bits (`bits`); a refused
    /// batch must leave the level as it was.
    fn check_batch<S: PowerSupply + Clone>(
        s: &S,
        draws: &[u64],
        bits: impl Fn(&S) -> u64,
    ) -> Result<(), TestCaseError> {
        let mut seq = s.clone();
        let mut tripped = false;
        for &d in draws {
            tripped |= seq.consume(d as f64) == PowerEvent::LowPower;
        }
        let mut batch = s.clone();
        let accepted = batch.consume_batch(draws.iter().sum::<u64>() as f64);
        prop_assert_eq!(accepted, !tripped, "draws {:?}", draws);
        let expected = if accepted { bits(&seq) } else { bits(s) };
        prop_assert_eq!(bits(&batch), expected, "draws {:?}", draws);
        Ok(())
    }

    proptest! {
        #[test]
        fn batched_draw_is_exact_or_refused_on_every_finite_supply(
            whole in 0u64..46_000,
            frac in 0u64..(1 << 40),
            seed in any::<u64>(),
            draws in vec(0u64..3_000, 1..40),
        ) {
            let spend = whole as f64 + frac as f64 / (1u64 << 40) as f64;
            // Capacitor (through HarvestedPower): fractional level above
            // the trigger, as after a jittered boot.
            let mut cap = Capacitor::capybara();
            cap.consume(spend);
            let harvested = HarvestedPower::new(cap, Harvester::powercast_at_10in());
            check_batch(&harvested, &draws, |p| p.capacitor.level_nj().to_bits())?;
            // Scripted budget with a fractional part.
            let scripted = ScriptedPower::new(vec![1.0 + spend], 5);
            check_batch(&scripted, &draws, |p| p.current.to_bits())?;
            // Random supply: a seeded exponential (fractional) budget.
            let random = RandomPower::new(1.0 + whole as f64, 50, seed);
            check_batch(&random, &draws, |p| p.current.to_bits())?;
        }
    }
    #[test]
    fn harvested_fails_and_recovers() {
        let mut p = HarvestedPower::capybara_powercast();
        let mut events = 0;
        let mut safety = 0;
        loop {
            safety += 1;
            assert!(safety < 1_000_000);
            if p.consume(100.0) == PowerEvent::LowPower {
                events += 1;
                break;
            }
        }
        assert_eq!(events, 1);
        let off = p.recharge();
        assert!(off > 1_000, "charging 46 µJ takes real time, got {off} µs");
        assert_eq!(
            p.consume(100.0),
            PowerEvent::Ok,
            "full again after recharge"
        );
    }

    #[test]
    fn scripted_fails_exactly_on_schedule() {
        let mut p = ScriptedPower::new(vec![10.0, 20.0], 5);
        assert_eq!(p.consume(9.0), PowerEvent::Ok);
        assert_eq!(p.consume(2.0), PowerEvent::LowPower);
        assert_eq!(p.recharge(), 5);
        assert_eq!(p.failures(), 1);
        assert_eq!(p.consume(19.0), PowerEvent::Ok);
        assert_eq!(p.consume(2.0), PowerEvent::LowPower);
        p.recharge();
        // Script exhausted: effectively continuous now.
        assert_eq!(p.consume(1e12), PowerEvent::Ok);
    }

    #[test]
    fn random_power_is_reproducible() {
        let run = |seed| {
            let mut p = RandomPower::new(1000.0, 50, seed);
            let mut fails = 0;
            for _ in 0..10_000 {
                if p.consume(10.0) == PowerEvent::LowPower {
                    fails += 1;
                    p.recharge();
                }
            }
            fails
        };
        assert_eq!(run(1), run(1));
        // Mean budget 1000 nJ at 10 nJ/step ≈ failure every ~100 steps.
        let f = run(2);
        assert!(f > 20 && f < 500, "plausible failure count, got {f}");
    }
}
