//! The compiled engine's run loop.
//!
//! Mirrors `Machine::step` attempt-for-attempt — injector check, cost
//! charge, detector checks, execute — but over pre-resolved
//! [`Step`]s, and lifts maximal pure-compute runs into single batched
//! charges whenever the supply accepts the batch's draw (see
//! [`super::compile`] for what makes a step batchable). Everything
//! checked or observable delegates to the shared `Machine` helpers, so
//! both backends execute the paper's semantics through one
//! implementation.

use super::compile::{
    self, Action, ArgBind, Batch, CExpr, CompiledBlock, Cost, LocalDst, RefArgPlan, Step, VOp,
};
use super::CompiledProgram;
use crate::machine::{eval_binop, Machine, RunOutcome};
use crate::memory::{RefTarget, RetSlot, Tainted};
use crate::obs::Obs;
use ocelot_hw::energy::PowerEvent;
use ocelot_ir::ast::UnOp;
use ocelot_ir::FuncId;
use std::sync::Arc;

/// Stack slots a [`CExpr::Value`] evaluates in without allocating;
/// deeper expressions evaluate in a heap buffer through the same loop.
pub(crate) const VALUE_STACK: usize = 16;

impl<'p> Machine<'p> {
    /// Runs `main` once on the compiled engine. Counts *attempts*
    /// exactly like the interpreter's `run_once`, so `StepLimit`
    /// boundaries agree between backends.
    pub(crate) fn run_once_compiled(&mut self, max_steps: u64) -> RunOutcome {
        if self.compiled.is_none() {
            // Injector-free machines share one compiled program per
            // core (compilation bakes in only core data plus the NV
            // slot layout, which is a pure function of the declared
            // globals); injector targets are baked into steps, so those
            // machines compile privately.
            let cp = if self.injector_targets.is_empty() {
                Arc::clone(
                    self.core.shared_compiled[self.opt.index()]
                        .get_or_init(|| Arc::new(compile::compile(self))),
                )
            } else {
                Arc::new(compile::compile(self))
            };
            self.compiled = Some(cp);
        }
        let cp = Arc::clone(self.compiled.as_ref().expect("just compiled"));
        let violations_before = self.dev.stats.violations;
        // Check elision leans on bit monotonicity: bits are only cleared
        // by power failure, so a supply that can fail mid-run (or an
        // injector that forces failures, or a TICS window whose expiry
        // probe elision would also skip) keeps every probe dynamic.
        self.elide_checks = self.supply.is_continuous()
            && self.injector_targets.is_empty()
            && self.expiry_window.is_none();
        let mut steps = 0u64;
        loop {
            if let Some(top) = self.dev.vol.top() {
                let (func, block, index) = (top.func, top.block, top.index);
                let cb = &cp.funcs[func.0 as usize].blocks[block.0 as usize];
                let batch = &cb.batches[index];
                // Take the fast path only when every attempt in the run
                // fits under the step budget, so the limit lands on the
                // same instruction as the per-step loop, and when the
                // supply draws the whole batch at once — it refuses
                // whenever a per-step draw could trip the comparator,
                // and the per-step path then finds the failing step.
                if batch.totals.len > 0
                    && steps + u64::from(batch.totals.len) <= max_steps
                    && self
                        .supply
                        .consume_batch(self.core.costs.cycles_to_nj(batch.totals.cycles))
                {
                    steps += u64::from(batch.totals.len);
                    if self.exec_batch(&cp, func, cb, index, batch) {
                        return self.complete_run(violations_before);
                    }
                    continue;
                }
            }
            steps += 1;
            if steps > max_steps {
                return RunOutcome::StepLimit;
            }
            if self.compiled_step(&cp) {
                return self.complete_run(violations_before);
            }
            if let Some(region) = self.dev.livelocked {
                return RunOutcome::Livelock { region };
            }
        }
    }

    /// Books a whole batch (possibly spanning unconditional jumps) whose
    /// energy the caller already drew: the same totals the interpreter
    /// accumulates per instruction, applied in one shot. Then runs its
    /// steps flat-out. Returns true when `main` returned.
    fn exec_batch(
        &mut self,
        cp: &CompiledProgram<'p>,
        func: FuncId,
        cb: &CompiledBlock<'p>,
        start: usize,
        batch: &Batch,
    ) -> bool {
        self.dev.stats.breakdown.compute += batch.totals.compute_cycles;
        self.dev.stats.breakdown.output += batch.totals.output_cycles;
        self.dev.stats.on_cycles += batch.totals.cycles;
        self.dev.now_us += batch.totals.us;
        self.dev.stats.on_time_us += batch.totals.us;
        for step in &cb.steps[start..start + batch.head as usize] {
            self.dev.tau += 1;
            self.dev.stats.instructions += 1;
            if self.exec_action(step) {
                return true;
            }
        }
        // Continuation segments: the jump that ended the previous
        // segment repositioned the frame at the segment's offset 0.
        for (blk, len) in &batch.cont {
            let cb2 = &cp.funcs[func.0 as usize].blocks[blk.0 as usize];
            debug_assert_eq!(
                self.dev.vol.top().map(|t| (t.func, t.block, t.index)),
                Some((func, *blk, 0)),
                "the followed jump landed where the batch plan expected"
            );
            for step in &cb2.steps[..*len as usize] {
                self.dev.tau += 1;
                self.dev.stats.instructions += 1;
                if self.exec_action(step) {
                    return true;
                }
            }
        }
        false
    }

    /// One checked attempt, mirroring the interpreter's `step` stage
    /// for stage. Returns true when the program run completed.
    fn compiled_step(&mut self, cp: &CompiledProgram<'p>) -> bool {
        let Some(top) = self.dev.vol.top() else {
            return true;
        };
        let cb = &cp.funcs[top.func.0 as usize].blocks[top.block.0 as usize];
        let step = &cb.steps[top.index];
        let here = step.iref;

        // 1. Pathological injection (pre-bound site flag).
        if step.inject && !self.injector_fired.contains(&here) {
            self.injector_fired.insert(here);
            self.power_fail();
            return false;
        }

        // 2. Pay for the operation; exhaustion fails before it takes
        //    effect.
        let low = match step.cost {
            Cost::Static { cycles, us } => {
                self.book_breakdown(step, cycles);
                self.dev.stats.on_cycles += cycles;
                self.dev.now_us += us;
                self.dev.stats.on_time_us += us;
                self.supply.consume(self.core.costs.cycles_to_nj(cycles))
            }
            Cost::Dynamic => {
                let cycles = self.dynamic_cost(&step.action);
                self.book_breakdown(step, cycles);
                self.charge(cycles)
            }
        };
        if low == PowerEvent::LowPower {
            self.power_fail();
            return false;
        }

        // 3. Detector / expiry checks, only at pre-bound sites. Probes
        //    the optimizer proved redundant (see
        //    `MachineCore::elidable_sites`) are skipped when this run's
        //    supply cannot clear bits mid-run; the fresh-use trace
        //    observations are still recorded identically.
        if step.checked {
            if step.elidable && self.elide_checks {
                ocelot_telemetry::metrics::CHECKS_ELIDED.incr();
                self.log_fresh_uses(here);
            } else if self.run_checks(here) {
                self.mitigation_restart();
                return false;
            }
        }

        // 4. Execute.
        self.dev.tau += 1;
        self.dev.stats.instructions += 1;
        self.exec_action(step)
    }

    fn book_breakdown(&mut self, step: &Step<'p>, cycles: u64) {
        match step.cat {
            compile::Cat::Compute => self.dev.stats.breakdown.compute += cycles,
            compile::Cat::Input => self.dev.stats.breakdown.input += cycles,
            compile::Cat::Output => self.dev.stats.breakdown.output += cycles,
            compile::Cat::Checkpoint => self.dev.stats.breakdown.checkpoint += cycles,
        }
    }

    /// State-dependent costs — charged through the same shared helpers
    /// the interpreter's `op_cost` uses.
    fn dynamic_cost(&self, action: &Action<'p>) -> u64 {
        match action {
            Action::AtomStart { region } => self.atom_start_cost(*region),
            Action::AssignDeref { var, .. } => self.deref_write_cost(var),
            Action::AssignDyn { place, .. } => self.assign_place_cost(place),
            _ => unreachable!("only state-dependent actions carry Cost::Dynamic"),
        }
    }

    /// Executes one pre-resolved step. Returns true when `main`
    /// returned.
    fn exec_action(&mut self, step: &Step<'p>) -> bool {
        let here = step.iref;
        match &step.action {
            Action::Skip => {
                self.advance();
            }
            Action::Bind { dst, src } => {
                let v = self.ceval(src);
                let top = self.dev.vol.top_mut().expect("frame exists");
                match dst {
                    LocalDst::Slot(s) => top.set_slot(*s, v),
                    LocalDst::Spill(name) => top.set_extra(name, v),
                }
                self.advance();
            }
            Action::AssignLocal {
                slot,
                var,
                bind,
                src,
            } => {
                let v = self.ceval(src);
                let top = self.dev.vol.top_mut().expect("frame exists");
                if *bind || top.get_slot(*slot).is_some() {
                    // A reclassified always-bound local binds its slot
                    // on first store (dead-on-reboot by SSA liveness).
                    top.set_slot(*slot, v);
                } else if let Some(t) = top.refs.get(*var).cloned() {
                    // Unreachable in validated programs (classification
                    // excludes by-ref params), kept for exactness.
                    self.write_target(&t, v);
                } else {
                    self.nv_write_scalar(var, v);
                }
                self.advance();
            }
            Action::AssignGlobal { slot, src } => {
                let v = self.ceval(src);
                self.nv_write_scalar_slot(*slot, v);
                self.advance();
            }
            Action::AssignIndex {
                name,
                slot,
                idx,
                src,
            } => {
                let v = self.ceval(src);
                let i = self.ceval(idx);
                match slot {
                    Some(s) => {
                        let (cell, old) = self.dev.nv.write_idx_slot(*s, i.value, v);
                        let arc = Arc::clone(self.dev.nv.array_name(*s));
                        self.log_cell_undo(arc, cell, old);
                    }
                    None => {
                        let (cell, old) = self.dev.nv.write_idx(name, i.value, v);
                        self.log_cell_undo(Arc::from(*name), cell, old);
                    }
                }
                self.advance();
            }
            Action::AssignDeref { var, src } => {
                let v = self.ceval(src);
                let t = self
                    .ref_target(var)
                    .unwrap_or_else(|| RefTarget::Global(self.global_name(var)));
                self.write_target(&t, v);
                self.advance();
            }
            Action::AssignDyn { place, src } => {
                let v = self.ceval(src);
                self.write_place(place, v);
                self.advance();
            }
            Action::Input {
                dst,
                sensor,
                sensor_name,
                chan,
                chain,
            } => {
                let (slot, var) = match dst {
                    LocalDst::Slot(s) => (Some(*s), ""),
                    LocalDst::Spill(name) => (None, *name),
                };
                match chain {
                    // Fixed call stack: everything pre-resolved.
                    Some(id) => self.input_core(
                        here,
                        slot,
                        var,
                        sensor,
                        Arc::clone(sensor_name),
                        *chan,
                        Some(*id),
                        None,
                    ),
                    // Data-dependent call path: rebuild and probe.
                    None => {
                        let chain = self.dynamic_chain(here);
                        let id = self.core.chains.lookup(&chain);
                        self.input_core(
                            here,
                            slot,
                            var,
                            sensor,
                            Arc::clone(sensor_name),
                            *chan,
                            id,
                            Some(chain),
                        );
                    }
                }
            }
            Action::Call { plan } => {
                let caller_idx = self.dev.vol.frames.len() - 1;
                let mut frame = self.take_frame(
                    plan.callee,
                    plan.entry,
                    plan.nslots as usize,
                    plan.ret_dst.clone(),
                    here,
                );
                for bind in &plan.binds {
                    match bind {
                        ArgBind::Value { slot, src } => {
                            let v = self.ceval(src);
                            frame.set_slot(*slot, v);
                        }
                        ArgBind::ValueSpill { name, src } => {
                            let v = self.ceval(src);
                            frame.set_extra(name, v);
                        }
                        ArgBind::Ref { param, plan } => {
                            let target = self.resolve_ref_plan(caller_idx, plan);
                            frame.refs.insert(Arc::clone(param), target);
                        }
                    }
                }
                // Resume point: after the call.
                self.advance();
                self.dev.vol.frames.push(frame);
            }
            Action::Output { channel, args } => {
                let vals: Vec<Tainted> = args.iter().map(|e| self.ceval(e)).collect();
                let deps = vals
                    .iter()
                    .fold(crate::memory::Deps::new(), |d, v| d.union(&v.deps));
                self.dev.obs.push(Obs::Output {
                    at: here,
                    tau: self.dev.tau,
                    era: self.dev.era,
                    channel: Arc::clone(channel),
                    values: vals.iter().map(|v| v.value).collect(),
                    deps,
                });
                self.dev.stats.outputs += 1;
                self.advance();
            }
            Action::AtomStart { region } => {
                // Advance first: rollback resumes after the marker.
                self.advance();
                self.atom_start(*region);
            }
            Action::AtomEnd { region } => {
                self.atom_end(*region);
                self.advance();
            }
            Action::Jump(b) => {
                let top = self.dev.vol.top_mut().expect("frame exists");
                top.block = *b;
                top.index = 0;
            }
            Action::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let v = self.ceval(cond);
                let top = self.dev.vol.top_mut().expect("frame exists");
                top.block = if v.value != 0 { *then_bb } else { *else_bb };
                top.index = 0;
            }
            Action::Ret(e) => {
                let v = e
                    .as_ref()
                    .map(|e| self.ceval(e))
                    .unwrap_or_else(|| Tainted::pure(0));
                let done = self.dev.vol.frames.pop().expect("frame exists");
                let ret_dst = done.ret_dst.clone();
                self.recycle_frame(done);
                match self.dev.vol.top_mut() {
                    Some(caller) => match ret_dst {
                        Some(RetSlot::Slot(s)) => caller.set_slot(s, v),
                        Some(RetSlot::Spill(name)) => caller.set_extra(&name, v),
                        None => {}
                    },
                    None => return true, // main returned
                }
            }
        }
        false
    }

    /// Resolves a pre-classified by-ref argument against the live
    /// caller frame, mirroring the interpreter's `resolve_ref` order
    /// exactly (incoming references first, then bound locals and
    /// spilled bindings, then the global) — the frame-dependent parts
    /// are the only dynamic work left.
    fn resolve_ref_plan(&self, caller_idx: usize, plan: &RefArgPlan<'p>) -> RefTarget {
        match plan {
            RefArgPlan::Forward(x) => self.resolve_ref(caller_idx, x),
            RefArgPlan::LocalOrGlobal { slot, global } => {
                let caller = &self.dev.vol.frames[caller_idx];
                if let Some(t) = caller.refs.get(&**global) {
                    // Possible only in hand-built IR (a value-parameter
                    // name seated in the reference map).
                    return t.clone();
                }
                if caller.get_slot(*slot).is_some() {
                    RefTarget::Local {
                        frame: caller_idx,
                        slot: *slot,
                    }
                } else {
                    RefTarget::Global(Arc::clone(global))
                }
            }
            RefArgPlan::Global(g) => {
                let caller = &self.dev.vol.frames[caller_idx];
                if let Some(t) = caller.refs.get(&**g) {
                    return t.clone();
                }
                if caller.get_extra(g).is_some() {
                    // A spilled (out-of-layout) caller binding:
                    // hand-built IR only.
                    return RefTarget::Extra {
                        frame: caller_idx,
                        name: Arc::clone(g),
                    };
                }
                RefTarget::Global(Arc::clone(g))
            }
        }
    }

    /// Evaluates a pre-classified expression; equivalent to the
    /// interpreter's `eval` over the original [`ocelot_ir::ast::Expr`].
    fn ceval(&self, e: &CExpr<'p>) -> Tainted {
        match e {
            CExpr::Const(n) => Tainted::pure(*n),
            CExpr::Local { slot, name } => {
                match self.dev.vol.top().and_then(|t| t.get_slot(*slot)) {
                    Some(v) => v.clone(),
                    // Declared but unbound: the interpreter's full
                    // lookup order (ends at the named global).
                    None => self.read_var(name),
                }
            }
            CExpr::RefParam(x) => match self.ref_target(x) {
                Some(t) => self.read_target(&t),
                None => self.read_var(x),
            },
            CExpr::Global(slot) => self.dev.nv.read_slot(*slot),
            CExpr::DynVar(x) => self.read_var(x),
            CExpr::Deref(x) => match self.ref_target(x) {
                Some(t) => self.read_target(&t),
                None => self.dev.nv.read(x),
            },
            CExpr::Index { name, slot, idx } => {
                let i = self.ceval(idx);
                let mut v = match slot {
                    Some(s) => self.dev.nv.read_idx_slot(*s, i.value),
                    None => self.dev.nv.read_idx(name, i.value),
                };
                v.deps = v.deps.union(&i.deps);
                v
            }
            CExpr::Binary(op, l, r) => {
                let a = self.ceval(l);
                let b = self.ceval(r);
                Tainted::combine(eval_binop(*op, a.value, b.value), &a, &b)
            }
            CExpr::Unary(op, x) => {
                let a = self.ceval(x);
                let value = match op {
                    UnOp::Neg => a.value.wrapping_neg(),
                    UnOp::Not => (a.value == 0) as i64,
                };
                Tainted {
                    value,
                    deps: a.deps,
                }
            }
            CExpr::RefArg => Tainted::pure(0),
            CExpr::Value { ops, depth } => Tainted::pure(self.eval_value(ops, *depth as usize)),
        }
    }

    /// Evaluates a [`CExpr::Value`]'s postfix operations by value only,
    /// computing the same `i64` as [`Machine::ceval`] on the subtree
    /// without touching dependency sets (the O2 flow analysis justified
    /// dropping them).
    fn eval_value(&self, ops: &[VOp<'p>], depth: usize) -> i64 {
        let mut fixed = [0i64; VALUE_STACK];
        let mut spilled = Vec::new();
        let stack: &mut [i64] = if depth <= VALUE_STACK {
            &mut fixed
        } else {
            spilled.resize(depth, 0);
            &mut spilled
        };
        let mut sp = 0;
        for op in ops {
            // Each operation pops its operands, then pushes its result.
            let v = match *op {
                VOp::Const(n) => n,
                VOp::Local { slot, name } => {
                    match self.dev.vol.top().and_then(|t| t.get_slot(slot)) {
                        Some(v) => v.value,
                        None => self.read_var(name).value,
                    }
                }
                VOp::RefParam(x) => match self.ref_target(x) {
                    Some(t) => self.read_target(&t).value,
                    None => self.read_var(x).value,
                },
                VOp::Global(slot) => self.dev.nv.read_slot_value(slot),
                VOp::DynVar(x) => self.read_var(x).value,
                VOp::Deref(x) => match self.ref_target(x) {
                    Some(t) => self.read_target(&t).value,
                    None => self.dev.nv.read(x).value,
                },
                VOp::Index { name, slot } => {
                    sp -= 1;
                    match slot {
                        Some(s) => self.dev.nv.read_idx_slot_value(s, stack[sp]),
                        None => self.dev.nv.read_idx_value(name, stack[sp]),
                    }
                }
                VOp::Binary(op) => {
                    sp -= 2;
                    eval_binop(op, stack[sp], stack[sp + 1])
                }
                VOp::Unary(op) => {
                    sp -= 1;
                    match op {
                        UnOp::Neg => stack[sp].wrapping_neg(),
                        UnOp::Not => (stack[sp] == 0) as i64,
                    }
                }
            };
            stack[sp] = v;
            sp += 1;
        }
        stack[0]
    }
}
