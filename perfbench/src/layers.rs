//! Probes that time single layers from outside: the golden emulator
//! (`isa`), functional warming of the hierarchy (`mem`), branch
//! predictor training (`predictor`), doppelganger address-predictor
//! training (`core`) and core construction (`pipeline`).
//!
//! The warming probes replay a recorded `ArchEvent` stream through the
//! same calls the sampler's functional warmer makes, so they time the
//! work a sampled run does between windows, layer by layer.

use crate::report::Metrics;
use dgl_core::AddressPredictor;
use dgl_isa::{ArchEvent, Emulator, Program, SparseMemory};
use dgl_mem::MemorySystem;
use dgl_pipeline::{Core, CoreConfig};
use dgl_predictor::BranchPredictor;
use dgl_sim::{ConfigId, SimBuilder};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The same step budget `SimBuilder::run_verified` gives the golden
/// model for a run budget of `max_cycles`.
pub fn step_budget(max_cycles: u64) -> u64 {
    max_cycles.saturating_mul(16).max(1_000_000)
}

/// Emulator throughput and replay timings accumulated over programs.
#[derive(Default)]
pub struct LayerProbe {
    emu_insts: u64,
    emu_time: Duration,
    warm_calls: u64,
    warm_time: Duration,
    branches: u64,
    branch_time: Duration,
    ap_loads: u64,
    ap_time: Duration,
}

impl LayerProbe {
    /// Runs `program` on the golden emulator twice: once timed with a
    /// no-op observer, once recording its events, which are then
    /// replayed through the warming calls.
    pub fn program(&mut self, program: &Program, memory: &SparseMemory, budget: u64) {
        let mut emu = Emulator::new(program, memory.clone());
        let t = Instant::now();
        while emu.retired() < budget
            && matches!(
                emu.step_observed(&mut |e| {
                    black_box(e);
                }),
                Ok(true)
            )
        {}
        self.emu_time += t.elapsed();
        self.emu_insts += emu.retired();

        let mut events = Vec::new();
        let mut emu = Emulator::new(program, memory.clone());
        while emu.retired() < budget
            && matches!(emu.step_observed(&mut |e| events.push(e)), Ok(true))
        {}
        self.replay(&events);
    }

    fn replay(&mut self, events: &[ArchEvent]) {
        let cfg = CoreConfig::default();
        let mut mem = MemorySystem::new(cfg.hierarchy);
        let t = Instant::now();
        for e in events {
            match *e {
                ArchEvent::Load { addr, .. } | ArchEvent::Store { addr, .. } => {
                    mem.warm(addr);
                    self.warm_calls += 1;
                }
                ArchEvent::Branch { .. } => {}
            }
        }
        self.warm_time += t.elapsed();
        black_box(&mem);

        let mut bpred = BranchPredictor::new(cfg.branch);
        let t = Instant::now();
        for e in events {
            if let ArchEvent::Branch { pc, taken, next } = *e {
                bpred.train(Core::pc_addr(pc), taken, Some(next));
                self.branches += 1;
            }
        }
        self.branch_time += t.elapsed();
        black_box(&bpred);

        let mut dgl_cfg = cfg.doppelganger;
        dgl_cfg.address_prediction = true;
        let mut ap = AddressPredictor::new(dgl_cfg);
        let t = Instant::now();
        for e in events {
            if let ArchEvent::Load { pc, addr } = *e {
                ap.train_at_commit(Core::pc_addr(pc), addr);
                self.ap_loads += 1;
            }
        }
        self.ap_time += t.elapsed();
        black_box(&ap);
    }

    /// Publishes `isa.emu_mips` and the three replay rates.
    pub fn publish(&self, m: &mut Metrics) {
        m.set(
            "isa.emu_mips",
            rate(self.emu_insts, self.emu_time) / 1e6,
            "MIPS",
        );
        m.set(
            "mem.warm_ns_per_access",
            ns_per(self.warm_time, self.warm_calls),
            "ns",
        );
        m.set(
            "predictor.train_ns_per_branch",
            ns_per(self.branch_time, self.branches),
            "ns",
        );
        m.set(
            "core.ap_train_ns_per_load",
            ns_per(self.ap_time, self.ap_loads),
            "ns",
        );
    }
}

/// Mean microseconds of `SimBuilder::build_core` over the eight
/// configurations, `reps` builds each.
pub fn core_build_us(reps: u32) -> f64 {
    let mut total = Duration::ZERO;
    for cfg in ConfigId::ALL {
        let mut b = SimBuilder::new();
        b.scheme(cfg.scheme()).address_prediction(cfg.ap());
        for _ in 0..reps {
            let t = Instant::now();
            let core = b.build_core();
            total += t.elapsed();
            drop(black_box(core));
        }
    }
    total.as_secs_f64() * 1e6 / (ConfigId::ALL.len() as f64 * reps as f64)
}

/// Events per second (0 when nothing was timed).
fn rate(count: u64, time: Duration) -> f64 {
    if time.is_zero() {
        0.0
    } else {
        count as f64 / time.as_secs_f64()
    }
}

/// Nanoseconds per event (0 when there were no events).
fn ns_per(time: Duration, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        time.as_nanos() as f64 / count as f64
    }
}
