//! `matrix`: the 27 suite workloads × the paper's 8 configurations at
//! Quick scale, one cell after another through
//! `SimBuilder::run_workload` with default settings (elision and cycle
//! accounting on, profiling off). The detailed core does nearly all the
//! work. The suite is fixed; the seed does not change it.

use crate::layers::{self, LayerProbe};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::{probe, Check, Workload};
use dgl_isa::{Emulator, Reg, SparseMemory};
use dgl_pipeline::core_prof_registry;
use dgl_sim::{ConfigId, SimBuilder};
use dgl_stats::{ProfRegistry, SpanCollector};
use dgl_workloads::{catalog, Scale, Workload as Suite};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the benchmark keeps of one cell's `RunReport`.
struct Cell {
    error: Option<String>,
    committed: u64,
    regs: Vec<i64>,
    memory: u64,
    cycles: u64,
    cpi_sum: Option<u64>,
    elided: u64,
    ipc: f64,
    accesses: u64,
    host: Duration,
    allocs: u64,
}

pub struct Matrix {
    suite: Vec<Suite>,
    build_s: f64,
    rounds: Vec<Vec<Cell>>,
    traced: Vec<Vec<Cell>>,
    prof: Arc<ProfRegistry>,
    spans: SpanCollector,
}

/// FNV-1a over the image's canonical word dump (pages sorted), so two
/// images digest equal exactly when they are equal.
fn digest(memory: &SparseMemory) -> u64 {
    let mut words = Vec::new();
    memory.dump_state(&mut words);
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x1_0000_01b3)
    })
}

fn run_cell(w: &Suite, cfg: ConfigId, b: &mut SimBuilder) -> Cell {
    b.scheme(cfg.scheme()).address_prediction(cfg.ap());
    let allocs = probe::allocs();
    let t = Instant::now();
    let result = b.run_workload(w);
    let host = t.elapsed();
    let allocs = probe::allocs() - allocs;
    match result {
        Ok(r) => Cell {
            error: None,
            committed: r.committed,
            regs: r.regs.to_vec(),
            memory: digest(&r.memory),
            cycles: r.cycles,
            cpi_sum: r.cpi.as_ref().map(|c| c.sum()),
            elided: r.elided_cycles,
            ipc: r.ipc(),
            accesses: r.caches.0.accesses + r.caches.1.accesses + r.caches.2.accesses,
            host,
            allocs,
        },
        Err(e) => Cell {
            error: Some(e.to_string()),
            committed: 0,
            regs: Vec::new(),
            memory: 0,
            cycles: 0,
            cpi_sum: None,
            elided: 0,
            ipc: 0.0,
            accesses: 0,
            host,
            allocs,
        },
    }
}

impl Matrix {
    pub fn setup(_seed: u64) -> Self {
        let t = Instant::now();
        let suite: Vec<Suite> = catalog().iter().map(|s| s.build(Scale::Quick)).collect();
        let build_s = t.elapsed().as_secs_f64();
        // Untimed warm-up operation: one cell.
        run_cell(&suite[0], ConfigId::Baseline, &mut SimBuilder::new());
        Self {
            suite,
            build_s,
            rounds: Vec::new(),
            traced: Vec::new(),
            prof: Arc::new(core_prof_registry()),
            spans: SpanCollector::new(),
        }
    }

    fn cells(&self) -> impl Iterator<Item = (usize, &Suite, ConfigId)> {
        self.suite
            .iter()
            .flat_map(|w| ConfigId::ALL.into_iter().map(move |c| (w, c)))
            .enumerate()
            .map(|(i, (w, c))| (i, w, c))
    }
}

/// Metric-name form of a configuration label (`nda-p+ap` → `nda-p-ap`).
fn config_name(cfg: ConfigId) -> String {
    cfg.label().replace('+', "-")
}

impl Workload for Matrix {
    fn ops(&self) -> u64 {
        (self.suite.len() * ConfigId::ALL.len()) as u64
    }

    fn insts(&self) -> u64 {
        self.rounds
            .first()
            .map_or(0, |r| r.iter().map(|c| c.committed).sum())
    }

    fn round(&mut self, tracer: Option<&mut Tracer>) {
        let mut out = Vec::with_capacity(self.ops() as usize);
        match tracer {
            None => {
                for (_, w, cfg) in self.cells() {
                    out.push(run_cell(w, cfg, &mut SimBuilder::new()));
                }
                self.rounds.push(out);
            }
            Some(t) => {
                for (op, w, cfg) in self.cells() {
                    let mut b = SimBuilder::new();
                    b.profiling(Arc::clone(&self.prof))
                        .with_spans(self.spans.clone(), 0);
                    let cell = t.span("matrix.cell", op as u64, |t| {
                        t.span("sim.run_workload", op as u64, |_| run_cell(w, cfg, &mut b))
                    });
                    out.push(cell);
                }
                self.traced.push(out);
            }
        }
    }

    fn check(&mut self) -> Check {
        let mut check = Check::default();
        let mut golden = Vec::new();
        for w in &self.suite {
            let mut emu = Emulator::new(&w.program, w.memory.clone());
            let budget = layers::step_budget(w.max_cycles);
            let mut fault = None;
            while emu.retired() < budget {
                match emu.step() {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        fault = Some(e.to_string());
                        break;
                    }
                }
            }
            let regs: Vec<i64> = Reg::all().map(|r| emu.reg(r)).collect();
            golden.push((
                fault,
                emu.halted(),
                emu.retired(),
                regs,
                digest(emu.memory()),
            ));
        }
        for round in self.rounds.iter().chain(&self.traced) {
            for ((i, w, cfg), cell) in self.cells().zip(round) {
                let (fault, halted, retired, regs, memory) = &golden[i / ConfigId::ALL.len()];
                let label = format!("{} {}", w.name, cfg.label());
                let problem = if let Some(e) = &cell.error {
                    Some(format!("{label}: run failed: {e}"))
                } else if let Some(e) = fault {
                    Some(format!("{label}: golden emulator faulted: {e}"))
                } else if !halted {
                    Some(format!("{label}: golden emulator did not halt"))
                } else if cell.committed != *retired {
                    Some(format!(
                        "{label}: committed {} vs golden {retired}",
                        cell.committed
                    ))
                } else if &cell.regs != regs {
                    Some(format!("{label}: final registers differ from golden"))
                } else if cell.memory != *memory {
                    Some(format!("{label}: final memory differs from golden"))
                } else if cell.cpi_sum != Some(cell.cycles) {
                    Some(format!(
                        "{label}: CPI stack sums to {:?}, cell ran {} cycles",
                        cell.cpi_sum, cell.cycles
                    ))
                } else {
                    None
                };
                if let Some(p) = problem {
                    check.failed += 1;
                    check.problems.push(p);
                }
            }
        }
        // The paper's result, on the first round: every secure scheme
        // slows the baseline down, and doppelgangers win some of it back.
        let first = &self.rounds[0];
        let gmean = |cfg: ConfigId| {
            let idx = ConfigId::ALL
                .iter()
                .position(|&c| c == cfg)
                .expect("known config");
            let n = ConfigId::ALL.len();
            let logs: Vec<f64> = first
                .chunks(n)
                .map(|row| (row[idx].ipc / row[0].ipc).ln())
                .collect();
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        };
        for (plain, ap) in [
            (ConfigId::Nda, ConfigId::NdaAp),
            (ConfigId::Stt, ConfigId::SttAp),
            (ConfigId::Dom, ConfigId::DomAp),
        ] {
            let (g, g_ap) = (gmean(plain), gmean(ap));
            println!(
                "perfbench matrix: geomean normalized IPC {} {g:.4} {} {g_ap:.4}",
                plain.label(),
                ap.label()
            );
            if !(g < 1.0 && g_ap > g) {
                check.problems.push(format!(
                    "geomean normalized IPC {} = {g:.4}, {} = {g_ap:.4}: \
                     expected below 1.0 and rising with doppelgangers",
                    plain.label(),
                    ap.label()
                ));
            }
        }
        check
    }

    fn layers(&mut self, _tracer: &Tracer, m: &mut Metrics) -> f64 {
        let n = ConfigId::ALL.len();
        let first = &self.rounds[0];
        for (idx, cfg) in ConfigId::ALL.into_iter().enumerate() {
            let (mut ns, mut cycles) = (0u128, 0u64);
            for round in &self.rounds {
                for cell in round.iter().skip(idx).step_by(n) {
                    ns += cell.host.as_nanos();
                    cycles += cell.cycles;
                }
            }
            m.set(
                format!("pipeline.{}.ns_per_cycle", config_name(cfg)),
                ns as f64 / cycles.max(1) as f64,
                "ns",
            );
        }
        let cycles: u64 = first.iter().map(|c| c.cycles).sum();
        let elided: u64 = first.iter().map(|c| c.elided).sum();
        m.set("pipeline.ticked_cycles", (cycles - elided) as f64, "count");
        m.set("pipeline.elided_cycles", elided as f64, "count");
        let allocs: u64 = first.iter().map(|c| c.allocs).sum();
        m.set(
            "pipeline.allocs_per_run",
            allocs as f64 / first.len() as f64,
            "count",
        );
        m.set("pipeline.core_build_us", layers::core_build_us(4), "us");
        m.set("workloads.build_s", self.build_s, "s");

        // Host profile of the instrumented rounds, per round.
        let rounds = self.traced.len().max(1) as f64;
        let prof = self.prof.snapshot();
        let mut covered = 0.0;
        let mut hierarchy_s = 0.0;
        for e in &prof.entries {
            let s = e.ns as f64 * 1e-9 / rounds;
            if e.nested {
                if e.name == "mem.hierarchy" {
                    hierarchy_s = s;
                    m.set("mem.hierarchy.self_s", s, "s");
                } else {
                    m.set(format!("pipeline.{}.self_s", e.name), s, "s");
                }
            } else {
                covered += s;
                m.set(format!("pipeline.{}.self_s", e.name), s, "s");
            }
        }
        let accesses: u64 = self.traced.iter().flatten().map(|c| c.accesses).sum();
        m.set(
            "mem.ns_per_access",
            hierarchy_s * rounds * 1e9 / accesses.max(1) as f64,
            "ns",
        );
        let simulate: u64 = self
            .spans
            .finish()
            .iter()
            .filter(|s| s.name == "simulate")
            .map(|s| s.dur_us)
            .sum();
        m.set("sim.simulate_s", simulate as f64 * 1e-6 / rounds, "s");
        let mut probe = LayerProbe::default();
        for w in &self.suite {
            probe.program(&w.program, &w.memory, layers::step_budget(w.max_cycles));
        }
        probe.publish(m);
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_names_are_metric_safe() {
        let names: Vec<String> = ConfigId::ALL.into_iter().map(config_name).collect();
        assert_eq!(
            names,
            [
                "baseline",
                "baseline-ap",
                "nda-p",
                "nda-p-ap",
                "stt",
                "stt-ap",
                "dom",
                "dom-ap"
            ]
        );
    }

    #[test]
    fn digest_tells_images_apart() {
        let mut a = SparseMemory::new();
        a.write_u64(0x1000, 1);
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b.write_u64(0x9000, 0);
        assert_ne!(digest(&a), digest(&b), "a mapped zero page is a difference");
    }
}
