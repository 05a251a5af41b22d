//! `fuzz`: the library `fuzz()` with one worker, the benchmark's seed
//! and no corpus directory. Hundreds of short generated programs each
//! build cores for the 8 configurations and run the golden emulator and
//! traced two-secret runs, so set-up cost dominates instead of
//! steady-state ticking.
//!
//! The instrumented round makes the same calls `fuzz()` makes per case
//! (`generate`, `check_cosim`, `check_two_secret` on gadget programs)
//! from the benchmark, so each one can be timed.

use crate::layers::{self, LayerProbe};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::{probe, Check, Workload};
use dgl_fuzz::{
    check_cosim, check_two_secret, fuzz, fuzz_memory, generate, FuzzOptions, FuzzSummary,
    MAX_CYCLES, SECRET_A,
};
use dgl_sim::ConfigId;

/// Cases per round.
const CASES: u64 = 600;
/// Base seed of the set-up's warm-up case.
const WARM_UP_SEED: u64 = 1;

/// `fuzz()`'s per-case seed derivation.
fn case_seed(seed: u64, case: u64) -> u64 {
    seed ^ (case.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What the instrumented round saw.
#[derive(Default)]
struct Traced {
    gadget_cases: u64,
    baseline_distinguished: u64,
    divergences: Vec<String>,
    oracle_allocs: u64,
    core_runs: u64,
}

pub struct Fuzz {
    seed: u64,
    summaries: Vec<FuzzSummary>,
    traced: Vec<Traced>,
}

fn options(seed: u64, iters: u64) -> FuzzOptions {
    FuzzOptions {
        seed,
        iters,
        workers: 1,
        corpus_dir: None,
        progress_every: 0,
    }
}

impl Fuzz {
    pub fn setup(seed: u64) -> Self {
        // Untimed warm-up operation: one case, the same whatever the seed.
        fuzz(&options(WARM_UP_SEED, 1));
        Self {
            seed,
            summaries: Vec::new(),
            traced: Vec::new(),
        }
    }
}

impl Workload for Fuzz {
    fn ops(&self) -> u64 {
        CASES
    }

    fn insts(&self) -> u64 {
        // fuzz() reports no instruction counts.
        0
    }

    fn round(&mut self, tracer: Option<&mut Tracer>) {
        let Some(t) = tracer else {
            self.summaries.push(fuzz(&options(self.seed, CASES)));
            return;
        };
        let mut out = Traced::default();
        for case in 0..CASES {
            t.span("fuzz.case", case, |t| {
                let g = t.span("fuzz.generate", case, |_| {
                    generate(case_seed(self.seed, case))
                });
                let allocs = probe::allocs();
                let cosim = t.span("fuzz.check_cosim", case, |_| check_cosim(&g.program));
                out.oracle_allocs += probe::allocs() - allocs;
                out.core_runs += ConfigId::ALL.len() as u64;
                if let Some(d) = cosim {
                    out.divergences.push(format!("case {case}: {d}"));
                }
                if g.has_gadget {
                    out.gadget_cases += 1;
                    let allocs = probe::allocs();
                    let ts = t.span("fuzz.check_two_secret", case, |_| {
                        check_two_secret(&g.program)
                    });
                    out.oracle_allocs += probe::allocs() - allocs;
                    out.core_runs += 2 * ConfigId::ALL.len() as u64;
                    match ts {
                        Ok(ts) => {
                            out.baseline_distinguished += ts.baseline_distinguished as u64;
                            out.divergences
                                .extend(ts.violations.iter().map(|v| format!("case {case}: {v}")));
                        }
                        Err(e) => out.divergences.push(format!("case {case}: {e}")),
                    }
                }
            });
        }
        self.traced.push(out);
    }

    fn check(&mut self) -> Check {
        let mut check = Check::default();
        for s in &self.summaries {
            let mut cases: Vec<u64> = s.bugs.iter().map(|b| b.case).collect();
            cases.dedup();
            check.failed += cases.len() as u64;
            for b in &s.bugs {
                check
                    .problems
                    .push(format!("case {}: {}", b.case, b.detail));
            }
            if s.cases != CASES {
                check
                    .problems
                    .push(format!("fuzz ran {} of {CASES} cases", s.cases));
            }
            if s.baseline_distinguished != s.gadget_cases {
                check.failed += s.gadget_cases.saturating_sub(s.baseline_distinguished);
                check.problems.push(format!(
                    "the unsafe baseline distinguished {} of {} gadget cases",
                    s.baseline_distinguished, s.gadget_cases
                ));
            }
        }
        let first = &self.summaries[0];
        for t in &self.traced {
            check.failed += t.divergences.len() as u64;
            for d in &t.divergences {
                check.problems.push(d.clone());
            }
            if (t.gadget_cases, t.baseline_distinguished)
                != (first.gadget_cases, first.baseline_distinguished)
            {
                check.problems.push(format!(
                    "instrumented round saw {}/{} gadget cases distinguished, fuzz() {}/{}",
                    t.baseline_distinguished,
                    t.gadget_cases,
                    first.baseline_distinguished,
                    first.gadget_cases
                ));
            }
        }
        check
    }

    fn layers(&mut self, tracer: &Tracer, m: &mut Metrics) -> f64 {
        let first = &self.summaries[0];
        m.set("fuzz.gadget_cases", first.gadget_cases as f64, "count");
        m.set(
            "fuzz.baseline_distinguished",
            first.baseline_distinguished as f64,
            "count",
        );
        let cases = (CASES * self.traced.len().max(1) as u64) as f64;
        let own = tracer.self_s();
        let per_case_ms = |name| own.get(name).copied().unwrap_or(0.0) * 1e3 / cases;
        let (gen, cosim, two) = (
            per_case_ms("fuzz.generate"),
            per_case_ms("fuzz.check_cosim"),
            per_case_ms("fuzz.check_two_secret"),
        );
        m.set("fuzz.gen_ms", gen, "ms");
        m.set("fuzz.cosim_ms", cosim, "ms");
        m.set("fuzz.two_secret_ms", two, "ms");
        if let Some(t) = self.traced.first() {
            m.set(
                "pipeline.allocs_per_run",
                t.oracle_allocs as f64 / t.core_runs.max(1) as f64,
                "count",
            );
        }
        m.set("pipeline.core_build_us", layers::core_build_us(4), "us");

        let mut probe = LayerProbe::default();
        let memory = fuzz_memory(SECRET_A);
        for case in 0..CASES {
            let g = generate(case_seed(self.seed, case));
            probe.program(&g.program, &memory, MAX_CYCLES);
        }
        probe.publish(m);
        (gen + cosim + two) * 1e-3 * CASES as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_match_the_fuzzer() {
        // The instrumented round must walk the programs `fuzz()` walks:
        // its gadget count over a few cases equals fuzz()'s.
        let summary = fuzz(&options(11, 12));
        let gadgets = (0..12)
            .filter(|&c| generate(case_seed(11, c)).has_gadget)
            .count() as u64;
        assert_eq!(summary.gadget_cases, gadgets);
    }
}
