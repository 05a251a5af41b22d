//! `serve_sampled`: one JSON-lines batch of sampled jobs fed in memory
//! to the library serve entry point with one worker and `dgl serve`'s
//! other defaults (64-entry checkpoint store, flight recorder on, no
//! manifest directory). Two suite workloads of different memory
//! behaviour × the paper's 8 configurations, 800k instructions each:
//! about 76 windows per job, more than the store holds. Functional
//! fast-forward and warming, window snapshots, the checkpoint store and
//! manifest building do most of the work.
//!
//! The seed sets the order of the batch and which jobs the rerun check
//! picks.

use crate::layers::{self, LayerProbe};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::{out_dir, Check, Workload};
use dgl_sim::serve::{serve_lines, JobSpec, ServeOptions, SERVE_JOB_SCHEMA, SERVE_VERSION};
use dgl_sim::{CheckpointStore, ConfigId, SimBuilder, StoreCounters};
use dgl_stats::span::spans_from_json;
use dgl_stats::Json;
use dgl_workloads::{by_name, Scale};
use std::time::Instant;

/// An L3-resident indirect stream and a DRAM-bound pointer chase.
const WORKLOADS: [&str; 2] = ["gcc_like", "mcf_like"];
/// Instructions per job: about 76 sampling windows at the default
/// 10k-instruction interval, more than the store's 64 entries.
const INSTS: u64 = 800_000;
/// `dgl serve`'s default store capacity.
const STORE_CAPACITY: usize = 64;
/// The job served in set-up: the batch's cheapest.
const WARM_UP: &str = "gcc_like.baseline";
/// Jobs rerun alone on a fresh store after the timed phase.
const RERUNS: usize = 2;
/// Largest relative difference allowed between a job's sampled IPC and
/// a full detailed run of the same job.
const IPC_TOLERANCE: f64 = 0.05;
/// The configuration whose sampled IPC is compared with a full run,
/// per workload.
const FULL_RUN_CHECK: [(&str, ConfigId); 2] = [
    ("gcc_like", ConfigId::Baseline),
    ("mcf_like", ConfigId::DomAp),
];

/// One round's outputs.
struct Round {
    lines: String,
    counters: StoreCounters,
    /// Serve's own per-job spans (instrumented rounds only):
    /// (name, microseconds).
    spans: Vec<(String, u64)>,
}

pub struct ServeSampled {
    seed: u64,
    jobs: Vec<JobSpec>,
    batch: String,
    rounds: Vec<Round>,
    traced: Vec<Round>,
}

/// SplitMix64: the benchmark's own seeded generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The batch in seeded order.
fn jobs(seed: u64) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = WORKLOADS
        .iter()
        .flat_map(|w| ConfigId::ALL.into_iter().map(move |c| (w, c)))
        .map(|(w, c)| {
            let doc = Json::object()
                .field("schema", Json::str(SERVE_JOB_SCHEMA))
                .field("version", Json::uint(SERVE_VERSION))
                .field(
                    "id",
                    Json::str(format!("{w}.{}", c.label().replace('+', "-"))),
                )
                .field("workload", Json::str(*w))
                .field("insts", Json::uint(INSTS))
                .field("scheme", Json::str(c.scheme().name()))
                .field("ap", Json::Bool(c.ap()))
                .field("sample", Json::object());
            JobSpec::parse(&doc, 0).expect("the benchmark's job lines parse")
        })
        .collect();
    let mut state = seed;
    for i in (1..jobs.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    jobs
}

fn serve(batch: &str, opts: &ServeOptions) -> (String, StoreCounters) {
    let store = CheckpointStore::new(STORE_CAPACITY);
    let mut out = Vec::new();
    serve_lines(batch.as_bytes(), &mut out, &store, opts).expect("in-memory input cannot fail");
    (
        String::from_utf8(out).expect("serve writes UTF-8"),
        store.counters(),
    )
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    }
}

/// The manifest text inside a result line: `manifest` is the result
/// document's last field, so its bytes run to the closing brace.
fn manifest_text(line: &str) -> Option<&str> {
    let at = line.find("\"manifest\":")?;
    line.get(at + "\"manifest\":".len()..line.len().checked_sub(1)?)
}

impl ServeSampled {
    pub fn setup(seed: u64) -> Self {
        let jobs = jobs(seed);
        let batch: String = jobs.iter().map(|j| format!("{}\n", j.to_json())).collect();
        // Untimed warm-up operation: one job served alone, the same job
        // whatever the seed.
        let warm = jobs
            .iter()
            .find(|j| j.id == WARM_UP)
            .expect("warm-up job in batch");
        serve(&format!("{}\n", warm.to_json()), &options());
        Self {
            seed,
            jobs,
            batch,
            rounds: Vec::new(),
            traced: Vec::new(),
        }
    }

    fn manifests<'a>(&self, round: &'a Round) -> Vec<(String, Option<&'a str>)> {
        round
            .lines
            .lines()
            .map(|line| {
                let doc = Json::parse(line).ok();
                let id = doc
                    .as_ref()
                    .and_then(|d| d.get("id").and_then(Json::as_str).map(str::to_owned))
                    .unwrap_or_default();
                let ok = doc.as_ref().and_then(|d| d.get("ok")) == Some(&Json::Bool(true));
                (id, if ok { manifest_text(line) } else { None })
            })
            .collect()
    }
}

impl Workload for ServeSampled {
    fn ops(&self) -> u64 {
        self.jobs.len() as u64
    }

    fn insts(&self) -> u64 {
        // Instructions simulated in detail (measured windows).
        self.rounds.first().map_or(0, |r| {
            self.manifests(r)
                .iter()
                .filter_map(|(_, m)| Json::parse((*m)?).ok())
                .filter_map(|m| m.get("measured_insts").and_then(Json::as_u64))
                .sum()
        })
    }

    fn round(&mut self, tracer: Option<&mut Tracer>) {
        match tracer {
            None => {
                let (lines, counters) = serve(&self.batch, &options());
                self.rounds.push(Round {
                    lines,
                    counters,
                    spans: Vec::new(),
                });
            }
            Some(t) => {
                // Serve's job spans leave the process only as sidecar
                // files next to written manifests.
                let dir = out_dir().join(format!("serve-{}", std::process::id()));
                let opts = ServeOptions {
                    manifest_dir: Some(dir.clone()),
                    spans: true,
                    ..options()
                };
                let op = self.traced.len() as u64;
                let (lines, counters) = t.span("serve.batch", op, |t| {
                    t.span("serve.serve_lines", op, |_| serve(&self.batch, &opts))
                });
                let mut spans = Vec::new();
                for job in &self.jobs {
                    let path = dir.join(format!("{}.spans.json", job.id));
                    let doc = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| Json::parse(&text).ok());
                    if let Some(records) = doc.and_then(|d| spans_from_json(&d).ok()) {
                        spans.extend(records.into_iter().map(|s| (s.name, s.dur_us)));
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
                self.traced.push(Round {
                    lines,
                    counters,
                    spans,
                });
            }
        }
    }

    fn check(&mut self) -> Check {
        let mut check = Check::default();
        let reference = self.manifests(&self.rounds[0]);
        for round in self.rounds.iter().chain(&self.traced) {
            let got = self.manifests(round);
            for job in &self.jobs {
                let mine = got.iter().find(|(id, _)| *id == job.id);
                let first = reference.iter().find(|(id, _)| *id == job.id);
                let problem = match (mine, first) {
                    (Some((_, Some(m))), Some((_, Some(r)))) if m == r => None,
                    (Some((_, Some(_))), _) => Some("manifest differs between rounds"),
                    _ => Some("no manifest returned"),
                };
                if let Some(p) = problem {
                    check.failed += 1;
                    check.problems.push(format!("job {}: {p}", job.id));
                }
            }
            if got.len() != self.jobs.len() {
                check.problems.push(format!(
                    "{} result lines for {} jobs",
                    got.len(),
                    self.jobs.len()
                ));
            }
        }
        // Sampling must estimate what a full detailed run measures.
        for (workload, cfg) in FULL_RUN_CHECK {
            let id = format!("{workload}.{}", cfg.label().replace('+', "-"));
            let sampled = reference
                .iter()
                .find(|(i, _)| *i == id)
                .and_then(|(_, m)| Json::parse((*m)?).ok())
                .and_then(|m| m.get("ipc").and_then(Json::as_f64));
            let w = by_name(workload, Scale::Custom(INSTS)).expect("suite workload");
            let full = SimBuilder::new()
                .scheme(cfg.scheme())
                .address_prediction(cfg.ap())
                .run_workload(&w)
                .map(|r| r.ipc());
            match (sampled, full) {
                (Some(s), Ok(f)) if ((s - f) / f).abs() <= IPC_TOLERANCE => {
                    println!("perfbench serve_sampled: {id} sampled IPC {s:.4} full {f:.4}");
                }
                (s, f) => check.problems.push(format!(
                    "{id}: sampled IPC {s:?} vs full detailed run {f:?} (tolerance {IPC_TOLERANCE})"
                )),
            }
        }
        // Checkpoint reuse must not change results: a seeded subset of
        // jobs, each alone on a fresh store, gives identical bytes.
        let mut state = self.seed ^ 0x5eed;
        for _ in 0..RERUNS {
            let job = &self.jobs[(splitmix(&mut state) % self.jobs.len() as u64) as usize];
            let alone = job
                .run(&CheckpointStore::new(STORE_CAPACITY))
                .map(|m| m.to_string());
            let batched = reference
                .iter()
                .find(|(id, _)| *id == job.id)
                .and_then(|(_, m)| *m);
            if alone.as_deref().ok() != batched {
                check.failed += 1;
                check
                    .problems
                    .push(format!("job {}: manifest differs when rerun alone", job.id));
            }
        }
        check
    }

    fn layers(&mut self, _tracer: &Tracer, m: &mut Metrics) -> f64 {
        let c = self.rounds[0].counters;
        m.set("ckptstore.hits", c.hits as f64, "count");
        m.set("ckptstore.misses", c.misses as f64, "count");
        m.set("ckptstore.evictions", c.evictions as f64, "count");
        let lookups = (c.hits + c.misses).max(1);
        m.set(
            "ckptstore.hit_ratio",
            c.hits as f64 / lookups as f64,
            "ratio",
        );
        let windows: usize = self
            .manifests(&self.rounds[0])
            .iter()
            .filter_map(|(_, m)| Json::parse((*m)?).ok())
            .filter_map(|m| m.get("windows").and_then(Json::as_array).map(<[Json]>::len))
            .sum();
        m.set("sim.windows", windows as f64, "count");

        let rounds = self.traced.len().max(1) as f64;
        let span_s = |name: &str| {
            self.traced
                .iter()
                .flat_map(|r| &r.spans)
                .filter(|(n, _)| n == name)
                .map(|(_, us)| *us as f64 * 1e-6)
                .sum::<f64>()
                / rounds
        };
        let (plan, simulate, manifest) = (
            span_s("ckpt_plan"),
            span_s("simulate"),
            span_s("manifest_write"),
        );
        m.set("sim.ckpt_plan_s", plan, "s");
        m.set("sim.simulate_s", simulate, "s");
        m.set("serve.manifest_s", manifest, "s");

        // Every job rebuilds its workload: one timed build per workload
        // times the jobs that build it.
        let mut build_s = 0.0;
        let mut probe = LayerProbe::default();
        for name in WORKLOADS {
            let t = Instant::now();
            let w = by_name(name, Scale::Custom(INSTS)).expect("suite workload");
            let jobs = self.jobs.iter().filter(|j| j.workload == name).count();
            build_s += t.elapsed().as_secs_f64() * jobs as f64;
            probe.program(&w.program, &w.memory, layers::step_budget(w.max_cycles));
        }
        m.set("workloads.build_s", build_s, "s");
        m.set("pipeline.core_build_us", layers::core_build_us(4), "us");
        probe.publish(m);
        plan + simulate + manifest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_order_follows_the_seed_and_keeps_every_job() {
        let ids = |seed| jobs(seed).into_iter().map(|j| j.id).collect::<Vec<_>>();
        assert_eq!(ids(3), ids(3));
        assert_ne!(ids(3), ids(4));
        let mut sorted = ids(3);
        sorted.sort();
        let mut other = ids(4);
        other.sort();
        assert_eq!(sorted, other);
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn manifest_text_is_the_last_field() {
        let line = r#"{"id":"a","ok":true,"host":{"queue_us":1},"manifest":{"x":[1,{"y":2}]}}"#;
        assert_eq!(manifest_text(line), Some(r#"{"x":[1,{"y":2}]}"#));
        assert_eq!(manifest_text(r#"{"id":"a","ok":false,"error":"e"}"#), None);
    }
}
