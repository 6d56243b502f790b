//! Machine-readable run summary: per-kernel counters, timing breakdown, and
//! efficiency metrics, serializable to/from JSON via [`multidim_trace::json`].
//!
//! [`RunMetrics`] is the export format behind `metrics.json` in the profiling
//! example and the `--report` flag of the figure benches. It is derived from
//! a finished run's [`KernelRun`] records, so the numbers always match what
//! the simulator charged; [`RunCounters`] folds the same records into an
//! observability registry.

use crate::cost::{KernelCost, KernelTime, LaunchShape};
use crate::exec::{total_cost, KernelRun};
use crate::report::{BoundBy, Efficiency};
use multidim_device::GpuSpec;
use multidim_obs::{Counter, Histogram, Registry};
use multidim_trace::json::Json;
use multidim_trace::{self as trace, Event};
use std::sync::Arc;

/// Everything the simulator knows about one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMetrics {
    /// The launch: name, shape, counters and roofline time.
    pub run: KernelRun,
    /// Simulated start time (seconds since the first launch).
    pub start_seconds: f64,
    /// Derived efficiency metrics.
    pub efficiency: Efficiency,
    /// [`BoundBy`] classification label (e.g. `"bandwidth-bound"`).
    pub bound_by: String,
}

/// Full-run summary: one [`KernelMetrics`] per launched kernel plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Program name the metrics describe.
    pub program: String,
    /// Simulated end-to-end time in seconds.
    pub total_seconds: f64,
    /// Per-kernel records in launch order.
    pub kernels: Vec<KernelMetrics>,
}

impl RunMetrics {
    /// Derive metrics from a finished run's kernels (in launch order).
    pub fn of(
        program: &str,
        gpu: &GpuSpec,
        kernels: &[KernelRun],
        total_seconds: f64,
    ) -> RunMetrics {
        let mut start = 0.0f64;
        let kernels = kernels
            .iter()
            .map(|k| {
                let m = KernelMetrics {
                    run: k.clone(),
                    start_seconds: start,
                    efficiency: Efficiency::of(gpu, &k.shape, &k.cost),
                    bound_by: BoundBy::classify(&k.time).label().to_string(),
                };
                start += k.time.total;
                m
            })
            .collect();
        RunMetrics {
            program: program.to_string(),
            total_seconds,
            kernels,
        }
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("program".to_string(), Json::Str(self.program.clone())),
            ("total_seconds".to_string(), Json::Num(self.total_seconds)),
            (
                "kernels".to_string(),
                Json::Arr(self.kernels.iter().map(kernel_json).collect()),
            ),
        ])
    }

    /// Serialize to compact JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Deserialize from a JSON value produced by [`RunMetrics::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<RunMetrics, String> {
        let kernels = j
            .get("kernels")
            .and_then(Json::as_arr)
            .ok_or("metrics: missing `kernels` array")?
            .iter()
            .map(kernel_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunMetrics {
            program: req_str(j, "program")?,
            total_seconds: req_f64(j, "total_seconds")?,
            kernels,
        })
    }

    /// Parse from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a schema mismatch.
    pub fn parse(text: &str) -> Result<RunMetrics, String> {
        RunMetrics::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    /// The run as the simulated-GPU lane of a Chrome trace
    /// ([`trace::PID_SIM`], microsecond timestamps): per kernel, the
    /// launch instant, the kernel slice with its counters, the per-pipe
    /// breakdown on sub-tracks, and a DRAM-bytes counter sample.
    pub fn trace_events(&self) -> Vec<Event> {
        let mut events = Vec::new();
        for k in &self.kernels {
            let KernelRun {
                name,
                shape,
                cost,
                time: t,
            } = &k.run;
            let eff = &k.efficiency;
            let ts = k.start_seconds * 1e6;
            events.push(
                Event::instant("sim", "launch")
                    .at(ts)
                    .on_pid(trace::PID_SIM)
                    .arg("kernel", name.to_string())
                    .arg("blocks", shape.blocks)
                    .arg("block_threads", u64::from(shape.block_threads))
                    .arg("smem_bytes", u64::from(shape.smem_bytes)),
            );
            events.push(
                Event::complete("sim", name.to_string(), ts, t.total * 1e6)
                    .arg("bound_by", k.bound_by.as_str())
                    .arg("blocks", shape.blocks)
                    .arg("block_threads", u64::from(shape.block_threads))
                    .arg("smem_bytes", u64::from(shape.smem_bytes))
                    .arg("tx_per_request", eff.transactions_per_request)
                    .arg("conflicts_per_access", eff.conflicts_per_access)
                    .arg("resident_warps", u64::from(eff.resident_warps))
                    .arg("warp_instr", cost.warp_instr)
                    .arg("mem_requests", cost.mem_requests)
                    .arg("transactions", cost.transactions)
                    .arg("dram_bytes", cost.dram_bytes)
                    .arg("smem_accesses", cost.smem_accesses)
                    .arg("smem_conflicts", cost.smem_conflicts)
                    .arg("syncs", cost.syncs)
                    .arg("mallocs", cost.mallocs)
                    .arg("atomic_serial", cost.atomic_serial)
                    .arg("child_launches", cost.child_launches)
                    .arg("child_blocks", cost.child_blocks),
            );
            // Per-pipe roofline terms as parallel sub-tracks: the tallest
            // slice is the one the kernel is bound by.
            let pipes: [(&'static str, u32, f64); 4] = [
                ("issue", 1, t.issue),
                ("bandwidth", 2, t.bandwidth),
                ("latency", 3, t.latency),
                ("overhead+malloc", 4, t.overhead + t.malloc),
            ];
            for (pipe, tid, dur) in pipes {
                if dur > 0.0 {
                    events.push(Event::complete("sim.pipe", pipe, ts, dur * 1e6).on_tid(tid));
                }
            }
            events.push(Event::counter("sim", "dram_bytes", ts).arg("bytes", cost.dram_bytes));
        }
        events
    }
}

/// An observability registry's simulator metrics, resolved once: one
/// counter per [`KernelCost`] field (`sim_<field>_total`), a kernel-launch
/// counter, and a histogram of simulated run times. The cost counters
/// reuse [`cost_fields`], so a new counter added there is exported
/// automatically. Resolving registers every one of them, so they read
/// zero before the first run; folding a run then takes no name lookup.
#[derive(Debug)]
pub struct RunCounters {
    kernels: Arc<Counter>,
    run_seconds: Arc<Histogram>,
    cost: [Arc<Counter>; 11],
}

impl RunCounters {
    /// Register (or find) the simulator metrics in `registry`.
    pub fn new(registry: &Registry) -> RunCounters {
        RunCounters {
            kernels: registry.counter("sim_kernels_total", "kernel launches simulated"),
            run_seconds: registry.histogram(
                "sim_run_seconds",
                "simulated end-to-end run time per request",
            ),
            cost: cost_fields(&KernelCost::default()).map(|(name, _)| {
                registry.counter(
                    &format!("sim_{name}_total"),
                    "simulator cost counter, summed over runs",
                )
            }),
        }
    }

    /// Accumulate one run's kernels. Returns the run's summed counters,
    /// from which the engine reads its per-workload child-launch
    /// families.
    pub fn record(&self, kernels: &[KernelRun], total_seconds: f64) -> KernelCost {
        self.kernels.add(kernels.len() as u64);
        self.run_seconds.record(total_seconds);
        let total = total_cost(kernels);
        for (counter, (_, v)) in self.cost.iter().zip(cost_fields(&total)) {
            counter.add(v);
        }
        total
    }
}

fn kernel_json(k: &KernelMetrics) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(k.run.name.clone())),
        ("start_seconds".to_string(), Json::Num(k.start_seconds)),
        ("bound_by".to_string(), Json::Str(k.bound_by.clone())),
        (
            "shape".to_string(),
            Json::Obj(vec![
                ("blocks".to_string(), Json::Num(k.run.shape.blocks as f64)),
                (
                    "block_threads".to_string(),
                    Json::Num(f64::from(k.run.shape.block_threads)),
                ),
                (
                    "smem_bytes".to_string(),
                    Json::Num(f64::from(k.run.shape.smem_bytes)),
                ),
            ]),
        ),
        (
            "cost".to_string(),
            Json::Obj(
                cost_fields(&k.run.cost)
                    .into_iter()
                    .map(|(name, v)| (name.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
        (
            "time".to_string(),
            Json::Obj(vec![
                ("issue".to_string(), Json::Num(k.run.time.issue)),
                ("bandwidth".to_string(), Json::Num(k.run.time.bandwidth)),
                ("latency".to_string(), Json::Num(k.run.time.latency)),
                ("malloc".to_string(), Json::Num(k.run.time.malloc)),
                ("overhead".to_string(), Json::Num(k.run.time.overhead)),
                ("total".to_string(), Json::Num(k.run.time.total)),
            ]),
        ),
        (
            "efficiency".to_string(),
            Json::Obj(vec![
                (
                    "transactions_per_request".to_string(),
                    Json::Num(k.efficiency.transactions_per_request),
                ),
                (
                    "conflicts_per_access".to_string(),
                    Json::Num(k.efficiency.conflicts_per_access),
                ),
                (
                    "resident_warps".to_string(),
                    Json::Num(f64::from(k.efficiency.resident_warps)),
                ),
            ]),
        ),
    ])
}

fn kernel_from_json(j: &Json) -> Result<KernelMetrics, String> {
    let shape = j.get("shape").ok_or("metrics: missing `shape`")?;
    let cost = j.get("cost").ok_or("metrics: missing `cost`")?;
    let time = j.get("time").ok_or("metrics: missing `time`")?;
    let eff = j.get("efficiency").ok_or("metrics: missing `efficiency`")?;
    Ok(KernelMetrics {
        run: KernelRun {
            name: req_str(j, "name")?,
            shape: LaunchShape {
                blocks: req_u64(shape, "blocks")?,
                block_threads: req_u64(shape, "block_threads")? as u32,
                smem_bytes: req_u64(shape, "smem_bytes")? as u32,
            },
            cost: KernelCost {
                warp_instr: req_u64(cost, "warp_instr")?,
                mem_requests: req_u64(cost, "mem_requests")?,
                transactions: req_u64(cost, "transactions")?,
                dram_bytes: req_u64(cost, "dram_bytes")?,
                smem_accesses: req_u64(cost, "smem_accesses")?,
                smem_conflicts: req_u64(cost, "smem_conflicts")?,
                syncs: req_u64(cost, "syncs")?,
                mallocs: req_u64(cost, "mallocs")?,
                atomic_serial: req_u64(cost, "atomic_serial")?,
                // Absent in metrics files written before the dynamic-
                // parallelism counters existed.
                child_launches: opt_u64(cost, "child_launches"),
                child_blocks: opt_u64(cost, "child_blocks"),
            },
            time: KernelTime {
                issue: req_f64(time, "issue")?,
                bandwidth: req_f64(time, "bandwidth")?,
                latency: req_f64(time, "latency")?,
                malloc: req_f64(time, "malloc")?,
                overhead: req_f64(time, "overhead")?,
                total: req_f64(time, "total")?,
            },
        },
        start_seconds: req_f64(j, "start_seconds")?,
        bound_by: req_str(j, "bound_by")?,
        efficiency: Efficiency {
            transactions_per_request: req_f64(eff, "transactions_per_request")?,
            conflicts_per_access: req_f64(eff, "conflicts_per_access")?,
            resident_warps: req_u64(eff, "resident_warps")? as u32,
        },
    })
}

/// The eleven [`KernelCost`] counters as (name, value) pairs — the single
/// source of truth shared by serialization and reporting.
pub fn cost_fields(c: &KernelCost) -> [(&'static str, u64); 11] {
    [
        ("warp_instr", c.warp_instr),
        ("mem_requests", c.mem_requests),
        ("transactions", c.transactions),
        ("dram_bytes", c.dram_bytes),
        ("smem_accesses", c.smem_accesses),
        ("smem_conflicts", c.smem_conflicts),
        ("syncs", c.syncs),
        ("mallocs", c.mallocs),
        ("atomic_serial", c.atomic_serial),
        ("child_launches", c.child_launches),
        ("child_blocks", c.child_blocks),
    ]
}

/// A `u64` field that may be missing (counters added after the schema
/// shipped); missing means zero.
fn opt_u64(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn req_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("metrics: missing number `{key}`"))
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("metrics: missing integer `{key}`"))
}

fn req_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("metrics: missing string `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> KernelRun {
        KernelRun {
            name: "dot_k0".to_string(),
            shape: LaunchShape {
                blocks: 40,
                block_threads: 256,
                smem_bytes: 1024,
            },
            cost: KernelCost {
                warp_instr: 1000,
                mem_requests: 320,
                transactions: 640,
                dram_bytes: 81920,
                smem_accesses: 64,
                smem_conflicts: 0,
                syncs: 8,
                mallocs: 0,
                atomic_serial: 0,
                child_launches: 0,
                child_blocks: 0,
            },
            time: KernelTime {
                issue: 1e-6,
                bandwidth: 3e-6,
                latency: 2e-6,
                malloc: 0.0,
                overhead: 5e-7,
                total: 3.5e-6,
            },
        }
    }

    fn sample() -> RunMetrics {
        RunMetrics {
            program: "dot".to_string(),
            total_seconds: 3.5e-6,
            kernels: vec![KernelMetrics {
                run: sample_run(),
                start_seconds: 0.0,
                efficiency: Efficiency {
                    transactions_per_request: 2.0,
                    conflicts_per_access: 0.0,
                    resident_warps: 32,
                },
                bound_by: "bandwidth-bound".to_string(),
            }],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let m = sample();
        let back = RunMetrics::parse(&m.render()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn missing_field_is_named_in_error() {
        let mut j = sample().to_json();
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "total_seconds");
        }
        let err = RunMetrics::from_json(&j).unwrap_err();
        assert!(err.contains("total_seconds"), "error was: {err}");
    }

    #[test]
    fn record_accumulates_into_registry() {
        let registry = multidim_obs::Registry::new();
        let counters = RunCounters::new(&registry);
        let text = registry.render_text();
        assert!(text.contains("sim_kernels_total 0"), "{text}");
        assert!(text.contains("sim_transactions_total 0"), "{text}");
        let kernels = [sample_run()];
        counters.record(&kernels, 3.5e-6);
        RunCounters::new(&registry).record(&kernels, 3.5e-6);
        let text = registry.render_text();
        assert!(text.contains("sim_kernels_total 2"), "{text}");
        assert!(text.contains("sim_transactions_total 1280"), "{text}");
        assert!(text.contains("sim_run_seconds_count 2"), "{text}");
    }

    #[test]
    fn cost_fields_cover_every_counter() {
        // Sum of the listed fields must equal the sum of a fully-populated
        // struct — a new counter that is not listed here breaks this.
        let c = KernelCost {
            warp_instr: 1,
            mem_requests: 2,
            transactions: 4,
            dram_bytes: 8,
            smem_accesses: 16,
            smem_conflicts: 32,
            syncs: 64,
            mallocs: 128,
            atomic_serial: 256,
            child_launches: 512,
            child_blocks: 1024,
        };
        let sum: u64 = cost_fields(&c).iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 2047);
    }

    #[test]
    fn child_totals_sum_across_kernels() {
        let registry = multidim_obs::Registry::new();
        let counters = RunCounters::new(&registry);
        let mut kernels = vec![sample_run()];
        let total = counters.record(&kernels, 0.0);
        assert_eq!((total.child_launches, total.child_blocks), (0, 0));
        kernels[0].cost.child_launches = 3;
        kernels[0].cost.child_blocks = 48;
        let mut second = kernels[0].clone();
        second.cost.child_launches = 2;
        second.cost.child_blocks = 16;
        kernels.push(second);
        let total = counters.record(&kernels, 0.0);
        assert_eq!((total.child_launches, total.child_blocks), (5, 64));
        let text = registry.render_text();
        assert!(text.contains("sim_child_launches_total 5"), "{text}");
        assert!(text.contains("sim_child_blocks_total 64"), "{text}");
    }
}
