//! Every metric the benchmark reports, with its unit and direction. Each
//! run reports the full end-to-end list (`--trace 0`) or the full
//! per-layer list (`--trace 1`); a per-layer metric a workload does not
//! exercise reads 0.

use greuse_nn::models::zoo::ZooModel;

/// The three measured backends, in report order.
pub const BACKENDS: [&str; 3] = ["dense", "f32", "int8"];
/// The two reuse backends.
pub const REUSE: [&str; 2] = ["f32", "int8"];
/// Deployed-layer slots per network (`ReproduceConfig::smoke` selects two).
pub const SLOTS: usize = 2;

/// One metric definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Reported name.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics.
pub fn end_to_end() -> Vec<Metric> {
    let mut v = vec![m("setup_s", "s", "lower")];
    for be in BACKENDS {
        v.push(m(format!("{be}_ms_p50"), "ms", "lower"));
        v.push(m(format!("{be}_ms_p90"), "ms", "lower"));
    }
    for q in REUSE {
        v.push(m(format!("{q}_logit_err"), "ratio", "lower"));
    }
    v.push(m("mcu_f4_ms", "ms", "lower"));
    v.push(m("ok_frac", "frac", "higher"));
    v
}

/// Per-layer metrics.
pub fn per_layer() -> Vec<Metric> {
    let nets: Vec<&str> = ZooModel::all().iter().map(|z| z.id()).collect();
    let mut v = Vec::new();
    for be in BACKENDS {
        v.push(m(format!("nn.{be}.other_ms"), "ms", "lower"));
    }
    for net in &nets {
        for be in BACKENDS {
            v.push(m(format!("nn.{net}.{be}_ms"), "ms", "lower"));
        }
    }
    for be in BACKENDS {
        v.push(m(format!("backend.{be}.conv_ms"), "ms", "lower"));
        v.push(m(format!("backend.{be}.plan_ms"), "ms", "lower"));
    }
    for net in &nets {
        for slot in 0..SLOTS {
            for be in BACKENDS {
                v.push(m(format!("backend.{net}.d{slot}.{be}_ms"), "ms", "lower"));
            }
        }
    }
    for q in REUSE {
        v.push(m(format!("backend.{q}.fallback_frac"), "frac", "lower"));
        v.push(m(format!("backend.{q}.rt"), "ratio", "higher"));
    }
    for q in REUSE {
        for phase in ["pack_hash", "cluster", "gemm", "fold", "overhead"] {
            v.push(m(format!("exec.{q}.{phase}_ms"), "ms", "lower"));
        }
    }
    v.push(m("exec.int8.requant_ms", "ms", "lower"));
    for be in BACKENDS {
        v.push(m(format!("tensor.{be}.im2col_ms"), "ms", "lower"));
    }
    for q in REUSE {
        v.push(m(format!("tensor.{q}.gemm_macs"), "count", "lower"));
        v.push(m(format!("tensor.{q}.cluster_macs"), "count", "lower"));
    }
    for q in REUSE {
        v.push(m(format!("cache.{q}.hit_frac"), "frac", "higher"));
        v.push(m(format!("cache.{q}.invalidations"), "count", "lower"));
    }
    for q in REUSE {
        v.push(m(format!("serve.{q}.server_ms_p50"), "ms", "lower"));
        v.push(m(format!("serve.{q}.batch_mean"), "count", "lower"));
        v.push(m(format!("serve.{q}.dense_frac"), "frac", "lower"));
        v.push(m(format!("serve.{q}.breaker_trips"), "count", "lower"));
        v.push(m(format!("serve.{q}.shed"), "count", "lower"));
        v.push(m(format!("serve.{q}.deadline_missed"), "count", "lower"));
        v.push(m(format!("serve.{q}.max_rps"), "1/s", "higher"));
    }
    v.push(m("serve.gen_lag_ms_max", "ms", "lower"));
    v.push(m("workflow.build_ptq_s", "s", "lower"));
    v.push(m("workflow.select_s", "s", "lower"));
    v.push(m("workflow.warmup_s", "s", "lower"));
    for net in &nets {
        v.push(m(format!("mcu.{net}.f4_dense_ms"), "ms", "lower"));
        v.push(m(format!("mcu.{net}.f4_reuse_ms"), "ms", "lower"));
    }
    v.push(m("mcu.dense_rank_corr", "rho", "higher"));
    v.push(m("mcu.reuse_rank_corr", "rho", "higher"));
    v.push(m("trace.overhead_frac", "frac", "lower"));
    v.push(m("trace.dropped_events", "count", "lower"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit, better)` of each object in one top-level array
    /// of the benchmark manifest.
    fn manifest_metrics(text: &str, key: &str) -> Vec<(String, String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let rest = &text[start..];
        let objects = &rest[..rest.find(']').expect("array closes")];
        let field = |obj: &str, k: &str| -> String {
            let at = obj.find(&format!("\"{k}\": \"")).expect("field present") + k.len() + 5;
            obj[at..]
                .split('"')
                .next()
                .expect("quoted value")
                .to_string()
        };
        objects
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    #[test]
    fn names_are_unique_and_valid() {
        for list in [end_to_end(), per_layer()] {
            let mut seen = std::collections::HashSet::new();
            for metric in &list {
                assert!(seen.insert(metric.name.clone()), "{} twice", metric.name);
                assert!(metric.name.len() <= 64);
                assert!(metric.name.chars().next().unwrap().is_ascii_alphanumeric());
                assert!(metric
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            }
            assert!(list.len() <= 128);
        }
    }

    #[test]
    fn manifest_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let rows = |v: Vec<Metric>| {
            v.into_iter()
                .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(manifest_metrics(&text, "end_to_end"), rows(end_to_end()));
        assert_eq!(manifest_metrics(&text, "per_layer"), rows(per_layer()));
    }
}
