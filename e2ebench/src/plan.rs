//! The deployed plan, rebuilt from the selection's published labels.

use greuse::workflow::NetworkReproduction;
use greuse::{DeploymentPlan, GreuseError};

/// Plan-format line for one `LayerCross::pattern` label such as
/// `C2/N/M-1 L=20 b=1 H=3`.
fn plan_line(layer: &str, label: &str) -> Result<String, GreuseError> {
    let bad = || GreuseError::InvalidWorkflow {
        detail: format!("unparseable pattern label `{label}` for layer {layer}"),
    };
    let mut parts = label.split_whitespace();
    let head = parts.next().ok_or_else(bad)?;
    let mut axes = head.split('/');
    let (Some(order), Some(row), Some(dir), None) =
        (axes.next(), axes.next(), axes.next(), axes.next())
    else {
        return Err(bad());
    };
    let mut line = format!("layer {layer} order={order} row={row} dir={dir}");
    for kv in parts {
        let (key, value) = kv.split_once('=').ok_or_else(bad)?;
        line.push_str(&format!(" {}={value}", key.to_ascii_lowercase()));
    }
    Ok(line)
}

/// The §4.3-deployed plans of one network: the f32 plan holds every
/// selected layer; the int8 plan drops patterns that need a layout pass,
/// exactly as the quantized deployment does.
pub fn deployed_plans(
    net: &NetworkReproduction,
) -> Result<(DeploymentPlan, DeploymentPlan), GreuseError> {
    let mut text = format!("model {}\n", net.id);
    for layer in &net.selected {
        text.push_str(&plan_line(&layer.layer, &layer.pattern)?);
        text.push('\n');
    }
    let f32_plan = DeploymentPlan::from_text(&text)?;
    let mut int8_plan = DeploymentPlan::new(net.id.clone());
    for (layer, p) in &f32_plan.entries {
        if !p.order.needs_layout_pass() && !p.row_order.needs_layout_pass() {
            int8_plan.set(layer.clone(), *p);
        }
    }
    Ok((f32_plan, int8_plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use greuse::workflow::{reproduce_network, ReproduceConfig};
    use greuse::ReusePattern;
    use greuse::{ReuseDirection, ReuseOrder, RowOrder};
    use greuse_nn::models::zoo::ZooModel;

    /// Whether a pattern survives the label round trip unchanged.
    fn label_round_trips(p: &ReusePattern) -> bool {
        plan_line("x", &p.label())
            .and_then(|line| DeploymentPlan::from_text(&line))
            .is_ok_and(|plan| plan.get("x") == Some(p))
    }

    #[test]
    fn every_deployed_label_round_trips() {
        let config = ReproduceConfig::smoke();
        for model in ZooModel::all() {
            let net = reproduce_network(model, &config).unwrap();
            let (f32_plan, int8_plan) = deployed_plans(&net).unwrap();
            assert_eq!(f32_plan.len(), net.selected.len());
            for (layer, cross) in f32_plan.entries.iter().zip(&net.selected) {
                assert_eq!(layer.0, cross.layer);
                assert_eq!(layer.1.label(), cross.pattern, "label -> pattern -> label");
                assert!(label_round_trips(&layer.1));
            }
            for (layer, p) in &int8_plan.entries {
                assert_eq!(f32_plan.get(layer), Some(p));
                assert!(!p.order.needs_layout_pass() && !p.row_order.needs_layout_pass());
            }
        }
    }

    #[test]
    fn every_pattern_axis_round_trips() {
        for order in [
            ReuseOrder::ChannelLast,
            ReuseOrder::ChannelFirst,
            ReuseOrder::KernelTranspose,
            ReuseOrder::Tiled(4),
            ReuseOrder::Random(9),
        ] {
            for row_order in [
                RowOrder::Natural,
                RowOrder::SpatialTiles(2),
                RowOrder::Random(5),
            ] {
                for direction in [ReuseDirection::Vertical, ReuseDirection::Horizontal] {
                    let p = ReusePattern {
                        order,
                        row_order,
                        direction,
                        l: 12,
                        block_rows: 2,
                        h: 5,
                    };
                    assert!(label_round_trips(&p), "{}", p.label());
                }
            }
        }
        assert!(plan_line("x", "C1/N M-1 L=2").is_err());
    }
}
