//! T2 — default simulation parameters.

use crate::table::Table;
use scalpel_core::config::{ScenarioConfig, DEADLINES_S, RTT_S};

/// Print the default scenario parameters (the reconstructed Table 2).
pub fn run() {
    println!("\n== T2: default parameters ==");
    let c = ScenarioConfig::default();
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec!["access points", &c.num_aps.to_string()]);
    t.row(vec!["devices per AP", &c.devices_per_ap.to_string()]);
    t.row(vec![
        "device classes",
        "rpi4 40% / phone 30% / nano 20% / tx2 10%",
    ]);
    t.row(vec![
        "AP bandwidth",
        &format!("{:.0} MHz", c.ap_bandwidth_hz / 1e6),
    ]);
    t.row(vec!["RTT", &format!("{:.1} ms", RTT_S * 1e3)]);
    t.row(vec!["edge servers", "xeon / t4 / v100 / t4"]);
    t.row(vec![
        "arrival",
        &format!("Poisson {:.0} req/s per stream", c.arrival_rate_hz),
    ]);
    t.row(vec![
        "deadlines (ms)",
        &DEADLINES_S
            .iter()
            .map(|d| format!("{:.0}", d * 1e3))
            .collect::<Vec<_>>()
            .join(" / "),
    ]);
    t.row(vec![
        "accuracy floor",
        &format!("full-model − {:.1} pp", c.accuracy_floor_drop * 100.0),
    ]);
    t.row(vec![
        "simulation",
        &format!(
            "{:.0} s horizon, {:.0} s warm-up",
            c.sim.horizon_s, c.sim.warmup_s
        ),
    ]);
    t.row(vec!["models", "alexnet / vgg16 / resnet18 / mobilenet_v2"]);
    t.print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t2_runs() {
        super::run();
    }
}
