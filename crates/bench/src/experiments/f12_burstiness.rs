//! F12 \[extension\] — robustness to bursty traffic.
//!
//! Replaces the Poisson arrivals with a two-state MMPP of the same mean
//! rate but increasing burst intensity (rate_high/rate_low ratio) and
//! measures how each method's tail latency degrades. Joint optimization
//! plans on means, so this probes how much slack the allocation policies
//! leave for bursts.

use crate::experiments::f4_scalability::SWEEP_METHODS;
use crate::harness::{self};
use crate::table::{ms, pct, Table};
use rayon::prelude::*;
use scalpel_core::baselines::solve_with;
use scalpel_core::compiler::CompileOptions;
use scalpel_core::config::ScenarioConfig;
use scalpel_core::evaluator::Evaluator;
use scalpel_core::runner;
use scalpel_sim::ArrivalProcess;

/// Print p99 latency and deadline ratio per method over burst ratios.
pub fn run(quick: bool) {
    println!("\n== F12 [extension]: tail latency vs burstiness (MMPP) ==");
    let ratios: &[f64] = if quick {
        &[1.0, 9.0]
    } else {
        &[1.0, 3.0, 5.0, 9.0, 15.0]
    };
    let seeds: &[u64] = if quick { &[101] } else { &[101, 202] };
    let mean_rate = 8.0;
    let mut t = Table::new(
        std::iter::once("burst ratio".to_string())
            .chain(
                SWEEP_METHODS
                    .iter()
                    .flat_map(|m| [format!("{} p99", m.name()), format!("{} ontime", m.name())]),
            )
            .collect::<Vec<_>>(),
    );
    for &ratio in ratios {
        let mut scfg = ScenarioConfig::default();
        if quick {
            scfg.num_aps = 2;
            scfg.devices_per_ap = 4;
            scfg.sim.horizon_s = 8.0;
            scfg.sim.warmup_s = 1.0;
        }
        let mut problem = scfg.build();
        // Same mean rate, increasing burst intensity. ratio 1 = Poisson.
        for s in &mut problem.streams {
            s.arrivals = if ratio <= 1.0 {
                ArrivalProcess::Poisson { rate_hz: mean_rate }
            } else {
                let low = 2.0 * mean_rate / (1.0 + ratio);
                ArrivalProcess::Mmpp2 {
                    rate_low: low,
                    rate_high: low * ratio,
                    switch_rate: 0.5,
                }
            };
        }
        let ev = Evaluator::new(&problem, None);
        let opt = harness::default_optimizer();
        let outcomes: Vec<_> = SWEEP_METHODS
            .par_iter()
            .map(|&m| {
                let sol = solve_with(&ev, m, &opt);
                let opts = CompileOptions::default();
                let reports =
                    runner::run_solution_seeds(&problem, &ev, &sol, scfg.sim.clone(), seeds, &opts);
                runner::aggregate(m, &sol, &reports)
            })
            .collect();
        let mut cells = vec![format!("{ratio:.0}x")];
        for o in &outcomes {
            cells.push(ms(o.latency.p99));
            cells.push(pct(o.deadline_ratio));
        }
        t.row(cells);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    #[test]
    fn f12_quick_runs() {
        super::run(true);
    }
}
