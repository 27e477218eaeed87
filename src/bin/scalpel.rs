//! `scalpel` — command-line front end.
//!
//! ```text
//! scalpel models
//! scalpel inspect <model>
//! scalpel solve   [--devices N] [--aps N] [--rate R] [--bandwidth MHZ]
//!                 [--method NAME] [--seed S]
//! scalpel compare [--devices N] [--aps N] [--rate R] [--bandwidth MHZ] [--seed S]
//! ```
//!
//! `solve` runs one method (default Joint) on a synthetic scenario and
//! prints both the analytic pricing and the simulated outcome; `compare`
//! runs the whole method ladder.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use scalpel::core::baselines::{solve_with, Method};
use scalpel::core::compiler::CompileOptions;
use scalpel::core::config::ScenarioConfig;
use scalpel::core::evaluator::Evaluator;
use scalpel::core::optimizer::OptimizerConfig;
use scalpel::core::runner;
use scalpel::models::{summary, zoo};

/// Parsed common flags for `solve` / `compare`.
#[derive(Debug, Clone, PartialEq)]
struct ScenarioFlags {
    devices: usize,
    aps: usize,
    rate: f64,
    bandwidth_mhz: f64,
    seed: u64,
    method: Method,
}

impl Default for ScenarioFlags {
    fn default() -> Self {
        Self {
            devices: 16,
            aps: 2,
            rate: 4.0,
            bandwidth_mhz: 20.0,
            seed: 7,
            method: Method::Joint,
        }
    }
}

fn method_by_name(name: &str) -> Option<Method> {
    Method::ALL
        .iter()
        .copied()
        .find(|m| m.name().eq_ignore_ascii_case(name))
}

fn parse_flags(args: &[String]) -> Result<ScenarioFlags, String> {
    let mut flags = ScenarioFlags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take =
            || -> Result<&String, String> { it.next().ok_or_else(|| format!("{a} needs a value")) };
        match a.as_str() {
            "--devices" => flags.devices = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--aps" => flags.aps = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--rate" => flags.rate = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--bandwidth" => {
                flags.bandwidth_mhz = take()?.parse().map_err(|e| format!("{a}: {e}"))?
            }
            "--seed" => flags.seed = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--method" => {
                let name = take()?;
                flags.method =
                    method_by_name(name).ok_or_else(|| format!("unknown method {name}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if flags.devices == 0 || flags.aps == 0 || flags.devices % flags.aps != 0 {
        return Err("--devices must be a positive multiple of --aps".into());
    }
    Ok(flags)
}

fn scenario_from(flags: &ScenarioFlags) -> ScenarioConfig {
    let mut cfg = ScenarioConfig {
        num_aps: flags.aps,
        devices_per_ap: flags.devices / flags.aps,
        arrival_rate_hz: flags.rate,
        ap_bandwidth_hz: flags.bandwidth_mhz * 1e6,
        seed: flags.seed,
        ..ScenarioConfig::default()
    };
    cfg.sim.seed = flags.seed;
    cfg
}

fn print_outcome(o: &runner::MethodOutcome) {
    println!(
        "{:<14} mean {:>8.2} ms | p95 {:>8.2} ms | p99 {:>8.2} ms | on-time {:>5.1}% \
         | acc {:.3} | early-exit {:>4.1}% | device {:>6.1} mJ",
        o.method.name(),
        o.latency.mean * 1e3,
        o.latency.p95 * 1e3,
        o.latency.p99 * 1e3,
        o.deadline_ratio * 100.0,
        o.accuracy,
        o.early_exit_fraction * 100.0,
        o.device_energy_j * 1e3,
    );
}

fn run_method(flags: &ScenarioFlags, method: Method) -> runner::MethodOutcome {
    let scfg = scenario_from(flags);
    let problem = scfg.build();
    let ev = Evaluator::new(&problem, None);
    let sol = solve_with(&ev, method, &OptimizerConfig::default());
    let reports = runner::run_solution_seeds(
        &problem,
        &ev,
        &sol,
        scfg.sim.clone(),
        &[flags.seed, flags.seed + 1],
        &CompileOptions::default(),
    );
    runner::aggregate(method, &sol, &reports)
}

fn usage() -> ! {
    eprintln!(
        "usage: scalpel <models|inspect <model>|solve [flags]|compare [flags]>\n\
         flags: --devices N --aps N --rate R --bandwidth MHZ --seed S --method NAME"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("models") => {
            for name in zoo::ALL_NAMES {
                // Every listed name builds (the zoo's own tests check it).
                let Some(g) = zoo::by_name(name) else {
                    continue;
                };
                println!(
                    "{:<14} {:>4} layers  {:>7.2} GFLOPs  {:>8.2} M params",
                    name,
                    g.len(),
                    g.total_flops() as f64 / 1e9,
                    g.total_params() as f64 / 1e6
                );
            }
        }
        Some("inspect") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            match zoo::by_name(name) {
                Some(g) => print!("{}", summary::layer_table(&g)),
                None => {
                    eprintln!("unknown model {name}; options: {:?}", zoo::ALL_NAMES);
                    std::process::exit(2);
                }
            }
        }
        Some("solve") => match parse_flags(&args[1..]) {
            Ok(flags) => {
                println!(
                    "scenario: {} devices / {} APs, {:.0} req/s, {:.0} MHz; method {}",
                    flags.devices,
                    flags.aps,
                    flags.rate,
                    flags.bandwidth_mhz,
                    flags.method.name()
                );
                print_outcome(&run_method(&flags, flags.method));
            }
            Err(e) => {
                eprintln!("error: {e}");
                usage();
            }
        },
        Some("compare") => match parse_flags(&args[1..]) {
            Ok(flags) => {
                println!(
                    "scenario: {} devices / {} APs, {:.0} req/s, {:.0} MHz",
                    flags.devices, flags.aps, flags.rate, flags.bandwidth_mhz
                );
                for &m in Method::ALL {
                    print_outcome(&run_method(&flags, m));
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                usage();
            }
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(s: &[&str]) -> Result<ScenarioFlags, String> {
        parse_flags(&s.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn default_flags_parse() {
        assert_eq!(flags(&[]).unwrap(), ScenarioFlags::default());
    }

    #[test]
    fn all_flags_parse() {
        let f = flags(&[
            "--devices",
            "24",
            "--aps",
            "3",
            "--rate",
            "6.5",
            "--bandwidth",
            "10",
            "--seed",
            "42",
            "--method",
            "neurosurgeon",
        ])
        .unwrap();
        assert_eq!(f.devices, 24);
        assert_eq!(f.aps, 3);
        assert!((f.rate - 6.5).abs() < 1e-12);
        assert!((f.bandwidth_mhz - 10.0).abs() < 1e-12);
        assert_eq!(f.seed, 42);
        assert_eq!(f.method, Method::Neurosurgeon);
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(flags(&["--devices"]).is_err());
        assert!(flags(&["--bogus", "1"]).is_err());
        assert!(flags(&["--method", "nope"]).is_err());
        assert!(flags(&["--devices", "5", "--aps", "2"]).is_err());
        assert!(flags(&["--devices", "0"]).is_err());
    }

    #[test]
    fn method_names_resolve_case_insensitively() {
        assert_eq!(method_by_name("JOINT"), Some(Method::Joint));
        assert_eq!(method_by_name("FixedExit"), Some(Method::FixedExit));
        assert_eq!(method_by_name("unknown"), None);
    }
}
