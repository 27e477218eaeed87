//! `scalpel-serve` — the long-lived planning daemon, replayable.
//!
//! ```text
//! scalpel-serve gen-trace [scenario flags] [--churn-seed S] [--horizon S]
//!                         [--out FILE]
//! scalpel-serve run       [scenario flags] --trace FILE|- [--horizon S]
//!                         [--tick S] [--budget-evals N] [--budget-ms M]
//!                         [--debounce N] [--dwell S] [--margin S]
//!                         [--switch-cost S] [--max-switches N] [--window K]
//!                         [--ungoverned] [--checkpoint FILE] [--restore]
//!                         [--crash-after-tick N] [--status-log FILE]
//! ```
//!
//! `gen-trace` emits a seeded churn trace in the exact-replay text format
//! (`f64`s as bit-pattern hex). `run` builds the same scenario as
//! `scalpel solve`, boots a [`PlanningService`] over it, and replays the
//! trace tick by tick: each tick's checkpoint is written atomically
//! (tmp + rename) *before* the next batch is consumed — the write-ahead
//! discipline that makes `--crash-after-tick N` + `--restore` land on the
//! bit-identical final plan as the run that never crashed (with
//! evaluation-count budgets; wall budgets trade determinism for latency).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use scalpel::core::optimizer::Budget;
use scalpel::core::service::{PlanningService, ServiceConfig};
use scalpel::core::ScenarioConfig;
use scalpel::sim::{ChurnProfile, ChurnTrace};
use std::io::Read as _;
use std::io::Write as _;

/// Common scenario + service flags.
#[derive(Debug, Clone, PartialEq)]
struct ServeFlags {
    devices: usize,
    aps: usize,
    rate: f64,
    bandwidth_mhz: f64,
    seed: u64,
    churn_seed: u64,
    horizon_s: f64,
    tick_s: f64,
    budget_evals: usize,
    budget_ms: Option<u64>,
    debounce: usize,
    dwell_s: f64,
    margin_s: f64,
    switch_cost_s: f64,
    max_switches: usize,
    window: usize,
    ungoverned: bool,
    trace: Option<String>,
    out: Option<String>,
    checkpoint: Option<String>,
    restore: bool,
    crash_after_tick: Option<u64>,
    status_log: Option<String>,
}

impl Default for ServeFlags {
    fn default() -> Self {
        Self {
            devices: 8,
            aps: 2,
            rate: 3.0,
            bandwidth_mhz: 20.0,
            seed: 7,
            churn_seed: 13,
            horizon_s: 60.0,
            tick_s: 2.0,
            budget_evals: 200_000,
            budget_ms: None,
            debounce: 1,
            dwell_s: 10.0,
            margin_s: 0.005,
            switch_cost_s: 0.010,
            max_switches: 2,
            window: 3,
            ungoverned: false,
            trace: None,
            out: None,
            checkpoint: None,
            restore: false,
            crash_after_tick: None,
            status_log: None,
        }
    }
}

fn parse_flags(args: &[String]) -> Result<ServeFlags, String> {
    let mut f = ServeFlags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take =
            || -> Result<&String, String> { it.next().ok_or_else(|| format!("{a} needs a value")) };
        let num = |a: &str, v: &str| format!("{a}: bad value {v:?}");
        match a.as_str() {
            "--devices" => f.devices = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--aps" => f.aps = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--rate" => f.rate = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--bandwidth" => f.bandwidth_mhz = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--seed" => f.seed = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--churn-seed" => f.churn_seed = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--horizon" => f.horizon_s = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--tick" => f.tick_s = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--budget-evals" => {
                f.budget_evals = take()?.parse().map_err(|e| format!("{a}: {e}"))?
            }
            "--budget-ms" => f.budget_ms = Some(take()?.parse().map_err(|e| format!("{a}: {e}"))?),
            "--debounce" => f.debounce = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--dwell" => f.dwell_s = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--margin" => f.margin_s = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--switch-cost" => {
                f.switch_cost_s = take()?.parse().map_err(|e| format!("{a}: {e}"))?
            }
            "--max-switches" => {
                f.max_switches = take()?.parse().map_err(|e| format!("{a}: {e}"))?
            }
            "--window" => f.window = take()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--ungoverned" => f.ungoverned = true,
            "--trace" => f.trace = Some(take()?.clone()),
            "--out" => f.out = Some(take()?.clone()),
            "--checkpoint" => f.checkpoint = Some(take()?.clone()),
            "--restore" => f.restore = true,
            "--crash-after-tick" => {
                f.crash_after_tick = Some(take()?.parse().map_err(|e| format!("{a}: {e}"))?)
            }
            "--status-log" => f.status_log = Some(take()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
        if !f.tick_s.is_finite() || f.tick_s <= 0.0 {
            return Err(num("--tick", &f.tick_s.to_string()));
        }
    }
    if f.devices == 0 || f.aps == 0 || f.devices % f.aps != 0 {
        return Err("--devices must be a positive multiple of --aps".into());
    }
    Ok(f)
}

fn scenario_from(f: &ServeFlags) -> ScenarioConfig {
    ScenarioConfig {
        num_aps: f.aps,
        devices_per_ap: f.devices / f.aps,
        arrival_rate_hz: f.rate,
        ap_bandwidth_hz: f.bandwidth_mhz * 1e6,
        seed: f.seed,
        ..ScenarioConfig::default()
    }
}

fn service_config_from(f: &ServeFlags) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        replan_budget: match f.budget_ms {
            Some(ms) => Budget {
                wall_time: Some(std::time::Duration::from_millis(ms)),
                max_evals: Some(f.budget_evals),
            },
            None => Budget::evals(f.budget_evals),
        },
        debounce_events: f.debounce,
        tick_s: f.tick_s,
        ungoverned: f.ungoverned,
        ..ServiceConfig::default()
    };
    cfg.governor.min_dwell_s = f.dwell_s;
    cfg.governor.hysteresis_margin_s = f.margin_s;
    cfg.governor.switch_cost_s = f.switch_cost_s;
    cfg.governor.max_switches_per_tick = f.max_switches;
    cfg.governor.window = f.window;
    cfg
}

fn read_trace(path: &str) -> Result<ChurnTrace, String> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    ChurnTrace::from_text(&text).map_err(|e| e.to_string())
}

/// Atomic write: tmp file in the same directory, then rename over the
/// target — a crash mid-write never leaves a torn checkpoint behind.
fn write_atomic(path: &str, content: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, content).map_err(|e| format!("{tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{path}: {e}"))
}

fn gen_trace(f: &ServeFlags) -> Result<(), String> {
    let problem = scenario_from(f).build();
    let profile = ChurnProfile {
        seed: f.churn_seed,
        ..ChurnProfile::default()
    };
    let trace = profile.plan(
        problem.cluster.devices.len(),
        problem.cluster.aps.len(),
        problem.cluster.servers.len(),
        problem.streams.len(),
        f.horizon_s,
    );
    let text = trace.to_text();
    match &f.out {
        Some(path) => {
            write_atomic(path, &text)?;
            eprintln!(
                "wrote {} events over {:.0} s to {path}",
                trace.events.len(),
                f.horizon_s
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn run(f: &ServeFlags) -> Result<(), String> {
    let trace_path = f.trace.as_deref().ok_or("run requires --trace FILE|-")?;
    let trace = read_trace(trace_path)?;
    let problem = scenario_from(f).build();
    let cfg = service_config_from(f);
    let mut svc = if f.restore {
        let path = f
            .checkpoint
            .as_deref()
            .ok_or("--restore requires --checkpoint FILE")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let svc = PlanningService::restore(problem, cfg, &text).map_err(|e| e.to_string())?;
        eprintln!(
            "restored from {path}: tick {} / cursor {}",
            svc.status().tick,
            svc.cursor()
        );
        svc
    } else {
        PlanningService::new(problem, cfg).map_err(|e| e.to_string())?
    };
    svc.check_trace(&trace).map_err(|e| e.to_string())?;
    let mut status_log: Option<std::fs::File> = match &f.status_log {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?,
        ),
        None => None,
    };
    while svc.status().now_s + f.tick_s <= f.horizon_s + 1e-12 {
        if let Err(e) = svc.offer_batch(svc.next_batch(&trace)) {
            eprintln!("batch rejected: {e}");
        }
        let out = svc.tick();
        if let Some(delta) = &out.delta {
            if !delta.is_empty() {
                println!(
                    "delta tick={} moves={} plan_changes={} objective {:.6} -> {:.6}",
                    delta.tick,
                    delta.moves.len(),
                    delta.plan_changes.len(),
                    delta.objective_before,
                    delta.objective_after,
                );
            }
        }
        let status = svc.status();
        if let Some(log) = &mut status_log {
            writeln!(log, "{}", status.to_line()).map_err(|e| format!("status log: {e}"))?;
        }
        if let Some(path) = &f.checkpoint {
            write_atomic(path, &svc.checkpoint_text())?;
        }
        if let Some(n) = f.crash_after_tick {
            if status.tick >= n {
                eprintln!("simulated crash after tick {n} (checkpoint persisted)");
                return Ok(());
            }
        }
    }
    let status = svc.status();
    println!("final {}", status.to_line());
    let ids = |v: &[usize]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    println!("final-plan {}", ids(&svc.assignment().plan_idx));
    println!("final-place {}", ids(&svc.assignment().placement));
    println!(
        "final-objective {:016x}",
        svc.solution().result.objective.to_bits()
    );
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: scalpel-serve <gen-trace|run> [flags]\n\
         scenario: --devices N --aps N --rate R --bandwidth MHZ --seed S\n\
         gen-trace: --churn-seed S --horizon S [--out FILE]\n\
         run: --trace FILE|- --horizon S --tick S --budget-evals N [--budget-ms M]\n\
         \x20     --debounce N --dwell S --margin S --switch-cost S --max-switches N\n\
         \x20     --window K [--ungoverned] [--checkpoint FILE] [--restore]\n\
         \x20     [--crash-after-tick N] [--status-log FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => usage(),
    };
    let result = match cmd {
        "gen-trace" => parse_flags(rest).and_then(|f| gen_trace(&f)),
        "run" => parse_flags(rest).and_then(|f| run(&f)),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(s: &[&str]) -> Result<ServeFlags, String> {
        parse_flags(&s.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn default_flags_parse() {
        assert_eq!(flags(&[]).unwrap(), ServeFlags::default());
    }

    #[test]
    fn service_flags_parse() {
        let f = flags(&[
            "--devices",
            "16",
            "--aps",
            "2",
            "--trace",
            "trace.txt",
            "--tick",
            "0.5",
            "--budget-evals",
            "5000",
            "--max-switches",
            "1",
            "--ungoverned",
            "--checkpoint",
            "ck.txt",
            "--restore",
            "--crash-after-tick",
            "7",
            "--status-log",
            "status.log",
        ])
        .unwrap();
        assert_eq!(f.devices, 16);
        assert_eq!(f.trace.as_deref(), Some("trace.txt"));
        assert!((f.tick_s - 0.5).abs() < 1e-12);
        assert_eq!(f.budget_evals, 5000);
        assert_eq!(f.max_switches, 1);
        assert!(f.ungoverned && f.restore);
        assert_eq!(f.crash_after_tick, Some(7));
        assert_eq!(f.status_log.as_deref(), Some("status.log"));
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(flags(&["--trace"]).is_err());
        assert!(flags(&["--bogus"]).is_err());
        assert!(flags(&["--tick", "0"]).is_err());
        assert!(flags(&["--tick", "nan"]).is_err());
        assert!(flags(&["--devices", "5", "--aps", "2"]).is_err());
    }

    #[test]
    fn wall_budget_keeps_eval_cap() {
        let f = flags(&["--budget-ms", "50", "--budget-evals", "1234"]).unwrap();
        let cfg = service_config_from(&f);
        assert_eq!(
            cfg.replan_budget.wall_time,
            Some(std::time::Duration::from_millis(50))
        );
        assert_eq!(cfg.replan_budget.max_evals, Some(1234));
    }
}
