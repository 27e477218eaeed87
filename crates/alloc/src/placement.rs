//! Stream → server placement as a weighted congestion game.
//!
//! Under the weighted-sum compute allocation (KKT water-filling), the total
//! weighted latency on server `s` is `Σ w_k a_k + L_s²` with
//! `L_s = Σ_{k on s} √(w_k e_ks)` and `e_ks` the stream's edge seconds at
//! `s`'s full capacity. Placement therefore minimizes `Σ_s L_s²`.
//!
//! * **Best-response dynamics** — each stream's individual cost is
//!   `ℓ_ks · L_s` (with `ℓ_ks = √(w_k e_ks)`); the game admits the exact
//!   potential `Φ = ½ Σ_s (L_s² + Σ_{k∈s} ℓ_ks²)`, so best-response
//!   strictly decreases Φ and converges to a pure Nash equilibrium.
//! * **Greedy** — LPT-style: heaviest stream first onto the server with
//!   the least marginal `L_s²` increase.
//! * **Round-robin** — the static baseline.

use serde::{Deserialize, Serialize};

/// One stream's placement-relevant demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementStream {
    /// Stream id.
    pub stream: usize,
    /// Edge FLOPs per request (expected over exit paths).
    pub edge_flops: f64,
    /// Relative importance.
    pub weight: f64,
}

/// One server's placement-relevant capability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerCap {
    /// Server id.
    pub server: usize,
    /// Effective FLOP/s.
    pub capacity_fps: f64,
}

/// Placement algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Heaviest-first greedy marginal-cost placement.
    Greedy,
    /// Greedy seeding + best-response dynamics to a Nash equilibrium.
    BestResponse,
    /// Static round-robin.
    RoundRobin,
}

/// Load bookkeeping for a placement instance.
#[derive(Debug, Clone)]
pub struct ServerLoadModel {
    loads: Vec<f64>,    // L_s
    ell: Vec<Vec<f64>>, // ell[k][s] = sqrt(w_k e_ks)
}

impl ServerLoadModel {
    /// Precompute `ℓ_ks` for all stream/server pairs.
    pub fn new(streams: &[PlacementStream], servers: &[ServerCap]) -> Self {
        let ell = streams
            .iter()
            .map(|k| {
                servers
                    .iter()
                    .map(|s| {
                        // Sanitized so a zero-capacity or NaN-profiled
                        // server yields a zero load term instead of NaN
                        // poisoning every comparison downstream.
                        crate::convex::sanitize(k.weight * k.edge_flops / s.capacity_fps).sqrt()
                    })
                    .collect()
            })
            .collect();
        Self {
            loads: vec![0.0; servers.len()],
            ell,
        }
    }

    /// `L_s` values under `assignment`.
    fn loads_for(&self, assignment: &[usize]) -> Vec<f64> {
        let mut loads = vec![0.0; self.loads.len()];
        for (k, &s) in assignment.iter().enumerate() {
            loads[s] += self.ell[k][s];
        }
        loads
    }

    /// The system objective `Σ_s L_s²`.
    pub fn objective(&self, assignment: &[usize]) -> f64 {
        self.loads_for(assignment).iter().map(|l| l * l).sum()
    }

    /// The exact potential `Φ = ½ Σ_s (L_s² + Σ_{k∈s} ℓ_ks²)`.
    pub fn potential(&self, assignment: &[usize]) -> f64 {
        let loads = self.loads_for(assignment);
        let sq: f64 = loads.iter().map(|l| l * l).sum();
        let own: f64 = assignment
            .iter()
            .enumerate()
            .map(|(k, &s)| self.ell[k][s] * self.ell[k][s])
            .sum();
        0.5 * (sq + own)
    }
}

/// Place every stream on a server. `servers` must be non-empty.
pub fn place(
    streams: &[PlacementStream],
    servers: &[ServerCap],
    strategy: PlacementStrategy,
) -> Vec<usize> {
    assert!(!servers.is_empty(), "need at least one server");
    if streams.is_empty() {
        return Vec::new();
    }
    match strategy {
        PlacementStrategy::RoundRobin => (0..streams.len()).map(|k| k % servers.len()).collect(),
        PlacementStrategy::Greedy => greedy(&ServerLoadModel::new(streams, servers)),
        PlacementStrategy::BestResponse => {
            // One ℓ matrix (the only transcendental work here) shared by
            // the greedy seeding and the best-response dynamics, instead
            // of each rebuilding its own identical copy.
            let model = ServerLoadModel::new(streams, servers);
            let seed = greedy(&model);
            best_response_with_model(&model, seed).0
        }
    }
}

fn greedy(model: &ServerLoadModel) -> Vec<usize> {
    let n_servers = model.loads.len();
    let n_streams = model.ell.len();
    // Heaviest (by best-case ell) first. Each key is folded once, not on
    // every comparison; the sort is stable, so ties keep stream order.
    let best_case: Vec<f64> = model
        .ell
        .iter()
        .map(|row| row.iter().cloned().fold(f64::INFINITY, f64::min))
        .collect();
    let mut order: Vec<usize> = (0..n_streams).collect();
    order.sort_by(|&a, &b| best_case[b].total_cmp(&best_case[a]));
    let mut loads = vec![0.0; n_servers];
    let mut assignment = vec![0usize; n_streams];
    for &k in &order {
        let best_s = (0..n_servers)
            .map(|s| {
                let l = model.ell[k][s];
                (s, 2.0 * loads[s] * l + l * l) // marginal increase of L_s²
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, _)| s)
            .unwrap_or(0);
        assignment[k] = best_s;
        loads[best_s] += model.ell[k][best_s];
    }
    assignment
}

/// Run best-response dynamics from `assignment`. Returns the equilibrium
/// assignment and the number of improving moves made.
#[cfg(test)]
fn best_response(
    streams: &[PlacementStream],
    servers: &[ServerCap],
    assignment: Vec<usize>,
) -> (Vec<usize>, usize) {
    best_response_with_model(&ServerLoadModel::new(streams, servers), assignment)
}

/// Best-response dynamics from `assignment` over a prebuilt load model
/// (the ℓ matrix the greedy seeding already paid for). Returns the
/// equilibrium assignment and the number of improving moves made.
fn best_response_with_model(
    model: &ServerLoadModel,
    mut assignment: Vec<usize>,
) -> (Vec<usize>, usize) {
    let mut loads = model.loads_for(&assignment);
    let tol = 1e-12;
    let mut moves = 0usize;
    let max_rounds = 100 * assignment.len().max(1);
    for _ in 0..max_rounds {
        let mut improved = false;
        for (k, slot) in assignment.iter_mut().enumerate() {
            let cur = *slot;
            let cur_cost = model.ell[k][cur] * loads[cur];
            let mut best = (cur, cur_cost);
            for (s, &load) in loads.iter().enumerate() {
                if s == cur {
                    continue;
                }
                let l = model.ell[k][s];
                let cost = l * (load + l);
                if cost < best.1 - tol {
                    best = (s, cost);
                }
            }
            if best.0 != cur {
                loads[cur] -= model.ell[k][cur];
                loads[best.0] += model.ell[k][best.0];
                *slot = best.0;
                moves += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (assignment, moves)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams(n: usize) -> Vec<PlacementStream> {
        (0..n)
            .map(|i| PlacementStream {
                stream: i,
                edge_flops: 1e9 * (1.0 + (i % 5) as f64),
                weight: 1.0 + (i % 3) as f64 * 0.5,
            })
            .collect()
    }

    fn servers() -> Vec<ServerCap> {
        vec![
            ServerCap {
                server: 0,
                capacity_fps: 4e11,
            },
            ServerCap {
                server: 1,
                capacity_fps: 2.6e12,
            },
            ServerCap {
                server: 2,
                capacity_fps: 1e12,
            },
        ]
    }

    #[test]
    fn all_strategies_produce_valid_assignments() {
        for strat in [
            PlacementStrategy::Greedy,
            PlacementStrategy::BestResponse,
            PlacementStrategy::RoundRobin,
        ] {
            let a = place(&streams(20), &servers(), strat);
            assert_eq!(a.len(), 20);
            assert!(a.iter().all(|&s| s < 3), "{strat:?}");
        }
    }

    #[test]
    fn best_response_reaches_nash_equilibrium() {
        let st = streams(25);
        let sv = servers();
        let a = place(&st, &sv, PlacementStrategy::BestResponse);
        let model = ServerLoadModel::new(&st, &sv);
        let loads = model.loads_for(&a);
        // No stream can strictly improve by unilateral deviation.
        for (k, &cur) in a.iter().enumerate() {
            let cur_cost = model.ell[k][cur] * loads[cur];
            for (s, &load) in loads.iter().enumerate() {
                if s == cur {
                    continue;
                }
                let l = model.ell[k][s];
                assert!(
                    l * (load + l) >= cur_cost - 1e-9,
                    "stream {k} would deviate {cur}->{s}"
                );
            }
        }
    }

    #[test]
    fn best_response_moves_decrease_potential() {
        // Start from the worst possible seed (everything on server 0) and
        // verify Φ decreases monotonically by replaying moves.
        let st = streams(15);
        let sv = servers();
        let model = ServerLoadModel::new(&st, &sv);
        let seed = vec![0usize; st.len()];
        let phi0 = model.potential(&seed);
        let (eq, moves) = best_response(&st, &sv, seed);
        assert!(moves > 0);
        assert!(model.potential(&eq) < phi0);
    }

    #[test]
    fn greedy_beats_round_robin_on_heterogeneous_servers() {
        let st = streams(30);
        let sv = servers();
        let model = ServerLoadModel::new(&st, &sv);
        let g = place(&st, &sv, PlacementStrategy::Greedy);
        let rr = place(&st, &sv, PlacementStrategy::RoundRobin);
        assert!(model.objective(&g) <= model.objective(&rr));
    }

    #[test]
    fn best_response_not_worse_than_its_greedy_seed() {
        let st = streams(30);
        let sv = servers();
        let model = ServerLoadModel::new(&st, &sv);
        let g = greedy(&model);
        let (br, _) = best_response(&st, &sv, g.clone());
        assert!(model.objective(&br) <= model.objective(&g) + 1e-9);
    }

    #[test]
    fn fast_servers_attract_more_load() {
        let st = streams(40);
        let sv = servers();
        let a = place(&st, &sv, PlacementStrategy::BestResponse);
        let count = |srv: usize| a.iter().filter(|&&s| s == srv).count();
        // server 1 (2.6 TFLOPS) should host more than server 0 (0.4 TFLOPS)
        assert!(count(1) > count(0), "{:?}", (count(0), count(1), count(2)));
    }

    #[test]
    fn single_server_everything_lands_there() {
        let sv = vec![ServerCap {
            server: 0,
            capacity_fps: 1e12,
        }];
        let a = place(&streams(5), &sv, PlacementStrategy::BestResponse);
        assert!(a.iter().all(|&s| s == 0));
    }

    #[test]
    fn empty_streams_ok() {
        assert!(place(&[], &servers(), PlacementStrategy::Greedy).is_empty());
    }
}
