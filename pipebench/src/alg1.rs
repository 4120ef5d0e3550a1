//! `alg1_dsc`: the paper's Algorithm 1 (`HarPeledAssadi::scaled(2, 0.5)`)
//! with its guess grid on one θ=1 and one θ=0 `D_SC` instance, on a
//! 2-worker `Runtime` under `workers(2).guess_workers(2)`.
//!
//! The traced run rebuilds the grid from public parts: every guess runs
//! once through `HarPeledAssadi::run_guess` (timed per guess) and once
//! through a replica of it made of `ParallelPass::threshold_pass` /
//! `store_pass` and `budgeted_cover_of` (timed per layer); both must pick
//! the same sets, and the best guess must equal `run_in`'s solution.

use crate::check::{self, Lists};
use crate::{mean, metric, timed, timed_rounds, Builds, Metric, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamcover_core::{budgeted_cover_of, split_ranges, BitSet, SetId, SetSystem};
use streamcover_dist::{sample_dsc_with_theta, ScParams};
use streamcover_stream::{
    Arrival, CoverRun, ExecPolicy, GuessDriver, HarPeledAssadi, InnerSolver, ParallelPass, Runtime,
    SetCoverStreamer, SetStream, SpaceMeter,
};

/// `D_SC` shape: universe, matched pairs (the instance has twice as many
/// sets), Disj ground set.
const N: usize = 16_384;
const PAIRS: usize = 16;
const T: usize = 32;
/// Instances per round: `BATCH` θ=1 and `BATCH` θ=0 draws, fresh in every
/// round, so that a run's time averages over many draws of the
/// distribution: the exact oracle's cost moves a lot from draw to draw (one
/// θ=0 draw in about thirty costs four times the usual), and with the same
/// 4 + 4 draws in every round the spread of `run_s` over seeds came mostly
/// from the inputs.
const BATCH: usize = 12;
/// Draws of each θ in the traced run.
const TRACE_BATCH: usize = 4;
const ALPHA: usize = 2;
const EPS: f64 = 0.5;
/// Fixed widths, independent of `STREAMCOVER_WORKERS`.
const WORKERS: usize = 2;

fn algo() -> HarPeledAssadi {
    HarPeledAssadi::scaled(ALPHA, EPS)
}

fn policy() -> ExecPolicy {
    ExecPolicy::sequential()
        .workers(WORKERS)
        .guess_workers(WORKERS)
}

/// One generated instance.
struct Instance {
    theta: bool,
    sys: SetSystem,
    /// Seed of the run's own rng (fixed per instance, so runs repeat).
    run_seed: u64,
}

/// The draws of round `round`: draw `i` is seeded from
/// `seed·φ + round·2^32 + i`.
fn generate(seed: u64, round: u64, batch: usize) -> Vec<Instance> {
    let params = ScParams::explicit(N, PAIRS, T);
    (0..batch)
        .flat_map(|_| [true, false])
        .enumerate()
        .map(|(i, theta)| {
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(round << 32)
                    .wrapping_add(i as u64),
            );
            let sys = sample_dsc_with_theta(&mut rng, params, theta).combined();
            Instance {
                theta,
                sys,
                run_seed: rng.gen(),
            }
        })
        .collect()
}

/// The checker's copy of every instance.
fn lists(insts: &[Instance]) -> Vec<Lists> {
    insts.iter().map(|i| Lists::of(&i.sys)).collect()
}

fn run_instance(rt: &Runtime, policy: &ExecPolicy, inst: &Instance) -> CoverRun {
    let mut rng = StdRng::seed_from_u64(inst.run_seed);
    algo().run_in(rt, policy, &inst.sys, Arrival::Adversarial, &mut rng)
}

/// The report fields a round must reproduce exactly.
type Report = Vec<(Vec<SetId>, bool, usize, u64)>;

fn report(runs: &[CoverRun]) -> Report {
    runs.iter()
        .map(|r| (r.solution.clone(), r.feasible, r.passes, r.peak_bits))
        .collect()
}

/// Checks one round's runs against the instances (apart from the program).
fn check_runs(insts: &[Instance], lists: &[Lists], runs: &[CoverRun]) -> Result<(), String> {
    let pass_bound = 2 * ALPHA + 1;
    let size_bound = ((ALPHA as f64 + EPS) * 2.0).floor() as usize;
    for ((inst, lists), run) in insts.iter().zip(lists).zip(runs) {
        let full = lists.full();
        if !run.feasible {
            return Err(format!(
                "θ={}: run reported infeasible",
                u8::from(inst.theta)
            ));
        }
        check::cover(lists, &run.solution, &full, usize::MAX)?;
        check::at_most("passes", run.passes, pass_bound)?;
        if inst.theta {
            check::at_most("θ=1 cover size", run.solution.len(), size_bound)?;
        }
        // Self-tests: each check rejects a corrupted answer.
        check::must_reject(
            "cover",
            check::cover(
                lists,
                &check::drop_essential(lists, &run.solution, &full),
                &full,
                usize::MAX,
            ),
        )?;
        check::must_reject(
            "passes",
            check::at_most("passes", pass_bound + 1, pass_bound),
        )?;
        check::must_reject(
            "θ=1 cover size",
            check::at_most("θ=1 cover size", size_bound + 1, size_bound),
        )?;
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut builds = Builds::new(|round| generate(seed, round, BATCH));
    let rt = Runtime::new(WORKERS);
    let policy = policy();
    let round = |insts: &[Instance]| -> Vec<CoverRun> {
        insts
            .iter()
            .map(|inst| run_instance(&rt, &policy, inst))
            .collect()
    };
    // Warm-up round (round 0), then timed rounds on fresh draws. Every
    // round's outputs are checked in full after the timed phase, on its
    // draws generated again.
    let mut runs = vec![round(builds.get())];
    let times = timed_rounds(seconds, 3, |r| {
        let insts = builds.rebuild(r);
        let (out, s) = timed(|| round(insts));
        runs.push(out);
        Ok(s)
    })?;
    let peak_rss = crate::peak_rss_mib();
    let setup_s = builds.setup_s();
    drop(builds);
    for (r, out) in runs.iter().enumerate() {
        let insts = generate(seed, r as u64, BATCH);
        check_runs(&insts, &lists(&insts), out)?;
    }
    let first = &runs[0];
    Ok(Outcome {
        attempted: (runs.len() * 2 * BATCH) as u64,
        failed: 0,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("run_s", mean(&times), "s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
            metric(
                "cover_sets",
                first.iter().map(|r| r.solution.len()).sum::<usize>() as f64,
                "count",
            ),
            metric(
                "model_bits",
                first.iter().map(|r| r.peak_bits).sum::<u64>() as f64,
                "bits",
            ),
        ],
    })
}

/// Per-layer spans of the replica guess.
#[derive(Default)]
struct Spans {
    threshold_s: f64,
    store_s: f64,
    stored_bits: u64,
    exact_s: f64,
    exact_calls: u64,
    budget_hits: u64,
}

/// `HarPeledAssadi::run_guess` rebuilt from the public pass engine and
/// exact oracle, with a span around each call. Consumes `rng` exactly as
/// `run_guess` does, so it picks the same sets.
fn replica_guess(
    rt: &Runtime,
    policy: &ExecPolicy,
    stream: &mut SetStream<'_>,
    meter: &SpaceMeter,
    rng: &mut StdRng,
    k: usize,
    spans: &mut Spans,
) -> Option<Vec<SetId>> {
    let a = algo();
    let InnerSolver::Exact { node_budget } = a.solver else {
        unreachable!("the scaled configuration uses the exact oracle")
    };
    let (n, m) = (stream.universe(), stream.num_sets());
    let engine = ParallelPass::from_policy(rt, policy);
    let mut u = BitSet::full(n);
    let mut sol: Vec<SetId> = Vec::new();
    let threshold = ((n as f64) / (a.eps * k as f64)).ceil().max(1.0) as usize;
    let (_, s) =
        timed(|| engine.threshold_pass(stream, &mut u, threshold, meter, |i, _| sol.push(i)));
    spans.threshold_s += s;
    let p = a.sample_rate(n, m, k);
    for _round in 0..a.alpha {
        if u.is_empty() {
            break;
        }
        let mut u_smpl = BitSet::new(n);
        for e in u.iter() {
            if rng.gen_bool(p) {
                u_smpl.insert(e);
            }
        }
        let ((arrival_ids, projected, bits), s) =
            timed(|| engine.store_pass(stream, meter, Some((&u_smpl, policy.accounting))));
        spans.store_s += s;
        spans.stored_bits += bits;
        let ((ids, complete), s) = timed(|| budgeted_cover_of(&projected, &u_smpl, node_budget));
        spans.exact_s += s;
        spans.exact_calls += 1;
        spans.budget_hits += u64::from(!complete);
        let ids = ids
            .ok()
            .filter(|ids| ids.len() <= k && u_smpl.is_subset_of(&projected.coverage(ids)))?;
        let picks: Vec<SetId> = ids.into_iter().map(|j| arrival_ids[j]).collect();
        for (i, s) in stream.pass() {
            if picks.contains(&i) {
                u.difference_with_ref(s);
            }
        }
        sol.extend(picks);
    }
    u.is_empty().then_some(sol)
}

/// The guess driver's per-guess seed split (SplitMix64 finalizer over the
/// caller's one draw and the grid position).
fn split_seed(base: u64, idx: usize) -> u64 {
    let mut z = base ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn traced(seed: u64) -> Result<Vec<Metric>, String> {
    let insts = generate(seed, 0, TRACE_BATCH);
    let rt = Runtime::new(WORKERS);
    let policy = policy();
    let a = algo();

    let (pool_runs, pool_run_s) = timed(|| {
        insts
            .iter()
            .map(|i| run_instance(&rt, &policy, i))
            .collect::<Vec<_>>()
    });
    check_runs(&insts, &lists(&insts), &pool_runs)?;
    let (seq_runs, seq_run_s) = timed(|| {
        insts
            .iter()
            .map(|i| run_instance(Runtime::sequential(), &ExecPolicy::sequential(), i))
            .collect::<Vec<_>>()
    });
    check::equal(
        "2-worker and sequential reports",
        &report(&pool_runs),
        &report(&seq_runs),
    )?;
    let mut corrupted = report(&seq_runs);
    corrupted[0].0.push(0);
    check::must_reject(
        "2-worker and sequential reports",
        check::equal("reports", &report(&pool_runs), &corrupted),
    )?;

    let (mut guesses, mut feasible, mut guess_s, mut chunk_max_s) = (0usize, 0usize, 0.0, 0.0);
    let mut spans = Spans::default();
    for (inst, run) in insts.iter().zip(&pool_runs) {
        let grid = GuessDriver::new(a.eps).guesses(inst.sys.universe(), inst.sys.len());
        let base: u64 = StdRng::seed_from_u64(inst.run_seed).gen();
        let mut per_guess = Vec::with_capacity(grid.len());
        let mut best: Option<Vec<SetId>> = None;
        for (gi, &k) in grid.iter().enumerate() {
            let fresh = || {
                (
                    SetStream::new(&inst.sys, Arrival::Adversarial),
                    SpaceMeter::new(),
                    StdRng::seed_from_u64(split_seed(base, gi)),
                )
            };
            let (mut stream, meter, mut rng) = fresh();
            let (sol, s) = timed(|| a.run_guess(&rt, &policy, &mut stream, &meter, &mut rng, k));
            per_guess.push(s);
            let (mut stream, meter, mut rng) = fresh();
            let replica = replica_guess(&rt, &policy, &mut stream, &meter, &mut rng, k, &mut spans);
            check::equal("run_guess and its traced replica", &sol, &replica)?;
            if let Some(sol) = sol {
                feasible += 1;
                if best.as_ref().is_none_or(|b| sol.len() < b.len()) {
                    best = Some(sol);
                }
            }
        }
        check::equal(
            "traced grid and run_in solutions",
            &best.as_ref(),
            &Some(&run.solution),
        )?;
        guesses += grid.len();
        guess_s += per_guess.iter().sum::<f64>();
        chunk_max_s += split_ranges(grid.len(), WORKERS)
            .into_iter()
            .map(|r| per_guess[r].iter().sum::<f64>())
            .fold(0.0, f64::max);
    }
    Ok(vec![
        metric("grid.guesses", guesses as f64, "count"),
        metric("grid.feasible_guesses", feasible as f64, "count"),
        metric("grid.guess_s", guess_s, "s"),
        metric("grid.chunk_max_s", chunk_max_s, "s"),
        metric(
            "grid.passes",
            pool_runs.iter().map(|r| r.passes).sum::<usize>() as f64,
            "count",
        ),
        metric("pass.threshold_s", spans.threshold_s, "s"),
        metric("pass.store_s", spans.store_s, "s"),
        metric("pass.stored_bits", spans.stored_bits as f64, "bits"),
        metric("oracle.exact_s", spans.exact_s, "s"),
        metric("oracle.calls", spans.exact_calls as f64, "count"),
        metric("oracle.budget_hits", spans.budget_hits as f64, "count"),
        metric("runtime.pool_run_s", pool_run_s, "s"),
        metric("runtime.seq_run_s", seq_run_s, "s"),
    ])
}
