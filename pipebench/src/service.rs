//! `service_zipf`: one closed-loop client sends a scripted session to
//! `CoverService::with(system, Runtime::sequential(), ExecPolicy::sequential())`
//! on a planted instance: `zipf_query_mix` `cover_for_subset` queries,
//! `max_cover(k)` queries interleaved every `MAX_EVERY` requests, and an
//! `add_set` / `remove_set` commit every `MUTATE_EVERY` requests.
//!
//! The script is fixed by the seed and every round replays it on a fresh
//! service, so hits and computed queries repeat exactly from round to
//! round. The traced run classifies each request by its `ServiceStats`
//! delta and replays the computed ones through `CelfHeap::seed` /
//! `next_pick` and `BatchedSweep::gains` on a mirror of the resident
//! system.

use crate::check::{self, Lists};
use crate::{mean, median, metric, quantile, timed, timed_rounds, Builds, Metric, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use streamcover_core::{random_subset_elems, BatchedSweep, BitSet, CelfHeap, SetId, SetSystem};
use streamcover_dist::{planted_cover, zipf_query_mix};
use streamcover_stream::{CoverAnswer, CoverService, ExecPolicy, Runtime};

/// Planted instance: universe, sets, planted cover size.
const N: usize = 4096;
const M: usize = 2048;
const OPT: usize = 16;
/// Query pool: distinct targets, target sizes, Zipf exponent.
const DISTINCT: usize = 512;
const TARGET_LO: usize = 128;
const TARGET_HI: usize = 128;
const ZIPF_S: f64 = 1.0;
/// Session shape.
const REQUESTS: usize = 500;
/// Sessions per round, each on its own instance and script, so that one
/// round's time averages over several draws of the inputs (a session's
/// cost follows its instance and script: with 3 sessions of 1000 requests
/// two runs of one seed differed by 0–13 % and seeds by up to 40 %).
const SESSIONS: usize = 6;
const MAX_EVERY: usize = 10;
const MUTATE_EVERY: usize = 50;
const MAX_KS: [usize; 4] = [4, 8, 16, 32];
/// Elements of a set the client adds.
const ADD_SIZE: usize = N / (2 * OPT);
/// Every `CHECK_EVERY`-th cover answer of the first session is checked for
/// the greedy-choice property (every answer is checked for coverage).
const CHECK_EVERY: usize = 25;
/// Sessions in the traced run (enough computed requests for a p99).
const TRACE_SESSIONS: usize = 3;

#[derive(Clone, Debug)]
enum Op {
    Cover(Vec<u32>),
    Max(usize),
    Add(Vec<u32>),
    Remove(SetId),
}

#[derive(Clone, Debug, PartialEq)]
enum Reply {
    Cover(CoverAnswer),
    Added(u64, SetId),
    Removed(u64),
}

struct Workload {
    system: SetSystem,
    script: Vec<Op>,
}

fn generate_session(seed: u64, session: usize) -> Workload {
    let mut rng =
        StdRng::seed_from_u64((seed ^ 0x5E41_1CE5).wrapping_add(session as u64 * 0x9E37_79B9));
    let planted = planted_cover(&mut rng, N, M, OPT);
    let mix = zipf_query_mix(&mut rng, N, DISTINCT, TARGET_LO, TARGET_HI, ZIPF_S);
    let mut live: Vec<SetId> = (0..M).collect();
    let mut script = Vec::with_capacity(REQUESTS);
    for r in 1..=REQUESTS {
        let op = if r.is_multiple_of(MUTATE_EVERY) {
            if (r / MUTATE_EVERY) % 2 == 1 {
                Op::Add(random_subset_elems(&mut rng, N, ADD_SIZE))
            } else {
                Op::Remove(live.swap_remove(rng.gen_range(0..live.len())))
            }
        } else if r.is_multiple_of(MAX_EVERY) {
            Op::Max(MAX_KS[(r / MAX_EVERY) % MAX_KS.len()])
        } else {
            Op::Cover(mix.draw(&mut rng).1.to_vec())
        };
        script.push(op);
    }
    Workload {
        system: planted.system,
        script,
    }
}

fn serve(svc: &CoverService, op: &Op) -> Reply {
    match op {
        Op::Cover(t) => Reply::Cover(svc.cover_for_subset(t)),
        Op::Max(k) => Reply::Cover(svc.max_cover(*k)),
        Op::Add(e) => {
            let (epoch, id) = svc.add_set(e);
            Reply::Added(epoch, id)
        }
        Op::Remove(id) => Reply::Removed(svc.remove_set(*id)),
    }
}

fn fresh_service(w: &Workload) -> CoverService {
    CoverService::with(
        w.system.clone(),
        Runtime::sequential(),
        ExecPolicy::sequential(),
    )
}

/// Checks a whole session's replies against the checker's element lists,
/// which it mutates in step with the script.
fn check_session(w: &Workload, replies: &[Reply]) -> Result<(), String> {
    let mut lists = Lists::of(&w.system);
    let mut tested = false;
    let mut covers = 0usize;
    for (op, reply) in w.script.iter().zip(replies) {
        match (op, reply) {
            (Op::Cover(_) | Op::Max(_), Reply::Cover(a)) => {
                let (target, budget) = match op {
                    Op::Cover(t) => (lists.mask(t), usize::MAX),
                    Op::Max(k) => (lists.full(), *k),
                    _ => unreachable!(),
                };
                let covered = check::cover(&lists, &a.solution, &target, budget)?;
                check::equal("covered count", &a.covered, &covered)?;
                let want = target.iter().filter(|&&t| t).count();
                check::equal("feasible flag", &a.feasible, &(covered == want))?;
                if covers.is_multiple_of(CHECK_EVERY) {
                    check::greedy(&lists, &a.solution, &target, budget)?;
                    if !tested && !a.solution.is_empty() {
                        check::self_test_greedy_answer(&lists, &a.solution, &target, budget)?;
                        tested = true;
                    }
                }
                covers += 1;
            }
            (Op::Add(e), Reply::Added(_, id)) => {
                check::equal("added id", id, &lists.sets.len())?;
                let mut canon = e.clone();
                canon.sort_unstable();
                canon.dedup();
                lists.sets.push(canon);
            }
            (Op::Remove(id), Reply::Removed(_)) => lists.sets[*id].clear(),
            _ => return Err(format!("reply {reply:?} does not answer {op:?}")),
        }
    }
    if !tested {
        return Err("no nonempty answer to self-test the checks on".into());
    }
    Ok(())
}

/// Checks the one-client identity `coalesced = 0`, and that the check can fail.
fn check_coalesced(coalesced: u64) -> Result<(), String> {
    check::equal("service.coalesced", &coalesced, &0)?;
    check::must_reject("service.coalesced", check::equal("coalesced", &1u64, &0))
}

fn cover_sets(replies: &[Reply]) -> usize {
    replies
        .iter()
        .map(|r| match r {
            Reply::Cover(a) => a.solution.len(),
            _ => 0,
        })
        .sum()
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut builds = Builds::new(|_| {
        (0..SESSIONS)
            .map(|i| {
                let w = generate_session(seed, i);
                let svc = fresh_service(&w);
                (w, svc)
            })
            .collect::<Vec<_>>()
    });
    let session = |w: &Workload, svc: &CoverService, replies: &mut Vec<Reply>| {
        replies.clear();
        replies.extend(w.script.iter().map(|op| serve(svc, op)));
    };
    // Warm-up sessions on the set-up services: checked in full after the
    // timed phase; timed rounds, each on a fresh build, must reproduce them.
    let mut first = vec![Vec::new(); SESSIONS];
    for ((w, svc), replies) in builds.get().iter().zip(&mut first) {
        session(w, svc, replies);
    }
    let coalesced: Vec<u64> = builds
        .get()
        .iter()
        .map(|(_, s)| s.stats().coalesced)
        .collect();
    let model_bits: u64 = builds
        .get()
        .iter()
        .map(|(_, s)| s.snapshot().stored_bits())
        .sum();
    let mut replies = vec![Vec::new(); SESSIONS];
    let times = timed_rounds(seconds, 3, |round| {
        let built = builds.rebuild(round);
        let t = Instant::now();
        for ((w, svc), r) in built.iter().zip(&mut replies) {
            session(w, svc, r);
        }
        let s = t.elapsed().as_secs_f64();
        check::equal("session replies", &replies, &first)?;
        for (_, svc) in built {
            check::equal("service.coalesced", &svc.stats().coalesced, &0)?;
        }
        Ok(s)
    })?;
    let peak_rss = crate::peak_rss_mib();
    for ((w, _), replies) in builds.get().iter().zip(&first) {
        check_session(w, replies)?;
    }
    for c in coalesced {
        check_coalesced(c)?;
    }
    Ok(Outcome {
        attempted: ((times.len() + 1) * SESSIONS * REQUESTS) as u64,
        failed: 0,
        metrics: vec![
            metric("setup_s", builds.setup_s(), "s"),
            metric("run_s", mean(&times), "s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
            metric(
                "cover_sets",
                first.iter().map(|r| cover_sets(r)).sum::<usize>() as f64,
                "count",
            ),
            metric("model_bits", model_bits as f64, "bits"),
        ],
    })
}

/// The service's max-cover chain, replayed: one CELF heap per epoch,
/// extended on demand.
struct Chain {
    epoch: u64,
    heap: CelfHeap,
    uncovered: BitSet,
    picks: Vec<SetId>,
}

pub fn traced(seed: u64) -> Result<Vec<Metric>, String> {
    let w = generate_session(seed, 0);
    let (mut hit_us, mut computed_us, mut mutation_us, mut all_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut seed_s, mut pick_s, mut gains_s, mut picks) = (0.0, 0.0, 0.0, 0usize);
    let mut stats = None;
    for _ in 0..TRACE_SESSIONS {
        let svc = fresh_service(&w);
        let mut mirror = w.system.clone();
        let mut chain: Option<Chain> = None;
        let mut sweep = BatchedSweep::new();
        for op in &w.script {
            let before = svc.stats();
            let t = Instant::now();
            let reply = serve(&svc, op);
            let us = t.elapsed().as_secs_f64() * 1e6;
            let after = svc.stats();
            all_us.push(us);
            if after.mutations > before.mutations {
                mutation_us.push(us);
                match op {
                    Op::Add(e) => {
                        let mut canon = e.clone();
                        canon.sort_unstable();
                        canon.dedup();
                        mirror.add_set(&canon);
                    }
                    Op::Remove(id) => mirror.remove_set(*id),
                    _ => return Err(format!("{op:?} counted as a mutation")),
                }
                continue;
            }
            if after.cache_hits > before.cache_hits {
                hit_us.push(us);
                continue;
            }
            if after.computed == before.computed {
                return Err(format!("{op:?} was neither a hit, computed nor a mutation"));
            }
            computed_us.push(us);
            let Reply::Cover(answer) = reply else {
                return Err(format!("{op:?} computed a non-cover reply"));
            };
            // Replay the computed request through the layers below.
            let n = mirror.universe();
            let replayed = match op {
                Op::Cover(target) => {
                    let tb = BitSet::from_iter(n, target.iter().map(|&e| e as usize));
                    gains_s += timed(|| sweep.gains(mirror.store(), &tb).len()).1;
                    let (mut heap, s) = timed(|| CelfHeap::seed(&mirror, &tb));
                    seed_s += s;
                    let mut uncovered = tb;
                    let mut ids = Vec::new();
                    let t = Instant::now();
                    while let Some(i) = heap.next_pick(&mirror, &uncovered) {
                        uncovered.difference_with_ref(mirror.set(i));
                        ids.push(i);
                        if uncovered.is_empty() {
                            break;
                        }
                    }
                    pick_s += t.elapsed().as_secs_f64();
                    picks += ids.len();
                    ids
                }
                Op::Max(k) => {
                    let epoch = mirror.epoch();
                    if chain.as_ref().is_none_or(|c| c.epoch != epoch) {
                        let full = BitSet::full(n);
                        gains_s += timed(|| sweep.gains(mirror.store(), &full).len()).1;
                        let (heap, s) = timed(|| CelfHeap::seed(&mirror, &full));
                        seed_s += s;
                        chain = Some(Chain {
                            epoch,
                            heap,
                            uncovered: full,
                            picks: Vec::new(),
                        });
                    }
                    let c = chain.as_mut().expect("chain just seeded");
                    let t = Instant::now();
                    while c.picks.len() < *k && !c.uncovered.is_empty() {
                        let Some(i) = c.heap.next_pick(&mirror, &c.uncovered) else {
                            break;
                        };
                        c.uncovered.difference_with_ref(mirror.set(i));
                        c.picks.push(i);
                        picks += 1;
                    }
                    pick_s += t.elapsed().as_secs_f64();
                    c.picks[..c.picks.len().min(*k)].to_vec()
                }
                _ => return Err(format!("{op:?} computed a cover reply")),
            };
            check::equal(
                "traced CELF replay and service answer",
                &replayed,
                &answer.solution,
            )?;
        }
        let s = svc.stats();
        check::equal(
            "queries = hits + coalesced + computed",
            &s.queries,
            &(s.cache_hits + s.coalesced + s.computed),
        )?;
        check_coalesced(s.coalesced)?;
        stats = Some(s);
    }
    let s = stats.expect("at least one traced session");
    Ok(vec![
        metric("service.hits", s.cache_hits as f64, "count"),
        metric("service.computed", s.computed as f64, "count"),
        metric("service.mutations", s.mutations as f64, "count"),
        metric("service.coalesced", s.coalesced as f64, "count"),
        metric("service.hit_p50_us", median(&hit_us), "us"),
        metric("service.mutation_p50_us", median(&mutation_us), "us"),
        metric("service.computed_p50_us", median(&computed_us), "us"),
        metric(
            "service.computed_p99_us",
            quantile(&computed_us, 0.99),
            "us",
        ),
        metric("service.query_p99_us", quantile(&all_us, 0.99), "us"),
        metric(
            "service.serve_s",
            all_us.iter().sum::<f64>() * 1e-6 / TRACE_SESSIONS as f64,
            "s",
        ),
        metric("celf.seed_s", seed_s / TRACE_SESSIONS as f64, "s"),
        metric("celf.pick_s", pick_s / TRACE_SESSIONS as f64, "s"),
        metric("celf.picks", (picks / TRACE_SESSIONS) as f64, "count"),
        metric("sweep.store_gains_s", gains_s / TRACE_SESSIONS as f64, "s"),
    ])
}
