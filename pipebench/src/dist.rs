//! `dist_podcast`: `DistCover::new(2, DistBackend::Socket)` covers
//! `podcast_catalog(100 000, 2048, 1.0)` to completion.
//!
//! The traced run assembles the same cluster from public parts —
//! `into_sharded(..).into_stores()`, `SocketTransport::unix_pair`,
//! `run_owner` / `run_coordinator` — with a [`Timed`] transport decorator
//! around every endpoint, and must reproduce `DistCover::cover` exactly.

use crate::check::{self, Lists};
use crate::{mean, metric, timed, timed_rounds, Builds, Metric, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use streamcover_comm::cluster::{
    decode_frame, encode_frame, run_coordinator, run_owner, ClusterError, DistCover, DistCoverRun,
    Frame, SocketTransport, Transport,
};
use streamcover_comm::transcript::{Message, Player, Transcript};
use streamcover_core::{
    greedy_cover_until, split_ranges, BatchedSweep, BitSet, CoverResult, SetStore, SetSystem,
    ShardPlan,
};
use streamcover_dist::podcast_catalog;
use streamcover_stream::{DistBackend, Runtime};

const SHOWS: usize = 100_000;
const TOPICS: usize = 2048;
const SIZE_S: f64 = 1.0;
/// Fixed owner count, independent of `STREAMCOVER_WORKERS`.
const OWNERS: usize = 2;

struct Workload {
    sys: SetSystem,
    target: BitSet,
}

fn generate(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD157_C0DE);
    let sys = podcast_catalog(&mut rng, SHOWS, TOPICS, SIZE_S);
    Workload {
        target: BitSet::full(TOPICS),
        sys,
    }
}

fn cover(w: &Workload, backend: DistBackend) -> Result<DistCoverRun, ClusterError> {
    DistCover::new(OWNERS, backend).cover(&w.sys, usize::MAX, &w.target)
}

/// Checks a distributed cover apart from the program: it covers every
/// coverable topic and every pick has the greedy-choice property.
fn check_cover(w: &Workload, ids: &[usize]) -> Result<(), String> {
    let lists = Lists::of(&w.sys);
    let full = lists.full();
    check::cover(&lists, ids, &full, usize::MAX)?;
    check::greedy(&lists, ids, &full, usize::MAX)?;
    check::self_test_greedy_answer(&lists, ids, &full, usize::MAX)
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut builds = Builds::new(|_| generate(seed));
    let first =
        cover(builds.get(), DistBackend::Socket).map_err(|e| format!("warm-up cover: {e}"))?;
    let mut failed = 0u64;
    let times = timed_rounds(seconds, 3, |round| {
        let w = builds.rebuild(round);
        let (run, s) = timed(|| cover(w, DistBackend::Socket));
        match run {
            Ok(run) => {
                check::equal("distributed cover", &run.result, &first.result)?;
                check::equal("wire bits", &run.total_bits(), &first.total_bits())?;
            }
            Err(e) => {
                eprintln!("pipebench: distributed cover failed: {e}");
                failed += 1;
            }
        }
        Ok(s)
    })?;
    let peak_rss = crate::peak_rss_mib();
    check_cover(builds.get(), &first.result.ids)?;
    Ok(Outcome {
        attempted: (times.len() + 1) as u64,
        failed,
        metrics: vec![
            metric("setup_s", builds.setup_s(), "s"),
            metric("run_s", mean(&times), "s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
            metric("cover_sets", first.result.ids.len() as f64, "count"),
            metric("model_bits", first.total_bits() as f64, "bits"),
        ],
    })
}

/// Nanosecond counters shared by the endpoints of one side of the cluster.
#[derive(Default)]
struct SideTimes {
    encode_ns: AtomicU64,
    decode_ns: AtomicU64,
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
    frames: AtomicU64,
}

impl SideTimes {
    fn add(counter: &AtomicU64, since: Instant) {
        counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn secs(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// A transport decorator timing encode, decode, send and receive (the
/// receive time includes waiting for the peer).
struct Timed<T> {
    inner: T,
    times: Arc<SideTimes>,
}

impl<T: Transport> Transport for Timed<T> {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<(), ClusterError> {
        let t = Instant::now();
        let r = self.inner.send_bytes(frame);
        SideTimes::add(&self.times.send_ns, t);
        self.times.frames.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, ClusterError> {
        let t = Instant::now();
        let r = self.inner.recv_bytes();
        SideTimes::add(&self.times.recv_ns, t);
        r
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClusterError> {
        let t = Instant::now();
        let bytes = encode_frame(frame);
        SideTimes::add(&self.times.encode_ns, t);
        self.send_bytes(&bytes)
    }

    fn recv(&mut self) -> Result<Frame, ClusterError> {
        let bytes = self.recv_bytes()?;
        let t = Instant::now();
        let frame = decode_frame(&bytes);
        SideTimes::add(&self.times.decode_ns, t);
        Ok(frame?)
    }
}

/// What the traced cluster hands back.
struct TracedCluster {
    result: CoverResult,
    rounds: usize,
    transcript: Transcript,
    /// The owners' shard arenas.
    stores: Vec<SetStore>,
    /// Counters of the coordinator's and of the owners' endpoints.
    coord_times: Arc<SideTimes>,
    owner_times: Arc<SideTimes>,
    wall_s: f64,
    coord_s: f64,
    owner_s: f64,
}

/// `DistCover::cover` over sockets, assembled from the public cluster
/// parts with every endpoint timed.
fn traced_cluster(w: &Workload) -> Result<TracedCluster, String> {
    let coord_times = Arc::new(SideTimes::default());
    let owner_times = Arc::new(SideTimes::default());
    let start = Instant::now();
    let m = w.sys.len();
    let plan = ShardPlan::BySetRange { shards: OWNERS };
    let owners = plan.shard_count(m, TOPICS);
    let stores = w
        .sys
        .into_sharded_in(Runtime::sequential(), plan)
        .into_stores();
    let bases: Vec<usize> = split_ranges(m, owners)
        .into_iter()
        .map(|r| r.start)
        .collect();
    let mut coord_links: Vec<Box<dyn Transport>> = Vec::new();
    let mut owner_links = Vec::new();
    for _ in 0..owners {
        let (a, b) = SocketTransport::unix_pair().map_err(|e| format!("socket pair: {e}"))?;
        coord_links.push(Box::new(Timed {
            inner: a,
            times: Arc::clone(&coord_times),
        }));
        owner_links.push(Timed {
            inner: b,
            times: Arc::clone(&owner_times),
        });
    }
    let mut transcript = Transcript::new();
    let target = &w.target;
    let (coord, owner_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = owner_links
            .into_iter()
            .zip(stores.iter().zip(&bases))
            .enumerate()
            .map(|(o, (mut link, (store, &base)))| {
                scope.spawn(move || {
                    timed(|| run_owner(&mut link, o as u16, base, store, target, None))
                })
            })
            .collect();
        let coord = timed(|| {
            run_coordinator(
                &mut coord_links,
                TOPICS,
                target,
                usize::MAX,
                &mut transcript,
            )
        });
        drop(coord_links);
        let mut owner_s = 0.0;
        for h in handles {
            let (r, s) = h.join().expect("owner thread panicked");
            r.map_err(|e| format!("owner: {e}"))?;
            owner_s += s;
        }
        Ok::<_, String>((coord, owner_s))
    })?;
    let (coord, coord_s) = coord;
    let (result, rounds) = coord.map_err(|e| format!("coordinator: {e}"))?;
    Ok(TracedCluster {
        result,
        rounds,
        transcript,
        stores,
        coord_times,
        owner_times,
        wall_s: start.elapsed().as_secs_f64(),
        coord_s,
        owner_s,
    })
}

pub fn traced(seed: u64) -> Result<Vec<Metric>, String> {
    let w = generate(seed);
    let (reference, plain_run_s) = timed(|| cover(&w, DistBackend::Socket));
    let reference = reference.map_err(|e| format!("socket cover: {e}"))?;
    check_cover(&w, &reference.result.ids)?;

    let traced = traced_cluster(&w)?;
    let (coord_times, owner_times) = (&traced.coord_times, &traced.owner_times);
    check::equal(
        "traced cluster and DistCover::cover",
        &traced.result,
        &reference.result,
    )?;
    check::equal(
        "traced and DistCover::cover wire bits",
        &traced.transcript.total_bits(),
        &reference.total_bits(),
    )?;
    let frames = traced.transcript.len() as u64;
    let counted =
        coord_times.frames.load(Ordering::Relaxed) + owner_times.frames.load(Ordering::Relaxed);
    check::equal("frames sent and frames logged", &counted, &frames)?;

    // The coordinator encodes and decodes with the wire functions
    // directly, outside any transport: replay its share from the
    // transcript (it encoded the Alice frames and decoded the Bob ones).
    let (mut coord_encode_s, mut coord_decode_s) = (0.0, 0.0);
    for msg in traced.transcript.messages() {
        let Message::Concrete { from, payload, .. } = msg else {
            continue;
        };
        let frame = decode_frame(payload).map_err(|e| format!("logged frame: {e}"))?;
        match from {
            Player::Alice => coord_encode_s += timed(|| encode_frame(&frame).len()).1,
            Player::Bob => coord_decode_s += timed(|| decode_frame(payload).is_ok()).1,
        }
    }

    // One owner's per-round sweeps, replayed against the residual it held.
    let mut uncovered = w.target.clone();
    let mut sweep = BatchedSweep::new();
    let mut shard_gains_s = 0.0;
    for r in 0..traced.rounds {
        shard_gains_s += timed(|| sweep.gains(&traced.stores[0], &uncovered).len()).1;
        if let Some(&id) = traced.result.ids.get(r) {
            uncovered.difference_with_ref(w.sys.set(id));
        }
    }

    let (channel, channel_run_s) = timed(|| cover(&w, DistBackend::InProcess));
    let channel = channel.map_err(|e| format!("channel cover: {e}"))?;
    check::equal(
        "channel and socket covers",
        &channel.result,
        &reference.result,
    )?;
    let (greedy, greedy_s) = timed(|| greedy_cover_until(&w.sys, usize::MAX, &w.target));
    check::equal(
        "greedy and distributed covers",
        &greedy.ids,
        &reference.result.ids,
    )?;

    let owner_recv_s = SideTimes::secs(&owner_times.recv_ns);
    let coord_recv_s = SideTimes::secs(&coord_times.recv_ns);
    Ok(vec![
        metric(
            "wire.encode_s",
            SideTimes::secs(&owner_times.encode_ns) + coord_encode_s,
            "s",
        ),
        metric(
            "wire.decode_s",
            SideTimes::secs(&owner_times.decode_ns) + coord_decode_s,
            "s",
        ),
        metric(
            "transport.send_s",
            SideTimes::secs(&owner_times.send_ns) + SideTimes::secs(&coord_times.send_ns),
            "s",
        ),
        metric("transport.recv_wait_s", owner_recv_s + coord_recv_s, "s"),
        metric("owner.busy_s", traced.owner_s - owner_recv_s, "s"),
        metric("coord.busy_s", traced.coord_s - coord_recv_s, "s"),
        metric("cluster.frames", frames as f64, "count"),
        metric("cluster.rounds", traced.rounds as f64, "count"),
        metric(
            "cluster.bytes_per_pick",
            reference.bytes_per_pick() as f64,
            "bytes",
        ),
        metric("cluster.plain_run_s", plain_run_s, "s"),
        metric("cluster.socket_run_s", traced.wall_s, "s"),
        metric("cluster.channel_run_s", channel_run_s, "s"),
        metric("greedy.seq_s", greedy_s, "s"),
        metric("sweep.shard_gains_s", shard_gains_s, "s"),
    ])
}
