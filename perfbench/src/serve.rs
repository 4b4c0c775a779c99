//! `solve_service`: `POST /v1/solve` over loopback against an in-process
//! `impatience_serve::Server` — open loop at a reference rate for
//! latency, closed loop on `nproc` connections for throughput.
//!
//! The mix is modelled on `serve_loadtest` plus a share of misses; there
//! is no production traffic to copy. Most requests re-solve a drifted
//! demand on one of two warm shapes (50 and 1000 items: pool hits), a
//! minority name a shape never seen before (misses: a cold
//! `DeltaSolver::try_new`), and a minority ask for bounded staleness
//! (`stale_eps`: a certificate from the relaxed water-filling).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use impatience_core::demand::{DemandRates, Popularity};
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::incremental::{Delta, DeltaSolver};
use impatience_core::solver::relaxed::relaxed_optimum;
use impatience_core::types::SystemModel;
use impatience_core::utility::{parse_utility, DelayUtility};
use impatience_core::welfare::social_welfare_homogeneous;
use impatience_json::Json;
use impatience_serve::{ServeConfig, Server, SolveRequest, SolverPool};

use crate::host;
use crate::openloop::{self, Sample};
use crate::report::{median, quiet_median, tail_percentile, time_setup, Report};
use crate::spans::Tracer;
use crate::Ctx;

/// The latency limit on p99 that a sustained rate must meet. It sits
/// well above the p99 of a quiet host at the reference rate (about
/// 11 ms), so the search finds where queueing takes off, not where the
/// hypervisor's scheduling stalls of a few milliseconds reach 1 %.
pub const P99_LIMIT_MS: f64 = 100.0;
/// The fixed rate at which p50 and p99 are reported.
pub const REFERENCE_RPS: f64 = 400.0;
/// The rate ladder searched for the sustained rate: 5 % steps from 200
/// to ~98 000 requests per second. 128 steps make every binary search
/// exactly seven probes, so a run sends the same number of requests
/// whatever rate it finds.
const LADDER_BASE_RPS: f64 = 200.0;
const LADDER_RATIO: f64 = 1.05;
const LADDER_STEPS: usize = 128;
/// Rounds of (reference step, closed-loop burst) in an untraced run.
const ROUNDS: usize = 7;
/// Spare server set-ups timed before each round.
const SETUPS_PER_ROUND: usize = 5;
/// The lowest rate, at which the HTTP round trip is read unloaded.
const LOW_RPS: f64 = 50.0;

const NODES: usize = 50;
const RHO: usize = 5;
const MU: f64 = 0.05;
const UTILITY: &str = "step:10";
/// Catalog sizes of the two warm shapes.
const WARM_ITEMS: [usize; 2] = [50, 1000];
/// Catalog sizes of the fresh (miss) shapes.
const MISS_ITEMS: [usize; 2] = [50, 200];
const STALE_EPS: f64 = 0.02;
/// Demand variants pre-rendered per warm shape.
const VARIANTS: usize = 256;
/// One reply in this many is re-solved from scratch and compared.
const CHECK_EVERY: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hit,
    Miss,
    Stale,
}

/// The seeded request mix: pre-rendered demand vectors and the kind and
/// shape of request `i`, a pure function of `(seed, i)`.
pub struct Mix {
    seed: u64,
    /// `demands[shape][variant]` as JSON array text.
    demands: Vec<Vec<String>>,
    miss_demands: Vec<String>,
}

fn render(rates: &[f64]) -> String {
    Json::Array(rates.iter().map(|&r| Json::from(r)).collect()).to_string()
}

/// Pareto(ω = 1) demand with a handful of items drifted by a factor in
/// [0.5, 2].
fn drifted(items: usize, rng: &mut Xoshiro256) -> Vec<f64> {
    let mut rates = Popularity::pareto(items, 1.0)
        .demand_rates(1.0)
        .rates()
        .to_vec();
    for _ in 0..1 + rng.index(8) {
        let i = rng.index(items);
        rates[i] *= rng.range(0.5, 2.0);
    }
    rates
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5E7E_D0C5);
        let demands = WARM_ITEMS
            .iter()
            .map(|&n| {
                (0..VARIANTS)
                    .map(|_| render(&drifted(n, &mut rng)))
                    .collect()
            })
            .collect();
        let miss_demands = MISS_ITEMS
            .iter()
            .map(|&n| render(&drifted(n, &mut rng)))
            .collect();
        Mix {
            seed,
            demands,
            miss_demands,
        }
    }

    /// Kind and body of request `i`: 80 % drift hits, 10 % misses, 10 %
    /// stale-tolerant re-solves.
    pub fn request(&self, i: usize) -> (Kind, String) {
        let mut rng =
            Xoshiro256::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roll = rng.f64();
        let shape = rng.index(WARM_ITEMS.len());
        let variant = rng.index(VARIANTS);
        let head = format!(r#"{{"nodes":{NODES},"rho":{RHO},"utility":"{UTILITY}""#);
        if roll < 0.10 {
            // A contact rate no earlier request used: a shape the pool
            // has never seen.
            let mu = MU * (1.0 + (i as f64 + 1.0) * 1e-7);
            let demand = &self.miss_demands[i % MISS_ITEMS.len()];
            (
                Kind::Miss,
                format!(r#"{head},"mu":{mu},"demand":{demand}}}"#),
            )
        } else if roll < 0.20 {
            let demand = &self.demands[shape][variant];
            (
                Kind::Stale,
                format!(r#"{head},"mu":{MU},"stale_eps":{STALE_EPS},"demand":{demand}}}"#),
            )
        } else {
            let demand = &self.demands[shape][variant];
            (
                Kind::Hit,
                format!(r#"{head},"mu":{MU},"demand":{demand}}}"#),
            )
        }
    }
}

/// POST `body` to `/v1/solve` on a fresh connection; returns the status
/// and the reply body.
fn post(addr: SocketAddr, body: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    let head = format!(
        "POST /v1/solve HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply)?;
    let status = reply.get(9..12).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = reply
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

/// What the load steps keep per request.
#[derive(Default)]
struct Outcomes {
    /// HTTP status per request, 0 when the connection failed.
    statuses: Vec<u16>,
    /// `(index, body)` of every `CHECK_EVERY`-th reply and every stale one.
    kept: Vec<(usize, String)>,
    hits: u64,
    replies: u64,
}

struct Step {
    samples: Vec<Sample>,
    outcomes: Outcomes,
}

impl Step {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency() * 1e3).collect()
    }

    /// Does the step meet the latency limit without a growing backlog?
    /// The backlog grows when more than 5 % of the step's requests are
    /// still queued when the last one falls due.
    fn sustained(&self, senders: usize) -> bool {
        let (_, last) = openloop::backlog(&self.samples);
        let p99 = tail_percentile(&self.latencies_ms(), 0.99).unwrap_or(f64::INFINITY);
        p99 <= P99_LIMIT_MS && last <= (4 * senders).max(self.samples.len() / 20)
    }
}

/// Run `count` requests from `first` on at `rate`, one span per request
/// when `tracer` is on.
fn step(
    ctx: &Ctx,
    tracer: &Tracer,
    addr: SocketAddr,
    mix: &Mix,
    first: usize,
    rate: f64,
    count: usize,
) -> Step {
    let outcomes = Mutex::new(Outcomes::default());
    let samples = openloop::run(rate, count, ctx.nproc, |k| {
        let i = first + k;
        let (kind, body) = mix.request(i);
        let (reply, _) = tracer.span("serve.http.roundtrip", 0, i as u64 + 1, |_| {
            post(addr, &body)
        });
        let mut out = outcomes.lock().expect("outcomes poisoned");
        match reply {
            Ok((status, text)) => {
                out.statuses.push(status);
                if status != 200 {
                    return false;
                }
                out.replies += 1;
                if text.contains(r#""pool":"hit""#) {
                    out.hits += 1;
                }
                if i.is_multiple_of(CHECK_EVERY) || kind == Kind::Stale {
                    out.kept.push((i, text));
                }
                true
            }
            Err(_) => {
                out.statuses.push(0);
                false
            }
        }
    });
    Step {
        samples,
        outcomes: outcomes.into_inner().expect("outcomes poisoned"),
    }
}

/// Requests in a step of `seconds` at `rate`; p99 needs ten samples
/// beyond it, so never fewer than 1000.
fn requests_for(rate: f64, seconds: f64) -> usize {
    ((rate * seconds) as usize).max(1_000)
}

fn parse_demand(body: &Json) -> Option<Vec<f64>> {
    body.get("demand")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Check kept replies: exact ones against a scratch greedy solve of the
/// same demand, certified-stale ones against their own eps.
fn check_replies(mix: &Mix, kept: &[(usize, String)], report: &mut Report) {
    let utility: Arc<dyn DelayUtility> = parse_utility(UTILITY).expect("a valid utility");
    for (i, text) in kept {
        let (_, body) = mix.request(*i);
        let request = Json::parse(&body).expect("the generator writes valid JSON");
        let reply = match Json::parse(text) {
            Ok(r) => r,
            Err(_) => {
                report.check(&format!("reply {i} is JSON"), false);
                continue;
            }
        };
        if reply.get("outcome").and_then(Json::as_str) == Some("certified_stale") {
            let cert = reply.get("certificate");
            let field = |k: &str| cert.and_then(|c| c.get(k)).and_then(Json::as_f64);
            let accepted = cert.and_then(|c| c.get("accepted")).and_then(Json::as_bool);
            let ok = accepted == Some(true)
                && matches!((field("gap"), field("eps")), (Some(g), Some(e)) if g <= e);
            report.check(&format!("reply {i}: certified gap within eps"), ok);
            continue;
        }
        if !i.is_multiple_of(CHECK_EVERY) {
            continue;
        }
        let demand = parse_demand(&request).expect("the generator writes a demand");
        let mu = request.get("mu").and_then(Json::as_f64).expect("a mu");
        let system = SystemModel::pure_p2p(NODES, RHO, mu);
        let rates = DemandRates::new(demand);
        let scratch = greedy_homogeneous(&system, &rates, utility.as_ref());
        let counts: Option<Vec<u32>> = reply
            .get("counts")
            .and_then(Json::as_array)
            .and_then(|a| a.iter().map(|c| c.as_u64().map(|c| c as u32)).collect());
        let welfare = reply.get("welfare").and_then(Json::as_f64);
        let expected: Vec<f64> = scratch.counts().iter().map(|&c| f64::from(c)).collect();
        let want = social_welfare_homogeneous(&system, &rates, utility.as_ref(), &expected);
        let ok = counts.as_deref() == Some(scratch.counts())
            && welfare.is_some_and(|w| (w - want).abs() <= 1e-9 * want.abs().max(1.0));
        report.check(&format!("reply {i} matches a scratch greedy solve"), ok);
    }
}

fn start_server(ctx: &Ctx, run: usize) -> Result<Server, String> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: ctx.tmp.join(format!("serve-{run}")),
        http_threads: ctx.nproc,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))
}

/// Warm the pool: every warm shape, `nproc` solvers each.
fn warm_up(ctx: &Ctx, addr: SocketAddr, mix: &Mix) -> Result<(), String> {
    for shape in 0..WARM_ITEMS.len() {
        let body = format!(
            r#"{{"nodes":{NODES},"rho":{RHO},"utility":"{UTILITY}","mu":{MU},"demand":{}}}"#,
            mix.demands[shape][0]
        );
        let statuses: Vec<std::io::Result<(u16, String)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.nproc)
                .map(|_| scope.spawn(|| post(addr, &body)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up thread panicked"))
                .collect()
        });
        for s in statuses {
            match s {
                Ok((200, _)) => {}
                other => return Err(format!("pool warm-up failed: {other:?}")),
            }
        }
    }
    Ok(())
}

/// Highest ladder rate that is sustained: binary search over the fixed
/// ladder (sustained-ness is taken to be monotone in the rate).
fn sustained_rps(
    ctx: &Ctx,
    addr: SocketAddr,
    mix: &Mix,
    next: &mut usize,
    probe: usize,
    report: &mut Report,
) -> Option<f64> {
    let rate = |k: usize| LADDER_BASE_RPS * LADDER_RATIO.powi(k as i32);
    let mut best = None;
    let (mut low, mut high) = (0, LADDER_STEPS);
    while low < high {
        let mid = (low + high) / 2;
        let s = step(ctx, &ctx.tracer, addr, mix, *next, rate(mid), probe);
        *next += probe;
        count_ops(&s, report);
        if s.sustained(ctx.nproc) {
            best = Some(mid);
            low = mid + 1;
        } else {
            high = mid;
        }
    }
    best.map(rate)
}

fn count_ops(s: &Step, report: &mut Report) {
    let failed = s.samples.iter().filter(|x| !x.ok).count();
    report.ops(s.samples.len() as u64, failed as u64);
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mix = Mix::new(ctx.seed);

    // Set-up: server start plus pool warm-up, several times; the last
    // server carries the load.
    let prepare = |run: usize| -> Result<Server, String> {
        let s = start_server(ctx, run)?;
        warm_up(ctx, s.addr(), &mix)?;
        Ok(s)
    };
    let mut setups = Vec::new();
    let server = time_setup(&mut setups, || prepare(0))?;
    let addr = server.addr();
    let mut next = 0;

    if ctx.traced {
        traced(ctx, addr, &mix, &mut next, report);
    } else {
        // Seven rounds, each a reference step then a closed-loop burst,
        // so a burst of host noise spoils one round, not the result: every
        // metric is the median over the quiet rounds. Request counts
        // depend on the budget only; a reference step needs no tail, so
        // it may hold fewer than 1000 requests.
        let count = ((REFERENCE_RPS * ctx.seconds * 0.08) as usize).max(200);
        let burst = ((150.0 * ctx.seconds) as usize).max(200);
        let (mut p50, mut rps) = (Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            // Set up spare servers between rounds, so the set-up samples
            // spread over the run.
            for k in 0..SETUPS_PER_ROUND {
                time_setup(&mut setups, || prepare(1 + round * SETUPS_PER_ROUND + k))?;
            }
            let ticks = host::cpu_ticks();
            let reference = step(ctx, &ctx.tracer, addr, &mix, next, REFERENCE_RPS, count);
            let steal = host::steal_since(ticks);
            next += count;
            count_ops(&reference, report);
            check_replies(&mix, &reference.outcomes.kept, report);
            let lat = reference.latencies_ms();
            p50.push((median(&lat), steal));
            let p99 = tail_percentile(&lat, 0.99)
                .map_or("too few samples".to_string(), |p| format!("{p:.3} ms"));
            // Closed loop: `nproc` connections, each sending its next
            // request when the reply to the last one is in.
            let ticks = host::cpu_ticks();
            let closed = step(ctx, &ctx.tracer, addr, &mix, next, f64::INFINITY, burst);
            let steal = host::steal_since(ticks);
            next += burst;
            count_ops(&closed, report);
            check_replies(&mix, &closed.outcomes.kept, report);
            let wall = closed.samples.iter().map(|x| x.done).fold(0.0, f64::max);
            rps.push((burst as f64 / wall, steal));
            println!(
                "round {round}: {count} requests at {REFERENCE_RPS}/s: p50 {:.3} ms, p99 {p99}, \
                 steal {:.3}; {burst} requests closed-loop: {:.0}/s, steal {steal:.3}",
                p50[round].0, p50[round].1, rps[round].0
            );
        }
        report.set("setup_s", median(&setups));
        report.set("op_p50_ms", quiet_median(&p50));
        report.set("work_per_s", quiet_median(&rps));
    }
    server.shutdown();
    Ok(())
}

/// Per-layer metrics: each layer's public functions timed in process on
/// the same mix, plus the HTTP steps with a span per request.
fn traced(ctx: &Ctx, addr: SocketAddr, mix: &Mix, next: &mut usize, report: &mut Report) {
    let t = &ctx.tracer;
    // Untraced and traced reference steps of equal size give the
    // tracing overhead.
    let count = requests_for(REFERENCE_RPS, ctx.seconds * 0.15);
    let untraced = step(
        ctx,
        &Tracer::new(false),
        addr,
        mix,
        *next,
        REFERENCE_RPS,
        count,
    );
    *next += count;
    count_ops(&untraced, report);
    let reference = step(ctx, t, addr, mix, *next, REFERENCE_RPS, count);
    *next += count;
    count_ops(&reference, report);
    // An open loop's wall is its schedule; compare the service times.
    let service = |s: &Step| {
        median(
            &s.samples
                .iter()
                .map(|x| x.done - x.sent)
                .collect::<Vec<_>>(),
        )
    };
    report.set(
        "bench.trace_overhead_ratio.solve_service",
        service(&reference) / service(&untraced),
    );
    report.set(
        "serve.solve_p99_ms",
        tail_percentile(&reference.latencies_ms(), 0.99).unwrap_or(f64::NAN),
    );
    let o = &reference.outcomes;
    report.set(
        "serve.pool.hit_share",
        o.hits as f64 / o.replies.max(1) as f64,
    );
    let (backlog_max, _) = openloop::backlog(&reference.samples);
    report.set("serve.backlog_max", backlog_max as f64);
    let lags: Vec<f64> = reference.samples.iter().map(|s| s.lag() * 1e3).collect();
    report.set(
        "serve.generator.lag_ms",
        tail_percentile(&lags, 0.99).unwrap_or_else(|| lags.iter().copied().fold(0.0, f64::max)),
    );
    let mut statuses = untraced.outcomes.statuses.clone();
    statuses.extend_from_slice(&o.statuses);
    let count_status = |f: &dyn Fn(u16) -> bool| statuses.iter().filter(|&&s| f(s)).count() as f64;
    report.set("serve.status_429", count_status(&|s| s == 429));
    // The open-loop capacity: the highest ladder rate that meets the p99
    // limit with no growing backlog.
    let probe = requests_for(40.0, ctx.seconds);
    let sustained = sustained_rps(ctx, addr, mix, next, probe, report);
    report.set("serve.sustained_rps", sustained.unwrap_or(f64::NAN));
    report.set(
        "serve.status_5xx",
        count_status(&|s| (500..600).contains(&s)),
    );
    check_replies(mix, &o.kept, report);

    // In-process layers on the same requests.
    let pool = SolverPool::new(8);
    let mut parse = Vec::new();
    let mut from_json = Vec::new();
    let mut to_json = Vec::new();
    let mut solve = [Vec::new(), Vec::new(), Vec::new()];
    let mut inproc_hit = Vec::new();
    for k in 0..1_500 {
        let (kind, body) = mix.request(*next + k);
        let req_id = t.new_id();
        let (json, s_parse) = t.span("json.parse", 0, req_id, |_| Json::parse(&body));
        let json = json.expect("the generator writes valid JSON");
        let (req, s_req) = t.span("serve.request_from_json", 0, req_id, |_| {
            SolveRequest::from_json(&json)
        });
        let req = req.expect("the generator writes valid requests");
        let (reply, s_solve) = t.span("serve.pool.solve", 0, req_id, |_| pool.solve(&req));
        let reply = reply.expect("a valid request solves");
        let (text, s_out) = t.span("serve.reply_to_json", 0, req_id, |_| {
            reply.to_json().to_string()
        });
        std::hint::black_box(text);
        let slot = match (kind, reply.pool_hit) {
            (Kind::Stale, _) => 2,
            (_, true) => 0,
            (_, false) => 1,
        };
        solve[slot].push(s_solve * 1e6);
        if slot == 0 {
            inproc_hit.push((s_parse + s_req + s_solve + s_out) * 1e6);
        }
        parse.push(s_parse * 1e6);
        from_json.push(s_req * 1e6);
        to_json.push(s_out * 1e6);
    }
    *next += 1_500;
    report.set("json.parse_us", median(&parse));
    report.set("serve.request_from_json_us", median(&from_json));
    report.set("serve.reply_to_json_us", median(&to_json));
    report.set("serve.pool.solve_us.hit", median(&solve[0]));
    report.set("serve.pool.solve_us.miss", median(&solve[1]));
    report.set("serve.pool.solve_us.stale", median(&solve[2]));

    // HTTP overhead: the round trip at the lowest rate minus the same
    // work in process.
    let low = step(ctx, t, addr, mix, *next, LOW_RPS, 200);
    *next += 200;
    count_ops(&low, report);
    let rtt: Vec<f64> = low
        .samples
        .iter()
        .filter(|s| s.ok && mix.request(s.index).0 == Kind::Hit)
        .map(|s| (s.done - s.sent) * 1e6)
        .collect();
    report.set("serve.http.overhead_us", median(&rtt) - median(&inproc_hit));

    // The solver core on the 1000-item warm shape.
    let utility: Arc<dyn DelayUtility> = parse_utility(UTILITY).expect("a valid utility");
    let system = SystemModel::pure_p2p(NODES, RHO, MU);
    let base = DemandRates::new(
        Popularity::pareto(WARM_ITEMS[1], 1.0)
            .demand_rates(1.0)
            .rates()
            .to_vec(),
    );
    let mut try_new = Vec::new();
    let mut relaxed = Vec::new();
    for _ in 0..5 {
        let (_, s) = t.span("core.solver.try_new", 0, 0, |_| {
            DeltaSolver::try_new(system, &base, Arc::clone(&utility)).expect("a valid system")
        });
        try_new.push(s * 1e3);
        let (_, s) = t.span("core.solver.relaxed", 0, 0, |_| {
            relaxed_optimum(&system, &base, utility.as_ref())
        });
        relaxed.push(s * 1e3);
    }
    report.set("core.solver.try_new_ms", median(&try_new));
    report.set("core.solver.relaxed_ms", median(&relaxed));
    let mut solver =
        DeltaSolver::try_new(system, &base, Arc::clone(&utility)).expect("a valid system");
    let mut rng = Xoshiro256::seed_from_u64(ctx.seed ^ 0xDE17A);
    let mut apply = Vec::new();
    let before = solver.gain_evaluations();
    let applies = 2_000;
    for _ in 0..applies {
        let item = rng.index(WARM_ITEMS[1]);
        let rate = base.rates()[item] * rng.range(0.5, 2.0);
        let (out, s) = t.span("core.solver.delta.apply", 0, 0, |_| {
            solver.apply(&[Delta::Demand { item, rate }])
        });
        out.expect("a valid delta");
        apply.push(s * 1e6);
    }
    report.set("core.solver.delta.apply_us", median(&apply));
    report.set(
        "core.solver.delta.gain_evaluations",
        (solver.gain_evaluations() - before) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        let (a, b, c) = (Mix::new(3), Mix::new(3), Mix::new(4));
        let bodies = |m: &Mix| (0..200).map(|i| m.request(i).1).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&c));
    }

    #[test]
    fn the_mix_is_mostly_hits_with_misses_and_stale_solves() {
        let mix = Mix::new(1);
        let kinds: Vec<Kind> = (0..2_000).map(|i| mix.request(i).0).collect();
        let share = |k: Kind| kinds.iter().filter(|&&x| x == k).count() as f64 / 2_000.0;
        assert!((0.75..0.85).contains(&share(Kind::Hit)));
        assert!((0.07..0.13).contains(&share(Kind::Miss)));
        assert!((0.07..0.13).contains(&share(Kind::Stale)));
        for i in 0..50 {
            let (_, body) = mix.request(i);
            let json = Json::parse(&body).expect("valid JSON");
            SolveRequest::from_json(&json).expect("a valid request");
        }
    }
}
