//! `serve-cold` and `serve-zipf`: the `mse serve` daemon in process,
//! behind its Unix-socket front, driven by an open-loop Poisson load
//! generator over one multiplexed connection.
//!
//! The generator is two threads: this thread writes `WireRequest`s on a
//! schedule, a reader thread matches `TaggedFrame`s to requests by id and
//! checks them. Every request is timed from when it was *due*, so a stall
//! in the generator or the server is charged to the requests it delays.
//!
//! Each measured phase (the fixed rate, saturation, every probe of the
//! rate search) runs against a freshly started `Server` on the shared
//! registry, after an untimed warm-up on that server. A worker's ingest
//! scratch keeps growing with the requests it has served, so on one
//! long-lived server a probe's result would depend on how much traffic
//! the search happened to send before it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use mse_serve::proto::{read_msg_into, serve_unix, write_msg_buf, ServeHandle, WireRequest};
use mse_serve::{collect_frames, Frame, Registry, Request, Server, ServerConfig, TaggedFrame};
use mse_store::{Provenance, Store};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::corpus::{self, Expect, Input, Zipf};
use crate::extract::{core_layers, setup_layers, Check, Ready};
use crate::stats::{
    fnv64, peak_rss_mb, quantile, reset_peak_rss, sorted_quantile, windowed_quantile,
};
use crate::trace::{Span, Tracer, ROOT};
use crate::{Outcome, Scale};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request carries a unique nonce: the response cache never hits.
    Cold,
    /// Zipf(0.8) repeats over a pool 4x the default cache budget.
    Zipf,
}

/// The fixed offered rate of the latency metrics, req/s.
const RATE_LOW: f64 = 1000.0;
/// The traced run's second rate, for queue depths under load.
const RATE_HIGH: f64 = 4000.0;
/// Requests in flight during warm-ups and the saturation phase.
const INFLIGHT: usize = 64;
/// Latency limit on the windowed p95, from each request's due time.
const LIMIT_MS: f64 = 5.0;
/// A probe fails if any request finishes later than this after its end.
const BACKLOG_GRACE_NS: u64 = 50_000_000;
/// Bisection probes in the highest-rate search.
const PROBES: usize = 7;
/// Every response's `Done` counts are checked; every this-many-th id's
/// whole frame stream is reassembled and compared with the reference.
const CHECK_EVERY: u64 = 8;
const ZIPF_S: f64 = 0.8;
/// Warm-up requests before each phase: enough for every worker to have
/// compiled every engine (cold), or to fill the response cache (zipf).
const COLD_WARM: usize = 256;
const ZIPF_WARM: usize = 4096;
/// The reader gives up on a connection silent for this long.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

const PENDING: u8 = 0;
const OK: u8 = 1;
const WRONG: u8 = 2;
const REFUSED: u8 = 3;

/// What the reader thread records per request of one phase. Times are
/// ns since the run's clock origin.
struct Replies {
    first_id: u64,
    /// Input index of each request.
    pages: Vec<u32>,
    done: Vec<AtomicU64>,
    status: Vec<AtomicU8>,
    resolved: AtomicUsize,
    frames: AtomicU64,
    resp_bytes: AtomicU64,
    /// The writer, woken on every resolution.
    waiter: Thread,
}

impl Replies {
    fn slot(&self, id: u64) -> Option<usize> {
        let slot = id.checked_sub(self.first_id)? as usize;
        (slot < self.pages.len()).then_some(slot)
    }
}

/// The pages a run serves and what correct responses to them look like.
struct Ctx<'a> {
    inputs: &'a [Input],
    names: &'a [String],
    expects: &'a [Option<Expect>],
    /// Body-close offset of each input, where a nonce is spliced in.
    close: Vec<usize>,
    mix: Mix,
}

impl Ctx<'_> {
    /// Fill `req` with input `page` (plus a unique nonce on the cold mix).
    fn fill(&self, req: &mut Request, page: usize, nonce: u64) {
        let inp = &self.inputs[page];
        req.engine.clear();
        req.engine.push_str(&self.names[inp.engine]);
        req.html.clear();
        match self.mix {
            Mix::Cold => {
                let (head, tail) = inp.html.split_at(self.close[page]);
                req.html.push_str(head);
                let _ = write!(req.html, "<!-- nonce {nonce} -->");
                req.html.push_str(tail);
            }
            Mix::Zipf => req.html.push_str(&inp.html),
        }
        let q = req.query.get_or_insert_with(String::new);
        q.clear();
        q.push_str(&inp.query);
    }
}

/// Draws request pages: uniform over the pool (cold) or Zipf over it.
struct Draw<'a> {
    pool: &'a [u32],
    zipf: Option<Zipf>,
}

impl Draw<'_> {
    fn take(&self, rng: &mut StdRng, n: usize) -> Vec<u32> {
        (0..n)
            .map(|_| match &self.zipf {
                Some(z) => self.pool[z.sample(rng)],
                None => self.pool[rng.random_range(0..self.pool.len())],
            })
            .collect()
    }

    fn warm_count(&self) -> usize {
        let n = match self.zipf {
            None => COLD_WARM,
            Some(_) => ZIPF_WARM,
        };
        n.min(4 * self.pool.len())
    }
}

/// Removes the run's scratch directory (store, sockets) however the run
/// ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A running daemon: a server behind its socket listener.
struct Daemon {
    server: Arc<Server>,
    handle: ServeHandle,
}

impl Daemon {
    fn start(registry: &Arc<Registry>, sock: &Path) -> Result<Daemon, String> {
        let server = Arc::new(Server::start(Arc::clone(registry), ServerConfig::default()));
        let handle = serve_unix(Arc::clone(&server), sock).map_err(|e| format!("bind: {e}"))?;
        Ok(Daemon { server, handle })
    }

    /// Stop listening, wait for the connection threads to let go of the
    /// server, then drain it and join its workers.
    fn stop(self) {
        self.handle.stop();
        let deadline = Instant::now() + READ_TIMEOUT;
        let mut server = self.server;
        loop {
            match Arc::try_unwrap(server) {
                Ok(s) => return s.shutdown(),
                Err(s) if Instant::now() < deadline => {
                    server = s;
                    std::thread::sleep(Duration::from_millis(1));
                }
                // A connection thread still holds it; the server drains
                // and joins its workers when that thread lets go.
                Err(_) => return,
            }
        }
    }
}

/// Set up the daemon's state as `mse serve` finds it: wrapper sets
/// learned, saved and promoted into a versioned store, and loaded
/// through the registry's promotion gate.
fn boot(
    corpus: &corpus::Corpus,
    dir: &Path,
    tr: &mut Tracer,
    rep: u64,
) -> Result<Arc<Registry>, String> {
    let sets = tr.span("setup.build", ROOT, rep, || {
        corpus::build_all(&corpus.engines)
    });
    let store_dir = dir.join("store");
    tr.span("store.save", ROOT, rep, || -> Result<(), String> {
        let store = Store::open(&store_dir).map_err(|e| format!("store: {e}"))?;
        let cfg = mse_core::MseConfig::default();
        for (engine, set) in corpus.engines.iter().zip(&sets) {
            let Some(set) = set else { continue };
            let prov = Provenance::from_samples::<&str>(&[], &cfg, "benchmark");
            let v = store
                .save(&engine.name, set, prov)
                .map_err(|e| format!("save: {e}"))?;
            store
                .promote(&engine.name, v)
                .map_err(|e| format!("promote: {e}"))?;
        }
        Ok(())
    })?;
    let (registry, _) = tr
        .span("registry.open", ROOT, rep, || Registry::open(&store_dir))
        .map_err(|e| format!("registry: {e}"))?;
    Ok(Arc::new(registry))
}

pub fn run(
    seed: u64,
    scale: &Scale,
    mix: Mix,
    trace: bool,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let pages = match mix {
        Mix::Cold => scale.cold_pages,
        Mix::Zipf => scale.zipf_pages,
    };
    let corpus = tr.span("setup.corpus", ROOT, 0, || {
        corpus::plain(seed, scale.serve_engines, pages)
    });
    // Relative paths keep socket paths short whatever the checkout's; the
    // counter keeps concurrent runs of one process (tests) apart.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let run_dir = RunDir(PathBuf::from(".bench_run").join(format!("{}-{run}", std::process::id())));
    let mut setup_s = Vec::new();
    let mut registry = None;
    for rep in 0..scale.setup_reps {
        let dir = run_dir.0.join(format!("rep{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t = Instant::now();
        registry = Some(boot(&corpus, &dir, tr, rep as u64)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let registry = registry.ok_or("no set-up ran")?;
    let names: Vec<String> = corpus.engines.iter().map(|e| e.name.clone()).collect();
    let served: Vec<_> = names
        .iter()
        .map(|n| registry.get(n).map(|s| Arc::clone(&s.set)))
        .collect();
    let expects = tr.span("setup.golden", ROOT, 0, || {
        corpus::expect_all(&served, &corpus.inputs)
    });
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        engines: served.len(),
        skipped: served.iter().filter(|s| s.is_none()).count(),
        digests: corpus::digests(served.len(), &corpus.inputs, &expects),
        metrics: Vec::new(),
    };
    let pool: Vec<u32> = (0..corpus.inputs.len() as u32)
        .filter(|&i| expects[i as usize].is_some())
        .collect();
    if pool.is_empty() {
        return Err("no engine is being served".into());
    }
    let ctx = Ctx {
        inputs: &corpus.inputs,
        names: &names,
        expects: &expects,
        close: corpus.inputs.iter().map(Input::body_close).collect(),
        mix,
    };
    let draw = Draw {
        pool: &pool,
        zipf: (mix == Mix::Zipf)
            .then(|| Zipf::new(&mut corpus::rng(seed, 0x21F), pool.len(), ZIPF_S)),
    };
    let mut gen = Gen {
        ctx: &ctx,
        draw: &draw,
        rng: corpus::rng(seed, 0x5E),
        registry: &registry,
        dir: &run_dir.0,
        t0: Instant::now(),
        next_id: 1,
        daemons: 0,
        wire: WireRequest {
            id: 0,
            req: empty_request(),
        },
        enc: String::new(),
        encode: None,
        req_bytes: (0, 0),
        decode: (0, 0),
        corrupt: scale.corrupt,
    };
    if trace {
        let metrics = traced(&mut gen, scale, tr, &mut out)?;
        out.metrics.extend(metrics);
        setup_layers(tr, &mut out);
    } else {
        let metrics = untraced(&mut gen, scale, &mut out)?;
        out.metrics = vec![("setup_s", sorted_quantile(&mut setup_s, 0.5))];
        out.metrics.extend(metrics);
    }
    Ok(out)
}

fn empty_request() -> Request {
    Request {
        engine: String::new(),
        html: String::new(),
        query: None,
        budget: None,
    }
}

/// How a phase offers load.
enum Load {
    /// Poisson arrivals at `rate` for `secs`.
    Open { rate: f64, secs: f64 },
    /// Keep [`INFLIGHT`] requests outstanding for `secs`.
    Closed { secs: f64 },
}

/// What one phase measured.
struct PhaseStats {
    /// Warm-up requests, and those not answered correctly.
    warm: usize,
    warm_failed: usize,
    /// Measured requests, and how they failed.
    sent: usize,
    wrong: usize,
    refused: usize,
    lost: usize,
    /// Due-to-done latency of successful requests, ms, sorted.
    lat_ms: Vec<f64>,
    /// Windowed p95 of `lat_ms` (see [`windowed_quantile`]).
    p95_ms: f64,
    /// Windowed p95 with every failed request counted as over the limit.
    p95_all_ms: f64,
    /// Requests finishing later than the grace after the phase end.
    late: usize,
    /// Generator lateness (send minus due), µs.
    lag_us: Vec<f64>,
    /// Send-to-done latency of successful requests, µs.
    wire_us: Vec<f64>,
    /// Completions inside the phase window, per second.
    completed_per_s: f64,
    frames: u64,
    resp_bytes: u64,
    /// Requests still unanswered when the writer sent its last one.
    outstanding_end: usize,
}

impl PhaseStats {
    fn failures(&self) -> usize {
        self.wrong + self.refused + self.lost
    }

    /// The latency limit met with no growing backlog.
    fn passes(&self) -> bool {
        self.sent > 0
            && self.failures() * 1000 <= self.sent
            && self.p95_all_ms <= LIMIT_MS
            && self.late == 0
    }
}

/// The load generator: its inputs and schedule, and the writing half of
/// whichever connection the current phase uses.
struct Gen<'a> {
    ctx: &'a Ctx<'a>,
    draw: &'a Draw<'a>,
    rng: StdRng,
    registry: &'a Arc<Registry>,
    dir: &'a Path,
    t0: Instant,
    next_id: u64,
    /// Daemons started so far; names each one's socket.
    daemons: usize,
    wire: WireRequest,
    enc: String,
    /// Traced runs record one `proto.encode` span per request.
    encode: Option<Tracer>,
    /// Encoded request bytes and requests sent.
    req_bytes: (u64, u64),
    /// Traced runs: ns spent decoding response frames, and frames decoded.
    decode: (u64, u64),
    /// Test hook: damage the first fully checked response.
    corrupt: bool,
}

impl Gen<'_> {
    fn ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn daemon(&mut self) -> Result<(Daemon, PathBuf), String> {
        let sock = self.dir.join(format!("s{}", self.daemons));
        self.daemons += 1;
        Ok((Daemon::start(self.registry, &sock)?, sock))
    }

    /// One measured phase on a daemon of its own.
    fn fresh(&mut self, load: Load) -> Result<PhaseStats, String> {
        let (d, sock) = self.daemon()?;
        let st = self.phase(&sock, load);
        d.stop();
        st
    }

    fn send(
        &mut self,
        w: &mut BufWriter<UnixStream>,
        r: &Replies,
        slot: usize,
    ) -> Result<u64, String> {
        let id = r.first_id + slot as u64;
        self.wire.id = id;
        self.ctx
            .fill(&mut self.wire.req, r.pages[slot] as usize, id);
        let start = self.ns();
        write_msg_buf(w, &self.wire, &mut self.enc).map_err(|e| format!("send: {e}"))?;
        if let Some(t) = &mut self.encode {
            let end_ns = t.now_ns();
            t.push(Span {
                name: "proto.encode",
                start_ns: start,
                end_ns,
                parent: ROOT,
                req: id,
            });
        }
        self.req_bytes.0 += self.enc.len() as u64 + 4;
        self.req_bytes.1 += 1;
        Ok(start)
    }

    /// Connect to `sock`, warm the daemon up, offer `load`, wait for
    /// every answer, and summarize the measured requests.
    fn phase(&mut self, sock: &Path, load: Load) -> Result<PhaseStats, String> {
        let warm = self.draw.warm_count();
        let offsets = match load {
            Load::Open { rate, secs } => corpus::poisson(&mut self.rng, rate, secs),
            // Slots for closed-loop rates up to 100k req/s; unsent ones are unused.
            Load::Closed { secs } => vec![0; (100_000.0 * secs) as usize + INFLIGHT],
        };
        let n = warm + offsets.len();
        let replies = Replies {
            first_id: self.next_id,
            pages: self.draw.take(&mut self.rng, n),
            done: (0..n).map(|_| AtomicU64::new(0)).collect(),
            status: (0..n).map(|_| AtomicU8::new(PENDING)).collect(),
            resolved: AtomicUsize::new(0),
            frames: AtomicU64::new(0),
            resp_bytes: AtomicU64::new(0),
            waiter: std::thread::current(),
        };
        self.next_id += n as u64;
        let stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("connect: {e}"))?;
        read_half
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("connect: {e}"))?;
        let mut w = BufWriter::with_capacity(1 << 20, stream);
        let (ctx, t0, trace) = (self.ctx, self.t0, self.encode.is_some());
        let mut corrupt = std::mem::take(&mut self.corrupt);
        let mut due = vec![0u64; n];
        let mut sent = vec![0u64; n];
        let (schedule, reader) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                reader_loop(
                    BufReader::new(read_half),
                    &replies,
                    ctx,
                    t0,
                    trace,
                    &mut corrupt,
                )
            });
            let schedule = self.offer(&mut w, &replies, &load, warm, &offsets, &mut due, &mut sent);
            // Closing the write half ends the connection: the server
            // answers what is in flight, then closes, and the reader
            // sees EOF.
            let _ = w.flush();
            let _ = w.get_ref().shutdown(std::net::Shutdown::Write);
            (schedule, reader.join())
        });
        self.corrupt = corrupt;
        let rstats = reader.map_err(|_| "reader thread panicked".to_string())?;
        let (start, end, n_sent, outstanding_end) = schedule?;
        let mut st = summarize(
            &replies,
            warm..n_sent,
            &due,
            &sent,
            start,
            end,
            outstanding_end,
        );
        st.warm = warm;
        st.warm_failed = (0..warm)
            .filter(|&s| replies.status[s].load(Ordering::Acquire) != OK)
            .count();
        st.lost += rstats.stray as usize;
        self.decode.0 += rstats.decode_ns;
        self.decode.1 += rstats.decoded;
        eprintln!(
            "phase {:>6}: sent {:>6} p50 {:.3} ms p99 {:.3} ms (windowed p95 {:.3}) late {} failed {} done/s {:.0}",
            match load {
                Load::Open { rate, .. } => format!("{rate:.0}/s"),
                Load::Closed { .. } => "sat".into(),
            },
            st.sent,
            quantile(&st.lat_ms, 0.5),
            quantile(&st.lat_ms, 0.99),
            st.p95_all_ms,
            st.late,
            st.failures(),
            st.completed_per_s,
        );
        Ok(st)
    }

    /// The writer's side of a phase: `warm` requests closed-loop and
    /// answered, then the measured ones. Returns the measured window
    /// (start, end), the requests sent and those unanswered at the end.
    #[allow(clippy::too_many_arguments)]
    fn offer(
        &mut self,
        w: &mut BufWriter<UnixStream>,
        r: &Replies,
        load: &Load,
        warm: usize,
        offsets: &[u64],
        due: &mut [u64],
        sent: &mut [u64],
    ) -> Result<(u64, u64, usize, usize), String> {
        let n = r.pages.len();
        let mut slot = self.closed(w, r, 0, warm, None, due, sent)?;
        while r.resolved.load(Ordering::Acquire) < warm {
            std::thread::park_timeout(Duration::from_millis(1));
        }
        let start = self.ns() + 1_000_000;
        while self.ns() < start {
            std::thread::sleep(Duration::from_micros(100));
        }
        let end = match *load {
            Load::Open { secs, .. } => {
                for (k, off) in offsets.iter().enumerate() {
                    due[warm + k] = start + off;
                }
                while slot < n {
                    let now = self.ns();
                    if due[slot] > now {
                        w.flush().map_err(|e| format!("flush: {e}"))?;
                        std::thread::sleep(Duration::from_nanos(due[slot] - now));
                    }
                    sent[slot] = self.send(w, r, slot)?;
                    slot += 1;
                }
                start + (secs * 1e9) as u64
            }
            Load::Closed { secs } => {
                let end = start + (secs * 1e9) as u64;
                slot = self.closed(w, r, slot, n, Some(end), due, sent)?;
                end
            }
        };
        w.flush().map_err(|e| format!("flush: {e}"))?;
        let outstanding_end = slot - r.resolved.load(Ordering::Acquire);
        Ok((start, end, slot, outstanding_end))
    }

    /// Send slots `from..to` keeping [`INFLIGHT`] outstanding, until done
    /// or `until`; each request is due when it is sent. Returns the next
    /// unsent slot.
    #[allow(clippy::too_many_arguments)]
    fn closed(
        &mut self,
        w: &mut BufWriter<UnixStream>,
        r: &Replies,
        from: usize,
        to: usize,
        until: Option<u64>,
        due: &mut [u64],
        sent: &mut [u64],
    ) -> Result<usize, String> {
        let open = |g: &Self| until.is_none_or(|end| g.ns() < end);
        let mut slot = from;
        while slot < to && open(self) {
            while slot < to && slot - r.resolved.load(Ordering::Acquire) < INFLIGHT && open(self) {
                sent[slot] = self.send(w, r, slot)?;
                due[slot] = sent[slot];
                slot += 1;
            }
            w.flush().map_err(|e| format!("flush: {e}"))?;
            std::thread::park_timeout(Duration::from_millis(1));
        }
        Ok(slot)
    }
}

fn summarize(
    r: &Replies,
    slots: std::ops::Range<usize>,
    due: &[u64],
    sent: &[u64],
    start: u64,
    end: u64,
    outstanding_end: usize,
) -> PhaseStats {
    let n = slots.len();
    let mut st = PhaseStats {
        warm: 0,
        warm_failed: 0,
        sent: n,
        wrong: 0,
        refused: 0,
        lost: 0,
        lat_ms: Vec::with_capacity(n),
        p95_ms: 0.0,
        p95_all_ms: 0.0,
        late: 0,
        lag_us: Vec::with_capacity(n),
        wire_us: Vec::with_capacity(n),
        completed_per_s: 0.0,
        frames: r.frames.load(Ordering::Acquire),
        resp_bytes: r.resp_bytes.load(Ordering::Acquire),
        outstanding_end,
    };
    let mut all_ms = Vec::with_capacity(n);
    let mut completed = 0usize;
    for slot in slots {
        let done = r.done[slot].load(Ordering::Acquire);
        st.lag_us
            .push(sent[slot].saturating_sub(due[slot]) as f64 / 1e3);
        match r.status[slot].load(Ordering::Acquire) {
            OK => {
                let ms = done.saturating_sub(due[slot]) as f64 / 1e6;
                st.lat_ms.push(ms);
                all_ms.push(ms);
                st.wire_us
                    .push(done.saturating_sub(sent[slot]) as f64 / 1e3);
            }
            status => {
                // Over any limit, yet finite so interpolation stays exact.
                all_ms.push(f64::MAX);
                match status {
                    WRONG => st.wrong += 1,
                    REFUSED => st.refused += 1,
                    _ => st.lost += 1,
                }
            }
        }
        if done > start && done <= end {
            completed += 1;
        }
        if done == 0 || done > end + BACKLOG_GRACE_NS {
            st.late += 1;
        }
    }
    st.p95_ms = windowed_quantile(&st.lat_ms, 0.95);
    st.p95_all_ms = windowed_quantile(&all_ms, 0.95);
    st.lat_ms.sort_by(f64::total_cmp);
    if end > start {
        st.completed_per_s = completed as f64 / ((end - start) as f64 / 1e9);
    }
    st
}

/// Failures count against the run, except refusals inside a rate probe:
/// there `Busy` is the overload signal the probe looks for.
fn tally(out: &mut Outcome, st: &PhaseStats, refusals_fail: bool) {
    out.attempted += (st.warm + st.sent) as u64;
    out.failed += (st.warm_failed + st.wrong + st.lost) as u64;
    if refusals_fail {
        out.failed += st.refused as u64;
    }
}

/// The untraced measurement: latency at the fixed rate, saturation
/// throughput, then the bisection for the highest rate meeting the
/// latency limit. Window shares: 30% fixed rate, 10% saturation, 60%
/// search.
fn untraced(
    gen: &mut Gen,
    scale: &Scale,
    out: &mut Outcome,
) -> Result<Vec<(&'static str, f64)>, String> {
    let s = scale.seconds;
    reset_peak_rss();
    let low = gen.fresh(Load::Open {
        rate: RATE_LOW,
        secs: 0.3 * s,
    })?;
    let rss = peak_rss_mb();
    tally(out, &low, true);
    let sat = gen.fresh(Load::Closed { secs: 0.1 * s })?;
    tally(out, &sat, true);

    // Closed-loop saturation undershoots what an open loop sustains on a
    // small host, so the bracket reaches well past it.
    let mut lo = if low.passes() { RATE_LOW } else { 0.0 };
    let mut hi = (1.5 * sat.completed_per_s).max(2.0 * lo);
    for _ in 0..PROBES {
        let mid = 0.5 * (lo + hi);
        let st = gen.fresh(Load::Open {
            rate: mid,
            secs: 0.6 * s / PROBES as f64,
        })?;
        tally(out, &st, false);
        if st.passes() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(vec![
        ("throughput_per_s", lo),
        ("p50_ms", quantile(&low.lat_ms, 0.5)),
        ("p95_ms", low.p95_ms),
        ("peak_rss_mb", rss),
    ])
}

/// The traced measurement, on one daemon: the core layers over the
/// served pages; a bare and then a span-wrapped socket generator at the
/// low rate, and the high rate for queue depths; then a sequential
/// in-process client that times admission, first frame and completion,
/// and classifies cache hits.
fn traced(
    gen: &mut Gen,
    scale: &Scale,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<(&'static str, f64)>, String> {
    let s = scale.seconds;
    let (daemon, sock) = gen.daemon()?;
    let ready = tr.span("compiled.compile_parts", ROOT, 0, || {
        ready_engines(gen.registry, gen.ctx.names)
    });
    let check = Check {
        ready: &ready,
        inputs: gen.ctx.inputs,
        expects: gen.ctx.expects,
    };
    let step = (gen.draw.pool.len() / 1024).max(1);
    let items: Vec<usize> = gen
        .draw
        .pool
        .iter()
        .step_by(step)
        .map(|&i| i as usize)
        .collect();
    core_layers(&check, &items, 0.3 * s, tr, out);
    // The serve trace overhead is the span-wrapped generator against a
    // bare one, not core_layers' extraction overhead.
    out.metrics.retain(|(n, _)| *n != "trace.overhead_pct");

    let open = |rate, secs| Load::Open { rate, secs };
    let bare = gen.phase(&sock, open(RATE_LOW, 0.15 * s))?;
    tally(out, &bare, true);
    gen.encode = Some(Tracer::new(gen.t0));
    let low = gen.phase(&sock, open(RATE_LOW, 0.15 * s))?;
    tally(out, &low, true);
    let high = gen.phase(&sock, open(RATE_HIGH, 0.1 * s))?;
    tally(out, &high, true);
    if let Some(enc) = gen.encode.take() {
        tr.absorb(enc);
    }
    let inproc = in_process(&daemon.server, gen, 0.2 * s, tr, out);

    let server = &daemon.server;
    let cache = server.cache_stats().unwrap_or_default();
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    let busy = server.stats().rejected_busy.load(Ordering::Relaxed);
    let lane_max = server
        .partitions()
        .iter()
        .map(|p| p.high_water)
        .max()
        .unwrap_or(0);
    let queue_max = server.queue_high_water();
    daemon.stop();
    let phases = [&bare, &low, &high];
    let sent: usize = phases.iter().map(|p| p.sent).sum();
    let resolved = phases.iter().map(|p| p.sent - p.lost).sum::<usize>().max(1) as f64;
    let frames: u64 = phases.iter().map(|p| p.frames).sum();
    let resp_bytes: u64 = phases.iter().map(|p| p.resp_bytes).sum();
    let mut lag: Vec<f64> = low.lag_us.iter().chain(&high.lag_us).copied().collect();
    let mut wire = low.wire_us.clone();
    let (low_p50, bare_p50) = (quantile(&low.lat_ms, 0.5), quantile(&bare.lat_ms, 0.5));
    let (req_bytes, requests) = gen.req_bytes;
    Ok(vec![
        ("server.admit_us_p50", inproc.admit_p50),
        ("server.first_frame_us_p50", inproc.first_p50),
        ("server.first_frame_us_p99", inproc.first_p99),
        ("server.done_us_p50", inproc.done_p50),
        ("server.done_us_p99", inproc.done_p99),
        ("server.busy_rejected", busy as f64),
        ("server.queue_high_water", queue_max as f64),
        ("server.lane_high_water_max", lane_max as f64),
        ("cache.hit_ratio", cache.hits as f64 / lookups),
        ("cache.evictions_per_req", cache.evictions as f64 / lookups),
        ("cache.hit_done_us_p50", inproc.hit_p50),
        ("cache.miss_done_us_p50", inproc.miss_p50),
        ("proto.encode_us", tr.mean_us("proto.encode")),
        (
            "proto.decode_us_per_frame",
            gen.decode.0 as f64 / gen.decode.1.max(1) as f64 / 1e3,
        ),
        ("proto.frames_per_req", frames as f64 / resolved),
        ("proto.req_bytes", req_bytes as f64 / requests.max(1) as f64),
        ("proto.resp_bytes", resp_bytes as f64 / resolved),
        (
            "proto.transport_us_p50",
            sorted_quantile(&mut wire, 0.5) - inproc.done_p50,
        ),
        ("loadgen.lag_p99_us", sorted_quantile(&mut lag, 0.99)),
        ("loadgen.sent", sent as f64),
        (
            "loadgen.outstanding_end",
            (low.outstanding_end + high.outstanding_end) as f64 / 2.0,
        ),
        (
            "trace.overhead_pct",
            (low_p50 - bare_p50) / bare_p50 * 100.0,
        ),
    ])
}

/// Compiled parts of every served engine, for the core-layer pass.
fn ready_engines(registry: &Registry, names: &[String]) -> Vec<Option<Ready>> {
    names
        .iter()
        .map(|n| {
            registry.get(n).map(|s| Ready {
                parts: s.set.compile_parts(),
                set: Arc::clone(&s.set),
            })
        })
        .collect()
}

struct InProcess {
    admit_p50: f64,
    first_p50: f64,
    first_p99: f64,
    done_p50: f64,
    done_p99: f64,
    hit_p50: f64,
    miss_p50: f64,
}

/// Sequential in-process client on the same server: one request at a
/// time, so `cache_stats()` deltas classify each one as hit or miss.
fn in_process(
    server: &Server,
    gen: &mut Gen,
    secs: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> InProcess {
    let (mut admit, mut first, mut done, mut hit, mut miss) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut req = empty_request();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut k = 0u64;
    while k < 16 || Instant::now() < deadline {
        let page = gen.draw.take(&mut gen.rng, 1)[0] as usize;
        // Nonces above every socket id keep cold requests unique.
        gen.ctx.fill(&mut req, page, (1 << 40) + k);
        let owned = req.clone();
        let before = server.cache_stats().map_or(0, |c| c.hits);
        let root = tr.open("server.request", ROOT, k);
        let t = Instant::now();
        let rx = tr.span("server.submit", root, k, || server.submit(owned));
        let t_admit = t.elapsed();
        let mut frames = Vec::new();
        let mut t_first = None;
        if let Ok(rx) = rx {
            for f in rx.iter() {
                t_first.get_or_insert_with(|| t.elapsed());
                let last = matches!(f, Frame::Done { .. } | Frame::Rejected { .. });
                frames.push(f);
                if last {
                    break;
                }
            }
        }
        let t_done = t.elapsed();
        tr.close(root);
        let is_hit = server.cache_stats().map_or(0, |c| c.hits) > before;
        let us = |d: Duration| d.as_nanos() as f64 / 1e3;
        admit.push(us(t_admit));
        first.push(us(t_first.unwrap_or(t_done)));
        done.push(us(t_done));
        if is_hit { &mut hit } else { &mut miss }.push(us(t_done));
        out.attempted += 1;
        let json = serde_json::to_string(&collect_frames(frames)).unwrap_or_default();
        if gen.ctx.expects[page].is_none_or(|e| fnv64(json.as_bytes()) != e.hash) {
            out.failed += 1;
        }
        k += 1;
    }
    let p = |v: &mut Vec<f64>, q: f64| {
        if v.is_empty() {
            0.0
        } else {
            sorted_quantile(v, q)
        }
    };
    InProcess {
        admit_p50: p(&mut admit, 0.5),
        first_p50: p(&mut first, 0.5),
        first_p99: p(&mut first, 0.99),
        done_p50: p(&mut done, 0.5),
        done_p99: p(&mut done, 0.99),
        hit_p50: p(&mut hit, 0.5),
        miss_p50: p(&mut miss, 0.5),
    }
}

enum Kind {
    Done,
    Rejected,
    Other,
}

/// The id and kind of a tagged frame without decoding its body:
/// `{"id":N,"frame":{"Done":...}}`. `None` if it is not in that form.
fn peek(buf: &[u8]) -> Option<(u64, Kind)> {
    let rest = buf.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    let rest = rest[digits..].strip_prefix(b",\"frame\":")?;
    let kind = if rest.starts_with(b"{\"Done\":") {
        Kind::Done
    } else if rest.starts_with(b"{\"Rejected\":") {
        Kind::Rejected
    } else {
        Kind::Other
    };
    Some((id, kind))
}

fn decode(buf: &[u8]) -> Option<TaggedFrame> {
    serde_json::from_str(std::str::from_utf8(buf).ok()?).ok()
}

/// What the reader saw beyond the per-request results.
#[derive(Default)]
struct ReaderStats {
    /// Frames undecodable or owned by no request of the phase, and
    /// streams the connection cut off before `Done`.
    stray: u64,
    /// Traced runs: time spent decoding frames, and how many.
    decode_ns: u64,
    decoded: u64,
}

/// The reading half: match frames to requests by id, check each response
/// when its stream ends, and wake the writer. Frames are fully decoded
/// only where needed (stream ends and checked ids), except in traced
/// runs, which decode and time every frame.
fn reader_loop(
    mut r: BufReader<UnixStream>,
    replies: &Replies,
    ctx: &Ctx,
    t0: Instant,
    trace: bool,
    corrupt: &mut bool,
) -> ReaderStats {
    let mut streams: HashMap<u64, Vec<Frame>> = HashMap::new();
    let mut buf = Vec::new();
    let mut st = ReaderStats::default();
    while let Ok(true) = read_msg_into(&mut r, &mut buf) {
        let now = t0.elapsed().as_nanos() as u64;
        let mut full = None;
        if trace {
            let t = Instant::now();
            full = decode(&buf);
            st.decode_ns += t.elapsed().as_nanos() as u64;
            st.decoded += 1;
        }
        let Some((id, kind)) = peek(&buf) else {
            st.stray += 1;
            continue;
        };
        let Some(slot) = replies.slot(id) else {
            st.stray += 1;
            continue;
        };
        replies.frames.fetch_add(1, Ordering::Relaxed);
        replies
            .resp_bytes
            .fetch_add(buf.len() as u64 + 4, Ordering::Relaxed);
        let checked = id % CHECK_EVERY == 0;
        if !checked && matches!(kind, Kind::Other) {
            continue;
        }
        let Some(tf) = full.or_else(|| decode(&buf)) else {
            st.stray += 1;
            continue;
        };
        let status = match (kind, tf.frame) {
            (Kind::Done, Frame::Done { sections, records }) => {
                let want = ctx.expects[replies.pages[slot] as usize];
                let mut ok = want.is_some_and(|e| e.sections == sections && e.records == records);
                if checked {
                    let ex = collect_frames(streams.remove(&id).unwrap_or_default());
                    let mut json = serde_json::to_string(&ex).unwrap_or_default();
                    if std::mem::take(corrupt) {
                        json.insert(1, ' ');
                    }
                    ok &= want.is_some_and(|e| fnv64(json.as_bytes()) == e.hash);
                }
                if ok {
                    OK
                } else {
                    WRONG
                }
            }
            (Kind::Rejected, _) => {
                streams.remove(&id);
                REFUSED
            }
            (_, frame) => {
                if checked {
                    streams.entry(id).or_default().push(frame);
                }
                continue;
            }
        };
        replies.done[slot].store(now, Ordering::Relaxed);
        replies.status[slot].store(status, Ordering::Release);
        replies.resolved.fetch_add(1, Ordering::AcqRel);
        replies.waiter.unpark();
    }
    st.stray += streams.len() as u64;
    st
}
