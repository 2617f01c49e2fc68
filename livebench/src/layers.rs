//! Per-layer measurement for the traced run.
//!
//! Everything here times the benchmark's own calls into a layer's public
//! functions, or reads what the runtime already exports; the runtime
//! itself carries no extra instrumentation.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::mem::Discriminant;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use elan_core::codec::{decode_frame, encode_frame, WireFrame};
use elan_core::state::WorkerId;
use elan_rt::bus::Endpoint;
use elan_rt::worker::{build_state_chunks, simulate_training, SnapshotAssembly};
use elan_rt::{
    Bus, CommGroup, EndpointId, EndpointStats, Envelope, EventJournal, EventKind, RtMsg,
    SocketTransport, TimeSource, Transport, TuningProfile, DEFAULT_RING_CAPACITY,
};

use crate::stats::{median, quantile};

/// One span: a named interval of the benchmark's own timeline.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans kept in memory for the whole run and written out once at the
/// end, so writing never lands inside a timed interval.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as one JSON array of
    /// `{"id","name","start_ns","end_ns","parent"}` objects.
    pub fn write(&self, path: &str) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Messages of one `RtMsg` variant seen by a [`Counting`] transport.
#[derive(Debug, Clone)]
pub struct MsgClass {
    pub count: u64,
    /// The first message of the variant, kept to replay through the
    /// codec after the run.
    pub sample: (EndpointId, Envelope),
}

/// A transport that forwards to another and counts every send by message
/// variant — the traced run's view of the message mix.
pub struct Counting {
    inner: Arc<dyn Transport>,
    classes: Mutex<HashMap<Discriminant<RtMsg>, MsgClass>>,
}

impl Counting {
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        Counting {
            inner,
            classes: Mutex::new(HashMap::new()),
        }
    }

    pub fn classes(&self) -> Vec<MsgClass> {
        self.classes
            .lock()
            .expect("message tally lock poisoned")
            .values()
            .cloned()
            .collect()
    }
}

impl Transport for Counting {
    fn register(&self, id: EndpointId) -> Endpoint {
        self.inner.register(id)
    }

    fn unregister(&self, id: EndpointId) {
        self.inner.unregister(id)
    }

    fn send_envelope(&self, to: EndpointId, env: Envelope) -> bool {
        self.classes
            .lock()
            .expect("message tally lock poisoned")
            .entry(std::mem::discriminant(&env.body))
            .or_insert_with(|| MsgClass {
                count: 0,
                sample: (to, env.clone()),
            })
            .count += 1;
        self.inner.send_envelope(to, env)
    }

    fn stats(&self, id: EndpointId) -> EndpointStats {
        self.inner.stats(id)
    }

    fn all_stats(&self) -> Vec<(EndpointId, EndpointStats)> {
        self.inner.all_stats()
    }

    fn total_dead_letters(&self) -> u64 {
        self.inner.total_dead_letters()
    }

    fn attach(&self, journal: Option<Arc<EventJournal>>, time: TimeSource) {
        self.inner.attach(journal, time)
    }

    fn journal(&self) -> Option<Arc<EventJournal>> {
        self.inner.journal()
    }

    fn time(&self) -> TimeSource {
        self.inner.time()
    }

    fn endpoint_count(&self) -> usize {
        self.inner.endpoint_count()
    }

    fn supports_virtual_time(&self) -> bool {
        self.inner.supports_virtual_time()
    }
}

/// Median wall time of `f` over `reps` calls, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut v).unwrap_or(0.0)
}

/// Repetitions that keep one replay near a tenth of a second at `elems`.
fn reps_for(elems: usize) -> usize {
    ((1usize << 22) / elems).clamp(8, 4096)
}

/// `worker.compute_iter_us`: one worker's gradient and SGD step, timed
/// through `simulate_training` on one worker.
pub fn compute_iter_us(elems: usize, learning_rate: f32) -> f64 {
    let iters = reps_for(elems) as u64;
    median_us(5, || {
        std::hint::black_box(simulate_training(1, iters, elems, learning_rate, 128));
    }) / iters as f64
}

/// `worker.chunk_build_us` and `worker.chunk_assemble_us`: splitting one
/// state into replication chunks, and reassembling a full snapshot.
pub fn chunk_us(elems: usize, chunk_elems: usize) -> (f64, f64) {
    let params = vec![0.25f32; elems];
    let momentum = vec![0.5f32; elems];
    let reps = reps_for(elems);
    let build = median_us(reps, || {
        std::hint::black_box(build_state_chunks(&params, &momentum, chunk_elems));
    });
    let chunks = build_state_chunks(&params, &momentum, chunk_elems);
    let mut dst_p = vec![0.0f32; elems];
    let mut dst_m = vec![0.0f32; elems];
    let mut iteration = 0u64;
    let assemble = median_us(reps, || {
        iteration += 1;
        let mut asm = SnapshotAssembly::new();
        let mut done = None;
        for (kind, index, total, offset, data) in &chunks {
            done = asm.offer(
                *kind, iteration, 0, *index, *total, *offset, data, &mut dst_p, &mut dst_m,
            );
        }
        assert!(done.is_some(), "snapshot assembly incomplete");
    });
    (build, assemble)
}

/// Per-round allreduce latency on two threads at `elems`, dispatched by
/// the same tuning profile the live runtime used: `(p50_us, p90_us,
/// fresh pool allocations)`.
pub fn comm_rounds(elems: usize, profile: TuningProfile) -> (f64, f64, u64) {
    let rounds = reps_for(elems) * 4;
    let group = Arc::new(CommGroup::with_tuning(
        [WorkerId(0), WorkerId(1)],
        elems,
        profile,
        None,
    ));
    let start = Arc::new(Barrier::new(2));
    let peer = {
        let (group, start) = (Arc::clone(&group), Arc::clone(&start));
        thread::spawn(move || {
            let data = vec![1.0f32; elems];
            start.wait();
            for _ in 0..rounds {
                group.allreduce(WorkerId(1), &data);
            }
        })
    };
    let data = vec![2.0f32; elems];
    start.wait();
    let mut us: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            group.allreduce(WorkerId(0), &data);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    peer.join().expect("allreduce peer thread panicked");
    let p50 = quantile(&mut us, 0.5).unwrap_or(0.0);
    let p90 = quantile(&mut us, 0.9).unwrap_or(0.0);
    (p50, p90, group.pool_allocations())
}

/// `codec.encode_ns`, `codec.decode_ns` and the encoded bytes of the
/// whole mix: every class's sample goes through `encode_frame` and
/// `decode_frame`, weighted by how often the run sent that class.
pub fn codec_mix(classes: &[MsgClass]) -> (f64, f64, f64) {
    const REPS: usize = 2000;
    let (mut enc, mut dec, mut bytes, mut msgs) = (0.0, 0.0, 0.0, 0.0);
    for class in classes {
        let (to, env) = &class.sample;
        let frame = WireFrame::Msg {
            to: *to,
            env: env.clone(),
        };
        let wire = encode_frame(&frame);
        let e = median_batch_ns(REPS, || {
            std::hint::black_box(encode_frame(&frame));
        });
        let d = median_batch_ns(REPS, || {
            std::hint::black_box(decode_frame(&wire).expect("own frame decodes"));
        });
        let n = class.count as f64;
        enc += e * n;
        dec += d * n;
        bytes += wire.len() as f64 * n;
        msgs += n;
    }
    if msgs == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    (enc / msgs, dec / msgs, bytes)
}

/// Median over five batches of the mean ns per call within a batch.
fn median_batch_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&mut v).unwrap_or(0.0)
}

/// `obs.emit_ns`: one journal event into a ring of the runtime's default
/// capacity, the ring already full so every emit also overwrites.
pub fn emit_ns() -> f64 {
    let journal = EventJournal::with_time(DEFAULT_RING_CAPACITY, Vec::new(), TimeSource::real());
    let mut boundary = 0u64;
    let mut emit = || {
        boundary += 1;
        journal.emit(EventKind::BoundaryReleased {
            boundary,
            world: 2,
            term: 1,
        });
    };
    for _ in 0..DEFAULT_RING_CAPACITY {
        emit();
    }
    median_batch_ns(20_000, emit)
}

/// Median microseconds of one envelope round trip between two endpoints
/// of `bus_a` (endpoint `a`) and `bus_b` (endpoint `b`).
fn round_trips(bus_a: &Bus, a: &Endpoint, bus_b: &Bus, b: &Endpoint) -> f64 {
    const TRIPS: usize = 2000;
    let beat = |iteration| RtMsg::Heartbeat {
        worker: WorkerId(1),
        iteration,
    };
    let wait = Duration::from_secs(5);
    let mut us: Vec<f64> = (0..TRIPS as u64)
        .map(|i| {
            let t = Instant::now();
            bus_a.send(EndpointId::Worker(WorkerId(1)), beat(i));
            b.recv_timeout(wait).expect("round trip: request lost");
            bus_b.send(EndpointId::Worker(WorkerId(0)), beat(i));
            a.recv_timeout(wait).expect("round trip: reply lost");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us).unwrap_or(0.0)
}

/// `transport.rtt_us` on an in-memory bus.
pub fn rtt_memory_us() -> f64 {
    let bus = Bus::new();
    let a = bus.register(EndpointId::Worker(WorkerId(0)));
    let b = bus.register(EndpointId::Worker(WorkerId(1)));
    round_trips(&bus, &a, &bus, &b)
}

/// `transport.rtt_us` over a Unix-domain socket: the hub owns one
/// endpoint, a dialed client the other, so each trip crosses the socket
/// twice (encode, CRC, write, read, decode on each hop).
pub fn rtt_uds_us(path: &str) -> io::Result<f64> {
    let addr = format!("unix:{path}");
    let hub = Bus::with_transport(Arc::new(SocketTransport::listen(&addr)?));
    let client = Bus::with_transport(Arc::new(SocketTransport::connect(&addr)?));
    let a = hub.register(EndpointId::Worker(WorkerId(0)));
    let b = client.register(EndpointId::Worker(WorkerId(1)));
    // The client's Hello races the first send; wait until the hub routes.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        hub.send(
            EndpointId::Worker(WorkerId(1)),
            RtMsg::Heartbeat {
                worker: WorkerId(0),
                iteration: 0,
            },
        );
        if b.recv_timeout(Duration::from_millis(20)).is_some() {
            break;
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "hub never routed"));
        }
    }
    while b.try_recv().is_some() {}
    let rtt = round_trips(&hub, &a, &client, &b);
    let _ = fs::remove_file(path);
    Ok(rtt)
}
