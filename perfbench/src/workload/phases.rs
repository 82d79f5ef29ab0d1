//! The timed phases over TCP: connection placement, the open loop, the
//! saturation window and the update phase, plus the per-request sample
//! file.

use super::check::CurrentEpoch;
use super::{
    err, lookups, Config, Gen, Kind, Live, Params, KEEP_EVERY_EPOCH, LEAD, MIN_READS, MIN_UPDATES,
    NS, RATE_SLICES,
};
use crate::handler::PROBE_PREFIX;
use crate::load::{self, Sample, Scheduled, TcpTransport, Transport};
use crate::registry::Counters;
use crate::stats::mean;
use crate::trace::line_key;
use privpath_serve::QueryRequest;
use std::io::BufWriter;
use std::time::{Duration, Instant};

/// Most reconnects [`connect_spread`] tries before giving up.
const MAX_PLACEMENT_RETRIES: u64 = 64;

/// Opens `n` connections served by `n` different server workers.
///
/// The server hands each accepted connection to whichever idle worker
/// polls first, so two connections can land on one worker while others
/// idle; that halves throughput and queues one connection behind the
/// other, a coin flip that would dominate run-to-run spread. Each
/// connection is probed with a cheap `accuracy` query; one that shares a
/// worker is reopened. The reopen count is reported with the run.
fn connect_spread(live: &Live, n: usize) -> Result<(Vec<TcpTransport>, u64), String> {
    let mut conns: Vec<TcpTransport> = Vec::with_capacity(n);
    let mut workers = Vec::with_capacity(n);
    let mut retries = 0;
    let mut probe = 0u32;
    while conns.len() < n {
        let mut t = TcpTransport::connect(live.addr).map_err(err)?;
        probe += 1;
        let line = format!("{PROBE_PREFIX}{} 0.{probe:06}", live.release);
        t.send(&line).map_err(err)?;
        let resp = t
            .recv(Duration::from_secs(60))
            .map_err(err)?
            .ok_or("placement probe timed out")?;
        if resp.starts_with("error") {
            return Err(format!("placement probe refused: {resp}"));
        }
        let worker = live
            .handler
            .probe_thread(line_key(&line))
            .ok_or("placement probe not seen by the handler")?;
        if workers.contains(&worker) {
            retries += 1;
            if retries > MAX_PLACEMENT_RETRIES {
                return Err("could not spread the connections over distinct workers".into());
            }
            continue;
        }
        workers.push(worker);
        conns.push(t);
    }
    Ok((conns, retries))
}

/// Runs `lines` open-loop at `rate` over the connections (request `i` on
/// connection `i % conns`), returning samples indexed into `lines`.
pub(super) fn open_phase(
    transports: &mut [TcpTransport],
    lines: &[String],
    rate: f64,
    keep: bool,
) -> Result<Vec<Sample>, String> {
    let conns = transports.len();
    let dues = load::fixed_rate(lines.len(), rate, LEAD);
    let start = Instant::now();
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .iter_mut()
            .enumerate()
            .map(|(c, t)| {
                let (dues, lines) = (&dues, lines);
                scope.spawn(move || {
                    let idx: Vec<usize> = (c..lines.len()).step_by(conns).collect();
                    let sched: Vec<Scheduled> = idx
                        .iter()
                        .map(|&i| Scheduled {
                            due: dues[i],
                            line: &lines[i],
                        })
                        .collect();
                    load::open_loop(t, start, &sched, keep).map(|samples| {
                        samples
                            .into_iter()
                            .map(|mut s| {
                                s.index = idx[s.index];
                                s
                            })
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked").map_err(err))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(per_conn.into_iter().flatten().collect())
}

/// Runs `lines` closed-loop over the connections with `window` requests
/// pipelined on each; returns samples and the throughput.
fn window_phase(
    transports: &mut [TcpTransport],
    lines: &[String],
    window: usize,
    keep: bool,
) -> Result<(Vec<Sample>, f64), String> {
    let conns = transports.len();
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .iter_mut()
            .enumerate()
            .map(|(c, t)| {
                scope.spawn(move || {
                    let idx: Vec<usize> = (c..lines.len()).step_by(conns).collect();
                    let mine: Vec<&str> = idx.iter().map(|&i| lines[i].as_str()).collect();
                    load::windowed(t, window, &mine, keep).map(|samples| {
                        samples
                            .into_iter()
                            .map(|mut s| {
                                s.index = idx[s.index];
                                s
                            })
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked").map_err(err))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let samples: Vec<Sample> = per_conn.into_iter().flatten().collect();
    let rps = sliced_rate(&samples, RATE_SLICES);
    Ok((samples, rps))
}

/// Completions per second: the median over `slices` equal time slices
/// from the first send to the last answer, so a short stall of the host
/// moves one slice rather than the whole figure.
fn sliced_rate(samples: &[Sample], slices: usize) -> f64 {
    let (Some(first), Some(last)) = (
        samples.iter().map(|s| s.sent).min(),
        samples.iter().map(|s| s.done).max(),
    ) else {
        return 0.0;
    };
    let span = last.duration_since(first).as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    let width = span / slices as f64;
    let mut counts = vec![0usize; slices];
    for s in samples {
        let k = (s.done.duration_since(first).as_secs_f64() / width) as usize;
        counts[k.min(slices - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    crate::stats::median(&rates).unwrap_or(0.0)
}

/// What the timed phases produced. A read sample's `index` is its place in
/// its phase's schedule; the requests themselves are regenerated from the
/// generator when checked ([`each_read`]), so a long run keeps a few bytes
/// per request rather than the request.
#[derive(Default)]
pub(super) struct Phases {
    /// Open-loop reads; on a traced run those from `traced_from` on were
    /// traced.
    pub(super) open: Vec<Sample>,
    pub(super) n_open: usize,
    pub(super) traced_from: usize,
    /// Saturation reads.
    pub(super) sat: Vec<Sample>,
    pub(super) n_sat: usize,
    pub(super) rps: f64,
    /// Updates, in due order.
    pub(super) updates: Vec<Sample>,
    pub(super) updates_sent: u64,
    pub(super) expected_lookups: u64,
    pub(super) read_counters: Counters,
    pub(super) update_counters: Counters,
    pub(super) window_counters: Counters,
    pub(super) open_handle: (u64, f64),
    pub(super) open_round_trip_us: f64,
    pub(super) late: Vec<f64>,
    /// Oracle findings on reads answered before any update.
    pub(super) problems: Vec<String>,
    /// Connections reopened because they shared a worker with another.
    pub(super) placement_retries: u64,
    /// Reads the oracle compared with an in-process answer.
    pub(super) checked_reads: usize,
}

impl Phases {
    pub(super) fn reads_sent(&self) -> u64 {
        (self.n_open + self.n_sat) as u64
    }

    /// The untraced open-loop reads (all of them on an untraced run).
    pub(super) fn untraced_open(&self) -> impl Iterator<Item = &Sample> {
        self.open.iter().filter(|s| s.index < self.traced_from)
    }
}

/// Generates `n` reads' wire lines, adding their cache lookups to
/// `lookups_issued`.
fn read_lines(gen: &mut Gen, live: &Live, n: usize, lookups_issued: &mut u64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let req = gen.read(live, i);
            *lookups_issued += lookups(&req);
            req.to_string()
        })
        .collect()
}

fn update_lines(gen: &mut Gen, live: &Live, n: usize) -> Vec<String> {
    (0..n).map(|_| gen.update(live).to_string()).collect()
}

/// Calls `f(saturation, request, sample)` for every timed read in schedule
/// order, regenerating each request from `gen`, the generator as it stood
/// before the phases drew them.
pub(super) fn each_read<'a>(
    gen: &Gen,
    live: &Live,
    phases: &'a Phases,
    mut f: impl FnMut(bool, &QueryRequest, &'a Sample) -> Result<(), String>,
) -> Result<(), String> {
    let mut gen = gen.clone();
    for (saturation, samples, n) in [
        (false, &phases.open, phases.n_open),
        (true, &phases.sat, phases.n_sat),
    ] {
        let mut by_index: Vec<&Sample> = samples.iter().collect();
        by_index.sort_by_key(|s| s.index);
        let mut next = by_index.into_iter().peekable();
        for i in 0..n {
            let req = gen.read(live, i);
            while let Some(s) = next.next_if(|s| s.index == i) {
                f(saturation, &req, s)?;
            }
        }
    }
    Ok(())
}

/// The timed phases. Reads go open-loop, then saturate; updates follow on
/// one connection (`batch-*`, `geo-cold`) or run beside the reads
/// (`update-mixed`). On a traced run the open loop's second half is
/// traced, and so is everything after it. `gen` draws the inputs;
/// `gen_before` is its state before the phases, for the oracle.
pub(super) fn run_phases(
    p: &Params,
    cfg: &Config,
    live: &Live,
    gen: &mut Gen,
    nproc: usize,
) -> Result<Phases, String> {
    let gen_before = gen.clone();
    let mixed = p.kind == Kind::UpdateMixed;
    let n_open = ((p.read_rate * cfg.seconds * p.open_share) as usize).max(MIN_READS);
    let n_sat = p.saturation;
    // Connections are opened once and kept for every phase, as a client
    // would keep them.
    let read_conns = p.read_connections(nproc);
    let (mut conns, placement_retries) = connect_spread(live, read_conns + usize::from(mixed))?;
    let (readers, writer_conn) = conns.split_at_mut(read_conns);
    // Geo answers are parsed whole (snapped nodes, routes); batch answers
    // are checked by digest against the expected rendering.
    let keep_text = p.kind == Kind::GeoCold;
    let mut expected_lookups = 0;
    let open_lines = read_lines(gen, live, n_open, &mut expected_lookups);
    let sat_lines = read_lines(gen, live, n_sat, &mut expected_lookups);
    // Updates: at the writer's rate beside the reads (update-mixed, never
    // fewer than the floor), or the floor's count one at a time on their
    // own.
    let (n_upd_open, n_upd_sat) = if mixed {
        let open_s = n_open as f64 / p.read_rate;
        // At the seed the saturation batch runs for about two seconds.
        let a = ((p.update_rate * open_s) as usize).max(MIN_UPDATES);
        (a, ((p.update_rate * 2.0) as usize).max(1))
    } else {
        (MIN_UPDATES, 0)
    };
    let upd_open = update_lines(gen, live, n_upd_open);
    let upd_sat = update_lines(gen, live, n_upd_sat);
    let traced_from = if cfg.trace { n_open / 2 } else { n_open };
    let mut out = Phases {
        n_open,
        traced_from,
        n_sat,
        updates_sent: (n_upd_open + n_upd_sat) as u64,
        expected_lookups,
        placement_retries,
        ..Phases::default()
    };
    if mixed {
        live.handler.keep_epochs(KEEP_EVERY_EPOCH);
    }
    let h = &live.handler;
    let before = Counters::read(&live.store, NS)?;
    h.reads.take();
    h.writes.take();

    // Open loop, with the writer beside it on update-mixed.
    let mut upd_samples: Vec<Sample> = Vec::new();
    let mut writer_offset = 0;
    for (lo, hi) in [(0, traced_from), (traced_from, n_open)] {
        if lo == hi {
            continue;
        }
        let traced = lo == traced_from;
        h.set_tracing(traced);
        let (samples, writes) = std::thread::scope(|scope| {
            let writer = mixed.then(|| {
                // The writer's share of this half, in proportion.
                let a = writer_offset;
                let b = (n_upd_open * hi).div_ceil(n_open);
                let w = &upd_open[a..b];
                writer_offset = b;
                let conn = &mut *writer_conn;
                scope.spawn(move || open_phase(conn, w, p.update_rate, true))
            });
            let reads = open_phase(readers, &open_lines[lo..hi], p.read_rate, keep_text);
            let writes = writer.map(|w| w.join().expect("writer thread panicked"));
            (reads, writes)
        });
        let mut samples = samples?;
        for s in &mut samples {
            s.index += lo;
        }
        if let Some(w) = writes {
            upd_samples.extend(w?);
        }
        if !traced {
            out.open_handle = h.reads.take();
            let round_trips: Vec<f64> = samples.iter().map(|s| s.round_trip_s() * 1e6).collect();
            out.open_round_trip_us = mean(&round_trips);
        }
        out.late.extend(samples.iter().map(Sample::late_s));
        out.open.extend(samples);
    }
    drop(open_lines);
    h.set_tracing(cfg.trace);

    // Saturation, with the writer still going on update-mixed.
    let (sat, writes) = std::thread::scope(|scope| {
        let writer = (n_upd_sat > 0)
            .then(|| scope.spawn(|| open_phase(writer_conn, &upd_sat, p.update_rate, true)));
        let sat = window_phase(readers, &sat_lines, p.window, keep_text);
        let writes = writer.map(|w| w.join().expect("writer thread panicked"));
        (sat, writes)
    });
    drop(sat_lines);
    let (sat_samples, rps) = sat?;
    out.rps = rps;
    out.sat = sat_samples;
    if let Some(w) = writes {
        upd_samples.extend(w?);
    }
    let after_reads = Counters::read(&live.store, NS)?;
    out.read_counters = after_reads.since(&before);

    // Updates on their own (`batch-*`, `geo-cold`), on an idle server. The
    // reads' oracle runs first, at the epoch they were answered at.
    if !mixed {
        let mut problems = Vec::new();
        let mut oracle = CurrentEpoch::new(live, &mut problems)?;
        each_read(&gen_before, live, &out, |_, req, s| {
            oracle.check(req, s, &mut problems)
        })?;
        out.problems = problems;
        out.checked_reads = oracle.checked;
        let (w, _) = window_phase(&mut readers[..1], &upd_open, 1, true)?;
        upd_samples.extend(w);
    }
    let after = Counters::read(&live.store, NS)?;
    out.update_counters = if mixed {
        out.read_counters
    } else {
        after.since(&after_reads)
    };
    out.window_counters = after.since(&before);
    out.late.extend(upd_samples.iter().map(Sample::late_s));
    // Acknowledgement order is due order on the single writer connection.
    upd_samples.sort_by_key(|s| s.due);
    out.updates = upd_samples;
    h.set_tracing(false);
    Ok(out)
}

/// Writes every timed request as `phase,index,due_ms,sent_ms,done_ms`
/// (milliseconds from the run start), the raw material of every latency
/// and throughput figure.
pub(super) fn write_samples(
    cfg: &Config,
    name: &str,
    origin: Instant,
    phases: &Phases,
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(&cfg.out_dir)?;
    let path = cfg.out_dir.join(format!(
        "{name}-seed{}-trace{}-samples.csv",
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "phase,index,due_ms,sent_ms,done_ms")?;
    let ms = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e3;
    let open_phase = |s: &Sample| {
        if s.index < phases.traced_from {
            "open"
        } else {
            "open-traced"
        }
    };
    let rows = phases
        .open
        .iter()
        .map(|s| (open_phase(s), s))
        .chain(phases.sat.iter().map(|s| ("saturation", s)))
        .chain(phases.updates.iter().map(|s| ("update", s)));
    for (phase, s) in rows {
        writeln!(
            out,
            "{phase},{},{:.4},{:.4},{:.4}",
            s.index,
            ms(s.due),
            ms(s.sent),
            ms(s.done)
        )?;
    }
    out.flush()
}
