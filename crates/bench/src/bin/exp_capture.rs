//! E23 — capture overhead, byte cost, and self-verifying replay.
//!
//! A seeded typing+video session over a 1%-loss UDP link runs twice with
//! identical inputs: once bare, once with a consent-gated full
//! `adshare-capture/v1` capture armed. The two configurations interleave
//! five run pairs of the 10 s steady-state loop; the overhead is the
//! median paired *process CPU time* ratio — wall clock on a shared
//! machine carries scheduler steal, and unpaired comparisons carry
//! thermal drift, either of which dwarfs a 5% effect.
//!
//! That CPU overhead is printed as a report, not gated. On a 2-vCPU shared
//! machine it read 3.7–8.8 % from run to run at one commit, so a 5 % gate
//! failed at random and had to be widened by hand. What the gate holds
//! instead are counts that repeat exactly, and that move as soon as the
//! capture costs more per record:
//!
//! * the file is the taped bytes plus the header and a fixed
//!   `RECORD_FRAMING` per record — nothing else is written;
//! * the egress records are exactly the RTP the AH put on the wire: as
//!   many records as packets sent and retransmitted, as many bytes as it
//!   counted sent;
//! * arming changes neither the wire bytes nor the wire digest.
//!
//! The armed run then proves the capture is worth its bytes:
//!
//! * round-trips through `to_bytes` → `parse_capture` → [`replay`] and
//!   must come back **bit-exact** against the manifest (wire digest plus
//!   every decoded-surface digest);
//! * exports a historical Perfetto trace from the capture file alone,
//!   which must contain no negative timestamps (shared virtual clock);
//! * a `MultiHost` warm-file round trip shows the persisted encode cache
//!   raising the hit rate of an identical re-share.
//!
//! Emits the capture (`exp_capture.bin`), its
//! `adshare-capture-manifest/v1` manifest, the historical trace, and an
//! `adshare-obs/v1` snapshot for `obs_schema_check`.

use adshare_bench::{emit_document, emit_snapshot, fmt_bytes, print_table, timed};
use adshare_capture::{
    manifest_json, parse_capture, CaptureMode, Direction, StreamKind, CAPTURE_MAGIC,
};
use adshare_host::{CacheSharing, HostConfig, MultiHost, Workload as HostWorkload};
use adshare_netsim::udp::LinkConfig;
use adshare_screen::workload::{Typing, Video, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_session::replay::{historical_chrome_trace, replay};
use adshare_session::{AhConfig, Layout, SimSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 2300;
const STEADY_TICKS: u32 = 300; // 10 s of 33 ms ticks
const REPEATS: usize = 5;
/// File bytes around each record's payload: length prefix (4), direction,
/// kind, transport, actor and timestamp (16), checksum (8).
const RECORD_FRAMING: u64 = 28;
/// File header: magic, flags (8), session id (8), start time (8).
const FILE_HEADER: u64 = CAPTURE_MAGIC.len() as u64 + 24;

/// Process CPU time (user + system, all threads) in microseconds, read
/// from `/proc/self/stat`. Unlike wall time it is immune to co-tenant
/// scheduler steal, which on shared CI machines dwarfs a 5% effect.
/// Returns `None` off Linux; the caller then falls back to wall time.
fn cpu_time_us() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14/15 (utime/stime) counted after the parenthesised comm,
    // which may itself contain spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut it = rest.split_ascii_whitespace();
    let utime: f64 = it.nth(11)?.parse().ok()?;
    let stime: f64 = it.next()?.parse().ok()?;
    // Linux reports clock ticks at 100 Hz (USER_HZ).
    Some((utime + stime) * 10_000.0)
}

/// One configuration's steady-state cost: `(session, cpu_ms, wall_ms)`
/// over just the workload loop — arming happens before the clock starts,
/// so the numbers are pure per-datagram recording overhead.
fn run_once(arm: bool) -> (SimSession, f64, f64) {
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(40, 40, 280, 210), [250, 250, 250, 255]);
    let mut s = SimSession::new(d, AhConfig::default(), SEED);
    // Arm before the participant joins: replay rebuilds surfaces from the
    // recorded stream alone, so the initial full-state sync must be on file.
    // The Full capture streams to disk incrementally — the production
    // shape for long video-heavy sessions — so the CPU gate below covers
    // the file I/O, not just in-memory taping.
    if arm {
        let cap = s
            .arm_capture(true, CaptureMode::Full, SEED)
            .expect("consent supplied");
        cap.stream_to(&std::env::temp_dir().join("exp_capture_stream.bin"))
            .expect("full capture streams to disk");
    }
    let link = LinkConfig {
        loss: 0.01,
        delay_us: 20_000,
        jitter_us: 4_000,
        ..Default::default()
    };
    let p = s.add_udp_participant(
        Layout::Original,
        link,
        LinkConfig::default(),
        None,
        SEED + 1,
    );
    s.run_until(10_000, 300_000_000, |s| s.converged(p))
        .expect("initial sync");
    // Typing plus an animating video region: enough per-tick encode and
    // wire traffic that the loop wall time is a stable measurement base.
    let mut typing = Typing::new(w, 2);
    let mut video = Video::new(w, Rect::new(16, 60, 240, 130));
    let mut rng = StdRng::seed_from_u64(SEED + 2);
    let cpu_before = cpu_time_us();
    let ((), wall_us) = timed(|| {
        for _ in 0..STEADY_TICKS {
            typing.tick(s.ah.desktop_mut(), &mut rng);
            video.tick(s.ah.desktop_mut(), &mut rng);
            s.step(33_333);
        }
    });
    let cpu_us = match (cpu_before, cpu_time_us()) {
        (Some(a), Some(b)) => b - a,
        _ => wall_us,
    };
    (s, cpu_us / 1000.0, wall_us / 1000.0)
}

/// Interleave N off/on run pairs and report the **median paired CPU
/// ratio** as the overhead, plus each side's best `(cpu_ms, wall_ms)`
/// for the table. Adjacent pairing cancels slow machine drift (thermal,
/// co-tenant load) that best-of-N alone cannot; the median shrugs off a
/// single preempted pair. Keeps each side's last session (every repeat
/// is bit-identical — only timing varies).
fn measure() -> (f64, (SimSession, f64, f64), (SimSession, f64, f64)) {
    let _ = run_once(false); // warm caches and the allocator
    let mut ratios = Vec::with_capacity(REPEATS);
    let mut best_off = (f64::INFINITY, f64::INFINITY);
    let mut best_on = (f64::INFINITY, f64::INFINITY);
    let mut kept_off = None;
    let mut kept_on = None;
    for _ in 0..REPEATS {
        let (s, off_cpu, off_wall) = run_once(false);
        best_off = (best_off.0.min(off_cpu), best_off.1.min(off_wall));
        kept_off = Some(s);
        let (s, on_cpu, on_wall) = run_once(true);
        best_on = (best_on.0.min(on_cpu), best_on.1.min(on_wall));
        kept_on = Some(s);
        ratios.push(on_cpu / off_cpu);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    (
        overhead_pct,
        (kept_off.expect("ran"), best_off.0, best_off.1),
        (kept_on.expect("ran"), best_on.0, best_on.1),
    )
}

/// Cold-vs-prewarmed `MultiHost` run: returns (hits, misses, warm file).
fn host_run(warm: Option<&[u8]>) -> (u64, u64, Vec<u8>) {
    let mut host = MultiHost::new(HostConfig::default());
    let ns = adshare_host::shared_namespace(&AhConfig::default());
    if let Some(bytes) = warm {
        host.prewarm(ns, bytes).expect("warm file parses");
    }
    let mut d = Desktop::new(320, 240);
    let win = d.create_window(1, Rect::new(16, 16, 192, 128), [24, 48, 72, 255]);
    let idx = host.add_session(d, AhConfig::default(), SEED, CacheSharing::Shared);
    host.session_mut(idx).add_udp_participant(
        Layout::Original,
        LinkConfig::default(),
        LinkConfig::default(),
        None,
        SEED ^ 0x77,
    );
    let mut tick = 0u32;
    let wl: HostWorkload = Box::new(move |sess: &mut SimSession, _now| {
        tick += 1;
        let c = ((tick * 13) % 200) as u8 + 20;
        let x = (tick % 3) * 48;
        sess.ah
            .desktop_mut()
            .fill(win, Rect::new(x, 0, 48, 48), [c, c ^ 0x5a, 90, 255]);
        tick < 30
    });
    host.set_workload(idx, wl);
    host.run_until(600_000);
    let warm_out = host.export_warm(ns, 512);
    (host.cache().hits(), host.cache().misses(), warm_out)
}

fn main() {
    let (overhead_pct, (off, off_cpu_ms, off_ms), (mut on, on_cpu_ms, on_ms)) = measure();

    // Freeze the armed run and round-trip it: bytes → parse → replay.
    on.finalize_capture().expect("capture armed");
    let manifest = on.capture_manifest().expect("capture armed");
    let cap_handle = on.capture().expect("capture armed").clone();
    let cap_bytes = cap_handle.to_bytes();
    let capture = parse_capture(&cap_bytes).expect("capture parses back");
    let report = replay(&capture, Some(&manifest));
    let trace = historical_chrome_trace(&capture);

    let tx_off = off.ah.stats().bytes_sent;
    let tx_on = on.ah.stats().bytes_sent;
    let stats = cap_handle.stats();
    let rows = vec![
        vec![
            "capture off".to_string(),
            format!("{off_cpu_ms:.0}"),
            format!("{off_ms:.0}"),
            fmt_bytes(tx_off),
            "-".to_string(),
            "-".to_string(),
        ],
        vec![
            "capture full".to_string(),
            format!("{on_cpu_ms:.0}"),
            format!("{on_ms:.0}"),
            fmt_bytes(tx_on),
            format!("{}", stats.records),
            fmt_bytes(cap_bytes.len() as u64),
        ],
    ];
    print_table(
        "E23: 10 s steady-state typing+video over 1%-loss UDP, median of 5 interleaved run pairs",
        &[
            "config",
            "cpu ms",
            "wall ms",
            "tx bytes",
            "records",
            "capture file",
        ],
        &rows,
    );
    // The counts the gate holds (see the module doc).
    let records = capture.records.len() as u64;
    let taped: u64 = capture.records.iter().map(|r| r.payload.len() as u64).sum();
    let (tx_records, tx_taped) = capture
        .records
        .iter()
        .filter(|r| r.dir == Direction::Tx && r.kind == StreamKind::Rtp)
        .fold((0u64, 0u64), |(n, b), r| {
            (n + 1, b + r.payload.len() as u64)
        });
    let ah = on.ah.stats();
    println!(
        "\ncapture file: {} B = {FILE_HEADER} B header + {taped} B taped + {records} records \
         x {RECORD_FRAMING} B framing",
        cap_bytes.len()
    );
    println!(
        "egress taped: {tx_records} RTP records, {tx_taped} B; AH sent {} packets + {} \
         retransmits, {} B",
        ah.rtp_packets, ah.retransmits, ah.bytes_sent
    );
    println!(
        "capture overhead (report only): {overhead_pct:+.2}% cpu, {:.2} capture bytes per \
         wire byte",
        cap_bytes.len() as f64 / tx_on as f64
    );

    let (cold_hits, cold_misses, warm_file) = host_run(None);
    let (warm_hits, warm_misses, _) = host_run(Some(&warm_file));
    let rate = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64 * 100.0;
    println!(
        "warm-file re-share: {} warm file, cache hit rate {:.1}% cold -> {:.1}% prewarmed",
        fmt_bytes(warm_file.len() as u64),
        rate(cold_hits, cold_misses),
        rate(warm_hits, warm_misses),
    );

    println!("\nchecks:");
    println!("  the file is the taped bytes plus {RECORD_FRAMING} B per record; every RTP");
    println!("  datagram the AH sent is taped once, byte for byte; the file replays");
    println!("  bit-exact against its manifest; the historical trace has no negative");
    println!("  timestamps; a warm file raises an identical re-share's hit rate.");

    assert_eq!(
        cap_bytes.len() as u64,
        FILE_HEADER + taped + records * RECORD_FRAMING,
        "the capture file carries more than its records"
    );
    assert_eq!(
        (tx_records, tx_taped),
        (ah.rtp_packets + ah.retransmits, ah.bytes_sent),
        "egress records and the AH's wire counters disagree"
    );
    assert_eq!(tx_off, tx_on, "arming the capture changed the wire traffic");
    assert_eq!(
        off.wire_digest(),
        on.wire_digest(),
        "arming the capture changed the wire digest"
    );
    assert!(report.bit_exact(), "replay not bit-exact: {report:?}");
    assert!(report.records_fed > 0, "replay fed no ingress records");
    assert_eq!(
        adshare_capture::wire_digest_of(&capture.records),
        on.wire_digest(),
        "capture egress digest diverged from the live session"
    );
    // Parses every record: a negative or fractional `ts` is an error there.
    adshare_obs::validate_chrome_trace(&trace).expect("historical trace validates");
    assert!(
        warm_hits > cold_hits && warm_misses < cold_misses,
        "prewarm did not improve the re-share: {warm_hits}/{warm_misses} vs {cold_hits}/{cold_misses}"
    );

    println!();
    emit_document("capture:", "exp_capture.bin", &cap_bytes);
    emit_document(
        "manifest:",
        "exp_capture_manifest.json",
        manifest_json(&manifest),
    );
    emit_document("trace:", "exp_capture_trace.json", &trace);
    emit_snapshot(&on.obs().registry, "exp_capture");
}
